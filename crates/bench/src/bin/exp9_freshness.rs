//! Exp 9 (ours): update-to-servable freshness.
//!
//! On a road/social subset, a live in-process server is fed a mixed
//! add/remove stream through the full `feed` pipeline (apply → settle and
//! freeze → `WCIF` snapshot → `RELOAD`), reporting the update-to-servable
//! latency percentiles from `wcsd_bench::freshness`. After the stream the
//! settled labels are asserted equal to a fresh
//! `IndexBuilder::build_with_order` of the final graph under the initial
//! vertex order.
//!
//! The record is kept in RESULTS.md, with the measurements that retired the
//! affected-hub repair in favour of the one same-order settle.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp9_freshness [scale]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use wcsd_bench::freshness::{self, EdgeUpdate, FeedConfig};
use wcsd_bench::report::to_json;
use wcsd_bench::{parse_exp_args, Dataset};
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::IndexBuilder;
use wcsd_graph::Graph;
use wcsd_server::{Server, ServerConfig};

fn main() {
    let args = parse_exp_args();
    if let Some(arg) = args.rest.first() {
        eprintln!("unexpected argument {arg:?}");
        eprintln!("usage: exp9_freshness [tiny|small|medium|large]");
        std::process::exit(2);
    }
    let road = Dataset::road_suite(args.scale);
    let social = Dataset::social_suite(args.scale);
    let mut feed_results = Vec::new();
    for d in [&road[0], &road[2], &social[0]] {
        let g = d.generate();
        eprintln!("[exp9] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        feed_results.push(feed_freshness(&d.name, &g));
    }
    for r in &feed_results {
        println!("{}", freshness::summary(r));
    }
    println!("{}", to_json(&feed_results));
}

/// Runs the feed pipeline against a live in-process server, checks the
/// settled labels against a fresh same-order build and returns the
/// freshness record.
fn feed_freshness(name: &str, g: &Graph) -> wcsd_bench::FeedResult {
    let builder = IndexBuilder::wc_index_plus();
    let mut dyn_idx = DynamicWcIndex::new(g, builder.clone());
    let order = dyn_idx.index().order().clone();
    let server = Server::bind_flat(dyn_idx.freeze(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    // A deterministic mixed stream: every third update deletes a sampled
    // existing edge, the rest add fresh long-range edges.
    let mut rng = StdRng::seed_from_u64(0x9E37_79B9 ^ 0x2026);
    let n = g.num_vertices() as u32;
    let edges: Vec<_> = g.edges().collect();
    let mut updates = Vec::new();
    for i in 0..24usize {
        if i % 3 == 2 {
            let e = edges[(i * 37) % edges.len()];
            updates.push(EdgeUpdate::Remove { u: e.u, v: e.v });
        } else {
            updates.push(EdgeUpdate::Add {
                u: rng.gen_range(0..n),
                v: rng.gen_range(0..n),
                q: rng.gen_range(1..=3),
            });
        }
    }

    let dir = std::env::temp_dir().join(format!("wcsd-exp9-{}-{name}", std::process::id()));
    let config = FeedConfig {
        batch_size: 8,
        addr: Some(addr.clone()),
        connect_timeout: Duration::from_secs(10),
    };
    let (result, _snapshots) =
        freshness::run_feed(name, &mut dyn_idx, &updates, &dir, &config).expect("feed run");

    let fresh = builder.build_with_order(dyn_idx.graph(), order);
    let settled = dyn_idx.index();
    for v in 0..n {
        assert_eq!(fresh.labels(v), settled.labels(v), "{name}: settled L(v{v}) diverged");
    }

    let mut admin = wcsd_server::Client::connect(&*addr).expect("connect for shutdown");
    admin.shutdown().expect("clean shutdown");
    handle.join().expect("server thread joins");
    std::fs::remove_dir_all(&dir).ok();
    result
}
