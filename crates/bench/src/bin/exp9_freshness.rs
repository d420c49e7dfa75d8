//! Exp 9 (ours): decremental repair cost and update-to-servable freshness.
//!
//! Two measurements on a road/social subset:
//!
//! 1. **Repair vs. rebuild.** For a sample of existing edges, time
//!    `DynamicWcIndex::remove_edge` with the decremental repair (threshold
//!    1.0, never falls back) against a from-scratch
//!    `IndexBuilder::build_with_order` of the post-deletion graph under the
//!    same vertex order — the index both paths produce is bit-identical, so
//!    the ratio is a pure cost comparison.
//! 2. **Freshness.** A live in-process server is fed a mixed add/remove
//!    stream through the full `feed` pipeline (apply → freeze → `WCIF`
//!    snapshot → `RELOAD`), reporting the update-to-servable latency
//!    percentiles from `wcsd_bench::freshness`.
//!
//! The host is typically a shared single-core container, so the within-run
//! repair/rebuild ratio is the meaningful number; both JSON blocks are
//! recorded in RESULTS.md.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp9_freshness [scale] [num-deletions]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use wcsd_bench::freshness::{self, EdgeUpdate, FeedConfig};
use wcsd_bench::report::{json_string, to_json, JsonRecord};
use wcsd_bench::{parse_exp_args, Dataset, Scale};
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::IndexBuilder;
use wcsd_graph::Graph;
use wcsd_server::{Server, ServerConfig};

/// Repair-vs-rebuild comparison for one dataset.
struct RepairResult {
    dataset: String,
    deletions: usize,
    affected_hubs_mean: f64,
    repair_ms_mean: f64,
    rebuild_ms_mean: f64,
    /// rebuild time / repair time (> 1 means the repair wins).
    repair_speedup: f64,
}

impl JsonRecord for RepairResult {
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("dataset", json_string(&self.dataset)),
            ("deletions", self.deletions.to_string()),
            ("affected_hubs_mean", format!("{:.1}", self.affected_hubs_mean)),
            ("repair_ms_mean", format!("{:.3}", self.repair_ms_mean)),
            ("rebuild_ms_mean", format!("{:.3}", self.rebuild_ms_mean)),
            ("repair_speedup", format!("{:.2}", self.repair_speedup)),
        ]
    }
}

fn main() {
    let args = parse_exp_args();
    let deletions: usize =
        args.rest.first().map(|s| s.parse().unwrap_or_else(|_| usage(s))).unwrap_or(
            match args.scale {
                Scale::Tiny => 12,
                Scale::Small => 24,
                _ => 40,
            },
        );

    let road = Dataset::road_suite(args.scale);
    let social = Dataset::social_suite(args.scale);
    let subset: Vec<Dataset> = [&road[0], &road[2], &social[0]].into_iter().cloned().collect();

    let mut repair_results = Vec::new();
    let mut feed_results = Vec::new();
    for d in &subset {
        let g = d.generate();
        eprintln!("[exp9] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        repair_results.push(repair_vs_rebuild(&d.name, &g, deletions));
        feed_results.push(feed_freshness(&d.name, &g));
    }

    for r in &repair_results {
        println!(
            "{}: {} deletions, {:.1} affected hubs mean -> repair {:.3}ms vs rebuild {:.3}ms \
             ({:.2}x)",
            r.dataset,
            r.deletions,
            r.affected_hubs_mean,
            r.repair_ms_mean,
            r.rebuild_ms_mean,
            r.repair_speedup
        );
    }
    for r in &feed_results {
        println!("{}", freshness::summary(r));
    }
    println!("{}", to_json(&repair_results));
    println!("{}", to_json(&feed_results));
}

/// Times the decremental repair of `deletions` sampled edges against a
/// fresh same-order rebuild of the post-deletion graph.
fn repair_vs_rebuild(name: &str, g: &Graph, deletions: usize) -> RepairResult {
    let builder = IndexBuilder::wc_index_plus();
    let base = DynamicWcIndex::new(g, builder.clone());
    let order = base.index().order().clone();
    let edges: Vec<_> = g.edges().collect();
    let stride = (edges.len() / deletions.max(1)).max(1);

    let (mut repair_s, mut rebuild_s, mut affected, mut count) = (0.0f64, 0.0f64, 0usize, 0usize);
    for e in edges.iter().step_by(stride).take(deletions) {
        let mut dyn_idx = base.clone();
        dyn_idx.set_repair_threshold(1.0);
        let started = Instant::now();
        assert!(dyn_idx.remove_edge(e.u, e.v));
        repair_s += started.elapsed().as_secs_f64();
        let stats = dyn_idx.last_repair().expect("threshold 1.0 always repairs");
        affected += stats.affected_hubs;

        let started = Instant::now();
        let fresh = builder.build_with_order(dyn_idx.graph(), order.clone());
        rebuild_s += started.elapsed().as_secs_f64();
        // The comparison is only honest if both paths produce the same index.
        assert_eq!(fresh.total_entries(), dyn_idx.index().total_entries(), "repair diverged");
        count += 1;
    }
    RepairResult {
        dataset: name.to_string(),
        deletions: count,
        affected_hubs_mean: affected as f64 / count.max(1) as f64,
        repair_ms_mean: repair_s * 1e3 / count.max(1) as f64,
        rebuild_ms_mean: rebuild_s * 1e3 / count.max(1) as f64,
        repair_speedup: if repair_s > 0.0 { rebuild_s / repair_s } else { 0.0 },
    }
}

/// Runs the feed pipeline against a live in-process server and returns the
/// freshness record.
fn feed_freshness(name: &str, g: &Graph) -> wcsd_bench::FeedResult {
    let mut dyn_idx = DynamicWcIndex::new(g, IndexBuilder::wc_index_plus());
    dyn_idx.set_repair_threshold(1.0);
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

    let mut admin = wcsd_server::Client::connect(&*addr).expect("connect for shutdown");
    admin.shutdown().expect("clean shutdown");
    handle.join().expect("server thread joins");
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn usage(arg: &str) -> ! {
    eprintln!("invalid deletion count {arg:?}");
    eprintln!("usage: exp9_freshness [tiny|small|medium|large] [num-deletions]");
    std::process::exit(2);
}
