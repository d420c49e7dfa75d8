//! Exp 7 (ours): flat-vs-nested query engine comparison. Builds the same
//! WC-INDEX+ on a representative road/social subset and measures, within one
//! run, (a) mean `Query⁺` latency through the nested per-vertex `WcIndex`,
//! the contiguous `FlatIndex` arena, and the zero-copy `FlatView` over the
//! encoded `WCIF` bytes, and (b) the `WCIF` snapshot's load cost: owned
//! decode (validated bulk copy) and zero-copy view parse (validation only).
//! Answers are cross-checked query by query, so the experiment doubles as an
//! end-to-end parity test.
//!
//! The host is typically a shared single-core container, so only the
//! within-run ratio `query_speedup` is meaningful across runs; it is part of
//! the JSON output recorded in RESULTS.md.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp7_flat_query [scale] [num-queries]`

use wcsd_bench::measure::flat_query_comparison;
use wcsd_bench::report::{flat_query_table, to_json};
use wcsd_bench::{parse_exp_args, Dataset, QueryWorkload, Scale};

fn main() {
    let args = parse_exp_args();
    let num_queries: usize =
        args.rest.first().map(|s| s.parse().unwrap_or_else(|_| usage(s))).unwrap_or(
            match args.scale {
                Scale::Tiny => 500,
                Scale::Small => 2_000,
                _ => 10_000,
            },
        );
    // Min-of-passes needs a few passes to shake off scheduler noise on the
    // shared container, but each extra pass replays the whole workload.
    let reps = 5;

    let road = Dataset::road_suite(args.scale);
    let social = Dataset::social_suite(args.scale);
    let subset: Vec<Dataset> =
        [&road[0], &road[2], &road[4], &social[0], &social[2]].into_iter().cloned().collect();

    let mut results = Vec::new();
    for d in &subset {
        let g = d.generate();
        eprintln!("[exp7] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        let workload = QueryWorkload::uniform(&g, num_queries, 0xF1A7);
        let r = flat_query_comparison(&d.name, &g, &workload, reps);
        eprintln!(
            "[exp7]   nested {:.3}µs flat {:.3}µs view {:.3}µs ({:.2}x query); \
             WCIF decode {:.2}ms, view parse {:.2}ms",
            r.nested_query_us,
            r.flat_query_us,
            r.view_query_us,
            r.query_speedup,
            r.flat_decode_ms,
            r.view_parse_ms
        );
        results.push(r);
    }

    println!("{}", flat_query_table("Exp 7 — flat vs. nested query engine", &results));
    println!("{}", to_json(&results));
}

fn usage(arg: &str) -> ! {
    eprintln!("invalid query count {arg:?}");
    eprintln!("usage: exp7_flat_query [tiny|small|medium|large] [num-queries]");
    std::process::exit(2);
}
