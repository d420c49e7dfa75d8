//! Exp 3 (Figure 7): query time on road networks for W-BFS, Dijkstra, C-BFS,
//! Naive, WC-INDEX and WC-INDEX+ over 10,000 random queries per dataset.
//! Expected shape: index-based methods are orders of magnitude faster than
//! the online searches; Dijkstra is the slowest online method.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp3_query_road [scale] [num_queries]`

use wcsd_bench::measure::{build_method, run_queries, MethodKind};
use wcsd_bench::report::query_time_table;
use wcsd_bench::{parse_exp_args, Dataset, QueryWorkload};

fn main() {
    let args = parse_exp_args();
    let num_queries: usize = args.rest.first().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let mut results = Vec::new();
    for d in Dataset::road_suite(args.scale) {
        let g = d.generate();
        // Online methods dominate the runtime; cap their share of the workload
        // so the experiment stays laptop-friendly while the per-query average
        // remains meaningful.
        let workload_full = QueryWorkload::uniform(&g, num_queries, 42);
        let workload_online = QueryWorkload::uniform(&g, num_queries.min(200), 42);
        eprintln!("[exp3] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        for m in MethodKind::query_methods() {
            let (built, _) = build_method(&d.name, m, &g);
            let workload = match m {
                MethodKind::CBfs | MethodKind::Dijkstra | MethodKind::WBfs => &workload_online,
                _ => &workload_full,
            };
            let q = run_queries(&d.name, m, &built, workload);
            eprintln!("[exp3]   {:<10} {:.2} µs/query", q.method, q.avg_query_us);
            results.push(q);
        }
    }
    println!("{}", query_time_table("Exp 3 — Query time, road networks (Fig. 7)", &results));
    println!("{}", wcsd_bench::report::to_json(&results));
}
