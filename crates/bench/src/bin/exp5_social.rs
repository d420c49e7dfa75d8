//! Exp 5 (Figures 10–12): indexing time, index size and query time on social
//! networks. Dijkstra is omitted from the query comparison exactly as in the
//! paper (unit edge lengths make it identical to W-BFS).
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp5_social [scale] [num_queries]`

use wcsd_bench::measure::{build_method, run_queries, MethodKind};
use wcsd_bench::report::{index_size_table, indexing_time_table, query_time_table};
use wcsd_bench::{parse_exp_args, Dataset, QueryWorkload};

fn main() {
    let args = parse_exp_args();
    let num_queries: usize = args.rest.first().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let mut indexing = Vec::new();
    let mut queries = Vec::new();
    for d in Dataset::social_suite(args.scale) {
        let g = d.generate();
        eprintln!("[exp5] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        let workload_full = QueryWorkload::uniform(&g, num_queries, 42);
        let workload_online = QueryWorkload::uniform(&g, num_queries.min(200), 42);
        for m in MethodKind::indexing_methods() {
            let (built, r) = build_method(&d.name, m, &g);
            eprintln!("[exp5]   {:<10} build {:.3}s", r.method, r.build_seconds);
            indexing.push(r);
            queries.push(run_queries(&d.name, m, &built, &workload_full));
        }
        for m in [MethodKind::WBfs, MethodKind::CBfs] {
            let (built, _) = build_method(&d.name, m, &g);
            queries.push(run_queries(&d.name, m, &built, &workload_online));
        }
    }
    println!(
        "{}",
        indexing_time_table("Exp 5a — Indexing time, social networks (Fig. 10)", &indexing)
    );
    println!("{}", index_size_table("Exp 5b — Index size, social networks (Fig. 11)", &indexing));
    println!("{}", query_time_table("Exp 5c — Query time, social networks (Fig. 12)", &queries));
    println!("{}", wcsd_bench::report::to_json(&indexing));
}
