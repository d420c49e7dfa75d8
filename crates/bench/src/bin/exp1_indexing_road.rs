//! Exp 1 (Figure 5): indexing time on road networks for Naive, WC-INDEX and
//! WC-INDEX+.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp1_indexing_road [scale]`

use wcsd_bench::measure::{build_method, MethodKind};
use wcsd_bench::report::indexing_time_table;
use wcsd_bench::{parse_exp_args, Dataset};

fn main() {
    let args = parse_exp_args();
    let mut results = Vec::new();
    for d in Dataset::road_suite(args.scale) {
        let g = d.generate();
        eprintln!("[exp1] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        for m in MethodKind::indexing_methods() {
            let (_, r) = build_method(&d.name, m, &g);
            eprintln!("[exp1]   {:<10} {:.3}s", r.method, r.build_seconds);
            results.push(r);
        }
    }
    println!("{}", indexing_time_table("Exp 1 — Indexing time, road networks (Fig. 5)", &results));
    println!("{}", wcsd_bench::report::to_json(&results));
}
