//! Exp 4 (Figures 8 and 9): indexing time and size when the number of distinct
//! quality values grows to |w| = 20. Expected shape: the Naive method's cost
//! scales with |w| while WC-INDEX/WC-INDEX+ stay a single index.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp4_large_w [scale] [levels]`

use wcsd_bench::measure::{build_method, MethodKind};
use wcsd_bench::report::{index_size_table, indexing_time_table};
use wcsd_bench::{parse_exp_args, Dataset};

fn main() {
    let args = parse_exp_args();
    let levels: u32 = args.rest.first().and_then(|s| s.parse().ok()).unwrap_or(20);
    let mut results = Vec::new();
    // The paper's Exp 4 uses the six smaller road networks.
    for d in Dataset::road_suite(args.scale).into_iter().take(6) {
        let d = d.with_quality_levels(levels);
        let g = d.generate();
        eprintln!(
            "[exp4] {} : |V|={} |E|={} |w|={}",
            d.name,
            g.num_vertices(),
            g.num_edges(),
            g.num_distinct_qualities()
        );
        for m in MethodKind::indexing_methods() {
            let (_, r) = build_method(&d.name, m, &g);
            eprintln!(
                "[exp4]   {:<10} {:.3}s / {:.3} MiB",
                r.method,
                r.build_seconds,
                r.index_bytes as f64 / 1048576.0
            );
            results.push(r);
        }
    }
    println!(
        "{}",
        indexing_time_table(&format!("Exp 4a — Indexing time, |w| = {levels} (Fig. 8)"), &results)
    );
    println!(
        "{}",
        index_size_table(&format!("Exp 4b — Index size, |w| = {levels} (Fig. 9)"), &results)
    );
    println!("{}", wcsd_bench::report::to_json(&results));
}
