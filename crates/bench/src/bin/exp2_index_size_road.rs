//! Exp 2 (Figure 6): index size on road networks for Naive, WC-INDEX and
//! WC-INDEX+. The key expected shape: Naive is the largest labeling index,
//! and WC-INDEX+ is smaller than WC-INDEX — not because the construction
//! mode changes the contents (it does not; both modes produce identical
//! labels under the same ordering) but because WC-INDEX+ uses the hybrid
//! vertex ordering, which yields fewer entries than plain degree ordering.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp2_index_size_road [scale]`

use wcsd_bench::measure::{build_method, MethodKind};
use wcsd_bench::report::index_size_table;
use wcsd_bench::{parse_exp_args, Dataset};

fn main() {
    let args = parse_exp_args();
    let mut results = Vec::new();
    for d in Dataset::road_suite(args.scale) {
        let g = d.generate();
        eprintln!("[exp2] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        for m in MethodKind::indexing_methods() {
            let (_, r) = build_method(&d.name, m, &g);
            eprintln!(
                "[exp2]   {:<10} {:.3} MiB ({} entries)",
                r.method,
                r.index_bytes as f64 / 1048576.0,
                r.entries
            );
            results.push(r);
        }
    }
    println!("{}", index_size_table("Exp 2 — Index size, road networks (Fig. 6)", &results));
    println!("{}", wcsd_bench::report::to_json(&results));
}
