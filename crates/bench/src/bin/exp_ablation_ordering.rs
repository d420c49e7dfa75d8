//! Ordering ablation (Observations 2 and 3 of the paper): how the vertex
//! ordering strategy affects indexing time and index size on a road-like and a
//! social-like graph.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp_ablation_ordering [scale]`

use std::time::Instant;
use wcsd_bench::report::{index_size_table, indexing_time_table};
use wcsd_bench::{parse_exp_args, Dataset, IndexingResult};
use wcsd_core::IndexBuilder;
use wcsd_order::OrderingStrategy;

fn main() {
    let args = parse_exp_args();
    let scale = args.scale;
    let strategies = [
        OrderingStrategy::Degree,
        OrderingStrategy::TreeDecomposition,
        OrderingStrategy::Hybrid,
        OrderingStrategy::Random(7),
        OrderingStrategy::BfsLevel,
    ];
    let datasets =
        vec![Dataset::road_suite(scale)[2].clone(), Dataset::social_suite(scale)[0].clone()];
    let mut results = Vec::new();
    for d in &datasets {
        let g = d.generate();
        eprintln!("[ablation] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        for strat in strategies {
            let start = Instant::now();
            let idx = IndexBuilder::new().ordering(strat).build(&g);
            let stats = idx.stats();
            results.push(IndexingResult {
                dataset: d.name.clone(),
                method: strat.name().to_string(),
                build_seconds: start.elapsed().as_secs_f64(),
                index_bytes: stats.entry_bytes,
                entries: stats.total_entries,
            });
            eprintln!(
                "[ablation]   {:<20} {:.3}s, {} entries",
                strat.name(),
                results.last().expect("just pushed").build_seconds,
                stats.total_entries
            );
        }
    }
    println!("{}", indexing_time_table("Ordering ablation — indexing time", &results));
    println!("{}", index_size_table("Ordering ablation — index size", &results));
}
