//! Exp 12 (ours): branch-free query kernels. Builds the same WC-INDEX+ on a
//! road and a social subset and measures, within one run, mean point-query
//! latency through the scalar reference `Query⁺` merge and the default
//! chunked branch-free kernel, both over the index's one rank-ordered
//! layout. The kernel is cross-checked query by query against the scalar
//! merge before anything is timed, so the experiment doubles as an
//! end-to-end parity test.
//!
//! The host is typically a shared single-core container, so only the
//! within-run ratio (`chunked_speedup`) is meaningful; it is part of the
//! JSON output recorded in RESULTS.md.
//!
//! With `--max-regression R` the binary exits non-zero when the chunked
//! kernel is more than `R` slower than the scalar merge on any dataset
//! (e.g. `0.10` = a 10% regression budget), so CI can guard the branch-free
//! path against both parity and performance regressions in one run.
//!
//! Usage: `exp12_kernels [--small] [--reps N] [--json <path>]
//! [--max-regression R]`

use std::process::ExitCode;
use wcsd_bench::measure::kernel_comparison;
use wcsd_bench::report::{kernel_table, to_json};
use wcsd_bench::{Dataset, KernelResult, QueryWorkload, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!(
                "usage: exp12_kernels [--small] [--reps N] [--json <path>] [--max-regression R]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let small = args.iter().any(|a| a == "--small");
    let reps: usize = wcsd_cliutil::flag_value(args, "--reps")?.unwrap_or(5);
    let json_path: Option<String> = wcsd_cliutil::flag_value(args, "--json")?;
    let max_regression: Option<f64> = wcsd_cliutil::flag_value(args, "--max-regression")?;
    let scale = if small { Scale::Tiny } else { Scale::Small };
    let num_queries = if small { 1_500 } else { 8_000 };

    let road = Dataset::road_suite(scale);
    let social = Dataset::social_suite(scale);
    let subset: Vec<Dataset> = if small {
        vec![road[0].clone(), social[0].clone()]
    } else {
        vec![road[0].clone(), road[2].clone(), road[4].clone(), social[0].clone()]
    };

    let mut results: Vec<KernelResult> = Vec::new();
    for d in &subset {
        let g = d.generate();
        eprintln!("[exp12] {} : |V|={} |E|={}", d.name, g.num_vertices(), g.num_edges());
        let workload = QueryWorkload::uniform(&g, num_queries, 0xC41A);
        let r = kernel_comparison(&d.name, &g, &workload, reps);
        eprintln!(
            "[exp12]   scalar {:.3}µs chunked {:.3}µs ({:.2}x)",
            r.scalar_us, r.chunked_us, r.chunked_speedup
        );
        results.push(r);
    }

    println!("{}", kernel_table("Exp 12 — branch-free query kernels", &results));
    // Both kernels read the same layout, so the ratio isolates the kernel.
    let worst =
        results.iter().map(|r| r.chunked_us / r.scalar_us - 1.0).fold(f64::NEG_INFINITY, f64::max);
    let over_budget = max_regression.is_some_and(|limit| worst > limit);
    if over_budget {
        eprintln!(
            "exp12: chunked kernel is {:.1}% slower than the scalar merge in the worst case, \
             over the --max-regression budget of {:.1}%",
            100.0 * worst,
            100.0 * max_regression.unwrap_or(0.0)
        );
    }
    let json = to_json(&results);
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(if over_budget { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
