//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! wcsd-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one run, one result line
//! wcsd-benchmark --all [--seed N] [--seconds S] [--traced]                  every workload, each in a child process
//! wcsd-benchmark --check-repeat [--seed N] [--seconds S]                    two sets of three full runs, compared
//! wcsd-benchmark --list                                                     the workloads and metrics, as markdown
//! ```

mod catalog;
mod check;
#[cfg(test)]
mod contract;
mod gen;
mod layers;
mod load;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use catalog::END_TO_END;
use report::{format_value, parse_result_line, result_line, table};
use std::process::{Command, ExitCode, Stdio};

/// Length of the measured phase when `--seconds` is not given; the same
/// value `BENCHMARK.json` passes.
const DEFAULT_SECONDS: u64 = 10;

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(at + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map(Some).map_err(|_| format!("{name}: cannot read {value:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: u64 = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    if let Some(name) = flag::<String>(args, "--workload")? {
        let trace = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        };
        return one_run(&name, &run::Options { seed, seconds, trace });
    }
    if args.iter().any(|a| a == "--check-repeat") {
        return check_repeat(seed, seconds);
    }
    if args.iter().any(|a| a == "--list") {
        print!("{}", catalog::markdown());
        return Ok(ExitCode::SUCCESS);
    }
    if args.iter().any(|a| a == "--all") {
        return all(seed, seconds, args.iter().any(|a| a == "--traced"));
    }
    Err("give --workload <name>, --all, --check-repeat or --list (see benchmark/README.md)"
        .to_string())
}

/// One workload in this process; the result line is the last line of stdout.
fn one_run(name: &str, opts: &run::Options) -> Result<ExitCode, String> {
    let spec = workloads::spec(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; the workloads are {}", known.join(", "))
    })?;
    let outcome = run::run(spec, opts)?;
    eprintln!("{name} (seed {}, {} s, trace {}):", opts.seed, opts.seconds, u8::from(opts.trace));
    eprint!("{}", table(&outcome.end_to_end));
    eprint!("{}", table(&outcome.per_layer));
    for flag in &outcome.flags {
        eprintln!("  flagged: {flag}");
    }
    if let Some(problem) = &outcome.verdict.first_problem {
        eprintln!("  FAILED: {problem}");
    }
    let metrics = if opts.trace { &outcome.per_layer } else { &outcome.end_to_end };
    let verdict = &outcome.verdict;
    println!("{}", result_line(verdict.correct(), verdict.attempted, verdict.failed, metrics));
    Ok(if verdict.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Metric values read back from a child's result line.
type Metrics = Vec<(String, f64)>;

/// Runs one workload in a child process of its own, so no workload inherits
/// another's heap, page cache state or threads. Returns the parsed metrics.
fn child_run(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(parse_result_line);
    match parsed {
        Some((true, metrics)) if output.status.success() => Ok(metrics),
        _ => Err(format!(
            "the {name} run failed ({}); see benchmark/out/{name}.json or rerun it with --workload {name}",
            output.status
        )),
    }
}

fn all(seed: u64, seconds: u64, traced: bool) -> Result<ExitCode, String> {
    let mut failed = false;
    for spec in &workloads::SPECS {
        println!("{} (seed {seed}, {seconds} s measured)", spec.name);
        let runs = [false, true];
        for &trace in &runs[..if traced { 2 } else { 1 }] {
            match child_run(spec.name, seed, seconds, trace) {
                Ok(metrics) => print!("{}", table(&metrics)),
                Err(e) => {
                    println!("  FAILED: {e}");
                    failed = true;
                }
            }
        }
    }
    println!("records and span files are in benchmark/out/");
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Two sets of three full runs of the same code. Prints, per workload and
/// end-to-end metric, both medians, how far the second is from the first and
/// the quartile spread of all six runs, as the markdown table that is
/// committed as `BASELINE.md`; fails when a pair differs by more than the
/// metric's bound.
fn check_repeat(seed: u64, seconds: u64) -> Result<ExitCode, String> {
    const RUNS_PER_SET: u64 = 3;
    // One entry per run, in the order run: (set, workload, metrics).
    let mut runs: Vec<(usize, &str, Metrics)> = Vec::new();
    for set in 0..2 {
        for run in 0..RUNS_PER_SET {
            for spec in &workloads::SPECS {
                eprintln!("set {} run {} {}", set + 1, run + 1, spec.name);
                runs.push((set, spec.name, child_run(spec.name, seed + run, seconds, false)?));
            }
        }
    }
    let provenance = report::Provenance::collect();
    println!("# Baseline: two sets of {RUNS_PER_SET} runs of the same code\n");
    println!(
        "Commit `{}`, {} cores, {}, L2 {} KiB, {}; seeds {seed}..{}, {seconds} s measured.\n",
        provenance.commit,
        provenance.nproc,
        provenance.cpu_model,
        provenance.l2_kib,
        provenance.rustc,
        seed + RUNS_PER_SET - 1
    );
    println!("| workload | metric | unit | set 1 median | set 2 median | worse by | bound | spread of 6 | |");
    println!("|---|---|---|---:|---:|---:|---:|---:|---|");
    let mut failed = false;
    for spec in &workloads::SPECS {
        for metric in &END_TO_END {
            let values = |set: usize| -> Vec<f64> {
                runs.iter()
                    .filter(|run| run.0 == set && run.1 == spec.name)
                    .filter_map(|run| run.2.iter().find(|m| m.0 == metric.name).map(|m| m.1))
                    .collect()
            };
            let (first, second) = (values(0), values(1));
            let (m1, m2) = (stats::median(&first), stats::median(&second));
            let worse = if metric.better == "lower" { (m2 - m1) / m1 } else { (m1 - m2) / m1 };
            let both: Vec<f64> = first.iter().chain(&second).copied().collect();
            let ok = worse <= metric.bound;
            failed |= !ok;
            println!(
                "| {} | {} | {} | {} | {} | {:+.1}% | {:.1}% | {:.1}% | {} |",
                spec.name,
                metric.name,
                metric.unit,
                format_value(m1),
                format_value(m2),
                worse * 100.0,
                metric.bound * 100.0,
                stats::spread(&both) * 100.0,
                if ok { "" } else { "OVER" }
            );
        }
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
