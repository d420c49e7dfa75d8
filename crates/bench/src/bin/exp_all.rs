//! Runs every experiment in sequence at the given scale (default `tiny`, so a
//! complete sweep finishes quickly). Individual experiments can be run at
//! larger scales via their dedicated binaries.
//!
//! Usage: `cargo run -p wcsd-bench --release --bin exp_all [scale]`

use std::process::Command;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = wcsd_bench::cliargs::parse_exp_argv(&argv) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    let scale = argv.first().cloned().unwrap_or_else(|| "tiny".to_string());

    let exe_dir = std::env::current_exe()
        .expect("current executable path")
        .parent()
        .expect("executable directory")
        .to_path_buf();
    let experiments = [
        "exp_datasets",
        "exp1_indexing_road",
        "exp2_index_size_road",
        "exp3_query_road",
        "exp4_large_w",
        "exp5_social",
        "exp_ablation_ordering",
    ];
    for exp in experiments {
        println!("\n================ {exp} (scale: {scale}) ================\n");
        let status = Command::new(exe_dir.join(exp))
            .arg(&scale)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        assert!(status.success(), "{exp} exited with {status}");
    }
}
