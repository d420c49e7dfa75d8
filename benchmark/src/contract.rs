//! Checks that the files around the harness say what the harness does:
//! `BENCHMARK.json`, the release profile, and the README.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn repo_file(path: &str) -> String {
    let full = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read {}: {e}", full.display()))
}

/// `BENCHMARK.json` as the catalogue implies it, byte for byte.
fn expected_benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let expected = expected_benchmark_json();
    assert!(expected.len() <= 64 * 1024, "BENCHMARK.json would exceed 64 KiB");
    assert!(!expected.contains('\\'), "a catalogue string needs JSON escaping");
    let on_disk = repo_file("BENCHMARK.json");
    assert!(
        on_disk == expected,
        "BENCHMARK.json differs from the catalogue in src/catalog.rs; it should read:\n{expected}"
    );
}

/// The lines of one `[section]` of a manifest, comments and blanks dropped.
fn section(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn release_profile_mirrors_the_root_manifest() {
    let root = section(&repo_file("Cargo.toml"), "[profile.release]");
    let ours = section(&repo_file("benchmark/Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "the root manifest has no [profile.release]");
    assert_eq!(ours, root, "benchmark/Cargo.toml must build the product as the product is built");
}

#[test]
fn readme_names_every_workload_and_metric() {
    let readme = repo_file("benchmark/README.md");
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(readme.contains(&format!("`{name}`")), "README.md does not mention `{name}`");
    }
}
