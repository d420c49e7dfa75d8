//! Table/JSON rendering of experiment results, mimicking the rows and series
//! the paper's figures plot.

use crate::measure::{FlatQueryResult, IndexingResult, KernelResult, QueryResult};

/// Renders a plain-text table with one row per dataset and one column per
/// method, from `(dataset, method, value)` cells.
pub fn render_matrix(
    title: &str,
    unit: &str,
    datasets: &[String],
    methods: &[String],
    cell: impl Fn(&str, &str) -> Option<f64>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title} ({unit})\n\n"));
    out.push_str(&format!("{:<12}", "dataset"));
    for m in methods {
        out.push_str(&format!("{m:>14}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(12 + 14 * methods.len()));
    out.push('\n');
    for d in datasets {
        out.push_str(&format!("{d:<12}"));
        for m in methods {
            match cell(d, m) {
                Some(v) => out.push_str(&format!("{v:>14.4}")),
                None => out.push_str(&format!("{:>14}", "INF")),
            }
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Renders indexing-time results (Figures 5, 8, 10 of the paper).
pub fn indexing_time_table(title: &str, results: &[IndexingResult]) -> String {
    let (datasets, methods) = axes(results.iter().map(|r| (r.dataset.clone(), r.method.clone())));
    render_matrix(title, "seconds", &datasets, &methods, |d, m| {
        results.iter().find(|r| r.dataset == d && r.method == m).map(|r| r.build_seconds)
    })
}

/// Renders index-size results (Figures 6, 9, 11 of the paper).
pub fn index_size_table(title: &str, results: &[IndexingResult]) -> String {
    let (datasets, methods) = axes(results.iter().map(|r| (r.dataset.clone(), r.method.clone())));
    render_matrix(title, "MiB", &datasets, &methods, |d, m| {
        results
            .iter()
            .find(|r| r.dataset == d && r.method == m)
            .map(|r| r.index_bytes as f64 / (1024.0 * 1024.0))
    })
}

/// Renders flat-vs-nested comparison results (Exp 7): one row per dataset,
/// columns for nested/flat/view query latency, the within-run query ratio,
/// and the `WCIF` decode and zero-copy parse times.
pub fn flat_query_table(title: &str, results: &[FlatQueryResult]) -> String {
    let datasets: Vec<String> = results.iter().map(|r| r.dataset.clone()).collect();
    let methods: Vec<String> =
        ["nested µs", "flat µs", "view µs", "query ×", "decode ms", "parse ms"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    render_matrix(title, "µs/query, ratio, ms", &datasets, &methods, |d, m| {
        let r = results.iter().find(|r| r.dataset == d)?;
        Some(match m {
            "nested µs" => r.nested_query_us,
            "flat µs" => r.flat_query_us,
            "view µs" => r.view_query_us,
            "query ×" => r.query_speedup,
            "decode ms" => r.flat_decode_ms,
            _ => r.view_parse_ms,
        })
    })
}

/// Renders branch-free kernel comparison results (Exp 12): one row per
/// dataset, columns for scalar/chunked point-query latency and their
/// within-run ratio.
pub fn kernel_table(title: &str, results: &[KernelResult]) -> String {
    let datasets: Vec<String> = results.iter().map(|r| r.dataset.clone()).collect();
    let methods: Vec<String> =
        ["scalar µs", "chunk µs", "chunk ×"].iter().map(|s| s.to_string()).collect();
    render_matrix(title, "µs/query, ratio", &datasets, &methods, |d, m| {
        let r = results.iter().find(|r| r.dataset == d)?;
        Some(match m {
            "scalar µs" => r.scalar_us,
            "chunk µs" => r.chunked_us,
            _ => r.chunked_speedup,
        })
    })
}

/// Renders query-time results (Figures 7, 12 of the paper).
pub fn query_time_table(title: &str, results: &[QueryResult]) -> String {
    let (datasets, methods) = axes(results.iter().map(|r| (r.dataset.clone(), r.method.clone())));
    render_matrix(title, "µs/query", &datasets, &methods, |d, m| {
        results.iter().find(|r| r.dataset == d && r.method == m).map(|r| r.avg_query_us)
    })
}

/// Result records that can render themselves as a JSON object.
///
/// Hand-rolled (rather than serde-derived) because the build environment has
/// no registry access; the two record types below are flat structs of strings
/// and numbers, so the JSON is trivial to emit directly.
pub trait JsonRecord {
    /// Renders the record as `"key": value` pairs, without surrounding braces.
    fn json_fields(&self) -> Vec<(&'static str, String)>;
}

impl JsonRecord for IndexingResult {
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("dataset", json_string(&self.dataset)),
            ("method", json_string(&self.method)),
            ("build_seconds", json_f64(self.build_seconds)),
            ("index_bytes", self.index_bytes.to_string()),
            ("entries", self.entries.to_string()),
        ]
    }
}

impl JsonRecord for FlatQueryResult {
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("dataset", json_string(&self.dataset)),
            ("entries", self.entries.to_string()),
            ("queries", self.queries.to_string()),
            ("nested_query_us", json_f64(self.nested_query_us)),
            ("flat_query_us", json_f64(self.flat_query_us)),
            ("view_query_us", json_f64(self.view_query_us)),
            ("query_speedup", json_f64(self.query_speedup)),
            ("flat_decode_ms", json_f64(self.flat_decode_ms)),
            ("view_parse_ms", json_f64(self.view_parse_ms)),
            ("flat_snapshot_bytes", self.flat_snapshot_bytes.to_string()),
        ]
    }
}

impl JsonRecord for KernelResult {
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("dataset", json_string(&self.dataset)),
            ("entries", self.entries.to_string()),
            ("queries", self.queries.to_string()),
            ("scalar_us", json_f64(self.scalar_us)),
            ("chunked_us", json_f64(self.chunked_us)),
            ("chunked_speedup", json_f64(self.chunked_speedup)),
        ]
    }
}

impl JsonRecord for QueryResult {
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("dataset", json_string(&self.dataset)),
            ("method", json_string(&self.method)),
            ("avg_query_us", json_f64(self.avg_query_us)),
            ("queries", self.queries.to_string()),
            ("reachable", self.reachable.to_string()),
        ]
    }
}

/// Serializes any result list as pretty JSON for machine post-processing.
pub fn to_json<T: JsonRecord>(results: &[T]) -> String {
    let mut out = String::from("[");
    for (i, r) in results.iter().enumerate() {
        out.push_str(if i == 0 { "\n  {\n" } else { ",\n  {\n" });
        let fields = r.json_fields();
        for (j, (key, value)) in fields.iter().enumerate() {
            out.push_str(&format!("    \"{key}\": {value}"));
            out.push_str(if j + 1 == fields.len() { "\n" } else { ",\n" });
        }
        out.push_str("  }");
    }
    out.push_str("\n]");
    out
}

/// Quotes and escapes `s` as a JSON string literal; the helper for
/// [`JsonRecord`] implementations (including those in experiment binaries).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Always include a decimal point so the value parses as a float.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

fn axes(pairs: impl Iterator<Item = (String, String)>) -> (Vec<String>, Vec<String>) {
    let mut datasets = Vec::new();
    let mut methods = Vec::new();
    for (d, m) in pairs {
        if !datasets.contains(&d) {
            datasets.push(d);
        }
        if !methods.contains(&m) {
            methods.push(m);
        }
    }
    (datasets, methods)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_indexing() -> Vec<IndexingResult> {
        vec![
            IndexingResult {
                dataset: "NY".into(),
                method: "Naive".into(),
                build_seconds: 1.5,
                index_bytes: 2 * 1024 * 1024,
                entries: 100,
            },
            IndexingResult {
                dataset: "NY".into(),
                method: "WC-INDEX+".into(),
                build_seconds: 0.5,
                index_bytes: 1024 * 1024,
                entries: 60,
            },
        ]
    }

    #[test]
    fn tables_contain_all_axes() {
        let t = indexing_time_table("Exp 1", &sample_indexing());
        assert!(t.contains("NY"));
        assert!(t.contains("Naive"));
        assert!(t.contains("WC-INDEX+"));
        assert!(t.contains("1.5000"));
        let s = index_size_table("Exp 2", &sample_indexing());
        assert!(s.contains("2.0000"));
        assert!(s.contains("MiB"));
    }

    #[test]
    fn missing_cells_render_as_inf() {
        let t = render_matrix("x", "u", &["A".into()], &["m1".into(), "m2".into()], |_, m| {
            if m == "m1" {
                Some(1.0)
            } else {
                None
            }
        });
        assert!(t.contains("INF"));
    }

    #[test]
    fn query_table_and_json() {
        let q = vec![QueryResult {
            dataset: "NY".into(),
            method: "C-BFS".into(),
            avg_query_us: 123.4,
            queries: 1000,
            reachable: 800,
        }];
        let t = query_time_table("Exp 3", &q);
        assert!(t.contains("123.4"));
        let j = to_json(&q);
        assert!(j.contains("\"C-BFS\""));
    }
}
