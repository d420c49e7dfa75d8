//! Output: the one-line result the driver reads, the detailed record under
//! `out/`, the human-readable table, and the provenance every record carries.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::stats::Timing;
use std::fmt::Write;
use std::path::PathBuf;
use std::process::Command;

/// `benchmark/out`, where records, span files and temporary snapshots go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Named readings, in catalogue order.
pub type Readings = Vec<(&'static str, f64)>;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// A JSON number with all the digits of the measurement. A reading that is
/// not finite is a bug in the harness; it is written as 0 so the line stays
/// valid JSON, and the run is marked incorrect by the caller.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_object(readings: &Readings) -> String {
    let fields: Vec<String> = readings
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*v),
                quote(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, readings: &Readings) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_object(readings)
    )
}

/// Reads the metric values back out of a [`result_line`].
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let mut rest = &line[line.find("\"metrics\": ")?..];
    let mut out = Vec::new();
    const MARK: &str = ": {\"value\": ";
    while let Some(pos) = rest.find(MARK) {
        let head = &rest[..pos];
        let name_end = head.rfind('"')?;
        let name_start = head[..name_end].rfind('"')? + 1;
        let after = &rest[pos + MARK.len()..];
        let number_end = after.find([',', '}'])?;
        out.push((head[name_start..name_end].to_string(), after[..number_end].parse().ok()?));
        rest = &after[number_end..];
    }
    Some((correct, out))
}

/// Where and how a record was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_kib: u64,
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    pub fn collect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
        let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
            .unwrap_or_default();
        let l2 = l2.trim();
        let l2_kib = match l2.strip_suffix('K') {
            Some(kib) => kib.parse().unwrap_or(0),
            None => {
                l2.strip_suffix('M').and_then(|m| m.parse::<u64>().ok()).map_or(0, |m| m * 1024)
            }
        };
        let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        let commit = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"])
            .filter(|c| !c.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            commit,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_kib,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"nproc\": {}, \"cpu_model\": {}, \"l2_kib\": {}, \"rustc\": {}}}",
            quote(&self.commit),
            self.nproc,
            quote(&self.cpu_model),
            self.l2_kib,
            quote(&self.rustc)
        )
    }
}

/// `{"samples": n, "median": m, "tail": {"p99": v}}`.
pub fn timing_json(t: &Timing) -> String {
    let tail = t
        .tail
        .map_or("null".to_string(), |(label, v)| format!("{{{}: {}}}", quote(label), number(v)));
    format!("{{\"samples\": {}, \"median\": {}, \"tail\": {tail}}}", t.samples, number(t.median))
}

/// One table row per reading: name, value, unit.
pub fn table<S: AsRef<str>>(readings: &[(S, f64)]) -> String {
    let mut out = String::new();
    for (name, v) in readings {
        let name = name.as_ref();
        writeln!(out, "  {name:<44} {:>16} {}", format_value(*v), unit_of(name))
            .expect("write to string");
    }
    out
}

/// Four significant digits for reading, never for the record.
pub fn format_value(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return "0".to_string();
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_keeps_all_digits() {
        let readings: Readings = vec![("setup_s", 0.812_734_561_2), ("query_qps", 301_245.75)];
        let line = result_line(true, 1000, 0, &readings);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127345612, \"unit\": \"s\"}, \
             \"query_qps\": {\"value\": 301245.75, \"unit\": \"1/s\"}}}"
        );
        let (correct, parsed) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            parsed,
            vec![("setup_s".to_string(), 0.812_734_561_2), ("query_qps".to_string(), 301_245.75)]
        );
        assert!(!parse_result_line(&result_line(false, 0, 3, &readings)).unwrap().0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn values_read_with_four_significant_digits() {
        assert_eq!(format_value(301_245.75), "301246");
        assert_eq!(format_value(0.812_734), "0.8127");
        assert_eq!(format_value(74.56), "74.56");
        assert_eq!(format_value(0.0), "0");
    }
}
