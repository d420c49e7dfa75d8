//! Reading and writing graphs.
//!
//! Two text formats are supported:
//!
//! * **Edge list** ([`edge_list`]) — whitespace-separated `u v quality` lines,
//!   the format most public datasets (SNAP, KONECT) ship in.
//! * **DIMACS-style** ([`dimacs`]) — the `.gr` format used by the 9th DIMACS
//!   implementation challenge the paper's road networks come from, with the
//!   edge weight reinterpreted as the quality value.

pub mod dimacs;
pub mod edge_list;

use std::fmt;

/// Errors produced by the parsers in this module.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed; carries the 1-based line number and reason.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Convenience alias for results in this module.
pub type Result<T> = std::result::Result<T, IoError>;

/// Loads a graph from a file in either supported text format, with the file
/// path woven into the error message. Shared by every binary front end
/// (`wcsd-cli`, `loadgen`).
pub fn read_graph_file(path: &str, use_dimacs: bool) -> std::result::Result<crate::Graph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    if use_dimacs {
        dimacs::read_dimacs(reader).map_err(|e| format!("{path}: {e}"))
    } else {
        edge_list::read_edge_list(reader).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn read_graph_file_reports_path_in_errors() {
        let err = super::read_graph_file("/nonexistent/x.el", false).unwrap_err();
        assert!(err.contains("/nonexistent/x.el"), "{err}");
        let dir = std::env::temp_dir().join("wcsd_read_graph_file_test.el");
        std::fs::write(&dir, "0 1 2\n1 2 3\n").unwrap();
        let g = super::read_graph_file(dir.to_str().unwrap(), false).unwrap();
        assert_eq!(g.num_edges(), 2);
    }
}
