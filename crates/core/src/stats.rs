//! Index size statistics, feeding the "Indexing Size" figures (Exp 2, Exp 4b,
//! Exp 5b) of the paper's evaluation.

use crate::label::{LabelEntry, LabelSet};

/// Aggregate size statistics of a WC-INDEX.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Number of vertices covered.
    pub num_vertices: usize,
    /// Total number of label entries.
    pub total_entries: usize,
    /// Largest per-vertex label set.
    pub max_label_size: usize,
    /// Mean per-vertex label set size.
    pub avg_label_size: f64,
    /// Bytes consumed by label entries (12 bytes each).
    pub entry_bytes: usize,
}

impl IndexStats {
    /// Computes statistics from per-vertex label sets.
    pub fn from_labels(labels: &[LabelSet]) -> Self {
        let total_entries: usize = labels.iter().map(|l| l.len()).sum();
        let max_label_size = labels.iter().map(|l| l.len()).max().unwrap_or(0);
        let num_vertices = labels.len();
        Self {
            num_vertices,
            total_entries,
            max_label_size,
            avg_label_size: if num_vertices == 0 {
                0.0
            } else {
                total_entries as f64 / num_vertices as f64
            },
            entry_bytes: total_entries * std::mem::size_of::<LabelEntry>(),
        }
    }

    /// Index size in mebibytes, as reported in the paper's size figures.
    pub fn megabytes(&self) -> f64 {
        self.entry_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelEntry;

    #[test]
    fn stats_from_labels() {
        let a = LabelSet::from_sorted(vec![LabelEntry::new(0, 2, 3), LabelEntry::self_label(1)]);
        let b = LabelSet::from_sorted(vec![LabelEntry::self_label(0)]);
        let stats = IndexStats::from_labels(&[a, b]);
        assert_eq!(stats.num_vertices, 2);
        assert_eq!(stats.total_entries, 3);
        assert_eq!(stats.max_label_size, 2);
        assert!((stats.avg_label_size - 1.5).abs() < 1e-9);
        assert_eq!(stats.entry_bytes, 36);
        assert!(stats.megabytes() > 0.0);
    }

    #[test]
    fn empty_stats() {
        let stats = IndexStats::from_labels(&[]);
        assert_eq!(stats.total_entries, 0);
        assert_eq!(stats.avg_label_size, 0.0);
        assert_eq!(stats.max_label_size, 0);
    }
}
