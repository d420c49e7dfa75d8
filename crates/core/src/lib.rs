//! # wcsd-core — WC-INDEX: 2-hop labeling for quality constrained shortest distances
//!
//! This crate implements the primary contribution of *"Efficiently Answering
//! Quality Constrained Shortest Distance Queries in Large Graphs"* (ICDE
//! 2023): a single 2-hop labeling index whose entries encode *minimal paths*
//! under the paper's path-dominance order (shorter **and** higher-quality),
//! so that `w`-constrained distance queries for **arbitrary** thresholds `w`
//! are answered from one index in microseconds.
//!
//! * [`build::IndexBuilder`] — Algorithm 3 (quality- and distance-prioritized
//!   constrained BFS, one root at a time in rank order) with both the basic
//!   and the query-efficient (WC-INDEX+) construction modes and every
//!   vertex-ordering strategy.
//! * [`index::WcIndex`] — the index itself: `distance`, `within`, statistics,
//!   statistics and minimality verification; its snapshot is the `WCIF`
//!   image of [`flat::FlatIndex`].
//! * [`flat::Flat`] — the read-optimized *serve* representation, stored as
//!   its own versioned `WCIF` snapshot image: a struct-of-arrays entry arena
//!   under a CSR per-vertex hub-group directory, keyed and ordered by hub
//!   rank. One type over two word
//!   backings: the owned [`flat::FlatIndex`] and the borrowed
//!   [`flat::FlatView`], which answers from the encoded bytes in place.
//!   Lossless conversion from/to [`index::WcIndex`], bit-identical answers.
//! * [`query`] — the paper's three query algorithms over label sets: `Query⁺`
//!   (Algorithm 5), which every index serves with, and Algorithms 2 and 4,
//!   kept for the Section IV.C ablation.
//! * [`kernel`] — branch-free chunked column kernels behind
//!   [`index::QueryImpl::Chunked`], the default query implementation:
//!   masked-min lane loops over the flat `dists`/`qualities` columns with a
//!   probe/chunk/search crossover, bit-identical to the `Query⁺` merge.
//! * [`overlay`] — the boundary-vertex overlay composing per-shard answers
//!   into exact whole-graph answers ([`overlay::ShardedIndex`], the `WCSO`
//!   snapshot), the correctness core of the sharded serving tier.
//! * [`path::PathIndex`] — the shortest-*path* extension (quad labels with
//!   parent pointers, Section V).
//! * [`parallel`] — scoped-thread batch query evaluation for large
//!   workloads.
//! * [`directed::DirectedWcIndex`] — the `L_in`/`L_out` extension for
//!   directed graphs (Section V).
//! * [`weighted::WeightedWcIndex`] — the constrained-Dijkstra extension for
//!   weighted graphs (Section V).
//! * [`dynamic::DynamicWcIndex`] — incremental edge insertions (the paper's
//!   future-work sketch) and decremental deletions via the affected-hub
//!   repair of [`decremental`], with a configurable full-rebuild fallback.
//!
//! ## Quickstart
//!
//! ```
//! use wcsd_core::build::IndexBuilder;
//! use wcsd_graph::generators::paper_figure3;
//!
//! let g = paper_figure3();
//! let index = IndexBuilder::wc_index_plus().build(&g);
//! // w-constrained distance between v2 and v5 with constraint 2 (Example 3).
//! assert_eq!(index.distance(2, 5, 2), Some(2));
//! // A stricter constraint forces a longer detour.
//! assert_eq!(index.distance(2, 5, 3), Some(3));
//! // Unsatisfiable constraints return None.
//! assert_eq!(index.distance(2, 5, 99), None);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
pub mod decremental;
pub mod directed;
pub mod dynamic;
pub mod flat;
pub mod index;
pub mod kernel;
pub mod label;
pub mod overlay;
pub mod parallel;
pub mod path;
pub mod query;
pub mod stats;
pub mod weighted;

pub use build::{BuildConfig, ConstructionMode, IndexBuilder};
pub use flat::{FlatIndex, FlatView};
pub use index::{QueryEngine, QueryImpl, WcIndex};
pub use label::{LabelEntry, LabelSet};
pub use overlay::{OverlayIndex, ScatterPlan, ShardedIndex};
pub use stats::IndexStats;
