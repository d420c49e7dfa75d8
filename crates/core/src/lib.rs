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
//!   constrained search, one root at a time in rank order) with both the basic
//!   and the query-efficient (WC-INDEX+) construction modes and every
//!   vertex-ordering strategy.
//! * [`index::WcIndex`] — the index itself: `distance`, `within`,
//!   statistics and minimality verification; its snapshot is the `WCIF`
//!   image of [`flat::FlatIndex`].
//! * [`flat::Flat`] — the read-optimized *serve* representation, stored as
//!   its own versioned `WCIF` snapshot image: an arena of one packed
//!   `level << k | dist` word per entry, beside a table of the index's
//!   distinct qualities, under a CSR per-vertex hub-group directory, keyed
//!   and ordered by hub rank. One type over two word
//!   backings: the owned [`flat::FlatIndex`] and the borrowed
//!   [`flat::FlatView`], which answers from the encoded bytes in place.
//!   Lossless conversion from/to [`index::WcIndex`], bit-identical answers.
//! * [`query`] — the paper's three query algorithms over label sets: `Query⁺`
//!   (Algorithm 5), which every index serves with, and Algorithms 2 and 4,
//!   kept for the Section IV.C ablation.
//! * [`kernel`] — branch-free chunked column kernels behind
//!   [`index::QueryImpl::Chunked`], the default query implementation:
//!   masked-min lane loops over the flat index's packed entry words (one
//!   column, filtered by one word threshold per query) with a
//!   probe/chunk/search crossover, bit-identical to the `Query⁺` merge.
//! * [`overlay`] — the boundary-vertex overlay composing per-shard answers
//!   into exact whole-graph answers ([`overlay::ShardedIndex`], the `WCSO`
//!   snapshot), the correctness core of the sharded serving tier.
//! * [`path::PathIndex`] — the shortest-*path* extension (Section V): the
//!   build's labels plus a parallel column of BFS parent pointers.
//! * [`parallel`] — scoped-thread batch query evaluation for large
//!   workloads.
//! * [`directed::DirectedWcIndex`] — the `L_in`/`L_out` extension for
//!   directed graphs (Section V), two sweeps of the build's engine per root.
//! * [`weighted::WeightedWcIndex`] — the edge-length extension for weighted
//!   graphs (Section V): the build's engine and root loop, with each arc's
//!   length in place of 1.
//! * [`dynamic::DynamicWcIndex`] — edge insertions, quality upgrades and
//!   deletions (the paper's future-work sketch): updates only edit the
//!   graph, and the next read rebuilds the labels under the index's own
//!   vertex order, so every history leaves the labels a fresh same-order
//!   build has.
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
