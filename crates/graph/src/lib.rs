//! # wcsd-graph — graph substrate for quality constrained shortest distance queries
//!
//! This crate provides every graph-side building block used by the WC-INDEX
//! reproduction:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of an
//!   undirected graph whose edges carry a *quality* value `δ(e)` (the paper's
//!   `G(V, E, Δ, δ)`).
//! * [`GraphBuilder`] — incremental construction with parallel-edge and
//!   self-loop handling.
//! * [`QualityDomain`] — maps raw real-valued qualities to dense ranks so the
//!   index only ever compares qualities (order is all that matters for the
//!   WCSD problem).
//! * [`generators`] — synthetic datasets substituting for the paper's DIMACS
//!   road networks and KONECT/SNAP social networks (see `DESIGN.md` §3).
//! * [`io`] — edge-list and DIMACS-style readers and writers.
//! * [`partition`] — deterministic seeded vertex partitioning with boundary
//!   detection, the substrate of the sharded serving tier.
//! * [`analysis`] — connected components, degree statistics, quality
//!   histograms and diameter estimation used to characterise workloads.
//! * [`directed`] / [`weighted`] — the directed and weighted variants needed
//!   by Section V of the paper.
//!
//! ## Example
//!
//! ```
//! use wcsd_graph::{GraphBuilder, Graph};
//!
//! // The running example of Figure 3 in the paper.
//! let mut b = GraphBuilder::new(6);
//! b.add_edge(0, 1, 3);
//! b.add_edge(0, 3, 1);
//! b.add_edge(1, 2, 5);
//! b.add_edge(1, 3, 2);
//! b.add_edge(2, 3, 4);
//! b.add_edge(3, 4, 4);
//! b.add_edge(3, 5, 2);
//! b.add_edge(4, 5, 3);
//! let g: Graph = b.build();
//! assert_eq!(g.num_vertices(), 6);
//! assert_eq!(g.num_edges(), 8);
//! assert_eq!(g.degree(3), 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod csr;
pub mod directed;
pub mod generators;
pub mod io;
pub mod partition;
pub mod quality;
pub mod types;
pub mod weighted;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use directed::DiGraph;
pub use partition::Partition;
pub use quality::QualityDomain;
pub use types::{Distance, Quality, VertexId, INF_DIST, INF_QUALITY};
pub use weighted::WeightedGraph;
