//! # wcsd-bench — the harness that regenerates every table and figure
//!
//! The paper evaluates on DIMACS road networks and KONECT/SNAP social
//! networks; this crate substitutes structurally-equivalent synthetic
//! datasets (see `DESIGN.md` §3) and re-runs every experiment:
//!
//! | Paper artifact | Binary | Criterion bench |
//! |---|---|---|
//! | Tables III–VI (dataset statistics & memory) | `exp_datasets` | — |
//! | Fig. 5 — indexing time, road | `exp1_indexing_road` | `indexing_road` |
//! | Fig. 6 — index size, road | `exp2_index_size_road` | — |
//! | Fig. 7 — query time, road | `exp3_query_road` | `query_road` |
//! | Fig. 8/9 — indexing time & size, \|w\| = 20 | `exp4_large_w` | `large_w` |
//! | Fig. 10/11/12 — social networks | `exp5_social` | `indexing_social`, `query_social` |
//! | (ours) ordering ablation | `exp_ablation_ordering` | `ordering_ablation` |
//! | (ours) query implementation ablation | — | `query_impl_ablation` |
//! | (ours) flat vs. nested query engine | `exp7_flat_query` | `flat_query` |
//! | (ours) server throughput/latency | `loadgen` | — |
//! | (ours) update freshness & decremental repair | `exp9_freshness` | — |
//! | (ours) observability phase attribution & overhead | `exp10_observability` | — |
//! | (ours) sharded scatter-gather routing | `exp11_sharding` | — |
//! | (ours) branch-free query kernels & hot layout | `exp12_kernels` | `kernels` |
//! | everything above in one run | `exp_all` | — |
//!
//! Binaries accept a scale argument (`tiny`, `small`, `medium`, `large`) so
//! the full suite stays runnable on a laptop; every index is built by the
//! one sequential rank-order sweep of Algorithm 3. The *shape* of the results
//! (who wins, by how many orders of magnitude, where the Naïve method becomes
//! infeasible) is what reproduces the paper, not the absolute numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cliargs;
pub mod datasets;
pub mod freshness;
pub mod loadgen;
pub mod measure;
pub mod report;
pub mod workload;

pub use cliargs::{parse_exp_args, ExpArgs};
pub use datasets::{Dataset, DatasetKind, Scale};
pub use freshness::{EdgeUpdate, FeedConfig, FeedResult};
pub use loadgen::{LoadgenConfig, LoadgenResult};
pub use measure::{FlatQueryResult, IndexingResult, KernelResult, MethodKind, QueryResult};
pub use workload::QueryWorkload;
