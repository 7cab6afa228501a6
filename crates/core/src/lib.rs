//! `bgpc` — parallel bipartite-graph partial coloring and distance-2 graph
//! coloring, reproducing *"Greed is Good: Parallel Algorithms for
//! Bipartite-Graph Partial Coloring on Multicore Architectures"*
//! (Taş, Kaya, Saule — ICPP 2017).
//!
//! # Problems
//!
//! * **BGPC**: color the `V_A` side of a bipartite graph so that any two
//!   vertices sharing a net (`V_B` vertex) receive different colors. This is
//!   the column-coloring problem behind sparse Jacobian compression.
//! * **D2GC**: color a graph so each vertex differs from everything within
//!   distance 2 — the symmetric/Hessian variant. It is BGPC over
//!   closed-neighborhood nets: vertex `v`'s net is `N[v] = {v} ∪ nbor(v)`,
//!   so both problems run the same driver and kernels, written once over
//!   the [`Neighborhood`] trait ([`neighborhood`] has the mapping).
//!
//! # The optimistic framework
//!
//! All parallel algorithms follow the speculative loop of the paper's
//! Algorithm 1: optimistically color the work queue in parallel, then detect
//! conflicts and re-queue losers, until the queue is empty. Both phases come
//! in a **vertex-based** flavor (walk `nets(w) → vtxs(v)` from each queued
//! vertex — the ColPack baseline) and a greedier **net-based** flavor (walk
//! each net's pin list once — this paper's contribution), combined into the
//! eight schedules of the evaluation (`V-V`, `V-V-64`, `V-V-64D`, `V-N∞`,
//! `V-N1`, `V-N2`, `N1-N2`, `N2-N2`).
//!
//! # Entry points
//!
//! * [`color_bgpc`] / [`seq::color_bgpc_seq`] — parallel / sequential BGPC.
//! * [`d2gc::color_d2gc`] / [`seq::color_d2gc_seq`] — parallel / sequential
//!   D2GC.
//! * [`color_with_opts`], [`color_with_set`], [`try_color`],
//!   [`recolor_incremental`] and [`seq::color_seq`] — the generic entry
//!   points, for either problem.
//! * [`Schedule`] — which algorithm combination to run ([`Schedule::all`]
//!   lists the paper's eight).
//! * [`Balance`] — the B1/B2 cardinality-balancing heuristics (§V).
//! * [`verify`] — validity oracles and color-set statistics.
//!
//! ```
//! use bgpc::{color_bgpc, Schedule, verify};
//! use graph::{BipartiteGraph, Ordering};
//! use par::Pool;
//!
//! let matrix = sparse::gen::bipartite_uniform(64, 48, 512, 42);
//! let g = BipartiteGraph::from_matrix(&matrix);
//! let order = Ordering::Natural.vertex_order_bgpc(&g);
//! let pool = Pool::new(4);
//!
//! let result = color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
//! verify::verify_bgpc(&g, &result.colors).expect("coloring must be valid");
//! assert!(result.num_colors >= g.max_net_size());
//! ```

pub mod analysis;
pub mod balance;
pub mod cancel;
pub mod color;
pub mod ctx;
pub mod d1gc;
pub mod d2gc;
pub mod dkgc;
pub mod error;
pub mod forbidden;
pub mod incremental;
pub mod jp;
pub mod metrics;
pub mod neighborhood;
pub mod net;
pub mod recolor;
pub mod runner;
pub mod schedule;
pub mod seq;
pub mod simd;
pub mod verify;
pub mod vertex;
pub mod workqueue;

pub use balance::Balance;
pub use cancel::CancelToken;
pub use color::{Color, Colors, UNCOLORED};
pub use error::ColoringError;
pub use forbidden::{BitStampSet, ForbiddenKind, ForbiddenSet, StampSet};
pub use incremental::{apply_delta, recolor_incremental, CsrDelta, DeltaApplied, DeltaError};
pub use metrics::{ColoringResult, DegradeReason, FailedPhase, IterationMetrics};
pub use neighborhood::Neighborhood;
pub use runner::{color_bgpc, color_with_opts, color_with_set, try_color, RunnerOpts};
/// Problem-named aliases of the generic drivers.
pub use runner::{color_with_opts as color_bgpc_with_opts, color_with_set as color_bgpc_with_set};
pub use schedule::{PhaseKind, Schedule};
