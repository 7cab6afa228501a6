//! Distance-2 graph coloring (paper §IV): BGPC over closed-neighborhood
//! nets.
//!
//! The paper adapts every BGPC algorithm to D2GC "with a single
//! difference": each vertex `v` is both a colored vertex and the net
//! `N[v] = {v} ∪ nbor(v)`, processed middle vertex first (Algorithms 9
//! and 10). [`graph::Graph`] implements [`crate::neighborhood::Neighborhood`]
//! that way, so D2GC runs the one speculative driver and the one set of
//! vertex- and net-based kernels BGPC runs; the reverse first-fit cursor
//! `net_size(v) − 1` is Algorithm 9's `|nbor(v)|`.

use graph::Graph;
use par::Pool;

use crate::{ColoringResult, RunnerOpts, Schedule};

pub use crate::runner::{
    color_with_opts as color_d2gc_with_opts, color_with_set as color_d2gc_with_set,
};

/// Runs the full speculative D2GC loop with the given [`Schedule`] — see
/// [`crate::color_with_opts`].
pub fn color_d2gc(g: &Graph, order: &[u32], schedule: &Schedule, pool: &Pool) -> ColoringResult {
    crate::color_with_opts(g, order, schedule, pool, RunnerOpts::default())
}
