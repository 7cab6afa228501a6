//! `par` — a minimal OpenMP-style fork/join thread pool.
//!
//! The coloring algorithms in this workspace were designed around OpenMP's
//! `#pragma omp parallel for schedule(dynamic, chunk)` construct: a fixed
//! team of threads repeatedly grabs fixed-size chunks of an index range from
//! a shared cursor. Rayon's work-stealing scheduler deliberately hides the
//! chunk size and team shape, but the paper's evaluation (`V-V` vs `V-V-64`)
//! shows the chunk size is itself a first-class experimental knob. This crate
//! therefore provides a small, dependency-light pool that mirrors the OpenMP
//! execution model:
//!
//! * [`Pool::new(t)`](Pool::new) creates a team of `t` logical threads — the
//!   caller participates as thread 0 and `t - 1` workers are spawned.
//! * [`Pool::run`] executes one closure on every team member (an
//!   `omp parallel` region).
//! * [`Pool::for_dynamic`] iterates an index range with dynamic chunking
//!   (`schedule(dynamic, chunk)`).
//! * [`Pool::for_static`] iterates with contiguous block partitioning
//!   (`schedule(static)`).
//! * [`ThreadScratch`] provides cache-padded per-thread workspaces that live
//!   across parallel regions — the paper's "allocated only once, never reset"
//!   forbidden-color arrays depend on this.
//! * [`Pool::try_run`] and [`contain`] capture panics at the region/phase
//!   boundary as [`RegionPanic`] values instead of aborting, and
//!   [`faults`] provides the fail-point registry the fault-injection tests
//!   use to prove that recovery works.
//! * [`Pool::set_tracer`] installs a `trace::Recorder` on the team: regions
//!   then record per-thread busy time and the chunked drivers count claims.
//!   Without a recorder (the default) the hooks cost one branch per region
//!   — see the `trace` crate for the full cost model.
//!
//! Team members are not pinned to CPUs; placement is left to the OS
//! scheduler ([`Pool::pinned`] is always `false`).
//!
//! # Example
//!
//! ```
//! use par::Pool;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = Pool::new(4);
//! let sum = AtomicUsize::new(0);
//! pool.for_dynamic(1000, 64, |_tid, range| {
//!     let local: usize = range.sum();
//!     sum.fetch_add(local, Ordering::Relaxed);
//! });
//! assert_eq!(sum.into_inner(), 1000 * 999 / 2);
//! ```

mod cursor;
pub mod faults;
mod padded;
mod pool;
mod scratch;

pub use cursor::ChunkCursor;
pub use padded::CachePadded;
pub use pool::{contain, Pool, RegionPanic};
pub use scratch::ThreadScratch;

/// Returns the number of logical CPUs available to this process.
///
/// Falls back to 1 if the parallelism cannot be queried.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
