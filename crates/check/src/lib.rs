//! Deterministic concurrency checker and differential-fuzzing oracle.
//!
//! This crate is the runtime's correctness harness, hermetic like the rest
//! of the workspace (no registry dependencies — the virtual scheduler and
//! the property layer are built on the in-tree [`rng`] and [`minicheck`]
//! crates). It attacks the speculative coloring runtime from three sides:
//!
//! * [`vsched`] — a loom-style virtual scheduler: protocols are expressed
//!   as step-wise [`vsched::ThreadProgram`]s and their interleavings are
//!   enumerated exhaustively (small state spaces) or sampled from a seed
//!   (large ones). Every failure carries a replayable schedule.
//! * [`models`] — atomic-granularity models of the `SharedQueue`
//!   push/flush and `ChunkCursor` claim protocols, op-granularity drivers
//!   for the real structures, and a deliberately-buggy queue the explorer
//!   must catch (detection-power self-test).
//! * [`oracle`] — a differential oracle running every schedule,
//!   balancer and forbidden-set representation against the
//!   sequential baseline on randomized instances, checking validity,
//!   determinism and color-count bounds.
//! * [`delta`] — the incremental-recoloring oracle: random mutation
//!   batches applied through [`bgpc::apply_delta`], recolored from the
//!   dirty set, checked for validity on the mutated graph, exact
//!   structural mutation, bounded color-count regression and the same
//!   one-thread equivalences as the main oracle.
//! * [`faultcov`] — proves each registered `par::faults` fail point is
//!   *caught*: the injected panic fires, the degrade report names the
//!   right phase, and the repaired coloring verifies.
//! * [`sharded`] — the multi-process oracle: shard-count × partitioner
//!   sweeps through the [`dist::Coordinator`] over real `serve` worker
//!   daemons on loopback TCP, checked for validity in original ids,
//!   clean (non-degraded) runs, bounded color counts and exact
//!   superstep accounting against the in-process single-node baseline.
//!
//! The `check_smoke` binary wires all of it into a seeded, time-boxed
//! tier-1 gate (`scripts/verify.sh`); `check_smoke --deep --cases 2000`
//! runs the long randomized sweep. On failure both print the seed that
//! replays the offending case.

pub mod delta;
pub mod faultcov;
pub mod models;
pub mod oracle;
pub mod sharded;
pub mod vsched;

pub use delta::{run_delta_case_from_seed, run_delta_sweep};
pub use oracle::{run_case_from_seed, run_oracle_sweep, OracleFailure};
pub use sharded::{run_sharded_case_from_seed, run_sharded_sweep};
pub use vsched::{CheckFailure, Coverage, ThreadProgram};
