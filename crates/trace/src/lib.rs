//! Low-overhead observability for the BGPC workspace.
//!
//! The paper's evaluation is built on phase-level visibility: Figure 1
//! plots per-iteration coloring vs. conflict-removal time and Table I
//! reports residual work-queue sizes. This crate provides that telemetry
//! for our runners without perturbing what it measures:
//!
//! - [`Counter`] — a fixed vocabulary of monotonic per-thread counters
//!   (chunks claimed, vertices colored, conflicts detected, forbidden-set
//!   probes, prefetch issues, busy nanoseconds),
//!   accumulated in plain thread-owned `u64`s (see [`CounterSheet`]).
//! - [`EventRing`] — a fixed-capacity, wrap-around span buffer per thread;
//!   recording never allocates and never blocks.
//! - [`Recorder`] — the per-team aggregation point. Each thread writes only
//!   to its own cache-padded slot, so there is no sharing and no locking on
//!   the record path. `par::Pool` installs busy-time guards around every
//!   parallel region; the guards record on drop, so a panicking worker
//!   still flushes its timing before the unwind leaves the region
//!   (`try_run` fault containment is preserved).
//! - Exporters — [`chrome_trace_json`] (loadable in `chrome://tracing` and
//!   Perfetto; `bgpc-cli color --trace FILE` writes one) and
//!   [`imbalance_table`] (human-readable per-thread busy time with a
//!   max/mean ratio).
//! - [`reader`] — a dependency-free chrome-trace parser used by the
//!   `trace_schema_check` binary and by tests to validate emitted files.
//!
//! # Cost model
//!
//! Tracing is **disabled by default at run time**: a pool without an
//! installed [`Recorder`] skips every hook behind one `Option` check per
//! region, and kernels accumulate into stack-local integers that die in
//! registers. The `trace_overhead` microbench in `crates/bench` measures
//! the enabled cost against the disabled one (budget: <2%).

#![warn(missing_docs)]

mod counter;
mod export;
pub mod reader;
mod recorder;
mod ring;

pub use counter::{Counter, CounterSheet};
pub use export::{chrome_trace_json, imbalance_table};
pub use recorder::{BusyGuard, Recorder};
pub use ring::{Event, EventRing, SpanKind};
