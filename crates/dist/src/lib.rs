//! `dist` — distributed-memory speculative coloring: one shard state
//! machine, run in memory or across worker processes.
//!
//! The paper's related work (§VII) credits the speculative
//! color/detect/repair loop to distributed-memory BGPC/D2GC frameworks
//! (Boman, Bozdağ, Çatalyürek, Gebremedhin, Manne et al.): each rank owns
//! a partition of the vertices, colors them in supersteps, exchanges
//! boundary colors, and re-queues conflict losers. One rank of that loop
//! is `serve::ShardWorker`; this crate partitions the vertices
//! ([`Partition`]) and drives the workers through one round loop
//! ([`coord`]) over one of two transports:
//!
//! * [`Coordinator`] — the **real scale-out path**: each shard is a
//!   `serve` worker daemon, supersteps and boundary exchanges travel over
//!   TCP in the daemon's length-prefixed protocol
//!   (`Shard`/`Superstep`/`Flush` frames), interior vertices color while
//!   boundary messages are in flight, and a worker dying mid-run degrades
//!   to a valid in-memory run instead of failing.
//! * [`DistRunner`] ([`bsp`]) — the **in-memory transport**: the same
//!   workers held in this process, so rounds, conflicts and message
//!   volume can be studied on one machine. Its outcome equals a healthy
//!   sharded run's byte for byte.
//!
//! What the loop preserves from the real systems: the **owner-computes**
//! rule (only the owner colors a vertex); **stale boundary knowledge**
//! (within a superstep, remote colors are those received at the previous
//! flush — the actual source of distributed conflicts); **id-ordered
//! conflict resolution** (of a conflicting cross-rank pair, the larger id
//! is re-queued, matching the shared-memory rule); and per-superstep
//! accounting of conflicts and message volume (DESIGN.md §11).

pub mod bsp;
pub mod coord;
pub mod partition;

pub use bsp::DistRunner;
pub use coord::{Coordinator, ShardOutcome, SuperstepStats, MAX_SUPERSTEPS};
pub use partition::Partition;
