//! `serve` — a hardened coloring daemon for the BGPC suite.
//!
//! The library turns the in-process coloring runner ([`bgpc`]) into a
//! long-lived service that stays correct and available under the failure
//! modes a real deployment sees: overload, slow or malicious clients,
//! deadline pressure, worker panics, and crashes mid-write. Everything is
//! built on `std` (`TcpListener`, `Mutex`/`Condvar`, `mpsc`) — no registry
//! dependencies, matching the workspace's hermetic-offline rule.
//!
//! # Architecture
//!
//! ```text
//! client ──TCP──▶ handler thread ──▶ AdmissionQueue ──▶ executor thread
//!                    │   ▲                 (bounded,        │  owns the
//!                    │   │ Backpressure     3 lanes)        │  par::Pool
//!                    │   └──── when full                    ▼
//!                    │                                color_with_opts
//!                    │                               (deadline + cancel)
//!                    └◀── Result / typed error ◀─── ResultCache (crash-safe)
//! ```
//!
//! * **Admission control** ([`admission`]): a bounded three-lane priority
//!   queue. When full, the daemon answers with a typed `Backpressure`
//!   frame instead of queueing unboundedly — memory stays bounded under
//!   any offered load, and shed jobs are counted.
//! * **Deadlines** ([`daemon`]): each job's deadline and a cancellation
//!   token thread into [`bgpc::RunnerOpts`]; the speculative loop polls
//!   them once per iteration and a late job returns its best-so-far
//!   coloring tagged `DeadlineExceeded` — degraded, never absent.
//! * **Crash-safe result cache** ([`cache`]): results are content-addressed
//!   by a fingerprint of the CSR pattern ([`fingerprint`]) and persisted
//!   with write-temp-then-rename discipline; every entry carries a
//!   checksum trailer so a crash or bit flip yields a recomputation, not
//!   a wrong answer.
//! * **Incremental updates** ([`protocol::UpdateRequest`]): the `Update`
//!   verb ships the base graph plus an edge delta. When the base
//!   coloring is still cached, the daemon applies the delta with
//!   [`bgpc::apply_delta`] and recolors *only* the dirty vertices via
//!   [`bgpc::recolor_incremental`], seeded from the cached colors —
//!   the reply is flagged as a cache hit and a clean result is stored
//!   under the mutated graph's fingerprint so update chains keep
//!   hitting. On a miss the mutated graph is colored from scratch.
//! * **Wire protocol** ([`protocol`]): length-prefixed frames with a magic,
//!   a kind byte and a capped length prefix — adversarial input (oversized
//!   prefixes, garbage, half-closed and slow-loris connections) produces
//!   typed errors, never a panic or an unbounded allocation.
//! * **Shard worker** ([`shard`]): the daemon doubles as one shard of a
//!   multi-process coloring. A `Shard` frame installs a
//!   [`ShardWorker`] on the connection (graph + owner map), after which
//!   `Superstep`/`Flush` rounds drive speculative boundary coloring
//!   with the conflict exchange riding the same TCP connection. The
//!   `dist` crate's `Coordinator` drives it (`bgpc-cli shard`), and its
//!   `DistRunner` runs the same workers in memory (DESIGN.md §11).
//! * **Client** ([`client`]): reconnecting client with capped exponential
//!   backoff plus deterministic jitter, distinguishing retryable faults
//!   (backpressure, connection reset, torn frame) from terminal ones
//!   (invalid job, graph error).
//! * **Fault injection**: the daemon is instrumented with
//!   [`par::faults`] fail points (`serve.frame.torn`, `serve.conn.stall`,
//!   `serve.cache.write_abort`, `serve.job.panic`,
//!   `serve.queue.poison`); the `servecov` and `poison` tests prove
//!   each degrades the affected request and nothing else. Shared locks
//!   are taken through [`sync::lock_recover`], so a mutex poisoned by
//!   a panicking holder is recovered instead of cascading panics
//!   through every later client.

pub mod admission;
pub mod cache;
pub mod client;
pub mod daemon;
pub mod fingerprint;
pub mod protocol;
pub mod shard;
pub mod stats;
pub mod sync;

pub use admission::{AdmissionQueue, Job, SubmitError, UpdateSeed};
pub use cache::ResultCache;
pub use client::{ClientError, JobOutcome, RetryPolicy, ServeClient};
pub use daemon::{Daemon, ServeConfig};
pub use fingerprint::csr_fingerprint;
pub use protocol::{
    FlushReply, FrameKind, JobRequest, JobResult, Priority, ProtoError, ShardRequest,
    SuperstepRequest, UpdateRequest,
};
pub use shard::ShardWorker;
pub use stats::ServeStats;
pub use sync::{lock_recover, wait_recover};
