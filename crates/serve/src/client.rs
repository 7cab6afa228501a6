//! Retrying daemon client.
//!
//! The client owns the fault taxonomy: **retryable** failures
//! (backpressure, connection reset, torn frame, contained server error)
//! are retried on a fresh connection with capped exponential backoff plus
//! deterministic jitter; **terminal** failures (invalid job, graph error,
//! protocol violation) are surfaced immediately — retrying a job the
//! daemon has typed as unprocessable only burns the queue's capacity.
//!
//! Backoff for attempt `k` (0-based) is
//! `min(cap, base · 2^k) / 2 + jitter`, with `jitter` drawn uniformly
//! from the other half by a seeded [`rng::Pcg32`] — full-jitter-style
//! decorrelation so a herd of clients shed by the same Backpressure wave
//! does not reconverge on the daemon in lockstep, but deterministic per
//! seed so tests and the bench harness reproduce exactly.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use crate::protocol::{
    decode_backpressure, read_frame, write_frame, FrameKind, JobRequest, JobResult, ProtoError,
    UpdateRequest, DEFAULT_MAX_FRAME,
};
use crate::stats::ServeStats;

/// Client-side failure taxonomy.
#[derive(Debug)]
pub enum ClientError {
    /// The daemon shed the job; `(depth, capacity)` echo the queue state.
    /// Retryable.
    Backpressure {
        /// Queue depth at refusal.
        depth: u32,
        /// Queue bound.
        capacity: u32,
    },
    /// Connection-level failure: refused, reset, closed mid-frame, torn
    /// frame. Retryable on a fresh connection.
    Connection(String),
    /// The daemon contained an internal failure. Retryable.
    ServerError(String),
    /// The daemon typed the job as malformed. Terminal.
    InvalidJob(String),
    /// The graph layer rejected the pattern. Terminal.
    GraphError(String),
    /// Protocol violation (either side). Terminal — a retry would replay
    /// the same bytes.
    Protocol(String),
    /// The retry budget ran out; `last` is the final retryable failure.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The failure that exhausted the budget.
        last: Box<ClientError>,
    },
}

impl ClientError {
    /// Whether a retry on a fresh connection can succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Backpressure { .. }
                | ClientError::Connection(_)
                | ClientError::ServerError(_)
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Backpressure { depth, capacity } => {
                write!(f, "backpressure: queue {depth}/{capacity}")
            }
            ClientError::Connection(m) => write!(f, "connection failure: {m}"),
            ClientError::ServerError(m) => write!(f, "server error: {m}"),
            ClientError::InvalidJob(m) => write!(f, "invalid job: {m}"),
            ClientError::GraphError(m) => write!(f, "graph error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Retry budget and backoff shape.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included); min 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Ceiling on the exponential.
    pub cap: Duration,
    /// Seed for the jitter stream (deterministic per client).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            jitter_seed: 0x5e17e,
        }
    }
}

/// Backoff before retry `attempt` (0-based): half deterministic
/// exponential, half uniform jitter.
pub fn backoff_delay(policy: &RetryPolicy, attempt: u32, rng: &mut rng::Pcg32) -> Duration {
    let exp = policy
        .base
        .saturating_mul(1u32 << attempt.min(20))
        .min(policy.cap);
    let half = exp / 2;
    let jitter_ms = rng.bounded_u64(half.as_millis().max(1) as u64);
    half + Duration::from_millis(jitter_ms)
}

/// A finished job from the client's point of view.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Color per vertex.
    pub colors: Vec<i32>,
    /// Number of distinct colors.
    pub num_colors: u32,
    /// Degradation reason, if the daemon had to cut the run short.
    pub degraded: Option<String>,
    /// Served from the daemon's result cache.
    pub cache_hit: bool,
    /// Attempts this submission took (1 = first try).
    pub attempts: u32,
}

/// Reconnecting, retrying client for one daemon address.
pub struct ServeClient {
    addr: String,
    policy: RetryPolicy,
    max_frame: u32,
    rng: rng::Pcg32,
}

impl ServeClient {
    /// New client for `addr` with the given retry policy.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> ServeClient {
        let seed = policy.jitter_seed;
        ServeClient {
            addr: addr.into(),
            policy,
            max_frame: DEFAULT_MAX_FRAME,
            rng: rng::Pcg32::seed_from_u64(seed),
        }
    }

    fn connect(&self) -> Result<TcpStream, ClientError> {
        let s = TcpStream::connect(&self.addr)
            .map_err(|e| ClientError::Connection(format!("connect {}: {e}", self.addr)))?;
        let _ = s.set_nodelay(true);
        Ok(s)
    }

    fn roundtrip(
        &self,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<(FrameKind, Vec<u8>), ClientError> {
        let mut s = self.connect()?;
        // tid 1 = client writer at the `serve.frame.torn` fail point; the
        // daemon writes with tid 0, so tests can tear either side's
        // frames selectively via the thread filter.
        write_frame(&mut s, kind, payload, 1)
            .map_err(|e| ClientError::Connection(format!("send: {e}")))?;
        let _ = s.flush();
        match read_frame(&mut s, self.max_frame) {
            Ok(f) => Ok(f),
            Err(ProtoError::Closed) | Err(ProtoError::Torn) => Err(ClientError::Connection(
                "daemon closed the connection mid-reply".into(),
            )),
            Err(ProtoError::Io(e)) => Err(ClientError::Connection(format!("recv: {e}"))),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    fn request_once(&self, frame: FrameKind, payload: &[u8]) -> Result<JobResult, ClientError> {
        let (kind, payload) = self.roundtrip(frame, payload)?;
        match kind {
            FrameKind::Result => {
                JobResult::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            FrameKind::Backpressure => {
                let (depth, capacity) = decode_backpressure(&payload)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                Err(ClientError::Backpressure { depth, capacity })
            }
            FrameKind::InvalidJob => {
                Err(ClientError::InvalidJob(String::from_utf8_lossy(&payload).into_owned()))
            }
            FrameKind::GraphError => {
                Err(ClientError::GraphError(String::from_utf8_lossy(&payload).into_owned()))
            }
            FrameKind::ServerError => {
                Err(ClientError::ServerError(String::from_utf8_lossy(&payload).into_owned()))
            }
            FrameKind::ProtocolError => {
                Err(ClientError::Protocol(String::from_utf8_lossy(&payload).into_owned()))
            }
            other => Err(ClientError::Protocol(format!("unexpected reply kind {other:?}"))),
        }
    }

    /// Submits a job, retrying retryable failures per the policy. Each
    /// attempt uses a fresh connection.
    pub fn submit(&mut self, req: &JobRequest) -> Result<JobOutcome, ClientError> {
        self.retrying(FrameKind::Submit, &req.encode())
    }

    /// Sends an incremental update (base graph + edge delta), retrying
    /// like [`submit`](ServeClient::submit). On a daemon whose cache
    /// still holds the base graph's coloring, the reply is served from a
    /// reused entry ([`JobOutcome::cache_hit`] is set) and only the
    /// delta's dirty vertices are recolored.
    pub fn update(&mut self, req: &UpdateRequest) -> Result<JobOutcome, ClientError> {
        self.retrying(FrameKind::Update, &req.encode())
    }

    fn retrying(&mut self, frame: FrameKind, payload: &[u8]) -> Result<JobOutcome, ClientError> {
        let attempts_budget = self.policy.max_attempts.max(1);
        let mut last: Option<ClientError> = None;
        for attempt in 0..attempts_budget {
            if attempt > 0 {
                let delay = backoff_delay(&self.policy, attempt - 1, &mut self.rng);
                std::thread::sleep(delay);
            }
            match self.request_once(frame, payload) {
                Ok(r) => {
                    return Ok(JobOutcome {
                        colors: r.colors,
                        num_colors: r.num_colors,
                        degraded: r.degraded,
                        cache_hit: r.cache_hit,
                        attempts: attempt + 1,
                    })
                }
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: attempts_budget,
            last: Box::new(last.expect("loop ran at least once")),
        })
    }

    /// Single-attempt liveness probe.
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.roundtrip(FrameKind::Ping, b"")? {
            (FrameKind::Pong, _) => Ok(()),
            (other, _) => Err(ClientError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Fetches the daemon's counters.
    pub fn stats(&self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.roundtrip(FrameKind::Stats, b"")? {
            (FrameKind::StatsReply, payload) => {
                Ok(ServeStats::parse(&String::from_utf8_lossy(&payload)))
            }
            (other, _) => Err(ClientError::Protocol(format!(
                "expected StatsReply, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to shut down gracefully.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        match self.roundtrip(FrameKind::Shutdown, b"")? {
            (FrameKind::Pong, _) => Ok(()),
            (other, _) => Err(ClientError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }
}

/// Encodes a CSR pattern into the Submit graph payload (hardened
/// [`sparse::bin_io`] bytes).
pub fn encode_graph(m: &sparse::Csr) -> Vec<u8> {
    let mut buf = Vec::new();
    sparse::bin_io::write_bin(&mut buf, m).expect("Vec writes are infallible");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter_seed: 9,
        };
        let mut a = rng::Pcg32::seed_from_u64(9);
        let mut b = rng::Pcg32::seed_from_u64(9);
        for attempt in 0..8 {
            let da = backoff_delay(&policy, attempt, &mut a);
            let db = backoff_delay(&policy, attempt, &mut b);
            assert_eq!(da, db, "same seed, same delays");
            assert!(da <= policy.cap, "attempt {attempt}: {da:?} above cap");
            let floor = policy.base.saturating_mul(1 << attempt).min(policy.cap) / 2;
            assert!(da >= floor, "attempt {attempt}: {da:?} below half-floor");
        }
    }

    #[test]
    fn taxonomy_marks_the_right_errors_retryable() {
        assert!(ClientError::Backpressure { depth: 1, capacity: 1 }.is_retryable());
        assert!(ClientError::Connection("reset".into()).is_retryable());
        assert!(ClientError::ServerError("panic".into()).is_retryable());
        assert!(!ClientError::InvalidJob("bad".into()).is_retryable());
        assert!(!ClientError::GraphError("bad".into()).is_retryable());
        assert!(!ClientError::Protocol("bad".into()).is_retryable());
    }

    #[test]
    fn connect_refused_is_a_retryable_connection_error() {
        // Port 1 on localhost is essentially never listening.
        let client = ServeClient::new("127.0.0.1:1", RetryPolicy::default());
        let err = client.ping().unwrap_err();
        assert!(err.is_retryable(), "refused connect must be retryable: {err}");
    }
}
