//! Length-prefixed binary wire protocol.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! magic   4 bytes  b"BGPS"
//! kind    1 byte   (see [`FrameKind`])
//! len     4 bytes  u32 LE — payload length
//! payload len bytes
//! ```
//!
//! The reader validates the magic and kind, and rejects any length prefix
//! above the configured cap *before* allocating — an adversarial
//! `len = u32::MAX` costs the daemon a 9-byte read and a typed
//! [`ProtoError::Oversized`], not 4 GiB of memory. Job graphs travel
//! inside the Submit payload in the hardened [`sparse::bin_io`] format,
//! so a bit flip anywhere in the graph bytes is caught by that layer's
//! checksum trailer and surfaces as a typed `InvalidJob` response.
//!
//! The daemon-side writer is instrumented with the `serve.frame.torn`
//! fail point ([`par::faults`]): when armed with
//! [`par::faults::FaultAction::Torn`]`(n)` it emits only the first `n`
//! bytes of the frame and then fails, which is exactly what a crashing or
//! preempted peer looks like to the other side. Clients must treat a torn
//! response as a retryable connection error.

use std::io::{Read, Write};

/// Frame magic — four bytes so a desynchronized or garbage stream is
/// rejected on the first read.
pub const FRAME_MAGIC: [u8; 4] = *b"BGPS";

/// Default cap on payload size (64 MiB). Oversized prefixes are rejected
/// before allocation.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// Frame header size on the wire (magic + kind + length).
pub const FRAME_HEADER_LEN: usize = 9;

/// Message kinds. Requests are `0x0…`, responses `0x8…`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → daemon: a coloring job (payload: [`JobRequest`]).
    Submit = 0x01,
    /// Client → daemon: liveness probe (empty payload).
    Ping = 0x02,
    /// Client → daemon: request the daemon's counters (empty payload).
    Stats = 0x03,
    /// Client → daemon: graceful shutdown request (empty payload).
    Shutdown = 0x04,
    /// Client → daemon: an incremental update of a previously submitted
    /// graph (payload: [`UpdateRequest`] — base graph bytes plus an edge
    /// delta). Answered with [`FrameKind::Result`]; when the base graph's
    /// coloring is still cached, the daemon recolors only the delta's
    /// dirty vertices and marks the reply `cache_hit`.
    Update = 0x05,
    /// Coordinator → worker: install a shard for sharded coloring
    /// (payload: [`ShardRequest`] — shard id, owner array, graph bytes).
    /// Acknowledged with [`FrameKind::Pong`]; the worker then answers
    /// [`FrameKind::Superstep`] frames on the same connection.
    Shard = 0x06,
    /// Coordinator → worker: drive one BSP superstep against the
    /// installed shard (payload: [`SuperstepRequest`] — round number and
    /// incoming boundary colors). Answered with [`FrameKind::Flush`].
    /// Sent before a [`FrameKind::Shard`] install it is a protocol error.
    Superstep = 0x07,
    /// Daemon → client: a finished coloring (payload: [`JobResult`]).
    Result = 0x81,
    /// Daemon → client: the admission queue is full; retry later
    /// (payload: depth u32, capacity u32). Retryable by contract.
    Backpressure = 0x82,
    /// Daemon → client: the job was malformed (bad schedule name, corrupt
    /// or truncated graph bytes). Terminal: retrying cannot succeed.
    InvalidJob = 0x83,
    /// Daemon → client: the graph layer rejected the pattern. Terminal.
    GraphError = 0x84,
    /// Daemon → client: an internal failure was contained (e.g. a panic
    /// outside the runner's own repair path). Retryable: the daemon
    /// survives and the next attempt may land cleanly.
    ServerError = 0x85,
    /// Daemon → client: reply to `Ping` (empty payload).
    Pong = 0x86,
    /// Daemon → client: reply to `Stats` (payload: `key value\n` text).
    StatsReply = 0x87,
    /// Daemon → client: the frame layer itself was violated (bad magic,
    /// unknown kind, oversized length). Sent once, then the connection is
    /// dropped.
    ProtocolError = 0x88,
    /// Worker → coordinator: the boundary flush ending one superstep
    /// (payload: [`FlushReply`] — vertices colored, conflicts re-queued,
    /// outgoing boundary messages).
    Flush = 0x89,
}

impl FrameKind {
    /// Parses a wire kind byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Submit,
            0x02 => FrameKind::Ping,
            0x03 => FrameKind::Stats,
            0x04 => FrameKind::Shutdown,
            0x05 => FrameKind::Update,
            0x06 => FrameKind::Shard,
            0x07 => FrameKind::Superstep,
            0x81 => FrameKind::Result,
            0x82 => FrameKind::Backpressure,
            0x83 => FrameKind::InvalidJob,
            0x84 => FrameKind::GraphError,
            0x85 => FrameKind::ServerError,
            0x86 => FrameKind::Pong,
            0x87 => FrameKind::StatsReply,
            0x88 => FrameKind::ProtocolError,
            0x89 => FrameKind::Flush,
            _ => return None,
        })
    }
}

/// Frame-layer errors. The daemon maps these to a single
/// [`FrameKind::ProtocolError`] response followed by a connection drop;
/// the client maps them to retryable/terminal [`crate::client::ClientError`]s.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying I/O failure (includes read timeouts — the slow-loris
    /// defense — and connection resets).
    Io(std::io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream did not start with [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The length prefix exceeds the configured cap.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// Configured cap.
        max: u32,
    },
    /// The payload ended early (torn frame / half-closed connection).
    Torn,
    /// A payload failed structural decoding.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "I/O error: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "length prefix {len} exceeds frame cap {max}")
            }
            ProtoError::Torn => write!(f, "torn frame: payload ended early"),
            ProtoError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one frame. `tid` threads through to the `serve.frame.torn` fail
/// point so tests can tear a specific writer.
pub fn write_frame<W: Write>(
    w: &mut W,
    kind: FrameKind,
    payload: &[u8],
    tid: usize,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(kind as u8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    if let Some(action) = par::faults::consume("serve.frame.torn", tid) {
        let torn = match action {
            par::faults::FaultAction::Torn(n) => n.min(buf.len()),
            // Panic/Stall armed on a write point: emit nothing.
            _ => 0,
        };
        w.write_all(&buf[..torn])?;
        w.flush()?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            format!("fail point serve.frame.torn: wrote {torn}/{} bytes", buf.len()),
        ));
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame, enforcing `max_frame` before allocating the payload.
///
/// A clean EOF *between* frames is [`ProtoError::Closed`]; an EOF inside
/// a frame is [`ProtoError::Torn`]. Read timeouts installed by the caller
/// surface as [`ProtoError::Io`] and are the slow-loris defense.
pub fn read_frame<R: Read>(r: &mut R, max_frame: u32) -> Result<(FrameKind, Vec<u8>), ProtoError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // First byte distinguishes clean close from torn frame.
    match r.read(&mut header[..1]) {
        Ok(0) => return Err(ProtoError::Closed),
        Ok(_) => {}
        Err(e) => return Err(ProtoError::Io(e)),
    }
    read_exact_or_torn(r, &mut header[1..])?;
    let magic: [u8; 4] = header[..4].try_into().expect("4-byte slice");
    if magic != FRAME_MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let kind = FrameKind::from_u8(header[4]).ok_or(ProtoError::UnknownKind(header[4]))?;
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4-byte slice"));
    if len > max_frame {
        return Err(ProtoError::Oversized { len, max: max_frame });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or_torn(r, &mut payload)?;
    Ok((kind, payload))
}

fn read_exact_or_torn<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::Torn
        } else {
            ProtoError::Io(e)
        }
    })
}

/// Job priority lanes of the admission queue, highest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Priority {
    /// Served before everything else.
    High = 0,
    /// The default lane.
    Normal = 1,
    /// Served only when the higher lanes are empty.
    Low = 2,
}

impl Priority {
    /// Parses a wire priority byte.
    pub fn from_u8(b: u8) -> Option<Priority> {
        Some(match b {
            0 => Priority::High,
            1 => Priority::Normal,
            2 => Priority::Low,
            _ => return None,
        })
    }

    /// All lanes, highest first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
}

/// A decoded Submit payload.
///
/// The graph travels as hardened [`sparse::bin_io`] bytes; decoding stops
/// at the envelope here and the daemon runs the checksummed bin reader on
/// `graph_bytes`, so envelope errors and graph corruption produce distinct
/// messages.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Admission lane.
    pub priority: Priority,
    /// Milliseconds until this job's deadline, measured from admission;
    /// `0` means no deadline.
    pub deadline_ms: u32,
    /// Skip the result cache for this job (both lookup and fill).
    pub no_cache: bool,
    /// Schedule name (see [`bgpc::Schedule::from_name`]); empty selects
    /// the daemon default.
    pub schedule: String,
    /// The pattern in `sparse::bin_io` format (checksummed).
    pub graph_bytes: Vec<u8>,
}

impl JobRequest {
    /// Encodes into a Submit payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.schedule.len() + self.graph_bytes.len());
        out.push(self.priority as u8);
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.push(self.no_cache as u8);
        let name = self.schedule.as_bytes();
        out.push(name.len().min(255) as u8);
        out.extend_from_slice(&name[..name.len().min(255)]);
        out.extend_from_slice(&self.graph_bytes);
        out
    }

    /// Decodes a Submit payload envelope.
    pub fn decode(payload: &[u8]) -> Result<JobRequest, ProtoError> {
        if payload.len() < 7 {
            return Err(ProtoError::Malformed(format!(
                "submit payload too short: {} bytes",
                payload.len()
            )));
        }
        let priority = Priority::from_u8(payload[0])
            .ok_or_else(|| ProtoError::Malformed(format!("bad priority byte {}", payload[0])))?;
        let deadline_ms = u32::from_le_bytes(payload[1..5].try_into().expect("4-byte slice"));
        let no_cache = match payload[5] {
            0 => false,
            1 => true,
            b => return Err(ProtoError::Malformed(format!("bad no_cache byte {b}"))),
        };
        let name_len = payload[6] as usize;
        if payload.len() < 7 + name_len {
            return Err(ProtoError::Malformed("schedule name truncated".into()));
        }
        let schedule = String::from_utf8(payload[7..7 + name_len].to_vec())
            .map_err(|_| ProtoError::Malformed("schedule name is not UTF-8".into()))?;
        Ok(JobRequest {
            priority,
            deadline_ms,
            no_cache,
            schedule,
            graph_bytes: payload[7 + name_len..].to_vec(),
        })
    }
}

/// A decoded Update payload: a [`JobRequest`]-shaped envelope carrying
/// the **base** graph plus an edge delta against it.
///
/// The daemon fingerprints the base graph, looks its coloring up in the
/// result cache, applies the delta with [`bgpc::apply_delta`] and — on a
/// hit — recolors only the delta's dirty vertices via
/// [`bgpc::recolor_incremental`], seeding from the cached colors.
/// On a miss the mutated graph is colored from scratch. Either way the
/// reply is an ordinary [`FrameKind::Result`] frame for the *mutated*
/// graph.
#[derive(Clone, Debug)]
pub struct UpdateRequest {
    /// Admission lane.
    pub priority: Priority,
    /// Milliseconds until the deadline, from admission; `0` disables.
    pub deadline_ms: u32,
    /// Skip the result cache entirely (no base lookup, no store).
    pub no_cache: bool,
    /// Schedule name; empty selects the daemon's update default.
    pub schedule: String,
    /// Edge insertions `(row, col)` — must be absent from the base.
    pub insertions: Vec<(u32, u32)>,
    /// Edge deletions `(row, col)` — must be present in the base.
    pub deletions: Vec<(u32, u32)>,
    /// The **base** pattern in `sparse::bin_io` format (checksummed).
    pub graph_bytes: Vec<u8>,
}

impl UpdateRequest {
    /// Encodes into an Update payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            16 + self.schedule.len()
                + 8 * (self.insertions.len() + self.deletions.len())
                + self.graph_bytes.len(),
        );
        out.push(self.priority as u8);
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.push(self.no_cache as u8);
        let name = self.schedule.as_bytes();
        out.push(name.len().min(255) as u8);
        out.extend_from_slice(&name[..name.len().min(255)]);
        out.extend_from_slice(&(self.insertions.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.deletions.len() as u32).to_le_bytes());
        for &(r, c) in self.insertions.iter().chain(&self.deletions) {
            out.extend_from_slice(&r.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&self.graph_bytes);
        out
    }

    /// Decodes an Update payload envelope.
    pub fn decode(payload: &[u8]) -> Result<UpdateRequest, ProtoError> {
        if payload.len() < 7 {
            return Err(ProtoError::Malformed(format!(
                "update payload too short: {} bytes",
                payload.len()
            )));
        }
        let priority = Priority::from_u8(payload[0])
            .ok_or_else(|| ProtoError::Malformed(format!("bad priority byte {}", payload[0])))?;
        let deadline_ms = u32::from_le_bytes(payload[1..5].try_into().expect("4-byte slice"));
        let no_cache = match payload[5] {
            0 => false,
            1 => true,
            b => return Err(ProtoError::Malformed(format!("bad no_cache byte {b}"))),
        };
        let name_len = payload[6] as usize;
        if payload.len() < 7 + name_len + 8 {
            return Err(ProtoError::Malformed("update envelope truncated".into()));
        }
        let schedule = String::from_utf8(payload[7..7 + name_len].to_vec())
            .map_err(|_| ProtoError::Malformed("schedule name is not UTF-8".into()))?;
        let mut off = 7 + name_len;
        let n_ins =
            u32::from_le_bytes(payload[off..off + 4].try_into().expect("4-byte slice")) as usize;
        let n_del =
            u32::from_le_bytes(payload[off + 4..off + 8].try_into().expect("4-byte slice"))
                as usize;
        off += 8;
        let pairs = n_ins
            .checked_add(n_del)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| ProtoError::Malformed("delta edge count overflows".into()))?;
        if payload.len() < off + pairs {
            return Err(ProtoError::Malformed("delta edge list truncated".into()));
        }
        let read_pairs = |count: usize, off: &mut usize| -> Vec<(u32, u32)> {
            (0..count)
                .map(|_| {
                    let r = u32::from_le_bytes(
                        payload[*off..*off + 4].try_into().expect("4-byte slice"),
                    );
                    let c = u32::from_le_bytes(
                        payload[*off + 4..*off + 8].try_into().expect("4-byte slice"),
                    );
                    *off += 8;
                    (r, c)
                })
                .collect()
        };
        let insertions = read_pairs(n_ins, &mut off);
        let deletions = read_pairs(n_del, &mut off);
        Ok(UpdateRequest {
            priority,
            deadline_ms,
            no_cache,
            schedule,
            insertions,
            deletions,
            graph_bytes: payload[off..].to_vec(),
        })
    }
}

/// A decoded Result payload.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Human-readable degradation reason; `None` for a clean run.
    pub degraded: Option<String>,
    /// Served from the content-addressed result cache.
    pub cache_hit: bool,
    /// Number of distinct colors.
    pub num_colors: u32,
    /// Final color per vertex, original ids.
    pub colors: Vec<i32>,
}

impl JobResult {
    /// Encodes into a Result payload.
    pub fn encode(&self) -> Vec<u8> {
        let reason = self.degraded.as_deref().unwrap_or("");
        let rbytes = &reason.as_bytes()[..reason.len().min(u16::MAX as usize)];
        let mut out = Vec::with_capacity(16 + rbytes.len() + self.colors.len() * 4);
        out.push(self.degraded.is_some() as u8);
        out.push(self.cache_hit as u8);
        out.extend_from_slice(&(rbytes.len() as u16).to_le_bytes());
        out.extend_from_slice(rbytes);
        out.extend_from_slice(&self.num_colors.to_le_bytes());
        out.extend_from_slice(&(self.colors.len() as u64).to_le_bytes());
        for &c in &self.colors {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Decodes a Result payload.
    pub fn decode(payload: &[u8]) -> Result<JobResult, ProtoError> {
        let need = |n: usize| {
            if payload.len() < n {
                Err(ProtoError::Malformed("result payload truncated".into()))
            } else {
                Ok(())
            }
        };
        need(4)?;
        let degraded_flag = payload[0] != 0;
        let cache_hit = payload[1] != 0;
        let rlen = u16::from_le_bytes(payload[2..4].try_into().expect("2-byte slice")) as usize;
        need(4 + rlen + 12)?;
        let reason = String::from_utf8(payload[4..4 + rlen].to_vec())
            .map_err(|_| ProtoError::Malformed("degrade reason is not UTF-8".into()))?;
        let mut off = 4 + rlen;
        let num_colors =
            u32::from_le_bytes(payload[off..off + 4].try_into().expect("4-byte slice"));
        off += 4;
        let n = u64::from_le_bytes(payload[off..off + 8].try_into().expect("8-byte slice"));
        off += 8;
        let n = usize::try_from(n)
            .map_err(|_| ProtoError::Malformed("color count exceeds usize".into()))?;
        need(off + n.checked_mul(4).ok_or_else(|| {
            ProtoError::Malformed("color count overflows".into())
        })?)?;
        let colors = payload[off..off + n * 4]
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(JobResult {
            degraded: degraded_flag.then_some(reason),
            cache_hit,
            num_colors,
            colors,
        })
    }
}

/// A decoded Shard payload: everything a worker needs to become one
/// rank of a sharded coloring run.
///
/// The coordinator ships the *whole* pattern to every worker
/// (structure-replicated, color-partitioned): BGPC conflict detection
/// needs complete distance-2 neighborhoods, so replicating the structure
/// and partitioning only the coloring work is the simplest correct
/// owner-computes split. The graph travels as checksummed
/// [`sparse::bin_io`] bytes, same as Submit.
#[derive(Clone, Debug)]
pub struct ShardRequest {
    /// This worker's shard id, `< n_shards`.
    pub shard: u32,
    /// Total number of shards in the run.
    pub n_shards: u32,
    /// Vertex-to-shard owner array (one entry per vertex, values
    /// `< n_shards`).
    pub owners: Vec<u32>,
    /// The pattern in `sparse::bin_io` format (checksummed).
    pub graph_bytes: Vec<u8>,
}

impl ShardRequest {
    /// Encodes into a Shard payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * self.owners.len() + self.graph_bytes.len());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.n_shards.to_le_bytes());
        out.extend_from_slice(&(self.owners.len() as u64).to_le_bytes());
        for &o in &self.owners {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&self.graph_bytes);
        out
    }

    /// Decodes a Shard payload envelope.
    pub fn decode(payload: &[u8]) -> Result<ShardRequest, ProtoError> {
        if payload.len() < 16 {
            return Err(ProtoError::Malformed(format!(
                "shard payload too short: {} bytes",
                payload.len()
            )));
        }
        let shard = u32::from_le_bytes(payload[..4].try_into().expect("4-byte slice"));
        let n_shards = u32::from_le_bytes(payload[4..8].try_into().expect("4-byte slice"));
        if n_shards == 0 || shard >= n_shards {
            return Err(ProtoError::Malformed(format!(
                "shard id {shard} out of range for {n_shards} shards"
            )));
        }
        let n = u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice"));
        let n = usize::try_from(n)
            .map_err(|_| ProtoError::Malformed("owner count exceeds usize".into()))?;
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| ProtoError::Malformed("owner count overflows".into()))?;
        if payload.len() < 16 + bytes {
            return Err(ProtoError::Malformed("owner array truncated".into()));
        }
        let owners: Vec<u32> = payload[16..16 + bytes]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        if let Some(&bad) = owners.iter().find(|&&o| o >= n_shards) {
            return Err(ProtoError::Malformed(format!(
                "owner id {bad} out of range for {n_shards} shards"
            )));
        }
        Ok(ShardRequest {
            shard,
            n_shards,
            owners,
            graph_bytes: payload[16 + bytes..].to_vec(),
        })
    }
}

/// A decoded Superstep payload: the coordinator's half of one BSP round.
#[derive(Clone, Debug)]
pub struct SuperstepRequest {
    /// 1-based round number. Round 1 speculatively colors every owned
    /// vertex; later rounds re-color the conflicts detected against the
    /// delivered updates.
    pub superstep: u32,
    /// Harvest round: instead of coloring, the worker replies with its
    /// owned `(vertex, color)` assignment so the coordinator can
    /// assemble the global coloring.
    pub harvest: bool,
    /// Boundary colors from the previous round's flushes, routed to this
    /// shard: `(vertex, color)` pairs for remote vertices this shard is
    /// interested in.
    pub updates: Vec<(u32, i32)>,
}

impl SuperstepRequest {
    /// Encodes into a Superstep payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 + 8 * self.updates.len());
        out.extend_from_slice(&self.superstep.to_le_bytes());
        out.push(self.harvest as u8);
        out.extend_from_slice(&(self.updates.len() as u64).to_le_bytes());
        for &(v, c) in &self.updates {
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Decodes a Superstep payload.
    pub fn decode(payload: &[u8]) -> Result<SuperstepRequest, ProtoError> {
        if payload.len() < 13 {
            return Err(ProtoError::Malformed(format!(
                "superstep payload too short: {} bytes",
                payload.len()
            )));
        }
        let superstep = u32::from_le_bytes(payload[..4].try_into().expect("4-byte slice"));
        let harvest = match payload[4] {
            0 => false,
            1 => true,
            b => return Err(ProtoError::Malformed(format!("bad harvest byte {b}"))),
        };
        let n = u64::from_le_bytes(payload[5..13].try_into().expect("8-byte slice"));
        let n = usize::try_from(n)
            .map_err(|_| ProtoError::Malformed("update count exceeds usize".into()))?;
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| ProtoError::Malformed("update count overflows".into()))?;
        if payload.len() < 13 + bytes {
            return Err(ProtoError::Malformed("update list truncated".into()));
        }
        let updates = payload[13..13 + bytes]
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    i32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                )
            })
            .collect();
        Ok(SuperstepRequest {
            superstep,
            harvest,
            updates,
        })
    }
}

/// A decoded Flush payload: the worker's half of one BSP round.
///
/// For a coloring round, `messages` carries the outgoing boundary
/// traffic as `(dest_shard, vertex, color)` triples. For a harvest
/// round it carries the shard's owned assignment as
/// `(own_shard, vertex, color)`.
#[derive(Clone, Debug)]
pub struct FlushReply {
    /// Vertices colored (or re-colored) this round.
    pub colored: u32,
    /// Conflicts detected against the delivered updates (vertices
    /// re-queued and re-colored this round).
    pub conflicts: u32,
    /// Outgoing boundary messages `(dest_shard, vertex, color)`.
    pub messages: Vec<(u32, u32, i32)>,
}

impl FlushReply {
    /// Encodes into a Flush payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 12 * self.messages.len());
        out.extend_from_slice(&self.colored.to_le_bytes());
        out.extend_from_slice(&self.conflicts.to_le_bytes());
        out.extend_from_slice(&(self.messages.len() as u64).to_le_bytes());
        for &(d, v, c) in &self.messages {
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Decodes a Flush payload.
    pub fn decode(payload: &[u8]) -> Result<FlushReply, ProtoError> {
        if payload.len() < 16 {
            return Err(ProtoError::Malformed(format!(
                "flush payload too short: {} bytes",
                payload.len()
            )));
        }
        let colored = u32::from_le_bytes(payload[..4].try_into().expect("4-byte slice"));
        let conflicts = u32::from_le_bytes(payload[4..8].try_into().expect("4-byte slice"));
        let n = u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice"));
        let n = usize::try_from(n)
            .map_err(|_| ProtoError::Malformed("message count exceeds usize".into()))?;
        let bytes = n
            .checked_mul(12)
            .ok_or_else(|| ProtoError::Malformed("message count overflows".into()))?;
        if payload.len() < 16 + bytes {
            return Err(ProtoError::Malformed("message list truncated".into()));
        }
        let messages = payload[16..16 + bytes]
            .chunks_exact(12)
            .map(|c| {
                (
                    u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                    i32::from_le_bytes([c[8], c[9], c[10], c[11]]),
                )
            })
            .collect();
        Ok(FlushReply {
            colored,
            conflicts,
            messages,
        })
    }
}

/// Encodes a Backpressure payload (`depth`, `capacity`).
pub fn encode_backpressure(depth: u32, capacity: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.extend_from_slice(&depth.to_le_bytes());
    out.extend_from_slice(&capacity.to_le_bytes());
    out
}

/// Decodes a Backpressure payload.
pub fn decode_backpressure(payload: &[u8]) -> Result<(u32, u32), ProtoError> {
    if payload.len() != 8 {
        return Err(ProtoError::Malformed("backpressure payload must be 8 bytes".into()));
    }
    Ok((
        u32::from_le_bytes(payload[..4].try_into().expect("4-byte slice")),
        u32::from_le_bytes(payload[4..].try_into().expect("4-byte slice")),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Submit, b"hello", 0).unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, FrameKind::Submit);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ping, b"", 0).unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, FrameKind::Ping);
        assert!(payload.is_empty());
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.push(FrameKind::Submit as u8);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut buf.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { len: u32::MAX, max: 1024 }));
    }

    #[test]
    fn bad_magic_and_unknown_kind_rejected() {
        let mut buf = b"XXXX\x01\x00\x00\x00\x00".to_vec();
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024).unwrap_err(),
            ProtoError::BadMagic(_)
        ));
        buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.push(0x7f);
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024).unwrap_err(),
            ProtoError::UnknownKind(0x7f)
        ));
    }

    #[test]
    fn clean_close_vs_torn_frame() {
        assert!(matches!(
            read_frame(&mut (&b""[..]), 1024).unwrap_err(),
            ProtoError::Closed
        ));
        // Header present, payload missing.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Submit, b"payload", 0).unwrap();
        buf.truncate(FRAME_HEADER_LEN + 3);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024).unwrap_err(),
            ProtoError::Torn
        ));
        // Header itself torn.
        let mut buf2 = Vec::new();
        write_frame(&mut buf2, FrameKind::Ping, b"", 0).unwrap();
        buf2.truncate(4);
        assert!(matches!(
            read_frame(&mut buf2.as_slice(), 1024).unwrap_err(),
            ProtoError::Torn
        ));
    }

    #[test]
    fn torn_fail_point_truncates_the_write() {
        // Thread-filtered so concurrently running tests (tid 0 writers)
        // cannot consume the armed action.
        par::faults::arm_with("serve.frame.torn", par::faults::FaultAction::Torn(5), 1, Some(7));
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, FrameKind::Result, b"abcdef", 7).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        assert_eq!(buf.len(), 5, "only the torn prefix reaches the wire");
        par::faults::disarm("serve.frame.torn");
        // The reader sees a torn frame, not garbage.
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024).unwrap_err(),
            ProtoError::Torn
        ));
    }

    #[test]
    fn job_request_roundtrip() {
        let req = JobRequest {
            priority: Priority::High,
            deadline_ms: 1500,
            no_cache: true,
            schedule: "N1-N2".into(),
            graph_bytes: vec![1, 2, 3, 4],
        };
        let back = JobRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.priority, Priority::High);
        assert_eq!(back.deadline_ms, 1500);
        assert!(back.no_cache);
        assert_eq!(back.schedule, "N1-N2");
        assert_eq!(back.graph_bytes, vec![1, 2, 3, 4]);
    }

    #[test]
    fn job_request_rejects_garbage() {
        assert!(JobRequest::decode(b"").is_err());
        assert!(JobRequest::decode(&[9, 0, 0, 0, 0, 0, 0]).is_err()); // bad priority
        assert!(JobRequest::decode(&[0, 0, 0, 0, 0, 7, 0]).is_err()); // bad no_cache
        assert!(JobRequest::decode(&[0, 0, 0, 0, 0, 0, 200]).is_err()); // name truncated
    }

    #[test]
    fn update_request_roundtrip() {
        let req = UpdateRequest {
            priority: Priority::Normal,
            deadline_ms: 250,
            no_cache: false,
            schedule: "V-N1".into(),
            insertions: vec![(0, 7), (3, 2)],
            deletions: vec![(1, 1)],
            graph_bytes: vec![9, 8, 7],
        };
        let back = UpdateRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.priority, Priority::Normal);
        assert_eq!(back.deadline_ms, 250);
        assert!(!back.no_cache);
        assert_eq!(back.schedule, "V-N1");
        assert_eq!(back.insertions, vec![(0, 7), (3, 2)]);
        assert_eq!(back.deletions, vec![(1, 1)]);
        assert_eq!(back.graph_bytes, vec![9, 8, 7]);
    }

    #[test]
    fn update_request_rejects_garbage() {
        assert!(UpdateRequest::decode(b"").is_err());
        assert!(UpdateRequest::decode(&[9, 0, 0, 0, 0, 0, 0]).is_err()); // bad priority
        assert!(UpdateRequest::decode(&[0, 0, 0, 0, 0, 0, 0]).is_err()); // counts missing
        // Declared edge counts larger than the payload.
        let mut enc = UpdateRequest {
            priority: Priority::Low,
            deadline_ms: 0,
            no_cache: true,
            schedule: String::new(),
            insertions: vec![(1, 2)],
            deletions: vec![],
            graph_bytes: vec![],
        }
        .encode();
        enc.truncate(enc.len() - 4);
        assert!(UpdateRequest::decode(&enc).is_err());
    }

    #[test]
    fn update_frame_kind_roundtrips() {
        assert_eq!(FrameKind::from_u8(0x05), Some(FrameKind::Update));
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Update, b"u", 0).unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, FrameKind::Update);
        assert_eq!(payload, b"u");
    }

    #[test]
    fn job_result_roundtrip() {
        let r = JobResult {
            degraded: Some("deadline exceeded".into()),
            cache_hit: false,
            num_colors: 17,
            colors: vec![0, 3, -1, 16],
        };
        let back = JobResult::decode(&r.encode()).unwrap();
        assert_eq!(back.degraded.as_deref(), Some("deadline exceeded"));
        assert!(!back.cache_hit);
        assert_eq!(back.num_colors, 17);
        assert_eq!(back.colors, vec![0, 3, -1, 16]);
    }

    #[test]
    fn job_result_rejects_truncation() {
        let r = JobResult {
            degraded: None,
            cache_hit: true,
            num_colors: 2,
            colors: vec![0, 1, 0],
        };
        let enc = r.encode();
        for cut in 0..enc.len() {
            assert!(JobResult::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn shard_request_roundtrip_and_garbage() {
        let req = ShardRequest {
            shard: 1,
            n_shards: 4,
            owners: vec![0, 1, 2, 3, 1],
            graph_bytes: vec![5, 6, 7],
        };
        let back = ShardRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.shard, 1);
        assert_eq!(back.n_shards, 4);
        assert_eq!(back.owners, vec![0, 1, 2, 3, 1]);
        assert_eq!(back.graph_bytes, vec![5, 6, 7]);
        assert!(ShardRequest::decode(b"").is_err());
        // shard id out of range
        let bad = ShardRequest { shard: 4, ..req.clone() };
        let mut enc = bad.encode();
        assert!(ShardRequest::decode(&enc).is_err());
        // owner id out of range
        let bad = ShardRequest { owners: vec![0, 9], ..req.clone() };
        assert!(ShardRequest::decode(&bad.encode()).is_err());
        // truncated owner array
        enc = req.encode();
        enc.truncate(18);
        assert!(ShardRequest::decode(&enc).is_err());
    }

    #[test]
    fn superstep_request_roundtrip_and_garbage() {
        let req = SuperstepRequest {
            superstep: 3,
            harvest: false,
            updates: vec![(7, 0), (9, 12)],
        };
        let back = SuperstepRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.superstep, 3);
        assert!(!back.harvest);
        assert_eq!(back.updates, vec![(7, 0), (9, 12)]);
        let h = SuperstepRequest { superstep: 4, harvest: true, updates: vec![] };
        assert!(SuperstepRequest::decode(&h.encode()).unwrap().harvest);
        assert!(SuperstepRequest::decode(b"").is_err());
        let mut enc = req.encode();
        enc[4] = 9; // bad harvest byte
        assert!(SuperstepRequest::decode(&enc).is_err());
        enc = req.encode();
        enc.truncate(enc.len() - 3);
        assert!(SuperstepRequest::decode(&enc).is_err());
    }

    #[test]
    fn flush_reply_roundtrip_and_garbage() {
        let r = FlushReply {
            colored: 5,
            conflicts: 2,
            messages: vec![(0, 7, 1), (3, 9, -1)],
        };
        let back = FlushReply::decode(&r.encode()).unwrap();
        assert_eq!(back.colored, 5);
        assert_eq!(back.conflicts, 2);
        assert_eq!(back.messages, vec![(0, 7, 1), (3, 9, -1)]);
        assert!(FlushReply::decode(b"").is_err());
        let mut enc = r.encode();
        enc.truncate(enc.len() - 1);
        assert!(FlushReply::decode(&enc).is_err());
    }

    #[test]
    fn shard_frame_kinds_roundtrip() {
        assert_eq!(FrameKind::from_u8(0x06), Some(FrameKind::Shard));
        assert_eq!(FrameKind::from_u8(0x07), Some(FrameKind::Superstep));
        assert_eq!(FrameKind::from_u8(0x89), Some(FrameKind::Flush));
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Flush, b"f", 0).unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, FrameKind::Flush);
        assert_eq!(payload, b"f");
    }

    #[test]
    fn backpressure_roundtrip() {
        let enc = encode_backpressure(12, 64);
        assert_eq!(decode_backpressure(&enc).unwrap(), (12, 64));
        assert!(decode_backpressure(&enc[..5]).is_err());
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
        assert_eq!(Priority::from_u8(3), None);
    }
}
