//! The coloring daemon: listener, connection handlers, and the executor.
//!
//! Threading model (see the crate docs for the picture):
//!
//! * The **listener thread** accepts connections and spawns one detached
//!   **handler thread** per connection. Handlers parse frames with a read
//!   timeout (the slow-loris defense), answer protocol-level requests
//!   inline, and admit jobs to the bounded [`AdmissionQueue`].
//! * The **executor thread** owns the shared [`par::Pool`] and drains the
//!   queue one job at a time — the pool runs one parallel region at a
//!   time by contract, so jobs are serialized through it while each job
//!   parallelizes internally across the pool's threads.
//! * Every job runs under [`par::contain`]: a panic anywhere in the job
//!   body (including the `serve.job.panic` fail point) is contained into
//!   a `ServerError` reply and the daemon keeps serving.
//!
//! Deadlines are converted to absolute [`Instant`]s at admission, so time
//! spent queued counts against them; the runner polls the deadline and the
//! job's [`bgpc::CancelToken`] once per speculative iteration and a late
//! job degrades to its best-so-far coloring instead of disappearing.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graph::BipartiteGraph;
use sparse::LocalityOrder;

use crate::admission::{AdmissionQueue, Job, SubmitError, UpdateSeed};
use crate::cache::{CachedColoring, ResultCache};
use crate::fingerprint::csr_fingerprint;
use crate::protocol::{
    encode_backpressure, read_frame, write_frame, FrameKind, JobRequest, JobResult, ProtoError,
    ShardRequest, SuperstepRequest, UpdateRequest, DEFAULT_MAX_FRAME,
};
use crate::stats::ServeStats;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (read it back via
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Thread count of the shared coloring pool.
    pub pool_threads: usize,
    /// Admission queue bound (jobs held across all lanes).
    pub queue_capacity: usize,
    /// Frame payload cap; oversized length prefixes are rejected before
    /// allocation.
    pub max_frame: u32,
    /// Per-connection read timeout — a peer that trickles bytes slower
    /// than this is disconnected (slow-loris defense).
    pub read_timeout: Duration,
    /// Deadline applied to jobs that do not carry one; `0` disables.
    pub default_deadline_ms: u32,
    /// Result cache directory.
    pub cache_dir: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            pool_threads: 4,
            queue_capacity: 64,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_secs(10),
            default_deadline_ms: 0,
            cache_dir: std::env::temp_dir().join("bgpc-serve-cache"),
        }
    }
}

/// What the executor sends back to the waiting handler.
#[derive(Debug)]
pub enum JobReply {
    /// A finished coloring (clean or degraded).
    Result(JobResult),
    /// The graph layer rejected the pattern (terminal for the client).
    GraphError(String),
    /// A contained internal failure (retryable for the client).
    ServerError(String),
}

struct Shared {
    cfg: ServeConfig,
    queue: AdmissionQueue,
    stats: ServeStats,
    cache: ResultCache,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Cancellation token of the job currently on the pool, so shutdown
    /// can reel in an in-flight run instead of waiting it out.
    current_cancel: Mutex<Option<bgpc::CancelToken>>,
    /// Worker threads the executor's pool actually spawned (0 until the
    /// executor thread has built it). May differ from the requested
    /// `cfg.pool_threads` if the pool clamps; benchmarks stamp both.
    pool_workers: AtomicUsize,
}

/// A running daemon. Dropping it shuts it down and joins its threads.
pub struct Daemon {
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, opens the cache, and starts the listener and executor
    /// threads.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cache = ResultCache::open(&cfg.cache_dir)?;
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            stats: ServeStats::new(),
            cache,
            shutdown: AtomicBool::new(false),
            addr,
            current_cancel: Mutex::new(None),
            pool_workers: AtomicUsize::new(0),
            cfg,
        });

        let exec_shared = Arc::clone(&shared);
        let executor = std::thread::Builder::new()
            .name("serve-executor".into())
            .spawn(move || executor_loop(&exec_shared))?;

        let listen_shared = Arc::clone(&shared);
        let listener = std::thread::Builder::new()
            .name("serve-listener".into())
            .spawn(move || listener_loop(listener, &listen_shared))?;

        Ok(Daemon { shared, listener: Some(listener), executor: Some(executor) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Peak admission-queue depth (bounded-memory evidence).
    pub fn peak_queue_depth(&self) -> usize {
        self.shared.queue.peak_depth()
    }

    /// Worker threads the executor's pool actually spawned. Returns 0
    /// until the executor thread has built its pool (it does so before
    /// draining any job, so after the first completed job this is final).
    pub fn pool_workers(&self) -> usize {
        self.shared.pool_workers.load(Ordering::Relaxed)
    }

    /// Requests shutdown and joins both threads. Idempotent.
    pub fn shutdown(&mut self) {
        request_shutdown(&self.shared);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }

    /// Blocks until a client sends the `Shutdown` verb (or [`shutdown`]
    /// is called from another thread), then joins.
    ///
    /// [`shutdown`]: Daemon::shutdown
    pub fn join(mut self) {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        self.shutdown();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn request_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.close();
    if let Some(tok) = crate::sync::lock_recover(&shared.current_cancel).as_ref() {
        tok.cancel();
    }
    // Wake the accept loop so it notices the flag.
    let _ = TcpStream::connect(shared.addr);
}

fn listener_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        ServeStats::bump(&shared.stats.connections);
        let conn_shared = Arc::clone(shared);
        // Handlers are detached: they exit on connection close, read
        // timeout, protocol violation, or the shutdown flag.
        let _ = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || handle_connection(stream, &conn_shared));
    }
}

/// Best-effort frame write; a failed response write just drops the
/// connection (the client's retry layer handles it).
fn respond(stream: &mut TcpStream, kind: FrameKind, payload: &[u8]) -> bool {
    write_frame(stream, kind, payload, 0).is_ok()
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    // Sharded-coloring state: a Shard install binds a worker to this
    // connection; Superstep frames then drive it. Connection-local by
    // design — a dropped coordinator connection reclaims the shard.
    let mut shard: Option<crate::shard::ShardWorker> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Stall/panic injection point for the read path; a panic here
        // kills only this detached handler thread.
        par::faults::fire("serve.conn.stall", 0);
        let (kind, payload) = match read_frame(&mut stream, shared.cfg.max_frame) {
            Ok(f) => f,
            Err(ProtoError::Closed) => return,
            Err(ProtoError::Io(_)) => return, // timeout / reset: drop silently
            Err(e) => {
                // Protocol violation: one typed reply, then drop.
                ServeStats::bump(&shared.stats.protocol_errors);
                respond(&mut stream, FrameKind::ProtocolError, e.to_string().as_bytes());
                return;
            }
        };
        match kind {
            FrameKind::Ping => {
                if !respond(&mut stream, FrameKind::Pong, b"") {
                    return;
                }
            }
            FrameKind::Stats => {
                let text = shared.stats.render();
                if !respond(&mut stream, FrameKind::StatsReply, text.as_bytes()) {
                    return;
                }
            }
            FrameKind::Shutdown => {
                respond(&mut stream, FrameKind::Pong, b"");
                request_shutdown(shared);
                return;
            }
            FrameKind::Submit => {
                if !handle_submit(&mut stream, shared, &payload) {
                    return;
                }
            }
            FrameKind::Update => {
                if !handle_update(&mut stream, shared, &payload) {
                    return;
                }
            }
            FrameKind::Shard => {
                let req = ShardRequest::decode(&payload).map_err(|e| e.to_string());
                drop(payload);
                let install = req.and_then(|req| {
                    if req.graph_bytes.is_empty() {
                        // No graph bytes: re-install over the graph
                        // this connection already holds.
                        let worker = shard
                            .as_mut()
                            .ok_or_else(|| "re-install before any Shard install".to_string())?;
                        worker.reinstall(req.shard, req.n_shards, req.owners)?;
                        Ok(&shared.stats.shard_reuses)
                    } else {
                        // Drop the old shard first, so that two graphs
                        // are never alive at once; a failed install
                        // closes the connection anyway.
                        shard = None;
                        shard = Some(crate::shard::ShardWorker::install(req)?);
                        Ok(&shared.stats.shard_installs)
                    }
                });
                match install {
                    Ok(counter) => {
                        ServeStats::bump(counter);
                        if !respond(&mut stream, FrameKind::Pong, b"") {
                            return;
                        }
                    }
                    Err(e) => {
                        ServeStats::bump(&shared.stats.invalid_jobs);
                        respond(&mut stream, FrameKind::InvalidJob, e.as_bytes());
                        return;
                    }
                }
            }
            FrameKind::Superstep => {
                let Some(worker) = shard.as_mut() else {
                    ServeStats::bump(&shared.stats.protocol_errors);
                    respond(
                        &mut stream,
                        FrameKind::ProtocolError,
                        b"Superstep before Shard install",
                    );
                    return;
                };
                match SuperstepRequest::decode(&payload)
                    .map_err(|e| e.to_string())
                    .and_then(|req| worker.superstep(&req))
                {
                    Ok(reply) => {
                        ServeStats::bump(&shared.stats.supersteps);
                        if !respond(&mut stream, FrameKind::Flush, &reply.encode()) {
                            return;
                        }
                        // Interior/boundary overlap: the Flush frame is
                        // already on the wire, so deferred interior
                        // coloring runs while the coordinator routes
                        // boundary messages (the next Superstep frame
                        // waits in the socket buffer).
                        worker.finish_deferred();
                    }
                    Err(e) => {
                        ServeStats::bump(&shared.stats.invalid_jobs);
                        respond(&mut stream, FrameKind::InvalidJob, e.as_bytes());
                        return;
                    }
                }
            }
            // A client sending response kinds is violating the protocol.
            _ => {
                ServeStats::bump(&shared.stats.protocol_errors);
                respond(
                    &mut stream,
                    FrameKind::ProtocolError,
                    format!("unexpected frame kind {kind:?} from client").as_bytes(),
                );
                return;
            }
        }
    }
}

/// Processes one Submit; returns `false` when the connection should drop.
fn handle_submit(stream: &mut TcpStream, shared: &Arc<Shared>, payload: &[u8]) -> bool {
    let req = match JobRequest::decode(payload) {
        Ok(r) => r,
        Err(e) => {
            ServeStats::bump(&shared.stats.invalid_jobs);
            return respond(stream, FrameKind::InvalidJob, e.to_string().as_bytes());
        }
    };
    // The graph travels in the hardened checksummed format, so corrupt
    // bytes surface here as a typed decode error, not a bad coloring.
    let matrix = match sparse::bin_io::read_bin(req.graph_bytes.as_slice()) {
        Ok(m) => m,
        Err(e) => {
            ServeStats::bump(&shared.stats.invalid_jobs);
            return respond(
                stream,
                FrameKind::InvalidJob,
                format!("graph payload: {e}").as_bytes(),
            );
        }
    };
    let Some(schedule) = job_schedule(&req.schedule) else {
        ServeStats::bump(&shared.stats.invalid_jobs);
        return respond(
            stream,
            FrameKind::InvalidJob,
            format!("unknown schedule {:?}", req.schedule).as_bytes(),
        );
    };

    let fingerprint = csr_fingerprint(&matrix);
    if !req.no_cache {
        if let Some(hit) = shared.cache.get(fingerprint) {
            ServeStats::bump(&shared.stats.cache_hits);
            ServeStats::bump(&shared.stats.completed);
            let result = JobResult {
                degraded: None,
                cache_hit: true,
                num_colors: hit.num_colors,
                colors: hit.colors,
            };
            return respond(stream, FrameKind::Result, &result.encode());
        }
    }

    let deadline = resolve_deadline(shared, req.deadline_ms);
    let (tx, rx): (_, Receiver<JobReply>) = channel();
    let job = Job {
        priority: req.priority,
        deadline,
        no_cache: req.no_cache,
        schedule,
        matrix,
        fingerprint,
        seed: None,
        reply: tx,
    };
    admit_and_reply(stream, shared, job, rx, false)
}

/// The schedule a job names; an empty name means N1-N2.
fn job_schedule(name: &str) -> Option<bgpc::Schedule> {
    if name.is_empty() {
        Some(bgpc::Schedule::n1_n2())
    } else {
        bgpc::Schedule::from_name(name)
    }
}

/// Converts the wire's relative deadline (with the daemon default as
/// fallback) into an absolute instant at admission time.
fn resolve_deadline(shared: &Shared, deadline_ms: u32) -> Option<Instant> {
    let deadline_ms = if deadline_ms != 0 {
        deadline_ms
    } else {
        shared.cfg.default_deadline_ms
    };
    (deadline_ms != 0).then(|| Instant::now() + Duration::from_millis(deadline_ms as u64))
}

/// Admits `job`, waits for the executor's reply and writes the response
/// frame. `reused` marks a reply whose run was seeded from a reused cache
/// entry (the incremental update path) — the wire result is flagged as a
/// cache hit so clients can observe entry reuse.
fn admit_and_reply(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    job: Job,
    rx: Receiver<JobReply>,
    reused: bool,
) -> bool {
    match shared.queue.try_submit(job) {
        Ok(()) => ServeStats::bump(&shared.stats.submitted),
        Err(SubmitError::Full { depth, capacity }) => {
            ServeStats::bump(&shared.stats.shed);
            return respond(
                stream,
                FrameKind::Backpressure,
                &encode_backpressure(depth as u32, capacity as u32),
            );
        }
        Err(SubmitError::Closed) => {
            return respond(stream, FrameKind::ServerError, b"daemon is shutting down");
        }
    }
    match rx.recv() {
        Ok(JobReply::Result(mut result)) => {
            result.cache_hit |= reused;
            respond(stream, FrameKind::Result, &result.encode())
        }
        Ok(JobReply::GraphError(msg)) => respond(stream, FrameKind::GraphError, msg.as_bytes()),
        Ok(JobReply::ServerError(msg)) => respond(stream, FrameKind::ServerError, msg.as_bytes()),
        // Executor gone (shutdown race): tell the client to retry later.
        Err(_) => respond(stream, FrameKind::ServerError, b"executor unavailable"),
    }
}

/// Processes one Update; returns `false` when the connection should drop.
///
/// The request carries the **base** graph plus an edge delta. The daemon
/// fingerprints the base, applies the delta, and picks the cheapest valid
/// path, in order:
///
/// 1. The *mutated* graph's coloring is already cached → answer straight
///    from the cache (an empty delta against a cached base always lands
///    here, since the mutated fingerprint equals the base fingerprint).
/// 2. The *base* coloring is cached → enqueue an incremental job that
///    recolors only the delta's dirty vertices, seeded from the cached
///    colors; the reply is flagged `cache_hit` because the entry was
///    reused. A clean result is stored under the mutated fingerprint, so
///    a chain of updates keeps hitting.
/// 3. Nothing cached → a full run on the mutated graph.
fn handle_update(stream: &mut TcpStream, shared: &Arc<Shared>, payload: &[u8]) -> bool {
    ServeStats::bump(&shared.stats.updates);
    let req = match UpdateRequest::decode(payload) {
        Ok(r) => r,
        Err(e) => {
            ServeStats::bump(&shared.stats.invalid_jobs);
            return respond(stream, FrameKind::InvalidJob, e.to_string().as_bytes());
        }
    };
    let base = match sparse::bin_io::read_bin(req.graph_bytes.as_slice()) {
        Ok(m) => m,
        Err(e) => {
            ServeStats::bump(&shared.stats.invalid_jobs);
            return respond(
                stream,
                FrameKind::InvalidJob,
                format!("graph payload: {e}").as_bytes(),
            );
        }
    };
    let Some(schedule) = job_schedule(&req.schedule) else {
        ServeStats::bump(&shared.stats.invalid_jobs);
        return respond(
            stream,
            FrameKind::InvalidJob,
            format!("unknown schedule {:?}", req.schedule).as_bytes(),
        );
    };
    // Delta validation is typed end to end: a malformed batch (duplicate
    // edge, insert-delete overlap, out-of-bounds endpoint, edge already
    // present / not present) is an InvalidJob, not a panic.
    let delta = match bgpc::CsrDelta::try_new(req.insertions.clone(), req.deletions.clone()) {
        Ok(d) => d,
        Err(e) => {
            ServeStats::bump(&shared.stats.invalid_jobs);
            return respond(stream, FrameKind::InvalidJob, format!("delta: {e}").as_bytes());
        }
    };
    let base_fp = csr_fingerprint(&base);
    let applied = match bgpc::apply_delta(&base, &delta) {
        Ok(a) => a,
        Err(e) => {
            ServeStats::bump(&shared.stats.invalid_jobs);
            return respond(stream, FrameKind::InvalidJob, format!("delta: {e}").as_bytes());
        }
    };
    let dirty = applied.dirty_bgpc().to_vec();
    let mutated = applied.matrix;
    let mutated_fp = csr_fingerprint(&mutated);

    let mut seed = None;
    if !req.no_cache {
        // Path 1: the mutated graph itself is cached (covers the empty
        // delta, whose mutated fingerprint equals the base fingerprint).
        if let Some(hit) = shared.cache.get(mutated_fp) {
            ServeStats::bump(&shared.stats.cache_hits);
            ServeStats::bump(&shared.stats.completed);
            let result = JobResult {
                degraded: None,
                cache_hit: true,
                num_colors: hit.num_colors,
                colors: hit.colors,
            };
            return respond(stream, FrameKind::Result, &result.encode());
        }
        // Path 2: the base coloring is cached — reuse the entry as the
        // incremental seed. The length check guards against a (content-
        // addressed, hence practically impossible) fingerprint collision
        // pairing colors with a different-sized graph.
        if let Some(hit) = shared.cache.get(base_fp) {
            if hit.colors.len() == mutated.ncols() {
                ServeStats::bump(&shared.stats.update_reseeds);
                seed = Some(UpdateSeed { base_colors: hit.colors, dirty });
            }
        }
    }

    let reused = seed.is_some();
    let deadline = resolve_deadline(shared, req.deadline_ms);
    let (tx, rx): (_, Receiver<JobReply>) = channel();
    let job = Job {
        priority: req.priority,
        deadline,
        no_cache: req.no_cache,
        schedule,
        matrix: mutated,
        fingerprint: mutated_fp,
        seed,
        reply: tx,
    };
    admit_and_reply(stream, shared, job, rx, reused)
}

fn executor_loop(shared: &Arc<Shared>) {
    let pool = par::Pool::new(shared.cfg.pool_threads.max(1));
    shared.pool_workers.store(pool.threads(), Ordering::Relaxed);
    while let Some(job) = shared.queue.pop() {
        let reply = run_job(shared, &pool, &job);
        // A send failure means the handler (and its client) went away;
        // the result is simply dropped.
        let _ = job.reply.send(reply);
    }
}

fn run_job(shared: &Arc<Shared>, pool: &par::Pool, job: &Job) -> JobReply {
    ServeStats::bump(&shared.stats.cache_misses);
    let cancel = bgpc::CancelToken::new();
    *crate::sync::lock_recover(&shared.current_cancel) = Some(cancel.clone());
    let outcome = par::contain(|| {
        // Panic injection for the job body — contained below, answered
        // with ServerError, daemon keeps serving.
        par::faults::fire("serve.job.panic", 0);
        let opts = bgpc::RunnerOpts {
            deadline: job.deadline,
            cancel: Some(cancel.clone()),
            ..bgpc::RunnerOpts::default()
        };
        // Incremental update: recolor only the dirty vertices, seeded
        // from the cached base coloring, in the base's vertex ids — dirty
        // sets are small, so the run is dominated by the seeding scan,
        // not the coloring itself.
        if let Some(seed) = &job.seed {
            let g = BipartiteGraph::try_from_matrix_owned(job.matrix.clone())
                .map_err(|e| e.to_string())?;
            let order = graph::Ordering::Natural.vertex_order_bgpc(&g);
            let r = bgpc::recolor_incremental(
                &g,
                &seed.base_colors,
                &seed.dirty,
                &order,
                &job.schedule,
                pool,
                opts,
            );
            return Ok::<_, String>((r, format!("update schedule={}", job.schedule.name())));
        }
        // Full coloring, named or default schedule alike: columns
        // relabeled by descending degree, so the natural-order run
        // colors the heaviest vertices first, then mapped back through
        // the permutation, so clients (and the cache) see original
        // vertex ids. The decoder has already validated the pattern the
        // relabel reads.
        let (pm, perm) = LocalityOrder::Degree.apply_columns(&job.matrix);
        let g = BipartiteGraph::try_from_matrix_owned(pm).map_err(|e| e.to_string())?;
        let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let mut r = bgpc::color_with_opts(&g, &order, &job.schedule, pool, opts);
        if let Some(p) = &perm {
            r.colors = sparse::unpermute(&r.colors, p);
        }
        Ok((r, format!("schedule={}", job.schedule.name())))
    });
    *crate::sync::lock_recover(&shared.current_cancel) = None;
    match outcome {
        Err(panic) => {
            ServeStats::bump(&shared.stats.worker_panics);
            JobReply::ServerError(format!("job panicked (contained): {panic}"))
        }
        Ok(Err(graph_err)) => JobReply::GraphError(graph_err),
        Ok(Ok((result, config))) => {
            ServeStats::bump(&shared.stats.completed);
            if let Some(reason) = &result.degraded {
                ServeStats::bump(&shared.stats.degraded);
                if matches!(reason, bgpc::DegradeReason::DeadlineExceeded { .. }) {
                    ServeStats::bump(&shared.stats.deadline_miss);
                }
            }
            let wire = JobResult {
                degraded: result.degraded.as_ref().map(|r| r.to_string()),
                cache_hit: false,
                num_colors: result.num_colors as u32,
                colors: result.colors.clone(),
            };
            // Only clean runs are cached: a degraded (deadline-cut)
            // coloring is valid but possibly worse than a full run, and
            // must not shadow future full runs. Store failures (e.g. the
            // write_abort fail point, a full disk) cost a future cache
            // hit, never the current job.
            if !job.no_cache && result.degraded.is_none() {
                let _ = shared.cache.put(
                    job.fingerprint,
                    &CachedColoring {
                        num_colors: result.num_colors as u32,
                        config,
                        colors: result.colors,
                    },
                );
            }
            JobReply::Result(wire)
        }
    }
}

/// Writes `addr` to `path` atomically enough for a shell `until` loop
/// (tmp + rename), so scripts can wait for the bound port of a daemon
/// started with port 0.
pub fn write_addr_file(path: &std::path::Path, addr: SocketAddr) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    writeln!(f, "{addr}")?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)
}
