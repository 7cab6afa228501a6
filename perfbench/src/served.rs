//! `serve-mixed`: an in-process daemon driven from at most two client
//! connections with a seeded request mix:
//!
//! * 70% Submit of a cached catalog pattern (Zipf-weighted): the read
//!   path, fingerprint plus cache hit;
//! * 15% Submit of a pattern the daemon has not seen: admission, a full
//!   coloring and a cache write;
//! * 15% Update with 1–10 edge mutations of a cached catalog pattern:
//!   `apply_delta`, incremental recoloring and a cache write.
//!
//! A run has two phases. The open-loop phase sends requests at a fixed
//! rate and times each from its due time, so a stall also charges the
//! requests queued behind it. The closed-loop phase then sends a fixed
//! batch as fast as the clients go, which measures the daemon's capacity.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use graph::BipartiteGraph;
use rng::Pcg32;
use serve::client::encode_graph;
use serve::{
    csr_fingerprint, ClientError, Daemon, JobOutcome, JobRequest, Priority, RetryPolicy,
    ServeClient, ServeConfig, UpdateRequest,
};
use sparse::Csr;

use crate::layers::Layers;
use crate::report::{median, p50, p95, process_cpu_s, quantile, EndToEnd, Metrics, Op};
use crate::spans::Spans;
use crate::{per_layer_metrics, set_up, Config, Outcome, Stamp};

/// Open-loop arrival rate. The closed-loop phase completes 350–720
/// requests/s on a 2-CPU host, depending on CPU steal. At 50 Hz and above, hits wait behind
/// colorings often enough that the median latency swings by a third or
/// more between runs on a host with CPU steal; at 25 Hz it holds within a
/// few percent.
const RATE_HZ: f64 = 25.0;
/// Share of `--seconds` the closed-loop batch is sized to take, at about
/// the daemon's capacity. The whole batch is always sent, so every run
/// does the same work and the CPU time per request does not depend on how
/// fast the host let the closed loop go.
const CLOSED_SHARE: f64 = 0.2;
const CLOSED_CAPACITY_HZ: f64 = 400.0;
/// Latency limit of `slo_ok_frac`, from the due time: about twice the
/// median miss, so a slower coloring core shows as misses past it.
const SLO_MS: f64 = 40.0;
/// Catalog of cached patterns and the Zipf exponent of their popularity.
const CATALOG: usize = 8;
const ZIPF_S: f64 = 1.1;
/// Request mix: each block of 20 requests holds exactly this many cached
/// Submits, unseen Submits and Updates, in seeded order, so every run and
/// both phases carry the same mix. With 60% hits the median request sat
/// on the edge between hits and slowed requests, so hits are 70% to keep
/// the median on the read path.
const MIX_BLOCK: [usize; 3] = [14, 3, 3];
/// Edge mutations per Update, inclusive.
const MUTATIONS: (usize, usize) = (1, 10);

/// A mid-size power-law pattern: nets are rows, colored vertices columns.
fn pattern(seed: u64) -> Csr {
    sparse::gen::bipartite_skewed(400, 4000, 24_000, 0.95, 1500, seed)
}

/// `(row, col)` entries of a pattern: nets are rows.
type Edges = Vec<(u32, u32)>;

enum Body {
    /// Submit of the catalog pattern with this index: a cache hit.
    Cached(usize),
    /// Submit of a pattern the daemon has not seen.
    Unseen(JobRequest),
    /// Update of a catalog pattern by an edge delta.
    Update {
        base: usize,
        insertions: Edges,
        deletions: Edges,
    },
}

impl Body {
    fn class(&self) -> &'static str {
        match self {
            Body::Cached(_) => "hit",
            Body::Unseen(_) => "miss",
            Body::Update { .. } => "update",
        }
    }
}

struct Request {
    /// Offset of the due time from the start of the open-loop phase.
    due: Duration,
    body: Body,
}

/// Every input of a run, generated from the seed before timing.
struct Inputs {
    catalog: Vec<Csr>,
    /// Submit requests of the catalog patterns.
    catalog_req: Vec<JobRequest>,
    /// The open-loop requests, then the closed-loop batch.
    requests: Vec<Request>,
    /// Number of open-loop requests.
    open: usize,
    encode_us: Vec<f64>,
}

impl Inputs {
    /// The pattern a reply to `body` must color: the one sent, or the
    /// catalog pattern with the delta applied.
    fn pattern(&self, body: &Body) -> Csr {
        match body {
            Body::Cached(p) => self.catalog[*p].clone(),
            Body::Unseen(req) => sparse::bin_io::read_bin(req.graph_bytes.as_slice())
                .expect("the benchmark encoded this pattern itself"),
            Body::Update {
                base,
                insertions,
                deletions,
            } => mutate(&self.catalog[*base], insertions, deletions),
        }
    }
}

fn submit(graph_bytes: Vec<u8>) -> JobRequest {
    JobRequest {
        priority: Priority::Normal,
        deadline_ms: 0,
        no_cache: false,
        schedule: String::new(),
        graph_bytes,
    }
}

/// The pattern `base` with `ins` added and `del` removed, built without
/// the system's own delta code so Update replies are checked independently.
fn mutate(base: &Csr, ins: &[(u32, u32)], del: &[(u32, u32)]) -> Csr {
    let mut rows: Vec<Vec<u32>> = (0..base.nrows()).map(|r| base.row(r).to_vec()).collect();
    for &(r, c) in del {
        rows[r as usize].retain(|&x| x != c);
    }
    for &(r, c) in ins {
        rows[r as usize].push(c);
    }
    Csr::from_rows(base.ncols(), &rows)
}

/// 1–10 random mutations of `base`: insertions of absent edges and
/// deletions of present ones, no edge touched twice.
fn delta(base: &Csr, rng: &mut Pcg32) -> (Edges, Edges) {
    let k = rng.gen_range(MUTATIONS.0..=MUTATIONS.1);
    let (mut ins, mut del) = (Vec::new(), Vec::new());
    while ins.len() + del.len() < k {
        let r = rng.gen_range(0..base.nrows());
        if rng.gen_bool(0.5) {
            let c = rng.gen_range(0..base.ncols()) as u32;
            if !base.contains(r, c) && !ins.contains(&(r as u32, c)) {
                ins.push((r as u32, c));
            }
        } else if base.row_len(r) > 0 {
            let row = base.row(r);
            let c = row[rng.gen_range(0..row.len())];
            if !del.contains(&(r as u32, c)) {
                del.push((r as u32, c));
            }
        }
    }
    (ins, del)
}

fn zipf_pick(rng: &mut Pcg32, cdf: &[f64]) -> usize {
    let u = rng.gen_f64() * cdf[cdf.len() - 1];
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// Generates the catalog, the request mix and the arrival schedule.
fn generate(cfg: &Config, spans: &mut Spans) -> Inputs {
    let mut rng = Pcg32::seed_from_u64(rng::split_mix64(cfg.seed ^ 0x5e_12fe));
    let mut seen = HashSet::new();
    let mut fresh_seed = cfg.seed.wrapping_mul(1_000_003);
    let mut fresh = |seen: &mut HashSet<u128>| loop {
        fresh_seed = fresh_seed.wrapping_add(1);
        let m = pattern(fresh_seed);
        if seen.insert(csr_fingerprint(&m)) {
            return m;
        }
    };
    let catalog: Vec<Csr> = spans.time("sparse.gen", 0, || {
        (0..CATALOG).map(|_| fresh(&mut seen)).collect()
    });
    let mut encode_us = Vec::new();
    let mut encode = |m: &Csr| {
        let t = Instant::now();
        let bytes = encode_graph(m);
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        bytes
    };
    let catalog_req: Vec<JobRequest> = catalog.iter().map(|m| submit(encode(m))).collect();
    let mut cdf = Vec::with_capacity(CATALOG);
    let mut acc = 0.0;
    for r in 0..CATALOG {
        acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }

    let open = (RATE_HZ * cfg.seconds * (1.0 - CLOSED_SHARE)).ceil() as usize;
    let n = open + (CLOSED_CAPACITY_HZ * cfg.seconds * CLOSED_SHARE).ceil() as usize;
    let mut due = Duration::ZERO;
    let mut requests = Vec::with_capacity(n);
    let mut block = Vec::new();
    for i in 0..n {
        if i < open {
            // Poisson arrivals: exponential gaps at the fixed rate.
            let gap = -(1.0 - rng.gen_f64()).ln() / RATE_HZ;
            due += Duration::from_secs_f64(gap);
        }
        if block.is_empty() {
            for (class, &count) in MIX_BLOCK.iter().enumerate() {
                block.extend(std::iter::repeat_n(class, count));
            }
            rng.shuffle(&mut block);
        }
        let body = match block.pop().expect("refilled above") {
            0 => Body::Cached(zipf_pick(&mut rng, &cdf)),
            1 => {
                let m = spans.time("sparse.gen", 0, || fresh(&mut seen));
                Body::Unseen(submit(encode(&m)))
            }
            _ => {
                let base = zipf_pick(&mut rng, &cdf);
                loop {
                    let (insertions, deletions) = delta(&catalog[base], &mut rng);
                    let m = mutate(&catalog[base], &insertions, &deletions);
                    if seen.insert(csr_fingerprint(&m)) {
                        break Body::Update {
                            base,
                            insertions,
                            deletions,
                        };
                    }
                }
            }
        };
        requests.push(Request { due, body });
    }
    Inputs {
        catalog,
        catalog_req,
        requests,
        open,
        encode_us,
    }
}

/// One answered (or refused) request.
struct Reply {
    idx: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    result: Result<JobOutcome, ClientError>,
}

/// Sends one request. `updates` holds this client's Update request per
/// catalog pattern; only its delta changes between sends.
fn send(
    client: &mut ServeClient,
    inputs: &Inputs,
    updates: &mut [UpdateRequest],
    body: &Body,
) -> Result<JobOutcome, ClientError> {
    match body {
        Body::Cached(p) => client.submit(&inputs.catalog_req[*p]),
        Body::Unseen(req) => client.submit(req),
        Body::Update {
            base,
            insertions,
            deletions,
        } => {
            let req = &mut updates[*base];
            req.insertions.clone_from(insertions);
            req.deletions.clone_from(deletions);
            client.update(req)
        }
    }
}

fn retry_policy(seed: u64, client: usize) -> RetryPolicy {
    RetryPolicy {
        jitter_seed: rng::split_mix64(seed ^ client as u64),
        ..RetryPolicy::default()
    }
}

/// Whether request `idx` records spans: in a traced run every other
/// open-loop request does, so traced and untraced requests share the same
/// load. The closed-loop batch is never traced.
fn traced(cfg: &Config, inputs: &Inputs, idx: usize) -> bool {
    cfg.trace && idx < inputs.open && idx % 2 == 1
}

/// Sends the open-loop requests (`closed == false`) or the closed-loop
/// batch from `cfg.threads` connections and collects the replies, sorted
/// by request. Open loop: each request goes out at its due time, or as
/// soon as a client is free. Closed loop: each client sends its next
/// request when the last one is answered. Returns the replies, the spans
/// and the start.
fn drive(addr: &str, cfg: &Config, inputs: &Inputs, closed: bool) -> (Vec<Reply>, Spans, Instant) {
    let requests = &inputs.requests;
    let (first, end) = if closed {
        (inputs.open, requests.len())
    } else {
        (0, inputs.open)
    };
    let next = AtomicUsize::new(first);
    let replies = Mutex::new(Vec::with_capacity(end - first));
    let spans = Mutex::new(Spans::new(cfg.trace, cfg.origin));
    let mut updates: Vec<Vec<UpdateRequest>> = (0..cfg.threads)
        .map(|_| {
            let update = |req: &JobRequest| UpdateRequest {
                priority: req.priority,
                deadline_ms: req.deadline_ms,
                no_cache: req.no_cache,
                schedule: req.schedule.clone(),
                insertions: Vec::new(),
                deletions: Vec::new(),
                graph_bytes: req.graph_bytes.clone(),
            };
            inputs.catalog_req.iter().map(update).collect()
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (c, mut updates) in updates.drain(..).enumerate() {
            let (next, replies, spans) = (&next, &replies, &spans);
            s.spawn(move || {
                let mut client = ServeClient::new(addr, retry_policy(cfg.seed, c));
                let mut mine = Vec::new();
                let mut my_spans = Spans::new(cfg.trace, cfg.origin);
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= end {
                        break;
                    }
                    let req = &requests[idx];
                    my_spans.set_enabled(traced(cfg, inputs, idx));
                    let due = if closed {
                        Instant::now()
                    } else {
                        let due = start + req.due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        due
                    };
                    let op = idx as u64;
                    let sent = Instant::now();
                    my_spans.record("loadgen.wait", op, due, sent);
                    let root = my_spans.open("op", op);
                    let name = match req.body {
                        Body::Update { .. } => "serve.update",
                        _ => "serve.submit",
                    };
                    let result = my_spans.time(name, op, || {
                        send(&mut client, inputs, &mut updates, &req.body)
                    });
                    my_spans.close(root);
                    mine.push(Reply {
                        idx,
                        due,
                        sent,
                        done: Instant::now(),
                        result,
                    });
                }
                replies
                    .lock()
                    .expect("no client thread panics while holding it")
                    .extend(mine);
                spans
                    .lock()
                    .expect("no client thread panics while holding it")
                    .absorb(my_spans);
            });
        }
    });
    let mut replies = replies.into_inner().expect("client threads joined");
    replies.sort_by_key(|r| r.idx);
    (
        replies,
        spans.into_inner().expect("client threads joined"),
        start,
    )
}

/// Checks every reply against the pattern it must color. Returns the ops
/// (latency from the due time) and the number of invalid colorings.
fn verify(inputs: &Inputs, replies: &[Reply]) -> (Vec<Op>, usize) {
    let mut catalog: HashMap<usize, BipartiteGraph> = HashMap::new();
    let mut invalid = 0;
    let ops = replies
        .iter()
        .map(|r| {
            let ms = r.done.duration_since(r.due).as_secs_f64() * 1e3;
            let out = match &r.result {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("perfbench: request {} failed: {e}", r.idx);
                    return Op {
                        ms,
                        colors: 0,
                        failed: true,
                        degraded: false,
                    };
                }
            };
            let body = &inputs.requests[r.idx].body;
            let built;
            let g = match body {
                Body::Cached(p) => catalog
                    .entry(*p)
                    .or_insert_with(|| BipartiteGraph::from_matrix(&inputs.catalog[*p])),
                _ => {
                    built = BipartiteGraph::from_matrix_owned(inputs.pattern(body));
                    &built
                }
            };
            let mut check = bgpc::verify::verify_bgpc(g, &out.colors);
            let distinct = bgpc::metrics::count_distinct_colors(&out.colors);
            if check.is_ok() && distinct != out.num_colors as usize {
                check = Err(format!(
                    "reply says {} colors, coloring has {distinct}",
                    out.num_colors
                ));
            }
            if let Err(e) = &check {
                eprintln!("perfbench: request {}: invalid coloring: {e}", r.idx);
                invalid += 1;
            }
            Op {
                ms,
                colors: out.num_colors as usize,
                failed: check.is_err(),
                degraded: out.degraded.is_some(),
            }
        })
        .collect();
    (ops, invalid)
}

fn dir_mb(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    bytes as f64 / (1024.0 * 1024.0)
}

struct Setup {
    inputs: Inputs,
    daemon: Daemon,
    cache_dir: std::path::PathBuf,
    gen_ms: f64,
    prime_invalid: usize,
}

fn setup(cfg: &Config, spans: &mut Spans, k: usize) -> Setup {
    let root = spans.open("setup", 0);
    let t = Instant::now();
    let inputs = generate(cfg, spans);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let cache_dir = cfg.out_dir.join(format!("serve-cache-{k}"));
    let daemon = spans.time("serve.daemon_start", 0, || {
        Daemon::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            pool_threads: cfg.threads,
            cache_dir: cache_dir.clone(),
            ..ServeConfig::default()
        })
        .expect("daemon starts on loopback")
    });
    // Prime the cache with the catalog, checking each coloring.
    let addr = daemon.local_addr().to_string();
    let mut client = ServeClient::new(addr, retry_policy(cfg.seed, usize::MAX));
    let mut prime_invalid = 0;
    spans.time("serve.prime", 0, || {
        for p in 0..CATALOG {
            let req = &inputs.catalog_req[p];
            let g = BipartiteGraph::from_matrix(&inputs.catalog[p]);
            match client
                .submit(req)
                .map_err(|e| e.to_string())
                .and_then(|out| bgpc::verify::verify_bgpc(&g, &out.colors))
            {
                Ok(()) => {}
                Err(e) => {
                    eprintln!("perfbench: priming catalog pattern {p}: {e}");
                    prime_invalid += 1;
                }
            }
        }
    });
    spans.close(root);
    Setup {
        inputs,
        daemon,
        cache_dir,
        gen_ms,
        prime_invalid,
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut spans = Spans::new(cfg.trace, cfg.origin);
    let (
        Setup {
            inputs,
            mut daemon,
            cache_dir,
            gen_ms,
            prime_invalid,
        },
        setup_s,
    ) = set_up(cfg, |k| setup(cfg, &mut spans, k));
    let addr = daemon.local_addr().to_string();
    let stamp = Stamp {
        pool_threads: daemon.pool_workers(),
        clients: cfg.threads,
        ..Stamp::default()
    };

    let cpu = process_cpu_s();
    let (open, client_spans, _) = drive(&addr, cfg, &inputs, false);
    let (closed, _, closed_start) = drive(&addr, cfg, &inputs, true);
    let cpu_s = process_cpu_s() - cpu;
    spans.absorb(client_spans);
    let closed_s = closed
        .iter()
        .map(|r| r.done.duration_since(closed_start).as_secs_f64())
        .fold(0.0, f64::max);
    println!(
        "# closed loop: {} requests in {closed_s:.3} s",
        closed.len()
    );
    let (t_replies, u_replies): (Vec<Reply>, Vec<Reply>) = open
        .into_iter()
        .chain(closed)
        .partition(|r| traced(cfg, &inputs, r.idx));
    let (u_ops, u_invalid) = verify(&inputs, &u_replies);
    // Open-loop requests come first; their latency runs from the due time.
    let open_ops = &u_ops[..u_replies.partition_point(|r| r.idx < inputs.open)];

    if !cfg.trace {
        let mut metrics = Metrics::default();
        EndToEnd {
            setup_s: &setup_s,
            ops: &u_ops,
            cpu_s,
            timed_ops: open_ops,
            slo_ms: SLO_MS,
        }
        .report(&mut metrics);
        let stats = daemon.stats().snapshot();
        println!(
            "# daemon {}",
            stats
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        daemon.shutdown();
        let invalid = prime_invalid + u_invalid;
        return Outcome {
            correct: invalid == 0,
            attempted: u_ops.len(),
            failed: u_ops.iter().filter(|o| o.failed).count(),
            metrics,
            spans,
            stamp,
        };
    }

    let (t_ops, t_invalid) = verify(&inputs, &t_replies);
    let closed_n = u_replies.len() - open_ops.len();

    let mut l = Layers::default();
    l.set("sparse.gen_ms", gen_ms);
    l.set("serve.encode_us", median(&inputs.encode_us));
    let service_p50 = |class: &str| {
        let ms: Vec<f64> = u_replies
            .iter()
            .filter(|r| r.result.is_ok() && inputs.requests[r.idx].body.class() == class)
            .map(|r| r.done.duration_since(r.sent).as_secs_f64() * 1e3)
            .collect();
        median(&ms)
    };
    l.set("serve.hit_ms_p50", service_p50("hit"));
    l.set("serve.miss_ms_p50", service_p50("miss"));
    l.set("serve.update_ms_p50", service_p50("update"));
    let all = u_replies.iter().chain(&t_replies);
    let outcomes: Vec<&JobOutcome> = all.clone().filter_map(|r| r.result.as_ref().ok()).collect();
    let hits = outcomes.iter().filter(|o| o.cache_hit).count();
    l.set("serve.hit_frac", hits as f64 / outcomes.len().max(1) as f64);
    l.set(
        "serve.retries",
        outcomes
            .iter()
            .map(|o| o.attempts.saturating_sub(1) as f64)
            .sum(),
    );
    l.set(
        "serve.shed",
        daemon.stats().shed.load(Ordering::Relaxed) as f64,
    );
    l.set("serve.queue_peak", daemon.peak_queue_depth() as f64);
    l.set("serve.cache_mb", dir_mb(&cache_dir));
    let late: Vec<f64> = all
        .clone()
        .filter(|r| r.idx < inputs.open)
        .map(|r| r.sent.duration_since(r.due).as_secs_f64() * 1e3)
        .collect();
    l.set("loadgen.late_ms_p95", quantile(&late, 0.95));
    let span_s = inputs.requests[inputs.open - 1].due.as_secs_f64();
    l.set("loadgen.offered_hz", inputs.open as f64 / span_s.max(1e-9));
    l.set_overhead(p50(open_ops), p50(&t_ops));
    l.set("op_ms_p50", p50(open_ops));
    l.set("op_ms_p95", p95(open_ops));
    l.set("ops_per_s", closed_n as f64 / closed_s.max(1e-9));

    daemon.shutdown();
    let invalid = prime_invalid + u_invalid + t_invalid;
    Outcome {
        correct: invalid == 0,
        attempted: u_ops.len() + t_ops.len(),
        failed: u_ops.iter().chain(&t_ops).filter(|o| o.failed).count(),
        metrics: per_layer_metrics(&l),
        spans,
        stamp,
    }
}
