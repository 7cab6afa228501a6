//! End-to-end coloring benchmark: per-schedule wall times plus a
//! forbidden-set micro comparison, emitted as `BENCH_coloring.json`.
//!
//! Modes (mutually exclusive, `--quick` is the `scripts/bench.sh`
//! default):
//!
//! * `--smoke` — one tiny instance, one repetition; exercises the whole
//!   pipeline in seconds (used by `scripts/verify.sh` to assert the JSON
//!   output parses and every coloring verifies).
//! * `--quick` — the three BGPC instances and one D2GC instance at small
//!   scale, threads {1, 4}, 3 repetitions.
//! * (no flag) — full mode: larger scale, threads {1, 2, 4, 8},
//!   5 repetitions.
//!
//! `--out PATH` overrides the output path. Every measured coloring is
//! verified; any invalid coloring aborts with a nonzero exit.
//!
//! The report always carries `oracle_best` — the fastest swept config per
//! (problem, dataset, threads) cell, which `fit_engine` fits the decision
//! table from. `--autotune` additionally measures the engine-chosen config
//! per cell (online tuner attached) and records its time ratio against the
//! oracle best, plus the geometric mean over all cells.
//!
//! `--delta` adds the incremental-update axis: batches of 1/10/100/1000
//! edge mutations against the power-law analogue, timed as
//! `apply_delta` + dirty-set recolor (seeded from the base coloring)
//! versus a from-scratch recolor of the mutated graph, for both BGPC and
//! D2GC. Records land in the report's `delta` section.

use std::time::Instant;

use bench::json::to_string_pretty;
use bench::to_json_struct;
use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{
    BitStampSet, CsrDelta, Engine, EngineConfig, ForbiddenSet, KernelImpl, OnlineTuner,
    RunnerOpts, Schedule, StampSet,
};
use graph::{BipartiteGraph, Graph, Ordering};
use par::{Pool, Sched};
use sparse::{Csr, CsrIndex, Dataset, IndexWidth, LocalityOrder};

/// Micro comparison row: dense first-fit cost per call.
struct MicroRecord {
    /// Interval width (colors 0..colors−1 forbidden except the last).
    colors: usize,
    stamp_ns: f64,
    bitstamp_ns: f64,
    /// `stamp_ns / bitstamp_ns` — > 1 means the word-packed set wins.
    speedup: f64,
}
to_json_struct!(MicroRecord {
    colors,
    stamp_ns,
    bitstamp_ns,
    speedup
});

/// Kernel micro row: dense first-fit on the same `BitStampSet`, scalar
/// word loop vs the runtime-dispatched vector sweep.
struct MicroKernelRecord {
    /// Interval width (colors 0..colors−1 forbidden except the last).
    colors: usize,
    /// Resolved vector kernel the `simd` request dispatched to.
    kernel: String,
    scalar_ns: f64,
    simd_ns: f64,
    /// `scalar_ns / simd_ns` — > 1 means the vector sweep wins.
    speedup: f64,
}
to_json_struct!(MicroKernelRecord {
    colors,
    kernel,
    scalar_ns,
    simd_ns,
    speedup
});

/// One end-to-end schedule measurement.
struct ScheduleRecord {
    problem: String,
    dataset: String,
    schedule: String,
    /// Worker-thread count the sweep *requested* for this cell.
    threads: usize,
    /// Worker-thread count the pool actually spawned (can differ when the
    /// pool clamps the request; a warning is printed when it does).
    pool_workers: usize,
    set_impl: String,
    /// Row-pointer width the run used (`u32` or `u64`).
    index_width: String,
    /// Locality relabeling applied before coloring (`none`/`degree`/`bfs`).
    order: String,
    /// Chunk-scheduling policy (`dynamic` or `steal`).
    sched: String,
    /// Forbidden-set kernel request (`scalar`/`simd`/`auto`).
    kernel: String,
    /// Minimum wall time over the repetitions, milliseconds.
    time_ms: f64,
    num_colors: usize,
    rounds: usize,
    verified: bool,
}
to_json_struct!(ScheduleRecord {
    problem,
    dataset,
    schedule,
    threads,
    pool_workers,
    set_impl,
    index_width,
    order,
    sched,
    kernel,
    time_ms,
    num_colors,
    rounds,
    verified
});

/// Per-cell oracle: the fastest config the sweep measured for one
/// (problem, dataset, threads) cell — the bar `--autotune` is judged
/// against. Always emitted, so later fits can reuse any report.
struct OracleRecord {
    problem: String,
    dataset: String,
    threads: usize,
    /// Winning config in the engine table's config syntax.
    config: String,
    time_ms: f64,
}
to_json_struct!(OracleRecord {
    problem,
    dataset,
    threads,
    config,
    time_ms
});

/// One `--autotune` measurement: the engine picks the whole config from
/// instance features, the run is measured like any sweep cell, and the
/// result is compared against the cell's oracle best.
struct AutotuneRecord {
    problem: String,
    dataset: String,
    threads: usize,
    pool_workers: usize,
    /// Fully resolved engine choice, in table config syntax.
    config: String,
    /// Table row the choice came from (`point:<tag>` or `default`).
    matched: String,
    time_ms: f64,
    /// Oracle-best time for the same cell (`null` when the sweep had no
    /// record for it).
    oracle_ms: Option<f64>,
    /// `time_ms / oracle_ms` — ≤ 1.05 is the acceptance bar.
    ratio: Option<f64>,
    /// Online tuner actions taken during the fastest repetition.
    actions: Vec<String>,
    num_colors: usize,
    rounds: usize,
    verified: bool,
}
to_json_struct!(AutotuneRecord {
    problem,
    dataset,
    threads,
    pool_workers,
    config,
    matched,
    time_ms,
    oracle_ms,
    ratio,
    actions,
    num_colors,
    rounds,
    verified
});

/// One `--delta` measurement: a batch of edge mutations against the
/// power-law analogue, answered two ways — incrementally (apply the delta
/// and recolor only the dirty set, seeded from the base coloring) and from
/// scratch on the mutated graph. Both colorings are verified against the
/// mutated graph.
struct DeltaRecord {
    problem: String,
    dataset: String,
    threads: usize,
    /// Edge mutations in the batch (insertions plus deletions; D2GC counts
    /// undirected edges, each applied in both orientations).
    batch: usize,
    /// Dirty vertices the batch produced (the seeded work queue's size).
    dirty: usize,
    /// `apply_delta` + seeded dirty-set recolor, minimum over reps, ms.
    update_ms: f64,
    /// From-scratch recolor of the mutated graph, minimum over reps, ms.
    full_ms: f64,
    /// `full_ms / update_ms` — > 1 means the incremental path wins.
    speedup: f64,
    /// Colors of the incremental coloring (bounded by
    /// `max(full base colors, Δ₂ + 1)`; see `bgpc::incremental`).
    update_colors: usize,
    /// Colors of the from-scratch coloring of the mutated graph.
    full_colors: usize,
    verified: bool,
}
to_json_struct!(DeltaRecord {
    problem,
    dataset,
    threads,
    batch,
    dirty,
    update_ms,
    full_ms,
    speedup,
    update_colors,
    full_colors,
    verified
});

/// Pre-rendered JSON embedded verbatim — used to splice the trace crate's
/// [`trace::RunSummary::to_json`] output into the report without teaching
/// the bench JSON layer about its types.
struct RawJson(String);

impl bench::json::ToJson for RawJson {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

struct BenchReport {
    mode: String,
    scale: f64,
    seed: u64,
    reps: usize,
    /// Git SHA of the measured tree (`BENCH_GIT_SHA`, set by
    /// `scripts/bench.sh`; `unknown` when run by hand).
    git_sha: String,
    /// Host the numbers came from (`BENCH_HOSTNAME` / `HOSTNAME`).
    hostname: String,
    /// Hardware threads available on the host.
    host_threads: usize,
    /// Worker-thread counts the sweep requested (`threads` axis). Compare
    /// with `host_threads` and the per-record `pool_workers` to spot
    /// oversubscribed or clamped cells.
    requested_threads: Vec<usize>,
    /// ISA feature set the simd dispatcher detected (`sse2,avx2`, `sse2`,
    /// or `scalar` off x86-64).
    isa: String,
    /// Whether the measurement pools were pinned core-major (`--pin` and
    /// the affinity syscall succeeded).
    pinned: bool,
    micro: Vec<MicroRecord>,
    /// Scalar vs vector first-fit on the word-packed set.
    micro_kernel: Vec<MicroKernelRecord>,
    schedules: Vec<ScheduleRecord>,
    /// Fastest swept config per (problem, dataset, threads) cell.
    oracle_best: Vec<OracleRecord>,
    /// Engine-chosen runs (`--autotune`; empty otherwise).
    autotune: Vec<AutotuneRecord>,
    /// Geometric mean of the autotune/oracle time ratios (`null` without
    /// `--autotune` or when no cell had an oracle record).
    autotune_geomean: Option<f64>,
    /// Incremental-update measurements (`--delta`; empty otherwise).
    delta: Vec<DeltaRecord>,
    /// Structured per-thread summary of the `--trace` run (`null` when
    /// tracing was not requested).
    trace: Option<RawJson>,
}
to_json_struct!(BenchReport {
    mode,
    scale,
    seed,
    reps,
    git_sha,
    hostname,
    host_threads,
    requested_threads,
    isa,
    pinned,
    micro,
    micro_kernel,
    schedules,
    oracle_best,
    autotune,
    autotune_geomean,
    delta,
    trace
});

const SEED: u64 = 20170814;

fn dense<F: ForbiddenSet>(colors: usize) -> F {
    let mut fb = F::with_capacity(colors);
    fb.advance();
    for c in 0..colors as i32 - 1 {
        fb.insert(c);
    }
    fb
}

/// Times `reps` first-fit calls on `fb`, returning nanoseconds per call
/// (minimum over `samples` timed batches).
fn time_first_fit<F: ForbiddenSet>(fb: &F, reps: usize, samples: usize) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0i64;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..reps {
            sink += fb.first_fit_from(0) as i64;
        }
        best = best.min(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    std::hint::black_box(sink);
    best
}

fn micro_section(samples: usize) -> Vec<MicroRecord> {
    let reps = 2000usize;
    [256usize, 1024, 4096]
        .iter()
        .map(|&colors| {
            let stamp: StampSet = dense(colors);
            let bits: BitStampSet = dense(colors);
            let stamp_ns = time_first_fit(&stamp, reps, samples);
            let bitstamp_ns = time_first_fit(&bits, reps, samples);
            MicroRecord {
                colors,
                stamp_ns,
                bitstamp_ns,
                speedup: stamp_ns / bitstamp_ns,
            }
        })
        .collect()
}

/// Scalar vs vector first-fit on the same dense `BitStampSet`: every
/// word up to the last is saturated, so the sweep scans the whole array
/// before finding color `colors − 1` — the kernel's worst (and most
/// representative) case on dense-net instances.
fn micro_kernel_section(samples: usize) -> Vec<MicroKernelRecord> {
    let reps = 2000usize;
    let resolved = KernelImpl::Simd.resolve();
    [256usize, 1024, 4096]
        .iter()
        .map(|&colors| {
            let mut fb: BitStampSet = dense(colors);
            fb.set_kernel(KernelImpl::Scalar);
            let scalar_ns = time_first_fit(&fb, reps, samples);
            fb.set_kernel(KernelImpl::Simd);
            let simd_ns = time_first_fit(&fb, reps, samples);
            MicroKernelRecord {
                colors,
                kernel: resolved.label().into(),
                scalar_ns,
                simd_ns,
                speedup: scalar_ns / simd_ns,
            }
        })
        .collect()
}

/// Runs one schedule `reps` times with forbidden-set `F`, verifying every
/// run; returns the record with the minimum wall time.
#[allow(clippy::too_many_arguments)]
fn run_bgpc<F: ForbiddenSet, I: CsrIndex>(
    g: &BipartiteGraph<I>,
    order: &[u32],
    dataset: &str,
    schedule: &Schedule,
    pool: &Pool,
    threads: usize,
    set_impl: &str,
    reps: usize,
) -> ScheduleRecord {
    let mut best_ms = f64::INFINITY;
    let mut num_colors = 0;
    let mut rounds = 0;
    for _ in 0..reps {
        let r = bgpc::color_with_set::<F, _>(g, order, schedule, pool, RunnerOpts::default());
        if let Err(e) = verify_bgpc(g, &r.colors) {
            eprintln!(
                "FATAL: invalid BGPC coloring ({dataset}, {}, {threads}t, {set_impl}): {e}",
                schedule.name()
            );
            std::process::exit(1);
        }
        let ms = r.total_time.as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            num_colors = r.num_colors;
            rounds = r.rounds();
        }
    }
    ScheduleRecord {
        problem: "BGPC".into(),
        dataset: dataset.into(),
        schedule: schedule.name(),
        threads,
        pool_workers: pool.threads(),
        set_impl: set_impl.into(),
        index_width: I::LABEL.into(),
        order: "none".into(),
        sched: schedule.sched.label().into(),
        kernel: schedule.kernel.label().into(),
        time_ms: best_ms,
        num_colors,
        rounds,
        verified: true,
    }
}

/// One axis-sweep measurement: colors the relabeled pattern `pm` at width
/// `I`, maps the coloring back through `perm`, and verifies it against the
/// *original* graph — the sweep cannot report a fast-but-wrong relabeled
/// run. Uses the runner's per-instance forbidden-set dispatch.
#[allow(clippy::too_many_arguments)]
fn axis_record_bgpc<I: CsrIndex>(
    pm: &Csr<I>,
    g0: &BipartiteGraph,
    perm: &Option<Vec<u32>>,
    dataset: &str,
    schedule: &Schedule,
    pool: &Pool,
    threads: usize,
    relabel: LocalityOrder,
    reps: usize,
) -> ScheduleRecord {
    let g = BipartiteGraph::from_matrix(pm);
    let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let mut best_ms = f64::INFINITY;
    let mut num_colors = 0;
    let mut rounds = 0;
    for _ in 0..reps {
        let r = bgpc::color_bgpc(&g, &order, schedule, pool);
        let colors = match perm {
            Some(p) => sparse::unpermute(&r.colors, p),
            None => r.colors.clone(),
        };
        if let Err(e) = verify_bgpc(g0, &colors) {
            eprintln!(
                "FATAL: invalid BGPC axis coloring ({dataset}, {}, {threads}t, {}, {}, {}): {e}",
                schedule.name(),
                I::LABEL,
                relabel.label(),
                schedule.sched,
            );
            std::process::exit(1);
        }
        let ms = r.total_time.as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            num_colors = r.num_colors;
            rounds = r.rounds();
        }
    }
    ScheduleRecord {
        problem: "BGPC".into(),
        dataset: dataset.into(),
        schedule: schedule.name(),
        threads,
        pool_workers: pool.threads(),
        set_impl: "auto".into(),
        index_width: I::LABEL.into(),
        order: relabel.label().into(),
        sched: schedule.sched.label().into(),
        kernel: schedule.kernel.label().into(),
        time_ms: best_ms,
        num_colors,
        rounds,
        verified: true,
    }
}

/// D2GC analogue of [`axis_record_bgpc`] over the symmetric relabeling.
#[allow(clippy::too_many_arguments)]
fn axis_record_d2gc<I: CsrIndex>(
    pm: &Csr<I>,
    g0: &Graph,
    perm: &Option<Vec<u32>>,
    dataset: &str,
    schedule: &Schedule,
    pool: &Pool,
    threads: usize,
    relabel: LocalityOrder,
    reps: usize,
) -> ScheduleRecord {
    let g = Graph::from_symmetric_matrix(pm);
    let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let mut best_ms = f64::INFINITY;
    let mut num_colors = 0;
    let mut rounds = 0;
    for _ in 0..reps {
        let r = bgpc::d2gc::color_d2gc(&g, &order, schedule, pool);
        let colors = match perm {
            Some(p) => sparse::unpermute(&r.colors, p),
            None => r.colors.clone(),
        };
        if let Err(e) = verify_d2gc(g0, &colors) {
            eprintln!(
                "FATAL: invalid D2GC axis coloring ({dataset}, {}, {threads}t, {}, {}, {}): {e}",
                schedule.name(),
                I::LABEL,
                relabel.label(),
                schedule.sched,
            );
            std::process::exit(1);
        }
        let ms = r.total_time.as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            num_colors = r.num_colors;
            rounds = r.rounds();
        }
    }
    ScheduleRecord {
        problem: "D2GC".into(),
        dataset: dataset.into(),
        schedule: schedule.name(),
        threads,
        pool_workers: pool.threads(),
        set_impl: "auto".into(),
        index_width: I::LABEL.into(),
        order: relabel.label().into(),
        sched: schedule.sched.label().into(),
        kernel: schedule.kernel.label().into(),
        time_ms: best_ms,
        num_colors,
        rounds,
        verified: true,
    }
}

fn run_d2gc(
    g: &Graph,
    order: &[u32],
    dataset: &str,
    schedule: &Schedule,
    pool: &Pool,
    threads: usize,
    reps: usize,
) -> ScheduleRecord {
    let mut best_ms = f64::INFINITY;
    let mut num_colors = 0;
    let mut rounds = 0;
    for _ in 0..reps {
        let r = bgpc::d2gc::color_d2gc(g, order, schedule, pool);
        if let Err(e) = verify_d2gc(g, &r.colors) {
            eprintln!(
                "FATAL: invalid D2GC coloring ({dataset}, {}, {threads}t): {e}",
                schedule.name()
            );
            std::process::exit(1);
        }
        let ms = r.total_time.as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            num_colors = r.num_colors;
            rounds = r.rounds();
        }
    }
    ScheduleRecord {
        problem: "D2GC".into(),
        dataset: dataset.into(),
        schedule: schedule.name(),
        threads,
        pool_workers: pool.threads(),
        set_impl: "BitStampSet".into(),
        index_width: "u32".into(),
        order: "none".into(),
        sched: schedule.sched.label().into(),
        kernel: schedule.kernel.label().into(),
        time_ms: best_ms,
        num_colors,
        rounds,
        verified: true,
    }
}

/// Renders a sweep record's configuration in the engine table's config
/// syntax, so `fit_engine` and the autotune comparison speak one format.
fn record_config(r: &ScheduleRecord) -> String {
    let forbidden = match r.set_impl.as_str() {
        "BitStampSet" => "bitstamp",
        "StampSet" => "stamp",
        _ => "auto",
    };
    format!(
        "schedule={} sched={} width={} relabel={} kernel={} forbidden={}",
        r.schedule, r.sched, r.index_width, r.order, r.kernel, forbidden
    )
}

/// Folds the sweep down to the fastest config per (problem, dataset,
/// threads) cell. Ties keep the first record, so the output is a
/// deterministic function of the sweep order.
fn oracle_section(schedules: &[ScheduleRecord]) -> Vec<OracleRecord> {
    let mut best: Vec<OracleRecord> = Vec::new();
    for r in schedules {
        match best
            .iter_mut()
            .find(|o| o.problem == r.problem && o.dataset == r.dataset && o.threads == r.threads)
        {
            Some(o) => {
                if r.time_ms < o.time_ms {
                    o.time_ms = r.time_ms;
                    o.config = record_config(r);
                }
            }
            None => best.push(OracleRecord {
                problem: r.problem.clone(),
                dataset: r.dataset.clone(),
                threads: r.threads,
                config: record_config(r),
                time_ms: r.time_ms,
            }),
        }
    }
    best
}

/// Measures one engine-chosen BGPC cell: `reps` runs of the resolved
/// config (online tuner attached) on the relabeled pattern, every run
/// verified against the original graph. Returns (best ms, colors, rounds,
/// tuner actions of the fastest rep).
fn autotune_bgpc<I: CsrIndex>(
    pm: &Csr<I>,
    g0: &BipartiteGraph,
    perm: &Option<Vec<u32>>,
    cfg: &EngineConfig,
    dataset: &str,
    pool: &Pool,
    reps: usize,
) -> (f64, usize, usize, Vec<String>) {
    let g = BipartiteGraph::from_matrix(pm);
    let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let mut best_ms = f64::INFINITY;
    let mut num_colors = 0;
    let mut rounds = 0;
    let mut actions = Vec::new();
    for _ in 0..reps {
        let opts = RunnerOpts {
            online: Some(OnlineTuner::default()),
            ..Default::default()
        };
        let r = bgpc::engine::color_with_config(&g, &order, cfg, pool, opts);
        let colors = match perm {
            Some(p) => sparse::unpermute(&r.colors, p),
            None => r.colors.clone(),
        };
        if let Err(e) = verify_bgpc(g0, &colors) {
            eprintln!(
                "FATAL: invalid autotuned BGPC coloring ({dataset}, {}): {e}",
                cfg.describe()
            );
            std::process::exit(1);
        }
        let ms = r.total_time.as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            num_colors = r.num_colors;
            rounds = r.rounds();
            actions = r.tuner_actions.iter().map(|a| a.to_string()).collect();
        }
    }
    (best_ms, num_colors, rounds, actions)
}

/// D2GC analogue of [`autotune_bgpc`] over the symmetric relabeling.
fn autotune_d2gc<I: CsrIndex>(
    pm: &Csr<I>,
    g0: &Graph,
    perm: &Option<Vec<u32>>,
    cfg: &EngineConfig,
    dataset: &str,
    pool: &Pool,
    reps: usize,
) -> (f64, usize, usize, Vec<String>) {
    let g = Graph::from_symmetric_matrix(pm);
    let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let mut best_ms = f64::INFINITY;
    let mut num_colors = 0;
    let mut rounds = 0;
    let mut actions = Vec::new();
    for _ in 0..reps {
        let opts = RunnerOpts {
            online: Some(OnlineTuner::default()),
            ..Default::default()
        };
        let r = bgpc::engine::color_with_config(&g, &order, cfg, pool, opts);
        let colors = match perm {
            Some(p) => sparse::unpermute(&r.colors, p),
            None => r.colors.clone(),
        };
        if let Err(e) = verify_d2gc(g0, &colors) {
            eprintln!(
                "FATAL: invalid autotuned D2GC coloring ({dataset}, {}): {e}",
                cfg.describe()
            );
            std::process::exit(1);
        }
        let ms = r.total_time.as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            num_colors = r.num_colors;
            rounds = r.rounds();
            actions = r.tuner_actions.iter().map(|a| a.to_string()).collect();
        }
    }
    (best_ms, num_colors, rounds, actions)
}

/// The batch sizes the `--delta` axis sweeps, in touched edges.
const DELTA_BATCHES: [usize; 4] = [1, 10, 100, 1000];

/// Draws `want` edges absent from `m` (no duplicates) by rejection
/// sampling; `undirected` restricts draws to `row < col` non-loop pairs
/// (for symmetric patterns, where the delta is later mirrored). Returns
/// fewer than `want` edges when the pattern is too dense to find them.
fn draw_absent(m: &Csr, want: usize, undirected: bool, rng: &mut rng::Pcg32) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(want);
    let mut attempts = 0usize;
    while out.len() < want && attempts < 20 * want + 100 {
        attempts += 1;
        let r = rng.bounded_u64(m.nrows() as u64) as u32;
        let c = rng.bounded_u64(m.ncols() as u64) as u32;
        let (r, c) = if undirected {
            if r == c {
                continue;
            }
            (r.min(c), r.max(c))
        } else {
            (r, c)
        };
        if m.contains(r as usize, c) || out.contains(&(r, c)) {
            continue;
        }
        out.push((r, c));
    }
    out
}

/// Samples `want` distinct edges present in `m` (partial Fisher–Yates over
/// the edge census); `undirected` keeps only the `row < col` orientation.
fn draw_present(m: &Csr, want: usize, undirected: bool, rng: &mut rng::Pcg32) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..m.nrows() {
        for &c in m.row(i) {
            if !undirected || (i as u32) < c {
                edges.push((i as u32, c));
            }
        }
    }
    let want = want.min(edges.len());
    for k in 0..want {
        let j = k + rng.bounded_u64((edges.len() - k) as u64) as usize;
        edges.swap(k, j);
    }
    edges.truncate(want);
    edges
}

/// Measures one `--delta` cell: `batch` mutations (half deletions, half
/// insertions) against the base pattern, timed as the incremental path
/// (`apply_delta` + dirty-set recolor seeded from the base coloring) and
/// as a from-scratch recolor of the mutated graph. Minimum over `reps`;
/// both colorings verified against the mutated graph.
#[allow(clippy::too_many_arguments)]
fn delta_record(
    m: &Csr,
    dataset: &str,
    bgpc_problem: bool,
    batch: usize,
    pool: &Pool,
    threads: usize,
    reps: usize,
    seed: u64,
) -> Option<DeltaRecord> {
    let mut rng = rng::Pcg32::seed_from_u64(seed);
    let undirected = !bgpc_problem;
    let deletions = draw_present(m, batch / 2, undirected, &mut rng);
    let insertions = draw_absent(m, batch - deletions.len(), undirected, &mut rng);
    if insertions.len() + deletions.len() < batch {
        eprintln!("  delta {dataset} batch {batch}: pattern too small to draw the batch, skipped");
        return None;
    }
    let delta = CsrDelta::try_new(insertions, deletions).expect("drawn edges form a valid delta");
    let delta = if bgpc_problem {
        delta
    } else {
        delta.symmetrized().expect("non-loop undirected draws symmetrize")
    };
    let applied = bgpc::apply_delta(m, &delta).expect("drawn delta applies to its own base");

    // Base coloring (what a serving layer would have cached) and the
    // mutated graphs, built once outside the timed loops.
    let schedule = if bgpc_problem { Schedule::n1_n2() } else { Schedule::v_v_64d() };
    let (mut update_ms, mut full_ms) = (f64::INFINITY, f64::INFINITY);
    let (update_colors, full_colors, dirty_len);
    if bgpc_problem {
        let g = BipartiteGraph::from_matrix(m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let base = bgpc::color_bgpc(&g, &order, &schedule, pool);
        let g2 = BipartiteGraph::from_matrix(&applied.matrix);
        let mut colors_inc = 0;
        let mut colors_full = 0;
        let mut dirty_n = 0;
        for _ in 0..reps {
            let t = Instant::now();
            let a = bgpc::apply_delta(m, &delta).expect("delta applies");
            let dirty = a.dirty_bgpc();
            let r = bgpc::recolor_incremental(
                &g2,
                &base.colors,
                dirty,
                &order,
                &schedule,
                pool,
                RunnerOpts::default(),
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = verify_bgpc(&g2, &r.colors) {
                eprintln!("FATAL: invalid incremental BGPC coloring ({dataset}, batch {batch}): {e}");
                std::process::exit(1);
            }
            if ms < update_ms {
                update_ms = ms;
                colors_inc = r.num_colors;
                dirty_n = dirty.len();
            }
            let t = Instant::now();
            let rf = bgpc::color_bgpc(&g2, &order, &schedule, pool);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = verify_bgpc(&g2, &rf.colors) {
                eprintln!("FATAL: invalid full BGPC recolor ({dataset}, batch {batch}): {e}");
                std::process::exit(1);
            }
            if ms < full_ms {
                full_ms = ms;
                colors_full = rf.num_colors;
            }
        }
        update_colors = colors_inc;
        full_colors = colors_full;
        dirty_len = dirty_n;
    } else {
        let g = Graph::from_symmetric_matrix(m);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let base = bgpc::d2gc::color_d2gc(&g, &order, &schedule, pool);
        let g2 = Graph::from_symmetric_matrix(&applied.matrix);
        let mut colors_inc = 0;
        let mut colors_full = 0;
        let mut dirty_n = 0;
        for _ in 0..reps {
            let t = Instant::now();
            let a = bgpc::apply_delta(m, &delta).expect("delta applies");
            let dirty = a.dirty_d2gc();
            let r = bgpc::recolor_incremental(
                &g2,
                &base.colors,
                &dirty,
                &order,
                &schedule,
                pool,
                RunnerOpts::default(),
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = verify_d2gc(&g2, &r.colors) {
                eprintln!("FATAL: invalid incremental D2GC coloring ({dataset}, batch {batch}): {e}");
                std::process::exit(1);
            }
            if ms < update_ms {
                update_ms = ms;
                colors_inc = r.num_colors;
                dirty_n = dirty.len();
            }
            let t = Instant::now();
            let rf = bgpc::d2gc::color_d2gc(&g2, &order, &schedule, pool);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = verify_d2gc(&g2, &rf.colors) {
                eprintln!("FATAL: invalid full D2GC recolor ({dataset}, batch {batch}): {e}");
                std::process::exit(1);
            }
            if ms < full_ms {
                full_ms = ms;
                colors_full = rf.num_colors;
            }
        }
        update_colors = colors_inc;
        full_colors = colors_full;
        dirty_len = dirty_n;
    }
    Some(DeltaRecord {
        problem: if bgpc_problem { "BGPC" } else { "D2GC" }.into(),
        dataset: dataset.into(),
        threads,
        batch: delta.len() / if bgpc_problem { 1 } else { 2 },
        dirty: dirty_len,
        update_ms,
        full_ms,
        speedup: full_ms / update_ms,
        update_colors,
        full_colors,
        verified: true,
    })
}

/// Reads the value of `--flag` style options, exiting with the usage code
/// when the value is missing.
fn flag_value(args: &[String], i: usize, flag: &str) -> String {
    args.get(i + 1)
        .unwrap_or_else(|| {
            eprintln!("missing value after {flag}");
            std::process::exit(2);
        })
        .clone()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = "full";
    let mut out_path = String::from("BENCH_coloring.json");
    // Axis restrictions for the width × order × sched sweep; `None` means
    // "sweep every value" so the default report holds all combinations.
    let mut only_width: Option<IndexWidth> = None;
    let mut only_order: Option<LocalityOrder> = None;
    let mut only_sched: Option<Sched> = None;
    let mut only_kernel: Option<KernelImpl> = None;
    let mut pin = false;
    let mut autotune = false;
    let mut delta_axis = false;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                mode = "smoke";
                i += 1;
            }
            "--quick" => {
                mode = "quick";
                i += 1;
            }
            "--out" => {
                out_path = flag_value(&args, i, "--out");
                i += 2;
            }
            "--trace" => {
                trace_path = Some(flag_value(&args, i, "--trace"));
                i += 2;
            }
            "--index-width" => {
                let v = flag_value(&args, i, "--index-width");
                only_width = Some(IndexWidth::from_name(&v).unwrap_or_else(|| {
                    eprintln!("bad --index-width `{v}` (expected u32|u64)");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--order" => {
                let v = flag_value(&args, i, "--order");
                only_order = Some(LocalityOrder::from_name(&v).unwrap_or_else(|| {
                    eprintln!("bad --order `{v}` (expected none|degree|bfs)");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--sched" => {
                let v = flag_value(&args, i, "--sched");
                only_sched = Some(Sched::from_name(&v).unwrap_or_else(|| {
                    eprintln!("bad --sched `{v}` (expected dynamic|steal)");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--kernel" => {
                let v = flag_value(&args, i, "--kernel");
                only_kernel = Some(KernelImpl::from_name(&v).unwrap_or_else(|| {
                    eprintln!("bad --kernel `{v}` (expected scalar|simd|auto)");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--pin" => {
                pin = true;
                i += 1;
            }
            "--autotune" => {
                autotune = true;
                i += 1;
            }
            "--delta" => {
                delta_axis = true;
                i += 1;
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (expected --smoke, --quick, --out PATH, \
                     --trace PATH, --index-width W, --order O, --sched S, --kernel K, \
                     --pin, --autotune, --delta)"
                );
                std::process::exit(2);
            }
        }
    }

    let widths: Vec<IndexWidth> =
        only_width.map_or_else(|| vec![IndexWidth::U32, IndexWidth::U64], |w| vec![w]);
    let orders: Vec<LocalityOrder> =
        only_order.map_or_else(|| LocalityOrder::all().to_vec(), |o| vec![o]);
    let scheds: Vec<Sched> = only_sched.map_or_else(|| Sched::all().to_vec(), |s| vec![s]);
    // The default kernel sweep pits the scalar spec against the vector
    // path; `auto` is only measured when requested (it resolves to one of
    // the other two, so sweeping it by default would duplicate a row).
    let kernels: Vec<KernelImpl> =
        only_kernel.map_or_else(|| vec![KernelImpl::Scalar, KernelImpl::Simd], |k| vec![k]);
    let mk_pool = |t: usize| {
        let pool = if pin { Pool::new_pinned(t) } else { Pool::new(t) };
        if pool.threads() != t {
            eprintln!(
                "WARN: requested {t} worker threads but the pool runs {} — records stamp both",
                pool.threads()
            );
        }
        pool
    };
    // Report pinning as on only when the affinity syscall actually took.
    let pinned = pin && mk_pool(1).pinned();

    let (scale, reps, threads, bgpc_sets, d2gc_sets, micro_samples): (
        f64,
        usize,
        Vec<usize>,
        Vec<Dataset>,
        Vec<Dataset>,
        usize,
    ) = match mode {
        "smoke" => (
            0.002,
            1,
            vec![1, 2],
            vec![Dataset::CoPapersDblp],
            vec![Dataset::Nlpkkt120],
            3,
        ),
        "quick" => (
            0.004,
            3,
            vec![1, 4],
            vec![
                Dataset::Movielens20M,
                Dataset::CoPapersDblp,
                Dataset::AfShell10,
                Dataset::Bone010,
            ],
            vec![Dataset::Nlpkkt120],
            10,
        ),
        _ => (
            0.01,
            5,
            vec![1, 2, 4, 8],
            vec![
                Dataset::Movielens20M,
                Dataset::CoPapersDblp,
                Dataset::AfShell10,
                Dataset::Bone010,
            ],
            vec![Dataset::Nlpkkt120, Dataset::Channel],
            20,
        ),
    };

    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    if let Some(&max_t) = threads.iter().max() {
        if host_threads > 0 && max_t > host_threads {
            eprintln!(
                "WARN: sweeping up to {max_t} threads on a {host_threads}-thread host; \
                 oversubscribed cells measure scheduling, not scaling"
            );
        }
    }
    eprintln!(
        "mode {mode}: scale {scale}, reps {reps}, threads {threads:?}, isa {}, pinned {pinned}",
        bgpc::simd::isa_features()
    );
    let micro = micro_section(micro_samples);
    for m in &micro {
        eprintln!(
            "  micro first_fit dense {} colors: StampSet {:.1} ns, BitStampSet {:.1} ns \
             ({:.2}x)",
            m.colors, m.stamp_ns, m.bitstamp_ns, m.speedup
        );
    }
    let micro_kernel = micro_kernel_section(micro_samples);
    for m in &micro_kernel {
        eprintln!(
            "  micro first_fit dense {} colors: scalar {:.1} ns, {} {:.1} ns ({:.2}x)",
            m.colors, m.scalar_ns, m.kernel, m.simd_ns, m.speedup
        );
    }

    let mut schedules = Vec::new();
    for dataset in &bgpc_sets {
        let inst = dataset.build(scale, SEED);
        let g = BipartiteGraph::from_matrix(&inst.matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        for &t in &threads {
            let pool = mk_pool(t);
            for schedule in Schedule::all() {
                schedules.push(run_bgpc::<BitStampSet, _>(
                    &g,
                    &order,
                    dataset.name(),
                    &schedule,
                    &pool,
                    t,
                    "BitStampSet",
                    reps,
                ));
            }
            // Representation ablation on the two headline schedules: the
            // same driver with the per-color StampSet.
            for schedule in [Schedule::v_v(), Schedule::n1_n2()] {
                schedules.push(run_bgpc::<StampSet, _>(
                    &g,
                    &order,
                    dataset.name(),
                    &schedule,
                    &pool,
                    t,
                    "StampSet",
                    reps,
                ));
            }
        }
    }
    // Axis sweep (index width × locality relabeling × chunk scheduler) on
    // the headline schedules. Every run is verified against the original,
    // un-relabeled graph after mapping the coloring back.
    for dataset in &bgpc_sets {
        let inst = dataset.build(scale, SEED);
        let g0 = BipartiteGraph::from_matrix(&inst.matrix);
        for &relabel in &orders {
            let (pm, perm) = relabel.apply_columns(&inst.matrix);
            for &width in &widths {
                for &t in &threads {
                    let pool = mk_pool(t);
                    for base in [Schedule::v_v_64d(), Schedule::n1_n2()] {
                        for &sched in &scheds {
                            for &kernel in &kernels {
                                let schedule =
                                    base.clone().with_sched(sched).with_kernel(kernel);
                                let rec = match width {
                                    IndexWidth::U32 => axis_record_bgpc(
                                        &pm, &g0, &perm, dataset.name(), &schedule, &pool, t,
                                        relabel, reps,
                                    ),
                                    IndexWidth::U64 => axis_record_bgpc(
                                        &pm.to_index::<u64>(),
                                        &g0,
                                        &perm,
                                        dataset.name(),
                                        &schedule,
                                        &pool,
                                        t,
                                        relabel,
                                        reps,
                                    ),
                                };
                                schedules.push(rec);
                            }
                        }
                    }
                }
            }
        }
    }

    for dataset in &d2gc_sets {
        let inst = dataset.build(scale, SEED);
        let g = Graph::from_symmetric_matrix(&inst.matrix);
        let order = Ordering::Natural.vertex_order_d2(&g);
        for &t in &threads {
            let pool = mk_pool(t);
            for schedule in Schedule::d2gc_set() {
                schedules.push(run_d2gc(&g, &order, dataset.name(), &schedule, &pool, t, reps));
            }
        }
        // Same axis sweep for D2GC on its headline schedule, with the
        // symmetric (row+column) relabeling.
        for &relabel in &orders {
            let (pm, perm) = relabel.apply_symmetric(&inst.matrix);
            for &width in &widths {
                for &t in &threads {
                    let pool = mk_pool(t);
                    for &sched in &scheds {
                        for &kernel in &kernels {
                            let schedule =
                                Schedule::v_v_64d().with_sched(sched).with_kernel(kernel);
                            let rec = match width {
                                IndexWidth::U32 => axis_record_d2gc(
                                    &pm, &g, &perm, dataset.name(), &schedule, &pool, t,
                                    relabel, reps,
                                ),
                                IndexWidth::U64 => axis_record_d2gc(
                                    &pm.to_index::<u64>(),
                                    &g,
                                    &perm,
                                    dataset.name(),
                                    &schedule,
                                    &pool,
                                    t,
                                    relabel,
                                    reps,
                                ),
                            };
                            schedules.push(rec);
                        }
                    }
                }
            }
        }
    }

    for s in &schedules {
        eprintln!(
            "  {} {} {} {}t [{}/{}/{}/{}/{}]: {:.3} ms, {} colors, {} rounds",
            s.problem,
            s.dataset,
            s.schedule,
            s.threads,
            s.set_impl,
            s.index_width,
            s.order,
            s.sched,
            s.kernel,
            s.time_ms,
            s.num_colors,
            s.rounds
        );
    }

    let oracle_best = oracle_section(&schedules);
    for o in &oracle_best {
        eprintln!(
            "  oracle {} {} {}t: {:.3} ms [{}]",
            o.problem, o.dataset, o.threads, o.time_ms, o.config
        );
    }

    // `--autotune` reruns every (dataset, threads) cell with the engine
    // choosing the whole config from instance features, online tuner
    // attached, and scores each run against the cell's oracle best.
    let mut autotune_records: Vec<AutotuneRecord> = Vec::new();
    if autotune {
        let engine = Engine::with_default_table();
        let mut cells: Vec<(Dataset, &str, bool)> = Vec::new();
        for d in &bgpc_sets {
            cells.push((*d, "BGPC", true));
        }
        for d in &d2gc_sets {
            cells.push((*d, "D2GC", false));
        }
        for (dataset, problem, is_bgpc) in cells {
            let inst = dataset.build(scale, SEED);
            let (cfg, matched, pm, perm, g0b, g0d);
            if is_bgpc {
                let g = BipartiteGraph::from_matrix(&inst.matrix);
                let choice = engine.select_bgpc(&g);
                let (p, pr) = choice.config.relabel.apply_columns(&inst.matrix);
                cfg = choice.config;
                matched = choice.matched;
                pm = p;
                perm = pr;
                g0b = Some(g);
                g0d = None;
            } else {
                let g = Graph::from_symmetric_matrix(&inst.matrix);
                let choice = engine.select_d2gc(&g);
                let (p, pr) = choice.config.relabel.apply_symmetric(&inst.matrix);
                cfg = choice.config;
                matched = choice.matched;
                pm = p;
                perm = pr;
                g0b = None;
                g0d = Some(g);
            }
            for &t in &threads {
                let pool = mk_pool(t);
                let (time_ms, num_colors, rounds, actions) = match (&g0b, &g0d, cfg.index_width)
                {
                    (Some(g0), _, IndexWidth::U32) => {
                        autotune_bgpc(&pm, g0, &perm, &cfg, dataset.name(), &pool, reps)
                    }
                    (Some(g0), _, IndexWidth::U64) => autotune_bgpc(
                        &pm.to_index::<u64>(),
                        g0,
                        &perm,
                        &cfg,
                        dataset.name(),
                        &pool,
                        reps,
                    ),
                    (_, Some(g0), IndexWidth::U32) => {
                        autotune_d2gc(&pm, g0, &perm, &cfg, dataset.name(), &pool, reps)
                    }
                    (_, Some(g0), IndexWidth::U64) => autotune_d2gc(
                        &pm.to_index::<u64>(),
                        g0,
                        &perm,
                        &cfg,
                        dataset.name(),
                        &pool,
                        reps,
                    ),
                    _ => unreachable!("one of the problem graphs is always built"),
                };
                let oracle_ms = oracle_best
                    .iter()
                    .find(|o| {
                        o.problem == problem && o.dataset == dataset.name() && o.threads == t
                    })
                    .map(|o| o.time_ms);
                let ratio = oracle_ms.map(|o| time_ms / o);
                eprintln!(
                    "  autotune {} {} {}t: {:.3} ms (oracle {}, ratio {}) [{}] via {}",
                    problem,
                    dataset.name(),
                    t,
                    time_ms,
                    oracle_ms.map_or("n/a".into(), |o| format!("{o:.3} ms")),
                    ratio.map_or("n/a".into(), |r| format!("{r:.3}")),
                    cfg.describe(),
                    matched
                );
                for a in &actions {
                    eprintln!("    online {a}");
                }
                autotune_records.push(AutotuneRecord {
                    problem: problem.into(),
                    dataset: dataset.name().into(),
                    threads: t,
                    pool_workers: pool.threads(),
                    config: cfg.describe(),
                    matched: matched.clone(),
                    time_ms,
                    oracle_ms,
                    ratio,
                    actions,
                    num_colors,
                    rounds,
                    verified: true,
                });
            }
        }
    }
    let ratios: Vec<f64> = autotune_records.iter().filter_map(|r| r.ratio).collect();
    let autotune_geomean = if ratios.is_empty() {
        None
    } else {
        Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
    };
    if let Some(gm) = autotune_geomean {
        eprintln!(
            "  autotune geomean ratio vs oracle best: {gm:.4} over {} cells",
            ratios.len()
        );
    }

    // `--delta` measures the incremental-update path against full recolor
    // on the power-law analogue (coPapersDBLP — heavy-tailed and
    // structurally symmetric, so it serves both problems) at each swept
    // batch size. Small batches must win; the crossover batch size is
    // what EXPERIMENTS.md reports.
    let mut delta_records: Vec<DeltaRecord> = Vec::new();
    if delta_axis {
        let dataset = Dataset::CoPapersDblp;
        let inst = dataset.build(scale, SEED);
        for &t in &threads {
            let pool = mk_pool(t);
            for (pi, &is_bgpc) in [true, false].iter().enumerate() {
                for (bi, &batch) in DELTA_BATCHES.iter().enumerate() {
                    let seed = SEED ^ ((pi as u64) << 32) ^ (bi as u64 + 1);
                    if let Some(rec) = delta_record(
                        &inst.matrix,
                        dataset.name(),
                        is_bgpc,
                        batch,
                        &pool,
                        t,
                        reps,
                        seed,
                    ) {
                        eprintln!(
                            "  delta {} {} {}t batch {} (dirty {}): update {:.3} ms, \
                             full {:.3} ms ({:.2}x), colors {} vs {}",
                            rec.problem,
                            rec.dataset,
                            rec.threads,
                            rec.batch,
                            rec.dirty,
                            rec.update_ms,
                            rec.full_ms,
                            rec.speedup,
                            rec.update_colors,
                            rec.full_colors
                        );
                        delta_records.push(rec);
                    }
                }
            }
        }
    }

    // `--trace` runs one instrumented coloring on the first BGPC instance
    // at the highest thread count and exports it two ways: a chrome-trace
    // file for chrome://tracing / Perfetto, and a structured per-thread
    // summary embedded in the report as the `trace` section.
    let trace_section = trace_path.as_ref().map(|path| {
        let t = threads.iter().copied().max().unwrap_or(1);
        let dataset = bgpc_sets[0];
        let inst = dataset.build(scale, SEED);
        let g = BipartiteGraph::from_matrix(&inst.matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let mut pool = mk_pool(t);
        pool.set_tracer(std::sync::Arc::new(trace::Recorder::new(pool.threads())));
        let r = bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
        if let Err(e) = verify_bgpc(&g, &r.colors) {
            eprintln!("FATAL: invalid traced coloring ({}): {e}", dataset.name());
            std::process::exit(1);
        }
        let rec = pool.tracer().expect("recorder installed above");
        let json = trace::chrome_trace_json(rec, "bench_coloring");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("FATAL: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "  traced {} N1-N2 at {t} threads -> {path} ({} bytes)",
            dataset.name(),
            json.len()
        );
        eprint!("{}", trace::imbalance_table(&rec.snapshot_counters()));
        RawJson(trace::RunSummary::from_recorder(rec).to_json())
    });

    let report = BenchReport {
        mode: mode.into(),
        scale,
        seed: SEED,
        reps,
        git_sha: std::env::var("BENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into()),
        hostname: std::env::var("BENCH_HOSTNAME")
            .or_else(|_| std::env::var("HOSTNAME"))
            .unwrap_or_else(|_| "unknown".into()),
        host_threads,
        requested_threads: threads.clone(),
        isa: bgpc::simd::isa_features().into(),
        pinned,
        micro,
        micro_kernel,
        schedules,
        oracle_best,
        autotune: autotune_records,
        autotune_geomean,
        delta: delta_records,
        trace: trace_section,
    };
    let json = to_string_pretty(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("FATAL: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path} ({} bytes)", json.len());
}
