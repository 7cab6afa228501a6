//! `shard-2`: a `dist::Coordinator` over two in-process worker daemons
//! with a block partition, coloring one uniform bipartite instance back
//! to back. Every superstep and boundary exchange crosses loopback TCP.

use std::time::{Duration, Instant};

use dist::{Coordinator, Partition, ShardOutcome};
use graph::BipartiteGraph;
use par::Pool;
use serve::{Daemon, ServeConfig};

use crate::layers::Layers;
use crate::report::{median, p50, process_cpu_s, EndToEnd, Metrics, Op};
use crate::spans::Spans;
use crate::{per_layer_metrics, set_up, Config, Outcome, Stamp};

/// Latency limit of `slo_ok_frac`, in milliseconds.
const SLO_MS: f64 = 200.0;

struct Setup {
    matrix: sparse::Csr,
    graph: BipartiteGraph,
    partition: Partition,
    workers: Vec<Daemon>,
    coord: Coordinator,
    /// Colors of a single-node `color_bgpc` run on the same instance.
    single_colors: usize,
    gen_ms: f64,
    build_ms: f64,
    invalid: usize,
}

fn setup(cfg: &Config, spans: &mut Spans, k: usize) -> Setup {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let root = spans.open("setup", 0);
    let t = Instant::now();
    let matrix = spans.time("sparse.gen", 0, || {
        sparse::gen::bipartite_uniform(20_000, 16_000, 240_000, cfg.seed)
    });
    let gen_ms = ms(t);
    let t = Instant::now();
    let graph = spans.time("graph.build", 0, || BipartiteGraph::from_matrix(&matrix));
    let build_ms = ms(t);
    // The single-node reference runs before the workers start, so no more
    // pool threads than `cfg.threads` exist at once.
    let single = spans.time("core.color_single", 0, || {
        let order = graph::Ordering::Natural.vertex_order_bgpc(&graph);
        bgpc::color_bgpc(
            &graph,
            &order,
            &bgpc::Schedule::n1_n2(),
            &Pool::new(cfg.threads),
        )
    });
    let mut invalid = 0;
    if let Err(e) = bgpc::verify::verify_bgpc(&graph, &single.colors) {
        eprintln!("perfbench: single-node reference coloring invalid: {e}");
        invalid += 1;
    }
    let workers: Vec<Daemon> = spans.time("serve.daemon_start", 0, || {
        (0..cfg.threads)
            .map(|w| {
                let cache_dir = cfg.out_dir.join(format!("shard-cache-{k}-{w}"));
                Daemon::start(ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    pool_threads: 1,
                    cache_dir,
                    read_timeout: Duration::from_secs(30),
                    ..ServeConfig::default()
                })
                .expect("worker daemon starts on loopback")
            })
            .collect()
    });
    let addrs: Vec<String> = workers.iter().map(|d| d.local_addr().to_string()).collect();
    let coord = spans.time("dist.connect", 0, || {
        Coordinator::connect(&addrs).expect("coordinator reaches its workers")
    });
    let partition = Partition::block(graph.n_vertices(), cfg.threads);
    spans.close(root);
    Setup {
        matrix,
        graph,
        partition,
        workers,
        coord,
        single_colors: single.num_colors,
        gen_ms,
        build_ms,
        invalid,
    }
}

/// Checks a sharded outcome: a valid coloring whose color count and
/// superstep accounting agree with it.
fn check(s: &Setup, out: &ShardOutcome) -> Result<(), String> {
    bgpc::verify::verify_bgpc(&s.graph, &out.colors)?;
    let distinct = bgpc::metrics::count_distinct_colors(&out.colors);
    if distinct != out.num_colors {
        return Err(format!(
            "outcome says {} colors, coloring has {distinct}",
            out.num_colors
        ));
    }
    if out.n_shards != s.partition.n_ranks() {
        return Err(format!(
            "{} shards for a {}-rank partition",
            out.n_shards,
            s.partition.n_ranks()
        ));
    }
    match out.supersteps.last() {
        Some(last) if last.conflicts == 0 => Ok(()),
        Some(last) => Err(format!("final superstep left {} conflicts", last.conflicts)),
        None => Err("no supersteps recorded".into()),
    }
}

#[derive(Default)]
struct Measured {
    ops: Vec<Op>,
    /// Rounds, messages and conflicts of each sharded coloring.
    outcomes: Vec<(usize, usize, usize)>,
    /// Sums of op wall-clock and CPU times; the workers run in this
    /// process, so their CPU time counts.
    timed_s: f64,
    cpu_s: f64,
    invalid: usize,
}

/// Colors back to back for `secs` seconds of wall time, verifying each
/// outcome between ops. When `spans` is enabled, every other op records
/// spans and is returned in the second set, so both share the same load.
fn measure(s: &mut Setup, secs: f64, spans: &mut Spans) -> (Measured, Measured) {
    let trace = spans.enabled();
    let (mut u, mut t) = (Measured::default(), Measured::default());
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < secs {
        let traced = trace && op % 2 == 1;
        spans.set_enabled(traced);
        let m = if traced { &mut t } else { &mut u };
        let root = spans.open("op", op);
        let cpu = process_cpu_s();
        let t = Instant::now();
        let result = spans.time("dist.color", op, || s.coord.color(&s.matrix, &s.partition));
        let elapsed = t.elapsed().as_secs_f64();
        m.cpu_s += process_cpu_s() - cpu;
        let checked = spans.time("dist.verify", op, || {
            result
                .as_ref()
                .map_err(|e| e.clone())
                .and_then(|out| check(s, out))
        });
        spans.close(root);
        if let Err(e) = &checked {
            eprintln!("perfbench: op {op}: {e}");
            m.invalid += 1;
        }
        m.timed_s += elapsed;
        let (colors, degraded) = match &result {
            Ok(out) => {
                let conflicts = out.supersteps.iter().map(|st| st.conflicts).sum();
                m.outcomes
                    .push((out.rounds(), out.total_messages(), conflicts));
                (out.num_colors, out.degraded.is_some())
            }
            Err(_) => (0, false),
        };
        m.ops.push(Op {
            ms: elapsed * 1e3,
            colors,
            failed: checked.is_err(),
            degraded,
        });
        op += 1;
    }
    spans.set_enabled(trace);
    (u, t)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut spans = Spans::new(cfg.trace, cfg.origin);
    let (mut s, setup_s) = set_up(cfg, |k| setup(cfg, &mut spans, k));
    let stamp = Stamp {
        pool_threads: 1,
        workers: s.workers.len(),
        ..Stamp::default()
    };

    // Warm-up op: lazy allocations and connection set-up are not timed.
    let (warm, _) = measure(&mut s, 0.0, &mut Spans::new(false, cfg.origin));
    let (u, tr) = measure(&mut s, cfg.seconds, &mut spans);
    let invalid = s.invalid + warm.invalid + u.invalid + tr.invalid;

    if !cfg.trace {
        let mut metrics = Metrics::default();
        EndToEnd {
            setup_s: &setup_s,
            ops: &u.ops,
            cpu_s: u.cpu_s,
            timed_ops: &u.ops,
            slo_ms: SLO_MS,
        }
        .report(&mut metrics);
        return Outcome {
            correct: invalid == 0,
            attempted: u.ops.len(),
            failed: u.ops.iter().filter(|o| o.failed).count(),
            metrics,
            spans,
            stamp,
        };
    }

    let mut l = Layers::default();
    l.set("sparse.gen_ms", s.gen_ms);
    l.set("graph.build_ms", s.build_ms);
    let stat = |f: fn(&(usize, usize, usize)) -> usize| {
        median(&u.outcomes.iter().map(|o| f(o) as f64).collect::<Vec<_>>())
    };
    l.set("dist.rounds", stat(|o| o.0));
    l.set("dist.messages", stat(|o| o.1));
    l.set("dist.conflicts", stat(|o| o.2));
    let colors: Vec<f64> = u.ops.iter().map(|o| o.colors as f64).collect();
    l.set(
        "dist.colors_over_single",
        median(&colors) / s.single_colors.max(1) as f64,
    );
    l.set_overhead(p50(&u.ops), p50(&tr.ops));
    l.set_wall(&u.ops, u.timed_s);
    Outcome {
        correct: invalid == 0,
        attempted: u.ops.len() + tr.ops.len(),
        failed: u.ops.iter().chain(&tr.ops).filter(|o| o.failed).count(),
        metrics: per_layer_metrics(&l),
        spans,
        stamp,
    }
}
