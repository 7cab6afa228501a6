//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `bgpc-skewed` — back-to-back BGPC colorings of the 20M_movielens
//!   analogue with the CLI default configuration.
//! * `d2gc-mesh` — back-to-back D2GC colorings of the nlpkkt120 analogue.
//! * `serve-mixed` — an in-process daemon driven open-loop, then closed-loop,
//!   with a seeded mix of cache hits, unseen patterns and incremental
//!   updates.
//! * `shard-2` — a coordinator over two in-process shard workers.
//!
//! Every input is generated from `--seed` before timing, and every coloring
//! is verified outside the system. With `--trace 0` the run measures the
//! end-to-end metrics; with `--trace 1` it measures the per-layer metrics,
//! interleaving untraced work with work traced by the pool's
//! `trace::Recorder` and the benchmark's spans, and reports the difference
//! as `trace.overhead_frac`. The last line of standard output is one JSON
//! object with the result.

mod batch;
mod layers;
mod report;
mod served;
mod sharded;
mod spans;

use std::path::PathBuf;
use std::time::Instant;

use layers::Layers;
use report::Metrics;
use spans::Spans;

/// Run settings shared by every workload.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Pool threads, shard workers and client connections are each capped
    /// at this: `min(2, nproc)`.
    pub threads: usize,
    /// Directory for caches and span files, inside the checkout.
    pub out_dir: PathBuf,
    /// Time origin of every span.
    pub origin: Instant,
}

/// What a workload hands back.
pub struct Outcome {
    /// Every returned coloring verified.
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Metrics,
    /// Spans of the traced work.
    pub spans: Spans,
    /// Stamp fields: pool threads, workers, clients, pinned.
    pub stamp: Stamp,
}

/// How many threads and connections a run used.
#[derive(Clone, Copy, Default)]
pub struct Stamp {
    pub pool_threads: usize,
    pub workers: usize,
    pub clients: usize,
    pub pinned: bool,
}

/// Per-layer metrics of a traced run, completed with zeros for the layers
/// the workload does not exercise.
pub fn per_layer_metrics(l: &Layers) -> Metrics {
    let mut m = Metrics::default();
    for &(name, unit) in layers::PER_LAYER {
        m.put(name, l.get(name), unit);
    }
    m
}

/// Untraced runs repeat set-up at least `MIN_SETUPS` times and for at
/// least `SETUP_BUDGET_S` seconds of wall time, at most `MAX_SETUPS`
/// times; `setup_s` is the median CPU time of one set-up.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET_S: f64 = 1.0;

/// Runs `build(k)` for `k = 0, 1, ...`, dropping each result before the
/// next; returns the last result and the process CPU seconds of every
/// set-up. A traced run sets up once.
pub fn set_up<T>(cfg: &Config, mut build: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let begin = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let cpu = report::process_cpu_s();
        last = Some(build(times.len()));
        times.push(report::process_cpu_s() - cpu);
        let enough = times.len() >= MIN_SETUPS && begin.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        if cfg.trace || enough || times.len() >= MAX_SETUPS {
            return (last.expect("set up at least once"), times);
        }
    }
}

const WORKLOADS: [&str; 4] = ["bgpc-skewed", "d2gc-mesh", "serve-mixed", "shard-2"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let Some(value) = argv.get(i + 1) else {
            usage(&format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Config {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        threads: nproc.min(2),
        out_dir: std::env::var_os("PERFBENCH_OUT")
            .map_or_else(|| PathBuf::from(".bench_build/perfbench"), PathBuf::from)
            .join(format!(
                "{workload}-{}-{}",
                std::process::id(),
                seed.unwrap_or(0)
            )),
        origin: Instant::now(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        std::process::exit(1);
    }

    let out = match workload.as_str() {
        "bgpc-skewed" => batch::run(&cfg, batch::Kind::BgpcSkewed),
        "d2gc-mesh" => batch::run(&cfg, batch::Kind::D2gcMesh),
        "serve-mixed" => served::run(&cfg),
        "shard-2" => sharded::run(&cfg),
        _ => unreachable!("workload validated above"),
    };

    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={} nproc={nproc} \
         pool_threads={} workers={} clients={} pinned={} isa={} git={}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        out.stamp.pool_threads,
        out.stamp.workers,
        out.stamp.clients,
        out.stamp.pinned,
        bgpc::simd::isa_features(),
        std::env::var("PERFBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into()),
    );
    if cfg.trace {
        println!("# spans: name count total_ms self_ms");
        for (name, count, total, own) in out.spans.summary() {
            println!("#   {name} {count} {total:.3} {own:.3}");
        }
        let path = cfg.out_dir.with_extension("spans.json");
        match std::fs::write(&path, out.spans.to_json()) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    // Daemons are stopped by now; their caches are not kept.
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
    if !out.correct {
        eprintln!(
            "perfbench: {} of {} ops failed or returned an invalid coloring",
            out.failed, out.attempted
        );
    }
    println!(
        "{}",
        out.metrics
            .result_line(out.correct, out.attempted.max(1), out.failed)
    );
    if !out.correct {
        std::process::exit(1);
    }
}
