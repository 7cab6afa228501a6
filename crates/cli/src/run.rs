//! Command implementations.
//!
//! Every command returns a process exit code through one error type so
//! failures are distinguishable by scripts:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 2    | usage error (bad flags) |
//! | 3    | input error (missing/unparsable matrix) |
//! | 4    | graph construction rejected the pattern |
//! | 5    | internal error (invalid coloring produced) |
//! | 6    | output I/O error |
//! | 7    | service error (`serve` daemon failed to start or crashed) |
//!
//! No command path unwraps: library errors surface as [`Failure`] values
//! and the process exits with the matching code.
//!
//! A closed stdout pipe (`bgpc-cli … | head`) is not an error: Rust
//! ignores `SIGPIPE`, so pipe death surfaces as `BrokenPipe` write
//! errors, and every stdout/output write path maps those to a clean
//! silent exit 0 — the Unix convention for a producer whose consumer
//! hung up.

use std::io::Write;

use bgpc::verify::ColorClassStats;
use bgpc::Schedule;
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;
use sparse::{Csr, Dataset, DegreeStats};

use crate::args::{ColorArgs, Input, Problem, COLOR_USAGE};

/// Exit code for usage errors (bad flags / bad subcommand).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for unreadable or unparsable input.
pub const EXIT_INPUT: i32 = 3;
/// Exit code for patterns the graph layer rejects.
pub const EXIT_GRAPH: i32 = 4;
/// Exit code for internal invariant violations (invalid coloring).
pub const EXIT_INTERNAL: i32 = 5;
/// Exit code for output-side I/O failures.
pub const EXIT_OUTPUT: i32 = 6;
/// Exit code for daemon-mode service failures (`serve`).
pub const EXIT_SERVICE: i32 = 7;

/// A command failure carrying its exit code and message.
struct Failure {
    code: i32,
    msg: String,
}

impl Failure {
    fn new(code: i32, msg: impl Into<String>) -> Self {
        Self {
            code,
            msg: msg.into(),
        }
    }

    /// Maps an output-side I/O error: `BrokenPipe` means the consumer
    /// hung up (`… | head`), which is a clean silent exit, not a failure.
    fn for_output(context: &str, e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            Self { code: 0, msg: String::new() }
        } else {
            Self::new(EXIT_OUTPUT, format!("{context}: {e}"))
        }
    }
}

fn finish(outcome: Result<(), Failure>) -> i32 {
    match outcome {
        Ok(()) => 0,
        // The silent-success path (closed stdout pipe).
        Err(Failure { code: 0, .. }) => 0,
        Err(f) => {
            eprintln!("error: {}", f.msg);
            f.code
        }
    }
}

/// `println!` that survives a closed stdout: on `BrokenPipe` the process
/// exits 0 immediately (consumer hung up), and any other stdout failure
/// exits with [`EXIT_OUTPUT`]. `println!` itself would panic instead.
macro_rules! out {
    ($($arg:tt)*) => {
        crate::run::write_stdout(format_args!($($arg)*))
    };
}

/// Backing writer for [`out!`].
pub(crate) fn write_stdout(args: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    let outcome = stdout.write_fmt(args).and_then(|()| stdout.write_all(b"\n"));
    if let Err(e) = outcome {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(EXIT_OUTPUT);
    }
}

fn load(input: &Input) -> Result<Csr, Failure> {
    match input {
        Input::Mtx(path) => sparse::mm::read_pattern_file(path)
            .map_err(|e| Failure::new(EXIT_INPUT, e.to_string())),
        Input::Bin(path) => sparse::bin_io::read_bin_file(path)
            .map_err(|e| Failure::new(EXIT_INPUT, e.to_string())),
        Input::Dataset { dataset, scale, seed } => Ok(dataset.build(*scale, *seed).matrix),
    }
}

/// A pattern the graph layer rejected (exit 4).
fn graph_failure(e: graph::GraphError) -> Failure {
    Failure::new(EXIT_GRAPH, e.to_string())
}

/// Runs the BGPC driver on the graph of the relabeled pattern, or on `g`
/// itself when there is no relabeling.
fn run_bgpc(
    g: &BipartiteGraph,
    relabeled: Option<Csr>,
    schedule: &Schedule,
    ordering: Ordering,
    pool: &Pool,
) -> Result<bgpc::ColoringResult, Failure> {
    let built;
    let g = match relabeled {
        Some(pm) => {
            built = BipartiteGraph::try_from_matrix_owned(pm).map_err(graph_failure)?;
            &built
        }
        None => g,
    };
    let order = ordering.vertex_order_bgpc(g);
    Ok(bgpc::color_with_opts(g, &order, schedule, pool, Default::default()))
}

/// The graph of a symmetric pattern (D1GC, D2GC and distance-k).
fn symmetric_graph(m: &Csr) -> Result<Graph, Failure> {
    Graph::try_from_symmetric_matrix(m).map_err(graph_failure)
}

/// Runs the D2GC driver on the graph of the relabeled pattern, or on `g`
/// itself when there is no relabeling.
fn run_d2gc(
    g: &Graph,
    relabeled: Option<&Csr>,
    schedule: &Schedule,
    ordering: Ordering,
    pool: &Pool,
) -> Result<bgpc::ColoringResult, Failure> {
    let built;
    let g = match relabeled {
        Some(pm) => {
            built = symmetric_graph(pm)?;
            &built
        }
        None => g,
    };
    let order = ordering.vertex_order_d2(g);
    Ok(bgpc::color_with_opts(g, &order, schedule, pool, Default::default()))
}

/// Maps a coloring computed on a relabeled instance back to original ids.
fn to_original_ids(colors: Vec<i32>, perm: &Option<Vec<u32>>) -> Vec<i32> {
    match perm {
        Some(p) => sparse::unpermute(&colors, p),
        None => colors,
    }
}

/// `bgpc-cli color …`
pub fn cmd_color(flags: &[String]) -> i32 {
    let args = match ColorArgs::parse(flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{COLOR_USAGE}");
            return EXIT_USAGE;
        }
    };
    finish(color(args))
}

fn color(args: ColorArgs) -> Result<(), Failure> {
    let matrix = load(&args.input)?;

    let schedule = &args.schedule;
    let relabel = args.relabel;
    // The distance-k BFS does not relabel.
    let layout = match args.problem {
        Problem::Dk(_) => String::new(),
        _ => format!(", {} relabel", relabel.label()),
    };
    out!(
        "pattern: {} x {}, {} nnz; problem {:?}, schedule {}, {} threads, {} order{layout}",
        matrix.nrows(),
        matrix.ncols(),
        matrix.nnz(),
        args.problem,
        schedule.name(),
        args.threads,
        args.ordering.label(),
    );
    let mut pool = Pool::new(args.threads);
    if args.trace.is_some() || args.metrics {
        // Tracing is opt-in: without these flags no recorder exists and
        // the kernels' counter flushes are skipped entirely.
        pool.set_tracer(std::sync::Arc::new(trace::Recorder::new(pool.threads())));
    }
    let pool = pool;

    let mut iterations: Vec<bgpc::IterationMetrics> = Vec::new();
    let (colors, num_colors, bound, total_ms, rounds) = match args.problem {
        Problem::Bgpc | Problem::D1gc => {
            // D1GC is BGPC over the graph's 2-pin edge nets; its coloring
            // is verified against the graph itself.
            let d1 = match args.problem {
                Problem::D1gc => Some(symmetric_graph(&matrix)?),
                _ => None,
            };
            let edge_nets = d1.as_ref().map(bgpc::d1gc::edge_net_matrix);
            let pattern = edge_nets.as_ref().unwrap_or(&matrix);
            // Original-id graph: a relabeled run's coloring is mapped back
            // and re-verified against this one; an unrelabeled run colors
            // it directly.
            let g = BipartiteGraph::try_from_matrix(pattern).map_err(graph_failure)?;
            let verify = |colors: &[i32]| match &d1 {
                Some(d1) => bgpc::d1gc::verify_d1gc(d1, colors),
                None => bgpc::verify::verify_bgpc(&g, colors),
            };
            let perm = relabel.column_perm(pattern);
            let relabeled = perm.as_ref().map(|p| pattern.permute_columns(p));
            let r = run_bgpc(&g, relabeled, schedule, args.ordering, &pool)?;
            report_degradation(&r.degraded);
            let total_ms = r.total_time.as_secs_f64() * 1e3;
            let rounds = r.rounds();
            iterations = r.iterations;
            let mut colors = to_original_ids(r.colors, &perm);
            verify(&colors)
                .map_err(|e| Failure::new(EXIT_INTERNAL, format!("invalid coloring: {e}")))?;
            let mut k = r.num_colors;
            if args.recolor {
                k = bgpc::recolor::reduce_colors(&g, &mut colors, &pool);
                verify(&colors).map_err(|e| {
                    Failure::new(EXIT_INTERNAL, format!("recolor broke validity: {e}"))
                })?;
            }
            (colors, k, g.max_net_size(), total_ms, rounds)
        }
        Problem::D2gc => {
            let g = symmetric_graph(&matrix)?;
            let perm = relabel.symmetric_perm(&matrix);
            let relabeled = perm.as_ref().map(|p| matrix.permute_symmetric(p));
            let r = run_d2gc(&g, relabeled.as_ref(), schedule, args.ordering, &pool)?;
            report_degradation(&r.degraded);
            let total_ms = r.total_time.as_secs_f64() * 1e3;
            let rounds = r.rounds();
            iterations = r.iterations;
            let mut colors = to_original_ids(r.colors, &perm);
            bgpc::verify::verify_d2gc(&g, &colors)
                .map_err(|e| Failure::new(EXIT_INTERNAL, format!("invalid coloring: {e}")))?;
            let mut k = r.num_colors;
            if args.recolor {
                k = bgpc::recolor::reduce_colors_seq(&g, &mut colors);
                bgpc::verify::verify_d2gc(&g, &colors).map_err(|e| {
                    Failure::new(EXIT_INTERNAL, format!("recolor broke validity: {e}"))
                })?;
            }
            (colors, k, g.max_degree() + 1, total_ms, rounds)
        }
        Problem::Dk(k) => {
            let g = symmetric_graph(&matrix)?;
            let order = args.ordering.vertex_order_d2(&g);
            let t0 = std::time::Instant::now();
            let (colors, used) = bgpc::dkgc::color_dkgc(
                &g,
                &order,
                k,
                &pool,
                args.schedule.chunk,
                args.schedule.balance,
            );
            bgpc::dkgc::verify_dkgc(&g, &colors, k)
                .map_err(|e| Failure::new(EXIT_INTERNAL, format!("invalid coloring: {e}")))?;
            (colors, used, 1, t0.elapsed().as_secs_f64() * 1e3, 0)
        }
    };

    let stats = ColorClassStats::from_colors(&colors);
    out!(
        "colored {} vertices with {} colors (lower bound {}) in {:.2} ms, {} rounds",
        colors.len(),
        num_colors,
        bound,
        total_ms,
        rounds
    );
    out!(
        "classes: {} (min {}, max {}, σ {:.2}, entropy {:.3}, gini {:.3}, {} singletons)",
        stats.num_classes,
        stats.min,
        stats.max,
        stats.std_dev,
        stats.entropy(),
        stats.gini(),
        stats.classes_below(2),
    );

    if args.metrics {
        if let Some(rec) = pool.tracer() {
            if !iterations.is_empty() {
                out!("iter  color    conflict  queue_in  queue_out  color_ms  conflict_ms");
                for m in &iterations {
                    out!(
                        "{:>4}  {:<7}  {:<8}  {:>8}  {:>9}  {:>8.3}  {:>11.3}",
                        m.iter,
                        format!("{:?}", m.color_kind),
                        format!("{:?}", m.conflict_kind),
                        m.queue_in,
                        m.queue_out,
                        m.color_time.as_secs_f64() * 1e3,
                        m.conflict_time.as_secs_f64() * 1e3,
                    );
                }
            }
            print!("{}", trace::imbalance_table(&rec.snapshot_counters()));
        }
    }
    if let Some(path) = &args.trace {
        let rec = pool
            .tracer()
            .expect("--trace installs a recorder before the run");
        std::fs::write(path, trace::chrome_trace_json(rec, "bgpc-cli"))
            .map_err(|e| Failure::for_output(&format!("writing {path}"), e))?;
        out!("trace written to {path}");
    }

    if let Some(path) = args.output {
        write_colors(&path, &colors)
            .map_err(|e| Failure::for_output(&format!("writing {path}"), e))?;
        out!("colors written to {path}");
    }
    Ok(())
}

/// A degraded run is still a valid coloring; surface how it got there.
fn report_degradation(degraded: &Option<bgpc::DegradeReason>) {
    if let Some(reason) = degraded {
        eprintln!("warning: parallel run degraded to sequential fallback: {reason}");
    }
}

fn write_colors(path: &str, colors: &[i32]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "% vertex color")?;
    for (v, &c) in colors.iter().enumerate() {
        writeln!(f, "{v} {c}")?;
    }
    f.flush()
}

/// `bgpc-cli stats …`
pub fn cmd_stats(flags: &[String]) -> i32 {
    let args = match ColorArgs::parse(flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    finish(stats(args))
}

fn stats(args: ColorArgs) -> Result<(), Failure> {
    let matrix = load(&args.input)?;
    let rows = DegreeStats::rows(&matrix);
    let cols = DegreeStats::cols(&matrix);
    out!("shape: {} x {}, nnz {}", matrix.nrows(), matrix.ncols(), matrix.nnz());
    out!(
        "row degrees: min {} max {} mean {:.2} σ {:.2}",
        rows.min, rows.max, rows.mean, rows.std_dev
    );
    out!(
        "col degrees: min {} max {} mean {:.2} σ {:.2}",
        cols.min, cols.max, cols.mean, cols.std_dev
    );
    let symmetric =
        matrix.nrows() == matrix.ncols() && matrix.strip_diagonal().is_structurally_symmetric();
    out!("structurally symmetric: {symmetric}");
    if symmetric {
        let g = symmetric_graph(&matrix)?;
        let natural: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let rcm = graph::rcm_permutation(&g);
        out!(
            "bandwidth: natural {}, after RCM {}",
            graph::bandwidth(&g, &natural),
            graph::bandwidth(&g, &rcm)
        );
    }
    out!("BGPC color lower bound (max net size): {}", rows.max);
    Ok(())
}

/// `bgpc-cli generate …`
pub fn cmd_generate(flags: &[String]) -> i32 {
    // reuse ColorArgs parsing for --dataset/--scale/--seed/--output
    let args = match ColorArgs::parse(flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    let Input::Dataset { dataset, scale, seed } = args.input else {
        eprintln!("error: generate needs --dataset (not --mtx)");
        return EXIT_USAGE;
    };
    let Some(path) = args.output else {
        eprintln!("error: generate needs --output FILE");
        return EXIT_USAGE;
    };
    let inst = dataset.build(scale, seed);
    finish(
        sparse::mm::write_pattern_file(&path, &inst.matrix)
            .map(|()| {
                out!(
                    "wrote {} analogue at scale {scale} (seed {seed}) to {path}: {} x {}, {} nnz",
                    Dataset::name(&dataset),
                    inst.matrix.nrows(),
                    inst.matrix.ncols(),
                    inst.matrix.nnz()
                );
            })
            .map_err(|e| Failure::for_output(&format!("writing {path}"), e)),
    )
}

/// Usage text for the `serve` command.
pub const SERVE_USAGE: &str = "\
usage: bgpc-cli serve [--addr HOST:PORT] [--addr-file FILE] [--cache-dir DIR]
                      [--threads N] [--queue-capacity N]
                      [--read-timeout-ms N] [--default-deadline-ms N]

Runs the hardened coloring daemon until a client sends the Shutdown verb.
Bind port 0 to let the OS pick; with --addr-file the bound address is
written there (atomically) once the daemon is listening, so scripts can
wait for it. Service failures exit with code 7.";

/// `bgpc-cli serve …` — run the coloring daemon in the foreground.
pub fn cmd_serve(flags: &[String]) -> i32 {
    let mut cfg = serve::ServeConfig {
        cache_dir: std::env::temp_dir().join("bgpc-serve-cache"),
        ..serve::ServeConfig::default()
    };
    let mut addr_file: Option<String> = None;
    let mut i = 0;
    while i < flags.len() {
        let flag = flags[i].as_str();
        let value = |i: usize| -> Result<&String, String> {
            flags
                .get(i + 1)
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        let outcome: Result<(), String> = (|| {
            match flag {
                "--addr" => cfg.addr = value(i)?.clone(),
                "--addr-file" => addr_file = Some(value(i)?.clone()),
                "--cache-dir" => cfg.cache_dir = value(i)?.into(),
                "--threads" => {
                    cfg.pool_threads =
                        value(i)?.parse().map_err(|e| format!("bad --threads: {e}"))?
                }
                "--queue-capacity" => {
                    cfg.queue_capacity = value(i)?
                        .parse()
                        .map_err(|e| format!("bad --queue-capacity: {e}"))?
                }
                "--read-timeout-ms" => {
                    let ms: u64 =
                        value(i)?.parse().map_err(|e| format!("bad --read-timeout-ms: {e}"))?;
                    cfg.read_timeout = std::time::Duration::from_millis(ms.max(1));
                }
                "--default-deadline-ms" => {
                    cfg.default_deadline_ms = value(i)?
                        .parse()
                        .map_err(|e| format!("bad --default-deadline-ms: {e}"))?
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = outcome {
            eprintln!("error: {e}\n\n{SERVE_USAGE}");
            return EXIT_USAGE;
        }
        i += 2;
    }

    let daemon = match serve::Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: daemon failed to start: {e}");
            return EXIT_SERVICE;
        }
    };
    let addr = daemon.local_addr();
    if let Some(path) = &addr_file {
        if let Err(e) = serve::daemon::write_addr_file(std::path::Path::new(path), addr) {
            eprintln!("error: writing {path}: {e}");
            return EXIT_SERVICE;
        }
    }
    out!("serving on {addr} (shut down with the client's Shutdown verb)");
    daemon.join();
    out!("daemon stopped");
    0
}

/// Usage text for the `update` command.
pub const UPDATE_USAGE: &str = "\
usage: bgpc-cli update --addr HOST:PORT
                       (--mtx FILE | --bin FILE | --dataset NAME [--scale F] [--seed N])
                       [--insert R,C]... [--delete R,C]... [--schedule NAME]
                       [--prime] [--no-cache]

Sends the Update verb to a running daemon: the base graph plus a batch of
edge insertions/deletions. When the base coloring is cached, the daemon
recolors only the dirty vertices seeded from the cached colors and flags
the reply as a cache hit; otherwise the mutated graph is colored from
scratch. --prime submits the base graph first so the reused-entry path is
exercised. Edge endpoints are 0-based (row = net, column = vertex).";

/// Parses one `R,C` edge flag value.
fn parse_edge(flag: &str, v: &str) -> Result<(u32, u32), String> {
    let (r, c) = v
        .split_once(',')
        .ok_or_else(|| format!("bad {flag} `{v}` (expected R,C)"))?;
    let parse = |s: &str| {
        s.trim()
            .parse::<u32>()
            .map_err(|e| format!("bad {flag} `{v}`: {e}"))
    };
    Ok((parse(r)?, parse(c)?))
}

/// `bgpc-cli update …` — mutate a cached coloring on a running daemon.
pub fn cmd_update(flags: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut input: Option<Input> = None;
    let mut scale = 0.002f64;
    let mut seed = 20170814u64;
    let mut insertions: Vec<(u32, u32)> = Vec::new();
    let mut deletions: Vec<(u32, u32)> = Vec::new();
    let mut schedule = String::from("N1-N2");
    let mut prime = false;
    let mut no_cache = false;
    let mut i = 0;
    while i < flags.len() {
        let flag = flags[i].as_str();
        let value = |i: usize| -> Result<&String, String> {
            flags
                .get(i + 1)
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        let mut consumed = 2;
        let outcome: Result<(), String> = (|| {
            match flag {
                "--addr" => addr = Some(value(i)?.clone()),
                "--mtx" => input = Some(Input::Mtx(value(i)?.clone())),
                "--bin" => input = Some(Input::Bin(value(i)?.clone())),
                "--dataset" => {
                    let name = value(i)?;
                    let dataset = Dataset::from_name(name)
                        .ok_or_else(|| format!("unknown dataset `{name}`"))?;
                    input = Some(Input::Dataset { dataset, scale, seed });
                }
                "--scale" => {
                    scale = value(i)?.parse().map_err(|e| format!("bad --scale: {e}"))?
                }
                "--seed" => seed = value(i)?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--insert" => insertions.push(parse_edge("--insert", value(i)?)?),
                "--delete" => deletions.push(parse_edge("--delete", value(i)?)?),
                "--schedule" => schedule = value(i)?.clone(),
                "--prime" => {
                    prime = true;
                    consumed = 1;
                }
                "--no-cache" => {
                    no_cache = true;
                    consumed = 1;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = outcome {
            eprintln!("error: {e}\n\n{UPDATE_USAGE}");
            return EXIT_USAGE;
        }
        i += consumed;
    }
    // --scale/--seed given after --dataset still apply: rebuild the input.
    if let Some(Input::Dataset { dataset, .. }) = input {
        input = Some(Input::Dataset { dataset, scale, seed });
    }
    let Some(addr) = addr else {
        eprintln!("error: update needs --addr HOST:PORT\n\n{UPDATE_USAGE}");
        return EXIT_USAGE;
    };
    let Some(input) = input else {
        eprintln!("error: update needs a base graph (--mtx/--bin/--dataset)\n\n{UPDATE_USAGE}");
        return EXIT_USAGE;
    };
    let base = match load(&input) {
        Ok(m) => m,
        Err(f) => return finish(Err(f)),
    };
    let graph_bytes = serve::client::encode_graph(&base);
    let mut client = serve::ServeClient::new(addr, serve::RetryPolicy::default());
    if prime {
        let req = serve::JobRequest {
            priority: serve::Priority::Normal,
            deadline_ms: 0,
            no_cache: false,
            schedule: schedule.clone(),
            graph_bytes: graph_bytes.clone(),
        };
        match client.submit(&req) {
            Ok(r) => out!(
                "primed base graph: {} colors (cache_hit {})",
                r.num_colors,
                r.cache_hit
            ),
            Err(e) => {
                eprintln!("error: priming submit failed: {e}");
                return EXIT_SERVICE;
            }
        }
    }
    let req = serve::UpdateRequest {
        priority: serve::Priority::Normal,
        deadline_ms: 0,
        no_cache,
        schedule,
        insertions,
        deletions,
        graph_bytes,
    };
    match client.update(&req) {
        Ok(r) => {
            out!(
                "update: {} colors, served from reused cache entry: {}{}",
                r.num_colors,
                r.cache_hit,
                r.degraded
                    .as_ref()
                    .map_or(String::new(), |d| format!(" (degraded: {d})"))
            );
            0
        }
        Err(e) => {
            eprintln!("error: update failed: {e}");
            EXIT_SERVICE
        }
    }
}

/// Usage text for the `shard` command.
pub const SHARD_USAGE: &str = "\
usage: bgpc-cli shard (--mtx FILE | --bin FILE | --dataset NAME [--scale F] [--seed N])
                      [--workers A1,A2,... | --shards N]
                      [--partition block|cyclic|random] [--part-seed N]
                      [--max-supersteps N]

Colors the instance across shard workers over the serve protocol: each
shard is a `bgpc-cli serve` daemon, supersteps and boundary-color
exchanges travel over TCP, and the coordinator assembles and verifies
the global coloring. --workers connects to already-running daemons;
--shards N (default 2) spawns N local worker processes and tears them
down afterwards. Unreachable workers are dropped and a worker dying
mid-run degrades to a valid in-process fallback — degraded results
still exit 0 and carry a greppable `degraded:` line.";

/// Spawned `serve` worker children, killed on drop.
struct SpawnedWorkers {
    children: Vec<std::process::Child>,
}

impl Drop for SpawnedWorkers {
    fn drop(&mut self) {
        for c in self.children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Spawns `n` local `serve` worker processes (this same binary) and
/// waits for each to publish its bound address through `--addr-file`.
fn spawn_workers(n: usize) -> Result<(SpawnedWorkers, Vec<String>), Failure> {
    let exe = std::env::current_exe()
        .map_err(|e| Failure::new(EXIT_SERVICE, format!("resolving own binary: {e}")))?;
    let dir = std::env::temp_dir().join(format!("bgpc-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| Failure::new(EXIT_SERVICE, format!("creating {}: {e}", dir.display())))?;
    let mut guard = SpawnedWorkers { children: Vec::new() };
    let mut addr_files = Vec::new();
    for i in 0..n {
        let addr_file = dir.join(format!("addr{i}"));
        let _ = std::fs::remove_file(&addr_file);
        let child = std::process::Command::new(&exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--cache-dir")
            .arg(dir.join(format!("cache{i}")))
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| Failure::new(EXIT_SERVICE, format!("spawning worker {i}: {e}")))?;
        guard.children.push(child);
        addr_files.push(addr_file);
    }
    let mut addrs = Vec::new();
    for (i, f) in addr_files.iter().enumerate() {
        let mut tries = 0u32;
        // write_addr_file is atomic (rename), so a non-empty read is a
        // complete address.
        let addr = loop {
            match std::fs::read_to_string(f) {
                Ok(s) if !s.trim().is_empty() => break s.trim().to_string(),
                _ => {
                    tries += 1;
                    if tries > 200 {
                        return Err(Failure::new(
                            EXIT_SERVICE,
                            format!("worker {i} never published an address in {}", f.display()),
                        ));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
        };
        addrs.push(addr);
    }
    Ok((guard, addrs))
}

/// Builds the requested partitioner over `n` vertices and `p` ranks.
fn make_partition(kind: &str, n: usize, p: usize, seed: u64) -> Result<dist::Partition, String> {
    match kind {
        "block" => Ok(dist::Partition::block(n, p)),
        "cyclic" => Ok(dist::Partition::cyclic(n, p)),
        "random" => Ok(dist::Partition::random(n, p, seed)),
        other => Err(format!("unknown --partition `{other}` (block|cyclic|random)")),
    }
}

/// `bgpc-cli shard …` — color across shard worker processes.
pub fn cmd_shard(flags: &[String]) -> i32 {
    let mut input: Option<Input> = None;
    let mut scale = 0.002f64;
    let mut seed = 20170814u64;
    let mut workers: Option<Vec<String>> = None;
    let mut shards = 2usize;
    let mut partition_kind = String::from("block");
    let mut part_seed = 7u64;
    let mut max_supersteps: Option<usize> = None;
    let mut i = 0;
    while i < flags.len() {
        let flag = flags[i].as_str();
        let value = |i: usize| -> Result<&String, String> {
            flags
                .get(i + 1)
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        let outcome: Result<(), String> = (|| {
            match flag {
                "--mtx" => input = Some(Input::Mtx(value(i)?.clone())),
                "--bin" => input = Some(Input::Bin(value(i)?.clone())),
                "--dataset" => {
                    let name = value(i)?;
                    let dataset = Dataset::from_name(name)
                        .ok_or_else(|| format!("unknown dataset `{name}`"))?;
                    input = Some(Input::Dataset { dataset, scale, seed });
                }
                "--scale" => {
                    scale = value(i)?.parse().map_err(|e| format!("bad --scale: {e}"))?
                }
                "--seed" => seed = value(i)?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--workers" => {
                    let list: Vec<String> = value(i)?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if list.is_empty() {
                        return Err("--workers needs at least one address".into());
                    }
                    workers = Some(list);
                }
                "--shards" => {
                    shards = value(i)?.parse().map_err(|e| format!("bad --shards: {e}"))?;
                    if shards == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                }
                "--partition" => partition_kind = value(i)?.clone(),
                "--part-seed" => {
                    part_seed = value(i)?.parse().map_err(|e| format!("bad --part-seed: {e}"))?
                }
                "--max-supersteps" => {
                    max_supersteps =
                        Some(value(i)?.parse().map_err(|e| format!("bad --max-supersteps: {e}"))?)
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = outcome {
            eprintln!("error: {e}\n\n{SHARD_USAGE}");
            return EXIT_USAGE;
        }
        i += 2;
    }
    // --scale/--seed given after --dataset still apply: rebuild the input.
    if let Some(Input::Dataset { dataset, .. }) = input {
        input = Some(Input::Dataset { dataset, scale, seed });
    }
    let Some(input) = input else {
        eprintln!("error: shard needs an instance (--mtx/--bin/--dataset)\n\n{SHARD_USAGE}");
        return EXIT_USAGE;
    };
    finish(run_shard(
        &input,
        workers,
        shards,
        &partition_kind,
        part_seed,
        max_supersteps,
    ))
}

fn run_shard(
    input: &Input,
    workers: Option<Vec<String>>,
    shards: usize,
    partition_kind: &str,
    part_seed: u64,
    max_supersteps: Option<usize>,
) -> Result<(), Failure> {
    let matrix = load(input)?;
    let g = BipartiteGraph::try_from_matrix(&matrix).map_err(graph_failure)?;
    let n = g.n_vertices();

    // Either connect to the given fleet or spawn a local one. The guard
    // keeps spawned children alive until the run finishes.
    let mut notes: Vec<String> = Vec::new();
    let (_guard, candidates) = match workers {
        Some(addrs) => (None, addrs),
        None => {
            let (guard, addrs) = spawn_workers(shards)?;
            (Some(guard), addrs)
        }
    };
    let requested = candidates.len();
    let mut live = Vec::new();
    for a in &candidates {
        match std::net::TcpStream::connect(a) {
            Ok(_) => live.push(a.clone()),
            Err(e) => notes.push(format!("worker {a} unreachable ({e})")),
        }
    }

    let (outcome, used) = if live.is_empty() {
        notes.push("no reachable workers; recovered with a single-node run".into());
        let partition = make_partition(partition_kind, n, requested.max(1), part_seed)
            .map_err(|e| Failure::new(EXIT_USAGE, e))?;
        let mut runner = dist::DistRunner::new(&g, partition);
        if let Some(cap) = max_supersteps {
            runner = runner.with_max_supersteps(cap);
        }
        (runner.run(), 0)
    } else {
        let partition = make_partition(partition_kind, n, live.len(), part_seed)
            .map_err(|e| Failure::new(EXIT_USAGE, e))?;
        let mut coord = dist::Coordinator::connect(&live)
            .map_err(|e| Failure::new(EXIT_SERVICE, format!("connecting workers: {e}")))?;
        if let Some(cap) = max_supersteps {
            coord = coord.with_max_supersteps(cap);
        }
        let outcome = coord
            .color(&matrix, &partition)
            .map_err(|e| Failure::new(EXIT_GRAPH, e))?;
        (outcome, live.len())
    };

    // The coordinator already verified, but the CLI re-checks before
    // reporting: an invalid assembled coloring is an internal error.
    bgpc::verify::verify_bgpc(&g, &outcome.colors)
        .map_err(|e| Failure::new(EXIT_INTERNAL, format!("assembled coloring invalid: {e}")))?;
    if let Some(reason) = &outcome.degraded {
        notes.push(reason.clone());
    }

    out!(
        "shard: workers={used}/{requested} partition={partition_kind} rounds={} \
         messages={} colors={} verified=true",
        outcome.rounds(),
        outcome.total_messages(),
        outcome.num_colors
    );
    for (idx, s) in outcome.supersteps.iter().enumerate() {
        out!(
            "shard: round {} colored={} conflicts={} messages={}",
            idx + 1,
            s.colored,
            s.conflicts,
            s.messages
        );
    }
    if !notes.is_empty() {
        out!("degraded: {}", notes.join("; "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Input;

    #[test]
    fn load_dataset_input() {
        let m = load(&Input::Dataset {
            dataset: Dataset::AfShell10,
            scale: 0.002,
            seed: 1,
        })
        .unwrap_or_else(|f| panic!("{}", f.msg));
        assert!(m.nnz() > 0);
    }

    #[test]
    fn load_missing_mtx_maps_to_input_code() {
        let Err(f) = load(&Input::Mtx("/definitely/not/here.mtx".into())) else {
            panic!("must fail");
        };
        assert_eq!(f.code, EXIT_INPUT);
    }

    #[test]
    fn write_colors_format() {
        let dir = std::env::temp_dir().join("bgpc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.txt");
        write_colors(path.to_str().unwrap(), &[3, 0, 1]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "% vertex color\n0 3\n1 0\n2 1\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn s(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn color_to_unwritable_directory_exits_with_output_code() {
        let code = cmd_color(&s(&[
            "--dataset",
            "af_shell10",
            "--scale",
            "0.002",
            "--output",
            "/definitely/not/a/dir/colors.txt",
        ]));
        assert_eq!(code, EXIT_OUTPUT);
    }

    #[test]
    fn asymmetric_pattern_for_d2gc_exits_with_graph_code() {
        // generate a rectangular (hence non-symmetric) pattern file
        let dir = std::env::temp_dir().join("bgpc-cli-asym");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rect.mtx");
        let m = sparse::gen::bipartite_uniform(4, 7, 12, 3);
        sparse::mm::write_pattern_file(path.to_str().unwrap(), &m).unwrap();
        let code = cmd_color(&s(&[
            "--mtx",
            path.to_str().unwrap(),
            "--problem",
            "d2gc",
        ]));
        assert_eq!(code, EXIT_GRAPH);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_input_exits_with_input_code() {
        let code = cmd_color(&s(&["--mtx", "/definitely/not/here.mtx"]));
        assert_eq!(code, EXIT_INPUT);
    }

    #[test]
    fn bad_flags_exit_with_usage_code() {
        let code = cmd_color(&s(&["--no-such-flag"]));
        assert_eq!(code, EXIT_USAGE);
    }

    #[test]
    fn successful_color_run_exits_zero() {
        let code = cmd_color(&s(&["--dataset", "af_shell10", "--scale", "0.002"]));
        assert_eq!(code, 0);
    }

    #[test]
    fn relabelings_color_and_verify_in_original_ids() {
        // Every relabeling still exits zero: the run colors the relabeled
        // instance and re-verifies the unpermuted coloring against the
        // original graph.
        for relabel in ["none", "degree"] {
            let code = cmd_color(&s(&[
                "--dataset",
                "af_shell10",
                "--scale",
                "0.002",
                "--relabel",
                relabel,
            ]));
            assert_eq!(code, 0, "{relabel}");
        }
    }

    #[test]
    fn d2gc_relabeled_run_exits_zero() {
        let dir = std::env::temp_dir().join("bgpc-cli-d2-relabel");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sym.mtx");
        let m = sparse::gen::erdos_renyi(40, 90, 5);
        sparse::mm::write_pattern_file(path.to_str().unwrap(), &m).unwrap();
        let code = cmd_color(&s(&[
            "--mtx",
            path.to_str().unwrap(),
            "--problem",
            "d2gc",
            "--relabel",
            "degree",
        ]));
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn d1gc_runs_every_schedule_with_the_bgpc_flags() {
        // D1GC goes through the BGPC driver over edge nets, so it honors
        // the schedule, recoloring and relabeling flags; every
        // written coloring must pass the distance-1 oracle.
        let dir = std::env::temp_dir().join("bgpc-cli-d1-schedules");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("sym.mtx");
        let out = dir.join("colors.txt");
        let m = sparse::gen::erdos_renyi(300, 1500, 8);
        sparse::mm::write_pattern_file(mtx.to_str().unwrap(), &m).unwrap();
        let g = Graph::from_symmetric_matrix(&m);
        let mut names: Vec<String> = Schedule::all().iter().map(|s| s.name()).collect();
        names[0].push_str("-B1");
        for name in &names {
            let code = cmd_color(&s(&[
                "--mtx",
                mtx.to_str().unwrap(),
                "--problem",
                "d1gc",
                "--schedule",
                name,
                "--threads",
                "2",
                "--recolor",
                "--relabel",
                "degree",
                "--output",
                out.to_str().unwrap(),
            ]));
            assert_eq!(code, 0, "{name}");
            let colors: Vec<i32> = std::fs::read_to_string(&out)
                .unwrap()
                .lines()
                .skip(1)
                .map(|l| l.split_once(' ').unwrap().1.parse().unwrap())
                .collect();
            bgpc::d1gc::verify_d1gc(&g, &colors).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distance_k_refuses_ignored_flags_with_usage_code() {
        for flag in ["--recolor", "--relabel=degree"] {
            let mut argv = s(&["--dataset", "af_shell10", "--scale", "0.002", "--problem", "d3"]);
            argv.extend(flag.split('=').map(String::from));
            assert_eq!(cmd_color(&argv), EXIT_USAGE, "{flag}");
        }
    }

    #[test]
    fn trace_flag_writes_parseable_chrome_trace() {
        let dir = std::env::temp_dir().join("bgpc-cli-trace-ok");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.trace.json");
        let code = cmd_color(&s(&[
            "--dataset",
            "af_shell10",
            "--scale",
            "0.002",
            "--threads",
            "3",
            "--metrics",
            "--trace",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = trace::reader::ChromeTrace::parse(&text)
            .unwrap_or_else(|e| panic!("emitted trace must satisfy the schema: {e}"));
        // Every team member accumulated busy time through its region guard.
        assert_eq!(parsed.busy_per_thread().len(), 3);
        assert!(parsed.spans().count() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_to_unwritable_directory_exits_with_output_code() {
        let code = cmd_color(&s(&[
            "--dataset",
            "af_shell10",
            "--scale",
            "0.002",
            "--trace",
            "/definitely/not/a/dir/run.trace.json",
        ]));
        assert_eq!(code, EXIT_OUTPUT);
    }

    #[test]
    fn bin_input_roundtrips_through_cli() {
        let dir = std::env::temp_dir().join("bgpc-cli-bin-ok");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.bin");
        let m = sparse::gen::bipartite_uniform(20, 30, 120, 3);
        sparse::bin_io::write_bin_file(&path, &m).unwrap();
        let code = cmd_color(&s(&["--bin", path.to_str().unwrap()]));
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bin_with_corrupt_payload_exits_with_input_code() {
        // Clobber a column index inside the checksummed region: the
        // hardened reader must reject the file with the structured
        // checksum-mismatch error, mapped to the input code.
        let dir = std::env::temp_dir().join("bgpc-cli-bin-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        let m = sparse::gen::bipartite_uniform(10, 10, 40, 1);
        let mut buf = Vec::new();
        sparse::bin_io::write_bin(&mut buf, &m).unwrap();
        let len = buf.len();
        // The last 8 bytes are the trailer; corrupt the last col index.
        buf[len - 12..len - 8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();

        let Err(f) = load(&Input::Bin(path.to_str().unwrap().into())) else {
            panic!("corrupt bin must fail to load");
        };
        assert_eq!(f.code, EXIT_INPUT);
        assert!(
            f.msg.contains("checksum mismatch"),
            "error must name the structured corruption: {}",
            f.msg
        );
        let code = cmd_color(&s(&["--bin", path.to_str().unwrap()]));
        assert_eq!(code, EXIT_INPUT);
        std::fs::remove_dir_all(&dir).ok();
    }
}
