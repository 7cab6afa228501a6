//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <target> [flags]
//!
//! targets: all, table1, table2, table3, table4, table5, table6,
//!          figure1, figure2, figure3, ablations, analysis, dist, delta
//! flags:   --scale F  --seed N  --threads a,b,c  --datasets x,y  --reps N
//! ```
//!
//! Text output goes to stdout; JSON records are written next to the
//! repository's EXPERIMENTS.md under `results/` when run through cargo,
//! else under `./results`.

use std::path::PathBuf;

use bench::report::write_json;
use bench::{figures, tables, ReproConfig};
use graph::Ordering;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, flags) = match args.split_first() {
        Some((t, rest)) if !t.starts_with("--") => (t.clone(), rest.to_vec()),
        _ => ("all".to_string(), args),
    };
    let cfg = match ReproConfig::from_args(&flags) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: repro [all|table1..table6|figure1..figure3|ablations|analysis|dist|delta] [--scale F] [--seed N] [--threads a,b,c] [--datasets x,y] [--reps N]");
            std::process::exit(2);
        }
    };

    println!(
        "# BGPC reproduction — scale {} seed {} threads {:?} ({} hardware threads available)",
        cfg.scale,
        cfg.seed,
        cfg.threads,
        par::available_threads()
    );
    if par::available_threads() < cfg.max_threads() {
        println!(
            "# NOTE: host exposes {} hardware thread(s); thread counts beyond that time-slice,",
            par::available_threads()
        );
        println!("#       so wall-clock speedups will underrepresent the paper's 16-core results.");
    }
    println!();

    let out_dir = results_dir();
    let run = |name: &str| target == "all" || target == name;
    let mut ran_any = false;

    if run("table1") {
        ran_any = true;
        section("Table I — |W_next| after the first iteration (net-coloring variants)");
        let (text, records) = tables::table1(&cfg);
        println!("{text}");
        checked_write(&out_dir, "table1", &records);
    }
    if run("table2") {
        ran_any = true;
        section("Table II — instances and sequential BGPC baselines");
        let (text, rows) = tables::table2(&cfg);
        println!("{text}");
        checked_write(&out_dir, "table2", &rows);
    }
    if run("table3") {
        ran_any = true;
        section("Table III — BGPC speedups, natural order (geo-means; ref = V-V)");
        let (text, rows, records) = tables::bgpc_speedup_table(&cfg, Ordering::Natural);
        println!("{text}");
        checked_write(&out_dir, "table3", &rows);
        checked_write(&out_dir, "table3_runs", &records);
    }
    if run("table4") {
        ran_any = true;
        section("Table IV — BGPC speedups, smallest-last order (geo-means; ref = V-V)");
        let (text, rows, records) = tables::bgpc_speedup_table(&cfg, Ordering::SmallestLast);
        println!("{text}");
        checked_write(&out_dir, "table4", &rows);
        checked_write(&out_dir, "table4_runs", &records);
    }
    if run("table5") {
        ran_any = true;
        section("Table V — D2GC speedups, natural order (ref = V-V-64D)");
        let (text, rows, records) = tables::d2gc_speedup_table(&cfg);
        println!("{text}");
        checked_write(&out_dir, "table5", &rows);
        checked_write(&out_dir, "table5_runs", &records);
    }
    if run("table6") {
        ran_any = true;
        section("Table VI — balancing heuristics (normalized to unbalanced)");
        let (text, rows) = tables::table6(&cfg);
        println!("{text}");
        checked_write(&out_dir, "table6", &rows);
    }
    if run("figure1") {
        ran_any = true;
        section("Figure 1 — per-iteration phase times (coPapersDBLP analogue)");
        let (text, points) = figures::figure1(&cfg);
        println!("{text}");
        checked_write(&out_dir, "figure1", &points);
    }
    if run("figure2") {
        ran_any = true;
        section("Figure 2 — time and colors per matrix × algorithm × threads");
        let (text, records) = figures::figure2(&cfg);
        println!("{text}");
        checked_write(&out_dir, "figure2", &records);
    }
    if run("figure3") {
        ran_any = true;
        section("Figure 3 — color-set cardinality distributions (coPapersDBLP analogue)");
        let (text, series) = figures::figure3(&cfg);
        println!("{text}");
        checked_write(&out_dir, "figure3", &series);
    }

    if run("ablations") {
        ran_any = true;
        section("Ablation — dynamic chunk size (V-V-64D family)");
        let (text, rows) = bench::ablation::chunk_sweep(&cfg);
        println!("{text}");
        checked_write(&out_dir, "ablation_chunk", &rows);

        section("Ablation — conflict-queue strategy");
        let (text, rows) = bench::ablation::queue_sweep(&cfg);
        println!("{text}");
        checked_write(&out_dir, "ablation_queue", &rows);

        section("Ablation — net-coloring variant inside N1-N2");
        let (text, rows) = bench::ablation::net_variant_sweep(&cfg);
        println!("{text}");
        checked_write(&out_dir, "ablation_net_variant", &rows);

        section("Ablation — iterative recoloring post-pass");
        let (text, rows) = bench::ablation::recolor_sweep(&cfg);
        println!("{text}");
        checked_write(&out_dir, "ablation_recolor", &rows);

        section("Ablation — Jones-Plassmann (MIS-based) vs speculative N1-N2");
        let (text, rows) = bench::ablation::jp_sweep(&cfg);
        println!("{text}");
        checked_write(&out_dir, "ablation_jp", &rows);

        section("Ablation — forbidden-set representation (StampSet vs BitStampSet)");
        let (text, rows) = bench::ablation::forbidden_sweep(&cfg);
        println!("{text}");
        checked_write(&out_dir, "ablation_forbidden", &rows);
    }

    if run("analysis") {
        ran_any = true;
        section("Analysis — predicted vs measured first-iteration work ratios (§III)");
        let (text, rows) = bench::analysis::predicted_vs_measured(&cfg);
        println!("{text}");
        checked_write(&out_dir, "analysis", &rows);
    }
    if run("dist") {
        ran_any = true;
        section("Extension — BSP distributed-memory baseline (rounds, messages, colors)");
        let (text, rows) = bench::distrib::dist_sweep(&cfg);
        println!("{text}");
        checked_write(&out_dir, "dist", &rows);
    }
    if run("delta") {
        ran_any = true;
        section("Extension — incremental update vs full recolor (coPapersDBLP analogue)");
        let (text, rows) = bench::delta::delta_sweep(&cfg);
        println!("{text}");
        checked_write(&out_dir, "delta", &rows);
    }

    if !ran_any {
        eprintln!("error: unknown target `{target}`");
        std::process::exit(2);
    }
    println!("# JSON records written to {}", out_dir.display());
}

fn section(title: &str) {
    println!("## {title}");
}

fn results_dir() -> PathBuf {
    // workspace root when run via cargo, else cwd
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../../results"))
        .unwrap_or_else(|_| PathBuf::from("results"))
}

fn checked_write<T: bench::json::ToJson>(dir: &std::path::Path, name: &str, records: &T) {
    if let Err(e) = write_json(dir, name, records) {
        eprintln!("warning: could not write {name}.json: {e}");
    }
}
