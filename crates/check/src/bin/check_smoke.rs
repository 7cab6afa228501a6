//! `check_smoke` — the tier-1 correctness gate.
//!
//! Runs, in order: the interleaving-model explorations (including the
//! detection-power self-test), the op-granularity runs against the real
//! lock-free structures, the differential oracle sweep, and the
//! fault-coverage checks. Everything is seeded: the same `--seed` runs
//! the same interleavings and the same randomized instances, and every
//! failure prints the seed (and, for model failures, the schedule) that
//! replays it.
//!
//! ```text
//! check_smoke [--seed N] [--cases N] [--deep] [--delta] [--dist]
//!             [--replay-case SEED]
//! ```
//!
//! * `--seed N` — base seed (default 20260806).
//! * `--cases N` — differential-oracle cases (default 200).
//! * `--deep` — long mode for `bench.sh --check-deep`: more random
//!   schedules, more oracle cases, plus stall-perturbation runs.
//! * `--delta` — run *only* the incremental-recoloring oracle sweep
//!   ([`check::delta`]): random mutation batches applied with
//!   `apply_delta`, recolored from the dirty set, checked against the
//!   mutated graph and the full-recolor reference. A standalone stage
//!   so `scripts/verify.sh` can gate it with its own case budget.
//! * `--dist` — run *only* the sharded-coloring oracle sweep
//!   ([`check::sharded`]): shard-count × partitioner cases driven
//!   through the multi-process coordinator over loopback worker
//!   daemons, checked for equality with the in-memory runner. A
//!   standalone stage so `scripts/verify.sh` can gate it with its own
//!   case budget.
//! * `--replay-case SEED` — re-run a single oracle case printed by a
//!   failure, then exit (a delta-sweep case with `--delta`, a sharded
//!   case with `--dist`).
//!
//! Exit codes: 0 clean, 1 a check failed, 2 bad usage.

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: check_smoke [--seed N] [--cases N] [--deep] [--delta] [--dist] [--replay-case SEED]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

struct Args {
    seed: u64,
    cases: usize,
    deep: bool,
    delta: bool,
    dist: bool,
    replay_case: Option<u64>,
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        seed: 20260806,
        cases: 200,
        deep: false,
        delta: false,
        dist: false,
        replay_case: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |what: &str| -> Result<u64, ExitCode> {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| {
                    eprintln!("check_smoke: {what} expects an integer argument");
                    usage()
                })
        };
        match arg.as_str() {
            "--seed" => args.seed = take("--seed")?,
            "--cases" => args.cases = take("--cases")? as usize,
            "--deep" => args.deep = true,
            "--delta" => args.delta = true,
            "--dist" => args.dist = true,
            "--replay-case" => args.replay_case = Some(take("--replay-case")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("check_smoke: unknown argument `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

/// Runs one named stage, printing its duration; on failure prints the
/// diagnosis plus the replay instructions and flips the process outcome.
fn stage(name: &str, seed: u64, f: impl FnOnce() -> Result<String, String>) -> bool {
    let t0 = Instant::now();
    match f() {
        Ok(detail) => {
            println!(
                "  ok   {name:<28} {detail} ({:.2?})",
                t0.elapsed()
            );
            true
        }
        Err(message) => {
            println!("  FAIL {name}");
            println!("       {message}");
            println!("       replay: check_smoke --seed {seed}");
            false
        }
    }
}

type Stage = (&'static str, Box<dyn FnOnce() -> Result<String, String>>);

fn model_stages(seed: u64, deep: bool) -> Vec<Stage> {
    use check::models;
    let rounds = if deep { 5000 } else { 500 };
    fn fmt(c: check::Coverage) -> String {
        format!(
            "{} schedules{}",
            c.schedules,
            if c.complete { " (complete)" } else { "" }
        )
    }
    fn cov(
        f: impl FnOnce() -> Result<check::Coverage, check::CheckFailure> + 'static,
    ) -> Box<dyn FnOnce() -> Result<String, String>> {
        Box::new(move || f().map(fmt).map_err(|f| f.to_string()))
    }
    vec![
        (
            "model: detection self-test",
            Box::new(|| {
                models::buggy_queue_must_be_caught().map(|failure| {
                    format!(
                        "planted lost update caught in a {}-step schedule",
                        failure.schedule.len()
                    )
                })
            }),
        ),
        (
            "model: queue push",
            cov(|| models::check_queue_model_exhaustive(2, 2, 8, 200_000)),
        ),
        (
            "model: queue overflow",
            cov(|| models::check_queue_model_exhaustive(2, 2, 2, 200_000)),
        ),
        (
            "model: queue flush",
            cov(|| models::check_flush_model_exhaustive(&[3, 2], 4, 200_000)),
        ),
        (
            "model: cursor claim",
            cov(|| models::check_cursor_model_exhaustive(2, 5, 2, 1_000_000)),
        ),
        (
            "model: cursor claim (random)",
            cov(move || models::check_cursor_model_random(3, 64, 7, seed, rounds)),
        ),
        (
            "real: queue ops",
            cov(|| {
                models::check_real_queue_ops(8, &[2, 2], false, 200_000)
                    .and_then(|_| models::check_real_queue_ops(8, &[2, 2], true, 200_000))
                    .and_then(|_| models::check_real_queue_ops(2, &[2, 2], false, 200_000))
            }),
        ),
        (
            "real: cursor ops",
            cov(|| models::check_real_cursor_ops(2, 7, 2, 1_000_000)),
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    if let Some(case_seed) = args.replay_case {
        println!(
            "replaying {} case seed {case_seed}",
            if args.delta {
                "delta"
            } else if args.dist {
                "sharded"
            } else {
                "oracle"
            }
        );
        let outcome = if args.delta {
            check::run_delta_case_from_seed(case_seed)
        } else if args.dist {
            check::run_sharded_case_from_seed(case_seed)
        } else {
            check::run_case_from_seed(case_seed)
        };
        return match outcome {
            Ok(()) => {
                println!("  ok   case is clean");
                ExitCode::SUCCESS
            }
            Err(message) => {
                println!("  FAIL {message}");
                ExitCode::FAILURE
            }
        };
    }

    if args.delta {
        let t0 = Instant::now();
        println!("check_smoke: seed {} | {} delta cases", args.seed, args.cases);
        println!("incremental-recoloring oracle:");
        let ok = stage("delta: mutation sweep", args.seed, || {
            check::run_delta_sweep(args.seed, args.cases)
                .map(|n| format!("{n} mutation cases, zero divergences"))
                .map_err(|f| {
                    format!(
                        "{f}\n       replay: check_smoke --delta --replay-case {}",
                        f.case_seed
                    )
                })
        });
        println!(
            "check_smoke: {} in {:.2?}",
            if ok { "PASS" } else { "FAIL" },
            t0.elapsed()
        );
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if args.dist {
        let t0 = Instant::now();
        println!("check_smoke: seed {} | {} sharded cases", args.seed, args.cases);
        println!("sharded-coloring oracle:");
        let ok = stage("dist: sharded sweep", args.seed, || {
            check::run_sharded_sweep(args.seed, args.cases)
                .map(|n| format!("{n} sharded cases, zero divergences"))
                .map_err(|f| {
                    format!(
                        "{f}\n       replay: check_smoke --dist --replay-case {}",
                        f.case_seed
                    )
                })
        });
        println!(
            "check_smoke: {} in {:.2?}",
            if ok { "PASS" } else { "FAIL" },
            t0.elapsed()
        );
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let t0 = Instant::now();
    println!(
        "check_smoke: seed {} | {} oracle cases | {} mode",
        args.seed,
        args.cases,
        if args.deep { "deep" } else { "smoke" },
    );
    let mut ok = true;

    println!("interleaving checker:");
    for (name, run) in model_stages(args.seed, args.deep) {
        ok &= stage(name, args.seed, run);
    }

    println!("differential oracle:");
    let cases = if args.deep { args.cases.max(2000) } else { args.cases };
    ok &= stage("oracle: bgpc + d2gc sweep", args.seed, || {
        check::run_oracle_sweep(args.seed, cases)
            .map(|n| format!("{n} cases, zero divergences"))
            .map_err(|f| format!("{f}\n       replay: check_smoke --replay-case {}", f.case_seed))
    });

    println!("fault coverage:");
    ok &= stage("faults: all points caught", args.seed, || {
        check::faultcov::check_all_faults_caught(args.seed)
            .map(|()| "4 fail points contained, reported, repaired".to_string())
    });
    if args.deep {
        ok &= stage("faults: stall perturbation", args.seed, || {
            check::faultcov::check_stall_perturbation(args.seed)
                .map(|()| "timing-skewed runs stayed clean".to_string())
        });
    }

    println!(
        "check_smoke: {} in {:.2?}",
        if ok { "PASS" } else { "FAIL" },
        t0.elapsed()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
