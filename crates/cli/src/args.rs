//! Flag parsing for the `bgpc-cli` front end (no external parser crate —
//! the offline dependency budget goes to the algorithms).

use bgpc::Schedule;
use graph::Ordering;
use sparse::{Dataset, IndexWidth, LocalityOrder};

/// Which coloring problem to solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// Bipartite-graph partial coloring of the columns.
    Bgpc,
    /// Distance-2 coloring (requires a symmetric pattern).
    D2gc,
    /// Distance-1 coloring (requires a symmetric pattern).
    D1gc,
    /// Distance-k coloring with the given k.
    Dk(usize),
}

/// Where the input pattern comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// Matrix Market file path.
    Mtx(String),
    /// Binary cache file path (`sparse::bin_io` format).
    Bin(String),
    /// Synthetic analogue of a paper dataset at a scale.
    Dataset { dataset: Dataset, scale: f64, seed: u64 },
}

/// Parsed `color` command configuration.
#[derive(Clone, Debug)]
pub struct ColorArgs {
    /// Input pattern.
    pub input: Input,
    /// Problem variant.
    pub problem: Problem,
    /// Algorithm schedule.
    pub schedule: Schedule,
    /// Vertex processing order.
    pub ordering: Ordering,
    /// Team size.
    pub threads: usize,
    /// Row-pointer index width (`None` = pick by nonzero count).
    pub index_width: Option<IndexWidth>,
    /// Locality relabeling applied to the pattern before coloring; the
    /// reported coloring is always mapped back to original ids.
    pub relabel: LocalityOrder,
    /// Run the iterative-recoloring post-pass.
    pub recolor: bool,
    /// Optional output path for `vertex color` lines.
    pub output: Option<String>,
    /// Optional chrome-trace output path; installs a [`trace::Recorder`]
    /// on the pool for the run.
    pub trace: Option<String>,
    /// Print per-iteration thread counters and the imbalance table (also
    /// installs a recorder).
    pub metrics: bool,
    /// Pin team members to CPUs in core-major topology order.
    pub pin: bool,
}

/// Usage text for the `color` command.
pub const COLOR_USAGE: &str = "\
usage: bgpc-cli color [--mtx FILE | --bin FILE | --dataset NAME [--scale F] [--seed N]]
                      [--problem bgpc|d2gc|d1gc|dK] [--schedule NAME]
                      [--order natural|random:SEED|largest-first|smallest-last|incidence-degree]
                      [--index-width auto|u32|u64] [--relabel none|degree|bfs]
                      [--pin]
                      [--threads N] [--recolor] [--output FILE]
                      [--trace FILE] [--metrics]

schedules: V-V, V-V-64, V-V-64D, V-Ninf, V-N1, V-N2, N1-N2, N2-N2
           (append -B1 or -B2 for the balancing heuristics)
datasets:  20M_movielens af_shell10 bone010 channel coPapersDBLP HV15R
           nlpkkt120 uk-2002";

impl ColorArgs {
    /// Parses the flag list following the `color` subcommand.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut mtx: Option<String> = None;
        let mut bin: Option<String> = None;
        let mut dataset: Option<Dataset> = None;
        let mut scale = 0.01;
        let mut seed = 20170814u64;
        let mut problem = Problem::Bgpc;
        let mut schedule = Schedule::n1_n2();
        let mut ordering = Ordering::Natural;
        let mut threads = par::available_threads();
        let mut index_width: Option<IndexWidth> = None;
        let mut relabel = LocalityOrder::None;
        let mut pin = false;
        let mut recolor = false;
        let mut output = None;
        let mut trace = None;
        let mut metrics = false;

        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: usize| -> Result<&String, String> {
                args.get(i + 1)
                    .ok_or_else(|| format!("missing value after {flag}"))
            };
            match flag {
                "--mtx" => {
                    mtx = Some(value(i)?.clone());
                    i += 2;
                }
                "--bin" => {
                    bin = Some(value(i)?.clone());
                    i += 2;
                }
                "--dataset" => {
                    dataset = Some(
                        Dataset::from_name(value(i)?)
                            .ok_or_else(|| format!("unknown dataset `{}`", args[i + 1]))?,
                    );
                    i += 2;
                }
                "--scale" => {
                    scale = value(i)?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                    i += 2;
                }
                "--seed" => {
                    seed = value(i)?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                    i += 2;
                }
                "--problem" => {
                    problem = parse_problem(value(i)?)?;
                    i += 2;
                }
                "--schedule" => {
                    schedule = Schedule::from_name(value(i)?)
                        .ok_or_else(|| format!("unknown schedule `{}`", args[i + 1]))?;
                    i += 2;
                }
                "--order" => {
                    ordering = parse_ordering(value(i)?)?;
                    i += 2;
                }
                "--threads" => {
                    threads = value(i)?.parse().map_err(|e| format!("bad --threads: {e}"))?;
                    i += 2;
                }
                "--index-width" => {
                    let v = value(i)?;
                    index_width = if v.eq_ignore_ascii_case("auto") {
                        None
                    } else {
                        Some(
                            IndexWidth::from_name(v)
                                .ok_or_else(|| format!("unknown index width `{v}`"))?,
                        )
                    };
                    i += 2;
                }
                "--relabel" => {
                    relabel = LocalityOrder::from_name(value(i)?)
                        .ok_or_else(|| format!("unknown relabeling `{}`", args[i + 1]))?;
                    i += 2;
                }
                "--pin" => {
                    pin = true;
                    i += 1;
                }
                "--recolor" => {
                    recolor = true;
                    i += 1;
                }
                "--output" => {
                    output = Some(value(i)?.clone());
                    i += 2;
                }
                "--trace" => {
                    trace = Some(value(i)?.clone());
                    i += 2;
                }
                "--metrics" => {
                    metrics = true;
                    i += 1;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }

        let input = match (mtx, bin, dataset) {
            (Some(path), None, None) => Input::Mtx(path),
            (None, Some(path), None) => Input::Bin(path),
            (None, None, Some(dataset)) => Input::Dataset { dataset, scale, seed },
            (None, None, None) => {
                return Err("need --mtx FILE, --bin FILE, or --dataset NAME".into())
            }
            _ => return Err("--mtx, --bin, and --dataset are exclusive".into()),
        };
        Ok(Self {
            input,
            problem,
            schedule,
            ordering,
            threads,
            index_width,
            relabel,
            recolor,
            output,
            trace,
            metrics,
            pin,
        })
    }
}

fn parse_problem(s: &str) -> Result<Problem, String> {
    let lower = s.to_ascii_lowercase();
    match lower.as_str() {
        "bgpc" => Ok(Problem::Bgpc),
        "d2gc" | "d2" => Ok(Problem::D2gc),
        "d1gc" | "d1" => Ok(Problem::D1gc),
        _ => {
            if let Some(k) = lower.strip_prefix('d').and_then(|k| k.parse::<usize>().ok()) {
                if k >= 1 {
                    return Ok(Problem::Dk(k));
                }
            }
            Err(format!("unknown problem `{s}` (bgpc, d1gc, d2gc, or dK)"))
        }
    }
}

fn parse_ordering(s: &str) -> Result<Ordering, String> {
    let lower = s.to_ascii_lowercase();
    if let Some(seed) = lower.strip_prefix("random:") {
        let seed: u64 = seed.parse().map_err(|e| format!("bad random seed: {e}"))?;
        return Ok(Ordering::Random(seed));
    }
    match lower.as_str() {
        "natural" => Ok(Ordering::Natural),
        "random" => Ok(Ordering::Random(0)),
        "largest-first" | "lf" => Ok(Ordering::LargestFirst),
        "smallest-last" | "sl" => Ok(Ordering::SmallestLast),
        "incidence-degree" | "id" => Ok(Ordering::IncidenceDegree),
        _ => Err(format!("unknown ordering `{s}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_dataset_run() {
        let a = ColorArgs::parse(&s(&[
            "--dataset",
            "bone010",
            "--scale",
            "0.004",
            "--schedule",
            "v-n2-b1",
            "--order",
            "sl",
            "--threads",
            "4",
            "--recolor",
        ]))
        .unwrap();
        assert_eq!(
            a.input,
            Input::Dataset {
                dataset: Dataset::Bone010,
                scale: 0.004,
                seed: 20170814
            }
        );
        assert_eq!(a.schedule.name(), "V-N2-B1");
        assert_eq!(a.ordering, Ordering::SmallestLast);
        assert_eq!(a.threads, 4);
        assert!(a.recolor);
    }

    #[test]
    fn parse_mtx_and_problems() {
        let a = ColorArgs::parse(&s(&["--mtx", "m.mtx", "--problem", "d2gc"])).unwrap();
        assert_eq!(a.input, Input::Mtx("m.mtx".into()));
        assert_eq!(a.problem, Problem::D2gc);
        let a = ColorArgs::parse(&s(&["--mtx", "m.mtx", "--problem", "d3"])).unwrap();
        assert_eq!(a.problem, Problem::Dk(3));
        let a = ColorArgs::parse(&s(&["--mtx", "m.mtx", "--problem", "d1"])).unwrap();
        assert_eq!(a.problem, Problem::D1gc);
    }

    #[test]
    fn rejects_bad_input_combos() {
        assert!(ColorArgs::parse(&s(&[])).is_err());
        assert!(ColorArgs::parse(&s(&["--mtx", "a", "--dataset", "bone010"])).is_err());
        assert!(ColorArgs::parse(&s(&["--mtx", "a", "--problem", "d0"])).is_err());
        assert!(ColorArgs::parse(&s(&["--mtx", "a", "--schedule", "zzz"])).is_err());
        assert!(ColorArgs::parse(&s(&["--mtx", "a", "--order", "zzz"])).is_err());
        assert!(ColorArgs::parse(&s(&["--nope"])).is_err());
    }

    #[test]
    fn parse_trace_and_metrics() {
        let a = ColorArgs::parse(&s(&["--mtx", "m.mtx", "--trace", "t.json", "--metrics"]))
            .unwrap();
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert!(a.metrics);
        let a = ColorArgs::parse(&s(&["--mtx", "m.mtx"])).unwrap();
        assert_eq!(a.trace, None);
        assert!(!a.metrics);
        // --trace requires a value
        assert!(ColorArgs::parse(&s(&["--mtx", "m.mtx", "--trace"])).is_err());
    }

    #[test]
    fn random_ordering_with_seed() {
        let a = ColorArgs::parse(&s(&["--mtx", "a", "--order", "random:9"])).unwrap();
        assert_eq!(a.ordering, Ordering::Random(9));
    }

    #[test]
    fn parse_width_and_relabel_axes() {
        let a = ColorArgs::parse(&s(&[
            "--bin",
            "m.bin",
            "--index-width",
            "u64",
            "--relabel",
            "bfs",
        ]))
        .unwrap();
        assert_eq!(a.input, Input::Bin("m.bin".into()));
        assert_eq!(a.index_width, Some(IndexWidth::U64));
        assert_eq!(a.relabel, LocalityOrder::Bfs);

        let a = ColorArgs::parse(&s(&["--mtx", "a", "--index-width", "auto"])).unwrap();
        assert_eq!(a.index_width, None);
        assert_eq!(a.relabel, LocalityOrder::None);

        assert!(ColorArgs::parse(&s(&["--mtx", "a", "--index-width", "u128"])).is_err());
        assert!(ColorArgs::parse(&s(&["--mtx", "a", "--relabel", "zzz"])).is_err());
        assert!(ColorArgs::parse(&s(&["--mtx", "a", "--bin", "b"])).is_err());
    }

    #[test]
    fn parse_pin_flag() {
        assert!(ColorArgs::parse(&s(&["--mtx", "a", "--pin"])).unwrap().pin);
        assert!(!ColorArgs::parse(&s(&["--mtx", "a"])).unwrap().pin);
    }
}
