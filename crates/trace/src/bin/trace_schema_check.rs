//! Validates a chrome-trace JSON file and prints its per-thread summary.
//!
//! Usage: `trace_schema_check FILE [--quiet]`
//!
//! Exit codes: 0 = valid, 1 = schema violation, 2 = usage/IO error.
//! The bench-smoke step of `scripts/verify.sh` runs this against the file
//! `bgpc-cli color --trace` emits.

use std::process::ExitCode;

use trace::reader::ChromeTrace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [path] = files.as_slice() else {
        eprintln!("usage: trace_schema_check FILE [--quiet]");
        return ExitCode::from(2);
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_schema_check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match ChromeTrace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_schema_check: {path}: INVALID: {e}");
            return ExitCode::from(1);
        }
    };

    let spans = trace.spans().count();
    let busy = trace.busy_per_thread();
    if !quiet {
        println!(
            "{path}: OK ({} events, {spans} spans, {} threads with busy time)",
            trace.events.len(),
            busy.len()
        );
        if !busy.is_empty() {
            let max = busy.iter().map(|&(_, b)| b).fold(0.0f64, f64::max);
            let mean = busy.iter().map(|&(_, b)| b).sum::<f64>() / busy.len() as f64;
            println!("tid     busy_ms");
            for (tid, us) in &busy {
                println!("{tid:>3} {:>11.3}", us / 1e3);
            }
            let ratio = if mean > 0.0 { max / mean } else { 0.0 };
            println!("busy imbalance (max/mean): {ratio:.2}");
        }
    }
    ExitCode::SUCCESS
}
