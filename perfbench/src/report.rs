//! Per-op records, order statistics, and the result line.

use std::fmt::Write as _;

/// One measured operation, as seen from outside the system.
#[derive(Clone, Debug)]
pub struct Op {
    /// Latency in milliseconds (from the due time for open-loop requests).
    pub ms: f64,
    /// Colors of the returned coloring (0 when the op failed).
    pub colors: usize,
    /// Error reply, refusal after retries, or a coloring that failed
    /// verification.
    pub failed: bool,
    /// The system flagged the result as degraded.
    pub degraded: bool,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (any order).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median op latency in milliseconds.
pub fn p50(ops: &[Op]) -> f64 {
    median(&ops.iter().map(|o| o.ms).collect::<Vec<_>>())
}

/// A tail percentile is reported only with at least this many samples
/// beyond it; below that it says little.
const MIN_BEYOND_P95: usize = 10;

/// 95th-percentile op latency in milliseconds, or 0 when fewer than
/// `MIN_BEYOND_P95` samples lie beyond it. Prints the sample count and how
/// many samples lie beyond the percentile either way.
pub fn p95(ops: &[Op]) -> f64 {
    let ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let p95 = quantile(&ms, 0.95);
    let beyond = ms.iter().filter(|&&x| x > p95).count();
    println!(
        "# op_ms samples={} p95={p95:.3} beyond_p95={beyond}",
        ms.len()
    );
    if beyond < MIN_BEYOND_P95 {
        0.0
    } else {
        p95
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let value = if value.is_finite() {
                *value
            } else {
                eprintln!("perfbench: metric {name} is not finite ({value}); reported as 0");
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` keeps every digit and always prints a decimal point.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the CPU clock through 64-bit Linux's clock_gettime");

/// CPU time of every thread of this process, in seconds.
///
/// The kernel charges a thread only for the time it ran, so time the host
/// gave to other guests (CPU steal) is left out, unlike wall-clock time.
pub fn process_cpu_s() -> f64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec`, whose layout
    // on 64-bit Linux `Timespec` matches, through a pointer to `ts`, which
    // is valid and writable for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The end-to-end metrics derived from a run's set-ups and ops.
///
/// Times are process CPU time, not wall-clock time: on a shared host, CPU
/// steal moves wall-clock medians by a third or more between runs minutes
/// apart, and the gate needs figures that hold still. Wall-clock latency
/// and throughput are per-layer metrics of the traced run; `slo_ok_frac`
/// holds wall-clock latency to a limit.
pub struct EndToEnd<'a> {
    /// CPU seconds of each repeated set-up.
    pub setup_s: &'a [f64],
    /// Every attempted op of the timed phase.
    pub ops: &'a [Op],
    /// CPU seconds the process spent on those ops.
    pub cpu_s: f64,
    /// The ops whose latency counts against the limit: all of them, except
    /// on `serve-mixed`, where only the open-loop requests wait for a due
    /// time.
    pub timed_ops: &'a [Op],
    /// Latency limit of `slo_ok_frac`, in milliseconds.
    pub slo_ms: f64,
}

impl EndToEnd<'_> {
    pub fn report(&self, m: &mut Metrics) {
        let attempted = self.ops.len().max(1) as f64;
        // Printed for the reader, not reported: see above.
        println!("# op_ms p50={:.3} (wall clock)", p50(self.timed_ops));
        p95(self.timed_ops);
        let colors: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| !o.failed)
            .map(|o| o.colors as f64)
            .collect();
        let failed = self.ops.iter().filter(|o| o.failed).count() as f64;
        let degraded = self.ops.iter().filter(|o| o.degraded).count() as f64;
        let in_slo = self
            .timed_ops
            .iter()
            .filter(|o| !o.failed && o.ms <= self.slo_ms)
            .count() as f64;
        m.put("setup_s", median(self.setup_s), "s");
        m.put("op_cpu_ms", self.cpu_s * 1e3 / attempted, "ms");
        m.put("colors", median(&colors), "count");
        m.put("ok_frac", 1.0 - failed / attempted, "fraction");
        m.put("clean_frac", 1.0 - degraded / attempted, "fraction");
        m.put(
            "slo_ok_frac",
            in_slo / self.timed_ops.len().max(1) as f64,
            "fraction",
        );
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.5, "ms");
        m.put("b", 2.0, "count");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
