//! Exporters: chrome-trace JSON and the human-readable imbalance table.

use std::fmt::Write as _;

use crate::counter::{Counter, CounterSheet};
use crate::recorder::Recorder;

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders the recorder's spans as a chrome-trace ("Trace Event Format")
/// JSON object, loadable in `chrome://tracing` and Perfetto.
///
/// Spans become `ph: "X"` complete events with microsecond `ts`/`dur`
/// (the format's unit), one `pid` (0) and the team thread id as `tid`.
/// Thread-name metadata events label each row, and per-thread counter
/// totals ride along under `bgpc_counters` so a trace file is
/// self-contained.
pub fn chrome_trace_json(rec: &Recorder, process_name: &str) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |s: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("    ");
        out.push_str(&s);
    };

    let mut meta = String::new();
    meta.push_str("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {\"name\": \"");
    escape_into(&mut meta, process_name);
    meta.push_str("\"}}");
    push_event(meta, &mut out);
    for tid in 0..rec.threads() {
        push_event(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"team-{tid}\"}}}}"
            ),
            &mut out,
        );
    }
    for (tid, e) in rec.events() {
        let ts_us = e.ts_ns as f64 / 1000.0;
        let dur_us = e.dur_ns as f64 / 1000.0;
        let args = if e.iter == u32::MAX {
            String::from("{}")
        } else {
            format!("{{\"iter\": {}}}", e.iter)
        };
        push_event(
            format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {tid}, \
                 \"ts\": {ts_us:.3}, \"dur\": {dur_us:.3}, \"args\": {args}}}",
                e.kind.name()
            ),
            &mut out,
        );
    }
    out.push_str("\n  ],\n  \"bgpc_counters\": [\n");
    let sheets = rec.snapshot_counters();
    for (tid, sheet) in sheets.iter().enumerate() {
        if tid > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "    {{\"tid\": {tid}");
        for c in Counter::ALL {
            let _ = write!(out, ", \"{}\": {}", c.label(), sheet.get(c));
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "\n  ],\n  \"spans_dropped\": {},\n  \"displayTimeUnit\": \"ms\"\n}}\n",
        rec.spans_dropped()
    );
    out
}

/// Formats the per-thread imbalance table: busy time, work counters, and
/// the max/mean busy ratio the paper's balance heuristics target.
///
/// ```text
/// tid   busy_ms  chunks  colored  conflicts
///   0     12.34      81    10241        107
///   ...
/// busy imbalance (max/mean): 1.08
/// ```
pub fn imbalance_table(sheets: &[CounterSheet]) -> String {
    let mut out = String::new();
    out.push_str("tid     busy_ms    chunks    colored  conflicts\n");
    let mut busy_max = 0u64;
    let mut busy_sum = 0u64;
    for (tid, s) in sheets.iter().enumerate() {
        let busy = s.get(Counter::BusyNs);
        busy_max = busy_max.max(busy);
        busy_sum += busy;
        let _ = writeln!(
            out,
            "{tid:>3} {:>11.3} {:>9} {:>10} {:>10}",
            busy as f64 / 1e6,
            s.get(Counter::ChunksClaimed),
            s.get(Counter::VerticesColored),
            s.get(Counter::ConflictsDetected),
        );
    }
    let mean = if sheets.is_empty() {
        0.0
    } else {
        busy_sum as f64 / sheets.len() as f64
    };
    let ratio = if mean > 0.0 {
        busy_max as f64 / mean
    } else {
        0.0
    };
    let _ = writeln!(out, "busy imbalance (max/mean): {ratio:.2}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::SpanKind;

    fn sample_recorder() -> Recorder {
        let rec = Recorder::new(2);
        rec.count(0, Counter::VerticesColored, 10);
        rec.count(1, Counter::VerticesColored, 12);
        rec.count(0, Counter::BusyNs, 2_000_000);
        rec.count(1, Counter::BusyNs, 1_000_000);
        rec.record_span(0, SpanKind::Color, 0, 100, 500);
        rec.record_span(1, SpanKind::Region, u32::MAX, 90, 600);
        rec
    }

    #[test]
    fn chrome_trace_parses_and_carries_spans() {
        let rec = sample_recorder();
        let json = chrome_trace_json(&rec, "unit-test");
        let trace = crate::reader::ChromeTrace::parse(&json).expect("valid chrome trace");
        // 1 process_name + 2 thread_name metadata + 2 span events.
        assert_eq!(trace.events.len(), 5);
        assert_eq!(trace.spans().count(), 2);
        let color = trace.spans().find(|e| e.name == "color").unwrap();
        assert_eq!(color.tid, 0);
        assert!((color.dur_us - 0.5).abs() < 1e-9);
    }

    #[test]
    fn imbalance_table_lists_each_thread() {
        let rec = sample_recorder();
        let table = imbalance_table(&rec.snapshot_counters());
        assert!(table.contains("busy imbalance (max/mean): 1.33"));
        assert_eq!(table.lines().count(), 4); // header + 2 rows + ratio
    }

    #[test]
    fn empty_recorder_exports_cleanly() {
        let rec = Recorder::new(1);
        let json = chrome_trace_json(&rec, "empty");
        crate::reader::ChromeTrace::parse(&json).expect("valid");
        assert!(imbalance_table(&rec.snapshot_counters()).contains("(max/mean): 0.00"));
    }
}
