//! Deterministic exports: Chrome trace-event JSON (Perfetto-loadable) and
//! CSV.
//!
//! All rendering is integer-based or fixed-precision — no locale, no float
//! shortest-round-trip — so identical traces serialize to byte-identical
//! files on every platform.

use std::borrow::Borrow;
use std::fmt::Write as _;

use crate::collect::CellTrace;
use crate::event::{Stage, APP_NONE, SEQ_NONE};

// Code outside the workspace names the checker by these paths.
pub use crate::json::{validate as validate_json, MAX_JSON_DEPTH};

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str, out: &mut String) {
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

/// `"00"` through `"99"`, two bytes each.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Decimal digits of `v`, right-aligned in `buf`, two per division;
/// returns the index of the first digit. The one integer writer behind
/// every per-event field.
fn decimal(mut v: u64, buf: &mut [u8]) -> usize {
    let mut i = buf.len();
    let mut pair = |i: &mut usize, p: usize| {
        *i -= 2;
        buf[*i..*i + 2].copy_from_slice(&DIGIT_PAIRS[2 * p..2 * p + 2]);
    };
    while v >= 100 {
        pair(&mut i, (v % 100) as usize);
        v /= 100;
    }
    if v >= 10 {
        pair(&mut i, v as usize);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

fn push_ascii(out: &mut String, digits: &[u8]) {
    out.push_str(std::str::from_utf8(digits).expect("decimal digits are ASCII"));
}

/// Append `v` in decimal (what `write!(out, "{v}")` renders).
fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = decimal(v, &mut buf);
    push_ascii(out, &buf[start..]);
}

/// Microsecond timestamp with fixed 3-digit sub-µs precision, rendered
/// from the integer nanosecond clock (Chrome trace `ts` is in µs).
fn ts_us(t_ns: u64, out: &mut String) {
    let mut buf = [0u8; 24];
    let sub_us = t_ns % 1000;
    buf[20..].copy_from_slice(&[
        b'.',
        b'0' + (sub_us / 100) as u8,
        b'0' + (sub_us / 10 % 10) as u8,
        b'0' + (sub_us % 10) as u8,
    ]);
    let start = decimal(t_ns / 1000, &mut buf[..20]);
    push_ascii(out, &buf[start..]);
}

/// Bytes reserved per event row, a little above the typical row (131 B
/// JSON and 110 B CSV on a traced fig6.2b sweep; a sched span is about
/// 110 B). An export that runs past its reservation grows the buffer;
/// the bytes never depend on it.
const JSON_EVENT_BYTES: usize = 144;
const CSV_EVENT_BYTES: usize = 128;

/// Render collected cells as Chrome trace-event JSON.
///
/// Each cell becomes a process (`pid` = index in deterministic cell
/// order), each SUT a thread. Packet-lifecycle events are instant events
/// (`ph:"i"`); per-CPU scheduling records (present only under the `sched`
/// filter) are complete spans (`ph:"X"`) on synthetic per-CPU thread rows;
/// per-consumer drop attribution is emitted as counter events (`ph:"C"`)
/// whose args carry the exact bucket counts; each SUT ends with a
/// `metrics` summary event carrying its registry. `cells` may be owned
/// cells or a [`TraceCollector`](crate::TraceCollector)'s shared ones.
pub fn chrome_trace_json<C: Borrow<CellTrace>>(cells: &[C]) -> String {
    let rows: usize = cells
        .iter()
        .flat_map(|c| &c.borrow().suts)
        .map(|s| s.report.events.len() + s.report.sched.len())
        .sum();
    let mut out = String::with_capacity(4096 + cells.len() * 1024 + rows * JSON_EVENT_BYTES);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
            out.push('\n');
        } else {
            out.push_str(",\n");
        }
    };
    // Each instant row starts with its stage's constant head, indexed by
    // discriminant (`Stage::ALL` is in that order); every row follows
    // the thread_name row, so it takes the `,\n` separator.
    let heads = Stage::ALL.map(|stage| {
        format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
            stage.name(),
            stage.category()
        )
    });
    for (pid, cell) in cells.iter().map(Borrow::borrow).enumerate() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\""
        );
        escape_json(&cell.label, &mut out);
        let _ = write!(out, " [{:032x}]\"}}}}", cell.key);
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\
             \"args\":{{\"sort_index\":{pid}}}}}"
        );
        for (tid, sut) in cell.suts.iter().enumerate() {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\""
            );
            escape_json(&sut.label, &mut out);
            out.push_str("\"}}");
            // The pid/tid tail is the same on every row of this SUT.
            let tail = format!(",\"pid\":{pid},\"tid\":{tid},\"args\":{{");
            let mut end_ns: u64 = 0;
            for ev in &sut.report.events {
                end_ns = end_ns.max(ev.t_ns);
                out.push_str(&heads[ev.stage as usize]);
                ts_us(ev.t_ns, &mut out);
                out.push_str(&tail);
                if ev.seq != SEQ_NONE {
                    out.push_str("\"seq\":");
                    push_u64(&mut out, ev.seq);
                    out.push(',');
                }
                out.push_str("\"bytes\":");
                push_u64(&mut out, ev.bytes);
                out.push_str(",\"count\":");
                push_u64(&mut out, u64::from(ev.count));
                if ev.app != APP_NONE {
                    out.push_str(",\"app\":");
                    push_u64(&mut out, u64::from(ev.app));
                }
                out.push_str("}}");
            }
            // Per-CPU scheduling spans on synthetic thread rows (one per
            // CPU), so Perfetto shows a timeline per CPU under the SUT.
            // Absent unless the `sched` filter was requested, keeping
            // untraced-sched exports byte-identical.
            if !sut.report.sched.is_empty() {
                let sched_tid = |cpu: u16| 1000 + tid as u64 * 64 + cpu as u64;
                let mut named: u64 = 0;
                for ev in &sut.report.sched {
                    end_ns = end_ns.max(ev.t_ns + ev.dur_ns);
                    if named & (1u64 << (ev.cpu % 64)) == 0 {
                        named |= 1u64 << (ev.cpu % 64);
                        sep(&mut out, &mut first);
                        let _ = write!(
                            out,
                            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\
                             \"args\":{{\"name\":\"cpu{} [",
                            sched_tid(ev.cpu),
                            ev.cpu
                        );
                        escape_json(&sut.label, &mut out);
                        out.push_str("]\"}}");
                    }
                    out.push_str(",\n{\"name\":\"");
                    out.push_str(ev.kind.name());
                    out.push_str("\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":");
                    ts_us(ev.t_ns, &mut out);
                    out.push_str(",\"dur\":");
                    ts_us(ev.dur_ns, &mut out);
                    out.push_str(",\"pid\":");
                    push_u64(&mut out, pid as u64);
                    out.push_str(",\"tid\":");
                    push_u64(&mut out, sched_tid(ev.cpu));
                    out.push_str(",\"args\":{\"cpu\":");
                    push_u64(&mut out, u64::from(ev.cpu));
                    if ev.app != APP_NONE {
                        out.push_str(",\"app\":");
                        push_u64(&mut out, u64::from(ev.app));
                    }
                    out.push_str("}}");
                }
            }
            // Exact drop attribution per consumer, as counter events. These
            // come from the sim's end-of-run accounting, not the (bounded)
            // event buffer, so the bucket sums are exact even when the
            // event log truncated.
            for (app, attr) in sut.attributions.iter().enumerate() {
                sep(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"name\":\"drop_attribution/app{app}\",\"ph\":\"C\",\"ts\":"
                );
                ts_us(end_ns, &mut out);
                out.push_str(&tail);
                for (i, (col, v)) in crate::DropAttribution::COLUMNS
                    .iter()
                    .zip(attr.values())
                    .enumerate()
                {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{col}\":{v}");
                }
                out.push_str("}}");
            }
            // Metrics summary for the SUT.
            sep(&mut out, &mut first);
            out.push_str(
                "{\"name\":\"metrics\",\"cat\":\"summary\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
            );
            ts_us(end_ns, &mut out);
            out.push_str(&tail);
            let mut first_arg = true;
            let key = |out: &mut String, first_arg: &mut bool, k: &str| {
                if !*first_arg {
                    out.push(',');
                }
                *first_arg = false;
                out.push('"');
                escape_json(k, out);
                out.push_str("\":");
            };
            key(&mut out, &mut first_arg, "truncated_events");
            let _ = write!(out, "{}", sut.report.truncated);
            for (name, v) in sut.report.metrics.counters() {
                key(&mut out, &mut first_arg, &format!("counter/{name}"));
                let _ = write!(out, "{v}");
            }
            for (name, v) in sut.report.metrics.gauges() {
                key(&mut out, &mut first_arg, &format!("gauge/{name}"));
                // JSON has no NaN/inf literals; a non-finite gauge becomes
                // null rather than corrupting the whole file.
                if v.is_finite() {
                    let _ = write!(out, "{v:.6}");
                } else {
                    out.push_str("null");
                }
            }
            for (name, h) in sut.report.metrics.digests() {
                key(&mut out, &mut first_arg, &format!("hist/{name}/count"));
                let _ = write!(out, "{}", h.count());
                key(&mut out, &mut first_arg, &format!("hist/{name}/min"));
                let _ = write!(out, "{}", h.min());
                key(&mut out, &mut first_arg, &format!("hist/{name}/max"));
                let _ = write!(out, "{}", h.max());
                key(&mut out, &mut first_arg, &format!("hist/{name}/mean"));
                let _ = write!(out, "{:.3}", h.mean());
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Render collected cells (owned or shared, as for
/// [`chrome_trace_json`]) as a flat CSV (one row per event).
pub fn events_csv<C: Borrow<CellTrace>>(cells: &[C]) -> String {
    let events: usize = cells
        .iter()
        .flat_map(|c| &c.borrow().suts)
        .map(|s| s.report.events.len())
        .sum();
    let mut out = String::with_capacity(4096 + events * CSV_EVENT_BYTES);
    out.push_str("cell_key,cell,sut,t_ns,stage,category,seq,bytes,app,count\n");
    // `,stage,category,` is the same on every row of one stage.
    let heads = Stage::ALL.map(|stage| format!(",{},{},", stage.name(), stage.category()));
    for cell in cells.iter().map(Borrow::borrow) {
        for sut in &cell.suts {
            // `cell_key,cell,sut,` is the same on every row of this SUT.
            let mut prefix = format!("{:032x},", cell.key);
            csv_field(&cell.label, &mut prefix);
            prefix.push(',');
            csv_field(&sut.label, &mut prefix);
            prefix.push(',');
            for ev in &sut.report.events {
                out.push_str(&prefix);
                push_u64(&mut out, ev.t_ns);
                out.push_str(&heads[ev.stage as usize]);
                if ev.seq != SEQ_NONE {
                    push_u64(&mut out, ev.seq);
                }
                out.push(',');
                push_u64(&mut out, ev.bytes);
                out.push(',');
                if ev.app != APP_NONE {
                    push_u64(&mut out, u64::from(ev.app));
                }
                out.push(',');
                push_u64(&mut out, u64::from(ev.count));
                out.push('\n');
            }
        }
    }
    out
}

/// Quote a CSV field if it contains a comma, quote, or newline.
fn csv_field(s: &str, out: &mut String) {
    if s.contains([',', '"', '\n']) {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::SutTrace;
    use crate::event::{SchedEvent, Stage, TraceEvent, WorkKind};
    use crate::json::validate;
    use crate::sink::TraceReport;
    use crate::DropAttribution;
    use proptest::prelude::*;

    // Byte-identity oracle: the renderers written with `write!` for every
    // field, which the direct-to-bytes per-event loops above must match.

    fn reference_ts_us(t_ns: u64, out: &mut String) {
        let _ = write!(out, "{}.{:03}", t_ns / 1000, t_ns % 1000);
    }

    fn reference_chrome_trace_json(cells: &[CellTrace]) -> String {
        let mut out = String::with_capacity(4096 + cells.len() * 1024);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let sep = |out: &mut String, first: &mut bool| {
            if *first {
                *first = false;
                out.push('\n');
            } else {
                out.push_str(",\n");
            }
        };
        for (pid, cell) in cells.iter().enumerate() {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\""
            );
            escape_json(&cell.label, &mut out);
            let _ = write!(out, " [{:032x}]\"}}}}", cell.key);
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\
                 \"args\":{{\"sort_index\":{pid}}}}}"
            );
            for (tid, sut) in cell.suts.iter().enumerate() {
                sep(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\""
                );
                escape_json(&sut.label, &mut out);
                out.push_str("\"}}");
                let mut end_ns: u64 = 0;
                for ev in &sut.report.events {
                    end_ns = end_ns.max(ev.t_ns);
                    sep(&mut out, &mut first);
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
                        ev.stage.name(),
                        ev.stage.category()
                    );
                    reference_ts_us(ev.t_ns, &mut out);
                    let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"args\":{{");
                    let mut first_arg = true;
                    let mut arg = |out: &mut String, k: &str, v: u64| {
                        if !first_arg {
                            out.push(',');
                        }
                        first_arg = false;
                        let _ = write!(out, "\"{k}\":{v}");
                    };
                    if ev.seq != SEQ_NONE {
                        arg(&mut out, "seq", ev.seq);
                    }
                    arg(&mut out, "bytes", ev.bytes);
                    arg(&mut out, "count", ev.count as u64);
                    if ev.app != APP_NONE {
                        arg(&mut out, "app", ev.app as u64);
                    }
                    out.push_str("}}");
                }
                // Per-CPU scheduling spans on synthetic thread rows (one per
                // CPU), so Perfetto shows a timeline per CPU under the SUT.
                // Absent unless the `sched` filter was requested, keeping
                // untraced-sched exports byte-identical.
                if !sut.report.sched.is_empty() {
                    let sched_tid = |cpu: u16| 1000 + tid as u64 * 64 + cpu as u64;
                    let mut named: u64 = 0;
                    for ev in &sut.report.sched {
                        end_ns = end_ns.max(ev.t_ns + ev.dur_ns);
                        if named & (1u64 << (ev.cpu % 64)) == 0 {
                            named |= 1u64 << (ev.cpu % 64);
                            sep(&mut out, &mut first);
                            let _ = write!(
                                out,
                                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\
                                 \"args\":{{\"name\":\"cpu{} [",
                                sched_tid(ev.cpu),
                                ev.cpu
                            );
                            escape_json(&sut.label, &mut out);
                            out.push_str("]\"}}");
                        }
                        sep(&mut out, &mut first);
                        let _ = write!(
                            out,
                            "{{\"name\":\"{}\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":",
                            ev.kind.name()
                        );
                        reference_ts_us(ev.t_ns, &mut out);
                        out.push_str(",\"dur\":");
                        reference_ts_us(ev.dur_ns, &mut out);
                        let _ = write!(
                            out,
                            ",\"pid\":{pid},\"tid\":{},\"args\":{{\"cpu\":{}",
                            sched_tid(ev.cpu),
                            ev.cpu
                        );
                        if ev.app != APP_NONE {
                            let _ = write!(out, ",\"app\":{}", ev.app);
                        }
                        out.push_str("}}");
                    }
                }
                // Exact drop attribution per consumer, as counter events. These
                // come from the sim's end-of-run accounting, not the (bounded)
                // event buffer, so the bucket sums are exact even when the
                // event log truncated.
                for (app, attr) in sut.attributions.iter().enumerate() {
                    sep(&mut out, &mut first);
                    let _ = write!(
                        out,
                        "{{\"name\":\"drop_attribution/app{app}\",\"ph\":\"C\",\"ts\":"
                    );
                    reference_ts_us(end_ns, &mut out);
                    let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"args\":{{");
                    for (i, (col, v)) in crate::DropAttribution::COLUMNS
                        .iter()
                        .zip(attr.values())
                        .enumerate()
                    {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{col}\":{v}");
                    }
                    out.push_str("}}");
                }
                // Metrics summary for the SUT.
                sep(&mut out, &mut first);
                out.push_str(
                    "{\"name\":\"metrics\",\"cat\":\"summary\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
                );
                reference_ts_us(end_ns, &mut out);
                let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"args\":{{");
                let mut first_arg = true;
                let key = |out: &mut String, first_arg: &mut bool, k: &str| {
                    if !*first_arg {
                        out.push(',');
                    }
                    *first_arg = false;
                    out.push('"');
                    escape_json(k, out);
                    out.push_str("\":");
                };
                key(&mut out, &mut first_arg, "truncated_events");
                let _ = write!(out, "{}", sut.report.truncated);
                for (name, v) in sut.report.metrics.counters() {
                    key(&mut out, &mut first_arg, &format!("counter/{name}"));
                    let _ = write!(out, "{v}");
                }
                for (name, v) in sut.report.metrics.gauges() {
                    key(&mut out, &mut first_arg, &format!("gauge/{name}"));
                    // JSON has no NaN/inf literals; a non-finite gauge becomes
                    // null rather than corrupting the whole file.
                    if v.is_finite() {
                        let _ = write!(out, "{v:.6}");
                    } else {
                        out.push_str("null");
                    }
                }
                for (name, h) in sut.report.metrics.digests() {
                    key(&mut out, &mut first_arg, &format!("hist/{name}/count"));
                    let _ = write!(out, "{}", h.count());
                    key(&mut out, &mut first_arg, &format!("hist/{name}/min"));
                    let _ = write!(out, "{}", h.min());
                    key(&mut out, &mut first_arg, &format!("hist/{name}/max"));
                    let _ = write!(out, "{}", h.max());
                    key(&mut out, &mut first_arg, &format!("hist/{name}/mean"));
                    let _ = write!(out, "{:.3}", h.mean());
                }
                out.push_str("}}");
            }
        }
        out.push_str("\n]}\n");
        out
    }

    fn reference_events_csv(cells: &[CellTrace]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("cell_key,cell,sut,t_ns,stage,category,seq,bytes,app,count\n");
        for cell in cells {
            for sut in &cell.suts {
                for ev in &sut.report.events {
                    let _ = write!(out, "{:032x},", cell.key);
                    csv_field(&cell.label, &mut out);
                    out.push(',');
                    csv_field(&sut.label, &mut out);
                    let _ = write!(
                        out,
                        ",{},{},{},",
                        ev.t_ns,
                        ev.stage.name(),
                        ev.stage.category()
                    );
                    if ev.seq != SEQ_NONE {
                        let _ = write!(out, "{}", ev.seq);
                    }
                    let _ = write!(out, ",{},", ev.bytes);
                    if ev.app != APP_NONE {
                        let _ = write!(out, "{}", ev.app);
                    }
                    let _ = writeln!(out, ",{}", ev.count);
                }
            }
        }
        out
    }

    fn sample_cells() -> Vec<CellTrace> {
        let mut metrics = crate::MetricsRegistry::new();
        metrics.inc("irq_fires", 2);
        metrics.set_gauge("final_depth", 1.25);
        metrics.observe("latency_ns", 1500);
        vec![CellTrace {
            label: "count=10 seed=1 rate=100 repeat=0".into(),
            key: 0xdead_beef,
            achieved_mbps: 100.0,
            suts: vec![SutTrace {
                label: "FreeBSD \"tcpdump\"".into(),
                report: TraceReport {
                    events: vec![
                        TraceEvent {
                            t_ns: 0,
                            stage: Stage::Wire,
                            seq: 0,
                            bytes: 60,
                            app: APP_NONE,
                            count: 1,
                        },
                        TraceEvent {
                            t_ns: 1234,
                            stage: Stage::AppDeliver,
                            seq: 0,
                            bytes: 60,
                            app: 0,
                            count: 1,
                        },
                    ],
                    sched: Vec::new(),
                    truncated: 0,
                    metrics,
                },
                attributions: vec![DropAttribution {
                    generated: 10,
                    nic_drops: 1,
                    delivered: 9,
                    ..Default::default()
                }],
                stage_times: None,
            }],
        }]
    }

    #[test]
    fn chrome_json_is_valid_and_deterministic() {
        let cells = sample_cells();
        let a = chrome_trace_json(&cells);
        let b = chrome_trace_json(&cells);
        assert_eq!(a, b);
        validate(&a).expect("emitted trace JSON must be well-formed");
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"app_deliver\""));
        assert!(a.contains("drop_attribution/app0"));
        assert!(a.contains("\"generated\":10"));
        // escaped quote from the SUT label survived
        assert!(a.contains("FreeBSD \\\"tcpdump\\\""));
    }

    #[test]
    fn sched_spans_render_as_complete_events_on_cpu_rows() {
        let mut cells = sample_cells();
        let without = chrome_trace_json(&cells);
        cells[0].suts[0].report.sched = vec![
            SchedEvent {
                t_ns: 100,
                dur_ns: 50,
                cpu: 0,
                app: APP_NONE,
                kind: WorkKind::KernelBatch,
            },
            SchedEvent {
                t_ns: 200,
                dur_ns: 75,
                cpu: 1,
                app: 0,
                kind: WorkKind::AppChunk,
            },
        ];
        let with = chrome_trace_json(&cells);
        assert_ne!(without, with);
        validate(&with).expect("sched spans must keep the JSON well-formed");
        assert!(with.contains("\"ph\":\"X\""));
        assert!(with.contains("\"kernel_batch\""));
        assert!(with.contains("\"app_chunk\""));
        assert!(with.contains("cpu0 ["));
        assert!(with.contains("cpu1 ["));
        assert!(with.contains("\"dur\":0.075"));
        // Empty sched leaves the export untouched (byte-identity guard).
        cells[0].suts[0].report.sched.clear();
        assert_eq!(chrome_trace_json(&cells), without);
    }

    #[test]
    fn non_finite_gauges_stay_valid_json() {
        let mut cells = sample_cells();
        cells[0].suts[0].report.metrics.set_gauge("bad", f64::NAN);
        cells[0].suts[0]
            .report
            .metrics
            .set_gauge("worse", f64::INFINITY);
        let json = chrome_trace_json(&cells);
        validate(&json).expect("non-finite gauges must not corrupt the JSON");
        assert!(json.contains("\"gauge/bad\":null"));
        assert!(json.contains("\"gauge/worse\":null"));
        assert!(json.contains("\"gauge/final_depth\":1.250000"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let cells = sample_cells();
        let csv = events_csv(&cells);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "cell_key,cell,sut,t_ns,stage,category,seq,bytes,app,count"
        );
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("app_deliver"));
    }

    /// Every sub-µs remainder and the integer extremes, against the
    /// `write!` reference (the remainder needs all 10 bits).
    #[test]
    fn every_sub_microsecond_remainder_matches_the_reference() {
        let mut cells = sample_cells();
        let report = &mut cells[0].suts[0].report;
        let template = report.events[1];
        report.events = (0..=999)
            .map(|sub| TraceEvent {
                t_ns: 123_456_000 + sub,
                ..template
            })
            .collect();
        report.events.push(TraceEvent {
            t_ns: u64::MAX,
            stage: Stage::DiskWrite,
            seq: SEQ_NONE - 1,
            bytes: u64::MAX,
            app: APP_NONE - 1,
            count: u32::MAX,
        });
        report.sched = (0..=999)
            .map(|sub| SchedEvent {
                t_ns: sub,
                dur_ns: 1000 + sub,
                cpu: (sub % 3) as u16,
                app: APP_NONE,
                kind: WorkKind::KernelBatch,
            })
            .collect();
        assert_eq!(
            chrome_trace_json(&cells),
            reference_chrome_trace_json(&cells)
        );
        assert_eq!(events_csv(&cells), reference_events_csv(&cells));
    }

    /// Label characters that exercise both escapers: JSON escapes, CSV
    /// quoting, control characters and multi-byte UTF-8.
    const LABEL_CHARS: &str = "aZ7 =/\",\n\r\t\\\u{0}\u{1f}\u{7f}\u{e9}\u{1f600}";

    fn label() -> impl Strategy<Value = String> {
        let chars: Vec<char> = LABEL_CHARS.chars().collect();
        proptest::collection::vec(0..chars.len(), 0..10)
            .prop_map(move |ix| ix.into_iter().map(|i| chars[i]).collect())
    }

    /// Sim-clock instants, every sub-µs remainder equally likely. Bounded
    /// so `t_ns + dur_ns` stays far from overflow, as in a real run.
    fn instant_ns() -> impl Strategy<Value = u64> {
        (0u64..=(1 << 40), 0u64..=999).prop_map(|(us, sub)| us * 1000 + sub)
    }

    fn app() -> impl Strategy<Value = u16> {
        prop_oneof![Just(APP_NONE), Just(APP_NONE - 1), 0u16..8]
    }

    fn event() -> impl Strategy<Value = TraceEvent> {
        (
            prop_oneof![instant_ns(), any::<u64>()],
            0..Stage::ALL.len(),
            prop_oneof![Just(SEQ_NONE), Just(SEQ_NONE - 1), 0u64..100_000],
            prop_oneof![0u64..2_000, any::<u64>()],
            app(),
            prop_oneof![Just(u32::MAX), 0u32..=64, any::<u32>()],
        )
            .prop_map(|(t_ns, stage, seq, bytes, app, count)| TraceEvent {
                t_ns,
                stage: Stage::ALL[stage],
                seq,
                bytes,
                app,
                count,
            })
    }

    /// Sched spans on CPUs 0–3 and 62–69 (past the 64-row name mask).
    fn sched_event() -> impl Strategy<Value = SchedEvent> {
        (
            instant_ns(),
            prop_oneof![0u64..5_000, instant_ns()],
            prop_oneof![0u16..4, 62u16..70],
            app(),
            0..WorkKind::ALL.len(),
        )
            .prop_map(|(t_ns, dur_ns, cpu, app, kind)| SchedEvent {
                t_ns,
                dur_ns,
                cpu,
                app,
                kind: WorkKind::ALL[kind],
            })
    }

    fn sut() -> impl Strategy<Value = SutTrace> {
        (
            label(),
            proptest::collection::vec(event(), 0..24),
            proptest::collection::vec(sched_event(), 0..8),
            any::<u64>(),
            proptest::collection::vec(any::<[u64; 9]>(), 0..3),
            (label(), any::<u64>(), -1e6f64..1e6, any::<u32>()),
        )
            .prop_map(|(label, events, sched, truncated, attrs, metric)| {
                let (name, counter, gauge, observed) = metric;
                let mut metrics = crate::MetricsRegistry::new();
                metrics.inc(&name, counter);
                metrics.set_gauge(&name, gauge);
                metrics.set_gauge("non_finite", f64::NAN);
                metrics.observe(&name, u64::from(observed));
                let attributions = attrs
                    .into_iter()
                    .map(|v| DropAttribution {
                        generated: v[0],
                        nic_drops: v[1],
                        nic_residue: v[2],
                        filter_rejects: v[3],
                        kernel_buffer_drops: v[4],
                        kernel_pool_drops: v[5],
                        kernel_residue: v[6],
                        app_residue: v[7],
                        delivered: v[8],
                    })
                    .collect();
                SutTrace {
                    label,
                    report: TraceReport {
                        events,
                        sched,
                        truncated,
                        metrics,
                    },
                    attributions,
                    stage_times: None,
                }
            })
    }

    fn cells() -> impl Strategy<Value = Vec<CellTrace>> {
        let cell = (
            label(),
            any::<u128>(),
            proptest::collection::vec(sut(), 0..3),
        )
            .prop_map(|(label, key, suts)| CellTrace {
                label,
                key,
                achieved_mbps: 0.0,
                suts,
            });
        proptest::collection::vec(cell, 0..3)
    }

    proptest! {
        #[test]
        fn renderers_match_the_write_reference(cells in cells()) {
            prop_assert_eq!(chrome_trace_json(&cells), reference_chrome_trace_json(&cells));
            prop_assert_eq!(events_csv(&cells), reference_events_csv(&cells));
        }
    }
}
