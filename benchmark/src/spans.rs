//! In-memory host-time spans around the benchmark's calls into each
//! layer, and what they add up to.
//!
//! A span records a name, start, end, the span that caused it and the
//! host thread it ran on. Spans on one thread nest; a span's *self time*
//! is its duration minus the time its same-thread children cover. Work
//! handed to another thread (a sniffer, a pool worker) names its causing
//! span as parent but is timed on its own thread, so thread time is never
//! subtracted twice.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Causing span's id; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `testbed.splitter.pull`.
    pub name: &'static str,
    /// Host thread, numbered from 1 in order of first use.
    pub tid: u32,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Work items (packets, events) the span handled.
    pub items: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans whose self time is waiting on another thread rather than work.
pub const WAIT_SPANS: [&str; 5] = [
    "testbed.sched.dispatch",
    "testbed.cell.join",
    "testbed.splitter.broadcast",
    "testbed.splitter.pull",
    "pktgen.streamcache.subscribe",
];

struct Open {
    id: u64,
    items: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Collects spans from every thread. An `off` recorder runs the wrapped
/// calls and records nothing, so traced and untraced runs share code.
pub struct Recorder {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recording recorder.
    pub fn new() -> Recorder {
        Recorder {
            on: true,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The innermost open span on this thread (0 when none).
    pub fn current(&self) -> u64 {
        OPEN.with(|o| o.borrow().last().map_or(0, |s| s.id))
    }

    /// Run `f` inside a span that is a child of this thread's innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(self.current(), name, f)
    }

    /// Run `f` inside a span caused by `parent`, which may be open on
    /// another thread.
    pub fn span_under<R>(&self, parent: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(Open { id, items: 0 }));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let open = OPEN
            .with(|o| o.borrow_mut().pop())
            .expect("span stack underflow");
        let span = Span {
            id,
            parent,
            name,
            tid: thread_id(),
            start_ns,
            end_ns,
            items: open.items,
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    /// Count `n` work items against this thread's innermost open span.
    pub fn note_items(&self, n: u64) {
        if self.on {
            OPEN.with(|o| {
                if let Some(open) = o.borrow_mut().last_mut() {
                    open.items += n;
                }
            });
        }
    }

    /// Every span finished so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].tid == s.tid {
                covered[p] += s.dur_ns();
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Check the span tree: every parent exists, a same-thread child lies
/// inside its parent and same-thread children do not overlap, and work
/// on another thread starts after its causing span did.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut last_child_end: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} ({}) has no parent {}", s.id, s.name, s.parent))?;
        if s.start_ns < p.start_ns {
            return Err(format!("{} starts before its parent {}", s.name, p.name));
        }
        if p.tid == s.tid {
            if s.end_ns > p.end_ns {
                return Err(format!("{} ends after its parent {}", s.name, p.name));
            }
            let prev = last_child_end.entry(p.id).or_insert(0);
            if s.start_ns < *prev {
                return Err(format!("{} overlaps a sibling under {}", s.name, p.name));
            }
            *prev = s.end_ns;
        }
    }
    Ok(())
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Self time spent waiting on another thread.
    pub wait_ns: u64,
    /// Summed work items.
    pub items: u64,
}

/// Totals per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_ns += s.dur_ns();
        l.self_ns += own;
        if WAIT_SPANS.contains(&s.name) {
            l.wait_ns += own;
        }
        l.items += s.items;
    }
    out
}

/// Share of summed thread-busy time (the roots of each thread's span
/// forest) that the program's layers account for in self time; the rest
/// sits in the benchmark's own `bench.*` spans.
pub fn coverage(spans: &[Span]) -> f64 {
    let tid: BTreeMap<u64, u32> = spans.iter().map(|s| (s.id, s.tid)).collect();
    let busy: u64 = spans
        .iter()
        .filter(|s| tid.get(&s.parent) != Some(&s.tid))
        .map(Span::dur_ns)
        .sum();
    let attributed: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| !s.name.starts_with("bench."))
        .map(|(_, own)| own)
        .sum();
    if busy == 0 {
        0.0
    } else {
        attributed as f64 / busy as f64
    }
}

/// Chrome trace-event JSON: one complete (`ph:"X"`) event per span.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{},\"parent\":{},\"items\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.tid,
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns() / 1000,
            s.dur_ns() % 1000,
            s.id,
            s.parent,
            s.items
        );
    }
    out.push_str("\n]}\n");
    out
}

/// The per-layer table: count, self and wait time, and self ns per
/// simulated SUT-packet.
pub fn table(layers: &BTreeMap<&'static str, Layer>, sim_packets: u64) -> String {
    let mut out = format!(
        "{:<32} {:>8} {:>11} {:>11} {:>10}\n",
        "span", "count", "self_ms", "wait_ms", "ns/pkt"
    );
    for (name, l) in layers {
        let _ = writeln!(
            out,
            "{name:<32} {:>8} {:>11.3} {:>11.3} {:>10.3}",
            l.count,
            l.self_ns as f64 / 1e6,
            l.wait_ns as f64 / 1e6,
            l.self_ns as f64 / sim_packets.max(1) as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let rec = Recorder::new();
        rec.span("bench.root", || {
            let root = rec.current();
            rec.span("a.child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::scope(|s| {
                s.spawn(|| rec.span_under(root, "b.remote", || rec.note_items(7)));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        check_nesting(&spans).unwrap();
        let own = self_times(&spans);
        let root = spans.iter().position(|s| s.name == "bench.root").unwrap();
        let child = spans.iter().position(|s| s.name == "a.child").unwrap();
        assert_eq!(own[root], spans[root].dur_ns() - spans[child].dur_ns());
        let l = layers(&spans);
        assert_eq!(l["b.remote"].items, 7);
        assert!(coverage(&spans) > 0.0);
        pcs_trace::export::validate_json(&chrome_json(&spans)).unwrap();
    }

    #[test]
    fn off_recorder_records_nothing() {
        let rec = Recorder::off();
        assert_eq!(rec.span("x", || 5), 5);
        assert!(rec.spans().is_empty());
    }
}
