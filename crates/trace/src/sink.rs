//! The per-sim trace sink: zero-cost when off, bounded when on.

use crate::event::{SchedEvent, Stage, StageFilter, TraceEvent, WorkKind};
use crate::metrics::MetricsRegistry;

/// Default per-sim event-buffer capacity. Bounded so a traced full-scale
/// sweep cannot exhaust memory; overflow is counted, never silently lost.
pub const DEFAULT_EVENT_CAP: usize = 1 << 18;

/// Configuration for one trace sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Which stages to record as events.
    pub filter: StageFilter,
    /// Maximum events buffered per sim; later events only bump
    /// [`TraceReport::truncated`].
    pub cap: usize,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            filter: StageFilter::all(),
            cap: DEFAULT_EVENT_CAP,
        }
    }
}

/// Everything a traced sim produced: the bounded event log, the overflow
/// count, and the metrics registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Recorded events in emission (simulation) order.
    pub events: Vec<TraceEvent>,
    /// Per-CPU scheduling events in dispatch order (recorded only when
    /// the filter selects `sched`; empty otherwise).
    pub sched: Vec<SchedEvent>,
    /// Events dropped after the buffer filled (deterministic for a given
    /// seed/config/cap).
    pub truncated: u64,
    /// Counters, gauges, digests recorded alongside the events.
    pub metrics: MetricsRegistry,
}

/// Live state behind an enabled sink.
#[derive(Debug, Clone)]
pub struct TraceState {
    filter: StageFilter,
    cap: usize,
    events: Vec<TraceEvent>,
    sched: Vec<SchedEvent>,
    truncated: u64,
    /// Metrics registry; sims write through [`TraceSink::metrics_mut`].
    pub metrics: MetricsRegistry,
}

/// A sim's trace handle. `Off` is a single enum-discriminant check per
/// event site — the instrumented hot paths cost one predictable branch when
/// tracing is disabled.
#[derive(Debug, Clone, Default)]
pub enum TraceSink {
    /// Tracing disabled; every emit is a no-op.
    #[default]
    Off,
    /// Tracing enabled with bounded buffering.
    On(Box<TraceState>),
}

impl TraceSink {
    /// A disabled sink.
    pub fn off() -> Self {
        TraceSink::Off
    }

    /// An enabled sink with the given filter and cap.
    pub fn bounded(spec: TraceSpec) -> Self {
        TraceSink::On(Box::new(TraceState {
            filter: spec.filter,
            cap: spec.cap,
            events: Vec::with_capacity(spec.cap.min(4096)),
            sched: Vec::new(),
            truncated: 0,
            metrics: MetricsRegistry::new(),
        }))
    }

    /// Whether events/metrics are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, TraceSink::On(_))
    }

    /// Record one event (no-op when off or filtered out).
    #[inline]
    pub fn emit(&mut self, t_ns: u64, stage: Stage, seq: u64, bytes: u64, app: u16, count: u32) {
        if let TraceSink::On(state) = self {
            if state.filter.contains(stage) {
                if state.events.len() < state.cap {
                    state.events.push(TraceEvent {
                        t_ns,
                        stage,
                        seq,
                        bytes,
                        app,
                        count,
                    });
                } else {
                    state.truncated += 1;
                }
            }
        }
    }

    /// Record one CPU-scheduling event (no-op when off or when the
    /// filter does not select `sched`). Bounded by the same cap as the
    /// lifecycle log; overflow bumps [`TraceReport::truncated`].
    #[inline]
    pub fn emit_sched(&mut self, t_ns: u64, dur_ns: u64, cpu: u16, app: u16, kind: WorkKind) {
        if let TraceSink::On(state) = self {
            if state.filter.wants_sched() {
                if state.sched.len() < state.cap {
                    state.sched.push(SchedEvent {
                        t_ns,
                        dur_ns,
                        cpu,
                        app,
                        kind,
                    });
                } else {
                    state.truncated += 1;
                }
            }
        }
    }

    /// Whether per-CPU scheduling events are being recorded — sims hoist
    /// this check around dispatch-site instrumentation.
    #[inline]
    pub fn wants_sched(&self) -> bool {
        match self {
            TraceSink::Off => false,
            TraceSink::On(state) => state.filter.wants_sched(),
        }
    }

    /// Mutable access to the metrics registry, `None` when off. Callers
    /// hoist this single check around metric updates.
    #[inline]
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        match self {
            TraceSink::Off => None,
            TraceSink::On(state) => Some(&mut state.metrics),
        }
    }

    /// Consume the sink into its report (`None` when off).
    pub fn into_report(self) -> Option<TraceReport> {
        match self {
            TraceSink::Off => None,
            TraceSink::On(state) => Some(TraceReport {
                events: state.events,
                sched: state.sched,
                truncated: state.truncated,
                metrics: state.metrics,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{APP_NONE, SEQ_NONE};

    #[test]
    fn off_sink_records_nothing() {
        let mut sink = TraceSink::off();
        assert!(!sink.is_on());
        sink.emit(1, Stage::Wire, 0, 60, APP_NONE, 1);
        assert!(sink.metrics_mut().is_none());
        assert!(sink.into_report().is_none());
    }

    #[test]
    fn bounded_sink_caps_and_counts_overflow() {
        let mut sink = TraceSink::bounded(TraceSpec {
            filter: StageFilter::all(),
            cap: 2,
        });
        for i in 0..5 {
            sink.emit(i, Stage::Wire, i, 60, APP_NONE, 1);
        }
        let report = sink.into_report().unwrap();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.truncated, 3);
        assert_eq!(report.events[0].t_ns, 0);
        assert_eq!(report.events[1].t_ns, 1);
    }

    #[test]
    fn filter_drops_unselected_stages_without_truncation() {
        let mut sink = TraceSink::bounded(TraceSpec {
            filter: StageFilter::drops(),
            cap: 8,
        });
        sink.emit(1, Stage::Wire, 1, 60, APP_NONE, 1);
        sink.emit(2, Stage::NicDropRing, 2, 60, APP_NONE, 1);
        sink.emit(3, Stage::BusTransfer, SEQ_NONE, 1500, APP_NONE, 4);
        let report = sink.into_report().unwrap();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].stage, Stage::NicDropRing);
        assert_eq!(report.truncated, 0);
    }
}
