//! Parallel execution of sweep cells (MoonGen-style worker pool).
//!
//! The evaluation is a grid of independent cells — (rate × repeat) inside
//! one sweep, whole experiments at the CLI level. The DES is
//! deterministic by construction (per-component seeded PCG streams, no
//! host-time dependence), so cells can run on any thread in any order and
//! the merged results are still bit-identical to a serial run: the pool
//! assigns cells to workers dynamically but writes every result back into
//! its input-order slot. The worker count is the only execution knob:
//! inside a cell the pipeline always has the shape of
//! [`PipelineConfig::default`].

use pcs_des::PoolProbe;
use pcs_faultsim::FaultPlan;
use pcs_trace::TraceCollector;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Counters a sweep (or a whole CLI run) accumulates while executing.
///
/// Every counter is a cheap relaxed atomic and always maintained. The
/// per-cell wall times read the host clock: they describe execution
/// speed, never simulation results.
#[derive(Debug, Default)]
pub struct ExecStats {
    cells_run: AtomicU64,
    streams_generated: AtomicU64,
    streams_shared: AtomicU64,
    cell_wall_ns: AtomicU64,
    cell_wall_ns_max: AtomicU64,
    /// Hot-path buffer-pool counters published by every simulated cell
    /// (observability only — never part of any simulation result).
    sim_pools: Arc<PoolProbe>,
}

impl ExecStats {
    /// Record one simulated cell and its wall-clock time.
    pub fn record_run(&self, wall_ns: u64) {
        self.cells_run.fetch_add(1, Ordering::Relaxed);
        self.cell_wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
        self.cell_wall_ns_max.fetch_max(wall_ns, Ordering::Relaxed);
    }

    /// Record a cell that generated (and published) its packet stream.
    pub fn record_stream_generated(&self) {
        self.streams_generated.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cell that subscribed to an already-published stream
    /// instead of regenerating it.
    pub fn record_stream_shared(&self) {
        self.streams_shared.fetch_add(1, Ordering::Relaxed);
    }

    /// Cells simulated so far.
    pub fn cells_run(&self) -> u64 {
        self.cells_run.load(Ordering::Relaxed)
    }

    /// Packet streams generated (stream-cache misses) so far.
    pub fn streams_generated(&self) -> u64 {
        self.streams_generated.load(Ordering::Relaxed)
    }

    /// Packet streams consumed by subscription (stream-cache hits) so far.
    pub fn streams_shared(&self) -> u64 {
        self.streams_shared.load(Ordering::Relaxed)
    }

    /// Total wall-clock nanoseconds spent simulating cells. Dividing by
    /// `elapsed × jobs` gives the worker pool's utilization.
    pub fn cell_wall_ns(&self) -> u64 {
        self.cell_wall_ns.load(Ordering::Relaxed)
    }

    /// Slowest single cell's wall-clock nanoseconds.
    pub fn cell_wall_ns_max(&self) -> u64 {
        self.cell_wall_ns_max.load(Ordering::Relaxed)
    }

    /// The shared probe that every simulated cell publishes its hot-path
    /// buffer-pool counters into (clone it into a
    /// [`pcs_oskernel::MachineSim::with_pool_probe`] call).
    pub fn sim_pools(&self) -> &Arc<PoolProbe> {
        &self.sim_pools
    }
}

/// The shape of every cell's generator → sniffer pipeline.
///
/// There is one shape, [`PipelineConfig::default`]; it is a struct so
/// the numbers have names. None of the fields participate in the cell
/// fingerprint: chunk boundaries and queue depth never change a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Packets per generated chunk.
    pub chunk_packets: usize,
    /// Bounded depth, in chunks, of each [`OpticalSplitter::channel`]
    /// queue. Only the repository benchmark uses it; no library path
    /// does.
    ///
    /// [`OpticalSplitter::channel`]: crate::OpticalSplitter::channel
    pub depth_chunks: usize,
    /// Byte budget of the process-global content-addressed stream cache.
    pub stream_cache_bytes: u64,
}

impl Default for PipelineConfig {
    /// ~4k-packet chunks, four-chunk benchmark queues, stream sharing
    /// under the default byte budget.
    fn default() -> PipelineConfig {
        PipelineConfig {
            chunk_packets: pcs_pktgen::DEFAULT_CHUNK_PACKETS,
            depth_chunks: 4,
            stream_cache_bytes: pcs_pktgen::DEFAULT_STREAM_CACHE_BYTES,
        }
    }
}

/// How a sweep executes: worker count, shared counters and the optional
/// trace and fault layers.
///
/// Cloning shares the counters (an `Arc`), so one `ExecConfig` handed to
/// several figures accumulates their cells together.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Upper bound on concurrently running cells.
    pub jobs: usize,
    /// Shared execution counters.
    pub stats: Arc<ExecStats>,
    /// When set, every cell simulates with an enabled
    /// [`TraceSink`](pcs_trace::TraceSink) and records its event log,
    /// metrics and drop attribution here. `None` (the default) keeps the
    /// sims on the branch-cheap off path and the results byte-identical
    /// to an untraced run.
    pub trace: Option<Arc<TraceCollector>>,
    /// When set, every cell simulates under this fault plan
    /// ([`FaultPlan::arm_machine`] per machine, plus the host-side
    /// splitter/cache perturbations). `None` (the default) keeps the sims
    /// on the branch-cheap off path and results byte-identical to today.
    pub faults: Option<Arc<FaultPlan>>,
    /// Arm per-stage sim-time attribution
    /// ([`pcs_oskernel::MachineSim::with_stage_times`]) on every cell, so
    /// traced cells carry a [`pcs_trace::StageTimes`] account into the
    /// collector (the run ledger renders it). Off by default: the sims
    /// stay on the branch-cheap off path.
    pub stage_times: bool,
}

impl ExecConfig {
    /// One worker: cells run strictly in input order.
    pub fn serial() -> ExecConfig {
        ExecConfig::with_jobs(1)
    }

    /// As many workers as the host offers.
    pub fn parallel() -> ExecConfig {
        ExecConfig::with_jobs(available_parallelism())
    }

    /// Exactly `jobs` workers (clamped to ≥ 1).
    pub fn with_jobs(jobs: usize) -> ExecConfig {
        ExecConfig {
            jobs: jobs.max(1),
            stats: Arc::new(ExecStats::default()),
            trace: None,
            faults: None,
            stage_times: false,
        }
    }

    /// The same execution with every cell traced into `collector`.
    pub fn with_trace(mut self, collector: Arc<TraceCollector>) -> ExecConfig {
        self.trace = Some(collector);
        self
    }

    /// The same execution with `plan` armed on every cell.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> ExecConfig {
        self.faults = Some(plan);
        self
    }

    /// The same execution with per-stage sim-time attribution armed on
    /// every cell.
    pub fn with_stage_times(mut self, stage_times: bool) -> ExecConfig {
        self.stage_times = stage_times;
        self
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::parallel()
    }
}

/// The host's available parallelism (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f` over `items` on a bounded pool of `jobs` workers, returning
/// results **in input order** regardless of completion order.
///
/// Work is handed out dynamically (an atomic cursor), so long and short
/// items mix without head-of-line blocking. With `jobs == 1` no threads
/// are spawned and `f` runs inline, in order. A panicking item propagates
/// the panic to the caller (after the scope joins its workers).
pub fn parallel_ordered<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|t| Mutex::new((Some(t), None)))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .0
                    .take()
                    .expect("job claimed twice");
                let result = f(i, item);
                slots[i].lock().expect("job slot poisoned").1 = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("job slot poisoned")
                .1
                .expect("job completed without a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        for jobs in [1, 2, 8, 64] {
            let items: Vec<u64> = (0..100).collect();
            let out = parallel_ordered(items, jobs, |i, x| {
                // Stagger completion: make early items slow.
                if x < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                (i as u64, x * 2)
            });
            assert_eq!(out.len(), 100);
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u64);
                assert_eq!(*doubled, i as u64 * 2);
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_ordered(empty, 4, |_, x: u8| x).is_empty());
        assert_eq!(parallel_ordered(vec![7u8], 4, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn exec_config_clamps_and_counts() {
        let cfg = ExecConfig::with_jobs(0);
        assert_eq!(cfg.jobs, 1);
        cfg.stats.record_run(30);
        cfg.stats.record_run(20);
        cfg.stats.record_stream_generated();
        cfg.stats.record_stream_shared();
        cfg.stats.record_stream_shared();
        let shared = cfg.clone();
        assert_eq!(shared.stats.cells_run(), 2);
        assert_eq!(shared.stats.cell_wall_ns(), 50);
        assert_eq!(shared.stats.cell_wall_ns_max(), 30);
        assert_eq!(shared.stats.streams_generated(), 1);
        assert_eq!(shared.stats.streams_shared(), 2);
        assert!(ExecConfig::parallel().jobs >= 1);
    }
}
