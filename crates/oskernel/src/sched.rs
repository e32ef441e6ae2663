//! The CPU scheduler: sim clock, per-CPU run state, and dispatch.
//!
//! [`Scheduler`] owns the pcs-des pending-event queue (the sim clock)
//! and one [`CpuSim`] per logical CPU. Work items queue on a
//! [`pcs_des::RunQueue`] per CPU — kernel work at strict priority with a
//! bounded starvation-avoidance yield every [`KERNEL_SLOTS`] picks — and
//! dispatch is where the two cross-cutting layers hook in:
//!
//! * **Tracing** — every dispatch emits a [`pcs_trace::SchedEvent`]
//!   (which work item, which CPU, which sim-ns, how long) through the
//!   sink in [`SchedCtx`]; off/unfiltered sinks cost one branch.
//! * **Faults** — an armed [`MachineFaults`] plan may charge extra
//!   occupancy to the CPU at dispatch
//!   ([`MachineFaults::preempt_extra_ns`]), modelling a host
//!   scheduler preempting the capture workers. The extra time is folded
//!   into the work's segments so accounting still sums to wall time.
//!
//! Dispatch order, SMT stretching, and idle accounting are exactly the
//! seed loop's: with tracing off and no fault plan armed, a run is
//! byte-identical to the pre-refactor simulator.

use crate::cpustate::{CpuAccounting, CpuState};
use crate::event::{SimEvent, Work};
use crate::fault::MachineFaults;
use crate::sim::MachineSim;
use crate::stack::CapturedPacket;
use pcs_des::{BufPool, EventQueue, PoolStats, RunQueue, SimDuration, SimTime, WorkClass};
use pcs_trace::{StageTimes, TraceSink};

/// Every Nth slot goes to user work when both queues are loaded.
pub(crate) const KERNEL_SLOTS: u32 = 8;

/// One logical CPU: its run queue, the work in flight, and accounting.
pub(crate) struct CpuSim {
    /// Two-class (kernel/user) run queue; the scheduler grants queued
    /// user work an occasional slot so interrupt pressure cannot starve
    /// runnable processes absolutely (neither OS's livelock is total).
    pub(crate) runq: RunQueue<Box<Work>>,
    pub(crate) current: Option<Box<Work>>,
    pub(crate) busy_until: SimTime,
    pub(crate) idle_since: SimTime,
    pub(crate) acct: CpuAccounting,
}

impl CpuSim {
    fn new() -> CpuSim {
        CpuSim {
            runq: RunQueue::new(),
            current: None,
            busy_until: SimTime::ZERO,
            idle_since: SimTime::ZERO,
            acct: CpuAccounting::default(),
        }
    }

    pub(crate) fn busy(&self) -> bool {
        self.current.is_some()
    }
}

/// The cross-cutting hooks a dispatch consults, borrowed disjointly
/// from the sim so the scheduler can run while stages hold the rest.
pub(crate) struct SchedCtx<'a> {
    pub(crate) trace: &'a mut TraceSink,
    pub(crate) faults: Option<&'a mut (dyn MachineFaults + 'static)>,
}

/// The scheduler's free lists: every buffer the per-packet path needs,
/// recycled so the steady-state event loop performs zero heap
/// allocations per packet (DESIGN.md §15).
///
/// Recycling never changes observable behavior — a recycled buffer is
/// indistinguishable from a fresh one — which the committed engine
/// golden (`tests/engine_golden.rs`) pins.
pub(crate) struct HotPool {
    /// IRQ batch scratch: the stream positions drained from the NIC
    /// ring.
    pub(crate) views: BufPool<u64>,
    /// App-chunk scratch plus the `recorded` buffers in
    /// [`crate::event::Completion::AppChunk`].
    pub(crate) captured: BufPool<CapturedPacket>,
    /// The `traced` (seq, gen_ns, caplen) buffers in `AppChunk`.
    pub(crate) traced: BufPool<(u64, u64, u32)>,
    /// Dead work-item boxes awaiting the next submission. Work items
    /// travel boxed so the run queue and the CPU slots move a pointer,
    /// not the ~150-byte item; this list recycles those allocations.
    #[allow(clippy::vec_box)]
    works: Vec<Box<Work>>,
    work_gets: u64,
    work_misses: u64,
    work_recycled: u64,
}

impl HotPool {
    fn new() -> HotPool {
        HotPool {
            views: BufPool::new(),
            captured: BufPool::new(),
            traced: BufPool::new(),
            works: Vec::new(),
            work_gets: 0,
            work_misses: 0,
            work_recycled: 0,
        }
    }

    /// Box a work item for submission, reusing a dead box when free.
    pub(crate) fn box_work(&mut self, w: Work) -> Box<Work> {
        self.work_gets += 1;
        match self.works.pop() {
            Some(mut b) => {
                *b = w;
                b
            }
            None => {
                self.work_misses += 1;
                Box::new(w)
            }
        }
    }

    /// Retire a finished work item's box onto the free list.
    pub(crate) fn recycle_work(&mut self, b: Box<Work>) {
        self.work_recycled += 1;
        self.works.push(b);
    }

    /// Summed counters over every free list (buffers and boxes).
    pub(crate) fn stats(&self) -> PoolStats {
        let mut s = self.views.stats();
        s.absorb(self.captured.stats());
        s.absorb(self.traced.stats());
        s.absorb(PoolStats {
            gets: self.work_gets,
            misses: self.work_misses,
            recycled: self.work_recycled,
        });
        s
    }
}

/// The event-scheduled core: sim clock plus per-CPU run state.
pub(crate) struct Scheduler {
    /// The pending-event set; its `now()` is the sim clock.
    pub(crate) queue: EventQueue<SimEvent>,
    pub(crate) cpus: Vec<CpuSim>,
    /// Free lists for the per-packet path's buffers.
    pub(crate) pool: HotPool,
    /// Per-CPU/per-work-kind sim-time attribution, armed by
    /// [`crate::sim::MachineSim::with_stage_times`]. `None` (the
    /// default) costs one branch per dispatch/finish and leaves every
    /// run byte-identical to an unarmed one; when armed the account is
    /// fixed arrays allocated once here, so the per-packet path stays
    /// allocation-free.
    pub(crate) stage: Option<StageTimes>,
    hyperthreading: bool,
    smt_factor: f64,
}

impl Scheduler {
    /// A scheduler for `ncpu` logical CPUs with the spec's SMT shape
    /// (captured at construction; the spec is immutable over a run).
    /// The event heap is pre-sized to `queue_hint` (the sim's in-flight
    /// event bound).
    pub(crate) fn new(
        ncpu: usize,
        hyperthreading: bool,
        smt_factor: f64,
        queue_hint: usize,
    ) -> Scheduler {
        Scheduler {
            queue: EventQueue::with_capacity(queue_hint),
            cpus: (0..ncpu).map(|_| CpuSim::new()).collect(),
            pool: HotPool::new(),
            stage: None,
            hyperthreading,
            smt_factor,
        }
    }

    /// Arm (or disarm) per-stage time attribution; arming allocates the
    /// per-CPU accounts once, before the run starts.
    pub(crate) fn set_stage_times(&mut self, enabled: bool) {
        self.stage = enabled.then(|| StageTimes::new(self.cpus.len()));
    }

    /// Enqueue `work` on `cpu` and dispatch immediately if it is idle.
    pub(crate) fn submit(
        &mut self,
        now: SimTime,
        cpu: usize,
        work: Work,
        kernel: bool,
        ctx: &mut SchedCtx,
    ) {
        let class = if kernel {
            WorkClass::Kernel
        } else {
            WorkClass::User
        };
        let work = self.pool.box_work(work);
        self.cpus[cpu].runq.push(class, work);
        if !self.cpus[cpu].busy() {
            self.start_next(now, cpu, ctx);
        }
    }

    /// Dispatch the next queued work item on `cpu`, if any (see
    /// [`Scheduler::dispatch`]).
    pub(crate) fn start_next(&mut self, now: SimTime, cpu: usize, ctx: &mut SchedCtx) {
        if self.cpus[cpu].busy() {
            return;
        }
        let work = match self.cpus[cpu].runq.pick(KERNEL_SLOTS) {
            Some(w) => w,
            None => {
                self.cpus[cpu].idle_since = now;
                return;
            }
        };
        self.dispatch(now, cpu, work, ctx);
    }

    /// Run `work` on the (idle) `cpu`: account the idle gap, stretch for
    /// a busy SMT sibling, consult the preemption fault hook, trace the
    /// dispatch, and schedule the completion.
    fn dispatch(&mut self, now: SimTime, cpu: usize, work: Box<Work>, ctx: &mut SchedCtx) {
        // Account the idle gap before this work.
        if now > self.cpus[cpu].idle_since {
            let gap = now.since(self.cpus[cpu].idle_since).as_nanos();
            self.cpus[cpu].acct.add(CpuState::Idle, gap);
            if let Some(st) = self.stage.as_mut() {
                st.add_idle(cpu, gap);
            }
        }
        let mut work = work;
        let mut duration = work.duration();
        let base_duration = duration;
        // Hyperthreading: a busy sibling slows this virtual CPU. The
        // stretch is folded into the work's segments so that accounting
        // covers the full wall time the CPU was occupied.
        if self.hyperthreading {
            let sibling = cpu ^ 1;
            if sibling < self.cpus.len() && self.cpus[sibling].busy() && duration > 0 {
                let stretched = (duration as f64 / self.smt_factor) as u64;
                let scale = stretched as f64 / duration as f64;
                work.stretch(scale);
                duration = work.duration();
            }
        }
        // Preemption fault: a foreign task holds the core before this
        // work runs. The hold is appended as a system-time segment so
        // per-CPU accounting still sums to the wall occupancy. Work
        // arrives with one or two segments, so the hold always fits the
        // third inline slot.
        if let Some(f) = ctx.faults.as_mut() {
            let extra = f.preempt_extra_ns(now.as_nanos(), cpu);
            if extra > 0 {
                work.push_segment(CpuState::System, extra);
                duration = work.duration();
            }
        }
        // Stage-time attribution: everything dispatch added on top of
        // the work's own cost (SMT sibling stretch, preemption hold) is
        // the stretch share of the busy time charged at finish.
        if let Some(st) = self.stage.as_mut() {
            if duration > base_duration {
                st.add_stretch(cpu, work.kind, duration - base_duration);
            }
        }
        ctx.trace.emit_sched(
            now.as_nanos(),
            duration,
            cpu as u16,
            work.sched_app(),
            work.kind,
        );
        let end = now + SimDuration::from_nanos(duration);
        self.cpus[cpu].busy_until = end;
        self.cpus[cpu].current = Some(work);
        self.queue.schedule(end, SimEvent::CpuFree(cpu));
    }

    /// Take the work item that just finished on `cpu`, charge its
    /// segments to the CPU's accounting, and return it together with
    /// the kernel-state nanoseconds spent on CPU0 (the input to the
    /// kernel-utilisation estimator).
    pub(crate) fn finish_current(&mut self, now: SimTime, cpu: usize) -> (Box<Work>, u64) {
        let work = self.cpus[cpu]
            .current
            .take()
            .expect("CpuFree without current work");
        // Account the segments (already SMT-scaled at start, so the sum
        // equals the wall time this CPU was occupied).
        let mut kernel_ns = 0u64;
        let mut total_ns = 0u64;
        for (state, ns) in work.segments() {
            self.cpus[cpu].acct.add(*state, *ns);
            total_ns += ns;
            if matches!(state, CpuState::Irq | CpuState::SoftIrq | CpuState::System) && cpu == 0 {
                kernel_ns += ns;
            }
        }
        // The segment sum is the full wall occupancy (SMT-scaled and
        // preempt-extended at dispatch), so charging it here keeps the
        // stage account in lockstep with `acct`.
        if let Some(st) = self.stage.as_mut() {
            st.add_busy(cpu, work.kind, total_ns);
        }
        self.cpus[cpu].idle_since = now;
        (work, kernel_ns)
    }
}

impl MachineSim {
    /// Where the next chunk of this app's work runs. FreeBSD 5.x balances
    /// runnable threads across CPUs, which is how it shares capture
    /// capacity evenly between applications (§1.2: ~5 % deviation);
    /// Linux 2.6's affinity is sticky, so applications parked on the
    /// interrupt CPU starve under load — the thesis' unfairness result.
    pub(crate) fn app_run_cpu(&self, app: usize) -> usize {
        if self.sched.cpus.len() == 1 {
            return 0;
        }
        if !self.spec.os.is_freebsd() {
            // Linux 2.6: sticky affinity, but the idle balancer pulls a
            // runnable task when another CPU has nothing to do. With every
            // CPU busy (the 4–8 application overloads) no pull happens and
            // the tasks parked behind the interrupt CPU starve — the
            // thesis' unfairness result.
            let home = self.apps[app].cpu;
            let home_pressed =
                (home == 0 && self.kernel_util > 0.5) || self.sched.cpus[home].runq.user_len() >= 2;
            if home_pressed {
                for (i, c) in self.sched.cpus.iter().enumerate() {
                    let kernel_pressed = i == 0 && self.kernel_util > 0.5;
                    if !c.busy() && c.runq.user_len() == 0 && !kernel_pressed {
                        return i;
                    }
                }
            }
            return home;
        }
        self.least_loaded_cpu()
    }

    /// The CPU a freely-migrating task would land on: queue depth plus
    /// interrupt pressure on CPU0 (receive livelock, §2.2.1) and — with
    /// Hyperthreading — on its sibling, whose activity would halve the
    /// interrupt path (§6.3.7).
    pub(crate) fn least_loaded_cpu(&self) -> usize {
        let mut best = 0usize;
        let mut best_load = f64::INFINITY;
        for (i, c) in self.sched.cpus.iter().enumerate() {
            let mut load = (c.runq.user_len() + c.runq.kernel_len() * 4 + c.busy() as usize) as f64;
            if i == 0 {
                load += self.kernel_util * 50.0;
            } else if self.spec.cpu.hyperthreading && i == 1 {
                load += self.kernel_util * 25.0;
            }
            if load < best_load {
                best_load = load;
                best = i;
            }
        }
        best
    }

    /// Enqueue `work` on `cpu` (kernel or user class) and dispatch if
    /// the CPU is idle. Thin wrapper building the scheduler's hook
    /// context from the sim's disjoint trace/fault fields.
    pub(crate) fn submit(&mut self, now: SimTime, cpu: usize, work: Work, kernel: bool) {
        let mut ctx = SchedCtx {
            trace: &mut self.trace,
            faults: self.faults.as_deref_mut(),
        };
        self.sched.submit(now, cpu, work, kernel, &mut ctx);
    }

    /// Dispatch the next queued work item on `cpu`, if it is idle and
    /// has one. Thin wrapper over [`Scheduler::start_next`].
    pub(crate) fn start_next(&mut self, now: SimTime, cpu: usize) {
        let mut ctx = SchedCtx {
            trace: &mut self.trace,
            faults: self.faults.as_deref_mut(),
        };
        self.sched.start_next(now, cpu, &mut ctx);
    }
}
