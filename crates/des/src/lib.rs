//! # pcs-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the `pcapbench` reproduction of Schneider's
//! *"Performance evaluation of packet capturing systems for high-speed
//! networks"* (TU München, 2005). Every higher layer — hardware models,
//! operating-system capture stacks, the packet generator, the measurement
//! testbed — advances virtual time through the primitives in this crate:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time;
//! * [`EventQueue`] — a stable (FIFO-on-ties) pending-event set;
//! * [`RunQueue`] — a deterministic two-class (kernel/user) per-CPU run
//!   queue with strict priority and a bounded starvation-avoidance yield;
//! * [`Pcg32`] / [`SplitMix64`] — deterministic PRNG streams, so that a run
//!   seed fully determines the generated packet sequence (the paper's
//!   reproducibility requirement, §3.2);
//! * [`BufPool`] / [`PoolProbe`] — free-list buffer pools and their
//!   cross-thread statistics probe, the allocation-free hot path's
//!   memory supply;
//! * [`AdmissionCursor`] — lazy arrival admission: the next arrival
//!   waits outside the event heap under its reserved `(time, seq)` key;
//! * [`FastHash`] — a deterministic, seed-free hasher for hot maps whose
//!   iteration order is never observed;
//! * [`stats`] — the fixed-bucket quantile digest each simulation
//!   records once, and the median over a point's repeats;
//! * [`fingerprint`] — explicit field-by-field configuration digests for
//!   memoization keys (no reliance on `Debug` renderings).
//!
//! The crate is intentionally free of I/O and of `std::time`: simulated time
//! never observes wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fingerprint;
pub mod hash;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod runq;
pub mod stats;
pub mod time;

pub use batch::{AdmissionCursor, BatchProbe};
pub use fingerprint::{Fingerprint, Fingerprintable};
pub use hash::{FastHash, FastHasher};
pub use pool::{BufPool, PoolProbe, PoolStats};
pub use queue::EventQueue;
pub use rng::{Pcg32, SplitMix64};
pub use runq::{RunQueue, WorkClass};
pub use time::{SimDuration, SimTime};
