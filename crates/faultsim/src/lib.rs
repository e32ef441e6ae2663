//! # pcs-faultsim — deterministic fault injection + the invariant oracle
//!
//! The thesis' central observation is that capture systems degrade
//! *unevenly*: as load grows, drops migrate between the NIC ring, the
//! kernel buffer and the application depending on which resource
//! saturates first (Schneider 2005, Ch. 6). This crate manufactures
//! those degraded regimes on purpose — and proves the simulation stays
//! lawful under all of them:
//!
//! * [`FaultPlan`] — a seeded schedule of faults parsed from
//!   `--faults SPEC[:SEED]` and fingerprinted like every other piece of
//!   configuration. Machine-side faults (ring stalls, bus bursts, IRQ
//!   jitter, kernel-buffer shrink, app pauses, scheduler preemption)
//!   are injected through the hook trait [`pcs_oskernel::MachineFaults`] and
//!   deterministically change results; host-side faults (hiccups that
//!   stall the cell's stream reader, so that a generating cell's
//!   sniffers catch up and wait, and stream-cache squeeze) perturb the
//!   one cell pipeline's timing and residency and must **not** change
//!   results.
//! * [`Oracle`] — the sim-wide invariants every run must satisfy:
//!   packet conservation per stage, attribution balance, bound respect,
//!   rate sanity. The testbed checks every cell, in every build.
//!
//! Every fault window is a **closed-form function of the sim clock and
//! the plan seed** — no mutable schedule state — so an armed run is
//! byte-identical at any `--jobs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod armed;
mod oracle;
mod plan;

pub use armed::ArmedMachineFaults;
pub use oracle::Oracle;
pub use plan::{FaultKind, FaultPlan};
