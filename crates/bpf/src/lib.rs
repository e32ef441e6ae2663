//! # pcs-bpf — the BSD Packet Filter
//!
//! A complete classic-BPF implementation for the Schneider (2005)
//! reproduction:
//!
//! * [`insn`] — the 64-bit instruction format of McCanne & Jacobson's
//!   filter machine, shared by FreeBSD's BPF devices and the Linux Socket
//!   Filter (thesis §2.1);
//! * [`vm`] — the interpreter, with kernel semantics (out-of-bounds loads
//!   reject, filters cannot trap) and executed-instruction accounting used
//!   by the simulated kernels to charge CPU time;
//! * [`validate()`](validate::validate) — the attach-time checker (`bpf_validate`);
//! * [`asm`] — disassembler in the `tcpdump -d` dialect;
//! * [`compiler`] — a pcap-filter-expression compiler with libpcap-style
//!   redundant-guard elimination, able to compile the thesis' Fig. 6.5
//!   expression to the 50 instructions the thesis reports;
//! * [`programs`] — canned programs used by the experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod compiler;
pub mod insn;
pub(crate) mod lower;
pub mod opt;
pub mod programs;
pub mod validate;
pub mod vm;

pub use compiler::{compile, CompileError};
pub use insn::Insn;
pub use validate::{validate, ValidateError};
pub use vm::{run, Verdict, VmError};
