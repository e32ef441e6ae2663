//! BPF code generation from the filter AST.
//!
//! The generator follows the classic libpcap structure: every boolean
//! subexpression is lowered to a control-flow fragment with a *true* and a
//! *false* exit label, then labels are resolved to the forward-only relative
//! offsets of the instruction format.
//!
//! The generator tracks an **abstract machine state** (what the
//! accumulator holds, which header guards have already passed on the
//! current path) and skips redundant loads and guards as it emits. The
//! optimizer ([`crate::opt`]) is what brings the thesis' Fig. 6.5
//! expression — an `and`-chain of 38 `ip src`/`ip dst` tests plus
//! preamble — down to the 50 instructions the thesis reports: with
//! `opt::optimize` skipped it compiles to 162. The generator's state is
//! still load-bearing. With it disabled and the optimizer kept:
//!
//! * `udp[0:2] = udp[2:2]` and
//!   `ip and (tcp or (udp and (port 53 or port 80))) and not arp` each
//!   keep a dead `ldh [12]`;
//! * an `ip and ip …` chain at `MAX_FILTER_DEPTH` emits more than
//!   `MAXINSNS` instructions and fails with `TooLong` before the
//!   optimizer runs.

use super::ast::*;
use crate::insn::{self, Insn};
use crate::validate::{validate, ValidateError};

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// Ran out of scratch-memory slots for nested computed comparisons.
    OutOfScratch,
    /// Transport-relative loads with computed offsets cannot nest.
    NestedTransportLoad,
    /// The emitted program failed validation (an internal bug if it ever
    /// happens).
    Invalid(ValidateError),
}

impl core::fmt::Display for GenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GenError::OutOfScratch => write!(f, "expression too deep: out of scratch slots"),
            GenError::NestedTransportLoad => {
                write!(f, "nested transport-relative loads are not supported")
            }
            GenError::Invalid(e) => write!(f, "generated invalid program: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

use crate::lower::{resolve, Ir, Label};

/// What the accumulator is known to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AVal {
    /// An absolute packet load of the given size (size bits of the opcode).
    Abs { size: u16, off: u32 },
    /// The packet length.
    PktLen,
    /// A constant.
    Const(u32),
}

/// A header fact established by a passed guard on the current path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fact {
    /// EtherType equals the value.
    EtherTypeIs(u16),
    /// The packet is IPv4 and its protocol field equals the value.
    IpProtoIs(u8),
}

/// Abstract machine state along one control path.
#[derive(Debug, Clone, Default, PartialEq)]
struct St {
    a: Option<AVal>,
    facts: Vec<Fact>,
}

impl St {
    fn has(&self, f: Fact) -> bool {
        self.facts.contains(&f)
    }

    fn with_fact(mut self, f: Fact) -> St {
        if !self.facts.contains(&f) {
            self.facts.push(f);
        }
        self
    }

    /// The meet (intersection) of states arriving from several paths.
    fn meet(states: &[St]) -> St {
        let mut it = states.iter();
        let first = match it.next() {
            Some(s) => s.clone(),
            None => return St::default(),
        };
        let mut out = first;
        for s in it {
            if out.a != s.a {
                out.a = None;
            }
            out.facts.retain(|f| s.facts.contains(f));
        }
        out
    }
}

const ETH_IP: u16 = 0x0800;
/// Frame offset of the EtherType field.
const OFF_ETHERTYPE: u32 = 12;
/// Frame offset of the IPv4 protocol field.
const OFF_IPPROTO: u32 = 23;
/// Frame offset of the IPv4 fragment-offset field.
const OFF_FRAG: u32 = 20;
/// Frame offset of the IPv4 source address.
const OFF_IPSRC: u32 = 26;
/// Frame offset of the IPv4 destination address.
const OFF_IPDST: u32 = 30;
/// Frame offset where the IPv4 header begins.
const IP_BASE: u32 = 14;

struct Gen {
    ir: Vec<Ir>,
    next_label: Label,
    next_slot: u32,
    /// Statements and conditionals emitted so far. Resolution keeps every
    /// one of them, so the program is at least this long.
    emitted: usize,
}

impl Gen {
    fn new() -> Self {
        Gen {
            ir: Vec::new(),
            next_label: 0,
            next_slot: 0,
            emitted: 0,
        }
    }

    /// Fail with `TooLong` as soon as the program can no longer fit
    /// [`insn::MAXINSNS`], instead of emitting the rest of it.
    fn check_len(&self) -> Result<(), GenError> {
        if self.emitted > insn::MAXINSNS {
            return Err(GenError::Invalid(ValidateError::TooLong(self.emitted)));
        }
        Ok(())
    }

    fn fresh(&mut self) -> Label {
        let l = self.next_label;
        self.next_label += 1;
        l
    }

    fn mark(&mut self, l: Label) {
        self.ir.push(Ir::Mark(l));
    }

    fn stmt(&mut self, i: Insn) {
        self.emitted += 1;
        self.ir.push(Ir::Stmt(i));
    }

    fn cond(&mut self, code: u16, k: u32, jt: Label, jf: Label) {
        self.emitted += 1;
        self.ir.push(Ir::Cond { code, k, jt, jf });
    }

    fn alloc_slot(&mut self) -> Result<u32, GenError> {
        if self.next_slot as usize >= insn::MEMWORDS {
            return Err(GenError::OutOfScratch);
        }
        let s = self.next_slot;
        self.next_slot += 1;
        Ok(s)
    }

    /// Load `val` into A unless the state already guarantees it's there.
    fn ensure_a(&mut self, st: &mut St, val: AVal) {
        if st.a == Some(val) {
            return;
        }
        let i = match val {
            AVal::Abs { size, off } => Insn::stmt(insn::LD | size | insn::ABS, off),
            AVal::PktLen => Insn::stmt(insn::LD | insn::W | insn::LEN, 0),
            AVal::Const(k) => Insn::stmt(insn::LD | insn::W | insn::IMM, k),
        };
        self.stmt(i);
        st.a = Some(val);
    }

    /// Emit a guard: continue (fall through) when `A == k` after loading
    /// `val`; jump to `f` otherwise. Returns the fall-through state.
    fn guard_eq(&mut self, mut st: St, val: AVal, k: u32, fact: Fact, f: Label) -> St {
        if st.has(fact) {
            return st;
        }
        self.ensure_a(&mut st, val);
        let cont = self.fresh();
        self.cond(insn::JMP | insn::JEQ | insn::K, k, cont, f);
        self.mark(cont);
        st.with_fact(fact)
    }

    /// Generate `e`, jumping to `t` when true and `f` when false.
    /// Returns the abstract states guaranteed at `t` and at `f`
    /// (considering only exits produced by this fragment).
    fn gen_cond(&mut self, e: &Expr, t: Label, f: Label, st: St) -> Result<(St, St), GenError> {
        self.check_len()?;
        match e {
            Expr::Not(x) => {
                let (xt, xf) = self.gen_cond(x, f, t, st)?;
                Ok((xf, xt))
            }
            Expr::And(l, r) => {
                let mid = self.fresh();
                let (lt, lf) = self.gen_cond(l, mid, f, st)?;
                self.mark(mid);
                let (rt, rf) = self.gen_cond(r, t, f, lt)?;
                Ok((rt, St::meet(&[lf, rf])))
            }
            Expr::Or(l, r) => {
                let mid = self.fresh();
                let (lt, lf) = self.gen_cond(l, t, mid, st)?;
                self.mark(mid);
                let (rt, rf) = self.gen_cond(r, t, f, lf)?;
                Ok((St::meet(&[lt, rt]), rf))
            }
            Expr::Prim(p) => self.gen_prim(p, t, f, st),
            Expr::Rel(op, lhs, rhs) => self.gen_rel(*op, lhs, rhs, t, f, st),
        }
    }

    fn gen_prim(
        &mut self,
        p: &Primitive,
        t: Label,
        f: Label,
        st: St,
    ) -> Result<(St, St), GenError> {
        match p {
            Primitive::EtherProto(v) => {
                let mut st = st;
                let val = AVal::Abs {
                    size: insn::H,
                    off: OFF_ETHERTYPE,
                };
                if st.has(Fact::EtherTypeIs(*v)) {
                    self.ir.push(Ir::Goto(t));
                    return Ok((st.clone(), st));
                }
                self.ensure_a(&mut st, val);
                self.cond(insn::JMP | insn::JEQ | insn::K, *v as u32, t, f);
                let tstate = st.clone().with_fact(Fact::EtherTypeIs(*v));
                Ok((tstate, st))
            }
            Primitive::IpProto(pr) => {
                let entry = st.clone();
                let st = self.guard_eq(
                    st,
                    AVal::Abs {
                        size: insn::H,
                        off: OFF_ETHERTYPE,
                    },
                    ETH_IP as u32,
                    Fact::EtherTypeIs(ETH_IP),
                    f,
                );
                let mut st = st;
                if st.has(Fact::IpProtoIs(*pr)) {
                    self.ir.push(Ir::Goto(t));
                    return Ok((st.clone(), st));
                }
                self.ensure_a(
                    &mut st,
                    AVal::Abs {
                        size: insn::B,
                        off: OFF_IPPROTO,
                    },
                );
                self.cond(insn::JMP | insn::JEQ | insn::K, *pr as u32, t, f);
                let tstate = st.clone().with_fact(Fact::IpProtoIs(*pr));
                // f receives both the guard failure and the proto mismatch.
                Ok((tstate, St::meet(&[entry, st])))
            }
            Primitive::Host(dir, addr) => {
                let entry = st.clone();
                let mut st = self.guard_eq(
                    st,
                    AVal::Abs {
                        size: insn::H,
                        off: OFF_ETHERTYPE,
                    },
                    ETH_IP as u32,
                    Fact::EtherTypeIs(ETH_IP),
                    f,
                );
                let a = u32::from_be_bytes(addr.octets());
                match dir {
                    Dir::Src | Dir::Dst => {
                        let off = if *dir == Dir::Src {
                            OFF_IPSRC
                        } else {
                            OFF_IPDST
                        };
                        self.ensure_a(&mut st, AVal::Abs { size: insn::W, off });
                        self.cond(insn::JMP | insn::JEQ | insn::K, a, t, f);
                        Ok((st.clone(), St::meet(&[entry, st])))
                    }
                    Dir::Either => {
                        let try_dst = self.fresh();
                        self.ensure_a(
                            &mut st,
                            AVal::Abs {
                                size: insn::W,
                                off: OFF_IPSRC,
                            },
                        );
                        self.cond(insn::JMP | insn::JEQ | insn::K, a, t, try_dst);
                        self.mark(try_dst);
                        let src_checked = st.clone();
                        self.ensure_a(
                            &mut st,
                            AVal::Abs {
                                size: insn::W,
                                off: OFF_IPDST,
                            },
                        );
                        self.cond(insn::JMP | insn::JEQ | insn::K, a, t, f);
                        Ok((St::meet(&[src_checked, st.clone()]), St::meet(&[entry, st])))
                    }
                }
            }
            Primitive::Net(dir, addr, prefix) => {
                let entry = st.clone();
                let st = self.guard_eq(
                    st,
                    AVal::Abs {
                        size: insn::H,
                        off: OFF_ETHERTYPE,
                    },
                    ETH_IP as u32,
                    Fact::EtherTypeIs(ETH_IP),
                    f,
                );
                let mask: u32 = if *prefix == 0 {
                    0
                } else {
                    (!0u32) << (32 - *prefix as u32)
                };
                let net = u32::from_be_bytes(addr.octets()) & mask;
                let check = |g: &mut Gen, mut s: St, off: u32, jt: Label, jf: Label| -> St {
                    g.ensure_a(&mut s, AVal::Abs { size: insn::W, off });
                    g.stmt(Insn::stmt(insn::ALU | insn::AND | insn::K, mask));
                    s.a = None; // masked value, not the raw load
                    g.cond(insn::JMP | insn::JEQ | insn::K, net, jt, jf);
                    s
                };
                match dir {
                    Dir::Src | Dir::Dst => {
                        let off = if *dir == Dir::Src {
                            OFF_IPSRC
                        } else {
                            OFF_IPDST
                        };
                        let s = check(self, st, off, t, f);
                        Ok((s.clone(), St::meet(&[entry, s])))
                    }
                    Dir::Either => {
                        let try_dst = self.fresh();
                        let s1 = check(self, st, OFF_IPSRC, t, try_dst);
                        self.mark(try_dst);
                        let s2 = check(self, s1.clone(), OFF_IPDST, t, f);
                        Ok((St::meet(&[s1, s2.clone()]), St::meet(&[entry, s2])))
                    }
                }
            }
            Primitive::Port(pp, dir, port) => {
                let entry = st.clone();
                let st = self.guard_eq(
                    st,
                    AVal::Abs {
                        size: insn::H,
                        off: OFF_ETHERTYPE,
                    },
                    ETH_IP as u32,
                    Fact::EtherTypeIs(ETH_IP),
                    f,
                );
                // Protocol gate.
                let mut st = st;
                match pp {
                    PortProto::Tcp => {
                        st = self.guard_eq(
                            st,
                            AVal::Abs {
                                size: insn::B,
                                off: OFF_IPPROTO,
                            },
                            6,
                            Fact::IpProtoIs(6),
                            f,
                        );
                    }
                    PortProto::Udp => {
                        st = self.guard_eq(
                            st,
                            AVal::Abs {
                                size: insn::B,
                                off: OFF_IPPROTO,
                            },
                            17,
                            Fact::IpProtoIs(17),
                            f,
                        );
                    }
                    PortProto::Any => {
                        if !st.has(Fact::IpProtoIs(6)) && !st.has(Fact::IpProtoIs(17)) {
                            let is_l4 = self.fresh();
                            let not_tcp = self.fresh();
                            self.ensure_a(
                                &mut st,
                                AVal::Abs {
                                    size: insn::B,
                                    off: OFF_IPPROTO,
                                },
                            );
                            self.cond(insn::JMP | insn::JEQ | insn::K, 6, is_l4, not_tcp);
                            self.mark(not_tcp);
                            self.cond(insn::JMP | insn::JEQ | insn::K, 17, is_l4, f);
                            self.mark(is_l4);
                            // Protocol is tcp-or-udp; neither single fact holds.
                        }
                    }
                }
                // Ports are unmatchable in non-first fragments.
                self.ensure_a(
                    &mut st,
                    AVal::Abs {
                        size: insn::H,
                        off: OFF_FRAG,
                    },
                );
                let not_frag = self.fresh();
                self.cond(insn::JMP | insn::JSET | insn::K, 0x1fff, f, not_frag);
                self.mark(not_frag);
                // X := IP header length; then load the port(s).
                self.stmt(Insn::stmt(insn::LDX | insn::B | insn::MSH, IP_BASE));
                let load_port = |g: &mut Gen, s: &mut St, off: u32| {
                    g.stmt(Insn::stmt(insn::LD | insn::H | insn::IND, IP_BASE + off));
                    s.a = None;
                };
                match dir {
                    Dir::Src | Dir::Dst => {
                        let off = if *dir == Dir::Src { 0 } else { 2 };
                        load_port(self, &mut st, off);
                        self.cond(insn::JMP | insn::JEQ | insn::K, *port as u32, t, f);
                    }
                    Dir::Either => {
                        let try_dst = self.fresh();
                        load_port(self, &mut st, 0);
                        self.cond(insn::JMP | insn::JEQ | insn::K, *port as u32, t, try_dst);
                        self.mark(try_dst);
                        load_port(self, &mut st, 2);
                        self.cond(insn::JMP | insn::JEQ | insn::K, *port as u32, t, f);
                    }
                }
                Ok((st.clone(), St::meet(&[entry, st])))
            }
            Primitive::EtherHost(dir, mac) => {
                let mut st = st;
                let last4 = u32::from_be_bytes([mac[2], mac[3], mac[4], mac[5]]);
                let first2 = u16::from_be_bytes([mac[0], mac[1]]) as u32;
                // Offsets: dst at 0 (2+4 split 0/2), src at 6 (split 6/8).
                let check = |g: &mut Gen, s: &mut St, base: u32, jt: Label, jf: Label| {
                    let cont = g.fresh();
                    g.ensure_a(
                        s,
                        AVal::Abs {
                            size: insn::W,
                            off: base + 2,
                        },
                    );
                    g.cond(insn::JMP | insn::JEQ | insn::K, last4, cont, jf);
                    g.mark(cont);
                    g.ensure_a(
                        s,
                        AVal::Abs {
                            size: insn::H,
                            off: base,
                        },
                    );
                    g.cond(insn::JMP | insn::JEQ | insn::K, first2, jt, jf);
                };
                match dir {
                    Dir::Src => check(self, &mut st, 6, t, f),
                    Dir::Dst => check(self, &mut st, 0, t, f),
                    Dir::Either => {
                        let try_dst = self.fresh();
                        check(self, &mut st, 6, t, try_dst);
                        self.mark(try_dst);
                        check(self, &mut st, 0, t, f);
                    }
                }
                Ok((st.clone(), st))
            }
            Primitive::LenLe(n) => {
                let mut st = st;
                self.ensure_a(&mut st, AVal::PktLen);
                // len <= n  ⟺  !(len > n)
                self.cond(insn::JMP | insn::JGT | insn::K, *n, f, t);
                Ok((st.clone(), st))
            }
            Primitive::LenGe(n) => {
                let mut st = st;
                self.ensure_a(&mut st, AVal::PktLen);
                self.cond(insn::JMP | insn::JGE | insn::K, *n, t, f);
                Ok((st.clone(), st))
            }
        }
    }

    fn gen_rel(
        &mut self,
        op: RelOp,
        lhs: &Arith,
        rhs: &Arith,
        t: Label,
        f: Label,
        st: St,
    ) -> Result<(St, St), GenError> {
        // Fully constant relations fold to a goto.
        if let (Some(l), Some(r)) = (lhs.const_value(), rhs.const_value()) {
            let truth = match op {
                RelOp::Eq => l == r,
                RelOp::Ne => l != r,
                RelOp::Gt => l > r,
                RelOp::Lt => l < r,
                RelOp::Ge => l >= r,
                RelOp::Le => l <= r,
            };
            self.ir.push(Ir::Goto(if truth { t } else { f }));
            return Ok((st.clone(), st));
        }

        // (jump code, k-const?, swap targets?)
        let plan = |op: RelOp| -> (u16, bool) {
            match op {
                RelOp::Eq => (insn::JEQ, false),
                RelOp::Ne => (insn::JEQ, true),
                RelOp::Gt => (insn::JGT, false),
                RelOp::Le => (insn::JGT, true),
                RelOp::Ge => (insn::JGE, false),
                RelOp::Lt => (insn::JGE, true),
            }
        };
        let reverse = |op: RelOp| -> RelOp {
            match op {
                RelOp::Eq => RelOp::Eq,
                RelOp::Ne => RelOp::Ne,
                RelOp::Gt => RelOp::Lt,
                RelOp::Lt => RelOp::Gt,
                RelOp::Ge => RelOp::Le,
                RelOp::Le => RelOp::Ge,
            }
        };

        let entry = st.clone();
        let (code_op, swap, k_or_x, st) = if let Some(r) = rhs.const_value() {
            let st = self.gen_arith(lhs, f, st)?;
            let (c, s) = plan(op);
            (c, s, (insn::K, r), st)
        } else if let Some(l) = lhs.const_value() {
            let st = self.gen_arith(rhs, f, st)?;
            let (c, s) = plan(reverse(op));
            (c, s, (insn::K, l), st)
        } else {
            // Both computed: rhs -> scratch, lhs -> A, X := scratch.
            let slot = self.alloc_slot()?;
            let st = self.gen_arith(rhs, f, st)?;
            self.stmt(Insn::stmt(insn::ST, slot));
            let st = self.gen_arith(lhs, f, st)?;
            self.stmt(Insn::stmt(insn::LDX | insn::W | insn::MEM, slot));
            let (c, s) = plan(op);
            (c, s, (insn::X, 0), st)
        };
        let (src, k) = k_or_x;
        let (jt, jf) = if swap { (f, t) } else { (t, f) };
        self.cond(insn::JMP | code_op | src, k, jt, jf);
        Ok((st.clone(), St::meet(&[entry, st])))
    }

    /// Emit code leaving the value of `a` in the accumulator. Guard
    /// failures (non-IP packet for `ip[...]`, wrong protocol for
    /// `tcp[...]`) jump to `f`.
    fn gen_arith(&mut self, a: &Arith, f: Label, st: St) -> Result<St, GenError> {
        self.check_len()?;
        match a {
            Arith::Num(n) => {
                let mut st = st;
                self.ensure_a(&mut st, AVal::Const(*n));
                Ok(st)
            }
            Arith::PktLen => {
                let mut st = st;
                self.ensure_a(&mut st, AVal::PktLen);
                Ok(st)
            }
            Arith::Load { base, offset, size } => {
                let size_bits = match size {
                    1 => insn::B,
                    2 => insn::H,
                    _ => insn::W,
                };
                match base {
                    LoadBase::Ether => {
                        if let Some(off) = offset.const_value() {
                            let mut st = st;
                            self.ensure_a(
                                &mut st,
                                AVal::Abs {
                                    size: size_bits,
                                    off,
                                },
                            );
                            Ok(st)
                        } else {
                            let mut st = self.gen_arith(offset, f, st)?;
                            self.stmt(Insn::stmt(insn::MISC | insn::TAX, 0));
                            self.stmt(Insn::stmt(insn::LD | size_bits | insn::IND, 0));
                            st.a = None;
                            Ok(st)
                        }
                    }
                    LoadBase::Ip => {
                        let st = self.guard_eq(
                            st,
                            AVal::Abs {
                                size: insn::H,
                                off: OFF_ETHERTYPE,
                            },
                            ETH_IP as u32,
                            Fact::EtherTypeIs(ETH_IP),
                            f,
                        );
                        if let Some(off) = offset.const_value() {
                            let mut st = st;
                            self.ensure_a(
                                &mut st,
                                AVal::Abs {
                                    size: size_bits,
                                    off: IP_BASE + off,
                                },
                            );
                            Ok(st)
                        } else {
                            let mut st = self.gen_arith(offset, f, st)?;
                            self.stmt(Insn::stmt(insn::MISC | insn::TAX, 0));
                            self.stmt(Insn::stmt(insn::LD | size_bits | insn::IND, IP_BASE));
                            st.a = None;
                            Ok(st)
                        }
                    }
                    LoadBase::Tcp | LoadBase::Udp | LoadBase::Icmp => {
                        let proto = match base {
                            LoadBase::Tcp => 6,
                            LoadBase::Udp => 17,
                            _ => 1,
                        };
                        let st = self.guard_eq(
                            st,
                            AVal::Abs {
                                size: insn::H,
                                off: OFF_ETHERTYPE,
                            },
                            ETH_IP as u32,
                            Fact::EtherTypeIs(ETH_IP),
                            f,
                        );
                        let mut st = self.guard_eq(
                            st,
                            AVal::Abs {
                                size: insn::B,
                                off: OFF_IPPROTO,
                            },
                            proto,
                            Fact::IpProtoIs(proto as u8),
                            f,
                        );
                        // Non-first fragments have no transport header.
                        self.ensure_a(
                            &mut st,
                            AVal::Abs {
                                size: insn::H,
                                off: OFF_FRAG,
                            },
                        );
                        let cont = self.fresh();
                        self.cond(insn::JMP | insn::JSET | insn::K, 0x1fff, f, cont);
                        self.mark(cont);
                        if let Some(off) = offset.const_value() {
                            self.stmt(Insn::stmt(insn::LDX | insn::B | insn::MSH, IP_BASE));
                            self.stmt(Insn::stmt(insn::LD | size_bits | insn::IND, IP_BASE + off));
                        } else {
                            if contains_transport_load(offset) {
                                return Err(GenError::NestedTransportLoad);
                            }
                            st = self.gen_arith(offset, f, st)?;
                            self.stmt(Insn::stmt(insn::LDX | insn::B | insn::MSH, IP_BASE));
                            self.stmt(Insn::stmt(insn::ALU | insn::ADD | insn::X, 0));
                            self.stmt(Insn::stmt(insn::MISC | insn::TAX, 0));
                            self.stmt(Insn::stmt(insn::LD | size_bits | insn::IND, IP_BASE));
                        }
                        st.a = None;
                        Ok(st)
                    }
                }
            }
            Arith::Bin(op, l, r) => {
                let alu = match op {
                    ArithOp::Add => insn::ADD,
                    ArithOp::Sub => insn::SUB,
                    ArithOp::Mul => insn::MUL,
                    ArithOp::Div => insn::DIV,
                    ArithOp::And => insn::AND,
                    ArithOp::Or => insn::OR,
                };
                if let Some(rv) = r.const_value() {
                    let mut st = self.gen_arith(l, f, st)?;
                    self.stmt(Insn::stmt(insn::ALU | alu | insn::K, rv));
                    st.a = None;
                    Ok(st)
                } else if l.const_value().is_some()
                    && matches!(op, ArithOp::Add | ArithOp::Mul | ArithOp::And | ArithOp::Or)
                {
                    let lv = l.const_value().expect("checked");
                    let mut st = self.gen_arith(r, f, st)?;
                    self.stmt(Insn::stmt(insn::ALU | alu | insn::K, lv));
                    st.a = None;
                    Ok(st)
                } else {
                    let slot = self.alloc_slot()?;
                    let st = self.gen_arith(r, f, st)?;
                    self.stmt(Insn::stmt(insn::ST, slot));
                    let mut st = self.gen_arith(l, f, st)?;
                    self.stmt(Insn::stmt(insn::LDX | insn::W | insn::MEM, slot));
                    self.stmt(Insn::stmt(insn::ALU | alu | insn::X, 0));
                    st.a = None;
                    Ok(st)
                }
            }
        }
    }
}

fn contains_transport_load(a: &Arith) -> bool {
    match a {
        Arith::Load { base, offset, .. } => {
            matches!(base, LoadBase::Tcp | LoadBase::Udp | LoadBase::Icmp)
                || contains_transport_load(offset)
        }
        Arith::Bin(_, l, r) => contains_transport_load(l) || contains_transport_load(r),
        _ => false,
    }
}

/// Compile an optional expression into a validated BPF program. `None`
/// (the empty filter) accepts everything. `snaplen` is the byte count a
/// matching packet is accepted with.
pub fn generate(expr: Option<&Expr>, snaplen: u32) -> Result<Vec<Insn>, GenError> {
    let expr = match expr {
        None => {
            return Ok(vec![Insn::stmt(insn::RET | insn::K, snaplen)]);
        }
        Some(e) => e,
    };
    let mut g = Gen::new();
    let accept = g.fresh();
    let reject = g.fresh();
    g.gen_cond(expr, accept, reject, St::default())?;
    g.mark(accept);
    g.stmt(Insn::stmt(insn::RET | insn::K, snaplen));
    g.mark(reject);
    g.stmt(Insn::stmt(insn::RET | insn::K, 0));
    let prog = resolve(g.ir, g.next_label);
    validate(&prog).map_err(GenError::Invalid)?;
    Ok(prog)
}
