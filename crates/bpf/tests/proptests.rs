//! Property tests for the BPF implementation.
//!
//! The central safety property of BPF: a program accepted by the
//! *validator* can never make the *interpreter* fail, on any packet —
//! that is the contract that lets the kernel run user-supplied filters.
//! Plus: the optimizer preserves semantics, compiled filters match
//! exactly the packets they name, and the filter compiler answers any
//! token soup without panicking.

use pcs_bpf::insn::{self, Insn};
use pcs_bpf::{opt, validate, vm};
use proptest::prelude::*;

/// Generate an arbitrary (mostly invalid) instruction.
fn arb_insn(prog_len: usize, index: usize) -> impl Strategy<Value = Insn> {
    let remaining = (prog_len - index - 1) as u8;
    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()).prop_map(move |(sel, jt, jf, k)| {
        // Bias toward plausible opcodes so the validator accepts some
        // programs; raw random u16 opcodes almost never validate.
        let code = match sel % 12 {
            0 => insn::LD | insn::W | insn::ABS,
            1 => insn::LD | insn::H | insn::ABS,
            2 => insn::LD | insn::B | insn::ABS,
            3 => insn::LD | insn::W | insn::IMM,
            4 => insn::LD | insn::W | insn::LEN,
            5 => insn::LDX | insn::B | insn::MSH,
            6 => insn::ALU | insn::ADD | insn::K,
            7 => insn::ALU | insn::RSH | insn::K,
            8 => insn::JMP | insn::JEQ | insn::K,
            9 => insn::JMP | insn::JGT | insn::K,
            10 => insn::ST,
            _ => insn::MISC | insn::TAX,
        };
        let (jt, jf) = if code & 0x07 == insn::JMP {
            (jt % remaining.max(1), jf % remaining.max(1))
        } else {
            (0, 0)
        };
        // Keep scratch slots mostly in range.
        let k = if code == insn::ST { k % 20 } else { k };
        Insn { code, jt, jf, k }
    })
}

fn arb_program() -> impl Strategy<Value = Vec<Insn>> {
    (1usize..24).prop_flat_map(|n| {
        let body: Vec<_> = (0..n - 1).map(|i| arb_insn(n, i)).collect();
        (body, any::<u32>()).prop_map(|(mut v, k)| {
            v.push(insn::ops::ret_k(k % 2000));
            v
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Validator acceptance implies the VM cannot trap, on any packet.
    #[test]
    fn validated_programs_never_trap(prog in arb_program(), data in proptest::collection::vec(any::<u8>(), 0..128)) {
        if validate(&prog).is_ok() {
            prop_assert!(vm::run(&prog, &data.as_slice()).is_ok());
        }
    }

    /// The optimizer preserves the verdict of every validated program.
    #[test]
    fn optimizer_preserves_semantics(prog in arb_program(), data in proptest::collection::vec(any::<u8>(), 0..96)) {
        if validate(&prog).is_ok() {
            let optimized = opt::optimize(&prog);
            prop_assert!(validate(&optimized).is_ok(), "optimized program must validate");
            let a = vm::run(&prog, &data.as_slice()).unwrap().accepted();
            let b = vm::run(&optimized, &data.as_slice()).unwrap().accepted();
            prop_assert_eq!(a, b, "verdict changed by optimization");
        }
    }

    /// The VM's instruction count never exceeds the program length
    /// (loop-freedom) for validated programs.
    #[test]
    fn executed_bounded_by_length(prog in arb_program(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
        if validate(&prog).is_ok() {
            let v = vm::run(&prog, &data.as_slice()).unwrap();
            prop_assert!(v.insns_executed as usize <= prog.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled address filters match exactly the packets they should.
    #[test]
    fn host_filter_matches_address(a in any::<[u8; 4]>(), b in any::<[u8; 4]>()) {
        use std::net::Ipv4Addr;
        let target = Ipv4Addr::from(a);
        let other = Ipv4Addr::from(b);
        let prog = pcs_bpf::compile(&format!("ip src {target}"), 96).unwrap();
        let make = |src: Ipv4Addr| {
            pcs_wire::SimPacket::build_udp(
                0, 0, 100,
                pcs_wire::MacAddr::ZERO, pcs_wire::MacAddr::BROADCAST,
                src, Ipv4Addr::new(10, 0, 0, 1), 9, 9)
        };
        prop_assert!(vm::run(&prog, &make(target)).unwrap().accepted());
        prop_assert_eq!(
            vm::run(&prog, &make(other)).unwrap().accepted(),
            other == target
        );
    }

    /// `greater N` / `less N` partition all packets by length.
    #[test]
    fn length_filters_partition(n in 60u32..1500, len in 60u32..1500) {
        use std::net::Ipv4Addr;
        let ge = pcs_bpf::compile(&format!("greater {n}"), 96).unwrap();
        let le = pcs_bpf::compile(&format!("less {n}"), 96).unwrap();
        let pkt = pcs_wire::SimPacket::build_udp(
            0, 0, len,
            pcs_wire::MacAddr::ZERO, pcs_wire::MacAddr::BROADCAST,
            Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 9, 9);
        let ge_m = vm::run(&ge, &pkt).unwrap().accepted();
        let le_m = vm::run(&le, &pkt).unwrap().accepted();
        prop_assert_eq!(ge_m, len >= n);
        prop_assert_eq!(le_m, len <= n);
    }
}

/// Filter-language tokens: primitives and qualifiers, operators,
/// brackets, numbers at and past the u32 limit, well- and badly-formed
/// addresses, stray bytes, and a few whole primitives so that some
/// soups reach code generation.
#[rustfmt::skip]
const FILTER_VOCAB: &[&str] = &[
    "ip", "ip6", "arp", "rarp", "tcp", "udp", "icmp", "ether", "host", "net", "port", "proto",
    "src", "dst", "less", "greater", "len", "and", "or", "not", "&&", "||", "!", "=", "==",
    "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "&", "|", "(", ")", "[", "]", ":",
    "udp[0:2]", "tcp[13]&2", "ether[12:2]", "ip[9]", "0", "1", "2", "4", "53", "255", "256",
    "65535", "65536", "4294967295", "4294967296", "99999999999999999999", "0x0", "0xffffffff",
    "0x100000000", "0x", "10.0.0.1", "192.168.0.0", "255.255.255.255", "256.0.0.1", "1.2.3",
    "1.2.3.4.5", "00:11:22:33:44:55", "ff:ff:ff:ff:ff:ff", "aa:bb", "1:2:3:4:5:6:7", "_", "é",
    "\"", "'", "\\", "@", "#", ",", ";", "\t", "\n", "\0", "tcp port 80", "ip src 10.0.0.1",
    "net 10.0.0.0/8", "ether host 00:11:22:33:44:55", "udp[0:2] = udp[2:2]", "len > 1000",
];

/// A token soup: indices into `vocab`, joined by single spaces (the
/// vendored proptest has no string strategy).
fn soup(vocab: &'static [&'static str], max_tokens: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..vocab.len(), 0..max_tokens)
        .prop_map(move |ix| ix.iter().map(|&i| vocab[i]).collect::<Vec<_>>().join(" "))
}

proptest! {
    /// The filter compiler answers any token soup with a valid program
    /// or a typed error, never a panic.
    #[test]
    fn compile_never_panics_on_token_soup(expr in soup(FILTER_VOCAB, 48), snaplen in any::<u32>()) {
        if let Ok(prog) = pcs_bpf::compile(&expr, snaplen) {
            prop_assert!(validate(&prog).is_ok(), "{expr:?} compiled to an invalid program");
        }
    }
}
