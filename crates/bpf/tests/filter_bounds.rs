//! Bounds on what a filter expression may cost the compiler.
//!
//! Nesting is bounded by [`MAX_FILTER_DEPTH`]: each shape compiles at the
//! bound and fails with a typed parse error at bound + 1 and at
//! 1,000,000, on a thread with the 2 MiB stack every spawned thread gets,
//! instead of aborting the process. Codegen stops as soon as the program
//! passes `MAXINSNS`.
//!
//! Every filter expression in the repository still compiles to the
//! program frozen in `tests/golden/filters.txt`: the expressions the
//! examples, experiments, benchmark and unit tests install, their
//! disassembly in the `tcpdump -d` dialect, and the error of each one
//! that must fail. Regenerate after an intentional compiler change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pcs-bpf --test filter_bounds
//! ```

use pcs_bpf::compiler::parser::MAX_FILTER_DEPTH;
use pcs_bpf::compiler::{CompileError, GenError};
use pcs_bpf::insn::MAXINSNS;
use pcs_bpf::validate::ValidateError;
use pcs_bpf::{asm, compile, programs};
use std::path::PathBuf;

/// Run `f` on a thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("compile must return, not overflow the stack");
}

fn parens(n: usize) -> String {
    "(".repeat(n) + "ip" + &")".repeat(n)
}

fn nots(n: usize) -> String {
    "not ".repeat(n) + "ip"
}

/// `n` operators: `ip and ip and … ip`.
fn and_chain(n: usize) -> String {
    vec!["ip"; n + 1].join(" and ")
}

/// `n` nested accessors: `ether[ether[… 0 …]] = 0`.
fn brackets(n: usize) -> String {
    "ether[".repeat(n) + "0" + &"]".repeat(n) + " = 0"
}

/// `n` operators: `len = 1 + 1 + … 1`.
fn sum(n: usize) -> String {
    format!("len = {}", vec!["1"; n + 1].join(" + "))
}

/// The error every over-deep expression fails with, at token `at`.
fn too_deep(at: usize) -> String {
    format!("parse error: at token {at}: expression nested deeper than {MAX_FILTER_DEPTH}")
}

fn compile_err(expression: &str) -> String {
    match compile(expression, 96) {
        Ok(prog) => panic!("compiled to {} instructions", prog.len()),
        Err(e) => e.to_string(),
    }
}

#[test]
fn each_boolean_shape_compiles_at_the_bound_and_fails_typed_beyond_it() {
    on_small_stack(|| {
        let ip = compile("ip", 96).expect("ip");
        // The bound is even, so the `not`s cancel: every shape is `ip`.
        for shape in [parens, nots, and_chain] {
            assert_eq!(compile(&shape(MAX_FILTER_DEPTH), 96), Ok(ip.clone()));
        }
        let over = MAX_FILTER_DEPTH + 1;
        assert_eq!(compile_err(&parens(over)), too_deep(over));
        assert_eq!(compile_err(&parens(1_000_000)), too_deep(over));
        assert_eq!(compile_err(&nots(over)), too_deep(over));
        assert_eq!(compile_err(&nots(1_000_000)), too_deep(over));
        // A chain fails once its next operator is read.
        assert_eq!(compile_err(&and_chain(over)), too_deep(2 * over + 1));
        assert_eq!(compile_err(&and_chain(1_000_000)), too_deep(2 * over + 2));
    });
}

#[test]
fn arithmetic_nesting_is_bounded_the_same_way() {
    on_small_stack(|| {
        // At the bound the nested accessors parse; their program is too
        // long for the VM.
        assert!(matches!(
            compile(&brackets(MAX_FILTER_DEPTH), 96),
            Err(CompileError::Gen(GenError::Invalid(
                ValidateError::TooLong(_)
            )))
        ));
        assert_eq!(
            compile(&sum(MAX_FILTER_DEPTH), 96),
            compile("len = 2049", 96)
        );
        let over = MAX_FILTER_DEPTH + 1;
        assert_eq!(compile_err(&brackets(over)), too_deep(2 * over));
        assert_eq!(compile_err(&brackets(1_000_000)), too_deep(2 * over));
        assert_eq!(compile_err(&sum(over)), too_deep(2 * over + 3));
        assert_eq!(compile_err(&sum(1_000_000)), too_deep(2 * over + 3));
    });
}

#[test]
fn codegen_stops_as_soon_as_the_program_passes_maxinsns() {
    for terms in [500, 2_000] {
        let chain: Vec<String> = (1..=terms).map(|p| format!("dst port {p}")).collect();
        match compile(&chain.join(" or "), 96) {
            Err(CompileError::Gen(GenError::Invalid(ValidateError::TooLong(n)))) => {
                assert!(n > MAXINSNS && n < MAXINSNS + 32, "{terms} terms: {n}")
            }
            other => panic!("{terms} terms: {other:?}"),
        }
    }
}

/// Every filter expression the repository compiles, in a fixed order.
fn repository_filters() -> Vec<String> {
    let literal = [
        // Examples, experiments and the capture library.
        "udp and dst port 9",
        "udp dst port 9",
        "ip src 192.168.10.100",
        "not tcp and ether[6:4]=0",
        "greater 1000",
        "ip and not tcp port 443",
        "less 700",
        "greater 701",
        "tcp",
        // The compiler's own unit tests.
        "",
        "ip",
        "arp",
        "icmp",
        "udp",
        "not tcp",
        "ip proto 17",
        "ip proto 89",
        "ip src 192.168.10.12",
        "ip dst 192.168.10.12",
        "host 192.168.10.100",
        "host 192.168.10.12",
        "host 10.0.0.1",
        "src host 1.2.3.4 and dst host 192.168.10.12",
        "net 192.168.10.0/24",
        "src net 192.168.0.0/16",
        "src net 10.0.0.0/8",
        "dst net 10.0.0.0/8",
        "net 172.16.0.0/12",
        "port 53",
        "udp port 53",
        "tcp port 53",
        "dst port 53",
        "src port 53",
        "src port 1234",
        "port 80",
        "tcp dst port 80",
        "udp src port 9",
        "ether src 00:00:00:00:00:00",
        "ether src 00:00:00:00:00:01",
        "ether dst 00:0e:0c:01:02:03",
        "ether host 00:0e:0c:01:02:03",
        "ether host 01:02:03:04:05:06",
        "greater 100",
        "greater 201",
        "less 200",
        "less 199",
        "len = 200",
        "len > 100 and len < 300",
        "len != 100",
        "len >= 200 and len <= 200",
        "len = 2 + 3 * 4",
        "ether[6:4]=0x00000000",
        "ether[12:2]=0x0800",
        "ip[0] = 0x45",
        "ip[0] & 0xf0 = 0x40",
        "ip[0] & 0xf != 5",
        "ip[8] = 32",
        "udp[2:2] = 2",
        "udp[2:2] = 3",
        "tcp[2:2] = 2",
        "ip and udp",
        "tcp or udp",
        "tcp and udp",
        "ip or tcp and udp",
        "(ip or tcp) and udp",
        "not (tcp or arp)",
        "(ip src 10.0.0.1 or ip src 10.0.0.9) and udp",
        "ip src 10.0.0.1 and not udp",
        "udp[0:2] = udp[2:2]",
        "len = ip[2:2] + 14",
        "ether[ip[0] & 0 + 12] = 0x08",
        "udp port 53 or tcp port 80",
        "host 1.2.3.4 and greater 64 and less 1500",
        "net 10.0.0.0/8 or net 192.168.0.0/16",
        "ether[6:4]=0 and ether[10]=0 and not tcp",
        // Precedence and grouping.
        "not not ip",
        "((ip))",
        "not ip and tcp or not udp and arp",
        "ip or tcp or udp and arp and icmp or ip6",
        "not ip or not tcp and not not udp",
        "! ( tcp || udp ) && ip",
        "(((tcp) or (udp)) and ((ip)))",
        "(ip or tcp) and (udp or arp) or (icmp and ip6)",
        "not (ip and (tcp or udp)) or (arp and not (icmp or ip6))",
        "ip and (tcp or (udp and (port 53 or port 80))) and not arp",
        "(len > 100 or len < 50) and not (ip[8] = 32 and udp)",
        "ether[ether[ether[0]]] = 1 and (ip[2:2] + 14 = len or not len = ip[2:2] + 14)",
        // Expressions that must fail, and how.
        "tcp[tcp[12]] = 0",
        "ip and",
        "host",
        "(ip",
        "ip ) tcp",
        "ether[4",
        "ether[4:3]=1",
        "len >",
        "ip tcp",
        "42",
        "port 70000",
        "net 10.0.0.0/33",
        "ip host 00:00:00:00:00:02",
        "ether",
        "ip proto 300",
        "!bogus!",
        "this is not a filter !!",
        "((ip)",
        "(ip))",
        "not",
        "()",
        "not ()",
        "ip and ()",
        "(ip or )",
        "ip and (tcp or",
        "ether[(1)] = 0",
    ];
    let mut filters: Vec<String> = literal.iter().map(|s| s.to_string()).collect();
    filters.push(programs::fig65_expression());
    filters
}

/// One golden entry: the expression, then its program or its error.
fn render(expression: &str) -> String {
    let body = match compile(expression, 65_535) {
        Ok(prog) => asm::disasm(&prog),
        Err(e) => format!("error: {e}"),
    };
    format!("== {expression}\n{body}\n")
}

#[test]
fn every_repository_filter_compiles_to_its_golden_program() {
    let actual: String = repository_filters().iter().map(|e| render(e)).collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/filters.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden filters.txt");
    assert_eq!(expected, actual, "a repository filter compiled differently");
}
