//! Textual disassembler for classic BPF.
//!
//! The format matches `tcpdump -d` output (the thesis inspects compiled
//! filters this way when sizing the Fig. 6.5 expression at 50
//! instructions): one instruction per line, prefixed by its `(NNN)`
//! index, with *absolute* jump targets.
//!
//! ```text
//! (000) ldh      [12]
//! (001) jeq      #0x800           jt 2    jf 5
//! (002) ret      #96
//! ```

use crate::insn::{self, Insn};

/// Disassemble one instruction at `index` into the `tcpdump -d` dialect.
pub fn disasm_insn(ins: &Insn, index: usize) -> String {
    let next = index + 1;
    let body = match ins.class() {
        insn::LD => match (ins.mode(), ins.size()) {
            (insn::IMM, _) => format!("ld       #{:#x}", ins.k),
            (insn::LEN, _) => "ld       #pktlen".to_string(),
            (insn::MEM, _) => format!("ld       M[{}]", ins.k),
            (insn::ABS, insn::W) => format!("ld       [{}]", ins.k),
            (insn::ABS, insn::H) => format!("ldh      [{}]", ins.k),
            (insn::ABS, insn::B) => format!("ldb      [{}]", ins.k),
            (insn::IND, insn::W) => format!("ld       [x + {}]", ins.k),
            (insn::IND, insn::H) => format!("ldh      [x + {}]", ins.k),
            (insn::IND, insn::B) => format!("ldb      [x + {}]", ins.k),
            _ => format!("unknown {:#06x}", ins.code),
        },
        insn::LDX => match ins.mode() {
            insn::IMM => format!("ldx      #{:#x}", ins.k),
            insn::LEN => "ldx      #pktlen".to_string(),
            insn::MEM => format!("ldx      M[{}]", ins.k),
            insn::MSH => format!("ldx      4*([{}]&0xf)", ins.k),
            _ => format!("unknown {:#06x}", ins.code),
        },
        insn::ST => format!("st       M[{}]", ins.k),
        insn::STX => format!("stx      M[{}]", ins.k),
        insn::ALU => {
            let name = match ins.op() {
                insn::ADD => "add",
                insn::SUB => "sub",
                insn::MUL => "mul",
                insn::DIV => "div",
                insn::MOD => "mod",
                insn::OR => "or",
                insn::AND => "and",
                insn::XOR => "xor",
                insn::LSH => "lsh",
                insn::RSH => "rsh",
                insn::NEG => "neg",
                _ => return format!("unknown {:#06x}", ins.code),
            };
            if ins.op() == insn::NEG {
                name.to_string()
            } else if ins.src() == insn::X {
                format!("{name:<8} x")
            } else {
                format!("{name:<8} #{:#x}", ins.k)
            }
        }
        insn::JMP => {
            if ins.op() == insn::JA {
                format!("ja       {}", next + ins.k as usize)
            } else {
                let name = match ins.op() {
                    insn::JEQ => "jeq",
                    insn::JGT => "jgt",
                    insn::JGE => "jge",
                    insn::JSET => "jset",
                    _ => return format!("unknown {:#06x}", ins.code),
                };
                let operand = if ins.src() == insn::X {
                    "x".to_string()
                } else {
                    format!("#{:#x}", ins.k)
                };
                format!(
                    "{name:<8} {operand:<16} jt {}\tjf {}",
                    next + ins.jt as usize,
                    next + ins.jf as usize
                )
            }
        }
        insn::RET => {
            if ins.rval() == insn::A {
                "ret      a".to_string()
            } else {
                format!("ret      #{}", ins.k)
            }
        }
        insn::MISC => match ins.code & 0xf8 {
            insn::TAX => "tax".to_string(),
            insn::TXA => "txa".to_string(),
            _ => format!("unknown {:#06x}", ins.code),
        },
        _ => format!("unknown {:#06x}", ins.code),
    };
    format!("({index:03}) {body}")
}

/// Disassemble a whole program, one line per instruction.
pub fn disasm(prog: &[Insn]) -> String {
    prog.iter()
        .enumerate()
        .map(|(i, ins)| disasm_insn(ins, i))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::ops::*;

    fn sample_program() -> Vec<Insn> {
        vec![
            ld_abs_h(12),
            jeq_k(0x800, 0, 6),
            ld_abs_b(23),
            jeq_k(17, 0, 4),
            ldx_msh(14),
            ld_ind_h(16),
            jset_k(0x1fff, 1, 0),
            ret_k(96),
            ret_k(0),
        ]
    }

    #[test]
    fn disasm_format_matches_tcpdump_dialect() {
        let text = disasm(&sample_program());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "(000) ldh      [12]");
        assert!(lines[1].starts_with("(001) jeq      #0x800"));
        assert!(lines[1].contains("jt 2"));
        assert!(lines[1].contains("jf 8"));
        assert_eq!(lines[7], "(007) ret      #96");

        // One line per instruction class and operand form, the ones the
        // compiler never emits included.
        let every_class = [
            (ld_imm(10), "ld       #0xa"),
            (ld_len(), "ld       #pktlen"),
            (ld_mem(2), "ld       M[2]"),
            (ld_abs_w(26), "ld       [26]"),
            (ld_ind_w(2), "ld       [x + 2]"),
            (ld_ind_b(0), "ldb      [x + 0]"),
            (ldx_imm(4), "ldx      #0x4"),
            (ldx_len(), "ldx      #pktlen"),
            (ldx_mem(3), "ldx      M[3]"),
            (st(1), "st       M[1]"),
            (stx(3), "stx      M[3]"),
            (alu_k(insn::ADD, 2), "add      #0x2"),
            (alu_k(insn::SUB, 1), "sub      #0x1"),
            (alu_x(insn::MUL), "mul      x"),
            (alu_k(insn::DIV, 2), "div      #0x2"),
            (alu_k(insn::MOD, 3), "mod      #0x3"),
            (alu_k(insn::OR, 0x10), "or       #0x10"),
            (alu_k(insn::AND, 0xff), "and      #0xff"),
            (alu_x(insn::XOR), "xor      x"),
            (alu_k(insn::LSH, 1), "lsh      #0x1"),
            (alu_x(insn::RSH), "rsh      x"),
            (alu_k(insn::NEG, 0), "neg"),
            (tax(), "tax"),
            (txa(), "txa"),
            (ja(1), "ja       26"),
            (jgt_k(100, 0, 1), "jgt      #0x64            jt 26\tjf 27"),
            (
                Insn::jump(insn::JMP | insn::JGE | insn::X, 0, 1, 0),
                "jge      x                jt 28\tjf 27",
            ),
            (ret_a(), "ret      a"),
            (ret_k(96), "ret      #96"),
        ];
        let prog: Vec<Insn> = every_class.iter().map(|&(ins, _)| ins).collect();
        let text = disasm(&prog);
        let expected: Vec<String> = every_class
            .iter()
            .enumerate()
            .map(|(i, (_, body))| format!("({i:03}) {body}"))
            .collect();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
    }
}
