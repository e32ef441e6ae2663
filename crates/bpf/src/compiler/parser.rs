//! Parser for the pcap filter expression language: recursive descent,
//! except that `expr`, `term` and `factor` share one loop over an
//! explicit stack, so parentheses and `not`s do not recurse.
//!
//! The grammar covers the subset exercised by the thesis (its Fig. 6.5
//! filter uses `ether[n:m]` relations, protocol keywords, and
//! `ip src`/`ip dst` host primitives) plus ports, nets, hardware
//! addresses, and length tests:
//!
//! ```text
//! expr      := term ( ("or"|"||") term )*
//! term      := factor ( ("and"|"&&") factor )*
//! factor    := ("not"|"!") factor | "(" expr ")" | relation | primitive
//! relation  := arith relop arith
//! arith     := aterm ( ("+"|"-"|"|") aterm )*
//! aterm     := afact ( ("*"|"/"|"&") afact )*
//! afact     := NUMBER | "len" | proto "[" arith (":" NUMBER)? "]"
//! primitive := "less" NUMBER | "greater" NUMBER
//!            | "ip" "proto" NUMBER
//!            | [proto] [dir] [type] value
//! ```
//!
//! Nesting is bounded by [`MAX_FILTER_DEPTH`], checked while parsing, so
//! no input can build a syntax tree deep enough to overflow the stack of
//! the parser, the code generator or the tree's own drop.

use super::ast::*;
use super::lexer::{lex, LexError, Token};

/// The deepest expression a filter may hold. Every parenthesis pair,
/// `not`, accessor bracket and binary operator (`and`, `or` and the
/// arithmetic ones) nests its operands one level deeper, so a chain of
/// `n` operators is `n` deep: `and`/`or` trees lean left and the code
/// generator walks them recursively. A 2,000-term `or` chain still
/// parses (and fails codegen with `TooLong`), and an expression at the
/// bound compiles on a 2 MiB thread.
pub const MAX_FILTER_DEPTH: usize = 2048;

/// A parsed node and its depth.
type Parsed<T> = Result<(T, usize), ParseError>;

/// What [`Parser::expr`] still has open around the operand it parses.
enum Open {
    /// A `(` awaiting its `)`.
    Paren,
    /// A `not` awaiting its operand.
    Not,
    /// An `and`'s left operand and its depth.
    And(Expr, usize),
    /// An `or`'s left operand and its depth.
    Or(Expr, usize),
}

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Index of the offending token (input length when at end).
    pub at: usize,
    /// Description.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            at: e.pos,
            message: format!("lex error: {}", e.message),
        }
    }
}

/// Parse a filter expression string into an AST. An empty expression is
/// valid in libpcap (match everything); we represent it as `None`.
pub fn parse(input: &str) -> Result<Option<Expr>, ParseError> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Ok(None);
    }
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
    };
    let (e, _) = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(Some(e))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses, `not`s and brackets open around the current token,
    /// bounded as each one opens.
    open: usize,
}

impl Parser {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_number(&mut self, what: &str) -> Result<u32, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            _ => Err(ParseError {
                at: self.pos.saturating_sub(1),
                message: format!("expected number for {what}"),
            }),
        }
    }

    /// The depth of a node one level above operands `depth` deep.
    fn nest(&self, depth: usize) -> Result<usize, ParseError> {
        if depth >= MAX_FILTER_DEPTH {
            return Err(self.err(&format!("expression nested deeper than {MAX_FILTER_DEPTH}")));
        }
        Ok(depth + 1)
    }

    /// Open a parenthesis, `not` or bracket, before parsing inside it.
    fn open(&mut self) -> Result<(), ParseError> {
        self.open = self.nest(self.open)?;
        Ok(())
    }

    /// `expr`, `term` and `factor` in one loop over an explicit stack of
    /// what is still open, so parentheses and `not`s cost heap instead of
    /// recursion. `not` binds tightest, then `and`, then `or`, and both
    /// operators associate to the left, as in the grammar.
    fn expr(&mut self) -> Parsed<Expr> {
        let mut pending: Vec<Open> = Vec::new();
        loop {
            loop {
                let prefix = if self.eat(&Token::Bang) {
                    Open::Not
                } else if self.eat(&Token::LParen) {
                    Open::Paren
                } else {
                    break;
                };
                self.open()?;
                pending.push(prefix);
            }
            let (mut e, mut depth) = self.atom()?;
            loop {
                while let Some(Open::Not) = pending.last() {
                    pending.pop();
                    self.open -= 1;
                    depth = self.nest(depth)?;
                    e = Expr::Not(Box::new(e));
                }
                let and = self.eat(&Token::AndAnd);
                let or = !and && self.eat(&Token::OrOr);
                // Fold the pending operators that bind at least as tight
                // as the next one (all of them at the end of a group).
                loop {
                    match pending.pop() {
                        Some(Open::And(l, l_depth)) => {
                            depth = self.nest(l_depth.max(depth))?;
                            e = Expr::And(Box::new(l), Box::new(e));
                        }
                        Some(Open::Or(l, l_depth)) if !and => {
                            depth = self.nest(l_depth.max(depth))?;
                            e = Expr::Or(Box::new(l), Box::new(e));
                        }
                        other => {
                            pending.extend(other);
                            break;
                        }
                    }
                }
                if and || or {
                    pending.push(if and {
                        Open::And(e, depth)
                    } else {
                        Open::Or(e, depth)
                    });
                    break;
                }
                // The end of a parenthesised group (only a `(` can still
                // be open here), or of the expression.
                match pending.pop() {
                    None => return Ok((e, depth)),
                    Some(_) => {
                        self.open -= 1;
                        if !self.eat(&Token::RParen) {
                            return Err(self.err("expected ')'"));
                        }
                        depth = self.nest(depth)?;
                    }
                }
            }
        }
    }

    /// A relation or a primitive: the operands of `and`, `or` and `not`.
    fn atom(&mut self) -> Parsed<Expr> {
        // Relation starters: a number, `len`, or `proto[`.
        let starts_relation = match self.peek() {
            Some(Token::Number(_)) => true,
            Some(Token::Ident(w)) if w == "len" => true,
            Some(Token::Ident(w)) if is_load_base(w) => {
                matches!(self.peek2(), Some(Token::LBracket))
            }
            _ => false,
        };
        if starts_relation {
            return self.relation();
        }
        Ok((self.primitive()?, 0))
    }

    fn relation(&mut self) -> Parsed<Expr> {
        let (lhs, l_depth) = self.arith()?;
        let op = match self.next() {
            Some(Token::Eq) => RelOp::Eq,
            Some(Token::Ne) => RelOp::Ne,
            Some(Token::Gt) => RelOp::Gt,
            Some(Token::Lt) => RelOp::Lt,
            Some(Token::Ge) => RelOp::Ge,
            Some(Token::Le) => RelOp::Le,
            _ => return Err(self.err("expected relational operator")),
        };
        let (rhs, r_depth) = self.arith()?;
        Ok((Expr::Rel(op, lhs, rhs), l_depth.max(r_depth)))
    }

    fn arith(&mut self) -> Parsed<Arith> {
        let (mut e, mut depth) = self.aterm()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                Some(Token::Pipe) => ArithOp::Or,
                _ => break,
            };
            self.pos += 1;
            let (r, r_depth) = self.aterm()?;
            depth = self.nest(depth.max(r_depth))?;
            e = Arith::Bin(op, Box::new(e), Box::new(r));
        }
        Ok((e, depth))
    }

    fn aterm(&mut self) -> Parsed<Arith> {
        let (mut e, mut depth) = self.afact()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                Some(Token::Amp) => ArithOp::And,
                _ => break,
            };
            self.pos += 1;
            let (r, r_depth) = self.afact()?;
            depth = self.nest(depth.max(r_depth))?;
            e = Arith::Bin(op, Box::new(e), Box::new(r));
        }
        Ok((e, depth))
    }

    fn afact(&mut self) -> Parsed<Arith> {
        match self.next() {
            Some(Token::Number(n)) => Ok((Arith::Num(n), 0)),
            Some(Token::Ident(w)) if w == "len" => Ok((Arith::PktLen, 0)),
            Some(Token::Ident(w)) if is_load_base(&w) => {
                if !self.eat(&Token::LBracket) {
                    return Err(self.err("expected '[' after protocol accessor"));
                }
                self.open()?;
                let (offset, depth) = self.arith()?;
                self.open -= 1;
                let size = if self.eat(&Token::Colon) {
                    let n = self.expect_number("load size")?;
                    if !matches!(n, 1 | 2 | 4) {
                        return Err(self.err("load size must be 1, 2 or 4"));
                    }
                    n as u8
                } else {
                    1
                };
                if !self.eat(&Token::RBracket) {
                    return Err(self.err("expected ']'"));
                }
                let base = match w.as_str() {
                    "ether" => LoadBase::Ether,
                    "ip" => LoadBase::Ip,
                    "tcp" => LoadBase::Tcp,
                    "udp" => LoadBase::Udp,
                    "icmp" => LoadBase::Icmp,
                    _ => unreachable!("is_load_base checked"),
                };
                let load = Arith::Load {
                    base,
                    offset: Box::new(offset),
                    size,
                };
                Ok((load, self.nest(depth)?))
            }
            _ => Err(ParseError {
                at: self.pos.saturating_sub(1),
                message: "expected arithmetic operand".into(),
            }),
        }
    }

    fn primitive(&mut self) -> Result<Expr, ParseError> {
        // less / greater
        if let Some(Token::Ident(w)) = self.peek() {
            match w.as_str() {
                "less" => {
                    self.pos += 1;
                    let n = self.expect_number("less")?;
                    return Ok(Expr::Prim(Primitive::LenLe(n)));
                }
                "greater" => {
                    self.pos += 1;
                    let n = self.expect_number("greater")?;
                    return Ok(Expr::Prim(Primitive::LenGe(n)));
                }
                _ => {}
            }
        }

        // Optional protocol qualifier.
        let mut proto: Option<String> = None;
        if let Some(Token::Ident(w)) = self.peek() {
            if matches!(w.as_str(), "ether" | "ip" | "tcp" | "udp") {
                proto = Some(w.clone());
                self.pos += 1;
            } else if matches!(w.as_str(), "arp" | "rarp" | "ip6" | "icmp") {
                // Bare protocol primitives with no further qualifiers.
                let prim = match w.as_str() {
                    "arp" => Primitive::EtherProto(0x0806),
                    "rarp" => Primitive::EtherProto(0x8035),
                    "ip6" => Primitive::EtherProto(0x86dd),
                    _ => Primitive::IpProto(1),
                };
                self.pos += 1;
                return Ok(Expr::Prim(prim));
            }
        }

        // `ip proto N`
        if proto.as_deref() == Some("ip") {
            if let Some(Token::Ident(w)) = self.peek() {
                if w == "proto" {
                    self.pos += 1;
                    let n = self.expect_number("ip proto")?;
                    if n > 255 {
                        return Err(self.err("protocol number exceeds 255"));
                    }
                    return Ok(Expr::Prim(Primitive::IpProto(n as u8)));
                }
            }
        }

        // Optional direction qualifier.
        let mut dir = Dir::Either;
        if let Some(Token::Ident(w)) = self.peek() {
            match w.as_str() {
                "src" => {
                    dir = Dir::Src;
                    self.pos += 1;
                }
                "dst" => {
                    dir = Dir::Dst;
                    self.pos += 1;
                }
                _ => {}
            }
        }

        // Optional type qualifier.
        let mut typ: Option<String> = None;
        if let Some(Token::Ident(w)) = self.peek() {
            if matches!(w.as_str(), "host" | "net" | "port") {
                typ = Some(w.clone());
                self.pos += 1;
            }
        }

        // If we consumed only a protocol keyword and nothing else follows
        // that can be a value, this is a bare protocol primitive.
        let value_next = matches!(
            self.peek(),
            Some(Token::Ip(_)) | Some(Token::Mac(_)) | Some(Token::Number(_))
        );
        if typ.is_none() && dir == Dir::Either && !value_next {
            if let Some(p) = proto {
                let prim = match p.as_str() {
                    "ip" => Primitive::EtherProto(0x0800),
                    "tcp" => Primitive::IpProto(6),
                    "udp" => Primitive::IpProto(17),
                    _ => return Err(self.err("'ether' requires a host qualifier")),
                };
                return Ok(Expr::Prim(prim));
            }
            return Err(self.err("expected a filter primitive"));
        }

        match typ.as_deref() {
            Some("port") => {
                let n = self.expect_number("port")?;
                if n > 65535 {
                    return Err(self.err("port number exceeds 65535"));
                }
                let pp = match proto.as_deref() {
                    Some("tcp") => PortProto::Tcp,
                    Some("udp") => PortProto::Udp,
                    None => PortProto::Any,
                    Some(other) => {
                        return Err(self.err(&format!("'{other} port' is not supported")))
                    }
                };
                Ok(Expr::Prim(Primitive::Port(pp, dir, n as u16)))
            }
            Some("net") => {
                let addr = match self.next() {
                    Some(Token::Ip(a)) => a,
                    _ => return Err(self.err("expected network address")),
                };
                let mask = if self.eat(&Token::Slash) {
                    let n = self.expect_number("prefix length")?;
                    if n > 32 {
                        return Err(self.err("prefix length exceeds 32"));
                    }
                    n as u8
                } else {
                    24
                };
                self.check_ip_proto(&proto)?;
                Ok(Expr::Prim(Primitive::Net(dir, addr, mask)))
            }
            // `host` or a bare value.
            _ => match self.next() {
                Some(Token::Ip(a)) => {
                    self.check_ip_proto(&proto)?;
                    Ok(Expr::Prim(Primitive::Host(dir, a)))
                }
                Some(Token::Mac(m)) => {
                    if matches!(proto.as_deref(), Some("ip") | Some("tcp") | Some("udp")) {
                        return Err(self.err("hardware address needs the 'ether' qualifier"));
                    }
                    Ok(Expr::Prim(Primitive::EtherHost(dir, m)))
                }
                _ => Err(ParseError {
                    at: self.pos.saturating_sub(1),
                    message: "expected host address".into(),
                }),
            },
        }
    }

    fn check_ip_proto(&self, proto: &Option<String>) -> Result<(), ParseError> {
        match proto.as_deref() {
            None | Some("ip") => Ok(()),
            Some(other) => Err(self.err(&format!(
                "'{other}' qualifier cannot apply to an IPv4 address"
            ))),
        }
    }
}

fn is_load_base(w: &str) -> bool {
    matches!(w, "ether" | "ip" | "tcp" | "udp" | "icmp")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Expr {
        parse(s).expect("parse").expect("non-empty")
    }

    #[test]
    fn empty_filter_is_none() {
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("   ").unwrap(), None);
    }

    #[test]
    fn bare_protocols() {
        assert_eq!(p("ip"), Expr::Prim(Primitive::EtherProto(0x800)));
        assert_eq!(p("arp"), Expr::Prim(Primitive::EtherProto(0x806)));
        assert_eq!(p("tcp"), Expr::Prim(Primitive::IpProto(6)));
        assert_eq!(p("udp"), Expr::Prim(Primitive::IpProto(17)));
        assert_eq!(p("icmp"), Expr::Prim(Primitive::IpProto(1)));
    }

    #[test]
    fn thesis_style_ip_src() {
        // The Fig. 6.5 filter uses `ip src A` / `ip dst A`.
        assert_eq!(
            p("ip src 10.11.12.13"),
            Expr::Prim(Primitive::Host(Dir::Src, Ipv4Addr::new(10, 11, 12, 13)))
        );
        assert_eq!(
            p("ip dst 10.99.12.13"),
            Expr::Prim(Primitive::Host(Dir::Dst, Ipv4Addr::new(10, 99, 12, 13)))
        );
    }

    #[test]
    fn host_variants() {
        assert_eq!(
            p("host 1.2.3.4"),
            Expr::Prim(Primitive::Host(Dir::Either, Ipv4Addr::new(1, 2, 3, 4)))
        );
        assert_eq!(
            p("src host 1.2.3.4"),
            Expr::Prim(Primitive::Host(Dir::Src, Ipv4Addr::new(1, 2, 3, 4)))
        );
        assert_eq!(
            p("dst 1.2.3.4"),
            Expr::Prim(Primitive::Host(Dir::Dst, Ipv4Addr::new(1, 2, 3, 4)))
        );
    }

    #[test]
    fn ports() {
        assert_eq!(
            p("port 53"),
            Expr::Prim(Primitive::Port(PortProto::Any, Dir::Either, 53))
        );
        assert_eq!(
            p("tcp dst port 80"),
            Expr::Prim(Primitive::Port(PortProto::Tcp, Dir::Dst, 80))
        );
        assert_eq!(
            p("udp src port 9"),
            Expr::Prim(Primitive::Port(PortProto::Udp, Dir::Src, 9))
        );
        assert!(parse("port 70000").is_err());
    }

    #[test]
    fn nets() {
        assert_eq!(
            p("net 192.168.10.0/24"),
            Expr::Prim(Primitive::Net(
                Dir::Either,
                Ipv4Addr::new(192, 168, 10, 0),
                24
            ))
        );
        assert_eq!(
            p("src net 10.0.0.0/8"),
            Expr::Prim(Primitive::Net(Dir::Src, Ipv4Addr::new(10, 0, 0, 0), 8))
        );
        assert!(parse("net 10.0.0.0/33").is_err());
    }

    #[test]
    fn ether_hosts() {
        assert_eq!(
            p("ether src 00:00:00:00:00:02"),
            Expr::Prim(Primitive::EtherHost(Dir::Src, [0, 0, 0, 0, 0, 2]))
        );
        assert!(parse("ip host 00:00:00:00:00:02").is_err());
        assert!(parse("ether").is_err());
    }

    #[test]
    fn ip_proto_number() {
        assert_eq!(p("ip proto 89"), Expr::Prim(Primitive::IpProto(89)));
        assert!(parse("ip proto 300").is_err());
    }

    #[test]
    fn length_tests() {
        assert_eq!(p("less 1500"), Expr::Prim(Primitive::LenLe(1500)));
        assert_eq!(p("greater 64"), Expr::Prim(Primitive::LenGe(64)));
    }

    #[test]
    fn boolean_structure_and_precedence() {
        // or binds looser than and
        let e = p("ip or tcp and udp");
        match e {
            Expr::Or(l, r) => {
                assert!(matches!(*l, Expr::Prim(Primitive::EtherProto(_))));
                assert!(matches!(*r, Expr::And(_, _)));
            }
            _ => panic!("precedence broken"),
        }
        // parens override
        let e = p("(ip or tcp) and udp");
        assert!(matches!(e, Expr::And(_, _)));
        // not
        let e = p("not tcp");
        assert!(matches!(e, Expr::Not(_)));
    }

    #[test]
    fn relations() {
        let e = p("ether[6:4]=0x00000000");
        match e {
            Expr::Rel(RelOp::Eq, Arith::Load { base, offset, size }, Arith::Num(0)) => {
                assert_eq!(base, LoadBase::Ether);
                assert_eq!(*offset, Arith::Num(6));
                assert_eq!(size, 4);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let e = p("len > 100");
        assert!(matches!(
            e,
            Expr::Rel(RelOp::Gt, Arith::PktLen, Arith::Num(100))
        ));
        let e = p("ip[0] & 0xf != 5");
        assert!(matches!(
            e,
            Expr::Rel(RelOp::Ne, Arith::Bin(ArithOp::And, _, _), _)
        ));
    }

    #[test]
    fn arith_precedence() {
        // 2 + 3 * 4 parses as 2 + (3*4)
        let e = p("len = 2 + 3 * 4");
        match e {
            Expr::Rel(_, _, rhs) => assert_eq!(rhs.const_value(), Some(14)),
            _ => panic!(),
        }
    }

    #[test]
    fn fig65_filter_parses() {
        // An abbreviated version of the thesis Fig. 6.5 expression.
        let txt = "ether[6:4]=0x00000000 and ether[10]=0x00 and not tcp \
                   and not ip src 10.11.12.13 and not ip src 20.11.12.14 \
                   and not ip dst 10.99.12.13 and not ip dst 20.99.12.14";
        let e = p(txt);
        // Must be a left-deep and-chain of 7 factors.
        let mut count = 1;
        let mut cur = &e;
        while let Expr::And(l, _) = cur {
            count += 1;
            cur = l;
        }
        assert_eq!(count, 7);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("ip and").is_err());
        assert!(parse("host").is_err());
        assert!(parse("(ip").is_err());
        assert!(parse("ip ) tcp").is_err());
        assert!(parse("ether[4").is_err());
        assert!(parse("ether[4:3]=1").is_err());
        assert!(parse("len >").is_err());
    }

    #[test]
    fn bad_size_and_trailing() {
        assert!(parse("ip tcp").is_err());
        assert!(parse("42").is_err()); // relation without operator
    }
}
