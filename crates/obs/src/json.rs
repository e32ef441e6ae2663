//! A minimal JSON value and recursive-descent parser.
//!
//! The build has no serde_json; this is the read-side counterpart of
//! the hand-rolled renderers in [`pcs_trace::export`]. Accepts exactly
//! RFC 8259 with nesting bounded by
//! [`pcs_trace::export::MAX_JSON_DEPTH`], the same documents
//! [`pcs_trace::export::validate_json`] accepts with one exception: a
//! `\u` escape of a lone surrogate (`"\ud800"`) is valid JSON text, but
//! it names no `char`, so this parser rejects it while the validator
//! accepts it. Numbers are carried as `f64`, which is exact for every
//! integer the ledgers emit below 2^53 — simulated nanosecond and packet
//! counts stay far under that.

use pcs_trace::export::MAX_JSON_DEPTH;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (exact for integers below 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved (ledgers render keys in a
    /// deterministic order already).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(b, &mut pos);
        let v = value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// `depth` counts the arrays and objects enclosing the value at `pos`.
fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
            *pos
        )),
        Some(b'{') => object(b, pos, depth + 1),
        Some(b'[') => array(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => lit(b, pos, b"true", Json::Bool(true)),
        Some(b'f') => lit(b, pos, b"false", Json::Bool(false)),
        Some(b'n') => lit(b, pos, b"null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {}", *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn lit(b: &[u8], pos: &mut usize, lit: &[u8], v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        members.push((key, value(b, pos, depth)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        if (0xd800..0xdc00).contains(&cp) {
                            if b.get(*pos + 1) != Some(&b'\\') || b.get(*pos + 2) != Some(&b'u') {
                                return Err(format!("lone high surrogate at byte {}", *pos));
                            }
                            let lo = hex4(b, *pos + 3)?;
                            *pos += 6;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(format!("bad low surrogate at byte {}", *pos));
                            }
                            let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                            out.push(char::from_u32(c).expect("valid astral code point"));
                        } else if (0xdc00..0xe000).contains(&cp) {
                            return Err(format!("lone low surrogate at byte {}", *pos));
                        } else {
                            out.push(char::from_u32(cp).expect("valid BMP code point"));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c if c < 0x20 => return Err(format!("raw control char at byte {}", *pos)),
            _ => {
                // Copy one UTF-8 encoded char verbatim.
                let len = utf8_len(c);
                let end = *pos + len;
                let chunk = b
                    .get(*pos..end)
                    .ok_or_else(|| format!("truncated UTF-8 at byte {}", *pos))?;
                let s = std::str::from_utf8(chunk)
                    .map_err(|_| format!("bad UTF-8 at byte {}", *pos))?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

/// The code unit of exactly four ASCII hex digits at `at` (no sign).
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let chunk = b
        .get(at..at + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
    chunk.iter().try_fold(0, |unit, &h| {
        let digit = char::from(h)
            .to_digit(16)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        Ok(unit * 16 + digit)
    })
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("bad number at byte {start}"));
    }
    if b[int_start] == b'0' && *pos > int_start + 1 {
        return Err(format!("leading zero at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII number");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("unparseable number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".into())
        );
        let v = Json::parse(r#"{"k":[1,2,{"x":null}],"s":"hi"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        let arr = v.get("k").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].get("x"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn surrogate_pairs_and_raw_utf8_round_trip() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1f600}".into())
        );
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(Json::parse("\"\\ude00\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"\\x\"",
            "[]x",
            "{\"a\":1,}",
            "\"\\u+041\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        Json::parse(&nested(MAX_JSON_DEPTH)).expect("depth 128 is accepted");
        assert_eq!(
            Json::parse(&nested(MAX_JSON_DEPTH + 1)),
            Err("nesting deeper than 128 at byte 128".to_string())
        );
        assert_eq!(
            Json::parse(&"{\"k\":".repeat(1_000_000)),
            Err("nesting deeper than 128 at byte 640".to_string())
        );
        assert_eq!(
            Json::parse(&"[".repeat(1_000_000)),
            Err("nesting deeper than 128 at byte 128".to_string())
        );
    }

    #[test]
    fn agrees_with_the_exporters_validator() {
        // Everything this parser accepts, the trace validator accepts,
        // and vice versa over a spread of edge cases.
        for doc in [
            "{}",
            "[]",
            "[1,2.5,-3e-1]",
            r#"{"a":{"b":[true,false,null]}}"#,
            "\"\\u00e9\"",
            "  [\n1\t]  ",
        ] {
            assert!(Json::parse(doc).is_ok(), "{doc}");
            assert!(pcs_trace::export::validate_json(doc).is_ok(), "{doc}");
        }
        for bad in ["{", "[1,]", "nul", "+1", "'x'"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
            assert!(pcs_trace::export::validate_json(bad).is_err(), "{bad}");
        }
    }
}
