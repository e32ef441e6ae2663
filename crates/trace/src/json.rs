//! The workspace's one JSON reader (the build has no serde_json).
//!
//! A recursive-descent reader of exactly RFC 8259, with nesting bounded
//! by [`MAX_JSON_DEPTH`], generic over what it builds. [`Json::parse`]
//! builds the tree; it reads ledgers back for `obs diff`. [`validate`]
//! builds `()`: it proves every trace, ledger and profile the program
//! writes is well-formed, and never decodes a string, converts a number
//! or pushes into a vector. Both accept the same language and report the
//! same errors. A `\u` escape must name a `char`, so both refuse a lone
//! surrogate (`"\ud800"`). Numbers are carried as `f64`, which is exact
//! for every integer the ledgers emit below 2^53 — simulated nanosecond
//! and packet counts stay far under that.

use std::ops::Range;

/// Deepest array/object nesting the reader accepts. It recurses once per
/// level, so an unbounded document could overflow the stack; the deepest
/// document this workspace renders nests 9 levels.
pub const MAX_JSON_DEPTH: usize = 128;

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
        document(s)
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

/// Check that `s` is one complete JSON document, allocating nothing
/// unless it is not.
pub fn validate(s: &str) -> Result<(), String> {
    document(s)
}

/// What the reader makes of a document: [`Json`] builds the tree, and
/// `()` only checks it.
trait Build: Sized {
    /// A string's decoded text.
    type Text: Default;
    /// An array's elements so far.
    type Items: Default;
    /// An object's members so far.
    type Members: Default;
    /// `null`, `true` or `false`.
    fn literal(v: Json) -> Self;
    /// The number whose grammar-checked text is `s[at]`.
    fn number(s: &str, at: Range<usize>) -> Option<Self>;
    fn string(text: Self::Text) -> Self;
    /// Append the run of unescaped characters `s[run]`.
    fn push_run(text: &mut Self::Text, s: &str, run: Range<usize>);
    /// Append one escaped character.
    fn push_char(text: &mut Self::Text, c: char);
    fn item(items: &mut Self::Items, v: Self);
    fn member(members: &mut Self::Members, key: Self::Text, v: Self);
    fn array(items: Self::Items) -> Self;
    fn object(members: Self::Members) -> Self;
}

impl Build for Json {
    type Text = String;
    type Items = Vec<Json>;
    type Members = Vec<(String, Json)>;
    fn literal(v: Json) -> Json {
        v
    }
    fn number(s: &str, at: Range<usize>) -> Option<Json> {
        s[at].parse().ok().map(Json::Num)
    }
    fn string(text: String) -> Json {
        Json::Str(text)
    }
    fn push_run(text: &mut String, s: &str, run: Range<usize>) {
        text.push_str(&s[run]);
    }
    fn push_char(text: &mut String, c: char) {
        text.push(c);
    }
    fn item(items: &mut Vec<Json>, v: Json) {
        items.push(v);
    }
    fn member(members: &mut Vec<(String, Json)>, key: String, v: Json) {
        members.push((key, v));
    }
    fn array(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
    fn object(members: Vec<(String, Json)>) -> Json {
        Json::Obj(members)
    }
}

impl Build for () {
    type Text = ();
    type Items = ();
    type Members = ();
    fn literal(_: Json) {}
    fn number(_: &str, _: Range<usize>) -> Option<()> {
        Some(())
    }
    fn string(_: ()) {}
    fn push_run(_: &mut (), _: &str, _: Range<usize>) {}
    fn push_char(_: &mut (), _: char) {}
    fn item(_: &mut (), _: ()) {}
    fn member(_: &mut (), _: (), _: ()) {}
    fn array(_: ()) {}
    fn object(_: ()) {}
}

fn document<T: Build>(s: &str) -> Result<T, String> {
    let mut pos = 0usize;
    skip_ws(s.as_bytes(), &mut pos);
    let v = value(s, &mut pos, 0)?;
    skip_ws(s.as_bytes(), &mut pos);
    if pos != s.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

#[inline(always)]
fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// `depth` counts the arrays and objects enclosing the value at `pos`.
fn value<T: Build>(s: &str, pos: &mut usize, depth: usize) -> Result<T, String> {
    match s.as_bytes().get(*pos) {
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
            *pos
        )),
        Some(b'{') => object(s, pos, depth + 1),
        Some(b'[') => array(s, pos, depth + 1),
        Some(b'"') => string::<T>(s, pos).map(T::string),
        Some(b't') => lit(s, pos, "true", Json::Bool(true)),
        Some(b'f') => lit(s, pos, "false", Json::Bool(false)),
        Some(b'n') => lit(s, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(s, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {}", *pos)),
        None => Err("unexpected end of input".into()),
    }
}

#[inline(always)]
fn lit<T: Build>(s: &str, pos: &mut usize, lit: &str, v: Json) -> Result<T, String> {
    if s.as_bytes()[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(T::literal(v))
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn object<T: Build>(s: &str, pos: &mut usize, depth: usize) -> Result<T, String> {
    let b = s.as_bytes();
    *pos += 1; // '{'
    let mut members = T::Members::default();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(T::object(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = string::<T>(s, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        let v = value(s, pos, depth)?;
        T::member(&mut members, key, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(T::object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn array<T: Build>(s: &str, pos: &mut usize, depth: usize) -> Result<T, String> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let mut items = T::Items::default();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(T::array(items));
    }
    loop {
        skip_ws(b, pos);
        let v = value(s, pos, depth)?;
        T::item(&mut items, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(T::array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

/// The string at `pos` (its opening quote). Every byte that ends a run
/// of unescaped characters is ASCII, so each run is whole characters of
/// `s`, handed over as a range: the check never slices.
#[inline(always)]
fn string<T: Build>(s: &str, pos: &mut usize) -> Result<T::Text, String> {
    let b = s.as_bytes();
    *pos += 1; // opening quote
    let mut text = T::Text::default();
    let mut run = *pos;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                T::push_run(&mut text, s, run..*pos);
                *pos += 1;
                return Ok(text);
            }
            b'\\' => {
                T::push_run(&mut text, s, run..*pos);
                *pos += 1;
                let c = match b.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => unicode_escape(b, pos)?,
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                };
                T::push_char(&mut text, c);
                *pos += 1;
                run = *pos;
            }
            c if c < 0x20 => return Err(format!("raw control char at byte {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

/// The `char` named by the `\u` escape whose `u` is at `pos`, a
/// surrogate pair included; leaves `pos` on the escape's last digit.
fn unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let mut cp = hex4(b, *pos + 1)?;
    *pos += 4;
    // A high surrogate must be followed by an escaped low surrogate.
    if (0xd800..0xdc00).contains(&cp) {
        if b.get(*pos + 1) != Some(&b'\\') || b.get(*pos + 2) != Some(&b'u') {
            return Err(format!("lone high surrogate at byte {}", *pos));
        }
        let lo = hex4(b, *pos + 3)?;
        *pos += 6;
        if !(0xdc00..0xe000).contains(&lo) {
            return Err(format!("bad low surrogate at byte {}", *pos));
        }
        cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
    }
    char::from_u32(cp).ok_or_else(|| format!("lone low surrogate at byte {}", *pos))
}

/// The code unit of exactly four ASCII hex digits at `at` (no sign).
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b
        .get(at..at + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
    digits.iter().try_fold(0, |unit, &h| {
        let digit = char::from(h)
            .to_digit(16)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        Ok(unit * 16 + digit)
    })
}

#[inline(always)]
fn number<T: Build>(s: &str, pos: &mut usize) -> Result<T, String> {
    let b = s.as_bytes();
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
    T::number(s, start..*pos).ok_or_else(|| format!("unparseable number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader reduced to its verdict.
    type Verdict = fn(&str) -> Result<(), String>;

    /// Both instantiations.
    const READERS: [Verdict; 2] = [validate, |s| Json::parse(s).map(drop)];

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
        validate("\"\\ud83d\\ude00\"").expect("a surrogate pair is accepted");
        for lone in ["\"\\ud800\"", "\"\\ude00\"", "\"\\ud83d\\u0041\""] {
            assert!(validate(lone).is_err(), "validate accepted {lone:?}");
        }
    }

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-1.5e3",
            "[1,2.5,-3e-1]",
            r#"{"a":{"b":[true,false,null]}}"#,
            "{\"a\":{\"b\":[true,false,null,\"x\\n\\u0041\"]}}",
            "\"\\u00e9\"",
            "  [\n1\t]  ",
        ] {
            for read in READERS {
                read(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            }
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "+1",
            "1.",
            "1e",
            "tru",
            "nul",
            "'x'",
            "{'a':1}",
            "\"\\x\"",
            "\"\\q\"",
            "[]x",
            "[] []",
            "{\"a\":1,}",
            "\"\\u+041\"",
        ] {
            for read in READERS {
                assert!(read(bad).is_err(), "accepted {bad:?}");
            }
        }
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let mixed = "{\"a\":[".repeat(MAX_JSON_DEPTH / 2) + &"]}".repeat(MAX_JSON_DEPTH / 2);
        for read in READERS {
            read(&nested(MAX_JSON_DEPTH)).expect("depth 128 is accepted");
            read(&mixed).expect("128 mixed levels are accepted");
            assert_eq!(
                read(&nested(MAX_JSON_DEPTH + 1)),
                Err("nesting deeper than 128 at byte 128".to_string())
            );
            assert_eq!(
                read(&"{\"k\":".repeat(1_000_000)),
                Err("nesting deeper than 128 at byte 640".to_string())
            );
            assert_eq!(
                read(&"[".repeat(1_000_000)),
                Err("nesting deeper than 128 at byte 128".to_string())
            );
        }
    }
}
