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
//!
//! A long array is read on two threads. The first array whose rest (the
//! document after its `[`) is at least `SPLIT_MIN` long, on a host with
//! more than one CPU, takes the document's one attempt: its *landing
//! point* `m` is the first non-whitespace byte after the first newline
//! at or past the midpoint of that rest. One helper thread reads the
//! array's elements from `m` through its `]`, with the same element loop
//! at the same depth, while the current thread reads from the first
//! element. If the current thread reaches `m` as the start of an element
//! just after a comma, it is in exactly the state the helper began in,
//! so the helper's result is its own: it takes the helper's elements,
//! end position or error, byte offset included. Otherwise (the array
//! closes before `m`, an element spans `m`, or an error comes first) it
//! stops the helper at the helper's next element and finishes alone. A
//! raw newline cannot occur inside a JSON string, so in a well-formed
//! document `m` lies between tokens and the helper's half is kept. No
//! array inside either half splits, so a document costs at most one
//! thread.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Deepest array/object nesting the reader accepts. It recurses once per
/// level, so an unbounded document could overflow the stack; the deepest
/// document this workspace renders nests 9 levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// Shortest array rest (the document after its `[`) read on two threads:
/// below it a thread spawn costs more than the helper saves.
const SPLIT_MIN: usize = 4 << 20;

/// How far past the midpoint the landing point's newline is looked for.
/// Every long document the program writes breaks its lines far sooner.
const LANDING_WINDOW: usize = 64 << 10;

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
        document(s, &mut Split::for_document(s))
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

/// Check that `s` is one complete JSON document. It allocates nothing
/// unless it is not, except that on a host with more than one CPU a
/// document of `SPLIT_MIN` or more may spawn one helper thread.
pub fn validate(s: &str) -> Result<(), String> {
    document(s, &mut Split::for_document(s))
}

/// What the reader makes of a document: [`Json`] builds the tree, and
/// `()` only checks it.
trait Build: Sized {
    /// A string's decoded text.
    type Text: Default;
    /// An array's elements so far (a helper thread hands back its half).
    type Items: Default + Send;
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
    /// Append the elements a helper read from the landing point on.
    fn append(items: &mut Self::Items, tail: Self::Items);
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
    fn append(items: &mut Vec<Json>, mut tail: Vec<Json>) {
        items.append(&mut tail);
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
    fn append(_: &mut (), _: ()) {}
    fn member(_: &mut (), _: (), _: ()) {}
    fn array(_: ()) {}
    fn object(_: ()) {}
}

/// The document's one two-thread attempt.
struct Split {
    /// Shortest array rest that takes the attempt; `None` once an array
    /// has taken it, and inside the helper.
    min: Option<usize>,
    /// Helper threads spawned: 0 or 1.
    helpers: usize,
    /// Whether the current thread took the helper's result.
    adopted: bool,
}

impl Split {
    /// No array of a document shorter than `SPLIT_MIN` is long enough,
    /// so only a long document asks how many CPUs there are.
    fn for_document(s: &str) -> Split {
        let multicore = || std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        Split::at((s.len() >= SPLIT_MIN && multicore()).then_some(SPLIT_MIN))
    }

    fn at(min: Option<usize>) -> Split {
        Split {
            min,
            helpers: 0,
            adopted: false,
        }
    }

    /// The landing point of the array whose rest begins at `rest`, if
    /// this array takes the attempt and a newline lies in the window.
    fn landing(&mut self, b: &[u8], rest: usize) -> Option<usize> {
        if b.len() - rest < self.min? {
            return None;
        }
        self.min = None;
        let mid = rest + (b.len() - rest) / 2;
        let window = &b[mid..b.len().min(mid + LANDING_WINDOW)];
        let mut m = mid + window.iter().position(|&c| c == b'\n')? + 1;
        skip_ws(b, &mut m);
        Some(m)
    }
}

fn document<T: Build>(s: &str, split: &mut Split) -> Result<T, String> {
    let mut pos = 0usize;
    skip_ws(s.as_bytes(), &mut pos);
    let v = value(s, &mut pos, 0, split)?;
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
fn value<T: Build>(s: &str, pos: &mut usize, depth: usize, split: &mut Split) -> Result<T, String> {
    match s.as_bytes().get(*pos) {
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
            *pos
        )),
        Some(b'{') => object(s, pos, depth + 1, split),
        Some(b'[') => array(s, pos, depth + 1, split),
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

fn object<T: Build>(
    s: &str,
    pos: &mut usize,
    depth: usize,
    split: &mut Split,
) -> Result<T, String> {
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
        let v = value(s, pos, depth, split)?;
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

fn array<T: Build>(s: &str, pos: &mut usize, depth: usize, split: &mut Split) -> Result<T, String> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let rest = *pos;
    let mut items = T::Items::default();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(T::array(items));
    }
    match split.landing(b, rest) {
        Some(m) => two_halves::<T>(s, pos, depth, split, &mut items, m)?,
        None => {
            elements::<T>(s, pos, depth, split, &mut items, |_| true)?;
        }
    }
    Ok(T::array(items))
}

/// Where an element loop ended.
enum End {
    /// Past the array's `]`.
    Closed,
    /// At the start of an element its caller asked it not to read.
    Paused,
}

/// The element loop: reads the array's elements from the one at `pos`
/// (whitespace skipped) through its `]`. Before each later element,
/// `go_on` sees where it starts and may pause the loop there.
fn elements<T: Build>(
    s: &str,
    pos: &mut usize,
    depth: usize,
    split: &mut Split,
    items: &mut T::Items,
    mut go_on: impl FnMut(usize) -> bool,
) -> Result<End, String> {
    let b = s.as_bytes();
    loop {
        let v = value(s, pos, depth, split)?;
        T::item(items, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(End::Closed);
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
        skip_ws(b, pos);
        if !go_on(*pos) {
            return Ok(End::Paused);
        }
    }
}

/// Reads the array's elements from the one at `pos` while a helper reads
/// them from the landing point `m`; see the module doc.
fn two_halves<T: Build>(
    s: &str,
    pos: &mut usize,
    depth: usize,
    split: &mut Split,
    items: &mut T::Items,
    m: usize,
) -> Result<(), String> {
    split.helpers += 1;
    // Publishes no data, so `Relaxed`: a stop seen late costs the helper
    // one more element, which is discarded with the rest.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            let (mut at, mut tail) = (m, T::Items::default());
            let go_on = |_| !stop.load(Ordering::Relaxed);
            elements::<T>(s, &mut at, depth, &mut Split::at(None), &mut tail, go_on)
                .map(|_| (tail, at))
        });
        match elements::<T>(s, pos, depth, split, items, |at| at < m) {
            Ok(End::Paused) if *pos == m => {
                split.adopted = true;
                let (tail, end) = helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
                T::append(items, tail);
                *pos = end;
                Ok(())
            }
            read => {
                stop.store(true, Ordering::Relaxed);
                if let End::Paused = read? {
                    elements::<T>(s, pos, depth, split, items, |_| true)?;
                }
                Ok(())
            }
        }
    })
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
    use proptest::prelude::*;

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

    /// `s` read with arrays whose rest reaches `min` split (`None`:
    /// never), and what the document's one attempt did.
    fn read<T: Build>(s: &str, min: Option<usize>) -> (Result<T, String>, Split) {
        let mut split = Split::at(min);
        (document(s, &mut split), split)
    }

    /// Both instantiations split at `min` return what they return
    /// unsplit and take the same path; returns `Json::parse`'s result and
    /// attempt.
    fn same_as_unsplit(s: &str, min: usize) -> (Result<Json, String>, Split) {
        let (tree, split) = read::<Json>(s, Some(min));
        assert_eq!(tree, read::<Json>(s, None).0, "{s:?}");
        let (verdict, checked) = read::<()>(s, Some(min));
        assert_eq!(verdict, read::<()>(s, None).0, "{s:?}");
        assert_eq!(verdict, tree.as_ref().map(drop).map_err(Clone::clone));
        assert_eq!(
            (split.helpers, split.adopted),
            (checked.helpers, checked.adopted)
        );
        (tree, split)
    }

    /// `[items[0],\nitems[1],\n…]`: every element after a comma starts
    /// a line.
    fn lines(items: impl IntoIterator<Item = String>) -> String {
        format!("[{}]", items.into_iter().collect::<Vec<_>>().join(",\n"))
    }

    #[test]
    fn landing_on_m_takes_the_helpers_half() {
        let doc = lines((0..100).map(|i| i.to_string()));
        let (tree, split) = same_as_unsplit(&doc, 1);
        assert_eq!((split.helpers, split.adopted), (1, true));
        let want = (0..100).map(|i| Json::Num(f64::from(i))).collect();
        assert_eq!(tree, Ok(Json::Arr(want)));
    }

    #[test]
    fn an_element_spanning_m_discards_the_helper() {
        // The midpoint falls inside the multi-line object; the helper,
        // started inside it, reads `0`s until the inner `]`.
        let inner = vec!["0"; 200].join(",\n");
        let doc = format!("[1,\n{{\"a\":[\n{inner}]}},\n2,\n3]");
        let (tree, split) = same_as_unsplit(&doc, 1);
        assert_eq!((split.helpers, split.adopted), (1, false));
        assert_eq!(tree.unwrap().as_arr().map(<[Json]>::len), Some(4));
    }

    #[test]
    fn an_array_closing_before_m_discards_the_helper() {
        // The first array takes the attempt; the later one stays whole.
        let doc = format!(
            "{{\"a\":[1,2],\"b\":\"{}\",\n\"c\":[3,\n4]}}",
            "x".repeat(300)
        );
        let (tree, split) = same_as_unsplit(&doc, 1);
        assert_eq!((split.helpers, split.adopted), (1, false));
        let tree = tree.unwrap();
        assert_eq!(
            tree.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn the_first_error_is_the_unsplit_readers_on_either_side_of_m() {
        let zeros = |n| vec!["0".to_string(); n];
        let with = |mut items: Vec<String>, at: usize, bad: &str| {
            items.insert(at, bad.to_string());
            lines(items)
        };
        let deep = "[".repeat(MAX_JSON_DEPTH) + &"]".repeat(MAX_JSON_DEPTH);
        for (doc, landed, error) in [
            (
                with(zeros(200), 10, "x"),
                false,
                "unexpected byte 0x78 at 31",
            ),
            (
                with(zeros(200), 190, "x"),
                true,
                "unexpected byte 0x78 at 571",
            ),
            (
                with(zeros(200), 190, "\"\\ud800\""),
                true,
                "lone high surrogate at byte 577",
            ),
            (
                with(zeros(200), 190, &deep),
                true,
                "nesting deeper than 128 at byte 698",
            ),
            (
                with(zeros(200), 190, "01"),
                true,
                "leading zero at byte 571",
            ),
            (lines(zeros(200)) + "x", true, "trailing data at byte 600"),
            (
                lines(zeros(200)).replace(",\n0]", ",\n"),
                true,
                "unexpected end of input",
            ),
        ] {
            let (tree, split) = same_as_unsplit(&doc, 1);
            assert_eq!(tree, Err(error.to_string()), "{doc:?}");
            assert_eq!((split.helpers, split.adopted), (1, landed), "{doc:?}");
        }
    }

    #[test]
    fn short_arrays_split_only_across_a_newline() {
        for (doc, helpers) in [
            ("[]", 0),
            ("[\n]", 0),
            ("[1]", 0),
            ("[\n1\n]", 1),
            ("[1,\n2]", 1),
        ] {
            assert_eq!(same_as_unsplit(doc, 1).1.helpers, helpers, "{doc:?}");
        }
        assert!(same_as_unsplit("[1,\n2]", 1).1.adopted);
    }

    #[test]
    fn a_trace_shaped_document_parses_to_the_identical_tree() {
        let events = (0..300).map(|i| {
            format!(
                "{{\"name\":\"wire\",\"ph\":\"i\",\"ts\":{i}.125,\"args\":{{\"seq\":{i},\"tag\":\"a\\u00e9\\n\"}}}}"
            )
        });
        let doc = format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":{}}}\n",
            lines(events)
        );
        let (tree, split) = same_as_unsplit(&doc, 1);
        assert!(split.adopted);
        let events = tree.unwrap();
        let events = events.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 300);
        assert_eq!(events[299].get("ts").and_then(Json::as_f64), Some(299.125));
    }

    #[test]
    fn a_document_spawns_at_most_one_helper() {
        let one_per_line = lines((0..100_000).map(|i| format!("[{i}]")));
        let (tree, split) = same_as_unsplit(&one_per_line, 1);
        assert_eq!((split.helpers, split.adopted), (1, true));
        assert_eq!(tree.unwrap().as_arr().map(<[Json]>::len), Some(100_000));
        let one_line = one_per_line.replace('\n', "");
        assert_eq!(same_as_unsplit(&one_line, 1).1.helpers, 0);
    }

    /// Appends one well-formed element chosen by `tape` (zeros once it
    /// runs out), nested at most `5 - depth` levels deep: mostly arrays,
    /// with newlines between and inside their elements.
    fn element(tape: &mut impl Iterator<Item = u8>, depth: usize, out: &mut String) {
        const LEAVES: [&str; 4] = ["0", "-12.5e3", "\"s\\n\\u00e9\"", "null"];
        const SEPS: [&str; 4] = ["\n", "", " \n\t", " "];
        let next = |tape: &mut dyn Iterator<Item = u8>| usize::from(tape.next().unwrap_or(0));
        match next(tape) % 8 {
            0..=3 if depth < 5 => {
                out.push('[');
                for i in 0..next(tape) % 12 {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(SEPS[next(tape) % 4]);
                    element(tape, depth + 1, out);
                    out.push_str(SEPS[next(tape) % 4]);
                }
                out.push(']');
            }
            4 if depth < 5 => {
                out.push('{');
                for i in 0..next(tape) % 6 {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&format!("\"k{i}\":{}", SEPS[next(tape) % 4]));
                    element(tape, depth + 1, out);
                }
                out.push('}');
            }
            choice => out.push_str(LEAVES[choice % 4]),
        }
    }

    proptest! {
        #[test]
        fn the_split_reader_is_the_unsplit_reader(
            tape in proptest::collection::vec(any::<u8>(), 0..512),
            nested in 0usize..5,
            flaw in 0usize..8,
            at in any::<u16>(),
            cut in any::<u16>(),
        ) {
            // The root is an array (a leading 0 picks one). Starting
            // `nested` levels down keeps its elements small, so the
            // midpoint falls between them more often.
            let mut doc = String::new();
            element(&mut std::iter::once(0).chain(tape), nested, &mut doc);
            prop_assert!(same_as_unsplit(&doc, 1).0.is_ok(), "{:?}", doc);
            // One malformed element after the `at`-th comma: a bad token,
            // a lone surrogate, a raw newline in a string, or a nest that
            // passes the depth bound below the root.
            let deep = "[".repeat(MAX_JSON_DEPTH - 1) + &"]".repeat(MAX_JSON_DEPTH - 1);
            let flaws = ["tru", "01", "\"\\ud800\"", "\"a\nb\"", &deep];
            let commas: Vec<usize> = doc.match_indices(',').map(|(i, _)| i + 1).collect();
            if let (Some(flaw), false) = (flaws.get(flaw), commas.is_empty()) {
                let mut flawed = doc.clone();
                flawed.insert_str(commas[usize::from(at) % commas.len()], &format!("{flaw},"));
                let _ = same_as_unsplit(&flawed, 1);
            }
            // A truncated document fails where the unsplit reader says.
            let end = usize::from(cut) % (doc.len() + 1);
            let _ = same_as_unsplit(&doc[..end], 1);
        }
    }
}
