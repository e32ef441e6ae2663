//! The workspace's one JSON reader, instantiated twice.
//!
//! `pcs_trace::json` has one grammar and two instantiations that skip
//! different work: `validate` checks every trace and ledger the program
//! writes without decoding a string, converting a number or building a
//! value, and `Json::parse` builds the tree that reads ledgers back,
//! including whatever file `obs diff` is pointed at. They must accept
//! exactly the same documents, lone and paired surrogate escapes
//! included. `Ledger::parse`, which walks that tree, must refuse a
//! broken ledger with an error and never panic.

use std::sync::{Arc, OnceLock};

use pcs_core::{figures, ExecConfig, Scale};
use pcs_obs::{render_ledger, Ledger, LedgerMeta};
use pcs_trace::json::{validate, Json};
use pcs_trace::{StageFilter, TraceCollector, TraceSpec};
use proptest::prelude::*;

fn agree(doc: &str) -> Result<(), TestCaseError> {
    let checked = validate(doc);
    let parsed = Json::parse(doc).map(drop);
    prop_assert_eq!(
        checked.is_ok(),
        parsed.is_ok(),
        "{:?}: validate {:?}, Json::parse {:?}",
        doc,
        checked,
        parsed
    );
    Ok(())
}

/// A grammar walk: renders a JSON document, each choice taken from the
/// next generated byte (0 once they run out, which always picks a valid
/// number and so ends the walk). Every element is sometimes replaced by
/// a near miss, so most documents are valid and many fail in one spot.
struct Walk<'a> {
    choices: std::slice::Iter<'a, u8>,
    out: String,
}

impl Walk<'_> {
    fn pick(&mut self, n: usize) -> usize {
        self.choices.next().map_or(0, |&c| usize::from(c) % n)
    }

    /// One of `valid`, or one time in `one_in` one of `near_misses`.
    fn push(&mut self, valid: &[&str], near_misses: &[&str], one_in: usize) {
        let piece = if self.pick(one_in) == one_in - 1 {
            near_misses[self.pick(near_misses.len())]
        } else {
            valid[self.pick(valid.len())]
        };
        self.out.push_str(piece);
    }

    fn value(&mut self, depth: usize) {
        match self.pick(if depth < 5 { 5 } else { 3 }) {
            0 => self.push(
                &["0", "-0", "7", "-12", "3.25", "6e3", "2E-7", "-0.5e+12"],
                &["01", "-", "1.", "5e+", ".5", "+1"],
                16,
            ),
            1 => self.string(),
            2 => self.push(&["true", "false", "null"], &["nul", "tru", "True"], 16),
            3 => {
                self.out.push('[');
                for i in 0..self.pick(4) {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.value(depth + 1);
                }
                self.out.push(']');
            }
            _ => {
                self.out.push('{');
                for i in 0..self.pick(4) {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.string();
                    self.push(&[":", " : "], &["", "::"], 16);
                    self.value(depth + 1);
                }
                self.out.push('}');
            }
        }
    }

    fn string(&mut self) {
        self.out.push('"');
        for _ in 0..self.pick(5) {
            match self.pick(6) {
                0 | 1 => {
                    // `\u` takes exactly four hex digits: no sign, no fewer.
                    self.out.push_str("\\u");
                    for _ in 0..4 {
                        self.push(HEX_DIGITS, &["+", "-", " ", "g", "\""], 4);
                    }
                }
                // A surrogate pair, or one half of it alone.
                2 => self.push(&["\\ud83d\\ude00"], &["\\ud83d", "\\ude00"], 4),
                _ => self.push(
                    &[
                        "a", "Z", " ", "'", "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r",
                        "\\t", "\u{e9}", "\u{20ac}",
                    ],
                    &["\\q", "\\", "\u{1}"],
                    16,
                ),
            }
        }
        self.out.push('"');
    }
}

/// Hex digits; a `d`/`D` first digit makes a surrogate escape.
const HEX_DIGITS: &[&str] = &[
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "a", "b", "c", "d", "e", "f", "A", "B", "C",
    "D", "E", "F",
];

/// Characters a corruption writes over the document.
const CORRUPTIONS: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', 'u', '+', '-', '.', '0', '1', 'e', 'E', ' ', '\n',
    '\u{0}', 'n', 't', 'f', 'd', 'D',
];

fn walk(choices: &[u8]) -> String {
    let mut w = Walk {
        choices: choices.iter(),
        out: String::new(),
    };
    w.value(0);
    w.out
}

/// A real ledger: a small fig6.4a sweep with stage times armed. It nests
/// as deep as any document the workspace renders.
fn ledger() -> &'static str {
    static LEDGER: OnceLock<String> = OnceLock::new();
    LEDGER.get_or_init(|| {
        let collector = Arc::new(TraceCollector::new(TraceSpec {
            filter: StageFilter::none(),
            ..TraceSpec::default()
        }));
        let exec = ExecConfig::with_jobs(1)
            .with_trace(Arc::clone(&collector))
            .with_stage_times(true);
        let scale = Scale {
            count: 2_000,
            repeats: 1,
            rates: vec![Some(400.0), None],
        };
        figures::fig6_4_buffer_sweep(&scale, false, &exec);
        let meta = LedgerMeta {
            scale: "tiny".into(),
            experiments: vec!["fig6.4a".into()],
            faults: None,
        };
        let text = render_ledger(&meta, &collector.cells(), None);
        assert!(text.is_ascii(), "byte mutations below assume ASCII");
        text
    })
}

proptest! {
    #[test]
    fn grammars_agree_on_near_valid_documents(
        choices in proptest::collection::vec(any::<u8>(), 0..96),
        corruptions in proptest::collection::vec((any::<usize>(), 0..CORRUPTIONS.len()), 0..3),
    ) {
        let doc = walk(&choices);
        agree(&doc)?;
        let mut chars: Vec<char> = doc.chars().collect();
        for (at, c) in corruptions {
            let at = at % (chars.len() + 1);
            if at == chars.len() {
                chars.push(CORRUPTIONS[c]);
            } else {
                chars[at] = CORRUPTIONS[c];
            }
        }
        agree(&chars.into_iter().collect::<String>())?;
    }

    #[test]
    fn grammars_agree_on_cut_and_mutated_ledgers(
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in 0u8..0x80,
    ) {
        let ledger = ledger();
        agree(ledger)?;
        agree(&ledger[..cut % (ledger.len() + 1)])?;
        let mut mutated = ledger.as_bytes().to_vec();
        mutated[at % ledger.len()] = byte;
        agree(&String::from_utf8(mutated).expect("ASCII stays UTF-8"))?;
    }

    #[test]
    fn ledger_parse_refuses_cut_and_mutated_ledgers_without_panicking(
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in 0u8..0x80,
    ) {
        let ledger = ledger();
        prop_assert!(Ledger::parse(ledger).is_ok());
        let mut mutated = ledger.as_bytes().to_vec();
        mutated[at % ledger.len()] = byte;
        let mutated = String::from_utf8(mutated).expect("ASCII stays UTF-8");
        for doc in [&ledger[..cut % (ledger.len() + 1)], &mutated] {
            let parsed = Ledger::parse(doc);
            if validate(doc).is_err() {
                prop_assert!(parsed.is_err(), "{:?} is not JSON but parsed", doc);
            }
        }
    }
}
