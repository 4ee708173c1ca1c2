//! The byte-scanned CSV readers against the row-at-a-time reader they
//! replaced (`dq_relation::reference::csv`), on hostile input.
//!
//! Generated inputs mix well-formed records (bare, padded and quoted cells,
//! `\r\n` line ends, blank lines, multi-line quoted text, `NULL` against
//! `"NULL"`) with damage: stray quotes, text after a closing quote, short
//! and long records, unparsable cells, invalid UTF-8 bytes.  For every
//! input:
//!
//! * `csv::from_text` returns the reference's instance, or its `DqError`
//!   (compared by `Debug`);
//! * `csv::stream_into_store` writes segment files byte-identical to the
//!   reference ingest's, or returns its `DqError`, at several shard sizes
//!   and at 1 and 4 interning workers;
//! * nothing panics.

use dq_relation::csv;
use dq_relation::reference;
use dq_relation::{Domain, DqError, DqResult, RelationInstance, RelationSchema, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "hostile",
        [
            ("n", Domain::Int),
            ("price", Domain::Real),
            ("ok", Domain::Bool),
            ("name", Domain::Text),
            (
                "kind",
                Domain::Finite(
                    vec![
                        Value::str("book"),
                        Value::str("CD"),
                        Value::int(7),
                        Value::real(0.5),
                    ]
                    .into(),
                ),
            ),
        ],
    ))
}

/// A fresh scratch directory per call.
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dq_csv_equivalence_{}_{tag}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file of a relation directory, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// An instance's rows, rendered with their ids and typed values.
fn rows(instance: &RelationInstance) -> String {
    format!("{:?}", instance.iter().collect::<Vec<_>>())
}

/// `Ok` rows or the error, by `Debug`.
fn outcome(parsed: DqResult<RelationInstance>) -> Result<String, String> {
    parsed
        .map(|i| rows(&i))
        .map_err(|e: DqError| format!("{e:?}"))
}

/// Ingests `input` with both readers at every shard size and thread count
/// and asserts identical segment bytes or identical errors.
fn assert_ingest_matches(input: &[u8]) -> Result<(), TestCaseError> {
    let schema = schema();
    for shard_rows in [1, 3, 64] {
        let expected_dir = tmp_dir("reference");
        let expected = reference::csv::stream_into_store(
            Arc::clone(&schema),
            input,
            &expected_dir,
            shard_rows,
        )
        .map(|stats| (stats, files(&expected_dir)))
        .map_err(|e| format!("{e:?}"));
        for threads in [1, 4] {
            let dir = tmp_dir("scanned");
            let actual = csv::stream_into_store_with_threads(
                Arc::clone(&schema),
                input,
                &dir,
                shard_rows,
                threads,
            )
            .map(|stats| (stats, files(&dir)))
            .map_err(|e| format!("{e:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert_eq!(
                &actual,
                &expected,
                "shard_rows {} threads {} input {:?}",
                shard_rows,
                threads,
                String::from_utf8_lossy(input)
            );
        }
        let _ = std::fs::remove_dir_all(&expected_dir);
    }
    Ok(())
}

/// Asserts both readers agree on `input`, in memory and streamed.
fn assert_equivalent(input: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(input);
    prop_assert_eq!(
        outcome(csv::from_text(schema(), &text)),
        outcome(reference::csv::from_text(schema(), &text)),
        "input {:?}",
        text
    );
    assert_ingest_matches(input)
}

/// Deterministic generator state (splitmix64) seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Text fragments for `Text` cells: separators, quotes, line breaks,
/// whitespace (ASCII and Unicode), `NULL` pieces, multi-byte characters.
const TEXT: &[&str] = &[
    "a", "Mike", "|", "\"", "\"\"", "\n", "\r\n", "\r", "\t", " ", "NULL", "NU", "LL", "é", "√",
    "\u{2003}", "\u{a0}", "x y",
];

/// Raw damage spliced into otherwise well-formed text.
const DAMAGE: &[&[u8]] = &[
    b"\"",
    b"|",
    b"\n",
    b"\r\n",
    b"\"x",
    b"x\"",
    b"\" y",
    b"\xff",
    b"\xc3",
    b"\x80abc",
    b"\n\n",
    b"NULL",
    b"\"NULL\"",
    b"\t",
    b"\xe2\x80\x83",
    b"",
];

/// A bare or quoted rendering of `text` that reads back as `text`.
fn render_text(g: &mut Gen, text: &str, out: &mut Vec<u8>) {
    let bare_safe = !text.is_empty()
        && text != "NULL"
        && !text.contains(['|', '"', '\n', '\r'])
        && text.trim() == text;
    if bare_safe && g.chance(60) {
        out.extend_from_slice(text.as_bytes());
        return;
    }
    out.push(b'"');
    out.extend_from_slice(text.replace('"', "\"\"").as_bytes());
    out.push(b'"');
    if g.chance(15) {
        out.extend_from_slice(g.pick(&[" ", "\t", "\u{a0}"]).as_bytes());
    }
}

/// One well-formed cell of column `attr`, in some valid spelling.
fn valid_cell(g: &mut Gen, attr: usize, out: &mut Vec<u8>) {
    if g.chance(10) {
        out.extend_from_slice(g.pick(&["NULL", " NULL ", "NULL\t"]).as_bytes());
        return;
    }
    let pad = g.chance(20);
    if pad {
        out.push(b' ');
    }
    let bare: &str = match attr {
        0 => g.pick(&["0", "-12", "42", "+7", "9223372036854775807"]),
        1 => g.pick(&["0.5", "-3", "1e3", "inf", "NaN", "-0.0", "2.25"]),
        2 => g.pick(&["true", "FALSE", "1", "0"]),
        3 => {
            let len = g.below(5);
            let text: String = (0..len).map(|_| g.pick(TEXT)).collect();
            if pad {
                out.pop();
            }
            render_text(g, &text, out);
            return;
        }
        _ => g.pick(&["book", "CD", "7", "0.5"]),
    };
    if attr != 3 && g.chance(10) {
        // Quoted non-text cells are parsed trimmed; a quote opens a quoted
        // cell only as its first byte.
        if pad {
            out.pop();
        }
        out.push(b'"');
        out.extend_from_slice(bare.as_bytes());
        out.push(b'"');
    } else {
        out.extend_from_slice(bare.as_bytes());
    }
    if pad {
        out.push(b'\t');
    }
}

/// A hostile input: a header (rarely wrong), then records; `damage` is the
/// percentage chance that a cell is damaged.
fn hostile_input(seed: u64, records: usize, damage: usize) -> Vec<u8> {
    let mut g = Gen(seed);
    let mut out = Vec::new();
    if g.chance(90) {
        out.extend_from_slice(b"n|price|ok|name|kind");
    } else {
        out.extend_from_slice(g.pick(&[&b"n|price|ok|name"[..], b"\"n\"|price|ok|name|kind", b""]));
    }
    for _ in 0..records {
        out.extend_from_slice(g.pick(&[&b"\n"[..], b"\r\n"]));
        if g.chance(10) {
            out.extend_from_slice(g.pick(&[&b"\n"[..], b"  \n", b"\r\n", b"\t\n"]));
        }
        let arity = if damage > 0 && g.chance(5) {
            g.pick(&[4, 6, 1])
        } else {
            5
        };
        for attr in 0..arity {
            if attr > 0 {
                out.push(b'|');
            }
            if g.chance(damage) {
                if g.chance(50) {
                    valid_cell(&mut g, attr % 5, &mut out);
                }
                out.extend_from_slice(g.pick(DAMAGE));
            } else {
                valid_cell(&mut g, attr % 5, &mut out);
            }
        }
    }
    if g.chance(50) {
        out.extend_from_slice(g.pick(&[&b"\n"[..], b"\r\n", b"\n\n"]));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both readers agree on every generated input: well-formed ones
    /// (`damage` 0) load to the same instance and the same segment bytes,
    /// damaged ones fail with the same error.
    #[test]
    fn scanned_readers_match_the_reference_on_hostile_input(
        seed in 0u64..u64::MAX,
        records in 0usize..14,
        damage_idx in 0usize..4,
    ) {
        let damage = [0, 0, 2, 20][damage_idx];
        assert_equivalent(&hostile_input(seed, records, damage))?;
    }

    /// Arbitrary byte soup over the format's structural bytes (after a
    /// valid header) never panics and fails or succeeds like the reference.
    #[test]
    fn byte_soup_matches_the_reference(
        soup in proptest::collection::vec(0usize..DAMAGE.len() + TEXT.len(), 0..40),
    ) {
        let mut input = b"n|price|ok|name|kind\n".to_vec();
        for i in soup {
            match DAMAGE.get(i) {
                Some(bytes) => input.extend_from_slice(bytes),
                None => input.extend_from_slice(TEXT[i - DAMAGE.len()].as_bytes()),
            }
        }
        assert_equivalent(&input)?;
    }
}

/// A multi-line quoted cell in the record that closes a batch (and a
/// shard), and in the one that opens the next: the scanner must finish the
/// record across physical lines before cutting the batch.
#[test]
fn multi_line_quoted_cells_straddle_batch_boundaries() {
    let mut input = b"n|price|ok|name|kind\r\n".to_vec();
    for row in 0..9 {
        let name = match row % 3 {
            2 => "\"line one\nline \"\"two\"\"\r\n\nthree|four\"".to_string(),
            0 => "\"\n\"".to_string(),
            _ => format!("plain {row}"),
        };
        input.extend_from_slice(format!("{row}|{row}.5|true|{name}|CD\r\n").as_bytes());
        if row == 4 {
            input.extend_from_slice(b"\n  \n");
        }
    }
    assert_ingest_matches(&input).unwrap();
    let dir = tmp_dir("straddle");
    let stats = csv::stream_into_store_with_threads(schema(), &input[..], &dir, 3, 4).unwrap();
    assert_eq!(stats.rows, 9);
    let mapped = dq_relation::open_mmap(&dir).unwrap();
    let name = mapped.columns()[3].clone();
    assert_eq!(
        name.interner().resolve(name.id_at(2)),
        &Value::str("line one\nline \"two\"\r\n\nthree|four")
    );
    assert_eq!(name.interner().resolve(name.id_at(3)), &Value::str("\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first bad cell in (row, column) order decides the error, even when
/// later columns of earlier rows are interned on other workers.
#[test]
fn first_bad_cell_in_row_order_wins() {
    let input = b"n|price|ok|name|kind\n1|0.5|true|a|CD\n2|bad|true|b|DVD\nx|0.5|1|c|book\n";
    assert_ingest_matches(input).unwrap();
    let dir = tmp_dir("first");
    let err = csv::stream_into_store_with_threads(schema(), &input[..], &dir, 64, 4).unwrap_err();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        format!("{err:?}"),
        format!(
            "{:?}",
            DqError::Parse {
                reason: "cannot parse `bad` as real".into()
            }
        )
    );
}

/// Invalid UTF-8 is a read error at the line that carries it — after every
/// earlier record's own errors.
#[test]
fn invalid_utf8_is_the_reference_read_error() {
    let input = b"n|price|ok|name|kind\n1|0.5|true|a|CD\n2|0.5|true|\xff|CD\n";
    assert_ingest_matches(input).unwrap();
    let dir = tmp_dir("utf8");
    let err = csv::stream_into_store(schema(), &input[..], &dir, 64).unwrap_err();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(format!("{err:?}").contains("read error"), "{err:?}");
    let earlier = b"n|price|ok|name|kind\nno|0.5|true|a|CD\n2|0.5|true|\xff|CD\n";
    assert_ingest_matches(earlier).unwrap();
}
