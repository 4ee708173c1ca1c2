//! Delimited-text import/export and streaming columnar ingest.
//!
//! The format is deliberately small: one header row with attribute names,
//! `|`-separated cells, `NULL` for nulls, and minimal RFC-4180-style quoting
//! for the cells that need it.  A cell is written quoted — wrapped in `"`,
//! with embedded quotes doubled — when its raw text would not survive the
//! round trip otherwise: it contains the separator, a line break or a quote,
//! it is a text value reading literally `NULL` (it would be re-parsed as a
//! null), or it carries leading/trailing whitespace (unquoted cells are
//! trimmed on parse).  Everything else is written bare, so the common case
//! stays exactly as readable as before.
//!
//! Two read paths share one quote-aware byte scanner, which records each
//! cell as a byte range of a reused line buffer instead of building a
//! `String` per cell: [`from_text`] materializes a [`RelationInstance`],
//! while [`stream_into_store`] loads delimited text straight into a
//! persisted columnar relation (see [`crate::store::persist`]) — a shard's
//! worth of records is scanned, then interned column by column on a worker
//! per core, and shards are flushed as they fill, so no intermediate tuple
//! vector of the input is ever built and peak memory stays at
//! O(dictionaries + one shard).  The reader this replaced is kept as the
//! test oracle [`crate::reference::csv`].

use crate::error::{DqError, DqResult};
use crate::instance::RelationInstance;
use crate::par::available_threads;
use crate::schema::{Domain, RelationSchema};
use crate::store::interner::{ValueId, ValueInterner};
use crate::store::persist::{RelationWriter, SaveStats};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt::{self, Write as _};
use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

/// The cell separator used by [`to_text`] and [`from_text`].
pub const SEPARATOR: char = '|';

/// The quote character used to escape cells that contain the separator, line
/// breaks, quotes, outer whitespace, or text reading literally `NULL`.
pub const QUOTE: char = '"';

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Must this rendered cell be quoted to survive the round trip?
fn needs_quoting(rendered: &str, is_text_value: bool) -> bool {
    (is_text_value && rendered == "NULL")
        || rendered.contains(SEPARATOR)
        || rendered.contains('\n')
        || rendered.contains('\r')
        || rendered.contains(QUOTE)
        || rendered.starts_with(char::is_whitespace)
        || rendered.ends_with(char::is_whitespace)
}

/// Appends one cell, quoting and escaping when needed.
fn render_cell(rendered: &str, is_text_value: bool, out: &mut String) {
    if !needs_quoting(rendered, is_text_value) {
        out.push_str(rendered);
        return;
    }
    out.push(QUOTE);
    for c in rendered.chars() {
        if c == QUOTE {
            out.push(QUOTE);
        }
        out.push(c);
    }
    out.push(QUOTE);
}

/// Serializes an instance to delimited text (header row + one row per
/// tuple).  Cells that would be ambiguous bare — separators, line breaks,
/// quotes, literal `NULL` text, outer whitespace — are quoted, so every
/// instance round-trips losslessly through [`from_text`].
pub fn to_text(instance: &RelationInstance) -> DqResult<String> {
    let schema = instance.schema();
    let mut out = String::new();
    for (i, attr) in schema.attributes().iter().enumerate() {
        if i > 0 {
            out.push(SEPARATOR);
        }
        render_cell(&attr.name, false, &mut out);
    }
    out.push('\n');
    for (_, tuple) in instance.iter() {
        for (i, v) in tuple.values().iter().enumerate() {
            if i > 0 {
                out.push(SEPARATOR);
            }
            match v {
                Value::Str(s) => render_cell(s, true, &mut out),
                other => render_cell(&other.to_string(), false, &mut out),
            }
        }
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Record scanning
// ---------------------------------------------------------------------------

/// One scanned cell: a byte range of the batch text.  For a quoted cell the
/// range is the content between the quotes, `""` escapes still in place.
#[derive(Clone, Copy, Debug)]
struct Cell {
    start: usize,
    end: usize,
    /// Quoted cells skip trimming and the `NULL` mapping on parse.
    quoted: bool,
    /// The quoted content holds `""` escapes to collapse before use.
    escaped: bool,
}

/// The content of `cell`: a slice of the batch `text`, or — when the cell
/// carries `""` escapes — the unescaped copy built in `scratch`.
fn cell_text<'a>(text: &'a str, cell: &Cell, scratch: &'a mut String) -> &'a str {
    let raw = &text[cell.start..cell.end];
    if !cell.escaped {
        return raw;
    }
    // Inside quotes every `"` is the first of a doubled pair.
    scratch.clear();
    let mut rest = raw;
    while let Some(q) = rest.find(QUOTE) {
        scratch.push_str(&rest[..=q]);
        rest = &rest[q + 2..];
    }
    scratch.push_str(rest);
    scratch
}

/// Scanning state of the cell under the cursor.
struct CellState {
    start: usize,
    /// Position of the closing quote (the content end of a quoted cell).
    close: usize,
    at_start: bool,
    in_quotes: bool,
    quoted: bool,
    escaped: bool,
}

impl CellState {
    fn at(start: usize) -> Self {
        CellState {
            start,
            close: start,
            at_start: true,
            in_quotes: false,
            quoted: false,
            escaped: false,
        }
    }

    /// The finished cell, ending at `end` unless it was quoted.
    fn cell(&self, end: usize) -> Cell {
        Cell {
            start: self.start,
            end: if self.quoted { self.close } else { end },
            quoted: self.quoted,
            escaped: self.escaped,
        }
    }
}

/// Why [`Scanner::fill`] stopped.
enum Stop {
    /// The batch holds the requested number of records.
    Full,
    /// The input is exhausted.
    End,
    /// A read or scan error.  The records scanned before it are still in
    /// the batch, and their own errors come first.
    Failed(DqError),
}

/// The quote-aware byte scanner behind both read paths: reads physical
/// lines into one reused text buffer (each validated as UTF-8 once, on
/// read) and records every cell of a batch of logical records as a byte
/// range of it — no per-cell allocation.
///
/// Record semantics: blank lines between records are skipped; a quoted
/// cell may span lines (the line break is content); only whitespace may
/// follow a closing quote (so a trailing `\r` is dropped, as is the
/// whitespace trimmed off bare cells).
struct Scanner<R> {
    input: R,
    /// Physical lines of the batch's records, line breaks kept.
    text: String,
    /// Cells of the batch's records, record after record.
    cells: Vec<Cell>,
    /// Records in the batch.
    rows: usize,
    /// Logical records completed so far, header included.
    records: usize,
}

impl<R: BufRead> Scanner<R> {
    fn new(input: R) -> Self {
        Scanner {
            input,
            text: String::new(),
            cells: Vec::new(),
            rows: 0,
            records: 0,
        }
    }

    /// Clears the batch and scans up to `max` records into it, each of
    /// exactly `arity` cells when given (the header takes any count).
    fn fill(&mut self, max: usize, arity: Option<usize>) -> Stop {
        debug_assert!(max > 0, "an empty batch makes no progress");
        self.text.clear();
        self.cells.clear();
        self.rows = 0;
        while self.rows < max {
            let (text_len, cells_len) = (self.text.len(), self.cells.len());
            match self.scan_record(arity) {
                Ok(true) => self.rows += 1,
                Ok(false) => return Stop::End,
                Err(e) => {
                    self.text.truncate(text_len);
                    self.cells.truncate(cells_len);
                    return Stop::Failed(e);
                }
            }
        }
        Stop::Full
    }

    /// Scans the next logical record into the batch; `false` at end of
    /// input.
    fn scan_record(&mut self, arity: Option<usize>) -> DqResult<bool> {
        let first_cell = self.cells.len();
        let mut state: Option<CellState> = None;
        loop {
            let line_start = self.text.len();
            let read = self
                .input
                .read_line(&mut self.text)
                .map_err(|e| DqError::Parse {
                    reason: format!("read error: {e}"),
                })?;
            if read == 0 {
                if state.is_none() {
                    return Ok(false);
                }
                return Err(DqError::Parse {
                    reason: "unterminated quoted cell at end of input".into(),
                });
            }
            let line_end = self.text.len() - usize::from(self.text.ends_with('\n'));
            let st = match &mut state {
                Some(st) => st,
                None if self.text[line_start..line_end].trim().is_empty() => {
                    self.text.truncate(line_start);
                    continue;
                }
                None => state.insert(CellState::at(line_start)),
            };
            if self.scan_line(st, line_start, line_end)? {
                break;
            }
        }
        self.records += 1;
        let cells = self.cells.len() - first_cell;
        match arity {
            Some(arity) if cells != arity => Err(DqError::Parse {
                reason: format!(
                    "record {} has {cells} cells, expected {arity}",
                    self.records
                ),
            }),
            _ => Ok(true),
        }
    }

    /// Scans `text[i..end]` (one physical line, its break excluded) from
    /// `st`; `true` when the record ends with it, `false` when a quoted
    /// cell continues on the next line.
    fn scan_line(&mut self, st: &mut CellState, mut i: usize, end: usize) -> DqResult<bool> {
        let bytes = self.text.as_bytes();
        while i < end {
            if st.in_quotes {
                let Some(q) = find(bytes, i, end, b'"') else {
                    return Ok(false);
                };
                if q + 1 < end && bytes[q + 1] == b'"' {
                    st.escaped = true;
                    i = q + 2;
                } else {
                    st.in_quotes = false;
                    st.close = q;
                    i = q + 1;
                }
                continue;
            }
            if st.at_start {
                st.at_start = false;
                if bytes[i] == b'"' {
                    st.quoted = true;
                    st.in_quotes = true;
                    st.start = i + 1;
                    i += 1;
                    continue;
                }
            }
            if bytes[i] == b'|' {
                self.cells.push(st.cell(i));
                *st = CellState::at(i + 1);
                i += 1;
            } else if st.quoted {
                // Past the closing quote only (insignificant) whitespace —
                // such as a trailing `\r` — may follow before the next
                // separator.
                let c = self.text[i..].chars().next().expect("i < end");
                if !c.is_whitespace() {
                    return Err(DqError::Parse {
                        reason: format!("unexpected `{c}` after closing quote"),
                    });
                }
                i += c.len_utf8();
            } else {
                i = find(bytes, i, end, b'|').unwrap_or(end);
            }
        }
        if st.in_quotes {
            return Ok(false);
        }
        self.cells.push(st.cell(end));
        Ok(true)
    }
}

/// Position of the first `byte` in `bytes[from..end]`.
fn find(bytes: &[u8], from: usize, end: usize, byte: u8) -> Option<usize> {
    bytes[from..end]
        .iter()
        .position(|&b| b == byte)
        .map(|k| from + k)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Does `v` display exactly as `text`?  Compares the `Display` output piece
/// by piece as it is produced, without rendering it into a `String`.
fn displays_as(v: &Value, text: &str) -> bool {
    struct Rest<'a>(&'a str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, piece: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(text);
    write!(rest, "{v}").is_ok() && rest.0.is_empty()
}

/// Parses trimmed bare text according to a domain (no `NULL` mapping).
fn parse_typed(text: &str, domain: &Domain) -> Option<Value> {
    match domain {
        Domain::Int => text.parse::<i64>().map(Value::Int).ok(),
        Domain::Real => text.parse::<f64>().map(Value::Real).ok(),
        Domain::Bool => match text {
            "true" | "TRUE" | "1" => Some(Value::Bool(true)),
            "false" | "FALSE" | "0" => Some(Value::Bool(false)),
            _ => None,
        },
        Domain::Text => Some(Value::str(text)),
        Domain::Finite(values) => {
            // Accept any display form matching a domain element.
            values.iter().find(|v| displays_as(v, text)).cloned()
        }
    }
}

/// Parses a single bare (unquoted) cell according to the attribute domain:
/// whitespace-trimmed, with `NULL` mapping to [`Value::Null`].
pub fn parse_cell(text: &str, domain: &Domain) -> DqResult<Value> {
    let text = text.trim();
    if text == "NULL" {
        return Ok(Value::Null);
    }
    parse_typed(text, domain).ok_or_else(|| DqError::Parse {
        reason: format!("cannot parse `{text}` as {domain}"),
    })
}

/// A scanned cell read against its domain.
enum Parsed<'a> {
    /// A `Text` cell's string, still borrowed from the batch.
    Text(&'a str),
    /// Any other cell, typed (no allocation: `Finite` elements are shared).
    Value(Value),
}

/// Parses one scanned cell's content.  Quoted cells keep their exact
/// content: no trimming, and a quoted `"NULL"` is the four-letter string,
/// not a null.
fn parse_scanned<'a>(text: &'a str, quoted: bool, domain: &Domain) -> DqResult<Parsed<'a>> {
    if quoted {
        if let Domain::Text = domain {
            return Ok(Parsed::Text(text));
        }
        return parse_typed(text.trim(), domain)
            .map(Parsed::Value)
            .ok_or_else(|| DqError::Parse {
                reason: format!("cannot parse quoted `{text}` as {domain}"),
            });
    }
    let text = text.trim();
    if text == "NULL" {
        return Ok(Parsed::Value(Value::Null));
    }
    if let Domain::Text = domain {
        return Ok(Parsed::Text(text));
    }
    parse_typed(text, domain)
        .map(Parsed::Value)
        .ok_or_else(|| DqError::Parse {
            reason: format!("cannot parse `{text}` as {domain}"),
        })
}

/// Scans the header record and validates it against the schema's
/// attribute list.
fn read_header<R: BufRead>(scanner: &mut Scanner<R>, schema: &RelationSchema) -> DqResult<()> {
    if let Stop::Failed(e) = scanner.fill(1, None) {
        return Err(e);
    }
    if scanner.rows == 0 {
        return Err(DqError::Parse {
            reason: "empty input".into(),
        });
    }
    let mut scratch = String::new();
    let names: Vec<String> = scanner
        .cells
        .iter()
        .map(|c| {
            let text = cell_text(&scanner.text, c, &mut scratch);
            if c.quoted { text } else { text.trim() }.to_string()
        })
        .collect();
    let expected: Vec<&str> = schema
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    if names != expected {
        return Err(DqError::Parse {
            reason: format!("header {names:?} does not match schema attributes {expected:?}"),
        });
    }
    Ok(())
}

/// Parses delimited text (as produced by [`to_text`]) into an instance of
/// `schema`.  The header row must list exactly the schema's attributes in
/// order.
pub fn from_text(schema: Arc<RelationSchema>, text: &str) -> DqResult<RelationInstance> {
    let _span = dq_obs::span!("store.io.parse_text");
    let mut scanner = Scanner::new(text.as_bytes());
    read_header(&mut scanner, &schema)?;
    let arity = schema.arity();
    let mut instance = RelationInstance::new(Arc::clone(&schema));
    let mut scratch = String::new();
    loop {
        // One record per batch: the instance owns every value anyway.
        let stop = scanner.fill(1, Some(arity));
        if scanner.rows == 1 {
            let values = scanner
                .cells
                .iter()
                .enumerate()
                .map(|(attr, c)| {
                    let text = cell_text(&scanner.text, c, &mut scratch);
                    Ok(match parse_scanned(text, c.quoted, schema.domain(attr))? {
                        Parsed::Text(s) => Value::str(s),
                        Parsed::Value(v) => v,
                    })
                })
                .collect::<DqResult<Vec<Value>>>()?;
            instance.insert(Tuple::new(values))?;
        }
        match stop {
            Stop::Full => {}
            Stop::End => return Ok(instance),
            Stop::Failed(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming ingest
// ---------------------------------------------------------------------------

/// Streams delimited text straight into a persisted columnar relation at
/// `dir` (see [`crate::store::persist`]), using the machine's available
/// parallelism.
///
/// The input is scanned one shard's worth of records at a time; then each
/// column's cells of the batch are parsed against its domain and interned
/// into its dictionary, one column per worker, in row order — so
/// dictionaries, segments and manifest are the same bytes whatever the
/// thread count.  `Text` cells probe the dictionary by borrowed `&str`;
/// only a value new to its column is allocated.  Full shards are flushed
/// to disk immediately and dictionaries spill once at the end.  No tuple
/// vector of the input is ever materialized — peak memory is
/// O(dictionaries + one shard) however large the input.  When several
/// cells are bad, the error of the first in (row, column) order is
/// returned.
///
/// The relation can then be re-opened with
/// [`crate::store::persist::open_mmap`] and fed to the shard-cursor
/// detection and discovery paths.
pub fn stream_into_store<R: BufRead>(
    schema: Arc<RelationSchema>,
    input: R,
    dir: &Path,
    shard_rows: usize,
) -> DqResult<SaveStats> {
    stream_into_store_with_threads(schema, input, dir, shard_rows, available_threads())
}

/// [`stream_into_store`] interning on `threads` workers.  The output does
/// not depend on `threads`; the equivalence suite pins that.
#[doc(hidden)]
pub fn stream_into_store_with_threads<R: BufRead>(
    schema: Arc<RelationSchema>,
    input: R,
    dir: &Path,
    shard_rows: usize,
    threads: usize,
) -> DqResult<SaveStats> {
    let _span = dq_obs::span!("store.io.stream_ingest");
    let mut scanner = Scanner::new(input);
    read_header(&mut scanner, &schema)?;
    let arity = schema.arity();
    let mut writer = RelationWriter::create(dir, Arc::clone(&schema), shard_rows)?;
    loop {
        let stop = {
            let _span = dq_obs::span!("scan");
            scanner.fill(writer.shard_room(), Some(arity))
        };
        if scanner.rows > 0 {
            {
                let _span = dq_obs::span!("intern");
                let (text, cells) = (scanner.text.as_str(), scanner.cells.as_slice());
                writer.push_columns(threads, |attr, dict, ids| {
                    let column = cells.iter().skip(attr).step_by(arity);
                    intern_column(text, column, schema.domain(attr), dict, ids)
                })?;
                dq_obs::add("store.io.ingested_rows", scanner.rows as u64);
            }
            let _span = dq_obs::span!("flush");
            writer.flush_if_full()?;
        }
        match stop {
            Stop::Full => {}
            Stop::End => break,
            Stop::Failed(e) => return Err(e),
        }
    }
    writer.finish()
}

/// Parses and interns one column's cells of the `batch` text, appending the
/// ids in row order.  Stops at the column's first bad cell, returning its batch
/// row with the error.
fn intern_column<'a>(
    batch: &str,
    column: impl Iterator<Item = &'a Cell>,
    domain: &Domain,
    dict: &mut ValueInterner,
    ids: &mut Vec<ValueId>,
) -> Result<(), (usize, DqError)> {
    let mut scratch = String::new();
    for (row, cell) in column.enumerate() {
        let text = cell_text(batch, cell, &mut scratch);
        ids.push(
            match parse_scanned(text, cell.quoted, domain).map_err(|e| (row, e))? {
                Parsed::Text(s) => dict.intern_str(s),
                Parsed::Value(v) => dict.intern(&v),
            },
        );
    }
    Ok(())
}

/// [`stream_into_store`] reading from a file.
pub fn stream_file_into_store(
    schema: Arc<RelationSchema>,
    input: &Path,
    dir: &Path,
    shard_rows: usize,
) -> DqResult<SaveStats> {
    let file = std::fs::File::open(input).map_err(|e| DqError::Io {
        path: input.display().to_string(),
        reason: e.to_string(),
    })?;
    stream_into_store(schema, std::io::BufReader::new(file), dir, shard_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::persist::open_mmap_verified;
    use crate::store::shard::ShardSource;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "customer",
            [
                ("CC", Domain::Int),
                ("name", Domain::Text),
                ("price", Domain::Real),
                ("active", Domain::Bool),
            ],
        ))
    }

    fn round_trips(inst: &RelationInstance, schema: &Arc<RelationSchema>) {
        let text = to_text(inst).unwrap();
        let parsed = from_text(Arc::clone(schema), &text).unwrap();
        assert!(inst.same_tuples_as(&parsed), "lossy round trip:\n{text}");
    }

    #[test]
    fn round_trip_preserves_tuples() {
        let schema = schema();
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        inst.insert_values([
            Value::int(44),
            Value::str("Mike"),
            Value::real(7.99),
            Value::bool(true),
        ])
        .unwrap();
        inst.insert_values([
            Value::int(1),
            Value::Null,
            Value::real(0.5),
            Value::bool(false),
        ])
        .unwrap();
        round_trips(&inst, &schema);
    }

    #[test]
    fn literal_null_text_round_trips_quoted() {
        // Regression test: a `Text` cell whose content is literally "NULL"
        // used to be *refused* (and before that, silently re-parsed as a
        // null).  It now serializes quoted and survives the round trip,
        // while an actual null still renders bare.
        let schema = schema();
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        inst.insert_values([
            Value::int(1),
            Value::str("NULL"),
            Value::real(1.0),
            Value::bool(true),
        ])
        .unwrap();
        inst.insert_values([
            Value::int(2),
            Value::Null,
            Value::real(1.0),
            Value::bool(true),
        ])
        .unwrap();
        let text = to_text(&inst).unwrap();
        assert!(text.contains("\"NULL\""), "{text}");
        round_trips(&inst, &schema);
    }

    #[test]
    fn separators_newlines_and_quotes_round_trip_quoted() {
        // Regression test: cells containing `|`, line breaks or quotes used
        // to be refused outright; they now round-trip via quoting.
        let schema = schema();
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for name in [
            "Mike|Smith",
            "two\nlines",
            "carriage\rreturn",
            "a \"quoted\" word",
            "\"",
            "||",
            " leading and trailing ",
            "",
            "plain",
        ] {
            inst.insert_values([
                Value::int(1),
                Value::str(name),
                Value::real(1.0),
                Value::bool(true),
            ])
            .unwrap();
        }
        round_trips(&inst, &schema);
    }

    #[test]
    fn adversarial_text_cells_round_trip() {
        // Property-style sweep: pseudo-random strings over a hostile
        // alphabet (separators, quotes, line breaks, whitespace, `NULL`
        // fragments) must all survive the round trip.
        let schema = schema();
        let alphabet: Vec<char> = "|\"\n\r NUL\tx√".chars().collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            // xorshift64*; deterministic, no external RNG dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as usize % bound
        };
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for _ in 0..300 {
            let len = next(12);
            let s: String = (0..len).map(|_| alphabet[next(alphabet.len())]).collect();
            inst.insert_values([
                Value::int(next(100) as i64 - 50),
                Value::str(s),
                Value::real(next(1000) as f64 / 8.0),
                Value::bool(next(2) == 1),
            ])
            .unwrap();
        }
        round_trips(&inst, &schema);
    }

    #[test]
    fn quoted_header_names_round_trip() {
        let schema = Arc::new(RelationSchema::new(
            "odd",
            [("a|b", Domain::Int), ("c\nd", Domain::Text)],
        ));
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        inst.insert_values([Value::int(3), Value::str("x")])
            .unwrap();
        round_trips(&inst, &schema);
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let schema = schema();
        let err = from_text(schema, "A|B|C|D\n1|x|2.0|true\n").unwrap_err();
        assert!(matches!(err, DqError::Parse { .. }));
    }

    #[test]
    fn bad_cell_counts_and_values_are_rejected() {
        let schema = schema();
        let short = from_text(Arc::clone(&schema), "CC|name|price|active\n1|x|2.0\n");
        assert!(short.is_err());
        let bad_int = from_text(Arc::clone(&schema), "CC|name|price|active\nxx|x|2.0|true\n");
        assert!(bad_int.is_err());
        let unterminated = from_text(
            Arc::clone(&schema),
            "CC|name|price|active\n1|\"x|2.0|true\n",
        );
        assert!(unterminated.is_err());
        let trailing = from_text(
            Arc::clone(&schema),
            "CC|name|price|active\n1|\"x\"y|2.0|true\n",
        );
        assert!(trailing.is_err());
    }

    #[test]
    fn finite_domains_accept_only_listed_values() {
        let dom = Domain::finite_str(["book", "CD"]);
        assert_eq!(parse_cell("book", &dom).unwrap(), Value::str("book"));
        assert!(parse_cell("DVD", &dom).is_err());
        assert_eq!(parse_cell("NULL", &dom).unwrap(), Value::Null);
    }

    #[test]
    fn finite_domains_match_display_forms_exactly() {
        let elements = [
            Value::int(7),
            Value::real(0.5),
            Value::bool(true),
            Value::str("a|b"),
            Value::Null,
        ];
        let dom = Domain::Finite(elements.to_vec().into());
        for v in &elements {
            assert_eq!(parse_typed(&v.to_string(), &dom).as_ref(), Some(v));
        }
        for text in ["07", "0.50", "TRUE", "a", "a|b|", "", "7 ", "NUL"] {
            assert_eq!(parse_typed(text, &dom), None, "{text:?}");
        }
    }

    #[test]
    fn stream_ingest_matches_in_memory_parse() {
        let schema = schema();
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for i in 0..200 {
            inst.insert_values([
                Value::int(i % 17),
                Value::str(if i % 7 == 0 {
                    format!("odd|name {i}")
                } else {
                    format!("name-{}", i % 23)
                }),
                Value::real(i as f64 / 4.0),
                Value::bool(i % 2 == 0),
            ])
            .unwrap();
        }
        let text = to_text(&inst).unwrap();
        let dir = std::env::temp_dir().join(format!("dq_csv_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Small shards force a multi-shard layout on 200 rows.
        let stats = stream_into_store(Arc::clone(&schema), text.as_bytes(), &dir, 32).unwrap();
        assert_eq!(stats.rows, 200);
        let mapped = open_mmap_verified(&dir).unwrap();
        assert_eq!(mapped.len(), 200);
        assert_eq!(mapped.shard_count(), 200usize.div_ceil(32));
        let store = inst.columnar();
        for attr in 0..schema.arity() {
            let m = mapped.column(attr);
            let s = store.column(&inst, attr);
            for row in 0..200 {
                assert_eq!(
                    m.interner().resolve(m.id_at(row)),
                    s.interner().resolve(s.id_at(row)),
                    "attr {attr} row {row}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_ingest_rejects_bad_rows_cleanly() {
        let schema = schema();
        let bad = "CC|name|price|active\n1|x|2.0|true\nnot-an-int|y|1.0|false\n";
        let dir = std::env::temp_dir().join(format!("dq_csv_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = stream_into_store(Arc::clone(&schema), bad.as_bytes(), &dir, 8).unwrap_err();
        assert!(matches!(err, DqError::Parse { .. }), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
