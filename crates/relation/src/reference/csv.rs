//! The row-at-a-time delimited-text reader that [`crate::csv`] replaced,
//! kept as its test oracle.
//!
//! Every cell is built up `char` by `char` into an owned `String`, a record
//! becomes a `Vec<RawCell>`, each cell a [`Value`] with its own allocation,
//! and the streaming ingest pushes one row at a time through
//! [`RelationWriter::push_row`].  `tests/csv_equivalence.rs` holds
//! [`crate::csv::from_text`] and [`crate::csv::stream_into_store`] to this
//! module's output: the same instance or segment bytes, or the same
//! [`DqError`].

use crate::csv::{QUOTE, SEPARATOR};
use crate::error::{DqError, DqResult};
use crate::instance::RelationInstance;
use crate::schema::{Domain, RelationSchema};
use crate::store::persist::{RelationWriter, SaveStats};
use crate::tuple::Tuple;
use crate::value::Value;
use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

/// One scanned cell: its content (quotes resolved) and whether it was
/// quoted.  Quoted cells skip trimming and the `NULL` mapping on parse.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RawCell {
    text: String,
    quoted: bool,
}

/// Outcome of scanning one accumulated physical-line run.
enum Scan {
    /// The record is complete.
    Complete(Vec<RawCell>),
    /// The record ends inside an open quote — the quoted cell continues on
    /// the next physical line.
    NeedsMore,
}

/// Splits one logical record into cells, honoring quoting.  Returns
/// [`Scan::NeedsMore`] when the record ends inside an open quote.
fn split_record(record: &str) -> DqResult<Scan> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut at_start = true;
    let mut chars = record.chars().peekable();
    while let Some(c) = chars.next() {
        if at_start {
            at_start = false;
            if c == QUOTE {
                quoted = true;
                in_quotes = true;
                continue;
            }
        }
        if in_quotes {
            if c == QUOTE {
                if chars.peek() == Some(&QUOTE) {
                    chars.next();
                    cur.push(QUOTE);
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else if c == SEPARATOR {
            cells.push(RawCell {
                text: std::mem::take(&mut cur),
                quoted,
            });
            quoted = false;
            at_start = true;
        } else if quoted {
            // Past the closing quote only (insignificant) whitespace — such
            // as a trailing `\r` — may follow before the next separator.
            if !c.is_whitespace() {
                return Err(DqError::Parse {
                    reason: format!("unexpected `{c}` after closing quote"),
                });
            }
        } else {
            cur.push(c);
        }
    }
    if in_quotes {
        return Ok(Scan::NeedsMore);
    }
    cells.push(RawCell { text: cur, quoted });
    Ok(Scan::Complete(cells))
}

/// Reads logical records — accumulating physical lines while a quoted cell
/// spans line breaks — from any buffered reader.
struct RecordReader<R> {
    inner: R,
    line: String,
}

impl<R: BufRead> RecordReader<R> {
    fn new(inner: R) -> Self {
        RecordReader {
            inner,
            line: String::new(),
        }
    }

    /// The next logical record, or `None` at end of input.  Blank lines
    /// between records are skipped (a blank line *inside* a quoted cell is
    /// content).
    fn next_record(&mut self) -> DqResult<Option<Vec<RawCell>>> {
        let mut pending = String::new();
        loop {
            self.line.clear();
            let read = self
                .inner
                .read_line(&mut self.line)
                .map_err(|e| DqError::Parse {
                    reason: format!("read error: {e}"),
                })?;
            if read == 0 {
                if pending.is_empty() {
                    return Ok(None);
                }
                return Err(DqError::Parse {
                    reason: "unterminated quoted cell at end of input".into(),
                });
            }
            let line = self.line.strip_suffix('\n').unwrap_or(&self.line);
            if pending.is_empty() && line.trim().is_empty() {
                continue;
            }
            if !pending.is_empty() {
                pending.push('\n');
            }
            pending.push_str(line);
            match split_record(&pending)? {
                Scan::NeedsMore => continue,
                Scan::Complete(cells) => return Ok(Some(cells)),
            }
        }
    }
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
            values.iter().find(|v| v.to_string() == text).cloned()
        }
    }
}

/// Parses a single bare (unquoted) cell according to the attribute domain:
/// whitespace-trimmed, with `NULL` mapping to [`Value::Null`].
fn parse_cell(text: &str, domain: &Domain) -> DqResult<Value> {
    let text = text.trim();
    if text == "NULL" {
        return Ok(Value::Null);
    }
    parse_typed(text, domain).ok_or_else(|| DqError::Parse {
        reason: format!("cannot parse `{text}` as {domain}"),
    })
}

/// Parses one scanned cell.  Quoted cells keep their exact content: no
/// trimming, and a quoted `"NULL"` is the four-letter string, not a null.
fn parse_raw_cell(cell: &RawCell, domain: &Domain) -> DqResult<Value> {
    if !cell.quoted {
        return parse_cell(&cell.text, domain);
    }
    let parsed = match domain {
        Domain::Text => Some(Value::str(cell.text.as_str())),
        other => parse_typed(cell.text.trim(), other),
    };
    parsed.ok_or_else(|| DqError::Parse {
        reason: format!("cannot parse quoted `{}` as {domain}", cell.text),
    })
}

/// Validates a scanned header against the schema's attribute list.
fn check_header(cells: &[RawCell], schema: &RelationSchema) -> DqResult<()> {
    let names: Vec<&str> = cells
        .iter()
        .map(|c| {
            if c.quoted {
                c.text.as_str()
            } else {
                c.text.trim()
            }
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

/// Parses delimited text (as produced by [`crate::csv::to_text`]) into an
/// instance of `schema`.  The header row must list exactly the schema's
/// attributes in order.
pub fn from_text(schema: Arc<RelationSchema>, text: &str) -> DqResult<RelationInstance> {
    let mut reader = RecordReader::new(text.as_bytes());
    let header = reader.next_record()?.ok_or_else(|| DqError::Parse {
        reason: "empty input".into(),
    })?;
    check_header(&header, &schema)?;
    let mut instance = RelationInstance::new(Arc::clone(&schema));
    let mut rowno = 1usize;
    while let Some(cells) = reader.next_record()? {
        rowno += 1;
        if cells.len() != schema.arity() {
            return Err(DqError::Parse {
                reason: format!(
                    "record {} has {} cells, expected {}",
                    rowno,
                    cells.len(),
                    schema.arity()
                ),
            });
        }
        let values: DqResult<Vec<Value>> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| parse_raw_cell(c, schema.domain(i)))
            .collect();
        instance.insert(Tuple::new(values?))?;
    }
    Ok(instance)
}

/// Streams delimited text into a persisted columnar relation at `dir`, one
/// row at a time: each record's cells are parsed into `Value`s and pushed
/// through [`RelationWriter::push_row`], which interns them and flushes
/// full shards.
pub fn stream_into_store<R: BufRead>(
    schema: Arc<RelationSchema>,
    input: R,
    dir: &Path,
    shard_rows: usize,
) -> DqResult<SaveStats> {
    let mut reader = RecordReader::new(input);
    let header = reader.next_record()?.ok_or_else(|| DqError::Parse {
        reason: "empty input".into(),
    })?;
    check_header(&header, &schema)?;
    let mut writer = RelationWriter::create(dir, Arc::clone(&schema), shard_rows)?;
    let mut row: Vec<Value> = Vec::with_capacity(schema.arity());
    let mut rowno = 1usize;
    while let Some(cells) = reader.next_record()? {
        rowno += 1;
        if cells.len() != schema.arity() {
            return Err(DqError::Parse {
                reason: format!(
                    "record {} has {} cells, expected {}",
                    rowno,
                    cells.len(),
                    schema.arity()
                ),
            });
        }
        row.clear();
        for (i, c) in cells.iter().enumerate() {
            row.push(parse_raw_cell(c, schema.domain(i))?);
        }
        writer.push_row(row.drain(..))?;
    }
    writer.finish()
}
