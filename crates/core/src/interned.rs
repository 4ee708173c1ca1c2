//! Shared helpers for the interned detection paths.
//!
//! The interned variants of the detectors translate pattern constants into
//! the per-column dictionaries of a
//! [`ColumnarStore`](dq_relation::ColumnarStore) once per call, after which
//! every match test is a `u32` comparison.  A constant that appears nowhere
//! in its column ([`InternedEntry::Absent`]) can match no cell — exactly the
//! semantics of the value-level match operator `≍`, short-circuited.

use crate::pattern::PatternValue;
use dq_relation::{Column, ValueId};
use std::sync::Arc;

/// A CFD pattern entry translated into one column's dictionary.
#[derive(Clone, Copy, Debug)]
pub(crate) enum InternedEntry {
    /// The unnamed variable `_`: matches every cell.
    Wild,
    /// A constant present in the column, as its id.
    Id(ValueId),
    /// A constant absent from the column: matches no cell.
    Absent,
}

impl InternedEntry {
    /// Translates a pattern entry into `col`'s dictionary.
    pub(crate) fn of(p: &PatternValue, col: &Column) -> Self {
        match p {
            PatternValue::Any => InternedEntry::Wild,
            PatternValue::Const(v) => match col.interner().lookup(v) {
                Some(id) => InternedEntry::Id(id),
                None => InternedEntry::Absent,
            },
        }
    }

    /// Translates a whole entry list against positionally aligned columns.
    pub(crate) fn of_all(entries: &[PatternValue], cols: &[Arc<Column>]) -> Vec<InternedEntry> {
        entries
            .iter()
            .zip(cols)
            .map(|(p, c)| InternedEntry::of(p, c))
            .collect()
    }

    /// The match operator `≍` against a cell id.
    #[inline]
    pub(crate) fn matches(&self, id: ValueId) -> bool {
        match self {
            InternedEntry::Wild => true,
            InternedEntry::Id(x) => *x == id,
            InternedEntry::Absent => false,
        }
    }

    /// Componentwise match against the cells of `row`.
    #[inline]
    pub(crate) fn all_match_row(
        entries: &[InternedEntry],
        cols: &[Arc<Column>],
        row: usize,
    ) -> bool {
        entries
            .iter()
            .zip(cols)
            .all(|(e, c)| e.matches(c.id_at(row)))
    }
}
