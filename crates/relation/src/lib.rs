//! # dq-relation
//!
//! An in-memory, typed relational substrate used by every other crate of the
//! `dataquality` workspace.
//!
//! The paper (Fan, PODS 2008) defines all of its dependency classes over
//! standard relational schemas in which every attribute has an explicit
//! domain — and, unusually for dependency theory, the *finiteness* of domains
//! matters (Section 4.1: consistency of CFDs interacts with finite-domain
//! attributes).  This crate therefore models:
//!
//! * [`value::Value`] — dynamically typed constants with a total order and a
//!   hash, so they can be grouped, indexed and compared by the detection and
//!   repair algorithms;
//! * [`schema::Domain`] — infinite built-in domains (`Int`, `Real`, `Text`)
//!   and explicitly finite domains (`Bool`, enumerated `Finite` domains);
//! * [`schema::RelationSchema`] / [`schema::DatabaseSchema`] — attribute
//!   lists with domains;
//! * [`instance::RelationInstance`] / [`instance::Database`] — tuple stores
//!   with stable [`instance::TupleId`]s, so violations and repairs can refer
//!   to cells `(tuple, attribute)`;
//! * [`store`] — the interned columnar snapshot of an instance and its
//!   compact hash indexes ([`store::InternedIndex`]), memoized per instance
//!   version by [`index::IndexPool`]; the `Vec<Value>`-keyed
//!   [`reference::HashIndex`] they replaced is kept as a test oracle;
//! * [`algebra`] — selection / projection / Cartesian product / union views
//!   (the SPCU fragment used by dependency propagation, Theorem 4.7) with
//!   column provenance;
//! * [`query`] — conjunctive queries and a small first-order evaluator used
//!   by consistent query answering (Section 5.2).

pub mod algebra;
pub mod csv;
pub mod error;
pub mod index;
pub mod instance;
pub mod par;
pub mod query;
pub mod reference;
pub mod schema;
pub mod store;

/// The `dq-obs` instrumentation layer (spans, counters, timers) this crate
/// reports through, re-exported so the crates built on it can report into
/// the same recorder without a dependency edge of their own.
pub use dq_obs as obs;
pub mod tuple;
pub mod value;

/// Frequently used items.
pub mod prelude {
    pub use crate::algebra::{Predicate, View};
    pub use crate::error::{DqError, DqResult};
    pub use crate::index::{IndexPool, IndexPoolStats};
    pub use crate::instance::{CellChange, CellRef, Database, Delta, RelationInstance, TupleId};
    pub use crate::query::{
        Atom, Binding, CompOp, Comparison, ConjunctiveQuery, FoQuery, Formula, Term,
    };
    pub use crate::schema::{Attribute, DatabaseSchema, Domain, RelationSchema};
    pub use crate::store::{
        open_mmap, open_mmap_verified, Column, ColumnarStats, ColumnarStore, DistinctSet,
        FxHashMap, FxHashSet, FxHasher, IdTranslation, InternedIndex, InternerStats, KeyCodec,
        MappedBytes, MappedRelation, ProjectionKey, RelationWriter, RowGroups, SaveStats,
        ShardSource, StoreShardSource, ValueId, ValueInterner,
    };
    pub use crate::tuple::Tuple;
    pub use crate::value::{
        levenshtein, levenshtein_within, levenshtein_within_scratch, normalized_levenshtein,
        value_distance, Value,
    };
}

pub use prelude::*;
