//! # dq-cqa
//!
//! Consistent query answering (Section 5.2 of Fan, PODS 2008): computing the
//! answers that hold in *every* repair of an inconsistent database, without
//! repairing it.
//!
//! * [`oracle`] — the exact, exponential baseline: enumerate all repairs
//!   (via `dq-repair`) and intersect the answer sets;
//! * [`rewrite`] — the PTIME first-order rewriting approach of [7]/[43] for
//!   primary keys and tree-shaped (`C_tree`) conjunctive queries, plus the
//!   explicit `FoQuery` rewriting for single-atom queries;
//! * [`aggregate`] — range-consistent answers `[glb, lub]` for aggregation
//!   queries under key repairs (the scalar-aggregation setting of [8]).

pub mod aggregate;
pub mod oracle;
pub mod rewrite;

/// Frequently used items.
pub mod prelude {
    pub use crate::aggregate::{
        aggregate_on, range_consistent_aggregate, AggregateFn, AggregateRange,
    };
    pub use crate::oracle::{
        certain_answers_oracle, possible_answers_oracle, repair_count, single_relation_db,
    };
    pub use crate::rewrite::{
        certain_answers_rewriting, classify_tree_query, rewrite_single_atom, KeySpec, TreePlan,
    };
}

pub use prelude::*;
