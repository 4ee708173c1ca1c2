//! # dq-repair
//!
//! Dependency-based data repairing (Section 5.1 of Fan, PODS 2008).
//!
//! * [`model`] — the X-/S-/U-repair models, the weight × distance cost
//!   metric, repair logging and repair checking (Theorem 5.1);
//! * [`urepair`] — the equivalence-class heuristic that repairs (C)FD
//!   violations by value modification;
//! * [`xrepair`] — the conflict hypergraph and greedy deletion repair for
//!   denial constraints;
//! * [`enumerate`] — exhaustive repair enumeration (Example 5.1 and the
//!   oracle used by consistent query answering);
//! * [`quality`] — precision/recall of repairs against injected errors;
//! * [`numeric`] — minimal-shift repair of numerical attributes under
//!   single-tuple denial constraints (the model of \[13\]);
//! * [`insertion`] — S-repair-style insertion chase for CIND violations
//!   (dangling tuples get their required counterparts);
//! * [`reference`](mod@reference) — the row-at-a-time U-repair loop, kept
//!   as the test oracle of [`urepair`].

pub mod enumerate;
pub mod insertion;
pub mod model;
pub mod numeric;
pub mod quality;
pub mod reference;
pub mod urepair;
pub mod xrepair;

/// Frequently used items.
pub mod prelude {
    pub use crate::enumerate::{count_repairs, enumerate_repairs, example_5_1_instance};
    pub use crate::insertion::{
        repair_cind_violations_by_insertion, InsertionOutcome, InsertionRepairConfig,
    };
    pub use crate::model::{
        check_u_repair, check_x_repair, RepairCost, RepairLog, RepairModel, Weights,
    };
    pub use crate::numeric::{
        repair_numeric_violations, NumericRepairConfig, NumericRepairOutcome,
    };
    pub use crate::quality::{differing_cells, score_repair, RepairQuality};
    pub use crate::urepair::{
        repair_cfd_violations, repair_cfd_violations_with_engine, RepairConfig, RepairOutcome,
    };
    pub use crate::xrepair::{repair_by_deletion, ConflictHypergraph, DeletionOutcome};
}

pub use prelude::*;
