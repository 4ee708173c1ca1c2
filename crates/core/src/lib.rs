//! # dq-core
//!
//! The primary contribution of Fan, *"Dependencies Revisited for Improving
//! Data Quality"* (PODS 2008): conditional dependencies and their static
//! analyses.
//!
//! * [`pattern`] — pattern tableaux and the match operator `≍`;
//! * [`fd`] / [`ind`] — the traditional dependencies being revisited
//!   (closure, implication, minimal covers, candidate keys, chase);
//! * [`cfd`] — conditional functional dependencies (Section 2.1);
//! * [`cind`] — conditional inclusion dependencies (Section 2.2);
//! * [`ecfd`] — CFDs with disjunction and inequality (Section 2.3);
//! * [`denial`] — denial constraints (Sections 2.3, 5);
//! * [`detect`] — violation reports: grouped CFD reports, CIND and eCFD
//!   reports;
//! * [`engine`] — [`DetectionEngine`], the one detector of every class:
//!   shared-index, parallel detection over dependency sets, batch,
//!   incremental and maintained; each type's `holds_on` is its
//!   default-engine form;
//! * [`stream`] — one grouping kernel per dependency class over in-RAM or
//!   memory-mapped columnar shards, fed by pooled-index or scanned groups;
//! * [`consistency`] — consistency analysis (Theorem 4.1/4.3, Example 4.1);
//! * [`implication`] — implication analysis and minimal covers
//!   (Theorem 4.2/4.3);
//! * [`analysis`] — the propagation-guided solver behind the exact checks,
//!   the rule-lint pass, and the vetting entry points pipelines call before
//!   a rule set drives detection or repair;
//! * [`axioms`] — finite inference systems (Theorem 4.6);
//! * [`propagation`] — dependency propagation through SPCU views
//!   (Theorem 4.7, Example 4.2);
//! * [`reference`](mod@reference) — the row-at-a-time detectors and the blind backtracking
//!   analyses that the engine and the solver are tested against.
//!
//! Detection runs on a [`DetectionEngine`]; the prelude carries no naive
//! detector.  [`detect_cfd_violations`] at the crate root (and in
//! [`detect`]) is [`reference::detect_cfd_violations`], kept under that name
//! because the repository benchmark's `clean-master-20k` oracle calls it.

pub mod analysis;
pub mod axioms;
pub mod cfd;
pub mod cind;
pub mod consistency;
pub mod denial;
pub mod detect;
pub mod ecfd;
pub mod engine;
pub mod fd;
pub mod implication;
pub mod ind;
mod interned;
pub mod pattern;
pub mod propagation;
pub mod reference;
pub mod stream;

/// Frequently used items.
pub mod prelude {
    pub use crate::analysis::{
        analyze_cfds, ensure_consistent, lint_cfds, AnalysisOptions, AnalysisStats, AnalyzedCfds,
        ImplicationResult, LintDiagnostic, LintSeverity, RuleLintReport,
    };
    pub use crate::axioms::{derive_cfds_once, derive_cinds_once, saturate_cfds};
    pub use crate::cfd::{Cfd, CfdViolation};
    pub use crate::cind::{Cind, CindPattern, CindViolation};
    pub use crate::consistency::{
        cfd_cind_consistent_bounded, cfd_set_consistent, cfd_set_consistent_propagation,
        cind_set_consistent, ecfd_set_consistent, ConsistencyResult, ConsistencyWitness,
    };
    pub use crate::denial::{DcPredicate, DcTerm, DenialConstraint};
    pub use crate::detect::{
        CfdViolationGroups, CfdViolationReport, CindViolationReport, EcfdViolationReport,
    };
    pub use crate::ecfd::{Ecfd, EcfdPattern, SetPattern};
    pub use crate::engine::{
        parallel_map, try_parallel_map, DetectionEngine, MaintainedCfdViolations,
    };
    pub use crate::fd::{attribute_closure, candidate_keys, fd_implies, minimal_cover, Fd};
    pub use crate::implication::{
        cfd_implies, cfd_implies_closure, cfd_implies_exact, cfd_minimal_cover, cind_implies_chase,
    };
    pub use crate::ind::{ind_implies, is_acyclic, Ind};
    pub use crate::pattern::{cst, wild, PatternTuple, PatternValue};
    pub use crate::propagation::{propagates, Propagation};
}

pub use prelude::*;
/// The reference CFD detector under its old name: the repository
/// benchmark's `clean-master-20k` oracle calls it here.
pub use reference::detect_cfd_violations;
