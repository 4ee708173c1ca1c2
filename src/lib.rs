//! # dataquality
//!
//! A dependency-based data quality toolkit reproducing the framework of
//! Wenfei Fan, *"Dependencies Revisited for Improving Data Quality"*
//! (PODS 2008).
//!
//! The workspace implements, from scratch:
//!
//! * an in-memory typed **relational substrate** ([`relation`]): schemas with
//!   finite and infinite domains, instances, hash indexes, relational algebra
//!   and conjunctive queries;
//! * **conditional dependencies** ([`core`]): conditional functional
//!   dependencies (CFDs), conditional inclusion dependencies (CINDs), eCFDs
//!   with disjunction/inequality, denial constraints, and the traditional
//!   FDs/INDs they extend — together with violation detection and the static
//!   analyses of the paper (consistency, implication, finite axiomatization,
//!   dependency propagation through views);
//! * **matching dependencies** ([`matching`]): domain-specific similarity
//!   operators, MDs, relative (candidate) keys, the sound-and-complete
//!   inference system with its PTIME implication algorithm, and an object
//!   identification engine driven by derived RCKs;
//! * **inconsistency handling**: data repairing ([`repair`]), consistent
//!   query answering ([`cqa`]) and condensed representations of all repairs
//!   ([`repr`]);
//! * **dependency discovery and profiling** ([`discovery`]): stripped
//!   partitions, TANE-style FD discovery, constant/variable CFD tableau
//!   mining, IND/CIND condition discovery;
//! * **unified cleaning** ([`cleaning`]): master-data matching via relative
//!   candidate keys, fusion of master values, and CFD repair in one
//!   pipeline;
//! * **workload generators** ([`gen`]) for the paper's customer,
//!   order/book/CD and card/billing scenarios.
//!
//! ## Quickstart
//!
//! ```
//! use dataquality::prelude::*;
//!
//! // The customer schema of Fig. 1 and the CFDs of Fig. 2.
//! let schema = dq_gen::customer::customer_schema();
//! let d0 = dq_gen::customer::paper_instance();
//! let cfds = dq_gen::customer::paper_cfds();
//!
//! // Every tuple of D0 violates one of the CFDs, although D0 satisfies the
//! // embedded traditional FDs.  Detection runs on an engine that pools its
//! // indexes across calls.
//! let engine = DetectionEngine::new();
//! let violations = engine.detect_cfd_violations(&d0, &cfds);
//! assert_eq!(violations.violating_tuples().len(), 3);
//! assert!(dq_gen::customer::paper_fds().iter().all(|fd| fd.holds_on(&d0)));
//! ```
//!
//! See `examples/` for end-to-end cleaning, integration and record-matching
//! scenarios, `crates/bench` for the paper walkthrough (the `harness`
//! binary), and `crates/bench/src/bin/dqbench` for the repository benchmark.

pub use dq_cleaning as cleaning;
pub use dq_core as core;
pub use dq_cqa as cqa;
pub use dq_discovery as discovery;
pub use dq_gen as gen;
pub use dq_match as matching;
pub use dq_relation as relation;
pub use dq_repair as repair;
pub use dq_repr as repr;

/// Convenience prelude re-exporting the most frequently used items of every
/// sub-crate.
pub mod prelude {
    pub use dq_cleaning::prelude::*;
    pub use dq_core::prelude::*;
    pub use dq_cqa::prelude::*;
    pub use dq_discovery::prelude::*;
    pub use dq_gen as gen_crate;
    pub use dq_match::prelude::*;
    pub use dq_relation::prelude::*;
    pub use dq_repair::prelude::*;
    pub use dq_repr::prelude::*;
    pub use {
        dq_cleaning, dq_core, dq_cqa, dq_discovery, dq_gen, dq_match, dq_relation, dq_repair,
        dq_repr,
    };
}
