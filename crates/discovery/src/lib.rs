//! # dq-discovery
//!
//! Dependency discovery and data profiling.
//!
//! The paper's introduction argues that "inference systems, analysis
//! algorithms and *profiling methods* for dependencies have shown promise as
//! a systematic method for reasoning about the semantics of the data, and for
//! deducing and *discovering rules* for cleaning the data" (Section 1).  The
//! companion line of work the survey builds on (CFDs \[36\], CINDs \[20\])
//! assumes that a set of conditional dependencies is available; in practice
//! those dependencies are *profiled from data*.  This crate supplies that
//! missing substrate:
//!
//! * [`partition`] — stripped partitions (position-list indexes), partition
//!   products and the `g1`/`g3` error measures that underpin all
//!   partition-based dependency discovery;
//! * [`fd_discovery`] — level-wise (TANE-style) discovery of minimal
//!   functional dependencies and approximate FDs;
//! * [`cfd_discovery`] — discovery of constant CFDs (CFDMiner-style frequent
//!   closed patterns) and of pattern tableaux for embedded FDs that do not
//!   hold globally (CTANE-style conditioning);
//! * [`ind_discovery`] — unary/compound IND discovery across a database and
//!   CIND condition mining for INDs that hold only on a selection;
//! * [`md_discovery`] — learning matching rules (relative keys) from
//!   labelled match examples over a declared comparison space (Section 3.1's
//!   "discovered via learning" route);
//! * [`profile`] — per-column and per-relation profiling (distinct counts,
//!   inferred finite domains, key candidates) used to seed discovery;
//! * [`reference`](mod@reference) — the row-oriented CFD, IND and CIND miners the interned
//!   ones are held byte-identical to.  Only tests and the harness call them.
//!
//! Each miner has one production executor, on the interned columnar store:
//! groupings come from pooled dictionary-encoded indexes and independent
//! candidates fan out across a thread pool.
//!
//! Everything operates on the `dq-relation` substrate, so discovered
//! dependencies are ordinary [`dq_core::Cfd`] / [`dq_core::Cind`] values that
//! feed directly into detection ([`dq_core::detect`]), repair and the rest of
//! the cleaning stack.

pub mod cfd_discovery;
pub mod fd_discovery;
pub mod ind_discovery;
pub mod md_discovery;
pub mod partition;
pub mod profile;
pub mod reference;
pub mod source;

/// Frequently used items.
pub mod prelude {
    pub use crate::cfd_discovery::{
        discover_cfds, discover_constant_cfds, discover_tableau_for_fd, CfdDiscoveryConfig,
        DiscoveredCfds,
    };
    pub use crate::fd_discovery::{
        discover_fds, discover_fds_from_shards, discover_fds_with_pool, DiscoveredFds,
        FdDiscoveryConfig,
    };
    pub use crate::ind_discovery::{
        discover_cind_conditions, discover_inds, discover_inds_with_pool, DiscoveredInds,
        IndDiscoveryConfig,
    };
    pub use crate::md_discovery::{
        learn_relative_keys, LearnedRule, LearnedRuleSet, RuleLearningConfig,
    };
    pub use crate::partition::{
        g1_error, g3_error, g3_error_from_groups, PartitionProber, StrippedPartition,
    };
    pub use crate::profile::{
        profile_database, profile_relation, profile_relation_with, ColumnProfile, RelationProfile,
    };
    pub use crate::source::PartitionSource;
}

pub use prelude::*;
