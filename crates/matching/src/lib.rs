//! # dq-match
//!
//! Matching dependencies and dependency-based object identification
//! (Sections 3 and 4.2 of Fan, PODS 2008).
//!
//! * [`similarity`] — the domain-specific similarity operators of `Θ`
//!   (edit distance, Jaro, Jaro–Winkler, q-grams, thresholds, containment);
//! * [`md`] — matching dependencies over pairs of relations, with similarity
//!   or `⇋` premises and conclusions;
//! * [`infer`] — the sound-and-complete inference closure and the PTIME
//!   implication algorithm (Theorem 4.8);
//! * [`rck`] — relative keys, the `≤` ordering, relative candidate keys and
//!   their derivation from MD sets;
//! * [`matcher`] — object identification: (derived) RCKs as matching
//!   rules, run on the matching engine and scored by precision/recall;
//! * [`simcache`] — dictionary-level similarity artifacts: cached display
//!   forms, cross-dictionary equality translation and a lock-striped memo
//!   cache of similarity verdicts keyed by value-id pairs;
//! * [`block`] — candidate generation over the dictionaries (q-gram
//!   inverted index, length windows, sorted neighborhood);
//! * [`engine`] — the interned matching engine, the one executor of rules
//!   and MD checks: blocked, parallel evaluation over the columnar store;
//! * [`reference`] — the row-at-a-time rule and MD evaluators the engine is
//!   held byte-identical to.  Only tests, the harness and the benches call
//!   them.

pub mod block;
pub mod engine;
pub mod infer;
pub mod matcher;
pub mod md;
pub mod paper;
pub mod rck;
pub mod reference;
pub mod simcache;
pub mod similarity;

/// Frequently used items.
pub mod prelude {
    pub use crate::engine::{MatchingEngine, MatchingEngineStats};
    pub use crate::infer::{
        close, derivable_matches, md_implies, md_minimal_cover, Fact, FactBase,
    };
    pub use crate::matcher::{score, MatchClusters, MatchQuality, MatchResult, Matcher};
    pub use crate::md::{MatchOp, MatchingDependency, MdPremise};
    pub use crate::paper::example_3_1_mds;
    pub use crate::rck::{derive_rcks, ComparisonSpace, RelativeKey};
    pub use crate::simcache::{
        DisplayColumn, EqTranslation, SimilarityCache, SimilarityCacheStats,
    };
    pub use crate::similarity::{
        jaro, jaro_winkler, normalized_edit_similarity, qgram_similarity, SimilarityKernel,
        SimilarityOp,
    };
}

pub use prelude::*;
