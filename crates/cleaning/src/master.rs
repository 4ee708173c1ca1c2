//! Master (reference) data and matching dirty tuples against it.
//!
//! Master data management (MDM) keeps a single, cleaned collection of the
//! enterprise's core records [30, 62].  Before a dirty tuple can be corrected
//! from the master, the master record describing the same real-world entity
//! has to be found — the object identification problem of Section 3.1, solved
//! here with the relative-key machinery of `dq-match`.

use dq_match::engine::MatchingEngine;
use dq_match::rck::RelativeKey;
use dq_relation::{IndexPool, RelationInstance, TupleId};
use std::sync::Arc;

/// A cleaned, trusted reference relation.
///
/// Master data is the fixed context every dirty instance is matched
/// against, so it owns the [`IndexPool`] matching runs on: the master's
/// indexes are built on the first [`match_against_master`] call and served
/// warm to every later one.  Clones share the pool.
#[derive(Clone, Debug)]
pub struct MasterData {
    instance: RelationInstance,
    pool: Arc<IndexPool>,
}

impl MasterData {
    /// Wraps a relation instance as master data.  The caller vouches for its
    /// cleanliness; [`crate::pipeline::CleaningPipeline`] treats its values
    /// as ground truth when fusing.
    pub fn new(instance: RelationInstance) -> Self {
        MasterData {
            instance,
            pool: Arc::new(IndexPool::new()),
        }
    }

    /// The underlying relation.
    pub fn instance(&self) -> &RelationInstance {
        &self.instance
    }

    /// Number of master records.
    pub fn len(&self) -> usize {
        self.instance.len()
    }

    /// Whether the master relation is empty.
    pub fn is_empty(&self) -> bool {
        self.instance.is_empty()
    }
}

/// A dirty tuple identified with a master record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MasterMatch {
    /// Tuple of the dirty relation.
    pub dirty: TupleId,
    /// The master record it refers to.
    pub master: TupleId,
}

/// Matches the dirty relation against the master using the given relative
/// keys as matching rules (Section 3.3), run on a fresh [`MatchingEngine`]
/// over the index pool the [`MasterData`] owns.  The master's indexes stay
/// in the pool for the next call; the dirty relation's are dropped before
/// returning, so nothing builds up across calls.  The engine's dictionary
/// translations, display forms and similarity memo are built per call.
///
/// When several master records match the same dirty tuple, the one with the
/// smallest master tuple id wins, whichever rule matched it; ambiguity of
/// this kind is reported via the second component of the result.
///
/// Returns the chosen matches and the number of dirty tuples that had more
/// than one master candidate.
pub fn match_against_master(
    dirty: &RelationInstance,
    master: &MasterData,
    rules: &[RelativeKey],
) -> (Vec<MasterMatch>, usize) {
    let _span = dq_relation::obs::span!("clean.match", rules = rules.len());
    let engine = MatchingEngine::new(Arc::clone(&master.pool));
    let result = engine.run(rules, dirty, master.instance());
    master.pool.invalidate(dirty);
    // The pairs come sorted by dirty tuple, then master tuple: each dirty
    // tuple's run starts with its smallest master candidate, and a run
    // longer than one is an ambiguous match.
    let mut matches: Vec<MasterMatch> = Vec::new();
    let mut ambiguous = 0usize;
    let mut run = 0usize;
    for &(dirty, master) in &result.matches {
        if matches.last().is_some_and(|m| m.dirty == dirty) {
            run += 1;
            if run == 2 {
                ambiguous += 1;
            }
        } else {
            matches.push(MasterMatch { dirty, master });
            run = 1;
        }
    }
    dq_relation::obs::add("clean.match.matches", matches.len() as u64);
    dq_relation::obs::add("clean.match.ambiguous", ambiguous as u64);
    (matches, ambiguous)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_gen::customer::customer_schema;
    use dq_gen::master::{generate_master_workload, MasterConfig};
    use dq_match::similarity::SimilarityOp;

    /// The matching rules for the master workload: same phone and similar
    /// name, or identical (name, zip).
    fn rules() -> Vec<RelativeKey> {
        let schema = customer_schema();
        vec![RelativeKey::new(
            &schema,
            &schema,
            vec![
                ("phn", "phn", SimilarityOp::Equality),
                ("name", "name", SimilarityOp::edit(12)),
            ],
            &["street", "city", "zip"],
            &["street", "city", "zip"],
        )
        .expect("well-formed relative key")]
    }

    #[test]
    fn matches_every_entity_despite_name_variants() {
        let w = generate_master_workload(&MasterConfig {
            entities: 200,
            error_rate: 0.2,
            name_variation_rate: 0.5,
            seed: 11,
        });
        let master = MasterData::new(w.master.clone());
        let (matches, ambiguous) = match_against_master(&w.dirty, &master, &rules());
        assert_eq!(
            ambiguous, 0,
            "phone numbers are unique, no ambiguity expected"
        );
        assert_eq!(matches.len(), 200, "every dirty record has a master record");
        for m in &matches {
            assert!(
                w.truth.contains(&(m.dirty, m.master)),
                "match {m:?} is not in the ground truth"
            );
        }
    }

    #[test]
    fn the_owned_pool_matches_like_a_fresh_one_and_does_not_grow() {
        use dq_relation::instance::CellRef;
        use dq_relation::Value;
        let w = generate_master_workload(&MasterConfig {
            entities: 120,
            error_rate: 0.2,
            name_variation_rate: 0.5,
            seed: 5,
        });
        let master = MasterData::new(w.master.clone());
        let phn = customer_schema().attr("phn");
        let mut entries = Vec::new();
        for call in 0..5 {
            // Each call sees a different dirty relation: one more phone
            // number scrambled than the call before.
            let mut dirty = w.dirty.clone();
            for id in dirty.ids().into_iter().take(call) {
                dirty
                    .update_cell(CellRef::new(id, phn), Value::int(-1 - call as i64))
                    .unwrap();
            }
            let fresh = MasterData::new(w.master.clone());
            assert_eq!(
                match_against_master(&dirty, &master, &rules()),
                match_against_master(&dirty, &fresh, &rules()),
                "call {call}"
            );
            entries.push(master.pool.stats().entries);
        }
        assert_eq!(entries[0], entries[4], "{entries:?}");
        assert!(
            master.pool.stats().hits > 0,
            "later calls reuse the master's indexes"
        );
    }

    #[test]
    fn empty_master_yields_no_matches() {
        let w = generate_master_workload(&MasterConfig {
            entities: 20,
            ..MasterConfig::default()
        });
        let master = MasterData::new(RelationInstance::new(customer_schema()));
        assert!(master.is_empty());
        let (matches, ambiguous) = match_against_master(&w.dirty, &master, &rules());
        assert!(matches.is_empty());
        assert_eq!(ambiguous, 0);
    }

    #[test]
    fn no_rules_means_no_matches() {
        let w = generate_master_workload(&MasterConfig {
            entities: 20,
            ..MasterConfig::default()
        });
        let master = MasterData::new(w.master.clone());
        let (matches, _) = match_against_master(&w.dirty, &master, &[]);
        assert!(matches.is_empty());
    }
}
