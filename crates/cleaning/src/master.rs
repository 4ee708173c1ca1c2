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
use std::collections::BTreeMap;
use std::sync::Arc;

/// A cleaned, trusted reference relation.
#[derive(Clone, Debug)]
pub struct MasterData {
    instance: RelationInstance,
}

impl MasterData {
    /// Wraps a relation instance as master data.  The caller vouches for its
    /// cleanliness; [`crate::pipeline::CleaningPipeline`] treats its values
    /// as ground truth when fusing.
    pub fn new(instance: RelationInstance) -> Self {
        MasterData { instance }
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
/// keys as matching rules (Section 3.3), run on a [`MatchingEngine`] over a
/// fresh index pool.
///
/// When several master records match the same dirty tuple, the one matched by
/// the earliest rule (and, within a rule, the smallest master tuple id) wins;
/// ambiguity of this kind is reported via the second component of the result.
///
/// Returns the chosen matches and the number of dirty tuples that had more
/// than one master candidate.
pub fn match_against_master(
    dirty: &RelationInstance,
    master: &MasterData,
    rules: &[RelativeKey],
) -> (Vec<MasterMatch>, usize) {
    let engine = MatchingEngine::new(Arc::new(IndexPool::new()));
    let result = engine.run(rules, dirty, master.instance());
    let mut per_dirty: BTreeMap<TupleId, Vec<TupleId>> = BTreeMap::new();
    for &(dirty_id, master_id) in &result.matches {
        per_dirty.entry(dirty_id).or_default().push(master_id);
    }
    let ambiguous = per_dirty.values().filter(|c| c.len() > 1).count();
    let matches = per_dirty
        .into_iter()
        .map(|(dirty_id, mut candidates)| {
            candidates.sort();
            MasterMatch {
                dirty: dirty_id,
                master: candidates[0],
            }
        })
        .collect();
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
