//! Learning matching rules (relative keys) from labelled examples.
//!
//! Section 3.1 notes that matching rules are "either specified by human
//! experts or discovered via learning \[48\]".  This module implements the
//! learning side for the rule language of Section 3.2: given two relations,
//! a set of ground-truth matches, and a comparison space (which attribute
//! pairs the deployment can compare, and with which similarity operators),
//! it searches for relative keys that are precise on the labelled data and
//! greedily assembles a small rule set that maximises recall — the
//! dependency-shaped counterpart of learned comparison vectors.
//!
//! [`candidate_keys`] enumerates the search space; [`learn_relative_keys`]
//! runs every candidate on one [`MatchingEngine`], so display forms,
//! equality translations and memoized similarity verdicts built for one
//! candidate serve all later ones.

use dq_match::engine::MatchingEngine;
use dq_match::matcher::{score, MatchQuality};
use dq_match::rck::{ComparisonSpace, RelativeKey};
use dq_match::similarity::SimilarityOp;
use dq_relation::{RelationInstance, RelationSchema, TupleId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Configuration of rule learning.
#[derive(Clone, Debug)]
pub struct RuleLearningConfig {
    /// Maximum number of comparisons per rule.
    pub max_length: usize,
    /// Minimum precision (on the labelled data) for a candidate rule to be
    /// admitted.
    pub min_precision: f64,
    /// Stop adding rules once combined recall reaches this level.
    pub target_recall: f64,
    /// Upper bound on the number of rules returned.
    pub max_rules: usize,
}

impl Default for RuleLearningConfig {
    fn default() -> Self {
        RuleLearningConfig {
            max_length: 2,
            min_precision: 0.95,
            target_recall: 0.99,
            max_rules: 4,
        }
    }
}

/// A learned rule with its individual quality on the labelled data.
#[derive(Clone, Debug)]
pub struct LearnedRule {
    /// The relative key.
    pub key: RelativeKey,
    /// Precision/recall/F1 of the rule on its own.
    pub quality: MatchQuality,
}

/// The outcome of rule learning.
#[derive(Clone, Debug)]
pub struct LearnedRuleSet {
    /// The selected rules, in the order they were added by the greedy cover.
    pub rules: Vec<LearnedRule>,
    /// Quality of the whole rule set (union of the matches of its rules).
    pub combined: MatchQuality,
    /// Number of candidate rules evaluated.
    pub candidates_evaluated: usize,
}

impl LearnedRuleSet {
    /// The bare relative keys, ready to hand to a
    /// [`Matcher`](dq_match::matcher::Matcher).
    pub fn keys(&self) -> Vec<RelativeKey> {
        self.rules.iter().map(|r| r.key.clone()).collect()
    }
}

/// The candidate rules of a comparison space: every choice of up to
/// `max_length` space entries (at least one) with one operator per entry,
/// concluding `target_left ⇋ target_right`.  Choices that do not form a
/// well-formed relative key are skipped.
pub fn candidate_keys(
    lhs_schema: &Arc<RelationSchema>,
    rhs_schema: &Arc<RelationSchema>,
    space: &[ComparisonSpace],
    target_left: &[&str],
    target_right: &[&str],
    max_length: usize,
) -> Vec<RelativeKey> {
    let mut candidates: Vec<RelativeKey> = Vec::new();
    let entry_count = space.len();
    let max_len = max_length.min(entry_count).max(1);
    for len in 1..=max_len {
        for combo in combinations(entry_count, len) {
            let mut operator_choices: Vec<Vec<(usize, SimilarityOp)>> = vec![Vec::new()];
            for &entry_idx in &combo {
                let mut next = Vec::new();
                for op in &space[entry_idx].operators {
                    for partial in &operator_choices {
                        let mut extended = partial.clone();
                        extended.push((entry_idx, op.clone()));
                        next.push(extended);
                    }
                }
                operator_choices = next;
            }
            for choice in operator_choices {
                let comparisons: Vec<(&str, &str, SimilarityOp)> = choice
                    .iter()
                    .map(|(idx, op)| {
                        (
                            space[*idx].left.as_str(),
                            space[*idx].right.as_str(),
                            op.clone(),
                        )
                    })
                    .collect();
                if let Ok(key) = RelativeKey::new(
                    lhs_schema,
                    rhs_schema,
                    comparisons,
                    target_left,
                    target_right,
                ) {
                    candidates.push(key);
                }
            }
        }
    }
    candidates
}

/// Learns a set of relative keys for `(target_left, target_right)` from
/// labelled matches.
///
/// The candidates are [`candidate_keys`] with
/// [`RuleLearningConfig::max_length`].  Each candidate is run on `engine`
/// as the sole matching rule and scored against `truth`; candidates below
/// the precision floor are discarded, and the remainder are added greedily
/// — most new true matches first — until the target recall (or the rule
/// budget) is reached.
#[allow(clippy::too_many_arguments)]
pub fn learn_relative_keys(
    d1: &RelationInstance,
    d2: &RelationInstance,
    truth: &BTreeSet<(TupleId, TupleId)>,
    space: &[ComparisonSpace],
    target_left: &[&str],
    target_right: &[&str],
    config: &RuleLearningConfig,
    engine: &MatchingEngine,
) -> LearnedRuleSet {
    let candidates = candidate_keys(
        d1.schema(),
        d2.schema(),
        space,
        target_left,
        target_right,
        config.max_length,
    );

    // Score every candidate on its own.
    type Scored = (RelativeKey, MatchQuality, BTreeSet<(TupleId, TupleId)>);
    let mut scored: Vec<Scored> = Vec::new();
    let candidates_evaluated = candidates.len();
    for key in candidates {
        let matches = engine.run(std::slice::from_ref(&key), d1, d2).matches;
        let quality = score(&matches, truth);
        if quality.precision >= config.min_precision && !matches.is_empty() {
            scored.push((key, quality, matches));
        }
    }

    // Greedy cover: repeatedly add the rule contributing the most new true
    // matches (ties broken towards higher precision).
    let mut selected: Vec<LearnedRule> = Vec::new();
    let mut covered: BTreeSet<(TupleId, TupleId)> = BTreeSet::new();
    let mut predicted: BTreeSet<(TupleId, TupleId)> = BTreeSet::new();
    while selected.len() < config.max_rules {
        let recall = if truth.is_empty() {
            1.0
        } else {
            covered.len() as f64 / truth.len() as f64
        };
        if recall >= config.target_recall {
            break;
        }
        let best = scored
            .iter()
            .enumerate()
            .map(|(i, (_, quality, matches))| {
                let new_true = matches
                    .intersection(truth)
                    .filter(|m| !covered.contains(m))
                    .count();
                (i, new_true, quality.precision)
            })
            .filter(|(_, new_true, _)| *new_true > 0)
            .max_by(|a, b| {
                a.1.cmp(&b.1)
                    .then(a.2.partial_cmp(&b.2).expect("finite precision"))
            });
        let Some((idx, _, _)) = best else { break };
        let (key, quality, matches) = scored.swap_remove(idx);
        covered.extend(matches.intersection(truth).cloned());
        predicted.extend(matches.iter().cloned());
        selected.push(LearnedRule { key, quality });
    }

    let combined = score(&predicted, truth);
    LearnedRuleSet {
        rules: selected,
        combined,
        candidates_evaluated,
    }
}

/// All `len`-element subsets of `0..n`.
fn combinations(n: usize, len: usize) -> Vec<Vec<usize>> {
    crate::fd_discovery::subsets_of_size(&(0..n).collect::<Vec<_>>(), len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_gen::cards::{generate_cards, CardConfig};
    use dq_match::matcher::Matcher;
    use dq_relation::IndexPool;

    fn engine() -> MatchingEngine {
        MatchingEngine::new(Arc::new(IndexPool::new()))
    }

    fn comparison_space() -> Vec<ComparisonSpace> {
        vec![
            ComparisonSpace::new("LN", "SN", vec![SimilarityOp::Equality]),
            ComparisonSpace::new(
                "FN",
                "FN",
                vec![SimilarityOp::Equality, SimilarityOp::edit(3)],
            ),
            ComparisonSpace::new("tel", "phn", vec![SimilarityOp::Equality]),
            ComparisonSpace::new("email", "email", vec![SimilarityOp::Equality]),
            ComparisonSpace::new("addr", "post", vec![SimilarityOp::Equality]),
        ]
    }

    const YC: [&str; 5] = ["FN", "LN", "addr", "tel", "email"];
    const YB: [&str; 5] = ["FN", "SN", "post", "phn", "email"];

    fn workload() -> dq_gen::cards::CardWorkload {
        generate_cards(&CardConfig {
            holders: 250,
            billing_rate: 0.8,
            abbreviate_rate: 0.4,
            phone_change_rate: 0.3,
            email_change_rate: 0.3,
            distractors: 30,
            seed: 19,
        })
    }

    #[test]
    fn learned_rules_are_precise_and_cover_the_truth() {
        let w = workload();
        let learned = learn_relative_keys(
            &w.card,
            &w.billing,
            &w.truth,
            &comparison_space(),
            &YC,
            &YB,
            &RuleLearningConfig::default(),
            &engine(),
        );
        assert!(learned.candidates_evaluated > 5);
        assert!(!learned.rules.is_empty());
        for rule in &learned.rules {
            assert!(
                rule.quality.precision >= 0.95,
                "admitted rule below the precision floor: {:?}",
                rule.quality
            );
        }
        assert!(
            learned.combined.recall > 0.8,
            "the greedy cover should recover most true matches, got {:?}",
            learned.combined
        );
        assert!(learned.combined.precision >= 0.95);
    }

    #[test]
    fn learned_rule_set_beats_any_single_equality_rule() {
        let w = workload();
        let learned = learn_relative_keys(
            &w.card,
            &w.billing,
            &w.truth,
            &comparison_space(),
            &YC,
            &YB,
            &RuleLearningConfig::default(),
            &engine(),
        );
        // Baseline: exact equality on (LN, FN) only.
        let schema_l = w.card.schema();
        let schema_r = w.billing.schema();
        let baseline = RelativeKey::new(
            schema_l,
            schema_r,
            vec![
                ("LN", "SN", SimilarityOp::Equality),
                ("FN", "FN", SimilarityOp::Equality),
            ],
            &YC,
            &YB,
        )
        .unwrap();
        let baseline_result = Matcher::new(vec![baseline]).run(&engine(), &w.card, &w.billing);
        let baseline_quality = score(&baseline_result.matches, &w.truth);
        assert!(
            learned.combined.f1 >= baseline_quality.f1,
            "learned {:?} vs baseline {:?}",
            learned.combined,
            baseline_quality
        );
    }

    #[test]
    fn empty_truth_or_space_is_handled() {
        let w = workload();
        let empty_truth = BTreeSet::new();
        let learned = learn_relative_keys(
            &w.card,
            &w.billing,
            &empty_truth,
            &comparison_space(),
            &YC,
            &YB,
            &RuleLearningConfig::default(),
            &engine(),
        );
        assert!(learned.rules.is_empty(), "no truth, nothing to cover");
        let no_space = learn_relative_keys(
            &w.card,
            &w.billing,
            &w.truth,
            &[],
            &YC,
            &YB,
            &RuleLearningConfig::default(),
            &engine(),
        );
        assert!(no_space.rules.is_empty());
        assert_eq!(no_space.candidates_evaluated, 0);
    }

    #[test]
    fn learning_scores_every_candidate_key_on_one_engine() {
        let w = workload();
        let space = comparison_space();
        let keys = candidate_keys(w.card.schema(), w.billing.schema(), &space, &YC, &YB, 2);
        // Five single entries (FN with two operators: 6 keys), six pairs
        // without FN and four with it, each of those with two operators.
        assert_eq!(keys.len(), 6 + 6 + 4 * 2);
        let engine = engine();
        let learned = learn_relative_keys(
            &w.card,
            &w.billing,
            &w.truth,
            &space,
            &YC,
            &YB,
            &RuleLearningConfig::default(),
            &engine,
        );
        assert_eq!(learned.candidates_evaluated, keys.len());
        // The engine memoized similarity work across candidates.
        assert!(engine.stats().cache.hits > 0);
    }

    #[test]
    fn rule_budget_is_respected() {
        let w = workload();
        let learned = learn_relative_keys(
            &w.card,
            &w.billing,
            &w.truth,
            &comparison_space(),
            &YC,
            &YB,
            &RuleLearningConfig {
                max_rules: 1,
                ..RuleLearningConfig::default()
            },
            &engine(),
        );
        assert!(learned.rules.len() <= 1);
    }
}
