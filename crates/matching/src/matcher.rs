//! Object identification driven by matching rules (Sections 3.1, 3.3).
//!
//! Given two instances, a set of *matching rules* (relative keys, either
//! specified by experts or derived from MDs via [`crate::rck::derive_rcks`])
//! decides which tuple pairs refer to the same real-world entity: a pair
//! matches as soon as *some* rule's comparisons all hold on the source data.
//! A [`Matcher`] holds the rules; [`Matcher::run`] executes them on a
//! [`MatchingEngine`] — the one matching executor, which blocks losslessly
//! and counts the comparisons it performs (the efficiency metric of
//! Section 4.2) — and [`Matcher::evaluate`] scores the output against a
//! ground-truth match set (precision / recall / F1 — the quality metric).
//! The row-at-a-time loop the engine is held to lives in
//! [`crate::reference`].

use crate::engine::MatchingEngine;
use crate::rck::RelativeKey;
use dq_relation::{RelationInstance, TupleId};
use std::collections::BTreeSet;

/// The outcome of running the matcher.
#[derive(Clone, Debug, Default)]
pub struct MatchResult {
    /// Matched pairs `(R1 tuple, R2 tuple)`.
    pub matches: BTreeSet<(TupleId, TupleId)>,
    /// Number of tuple-pair comparisons performed (after blocking).
    pub comparisons: usize,
    /// Which rule (index) produced each match first.
    pub rule_hits: Vec<usize>,
}

impl MatchResult {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// Did the matcher find no pairs?
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }
}

/// Quality of a match result against ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchQuality {
    /// Fraction of reported matches that are true matches.
    pub precision: f64,
    /// Fraction of true matches that were reported.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// Scores a set of predicted matches against the ground truth.
pub fn score(
    predicted: &BTreeSet<(TupleId, TupleId)>,
    truth: &BTreeSet<(TupleId, TupleId)>,
) -> MatchQuality {
    let tp = predicted.intersection(truth).count() as f64;
    let precision = if predicted.is_empty() {
        1.0
    } else {
        tp / predicted.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        tp / truth.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    MatchQuality {
        precision,
        recall,
        f1,
    }
}

/// A set of matching rules.
#[derive(Clone, Debug)]
pub struct Matcher {
    rules: Vec<RelativeKey>,
}

impl Matcher {
    /// Creates a matcher from matching rules (relative keys).
    pub fn new(rules: Vec<RelativeKey>) -> Self {
        Matcher { rules }
    }

    /// The rules the matcher applies.
    pub fn rules(&self) -> &[RelativeKey] {
        &self.rules
    }

    /// Runs the rules over a pair of instances on `engine`: rules in order,
    /// a pair credited to the first rule that matches it.  `comparisons`
    /// counts the tuple-pair verifications the engine performed after
    /// blocking.
    pub fn run(
        &self,
        engine: &MatchingEngine,
        d1: &RelationInstance,
        d2: &RelationInstance,
    ) -> MatchResult {
        engine.run(&self.rules, d1, d2)
    }

    /// [`Matcher::run`] plus ground-truth scoring.
    pub fn evaluate(
        &self,
        engine: &MatchingEngine,
        d1: &RelationInstance,
        d2: &RelationInstance,
        truth: &BTreeSet<(TupleId, TupleId)>,
    ) -> (MatchResult, MatchQuality) {
        let result = self.run(engine, d1, d2);
        let quality = score(&result.matches, truth);
        (result, quality)
    }
}

/// Union–find over tuple identities, used to close the matching operator
/// transitively (the `⇋` transitivity axiom) when clustering records that
/// refer to the same entity across both sources.
#[derive(Clone, Debug)]
pub struct MatchClusters {
    parent: Vec<usize>,
    left_count: usize,
}

impl MatchClusters {
    /// Creates clusters for `left_count` R1 tuples and `right_count` R2
    /// tuples (each initially in its own cluster).
    pub fn new(left_count: usize, right_count: usize) -> Self {
        MatchClusters {
            parent: (0..left_count + right_count).collect(),
            left_count,
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Records a match between an R1 tuple and an R2 tuple.
    pub fn add_match(&mut self, left: TupleId, right: TupleId) {
        let a = left.0;
        let b = self.left_count + right.0;
        self.union(a, b);
    }

    /// Are the two tuples (one from each side) in the same cluster, directly
    /// or through transitivity?
    pub fn same_entity(&mut self, left: TupleId, right: TupleId) -> bool {
        let a = left.0;
        let b = self.left_count + right.0;
        self.find(a) == self.find(b)
    }

    /// Number of clusters containing at least one matched pair... more
    /// precisely, the number of distinct clusters over all elements.
    pub fn cluster_count(&mut self) -> usize {
        let n = self.parent.len();
        let roots: BTreeSet<usize> = (0..n).map(|i| self.find(i)).collect();
        roots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::fixtures::{billing_schema, card_schema};
    use crate::similarity::SimilarityOp;
    use dq_relation::{IndexPool, Value};
    use std::sync::Arc;

    const YC: [&str; 5] = ["FN", "LN", "addr", "tel", "email"];
    const YB: [&str; 5] = ["FN", "SN", "post", "phn", "email"];

    fn card_row(fn_: &str, ln: &str, addr: &str, tel: &str, email: &str) -> Vec<Value> {
        vec![
            Value::str("c"),
            Value::str("ssn"),
            Value::str(fn_),
            Value::str(ln),
            Value::str(addr),
            Value::str(tel),
            Value::str(email),
            Value::str("visa"),
        ]
    }

    fn billing_row(fn_: &str, sn: &str, post: &str, phn: &str, email: &str) -> Vec<Value> {
        vec![
            Value::str("c"),
            Value::str(fn_),
            Value::str(sn),
            Value::str(post),
            Value::str(phn),
            Value::str(email),
            Value::str("item"),
            Value::real(1.0),
        ]
    }

    fn instances() -> (RelationInstance, RelationInstance) {
        let mut d1 = RelationInstance::new(card_schema());
        let mut d2 = RelationInstance::new(billing_schema());
        // Three card holders.
        for row in [
            card_row("John", "Smith", "10 Main St", "555-1234", "js@x.org"),
            card_row("Mary", "Jones", "5 Oak Ave", "555-2222", "mj@x.org"),
            card_row("Bob", "Lee", "7 Pine Rd", "555-3333", "bl@x.org"),
        ] {
            d1.insert(dq_relation::Tuple::new(row)).unwrap();
        }
        // Billing records: t0 matches card t0 (abbreviated first name), t1
        // matches card t1 (same email/address), t2 matches nobody.
        for row in [
            billing_row("Jon", "Smith", "10 Main St", "555-9999", "other@x.org"),
            billing_row("Mary", "Jones", "5 Oak Ave", "555-2222", "mj@x.org"),
            billing_row("Zoe", "Adams", "1 Elm St", "555-7777", "za@x.org"),
        ] {
            d2.insert(dq_relation::Tuple::new(row)).unwrap();
        }
        (d1, d2)
    }

    fn truth() -> BTreeSet<(TupleId, TupleId)> {
        [(TupleId(0), TupleId(0)), (TupleId(1), TupleId(1))]
            .into_iter()
            .collect()
    }

    fn engine() -> MatchingEngine {
        MatchingEngine::new(Arc::new(IndexPool::new()))
    }

    fn rck1() -> RelativeKey {
        RelativeKey::new(
            &card_schema(),
            &billing_schema(),
            vec![
                ("email", "email", SimilarityOp::Equality),
                ("addr", "post", SimilarityOp::Equality),
            ],
            &YC,
            &YB,
        )
        .unwrap()
    }

    fn rck3() -> RelativeKey {
        RelativeKey::new(
            &card_schema(),
            &billing_schema(),
            vec![
                ("LN", "SN", SimilarityOp::Equality),
                ("addr", "post", SimilarityOp::Equality),
                ("FN", "FN", SimilarityOp::edit(3)),
            ],
            &YC,
            &YB,
        )
        .unwrap()
    }

    #[test]
    fn a_single_strict_rule_finds_only_exact_matches() {
        let (d1, d2) = instances();
        let matcher = Matcher::new(vec![rck1()]);
        let (result, quality) = matcher.evaluate(&engine(), &d1, &d2, &truth());
        // Only the Mary Jones pair agrees on email and address exactly.
        assert_eq!(result.len(), 1);
        assert!(result.matches.contains(&(TupleId(1), TupleId(1))));
        assert_eq!(quality.precision, 1.0);
        assert_eq!(quality.recall, 0.5);
    }

    #[test]
    fn adding_the_derived_edit_distance_rule_improves_recall() {
        let (d1, d2) = instances();
        let strict = Matcher::new(vec![rck1()]);
        let (_, q_strict) = strict.evaluate(&engine(), &d1, &d2, &truth());
        let both = Matcher::new(vec![rck1(), rck3()]);
        let (result, q_both) = both.evaluate(&engine(), &d1, &d2, &truth());
        assert!(q_both.recall > q_strict.recall);
        assert_eq!(q_both.recall, 1.0);
        assert_eq!(q_both.precision, 1.0);
        assert_eq!(result.len(), 2);
        // John Smith / Jon Smith is caught by the edit-distance rule.
        assert!(result.matches.contains(&(TupleId(0), TupleId(0))));
    }

    #[test]
    fn scoring_edge_cases() {
        let empty: BTreeSet<(TupleId, TupleId)> = BTreeSet::new();
        let some: BTreeSet<(TupleId, TupleId)> = [(TupleId(0), TupleId(0))].into_iter().collect();
        let q = score(&empty, &empty);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        let q = score(&empty, &some);
        assert_eq!(q.recall, 0.0);
        let q = score(&some, &empty);
        assert_eq!(q.f1, 0.0);
    }

    #[test]
    fn clusters_close_matches_transitively() {
        let mut clusters = MatchClusters::new(3, 3);
        clusters.add_match(TupleId(0), TupleId(1));
        clusters.add_match(TupleId(2), TupleId(1));
        // 0 and 2 now refer to the same entity through billing tuple 1.
        assert!(clusters.same_entity(TupleId(0), TupleId(1)));
        assert!(clusters.same_entity(TupleId(2), TupleId(1)));
        // Billing tuple 2 was never matched, so it stays a cluster of its own.
        assert!(!clusters.same_entity(TupleId(0), TupleId(2)));
        // 6 elements, 3 of them merged into one cluster: 4 clusters remain.
        assert_eq!(clusters.cluster_count(), 4);
    }
}
