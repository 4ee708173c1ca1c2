//! Row-at-a-time reference evaluators: the test oracle for
//! [`MatchingEngine`](crate::engine::MatchingEngine).
//!
//! These are the textbook nested loops over [`Tuple`](dq_relation::Tuple)s
//! and [`Value`](dq_relation::Value)s — one similarity call per tuple pair,
//! no dictionaries, no memoization, no metric blocking.  Library code never
//! calls them; the equivalence suites, the harness and the criterion
//! benches do, to hold the engine byte-identical to the definitions of
//! Sections 3.2–3.3.

use crate::matcher::MatchResult;
use crate::md::{MatchOp, MatchingDependency};
use crate::rck::RelativeKey;
use crate::similarity::SimilarityOp;
use dq_relation::reference::HashIndex;
use dq_relation::{RelationInstance, Tuple, TupleId};

/// Runs matching rules pair by pair.  A rule with equality premises only
/// compares the pairs that agree on them (a [`HashIndex`] over `d2`);
/// a rule without any compares every pair.  A pair matches under the first
/// rule whose premise holds; `rule_hits` records that rule per new match.
pub fn run_rules(
    rules: &[RelativeKey],
    d1: &RelationInstance,
    d2: &RelationInstance,
) -> MatchResult {
    let mut result = MatchResult::default();
    for (rule_idx, rule) in rules.iter().enumerate() {
        let md = rule.md();
        let (left_attrs, right_attrs): (Vec<usize>, Vec<usize>) = md
            .premises()
            .iter()
            .filter(|p| matches!(p.op, MatchOp::Similarity(SimilarityOp::Equality)))
            .map(|p| (p.left, p.right))
            .unzip();
        let mut compare = |id1: TupleId, t1: &Tuple, id2: TupleId, t2: &Tuple| {
            result.comparisons += 1;
            if md.premise_holds(t1, t2) && result.matches.insert((id1, id2)) {
                result.rule_hits.push(rule_idx);
            }
        };
        if right_attrs.is_empty() {
            for (id1, t1) in d1.iter() {
                for (id2, t2) in d2.iter() {
                    compare(id1, t1, id2, t2);
                }
            }
        } else {
            let index = HashIndex::build(d2, &right_attrs);
            for (id1, t1) in d1.iter() {
                for &id2 in index.get(&t1.project(&left_attrs)) {
                    compare(id1, t1, id2, d2.tuple(id2).expect("live tuple"));
                }
            }
        }
    }
    result
}

/// The pairs violating `md` under the supplied interpretation of `⇋`, by a
/// scan of the full cross product in ascending `(d1, d2)` tuple order: the
/// premise holds but the conclusion — the oracle for `⇋`, the metric on the
/// data for a similarity conclusion — fails.
pub fn md_violations(
    md: &MatchingDependency,
    d1: &RelationInstance,
    d2: &RelationInstance,
    matches: &dyn Fn(TupleId, TupleId) -> bool,
) -> Vec<(TupleId, TupleId)> {
    let mut out = Vec::new();
    for (id1, t1) in d1.iter() {
        for (id2, t2) in d2.iter() {
            if !md.premise_holds(t1, t2) {
                continue;
            }
            let ok = match md.conclusion_op() {
                MatchOp::Matching => matches(id1, id2),
                MatchOp::Similarity(op) => md
                    .conclusion_left()
                    .iter()
                    .zip(md.conclusion_right())
                    .all(|(&a, &b)| op.related(t1.get(a), t2.get(b))),
            };
            if !ok {
                out.push((id1, id2));
            }
        }
    }
    out
}
