//! Range-consistent answers for aggregation queries under key violations.
//!
//! Section 5.2's remark points to the line of work on "scalar aggregation in
//! inconsistent databases" \[8\]: for an aggregation query a single certain
//! value rarely exists, so the consistent answer is reported as the *range*
//! `[glb, lub]` the aggregate takes over all repairs.  For a relation whose
//! only constraint is a key, the repairs are exactly the choices of one tuple
//! per key group, which makes the bounds computable greedily, one group at a
//! time — no repair enumeration needed.

use dq_relation::{RelationInstance, Value};
use std::collections::BTreeMap;

/// The supported aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateFn {
    /// Number of tuples.
    Count,
    /// Sum of a numeric attribute.
    Sum,
    /// Minimum of an attribute.
    Min,
    /// Maximum of an attribute.
    Max,
}

/// The `[glb, lub]` range an aggregate takes over all repairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggregateRange {
    /// Greatest lower bound over all repairs.
    pub lower: f64,
    /// Least upper bound over all repairs.
    pub upper: f64,
}

impl AggregateRange {
    /// Whether the aggregate has the same value in every repair (the range
    /// collapses to a point), i.e. a certain answer exists.
    pub fn is_certain(&self) -> bool {
        (self.upper - self.lower).abs() < 1e-9
    }

    /// Whether a value lies within the range (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower - 1e-9 && value <= self.upper + 1e-9
    }
}

/// Numeric view of a value for aggregation (integers and reals only).
fn numeric(value: &Value) -> Option<f64> {
    value.as_int().map(|i| i as f64).or_else(|| value.as_real())
}

/// Evaluates an aggregate on a single (consistent) instance.  `attr` is
/// ignored for `Count`.
pub fn aggregate_on(instance: &RelationInstance, agg: AggregateFn, attr: usize) -> f64 {
    match agg {
        AggregateFn::Count => instance.len() as f64,
        AggregateFn::Sum => instance
            .iter()
            .filter_map(|(_, t)| numeric(t.get(attr)))
            .sum(),
        AggregateFn::Min => instance
            .iter()
            .filter_map(|(_, t)| numeric(t.get(attr)))
            .fold(f64::INFINITY, f64::min),
        AggregateFn::Max => instance
            .iter()
            .filter_map(|(_, t)| numeric(t.get(attr)))
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Computes the range-consistent answer of `agg(attr)` on `instance` under
/// the key `key_attrs`: the `[glb, lub]` the aggregate takes over all repairs
/// that keep exactly one tuple per key-equal group.
///
/// Tuples whose aggregated attribute is non-numeric contribute `0` to `Sum`
/// and are ignored by `Min`/`Max`, mirroring [`aggregate_on`].
pub fn range_consistent_aggregate(
    instance: &RelationInstance,
    key_attrs: &[usize],
    agg: AggregateFn,
    attr: usize,
) -> AggregateRange {
    // Group tuples by their key value; each repair keeps one per group.
    let mut groups: BTreeMap<Vec<Value>, Vec<f64>> = BTreeMap::new();
    for (_, tuple) in instance.iter() {
        groups
            .entry(tuple.project(key_attrs))
            .or_default()
            .push(numeric(tuple.get(attr)).unwrap_or(0.0));
    }
    if groups.is_empty() {
        let neutral = match agg {
            AggregateFn::Count | AggregateFn::Sum => 0.0,
            AggregateFn::Min => f64::INFINITY,
            AggregateFn::Max => f64::NEG_INFINITY,
        };
        return AggregateRange {
            lower: neutral,
            upper: neutral,
        };
    }

    let group_min = |vals: &Vec<f64>| vals.iter().copied().fold(f64::INFINITY, f64::min);
    let group_max = |vals: &Vec<f64>| vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);

    match agg {
        // Every repair keeps exactly one tuple per group.
        AggregateFn::Count => AggregateRange {
            lower: groups.len() as f64,
            upper: groups.len() as f64,
        },
        // Sum is minimised (maximised) by picking the smallest (largest)
        // contribution of every group independently.
        AggregateFn::Sum => AggregateRange {
            lower: groups.values().map(group_min).sum(),
            upper: groups.values().map(group_max).sum(),
        },
        // The least possible minimum picks the globally smallest value (its
        // group cannot avoid offering something ≥ it); the greatest possible
        // minimum maximises every group's contribution and then takes the
        // smallest of those.
        AggregateFn::Min => AggregateRange {
            lower: groups.values().map(group_min).fold(f64::INFINITY, f64::min),
            upper: groups.values().map(group_max).fold(f64::INFINITY, f64::min),
        },
        // Symmetric to Min.
        AggregateFn::Max => AggregateRange {
            lower: groups
                .values()
                .map(group_min)
                .fold(f64::NEG_INFINITY, f64::max),
            upper: groups
                .values()
                .map(group_max)
                .fold(f64::NEG_INFINITY, f64::max),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationSchema};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "salary",
            [("emp", Domain::Text), ("amount", Domain::Int)],
        ))
    }

    /// Key-violating instance: emp is the key, two employees have conflicting
    /// salary records.
    fn conflicted() -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (e, a) in [("ann", 10), ("ann", 20), ("bob", 5), ("bob", 7), ("eve", 3)] {
            inst.insert_values([Value::str(e), Value::int(a)]).unwrap();
        }
        inst
    }

    /// Brute-force oracle: enumerate every choice of one tuple per key group
    /// and compute the aggregate on each.
    fn oracle(instance: &RelationInstance, agg: AggregateFn, attr: usize) -> (f64, f64) {
        let mut groups: BTreeMap<Vec<Value>, Vec<Vec<Value>>> = BTreeMap::new();
        for (_, t) in instance.iter() {
            groups
                .entry(t.project(&[0]))
                .or_default()
                .push(t.values().to_vec());
        }
        let group_list: Vec<Vec<Vec<Value>>> = groups.into_values().collect();
        let mut choices = vec![0usize; group_list.len()];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        loop {
            let mut world = RelationInstance::new(instance.schema().clone());
            for (g, &c) in group_list.iter().zip(&choices) {
                world.insert_values(g[c].clone()).unwrap();
            }
            let v = aggregate_on(&world, agg, attr);
            lo = lo.min(v);
            hi = hi.max(v);
            // Advance the mixed-radix counter over group choices.
            let mut i = 0;
            loop {
                if i == group_list.len() {
                    return (lo, hi);
                }
                choices[i] += 1;
                if choices[i] < group_list[i].len() {
                    break;
                }
                choices[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn count_is_certain_under_key_repairs() {
        let r = range_consistent_aggregate(&conflicted(), &[0], AggregateFn::Count, 1);
        assert!(r.is_certain());
        assert_eq!(r.lower, 3.0);
    }

    #[test]
    fn sum_bounds_match_the_oracle() {
        let inst = conflicted();
        let r = range_consistent_aggregate(&inst, &[0], AggregateFn::Sum, 1);
        let (lo, hi) = oracle(&inst, AggregateFn::Sum, 1);
        assert_eq!((r.lower, r.upper), (lo, hi));
        assert_eq!((r.lower, r.upper), (18.0, 30.0));
    }

    #[test]
    fn min_and_max_bounds_match_the_oracle() {
        let inst = conflicted();
        for agg in [AggregateFn::Min, AggregateFn::Max] {
            let r = range_consistent_aggregate(&inst, &[0], agg, 1);
            let (lo, hi) = oracle(&inst, agg, 1);
            assert_eq!((r.lower, r.upper), (lo, hi), "bounds for {agg:?}");
        }
    }

    #[test]
    fn consistent_instance_collapses_to_a_point() {
        let mut inst = RelationInstance::new(schema());
        for (e, a) in [("ann", 10), ("bob", 5)] {
            inst.insert_values([Value::str(e), Value::int(a)]).unwrap();
        }
        for agg in [
            AggregateFn::Count,
            AggregateFn::Sum,
            AggregateFn::Min,
            AggregateFn::Max,
        ] {
            let r = range_consistent_aggregate(&inst, &[0], agg, 1);
            assert!(
                r.is_certain(),
                "{agg:?} should be certain on consistent data"
            );
            assert!(r.contains(aggregate_on(&inst, agg, 1)));
        }
    }

    #[test]
    fn empty_instance_gives_neutral_bounds() {
        let inst = RelationInstance::new(schema());
        let count = range_consistent_aggregate(&inst, &[0], AggregateFn::Count, 1);
        assert_eq!((count.lower, count.upper), (0.0, 0.0));
        let sum = range_consistent_aggregate(&inst, &[0], AggregateFn::Sum, 1);
        assert_eq!((sum.lower, sum.upper), (0.0, 0.0));
    }

    #[test]
    fn true_value_lies_within_the_range() {
        // The "true" world is one particular repair; its aggregate must fall
        // inside the reported range.
        let inst = conflicted();
        let mut one_repair = RelationInstance::new(schema());
        for (e, a) in [("ann", 20), ("bob", 5), ("eve", 3)] {
            one_repair
                .insert_values([Value::str(e), Value::int(a)])
                .unwrap();
        }
        for agg in [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max] {
            let r = range_consistent_aggregate(&inst, &[0], agg, 1);
            assert!(r.contains(aggregate_on(&one_repair, agg, 1)), "{agg:?}");
        }
    }
}
