//! Column and relation profiling.
//!
//! Profiling answers the questions discovery needs answered before it starts:
//! which attributes are categorical (few distinct values — candidates for
//! CFD/CIND conditions), which are key-like (distinct everywhere — useless as
//! conditions, good as identifiers to exclude), and what the realistic
//! finite domains are.  The same statistics drive the "reasonable" defaults
//! of [`crate::cfd_discovery`] and [`crate::ind_discovery`].

use crate::source::resolve_threads;
use dq_core::engine::parallel_map;
use dq_relation::{Database, Domain, IndexPool, RelationInstance, Value};
use std::collections::BTreeSet;

/// Profile of a single column.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnProfile {
    /// Attribute position.
    pub attr: usize,
    /// Attribute name.
    pub name: String,
    /// Declared domain.
    pub domain: Domain,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Number of null values.
    pub nulls: usize,
    /// Distinct-to-total ratio (1.0 for a key column, ~0 for a constant).
    pub uniqueness: f64,
    /// The distinct values, when there are at most `max_inline_values` of
    /// them — i.e. the inferred finite domain of a categorical column.
    pub inline_values: Option<BTreeSet<Value>>,
}

impl ColumnProfile {
    /// Whether this column looks categorical (bounded set of values).
    pub fn is_categorical(&self, max_values: usize) -> bool {
        self.distinct <= max_values && self.distinct > 0
    }

    /// Whether this column is a single-attribute key of the instance.
    pub fn is_unique(&self) -> bool {
        self.nulls == 0 && (self.uniqueness - 1.0).abs() < f64::EPSILON
    }
}

/// Profile of a relation.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationProfile {
    /// Relation name.
    pub relation: String,
    /// Number of tuples.
    pub tuples: usize,
    /// Per-column profiles, positionally aligned with the schema.
    pub columns: Vec<ColumnProfile>,
    /// Single attributes that are keys of the instance.
    pub unary_keys: Vec<usize>,
    /// Attribute pairs that are keys while neither member is one on its own.
    pub binary_keys: Vec<(usize, usize)>,
}

impl RelationProfile {
    /// Attributes that look categorical under the given bound.
    pub fn categorical_attributes(&self, max_values: usize) -> Vec<usize> {
        self.columns
            .iter()
            .filter(|c| c.is_categorical(max_values) && !c.is_unique())
            .map(|c| c.attr)
            .collect()
    }

    /// Attributes worth excluding from dependency discovery: unique
    /// identifiers whose FDs are trivial.
    pub fn identifier_attributes(&self) -> Vec<usize> {
        self.columns
            .iter()
            .filter(|c| c.is_unique())
            .map(|c| c.attr)
            .collect()
    }
}

/// How many distinct values a column may have for its values to be listed
/// inline in the profile.
const MAX_INLINE_VALUES: usize = 32;

/// Profiles one relation instance over its interned columnar snapshot,
/// with a worker pool sized to the machine.
///
/// Distinct counts and inferred finite domains come straight from the
/// per-column dictionaries (one scan per column to tally nulls, no
/// `Value` clones per cell), and binary key candidacy groups through a
/// pooled interned index on the pair instead of materializing a
/// `BTreeSet<Vec<Value>>` of projections — the same indexes discovery and
/// detection use.
///
/// Dictionaries dedup by `Eq` while the legacy per-column scan deduped by
/// `Value`'s `Ord` — which deliberately compares mixed numerics like
/// `Int(0)` and `Real(0.0)` as equal — so dictionary entries are re-deduped
/// through a `BTreeSet` built by *insertion* (tiny: one entry per distinct
/// value, never per row; `collect` would silently dedup by `Eq` instead,
/// std's bulk build sorts by `Ord` but dedups by `Eq`).  Binary-key
/// counting keeps `group_count()`: the legacy `project_distinct` built its
/// set via `collect`, i.e. it already counted `Eq`-distinct projections,
/// which is exactly what the index's groups count.  Every reported number
/// is identical to the legacy row-scanning profile.
pub fn profile_relation(instance: &RelationInstance) -> RelationProfile {
    profile_relation_with(instance, 0)
}

/// [`profile_relation`] with an explicit worker budget (`0` sizes the pool
/// to the machine): per-column statistics and binary-key candidates are
/// independent, so both fan out across the thread pool — columns first
/// (each scans its own dictionary and null ids), then the candidate
/// attribute pairs (each groups through its own index in a private pool).
/// The reported profile is identical at every thread count.  Opens one
/// `discover.profile` span and counts the profiled columns
/// (`discover.profile.columns`) and the attribute pairs grouped for key
/// candidacy (`discover.profile.pairs`).
pub fn profile_relation_with(instance: &RelationInstance, threads: usize) -> RelationProfile {
    let _span = dq_obs::span!("discover.profile", arity = instance.schema().arity());
    let threads = resolve_threads(threads);
    let pool = IndexPool::new();
    let schema = instance.schema();
    let tuples = instance.len();
    let store = instance.columnar();
    let attrs: Vec<usize> = (0..schema.arity()).collect();
    let columns: Vec<ColumnProfile> = parallel_map(&attrs, threads, |&attr| {
        let col = store.column(instance, attr);
        let interner = col.interner();
        let null_id = interner.lookup(&Value::Null);
        let nulls = match null_id {
            Some(null_id) => col
                .shard_ids(0..col.len())
                .into_iter()
                .flatten()
                .filter(|&&id| id == null_id)
                .count(),
            None => 0,
        };
        let mut dictionary: BTreeSet<&Value> = BTreeSet::new();
        for value in interner.values().iter().filter(|v| !v.is_null()) {
            dictionary.insert(value);
        }
        let distinct = dictionary.len();
        let uniqueness = if tuples == 0 {
            0.0
        } else {
            distinct as f64 / tuples as f64
        };
        let inline_values = if distinct <= MAX_INLINE_VALUES {
            Some(dictionary.iter().map(|&v| v.clone()).collect())
        } else {
            None
        };
        ColumnProfile {
            attr,
            name: schema.attr_name(attr).to_string(),
            domain: schema.domain(attr).clone(),
            distinct,
            nulls,
            uniqueness,
            inline_values,
        }
    });

    dq_obs::add("discover.profile.columns", columns.len() as u64);
    let unary_keys: Vec<usize> = columns
        .iter()
        .filter(|c| tuples > 0 && c.is_unique())
        .map(|c| c.attr)
        .collect();
    let mut binary_keys = Vec::new();
    if tuples > 0 {
        let candidate_pairs: Vec<(usize, usize)> = (0..schema.arity())
            .flat_map(|a| ((a + 1)..schema.arity()).map(move |b| (a, b)))
            .filter(|(a, b)| !unary_keys.contains(a) && !unary_keys.contains(b))
            .collect();
        dq_obs::add("discover.profile.pairs", candidate_pairs.len() as u64);
        let is_key: Vec<bool> = parallel_map(&candidate_pairs, threads, |&(a, b)| {
            pool.interned_for(instance, &[a, b], 1).group_count() == tuples
        });
        binary_keys = candidate_pairs
            .into_iter()
            .zip(is_key)
            .filter_map(|(pair, key)| key.then_some(pair))
            .collect();
    }

    RelationProfile {
        relation: schema.name().to_string(),
        tuples,
        columns,
        unary_keys,
        binary_keys,
    }
}

/// Profiles every relation of a database, one `discover.profile` span
/// per relation.
pub fn profile_database(db: &Database) -> Vec<RelationProfile> {
    db.iter().map(|(_, inst)| profile_relation(inst)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::RelationSchema;
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "people",
            vec![
                ("id", Domain::Int),
                ("country", Domain::Text),
                ("name", Domain::Text),
            ],
        ))
    }

    fn sample() -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for i in 0..10i64 {
            inst.insert_values(vec![
                Value::int(i),
                Value::str(if i % 2 == 0 { "UK" } else { "US" }),
                Value::str(format!("person-{i}")),
            ])
            .unwrap();
        }
        inst
    }

    #[test]
    fn profiles_distinct_counts_and_uniqueness() {
        let profile = profile_relation(&sample());
        assert_eq!(profile.tuples, 10);
        assert_eq!(profile.columns[0].distinct, 10);
        assert!(profile.columns[0].is_unique());
        assert_eq!(profile.columns[1].distinct, 2);
        assert!(profile.columns[1].is_categorical(8));
        assert!(!profile.columns[1].is_unique());
    }

    #[test]
    fn key_detection() {
        let profile = profile_relation(&sample());
        assert_eq!(profile.unary_keys, vec![0, 2]);
        // country + name is a key, but name alone already is, so the pair is
        // not reported; country pairs with nothing else here.
        assert!(profile.binary_keys.is_empty());
    }

    #[test]
    fn binary_key_reported_when_no_unary_key_covers_it() {
        let mut inst = RelationInstance::new(Arc::new(RelationSchema::new(
            "r",
            vec![
                ("a", Domain::Text),
                ("b", Domain::Text),
                ("c", Domain::Text),
            ],
        )));
        for (a, b) in [("x", "1"), ("x", "2"), ("y", "1"), ("y", "2")] {
            inst.insert_values(vec![Value::str(a), Value::str(b), Value::str("c")])
                .unwrap();
        }
        let profile = profile_relation(&inst);
        assert!(profile.unary_keys.is_empty());
        assert_eq!(profile.binary_keys, vec![(0, 1)]);
    }

    #[test]
    fn categorical_and_identifier_helpers() {
        let profile = profile_relation(&sample());
        assert_eq!(profile.categorical_attributes(8), vec![1]);
        assert_eq!(profile.identifier_attributes(), vec![0, 2]);
    }

    #[test]
    fn mixed_numeric_distinct_counts_follow_value_order() {
        // `Value`'s Ord compares Int(0) and Real(0.0) as equal while Eq
        // (and hence the dictionary) distinguishes them; the profile must
        // keep the legacy Ord-based distinct semantics.
        let universe: Arc<[Value]> = vec![
            Value::int(0),
            Value::real(0.0),
            Value::int(1),
            Value::str("x"),
            Value::str("y"),
        ]
        .into();
        let schema = Arc::new(RelationSchema::new(
            "m",
            vec![
                ("n", Domain::Finite(Arc::clone(&universe))),
                ("s", Domain::Finite(universe)),
            ],
        ));
        let mut inst = RelationInstance::new(schema);
        for (n, s) in [
            (Value::int(0), Value::str("x")),
            (Value::real(0.0), Value::str("x")),
        ] {
            inst.insert_values(vec![n, s]).unwrap();
        }
        let profile = profile_relation(&inst);
        // Int(0) and Real(0.0) collapse under Ord: one distinct value (the
        // legacy per-column scan deduped through BTreeSet *inserts*).
        assert_eq!(profile.columns[0].distinct, 1);
        assert_eq!(profile.columns[0].inline_values.as_ref().unwrap().len(), 1);
        assert!(!profile.columns[0].is_unique());
        assert_eq!(profile.columns[1].distinct, 1);
        // Pair projections were deduped by the legacy `project_distinct`
        // via `collect`, i.e. by Eq — (Int(0), "x") and (Real(0.0), "x")
        // stay distinct — so (n, s) is a binary key under both paths.
        assert_eq!(inst.project_distinct(&[0, 1]).len(), inst.len());
        assert!(profile.binary_keys.contains(&(0, 1)));
    }

    #[test]
    fn fan_out_is_identical_to_sequential_profile() {
        let inst = sample();
        let sequential = profile_relation_with(&inst, 1);
        for threads in [2, 8] {
            assert_eq!(
                profile_relation_with(&inst, threads),
                sequential,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn empty_relation_profile() {
        let profile = profile_relation(&RelationInstance::new(schema()));
        assert_eq!(profile.tuples, 0);
        assert!(profile.unary_keys.is_empty());
        assert!(profile.columns.iter().all(|c| c.distinct == 0));
    }

    #[test]
    fn inline_values_capture_small_domains() {
        let profile = profile_relation(&sample());
        let countries = profile.columns[1].inline_values.as_ref().unwrap();
        assert!(countries.contains(&Value::str("UK")));
        assert!(countries.contains(&Value::str("US")));
        assert_eq!(countries.len(), 2);
    }
}
