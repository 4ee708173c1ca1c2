//! Conditional tables (c-tables): v-tables whose tuples carry local
//! conditions.
//!
//! Section 5.3 relates condensed representations of repairs to the
//! representation systems of incomplete information [46, 50]: v-tables,
//! c-tables and world-set decompositions.  A c-table attaches to every tuple
//! a *local condition* — a conjunction of (dis)equalities over variables —
//! and represents the set of worlds obtained by ranging the variables over
//! their domains and keeping the tuples whose condition is satisfied.  This
//! is strictly more expressive than v-tables (it can drop tuples, not just
//! rename values), and it is exactly what is needed to represent the
//! *subset* repairs of a key: one selector variable per key group, one
//! conditioned tuple per candidate.

use crate::vtable::{VTuple, VValue};
use dq_core::fd::Fd;
use dq_relation::{RelationInstance, RelationSchema, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A comparison inside a local condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CondOp {
    /// The two sides must be equal.
    Eq,
    /// The two sides must differ.
    Neq,
}

/// One conjunct of a local condition: `variable op term`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CondAtom {
    /// The constrained variable.
    pub var: String,
    /// Equality or disequality.
    pub op: CondOp,
    /// The other side: a constant or another variable.
    pub term: VValue,
}

impl CondAtom {
    /// `var = constant` helper.
    pub fn eq(var: impl Into<String>, value: impl Into<Value>) -> Self {
        CondAtom {
            var: var.into(),
            op: CondOp::Eq,
            term: VValue::Const(value.into()),
        }
    }

    /// `var ≠ constant` helper.
    pub fn neq(var: impl Into<String>, value: impl Into<Value>) -> Self {
        CondAtom {
            var: var.into(),
            op: CondOp::Neq,
            term: VValue::Const(value.into()),
        }
    }

    /// Evaluates the atom under a valuation; `None` when a variable the atom
    /// mentions is unbound.
    pub fn holds(&self, valuation: &BTreeMap<String, Value>) -> Option<bool> {
        let left = valuation.get(&self.var)?;
        let right = match &self.term {
            VValue::Const(v) => v,
            VValue::Var(x) => valuation.get(x)?,
        };
        Some(match self.op {
            CondOp::Eq => left == right,
            CondOp::Neq => left != right,
        })
    }
}

/// A conditioned tuple: the tuple appears in a world exactly when its local
/// condition holds under the world's valuation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CTuple {
    /// The (possibly variable-carrying) tuple.
    pub tuple: VTuple,
    /// The local condition, a conjunction of atoms (empty = always present).
    pub condition: Vec<CondAtom>,
}

impl CTuple {
    /// An unconditional, ground tuple.
    pub fn ground(values: Vec<Value>) -> Self {
        CTuple {
            tuple: VTuple::new(values.into_iter().map(VValue::Const).collect()),
            condition: Vec::new(),
        }
    }

    /// Whether the tuple is selected by the valuation.
    pub fn selected(&self, valuation: &BTreeMap<String, Value>) -> bool {
        self.condition
            .iter()
            .all(|atom| atom.holds(valuation).unwrap_or(false))
    }
}

/// A conditional table: schema, conditioned tuples and the (finite) domains
/// of the variables occurring in conditions and cells.
#[derive(Clone, Debug)]
pub struct CTable {
    schema: Arc<RelationSchema>,
    tuples: Vec<CTuple>,
    domains: BTreeMap<String, Vec<Value>>,
}

impl CTable {
    /// Creates an empty c-table.
    pub fn new(schema: Arc<RelationSchema>) -> Self {
        CTable {
            schema,
            tuples: Vec::new(),
            domains: BTreeMap::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// The conditioned tuples.
    pub fn tuples(&self) -> &[CTuple] {
        &self.tuples
    }

    /// Adds a conditioned tuple.
    pub fn push(&mut self, tuple: CTuple) {
        self.tuples.push(tuple);
    }

    /// Declares the finite domain of a variable.
    pub fn set_domain(&mut self, var: impl Into<String>, values: Vec<Value>) {
        self.domains.insert(var.into(), values);
    }

    /// The declared variable domains.
    pub fn domains(&self) -> &BTreeMap<String, Vec<Value>> {
        &self.domains
    }

    /// Number of represented worlds (product of domain sizes; 1 when there
    /// are no variables).
    pub fn world_count(&self) -> u128 {
        self.domains
            .values()
            .map(|d| d.len().max(1) as u128)
            .product()
    }

    /// Size of the representation itself (tuples plus condition atoms) — the
    /// quantity that stays polynomial while [`CTable::world_count`] explodes.
    pub fn size(&self) -> usize {
        self.tuples.len() + self.tuples.iter().map(|t| t.condition.len()).sum::<usize>()
    }

    /// Builds the c-table representing all **subset repairs of a key**: for
    /// every key group with `k` distinct candidate tuples a selector variable
    /// with domain `{0, …, k−1}` is introduced, and candidate `i` carries the
    /// condition `selector = i`.  Groups with a single candidate stay
    /// unconditional.
    pub fn from_key_repairs(instance: &RelationInstance, key: &Fd) -> Self {
        let mut table = CTable::new(Arc::clone(instance.schema()));
        for (gi, (_, ids)) in crate::key_groups(instance, key.lhs())
            .into_iter()
            .enumerate()
        {
            // Distinct candidates only: duplicates denote the same repair.
            let mut candidates = Vec::new();
            let mut seen = BTreeSet::new();
            for id in ids {
                let t = instance.tuple(id).expect("live tuple").clone();
                if seen.insert(t.clone()) {
                    candidates.push(t);
                }
            }
            if candidates.len() == 1 {
                table.push(CTuple::ground(candidates[0].values().to_vec()));
                continue;
            }
            let var = format!("g{gi}");
            table.set_domain(&var, (0..candidates.len() as i64).map(Value::int).collect());
            for (ci, candidate) in candidates.into_iter().enumerate() {
                table.push(CTuple {
                    tuple: VTuple::new(
                        candidate
                            .values()
                            .iter()
                            .cloned()
                            .map(VValue::Const)
                            .collect(),
                    ),
                    condition: vec![CondAtom::eq(var.clone(), ci as i64)],
                });
            }
        }
        table
    }

    /// All valuations of the declared variables (Cartesian product of the
    /// domains).  Exponential; intended for oracle-sized inputs.
    pub fn valuations(&self) -> Vec<BTreeMap<String, Value>> {
        let vars: Vec<(&String, &Vec<Value>)> = self.domains.iter().collect();
        let mut out = vec![BTreeMap::new()];
        for (var, domain) in vars {
            let mut next = Vec::with_capacity(out.len() * domain.len().max(1));
            for valuation in &out {
                for value in domain {
                    let mut v = valuation.clone();
                    v.insert(var.clone(), value.clone());
                    next.push(v);
                }
            }
            if !next.is_empty() {
                out = next;
            }
        }
        out
    }

    /// Materialises the world selected by a valuation.
    pub fn world(&self, valuation: &BTreeMap<String, Value>) -> RelationInstance {
        let mut instance = RelationInstance::new(Arc::clone(&self.schema));
        for ctuple in &self.tuples {
            if !ctuple.selected(valuation) {
                continue;
            }
            if let Some(tuple) = ctuple.tuple.apply(valuation) {
                instance
                    .insert(tuple)
                    .expect("c-table tuples conform to the schema");
            }
        }
        instance
    }

    /// Enumerates every represented world.
    pub fn worlds(&self) -> Vec<RelationInstance> {
        self.valuations().iter().map(|v| self.world(v)).collect()
    }

    /// Certain tuples: those present in every world.  (The certain answers
    /// to the identity query; projections can be applied afterwards.)
    pub fn certain_tuples(&self) -> BTreeSet<Vec<Value>> {
        let mut worlds = self.worlds().into_iter();
        let Some(first) = worlds.next() else {
            return BTreeSet::new();
        };
        let mut certain: BTreeSet<Vec<Value>> =
            first.iter().map(|(_, t)| t.values().to_vec()).collect();
        for world in worlds {
            let present: BTreeSet<Vec<Value>> =
                world.iter().map(|(_, t)| t.values().to_vec()).collect();
            certain = certain.intersection(&present).cloned().collect();
        }
        certain
    }

    /// Possible tuples: those present in at least one world.
    pub fn possible_tuples(&self) -> BTreeSet<Vec<Value>> {
        self.worlds()
            .iter()
            .flat_map(|w| {
                w.iter()
                    .map(|(_, t)| t.values().to_vec())
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wsd::WorldSetDecomposition;
    use dq_relation::Domain;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "r",
            [("a", Domain::Text), ("b", Domain::Int)],
        ))
    }

    fn key() -> Fd {
        Fd::new(&schema(), &["a"], &["b"])
    }

    /// Example 5.1-style instance: n key groups with two candidates each.
    fn conflicted(n: usize) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for i in 0..n {
            inst.insert_values([Value::str(format!("k{i}")), Value::int(1)])
                .unwrap();
            inst.insert_values([Value::str(format!("k{i}")), Value::int(2)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn ground_ctable_has_one_world() {
        let mut inst = RelationInstance::new(schema());
        inst.insert_values([Value::str("x"), Value::int(1)])
            .unwrap();
        let table = CTable::from_key_repairs(&inst, &key());
        assert_eq!(table.world_count(), 1);
        let worlds = table.worlds();
        assert_eq!(worlds.len(), 1);
        assert!(worlds[0].same_tuples_as(&inst));
    }

    #[test]
    fn key_repairs_world_count_matches_wsd() {
        let inst = conflicted(4);
        let table = CTable::from_key_repairs(&inst, &key());
        let wsd = WorldSetDecomposition::for_key(&inst, &key());
        assert_eq!(table.world_count(), wsd.world_count());
        assert_eq!(table.world_count(), 16);
    }

    #[test]
    fn representation_is_polynomial_while_worlds_are_exponential() {
        let inst = conflicted(10);
        let table = CTable::from_key_repairs(&inst, &key());
        assert_eq!(table.world_count(), 1024);
        assert!(
            table.size() <= 2 * inst.len(),
            "c-table must stay linear in the instance"
        );
    }

    #[test]
    fn every_world_satisfies_the_key() {
        let inst = conflicted(3);
        let table = CTable::from_key_repairs(&inst, &key());
        for world in table.worlds() {
            assert!(
                key().holds_on(&world),
                "every represented world is a repair"
            );
            assert_eq!(world.len(), 3, "one tuple per key group");
        }
    }

    #[test]
    fn certain_and_possible_tuples() {
        let mut inst = conflicted(2);
        inst.insert_values([Value::str("stable"), Value::int(9)])
            .unwrap();
        let table = CTable::from_key_repairs(&inst, &key());
        let certain = table.certain_tuples();
        assert_eq!(certain.len(), 1, "only the conflict-free tuple is certain");
        assert!(certain.contains(&vec![Value::str("stable"), Value::int(9)]));
        let possible = table.possible_tuples();
        assert_eq!(possible.len(), 5, "every candidate appears in some world");
    }

    #[test]
    fn condition_atoms_evaluate_against_valuations() {
        let mut valuation = BTreeMap::new();
        valuation.insert("x".to_string(), Value::int(1));
        assert_eq!(CondAtom::eq("x", 1i64).holds(&valuation), Some(true));
        assert_eq!(CondAtom::neq("x", 1i64).holds(&valuation), Some(false));
        assert_eq!(CondAtom::eq("y", 1i64).holds(&valuation), None);
        let var_atom = CondAtom {
            var: "x".into(),
            op: CondOp::Eq,
            term: VValue::var("y"),
        };
        assert_eq!(var_atom.holds(&valuation), None);
        valuation.insert("y".to_string(), Value::int(1));
        assert_eq!(var_atom.holds(&valuation), Some(true));
    }

    #[test]
    fn duplicate_candidates_collapse() {
        let mut inst = RelationInstance::new(schema());
        inst.insert_values([Value::str("k"), Value::int(1)])
            .unwrap();
        inst.insert_values([Value::str("k"), Value::int(1)])
            .unwrap();
        let table = CTable::from_key_repairs(&inst, &key());
        assert_eq!(table.world_count(), 1);
        assert_eq!(table.tuples().len(), 1);
    }
}
