//! Tables with variables (v-tables), Section 5.3.
//!
//! Condensed representations of repairs are built from tableaux whose cells
//! may hold *variables* (labelled nulls) instead of constants — the classic
//! device of the incomplete-information literature ([46, 50]) that the
//! nucleus of \[68\] reuses.  A v-table represents the set of instances
//! obtained by substituting constants for variables (its *possible worlds*);
//! homomorphisms between v-tables are the comparison tool ("the nucleus is
//! homomorphic to every repair").

use dq_relation::{RelationInstance, RelationSchema, Tuple, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A cell of a v-table: a constant or a named variable.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VValue {
    /// A constant.
    Const(Value),
    /// A variable (labelled null).
    Var(String),
}

impl VValue {
    /// Constant helper.
    pub fn val(v: impl Into<Value>) -> Self {
        VValue::Const(v.into())
    }

    /// Variable helper.
    pub fn var(name: impl Into<String>) -> Self {
        VValue::Var(name.into())
    }

    /// Is this a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, VValue::Var(_))
    }
}

impl fmt::Display for VValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VValue::Const(v) => write!(f, "{v}"),
            VValue::Var(x) => write!(f, "?{x}"),
        }
    }
}

/// A tuple over constants and variables.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct VTuple {
    /// Cells of the tuple.
    pub cells: Vec<VValue>,
}

impl VTuple {
    /// Creates a v-tuple.
    pub fn new(cells: Vec<VValue>) -> Self {
        VTuple { cells }
    }

    /// Lifts a plain tuple into a v-tuple of constants.
    pub fn from_tuple(t: &Tuple) -> Self {
        VTuple {
            cells: t.values().iter().cloned().map(VValue::Const).collect(),
        }
    }

    /// The variables occurring in the tuple.
    pub fn variables(&self) -> Vec<&str> {
        self.cells
            .iter()
            .filter_map(|c| match c {
                VValue::Var(x) => Some(x.as_str()),
                VValue::Const(_) => None,
            })
            .collect()
    }

    /// Is the tuple variable-free?
    pub fn is_ground(&self) -> bool {
        self.cells.iter().all(|c| !c.is_var())
    }

    /// Applies a valuation, producing a plain tuple; `None` if some variable
    /// is missing from the valuation.
    pub fn apply(&self, valuation: &BTreeMap<String, Value>) -> Option<Tuple> {
        let values: Option<Vec<Value>> = self
            .cells
            .iter()
            .map(|c| match c {
                VValue::Const(v) => Some(v.clone()),
                VValue::Var(x) => valuation.get(x).cloned(),
            })
            .collect();
        values.map(Tuple::new)
    }
}

/// A v-table: a relation schema plus v-tuples.
#[derive(Clone, Debug)]
pub struct VTable {
    schema: Arc<RelationSchema>,
    tuples: Vec<VTuple>,
}

impl VTable {
    /// Creates an empty v-table.
    pub fn new(schema: Arc<RelationSchema>) -> Self {
        VTable {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Lifts a plain instance into a (variable-free) v-table.
    pub fn from_instance(instance: &RelationInstance) -> Self {
        VTable {
            schema: Arc::clone(instance.schema()),
            tuples: instance
                .iter()
                .map(|(_, t)| VTuple::from_tuple(t))
                .collect(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> &[VTuple] {
        &self.tuples
    }

    /// Adds a tuple.
    pub fn push(&mut self, tuple: VTuple) {
        self.tuples.push(tuple);
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All variables of the table.
    pub fn variables(&self) -> Vec<String> {
        let mut vars: Vec<String> = self
            .tuples
            .iter()
            .flat_map(|t| t.variables().into_iter().map(str::to_string))
            .collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// Applies a valuation to every tuple, producing a plain instance.
    pub fn instantiate(&self, valuation: &BTreeMap<String, Value>) -> Option<RelationInstance> {
        let mut instance = RelationInstance::new(Arc::clone(&self.schema));
        for t in &self.tuples {
            let tuple = t.apply(valuation)?;
            instance.insert(tuple).ok()?;
        }
        Some(instance)
    }

    /// Is there a homomorphism from `self` to `target` — a mapping of
    /// `self`'s variables to constants (or to themselves) under which every
    /// tuple of `self` becomes a tuple of `target`?  Constants must map to
    /// themselves.  (Exponential backtracking; the tableaux involved are
    /// small.)
    pub fn homomorphic_to(&self, target: &RelationInstance) -> bool {
        fn search(
            tuples: &[VTuple],
            idx: usize,
            target: &RelationInstance,
            assignment: &mut BTreeMap<String, Value>,
        ) -> bool {
            if idx == tuples.len() {
                return true;
            }
            let vt = &tuples[idx];
            for (_, candidate) in target.iter() {
                let mut local = assignment.clone();
                let mut ok = true;
                for (cell, value) in vt.cells.iter().zip(candidate.values()) {
                    match cell {
                        VValue::Const(c) => {
                            if c != value {
                                ok = false;
                                break;
                            }
                        }
                        VValue::Var(x) => match local.get(x) {
                            Some(bound) if bound != value => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                local.insert(x.clone(), value.clone());
                            }
                        },
                    }
                }
                if ok && search(tuples, idx + 1, target, &mut local) {
                    *assignment = local;
                    return true;
                }
            }
            false
        }
        let mut assignment = BTreeMap::new();
        search(&self.tuples, 0, target, &mut assignment)
    }

    /// Subsumption of tableaux (used to capture U-repair minimality in \[68\]):
    /// `self` subsumes `other` when there is a homomorphism from `self` into
    /// every instance `other` can denote — approximated here by a
    /// variable-respecting embedding of `self`'s tuples into `other`'s.
    pub fn subsumes(&self, other: &VTable) -> bool {
        self.tuples.iter().all(|t| {
            other.tuples.iter().any(|o| {
                t.cells.iter().zip(&o.cells).all(|(a, b)| match (a, b) {
                    (VValue::Const(x), VValue::Const(y)) => x == y,
                    (VValue::Var(_), _) => true,
                    (VValue::Const(_), VValue::Var(_)) => false,
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::Domain;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Text), ("B", Domain::Text)],
        ))
    }

    fn instance(rows: &[(&str, &str)]) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (a, b) in rows {
            inst.insert_values([Value::str(*a), Value::str(*b)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn instantiation_substitutes_variables() {
        let mut vt = VTable::new(schema());
        vt.push(VTuple::new(vec![VValue::val("k"), VValue::var("x")]));
        let mut valuation = BTreeMap::new();
        valuation.insert("x".to_string(), Value::str("1"));
        let inst = vt.instantiate(&valuation).unwrap();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.iter().next().unwrap().1.get(1), &Value::str("1"));
        // Missing variable: no instantiation.
        assert!(vt.instantiate(&BTreeMap::new()).is_none());
    }

    #[test]
    fn homomorphism_into_an_instance() {
        let mut vt = VTable::new(schema());
        vt.push(VTuple::new(vec![VValue::val("k"), VValue::var("x")]));
        vt.push(VTuple::new(vec![VValue::val("z"), VValue::var("y")]));
        let target = instance(&[("k", "1"), ("z", "3")]);
        assert!(vt.homomorphic_to(&target));
        // Constants must be preserved.
        let target2 = instance(&[("w", "1"), ("z", "3")]);
        assert!(!vt.homomorphic_to(&target2));
        // A shared variable must map consistently.
        let mut vt2 = VTable::new(schema());
        vt2.push(VTuple::new(vec![VValue::val("k"), VValue::var("x")]));
        vt2.push(VTuple::new(vec![VValue::val("z"), VValue::var("x")]));
        let same = instance(&[("k", "1"), ("z", "1")]);
        let different = instance(&[("k", "1"), ("z", "3")]);
        assert!(vt2.homomorphic_to(&same));
        assert!(!vt2.homomorphic_to(&different));
    }

    #[test]
    fn ground_tables_round_trip_from_instances() {
        let inst = instance(&[("k", "1"), ("z", "3")]);
        let vt = VTable::from_instance(&inst);
        assert_eq!(vt.len(), 2);
        assert!(vt.tuples().iter().all(VTuple::is_ground));
        assert!(vt.variables().is_empty());
        assert!(vt.homomorphic_to(&inst));
    }

    #[test]
    fn subsumption_between_tableaux() {
        let mut general = VTable::new(schema());
        general.push(VTuple::new(vec![VValue::val("k"), VValue::var("x")]));
        let mut specific = VTable::new(schema());
        specific.push(VTuple::new(vec![VValue::val("k"), VValue::val("1")]));
        assert!(general.subsumes(&specific));
        assert!(!specific.subsumes(&general));
    }

    #[test]
    fn display_of_vvalues() {
        assert_eq!(VValue::val("a").to_string(), "a");
        assert_eq!(VValue::var("x").to_string(), "?x");
    }
}
