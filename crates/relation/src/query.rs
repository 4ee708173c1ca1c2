//! Conjunctive queries and a small first-order evaluator.
//!
//! Consistent query answering (Section 5.2) works with conjunctive queries
//! with built-in predicates, and the rewriting approach of \[7\]/\[43\] produces
//! first-order queries with negated existential subformulas.  This module
//! provides both: [`ConjunctiveQuery`] for the input queries and [`FoQuery`]
//! (a safe-range first-order formula evaluator) for the rewritings.

use crate::error::{DqError, DqResult};
use crate::instance::Database;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A term of an atom: a variable or a constant.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A named variable.
    Var(String),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Convenience constructor for a variable.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Convenience constructor for a constant.
    pub fn val(value: impl Into<Value>) -> Term {
        Term::Const(value.into())
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "'{c}'"),
        }
    }
}

/// A relation atom `R(t1, ..., tn)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Terms, positionally aligned with the relation schema.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// Variables occurring in the atom, in positional order (with repeats).
    pub fn variables(&self) -> Vec<&str> {
        self.terms.iter().filter_map(|t| t.as_var()).collect()
    }
}

/// Comparison operators for built-in predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompOp {
    /// Applies the operator to two values.
    pub fn eval(&self, a: &Value, b: &Value) -> bool {
        match self {
            CompOp::Eq => a == b,
            CompOp::Ne => a != b,
            CompOp::Lt => a < b,
            CompOp::Le => a <= b,
            CompOp::Gt => a > b,
            CompOp::Ge => a >= b,
        }
    }
}

/// A built-in comparison `t1 op t2`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comparison {
    /// Left term.
    pub left: Term,
    /// Operator.
    pub op: CompOp,
    /// Right term.
    pub right: Term,
}

impl Comparison {
    /// Creates a comparison.
    pub fn new(left: Term, op: CompOp, right: Term) -> Self {
        Comparison { left, op, right }
    }
}

/// A variable binding during evaluation.
pub type Binding = BTreeMap<String, Value>;

fn resolve(term: &Term, binding: &Binding) -> Option<Value> {
    match term {
        Term::Const(v) => Some(v.clone()),
        Term::Var(name) => binding.get(name).cloned(),
    }
}

/// A conjunctive query `q(x̄) :- R1(..), ..., Rm(..), comparisons`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Head (free) variables; empty for a boolean query.
    pub head: Vec<String>,
    /// Relation atoms of the body.
    pub atoms: Vec<Atom>,
    /// Built-in comparisons of the body.
    pub comparisons: Vec<Comparison>,
}

impl ConjunctiveQuery {
    /// Creates a conjunctive query.
    pub fn new(head: Vec<&str>, atoms: Vec<Atom>, comparisons: Vec<Comparison>) -> Self {
        ConjunctiveQuery {
            head: head.into_iter().map(|s| s.to_string()).collect(),
            atoms,
            comparisons,
        }
    }

    /// Is this a boolean (closed) query?
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// All variables of the body.
    pub fn body_variables(&self) -> BTreeSet<String> {
        let mut vars = BTreeSet::new();
        for a in &self.atoms {
            for v in a.variables() {
                vars.insert(v.to_string());
            }
        }
        for c in &self.comparisons {
            if let Some(v) = c.left.as_var() {
                vars.insert(v.to_string());
            }
            if let Some(v) = c.right.as_var() {
                vars.insert(v.to_string());
            }
        }
        vars
    }

    /// Checks the query is safe: every head variable occurs in some atom.
    pub fn validate(&self) -> DqResult<()> {
        let body = self.body_variables();
        for h in &self.head {
            if !body.contains(h) {
                return Err(DqError::MalformedQuery {
                    reason: format!("head variable `{h}` does not occur in the body"),
                });
            }
        }
        Ok(())
    }

    /// Evaluates the query over `db`, returning the set of answers (projected
    /// onto the head variables).  A boolean query returns either one empty
    /// answer (true) or no answer (false).
    pub fn evaluate(&self, db: &Database) -> DqResult<BTreeSet<Vec<Value>>> {
        self.validate()?;
        let bindings = self.all_bindings(db)?;
        let mut answers = BTreeSet::new();
        for b in bindings {
            let row: Vec<Value> = self
                .head
                .iter()
                .map(|h| b.get(h).cloned().expect("head var bound"))
                .collect();
            answers.insert(row);
        }
        Ok(answers)
    }

    /// Evaluates the query and returns all satisfying bindings of the body
    /// variables (used by the CQA rewriting machinery).
    pub fn all_bindings(&self, db: &Database) -> DqResult<Vec<Binding>> {
        let mut bindings = vec![Binding::new()];
        for atom in &self.atoms {
            bindings = extend_with_atom(db, &bindings, atom)?;
            if bindings.is_empty() {
                break;
            }
        }
        let bindings = bindings
            .into_iter()
            .filter(|b| {
                self.comparisons
                    .iter()
                    .all(|c| match (resolve(&c.left, b), resolve(&c.right, b)) {
                        (Some(l), Some(r)) => c.op.eval(&l, &r),
                        _ => false,
                    })
            })
            .collect();
        Ok(bindings)
    }
}

fn extend_with_atom(db: &Database, bindings: &[Binding], atom: &Atom) -> DqResult<Vec<Binding>> {
    let relation = db.require_relation(&atom.relation)?;
    if atom.terms.len() != relation.schema().arity() {
        return Err(DqError::MalformedQuery {
            reason: format!(
                "atom over `{}` has {} terms but the relation has arity {}",
                atom.relation,
                atom.terms.len(),
                relation.schema().arity()
            ),
        });
    }
    let mut out = Vec::new();
    for binding in bindings {
        for (_, tuple) in relation.iter() {
            let mut extended = binding.clone();
            let mut ok = true;
            for (i, term) in atom.terms.iter().enumerate() {
                let cell = tuple.get(i);
                match term {
                    Term::Const(v) => {
                        if v != cell {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(name) => match extended.get(name) {
                        Some(bound) if bound != cell => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            extended.insert(name.clone(), cell.clone());
                        }
                    },
                }
            }
            if ok {
                out.push(extended);
            }
        }
    }
    Ok(out)
}

/// A first-order formula in the safe-range fragment used by CQA rewritings.
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// A positive relation atom.
    Atom(Atom),
    /// A built-in comparison.
    Comparison(Comparison),
    /// Negation (must not bind new variables).
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Existential quantification of `vars` in the inner formula.
    Exists(Vec<String>, Box<Formula>),
}

impl Formula {
    /// Conjunction helper that flattens nested `And`s.
    pub fn and(formulas: Vec<Formula>) -> Formula {
        Formula::And(formulas)
    }

    /// Is the formula (with the given binding already fixed) satisfied?
    ///
    /// Positive atoms and `Exists` search for satisfying extensions of the
    /// binding; negation and comparisons only *test* (all their variables
    /// must already be bound or bound inside the negation's own existentials).
    pub fn holds(&self, db: &Database, binding: &Binding) -> DqResult<bool> {
        match self {
            Formula::Atom(atom) => {
                Ok(!extend_with_atom(db, std::slice::from_ref(binding), atom)?.is_empty())
            }
            Formula::Comparison(c) => match (resolve(&c.left, binding), resolve(&c.right, binding))
            {
                (Some(l), Some(r)) => Ok(c.op.eval(&l, &r)),
                _ => Err(DqError::MalformedQuery {
                    reason: "comparison over unbound variable".into(),
                }),
            },
            Formula::Not(inner) => Ok(!inner.holds(db, binding)?),
            Formula::And(fs) => {
                for f in fs {
                    if !f.holds(db, binding)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(fs) => {
                for f in fs {
                    if f.holds(db, binding)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Exists(vars, inner) => {
                let extensions = inner.satisfying_bindings(db, binding, vars)?;
                Ok(!extensions.is_empty())
            }
        }
    }

    /// Satisfying bindings of `vars` (extending `base`) for this formula.
    /// Only positive atoms generate bindings; the rest filter.
    fn satisfying_bindings(
        &self,
        db: &Database,
        base: &Binding,
        _vars: &[String],
    ) -> DqResult<Vec<Binding>> {
        // Split conjuncts into generators (atoms) and filters (the rest).
        let conjuncts: Vec<&Formula> = match self {
            Formula::And(fs) => fs.iter().collect(),
            other => vec![other],
        };
        let mut bindings = vec![base.clone()];
        let mut filters = Vec::new();
        for c in &conjuncts {
            match c {
                Formula::Atom(atom) => {
                    bindings = extend_with_atom(db, &bindings, atom)?;
                }
                other => filters.push(*other),
            }
        }
        let mut out = Vec::new();
        for b in bindings {
            let mut ok = true;
            for f in &filters {
                if !f.holds(db, &b)? {
                    ok = false;
                    break;
                }
            }
            if ok {
                out.push(b);
            }
        }
        Ok(out)
    }
}

/// A first-order query: head variables plus a body formula whose positive
/// atoms bind the head variables (safe-range).
#[derive(Clone, Debug, PartialEq)]
pub struct FoQuery {
    /// Head (free) variables.
    pub head: Vec<String>,
    /// Body formula.
    pub body: Formula,
}

impl FoQuery {
    /// Creates an FO query.
    pub fn new(head: Vec<&str>, body: Formula) -> Self {
        FoQuery {
            head: head.into_iter().map(|s| s.to_string()).collect(),
            body,
        }
    }

    /// Evaluates the query, returning the set of head-variable answers.
    pub fn evaluate(&self, db: &Database) -> DqResult<BTreeSet<Vec<Value>>> {
        let base = Binding::new();
        let bindings = self
            .body
            .satisfying_bindings(db, &base, &self.head.clone())?;
        let mut answers = BTreeSet::new();
        for b in bindings {
            let mut row = Vec::with_capacity(self.head.len());
            let mut complete = true;
            for h in &self.head {
                match b.get(h) {
                    Some(v) => row.push(v.clone()),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                answers.insert(row);
            }
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::RelationInstance;
    use crate::schema::{Domain, RelationSchema};

    fn db() -> Database {
        // emp(name, dept), dept(dname, mgr)
        let emp = RelationSchema::new("emp", [("name", Domain::Text), ("dept", Domain::Text)]);
        let dept = RelationSchema::new("dept", [("dname", Domain::Text), ("mgr", Domain::Text)]);
        let mut ei = RelationInstance::from_schema(emp);
        for (n, d) in [("ann", "cs"), ("bob", "cs"), ("carol", "ee")] {
            ei.insert_values([Value::str(n), Value::str(d)]).unwrap();
        }
        let mut di = RelationInstance::from_schema(dept);
        for (d, m) in [("cs", "dana"), ("ee", "erin")] {
            di.insert_values([Value::str(d), Value::str(m)]).unwrap();
        }
        let mut db = Database::new();
        db.add_relation(ei);
        db.add_relation(di);
        db
    }

    #[test]
    fn join_query_produces_expected_answers() {
        let db = db();
        // q(n, m) :- emp(n, d), dept(d, m)
        let q = ConjunctiveQuery::new(
            vec!["n", "m"],
            vec![
                Atom::new("emp", vec![Term::var("n"), Term::var("d")]),
                Atom::new("dept", vec![Term::var("d"), Term::var("m")]),
            ],
            vec![],
        );
        let answers = q.evaluate(&db).unwrap();
        assert_eq!(answers.len(), 3);
        assert!(answers.contains(&vec![Value::str("ann"), Value::str("dana")]));
        assert!(answers.contains(&vec![Value::str("carol"), Value::str("erin")]));
    }

    #[test]
    fn constants_and_comparisons_filter() {
        let db = db();
        // q(n) :- emp(n, d), d = 'cs', n <> 'ann'
        let q = ConjunctiveQuery::new(
            vec!["n"],
            vec![Atom::new("emp", vec![Term::var("n"), Term::var("d")])],
            vec![
                Comparison::new(Term::var("d"), CompOp::Eq, Term::val("cs")),
                Comparison::new(Term::var("n"), CompOp::Ne, Term::val("ann")),
            ],
        );
        let answers = q.evaluate(&db).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&vec![Value::str("bob")]));
    }

    #[test]
    fn boolean_query_semantics() {
        let db = db();
        let yes = ConjunctiveQuery::new(
            vec![],
            vec![Atom::new("emp", vec![Term::val("ann"), Term::var("d")])],
            vec![],
        );
        let no = ConjunctiveQuery::new(
            vec![],
            vec![Atom::new("emp", vec![Term::val("zoe"), Term::var("d")])],
            vec![],
        );
        assert_eq!(yes.evaluate(&db).unwrap().len(), 1);
        assert!(no.evaluate(&db).unwrap().is_empty());
    }

    #[test]
    fn unsafe_query_is_rejected() {
        let q = ConjunctiveQuery::new(
            vec!["x"],
            vec![Atom::new("emp", vec![Term::var("n"), Term::var("d")])],
            vec![],
        );
        assert!(q.evaluate(&db()).is_err());
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let q = ConjunctiveQuery::new(
            vec![],
            vec![Atom::new("nosuch", vec![Term::var("x")])],
            vec![],
        );
        assert!(q.evaluate(&db()).is_err());
    }

    #[test]
    fn fo_query_with_negated_exists() {
        let db = db();
        // Employees in departments that have no manager named 'dana':
        // q(n) :- emp(n, d) AND NOT EXISTS m (dept(d, m) AND m = 'dana')
        let q = FoQuery::new(
            vec!["n"],
            Formula::And(vec![
                Formula::Atom(Atom::new("emp", vec![Term::var("n"), Term::var("d")])),
                Formula::Not(Box::new(Formula::Exists(
                    vec!["m".into()],
                    Box::new(Formula::And(vec![
                        Formula::Atom(Atom::new("dept", vec![Term::var("d"), Term::var("m")])),
                        Formula::Comparison(Comparison::new(
                            Term::var("m"),
                            CompOp::Eq,
                            Term::val("dana"),
                        )),
                    ])),
                ))),
            ]),
        );
        let answers = q.evaluate(&db).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&vec![Value::str("carol")]));
    }

    #[test]
    fn fo_disjunction() {
        let db = db();
        let q = FoQuery::new(
            vec!["n"],
            Formula::And(vec![
                Formula::Atom(Atom::new("emp", vec![Term::var("n"), Term::var("d")])),
                Formula::Or(vec![
                    Formula::Comparison(Comparison::new(
                        Term::var("n"),
                        CompOp::Eq,
                        Term::val("ann"),
                    )),
                    Formula::Comparison(Comparison::new(
                        Term::var("n"),
                        CompOp::Eq,
                        Term::val("carol"),
                    )),
                ]),
            ]),
        );
        assert_eq!(q.evaluate(&db).unwrap().len(), 2);
    }
}
