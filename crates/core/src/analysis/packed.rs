//! The compiled form of a CFD set that redundancy removal runs on:
//! [`cfd_minimal_cover`](crate::implication::cfd_minimal_cover), the
//! `implied-rule` findings of [`lint_cfds`](super::lint_cfds) and
//! [`cfd_implies_closure`](crate::implication::cfd_implies_closure).
//!
//! Every rule is normalized once into single-RHS fragments whose entries
//! are `(attribute, Any | Const(id))`, with the constants interned per
//! attribute, so the quadratic procedures of Theorem 4.3 compare `u32`s in
//! per-attribute arrays instead of `Value`s in maps.  A pass selects the
//! rule set it reasons about with an `alive` mask over the fragments, so a
//! leave-one-out test flips mask bits instead of cloning and re-normalizing
//! the set.

use crate::cfd::Cfd;
use crate::pattern::PatternValue;
use dq_relation::ValueInterner;
use std::ops::Range;

/// A compiled pattern entry.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pat {
    Any,
    /// A constant, interned in its attribute's dictionary.
    Const(u32),
}

/// One normalized fragment: `lhs → rhs` with a single pattern row.
struct Fragment {
    lhs: Vec<(usize, Pat)>,
    rhs: (usize, Pat),
    /// Does some attribute of the fragment range over a finite domain?
    finite: bool,
}

/// What the implication closure knows about an attribute of the
/// hypothetical pair of tuples.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Known {
    Unknown,
    /// The pair agrees on the attribute, value unknown.
    Equal,
    /// The pair agrees on the attribute and the shared value is this
    /// constant.
    Const(u32),
}

/// A CFD set compiled for mask-selected implication and consistency tests.
pub(crate) struct PackedCfds {
    fragments: Vec<Fragment>,
    /// `rules[r]`: the fragments of the `r`-th compiled rule, in
    /// [`Cfd::normalize`] order.
    rules: Vec<Range<usize>>,
    /// One past the largest attribute index any fragment mentions.
    width: usize,
}

impl PackedCfds {
    /// Compiles `rules` fragment by fragment, in [`Cfd::normalize`] order.
    pub(crate) fn compile<'a>(rules: impl IntoIterator<Item = &'a Cfd>) -> Self {
        let mut dictionaries: Vec<ValueInterner> = Vec::new();
        let mut intern = |a: usize, p: &PatternValue| match p {
            PatternValue::Any => Pat::Any,
            PatternValue::Const(v) => {
                if dictionaries.len() <= a {
                    dictionaries.resize_with(a + 1, ValueInterner::new);
                }
                Pat::Const(dictionaries[a].intern(v).index() as u32)
            }
        };
        let mut fragments = Vec::new();
        let mut ranges = Vec::new();
        let mut width = 0;
        for cfd in rules {
            let start = fragments.len();
            let schema = cfd.schema();
            let lhs_finite = cfd.lhs().iter().any(|&a| schema.domain(a).is_finite());
            for tp in cfd.tableau() {
                let lhs: Vec<(usize, Pat)> = cfd
                    .lhs()
                    .iter()
                    .zip(&tp.lhs)
                    .map(|(&a, p)| (a, intern(a, p)))
                    .collect();
                for (&b, p) in cfd.rhs().iter().zip(&tp.rhs) {
                    fragments.push(Fragment {
                        lhs: lhs.clone(),
                        rhs: (b, intern(b, p)),
                        finite: lhs_finite || schema.domain(b).is_finite(),
                    });
                }
            }
            if let Some(max) = cfd.lhs().iter().chain(cfd.rhs()).max() {
                width = width.max(max + 1);
            }
            ranges.push(start..fragments.len());
        }
        PackedCfds {
            fragments,
            rules: ranges,
            width,
        }
    }

    /// Number of compiled fragments (the length of an `alive` mask).
    pub(crate) fn len(&self) -> usize {
        self.fragments.len()
    }

    /// The fragments of the `r`-th compiled rule.
    pub(crate) fn rule_fragments(&self, r: usize) -> Range<usize> {
        self.rules[r].clone()
    }

    /// Does fragment `frag` or some live fragment mention a finite-domain
    /// attribute?  Outside that case the closure is complete (Theorem 4.3).
    pub(crate) fn touches_finite(&self, alive: &[bool], frag: usize) -> bool {
        self.fragments[frag].finite
            || self
                .fragments
                .iter()
                .zip(alive)
                .any(|(f, &live)| live && f.finite)
    }

    /// The propagation fixpoint of
    /// [`cfd_set_consistent_propagation`](crate::consistency::cfd_set_consistent_propagation)
    /// over the live fragments: constants are forced on a single witness
    /// tuple until a fixpoint (`true`) or until two distinct constants are
    /// forced on one attribute (`false`).
    pub(crate) fn propagates(&self, alive: &[bool]) -> bool {
        let mut forced: Vec<Option<u32>> = vec![None; self.width];
        loop {
            let mut changed = false;
            for (f, _) in self.fragments.iter().zip(alive).filter(|(_, &live)| live) {
                // A wildcard RHS forces nothing on a single tuple.
                let (b, Pat::Const(c)) = f.rhs else { continue };
                let fires = f.lhs.iter().all(|&(a, p)| match p {
                    Pat::Any => true,
                    Pat::Const(c) => forced[a] == Some(c),
                });
                if !fires {
                    continue;
                }
                match forced[b] {
                    Some(existing) if existing != c => return false,
                    Some(_) => {}
                    None => {
                        forced[b] = Some(c);
                        changed = true;
                    }
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// The pattern closure of
    /// [`cfd_implies_closure`](crate::implication::cfd_implies_closure) for
    /// one fragment against the live fragments (the fragment's own bit is
    /// normally clear).  It does *not* test the live set's consistency; an
    /// inconsistent set implies everything, so callers check
    /// [`propagates`](Self::propagates) first.
    pub(crate) fn implies(&self, alive: &[bool], frag: usize) -> bool {
        let phi = &self.fragments[frag];
        let mut known = vec![Known::Unknown; self.width];
        for &(a, p) in &phi.lhs {
            known[a] = match p {
                Pat::Any => Known::Equal,
                Pat::Const(c) => Known::Const(c),
            };
        }
        loop {
            let mut changed = false;
            for (psi, _) in self.fragments.iter().zip(alive).filter(|(_, &live)| live) {
                // Pair mode: every LHS attribute is known to be shared, and
                // every LHS constant is the known shared value.
                let fires_pair = psi.lhs.iter().all(|&(a, p)| match (known[a], p) {
                    (Known::Unknown, _) => false,
                    (_, Pat::Any) => true,
                    (Known::Const(v), Pat::Const(c)) => v == c,
                    (Known::Equal, Pat::Const(_)) => false,
                });
                // Single-tuple mode: only the constant LHS entries need to be
                // known (wildcards match any single tuple trivially).
                let fires = fires_pair
                    || psi.lhs.iter().all(|&(a, p)| match p {
                        Pat::Any => true,
                        Pat::Const(c) => known[a] == Known::Const(c),
                    });
                if !fires {
                    continue;
                }
                let (b, rhs) = psi.rhs;
                let incoming = match rhs {
                    Pat::Any if fires_pair => Known::Equal,
                    Pat::Any => continue, // single-tuple mode forces nothing
                    Pat::Const(c) => Known::Const(c),
                };
                match (known[b], incoming) {
                    (Known::Unknown, _) | (Known::Equal, Known::Const(_)) => {
                        known[b] = incoming;
                        changed = true;
                    }
                    // Two constants on one attribute: the premise is
                    // unsatisfiable, so the fragment holds vacuously.
                    (Known::Const(v), Known::Const(c)) if v != c => return true,
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        let (b, rhs) = phi.rhs;
        match (rhs, known[b]) {
            (_, Known::Unknown) => false,
            (Pat::Any, _) => true,
            (Pat::Const(c), Known::Const(v)) => v == c,
            (Pat::Const(_), Known::Equal) => false,
        }
    }
}
