//! The rule-lint pass: severity-ranked, witness-carrying diagnostics over a
//! CFD set, computed with the solver of [`super::solver`].
//!
//! The lint catalog (severities in display order):
//!
//! | severity | code                   | meaning                                             |
//! |----------|------------------------|-----------------------------------------------------|
//! | error    | `inconsistent-set`     | no nonempty instance satisfies the set; the witness is a *minimal conflicting core* (deletion-minimized: dropping any one core rule restores consistency) |
//! | warning  | `unsatisfiable-pattern`| a tableau row no tuple can satisfy (an attribute on both sides of the rule with conflicting constants, or a constant outside its domain) — every LHS match is an automatic violation |
//! | warning  | `subsumed-pattern`     | a tableau row enforced by a strictly more general row of the same rule |
//! | warning  | `duplicate-pattern`    | a tableau row repeated verbatim within one rule      |
//! | warning  | `duplicate-rule`       | a rule repeated verbatim in the set                  |
//! | info     | `implied-rule`         | a rule implied by the remaining rules (safe to drop; [`cfd_minimal_cover`](crate::implication::cfd_minimal_cover) would remove it) |
//!
//! Diagnostics are ordered most-severe-first and carry the indices of the
//! offending rules in the *input* slice, so callers can map them back to
//! their own rule registry.  [`RuleLintReport::render`] produces a
//! human-readable form, [`RuleLintReport::to_json`] a machine-readable
//! export.

use super::packed::PackedCfds;
use super::solver::solve_cfd_consistency;
use crate::cfd::Cfd;
use crate::implication::cfd_implies;
use crate::pattern::PatternValue;
use std::fmt;

/// Severity of a [`LintDiagnostic`].  `Error` means the set must not drive
/// detection or repair; `Warning` flags dead or duplicated pattern weight;
/// `Info` flags redundancy that is safe but wasteful.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintSeverity {
    /// The rule set is unusable as-is.
    Error,
    /// A pattern is dead weight or a trap (unsatisfiable/subsumed/duplicate).
    Warning,
    /// Redundancy: correct but slower than necessary.
    Info,
}

impl fmt::Display for LintSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintSeverity::Error => write!(f, "error"),
            LintSeverity::Warning => write!(f, "warning"),
            LintSeverity::Info => write!(f, "info"),
        }
    }
}

/// One lint finding: severity, a stable code, the indices of the offending
/// rules in the input slice, and a human-readable message carrying the
/// witness (core rules, subsuming row, conflicting constants, …).
#[derive(Clone, Debug)]
pub struct LintDiagnostic {
    /// Severity rank.
    pub severity: LintSeverity,
    /// Stable machine-readable code, e.g. `inconsistent-set`.
    pub code: &'static str,
    /// Indices of the offending rules in the linted slice.
    pub rules: Vec<usize>,
    /// Human-readable explanation, including the witness.
    pub message: String,
}

/// The result of [`lint_cfds`]: diagnostics ranked most-severe-first, plus
/// the minimal conflicting core when the set is inconsistent.
#[derive(Clone, Debug, Default)]
pub struct RuleLintReport {
    diagnostics: Vec<LintDiagnostic>,
    /// Indices (into the linted slice) of a minimal inconsistent core, when
    /// the set is inconsistent.
    core: Option<Vec<usize>>,
}

impl RuleLintReport {
    /// All diagnostics, most severe first.
    pub fn diagnostics(&self) -> &[LintDiagnostic] {
        &self.diagnostics
    }

    /// Is the linted set consistent?
    pub fn is_consistent(&self) -> bool {
        self.core.is_none()
    }

    /// The minimal conflicting core (rule indices), when inconsistent:
    /// dropping any single core rule makes the remainder consistent.
    pub fn core(&self) -> Option<&[usize]> {
        self.core.as_deref()
    }

    /// Number of diagnostics at the given severity.
    pub fn count(&self, severity: LintSeverity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Human-readable rendering, one diagnostic per line, most severe first.
    pub fn render(&self) -> String {
        if self.diagnostics.is_empty() {
            return "rule lint: clean (no findings)".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            let rules = d
                .rules
                .iter()
                .map(|r| format!("#{r}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "{}[{}] rules {}: {}\n",
                d.severity, d.code, rules, d.message
            ));
        }
        out.pop();
        out
    }

    /// JSON export of the report (diagnostics array plus the core, if any).
    /// Hand-rolled — the workspace has no serde — with full string escaping.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"consistent\":");
        out.push_str(if self.is_consistent() {
            "true"
        } else {
            "false"
        });
        if let Some(core) = &self.core {
            out.push_str(",\"core\":[");
            out.push_str(
                &core
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push(']');
        }
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"severity\":\"{}\",\"code\":\"{}\",\"rules\":[{}],\"message\":\"{}\"}}",
                d.severity,
                d.code,
                d.rules
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                escape_json(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Deletion-based minimization of an inconsistent rule set: walk the rules
/// once, dropping every rule whose removal keeps the rest inconsistent.
/// Because consistency is anti-monotone in the rule set (supersets of an
/// inconsistent set stay inconsistent), a single pass yields a *minimal*
/// core: removing any one remaining rule restores consistency.  Indices
/// refer to the input slice.
pub fn minimal_inconsistent_core(cfds: &[Cfd]) -> Vec<usize> {
    debug_assert!(!solve_cfd_consistency(cfds, 0).consistent);
    let mut keep: Vec<usize> = (0..cfds.len()).collect();
    let mut i = 0;
    while i < keep.len() {
        let trial: Vec<Cfd> = keep
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &r)| cfds[r].clone())
            .collect();
        if !solve_cfd_consistency(&trial, 0).consistent {
            keep.remove(i);
        } else {
            i += 1;
        }
    }
    keep
}

/// Lints a CFD set: consistency (with a deletion-minimized conflicting
/// core), per-rule pattern hygiene (unsatisfiable, subsumed, duplicate
/// rows), duplicate rules, and — when the set is consistent — implied rules.
/// Diagnostics come back most-severe-first; counters go to `dq_obs` under
/// `analysis.lint.*`.
pub fn lint_cfds(cfds: &[Cfd]) -> RuleLintReport {
    let _span = dq_obs::span!("analysis.lint", rules = cfds.len());
    let mut diagnostics: Vec<LintDiagnostic> = Vec::new();

    // Error: inconsistent set, witnessed by a minimal conflicting core.
    let consistency = solve_cfd_consistency(cfds, 0);
    let core = if consistency.consistent {
        None
    } else {
        let core = minimal_inconsistent_core(cfds);
        dq_obs::add("analysis.lint.core_size", core.len() as u64);
        let listing = core
            .iter()
            .map(|&r| cfds[r].to_string())
            .collect::<Vec<_>>()
            .join(" ; ");
        diagnostics.push(LintDiagnostic {
            severity: LintSeverity::Error,
            code: "inconsistent-set",
            rules: core.clone(),
            message: format!(
                "no nonempty instance satisfies these rules together; \
                 minimal conflicting core: {listing}"
            ),
        });
        Some(core)
    };

    // Warnings: per-rule pattern hygiene.
    for (r, cfd) in cfds.iter().enumerate() {
        lint_patterns(r, cfd, &mut diagnostics);
    }
    // Warning: rules repeated verbatim.
    for (i, a) in cfds.iter().enumerate() {
        for (j, b) in cfds.iter().enumerate().skip(i + 1) {
            if a == b {
                diagnostics.push(LintDiagnostic {
                    severity: LintSeverity::Warning,
                    code: "duplicate-rule",
                    rules: vec![i, j],
                    message: format!("rule #{j} repeats rule #{i} verbatim: {a}"),
                });
            }
        }
    }

    // Info: redundant rules (only meaningful for a consistent set — an
    // inconsistent set implies everything).  Every leave-one-out rest is a
    // subset of the consistent set, hence consistent itself, so each test is
    // the pattern closure on the compiled set with the rule's own fragments
    // masked out, and the solver on the finite-domain residue the closure
    // is incomplete for.
    if core.is_none() {
        let packed = PackedCfds::compile(cfds);
        let mut alive = vec![true; packed.len()];
        let mut implied_rules = 0u64;
        for (r, cfd) in cfds.iter().enumerate() {
            let own = packed.rule_fragments(r);
            alive[own.clone()].fill(false);
            let implied = own.clone().all(|f| packed.implies(&alive, f))
                || (own.clone().any(|f| packed.touches_finite(&alive, f)) && {
                    let rest: Vec<Cfd> = cfds
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != r)
                        .map(|(_, c)| c.clone())
                        .collect();
                    cfd_implies(&rest, cfd)
                });
            alive[own].fill(true);
            if implied {
                implied_rules += 1;
                diagnostics.push(LintDiagnostic {
                    severity: LintSeverity::Info,
                    code: "implied-rule",
                    rules: vec![r],
                    message: format!(
                        "rule is implied by the remaining rules and can be dropped: {cfd}"
                    ),
                });
            }
        }
        dq_obs::add("analysis.lint.implied", implied_rules);
    }

    diagnostics.sort_by_key(|d| d.severity);
    dq_obs::add(
        "analysis.lint.errors",
        diagnostics
            .iter()
            .filter(|d| d.severity == LintSeverity::Error)
            .count() as u64,
    );
    dq_obs::add(
        "analysis.lint.warnings",
        diagnostics
            .iter()
            .filter(|d| d.severity == LintSeverity::Warning)
            .count() as u64,
    );
    dq_obs::add(
        "analysis.lint.infos",
        diagnostics
            .iter()
            .filter(|d| d.severity == LintSeverity::Info)
            .count() as u64,
    );
    RuleLintReport { diagnostics, core }
}

/// Pattern hygiene for one rule: unsatisfiable rows (conflicting constants
/// on an attribute shared by LHS and RHS, or constants outside their
/// domain), rows subsumed by a more general row, and verbatim duplicates.
fn lint_patterns(r: usize, cfd: &Cfd, diagnostics: &mut Vec<LintDiagnostic>) {
    let schema = cfd.schema();
    let tableau = cfd.tableau();
    for (k, row) in tableau.iter().enumerate() {
        // Unsatisfiable: an attribute on both sides with conflicting
        // constants — every tuple matching the LHS violates the row.
        for (lp, &la) in row.lhs.iter().zip(cfd.lhs()) {
            for (rp, &ra) in row.rhs.iter().zip(cfd.rhs()) {
                if la == ra {
                    if let (PatternValue::Const(lc), PatternValue::Const(rc)) = (lp, rp) {
                        if lc != rc {
                            diagnostics.push(LintDiagnostic {
                                severity: LintSeverity::Warning,
                                code: "unsatisfiable-pattern",
                                rules: vec![r],
                                message: format!(
                                    "pattern row {k} binds `{}` to {lc} on the LHS but \
                                     demands {rc} on the RHS; every LHS match is an \
                                     automatic violation",
                                    schema.attr_name(la)
                                ),
                            });
                        }
                    }
                }
            }
        }
        // Unsatisfiable: a constant outside its attribute's domain (cannot
        // arise through the validated constructors, but imported rule sets
        // may bypass them).
        for (p, &a) in row
            .lhs
            .iter()
            .zip(cfd.lhs())
            .chain(row.rhs.iter().zip(cfd.rhs()))
        {
            if let PatternValue::Const(c) = p {
                if !schema.domain(a).contains(c) {
                    diagnostics.push(LintDiagnostic {
                        severity: LintSeverity::Warning,
                        code: "unsatisfiable-pattern",
                        rules: vec![r],
                        message: format!(
                            "pattern row {k} binds `{}` to {c}, which is outside the \
                             attribute's domain",
                            schema.attr_name(a)
                        ),
                    });
                }
            }
        }
        // Duplicate and subsumed rows.
        for (j, other) in tableau.iter().enumerate() {
            if j == k {
                continue;
            }
            if j > k && row == other {
                diagnostics.push(LintDiagnostic {
                    severity: LintSeverity::Warning,
                    code: "duplicate-pattern",
                    rules: vec![r],
                    message: format!("pattern row {j} repeats row {k} verbatim: {row}"),
                });
                continue;
            }
            // Row `other` (index j) subsumes row `row` (index k) when
            // `other`'s LHS is entrywise at least as general (so it fires
            // whenever `row` fires) and its RHS constraint is at least as
            // strong (`row`'s RHS is a wildcard, or the constants agree).
            // Ties on equal rows are broken by index so only one direction
            // reports.
            if row != other
                && row
                    .lhs
                    .iter()
                    .zip(&other.lhs)
                    .all(|(mine, theirs)| mine.subsumes(theirs))
                && row
                    .rhs
                    .iter()
                    .zip(&other.rhs)
                    .all(|(mine, theirs)| matches!(mine, PatternValue::Any) || mine == theirs)
            {
                diagnostics.push(LintDiagnostic {
                    severity: LintSeverity::Warning,
                    code: "subsumed-pattern",
                    rules: vec![r],
                    message: format!(
                        "pattern row {k} ({row}) is enforced by the more general row {j} \
                         ({other}) and can be dropped"
                    ),
                });
            }
        }
    }
}
