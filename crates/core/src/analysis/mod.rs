//! Static analysis of dependency sets (Section 4.1, Table 1).
//!
//! This module is the front door to the constraint static-analysis engine:
//!
//! * [`solver`] — the propagation-guided decision procedures behind
//!   [`cfd_set_consistent`](crate::consistency::cfd_set_consistent) and
//!   [`cfd_implies_exact`](crate::implication::cfd_implies_exact);
//! * [`lint`] — the rule-lint pass (severity-ranked diagnostics with
//!   witnesses: minimal inconsistent cores, implied rules, subsumed /
//!   duplicate / unsatisfiable patterns);
//! * `packed` — the compiled, mask-selected form of a rule set that the
//!   redundancy tests of [`cfd_minimal_cover`], the lint pass and
//!   [`cfd_implies_closure`](crate::implication::cfd_implies_closure) run
//!   on;
//! * [`analyze_cfds`] / [`ensure_consistent`] — the vetting entry points the
//!   pipelines call before a rule set is allowed to drive detection,
//!   discovery post-passes, or repair.
//!
//! Everything here reports through `dq_obs` under `analysis.*` (spans for
//! each pass, node/propagation/conflict/core counters) and steers nothing by
//! the instrumentation — verdicts are deterministic at any thread count.

pub mod lint;
pub(crate) mod packed;
pub mod solver;

pub use lint::{lint_cfds, LintDiagnostic, LintSeverity, RuleLintReport};
pub use solver::{AnalysisStats, ImplicationResult};

use crate::cfd::Cfd;
use crate::implication::cfd_minimal_cover;
use dq_relation::{DqError, DqResult, Tuple};

/// Options for [`analyze_cfds`].
#[derive(Clone, Copy, Debug)]
pub struct AnalysisOptions {
    /// Worker threads for the solver's top-level fan-out (`0` = all cores).
    /// Verdicts and witnesses are identical at any setting.
    pub threads: usize,
    /// Replace the rule set with its canonical minimal cover
    /// ([`cfd_minimal_cover`]), dropping implied rules.
    pub minimal_cover: bool,
    /// Run the full lint pass.  When off, only consistency is checked and
    /// the report carries the inconsistent-set finding at most.
    pub lint: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            threads: 0,
            minimal_cover: false,
            lint: true,
        }
    }
}

/// A vetted CFD set: the (possibly cover-pruned) rules, the lint report, a
/// consistency witness, and solver statistics.  Produced by
/// [`analyze_cfds`]; detect with
/// [`DetectionEngine::detect_cfd_violations`](crate::engine::DetectionEngine::detect_cfd_violations)`(instance, &analyzed.rules)`.
#[derive(Clone, Debug)]
pub struct AnalyzedCfds {
    /// The rules detection and repair should run with (the minimal cover
    /// when [`AnalysisOptions::minimal_cover`] was set, the input otherwise).
    pub rules: Vec<Cfd>,
    /// Rules removed by cover pruning (`0` without `minimal_cover`).
    pub dropped: usize,
    /// The lint findings (at least the consistency verdict).
    pub report: RuleLintReport,
    /// A single-tuple witness that the set is satisfiable.
    pub witness: Option<Tuple>,
    /// Solver statistics of the consistency check.
    pub stats: AnalysisStats,
}

/// Builds the [`DqError::InconsistentConstraints`] for an inconsistent set:
/// the deletion-minimized core, rendered in rule display form.
fn inconsistent_error(cfds: &[Cfd], core: &[usize]) -> DqError {
    DqError::InconsistentConstraints {
        core: core.iter().map(|&r| cfds[r].to_string()).collect(),
    }
}

/// Refuses a rule set that spans more than one relation schema: a CFD set
/// is analyzed as constraints on one relation, with attribute positions of
/// the first rule's schema.
fn single_schema(cfds: &[Cfd]) -> DqResult<()> {
    let Some(first) = cfds.first() else {
        return Ok(());
    };
    match cfds.iter().find(|c| c.schema() != first.schema()) {
        None => Ok(()),
        Some(other) => Err(DqError::MalformedDependency {
            reason: format!(
                "CFD set spans relation schemas `{}` and `{}`; rules over one \
                 relation are analyzed together",
                first.schema().name(),
                other.schema().name()
            ),
        }),
    }
}

/// Vets a CFD set for use by detection, discovery post-passes, or repair:
/// rejects inconsistent sets with the minimal conflicting core in the
/// error, lints the survivors, and optionally replaces them with their
/// canonical minimal cover.
///
/// Rules over more than one relation schema are refused up front with
/// [`DqError::MalformedDependency`].
pub fn analyze_cfds(cfds: &[Cfd], options: &AnalysisOptions) -> DqResult<AnalyzedCfds> {
    let _span = dq_obs::span!("analysis.analyze", rules = cfds.len());
    single_schema(cfds)?;
    let consistency = solver::solve_cfd_consistency(cfds, options.threads);
    if !consistency.consistent {
        let core = lint::minimal_inconsistent_core(cfds);
        dq_obs::add("analysis.core.size", core.len() as u64);
        return Err(inconsistent_error(cfds, &core));
    }
    let report = if options.lint {
        lint_cfds(cfds)
    } else {
        RuleLintReport::default()
    };
    let (rules, dropped) = if options.minimal_cover {
        let cover = cfd_minimal_cover(cfds);
        let normalized: usize = cfds.iter().map(|c| c.normalize().len()).sum();
        let dropped = normalized.saturating_sub(cover.len());
        (cover, dropped)
    } else {
        (cfds.to_vec(), 0)
    };
    Ok(AnalyzedCfds {
        rules,
        dropped,
        report,
        witness: consistency.witness_tuple().cloned(),
        stats: consistency.stats,
    })
}

/// Refuses an inconsistent CFD set: `Ok(())` when some nonempty instance
/// satisfies every rule, otherwise [`DqError::InconsistentConstraints`]
/// carrying a minimal conflicting core.  This is the up-front guard of
/// [`CleaningPipeline`](../../dq_cleaning) and `repair_cfd_violations*` —
/// repairing against an inconsistent set could never converge.  Rules over
/// more than one relation schema are refused with
/// [`DqError::MalformedDependency`].
pub fn ensure_consistent(cfds: &[Cfd]) -> DqResult<()> {
    single_schema(cfds)?;
    if solver::solve_cfd_consistency(cfds, 0).consistent {
        return Ok(());
    }
    let core = lint::minimal_inconsistent_core(cfds);
    dq_obs::add("analysis.core.size", core.len() as u64);
    Err(inconsistent_error(cfds, &core))
}
