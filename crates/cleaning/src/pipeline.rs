//! The end-to-end cleaning pipeline: detect, match, fuse, repair, verify.
//!
//! Stage order matters and encodes the paper's argument for combining the
//! two processes (Section 6): master-data fusion runs *before* heuristic
//! repair, so that every violation that can be fixed with evidence (a master
//! value for the same real-world entity) is fixed that way, and the cost-
//! based heuristic only has to deal with the remainder — tuples the matcher
//! could not identify, or attributes the master is not trusted for.

use crate::fusion::{fuse_from_master, FusionLog};
use crate::master::{match_against_master, MasterData};
use dq_core::analysis::ensure_consistent;
use dq_core::cfd::Cfd;
use dq_core::engine::DetectionEngine;
use dq_match::rck::RelativeKey;
use dq_relation::{DqResult, RelationInstance};
use dq_repair::model::RepairCost;
use dq_repair::urepair::{repair_cfd_violations_with_engine, RepairConfig};

/// What happened in one pipeline stage.
#[derive(Clone, Debug)]
pub struct StageSummary {
    /// Stage name ("detect", "match", "fuse", "repair", "verify").
    pub stage: String,
    /// Number of violations outstanding after the stage (where applicable).
    pub violations: usize,
    /// Number of cell changes the stage made.
    pub changes: usize,
}

/// Configuration and state of the unified cleaning pipeline.
#[derive(Clone, Debug)]
pub struct CleaningPipeline {
    /// The conditional dependencies that define consistency.
    pub cfds: Vec<Cfd>,
    /// Matching rules (relative keys) used to identify dirty tuples with
    /// master records.  Ignored when no master data is supplied.
    pub rules: Vec<RelativeKey>,
    /// The master data, when available.
    pub master: Option<MasterData>,
    /// Attributes the master is trusted for (fusion overwrites these).
    pub fusion_attrs: Vec<usize>,
    /// Cost model of the heuristic repair stage.
    pub cost: RepairCost,
    /// Bounds of the heuristic repair stage.
    pub repair_config: RepairConfig,
}

impl CleaningPipeline {
    /// A pipeline with just CFD repair (no master data): the Section 5.1
    /// baseline.
    pub fn repair_only(cfds: Vec<Cfd>) -> Self {
        CleaningPipeline {
            cfds,
            rules: Vec::new(),
            master: None,
            fusion_attrs: Vec::new(),
            cost: RepairCost::uniform(),
            repair_config: RepairConfig::default(),
        }
    }

    /// A pipeline that matches against `master` with `rules`, fuses
    /// `fusion_attrs` and then repairs the remainder against `cfds`.
    pub fn with_master(
        cfds: Vec<Cfd>,
        master: MasterData,
        rules: Vec<RelativeKey>,
        fusion_attrs: Vec<usize>,
    ) -> Self {
        CleaningPipeline {
            cfds,
            rules,
            master: Some(master),
            fusion_attrs,
            cost: RepairCost::uniform(),
            repair_config: RepairConfig::default(),
        }
    }

    /// Runs the pipeline on a dirty instance with a private engine.
    ///
    /// Detection at every stage goes through one shared
    /// [`DetectionEngine`], so all stages benefit from interned columnar
    /// indexes, LHS groups of the CFD set build each index once, and the
    /// back-to-back detections over an unchanged instance (the post-repair
    /// check and the final verification) are served from the warm pool
    /// instead of rebuilding.
    ///
    /// Refuses an inconsistent CFD set up front with
    /// [`DqError::InconsistentConstraints`](dq_relation::DqError), carrying
    /// the minimal conflicting core — no stage runs against rules no
    /// instance can satisfy.
    pub fn run(&self, dirty: &RelationInstance) -> DqResult<CleaningReport> {
        self.run_with_engine(dirty, &DetectionEngine::new())
    }

    /// [`run`](Self::run) over a caller-supplied engine, so a batch of
    /// pipeline runs (or a pipeline interleaved with detection, repair or
    /// discovery over the same instances) shares one warm index pool
    /// instead of each run building its own.
    pub fn run_with_engine(
        &self,
        dirty: &RelationInstance,
        engine: &DetectionEngine,
    ) -> DqResult<CleaningReport> {
        let _span = dq_relation::obs::span!("clean.pipeline", deps = self.cfds.len());
        ensure_consistent(&self.cfds)?;
        let mut stages = Vec::new();
        let initial = engine.detect_cfd_violations(dirty, &self.cfds);
        stages.push(StageSummary {
            stage: "detect".into(),
            violations: initial.total(),
            changes: 0,
        });

        // Stage 2: object identification + fusion from the master.  Both
        // read the dirty instance; only fusion derives a new one.
        let mut fused = None;
        let mut fusion_log = FusionLog::default();
        let mut master_matches = 0usize;
        let mut ambiguous_matches = 0usize;
        if let Some(master) = &self.master {
            let (matches, ambiguous) = match_against_master(dirty, master, &self.rules);
            master_matches = matches.len();
            ambiguous_matches = ambiguous;
            let (out, log) = fuse_from_master(dirty, master, &matches, &self.fusion_attrs);
            fusion_log = log;
            stages.push(StageSummary {
                stage: "fuse".into(),
                violations: engine.detect_cfd_violations(&out, &self.cfds).total(),
                changes: fusion_log.change_count(),
            });
            fused = Some(out);
        }

        // Stage 3: heuristic, cost-based repair of whatever is left.  The
        // repair loop detects through the same engine, so its final
        // consistency check warms the pool the verify stage reads from.
        let outcome = repair_cfd_violations_with_engine(
            fused.as_ref().unwrap_or(dirty),
            &self.cfds,
            &self.cost,
            &self.repair_config,
            engine,
        )?;
        let repair_changes = outcome.log.change_count();
        let current = outcome.repaired;
        stages.push(StageSummary {
            stage: "repair".into(),
            violations: engine.detect_cfd_violations(&current, &self.cfds).total(),
            changes: repair_changes,
        });

        let final_report = engine.detect_cfd_violations(&current, &self.cfds);
        let remaining_violations = final_report.total();
        stages.push(StageSummary {
            stage: "verify".into(),
            violations: remaining_violations,
            changes: 0,
        });

        Ok(CleaningReport {
            cleaned: current,
            initial_violations: initial.total(),
            remaining_violations,
            master_matches,
            ambiguous_matches,
            fusion_changes: fusion_log.change_count(),
            repair_changes,
            consistent: remaining_violations == 0,
            stages,
        })
    }
}

/// The outcome of a pipeline run.
#[derive(Clone, Debug)]
pub struct CleaningReport {
    /// The cleaned instance.
    pub cleaned: RelationInstance,
    /// CFD violations in the input.
    pub initial_violations: usize,
    /// CFD violations left after all stages.
    pub remaining_violations: usize,
    /// Dirty tuples identified with a master record.
    pub master_matches: usize,
    /// Dirty tuples with more than one master candidate.
    pub ambiguous_matches: usize,
    /// Cells corrected from the master.
    pub fusion_changes: usize,
    /// Cells changed by the heuristic repair.
    pub repair_changes: usize,
    /// Whether the cleaned instance satisfies every CFD.
    pub consistent: bool,
    /// Per-stage summaries, in execution order.
    pub stages: Vec<StageSummary>,
}

impl CleaningReport {
    /// Total number of cell changes across all stages.
    pub fn total_changes(&self) -> usize {
        self.fusion_changes + self.repair_changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::MasterData;
    use dq_gen::customer::{customer_schema, paper_cfds};
    use dq_gen::master::{generate_master_workload, MasterConfig};
    use dq_match::similarity::SimilarityOp;
    use dq_repair::quality::score_repair;

    fn rules() -> Vec<RelativeKey> {
        let schema = customer_schema();
        vec![RelativeKey::new(
            &schema,
            &schema,
            vec![
                ("phn", "phn", SimilarityOp::Equality),
                ("name", "name", SimilarityOp::edit(12)),
            ],
            &["street", "city", "zip"],
            &["street", "city", "zip"],
        )
        .expect("well-formed relative key")]
    }

    fn address_attrs() -> Vec<usize> {
        let s = customer_schema();
        vec![s.attr("street"), s.attr("city"), s.attr("zip")]
    }

    fn workload() -> dq_gen::master::MasterWorkload {
        generate_master_workload(&MasterConfig {
            entities: 250,
            error_rate: 0.25,
            name_variation_rate: 0.4,
            seed: 33,
        })
    }

    #[test]
    fn master_pipeline_restores_the_ground_truth() {
        let w = workload();
        let pipeline = CleaningPipeline::with_master(
            paper_cfds(),
            MasterData::new(w.master.clone()),
            rules(),
            address_attrs(),
        );
        let report = pipeline.run(&w.dirty).expect("consistent rule set");
        assert!(
            report.consistent,
            "master-backed cleaning must resolve every violation"
        );
        assert_eq!(report.master_matches, 250);
        let quality = score_repair(&w.clean, &w.dirty, &report.cleaned);
        assert!(
            quality.precision > 0.99 && quality.recall > 0.99,
            "master-backed cleaning should be essentially exact, got {quality:?}"
        );
    }

    #[test]
    fn repair_only_pipeline_fixes_fewer_errors_correctly() {
        let w = workload();
        let with_master = CleaningPipeline::with_master(
            paper_cfds(),
            MasterData::new(w.master.clone()),
            rules(),
            address_attrs(),
        )
        .run(&w.dirty)
        .expect("consistent rule set");
        let repair_only = CleaningPipeline::repair_only(paper_cfds())
            .run(&w.dirty)
            .expect("consistent rule set");
        let q_master = score_repair(&w.clean, &w.dirty, &with_master.cleaned);
        let q_repair = score_repair(&w.clean, &w.dirty, &repair_only.cleaned);
        assert!(
            q_master.recall >= q_repair.recall,
            "master-backed cleaning must not recall fewer errors than blind repair ({:?} vs {:?})",
            q_master,
            q_repair
        );
        assert!(
            q_master.f1 > q_repair.f1,
            "master data should add measurable value"
        );
    }

    #[test]
    fn engine_backed_stages_match_naive_detection_counts() {
        // The pipeline detects through a shared engine; its reported counts
        // must equal what the naive per-dependency detectors find.
        let w = workload();
        let report = CleaningPipeline::repair_only(paper_cfds())
            .run(&w.dirty)
            .expect("consistent rule set");
        let naive = dq_core::reference::detect_cfd_violations(&w.dirty, &paper_cfds());
        assert_eq!(report.initial_violations, naive.total());
        let naive_after = dq_core::reference::detect_cfd_violations(&report.cleaned, &paper_cfds());
        assert_eq!(report.remaining_violations, naive_after.total());
    }

    #[test]
    fn shared_engine_runs_match_private_engine_runs() {
        let w = workload();
        let pipeline = CleaningPipeline::repair_only(paper_cfds());
        let engine = DetectionEngine::new();
        let shared = pipeline
            .run_with_engine(&w.dirty, &engine)
            .expect("consistent rule set");
        let private = pipeline.run(&w.dirty).expect("consistent rule set");
        assert_eq!(shared.initial_violations, private.initial_violations);
        assert_eq!(shared.remaining_violations, private.remaining_violations);
        assert_eq!(shared.repair_changes, private.repair_changes);
        assert!(shared.cleaned.same_tuples_as(&private.cleaned));
        // A second run over the same engine builds nothing cold: the
        // initial detection hits the warm pool, and the repair's clone
        // patches the dirty instance's entries over its writes.
        let before = engine.pool_stats();
        let again = pipeline
            .run_with_engine(&w.dirty, &engine)
            .expect("consistent rule set");
        assert_eq!(again.initial_violations, shared.initial_violations);
        let after = engine.pool_stats();
        assert!(after.donor_patches > before.donor_patches, "{after:?}");
        assert_eq!(
            after.misses - before.misses,
            (after.patches - before.patches) + (after.appends - before.appends),
            "every miss of the second run was an upgrade, none a cold build"
        );
    }

    #[test]
    fn clean_input_passes_through_unchanged() {
        let w = generate_master_workload(&MasterConfig {
            entities: 80,
            error_rate: 0.0,
            name_variation_rate: 0.0,
            seed: 2,
        });
        let pipeline = CleaningPipeline::with_master(
            paper_cfds(),
            MasterData::new(w.master.clone()),
            rules(),
            address_attrs(),
        );
        let report = pipeline.run(&w.dirty).expect("consistent rule set");
        assert_eq!(report.initial_violations, 0);
        assert_eq!(report.total_changes(), 0);
        assert!(report.cleaned.same_tuples_as(&w.dirty));
    }

    #[test]
    fn stage_summaries_track_monotone_violation_decrease() {
        let w = workload();
        let pipeline = CleaningPipeline::with_master(
            paper_cfds(),
            MasterData::new(w.master.clone()),
            rules(),
            address_attrs(),
        );
        let report = pipeline.run(&w.dirty).expect("consistent rule set");
        let violations: Vec<usize> = report.stages.iter().map(|s| s.violations).collect();
        assert!(
            violations.windows(2).all(|w| w[1] <= w[0]),
            "violations must not increase across stages: {violations:?}"
        );
        assert_eq!(report.stages.first().unwrap().stage, "detect");
        assert_eq!(report.stages.last().unwrap().stage, "verify");
    }
}
