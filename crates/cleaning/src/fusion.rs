//! Correction of matched dirty tuples from the master data.
//!
//! Once a dirty tuple has been identified with a master record, the
//! attributes the deployment trusts the master for (the *fusion attributes*)
//! can be overwritten with the master's values.  Unlike the heuristic repair
//! of `dq-repair`, these fixes are evidence-backed: the new value comes from
//! a record known to describe the same real-world entity, which is exactly
//! the guidance Section 5.1 says a bare cost model lacks.

use crate::master::{MasterData, MasterMatch};
use dq_relation::instance::CellRef;
use dq_relation::{RelationInstance, TupleId, Value};

/// Log of the cell updates performed by fusion.
#[derive(Clone, Debug, Default)]
pub struct FusionLog {
    /// Cell updates: `(dirty tuple, attribute, old value, new value)`.
    pub changes: Vec<(TupleId, usize, Value, Value)>,
    /// Dirty tuples touched.
    pub tuples_corrected: usize,
}

impl FusionLog {
    /// Number of cells changed.
    pub fn change_count(&self) -> usize {
        self.changes.len()
    }
}

/// Overwrites the `fusion_attrs` of every matched dirty tuple with the
/// corresponding master values.  Cells already agreeing with the master are
/// left untouched (and not logged).
///
/// Returns the corrected instance and the log of changes.
pub fn fuse_from_master(
    dirty: &RelationInstance,
    master: &MasterData,
    matches: &[MasterMatch],
    fusion_attrs: &[usize],
) -> (RelationInstance, FusionLog) {
    let _span = dq_relation::obs::span!("clean.fuse", matches = matches.len());
    let mut out = dirty.clone();
    let mut log = FusionLog::default();
    for m in matches {
        let Some(master_tuple) = master.instance().tuple(m.master) else {
            continue;
        };
        let mut touched = false;
        for &attr in fusion_attrs {
            let cell = CellRef::new(m.dirty, attr);
            let master_value = master_tuple.get(attr);
            if out.cell(cell).is_none_or(|current| current == master_value) {
                continue;
            }
            let old = out
                .update_cell(cell, master_value.clone())
                .expect("master values satisfy the shared schema")
                .expect("the matched tuple is live");
            log.changes.push((m.dirty, attr, old, master_value.clone()));
            touched = true;
        }
        if touched {
            log.tuples_corrected += 1;
        }
    }
    dq_relation::obs::add("clean.fuse.changes", log.change_count() as u64);
    (out, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_gen::customer::customer_schema;
    use dq_gen::master::{generate_master_workload, MasterConfig};

    fn workload() -> dq_gen::master::MasterWorkload {
        generate_master_workload(&MasterConfig {
            entities: 150,
            error_rate: 0.3,
            name_variation_rate: 0.4,
            seed: 21,
        })
    }

    fn address_attrs() -> Vec<usize> {
        let s = customer_schema();
        vec![s.attr("street"), s.attr("city"), s.attr("zip")]
    }

    #[test]
    fn fusion_with_perfect_matches_restores_the_clean_instance() {
        let w = workload();
        let master = MasterData::new(w.master.clone());
        let matches: Vec<MasterMatch> = w
            .truth
            .iter()
            .map(|&(d, m)| MasterMatch {
                dirty: d,
                master: m,
            })
            .collect();
        let (fused, log) = fuse_from_master(&w.dirty, &master, &matches, &address_attrs());
        assert!(
            fused.same_tuples_as(&w.clean),
            "fusion from the true matches must equal the ground truth"
        );
        assert_eq!(log.change_count(), w.corrupted_cells.len());
    }

    #[test]
    fn fusion_without_matches_changes_nothing() {
        let w = workload();
        let master = MasterData::new(w.master.clone());
        let (fused, log) = fuse_from_master(&w.dirty, &master, &[], &address_attrs());
        assert!(fused.same_tuples_as(&w.dirty));
        assert_eq!(log.change_count(), 0);
        assert_eq!(log.tuples_corrected, 0);
    }

    #[test]
    fn fusion_only_touches_the_fusion_attributes() {
        let w = workload();
        let master = MasterData::new(w.master.clone());
        let matches: Vec<MasterMatch> = w
            .truth
            .iter()
            .map(|&(d, m)| MasterMatch {
                dirty: d,
                master: m,
            })
            .collect();
        let name_attr = customer_schema().attr("name");
        let (fused, _) = fuse_from_master(&w.dirty, &master, &matches, &address_attrs());
        for (id, tuple) in fused.iter() {
            assert_eq!(
                tuple.get(name_attr),
                w.dirty.tuple(id).unwrap().get(name_attr),
                "names (not a fusion attribute) must keep their dirty-side spelling"
            );
        }
    }

    #[test]
    fn dangling_matches_are_ignored() {
        let w = workload();
        let master = MasterData::new(w.master.clone());
        let bogus = vec![MasterMatch {
            dirty: TupleId(0),
            master: TupleId(999_999),
        }];
        let (fused, log) = fuse_from_master(&w.dirty, &master, &bogus, &address_attrs());
        assert!(fused.same_tuples_as(&w.dirty));
        assert_eq!(log.change_count(), 0);
    }
}
