//! Master-data workload: a clean reference relation plus a dirty source that
//! must be matched against it and corrected from it.
//!
//! Section 5.1's closing remark observes that cost-based repairing gives no
//! guidance on *where new values should come from*, and that "a more
//! reasonable way is to conduct repairing based on master data (reference
//! data), whenever available — at the very least this involves object
//! identification to match tuples in the master data and those in the dirty
//! data that refer to the same object".  This generator produces exactly that
//! setting, with full ground truth:
//!
//! * a **master** relation: one clean, CFD-satisfying record per entity;
//! * a **dirty** relation: one record per entity, whose `name` may be a
//!   representation variant (abbreviated or typo'd, so exact joins fail) and
//!   whose address fields may be corrupted;
//! * the true dirty-to-master correspondence and the corrected version of
//!   every dirty tuple, so matching quality and repair quality can both be
//!   scored.

use crate::customer::customer_schema;
use dq_relation::instance::CellRef;
use dq_relation::{RelationInstance, TupleId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Configuration of the master-data workload.
#[derive(Clone, Debug)]
pub struct MasterConfig {
    /// Number of entities (master tuples; the dirty relation has one record
    /// per entity as well).
    pub entities: usize,
    /// Probability that a dirty record's address cell (street, city or zip)
    /// is corrupted.
    pub error_rate: f64,
    /// Probability that the dirty record's name is a representation variant
    /// of the master name (abbreviation or dropped letter) rather than an
    /// exact copy.
    pub name_variation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            entities: 500,
            error_rate: 0.2,
            name_variation_rate: 0.4,
            seed: 42,
        }
    }
}

/// The generated workload.
#[derive(Clone, Debug)]
pub struct MasterWorkload {
    /// The master (reference) relation: clean and trusted.
    pub master: RelationInstance,
    /// The dirty source relation.
    pub dirty: RelationInstance,
    /// What the dirty relation should look like after a perfect repair
    /// (corrupted cells restored from the master; name variants are kept, a
    /// different spelling of a name is not an error).
    pub clean: RelationInstance,
    /// Ground-truth matches `(dirty tuple, master tuple)`.
    pub truth: BTreeSet<(TupleId, TupleId)>,
    /// Cells of the dirty relation that were corrupted: `(tuple index,
    /// attribute index)`.
    pub corrupted_cells: Vec<(usize, usize)>,
}

const UK_CITIES: [(&str, i64); 3] = [("EDI", 131), ("GLA", 141), ("LDN", 20)];
const US_CITIES: [(&str, i64); 3] = [("MH", 908), ("NYC", 212), ("SF", 415)];
const FIRST_NAMES: [&str; 8] = [
    "John",
    "Mary",
    "Robert",
    "Patricia",
    "Michael",
    "Linda",
    "William",
    "Elizabeth",
];
const LAST_NAMES: [&str; 8] = [
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis",
];

/// Generates a master-data workload over the customer schema of Fig. 1.
pub fn generate_master_workload(config: &MasterConfig) -> MasterWorkload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = customer_schema();
    let street_attr = schema.attr("street");
    let city_attr = schema.attr("city");
    let zip_attr = schema.attr("zip");
    let name_attr = schema.attr("name");

    let mut master = RelationInstance::new(Arc::clone(&schema));
    for i in 0..config.entities {
        let uk = rng.gen_bool(0.5);
        let (cc, (city, ac)) = if uk {
            (44i64, UK_CITIES[rng.gen_range(0..UK_CITIES.len())])
        } else {
            (1i64, US_CITIES[rng.gen_range(0..US_CITIES.len())])
        };
        let zip_id = rng.gen_range(0..(config.entities / 4).max(1));
        let zip = format!("{}-Z{}", if uk { "UK" } else { "US" }, zip_id);
        let street = format!("{zip_id} High Street");
        let city = if cc == 44 && ac == 131 {
            "EDI".to_string()
        } else if cc == 1 && ac == 908 {
            "MH".to_string()
        } else {
            city.to_string()
        };
        let name = format!(
            "{} {}",
            FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
            LAST_NAMES[i % LAST_NAMES.len()]
        );
        master
            .insert_values([
                Value::int(cc),
                Value::int(ac),
                Value::int(5_000_000 + i as i64),
                Value::str(name),
                Value::str(street),
                Value::str(city),
                Value::str(zip),
            ])
            .expect("master tuple fits the schema");
    }

    // The dirty source: one record per master entity, with representation
    // variants on the name and corruption on the address fields.
    let mut dirty = master.clone();
    let mut truth = BTreeSet::new();
    let mut corrupted_cells = Vec::new();
    for i in 0..config.entities {
        let id = TupleId(i);
        truth.insert((id, id));
        if rng.gen_bool(config.name_variation_rate) {
            let original = dirty
                .tuple(id)
                .expect("dirty mirrors master")
                .get(name_attr)
                .as_str()
                .expect("name is a string")
                .to_string();
            dirty
                .update_cell(
                    CellRef::new(id, name_attr),
                    Value::str(vary_name(&original, &mut rng)),
                )
                .expect("name variants stay inside the text domain");
        }
        for &attr in &[street_attr, city_attr, zip_attr] {
            if rng.gen_bool(config.error_rate) {
                let wrong = match attr {
                    a if a == city_attr => Value::str("WRONGCITY"),
                    a if a == zip_attr => Value::str(format!("XX-{}", rng.gen_range(0..1_000))),
                    _ => Value::str(format!("Corrupted street {}", rng.gen_range(0..1_000))),
                };
                dirty
                    .update_cell(CellRef::new(id, attr), wrong)
                    .expect("injected typos stay inside the text domain");
                corrupted_cells.push((i, attr));
            }
        }
    }

    // The corrected version of the dirty relation: corrupted cells restored
    // from the master, everything else (including name variants) unchanged.
    let mut clean = dirty.clone();
    for &(i, attr) in &corrupted_cells {
        let id = TupleId(i);
        let master_value = master
            .tuple(id)
            .expect("master has the entity")
            .get(attr)
            .clone();
        clean
            .update_cell(CellRef::new(id, attr), master_value)
            .expect("master values satisfy the shared schema");
    }

    MasterWorkload {
        master,
        dirty,
        clean,
        truth,
        corrupted_cells,
    }
}

/// Produces a representation variant of a full name: abbreviates the first
/// name ("John Smith" → "J. Smith") or drops one interior letter.
fn vary_name(name: &str, rng: &mut StdRng) -> String {
    if rng.gen_bool(0.5) {
        match name.split_once(' ') {
            Some((first, rest)) if !first.is_empty() => {
                format!("{}. {}", &first[..1], rest)
            }
            _ => name.to_string(),
        }
    } else if name.len() > 3 {
        let drop = rng.gen_range(1..name.len() - 1);
        // Only drop at a character boundary (names here are ASCII, but stay
        // safe for arbitrary input).
        if name.is_char_boundary(drop) && name.is_char_boundary(drop + 1) {
            format!("{}{}", &name[..drop], &name[drop + 1..])
        } else {
            name.to_string()
        }
    } else {
        name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::customer::paper_cfds;
    use dq_core::DetectionEngine;

    #[test]
    fn master_is_clean_and_dirty_is_not() {
        let w = generate_master_workload(&MasterConfig {
            entities: 300,
            error_rate: 0.3,
            name_variation_rate: 0.5,
            seed: 3,
        });
        let cfds = paper_cfds();
        assert!(DetectionEngine::new()
            .detect_cfd_violations(&w.master, &cfds)
            .is_clean());
        assert!(!DetectionEngine::new()
            .detect_cfd_violations(&w.dirty, &cfds)
            .is_clean());
        assert!(!w.corrupted_cells.is_empty());
    }

    #[test]
    fn truth_links_every_dirty_tuple() {
        let w = generate_master_workload(&MasterConfig {
            entities: 100,
            ..MasterConfig::default()
        });
        assert_eq!(w.truth.len(), 100);
        assert_eq!(w.dirty.len(), 100);
        assert_eq!(w.master.len(), 100);
    }

    #[test]
    fn clean_restores_exactly_the_corrupted_cells() {
        let w = generate_master_workload(&MasterConfig {
            entities: 200,
            error_rate: 0.25,
            name_variation_rate: 0.4,
            seed: 9,
        });
        for &(i, attr) in &w.corrupted_cells {
            let id = TupleId(i);
            assert_eq!(
                w.clean.tuple(id).unwrap().get(attr),
                w.master.tuple(id).unwrap().get(attr),
                "clean must carry the master value in corrupted cells"
            );
            assert_ne!(
                w.dirty.tuple(id).unwrap().get(attr),
                w.clean.tuple(id).unwrap().get(attr),
                "corrupted cells must actually differ"
            );
        }
    }

    #[test]
    fn zero_rates_give_identical_relations() {
        let w = generate_master_workload(&MasterConfig {
            entities: 50,
            error_rate: 0.0,
            name_variation_rate: 0.0,
            seed: 1,
        });
        assert!(w.dirty.same_tuples_as(&w.master));
        assert!(w.clean.same_tuples_as(&w.dirty));
        assert!(w.corrupted_cells.is_empty());
    }

    #[test]
    fn name_variants_stay_similar() {
        let w = generate_master_workload(&MasterConfig {
            entities: 200,
            error_rate: 0.0,
            name_variation_rate: 1.0,
            seed: 5,
        });
        let name_attr = w.master.schema().attr("name");
        for (id, dirty_tuple) in w.dirty.iter() {
            let master_name = w
                .master
                .tuple(id)
                .unwrap()
                .get(name_attr)
                .as_str()
                .unwrap()
                .to_string();
            let dirty_name = dirty_tuple.get(name_attr).as_str().unwrap();
            // A variant either stays within a couple of edits (dropped
            // letter) or abbreviates the first name while keeping the
            // surname intact.
            let dist = dq_relation::levenshtein(&master_name, dirty_name);
            let same_surname = master_name.rsplit(' ').next() == dirty_name.rsplit(' ').next();
            assert!(
                dist <= 2 || same_surname,
                "variant `{dirty_name}` strays too far from `{master_name}`"
            );
        }
    }
}
