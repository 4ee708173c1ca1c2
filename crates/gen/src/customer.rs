//! The customer scenario of Figures 1–2, plus a scalable synthetic generator
//! with controllable error rate.
//!
//! The generator produces data that is clean by construction with respect to
//! the paper's CFDs (ϕ1–ϕ3), then injects errors of exactly the two classes
//! the paper discusses: pattern-constant errors (a UK/131 tuple whose city is
//! not `EDI`) and FD-style conflicts (two tuples sharing `[CC, zip]` but
//! disagreeing on `street`).  Because every injected error is recorded, the
//! repair benchmarks can score precision and recall against ground truth.

use dq_core::{cst, wild, Cfd, Fd, PatternTuple};
use dq_relation::{Domain, RelationInstance, RelationSchema, Value, ValueInterner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The customer schema of Fig. 1.
pub fn customer_schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "customer",
        [
            ("CC", Domain::Int),
            ("AC", Domain::Int),
            ("phn", Domain::Int),
            ("name", Domain::Text),
            ("street", Domain::Text),
            ("city", Domain::Text),
            ("zip", Domain::Text),
        ],
    ))
}

/// The instance `D0` of Fig. 1 (three tuples, every one of them dirty with
/// respect to the CFDs of Fig. 2).
pub fn paper_instance() -> RelationInstance {
    let mut inst = RelationInstance::new(customer_schema());
    for (cc, ac, phn, name, street, city, zip) in [
        (44, 131, 1234567, "Mike", "Mayfield", "NYC", "EH4 8LE"),
        (44, 131, 3456789, "Rick", "Crichton", "NYC", "EH4 8LE"),
        (1, 908, 3456789, "Joe", "Mtn Ave", "NYC", "07974"),
    ] {
        inst.insert_values([
            Value::int(cc),
            Value::int(ac),
            Value::int(phn),
            Value::str(name),
            Value::str(street),
            Value::str(city),
            Value::str(zip),
        ])
        .expect("paper tuple fits the schema");
    }
    inst
}

/// The traditional FDs `f1`, `f2` of Section 2.1.
pub fn paper_fds() -> Vec<Fd> {
    let s = customer_schema();
    vec![
        Fd::new(&s, &["CC", "AC", "phn"], &["street", "city", "zip"]),
        Fd::new(&s, &["CC", "AC"], &["city"]),
    ]
}

/// The CFDs ϕ1–ϕ3 of Fig. 2.
pub fn paper_cfds() -> Vec<Cfd> {
    let s = customer_schema();
    vec![
        Cfd::new(
            &s,
            &["CC", "zip"],
            &["street"],
            vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
        )
        .expect("ϕ1 is well-formed"),
        Cfd::new(
            &s,
            &["CC", "AC", "phn"],
            &["street", "city", "zip"],
            vec![
                PatternTuple::all_wildcards(3, 3),
                PatternTuple::new(
                    vec![cst(44), cst(131), wild()],
                    vec![wild(), cst("EDI"), wild()],
                ),
                PatternTuple::new(
                    vec![cst(1), cst(908), wild()],
                    vec![wild(), cst("MH"), wild()],
                ),
            ],
        )
        .expect("ϕ2 is well-formed"),
        Cfd::new(
            &s,
            &["CC", "AC"],
            &["city"],
            vec![PatternTuple::all_wildcards(2, 1)],
        )
        .expect("ϕ3 is well-formed"),
    ]
}

/// Configuration of the synthetic customer workload.
#[derive(Clone, Debug)]
pub struct CustomerConfig {
    /// Number of tuples.
    pub tuples: usize,
    /// Fraction of tuples that receive an injected error (the 1%–5% range
    /// reported in the paper's introduction is the realistic regime).
    pub error_rate: f64,
    /// RNG seed (generation is deterministic for a fixed seed).
    pub seed: u64,
    /// Number of distinct `(AC, city)` pairs per country.  The default `3`
    /// keeps the paper's fixed city lists; larger pools bound the size of
    /// the `[CC, AC]` hash groups, so that on multi-million-tuple instances
    /// the number of ϕ3 pair violations stays proportional to the injected
    /// error count instead of `errors × group size` blowing up
    /// quadratically.  Values beyond the fixed lists synthesize cities
    /// (`UK-C7`/`US-C7`, area codes from disjoint pools).
    pub cities_per_country: usize,
}

impl Default for CustomerConfig {
    fn default() -> Self {
        CustomerConfig {
            tuples: 1_000,
            error_rate: 0.05,
            seed: 42,
            cities_per_country: 3,
        }
    }
}

/// A generated workload: the clean instance, the dirty instance (with errors
/// injected), and the list of corrupted cells.
#[derive(Clone, Debug)]
pub struct CustomerWorkload {
    /// Ground-truth clean instance (satisfies every CFD of [`paper_cfds`]).
    pub clean: RelationInstance,
    /// The instance with injected errors.
    pub dirty: RelationInstance,
    /// Cells that were corrupted: `(tuple index, attribute index)`.
    pub corrupted_cells: Vec<(usize, usize)>,
}

const UK_CITIES: [(&str, i64); 3] = [("EDI", 131), ("GLA", 141), ("LDN", 20)];
const US_CITIES: [(&str, i64); 3] = [("MH", 908), ("NYC", 212), ("SF", 415)];

/// Generates a customer workload.
///
/// Clean data is built so that the CFDs of Fig. 2 hold: `zip → street` within
/// the UK, phone → address everywhere, and the `(44, 131) → EDI` /
/// `(01, 908) → MH` constants.  Errors then perturb either a `city` (breaking
/// the constant patterns) or a `street` (breaking `ϕ1`'s FD part).
///
/// Repeated strings (cities, and the street/zip pools, which recur roughly
/// four times each) are canonicalized through a [`ValueInterner`], so every
/// occurrence of a string shares one allocation — the instance is
/// dictionary-compressed at build time and string equality hits the
/// pointer-equality fast path.
pub fn generate_customers(config: &CustomerConfig) -> CustomerWorkload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = customer_schema();
    let mut strings = ValueInterner::new();
    let mut clean = RelationInstance::new(Arc::clone(&schema));
    let city_pool = config.cities_per_country.max(1);
    for i in 0..config.tuples {
        let uk = rng.gen_bool(0.5);
        let pick = rng.gen_range(0..city_pool);
        let (cc, (city, ac)) = if uk {
            let entry = match UK_CITIES.get(pick) {
                Some(&(name, ac)) => (name.to_string(), ac),
                None => (format!("UK-C{pick}"), 2_000 + pick as i64),
            };
            (44i64, entry)
        } else {
            let entry = match US_CITIES.get(pick) {
                Some(&(name, ac)) => (name.to_string(), ac),
                None => (format!("US-C{pick}"), 5_000 + pick as i64),
            };
            (1i64, entry)
        };
        // A bounded pool of zip codes per country so that zip collisions (and
        // with them ϕ1 violations after corruption) actually happen.
        let zip_id = rng.gen_range(0..(config.tuples / 4).max(1));
        let zip = format!("{}-Z{}", if uk { "UK" } else { "US" }, zip_id);
        // street is a function of the zip (so zip → street holds), phone is
        // unique (so f1 holds).
        let street = format!("{} High Street", zip_id);
        let city = if cc == 44 && ac == 131 {
            "EDI".to_string()
        } else if cc == 1 && ac == 908 {
            "MH".to_string()
        } else {
            city.to_string()
        };
        clean
            .insert_values([
                Value::int(cc),
                Value::int(ac),
                Value::int(1_000_000 + i as i64),
                Value::str(format!("Customer {i}")),
                strings.canonical(Value::str(street)),
                strings.canonical(Value::str(city)),
                strings.canonical(Value::str(zip)),
            ])
            .expect("generated tuple fits the schema");
    }

    let mut dirty = clean.clone();
    let mut corrupted_cells = Vec::new();
    let street_attr = schema.attr("street");
    let city_attr = schema.attr("city");
    for i in 0..config.tuples {
        if !rng.gen_bool(config.error_rate) {
            continue;
        }
        let id = dq_relation::TupleId(i);
        let attr = if rng.gen_bool(0.5) {
            city_attr
        } else {
            street_attr
        };
        let wrong = if attr == city_attr {
            strings.canonical(Value::str("WRONGCITY"))
        } else {
            strings.canonical(Value::str(format!(
                "Corrupted street {}",
                rng.gen_range(0..1_000)
            )))
        };
        dirty
            .update_cell(dq_relation::instance::CellRef::new(id, attr), wrong)
            .expect("injected typos stay inside the text domain");
        corrupted_cells.push((i, attr));
    }
    CustomerWorkload {
        clean,
        dirty,
        corrupted_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::DetectionEngine;

    #[test]
    fn paper_instance_matches_fig_1() {
        let d0 = paper_instance();
        assert_eq!(d0.len(), 3);
        let fds = paper_fds();
        for fd in &fds {
            assert!(fd.holds_on(&d0), "D0 must satisfy the traditional FDs");
        }
        let report = DetectionEngine::new().detect_cfd_violations(&d0, &paper_cfds());
        assert_eq!(report.violating_tuples().len(), 3);
    }

    #[test]
    fn generated_clean_data_satisfies_the_cfds() {
        let workload = generate_customers(&CustomerConfig {
            tuples: 400,
            error_rate: 0.0,
            seed: 7,
            ..Default::default()
        });
        let report = DetectionEngine::new().detect_cfd_violations(&workload.clean, &paper_cfds());
        assert!(report.is_clean());
        assert!(workload.corrupted_cells.is_empty());
        assert!(workload.clean.same_tuples_as(&workload.dirty));
    }

    #[test]
    fn injected_errors_are_recorded_and_detected() {
        let workload = generate_customers(&CustomerConfig {
            tuples: 500,
            error_rate: 0.1,
            seed: 7,
            ..Default::default()
        });
        assert!(!workload.corrupted_cells.is_empty());
        let report = DetectionEngine::new().detect_cfd_violations(&workload.dirty, &paper_cfds());
        assert!(!report.is_clean());
        // Detected dirty tuples are a subset of... at least overlap with the
        // corrupted ones: every detected violation involves some tuple, and
        // with city corruption every corrupted city tuple violates ϕ2 or ϕ3.
        assert!(report.total() > 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_customers(&CustomerConfig {
            tuples: 100,
            error_rate: 0.05,
            seed: 1,
            ..Default::default()
        });
        let b = generate_customers(&CustomerConfig {
            tuples: 100,
            error_rate: 0.05,
            seed: 1,
            ..Default::default()
        });
        let c = generate_customers(&CustomerConfig {
            tuples: 100,
            error_rate: 0.05,
            seed: 2,
            ..Default::default()
        });
        assert!(a.dirty.same_tuples_as(&b.dirty));
        assert_eq!(a.corrupted_cells, b.corrupted_cells);
        assert!(!a.dirty.same_tuples_as(&c.dirty) || a.corrupted_cells != c.corrupted_cells);
    }
}
