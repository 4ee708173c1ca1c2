//! Row-oriented reference miners: the test oracle for CFD, IND and CIND
//! discovery.
//!
//! These are sequential, textbook loops over [`Tuple`]s and [`Value`]s —
//! `Vec<Value>` projections hashed per tuple, value sets rebuilt per
//! candidate, no dictionaries, no pooled indexes, no thread pool.  Library
//! code never calls them; the equivalence suites and the harness do, to
//! hold the interned miners of [`crate::cfd_discovery`] and
//! [`crate::ind_discovery`] byte-identical to the definitions.
//!
//! One caveat on mixed numerics: the IND miners here dedup and select
//! through `Value`'s `Ord` — the unary [`RelationInstance::active_domain`]
//! sets and the condition-value `BTreeSet` — which deliberately compares
//! `Int(k)` and `Real(k.0)` as equal, while the interned miners work
//! through `Eq`.  On a column mixing the two they can disagree on distinct
//! counts and condition candidates; well-typed columns are unaffected.
//! Profiling shares the caveat and resolves it the `Ord` way
//! ([`crate::profile`]).

use crate::cfd_discovery::{
    condition_pattern, condition_position_sets, conditioning_candidates, constant_cfds,
    finish_discovery, push_constant_pattern, rhs_pattern, sorted_group_order, tableau_cfd, without,
    CfdDiscoveryConfig, ConstantTableaux, DiscoveredCfds,
};
use crate::fd_discovery::{discover_fds, subsets_of_size, FdDiscoveryConfig};
use crate::ind_discovery::{DiscoveredInds, IndDiscoveryConfig};
use crate::partition::g3_error;
use dq_core::cfd::Cfd;
use dq_core::cind::{Cind, CindPattern};
use dq_core::fd::Fd;
use dq_core::ind::Ind;
use dq_core::pattern::{PatternTuple, PatternValue};
use dq_relation::{Database, DqResult, RelationInstance, Tuple, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The live tuples of `instance` in insertion order.
fn tuples(instance: &RelationInstance) -> Vec<Tuple> {
    instance.iter().map(|(_, t)| t.clone()).collect()
}

/// Groups tuple positions by their projection on `attrs`, keeping groups of
/// at least `min_support` members, in canonical key order.
fn groups(tuples: &[Tuple], attrs: &[usize], min_support: usize) -> Vec<(Vec<Value>, Vec<usize>)> {
    let mut by_key: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (pos, tuple) in tuples.iter().enumerate() {
        by_key.entry(tuple.project(attrs)).or_default().push(pos);
    }
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = by_key
        .into_iter()
        .filter(|(_, members)| members.len() >= min_support)
        .collect();
    groups.sort_by(|a, b| sorted_group_order(&a.0, &b.0));
    groups
}

/// Reference [`crate::cfd_discovery::discover_constant_cfds`]: per LHS set,
/// every frequent LHS value combination whose tuples agree on another
/// attribute yields a constant pattern, unless a sub-condition already
/// forces the same constant.
pub fn discover_constant_cfds(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
) -> Vec<Cfd> {
    let tuples = tuples(instance);
    let attrs = config.attrs(instance.schema());
    let mut tableaux = ConstantTableaux::new();
    for size in 1..=config.max_lhs.min(attrs.len()) {
        for lhs in subsets_of_size(&attrs, size) {
            for (lhs_values, members) in groups(&tuples, &lhs, config.min_support) {
                for &rhs in &attrs {
                    if lhs.contains(&rhs) {
                        continue;
                    }
                    let first = tuples[members[0]].get(rhs);
                    if !members.iter().all(|&m| tuples[m].get(rhs) == first) {
                        continue;
                    }
                    if size >= 2
                        && is_redundant_constant_pattern(
                            &tuples,
                            &lhs,
                            &lhs_values,
                            rhs,
                            first,
                            config.min_support,
                        )
                    {
                        continue;
                    }
                    push_constant_pattern(&mut tableaux, config, &lhs, rhs, &lhs_values, first);
                }
            }
        }
    }
    constant_cfds(instance.schema(), tableaux)
}

/// Whether some proper subset of the condition already forces `rhs = value`
/// on at least `min_support` tuples, by a scan of every tuple.
fn is_redundant_constant_pattern(
    tuples: &[Tuple],
    lhs: &[usize],
    lhs_values: &[Value],
    rhs: usize,
    value: &Value,
    min_support: usize,
) -> bool {
    (0..lhs.len()).any(|drop| {
        let sub_attrs = without(lhs, drop);
        let sub_values = without(lhs_values, drop);
        let matching: Vec<&Tuple> = tuples
            .iter()
            .filter(|t| {
                sub_attrs
                    .iter()
                    .zip(&sub_values)
                    .all(|(&a, v)| t.get(a) == v)
            })
            .collect();
        matching.len() >= min_support && matching.iter().all(|t| t.get(rhs) == value)
    })
}

/// Reference [`crate::cfd_discovery::discover_tableau_for_fd`]: condition
/// sets by increasing number of constants, groups in canonical key order,
/// each accepted when no accepted pattern covers it and the embedded FD
/// holds on its tuples, until the tableau reaches
/// [`CfdDiscoveryConfig::max_tableau`] patterns.
pub fn discover_tableau_for_fd(
    instance: &RelationInstance,
    fd: &Fd,
    config: &CfdDiscoveryConfig,
) -> Option<Cfd> {
    let tuples = tuples(instance);
    let (lhs, rhs) = (fd.lhs(), fd.rhs());
    let mut accepted: Vec<PatternTuple> = Vec::new();
    'levels: for constants in 0..=config.max_condition_attrs.min(lhs.len()) {
        for cond_positions in condition_position_sets(lhs.len(), constants) {
            let cond_attrs: Vec<usize> = cond_positions.iter().map(|&p| lhs[p]).collect();
            for (cond_values, members) in groups(&tuples, &cond_attrs, config.min_support) {
                if accepted.len() >= config.max_tableau {
                    break 'levels;
                }
                let lhs_pattern = condition_pattern(lhs.len(), &cond_positions, &cond_values);
                if covered(&accepted, &lhs_pattern) || !fd_holds_on(&tuples, fd, &members) {
                    continue;
                }
                let first_rhs = tuples[members[0]].project(rhs);
                let constant_rhs = members
                    .iter()
                    .all(|&m| tuples[m].project(rhs) == first_rhs)
                    .then_some(first_rhs);
                let rhs_pattern = rhs_pattern(constant_rhs, !cond_positions.is_empty(), rhs.len());
                accepted.push(PatternTuple::new(lhs_pattern, rhs_pattern));
            }
        }
    }
    if accepted.is_empty() {
        return None;
    }
    tableau_cfd(instance.schema(), lhs.to_vec(), rhs.to_vec(), accepted)
}

/// Whether an accepted pattern is at least as general as `lhs_pattern`: at
/// every position it is either a wildcard or equal.  Candidates covered by
/// an accepted pattern are skipped, so the tableau keeps the most general
/// patterns.
fn covered(accepted: &[PatternTuple], lhs_pattern: &[PatternValue]) -> bool {
    accepted.iter().any(|a| {
        a.lhs.len() == lhs_pattern.len()
            && a.lhs
                .iter()
                .zip(lhs_pattern)
                .all(|(pa, pb)| pa.is_any() || pa == pb)
    })
}

/// Does `fd` hold on the tuples at `members`?
fn fd_holds_on(tuples: &[Tuple], fd: &Fd, members: &[usize]) -> bool {
    let mut by_lhs: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
    members.iter().all(|&m| {
        let val = tuples[m].project(fd.rhs());
        by_lhs
            .entry(tuples[m].project(fd.lhs()))
            .or_insert_with(|| val.clone())
            == &val
    })
}

/// Reference [`crate::cfd_discovery::discover_cfds`]: two separate FD
/// sweeps, exact and approximate, over the legacy partition builds
/// ([`FdDiscoveryConfig::use_interned`] `= false`), the row-scanning `g3`
/// filter, the reference tableau and constant miners, and the same
/// minimal-cover post-pass.  `level_ms` stays empty.
pub fn discover_cfds(instance: &RelationInstance, config: &CfdDiscoveryConfig) -> DiscoveredCfds {
    let fd_config = |max_g3| FdDiscoveryConfig {
        max_g3,
        use_interned: false,
        threads: 1,
        ..config.fd_config()
    };
    let exact = discover_fds(instance, &fd_config(0.0));
    let approx = discover_fds(instance, &fd_config(config.max_candidate_g3));
    let tableaux = conditioning_candidates(&exact.fds, &approx)
        .into_iter()
        .map(|(fd, _)| {
            (g3_error(instance, fd.lhs(), fd.rhs()) != 0.0)
                .then(|| discover_tableau_for_fd(instance, fd, config))
        })
        .collect();
    finish_discovery(
        exact.candidates_checked + approx.candidates_checked,
        &exact.fds,
        tableaux,
        discover_constant_cfds(instance, config),
        Vec::new(),
        config,
    )
}

/// Reference [`crate::ind_discovery::discover_inds`]: per ordered relation
/// pair, unary candidates compare `active_domain` value sets, and binary
/// candidates built from pairs of unary INDs compare `HashSet<Vec<Value>>`
/// projections rebuilt per candidate.
pub fn discover_inds(db: &Database, config: &IndDiscoveryConfig) -> DqResult<DiscoveredInds> {
    let mut inds = Vec::new();
    let mut candidates_checked = 0usize;
    let relations: Vec<(&str, &RelationInstance)> = db.iter().collect();

    for (lhs_name, lhs_inst) in &relations {
        for (rhs_name, rhs_inst) in &relations {
            if lhs_name == rhs_name {
                continue;
            }
            // Unary INDs first; they seed the compound candidates.
            let mut unary: Vec<(usize, usize)> = Vec::new();
            for la in 0..lhs_inst.schema().arity() {
                for ra in 0..rhs_inst.schema().arity() {
                    if !lhs_inst
                        .schema()
                        .domain(la)
                        .compatible_with(rhs_inst.schema().domain(ra))
                    {
                        continue;
                    }
                    candidates_checked += 1;
                    if unary_included(lhs_inst, la, rhs_inst, ra, config) {
                        unary.push((la, ra));
                        inds.push(Ind::from_indices(
                            lhs_inst.schema().name(),
                            vec![la],
                            rhs_inst.schema().name(),
                            vec![ra],
                        ));
                    }
                }
            }
            if config.max_arity < 2 {
                continue;
            }
            // Binary INDs built from pairs of unary ones over distinct
            // attributes on both sides.
            for &(l1, r1) in &unary {
                for &(l2, r2) in &unary {
                    if l1 >= l2 || r1 == r2 {
                        continue;
                    }
                    candidates_checked += 1;
                    let lhs_proj: HashSet<Vec<Value>> = lhs_inst
                        .iter()
                        .map(|(_, t)| t.project(&[l1, l2]))
                        .filter(|key| !config.ignore_nulls || !key.iter().any(Value::is_null))
                        .collect();
                    let rhs_proj: HashSet<Vec<Value>> =
                        rhs_inst.iter().map(|(_, t)| t.project(&[r1, r2])).collect();
                    if lhs_proj.len() >= config.min_distinct && lhs_proj.is_subset(&rhs_proj) {
                        inds.push(Ind::from_indices(
                            lhs_inst.schema().name(),
                            vec![l1, l2],
                            rhs_inst.schema().name(),
                            vec![r1, r2],
                        ));
                    }
                }
            }
        }
    }
    Ok(DiscoveredInds {
        inds,
        candidates_checked,
    })
}

/// Unary inclusion on the active domains, after the `min_distinct` floor.
fn unary_included(
    lhs: &RelationInstance,
    la: usize,
    rhs: &RelationInstance,
    ra: usize,
    config: &IndDiscoveryConfig,
) -> bool {
    let mut lhs_values = lhs.active_domain(la);
    if config.ignore_nulls {
        lhs_values.remove(&Value::Null);
    }
    lhs_values.len() >= config.min_distinct && lhs_values.is_subset(&rhs.active_domain(ra))
}

/// Reference [`crate::ind_discovery::discover_cind_conditions`]: per
/// condition attribute and per value of its active domain, a re-scan of the
/// LHS relation selects the value's tuples and checks each projection
/// against the RHS projection set.
pub fn discover_cind_conditions(
    db: &Database,
    embedded: &Ind,
    config: &IndDiscoveryConfig,
) -> DqResult<Vec<Cind>> {
    let lhs_inst = db.require_relation(embedded.lhs_relation())?;
    let rhs_inst = db.require_relation(embedded.rhs_relation())?;
    // Vacuous-condition guard: an IND that already holds (under the
    // configured null semantics) needs no CIND.
    if dq_core::reference::ind_violations(embedded, db, config.ignore_nulls)?.is_empty() {
        return Ok(Vec::new());
    }
    let rhs_proj: HashSet<Vec<Value>> = rhs_inst
        .iter()
        .map(|(_, t)| t.project(embedded.rhs_attrs()))
        .collect();

    let mut out = Vec::new();
    for cond_attr in 0..lhs_inst.schema().arity() {
        if embedded.lhs_attrs().contains(&cond_attr) {
            continue;
        }
        let values: BTreeSet<Value> = lhs_inst.active_domain(cond_attr);
        if values.is_empty() || values.len() > config.max_condition_values {
            continue;
        }
        let mut patterns: Vec<CindPattern> = Vec::new();
        for value in values {
            let selected: Vec<_> = lhs_inst
                .iter()
                .filter(|(_, t)| t.get(cond_attr) == &value)
                .collect();
            if selected.len() < config.min_support {
                continue;
            }
            let included = selected.iter().all(|(_, t)| {
                (config.ignore_nulls && embedded.lhs_attrs().iter().any(|&a| t.get(a).is_null()))
                    || rhs_proj.contains(&t.project(embedded.lhs_attrs()))
            });
            if included {
                patterns.push(CindPattern::new(vec![value], Vec::new()));
            }
        }
        if patterns.is_empty() {
            continue;
        }
        out.push(Cind::from_indices(
            lhs_inst.schema(),
            embedded.lhs_attrs().to_vec(),
            vec![cond_attr],
            rhs_inst.schema(),
            embedded.rhs_attrs().to_vec(),
            Vec::new(),
            patterns,
        )?);
    }
    Ok(out)
}
