//! `dqbench --compare a.json b.json`: per (workload, metric), each side's
//! median and quartiles over its runs, and a verdict against the bound
//! `BENCHMARK.json` fixes for the metric.
//!
//! A result set is any file holding `dqbench` result records, one per line
//! (the standard output of several runs appended together); other lines
//! are skipped.

use crate::json::Json;
use std::collections::BTreeMap;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics of a parsed `BENCHMARK.json`.
pub fn end_to_end_specs(benchmark: &Json) -> Result<Vec<MetricSpec>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks '{k}'"));
            Ok(MetricSpec {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default 'exclusive' method).  `values` must hold at least one value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Metric values per (workload, metric) over every record in `text`, plus
/// the failed-op count and repair F1 values seen per workload.
#[derive(Debug, Default)]
pub struct ResultSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub failed_ops: BTreeMap<String, f64>,
    pub repair_f1: BTreeMap<String, Vec<f64>>,
}

/// Collects the records of one result file.
pub fn read_results(text: &str) -> ResultSet {
    let mut set = ResultSet::default();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(record) = Json::parse(line) else {
            continue;
        };
        let (Some(workload), Some(metrics)) = (
            record.get("workload").and_then(Json::as_str),
            record.get("metrics").and_then(Json::as_object),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        if let Some(failed) = record.get("ops_failed").and_then(Json::as_f64) {
            *set.failed_ops.entry(workload.to_string()).or_default() += failed;
        }
        if let Some(f1) = record.get("repair_f1").and_then(Json::as_f64) {
            set.repair_f1
                .entry(workload.to_string())
                .or_default()
                .push(f1);
        }
    }
    set
}

/// The verdict for one (workload, metric) pair: `b` against `a`.
pub fn verdict(a: &[f64], b: &[f64], spec: &MetricSpec) -> &'static str {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
    if spread(qa).max(spread(qb)) > spec.bound {
        return "unresolved";
    }
    let change = (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE);
    let worse = if spec.lower_is_better {
        change
    } else {
        -change
    };
    if worse > spec.bound {
        "worse"
    } else if -worse > spec.bound {
        "better"
    } else {
        "within bound"
    }
}

/// Renders the comparison of two result sets; the flag is true when some
/// pair came out worse.
pub fn render(a: &ResultSet, b: &ResultSet, specs: &[MetricSpec]) -> (String, bool) {
    let mut out = format!(
        "{:<20} {:<15} {:>38} {:>38} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "change", "bound"
    );
    let mut any_worse = false;
    let workloads: std::collections::BTreeSet<&String> = a.values.keys().map(|(w, _)| w).collect();
    for workload in workloads {
        for spec in specs {
            let key = (workload.clone(), spec.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                out.push_str(&format!(
                    "{workload:<20} {:<15} missing on one side\n",
                    spec.name
                ));
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let v = verdict(va, vb, spec);
            any_worse |= v == "worse";
            let side = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            out.push_str(&format!(
                "{workload:<20} {:<15} {:>38} {:>38} {:>7.2}% {:>6}  {v}\n",
                spec.name,
                side(qa),
                side(qb),
                100.0 * (qb[1] - qa[1]) / qa[1],
                spec.bound
            ));
        }
        let failed = |s: &ResultSet| s.failed_ops.get(workload).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "{workload:<20} failed ops: a {} b {}\n",
            failed(a),
            failed(b)
        ));
        if let (Some(fa), Some(fb)) = (a.repair_f1.get(workload), b.repair_f1.get(workload)) {
            let exact = fa.iter().chain(fb).all(|f| f == &fa[0]);
            out.push_str(&format!(
                "{workload:<20} repair_f1 repeats exactly: {}\n",
                if exact { "yes" } else { "no" }
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let spec = MetricSpec {
            name: "op_p50_ms".into(),
            lower_is_better: true,
            bound: 0.1,
        };
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0, 104.0], &spec),
            "within bound"
        );
        assert_eq!(verdict(&a, &[130.0, 131.0, 129.0, 130.0], &spec), "worse");
        assert_eq!(verdict(&a, &[70.0, 71.0, 69.0, 70.0], &spec), "better");
        assert_eq!(
            verdict(&a, &[50.0, 150.0, 100.0, 100.0], &spec),
            "unresolved"
        );
    }
}
