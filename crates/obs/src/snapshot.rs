//! Point-in-time metric snapshots: JSON export, span-tree rendering,
//! and the sink/source traits that unify the workspace's ad-hoc stats
//! structs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Anything that accepts named metric values.  [`MetricsSnapshot`] is
/// the canonical sink; tests may implement their own.
pub trait MetricSink {
    /// Reports a monotonic counter.
    fn counter(&mut self, name: &str, value: u64);
    /// Reports a point-in-time gauge.
    fn gauge(&mut self, name: &str, value: i64);
}

/// A stats struct that can pour itself into a [`MetricSink`] under a
/// caller-chosen prefix.  Implemented by `IndexPoolStats`,
/// `ColumnarStats` and `InternerStats` in `dq-relation`, so callers
/// stop hand-stitching those structs into reports.
pub trait MetricSource {
    /// Emits every field as `prefix.field` into `sink`.
    fn emit(&self, prefix: &str, sink: &mut dyn MetricSink);
}

/// Summary of one histogram: count, sum, max and approximate
/// (bucket-upper-bound) quantiles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Approximate 50th percentile.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean observed value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Aggregated timing of one span path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed occurrences.
    pub count: u64,
    /// Total wall-clock nanoseconds across occurrences.
    pub total_ns: u64,
}

/// A point-in-time copy of every non-zero metric in a recorder, plus
/// anything [`ingested`](MetricsSnapshot::ingest) from external stats
/// structs.  Serializes to JSON with [`to_json`](MetricsSnapshot::to_json).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timings by full `parent/child` path.
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Verbose-mode event lines, oldest first.
    pub events: Vec<String>,
}

impl MetricSink for MetricsSnapshot {
    fn counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    fn gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }
}

impl MetricsSnapshot {
    /// True when nothing was recorded — the shape a disabled run must
    /// produce.
    pub fn is_quiet(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.events.is_empty()
    }

    /// Pours an external stats struct in under `prefix`.
    pub fn ingest(&mut self, prefix: &str, source: &(impl MetricSource + ?Sized)) {
        source.emit(prefix, self);
    }

    /// Serializes the snapshot as a JSON object with stable (sorted)
    /// key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_map(&mut out, "counters", &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push(',');
        push_map(&mut out, "gauges", &self.gauges, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push(',');
        push_map(&mut out, "histograms", &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count, h.sum, h.max, h.p50, h.p90, h.p99
            );
        });
        out.push(',');
        push_map(&mut out, "spans", &self.spans, |out, s| {
            let _ = write!(out, "{{\"count\":{},\"total_ns\":{}}}", s.count, s.total_ns);
        });
        out.push_str(",\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, event);
        }
        out.push_str("]}");
        out
    }

    /// Renders the recorded spans as an indented tree, children sorted
    /// by total time, with per-node totals, counts, means and the share
    /// of the parent's time: a flame-style summary of where a run's time
    /// went.
    pub fn render_span_tree(&self) -> String {
        let mut root = TreeNode::default();
        for (path, span) in &self.spans {
            let mut node = &mut root;
            for part in path.split('/') {
                node = node.children.entry(part.to_string()).or_default();
            }
            node.count += span.count;
            node.total_ns += span.total_ns;
        }
        let mut out = String::new();
        let parent_total: u64 = root.children.values().map(|c| c.total_ns).sum();
        for (name, child) in sorted_children(&root) {
            render_node(&mut out, name, child, 0, parent_total);
        }
        out
    }
}

#[derive(Default)]
struct TreeNode {
    count: u64,
    total_ns: u64,
    children: BTreeMap<String, TreeNode>,
}

fn sorted_children(node: &TreeNode) -> Vec<(&str, &TreeNode)> {
    let mut children: Vec<(&str, &TreeNode)> = node
        .children
        .iter()
        .map(|(name, child)| (name.as_str(), child))
        .collect();
    children.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    children
}

fn render_node(out: &mut String, name: &str, node: &TreeNode, depth: usize, parent_total: u64) {
    let total_ms = node.total_ns as f64 / 1e6;
    let share = if parent_total == 0 {
        100.0
    } else {
        node.total_ns as f64 / parent_total as f64 * 100.0
    };
    let mean_ms = if node.count == 0 {
        0.0
    } else {
        total_ms / node.count as f64
    };
    let _ = writeln!(
        out,
        "{:indent$}{name:<width$} {total_ms:>10.3} ms  {:>7} calls  {mean_ms:>10.3} ms/call  {share:>5.1}%",
        "",
        node.count,
        indent = depth * 2,
        width = 36usize.saturating_sub(depth * 2),
    );
    for (child_name, child) in sorted_children(node) {
        render_node(out, child_name, child, depth + 1, node.total_ns);
    }
}

/// Appends `"key":{...sorted map...}` to `out`.
fn push_map<V>(
    out: &mut String,
    key: &str,
    map: &BTreeMap<String, V>,
    mut value: impl FnMut(&mut String, &V),
) {
    let _ = write!(out, "\"{key}\":{{");
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, name);
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

/// Appends a JSON string literal (quoted, escaped) to `out`.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeStats {
        hits: u64,
        resident: i64,
    }

    impl MetricSource for FakeStats {
        fn emit(&self, prefix: &str, sink: &mut dyn MetricSink) {
            sink.counter(&format!("{prefix}.hits"), self.hits);
            sink.gauge(&format!("{prefix}.resident"), self.resident);
        }
    }

    #[test]
    fn ingest_pours_sources_under_a_prefix() {
        let mut snap = MetricsSnapshot::default();
        snap.ingest(
            "pool",
            &FakeStats {
                hits: 4,
                resident: 99,
            },
        );
        assert_eq!(snap.counters["pool.hits"], 4);
        assert_eq!(snap.gauges["pool.resident"], 99);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("b".into(), 2);
        snap.counters.insert("a".into(), 1);
        snap.events.push("line \"quoted\"\n".into());
        let json = snap.to_json();
        assert!(json.starts_with("{\"counters\":{\"a\":1,\"b\":2}"));
        assert!(json.contains("\\\"quoted\\\"\\n"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn span_tree_nests_and_sorts_by_total_time() {
        let mut snap = MetricsSnapshot::default();
        for (path, total_ns) in [
            ("a", 10_000_000),
            ("a/fast", 1_000_000),
            ("a/slow", 8_000_000),
        ] {
            snap.spans
                .insert(path.into(), SpanSnapshot { count: 1, total_ns });
        }
        let tree = snap.render_span_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].trim_start().starts_with('a'));
        assert!(
            lines[1].trim_start().starts_with("slow"),
            "slow first: {tree}"
        );
        assert!(lines[2].trim_start().starts_with("fast"));
        assert!(lines[1].contains("80.0%"));
    }

    #[test]
    fn quiet_snapshot_reports_quiet() {
        assert!(MetricsSnapshot::default().is_quiet());
        let mut snap = MetricsSnapshot::default();
        snap.counter("x", 1);
        assert!(!snap.is_quiet());
    }
}
