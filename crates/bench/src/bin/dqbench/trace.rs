//! Bench-side spans around each layer call, and the per-layer table built
//! from them.
//!
//! Every traced op opens a root span; each call into a library layer made
//! from the benchmark opens a child span named after the layer's module.
//! Spans stay in memory and are written out once, when the run ends.  A
//! layer's self time is its span time minus the part its children cover;
//! the op's own self time (benchmark glue between layer calls) is reported
//! as `unattributed`, so the shares sum to the op wall time.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers spans are recorded for, in table order.  Names follow the
/// library's modules.
pub const LAYERS: [&str; 13] = [
    "relation.csv",
    "relation.store",
    "relation.persist",
    "relation.instance",
    "core.analysis",
    "core.engine",
    "core.engine.maintain",
    "core.stream",
    "cleaning.master",
    "cleaning.fusion",
    "repair.urepair",
    "discovery.fd",
    "discovery.cfd",
];

/// Name of the root span of every op.
const OP: &str = "op";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, or `op` for a root span.
    name: &'static str,
    /// Op the span belongs to.
    op: u64,
    /// Index of the enclosing span, `None` for a root span.
    parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    start_ns: u64,
    /// Nanoseconds since the tracer was created.
    end_ns: u64,
    /// Library calls the span covers (a batch of cell writes is one span).
    calls: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled; otherwise every method just runs its
/// closure.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the following ops.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, op: u64, calls: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.stack.pop().expect("close matches an open span");
        self.spans[idx].end_ns = end_ns;
    }

    /// Opens the root span of op `id`.
    pub fn begin_op(&mut self, id: u64) {
        if self.enabled {
            self.open(OP, id, 1);
        }
    }

    /// Closes the root span [`begin_op`](Self::begin_op) opened.
    pub fn end_op(&mut self) {
        if self.enabled {
            self.close();
        }
    }

    /// Runs one call into `layer` under a child span of the current op.
    pub fn layer<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.layer_counted(layer, || (f(), 1))
    }

    /// [`layer`](Self::layer) for a span covering several library calls;
    /// `f` returns its result and the number of calls it made.
    pub fn layer_counted<T>(&mut self, layer: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        if !self.enabled {
            return f().0;
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let op = self.stack.first().map_or(0, |&root| self.spans[root].op);
        self.open(layer, op, 0);
        let (out, calls) = f();
        let idx = *self.stack.last().expect("the span just opened");
        self.spans[idx].calls = calls;
        self.close();
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// One row of the per-layer table.
#[derive(Clone, Debug)]
pub struct LayerRow {
    /// Layer name, or `unattributed`.
    pub layer: &'static str,
    /// Calls into the layer.
    pub calls: u64,
    /// Time inside the layer's spans.
    pub busy_ms: f64,
    /// Busy time minus the time child spans cover.
    pub self_ms: f64,
    /// Self time as a share of the summed op wall time, in percent.
    pub share_pct: f64,
}

/// The per-layer table of a traced run: one row per entry of [`LAYERS`]
/// plus `unattributed`, and the summed op wall time.
pub fn layer_table(spans: &[Span]) -> (Vec<LayerRow>, f64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut op_ns = 0u64;
    let mut unattributed_ns = 0u64;
    let mut rows: Vec<LayerRow> = LAYERS
        .iter()
        .map(|&layer| LayerRow {
            layer,
            calls: 0,
            busy_ms: 0.0,
            self_ms: 0.0,
            share_pct: 0.0,
        })
        .collect();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.ns().saturating_sub(child_ns[i]);
        if s.name == OP {
            op_ns += s.ns();
            unattributed_ns += self_ns;
        } else if let Some(row) = rows.iter_mut().find(|r| r.layer == s.name) {
            row.calls += s.calls;
            row.busy_ms += ms(s.ns());
            row.self_ms += ms(self_ns);
        }
    }
    let ops = spans.iter().filter(|s| s.name == OP).count() as u64;
    rows.push(LayerRow {
        layer: "unattributed",
        calls: ops,
        busy_ms: ms(unattributed_ns),
        self_ms: ms(unattributed_ns),
        share_pct: 0.0,
    });
    let op_ms = ms(op_ns);
    if op_ms > 0.0 {
        for row in &mut rows {
            row.share_pct = 100.0 * row.self_ms / op_ms;
        }
    }
    (rows, op_ms)
}

/// Renders the per-layer table.
pub fn render_table(rows: &[LayerRow], op_ms: f64) -> String {
    let mut out = format!(
        "{:<22} {:>8} {:>12} {:>12} {:>8}\n",
        "layer", "calls", "busy ms", "self ms", "share"
    );
    for r in rows.iter().filter(|r| r.calls > 0) {
        out.push_str(&format!(
            "{:<22} {:>8} {:>12.3} {:>12.3} {:>7.2}%\n",
            r.layer, r.calls, r.busy_ms, r.self_ms, r.share_pct
        ));
    }
    let total: f64 = rows.iter().map(|r| r.share_pct).sum();
    out.push_str(&format!(
        "{:<22} {:>8} {:>12.3} {:>12} {:>7.2}%\n",
        "op wall", "", op_ms, "", total
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_unattributed_sum_to_op_wall_time() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        for id in 0..3 {
            tracer.begin_op(id);
            tracer.layer("relation.csv", || std::hint::black_box(vec![0u8; 1 << 16]));
            tracer.layer_counted("core.engine", || {
                (std::hint::black_box((0..1000).sum::<u64>()), 2)
            });
            tracer.end_op();
        }
        let (rows, op_ms) = layer_table(tracer.spans());
        assert!(op_ms > 0.0);
        let total: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-6, "shares sum to {total}");
        let engine = rows.iter().find(|r| r.layer == "core.engine").unwrap();
        assert_eq!(engine.calls, 6);
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
