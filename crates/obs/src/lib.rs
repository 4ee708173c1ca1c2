//! `dq-obs` — the workspace's instrumentation layer: hierarchical
//! wall-clock spans, sharded monotonic counters, gauges, power-of-two
//! latency histograms, and JSON-exportable snapshots.
//!
//! # Design
//!
//! * **Zero dependencies.**  Standard library only; safe to sit below
//!   `dq-relation` at the bottom of the crate graph.
//! * **Lock-cheap.**  Counters are sharded across cache lines and
//!   incremented with relaxed atomics; hot paths hold pre-registered
//!   [`Counter`]/[`Gauge`]/[`Histogram`] handles so the striped name
//!   registry is only touched at registration time.
//! * **Toggleable twice over.**  At runtime, [`set_enabled`] flips one
//!   process-wide flag every operation checks first (a relaxed load and
//!   a branch — the recorder starts *disabled*).  At compile time the
//!   `off` cargo feature hard-disables the layer.  Either way,
//!   instrumented code paths produce byte-identical outputs: the layer
//!   only ever observes, never steers.
//! * **Hierarchical spans.**  [`span`]`("detect.cfd")` opens a guard;
//!   guards on one thread nest into `parent/child` paths, aggregated
//!   per path and rendered as a flame-style tree by
//!   [`MetricsSnapshot::render_span_tree`].  A guard always measures —
//!   [`SpanGuard::finish_ms`] returns real elapsed milliseconds even
//!   while recording is off, so callers can use spans as their only
//!   clock (the discovery lattice's per-level timings work this way).
//!
//! # Example
//!
//! ```
//! dq_obs::set_enabled(true);
//! {
//!     let _pass = dq_obs::span("detect.cfd");
//!     dq_obs::inc("pool.hits");
//!     dq_obs::time("index.build_ns", || { /* build */ });
//! }
//! let snap = dq_obs::recorder().snapshot();
//! # #[cfg(not(feature = "off"))]
//! assert_eq!(snap.counters["pool.hits"], 1);
//! println!("{}", snap.render_span_tree());
//! println!("{}", snap.to_json());
//! # dq_obs::set_enabled(false);
//! # dq_obs::recorder().reset();
//! ```

mod recorder;
mod snapshot;
mod span;

pub use recorder::{recorder, Counter, Gauge, Histogram, Recorder, TimerGuard};
pub use snapshot::{HistogramSnapshot, MetricSink, MetricSource, MetricsSnapshot, SpanSnapshot};
pub use span::{span, span_context, span_owned, SpanContext, SpanContextGuard, SpanGuard};

/// Is the process-wide recorder live?  Always `false` under the `off`
/// feature.
#[inline]
pub fn enabled() -> bool {
    recorder().enabled()
}

/// Toggles the process-wide recorder.
pub fn set_enabled(on: bool) {
    recorder().set_enabled(on);
}

/// Adds one to the process-wide counter `name`.
#[inline]
pub fn inc(name: &str) {
    recorder().add(name, 1);
}

/// Adds `delta` to the process-wide counter `name`.
#[inline]
pub fn add(name: &str, delta: u64) {
    recorder().add(name, delta);
}

/// Sets the process-wide gauge `name`.
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    recorder().gauge_set(name, value);
}

/// Adjusts the process-wide gauge `name` by `delta`.
#[inline]
pub fn gauge_add(name: &str, delta: i64) {
    recorder().gauge_add(name, delta);
}

/// Records one observation into the process-wide histogram `name`.
#[inline]
pub fn record(name: &str, value: u64) {
    recorder().record(name, value);
}

/// Times `f` into the process-wide histogram `name` (nanoseconds).
/// When recording is off, runs `f` with no clock read at all.
#[inline]
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    recorder().time(name, f)
}

/// A guard recording its lifetime into the process-wide histogram
/// `name` on drop.  Inert when recording is off at creation.
#[inline]
pub fn timer(name: &'static str) -> TimerGuard<'static> {
    recorder().timer(name)
}

/// Opens a span, optionally logging `key = value` fields into the
/// bounded event ring when the recorder is in verbose mode.  Fields are
/// formatted with `{}` and never affect the span's path or timing.
///
/// ```
/// let relation = "orders";
/// let _span = dq_obs::span!("detect.cfd", relation = relation, deps = 3);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let guard = $crate::span($name);
        if $crate::recorder().verbose() {
            $crate::recorder().event(format!(
                concat!("{}", $(" ", stringify!($key), "={}"),+),
                $name, $($value),+
            ));
        }
        guard
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_compiles_with_and_without_fields() {
        let _plain = span!("macro.plain");
        let _fields = span!("macro.fields", n = 3, label = "x");
    }
}
