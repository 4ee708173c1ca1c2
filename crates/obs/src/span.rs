//! Hierarchical wall-clock spans.
//!
//! A span is opened with [`span`] (or the [`span!`](crate::span!)
//! macro) and closed on drop or via [`SpanGuard::finish_ms`].  Open
//! spans on the same thread nest: each guard's full path is its
//! parent's path plus `/name`, so the recorder aggregates timings per
//! *call path*, and [`MetricsSnapshot::render_span_tree`]
//! (crate::MetricsSnapshot::render_span_tree) can print a flame-style
//! tree.
//!
//! The stack is per thread, so a worker thread starts with no parent.
//! A fan-out that wants its workers' spans nested under the caller's
//! captures the caller's path with [`span_context`] and has each worker
//! [`SpanContext::enter`] it first.
//!
//! Guards always capture a start time, even when recording is
//! disabled, so `finish_ms` reports real elapsed milliseconds in both
//! modes — callers like the discovery lattice use it as their only
//! clock.  Nothing is *recorded* while disabled, and the path string is
//! only built (one allocation) while enabled.

use std::cell::RefCell;
use std::time::Instant;

use crate::recorder::{recorder, Recorder};

thread_local! {
    /// Stack of full paths of the spans currently open on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open span.  Records `count` and `total_ns` under its full path
/// when dropped or finished, if the recorder was enabled at creation.
#[must_use = "a span measures until dropped; bind it with `let _span = ...`"]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    start: Instant,
    /// Full `parent/child` path; `None` when recording was off at
    /// creation (nothing was pushed on the stack either).
    path: Option<String>,
    finished: bool,
}

/// Opens a span on the process-wide recorder.
#[inline]
pub fn span(name: &str) -> SpanGuard<'static> {
    recorder().span(name)
}

/// Opens a span with an owned (e.g. formatted per-level) name on the
/// process-wide recorder.
#[inline]
pub fn span_owned(name: String) -> SpanGuard<'static> {
    recorder().span_owned(name)
}

impl Recorder {
    /// Opens a span on this recorder.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let path = self.enabled().then(|| push_path(name));
        SpanGuard {
            recorder: self,
            start: Instant::now(),
            path,
            finished: false,
        }
    }

    /// Opens a span with an owned name on this recorder.
    pub fn span_owned(&self, name: String) -> SpanGuard<'_> {
        self.span(&name)
    }

    /// Captures this thread's innermost open span path.  The path is
    /// only read (and cloned) while recording is enabled, so a disabled
    /// capture costs one relaxed load.
    pub fn span_context(&self) -> SpanContext {
        let path = self
            .enabled()
            .then(|| SPAN_STACK.with(|stack| stack.borrow().last().cloned()))
            .flatten();
        SpanContext { path }
    }
}

fn push_path(name: &str) -> String {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        path
    })
}

/// The path of the innermost span open on the capturing thread, to be
/// re-entered on worker threads so their spans nest under it.  Empty
/// when no span was open or recording was off at capture.
#[derive(Clone, Debug)]
pub struct SpanContext {
    path: Option<String>,
}

/// Captures this thread's innermost open span path for the process-wide
/// recorder.
#[inline]
pub fn span_context() -> SpanContext {
    recorder().span_context()
}

impl SpanContext {
    /// Makes the captured path the parent of the spans this thread opens
    /// until the returned guard drops.  The path itself records nothing;
    /// it is only a prefix.
    pub fn enter(&self) -> SpanContextGuard {
        if let Some(path) = &self.path {
            SPAN_STACK.with(|stack| stack.borrow_mut().push(path.clone()));
        }
        SpanContextGuard {
            entered: self.path.is_some(),
        }
    }
}

/// Undoes one [`SpanContext::enter`] on drop.
#[must_use = "the context applies until the guard drops; bind it with `let _ctx = ...`"]
pub struct SpanContextGuard {
    entered: bool,
}

impl Drop for SpanContextGuard {
    fn drop(&mut self) {
        if self.entered {
            SPAN_STACK.with(|stack| stack.borrow_mut().pop());
        }
    }
}

impl SpanGuard<'_> {
    /// Closes the span and returns its elapsed wall-clock milliseconds.
    /// The elapsed time is real even when recording is disabled, so
    /// callers can use a span as their only clock.
    pub fn finish_ms(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        self.finished = true;
        let elapsed = self.start.elapsed();
        if let Some(path) = self.path.take() {
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                debug_assert_eq!(
                    stack.last(),
                    Some(&path),
                    "spans must close innermost-first"
                );
                stack.pop();
            });
            self.recorder
                .record_span(&path, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        elapsed.as_secs_f64() * 1e3
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    // Needs live recording — compiled out by the `off` feature.
    #[test]
    #[cfg(not(feature = "off"))]
    fn nested_spans_build_slash_paths() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        {
            let _outer = rec.span("outer");
            {
                let _inner = rec.span("inner");
            }
            {
                let _inner = rec.span("inner");
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/inner"].count, 2);
        assert!(!snap.spans.contains_key("inner"));
    }

    #[test]
    fn finish_ms_returns_real_elapsed_when_disabled() {
        let rec = Recorder::new();
        let guard = rec.span("off");
        thread::sleep(Duration::from_millis(2));
        let ms = guard.finish_ms();
        assert!(ms >= 1.0, "elapsed {ms} ms should be measured while off");
        assert!(rec.snapshot().spans.is_empty());
    }

    // Needs live recording — compiled out by the `off` feature.
    #[test]
    #[cfg(not(feature = "off"))]
    fn sibling_threads_do_not_share_parents() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let _outer = rec.span("outer");
        thread::scope(|scope| {
            scope.spawn(|| {
                let _worker = rec.span("worker");
            });
        });
        drop(_outer);
        let snap = rec.snapshot();
        // The worker thread has its own empty stack, so its span is a root.
        assert_eq!(snap.spans["worker"].count, 1);
        assert!(!snap.spans.contains_key("outer/worker"));
    }

    // Needs live recording — compiled out by the `off` feature.
    #[test]
    #[cfg(not(feature = "off"))]
    fn entered_context_nests_worker_spans_under_the_caller() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let outer = rec.span("outer");
        let context = rec.span_context();
        thread::scope(|scope| {
            scope.spawn(|| {
                let _ctx = context.enter();
                let _worker = rec.span("worker");
            });
        });
        drop(outer);
        let snap = rec.snapshot();
        // The entered path is only a prefix: it records nothing itself.
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/worker"].count, 1);
        assert!(!snap.spans.contains_key("worker"));
    }

    #[test]
    fn disabled_capture_carries_no_path() {
        let rec = Recorder::new();
        let _outer = rec.span("outer");
        let context = rec.span_context();
        assert!(context.path.is_none());
        // Entering an empty context leaves the stack alone.
        drop(context.enter());
        SPAN_STACK.with(|stack| assert!(stack.borrow().is_empty()));
    }

    #[test]
    fn spans_opened_while_disabled_never_record_even_if_enabled_later() {
        let rec = Recorder::new();
        let guard = rec.span("late");
        rec.set_enabled(true);
        drop(guard);
        assert!(rec.snapshot().spans.is_empty());
    }
}
