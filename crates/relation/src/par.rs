//! The workspace's one work-claiming thread pool.
//!
//! Shard scans in the store, column-parallel CSV interning and dictionary
//! decoding, detection fan-out in `dq-core` and level-wise discovery all
//! schedule their work through [`parallel_map`]: scoped workers claim items
//! through an atomic cursor, so uneven per-item costs balance across
//! threads, and results land in input order.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (1 when it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on a scoped worker pool, preserving input
/// order in the output.  Work is claimed through an atomic cursor, so
/// uneven per-item costs balance across threads.
///
/// Degenerate inputs never spawn: `threads == 0` is treated as 1, and a
/// single item (or a single effective worker) runs inline on the caller's
/// thread.  A panic in a worker is not swallowed: the scope re-raises it on
/// join, so the caller unwinds instead of reading half-filled output.
///
/// Workers enter the caller's [`dq_obs::span_context`], so spans they open
/// nest under the caller's open span exactly as on the inline path.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let parent = dq_obs::span_context();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _ctx = parent.enter();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    *slots[i].lock().expect("worker slot poisoned") = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker slot poisoned")
                .expect("every slot filled before scope exit")
        })
        .collect()
}

/// [`parallel_map`] for fallible closures: applies `f` to every item in
/// parallel and returns the first error in *input* order (not completion
/// order), so a failing run reports the same error no matter how the work
/// interleaved.  All items are evaluated — errors are rare terminal events
/// for the callers (missing relations, schema mismatches), so deterministic
/// reporting is worth more than early cancellation.
pub fn try_parallel_map<T, U, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    parallel_map(items, threads, f).into_iter().collect()
}
