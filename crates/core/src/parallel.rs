//! Scoped-thread work distribution for the probe pipeline.
//!
//! The pipeline's two parallel stages, legal-path expansion in
//! [`crate::generation`] and per-probe injection in
//! [`crate::ProbeHarness::send_batch`], are maps over independent items,
//! so this module provides exactly one primitive: an order-preserving
//! [`parallel_map`] built on [`std::thread::scope`] with a work-stealing
//! chunker (an atomic claim counter; idle workers grab the next
//! unclaimed block). The calling thread is one of the workers, so a
//! job of `n` workers spawns `n - 1` threads. No unsafe code and no
//! thread pool to manage: threads live only for the duration of one
//! call, which keeps the determinism story trivial — output order is
//! always input order, regardless of the thread count.
//!
//! [`Parallelism`] is the knob threaded through configs and CLIs
//! (`--threads N`): `None` means "all available cores", `Some(1)` means
//! "run inline on the caller's thread".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Thread-count configuration carried through the probe pipeline.
///
/// `threads: None` (the [`Default`]) uses every available core;
/// `Some(n)` caps the worker count at `n`. A value of `Some(1)` (or
/// [`Parallelism::sequential`]) disables threading entirely — work runs
/// inline on the calling thread, which is also the fallback whenever a
/// job is too small to be worth fanning out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Parallelism {
    /// Maximum worker threads; `None` = all available cores.
    pub threads: Option<usize>,
}

impl Parallelism {
    /// All available cores (same as [`Default`]).
    pub const fn auto() -> Self {
        Self { threads: None }
    }

    /// Exactly one thread: everything runs inline on the caller.
    pub const fn sequential() -> Self {
        Self { threads: Some(1) }
    }

    /// At most `threads` worker threads (clamped to ≥ 1).
    pub const fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(if threads == 0 { 1 } else { threads }),
        }
    }

    /// The worker count a job of `items` independent items uses: one
    /// per [`MIN_ITEMS_PER_THREAD`] items, capped by the configured
    /// budget (or the core count), never less than 1. A job too small
    /// for two workers never asks for the core count.
    fn effective_threads(&self, items: usize) -> usize {
        let by_size = items / MIN_ITEMS_PER_THREAD;
        if by_size <= 1 {
            return 1;
        }
        self.threads
            .unwrap_or_else(available_cores)
            .clamp(1, by_size)
    }
}

/// The machine's core count, read once: `available_parallelism` reads
/// cgroup files on every call.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Items per worker thread. A scoped spawn and join costs tens of
/// microseconds while a probe send costs about one, so a job gets a
/// second worker only once it has this many items per worker; smaller
/// jobs, such as most rounds of sliced probes, run inline.
const MIN_ITEMS_PER_THREAD: usize = 64;

/// Applies `f` to every item, fanning out across scoped threads with the
/// caller working alongside them, and returns the results **in input
/// order**.
///
/// Scheduling is a work-stealing chunker: a shared atomic counter hands
/// out blocks of indices, so a worker that finishes early steals the
/// next block instead of idling — important because path expansions and
/// probe traces have wildly varying costs. Blocks shrink with the
/// thread count (`items / (threads × 8)`, minimum 1) to bound the
/// imbalance any single block can cause.
///
/// The output is identical to `items.iter().map(f).collect()` for any
/// thread count — callers rely on this for the pipeline's determinism
/// guarantee (tested here and in `tests/parallel_determinism.rs`).
///
/// # Panics
///
/// Propagates a panic from `f`, whether it was raised in the caller's
/// own share or in a spawned worker's (whose payload is resumed on the
/// caller).
pub(crate) fn parallel_map<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = parallelism.effective_threads(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let block = (items.len() / (workers * 8)).max(1);
    let next = AtomicUsize::new(0);
    let gathered: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    // Claim blocks until the counter runs off the end; keep (start,
    // results) pairs for in-order reassembly.
    let work = || {
        let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let start = next.fetch_add(block, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + block).min(items.len());
            mine.push((start, items[start..end].iter().map(&f).collect()));
        }
        gathered.lock().expect("no poisoned worker").extend(mine);
    };
    std::thread::scope(|scope| {
        // The caller is the last worker. A panic in its own share
        // unwinds out of the scope, which joins the others first.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    let mut blocks = gathered.into_inner().expect("workers joined");
    blocks.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(items.len());
    for (_, chunk) in blocks {
        out.extend(chunk);
    }
    debug_assert_eq!(out.len(), items.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_on_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 7, 64] {
            let got = parallel_map(Parallelism::with_threads(threads), &items, |x| x * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
        let auto = parallel_map(Parallelism::auto(), &items, |x| x * 3 + 1);
        assert_eq!(auto, expect);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(Parallelism::auto(), &empty, |x| *x).is_empty());
        assert_eq!(
            parallel_map(Parallelism::auto(), &[7u32], |x| *x + 1),
            vec![8]
        );
    }

    #[test]
    fn uneven_work_is_rebalanced() {
        // Costs differ by 1000×; the result must still be ordered.
        let items: Vec<usize> = (0..4 * MIN_ITEMS_PER_THREAD).collect();
        assert_eq!(
            Parallelism::with_threads(4).effective_threads(items.len()),
            4
        );
        let got = parallel_map(Parallelism::with_threads(4), &items, |&i| {
            let spin = if i % 17 == 0 { 10_000 } else { 10 };
            (0..spin).fold(i as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
        });
        let expect: Vec<u64> = items
            .iter()
            .map(|&i| {
                let spin = if i % 17 == 0 { 10_000 } else { 10 };
                (0..spin).fold(i as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn effective_threads_clamps() {
        let n = MIN_ITEMS_PER_THREAD;
        assert_eq!(Parallelism::sequential().effective_threads(100 * n), 1);
        assert_eq!(Parallelism::with_threads(8).effective_threads(3), 1);
        assert_eq!(Parallelism::with_threads(8).effective_threads(0), 1);
        assert_eq!(Parallelism::with_threads(8).effective_threads(2 * n - 1), 1);
        assert_eq!(Parallelism::with_threads(8).effective_threads(2 * n), 2);
        assert_eq!(Parallelism::with_threads(8).effective_threads(3 * n + 1), 3);
        assert_eq!(Parallelism::with_threads(2).effective_threads(100 * n), 2);
        assert_eq!(Parallelism::auto().effective_threads(n), 1);
        assert_eq!(Parallelism::with_threads(0).threads, Some(1));
        assert!(Parallelism::auto().effective_threads(1_000_000) >= 1);
        assert_eq!(Parallelism::sequential().threads, Some(1));
        assert_eq!(Parallelism::auto().threads, None);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<u32> = (0..4 * MIN_ITEMS_PER_THREAD as u32).collect();
        assert_eq!(
            Parallelism::with_threads(4).effective_threads(items.len()),
            4
        );
        let result = std::panic::catch_unwind(|| {
            parallel_map(Parallelism::with_threads(4), &items, |&i| {
                assert!(i != 33, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn a_panic_in_the_callers_share_reaches_the_caller() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<u32> = (0..2 * MIN_ITEMS_PER_THREAD as u32).collect();
        assert_eq!(
            Parallelism::with_threads(2).effective_threads(items.len()),
            2
        );
        let caller = std::thread::current().id();
        let caller_started = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            parallel_map(Parallelism::with_threads(2), &items, |&i| {
                if std::thread::current().id() == caller {
                    caller_started.store(true, Ordering::Release);
                    panic!("caller's share");
                }
                // The one spawned worker holds at most one block while it
                // waits here, so the caller is sure to claim another.
                while !caller_started.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                i
            })
        });
        let payload = result.expect_err("the caller's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller's share"));
    }
}
