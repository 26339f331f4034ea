//! spp-par: deterministic scoped-thread parallel helpers.
//!
//! Everything here is built on `std::thread::scope` — no work stealing, no
//! third-party dependencies, and no shared mutable state beyond what
//! callers pass in. The helpers split work into **contiguous, order-preserving
//! chunks**, so a caller that merges results in worker order gets exactly
//! the sequential result. With one thread every helper degenerates to a
//! plain inline loop (no threads are spawned), which is how
//! [`Parallelism::sequential`] recovers the single-threaded code path
//! exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Worker-thread budget for parallel phases.
///
/// [`Parallelism::AUTO`] resolves to the `SPP_THREADS` environment variable
/// when set (clamped to ≥ 1), otherwise to the number of available cores.
/// The resolution is sampled once per process. A fixed value pins the
/// count; [`Parallelism::fixed`]`(1)` (or [`Parallelism::sequential`])
/// recovers the sequential code path exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism(Option<NonZeroUsize>);

impl Parallelism {
    /// Resolve the worker count from `SPP_THREADS` / available cores.
    pub const AUTO: Parallelism = Parallelism(None);

    /// Exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn fixed(threads: usize) -> Self {
        Parallelism(NonZeroUsize::new(threads.max(1)))
    }

    /// The single-worker budget: bit-identical to the pre-parallel code.
    #[must_use]
    pub fn sequential() -> Self {
        Self::fixed(1)
    }

    /// The resolved worker count (always ≥ 1).
    #[must_use]
    pub fn threads(self) -> usize {
        match self.0 {
            Some(n) => n.get(),
            None => auto_threads(),
        }
    }

    /// Whether this budget resolves to a single worker.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        self.threads() == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::AUTO
    }
}

fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    // The shared knob contract (spp_obs::config): a well-formed count
    // wins, unset falls back silently, malformed warns once naming the
    // value and falls back to all cores.
    *AUTO.get_or_init(|| {
        spp_obs::config::resolve_knob(
            "SPP_THREADS",
            spp_obs::config::parse_positive_usize,
            "all cores",
            || std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        )
    })
}

/// The typed result of a worker that panicked inside a
/// [`try_par_workers`]/[`try_par_ranges`] isolation boundary.
///
/// The panic was caught with `catch_unwind` on the worker's own thread, so
/// it never unwinds across the scope join (no poisoned locks held by the
/// helper, no process abort) and the surviving workers' results are intact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The worker index (`0..threads`) that panicked.
    pub worker: usize,
    /// Best-effort panic payload text (`&str`/`String` payloads; a fixed
    /// placeholder otherwise).
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Best-effort text of a caught panic payload (`&str`/`String` payloads;
/// a fixed placeholder otherwise). For isolation boundaries that call
/// `catch_unwind` themselves rather than through [`try_par_workers`].
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// [`par_workers`] with panic isolation: each worker runs under
/// `catch_unwind`, so one panicking worker yields an `Err` slot while every
/// other worker finishes and returns its result.
pub fn try_par_workers<R, F>(threads: usize, worker: F) -> Vec<Result<R, WorkerPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let guarded = |w: usize| {
        catch_unwind(AssertUnwindSafe(|| worker(w)))
            .map_err(|p| WorkerPanic { worker: w, message: panic_message(p.as_ref()) })
    };
    let threads = threads.max(1);
    if threads == 1 {
        return vec![guarded(0)];
    }
    std::thread::scope(|scope| {
        let guarded = &guarded;
        let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || guarded(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panic already caught"))
            .collect()
    })
}

/// [`par_ranges`] with panic isolation: runs `f` on up to `threads`
/// contiguous ranges of `0..count`, returning per-range results in range
/// order with panics converted to `Err` slots (see [`try_par_workers`]).
pub fn try_par_ranges<R, F>(
    threads: usize,
    count: usize,
    f: F,
) -> Vec<Result<R, WorkerPanic>>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let workers = threads.max(1).min(count.max(1));
    try_par_workers(workers, |w| f(chunk_bounds(count, workers, w)))
}

/// Runs `worker(w)` for every `w in 0..threads` on scoped threads and
/// returns the results in worker order. With `threads <= 1` the single
/// worker runs inline on the calling thread.
///
/// # Panics
///
/// Propagates a panic from any worker. Use [`try_par_workers`] when a
/// worker fault must not take the run down.
pub fn par_workers<R, F>(threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || worker(w))).collect();
        handles.into_iter().map(|h| h.join().expect("parallel worker panicked")).collect()
    })
}

/// Order-preserving parallel map over `0..count`: returns
/// `vec![f(0), f(1), …]` computed on up to `threads` workers, each taking a
/// contiguous index chunk.
pub fn par_map_indices<R, F>(threads: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.max(1).min(count.max(1));
    if workers == 1 {
        return (0..count).map(f).collect();
    }
    par_ranges(workers, count, |range| range.map(&f).collect::<Vec<R>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Order-preserving parallel map consuming a vector: returns
/// `items.into_iter().map(f)` computed on up to `threads` workers.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let count = items.len();
    let workers = threads.max(1).min(count.max(1));
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut iter = items.into_iter();
    for w in 0..workers {
        let Range { start, end } = chunk_bounds(count, workers, w);
        chunks.push(iter.by_ref().take(end - start).collect());
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Splits `0..count` into up to `threads` contiguous ranges and runs
/// `f(range)` for each on its own worker, returning results in range order.
/// Ranges cover `0..count` exactly, in order, with sizes differing by at
/// most one.
pub fn par_ranges<R, F>(threads: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let workers = threads.max(1).min(count.max(1));
    if workers == 1 {
        return vec![f(0..count)];
    }
    par_workers(workers, |w| f(chunk_bounds(count, workers, w)))
}

/// The `w`-th of `workers` near-equal contiguous chunks of `0..count`.
fn chunk_bounds(count: usize, workers: usize, w: usize) -> Range<usize> {
    let base = count / workers;
    let rem = count % workers;
    let start = w * base + w.min(rem);
    let end = start + base + usize::from(w < rem);
    start..end
}

/// Like [`par_ranges`], but every interior shard boundary is rounded down
/// to a multiple of `align`, so each worker except the last receives a
/// whole number of `align`-sized blocks. Shards over word-packed data
/// (e.g. 64 bits per `u64`) then never split a
/// block across workers. The union of the ranges is still exactly
/// `0..count`, in order; with pathological `workers × align > count` some
/// trailing ranges may be empty.
///
/// # Panics
///
/// Panics if `align` is zero.
pub fn par_ranges_aligned<R, F>(threads: usize, count: usize, align: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(align > 0, "alignment must be positive");
    let workers = threads.max(1).min(count.max(1));
    if workers == 1 {
        return vec![f(0..count)];
    }
    par_workers(workers, |w| f(chunk_bounds_aligned(count, workers, align, w)))
}

/// The `w`-th chunk of [`par_ranges_aligned`]: [`chunk_bounds`] with both
/// endpoints rounded down to `align` multiples (the final endpoint stays
/// `count`, so the partition is exact).
fn chunk_bounds_aligned(count: usize, workers: usize, align: usize, w: usize) -> Range<usize> {
    let round = |x: usize| x / align * align;
    let Range { start, end } = chunk_bounds(count, workers, w);
    let start = round(start);
    let end = if w + 1 == workers { count } else { round(end) };
    start..end.max(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::fixed(4).threads(), 4);
        assert_eq!(Parallelism::fixed(0).threads(), 1);
        assert!(Parallelism::sequential().is_sequential());
        assert!(Parallelism::AUTO.threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::AUTO);
    }

    #[test]
    fn spp_threads_parsing() {
        // The SPP_THREADS grammar now lives in spp_obs::config (shared
        // with the SPP_SERVE_* knobs); unset is
        // distinguished from malformed so that only the latter warns.
        use spp_obs::config::{parse_knob, parse_positive_usize, Knob};
        assert_eq!(parse_knob(None, parse_positive_usize), Knob::Unset);
        for bad in ["garbage", "", "-2", "3.5"] {
            assert_eq!(
                parse_knob(Some(bad), parse_positive_usize),
                Knob::Invalid(bad.to_owned())
            );
        }
        assert_eq!(parse_knob(Some("8"), parse_positive_usize), Knob::Value(8));
        assert_eq!(parse_knob(Some(" 3\n"), parse_positive_usize), Knob::Value(3));
        assert_eq!(parse_knob(Some("0"), parse_positive_usize), Knob::Value(1));
    }

    #[test]
    fn chunks_partition_the_range_in_order() {
        for count in [0usize, 1, 5, 16, 17, 100] {
            for workers in 1..=9 {
                let mut next = 0;
                for w in 0..workers {
                    let r = chunk_bounds(count, workers, w);
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, count);
            }
        }
    }

    #[test]
    fn aligned_chunks_partition_the_range_on_block_boundaries() {
        for count in [0usize, 1, 5, 16, 17, 63, 64, 65, 100, 1000] {
            for workers in 1..=9 {
                for align in [1usize, 2, 4, 64] {
                    let mut next = 0;
                    for w in 0..workers {
                        let r = chunk_bounds_aligned(count, workers, align, w);
                        assert_eq!(r.start, next, "count={count} workers={workers} align={align}");
                        assert!(r.start <= r.end);
                        // Every boundary except the final one is aligned.
                        if w + 1 < workers {
                            assert_eq!(r.end % align, 0);
                        }
                        next = r.end;
                    }
                    assert_eq!(next, count);
                }
            }
        }
    }

    #[test]
    fn par_ranges_aligned_covers_everything_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let seen: Vec<usize> = par_ranges_aligned(threads, 130, 4, |r| r.collect::<Vec<_>>())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(seen, (0..130).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "alignment must be positive")]
    fn zero_alignment_panics() {
        let _ = par_ranges_aligned(2, 10, 0, |r| r.len());
    }

    #[test]
    fn par_map_indices_preserves_order_at_any_thread_count() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            assert_eq!(par_map_indices(threads, 37, |i| i * i), expect);
        }
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<String> = (0..23).map(|i| format!("item{i}")).collect();
        let expect: Vec<usize> = items.iter().map(String::len).collect();
        for threads in [1usize, 2, 5, 32] {
            assert_eq!(par_map(threads, items.clone(), |s| s.len()), expect);
        }
    }

    #[test]
    fn par_ranges_covers_everything_once() {
        for threads in [1usize, 2, 7] {
            let ranges = par_ranges(threads, 50, |r| r);
            let total: usize = ranges.iter().map(ExactSizeIterator::len).sum();
            assert_eq!(total, 50);
        }
    }

    #[test]
    fn par_workers_runs_every_worker() {
        let ids = par_workers(6, |w| w);
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert_eq!(par_map_indices(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(8, Vec::<u8>::new(), |b| b), Vec::<u8>::new());
    }

    #[test]
    fn try_par_workers_isolates_a_panicking_worker() {
        for threads in [1usize, 2, 4] {
            let results = try_par_workers(threads, |w| {
                if w == threads - 1 {
                    panic!("injected panic in worker {w}");
                }
                w * 10
            });
            assert_eq!(results.len(), threads);
            for (w, r) in results.iter().enumerate() {
                if w == threads - 1 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.worker, w);
                    assert!(err.message.contains("injected panic"), "{err}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), w * 10);
                }
            }
        }
    }

    #[test]
    fn try_par_ranges_matches_par_ranges_when_nothing_panics() {
        for threads in [1usize, 3, 8] {
            let plain = par_ranges(threads, 50, |r| r.sum::<usize>());
            let tried: Vec<usize> = try_par_ranges(threads, 50, |r| r.sum::<usize>())
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(plain, tried);
        }
    }

    #[test]
    fn worker_panic_payload_text_is_best_effort() {
        let results = try_par_workers(1, |_| -> usize { panic!("{}", 42) });
        assert!(results[0].as_ref().unwrap_err().message.contains("42"));
        let results = try_par_workers(1, |_| -> usize {
            std::panic::panic_any(7_i32)
        });
        assert_eq!(
            results[0].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
    }
}
