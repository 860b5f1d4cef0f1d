//! Bucket-parallel loops: the one place that decides how many workers a
//! bucket loop gets and the only place that spawns them.
//!
//! The paper's operators iterate `forall bucket in buckets`, and a SMA
//! bucket's summary "is independent of other buckets" (§2.4) — an
//! embarrassingly parallel loop, because every bucket's pages are
//! disjoint. This module provides:
//!
//! * [`Parallelism`] — the knob saying how many worker threads to use
//!   (default: every available core, counted once per process),
//! * [`morsels`] — a contiguous partition of `0..n_buckets` so each worker
//!   scans a run of adjacent buckets (preserving sequential page access
//!   within a worker), and
//! * [`map_morsels`] — the driver: it runs a function over each morsel
//!   and returns the results **in bucket order**, so concatenating them
//!   reproduces the serial loop exactly. Any loop over independent,
//!   numbered units can use it; the warehouse's segment export runs one
//!   over its tables.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Degree of intra-query parallelism for bucket loops.
///
/// `Parallelism::default()` is the number of available cores; use
/// [`Parallelism::serial`] to force the single-threaded path (useful for
/// deterministic I/O traces in tests and benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// Exactly one thread: the serial paper algorithm, unchanged.
    pub fn serial() -> Parallelism {
        Parallelism(NonZeroUsize::MIN)
    }

    /// `threads` worker threads (clamped up to at least 1).
    pub fn new(threads: usize) -> Parallelism {
        Parallelism(NonZeroUsize::new(threads.max(1)).unwrap_or(NonZeroUsize::MIN))
    }

    /// One thread per available core (falls back to 1 when the runtime
    /// cannot tell). The count is resolved once per process — asking the
    /// OS reads cgroup files, too slow to repeat per query — so a later
    /// change of the process's CPU affinity or quota is not seen.
    pub fn available() -> Parallelism {
        static CORES: OnceLock<NonZeroUsize> = OnceLock::new();
        Parallelism(
            *CORES
                .get_or_init(|| std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)),
        )
    }

    /// Number of worker threads.
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::available()
    }
}

/// Splits `0..n_buckets` into at most `threads` contiguous, non-empty
/// morsels covering the whole range in order — at most one per bucket.
///
/// Contiguity matters twice: each worker reads adjacent pages (the
/// sequential-I/O pattern the cost model rewards), and concatenating the
/// morsel results in order reproduces the serial bucket order exactly.
pub fn morsels(n_buckets: u32, threads: usize) -> Vec<Range<u32>> {
    if n_buckets == 0 {
        return Vec::new();
    }
    let threads = (threads.max(1) as u32).min(n_buckets);
    let chunk = n_buckets.div_ceil(threads);
    (0..threads)
        .map(|t| (t * chunk).min(n_buckets)..((t + 1) * chunk).min(n_buckets))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs `work` over the [`morsels`] of `0..n_buckets` and returns its
/// results in bucket order (empty for zero buckets).
///
/// A single morsel runs inline on the caller's thread; otherwise each
/// morsel gets a scoped worker. Every worker is joined before the first
/// error (in bucket order) is returned, and a worker that panics becomes
/// `on_panic()` instead of unwinding into the caller.
pub fn map_morsels<T, E, W, P>(
    n_buckets: u32,
    parallelism: Parallelism,
    work: W,
    on_panic: P,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    W: Fn(Range<u32>) -> Result<T, E> + Sync,
    P: Fn() -> E,
{
    let parts = morsels(n_buckets, parallelism.get());
    if parts.len() <= 1 {
        return parts.into_iter().map(work).collect();
    }
    let work = &work;
    let joined: Vec<Result<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|r| scope.spawn(move || work(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(on_panic())))
            .collect()
    });
    joined.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_the_range_in_order() {
        for n in [0u32, 1, 2, 3, 7, 30, 31, 1000] {
            for threads in [1usize, 2, 3, 4, 8, 64] {
                let parts = morsels(n, threads);
                let flat: Vec<u32> = parts.iter().cloned().flatten().collect();
                let expect: Vec<u32> = (0..n).collect();
                assert_eq!(flat, expect, "n={n} threads={threads}");
                assert!(parts.len() <= threads.max(1), "n={n} threads={threads}");
                assert!(parts.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn zero_threads_behaves_like_one() {
        assert_eq!(morsels(5, 0), vec![0..5]);
    }

    #[test]
    fn parallelism_knob() {
        assert_eq!(Parallelism::serial().get(), 1);
        assert_eq!(Parallelism::new(0).get(), 1);
        assert_eq!(Parallelism::new(6).get(), 6);
        assert!(Parallelism::available().get() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::available());
    }

    #[test]
    fn a_single_morsel_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for (n, threads) in [(1u32, 8usize), (5, 1), (64, 1)] {
            let ids = map_morsels(
                n,
                Parallelism::new(threads),
                |_| Ok::<_, ()>(std::thread::current().id()),
                || (),
            )
            .unwrap();
            assert_eq!(ids, vec![caller], "n={n} threads={threads}");
        }
        // Several morsels each get a worker of their own.
        let ids = map_morsels(
            4,
            Parallelism::new(2),
            |_| Ok::<_, ()>(std::thread::current().id()),
            || (),
        )
        .unwrap();
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    fn results_come_back_in_bucket_order() {
        for n in [0u32, 1, 2, 3, 7, 31, 100] {
            let expect: Vec<u32> = (0..n).collect();
            for threads in [1usize, 2, 3, 8, 64] {
                let parts = map_morsels(
                    n,
                    Parallelism::new(threads),
                    |r| Ok::<_, ()>(r.collect::<Vec<u32>>()),
                    || (),
                )
                .unwrap();
                assert!(parts.len() <= threads, "n={n} threads={threads}");
                let flat: Vec<u32> = parts.into_iter().flatten().collect();
                assert_eq!(flat, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn the_first_error_in_bucket_order_wins() {
        let got = map_morsels(
            8,
            Parallelism::new(4),
            |r| if r.start >= 2 { Err(r.start) } else { Ok(()) },
            || u32::MAX,
        );
        assert_eq!(got, Err(2));
    }

    #[test]
    fn a_panicking_worker_is_the_callers_error() {
        let got = map_morsels(
            8,
            Parallelism::new(4),
            |r| {
                if r.contains(&5) {
                    panic!("worker for {r:?} fails");
                }
                Ok(r.start)
            },
            || "worker panicked",
        );
        assert_eq!(got, Err("worker panicked"));
    }
}
