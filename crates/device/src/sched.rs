//! Dynamic chunk scheduling — the real distributor and its analytic replay.
//!
//! The paper (§IV.D): "All threads dynamically retrieve these task units
//! through a mutex-protected scheduling offset. To lower the task retrieving
//! frequency and thus the scheduling overhead, a thread can obtain multiple
//! tasks each time." [`ChunkScheduler`] implements exactly that (with an
//! atomic offset, the modern equivalent of the mutex-protected counter), and
//! [`makespan`] replays a recorded list of chunk costs through the same
//! earliest-available-worker discipline to predict the phase's parallel
//! running time on a device with a different thread count than the host.
//! [`RunScheduler`] hands each host thread a contiguous run of tasks
//! instead, for phases whose writes follow task order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A dynamic self-scheduling counter over `0..total` in grabs of `grab`.
#[derive(Debug)]
pub struct ChunkScheduler {
    next: AtomicUsize,
    total: usize,
    grab: usize,
}

impl ChunkScheduler {
    /// Schedule `total` items in batches of `grab` (≥1).
    pub fn new(total: usize, grab: usize) -> Self {
        ChunkScheduler {
            next: AtomicUsize::new(0),
            total,
            grab: grab.max(1),
        }
    }

    /// Grab the next batch; `None` when the range is exhausted.
    #[inline]
    pub fn next_batch(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.grab, Ordering::Relaxed);
        if start >= self.total {
            None
        } else {
            Some(start..(start + self.grab).min(self.total))
        }
    }

    /// Number of batches a full drain will produce.
    pub fn num_batches(&self) -> usize {
        self.total.div_ceil(self.grab)
    }

    /// Reset for reuse in the next superstep.
    pub fn reset(&self) {
        self.next.store(0, Ordering::Relaxed);
    }
}

/// One thread's run of a [`RunScheduler`]: the items `front..back` it has
/// not handed out yet, packed into one word (`front` low, `back` high) so
/// its owner and a thief claim items with one compare-and-swap.
#[derive(Debug)]
#[repr(align(64))]
struct Run(AtomicU64);

/// Contiguous runs over `0..total`, one per thread: a thread takes items
/// from the front of its own run, and once that is empty, from the back of
/// the others' runs. Neighbouring items then mostly go to one thread, which
/// keeps writes that follow item order (a column's rows in source order)
/// on one core's cache lines.
#[derive(Debug)]
pub struct RunScheduler {
    runs: Vec<Run>,
}

impl RunScheduler {
    /// Split `0..total` into `threads` (≥1) runs of near-equal length.
    ///
    /// # Panics
    /// Panics if `total` does not fit in 32 bits.
    pub fn new(total: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        assert!(
            u32::try_from(total).is_ok(),
            "RunScheduler over {total} items"
        );
        let bound = |t: usize| (total * t / threads) as u64;
        RunScheduler {
            runs: (0..threads)
                .map(|t| Run(AtomicU64::new(bound(t) | bound(t + 1) << 32)))
                .collect(),
        }
    }

    /// The next item for thread `tid`; `None` once every run is empty.
    #[inline]
    pub fn next(&self, tid: usize) -> Option<usize> {
        let n = self.runs.len();
        let own = tid % n;
        (0..n).find_map(|i| self.take(own, (own + i) % n))
    }

    /// Take one item from `run`: its front when `run` is the caller's own,
    /// its back otherwise.
    fn take(&self, own: usize, run: usize) -> Option<usize> {
        let cell = &self.runs[run].0;
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let (front, back) = (cur & u64::from(u32::MAX), cur >> 32);
            if front >= back {
                return None;
            }
            let (next, item) = if run == own {
                (cur + 1, front)
            } else {
                (cur - (1 << 32), back - 1)
            };
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(item as usize),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Result of an analytic makespan replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MakespanReport {
    /// Finishing time of the last worker (same unit as the chunk costs).
    pub makespan: f64,
    /// Sum of all chunk costs.
    pub total_work: f64,
    /// `makespan / (total_work / workers)`: 1.0 = perfectly balanced.
    pub imbalance: f64,
}

/// Replay `chunks` (costs, in device cycles or ops) through dynamic
/// self-scheduling onto `workers` virtual workers: each chunk goes to the
/// earliest-available worker, in order — the same discipline
/// [`ChunkScheduler`] induces at runtime.
///
/// # Examples
///
/// ```
/// use phigraph_device::makespan;
/// // Four unit chunks on two workers finish in two time units.
/// let r = makespan(&[1.0, 1.0, 1.0, 1.0], 2);
/// assert_eq!(r.makespan, 2.0);
/// // A single heavy chunk bounds the schedule no matter the worker count.
/// assert!(makespan(&[8.0, 1.0], 16).makespan >= 8.0);
/// ```
pub fn makespan(chunks: &[f64], workers: usize) -> MakespanReport {
    let workers = workers.max(1);
    let total_work: f64 = chunks.iter().sum();
    if chunks.is_empty() || total_work == 0.0 {
        return MakespanReport {
            makespan: 0.0,
            total_work,
            imbalance: 1.0,
        };
    }
    if workers == 1 {
        return MakespanReport {
            makespan: total_work,
            total_work,
            imbalance: 1.0,
        };
    }
    // Min-heap of worker available-times. f64 isn't Ord; order by bits of
    // the non-negative values (monotone for non-negative floats).
    #[derive(PartialEq)]
    struct T(f64);
    impl Eq for T {}
    impl PartialOrd for T {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for T {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&o.0).expect("NaN chunk cost")
        }
    }
    let mut heap: BinaryHeap<Reverse<T>> = (0..workers).map(|_| Reverse(T(0.0))).collect();
    let mut finish: f64 = 0.0;
    for &c in chunks {
        let Reverse(T(avail)) = heap.pop().expect("heap nonempty");
        let done = avail + c.max(0.0);
        finish = finish.max(done);
        heap.push(Reverse(T(done)));
    }
    let ideal = total_work / workers as f64;
    MakespanReport {
        makespan: finish,
        total_work,
        imbalance: if ideal > 0.0 { finish / ideal } else { 1.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_covers_range_exactly_once() {
        let s = ChunkScheduler::new(1000, 7);
        let covered = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    while let Some(r) = s.next_batch() {
                        covered.fetch_add((r.end - r.start) as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(covered.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn scheduler_reset_allows_reuse() {
        let s = ChunkScheduler::new(10, 4);
        let mut n = 0;
        while s.next_batch().is_some() {
            n += 1;
        }
        assert_eq!(n, s.num_batches());
        s.reset();
        assert_eq!(s.next_batch(), Some(0..4));
    }

    #[test]
    fn run_scheduler_hands_out_every_item_once() {
        for (total, threads) in [(0, 3), (1, 4), (10, 3), (1000, 8), (7, 1)] {
            let s = RunScheduler::new(total, threads);
            let seen: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
            std::thread::scope(|scope| {
                for tid in 0..threads {
                    let (s, seen) = (&s, &seen);
                    scope.spawn(move || {
                        while let Some(i) = s.next(tid) {
                            seen[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert!(
                seen.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                "{total} items on {threads} threads"
            );
        }
    }

    #[test]
    fn run_scheduler_owner_takes_its_front_and_thieves_the_back() {
        let s = RunScheduler::new(10, 2);
        // Runs 0..5 and 5..10.
        assert_eq!(s.next(0), Some(0));
        assert_eq!(s.next(1), Some(5));
        assert_eq!(s.next(1), Some(6));
        for i in 1..5 {
            assert_eq!(s.next(0), Some(i));
        }
        // Thread 0's run is empty: it steals from the far end of thread 1's.
        assert_eq!(s.next(0), Some(9));
        assert_eq!(s.next(1), Some(7));
        assert_eq!(s.next(0), Some(8));
        assert_eq!(s.next(1), None);
        assert_eq!(s.next(0), None);
    }

    #[test]
    fn makespan_balanced_chunks() {
        let chunks = vec![1.0; 64];
        let r = makespan(&chunks, 8);
        assert_eq!(r.makespan, 8.0);
        assert!((r.imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_single_heavy_chunk_dominates() {
        let mut chunks = vec![1.0; 10];
        chunks.push(100.0);
        let r = makespan(&chunks, 4);
        // The heavy chunk arrives late and bounds the schedule.
        assert!(r.makespan >= 100.0);
        assert!(r.makespan <= 100.0 + 10.0);
        assert!(r.imbalance > 3.0);
    }

    #[test]
    fn makespan_more_workers_never_slower() {
        let chunks: Vec<f64> = (0..100).map(|i| ((i * 37) % 13) as f64 + 1.0).collect();
        let mut prev = f64::INFINITY;
        for w in [1, 2, 4, 8, 16, 64] {
            let r = makespan(&chunks, w);
            assert!(r.makespan <= prev + 1e-9, "workers={w}");
            prev = r.makespan;
        }
    }

    #[test]
    fn makespan_one_worker_is_total() {
        let chunks = vec![3.0, 4.0, 5.0];
        let r = makespan(&chunks, 1);
        assert_eq!(r.makespan, 12.0);
        assert_eq!(r.total_work, 12.0);
    }

    #[test]
    fn makespan_empty_is_zero() {
        let r = makespan(&[], 8);
        assert_eq!(r.makespan, 0.0);
    }
}
