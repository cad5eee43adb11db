//! Log2-bucketed histograms for engine distributions.
//!
//! Bucket `0` counts the value `0`; bucket `i ≥ 1` counts values `v` with
//! `2^(i-1) ≤ v < 2^i` — i.e. the bucket index is the bit length of `v`.
//! 33 buckets cover `0 ..= u32::MAX`-ish ranges; anything wider saturates
//! into the last bucket. Recording is one `fetch_add` per value plus the
//! count/sum tallies, so histograms are cheap enough to leave on for every
//! traced run.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets (0 plus bit lengths 1..=32).
pub const BUCKETS: usize = 33;

/// The distributions the engines feed. A closed set so the registry is a
/// fixed array with no locking or allocation on the record path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum HistKind {
    /// Remote exchange round-trip latency in microseconds.
    ExchangeRttUs = 0,
    /// Barrier checkpoint write time in microseconds.
    CheckpointWriteUs = 1,
    /// Latency between a device going silent and the watchdog noticing,
    /// in milliseconds.
    WatchdogLatencyMs = 2,
    /// Serving daemon: time a job spent queued before a worker picked it
    /// up, in microseconds.
    JobWaitUs = 3,
    /// Serving daemon: job execution time on a worker, in microseconds.
    JobExecUs = 4,
    /// Serving daemon: one append to the crash-recovery job journal
    /// (serialize + write + flush), in microseconds.
    JournalAppendUs = 5,
    /// Serving daemon: hot graph reload time (load + validate + swap the
    /// shared CSR), in microseconds.
    GraphSwapUs = 6,
    /// Serving daemon: load-shedding ladder level observed at each
    /// admission decision (0 = normal, 3 = max shedding).
    ShedLevel = 7,
}

impl HistKind {
    /// Every kind, in discriminant order.
    pub const ALL: [HistKind; 8] = [
        HistKind::ExchangeRttUs,
        HistKind::CheckpointWriteUs,
        HistKind::WatchdogLatencyMs,
        HistKind::JobWaitUs,
        HistKind::JobExecUs,
        HistKind::JournalAppendUs,
        HistKind::GraphSwapUs,
        HistKind::ShedLevel,
    ];

    /// Stable metric name (Prometheus/JSON exports).
    pub fn name(&self) -> &'static str {
        match self {
            HistKind::ExchangeRttUs => "exchange_rtt_us",
            HistKind::CheckpointWriteUs => "checkpoint_write_us",
            HistKind::WatchdogLatencyMs => "watchdog_latency_ms",
            HistKind::JobWaitUs => "job_wait_us",
            HistKind::JobExecUs => "job_exec_us",
            HistKind::JournalAppendUs => "journal_append_us",
            HistKind::GraphSwapUs => "graph_swap_us",
            HistKind::ShedLevel => "shed_level",
        }
    }
}

/// Bucket index for a value: 0 for 0, else bit length clamped to the last
/// bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the saturating
/// last bucket).
pub fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One lock-free log2 histogram.
#[derive(Debug)]
pub struct Hist {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Hist {
    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Copy out the current state.
    pub fn snapshot(&self, kind: HistKind) -> HistSnapshot {
        HistSnapshot {
            name: kind.name(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Plain copied-out histogram state.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Metric name from [`HistKind::name`].
    pub name: &'static str,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket (non-cumulative) counts, length [`BUCKETS`].
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// An all-zero snapshot for `kind` — the identity for [`merge`] and
    /// the baseline for [`delta`] when no earlier sample exists.
    ///
    /// [`merge`]: HistSnapshot::merge
    /// [`delta`]: HistSnapshot::delta
    pub fn empty(kind: HistKind) -> Self {
        HistSnapshot {
            name: kind.name(),
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Fold `other` into `self` bucket-by-bucket (plus count and sum).
    /// Merging snapshots of different kinds is a logic error and panics.
    pub fn merge(&mut self, other: &HistSnapshot) {
        assert_eq!(self.name, other.name, "merging mismatched histograms");
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// The difference `self − earlier`, saturating per bucket: the
    /// histogram of values recorded *between* the two snapshots. Because
    /// snapshots of a live histogram are not atomic across buckets, a
    /// bucket incremented mid-snapshot can appear in `earlier` but not
    /// yet in `self`; saturation keeps such windows non-negative instead
    /// of wrapping.
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        assert_eq!(self.name, earlier.name, "delta over mismatched histograms");
        HistSnapshot {
            name: self.name,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }

    /// Mean recorded value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest bucket upper bound covering at least `q` (0..=1) of the
    /// recorded values — a log2-resolution quantile (`None` when empty).
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return Some(bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }

    /// Non-empty `(upper_bound, count)` pairs, for compact export.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (bucket_upper(i), *c))
            .collect()
    }
}

/// The fixed registry of all histogram kinds.
#[derive(Debug, Default)]
pub struct HistSet {
    hists: [Hist; HistKind::ALL.len()],
}

impl HistSet {
    /// Empty set.
    pub fn new() -> Self {
        HistSet::default()
    }

    /// The histogram for `kind`.
    #[inline]
    pub fn get(&self, kind: HistKind) -> &Hist {
        &self.hists[kind as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // Every value sits at or below its bucket's upper bound.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, 1 << 40] {
            assert!(v <= bucket_upper(bucket_index(v)), "v={v}");
        }
    }

    #[test]
    fn record_and_snapshot() {
        let h = Hist::default();
        for v in [0u64, 1, 2, 3, 8, 8, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot(HistKind::ExchangeRttUs);
        assert_eq!(s.name, "exchange_rtt_us");
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 22 + (1 << 40));
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[4], 2);
        // 1<<40 has bit length 41: saturates into the last bucket.
        assert_eq!(s.buckets[BUCKETS - 1], 1);
        assert_eq!(s.nonzero().len(), 5);
    }

    #[test]
    fn mean_and_quantiles() {
        let h = Hist::default();
        assert_eq!(h.snapshot(HistKind::ExchangeRttUs).mean(), None);
        assert_eq!(
            h.snapshot(HistKind::ExchangeRttUs).quantile_upper(0.5),
            None
        );
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1 << 20);
        let s = h.snapshot(HistKind::ExchangeRttUs);
        assert_eq!(s.quantile_upper(0.5), Some(7));
        assert_eq!(s.quantile_upper(1.0), Some((1 << 21) - 1));
        assert!((s.mean().unwrap() - (99.0 * 4.0 + (1 << 20) as f64) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Hist::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        let s = h.snapshot(HistKind::CheckpointWriteUs);
        assert_eq!(s.count, 4000);
        assert_eq!(s.sum, 4 * (999 * 1000 / 2));
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn empty_snapshot_merges_and_deltas_as_identity() {
        let empty = HistSnapshot::empty(HistKind::JobWaitUs);
        assert_eq!(empty.name, "job_wait_us");
        assert_eq!(empty.count, 0);
        assert_eq!(empty.buckets.len(), BUCKETS);
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.quantile_upper(0.99), None);
        assert!(empty.nonzero().is_empty());

        let h = Hist::default();
        h.record(5);
        h.record(9);
        let s = h.snapshot(HistKind::JobWaitUs);

        // empty is the additive identity for merge …
        let mut merged = s.clone();
        merged.merge(&HistSnapshot::empty(HistKind::JobWaitUs));
        assert_eq!(merged.count, s.count);
        assert_eq!(merged.sum, s.sum);
        assert_eq!(merged.buckets, s.buckets);
        // … and the zero baseline for delta.
        let d = s.delta(&HistSnapshot::empty(HistKind::JobWaitUs));
        assert_eq!(d.count, s.count);
        assert_eq!(d.sum, s.sum);
        assert_eq!(d.buckets, s.buckets);
        // Delta of a snapshot against itself is empty.
        let z = s.delta(&s);
        assert_eq!(z.count, 0);
        assert_eq!(z.sum, 0);
        assert!(z.nonzero().is_empty());
    }

    #[test]
    fn single_bucket_snapshot_quantiles_collapse() {
        let h = Hist::default();
        for _ in 0..17 {
            h.record(6); // bit length 3 → bucket 3, upper bound 7.
        }
        let s = h.snapshot(HistKind::JobExecUs);
        assert_eq!(s.nonzero(), vec![(7, 17)]);
        // Every quantile of a one-bucket histogram is that bucket's
        // upper bound.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile_upper(q), Some(7), "q={q}");
        }
        assert!((s.mean().unwrap() - 6.0).abs() < 1e-9);
        // Merging two copies doubles counts but leaves quantiles fixed.
        let mut m = s.clone();
        m.merge(&s);
        assert_eq!(m.count, 34);
        assert_eq!(m.quantile_upper(0.5), Some(7));
    }

    #[test]
    fn overflow_bucket_saturates_merge_and_delta() {
        let h = Hist::default();
        h.record(u64::MAX); // saturates into the last bucket …
        h.record(1 << 60); // … as does anything past bucket 32.
        let s = h.snapshot(HistKind::ExchangeRttUs);
        assert_eq!(s.buckets[BUCKETS - 1], 2);
        assert_eq!(s.quantile_upper(0.5), Some(u64::MAX));
        assert_eq!(s.quantile_upper(1.0), Some(u64::MAX));
        // The sum wrapped (u64::MAX + 2^60 overflows); count stays exact
        // and delta/merge stay well-defined on the buckets.
        let mut doubled = s.clone();
        doubled.merge(&s);
        assert_eq!(doubled.buckets[BUCKETS - 1], 4);
        let back = doubled.delta(&s);
        assert_eq!(back.buckets[BUCKETS - 1], 2);
        assert_eq!(back.count, 2);
        // Torn windows (earlier ahead of later in one bucket) saturate
        // to zero rather than wrapping to u64::MAX.
        let torn = s.delta(&doubled);
        assert_eq!(torn.count, 0);
        assert_eq!(torn.buckets[BUCKETS - 1], 0);
    }

    #[test]
    fn concurrent_record_during_snapshot_stays_consistent() {
        let h = std::sync::Arc::new(Hist::default());
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        for v in [1u64, 3, 200, 70_000] {
                            h.record(v);
                        }
                    }
                });
            }
            let mut last_total = 0u64;
            for _ in 0..200 {
                let snap = h.snapshot(HistKind::JournalAppendUs);
                let total: u64 = snap.buckets.iter().sum();
                // Bucket totals never regress across snapshots, and every
                // windowed delta against the previous snapshot is
                // non-negative in every bucket (the saturating contract).
                assert!(total >= last_total);
                last_total = total;
                // count is loaded before the buckets and bumped after
                // the bucket on the record path, so a mid-record
                // snapshot sees buckets at or ahead of the count —
                // never behind it.
                assert!(total >= snap.count);
            }
            stop.store(true, Ordering::Relaxed);
        });
        let fin = h.snapshot(HistKind::JournalAppendUs);
        assert_eq!(fin.buckets.iter().sum::<u64>(), fin.count);
    }

    #[test]
    fn kind_names_unique() {
        let mut names: Vec<&str> = HistKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HistKind::ALL.len());
    }
}
