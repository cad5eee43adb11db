//! Event counters filled by the engines and consumed by the cost model.
//!
//! Counters are collected per superstep. Phase-level counts come in two
//! flavours: aggregate totals (message counts, bytes) and *per-chunk*
//! records, which let the cost model replay the runtime's dynamic scheduler
//! to obtain a load-balance-aware makespan instead of assuming perfect
//! parallel efficiency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw work record for one generation-phase scheduling chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GenChunk {
    /// Active vertices scanned in this chunk.
    pub vertices: u64,
    /// Out-edges traversed.
    pub edges: u64,
    /// Messages produced.
    pub msgs: u64,
}

/// Raw work record for one processing-phase scheduling chunk (a batch of
/// vector arrays).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcChunk {
    /// Vector-array rows reduced.
    pub rows: u64,
    /// Messages contained in those rows.
    pub msgs: u64,
    /// Bubble cells filled with the reduction identity.
    pub holes: u64,
    /// Occupied columns finalized.
    pub columns: u64,
}

/// Insertion contention profile for one superstep: how concentrated the
/// destination columns were. Built from the per-column message counts the
/// buffer tracks anyway (its insertion cursors).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InsertProfile {
    /// Total messages inserted.
    pub total: u64,
    /// Messages in the hottest single column — a lower bound on
    /// serialization for any per-column locking scheme.
    pub max_column: u64,
    /// Sum over columns of `count²`; `sum_sq / total²` is the probability
    /// that two random insertions collide on a column, which scales the
    /// contended-atomic cost.
    pub sum_sq: f64,
}

impl InsertProfile {
    /// Build from per-column counts.
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        let mut p = InsertProfile::default();
        for c in counts {
            p.record(c);
        }
        p
    }

    /// Record one column's message count.
    #[inline]
    pub fn record(&mut self, count: u64) {
        self.total += count;
        self.max_column = self.max_column.max(count);
        self.sum_sq += (count as f64) * (count as f64);
    }

    /// Probability that two uniformly random insertions target the same
    /// column (0 when fewer than 2 messages).
    pub fn collision_probability(&self) -> f64 {
        if self.total < 2 {
            0.0
        } else {
            self.sum_sq / (self.total as f64 * self.total as f64)
        }
    }

    /// Merge another profile (e.g. across vertex groups).
    pub fn merge(&mut self, other: &InsertProfile) {
        self.total += other.total;
        self.max_column = self.max_column.max(other.max_column);
        self.sum_sq += other.sum_sq;
    }
}

/// All events tallied for one superstep on one device.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepCounters {
    // -- message generation --
    /// Vertices that were active and scanned.
    pub active_vertices: u64,
    /// Out-edges traversed by active vertices.
    pub gen_edges: u64,
    /// Messages destined to vertices on this device.
    pub msgs_local: u64,
    /// Messages destined to the peer device.
    pub msgs_remote: u64,
    /// Per-chunk generation records, for the makespan replay.
    pub gen_chunks: Vec<GenChunk>,
    /// Insertion contention profile (locking engine; also drives the flat
    /// engine's per-vertex lock contention).
    pub insert_profile: InsertProfile,
    /// Messages per simulated mover, local and peer-bound: entry `m`
    /// counts those whose destination is `≡ m (mod movers)`, the
    /// pipelined cost model's mover workload (empty for non-pipelined
    /// runs).
    pub mover_msgs: Vec<u64>,
    /// Columns newly allocated this step (each takes one group lock).
    pub column_allocs: u64,
    /// Buffer cells reset at the start of the step (index arrays, cursors).
    pub reset_cells: u64,

    // -- pipeline backpressure / occupancy --
    //
    // No engine moves messages through worker→mover queues (the pipelined
    // mode runs the locking engine's host path), so these four read 0.
    // They stay for the report and metrics formats that name them.
    /// Full-queue spin iterations workers burned waiting for mover space.
    /// Always 0.
    pub queue_full_spins: u64,
    /// Worker→mover batches flushed through SPSC queues. Always 0.
    pub flush_batches: u64,
    /// Messages that travelled inside those batches. Always 0.
    pub batched_msgs: u64,
    /// Empty polling rounds movers made over their queues. Always 0.
    pub mover_idle_polls: u64,

    // -- message processing --
    /// Vector-array rows reduced (lane path).
    pub proc_rows: u64,
    /// Messages reduced this step.
    pub proc_msgs: u64,
    /// Bubble cells filled with the reduction identity before lane
    /// reduction ("bubbles in the lanes due to the difference in the number
    /// of received messages for each vertex").
    pub holes_filled: u64,
    /// Per-chunk processing records.
    pub proc_chunks: Vec<ProcChunk>,
    /// Columns that held at least one message.
    pub occupied_columns: u64,

    // -- vertex update --
    /// Vertices whose update function ran.
    pub updated_vertices: u64,
    /// Vertices left active for the next superstep.
    pub next_active: u64,

    // -- memory traffic (bytes touched per phase) --
    /// Bytes read+written during generation.
    pub bytes_gen: u64,
    /// Bytes read+written during processing.
    pub bytes_proc: u64,
    /// Bytes read+written during update.
    pub bytes_update: u64,

    // -- communication --
    /// Remote messages before combining.
    pub remote_before_combine: u64,
    /// Remote messages actually sent after combining.
    pub remote_after_combine: u64,
    /// Wire bytes exchanged with the peer.
    pub comm_bytes: u64,

    // -- fault tolerance --
    /// Barrier checkpoints written at the end of this superstep (0 or 1 in
    /// practice; recovery replays drop superseded step records).
    pub checkpoints_written: u64,
    /// Encoded snapshot bytes written at the end of this superstep.
    pub checkpoint_bytes: u64,
    /// Faults the injector fired during this superstep.
    pub faults_injected: u64,

    // -- liveness --
    /// Heartbeat ticks this device emitted during the superstep (one per
    /// phase boundary; the watchdog uses staleness, this tallies volume).
    pub heartbeats: u64,
    /// Remote exchanges lost on the link during this superstep.
    pub exchange_drops: u64,
    /// Remote exchanges that hit the deadline waiting for the peer.
    pub exchange_timeouts: u64,
}

impl StepCounters {
    /// Total messages generated.
    pub fn msgs_total(&self) -> u64 {
        self.msgs_local + self.msgs_remote
    }

    /// Fold another step's counters into this one (used to total a run).
    pub fn accumulate(&mut self, other: &StepCounters) {
        self.active_vertices += other.active_vertices;
        self.gen_edges += other.gen_edges;
        self.msgs_local += other.msgs_local;
        self.msgs_remote += other.msgs_remote;
        self.gen_chunks.extend_from_slice(&other.gen_chunks);
        self.insert_profile.merge(&other.insert_profile);
        if self.mover_msgs.len() < other.mover_msgs.len() {
            self.mover_msgs.resize(other.mover_msgs.len(), 0);
        }
        for (a, b) in self.mover_msgs.iter_mut().zip(&other.mover_msgs) {
            *a += b;
        }
        self.column_allocs += other.column_allocs;
        self.reset_cells += other.reset_cells;
        self.queue_full_spins += other.queue_full_spins;
        self.flush_batches += other.flush_batches;
        self.batched_msgs += other.batched_msgs;
        self.mover_idle_polls += other.mover_idle_polls;
        self.proc_rows += other.proc_rows;
        self.proc_msgs += other.proc_msgs;
        self.holes_filled += other.holes_filled;
        self.proc_chunks.extend_from_slice(&other.proc_chunks);
        self.occupied_columns += other.occupied_columns;
        self.updated_vertices += other.updated_vertices;
        self.next_active += other.next_active;
        self.bytes_gen += other.bytes_gen;
        self.bytes_proc += other.bytes_proc;
        self.bytes_update += other.bytes_update;
        self.remote_before_combine += other.remote_before_combine;
        self.remote_after_combine += other.remote_after_combine;
        self.comm_bytes += other.comm_bytes;
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.faults_injected += other.faults_injected;
        self.heartbeats += other.heartbeats;
        self.exchange_drops += other.exchange_drops;
        self.exchange_timeouts += other.exchange_timeouts;
    }
}

#[derive(Debug)]
struct HeartbeatInner {
    origin: Instant,
    ticks: AtomicU64,
    last_tick_nanos: AtomicU64,
}

/// A cheaply clonable per-device liveness beacon.
///
/// The device loop calls [`Heartbeat::tick`] at every phase boundary; a
/// watchdog on another thread polls [`Heartbeat::since_last`] /
/// [`Heartbeat::is_stalled`] against a deadline. Construction counts as the
/// first tick, so a device that dies before its first phase still shows a
/// meaningful staleness instead of an unset sentinel.
#[derive(Clone, Debug)]
pub struct Heartbeat {
    inner: Arc<HeartbeatInner>,
}

impl Heartbeat {
    /// New beacon; "now" counts as the first observation.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Heartbeat {
            inner: Arc::new(HeartbeatInner {
                origin: Instant::now(),
                ticks: AtomicU64::new(0),
                last_tick_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Record a phase boundary.
    #[inline]
    pub fn tick(&self) {
        let nanos = self.inner.origin.elapsed().as_nanos() as u64;
        // Monotone max: concurrent tickers never move the beacon backwards.
        self.inner
            .last_tick_nanos
            .fetch_max(nanos, Ordering::Release);
        self.inner.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Total ticks so far.
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Time since the most recent tick (or since construction if none).
    pub fn since_last(&self) -> Duration {
        let last = Duration::from_nanos(self.inner.last_tick_nanos.load(Ordering::Acquire));
        self.inner.origin.elapsed().saturating_sub(last)
    }

    /// Whether the beacon has been silent for longer than `deadline`.
    pub fn is_stalled(&self, deadline: Duration) -> bool {
        self.since_last() > deadline
    }
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Why the token was cancelled: 0 = not cancelled, otherwise a
    /// [`CancelReason`] discriminant.
    reason: AtomicU64,
    /// Liveness beacon ticked at every poll site, so the same watchdog
    /// that detects silent devices (PR 3) can tell a *hung* job (no polls)
    /// from a merely *slow* one (polling but not finishing).
    hb: Heartbeat,
}

/// Why a [`CancelToken`] fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The job's wall-clock deadline passed.
    Deadline = 1,
    /// The owner is shutting down and revoked the work.
    Shutdown = 2,
    /// Cancelled explicitly by the submitter.
    Requested = 3,
}

impl CancelReason {
    /// Stable short name for protocol responses and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Shutdown => "shutdown",
            CancelReason::Requested => "cancelled",
        }
    }

    fn from_u64(v: u64) -> Option<CancelReason> {
        match v {
            1 => Some(CancelReason::Deadline),
            2 => Some(CancelReason::Shutdown),
            3 => Some(CancelReason::Requested),
            _ => None,
        }
    }
}

/// A cheaply clonable cooperative cancellation token.
///
/// The engines poll [`CancelToken::poll`] at phase boundaries inside each
/// superstep and abandon the run early once the token fires; the owner
/// (e.g. the serving daemon's deadline watchdog) calls
/// [`CancelToken::cancel`] from any thread. Every poll also ticks an
/// embedded [`Heartbeat`], so the watchdog can distinguish a job that
/// stopped polling (hung inside a phase) from one that is still making
/// progress. A fired token stays fired; the first reason wins.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// New, un-fired token.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                reason: AtomicU64::new(0),
                hb: Heartbeat::new(),
            }),
        }
    }

    /// Fire the token. The first caller's reason is kept.
    pub fn cancel(&self, reason: CancelReason) {
        // Publish the reason before the flag so a poller that observes
        // `cancelled` can always read a coherent reason.
        let _ = self.inner.reason.compare_exchange(
            0,
            reason as u64,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Poll site for the worker executing under this token: ticks the
    /// liveness beacon and reports whether the token fired. One relaxed
    /// heartbeat update plus one acquire load — cheap enough for every
    /// phase boundary.
    #[inline]
    pub fn poll(&self) -> bool {
        self.inner.hb.tick();
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Whether the token fired, without ticking the beacon (observer side).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Why the token fired (`None` while un-fired).
    pub fn reason(&self) -> Option<CancelReason> {
        CancelReason::from_u64(self.inner.reason.load(Ordering::Acquire))
    }

    /// The liveness beacon ticked by [`CancelToken::poll`] — the watchdog
    /// side of the PR 3 machinery.
    pub fn heartbeat(&self) -> &Heartbeat {
        &self.inner.hb
    }
}

/// A set of atomic tallies shared by worker threads during one phase, folded
/// into [`StepCounters`] afterwards.
#[derive(Debug, Default)]
pub struct AtomicTally {
    /// Generic counter A (phase-specific meaning).
    pub a: AtomicU64,
    /// Generic counter B.
    pub b: AtomicU64,
    /// Generic counter C.
    pub c: AtomicU64,
}

impl AtomicTally {
    /// Add to counter A.
    #[inline]
    pub fn add_a(&self, v: u64) {
        self.a.fetch_add(v, Ordering::Relaxed);
    }
    /// Add to counter B.
    #[inline]
    pub fn add_b(&self, v: u64) {
        self.b.fetch_add(v, Ordering::Relaxed);
    }
    /// Add to counter C.
    #[inline]
    pub fn add_c(&self, v: u64) {
        self.c.fetch_add(v, Ordering::Relaxed);
    }
    /// Snapshot all three counters.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.a.load(Ordering::Relaxed),
            self.b.load(Ordering::Relaxed),
            self.c.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_profile_from_counts() {
        let p = InsertProfile::from_counts([3u64, 1, 0, 4]);
        assert_eq!(p.total, 8);
        assert_eq!(p.max_column, 4);
        assert_eq!(p.sum_sq, 9.0 + 1.0 + 16.0);
    }

    #[test]
    fn collision_probability_bounds() {
        // All messages to one column: collisions certain.
        let hot = InsertProfile::from_counts([100u64]);
        assert!((hot.collision_probability() - 1.0).abs() < 1e-9);
        // Perfectly spread: probability 1/C.
        let spread = InsertProfile::from_counts(vec![1u64; 100]);
        assert!((spread.collision_probability() - 0.01).abs() < 1e-9);
        // Degenerate.
        assert_eq!(
            InsertProfile::from_counts([1u64]).collision_probability(),
            0.0
        );
    }

    #[test]
    fn profile_merge_accumulates() {
        let mut a = InsertProfile::from_counts([2u64, 2]);
        let b = InsertProfile::from_counts([5u64]);
        a.merge(&b);
        assert_eq!(a.total, 9);
        assert_eq!(a.max_column, 5);
        assert_eq!(a.sum_sq, 4.0 + 4.0 + 25.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = StepCounters {
            gen_edges: 10,
            msgs_local: 5,
            mover_msgs: vec![1, 2],
            gen_chunks: vec![GenChunk {
                vertices: 1,
                edges: 10,
                msgs: 5,
            }],
            ..Default::default()
        };
        let b = StepCounters {
            gen_edges: 7,
            msgs_remote: 3,
            mover_msgs: vec![4, 5, 6],
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.gen_edges, 17);
        assert_eq!(a.msgs_total(), 8);
        assert_eq!(a.mover_msgs, vec![5, 7, 6]);
        assert_eq!(a.gen_chunks.len(), 1);
    }

    #[test]
    fn pipeline_counters_accumulate() {
        let mut a = StepCounters {
            queue_full_spins: 3,
            flush_batches: 2,
            batched_msgs: 100,
            mover_idle_polls: 7,
            ..Default::default()
        };
        let b = StepCounters {
            queue_full_spins: 1,
            flush_batches: 4,
            batched_msgs: 50,
            mover_idle_polls: 3,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.queue_full_spins, 4);
        assert_eq!(a.flush_batches, 6);
        assert_eq!(a.batched_msgs, 150);
        assert_eq!(a.mover_idle_polls, 10);
    }

    #[test]
    fn liveness_counters_accumulate() {
        let mut a = StepCounters {
            heartbeats: 4,
            exchange_drops: 1,
            ..Default::default()
        };
        let b = StepCounters {
            heartbeats: 6,
            exchange_timeouts: 2,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.heartbeats, 10);
        assert_eq!(a.exchange_drops, 1);
        assert_eq!(a.exchange_timeouts, 2);
    }

    #[test]
    fn heartbeat_ticks_and_staleness() {
        let hb = Heartbeat::new();
        assert_eq!(hb.ticks(), 0);
        hb.tick();
        hb.tick();
        assert_eq!(hb.ticks(), 2);
        // Freshly ticked: not stalled against any humane deadline.
        assert!(!hb.is_stalled(Duration::from_millis(100)));
        std::thread::sleep(Duration::from_millis(15));
        assert!(hb.is_stalled(Duration::from_millis(5)));
        assert!(hb.since_last() >= Duration::from_millis(10));
        // A new tick resets staleness.
        hb.tick();
        assert!(!hb.is_stalled(Duration::from_millis(10)));
    }

    #[test]
    fn heartbeat_clones_share_state() {
        let hb = Heartbeat::new();
        let clone = hb.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = clone.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        h.tick();
                    }
                });
            }
        });
        assert_eq!(hb.ticks(), 400);
    }

    #[test]
    fn atomic_tally_concurrent() {
        let t = AtomicTally::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.add_a(1);
                        t.add_b(2);
                    }
                });
            }
        });
        assert_eq!(t.snapshot(), (4000, 8000, 0));
    }

    #[test]
    fn cancel_token_fires_once_with_first_reason() {
        let t = CancelToken::new();
        assert!(!t.poll());
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.cancel(CancelReason::Deadline);
        t.cancel(CancelReason::Shutdown); // loses the race; first reason wins
        assert!(t.poll());
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
        assert_eq!(t.reason().unwrap().name(), "deadline");
    }

    #[test]
    fn cancel_token_polls_tick_the_heartbeat() {
        let t = CancelToken::new();
        let before = t.heartbeat().ticks();
        t.poll();
        t.poll();
        assert_eq!(t.heartbeat().ticks(), before + 2);
    }

    #[test]
    fn cancel_token_crosses_threads() {
        let t = CancelToken::new();
        std::thread::scope(|s| {
            let observer = t.clone();
            s.spawn(move || {
                while !observer.poll() {
                    std::hint::spin_loop();
                }
                assert_eq!(observer.reason(), Some(CancelReason::Requested));
            });
            t.cancel(CancelReason::Requested);
        });
    }
}
