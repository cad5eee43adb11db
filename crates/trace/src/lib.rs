//! Structured tracing and metrics for the phigraph engines.
//!
//! Dependency-free by design (the workspace builds hermetically offline):
//! no `tracing`, no `serde` — JSON is hand-rolled in [`json`], the Chrome
//! trace-event exporter lives in [`chrome`], and log2-bucketed histograms
//! in [`hist`].
//!
//! ## Design
//!
//! A [`Trace`] is a cheaply-clonable handle (an `Arc`) shared by every
//! thread of a run. Each *logical* thread — "dev0/worker-3", "watchdog" —
//! registers a [`ThreadTracer`] against it and records [`Span`]s into a
//! fixed-capacity ring owned by that logical thread. Recording is
//! lock-free: a single-writer cursor published with one `Release` store
//! per span; the registry `Mutex` is only touched when a tracer is
//! (re-)attached at superstep boundaries, never per span. When the ring
//! fills, further spans are counted in a `dropped` tally instead of
//! reallocating — the recorder never blocks or grows on the hot path.
//!
//! Worker OS threads are respawned every superstep inside
//! `std::thread::scope`, so a logical thread's buffer is written by many
//! OS threads *over time* but never concurrently: the scope's join barrier
//! orders superstep N's writes before superstep N+1's. Each span cell is a
//! triple of relaxed atomics, so even a buggy double-writer produces
//! garbage data, not undefined behaviour.
//!
//! Disabled tracing is ~free: every span site first loads one atomic
//! level (`Relaxed`) and bails before touching the clock or the ring, and
//! engines that were handed no `Trace` at all skip even that.

pub mod chrome;
pub mod hist;
pub mod json;

pub use hist::{Hist, HistKind, HistSnapshot};

use std::cell::Cell as StdCell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much the recorders capture.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// Record nothing; span sites cost one relaxed atomic load.
    #[default]
    Off = 0,
    /// Record engine phase spans (generate/insert/process/update/exchange/
    /// checkpoint/migrate and friends) and histograms.
    Phase = 1,
}

impl TraceLevel {
    /// Stable short name (CLI flag values).
    pub fn name(&self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Phase => "phase",
        }
    }
}

impl std::str::FromStr for TraceLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(TraceLevel::Off),
            "phase" => Ok(TraceLevel::Phase),
            other => Err(format!(
                "unknown trace level {other:?} (expected off|phase)"
            )),
        }
    }
}

/// The named phases a span can cover. A closed set (rather than free-form
/// strings) keeps the recorder cell a plain `u64` pack and the exporters
/// allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// One whole superstep on one device.
    Superstep = 0,
    /// Message generation (scanning active vertices, producing messages).
    Generate = 1,
    /// Message insertion into the condensed static buffer (the drain after
    /// generation, and the absorb of a peer's messages).
    Insert = 2,
    /// Message processing (lane reduction).
    Process = 3,
    /// Vertex update.
    Update = 4,
    /// Remote exchange with the peer device.
    Exchange = 5,
    /// Barrier checkpoint write.
    Checkpoint = 6,
    /// Partition migration onto the survivor after a device loss.
    Migrate = 7,
    /// One watchdog poll round.
    Watchdog = 8,
    /// Straggler-driven partition rebalance.
    Rebalance = 9,
    /// Post-failover lockstep replay of missed supersteps.
    Replay = 10,
    /// One serving-daemon job, admission to completion (the worker-side
    /// envelope around that job's supersteps).
    Job = 11,
}

/// Every phase, in discriminant order (exporters and tests iterate this).
pub const ALL_PHASES: [Phase; 12] = [
    Phase::Superstep,
    Phase::Generate,
    Phase::Insert,
    Phase::Process,
    Phase::Update,
    Phase::Exchange,
    Phase::Checkpoint,
    Phase::Migrate,
    Phase::Watchdog,
    Phase::Rebalance,
    Phase::Replay,
    Phase::Job,
];

impl Phase {
    /// Stable name used in every exporter.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Superstep => "superstep",
            Phase::Generate => "generate",
            Phase::Insert => "insert",
            Phase::Process => "process",
            Phase::Update => "update",
            Phase::Exchange => "exchange",
            Phase::Checkpoint => "checkpoint",
            Phase::Migrate => "migrate",
            Phase::Watchdog => "watchdog",
            Phase::Rebalance => "rebalance",
            Phase::Replay => "replay",
            Phase::Job => "job",
        }
    }

    fn from_u8(v: u8) -> Phase {
        ALL_PHASES
            .get(v as usize)
            .copied()
            .unwrap_or(Phase::Superstep)
    }
}

/// One recorded interval on one logical thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What the interval covered.
    pub phase: Phase,
    /// Superstep the span belongs to (0 for out-of-step activity such as
    /// watchdog polls).
    pub step: u32,
    /// Nesting depth at record time (0 = top level on its thread).
    pub depth: u8,
    /// Start, nanoseconds since the trace origin.
    pub t0_ns: u64,
    /// End, nanoseconds since the trace origin.
    pub t1_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

// meta pack: bits 0..8 phase, 8..16 depth, 16..48 step.
fn pack_meta(phase: Phase, depth: u8, step: u32) -> u64 {
    (phase as u64) | ((depth as u64) << 8) | ((step as u64 & 0xffff_ffff) << 16)
}

fn unpack_meta(meta: u64) -> (Phase, u8, u32) {
    (
        Phase::from_u8((meta & 0xff) as u8),
        ((meta >> 8) & 0xff) as u8,
        ((meta >> 16) & 0xffff_ffff) as u32,
    )
}

/// One span cell: three relaxed atomics, published by the ring cursor.
#[derive(Default)]
struct SpanCell {
    t0: AtomicU64,
    t1: AtomicU64,
    meta: AtomicU64,
}

/// The fixed-capacity recording ring of one logical thread.
struct ThreadBuf {
    name: String,
    sort: u32,
    cells: Box<[SpanCell]>,
    /// Published span count; the single writer stores `Release`, readers
    /// load `Acquire`.
    len: AtomicUsize,
    /// Spans lost to a full ring.
    dropped: AtomicU64,
}

impl ThreadBuf {
    fn new(name: String, sort: u32, capacity: usize) -> Self {
        let mut cells = Vec::with_capacity(capacity);
        cells.resize_with(capacity, SpanCell::default);
        ThreadBuf {
            name,
            sort,
            cells: cells.into_boxed_slice(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    #[inline]
    fn push(&self, phase: Phase, depth: u8, step: u32, t0: u64, t1: u64) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.cells.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let c = &self.cells[i];
        c.t0.store(t0, Ordering::Relaxed);
        c.t1.store(t1, Ordering::Relaxed);
        c.meta
            .store(pack_meta(phase, depth, step), Ordering::Relaxed);
        self.len.store(i + 1, Ordering::Release);
    }

    fn spans(&self) -> Vec<Span> {
        let n = self.len.load(Ordering::Acquire).min(self.cells.len());
        (0..n)
            .map(|i| {
                let c = &self.cells[i];
                let (phase, depth, step) = unpack_meta(c.meta.load(Ordering::Relaxed));
                Span {
                    phase,
                    step,
                    depth,
                    t0_ns: c.t0.load(Ordering::Relaxed),
                    t1_ns: c.t1.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

struct TraceShared {
    level: AtomicU8,
    origin: Instant,
    capacity: usize,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    hists: hist::HistSet,
}

/// Snapshot of one logical thread's recorded spans.
#[derive(Clone, Debug)]
pub struct ThreadSpans {
    /// Logical thread name ("dev0/worker-3", "watchdog", ...).
    pub name: String,
    /// Track ordering hint for exporters (lower = higher in the UI).
    pub sort: u32,
    /// Recorded spans in completion order.
    pub spans: Vec<Span>,
    /// Spans lost to ring overflow.
    pub dropped: u64,
}

/// A consistent copy of everything a trace recorded.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// Per logical thread, ordered by sort key then name.
    pub threads: Vec<ThreadSpans>,
    /// Histogram snapshots (all kinds, including empty ones).
    pub hists: Vec<HistSnapshot>,
}

impl TraceSnapshot {
    /// Total spans recorded across all threads.
    pub fn total_spans(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }

    /// Total spans dropped to ring overflow across all threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Sum of durations of all spans of `phase`, in seconds.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.threads
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.phase == phase)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }
}

/// Shared tracing handle; clone freely, all clones record into the same
/// buffers. See the [module docs](self) for the design.
#[derive(Clone)]
pub struct Trace {
    shared: Arc<TraceShared>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("level", &self.level())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

/// Default per-thread span capacity (~1.5 MiB of cells per logical thread).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl Trace {
    /// New trace with the default per-thread capacity.
    pub fn new(level: TraceLevel) -> Self {
        Trace::with_capacity(level, DEFAULT_CAPACITY)
    }

    /// New trace with an explicit per-thread span capacity.
    pub fn with_capacity(level: TraceLevel, capacity: usize) -> Self {
        Trace {
            shared: Arc::new(TraceShared {
                level: AtomicU8::new(level as u8),
                origin: Instant::now(),
                capacity: capacity.max(1),
                threads: Mutex::new(Vec::new()),
                hists: hist::HistSet::new(),
            }),
        }
    }

    /// Current level.
    pub fn level(&self) -> TraceLevel {
        match self.shared.level.load(Ordering::Relaxed) {
            0 => TraceLevel::Off,
            _ => TraceLevel::Phase,
        }
    }

    /// Change the level at runtime (affects all clones).
    pub fn set_level(&self, level: TraceLevel) {
        self.shared.level.store(level as u8, Ordering::Relaxed);
    }

    /// Whether spans at `at` currently record. One relaxed load.
    #[inline]
    pub fn enabled(&self, at: TraceLevel) -> bool {
        self.shared.level.load(Ordering::Relaxed) >= at as u8
    }

    /// Nanoseconds since the trace origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.shared.origin.elapsed().as_nanos() as u64
    }

    /// Attach a tracer for the logical thread `name`. Reuses the buffer if
    /// the name registered before (workers respawned each superstep keep
    /// one track); `sort` orders tracks in exporters. Returns a disabled
    /// tracer when the level is [`TraceLevel::Off`].
    pub fn thread(&self, name: &str, sort: u32) -> ThreadTracer {
        if !self.enabled(TraceLevel::Phase) {
            return ThreadTracer::disabled();
        }
        let buf = {
            let mut reg = self.shared.threads.lock().unwrap();
            match reg.iter().find(|b| b.name == name) {
                Some(b) => Arc::clone(b),
                None => {
                    let b = Arc::new(ThreadBuf::new(name.to_string(), sort, self.shared.capacity));
                    reg.push(Arc::clone(&b));
                    b
                }
            }
        };
        ThreadTracer {
            inner: Some(TracerInner {
                buf,
                shared: Arc::clone(&self.shared),
            }),
            depth: StdCell::new(0),
        }
    }

    /// Record `v` into the histogram `kind` (no-op when tracing is off).
    #[inline]
    pub fn record_hist(&self, kind: HistKind, v: u64) {
        if self.enabled(TraceLevel::Phase) {
            self.shared.hists.get(kind).record(v);
        }
    }

    /// Take a consistent snapshot of everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut threads: Vec<ThreadSpans> = self
            .shared
            .threads
            .lock()
            .unwrap()
            .iter()
            .map(|b| ThreadSpans {
                name: b.name.clone(),
                sort: b.sort,
                spans: b.spans(),
                dropped: b.dropped.load(Ordering::Relaxed),
            })
            .collect();
        threads.sort_by(|a, b| a.sort.cmp(&b.sort).then_with(|| a.name.cmp(&b.name)));
        TraceSnapshot {
            threads,
            hists: HistKind::ALL
                .iter()
                .map(|&k| self.shared.hists.get(k).snapshot(k))
                .collect(),
        }
    }

    /// Export the recorded spans as Chrome trace-event JSON (open in
    /// Perfetto / `chrome://tracing`): one track per logical thread.
    pub fn export_chrome(&self) -> String {
        chrome::export(&self.snapshot())
    }
}

struct TracerInner {
    buf: Arc<ThreadBuf>,
    shared: Arc<TraceShared>,
}

/// Per-logical-thread recording handle. Not `Sync`: each OS thread uses
/// its own tracer. Obtained from [`Trace::thread`].
pub struct ThreadTracer {
    inner: Option<TracerInner>,
    depth: StdCell<u8>,
}

impl ThreadTracer {
    /// A tracer that records nothing (what engines without a trace use).
    pub fn disabled() -> Self {
        ThreadTracer {
            inner: None,
            depth: StdCell::new(0),
        }
    }

    /// Whether this tracer records anything at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        match &self.inner {
            Some(t) => t.shared.level.load(Ordering::Relaxed) >= TraceLevel::Phase as u8,
            None => false,
        }
    }

    /// Nanoseconds since the trace origin (0 when disabled). Pair with
    /// [`ThreadTracer::record_closing`] for sites that only know after the
    /// fact whether a span is worth keeping.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(t) => t.shared.origin.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Record a closed span that started at `t0_ns` (from
    /// [`ThreadTracer::now_ns`]) and ends now — for conditional sites like
    /// a serve job, which records no span when it ran degraded.
    pub fn record_closing(&self, phase: Phase, step: u32, t0_ns: u64) {
        if let Some(t) = &self.inner {
            if t.shared.level.load(Ordering::Relaxed) >= TraceLevel::Phase as u8 {
                let t1 = t.shared.origin.elapsed().as_nanos() as u64;
                t.buf.push(phase, self.depth.get(), step, t0_ns, t1);
            }
        }
    }

    /// Open a span for `phase` in superstep `step`; it records when the
    /// returned guard drops. Disabled (cost: one relaxed load) when the
    /// trace level is off.
    #[inline]
    pub fn span(&self, phase: Phase, step: u32) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: None,
                phase,
                step,
                depth: 0,
                t0_ns: 0,
            };
        }
        let t = self.inner.as_ref().unwrap();
        let depth = self.depth.get();
        self.depth.set(depth.saturating_add(1));
        SpanGuard {
            tracer: Some(self),
            phase,
            step,
            depth,
            t0_ns: t.shared.origin.elapsed().as_nanos() as u64,
        }
    }
}

/// RAII guard: records its span into the owning tracer's ring on drop.
pub struct SpanGuard<'a> {
    tracer: Option<&'a ThreadTracer>,
    phase: Phase,
    step: u32,
    depth: u8,
    t0_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tr) = self.tracer {
            // `tracer` is only Some when inner was Some at creation.
            if let Some(t) = &tr.inner {
                let t1 = t.shared.origin.elapsed().as_nanos() as u64;
                t.buf
                    .push(self.phase, self.depth, self.step, self.t0_ns, t1);
                tr.depth.set(tr.depth.get().saturating_sub(1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(TraceLevel::Off < TraceLevel::Phase);
        for l in [TraceLevel::Off, TraceLevel::Phase] {
            assert_eq!(l.name().parse::<TraceLevel>().unwrap(), l);
        }
        assert!("loud".parse::<TraceLevel>().is_err());
        assert_eq!(
            "fine".parse::<TraceLevel>(),
            Err("unknown trace level \"fine\" (expected off|phase)".to_string())
        );
    }

    #[test]
    fn phase_names_unique_and_packed() {
        let mut names: Vec<&str> = ALL_PHASES.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_PHASES.len());
        for (i, p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(*p as u8 as usize, i);
            let (q, d, s) = unpack_meta(pack_meta(*p, 3, 123_456));
            assert_eq!(q, *p);
            assert_eq!(d, 3);
            assert_eq!(s, 123_456);
        }
    }

    #[test]
    fn spans_record_with_nesting_and_steps() {
        let tr = Trace::new(TraceLevel::Phase);
        let t = tr.thread("main", 0);
        {
            let _outer = t.span(Phase::Superstep, 0);
            {
                let _g = t.span(Phase::Generate, 0);
            }
            {
                let _u = t.span(Phase::Update, 0);
            }
        }
        {
            let _outer = t.span(Phase::Superstep, 1);
        }
        let snap = tr.snapshot();
        assert_eq!(snap.threads.len(), 1);
        let spans = &snap.threads[0].spans;
        // Completion order: generate, update, superstep0, superstep1.
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].phase, Phase::Generate);
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[2].phase, Phase::Superstep);
        assert_eq!(spans[2].depth, 0);
        assert_eq!(spans[3].step, 1);
        // Nesting: children inside parents.
        assert!(spans[2].t0_ns <= spans[0].t0_ns && spans[0].t1_ns <= spans[2].t1_ns);
        assert!(spans[0].t1_ns <= spans[1].t0_ns, "siblings don't overlap");
        assert_eq!(snap.total_dropped(), 0);
    }

    #[test]
    fn off_level_records_nothing() {
        let tr = Trace::new(TraceLevel::Off);
        let t = tr.thread("main", 0);
        assert!(!t.enabled());
        let _s = t.span(Phase::Generate, 0);
        drop(_s);
        tr.record_hist(HistKind::ExchangeRttUs, 10);
        let snap = tr.snapshot();
        assert_eq!(snap.total_spans(), 0);
        assert!(snap.threads.is_empty(), "off traces register no threads");
        assert!(snap.hists.iter().all(|h| h.count == 0));
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let tr = Trace::with_capacity(TraceLevel::Phase, 4);
        let t = tr.thread("m", 0);
        for i in 0..10 {
            drop(t.span(Phase::Generate, i));
        }
        let snap = tr.snapshot();
        assert_eq!(snap.threads[0].spans.len(), 4);
        assert_eq!(snap.threads[0].dropped, 6);
    }

    #[test]
    fn thread_registry_reuses_buffers_by_name() {
        let tr = Trace::new(TraceLevel::Phase);
        for step in 0..3 {
            let t = tr.thread("worker-0", 1);
            drop(t.span(Phase::Generate, step));
        }
        let snap = tr.snapshot();
        assert_eq!(snap.threads.len(), 1);
        assert_eq!(snap.threads[0].spans.len(), 3);
        // Timestamps across re-attachments stay monotonic.
        let s = &snap.threads[0].spans;
        assert!(s.windows(2).all(|w| w[0].t1_ns <= w[1].t0_ns));
    }

    #[test]
    fn snapshot_sorts_tracks() {
        let tr = Trace::new(TraceLevel::Phase);
        tr.thread("z-late", 5);
        tr.thread("a-main", 0);
        tr.thread("b-main", 0);
        let names: Vec<String> = tr.snapshot().threads.into_iter().map(|t| t.name).collect();
        assert_eq!(names, ["a-main", "b-main", "z-late"]);
    }

    #[test]
    fn phase_seconds_sums_durations() {
        let tr = Trace::new(TraceLevel::Phase);
        let t = tr.thread("m", 0);
        {
            let _s = t.span(Phase::Process, 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = tr.snapshot();
        assert!(snap.phase_seconds(Phase::Process) >= 0.002);
        assert_eq!(snap.phase_seconds(Phase::Migrate), 0.0);
    }

    #[test]
    fn hist_roundtrip_through_trace() {
        let tr = Trace::new(TraceLevel::Phase);
        tr.record_hist(HistKind::ExchangeRttUs, 5);
        tr.record_hist(HistKind::ExchangeRttUs, 9);
        let snap = tr.snapshot();
        let h = snap
            .hists
            .iter()
            .find(|h| h.name == "exchange_rtt_us")
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 14);
    }
}
