//! The serving pool: a fixed set of worker threads executing admitted
//! jobs over one shared immutable [`Csr`], plus the watchdog thread that
//! enforces deadlines.
//!
//! Admission enqueues straight into the per-tenant scheduler queues under
//! the pool's state lock, the lock workers pick jobs under. When the
//! admitted-job budget (`queue_cap` jobs admitted but not started) is
//! spent, [`ServePool::submit`] rejects immediately with a retry hint
//! instead of blocking the frontend.
//!
//! Every job runs with its own [`EngineConfig`] carrying a
//! [`CancelToken`]; the watchdog cancels tokens whose deadline passed
//! (the engine stops at the next superstep boundary) and expires queued
//! jobs that would start already late.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use phigraph_core::engine::{run_single, EngineConfig, ExecMode};
use phigraph_device::{CancelReason, CancelToken, DeviceSpec};
use phigraph_graph::state::{encode_state_slice, PodState};
use phigraph_graph::Csr;
use phigraph_recover::IntegrityMode;
use phigraph_trace::{HistKind, Phase, Trace};

use phigraph_apps::{Bfs, PageRank, PersonalizedPageRank, Sssp, Wcc};

use crate::events::EventSink;
use crate::job::{JobKind, JobResult, JobSpec, JobStatus};
use crate::journal::Journal;
use crate::sched::{QueuedJob, Scheduler};
use crate::shed::{shed_level, sheds_tenant, BreakerCheck, ShedPolicy, ShedState};
use crate::stats::ServeStats;

/// FNV-1a over the little-endian encoding of the final vertex values:
/// the bit-identity fingerprint both `phigraph run --checksum` and the
/// serving daemon report.
pub fn values_checksum<V: PodState>(values: &[V]) -> u64 {
    phigraph_recover::snapshot::fnv1a64(&encode_state_slice(values))
}

/// Pool configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Admitted-but-not-started job budget (admission queue capacity).
    pub queue_cap: usize,
    /// Default per-job deadline; `None` = no deadline unless the job
    /// line carries one.
    pub default_deadline_ms: Option<u64>,
    /// Default engine mode for jobs that do not pick one.
    pub mode: ExecMode,
    /// Simulated device executing the jobs.
    pub device: DeviceSpec,
    /// Stride weight for tenants first seen on a job line.
    pub default_weight: u64,
    /// Concurrency cap for implicitly created tenants.
    pub default_cap: usize,
    /// Watchdog scan period.
    pub watchdog_tick_ms: u64,
    /// Trace sink for per-job spans and wait/exec histograms.
    pub trace: Option<Trace>,
    /// Crash-recovery job journal; `None` = journalling off.
    pub journal: Option<Arc<Journal>>,
    /// Integrity mode for jobs that do not request one.
    pub default_integrity: IntegrityMode,
    /// Upper clamp on per-job integrity requests.
    pub integrity_max: IntegrityMode,
    /// Overload policy: the shedding ladder, or plain queue-full.
    pub shed: ShedPolicy,
    /// Per-job event sink (trace ids, JSONL event log, flight
    /// recorder); `None` = no events, zero hot-path cost. With a sink
    /// attached each emit is gated on one relaxed atomic load.
    pub events: Option<EventSink>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            queue_cap: 64,
            default_deadline_ms: None,
            mode: ExecMode::Locking,
            device: DeviceSpec::xeon_e5_2680(),
            default_weight: 1,
            default_cap: 2,
            watchdog_tick_ms: 5,
            trace: None,
            journal: None,
            default_integrity: IntegrityMode::Off,
            integrity_max: IntegrityMode::Full,
            shed: ShedPolicy::Ladder,
            events: None,
        }
    }
}

/// Why a submission bounced. Every variant except [`AdmitError::Closed`]
/// carries a populated retry hint; [`AdmitError::retry_after_ms`] fills
/// one in for `Closed` too so every protocol rejection can comply with
/// the "machine-readable code + retry_after_ms" contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Queue full: retry after the hinted backoff.
    QueueFull {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The load-shedding ladder dropped this tenant's traffic.
    Shed {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The tenant's circuit breaker is open.
    BreakerOpen {
        /// Milliseconds until the breaker half-opens.
        retry_after_ms: u64,
    },
    /// The pool is shutting down and takes no new work.
    Closed,
}

impl AdmitError {
    /// Machine-readable error code for the protocol response.
    pub fn code(&self) -> &'static str {
        match self {
            AdmitError::QueueFull { .. } => "queue_full",
            AdmitError::Shed { .. } => "shed",
            AdmitError::BreakerOpen { .. } => "breaker_open",
            AdmitError::Closed => "shutting_down",
        }
    }

    /// The retry hint, populated on every variant.
    pub fn retry_after_ms(&self) -> u64 {
        match self {
            AdmitError::QueueFull { retry_after_ms }
            | AdmitError::Shed { retry_after_ms }
            | AdmitError::BreakerOpen { retry_after_ms } => *retry_after_ms,
            AdmitError::Closed => 1000,
        }
    }
}

/// How [`ServePool::shutdown_mode`] treats admitted work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainMode {
    /// Run every admitted job to completion first.
    Finish,
    /// Finish only the *running* jobs; report queued ones `requeued`
    /// (their journal records stay incomplete, so the next daemon
    /// incarnation replays them).
    Requeue,
    /// Cancel running jobs, drop queued ones.
    Abort,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Shutdown {
    /// Accepting and running.
    None,
    /// No new admissions; queued jobs still run, then workers exit.
    Drain,
    /// No new admissions; running jobs finish, queued jobs requeued.
    Requeue,
    /// No new admissions; queued jobs dropped, running jobs cancelled.
    Now,
}

struct RunningEntry {
    seq: u64,
    deadline: Option<Instant>,
    token: CancelToken,
}

struct State {
    sched: Scheduler,
    /// Jobs admitted (in a tenant queue) not yet started.
    pending: usize,
    running: Vec<RunningEntry>,
    shutdown: Shutdown,
    next_seq: u64,
    shed: ShedState,
}

/// The served graph plus its epoch. Workers bind `(epoch, csr)` at each
/// job pickup — the hot-swap boundary: in-flight jobs keep their `Arc`
/// (the old CSR lives until the last borrower drops it), later pickups
/// see the new epoch.
struct GraphSlot {
    epoch: u64,
    swaps: u64,
    csr: Arc<Csr>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    stop_watchdog: AtomicBool,
    queue_cap: usize,
    graph: Mutex<GraphSlot>,
}

/// The serving pool. Dropping it performs a forced shutdown.
pub struct ServePool {
    shared: Arc<Shared>,
    cfg: ServeConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    tx: Option<Sender<JobResult>>,
}

impl ServePool {
    /// Spawn the pool over `graph`. The returned receiver delivers every
    /// job outcome (completed, cancelled, expired); it disconnects once
    /// the pool has shut down and all results are out.
    pub fn new(graph: Arc<Csr>, cfg: ServeConfig) -> (ServePool, Receiver<JobResult>) {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                sched: Scheduler::new(cfg.default_weight, cfg.default_cap),
                pending: 0,
                running: Vec::new(),
                shutdown: Shutdown::None,
                next_seq: 0,
                shed: ShedState::default(),
            }),
            cv: Condvar::new(),
            stop_watchdog: AtomicBool::new(false),
            queue_cap: cfg.queue_cap,
            graph: Mutex::new(GraphSlot {
                epoch: 1,
                swaps: 0,
                csr: graph,
            }),
        });
        let (tx, rx) = channel();
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker{i}"))
                    .spawn(move || worker_loop(i, shared, cfg, tx))
                    .expect("spawn serve worker")
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            let tx = tx.clone();
            let tick = Duration::from_millis(cfg.watchdog_tick_ms.max(1));
            Some(
                std::thread::Builder::new()
                    .name("serve-watchdog".to_string())
                    .spawn(move || watchdog_loop(shared, cfg, tx, tick))
                    .expect("spawn serve watchdog"),
            )
        };
        (
            ServePool {
                shared,
                cfg,
                workers,
                watchdog,
                tx: Some(tx),
            },
            rx,
        )
    }

    /// Set a tenant's stride weight and concurrency cap.
    pub fn set_tenant(&self, name: &str, weight: u64, cap: usize) {
        let mut st = self.shared.state.lock().unwrap();
        st.sched.configure(name, weight, cap);
    }

    /// Admit a job, or bounce it with backpressure. Admission walks the
    /// degradation ladder before giving up: at moderate pressure jobs
    /// are accepted *degraded* (integrity off, no per-job span), at high
    /// pressure the lowest-weight tenants are shed, and only a full
    /// queue rejects unconditionally. Every bounce feeds the tenant's
    /// circuit breaker; enough consecutive bounces open it and
    /// subsequent submissions are answered from the breaker alone with
    /// an exponentially backed-off retry hint.
    pub fn submit(&self, spec: JobSpec) -> Result<(), AdmitError> {
        // The one-relaxed-load gate: with no sink (or a disarmed one)
        // no event is ever built on this path.
        let sink = self.cfg.events.as_ref().filter(|s| s.armed());
        let mut st = self.shared.state.lock().unwrap();
        let pending = st.pending;
        if st.shutdown != Shutdown::None {
            if let Some(s) = sink {
                s.reject(0, &spec.id, &spec.tenant, "shutting_down");
            }
            return Err(AdmitError::Closed);
        }
        let now = Instant::now();
        let ladder = self.cfg.shed == ShedPolicy::Ladder;
        if ladder {
            if let BreakerCheck::Open { retry_after_ms } = st.shed.check(&spec.tenant, now) {
                let stats = st.sched.stats_mut(&spec.tenant);
                stats.rejected += 1;
                stats.breaker += 1;
                if let Some(s) = sink {
                    s.reject(0, &spec.id, &spec.tenant, "breaker_open");
                }
                return Err(AdmitError::BreakerOpen { retry_after_ms });
            }
        }
        let level = if ladder {
            shed_level(pending, self.shared.queue_cap, st.shed.miss_rate())
        } else {
            0
        };
        if let Some(trace) = &self.cfg.trace {
            trace.record_hist(HistKind::ShedLevel, level as u64);
        }
        if ladder
            && sheds_tenant(
                level,
                st.sched.weight_of(&spec.tenant),
                st.sched.max_weight(),
            )
        {
            self.note_reject(&mut st, &spec.tenant, now, true);
            if let Some(s) = sink {
                s.reject(0, &spec.id, &spec.tenant, "shed");
            }
            return Err(AdmitError::Shed {
                retry_after_ms: retry_hint(pending).max(50),
            });
        }
        if pending >= self.shared.queue_cap {
            self.note_reject(&mut st, &spec.tenant, now, false);
            if let Some(s) = sink {
                s.reject(0, &spec.id, &spec.tenant, "queue_full");
            }
            return Err(AdmitError::QueueFull {
                retry_after_ms: retry_hint(pending),
            });
        }
        if ladder {
            st.shed.note_admitted(&spec.tenant);
        }
        let degraded = level >= 1;
        if degraded {
            st.sched.stats_mut(&spec.tenant).degraded += 1;
        }
        if let Some(journal) = &self.cfg.journal {
            let t0 = Instant::now();
            journal.admitted(&spec);
            if let Some(trace) = &self.cfg.trace {
                trace.record_hist(HistKind::JournalAppendUs, t0.elapsed().as_micros() as u64);
            }
        }
        let admitted = now;
        let deadline_ms = spec.deadline_ms.or(self.cfg.default_deadline_ms);
        let trace = sink.map(|s| s.next_trace_id()).unwrap_or(0);
        let job = QueuedJob {
            spec,
            admitted,
            deadline: deadline_ms.map(|ms| admitted + Duration::from_millis(ms)),
            degraded,
            trace,
        };
        if let Some(s) = sink {
            s.admit(trace, &job.spec, degraded);
        }
        st.sched.enqueue(job);
        st.pending += 1;
        // The state lock is held, so a worker that just saw "no work" is
        // already parked and hears this.
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Rejection bookkeeping: counters plus the breaker's consecutive-
    /// reject tally.
    fn note_reject(&self, st: &mut State, tenant: &str, now: Instant, shed: bool) {
        let tripped = if self.cfg.shed == ShedPolicy::Ladder {
            st.shed.note_rejected(tenant, now)
        } else {
            false
        };
        let stats = st.sched.stats_mut(tenant);
        stats.rejected += 1;
        if shed {
            stats.shed += 1;
        }
        if tripped {
            stats.breaker_trips += 1;
        }
    }

    /// Swap in a new graph: the epoch advances, later job pickups bind
    /// the new CSR, in-flight jobs finish on the Arc they hold. Returns
    /// `(epoch, vertices, edges)`.
    pub fn reload(&self, graph: Csr) -> (u64, usize, usize) {
        let (v, e) = (graph.num_vertices(), graph.num_edges());
        let mut slot = self.shared.graph.lock().unwrap();
        slot.epoch += 1;
        slot.swaps += 1;
        slot.csr = Arc::new(graph);
        (slot.epoch, v, e)
    }

    /// Epoch of the graph new pickups bind.
    pub fn graph_epoch(&self) -> u64 {
        self.shared.graph.lock().unwrap().epoch
    }

    /// Count a journal-recovered result re-emitted for `tenant`.
    pub fn note_replayed(&self, tenant: &str) {
        let mut st = self.shared.state.lock().unwrap();
        st.sched.stats_mut(tenant).replayed += 1;
    }

    /// Snapshot the per-tenant accounting.
    pub fn stats(&self) -> ServeStats {
        let (epoch, swaps) = {
            let slot = self.shared.graph.lock().unwrap();
            (slot.epoch, slot.swaps)
        };
        let st = self.shared.state.lock().unwrap();
        let mut out = ServeStats {
            queued: st.sched.queued(),
            running: st.sched.running(),
            queue_cap: self.shared.queue_cap,
            workers: self.cfg.workers,
            shed_level: if self.cfg.shed == ShedPolicy::Ladder {
                shed_level(st.pending, self.shared.queue_cap, st.shed.miss_rate())
            } else {
                0
            },
            epoch,
            swaps,
            ..ServeStats::default()
        };
        for (name, t) in st.sched.tenants() {
            let mut stats = t.stats.clone();
            stats.running = t.running;
            out.tenants.insert(name.to_string(), stats);
        }
        out
    }

    /// Jobs admitted but not yet started.
    pub fn backlog(&self) -> usize {
        self.shared.state.lock().unwrap().pending
    }

    /// Shut the pool down and join every thread. `drain` finishes the
    /// queued jobs first; otherwise queued jobs are reported cancelled
    /// and running jobs get their tokens cancelled with
    /// [`CancelReason::Shutdown`]. The results receiver disconnects once
    /// every outcome is delivered.
    pub fn shutdown(&mut self, drain: bool) {
        self.shutdown_mode(if drain {
            DrainMode::Finish
        } else {
            DrainMode::Abort
        });
    }

    /// Shut down with an explicit [`DrainMode`] and join every thread.
    pub fn shutdown_mode(&mut self, mode: DrainMode) {
        self.shutdown_workers_mode(mode);
        // Drop the master sender so the results receiver disconnects.
        self.tx = None;
    }

    /// Like [`ServePool::shutdown`], but keeps the results channel open
    /// so the caller can snapshot [`ServePool::stats`] *before* the
    /// receiver observes disconnection (the daemon needs that ordering
    /// to write its final reports from the writer thread).
    pub fn shutdown_workers(&mut self, drain: bool) {
        self.shutdown_workers_mode(if drain {
            DrainMode::Finish
        } else {
            DrainMode::Abort
        });
    }

    /// [`ServePool::shutdown_workers`] with an explicit [`DrainMode`].
    pub fn shutdown_workers_mode(&mut self, mode: DrainMode) {
        {
            let mut st = self.shared.state.lock().unwrap();
            let target = match mode {
                DrainMode::Finish => Shutdown::Drain,
                DrainMode::Requeue => Shutdown::Requeue,
                DrainMode::Abort => Shutdown::Now,
            };
            // Only escalate: a drain in progress can harden into a
            // requeue or abort, never soften back.
            if target > st.shutdown {
                st.shutdown = target;
            }
            match mode {
                DrainMode::Finish => {}
                DrainMode::Requeue => {
                    // Queued jobs go back to the journal (their admitted
                    // records simply never gain a `done`); running jobs
                    // keep their tokens and finish.
                    let dropped = st.sched.drain_all();
                    st.pending -= dropped.len();
                    if let Some(tx) = &self.tx {
                        for q in dropped {
                            st.sched.stats_mut(&q.spec.tenant).requeued += 1;
                            let r = abort_result(&q, JobStatus::Requeued);
                            if let Some(s) = self.cfg.events.as_ref().filter(|s| s.armed()) {
                                s.done(&r, 0);
                            }
                            let _ = tx.send(r);
                        }
                    }
                }
                DrainMode::Abort => {
                    // Drop the per-tenant queues, reporting each job.
                    let dropped = st.sched.drain_all();
                    st.pending -= dropped.len();
                    if let Some(tx) = &self.tx {
                        for q in dropped {
                            st.sched.stats_mut(&q.spec.tenant).cancelled += 1;
                            let r = abort_result(&q, JobStatus::Cancelled("shutdown"));
                            if let Some(s) = self.cfg.events.as_ref().filter(|s| s.armed()) {
                                s.done(&r, 0);
                            }
                            let _ = tx.send(r);
                        }
                    }
                    for r in &st.running {
                        r.token.cancel(CancelReason::Shutdown);
                    }
                }
            }
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stop_watchdog.store(true, Ordering::Release);
        if let Some(h) = self.watchdog.take() {
            // Wake the watchdog from its tick rather than wait it out.
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        if !self.workers.is_empty() || self.watchdog.is_some() {
            self.shutdown(false);
        }
    }
}

fn retry_hint(pending: usize) -> u64 {
    // Scale the client backoff with the backlog: a deeper queue means a
    // longer wait before capacity frees up.
    (pending as u64 * 2).clamp(5, 1000)
}

fn abort_result(q: &QueuedJob, status: JobStatus) -> JobResult {
    JobResult {
        id: q.spec.id.clone(),
        tenant: q.spec.tenant.clone(),
        app: q.spec.kind.app_name(),
        status,
        checksum: 0,
        supersteps: 0,
        wait_us: q.admitted.elapsed().as_micros() as u64,
        exec_us: 0,
        epoch: 0,
        integrity: IntegrityMode::Off,
        replayed: q.spec.replay,
        conn: q.spec.conn,
        trace: q.trace,
    }
}

/// Expire the queued jobs whose deadline has passed by `now`: they never
/// reach a worker. Each is journalled, emitted and counted as `Expired`,
/// and counts as a missed deadline on the shed ladder.
fn expire_queued(st: &mut State, cfg: &ServeConfig, tx: &Sender<JobResult>, now: Instant) {
    let expired = st.sched.expire(now);
    st.pending -= expired.len();
    for q in expired {
        st.sched.stats_mut(&q.spec.tenant).expired += 1;
        st.shed.note_finished(true);
        let result = abort_result(&q, JobStatus::Expired);
        if let Some(journal) = &cfg.journal {
            journal.done(&result);
        }
        if let Some(s) = cfg.events.as_ref().filter(|s| s.armed()) {
            s.done(&result, 0);
        }
        let _ = tx.send(result);
    }
}

fn worker_loop(idx: usize, shared: Arc<Shared>, cfg: ServeConfig, tx: Sender<JobResult>) {
    let tracer = cfg
        .trace
        .as_ref()
        .map(|t| t.thread(&format!("serve-worker{idx}"), 200 + idx as u32));
    loop {
        let picked = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown != Shutdown::Requeue && st.shutdown != Shutdown::Now {
                    // A job whose deadline passed while it waited expires
                    // here rather than run, whether or not the watchdog's
                    // tick has come round.
                    expire_queued(&mut st, &cfg, &tx, Instant::now());
                    if let Some(q) = st.sched.pick() {
                        st.pending -= 1;
                        let token = CancelToken::new();
                        let seq = st.next_seq;
                        st.next_seq += 1;
                        st.running.push(RunningEntry {
                            seq,
                            deadline: q.deadline,
                            token: token.clone(),
                        });
                        break Some((q, token, seq));
                    }
                }
                match st.shutdown {
                    Shutdown::None => {}
                    Shutdown::Drain => {
                        if st.sched.queued() == 0 {
                            break None;
                        }
                    }
                    Shutdown::Requeue | Shutdown::Now => break None,
                }
                st = shared.cv.wait(st).unwrap();
            }
        };
        let Some((q, token, seq)) = picked else {
            return;
        };

        // The hot-swap boundary: bind the graph (and its epoch) at
        // pickup. A reload between pickups lands here; a reload during
        // execution does not touch the Arc this job already holds.
        let (epoch, graph) = {
            let slot = shared.graph.lock().unwrap();
            (slot.epoch, Arc::clone(&slot.csr))
        };
        if let Some(journal) = &cfg.journal {
            let t0 = Instant::now();
            journal.started(&q.spec.id);
            if let Some(trace) = &cfg.trace {
                trace.record_hist(HistKind::JournalAppendUs, t0.elapsed().as_micros() as u64);
            }
        }

        let requested = q.spec.integrity.unwrap_or(cfg.default_integrity);
        let integrity = if q.degraded {
            // Degraded admission: integrity is the first optional work
            // the ladder gives up.
            IntegrityMode::Off
        } else {
            requested.min(cfg.integrity_max)
        };

        let wait_us = q.admitted.elapsed().as_micros() as u64;
        if let Some(s) = cfg.events.as_ref().filter(|s| s.armed()) {
            s.start(q.trace, &q.spec, wait_us, epoch);
        }
        let t0 = Instant::now();
        let t0_ns = tracer.as_ref().map(|t| t.now_ns()).unwrap_or(0);
        let exec = execute(&graph, &q.spec, &cfg, token.clone(), integrity, q.degraded);
        let exec_us = t0.elapsed().as_micros() as u64;
        if !q.degraded {
            if let Some(t) = &tracer {
                t.record_closing(Phase::Job, seq as u32, t0_ns);
            }
        }
        if let Some(trace) = &cfg.trace {
            trace.record_hist(HistKind::JobWaitUs, wait_us);
            trace.record_hist(HistKind::JobExecUs, exec_us);
        }

        let status = match (&exec.error, token.reason()) {
            (Some(msg), _) => JobStatus::Error(msg.clone()),
            (None, Some(reason)) => JobStatus::Cancelled(reason.name()),
            (None, None) => JobStatus::Ok,
        };
        {
            let mut st = shared.state.lock().unwrap();
            st.sched.finish(&q.spec.tenant);
            st.running.retain(|r| r.seq != seq);
            let missed = matches!(&status, JobStatus::Cancelled("deadline"));
            if status.is_terminal() {
                st.shed.note_finished(missed);
            }
            let stats = st.sched.stats_mut(&q.spec.tenant);
            match &status {
                JobStatus::Ok => stats.completed += 1,
                JobStatus::Cancelled(_) => stats.cancelled += 1,
                JobStatus::Error(_) => stats.failed += 1,
                JobStatus::Expired | JobStatus::Requeued => {
                    unreachable!("workers never expire or requeue jobs")
                }
            }
            stats.wait_us += wait_us;
            stats.max_wait_us = stats.max_wait_us.max(wait_us);
            stats.exec_us += exec_us;
            stats.supersteps += exec.supersteps;
        }
        // A finished job frees its tenant's cap slot: wake a waiter.
        shared.cv.notify_all();
        let ok = status == JobStatus::Ok;
        let result = JobResult {
            id: q.spec.id.clone(),
            tenant: q.spec.tenant.clone(),
            app: q.spec.kind.app_name(),
            status,
            checksum: if ok { exec.checksum } else { 0 },
            supersteps: exec.supersteps,
            wait_us,
            exec_us,
            epoch,
            integrity,
            replayed: q.spec.replay,
            conn: q.spec.conn,
            trace: q.trace,
        };
        // Journal the outcome *before* emitting it: a crash in between
        // re-emits from the journal, never re-runs a completed job.
        let mut journal_us = 0u64;
        if result.status.is_terminal() {
            if let Some(journal) = &cfg.journal {
                let t0 = Instant::now();
                journal.done(&result);
                journal_us = t0.elapsed().as_micros() as u64;
                if let Some(trace) = &cfg.trace {
                    trace.record_hist(HistKind::JournalAppendUs, journal_us);
                }
            }
        }
        if let Some(s) = cfg.events.as_ref().filter(|s| s.armed()) {
            s.done(&result, journal_us);
        }
        let _ = tx.send(result);
    }
}

fn watchdog_loop(shared: Arc<Shared>, cfg: ServeConfig, tx: Sender<JobResult>, tick: Duration) {
    loop {
        std::thread::park_timeout(tick);
        if shared.stop_watchdog.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        let mut st = shared.state.lock().unwrap();
        expire_queued(&mut st, &cfg, &tx, now);
        // Running jobs get their token cancelled; the engine notices at
        // the next superstep boundary (the token's heartbeat tells a
        // stalled engine from one that simply has not reached a
        // boundary yet — both resolve at the next poll).
        for r in &st.running {
            if let Some(d) = r.deadline {
                if d <= now && !r.token.is_cancelled() {
                    r.token.cancel(CancelReason::Deadline);
                }
            }
        }
    }
}

struct ExecOut {
    checksum: u64,
    supersteps: u64,
    error: Option<String>,
}

fn base_config(mode: ExecMode) -> EngineConfig {
    match mode {
        ExecMode::Locking => EngineConfig::locking(),
        ExecMode::Pipelined => EngineConfig::pipelined(),
        ExecMode::Flat => EngineConfig::flat(),
        ExecMode::Sequential => EngineConfig::sequential(),
    }
}

/// Run one job against the shared graph. Each invocation builds a
/// private `EngineConfig` (own CSB arenas, own cancel token); the graph
/// is only borrowed, which is what makes concurrent jobs safe.
/// `integrity` is the post-clamp effective level; `degraded` jobs also
/// skip the per-run trace attachment (the shed ladder's "optional work
/// first" step).
fn execute(
    graph: &Csr,
    spec: &JobSpec,
    cfg: &ServeConfig,
    token: CancelToken,
    integrity: IntegrityMode,
    degraded: bool,
) -> ExecOut {
    let mut config = base_config(spec.mode)
        .with_cancel(token)
        .with_integrity(integrity);
    if let Some(t) = &cfg.trace {
        if !degraded {
            config = config.with_trace(t.clone());
        }
    }
    let n = graph.num_vertices() as u64;
    let bad_source = |s: u64| -> Option<ExecOut> {
        if s >= n.max(1) {
            Some(ExecOut {
                checksum: 0,
                supersteps: 0,
                error: Some(format!("source {s} out of range (graph has {n} vertices)")),
            })
        } else {
            None
        }
    };
    match &spec.kind {
        JobKind::PageRank {
            damping,
            iterations,
        } => one_run(
            &PageRank {
                damping: *damping,
                iterations: *iterations,
            },
            graph,
            cfg,
            &config,
        ),
        JobKind::Ppr {
            source,
            damping,
            iterations,
        } => bad_source(*source as u64).unwrap_or_else(|| {
            one_run(
                &PersonalizedPageRank {
                    source: *source,
                    damping: *damping,
                    iterations: *iterations,
                },
                graph,
                cfg,
                &config,
            )
        }),
        JobKind::Bfs { source } => bad_source(*source as u64)
            .unwrap_or_else(|| one_run(&Bfs { source: *source }, graph, cfg, &config)),
        JobKind::Sssp { sources } => {
            for &s in sources {
                if let Some(out) = bad_source(s as u64) {
                    return out;
                }
            }
            if sources.len() == 1 {
                return one_run(&Sssp { source: sources[0] }, graph, cfg, &config);
            }
            // Landmark batch: one run per source inside this job's slot,
            // checksums folded so the batch has a single fingerprint.
            let mut supersteps = 0u64;
            let mut folded = Vec::with_capacity(sources.len() * 8);
            for &source in sources {
                let out = one_run(&Sssp { source }, graph, cfg, &config);
                supersteps += out.supersteps;
                folded.extend_from_slice(&out.checksum.to_le_bytes());
                if config.cancelled() {
                    break;
                }
            }
            ExecOut {
                checksum: phigraph_recover::snapshot::fnv1a64(&folded),
                supersteps,
                error: None,
            }
        }
        JobKind::Wcc => one_run(&Wcc::new(graph), graph, cfg, &config),
    }
}

fn one_run<P: phigraph_core::api::VertexProgram>(
    program: &P,
    graph: &Csr,
    cfg: &ServeConfig,
    config: &EngineConfig,
) -> ExecOut
where
    P::Value: PodState,
{
    let out = run_single(program, graph, cfg.device.clone(), config);
    ExecOut {
        checksum: values_checksum(&out.values),
        supersteps: out.report.supersteps() as u64,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_apps::workloads::{pokec_like_weighted, Scale};
    use std::collections::HashMap;

    fn small_graph() -> Arc<Csr> {
        Arc::new(pokec_like_weighted(Scale::Tiny, 42))
    }

    fn spec(id: &str, tenant: &str, kind: JobKind) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            tenant: tenant.to_string(),
            kind,
            mode: ExecMode::Sequential,
            deadline_ms: None,
            integrity: None,
            replay: false,
            conn: 0,
        }
    }

    #[test]
    fn jobs_complete_and_match_direct_runs() {
        let g = small_graph();
        let (mut pool, rx) = ServePool::new(
            Arc::clone(&g),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        );
        pool.submit(spec("bfs0", "a", JobKind::Bfs { source: 0 }))
            .unwrap();
        pool.submit(spec("sssp0", "b", JobKind::Sssp { sources: vec![0] }))
            .unwrap();
        let mut got = HashMap::new();
        for _ in 0..2 {
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, JobStatus::Ok, "{:?}", r);
            got.insert(r.id.clone(), r);
        }
        // Same checksum as running the app directly with the same config.
        let direct = run_single(
            &Bfs { source: 0 },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::sequential(),
        );
        assert_eq!(got["bfs0"].checksum, values_checksum(&direct.values));
        let direct = run_single(
            &Sssp { source: 0 },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::sequential(),
        );
        assert_eq!(got["sssp0"].checksum, values_checksum(&direct.values));
        pool.shutdown(true);
    }

    #[test]
    fn queue_full_submissions_are_rejected_with_retry_hint() {
        let g = small_graph();
        let (mut pool, rx) = ServePool::new(
            Arc::clone(&g),
            ServeConfig {
                workers: 1,
                queue_cap: 2,
                default_cap: 1,
                ..ServeConfig::default()
            },
        );
        // One long-ish job occupies the worker; 2 more fill the budget.
        let slow = JobKind::PageRank {
            damping: 0.85,
            iterations: 50,
        };
        pool.submit(spec("run", "a", slow.clone())).unwrap();
        let mut accepted = 1;
        let mut rejected = 0;
        let mut queue_full = 0;
        for i in 0..20 {
            match pool.submit(spec(&format!("q{i}"), "a", slow.clone())) {
                Ok(()) => accepted += 1,
                Err(AdmitError::QueueFull { retry_after_ms }) => {
                    assert!(retry_after_ms >= 5);
                    rejected += 1;
                    queue_full += 1;
                }
                Err(AdmitError::BreakerOpen { retry_after_ms }) => {
                    // Consecutive queue-full bounces trip the tenant's
                    // circuit breaker; those rejections answer from the
                    // breaker alone.
                    assert!(retry_after_ms >= 1);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(queue_full > 0, "queue never filled");
        let stats = pool.stats();
        assert_eq!(stats.tenants["a"].rejected, rejected);
        assert!(stats.tenants["a"].breaker_trips >= 1);
        pool.shutdown(true);
        // Every accepted job eventually completes.
        let done = rx.iter().filter(|r| r.status == JobStatus::Ok).count();
        assert_eq!(done as u64, accepted);
    }

    #[test]
    fn forced_shutdown_cancels_queued_and_running() {
        let g = small_graph();
        let (mut pool, rx) = ServePool::new(
            Arc::clone(&g),
            ServeConfig {
                workers: 1,
                queue_cap: 8,
                default_cap: 8,
                ..ServeConfig::default()
            },
        );
        let slow = JobKind::PageRank {
            damping: 0.85,
            iterations: 100_000,
        };
        for i in 0..4 {
            pool.submit(spec(&format!("j{i}"), "a", slow.clone()))
                .unwrap();
        }
        // Give the worker a moment to start the first job.
        std::thread::sleep(Duration::from_millis(30));
        pool.shutdown(false);
        let results: Vec<JobResult> = rx.iter().collect();
        assert_eq!(results.len(), 4);
        assert!(results
            .iter()
            .all(|r| matches!(r.status, JobStatus::Cancelled("shutdown"))));
        // New submissions bounce.
        assert_eq!(
            pool.submit(spec("late", "a", JobKind::Wcc)),
            Err(AdmitError::Closed)
        );
    }

    #[test]
    fn event_sink_traces_jobs_admission_to_reply() {
        use phigraph_trace::json::Json;
        let g = small_graph();
        let sink = EventSink::new();
        let (mut pool, rx) = ServePool::new(
            Arc::clone(&g),
            ServeConfig {
                workers: 1,
                events: Some(sink.clone()),
                ..ServeConfig::default()
            },
        );
        pool.submit(spec("t1", "a", JobKind::Wcc)).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(r.status, JobStatus::Ok);
        assert!(r.trace >= 1, "result must carry the admission trace id");
        pool.shutdown(true);

        // The flight ring holds the full causal trail for the job, all
        // three phases tagged with the id echoed on the response line.
        let tag = format!("t{}", r.trace);
        let mut phases = Vec::new();
        for line in sink.recent() {
            let j = Json::parse(&line).unwrap();
            if j.get("trace").and_then(|v| v.as_str()) == Some(tag.as_str()) {
                phases.push(j.get("ev").unwrap().as_str().unwrap().to_string());
            }
        }
        assert_eq!(phases, ["admit", "start", "done"]);
        // The response line itself exposes the id to clients.
        assert!(
            r.to_line().contains(&format!("\"trace\": \"{tag}\"")) || {
                let j = Json::parse(&r.to_line()).unwrap();
                j.get("trace").unwrap().as_str() == Some(tag.as_str())
            }
        );
    }

    #[test]
    fn bad_sources_fail_cleanly() {
        let g = small_graph();
        let (mut pool, rx) = ServePool::new(Arc::clone(&g), ServeConfig::default());
        pool.submit(spec(
            "oob",
            "a",
            JobKind::Bfs {
                source: 999_999_999,
            },
        ))
        .unwrap();
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(r.status, JobStatus::Error(_)), "{:?}", r);
        pool.shutdown(true);
        let stats = pool.stats();
        assert_eq!(stats.tenants["a"].failed, 1);
    }
}
