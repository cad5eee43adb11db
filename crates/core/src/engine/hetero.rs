//! The one per-rank superstep loop (§IV.A / §IV.E, generalized).
//!
//! "The system is built using MPI symmetric computing, with CPU being Rank
//! 0, and MIC being Rank 1." Every device runtime executes the same
//! superstep in lockstep — generate, exchange the remote messages, process,
//! update — and `rank_loop` is that superstep, written once. Between
//! generation and processing each rank buckets its remote buffer per
//! destination rank, combines each bucket per destination, and exchanges
//! the combined payloads over its per-peer links (ascending peer order on
//! every rank — sends never block, so the mesh schedule is deadlock-free).
//! Global termination: a superstep in which no rank generated any message —
//! each rank sees its own flag plus every peer's, so all ranks reach the
//! identical decision at the same barrier.
//!
//! The loop is generic over [`RankEngine`], the seam between the superstep
//! and its message store: [`DeviceEngine`] (`lock`, `pipe` and `omp`) keeps
//! POD messages in the CSB and exchanges them framed; the object engine
//! (`engine::obj`) keeps per-vertex mailboxes and exchanges them plain.
//! Every driver runs on the loop and passes in only what it needs:
//!
//! * [`run_single`] and [`run_obj_single`] are the `N = 1` case: no links,
//!   no assignment, no heartbeat, on the caller's thread.
//! * [`run_ranks`] and [`run_obj_ranks`] run one thread per rank over a
//!   link mesh with a blocking exchange and no checkpoint hook; any early
//!   exit panics.
//! * The recovery machine behind [`run_ranks_failover`] and
//!   [`run_recoverable`] passes its per-rank snapshot write as a barrier
//!   hook, which arms the fail-stop sites. A lone rank also gets the
//!   integrity rungs as an `AuditHook`; fabric ranks get heartbeats, the
//!   exchange deadline and the straggler vote.
//!
//! A lone rank polls cancellation at the step start and after generation.
//! The failover driver's lockstep replay calls the loop's pieces: the
//! per-link bucket and combine, the insert, the process and update, the
//! step report, and the merge of values by owner.
//!
//! [`run_single`]: crate::engine::run_single
//! [`run_obj_single`]: crate::engine::obj::run_obj_single
//! [`run_obj_ranks`]: crate::engine::obj::run_obj_ranks
//! [`run_ranks_failover`]: crate::engine::run_ranks_failover
//! [`run_recoverable`]: crate::engine::run_recoverable

use crate::api::VertexProgram;
use crate::engine::config::EngineConfig;
use crate::engine::device::DeviceEngine;
use crate::metrics::{combine_ranks, RunOutput, RunReport, StepReport};
use phigraph_comm::{mesh, Endpoint, ExchangeError, ExchangeStats, PcieLink, PeerInfo, WireMsg};
use phigraph_device::cost::PhaseTimes;
use phigraph_device::{CostModel, DeviceSpec, Heartbeat, StepCounters};
use phigraph_graph::Csr;
use phigraph_partition::DevicePartition;
use phigraph_recover::{FailoverConfig, FaultInjector, FaultKind, IntegrityStats};
use phigraph_trace::{HistKind, Phase, ThreadTracer};
use std::ops::Range;
use std::time::{Duration, Instant};

/// One link's exchange: the peer's messages, what it advertised alongside
/// them, and the transfer's stats.
pub(crate) type Exchanged<M> = Result<(Vec<WireMsg<M>>, PeerInfo, ExchangeStats), ExchangeError>;

/// What the rank loop asks of one rank's engine: the phases of a superstep
/// and the wire format of its remote messages.
pub(crate) trait RankEngine {
    /// The value a remote message carries.
    type Msg: Send;
    /// Per-vertex state.
    type Value: Send;
    /// Application name for reports.
    const NAME: &'static str;

    /// The program's own superstep cap.
    fn program_cap(&self) -> Option<usize>;
    /// The engine configuration.
    fn config(&self) -> &EngineConfig;
    /// The simulated device.
    fn spec(&self) -> &DeviceSpec;
    /// This rank's id and the vertex→rank map (`None`: it owns every
    /// vertex).
    fn placement(&self) -> (u8, Option<&[u8]>);
    /// Reset per-step state; returns fresh counters.
    fn begin_step(&mut self) -> StepCounters;
    /// Message generation: keeps the local messages and returns the
    /// peer-bound ones, uncombined. Deactivates every vertex afterwards.
    fn generate(&mut self, c: &mut StepCounters) -> Vec<WireMsg<Self::Msg>>;
    /// Combine one link's bucket per destination.
    fn combine(&self, bucket: Vec<WireMsg<Self::Msg>>) -> Vec<WireMsg<Self::Msg>>;
    /// Exchange one link's combined bucket for the peer's, advertising
    /// `mine` alongside it.
    fn exchange(
        &self,
        ep: &Endpoint<WireMsg<Self::Msg>>,
        out: Vec<WireMsg<Self::Msg>>,
        mine: PeerInfo,
        deadline: Option<Duration>,
        step: usize,
        integ: &mut IntegrityStats,
    ) -> Exchanged<Self::Msg>;
    /// Insert one peer's received messages.
    fn absorb(&mut self, incoming: Vec<WireMsg<Self::Msg>>, c: &mut StepCounters);
    /// Collect the insertion statistics once every message is in.
    fn insertion_stats(&self, c: &mut StepCounters);
    /// Message processing.
    fn process(&mut self, c: &mut StepCounters);
    /// Vertex updating: apply the processed messages, set next-step flags.
    fn update(&mut self, c: &mut StepCounters);
    /// The simulated phase times of a closed superstep.
    fn step_times(&self, cost: &CostModel, c: &StepCounters) -> PhaseTimes;
    /// The vertex values (full-length; only owned entries are meaningful).
    fn into_values(self) -> Vec<Self::Value>;
}

/// How one rank loop ended. Every early exit carries the superstep it left
/// at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExitKind {
    /// Global termination, the superstep cap, or (single device)
    /// cancellation.
    Done,
    /// An injected `CrashDevice`/`CrashRank` fault: all endpoints torn down.
    Crashed(usize),
    /// An injected `HangDevice` fault: endpoints kept alive but silent.
    Hung(usize),
    /// A peer's endpoint disappeared (that peer crashed).
    PeerDead(usize),
    /// A peer went silent past the deadline (that peer hung), after the
    /// given milliseconds.
    PeerTimeout(usize, u64),
    /// The exchange was dropped on a link (both ends observe this).
    ExchangeDrop(usize),
    /// An injected `PartitionLink` severed the link `(low, high)`; the
    /// lower end, which armed the fault, names the pair so the driver can
    /// evict the deterministic side.
    LinkPartitioned(usize, u8, u8),
    /// Straggler threshold reached; all ranks leave at the same barrier.
    Rebalance(usize),
    /// A guarded rank hit a fail-stop site (a dead worker or mover, a
    /// poisoned insert), or its integrity rungs could not heal the step.
    FailStop(usize),
}

impl ExitKind {
    /// Only a self-reported crash/hang marks the rank itself as lost;
    /// `PeerDead`/`PeerTimeout` from healthy ranks are observations.
    pub(crate) fn lost(&self) -> bool {
        matches!(self, ExitKind::Crashed(_) | ExitKind::Hung(_))
    }
}

/// What the failover driver adds to a rank loop.
pub(crate) struct Liveness<'a> {
    /// Ticked at every phase boundary; the watchdog polls it.
    pub hb: Heartbeat,
    /// Deadline, straggler thresholds and the slowdown model.
    pub fcfg: &'a FailoverConfig,
    /// The live ranks, ascending: the positions of the straggler vote.
    pub membership: &'a [usize],
    /// Whether a `SlowDevice` fault latched on this rank in an earlier
    /// attempt (the straggler stays slow after a rollback or rebalance).
    pub slowed: bool,
    /// Whether the straggler vote may still ask for a rebalance.
    pub rebalance: bool,
}

/// Heartbeat ticks in one completed superstep: at the step start, after
/// generation, after the exchange and after update.
pub(crate) const BEATS_PER_STEP: u64 = 4;

/// A driver's barrier hook: runs after update at every checkpoint
/// superstep (`policy.is_checkpoint_step(step + 1)`).
pub(crate) type BarrierHook<'h, E> = &'h mut dyn FnMut(&E, usize, &mut StepCounters);

/// Where in a superstep the integrity hook runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Site {
    /// After `begin_step`, before generation.
    Start,
    /// After generation.
    Generated,
    /// After the insertion stats, before processing.
    Inserted,
    /// After update: the barrier the next step starts from.
    Updated,
}

/// What the integrity hook asks of the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Carry on.
    Go,
    /// Run the step body again (the hook restored its starting barrier).
    Replay,
    /// The step cannot be healed in place: end the rank with a fail-stop.
    Fail,
}

/// A lone guarded rank's integrity hook: the silent-corruption sites and
/// rungs of [`Rungs`](crate::engine::integrity::Rungs), called at every
/// [`Site`] of every step.
pub(crate) type AuditHook<'h, E> =
    &'h mut dyn FnMut(Site, &mut E, usize, &mut StepCounters) -> Verdict;

/// What one rank loop hands back besides the engine's own state.
pub(crate) struct RankRun<M: Send> {
    /// One report per completed superstep.
    pub steps: Vec<StepReport>,
    /// How the loop ended.
    pub exit: ExitKind,
    /// A hung rank's link endpoints, kept alive so its peers observe
    /// silence (a timeout) rather than a dead channel — exactly the
    /// difference between a hang and a crash.
    pub keep_alive: Vec<Endpoint<WireMsg<M>>>,
    /// Whether a `SlowDevice` fault has latched on this rank.
    pub slowed: bool,
    /// Sum of the advertised (straggler-model) step times.
    pub sim_adv_total: f64,
    /// Frame-integrity counters from this rank's exchanges.
    pub integ: IntegrityStats,
}

/// A run's superstep cap: the lower of the program's and the
/// configuration's, if any.
pub(crate) fn run_cap(program_cap: Option<usize>, config_cap: Option<usize>) -> usize {
    match (program_cap, config_cap) {
        (Some(a), Some(b)) => a.min(b),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => usize::MAX,
    }
}

/// The superstep cap every rank agrees on — they must, or the lockstep
/// exchange deadlocks.
pub(crate) fn fabric_cap(program_cap: Option<usize>, configs: &[EngineConfig]) -> usize {
    run_cap(
        program_cap,
        configs.iter().filter_map(|c| c.max_supersteps).min(),
    )
}

/// Bucket a rank's remote buffer by destination link (generation order
/// preserved within a bucket) and combine each bucket per destination —
/// "the combination result is sent to the other device as a single MPI
/// message", one such message per peer. `link_of` maps a rank id to its
/// bucket.
pub(crate) fn bucket_and_combine<E: RankEngine>(
    engine: &E,
    remote: Vec<WireMsg<E::Msg>>,
    link_of: &[usize],
    links: usize,
    c: &mut StepCounters,
) -> Vec<Vec<WireMsg<E::Msg>>> {
    c.remote_before_combine = remote.len() as u64;
    let assign = engine.placement().1.unwrap_or_default();
    let mut buckets: Vec<Vec<WireMsg<E::Msg>>> = (0..links).map(|_| Vec::new()).collect();
    for msg in remote {
        buckets[link_of[assign[msg.dst as usize] as usize]].push(msg);
    }
    buckets
        .into_iter()
        .map(|b| {
            let combined = engine.combine(b);
            c.remote_after_combine += combined.len() as u64;
            combined
        })
        .collect()
}

/// Insert the peers' combined messages (ascending peer order) and finalize
/// the insertion stats. A single device has no insert barrier to trace.
pub(crate) fn insert_step<E: RankEngine>(
    engine: &mut E,
    incoming: Vec<Vec<WireMsg<E::Msg>>>,
    c: &mut StepCounters,
    tracer: &ThreadTracer,
    step: usize,
) {
    let _i = (!incoming.is_empty()).then(|| tracer.span(Phase::Insert, step as u32));
    for msgs in incoming {
        engine.absorb(msgs, c);
    }
    engine.insertion_stats(c);
}

/// Close a superstep on one engine: process, then update.
pub(crate) fn process_update<E: RankEngine>(
    engine: &mut E,
    c: &mut StepCounters,
    tracer: &ThreadTracer,
    step: usize,
) {
    {
        let _p = tracer.span(Phase::Process, step as u32);
        engine.process(c);
    }
    let _u = tracer.span(Phase::Update, step as u32);
    engine.update(c);
}

/// Cost a closed superstep into its report. Per-chunk records are dropped
/// once costed to keep reports small.
pub(crate) fn step_report<E: RankEngine>(
    engine: &E,
    cost: &CostModel,
    step: usize,
    mut c: StepCounters,
    comm_time: f64,
    t0: Instant,
) -> StepReport {
    let times = engine.step_times(cost, &c);
    c.gen_chunks.clear();
    c.proc_chunks.clear();
    StepReport {
        step,
        times,
        comm_time,
        wall: t0.elapsed().as_secs_f64(),
        counters: c,
    }
}

/// Merge full-length per-rank vectors by ownership: entry `v` comes from
/// the part of rank `assign[v]`. The first part seeds every entry, so
/// vertices owned by a rank without a part keep its values.
pub(crate) fn merge_by_owner<T>(
    assign: &[u8],
    parts: impl IntoIterator<Item = (usize, Vec<T>)>,
) -> Vec<T> {
    let mut parts = parts.into_iter();
    let (_, mut merged) = parts.next().expect("at least one rank");
    for (rank, part) in parts {
        for (v, val) in part.into_iter().enumerate() {
            if assign[v] as usize == rank {
                merged[v] = val;
            }
        }
    }
    merged
}

/// The per-rank report of a run of `app`: `mode` is the engine's on a
/// single device and `cpu-mic` on a fabric rank.
pub(crate) fn rank_report(
    app: &str,
    spec: &DeviceSpec,
    mode: &str,
    steps: Vec<StepReport>,
    wall: f64,
) -> RunReport {
    RunReport {
        app: app.to_string(),
        device: spec.name.to_string(),
        mode: mode.to_string(),
        steps,
        wall,
        ..Default::default()
    }
}

/// Arm the injected link faults for `step` before exchanging. A
/// `DropExchange` poisons the rank's first link. A partition is armed by
/// the lower end of the link (fire-once, so exactly one side arms) and its
/// peer is returned, so the resulting drop is attributed to the partition
/// rather than to a generic exchange fault.
fn arm_link_faults<M: Send>(
    eps: &[Endpoint<M>],
    injector: Option<&FaultInjector>,
    step: usize,
    dev: u8,
) -> Option<usize> {
    let inj = injector?;
    if inj.fire(step as u64, FaultKind::DropExchange, dev) {
        eps[0].inject_fault();
    }
    let mut partitioned = None;
    for ep in eps.iter().filter(|ep| ep.peer > dev as usize) {
        if inj.fire(
            step as u64,
            FaultKind::partition_link(dev, ep.peer as u8),
            0,
        ) {
            ep.inject_fault();
            partitioned = Some(ep.peer);
        }
    }
    partitioned
}

/// One rank's superstep loop over `steps` — the only one in the engine.
///
/// `eps` are the rank's links, ascending by peer id (empty for a single
/// device). `live` adds the failover driver's instrumentation: heartbeat
/// ticks at phase boundaries, the step-start crash/hang/slow injection
/// sites, a deadline on every exchange, and symmetric straggler detection
/// from the step times every rank piggybacks on its exchanges.
/// `checkpoint` runs at the barrier after update on checkpoint supersteps;
/// the recovery machine passes one, which also arms the fail-stop sites.
/// `audit` runs at every [`Site`] and may ask for a step's body again.
pub(crate) fn rank_loop<E: RankEngine>(
    engine: &mut E,
    mut eps: Vec<Endpoint<WireMsg<E::Msg>>>,
    steps: Range<usize>,
    live: Option<Liveness<'_>>,
    mut checkpoint: Option<BarrierHook<'_, E>>,
    mut audit: Option<AuditHook<'_, E>>,
) -> RankRun<E::Msg> {
    let config = engine.config().clone();
    let cost = CostModel::new(engine.spec().clone());
    let (dev, _) = engine.placement();
    let tracer = config.tracer(&format!("dev{dev}"), dev as u32 * 1000);
    let solo = eps.is_empty();
    let deadline = live.as_ref().map(|l| l.fcfg.deadline());
    // A guarded rank's fail-stop sites: the partial step is dirty, so the
    // rank leaves for the driver to roll back.
    let fail_stops = config.fault_plan.as_ref().filter(|_| checkpoint.is_some());
    let beat = || {
        if let Some(l) = &live {
            l.hb.tick();
        }
    };
    // Destination rank -> link index.
    let mut link_of = vec![usize::MAX; eps.iter().map(|e| e.peer + 1).max().unwrap_or(0)];
    for (i, ep) in eps.iter().enumerate() {
        link_of[ep.peer] = i;
    }
    let mut run = RankRun {
        steps: Vec::new(),
        exit: ExitKind::Done,
        keep_alive: Vec::new(),
        slowed: live.as_ref().is_some_and(|l| l.slowed),
        sim_adv_total: 0.0,
        integ: IntegrityStats::default(),
    };
    let mut prev_adv = 0.0f64;
    let mut base_times: Option<Vec<f64>> = None;
    let mut consec_slow = 0u32;

    for step in steps {
        if solo && config.cancelled() {
            break;
        }
        beat();
        if let (Some(_), Some(inj)) = (&live, &config.fault_plan) {
            if inj.fire(step as u64, FaultKind::CrashDevice, dev)
                || inj.fire(step as u64, FaultKind::CrashRank(dev), 0)
            {
                // Fail-stop: returning drops every endpoint, so each
                // peer's next exchange observes a dead channel.
                run.exit = ExitKind::Crashed(step);
                break;
            }
            if inj.fire(step as u64, FaultKind::HangDevice, dev) {
                // Hang: the rank goes silent but its endpoints stay
                // alive; only a deadline can tell this apart from "slow".
                run.keep_alive = std::mem::take(&mut eps);
                run.exit = ExitKind::Hung(step);
                break;
            }
            if inj.fire(step as u64, FaultKind::SlowDevice, dev) {
                run.slowed = true;
            }
        }
        let fails = |k: FaultKind| fail_stops.is_some_and(|i| i.fire(step as u64, k, dev));
        let mut hook = |site, e: &mut E, c: &mut StepCounters| {
            audit.as_mut().map_or(Verdict::Go, |a| a(site, e, step, c))
        };
        let t0 = Instant::now();
        let _step_span = tracer.span(Phase::Superstep, step as u32);
        let mut c = StepCounters::default();
        let (mut my_any, mut peer_any, mut comm_time) = (false, false, 0.0f64);
        let mut peer_times: Vec<(usize, f64)> = Vec::with_capacity(eps.len());
        // The step body. A rung-2 replay runs it once more from the
        // barrier, keeping the count of the faults that already fired.
        let body = loop {
            c = StepCounters {
                faults_injected: c.faults_injected,
                ..engine.begin_step()
            };
            if hook(Site::Start, engine, &mut c) == Verdict::Fail || fails(FaultKind::KillWorker) {
                break Err(ExitKind::FailStop(step));
            }
            // 1. Message generation (local messages straight into the
            //    engine's store, peer-bound ones into the remote buffer).
            let remote = {
                let _g = tracer.span(Phase::Generate, step as u32);
                engine.generate(&mut c)
            };
            hook(Site::Generated, engine, &mut c);
            if fails(FaultKind::KillMover) {
                break Err(ExitKind::FailStop(step));
            }
            // Mid-superstep cancellation point: the partial step is
            // abandoned (values still hold the last completed superstep's
            // state).
            if solo && config.cancelled() {
                break Err(ExitKind::Done);
            }
            beat();
            // 2. Bucket and combine per destination link.
            let outgoing = bucket_and_combine(engine, remote, &link_of, eps.len(), &mut c);

            // 3. The implicit remote message exchange, one exchange per
            //    link in ascending peer order.
            my_any = c.msgs_total() > 0;
            let mut incoming: Vec<Vec<WireMsg<E::Msg>>> = Vec::with_capacity(eps.len());
            if !solo {
                let partitioned = arm_link_faults(&eps, config.fault_plan.as_ref(), step, dev);
                let x0 = Instant::now();
                let xspan = tracer.span(Phase::Exchange, step as u32);
                let mut fail: Option<ExitKind> = None;
                let mine = PeerInfo {
                    any_active: my_any,
                    step_time: prev_adv,
                };
                for (ep, out) in eps.iter().zip(outgoing) {
                    match engine.exchange(ep, out, mine, deadline, step, &mut run.integ) {
                        Ok((msgs, peer, x)) => {
                            peer_any |= peer.any_active;
                            peer_times.push((ep.peer, peer.step_time));
                            c.comm_bytes += x.bytes_sent + x.bytes_recv;
                            comm_time += x.sim_time;
                            incoming.push(msgs);
                        }
                        Err(e) => {
                            fail = Some(match e {
                                ExchangeError::Dropped(_) if partitioned == Some(ep.peer) => {
                                    ExitKind::LinkPartitioned(step, dev, ep.peer as u8)
                                }
                                ExchangeError::Dropped(_) => ExitKind::ExchangeDrop(step),
                                ExchangeError::Timeout(t) => {
                                    ExitKind::PeerTimeout(step, t.waited_ms)
                                }
                                ExchangeError::PeerDead => ExitKind::PeerDead(step),
                            });
                            break;
                        }
                    }
                }
                drop(xspan);
                config.record_hist(HistKind::ExchangeRttUs, x0.elapsed().as_micros() as u64);
                beat();
                if let Some(f) = fail {
                    break Err(f);
                }
            }

            // 4. Insert the received messages, then process and update.
            insert_step(engine, incoming, &mut c, &tracer, step);
            if fails(FaultKind::PoisonInsert)
                || hook(Site::Inserted, engine, &mut c) == Verdict::Fail
            {
                break Err(ExitKind::FailStop(step));
            }
            process_update(engine, &mut c, &tracer, step);
            match hook(Site::Updated, engine, &mut c) {
                Verdict::Go => break Ok(()),
                Verdict::Replay => {}
                Verdict::Fail => break Err(ExitKind::FailStop(step)),
            }
        };
        if let Err(exit) = body {
            run.exit = exit;
            break;
        }
        beat();
        if live.is_some() {
            c.heartbeats = BEATS_PER_STEP;
        }
        // The barrier after update is the consistency point: the hook
        // snapshots the state step `step + 1` will start from.
        if config.recovery.is_checkpoint_step(step as u64 + 1) {
            if let Some(hook) = checkpoint.as_mut() {
                let ck0 = Instant::now();
                let _ck = tracer.span(Phase::Checkpoint, step as u32);
                hook(engine, step, &mut c);
                config.record_hist(
                    HistKind::CheckpointWriteUs,
                    ck0.elapsed().as_micros() as u64,
                );
            }
        }
        let report = step_report(engine, &cost, step, c, comm_time, t0);

        // Advertised step time: the simulated compute time, inflated by the
        // straggler model when a SlowDevice fault has latched.
        let slow = live.as_ref().filter(|_| run.slowed);
        let adv = report.times.total * slow.map_or(1.0, |l| l.fcfg.slow_time_factor);
        run.sim_adv_total += adv;
        // Symmetric straggler detection: at this barrier every rank saw the
        // identical N-vector of previous-step times (its own plus each
        // peer's piggybacked advertisement), so all ranks maintain the same
        // consecutive-slow counter and leave at the same barrier when it
        // trips. The devices are *naturally* asymmetric, so raw times are
        // useless — the first fully-populated barrier calibrates the
        // healthy per-rank baselines, and a straggler is a max/min drift of
        // the normalized times beyond `slow_factor`. The N = 2 drift
        // equals the pairwise `max(cur/base, base/cur)`.
        let mut trip = false;
        if let Some(l) = live
            .as_ref()
            .filter(|l| l.rebalance && l.fcfg.rebalance_after > 0)
        {
            let pos = |r: usize| l.membership.iter().position(|&m| m == r);
            let mut t = vec![0.0f64; l.membership.len()];
            t[pos(dev as usize).expect("rank not in its own membership")] = prev_adv;
            for &(peer, pt) in &peer_times {
                if let Some(i) = pos(peer) {
                    t[i] = pt;
                }
            }
            if t.iter().all(|&x| x > 0.0) {
                match &base_times {
                    None => base_times = Some(t),
                    Some(base) => {
                        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
                        for (x, b) in t.iter().zip(base) {
                            lo = lo.min(x / b);
                            hi = hi.max(x / b);
                        }
                        consec_slow = if hi / lo > l.fcfg.slow_factor {
                            consec_slow + 1
                        } else {
                            0
                        };
                    }
                }
            }
            trip = consec_slow >= l.fcfg.rebalance_after;
        }
        prev_adv = adv;
        run.steps.push(report);

        // Global termination: nobody generated messages this superstep.
        if !my_any && !peer_any {
            break;
        }
        if trip {
            run.exit = ExitKind::Rebalance(step);
            break;
        }
    }
    run
}

/// Run `program` across `specs.len()` ranks. `specs`/`configs` are indexed
/// by rank (0 = CPU, 1.. = accelerators); `partition` assigns vertices.
///
/// # Panics
/// Panics when a rank leaves the superstep loop early — a dropped or dead
/// link, e.g. an injected `DropExchange` fault. Install the fault plan
/// under [`run_ranks_failover`] instead, which rolls back and migrates.
///
/// [`run_ranks_failover`]: crate::engine::run_ranks_failover
pub fn run_ranks<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    partition: &DevicePartition,
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    link: PcieLink,
) -> RunOutput<P::Value> {
    assert_eq!(partition.assign.len(), graph.num_vertices());
    let assign = &partition.assign;
    run_fabric(specs, configs, assign, link, |r| {
        let (spec, config) = (specs[r].clone(), configs[r].clone());
        DeviceEngine::new(program, graph, spec, config, r as u8, Some(assign))
    })
}

/// The fabric code of [`run_ranks`] and `run_obj_ranks`: the engine that
/// `build` makes for each rank runs the rank loop on its own thread over
/// a link mesh; the ranks' values merge by owner.
///
/// # Panics
/// Panics when a rank leaves the superstep loop early.
pub(crate) fn run_fabric<E: RankEngine>(
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    assign: &[u8],
    link: PcieLink,
    build: impl Fn(usize) -> E + Sync,
) -> RunOutput<E::Value> {
    assert!(specs.len() >= 2, "heterogeneous runs need at least 2 ranks");
    assert_eq!(specs.len(), configs.len(), "one config per rank");
    let ranks: Vec<usize> = (0..specs.len()).collect();
    let sides = mesh::<WireMsg<E::Msg>>(link, &ranks);

    let outs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = sides
            .into_iter()
            .enumerate()
            .map(|(r, eps)| {
                let build = &build;
                s.spawn(move || {
                    let mut engine = build(r);
                    let cap = fabric_cap(engine.program_cap(), configs);
                    let wall_start = Instant::now();
                    let run = rank_loop(&mut engine, eps, 0..cap, None, None, None);
                    (
                        engine.into_values(),
                        run,
                        wall_start.elapsed().as_secs_f64(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank loop panicked"))
            .collect()
    });

    if let Some(exit) = outs
        .iter()
        .map(|(_, run, _)| run.exit)
        .find(|e| *e != ExitKind::Done)
    {
        panic!(
            "a rank left the superstep loop early ({exit:?}) with no recovery \
             driver installed; use run_ranks_failover"
        );
    }
    let mut parts = Vec::with_capacity(outs.len());
    let mut reports = Vec::with_capacity(outs.len());
    for (r, (values, run, wall)) in outs.into_iter().enumerate() {
        parts.push((r, values));
        reports.push(RunReport {
            integrity: run.integ,
            ..rank_report(E::NAME, &specs[r], "cpu-mic", run.steps, wall)
        });
    }
    RunOutput {
        values: merge_by_owner(assign, parts),
        report: combine_ranks(E::NAME, &reports),
        device_reports: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GenContext, MsgSink};
    use crate::engine::{run_ranks_failover, run_single};
    use phigraph_graph::generators::small::chain;
    use phigraph_graph::VertexId;
    use phigraph_partition::{partition, partition_n, PartitionScheme, Ratio, Shares};
    use phigraph_recover::{CheckpointStore, FaultPlan, MemStore};
    use phigraph_simd::Min;

    struct Sssp;
    impl VertexProgram for Sssp {
        type Msg = f32;
        type Reduce = Min;
        type Value = f32;
        const NAME: &'static str = "sssp";
        fn init(&self, v: VertexId, _g: &Csr) -> (f32, bool) {
            if v == 0 {
                (0.0, true)
            } else {
                (f32::INFINITY, false)
            }
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            let my = *ctx.value(v);
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], my + ctx.graph.weight(e));
            }
        }
        fn update(&self, _v: VertexId, msg: f32, value: &mut f32, _g: &Csr) -> bool {
            if msg < *value {
                *value = msg;
                true
            } else {
                false
            }
        }
    }

    fn rank_specs(n: usize) -> Vec<DeviceSpec> {
        (0..n)
            .map(|r| {
                if r == 0 {
                    DeviceSpec::xeon_e5_2680()
                } else {
                    DeviceSpec::xeon_phi_se10p()
                }
            })
            .collect()
    }

    /// [`run_ranks_failover`] with fresh in-memory stores and checkpoints
    /// every superstep.
    fn failover_run(g: &Csr, p: &DevicePartition, configs: &[EngineConfig]) -> RunOutput<f32> {
        let mut stores: Vec<MemStore> = configs.iter().map(|_| MemStore::new()).collect();
        run_ranks_failover(
            &Sssp,
            g,
            p,
            &rank_specs(configs.len()),
            configs,
            PcieLink::gen2_x16(),
            &FailoverConfig::default(),
            stores
                .iter_mut()
                .map(|s| s as &mut dyn CheckpointStore)
                .collect(),
            false,
        )
    }

    #[test]
    fn hetero_matches_single_device_on_chain() {
        let g = chain(40);
        let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 0);
        let out = run_ranks(
            &Sssp,
            &g,
            &p,
            &rank_specs(2),
            &[
                EngineConfig::locking(),
                EngineConfig::pipelined().with_host_threads(4),
            ],
            PcieLink::gen2_x16(),
        );
        let single = run_single(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.values, single.values);
        assert_eq!(out.report.device, "CPU-MIC");
        // Round-robin on a chain: every edge crosses devices.
        assert!(out.report.sim_comm() > 0.0);
        assert!(out.report.total_comm_bytes() > 0);
    }

    #[test]
    fn three_and_four_rank_fabrics_match_single_device() {
        let g = chain(40);
        let single = run_single(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        for n in [3usize, 4] {
            let p = partition_n(&g, PartitionScheme::RoundRobin, &Shares::even(n), 0);
            let configs = vec![EngineConfig::locking(); n];
            let out = run_ranks(
                &Sssp,
                &g,
                &p,
                &rank_specs(n),
                &configs,
                PcieLink::gen2_x16(),
            );
            assert_eq!(out.values, single.values, "{n} ranks");
            assert_eq!(out.device_reports.len(), n);
            assert_eq!(out.report.device, format!("CPU-MICx{}", n - 1));
            assert!(out.report.total_comm_bytes() > 0, "{n} ranks");
        }
    }

    #[test]
    fn three_rank_dropped_exchange_is_retried() {
        let g = chain(30);
        let p = partition_n(&g, PartitionScheme::RoundRobin, &Shares::even(3), 0);
        let clean = run_single(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        // Rank 1 drops its first link (to rank 0) at superstep 2; ranks 0
        // and 2 observe the dead fabric and all three roll back together.
        let plan = FaultPlan::new().with(2, FaultKind::DropExchange, 1);
        let inj = plan.injector();
        let configs = vec![
            EngineConfig::locking()
                .with_checkpoint_every(1)
                .with_backoff_ms(0)
                .with_fault_plan(inj.clone());
            3
        ];
        let out = failover_run(&g, &p, &configs);
        assert_eq!(out.values, clean.values);
        assert_eq!(out.report.recovery.rollbacks, 1);
        assert_eq!(out.report.recovery.retries, 1);
        assert!(!out.report.recovery.degraded);
        assert_eq!(out.report.failover.exchange_drops, 1);
        assert_eq!(out.report.failover.migrations, 0, "a drop is no eviction");
        assert_eq!(out.report.device, "CPU-MICx2");
    }

    #[test]
    fn exchange_faults_past_budget_degrade_to_sequential() {
        let g = chain(20);
        let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 0);
        // Faults on both devices across attempts, budget of one retry.
        let plan = FaultPlan::new().with(1, FaultKind::DropExchange, 0).with(
            2,
            FaultKind::DropExchange,
            1,
        );
        let inj = plan.injector();
        let config = EngineConfig::locking()
            .with_checkpoint_every(1)
            .with_backoff_ms(0)
            .with_max_retries(1)
            .with_fault_plan(inj);
        let out = failover_run(&g, &p, &[config.clone(), config]);
        for v in 0..20 {
            assert_eq!(out.values[v], v as f32, "degraded run still correct");
        }
        assert!(out.report.recovery.degraded);
        assert_eq!(out.report.failover.exchange_drops, 2);
        assert_eq!(out.report.mode, "seq");
        assert!(out.report.summary().contains("DEGRADED->seq"));
    }

    #[test]
    #[should_panic(expected = "run_ranks_failover")]
    fn plain_fabric_panics_on_a_dropped_exchange() {
        let g = chain(20);
        let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 0);
        let inj = FaultPlan::single(2, FaultKind::DropExchange).injector();
        let config = EngineConfig::locking().with_fault_plan(inj);
        run_ranks(
            &Sssp,
            &g,
            &p,
            &rank_specs(2),
            &[config.clone(), config],
            PcieLink::gen2_x16(),
        );
    }

    #[test]
    fn hetero_reports_per_device() {
        let g = chain(20);
        let p = partition(&g, PartitionScheme::Continuous, Ratio::even(), 0);
        let out = run_ranks(
            &Sssp,
            &g,
            &p,
            &rank_specs(2),
            &[EngineConfig::locking(), EngineConfig::locking()],
            PcieLink::gen2_x16(),
        );
        assert_eq!(out.device_reports.len(), 2);
        // Continuous split of a chain: exactly one cross edge, so exactly
        // one remote message crosses in one superstep of the whole run.
        let total_remote: u64 = out.device_reports[0]
            .steps
            .iter()
            .chain(&out.device_reports[1].steps)
            .map(|s| s.counters.remote_after_combine)
            .sum();
        assert_eq!(total_remote, 1);
    }

    #[test]
    fn run_cap_combines_limits() {
        assert_eq!(run_cap(Some(5), Some(3)), 3);
        assert_eq!(run_cap(None, Some(7)), 7);
        assert_eq!(run_cap(Some(2), None), 2);
        assert_eq!(run_cap(None, None), usize::MAX);
    }
}
