//! The recovery machine: checkpoints, rollback, degradation and live rank
//! failover, for one device ([`run_recoverable`], the `N = 1` case) or an
//! N-rank fabric ([`run_ranks_failover`]).
//!
//! Every rank runs the same per-rank superstep loop as `run_ranks` (the
//! `rank_loop` in [`hetero`]) and writes barrier snapshots into its own
//! store. A fail-stop on any rank (a dead worker or mover, a poisoned
//! insert, an SDC the integrity rungs could not heal) or a dropped exchange
//! (all parties observe it at the same barrier) rolls every rank back to
//! the newest common valid snapshot and replays — bounded by the retry
//! budget, with exponential backoff — instead of restarting the whole run;
//! past the budget the run finishes on the sequential engine. A lone rank
//! has no peers, so it runs without liveness and gets the integrity rungs
//! instead; fabric ranks keep the frames layer and a live membership:
//!
//! * **Liveness**: each rank ticks a [`Heartbeat`] at every phase
//!   boundary, a watchdog thread polls those beacons against the configured
//!   deadline, and every per-link exchange carries a timeout — nothing in
//!   this driver blocks unboundedly.
//! * **Detection**: a crashed rank tears all its link endpoints down (every
//!   peer sees `PeerDead` immediately); a hung rank keeps its channels
//!   alive but goes silent (peers see a timeout after the deadline, and the
//!   watchdog records the detection latency).
//! * **Eviction & migration** (the default policy): the failed ranks are
//!   evicted from the membership at the failure barrier `s*`. With one
//!   survivor left, it hosts *every* current engine in lockstep with the
//!   current assignment and replays to completion — bit-identical by
//!   construction, including order-sensitive `f32` combiners. With two or
//!   more survivors, the driver reconstructs the exact barrier state at
//!   `s*` (catch-up replay under the old assignment when the newest common
//!   snapshot is older), re-splits the dead ranks' partition over the
//!   survivors proportionally to their shares, and continues live — so a
//!   second (or third) failure later in the run cascades through the same
//!   machinery onto any survivor subset.
//! * **Verdict sync on link partitions**: when a *link* dies but both of
//!   its ends are alive, exactly one deterministic side — the higher rank —
//!   is evicted, so survivors re-anchor on the smallest live rank instead
//!   of splitting into two mutually-suspicious halves.
//! * **Rebalancing**: a rank that merely *slows down* (a straggler, not a
//!   corpse) is detected from the per-superstep simulated step times every
//!   rank piggybacks on every exchange; after `rebalance_after` consecutive
//!   lopsided barriers all ranks leave the loop at the same barrier and the
//!   live ranks' shares are re-derived proportionally to the observed
//!   throughputs.
//!
//! Each rank loop receives its snapshot write as a barrier hook (and, on a
//! lone rank, the integrity rungs as a step hook), so the loop itself needs
//! no `PodState` bound. The driver thread owns everything else: the
//! watchdog, the verdicts, the one snapshot loader, and the lockstep
//! replay, which reuses the loop's bucket-and-combine, insert, process and
//! report helpers. Checkpoints and faults are counted when they happen, so
//! neither a rollback nor a degradation erases them.
//!
//! [`hetero`]: crate::engine::hetero
//! [`run_recoverable`]: crate::engine::run_recoverable

use crate::api::VertexProgram;
use crate::engine::config::EngineConfig;
use crate::engine::device::DeviceEngine;
use crate::engine::hetero::{
    bucket_and_combine, fabric_cap, insert_step, merge_by_owner, process_update, rank_loop,
    rank_report, step_report, ExitKind, Liveness, Verdict, BEATS_PER_STEP,
};
use crate::engine::integrity::Rungs;
use crate::engine::recover::{encode_snapshot, validate_snapshot, write_snapshot};
use crate::engine::seq::run_seq_resume;
use crate::metrics::{combine_ranks, RunOutput, RunReport, StepReport};
use phigraph_comm::message::wire_bytes;
use phigraph_comm::{mesh, PcieLink, WireMsg};
use phigraph_device::{CostModel, DeviceSpec, Heartbeat, StepCounters};
use phigraph_graph::state::PodState;
use phigraph_graph::Csr;
use phigraph_partition::{partition_n, DevicePartition, Shares};
use phigraph_recover::{
    CheckpointStore, FailoverConfig, FailoverPolicy, FailoverStats, IntegrityStats, RecoveryStats,
    Snapshot,
};
use phigraph_trace::{HistKind, Phase, ThreadTracer, Trace};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seed for straggler-driven re-partitioning (matches the CLI default).
const REBALANCE_SEED: u64 = 7;

/// Sentinel for "not detected" in the watchdog's latency slots.
const UNDETECTED: u64 = u64::MAX;

type ResumePair<V> = Option<(Vec<V>, Vec<u8>)>;
/// Merged values, merged active flags, and per-rank step reports keyed by
/// original rank id — what a lockstep replay hands back.
type ReplayOut<V> = (Vec<V>, Vec<u8>, Vec<(usize, Vec<StepReport>)>);

/// Merge per-rank `(rank, values, flags)` barrier states by ownership.
fn merge_state<V>(assign: &[u8], parts: Vec<(usize, Vec<V>, Vec<u8>)>) -> (Vec<V>, Vec<u8>) {
    let (values, flags): (Vec<_>, Vec<_>) =
        parts.into_iter().map(|(r, v, f)| ((r, v), (r, f))).unzip();
    (
        merge_by_owner(assign, values),
        merge_by_owner(assign, flags),
    )
}

/// Load the newest barrier state valid in *every* `membership` rank's
/// store, merged by `assign` — the one snapshot loader. Corrupt or
/// mismatched snapshots are skipped (counted into `rstats`) in favor of an
/// older common barrier; with none left the run starts at superstep 0.
fn load_merged<P: VertexProgram>(
    stores: &[Mutex<&mut dyn CheckpointStore>],
    membership: &[usize],
    assign: &[u8],
    rstats: &mut RecoveryStats,
) -> (usize, ResumePair<P::Value>)
where
    P::Value: PodState,
{
    let n = assign.len();
    let mut lists: Vec<Vec<u64>> = membership
        .iter()
        .map(|&r| stores[r].lock().expect("checkpoint store poisoned").list())
        .collect();
    let first = lists.remove(0);
    let common: Vec<u64> = first
        .into_iter()
        .filter(|s| lists.iter().all(|l| l.contains(s)))
        .collect();
    'barrier: for k in common.into_iter().rev() {
        let mut parts = Vec::with_capacity(membership.len());
        for &r in membership {
            let bytes = stores[r].lock().expect("checkpoint store poisoned").load(k);
            let snap = bytes
                .ok()
                .and_then(|b| Snapshot::decode(&b).ok())
                .filter(|s| s.superstep == k);
            let point = match snap {
                Some(s) => validate_snapshot::<P>(s, n, rstats),
                None => {
                    rstats.corrupt_snapshots_rejected += 1;
                    None
                }
            };
            let Some((_, values, flags)) = point else {
                continue 'barrier;
            };
            parts.push((r, values, flags));
        }
        return (k as usize, Some(merge_state(assign, parts)));
    }
    (0, None)
}

/// Clear the `membership` ranks' stores and save `state` (if any) as the
/// single barrier snapshot in each (used after a rebalance or an eviction,
/// when older snapshots were written under a now-stale assignment).
fn reset_stores_with<P: VertexProgram>(
    stores: &[Mutex<&mut dyn CheckpointStore>],
    membership: &[usize],
    step: usize,
    state: &ResumePair<P::Value>,
) where
    P::Value: PodState,
{
    let bytes = state
        .as_ref()
        .map(|(values, flags)| encode_snapshot::<P>(step as u64, values, flags));
    for &r in membership {
        let mut s = stores[r].lock().expect("checkpoint store poisoned");
        for k in s.list() {
            let _ = s.remove(k);
        }
        if let Some(bytes) = &bytes {
            let _ = s.save(step as u64, bytes);
        }
    }
}

/// Splice a rank's freshly completed steps over its reports from `from`
/// on. Their checkpoints and step-level faults are counted here, when they
/// happen, so a later rollback or degradation cannot erase them.
fn splice(
    steps: &mut Vec<StepReport>,
    rstats: &mut RecoveryStats,
    from: usize,
    fresh: Vec<StepReport>,
) {
    for s in &fresh {
        rstats.checkpoints_written += s.counters.checkpoints_written;
        rstats.checkpoint_bytes += s.counters.checkpoint_bytes;
        rstats.faults_injected += s.counters.faults_injected;
    }
    steps.retain(|s| s.step < from);
    steps.extend(fresh);
}

/// The watchdog: polls every rank's heartbeat against the deadline and
/// records the detection latency (milliseconds past the deadline) for any
/// rank that goes silent without reporting itself finished. It parks
/// between polls, so the driver can wake it once `stop` is set.
fn watchdog_loop(
    hb: &[Heartbeat],
    finished: &[AtomicBool],
    stop: &AtomicBool,
    deadline: Duration,
    detected: &[AtomicU64],
    ranks: &[usize],
    trace: Option<&Trace>,
) {
    let tracer = match trace {
        Some(t) => t.thread("watchdog", 9000),
        None => ThreadTracer::disabled(),
    };
    let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(25));
    while !stop.load(Ordering::Acquire) {
        let sweep0 = tracer.now_ns();
        for (d, h) in hb.iter().enumerate() {
            if finished[d].load(Ordering::Acquire)
                || detected[d].load(Ordering::Acquire) != UNDETECTED
            {
                continue;
            }
            if h.is_stalled(deadline) {
                let lat = h.since_last().saturating_sub(deadline).as_millis() as u64;
                detected[d].store(lat, Ordering::Release);
                // One Watchdog span per detection (the sweep that noticed
                // the silence), tagged with the dead rank's id.
                tracer.record_closing(Phase::Watchdog, ranks[d] as u32, sweep0);
                if let Some(t) = trace {
                    t.record_hist(HistKind::WatchdogLatencyMs, lat);
                }
            }
        }
        std::thread::park_timeout(poll);
    }
}

/// Lockstep replay of an arbitrary membership on one host. Every
/// `membership` rank's engine runs with its original spec/config and the
/// given assignment, restored from the merged barrier state; messages are
/// bucketed and combined per (source, destination) pair exactly as the
/// live per-link exchange does. Every per-engine operation (generation
/// order, per-destination combine, CSB insertion, reduction) is identical
/// to the healthy multi-thread run, so the replay is bit-identical by
/// construction — including order-sensitive floating-point combiners.
/// Simulated exchange time is reproduced from the same per-link byte
/// counts through the same link model.
///
/// With `stop_step = None` the replay runs to completion (terminal
/// single-survivor migration); with `Some(s)` it stops at the barrier
/// *before* step `s` (catch-up reconstruction for an elastic eviction).
/// Returns the merged values, merged active flags, and the per-rank step
/// reports keyed by original rank id.
#[allow(clippy::too_many_arguments)]
fn replay_lockstep_n<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    assign: &[u8],
    membership: &[usize],
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    link: PcieLink,
    start_step: usize,
    stop_step: Option<usize>,
    resume: ResumePair<P::Value>,
    stores: &[Mutex<&mut dyn CheckpointStore>],
    cap: usize,
    tracer: &ThreadTracer,
) -> ReplayOut<P::Value>
where
    P::Value: PodState,
{
    let m = membership.len();
    let cost: Vec<CostModel> = membership
        .iter()
        .map(|&r| CostModel::new(specs[r].clone()))
        .collect();
    let mut engines: Vec<DeviceEngine<'_, P>> = membership
        .iter()
        .map(|&r| {
            DeviceEngine::new(
                program,
                graph,
                specs[r].clone(),
                configs[r].clone(),
                r as u8,
                Some(assign),
            )
        })
        .collect();
    if let Some((vals, flags)) = resume {
        for e in &mut engines {
            e.restore(vals.clone(), &flags);
        }
    }
    let policy = configs[membership[0]].recovery;
    let mut pos_of = vec![usize::MAX; membership.iter().copied().max().unwrap_or(0) + 1];
    for (i, &r) in membership.iter().enumerate() {
        pos_of[r] = i;
    }
    let mut steps: Vec<Vec<StepReport>> = vec![Vec::new(); m];
    let untraced = ThreadTracer::disabled();

    for step in start_step..stop_step.unwrap_or(cap) {
        let t0 = Instant::now();
        let _replay_span = tracer.span(Phase::Replay, step as u32);
        // Generate, then bucket and combine per (source, destination) pair:
        // `out[i][j]` is the payload rank position `i` sends `j` on the
        // live link (the self bucket is empty by construction).
        let mut counters: Vec<StepCounters> = Vec::with_capacity(m);
        let mut out: Vec<Vec<Vec<WireMsg<P::Msg>>>> = Vec::with_capacity(m);
        for e in engines.iter_mut() {
            let mut c = e.begin_step();
            let remote = e.generate(&mut c);
            out.push(bucket_and_combine(&*e, remote, &pos_of, m, &mut c));
            counters.push(c);
        }
        let all_quiet = counters.iter().all(|c| c.msgs_total() == 0);
        // Per-rank simulated comm: one link traversal per peer, the same
        // byte counts and link model as the live per-link exchange.
        let comm: Vec<(u64, f64)> = (0..m)
            .map(|i| {
                (0..m).filter(|&j| j != i).fold((0, 0.0), |(bytes, t), j| {
                    let bo = wire_bytes::<P::Msg>(out[i][j].len());
                    let bi = wire_bytes::<P::Msg>(out[j][i].len());
                    (bytes + bo + bi, t + link.exchange_time(bo, bi))
                })
            })
            .collect();
        // Each engine absorbs in ascending peer order (the live loop's link
        // order) and closes its step exactly as the live loop does.
        for (i, mut c) in counters.into_iter().enumerate() {
            let r = membership[i];
            let incoming: Vec<Vec<WireMsg<P::Msg>>> = (0..m)
                .filter(|&j| j != i)
                .map(|j| std::mem::take(&mut out[j][i]))
                .collect();
            c.comm_bytes = comm[i].0;
            insert_step(&mut engines[i], incoming, &mut c, &untraced, step);
            process_update(&mut engines[i], &mut c, &untraced, step);
            // Report parity with the live loop's phase-boundary ticks.
            c.heartbeats = BEATS_PER_STEP;
            if policy.is_checkpoint_step(step as u64 + 1) {
                write_snapshot(&engines[i], step, &stores[r], None, &mut c);
            }
            steps[i].push(step_report(&engines[i], &cost[i], step, c, comm[i].1, t0));
        }
        if all_quiet {
            break;
        }
    }

    let parts = membership
        .iter()
        .zip(engines)
        .map(|(&r, e)| {
            let flags = e.active_flags().to_vec();
            (r, e.values, flags)
        })
        .collect();
    let (values, flags) = merge_state(assign, parts);
    (
        values,
        flags,
        membership.iter().copied().zip(steps).collect(),
    )
}

/// Run `program` across an N-rank device fabric with live failover — or,
/// with one device, as single-device recovery (what [`run_recoverable`]
/// runs).
///
/// Behaves exactly like [`run_ranks`] when nothing fails. Each rank writes
/// barrier snapshots into its own `stores` slot at the
/// `configs[0].recovery.checkpoint_every` cadence. A fail-stop on any rank
/// or a dropped exchange rolls every rank back to the newest common valid
/// snapshot; past the retry budget the run degrades to the sequential
/// engine. On a detected rank loss the driver applies `fcfg.policy`: under
/// `Migrate` the dead ranks are evicted and their partition re-split over
/// the survivors (a lone survivor replays everything in lockstep; two or
/// more survivors reconstruct the failure barrier and continue live, so
/// later failures cascade onto any survivor subset). A severed link evicts
/// its higher end, and a detected straggler rebalances the live shares
/// once. With `resume = true` the run starts from the newest snapshot
/// common to all stores.
///
/// All liveness events land in the combined report's
/// [`RunReport::failover`] and per-step counters; rollback/degradation
/// accounting stays in [`RunReport::recovery`].
///
/// [`run_ranks`]: crate::engine::run_ranks
/// [`run_recoverable`]: crate::engine::run_recoverable
#[allow(clippy::too_many_arguments)]
pub fn run_ranks_failover<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    partition_in: &DevicePartition,
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    link: PcieLink,
    fcfg: &FailoverConfig,
    stores: Vec<&mut dyn CheckpointStore>,
    resume: bool,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    let n = specs.len();
    assert_eq!(configs.len(), n, "one config per rank");
    assert_eq!(stores.len(), n, "one checkpoint store per rank");
    assert_eq!(partition_in.assign.len(), graph.num_vertices());
    assert!(
        partition_in.assign.iter().all(|&d| (d as usize) < n),
        "partition names a rank outside the fabric"
    );
    let policy = configs[0].recovery;
    let cap = fabric_cap(program.max_supersteps(), configs);
    let stores: Vec<Mutex<&mut dyn CheckpointStore>> = stores.into_iter().map(Mutex::new).collect();
    let deadline = fcfg.deadline();

    let mut fstats = FailoverStats::default();
    let mut rstats = RecoveryStats::default();
    let mut istats = IntegrityStats::default();
    let mut part = partition_in.clone();
    let mut live: Vec<usize> = (0..n).collect();
    let mut dev_steps: Vec<Vec<StepReport>> = vec![Vec::new(); n];
    let mut start_step = 0usize;
    let mut resume_state: ResumePair<P::Value> = None;
    let mut slowed = vec![false; n];
    let mut rebalance_enabled = true;
    let mut retry = 0u32;
    let mut last_resume: Option<usize> = None;
    // Driver-thread track: migration replays and rebalances happen here,
    // outside any rank loop.
    let drv_tracer = configs[0].tracer("driver", 900);
    let wall_start = Instant::now();

    if resume {
        (start_step, resume_state) = load_merged::<P>(&stores, &live, &part.assign, &mut rstats);
    }

    // Assemble the output from per-rank step report vecs (ragged after
    // evictions: an evicted rank's reports simply stop at its eviction
    // barrier). A lone rank reports as the single device it is.
    let assemble = |dev_steps: Vec<Vec<StepReport>>, values: Vec<P::Value>| {
        let wall = wall_start.elapsed().as_secs_f64();
        let reports: Vec<RunReport> = dev_steps
            .into_iter()
            .enumerate()
            .map(|(r, steps)| rank_report(P::NAME, &specs[r], "cpu-mic", steps, wall))
            .collect();
        let report = match reports.as_slice() {
            [one] => RunReport {
                mode: configs[0].mode.name().to_string(),
                ..one.clone()
            },
            _ => combine_ranks(P::NAME, &reports),
        };
        RunOutput {
            values,
            report,
            device_reports: reports,
        }
    };

    // Stamp the run-wide stats on the final output and return it.
    macro_rules! finish {
        ($out:expr) => {{
            let mut out: RunOutput<P::Value> = $out;
            let total = out.report.steps.last().map_or(0, |s| s.step as u64 + 1);
            fstats.supersteps_total = total;
            if let Some(k) = last_resume {
                fstats.resume_step = k as u64;
                fstats.supersteps_replayed = total.saturating_sub(k as u64);
            }
            out.report.recovery = rstats;
            out.report.failover = fstats;
            out.report.integrity.accumulate(&istats);
            if n == 1 {
                // A lone rank's device report is the run report.
                out.device_reports = vec![out.report.clone()];
            }
            return out;
        }};
    }

    // Degrade to the sequential engine on one rank from the last barrier.
    macro_rules! degrade_seq {
        ($survivor:expr) => {{
            rstats.degraded = true;
            fstats.degraded_single = true;
            let (k, state) = load_merged::<P>(&stores, &live, &part.assign, &mut rstats);
            last_resume = Some(k);
            let merged = state.map(|(vals, flags)| (k, vals, flags));
            let sd: usize = $survivor;
            finish!(run_seq_resume(
                program,
                graph,
                specs[sd].clone(),
                &configs[sd],
                merged
            ));
        }};
    }

    // Roll every rank back to the newest common barrier (superstep 0 when
    // none survives) and retry in lock-step; past the retry budget, degrade
    // onto one survivor instead.
    macro_rules! roll_back {
        ($survivor:expr) => {{
            rstats.rollbacks += 1;
            if retry >= policy.max_retries {
                degrade_seq!($survivor);
            }
            retry += 1;
            rstats.retries += 1;
            let backoff = policy.backoff_ms(retry - 1);
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
            (start_step, resume_state) =
                load_merged::<P>(&stores, &live, &part.assign, &mut rstats);
            last_resume = Some(start_step);
            continue;
        }};
    }

    loop {
        let assign_now = part.assign.clone();
        let m = live.len();
        let hb: Vec<Heartbeat> = (0..m).map(|_| Heartbeat::new()).collect();
        let finished: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
        let detected: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(UNDETECTED)).collect();
        let stop = AtomicBool::new(false);
        let sides = mesh::<WireMsg<P::Msg>>(link, &live);
        let mut resume_now = resume_state.take();

        let outs = std::thread::scope(|s| {
            // A lone rank owns every vertex and has no peers to watch or
            // outrun; it gets the integrity rungs instead.
            let assign = (m > 1).then_some(assign_now.as_slice());
            let (membership, slowed, hb, finished) = (&live, &slowed, &hb, &finished);
            let stores = &stores;
            // One rank's attempt: its engine at the resume barrier, run
            // through the guarded loop.
            let rank = move |i: usize, eps, resume: ResumePair<P::Value>| {
                let r = membership[i];
                let live = (m > 1).then(|| Liveness {
                    hb: hb[i].clone(),
                    fcfg,
                    membership,
                    slowed: slowed[r],
                    rebalance: rebalance_enabled,
                });
                let (spec, config) = (specs[r].clone(), configs[r].clone());
                let mut engine = DeviceEngine::new(program, graph, spec, config, r as u8, assign);
                if let Some((vals, flags)) = resume {
                    engine.restore(vals, &flags);
                }
                let injector = engine.config.fault_plan.clone();
                let mut write_own = |e: &DeviceEngine<'_, P>, step, c: &mut StepCounters| {
                    write_snapshot(e, step, &stores[r], injector.as_ref(), c)
                };
                let mut rungs = (m == 1).then(|| Rungs::arm(&mut engine));
                let mut audit = |site, e: &mut DeviceEngine<'_, P>, step, c: &mut _| {
                    rungs
                        .as_mut()
                        .map_or(Verdict::Go, |a| a.at(site, e, step, c))
                };
                let mut run = rank_loop(
                    &mut engine,
                    eps,
                    start_step..cap,
                    live,
                    Some(&mut write_own),
                    (m == 1).then_some(&mut audit as _),
                );
                if let Some(a) = &rungs {
                    run.integ.accumulate(&a.stats);
                }
                // A rank that crashed or hung never reports itself
                // finished — that is exactly the silence the watchdog is
                // built to notice.
                if !run.exit.lost() {
                    finished[i].store(true, Ordering::Release);
                }
                let flags = engine.active_flags().to_vec();
                (engine.values, flags, run)
            };
            if m == 1 {
                // Like `run_single`, a lone rank runs on the caller's
                // thread.
                return sides
                    .into_iter()
                    .map(|eps| rank(0, eps, resume_now.take()))
                    .collect();
            }
            let handles: Vec<_> = sides
                .into_iter()
                .enumerate()
                .map(|(i, eps)| {
                    let resume_i = if i + 1 == m {
                        resume_now.take()
                    } else {
                        resume_now.clone()
                    };
                    s.spawn(move || rank(i, eps, resume_i))
                })
                .collect();
            let w = s.spawn(|| {
                watchdog_loop(
                    hb,
                    finished,
                    &stop,
                    deadline,
                    &detected,
                    membership,
                    configs[0].trace.as_ref(),
                )
            });
            let outs: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("rank loop panicked"))
                .collect();
            stop.store(true, Ordering::Release);
            // Wake the watchdog from its poll rather than wait it out.
            w.thread().unpark();
            w.join().expect("watchdog panicked");
            outs
        });

        // Plain-data exits; splice this attempt's step reports in and keep
        // the per-rank state the driver needs after the scope. Hung ranks'
        // endpoints stay alive until every rank has returned.
        let mut exits: Vec<ExitKind> = Vec::with_capacity(m);
        let mut state_out: Vec<(usize, Vec<P::Value>, Vec<u8>)> = Vec::with_capacity(m);
        let mut sim_adv: Vec<f64> = Vec::with_capacity(m);
        for (i, (values, flags, run)) in outs.into_iter().enumerate() {
            let r = live[i];
            exits.push(run.exit);
            slowed[r] = run.slowed;
            istats.accumulate(&run.integ);
            sim_adv.push(run.sim_adv_total);
            splice(&mut dev_steps[r], &mut rstats, start_step, run.steps);
            state_out.push((r, values, flags));
        }

        // Watchdog bookkeeping: record the detection latency for every
        // rank that actually went silent (final sweep covers the race
        // where all loops returned before the poller's next pass).
        for (i, e) in exits.iter().enumerate() {
            if e.lost() {
                let lat = match detected[i].load(Ordering::Acquire) {
                    UNDETECTED => hb[i].since_last().saturating_sub(deadline).as_millis() as u64,
                    l => l,
                };
                fstats.watchdog_latency_ms = fstats.watchdog_latency_ms.max(lat);
            }
        }

        // Eviction verdict: self-reported crash/hang exits mark their rank
        // lost; otherwise a reported link partition evicts exactly its
        // higher end (verdict sync — survivors re-anchor on the smallest
        // live rank). `PeerDead`/`PeerTimeout` observations from healthy
        // ranks never evict anyone on their own.
        let lost: Vec<usize> = exits
            .iter()
            .enumerate()
            .filter(|(_, e)| e.lost())
            .map(|(i, _)| live[i])
            .collect();
        let linkpart = exits.iter().find_map(|e| match e {
            ExitKind::LinkPartitioned(s, _, hi) => Some((*s, *hi as usize)),
            _ => None,
        });
        let evict: Option<(Vec<usize>, usize)> = if !lost.is_empty() {
            let mut s_star = usize::MAX;
            for e in &exits {
                match e {
                    ExitKind::Crashed(s) => {
                        fstats.crash_detections += 1;
                        rstats.faults_injected += 1;
                        s_star = s_star.min(*s);
                    }
                    ExitKind::Hung(s) => {
                        fstats.hang_detections += 1;
                        rstats.faults_injected += 1;
                        s_star = s_star.min(*s);
                    }
                    ExitKind::PeerTimeout(..) => fstats.exchange_timeouts += 1,
                    _ => {}
                }
            }
            Some((lost, s_star))
        } else if let Some((s, hi)) = linkpart {
            fstats.link_partitions += 1;
            rstats.faults_injected += 1;
            Some((vec![hi], s))
        } else {
            None
        };

        if let Some((evict_set, s_star)) = evict {
            let survivors: Vec<usize> = live
                .iter()
                .copied()
                .filter(|r| !evict_set.contains(r))
                .collect();
            if survivors.is_empty() {
                // Every rank gone: nothing to migrate onto. Degrade to a
                // sequential run from the last barrier.
                degrade_seq!(live[0]);
            }
            match fcfg.policy {
                FailoverPolicy::Migrate => {
                    fstats.migrations += 1;
                    rstats.rollbacks += 1;
                    for &r in &evict_set {
                        fstats.evicted_ranks |= 1u64 << r;
                    }
                    let (k, pair) = load_merged::<P>(&stores, &live, &part.assign, &mut rstats);
                    last_resume = Some(k);
                    if survivors.len() == 1 {
                        // Terminal: the lone survivor hosts every current
                        // engine in lockstep with the *current* assignment
                        // so each engine half reduces in its original
                        // order — that is what makes the result
                        // bit-identical.
                        fstats.degraded_single = true;
                        let _mig = drv_tracer.span(Phase::Migrate, k as u32);
                        let (values, _flags, replay) = replay_lockstep_n(
                            program,
                            graph,
                            &part.assign,
                            &live,
                            specs,
                            configs,
                            link,
                            k,
                            None,
                            pair,
                            &stores,
                            cap,
                            &drv_tracer,
                        );
                        for (r, rs) in replay {
                            splice(&mut dev_steps[r], &mut rstats, k, rs);
                        }
                        finish!(assemble(dev_steps, values));
                    }
                    // Elastic: two or more survivors. Reconstruct the exact
                    // barrier state at the failure step s* (catch-up replay
                    // under the old assignment when the newest common
                    // snapshot is older), then re-split the dead ranks'
                    // partition over the survivors and continue live —
                    // later failures cascade through this same arm.
                    let _mig = drv_tracer.span(Phase::Migrate, s_star as u32);
                    let caught_up: ResumePair<P::Value> = if k < s_star {
                        let (v, f, replay) = replay_lockstep_n(
                            program,
                            graph,
                            &part.assign,
                            &live,
                            specs,
                            configs,
                            link,
                            k,
                            Some(s_star),
                            pair,
                            &stores,
                            cap,
                            &drv_tracer,
                        );
                        for (r, rs) in replay {
                            splice(&mut dev_steps[r], &mut rstats, k, rs);
                        }
                        Some((v, f))
                    } else {
                        pair
                    };
                    part = part.redistribute(&evict_set, &survivors);
                    live = survivors;
                    start_step = s_star;
                    // Older snapshots were written under the stale
                    // assignment: replace them with the barrier state the
                    // survivors resume from (none after a failure at step 0
                    // before any snapshot: a fresh restart on the subset).
                    reset_stores_with::<P>(&stores, &live, s_star, &caught_up);
                    resume_state = caught_up;
                    continue;
                }
                // Transient-fault model: membership unchanged.
                FailoverPolicy::Retry => roll_back!(survivors[0]),
                FailoverPolicy::Off => degrade_seq!(survivors[0]),
            }
        }

        if exits.iter().all(|e| matches!(e, ExitKind::Done)) {
            let parts = state_out.into_iter().map(|(r, values, _)| (r, values));
            let values = merge_by_owner(&assign_now, parts);
            finish!(assemble(dev_steps, values));
        }

        if exits.iter().all(|e| matches!(e, ExitKind::Rebalance(_))) {
            let sr = match exits[0] {
                ExitKind::Rebalance(s) => s,
                _ => unreachable!(),
            };
            debug_assert!(
                exits
                    .iter()
                    .all(|e| matches!(e, ExitKind::Rebalance(s) if *s == sr)),
                "rebalance barriers must agree: {exits:?}"
            );
            let _rb = drv_tracer.span(Phase::Rebalance, sr as u32);
            fstats.rebalances += 1;
            // Merge live state at the barrier under the old assignment.
            let merged = Some(merge_state(&assign_now, state_out));
            // New shares proportional to the live ranks' observed
            // throughputs (dead ranks keep a zero share); re-derive the
            // partition with the same scheme.
            let live_shares =
                Shares::new(live.iter().map(|&r| part.shares.part(r).max(1)).collect());
            let rebal = live_shares.rebalanced(&sim_adv);
            let mut parts = vec![0u32; part.shares.num_ranks()];
            for (i, &r) in live.iter().enumerate() {
                parts[r] = rebal.part(i);
            }
            part = partition_n(graph, part.scheme, &Shares::new(parts), REBALANCE_SEED);
            // Older snapshots were written under the stale assignment:
            // replace them with the merged barrier state.
            start_step = sr + 1;
            reset_stores_with::<P>(&stores, &live, start_step, &merged);
            resume_state = merged;
            rebalance_enabled = false; // one rebalance per run
            continue;
        }

        let dropped = exits.iter().any(|e| matches!(e, ExitKind::ExchangeDrop(_)));
        let fail_stops = exits
            .iter()
            .filter(|e| matches!(e, ExitKind::FailStop(_)))
            .count() as u64;
        if dropped || fail_stops > 0 {
            // A dropped exchange is observed by both ends of the faulted
            // link at the same barrier, a fail-stop by its own rank; other
            // ranks see dead links as the failed ones tear down. Roll
            // everyone back together.
            fstats.exchange_drops += dropped as u64;
            rstats.faults_injected += dropped as u64 + fail_stops;
            roll_back!(live[0]);
        }

        // Any remaining mix (peer-dead/timeout without a lost rank or a
        // reported partition) is an exchange that failed at its barrier
        // with no rank to blame: count its timeouts and roll everyone back
        // together.
        fstats.exchange_timeouts += exits
            .iter()
            .filter(|e| matches!(e, ExitKind::PeerTimeout(..)))
            .count() as u64;
        roll_back!(live[0]);
    }
}
