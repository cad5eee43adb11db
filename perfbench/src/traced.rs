//! The traced run: each layer's public calls timed from the benchmark's
//! own code, with spans kept in memory and summarised as self times when
//! the run ends, plus the counters the program already returns.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use phigraph_apps::reference::semicluster::semicluster_reference;
use phigraph_apps::workloads::{dblp_like, Scale};
use phigraph_apps::{Bfs, PageRank, SemiClustering, Sssp};
use phigraph_core::api::VertexProgram;
use phigraph_core::engine::obj::run_obj_single;
use phigraph_core::engine::{BarrierImage, DeviceEngine, EngineConfig};
use phigraph_core::RunReport;
use phigraph_device::pool::run_parallel;
use phigraph_graph::state::{encode_state_slice, PodState};
use phigraph_graph::Csr;
use phigraph_partition::stats::PartitionStats;
use phigraph_recover::snapshot::fnv1a64;
use phigraph_recover::{CheckpointStore, FailoverConfig, MemStore, Snapshot};

use crate::comm::{self, CommTimes};
use crate::replay::{self, StepRecord};
use crate::serve::{self, JobStream, Session};
use crate::solve::{self, cpu, Engine, Solve, Threads, Values};
use crate::spans::Spans;
use crate::stats::median;
use crate::{
    fingerprint, metrics, prepare, result_line, setups, Args, CLOSED_SEGMENT_S, OPEN_SEGMENT_S,
};

/// Repetitions of each engine's solve set (medians are reported).
const REPS: usize = 3;
/// Repetitions of each micro-timed call.
const CALL_REPS: usize = 15;
/// Empty pool launches timed for `device.run_parallel_us`.
const LAUNCHES: usize = 1000;
/// Journal record triples timed for `serve.journal_us`.
const JOURNAL_JOBS: usize = 400;
/// Open- and closed-loop segment pairs of the traced serving phase.
const SERVE_SEGMENTS: usize = 3;

/// Span ids: `mode * MODE + rep * REP + solve index`.
const MODE: u64 = 1_000_000;
const REP: u64 = 1_000;

/// Timings taken on one solve's final state.
#[derive(Clone, Copy, Debug, Default)]
struct RecoverTimes {
    snapshot_s: f64,
    store_s: f64,
    fnv_gbps: f64,
    barrier_image_s: f64,
}

fn timed_median(
    reps: usize,
    spans: &mut Spans,
    name: &'static str,
    id: u64,
    f: &mut dyn FnMut(),
) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let idx = spans.open(name, id);
            let t0 = Instant::now();
            f();
            let dt = t0.elapsed().as_secs_f64();
            spans.close(idx);
            dt
        })
        .collect();
    median(&xs)
}

/// Snapshot, store, hash and barrier-image timings on `engine`'s state.
fn recover_probe<P: VertexProgram>(
    engine: &DeviceEngine<'_, P>,
    supersteps: usize,
    spans: &mut Spans,
    id: u64,
) -> RecoverTimes
where
    P::Value: PodState,
{
    let snap = Snapshot {
        superstep: supersteps as u64,
        app: P::NAME.to_string(),
        value_size: P::Value::STATE_SIZE as u16,
        values: encode_state_slice(&engine.values),
        active: engine.active_flags().to_vec(),
    };
    let bytes = snap.encode();
    let snapshot_s = timed_median(CALL_REPS, spans, "recover.snapshot", id, &mut || {
        let b = snap.encode();
        assert_eq!(
            Snapshot::decode(&b).as_ref(),
            Ok(&snap),
            "snapshot round trip"
        );
    });
    let mut store = MemStore::new();
    let store_s = timed_median(CALL_REPS, spans, "recover.store", id, &mut || {
        store
            .save(supersteps as u64, &bytes)
            .expect("in-memory save");
        std::hint::black_box(store.load(supersteps as u64).expect("in-memory load"));
    });
    let fnv_s = timed_median(CALL_REPS, spans, "recover.fnv", id, &mut || {
        std::hint::black_box(fnv1a64(std::hint::black_box(&bytes)));
    });
    let barrier_image_s = timed_median(CALL_REPS, spans, "recover.barrier_image", id, &mut || {
        let image = BarrierImage::capture(engine);
        assert!(
            image.audit_state(engine).is_empty(),
            "state changed under a fault-free audit"
        );
    });
    RecoverTimes {
        snapshot_s,
        store_s,
        fnv_gbps: bytes.len() as f64 / fnv_s / 1e9,
        barrier_image_s,
    }
}

/// Replay one solve on a `DeviceEngine` (lock or pipe), probing the
/// recovery layer on its final state when `recover` is still empty.
fn replay_solve(
    solve: Solve,
    g: &Csr,
    cfg: &EngineConfig,
    spans: &mut Spans,
    id: u64,
    recover: &mut Option<RecoverTimes>,
) -> (Values, Vec<StepRecord>) {
    fn go<P: VertexProgram>(
        p: &P,
        wrap: fn(Vec<P::Value>) -> Values,
        g: &Csr,
        cfg: &EngineConfig,
        spans: &mut Spans,
        id: u64,
        recover: &mut Option<RecoverTimes>,
    ) -> (Values, Vec<StepRecord>)
    where
        P::Value: PodState,
    {
        let (mut engine, steps) = replay::replay(p, g, cpu(), cfg, spans, id);
        if recover.is_none() {
            *recover = Some(recover_probe(&engine, steps.len(), spans, id));
        }
        (wrap(std::mem::take(&mut engine.values)), steps)
    }
    match solve {
        Solve::PageRank => go(
            &PageRank::default(),
            Values::F32,
            g,
            cfg,
            spans,
            id,
            recover,
        ),
        Solve::Sssp(source) => go(&Sssp { source }, Values::F32, g, cfg, spans, id, recover),
        Solve::Bfs(source) => go(&Bfs { source }, Values::I32, g, cfg, spans, id, recover),
    }
}

/// Capture rank 0's largest remote batch of `solve` and time the exchange
/// calls on it.
fn comm_probe(solve: Solve, g: &Csr, assign: &[u8], spans: &mut Spans, id: u64) -> CommTimes {
    fn go<P: VertexProgram>(
        p: &P,
        g: &Csr,
        assign: &[u8],
        spans: &mut Spans,
        id: u64,
    ) -> CommTimes {
        let batch = comm::capture(p, g, assign);
        comm::time_calls::<P>(&batch, CALL_REPS, spans, id)
    }
    match solve {
        Solve::PageRank => go(&PageRank::default(), g, assign, spans, id),
        Solve::Sssp(source) => go(&Sssp { source }, g, assign, spans, id),
        Solve::Bfs(source) => go(&Bfs { source }, g, assign, spans, id),
    }
}

/// Per-name self time summed per repetition (`id / REP`), seconds.
fn rep_self(spans: &Spans, selfs: &[u64], name: &str) -> Vec<f64> {
    let mut by_rep: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, own) in spans.all().iter().zip(selfs) {
        if s.name == name {
            *by_rep.entry(s.id / REP).or_default() += *own as f64 * 1e-9;
        }
    }
    by_rep.into_values().collect()
}

/// Per-name span length summed per repetition, seconds.
fn rep_total(spans: &Spans, name: &str) -> Vec<f64> {
    let mut by_rep: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.all().iter().filter(|s| s.name == name) {
        *by_rep.entry(s.id / REP).or_default() += s.dur_ns() as f64 * 1e-9;
    }
    by_rep.into_values().collect()
}

/// Sum of a step counter over steps.
fn sum(steps: &[&StepRecord], f: impl Fn(&StepRecord) -> u64) -> f64 {
    steps.iter().map(|s| f(s)).sum::<u64>() as f64
}

/// Counts a solve's report carries.
fn report_counts(reports: &[RunReport], f: impl Fn(&RunReport) -> u64) -> f64 {
    reports.iter().map(f).sum::<u64>() as f64
}

pub fn run(a: &Args, dir: &Path, threads: Threads) -> Result<(), String> {
    let prep = prepare(a.workload, a.seed, dir)?;
    let (dblp, _) = dblp_like(Scale::Small, a.seed);
    let sc = SemiClustering::default();
    let sc_reference = semicluster_reference(&sc, &dblp);
    let solves_n = prep.solves.len() as f64;

    let mut spans = Spans::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut attempted, mut wrong) = (0u64, 0u64);
    let mut note = |ok: bool, what: &str| {
        attempted += 1;
        if !ok {
            wrong += 1;
            eprintln!("perfbench: {what} output check failed");
        }
    };

    let (setup, server, _) = setups(&prep, dir, threads, Some(&mut spans))?;
    let durs = |spans: &Spans, name: &str| -> Vec<f64> {
        spans
            .all()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    };
    m.insert("io.load_s", median(&durs(&spans, "io.load")));
    m.insert(
        "partition.hybrid_s",
        median(&durs(&spans, "partition.hybrid")),
    );
    m.insert(
        "partition.cut_edge_share",
        PartitionStats::compute(&setup.graph, &setup.partition).cross_fraction(),
    );
    let launches: Vec<f64> = (0..LAUNCHES)
        .map(|_| {
            let t0 = Instant::now();
            run_parallel(threads.nproc, |tid| {
                std::hint::black_box(tid);
            });
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("device.run_parallel_us", median(&launches));

    let ctx = solve::Ctx {
        graph: &setup.graph,
        partition: &setup.partition,
        threads,
    };
    let g: &Csr = &setup.graph;
    let lock_cfg = solve::single_config(Engine::Lock, threads);
    let pipe_cfg = solve::single_config(Engine::Pipe, threads);

    // Engine layers: per repetition a `run_single` lock set without spans
    // (the untraced reference for the overhead), the traced lock and pipe
    // replays, and an `omp` set for the bit-identity count.
    let mut untraced = Vec::new();
    let mut mismatch = 0u64;
    let mut recover = None;
    let mut lock_steps: Vec<Vec<StepRecord>> = Vec::new();
    let mut pipe_steps: Vec<Vec<StepRecord>> = Vec::new();
    for rep in 0..REPS {
        let mut set_s = 0.0;
        for (&s, exp) in prep.solves.iter().zip(&prep.expected) {
            let t0 = Instant::now();
            let out = solve::run(Engine::Lock, s, &ctx);
            set_s += t0.elapsed().as_secs_f64();
            note(solve::check(s, &out.values, exp), "lock");
            mismatch +=
                u64::from(s == Solve::PageRank && out.values.checksum() != exp.seq_checksum);
        }
        untraced.push(set_s);
        for (mode, cfg, sink) in [
            (1, &lock_cfg, &mut lock_steps),
            (2, &pipe_cfg, &mut pipe_steps),
        ] {
            for (i, (&s, exp)) in prep.solves.iter().zip(&prep.expected).enumerate() {
                let id = mode * MODE + rep as u64 * REP + i as u64;
                let (values, steps) = replay_solve(s, g, cfg, &mut spans, id, &mut recover);
                note(solve::check(s, &values, exp), "replay");
                sink.push(steps);
            }
        }
        for (&s, exp) in prep.solves.iter().zip(&prep.expected) {
            let out = solve::run(Engine::Omp, s, &ctx);
            note(solve::check(s, &out.values, exp), "omp");
            mismatch +=
                u64::from(s == Solve::PageRank && out.values.checksum() != exp.seq_checksum);
        }
    }
    let selfs = spans.self_ns();
    let self_med = |name: &str| median(&rep_self(&spans, &selfs, name));
    for (metric, span) in [
        ("engine.lock.generate_s", "engine.lock.generate"),
        ("engine.lock.process_s", "engine.lock.process"),
        ("engine.lock.update_s", "engine.lock.update"),
        ("engine.lock.step_self_s", "engine.lock.step"),
        ("engine.pipe.generate_s", "engine.pipe.generate"),
        ("engine.pipe.process_s", "engine.pipe.process"),
        ("engine.pipe.update_s", "engine.pipe.update"),
        ("engine.pipe.step_self_s", "engine.pipe.step"),
    ] {
        m.insert(metric, self_med(span));
    }
    m.insert("engine.new_s", self_med("engine.new") / solves_n);
    let traced_lock = median(&rep_total(&spans, "solve.lock"));
    m.insert(
        "trace.overhead_pct",
        (traced_lock / median(&untraced) - 1.0) * 100.0,
    );
    m.insert("check.sum_bit_mismatch", mismatch as f64);

    let n = g.num_vertices() as f64;
    let mut by_activity: Vec<&StepRecord> = lock_steps.iter().flatten().collect();
    by_activity.sort_by_key(|s| s.counters.active_vertices);
    let sparse = &by_activity[..(by_activity.len() / 10).max(1)];
    m.insert(
        "engine.sparse_step_ms",
        median(&sparse.iter().map(|s| s.wall_s * 1e3).collect::<Vec<_>>()),
    );
    m.insert(
        "engine.sparse_step_active_share",
        sum(sparse, |s| s.counters.active_vertices) / sparse.len() as f64 / n,
    );
    let lock0: Vec<&StepRecord> = lock_steps[..prep.solves.len()].iter().flatten().collect();
    let per_solve = |v: f64| v / solves_n;
    m.insert("engine.supersteps", per_solve(lock0.len() as f64));
    m.insert(
        "csb.msgs",
        per_solve(sum(&lock0, |s| s.counters.msgs_total())),
    );
    m.insert(
        "csb.max_column",
        lock0
            .iter()
            .map(|s| s.counters.insert_profile.max_column)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert(
        "csb.column_allocs",
        per_solve(sum(&lock0, |s| s.counters.column_allocs)),
    );
    let lanes = cpu().lanes(4) as f64;
    let rows = sum(&lock0, |s| s.counters.proc_rows);
    m.insert(
        "simd.lane_fill",
        if rows > 0.0 {
            sum(&lock0, |s| s.counters.proc_msgs) / (rows * lanes)
        } else {
            0.0
        },
    );
    let pipe0: Vec<&StepRecord> = pipe_steps[..prep.solves.len()].iter().flatten().collect();
    let kmsgs = sum(&pipe0, |s| s.counters.msgs_total()) / 1e3;
    m.insert(
        "queues.mean_batch",
        sum(&pipe0, |s| s.counters.batched_msgs)
            / sum(&pipe0, |s| s.counters.flush_batches).max(1.0),
    );
    m.insert(
        "queues.full_spins_per_kmsg",
        sum(&pipe0, |s| s.counters.queue_full_spins) / kmsgs,
    );
    m.insert(
        "queues.idle_polls_per_kmsg",
        sum(&pipe0, |s| s.counters.mover_idle_polls) / kmsgs,
    );

    // Fabric and guarded, once per solve.
    let (mut fabric, mut guarded) = (Vec::new(), Vec::new());
    for (i, (&s, exp)) in prep.solves.iter().zip(&prep.expected).enumerate() {
        for (engine, name, sink) in [
            (Engine::Fabric2, "solve.fabric2", &mut fabric),
            (Engine::Guarded, "solve.guarded", &mut guarded),
        ] {
            let out = spans.time(name, 3 * MODE + i as u64, |_| solve::run(engine, s, &ctx));
            note(solve::check(s, &out.values, exp), engine.name());
            sink.push(out.report);
        }
    }
    let steps = report_counts(&fabric, |r| r.supersteps() as u64);
    m.insert(
        "comm.remote_msgs",
        per_solve(report_counts(&fabric, |r| {
            r.steps
                .iter()
                .map(|s| s.counters.remote_before_combine)
                .sum()
        })),
    );
    m.insert(
        "comm.combined_msgs",
        per_solve(report_counts(&fabric, |r| {
            r.steps
                .iter()
                .map(|s| s.counters.remote_after_combine)
                .sum()
        })),
    );
    m.insert(
        "comm.bytes_per_step",
        report_counts(&fabric, RunReport::total_comm_bytes) / steps,
    );
    m.insert(
        "recover.checkpoints",
        per_solve(report_counts(&guarded, RunReport::total_checkpoints)),
    );
    m.insert(
        "recover.checkpoint_bytes",
        per_solve(report_counts(&guarded, RunReport::total_checkpoint_bytes)),
    );
    m.insert(
        "integrity.detections",
        report_counts(&guarded, |r| {
            let i = &r.integrity;
            i.frame_detections + i.group_detections + i.state_detections + i.audit_violations
        }),
    );
    // The default failover settings, which no end-to-end metric runs.
    let mut rebalances = 0;
    for (i, (&s, exp)) in prep.solves.iter().zip(&prep.expected).enumerate() {
        let out = spans.time("solve.guarded_default", 4 * MODE + i as u64, |_| {
            solve::run_with(Engine::Guarded, s, &ctx, &FailoverConfig::default())
        });
        note(
            solve::check(s, &out.values, exp),
            "guarded (default failover)",
        );
        rebalances += out.report.failover.rebalances;
    }
    m.insert("failover.default_rebalances", rebalances as f64);
    let first = prep.solves[0];

    let c = comm_probe(first, g, &setup.partition.assign, &mut spans, 5 * MODE);
    m.insert("comm.batch_msgs", c.batch_msgs as f64);
    m.insert("comm.combine_s", c.combine_s);
    m.insert("comm.encode_s", c.encode_s);
    m.insert("comm.exchange_s", c.exchange_s);
    m.insert("comm.frame_s", c.frame_s);
    let r = recover.expect("the first replay probes the recovery layer");
    m.insert("recover.snapshot_s", r.snapshot_s);
    m.insert("recover.store_s", r.store_s);
    m.insert("recover.fnv_gbps", r.fnv_gbps);
    m.insert("recover.barrier_image_s", r.barrier_image_s);

    // The object-message path on its own community input.
    let t0 = Instant::now();
    let obj = spans.time("obj.solve", 6 * MODE, |_| {
        run_obj_single(&sc, &dblp, cpu(), &lock_cfg)
    });
    m.insert("obj.solve_s", t0.elapsed().as_secs_f64());
    note(obj.values == sc_reference, "semicluster");
    m.insert("obj.msgs", obj.report.total_msgs() as f64);
    m.insert("obj.supersteps", obj.report.supersteps() as f64);

    // Serving, with admission and reply spans and shed-level sampling.
    let mut session = Session::new(&server, &prep.catalogue, JobStream::new(a.seed));
    for _ in 0..SERVE_SEGMENTS {
        session.open_segment(OPEN_SEGMENT_S, Some(&mut spans));
        session.closed_segment(CLOSED_SEGMENT_S, Some(&mut spans));
    }
    let out = session.finish();
    serve::stop(server);
    m.extend(serve::layer_metrics(&out));
    m.insert("serve.job_p99_ms", crate::finite_ms(out.latency_ms(99.0)));
    m.insert("serve.rejected", out.rejected as f64);
    m.insert("serve.expired", out.expired as f64);
    m.insert("serve.shed_level_max", f64::from(out.shed_level_max));
    m.insert(
        "serve.journal_us",
        serve::journal_us(&dir.join("journal-probe"), &prep.catalogue, JOURNAL_JOBS)?,
    );
    let batch_wrong = wrong;
    let attempted = attempted + out.jobs.len() as u64;

    write_spans(a, &spans)?;
    println!(
        "{}",
        fingerprint(
            a,
            &prep,
            threads,
            &[("serve_jobs", out.jobs.len().to_string())]
        )
    );
    let value = |name: &str| -> f64 {
        *m.get(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
    };
    println!(
        "{}",
        result_line(
            batch_wrong == 0 && out.wrong() == 0,
            attempted,
            batch_wrong + out.failed(),
            &metrics::PER_LAYER,
            &value,
        )
    );
    Ok(())
}

/// Write every span to `.perfbench/spans/<workload>-seed<n>.json` and the
/// per-name self-time table to standard error.
fn write_spans(a: &Args, spans: &Spans) -> Result<(), String> {
    let dir = Path::new(".perfbench").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let path = dir.join(format!("{}-seed{}.json", a.workload.name, a.seed));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("write {path:?}: {e}"))?;
    eprintln!("perfbench: spans written to {}", path.display());
    eprintln!(
        "{:<32} {:>8} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, t) in spans.totals() {
        eprintln!(
            "{:<32} {:>8} {:>12.6} {:>12.6}",
            name, t.calls, t.total_s, t.self_s
        );
    }
    Ok(())
}
