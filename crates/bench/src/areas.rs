//! The measured perf areas behind `phigraph-bench run`.
//!
//! Each area is a steady-state iteration loop over one hot path of the
//! runtime, with *fixed-seed deterministic inputs* (the fixtures in
//! `phigraph_core::benchable` and `phigraph_comm::loopback`): two runs at
//! the same seed and scale execute the same labels over the same element
//! counts, so diffs between two `BENCH_*.json` files isolate real perf
//! movement.
//!
//! | area        | hot path                                                  |
//! |-------------|-----------------------------------------------------------|
//! | `csb`       | one-thread buffer insertion (both column modes)           |
//! | `superstep` | full SSSP and PageRank runs per engine mode               |
//! | `exchange`  | hetero frame-exchange loopback, unframed vs framed        |
//! | `integrity` | the `off`/`frames`/`full` switch on the recovering driver |
//! | `partition` | the three §IV.E device-partitioning schemes               |
//! | `objmsg`    | the object-message path (semi-clustering merge/sort)      |
//! | `serve`     | serving-pool jobs/second at 1, 4, and 16 tenants          |
//! | `serve_degraded` | the pool held at 2× admission capacity: shed ladder, breaker, and journal on the admission path |
//! | `obs`       | serving throughput with the observability plane off / windows / windows+events |
//!
//! Smoke mode shrinks every input so the whole sweep finishes in seconds
//! inside `scripts/check.sh`; the fingerprint records which mode produced
//! a file, and `compare` refuses to judge entries whose element counts
//! differ, so a smoke file never silently gates against a full one.

use crate::harness::{BenchmarkId, Criterion, Throughput};
use phigraph_apps::workloads::{self, Scale};
use phigraph_apps::{PageRank, SemiClustering, Sssp};
use phigraph_comm::{loopback_all_to_all, loopback_rounds, PcieLink};
use phigraph_core::api::VertexProgram;
use phigraph_core::benchable::{csb_fixture, superstep_work};
use phigraph_core::csb::ColumnMode;
use phigraph_core::engine::obj::run_obj_single;
use phigraph_core::engine::{run_ranks, run_recoverable, run_single, EngineConfig, ExecMode};
use phigraph_core::metrics::RunOutput;
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;
use phigraph_partition::{partition, partition_n, DevicePartition, PartitionScheme, Ratio, Shares};
use phigraph_recover::{IntegrityMode, MemStore};
use phigraph_serve::{
    EventSink, JobKind, JobSpec, Journal, MetricsHub, ServeConfig, ServePool, ShedPolicy,
};
use phigraph_trace::{Trace, TraceLevel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Knobs shared by every area.
#[derive(Clone, Copy, Debug)]
pub struct AreaOpts {
    /// Shrink inputs to CI-smoke size (seconds, not minutes).
    pub smoke: bool,
    /// Seed for every generated input.
    pub seed: u64,
    /// Timed iterations per benchmark (`None` = harness default, which
    /// honors `PHIGRAPH_BENCH_SAMPLES`).
    pub samples: Option<usize>,
    /// Untimed warmup iterations (`None` = harness default, which honors
    /// `PHIGRAPH_BENCH_WARMUP`).
    pub warmup: Option<usize>,
}

impl Default for AreaOpts {
    fn default() -> Self {
        AreaOpts {
            smoke: false,
            seed: 7,
            samples: None,
            warmup: None,
        }
    }
}

/// Apply the sample/warmup overrides to a group.
fn tune(g: &mut crate::harness::BenchmarkGroup<'_>, opts: &AreaOpts) {
    if let Some(n) = opts.samples {
        g.sample_size(n);
    }
    if let Some(w) = opts.warmup {
        g.warmup_iters(w);
    }
}

/// Run one named area's benchmarks into `c`. Unknown areas are an `Err`
/// listing the valid names.
pub fn run_area(area: &str, c: &mut Criterion, opts: &AreaOpts) -> Result<(), String> {
    match area {
        "csb" => bench_csb(c, opts),
        "superstep" => bench_superstep(c, opts),
        "exchange" => bench_exchange(c, opts),
        "integrity" => bench_integrity(c, opts),
        "partition" => bench_partition(c, opts),
        "objmsg" => bench_objmsg(c, opts),
        "serve" => bench_serve(c, opts),
        "serve_degraded" => bench_serve_degraded(c, opts),
        "obs" => bench_obs(c, opts),
        other => {
            return Err(format!(
                "unknown bench area {other:?} (valid: {})",
                crate::perf::AREAS.join(", ")
            ))
        }
    }
    Ok(())
}

/// Buffer insertion steady state, as the engine's buffer steps insert:
/// seeded uniform destinations inserted in stream order on the calling
/// thread, one full buffer fill + reset per iteration.
fn bench_csb(c: &mut Criterion, opts: &AreaOpts) {
    let (n_vertices, n_msgs) = if opts.smoke {
        (1024, 20_000)
    } else {
        (4096, 200_000)
    };
    let mut g = c.benchmark_group("csb/insert");
    tune(&mut g, opts);
    g.throughput(Throughput::Elements(n_msgs as u64));
    for mode in [ColumnMode::OneToOne, ColumnMode::Dynamic] {
        let mut fx = csb_fixture(n_vertices, n_msgs, mode, opts.seed);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &mode,
            |b, _| b.iter(|| fx.insert()),
        );
    }
    g.finish();
}

/// A full SSSP run per engine mode on the seeded pokec-like graph, `seq`
/// beside the framework engines so the gap to one plain thread stays in
/// view, and a 10-iteration PageRank run on the same graph, whose every
/// superstep is dense (every vertex active), on one device and on two
/// ranks. The declared elements are the run's total generated messages
/// (measured by a priming run — deterministic for a fixed input), so the
/// rate reads as end-to-end messages/second; divide mean by the superstep
/// count for a per-superstep figure.
fn bench_superstep(c: &mut Criterion, opts: &AreaOpts) {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
    let graph = workloads::pokec_like_weighted(scale, opts.seed);
    let spec = DeviceSpec::xeon_e5_2680();
    let mut g = c.benchmark_group("superstep/sssp");
    tune(&mut g, opts);
    for (name, config) in [
        ("seq", EngineConfig::sequential()),
        ("lock", EngineConfig::locking()),
        ("pipe", EngineConfig::pipelined()),
        ("flat", EngineConfig::flat()),
    ] {
        let work = superstep_work(&Sssp { source: 0 }, &graph, spec.clone(), &config);
        g.throughput(Throughput::Elements(work.total_msgs));
        g.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| run_single(&Sssp { source: 0 }, &graph, spec.clone(), config))
        });
    }
    // The same run over an N-rank device fabric (rank 0 = CPU locking,
    // ranks 1.. = MIC pipelined): what the mesh exchange and per-rank
    // barriers add on top of the single-device superstep.
    let work = superstep_work(
        &Sssp { source: 0 },
        &graph,
        spec.clone(),
        &EngineConfig::locking(),
    );
    for n in [2usize, 4] {
        let fabric = Fabric::new(&graph, n, opts.seed);
        g.throughput(Throughput::Elements(work.total_msgs));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("fabric-n{n}")),
            &fabric,
            |b, f| b.iter(|| f.run(&Sssp { source: 0 }, &graph)),
        );
    }
    g.finish();
    let pagerank = PageRank {
        iterations: 10,
        ..PageRank::default()
    };
    let mut g = c.benchmark_group("superstep/pagerank");
    tune(&mut g, opts);
    for (name, config) in [
        ("seq", EngineConfig::sequential()),
        ("lock", EngineConfig::locking()),
        ("flat", EngineConfig::flat()),
    ] {
        let work = superstep_work(&pagerank, &graph, spec.clone(), &config);
        g.throughput(Throughput::Elements(work.total_msgs));
        g.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| run_single(&pagerank, &graph, spec.clone(), config))
        });
    }
    // Dense steps on two ranks: each rank gathers its local rows and
    // absorbs its peer's combined batch behind them.
    let work = superstep_work(&pagerank, &graph, spec.clone(), &EngineConfig::locking());
    let fabric = Fabric::new(&graph, 2, opts.seed);
    g.throughput(Throughput::Elements(work.total_msgs));
    g.bench_with_input(BenchmarkId::from_parameter("fabric-n2"), &fabric, |b, f| {
        b.iter(|| f.run(&pagerank, &graph))
    });
    g.finish();
}

/// An N-rank device fabric over the hybrid partition: rank 0 is the CPU on
/// `lock`, ranks 1.. are MICs on `pipe`.
struct Fabric {
    partition: DevicePartition,
    specs: Vec<DeviceSpec>,
    configs: Vec<EngineConfig>,
}

impl Fabric {
    fn new(graph: &Csr, n: usize, seed: u64) -> Self {
        let partition = partition_n(
            graph,
            PartitionScheme::hybrid_default(),
            &Shares::even(n),
            seed,
        );
        let specs = (0..n)
            .map(|r| {
                if r == 0 {
                    DeviceSpec::xeon_e5_2680()
                } else {
                    DeviceSpec::xeon_phi_se10p()
                }
            })
            .collect();
        let mut configs = vec![EngineConfig::locking()];
        configs.resize(n, EngineConfig::pipelined());
        Fabric {
            partition,
            specs,
            configs,
        }
    }

    fn run<P: VertexProgram>(&self, program: &P, graph: &Csr) -> RunOutput<P::Value> {
        run_ranks(
            program,
            graph,
            &self.partition,
            &self.specs,
            &self.configs,
            PcieLink::gen2_x16(),
        )
    }
}

/// Hetero frame-exchange loopback: lock-step rounds over the modelled
/// PCIe link, unframed vs sealed+verified frames (the per-exchange cost
/// the frames integrity mode pays).
fn bench_exchange(c: &mut Criterion, opts: &AreaOpts) {
    let (rounds, payload) = if opts.smoke { (50, 1024) } else { (400, 8192) };
    let mut g = c.benchmark_group("exchange/loopback");
    tune(&mut g, opts);
    // Both directions move `payload` messages per round.
    g.throughput(Throughput::Elements((rounds * payload * 2) as u64));
    for (name, framed) in [("unframed", false), ("framed", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &framed, |b, &framed| {
            b.iter(|| loopback_rounds(PcieLink::gen2_x16(), rounds, payload, framed, opts.seed))
        });
    }
    // All-to-all over an N-rank mesh (unframed): rank 0 moves
    // `payload × 2 × (N-1)` messages per round, so the per-link protocol
    // cost and the mesh fan-out cost read off the same scale.
    for ranks in [2usize, 4] {
        g.throughput(Throughput::Elements(
            (rounds * payload * 2 * (ranks - 1)) as u64,
        ));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("mesh-n{ranks}")),
            &ranks,
            |b, &ranks| {
                b.iter(|| {
                    loopback_all_to_all(
                        PcieLink::gen2_x16(),
                        ranks,
                        rounds,
                        payload,
                        false,
                        opts.seed,
                    )
                })
            },
        );
    }
    g.finish();
}

/// The integrity switch on the recovering driver: the same SSSP run at
/// `off`, `frames`, and `full`. `off` must track the PR 5 zero-overhead
/// contract (one relaxed load per insert batch); `full` buys the message/
/// state-digest lattice.
fn bench_integrity(c: &mut Criterion, opts: &AreaOpts) {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
    let graph = workloads::pokec_like_weighted(scale, opts.seed);
    let spec = DeviceSpec::xeon_e5_2680();
    let base = EngineConfig::locking();
    let work = superstep_work(&Sssp { source: 0 }, &graph, spec.clone(), &base);
    let mut g = c.benchmark_group("integrity");
    tune(&mut g, opts);
    g.throughput(Throughput::Elements(work.total_msgs));
    for mode in [
        IntegrityMode::Off,
        IntegrityMode::Frames,
        IntegrityMode::Full,
    ] {
        let config = base.clone().with_integrity(mode);
        g.bench_with_input(
            BenchmarkId::from_parameter(mode.name()),
            &config,
            |b, config| {
                b.iter(|| {
                    let mut store = MemStore::new();
                    run_recoverable(
                        &Sssp { source: 0 },
                        &graph,
                        spec.clone(),
                        config,
                        &mut store,
                        false,
                    )
                })
            },
        );
    }
    g.finish();
}

/// The three §IV.E device-partitioning schemes on the seeded pokec-like
/// graph: what a driver pays to produce a `DevicePartition` before any
/// superstep runs. Elements are vertices assigned per call.
fn bench_partition(c: &mut Criterion, opts: &AreaOpts) {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
    let graph = workloads::pokec_like(scale, opts.seed);
    let blocks = if opts.smoke { 32 } else { 256 };
    let mut g = c.benchmark_group("partition/schemes");
    tune(&mut g, opts);
    g.throughput(Throughput::Elements(graph.num_vertices() as u64));
    for (name, scheme) in [
        ("continuous", PartitionScheme::Continuous),
        ("round-robin", PartitionScheme::RoundRobin),
        ("hybrid", PartitionScheme::Hybrid { blocks }),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &scheme, |b, &scheme| {
            b.iter(|| partition(&graph, scheme, Ratio::new(7, 3), opts.seed))
        });
    }
    g.finish();
}

/// The object-message path: a full semi-clustering run per engine mode.
/// Its merge/sort reduction is branch-heavy code the SIMD lanes never
/// touch, so it moves independently of the `superstep` area. Elements are
/// vertex-iterations (vertices × superstep cap) — deterministic for a
/// fixed input.
fn bench_objmsg(c: &mut Criterion, opts: &AreaOpts) {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
    let graph = workloads::pokec_like(scale, opts.seed);
    let spec = DeviceSpec::xeon_e5_2680();
    let iterations = if opts.smoke { 3 } else { 6 };
    let sc = SemiClustering {
        iterations,
        ..Default::default()
    };
    let mut g = c.benchmark_group("objmsg/semicluster");
    tune(&mut g, opts);
    g.throughput(Throughput::Elements(
        (graph.num_vertices() * iterations) as u64,
    ));
    for (name, config) in [
        ("lock", EngineConfig::locking()),
        ("flat", EngineConfig::flat()),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| run_obj_single(&sc, &graph, spec.clone(), config))
        });
    }
    g.finish();
}

/// The serving pool end to end: submit a fixed batch of BFS jobs spread
/// across 1, 4, and 16 tenants and wait for every result, so the mean
/// iteration time reads directly as jobs/second through admission,
/// stride scheduling, and the worker pool. One pool (and one graph load)
/// per tenant count, reused across iterations — matching the daemon's
/// load-once contract.
fn bench_serve(c: &mut Criterion, opts: &AreaOpts) {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
    let graph = Arc::new(workloads::pokec_like_weighted(scale, opts.seed));
    let jobs_per_iter: usize = if opts.smoke { 8 } else { 32 };
    let mut g = c.benchmark_group("serve/jobs");
    tune(&mut g, opts);
    g.throughput(Throughput::Elements(jobs_per_iter as u64));
    for tenants in [1usize, 4, 16] {
        let cfg = ServeConfig {
            workers: 2,
            // Must exceed the in-flight batch so admission never rejects.
            queue_cap: jobs_per_iter.max(64),
            ..ServeConfig::default()
        };
        let (pool, rx) = ServePool::new(Arc::clone(&graph), cfg);
        g.bench_with_input(
            BenchmarkId::from_parameter(tenants),
            &tenants,
            |b, &tenants| {
                b.iter(|| {
                    for i in 0..jobs_per_iter {
                        let spec = JobSpec {
                            id: format!("j{i}"),
                            tenant: format!("t{}", i % tenants),
                            kind: JobKind::Bfs {
                                source: (i % 7) as u32,
                            },
                            mode: ExecMode::Locking,
                            deadline_ms: None,
                            integrity: None,
                            replay: false,
                            conn: 0,
                        };
                        pool.submit(spec).expect("bench job admitted");
                    }
                    for _ in 0..jobs_per_iter {
                        rx.recv().expect("bench job result");
                    }
                })
            },
        );
        drop(pool);
    }
    g.finish();
}

/// The serving pool held *at overload*: every iteration pushes twice the
/// admission capacity through three unevenly weighted tenants, so the
/// shed ladder, the circuit breakers, and (in the `+journal` variant)
/// the journal appends all sit on the measured path. Throughput counts
/// *submissions* — admitted or shed — so the number reads as sustained
/// intake under pressure, which is exactly what degrades if the
/// admission ladder gets slower.
fn bench_serve_degraded(c: &mut Criterion, opts: &AreaOpts) {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
    let graph = Arc::new(workloads::pokec_like_weighted(scale, opts.seed));
    let queue_cap: usize = if opts.smoke { 8 } else { 16 };
    let submissions = queue_cap * 2; // the chaos harness's overload factor
    let mut g = c.benchmark_group("serve_degraded/overload");
    tune(&mut g, opts);
    g.throughput(Throughput::Elements(submissions as u64));
    let journal_dir = std::env::temp_dir().join(format!(
        "phigraph-bench-serve-degraded-{}",
        std::process::id()
    ));
    for (label, shed, journalled) in [
        ("off", ShedPolicy::Off, false),
        ("ladder", ShedPolicy::Ladder, false),
        ("ladder+journal", ShedPolicy::Ladder, true),
    ] {
        let journal = if journalled {
            let (j, _) = Journal::open(&journal_dir, ExecMode::Locking).expect("bench journal");
            Some(Arc::new(j))
        } else {
            None
        };
        let cfg = ServeConfig {
            workers: 2,
            queue_cap,
            shed,
            journal,
            ..ServeConfig::default()
        };
        let (pool, rx) = ServePool::new(Arc::clone(&graph), cfg);
        for (tenant, weight, cap) in [("gold", 4u64, 4usize), ("silver", 2, 2), ("bronze", 1, 2)] {
            pool.set_tenant(tenant, weight, cap);
        }
        g.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            b.iter(|| {
                let mut accepted = 0usize;
                for i in 0..submissions {
                    let tenant = ["gold", "silver", "bronze"][i % 3];
                    let spec = JobSpec {
                        id: format!("d{i}"),
                        tenant: tenant.to_string(),
                        kind: JobKind::Bfs {
                            source: (i % 7) as u32,
                        },
                        mode: ExecMode::Locking,
                        deadline_ms: None,
                        integrity: None,
                        replay: false,
                        conn: 0,
                    };
                    if pool.submit(spec).is_ok() {
                        accepted += 1;
                    }
                }
                // Drain so the next iteration starts from an empty queue.
                for _ in 0..accepted {
                    rx.recv().expect("bench job result");
                }
            })
        });
        drop(pool);
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
    g.finish();
}

/// Observability overhead on the serving hot path: the same fixed BFS
/// batch as `serve` (4 tenants), measured three ways —
///
/// - `off`: no trace, no sink — the PR 4 zero-cost baseline;
/// - `windows`: phase-level histograms plus a live [`MetricsHub`]
///   sampled at 1 Hz by a background thread, exactly the daemon's
///   steady-state scrape plane;
/// - `windows+events`: the above plus an armed [`EventSink`] writing
///   per-job admit/start/done JSONL — every hot-path hook live.
///
/// The acceptance pin (windows ≤ 2% over off) is documented by the
/// committed full-run `BENCH_obs.json`; the compare gate holds the
/// trajectory.
fn bench_obs(c: &mut Criterion, opts: &AreaOpts) {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
    let graph = Arc::new(workloads::pokec_like_weighted(scale, opts.seed));
    let jobs_per_iter: usize = if opts.smoke { 8 } else { 32 };
    let tenants = 4usize;
    let events_path =
        std::env::temp_dir().join(format!("phigraph-bench-obs-{}.jsonl", std::process::id()));
    let mut g = c.benchmark_group("obs/serve");
    tune(&mut g, opts);
    g.throughput(Throughput::Elements(jobs_per_iter as u64));
    for label in ["off", "windows", "windows+events"] {
        let trace = (label != "off").then(|| Trace::new(TraceLevel::Phase));
        let events = (label == "windows+events").then(|| {
            EventSink::with_file(&events_path.display().to_string()).expect("bench event log")
        });
        let cfg = ServeConfig {
            workers: 2,
            queue_cap: jobs_per_iter.max(64),
            trace: trace.clone(),
            events,
            ..ServeConfig::default()
        };
        let (pool, rx) = ServePool::new(Arc::clone(&graph), cfg);
        // The daemon's 1 Hz sampler, concurrent with the measured loop:
        // windows maintenance must contend with hot-path recording, not
        // run in a vacuum.
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = trace.clone().map(|trace| {
            let hub = MetricsHub::new();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    hub.sample(Default::default(), trace.snapshot().hists);
                    for _ in 0..10 {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                }
            })
        });
        g.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            b.iter(|| {
                for i in 0..jobs_per_iter {
                    let spec = JobSpec {
                        id: format!("o{i}"),
                        tenant: format!("t{}", i % tenants),
                        kind: JobKind::Bfs {
                            source: (i % 7) as u32,
                        },
                        mode: ExecMode::Locking,
                        deadline_ms: None,
                        integrity: None,
                        replay: false,
                        conn: 0,
                    };
                    pool.submit(spec).expect("bench job admitted");
                }
                for _ in 0..jobs_per_iter {
                    rx.recv().expect("bench job result");
                }
            })
        });
        stop.store(true, Ordering::Release);
        if let Some(h) = sampler {
            let _ = h.join();
        }
        drop(pool);
    }
    let _ = std::fs::remove_file(&events_path);
    g.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::AREAS;

    #[test]
    fn every_declared_area_runs_in_smoke_mode() {
        // One timed sample per bench keeps this a seconds-scale test while
        // still driving every area end to end.
        let opts = AreaOpts {
            smoke: true,
            seed: 7,
            samples: Some(1),
            warmup: Some(0),
        };
        for area in AREAS {
            let mut c = Criterion::default();
            run_area(area, &mut c, &opts).expect(area);
            assert!(!c.results().is_empty(), "area {area} produced no results");
            for r in c.results() {
                assert!(
                    r.label.starts_with(area),
                    "label {:?} not under area {area}",
                    r.label
                );
            }
        }
    }

    #[test]
    fn unknown_area_is_rejected_with_the_valid_list() {
        let mut c = Criterion::default();
        let err = run_area("warp-drive", &mut c, &AreaOpts::default()).unwrap_err();
        assert!(err.contains("superstep"), "{err}");
    }
}
