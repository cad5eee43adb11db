//! End-to-end serving-pool tests: concurrent multi-tenant correctness
//! (bit-identity against one-shot runs), racing admission against a
//! small budget, per-tenant cap enforcement, deadline cancellation
//! mid-run, and a seeded many-tenant stress run proving no tenant starves.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use phigraph_apps::workloads::{pokec_like_weighted, Scale};
use phigraph_apps::{Bfs, PageRank, PersonalizedPageRank, Sssp, Wcc};
use phigraph_core::engine::{run_single, EngineConfig, ExecMode};
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;
use phigraph_serve::{
    values_checksum, AdmitError, EventSink, JobKind, JobResult, JobSpec, JobStatus, ServeConfig,
    ServePool, ShedPolicy,
};
use phigraph_trace::json::Json;

fn graph() -> Arc<Csr> {
    Arc::new(pokec_like_weighted(Scale::Tiny, 11))
}

fn spec(id: &str, tenant: &str, kind: JobKind, mode: ExecMode) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        tenant: tenant.to_string(),
        kind,
        mode,
        deadline_ms: None,
        conn: 0,
        integrity: None,
        replay: false,
    }
}

/// The checksum a one-shot `phigraph run --checksum` would print for the
/// same app/engine pair.
fn direct_checksum(g: &Csr, kind: &JobKind, mode: ExecMode) -> u64 {
    let config = match mode {
        ExecMode::Locking => EngineConfig::locking(),
        ExecMode::Pipelined => EngineConfig::pipelined(),
        ExecMode::Flat => EngineConfig::flat(),
        ExecMode::Sequential => EngineConfig::sequential(),
    };
    let spec = DeviceSpec::xeon_e5_2680();
    match kind {
        JobKind::PageRank {
            damping,
            iterations,
        } => values_checksum(
            &run_single(
                &PageRank {
                    damping: *damping,
                    iterations: *iterations,
                },
                g,
                spec,
                &config,
            )
            .values,
        ),
        JobKind::Ppr {
            source,
            damping,
            iterations,
        } => values_checksum(
            &run_single(
                &PersonalizedPageRank {
                    source: *source,
                    damping: *damping,
                    iterations: *iterations,
                },
                g,
                spec,
                &config,
            )
            .values,
        ),
        JobKind::Bfs { source } => {
            values_checksum(&run_single(&Bfs { source: *source }, g, spec, &config).values)
        }
        JobKind::Sssp { sources } => {
            assert_eq!(sources.len(), 1, "helper covers single-source only");
            values_checksum(&run_single(&Sssp { source: sources[0] }, g, spec, &config).values)
        }
        JobKind::Wcc => values_checksum(&run_single(&Wcc::new(g), g, spec, &config).values),
    }
}

/// ≥ 16 tenants submit concurrently over one shared CSR; every result's
/// checksum must equal the one-shot run of the same app with the same
/// engine config.
#[test]
fn sixteen_concurrent_tenants_bit_identical_to_one_shot_runs() {
    let g = graph();
    let (mut pool, rx) = ServePool::new(
        Arc::clone(&g),
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            default_cap: 4,
            ..ServeConfig::default()
        },
    );
    let mut expected: HashMap<String, u64> = HashMap::new();
    for t in 0..16u32 {
        let tenant = format!("tenant{t}");
        let (kind, mode) = match t % 4 {
            0 => (
                JobKind::Bfs {
                    source: t % g.num_vertices() as u32,
                },
                ExecMode::Locking,
            ),
            1 => (
                JobKind::Sssp {
                    sources: vec![(t * 3) % g.num_vertices() as u32],
                },
                ExecMode::Pipelined,
            ),
            2 => (
                JobKind::Ppr {
                    source: (t * 7) % g.num_vertices() as u32,
                    damping: 0.85,
                    iterations: 10,
                },
                ExecMode::Locking,
            ),
            _ => (JobKind::Wcc, ExecMode::Sequential),
        };
        let id = format!("job{t}");
        expected.insert(id.clone(), direct_checksum(&g, &kind, mode));
        pool.submit(spec(&id, &tenant, kind, mode)).unwrap();
    }
    let mut done = 0;
    while done < 16 {
        let r = rx.recv_timeout(Duration::from_secs(120)).expect("result");
        assert_eq!(r.status, JobStatus::Ok, "{r:?}");
        assert_eq!(
            r.checksum, expected[&r.id],
            "{}: serving checksum diverged from the one-shot run",
            r.id
        );
        done += 1;
    }
    let stats = pool.stats();
    assert_eq!(stats.tenants.len(), 16);
    assert!(stats.tenants.values().all(|t| t.completed == 1));
    pool.shutdown(true);
}

/// Four submitter threads race `submit` against an 8-job admission
/// budget and 2 workers. Every accepted job runs exactly once with the
/// one-shot checksum, no refused job runs, the accounting adds up, and
/// each tenant starts one submitter's jobs in the order it submitted them.
#[test]
fn racing_submitters_get_each_accepted_job_run_once_in_order() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 12;
    const TENANTS: usize = 3;
    let g = graph();
    let n = g.num_vertices();
    let sink = EventSink::new();
    let (mut pool, rx) = ServePool::new(
        Arc::clone(&g),
        ServeConfig {
            workers: 2,
            queue_cap: 8,
            // One running job per tenant: its `start` events then come in
            // the order the scheduler picked its jobs.
            default_cap: 1,
            shed: ShedPolicy::Off,
            events: Some(sink.clone()),
            ..ServeConfig::default()
        },
    );
    // Submitter `k`'s job `i`: id, tenant and kind.
    let job = |k: usize, i: usize| {
        let kind = match i % 3 {
            0 => JobKind::Bfs {
                source: ((k * 31 + i) % n) as u32,
            },
            1 => JobKind::Sssp {
                sources: vec![((k * 17 + i * 5) % n) as u32],
            },
            _ => JobKind::PageRank {
                damping: 0.85,
                iterations: 3,
            },
        };
        (
            format!("s{k}-j{i}"),
            format!("t{}", (k + i) % TENANTS),
            kind,
        )
    };
    let accepted: Vec<Vec<bool>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|k| {
                let (pool, job) = (&pool, &job);
                s.spawn(move || {
                    (0..PER_SUBMITTER)
                        .map(|i| {
                            let (id, tenant, kind) = job(k, i);
                            match pool.submit(spec(&id, &tenant, kind, ExecMode::Sequential)) {
                                Ok(()) => true,
                                Err(AdmitError::QueueFull { .. }) => false,
                                Err(e) => panic!("{id}: unexpected {e:?}"),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total = accepted.iter().flatten().filter(|&&a| a).count();
    assert!(
        total < SUBMITTERS * PER_SUBMITTER,
        "no submission was refused"
    );
    let mut results: HashMap<String, JobResult> = HashMap::new();
    for _ in 0..total {
        let r = rx.recv_timeout(Duration::from_secs(60)).expect("result");
        assert_eq!(r.status, JobStatus::Ok, "{r:?}");
        let id = r.id.clone();
        assert!(results.insert(id.clone(), r).is_none(), "{id} ran twice");
    }
    assert_eq!(pool.backlog(), 0);
    let stats = pool.stats();
    let mut submissions = [0u64; TENANTS];
    for (k, flags) in accepted.iter().enumerate() {
        for (i, &ok) in flags.iter().enumerate() {
            let (id, _, kind) = job(k, i);
            submissions[(k + i) % TENANTS] += 1;
            match results.get(&id) {
                Some(r) => {
                    assert!(ok, "refused {id} ran");
                    assert_eq!(
                        r.checksum,
                        direct_checksum(&g, &kind, ExecMode::Sequential),
                        "{id}: serving checksum diverged from the one-shot run"
                    );
                }
                None => assert!(!ok, "accepted {id} never ran"),
            }
        }
    }
    for (t, &subs) in submissions.iter().enumerate() {
        let ts = &stats.tenants[&format!("t{t}")];
        assert_eq!(ts.completed + ts.rejected, subs, "t{t}: {ts:?}");
    }
    // Per tenant, one submitter's jobs start in submission order.
    let mut last: HashMap<(String, usize), usize> = HashMap::new();
    let mut starts = 0;
    for line in sink.recent() {
        let ev = Json::parse(&line).unwrap();
        if ev.get("ev").and_then(|v| v.as_str()) != Some("start") {
            continue;
        }
        starts += 1;
        let id = ev.get("id").and_then(|v| v.as_str()).unwrap();
        let tenant = ev.get("tenant").and_then(|v| v.as_str()).unwrap();
        let (k, i) = id[1..].split_once("-j").unwrap();
        let (k, i): (usize, usize) = (k.parse().unwrap(), i.parse().unwrap());
        if let Some(prev) = last.insert((tenant.to_string(), k), i) {
            assert!(prev < i, "{tenant}: s{k}-j{prev} started after {id}");
        }
    }
    assert_eq!(starts, total);
    pool.shutdown(true);
    assert_eq!(rx.iter().count(), 0, "a result arrived after the last one");
}

/// A tenant with cap 1 never has two jobs on workers at once, no matter
/// how many workers are free.
#[test]
fn per_tenant_cap_is_never_exceeded() {
    let g = graph();
    let (mut pool, rx) = ServePool::new(
        Arc::clone(&g),
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            ..ServeConfig::default()
        },
    );
    pool.set_tenant("capped", 8, 1);
    let kind = JobKind::PageRank {
        damping: 0.85,
        iterations: 40,
    };
    for i in 0..6 {
        pool.submit(spec(
            &format!("c{i}"),
            "capped",
            kind.clone(),
            ExecMode::Sequential,
        ))
        .unwrap();
    }
    // Poll the running gauge while the jobs drain: it must never exceed
    // the cap (observing ≤ cap is guaranteed for a correct scheduler, so
    // this cannot flake into a false failure).
    let mut max_running = 0;
    let mut done = 0;
    let deadline = Instant::now() + Duration::from_secs(120);
    while done < 6 {
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(r) => {
                assert_eq!(r.status, JobStatus::Ok, "{r:?}");
                done += 1;
            }
            Err(_) => {
                let s = pool.stats();
                max_running = max_running.max(s.tenants["capped"].running);
                assert!(Instant::now() < deadline, "jobs did not finish");
            }
        }
    }
    assert!(
        max_running <= 1,
        "cap 1 exceeded: saw {max_running} running"
    );
    pool.shutdown(true);
}

/// A job whose deadline passes mid-run is cancelled at the next
/// superstep boundary with the `deadline` reason, well short of its
/// requested iteration count.
#[test]
fn deadline_cancels_a_running_job_mid_superstep() {
    let g = graph();
    let (mut pool, rx) = ServePool::new(
        Arc::clone(&g),
        ServeConfig {
            workers: 1,
            watchdog_tick_ms: 2,
            ..ServeConfig::default()
        },
    );
    let iterations = 5_000_000;
    let mut s = spec(
        "doomed",
        "a",
        JobKind::PageRank {
            damping: 0.85,
            iterations,
        },
        ExecMode::Sequential,
    );
    s.deadline_ms = Some(60);
    pool.submit(s).unwrap();
    let r = rx.recv_timeout(Duration::from_secs(60)).expect("result");
    assert_eq!(r.status, JobStatus::Cancelled("deadline"), "{r:?}");
    assert!(
        r.supersteps < iterations as u64,
        "job ran to completion despite the deadline"
    );
    let stats = pool.stats();
    assert_eq!(stats.tenants["a"].cancelled, 1);
    pool.shutdown(true);
}

/// Jobs that would start after their deadline expire in the queue
/// without ever reaching a worker, even when the watchdog's next tick is
/// far off: the worker expires them at pickup.
#[test]
fn queued_jobs_past_deadline_expire_without_running() {
    let g = graph();
    let (mut pool, rx) = ServePool::new(
        Arc::clone(&g),
        ServeConfig {
            workers: 1,
            watchdog_tick_ms: 5_000,
            default_cap: 4,
            ..ServeConfig::default()
        },
    );
    // A long job holds the only worker...
    pool.submit(spec(
        "blocker",
        "a",
        JobKind::PageRank {
            damping: 0.85,
            iterations: 300,
        },
        ExecMode::Sequential,
    ))
    .unwrap();
    // ...so a tight-deadline job behind it expires in the queue.
    let mut tight = spec("tight", "a", JobKind::Wcc, ExecMode::Sequential);
    tight.deadline_ms = Some(1);
    pool.submit(tight).unwrap();
    let mut statuses: HashMap<String, JobStatus> = HashMap::new();
    for _ in 0..2 {
        let r = rx.recv_timeout(Duration::from_secs(120)).expect("result");
        statuses.insert(r.id.clone(), r.status);
    }
    assert_eq!(statuses["tight"], JobStatus::Expired);
    assert_eq!(statuses["blocker"], JobStatus::Ok);
    let stats = pool.stats();
    assert_eq!(stats.tenants["a"].expired, 1);
    pool.shutdown(true);
}

/// Seeded stress: 8 tenants with mixed weights and caps push 40 jobs
/// through 4 workers. Every tenant makes progress — all jobs complete,
/// none starve behind the heavier tenants.
#[test]
fn many_tenant_stress_all_tenants_make_progress() {
    let g = graph();
    let (mut pool, rx) = ServePool::new(
        Arc::clone(&g),
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            ..ServeConfig::default()
        },
    );
    let tenants = 8u32;
    let per_tenant = 5u32;
    for t in 0..tenants {
        pool.set_tenant(&format!("t{t}"), (t as u64 % 4) + 1, (t as usize % 2) + 1);
    }
    // Seeded job mix: the kind cycles deterministically from (t, i).
    for i in 0..per_tenant {
        for t in 0..tenants {
            let kind = match (t + i) % 3 {
                0 => JobKind::Bfs {
                    source: (t * 13 + i) % g.num_vertices() as u32,
                },
                1 => JobKind::Sssp {
                    sources: vec![(t * 29 + i * 7) % g.num_vertices() as u32],
                },
                _ => JobKind::Ppr {
                    source: (t * 5 + i * 3) % g.num_vertices() as u32,
                    damping: 0.85,
                    iterations: 5,
                },
            };
            pool.submit(spec(
                &format!("t{t}-j{i}"),
                &format!("t{t}"),
                kind,
                ExecMode::Locking,
            ))
            .unwrap();
        }
    }
    let total = (tenants * per_tenant) as usize;
    let results: Vec<JobResult> = (0..total)
        .map(|_| rx.recv_timeout(Duration::from_secs(240)).expect("result"))
        .collect();
    assert!(results.iter().all(|r| r.status == JobStatus::Ok));
    let stats = pool.stats();
    for t in 0..tenants {
        let ts = &stats.tenants[&format!("t{t}")];
        assert_eq!(
            ts.completed, per_tenant as u64,
            "tenant t{t} starved: {ts:?}"
        );
        assert_eq!(ts.submitted, per_tenant as u64);
    }
    pool.shutdown(true);
}
