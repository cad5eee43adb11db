//! Survivability tests for the serving stack: the kill-at-every-job-
//! boundary journal replay sweep (restarted pools must re-emit and
//! re-run to bit-identical checksums), drain-mode requeueing, hot graph
//! swap under live traffic, and a seeded byte-smear fuzz over the
//! bounded protocol reader.

use std::collections::HashMap;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use phigraph_apps::workloads::{pokec_like_weighted, Scale};
use phigraph_apps::{Bfs, PageRank, Sssp, Wcc};
use phigraph_core::engine::{run_single, EngineConfig, ExecMode};
use phigraph_device::DeviceSpec;
use phigraph_graph::{Csr, SplitMix64};
use phigraph_serve::job::{
    job_request_line, parse_request, read_bounded_line, LineRead, MAX_LINE_BYTES,
};
use phigraph_serve::{
    values_checksum, DrainMode, JobKind, JobSpec, JobStatus, Journal, ServeConfig, ServePool,
};

fn graph(seed: u64) -> Arc<Csr> {
    Arc::new(pokec_like_weighted(Scale::Tiny, seed))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "phigraph-survivability-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(id: &str, tenant: &str, kind: JobKind) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        tenant: tenant.to_string(),
        kind,
        mode: ExecMode::Sequential,
        deadline_ms: None,
        conn: 0,
        integrity: None,
        replay: false,
    }
}

/// The checksum a one-shot sequential run would produce for `kind`.
fn direct_checksum(g: &Csr, kind: &JobKind) -> u64 {
    let config = EngineConfig::sequential();
    let dev = DeviceSpec::xeon_e5_2680();
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
                dev,
                &config,
            )
            .values,
        ),
        JobKind::Bfs { source } => {
            values_checksum(&run_single(&Bfs { source: *source }, g, dev, &config).values)
        }
        JobKind::Sssp { sources } => {
            assert_eq!(sources.len(), 1, "helper covers single-source only");
            values_checksum(&run_single(&Sssp { source: sources[0] }, g, dev, &config).values)
        }
        JobKind::Wcc => values_checksum(&run_single(&Wcc::new(g), g, dev, &config).values),
        other => panic!("helper does not cover {other:?}"),
    }
}

/// The job batch every kill-sweep incarnation runs.
fn sweep_jobs() -> Vec<(String, JobKind)> {
    vec![
        ("k0".into(), JobKind::Bfs { source: 0 }),
        ("k1".into(), JobKind::Wcc),
        ("k2".into(), JobKind::Sssp { sources: vec![3] }),
        (
            "k3".into(),
            JobKind::PageRank {
                damping: 0.85,
                iterations: 5,
            },
        ),
        ("k4".into(), JobKind::Bfs { source: 7 }),
        ("k5".into(), JobKind::Sssp { sources: vec![1] }),
    ]
}

fn pool_config(journal: Arc<Journal>) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 16,
        mode: ExecMode::Sequential,
        journal: Some(journal),
        ..ServeConfig::default()
    }
}

/// Kill-at-every-job-boundary sweep: submit the whole batch, abort the
/// pool after exactly `k` results for every `k`, then restart against
/// the same journal. Whatever the first incarnation finished must come
/// back from the journal bit-identically, and everything else must
/// replay to the same checksum a one-shot run produces. No job may be
/// lost or acquire a second, different outcome.
#[test]
fn kill_at_every_job_boundary_replays_bit_identically() {
    let g = graph(11);
    let jobs = sweep_jobs();
    let expected: HashMap<String, u64> = jobs
        .iter()
        .map(|(id, kind)| (id.clone(), direct_checksum(&g, kind)))
        .collect();

    for kill_at in 0..=jobs.len() {
        let dir = temp_dir(&format!("killsweep{kill_at}"));

        // Incarnation 1: admit everything, then die after `kill_at`
        // results (an Abort shutdown is a kill from the journal's view:
        // unfinished jobs never get a `done` record).
        let (journal, recovery) = Journal::open(&dir, ExecMode::Sequential).unwrap();
        assert!(recovery.incomplete.is_empty() && recovery.completed.is_empty());
        let (mut pool, rx) = ServePool::new(Arc::clone(&g), pool_config(Arc::new(journal)));
        for (id, kind) in &jobs {
            pool.submit(spec(id, "t", kind.clone())).unwrap();
        }
        let mut first_run: HashMap<String, u64> = HashMap::new();
        for _ in 0..kill_at {
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, JobStatus::Ok);
            first_run.insert(r.id, r.checksum);
        }
        pool.shutdown(false); // abort ≈ kill -9
        drop(pool);
        // Results that raced past the kill point are fine — they have
        // `done` records, so they simply show up in `completed` below.
        for r in rx.try_iter() {
            if r.status == JobStatus::Ok {
                first_run.insert(r.id, r.checksum);
            }
        }

        // Incarnation 2: recover, verify the re-emitted results, replay
        // the incomplete remainder.
        let (journal, recovery) = Journal::open(&dir, ExecMode::Sequential).unwrap();
        assert_eq!(recovery.dropped, 0, "clean shutdowns leave no torn tail");
        let journal = Arc::new(journal);
        let mut outcomes: HashMap<String, u64> = HashMap::new();
        for r in &recovery.completed {
            assert_eq!(r.status, JobStatus::Ok);
            assert_eq!(
                r.checksum, expected[&r.id],
                "journalled result for {} must be bit-identical (kill_at={kill_at})",
                r.id
            );
            assert!(
                outcomes.insert(r.id.clone(), r.checksum).is_none(),
                "journal re-emitted {} twice",
                r.id
            );
        }
        for (id, sum) in &first_run {
            assert_eq!(
                outcomes.get(id),
                Some(sum),
                "result {id} delivered before the kill must survive in the journal"
            );
        }
        journal.compact(&recovery.incomplete).unwrap();

        let (mut pool, rx) = ServePool::new(Arc::clone(&g), pool_config(Arc::clone(&journal)));
        let n_replay = recovery.incomplete.len();
        assert_eq!(
            n_replay,
            jobs.len() - outcomes.len(),
            "completed + incomplete must partition the batch (kill_at={kill_at})"
        );
        for spec in recovery.incomplete {
            assert!(spec.replay, "recovered specs carry the replay tag");
            pool.submit(spec).unwrap();
        }
        for _ in 0..n_replay {
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, JobStatus::Ok);
            assert!(r.replayed, "replayed results are tagged");
            assert_eq!(
                r.checksum, expected[&r.id],
                "replayed {} must match the one-shot checksum (kill_at={kill_at})",
                r.id
            );
            assert!(
                outcomes.insert(r.id.clone(), r.checksum).is_none(),
                "{} got two terminal outcomes (kill_at={kill_at})",
                r.id
            );
        }
        pool.shutdown(true);
        assert_eq!(
            outcomes.len(),
            jobs.len(),
            "no job lost (kill_at={kill_at})"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `--drain` semantics: a Requeue shutdown finishes the running job,
/// reports the queued ones `requeued`, and leaves them incomplete in
/// the journal so the next incarnation replays them to the same
/// checksums.
#[test]
fn drain_shutdown_requeues_queued_jobs_for_the_next_incarnation() {
    let g = graph(11);
    let dir = temp_dir("drain");
    let (journal, _) = Journal::open(&dir, ExecMode::Sequential).unwrap();
    let (mut pool, rx) = ServePool::new(Arc::clone(&g), pool_config(Arc::new(journal)));

    // One slow job to occupy the single worker, then a queued tail.
    pool.submit(spec(
        "slow",
        "t",
        JobKind::PageRank {
            damping: 0.85,
            iterations: 40,
        },
    ))
    .unwrap();
    // Wait until the worker has actually picked it up — shutting down
    // before then would (legitimately) requeue all four jobs, but this
    // test is about the finish-the-running-job half of the contract. A
    // release build can run the job between two polls, so a finished job
    // counts as picked up too.
    let t0 = Instant::now();
    loop {
        let stats = pool.stats();
        if stats.running > 0 || stats.completed() > 0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let tail = ["d1", "d2", "d3"];
    for id in tail {
        pool.submit(spec(id, "t", JobKind::Wcc)).unwrap();
    }
    pool.shutdown_mode(DrainMode::Requeue);

    let mut requeued = 0;
    let mut finished = 0;
    for r in rx.iter() {
        match r.status {
            JobStatus::Requeued => requeued += 1,
            JobStatus::Ok => finished += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(finished >= 1, "the running job must finish");
    assert_eq!(finished + requeued, 1 + tail.len());

    let (journal, recovery) = Journal::open(&dir, ExecMode::Sequential).unwrap();
    assert_eq!(
        recovery.incomplete.len(),
        requeued,
        "every requeued job stays incomplete in the journal"
    );
    let (mut pool, rx) = ServePool::new(Arc::clone(&g), pool_config(Arc::new(journal)));
    let n = recovery.incomplete.len();
    for spec in recovery.incomplete {
        let expect = direct_checksum(&g, &spec.kind);
        let id = spec.id.clone();
        pool.submit(spec).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(r.id, id);
        assert_eq!(r.status, JobStatus::Ok);
        assert_eq!(r.checksum, expect);
    }
    assert!(n > 0);
    pool.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hot swap under live traffic: queries keep flowing while `reload`
/// replaces the shared CSR. Every submitted job must come back `ok`,
/// checksummed against whichever graph epoch it actually executed on.
#[test]
fn hot_swap_mid_traffic_drops_no_queries() {
    let g1 = graph(11);
    let g2 = graph(12);
    let (mut pool, rx) = ServePool::new(
        Arc::clone(&g1),
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            default_cap: 4,
            mode: ExecMode::Sequential,
            ..ServeConfig::default()
        },
    );
    assert_eq!(pool.graph_epoch(), 1);

    let kinds = [
        JobKind::Bfs { source: 2 },
        JobKind::Wcc,
        JobKind::Sssp { sources: vec![5] },
    ];
    let mut submitted = 0;
    for (i, kind) in kinds.iter().cycle().take(12).enumerate() {
        pool.submit(spec(&format!("pre{i}"), "t", kind.clone()))
            .unwrap();
        submitted += 1;
    }
    let (epoch, v, e) = pool.reload((*g2).clone());
    assert_eq!(epoch, 2);
    assert_eq!((v, e), (g2.num_vertices(), g2.num_edges()));
    for (i, kind) in kinds.iter().cycle().take(12).enumerate() {
        pool.submit(spec(&format!("post{i}"), "t", kind.clone()))
            .unwrap();
        submitted += 1;
    }
    pool.shutdown(true);

    let results: Vec<_> = rx.iter().collect();
    assert_eq!(results.len(), submitted, "zero dropped queries");
    let mut on_new = 0;
    for r in results {
        assert_eq!(
            r.status,
            JobStatus::Ok,
            "job {} did not survive the swap",
            r.id
        );
        let kind = &kinds[r
            .id
            .trim_start_matches("pre")
            .trim_start_matches("post")
            .parse::<usize>()
            .unwrap()
            % kinds.len()];
        let expect = match r.epoch {
            1 => direct_checksum(&g1, kind),
            2 => {
                on_new += 1;
                direct_checksum(&g2, kind)
            }
            other => panic!("job {} ran on impossible epoch {other}", r.id),
        };
        assert_eq!(
            r.checksum, expect,
            "job {} (epoch {}) checksum mismatch",
            r.id, r.epoch
        );
    }
    // Everything submitted after the swap binds the new graph; some of
    // the earlier queue usually does too, but that part is timing.
    assert!(on_new >= 12, "post-swap jobs must run on the new epoch");
}

/// Seeded byte-smear fuzz over the bounded reader + parser: corrupted
/// request lines must never panic and must either parse or produce a
/// non-empty typed error; the stream stays usable afterwards.
#[test]
fn byte_smear_fuzz_over_the_line_reader_is_panic_free() {
    let mut rng = SplitMix64::seed_from_u64(0xfeed);
    let base = job_request_line(&spec(
        "fz",
        "t",
        JobKind::Sssp {
            sources: vec![0, 4, 9],
        },
    ));
    let mut parsed_ok = 0usize;
    let mut typed_err = 0usize;
    for _ in 0..600 {
        let mut bytes = base.clone().into_bytes();
        let smears = 1 + rng.random_range(0..4usize);
        for _ in 0..smears {
            let at = rng.random_range(0..bytes.len());
            bytes[at] = (rng.next_u64() & 0xff) as u8;
        }
        // Never smear in a newline terminator — one line per read.
        for b in &mut bytes {
            if *b == b'\n' || *b == b'\r' {
                *b = b'x';
            }
        }
        bytes.push(b'\n');
        let tail = b"{\"op\":\"stats\"}\n";
        bytes.extend_from_slice(tail);

        let mut cursor = Cursor::new(bytes);
        match read_bounded_line(&mut cursor).unwrap() {
            LineRead::Line(line) => match parse_request(&line, ExecMode::Sequential, 0) {
                Ok(_) => parsed_ok += 1,
                Err(e) => {
                    assert!(!e.is_empty(), "errors must be descriptive");
                    typed_err += 1;
                }
            },
            LineRead::BadUtf8 => typed_err += 1,
            other => panic!("unexpected read {other:?}"),
        }
        // The smeared line must not poison the stream: the next line
        // still reads and parses.
        match read_bounded_line(&mut cursor).unwrap() {
            LineRead::Line(line) => {
                parse_request(&line, ExecMode::Sequential, 0).unwrap();
            }
            other => panic!("stream poisoned after smear: {other:?}"),
        }
    }
    assert!(typed_err > 0, "the smear must actually corrupt some lines");
    assert!(parsed_ok + typed_err == 600);
}

/// Oversized lines are skipped with a typed read and the stream stays
/// parseable; the clean request after them still goes through.
#[test]
fn oversized_lines_get_a_typed_read_and_do_not_poison_the_stream() {
    let mut bytes = vec![b'a'; MAX_LINE_BYTES + 4096];
    bytes.push(b'\n');
    bytes.extend_from_slice(b"{\"op\":\"stats\"}\n");
    bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
    let mut cursor = Cursor::new(bytes);
    assert_eq!(read_bounded_line(&mut cursor).unwrap(), LineRead::TooLong);
    match read_bounded_line(&mut cursor).unwrap() {
        LineRead::Line(line) => {
            parse_request(&line, ExecMode::Sequential, 0).unwrap();
        }
        other => panic!("expected the stats line, got {other:?}"),
    }
    assert_eq!(read_bounded_line(&mut cursor).unwrap(), LineRead::BadUtf8);
    assert_eq!(read_bounded_line(&mut cursor).unwrap(), LineRead::Eof);
}
