//! Serving: an in-process `ServePool` driven through the job protocol in
//! open-loop segments at a fixed offered rate and closed-loop segments that
//! keep `2 × workers` jobs outstanding.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use phigraph_apps::bfs::UNVISITED;
use phigraph_apps::reference::bfs::bfs_reference;
use phigraph_apps::{Bfs, PageRank, PersonalizedPageRank, Sssp, Wcc};
use phigraph_core::api::VertexProgram;
use phigraph_core::engine::{run_single, EngineConfig, ExecMode};
use phigraph_graph::generators::rng::SplitMix64;
use phigraph_graph::state::PodState;
use phigraph_graph::{Csr, VertexId};
use phigraph_recover::snapshot::fnv1a64;
use phigraph_serve::job::{job_request_line, parse_request};
use phigraph_serve::{
    values_checksum, JobKind, JobResult, JobSpec, JobStatus, Journal, Request, ServeConfig,
    ServePool,
};

use crate::openloop::{Arrival, Schedule};
use crate::spans::Spans;
use crate::stats::percentile;
use crate::steal::{least_stolen, least_stolen_median, Sample, Window, STEAL_MAX};

/// Tenants sharing the pool, all with weight 1.
pub const TENANTS: usize = 4;

/// The five job kinds of the serving protocol, in mix order.
pub const KINDS: [&str; 5] = ["bfs", "sssp", "ppr", "wcc", "pagerank"];

/// Jobs of each kind in [`KINDS`] order per block of 20 jobs: 40% BFS,
/// 25% two-landmark SSSP, 20% PPR, 10% WCC, 5% PageRank. Every block of
/// the stream holds exactly these counts in a seeded order, so the offered
/// work does not drift with the luck of the draw.
pub const MIX: [usize; 5] = [8, 5, 4, 2, 1];

/// Offered open-loop rate, jobs per second: a constant, about a third of
/// what two `seq` workers complete per second on this mix over the
/// weighted graph (~70/s on a 2-core host; ~100/s over the unweighted
/// one), so that queueing does not amplify a slowdown of the host into the
/// tail.
pub const RATE: f64 = 20.0;

/// Distinct sources per kind in the job catalogue: each distinct job is
/// computed directly once, before timing, and every served copy is checked
/// against that checksum.
const CATALOGUE: [usize; 5] = [16, 8, 8, 1, 1];

/// The distinct jobs a phase draws from, with their direct checksums.
pub struct Catalogue {
    /// `(kind index, job)` per entry.
    pub jobs: Vec<(usize, JobKind)>,
    /// Checksum of a direct `run_single` of each entry, same order.
    pub checksums: Vec<u64>,
    /// Entry indices per kind.
    by_kind: [Vec<usize>; 5],
}

fn checksum_of<P: VertexProgram>(p: &P, g: &Csr) -> u64
where
    P::Value: PodState,
{
    let spec = ServeConfig::default().device;
    values_checksum(&run_single(p, g, spec, &EngineConfig::sequential()).values)
}

/// What a `seq`-mode pool job computes, run directly: the same app, the
/// same engine, and the same fold of per-source checksums for a landmark
/// batch.
pub fn direct_checksum(g: &Csr, kind: &JobKind) -> u64 {
    match kind {
        JobKind::PageRank {
            damping,
            iterations,
        } => checksum_of(
            &PageRank {
                damping: *damping,
                iterations: *iterations,
            },
            g,
        ),
        JobKind::Ppr {
            source,
            damping,
            iterations,
        } => checksum_of(
            &PersonalizedPageRank {
                source: *source,
                damping: *damping,
                iterations: *iterations,
            },
            g,
        ),
        JobKind::Bfs { source } => checksum_of(&Bfs { source: *source }, g),
        JobKind::Sssp { sources } if sources.len() == 1 => {
            checksum_of(&Sssp { source: sources[0] }, g)
        }
        JobKind::Sssp { sources } => {
            let folded: Vec<u8> = sources
                .iter()
                .flat_map(|&s| checksum_of(&Sssp { source: s }, g).to_le_bytes())
                .collect();
            fnv1a64(&folded)
        }
        JobKind::Wcc => checksum_of(&Wcc::new(g), g),
    }
}

/// `count` distinct seeded vertices with out-degree > 0 whose traversal
/// reaches at least a quarter of the graph. On the pokec-like inputs almost
/// every vertex with out-edges reaches the same giant set (~35K of 65K
/// vertices); the rare dead end, whose few out-neighbours lead nowhere,
/// would make its solve trivial and swing a solve set's work by a third
/// from one seed to the next.
pub fn sources(g: &Csr, seed: u64, count: usize) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out: Vec<VertexId> = Vec::with_capacity(count);
    for _ in 0..(1000 + 100 * count) {
        if out.len() == count {
            return out;
        }
        let v = rng.random_range(0..n as u32);
        if g.out_degree(v) == 0 || out.contains(&v) {
            continue;
        }
        let reached = bfs_reference(g, v)
            .iter()
            .filter(|&&l| l != UNVISITED)
            .count();
        if 4 * reached >= n {
            out.push(v);
        }
    }
    panic!("too few vertices of the input reach a quarter of it");
}

impl Catalogue {
    /// Build the catalogue for `g` and compute every direct checksum.
    pub fn build(g: &Csr, seed: u64) -> Self {
        let src = sources(
            g,
            seed ^ 0x5E47_E000,
            CATALOGUE[0] + 2 * CATALOGUE[1] + CATALOGUE[2],
        );
        let mut it = src.into_iter();
        let mut jobs = Vec::new();
        for _ in 0..CATALOGUE[0] {
            jobs.push((
                0,
                JobKind::Bfs {
                    source: it.next().expect("source"),
                },
            ));
        }
        for _ in 0..CATALOGUE[1] {
            let pair = vec![it.next().expect("source"), it.next().expect("source")];
            jobs.push((1, JobKind::Sssp { sources: pair }));
        }
        for _ in 0..CATALOGUE[2] {
            jobs.push((
                2,
                JobKind::Ppr {
                    source: it.next().expect("source"),
                    damping: 0.85,
                    iterations: 10,
                },
            ));
        }
        jobs.push((3, JobKind::Wcc));
        jobs.push((
            4,
            JobKind::PageRank {
                damping: 0.85,
                iterations: 10,
            },
        ));
        let checksums = jobs.iter().map(|(_, k)| direct_checksum(g, k)).collect();
        let mut by_kind: [Vec<usize>; 5] = Default::default();
        for (i, (k, _)) in jobs.iter().enumerate() {
            by_kind[*k].push(i);
        }
        Catalogue {
            jobs,
            checksums,
            by_kind,
        }
    }
}

/// The seeded sequence of catalogue entries the load generator sends:
/// kinds dealt from shuffled blocks of [`MIX`], and each kind's entries
/// dealt from shuffled rounds of its catalogue pool.
pub struct JobStream {
    rng: SplitMix64,
    block: Vec<usize>,
    rounds: [Vec<usize>; 5],
}

impl JobStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        JobStream {
            rng: SplitMix64::seed_from_u64(seed ^ 0x10AD_6E4E),
            block: Vec::new(),
            rounds: Default::default(),
        }
    }

    /// Next catalogue entry.
    pub fn next(&mut self, cat: &Catalogue) -> usize {
        if self.block.is_empty() {
            self.block = (0..KINDS.len())
                .flat_map(|k| std::iter::repeat_n(k, MIX[k]))
                .collect();
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().expect("refilled above");
        if self.rounds[kind].is_empty() {
            self.rounds[kind] = cat.by_kind[kind].clone();
            self.rng.shuffle(&mut self.rounds[kind]);
        }
        self.rounds[kind].pop().expect("refilled above")
    }
}

/// A started pool with its journal.
pub struct Server {
    /// The pool.
    pub pool: ServePool,
    /// Its results channel.
    pub rx: Receiver<JobResult>,
    /// Pool worker threads (each job runs the single-threaded `seq`
    /// engine, so workers × engine threads = workers).
    pub workers: usize,
}

/// Open the journal under `journal_dir` and start a `seq`-mode pool of
/// `workers` threads over `graph` with [`TENANTS`] equal-weight tenants.
pub fn start(graph: Arc<Csr>, journal_dir: &Path, workers: usize) -> Result<Server, String> {
    let (journal, _) = Journal::open(journal_dir, ExecMode::Sequential)?;
    let cfg = ServeConfig {
        workers,
        mode: ExecMode::Sequential,
        journal: Some(Arc::new(journal)),
        ..ServeConfig::default()
    };
    let (pool, rx) = ServePool::new(graph, cfg);
    for t in 0..TENANTS {
        pool.set_tenant(&format!("t{t}"), 1, 2);
    }
    Ok(Server { pool, rx, workers })
}

/// Per-job record.
#[derive(Clone, Debug, Default)]
pub struct JobRec {
    /// Catalogue entry.
    pub entry: usize,
    /// Kind index.
    pub kind: usize,
    /// Open-loop segment the job belongs to (`None` = closed loop).
    pub segment: Option<usize>,
    /// Seconds from the segment start.
    pub due_s: f64,
    /// Seconds from the segment start.
    pub sent_s: f64,
    /// Seconds from the segment start, set on a correct `ok` result.
    pub receipt_s: Option<f64>,
    /// Whether a result (of any status) came back.
    pub answered: bool,
    /// Result status was `ok` but the checksum differed from the direct
    /// run.
    pub wrong: bool,
    /// `parse_request` + `submit`, µs.
    pub admit_us: f64,
    /// `JobResult::to_line`, µs.
    pub reply_us: f64,
    /// Pool-reported queue wait, µs.
    pub wait_us: u64,
    /// Pool-reported execution time, µs.
    pub exec_us: u64,
}

impl JobRec {
    fn arrival(&self) -> Arrival {
        Arrival {
            due_s: self.due_s,
            sent_s: self.sent_s,
            receipt_s: self.receipt_s,
        }
    }
}

/// Everything the serving segments measured.
#[derive(Default)]
pub struct ServeOutcome {
    /// Every job sent.
    pub jobs: Vec<JobRec>,
    /// Per open-loop segment, the host's steal share while it ran.
    pub open_steal: Vec<f64>,
    /// Per closed-loop segment, correct completions per second inside its
    /// window.
    pub closed: Vec<Sample>,
    /// Highest shed level sampled (traced runs sample after each
    /// submission).
    pub shed_level_max: u8,
    /// Rejections reported by the pool.
    pub rejected: u64,
    /// Queue expiries reported by the pool.
    pub expired: u64,
}

impl ServeOutcome {
    /// Arrivals of every open-loop job.
    pub fn arrivals(&self) -> Vec<Arrival> {
        self.jobs
            .iter()
            .filter(|j| j.segment.is_some())
            .map(JobRec::arrival)
            .collect()
    }

    /// Open-loop latency percentile over every open-loop job, ms
    /// (infinite when failures reach it).
    pub fn latency_ms(&self, p: f64) -> f64 {
        let lat: Vec<f64> = self.arrivals().iter().map(Arrival::latency_ms).collect();
        percentile(&lat, p)
    }

    /// Latency percentile over every job of the [`least_stolen`]
    /// open-loop segments, ms (infinite when failures reach it), and
    /// whether dirty segments are among them.
    pub fn quiet_latency_ms(&self, p: f64) -> (f64, bool) {
        let (keep, dirty) = least_stolen(&self.open_steal);
        let lat: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.segment.is_some_and(|s| keep.contains(&s)))
            .map(|j| j.arrival().latency_ms())
            .collect();
        (percentile(&lat, p), dirty)
    }

    /// Median of correct completions per second over the least-stolen
    /// closed-loop segments, and whether dirty ones are among them.
    pub fn jobs_per_s(&self) -> (f64, bool) {
        least_stolen_median(&self.closed)
    }

    /// Jobs that failed: no correct `ok` result.
    pub fn failed(&self) -> u64 {
        self.jobs.iter().filter(|j| j.receipt_s.is_none()).count() as u64
    }

    /// Jobs whose served checksum differed from the direct run.
    pub fn wrong(&self) -> u64 {
        self.jobs.iter().filter(|j| j.wrong).count() as u64
    }
}

/// How long a segment waits for stragglers before counting them as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// The load generator's side of the protocol, across segments.
pub struct Session<'a> {
    server: &'a Server,
    cat: &'a Catalogue,
    stream: JobStream,
    out: ServeOutcome,
    segment_start: Instant,
    outstanding: usize,
}

impl<'a> Session<'a> {
    /// A generator for `server` drawing jobs from `stream`.
    pub fn new(server: &'a Server, cat: &'a Catalogue, stream: JobStream) -> Self {
        Session {
            server,
            cat,
            stream,
            out: ServeOutcome::default(),
            segment_start: Instant::now(),
            outstanding: 0,
        }
    }

    fn now_s(&self) -> f64 {
        self.segment_start.elapsed().as_secs_f64()
    }

    /// Encode the next job as a request line, parse it back and submit it.
    fn submit(&mut self, segment: Option<usize>, due_s: f64, spans: &mut Option<&mut Spans>) {
        let i = self.out.jobs.len();
        let entry = self.stream.next(self.cat);
        let spec = JobSpec {
            id: format!("j{i}"),
            tenant: format!("t{}", i % TENANTS),
            kind: self.cat.jobs[entry].1.clone(),
            mode: ExecMode::Sequential,
            deadline_ms: None,
            integrity: None,
            replay: false,
            conn: 0,
        };
        let line = job_request_line(&spec);
        let sent_s = self.now_s();
        let span = spans
            .as_deref_mut()
            .map(|s| s.open("serve.admit", i as u64));
        let t0 = Instant::now();
        let admitted = match parse_request(&line, ExecMode::Sequential, 0) {
            Ok(Request::Job(spec)) => self.server.pool.submit(spec).is_ok(),
            _ => false,
        };
        let admit_us = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some(s), Some(idx)) = (spans.as_deref_mut(), span) {
            s.close(idx);
            let level = self.server.pool.stats().shed_level;
            self.out.shed_level_max = self.out.shed_level_max.max(level);
        }
        if admitted {
            self.outstanding += 1;
        }
        self.out.jobs.push(JobRec {
            entry,
            kind: self.cat.jobs[entry].0,
            segment,
            due_s,
            sent_s,
            admit_us,
            answered: !admitted,
            ..JobRec::default()
        });
    }

    /// Wait for one result until `deadline`: `None` on timeout, else
    /// whether it was a correct `ok` result.
    fn receive(&mut self, deadline: Instant, spans: &mut Option<&mut Spans>) -> Option<bool> {
        let wait = deadline.saturating_duration_since(Instant::now());
        let r = match self.server.rx.recv_timeout(wait) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => return None,
            Err(RecvTimeoutError::Disconnected) => panic!("serve pool hung up mid-segment"),
        };
        let i: usize = r.id[1..].parse().expect("job ids are j<index>");
        let span = spans
            .as_deref_mut()
            .map(|s| s.open("serve.reply", i as u64));
        let t0 = Instant::now();
        std::hint::black_box(r.to_line());
        let reply_us = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some(s), Some(idx)) = (spans.as_deref_mut(), span) {
            s.close(idx);
        }
        let receipt_s = self.now_s();
        self.outstanding -= 1;
        let expect = self.cat.checksums[self.out.jobs[i].entry];
        let j = &mut self.out.jobs[i];
        j.answered = true;
        j.reply_us = reply_us;
        j.wait_us = r.wait_us;
        j.exec_us = r.exec_us;
        let ok = r.status == JobStatus::Ok && r.checksum == expect;
        j.wrong = r.status == JobStatus::Ok && !ok;
        j.receipt_s = ok.then_some(receipt_s);
        Some(ok)
    }

    /// Receive until every sent job has answered or `limit` passes.
    fn drain(&mut self, spans: &mut Option<&mut Spans>) {
        let deadline = Instant::now() + DRAIN_LIMIT;
        while self.outstanding > 0 && self.receive(deadline, spans).is_some() {}
    }

    /// One open-loop segment: [`RATE`] jobs/s for `secs` seconds, due
    /// times counted from the segment start, then a drain. Returns whether
    /// its steal window (drain included) was clean.
    pub fn open_segment(&mut self, secs: f64, mut spans: Option<&mut Spans>) -> bool {
        let steal = Window::open();
        let sched = Schedule::new(RATE, secs);
        let segment = self.out.open_steal.len();
        self.segment_start = Instant::now();
        for i in 0..sched.jobs {
            let due = self.segment_start + Duration::from_secs_f64(sched.due_s(i));
            while Instant::now() < due && self.receive(due, &mut spans).is_some() {}
            self.submit(Some(segment), sched.due_s(i), &mut spans);
        }
        self.drain(&mut spans);
        self.out.open_steal.push(steal.share());
        self.out.open_steal[segment] <= STEAL_MAX
    }

    /// One closed-loop segment keeping `2 × workers` jobs outstanding for
    /// `secs` seconds, then a drain (jobs finishing after the window are
    /// checked but not counted). Returns whether its steal window was
    /// clean.
    pub fn closed_segment(&mut self, secs: f64, mut spans: Option<&mut Spans>) -> bool {
        let steal = Window::open();
        self.segment_start = Instant::now();
        let end = self.segment_start + Duration::from_secs_f64(secs);
        for _ in 0..2 * self.server.workers {
            let now = self.now_s();
            self.submit(None, now, &mut spans);
        }
        let mut completed = 0u64;
        while Instant::now() < end {
            match self.receive(end, &mut spans) {
                None => break,
                Some(ok) => completed += u64::from(ok),
            }
            let now = self.now_s();
            self.submit(None, now, &mut spans);
        }
        let window_s = self.now_s();
        self.drain(&mut spans);
        let sample = Sample {
            value: completed as f64 / window_s,
            steal: steal.share(),
        };
        self.out.closed.push(sample);
        sample.clean()
    }

    /// What every segment measured, with the pool's rejection and expiry
    /// counts.
    pub fn finish(self) -> ServeOutcome {
        let mut out = self.out;
        let stats = self.server.pool.stats();
        out.rejected = stats.rejected();
        out.expired = stats.tenants.values().map(|t| t.expired).sum();
        out
    }
}

/// Shut the pool down and wait for every worker; stray results are dropped.
pub fn stop(mut server: Server) {
    server.pool.shutdown(true);
    while server.rx.recv().is_ok() {}
}

/// Median cost of one job's three journal records (`admitted`, `started`,
/// `done`) on a journal of its own under `dir`, µs.
pub fn journal_us(dir: &Path, cat: &Catalogue, jobs: usize) -> Result<f64, String> {
    let (journal, _) = Journal::open(dir, ExecMode::Sequential)?;
    let mut samples = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let (kind, job) = &cat.jobs[i % cat.jobs.len()];
        let spec = JobSpec {
            id: format!("r{i}"),
            tenant: format!("t{}", i % TENANTS),
            kind: job.clone(),
            mode: ExecMode::Sequential,
            deadline_ms: None,
            integrity: None,
            replay: false,
            conn: 0,
        };
        let result = JobResult {
            id: spec.id.clone(),
            tenant: spec.tenant.clone(),
            app: KINDS[*kind],
            status: JobStatus::Ok,
            checksum: cat.checksums[i % cat.jobs.len()],
            supersteps: 10,
            wait_us: 100,
            exec_us: 1000,
            epoch: 1,
            integrity: phigraph_recover::IntegrityMode::Off,
            replayed: false,
            conn: 0,
            trace: 0,
        };
        let t0 = Instant::now();
        journal.admitted(&spec);
        journal.started(&spec.id);
        journal.done(&result);
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&samples))
}

/// Latency and service-time summary keyed by metric name (used by the
/// traced run).
pub fn layer_metrics(out: &ServeOutcome) -> HashMap<&'static str, f64> {
    let open: Vec<&JobRec> = out
        .jobs
        .iter()
        .filter(|j| j.segment.is_some() && j.answered)
        .collect();
    let pick = |f: &dyn Fn(&JobRec) -> f64| -> Vec<f64> { open.iter().map(|j| f(j)).collect() };
    let mut m = HashMap::new();
    let admit = pick(&|j| j.admit_us);
    let wait = pick(&|j| j.wait_us as f64 / 1e3);
    let reply: Vec<f64> = open
        .iter()
        .filter_map(|j| {
            j.receipt_s
                .map(|r| ((r - j.due_s) * 1e3 - (j.wait_us + j.exec_us) as f64 / 1e3).max(0.0))
        })
        .collect();
    m.insert("serve.admit_us.p50", percentile(&admit, 50.0));
    m.insert("serve.admit_us.p99", percentile(&admit, 99.0));
    m.insert("serve.wait_ms.p50", percentile(&wait, 50.0));
    m.insert("serve.wait_ms.p95", percentile(&wait, 95.0));
    m.insert(
        "serve.reply_ms.p50",
        if reply.is_empty() {
            0.0
        } else {
            percentile(&reply, 50.0)
        },
    );
    const EXEC: [&str; 5] = [
        "serve.exec_ms.bfs.p50",
        "serve.exec_ms.sssp.p50",
        "serve.exec_ms.ppr.p50",
        "serve.exec_ms.wcc.p50",
        "serve.exec_ms.pagerank.p50",
    ];
    for (k, name) in EXEC.iter().enumerate() {
        let exec: Vec<f64> = out
            .jobs
            .iter()
            .filter(|j| j.kind == k && j.answered && j.exec_us > 0)
            .map(|j| j.exec_us as f64 / 1e3)
            .collect();
        m.insert(
            *name,
            if exec.is_empty() {
                0.0
            } else {
                percentile(&exec, 50.0)
            },
        );
    }
    let late: Vec<f64> = out.arrivals().iter().map(Arrival::lateness_ms).collect();
    m.insert(
        "serve.generator_late_ms",
        if late.is_empty() {
            0.0
        } else {
            percentile(&late, 99.0)
        },
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_apps::workloads::{pokec_like_weighted, Scale};

    #[test]
    fn sources_are_distinct_and_reach_a_quarter_of_the_graph() {
        let g = pokec_like_weighted(Scale::Tiny, 4);
        let s = sources(&g, 9, 6);
        assert_eq!(s.len(), 6);
        for (i, &v) in s.iter().enumerate() {
            assert!(!s[..i].contains(&v));
            let reached = bfs_reference(&g, v)
                .iter()
                .filter(|&&l| l != UNVISITED)
                .count();
            assert!(4 * reached >= g.num_vertices());
        }
        assert_eq!(s, sources(&g, 9, 6), "same seed, same sources");
    }

    #[test]
    fn stream_deals_exact_blocks_and_every_catalogue_entry() {
        let g = pokec_like_weighted(Scale::Tiny, 4);
        let cat = Catalogue::build(&g, 1);
        let mut stream = JobStream::new(3);
        let mut per_kind = [0usize; 5];
        let mut seen = vec![0usize; cat.jobs.len()];
        for _ in 0..20 * 16 {
            let e = stream.next(&cat);
            per_kind[cat.jobs[e].0] += 1;
            seen[e] += 1;
        }
        assert_eq!(MIX.iter().sum::<usize>(), 20);
        assert_eq!(per_kind, MIX.map(|c| c * 16));
        // 16 blocks deal 128 BFS jobs over 16 sources: every one 8 times.
        assert!(cat.by_kind[0].iter().all(|&e| seen[e] == 8));
        assert_eq!(cat.checksums.len(), cat.jobs.len());
    }
}
