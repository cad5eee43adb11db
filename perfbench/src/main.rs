//! End-to-end and per-layer wall-clock benchmark for phigraph.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates its input graph from the seed, writes it to a file
//! under `.perfbench/` in the working directory, builds references, and
//! only then starts timing: set-up (load, partition, journal, serving
//! pool), then solve rounds on each execution path interleaved with
//! serving segments, each step repeated when the hypervisor stole the
//! host's CPUs while it ran.
//! `--trace 1` runs the separate traced mode that times each layer's
//! public calls instead. The last line of standard output is the result
//! object; the line before it is the run's fingerprint. See README.md.

mod comm;
mod metrics;
mod openloop;
mod replay;
mod serve;
mod solve;
mod spans;
mod stats;
mod steal;
mod traced;

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use phigraph_apps::workloads::{pokec_like, pokec_like_weighted, Scale};
use phigraph_graph::Csr;
use phigraph_partition::{partition_n, DevicePartition, PartitionScheme, Shares};
use phigraph_trace::json::{num, quote};

use serve::{Catalogue, JobStream, Server, Session};
use solve::{Engine, Expected, Solve, Threads, ENGINES};
use spans::Spans;
use stats::median;
use steal::{least_stolen_median, until_clean, Jiffies, Sample, Window};

/// A workload: how its input graph and its solve set are made from the
/// seed. Both workloads serve the same job mix ([`serve::MIX`]) over their
/// own graph.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    graph: fn(u64) -> Csr,
    solves: fn(&Csr, u64) -> Vec<Solve>,
}

/// Sources of the traversal solve set.
const TRAVERSAL_SOURCES: usize = 3;

/// The workloads. `pagerank-hubs` loads the message-volume layers: every
/// superstep of PageRank sends ~540K messages into hub-skewed columns.
/// `traverse-sparse` loads the per-superstep fixed costs: SSSP and BFS run
/// ~13 supersteps that mostly touch a small frontier.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "pagerank-hubs",
        graph: |seed| pokec_like(Scale::Medium, seed),
        solves: |_, _| vec![Solve::PageRank],
    },
    Workload {
        name: "traverse-sparse",
        graph: |seed| pokec_like_weighted(Scale::Medium, seed),
        solves: |g, seed| {
            serve::sources(g, seed ^ 0x7A5E, TRAVERSAL_SOURCES)
                .into_iter()
                .flat_map(|s| [Solve::Sssp(s), Solve::Bfs(s)])
                .collect()
        },
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;
/// The measured part of a run is a warm-up round and then the steps
/// [solve round, open-loop segment, closed-loop segment] in turn, each at
/// least once, while the next step still fits in `--seconds`. Short steps
/// spread over the run let the steal gate keep the quiet ones when the
/// host is slowed from outside for a while.
const STEPS: usize = 3;
/// Length of one open-loop segment, seconds.
const OPEN_SEGMENT_S: f64 = 1.5;
/// Length of one closed-loop segment, seconds.
const CLOSED_SEGMENT_S: f64 = 1.0;
/// Seed of the hybrid partition (the one `phigraph run --devices 2` uses).
const PARTITION_SEED: u64 = 7;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The run's working directory under `.perfbench/`; removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Inputs and references, built before any timing starts.
pub struct Prepared {
    /// The graph file the program loads.
    pub path: PathBuf,
    /// Vertices of the input.
    pub vertices: usize,
    /// Edges of the input.
    pub edges: usize,
    /// The solve set.
    pub solves: Vec<Solve>,
    /// Reference per solve.
    pub expected: Vec<Expected>,
    /// Serving jobs and their direct checksums.
    pub catalogue: Catalogue,
}

fn prepare(w: &Workload, seed: u64, dir: &Path) -> Result<Prepared, String> {
    let g = (w.graph)(seed);
    let path = dir.join("graph.bin");
    let file = std::fs::File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    phigraph_graph::io::write_binary(&g, &mut out).map_err(|e| format!("write {path:?}: {e}"))?;
    out.flush().map_err(|e| format!("write {path:?}: {e}"))?;
    let solves = (w.solves)(&g, seed);
    let expected = solves.iter().map(|&s| solve::expected(s, &g)).collect();
    Ok(Prepared {
        path,
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        solves,
        expected,
        catalogue: Catalogue::build(&g, seed),
    })
}

/// What a set-up produced besides its serving pool.
pub struct Setup {
    /// The loaded graph, shared with the serving pool.
    pub graph: Arc<Csr>,
    /// Its 2-rank hybrid partition.
    pub partition: DevicePartition,
}

/// Load the graph, partition it for two ranks, open the journal and start
/// the serving pool: what a program serving and solving on this input
/// pays before its first answer.
fn setup_once(
    prep: &Prepared,
    dir: &Path,
    i: usize,
    threads: Threads,
    spans: &mut Option<&mut Spans>,
) -> Result<(Setup, Server), String> {
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| match spans.as_deref_mut() {
        Some(s) => s.time(name, i as u64, |_| f()),
        None => f(),
    };
    let mut graph = None;
    timed("io.load", &mut || {
        graph = Some(phigraph_graph::io::load_path(&prep.path));
    });
    let graph = Arc::new(graph.expect("load ran").map_err(|e| format!("load: {e}"))?);
    let mut partition = None;
    timed("partition.hybrid", &mut || {
        partition = Some(partition_n(
            &graph,
            PartitionScheme::hybrid_default(),
            &Shares::even(2),
            PARTITION_SEED,
        ));
    });
    let mut server = None;
    timed("serve.start", &mut || {
        server = Some(serve::start(
            Arc::clone(&graph),
            &dir.join(format!("journal-{i}")),
            threads.nproc,
        ));
    });
    let setup = Setup {
        graph,
        partition: partition.expect("partition ran"),
    };
    Ok((setup, server.expect("start ran")?))
}

/// Run `SETUPS` timed set-ups; return the last one with its pool still
/// running, and each set-up's wall time.
pub fn setups(
    prep: &Prepared,
    dir: &Path,
    threads: Threads,
    mut spans: Option<&mut Spans>,
) -> Result<(Setup, Server, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (setup, server) = setup_once(prep, dir, i, threads, &mut spans)?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some((_, old)) = last.replace((setup, server)) {
            serve::stop(old);
        }
    }
    let (setup, server) = last.expect("at least one set-up");
    Ok((setup, server, times))
}

/// Per-path solve-set times of the timed rounds, plus failure accounting.
pub struct Rounds {
    /// Solve-set seconds per path, in [`ENGINES`] order, dirty samples
    /// included.
    pub samples: Vec<Vec<Sample>>,
    /// Solves run, warm-up and repeats included.
    pub attempted: u64,
    /// Solves whose output failed its check.
    pub wrong: u64,
    /// `lock`/`omp` PageRank solves whose checksum differs from `seq`.
    pub sum_bit_mismatch: u64,
    /// Solve sets run again because the host's steal share was too high.
    pub repeats: u64,
}

impl Rounds {
    fn new() -> Self {
        Rounds {
            samples: vec![Vec::new(); ENGINES.len()],
            attempted: 0,
            wrong: 0,
            sum_bit_mismatch: 0,
            repeats: 0,
        }
    }

    /// Run the solve set once on `e`: each solve timed alone and checked
    /// after its timer stops. Returns the set's seconds.
    fn solve_set(&mut self, ctx: &solve::Ctx, prep: &Prepared, e: Engine) -> f64 {
        let mut set_s = 0.0;
        for (&s, exp) in prep.solves.iter().zip(&prep.expected) {
            let t0 = Instant::now();
            let out = solve::run(e, s, ctx);
            set_s += t0.elapsed().as_secs_f64();
            self.attempted += 1;
            if !solve::check(s, &out.values, exp) {
                self.wrong += 1;
                eprintln!("perfbench: {} {} output check failed", e.name(), s.app());
            }
            if s == Solve::PageRank
                && matches!(e, Engine::Lock | Engine::Omp)
                && out.values.checksum() != exp.seq_checksum
            {
                self.sum_bit_mismatch += 1;
            }
        }
        set_s
    }

    /// One round: every path runs the solve set, starting with path
    /// `first` (mod the path count); a path whose set ran while the host's
    /// steal share was too high runs it again. A warm-up round
    /// (`timed = false`) records no times.
    fn run(&mut self, ctx: &solve::Ctx, prep: &Prepared, first: usize, timed: bool) {
        for k in 0..ENGINES.len() {
            let slot = (first + k) % ENGINES.len();
            if !timed {
                self.solve_set(ctx, prep, ENGINES[slot]);
                continue;
            }
            self.repeats += until_clean(|| {
                let window = Window::open();
                let value = self.solve_set(ctx, prep, ENGINES[slot]);
                let sample = Sample {
                    value,
                    steal: window.share(),
                };
                self.samples[slot].push(sample);
                sample.clean()
            });
        }
    }
}

/// Reset the kernel's peak-RSS mark to the current resident size.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last reset, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A latency that may be infinite (failed jobs) as a finite JSON number.
fn finite_ms(ms: f64) -> f64 {
    if ms.is_finite() {
        ms
    } else {
        1e12
    }
}

/// The run's fingerprint line.
fn fingerprint(a: &Args, prep: &Prepared, threads: Threads, extra: &[(&str, String)]) -> String {
    let over: Vec<String> = threads.oversubscribed().iter().map(|s| quote(s)).collect();
    let msgs: u64 = prep.expected.iter().map(|e| e.seq_msgs).sum();
    let mut fields = vec![
        ("workload", quote(a.workload.name)),
        ("seed", a.seed.to_string()),
        ("trace", (a.trace as u8).to_string()),
        ("nproc", threads.nproc.to_string()),
        ("engine_threads", threads.engine.to_string()),
        (
            "pipe_threads",
            Threads::pipe_threads(threads.engine).to_string(),
        ),
        ("ranks", "2".to_string()),
        ("rank_threads", threads.rank.to_string()),
        ("pool_workers", threads.nproc.to_string()),
        ("job_engine_threads", "1".to_string()),
        ("oversubscribed", format!("[{}]", over.join(","))),
        ("vertices", prep.vertices.to_string()),
        ("edges", prep.edges.to_string()),
        ("solves_per_set", prep.solves.len().to_string()),
        ("msgs_per_set", msgs.to_string()),
        ("setups", SETUPS.to_string()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", quote(k)))
        .collect();
    format!("{{\"fingerprint\":{{{}}}}}", body.join(","))
}

/// The result line: `correct`, `attempted`, `failed`, and each metric with
/// its unit.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str, &str)],
    value: &dyn Fn(&str) -> f64,
) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit, _)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(value(name)),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn end_to_end(a: &Args, dir: &Path, threads: Threads) -> Result<(), String> {
    let prep = prepare(a.workload, a.seed, dir)?;
    let rss_reset = reset_peak_rss();
    let jiffies = Jiffies::now();
    let (setup, server, setup_times) = setups(&prep, dir, threads, None)?;
    let ctx = solve::Ctx {
        graph: &setup.graph,
        partition: &setup.partition,
        threads,
    };
    let start = Instant::now();
    let mut r = Rounds::new();
    r.run(&ctx, &prep, 0, false);
    let mut session = Session::new(&server, &prep.catalogue, JobStream::new(a.seed));
    let (mut round, mut segment_repeats) = (0, 0);
    let mut last_s = [0.0; STEPS];
    for step in 0.. {
        let kind = step % STEPS;
        if step >= STEPS && start.elapsed().as_secs_f64() + last_s[kind] > a.seconds {
            break;
        }
        let t = Instant::now();
        match kind {
            0 => {
                r.run(&ctx, &prep, round, true);
                round += 1;
            }
            1 => segment_repeats += until_clean(|| session.open_segment(OPEN_SEGMENT_S, None)),
            _ => segment_repeats += until_clean(|| session.closed_segment(CLOSED_SEGMENT_S, None)),
        }
        last_s[kind] = t.elapsed().as_secs_f64();
    }
    let out = session.finish();
    serve::stop(server);
    let peak = peak_rss_mb();
    let host_steal = jiffies.steal_share(Jiffies::now());
    for (e, xs) in ENGINES.iter().zip(&r.samples) {
        let show: Vec<String> = xs
            .iter()
            .map(|s| format!("{:.4}@{:.1}%", s.value, 100.0 * s.steal))
            .collect();
        eprintln!(
            "perfbench: {} solve-set seconds@steal per round: {}",
            e.name(),
            show.join(" ")
        );
    }

    // Metrics for which fewer than half the samples were clean, so that
    // the least-stolen dirty ones count too.
    let mut dirty_metrics = 0;
    let mut value = |name: &str| -> f64 {
        let (v, dirty) = match name {
            "setup_s" => (median(&setup_times), false),
            "peak_rss_mb" => (peak, false),
            "job_p50_ms" => out.quiet_latency_ms(50.0),
            "job_p95_ms" => out.quiet_latency_ms(95.0),
            "jobs_per_s" => out.jobs_per_s(),
            _ => {
                let e = ENGINES
                    .iter()
                    .position(|e| format!("{}_s", e.name()) == name)
                    .expect("every end-to-end metric is handled");
                least_stolen_median(&r.samples[e])
            }
        };
        dirty_metrics += u64::from(dirty);
        finite_ms(v)
    };
    let values: HashMap<&str, f64> = metrics::END_TO_END
        .iter()
        .map(|(name, _, _)| (*name, value(name)))
        .collect();
    let clean: Vec<bool> = (r.samples.iter().flatten().chain(&out.closed))
        .map(Sample::clean)
        .chain(out.open_steal.iter().map(|&s| s <= steal::STEAL_MAX))
        .collect();
    let dirty = clean.iter().filter(|&&c| !c).count();
    let open_jobs = out.jobs.iter().filter(|j| j.segment.is_some()).count();
    println!(
        "{}",
        fingerprint(
            a,
            &prep,
            threads,
            &[
                ("rounds", round.to_string()),
                ("open_segments", out.open_steal.len().to_string()),
                ("closed_segments", out.closed.len().to_string()),
                ("open_loop_rate", num(serve::RATE)),
                ("open_loop_jobs", open_jobs.to_string()),
                ("closed_loop_outstanding", (2 * threads.nproc).to_string()),
                ("closed_loop_jobs", (out.jobs.len() - open_jobs).to_string()),
                ("sum_bit_mismatch", r.sum_bit_mismatch.to_string()),
                ("host_steal_pct", num(100.0 * host_steal)),
                ("steal_max_pct", num(100.0 * steal::STEAL_MAX)),
                ("samples", clean.len().to_string()),
                ("dirty_samples", dirty.to_string()),
                ("steal_repeats", (r.repeats + segment_repeats).to_string()),
                ("dirty_metrics", dirty_metrics.to_string()),
                ("peak_rss_reset", rss_reset.to_string()),
            ],
        )
    );
    let wrong = r.wrong + out.wrong();
    println!(
        "{}",
        result_line(
            wrong == 0,
            r.attempted + out.jobs.len() as u64,
            r.wrong + out.failed(),
            &metrics::END_TO_END,
            &|name| values[name],
        )
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let a = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = Threads::for_host(nproc);
    let over = threads.oversubscribed();
    if !over.is_empty() {
        eprintln!(
            "perfbench: warning: {over:?} would run more threads than the {nproc} cores \
             this host has; their times are flagged in the fingerprint"
        );
    }
    let dir = WorkDir::create()?;
    if a.trace {
        traced::run(&a, &dir.0, threads)
    } else {
        end_to_end(&a, &dir.0, threads)
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
