//! Solve sets, the six execution paths they run on, and their output
//! checks.

use phigraph_apps::reference::{
    bfs::bfs_reference, pagerank::pagerank_reference, sssp::dijkstra_reference,
};
use phigraph_apps::{Bfs, PageRank, Sssp};
use phigraph_comm::PcieLink;
use phigraph_core::api::VertexProgram;
use phigraph_core::engine::{run_ranks, run_ranks_failover, run_single, EngineConfig};
use phigraph_core::RunReport;
use phigraph_device::DeviceSpec;
use phigraph_graph::state::PodState;
use phigraph_graph::{Csr, VertexId};
use phigraph_partition::DevicePartition;
use phigraph_recover::{CheckpointStore, FailoverConfig, IntegrityMode, MemStore};
use phigraph_serve::values_checksum;

/// An execution path a solve set runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `EngineConfig::sequential()`.
    Seq,
    /// `EngineConfig::locking()` on `nproc` host threads.
    Lock,
    /// `EngineConfig::pipelined()` on `nproc` host threads.
    Pipe,
    /// `EngineConfig::flat()` on `nproc` host threads.
    Omp,
    /// `run_ranks` over the 2-rank hybrid partition, both ranks `lock`.
    Fabric2,
    /// `run_ranks_failover` over the same ranks, full integrity, a barrier
    /// checkpoint every superstep into in-memory stores.
    Guarded,
}

/// Every path, in the order the first round runs them.
pub const ENGINES: [Engine; 6] = [
    Engine::Seq,
    Engine::Lock,
    Engine::Pipe,
    Engine::Omp,
    Engine::Fabric2,
    Engine::Guarded,
];

impl Engine {
    /// Metric prefix (`seq`, `lock`, …).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Seq => "seq",
            Engine::Lock => "lock",
            Engine::Pipe => "pipe",
            Engine::Omp => "omp",
            Engine::Fabric2 => "fabric2",
            Engine::Guarded => "guarded",
        }
    }
}

/// Host threads each configuration may use. Every path stays within
/// `nproc`: single-device engines take `nproc` threads (a pipelined device
/// always runs at least one worker and one mover), and the two fabric
/// ranks split `nproc` between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Threads {
    /// Cores the host reports.
    pub nproc: usize,
    /// Host threads per single-device engine.
    pub engine: usize,
    /// Host threads per fabric rank.
    pub rank: usize,
}

impl Threads {
    /// The split for a host with `nproc` cores.
    pub fn for_host(nproc: usize) -> Self {
        let nproc = nproc.max(1);
        Threads {
            nproc,
            engine: nproc,
            rank: (nproc / 2).max(1),
        }
    }

    /// Threads the pipelined engine really starts for `host` host threads
    /// (workers plus movers, as `DeviceEngine::generate` splits them).
    pub fn pipe_threads(host: usize) -> usize {
        let movers = (host / 4).max(1);
        host.saturating_sub(movers).max(1) + movers
    }

    /// Configurations that would run more threads than the host has.
    pub fn oversubscribed(&self) -> Vec<&'static str> {
        let mut over = Vec::new();
        if Self::pipe_threads(self.engine) > self.nproc {
            over.push("pipe");
        }
        if 2 * self.rank > self.nproc {
            over.push("fabric2");
            over.push("guarded");
        }
        over
    }
}

/// One solve of a solve set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solve {
    /// PageRank, 20 iterations, damping 0.85, f32 `Sum` reducer.
    PageRank,
    /// Single-source shortest paths from the vertex.
    Sssp(VertexId),
    /// Breadth-first levels from the vertex.
    Bfs(VertexId),
}

impl Solve {
    /// App name.
    pub fn app(self) -> &'static str {
        match self {
            Solve::PageRank => "pagerank",
            Solve::Sssp(_) => "sssp",
            Solve::Bfs(_) => "bfs",
        }
    }
}

/// Final vertex values of a solve.
#[derive(Clone, Debug, PartialEq)]
pub enum Values {
    /// PageRank ranks or SSSP distances.
    F32(Vec<f32>),
    /// BFS levels.
    I32(Vec<i32>),
}

impl Values {
    /// The FNV-1a digest `phigraph run --checksum` prints.
    pub fn checksum(&self) -> u64 {
        match self {
            Values::F32(v) => values_checksum(v),
            Values::I32(v) => values_checksum(v),
        }
    }
}

/// Values plus the run report of one solve.
pub struct Outcome {
    /// Final vertex values.
    pub values: Values,
    /// The run report (per-step counters, failover and integrity
    /// statistics).
    pub report: RunReport,
}

/// What a solve set runs against: the graph, its 2-rank partition, and
/// the thread split.
pub struct Ctx<'a> {
    /// Input graph.
    pub graph: &'a Csr,
    /// `partition_n(hybrid_default, Shares::even(2))` of the graph.
    pub partition: &'a DevicePartition,
    /// Thread split.
    pub threads: Threads,
}

/// The simulated device single-device runs model (the CLI default).
pub fn cpu() -> DeviceSpec {
    DeviceSpec::xeon_e5_2680()
}

fn rank_specs() -> Vec<DeviceSpec> {
    vec![DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()]
}

/// Engine configuration of a single-device path.
pub fn single_config(engine: Engine, threads: Threads) -> EngineConfig {
    match engine {
        Engine::Seq => EngineConfig::sequential(),
        Engine::Lock => EngineConfig::locking().with_host_threads(threads.engine),
        Engine::Pipe => EngineConfig::pipelined().with_host_threads(threads.engine),
        Engine::Omp => EngineConfig::flat().with_host_threads(threads.engine),
        Engine::Fabric2 | Engine::Guarded => unreachable!("fabric paths have per-rank configs"),
    }
}

fn rank_configs(threads: Threads) -> Vec<EngineConfig> {
    vec![EngineConfig::locking().with_host_threads(threads.rank); 2]
}

/// Failover settings of the guarded path: the defaults, except that
/// straggler rebalancing is off. On a fault-free frontier traversal the
/// default detector fires on simulated step-time drift and re-runs the
/// whole hybrid partition (several seconds) for a seed-dependent subset
/// of solves; the traced run reports how often under the defaults
/// (`failover.default_rebalances`).
pub fn guarded_failover() -> FailoverConfig {
    FailoverConfig::default().with_rebalance_after(0)
}

/// Run `program` on one path.
pub fn run_program<P: VertexProgram>(
    engine: Engine,
    program: &P,
    ctx: &Ctx,
    fcfg: &FailoverConfig,
) -> (Vec<P::Value>, RunReport)
where
    P::Value: PodState,
{
    let out = match engine {
        Engine::Seq | Engine::Lock | Engine::Pipe | Engine::Omp => run_single(
            program,
            ctx.graph,
            cpu(),
            &single_config(engine, ctx.threads),
        ),
        Engine::Fabric2 => run_ranks(
            program,
            ctx.graph,
            ctx.partition,
            &rank_specs(),
            &rank_configs(ctx.threads),
            PcieLink::gen2_x16(),
        ),
        Engine::Guarded => {
            let configs: Vec<EngineConfig> = rank_configs(ctx.threads)
                .into_iter()
                .map(|c| {
                    c.with_integrity(IntegrityMode::Full)
                        .with_checkpoint_every(1)
                })
                .collect();
            let mut s0 = MemStore::new();
            let mut s1 = MemStore::new();
            let stores: Vec<&mut dyn CheckpointStore> = vec![&mut s0, &mut s1];
            run_ranks_failover(
                program,
                ctx.graph,
                ctx.partition,
                &rank_specs(),
                &configs,
                PcieLink::gen2_x16(),
                fcfg,
                stores,
                false,
            )
        }
    };
    (out.values, out.report)
}

/// Run one solve on one path with the benchmark's failover settings.
pub fn run(engine: Engine, solve: Solve, ctx: &Ctx) -> Outcome {
    run_with(engine, solve, ctx, &guarded_failover())
}

/// Run one solve on one path with explicit failover settings.
pub fn run_with(engine: Engine, solve: Solve, ctx: &Ctx, fcfg: &FailoverConfig) -> Outcome {
    let (values, report) = match solve {
        Solve::PageRank => {
            let (v, r) = run_program(engine, &PageRank::default(), ctx, fcfg);
            (Values::F32(v), r)
        }
        Solve::Sssp(source) => {
            let (v, r) = run_program(engine, &Sssp { source }, ctx, fcfg);
            (Values::F32(v), r)
        }
        Solve::Bfs(source) => {
            let (v, r) = run_program(engine, &Bfs { source }, ctx, fcfg);
            (Values::I32(v), r)
        }
    };
    Outcome { values, report }
}

/// Absolute tolerance of a PageRank rank against the reference (the one
/// the app-correctness tests use).
pub const PAGERANK_TOL: f32 = 1e-3;

/// The reference a solve is checked against: the independent sequential
/// implementation from `phigraph_apps::reference`, and the checksum of the
/// `seq` engine's answer.
pub struct Expected {
    /// Reference values.
    pub reference: Values,
    /// `values_checksum` of the `seq` engine's values.
    pub seq_checksum: u64,
    /// Messages the `seq` engine generated (the base of per-message
    /// ratios).
    pub seq_msgs: u64,
}

/// Build the reference for `solve` on `g` (untimed).
pub fn expected(solve: Solve, g: &Csr) -> Expected {
    let reference = match solve {
        Solve::PageRank => {
            let pr = PageRank::default();
            Values::F32(pagerank_reference(g, pr.damping, pr.iterations))
        }
        Solve::Sssp(s) => Values::F32(dijkstra_reference(g, s)),
        Solve::Bfs(s) => Values::I32(bfs_reference(g, s)),
    };
    let seq = match solve {
        Solve::PageRank => {
            let out = run_single(&PageRank::default(), g, cpu(), &EngineConfig::sequential());
            (values_checksum(&out.values), out.report.total_msgs())
        }
        Solve::Sssp(source) => {
            let out = run_single(&Sssp { source }, g, cpu(), &EngineConfig::sequential());
            (values_checksum(&out.values), out.report.total_msgs())
        }
        Solve::Bfs(source) => {
            let out = run_single(&Bfs { source }, g, cpu(), &EngineConfig::sequential());
            (values_checksum(&out.values), out.report.total_msgs())
        }
    };
    Expected {
        reference,
        seq_checksum: seq.0,
        seq_msgs: seq.1,
    }
}

/// Whether `got` is a correct answer: BFS and SSSP exactly equal to the
/// reference and bit-identical to `seq`; PageRank within
/// [`PAGERANK_TOL`] of the reference at every vertex (its f32 sums depend
/// on reduction order, so parallel engines need not match `seq` bit for
/// bit).
pub fn check(solve: Solve, got: &Values, exp: &Expected) -> bool {
    match (solve, got, &exp.reference) {
        (Solve::PageRank, Values::F32(v), Values::F32(r)) => {
            v.len() == r.len() && v.iter().zip(r).all(|(a, b)| (a - b).abs() < PAGERANK_TOL)
        }
        (Solve::Sssp(_) | Solve::Bfs(_), _, _) => {
            got == &exp.reference && got.checksum() == exp.seq_checksum
        }
        _ => false,
    }
}
