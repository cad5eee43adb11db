//! Auto-tuning — the paper's stated future work, implemented.
//!
//! §VII: "Our future work includes … auto-tuning for deciding the optimal
//! number of worker/mover threads, as well as the partitioning ratio
//! between CPU and MIC."
//!
//! Both tuners run short *probe* executions (a few supersteps) under
//! candidate configurations and pick the one with the lowest simulated
//! time. Probes are cheap — host execution at probe sizes takes
//! milliseconds — and measure the actual workload rather than a proxy, so
//! the tuner automatically accounts for degree skew, contention profiles,
//! and message volume.

use crate::api::VertexProgram;
use crate::engine::{run_ranks, run_single, EngineConfig};
use phigraph_comm::PcieLink;
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;
use phigraph_partition::scheme::hybrid_from_blocks;
use phigraph_partition::{mlp, DevicePartition, PartitionScheme, Ratio};

/// Result of a worker/mover split search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineTuning {
    /// Chosen worker-thread count.
    pub workers: usize,
    /// Chosen mover-thread count.
    pub movers: usize,
    /// Simulated probe time of the winning split (seconds).
    pub predicted: f64,
}

/// Default candidate splits for a device: mover share from 1/8 to 1/2 of
/// the hardware threads (the paper found 180 workers + movers best on the
/// 240-thread MIC, i.e. a 1/4 mover share).
pub fn default_pipeline_candidates(spec: &DeviceSpec) -> Vec<(usize, usize)> {
    let t = spec.threads();
    [8usize, 6, 4, 3, 2]
        .iter()
        .map(|&frac| {
            let movers = (t / frac).max(1);
            (t - movers.min(t - 1), movers)
        })
        .collect()
}

/// Search the worker/mover split for `program` on `spec` by probing
/// `probe_steps` supersteps per candidate.
pub fn tune_pipeline<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: &DeviceSpec,
    candidates: &[(usize, usize)],
    probe_steps: usize,
) -> PipelineTuning {
    assert!(!candidates.is_empty(), "no candidate splits");
    let mut best: Option<PipelineTuning> = None;
    for &(workers, movers) in candidates {
        let mut config = EngineConfig::pipelined().with_max_supersteps(probe_steps.max(1));
        config.sim_workers = workers;
        config.sim_movers = movers;
        let report = run_single(program, graph, spec.clone(), &config).report;
        let t = report.sim_total();
        if best.is_none_or(|b| t < b.predicted) {
            best = Some(PipelineTuning {
                workers,
                movers,
                predicted: t,
            });
        }
    }
    best.unwrap()
}

/// Result of a partitioning-ratio search.
#[derive(Clone, Debug, PartialEq)]
pub struct RatioTuning {
    /// Chosen CPU:MIC ratio.
    pub ratio: Ratio,
    /// The partition realizing it (reusable for the full run).
    pub partition: DevicePartition,
    /// Simulated probe time of the winning ratio (seconds).
    pub predicted: f64,
}

/// Default candidate ratios, covering the spread the paper reports as best
/// per application (3:5, 4:3, 2:1, 1:1, 1:4).
pub fn default_ratio_candidates() -> Vec<Ratio> {
    vec![
        Ratio::new(1, 4),
        Ratio::new(1, 2),
        Ratio::new(3, 5),
        Ratio::new(1, 1),
        Ratio::new(4, 3),
        Ratio::new(2, 1),
    ]
}

/// Search the CPU:MIC ratio by probing `probe_steps` supersteps of
/// heterogeneous execution per candidate. The min-connectivity blocks are
/// computed **once** and re-dealt per ratio, exactly the reuse the paper
/// describes ("the blocked partitioning result is reused for generating
/// hybrid partitioning results for different ratios").
#[allow(clippy::too_many_arguments)]
pub fn tune_ratio<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    specs: [DeviceSpec; 2],
    configs: [EngineConfig; 2],
    link: PcieLink,
    candidates: &[Ratio],
    blocks: usize,
    probe_steps: usize,
) -> RatioTuning {
    assert!(!candidates.is_empty(), "no candidate ratios");
    let blocks = blocks.max(1);
    let block_of = mlp::partition_kway(graph, blocks, 7);
    let mut best: Option<RatioTuning> = None;
    for &ratio in candidates {
        let assign = hybrid_from_blocks(graph, &block_of, blocks, &ratio.to_shares());
        let partition = DevicePartition {
            assign,
            shares: ratio.to_shares(),
            scheme: PartitionScheme::Hybrid { blocks },
        };
        let probe_configs = [
            configs[0].clone().with_max_supersteps(probe_steps.max(1)),
            configs[1].clone().with_max_supersteps(probe_steps.max(1)),
        ];
        let report = run_ranks(program, graph, &partition, &specs, &probe_configs, link).report;
        let t = report.sim_total();
        if best.as_ref().is_none_or(|b| t < b.predicted) {
            best = Some(RatioTuning {
                ratio,
                partition,
                predicted: t,
            });
        }
    }
    best.unwrap()
}

/// Analytic ratio suggestion from single-device probe times: if the CPU
/// takes `cpu_time` and the MIC `mic_time` for the same probe, workload
/// should split proportionally to throughput (`1/time`). Returns the
/// closest small-integer ratio (denominators ≤ 8).
///
/// # Examples
///
/// ```
/// use phigraph_core::tune::suggest_ratio_from_throughput;
/// // The MIC finished the probe twice as fast: give it twice the work.
/// let r = suggest_ratio_from_throughput(2.0, 1.0);
/// assert_eq!((r.cpu, r.mic), (1, 2));
/// ```
/// # Examples
///
/// ```
/// use phigraph_core::tune::suggest_ratio_from_throughput;
/// // The MIC finished the probe twice as fast: give it twice the work.
/// let r = suggest_ratio_from_throughput(2.0, 1.0);
/// assert_eq!((r.cpu, r.mic), (1, 2));
/// ```
pub fn suggest_ratio_from_throughput(cpu_time: f64, mic_time: f64) -> Ratio {
    assert!(
        cpu_time > 0.0 && mic_time > 0.0,
        "probe times must be positive"
    );
    let target = mic_time / (cpu_time + mic_time); // CPU share
    let mut best = (f64::INFINITY, Ratio::new(1, 1));
    for a in 1..=8u32 {
        for b in 1..=8u32 {
            let share = a as f64 / (a + b) as f64;
            let err = (share - target).abs();
            if err < best.0 {
                best = (err, Ratio::new(a, b));
            }
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GenContext, MsgSink};
    use phigraph_graph::generators::erdos_renyi::gnm;
    use phigraph_graph::VertexId;
    use phigraph_simd::Sum;

    struct Ping {
        iters: usize,
    }
    impl VertexProgram for Ping {
        type Msg = f32;
        type Reduce = Sum;
        type Value = f32;
        const NAME: &'static str = "ping";
        const ALWAYS_ACTIVE: bool = true;
        fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
            (1.0, true)
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            let g = ctx.graph;
            for e in g.edge_range(v) {
                ctx.send(g.targets[e], 1.0);
            }
        }
        fn update(&self, _v: VertexId, _m: f32, _val: &mut f32, _g: &Csr) -> bool {
            true
        }
        fn max_supersteps(&self) -> Option<usize> {
            Some(self.iters)
        }
    }

    #[test]
    fn pipeline_candidates_cover_paper_best() {
        let mic = DeviceSpec::xeon_phi_se10p();
        let cands = default_pipeline_candidates(&mic);
        assert!(cands.contains(&(180, 60)), "{cands:?} must include 180+60");
        for &(w, m) in &cands {
            assert!(w + m <= mic.threads());
            assert!(w >= 1 && m >= 1);
        }
    }

    #[test]
    fn tune_pipeline_picks_a_candidate_and_minimizes() {
        let g = gnm(600, 6000, 3);
        let p = Ping { iters: 50 };
        let mic = DeviceSpec::xeon_phi_se10p();
        let cands = default_pipeline_candidates(&mic);
        let tuned = tune_pipeline(&p, &g, &mic, &cands, 2);
        assert!(cands.contains(&(tuned.workers, tuned.movers)));
        // The winner must not be beaten by any candidate when re-probed.
        for &(w, m) in &cands {
            let mut config = EngineConfig::pipelined().with_max_supersteps(2);
            config.sim_workers = w;
            config.sim_movers = m;
            let t = run_single(&p, &g, mic.clone(), &config).report.sim_total();
            assert!(
                t >= tuned.predicted - 1e-12,
                "({w},{m}) beats the tuned split"
            );
        }
    }

    #[test]
    fn tune_ratio_picks_a_candidate() {
        let g = gnm(400, 3200, 9);
        let p = Ping { iters: 50 };
        let tuned = tune_ratio(
            &p,
            &g,
            [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
            [EngineConfig::locking(), EngineConfig::pipelined()],
            PcieLink::gen2_x16(),
            &default_ratio_candidates(),
            16,
            2,
        );
        assert!(default_ratio_candidates().contains(&tuned.ratio));
        assert_eq!(tuned.partition.assign.len(), g.num_vertices());
        assert!(tuned.predicted > 0.0);
    }

    #[test]
    fn throughput_ratio_suggestions() {
        // Equal devices → 1:1.
        assert_eq!(suggest_ratio_from_throughput(1.0, 1.0), Ratio::new(1, 1));
        // MIC twice as fast → CPU gets 1/3 of the work.
        let r = suggest_ratio_from_throughput(2.0, 1.0);
        assert!((r.share(0) - 1.0 / 3.0).abs() < 0.05, "{r}");
        // CPU 4x faster → CPU gets 4/5.
        let r = suggest_ratio_from_throughput(1.0, 4.0);
        assert!((r.share(0) - 0.8).abs() < 0.05, "{r}");
    }
}
