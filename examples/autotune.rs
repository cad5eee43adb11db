//! Auto-tuning demo — the paper's future work (§VII) in action: search the
//! worker/mover split for the MIC pipeline and the CPU:MIC partitioning
//! ratio by probing a few supersteps per candidate, then run the tuned
//! configuration end to end.
//!
//! ```sh
//! cargo run --release -p phigraph-apps --example autotune [scale]
//! ```

use phigraph_apps::workloads::{self, Scale};
use phigraph_apps::PageRank;
use phigraph_comm::PcieLink;
use phigraph_core::engine::{run_ranks, run_single, EngineConfig};
use phigraph_core::tune::{
    default_pipeline_candidates, default_ratio_candidates, suggest_ratio_from_throughput,
    tune_pipeline, tune_ratio,
};
use phigraph_device::DeviceSpec;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Tiny);
    let graph = workloads::pokec_like(scale, 21);
    let pr = PageRank {
        damping: 0.85,
        iterations: 10,
    };
    println!(
        "graph: {} vertices / {} edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 1. Tune the MIC worker/mover split.
    let mic = DeviceSpec::xeon_phi_se10p();
    let candidates = default_pipeline_candidates(&mic);
    println!("probing worker/mover splits on the MIC: {candidates:?}");
    let split = tune_pipeline(&pr, &graph, &mic, &candidates, 2);
    println!(
        "-> best split: {} workers + {} movers (probe {:.5}s)\n",
        split.workers, split.movers, split.predicted
    );

    // 2. Quick analytic ratio suggestion from single-device probes.
    let probe_cfg = EngineConfig::locking().with_max_supersteps(2);
    let cpu_probe = run_single(&pr, &graph, DeviceSpec::xeon_e5_2680(), &probe_cfg)
        .report
        .sim_total();
    let mut mic_cfg = EngineConfig::pipelined().with_max_supersteps(2);
    mic_cfg.sim_workers = split.workers;
    mic_cfg.sim_movers = split.movers;
    let mic_probe = run_single(&pr, &graph, mic.clone(), &mic_cfg)
        .report
        .sim_total();
    let suggestion = suggest_ratio_from_throughput(cpu_probe, mic_probe);
    println!(
        "single-device probes: CPU {cpu_probe:.5}s, MIC {mic_probe:.5}s -> throughput suggests ratio {suggestion}"
    );

    // 3. Full ratio search with block reuse.
    let mut mic_full = EngineConfig::pipelined();
    mic_full.sim_workers = split.workers;
    mic_full.sim_movers = split.movers;
    let configs = [EngineConfig::locking(), mic_full];
    let tuned = tune_ratio(
        &pr,
        &graph,
        [DeviceSpec::xeon_e5_2680(), mic.clone()],
        configs.clone(),
        PcieLink::gen2_x16(),
        &default_ratio_candidates(),
        64,
        2,
    );
    println!(
        "probed ratios {:?} -> best {}\n",
        default_ratio_candidates(),
        tuned.ratio
    );

    // 4. Run the tuned configuration to completion.
    let out = run_ranks(
        &pr,
        &graph,
        &tuned.partition,
        &[DeviceSpec::xeon_e5_2680(), mic],
        &configs,
        PcieLink::gen2_x16(),
    );
    println!(
        "tuned CPU-MIC run: {} supersteps, exec {:.5}s + comm {:.5}s = {:.5}s",
        out.report.supersteps(),
        out.report.sim_exec(),
        out.report.sim_comm(),
        out.report.sim_total(),
    );
}
