//! `phigraph tune` — auto-tune the pipeline split and partitioning ratio
//! for a workload (the paper's §VII future work, exposed as a command).

use crate::args::Args;
use crate::cmd_generate::load_graph;
use crate::out::outln;
use phigraph_apps::{Bfs, PageRank, Sssp, TopoSort, Wcc};
use phigraph_comm::PcieLink;
use phigraph_core::api::VertexProgram;
use phigraph_core::engine::EngineConfig;
use phigraph_core::tune::{
    default_pipeline_candidates, default_ratio_candidates, tune_pipeline, tune_ratio,
};
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;

/// The flags `tune` accepts; any other is an error.
const FLAGS: &[&str] = &["blocks", "iters", "probe-steps", "source"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let app = args.pos(0, "app")?.to_string();
    let graph_path = args.pos(1, "graph")?;
    let g = load_graph(graph_path)?;
    let probe: usize = args.flag_parse("probe-steps", 2usize)?;
    let blocks: usize = args.flag_parse("blocks", 64usize)?;
    let iters: usize = args.flag_parse("iters", 10usize)?;
    let source: u32 = args.flag_parse("source", 0u32)?;

    match app.as_str() {
        "pagerank" => tune_app(
            &PageRank {
                damping: 0.85,
                iterations: iters,
            },
            &g,
            probe,
            blocks,
        ),
        "bfs" => tune_app(&Bfs { source }, &g, probe, blocks),
        "sssp" => tune_app(&Sssp { source }, &g, probe, blocks),
        "toposort" => tune_app(&TopoSort::new(&g), &g, probe, blocks),
        "wcc" => tune_app(&Wcc::new(&g), &g, probe, blocks),
        other => Err(format!(
            "cannot tune app {other:?} (semicluster uses the object path)"
        )),
    }
}

fn tune_app<P: VertexProgram>(
    program: &P,
    g: &Csr,
    probe: usize,
    blocks: usize,
) -> Result<(), String> {
    let mic = DeviceSpec::xeon_phi_se10p();
    let candidates = default_pipeline_candidates(&mic);
    let split = tune_pipeline(program, g, &mic, &candidates, probe);
    outln!(
        "pipeline split: {} workers + {} movers (probe {:.6}s; candidates {:?})",
        split.workers,
        split.movers,
        split.predicted,
        candidates
    );

    let mut mic_cfg = EngineConfig::pipelined();
    mic_cfg.sim_workers = split.workers;
    mic_cfg.sim_movers = split.movers;
    let tuned = tune_ratio(
        program,
        g,
        [DeviceSpec::xeon_e5_2680(), mic],
        [EngineConfig::locking(), mic_cfg],
        PcieLink::gen2_x16(),
        &default_ratio_candidates(),
        blocks,
        probe,
    );
    outln!(
        "partitioning ratio: {} (probe {:.6}s over {blocks} hybrid blocks)",
        tuned.ratio,
        tuned.predicted
    );
    outln!(
        "re-run with: run {} <graph> --hetero --ratio {}",
        P::NAME,
        tuned.ratio
    );
    Ok(())
}
