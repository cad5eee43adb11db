//! `phigraph partition` — produce the paper's partitioning file.

use crate::args::Args;
use crate::cmd_generate::load_graph;
use crate::out::outln;
use phigraph_partition::file::write_partition;
use phigraph_partition::{partition, PartitionScheme, PartitionStats, Ratio};
use std::fs::File;

/// The flags `partition` accepts; any other is an error.
const FLAGS: &[&str] = &["blocks", "ratio", "scheme", "seed"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let graph_path = args.pos(0, "graph")?;
    let out = args.pos(1, "out")?;
    let scheme = match args.flag_or("scheme", "hybrid") {
        "continuous" => PartitionScheme::Continuous,
        "round-robin" => PartitionScheme::RoundRobin,
        "hybrid" => PartitionScheme::Hybrid {
            blocks: args.flag_parse("blocks", 256usize)?,
        },
        other => return Err(format!("unknown scheme {other:?}")),
    };
    let ratio: Ratio = args.flag_or("ratio", "1:1").parse()?;
    let seed: u64 = args.flag_parse("seed", 7u64)?;

    let g = load_graph(graph_path)?;
    let p = partition(&g, scheme, ratio, seed);
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_partition(&p, f).map_err(|e| format!("write {out}: {e}"))?;

    let stats = PartitionStats::compute(&g, &p);
    outln!(
        "partitioned {} vertices with {} @ {ratio} -> {out}",
        g.num_vertices(),
        scheme.name()
    );
    outln!(
        "  CPU: {} vertices / {} edges   MIC: {} vertices / {} edges",
        stats.vertices[0],
        stats.edges[0],
        stats.vertices[1],
        stats.edges[1]
    );
    outln!(
        "  cross edges {} ({:.1}%), edge-balance error {:.3}",
        stats.cross_edges,
        stats.cross_fraction() * 100.0,
        stats.edge_balance_error(ratio)
    );
    Ok(())
}
