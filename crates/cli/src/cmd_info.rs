//! `phigraph info` — inspect a graph file.

use crate::args::Args;
use crate::cmd_generate::load_graph;
use crate::out::outln;
use phigraph_graph::analysis::{degree_assortativity, diameter_estimate, reciprocity};
use phigraph_graph::degree::{log2_histogram, top_k};
use phigraph_graph::validation::{self, weakly_connected_components};
use phigraph_graph::DegreeStats;

/// The flags `info` accepts; any other is an error.
const FLAGS: &[&str] = &[];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let path = args.pos(0, "graph")?;
    let g = load_graph(path)?;
    g.validate().map_err(|e| format!("invalid graph: {e}"))?;

    outln!("graph      {path}");
    outln!("vertices   {}", g.num_vertices());
    outln!("edges      {}", g.num_edges());
    outln!("weighted   {}", g.weights.is_some());
    outln!("self-loops {}", validation::self_loops(&g));
    outln!("components {}", weakly_connected_components(&g));
    outln!(
        "diameter   ≥{} (double-sweep estimate)",
        diameter_estimate(&g, 0)
    );
    outln!(
        "assortativity {:.3}   reciprocity {:.3}",
        degree_assortativity(&g),
        reciprocity(&g)
    );

    let out = DegreeStats::out_degrees(&g);
    let ind = DegreeStats::in_degrees(&g);
    outln!(
        "out-degree min {} max {} mean {:.2} cv {:.2} gini {:.2} top1% {:.1}%",
        out.min,
        out.max,
        out.mean,
        out.cv,
        out.gini,
        out.top1pct_share * 100.0
    );
    outln!(
        "in-degree  min {} max {} mean {:.2} cv {:.2} gini {:.2} top1% {:.1}%",
        ind.min,
        ind.max,
        ind.mean,
        ind.cv,
        ind.gini,
        ind.top1pct_share * 100.0
    );

    outln!("\nout-degree histogram (log2 buckets):");
    let hist = log2_histogram(&g.out_degrees());
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    for (b, &count) in hist.iter().enumerate() {
        let lo = if b == 0 { 0 } else { 1usize << (b - 1) };
        let hi = (1usize << b).saturating_sub(1);
        let bar = "#".repeat((count * 40).div_ceil(max));
        outln!("  [{lo:>6}-{hi:>6}] {count:>8} {bar}");
    }

    outln!("\ntop-5 out-degree hubs:");
    for (v, d) in top_k(&g.out_degrees(), 5) {
        outln!("  vertex {v:>8}  degree {d}");
    }
    Ok(())
}
