//! `phigraph generate` — write workload graphs to disk.

use crate::args::Args;
use crate::out::outln;
use phigraph_apps::workloads::{self, Scale};
use phigraph_graph::generators::erdos_renyi::gnm;
use phigraph_graph::{io, Csr};
use std::fs::File;
use std::path::Path;

/// The flags `generate` accepts; any other is an error.
const FLAGS: &[&str] = &["edges", "scale", "seed", "vertices"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let kind = args.pos(0, "kind")?;
    let out = args.pos(1, "out")?.to_string();
    let scale =
        Scale::parse(args.flag_or("scale", "small")).ok_or("bad --scale (tiny|small|medium)")?;
    let seed: u64 = args.flag_parse("seed", 1u64)?;

    let graph = match kind {
        "pokec" => workloads::pokec_like(scale, seed),
        "pokec-weighted" => workloads::pokec_like_weighted(scale, seed),
        "dblp" => workloads::dblp_like(scale, seed).0,
        "dag" => workloads::toposort_dag(scale, seed),
        "gnm" => {
            let n: usize = args.flag_parse("vertices", 10_000usize)?;
            let m: usize = args.flag_parse("edges", 50_000usize)?;
            gnm(n, m, seed)
        }
        other => return Err(format!("unknown workload kind {other:?}")),
    };
    write_graph(&graph, &out)?;
    outln!(
        "wrote {kind} graph: {} vertices, {} edges -> {out}",
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

pub(crate) fn write_graph(g: &Csr, path: &str) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("adj") => io::write_adjacency(g, f),
        Some("bin") => io::write_binary(g, f),
        other => return Err(format!("output extension {other:?} must be .adj or .bin")),
    }
    .map_err(|e| format!("write {path}: {e}"))
}

pub(crate) fn load_graph(path: &str) -> Result<Csr, String> {
    io::load_path(Path::new(path)).map_err(|e| format!("load {path}: {e}"))
}
