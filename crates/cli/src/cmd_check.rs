//! `phigraph check` — run an application through the BSP contract checker
//! (out-of-range destinations, capacity overruns, non-finite messages,
//! non-termination) before committing to a full parallel run.

use crate::args::Args;
use crate::cmd_generate::load_graph;
use crate::out::outln;
use phigraph_apps::{Bfs, KCore, PageRank, Sssp, TopoSort, Wcc};
use phigraph_core::api::VertexProgram;
use phigraph_core::check::{check_program, CheckReport};
use phigraph_graph::Csr;

/// The flags `check` accepts; any other is an error.
const FLAGS: &[&str] = &["iters", "k", "source", "step-budget"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let app = args.pos(0, "app")?.to_string();
    let graph_path = args.pos(1, "graph")?;
    let g = load_graph(graph_path)?;
    let budget: usize = args.flag_parse("step-budget", 10_000usize)?;
    let source: u32 = args.flag_parse("source", 0u32)?;
    let iters: usize = args.flag_parse("iters", 20usize)?;

    let report = match app.as_str() {
        "pagerank" => check(
            &PageRank {
                damping: 0.85,
                iterations: iters,
            },
            &g,
            budget,
        ),
        "bfs" => check(&Bfs { source }, &g, budget),
        "sssp" => check(&Sssp { source }, &g, budget),
        "toposort" => check(&TopoSort::new(&g), &g, budget),
        "wcc" => check(&Wcc::new(&g), &g, budget),
        "kcore" => {
            let k: u32 = args.flag_parse("k", 2u32)?;
            check(&KCore::new(&g, k), &g, budget)
        }
        other => return Err(format!("cannot check app {other:?}")),
    };

    outln!(
        "checked {} supersteps, {} messages",
        report.supersteps,
        report.messages
    );
    if report.is_clean() {
        outln!("contract check: CLEAN");
        Ok(())
    } else {
        for v in &report.violations {
            outln!("violation: {v:?}");
        }
        Err(format!("{} contract violations", report.violations.len()))
    }
}

fn check<P: VertexProgram>(program: &P, g: &Csr, budget: usize) -> CheckReport {
    check_program(program, g, budget)
}
