//! Heterogeneous CPU+MIC execution: SSSP over a weighted power-law graph,
//! split across both modelled devices with the paper's hybrid partitioning.
//! Prints the per-device timeline and the communication profile.
//!
//! ```sh
//! cargo run --release -p phigraph-apps --example heterogeneous_sssp [scale]
//! ```

use phigraph_apps::workloads::{self, Scale};
use phigraph_apps::Sssp;
use phigraph_comm::PcieLink;
use phigraph_core::engine::{run_ranks, run_single, EngineConfig};
use phigraph_device::DeviceSpec;
use phigraph_partition::{partition, PartitionScheme, PartitionStats, Ratio};

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Tiny);
    let graph = workloads::pokec_like_weighted(scale, 7);
    println!(
        "weighted pokec-like graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Hybrid partitioning at the paper's SSSP ratio (1:1).
    let ratio = Ratio::new(1, 1);
    let p = partition(&graph, PartitionScheme::hybrid_default(), ratio, 7);
    let stats = PartitionStats::compute(&graph, &p);
    println!(
        "hybrid partition @ {ratio}: CPU {} edges / MIC {} edges, {} cross edges ({:.1}%)",
        stats.edges[0],
        stats.edges[1],
        stats.cross_edges,
        stats.cross_fraction() * 100.0
    );

    let program = Sssp { source: 0 };
    let specs = [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()];
    let configs = [EngineConfig::locking(), EngineConfig::pipelined()];
    let out = run_ranks(&program, &graph, &p, &specs, &configs, PcieLink::gen2_x16());

    println!("\nper-superstep timeline (simulated seconds):");
    println!(
        "{:<6}{:>12}{:>12}{:>10}{:>14}",
        "step", "CPU exec", "MIC exec", "comm", "remote msgs"
    );
    for (a, b) in out.device_reports[0]
        .steps
        .iter()
        .zip(&out.device_reports[1].steps)
    {
        println!(
            "{:<6}{:>12.6}{:>12.6}{:>10.6}{:>14}",
            a.step,
            a.times.total,
            b.times.total,
            a.comm_time,
            a.counters.remote_after_combine + b.counters.remote_after_combine,
        );
        if a.step >= 9 {
            println!(
                "  … ({} more steps)",
                out.device_reports[0].steps.len().saturating_sub(10)
            );
            break;
        }
    }

    println!(
        "\nCPU-MIC total: exec {:.4}s + comm {:.4}s = {:.4}s  ({} wire bytes moved)",
        out.report.sim_exec(),
        out.report.sim_comm(),
        out.report.sim_total(),
        out.report.total_comm_bytes(),
    );

    // Compare against the better single-device execution.
    let cpu = run_single(
        &program,
        &graph,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::locking(),
    );
    let mic = run_single(
        &program,
        &graph,
        DeviceSpec::xeon_phi_se10p(),
        &EngineConfig::pipelined(),
    );
    let best = cpu.report.sim_total().min(mic.report.sim_total());
    println!(
        "single-device: CPU {:.4}s, MIC {:.4}s -> CPU-MIC speedup over best single: {:.2}x",
        cpu.report.sim_total(),
        mic.report.sim_total(),
        best / out.report.sim_total(),
    );
    assert_eq!(
        out.values, cpu.values,
        "heterogeneous result must match single device"
    );
    println!("results verified identical across configurations ✓");
}
