//! Heterogeneous CPU-MIC execution must compute exactly what a single
//! device computes, for every application, partitioning scheme, and ratio —
//! and its communication accounting must reflect the partition's cross-edge
//! structure.

use phigraph_apps::{workloads, Bfs, PageRank, SemiClustering, Sssp, TopoSort};
use phigraph_comm::PcieLink;
use phigraph_core::engine::obj::{run_obj_ranks, run_obj_single};
use phigraph_core::engine::{run_ranks, run_single, EngineConfig};
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;
use phigraph_partition::{partition, partition_n, PartitionScheme, Ratio, Shares};

fn specs() -> [DeviceSpec; 2] {
    [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()]
}

fn hetero_configs() -> [EngineConfig; 2] {
    // The paper's best heterogeneous setup: locking on the CPU, pipelining
    // on the MIC.
    [
        EngineConfig::locking(),
        EngineConfig::pipelined().with_host_threads(4),
    ]
}

fn schemes() -> Vec<PartitionScheme> {
    vec![
        PartitionScheme::Continuous,
        PartitionScheme::RoundRobin,
        PartitionScheme::Hybrid { blocks: 32 },
    ]
}

fn check_hetero<P>(program: &P, graph: &Csr)
where
    P: phigraph_core::api::VertexProgram,
    P::Value: PartialEq + std::fmt::Debug,
{
    let single = run_single(
        program,
        graph,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::locking(),
    );
    for scheme in schemes() {
        for ratio in [Ratio::even(), Ratio::new(3, 5), Ratio::new(4, 1)] {
            let p = partition(graph, scheme, ratio, 7);
            let out = run_ranks(
                program,
                graph,
                &p,
                &specs(),
                &hetero_configs(),
                PcieLink::gen2_x16(),
            );
            assert_eq!(
                out.values,
                single.values,
                "{} at {ratio} diverged",
                scheme.name()
            );
        }
    }
}

#[test]
fn pagerank_hetero_correct() {
    // Numeric (not bitwise) comparison: heterogeneous execution combines
    // remote f32 sums in a different association order.
    let g = workloads::pokec_like(workloads::Scale::Tiny, 21);
    let pr = PageRank {
        damping: 0.85,
        iterations: 5,
    };
    let single = run_single(
        &pr,
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::locking(),
    );
    for scheme in schemes() {
        for ratio in [Ratio::even(), Ratio::new(3, 5)] {
            let p = partition(&g, scheme, ratio, 7);
            let out = run_ranks(
                &pr,
                &g,
                &p,
                &specs(),
                &hetero_configs(),
                PcieLink::gen2_x16(),
            );
            for v in 0..g.num_vertices() {
                assert!(
                    (out.values[v] - single.values[v]).abs() < 1e-3,
                    "{} at {ratio}, vertex {v}: {} vs {}",
                    scheme.name(),
                    out.values[v],
                    single.values[v]
                );
            }
        }
    }
}

#[test]
fn bfs_hetero_correct() {
    let g = workloads::pokec_like(workloads::Scale::Tiny, 22);
    check_hetero(&Bfs { source: 0 }, &g);
}

#[test]
fn sssp_hetero_correct() {
    let g = workloads::pokec_like_weighted(workloads::Scale::Tiny, 23);
    check_hetero(&Sssp { source: 0 }, &g);
}

#[test]
fn toposort_hetero_correct() {
    let g = workloads::toposort_dag(workloads::Scale::Tiny, 24);
    check_hetero(&TopoSort::new(&g), &g);
}

#[test]
fn wcc_hetero_correct() {
    use phigraph_apps::Wcc;
    let g = workloads::pokec_like(workloads::Scale::Tiny, 29);
    check_hetero(&Wcc::new(&g), &g);
}

#[test]
fn kcore_hetero_correct() {
    use phigraph_apps::KCore;
    let g = workloads::pokec_like(workloads::Scale::Tiny, 30);
    check_hetero(&KCore::new(&g, 4), &g);
}

#[test]
fn semicluster_hetero_correct() {
    let (g, _) = workloads::dblp_like(workloads::Scale::Tiny, 25);
    let sc = SemiClustering::default();
    let single = run_obj_single(
        &sc,
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::locking(),
    );
    for scheme in schemes() {
        let p = partition(&g, scheme, Ratio::new(2, 1), 3);
        let out = run_obj_ranks(
            &sc,
            &g,
            &p,
            &specs(),
            &[EngineConfig::locking(), EngineConfig::locking()],
            PcieLink::gen2_x16(),
        );
        assert_eq!(out.values, single.values, "{}", scheme.name());
    }
}

#[test]
fn semicluster_three_and_four_rank_fabrics_correct() {
    // Object messages run on any fabric size: rank 0 locks, ranks 1..
    // pipeline, and every rank combines per destination link.
    let (g, _) = workloads::dblp_like(workloads::Scale::Tiny, 25);
    let sc = SemiClustering::default();
    let single = run_obj_single(
        &sc,
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::locking(),
    );
    for n in [3usize, 4] {
        for scheme in [
            PartitionScheme::RoundRobin,
            PartitionScheme::Hybrid { blocks: 32 },
        ] {
            let p = partition_n(&g, scheme, &Shares::even(n), 3);
            let mut configs = vec![EngineConfig::pipelined().with_host_threads(2); n];
            configs[0] = EngineConfig::locking();
            let specs: Vec<DeviceSpec> = (0..n).map(|r| specs()[r.min(1)].clone()).collect();
            let out = run_obj_ranks(&sc, &g, &p, &specs, &configs, PcieLink::gen2_x16());
            assert_eq!(out.values, single.values, "{n} ranks, {}", scheme.name());
            assert_eq!(out.device_reports.len(), n);
            assert!(out.report.total_comm_bytes() > 0, "{n} ranks");
        }
    }
}

/// `omp` runs on a fabric like any other `DeviceEngine` mode: ranks 1..
/// on the flat engine compute what the all-`lock` fabric computes.
#[test]
fn omp_ranks_match_the_lock_fabric() {
    use phigraph_apps::Wcc;
    fn check<P>(program: &P, graph: &Csr)
    where
        P: phigraph_core::api::VertexProgram,
        P::Value: PartialEq + std::fmt::Debug,
    {
        for n in [2usize, 3] {
            let p = partition_n(graph, PartitionScheme::RoundRobin, &Shares::even(n), 7);
            let specs: Vec<DeviceSpec> = (0..n).map(|r| specs()[r.min(1)].clone()).collect();
            let run = |mic: EngineConfig| {
                let mut configs = vec![mic; n];
                configs[0] = EngineConfig::locking();
                run_ranks(program, graph, &p, &specs, &configs, PcieLink::gen2_x16())
            };
            let lock = run(EngineConfig::locking());
            let omp = run(EngineConfig::flat());
            assert_eq!(omp.values, lock.values, "{} on {n} ranks", P::NAME);
            assert!(omp.report.sim_total() > 0.0);
        }
    }
    check(
        &Sssp { source: 0 },
        &workloads::pokec_like_weighted(workloads::Scale::Tiny, 31),
    );
    check(
        &Bfs { source: 0 },
        &workloads::pokec_like(workloads::Scale::Tiny, 32),
    );
    let g = workloads::pokec_like(workloads::Scale::Tiny, 33);
    check(&Wcc::new(&g), &g);
}

/// `pipe` ranks fill their buffers on the locking engine's host path too
/// (only the cost model charges the worker/mover pipeline): ranks 1.. on
/// the pipelined engine compute the all-`lock` fabric's bits, f32 sums
/// included.
#[test]
fn pipe_ranks_match_the_lock_fabric_bit_for_bit() {
    use phigraph_apps::Wcc;
    use phigraph_graph::state::PodState;
    fn check<P>(program: &P, graph: &Csr)
    where
        P: phigraph_core::api::VertexProgram,
        P::Value: PodState,
    {
        let bits = |values: &[P::Value]| {
            let mut out = Vec::new();
            for v in values {
                v.write_le(&mut out);
            }
            out
        };
        for n in [2usize, 3] {
            let p = partition_n(graph, PartitionScheme::RoundRobin, &Shares::even(n), 7);
            let specs: Vec<DeviceSpec> = (0..n).map(|r| specs()[r.min(1)].clone()).collect();
            let run = |mic: EngineConfig| {
                let mut configs = vec![mic; n];
                configs[0] = EngineConfig::locking();
                run_ranks(program, graph, &p, &specs, &configs, PcieLink::gen2_x16())
            };
            let lock = run(EngineConfig::locking());
            let pipe = run(EngineConfig::pipelined());
            assert!(
                bits(&pipe.values) == bits(&lock.values),
                "{} on {n} ranks",
                P::NAME
            );
            assert!(pipe.report.sim_total() > 0.0);
        }
    }
    let g = workloads::pokec_like(workloads::Scale::Tiny, 34);
    check(
        &PageRank {
            damping: 0.85,
            iterations: 5,
        },
        &g,
    );
    check(
        &Sssp { source: 0 },
        &workloads::pokec_like_weighted(workloads::Scale::Tiny, 31),
    );
    check(
        &Bfs { source: 0 },
        &workloads::pokec_like(workloads::Scale::Tiny, 32),
    );
    let g = workloads::pokec_like(workloads::Scale::Tiny, 33);
    check(&Wcc::new(&g), &g);
}

#[test]
fn hybrid_partitioning_moves_fewer_bytes_than_round_robin() {
    // The Fig. 6 communication story, end to end through the runtime.
    let g = workloads::pokec_like(workloads::Scale::Tiny, 26);
    let pr = PageRank {
        damping: 0.85,
        iterations: 5,
    };
    let ratio = Ratio::even();
    let run = |scheme| {
        let p = partition(&g, scheme, ratio, 7);
        run_ranks(
            &pr,
            &g,
            &p,
            &specs(),
            &hetero_configs(),
            PcieLink::gen2_x16(),
        )
        .report
        .total_comm_bytes()
    };
    let rr = run(PartitionScheme::RoundRobin);
    let hy = run(PartitionScheme::Hybrid { blocks: 32 });
    assert!(
        hy < rr,
        "hybrid bytes {hy} should undercut round-robin bytes {rr}"
    );
}

#[test]
fn remote_combining_reduces_message_count() {
    // PageRank fan-in across the device boundary: many raw remote messages
    // per destination collapse to one after combining.
    let g = workloads::pokec_like(workloads::Scale::Tiny, 27);
    let pr = PageRank {
        damping: 0.85,
        iterations: 3,
    };
    let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 1);
    let out = run_ranks(
        &pr,
        &g,
        &p,
        &specs(),
        &hetero_configs(),
        PcieLink::gen2_x16(),
    );
    let before: u64 = out
        .device_reports
        .iter()
        .flat_map(|r| &r.steps)
        .map(|s| s.counters.remote_before_combine)
        .sum();
    let after: u64 = out
        .device_reports
        .iter()
        .flat_map(|r| &r.steps)
        .map(|s| s.counters.remote_after_combine)
        .sum();
    assert!(after > 0);
    assert!(
        after * 2 < before,
        "combining should at least halve remote traffic: {before} -> {after}"
    );
}

#[test]
fn one_sided_partition_degenerates_to_single_device() {
    let g = workloads::pokec_like_weighted(workloads::Scale::Tiny, 28);
    let p = partition(&g, PartitionScheme::Continuous, Ratio::new(1, 0), 0);
    let out = run_ranks(
        &Sssp { source: 0 },
        &g,
        &p,
        &specs(),
        &hetero_configs(),
        PcieLink::gen2_x16(),
    );
    let single = run_single(
        &Sssp { source: 0 },
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::locking(),
    );
    assert_eq!(out.values, single.values);
    assert_eq!(
        out.report.total_comm_bytes(),
        0,
        "nothing should cross the bus"
    );
}
