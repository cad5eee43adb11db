//! Cross-engine equivalence: every application must produce identical
//! results under every execution strategy, device model, vectorization
//! setting, and column-mapping mode. The execution strategies are
//! performance techniques (§IV), not semantics — any divergence is a bug.

use phigraph_apps::{workloads, Bfs, PageRank, Sssp, TopoSort};
use phigraph_core::csb::ColumnMode;
use phigraph_core::engine::{run_single, EngineConfig};
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;

fn all_configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("lock", EngineConfig::locking()),
        (
            "lock-scalar",
            EngineConfig::locking().with_vectorized(false),
        ),
        (
            "lock-one2one",
            EngineConfig::locking().with_column_mode(ColumnMode::OneToOne),
        ),
        ("lock-k1", EngineConfig::locking().with_k(1)),
        ("lock-k8", EngineConfig::locking().with_k(8)),
        ("pipe", EngineConfig::pipelined().with_host_threads(6)),
        (
            "pipe-scalar",
            EngineConfig::pipelined()
                .with_host_threads(3)
                .with_vectorized(false),
        ),
        // Batched-transport corner cases: per-message degenerate batch,
        // a ragged batch that never divides the ring, and a batch exactly
        // equal to the ring capacity (every flush fills the whole ring).
        (
            "pipe-batch1",
            EngineConfig::pipelined()
                .with_host_threads(4)
                .with_pipe_batch(1),
        ),
        (
            "pipe-batch7",
            EngineConfig::pipelined()
                .with_host_threads(4)
                .with_pipe_batch(7),
        ),
        (
            "pipe-batchcap",
            EngineConfig::pipelined()
                .with_host_threads(4)
                .with_queue_cap(64)
                .with_pipe_batch(64),
        ),
        ("omp", EngineConfig::flat()),
        ("seq", EngineConfig::sequential()),
    ]
}

fn devices() -> Vec<DeviceSpec> {
    vec![DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()]
}

fn check_all<P>(program: &P, graph: &Csr)
where
    P: phigraph_core::api::VertexProgram,
    P::Value: PartialEq + std::fmt::Debug,
{
    let baseline = run_single(
        program,
        graph,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::sequential(),
    );
    for spec in devices() {
        for (name, config) in all_configs() {
            let out = run_single(program, graph, spec.clone(), &config);
            assert_eq!(
                out.values, baseline.values,
                "engine {name} on {} diverged",
                spec.name
            );
        }
    }
}

#[test]
fn pagerank_equivalence() {
    // PageRank reduces with f32 sums, whose result depends on association
    // order. The locking engine stages and drains its insertions so every
    // column holds its messages in source order, the sequential order: its
    // configs, and the flat engine that runs on the same host path, must
    // match `seq` bit for bit. The pipelined engine accumulates in
    // thread-arrival order, so it matches numerically.
    let g = workloads::pokec_like(workloads::Scale::Tiny, 11);
    let pr = PageRank {
        damping: 0.85,
        iterations: 5,
    };
    let baseline = run_single(
        &pr,
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::sequential(),
    );
    for spec in devices() {
        for (name, config) in all_configs() {
            let out = run_single(&pr, &g, spec.clone(), &config);
            if name.starts_with("lock") || name == "omp" {
                let bits = |vals: &[f32]| vals.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&out.values) == bits(&baseline.values),
                    "engine {name} on {} is not bit-identical to seq",
                    spec.name
                );
            }
            for v in 0..g.num_vertices() {
                assert!(
                    (out.values[v] - baseline.values[v]).abs() < 1e-3,
                    "engine {name} on {} diverged at vertex {v}: {} vs {}",
                    spec.name,
                    out.values[v],
                    baseline.values[v]
                );
            }
        }
    }
}

#[test]
fn bfs_equivalence() {
    let g = workloads::pokec_like(workloads::Scale::Tiny, 12);
    check_all(&Bfs { source: 0 }, &g);
}

#[test]
fn sssp_equivalence() {
    let g = workloads::pokec_like_weighted(workloads::Scale::Tiny, 13);
    check_all(&Sssp { source: 0 }, &g);
}

#[test]
fn toposort_equivalence() {
    let g = workloads::toposort_dag(workloads::Scale::Tiny, 14);
    check_all(&TopoSort::new(&g), &g);
}

#[test]
fn wcc_equivalence() {
    use phigraph_apps::Wcc;
    let g = workloads::pokec_like(workloads::Scale::Tiny, 18);
    check_all(&Wcc::new(&g), &g);
}

#[test]
fn kcore_equivalence() {
    use phigraph_apps::KCore;
    let g = workloads::pokec_like(workloads::Scale::Tiny, 19);
    check_all(&KCore::new(&g, 4), &g);
}

#[test]
fn semicluster_equivalence_across_engines() {
    use phigraph_apps::SemiClustering;
    use phigraph_core::engine::obj::run_obj_single;
    let (g, _) = workloads::dblp_like(workloads::Scale::Tiny, 15);
    let sc = SemiClustering::default();
    let baseline = run_obj_single(
        &sc,
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::sequential(),
    );
    for spec in devices() {
        for (name, config) in [
            ("lock", EngineConfig::locking()),
            ("pipe", EngineConfig::pipelined().with_host_threads(6)),
            ("omp", EngineConfig::flat()),
        ] {
            let out = run_obj_single(&sc, &g, spec.clone(), &config);
            assert_eq!(
                out.values, baseline.values,
                "obj engine {name} on {}",
                spec.name
            );
        }
    }
}

#[test]
fn equivalence_is_thread_count_independent() {
    let g = workloads::pokec_like_weighted(workloads::Scale::Tiny, 16);
    let p = Sssp { source: 3 };
    let base = run_single(
        &p,
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::locking().with_host_threads(1),
    );
    for threads in [2, 3, 5, 8] {
        let out = run_single(
            &p,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking().with_host_threads(threads),
        );
        assert_eq!(out.values, base.values, "threads={threads}");
        let pipe = run_single(
            &p,
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::pipelined().with_host_threads(threads),
        );
        assert_eq!(pipe.values, base.values, "pipe threads={threads}");
    }
}

/// The batched queue protocol is pure transport: for batch sizes 1 (the
/// per-message degenerate case), 7 (ragged — never divides the ring or the
/// wavefront), and exactly the ring capacity (every flush wraps the full
/// ring), the pipelined engine must match the sequential and flat engines
/// bit-for-bit on BFS and WCC, and numerically on PageRank (f32 sum order).
#[test]
fn pipe_batch_sizes_do_not_change_results() {
    let batches: [(&str, EngineConfig); 3] = [
        (
            "batch=1",
            EngineConfig::pipelined()
                .with_host_threads(4)
                .with_pipe_batch(1),
        ),
        (
            "batch=7",
            EngineConfig::pipelined()
                .with_host_threads(4)
                .with_pipe_batch(7),
        ),
        (
            "batch=cap",
            EngineConfig::pipelined()
                .with_host_threads(4)
                .with_queue_cap(32)
                .with_pipe_batch(32),
        ),
    ];

    // BFS and WCC: bitwise equality against sequential AND flat.
    let g = workloads::pokec_like(workloads::Scale::Tiny, 21);
    let spec = DeviceSpec::xeon_e5_2680();
    {
        let p = Bfs { source: 0 };
        let seq = run_single(&p, &g, spec.clone(), &EngineConfig::sequential());
        let flat = run_single(&p, &g, spec.clone(), &EngineConfig::flat());
        assert_eq!(seq.values, flat.values, "bfs: flat vs seq");
        for (name, cfg) in &batches {
            let out = run_single(&p, &g, spec.clone(), cfg);
            assert_eq!(out.values, seq.values, "bfs {name}");
        }
    }
    {
        use phigraph_apps::Wcc;
        let p = Wcc::new(&g);
        let seq = run_single(&p, &g, spec.clone(), &EngineConfig::sequential());
        let flat = run_single(&p, &g, spec.clone(), &EngineConfig::flat());
        assert_eq!(seq.values, flat.values, "wcc: flat vs seq");
        for (name, cfg) in &batches {
            let out = run_single(&p, &g, spec.clone(), cfg);
            assert_eq!(out.values, seq.values, "wcc {name}");
        }
    }
    // PageRank: numeric equality (f32 reduction order varies per engine).
    {
        let p = PageRank {
            damping: 0.85,
            iterations: 5,
        };
        let seq = run_single(&p, &g, spec.clone(), &EngineConfig::sequential());
        for (name, cfg) in &batches {
            let out = run_single(&p, &g, spec.clone(), cfg);
            for v in 0..g.num_vertices() {
                assert!(
                    (out.values[v] - seq.values[v]).abs() < 1e-3,
                    "pagerank {name} diverged at vertex {v}"
                );
            }
        }
    }
}

#[test]
fn gen_chunk_size_does_not_change_results() {
    let g = workloads::pokec_like(workloads::Scale::Tiny, 17);
    let p = Bfs { source: 2 };
    let base = run_single(&p, &g, DeviceSpec::xeon_e5_2680(), &EngineConfig::locking());
    for chunk in [1, 7, 64, 100_000] {
        let out = run_single(
            &p,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking().with_gen_chunk(chunk),
        );
        assert_eq!(out.values, base.values, "gen_chunk={chunk}");
    }
}
