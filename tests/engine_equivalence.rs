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
    // order. Every framework mode fills the buffer on the locking engine's
    // host path, so every column holds its messages in source order, the
    // sequential order: every config must match `seq` bit for bit.
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
    let bits = |vals: &[f32]| vals.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for spec in devices() {
        for (name, config) in all_configs() {
            let out = run_single(&pr, &g, spec.clone(), &config);
            assert!(
                bits(&out.values) == bits(&baseline.values),
                "engine {name} on {} is not bit-identical to seq",
                spec.name
            );
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
