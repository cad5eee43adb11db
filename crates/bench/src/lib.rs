#![warn(missing_docs)]
//! Shared experiment harness for the paper reproduction.
//!
//! Every table and figure of the paper's §V maps to a function here (see
//! DESIGN.md §4 for the index); the `reproduce` binary and the micro-
//! benches are thin wrappers over these. All reported times are *simulated*
//! device times from the cost model (the real product of this
//! reproduction); the vendored [`harness`] additionally tracks host
//! wall-clock for regressions.

pub mod areas;
pub mod fig5;
pub mod fig6;
pub mod harness;
pub mod perf;
pub mod report;
pub mod runner;
pub mod tab2;

use phigraph_apps::workloads::{self, Scale};
use phigraph_apps::{Bfs, PageRank, SemiClustering, Sssp, TopoSort};
use phigraph_comm::PcieLink;
use phigraph_core::engine::obj::{run_obj_ranks, run_obj_single};
use phigraph_core::engine::{run_ranks, run_single, EngineConfig};
use phigraph_core::metrics::RunReport;
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;
use phigraph_partition::{partition, DevicePartition, PartitionScheme, Ratio};

/// The five evaluated applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppId {
    /// PageRank on the pokec-like graph.
    PageRank,
    /// BFS on the pokec-like graph.
    Bfs,
    /// Semi-Clustering on the dblp-like graph.
    SemiCluster,
    /// SSSP on the weighted pokec-like graph.
    Sssp,
    /// Topological sort on the dense DAG.
    TopoSort,
}

/// All applications in the paper's figure order.
pub const ALL_APPS: [AppId; 5] = [
    AppId::PageRank,
    AppId::Bfs,
    AppId::SemiCluster,
    AppId::Sssp,
    AppId::TopoSort,
];

impl AppId {
    /// Application name.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::PageRank => "pagerank",
            AppId::Bfs => "bfs",
            AppId::SemiCluster => "semicluster",
            AppId::Sssp => "sssp",
            AppId::TopoSort => "toposort",
        }
    }

    /// The CPU:MIC partitioning ratio the paper reports as best for this
    /// application (§V.C).
    pub fn paper_ratio(&self) -> Ratio {
        match self {
            AppId::PageRank => Ratio::new(3, 5),
            AppId::Bfs => Ratio::new(4, 3),
            AppId::SemiCluster => Ratio::new(2, 1),
            AppId::Sssp => Ratio::new(1, 1),
            AppId::TopoSort => Ratio::new(1, 4),
        }
    }

    /// The paper's figure id for the app's Fig. 5 panel.
    pub fn fig5_panel(&self) -> &'static str {
        match self {
            AppId::PageRank => "fig5a",
            AppId::Bfs => "fig5b",
            AppId::SemiCluster => "fig5c",
            AppId::Sssp => "fig5d",
            AppId::TopoSort => "fig5e",
        }
    }
}

/// Execution variants of Fig. 5 (plus the Table II sequential rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// OpenMP baseline on the CPU.
    CpuOmp,
    /// Framework, locking insertion, CPU.
    CpuLock,
    /// Framework, pipelined generation, CPU.
    CpuPipe,
    /// OpenMP baseline on the MIC.
    MicOmp,
    /// Framework, locking insertion, MIC.
    MicLock,
    /// Framework, pipelined generation, MIC.
    MicPipe,
    /// Heterogeneous CPU-MIC with hybrid partitioning at the paper ratio.
    CpuMic,
    /// One CPU core.
    CpuSeq,
    /// One MIC core.
    MicSeq,
}

/// The Fig. 5 bar order.
pub const FIG5_VARIANTS: [Variant; 7] = [
    Variant::CpuOmp,
    Variant::CpuLock,
    Variant::CpuPipe,
    Variant::MicOmp,
    Variant::MicLock,
    Variant::MicPipe,
    Variant::CpuMic,
];

impl Variant {
    /// Bar label as in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::CpuOmp => "CPU OMP",
            Variant::CpuLock => "CPU Lock",
            Variant::CpuPipe => "CPU Pipe",
            Variant::MicOmp => "MIC OMP",
            Variant::MicLock => "MIC Lock",
            Variant::MicPipe => "MIC Pipe",
            Variant::CpuMic => "CPU-MIC",
            Variant::CpuSeq => "CPU Seq",
            Variant::MicSeq => "MIC Seq",
        }
    }

    fn device(&self) -> DeviceSpec {
        match self {
            Variant::CpuOmp | Variant::CpuLock | Variant::CpuPipe | Variant::CpuSeq => {
                DeviceSpec::xeon_e5_2680()
            }
            _ => DeviceSpec::xeon_phi_se10p(),
        }
    }

    fn config(&self) -> EngineConfig {
        match self {
            Variant::CpuOmp | Variant::MicOmp => EngineConfig::flat(),
            Variant::CpuLock | Variant::MicLock => EngineConfig::locking(),
            Variant::CpuPipe | Variant::MicPipe => EngineConfig::pipelined(),
            Variant::CpuSeq | Variant::MicSeq => EngineConfig::sequential(),
            Variant::CpuMic => EngineConfig::locking(),
        }
    }
}

/// PageRank iterations used throughout the evaluation.
pub const PAGERANK_ITERS: usize = 10;

/// A prepared experiment environment: the per-app workloads at one scale.
pub struct Workbench {
    /// Workload scale.
    pub scale: Scale,
    /// Pokec-like graph (PageRank / BFS).
    pub pokec: Csr,
    /// Weighted pokec-like graph (SSSP).
    pub pokec_weighted: Csr,
    /// DBLP-like community graph (Semi-Clustering).
    pub dblp: Csr,
    /// Dense DAG (TopoSort).
    pub dag: Csr,
}

impl Workbench {
    /// Build all workloads at `scale`.
    pub fn new(scale: Scale) -> Self {
        Workbench {
            scale,
            pokec: workloads::pokec_like(scale, 1),
            pokec_weighted: workloads::pokec_like_weighted(scale, 1),
            dblp: workloads::dblp_like(scale, 2).0,
            dag: workloads::toposort_dag(scale, 3),
        }
    }

    /// The graph an application runs on.
    pub fn graph(&self, app: AppId) -> &Csr {
        match app {
            AppId::PageRank | AppId::Bfs => &self.pokec,
            AppId::Sssp => &self.pokec_weighted,
            AppId::SemiCluster => &self.dblp,
            AppId::TopoSort => &self.dag,
        }
    }

    /// Run one (app, variant) cell and return its report.
    pub fn run(&self, app: AppId, variant: Variant) -> RunReport {
        let g = self.graph(app);
        match variant {
            Variant::CpuMic => {
                let p = partition(g, PartitionScheme::hybrid_default(), app.paper_ratio(), 7);
                self.run_hetero(app, &p)
            }
            _ => self.run_single(app, g, variant.device(), &variant.config()),
        }
    }

    /// Run one app on one device with an explicit configuration.
    pub fn run_single(
        &self,
        app: AppId,
        g: &Csr,
        spec: DeviceSpec,
        config: &EngineConfig,
    ) -> RunReport {
        match app {
            AppId::PageRank => {
                run_single(
                    &PageRank {
                        damping: 0.85,
                        iterations: PAGERANK_ITERS,
                    },
                    g,
                    spec,
                    config,
                )
                .report
            }
            AppId::Bfs => run_single(&Bfs { source: 0 }, g, spec, config).report,
            AppId::Sssp => run_single(&Sssp { source: 0 }, g, spec, config).report,
            AppId::TopoSort => run_single(&TopoSort::new(g), g, spec, config).report,
            AppId::SemiCluster => {
                run_obj_single(&SemiClustering::default(), g, spec, config).report
            }
        }
    }

    /// Run one app heterogeneously over a given partition. The paper's best
    /// setup: locking on the CPU, pipelining on the MIC ("Locking-based
    /// execution was used for CPU … for MIC, pipelining execution was used
    /// except for BFS").
    pub fn run_hetero(&self, app: AppId, p: &DevicePartition) -> RunReport {
        let g = self.graph(app);
        let specs = [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()];
        let mic_cfg = if app == AppId::Bfs {
            EngineConfig::locking()
        } else {
            EngineConfig::pipelined()
        };
        let configs = [EngineConfig::locking(), mic_cfg];
        let link = PcieLink::gen2_x16();
        match app {
            AppId::PageRank => {
                run_ranks(
                    &PageRank {
                        damping: 0.85,
                        iterations: PAGERANK_ITERS,
                    },
                    g,
                    p,
                    &specs,
                    &configs,
                    link,
                )
                .report
            }
            AppId::Bfs => run_ranks(&Bfs { source: 0 }, g, p, &specs, &configs, link).report,
            AppId::Sssp => run_ranks(&Sssp { source: 0 }, g, p, &specs, &configs, link).report,
            AppId::TopoSort => run_ranks(&TopoSort::new(g), g, p, &specs, &configs, link).report,
            AppId::SemiCluster => {
                run_obj_ranks(&SemiClustering::default(), g, p, &specs, &configs, link).report
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_builds_and_runs_each_cell_kind() {
        let wb = Workbench::new(Scale::Tiny);
        let lock = wb.run(AppId::Sssp, Variant::MicLock);
        assert!(lock.sim_total() > 0.0);
        let het = wb.run(AppId::Bfs, Variant::CpuMic);
        assert_eq!(het.device, "CPU-MIC");
        let seq = wb.run(AppId::PageRank, Variant::CpuSeq);
        assert_eq!(seq.mode, "seq");
    }

    #[test]
    fn paper_ratios_are_wired() {
        assert_eq!(AppId::PageRank.paper_ratio(), Ratio::new(3, 5));
        assert_eq!(AppId::TopoSort.paper_ratio(), Ratio::new(1, 4));
    }
}
