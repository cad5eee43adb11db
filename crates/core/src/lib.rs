#![warn(missing_docs)]
//! The phigraph framework — a Rust reproduction of the graph processing
//! system of *"Efficient and Simplified Parallel Graph Processing over CPU
//! and MIC"* (Chen, Huo, Ren, Jain, Agrawal — IPDPS 2015).
//!
//! The framework executes vertex-centric BSP graph programs on one or two
//! modelled devices (a multi-core Xeon and a many-core Xeon Phi). Each
//! superstep runs three user-visible sub-steps with synchronization between
//! them — **message generation**, **message processing**, and **vertex
//! updating** — over the paper's runtime machinery:
//!
//! * [`csb`] — the **condensed static buffer**: messages stored in aligned
//!   vector arrays, vertices grouped by in-degree, dynamic column
//!   allocation, SIMD message reduction.
//! * [`engine`] — four execution strategies per device (locking insertion,
//!   worker/mover **pipelined** insertion, the flat OpenMP-style baseline,
//!   and a sequential reference), plus the **heterogeneous CPU+MIC** engine
//!   with per-superstep remote exchange.
//! * [`api`] — the three-function programming interface from §III, generic
//!   over POD message types, with the portable SIMD vtypes of
//!   `phigraph_simd` underneath.
//! * [`engine::obj`] — the object-message path for programs whose messages
//!   are not basic SSE types (Semi-Clustering).
//! * [`engine::recover`] — fault tolerance: barrier checkpointing through
//!   `phigraph_recover`, deterministic fault injection, rollback/replay,
//!   and sequential graceful degradation (see `docs/fault_tolerance.md`).
//!
//! # Quick example
//!
//! ```
//! use phigraph_core::api::{GenContext, MsgSink, VertexProgram};
//! use phigraph_core::engine::{run_single, EngineConfig};
//! use phigraph_device::DeviceSpec;
//! use phigraph_graph::generators::small::weighted_diamond;
//! use phigraph_simd::Min;
//!
//! /// Single-source shortest paths, exactly the paper's running example.
//! struct Sssp;
//! impl VertexProgram for Sssp {
//!     type Msg = f32;
//!     type Reduce = Min;
//!     type Value = f32;
//!     const NAME: &'static str = "sssp";
//!     fn init(&self, v: u32, _g: &phigraph_graph::Csr) -> (f32, bool) {
//!         if v == 0 { (0.0, true) } else { (f32::INFINITY, false) }
//!     }
//!     fn generate<S: MsgSink<f32>>(&self, v: u32, ctx: &mut GenContext<'_, f32, S>) {
//!         let my = *ctx.value(v);
//!         for e in ctx.graph.edge_range(v) {
//!             ctx.send(ctx.graph.targets[e], my + ctx.graph.weight(e));
//!         }
//!     }
//!     fn update(&self, _v: u32, msg: f32, value: &mut f32, _g: &phigraph_graph::Csr) -> bool {
//!         if msg < *value { *value = msg; true } else { false }
//!     }
//! }
//!
//! let g = weighted_diamond();
//! let out = run_single(&Sssp, &g, DeviceSpec::xeon_e5_2680(), &EngineConfig::locking());
//! assert_eq!(out.values, vec![0.0, 1.0, 5.0, 2.0]);
//! ```

pub mod active;
pub mod api;
pub mod benchable;
pub mod check;
pub mod csb;
pub mod engine;
pub mod export;
pub mod metrics;
pub mod tune;
pub mod util;

pub use api::{GenContext, MsgSink, VertexProgram};
pub use engine::{
    run_ranks, run_ranks_failover, run_recoverable, run_single, EngineConfig, ExecMode,
};
pub use metrics::{RunReport, StepReport};
