#![warn(missing_docs)]
//! Graph substrate for phigraph.
//!
//! Provides the storage and workload layer the paper's framework sits on:
//!
//! * [`Csr`] — Compressed Sparse Row storage with the paper's "dummy vertex"
//!   convention (`offsets[n] == num_edges`), optional edge weights, and a
//!   transpose (in-edge view) used to size the condensed static buffer.
//! * [`EdgeList`] / [`GraphBuilder`] — construction utilities.
//! * [`io`] — the adjacency-list input format from the paper's system
//!   diagram, SNAP edge lists (so the real Pokec/DBLP datasets drop in), and
//!   a fast binary format.
//! * [`generators`] — synthetic workloads standing in for the paper's
//!   datasets: an RMAT power-law generator with front-loaded hubs
//!   (pokec-like), a community graph (dblp-like), and layered DAGs with high
//!   fan-in (the TopoSort input).

pub mod analysis;
pub mod builder;
pub mod csr;
pub mod degree;
pub mod edge_list;
pub mod error;
pub mod generators;
pub mod hash;
pub mod io;
pub mod state;
pub mod subgraph;
pub mod types;
pub mod validation;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use degree::DegreeStats;
pub use edge_list::EdgeList;
pub use error::GraphError;
pub use generators::rng::SplitMix64;
pub use state::PodState;
pub use types::{EdgeIdx, VertexId};
