#![warn(missing_docs)]
//! Fault tolerance for phigraph: superstep checkpointing, deterministic
//! fault injection, and crash-recovery policy.
//!
//! The paper's BSP engine gives natural consistency points — the barrier
//! after every superstep's update phase, where the *only* live state is the
//! vertex value array, the active-vertex flags, and the superstep index
//! (message buffers are reset at the start of each step). This crate turns
//! those barriers into recovery points, Pregel-style:
//!
//! * [`snapshot`] — a versioned, checksummed binary snapshot of vertex
//!   state + active set + superstep index ([`Snapshot`]).
//! * [`store`] — the pluggable [`CheckpointStore`] trait with an in-memory
//!   implementation for tests ([`MemStore`]) and a file-backed one for the
//!   CLI ([`DirStore`]).
//! * [`fault`] — a deterministic, seeded [`FaultPlan`] compiled into a
//!   fire-once [`FaultInjector`] that the engines consult at well-defined
//!   injection sites (worker/mover death, poisoned CSB insert, corrupted
//!   checkpoint, dropped hetero exchange), with the one list of which
//!   kinds can fire on a single device and which on a rank fabric
//!   ([`FaultPlan::check_ranks`]).
//! * [`policy`] — [`RecoveryPolicy`] (checkpoint interval, retry budget,
//!   exponential backoff) and [`RecoveryStats`] (checkpoints written/bytes,
//!   rollbacks, retries, corrupt-snapshot rejections, degradation).
//! * [`failover`] — [`FailoverPolicy`]/[`FailoverConfig`] (watchdog
//!   deadline, lost-device policy, straggler thresholds) and
//!   [`FailoverStats`] for the hetero engine's live device failover.
//! * [`integrity`] — [`IntegrityMode`] (the `off|frames|full` lattice),
//!   the one-atomic-load [`IntegritySwitch`], the commutative group
//!   checksum primitive, and [`IntegrityStats`] for silent-data-corruption
//!   detection and targeted self-healing.
//!
//! The engine integration lives in `phigraph_core::engine::failover` (the
//! one recovery machine, single-device and fabric alike) and
//! `engine::recover` (the snapshot encoder, writer and validator); this
//! crate is deliberately engine-agnostic so the CLI `recover` subcommand
//! can inspect snapshot files without dragging in the runtime.

pub mod failover;
pub mod fault;
pub mod integrity;
pub mod policy;
pub mod snapshot;
pub mod store;

pub use failover::{FailoverConfig, FailoverPolicy, FailoverStats};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
pub use integrity::{IntegrityMode, IntegrityStats, IntegritySwitch};
pub use policy::{latest_valid_snapshot, RecoveryPolicy, RecoveryStats};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use store::{CheckpointStore, DirStore, MemStore};
