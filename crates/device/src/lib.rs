#![warn(missing_docs)]
//! Device models, event counters, cost model, and intra-device scheduling.
//!
//! The paper's testbed — an Intel Xeon E5-2680 paired with a Xeon Phi SE10P —
//! no longer exists as accessible hardware, and the Intel MPI/ICC offload
//! toolchain is obsolete. This crate is the substitution layer described in
//! DESIGN.md §2: graph applications execute *for real* on host threads
//! (producing genuinely computed results and exercising all concurrency code
//! paths), while every performance-relevant event is tallied and replayed
//! through an analytic cost model parameterized by a [`DeviceSpec`]. The
//! model yields *simulated seconds* for the target chip, so the evaluation
//! reproduces the paper's relative behaviour (pipelining vs locking under
//! contention, SIMD lanes vs scalar, 61 slow cores vs 16 fast ones).
//!
//! Key pieces:
//!
//! * [`DeviceSpec`] — architecture constants; presets
//!   [`DeviceSpec::xeon_e5_2680`] and [`DeviceSpec::xeon_phi_se10p`].
//! * [`counters`] — per-superstep event tallies and per-chunk cost records.
//! * [`CostModel`] — events → simulated time, including the analytic
//!   makespan replay of the runtime's dynamic chunk scheduler.
//! * [`sched::ChunkScheduler`] — the lock-light dynamic work distributor the
//!   engines actually use ("all threads dynamically retrieve these task
//!   units through a … scheduling offset").
//! * [`pool`] — scoped thread-pool helpers.

pub mod balance;
pub mod cost;
pub mod counters;
pub mod pool;
pub mod sched;
pub mod spec;

pub use cost::CostModel;
pub use counters::{CancelReason, CancelToken, Heartbeat, InsertProfile, StepCounters};
pub use sched::{makespan, ChunkScheduler, MakespanReport, RunScheduler};
pub use spec::DeviceSpec;
