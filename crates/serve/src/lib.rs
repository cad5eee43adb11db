#![warn(missing_docs)]
//! The phigraph query-serving daemon: load a graph once, answer many
//! concurrent tenant queries over it.
//!
//! The batch engines (PR 1–5) run one algorithm to completion per
//! process. This crate turns the same machinery into a *service*: the
//! CSR is loaded once and shared immutably (`Arc<Csr>`), and every
//! admitted job — batched landmark SSSP, personalized PageRank,
//! per-tenant BFS/WCC — gets its own private [`EngineConfig`]
//! (own CSB arenas, own cancel token) executed by a fixed worker pool.
//! Engine re-entrancy makes this safe: drivers only ever *borrow* the
//! graph, so any number of jobs can run over it at once and each
//! produces bit-identical results to a one-shot `phigraph run`.
//!
//! The moving parts:
//!
//! - [`pool::ServePool`] — bounded admission straight into the
//!   scheduler (reject-with-retry-after on overflow), stride-scheduled
//!   weighted fairness across tenants with per-tenant concurrency caps
//!   ([`sched::Scheduler`]), and a watchdog enforcing deadlines through
//!   the PR 3 cancel tokens.
//! - [`job`] — the line-delimited JSON protocol (requests in, one
//!   response line per job out), with a bounded line reader that
//!   answers malformed/oversized input with typed errors.
//! - [`journal`] — the append-only, FNV-checksummed job journal: a
//!   killed daemon replays incomplete jobs and re-emits completed
//!   results bit-identically on restart.
//! - [`shed`] — the overload ladder (degrade optional work, then shed
//!   low-weight tenants) and the per-tenant circuit breaker.
//! - [`stats`] — per-tenant accounting, the `"serve"` block in
//!   `run_report.json`, and the `phigraph_serve_*{tenant="…"}`
//!   Prometheus series.
//! - [`daemon`] — the stdin and unix-socket frontends, hot graph swap
//!   (`reload`), journal recovery on startup, and clean SIGTERM/SIGINT
//!   shutdown via [`signals::SignalFd`].
//! - [`metrics`] — the live observability plane: a sliding-window
//!   [`MetricsHub`](metrics::MetricsHub) (1s/10s/60s) over the counters
//!   and histograms, scraped mid-traffic through
//!   `{"op":"stats","format":"prom"}`, `--metrics-sock`, and
//!   `--metrics-every` snapshot files.
//! - [`events`] — per-job causal trace ids
//!   (admission→queue→exec→journal→reply), the `--events-out` JSONL
//!   event log, and the crash flight recorder persisted to
//!   `flight.json` on panic, SIGTERM, and chaos kill.
//! - [`chaos`] — the seeded `serve-chaos` soak driver: kill/restart/
//!   reload cycles at overload, asserting zero lost, duplicated, or
//!   corrupted results.
//!
//! [`EngineConfig`]: phigraph_core::engine::EngineConfig

pub mod chaos;
pub mod daemon;
pub mod events;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod pool;
pub mod sched;
pub mod shed;
pub mod signals;
pub mod stats;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use daemon::{run_daemon, DaemonConfig};
pub use events::{EventSink, FLIGHT_SCHEMA};
pub use job::{JobKind, JobResult, JobSpec, JobStatus, Request};
pub use journal::{Journal, Recovery};
pub use metrics::{live_prometheus_text, MetricsHub, WindowView};
pub use pool::{values_checksum, AdmitError, DrainMode, ServeConfig, ServePool};
pub use shed::ShedPolicy;
pub use stats::{serve_prometheus_text, serve_report_json, ServeStats, TenantStats};
