//! `phigraph serve-chaos` — the seeded survivability soak for the
//! serving daemon.
//!
//! Runs N kill/restart/reload cycles against an in-process serving pool
//! sharing one journal directory, at twice the admission capacity, with
//! faults drawn from the serving subset of the recover crate's fault
//! catalog (`daemon-kill`, `worker-hang`, `slow-client`,
//! `malformed-line`). Exits nonzero unless every admitted job reached
//! exactly one terminal outcome and every checksum matched a direct
//! single-job execution.

use crate::args::Args;
use crate::out::outln;
use phigraph_core::engine::ExecMode;
use phigraph_serve::{run_chaos, ChaosConfig};
use std::path::PathBuf;

/// The flags `serve-chaos` accepts; any other is an error.
const FLAGS: &[&str] = &[
    "cycles",
    "engine",
    "jobs-per-cycle",
    "journal-dir",
    "queue-cap",
    "reload-every",
    "seed",
    "workers",
];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let defaults = ChaosConfig::default();
    let mode = match args.flag_or("engine", "seq") {
        "lock" => ExecMode::Locking,
        "pipe" => ExecMode::Pipelined,
        "omp" => ExecMode::Flat,
        "seq" => ExecMode::Sequential,
        other => return Err(format!("unknown engine {other:?}")),
    };
    let cfg = ChaosConfig {
        cycles: args.flag_parse("cycles", defaults.cycles)?,
        seed: args.flag_parse("seed", defaults.seed)?,
        workers: args.flag_parse("workers", defaults.workers)?,
        queue_cap: args.flag_parse("queue-cap", defaults.queue_cap)?,
        jobs_per_cycle: args.flag_parse("jobs-per-cycle", defaults.jobs_per_cycle)?,
        journal_dir: PathBuf::from(
            args.flag_or("journal-dir", &defaults.journal_dir.display().to_string()),
        ),
        reload_every: args.flag_parse("reload-every", defaults.reload_every)?,
        mode,
    };
    eprintln!(
        "serve-chaos: {} cycles, seed {}, {} workers, queue cap {}, journal {:?}",
        cfg.cycles, cfg.seed, cfg.workers, cfg.queue_cap, cfg.journal_dir
    );
    let report = run_chaos(&cfg)?;
    outln!("{}", report.to_line());
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "chaos soak failed: {} job(s) lost ({:?}), {} corrupt ({:?})",
            report.lost.len(),
            report.lost,
            report.corrupt.len(),
            report.corrupt
        ))
    }
}
