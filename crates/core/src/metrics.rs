//! Per-run and per-superstep measurement records.
//!
//! Every run produces both *simulated* times (the cost model applied to the
//! recorded events — what the figures report) and host wall-clock time (for
//! regression tracking via criterion).

use phigraph_device::cost::PhaseTimes;
use phigraph_device::StepCounters;
use phigraph_recover::{FailoverStats, IntegrityStats, RecoveryStats};

/// Measurements for one superstep on one device.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Superstep index (0-based).
    pub step: usize,
    /// Simulated phase times from the cost model.
    pub times: PhaseTimes,
    /// Simulated communication time (heterogeneous runs; 0 otherwise).
    pub comm_time: f64,
    /// Host wall-clock seconds for the superstep.
    pub wall: f64,
    /// Event counters for the superstep, **summed across every thread that
    /// executed it**: the engine folds every thread's work into this one
    /// record when the phase joins, so each count is a whole-device total,
    /// not any single thread's view (and, under `pipe`, `mover_msgs[i]` is
    /// the total for simulated mover `i`). Per-chunk records are dropped
    /// after folding to keep reports small; only their aggregates survive.
    pub counters: StepCounters,
}

impl StepReport {
    /// Simulated superstep total including communication.
    pub fn sim_total(&self) -> f64 {
        self.times.total + self.comm_time
    }
}

/// The sum of simulated `times`, from +0.0: `f64`'s `Sum` starts at −0.0,
/// which a run with no supersteps would print as `-0.0000`. For any
/// non-empty list of non-negative times the bits are `Sum`'s.
pub fn seconds(times: impl Iterator<Item = f64>) -> f64 {
    times.fold(0.0, |sum, t| sum + t)
}

/// Measurements for a complete run on one device (or one device's side of a
/// heterogeneous run).
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Device name.
    pub device: String,
    /// Execution mode name. Matches [`ExecMode::name`]: `lock`, `pipe`,
    /// `omp` (the flat baseline's report name, after the paper's "OMP"
    /// bars), or `seq` — plus `cpu-mic` for combined heterogeneous reports.
    ///
    /// [`ExecMode::name`]: crate::engine::ExecMode::name
    pub mode: String,
    /// Per-superstep reports.
    pub steps: Vec<StepReport>,
    /// Host wall-clock seconds for the whole run.
    pub wall: f64,
    /// Fault-tolerance events observed during the run (all-zero for the
    /// plain, non-recovering drivers).
    pub recovery: RecoveryStats,
    /// Liveness/failover events observed during the run (all-zero outside
    /// the hetero failover driver).
    pub failover: FailoverStats,
    /// Silent-data-corruption detection/healing events observed during the
    /// run (all-zero when integrity mode is off).
    pub integrity: IntegrityStats,
}

impl RunReport {
    /// Simulated execution time (compute phases, excluding communication).
    pub fn sim_exec(&self) -> f64 {
        seconds(self.steps.iter().map(|s| s.times.total))
    }

    /// Simulated communication time.
    pub fn sim_comm(&self) -> f64 {
        seconds(self.steps.iter().map(|s| s.comm_time))
    }

    /// Simulated total time.
    pub fn sim_total(&self) -> f64 {
        self.sim_exec() + self.sim_comm()
    }

    /// Simulated time of the message-processing sub-step only (the
    /// Fig. 5(f) quantity).
    pub fn sim_process(&self) -> f64 {
        seconds(self.steps.iter().map(|s| s.times.process))
    }

    /// Total messages over the run.
    pub fn total_msgs(&self) -> u64 {
        self.steps.iter().map(|s| s.counters.msgs_total()).sum()
    }

    /// Total wire bytes exchanged with the peer device.
    pub fn total_comm_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.counters.comm_bytes).sum()
    }

    /// Number of supersteps executed.
    pub fn supersteps(&self) -> usize {
        self.steps.len()
    }

    /// Total barrier checkpoints written during the run.
    pub fn total_checkpoints(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.counters.checkpoints_written)
            .sum()
    }

    /// Total bytes written into checkpoint snapshots.
    pub fn total_checkpoint_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.counters.checkpoint_bytes).sum()
    }

    /// Total faults injected at this run's injection sites.
    pub fn total_faults_injected(&self) -> u64 {
        self.steps.iter().map(|s| s.counters.faults_injected).sum()
    }

    /// Total remote exchanges lost on the link during the run. Sums the
    /// per-step counters (steps that completed despite a drop) with the
    /// driver-level count (exchanges whose superstep was aborted and
    /// replayed, which therefore never produced a step report).
    pub fn total_exchange_drops(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.counters.exchange_drops)
            .sum::<u64>()
            + self.failover.exchange_drops
    }

    /// Total remote exchanges that hit the deadline waiting for the peer
    /// (per-step counters plus driver-level detections).
    pub fn total_exchange_timeouts(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.counters.exchange_timeouts)
            .sum::<u64>()
            + self.failover.exchange_timeouts
    }

    /// One-line summary for harness output. Appends the recovery event
    /// summary when any fault-tolerance activity occurred.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{:<10} {:<22} {:<5} steps={:<4} msgs={:<10} exec={:.4}s comm={:.4}s total={:.4}s (wall {:.3}s)",
            self.app,
            self.device,
            self.mode,
            self.supersteps(),
            self.total_msgs(),
            self.sim_exec(),
            self.sim_comm(),
            self.sim_total(),
            self.wall,
        );
        if self.recovery.any() {
            line.push_str(&format!(" [{}]", self.recovery.summary()));
        }
        let (drops, timeouts) = (self.total_exchange_drops(), self.total_exchange_timeouts());
        if drops > 0 || timeouts > 0 {
            line.push_str(&format!(" [xchg drops={drops} timeouts={timeouts}]"));
        }
        if self.failover.any() {
            line.push_str(&format!(" [failover {}]", self.failover.summary()));
        }
        if self.integrity.any() {
            line.push_str(&format!(" [integrity {}]", self.integrity.summary()));
        }
        line
    }
}

/// A run's computed values plus its report.
#[derive(Clone, Debug)]
pub struct RunOutput<V> {
    /// Final vertex values (full-length; in heterogeneous runs, merged
    /// across devices by ownership).
    pub values: Vec<V>,
    /// The measurement report. For heterogeneous runs this is the combined
    /// view (per-step maximum of the two devices plus exchange time).
    pub report: RunReport,
    /// Per-device reports (two entries for heterogeneous runs, one
    /// otherwise).
    pub device_reports: Vec<RunReport>,
}

/// Combine N lock-stepped rank reports into the heterogeneous view: per
/// superstep, execution time is "determined by the slower device", and
/// communication is the exchange time. Steps are matched by **step index**
/// (not list position), so ragged per-rank step lists — a rank evicted
/// mid-run contributes only the supersteps it executed — combine correctly.
pub fn combine_ranks(app: &str, reports: &[RunReport]) -> RunReport {
    assert!(!reports.is_empty(), "no rank reports to combine");
    let mut step_ids: Vec<usize> = reports
        .iter()
        .flat_map(|r| r.steps.iter().map(|s| s.step))
        .collect();
    step_ids.sort_unstable();
    step_ids.dedup();
    let steps = step_ids
        .into_iter()
        .map(|id| {
            let mut acc: Option<StepReport> = None;
            for r in reports {
                let Some(s) = r.steps.iter().find(|s| s.step == id) else {
                    continue;
                };
                match acc.as_mut() {
                    None => acc = Some(s.clone()),
                    Some(c) => {
                        if s.times.total > c.times.total {
                            c.times = s.times;
                        }
                        c.comm_time = c.comm_time.max(s.comm_time);
                        c.wall = c.wall.max(s.wall);
                        c.counters.accumulate(&s.counters);
                    }
                }
            }
            acc.expect("step id came from some rank")
        })
        .collect();
    let mut recovery = reports[0].recovery;
    let mut failover = reports[0].failover;
    let mut integrity = reports[0].integrity;
    for r in &reports[1..] {
        recovery.accumulate(&r.recovery);
        failover.accumulate(&r.failover);
        integrity.accumulate(&r.integrity);
    }
    let device = if reports.len() == 2 {
        "CPU-MIC".to_string()
    } else {
        format!("CPU-MICx{}", reports.len() - 1)
    };
    RunReport {
        app: app.to_string(),
        device,
        mode: "cpu-mic".to_string(),
        steps,
        wall: reports.iter().map(|r| r.wall).fold(0.0, f64::max),
        recovery,
        failover,
        integrity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_at(i: usize, total: f64, comm: f64) -> StepReport {
        StepReport {
            step: i,
            times: PhaseTimes {
                gen: total / 2.0,
                process: total / 4.0,
                update: total / 4.0,
                total,
                ..Default::default()
            },
            comm_time: comm,
            ..Default::default()
        }
    }

    fn step(total: f64, comm: f64) -> StepReport {
        step_at(0, total, comm)
    }

    #[test]
    fn totals_add_up() {
        let r = RunReport {
            steps: vec![step(1.0, 0.1), step(2.0, 0.2)],
            ..Default::default()
        };
        assert!((r.sim_exec() - 3.0).abs() < 1e-12);
        assert!((r.sim_comm() - 0.3).abs() < 1e-12);
        assert!((r.sim_total() - 3.3).abs() < 1e-12);
        assert!((r.sim_process() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn a_run_with_no_supersteps_sums_to_positive_zero() {
        let r = RunReport {
            app: "pagerank".into(),
            ..Default::default()
        };
        for t in [r.sim_exec(), r.sim_comm(), r.sim_total(), r.sim_process()] {
            assert_eq!(t.to_bits(), 0.0f64.to_bits());
        }
        let s = r.summary();
        assert!(s.contains("exec=0.0000s comm=0.0000s total=0.0000s"), "{s}");
        assert!(!s.contains("-0"), "{s}");
    }

    #[test]
    fn hetero_combination_takes_slower_device() {
        let a = RunReport {
            steps: vec![step_at(0, 1.0, 0.1), step_at(1, 5.0, 0.1)],
            ..Default::default()
        };
        let b = RunReport {
            steps: vec![step_at(0, 2.0, 0.1), step_at(1, 1.0, 0.1)],
            ..Default::default()
        };
        let c = combine_ranks("x", &[a, b]);
        assert!((c.sim_exec() - 7.0).abs() < 1e-12, "max(1,2) + max(5,1)");
        assert_eq!(c.device, "CPU-MIC");
    }

    #[test]
    fn summary_is_one_line() {
        let r = RunReport {
            app: "sssp".into(),
            device: "CPU".into(),
            mode: "lock".into(),
            steps: vec![step(1.0, 0.0)],
            wall: 0.01,
            ..Default::default()
        };
        let s = r.summary();
        assert!(s.contains("sssp"));
        assert!(!s.contains('\n'));
        // No recovery activity → no recovery tail in the summary.
        assert!(!s.contains('['));
    }

    #[test]
    fn summary_appends_recovery_events() {
        let mut r = RunReport {
            app: "sssp".into(),
            mode: "lock".into(),
            ..Default::default()
        };
        r.recovery.rollbacks = 2;
        r.recovery.retries = 2;
        let s = r.summary();
        assert!(s.contains("rollbacks=2"), "summary was: {s}");
    }

    #[test]
    fn checkpoint_totals_aggregate_counters() {
        let mut s0 = step(1.0, 0.0);
        s0.counters.checkpoints_written = 1;
        s0.counters.checkpoint_bytes = 100;
        let mut s1 = step(1.0, 0.0);
        s1.counters.checkpoints_written = 1;
        s1.counters.checkpoint_bytes = 150;
        s1.counters.faults_injected = 1;
        let r = RunReport {
            steps: vec![s0, s1],
            ..Default::default()
        };
        assert_eq!(r.total_checkpoints(), 2);
        assert_eq!(r.total_checkpoint_bytes(), 250);
        assert_eq!(r.total_faults_injected(), 1);
    }

    #[test]
    fn rank_combination_groups_by_step_index_across_ragged_lists() {
        // Rank b was evicted after superstep 0: its list is shorter, and the
        // combined view must still pair entries by step index, not position.
        let a = RunReport {
            steps: vec![step_at(0, 1.0, 0.1), step_at(1, 2.0, 0.1)],
            ..Default::default()
        };
        let b = RunReport {
            steps: vec![step_at(0, 3.0, 0.2)],
            ..Default::default()
        };
        let c = RunReport {
            steps: vec![step_at(0, 2.0, 0.1), step_at(1, 4.0, 0.3)],
            ..Default::default()
        };
        let r = combine_ranks("x", &[a, b, c]);
        assert_eq!(r.device, "CPU-MICx2");
        assert_eq!(r.steps.len(), 2);
        assert!((r.steps[0].times.total - 3.0).abs() < 1e-12, "slowest of 3");
        assert!(
            (r.steps[1].times.total - 4.0).abs() < 1e-12,
            "rank b absent"
        );
        assert!((r.steps[1].comm_time - 0.3).abs() < 1e-12);
    }

    #[test]
    fn hetero_combination_accumulates_recovery() {
        let mut a = RunReport::default();
        a.recovery.rollbacks = 1;
        let mut b = RunReport::default();
        b.recovery.retries = 2;
        let c = combine_ranks("x", &[a, b]);
        assert_eq!(c.recovery.rollbacks, 1);
        assert_eq!(c.recovery.retries, 2);
    }
}
