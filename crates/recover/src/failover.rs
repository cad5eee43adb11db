//! Failover policy, configuration, and accounting for the hetero engine.
//!
//! Rather than retrying a whole run on any fault, the failover driver
//! recovers per rank. This module holds its data types: a watchdog detects a
//! dead (crashed) or silent (hung) device via heartbeats and exchange
//! deadlines, and the driver then either *migrates* the lost device's
//! partition onto the survivor (replaying from the last barrier snapshot),
//! falls back to lock-step *retry*, or degrades to sequential execution.
//! Stragglers — devices that slow down but keep making progress — instead
//! trigger a one-shot partition *rebalance* driven by per-superstep device
//! timings.

use std::time::Duration;

/// What the hetero driver does when the watchdog declares a device lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailoverPolicy {
    /// Migrate the lost device's partition onto the survivor and replay
    /// from the newest valid barrier snapshot (the default).
    #[default]
    Migrate,
    /// Roll both devices back to the newest common snapshot and retry in
    /// lock-step (PR 2's behaviour, bounded by the retry budget).
    Retry,
    /// No failover: degrade straight to sequential execution from the last
    /// barrier on the surviving device.
    Off,
}

impl FailoverPolicy {
    /// Stable short name (CLI flag values, report lines).
    pub fn name(&self) -> &'static str {
        match self {
            FailoverPolicy::Migrate => "migrate",
            FailoverPolicy::Retry => "retry",
            FailoverPolicy::Off => "off",
        }
    }
}

impl std::str::FromStr for FailoverPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "migrate" => Ok(FailoverPolicy::Migrate),
            "retry" => Ok(FailoverPolicy::Retry),
            "off" => Ok(FailoverPolicy::Off),
            other => Err(format!(
                "unknown failover policy {other:?} (expected migrate|retry|off)"
            )),
        }
    }
}

/// Tunable knobs for the liveness layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailoverConfig {
    /// Watchdog / exchange deadline in milliseconds: a device silent for
    /// longer than this is declared lost.
    pub watchdog_ms: u64,
    /// What to do about a lost device.
    pub policy: FailoverPolicy,
    /// Declare a straggler after this many *consecutive* supersteps in
    /// which the CPU/MIC step-time ratio drifts more than
    /// [`FailoverConfig::slow_factor`] away from its calibrated healthy
    /// value (0 disables rebalancing).
    pub rebalance_after: u32,
    /// Drift factor of the per-superstep CPU/MIC time ratio, relative to
    /// the ratio observed at the first comparable barrier, above which a
    /// superstep counts toward the straggler threshold. Comparing drift
    /// rather than raw times keeps the naturally asymmetric CPU + MIC pair
    /// from being misread as a permanent straggler.
    pub slow_factor: f64,
    /// How much an injected `SlowDevice` fault inflates the victim's
    /// simulated step time (test/experiment knob).
    pub slow_time_factor: f64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            watchdog_ms: 2_000,
            policy: FailoverPolicy::Migrate,
            rebalance_after: 3,
            slow_factor: 3.0,
            slow_time_factor: 8.0,
        }
    }
}

impl FailoverConfig {
    /// The watchdog deadline as a [`Duration`].
    pub fn deadline(&self) -> Duration {
        Duration::from_millis(self.watchdog_ms)
    }

    /// Builder: set the watchdog deadline in milliseconds.
    pub fn with_watchdog_ms(mut self, ms: u64) -> Self {
        self.watchdog_ms = ms;
        self
    }

    /// Builder: set the lost-device policy.
    pub fn with_policy(mut self, policy: FailoverPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder: set the straggler threshold (0 disables rebalancing).
    pub fn with_rebalance_after(mut self, steps: u32) -> Self {
        self.rebalance_after = steps;
        self
    }

    /// Builder: set the step-time ratio that flags a straggler step.
    pub fn with_slow_factor(mut self, factor: f64) -> Self {
        self.slow_factor = factor;
        self
    }
}

/// Everything that happened on the failover path of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FailoverStats {
    /// Devices declared lost because their link endpoint disappeared.
    pub crash_detections: u64,
    /// Devices declared lost because they went silent past the deadline.
    pub hang_detections: u64,
    /// Partition migrations onto the survivor.
    pub migrations: u64,
    /// Straggler-driven partition rebalances.
    pub rebalances: u64,
    /// Exchanges lost on the link (both sides observe these).
    pub exchange_drops: u64,
    /// Exchanges that hit the deadline waiting for the peer.
    pub exchange_timeouts: u64,
    /// Worst observed latency between a device going silent and the
    /// watchdog (or exchange deadline) noticing, in milliseconds.
    pub watchdog_latency_ms: u64,
    /// Barrier superstep the post-failover replay resumed from.
    pub resume_step: u64,
    /// Supersteps re-executed after the failover (strictly fewer than
    /// [`FailoverStats::supersteps_total`] whenever a snapshot existed).
    pub supersteps_replayed: u64,
    /// Total supersteps of the fault-free execution.
    pub supersteps_total: u64,
    /// Whether the run finished on a single device after migration.
    pub degraded_single: bool,
    /// Link partitions observed (both ends alive, one link severed): the
    /// membership machine evicts exactly one side per event.
    pub link_partitions: u64,
    /// Bitmask of ranks evicted from the fabric (bit `r` set = rank `r`
    /// was voted out and its partition re-split over the survivors).
    pub evicted_ranks: u64,
}

impl FailoverStats {
    /// Fold another run's stats into this one.
    pub fn accumulate(&mut self, other: &FailoverStats) {
        self.crash_detections += other.crash_detections;
        self.hang_detections += other.hang_detections;
        self.migrations += other.migrations;
        self.rebalances += other.rebalances;
        self.exchange_drops += other.exchange_drops;
        self.exchange_timeouts += other.exchange_timeouts;
        self.watchdog_latency_ms = self.watchdog_latency_ms.max(other.watchdog_latency_ms);
        self.resume_step = self.resume_step.max(other.resume_step);
        self.supersteps_replayed += other.supersteps_replayed;
        self.supersteps_total = self.supersteps_total.max(other.supersteps_total);
        self.degraded_single |= other.degraded_single;
        self.link_partitions += other.link_partitions;
        self.evicted_ranks |= other.evicted_ranks;
    }

    /// Ranks named by [`FailoverStats::evicted_ranks`], ascending.
    pub fn evicted_rank_list(&self) -> Vec<u8> {
        (0..64)
            .filter(|r| self.evicted_ranks & (1 << r) != 0)
            .collect()
    }

    /// Whether any failover-relevant *event* happened at all. Bookkeeping
    /// fields that are populated even on clean runs (`supersteps_total`) do
    /// not count.
    pub fn any(&self) -> bool {
        self.crash_detections
            + self.hang_detections
            + self.migrations
            + self.rebalances
            + self.exchange_drops
            + self.exchange_timeouts
            + self.supersteps_replayed
            + self.link_partitions
            > 0
            || self.degraded_single
            || self.evicted_ranks != 0
    }

    /// One-line summary (appended to run summaries when anything happened).
    pub fn summary(&self) -> String {
        let mut line = format!(
            "crash_det={} hang_det={} migrations={} rebalances={} drops={} timeouts={} \
             wd_latency={}ms resume@{} replayed={}/{}",
            self.crash_detections,
            self.hang_detections,
            self.migrations,
            self.rebalances,
            self.exchange_drops,
            self.exchange_timeouts,
            self.watchdog_latency_ms,
            self.resume_step,
            self.supersteps_replayed,
            self.supersteps_total,
        );
        if self.link_partitions > 0 {
            line.push_str(&format!(" link_partitions={}", self.link_partitions));
        }
        if self.evicted_ranks != 0 {
            line.push_str(&format!(" evicted={:?}", self.evicted_rank_list()));
        }
        if self.degraded_single {
            line.push_str(" DEGRADED->single");
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [
            FailoverPolicy::Migrate,
            FailoverPolicy::Retry,
            FailoverPolicy::Off,
        ] {
            assert_eq!(p.name().parse::<FailoverPolicy>().unwrap(), p);
        }
        assert!("bogus".parse::<FailoverPolicy>().is_err());
    }

    #[test]
    fn config_defaults_and_builders() {
        let c = FailoverConfig::default();
        assert_eq!(c.watchdog_ms, 2_000);
        assert_eq!(c.policy, FailoverPolicy::Migrate);
        assert_eq!(c.deadline(), Duration::from_millis(2_000));
        let c = c
            .with_watchdog_ms(50)
            .with_policy(FailoverPolicy::Off)
            .with_rebalance_after(0)
            .with_slow_factor(2.0);
        assert_eq!(c.watchdog_ms, 50);
        assert_eq!(c.policy, FailoverPolicy::Off);
        assert_eq!(c.rebalance_after, 0);
        assert_eq!(c.slow_factor, 2.0);
    }

    #[test]
    fn stats_accumulate_and_summarize() {
        let mut a = FailoverStats {
            hang_detections: 1,
            migrations: 1,
            watchdog_latency_ms: 12,
            resume_step: 4,
            supersteps_replayed: 3,
            supersteps_total: 7,
            degraded_single: true,
            ..Default::default()
        };
        let b = FailoverStats {
            crash_detections: 1,
            watchdog_latency_ms: 30,
            supersteps_total: 7,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.crash_detections, 1);
        assert_eq!(a.hang_detections, 1);
        assert_eq!(a.watchdog_latency_ms, 30);
        assert_eq!(a.supersteps_total, 7);
        assert!(a.any());
        assert!(a.summary().contains("DEGRADED->single"));
        assert!(a.summary().contains("replayed=3/7"));
        assert!(!FailoverStats::default().any());
    }
}
