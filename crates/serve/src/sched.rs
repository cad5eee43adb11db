//! Weighted fair scheduling across tenants: stride scheduling over the
//! per-tenant FIFO queues.
//!
//! Each tenant carries a *pass* value; picking a job charges the tenant
//! `SCALE / weight`, so a weight-4 tenant is picked four times as often
//! as a weight-1 tenant under contention, while an idle tenant's pass is
//! re-synced on wakeup so it cannot hoard credit. A tenant is *runnable*
//! when it has queued jobs and fewer than `cap` jobs currently running —
//! the cap keeps one tenant from occupying the whole worker pool no
//! matter its weight.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::job::JobSpec;
use crate::stats::TenantStats;

/// Pass increment for weight 1; higher weights advance slower.
pub const SCALE: u64 = 1 << 20;

/// One tenant's scheduling state.
#[derive(Debug)]
pub struct Tenant {
    /// Stride weight (≥ 1).
    pub weight: u64,
    /// Max concurrent running jobs (≥ 1).
    pub cap: usize,
    /// Stride pass value.
    pub pass: u64,
    /// Jobs of this tenant currently on workers.
    pub running: usize,
    /// Admitted jobs waiting for a worker, with their admission time and
    /// absolute deadline.
    pub queue: std::collections::VecDeque<QueuedJob>,
    /// Accounting for `phigraph report` / Prometheus.
    pub stats: TenantStats,
}

/// A job sitting in a tenant queue.
#[derive(Debug)]
pub struct QueuedJob {
    /// The job itself.
    pub spec: JobSpec,
    /// When the job was admitted (for wait-time accounting).
    pub admitted: Instant,
    /// Absolute deadline, if any.
    pub deadline: Option<Instant>,
    /// Admitted at shed-ladder level ≥ 1: run with integrity off and
    /// without a per-job trace span.
    pub degraded: bool,
    /// Trace id assigned at admission (`0` when no event sink is
    /// attached), carried through pickup and execution so every event
    /// and the final response line share one causal id.
    pub trace: u64,
}

impl Tenant {
    fn new(weight: u64, cap: usize) -> Self {
        Tenant {
            weight: weight.max(1),
            cap: cap.max(1),
            pass: 0,
            running: 0,
            queue: std::collections::VecDeque::new(),
            stats: TenantStats::new(weight.max(1), cap.max(1)),
        }
    }

    fn runnable(&self) -> bool {
        !self.queue.is_empty() && self.running < self.cap
    }
}

/// The scheduler: tenants keyed by name (BTreeMap so pass ties break
/// deterministically in lexicographic order).
#[derive(Debug, Default)]
pub struct Scheduler {
    tenants: BTreeMap<String, Tenant>,
    /// Default weight for tenants that first appear on a job line.
    pub default_weight: u64,
    /// Default concurrency cap for implicitly created tenants.
    pub default_cap: usize,
}

impl Scheduler {
    /// Empty scheduler with defaults for implicitly created tenants.
    pub fn new(default_weight: u64, default_cap: usize) -> Self {
        Scheduler {
            tenants: BTreeMap::new(),
            default_weight: default_weight.max(1),
            default_cap: default_cap.max(1),
        }
    }

    /// The tenant entry for `name`, created with the defaults on first
    /// sight. A fresh (or long-idle) tenant starts at the current minimum
    /// pass so it cannot monopolise workers with banked credit.
    pub fn tenant_mut(&mut self, name: &str) -> &mut Tenant {
        if !self.tenants.contains_key(name) {
            let floor = self.min_pass();
            let mut t = Tenant::new(self.default_weight, self.default_cap);
            t.pass = floor;
            self.tenants.insert(name.to_string(), t);
        }
        self.tenants.get_mut(name).unwrap()
    }

    /// Set a tenant's weight and cap (creating it if needed).
    pub fn configure(&mut self, name: &str, weight: u64, cap: usize) {
        let t = self.tenant_mut(name);
        t.weight = weight.max(1);
        t.cap = cap.max(1);
        t.stats.weight = t.weight;
        t.stats.cap = t.cap;
    }

    fn min_pass(&self) -> u64 {
        self.tenants.values().map(|t| t.pass).min().unwrap_or(0)
    }

    /// Queue a job on its tenant (admission already happened).
    pub fn enqueue(&mut self, job: QueuedJob) {
        let floor = self.min_pass();
        let t = self.tenant_mut(&job.spec.tenant.clone());
        // Re-sync an idle tenant's pass so it competes fairly from now on
        // instead of replaying banked idle time.
        if t.queue.is_empty() && t.running == 0 {
            t.pass = t.pass.max(floor);
        }
        t.stats.submitted += 1;
        t.queue.push_back(job);
    }

    /// Total queued jobs across all tenants.
    pub fn queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Total running jobs across all tenants.
    pub fn running(&self) -> usize {
        self.tenants.values().map(|t| t.running).sum()
    }

    /// Pick the next job under stride scheduling: among runnable tenants,
    /// the one with the smallest pass (ties break by name). Charges the
    /// tenant's pass and marks one job running.
    pub fn pick(&mut self) -> Option<QueuedJob> {
        let name = self
            .tenants
            .iter()
            .filter(|(_, t)| t.runnable())
            .min_by_key(|(name, t)| (t.pass, name.as_str().to_string()))
            .map(|(name, _)| name.clone())?;
        let t = self.tenants.get_mut(&name).unwrap();
        let job = t.queue.pop_front().unwrap();
        t.pass = t.pass.wrapping_add(SCALE / t.weight);
        t.running += 1;
        Some(job)
    }

    /// Mark one of `tenant`'s running jobs finished.
    pub fn finish(&mut self, tenant: &str) {
        let t = self.tenant_mut(tenant);
        t.running = t.running.saturating_sub(1);
    }

    /// Remove queued jobs whose deadline has passed, returning them.
    pub fn expire(&mut self, now: Instant) -> Vec<QueuedJob> {
        let mut out = Vec::new();
        let due = |q: &QueuedJob| q.deadline.is_some_and(|d| d <= now);
        for t in self.tenants.values_mut() {
            if !t.queue.iter().any(due) {
                continue;
            }
            let mut keep = std::collections::VecDeque::new();
            while let Some(q) = t.queue.pop_front() {
                if due(&q) {
                    out.push(q);
                } else {
                    keep.push_back(q);
                }
            }
            t.queue = keep;
        }
        out
    }

    /// Drop every queued job (forced shutdown), returning them.
    pub fn drain_all(&mut self) -> Vec<QueuedJob> {
        let mut out = Vec::new();
        for t in self.tenants.values_mut() {
            out.extend(t.queue.drain(..));
        }
        out
    }

    /// The stride weight `name` would schedule at (its configured
    /// weight, or the default for tenants not seen yet).
    pub fn weight_of(&self, name: &str) -> u64 {
        self.tenants
            .get(name)
            .map(|t| t.weight)
            .unwrap_or(self.default_weight)
    }

    /// The largest weight across known tenants (at least the default):
    /// the shed ladder's reference point for "important enough to keep".
    pub fn max_weight(&self) -> u64 {
        self.tenants
            .values()
            .map(|t| t.weight)
            .max()
            .unwrap_or(self.default_weight)
            .max(self.default_weight)
    }

    /// Iterate tenants for stats snapshots.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &Tenant)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Mutable stats handle for a tenant.
    pub fn stats_mut(&mut self, name: &str) -> &mut TenantStats {
        &mut self.tenant_mut(name).stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, JobSpec};
    use phigraph_core::engine::ExecMode;

    fn job(tenant: &str, id: &str) -> QueuedJob {
        QueuedJob {
            spec: JobSpec {
                id: id.to_string(),
                tenant: tenant.to_string(),
                kind: JobKind::Wcc,
                mode: ExecMode::Sequential,
                deadline_ms: None,
                integrity: None,
                replay: false,
                conn: 0,
            },
            admitted: Instant::now(),
            deadline: None,
            degraded: false,
            trace: 0,
        }
    }

    #[test]
    fn weight_queries_cover_unknown_tenants() {
        let mut s = Scheduler::new(2, 1);
        assert_eq!(s.weight_of("ghost"), 2);
        assert_eq!(s.max_weight(), 2);
        s.configure("vip", 8, 4);
        s.configure("basic", 1, 1);
        assert_eq!(s.weight_of("vip"), 8);
        assert_eq!(s.weight_of("ghost"), 2);
        assert_eq!(s.max_weight(), 8);
    }

    #[test]
    fn weights_bias_pick_order() {
        let mut s = Scheduler::new(1, 100);
        s.configure("heavy", 3, 100);
        s.configure("light", 1, 100);
        for i in 0..12 {
            s.enqueue(job("heavy", &format!("h{i}")));
            s.enqueue(job("light", &format!("l{i}")));
        }
        let mut heavy = 0;
        let mut light = 0;
        for _ in 0..12 {
            let j = s.pick().unwrap();
            // Completing immediately: caps never bind in this test.
            s.finish(&j.spec.tenant);
            match j.spec.tenant.as_str() {
                "heavy" => heavy += 1,
                _ => light += 1,
            }
        }
        // Weight 3 vs 1 → 9 of the first 12 picks go to the heavy tenant.
        assert_eq!(heavy, 9, "heavy={heavy} light={light}");
    }

    #[test]
    fn cap_blocks_further_picks() {
        let mut s = Scheduler::new(1, 100);
        s.configure("a", 10, 2);
        s.configure("b", 1, 100);
        for i in 0..4 {
            s.enqueue(job("a", &format!("a{i}")));
        }
        // Only a has work: its cap of 2 binds after two picks even
        // though two more jobs are queued.
        assert_eq!(s.pick().unwrap().spec.tenant, "a");
        assert_eq!(s.pick().unwrap().spec.tenant, "a");
        assert!(s.pick().is_none());
        // Another tenant's work still runs while a is capped.
        s.enqueue(job("b", "b0"));
        assert_eq!(s.pick().unwrap().spec.tenant, "b");
        assert!(s.pick().is_none());
        // Finishing one of a's jobs unblocks it.
        s.finish("a");
        assert_eq!(s.pick().unwrap().spec.tenant, "a");
    }

    #[test]
    fn idle_tenant_does_not_bank_credit() {
        let mut s = Scheduler::new(1, 100);
        s.configure("busy", 1, 100);
        for i in 0..50 {
            s.enqueue(job("busy", &format!("x{i}")));
            let j = s.pick().unwrap();
            s.finish(&j.spec.tenant);
        }
        // "late" arrives now; its pass is synced to busy's, so picks
        // alternate instead of late draining everything first.
        s.enqueue(job("late", "l0"));
        s.enqueue(job("late", "l1"));
        s.enqueue(job("busy", "x50"));
        let first_two: Vec<String> = (0..2)
            .map(|_| {
                let j = s.pick().unwrap();
                s.finish(&j.spec.tenant);
                j.spec.tenant
            })
            .collect();
        assert!(
            first_two.contains(&"busy".to_string()),
            "busy was starved: {first_two:?}"
        );
    }

    #[test]
    fn expire_removes_only_past_deadline_jobs() {
        let mut s = Scheduler::new(1, 100);
        let now = Instant::now();
        let mut expired = job("a", "dead");
        expired.deadline = Some(now - std::time::Duration::from_millis(1));
        let mut alive = job("a", "alive");
        alive.deadline = Some(now + std::time::Duration::from_secs(3600));
        s.enqueue(expired);
        s.enqueue(alive);
        s.enqueue(job("a", "forever"));
        let gone = s.expire(now);
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].spec.id, "dead");
        assert_eq!(s.queued(), 2);
    }
}
