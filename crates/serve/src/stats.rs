//! Per-tenant serving statistics, the `ServeStats` block for
//! `run_report.json`, and the Prometheus rendering `phigraph serve`
//! writes next to it.

use std::collections::BTreeMap;

use phigraph_trace::json::JsonBuf;

/// Accounting for one tenant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Stride weight in effect.
    pub weight: u64,
    /// Concurrency cap in effect.
    pub cap: usize,
    /// Jobs running at snapshot time (gauge, filled by the pool).
    pub running: usize,
    /// Jobs admitted to this tenant's queue.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs bounced at admission (queue full).
    pub rejected: u64,
    /// Jobs cancelled mid-run (deadline or shutdown).
    pub cancelled: u64,
    /// Jobs that expired in the queue before pickup.
    pub expired: u64,
    /// Jobs that failed with an error.
    pub failed: u64,
    /// Jobs bounced by the load-shedding ladder (subset of `rejected`).
    pub shed: u64,
    /// Jobs bounced by this tenant's open circuit breaker (subset of
    /// `rejected`).
    pub breaker: u64,
    /// Times this tenant's circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Jobs admitted in degraded mode (integrity off, no job span).
    pub degraded: u64,
    /// Jobs returned to the journal by a `--drain` shutdown.
    pub requeued: u64,
    /// Results re-emitted from the journal after a restart.
    pub replayed: u64,
    /// Total queue wait across finished jobs, µs.
    pub wait_us: u64,
    /// Worst single queue wait, µs.
    pub max_wait_us: u64,
    /// Total execution time across finished jobs, µs.
    pub exec_us: u64,
    /// Supersteps executed on behalf of this tenant.
    pub supersteps: u64,
}

impl TenantStats {
    /// Fresh stats for a tenant with the given weight and cap.
    pub fn new(weight: u64, cap: usize) -> Self {
        TenantStats {
            weight,
            cap,
            ..TenantStats::default()
        }
    }

    /// Jobs that left the system one way or another.
    pub fn finished(&self) -> u64 {
        self.completed + self.cancelled + self.expired + self.failed
    }
}

/// A snapshot of the whole pool's accounting.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Per-tenant breakdown, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Jobs currently queued (at snapshot time).
    pub queued: usize,
    /// Jobs currently running (at snapshot time).
    pub running: usize,
    /// Admission-queue capacity.
    pub queue_cap: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Shed-ladder level at snapshot time (0 = normal, 3 = max).
    pub shed_level: u8,
    /// Graph epoch being served (starts at 1, bumped by each reload).
    pub epoch: u64,
    /// Hot graph swaps performed since startup.
    pub swaps: u64,
}

impl ServeStats {
    /// Sum of a per-tenant field across tenants.
    fn total(&self, f: impl Fn(&TenantStats) -> u64) -> u64 {
        self.tenants.values().map(f).sum()
    }

    /// Total completed jobs.
    pub fn completed(&self) -> u64 {
        self.total(|t| t.completed)
    }

    /// Total rejected jobs.
    pub fn rejected(&self) -> u64 {
        self.total(|t| t.rejected)
    }

    /// Append the `"serve"` object (tenant breakdown plus pool gauges)
    /// onto an open [`JsonBuf`] object.
    pub fn write_json(&self, b: &mut JsonBuf) {
        b.begin_obj("serve");
        b.int("workers", self.workers as u64);
        b.int("queue_cap", self.queue_cap as u64);
        b.int("queued", self.queued as u64);
        b.int("running", self.running as u64);
        b.int("completed", self.completed());
        b.int("rejected", self.rejected());
        b.int("shed_level", self.shed_level as u64);
        b.int("epoch", self.epoch);
        b.int("swaps", self.swaps);
        b.int("shed", self.total(|t| t.shed));
        b.int("degraded", self.total(|t| t.degraded));
        b.int("requeued", self.total(|t| t.requeued));
        b.int("replayed", self.total(|t| t.replayed));
        b.begin_arr("tenants");
        for (name, t) in &self.tenants {
            b.elem_obj();
            b.str("tenant", name);
            b.int("weight", t.weight);
            b.int("cap", t.cap as u64);
            b.int("running", t.running as u64);
            b.int("submitted", t.submitted);
            b.int("completed", t.completed);
            b.int("rejected", t.rejected);
            b.int("cancelled", t.cancelled);
            b.int("expired", t.expired);
            b.int("failed", t.failed);
            b.int("shed", t.shed);
            b.int("breaker", t.breaker);
            b.int("breaker_trips", t.breaker_trips);
            b.int("degraded", t.degraded);
            b.int("requeued", t.requeued);
            b.int("replayed", t.replayed);
            b.int("wait_us", t.wait_us);
            b.int("max_wait_us", t.max_wait_us);
            b.int("exec_us", t.exec_us);
            b.int("supersteps", t.supersteps);
            b.end();
        }
        b.end();
        b.end();
    }

    /// Render one stats response line for the `{"op":"stats"}` verb.
    pub fn to_line(&self) -> String {
        self.to_line_with_hists(&[])
    }

    /// Render one stats response line including on-demand summaries of
    /// the serving histograms (count, mean, log2-resolution p50/p99).
    /// This is the live counterpart of the exit-time Prometheus dump:
    /// histograms used to be visible only after shutdown.
    pub fn to_line_with_hists(&self, hists: &[phigraph_trace::HistSnapshot]) -> String {
        let mut b = JsonBuf::obj();
        b.str("status", "ok");
        self.write_json(&mut b);
        let serving: Vec<_> = hists
            .iter()
            .filter(|h| is_serving_hist(h.name) && h.count > 0)
            .collect();
        if !serving.is_empty() {
            b.begin_arr("hists");
            for h in serving {
                b.elem_obj();
                b.str("name", h.name);
                b.int("count", h.count);
                b.num("mean", h.mean().unwrap_or(0.0));
                b.int("p50", h.quantile_upper(0.5).unwrap_or(0));
                b.int("p99", h.quantile_upper(0.99).unwrap_or(0));
                b.end();
            }
            b.end();
        }
        crate::job::one_line(b.finish())
    }
}

/// True for the histogram kinds the serving daemon feeds (the ones
/// worth exporting from `phigraph serve`).
pub(crate) fn is_serving_hist(name: &str) -> bool {
    name.starts_with("job_")
        || name.starts_with("journal_")
        || name.starts_with("graph_")
        || name.starts_with("shed_")
}

/// Full `run_report.json`-compatible document for a serving run: the
/// usual schema/combined/devices skeleton (so `phigraph report` accepts
/// it) plus the `"serve"` block with the tenant breakdown.
pub fn serve_report_json(stats: &ServeStats, device: &str, wall_seconds: f64) -> String {
    let mut b = JsonBuf::obj();
    b.str("schema", phigraph_core::export::REPORT_SCHEMA);
    b.begin_obj("combined");
    b.str("app", "serve");
    b.str("device", device);
    b.str("mode", "serve");
    b.num("wall_seconds", wall_seconds);
    b.begin_arr("steps");
    b.end();
    b.end();
    b.begin_arr("devices");
    b.end();
    stats.write_json(&mut b);
    b.finish()
}

fn prom_metric(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Prometheus text exposition for a serving run: pool gauges plus one
/// series per tenant for every counter, labelled `tenant="…"`.
pub fn serve_prometheus_text(stats: &ServeStats) -> String {
    let mut out = String::new();
    prom_metric(
        &mut out,
        "phigraph_serve_workers",
        "Worker threads in the serving pool.",
        "gauge",
    );
    out.push_str(&format!("phigraph_serve_workers {}\n", stats.workers));
    prom_metric(
        &mut out,
        "phigraph_serve_queue_cap",
        "Admission queue capacity.",
        "gauge",
    );
    out.push_str(&format!("phigraph_serve_queue_cap {}\n", stats.queue_cap));
    prom_metric(
        &mut out,
        "phigraph_serve_queued",
        "Jobs waiting for a worker.",
        "gauge",
    );
    out.push_str(&format!("phigraph_serve_queued {}\n", stats.queued));
    prom_metric(
        &mut out,
        "phigraph_serve_running",
        "Jobs currently executing.",
        "gauge",
    );
    out.push_str(&format!("phigraph_serve_running {}\n", stats.running));
    prom_metric(
        &mut out,
        "phigraph_serve_shed_level",
        "Load-shedding ladder level (0 = normal, 3 = max shedding).",
        "gauge",
    );
    out.push_str(&format!("phigraph_serve_shed_level {}\n", stats.shed_level));
    prom_metric(
        &mut out,
        "phigraph_serve_graph_epoch",
        "Epoch of the graph currently served (bumped by each reload).",
        "gauge",
    );
    out.push_str(&format!("phigraph_serve_graph_epoch {}\n", stats.epoch));
    prom_metric(
        &mut out,
        "phigraph_serve_graph_swaps",
        "Hot graph swaps performed since startup.",
        "counter",
    );
    out.push_str(&format!("phigraph_serve_graph_swaps {}\n", stats.swaps));

    type CounterRow = (&'static str, &'static str, fn(&TenantStats) -> u64);
    let counters: [CounterRow; 15] = [
        (
            "phigraph_serve_jobs_submitted",
            "Jobs admitted, by tenant.",
            |t| t.submitted,
        ),
        (
            "phigraph_serve_jobs_completed",
            "Jobs completed, by tenant.",
            |t| t.completed,
        ),
        (
            "phigraph_serve_jobs_rejected",
            "Jobs rejected at admission, by tenant.",
            |t| t.rejected,
        ),
        (
            "phigraph_serve_jobs_cancelled",
            "Jobs cancelled mid-run, by tenant.",
            |t| t.cancelled,
        ),
        (
            "phigraph_serve_jobs_expired",
            "Jobs expired in queue, by tenant.",
            |t| t.expired,
        ),
        (
            "phigraph_serve_jobs_failed",
            "Jobs failed, by tenant.",
            |t| t.failed,
        ),
        (
            "phigraph_serve_jobs_shed",
            "Jobs bounced by the load-shedding ladder, by tenant.",
            |t| t.shed,
        ),
        (
            "phigraph_serve_jobs_breaker_rejected",
            "Jobs bounced by an open circuit breaker, by tenant.",
            |t| t.breaker,
        ),
        (
            "phigraph_serve_breaker_trips",
            "Circuit-breaker trips, by tenant.",
            |t| t.breaker_trips,
        ),
        (
            "phigraph_serve_jobs_degraded",
            "Jobs admitted in degraded mode, by tenant.",
            |t| t.degraded,
        ),
        (
            "phigraph_serve_jobs_requeued",
            "Jobs journalled back by a drain shutdown, by tenant.",
            |t| t.requeued,
        ),
        (
            "phigraph_serve_jobs_replayed",
            "Results re-emitted from the journal, by tenant.",
            |t| t.replayed,
        ),
        (
            "phigraph_serve_wait_us_total",
            "Total queue wait in microseconds, by tenant.",
            |t| t.wait_us,
        ),
        (
            "phigraph_serve_exec_us_total",
            "Total execution time in microseconds, by tenant.",
            |t| t.exec_us,
        ),
        (
            "phigraph_serve_supersteps_total",
            "Supersteps executed, by tenant.",
            |t| t.supersteps,
        ),
    ];
    for (name, help, get) in counters {
        prom_metric(&mut out, name, help, "counter");
        for (tenant, t) in &stats.tenants {
            out.push_str(&format!("{name}{{tenant={}}} {}\n", quote(tenant), get(t)));
        }
    }
    out
}

fn quote(s: &str) -> String {
    phigraph_trace::json::quote(s)
}

/// Append the serving histograms (`job_*`, `journal_append_us`,
/// `graph_swap_us`, `shed_level`) from a trace snapshot as Prometheus
/// histogram families.
pub fn append_job_hists(out: &mut String, snap: &phigraph_trace::TraceSnapshot) {
    for h in &snap.hists {
        if h.count == 0 || !is_serving_hist(h.name) {
            continue;
        }
        let name = format!("phigraph_serve_{}", h.name);
        prom_metric(out, &name, "Log2-bucketed serving latency.", "histogram");
        let mut cumulative = 0u64;
        for (upper, count) in h.nonzero() {
            cumulative += count;
            if upper == u64::MAX {
                continue; // folded into the +Inf bucket below
            }
            out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{name}_sum {}\n", h.sum));
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_trace::json::Json;

    fn sample() -> ServeStats {
        let mut stats = ServeStats {
            queued: 2,
            running: 1,
            queue_cap: 64,
            workers: 4,
            shed_level: 2,
            epoch: 3,
            swaps: 2,
            ..ServeStats::default()
        };
        let mut a = TenantStats::new(4, 2);
        a.submitted = 10;
        a.completed = 7;
        a.rejected = 2;
        a.cancelled = 1;
        a.shed = 1;
        a.breaker_trips = 1;
        a.degraded = 3;
        a.replayed = 2;
        a.wait_us = 1234;
        a.max_wait_us = 500;
        a.exec_us = 9876;
        a.supersteps = 88;
        stats.tenants.insert("alpha".to_string(), a);
        stats
            .tenants
            .insert("beta".to_string(), TenantStats::new(1, 1));
        stats
    }

    #[test]
    fn report_json_parses_and_carries_the_tenant_table() {
        let doc = serve_report_json(&sample(), "cpu", 1.5);
        let j = Json::parse(&doc).unwrap();
        assert_eq!(
            j.get("schema").unwrap().as_str(),
            Some(phigraph_core::export::REPORT_SCHEMA)
        );
        let combined = j.get("combined").unwrap();
        assert_eq!(combined.get("app").unwrap().as_str(), Some("serve"));
        assert!(combined.get("steps").unwrap().as_arr().unwrap().is_empty());
        let serve = j.get("serve").unwrap();
        assert_eq!(serve.u64_or_0("completed"), 7);
        let tenants = serve.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].get("tenant").unwrap().as_str(), Some("alpha"));
        assert_eq!(tenants[0].u64_or_0("completed"), 7);
        assert_eq!(tenants[0].u64_or_0("weight"), 4);
    }

    #[test]
    fn prometheus_has_per_tenant_series() {
        let text = serve_prometheus_text(&sample());
        assert!(text.contains("phigraph_serve_jobs_completed{tenant=\"alpha\"} 7\n"));
        assert!(text.contains("phigraph_serve_jobs_rejected{tenant=\"alpha\"} 2\n"));
        assert!(text.contains("phigraph_serve_jobs_completed{tenant=\"beta\"} 0\n"));
        assert!(text.contains("phigraph_serve_workers 4\n"));
        assert!(text.contains("phigraph_serve_shed_level 2\n"));
        assert!(text.contains("phigraph_serve_graph_epoch 3\n"));
        assert!(text.contains("phigraph_serve_graph_swaps 2\n"));
        assert!(text.contains("phigraph_serve_jobs_shed{tenant=\"alpha\"} 1\n"));
        assert!(text.contains("phigraph_serve_jobs_degraded{tenant=\"alpha\"} 3\n"));
        assert!(text.contains("phigraph_serve_jobs_replayed{tenant=\"alpha\"} 2\n"));
        // Every exposed family carries HELP/TYPE headers.
        assert_eq!(
            text.matches("# HELP ").count(),
            text.matches("# TYPE ").count()
        );
    }

    #[test]
    fn stats_line_is_one_parseable_line() {
        let line = sample().to_line();
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(j.get("serve").unwrap().u64_or_0("running"), 1);
        // Without histogram snapshots the field is absent entirely.
        assert!(j.get("hists").is_none());
    }

    #[test]
    fn stats_line_carries_on_demand_hist_summaries() {
        use phigraph_trace::{Hist, HistKind};
        let wait = Hist::default();
        for _ in 0..100 {
            wait.record(12);
        }
        let engine_side = Hist::default(); // non-serving: filtered out
        engine_side.record(5);
        let hists = vec![
            wait.snapshot(HistKind::JobWaitUs),
            engine_side.snapshot(HistKind::ExchangeRttUs),
            Hist::default().snapshot(HistKind::JobExecUs), // empty: skipped
        ];
        let line = sample().to_line_with_hists(&hists);
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).unwrap();
        let arr = j.get("hists").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("job_wait_us"));
        assert_eq!(arr[0].u64_or_0("count"), 100);
        assert_eq!(arr[0].u64_or_0("p50"), 15);
        assert!((arr[0].f64_or_0("mean") - 12.0).abs() < 1e-9);
    }
}
