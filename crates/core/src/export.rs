//! Machine-readable exports of run reports.
//!
//! Two hand-rolled formats (the workspace builds hermetically, so no serde):
//!
//! * [`run_report_json`] — a complete JSON dump of a run's combined and
//!   per-device [`RunReport`]s, consumed by `phigraph report` to reproduce
//!   the Fig. 5-style per-phase/per-device decomposition offline;
//! * [`prometheus_text`] — Prometheus text exposition of the run's
//!   aggregate counters, recovery/failover stats, and (when a trace was
//!   attached) the engine distribution histograms.

use crate::metrics::RunReport;
use phigraph_device::StepCounters;
use phigraph_trace::hist::HistSnapshot;
use phigraph_trace::json::{num, quote};
use phigraph_trace::TraceSnapshot;

/// Schema tag embedded in every dump so `phigraph report` can reject files
/// that are not run reports.
pub const REPORT_SCHEMA: &str = "phigraph-run-report/1";

fn counters_json(c: &StepCounters) -> String {
    let mover_msgs: Vec<String> = c.mover_msgs.iter().map(|m| m.to_string()).collect();
    format!(
        concat!(
            "{{\"active_vertices\":{},\"gen_edges\":{},\"msgs_local\":{},",
            "\"msgs_remote\":{},\"column_allocs\":{},\"reset_cells\":{},",
            "\"queue_full_spins\":{},\"flush_batches\":{},\"batched_msgs\":{},",
            "\"mover_idle_polls\":{},\"proc_rows\":{},\"proc_msgs\":{},",
            "\"holes_filled\":{},\"occupied_columns\":{},\"updated_vertices\":{},",
            "\"next_active\":{},\"bytes_gen\":{},\"bytes_proc\":{},",
            "\"bytes_update\":{},\"remote_before_combine\":{},",
            "\"remote_after_combine\":{},\"comm_bytes\":{},",
            "\"checkpoints_written\":{},\"checkpoint_bytes\":{},",
            "\"faults_injected\":{},\"heartbeats\":{},\"exchange_drops\":{},",
            "\"exchange_timeouts\":{},\"insert_total\":{},\"insert_max_column\":{},",
            "\"insert_collision_p\":{},\"mover_msgs\":[{}]}}"
        ),
        c.active_vertices,
        c.gen_edges,
        c.msgs_local,
        c.msgs_remote,
        c.column_allocs,
        c.reset_cells,
        c.queue_full_spins,
        c.flush_batches,
        c.batched_msgs,
        c.mover_idle_polls,
        c.proc_rows,
        c.proc_msgs,
        c.holes_filled,
        c.occupied_columns,
        c.updated_vertices,
        c.next_active,
        c.bytes_gen,
        c.bytes_proc,
        c.bytes_update,
        c.remote_before_combine,
        c.remote_after_combine,
        c.comm_bytes,
        c.checkpoints_written,
        c.checkpoint_bytes,
        c.faults_injected,
        c.heartbeats,
        c.exchange_drops,
        c.exchange_timeouts,
        c.insert_profile.total,
        c.insert_profile.max_column,
        num(c.insert_profile.collision_probability()),
        mover_msgs.join(","),
    )
}

fn report_obj(r: &RunReport) -> String {
    let steps: Vec<String> = r
        .steps
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "{{\"step\":{},\"comm_time\":{},\"wall\":{},",
                    "\"times\":{{\"gen\":{},\"process\":{},\"update\":{},",
                    "\"total\":{},\"gen_imbalance\":{}}},\"counters\":{}}}"
                ),
                s.step,
                num(s.comm_time),
                num(s.wall),
                num(s.times.gen),
                num(s.times.process),
                num(s.times.update),
                num(s.times.total),
                num(s.times.gen_balance.imbalance),
                counters_json(&s.counters),
            )
        })
        .collect();
    let rec = &r.recovery;
    let f = &r.failover;
    let i = &r.integrity;
    format!(
        concat!(
            "{{\"app\":{},\"device\":{},\"mode\":{},\"wall\":{},",
            "\"sim_exec\":{},\"sim_comm\":{},\"sim_total\":{},",
            "\"recovery\":{{\"checkpoints_written\":{},\"checkpoint_bytes\":{},",
            "\"rollbacks\":{},\"retries\":{},\"corrupt_snapshots_rejected\":{},",
            "\"faults_injected\":{},\"degraded\":{}}},",
            "\"failover\":{{\"crash_detections\":{},\"hang_detections\":{},",
            "\"migrations\":{},\"rebalances\":{},\"exchange_drops\":{},",
            "\"exchange_timeouts\":{},\"watchdog_latency_ms\":{},",
            "\"resume_step\":{},\"supersteps_replayed\":{},",
            "\"supersteps_total\":{},\"degraded_single\":{}}},",
            "\"integrity\":{{\"frame_checks\":{},\"frame_detections\":{},",
            "\"frame_reexchanges\":{},\"group_checks\":{},",
            "\"group_detections\":{},\"state_checks\":{},",
            "\"state_detections\":{},\"audits_run\":{},",
            "\"audit_violations\":{},\"false_positive_audits\":{},",
            "\"quarantined_groups\":{},\"group_heals\":{},",
            "\"step_replays\":{},\"scrub_passes\":{}}},",
            "\"steps\":[{}]}}"
        ),
        quote(&r.app),
        quote(&r.device),
        quote(&r.mode),
        num(r.wall),
        num(r.sim_exec()),
        num(r.sim_comm()),
        num(r.sim_total()),
        rec.checkpoints_written,
        rec.checkpoint_bytes,
        rec.rollbacks,
        rec.retries,
        rec.corrupt_snapshots_rejected,
        rec.faults_injected,
        rec.degraded,
        f.crash_detections,
        f.hang_detections,
        f.migrations,
        f.rebalances,
        f.exchange_drops,
        f.exchange_timeouts,
        f.watchdog_latency_ms,
        f.resume_step,
        f.supersteps_replayed,
        f.supersteps_total,
        f.degraded_single,
        i.frame_checks,
        i.frame_detections,
        i.frame_reexchanges,
        i.group_checks,
        i.group_detections,
        i.state_checks,
        i.state_detections,
        i.audits_run,
        i.audit_violations,
        i.false_positive_audits,
        i.quarantined_groups,
        i.group_heals,
        i.step_replays,
        i.scrub_passes,
        steps.join(","),
    )
}

/// Dump the combined report plus the per-device reports as one JSON
/// document (schema [`REPORT_SCHEMA`]).
pub fn run_report_json(report: &RunReport, device_reports: &[RunReport]) -> String {
    let devices: Vec<String> = device_reports.iter().map(report_obj).collect();
    format!(
        "{{\"schema\":{},\"combined\":{},\"devices\":[{}]}}\n",
        quote(REPORT_SCHEMA),
        report_obj(report),
        devices.join(","),
    )
}

fn aggregate_counters(r: &RunReport) -> StepCounters {
    let mut total = StepCounters::default();
    for s in &r.steps {
        total.accumulate(&s.counters);
    }
    total
}

fn prom_metric(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &str,
    value: impl std::fmt::Display,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
    out.push_str(&format!("{name}{{{labels}}} {value}\n"));
}

fn prom_hist(out: &mut String, h: &HistSnapshot, labels: &str) {
    if h.count == 0 {
        return;
    }
    let name = format!("phigraph_{}", h.name);
    out.push_str(&format!(
        "# HELP {name} Log2-bucketed engine distribution.\n# TYPE {name} histogram\n"
    ));
    let mut cum = 0u64;
    for (upper, count) in h.nonzero() {
        cum += count;
        let le = if upper == u64::MAX {
            "+Inf".to_string()
        } else {
            upper.to_string()
        };
        out.push_str(&format!("{name}_bucket{{{labels},le=\"{le}\"}} {cum}\n"));
    }
    if !h.nonzero().iter().any(|(u, _)| *u == u64::MAX) {
        out.push_str(&format!("{name}_bucket{{{labels},le=\"+Inf\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum));
    out.push_str(&format!("{name}_count{{{labels}}} {}\n", h.count));
}

/// Render the run's aggregates as Prometheus text exposition. `snap`
/// contributes the engine distribution histograms when a trace was attached
/// to the run.
pub fn prometheus_text(report: &RunReport, snap: Option<&TraceSnapshot>) -> String {
    let labels = format!(
        "app={},device={},mode={}",
        quote(&report.app),
        quote(&report.device),
        quote(&report.mode)
    );
    let mut out = String::new();
    prom_metric(
        &mut out,
        "phigraph_supersteps",
        "Supersteps executed.",
        &labels,
        report.supersteps(),
    );
    prom_metric(
        &mut out,
        "phigraph_sim_exec_seconds",
        "Simulated execution time (compute phases).",
        &labels,
        num(report.sim_exec()),
    );
    prom_metric(
        &mut out,
        "phigraph_sim_comm_seconds",
        "Simulated communication time.",
        &labels,
        num(report.sim_comm()),
    );
    prom_metric(
        &mut out,
        "phigraph_sim_total_seconds",
        "Simulated total time.",
        &labels,
        num(report.sim_total()),
    );
    prom_metric(
        &mut out,
        "phigraph_wall_seconds",
        "Host wall-clock time for the run.",
        &labels,
        num(report.wall),
    );

    let c = aggregate_counters(report);
    let counter_rows: [(&str, &str, u64); 22] = [
        (
            "active_vertices",
            "Active vertices scanned.",
            c.active_vertices,
        ),
        (
            "gen_edges",
            "Out-edges traversed during generation.",
            c.gen_edges,
        ),
        ("msgs_local", "Messages inserted locally.", c.msgs_local),
        (
            "msgs_remote",
            "Messages bound for the peer device.",
            c.msgs_remote,
        ),
        (
            "queue_full_spins",
            "Full-queue spins workers burned on SPSC backpressure.",
            c.queue_full_spins,
        ),
        (
            "flush_batches",
            "Worker-to-mover batches flushed.",
            c.flush_batches,
        ),
        (
            "batched_msgs",
            "Messages carried inside flush batches.",
            c.batched_msgs,
        ),
        (
            "mover_idle_polls",
            "Empty mover polling rounds.",
            c.mover_idle_polls,
        ),
        ("proc_rows", "Vector-array rows reduced.", c.proc_rows),
        ("proc_msgs", "Messages reduced.", c.proc_msgs),
        (
            "holes_filled",
            "Bubble cells filled before lane reduction.",
            c.holes_filled,
        ),
        (
            "occupied_columns",
            "Columns holding at least one message.",
            c.occupied_columns,
        ),
        (
            "updated_vertices",
            "Vertices whose update function ran.",
            c.updated_vertices,
        ),
        ("bytes_gen", "Bytes touched during generation.", c.bytes_gen),
        (
            "bytes_proc",
            "Bytes touched during processing.",
            c.bytes_proc,
        ),
        (
            "bytes_update",
            "Bytes touched during update.",
            c.bytes_update,
        ),
        (
            "comm_bytes",
            "Wire bytes exchanged with the peer.",
            c.comm_bytes,
        ),
        (
            "checkpoints_written",
            "Barrier checkpoints written.",
            c.checkpoints_written,
        ),
        (
            "checkpoint_bytes",
            "Bytes written into checkpoints.",
            c.checkpoint_bytes,
        ),
        (
            "faults_injected",
            "Faults fired at injection sites.",
            c.faults_injected,
        ),
        ("heartbeats", "Heartbeat ticks emitted.", c.heartbeats),
        (
            "exchange_drops",
            "Remote exchanges lost on the link.",
            c.exchange_drops,
        ),
    ];
    for (name, help, value) in counter_rows {
        prom_metric(
            &mut out,
            &format!("phigraph_{name}_total"),
            help,
            &labels,
            value,
        );
    }

    let rec = &report.recovery;
    let rec_rows: [(&str, &str, u64); 5] = [
        (
            "recovery_rollbacks",
            "Rollbacks to an earlier barrier.",
            rec.rollbacks,
        ),
        ("recovery_retries", "Replay attempts consumed.", rec.retries),
        (
            "recovery_corrupt_snapshots_rejected",
            "Snapshots rejected by checksum or format.",
            rec.corrupt_snapshots_rejected,
        ),
        (
            "recovery_faults_injected",
            "Faults the injector fired.",
            rec.faults_injected,
        ),
        (
            "recovery_degraded",
            "1 when the run degraded to sequential.",
            rec.degraded as u64,
        ),
    ];
    for (name, help, value) in rec_rows {
        prom_metric(&mut out, &format!("phigraph_{name}"), help, &labels, value);
    }

    let f = &report.failover;
    let fo_rows: [(&str, &str, u64); 9] = [
        (
            "failover_crash_detections",
            "Devices lost to a dead endpoint.",
            f.crash_detections,
        ),
        (
            "failover_hang_detections",
            "Devices lost to silence past deadline.",
            f.hang_detections,
        ),
        (
            "failover_migrations",
            "Partition migrations onto the survivor.",
            f.migrations,
        ),
        (
            "failover_rebalances",
            "Straggler-driven partition rebalances.",
            f.rebalances,
        ),
        (
            "failover_exchange_drops",
            "Exchanges lost on the link.",
            f.exchange_drops,
        ),
        (
            "failover_exchange_timeouts",
            "Exchanges that hit the peer deadline.",
            f.exchange_timeouts,
        ),
        (
            "failover_watchdog_latency_ms",
            "Worst silence-to-detection latency.",
            f.watchdog_latency_ms,
        ),
        (
            "failover_supersteps_replayed",
            "Supersteps re-executed after failover.",
            f.supersteps_replayed,
        ),
        (
            "failover_degraded_single",
            "1 when the run finished on one device after migration.",
            f.degraded_single as u64,
        ),
    ];
    for (name, help, value) in fo_rows {
        prom_metric(&mut out, &format!("phigraph_{name}"), help, &labels, value);
    }

    let i = &report.integrity;
    let integ_rows: [(&str, &str, u64); 10] = [
        (
            "integrity_frame_checks",
            "Exchange frames validated against their header checksum.",
            i.frame_checks,
        ),
        (
            "integrity_frame_detections",
            "Frames that failed validation (truncation or bit rot).",
            i.frame_detections,
        ),
        (
            "integrity_frame_reexchanges",
            "In-place re-exchanges that healed a corrupt frame.",
            i.frame_reexchanges,
        ),
        (
            "integrity_detections",
            "Corruptions detected on any rung of the lattice.",
            i.detections(),
        ),
        (
            "integrity_quarantined_groups",
            "Vertex groups quarantined for targeted recompute.",
            i.quarantined_groups,
        ),
        (
            "integrity_group_heals",
            "Groups healed by targeted regeneration (rung 1).",
            i.group_heals,
        ),
        (
            "integrity_step_replays",
            "Full single-step replays (rung 2).",
            i.step_replays,
        ),
        (
            "integrity_audit_violations",
            "App invariant violations the auditors flagged.",
            i.audit_violations,
        ),
        (
            "integrity_false_positive_audits",
            "Audit alarms a replay reproduced bit-identically.",
            i.false_positive_audits,
        ),
        (
            "integrity_scrub_passes",
            "Background scrub passes completed.",
            i.scrub_passes,
        ),
    ];
    for (name, help, value) in integ_rows {
        prom_metric(&mut out, &format!("phigraph_{name}"), help, &labels, value);
    }

    if let Some(snap) = snap {
        for h in &snap.hists {
            prom_hist(&mut out, h, &labels);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StepReport;
    use phigraph_trace::json::Json;
    use phigraph_trace::{Trace, TraceLevel};

    fn sample_report() -> RunReport {
        let mut s0 = StepReport {
            step: 0,
            comm_time: 0.25,
            wall: 0.001,
            ..Default::default()
        };
        s0.times.gen = 1.0;
        s0.times.process = 0.5;
        s0.times.update = 0.25;
        s0.times.total = 1.75;
        s0.counters.msgs_local = 10;
        s0.counters.flush_batches = 2;
        s0.counters.batched_msgs = 10;
        s0.counters.mover_msgs = vec![4, 6];
        let mut r = RunReport {
            app: "sssp".into(),
            device: "CPU \"E5\"".into(),
            mode: "pipe".into(),
            steps: vec![s0],
            wall: 0.002,
            ..Default::default()
        };
        r.recovery.rollbacks = 1;
        r.failover.migrations = 1;
        r.integrity.frame_checks = 3;
        r.integrity.frame_detections = 1;
        r.integrity.group_heals = 2;
        r
    }

    #[test]
    fn report_json_round_trips_through_parser() {
        let r = sample_report();
        let text = run_report_json(&r, std::slice::from_ref(&r));
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        let combined = doc.get("combined").unwrap();
        assert_eq!(combined.get("app").unwrap().as_str(), Some("sssp"));
        assert_eq!(combined.get("device").unwrap().as_str(), Some("CPU \"E5\""));
        assert!((combined.f64_or_0("sim_exec") - 1.75).abs() < 1e-12);
        let steps = combined.get("steps").unwrap().as_arr().unwrap();
        assert_eq!(steps.len(), 1);
        let c = steps[0].get("counters").unwrap();
        assert_eq!(c.u64_or_0("msgs_local"), 10);
        assert_eq!(c.u64_or_0("flush_batches"), 2);
        let movers = c.get("mover_msgs").unwrap().as_arr().unwrap();
        assert_eq!(movers.len(), 2);
        assert_eq!(combined.get("recovery").unwrap().u64_or_0("rollbacks"), 1);
        assert_eq!(combined.get("failover").unwrap().u64_or_0("migrations"), 1);
        let integ = combined.get("integrity").unwrap();
        assert_eq!(integ.u64_or_0("frame_checks"), 3);
        assert_eq!(integ.u64_or_0("frame_detections"), 1);
        assert_eq!(integ.u64_or_0("group_heals"), 2);
        assert_eq!(doc.get("devices").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn prometheus_text_has_expected_series() {
        let r = sample_report();
        let trace = Trace::new(TraceLevel::Phase);
        trace.record_hist(phigraph_trace::HistKind::ExchangeRttUs, 10);
        trace.record_hist(phigraph_trace::HistKind::ExchangeRttUs, 3);
        let snap = trace.snapshot();
        let text = prometheus_text(&r, Some(&snap));
        assert!(text.contains("phigraph_supersteps{app=\"sssp\""));
        assert!(text.contains("phigraph_msgs_local_total"));
        assert!(text.contains("phigraph_recovery_rollbacks"));
        assert!(text.contains("phigraph_failover_migrations"));
        assert!(text.contains("phigraph_integrity_frame_checks"));
        assert!(text.contains("phigraph_integrity_detections"));
        assert!(text.contains("phigraph_exchange_rtt_us_bucket"));
        assert!(text.contains("le=\"+Inf\"} 2\n"));
        assert!(text.contains("phigraph_exchange_rtt_us_sum"));
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || (line.contains('{') && line.contains("} ")),
                "malformed exposition line: {line}"
            );
        }
        // Empty histograms are omitted entirely.
        assert!(!text.contains("checkpoint_write_us"));
    }

    #[test]
    fn prometheus_without_trace_skips_histograms() {
        let r = sample_report();
        let text = prometheus_text(&r, None);
        assert!(!text.contains("_bucket"));
        assert!(text.contains("phigraph_wall_seconds"));
    }
}
