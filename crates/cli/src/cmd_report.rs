//! `phigraph report` — pretty-print a dumped run report.
//!
//! Consumes the JSON produced by `phigraph run ... --trace-out r.json
//! --trace-format json` (or the `run_report.json` a checkpointed run leaves
//! in its checkpoint directory) and reproduces the paper's Fig. 5-style
//! decomposition: per-device and per-phase simulated time, message totals,
//! and — when present — recovery and failover statistics.
//!
//! Observability artifacts degrade instead of erroring: a `--events-out`
//! JSONL log (even one still being written, with a torn final line) gets
//! an event tally with a warning, and a flight recording — including a
//! torn one from a crash mid-write — gets a postmortem summary.

use crate::args::Args;
use crate::out::{out, outln};
use phigraph_core::metrics::seconds;
use phigraph_serve::FLIGHT_SCHEMA;
use phigraph_trace::json::Json;

/// The flags `report` accepts; any other is an error.
const FLAGS: &[&str] = &["steps", "top"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let path = args.pos(0, "report.json")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            // Not one JSON document. An in-progress `--events-out` log
            // is JSONL (summarize what parses); a torn flight.json still
            // carries its schema marker (warn, don't fail the run).
            if looks_like_event_log(&text) {
                eprintln!("report: warning: {path}: partial/in-progress event log; summarizing the lines that parse");
                out!("{}", summarize_event_log(&text));
                return Ok(());
            }
            if text.contains(FLIGHT_SCHEMA) {
                eprintln!("report: warning: {path}: torn flight recording ({e}); the daemon died mid-persist");
                return Ok(());
            }
            return Err(format!("{path}: {e}"));
        }
    };
    let schema = doc.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    if schema == FLIGHT_SCHEMA {
        print_flight(&doc);
        return Ok(());
    }
    if schema != phigraph_core::export::REPORT_SCHEMA {
        // A one-line event log parses as a single event object.
        if doc.get("ev").and_then(|v| v.as_str()).is_some() {
            eprintln!("report: warning: {path}: single-event log; summarizing");
            out!("{}", summarize_event_log(&text));
            return Ok(());
        }
        return Err(format!(
            "{path}: schema {schema:?} is not {:?} (dump one with \
             `phigraph run ... --trace-out r.json --trace-format json`)",
            phigraph_core::export::REPORT_SCHEMA
        ));
    }
    let combined = doc
        .get("combined")
        .ok_or_else(|| format!("{path}: missing combined report"))?;
    let devices: &[Json] = doc.get("devices").and_then(|d| d.as_arr()).unwrap_or(&[]);

    print_header(combined);
    if let Some(serve) = doc.get("serve") {
        // Serving-run report: the interesting decomposition is by
        // tenant, not by engine phase (a serving run has no steps).
        print_serve(serve);
        return Ok(());
    }
    print_decomposition(combined, devices);
    print_messages(combined);
    print_recovery(combined);
    print_failover(combined);
    print_integrity(combined);
    if args.has("steps") {
        let top: usize = args.flag_parse("top", usize::MAX)?;
        print_steps(combined, top);
    }
    Ok(())
}

fn str_or<'a>(j: &'a Json, key: &str, default: &'a str) -> &'a str {
    j.get(key).and_then(|v| v.as_str()).unwrap_or(default)
}

fn steps(j: &Json) -> &[Json] {
    j.get("steps").and_then(|s| s.as_arr()).unwrap_or(&[])
}

/// Sum one simulated phase time over a report's steps.
fn phase_sum(j: &Json, phase: &str) -> f64 {
    seconds(
        steps(j)
            .iter()
            .map(|s| s.get("times").map_or(0.0, |t| t.f64_or_0(phase))),
    )
}

/// Sum one counter over a report's steps.
fn counter_sum(j: &Json, name: &str) -> u64 {
    steps(j)
        .iter()
        .map(|s| s.get("counters").map_or(0, |c| c.u64_or_0(name)))
        .sum()
}

fn print_header(combined: &Json) {
    outln!(
        "run: {} on {} (engine {})",
        str_or(combined, "app", "?"),
        str_or(combined, "device", "?"),
        str_or(combined, "mode", "?"),
    );
    outln!(
        "supersteps: {}   wall {:.3} s   simulated {:.4} s (exec {:.4} + comm {:.4})",
        steps(combined).len(),
        combined.f64_or_0("wall"),
        combined.f64_or_0("sim_total"),
        combined.f64_or_0("sim_exec"),
        combined.f64_or_0("sim_comm"),
    );
}

/// The Fig. 5 decomposition: simulated seconds per sub-step, per device.
fn print_decomposition(combined: &Json, devices: &[Json]) {
    outln!("\nphase decomposition (simulated seconds, share of exec):");
    outln!(
        "  {:<22} {:>14} {:>14} {:>14} {:>10}",
        "device",
        "generate",
        "process",
        "update",
        "comm"
    );
    let mut rows: Vec<(String, &Json)> = vec![("combined".to_string(), combined)];
    for (i, d) in devices.iter().enumerate() {
        // A single-device run dumps the same report twice; skip the echo.
        if devices.len() == 1 && steps(d).len() == steps(combined).len() {
            let label = str_or(d, "device", "?");
            if label == str_or(combined, "device", "?") {
                continue;
            }
        }
        rows.push((format!("dev{i} {}", str_or(d, "device", "?")), d));
    }
    for (label, r) in rows {
        let (gen, proc_t, upd) = (
            phase_sum(r, "gen"),
            phase_sum(r, "process"),
            phase_sum(r, "update"),
        );
        let exec = (gen + proc_t + upd).max(f64::MIN_POSITIVE);
        let comm = seconds(steps(r).iter().map(|s| s.f64_or_0("comm_time")));
        outln!(
            "  {:<22} {:>8.4} {:>4.0}% {:>8.4} {:>4.0}% {:>8.4} {:>4.0}% {:>10.4}",
            truncate(&label, 22),
            gen,
            100.0 * gen / exec,
            proc_t,
            100.0 * proc_t / exec,
            upd,
            100.0 * upd / exec,
            comm,
        );
    }
}

fn print_messages(combined: &Json) {
    outln!("\nmessage totals:");
    let rows = [
        ("active vertices scanned", "active_vertices"),
        ("edges traversed", "gen_edges"),
        ("messages inserted locally", "msgs_local"),
        ("messages sent to peer", "msgs_remote"),
        ("messages reduced", "proc_msgs"),
        ("vertices updated", "updated_vertices"),
        ("wire bytes exchanged", "comm_bytes"),
    ];
    for (label, key) in rows {
        let v = counter_sum(combined, key);
        if v > 0 {
            outln!("  {label:<28} {v}");
        }
    }
}

fn print_recovery(combined: &Json) {
    let Some(rec) = combined.get("recovery") else {
        return;
    };
    let fields = [
        "checkpoints_written",
        "checkpoint_bytes",
        "rollbacks",
        "retries",
        "corrupt_snapshots_rejected",
        "faults_injected",
        "degraded",
    ];
    if fields.iter().all(|f| rec.u64_or_0(f) == 0) {
        return;
    }
    outln!("\nrecovery:");
    for f in fields {
        let v = rec.u64_or_0(f);
        if v > 0 {
            outln!("  {:<28} {v}", f.replace('_', " "));
        }
    }
}

fn print_failover(combined: &Json) {
    let Some(f) = combined.get("failover") else {
        return;
    };
    let fields = [
        "crash_detections",
        "hang_detections",
        "migrations",
        "rebalances",
        "exchange_drops",
        "exchange_timeouts",
        "watchdog_latency_ms",
        "resume_step",
        "supersteps_replayed",
        "degraded_single",
    ];
    if fields.iter().all(|k| f.u64_or_0(k) == 0) {
        return;
    }
    outln!("\nfailover:");
    for k in fields {
        let v = f.u64_or_0(k);
        if v > 0 {
            outln!("  {:<28} {v}", k.replace('_', " "));
        }
    }
}

fn print_integrity(combined: &Json) {
    let Some(i) = combined.get("integrity") else {
        return;
    };
    let fields = [
        "frame_checks",
        "frame_detections",
        "frame_reexchanges",
        "group_checks",
        "group_detections",
        "state_checks",
        "state_detections",
        "audits_run",
        "audit_violations",
        "false_positive_audits",
        "quarantined_groups",
        "group_heals",
        "step_replays",
        "scrub_passes",
    ];
    if fields.iter().all(|k| i.u64_or_0(k) == 0) {
        return;
    }
    outln!("\nintegrity:");
    for k in fields {
        let v = i.u64_or_0(k);
        if v > 0 {
            outln!("  {:<28} {v}", k.replace('_', " "));
        }
    }
}

/// Tenant decomposition of a serving run (`phigraph serve` reports).
fn print_serve(serve: &Json) {
    outln!(
        "\nserving pool: {} workers, queue cap {} ({} queued, {} running at shutdown)",
        serve.u64_or_0("workers"),
        serve.u64_or_0("queue_cap"),
        serve.u64_or_0("queued"),
        serve.u64_or_0("running"),
    );
    outln!(
        "jobs: {} completed, {} rejected",
        serve.u64_or_0("completed"),
        serve.u64_or_0("rejected"),
    );
    let tenants = serve.get("tenants").and_then(|t| t.as_arr()).unwrap_or(&[]);
    if tenants.is_empty() {
        return;
    }
    outln!("\nper-tenant decomposition:");
    outln!(
        "  {:<16} {:>3} {:>3} {:>6} {:>6} {:>5} {:>5} {:>5} {:>10} {:>10} {:>8}",
        "tenant",
        "w",
        "cap",
        "sub",
        "done",
        "rej",
        "canc",
        "exp",
        "wait ms",
        "exec ms",
        "steps"
    );
    for t in tenants {
        outln!(
            "  {:<16} {:>3} {:>3} {:>6} {:>6} {:>5} {:>5} {:>5} {:>10.1} {:>10.1} {:>8}",
            truncate(str_or(t, "tenant", "?"), 16),
            t.u64_or_0("weight"),
            t.u64_or_0("cap"),
            t.u64_or_0("submitted"),
            t.u64_or_0("completed"),
            t.u64_or_0("rejected"),
            t.u64_or_0("cancelled"),
            t.u64_or_0("expired"),
            t.u64_or_0("wait_us") as f64 / 1000.0,
            t.u64_or_0("exec_us") as f64 / 1000.0,
            t.u64_or_0("supersteps"),
        );
    }
}

fn print_steps(combined: &Json, top: usize) {
    outln!("\nper-superstep breakdown (simulated seconds):");
    outln!(
        "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "step",
        "generate",
        "process",
        "update",
        "comm",
        "msgs",
        "active"
    );
    for s in steps(combined).iter().take(top) {
        let t = s.get("times");
        let c = s.get("counters");
        outln!(
            "  {:>5} {:>10.5} {:>10.5} {:>10.5} {:>10.5} {:>12} {:>12}",
            s.u64_or_0("step"),
            t.map_or(0.0, |t| t.f64_or_0("gen")),
            t.map_or(0.0, |t| t.f64_or_0("process")),
            t.map_or(0.0, |t| t.f64_or_0("update")),
            s.f64_or_0("comm_time"),
            c.map_or(0, |c| c.u64_or_0("proc_msgs")),
            c.map_or(0, |c| c.u64_or_0("active_vertices")),
        );
    }
}

/// Does this text look like a `--events-out` JSONL log? (Its first
/// parseable line is an object with an `"ev"` tag.)
fn looks_like_event_log(text: &str) -> bool {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .take(3)
        .any(|l| {
            Json::parse(l)
                .ok()
                .and_then(|j| j.get("ev").and_then(|v| v.as_str()).map(|_| ()))
                .is_some()
        })
}

/// Tally a JSONL event log line by line. Unparseable lines (the torn
/// tail of a crashed daemon) are counted, never fatal.
fn summarize_event_log(text: &str) -> String {
    use std::collections::BTreeMap;
    let mut by_ev: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_tenant: BTreeMap<String, usize> = BTreeMap::new();
    let mut traces: std::collections::BTreeSet<String> = Default::default();
    let (mut parsed, mut torn) = (0usize, 0usize);
    let (mut first_ms, mut last_ms) = (f64::INFINITY, 0.0f64);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(j) = Json::parse(line) else {
            torn += 1;
            continue;
        };
        let Some(ev) = j.get("ev").and_then(|v| v.as_str()) else {
            torn += 1;
            continue;
        };
        parsed += 1;
        *by_ev.entry(ev.to_string()).or_insert(0) += 1;
        if let Some(t) = j.get("tenant").and_then(|v| v.as_str()) {
            *by_tenant.entry(t.to_string()).or_insert(0) += 1;
        }
        if let Some(t) = j.get("trace").and_then(|v| v.as_str()) {
            traces.insert(t.to_string());
        }
        let ms = j.f64_or_0("t_ms");
        first_ms = first_ms.min(ms);
        last_ms = last_ms.max(ms);
    }
    let mut out = format!("event log: {parsed} event(s)");
    if torn > 0 {
        out.push_str(&format!(", {torn} torn/foreign line(s) skipped"));
    }
    if parsed > 0 && last_ms >= first_ms {
        out.push_str(&format!(
            ", spanning {:.1} ms of daemon time",
            last_ms - first_ms
        ));
    }
    out.push('\n');
    if !traces.is_empty() {
        out.push_str(&format!("distinct traces: {}\n", traces.len()));
    }
    if !by_ev.is_empty() {
        out.push_str("by event:\n");
        for (ev, n) in &by_ev {
            out.push_str(&format!("  {ev:<10} {n}\n"));
        }
    }
    if !by_tenant.is_empty() {
        out.push_str("by tenant:\n");
        for (t, n) in &by_tenant {
            out.push_str(&format!("  {:<16} {n}\n", truncate(t, 16)));
        }
    }
    out
}

/// Postmortem summary of a flight recording (`flight.json`).
fn print_flight(doc: &Json) {
    let mut out = format!(
        "flight recording: reason {:?}, {} event(s) in the ring, {} dropped before the crash\n",
        doc.get("reason").and_then(|v| v.as_str()).unwrap_or("?"),
        doc.get("events")
            .and_then(|v| v.as_arr())
            .map_or(0, |a| a.len()),
        doc.u64_or_0("dropped"),
    );
    let events = doc.get("events").and_then(|v| v.as_arr()).unwrap_or(&[]);
    let tail = events.len().saturating_sub(10);
    if !events.is_empty() {
        out.push_str(&format!("last {} event(s):\n", events.len() - tail));
    }
    for e in &events[tail..] {
        out.push_str(&format!(
            "  {:>10.1} ms  {:<8} {:<8} id={} tenant={}\n",
            e.f64_or_0("t_ms"),
            e.get("ev").and_then(|v| v.as_str()).unwrap_or("?"),
            e.get("trace").and_then(|v| v.as_str()).unwrap_or("-"),
            e.get("id").and_then(|v| v.as_str()).unwrap_or("-"),
            e.get("tenant").and_then(|v| v.as_str()).unwrap_or("-"),
        ));
    }
    out!("{}", out);
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "\
{\"ev\":\"admit\",\"t_ms\":1.0,\"trace\":\"t1\",\"id\":\"q1\",\"tenant\":\"gold\"}
{\"ev\":\"start\",\"t_ms\":2.0,\"trace\":\"t1\",\"id\":\"q1\",\"tenant\":\"gold\"}
{\"ev\":\"done\",\"t_ms\":9.5,\"trace\":\"t1\",\"id\":\"q1\",\"tenant\":\"gold\"}
{\"ev\":\"admit\",\"t_ms\":3.0,\"trace\":\"t2\",\"id\":\"q2\",\"tenant\":\"br";

    #[test]
    fn partial_event_logs_are_recognized_and_tallied() {
        assert!(looks_like_event_log(LOG));
        assert!(!looks_like_event_log("{\"schema\":\"other\"}"));
        let summary = summarize_event_log(LOG);
        assert!(summary.contains("3 event(s)"), "{summary}");
        assert!(summary.contains("1 torn/foreign line(s)"), "{summary}");
        assert!(summary.contains("8.5 ms"), "t_ms span: {summary}");
        assert!(summary.contains("distinct traces: 1"), "{summary}");
        assert!(
            summary.contains("admit") && summary.contains("gold"),
            "{summary}"
        );
    }
}
