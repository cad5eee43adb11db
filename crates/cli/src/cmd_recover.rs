//! `phigraph recover` — list and inspect checkpoint snapshots.
//!
//! Snapshots are the versioned, checksummed barrier images written by
//! `phigraph run --checkpoint-every`. This subcommand validates each one
//! with the same decoder the recovery path uses, so "OK" here means the
//! engine would accept it for `--resume`. Heterogeneous failover runs keep
//! one store per rank (`<dir>/rank0`..`<dir>/rankN-1`); all are listed.
//! The legacy 2-device layout (`<dir>/dev0`, `<dir>/dev1`) is still
//! understood; a directory mixing both layouts is listed with a warning,
//! since `--resume` would only read the `rank*` stores.
//!
//! Runs also drop a `run_report.json` into the checkpoint directory; when
//! present, the recovery and failover statistics of the run that produced
//! the snapshots are shown alongside them.

use crate::args::Args;
use crate::out::outln;
use phigraph_recover::{CheckpointStore, DirStore, Snapshot};
use phigraph_trace::json::Json;

/// The flags `recover` accepts; any other is an error.
const FLAGS: &[&str] = &["inspect"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let dir = args.pos(0, "checkpoint-dir")?;
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("no checkpoint directory at {dir}"));
    }

    // A heterogeneous failover run keeps one snapshot store per rank
    // (`rank0`..`rankN-1`); older runs used `dev0`/`dev1`. Learn whichever
    // layout is present — and if both are, keep going with a warning
    // rather than refusing to show anything.
    let mut stores: Vec<(String, DirStore)> = Vec::new();
    let mut legacy: Vec<(String, DirStore)> = Vec::new();
    for r in 0..phigraph_partition::MAX_RANKS {
        let sub = format!("{dir}/rank{r}");
        if std::path::Path::new(&sub).is_dir() {
            stores.push((format!("rank{r}: "), DirStore::open(&sub)?));
        }
    }
    for dev in ["dev0", "dev1"] {
        let sub = format!("{dir}/{dev}");
        if std::path::Path::new(&sub).is_dir() {
            legacy.push((format!("{dev}: "), DirStore::open(&sub)?));
        }
    }
    if !stores.is_empty() && !legacy.is_empty() {
        outln!(
            "warning: {dir} mixes per-rank (rank*) and legacy (dev*) stores; \
             listing both, but --resume would only read the rank* layout"
        );
    }
    stores.append(&mut legacy);
    if stores.is_empty() {
        stores.push((String::new(), DirStore::open(dir)?));
    }

    if let Some(which) = args.flag("inspect") {
        let step: u64 = which
            .parse()
            .map_err(|_| format!("bad --inspect value {which:?}"))?;
        let mut shown = false;
        for (label, store) in &stores {
            if store.list().contains(&step) {
                inspect(label, store, step)?;
                shown = true;
            }
        }
        if !shown {
            let have: Vec<u64> = stores.iter().flat_map(|(_, s)| s.list()).collect();
            return Err(format!(
                "no snapshot for superstep {step} in {dir} (have: {have:?})"
            ));
        }
        print_run_report(dir);
        return Ok(());
    }

    let total: usize = stores.iter().map(|(_, s)| s.list().len()).sum();
    if total == 0 {
        outln!("no snapshots in {dir}");
    } else {
        outln!("{total} snapshot(s) in {dir}:");
        for (label, store) in &stores {
            list(label, store);
        }
    }
    print_run_report(dir);
    Ok(())
}

fn inspect(label: &str, store: &DirStore, step: u64) -> Result<(), String> {
    let bytes = store.load(step)?;
    let snap = Snapshot::decode(&bytes).map_err(|e| format!("snapshot {step} invalid: {e}"))?;
    let n = snap.num_vertices();
    let active = snap.active.iter().filter(|&&f| f != 0).count();
    outln!("{label}snapshot {}", store.path_for(step).display());
    outln!("  resumes at superstep : {}", snap.superstep);
    outln!("  application          : {}", snap.app);
    outln!("  vertices             : {n}");
    outln!("  value width          : {} bytes", snap.value_size);
    outln!("  active vertices      : {active}");
    outln!(
        "  encoded size         : {} bytes (checksum OK)",
        bytes.len()
    );
    Ok(())
}

fn list(label: &str, store: &DirStore) {
    for step in store.list() {
        match store.load(step).and_then(|b| {
            Snapshot::decode(&b)
                .map(|s| (s, b.len()))
                .map_err(|e| e.to_string())
        }) {
            Ok((snap, len)) => {
                let active = snap.active.iter().filter(|&&f| f != 0).count();
                outln!(
                    "  {label}step {:>6}  app={:<10} vertices={:<9} active={:<9} {} bytes  OK",
                    snap.superstep,
                    snap.app,
                    snap.num_vertices(),
                    active,
                    len,
                );
            }
            Err(e) => outln!("  {label}step {step:>6}  INVALID: {e}"),
        }
    }
}

/// Show the recovery, failover, and integrity statistics of the run that
/// produced the snapshots, when it left a `run_report.json` behind.
///
/// A run that crashed mid-write (or a disk that rotted) can leave a torn or
/// truncated report behind; every failure here degrades to "no report" with
/// a warning — this path must never panic, because it runs exactly when the
/// operator is trying to diagnose a broken run.
fn print_run_report(dir: &str) {
    let path = format!("{dir}/run_report.json");
    let text = match std::fs::read(&path) {
        Err(_) => return, // no report left behind: nothing to show
        Ok(bytes) => match String::from_utf8(bytes) {
            Ok(t) => t,
            Err(_) => {
                outln!("warning: {path}: not valid UTF-8 (torn write?); ignoring report");
                return;
            }
        },
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            outln!("warning: {path}: {e} (torn write?); ignoring report");
            return;
        }
    };
    if doc.get("schema").and_then(|s| s.as_str()) != Some(phigraph_core::export::REPORT_SCHEMA) {
        outln!("warning: {path}: not a phigraph run report; ignoring");
        return;
    }
    let Some(combined) = doc.get("combined") else {
        outln!("warning: {path}: missing \"combined\" section; ignoring report");
        return;
    };
    let app = combined.get("app").and_then(|a| a.as_str()).unwrap_or("?");
    let mode = combined.get("mode").and_then(|m| m.as_str()).unwrap_or("?");
    outln!("\nlast run ({path}): {app}, engine {mode}");
    if let Some(r) = combined.get("recovery") {
        outln!(
            "  recovery : checkpoints={} ({} bytes), rollbacks={}, retries={}, \
             corrupt_rejected={}, faults_injected={}, degraded={}",
            r.u64_or_0("checkpoints_written"),
            r.u64_or_0("checkpoint_bytes"),
            r.u64_or_0("rollbacks"),
            r.u64_or_0("retries"),
            r.u64_or_0("corrupt_snapshots_rejected"),
            r.u64_or_0("faults_injected"),
            r.u64_or_0("degraded") != 0,
        );
    }
    if let Some(f) = combined.get("failover") {
        outln!(
            "  failover : crashes={} hangs={} migrations={} rebalances={} \
             drops={} timeouts={} watchdog_latency_ms={} resume_step={} \
             replayed={}/{} degraded_single={}",
            f.u64_or_0("crash_detections"),
            f.u64_or_0("hang_detections"),
            f.u64_or_0("migrations"),
            f.u64_or_0("rebalances"),
            f.u64_or_0("exchange_drops"),
            f.u64_or_0("exchange_timeouts"),
            f.u64_or_0("watchdog_latency_ms"),
            f.u64_or_0("resume_step"),
            f.u64_or_0("supersteps_replayed"),
            f.u64_or_0("supersteps_total"),
            f.u64_or_0("degraded_single") != 0,
        );
    }
    if let Some(i) = combined.get("integrity") {
        let checks =
            i.u64_or_0("frame_checks") + i.u64_or_0("group_checks") + i.u64_or_0("state_checks");
        let detections = i.u64_or_0("frame_detections")
            + i.u64_or_0("group_detections")
            + i.u64_or_0("state_detections");
        outln!(
            "  integrity: checks={} detections={} quarantined={} heals={} \
             replays={} reexch={} audits={} violations={} false_pos={} scrubs={}",
            checks,
            detections,
            i.u64_or_0("quarantined_groups"),
            i.u64_or_0("group_heals"),
            i.u64_or_0("step_replays"),
            i.u64_or_0("frame_reexchanges"),
            i.u64_or_0("audits_run"),
            i.u64_or_0("audit_violations"),
            i.u64_or_0("false_positive_audits"),
            i.u64_or_0("scrub_passes"),
        );
    }
}
