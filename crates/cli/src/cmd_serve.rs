//! `phigraph serve` — load a graph once and answer concurrent
//! multi-tenant queries over it (line-delimited JSON on stdin/stdout,
//! or a unix socket with `--socket`).
//!
//! Survivability flags: `--journal-dir` turns on the crash-recovery job
//! journal (a restarted daemon replays incomplete jobs and re-emits
//! completed results), `--drain` requeues still-queued jobs into the
//! journal at shutdown instead of running them, `--shed-policy`
//! selects the overload ladder, and `--integrity-max` clamps per-job
//! integrity requests.
//!
//! Observability flags: `--metrics-sock <path>` serves one full
//! Prometheus scrape per connection (poll it with `phigraph top`),
//! `--metrics-every <secs>` writes periodic snapshot files,
//! `--events-out <path>` streams per-job causal trace events as JSONL,
//! and `--trace-level off` disables the histogram plane entirely
//! (it defaults to `phase` so live scrapes carry latency quantiles).

use crate::args::Args;
use crate::cmd_generate::load_graph;
use phigraph_core::engine::ExecMode;
use phigraph_device::DeviceSpec;
use phigraph_recover::IntegrityMode;
use phigraph_serve::{run_daemon, DaemonConfig, ServeConfig, ShedPolicy};
use phigraph_trace::{Trace, TraceLevel};
use std::sync::Arc;

/// The flags `serve` accepts; any other is an error.
const FLAGS: &[&str] = &[
    "deadline-ms",
    "default-cap",
    "default-weight",
    "device",
    "drain",
    "engine",
    "events-out",
    "integrity",
    "integrity-max",
    "journal-dir",
    "metrics-every",
    "metrics-sock",
    "prom-out",
    "queue-cap",
    "report-out",
    "shed-policy",
    "socket",
    "tenants",
    "trace-level",
    "watchdog-tick-ms",
    "workers",
];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let graph_path = args.pos(0, "graph")?;
    // Every flag is checked before the graph loads, so a bad one fails
    // fast on a large input.
    let mode = match args.flag_or("engine", "lock") {
        "lock" => ExecMode::Locking,
        "pipe" => ExecMode::Pipelined,
        "omp" => ExecMode::Flat,
        "seq" => ExecMode::Sequential,
        other => return Err(format!("unknown engine {other:?}")),
    };
    let (device, device_label) = match args.flag_or("device", "cpu") {
        "cpu" => (DeviceSpec::xeon_e5_2680(), "cpu"),
        "mic" => (DeviceSpec::xeon_phi_se10p(), "mic"),
        other => return Err(format!("unknown device {other:?}")),
    };
    // The serving daemon traces at `phase` by default: the sliding
    // windows and live quantiles need histograms. `--trace-level off`
    // opts out (the zero-cost batch-engine default).
    let trace = match args.flag_or("trace-level", "phase") {
        "off" => None,
        level => Some(Trace::new(level.parse::<TraceLevel>()?)),
    };

    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        workers: args.flag_parse("workers", defaults.workers)?,
        queue_cap: args.flag_parse("queue-cap", defaults.queue_cap)?,
        default_deadline_ms: match args.flag("deadline-ms") {
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for --deadline-ms"))?,
            ),
            None => None,
        },
        mode,
        device,
        default_weight: args.flag_parse("default-weight", defaults.default_weight)?,
        default_cap: args.flag_parse("default-cap", defaults.default_cap)?,
        watchdog_tick_ms: args.flag_parse("watchdog-tick-ms", defaults.watchdog_tick_ms)?,
        trace,
        // The daemon opens the journal itself (it owns recovery).
        journal: None,
        default_integrity: args
            .flag_or("integrity", defaults.default_integrity.name())
            .parse::<IntegrityMode>()?,
        integrity_max: args
            .flag_or("integrity-max", defaults.integrity_max.name())
            .parse::<IntegrityMode>()?,
        shed: args
            .flag_or("shed-policy", defaults.shed.name())
            .parse::<ShedPolicy>()?,
        // The daemon builds the event sink itself (it owns the flight
        // recorder's persistence paths).
        events: None,
    };

    let dcfg = DaemonConfig {
        socket: args.flag("socket").map(String::from),
        report_out: Some(args.flag_or("report-out", "run_report.json").to_string()),
        prom_out: args.flag("prom-out").map(String::from),
        tenants: parse_tenants(args.flag("tenants"))?,
        device_label: device_label.to_string(),
        journal_dir: args.flag("journal-dir").map(String::from),
        drain_on_exit: args.has("drain"),
        loader: Some(Arc::new(|path: &str| load_graph(path))),
        metrics_sock: args.flag("metrics-sock").map(String::from),
        metrics_every: match args.flag("metrics-every") {
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for --metrics-every"))?,
            ),
            None => None,
        },
        events_out: args.flag("events-out").map(String::from),
    };
    let g = Arc::new(load_graph(graph_path)?);
    eprintln!(
        "serve: loaded {} ({} vertices, {} edges)",
        graph_path,
        g.num_vertices(),
        g.num_edges()
    );
    eprintln!(
        "serve: {} workers, queue cap {}, engine {}, {} tenants preconfigured",
        cfg.workers,
        cfg.queue_cap,
        cfg.mode.name(),
        dcfg.tenants.len()
    );
    run_daemon(g, cfg, dcfg)
}

/// Parse `--tenants "a:4:2,b:1:1"` (name:weight:cap, comma-separated;
/// weight and cap optional, defaulting to 1).
fn parse_tenants(flag: Option<&str>) -> Result<Vec<(String, u64, usize)>, String> {
    let Some(spec) = flag else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let mut parts = entry.split(':');
        let name = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("empty tenant name in {entry:?}"))?;
        let weight: u64 = match parts.next() {
            Some(w) => w
                .parse()
                .map_err(|_| format!("bad weight in tenant spec {entry:?}"))?,
            None => 1,
        };
        let cap: usize = match parts.next() {
            Some(c) => c
                .parse()
                .map_err(|_| format!("bad cap in tenant spec {entry:?}"))?,
            None => 1,
        };
        if parts.next().is_some() {
            return Err(format!("tenant spec {entry:?} has too many fields"));
        }
        out.push((name.to_string(), weight.max(1), cap.max(1)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_specs_parse() {
        assert_eq!(parse_tenants(None).unwrap(), vec![]);
        assert_eq!(
            parse_tenants(Some("a:4:2,b:1:1,c")).unwrap(),
            vec![
                ("a".to_string(), 4, 2),
                ("b".to_string(), 1, 1),
                ("c".to_string(), 1, 1),
            ]
        );
        assert!(parse_tenants(Some("a:x:1")).is_err());
        assert!(parse_tenants(Some("a:1:2:3")).is_err());
    }
}
