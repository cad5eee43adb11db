//! `phigraph run` — execute an application over a graph file.

use crate::args::Args;
use crate::cmd_generate::load_graph;
use crate::out::outln;
use phigraph_apps::{
    Bfs, KCore, PageRank, PersonalizedPageRank, SemiClustering, Sssp, TopoSort, Wcc,
};
use phigraph_comm::PcieLink;
use phigraph_core::api::VertexProgram;
use phigraph_core::engine::obj::{run_obj_ranks, run_obj_single};
use phigraph_core::engine::{
    run_ranks, run_ranks_failover, run_recoverable, run_single, EngineConfig, ExecMode,
};
use phigraph_core::metrics::RunReport;
use phigraph_device::DeviceSpec;
use phigraph_graph::state::PodState;
use phigraph_graph::Csr;
use phigraph_partition::{partition_n, DevicePartition, PartitionScheme, Shares, MAX_RANKS};
use phigraph_recover::{
    CheckpointStore, DirStore, FailoverConfig, FailoverPolicy, FaultPlan, IntegrityMode,
};
use phigraph_trace::{Trace, TraceLevel};
use std::io::Write;

/// What every `drive_*` helper hands back to the dispatcher: the combined
/// report, per-device reports, formatted value lines, and — for apps with
/// POD values — the FNV-1a checksum behind `--checksum`.
type DriveResult = Result<(RunReport, Vec<RunReport>, Vec<String>, Option<u64>), String>;

/// Digest of a final value vector (shared with `phigraph serve`, so the
/// daemon's per-job checksums compare directly against one-shot runs).
type ChecksumFn<V> = fn(&[V]) -> u64;

/// The flags `run` accepts; any other is an error.
const FLAGS: &[&str] = &[
    "backoff-ms",
    "checkpoint-dir",
    "checkpoint-every",
    "checksum",
    "device",
    "devices",
    "engine",
    "failover",
    "faults",
    "hetero",
    "integrity",
    "iters",
    "k",
    "max-retries",
    "out",
    "partition",
    "ratio",
    "rebalance-after",
    "resume",
    "scrub-every",
    "source",
    "trace-format",
    "trace-level",
    "trace-out",
    "watchdog-ms",
];

/// The app-specific flags and the apps that read them.
const APP_FLAGS: &[(&str, &[&str])] = &[
    ("source", &["ppr", "bfs", "sssp"]),
    ("iters", &["pagerank", "ppr", "semicluster"]),
    ("k", &["kcore"]),
];

/// The flags that make a run recover: any one of them takes the
/// checkpoint/fault/integrity path.
const RECOVERY_FLAGS: &[&str] = &[
    "checkpoint-every",
    "checkpoint-dir",
    "resume",
    "faults",
    "watchdog-ms",
    "failover",
    "rebalance-after",
    "integrity",
    "scrub-every",
];

/// The flags that tune a recovering run's retries, read only on that path.
const RETRY_FLAGS: &[&str] = &["max-retries", "backoff-ms"];

/// A flag the run would never read is an error, not a no-op.
fn check_unread_flags(app: &str, args: &Args) -> Result<(), String> {
    for &(flag, apps) in APP_FLAGS {
        if args.has(flag) && !apps.contains(&app) {
            return Err(format!(
                "--{flag} does not apply to {app}: it is read by {} only",
                apps.join(", ")
            ));
        }
    }
    if let Some(flag) = RETRY_FLAGS.iter().find(|f| args.has(f)) {
        if !recovery_requested(args) {
            return Err(format!(
                "--{flag} tunes a recovering run: give it with one of --{}",
                RECOVERY_FLAGS.join(", --")
            ));
        }
    }
    let builds_partition = (args.has("hetero") || args.has("devices")) && !args.has("partition");
    if args.has("ratio") && !builds_partition {
        return Err(
            "--ratio needs a partition to build: it applies to --hetero or \
             --devices N runs without --partition"
                .to_string(),
        );
    }
    Ok(())
}

/// The format `--trace-out` is written in, checked before the graph
/// loads: an unknown format, a format with no `--trace-out` to write, and
/// a Chrome trace with tracing off are errors.
fn trace_format(args: &Args) -> Result<&str, String> {
    let format = args.flag_or("trace-format", "chrome");
    if !["chrome", "json", "prom"].contains(&format) {
        return Err(format!(
            "unknown --trace-format {format:?} (expected chrome|json|prom)"
        ));
    }
    if args.has("trace-format") && !args.has("trace-out") {
        return Err("--trace-format needs --trace-out FILE to write".to_string());
    }
    if format == "chrome" && args.has("trace-out") && args.flag("trace-level") == Some("off") {
        return Err(
            "--trace-format chrome needs --trace-level phase: with tracing off \
             there are no spans to write"
                .to_string(),
        );
    }
    Ok(format)
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let app = args.pos(0, "app")?.to_string();
    check_unread_flags(&app, &args)?;
    let format = trace_format(&args)?;
    let trace = build_trace(&args)?;
    let graph_path = args.pos(1, "graph")?;
    let g = load_graph(graph_path)?;
    let source: u32 = args.flag_parse("source", 0u32)?;
    if (source as usize) >= g.num_vertices() && g.num_vertices() > 0 {
        return Err(format!(
            "--source {source} out of range for {} vertices",
            g.num_vertices()
        ));
    }
    let iters: usize = args.flag_parse("iters", 20usize)?;

    let (report, device_reports, lines, checksum) = match app.as_str() {
        "pagerank" => drive_pod(
            &PageRank {
                damping: 0.85,
                iterations: iters,
            },
            &g,
            &args,
            trace.as_ref(),
            |v| format!("{v:.6}"),
        )?,
        "ppr" => drive_pod(
            &PersonalizedPageRank {
                source,
                damping: 0.85,
                iterations: iters,
            },
            &g,
            &args,
            trace.as_ref(),
            |v| format!("{v:.6}"),
        )?,
        "bfs" => drive_pod(&Bfs { source }, &g, &args, trace.as_ref(), |v| {
            v.to_string()
        })?,
        "sssp" => drive_pod(&Sssp { source }, &g, &args, trace.as_ref(), |v| {
            format!("{v}")
        })?,
        "toposort" => drive(&TopoSort::new(&g), &g, &args, trace.as_ref(), None, |v| {
            format!("level={} remaining={}", v.level, v.remaining)
        })?,
        "wcc" => drive_pod(&Wcc::new(&g), &g, &args, trace.as_ref(), |v| v.to_string())?,
        "kcore" => {
            let k: u32 = args.flag_parse("k", 2u32)?;
            let (report, devs, lines, chk) =
                drive(&KCore::new(&g, k), &g, &args, trace.as_ref(), None, |v| {
                    format!("alive={} live_degree={}", v.alive, v.live_degree)
                })?;
            outln!(
                "k-core(k={k}): {} of {} vertices survive",
                lines.iter().filter(|l| l.contains("alive=true")).count(),
                g.num_vertices()
            );
            (report, devs, lines, chk)
        }
        "semicluster" => drive_semicluster(&g, &args, iters, trace.as_ref())?,
        other => return Err(format!("unknown app {other:?}")),
    };

    if args.has("checksum") {
        match checksum {
            // The same fingerprint the serving daemon reports: FNV-1a
            // over the little-endian value encoding.
            Some(c) => outln!("checksum={c:#018x}"),
            None => {
                return Err(format!(
                    "--checksum is unsupported for app {app:?} (needs a plain-old-data value type)"
                ))
            }
        }
    }
    outln!("{}", report.summary());
    write_trace_output(&args, format, trace.as_ref(), &report, &device_reports)?;
    if let Some(out) = args.flag("out") {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?,
        );
        for (v, line) in lines.iter().enumerate() {
            writeln!(f, "{v}\t{line}").map_err(|e| format!("write {out}: {e}"))?;
        }
        f.flush().map_err(|e| e.to_string())?;
        outln!("wrote {} vertex values -> {out}", lines.len());
    }
    Ok(())
}

/// Build the shared trace from `--trace-level` / `--trace-out`. Giving
/// `--trace-out` alone implies phase-level tracing.
fn build_trace(args: &Args) -> Result<Option<Trace>, String> {
    if !args.has("trace-out") && !args.has("trace-level") {
        return Ok(None);
    }
    let level: TraceLevel = args.flag_or("trace-level", "phase").parse()?;
    Ok(Some(Trace::new(level)))
}

/// Attach the shared trace (when one was requested) to an engine config.
fn attach(cfg: EngineConfig, trace: Option<&Trace>) -> EngineConfig {
    match trace {
        Some(t) => cfg.with_trace(t.clone()),
        None => cfg,
    }
}

/// Write `--trace-out` in `format`, which [`trace_format`] checked.
fn write_trace_output(
    args: &Args,
    format: &str,
    trace: Option<&Trace>,
    report: &RunReport,
    device_reports: &[RunReport],
) -> Result<(), String> {
    let Some(path) = args.flag("trace-out") else {
        return Ok(());
    };
    let text = match format {
        // `--trace-out` always builds a trace (see `build_trace`).
        "chrome" => trace.map(Trace::export_chrome).unwrap_or_default(),
        "json" => phigraph_core::export::run_report_json(report, device_reports),
        _ => {
            let snap = trace.map(|t| t.snapshot());
            phigraph_core::export::prometheus_text(report, snap.as_ref())
        }
    };
    std::fs::write(path, text.as_bytes()).map_err(|e| format!("write {path}: {e}"))?;
    if let Some(t) = trace {
        let snap = t.snapshot();
        outln!(
            "wrote {format} trace -> {path} ({} spans on {} threads, {} dropped)",
            snap.total_spans(),
            snap.threads.len(),
            snap.total_dropped()
        );
    } else {
        outln!("wrote {format} trace -> {path}");
    }
    Ok(())
}

fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    Ok(match args.flag_or("engine", "lock") {
        "lock" => EngineConfig::locking(),
        "pipe" => EngineConfig::pipelined(),
        "omp" => EngineConfig::flat(),
        "seq" => EngineConfig::sequential(),
        other => return Err(format!("unknown engine {other:?}")),
    })
}

fn device_spec(args: &Args) -> Result<DeviceSpec, String> {
    Ok(match args.flag_or("device", "cpu") {
        "cpu" => DeviceSpec::xeon_e5_2680(),
        "mic" => DeviceSpec::xeon_phi_se10p(),
        other => return Err(format!("unknown device {other:?}")),
    })
}

/// `--devices N`: size of the rank fabric for hetero runs. Rank 0 models
/// the host CPU; ranks 1..N-1 model coprocessor cards.
fn device_count(args: &Args) -> Result<usize, String> {
    let n: usize = args.flag_parse("devices", 2usize)?;
    if !(2..=MAX_RANKS).contains(&n) {
        return Err(format!(
            "--devices {n} out of range (expected 2..={MAX_RANKS})"
        ));
    }
    Ok(n)
}

/// `--devices N` runs `--engine` on ranks 1..N-1 (rank 0 always runs
/// `lock`); `seq` has no rank form.
fn fabric_engine(cfg: EngineConfig) -> Result<EngineConfig, String> {
    if cfg.mode == ExecMode::Sequential {
        return Err(
            "--engine seq runs on one device; --devices takes --engine lock|pipe|omp".to_string(),
        );
    }
    Ok(cfg)
}

/// Per-rank configs of a run on `--devices N` without recovery flags.
fn fabric_configs(
    args: &Args,
    n: usize,
    trace: Option<&Trace>,
) -> Result<Vec<EngineConfig>, String> {
    let mic_cfg = fabric_engine(engine_config(args)?)?;
    let mut configs = vec![attach(EngineConfig::locking(), trace)];
    configs.resize(n, attach(mic_cfg, trace));
    Ok(configs)
}

/// Device specs for an N-rank fabric: rank 0 is the CPU, the rest MICs.
fn fabric_specs(n: usize) -> Vec<DeviceSpec> {
    (0..n)
        .map(|r| {
            if r == 0 {
                DeviceSpec::xeon_e5_2680()
            } else {
                DeviceSpec::xeon_phi_se10p()
            }
        })
        .collect()
}

fn load_or_build_partition(g: &Csr, args: &Args, n: usize) -> Result<DevicePartition, String> {
    if let Some(path) = args.flag("partition") {
        let f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let p =
            phigraph_partition::file::read_partition(f).map_err(|e| format!("read {path}: {e}"))?;
        if p.assign.len() != g.num_vertices() {
            return Err(format!(
                "partition file covers {} vertices, graph has {}",
                p.assign.len(),
                g.num_vertices()
            ));
        }
        if p.num_ranks() > n {
            return Err(format!(
                "partition file assigns {} ranks but --devices is {n}",
                p.num_ranks()
            ));
        }
        Ok(p)
    } else {
        let shares: Shares = match args.flag("ratio") {
            Some(s) => s.parse()?,
            None => Shares::even(n),
        };
        if shares.num_ranks() != n {
            return Err(format!(
                "--ratio has {} parts but --devices is {n}",
                shares.num_ranks()
            ));
        }
        Ok(partition_n(
            g,
            PartitionScheme::hybrid_default(),
            &shares,
            7,
        ))
    }
}

/// Whether any fault-tolerance flag was given.
fn recovery_requested(args: &Args) -> bool {
    RECOVERY_FLAGS.iter().any(|f| args.has(f))
}

/// Recovery snapshots and replays plain-old-data values only: the other
/// apps refuse every fault-tolerance flag instead of ignoring it.
fn refuse_recovery(args: &Args) -> Result<(), String> {
    if recovery_requested(args) {
        return Err(
            "checkpoint/fault flags are unsupported for this app's value type \
             (supported: pagerank, ppr, bfs, sssp, wcc)"
                .to_string(),
        );
    }
    Ok(())
}

/// Fold the liveness flags into a failover configuration.
fn failover_config(args: &Args) -> Result<FailoverConfig, String> {
    let d = FailoverConfig::default();
    let policy: FailoverPolicy = args.flag_or("failover", "migrate").parse()?;
    let watchdog_ms = args.flag_parse("watchdog-ms", d.watchdog_ms)?;
    if watchdog_ms == 0 {
        return Err(
            "--watchdog-ms must be at least 1: a 0 ms deadline times out \
             every exchange"
                .to_string(),
        );
    }
    Ok(d.with_watchdog_ms(watchdog_ms)
        .with_policy(policy)
        .with_rebalance_after(args.flag_parse("rebalance-after", d.rebalance_after)?))
}

/// Parse `--faults step:kind[:dev],...` through the shared
/// [`FaultPlan`] spec-string parser (see `phigraph_recover::fault` for the
/// kind names; `phigraph run --help` lists them).
fn parse_fault_plan(s: &str) -> Result<FaultPlan, String> {
    let plan: FaultPlan = s.parse()?;
    if plan.faults.is_empty() {
        return Err("--faults given but no fault specs parsed".to_string());
    }
    Ok(plan)
}

/// Fold the fault-tolerance and integrity flags into an engine
/// configuration.
fn apply_recovery_flags(mut cfg: EngineConfig, args: &Args) -> Result<EngineConfig, String> {
    let defaults = cfg.recovery;
    cfg = cfg
        .with_checkpoint_every(args.flag_parse("checkpoint-every", defaults.checkpoint_every)?)
        .with_max_retries(args.flag_parse("max-retries", defaults.max_retries)?)
        .with_backoff_ms(args.flag_parse("backoff-ms", defaults.backoff_base_ms)?);
    let integrity: IntegrityMode = args.flag_or("integrity", cfg.integrity.name()).parse()?;
    let scrub_every = args.flag_parse("scrub-every", cfg.scrub_every)?;
    cfg = cfg.with_integrity(integrity).with_scrub_every(scrub_every);
    if let Some(spec) = args.flag("faults") {
        cfg = cfg.with_fault_plan(parse_fault_plan(spec)?.injector());
    }
    Ok(cfg)
}

/// Driver for the apps whose vertex value is plain-old-data: adds the
/// checkpoint/resume/fault-injection path on top of [`drive`].
fn drive_pod<P: VertexProgram>(
    program: &P,
    g: &Csr,
    args: &Args,
    trace: Option<&Trace>,
    fmt: impl Fn(&P::Value) -> String,
) -> DriveResult
where
    P::Value: PodState,
{
    if !recovery_requested(args) {
        return drive(
            program,
            g,
            args,
            trace,
            Some(phigraph_serve::values_checksum::<P::Value>),
            fmt,
        );
    }
    let cfg = attach(apply_recovery_flags(engine_config(args)?, args)?, trace);
    let fabric = args.has("hetero") || args.has("partition") || args.has("devices");
    let n = if fabric { device_count(args)? } else { 1 };
    // A fault or flag that can never take effect is an error, not a no-op.
    if let Some(spec) = args.flag("faults") {
        parse_fault_plan(spec)?
            .check_ranks(n)
            .map_err(|e| format!("--faults: {e}"))?;
    }
    if let Some(flag) = ["failover", "watchdog-ms", "rebalance-after"]
        .into_iter()
        .find(|f| !fabric && args.has(f))
    {
        return Err(format!(
            "--{flag} needs peers to watch: it applies to --devices N runs only"
        ));
    }
    let out = if fabric {
        let p = load_or_build_partition(g, args, n)?;
        let fcfg = failover_config(args)?;
        let mic_cfg = fabric_engine(cfg.clone())?;
        let cpu_cfg = attach(apply_recovery_flags(EngineConfig::locking(), args)?, trace);
        // All ranks share the `--engine` config's injector so each planned
        // fault fires once.
        let cpu_cfg = match &cfg.fault_plan {
            Some(inj) => cpu_cfg.with_fault_plan(inj.clone()),
            None => cpu_cfg,
        };
        let mut configs = vec![cpu_cfg];
        configs.resize(n, mic_cfg);
        // Each rank keeps its own snapshot store under the checkpoint dir
        // (`rank0`..`rankN-1`); a 2-device resume still accepts the legacy
        // `dev0`/`dev1` layout written by earlier versions.
        let dir = args.flag_or("checkpoint-dir", "phigraph-ckpt");
        let legacy = n == 2
            && !std::path::Path::new(&format!("{dir}/rank0")).exists()
            && std::path::Path::new(&format!("{dir}/dev0")).exists();
        let mut owned: Vec<DirStore> = (0..n)
            .map(|r| {
                let sub = if legacy {
                    format!("{dir}/dev{r}")
                } else {
                    format!("{dir}/rank{r}")
                };
                DirStore::open(sub)
            })
            .collect::<Result<_, _>>()?;
        let stores: Vec<&mut dyn CheckpointStore> = owned
            .iter_mut()
            .map(|s| s as &mut dyn CheckpointStore)
            .collect();
        let out = run_ranks_failover(
            program,
            g,
            &p,
            &fabric_specs(n),
            &configs,
            PcieLink::gen2_x16(),
            &fcfg,
            stores,
            args.has("resume"),
        );
        persist_run_report(dir, &out.report, &out.device_reports)?;
        out
    } else {
        if cfg.mode == ExecMode::Sequential {
            return Err(
                "--checkpoint-every/--resume/--faults require --engine lock|pipe|omp".to_string(),
            );
        }
        let dir = args.flag_or("checkpoint-dir", "phigraph-ckpt");
        let mut store = DirStore::open(dir)?;
        let out = run_recoverable(
            program,
            g,
            device_spec(args)?,
            &cfg,
            &mut store,
            args.has("resume"),
        );
        persist_run_report(dir, &out.report, &out.device_reports)?;
        out
    };
    let checksum = phigraph_serve::values_checksum(&out.values);
    let lines = out.values.iter().map(fmt).collect();
    Ok((out.report, out.device_reports, lines, Some(checksum)))
}

/// Leave a machine-readable run report next to the snapshots so that
/// `phigraph recover <dir>` can show the recovery and failover statistics
/// of the run that produced them.
fn persist_run_report(dir: &str, report: &RunReport, devices: &[RunReport]) -> Result<(), String> {
    let path = format!("{dir}/run_report.json");
    let text = phigraph_core::export::run_report_json(report, devices);
    std::fs::write(&path, text.as_bytes()).map_err(|e| format!("write {path}: {e}"))
}

fn drive<P: VertexProgram>(
    program: &P,
    g: &Csr,
    args: &Args,
    trace: Option<&Trace>,
    checksum_fn: Option<ChecksumFn<P::Value>>,
    fmt: impl Fn(&P::Value) -> String,
) -> DriveResult {
    refuse_recovery(args)?;
    let out = if args.has("hetero") || args.has("partition") || args.has("devices") {
        let n = device_count(args)?;
        let p = load_or_build_partition(g, args, n)?;
        run_ranks(
            program,
            g,
            &p,
            &fabric_specs(n),
            &fabric_configs(args, n, trace)?,
            PcieLink::gen2_x16(),
        )
    } else {
        run_single(
            program,
            g,
            device_spec(args)?,
            &attach(engine_config(args)?, trace),
        )
    };
    let checksum = checksum_fn.map(|f| f(&out.values));
    let lines = out.values.iter().map(fmt).collect();
    Ok((out.report, out.device_reports, lines, checksum))
}

fn drive_semicluster(g: &Csr, args: &Args, iters: usize, trace: Option<&Trace>) -> DriveResult {
    refuse_recovery(args)?;
    let sc = SemiClustering {
        iterations: iters.min(12),
        ..Default::default()
    };
    let out = if args.has("hetero") || args.has("partition") || args.has("devices") {
        let n = device_count(args)?;
        let p = load_or_build_partition(g, args, n)?;
        run_obj_ranks(
            &sc,
            g,
            &p,
            &fabric_specs(n),
            &fabric_configs(args, n, trace)?,
            PcieLink::gen2_x16(),
        )
    } else {
        run_obj_single(
            &sc,
            g,
            device_spec(args)?,
            &attach(engine_config(args)?, trace),
        )
    };
    let lines = out
        .values
        .iter()
        .map(|clusters| match clusters.first() {
            Some(c) => format!(
                "top-cluster={:?} score={:.4}",
                c.members,
                c.score(sc.boundary_factor)
            ),
            None => "no-cluster".to_string(),
        })
        .collect();
    Ok((out.report, out.device_reports, lines, None))
}
