//! End-to-end tests driving the `phigraph` binary as a subprocess:
//! generate → info → partition → run, over real files.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn phigraph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_phigraph"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phigraph-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn generate_info_partition_run_pipeline() {
    let dir = tmpdir("pipeline");
    let graph = dir.join("g.bin");
    let graph_s = graph.to_str().unwrap();

    // generate
    let o = phigraph(&[
        "generate", "pokec", graph_s, "--scale", "tiny", "--seed", "3",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("wrote pokec graph"));
    assert!(graph.exists());

    // info
    let o = phigraph(&["info", graph_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    let info = stdout(&o);
    assert!(info.contains("vertices   1024"));
    assert!(info.contains("out-degree histogram"));
    assert!(info.contains("top-5 out-degree hubs"));

    // partition
    let part = dir.join("g.part");
    let part_s = part.to_str().unwrap();
    let o = phigraph(&[
        "partition",
        graph_s,
        part_s,
        "--scheme",
        "hybrid",
        "--ratio",
        "3:5",
        "--blocks",
        "32",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("cross edges"));
    assert!(part.exists());

    // run single device
    let out_file = dir.join("bfs.txt");
    let o = phigraph(&[
        "run",
        "bfs",
        graph_s,
        "--engine",
        "pipe",
        "--device",
        "mic",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("bfs"));
    let values = std::fs::read_to_string(&out_file).unwrap();
    assert_eq!(values.lines().count(), 1024);
    assert!(
        values.lines().next().unwrap().starts_with("0\t0"),
        "source has level 0"
    );

    // run heterogeneous with the partition file
    let o = phigraph(&["run", "sssp", graph_s, "--partition", part_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("cpu-mic"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adjacency_format_round_trips_through_cli() {
    let dir = tmpdir("adj");
    let graph = dir.join("g.adj");
    let graph_s = graph.to_str().unwrap();
    let o = phigraph(&[
        "generate",
        "gnm",
        graph_s,
        "--vertices",
        "200",
        "--edges",
        "800",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = phigraph(&["info", graph_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("vertices   200"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_all_apps_on_suitable_graphs() {
    let dir = tmpdir("apps");
    let pokec = dir.join("p.bin");
    let dag = dir.join("d.bin");
    let dblp = dir.join("c.bin");
    for (kind, path) in [("pokec-weighted", &pokec), ("dag", &dag), ("dblp", &dblp)] {
        let o = phigraph(&["generate", kind, path.to_str().unwrap(), "--scale", "tiny"]);
        assert!(o.status.success(), "{kind}: {}", stderr(&o));
    }
    for (app, graph, extra) in [
        ("pagerank", &pokec, vec!["--iters", "5"]),
        ("sssp", &pokec, vec!["--source", "0"]),
        ("wcc", &pokec, vec![]),
        ("kcore", &pokec, vec!["--k", "3"]),
        ("toposort", &dag, vec![]),
        ("semicluster", &dblp, vec!["--iters", "4"]),
    ] {
        let mut args = vec!["run", app, graph.to_str().unwrap()];
        args.extend(extra);
        let o = phigraph(&args);
        assert!(o.status.success(), "{app}: {}", stderr(&o));
        assert!(stdout(&o).contains(app), "{app} summary missing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let o = phigraph(&["run", "nosuchapp", "/nonexistent.bin"]);
    assert!(!o.status.success());
    let o = phigraph(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));
    let o = phigraph(&[]);
    assert!(!o.status.success());
}

#[test]
fn unknown_flags_exit_2_instead_of_being_ignored() {
    let dir = tmpdir("flags");
    let graph = dir.join("g.bin");
    let graph_s = graph.to_str().unwrap();
    let part = dir.join("g.part");
    let o = phigraph(&["generate", "gnm", graph_s, "--scale", "tiny"]);
    assert!(o.status.success(), "{}", stderr(&o));
    for argv in [
        &["run", "sssp", graph_s, "--bogus-flag", "1"][..],
        &["run", "sssp", graph_s, "--host-threads", "1"],
        &["partition", graph_s, part.to_str().unwrap(), "--bogus", "1"],
        &["info", graph_s, "--seed", "1"],
    ] {
        let o = phigraph(argv);
        assert_eq!(o.status.code(), Some(2), "{argv:?} must exit 2");
        assert!(
            stderr(&o).contains("error: unknown flag --"),
            "{argv:?}: {}",
            stderr(&o)
        );
    }
    assert!(
        !part.exists(),
        "a rejected partition command wrote its output"
    );
    // The same commands without the unknown flag still succeed.
    let o = phigraph(&["run", "sssp", graph_s, "--engine", "pipe", "--checksum"]);
    assert!(o.status.success(), "{}", stderr(&o));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_rejects_out_of_range_source() {
    let dir = tmpdir("source");
    let graph = dir.join("g.bin");
    let o = phigraph(&[
        "generate",
        "gnm",
        graph.to_str().unwrap(),
        "--vertices",
        "10",
        "--edges",
        "20",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = phigraph(&["run", "bfs", graph.to_str().unwrap(), "--source", "99"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("out of range"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_rejects_flags_the_app_never_reads() {
    let dir = tmpdir("unread");
    let graph = dir.join("g.bin");
    let graph_s = graph.to_str().unwrap();
    let o = phigraph(&[
        "generate", "pokec", graph_s, "--scale", "small", "--seed", "7",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let cases: &[(&[&str], &str)] = &[
        (
            &["pagerank", "--ratio", "garbage"],
            "--ratio needs a partition to build",
        ),
        (&["wcc", "--source", "3"], "--source does not apply to wcc"),
        (&["bfs", "--iters", "7"], "--iters does not apply to bfs"),
        (&["pagerank", "--k", "9"], "--k does not apply to pagerank"),
    ];
    for (extra, want) in cases {
        let mut argv = vec!["run", extra[0], graph_s];
        argv.extend_from_slice(&extra[1..]);
        let o = phigraph(&argv);
        assert_eq!(o.status.code(), Some(2), "{extra:?} must exit 2");
        assert!(stderr(&o).contains(want), "{extra:?}: {}", stderr(&o));
    }
    // The apps that read them still take them.
    for argv in [
        &["run", "ppr", graph_s, "--source", "3", "--iters", "2"][..],
        &["run", "kcore", graph_s, "--k", "3"],
        &[
            "run",
            "pagerank",
            graph_s,
            "--devices",
            "2",
            "--ratio",
            "1:3",
            "--iters",
            "2",
        ],
    ] {
        let o = phigraph(argv);
        assert!(o.status.success(), "{argv:?}: {}", stderr(&o));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_checks_trace_flags_before_the_graph_loads() {
    let dir = tmpdir("traceflags");
    let graph = dir.join("g.bin");
    let graph_s = graph.to_str().unwrap();
    let o = phigraph(&[
        "generate", "gnm", graph_s, "--scale", "small", "--seed", "7",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let trace = dir.join("t.json");
    let trace_s = trace.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (
            &["--trace-format", "bogus"],
            "unknown --trace-format \"bogus\" (expected chrome|json|prom)",
        ),
        (
            &["--trace-out", trace_s, "--trace-format", "bogus"],
            "unknown --trace-format \"bogus\"",
        ),
        (
            &[
                "--trace-level",
                "off",
                "--trace-format",
                "chrome",
                "--trace-out",
                trace_s,
            ],
            "--trace-format chrome needs --trace-level phase",
        ),
        (
            &["--trace-format", "json"],
            "--trace-format needs --trace-out",
        ),
        (
            &["--trace-level", "fine"],
            "unknown trace level \"fine\" (expected off|phase)",
        ),
    ];
    for (extra, want) in cases {
        let mut argv = vec!["run", "pagerank", graph_s];
        argv.extend_from_slice(extra);
        let o = phigraph(&argv);
        assert_eq!(o.status.code(), Some(2), "{extra:?} must exit 2");
        assert!(stderr(&o).contains(want), "{extra:?}: {}", stderr(&o));
        // Rejected before the solve: no run line, no trace file.
        assert_eq!(stdout(&o), "", "{extra:?}");
        assert!(!trace.exists(), "{extra:?} wrote {trace_s}");
    }
    // `serve` checks every flag before it loads the graph.
    let serve_cases: &[(&[&str], &str)] = &[
        (
            &["--trace-level", "fine"],
            "unknown trace level \"fine\" (expected off|phase)",
        ),
        (&["--engine", "bogus"], "unknown engine \"bogus\""),
        (&["--device", "bogus"], "unknown device \"bogus\""),
    ];
    for (extra, want) in serve_cases {
        let mut argv = vec!["serve", graph_s];
        argv.extend_from_slice(extra);
        let o = phigraph(&argv);
        assert_eq!(o.status.code(), Some(2), "serve {extra:?} must exit 2");
        let err = stderr(&o);
        assert!(err.contains(want), "serve {extra:?}: {err}");
        assert!(!err.contains("serve: loaded"), "serve {extra:?}: {err}");
    }
    // Tracing off still dumps the aggregates.
    let o = phigraph(&[
        "run",
        "pagerank",
        graph_s,
        "--iters",
        "2",
        "--trace-level",
        "off",
        "--trace-format",
        "prom",
        "--trace-out",
        trace_s,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(std::fs::read_to_string(&trace)
        .unwrap()
        .contains("phigraph_supersteps{"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tune_command_reports_split_and_ratio() {
    let dir = tmpdir("tune");
    let graph = dir.join("g.bin");
    let o = phigraph(&[
        "generate",
        "pokec",
        graph.to_str().unwrap(),
        "--scale",
        "tiny",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = phigraph(&[
        "tune",
        "pagerank",
        graph.to_str().unwrap(),
        "--probe-steps",
        "2",
        "--blocks",
        "16",
        "--iters",
        "5",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("pipeline split:"), "{out}");
    assert!(out.contains("partitioning ratio:"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn integrity_run_heals_injected_sdc_and_matches_clean_run() {
    let dir = tmpdir("sdc");
    let graph = dir.join("g.bin");
    let graph_s = graph.to_str().unwrap();
    let o = phigraph(&[
        "generate", "pokec", graph_s, "--scale", "tiny", "--seed", "5",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Clean reference values (plain engine, no integrity machinery).
    let clean_out = dir.join("clean.txt");
    let o = phigraph(&[
        "run",
        "sssp",
        graph_s,
        "--engine",
        "lock",
        "--out",
        clean_out.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Inject silent corruption; full integrity must heal it in place.
    let ckpt = dir.join("ckpt");
    let healed_out = dir.join("healed.txt");
    let o = phigraph(&[
        "run",
        "sssp",
        graph_s,
        "--engine",
        "lock",
        "--integrity",
        "full",
        "--faults",
        "1:bitflip-msg,3:bitflip-state",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--out",
        healed_out.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let summary = stdout(&o);
    assert!(
        summary.contains("integrity"),
        "no integrity line: {summary}"
    );
    assert_eq!(
        std::fs::read_to_string(&clean_out).unwrap(),
        std::fs::read_to_string(&healed_out).unwrap(),
        "healed run diverged from the clean run"
    );

    // `recover` shows the integrity stats from the persisted report.
    let o = phigraph(&["recover", ckpt.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("integrity:"), "{}", stdout(&o));

    // Bad flag values are rejected with a parse error, not a panic.
    let o = phigraph(&["run", "sssp", graph_s, "--integrity", "paranoid"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown integrity mode"));
    let o = phigraph(&["run", "sssp", graph_s, "--faults", "1:nosuchkind"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown fault kind") || stderr(&o).contains("bad fault"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A fault or liveness flag that can never take effect on the run exits 2
/// with an error naming what does apply; a fabric fail-stop that can fire
/// rolls back once and lands on the clean checksum.
#[test]
fn faults_and_flags_that_cannot_fire_exit_2() {
    let dir = tmpdir("nofire");
    let graph = dir.join("g.bin");
    let graph_s = graph.to_str().unwrap();
    let ckpt = dir.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let o = phigraph(&["generate", "gnm", graph_s, "--scale", "tiny", "--seed", "7"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let one_device = "no injection site on one device (kinds that apply: worker|mover|insert";
    let cases: &[(&[&str], &str)] = &[
        (&["--faults", "2:exchange"], one_device),
        (&["--faults", "2:crash"], one_device),
        (&["--faults", "2:hang"], one_device),
        (&["--faults", "2:slow"], one_device),
        (&["--faults", "2:crash-rank:1"], one_device),
        (&["--faults", "2:partition-link:0-1"], one_device),
        (&["--faults", "2:truncate-frame"], one_device),
        (&["--faults", "2:daemon-kill"], one_device),
        (&["--faults", "2:malformed-line"], one_device),
        (&["--faults", "3:worker:1"], "names rank 1"),
        (&["--failover", "retry"], "--failover needs peers"),
        (&["--watchdog-ms", "100"], "--watchdog-ms needs peers"),
        (&["--rebalance-after", "2"], "--rebalance-after needs peers"),
        (
            &["--devices", "2", "--watchdog-ms", "0"],
            "--watchdog-ms must be at least 1",
        ),
        (
            &["--devices", "3", "--faults", "2:bitflip-state"],
            "no injection site on 3 ranks (kinds that apply: worker|",
        ),
        (
            &["--devices", "2", "--faults", "2:worker-hang"],
            "no injection site on 2 ranks",
        ),
        (
            &["--devices", "2", "--faults", "2:slow-client"],
            "no injection site on 2 ranks",
        ),
        (
            &["--devices", "3", "--faults", "2:exchange:3"],
            "names rank 3",
        ),
        (
            &["--devices", "3", "--faults", "4:crash-rank:3"],
            "names rank 3",
        ),
        (
            &["--devices", "3", "--faults", "3:partition-link:1-3"],
            "names rank 3",
        ),
    ];
    for (extra, want) in cases {
        let mut argv = vec!["run", "sssp", graph_s, "--checkpoint-dir", ckpt_s];
        argv.extend_from_slice(extra);
        let o = phigraph(&argv);
        assert_eq!(o.status.code(), Some(2), "{extra:?} must exit 2");
        assert!(stderr(&o).contains(want), "{extra:?}: {}", stderr(&o));
    }

    let o = phigraph(&["run", "sssp", graph_s, "--devices", "2", "--checksum"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let clean = stdout(&o).lines().next().unwrap().to_string();
    assert!(clean.starts_with("checksum="), "{clean}");
    let o = phigraph(&[
        "run",
        "sssp",
        graph_s,
        "--devices",
        "2",
        "--checkpoint-every",
        "2",
        "--backoff-ms",
        "0",
        "--faults",
        "3:worker:1",
        "--checkpoint-dir",
        ckpt_s,
        "--checksum",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains(&clean), "{out}");
    assert!(
        out.contains("rollbacks=1") && out.contains("faults=1"),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_tolerates_torn_run_report() {
    let dir = tmpdir("torn");
    let graph = dir.join("g.bin");
    let graph_s = graph.to_str().unwrap();
    let o = phigraph(&[
        "generate", "pokec", graph_s, "--scale", "tiny", "--seed", "9",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    let ckpt = dir.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let o = phigraph(&[
        "run",
        "bfs",
        graph_s,
        "--engine",
        "lock",
        "--checkpoint-every",
        "2",
        "--checkpoint-dir",
        ckpt_s,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let report = ckpt.join("run_report.json");
    assert!(report.exists(), "run left no report behind");

    // Intact report: the stats are shown.
    let o = phigraph(&["recover", ckpt_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("last run"), "{}", stdout(&o));

    // Torn write (truncated mid-file): degrade to a warning, never panic.
    let full = std::fs::read_to_string(&report).unwrap();
    std::fs::write(&report, &full[..full.len() / 2]).unwrap();
    let o = phigraph(&["recover", ckpt_s]);
    assert!(o.status.success(), "torn report crashed: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("warning"), "{out}");
    assert!(!out.contains("last run"), "{out}");

    // Non-UTF-8 garbage.
    std::fs::write(&report, [0xff, 0xfe, 0x00, 0x01, b'{', b'x']).unwrap();
    let o = phigraph(&["recover", ckpt_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("warning"), "{}", stdout(&o));

    // Valid JSON that is not a run report (wrong schema tag).
    std::fs::write(&report, "{\"schema\":\"something-else/9\"}").unwrap();
    let o = phigraph(&["recover", ckpt_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(
        stdout(&o).contains("not a phigraph run report"),
        "{}",
        stdout(&o)
    );

    // Snapshot listing still works through all of the above.
    assert!(stdout(&o).contains("snapshot(s)"), "{}", stdout(&o));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_command_reports_clean_programs() {
    let dir = tmpdir("check");
    let graph = dir.join("g.bin");
    let o = phigraph(&[
        "generate",
        "pokec",
        graph.to_str().unwrap(),
        "--scale",
        "tiny",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    for app in ["bfs", "sssp", "wcc", "kcore"] {
        let o = phigraph(&["check", app, graph.to_str().unwrap()]);
        assert!(o.status.success(), "{app}: {}", stderr(&o));
        assert!(stdout(&o).contains("contract check: CLEAN"), "{app}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_with_its_stdout_closed_still_writes_out_and_exits_0() {
    // `phigraph run … | grep -q` closes the pipe as soon as grep matches:
    // printing stops there, the `--out` file is still written in full and
    // the exit status stays 0.
    let dir = tmpdir("closed-stdout");
    let graph = dir.join("g.bin");
    let graph_s = graph.to_str().unwrap();
    let o = phigraph(&["generate", "gnm", graph_s, "--scale", "tiny", "--seed", "7"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let info = stdout(&phigraph(&["info", graph_s]));
    let vertices: usize = info
        .lines()
        .find_map(|l| l.strip_prefix("vertices"))
        .and_then(|n| n.trim().parse().ok())
        .expect("info prints the vertex count");
    let out = dir.join("dist.txt");
    let mut child = Command::new(env!("CARGO_BIN_EXE_phigraph"))
        .args(["run", "sssp", graph_s, "--out", out.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let o = child.wait_with_output().expect("binary exits");
    assert!(o.status.success(), "exit {:?}: {}", o.status, stderr(&o));
    assert!(!stderr(&o).contains("panicked"), "{}", stderr(&o));
    let written = std::fs::read_to_string(&out).expect("--out file written");
    assert_eq!(written.lines().count(), vertices, "one line per vertex");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--trace-format json` run report with the one field that varies from
/// run to run, `wall`, masked. `rank = Some(r)` keeps only rank `r`'s device
/// report.
fn masked_report(path: &std::path::Path, rank: Option<usize>) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let text = match rank {
        Some(r) => {
            let devices = &text[text.find("\"devices\":").expect("device reports")..];
            devices
                .split("{\"app\":")
                .nth(r + 1)
                .expect("rank report")
                .to_string()
        }
        None => text,
    };
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find("\"wall\":").map(|i| i + "\"wall\":".len()) {
        out.push_str(&rest[..at]);
        out.push('X');
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit() || ".eE+-".contains(c));
    }
    out.push_str(rest);
    out
}

/// Tiny `gnm` and `dblp` graphs in a fresh directory.
fn fabric_graphs(name: &str) -> (PathBuf, String, String) {
    let dir = tmpdir(name);
    let paths: Vec<String> = ["gnm", "dblp"]
        .iter()
        .map(|kind| {
            let path = dir.join(format!("{kind}.bin"));
            let path_s = path.to_str().unwrap().to_string();
            let o = phigraph(&["generate", kind, &path_s, "--scale", "tiny", "--seed", "7"]);
            assert!(o.status.success(), "{}", stderr(&o));
            path_s
        })
        .collect();
    (dir, paths[0].clone(), paths[1].clone())
}

/// Run `app` on `graph` with `extra` flags; returns the masked report
/// (see [`masked_report`]).
fn run_report(
    dir: &std::path::Path,
    app: &str,
    graph: &str,
    extra: &[&str],
    rank: Option<usize>,
) -> String {
    let out = dir.join(format!("{app}{}.json", extra.join("")));
    let out_s = out.to_str().unwrap();
    let mut argv = vec![
        "run",
        app,
        graph,
        "--trace-out",
        out_s,
        "--trace-format",
        "json",
    ];
    argv.extend_from_slice(extra);
    let o = phigraph(&argv);
    assert!(o.status.success(), "{extra:?}: {}", stderr(&o));
    masked_report(&out, rank)
}

/// `seq` has no rank form: `--devices N --engine seq` exits 2 and names
/// the engines a fabric rank runs. On one device the checkpoint flags
/// take `omp` and still refuse `seq`.
#[test]
fn seq_on_a_fabric_exits_2_and_omp_takes_checkpoint_flags() {
    let (dir, gnm, _) = fabric_graphs("fabric-seq");
    let ckpt = dir.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    for extra in [
        &["--devices", "2", "--engine", "seq"][..],
        &["--engine", "seq", "--checkpoint-dir", ckpt_s],
    ] {
        let mut argv = vec!["run", "sssp", &gnm];
        argv.extend_from_slice(extra);
        let o = phigraph(&argv);
        assert_eq!(o.status.code(), Some(2), "{extra:?} must exit 2");
        assert!(stderr(&o).contains("lock|pipe|omp"), "{}", stderr(&o));
    }
    let o = phigraph(&[
        "run",
        "sssp",
        &gnm,
        "--engine",
        "omp",
        "--checkpoint-every",
        "2",
        "--checkpoint-dir",
        ckpt_s,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--devices 2 --engine omp` runs `omp` on rank 1, not `pipe` or `lock`.
#[test]
fn omp_on_a_fabric_runs_omp_on_the_ranks() {
    let (dir, gnm, _) = fabric_graphs("fabric-omp");
    let rank1 = |engine: &str| {
        let extra = ["--devices", "2", "--engine", engine];
        run_report(&dir, "pagerank", &gnm, &extra, Some(1))
    };
    let omp = rank1("omp");
    assert_ne!(omp, rank1("pipe"), "rank 1 runs omp, not pipe");
    assert_ne!(omp, rank1("lock"), "rank 1 runs omp, not lock");
    std::fs::remove_dir_all(&dir).ok();
}

/// Semi-Clustering's ranks 1.. follow `--engine` like every other app:
/// only a `pipe` rank counts its messages per mover class.
#[test]
fn semicluster_ranks_follow_the_engine_flag() {
    let (dir, _, dblp) = fabric_graphs("fabric-sc");
    let empty_mover_lists = |engine: &str| {
        let extra = ["--devices", "2", "--engine", engine];
        run_report(&dir, "semicluster", &dblp, &extra, Some(1))
            .matches("\"mover_msgs\":[]")
            .count()
    };
    assert_eq!(empty_mover_lists("pipe"), 0, "rank 1 runs pipe");
    assert!(empty_mover_lists("lock") > 0, "rank 1 runs lock");
    std::fs::remove_dir_all(&dir).ok();
}

/// Semi-Clustering runs on fabrics past two ranks.
#[test]
fn semicluster_runs_on_three_devices() {
    let (dir, _, dblp) = fabric_graphs("fabric-sc3");
    run_report(&dir, "semicluster", &dblp, &["--devices", "3"], None);
    std::fs::remove_dir_all(&dir).ok();
}

/// Semi-Clustering's object values have no snapshot encoding, so every
/// recovery flag exits 2 as on the other non-POD apps, before any
/// checkpoint directory is made.
#[test]
fn semicluster_refuses_recovery_flags() {
    let (dir, _, dblp) = fabric_graphs("sc-recover");
    let ckpt = dir.join("ck");
    let ckpt_s = ckpt.to_str().unwrap();
    for extra in [
        &["--checkpoint-every", "2", "--checkpoint-dir", ckpt_s][..],
        &["--faults", "1:bitflip-msg"],
        &["--integrity", "full"],
        &["--devices", "2", "--checkpoint-dir", ckpt_s],
    ] {
        let mut argv = vec!["run", "semicluster", &dblp];
        argv.extend_from_slice(extra);
        let o = phigraph(&argv);
        assert_eq!(o.status.code(), Some(2), "{extra:?} must exit 2");
        assert!(
            stderr(&o).contains("unsupported for this app's value type"),
            "{extra:?}: {}",
            stderr(&o)
        );
        assert!(!ckpt.exists(), "{extra:?} made a checkpoint directory");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--max-retries` and `--backoff-ms` tune a recovering run: without a
/// flag that makes the run recover they exit 2 and name those flags; with
/// one they are taken.
#[test]
fn retry_flags_need_a_recovering_run() {
    let (dir, gnm, _) = fabric_graphs("retry-flags");
    let ckpt = dir.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    for (extra, flag) in [
        (&["--max-retries", "3"][..], "--max-retries"),
        (&["--backoff-ms", "5"], "--backoff-ms"),
        (
            &["--devices", "2", "--max-retries", "3", "--backoff-ms", "5"],
            "--max-retries",
        ),
    ] {
        let mut argv = vec!["run", "sssp", &gnm];
        argv.extend_from_slice(extra);
        let o = phigraph(&argv);
        assert_eq!(o.status.code(), Some(2), "{extra:?} must exit 2");
        let err = stderr(&o);
        assert!(
            err.contains(&format!("{flag} tunes a recovering run"))
                && err.contains("--checkpoint-every")
                && err.contains("--faults"),
            "{extra:?}: {err}"
        );
    }
    let o = phigraph(&[
        "run",
        "sssp",
        &gnm,
        "--max-retries",
        "3",
        "--backoff-ms",
        "5",
        "--checkpoint-dir",
        ckpt_s,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    std::fs::remove_dir_all(&dir).ok();
}

/// A run with no supersteps reports +0 simulated seconds everywhere: in
/// its summary, its JSON report and `phigraph report`'s tables.
#[test]
fn a_zero_step_run_reports_positive_zero_seconds() {
    let (dir, gnm, _) = fabric_graphs("zero-steps");
    let report = dir.join("r.json");
    let report_s = report.to_str().unwrap();
    let o = phigraph(&[
        "run",
        "pagerank",
        &gnm,
        "--iters",
        "0",
        "--trace-out",
        report_s,
        "--trace-format",
        "json",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let summary = stdout(&o);
    assert!(
        summary.contains("steps=0") && summary.contains("exec=0.0000s comm=0.0000s total=0.0000s"),
        "{summary}"
    );
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"sim_total\":0,"), "{json}");
    assert!(!json.contains(":-0"), "{json}");
    let o = phigraph(&["report", report_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("simulated 0.0000 s"), "{text}");
    assert!(!text.contains("-0"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
