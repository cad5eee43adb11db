//! Shared driver behind the `phigraph-bench` binary and the `phigraph
//! bench` CLI subcommand: argument parsing, area execution, `BENCH_*.json`
//! file I/O, and the regression gate's exit discipline.
//!
//! Both front ends call [`main`] with their remaining argv; a regression
//! (or a genuine usage/IO error) comes back as `Err`, which both map to a
//! nonzero exit code. Missing baselines and unreadable/unknown-schema
//! files are *warnings* on stderr, not errors — the gate only fails on a
//! confirmed over-threshold slowdown.

use crate::areas::{run_area, AreaOpts};
use crate::harness::Criterion;
use crate::perf::{
    compare_reports, default_threshold, file_name, BenchReport, EnvFingerprint, AREAS,
};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Usage text shared by both front ends.
pub const USAGE: &str = "phigraph-bench — machine-readable perf measurement and regression gating

commands:
  run     [--out-dir DIR] [--area A[,B...]] [--seed N] [--samples N] [--warmup N] [--smoke]
          run the bench areas and write one BENCH_<area>.json per area
  compare <baseline> <current> [--area A[,B...]] [--threshold X]
          diff two reports (file or directory holding BENCH_*.json);
          exits nonzero when any entry regresses beyond the threshold
  perturb <in.json> <out.json> --factor F
          rewrite a report with every timing scaled by F (gate self-tests)
  list    print the measured areas and their default thresholds

areas: csb superstep exchange integrity partition objmsg serve serve_degraded
       obs";

/// Entry point for both the standalone binary and `phigraph bench`.
pub fn main(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(format!("missing bench command\n{USAGE}"));
    };
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "perturb" => cmd_perturb(rest),
        "list" => {
            for area in AREAS {
                let _ = writeln!(
                    std::io::stdout(),
                    "{area:<12} {:<22} threshold {:.2}x",
                    file_name(area),
                    default_threshold(area)
                );
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            let _ = writeln!(std::io::stdout(), "{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown bench command {other:?}\n{USAGE}")),
    }
}

/// Measure `areas` and return one report per area (the library face of
/// `run`, used by the determinism tests).
pub fn measure(areas: &[String], opts: &AreaOpts) -> Result<Vec<BenchReport>, String> {
    let env = EnvFingerprint::capture(opts.smoke, opts.seed);
    let mut out = Vec::with_capacity(areas.len());
    for area in areas {
        let mut c = Criterion::default();
        run_area(area, &mut c, opts)?;
        out.push(BenchReport::new(area, env.clone(), c.results()));
    }
    Ok(out)
}

fn parse_areas(spec: Option<&str>) -> Result<Vec<String>, String> {
    match spec {
        None => Ok(AREAS.iter().map(|s| s.to_string()).collect()),
        Some(s) => {
            let areas: Vec<String> = s
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(str::to_string)
                .collect();
            if areas.is_empty() {
                return Err("--area given but empty".to_string());
            }
            for a in &areas {
                if !AREAS.contains(&a.as_str()) {
                    return Err(format!(
                        "unknown bench area {a:?} (valid: {})",
                        AREAS.join(", ")
                    ));
                }
            }
            Ok(areas)
        }
    }
}

/// Tiny flag walker: positionals in order, `--flag value` pairs, `--smoke`
/// style booleans.
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(argv: &[String], value_flags: &[&str], switch_flags: &[&str]) -> Result<Self, String> {
        let mut f = Flags {
            positional: Vec::new(),
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if switch_flags.contains(&name) {
                    f.switches.push(name.to_string());
                } else if value_flags.contains(&name) {
                    i += 1;
                    let v = argv.get(i).ok_or(format!("--{name} needs a value"))?;
                    f.pairs.push((name.to_string(), v.clone()));
                } else {
                    return Err(format!("unknown flag --{name}\n{USAGE}"));
                }
            } else {
                f.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(f)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad --{name} value {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn cmd_run(argv: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        argv,
        &["out-dir", "area", "seed", "samples", "warmup"],
        &["smoke"],
    )?;
    if !f.positional.is_empty() {
        return Err(format!(
            "unexpected argument {:?}\n{USAGE}",
            f.positional[0]
        ));
    }
    let out_dir = PathBuf::from(f.get("out-dir").unwrap_or("."));
    let areas = parse_areas(f.get("area"))?;
    let opts = AreaOpts {
        smoke: f.has("smoke"),
        seed: f.get_parse("seed")?.unwrap_or(7),
        samples: f.get_parse("samples")?,
        warmup: f.get_parse("warmup")?,
    };
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    for report in measure(&areas, &opts)? {
        let path = out_dir.join(file_name(&report.area));
        std::fs::write(&path, report.emit())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let _ = writeln!(std::io::stdout(), "wrote {}", path.display());
    }
    Ok(())
}

/// Resolve a compare operand: a directory containing `BENCH_<area>.json`,
/// or a file (used as-is regardless of the area name).
fn resolve(operand: &Path, area: &str) -> PathBuf {
    if operand.is_dir() {
        operand.join(file_name(area))
    } else {
        operand.to_path_buf()
    }
}

/// Load a report, mapping every failure (absent file, bad JSON, unknown
/// schema) to a warning string the caller prints; `None` means "skip this
/// area, don't fail the gate".
fn load_report(path: &Path, side: &str) -> Result<Option<BenchReport>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "warning: {side} {} unreadable ({e}); skipping",
                path.display()
            );
            return Ok(None);
        }
    };
    match BenchReport::parse(&text) {
        Ok(r) => Ok(Some(r)),
        Err(e) => {
            eprintln!("warning: {side} {}: {e}; skipping", path.display());
            Ok(None)
        }
    }
}

fn cmd_compare(argv: &[String]) -> Result<(), String> {
    let f = Flags::parse(argv, &["area", "threshold"], &[])?;
    let [baseline, current] = f.positional.as_slice() else {
        return Err(format!(
            "compare needs exactly two operands (baseline, current)\n{USAGE}"
        ));
    };
    let (baseline, current) = (PathBuf::from(baseline), PathBuf::from(current));
    let threshold_override: Option<f64> = f.get_parse("threshold")?;
    // Comparing file-to-file covers exactly that file's area; dir-to-dir
    // covers the full (or --area-selected) set.
    let areas = if baseline.is_dir() || current.is_dir() {
        parse_areas(f.get("area"))?
    } else {
        match load_report(&baseline, "baseline")? {
            Some(r) => vec![r.area],
            None => Vec::new(),
        }
    };
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for area in &areas {
        let Some(base) = load_report(&resolve(&baseline, area), "baseline")? else {
            continue;
        };
        let Some(cur) = load_report(&resolve(&current, area), "current")? else {
            continue;
        };
        let threshold = threshold_override.unwrap_or_else(|| default_threshold(area));
        let outcome = compare_reports(&base, &cur, threshold);
        let _ = writeln!(
            std::io::stdout(),
            "== {area} (threshold {threshold:.2}x, baseline {}{}) ==",
            base.env.arch,
            if base.env.smoke { ", smoke" } else { "" }
        );
        let _ = write!(std::io::stdout(), "{}", outcome.render());
        regressions += outcome.regressions();
        compared += 1;
    }
    if compared == 0 {
        eprintln!("warning: nothing compared (no readable baseline/current pair)");
        return Ok(());
    }
    if regressions > 0 {
        return Err(format!(
            "{regressions} benchmark entr{} regressed beyond threshold",
            if regressions == 1 { "y" } else { "ies" }
        ));
    }
    let _ = writeln!(
        std::io::stdout(),
        "bench compare: no regressions across {compared} area(s)"
    );
    Ok(())
}

fn cmd_perturb(argv: &[String]) -> Result<(), String> {
    let f = Flags::parse(argv, &["factor"], &[])?;
    let [input, output] = f.positional.as_slice() else {
        return Err(format!("perturb needs <in.json> <out.json>\n{USAGE}"));
    };
    let factor: f64 = f
        .get_parse("factor")?
        .ok_or("perturb requires --factor F")?;
    if !factor.is_finite() || factor <= 0.0 {
        return Err(format!(
            "--factor must be finite and positive, got {factor}"
        ));
    }
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let report = BenchReport::parse(&text)?;
    std::fs::write(output, report.perturbed(factor).emit())
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    let _ = writeln!(std::io::stdout(), "wrote {output} (timings x{factor})");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn usage_and_unknowns() {
        assert!(main(&[]).is_err());
        assert!(main(&s(&["frobnicate"])).is_err());
        assert!(main(&s(&["help"])).is_ok());
        assert!(main(&s(&["list"])).is_ok());
    }

    #[test]
    fn area_lists_parse_and_reject() {
        assert_eq!(parse_areas(None).unwrap().len(), AREAS.len());
        assert_eq!(parse_areas(Some("csb,obs")).unwrap(), vec!["csb", "obs"]);
        assert!(parse_areas(Some("bogus")).is_err());
        assert!(parse_areas(Some(" ,")).is_err());
    }

    #[test]
    fn flags_walker_handles_pairs_switches_positionals() {
        let f = Flags::parse(
            &s(&["a", "--seed", "9", "--smoke", "b"]),
            &["seed"],
            &["smoke"],
        )
        .unwrap();
        assert_eq!(f.positional, vec!["a", "b"]);
        assert_eq!(f.get("seed"), Some("9"));
        assert!(f.has("smoke"));
        assert!(Flags::parse(&s(&["--nope"]), &[], &[]).is_err());
        assert!(Flags::parse(&s(&["--seed"]), &["seed"], &[]).is_err());
    }

    #[test]
    fn perturb_rejects_bad_factors() {
        assert!(cmd_perturb(&s(&["a.json", "b.json"])).is_err());
        assert!(cmd_perturb(&s(&["a.json", "b.json", "--factor", "0"])).is_err());
        assert!(cmd_perturb(&s(&["a.json", "b.json", "--factor", "nan"])).is_err());
    }
}
