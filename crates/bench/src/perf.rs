//! Machine-readable perf trajectory: `BENCH_<area>.json` reports and the
//! regression comparator.
//!
//! Every PR that touches a hot path lands with its numbers in this format
//! (ROADMAP item 5): the `phigraph-bench` binary runs steady-state loops
//! over the measured areas ([`AREAS`]) and emits one schema-tagged
//! JSON file per area through [`BenchReport::emit`]; `compare` diffs two
//! such files with per-area thresholds and exits nonzero on regression.
//! Emission and parsing both go through the hand-rolled JSON layer in
//! `phigraph_trace::json`, so the files round-trip bit-identically
//! (emit → parse → re-emit is the identity — see `tests/perf_report.rs`).
//!
//! Policy mirrors `phigraph recover` on torn run reports: a file with an
//! unknown schema tag, a missing area, or degenerate numbers (NaN, zero
//! mean, zero throughput) degrades to a *warning*, never a panic — only a
//! confirmed over-threshold slowdown on a comparable entry fails the gate.

use crate::harness::BenchResult;
use phigraph_trace::json::{num, Json, JsonBuf};

/// Schema tag stamped into every report; bump on breaking layout changes.
pub const BENCH_SCHEMA: &str = "phigraph-bench-v1";

/// The measured areas, one `BENCH_<area>.json` each: one-thread CSB
/// insertion, a full superstep per engine mode, the hetero frame exchange, the integrity-switch overhead, the
/// device-partitioning schemes, the object-message (semi-clustering)
/// path, the multi-tenant serving pool, the serving pool held at
/// overload (the shed ladder + journal on the admission path), and the
/// observability plane's overhead on the serving hot path (off vs
/// windows vs windows+events).
pub const AREAS: [&str; 9] = [
    "csb",
    "superstep",
    "exchange",
    "integrity",
    "partition",
    "objmsg",
    "serve",
    "serve_degraded",
    "obs",
];

/// Canonical file name for an area's report.
pub fn file_name(area: &str) -> String {
    format!("BENCH_{area}.json")
}

/// Allowed slowdown ratio (current mean ÷ baseline mean) before an entry
/// counts as a regression. Thread-scheduling-heavy areas get more slack.
pub fn default_threshold(area: &str) -> f64 {
    match area {
        // Cross-thread shuttles: scheduler noise dominates short runs, and
        // the serving pool adds queueing jitter on top (`obs` rides the
        // same pool, so it inherits the same slack).
        "exchange" | "serve" | "serve_degraded" | "obs" => 1.6,
        // Single-process compute loops are steadier.
        "csb" | "superstep" | "integrity" | "partition" | "objmsg" => 1.5,
        _ => 1.5,
    }
}

/// Where a report was measured — enough context to judge whether two
/// reports are comparable at all.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvFingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available host parallelism when the report was measured.
    pub host_threads: u64,
    /// True for CI smoke runs (tiny inputs, few samples): numbers are for
    /// trend and gating only, not absolute claims.
    pub smoke: bool,
    /// Seed that generated every input (fixed-seed runs are structurally
    /// deterministic: same labels, same element counts).
    pub seed: u64,
}

impl EnvFingerprint {
    /// Capture the current host.
    pub fn capture(smoke: bool, seed: u64) -> Self {
        EnvFingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            host_threads: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            smoke,
            seed,
        }
    }
}

/// One benchmark's numbers inside a report.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Harness label (`group/function/parameter`).
    pub label: String,
    /// Mean iteration time, nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Median iteration, nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile iteration, nanoseconds (tail latency).
    pub p99_ns: f64,
    /// Untimed warmup iterations before sampling.
    pub warmup_iters: u64,
    /// Timed iterations recorded.
    pub samples: u64,
    /// Declared elements per iteration (0 = no throughput declared).
    pub elements: u64,
    /// Elements per second over the mean iteration (0 when unknown).
    pub elem_per_sec: f64,
}

impl BenchEntry {
    /// Convert a harness measurement.
    pub fn from_result(r: &BenchResult) -> Self {
        BenchEntry {
            label: r.label.clone(),
            mean_ns: r.mean.as_nanos() as f64,
            min_ns: r.min.as_nanos() as f64,
            p50_ns: r.p50.as_nanos() as f64,
            p99_ns: r.p99.as_nanos() as f64,
            warmup_iters: r.warmup_iters as u64,
            samples: r.samples as u64,
            elements: r.elements.unwrap_or(0),
            elem_per_sec: r.elem_per_sec().unwrap_or(0.0),
        }
    }
}

/// One area's machine-readable report: the content of `BENCH_<area>.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Measured area (one of [`AREAS`] for the shipped benches).
    pub area: String,
    /// Host fingerprint.
    pub env: EnvFingerprint,
    /// Per-benchmark numbers, in registration order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Assemble a report from harness results.
    pub fn new(area: &str, env: EnvFingerprint, results: &[BenchResult]) -> Self {
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            area: area.to_string(),
            env,
            entries: results.iter().map(BenchEntry::from_result).collect(),
        }
    }

    /// Render the report as pretty JSON (stable field order, so re-emitting
    /// a parsed report reproduces the input byte-for-byte).
    pub fn emit(&self) -> String {
        let mut b = JsonBuf::obj();
        b.str("schema", &self.schema);
        b.str("area", &self.area);
        b.begin_obj("env");
        b.str("os", &self.env.os);
        b.str("arch", &self.env.arch);
        b.int("host_threads", self.env.host_threads);
        b.bool("smoke", self.env.smoke);
        b.int("seed", self.env.seed);
        b.end();
        b.begin_arr("entries");
        for e in &self.entries {
            b.elem_obj();
            b.str("label", &e.label);
            b.num("mean_ns", e.mean_ns);
            b.num("min_ns", e.min_ns);
            b.num("p50_ns", e.p50_ns);
            b.num("p99_ns", e.p99_ns);
            b.int("warmup_iters", e.warmup_iters);
            b.int("samples", e.samples);
            b.int("elements", e.elements);
            b.num("elem_per_sec", e.elem_per_sec);
            b.end();
        }
        b.end();
        b.finish()
    }

    /// Parse a report. Unknown or missing schema tags are an `Err` (the
    /// callers warn and move on — same contract as `phigraph recover` on a
    /// torn `run_report.json`), as is anything that does not parse as JSON.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let j = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let schema = j.get("schema").and_then(Json::as_str).unwrap_or("<none>");
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported bench schema {schema:?} (this build reads {BENCH_SCHEMA:?})"
            ));
        }
        let area = j
            .get("area")
            .and_then(Json::as_str)
            .ok_or("missing \"area\"")?
            .to_string();
        let env = j.get("env").ok_or("missing \"env\"")?;
        let env = EnvFingerprint {
            os: env
                .get("os")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            arch: env
                .get("arch")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            host_threads: env.u64_or_0("host_threads"),
            smoke: env.get("smoke").and_then(Json::as_bool).unwrap_or(false),
            seed: env.u64_or_0("seed"),
        };
        let mut entries = Vec::new();
        for e in j
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("missing \"entries\"")?
        {
            entries.push(BenchEntry {
                label: e
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("entry missing \"label\"")?
                    .to_string(),
                mean_ns: e.f64_or_0("mean_ns"),
                min_ns: e.f64_or_0("min_ns"),
                p50_ns: e.f64_or_0("p50_ns"),
                p99_ns: e.f64_or_0("p99_ns"),
                warmup_iters: e.u64_or_0("warmup_iters"),
                samples: e.u64_or_0("samples"),
                elements: e.u64_or_0("elements"),
                elem_per_sec: e.f64_or_0("elem_per_sec"),
            });
        }
        Ok(BenchReport {
            schema: schema.to_string(),
            area,
            env,
            entries,
        })
    }

    /// A copy with every timing scaled by `factor` (throughput re-derived).
    /// Factors below 1 fake a faster baseline; used by `perturb` to prove
    /// the regression gate trips, and by tests.
    pub fn perturbed(&self, factor: f64) -> BenchReport {
        let mut out = self.clone();
        for e in &mut out.entries {
            e.mean_ns *= factor;
            e.min_ns *= factor;
            e.p50_ns *= factor;
            e.p99_ns *= factor;
            e.elem_per_sec = if e.elements > 0 && e.mean_ns > 0.0 {
                e.elements as f64 / (e.mean_ns / 1e9)
            } else {
                0.0
            };
        }
        out
    }
}

/// Per-entry verdict from a comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Within threshold; `ratio` is current mean ÷ baseline mean.
    Pass {
        /// Current mean ÷ baseline mean (1.0 = unchanged, <1 = faster).
        ratio: f64,
    },
    /// Over threshold: the entry got slower than the gate allows.
    Regression {
        /// Current mean ÷ baseline mean.
        ratio: f64,
    },
    /// Not comparable (degenerate numbers or one side missing); the gate
    /// warns instead of failing.
    Skipped {
        /// Why the entry could not be compared.
        reason: String,
    },
}

/// Outcome of comparing one area's baseline and current reports.
#[derive(Clone, Debug)]
pub struct CompareOutcome {
    /// Area compared.
    pub area: String,
    /// `(label, verdict)` per baseline entry plus current-only extras.
    pub verdicts: Vec<(String, Verdict)>,
    /// Threshold applied.
    pub threshold: f64,
}

impl CompareOutcome {
    /// Number of confirmed regressions.
    pub fn regressions(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Regression { .. }))
            .count()
    }

    /// Human-readable per-entry lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, v) in &self.verdicts {
            let line = match v {
                Verdict::Pass { ratio } => {
                    format!("  ok       {label:<44} {:.2}x", ratio)
                }
                Verdict::Regression { ratio } => {
                    format!(
                        "  REGRESS  {label:<44} {:.2}x (> {:.2}x allowed)",
                        ratio, self.threshold
                    )
                }
                Verdict::Skipped { reason } => {
                    format!("  skip     {label:<44} {reason}")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Compare `current` against `baseline` for one area. Every baseline entry
/// is matched to the current entry with the same label; unmatched entries
/// on either side and degenerate numbers become [`Verdict::Skipped`] with a
/// clear message, never a panic or a silent drop.
pub fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold: f64,
) -> CompareOutcome {
    let mut verdicts = Vec::new();
    if baseline.area != current.area {
        verdicts.push((
            format!("{} vs {}", baseline.area, current.area),
            Verdict::Skipped {
                reason: "area mismatch between baseline and current report".to_string(),
            },
        ));
        return CompareOutcome {
            area: current.area.clone(),
            verdicts,
            threshold,
        };
    }
    for b in &baseline.entries {
        let v = match current.entries.iter().find(|c| c.label == b.label) {
            None => Verdict::Skipped {
                reason: "entry missing in current report".to_string(),
            },
            Some(c) => judge(b, c, threshold),
        };
        verdicts.push((b.label.clone(), v));
    }
    for c in &current.entries {
        if !baseline.entries.iter().any(|b| b.label == c.label) {
            verdicts.push((
                c.label.clone(),
                Verdict::Skipped {
                    reason: "new entry (no baseline); will gate from the next baseline".to_string(),
                },
            ));
        }
    }
    CompareOutcome {
        area: current.area.clone(),
        verdicts,
        threshold,
    }
}

fn judge(b: &BenchEntry, c: &BenchEntry, threshold: f64) -> Verdict {
    // Degenerate baselines/currents cannot produce a trustworthy ratio.
    if !b.mean_ns.is_finite() || b.mean_ns <= 0.0 {
        return Verdict::Skipped {
            reason: format!("baseline mean is degenerate ({})", num(b.mean_ns)),
        };
    }
    if !c.mean_ns.is_finite() || c.mean_ns <= 0.0 {
        return Verdict::Skipped {
            reason: format!("current mean is degenerate ({})", num(c.mean_ns)),
        };
    }
    if b.elements > 0 && (b.elem_per_sec <= 0.0 || !b.elem_per_sec.is_finite()) {
        return Verdict::Skipped {
            reason: "baseline declares elements but zero/NaN throughput".to_string(),
        };
    }
    if b.elements > 0 && c.elements > 0 && b.elements != c.elements {
        return Verdict::Skipped {
            reason: format!(
                "element counts differ (baseline {}, current {}): inputs not comparable",
                b.elements, c.elements
            ),
        };
    }
    let ratio = c.mean_ns / b.mean_ns;
    if ratio > threshold {
        Verdict::Regression { ratio }
    } else {
        Verdict::Pass { ratio }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn result(label: &str, mean_ms: u64, elements: Option<u64>) -> BenchResult {
        let mean = Duration::from_millis(mean_ms);
        BenchResult {
            label: label.to_string(),
            mean,
            min: mean / 2,
            p50: mean,
            p99: mean * 2,
            warmup_iters: 1,
            samples: 5,
            elements,
        }
    }

    #[test]
    fn emit_parse_round_trip_is_identity() {
        let r = BenchReport::new(
            "exchange",
            EnvFingerprint::capture(true, 7),
            &[
                result("exchange/framed/64", 12, Some(100_000)),
                result("exchange/unframed", 30, None),
            ],
        );
        let text = r.emit();
        let back = BenchReport::parse(&text).expect("own emission parses");
        assert_eq!(back, r);
        assert_eq!(back.emit(), text, "re-emission is byte-identical");
    }

    #[test]
    fn unknown_schema_is_an_error_not_a_panic() {
        let mut r = BenchReport::new("csb", EnvFingerprint::capture(false, 1), &[]);
        r.schema = "phigraph-bench-v999".to_string();
        let err = BenchReport::parse(&r.emit()).unwrap_err();
        assert!(err.contains("phigraph-bench-v999"), "{err}");
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse("not json").is_err());
    }

    #[test]
    fn regression_over_threshold_fails_improvement_passes() {
        let base = BenchReport::new(
            "csb",
            EnvFingerprint::capture(true, 7),
            &[result("csb/insert/Dynamic", 10, Some(1000))],
        );
        // 3x slower than baseline: regression at a 1.5x threshold.
        let slow = base.perturbed(3.0);
        let out = compare_reports(&base, &slow, 1.5);
        assert_eq!(out.regressions(), 1);
        assert!(out.render().contains("REGRESS"));
        // 2x faster: passes.
        let fast = base.perturbed(0.5);
        let out = compare_reports(&base, &fast, 1.5);
        assert_eq!(out.regressions(), 0);
        assert!(matches!(out.verdicts[0].1, Verdict::Pass { ratio } if ratio < 1.0));
    }

    #[test]
    fn degenerate_and_missing_entries_skip_with_messages() {
        let base = BenchReport::new(
            "integrity",
            EnvFingerprint::capture(true, 7),
            &[
                result("integrity/off", 10, Some(1000)),
                result("integrity/frames", 12, Some(1000)),
            ],
        );
        let mut cur = base.clone();
        cur.entries[0].mean_ns = f64::NAN; // NaN current
        cur.entries.remove(1); // missing in current
        cur.entries.push(BenchEntry {
            label: "integrity/full".to_string(),
            ..BenchEntry::from_result(&result("integrity/full", 14, Some(1000)))
        });
        let out = compare_reports(&base, &cur, 1.5);
        assert_eq!(out.regressions(), 0, "nothing comparable regressed");
        let rendered = out.render();
        assert!(rendered.contains("degenerate"), "{rendered}");
        assert!(rendered.contains("missing in current"), "{rendered}");
        assert!(rendered.contains("new entry"), "{rendered}");
    }

    #[test]
    fn zero_throughput_baseline_skips() {
        let mut base = BenchReport::new(
            "exchange",
            EnvFingerprint::capture(true, 7),
            &[result("exchange/framed/64", 10, Some(1000))],
        );
        base.entries[0].elem_per_sec = 0.0;
        let out = compare_reports(&base, &base.clone(), 1.5);
        assert!(matches!(out.verdicts[0].1, Verdict::Skipped { .. }));
        assert!(out.render().contains("zero/NaN throughput"));
    }

    #[test]
    fn area_mismatch_skips_everything() {
        let a = BenchReport::new("exchange", EnvFingerprint::capture(true, 7), &[]);
        let b = BenchReport::new("csb", EnvFingerprint::capture(true, 7), &[]);
        let out = compare_reports(&a, &b, 1.5);
        assert_eq!(out.regressions(), 0);
        assert!(out.render().contains("area mismatch"));
    }

    #[test]
    fn perturbed_rescales_throughput_consistently() {
        let base = BenchReport::new(
            "exchange",
            EnvFingerprint::capture(true, 7),
            &[result("exchange/loopback/1024", 10, Some(2048))],
        );
        let p = base.perturbed(2.0);
        assert_eq!(p.entries[0].mean_ns, base.entries[0].mean_ns * 2.0);
        let expected = 2048.0 / (p.entries[0].mean_ns / 1e9);
        assert!((p.entries[0].elem_per_sec - expected).abs() < 1e-9);
    }

    #[test]
    fn file_names_and_thresholds_cover_all_areas() {
        for area in AREAS {
            assert_eq!(file_name(area), format!("BENCH_{area}.json"));
            assert!(default_threshold(area) > 1.0);
        }
    }
}
