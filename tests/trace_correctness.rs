//! Tracing must be an observer, never a participant.
//!
//! Two contracts from the observability layer:
//!
//! 1. Attaching a disabled trace (or none at all) leaves every computed
//!    vertex value **bit-identical** — the span sites cost one relaxed
//!    atomic load and must not perturb scheduling-sensitive results.
//! 2. The emitted Chrome trace JSON is well-formed (it parses with the
//!    framework's own hand-rolled parser) and its spans are strictly
//!    nested per thread with monotonic close times — the ring buffer
//!    records spans in closing order.

use phigraph_apps::{workloads, PageRank, Sssp};
use phigraph_comm::PcieLink;
use phigraph_core::engine::{run_ranks, run_single, EngineConfig};
use phigraph_device::DeviceSpec;
use phigraph_partition::{partition, PartitionScheme, Ratio};
use phigraph_trace::json::Json;
use phigraph_trace::{Trace, TraceLevel};

fn graph() -> phigraph_graph::Csr {
    workloads::pokec_like_weighted(workloads::Scale::Tiny, 16)
}

/// Run `cfg` three ways — untraced, with a `TraceLevel::Off` trace, and
/// with a `TraceLevel::Phase` trace — and demand bit-identical values.
fn assert_trace_invisible<P, F>(program: &P, cfg: EngineConfig, bits: F, label: &str)
where
    P: phigraph_core::api::VertexProgram,
    P::Value: Copy,
    F: Fn(P::Value) -> u64,
{
    let g = graph();
    let spec = DeviceSpec::xeon_e5_2680();
    let base = run_single(program, &g, spec.clone(), &cfg);

    let off = Trace::new(TraceLevel::Off);
    let with_off = run_single(
        program,
        &g,
        spec.clone(),
        &cfg.clone().with_trace(off.clone()),
    );
    let phase = Trace::new(TraceLevel::Phase);
    let with_phase = run_single(program, &g, spec, &cfg.clone().with_trace(phase.clone()));

    for (v, (&a, (&b, &c))) in base
        .values
        .iter()
        .zip(with_off.values.iter().zip(&with_phase.values))
        .enumerate()
    {
        assert_eq!(
            bits(a),
            bits(b),
            "{label}: Off-trace diverged at vertex {v}"
        );
        assert_eq!(
            bits(a),
            bits(c),
            "{label}: Phase-trace diverged at vertex {v}"
        );
    }
    // A disabled trace records nothing at all.
    let snap = off.snapshot();
    assert_eq!(snap.total_spans(), 0, "{label}: Off trace recorded spans");
    assert!(
        phase.snapshot().total_spans() > 0,
        "{label}: Phase trace recorded nothing"
    );
}

#[test]
fn disabled_tracing_is_bit_identical_sssp() {
    // Min-reduction is order-independent, so even heavily threaded runs
    // must agree bit-for-bit.
    let p = Sssp { source: 3 };
    assert_trace_invisible(
        &p,
        EngineConfig::locking().with_host_threads(8),
        |v: f32| v.to_bits() as u64,
        "sssp/lock",
    );
    assert_trace_invisible(
        &p,
        EngineConfig::pipelined().with_host_threads(8),
        |v: f32| v.to_bits() as u64,
        "sssp/pipe",
    );
}

#[test]
fn disabled_tracing_is_bit_identical_pagerank() {
    // f32 sums depend on reduction order, so pin the deterministic
    // single-worker configurations: any bit-level divergence then must
    // come from the tracing layer itself.
    let p = PageRank {
        damping: 0.85,
        iterations: 8,
    };
    assert_trace_invisible(
        &p,
        EngineConfig::locking().with_host_threads(1),
        |v: f32| v.to_bits() as u64,
        "pagerank/lock1",
    );
    // `pipe` runs the locking engine's host path: deterministic on any
    // host thread count.
    assert_trace_invisible(
        &p,
        EngineConfig::pipelined().with_host_threads(2),
        |v: f32| v.to_bits() as u64,
        "pagerank/pipe2",
    );
}

/// Collect `(ts, dur, name)` per tid from a parsed Chrome trace.
fn spans_by_tid(doc: &Json) -> std::collections::BTreeMap<u64, Vec<(f64, f64, String)>> {
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(f64, f64, String)>> =
        std::collections::BTreeMap::new();
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let tid = e.u64_or_0("tid");
        let ts = e.f64_or_0("ts");
        let dur = e.f64_or_0("dur");
        let name = e
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("")
            .to_string();
        by_tid.entry(tid).or_default().push((ts, dur, name));
    }
    by_tid
}

/// Stack-discipline check: spans either nest strictly or are disjoint.
fn assert_nested(tid: u64, spans: &[(f64, f64, String)]) {
    const EPS: f64 = 1e-6;
    // Ring order is closing order: close times must be monotonic.
    let mut last_close = f64::NEG_INFINITY;
    for (ts, dur, name) in spans {
        let close = ts + dur;
        assert!(
            close >= last_close - EPS,
            "tid {tid}: span {name} closes at {close} before previous close {last_close}"
        );
        last_close = close;
    }
    // Sorted by open time (ties: longest first), spans must nest.
    let mut sorted = spans.to_vec();
    sorted.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap()
            .then(b.1.partial_cmp(&a.1).unwrap())
    });
    let mut stack: Vec<(f64, f64)> = Vec::new();
    for (ts, dur, name) in &sorted {
        while let Some(&(_, end)) = stack.last() {
            if *ts >= end - EPS {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(start, end)) = stack.last() {
            assert!(
                *ts >= start - EPS && ts + dur <= end + EPS,
                "tid {tid}: span {name} [{ts}, {}] partially overlaps parent [{start}, {end}]",
                ts + dur
            );
        }
        stack.push((*ts, ts + dur));
    }
}

#[test]
fn chrome_trace_parses_and_spans_nest() {
    let g = graph();
    let trace = Trace::new(TraceLevel::Phase);
    let cfg = EngineConfig::pipelined()
        .with_host_threads(4)
        .with_trace(trace.clone());
    let _ = run_single(&Sssp { source: 3 }, &g, DeviceSpec::xeon_e5_2680(), &cfg);

    let text = trace.export_chrome();
    let doc = Json::parse(&text).expect("chrome trace must be valid JSON");

    // One metadata track per registered thread, including the worker
    // lanes of the engine's host path (the pipelined mode has no movers of
    // its own: a worker generates and inserts).
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
        })
        .collect();
    assert!(names.contains(&"dev0"), "device track missing: {names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("dev0/worker-")),
        "worker track missing: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.contains("/mover-")),
        "no engine runs movers: {names:?}"
    );

    let by_tid = spans_by_tid(&doc);
    assert_eq!(
        by_tid.len(),
        names.len(),
        "every named track should carry spans"
    );
    let mut phases_seen = std::collections::BTreeSet::new();
    for (tid, spans) in &by_tid {
        assert!(!spans.is_empty());
        assert_nested(*tid, spans);
        for (_, _, name) in spans {
            phases_seen.insert(name.clone());
        }
    }
    // The mailbox step's column binding records the worker's `insert`
    // span; nothing flushes a worker→mover batch or makes a mover's
    // `drain` pass.
    for expected in ["superstep", "generate", "insert", "process", "update"] {
        assert!(
            phases_seen.contains(expected),
            "phase {expected} missing from trace (saw {phases_seen:?})"
        );
    }
    for gone in ["flush", "drain"] {
        assert!(
            !phases_seen.contains(gone),
            "phase {gone} in trace (saw {phases_seen:?})"
        );
    }
}

#[test]
fn hetero_trace_has_exchange_spans_and_both_devices() {
    let g = graph();
    let p = partition(&g, PartitionScheme::hybrid_default(), Ratio::new(1, 1), 7);
    let trace = Trace::new(TraceLevel::Phase);
    let out = run_ranks(
        &Sssp { source: 3 },
        &g,
        &p,
        &[DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
        &[
            EngineConfig::locking().with_trace(trace.clone()),
            EngineConfig::pipelined().with_trace(trace.clone()),
        ],
        PcieLink::gen2_x16(),
    );
    assert_eq!(out.device_reports.len(), 2);
    let text = trace.export_chrome();
    let doc = Json::parse(&text).expect("valid JSON");
    let by_tid = spans_by_tid(&doc);
    let all: Vec<&str> = by_tid
        .values()
        .flatten()
        .map(|(_, _, n)| n.as_str())
        .collect();
    assert!(all.contains(&"exchange"), "exchange spans missing");
    let snap = trace.snapshot();
    let names: Vec<&str> = snap.threads.iter().map(|t| t.name.as_str()).collect();
    assert!(
        names.contains(&"dev0") && names.contains(&"dev1"),
        "{names:?}"
    );
}
