//! Randomized property tests over the framework's core invariants.
//!
//! Previously written with `proptest`; now driven by the vendored
//! deterministic PRNG so the suite runs hermetically offline. Each property
//! is exercised over a fixed number of seeded random cases — failures
//! reproduce exactly (the case seed is part of the assertion message).

#![allow(clippy::needless_range_loop)] // index loops read clearer in vertex-indexed asserts

use phigraph_apps::reference::sssp::dijkstra_reference;
use phigraph_apps::Sssp;
use phigraph_comm::{combine_messages, WireMsg};
use phigraph_core::csb::{ColumnMode, Csb, CsbLayout};
use phigraph_core::engine::{run_single, EngineConfig};
use phigraph_core::util::SharedSlice;
use phigraph_device::{makespan, DeviceSpec};
use phigraph_graph::{Csr, EdgeList, SplitMix64};

/// Cases per property (the proptest suite used 64).
const CASES: u64 = 48;

/// Random small directed graph as CSR.
fn random_graph(rng: &mut SplitMix64, max_n: usize, max_m: usize) -> Csr {
    let n = rng.random_range(2..max_n);
    let m = rng.random_range(0..max_m);
    let mut el = EdgeList::new(n);
    for _ in 0..m {
        let s = rng.random_range(0..n as u32);
        let d = rng.random_range(0..n as u32);
        if s != d {
            el.push(s, d);
        }
    }
    el.sort_dedup();
    Csr::from_edge_list(&el)
}

/// Random message batch `(dst, value)` bounded by per-dst capacity.
fn random_messages(rng: &mut SplitMix64, n: usize, cap: u32) -> Vec<(u32, f32)> {
    let count = rng.random_range(0..(n * cap as usize).min(400));
    let mut counts = vec![0u32; n];
    let mut msgs = Vec::with_capacity(count);
    for _ in 0..count {
        let d = rng.random_range(0..n as u32);
        if counts[d as usize] < cap {
            counts[d as usize] += 1;
            msgs.push((d, rng.random_range(-100.0f32..100.0)));
        }
    }
    msgs
}

/// CSB insert → process is exactly a per-destination reduction, for both
/// column modes and both processing paths.
#[test]
fn csb_round_trip_is_per_destination_reduce() {
    use phigraph_simd::Sum;
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(1000 + case);
        let n = 48usize;
        let msgs = random_messages(&mut rng, n, 6);
        let one_to_one: bool = rng.random();
        let vectorized: bool = rng.random();
        let k = rng.random_range(1usize..5);
        let cap = vec![6u32; n];
        let owned: Vec<u32> = (0..n as u32).collect();
        let layout = CsbLayout::build(n, &owned, &cap, 4, k);
        let mode = if one_to_one {
            ColumnMode::OneToOne
        } else {
            ColumnMode::Dynamic
        };
        let mut csb = Csb::<f32>::new(layout, mode);
        for &(d, v) in &msgs {
            csb.insert(d, v).unwrap();
        }
        let positions = csb.layout.num_positions();
        let mut out = vec![0f32; positions];
        let mut has = vec![0u8; positions];
        let mut chunks = Vec::new();
        {
            let o = SharedSlice::new(&mut out);
            let h = SharedSlice::new(&mut has);
            csb.process_groups::<Sum>(0..csb.layout.num_groups(), vectorized, &o, &h, &mut chunks);
        }
        // Work records must account for every message exactly once.
        let recorded: u64 = chunks.iter().map(|c| c.msgs).sum();
        assert_eq!(recorded, msgs.len() as u64, "case {case}");
        // Oracle: plain per-destination fold.
        let mut expect = vec![0f32; n];
        let mut got = vec![false; n];
        for &(d, v) in &msgs {
            expect[d as usize] += v;
            got[d as usize] = true;
        }
        for v in 0..n as u32 {
            let pos = csb.layout.position[v as usize] as usize;
            assert_eq!(has[pos] == 1, got[v as usize], "case {case} vertex {v}");
            if got[v as usize] {
                assert!(
                    (out[pos] - expect[v as usize]).abs() < 1e-3,
                    "case {case} vertex {v}: {} vs {}",
                    out[pos],
                    expect[v as usize]
                );
            }
        }
    }
}

/// The engine's SSSP equals Dijkstra on arbitrary weighted digraphs.
#[test]
fn sssp_equals_dijkstra() {
    for case in 0..CASES / 2 {
        let mut rng = SplitMix64::seed_from_u64(2000 + case);
        let g = random_graph(&mut rng, 40, 200);
        let seed = rng.random_range(0u64..1000);
        let mut el = g.to_edge_list();
        el.randomize_weights(0.1, 5.0, seed);
        let g = Csr::from_edge_list(&el);
        let out = run_single(
            &Sssp { source: 0 },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        let expect = dijkstra_reference(&g, 0);
        for v in 0..g.num_vertices() {
            let (a, b) = (out.values[v], expect[v]);
            if b.is_infinite() {
                assert!(a.is_infinite(), "case {case} vertex {v}");
            } else {
                assert!((a - b).abs() < 1e-2, "case {case} vertex {v}: {a} vs {b}");
            }
        }
    }
}

/// Every partitioning scheme yields a total assignment whose stats are
/// internally consistent.
#[test]
fn partitions_are_total_and_consistent() {
    use phigraph_partition::{partition, PartitionScheme, PartitionStats, Ratio};
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(3000 + case);
        let g = random_graph(&mut rng, 60, 300);
        let a = rng.random_range(1u32..5);
        let b = rng.random_range(1u32..5);
        let scheme = [
            PartitionScheme::Continuous,
            PartitionScheme::RoundRobin,
            PartitionScheme::Hybrid { blocks: 8 },
        ][rng.random_range(0usize..3)];
        let ratio = Ratio::new(a, b);
        let p = partition(&g, scheme, ratio, 11);
        assert_eq!(p.assign.len(), g.num_vertices(), "case {case}");
        let s = PartitionStats::compute(&g, &p);
        assert_eq!(
            s.vertices[0] + s.vertices[1],
            g.num_vertices(),
            "case {case}"
        );
        assert_eq!(s.edges[0] + s.edges[1], g.num_edges() as u64, "case {case}");
        assert!(s.cross_edges <= g.num_edges() as u64, "case {case}");
    }
}

/// Makespan is sandwiched between the two lower bounds and the serial
/// total, and never increases with more workers.
#[test]
fn makespan_bounds() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(4000 + case);
        let len = rng.random_range(1usize..200);
        let chunks: Vec<f64> = (0..len).map(|_| rng.random_range(0.0f64..100.0)).collect();
        let workers = rng.random_range(1usize..64);
        let r = makespan(&chunks, workers);
        let total: f64 = chunks.iter().sum();
        let maxc = chunks.iter().cloned().fold(0.0, f64::max);
        assert!(r.makespan <= total + 1e-9, "case {case}");
        assert!(r.makespan + 1e-9 >= total / workers as f64, "case {case}");
        assert!(r.makespan + 1e-9 >= maxc, "case {case}");
        let r2 = makespan(&chunks, workers * 2);
        assert!(r2.makespan <= r.makespan + 1e-9, "case {case}");
    }
}

/// Remote combining preserves the per-destination reduction and emits at
/// most one message per destination.
#[test]
fn combining_preserves_reduction() {
    use phigraph_simd::{Min, ReduceOp};
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(5000 + case);
        let count = rng.random_range(0usize..200);
        let msgs: Vec<(u32, f32)> = (0..count)
            .map(|_| (rng.random_range(0u32..30), rng.random_range(-50.0f32..50.0)))
            .collect();
        let wire: Vec<WireMsg<f32>> = msgs
            .iter()
            .map(|&(dst, value)| WireMsg { dst, value })
            .collect();
        let (combined, before) = combine_messages::<f32, Min>(wire);
        assert_eq!(before, msgs.len(), "case {case}");
        // At most one per destination, sorted.
        for w in combined.windows(2) {
            assert!(w[0].dst < w[1].dst, "case {case}");
        }
        // Values equal the scalar fold.
        for m in &combined {
            let expect = msgs
                .iter()
                .filter(|&&(d, _)| d == m.dst)
                .map(|&(_, v)| v)
                .fold(
                    <Min as ReduceOp<f32>>::identity(),
                    <Min as ReduceOp<f32>>::apply,
                );
            assert_eq!(m.value, expect, "case {case} dst {}", m.dst);
        }
    }
}

/// Wire encode/decode is the identity on arbitrary message batches.
#[test]
fn wire_codec_round_trips() {
    use phigraph_comm::message::{decode_batch, encode_batch};
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(7000 + case);
        let count = rng.random_range(0usize..200);
        let wire: Vec<WireMsg<f32>> = (0..count)
            .map(|_| WireMsg {
                dst: rng.random(),
                value: f32::from_bits(rng.random()),
            })
            .collect();
        let bytes = encode_batch(&wire);
        assert_eq!(bytes.len(), wire.len() * 8, "case {case}");
        let back = decode_batch::<f32>(&bytes);
        // NaN-safe comparison via bit patterns.
        assert_eq!(back.len(), wire.len(), "case {case}");
        for (a, b) in back.iter().zip(&wire) {
            assert_eq!(a.dst, b.dst, "case {case}");
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "case {case}");
        }
    }
}

/// The CSB layout is a permutation with non-increasing capacities and exact
/// group geometry, for arbitrary capacity vectors.
#[test]
fn csb_layout_invariants() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(8000 + case);
        let n = rng.random_range(1usize..200);
        let caps: Vec<u32> = (0..n).map(|_| rng.random_range(0u32..50)).collect();
        let lanes = 1usize << rng.random_range(1u32..5);
        let k = rng.random_range(1usize..5);
        let owned: Vec<u32> = (0..n as u32).collect();
        let layout = CsbLayout::build(n, &owned, &caps, lanes, k);
        // order is a permutation of owned.
        let mut sorted = layout.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, owned, "case {case}");
        // capacities are non-increasing.
        for w in layout.capacity.windows(2) {
            assert!(w[0] >= w[1], "case {case}");
        }
        // redirection map round-trips.
        for (pos, &v) in layout.order.iter().enumerate() {
            assert_eq!(layout.position[v as usize] as usize, pos, "case {case}");
        }
        // group rows equal the max capacity of their slice, and cell offsets
        // tile exactly.
        let width = k * lanes;
        let mut offset = 0usize;
        for (gi, info) in layout.groups.iter().enumerate() {
            let slice = &layout.capacity[gi * width..(gi * width + width).min(n)];
            assert_eq!(
                info.rows,
                slice.iter().copied().max().unwrap_or(0),
                "case {case}"
            );
            assert_eq!(info.cell_offset, offset, "case {case}");
            offset += info.rows as usize * width;
        }
        assert_eq!(layout.total_cells, offset, "case {case}");
        assert!(layout.dense_cells() >= layout.total_cells, "case {case}");
    }
}

/// Ratio display/parse round-trips.
#[test]
fn ratio_round_trips() {
    use phigraph_partition::Ratio;
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(9000 + case);
        let a = rng.random_range(1u32..100);
        let b = rng.random_range(0u32..100);
        let r = Ratio::new(a, b);
        let parsed: Ratio = r.to_string().parse().unwrap();
        assert_eq!(parsed, r, "case {case}");
        assert!((r.share(0) + r.share(1) - 1.0).abs() < 1e-12, "case {case}");
    }
}

/// Graph adjacency-list I/O round-trips arbitrary graphs.
#[test]
fn adjacency_io_round_trips() {
    use phigraph_graph::io::{read_adjacency, write_adjacency};
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(10_000 + case);
        let g = random_graph(&mut rng, 50, 250);
        let mut buf = Vec::new();
        write_adjacency(&g, &mut buf).unwrap();
        let g2 = read_adjacency(&buf[..]).unwrap();
        assert_eq!(g, g2, "case {case}");
    }
}

/// Byte-smear fuzzing of the ingestion parsers: corrupting arbitrary bytes
/// of a valid file must yield `Ok` or a typed `GraphError`, never a panic.
#[test]
fn graph_parsers_survive_byte_smear() {
    use phigraph_graph::io::{read_adjacency, read_binary, write_adjacency, write_binary};
    for case in 0..CASES * 4 {
        let mut rng = SplitMix64::seed_from_u64(12_000 + case);
        let g = random_graph(&mut rng, 30, 120);
        let mut adj = Vec::new();
        write_adjacency(&g, &mut adj).unwrap();
        let mut bin = Vec::new();
        write_binary(&g, &mut bin).unwrap();
        for buf in [&mut adj, &mut bin] {
            // Smear a handful of bytes, sometimes truncate the tail.
            let smears = rng.random_range(1usize..6);
            for _ in 0..smears {
                let at = rng.random_range(0..buf.len());
                buf[at] = (rng.next_u64() & 0xFF) as u8;
            }
            if rng.random_bool(0.3) {
                let keep = rng.random_range(0..buf.len());
                buf.truncate(keep);
            }
        }
        // Any outcome is fine except a panic; errors must be typed and
        // printable (the Display path is part of the contract).
        if let Err(e) = read_adjacency(&adj[..]) {
            let _ = e.to_string();
        }
        if let Err(e) = read_binary(&bin[..]) {
            let _ = e.to_string();
        }
    }
}

/// The engine is bitwise deterministic for a fixed input, regardless of
/// threading (PageRank sums are applied in a fixed buffer order).
#[test]
fn engine_is_deterministic() {
    use phigraph_apps::PageRank;
    for case in 0..CASES / 4 {
        let mut rng = SplitMix64::seed_from_u64(11_000 + case);
        let g = random_graph(&mut rng, 40, 150);
        let threads = rng.random_range(1usize..6);
        let pr = PageRank {
            damping: 0.85,
            iterations: 4,
        };
        let a = run_single(
            &pr,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking().with_host_threads(threads),
        );
        let b = run_single(
            &pr,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking().with_host_threads(1),
        );
        // Same multiset of messages reduced with an associative op over a
        // deterministic layout: identical reports step-for-step.
        assert_eq!(a.report.supersteps(), b.report.supersteps(), "case {case}");
        for v in 0..g.num_vertices() {
            assert!((a.values[v] - b.values[v]).abs() < 1e-4, "case {case}");
        }
    }
}

/// The per-thread span recorder under concurrency: with ring capacity above
/// the per-thread span count nothing is lost, every span closes at or after
/// it opens, spans land in closing order (the single-writer ring appends on
/// guard drop), and overflow is accounted rather than silent.
#[test]
fn trace_recorder_concurrent_no_loss_below_capacity() {
    use phigraph_trace::{Phase, Trace, TraceLevel, ALL_PHASES};
    for case in 0..8u64 {
        let mut rng = SplitMix64::seed_from_u64(7200 + case);
        let nthreads = rng.random_range(2..7usize);
        let spans_per_thread = rng.random_range(10..400usize);
        let trace = Trace::with_capacity(TraceLevel::Phase, 512);
        std::thread::scope(|scope| {
            for i in 0..nthreads {
                let trace = trace.clone();
                scope.spawn(move || {
                    let t = trace.thread(&format!("stress-{i}"), i as u32);
                    let mut recorded = 0usize;
                    while recorded < spans_per_thread {
                        if recorded.is_multiple_of(3) && recorded + 2 <= spans_per_thread {
                            // Nested pair: inner closes (and records) first.
                            let _outer =
                                t.span(ALL_PHASES[recorded % ALL_PHASES.len()], recorded as u32);
                            let _inner = t.span(
                                ALL_PHASES[(recorded + 1) % ALL_PHASES.len()],
                                recorded as u32,
                            );
                            recorded += 2;
                        } else {
                            let _s =
                                t.span(ALL_PHASES[recorded % ALL_PHASES.len()], recorded as u32);
                            recorded += 1;
                        }
                    }
                });
            }
        });
        let snap = trace.snapshot();
        assert_eq!(snap.threads.len(), nthreads, "case {case}");
        for th in &snap.threads {
            assert_eq!(th.dropped, 0, "case {case} thread {}", th.name);
            assert_eq!(
                th.spans.len(),
                spans_per_thread,
                "case {case} thread {} lost spans below capacity",
                th.name
            );
            let mut last_close = 0u64;
            for s in &th.spans {
                assert!(
                    s.t0_ns <= s.t1_ns,
                    "case {case}: span closes before it opens"
                );
                assert!(
                    s.t1_ns >= last_close,
                    "case {case} thread {}: close times must be monotonic",
                    th.name
                );
                last_close = s.t1_ns;
            }
        }
        assert_eq!(snap.total_spans(), nthreads * spans_per_thread);
        assert_eq!(snap.total_dropped(), 0);
    }

    // Overflow accounting: a tiny ring keeps the first `capacity` spans and
    // counts the rest as dropped instead of corrupting the buffer.
    let trace = Trace::with_capacity(TraceLevel::Phase, 16);
    let t = trace.thread("tiny", 0);
    for i in 0..50u32 {
        let _s = t.span(Phase::Generate, i);
    }
    let snap = trace.snapshot();
    assert_eq!(snap.threads[0].spans.len(), 16);
    assert_eq!(snap.threads[0].dropped, 34);
    assert_eq!(snap.total_dropped(), 34);
}
