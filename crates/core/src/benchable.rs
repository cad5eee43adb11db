//! Benchable entry points over the engine's hot paths.
//!
//! The `phigraph-bench` perf areas (and the determinism tests backing
//! them) need the queue, CSB, and superstep paths exercised in isolation
//! with *fixed-seed deterministic inputs* — same seed, same destination
//! stream, same element counts, every run — so that two `BENCH_*.json`
//! files differ only in timings. Those fixtures live here, next to the
//! code they drive, instead of being re-derived ad hoc inside each bench:
//!
//! * [`csb_fixture`] — a [`Csb`] sized exactly for a seeded message
//!   stream, for steady-state `insert_slice` loops;
//! * [`spsc_shuttle`] — the paper's worker→mover batched transport
//!   (`push_slice`/`pop_slices`) over a [`QueueMatrix`], which no engine
//!   runs, returning an order-independent checksum;
//! * [`superstep_work`] — one priming run that sizes a workload (superstep
//!   and message counts) so benches can declare element throughput.

use crate::api::VertexProgram;
use crate::csb::{ColumnMode, Csb, CsbLayout};
use crate::engine::{run_single, EngineConfig};
use crate::queues::QueueMatrix;
use phigraph_device::DeviceSpec;
use phigraph_graph::generators::rng::SplitMix64;
use phigraph_graph::Csr;

/// A CSB plus the seeded message stream it was sized for.
pub struct CsbFixture {
    /// Buffer with capacity for exactly one insertion of `msgs`.
    pub csb: Csb<f32>,
    /// Seeded `(dst, value)` stream; insert via slices, then
    /// [`Csb::reset`] between iterations.
    pub msgs: Vec<(u32, f32)>,
}

/// Build a CSB over `n_vertices` owned vertices sized for `n_msgs` seeded
/// uniform-destination messages. Deterministic in `seed`.
pub fn csb_fixture(n_vertices: usize, n_msgs: usize, mode: ColumnMode, seed: u64) -> CsbFixture {
    let n_vertices = n_vertices.max(1);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let msgs: Vec<(u32, f32)> = (0..n_msgs)
        .map(|i| {
            (
                rng.random_range(0..n_vertices as u32),
                (i % 251) as f32 * 0.5,
            )
        })
        .collect();
    let mut cap = vec![0u32; n_vertices];
    for &(d, _) in &msgs {
        cap[d as usize] += 1;
    }
    let owned: Vec<u32> = (0..n_vertices as u32).collect();
    let layout = CsbLayout::build(n_vertices, &owned, &cap, 16, 4);
    CsbFixture {
        csb: Csb::new(layout, mode),
        msgs,
    }
}

/// Seeded `(dst, value)` stream for the SPSC shuttle; destinations cycle
/// uniformly so every mover stays fed. Deterministic in `seed`.
pub fn shuttle_msgs(n_msgs: usize, n_dsts: u32, seed: u64) -> Vec<(u32, f32)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n_msgs)
        .map(|i| (rng.random_range(0..n_dsts.max(1)), i as f32))
        .collect()
}

/// Move `msgs` through a `workers × movers` [`QueueMatrix`] with the
/// paper's batched worker→mover protocol: each worker takes a strided share
/// of the stream, stages per-mover batches of `batch`, flushes them with
/// `push_slice`, and each mover drains with `pop_slices`. Returns the sum
/// of all destination ids seen by the movers — order-independent, so it
/// equals the direct sum whenever no message was lost or duplicated.
pub fn spsc_shuttle(
    workers: usize,
    movers: usize,
    queue_cap: usize,
    batch: usize,
    msgs: &[(u32, f32)],
) -> u64 {
    let workers = workers.max(1);
    let movers = movers.max(1);
    let batch = batch.max(1);
    let queues = QueueMatrix::<(u32, f32)>::new(workers, movers, queue_cap);
    let queues = &queues;
    std::thread::scope(|s| {
        for w in 0..workers {
            s.spawn(move || {
                let mut stage: Vec<Vec<(u32, f32)>> =
                    (0..movers).map(|_| Vec::with_capacity(batch)).collect();
                for msg in msgs.iter().skip(w).step_by(workers) {
                    let m = msg.0 as usize % movers;
                    stage[m].push(*msg);
                    if stage[m].len() >= batch {
                        // SAFETY: worker w is the sole producer of row w.
                        unsafe { queues.queue(w, m).push_slice(&stage[m]) };
                        stage[m].clear();
                    }
                }
                for (m, buf) in stage.iter().enumerate() {
                    if !buf.is_empty() {
                        // SAFETY: as above.
                        unsafe { queues.queue(w, m).push_slice(buf) };
                    }
                }
                queues.close_worker(w);
            });
        }
        let sums: Vec<_> = (0..movers)
            .map(|m| {
                s.spawn(move || {
                    let mut sum = 0u64;
                    loop {
                        let mut moved = false;
                        for w in 0..workers {
                            // SAFETY: mover m is the sole consumer of (w, m).
                            let n = unsafe {
                                queues.queue(w, m).pop_slices(queue_cap, |slice| {
                                    for &(dst, _) in slice {
                                        sum = sum.wrapping_add(dst as u64);
                                    }
                                })
                            };
                            moved |= n > 0;
                        }
                        if !moved {
                            if queues.mover_done(m) {
                                break;
                            }
                            std::hint::spin_loop();
                            std::thread::yield_now();
                        }
                    }
                    sum
                })
            })
            .collect();
        sums.into_iter()
            .map(|h| h.join().expect("mover thread"))
            .sum()
    })
}

/// How much work one full run of a program performs — the element counts a
/// superstep bench declares as throughput.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperstepWork {
    /// Supersteps until convergence (or the configured cap).
    pub supersteps: usize,
    /// Messages generated across the whole run.
    pub total_msgs: u64,
}

/// One priming run of `program` under `config`, returning the counts a
/// steady-state bench of the same `(program, graph, config)` cell will
/// reproduce exactly (the engines are deterministic for a fixed input).
pub fn superstep_work<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> SuperstepWork {
    let out = run_single(program, graph, spec, config);
    SuperstepWork {
        supersteps: out.report.supersteps(),
        total_msgs: out.report.total_msgs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csb_fixture_is_seed_deterministic_and_insertable() {
        let a = csb_fixture(256, 5_000, ColumnMode::Dynamic, 7);
        let b = csb_fixture(256, 5_000, ColumnMode::Dynamic, 7);
        assert_eq!(a.msgs, b.msgs, "same seed, same stream");
        let c = csb_fixture(256, 5_000, ColumnMode::Dynamic, 8);
        assert_ne!(a.msgs, c.msgs, "different seed, different stream");
        // The fixture is sized exactly: a full insertion round fits.
        for chunk in a.msgs.chunks(64) {
            a.csb.insert_slice(chunk);
        }
        a.csb.reset();
        for chunk in a.msgs.chunks(64) {
            a.csb.insert_slice(chunk);
        }
    }

    #[test]
    fn shuttle_checksum_matches_direct_sum() {
        let msgs = shuttle_msgs(20_000, 1024, 42);
        let direct: u64 = msgs.iter().map(|&(d, _)| d as u64).sum();
        for (workers, movers, batch) in [(1, 1, 64), (4, 2, 64), (2, 3, 1)] {
            let got = spsc_shuttle(workers, movers, 256, batch, &msgs);
            assert_eq!(got, direct, "{workers}x{movers} batch {batch}");
        }
    }

    #[test]
    fn shuttle_msgs_are_seed_deterministic() {
        assert_eq!(shuttle_msgs(100, 64, 3), shuttle_msgs(100, 64, 3));
        assert_ne!(shuttle_msgs(100, 64, 3), shuttle_msgs(100, 64, 4));
    }

    #[test]
    fn superstep_work_is_reproducible() {
        use phigraph_graph::generators::small::weighted_diamond;
        // The doc-example SSSP program, small enough for a unit test.
        struct Sssp;
        impl VertexProgram for Sssp {
            type Msg = f32;
            type Reduce = phigraph_simd::Min;
            type Value = f32;
            const NAME: &'static str = "sssp";
            fn init(&self, v: u32, _g: &Csr) -> (f32, bool) {
                if v == 0 {
                    (0.0, true)
                } else {
                    (f32::INFINITY, false)
                }
            }
            fn generate<S: crate::api::MsgSink<f32>>(
                &self,
                v: u32,
                ctx: &mut crate::api::GenContext<'_, f32, S>,
            ) {
                let my = *ctx.value(v);
                for e in ctx.graph.edge_range(v) {
                    ctx.send(ctx.graph.targets[e], my + ctx.graph.weight(e));
                }
            }
            fn update(&self, _v: u32, msg: f32, value: &mut f32, _g: &Csr) -> bool {
                if msg < *value {
                    *value = msg;
                    true
                } else {
                    false
                }
            }
        }
        let g = weighted_diamond();
        let cfg = EngineConfig::locking();
        let a = superstep_work(&Sssp, &g, DeviceSpec::xeon_e5_2680(), &cfg);
        let b = superstep_work(&Sssp, &g, DeviceSpec::xeon_e5_2680(), &cfg);
        assert_eq!(a, b);
        assert!(a.supersteps > 0 && a.total_msgs > 0);
    }
}
