//! The exchange layer on one captured remote batch.
//!
//! The two ranks of the fabric are stepped in lockstep on one thread
//! (generate both, combine, hand each the other's combined batch, then
//! finalize, process and update both, the order `run_ranks` uses), and rank
//! 0's largest raw outgoing batch is kept. The combine, wire-encoding,
//! link-exchange and frame calls are then timed on that batch.

use std::time::Instant;

use phigraph_comm::message::{decode_batch, encode_batch};
use phigraph_comm::{combine_messages, duplex_pair, FrameHeader, PcieLink, WireMsg};
use phigraph_core::api::VertexProgram;
use phigraph_core::engine::{DeviceEngine, EngineConfig};
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;

use crate::spans::Spans;
use crate::stats::median;

/// Rank 0's largest raw (uncombined) outgoing batch over one solve.
pub fn capture<P: VertexProgram>(program: &P, g: &Csr, assign: &[u8]) -> Vec<WireMsg<P::Msg>> {
    let cfg = EngineConfig::locking().with_host_threads(1);
    let mut e0 = DeviceEngine::new(
        program,
        g,
        DeviceSpec::xeon_e5_2680(),
        cfg.clone(),
        0,
        Some(assign),
    );
    let mut e1 = DeviceEngine::new(
        program,
        g,
        DeviceSpec::xeon_phi_se10p(),
        cfg,
        1,
        Some(assign),
    );
    let cap = program.max_supersteps().unwrap_or(usize::MAX);
    let mut best: Vec<WireMsg<P::Msg>> = Vec::new();
    for _ in 0..cap {
        let mut c0 = e0.begin_step();
        let mut c1 = e1.begin_step();
        let r0 = e0.generate(&mut c0);
        let r1 = e1.generate(&mut c1);
        let any = c0.msgs_total() + c1.msgs_total() > 0;
        if r0.len() > best.len() {
            best = r0.clone();
        }
        let (x0, _) = combine_messages::<P::Msg, P::Reduce>(r0);
        let (x1, _) = combine_messages::<P::Msg, P::Reduce>(r1);
        e0.absorb_remote(&x1, &mut c0);
        e1.absorb_remote(&x0, &mut c1);
        for (e, c) in [(&mut e0, &mut c0), (&mut e1, &mut c1)] {
            e.finalize_insertion_stats(c);
            e.process(c);
            e.update(c);
        }
        if !any {
            break;
        }
    }
    best
}

/// Median seconds per call on the captured batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommTimes {
    /// Raw messages in the batch.
    pub batch_msgs: usize,
    /// `combine_messages`.
    pub combine_s: f64,
    /// `encode_batch` + `decode_batch` of the combined batch.
    pub encode_s: f64,
    /// One `duplex_pair` exchange of the combined batch in each direction.
    pub exchange_s: f64,
    /// `FrameHeader::seal` + `verify` of the combined batch.
    pub frame_s: f64,
}

/// Time the exchange calls on `batch`, `reps` times each, with a span per
/// call under `id`.
pub fn time_calls<P: VertexProgram>(
    batch: &[WireMsg<P::Msg>],
    reps: usize,
    spans: &mut Spans,
    id: u64,
) -> CommTimes {
    // Inputs are copied before each timer starts: `combine_messages` and
    // `exchange` consume their batch.
    let timed = |name: &'static str, spans: &mut Spans, f: &mut dyn FnMut()| -> f64 {
        let idx = spans.open(name, id);
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        spans.close(idx);
        dt
    };
    let (mut combine, mut encode, mut frame, mut exchange) = (vec![], vec![], vec![], vec![]);
    let mut combined = Vec::new();
    for _ in 0..reps {
        let mut copy = Some(batch.to_vec());
        combine.push(timed("comm.combine", spans, &mut || {
            let input = copy.take().expect("one input per call");
            combined = std::hint::black_box(combine_messages::<P::Msg, P::Reduce>(input).0);
        }));
        encode.push(timed("comm.encode", spans, &mut || {
            let bytes = encode_batch(&combined);
            std::hint::black_box(decode_batch::<P::Msg>(&bytes));
        }));
        frame.push(timed("comm.frame", spans, &mut || {
            let h = FrameHeader::seal(7, &combined);
            h.verify(7, &combined).expect("an intact batch verifies");
        }));
    }
    let (a, b) = duplex_pair::<WireMsg<P::Msg>>(PcieLink::gen2_x16());
    let bytes = (combined.len() * WireMsg::<P::Msg>::WIRE_SIZE) as u64;
    std::thread::scope(|s| {
        let peer_batch = combined.clone();
        let peer = s.spawn(move || {
            for _ in 0..reps {
                let out = peer_batch.clone();
                std::hint::black_box(b.exchange(out, bytes, true));
            }
        });
        for _ in 0..reps {
            let mut out = Some(combined.clone());
            exchange.push(timed("comm.exchange", spans, &mut || {
                let batch = out.take().expect("one batch per call");
                std::hint::black_box(a.exchange(batch, bytes, true));
            }));
        }
        peer.join().expect("exchange peer thread panicked");
    });
    CommTimes {
        batch_msgs: batch.len(),
        combine_s: median(&combine),
        encode_s: median(&encode),
        exchange_s: median(&exchange),
        frame_s: median(&frame),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_apps::workloads::{pokec_like, Scale};
    use phigraph_apps::PageRank;
    use phigraph_partition::{partition_n, PartitionScheme, Shares};

    #[test]
    fn captured_batch_crosses_ranks_and_calls_are_timed() {
        let g = pokec_like(Scale::Tiny, 2);
        let p = partition_n(&g, PartitionScheme::hybrid_default(), &Shares::even(2), 7);
        let batch = capture(&PageRank::default(), &g, &p.assign);
        assert!(!batch.is_empty());
        assert!(batch.iter().all(|m| p.assign[m.dst as usize] == 1));
        let mut spans = Spans::new();
        let t = time_calls::<PageRank>(&batch, 3, &mut spans, 1);
        assert_eq!(t.batch_msgs, batch.len());
        assert!(t.combine_s > 0.0 && t.encode_s > 0.0 && t.exchange_s > 0.0 && t.frame_s > 0.0);
        assert_eq!(spans.all().len(), 12);
    }
}
