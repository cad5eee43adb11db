//! The vertex-centric programming API (§III of the paper).
//!
//! A graph application implements [`VertexProgram`] with the three functions
//! of the paper's Listing 1:
//!
//! * `generate` — the paper's `generate_messages`: called for every active
//!   vertex; sends `⟨dst, value⟩` messages along out-edges through
//!   [`GenContext::send`] (the paper's `send_messages` primitive).
//! * message processing — expressed as the associated [`ReduceOp`]
//!   (`type Reduce`), applied by the runtime lane-parallel over the
//!   condensed static buffer. This corresponds to the paper's
//!   `process_messages` written with vtypes; it is restricted to
//!   associative + commutative reductions over basic types, exactly the
//!   restriction §III states.
//! * `update` — the paper's `update_vertex`: receives the reduced message,
//!   mutates the vertex value, and returns whether the vertex is active in
//!   the next superstep.

use phigraph_graph::{Csr, VertexId};
use phigraph_simd::{MsgValue, ReduceOp};

/// Destination for generated messages. The engines provide different sinks
/// (insertion into the CSB, the gather form's one value per sender, the
/// fold-on-arrival mailboxes of the device and sequential engines); user
/// programs only ever call [`MsgSink::send`] through the context.
pub trait MsgSink<M> {
    /// Send one message to `dst`.
    fn send(&mut self, dst: VertexId, msg: M);
}

/// A `Vec`-backed sink for tests and message collection.
impl<M> MsgSink<M> for Vec<(VertexId, M)> {
    #[inline]
    fn send(&mut self, dst: VertexId, msg: M) {
        self.push((dst, msg));
    }
}

/// Context handed to [`VertexProgram::generate`]: read-only vertex values,
/// the graph in CSR form, and the message sink.
pub struct GenContext<'a, V, S> {
    /// The graph (paper's `graph<...> *g`, in CSR format).
    pub graph: &'a Csr,
    values: &'a [V],
    sink: &'a mut S,
    /// Messages sent so far by this context (tallied by the engines).
    pub sent: u64,
}

impl<'a, V, S> GenContext<'a, V, S> {
    /// Build a context over `values` writing into `sink`.
    pub fn new(graph: &'a Csr, values: &'a [V], sink: &'a mut S) -> Self {
        GenContext {
            graph,
            values,
            sink,
            sent: 0,
        }
    }

    /// The current value of vertex `v` (the paper's `g->vertex_value[v]`).
    /// BSP semantics: values are frozen during generation.
    #[inline(always)]
    pub fn value(&self, v: VertexId) -> &V {
        &self.values[v as usize]
    }
}

impl<'a, V, S> GenContext<'a, V, S> {
    /// Send a message (the paper's `send_messages(dst, value)`).
    #[inline(always)]
    pub fn send<M>(&mut self, dst: VertexId, msg: M)
    where
        S: MsgSink<M>,
    {
        self.sent += 1;
        self.sink.send(dst, msg);
    }
}

/// A vertex-centric graph program with POD messages (the SIMD-reducible
/// path; programs with object messages implement
/// [`crate::engine::obj::ObjVertexProgram`] instead).
pub trait VertexProgram: Send + Sync + 'static {
    /// Message value type — one of the "basic data types supported by SSE".
    type Msg: MsgValue;
    /// The associative + commutative message reduction.
    type Reduce: ReduceOp<Self::Msg>;
    /// Per-vertex state.
    type Value: Clone + Send + Sync + Default + 'static;

    /// Application name for reports.
    const NAME: &'static str;

    /// If true, every vertex is re-activated each superstep regardless of
    /// received messages (PageRank-style fixed-iteration algorithms, where
    /// "all vertices generate messages along all edges every iteration").
    const ALWAYS_ACTIVE: bool = false;

    /// If false, the runtime uses the scalar processing path even when the
    /// engine is configured for SIMD (the paper's BFS "does not have [a]
    /// message reduction sub-step"; its messages are delivered scalar).
    const SIMD_REDUCIBLE: bool = true;

    /// Whether [`VertexProgram::post_generate`] does anything; engines skip
    /// the extra pass when false.
    const HAS_POST_GENERATE: bool = false;

    /// Initial value and active flag for vertex `v`.
    fn init(&self, v: VertexId, g: &Csr) -> (Self::Value, bool);

    /// Generate messages for active vertex `v`. Mark implementations
    /// `#[inline]`: without it, an edit elsewhere can move an engine's
    /// instance to another codegen unit and leave a call per message.
    fn generate<S: MsgSink<Self::Msg>>(
        &self,
        v: VertexId,
        ctx: &mut GenContext<'_, Self::Value, S>,
    );

    /// Apply the reduced message to `v`; return the new active flag.
    fn update(&self, v: VertexId, msg: Self::Msg, value: &mut Self::Value, g: &Csr) -> bool;

    /// Optional superstep cap (PageRank and Semi-Clustering run a fixed
    /// number of iterations in the paper).
    fn max_supersteps(&self) -> Option<usize> {
        None
    }

    /// Called once per superstep for each vertex that was active during
    /// generation, after all messages are sent and before updates run.
    /// This is where residual/delta algorithms flush "what I just sent"
    /// bookkeeping (generation itself sees frozen values — BSP). Only runs
    /// when [`VertexProgram::HAS_POST_GENERATE`] is true.
    fn post_generate(&self, _v: VertexId, _value: &mut Self::Value) {}

    /// Upper bound on the messages vertex `v` can receive in one superstep
    /// from all senders. `None` (the default) means "my in-degree" — correct
    /// for programs that send only along out-edges — and lets the engine
    /// compute the tight per-device capacity that keeps the condensed buffer
    /// small. Programs that message other neighborhoods (e.g. WCC sending
    /// along both directions) must override.
    fn capacity_hint(&self, _v: VertexId, _g: &Csr) -> Option<u32> {
        None
    }

    /// Superstep invariant auditor for the integrity subsystem: inspect
    /// the barrier transition `prev → cur` (vertex values before and after
    /// one superstep's updates) over every `stride`-th vertex and return a
    /// violation description if the application's algebraic invariant is
    /// broken (distance monotonicity, mass conservation, label
    /// non-increase, …). `None` (the default) means "no invariant to
    /// check" — plain programs pay nothing. Auditors must tolerate the
    /// program's own update rule exactly: a false positive costs a
    /// full-step replay, not correctness, but keep tolerances honest.
    fn audit_step(
        &self,
        _step: usize,
        _prev: &[Self::Value],
        _cur: &[Self::Value],
        _stride: usize,
    ) -> Option<String> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::paper_example;

    struct Probe;
    impl VertexProgram for Probe {
        type Msg = f32;
        type Reduce = phigraph_simd::Min;
        type Value = f32;
        const NAME: &'static str = "probe";
        fn init(&self, v: VertexId, _g: &Csr) -> (f32, bool) {
            (v as f32, v == 0)
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            let my = *ctx.value(v);
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], my + ctx.graph.weight(e));
            }
        }
        fn update(&self, _v: VertexId, msg: f32, value: &mut f32, _g: &Csr) -> bool {
            *value = msg;
            true
        }
    }

    #[test]
    fn context_sends_along_out_edges() {
        let g = paper_example();
        let values: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut sink: Vec<(VertexId, f32)> = Vec::new();
        let mut ctx = GenContext::new(&g, &values, &mut sink);
        Probe.generate(9, &mut ctx);
        assert_eq!(ctx.sent, 4);
        assert_eq!(sink, vec![(4, 10.0), (5, 10.0), (6, 10.0), (8, 10.0)]);
    }

    #[test]
    fn context_value_reads_frozen_state() {
        let g = paper_example();
        let values = vec![7.5f32; 16];
        let mut sink: Vec<(VertexId, f32)> = Vec::new();
        let ctx = GenContext::new(&g, &values, &mut sink);
        assert_eq!(*ctx.value(3), 7.5);
    }

    #[test]
    fn table1_messages_via_api() {
        // Reproduce Table I: actives {6,7,11,13,14,15} send exactly these.
        let g = paper_example();
        let values: Vec<f32> = vec![0.0; 16];
        let mut sink: Vec<(VertexId, f32)> = Vec::new();
        let mut ctx = GenContext::new(&g, &values, &mut sink);
        for v in phigraph_graph::generators::small::paper_example_actives() {
            Probe.generate(v, &mut ctx);
        }
        let dsts: Vec<VertexId> = sink.iter().map(|&(d, _)| d).collect();
        let expect: Vec<VertexId> = phigraph_graph::generators::small::paper_table1_messages()
            .iter()
            .map(|&(_, d)| d)
            .collect();
        assert_eq!(dsts, expect);
    }
}
