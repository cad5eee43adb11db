//! The CSB-based device engine: message generation, SIMD message
//! processing and vertex updating (§IV.A–IV.D) for the locking and
//! pipelined framework modes, and the flat OpenMP-style baseline (the
//! paper's "OMP" bars).
//!
//! One `DeviceEngine` instance runs the paper's superstep on one device. It
//! executes with real host threads (results are genuinely computed) and
//! records the event counters the cost model converts into simulated device
//! time. Every mode fills the buffer on one host path, which takes no
//! per-column lock. An engine without peers runs its dense supersteps
//! (every owned vertex active, no message audit, no message bit-flip
//! pending) in gather form, from the first one up to its first superstep
//! that does not gather: each vertex's one value is kept and processing
//! gathers it through the cells' sender table ([`crate::csb::gather`]).
//! Every other superstep, every superstep of a rank with peers, and a
//! dense one in which some vertex does not broadcast along its out-edges,
//! is one walk of the active vertices on the calling thread, chunk by chunk
//! in owned order, which folds each message on arrival
//! ([`crate::csb::mailbox`]), unless the message audit is on or, without
//! peers, a message bit-flip is pending: those act on the buffer's cells,
//! so such a walk inserts each message into its column on arrival
//! ([`Csb::insert`]). A mailbox step touches only the vertices that got
//! messages, and the walk takes the active vertices the last mailbox
//! update listed. All three leave the same column state, or derive it, and
//! reduce the same messages in the same order, so the engine's counters
//! and results depend on neither the host thread count, nor the path, nor
//! the mode. The modes differ in what the cost model
//! charges for the counts: the paper's locked insertion (`lock`), its
//! worker/mover pipeline (`pipe`, for which generation also tallies each
//! simulated mover's messages), or a per-message OpenMP lock and no
//! processing phase with scalar processing (`omp`, "OpenMP directives on
//! sequential code, with proper use of synchronization (OpenMP locks)").
//! The phase methods are public so the heterogeneous driver can interleave
//! the remote exchange between generation and processing, exactly where
//! the paper's workflow places it.

use crate::active::ActiveSet;
use crate::api::{GenContext, MsgSink, VertexProgram};
use crate::csb::gather::{DenseTable, GatherSink};
use crate::csb::mailbox::Mailbox;
use crate::csb::process::Gather;
use crate::csb::{Csb, CsbLayout};
use crate::engine::config::{EngineConfig, ExecMode};
use crate::engine::hetero::{Exchanged, RankEngine};
use crate::engine::integrity::framed_exchange;
use crate::util::SharedSlice;
use phigraph_comm::message::wire_bytes;
use phigraph_comm::{combine_messages, Endpoint, PeerInfo, WireMsg};
use phigraph_device::cost::PhaseTimes;
use phigraph_device::counters::GenChunk;
use phigraph_device::pool::{run_parallel, run_parallel_collect};
use phigraph_device::{ChunkScheduler, CostModel, DeviceSpec, RunScheduler, StepCounters};
use phigraph_graph::{Csr, VertexId};
use phigraph_recover::{FaultKind, IntegrityStats};
use phigraph_simd::{MsgValue, ReduceOp};
use phigraph_trace::{Phase, ThreadTracer, Trace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Bytes read per traversed edge during generation (target id + weight).
const EDGE_BYTES: u64 = 8;
/// Effective bytes per locally inserted message: the destination column
/// cell is a random cache line, so a full line moves per insertion.
const MSG_LINE_BYTES: u64 = 64;

/// A buffer step's sink: insert each local message into its column on
/// arrival, collect peer-bound ones in send order.
struct CellSink<'a, T: MsgValue> {
    csb: &'a mut Csb<T>,
    assign: Option<&'a [u8]>,
    dev: u8,
    remote: Vec<WireMsg<T>>,
}

impl<'a, T: MsgValue> MsgSink<T> for CellSink<'a, T> {
    #[inline(always)]
    fn send(&mut self, dst: VertexId, msg: T) {
        if self.assign.is_none_or(|a| a[dst as usize] == self.dev) {
            if let Err(e) = self.csb.insert(dst, msg) {
                panic!("{e}");
            }
        } else {
            self.remote.push(WireMsg { dst, value: msg });
        }
    }
}

/// The tracer of worker thread `tid` on device `dev` ("devN/worker-W").
fn worker_tracer(trace: Option<&Trace>, dev: u8, tid: usize) -> ThreadTracer {
    match trace {
        Some(t) => t.thread(
            &format!("dev{dev}/worker-{tid}"),
            dev as u32 * 1000 + 10 + tid as u32,
        ),
        None => ThreadTracer::disabled(),
    }
}

/// The host path's dense-step state.
enum Dense {
    /// No dense superstep yet: the sender table is built at the first one.
    Unbuilt,
    /// Every superstep since the first dense one gathered through this
    /// table, and the buffer holds the table's column state.
    Ready(DenseTable),
    /// No superstep gathers: the engine has peers, the table could not be
    /// built (a column too small for its in-edges, or too many cells), or a
    /// superstep did not gather.
    Off,
}

/// Which supersteps fold on arrival (tests force the buffer).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mail {
    /// Every superstep that may ([`DeviceEngine::mail_step`]).
    Always,
    /// None.
    #[cfg(test)]
    Never,
}

/// The per-device runtime for a [`VertexProgram`].
pub struct DeviceEngine<'g, P: VertexProgram> {
    /// The user program.
    pub program: &'g P,
    /// The (global) graph.
    pub graph: &'g Csr,
    /// The simulated device.
    pub spec: DeviceSpec,
    /// Engine configuration.
    pub config: EngineConfig,
    /// This device's rank.
    pub(crate) dev_id: u8,
    /// The vertex→rank map (`None` = this device owns everything).
    pub(crate) assign: Option<&'g [u8]>,
    owned: Vec<VertexId>,
    csb: Csb<P::Msg>,
    /// Vertex values (full-length; only owned entries are meaningful).
    pub values: Vec<P::Value>,
    active: ActiveSet,
    reduced: Vec<P::Msg>,
    has_msg: Vec<u8>,
    host_threads: usize,
    /// Static generation chunk boundaries over `owned` (edge-balanced, so
    /// hub vertices do not turn one chunk into the critical path).
    gen_ranges: Vec<std::ops::Range<usize>>,
    /// Supersteps started so far; attributes worker spans to their
    /// superstep (counts executed attempts — replays re-number).
    cur_step: u32,
    /// The host path's dense-step state.
    dense: Dense,
    /// Each owned vertex's one value on a gather step, indexed like
    /// `owned`, and the reduction's identity for the bubbles (empty unless
    /// the sender table is built).
    sent: Vec<P::Msg>,
    /// The folds of mailbox supersteps.
    mailbox: Mailbox<P::Msg>,
    /// Whether the last superstep's messages are in `mailbox` rather than
    /// the buffer (until the next `begin_step`).
    mailed: bool,
    /// Which supersteps fold on arrival.
    mail: Mail,
    /// The active vertices, when the last mailbox update listed them
    /// (`None`: only the flags hold them). A step that does not gather
    /// walks this list instead of every owned vertex's flag.
    frontier: Option<Vec<VertexId>>,
}

/// Split `owned` into ranges of roughly equal out-edge mass. With
/// front-loaded hub graphs, fixed vertex-count chunks make the first chunk
/// the critical path; balancing by edges keeps the dynamic schedule's task
/// units comparable ("the amounts of processing associated with different
/// vertices is different").
pub(crate) fn edge_balanced_ranges(
    owned: &[VertexId],
    graph: &Csr,
    explicit_chunk: usize,
    threads: usize,
) -> Vec<std::ops::Range<usize>> {
    if owned.is_empty() {
        return Vec::new();
    }
    if explicit_chunk > 0 {
        return (0..owned.len())
            .step_by(explicit_chunk)
            .map(|s| s..(s + explicit_chunk).min(owned.len()))
            .collect();
    }
    let total: u64 = owned.iter().map(|&v| graph.out_degree(v) as u64 + 1).sum();
    let target = (total / (threads as u64 * 32).max(1)).max(24);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &v) in owned.iter().enumerate() {
        acc += graph.out_degree(v) as u64 + 1;
        if acc >= target {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < owned.len() {
        ranges.push(start..owned.len());
    }
    ranges
}

/// Per-thread `(chunk index, record)` lists merged into chunk order (a
/// chunk's records keep their order), so the makespan replay does not
/// depend on which thread ran which chunk. One thread runs each chunk, so
/// each chunk's records are one run of one list, and only the runs are
/// sorted.
pub(crate) fn in_chunk_order<T: Clone>(per_thread: Vec<Vec<(usize, T)>>) -> Vec<T> {
    let mut runs = Vec::new();
    for (t, records) in per_thread.iter().enumerate() {
        let mut start = 0;
        for end in 1..=records.len() {
            if end == records.len() || records[end].0 != records[start].0 {
                runs.push((records[start].0, t, start..end));
                start = end;
            }
        }
    }
    runs.sort_by_key(|&(chunk, ..)| chunk);
    let mut ordered = Vec::with_capacity(per_thread.iter().map(Vec::len).sum());
    for (_, t, run) in runs {
        ordered.extend(per_thread[t][run].iter().map(|(_, record)| record.clone()));
    }
    ordered
}

/// The frontier walk of every superstep that does not gather: `program`
/// generates the vertices of `frontier` (owned, ascending) into `ctx` on
/// the calling thread, chunk by chunk of `ranges` (over `owned`) in owned
/// order, as a one-thread run of the chunk schedule would, with one work
/// record per chunk in `c`.
fn walk<P: VertexProgram, S: MsgSink<P::Msg>>(
    program: &P,
    owned: &[VertexId],
    ranges: &[std::ops::Range<usize>],
    frontier: &[VertexId],
    ctx: &mut GenContext<'_, P::Value, S>,
    c: &mut StepCounters,
) {
    let mut next = frontier.iter().copied().peekable();
    for r in ranges {
        let (mut ch, sent) = (GenChunk::default(), ctx.sent);
        let last = owned[r.end - 1];
        while let Some(v) = next.next_if(|&v| v <= last) {
            ch.vertices += 1;
            ch.edges += ctx.graph.out_degree(v) as u64;
            program.generate(v, ctx);
        }
        ch.msgs = ctx.sent - sent;
        c.active_vertices += ch.vertices;
        c.gen_edges += ch.edges;
        c.gen_chunks.push(ch);
    }
}

impl<'g, P: VertexProgram> DeviceEngine<'g, P> {
    /// Build the engine for device `dev_id`. `assign` is the vertex→device
    /// map (`None` = this device owns everything).
    pub fn new(
        program: &'g P,
        graph: &'g Csr,
        spec: DeviceSpec,
        config: EngineConfig,
        dev_id: u8,
        assign: Option<&'g [u8]>,
    ) -> Self {
        assert!(
            config.mode != ExecMode::Sequential,
            "DeviceEngine runs lock, pipe and omp; use the seq driver otherwise"
        );
        if P::ALWAYS_ACTIVE {
            assert!(
                program.max_supersteps().is_some() || config.max_supersteps.is_some(),
                "ALWAYS_ACTIVE programs must bound their supersteps"
            );
        }
        let n = graph.num_vertices();
        let owned: Vec<VertexId> = match assign {
            None => (0..n as VertexId).collect(),
            Some(a) => {
                assert_eq!(a.len(), n);
                (0..n as VertexId)
                    .filter(|&v| a[v as usize] == dev_id)
                    .collect()
            }
        };
        // Message capacity per owned vertex: local in-degree plus one slot
        // per remote *sender rank* (each peer combines its messages to a
        // destination into one) — unless the program declares its own bound
        // (programs that message beyond their out-neighborhood, like WCC).
        let num_ranks = assign.map_or(1, |a| a.iter().copied().max().map_or(1, |m| m as usize + 1));
        assert!(
            num_ranks <= phigraph_partition::MAX_RANKS,
            "assignment names rank {} but the fabric caps at {} ranks",
            num_ranks - 1,
            phigraph_partition::MAX_RANKS
        );
        let (local_in, remote_mask) = match assign {
            // Every sender is local.
            None => (graph.in_degrees(), Vec::new()),
            Some(a) => {
                let mut local_in = vec![0u32; n];
                let mut remote_mask = vec![0u64; n];
                for (s, d) in graph.edge_iter() {
                    if a[d as usize] == dev_id {
                        if a[s as usize] == dev_id {
                            local_in[d as usize] += 1;
                        } else {
                            remote_mask[d as usize] |= 1 << a[s as usize];
                        }
                    }
                }
                (local_in, remote_mask)
            }
        };
        let capacity: Vec<u32> = owned
            .iter()
            .map(|&v| match program.capacity_hint(v, graph) {
                // Custom bound: all senders might be local, plus one
                // combined remote message per peer rank.
                Some(hint) => hint + (num_ranks - 1) as u32,
                None => {
                    local_in[v as usize] + remote_mask.get(v as usize).map_or(0, |m| m.count_ones())
                }
            })
            .collect();

        let lanes = spec.lanes(P::Msg::SIZE);
        let layout = CsbLayout::build(n, &owned, &capacity, lanes, config.k);
        let positions = layout.num_positions();
        let csb = Csb::new(layout, config.column_mode);

        let mut values = vec![P::Value::default(); n];
        let mut active = ActiveSet::new(n);
        for &v in &owned {
            let (val, act) = program.init(v, graph);
            values[v as usize] = val;
            active.set(v, act);
        }
        let host_threads = config.resolve_host_threads();
        let gen_ranges = edge_balanced_ranges(&owned, graph, config.gen_chunk, spec.threads());
        DeviceEngine {
            program,
            graph,
            spec,
            config,
            dev_id,
            assign,
            owned,
            csb,
            values,
            active,
            reduced: vec![P::Msg::ZERO; positions],
            has_msg: vec![0u8; positions],
            host_threads,
            gen_ranges,
            cur_step: 0,
            // A rank with peers absorbs their messages behind its own every
            // step: it never gathers.
            dense: if assign.is_some() {
                Dense::Off
            } else {
                Dense::Unbuilt
            },
            sent: Vec::new(),
            mailbox: Mailbox::new(),
            mailed: false,
            mail: Mail::Always,
            frontier: None,
        }
    }

    /// Vertices owned by this device.
    pub fn owned(&self) -> &[VertexId] {
        &self.owned
    }

    /// The buffer layout (for diagnostics and ablations).
    pub fn layout(&self) -> &CsbLayout {
        &self.csb.layout
    }

    /// Raw per-vertex active flags (snapshotted by the checkpoint writer at
    /// the superstep barrier, alongside [`DeviceEngine::values`]).
    pub fn active_flags(&self) -> &[u8] {
        self.active.flags()
    }

    /// Restore vertex state from a checkpoint taken at a superstep barrier:
    /// overwrite all values and active flags. Message buffers need no
    /// restoration — the CSB is reset at the top of every superstep by
    /// [`DeviceEngine::begin_step`], or, when it holds only the sender
    /// table's column state, before the first step that does not gather.
    ///
    /// # Panics
    /// Panics if `values` or `flags` do not cover the full vertex range.
    pub fn restore(&mut self, values: Vec<P::Value>, flags: &[u8]) {
        assert_eq!(
            values.len(),
            self.graph.num_vertices(),
            "value snapshot size mismatch"
        );
        self.values = values;
        self.active.restore_flags(flags);
        self.frontier = None;
    }

    /// The active owned vertices, read from the flags, ascending.
    fn active_owned(&self) -> Vec<VertexId> {
        let active = &self.active;
        self.owned
            .iter()
            .copied()
            .filter(|&v| active.is_active(v))
            .collect()
    }

    // ---- Integrity / quarantine hooks ----------------------------------
    //
    // The silent-corruption subsystem (engine::integrity + the recovering
    // driver) needs a handful of narrow windows into the engine: arming the
    // CSB's per-group message checksums, auditing/quarantining/rebuilding
    // individual vertex groups, and the two seeded SDC injection sites.

    /// Arm or disarm the CSB's per-group message checksums. Disarmed, every
    /// checksum branch collapses to one test per insert, so the off path
    /// stays bit-identical and near-free.
    pub fn set_integrity_audit(&mut self, enabled: bool) {
        self.csb.set_audit(enabled);
    }

    /// Audit every vertex group's folded message checksum against the
    /// buffer contents; returns the mismatched groups (the quarantine set).
    /// Call between the insertion barrier and processing.
    pub fn audit_message_groups(&self) -> Vec<usize> {
        self.csb.audit_groups()
    }

    /// Clear only the quarantined groups' messages (cursors, bindings and
    /// checksums), leaving every other group's messages intact.
    pub fn reset_message_groups(&mut self, groups: &[usize]) {
        self.csb.reset_groups(groups);
    }

    /// SDC injection site: flip one bit of one buffered message (the
    /// `BitFlipMessage` fault). Returns the corrupted group, or `None` when
    /// the buffer is empty. Deterministic per seed.
    pub fn corrupt_message_cell(&mut self, seed: u64) -> Option<usize> {
        self.csb.corrupt_cell(seed)
    }

    /// SDC injection site: flip one bit of one owned vertex's value (the
    /// `BitFlipState` fault — state rots silently between barriers).
    /// Returns the corrupted vertex. Deterministic per seed.
    pub fn flip_state_bit(&mut self, seed: u64) -> Option<VertexId>
    where
        P::Value: phigraph_graph::state::PodState,
    {
        use phigraph_graph::state::PodState;
        if self.owned.is_empty() || P::Value::STATE_SIZE == 0 {
            return None;
        }
        let mut rng = phigraph_graph::SplitMix64::seed_from_u64(seed);
        let v = self.owned[rng.random_range(0u64..self.owned.len() as u64) as usize];
        let bit = rng.random_range(0u64..(P::Value::STATE_SIZE as u64 * 8)) as usize;
        let mut bytes = Vec::with_capacity(P::Value::STATE_SIZE);
        self.values[v as usize].write_le(&mut bytes);
        bytes[bit / 8] ^= 1 << (bit % 8);
        self.values[v as usize] = P::Value::read_le(&bytes);
        Some(v)
    }

    /// Quarantine heal for *state*: copy the barrier image's values back
    /// for every vertex whose CSB position falls in `groups`, and restore
    /// the image's active flags wholesale (flags are part of the same
    /// barrier snapshot). Group-granular so only rotted groups are touched.
    pub fn heal_state_groups(
        &mut self,
        groups: &[usize],
        image_values: &[P::Value],
        image_flags: &[u8],
    ) {
        let mut in_set = vec![false; self.csb.layout.num_groups()];
        for &g in groups {
            if let Some(s) = in_set.get_mut(g) {
                *s = true;
            }
        }
        for pos in 0..self.csb.layout.num_positions() {
            if in_set[self.csb.layout.group_of(pos as u32)] {
                let v = self.csb.layout.order[pos] as usize;
                self.values[v] = image_values[v].clone();
            }
        }
        self.active.restore_flags(image_flags);
        self.frontier = None;
    }

    /// Quarantine recompute for *messages*: re-run generation,
    /// single-threaded, over the vertices that were active at the barrier
    /// image, keeping only messages whose destination group is quarantined.
    /// Call after [`DeviceEngine::reset_message_groups`] — together they
    /// rebuild exactly the cleared groups without touching the rest of the
    /// buffer or re-running the parallel phase. Returns the number of
    /// messages re-inserted.
    ///
    /// Peer-bound messages are skipped: they already left through the
    /// (frame-checksummed) exchange and are not part of the local buffer.
    pub fn regenerate_groups(
        &mut self,
        groups: &[usize],
        image_values: &[P::Value],
        image_flags: &[u8],
    ) -> u64 {
        struct QuarantineSink<'a, T: MsgValue> {
            csb: &'a mut Csb<T>,
            in_set: &'a [bool],
            assign: Option<&'a [u8]>,
            dev: u8,
            reinserted: u64,
        }
        impl<'a, T: MsgValue> MsgSink<T> for QuarantineSink<'a, T> {
            #[inline]
            fn send(&mut self, dst: VertexId, msg: T) {
                if self.assign.is_some_and(|a| a[dst as usize] != self.dev) {
                    return; // peer-bound: covered by frame integrity
                }
                let pos = self.csb.layout.position[dst as usize];
                if pos != crate::csb::NOT_OWNED && self.in_set[self.csb.layout.group_of(pos)] {
                    if let Err(e) = self.csb.insert(dst, msg) {
                        panic!("{e}");
                    }
                    self.reinserted += 1;
                }
            }
        }
        let mut in_set = vec![false; self.csb.layout.num_groups()];
        for &g in groups {
            if let Some(s) = in_set.get_mut(g) {
                *s = true;
            }
        }
        let mut sink = QuarantineSink {
            csb: &mut self.csb,
            in_set: &in_set,
            assign: self.assign,
            dev: self.dev_id,
            reinserted: 0,
        };
        let mut ctx = GenContext::new(self.graph, image_values, &mut sink);
        for &v in &self.owned {
            if image_flags[v as usize] != 0 {
                self.program.generate(v, &mut ctx);
            }
        }
        sink.reinserted
    }

    /// Reset per-iteration buffer state; returns fresh counters. A buffer
    /// that holds the sender table's column state is kept until a step
    /// does not gather, and counts the cells its reset touches. After a
    /// mailbox step the buffer is empty: only the positions that got
    /// messages are cleared, and the cells a reset of the buffer holding
    /// them would touch are counted.
    pub fn begin_step(&mut self) -> StepCounters {
        let reset_cells = if std::mem::take(&mut self.mailed) {
            let layout = &self.csb.layout;
            self.mailbox.clear(layout, self.csb.mode, &mut self.has_msg)
        } else {
            self.has_msg.fill(0);
            match &self.dense {
                Dense::Ready(table) => table.reset_cells(),
                _ => self.csb.reset(),
            }
        };
        self.cur_step = self.cur_step.wrapping_add(1);
        StepCounters {
            reset_cells,
            ..Default::default()
        }
    }

    /// Superstep index spans attribute to (1-based count of
    /// [`DeviceEngine::begin_step`] calls, 0 before the first).
    fn trace_step(&self) -> u32 {
        self.cur_step.wrapping_sub(1)
    }

    /// Message generation. Returns the remote (peer-bound) messages,
    /// uncombined. Deactivates all vertices afterwards (senders vote to
    /// halt; updates re-activate).
    pub fn generate(&mut self, c: &mut StepCounters) -> Vec<WireMsg<P::Msg>> {
        let frontier = self.frontier.take();
        let remote = self.generate_locking(c, frontier);
        if self.config.mode == ExecMode::Pipelined {
            self.tally_movers(&remote, c);
        }
        c.msgs_remote = remote.len() as u64;
        c.bytes_gen += c.gen_edges * EDGE_BYTES
            + c.msgs_local * MSG_LINE_BYTES
            + c.msgs_remote * (4 + P::Msg::SIZE as u64);
        if P::HAS_POST_GENERATE {
            self.run_post_generate();
        }
        self.active.clear();
        remote
    }

    /// Post-generation pass over the vertices that just sent messages
    /// (disjoint writes: each active vertex is owned by one task), on the
    /// calling thread after a mailbox step.
    fn run_post_generate(&mut self) {
        let sched = ChunkScheduler::new(self.owned.len(), 512);
        let threads = if self.mailed { 1 } else { self.host_threads };
        let (program, owned, active) = (self.program, &self.owned, &self.active);
        let vslice = SharedSlice::new(&mut self.values);
        run_parallel(threads, |_| {
            while let Some(r) = sched.next_batch() {
                for i in r {
                    let v = owned[i];
                    if active.is_active(v) {
                        // SAFETY: each vertex index visited by one task.
                        unsafe { program.post_generate(v, vslice.get_mut(v as usize)) };
                    }
                }
            }
        });
    }

    /// The pipelined cost model's mover workload: `mover_msgs[m]` counts
    /// this step's messages, local and peer-bound, whose destination is
    /// `≡ m (mod movers)`, the messages the paper's mover `m` inserts. Read
    /// after the generation barrier from the buffer's column counts and the
    /// remote batch, so it depends on neither the host thread count nor the
    /// path.
    fn tally_movers(&self, remote: &[WireMsg<P::Msg>], c: &mut StepCounters) {
        let movers = self.config.pipeline_split(&self.spec).1;
        let mut tally = vec![0u64; movers];
        let csb = &self.csb;
        let mut add = |dst: VertexId, msgs: u32| tally[dst as usize % movers] += u64::from(msgs);
        if self.mailed {
            self.mailbox.counts().for_each(|(dst, n)| add(dst, n));
        } else {
            for g in 0..csb.layout.num_groups() {
                for col in 0..csb.used_columns(g) {
                    if let Some(pos) = csb.column_position(g, col) {
                        add(csb.layout.order[pos as usize], csb.column_count(g, col));
                    }
                }
            }
        }
        for m in remote {
            tally[m.dst as usize % movers] += 1;
        }
        c.mover_msgs = tally;
    }

    /// The host path of every mode: gather form on a dense superstep, the
    /// frontier walk on any other, into the mailbox where it may and into
    /// the buffer otherwise.
    fn generate_locking(
        &mut self,
        c: &mut StepCounters,
        frontier: Option<Vec<VertexId>>,
    ) -> Vec<WireMsg<P::Msg>> {
        if self.dense_step() && self.generate_gather(c) {
            return Vec::new();
        }
        if matches!(self.dense, Dense::Ready(_)) {
            // The first step that does not gather (a vertex that did not
            // broadcast along its out-edges leaves nothing behind:
            // generation is pure) drops the table's column state, and no
            // later step gathers.
            self.csb.reset();
            self.dense = Dense::Off;
            self.sent = Vec::new();
        }
        let mut frontier = frontier.unwrap_or_else(|| self.active_owned());
        // `owned` ascends, so the sorted frontier meets the chunks in order.
        frontier.sort_unstable();
        if self.mail_step() {
            self.generate_mailed(c, &frontier)
        } else {
            self.generate_cells(c, &frontier)
        }
    }

    /// Whether a superstep that does not gather folds on arrival: the
    /// message audit is off and no message bit-flip is pending (both act on
    /// the buffer, which a mailbox step leaves empty).
    fn mail_step(&self) -> bool {
        match self.mail {
            Mail::Always => !self.csb.audit_enabled() && !self.message_flip_pending(),
            #[cfg(test)]
            Mail::Never => false,
        }
    }

    /// Whether this superstep may gather: every owned vertex is active, the
    /// message audit is off, no message bit-flip is pending and the sender
    /// table exists (built here at the first such step).
    fn dense_step(&mut self) -> bool {
        if matches!(self.dense, Dense::Off)
            || self.csb.audit_enabled()
            || self.message_flip_pending()
            || (self.active.count() as usize) < self.owned.len()
            || !self.owned.iter().all(|&v| self.active.is_active(v))
        {
            return false;
        }
        if matches!(self.dense, Dense::Unbuilt) {
            // `begin_step` reset the buffer.
            self.dense = match DenseTable::build(&mut self.csb, self.graph, &self.owned) {
                Some(table) => {
                    self.sent = vec![P::Reduce::identity(); self.owned.len() + 1];
                    Dense::Ready(table)
                }
                None => Dense::Off,
            };
        }
        matches!(self.dense, Dense::Ready(_))
    }

    /// Whether a `bitflip-msg` fault planned for this engine has yet to
    /// fire in its buffer. On an engine without peers it flips a message in
    /// the buffer, where a gather or mailbox step keeps none, so steps fill
    /// the buffer until it has fired and the flip lands where it always did;
    /// on a rank with peers it flips an outgoing frame instead. Any pending
    /// one counts: the engine's step count is not the rank loop's.
    fn message_flip_pending(&self) -> bool {
        self.assign.is_none()
            && self.config.fault_plan.as_ref().is_some_and(|inj| {
                inj.plan().iter().any(|f| {
                    f.kind == FaultKind::BitFlipMessage
                        && f.device == self.dev_id
                        && inj.pending(f.superstep, f.kind, f.device)
                })
            })
    }

    /// Gather-form generation: each thread generates one contiguous run of
    /// the chunks (taking from the far end of another's run once its own is
    /// done), keeping each vertex's one value; the buffer already holds the
    /// table's column state. Returns whether every vertex broadcast along
    /// its out-edges; when one did not, nothing is recorded in `c`.
    fn generate_gather(&mut self, c: &mut StepCounters) -> bool {
        let chunks = self.gen_ranges.len();
        let threads = self.host_threads.min(chunks).max(1);
        let sched = RunScheduler::new(chunks, threads);
        let deviated = AtomicBool::new(false);
        let (program, graph) = (self.program, self.graph);
        let (owned, values, ranges) = (&self.owned, &self.values, &self.gen_ranges);
        let (trace, dev, step) = (self.config.trace.as_ref(), self.dev_id, self.trace_step());
        let sent = SharedSlice::new(&mut self.sent);

        // Per thread: `(chunk, work record)` for each chunk it generated.
        let done = run_parallel_collect(threads, |tid| {
            let tracer = worker_tracer(trace, dev, tid);
            let _g = tracer.span(Phase::Generate, step);
            // SAFETY: the scheduler hands each chunk to one thread, and the
            // loop below starts the sink on that chunk's vertices only.
            let mut sink = unsafe { GatherSink::new(graph, &sent) };
            let mut done = Vec::new();
            'chunks: while let Some(ri) = sched.next(tid) {
                if deviated.load(Ordering::Relaxed) {
                    break;
                }
                let mut ch = GenChunk::default();
                for i in ranges[ri].clone() {
                    let v = owned[i];
                    sink.start(i, graph.edge_range(v));
                    let mut ctx = GenContext::new(graph, values, &mut sink);
                    program.generate(v, &mut ctx);
                    ch.msgs += ctx.sent;
                    if !sink.finish() {
                        deviated.store(true, Ordering::Relaxed);
                        break 'chunks;
                    }
                    ch.vertices += 1;
                    ch.edges += graph.out_degree(v) as u64;
                }
                done.push((ri, ch));
            }
            done
        });
        if deviated.into_inner() {
            return false;
        }
        // Chunk order keeps the makespan replay independent of which thread
        // ran which chunk.
        for ch in in_chunk_order(done) {
            c.active_vertices += ch.vertices;
            c.gen_edges += ch.edges;
            c.msgs_local += ch.msgs;
            c.gen_chunks.push(ch);
        }
        true
    }

    /// Mailbox generation ([`crate::csb::mailbox`]): the frontier walk
    /// folds each local message on arrival, then the columns the messages
    /// would take are bound.
    fn generate_mailed(
        &mut self,
        c: &mut StepCounters,
        frontier: &[VertexId],
    ) -> Vec<WireMsg<P::Msg>> {
        let vectorized = self.config.vectorized && P::SIMD_REDUCIBLE;
        let layout = &self.csb.layout;
        let tracer = worker_tracer(self.config.trace.as_ref(), self.dev_id, 0);
        let step = self.trace_step();
        let generate = tracer.span(Phase::Generate, step);
        let mut sink = self
            .mailbox
            .sink::<P::Reduce>(layout, vectorized, self.assign, self.dev_id);
        let mut ctx = GenContext::new(self.graph, &self.values, &mut sink);
        let (program, owned, ranges) = (self.program, &self.owned, &self.gen_ranges);
        walk(program, owned, ranges, frontier, &mut ctx, c);
        let sent = ctx.sent;
        let remote = sink.remote;
        c.msgs_local = sent - remote.len() as u64;
        drop(generate);
        let _insert = tracer.span(Phase::Insert, step);
        if !self.mailbox.bind(layout, self.csb.mode) {
            // A column overflows. Generation is pure, so the step re-runs
            // into the buffer, whose insert panics at the first rejected
            // message in source order.
            self.mailbox.clear(layout, self.csb.mode, &mut self.has_msg);
            self.generate_cells(c, frontier);
            unreachable!("the buffer rejects a message");
        }
        self.mailed = true;
        remote
    }

    /// Buffer generation: the frontier walk inserts each local message into
    /// its column on arrival, leaving the cells, column state and group
    /// checksums of a one-thread insertion in source order.
    fn generate_cells(
        &mut self,
        c: &mut StepCounters,
        frontier: &[VertexId],
    ) -> Vec<WireMsg<P::Msg>> {
        let tracer = worker_tracer(self.config.trace.as_ref(), self.dev_id, 0);
        let _generate = tracer.span(Phase::Generate, self.trace_step());
        let mut sink = CellSink {
            csb: &mut self.csb,
            assign: self.assign,
            dev: self.dev_id,
            remote: Vec::new(),
        };
        let mut ctx = GenContext::new(self.graph, &self.values, &mut sink);
        let (program, owned, ranges) = (self.program, &self.owned, &self.gen_ranges);
        walk(program, owned, ranges, frontier, &mut ctx, c);
        let sent = ctx.sent;
        c.msgs_local = sent - sink.remote.len() as u64;
        sink.remote
    }

    /// Insert the peer's combined remote messages into the local buffer
    /// ("Received messages are inserted into local message buffer for
    /// further processing") on the calling thread, after the local ones and
    /// in `incoming` order; on a mailbox step they fold after the local
    /// ones, in the same order.
    pub fn absorb_remote(&mut self, incoming: &[WireMsg<P::Msg>], c: &mut StepCounters) {
        if incoming.is_empty() {
            return;
        }
        if self.mailed {
            let vectorized = self.config.vectorized && P::SIMD_REDUCIBLE;
            let layout = &self.csb.layout;
            self.mailbox
                .absorb::<P::Reduce>(layout, self.csb.mode, vectorized, incoming);
        } else {
            for m in incoming {
                if let Err(e) = self.csb.insert(m.dst, m.value) {
                    panic!("{e}");
                }
            }
        }
        // Record the insertion work in scheduler-grain batches (one giant
        // chunk would read as serial work in the makespan replay).
        let grain = (incoming.len() / (self.spec.threads() * 8).max(1)).clamp(16, 1024) as u64;
        let mut left = incoming.len() as u64;
        while left > 0 {
            let batch = left.min(grain);
            c.gen_chunks.push(GenChunk {
                vertices: 0,
                edges: 0,
                msgs: batch,
            });
            left -= batch;
        }
        c.bytes_gen += incoming.len() as u64 * MSG_LINE_BYTES;
    }

    /// Collect insertion statistics after all insertions (local + remote)
    /// are done.
    pub fn finalize_insertion_stats(&self, c: &mut StepCounters) {
        let (profile, occupied, allocs) = if self.mailed {
            self.mailbox.insert_stats(self.csb.mode)
        } else {
            self.csb.insert_stats()
        };
        c.insert_profile = profile;
        c.occupied_columns = occupied;
        c.column_allocs = allocs;
    }

    /// Message processing: reduce the buffer into per-position messages.
    pub fn process(&mut self, c: &mut StepCounters) {
        let vectorized = self.config.vectorized && P::SIMD_REDUCIBLE;
        if self.mailed {
            self.mailbox.reduce::<P::Reduce>(
                vectorized,
                &mut self.reduced,
                &mut self.has_msg,
                &mut c.proc_chunks,
            );
        } else {
            self.process_buffer(vectorized, c);
        }
        for ch in &c.proc_chunks {
            c.proc_rows += ch.rows;
            c.proc_msgs += ch.msgs;
            c.holes_filled += ch.holes;
        }
        let lanes = self.csb.layout.lanes as u64;
        // Vectorized processing streams whole rows (messages + bubbles);
        // the scalar walk touches each message cell individually.
        c.bytes_proc = if vectorized {
            (c.proc_rows * lanes + c.occupied_columns) * P::Msg::SIZE as u64
        } else {
            (c.proc_msgs + c.occupied_columns) * P::Msg::SIZE as u64
        };
    }

    /// Reduce the buffer's vector arrays on the host threads, recording
    /// their work in group order.
    fn process_buffer(&mut self, vectorized: bool, c: &mut StepCounters) {
        let groups = self.csb.layout.num_groups();
        let sched =
            ChunkScheduler::new(groups, self.config.resolved_proc_chunk(groups, &self.spec));
        let csb = &self.csb;
        // After generation the table is live only if the step gathered.
        let gather = match &self.dense {
            Dense::Ready(table) => Some(Gather {
                senders: table.senders(),
                sent: &self.sent,
            }),
            _ => None,
        };
        let rslice = SharedSlice::new(&mut self.reduced);
        let hslice = SharedSlice::new(&mut self.has_msg);
        // Per thread: its work records, each tagged with the first group of
        // the task batch it came from.
        let out = run_parallel_collect(self.host_threads, |_| {
            let (mut tagged, mut chunks) = (Vec::new(), Vec::new());
            while let Some(r) = sched.next_batch() {
                let first = r.start;
                csb.process_groups_with::<P::Reduce>(
                    r,
                    vectorized,
                    gather,
                    &rslice,
                    &hslice,
                    &mut chunks,
                );
                tagged.extend(chunks.drain(..).map(|ch| (first, ch)));
            }
            tagged
        });
        // Records in group order — the order the scheduler hands tasks out —
        // whichever thread ran them, so the makespan replay is the same on
        // any host thread count.
        c.proc_chunks = in_chunk_order(out);
    }

    /// Vertex updating: apply reduced messages and set next-step active
    /// flags.
    pub fn update(&mut self, c: &mut StepCounters) {
        let updated = if self.mailed {
            self.update_mailed()
        } else {
            self.update_buffer()
        };
        if P::ALWAYS_ACTIVE {
            self.active.activate_all(&self.owned);
        }
        c.updated_vertices = updated;
        c.next_active = self.active.count();
        c.bytes_update = updated * (std::mem::size_of::<P::Value>() as u64 + 1);
    }

    /// Update the vertices of every position with a message, on the host
    /// threads; returns how many.
    fn update_buffer(&mut self) -> u64 {
        let positions = self.csb.layout.num_positions();
        let sched = ChunkScheduler::new(positions, 512);
        let (program, graph) = (self.program, self.graph);
        let order = &self.csb.layout.order;
        let (reduced, has_msg) = (&self.reduced, &self.has_msg);
        let vslice = SharedSlice::new(&mut self.values);
        let fslice = SharedSlice::new(self.active.flags_mut());
        let updated: u64 = run_parallel_collect(self.host_threads, |_| {
            let mut n = 0u64;
            while let Some(r) = sched.next_batch() {
                for pos in r {
                    if has_msg[pos] != 0 {
                        let v = order[pos];
                        // SAFETY: positions map to distinct vertices, so
                        // value/flag writes are disjoint across tasks.
                        let act = unsafe {
                            let val = vslice.get_mut(v as usize);
                            program.update(v, reduced[pos], val, graph)
                        };
                        unsafe { fslice.write(v as usize, u8::from(act)) };
                        n += 1;
                    }
                }
            }
            n
        })
        .into_iter()
        .sum();
        self.active.recount();
        updated
    }

    /// Update the vertices a mailbox step reached, on the calling thread,
    /// listing those that stay active unless the program keeps every vertex
    /// active; returns how many were updated.
    fn update_mailed(&mut self) -> u64 {
        let (program, graph) = (self.program, self.graph);
        let mut frontier = Vec::new();
        let mut updated = 0u64;
        for (v, pos) in self.mailbox.reached() {
            let val = &mut self.values[v as usize];
            let act = program.update(v, self.reduced[pos as usize], val, graph);
            // Generation cleared every flag, so `set` keeps the count.
            self.active.set(v, act);
            updated += 1;
            if act && !P::ALWAYS_ACTIVE {
                frontier.push(v);
            }
        }
        if !P::ALWAYS_ACTIVE {
            self.frontier = Some(frontier);
        }
        updated
    }
}

/// The rank loop's view of the CSB engine: POD messages, combined with the
/// program's reduction and exchanged through the frames layer.
impl<'g, P: VertexProgram> RankEngine for DeviceEngine<'g, P> {
    type Msg = P::Msg;
    type Value = P::Value;
    const NAME: &'static str = P::NAME;

    fn program_cap(&self) -> Option<usize> {
        self.program.max_supersteps()
    }
    fn config(&self) -> &EngineConfig {
        &self.config
    }
    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }
    fn placement(&self) -> (u8, Option<&[u8]>) {
        (self.dev_id, self.assign)
    }
    fn begin_step(&mut self) -> StepCounters {
        DeviceEngine::begin_step(self)
    }
    fn generate(&mut self, c: &mut StepCounters) -> Vec<WireMsg<P::Msg>> {
        DeviceEngine::generate(self, c)
    }
    fn combine(&self, bucket: Vec<WireMsg<P::Msg>>) -> Vec<WireMsg<P::Msg>> {
        combine_messages::<P::Msg, P::Reduce>(bucket).0
    }
    /// Frame integrity (when configured) seals, verifies and heals corrupt
    /// frames with a bounded verdict-synced re-exchange.
    fn exchange(
        &self,
        ep: &Endpoint<WireMsg<P::Msg>>,
        out: Vec<WireMsg<P::Msg>>,
        mine: PeerInfo,
        deadline: Option<Duration>,
        step: usize,
        integ: &mut IntegrityStats,
    ) -> Exchanged<P::Msg> {
        let bytes_out = wire_bytes::<P::Msg>(out.len());
        framed_exchange(
            ep,
            out,
            bytes_out,
            mine.any_active,
            mine.step_time,
            deadline,
            step as u64,
            self.dev_id,
            self.config.integrity,
            self.config.fault_plan.as_ref(),
            integ,
        )
    }
    fn absorb(&mut self, incoming: Vec<WireMsg<P::Msg>>, c: &mut StepCounters) {
        self.absorb_remote(&incoming, c);
    }
    fn insertion_stats(&self, c: &mut StepCounters) {
        self.finalize_insertion_stats(c);
    }
    fn process(&mut self, c: &mut StepCounters) {
        DeviceEngine::process(self, c);
    }
    fn update(&mut self, c: &mut StepCounters) {
        DeviceEngine::update(self, c);
    }
    fn step_times(&self, cost: &CostModel, c: &StepCounters) -> PhaseTimes {
        let vectorized = self.config.vectorized && P::SIMD_REDUCIBLE;
        let gen_mode = self.config.gen_mode(&self.spec);
        cost.step_times(c, gen_mode, P::Msg::SIZE, vectorized)
    }
    fn into_values(self) -> Vec<P::Value> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csb::ColumnMode;
    use crate::engine::config::EngineConfig;
    use phigraph_graph::generators::small::{chain, weighted_diamond};
    use phigraph_graph::generators::{rmat, RmatConfig};
    use phigraph_simd::{Min, Sum};

    /// Yield the host thread every 16th generating vertex, so the engine's
    /// threads take chunks in interleaved order even on a one-core runner.
    fn interleave(v: VertexId) {
        if v.is_multiple_of(16) {
            std::thread::yield_now();
        }
    }

    struct Sssp;
    impl VertexProgram for Sssp {
        type Msg = f32;
        type Reduce = Min;
        type Value = f32;
        const NAME: &'static str = "sssp";
        fn init(&self, v: VertexId, _g: &Csr) -> (f32, bool) {
            if v == 0 {
                (0.0, true)
            } else {
                (f32::INFINITY, false)
            }
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            interleave(v);
            let my = *ctx.value(v);
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], my + ctx.graph.weight(e));
            }
        }
        fn update(&self, _v: VertexId, msg: f32, value: &mut f32, _g: &Csr) -> bool {
            if msg < *value {
                *value = msg;
                true
            } else {
                false
            }
        }
    }

    fn drive(engine: &mut DeviceEngine<'_, Sssp>) -> usize {
        let mut steps = 0;
        loop {
            let mut c = engine.begin_step();
            let remote = engine.generate(&mut c);
            assert!(remote.is_empty(), "single device must not emit remote msgs");
            engine.finalize_insertion_stats(&mut c);
            engine.process(&mut c);
            engine.update(&mut c);
            steps += 1;
            if c.msgs_total() == 0 || steps > 1000 {
                break;
            }
        }
        steps
    }

    #[test]
    fn sssp_on_diamond_locking() {
        let g = weighted_diamond();
        let mut eng = DeviceEngine::new(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            EngineConfig::locking(),
            0,
            None,
        );
        drive(&mut eng);
        assert_eq!(eng.values, vec![0.0, 1.0, 5.0, 2.0]);
    }

    #[test]
    fn sssp_on_chain_pipelined() {
        let g = chain(50);
        let mut eng = DeviceEngine::new(
            &Sssp,
            &g,
            DeviceSpec::xeon_phi_se10p(),
            EngineConfig::pipelined().with_host_threads(4),
            0,
            None,
        );
        let steps = drive(&mut eng);
        for v in 0..50 {
            assert_eq!(eng.values[v], v as f32, "distance to {v}");
        }
        assert_eq!(steps, 50, "one wavefront per superstep plus the empty step");
    }

    #[test]
    fn counters_reflect_first_step() {
        let g = weighted_diamond();
        let mut eng = DeviceEngine::new(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            EngineConfig::locking(),
            0,
            None,
        );
        let mut c = eng.begin_step();
        eng.generate(&mut c);
        eng.finalize_insertion_stats(&mut c);
        assert_eq!(c.active_vertices, 1);
        assert_eq!(c.gen_edges, 2);
        assert_eq!(c.msgs_local, 2);
        assert_eq!(c.insert_profile.total, 2);
        assert_eq!(c.occupied_columns, 2);
        eng.process(&mut c);
        assert_eq!(c.proc_msgs, 2);
        eng.update(&mut c);
        assert_eq!(c.updated_vertices, 2);
        assert_eq!(c.next_active, 2);
    }

    #[test]
    fn partial_ownership_routes_remote_messages() {
        let g = weighted_diamond();
        // Device 0 owns {0, 1}; device 1 owns {2, 3}.
        let assign = vec![0u8, 0, 1, 1];
        let mut eng = DeviceEngine::new(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            EngineConfig::locking(),
            0,
            Some(&assign),
        );
        assert_eq!(eng.owned(), &[0, 1]);
        let mut c = eng.begin_step();
        let remote = eng.generate(&mut c);
        // Vertex 0 sends to 1 (local) and 2 (remote).
        assert_eq!(c.msgs_local, 1);
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].dst, 2);
    }

    #[test]
    fn absorb_remote_feeds_processing() {
        let g = weighted_diamond();
        let assign = vec![0u8, 0, 1, 1];
        let mut eng = DeviceEngine::new(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            EngineConfig::locking(),
            1,
            Some(&assign),
        );
        let mut c = eng.begin_step();
        let _ = eng.generate(&mut c); // nothing active on device 1
        eng.absorb_remote(&[WireMsg { dst: 2, value: 5.0 }], &mut c);
        eng.finalize_insertion_stats(&mut c);
        eng.process(&mut c);
        eng.update(&mut c);
        assert_eq!(eng.values[2], 5.0);
        assert_eq!(c.updated_vertices, 1);
    }

    #[test]
    fn pipelined_counters_sum_across_all_threads() {
        // Pin the documented aggregation contract of `StepReport::counters`:
        // the engine folds every thread's work into one whole-device
        // record. Every vertex starts active here, so the generation work
        // spreads over all threads and the messages over all mover classes.
        struct AllActive;
        impl VertexProgram for AllActive {
            type Msg = f32;
            type Reduce = Min;
            type Value = f32;
            const NAME: &'static str = "all-active";
            fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
                (0.0, true)
            }
            fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
                for e in ctx.graph.edge_range(v) {
                    ctx.send(ctx.graph.targets[e], 1.0);
                }
            }
            fn update(&self, _v: VertexId, _msg: f32, _value: &mut f32, _g: &Csr) -> bool {
                false
            }
        }
        let g = chain(64); // 63 messages from 63 distinct active sources
        let mut eng = DeviceEngine::new(
            &AllActive,
            &g,
            DeviceSpec::xeon_e5_2680(),
            EngineConfig::pipelined(),
            0,
            None,
        );
        eng.host_threads = 8;
        let mut c = eng.begin_step();
        eng.generate(&mut c);
        assert_eq!(c.msgs_local, 63);
        // Sum over mover classes: the tallies partition the local total.
        assert_eq!(c.mover_msgs.iter().sum::<u64>(), c.msgs_local);
        assert!(
            c.mover_msgs.iter().filter(|&&m| m > 0).count() >= 2,
            "chain targets spread over mover lanes: {:?}",
            c.mover_msgs
        );
    }

    /// PageRank, or personalized PageRank from `source`: an f32 `Sum`
    /// reducer, so its result depends on the order each column holds its
    /// messages in.
    struct Rank {
        source: Option<VertexId>,
    }
    impl VertexProgram for Rank {
        type Msg = f32;
        type Reduce = Sum;
        type Value = f32;
        const NAME: &'static str = "rank";
        const ALWAYS_ACTIVE: bool = true;
        fn init(&self, v: VertexId, _g: &Csr) -> (f32, bool) {
            (
                self.source.map_or(1.0, |s| f32::from(u8::from(v == s))),
                true,
            )
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            interleave(v);
            let deg = ctx.graph.out_degree(v);
            let share = *ctx.value(v) / deg.max(1) as f32;
            if share == 0.0 {
                return;
            }
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], share);
            }
        }
        fn update(&self, v: VertexId, sum: f32, value: &mut f32, _g: &Csr) -> bool {
            let teleport = if self.source.is_none_or(|s| s == v) {
                0.15
            } else {
                0.0
            };
            *value = teleport + 0.85 * sum;
            true
        }
        fn max_supersteps(&self) -> Option<usize> {
            Some(8)
        }
    }

    /// The `pokec_like(Small)` workload graph, with random edge weights.
    fn pokec_small(seed: u64) -> Csr {
        let g = rmat(&RmatConfig {
            scale: 14,
            edge_factor: 12,
            degree_cap: Some(144),
            seed,
            ..Default::default()
        });
        let mut el = g.to_edge_list();
        el.randomize_weights(0.1, 10.0, seed ^ 0xFEED);
        Csr::from_edge_list(&el)
    }

    /// A forced run: the values' bits, every superstep's full counters
    /// (chunk records included) and reduced messages, and the simulated
    /// seconds.
    struct Forced {
        values: Vec<u32>,
        steps: Vec<StepCounters>,
        messages: Vec<Messages>,
        sim: f64,
        /// Whether the dense-step sender table was live after each step.
        dense: Vec<bool>,
    }

    /// Each position's has-message flag and reduced message bits (0 when
    /// it has none).
    type Messages = Vec<(u8, u32)>;

    fn messages_of<P: VertexProgram<Msg = f32>>(eng: &DeviceEngine<'_, P>) -> Messages {
        eng.has_msg
            .iter()
            .zip(&eng.reduced)
            .map(|(&has, m)| (has, if has != 0 { m.to_bits() } else { 0 }))
            .collect()
    }

    /// The three modes that share the host path.
    fn host_path_modes() -> [EngineConfig; 3] {
        [
            EngineConfig::locking(),
            EngineConfig::pipelined(),
            EngineConfig::flat(),
        ]
    }

    /// Run `program` under `config` (any of [`host_path_modes`]) with its
    /// host thread count forced to `threads` — past the
    /// `available_parallelism` clamp, so the threads really interleave even
    /// on a one-core runner — and, when `buffered`, with the dense path and
    /// the mailbox off, so every superstep fills the buffer.
    fn lock_forced<P>(
        program: &P,
        g: &Csr,
        spec: DeviceSpec,
        config: &EngineConfig,
        threads: usize,
        buffered: bool,
    ) -> Forced
    where
        P: VertexProgram<Msg = f32, Value = f32>,
    {
        lock_forced_with(program, g, spec, config, threads, buffered, |_, _| {})
    }

    /// [`lock_forced`], calling `before(step, engine)` before each
    /// superstep.
    fn lock_forced_with<P>(
        program: &P,
        g: &Csr,
        spec: DeviceSpec,
        config: &EngineConfig,
        threads: usize,
        buffered: bool,
        before: fn(usize, &mut DeviceEngine<'_, P>),
    ) -> Forced
    where
        P: VertexProgram<Msg = f32, Value = f32>,
    {
        let mut eng = DeviceEngine::new(program, g, spec, config.clone(), 0, None);
        eng.host_threads = threads;
        if buffered {
            eng.dense = Dense::Off;
            eng.mail = Mail::Never;
        }
        let cost = CostModel::new(eng.spec.clone());
        let (mut steps, mut messages, mut sim, mut dense) =
            (Vec::new(), Vec::new(), 0.0, Vec::new());
        while steps.len() < program.max_supersteps().unwrap_or(usize::MAX) {
            before(steps.len(), &mut eng);
            let mut c = eng.begin_step();
            assert!(eng.generate(&mut c).is_empty());
            eng.finalize_insertion_stats(&mut c);
            eng.process(&mut c);
            messages.push(messages_of(&eng));
            eng.update(&mut c);
            sim += RankEngine::step_times(&eng, &cost, &c).total;
            dense.push(matches!(eng.dense, Dense::Ready(_)));
            let done = c.msgs_total() == 0;
            steps.push(c);
            if done {
                break;
            }
        }
        Forced {
            values: eng.values.iter().map(|v| v.to_bits()).collect(),
            steps,
            messages,
            sim,
            dense,
        }
    }

    #[test]
    fn lock_is_identical_on_any_host_thread_count() {
        let g = pokec_small(7);
        let check = |name: &str, run: &dyn Fn(usize) -> Forced| {
            let Forced { values, steps, .. } = run(1);
            assert!(
                steps.len() > 1 && steps[0].msgs_local > 0,
                "{name}: the run sends messages"
            );
            for threads in [2, 3, 8] {
                let Forced {
                    values: v,
                    steps: s,
                    ..
                } = run(threads);
                assert!(v == values, "{name}: values differ at {threads} threads");
                assert_eq!(
                    s.len(),
                    steps.len(),
                    "{name}: superstep count at {threads} threads"
                );
                for (i, (a, b)) in s.iter().zip(&steps).enumerate() {
                    // Named first for a readable failure, then every field
                    // (gen_chunks and proc_chunks included).
                    assert_eq!(
                        a.insert_profile, b.insert_profile,
                        "{name} step {i}, {threads} threads"
                    );
                    assert_eq!(
                        a.column_allocs, b.column_allocs,
                        "{name} step {i}, {threads} threads"
                    );
                    assert_eq!(
                        a.occupied_columns, b.occupied_columns,
                        "{name} step {i}, {threads} threads"
                    );
                    assert_eq!(
                        a.proc_rows, b.proc_rows,
                        "{name} step {i}, {threads} threads"
                    );
                    assert_eq!(
                        a.holes_filled, b.holes_filled,
                        "{name} step {i}, {threads} threads"
                    );
                    assert!(
                        a.gen_chunks == b.gen_chunks,
                        "{name} step {i}: gen_chunks at {threads} threads"
                    );
                    assert!(a == b, "{name} step {i}: counters at {threads} threads");
                }
            }
        };
        for spec in [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()] {
            for config in host_path_modes() {
                let mode = config.mode.name();
                let pr = Rank { source: None };
                let ppr = Rank { source: Some(3) };
                check(&format!("pagerank/{mode}"), &|t| {
                    lock_forced(&pr, &g, spec.clone(), &config, t, false)
                });
                check(&format!("ppr/{mode}"), &|t| {
                    lock_forced(&ppr, &g, spec.clone(), &config, t, false)
                });
                check(&format!("sssp/{mode}"), &|t| {
                    lock_forced(&Sssp, &g, spec.clone(), &config, t, false)
                });
            }
        }
    }

    #[test]
    fn lock_sum_reductions_equal_seq_bit_for_bit() {
        // Each column holds its messages in source order and the lane
        // reduce is a left fold over rows: the sequential mailbox's order.
        let g = pokec_small(8);
        for spec in [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()] {
            for program in [Rank { source: None }, Rank { source: Some(5) }] {
                let seq = crate::engine::seq::run_seq(
                    &program,
                    &g,
                    spec.clone(),
                    &EngineConfig::sequential(),
                );
                let seq: Vec<u32> = seq.values.iter().map(|v| v.to_bits()).collect();
                for config in host_path_modes() {
                    let lock = lock_forced(&program, &g, spec.clone(), &config, 3, false);
                    assert!(
                        lock.values == seq,
                        "{:?} on {}: {} differs from seq",
                        program.source,
                        spec.name,
                        config.mode.name()
                    );
                }
            }
        }
    }

    #[test]
    fn lock_simulated_seconds_do_not_depend_on_host_threads() {
        /// Simulated seconds of a whole run on `threads` forced host threads.
        fn sim<P: VertexProgram>(
            program: &P,
            g: &Csr,
            spec: &DeviceSpec,
            config: &EngineConfig,
            threads: usize,
        ) -> f64 {
            let mut eng = DeviceEngine::new(program, g, spec.clone(), config.clone(), 0, None);
            eng.host_threads = threads;
            crate::engine::run_device(eng).report.sim_total()
        }
        let g = pokec_small(9);
        let pr = Rank { source: None };
        for spec in [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()] {
            for config in host_path_modes() {
                let at = format!("{} on {}", config.mode.name(), spec.name);
                let sssp = sim(&Sssp, &g, &spec, &config, 1);
                let rank = sim(&pr, &g, &spec, &config, 1);
                assert!(sssp > 0.0 && rank > 0.0);
                let sssp8 = sim(&Sssp, &g, &spec, &config, 8);
                assert_eq!(sssp8.to_bits(), sssp.to_bits(), "sssp/{at}");
                let rank8 = sim(&pr, &g, &spec, &config, 8);
                assert_eq!(rank8.to_bits(), rank.to_bits(), "pagerank/{at}");
            }
        }
    }

    #[test]
    fn pipe_mover_msgs_count_each_destination_class_exactly() {
        /// Each step's `(mover_msgs, messages sent)` on one device
        /// (`assign` = `None`) or on rank 0, at `threads` forced threads.
        fn tallies<P: VertexProgram>(
            program: &P,
            g: &Csr,
            spec: &DeviceSpec,
            config: &EngineConfig,
            assign: Option<&[u8]>,
            threads: usize,
        ) -> Vec<(Vec<u64>, u64)> {
            let mut eng = DeviceEngine::new(program, g, spec.clone(), config.clone(), 0, assign);
            eng.host_threads = threads;
            let mut steps = Vec::new();
            while steps.len() < program.max_supersteps().unwrap_or(usize::MAX) {
                let mut c = eng.begin_step();
                eng.generate(&mut c);
                eng.finalize_insertion_stats(&mut c);
                eng.process(&mut c);
                eng.update(&mut c);
                let sent = c.msgs_total();
                steps.push((c.mover_msgs, sent));
                if sent == 0 {
                    break;
                }
            }
            steps
        }
        let g = pokec_small(7);
        let two_ranks: Vec<u8> = (0..g.num_vertices())
            .map(|v| u8::from(v % 3 == 1))
            .collect();
        let pr = Rank { source: None };
        for spec in [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()] {
            let pipe = EngineConfig::pipelined();
            let movers = pipe.pipeline_split(&spec).1;
            for assign in [None, Some(&two_ranks[..])] {
                let ranks = 1 + usize::from(assign.is_some());
                let at = format!("{ranks} ranks on {}", spec.name);
                // PageRank's first step sends along every out-edge of every
                // owned source, local and peer-bound alike.
                let mut first = vec![0u64; movers];
                for s in 0..g.num_vertices() as VertexId {
                    if assign.is_none_or(|a| a[s as usize] == 0) {
                        for e in g.edge_range(s) {
                            first[g.targets[e] as usize % movers] += 1;
                        }
                    }
                }
                let pr_one = tallies(&pr, &g, &spec, &pipe, assign, 1);
                let sssp_one = tallies(&Sssp, &g, &spec, &pipe, assign, 1);
                assert!(pr_one[0].0 == first, "pagerank, {at}: first step");
                assert!(sssp_one.len() > 2, "sssp, {at}: sparse steps");
                for (m, sent) in pr_one.iter().chain(&sssp_one) {
                    assert_eq!(m.len(), movers, "{at}");
                    assert_eq!(m.iter().sum::<u64>(), *sent, "{at}");
                }
                for threads in [2, 3, 8] {
                    let pr_t = tallies(&pr, &g, &spec, &pipe, assign, threads);
                    assert!(pr_t == pr_one, "pagerank, {at}: {threads} threads");
                    let sssp_t = tallies(&Sssp, &g, &spec, &pipe, assign, threads);
                    assert!(sssp_t == sssp_one, "sssp, {at}: {threads} threads");
                }
                for other in [EngineConfig::locking(), EngineConfig::flat()] {
                    let pr_o = tallies(&pr, &g, &spec, &other, assign, 2);
                    let sssp_o = tallies(&Sssp, &g, &spec, &other, assign, 2);
                    assert!(
                        pr_o.iter().chain(&sssp_o).all(|(m, _)| m.is_empty()),
                        "{}, {at}: no mover tally",
                        other.mode.name()
                    );
                }
            }
        }
    }

    /// Each group's column offset and, for each of its bound columns, the
    /// count and position.
    type Columns = Vec<(usize, Vec<(u32, Option<u32>)>)>;

    fn columns_of(csb: &Csb<f32>) -> Columns {
        (0..csb.layout.num_groups())
            .map(|g| {
                let used = csb.used_columns(g);
                let cols = (0..used)
                    .map(|c| (csb.column_count(g, c), csb.column_position(g, c)))
                    .collect();
                (used, cols)
            })
            .collect()
    }

    /// One superstep of `eng` observed between its phases: the remote
    /// batch, the column state after generation and after absorbing
    /// `incoming`, the step's counters and its reduced messages.
    type Observed = (
        Vec<(VertexId, u32)>,
        Columns,
        Columns,
        StepCounters,
        Messages,
    );

    fn observe_step(eng: &mut DeviceEngine<'_, Rank>, incoming: &[WireMsg<f32>]) -> Observed {
        let mut c = eng.begin_step();
        let remote = eng.generate(&mut c);
        let remote = remote.iter().map(|m| (m.dst, m.value.to_bits())).collect();
        let generated = columns_of(&eng.csb);
        eng.absorb_remote(incoming, &mut c);
        let absorbed = columns_of(&eng.csb);
        eng.finalize_insertion_stats(&mut c);
        eng.process(&mut c);
        let messages = messages_of(eng);
        eng.update(&mut c);
        (remote, generated, absorbed, c, messages)
    }

    #[test]
    fn dense_steps_leave_what_stage_and_drain_leaves() {
        let g = pokec_small(7);
        let pr = Rank { source: None };
        // Rank 0 of a 2-rank assignment; its peer's combined first batch
        // is what it absorbs.
        let assign: Vec<u8> = (0..g.num_vertices())
            .map(|v| u8::from(v % 3 == 1))
            .collect();
        for spec in [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()] {
            for base in host_path_modes() {
                for column_mode in [ColumnMode::Dynamic, ColumnMode::OneToOne] {
                    for k in [1, 4] {
                        let config = base.clone().with_column_mode(column_mode).with_k(k);
                        let name =
                            format!("{}/{column_mode:?}/k{k}/{}", config.mode.name(), spec.name);
                        let rank = |dev: u8, threads: usize, buffered: bool| {
                            let mut eng = DeviceEngine::new(
                                &pr,
                                &g,
                                spec.clone(),
                                config.clone(),
                                dev,
                                Some(&assign),
                            );
                            eng.host_threads = threads;
                            if buffered {
                                eng.dense = Dense::Off;
                                eng.mail = Mail::Never;
                            }
                            eng
                        };
                        let mut peer = rank(1, 1, true);
                        let mut c = peer.begin_step();
                        let incoming = combine_messages::<f32, Sum>(peer.generate(&mut c)).0;
                        assert!(!incoming.is_empty(), "{name}: the peer sends to rank 0");
                        let mut buffered_rank = rank(0, 2, true);
                        let buffered_steps: Vec<Observed> = (0..2)
                            .map(|_| observe_step(&mut buffered_rank, &incoming))
                            .collect();
                        assert!(
                            !buffered_steps[0].0.is_empty(),
                            "{name}: rank 0 sends remote"
                        );
                        let buffered = lock_forced(&pr, &g, spec.clone(), &config, 2, true);
                        for threads in [1, 2, 3, 8] {
                            let at = format!("{name} at {threads} threads");
                            let dense = lock_forced(&pr, &g, spec.clone(), &config, threads, false);
                            assert!(dense.dense.iter().all(|&d| d), "{at}: every step gathers");
                            assert!(dense.values == buffered.values, "{at}: values differ");
                            assert_eq!(dense.steps.len(), buffered.steps.len(), "{at}");
                            for (i, (a, b)) in dense.steps.iter().zip(&buffered.steps).enumerate() {
                                assert!(a == b, "{at}: counters of step {i}");
                                assert!(
                                    dense.messages[i] == buffered.messages[i],
                                    "{at}: reduced messages of step {i}"
                                );
                            }
                            assert_eq!(dense.sim.to_bits(), buffered.sim.to_bits(), "{at}: sim");

                            let mut one =
                                DeviceEngine::new(&pr, &g, spec.clone(), config.clone(), 0, None);
                            one.host_threads = threads;
                            let mut buffered_one =
                                DeviceEngine::new(&pr, &g, spec.clone(), config.clone(), 0, None);
                            buffered_one.dense = Dense::Off;
                            buffered_one.mail = Mail::Never;
                            let (dense_step, buffered_step) = (
                                observe_step(&mut one, &[]),
                                observe_step(&mut buffered_one, &[]),
                            );
                            assert!(dense_step == buffered_step, "{at}: single-device step");

                            // A rank with peers builds no table: its dense
                            // steps fold on arrival.
                            let mut peered = rank(0, threads, false);
                            for (i, buffered_step) in buffered_steps.iter().enumerate() {
                                let (remote, _, _, c, messages) =
                                    observe_step(&mut peered, &incoming);
                                assert!(
                                    matches!(peered.dense, Dense::Off) && peered.mailed,
                                    "{at}: rank 0 folds step {i} on arrival"
                                );
                                assert!(remote == buffered_step.0, "{at}: rank 0 remote, step {i}");
                                assert!(c == buffered_step.3, "{at}: rank 0 counters, step {i}");
                                assert!(
                                    messages == buffered_step.4,
                                    "{at}: rank 0 reduced messages, step {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_sole_owner_stops_gathering_at_its_first_step_that_does_not() {
        let g = pokec_small(7);
        let pr = Rank { source: None };
        // Step 2 does not gather: the message audit is armed for it, or
        // vertex 0 sits it out.
        let audited: fn(usize, &mut DeviceEngine<'_, Rank>) = |step, eng| match step {
            2 => eng.set_integrity_audit(true),
            3 => eng.set_integrity_audit(false),
            _ => {}
        };
        let idle: fn(usize, &mut DeviceEngine<'_, Rank>) = |step, eng| {
            if step == 2 {
                eng.active.set(0, false);
            }
        };
        for spec in [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()] {
            for config in host_path_modes() {
                for (how, before) in [("audited", audited), ("idle vertex", idle)] {
                    let name = format!("{how}/{}/{}", config.mode.name(), spec.name);
                    let buffered =
                        lock_forced_with(&pr, &g, spec.clone(), &config, 2, true, before);
                    for threads in [1, 2, 3, 8] {
                        let at = format!("{name} at {threads} threads");
                        let run = lock_forced_with(
                            &pr,
                            &g,
                            spec.clone(),
                            &config,
                            threads,
                            false,
                            before,
                        );
                        let gathered: Vec<bool> = (0..run.dense.len()).map(|i| i < 2).collect();
                        assert_eq!(run.dense, gathered, "{at}: gathers until step 2 only");
                        assert!(run.values == buffered.values, "{at}: values differ");
                        assert_eq!(run.steps.len(), buffered.steps.len(), "{at}");
                        for (i, (a, b)) in run.steps.iter().zip(&buffered.steps).enumerate() {
                            assert_eq!(a.reset_cells, b.reset_cells, "{at}: step {i}");
                            assert!(a == b, "{at}: counters of step {i}");
                            assert!(
                                run.messages[i] == buffered.messages[i],
                                "{at}: reduced messages of step {i}"
                            );
                        }
                        assert_eq!(run.sim.to_bits(), buffered.sim.to_bits(), "{at}: sim");
                    }
                }
            }
        }
    }

    /// Run `program` on both ranks of a 2-rank `assign` through the rank
    /// loop over a link mesh, each rank with `config`, 2 host threads and
    /// the mailbox forced to `mail`. Returns the merged values' encoding
    /// and, per rank, whether each superstep folded on arrival.
    fn fabric_forced<P>(
        program: &P,
        g: &Csr,
        assign: &[u8],
        config: &EngineConfig,
        mail: Mail,
    ) -> (Vec<u8>, Vec<Vec<bool>>)
    where
        P: VertexProgram,
        P::Value: phigraph_graph::state::PodState,
    {
        use crate::engine::hetero::{merge_by_owner, rank_loop, ExitKind, Site, Verdict};
        use phigraph_graph::state::PodState;
        let sides =
            phigraph_comm::mesh::<WireMsg<P::Msg>>(phigraph_comm::PcieLink::ideal(), &[0, 1]);
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = sides
                .into_iter()
                .enumerate()
                .map(|(r, eps)| {
                    s.spawn(move || {
                        let spec = DeviceSpec::xeon_e5_2680();
                        let mut eng = DeviceEngine::new(
                            program,
                            g,
                            spec,
                            config.clone(),
                            r as u8,
                            Some(assign),
                        );
                        eng.host_threads = 2;
                        eng.mail = mail;
                        let mut mailed = Vec::new();
                        let mut note = |site, e: &mut DeviceEngine<'_, P>, _step, _c: &mut _| {
                            if site == Site::Generated {
                                mailed.push(e.mailed);
                            }
                            Verdict::Go
                        };
                        let cap = program.max_supersteps().unwrap_or(1000);
                        let run = rank_loop(&mut eng, eps, 0..cap, None, None, Some(&mut note));
                        assert!(run.exit == ExitKind::Done, "rank {r} left early");
                        ((r, eng.values), mailed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (parts, mailed): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
        let mut bytes = Vec::new();
        for v in merge_by_owner(assign, parts) {
            v.write_le(&mut bytes);
        }
        (bytes, mailed)
    }

    #[test]
    fn a_rank_with_peers_folds_while_a_message_flip_is_pending() {
        use phigraph_recover::{FaultPlan, IntegrityMode};
        fn check<P>(name: &str, program: &P, g: &Csr, assign: &[u8])
        where
            P: VertexProgram,
            P::Value: phigraph_graph::state::PodState,
        {
            // The flip strikes rank 1's outgoing frame at step 1.
            let plan = FaultPlan::new().with(1, FaultKind::BitFlipMessage, 1);
            for integrity in [IntegrityMode::Off, IntegrityMode::Frames] {
                let at = format!("{name} under {}", integrity.name());
                let [(folded, mailed), (buffered, _)] = [Mail::Always, Mail::Never].map(|mail| {
                    let injector = plan.injector();
                    let config = EngineConfig::locking()
                        .with_integrity(integrity)
                        .with_fault_plan(injector.clone());
                    let run = fabric_forced(program, g, assign, &config, mail);
                    assert_eq!(injector.fired_count(), 1, "{at}: the flip fired");
                    run
                });
                for (rank, steps) in mailed.iter().enumerate() {
                    assert!(
                        steps.len() > 2,
                        "{at}: rank {rank} ran {} steps",
                        steps.len()
                    );
                    assert!(
                        steps.iter().all(|&m| m),
                        "{at}: rank {rank} folds every step"
                    );
                }
                assert!(
                    folded == buffered,
                    "{at}: values differ from the buffer run"
                );
            }
        }
        let g = pokec_small(7);
        let assign: Vec<u8> = (0..g.num_vertices())
            .map(|v| u8::from(v % 3 == 1))
            .collect();
        check("pagerank", &Rank { source: None }, &g, &assign);
        check("sssp", &Sssp, &g, &assign);
    }

    /// Breadth-first levels from vertex 0: `i32` `Min` on the scalar
    /// processing path, as the paper runs BFS.
    struct Bfs;
    impl VertexProgram for Bfs {
        type Msg = i32;
        type Reduce = Min;
        type Value = i32;
        const NAME: &'static str = "bfs";
        const SIMD_REDUCIBLE: bool = false;
        fn init(&self, v: VertexId, _g: &Csr) -> (i32, bool) {
            if v == 0 {
                (0, true)
            } else {
                (i32::MAX, false)
            }
        }
        fn generate<S: MsgSink<i32>>(&self, v: VertexId, ctx: &mut GenContext<'_, i32, S>) {
            interleave(v);
            let next = *ctx.value(v) + 1;
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], next);
            }
        }
        fn update(&self, _v: VertexId, level: i32, value: &mut i32, _g: &Csr) -> bool {
            let first = *value == i32::MAX;
            if first {
                *value = level;
            }
            first
        }
    }

    /// Weakly connected components: each label goes along the out-edges,
    /// then along the in-edges (out of CSR order), `i32` `Min`.
    struct Wcc {
        reverse: Csr,
    }
    impl VertexProgram for Wcc {
        type Msg = i32;
        type Reduce = Min;
        type Value = i32;
        const NAME: &'static str = "wcc";
        fn init(&self, v: VertexId, _g: &Csr) -> (i32, bool) {
            (v as i32, true)
        }
        fn generate<S: MsgSink<i32>>(&self, v: VertexId, ctx: &mut GenContext<'_, i32, S>) {
            interleave(v);
            let label = *ctx.value(v);
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], label);
            }
            for &u in self.reverse.neighbors(v) {
                ctx.send(u, label);
            }
        }
        fn update(&self, _v: VertexId, msg: i32, value: &mut i32, _g: &Csr) -> bool {
            let lower = msg < *value;
            if lower {
                *value = msg;
            }
            lower
        }
        fn capacity_hint(&self, v: VertexId, g: &Csr) -> Option<u32> {
            Some((self.reverse.out_degree(v) + g.out_degree(v)) as u32)
        }
    }

    /// k-core peeling: a removed vertex sends 1 along its out- and
    /// in-edges, `i32` `Sum`. A live vertex's value is its live degree; a
    /// removed one's is −1.
    struct KCore {
        k: i32,
        reverse: Csr,
    }
    impl KCore {
        fn degree(&self, v: VertexId, g: &Csr) -> i32 {
            (g.out_degree(v) + self.reverse.out_degree(v)) as i32
        }
    }
    impl VertexProgram for KCore {
        type Msg = i32;
        type Reduce = Sum;
        type Value = i32;
        const NAME: &'static str = "kcore";
        fn init(&self, v: VertexId, g: &Csr) -> (i32, bool) {
            let deg = self.degree(v, g);
            if deg < self.k {
                (-1, true)
            } else {
                (deg, false)
            }
        }
        fn generate<S: MsgSink<i32>>(&self, v: VertexId, ctx: &mut GenContext<'_, i32, S>) {
            interleave(v);
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], 1);
            }
            for &u in self.reverse.neighbors(v) {
                ctx.send(u, 1);
            }
        }
        fn update(&self, _v: VertexId, removed: i32, value: &mut i32, _g: &Csr) -> bool {
            if *value < 0 {
                return false;
            }
            *value -= removed;
            let gone = *value < self.k;
            if gone {
                *value = -1;
            }
            gone
        }
        fn capacity_hint(&self, v: VertexId, g: &Csr) -> Option<u32> {
            Some(self.degree(v, g) as u32)
        }
    }

    /// The little-endian bits of a message.
    fn msg_bits<T: MsgValue>(m: T) -> u128 {
        let mut bytes = [0u8; 16];
        m.write_le(&mut bytes[..T::SIZE]);
        u128::from_le_bytes(bytes)
    }

    /// One rank's forced run: its supersteps, its simulated seconds' bits
    /// and its values' encoding.
    #[derive(Default, PartialEq)]
    struct Trail {
        steps: Vec<TrailStep>,
        sim: u64,
        values: Vec<u8>,
    }

    /// One superstep of a [`Trail`].
    #[derive(PartialEq)]
    struct TrailStep {
        /// Its full counters.
        counters: StepCounters,
        /// Each position's `(has, reduced message bits)`.
        messages: Vec<(u8, u128)>,
        /// Whether its messages went to the mailbox.
        mailed: bool,
    }

    /// Run `program` on one device (`assign` = `None`) or on both ranks of
    /// a 2-rank `assign`, each step's combined peer-bound messages absorbed
    /// by the other rank, at `threads` forced host threads with the dense
    /// path off and the mailbox forced to `mail`.
    fn mail_forced<P>(
        program: &P,
        g: &Csr,
        config: &EngineConfig,
        assign: Option<&[u8]>,
        threads: usize,
        mail: Mail,
    ) -> Vec<Trail>
    where
        P: VertexProgram,
        P::Value: phigraph_graph::state::PodState,
    {
        use phigraph_graph::state::PodState;
        let spec = DeviceSpec::xeon_e5_2680();
        let cost = CostModel::new(spec.clone());
        let ranks = 1 + usize::from(assign.is_some());
        let mut engines: Vec<_> = (0..ranks as u8)
            .map(|dev| {
                let mut eng =
                    DeviceEngine::new(program, g, spec.clone(), config.clone(), dev, assign);
                eng.host_threads = threads;
                eng.dense = Dense::Off;
                eng.mail = mail;
                eng
            })
            .collect();
        let mut trails: Vec<Trail> = (0..ranks).map(|_| Trail::default()).collect();
        let mut sim = vec![0.0f64; ranks];
        for _ in 0..program.max_supersteps().unwrap_or(usize::MAX) {
            let (mut steps, mut outgoing) = (Vec::new(), Vec::new());
            for eng in &mut engines {
                let mut c = eng.begin_step();
                let remote = eng.generate(&mut c);
                outgoing.push(combine_messages::<P::Msg, P::Reduce>(remote).0);
                steps.push(c);
            }
            let sent: u64 = steps.iter().map(StepCounters::msgs_total).sum();
            for (r, (eng, mut c)) in engines.iter_mut().zip(steps).enumerate() {
                eng.absorb_remote(&outgoing[(r + 1) % ranks], &mut c);
                eng.finalize_insertion_stats(&mut c);
                eng.process(&mut c);
                let messages = eng
                    .has_msg
                    .iter()
                    .zip(&eng.reduced)
                    .map(|(&has, &m)| (has, if has != 0 { msg_bits(m) } else { 0 }))
                    .collect();
                let mailed = eng.mailed;
                eng.update(&mut c);
                sim[r] += RankEngine::step_times(&*eng, &cost, &c).total;
                trails[r].steps.push(TrailStep {
                    counters: c,
                    messages,
                    mailed,
                });
            }
            if sent == 0 {
                break;
            }
        }
        for ((trail, eng), sim) in trails.iter_mut().zip(&engines).zip(sim) {
            trail.sim = sim.to_bits();
            for &v in &eng.owned {
                eng.values[v as usize].write_le(&mut trail.values);
            }
        }
        trails
    }

    #[test]
    fn mailbox_steps_leave_what_stage_and_drain_leaves() {
        /// The forced mailbox run of `program` equals the forced buffer run
        /// in everything [`Trail`] holds, on one device and on both ranks
        /// of `assign`, at every host thread count.
        fn check<P>(name: &str, program: &P, g: &Csr, assign: &[u8])
        where
            P: VertexProgram,
            P::Value: phigraph_graph::state::PodState,
        {
            for base in host_path_modes() {
                for column_mode in [ColumnMode::Dynamic, ColumnMode::OneToOne] {
                    let config = base.clone().with_column_mode(column_mode);
                    let at = format!("{name}/{}/{column_mode:?}", config.mode.name());
                    for placement in [None, Some(assign)] {
                        let ranks = 1 + usize::from(placement.is_some());
                        let mailed = mail_forced(program, g, &config, placement, 1, Mail::Always);
                        let steps = &mailed[0].steps;
                        assert!(steps.len() > 2, "{at}: {} steps", steps.len());
                        assert!(steps.iter().all(|s| s.mailed), "{at}: every step mails");
                        if ranks == 2 {
                            assert!(
                                steps.iter().any(|s| s.counters.msgs_remote > 0),
                                "{at}: rank 0 sends to its peer"
                            );
                        }
                        let wide = mail_forced(program, g, &config, placement, 8, Mail::Always);
                        assert!(wide == mailed, "{at}: the mailbox depends on host threads");
                        for threads in [1, 2, 3, 8] {
                            let at = format!("{at} on {ranks} ranks at {threads} threads");
                            let buffered =
                                mail_forced(program, g, &config, placement, threads, Mail::Never);
                            for (rank, (m, s)) in mailed.iter().zip(&buffered).enumerate() {
                                let at = format!("{at}, rank {rank}");
                                assert_eq!(m.steps.len(), s.steps.len(), "{at}: steps");
                                for (i, (a, b)) in m.steps.iter().zip(&s.steps).enumerate() {
                                    assert!(!b.mailed, "{at}: step {i} fills the buffer");
                                    // Named first for a readable failure,
                                    // then every field.
                                    assert_eq!(
                                        a.counters.gen_chunks, b.counters.gen_chunks,
                                        "{at}: step {i}"
                                    );
                                    assert_eq!(
                                        a.counters.proc_chunks, b.counters.proc_chunks,
                                        "{at}: step {i}"
                                    );
                                    assert_eq!(
                                        a.counters.mover_msgs, b.counters.mover_msgs,
                                        "{at}: step {i}"
                                    );
                                    assert_eq!(
                                        a.counters.reset_cells, b.counters.reset_cells,
                                        "{at}: step {i}"
                                    );
                                    assert!(a.counters == b.counters, "{at}: counters of step {i}");
                                    assert!(
                                        a.messages == b.messages,
                                        "{at}: reduced messages of step {i}"
                                    );
                                }
                                assert_eq!(m.sim, s.sim, "{at}: simulated seconds");
                                assert!(m.values == s.values, "{at}: values");
                            }
                        }
                    }
                }
            }
        }
        let g = pokec_small(7);
        let assign: Vec<u8> = (0..g.num_vertices())
            .map(|v| u8::from(v % 3 == 1))
            .collect();
        check("sssp", &Sssp, &g, &assign);
        check("bfs", &Bfs, &g, &assign);
        check(
            "wcc",
            &Wcc {
                reverse: g.transpose(),
            },
            &g,
            &assign,
        );
        check("ppr", &Rank { source: Some(3) }, &g, &assign);
        let kcore = KCore {
            k: 24,
            reverse: g.transpose(),
        };
        check("kcore", &kcore, &g, &assign);
    }

    #[test]
    fn a_short_negative_zero_column_takes_the_bubble_on_either_path() {
        /// Vertex 0 sends −0.0 to 1 and 1.0 to 2; vertex 3 sends 2.0 to 2.
        struct ShortZero;
        impl VertexProgram for ShortZero {
            type Msg = f32;
            type Reduce = Sum;
            type Value = f32;
            const NAME: &'static str = "short-zero";
            fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
                (0.0, true)
            }
            fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
                for e in ctx.graph.edge_range(v) {
                    let dst = ctx.graph.targets[e];
                    ctx.send(dst, if dst == 1 { -0.0 } else { 1.0 + v as f32 });
                }
            }
            fn update(&self, _v: VertexId, _msg: f32, _value: &mut f32, _g: &Csr) -> bool {
                false
            }
        }
        let mut el = phigraph_graph::EdgeList::new(4);
        for (s, d) in [(0, 1), (0, 2), (3, 2)] {
            el.push(s, d);
        }
        let g = Csr::from_edge_list(&el);
        for base in host_path_modes() {
            for column_mode in [ColumnMode::Dynamic, ColumnMode::OneToOne] {
                let config = base.clone().with_column_mode(column_mode);
                let at = format!("{}/{column_mode:?}", config.mode.name());
                let [mailed, buffered] = [Mail::Always, Mail::Never].map(|mail| {
                    mail_forced(&ShortZero, &g, &config, None, 2, mail)
                        .remove(0)
                        .steps
                        .remove(0)
                });
                assert!(mailed.mailed && !buffered.mailed, "{at}: the forced paths");
                assert!(mailed.counters == buffered.counters, "{at}: counters");
                assert!(
                    mailed.messages == buffered.messages,
                    "{at}: reduced messages"
                );
                // Vertex 1's column holds one message, vertex 2's two, in one
                // vector array: the bubble row folds +0.0 into −0.0.
                assert_eq!(
                    mailed.counters.holes_filled,
                    u64::from(config.vectorized),
                    "{at}"
                );
                assert!(
                    mailed.messages.contains(&(1, 0)),
                    "{at}: +0.0 reaches vertex 1"
                );
            }
        }
    }

    /// How a [`Deviant`] vertex sends, every vertex active in every step.
    #[derive(Clone, Copy)]
    enum Deviation {
        /// Its out-edges in reverse CSR order.
        Reversed,
        /// Its out-edges in order, then one message to itself (not a
        /// neighbour: the generator drops self-loops), which its capacity
        /// declares.
        Extra,
        /// Its out-edges in order, each with a value of its own:
        /// `share + weight(e)`.
        PerEdge,
        /// Its out-edges in order, −0.0 along the even ones and +0.0 along
        /// the odd ones: one value under `==`, two in bits.
        SignedZeros,
    }

    struct Deviant {
        how: Deviation,
        indeg: Vec<u32>,
    }
    impl VertexProgram for Deviant {
        type Msg = f32;
        type Reduce = Sum;
        type Value = f32;
        const NAME: &'static str = "deviant";
        const ALWAYS_ACTIVE: bool = true;
        fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
            (1.0, true)
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            interleave(v);
            let share = *ctx.value(v) / (ctx.graph.out_degree(v) + 1) as f32;
            let edges = ctx.graph.edge_range(v);
            match self.how {
                Deviation::Reversed => {
                    for e in edges.rev() {
                        ctx.send(ctx.graph.targets[e], share);
                    }
                }
                Deviation::Extra => {
                    for e in edges {
                        ctx.send(ctx.graph.targets[e], share);
                    }
                    ctx.send(v, share);
                }
                Deviation::PerEdge => {
                    for e in edges {
                        ctx.send(ctx.graph.targets[e], share + ctx.graph.weight(e));
                    }
                }
                Deviation::SignedZeros => {
                    for e in edges.clone() {
                        let zero = if (e - edges.start).is_multiple_of(2) {
                            -0.0
                        } else {
                            0.0
                        };
                        ctx.send(ctx.graph.targets[e], zero);
                    }
                }
            }
        }
        fn update(&self, _v: VertexId, sum: f32, value: &mut f32, _g: &Csr) -> bool {
            *value = 0.15 + 0.85 * sum;
            true
        }
        fn max_supersteps(&self) -> Option<usize> {
            Some(4)
        }
        fn capacity_hint(&self, v: VertexId, _g: &Csr) -> Option<u32> {
            matches!(self.how, Deviation::Extra).then(|| self.indeg[v as usize] + 1)
        }
    }

    /// PageRank whose every fifth vertex shares NaN, the next −0.0 and the
    /// next +0.0: still one value per vertex, which only a bit comparison
    /// sees.
    struct OddShares;
    impl VertexProgram for OddShares {
        type Msg = f32;
        type Reduce = Sum;
        type Value = f32;
        const NAME: &'static str = "odd-shares";
        const ALWAYS_ACTIVE: bool = true;
        fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
            (1.0, true)
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            interleave(v);
            let share = match v % 5 {
                0 => f32::NAN,
                1 => -0.0,
                2 => 0.0,
                _ => *ctx.value(v) / ctx.graph.out_degree(v).max(1) as f32,
            };
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], share);
            }
        }
        fn update(&self, _v: VertexId, sum: f32, value: &mut f32, _g: &Csr) -> bool {
            *value = 0.15 + 0.85 * sum;
            true
        }
        fn max_supersteps(&self) -> Option<usize> {
            Some(4)
        }
    }

    #[test]
    fn a_vertex_off_its_out_edge_order_falls_back_to_stage_and_drain() {
        /// `program` equals `seq` and the forced buffer run bit for bit; its
        /// dense steps gather throughout when `gathers`, and none does
        /// otherwise.
        fn check<P: VertexProgram<Msg = f32, Value = f32>>(
            name: &str,
            program: &P,
            g: &Csr,
            gathers: bool,
        ) {
            let spec = DeviceSpec::xeon_e5_2680();
            let seq =
                crate::engine::seq::run_seq(program, g, spec.clone(), &EngineConfig::sequential());
            let seq: Vec<u32> = seq.values.iter().map(|v| v.to_bits()).collect();
            for config in host_path_modes() {
                let buffered = lock_forced(program, g, spec.clone(), &config, 2, true);
                for threads in [1, 3] {
                    let at = format!("{name}/{} at {threads} threads", config.mode.name());
                    let run = lock_forced(program, g, spec.clone(), &config, threads, false);
                    assert!(run.values == seq, "{at}: differs from seq");
                    assert!(
                        run.values == buffered.values,
                        "{at}: differs from the buffer run"
                    );
                    // An aborted attempt left nothing in the first step's
                    // counters.
                    assert_eq!(run.steps.len(), buffered.steps.len(), "{at}");
                    for (i, (a, b)) in run.steps.iter().zip(&buffered.steps).enumerate() {
                        assert!(a == b, "{at}: counters of step {i}");
                        assert!(
                            run.messages[i] == buffered.messages[i],
                            "{at}: reduced messages of step {i}"
                        );
                    }
                    if gathers {
                        assert!(run.dense.iter().all(|&d| d), "{at}: every step gathers");
                    } else {
                        assert!(run.dense.iter().all(|&d| !d), "{at}: the table is gone");
                    }
                }
            }
        }
        let g = pokec_small(7);
        let indeg = g.in_degrees();
        check("zero shares", &Rank { source: Some(3) }, &g, false);
        for (name, how) in [
            ("reversed", Deviation::Reversed),
            ("extra", Deviation::Extra),
            ("per-edge values", Deviation::PerEdge),
            ("signed zeros", Deviation::SignedZeros),
        ] {
            let indeg = indeg.clone();
            check(name, &Deviant { how, indeg }, &g, false);
        }
        check("NaN and signed-zero shares", &OddShares, &g, true);
    }

    #[test]
    fn a_planned_message_flip_lands_where_stage_and_drain_puts_it() {
        use crate::engine::hetero::{rank_loop, Site};
        use crate::engine::integrity::Rungs;
        use phigraph_recover::FaultPlan;
        let g = pokec_small(7);
        let pr = Rank { source: None };
        // The values' bits, the faults injected and whether dense steps
        // gather at the end of a lone-rank run with the integrity sites
        // armed.
        let run = |buffered: bool, plan: Option<&FaultPlan>| {
            let config = match plan {
                Some(p) => EngineConfig::locking().with_fault_plan(p.injector()),
                None => EngineConfig::locking(),
            };
            let mut eng = DeviceEngine::new(&pr, &g, DeviceSpec::xeon_e5_2680(), config, 0, None);
            eng.host_threads = 2;
            if buffered {
                eng.dense = Dense::Off;
                eng.mail = Mail::Never;
            }
            let mut rungs = Rungs::arm(&mut eng);
            let mut audit =
                |site: Site, e: &mut DeviceEngine<'_, Rank>, step, c: &mut StepCounters| {
                    rungs.at(site, e, step, c)
                };
            let out = rank_loop(&mut eng, Vec::new(), 0..8, None, None, Some(&mut audit));
            let faults: u64 = out.steps.iter().map(|s| s.counters.faults_injected).sum();
            let values: Vec<u32> = eng.values.iter().map(|v| v.to_bits()).collect();
            (values, faults, matches!(eng.dense, Dense::Ready(_)))
        };
        let plan = FaultPlan::single(2, FaultKind::BitFlipMessage);
        let (clean, ..) = run(false, None);
        let (buffered, buffered_faults, _) = run(true, Some(&plan));
        let (gathered, faults, gathers) = run(false, Some(&plan));
        assert_eq!(buffered_faults, 1, "the flip fired on a buffered message");
        assert!(buffered != clean, "the flip changed the values");
        assert!(gathered == buffered, "the flip landed elsewhere");
        assert_eq!(faults, buffered_faults);
        assert!(gathers, "dense steps gather again once the flip has fired");
    }

    /// Every vertex sends one message to vertex 0, whose declared capacity
    /// is `cap`.
    struct Flood {
        cap: u32,
    }
    impl VertexProgram for Flood {
        type Msg = f32;
        type Reduce = Sum;
        type Value = f32;
        const NAME: &'static str = "flood";
        fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
            (0.0, true)
        }
        fn generate<S: MsgSink<f32>>(&self, _v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            ctx.send(0, 1.0);
        }
        fn update(&self, _v: VertexId, _msg: f32, _value: &mut f32, _g: &Csr) -> bool {
            false
        }
        fn capacity_hint(&self, _v: VertexId, _g: &Csr) -> Option<u32> {
            Some(self.cap)
        }
    }

    /// Flood vertex 0 on the path the engine picks: the mailbox.
    fn flood(cap: u32) {
        flood_on(cap, Mail::Always);
    }

    fn flood_on(cap: u32, mail: Mail) {
        let g = chain(40);
        let program = Flood { cap };
        let mut eng = DeviceEngine::new(
            &program,
            &g,
            DeviceSpec::xeon_e5_2680(),
            EngineConfig::locking(),
            0,
            None,
        );
        eng.host_threads = 2;
        eng.mail = mail;
        let mut c = eng.begin_step();
        eng.generate(&mut c);
    }

    #[test]
    #[should_panic(expected = "vertex 0 received more than its capacity 1 messages")]
    fn over_capacity_column_panics_from_the_drain() {
        flood(1);
    }

    #[test]
    #[should_panic(expected = "vertex 0 received more than its capacity 0 messages")]
    fn over_capacity_bin_panics_from_the_drain() {
        // A zero-row column rejects the first message.
        flood(0);
    }

    #[test]
    #[should_panic(expected = "vertex 0 received more than its capacity 1 messages")]
    fn over_capacity_column_panics_from_the_drain_on_stage_and_drain() {
        flood_on(1, Mail::Never);
    }

    #[test]
    #[should_panic(expected = "vertex 0 received more than its capacity 0 messages")]
    fn over_capacity_bin_panics_from_the_drain_on_stage_and_drain() {
        flood_on(0, Mail::Never);
    }

    #[test]
    fn locking_and_pipelined_agree() {
        let g = chain(30);
        let run = |config: EngineConfig| {
            let mut eng = DeviceEngine::new(&Sssp, &g, DeviceSpec::xeon_e5_2680(), config, 0, None);
            drive(&mut eng);
            eng.values.clone()
        };
        assert_eq!(
            run(EngineConfig::locking()),
            run(EngineConfig::pipelined().with_host_threads(5))
        );
    }

    #[test]
    fn flat_sssp_diamond() {
        let g = weighted_diamond();
        let out =
            crate::engine::run_single(&Sssp, &g, DeviceSpec::xeon_e5_2680(), &EngineConfig::flat());
        assert_eq!(out.values, vec![0.0, 1.0, 5.0, 2.0]);
        assert_eq!(out.report.mode, "omp");
        assert!(out.report.sim_total() > 0.0);
    }

    #[test]
    fn flat_contention_profile_sees_hot_vertex() {
        // Every vertex of an inward star messages vertex 0 — but only the
        // center of an *outward* wave reaches it; use all-active init via a
        // one-step program instead: run SSSP from 0 on the inward star has
        // no out-edges from 0, so craft activity with the star reversed.
        struct AllPing;
        impl VertexProgram for AllPing {
            type Msg = f32;
            type Reduce = Min;
            type Value = f32;
            const NAME: &'static str = "ping";
            fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
                (0.0, true)
            }
            fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
                for e in ctx.graph.edge_range(v) {
                    ctx.send(ctx.graph.targets[e], 1.0);
                }
            }
            fn update(&self, _v: VertexId, _m: f32, _val: &mut f32, _g: &Csr) -> bool {
                false
            }
            fn max_supersteps(&self) -> Option<usize> {
                Some(1)
            }
        }
        let g = phigraph_graph::generators::small::inward_star(64);
        let out = crate::engine::run_single(
            &AllPing,
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::flat(),
        );
        let c = &out.report.steps[0].counters;
        assert_eq!(c.insert_profile.total, 63);
        assert_eq!(c.insert_profile.max_column, 63);
        assert!((c.insert_profile.collision_probability() - 1.0).abs() < 1e-9);
    }
}
