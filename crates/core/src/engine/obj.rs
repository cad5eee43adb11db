//! The object-message execution path.
//!
//! "SIMD processing of messages only applies to messages with basic data
//! types … and are limited to associative and commutative reductions."
//! Semi-Clustering violates both (its messages are cluster lists, its
//! processing is a sort), so the paper routes it through scalar message
//! processing. This module is that path: per-vertex mailboxes instead of
//! the CSB and a fused scalar process+update step, under the same rank
//! loop as the POD path. [`run_obj_single`] is its `N = 1` case and
//! [`run_obj_ranks`] its N-rank fabric; every execution strategy runs on
//! both.

use crate::active::ActiveSet;
use crate::engine::config::{EngineConfig, ExecMode};
use crate::engine::device::{edge_balanced_ranges, in_chunk_order};
use crate::engine::hetero::{run_fabric, Exchanged, RankEngine};
use crate::engine::run_device;
use crate::metrics::RunOutput;
use phigraph_comm::{Endpoint, PcieLink, PeerInfo, WireMsg};
use phigraph_device::cost::PhaseTimes;
use phigraph_device::counters::{GenChunk, InsertProfile, ProcChunk};
use phigraph_device::pool::run_parallel_collect;
use phigraph_device::{ChunkScheduler, CostModel, DeviceSpec, StepCounters};
use phigraph_graph::{Csr, VertexId};
use phigraph_partition::DevicePartition;
use phigraph_recover::IntegrityStats;
use std::time::Duration;

/// A vertex program whose messages are arbitrary (cloneable) objects.
pub trait ObjVertexProgram: Send + Sync + 'static {
    /// Message type (e.g. a list of semi-clusters).
    type Msg: Clone + Send + Sync + 'static;
    /// Per-vertex state.
    type Value: Clone + Send + Sync + Default + 'static;

    /// Application name.
    const NAME: &'static str;

    /// Initial value and active flag.
    fn init(&self, v: VertexId, g: &Csr) -> (Self::Value, bool);

    /// Generate messages for active vertex `v` by calling `send`.
    fn generate(
        &self,
        v: VertexId,
        g: &Csr,
        values: &[Self::Value],
        send: &mut dyn FnMut(VertexId, Self::Msg),
    );

    /// Process the received messages and update the vertex; return the new
    /// active flag. (Message processing and vertex updating are fused: the
    /// processing here is not an elementwise reduction.)
    fn update(&self, v: VertexId, msgs: Vec<Self::Msg>, value: &mut Self::Value, g: &Csr) -> bool;

    /// Combine messages bound for one remote vertex before the exchange
    /// (the paper invokes the processing function; default keeps all).
    fn combine_remote(&self, _dst: VertexId, msgs: Vec<Self::Msg>) -> Vec<Self::Msg> {
        msgs
    }

    /// Wire size of one message, for communication accounting.
    fn msg_bytes(msg: &Self::Msg) -> u64;

    /// Superstep cap.
    fn max_supersteps(&self) -> Option<usize> {
        None
    }
}

/// Nominal message size fed to the cost model (lanes = 1 either way, since
/// object messages never fit a SIMD register).
const OBJ_MSG_SIZE: usize = 128;

struct ObjEngine<'g, P: ObjVertexProgram> {
    program: &'g P,
    graph: &'g Csr,
    config: EngineConfig,
    spec: DeviceSpec,
    dev: u8,
    assign: Option<&'g [u8]>,
    owned: Vec<VertexId>,
    values: Vec<P::Value>,
    active: ActiveSet,
    mailboxes: Vec<std::sync::Mutex<Vec<P::Msg>>>,
    host_threads: usize,
    gen_ranges: Vec<std::ops::Range<usize>>,
}

impl<'g, P: ObjVertexProgram> ObjEngine<'g, P> {
    fn new(
        program: &'g P,
        graph: &'g Csr,
        spec: DeviceSpec,
        config: EngineConfig,
        dev: u8,
        assign: Option<&'g [u8]>,
    ) -> Self {
        let n = graph.num_vertices();
        let owned: Vec<VertexId> = match assign {
            None => (0..n as VertexId).collect(),
            Some(a) => (0..n as VertexId)
                .filter(|&v| a[v as usize] == dev)
                .collect(),
        };
        let mut values = vec![P::Value::default(); n];
        let mut active = ActiveSet::new(n);
        for &v in &owned {
            let (val, act) = program.init(v, graph);
            values[v as usize] = val;
            active.set(v, act);
        }
        let host_threads = config.resolve_host_threads();
        let gen_ranges = edge_balanced_ranges(&owned, graph, config.gen_chunk, spec.threads());
        ObjEngine {
            program,
            graph,
            spec,
            config,
            dev,
            assign,
            owned,
            values,
            active,
            mailboxes: (0..n).map(|_| std::sync::Mutex::new(Vec::new())).collect(),
            host_threads,
            gen_ranges,
        }
    }
}

/// The rank loop's view of the object engine: mailboxes, the program's
/// own remote combine, a plain (unframed) exchange, and processing
/// recosted as merge/sort code.
impl<'g, P: ObjVertexProgram> RankEngine for ObjEngine<'g, P> {
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
        (self.dev, self.assign)
    }
    fn begin_step(&mut self) -> StepCounters {
        StepCounters::default()
    }

    /// Message generation. Every strategy runs the host's locking path:
    /// each message goes straight into its mailbox or the remote buffer.
    /// Under `pipe` it also counts the messages of each simulated mover
    /// class (`dst mod movers`), the workload the pipelined cost model
    /// reads.
    fn generate(&mut self, c: &mut StepCounters) -> Vec<WireMsg<P::Msg>> {
        let sched = ChunkScheduler::new(self.gen_ranges.len(), 1);
        let ranges = &self.gen_ranges;
        let (program, graph) = (self.program, self.graph);
        let (owned, values, active) = (&self.owned, &self.values, &self.active);
        let mailboxes = &self.mailboxes;
        let (assign, dev) = (self.assign, self.dev);
        let movers = match self.config.mode {
            ExecMode::Pipelined => self.config.pipeline_split(&self.spec).1,
            _ => 0,
        };
        let results = run_parallel_collect(self.host_threads, |_| {
            let mut chunks: Vec<(usize, GenChunk)> = Vec::new();
            let mut remote: Vec<WireMsg<P::Msg>> = Vec::new();
            let mut local = 0u64;
            let mut bytes = 0u64;
            let mut classes = vec![0u64; movers];
            while let Some(batch) = sched.next_batch() {
                for ri in batch {
                    let mut ch = GenChunk::default();
                    for i in ranges[ri].clone() {
                        let v = owned[i];
                        if !active.is_active(v) {
                            continue;
                        }
                        ch.vertices += 1;
                        ch.edges += graph.out_degree(v) as u64;
                        let mut send = |dst: VertexId, msg: P::Msg| {
                            ch.msgs += 1;
                            bytes += 4 + P::msg_bytes(&msg);
                            if movers > 0 {
                                classes[dst as usize % movers] += 1;
                            }
                            let is_local = assign.is_none_or(|a| a[dst as usize] == dev);
                            if is_local {
                                mailboxes[dst as usize].lock().unwrap().push(msg);
                                local += 1;
                            } else {
                                remote.push(WireMsg { dst, value: msg });
                            }
                        };
                        program.generate(v, graph, values, &mut send);
                    }
                    chunks.push((ri, ch));
                }
            }
            (chunks, remote, local, bytes, classes)
        });
        let mut remote = Vec::new();
        let mut chunks = Vec::new();
        if movers > 0 {
            c.mover_msgs = vec![0u64; movers];
        }
        for (ch, r, local, bytes, classes) in results {
            chunks.push(ch);
            c.msgs_local += local;
            c.bytes_gen += bytes;
            remote.extend(r);
            for (a, b) in c.mover_msgs.iter_mut().zip(classes) {
                *a += b;
            }
        }
        for ch in in_chunk_order(chunks) {
            c.active_vertices += ch.vertices;
            c.gen_edges += ch.edges;
            c.gen_chunks.push(ch);
        }
        c.bytes_gen += c.gen_edges * 8;
        c.msgs_remote = remote.len() as u64;
        self.active.clear();
        remote
    }

    /// Per-destination combine via the program hook.
    fn combine(&self, mut bucket: Vec<WireMsg<P::Msg>>) -> Vec<WireMsg<P::Msg>> {
        bucket.sort_by_key(|m| m.dst);
        let mut combined = Vec::with_capacity(bucket.len());
        let mut msgs = bucket.into_iter().peekable();
        while let Some(first) = msgs.next() {
            let dst = first.dst;
            let mut group = vec![first.value];
            while let Some(m) = msgs.next_if(|m| m.dst == dst) {
                group.push(m.value);
            }
            for value in self.program.combine_remote(dst, group) {
                combined.push(WireMsg { dst, value });
            }
        }
        combined
    }

    fn exchange(
        &self,
        ep: &Endpoint<WireMsg<P::Msg>>,
        out: Vec<WireMsg<P::Msg>>,
        mine: PeerInfo,
        deadline: Option<Duration>,
        _step: usize,
        _integ: &mut IntegrityStats,
    ) -> Exchanged<P::Msg> {
        let bytes_out = out.iter().map(|m| 4 + P::msg_bytes(&m.value)).sum();
        ep.try_exchange_deadline(out, bytes_out, mine.any_active, mine.step_time, deadline)
    }

    fn absorb(&mut self, incoming: Vec<WireMsg<P::Msg>>, c: &mut StepCounters) {
        let grain = (incoming.len() / (self.spec.threads() * 8).max(1)).clamp(8, 512) as u64;
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
        for m in incoming {
            c.bytes_gen += 4 + P::msg_bytes(&m.value);
            self.mailboxes[m.dst as usize].lock().unwrap().push(m.value);
        }
    }

    /// Contention profile from mailbox sizes.
    fn insertion_stats(&self, c: &mut StepCounters) {
        let mut profile = InsertProfile::default();
        for &v in &self.owned {
            let len = self.mailboxes[v as usize].lock().unwrap().len() as u64;
            if len > 0 {
                profile.record(len);
                c.occupied_columns += 1;
            }
        }
        c.insert_profile = profile;
    }

    /// Fused process + update over non-empty mailboxes.
    fn process(&mut self, c: &mut StepCounters) {
        let sched = ChunkScheduler::new(self.gen_ranges.len(), 1);
        let ranges = &self.gen_ranges;
        let (program, graph) = (self.program, self.graph);
        let owned = &self.owned;
        let mailboxes = &self.mailboxes;
        let vslice = crate::util::SharedSlice::new(&mut self.values);
        let fslice = crate::util::SharedSlice::new(self.active.flags_mut());
        let results = run_parallel_collect(self.host_threads, |_| {
            let mut out: Vec<(usize, ProcChunk)> = Vec::new();
            let mut updated = 0u64;
            while let Some(batch) = sched.next_batch() {
                for ri in batch {
                    let mut chunk = ProcChunk::default();
                    for i in ranges[ri].clone() {
                        let v = owned[i];
                        let msgs = std::mem::take(&mut *mailboxes[v as usize].lock().unwrap());
                        if msgs.is_empty() {
                            continue;
                        }
                        chunk.msgs += msgs.len() as u64;
                        chunk.rows += msgs.len() as u64;
                        chunk.columns += 1;
                        // SAFETY: each vertex index is visited by one task.
                        let act = unsafe {
                            let val = vslice.get_mut(v as usize);
                            program.update(v, msgs, val, graph)
                        };
                        unsafe { fslice.write(v as usize, u8::from(act)) };
                        updated += 1;
                    }
                    out.push((ri, chunk));
                }
            }
            (out, updated)
        });
        let mut chunks = Vec::new();
        for (out, updated) in results {
            chunks.push(out);
            c.updated_vertices += updated;
        }
        for chunk in in_chunk_order(chunks) {
            c.proc_msgs += chunk.msgs;
            c.proc_rows += chunk.rows;
            c.proc_chunks.push(chunk);
        }
        c.bytes_proc = c.proc_msgs * OBJ_MSG_SIZE as u64;
    }

    /// The fused step already applied the messages; collect the next
    /// step's active set.
    fn update(&mut self, c: &mut StepCounters) {
        self.active.recount();
        c.next_active = self.active.count();
        c.bytes_update = c.updated_vertices * std::mem::size_of::<P::Value>() as u64;
    }

    fn step_times(&self, cost: &CostModel, c: &StepCounters) -> PhaseTimes {
        let gen_mode = self.config.gen_mode(&self.spec);
        let mut times = cost.step_times(c, gen_mode, OBJ_MSG_SIZE, false);
        // Object messages are processed by branch-heavy merge/sort code,
        // not lane reductions — recost that phase.
        times.total -= times.process;
        times.process = cost.obj_process_time(c);
        times.total += times.process;
        times
    }

    fn into_values(self) -> Vec<P::Value> {
        self.values
    }
}

/// Run an object-message program on a single device: the `N = 1` case of
/// the rank loop, as [`run_single`] runs it.
///
/// [`run_single`]: crate::engine::run_single
pub fn run_obj_single<P: ObjVertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> RunOutput<P::Value> {
    run_device(ObjEngine::new(
        program,
        graph,
        spec,
        config.clone(),
        0,
        None,
    ))
}

/// Run an object-message program across `specs.len()` ranks on the fabric
/// of [`run_ranks`]. `specs`/`configs` are indexed by rank (0 = CPU, 1.. =
/// accelerators); `partition` assigns vertices.
///
/// # Panics
/// Panics when a rank leaves the superstep loop early.
///
/// [`run_ranks`]: crate::engine::run_ranks
pub fn run_obj_ranks<P: ObjVertexProgram>(
    program: &P,
    graph: &Csr,
    partition: &DevicePartition,
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    link: PcieLink,
) -> RunOutput<P::Value> {
    assert_eq!(partition.assign.len(), graph.num_vertices());
    let assign = &partition.assign;
    run_fabric(specs, configs, assign, link, |r| {
        let (spec, config) = (specs[r].clone(), configs[r].clone());
        ObjEngine::new(program, graph, spec, config, r as u8, Some(assign))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::chain;
    use phigraph_graph::generators::{rmat, RmatConfig};
    use phigraph_partition::{partition, PartitionScheme, Ratio};

    /// A toy object-message program: each vertex forwards a growing path
    /// list; value = longest path seen.
    struct PathRelay;
    impl ObjVertexProgram for PathRelay {
        type Msg = Vec<u32>;
        type Value = Vec<u32>;
        const NAME: &'static str = "relay";
        fn init(&self, v: VertexId, _g: &Csr) -> (Vec<u32>, bool) {
            (vec![v], v == 0)
        }
        fn generate(
            &self,
            v: VertexId,
            g: &Csr,
            values: &[Vec<u32>],
            send: &mut dyn FnMut(VertexId, Vec<u32>),
        ) {
            for &d in g.neighbors(v) {
                send(d, values[v as usize].clone());
            }
        }
        fn update(&self, v: VertexId, msgs: Vec<Vec<u32>>, value: &mut Vec<u32>, _g: &Csr) -> bool {
            let best = msgs.into_iter().max_by_key(|m| m.len()).unwrap();
            let mut path = best;
            path.push(v);
            if path.len() > value.len() {
                *value = path;
                true
            } else {
                false
            }
        }
        fn msg_bytes(msg: &Vec<u32>) -> u64 {
            4 * msg.len() as u64
        }
    }

    #[test]
    fn obj_single_builds_paths() {
        let g = chain(6);
        for config in [
            EngineConfig::locking(),
            EngineConfig::pipelined().with_host_threads(4),
            EngineConfig::flat(),
            EngineConfig::sequential(),
        ] {
            let out = run_obj_single(&PathRelay, &g, DeviceSpec::xeon_e5_2680(), &config);
            assert_eq!(
                out.values[5],
                vec![0, 1, 2, 3, 4, 5],
                "mode {:?}",
                config.mode
            );
        }
    }

    #[test]
    fn obj_hetero_matches_single() {
        let g = chain(12);
        let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 0);
        let single = run_obj_single(
            &PathRelay,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        let hetero = run_obj_ranks(
            &PathRelay,
            &g,
            &p,
            &[DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
            &[EngineConfig::locking(), EngineConfig::locking()],
            PcieLink::gen2_x16(),
        );
        assert_eq!(single.values, hetero.values);
        assert!(hetero.report.sim_comm() > 0.0);
    }

    /// Each vertex keeps the four smallest vertex ids it has heard of — an
    /// update that does not depend on the order of its mailbox.
    struct Smallest;
    impl ObjVertexProgram for Smallest {
        type Msg = Vec<u32>;
        type Value = Vec<u32>;
        const NAME: &'static str = "smallest";
        fn init(&self, v: VertexId, _g: &Csr) -> (Vec<u32>, bool) {
            (vec![v], true)
        }
        fn generate(
            &self,
            v: VertexId,
            g: &Csr,
            values: &[Vec<u32>],
            send: &mut dyn FnMut(VertexId, Vec<u32>),
        ) {
            // Yield now and then, so the engine's threads take chunks in
            // interleaved order even on a one-core runner.
            if v.is_multiple_of(16) {
                std::thread::yield_now();
            }
            for &d in g.neighbors(v) {
                send(d, values[v as usize].clone());
            }
        }
        fn update(
            &self,
            _v: VertexId,
            msgs: Vec<Vec<u32>>,
            value: &mut Vec<u32>,
            _g: &Csr,
        ) -> bool {
            let mut ids: Vec<u32> = value.iter().copied().chain(msgs.concat()).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.truncate(4);
            let changed = ids != *value;
            *value = ids;
            changed
        }
        fn msg_bytes(msg: &Vec<u32>) -> u64 {
            4 * msg.len() as u64
        }
        fn max_supersteps(&self) -> Option<usize> {
            Some(6)
        }
    }

    #[test]
    fn obj_is_identical_on_any_host_thread_count() {
        let g = rmat(&RmatConfig {
            scale: 11,
            edge_factor: 8,
            seed: 7,
            ..Default::default()
        });
        let spec = DeviceSpec::xeon_phi_se10p();
        let cost = CostModel::new(spec.clone());
        // The values, and every superstep's full counters (chunk records
        // included) and simulated seconds, with the host thread count
        // forced to `threads`.
        let run = |config: &EngineConfig, threads: usize| {
            let mut eng = ObjEngine::new(&Smallest, &g, spec.clone(), config.clone(), 0, None);
            eng.host_threads = threads;
            let mut steps = Vec::new();
            for _ in 0..6 {
                let mut c = eng.begin_step();
                assert!(eng.generate(&mut c).is_empty());
                eng.insertion_stats(&mut c);
                eng.process(&mut c);
                eng.update(&mut c);
                let sim = eng.step_times(&cost, &c).total;
                steps.push((c, sim));
            }
            (eng.values, steps)
        };
        for config in [
            EngineConfig::locking(),
            EngineConfig::pipelined(),
            EngineConfig::flat(),
        ] {
            let name = config.mode.name();
            let (values, steps) = run(&config, 1);
            assert!(steps[1].0.msgs_local > 0, "{name}: the run sends messages");
            for threads in [2, 3, 8] {
                let (v, s) = run(&config, threads);
                assert!(v == values, "{name}: values differ at {threads} threads");
                for (i, ((a, sim_a), (b, sim_b))) in s.iter().zip(&steps).enumerate() {
                    assert!(
                        a.gen_chunks == b.gen_chunks && a.proc_chunks == b.proc_chunks,
                        "{name} step {i}: chunk records at {threads} threads"
                    );
                    assert!(a == b, "{name} step {i}: counters at {threads} threads");
                    assert_eq!(
                        sim_a.to_bits(),
                        sim_b.to_bits(),
                        "{name} step {i}: simulated seconds at {threads} threads"
                    );
                }
            }
        }
    }
}
