//! The object-message execution path.
//!
//! "SIMD processing of messages only applies to messages with basic data
//! types … and are limited to associative and commutative reductions."
//! Semi-Clustering violates both (its messages are cluster lists, its
//! processing is a sort), so the paper routes it through scalar message
//! processing. This module is that path: per-vertex mailboxes instead of
//! the CSB, a fused scalar process+update step, and the same four execution
//! strategies and heterogeneous driver as the POD path.

use crate::active::ActiveSet;
use crate::engine::config::{EngineConfig, ExecMode};
use crate::engine::flat::run_cap;
use crate::engine::hetero::{fabric_cap, merge_by_owner};
use crate::metrics::{combine_ranks, RunOutput, RunReport, StepReport};
use crate::queues::QueueMatrix;
use phigraph_comm::{duplex_pair, Endpoint, PcieLink};
use phigraph_device::cost::GenMode;
use phigraph_device::counters::{GenChunk, InsertProfile, ProcChunk};
use phigraph_device::pool::run_parallel_collect;
use phigraph_device::{ChunkScheduler, CostModel, DeviceSpec, StepCounters};
use phigraph_graph::{Csr, VertexId};
use std::time::Instant;

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
        let gen_ranges = crate::engine::device::edge_balanced_ranges(
            &owned,
            graph,
            config.gen_chunk,
            spec.threads(),
        );
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

    /// Generation. Returns peer-bound `(dst, msg)` pairs.
    fn generate(&mut self, c: &mut StepCounters) -> Vec<(VertexId, P::Msg)> {
        let remote = match self.config.mode {
            ExecMode::Pipelined => self.generate_pipelined(c),
            _ => self.generate_locking(c),
        };
        c.msgs_remote = remote.len() as u64;
        self.active.clear();
        remote
    }

    fn generate_locking(&mut self, c: &mut StepCounters) -> Vec<(VertexId, P::Msg)> {
        let sched = ChunkScheduler::new(self.gen_ranges.len(), 1);
        let ranges = &self.gen_ranges;
        let (program, graph) = (self.program, self.graph);
        let (owned, values, active) = (&self.owned, &self.values, &self.active);
        let mailboxes = &self.mailboxes;
        let (assign, dev) = (self.assign, self.dev);
        let threads = if self.config.mode == ExecMode::Sequential {
            1
        } else {
            self.host_threads
        };
        let results = run_parallel_collect(threads, |_| {
            let mut chunks: Vec<GenChunk> = Vec::new();
            let mut remote: Vec<(VertexId, P::Msg)> = Vec::new();
            let mut local = 0u64;
            let mut bytes = 0u64;
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
                            let is_local = assign.is_none_or(|a| a[dst as usize] == dev);
                            if is_local {
                                mailboxes[dst as usize].lock().unwrap().push(msg);
                                local += 1;
                            } else {
                                remote.push((dst, msg));
                            }
                        };
                        program.generate(v, graph, values, &mut send);
                    }
                    chunks.push(ch);
                }
            }
            (chunks, remote, local, bytes)
        });
        let mut remote = Vec::new();
        for (chunks, r, local, bytes) in results {
            for ch in &chunks {
                c.active_vertices += ch.vertices;
                c.gen_edges += ch.edges;
            }
            c.gen_chunks.extend(chunks);
            c.msgs_local += local;
            c.bytes_gen += bytes;
            remote.extend(r);
        }
        c.bytes_gen += c.gen_edges * 8;
        remote
    }

    fn generate_pipelined(&mut self, c: &mut StepCounters) -> Vec<(VertexId, P::Msg)> {
        let host = self.host_threads;
        let real_movers = (host / 4).max(1);
        let real_workers = host.saturating_sub(real_movers).max(1);
        let (_, sim_movers) = self.config.pipeline_split(&self.spec);
        let queues = QueueMatrix::<(VertexId, P::Msg)>::new(real_workers, real_movers, 1024);
        let sched = ChunkScheduler::new(self.gen_ranges.len(), 1);
        let ranges = &self.gen_ranges;
        let (program, graph) = (self.program, self.graph);
        let (owned, values, active) = (&self.owned, &self.values, &self.active);
        let mailboxes = &self.mailboxes;
        let (assign, dev) = (self.assign, self.dev);
        let queues_ref = &queues;
        let sched = &sched;

        type MoverOut<M> = (Vec<(VertexId, M)>, u64, Vec<u64>, u64);
        let (worker_out, mover_out): (Vec<Vec<GenChunk>>, Vec<MoverOut<P::Msg>>) =
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..real_workers)
                    .map(|w| {
                        s.spawn(move || {
                            let mut chunks = Vec::new();
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
                                            let m = dst as usize % queues_ref.movers;
                                            // SAFETY: worker w is queue
                                            // (w, m)'s only producer.
                                            unsafe { queues_ref.queue(w, m).push((dst, msg)) };
                                        };
                                        program.generate(v, graph, values, &mut send);
                                    }
                                    chunks.push(ch);
                                }
                            }
                            queues_ref.close_worker(w);
                            chunks
                        })
                    })
                    .collect();
                let movers: Vec<_> = (0..real_movers)
                    .map(|m| {
                        s.spawn(move || {
                            let mut remote: Vec<(VertexId, P::Msg)> = Vec::new();
                            let mut local = 0u64;
                            let mut bytes = 0u64;
                            let mut classes = vec![0u64; sim_movers];
                            let mut buf: Vec<(VertexId, P::Msg)> = Vec::with_capacity(128);
                            loop {
                                let mut moved = false;
                                for w in 0..real_workers {
                                    buf.clear();
                                    // SAFETY: mover m is the only consumer.
                                    let n =
                                        unsafe { queues_ref.queue(w, m).pop_batch(&mut buf, 128) };
                                    if n > 0 {
                                        moved = true;
                                        for (dst, msg) in buf.drain(..) {
                                            classes[dst as usize % sim_movers] += 1;
                                            bytes += 4 + P::msg_bytes(&msg);
                                            let is_local =
                                                assign.is_none_or(|a| a[dst as usize] == dev);
                                            if is_local {
                                                mailboxes[dst as usize].lock().unwrap().push(msg);
                                                local += 1;
                                            } else {
                                                remote.push((dst, msg));
                                            }
                                        }
                                    }
                                }
                                if !moved {
                                    if queues_ref.mover_done(m) {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                            (remote, local, classes, bytes)
                        })
                    })
                    .collect();
                (
                    workers
                        .into_iter()
                        .map(|h| h.join().expect("worker panicked"))
                        .collect(),
                    movers
                        .into_iter()
                        .map(|h| h.join().expect("mover panicked"))
                        .collect(),
                )
            });

        let mut remote = Vec::new();
        c.mover_msgs = vec![0u64; sim_movers];
        for chunks in worker_out {
            for ch in &chunks {
                c.active_vertices += ch.vertices;
                c.gen_edges += ch.edges;
            }
            c.gen_chunks.extend(chunks);
        }
        for (r, local, classes, bytes) in mover_out {
            remote.extend(r);
            c.msgs_local += local;
            c.bytes_gen += bytes;
            for (a, b) in c.mover_msgs.iter_mut().zip(classes) {
                *a += b;
            }
        }
        c.bytes_gen += c.gen_edges * 8;
        remote
    }

    fn absorb_remote(&mut self, incoming: Vec<(VertexId, P::Msg)>, c: &mut StepCounters) {
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
        for (dst, msg) in incoming {
            c.bytes_gen += 4 + P::msg_bytes(&msg);
            self.mailboxes[dst as usize].lock().unwrap().push(msg);
        }
    }

    /// Fused process + update over non-empty mailboxes.
    fn process_update(&mut self, c: &mut StepCounters) {
        // Contention profile from mailbox sizes.
        let mut profile = InsertProfile::default();
        for &v in &self.owned {
            let len = self.mailboxes[v as usize].lock().unwrap().len() as u64;
            if len > 0 {
                profile.record(len);
                c.occupied_columns += 1;
            }
        }
        c.insert_profile = profile;

        let sched = ChunkScheduler::new(self.gen_ranges.len(), 1);
        let ranges = &self.gen_ranges;
        let (program, graph) = (self.program, self.graph);
        let owned = &self.owned;
        let mailboxes = &self.mailboxes;
        let vslice = crate::util::SharedSlice::new(&mut self.values);
        let fslice = crate::util::SharedSlice::new(self.active.flags_mut());
        let threads = if self.config.mode == ExecMode::Sequential {
            1
        } else {
            self.host_threads
        };
        let results = run_parallel_collect(threads, |_| {
            let mut out: Vec<ProcChunk> = Vec::new();
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
                    out.push(chunk);
                }
            }
            (out, updated)
        });
        for (chunks, updated) in results {
            for chunk in &chunks {
                c.proc_msgs += chunk.msgs;
                c.proc_rows += chunk.rows;
            }
            c.updated_vertices += updated;
            c.proc_chunks.extend(chunks);
        }
        self.active.recount();
        c.next_active = self.active.count();
        c.bytes_proc = c.proc_msgs * OBJ_MSG_SIZE as u64;
        c.bytes_update = c.updated_vertices * std::mem::size_of::<P::Value>() as u64;
    }

    fn gen_mode(&self) -> GenMode {
        match self.config.mode {
            ExecMode::Sequential => GenMode::Sequential,
            ExecMode::Flat => GenMode::Flat,
            ExecMode::Locking => GenMode::Locking,
            ExecMode::Pipelined => {
                let (w, m) = self.config.pipeline_split(&self.spec);
                GenMode::Pipelined {
                    workers: w,
                    movers: m,
                }
            }
        }
    }
}

/// Run an object-message program on a single device.
pub fn run_obj_single<P: ObjVertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> RunOutput<P::Value> {
    let cost = CostModel::new(spec.clone());
    let mut engine = ObjEngine::new(program, graph, spec.clone(), config.clone(), 0, None);
    let cap = run_cap(program.max_supersteps(), config.max_supersteps);
    let wall_start = Instant::now();
    let mut steps = Vec::new();
    for step in 0.. {
        if step >= cap {
            break;
        }
        let t0 = Instant::now();
        let mut c = StepCounters::default();
        let remote = engine.generate(&mut c);
        debug_assert!(remote.is_empty());
        engine.process_update(&mut c);
        let mut times = cost.step_times(&c, engine.gen_mode(), OBJ_MSG_SIZE, false);
        // Object messages are processed by branch-heavy merge/sort code,
        // not lane reductions — recost that phase.
        times.total -= times.process;
        times.process = cost.obj_process_time(&c);
        times.total += times.process;
        let msgs = c.msgs_total();
        c.gen_chunks.clear();
        c.proc_chunks.clear();
        steps.push(StepReport {
            step,
            times,
            comm_time: 0.0,
            wall: t0.elapsed().as_secs_f64(),
            counters: c,
        });
        if msgs == 0 {
            break;
        }
    }
    let report = RunReport {
        app: P::NAME.to_string(),
        device: spec.name.to_string(),
        mode: config.mode.name().to_string(),
        steps,
        wall: wall_start.elapsed().as_secs_f64(),
        ..Default::default()
    };
    RunOutput {
        values: engine.values,
        device_reports: vec![report.clone()],
        report,
    }
}

/// Run an object-message program across both devices.
pub fn run_obj_hetero<P: ObjVertexProgram>(
    program: &P,
    graph: &Csr,
    partition: &phigraph_partition::DevicePartition,
    specs: [DeviceSpec; 2],
    configs: [EngineConfig; 2],
    link: PcieLink,
) -> RunOutput<P::Value> {
    let cap = fabric_cap(program.max_supersteps(), &configs);
    let (ep0, ep1) = duplex_pair::<(VertexId, P::Msg)>(link);
    let [spec0, spec1] = specs;
    let [config0, config1] = configs;
    let assign = &partition.assign;

    let (side0, side1) = std::thread::scope(|s| {
        let h0 = s.spawn(|| obj_device_loop(program, graph, assign, 0, spec0, config0, ep0, cap));
        let h1 = s.spawn(|| obj_device_loop(program, graph, assign, 1, spec1, config1, ep1, cap));
        (
            h0.join().expect("dev0 panicked"),
            h1.join().expect("dev1 panicked"),
        )
    });
    let (values0, r0) = side0;
    let (values1, r1) = side1;
    let device_reports = vec![r0, r1];
    RunOutput {
        values: merge_by_owner(assign, [(0, values0), (1, values1)]),
        report: combine_ranks(P::NAME, &device_reports),
        device_reports,
    }
}

#[allow(clippy::too_many_arguments)]
fn obj_device_loop<P: ObjVertexProgram>(
    program: &P,
    graph: &Csr,
    assign: &[u8],
    dev: u8,
    spec: DeviceSpec,
    config: EngineConfig,
    ep: Endpoint<(VertexId, P::Msg)>,
    cap: usize,
) -> (Vec<P::Value>, RunReport) {
    let cost = CostModel::new(spec.clone());
    let mut engine = ObjEngine::new(
        program,
        graph,
        spec.clone(),
        config.clone(),
        dev,
        Some(assign),
    );
    let wall_start = Instant::now();
    let mut steps = Vec::new();
    for step in 0.. {
        if step >= cap {
            break;
        }
        let t0 = Instant::now();
        let mut c = StepCounters::default();
        let mut remote = engine.generate(&mut c);
        c.remote_before_combine = remote.len() as u64;
        // Per-destination combine via the program hook.
        remote.sort_by_key(|&(d, _)| d);
        let mut combined: Vec<(VertexId, P::Msg)> = Vec::with_capacity(remote.len());
        let mut i = 0;
        while i < remote.len() {
            let dst = remote[i].0;
            let mut group = Vec::new();
            while i < remote.len() && remote[i].0 == dst {
                group.push(remote[i].1.clone());
                i += 1;
            }
            for m in program.combine_remote(dst, group) {
                combined.push((dst, m));
            }
        }
        c.remote_after_combine = combined.len() as u64;
        let bytes_out: u64 = combined.iter().map(|(_, m)| 4 + P::msg_bytes(m)).sum();
        let my_any = c.msgs_total() > 0;
        let (incoming, peer_any, xstats) = ep.exchange(combined, bytes_out, my_any);
        c.comm_bytes = xstats.bytes_sent + xstats.bytes_recv;
        engine.absorb_remote(incoming, &mut c);
        engine.process_update(&mut c);
        let mut times = cost.step_times(&c, engine.gen_mode(), OBJ_MSG_SIZE, false);
        times.total -= times.process;
        times.process = cost.obj_process_time(&c);
        times.total += times.process;
        c.gen_chunks.clear();
        c.proc_chunks.clear();
        steps.push(StepReport {
            step,
            times,
            comm_time: xstats.sim_time,
            wall: t0.elapsed().as_secs_f64(),
            counters: c,
        });
        if !my_any && !peer_any {
            break;
        }
    }
    let report = RunReport {
        app: P::NAME.to_string(),
        device: spec.name.to_string(),
        mode: "cpu-mic".to_string(),
        steps,
        wall: wall_start.elapsed().as_secs_f64(),
        ..Default::default()
    };
    (engine.values, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::chain;
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
        let hetero = run_obj_hetero(
            &PathRelay,
            &g,
            &p,
            [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
            [EngineConfig::locking(), EngineConfig::locking()],
            PcieLink::gen2_x16(),
        );
        assert_eq!(single.values, hetero.values);
        assert!(hetero.report.sim_comm() > 0.0);
    }
}
