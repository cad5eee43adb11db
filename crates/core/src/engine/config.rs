//! Engine configuration.

use crate::csb::ColumnMode;
use phigraph_device::cost::GenMode;
use phigraph_device::{CancelToken, DeviceSpec};
use phigraph_recover::{FaultInjector, IntegrityMode, RecoveryPolicy};
use phigraph_trace::{ThreadTracer, Trace};

/// How a device executes a superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Framework engine with locking-based message insertion
    /// (the paper's "Lock" bars).
    Locking,
    /// Framework engine with worker/mover pipelined message generation
    /// (the paper's "Pipe" bars). The host runs the locking engine's path
    /// and tallies each simulated mover's messages; the cost model charges
    /// the worker/mover pipeline.
    Pipelined,
    /// Flat OpenMP-style baseline (the "OMP" bars): direct concurrent
    /// vertex update under per-destination locks, no SIMD. The host runs
    /// the locking engine's path with scalar processing; the cost model
    /// charges a per-message OpenMP lock and no processing phase.
    Flat,
    /// Single-threaded reference execution (Table II's "Seq" rows).
    Sequential,
}

impl ExecMode {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Locking => "lock",
            ExecMode::Pipelined => "pipe",
            ExecMode::Flat => "omp",
            ExecMode::Sequential => "seq",
        }
    }
}

/// Tunable engine parameters. Constructors give the paper's defaults;
/// builder methods adjust individual knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Execution strategy.
    pub mode: ExecMode,
    /// Use the SIMD lane path for message processing (`false` reproduces
    /// the Fig. 5(f) scalar rewrite).
    pub vectorized: bool,
    /// Column mapping in the CSB.
    pub column_mode: ColumnMode,
    /// Vector arrays per vertex group (`k`).
    pub k: usize,
    /// Real host threads to execute with (0 = all available).
    pub host_threads: usize,
    /// Simulated worker-thread count for pipelined cost (0 = device
    /// default: 3/4 of hardware threads, e.g. 180 of 240 on the MIC, the
    /// paper's best configuration).
    pub sim_workers: usize,
    /// Simulated mover-thread count (0 = device default: 1/4 of hardware
    /// threads).
    pub sim_movers: usize,
    /// Vertices per generation scheduling chunk ("a thread can obtain
    /// multiple tasks each time"); 0 = auto-size from the device's thread
    /// count and the owned-vertex count.
    pub gen_chunk: usize,
    /// Vertex groups per processing scheduling chunk; 0 = auto.
    pub proc_chunk: usize,
    /// Superstep cap applied on top of the program's own limit.
    pub max_supersteps: Option<usize>,
    /// Checkpoint interval, retry budget, and backoff for the recovering
    /// drivers (`engine::recover`). Ignored by the plain drivers.
    pub recovery: RecoveryPolicy,
    /// Deterministic fault injection plan (compiled, fire-once). `None`
    /// runs fault-free; the recovering drivers consult it at the defined
    /// injection sites.
    pub fault_plan: Option<FaultInjector>,
    /// Structured tracing sink. `None` (the default) skips every recording
    /// site entirely; a [`Trace`] at [`phigraph_trace::TraceLevel::Off`]
    /// costs one relaxed atomic load per site.
    pub trace: Option<Trace>,
    /// Silent-data-corruption defenses: `Off` (default, bit-identical to
    /// pre-integrity builds), `Frames` (exchange checksums only), or
    /// `Full` (frames + group checksums + state digests + app audits +
    /// quarantine healing). See `engine::integrity`.
    pub integrity: IntegrityMode,
    /// Run a background scrub pass (state-digest audit against the barrier
    /// image) every `n` supersteps even when `integrity` is below `Full`
    /// (0 disables scrubbing).
    pub scrub_every: usize,
    /// Cooperative cancellation token, polled at superstep phase
    /// boundaries. When it fires the engine stops cleanly at the next
    /// boundary and returns the partial output; the caller reads
    /// [`CancelToken::reason`] to learn why. `None` (the default) skips
    /// every poll site.
    pub cancel: Option<CancelToken>,
}

// The `with_*` builders build a new value from `self` instead of assigning
// into it and returning it. Compiled in release mode, rustc 1.95.0 can pass
// one argument buffer to two by-value builder calls on equal configs; a
// builder that wrote into its argument then leaked that write into the
// second call (a `FaultInjector` reference was dropped twice). Building a
// new value never writes to the argument.
impl EngineConfig {
    fn base(mode: ExecMode) -> Self {
        EngineConfig {
            mode,
            vectorized: true,
            column_mode: ColumnMode::Dynamic,
            k: 4,
            host_threads: 0,
            sim_workers: 0,
            sim_movers: 0,
            gen_chunk: 0,
            proc_chunk: 0,
            max_supersteps: None,
            recovery: RecoveryPolicy::default(),
            fault_plan: None,
            trace: None,
            integrity: IntegrityMode::Off,
            scrub_every: 0,
            cancel: None,
        }
    }

    /// Locking-based framework execution.
    pub fn locking() -> Self {
        Self::base(ExecMode::Locking)
    }

    /// Pipelined framework execution.
    pub fn pipelined() -> Self {
        Self::base(ExecMode::Pipelined)
    }

    /// Flat OpenMP-style baseline.
    pub fn flat() -> Self {
        let mut c = Self::base(ExecMode::Flat);
        c.vectorized = false; // "OpenMP code could not benefit from SIMD"
        c
    }

    /// Sequential reference.
    pub fn sequential() -> Self {
        let mut c = Self::base(ExecMode::Sequential);
        c.host_threads = 1;
        c
    }

    /// Set SIMD processing on/off.
    pub fn with_vectorized(self, yes: bool) -> Self {
        EngineConfig {
            vectorized: yes,
            ..self
        }
    }

    /// Set the CSB column mode.
    pub fn with_column_mode(self, mode: ColumnMode) -> Self {
        EngineConfig {
            column_mode: mode,
            ..self
        }
    }

    /// Set the group width factor `k`.
    pub fn with_k(self, k: usize) -> Self {
        EngineConfig {
            k: k.max(1),
            ..self
        }
    }

    /// Cap supersteps.
    pub fn with_max_supersteps(self, n: usize) -> Self {
        EngineConfig {
            max_supersteps: Some(n),
            ..self
        }
    }

    /// Set real host threads.
    pub fn with_host_threads(self, n: usize) -> Self {
        EngineConfig {
            host_threads: n,
            ..self
        }
    }

    /// Set the generation chunk size.
    pub fn with_gen_chunk(self, n: usize) -> Self {
        EngineConfig {
            gen_chunk: n.max(1),
            ..self
        }
    }

    /// Write a barrier checkpoint every `k` supersteps (0 disables).
    pub fn with_checkpoint_every(self, k: usize) -> Self {
        EngineConfig {
            recovery: RecoveryPolicy {
                checkpoint_every: k,
                ..self.recovery
            },
            ..self
        }
    }

    /// Set the rollback/replay retry budget before sequential degradation.
    pub fn with_max_retries(self, n: u32) -> Self {
        EngineConfig {
            recovery: RecoveryPolicy {
                max_retries: n,
                ..self.recovery
            },
            ..self
        }
    }

    /// Set the exponential-backoff base in milliseconds (0 = no sleeping,
    /// what the deterministic tests use).
    pub fn with_backoff_ms(self, base: u64) -> Self {
        EngineConfig {
            recovery: RecoveryPolicy {
                backoff_base_ms: base,
                ..self.recovery
            },
            ..self
        }
    }

    /// Install a compiled fault-injection plan.
    pub fn with_fault_plan(self, injector: FaultInjector) -> Self {
        EngineConfig {
            fault_plan: Some(injector),
            ..self
        }
    }

    /// Install a structured tracing sink (see [`phigraph_trace`]).
    pub fn with_trace(self, trace: Trace) -> Self {
        EngineConfig {
            trace: Some(trace),
            ..self
        }
    }

    /// Set the silent-data-corruption defense level.
    pub fn with_integrity(self, mode: IntegrityMode) -> Self {
        EngineConfig {
            integrity: mode,
            ..self
        }
    }

    /// Scrub (state-digest audit) every `n` supersteps (0 disables).
    pub fn with_scrub_every(self, n: usize) -> Self {
        EngineConfig {
            scrub_every: n,
            ..self
        }
    }

    /// Install a cooperative cancellation token (see [`CancelToken`]).
    pub fn with_cancel(self, token: CancelToken) -> Self {
        EngineConfig {
            cancel: Some(token),
            ..self
        }
    }

    /// Poll the cancellation token (ticking its liveness heartbeat); true
    /// when the run should stop at the current phase boundary.
    #[inline]
    pub fn cancelled(&self) -> bool {
        match &self.cancel {
            Some(t) => t.poll(),
            None => false,
        }
    }

    /// Attach a tracer for the logical thread `name` (disabled when no
    /// trace is installed — the engines' single call site for recording).
    pub fn tracer(&self, name: &str, sort: u32) -> ThreadTracer {
        match &self.trace {
            Some(t) => t.thread(name, sort),
            None => ThreadTracer::disabled(),
        }
    }

    /// Record `v` into histogram `kind` when a trace is installed.
    #[inline]
    pub fn record_hist(&self, kind: phigraph_trace::HistKind, v: u64) {
        if let Some(t) = &self.trace {
            t.record_hist(kind, v);
        }
    }

    /// Resolved simulated (worker, mover) split for `spec`.
    pub fn pipeline_split(&self, spec: &DeviceSpec) -> (usize, usize) {
        let t = spec.threads();
        let movers = if self.sim_movers > 0 {
            self.sim_movers
        } else {
            (t / 4).max(1)
        };
        let workers = if self.sim_workers > 0 {
            self.sim_workers
        } else {
            (t - movers.min(t - 1)).max(1)
        };
        (workers, movers)
    }

    /// The cost-model generation mode for this configuration.
    pub fn gen_mode(&self, spec: &DeviceSpec) -> GenMode {
        match self.mode {
            ExecMode::Locking => GenMode::Locking,
            ExecMode::Pipelined => {
                let (w, m) = self.pipeline_split(spec);
                GenMode::Pipelined {
                    workers: w,
                    movers: m,
                }
            }
            ExecMode::Flat => GenMode::Flat,
            ExecMode::Sequential => GenMode::Sequential,
        }
    }

    /// Resolved processing chunk size (vertex groups per grab).
    pub fn resolved_proc_chunk(&self, groups: usize, spec: &DeviceSpec) -> usize {
        if self.proc_chunk > 0 {
            self.proc_chunk
        } else {
            (groups / (spec.threads() * 8).max(1)).clamp(1, 256)
        }
    }

    /// Real host threads to run with.
    pub fn resolve_host_threads(&self) -> usize {
        if self.mode == ExecMode::Sequential {
            return 1;
        }
        let req = if self.host_threads == 0 {
            usize::MAX
        } else {
            self.host_threads
        };
        phigraph_device::pool::host_threads(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pipeline_split_on_mic() {
        // "180 worker threads + [movers] achieve the best performance".
        let cfg = EngineConfig::pipelined();
        let (w, m) = cfg.pipeline_split(&DeviceSpec::xeon_phi_se10p());
        assert_eq!(w, 180);
        assert_eq!(m, 60);
    }

    #[test]
    fn cpu_pipeline_split() {
        let cfg = EngineConfig::pipelined();
        let (w, m) = cfg.pipeline_split(&DeviceSpec::xeon_e5_2680());
        assert_eq!((w, m), (12, 4));
    }

    #[test]
    fn flat_disables_vectorization() {
        assert!(!EngineConfig::flat().vectorized);
        assert!(EngineConfig::locking().vectorized);
    }

    #[test]
    fn sequential_uses_one_thread() {
        assert_eq!(EngineConfig::sequential().resolve_host_threads(), 1);
    }

    #[test]
    fn gen_mode_maps_execution_modes() {
        let mic = DeviceSpec::xeon_phi_se10p();
        assert_eq!(EngineConfig::locking().gen_mode(&mic), GenMode::Locking);
        assert!(matches!(
            EngineConfig::pipelined().gen_mode(&mic),
            GenMode::Pipelined {
                workers: 180,
                movers: 60
            }
        ));
        assert_eq!(EngineConfig::flat().gen_mode(&mic), GenMode::Flat);
    }

    #[test]
    fn builders_apply() {
        let c = EngineConfig::locking()
            .with_vectorized(false)
            .with_k(2)
            .with_max_supersteps(5)
            .with_gen_chunk(64);
        assert!(!c.vectorized);
        assert_eq!(c.k, 2);
        assert_eq!(c.max_supersteps, Some(5));
        assert_eq!(c.gen_chunk, 64);
    }
}
