//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is plain data: a list of `(superstep, kind, device)`
//! triples, built explicitly or drawn from the vendored PRNG so sweeps are
//! reproducible per seed. The plan compiles into a [`FaultInjector`] — a
//! cheaply clonable handle with shared fire-once state — which is threaded
//! through `EngineConfig` and consulted by the engines at well-defined
//! injection sites. A fault fires exactly once across all clones: after the
//! engine rolls back and replays the same superstep, the injector stays
//! quiet, modelling a transient fail-stop failure.

use phigraph_graph::SplitMix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A worker thread dies before message generation completes.
    KillWorker,
    /// A mover dies after message generation, once the step's messages
    /// are in the buffer (no engine drains worker→mover queues; the site
    /// is the fail-stop after generation).
    KillMover,
    /// A CSB insert lands a corrupted cell (detected fail-stop at
    /// insertion-stat finalization).
    PoisonInsert,
    /// The checkpoint writer corrupts the snapshot bytes on their way to
    /// the store (detected later by the snapshot checksum).
    CorruptCheckpoint,
    /// The heterogeneous remote-message exchange is dropped on the link;
    /// both devices observe the failure at the barrier.
    DropExchange,
    /// A whole device dies at the start of a superstep (fail-stop): its
    /// engine loop exits and its link endpoint is torn down, so the peer
    /// observes a dead channel at the next exchange.
    CrashDevice,
    /// A whole device hangs at the start of a superstep: its engine loop
    /// stalls forever *without* tearing down the link, so only a deadline
    /// (watchdog / exchange timeout) can detect it.
    HangDevice,
    /// A device becomes a straggler from this superstep on: it keeps making
    /// progress but its per-step time inflates, which should trigger ratio
    /// re-balancing rather than migration.
    SlowDevice,
    /// Silent data corruption: a single bit flips in an in-flight message
    /// (a CSB cell after the drain, modelling a flipped queue slot or
    /// column write). Nothing crashes — only an integrity audit can see it.
    BitFlipMessage,
    /// Silent data corruption: a single bit flips in the per-vertex state
    /// at a superstep boundary (a rotted barrier value). Nothing crashes.
    BitFlipState,
    /// Silent data corruption on the link: an exchange frame arrives
    /// truncated (payload shorter than its header claims). Only frame
    /// length/checksum validation can see it.
    TruncateFrame,
    /// The serving daemon process dies abruptly (kill -9): no drain, no
    /// final reports — only the job journal survives. The chaos harness
    /// restarts the daemon and asserts replay loses/duplicates nothing.
    KillDaemon,
    /// A serving-pool worker wedges on one job (modelled as a runaway job
    /// with a tight deadline): only the watchdog's cancel token frees the
    /// slot.
    HangWorkerJob,
    /// A serving client stalls mid-stream: long gaps between request
    /// lines while earlier jobs are still in flight.
    SlowClient,
    /// A serving client sends a malformed / smeared protocol line; the
    /// daemon must answer with a typed error, never drop the connection
    /// or panic.
    MalformedLine,
    /// A specific rank of the N-device fabric dies at the start of a
    /// superstep (fail-stop, like [`CrashDevice`](FaultKind::CrashDevice)
    /// but addressing the rank in the kind itself so plans read
    /// `step:crash-rank:k`). The membership machine evicts the rank and
    /// re-splits its partition over the survivors.
    CrashRank(u8),
    /// The link between two ranks is severed at a superstep boundary: both
    /// ends observe a dropped exchange, but *neither rank is dead*. The
    /// membership machine must evict exactly one deterministic side (the
    /// higher rank id — survivors re-anchor on the smallest live rank)
    /// rather than both. Always stored with `i < j`.
    PartitionLink(u8, u8),
}

/// Where the batch engines have an injection site for a fault kind — the
/// one list that `phigraph run` checks a plan against and that the fault
/// table in `docs/fault_tolerance.md` mirrors in its "fires on" column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Sites {
    /// A single device only (the integrity rungs of a lone rank).
    OneDevice,
    /// A rank fabric only (links, liveness, frames).
    Ranks,
    /// A single device and a rank fabric alike.
    Both,
    /// No batch site: a serving-chaos kind.
    ServeOnly,
}

impl Sites {
    /// The label of the docs table's "fires on" column.
    #[cfg(test)]
    fn label(&self) -> &'static str {
        match self {
            Sites::OneDevice => "one device",
            Sites::Ranks => "N ranks",
            Sites::Both => "both",
            Sites::ServeOnly => "serve only",
        }
    }
}

impl FaultKind {
    /// All *fieldless* kinds, for seeded sampling. The parameterized
    /// multi-rank kinds ([`CrashRank`](FaultKind::CrashRank),
    /// [`PartitionLink`](FaultKind::PartitionLink)) are excluded — they
    /// address concrete rank ids, so random sweeps construct them
    /// explicitly from the live topology.
    pub const ALL: [FaultKind; 15] = [
        FaultKind::KillWorker,
        FaultKind::KillMover,
        FaultKind::PoisonInsert,
        FaultKind::CorruptCheckpoint,
        FaultKind::DropExchange,
        FaultKind::CrashDevice,
        FaultKind::HangDevice,
        FaultKind::SlowDevice,
        FaultKind::BitFlipMessage,
        FaultKind::BitFlipState,
        FaultKind::TruncateFrame,
        FaultKind::KillDaemon,
        FaultKind::HangWorkerJob,
        FaultKind::SlowClient,
        FaultKind::MalformedLine,
    ];

    /// The serving-chaos subset (`phigraph serve-chaos` draws its seeded
    /// event plan from these; the batch engines never see them).
    pub const SERVE: [FaultKind; 4] = [
        FaultKind::KillDaemon,
        FaultKind::HangWorkerJob,
        FaultKind::SlowClient,
        FaultKind::MalformedLine,
    ];

    /// The silent-data-corruption subset (nothing fail-stops; only the
    /// integrity subsystem can observe these).
    pub const SDC: [FaultKind; 3] = [
        FaultKind::BitFlipMessage,
        FaultKind::BitFlipState,
        FaultKind::TruncateFrame,
    ];

    /// Where this kind has an injection site (see [`Sites`]).
    pub(crate) fn sites(&self) -> Sites {
        match self {
            FaultKind::KillWorker
            | FaultKind::KillMover
            | FaultKind::PoisonInsert
            | FaultKind::CorruptCheckpoint
            | FaultKind::BitFlipMessage => Sites::Both,
            FaultKind::BitFlipState => Sites::OneDevice,
            FaultKind::DropExchange
            | FaultKind::CrashDevice
            | FaultKind::HangDevice
            | FaultKind::SlowDevice
            | FaultKind::TruncateFrame
            | FaultKind::CrashRank(_)
            | FaultKind::PartitionLink(_, _) => Sites::Ranks,
            FaultKind::KillDaemon
            | FaultKind::HangWorkerJob
            | FaultKind::SlowClient
            | FaultKind::MalformedLine => Sites::ServeOnly,
        }
    }

    /// Whether this kind has an injection site on a batch run of `ranks`
    /// ranks (1 = a single device).
    pub(crate) fn fires_on(&self, ranks: usize) -> bool {
        match self.sites() {
            Sites::OneDevice => ranks == 1,
            Sites::Ranks => ranks > 1,
            Sites::Both => true,
            Sites::ServeOnly => false,
        }
    }

    /// Build a normalized link-partition kind (`i < j` always).
    pub fn partition_link(a: u8, b: u8) -> Self {
        assert!(a != b, "a link needs two distinct ranks");
        FaultKind::PartitionLink(a.min(b), a.max(b))
    }

    /// Short stable name (CLI flag values, report lines). Parameterized
    /// kinds return their base name; `Display` carries the parameters.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::KillWorker => "worker",
            FaultKind::KillMover => "mover",
            FaultKind::PoisonInsert => "insert",
            FaultKind::CorruptCheckpoint => "checkpoint",
            FaultKind::DropExchange => "exchange",
            FaultKind::CrashDevice => "crash",
            FaultKind::HangDevice => "hang",
            FaultKind::SlowDevice => "slow",
            FaultKind::BitFlipMessage => "bitflip-msg",
            FaultKind::BitFlipState => "bitflip-state",
            FaultKind::TruncateFrame => "truncate-frame",
            FaultKind::KillDaemon => "daemon-kill",
            FaultKind::HangWorkerJob => "worker-hang",
            FaultKind::SlowClient => "slow-client",
            FaultKind::MalformedLine => "malformed-line",
            FaultKind::CrashRank(_) => "crash-rank",
            FaultKind::PartitionLink(_, _) => "partition-link",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::CrashRank(r) => write!(f, "crash-rank:{r}"),
            FaultKind::PartitionLink(i, j) => write!(f, "partition-link:{i}-{j}"),
            _ => f.write_str(self.name()),
        }
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(k) = FaultKind::ALL.iter().copied().find(|k| k.name() == s) {
            return Ok(k);
        }
        if let Some(rest) = s.strip_prefix("crash-rank:") {
            let r: u8 = rest
                .parse()
                .map_err(|_| format!("bad rank {rest:?} in fault kind {s:?}"))?;
            return Ok(FaultKind::CrashRank(r));
        }
        if let Some(rest) = s.strip_prefix("partition-link:") {
            let (a, b) = rest
                .split_once('-')
                .ok_or_else(|| format!("fault kind {s:?} needs two ranks (i-j)"))?;
            let a: u8 = a
                .parse()
                .map_err(|_| format!("bad rank {a:?} in fault kind {s:?}"))?;
            let b: u8 = b
                .parse()
                .map_err(|_| format!("bad rank {b:?} in fault kind {s:?}"))?;
            if a == b {
                return Err(format!("fault kind {s:?} links a rank to itself"));
            }
            return Ok(FaultKind::partition_link(a, b));
        }
        let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        Err(format!(
            "unknown fault kind {s:?} (expected one of {}|crash-rank:k|partition-link:i-j)",
            names.join("|")
        ))
    }
}

/// One planned failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Superstep at which the fault strikes.
    pub superstep: u64,
    /// Failure mode.
    pub kind: FaultKind,
    /// Device the fault strikes (0 = CPU, 1 = MIC; single-device runs are
    /// device 0).
    pub device: u8,
}

impl std::fmt::Display for FaultSpec {
    /// The canonical spec-string form `step:kind:device` (device elided
    /// when 0, matching the CLI shorthand).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.device == 0 {
            write!(f, "{}:{}", self.superstep, self.kind)
        } else {
            write!(f, "{}:{}:{}", self.superstep, self.kind, self.device)
        }
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = String;

    /// Parse `step:kind` or `step:kind:device`, where `kind` itself may
    /// carry colon-separated parameters (`crash-rank:k`,
    /// `partition-link:i-j`). Never panics: every malformed field becomes
    /// a descriptive error.
    fn from_str(s: &str) -> Result<Self, String> {
        let Some((first, rest)) = s.split_once(':') else {
            return Err(format!(
                "bad fault spec {s:?} (expected step:kind or step:kind:device)"
            ));
        };
        let superstep: u64 = first
            .parse()
            .map_err(|_| format!("bad superstep {first:?} in fault spec {s:?}"))?;
        // The whole remainder as one (possibly parameterized) kind first,
        // then the legacy `kind:device` split.
        match rest.parse::<FaultKind>() {
            Ok(kind) => Ok(FaultSpec {
                superstep,
                kind,
                device: 0,
            }),
            Err(kind_err) => {
                if let Some((k, d)) = rest.rsplit_once(':') {
                    if let Ok(kind) = k.parse::<FaultKind>() {
                        let device: u8 = d
                            .parse()
                            .map_err(|_| format!("bad device {d:?} in fault spec {s:?}"))?;
                        return Ok(FaultSpec {
                            superstep,
                            kind,
                            device,
                        });
                    }
                }
                Err(kind_err)
            }
        }
    }
}

/// A deterministic list of planned failures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned faults.
    pub faults: Vec<FaultSpec>,
}

impl std::fmt::Display for FaultPlan {
    /// Comma-joined [`FaultSpec`] spec strings (the `--faults` flag value).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, spec) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    /// Parse a comma-separated list of `step:kind[:device]` specs. The
    /// empty string is the empty plan.
    fn from_str(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            plan.faults.push(part.parse()?);
        }
        Ok(plan)
    }
}

impl FaultPlan {
    /// Check that every planned fault can take effect on a batch run of
    /// `ranks` ranks (1 = a single device): its kind has an injection site
    /// there, and every rank it names exists. The parameterized kinds name
    /// their ranks in the kind, so they take no device suffix. The error
    /// names the kinds that do apply.
    pub fn check_ranks(&self, ranks: usize) -> Result<(), String> {
        let run = if ranks == 1 {
            "one device".to_string()
        } else {
            format!("{ranks} ranks")
        };
        for f in &self.faults {
            if !f.kind.fires_on(ranks) {
                let mut apply: Vec<&str> = FaultKind::ALL
                    .iter()
                    .filter(|k| k.fires_on(ranks))
                    .map(|k| k.name())
                    .collect();
                if ranks > 1 {
                    apply.extend(["crash-rank:k", "partition-link:i-j"]);
                }
                return Err(format!(
                    "fault {f} has no injection site on {run} (kinds that apply: {})",
                    apply.join("|")
                ));
            }
            let named = match f.kind {
                FaultKind::CrashRank(_) | FaultKind::PartitionLink(_, _) if f.device != 0 => {
                    return Err(format!(
                        "fault {f}: {} names its ranks in the kind and takes no device",
                        f.kind.name()
                    ));
                }
                FaultKind::CrashRank(r) | FaultKind::PartitionLink(_, r) => r,
                _ => f.device,
            };
            if named as usize >= ranks {
                return Err(format!(
                    "fault {f} names rank {named}, but the run's ranks are 0..={}",
                    ranks - 1
                ));
            }
        }
        Ok(())
    }

    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan with a single fault on device 0.
    pub fn single(superstep: u64, kind: FaultKind) -> Self {
        FaultPlan {
            faults: vec![FaultSpec {
                superstep,
                kind,
                device: 0,
            }],
        }
    }

    /// Add a fault (builder style).
    pub fn with(mut self, superstep: u64, kind: FaultKind, device: u8) -> Self {
        self.faults.push(FaultSpec {
            superstep,
            kind,
            device,
        });
        self
    }

    /// Draw `count` faults uniformly over supersteps `0..max_step`, kinds
    /// `kinds`, and devices `0..devices`, from the vendored PRNG. Fully
    /// deterministic per seed.
    pub fn random(
        seed: u64,
        count: usize,
        max_step: u64,
        kinds: &[FaultKind],
        devices: u8,
    ) -> Self {
        assert!(!kinds.is_empty() && max_step > 0 && devices > 0);
        let mut rng = SplitMix64::seed_from_u64(seed);
        let faults = (0..count)
            .map(|_| FaultSpec {
                superstep: rng.random_range(0u64..max_step),
                kind: kinds[rng.random_range(0usize..kinds.len())],
                device: rng.random_range(0u8..devices),
            })
            .collect();
        FaultPlan { faults }
    }

    /// Compile into the shared fire-once injector handed to engines.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(Inner {
                faults: self.faults.clone(),
                fired: self.faults.iter().map(|_| AtomicBool::new(false)).collect(),
                fired_total: AtomicU64::new(0),
            }),
        }
    }
}

#[derive(Debug)]
struct Inner {
    faults: Vec<FaultSpec>,
    fired: Vec<AtomicBool>,
    fired_total: AtomicU64,
}

/// Shared fire-once view of a [`FaultPlan`]. Clones share state, so a fault
/// consumed on one device/config clone stays consumed everywhere.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    inner: Arc<Inner>,
}

impl FaultInjector {
    /// Consume and fire the matching planned fault, if any. Returns `true`
    /// exactly once per matching [`FaultSpec`]; replays of the same
    /// superstep after rollback see `false`.
    pub fn fire(&self, superstep: u64, kind: FaultKind, device: u8) -> bool {
        for (spec, fired) in self.inner.faults.iter().zip(&self.inner.fired) {
            if spec.superstep == superstep
                && spec.kind == kind
                && spec.device == device
                && fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                self.inner.fired_total.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Peek whether an un-fired fault of `kind` is planned for `superstep`
    /// on `device` without consuming it.
    pub fn pending(&self, superstep: u64, kind: FaultKind, device: u8) -> bool {
        self.inner
            .faults
            .iter()
            .zip(&self.inner.fired)
            .any(|(spec, fired)| {
                spec.superstep == superstep
                    && spec.kind == kind
                    && spec.device == device
                    && !fired.load(Ordering::Acquire)
            })
    }

    /// Total faults fired so far across all clones.
    pub fn fired_count(&self) -> u64 {
        self.inner.fired_total.load(Ordering::Relaxed)
    }

    /// The underlying plan.
    pub fn plan(&self) -> &[FaultSpec] {
        &self.inner.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once() {
        let inj = FaultPlan::single(3, FaultKind::KillWorker).injector();
        assert!(!inj.fire(2, FaultKind::KillWorker, 0));
        assert!(!inj.fire(3, FaultKind::KillMover, 0));
        assert!(!inj.fire(3, FaultKind::KillWorker, 1));
        assert!(inj.pending(3, FaultKind::KillWorker, 0));
        assert!(inj.fire(3, FaultKind::KillWorker, 0));
        // Replay of the same superstep after rollback: quiet.
        assert!(!inj.fire(3, FaultKind::KillWorker, 0));
        assert!(!inj.pending(3, FaultKind::KillWorker, 0));
        assert_eq!(inj.fired_count(), 1);
    }

    #[test]
    fn clones_share_fired_state() {
        let inj = FaultPlan::single(0, FaultKind::PoisonInsert).injector();
        let clone = inj.clone();
        assert!(clone.fire(0, FaultKind::PoisonInsert, 0));
        assert!(!inj.fire(0, FaultKind::PoisonInsert, 0));
        assert_eq!(inj.fired_count(), 1);
    }

    #[test]
    fn duplicate_specs_fire_independently() {
        let plan =
            FaultPlan::new()
                .with(5, FaultKind::KillMover, 0)
                .with(5, FaultKind::KillMover, 0);
        let inj = plan.injector();
        assert!(inj.fire(5, FaultKind::KillMover, 0));
        assert!(inj.fire(5, FaultKind::KillMover, 0));
        assert!(!inj.fire(5, FaultKind::KillMover, 0));
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(9, 16, 10, &FaultKind::ALL, 2);
        let b = FaultPlan::random(9, 16, 10, &FaultKind::ALL, 2);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 16);
        assert!(a.faults.iter().all(|f| f.superstep < 10 && f.device < 2));
        let c = FaultPlan::random(10, 16, 10, &FaultKind::ALL, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(k.name().parse::<FaultKind>().unwrap(), k);
            assert_eq!(k.to_string(), k.name());
        }
        assert!("bogus".parse::<FaultKind>().is_err());
    }

    #[test]
    fn spec_strings_round_trip_all_kinds() {
        // Property: Display → FromStr is the identity for every kind,
        // every device form, over randomized supersteps.
        let mut rng = SplitMix64::seed_from_u64(42);
        for kind in FaultKind::ALL {
            for device in [0u8, 1, 7] {
                let spec = FaultSpec {
                    superstep: rng.random_range(0u64..1_000_000),
                    kind,
                    device,
                };
                let s = spec.to_string();
                assert_eq!(s.parse::<FaultSpec>().unwrap(), spec, "spec {s:?}");
            }
        }
    }

    #[test]
    fn multi_rank_kind_strings_round_trip() {
        // Property: Display → FromStr is the identity for the
        // parameterized multi-rank kinds over randomized rank ids,
        // standalone and embedded in specs/plans with random supersteps
        // and device forms — alongside the fieldless catalog.
        let mut rng = SplitMix64::seed_from_u64(1234);
        let mut plan = FaultPlan::new();
        for _ in 0..64 {
            let i = rng.random_range(0u8..63);
            let j = rng.random_range(i + 1..64u8);
            for kind in [
                FaultKind::CrashRank(rng.random_range(0u8..64)),
                FaultKind::partition_link(i, j),
            ] {
                assert_eq!(kind.to_string().parse::<FaultKind>().unwrap(), kind);
                for device in [0u8, 1, 5] {
                    let spec = FaultSpec {
                        superstep: rng.random_range(0u64..1_000_000),
                        kind,
                        device,
                    };
                    let s = spec.to_string();
                    assert_eq!(s.parse::<FaultSpec>().unwrap(), spec, "spec {s:?}");
                    plan.faults.push(spec);
                }
            }
        }
        // Whole plans mixing parameterized and fieldless kinds.
        plan.faults
            .extend(FaultPlan::random(5, 8, 20, &FaultKind::ALL, 3).faults);
        let s = plan.to_string();
        assert_eq!(s.parse::<FaultPlan>().unwrap(), plan);
    }

    #[test]
    fn multi_rank_kind_parsing_is_strict() {
        // partition-link is normalized to i < j on both construction and
        // parse, so injector equality matches however the user spells it.
        assert_eq!(
            "partition-link:2-1".parse::<FaultKind>().unwrap(),
            FaultKind::PartitionLink(1, 2)
        );
        assert_eq!(
            FaultKind::partition_link(5, 3),
            FaultKind::PartitionLink(3, 5)
        );
        assert_eq!(FaultKind::CrashRank(2).name(), "crash-rank");
        assert_eq!(FaultKind::PartitionLink(0, 1).name(), "partition-link");
        for bad in [
            "crash-rank:",
            "crash-rank:x",
            "crash-rank:300",
            "partition-link:1",
            "partition-link:1-1",
            "partition-link:a-2",
        ] {
            assert!(bad.parse::<FaultKind>().is_err(), "{bad:?} should fail");
        }
        // Spec forms: the kind's own parameters win the first colon; a
        // trailing device still parses.
        assert_eq!(
            "7:crash-rank:3".parse::<FaultSpec>().unwrap(),
            FaultSpec {
                superstep: 7,
                kind: FaultKind::CrashRank(3),
                device: 0
            }
        );
        assert_eq!(
            "4:partition-link:0-2".parse::<FaultSpec>().unwrap(),
            FaultSpec {
                superstep: 4,
                kind: FaultKind::PartitionLink(0, 2),
                device: 0
            }
        );
    }

    #[test]
    fn plan_strings_round_trip() {
        // Random plans of every size round-trip through the flag syntax.
        for seed in 0..8 {
            let plan = FaultPlan::random(seed, 11, 40, &FaultKind::ALL, 3);
            let s = plan.to_string();
            assert_eq!(s.parse::<FaultPlan>().unwrap(), plan, "plan {s:?}");
        }
        assert_eq!("".parse::<FaultPlan>().unwrap(), FaultPlan::new());
        assert_eq!(
            " 3:crash , 4:bitflip-msg:1 ".parse::<FaultPlan>().unwrap(),
            FaultPlan::new().with(3, FaultKind::CrashDevice, 0).with(
                4,
                FaultKind::BitFlipMessage,
                1
            )
        );
    }

    #[test]
    fn parse_errors_are_descriptive_not_panics() {
        let e = "2:warp-core".parse::<FaultPlan>().unwrap_err();
        assert!(e.contains("unknown fault kind"), "got {e:?}");
        assert!(e.contains("bitflip-msg"), "kind list missing: {e:?}");
        let e = "abc:crash".parse::<FaultPlan>().unwrap_err();
        assert!(e.contains("bad superstep"), "got {e:?}");
        let e = "1:crash:x".parse::<FaultPlan>().unwrap_err();
        assert!(e.contains("bad device"), "got {e:?}");
        let e = "1".parse::<FaultPlan>().unwrap_err();
        assert!(e.contains("bad fault spec"), "got {e:?}");
    }

    #[test]
    fn plans_are_checked_against_the_rank_count() {
        let check = |s: &str, ranks| s.parse::<FaultPlan>().unwrap().check_ranks(ranks);
        for ok in [
            "3:worker",
            "3:mover,5:checkpoint",
            "1:bitflip-msg,2:bitflip-state",
        ] {
            assert!(check(ok, 1).is_ok(), "{ok}");
        }
        for ok in [
            "3:worker:1",
            "2:exchange:2",
            "4:crash-rank:2",
            "3:partition-link:0-2",
        ] {
            assert!(check(ok, 3).is_ok(), "{ok}");
        }
        for kind in [
            "exchange",
            "crash",
            "hang",
            "slow",
            "truncate-frame",
            "crash-rank:1",
        ] {
            let err = check(&format!("2:{kind}"), 1).unwrap_err();
            assert!(err.contains("no injection site on one device"), "{err}");
            assert!(
                err.contains("worker|mover|insert"),
                "names what applies: {err}"
            );
        }
        assert!(check("3:partition-link:0-1", 1).is_err());
        assert!(check("2:bitflip-state:1", 2).is_err());
        for serve in [
            "daemon-kill",
            "worker-hang",
            "slow-client",
            "malformed-line",
        ] {
            assert!(check(&format!("2:{serve}"), 1).is_err(), "{serve}");
            assert!(check(&format!("2:{serve}"), 3).is_err(), "{serve}");
        }
        // Ranks past the fabric, in the device field or in the kind.
        assert!(check("3:worker:1", 1).is_err());
        assert!(check("3:exchange:3", 3).is_err());
        assert!(check("4:crash-rank:3", 3).is_err());
        assert!(check("3:partition-link:1-3", 3).is_err());
        assert!(
            check("4:crash-rank:1:1", 3).is_err(),
            "the kind names the rank"
        );
    }

    /// The fault table of docs/fault_tolerance.md lists every kind, and its
    /// "fires on" column matches [`FaultKind::sites`].
    #[test]
    fn docs_fault_table_mirrors_the_site_list() {
        let doc = include_str!("../../../docs/fault_tolerance.md");
        let header = "| kind (CLI name) | fires on |";
        let table = &doc[doc.find(header).expect("fault table header")..];
        let rows: Vec<&str> = table.lines().take_while(|l| l.starts_with('|')).collect();
        let kinds = FaultKind::ALL
            .iter()
            .copied()
            .chain([FaultKind::CrashRank(0), FaultKind::partition_link(0, 1)]);
        for k in kinds {
            // `(`name`)`, or `(`name:params`)` for the parameterized kinds.
            let cells = [format!("(`{}`", k.name()), format!("(`{}:", k.name())];
            let row = rows
                .iter()
                .find(|r| cells.iter().any(|c| r.contains(c.as_str())))
                .unwrap_or_else(|| panic!("no row for {}", k.name()));
            let fires_on = row.split('|').nth(2).unwrap().trim();
            assert_eq!(fires_on, k.sites().label(), "{}", k.name());
        }
    }

    #[test]
    fn concurrent_fire_is_exclusive() {
        let inj = FaultPlan::single(1, FaultKind::KillWorker).injector();
        let hits: u32 = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let inj = inj.clone();
                    s.spawn(move || u32::from(inj.fire(1, FaultKind::KillWorker, 0)))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(hits, 1);
    }
}
