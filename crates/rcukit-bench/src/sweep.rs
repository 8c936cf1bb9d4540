//! The paper's evaluation sweep: replay one deterministic address-space
//! workload against every backend across a range of thread counts.
//!
//! For every `(profile, thread count)` point the driver generates the
//! per-thread traces once, then replays the *identical* ops against each
//! backend — the RCU [`RangeMap`] on each of the four reclamation
//! backends (epoch, QSBR, hazard pointers, hybrid interval-based) and the
//! [`LockedAddressSpace`] baseline — timing the whole replay. One JSON record per `(profile,
//! threads, backend)` point goes to stdout as it completes, and the full
//! run is written as a `BENCH_addrspace.json` trajectory file.
//!
//! Replays are fixed-work (ops per thread), not fixed-duration, so a run
//! is exactly reproducible from its seed and directly comparable across
//! backends, machines, and repo history: only the elapsed time varies.
//!
//! The `stalled-reader` profile additionally parks one extra reader inside
//! the backend's read-side protection for the whole replay; its
//! `peak_unreclaimed_bytes` column is the bounded-garbage comparison (see
//! [`Profile::StalledReader`]).
//!
//! The `fork-storm` profile replays through a multi-tenant process
//! lifecycle instead of straight through: each thread runs
//! `forks_per_thread` fork/exec/exit cycles — `fork()` the youngest
//! lineage (timed per call), replay that lifecycle's chunk of the trace
//! against the child, keep a ring of `live_per_thread` live children,
//! exit the oldest — so hundreds of concurrent address spaces share
//! subtrees against one collector. Its records carry the fork count, the
//! peak live-space gauge, and fork-latency percentiles (see
//! [`Profile::ForkStorm`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use bonsai::{AddressSpace, RangeMap};
use rcukit::{ReclaimBackend, ReclaimKind};

use crate::baseline::LockedAddressSpace;
use crate::workload::{Op, Profile, Rng, WorkloadSpec};

/// Which address-space implementation a replay point runs against: the
/// RCU `RangeMap` on one of the four reclamation backends, or the locked
/// baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Bonsai-tree `RangeMap`, epoch-based reclamation (the default
    /// and historical "bonsai" record).
    Bonsai,
    /// The Bonsai-tree `RangeMap`, quiescent-state-based reclamation.
    Qsbr,
    /// The Bonsai-tree `RangeMap`, hazard-pointer reclamation (bounded
    /// garbage under a stalled reader).
    Hp,
    /// The Bonsai-tree `RangeMap`, hybrid interval-based reclamation:
    /// grace-period-cheap reads that degrade gracefully — a stalled
    /// reader blocks only garbage born before its pin, so
    /// `peak_unreclaimed_bytes` stays bounded while `stall_events` /
    /// `degraded_ops` record the degradation.
    Hybrid,
    /// The `RwLock<BTreeMap>` baseline (lock-serialized faults).
    Locked,
}

impl Backend {
    /// All backends, in reporting order.
    pub const ALL: [Backend; 5] = [
        Backend::Bonsai,
        Backend::Qsbr,
        Backend::Hp,
        Backend::Hybrid,
        Backend::Locked,
    ];

    /// The historical two-backend comparison (`backend=both`).
    pub const BOTH: [Backend; 2] = [Backend::Bonsai, Backend::Locked];

    /// The backend's name as used by the CLI and the JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Bonsai => "bonsai",
            Backend::Qsbr => "qsbr",
            Backend::Hp => "hp",
            Backend::Hybrid => "hybrid",
            Backend::Locked => "locked",
        }
    }

    /// The reclamation backend driving this point's `RangeMap`, or `None`
    /// for the locked baseline.
    pub fn reclaim_kind(self) -> Option<ReclaimKind> {
        match self {
            Backend::Bonsai => Some(ReclaimKind::Epoch),
            Backend::Qsbr => Some(ReclaimKind::Qsbr),
            Backend::Hp => Some(ReclaimKind::Hp),
            Backend::Hybrid => Some(ReclaimKind::Hybrid),
            Backend::Locked => None,
        }
    }

    /// Parses a CLI backend name.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "bonsai" => Ok(Backend::Bonsai),
            "qsbr" => Ok(Backend::Qsbr),
            "hp" => Ok(Backend::Hp),
            "hybrid" => Ok(Backend::Hybrid),
            "locked" => Ok(Backend::Locked),
            other => Err(format!(
                "unknown backend {other:?} (expected bonsai|qsbr|hp|hybrid|locked|both|all)"
            )),
        }
    }
}

/// Configuration for one sweep run.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Thread counts to scale across, e.g. `[1, 2, 4]`.
    pub threads: Vec<usize>,
    /// Profiles to run, e.g. all three.
    pub profiles: Vec<Profile>,
    /// Backends to compare.
    pub backends: Vec<Backend>,
    /// Operations each replaying thread performs.
    pub ops_per_thread: usize,
    /// Region slots per thread arena.
    pub slots_per_thread: u64,
    /// Maximum pages per mapped region.
    pub pages_per_slot: u64,
    /// Master seed for trace generation.
    pub seed: u64,
    /// Fork/exec/exit cycles per thread under the `fork-storm` profile
    /// (ignored by the others).
    pub forks_per_thread: usize,
    /// Live children each thread keeps before exiting the oldest, under
    /// the `fork-storm` profile (ignored by the others).
    pub live_per_thread: usize,
    /// Trajectory file path, or `None` for stdout-only.
    pub out: Option<String>,
}

impl SweepConfig {
    /// Validates the sweep shape and every workload spec it implies.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads.is_empty() {
            return Err("sweep needs at least one thread count".into());
        }
        if self.profiles.is_empty() {
            return Err("sweep needs at least one profile".into());
        }
        if self.backends.is_empty() {
            return Err("sweep needs at least one backend".into());
        }
        if self.forks_per_thread == 0 {
            return Err("forks per thread must be >= 1".into());
        }
        if self.live_per_thread == 0 {
            return Err("live children per thread must be >= 1".into());
        }
        for &threads in &self.threads {
            self.spec(self.profiles[0], threads).validate()?;
        }
        Ok(())
    }

    fn spec(&self, profile: Profile, threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            profile,
            threads,
            ops_per_thread: self.ops_per_thread,
            slots_per_thread: self.slots_per_thread,
            pages_per_slot: self.pages_per_slot,
            seed: self.seed,
        }
    }
}

/// Per-replay operation tallies, summed over threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Fault ops replayed.
    pub faults: u64,
    /// Faults that found a mapped region.
    pub fault_hits: u64,
    /// Map ops replayed.
    pub maps: u64,
    /// Map ops the backend rejected — always 0 unless a backend is buggy
    /// (traces are overlap-free by construction).
    pub map_rejects: u64,
    /// Unmap ops replayed.
    pub unmaps: u64,
    /// Unmap ops that found nothing — always 0 unless a backend is buggy.
    pub unmap_misses: u64,
    /// Multi-region `unmap_range` ops replayed (spans that remove several
    /// regions and split/truncate straddlers).
    pub unmap_ranges: u64,
    /// Ranged unmaps that affected no region — always 0 unless a backend
    /// is buggy (generated spans always intersect their anchor region).
    pub unmap_range_misses: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.faults += other.faults;
        self.fault_hits += other.fault_hits;
        self.maps += other.maps;
        self.map_rejects += other.map_rejects;
        self.unmaps += other.unmaps;
        self.unmap_misses += other.unmap_misses;
        self.unmap_ranges += other.unmap_ranges;
        self.unmap_range_misses += other.unmap_range_misses;
    }
}

/// One measured `(profile, threads, backend)` point.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Workload shape replayed.
    pub profile: Profile,
    /// Backend driven.
    pub backend: Backend,
    /// Replaying thread count.
    pub threads: usize,
    /// Wall-clock time for the whole replay.
    pub elapsed: Duration,
    /// Operation tallies across all threads.
    pub tally: Tally,
    /// Deferred retirements tagged by the reclamation backend (RCU
    /// backends only).
    pub retired: u64,
    /// Deferred retirements executed after the final grace period / scan.
    pub freed: u64,
    /// `retired == freed` after a final `synchronize` — the no-leak check.
    /// Trivially true for the locked backend (nothing is deferred).
    pub reclaim_ok: bool,
    /// High-water mark of retired-but-not-yet-reclaimed bytes over the
    /// whole replay (RCU backends; 0 for locked). The bounded-garbage
    /// gauge the `stalled-reader` profile compares: grace-period backends
    /// grow it with the stalled window; hazard pointers and the hybrid
    /// backend keep it bounded.
    pub peak_unreclaimed_bytes: u64,
    /// Readers the hybrid backend's scan declared stalled after their
    /// blocked garbage aged past the domain budget (hybrid backend only;
    /// 0 elsewhere). Nonzero on the `stalled-reader` profile is the
    /// degradation protocol firing as designed.
    pub stall_events: u64,
    /// Retirements performed while at least one reader was flagged
    /// stalled — ops served in degraded (bounded-garbage) mode rather
    /// than blocking on the stalled grace period (hybrid backend only).
    pub degraded_ops: u64,
    /// Root-CAS commits that lost to a concurrent writer and rebuilt
    /// (bonsai backend; always 0 at `threads == 1` and for locked). The
    /// wasted-work telemetry the bounded backoff exists to curb.
    pub cas_retries: u64,
    /// Speculative copy-on-write nodes those failed commits discarded.
    pub cas_wasted_nodes: u64,
    /// Single-thread read-side latency in nanoseconds per op, measured
    /// after the replay against its final state: one thread replaying
    /// `fault` calls — for the bonsai backend that is the full
    /// pin + lookup + unpin path whose per-op cost the ordering audit
    /// targets; for the locked backend, lock + lookup. Same address
    /// stream for every backend at a given `(profile, threads)` point.
    pub read_op_ns: f64,
    /// Fork-lifecycle metrics (`fork-storm` profile; all zeros elsewhere).
    pub fork: ForkMetrics,
}

/// Fork-latency and multi-tenancy metrics from a `fork-storm` replay.
/// All-zero for profiles that never fork.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForkMetrics {
    /// Address spaces forked over the whole replay (threads ×
    /// `forks_per_thread`).
    pub forks: u64,
    /// Peak number of concurrently live *forked* spaces across all
    /// threads (the shared parent is not counted).
    pub live_spaces_peak: u64,
    /// Median per-`fork()` latency in nanoseconds — O(depth) structural
    /// sharing on the RCU backends vs. the locked baseline's O(n) deep
    /// copy.
    pub fork_p50_ns: u64,
    /// 90th-percentile fork latency in nanoseconds.
    pub fork_p90_ns: u64,
    /// 99th-percentile fork latency in nanoseconds.
    pub fork_p99_ns: u64,
    /// Slowest single fork in nanoseconds.
    pub fork_max_ns: u64,
}

impl PointResult {
    /// Total replayed operations.
    pub fn total_ops(&self) -> u64 {
        self.tally.faults + self.tally.maps + self.tally.unmaps + self.tally.unmap_ranges
    }

    /// The record as one JSON object (also the stdout progress line).
    pub fn to_json(&self) -> String {
        let secs = self.elapsed.as_secs_f64();
        let t = &self.tally;
        format!(
            "{{\"profile\":\"{}\",\"backend\":\"{}\",\"threads\":{},\
             \"total_ops\":{},\"elapsed_ms\":{:.3},\"ops_per_sec\":{:.0},\
             \"faults\":{},\"fault_hits\":{},\"fault_hit_rate\":{:.3},\"faults_per_sec\":{:.0},\
             \"maps\":{},\"map_rejects\":{},\"unmaps\":{},\"unmap_misses\":{},\
             \"unmap_ranges\":{},\"unmap_range_misses\":{},\
             \"mutations_per_sec\":{:.0},\
             \"retired\":{},\"freed\":{},\"reclaim_ok\":{},\
             \"peak_unreclaimed_bytes\":{},\
             \"stall_events\":{},\"degraded_ops\":{},\
             \"cas_retries\":{},\"cas_wasted_nodes\":{},\
             \"read_op_ns\":{:.2},\
             \"forks\":{},\"live_spaces_peak\":{},\
             \"fork_p50_ns\":{},\"fork_p90_ns\":{},\"fork_p99_ns\":{},\
             \"fork_max_ns\":{}}}",
            self.profile.name(),
            self.backend.name(),
            self.threads,
            self.total_ops(),
            secs * 1e3,
            self.total_ops() as f64 / secs,
            t.faults,
            t.fault_hits,
            t.fault_hits as f64 / t.faults.max(1) as f64,
            t.faults as f64 / secs,
            t.maps,
            t.map_rejects,
            t.unmaps,
            t.unmap_misses,
            t.unmap_ranges,
            t.unmap_range_misses,
            (t.maps + t.unmaps + t.unmap_ranges) as f64 / secs,
            self.retired,
            self.freed,
            self.reclaim_ok,
            self.peak_unreclaimed_bytes,
            self.stall_events,
            self.degraded_ops,
            self.cas_retries,
            self.cas_wasted_nodes,
            self.read_op_ns,
            self.fork.forks,
            self.fork.live_spaces_peak,
            self.fork.fork_p50_ns,
            self.fork.fork_p90_ns,
            self.fork.fork_p99_ns,
            self.fork.fork_max_ns,
        )
    }
}

/// Faults sampled by the post-replay read-side microbench.
const READ_SAMPLE: usize = 100_000;

/// Single-thread read-side microbench: replays [`READ_SAMPLE`] `fault`
/// calls against the post-replay address space and returns the mean
/// nanoseconds per op. Addresses are pre-drawn (seeded from the spec, so
/// every backend at a point sees the identical stream) and the hit count
/// is kept live through `black_box`, so the timed loop is exactly the
/// backend's fault path — for bonsai, pin + lookup + unpin per call.
fn read_microbench<A: AddressSpace>(space: &A, spec: &WorkloadSpec) -> f64 {
    let mut rng = Rng::new(spec.seed ^ 0xB1C9_0DD5_EE75_11A7);
    let addrs: Vec<u64> = (0..READ_SAMPLE).map(|_| rng.below(spec.span())).collect();
    let started = Instant::now();
    let mut hits = 0u64;
    for &addr in &addrs {
        if space.fault(addr) {
            hits += 1;
        }
    }
    let elapsed = started.elapsed();
    std::hint::black_box(hits);
    elapsed.as_nanos() as f64 / READ_SAMPLE as f64
}

/// Replays one op slice against one address space, updating `tally` —
/// the inner loop shared by the straight-through replay (whole trace,
/// one space) and the fork-storm lifecycle (per-child chunks).
fn replay_ops(space: &dyn AddressSpace, ops: &[Op], tally: &mut Tally) {
    for op in ops {
        match *op {
            Op::Fault(addr) => {
                tally.faults += 1;
                if space.fault(addr) {
                    tally.fault_hits += 1;
                }
            }
            Op::Map(start, end) => {
                tally.maps += 1;
                if !space.map(start, end) {
                    tally.map_rejects += 1;
                }
            }
            Op::Unmap(start) => {
                tally.unmaps += 1;
                if !space.unmap(start) {
                    tally.unmap_misses += 1;
                }
            }
            Op::UnmapRange(start, end) => {
                tally.unmap_ranges += 1;
                if space.unmap_range(start, end) == 0 {
                    tally.unmap_range_misses += 1;
                }
            }
        }
    }
}

/// Replays pre-generated traces against `space`, one thread per trace,
/// started together behind a barrier. Returns wall time and summed tallies.
///
/// Each worker timestamps its own start and finish; the replay's wall time
/// is `max(finish) - min(start)`. Timing on the main thread instead would
/// under-measure on oversubscribed boxes: workers can replay for
/// milliseconds before a barrier-released main thread is rescheduled.
fn replay<A: AddressSpace + 'static>(
    space: Arc<A>,
    spec: &WorkloadSpec,
    traces: Arc<Vec<Vec<Op>>>,
) -> (Duration, Tally) {
    for t in 0..spec.threads {
        for (start, end) in spec.initial_regions(t) {
            assert!(space.map(start, end), "initial region overlap");
        }
    }
    let barrier = Arc::new(Barrier::new(spec.threads));
    let mut workers = Vec::with_capacity(spec.threads);
    for t in 0..spec.threads {
        let space = space.clone();
        let traces = traces.clone();
        let barrier = barrier.clone();
        workers.push(thread::spawn(move || {
            let mut tally = Tally::default();
            barrier.wait();
            let started = Instant::now();
            replay_ops(&*space, &traces[t], &mut tally);
            (started, Instant::now(), tally)
        }));
    }
    let mut tally = Tally::default();
    let mut first_start: Option<Instant> = None;
    let mut last_finish: Option<Instant> = None;
    for worker in workers {
        let (started, finished, t) = worker.join().expect("replay thread panicked");
        tally.add(&t);
        first_start = Some(first_start.map_or(started, |s| s.min(started)));
        last_finish = Some(last_finish.map_or(finished, |f| f.max(finished)));
    }
    let elapsed = match (first_start, last_finish) {
        (Some(s), Some(f)) => f.duration_since(s),
        _ => Duration::ZERO,
    };
    (elapsed, tally)
}

/// The `fork-storm` lifecycle replay: each thread runs `forks_per_thread`
/// fork/exec/exit cycles against its own lineage chain, all over one
/// shared collector.
///
/// Per cycle, a worker `fork()`s its *youngest* child (the first cycle
/// forks the shared parent) with the call timed in nanoseconds, replays
/// that lifecycle's contiguous chunk of the thread's trace against the
/// new child (the exec remap burst and run phase of
/// [`Profile::ForkStorm`]'s trace shape), pushes the child onto a ring of
/// at most `live_per_thread` live spaces, and exits (drops) the oldest
/// when the ring overflows. Chunks partition the trace in order and each
/// mutates only the newest lineage, so the generator's sequential state
/// model stays exact — zero rejects/misses still means a correct backend
/// — while every older child in the ring is a frozen snapshot sharing
/// subtrees with the live tip until its exit retires whatever it alone
/// still references.
///
/// The parent space is never mutated after its initial regions, so every
/// thread's chain (which also inherits the other threads' initial arenas)
/// sees deterministic state regardless of interleaving.
fn replay_fork_storm<A: AddressSpace + 'static>(
    space: Arc<A>,
    spec: &WorkloadSpec,
    traces: Arc<Vec<Vec<Op>>>,
    forks_per_thread: usize,
    live_per_thread: usize,
) -> (Duration, Tally, ForkMetrics) {
    for t in 0..spec.threads {
        for (start, end) in spec.initial_regions(t) {
            assert!(space.map(start, end), "initial region overlap");
        }
    }
    let barrier = Arc::new(Barrier::new(spec.threads));
    // Cross-thread live-space gauge: +1 per fork, -1 per exit, peak kept
    // via fetch_max. Relaxed everywhere — telemetry, no data published.
    let live_now = Arc::new(AtomicU64::new(0));
    let live_peak = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::with_capacity(spec.threads);
    for t in 0..spec.threads {
        let space = space.clone();
        let traces = traces.clone();
        let barrier = barrier.clone();
        let live_now = live_now.clone();
        let live_peak = live_peak.clone();
        workers.push(thread::spawn(move || {
            let trace = &traces[t];
            let mut tally = Tally::default();
            let mut fork_ns = Vec::with_capacity(forks_per_thread);
            let mut ring: VecDeque<Box<dyn AddressSpace>> =
                VecDeque::with_capacity(live_per_thread + 1);
            barrier.wait();
            let started = Instant::now();
            for f in 0..forks_per_thread {
                let fork_start = Instant::now();
                let child = match ring.back() {
                    Some(tip) => tip.fork(),
                    None => space.fork(),
                };
                fork_ns.push(fork_start.elapsed().as_nanos() as u64);
                let n = live_now.fetch_add(1, Relaxed) + 1;
                live_peak.fetch_max(n, Relaxed);
                let lo = f * trace.len() / forks_per_thread;
                let hi = (f + 1) * trace.len() / forks_per_thread;
                replay_ops(&*child, &trace[lo..hi], &mut tally);
                ring.push_back(child);
                if ring.len() > live_per_thread {
                    drop(ring.pop_front());
                    live_now.fetch_sub(1, Relaxed);
                }
            }
            // Exit every still-live child before the clock stops: the
            // storm's teardown (and its retirement burst) is part of the
            // measured lifecycle, not an afterthought.
            live_now.fetch_sub(ring.len() as u64, Relaxed);
            ring.clear();
            (started, Instant::now(), tally, fork_ns)
        }));
    }
    let mut tally = Tally::default();
    let mut all_fork_ns = Vec::with_capacity(spec.threads * forks_per_thread);
    let mut first_start: Option<Instant> = None;
    let mut last_finish: Option<Instant> = None;
    for worker in workers {
        let (started, finished, t, fork_ns) = worker.join().expect("fork-storm thread panicked");
        tally.add(&t);
        all_fork_ns.extend(fork_ns);
        first_start = Some(first_start.map_or(started, |s| s.min(started)));
        last_finish = Some(last_finish.map_or(finished, |f| f.max(finished)));
    }
    let elapsed = match (first_start, last_finish) {
        (Some(s), Some(f)) => f.duration_since(s),
        _ => Duration::ZERO,
    };
    all_fork_ns.sort_unstable();
    let pct = |p: usize| all_fork_ns[(all_fork_ns.len() - 1) * p / 100];
    let fork = ForkMetrics {
        forks: all_fork_ns.len() as u64,
        live_spaces_peak: live_peak.load(Relaxed),
        fork_p50_ns: pct(50),
        fork_p90_ns: pct(90),
        fork_p99_ns: pct(99),
        fork_max_ns: *all_fork_ns.last().expect("at least one fork per thread"),
    };
    (elapsed, tally, fork)
}

/// Runs `f` with one extra reader parked inside `backend`'s read-side
/// protection (the `stalled-reader` profile's adversary): a pinned epoch
/// guard, a registered-but-never-announcing QSBR thread, or a hazard
/// session protecting a pointer. The protection is held on the calling
/// thread — which never replays ops — and released before the caller's
/// final `synchronize`, so the drain cannot deadlock on it.
fn with_stalled_reader<R>(backend: &ReclaimBackend, f: impl FnOnce() -> R) -> R {
    match backend {
        ReclaimBackend::Epoch(c) => {
            let handle = c.register();
            let _pin = handle.pin();
            f()
        }
        ReclaimBackend::Qsbr(d) => {
            // Registered and online, but never announcing quiescence:
            // every grace period stalls behind it.
            let _handle = d.register();
            f()
        }
        ReclaimBackend::Hp(d) => {
            // A session squatting on a protected pointer mid-"traversal".
            // It occupies hazard slots but can only shield what it names —
            // the scan frees everything else, which is the bound.
            let parked = Box::into_raw(Box::new(0u64));
            let session = d.session();
            session.protect(0, parked.cast());
            let out = f();
            drop(session);
            // Safety: only this function ever saw the allocation.
            unsafe { drop(Box::from_raw(parked)) };
            out
        }
        ReclaimBackend::Hybrid(d) => {
            // A pin parked at its birth era for the whole replay. It can
            // only block garbage born at or before that era — everything
            // the replay itself creates and retires is freed regardless
            // (the interval rule), and once the blocked residue ages past
            // the domain budget the scan flags the pin stalled
            // (`stall_events`) and retirements count as `degraded_ops`.
            let _pin = d.pin();
            f()
        }
    }
}

/// Runs one `(profile, threads, backend)` point.
fn run_point(
    cfg: &SweepConfig,
    profile: Profile,
    threads: usize,
    backend: Backend,
    traces: &Arc<Vec<Vec<Op>>>,
) -> PointResult {
    let spec = cfg.spec(profile, threads);
    let (elapsed, tally, fork, stats, cas_retries, cas_wasted_nodes, read_op_ns) =
        match backend.reclaim_kind() {
            Some(kind) => {
                let reclaim = ReclaimBackend::new(kind);
                let space: Arc<RangeMap<()>> = Arc::new(RangeMap::with_backend(reclaim.clone()));
                let (elapsed, tally, fork) = if profile.forks_processes() {
                    replay_fork_storm(
                        Arc::clone(&space),
                        &spec,
                        Arc::clone(traces),
                        cfg.forks_per_thread,
                        cfg.live_per_thread,
                    )
                } else if profile.stalls_a_reader() {
                    let (elapsed, tally) = with_stalled_reader(&reclaim, || {
                        replay(Arc::clone(&space), &spec, Arc::clone(traces))
                    });
                    (elapsed, tally, ForkMetrics::default())
                } else {
                    let (elapsed, tally) = replay(Arc::clone(&space), &spec, Arc::clone(traces));
                    (elapsed, tally, ForkMetrics::default())
                };
                let read_op_ns = read_microbench(&*space, &spec);
                let cas = (space.cas_retries(), space.cas_wasted_nodes());
                // Writers retire a chunk of nodes at a time and a map's
                // drop hands over the partial chunks: drop the space
                // before the final drain so `retired == freed` covers
                // every node the replay replaced.
                drop(space);
                reclaim.synchronize();
                let stats = reclaim.stats();
                (elapsed, tally, fork, stats, cas.0, cas.1, read_op_ns)
            }
            None => {
                let space = Arc::new(LockedAddressSpace::new());
                let (elapsed, tally, fork) = if profile.forks_processes() {
                    replay_fork_storm(
                        Arc::clone(&space),
                        &spec,
                        Arc::clone(traces),
                        cfg.forks_per_thread,
                        cfg.live_per_thread,
                    )
                } else {
                    let (elapsed, tally) = replay(Arc::clone(&space), &spec, Arc::clone(traces));
                    (elapsed, tally, ForkMetrics::default())
                };
                let read_op_ns = read_microbench(&*space, &spec);
                (elapsed, tally, fork, Default::default(), 0, 0, read_op_ns)
            }
        };
    PointResult {
        profile,
        backend,
        threads,
        elapsed,
        tally,
        retired: stats.objects_retired,
        freed: stats.objects_freed,
        reclaim_ok: stats.objects_retired == stats.objects_freed,
        peak_unreclaimed_bytes: stats.peak_unreclaimed_bytes,
        stall_events: stats.stall_events,
        degraded_ops: stats.degraded_ops,
        cas_retries,
        cas_wasted_nodes,
        read_op_ns,
        fork,
    }
}

/// Runs the full sweep, printing each point's JSON record to stdout as it
/// completes. Call [`SweepConfig::validate`] first; this panics on an
/// invalid config.
pub fn run(cfg: &SweepConfig) -> Vec<PointResult> {
    cfg.validate().expect("invalid sweep config");
    let mut results = Vec::new();
    for &profile in &cfg.profiles {
        for &threads in &cfg.threads {
            // One trace set per point, shared verbatim by every backend —
            // the comparison is apples-to-apples by construction.
            let spec = cfg.spec(profile, threads);
            let traces = Arc::new((0..threads).map(|t| spec.thread_trace(t)).collect());
            for &backend in &cfg.backends {
                let point = run_point(cfg, profile, threads, backend, &traces);
                println!("{}", point.to_json());
                results.push(point);
            }
        }
    }
    results
}

/// Renders the whole run as the `BENCH_addrspace.json` trajectory document.
pub fn render_trajectory(cfg: &SweepConfig, results: &[PointResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    // v7 (over v6): the `hybrid` interval-based reclamation backend
    // (stall-tolerant graceful degradation) and the per-record
    // `stall_events` / `degraded_ops` columns surfacing when a stalled
    // reader tripped the degradation protocol — zeros on the other
    // backends. v6 added the multi-tenant `fork-storm` profile (per-thread
    // fork/exec/exit lifecycles over structurally shared address spaces)
    // and its per-record `forks`, `live_spaces_peak`, and
    // `fork_p50/p90/p99/max_ns` latency columns — zeros on profiles that
    // never fork. v5 added the `qsbr` and `hp` backends (same traces,
    // different reclamation), the adversarial `stalled-reader` profile,
    // and the `peak_unreclaimed_bytes` per-record gauge. v4 added
    // the `read-heavy` profile (~99% faults) and the `read_op_ns`
    // per-record single-thread read-side microbench — the per-op
    // pin+lookup latency point the ordering audit's payoff shows up
    // in. v3 added the `metis-phased` profile (mid-trace mix shift) and
    // the `cas_retries`/`cas_wasted_nodes` telemetry from the striped
    // range-lock + arena writer path. v2 added the `writers` profile,
    // multi-region `unmap_range` ops (`unmap_ranges`/`unmap_range_misses`),
    // and range-locked parallel writers on the bonsai backend.
    out.push_str("  \"schema\": \"rcukit-bench/addrspace-v7\",\n");
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"ops_per_thread\": {},\n", cfg.ops_per_thread));
    out.push_str(&format!(
        "  \"forks_per_thread\": {},\n",
        cfg.forks_per_thread
    ));
    out.push_str(&format!(
        "  \"live_per_thread\": {},\n",
        cfg.live_per_thread
    ));
    out.push_str(&format!(
        "  \"slots_per_thread\": {},\n",
        cfg.slots_per_thread
    ));
    out.push_str(&format!("  \"pages_per_slot\": {},\n", cfg.pages_per_slot));
    out.push_str("  \"results\": [\n");
    for (i, point) in results.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&point.to_json());
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
