//! Replaying cycles against an address space: the op loop, the fork/exec/
//! exit lifecycle, timed repeats and passes.
//!
//! The load is a closed loop: each thread issues its next op when the
//! previous one returns. A *repeat* is a fixed number of cycles per thread;
//! a *pass* is one discarded warm-up repeat and then a fixed number of
//! timed ones, so a run does the same work whatever the machine's speed. `Collector::synchronize` runs after every
//! repeat, outside the timed window, so no repeat pays for its
//! predecessor's garbage.

use std::collections::VecDeque;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use bonsai::{AddressSpace, RangeMap};
use rcukit::Collector;

use crate::alloc;
use crate::locked::LockedAddressSpace;
use crate::spans::{Class, Clock, NoClock, CLASSES, LIFECYCLE, SEGMENT};
use crate::stats::Summary;
use crate::trace::{ForkShape, Op, Packed, Workload, THREADS};

/// Calls made and calls that went wrong, per thread or summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Calls per [`Class`].
    pub calls: [u64; CLASSES],
    /// Refused maps, missed unmaps, spans that hit nothing, and faults that
    /// disagree with the model.
    pub failed: u64,
}

impl Tally {
    /// All calls.
    pub fn ops(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Calls that change the mapping set.
    pub fn mutations(&self) -> u64 {
        [Class::Map, Class::Unmap, Class::UnmapRange]
            .iter()
            .map(|&c| self.calls[c as usize])
            .sum()
    }

    /// Adds `other` in.
    pub fn add(&mut self, other: &Tally) {
        for (a, b) in self.calls.iter_mut().zip(other.calls) {
            *a += b;
        }
        self.failed += other.failed;
    }
}

/// Replays one op. `check_cross` says whether verdicts on faults into
/// another thread's arena hold (that arena is static) or not (it is being
/// mutated concurrently).
#[inline(always)]
fn apply<C: Clock>(
    space: &dyn AddressSpace,
    packed: Packed,
    check_cross: bool,
    tally: &mut Tally,
    clock: &mut C,
) {
    let (class, ok) = match packed.op() {
        Op::Fault(addr) => {
            let hit = clock.op(Class::Fault, || space.fault(addr));
            let verdict = packed.verdict();
            let checked = check_cross || !verdict.cross;
            (Class::Fault, !checked || hit == verdict.hit)
        }
        Op::Map(start, end) => (Class::Map, clock.op(Class::Map, || space.map(start, end))),
        Op::Unmap(start) => (Class::Unmap, clock.op(Class::Unmap, || space.unmap(start))),
        Op::UnmapRange(start, end) => (
            Class::UnmapRange,
            clock.op(Class::UnmapRange, || space.unmap_range(start, end)) > 0,
        ),
    };
    tally.calls[class as usize] += 1;
    tally.failed += !ok as u64;
}

/// One thread's chain of forked children, youngest last. It outlives the
/// repeats, so a repeat forks the child its predecessor left behind.
pub type Lineage = VecDeque<Box<dyn AddressSpace>>;

/// Replays `cycle` `cycles` times on one thread.
///
/// Without `forks` the ops go straight to `space`. With it, every chunk is
/// a lifecycle: fork the youngest child of `lineage` (the first time, the
/// shared parent `space`, which is never mutated), replay the chunk against
/// the new child, and exit the oldest child once more than `live` are held.
/// Each lineage is private to its thread, so every verdict holds.
fn replay_thread<C: Clock>(
    space: &dyn AddressSpace,
    lineage: &mut Lineage,
    cycle: &[Packed],
    cycles: usize,
    check_cross: bool,
    forks: Option<ForkShape>,
    clock: &mut C,
) -> Tally {
    let mut tally = Tally::default();
    for _ in 0..cycles {
        let segment = clock.open(SEGMENT);
        let Some(shape) = forks else {
            for &op in cycle {
                apply(space, op, check_cross, &mut tally, clock);
            }
            clock.close(segment);
            continue;
        };
        for chunk in cycle.chunks(shape.chunk) {
            let lifecycle = clock.open(LIFECYCLE);
            let child = clock.each(Class::Fork, || match lineage.back() {
                Some(tip) => tip.fork(),
                None => space.fork(),
            });
            tally.calls[Class::Fork as usize] += 1;
            for &op in chunk {
                apply(&*child, op, true, &mut tally, clock);
            }
            lineage.push_back(child);
            if lineage.len() > shape.live {
                let oldest = lineage.pop_front();
                clock.each(Class::Exit, || drop(oldest));
                tally.calls[Class::Exit as usize] += 1;
            }
            clock.close(lifecycle);
        }
        clock.close(segment);
    }
    tally
}

/// An address space under test with what the harness needs around it.
pub struct Subject {
    /// The address space (on a forking workload: the shared parent).
    pub space: Box<dyn AddressSpace>,
    /// Its collector; `None` for the locked baseline.
    pub collector: Option<Collector>,
    /// Per-thread lineages of a forking workload; empty deques otherwise.
    pub lineages: Vec<Lineage>,
}

impl Subject {
    fn prefilled(w: &Workload, space: Box<dyn AddressSpace>, collector: Option<Collector>) -> Self {
        for (start, end) in w.initial_regions() {
            assert!(space.map(start, end), "prefill region refused");
        }
        Subject {
            space,
            collector,
            lineages: (0..THREADS).map(|_| Lineage::new()).collect(),
        }
    }

    /// The subject of the benchmark: `RangeMap<()>` on a fresh epoch
    /// collector, behind `dyn AddressSpace`, prefilled for `w`.
    pub fn bonsai(w: &Workload) -> Self {
        let collector = Collector::new();
        let space = Box::new(RangeMap::<()>::new(collector.clone()));
        Self::prefilled(w, space, Some(collector))
    }

    /// The `RwLock<BTreeMap>` baseline, prefilled for `w`.
    pub fn locked(w: &Workload) -> Self {
        Self::prefilled(w, Box::new(LockedAddressSpace::new()), None)
    }

    /// Waits out a grace period, reclaiming everything retired so far.
    /// Returns how long that took.
    pub fn synchronize(&self) -> Duration {
        let started = Instant::now();
        if let Some(c) = &self.collector {
            c.synchronize();
        }
        started.elapsed()
    }

    /// The address space thread `t` is mutating right now.
    pub fn tip(&self, t: usize) -> &dyn AddressSpace {
        self.lineages[t].back().map_or(&*self.space, |tip| &**tip)
    }
}

/// What one repeat replays.
#[derive(Clone, Copy, Debug)]
pub struct RepeatSpec<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Every thread's labelled cycle.
    pub cycles: &'a [Vec<Packed>],
    /// Replay threads: the first `threads` cycles are replayed.
    pub threads: usize,
    /// Cycles per thread.
    pub reps: usize,
}

/// One timed repeat.
#[derive(Clone, Copy, Debug, Default)]
pub struct Repeat {
    /// First thread's start to last thread's finish.
    pub wall_ns: f64,
    /// What was replayed.
    pub tally: Tally,
    /// Heap calls made while the threads ran.
    pub allocs: u64,
    /// `CollectorStats::pending_objects` just before the repeat.
    pub pending_before: usize,
    /// Objects, bytes and epochs the collector retired and advanced over
    /// the repeat and its `synchronize`.
    pub retired: u64,
    /// See `retired`.
    pub retired_bytes: u64,
    /// See `retired`.
    pub epochs: u64,
    /// The `synchronize` after the repeat, outside the timed window.
    pub sync_ns: f64,
    /// More than five times the pass median; kept, but flagged.
    pub outlier: bool,
}

impl Repeat {
    /// Calls per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.tally.ops() as f64 * 1e9 / self.wall_ns
    }
}

/// Runs one repeat: `spec.threads` threads released together, each
/// replaying its cycle `spec.reps` times through its own clock, then a
/// `synchronize`.
///
/// Each worker reads the clock itself; wall time is last finish minus first
/// start. Timing from the main thread would under-measure whenever it is
/// rescheduled late after the barrier.
pub fn run_repeat<C: Clock + Send>(
    subject: &mut Subject,
    spec: &RepeatSpec,
    clocks: &mut [C],
) -> Repeat {
    let stats = |subject: &Subject| {
        subject
            .collector
            .as_ref()
            .map_or_else(Default::default, Collector::stats)
    };
    let before = stats(subject);
    // One replay thread leaves the other arena static; so do lineages.
    let check_cross = spec.threads == 1 || spec.w.forks.is_some();
    let barrier = Barrier::new(spec.threads);
    let (space, forks) = (&*subject.space, spec.w.forks);
    let results: Vec<_> = thread::scope(|s| {
        let workers: Vec<_> = subject
            .lineages
            .iter_mut()
            .zip(clocks.iter_mut())
            .zip(spec.cycles)
            .take(spec.threads)
            .map(|((lineage, clock), cycle)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let allocs = alloc::allocs();
                    let start = Instant::now();
                    let tally =
                        replay_thread(space, lineage, cycle, spec.reps, check_cross, forks, clock);
                    (start, Instant::now(), tally, alloc::allocs() - allocs)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let first = results.iter().map(|r| r.0).min().expect("threads >= 1");
    let last = results.iter().map(|r| r.1).max().expect("threads >= 1");
    let mut tally = Tally::default();
    results.iter().for_each(|r| tally.add(&r.2));
    let sync_ns = subject.synchronize().as_nanos() as f64;
    let after = stats(subject);
    Repeat {
        wall_ns: last.duration_since(first).as_nanos() as f64,
        tally,
        allocs: results.iter().map(|r| r.3).max().expect("threads >= 1"),
        pending_before: before.pending_objects,
        retired: after.objects_retired - before.objects_retired,
        retired_bytes: after.bytes_retired - before.bytes_retired,
        epochs: after.epochs_advanced - before.epochs_advanced,
        sync_ns,
        outlier: false,
    }
}

/// One subject's share of a pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The warm-up repeat: its time is discarded, its failures are not.
    pub warmup: Tally,
    /// The timed repeats.
    pub repeats: Vec<Repeat>,
}

impl Pass {
    /// What the timed repeats replayed.
    pub fn timed(&self) -> Tally {
        let mut tally = Tally::default();
        self.repeats.iter().for_each(|r| tally.add(&r.tally));
        tally
    }

    /// Everything replayed, warm-up included.
    pub fn tally(&self) -> Tally {
        let mut tally = self.warmup;
        tally.add(&self.timed());
        tally
    }

    /// Flags every repeat more than five times the median wall time. Such
    /// a repeat is kept and counted, not dropped.
    pub fn flag_outliers(&mut self) {
        if self.repeats.is_empty() {
            return;
        }
        let walls: Vec<f64> = self.repeats.iter().map(|r| r.wall_ns).collect();
        let median = crate::stats::median(&walls);
        for r in &mut self.repeats {
            r.outlier = r.wall_ns > 5.0 * median;
        }
    }

    /// Throughput over the timed repeats.
    pub fn ops_per_s(&self) -> Summary {
        Summary::of(
            &self
                .repeats
                .iter()
                .map(Repeat::ops_per_s)
                .collect::<Vec<_>>(),
        )
    }
}

/// An address space that does nothing: replaying against it times the
/// replay loop itself (`trace.loop_self_share`).
#[derive(Debug)]
pub struct NullSpace;

impl AddressSpace for NullSpace {
    fn fault(&self, _: u64) -> bool {
        true
    }
    fn map(&self, _: u64, _: u64) -> bool {
        true
    }
    fn unmap(&self, _: u64) -> bool {
        true
    }
    fn unmap_range(&self, _: u64, _: u64) -> usize {
        1
    }
    fn regions(&self) -> usize {
        0
    }
    fn fork(&self) -> Box<dyn AddressSpace> {
        Box::new(NullSpace)
    }
}

/// Nanoseconds per op the replay loop costs on its own: the median of five
/// one-thread replays of thread 0's cycle against [`NullSpace`].
pub fn loop_ns_per_op(w: &Workload, cycles: &[Vec<Packed>]) -> f64 {
    let per_op: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            // Opaque to the optimiser, so the calls stay virtual as they
            // are against a real address space.
            let space: &dyn AddressSpace = std::hint::black_box(&NullSpace);
            let tally = replay_thread(
                space,
                &mut Lineage::new(),
                &cycles[0],
                1,
                true,
                w.forks,
                &mut NoClock,
            );
            let ns = started.elapsed().as_nanos() as f64;
            ns / std::hint::black_box(tally).ops() as f64
        })
        .collect();
    crate::stats::median(&per_op)
}
