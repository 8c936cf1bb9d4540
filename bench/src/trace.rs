//! The workload table and the deterministic trace generator.
//!
//! The generator (xorshift64* stream, arena/slot state machine, one unmap in
//! eight widened to an `unmap_range`) is a **frozen copy** of
//! `rcukit-bench`'s: the benchmark must keep producing the same inputs when
//! that crate is edited or deleted. Two things are added on top of the copy:
//!
//! * a trace is a **cycle**: after the generated ops a short tail of
//!   corrective `unmap`/`map` ops returns every slot to the prefill state,
//!   so a repeat can replay the same buffer any number of times against a
//!   long-lived address space and still do exactly the same work;
//! * ops are packed into one `u64` each (a 2 M-op cycle is 16 MB, not 48),
//!   carrying the sequential model's verdict for every fault.
//!
//! # Address layout
//!
//! One *arena* per replay thread, each `slots_per_thread` slots of
//! [`PAGES_PER_SLOT`] pages. Mutations stay inside the generating thread's
//! arena, so traces are valid by construction: a replayed `map` is never
//! refused and an `unmap`/`unmap_range` never misses unless the subject is
//! wrong. Faults target the thread's own arena with probability `locality`
//! and the whole span otherwise.

/// Page size of the modelled address space.
pub const PAGE: u64 = 0x1000;
/// Width of one slot (and the largest region) in pages.
pub const PAGES_PER_SLOT: u64 = 16;
/// Replay threads a trace set is generated for; the `_t1` passes replay
/// thread 0's trace alone against the same two-arena address space.
pub const THREADS: usize = 2;

/// Of the unmap ops, this share (parts per 1024) become `unmap_range` spans.
const RANGED_UNMAP_PPK: u32 = 128;

/// One phase of a workload: an op mix and fault locality over a contiguous
/// share of each period of the trace.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Share of the period this phase covers, in parts per 1024.
    pub ops_ppk: u32,
    /// `(fault, map, unmap)` mix in parts per 1024; sums to 1024.
    pub mix: (u32, u32, u32),
    /// Probability (parts per 1024) that a fault stays in the own arena.
    pub locality: u32,
}

/// Fork/exec/exit lifecycle shape of a forking workload.
#[derive(Clone, Copy, Debug)]
pub struct ForkShape {
    /// Trace ops replayed against each freshly forked child.
    pub chunk: usize,
    /// Live children a thread keeps before it exits the oldest.
    pub live: usize,
}

/// One benchmark workload. Everything here is fixed: the driver compares
/// runs of different commits, so the work per repeat may not depend on the
/// machine or on the subject's speed.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Phases, applied over every `period` ops.
    pub phases: &'static [Phase],
    /// Ops after which the phase pattern restarts (the lifecycle chunk on
    /// a forking workload, the whole cycle otherwise).
    pub period: usize,
    /// Region slots per thread arena; about half are mapped at any time.
    pub slots_per_thread: u64,
    /// Generated ops per thread per cycle (the closing tail comes on top).
    pub cycle_ops: usize,
    /// Cycles thread 0 replays per repeat of the one-thread pass.
    pub cycles_t1: usize,
    /// Cycles each thread replays per repeat of the two-thread pass.
    pub cycles_t2: usize,
    /// Cycles each thread replays per repeat of the latency pass.
    pub cycles_lat: usize,
    /// `Some` when the harness drives fork/exec/exit lifecycles.
    pub forks: Option<ForkShape>,
}

/// The four workloads, in reporting order. Cycle counts are scaled so one
/// repeat takes a little over a second on the 2-core reference box.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fault-scan",
        phases: &[Phase {
            ops_ppk: 1024,
            mix: (1004, 10, 10),
            locality: 819,
        }],
        period: 0,
        slots_per_thread: 2048,
        cycle_ops: 2 << 20,
        cycles_t1: 4,
        cycles_t2: 2,
        cycles_lat: 2,
        forks: None,
    },
    Workload {
        name: "mmap-churn",
        phases: &[Phase {
            ops_ppk: 1024,
            mix: (0, 512, 512),
            locality: 1024,
        }],
        period: 0,
        slots_per_thread: 64,
        cycle_ops: 64 << 10,
        cycles_t1: 14,
        cycles_t2: 5,
        cycles_lat: 5,
        forks: None,
    },
    Workload {
        name: "mixed-metis",
        phases: &[Phase {
            ops_ppk: 1024,
            mix: (512, 256, 256),
            locality: 921,
        }],
        period: 0,
        slots_per_thread: 512,
        cycle_ops: 256 << 10,
        cycles_t1: 5,
        cycles_t2: 2,
        cycles_lat: 2,
        forks: None,
    },
    Workload {
        name: "fork-storm",
        phases: &[
            // Exec: the fresh child remaps hard over the inherited image.
            Phase {
                ops_ppk: 256,
                mix: (102, 461, 461),
                locality: 1024,
            },
            // Run: mostly faults over its now-private mappings.
            Phase {
                ops_ppk: 768,
                mix: (819, 102, 103),
                locality: 819,
            },
        ],
        period: 256,
        slots_per_thread: 1024,
        cycle_ops: 1024 * 256,
        cycles_t1: 5,
        cycles_t2: 3,
        cycles_lat: 3,
        forks: Some(ForkShape {
            chunk: 256,
            live: 64,
        }),
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload with one short cycle per repeat, for `--quick` and
    /// the tests: still enough forks, and enough sampled ops of the mix's
    /// rarest class, for a 99th percentile per repeat.
    pub fn quick(mut self) -> Workload {
        self.cycle_ops = match self.forks {
            Some(shape) => 1024 * shape.chunk,
            None => self.cycle_ops / 2,
        };
        self.cycles_t1 = 1;
        self.cycles_t2 = 1;
        self.cycles_lat = 1;
        self
    }

    /// Bytes covered by one slot.
    pub fn slot_bytes(&self) -> u64 {
        PAGES_PER_SLOT * PAGE
    }

    /// Bytes covered by one thread arena.
    pub fn arena_bytes(&self) -> u64 {
        self.slots_per_thread * self.slot_bytes()
    }

    /// Bytes of modelled address space across all arenas.
    pub fn span(&self) -> u64 {
        THREADS as u64 * self.arena_bytes()
    }

    /// Start address of thread `t`'s slot `s`.
    pub fn slot_start(&self, thread: usize, slot: u64) -> u64 {
        thread as u64 * self.arena_bytes() + slot * self.slot_bytes()
    }

    /// The prefill: every arena's even slots mapped at full width. The
    /// generator assumes it and every cycle returns to it.
    pub fn initial_regions(&self) -> Vec<(u64, u64)> {
        (0..THREADS)
            .flat_map(|t| {
                (0..self.slots_per_thread).step_by(2).map(move |s| {
                    let start = self.slot_start(t, s);
                    (start, start + self.slot_bytes())
                })
            })
            .collect()
    }

    fn phase_at(&self, i: usize) -> &Phase {
        let period = if self.period == 0 {
            self.cycle_ops
        } else {
            self.period
        };
        let ppk = ((i % period) * 1024 / period) as u32;
        let mut end = 0;
        for p in self.phases {
            end += p.ops_ppk;
            if ppk < end {
                return p;
            }
        }
        self.phases.last().expect("a workload has a phase")
    }

    /// Generates thread `thread`'s cycle. Pure: same workload, seed and
    /// thread give the same ops. Fault verdicts are not filled in yet; see
    /// [`crate::model::label`].
    pub fn thread_cycle(&self, seed: u64, thread: usize) -> Vec<Packed> {
        // SplitMix-style derivation keeps per-thread streams disjoint even
        // for adjacent seeds and thread ids.
        let derived = (seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x243F_6A88_85A3_08D3);
        let mut rng = Rng::new(derived);
        let initial = |s: u64| {
            s.is_multiple_of(2)
                .then(|| self.slot_start(thread, s) + self.slot_bytes())
        };
        // Exact end address of each slot's region, `None` when unmapped:
        // the generator mirrors the replayed state, which is what lets it
        // emit mid-region truncating spans that stay valid.
        let mut extents: Vec<Option<u64>> = (0..self.slots_per_thread).map(initial).collect();
        let mut mapped = extents.iter().filter(|e| e.is_some()).count() as u64;
        let mut trace = Vec::with_capacity(self.cycle_ops + 2 * extents.len());

        for i in 0..self.cycle_ops {
            let phase = self.phase_at(i);
            let (fault_ppk, map_ppk, _) = phase.mix;
            let roll = (rng.next_u64() & 1023) as u32;
            if roll < fault_ppk {
                let addr = if rng.chance(phase.locality) {
                    self.slot_start(thread, 0) + rng.below(self.arena_bytes())
                } else {
                    rng.below(self.span())
                };
                trace.push(Packed::new(Op::Fault(addr)));
                continue;
            }
            // Degrade to the dual when the wanted mutation is impossible.
            let do_map = if mapped == 0 {
                true
            } else if mapped == self.slots_per_thread {
                false
            } else {
                roll < fault_ppk + map_ppk
            };
            if do_map {
                let slot = pick_slot(&extents, &mut rng, false);
                let start = self.slot_start(thread, slot);
                let end = start + (1 + rng.below(PAGES_PER_SLOT)) * PAGE;
                trace.push(Packed::new(Op::Map(start, end)));
                extents[slot as usize] = Some(end);
                mapped += 1;
            } else {
                let slot = pick_slot(&extents, &mut rng, true);
                if rng.chance(RANGED_UNMAP_PPK) {
                    let op = self.ranged_unmap(thread, slot, &mut extents, &mut mapped, &mut rng);
                    trace.push(Packed::new(op));
                } else {
                    trace.push(Packed::new(Op::Unmap(self.slot_start(thread, slot))));
                    extents[slot as usize] = None;
                    mapped -= 1;
                }
            }
        }

        // Close the cycle: put every slot back as the prefill left it.
        for (s, extent) in extents.iter().enumerate() {
            let (start, want) = (self.slot_start(thread, s as u64), initial(s as u64));
            if *extent == want {
                continue;
            }
            if extent.is_some() {
                trace.push(Packed::new(Op::Unmap(start)));
            }
            if let Some(end) = want {
                trace.push(Packed::new(Op::Map(start, end)));
            }
        }
        trace
    }

    /// Builds a multi-region unmap span anchored at mapped `slot`: with even
    /// odds (when the region is more than one page) the span starts
    /// mid-region, truncating it (the kernel's VMA-split case), otherwise
    /// at the region start, removing it; and it extends over up to one
    /// following slot (clamped to the arena), clearing any region there.
    fn ranged_unmap(
        &self,
        thread: usize,
        slot: u64,
        extents: &mut [Option<u64>],
        mapped: &mut u64,
        rng: &mut Rng,
    ) -> Op {
        let start = self.slot_start(thread, slot);
        let end = extents[slot as usize].expect("ranged unmap anchor must be mapped");
        let pages = (end - start) / PAGE;
        let cut = if pages > 1 && rng.chance(512) {
            start + PAGE * (1 + rng.below(pages - 1))
        } else {
            start
        };
        if cut == start {
            extents[slot as usize] = None;
            *mapped -= 1;
        } else {
            extents[slot as usize] = Some(cut);
        }
        let span_slots = (slot + 1 + rng.below(2)).min(self.slots_per_thread);
        for s in slot + 1..span_slots {
            if extents[s as usize].take().is_some() {
                *mapped -= 1;
            }
        }
        let hi = self.slot_start(thread, 0) + span_slots * self.slot_bytes();
        Op::UnmapRange(cut, hi)
    }

    /// Both threads' cycles with fault verdicts filled in.
    pub fn cycles(&self, seed: u64) -> Vec<Vec<Packed>> {
        let mut cycles: Vec<_> = (0..THREADS).map(|t| self.thread_cycle(seed, t)).collect();
        crate::model::label(self, &mut cycles);
        cycles
    }
}

/// Picks a uniformly random slot whose mapped-state equals `state`. The
/// caller guarantees at least one exists.
fn pick_slot(extents: &[Option<u64>], rng: &mut Rng, state: bool) -> u64 {
    loop {
        let slot = rng.below(extents.len() as u64);
        if extents[slot as usize].is_some() == state {
            return slot;
        }
    }
}

/// Deterministic xorshift64* PRNG.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator; the seed is forced odd so the state is nonzero.
    pub fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Bernoulli draw with probability `ppk / 1024`.
    pub fn chance(&mut self, ppk: u32) -> bool {
        (self.next_u64() & 1023) < ppk as u64
    }
}

/// One operation of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Translate the address; a hit means a mapped region contains it.
    Fault(u64),
    /// Map the half-open range `[start, end)`.
    Map(u64, u64),
    /// Unmap the region starting exactly at `start`.
    Unmap(u64),
    /// Unmap every byte in `[start, end)`; always intersects a region.
    UnmapRange(u64, u64),
}

/// What the sequential model says a fault must return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The fault finds a mapped region.
    pub hit: bool,
    /// The address lies in another thread's arena: the verdict only holds
    /// while that arena is static (one replay thread, or private lineages).
    pub cross: bool,
}

/// An [`Op`] in 64 bits: kind in bits 0–1, the fault verdict in bits 2–3,
/// the range length in pages in bits 4–15, the address above.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packed(u64);

impl Packed {
    const HIT: u64 = 1 << 2;
    const CROSS: u64 = 1 << 3;

    fn new(op: Op) -> Packed {
        let (kind, addr, end) = match op {
            Op::Fault(a) => (0, a, a),
            Op::Map(s, e) => (1, s, e),
            Op::Unmap(s) => (2, s, s),
            Op::UnmapRange(s, e) => (3, s, e),
        };
        let pages = (end - addr) / PAGE;
        assert!(
            addr < 1 << 48 && pages < 1 << 12,
            "op does not pack: {op:?}"
        );
        Packed(kind | pages << 4 | addr << 16)
    }

    /// The operation, without its verdict.
    #[inline]
    pub fn op(self) -> Op {
        let addr = self.0 >> 16;
        let end = addr + ((self.0 >> 4) & 0xfff) * PAGE;
        match self.0 & 3 {
            0 => Op::Fault(addr),
            1 => Op::Map(addr, end),
            2 => Op::Unmap(addr),
            _ => Op::UnmapRange(addr, end),
        }
    }

    /// The model's verdict on a fault op.
    #[inline]
    pub fn verdict(self) -> Verdict {
        Verdict {
            hit: self.0 & Self::HIT != 0,
            cross: self.0 & Self::CROSS != 0,
        }
    }

    /// Records the model's verdict on a fault op.
    pub fn set_verdict(&mut self, v: Verdict) {
        self.0 &= !(Self::HIT | Self::CROSS);
        self.0 |= if v.hit { Self::HIT } else { 0 } | if v.cross { Self::CROSS } else { 0 };
    }
}

/// FNV-1a over the packed ops of every thread's cycle: the fingerprint the
/// golden test pins, so a workload cannot drift silently.
pub fn fingerprint(cycles: &[Vec<Packed>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in cycles.iter().flatten() {
        for byte in op.0.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
