//! The sequential model every output is checked against.
//!
//! A page table in a flat array: each page holds the id of the region
//! mapped there, 0 for none; a region is a maximal run of one id. It shares
//! no logic with the tree under test or with the `BTreeMap` baseline, which
//! is what makes the differential tests worth running.

use bonsai::AddressSpace;

use crate::trace::{Op, Packed, Verdict, Workload, PAGE};

/// The page-array model of one address space.
#[derive(Debug)]
pub struct PageModel {
    pages: Vec<u32>,
    next_id: u32,
}

impl PageModel {
    /// A model of `span` bytes holding `regions`.
    pub fn new(span: u64, regions: &[(u64, u64)]) -> Self {
        let mut model = PageModel {
            pages: vec![0; (span / PAGE) as usize],
            next_id: 1,
        };
        for &(start, end) in regions {
            assert!(model.map(start, end), "prefill regions overlap");
        }
        model
    }

    /// Whether a mapped region contains `addr`.
    pub fn fault(&self, addr: u64) -> bool {
        self.pages[(addr / PAGE) as usize] != 0
    }

    /// Maps `[start, end)`; refuses an overlap.
    pub fn map(&mut self, start: u64, end: u64) -> bool {
        let range = (start / PAGE) as usize..(end / PAGE) as usize;
        if self.pages[range.clone()].iter().any(|&id| id != 0) {
            return false;
        }
        self.pages[range].fill(self.next_id);
        self.next_id += 1;
        true
    }

    /// Unmaps the region starting exactly at `start`.
    pub fn unmap(&mut self, start: u64) -> bool {
        let p = (start / PAGE) as usize;
        let id = self.pages[p];
        if !start.is_multiple_of(PAGE) || id == 0 || (p > 0 && self.pages[p - 1] == id) {
            return false;
        }
        for page in self.pages[p..].iter_mut().take_while(|page| **page == id) {
            *page = 0;
        }
        true
    }

    /// Unmaps `[start, end)`, returning the regions removed or truncated.
    pub fn unmap_range(&mut self, start: u64, end: u64) -> usize {
        let (lo, hi) = ((start / PAGE) as usize, (end / PAGE) as usize);
        let affected = (lo..hi)
            .filter(|&p| self.pages[p] != 0 && (p == lo || self.pages[p - 1] != self.pages[p]))
            .count();
        self.pages[lo..hi].fill(0);
        affected
    }

    /// Applies one trace op and returns what the `AddressSpace` method
    /// would, as a number: 1 for a hit or a success, 0 for a miss or a
    /// refusal, and for `unmap_range` the regions affected.
    pub fn apply(&mut self, op: Op) -> usize {
        match op {
            Op::Fault(addr) => self.fault(addr) as usize,
            Op::Map(start, end) => self.map(start, end) as usize,
            Op::Unmap(start) => self.unmap(start) as usize,
            Op::UnmapRange(start, end) => self.unmap_range(start, end),
        }
    }

    /// The mapped regions, in address order.
    pub fn regions(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut p = 0;
        while p < self.pages.len() {
            let id = self.pages[p];
            let run = self.pages[p..].iter().take_while(|&&x| x == id).count();
            if id != 0 {
                out.push((p as u64 * PAGE, (p + run) as u64 * PAGE));
            }
            p += run;
        }
        out
    }
}

/// Replays every thread's cycle through the model, writing each fault's
/// verdict into the trace, and checks that every mutation is valid and that
/// the cycle closes on the prefill state.
pub fn label(w: &Workload, cycles: &mut [Vec<Packed>]) {
    let initial = w.initial_regions();
    let mut model = PageModel::new(w.span(), &initial);
    for (t, cycle) in cycles.iter_mut().enumerate() {
        let arena = w.slot_start(t, 0)..w.slot_start(t + 1, 0);
        for packed in cycle.iter_mut() {
            let op = packed.op();
            let ok = model.apply(op) > 0;
            match op {
                Op::Fault(addr) => packed.set_verdict(Verdict {
                    hit: ok,
                    cross: !arena.contains(&addr),
                }),
                _ => assert!(ok, "generated trace is invalid at {op:?}"),
            }
        }
        // Later threads' cross-arena verdicts rely on this arena being back
        // in its prefill state, as it is between any two cycles.
        assert_eq!(
            model.regions(),
            initial,
            "cycle of thread {t} is not closed"
        );
    }
}

/// Checks that `space` holds exactly `model`'s regions, using only the
/// `AddressSpace` methods: the region count, one fault per page, and — on a
/// fork, so the original is left alone — an exact-start `unmap` of every
/// model region, after which nothing may be left. Returns the number of
/// disagreements.
pub fn disagreements(space: &dyn AddressSpace, model: &PageModel) -> u64 {
    let regions = model.regions();
    let mut bad = (space.regions() != regions.len()) as u64;
    for p in 0..model.pages.len() as u64 {
        let addr = p * PAGE + (p * 0x9E5) % PAGE;
        bad += (space.fault(addr) != model.fault(addr)) as u64;
    }
    let copy = space.fork();
    for &(start, _) in &regions {
        bad += !copy.unmap(start) as u64;
    }
    bad + (copy.regions() != 0) as u64
}
