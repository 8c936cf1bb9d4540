//! The zero-allocation write path, measured at the global allocator.
//!
//! The tentpole claim is that a steady-state `RangeMap` churn performs
//! **zero heap allocations per update** once the arenas, scratch buffers
//! and collector bag pools are warm: node blocks come from the writer
//! slot's slab arena (recycled through grace periods), the retire
//! batch travels as an allocation-free `Recycle` deferred with a pooled
//! buffer, and every `Vec` on the path keeps its capacity when it
//! empties. This binary installs a counting `GlobalAlloc` and asserts
//! exactly that — not a capacity proxy, the real allocation count.
//!
//! The test is single-threaded, so the whole pipeline (including the
//! collector's throttled unpin collects and grace-period recycling) runs
//! deterministically: a zero count here is a property, not a lucky
//! schedule. The companion capacity-flat assertions (arena chunk counts)
//! live in `range_map.rs`/`tree.rs` unit tests and keep holding under
//! concurrency.
//!
//! Allocations are counted **per thread**: the harness runs this binary's
//! tests on parallel threads, and each test measures only what its own
//! thread allocated — a process-wide counter would charge the fork tests'
//! allocations to the churn test's window. Live and peak heap bytes are
//! kept per thread the same way, for the fork-lifecycle footprint test
//! (single-threaded, so everything it allocates it also frees itself).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bonsai::{BonsaiTree, RangeMap};
use rcukit::Collector;

/// Counts every allocation (alloc/realloc/alloc_zeroed) the calling thread
/// passes through to the system allocator.
struct CountingAlloc;

thread_local! {
    /// `const`-initialised and destructor-free, so touching it from inside
    /// the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the calling thread has allocated and not yet freed (signed:
    /// a thread may free what another allocated), and their high-water
    /// mark since the last [`reset_peak`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Moves the calling thread's live-byte count, raising its peak.
fn resize(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Restarts the calling thread's peak at its current live bytes.
fn reset_peak() {
    PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
}

/// The calling thread's peak live bytes since the last [`reset_peak`].
fn peak_bytes() -> i64 {
    PEAK.with(Cell::get)
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as i64);
        // Safety: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        // Safety: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        resize(new_size as i64 - layout.size() as i64);
        // Safety: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        resize(layout.size() as i64);
        // Safety: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAGE: u64 = 0x1000;
const SLOTS: u64 = 128;

/// One churn pass over every slot: unmap it if mapped, else map 2 pages —
/// plus a periodic `unmap_range` exercising the span-cut rebuild (its two
/// discovery probes, splits and links).
fn churn(m: &RangeMap<u64>, rounds: usize) {
    for round in 0..rounds {
        for slot in 0..SLOTS {
            let start = slot * 4 * PAGE;
            if slot.is_multiple_of(16) && round.is_multiple_of(4) {
                m.unmap_range(start, start + 3 * PAGE);
            } else if m.unmap(start).is_none() {
                assert!(m.map(start, start + 2 * PAGE, slot));
            }
        }
    }
}

// Not run under Miri: the property is global-allocator call counting over
// ~10k updates — interpreter-independent arithmetic, but prohibitively
// slow to interpret. The arena/recycle unsafe paths themselves run under
// Miri through the (cfg(miri)-scaled) tree, range-map, and scenario
// stress tests.
#[cfg_attr(miri, ignore)]
#[test]
fn steady_state_churn_allocates_nothing() {
    let collector = Collector::new();
    let m: RangeMap<u64> = RangeMap::new(collector.clone());

    // Warm-up: grow the arenas to the workload's peak in-flight node count
    // (bounded by the grace-period lag times path length), the scratch and
    // stripe vectors to their peak, and the collector's bag/batch pools.
    churn(&m, 40);
    let chunks_warm = m.writer_arena_chunks();
    assert!(chunks_warm > 0, "warm-up never grew an arena");

    // Steady state: thousands of further updates, same shape. Single
    // thread ⇒ deterministic; this thread's count must be exactly zero.
    let before = allocs();
    churn(&m, 40);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state churn hit the heap {} times",
        after - before
    );
    assert_eq!(
        m.writer_arena_chunks(),
        chunks_warm,
        "steady-state churn grew an arena"
    );

    // The diet must not have traded away reclamation: everything retired
    // is freed once quiescent.
    collector.synchronize();
    let stats = collector.stats();
    assert_eq!(stats.objects_retired, stats.objects_freed);
    assert!(stats.objects_retired > 0);
}

/// The same property with the arena's recycle path under load: a
/// never-forked map written by one thread keeps one slot scratch, so
/// every block it retires comes back parked on that arena and is served,
/// a batch at a time, to its next allocations (speculative blocks via its
/// private stack). Once warm that loop touches the heap zero times — the
/// batch buffers cycle pending → parked → pool → pending — the family's
/// chunk count stays flat, and the block ledger balances: blocks in use
/// == regions.
#[cfg_attr(miri, ignore)]
#[test]
fn never_forked_churn_recirculates_through_the_private_stack() {
    let collector = Collector::new();
    let m: RangeMap<u64> = RangeMap::new(collector.clone());
    let toggle = |rounds: usize| {
        for _ in 0..rounds {
            for slot in 0..8u64 {
                let start = slot * 2 * PAGE;
                if m.unmap(start).is_none() {
                    assert!(m.map(start, start + PAGE, slot));
                }
            }
        }
    };
    toggle(400);
    let chunks_warm = m.writer_arena_chunks();
    let before = allocs();
    toggle(4_000); // ~100 k retired blocks through a 64-block chunk or two
    assert_eq!(allocs() - before, 0, "recirculating churn hit the heap");
    assert_eq!(
        m.writer_arena_chunks(),
        chunks_warm,
        "churn grew the family"
    );
    collector.synchronize();
    let stats = collector.stats();
    assert_eq!(stats.objects_retired, stats.objects_freed);
    RangeMap::check_family_invariants(&[&m]);
}

/// ROADMAP item 3's acceptance for the part that is done (3b): a server
/// forking a child per request keeps a footprint proportional to its
/// *live* children, not to the forks it has ever made. Each lifecycle
/// forks the long-lived parent, runs 256 operations on the child and
/// parks it in a 64-deep ring whose oldest member exits. An exiting
/// child's arenas hand their free blocks back to the family shelf (once
/// their last retirement has fired), and the next child draws on the
/// shelf before carving a chunk — so the peak heap after 10,000
/// lifecycles stays within 1.5x of the peak after 1,000. (Every child
/// used to strand ~19 KB until the whole family died.)
#[cfg_attr(miri, ignore)]
#[test]
fn fork_lifecycles_keep_the_heap_flat() {
    const RING: usize = 64;
    const OPS: u64 = 256;
    let collector = Collector::new();
    let parent: RangeMap<u64> = RangeMap::new(collector.clone());
    for slot in 0..SLOTS {
        assert!(parent.map(slot * 4 * PAGE, slot * 4 * PAGE + 2 * PAGE, slot));
    }
    let mut ring = std::collections::VecDeque::with_capacity(RING + 1);
    let mut lifecycles = |n: usize| {
        for i in 0..n as u64 {
            let child = parent.fork();
            for op in 0..OPS {
                let start = ((i * 7 + op * 13) % SLOTS) * 4 * PAGE;
                if child.unmap(start).is_none() {
                    assert!(child.map(start, start + 2 * PAGE, op));
                }
            }
            ring.push_back(child);
            if ring.len() > RING {
                ring.pop_front();
            }
        }
    };
    reset_peak();
    lifecycles(1_000);
    let peak_1k = peak_bytes();
    lifecycles(9_000);
    let peak_10k = peak_bytes();
    eprintln!("fork lifecycles: peak {peak_1k} B after 1,000, {peak_10k} B after 10,000");
    assert!(
        2 * peak_10k <= 3 * peak_1k,
        "heap grows with forks ever made: peak {peak_1k} B after 1,000 lifecycles, \
         {peak_10k} B after 10,000"
    );
    drop(ring);
    drop(parent);
    collector.synchronize();
    let stats = collector.stats();
    assert_eq!(stats.objects_retired, stats.objects_freed);
}

/// `fork()` must be O(1)/O(depth), not O(n): snapshotting a 100k-entry
/// tree copies **zero nodes** — the child takes one extra reference on
/// the root and shares every subtree — so the allocation count is a
/// small constant, far under the tree's height (~2·log₂ n ≈ 34 for
/// 100k), and identical for a 100k-entry tree and a 100-entry one.
#[cfg_attr(miri, ignore)]
#[test]
fn fork_allocates_o_depth_not_o_n() {
    let collector = Collector::new();
    let big: BonsaiTree<u64, u64> = BonsaiTree::new(collector.clone());
    for k in 0..100_000u64 {
        big.insert(k, k);
    }
    let small: BonsaiTree<u64, u64> = BonsaiTree::new(collector.clone());
    for k in 0..100u64 {
        small.insert(k, k);
    }
    // Warm the fork path once (collector TLS, first-touch laziness), so
    // the measured runs count only what a fork inherently allocates.
    drop(small.fork());

    let before = allocs();
    let big_child = big.fork();
    let big_fork_allocs = allocs() - before;

    let before = allocs();
    let small_child = small.fork();
    let small_fork_allocs = allocs() - before;

    assert!(
        big_fork_allocs <= 34,
        "forking a 100k-entry tree allocated {big_fork_allocs} times \
         (> height bound 34 — fork is copying, not sharing)"
    );
    assert_eq!(
        big_fork_allocs, small_fork_allocs,
        "fork cost depends on tree size ({big_fork_allocs} vs {small_fork_allocs} allocs)"
    );

    // The children are real, independent trees over the shared structure.
    assert_eq!(big_child.len(), 100_000);
    assert_eq!(big_child.get_owned(&54_321), Some(54_321));
    big_child.insert(200_000, 1);
    assert_eq!(big.get_owned(&200_000), None);
    drop((big, big_child, small, small_child));
    collector.synchronize();
    let stats = collector.stats();
    assert_eq!(stats.objects_retired, stats.objects_freed);
}

/// Same bound one layer up: `RangeMap::fork` is O(writer slots) (the
/// child's slot table and the guards the fork holds), never O(regions) —
/// a 100k-region map forks with the same allocation count as a
/// 100-region one — and builds no slot scratch: a child's scratches are
/// built by its first writes.
#[cfg_attr(miri, ignore)]
#[test]
fn range_map_fork_allocates_o_stripes_not_o_regions() {
    // One collector for both maps, so neither fork is the first pin of a
    // collector this thread has not cached yet.
    let collector = Collector::new();
    let big: RangeMap<u64> = RangeMap::new(collector.clone());
    for slot in 0..100_000u64 {
        assert!(big.map(slot * 2 * PAGE, slot * 2 * PAGE + PAGE, slot));
    }
    let small: RangeMap<u64> = RangeMap::new(collector);
    for slot in 0..100u64 {
        assert!(small.map(slot * 2 * PAGE, slot * 2 * PAGE + PAGE, slot));
    }
    drop(small.fork());

    let before = allocs();
    let big_child = big.fork();
    let big_fork_allocs = allocs() - before;

    let before = allocs();
    let small_child = small.fork();
    let small_fork_allocs = allocs() - before;

    assert_eq!(
        big_fork_allocs, small_fork_allocs,
        "map fork cost depends on region count ({big_fork_allocs} vs {small_fork_allocs} allocs)"
    );
    // Slot-proportional slack: slot table, held guards, tree handle.
    let bound = 16 * big.writer_slots() as u64 + 64;
    assert!(
        big_fork_allocs <= bound,
        "forking a 100k-region map allocated {big_fork_allocs} times (> {bound})"
    );

    assert_eq!(
        big_child.built_writer_scratches(),
        0,
        "the fork built a scratch"
    );
    assert_eq!(big_child.len(), 100_000);
    assert!(big_child.unmap(0).is_some());
    assert!(big.contains(0), "child unmap leaked into the parent");
    drop((big_child, small_child));
}

/// Double-free/leak regression across fork lineages, at byte accuracy:
/// after every lineage is gone — in orderings that drop a forked child
/// early, the parent early, and interleave further mutation in between —
/// the backend's `ReclaimStats` balance exactly (`retired == freed`,
/// objects *and* bytes). A shared node retired twice trips the counters
/// (or the allocator) here; one never retired leaves `freed` short.
#[cfg_attr(miri, ignore)]
#[test]
fn fork_lineages_reclaim_exactly_once() {
    for parent_first in [false, true] {
        let collector = Collector::new();
        let m: RangeMap<u64> = RangeMap::new(collector.clone());
        churn(&m, 8);
        let child = m.fork();
        // Both lineages diverge over the shared snapshot.
        churn(&m, 8);
        churn(&child, 8);
        if parent_first {
            drop(m);
            churn(&child, 4); // the survivor keeps mutating shared subtrees
            drop(child);
        } else {
            drop(child);
            churn(&m, 4);
            drop(m);
        }
        collector.synchronize();
        let stats = collector.stats();
        assert!(stats.objects_retired > 0);
        assert_eq!(
            stats.objects_retired, stats.objects_freed,
            "parent_first={parent_first}: object leak or double retirement"
        );
        assert_eq!(
            stats.bytes_retired, stats.bytes_freed,
            "parent_first={parent_first}: byte accounting diverged"
        );
    }
}
