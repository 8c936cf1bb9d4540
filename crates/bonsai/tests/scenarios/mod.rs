//! Range-locked writer scenarios shared by the model-checking tier
//! (`tests/loom.rs`, built with `RUSTFLAGS="--cfg loom"`) and its
//! plain-`std` stress mirror (`tests/model.rs`), following the pattern of
//! `rcukit`'s `tests/scenarios`.
//!
//! Each scenario is one deterministic execution of a small multi-writer
//! interaction against the real `RangeMap`:
//!
//! * under loom, `loomette::model` replays it under every schedule within
//!   the preemption bound — the range-lock table mutex/condvar, the
//!   tree's root CAS, and every rcukit protocol atomic are switch points;
//! * under `std`, the mirror test loops it with real threads, relying on
//!   scheduler noise.
//!
//! Scenarios avoid `Collector::synchronize` (an unbounded spin the
//! schedule explorer cannot terminate) and the TLS-cached `Collector::pin`
//! (state-space blowup); reclamation is driven by writer unpins (collect
//! throttle disabled) plus a bounded explicit drain, and models are kept
//! to one mutation per writer so exhaustive exploration stays feasible.
//!
//! Writers hand replaced nodes to the collector a chunk at a time (4 under
//! the model checker, 64 otherwise), so a scenario whose few updates must
//! retire something inside the explored region first fills the writer's
//! pending list ([`fill_pending`], or [`prime_pending`] when a recycled
//! batch should be waiting too).
//!
//! Most scenarios run on the epoch collector; [`reader_vs_pending_ship`]
//! takes its backend as a parameter and runs on the hybrid one as well.

use std::sync::Arc;

use bonsai::{BonsaiTree, RangeMap};
use rcukit::{Collector, HybridDomain, ReclaimBackend};

#[cfg(loom)]
use loomette::thread::spawn;
#[cfg(not(loom))]
use std::thread::spawn;

/// Objects `map`'s backend has been handed so far.
fn retired(map: &RangeMap<usize>) -> u64 {
    map.backend().stats().objects_retired
}

/// Truncates the region `[start, *end)` by its last byte. The region must
/// be the tree's root, so the truncation — a replace at key `start` —
/// rebuilds and replaces exactly one published node. Returns the objects
/// that shipped to the backend meanwhile.
fn trim_root(map: &RangeMap<usize>, start: u64, end: &mut u64) -> u64 {
    let before = retired(map);
    *end -= 1;
    assert!(*end > start, "trimmed the root region away");
    assert_eq!(map.unmap_range(*end, *end + 1), 1, "root region vanished");
    retired(map) - before
}

/// Nodes a writer scratch lists before its pending list ships: `bonsai`'s
/// `CHUNK_BLOCKS`, mirrored. [`fill_pending`], [`prime_pending`] and each
/// scenario's "a batch shipped" assertion fail if the two drift apart.
const RETIRE_CHUNK: u64 = if cfg!(loom) { 4 } else { 64 };

/// Adds exactly `n` nodes to the pending list of the scratch that slab-0
/// writers share, by `n` trims of the root region `[start, *end)`, none of
/// which may ship the list. Single-threaded: under the model checker a
/// prefix with no thread interleavings to explore.
fn fill_pending(map: &RangeMap<usize>, start: u64, end: &mut u64, n: u64) {
    for _ in 0..n {
        assert_eq!(trim_root(map, start, end), 0, "pending list shipped early");
    }
}

/// Ships one batch from the scratch that slab-0 writers share — trimming
/// the root region until one ships, which is then exactly one chunk since
/// every trim adds one node — and refills its pending list to `short_by`
/// nodes short of the next chunk. Scenarios whose writers must reuse
/// recycled blocks prime this way: with the collect throttle at 1, the
/// refill's unpins advance the epoch past the shipped batch and recycle it
/// (a hybrid batch waits for the next scan).
fn prime_pending(map: &RangeMap<usize>, start: u64, end: &mut u64, short_by: u64) {
    let shipped = loop {
        match trim_root(map, start, end) {
            0 => {}
            n => break n,
        }
    };
    assert_eq!(shipped, RETIRE_CHUNK, "a retire batch of {shipped} nodes");
    fill_pending(map, start, end, RETIRE_CHUNK - short_by);
}

/// Two writers unmap *disjoint* regions while a reader translates one of
/// them: in every schedule both writers complete (no deadlock — their
/// range locks never conflict, so neither ever waits), the reader sees
/// either the region or nothing (never a foreign payload), the writer
/// that draws the primed scratch ships a retire batch, dropping the map
/// retires what its scratches still held, and a bounded drain reclaims
/// exactly what was retired.
pub fn disjoint_writers() {
    let c = Collector::with_shards(1);
    // The default collect throttle keeps writer unpins off the registry/
    // garbage locks here, which is what makes three concurrent threads
    // explorable at CI's preemption bound: the unpin-driven collect path
    // is model-checked by rcukit's own scenarios; this one is about the
    // range locks, the root CAS, and retirement. Reclamation is driven by
    // the bounded explicit drain below instead.
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::new(c.clone()));
    let mut end = 0x2000;
    assert!(map.map(0x1000, end, 1));
    assert!(map.map(0x3000, 0x4000, 2));
    // The second map listed the root it replaced; filling to one node
    // short of a chunk means whichever writer draws the pooled scratch (a
    // concurrent second writer gets a fresh one) replaces at least one
    // node and ships the batch. Nothing ships in this prefix, which keeps
    // the three-thread model inside the checker's budget under `tso`.
    fill_pending(&map, 0x1000, &mut end, RETIRE_CHUNK - 2);
    assert_eq!(retired(&map), 0, "a batch shipped before the writers ran");

    // `unmap_range` with the exact region bounds: one writer session each
    // (no widening retry, no pre-read pin), keeping the model small.
    let w1 = {
        let map = Arc::clone(&map);
        spawn(move || {
            assert_eq!(
                map.unmap_range(0x1000, 0x2000),
                1,
                "disjoint unmap lost its region"
            );
        })
    };
    let w2 = {
        let map = Arc::clone(&map);
        spawn(move || {
            assert_eq!(
                map.unmap_range(0x3000, 0x4000),
                1,
                "disjoint unmap lost its region"
            );
        })
    };
    let reader = {
        let map = Arc::clone(&map);
        spawn(move || {
            let g = map.pin();
            // Mid-unmap, the region is either still fully there or gone;
            // a foreign payload would mean a torn tree.
            match map.lookup(0x1800, &g) {
                None => {}
                Some(&v) => assert_eq!(v, 1, "reader saw a foreign payload"),
            }
        })
    };
    w1.join().unwrap();
    w2.join().unwrap();
    reader.join().unwrap();

    // Disjoint spans must never have waited on each other.
    assert_eq!(
        map.contended_acquires(),
        0,
        "disjoint writers contended on the range-lock manager"
    );
    let shipped = retired(&map);
    assert!(shipped > 0, "no retire batch shipped while the writers ran");
    let g = map.pin();
    assert_eq!(map.lookup(0x1800, &g), None);
    assert_eq!(map.lookup(0x3800, &g), None);
    drop(g);
    // The batch left its list empty, and the other unmap replaced at
    // least one node after it (on the same scratch or a fresh one):
    // dropping the map must retire that partial batch.
    drop(map);
    // Bounded drain: two advances past the newest retirement tag plus a
    // reclaim pass.
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert!(
        s.objects_retired > shipped,
        "dropping the map retired no pending node"
    );
    assert_eq!(
        s.objects_retired, s.objects_freed,
        "retirements stranded after both disjoint writers finished"
    );
}

/// Two writers on *disjoint* spans whose covering-stripe sets alias the
/// same stripes in **opposite address order**: on a 2-stripe table, slabs
/// (0, 1) visit stripes 0→1 by address while slabs (3, 4) visit 1→0. If
/// acquisition followed address order this geometry would deadlock (each
/// writer holding the stripe the other wants); the ascending-index total
/// order must make every schedule terminate, with zero span contention
/// (disjoint bytes never wait, however the stripes alias).
pub fn opposite_stripe_order_writers() {
    const SLAB: u64 = 64 * 1024; // the range-lock table's slab size
    let c = Collector::with_shards(1);
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::with_stripes(c.clone(), 2));
    assert!(map.map(0, SLAB, 1));
    assert!(map.map(3 * SLAB, 4 * SLAB, 2));

    // Each writer's unmap_range span covers both stripes, in opposite
    // slab order; exact bounds, so one lock acquisition each (no widening
    // retry keeps the model small).
    let w1 = {
        let map = Arc::clone(&map);
        spawn(move || {
            assert_eq!(map.unmap_range(0, 2 * SLAB), 1, "low span lost its region");
        })
    };
    let w2 = {
        let map = Arc::clone(&map);
        spawn(move || {
            assert_eq!(
                map.unmap_range(3 * SLAB, 5 * SLAB),
                1,
                "high span lost its region"
            );
        })
    };
    w1.join().unwrap();
    w2.join().unwrap();

    assert_eq!(
        map.contended_acquires(),
        0,
        "disjoint spans waited despite sharing only stripes, not bytes"
    );
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
    assert!(map.is_empty());
}

/// Arena recycling vs. a concurrent reader: a writer unmaps a region and
/// immediately remaps it — with the collect throttle at 1, every writer
/// unpin runs advance-and-reclaim, so the batch the set-up shipped has
/// recycled into the arena, the unmap ships the next one (the set-up
/// leaves the pending list one node short of a chunk), and in some
/// schedules the remap *reuses recycled blocks* while the reader's lookup
/// is mid-walk. The grace period is what makes that safe: a block returns
/// to the arena only after every pinned reader is gone, so the reader must
/// observe the old payload, the new payload, or a miss — never a torn
/// node from a prematurely recycled block.
pub fn arena_recycle_vs_reader() {
    let c = Collector::with_shards(1);
    c.set_unpin_collect_period(1);
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::new(c.clone()));
    let mut end = 0x2000;
    assert!(map.map(0x1000, end, 1));
    // Neighbour region so the rebuilt path has nodes to recycle even on
    // the remove of the last key.
    assert!(map.map(0x3000, 0x4000, 7));
    prime_pending(&map, 0x1000, &mut end, 1);
    let primed = retired(&map);

    let writer = {
        let map = Arc::clone(&map);
        spawn(move || {
            assert_eq!(map.unmap(0x1000), Some(1));
            // The remap allocates from the same scratch pool's arena the
            // unmap's retirement recycles into.
            assert!(map.map(0x1000, 0x2000, 2));
        })
    };
    let reader = {
        let map = Arc::clone(&map);
        spawn(move || {
            let g = map.pin();
            match map.lookup(0x1800, &g) {
                None => {}
                Some(&v) => assert!(v == 1 || v == 2, "reader saw a torn payload: {v}"),
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    assert!(
        retired(&map) > primed,
        "the unmap shipped no retire batch while the reader ran"
    );

    let g = map.pin();
    assert_eq!(map.lookup(0x1800, &g), Some(&2));
    drop(g);
    drop(map);
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
}

/// A reader walks while the writer's pending batch ships: the set-up
/// leaves the pending list two nodes short of a chunk, so the writer's
/// first trim of the root region only lists the node it replaces and the
/// second ships both with the older ones; the writer then reclaims — on
/// the epoch collector its unpins advance the epoch (collect throttle at
/// 1), on the hybrid domain it runs one scan — and its last update (a new
/// region) allocates from whatever has recycled. A reader protected before
/// the first trim may be walking the very nodes that batch carries, so it
/// must still see region 1 with one of the three ends it has had — a batch
/// that shipped a still-published node, or a reclaim that let it through
/// under the reader's pin, shows as a torn or foreign region.
pub fn reader_vs_pending_ship(backend: ReclaimBackend) {
    if let ReclaimBackend::Epoch(c) = &backend {
        c.set_unpin_collect_period(1);
    }
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::with_backend(backend.clone()));
    let mut end = 0x2000;
    assert!(map.map(0x1000, end, 1));
    assert!(map.map(0x3000, 0x4000, 7));
    prime_pending(&map, 0x1000, &mut end, 2);
    let primed = retired(&map);
    let ends = [end, end - 1, end - 2];

    let writer = {
        let map = Arc::clone(&map);
        spawn(move || {
            for e in [ends[1], ends[2]] {
                assert_eq!(map.unmap_range(e, e + 1), 1);
            }
            if let ReclaimBackend::Hybrid(d) = map.backend() {
                d.scan();
            }
            assert!(map.map(0x5000, 0x6000, 9));
        })
    };
    let reader = {
        let map = Arc::clone(&map);
        spawn(move || {
            let (start, end, v) = map
                .translate_owned(0x1800)
                .expect("region 1 vanished under a reader");
            assert_eq!((start, v), (0x1000, 1), "reader saw a foreign region");
            assert!(ends.contains(&end), "reader saw a torn end {end:#x}");
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    assert!(
        retired(&map) > primed,
        "the pending batch did not ship while the reader ran"
    );

    drop(map);
    for _ in 0..4 {
        backend.collect();
    }
    let s = backend.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
}

/// [`reader_vs_pending_ship`]'s epoch backend: a one-shard collector.
pub fn epoch() -> ReclaimBackend {
    ReclaimBackend::Epoch(Collector::with_shards(1))
}

/// [`reader_vs_pending_ship`]'s hybrid backend.
pub fn hybrid() -> ReclaimBackend {
    ReclaimBackend::Hybrid(HybridDomain::new())
}

/// The arena's owner vs. a recycling thread: a standalone `BonsaiTree`
/// has exactly one writer scratch, so every insert's allocation pops that
/// scratch's private stack and, when it is dry, takes the arena's whole
/// shared list with one `swap` — while a concurrent `collect()` firing an
/// earlier remove's retirement batch links the recycled blocks into a
/// chain and *pushes* it onto that shared list from the driver thread
/// (under loom the arena carves 4-block chunks, so the set-up below leaves
/// the private stack dry and the writer's first allocation races the
/// push). That is the multi-producer/single-consumer pairing of
/// `Release`-CAS push and `Acquire` swap: the blocks' link writes and
/// payload drops must be visible to the taker before the blocks are, in
/// every schedule (and, under `LOOMETTE_MODEL=tso`, with the pusher's
/// stores buffered until its CAS drains). A torn block would surface as a
/// broken invariant or a wrong final map. (The name predates the
/// take-everything consumer: the shared list was a Treiber stack popped
/// one block at a time.)
pub fn treiber_recycle_push_vs_alloc_pop() {
    let c = Collector::with_shards(1);
    let tree: Arc<BonsaiTree<u64, u64>> = Arc::new(BonsaiTree::new(c.clone()));
    tree.insert(1, 10);
    tree.insert(2, 20);
    tree.insert(3, 30);
    // Retire a path-rebuild batch; its recycler is the tree's single
    // scratch arena, so when a collect fires it the blocks push back onto
    // the very shared list the next insert takes.
    assert_eq!(tree.remove(&2), Some(20));

    let driver = {
        let c = c.clone();
        spawn(move || {
            // Two advances past the retirement tag plus the reclaim pass
            // that runs `push_chain` — concurrent with the writer's take.
            for _ in 0..3 {
                c.collect();
            }
        })
    };
    let writer = {
        let tree = Arc::clone(&tree);
        spawn(move || {
            tree.insert(4, 40);
        })
    };
    driver.join().unwrap();
    writer.join().unwrap();

    tree.check_invariants();
    assert_eq!(tree.to_vec(), vec![(1, 10), (3, 30), (4, 40)]);
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(
        s.objects_retired, s.objects_freed,
        "retirements stranded after the recycle/alloc race"
    );
}

/// `fork()` racing a committing writer: the child must start from exactly
/// the pre-commit or the post-commit tree — never a torn mix — because
/// fork takes the parent's writer lock, so it can only observe a fully
/// published root. The child then diverges without the parent noticing.
pub fn fork_vs_writer() {
    let c = Collector::with_shards(1);
    let parent: Arc<BonsaiTree<u64, u64>> = Arc::new(BonsaiTree::new(c.clone()));
    parent.insert(1, 10);
    parent.insert(2, 20);
    parent.insert(3, 30);

    let writer = {
        let parent = Arc::clone(&parent);
        spawn(move || {
            parent.insert(4, 40);
        })
    };
    let forker = {
        let parent = Arc::clone(&parent);
        spawn(move || {
            let child = parent.fork();
            child.check_invariants();
            let snap = child.to_vec();
            let pre = vec![(1, 10), (2, 20), (3, 30)];
            let post = vec![(1, 10), (2, 20), (3, 30), (4, 40)];
            assert!(
                snap == pre || snap == post,
                "fork observed a torn commit: {snap:?}"
            );
            // The child diverges over the shared structure; the parent
            // must not see it (checked after the join).
            child.insert(99, 990);
            assert_eq!(child.get_owned(&99), Some(990));
        })
    };
    writer.join().unwrap();
    forker.join().unwrap();

    parent.check_invariants();
    assert_eq!(
        parent.get_owned(&99),
        None,
        "child mutation leaked into the parent"
    );
    assert_eq!(
        parent.to_vec(),
        vec![(1, 10), (2, 20), (3, 30), (4, 40)],
        "fork disturbed the parent's own commit"
    );
    drop(parent);
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
}

/// Two lineages replace the *same shared subtree* concurrently: parent
/// and forked child both remove the key whose node (and rebuilt path)
/// they share. The per-node refcounts must hand each shared node to the
/// collector exactly once — when the *second* lineage drops its last
/// reference — in every schedule: a double retirement corrupts the arena
/// free list (caught by the invariant checks and the balanced counters),
/// a missed one strands `objects_retired > objects_freed` after both
/// lineages are gone.
pub fn shared_subtree_retire() {
    let c = Collector::with_shards(1);
    c.set_unpin_collect_period(1);
    let parent: Arc<BonsaiTree<u64, u64>> = Arc::new(BonsaiTree::new(c.clone()));
    parent.insert(1, 10);
    parent.insert(2, 20);
    parent.insert(3, 30);
    let child = Arc::new(parent.fork());

    let on_parent = {
        let parent = Arc::clone(&parent);
        spawn(move || {
            assert_eq!(parent.remove(&2), Some(20));
        })
    };
    let on_child = {
        let child = Arc::clone(&child);
        spawn(move || {
            assert_eq!(child.remove(&2), Some(20));
        })
    };
    on_parent.join().unwrap();
    on_child.join().unwrap();

    // Both lineages independently removed the shared key; each still
    // reads its own intact tree over whatever structure remains shared.
    parent.check_invariants();
    child.check_invariants();
    assert_eq!(parent.to_vec(), vec![(1, 10), (3, 30)]);
    assert_eq!(child.to_vec(), vec![(1, 10), (3, 30)]);

    // Tear down both lineages (the threads' clones died at join; these
    // are the last), then drain: every node shared between them must have
    // been retired exactly once.
    drop(parent);
    drop(child);
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert!(s.objects_retired > 0, "shared teardown retired nothing");
    assert_eq!(
        s.objects_retired, s.objects_freed,
        "a shared node was stranded (leak) or handed over twice"
    );
}

/// A parked waiter and a releasing holder: both writers lock exactly
/// `[0x1000, 0x2000)`, so whichever arrives while the other holds the span
/// finds the conflict, counts itself in the stripe's `waiting` word and
/// parks — and the holder's release, which notifies the stripe only when
/// it reads a non-zero count under the stripe mutex, must wake it. A lost
/// wakeup is a thread parked forever: the explorer reports it as a
/// deadlock, the `std` mirror hangs. Every schedule must end in one of
/// the two serial outcomes.
pub fn parked_waiter_vs_releasing_holder() {
    let c = Collector::with_shards(1);
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::with_stripes(c.clone(), 2));
    assert!(map.map(0x1000, 0x2000, 1));

    let remover = {
        let map = Arc::clone(&map);
        // Exact bounds: one acquisition, no widening retry.
        spawn(move || map.unmap_range(0x1000, 0x2000))
    };
    let mapper = {
        let map = Arc::clone(&map);
        spawn(move || map.map(0x1000, 0x2000, 2))
    };
    let removed = remover.join().unwrap();
    let mapped = mapper.join().unwrap();

    // The remover always finds region 1 (the mapper can only add a region
    // once it is gone); the mapper succeeds iff it ran second.
    assert_eq!(removed, 1, "remover lost its region");
    let want = if mapped {
        vec![(0x1000, 0x2000, 2)]
    } else {
        vec![]
    };
    assert_eq!(map.to_vec(), want, "outcome is not a serial order");
    assert!(
        map.contended_acquires() <= 1,
        "one of two writers waits at most once"
    );
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
}

/// Two writers race on *overlapping* spans: one clears `[0x1000, 0x2000)`
/// out of a larger region (exercising the span-widening retry and a
/// truncation re-insert), the other tries to map into the same bytes.
/// The range locks must serialize them into one of exactly two outcomes —
/// in every schedule, with no deadlock and no overlap in the final state.
pub fn overlapping_writers() {
    let c = Collector::with_shards(1);
    c.set_unpin_collect_period(1);
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::new(c.clone()));
    assert!(map.map(0x1000, 0x3000, 1));

    let clearer = {
        let map = Arc::clone(&map);
        spawn(move || {
            // Removes [0x1000,0x3000) and re-publishes its tail
            // [0x2000,0x3000): the discovered extent (0x3000) escapes the
            // requested span, forcing the widening retry path.
            assert_eq!(map.unmap_range(0x1000, 0x2000), 1);
        })
    };
    let mapper = {
        let map = Arc::clone(&map);
        spawn(move || map.map(0x1800, 0x2000, 9))
    };
    clearer.join().unwrap();
    let mapped = mapper.join().unwrap();

    // Serializability: either the mapper ran first (bytes still covered →
    // rejected) or after the clearer (hole free → granted). Nothing else.
    let regions: Vec<(u64, u64)> = map.to_vec().into_iter().map(|(s, e, _)| (s, e)).collect();
    if mapped {
        assert_eq!(
            regions,
            vec![(0x1800, 0x2000), (0x2000, 0x3000)],
            "mapper succeeded but final state is inconsistent"
        );
    } else {
        assert_eq!(
            regions,
            vec![(0x2000, 0x3000)],
            "mapper was rejected yet the hole is not clean"
        );
    }
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
}
