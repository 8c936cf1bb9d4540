//! `RangeMap` writer scenarios shared by the model-checking tier
//! (`tests/loom.rs`, built with `RUSTFLAGS="--cfg loom"`) and its
//! plain-`std` stress mirror (`tests/model.rs`), following the pattern of
//! `rcukit`'s `tests/scenarios`.
//!
//! Each scenario is one deterministic execution of a small multi-writer
//! interaction against the real `RangeMap`:
//!
//! * under loom, `loomette::model` replays it under every schedule within
//!   the preemption bound — the writer slots' mutexes, the tree's root
//!   CAS, the arena's parked-batch lock and list heads, and every rcukit
//!   protocol atomic are switch points;
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
//! batch should be waiting too). The prefix runs on the model's main
//! thread, whose writes all go through writer slot 0; a spawned thread
//! tries slot 0 first too, so a scenario's writer draws the primed scratch
//! on a one-slot map, and the first of two writers does on a two-slot one.
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

/// Adds exactly `n` nodes to the pending list of writer slot 0's
/// scratch, by `n` trims of the root region `[start, *end)`, none of
/// which may ship the list. Single-threaded: under the model checker a
/// prefix with no thread interleavings to explore.
fn fill_pending(map: &RangeMap<usize>, start: u64, end: &mut u64, n: u64) {
    for _ in 0..n {
        assert_eq!(trim_root(map, start, end), 0, "pending list shipped early");
    }
}

/// Ships one batch from writer slot 0's scratch — trimming
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
/// them, on a two-slot map: in every schedule both writers complete, and
/// neither waits for a writer slot (the one that finds slot 0 taken takes
/// slot 1); the reader sees either the region or nothing (never a foreign
/// payload); the writer that draws slot 0 — the primed scratch — ships a
/// retire batch; dropping the map retires what its scratches still held;
/// and a bounded drain reclaims exactly what was retired.
pub fn disjoint_writers() {
    let c = Collector::with_shards(1);
    // The default collect throttle keeps writer unpins off the registry/
    // garbage locks here, which is what makes three concurrent threads
    // explorable at CI's preemption bound: the unpin-driven collect path
    // is model-checked by rcukit's own scenarios; this one is about the
    // writer slots, the root CAS, and retirement. Reclamation is driven by
    // the bounded explicit drain below instead.
    let map = Arc::new(RangeMap::<usize>::with_slots(
        ReclaimBackend::Epoch(c.clone()),
        2,
    ));
    let mut end = 0x2000;
    assert!(map.map(0x1000, end, 1));
    assert!(map.map(0x3000, 0x4000, 2));
    // The second map listed the root it replaced; filling to one node
    // short of a chunk means whichever writer draws slot 0 replaces at
    // least one node and ships the batch. Nothing ships in this prefix,
    // which keeps the three-thread model inside the checker's budget under
    // `tso`.
    fill_pending(&map, 0x1000, &mut end, RETIRE_CHUNK - 2);
    assert_eq!(retired(&map), 0, "a batch shipped before the writers ran");

    // `unmap_range` with the exact region bounds: one plan each.
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

    // Two writers, two slots: neither may have waited.
    assert_eq!(map.slot_waits(), 0, "a writer waited with a slot free");
    let shipped = retired(&map);
    assert!(shipped > 0, "no retire batch shipped while the writers ran");
    let g = map.pin();
    assert_eq!(map.lookup(0x1800, &g), None);
    assert_eq!(map.lookup(0x3800, &g), None);
    drop(g);
    // The batch left its list empty, and the other unmap replaced at
    // least one node after it (on the same scratch or the other slot's):
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

/// Arena recycling vs. a concurrent reader: a writer unmaps a region and
/// immediately remaps it, on a one-slot map so it draws the primed
/// scratch — with the collect throttle at 1, every writer
/// unpin runs advance-and-reclaim, so the batch the set-up shipped has
/// recycled into the arena, the unmap ships the next one (the set-up
/// leaves the pending list one node short of a chunk), the batch it
/// shipped parks on that scratch's arena, and in some schedules the remap
/// *reuses recycled blocks* while the reader's lookup
/// is mid-walk. The grace period is what makes that safe: a block returns
/// to the arena only after every pinned reader is gone, so the reader must
/// observe the old payload, the new payload, or a miss — never a torn
/// node from a prematurely recycled block.
pub fn arena_recycle_vs_reader() {
    let c = Collector::with_shards(1);
    c.set_unpin_collect_period(1);
    let map = Arc::new(RangeMap::<usize>::with_slots(
        ReclaimBackend::Epoch(c.clone()),
        1,
    ));
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
            // The remap allocates from the arena the unmap's retirement
            // recycles into: the one slot's.
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

/// A reader walks while the writer's pending batch ships, on a one-slot
/// map so the writer draws the primed scratch: the set-up leaves the
/// pending list two nodes short of a chunk, so the writer's
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
    let map = Arc::new(RangeMap::<usize>::with_slots(backend.clone(), 1));
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
/// scratch's private stack and, when it is dry, takes the next batch
/// parked on its arena — while a concurrent `collect()` firing an earlier
/// remove's retirement batch drops its payloads and *parks* it from the
/// driver thread (under loom the arena carves 4-block chunks, so the
/// set-up below leaves the private stack dry and the writer's first
/// allocation races the park). The parked-batch lock orders the
/// reclaimer's payload drops before the owner reuses a block, in every
/// schedule (and, under `LOOMETTE_MODEL=tso`, with the reclaimer's stores
/// buffered until its unlock drains them). A torn block would surface as
/// a broken invariant or a wrong final map. (The name predates parking:
/// the reclaimer used to link the blocks into a Treiber-style shared
/// list.)
pub fn treiber_recycle_push_vs_alloc_pop() {
    let c = Collector::with_shards(1);
    let tree: Arc<BonsaiTree<u64, u64>> = Arc::new(BonsaiTree::new(c.clone()));
    tree.insert(1, 10);
    tree.insert(2, 20);
    tree.insert(3, 30);
    // Retire a path-rebuild batch; its recycler is the tree's single
    // scratch arena, so when a collect fires it the batch parks on the
    // very arena the next insert allocates from.
    assert_eq!(tree.remove(&2), Some(20));

    let driver = {
        let c = c.clone();
        spawn(move || {
            // Two advances past the retirement tag plus the reclaim pass
            // that parks the batch — concurrent with the writer's take.
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

/// Two writers race on *overlapping* spans: one clears `[0x1000, 0x2000)`
/// out of a larger region (a truncation that puts the region's tail back),
/// the other tries to map into the same bytes. Each decides inside its own
/// rebuild, so the root CAS serializes them into one of exactly two
/// outcomes — in every schedule, with no overlap in the final state.
pub fn overlapping_writers() {
    let c = Collector::with_shards(1);
    c.set_unpin_collect_period(1);
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::new(c.clone()));
    assert!(map.map(0x1000, 0x3000, 1));

    let clearer = {
        let map = Arc::clone(&map);
        spawn(move || {
            // Removes [0x1000,0x3000) and re-publishes its tail
            // [0x2000,0x3000), in one publication.
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

/// A parked waiter and a releasing holder, on a one-slot map: both writers
/// touch exactly `[0x1000, 0x2000)`, so whichever arrives while the other
/// holds the one writer slot finds every slot busy, counts a slot wait and
/// blocks on its home slot — and the holder's release must wake it. A
/// lost wakeup is a thread blocked forever: the explorer reports it as a
/// deadlock, the `std` mirror hangs. Every schedule must end in one of
/// the two serial outcomes.
pub fn parked_waiter_vs_releasing_holder() {
    let c = Collector::with_shards(1);
    let map = Arc::new(RangeMap::<usize>::with_slots(
        ReclaimBackend::Epoch(c.clone()),
        1,
    ));
    assert!(map.map(0x1000, 0x2000, 1));

    let remover = {
        let map = Arc::clone(&map);
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
        map.slot_waits() <= 1,
        "one of two writers waits for the slot at most once"
    );
    assert_eq!(map.held_writer_slots(), 0, "a writer slot stayed held");
    drop(map);
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
}

/// How [`overlapping_maps`] admits a mapping: as `RangeMap::map`, whose
/// overlap check is the plan of the insert's own rebuild, or — the
/// meta-test's broken variant — as a probe and an insert, two calls on a
/// `BonsaiTree` of `start → end`.
#[derive(Clone, Copy)]
pub enum Admit {
    /// `RangeMap::map`: decide inside the rebuild.
    InRebuild,
    /// Probe for overlap, then insert: the decision split from the commit.
    #[cfg(loom)]
    ProbeThenInsert,
}

/// Two threads map overlapping spans, `[0x1000, 0x3000)` and
/// `[0x2000, 0x4000)`, into an empty map: exactly one may win, in every
/// schedule. [`Admit::ProbeThenInsert`] lets both probes run before either
/// insert, which the check reports as a double admission — the meta-test
/// in `tests/loom.rs` shows the check can see one.
pub fn overlapping_maps(admit: Admit) {
    let c = Collector::with_shards(1);
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::new(c.clone()));
    #[cfg(loom)]
    let tree: Arc<BonsaiTree<u64, u64>> = Arc::new(BonsaiTree::new(c.clone()));
    let mapper = |start: u64, end: u64| {
        let map = Arc::clone(&map);
        #[cfg(loom)]
        let tree = Arc::clone(&tree);
        spawn(move || match admit {
            Admit::InRebuild => map.map(start, end, 0),
            #[cfg(loom)]
            Admit::ProbeThenInsert => {
                let head = tree.get_le_owned(&start).is_some_and(|(_, e)| e > start);
                let tail = tree
                    .get_le_owned(&(end - 1))
                    .is_some_and(|(s, _)| s >= start);
                !(head || tail) && tree.insert(start, end).is_none()
            }
        })
    };
    let (a, b) = (mapper(0x1000, 0x3000), mapper(0x2000, 0x4000));
    let admitted = [a.join().unwrap(), b.join().unwrap()];
    assert!(
        admitted != [true, true],
        "double admission of overlapping maps"
    );
    assert!(admitted != [false, false], "both overlapping maps refused");
    let regions: Vec<(u64, u64)> = match admit {
        Admit::InRebuild => map.to_vec().into_iter().map(|(s, e, _)| (s, e)).collect(),
        #[cfg(loom)]
        Admit::ProbeThenInsert => tree.to_vec(),
    };
    let winner = if admitted[0] {
        (0x1000, 0x3000)
    } else {
        (0x2000, 0x4000)
    };
    assert_eq!(regions, vec![winner], "the map disagrees with the winner");
    drop(map);
    #[cfg(loom)]
    drop(tree);
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
}

/// The span unmap [`reader_vs_unmap_range`] runs as one call.
pub const ONE_SPAN: &[(u64, u64)] = &[(0x2000, 0x6000)];
/// The same unmap as two calls: the reader can see the state between them.
#[cfg(loom)]
pub const TWO_SPANS: &[(u64, u64)] = &[(0x2000, 0x4000), (0x4000, 0x6000)];

/// A reader against a span unmap: the writer unmaps `[0x2000, 0x6000)`
/// across a head straddler, an inside region and a tail straddler, as the
/// calls in `spans`, while the reader probes one byte of each affected
/// piece in address order under one pin. [`ONE_SPAN`] is one publication,
/// so once the reader has seen a piece unmapped it never sees a later
/// piece still mapped, in any schedule. [`TWO_SPANS`] shows the reader the
/// state between its two calls, which the reader reports as a torn span —
/// the check can see one (the meta-test in `tests/loom.rs`).
pub fn reader_vs_unmap_range(spans: &'static [(u64, u64)]) {
    let c = Collector::with_shards(1);
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::new(c.clone()));
    for (start, end, v) in [
        (0x1000, 0x3000, 1),
        (0x3000, 0x4000, 2),
        (0x5000, 0x8000, 3),
    ] {
        assert!(map.map(start, end, v));
    }

    let writer = {
        let map = Arc::clone(&map);
        spawn(move || {
            let affected: usize = spans.iter().map(|&(s, e)| map.unmap_range(s, e)).sum();
            assert_eq!(affected, 3, "the span unmap missed a region");
        })
    };
    let reader = {
        let map = Arc::clone(&map);
        spawn(move || {
            let g = map.pin();
            let mut unmapped = None;
            for (piece, (addr, v)) in [(0x2800, 1), (0x3800, 2), (0x5800, 3)]
                .into_iter()
                .enumerate()
            {
                match (map.lookup(addr, &g), unmapped) {
                    (None, None) => unmapped = Some(piece),
                    (None, Some(_)) => {}
                    (Some(&got), None) => assert_eq!(got, v, "reader saw a foreign payload"),
                    (Some(_), Some(first)) => {
                        panic!(
                            "torn span unmap: piece {first} unmapped, piece {piece} still mapped"
                        )
                    }
                }
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();

    assert_eq!(map.to_vec(), vec![(0x1000, 0x2000, 1), (0x6000, 0x8000, 3)]);
    drop(map);
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, s.objects_freed);
}
