//! Payload exactness: once every tree or map of a family is dropped and the
//! backend has synchronized, every payload ever stored has been dropped
//! exactly once — on every reclamation backend.
//!
//! Writers hand replaced nodes to the backend a chunk at a time, so at any
//! moment a scratch may hold a partial batch: nodes already unlinked,
//! payloads not yet dropped. A partial batch lost when its tree or map is
//! dropped leaks those payloads; one retired twice (or a node both batched
//! and freed another way) drops them twice. The payload here counts its
//! live instances — up on construction and clone, down on drop — so
//! either mistake leaves the count off zero. The other tests count nodes
//! (`retired == freed`), which a lost batch never enters.

use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use bonsai::{BonsaiTree, RangeMap};
use rcukit::{ReclaimBackend, ReclaimKind};

const KINDS: [ReclaimKind; 4] = [
    ReclaimKind::Epoch,
    ReclaimKind::Qsbr,
    ReclaimKind::Hp,
    ReclaimKind::Hybrid,
];

const PAGE: u64 = 0x1000;

/// A payload that counts its live instances in `count`. A double drop
/// drives the count below the number of instances really alive, so it
/// can end negative; the counter is leaked so that even then no memory is
/// touched after it dies.
struct Live {
    count: &'static AtomicIsize,
}

impl Live {
    fn new(count: &'static AtomicIsize) -> Self {
        count.fetch_add(1, Relaxed);
        Self { count }
    }
}

impl Clone for Live {
    fn clone(&self) -> Self {
        Self::new(self.count)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Relaxed);
    }
}

/// A fresh live-instance counter (one per backend run, so tests running
/// in parallel never share one).
fn counter() -> &'static AtomicIsize {
    Box::leak(Box::new(AtomicIsize::new(0)))
}

/// Small deterministic RNG (xorshift64*); the workspace carries no
/// external dependencies.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// Synchronizes `backend` and checks that nothing is left: no live payload
/// and no retired node unfreed.
fn assert_all_dropped(kind: ReclaimKind, backend: &ReclaimBackend, live: &AtomicIsize) {
    backend.synchronize();
    assert_eq!(
        live.load(Relaxed),
        0,
        "{kind:?}: payloads still alive (> 0: leaked) or dropped twice (< 0)"
    );
    let s = backend.stats();
    assert!(s.objects_retired > 0, "{kind:?}: nothing was ever retired");
    assert_eq!(s.objects_retired, s.objects_freed, "{kind:?}");
    assert_eq!(s.bytes_retired, s.bytes_freed, "{kind:?}");
}

/// Random `map`/`unmap`/`unmap_range`/`fork`/drop lineages over one map
/// family, then everything dropped: every payload gone exactly once.
#[test]
fn every_payload_drops_exactly_once_across_map_lineages() {
    const OPS: u64 = if cfg!(miri) { 300 } else { 20_000 };
    const SLOTS: u64 = 48;
    const MAX_LINEAGES: usize = 6;
    for kind in KINDS {
        let live = counter();
        let backend = ReclaimBackend::new(kind);
        let mut rng = Rng(0x00DD_BA11 ^ kind as u64);
        let mut lineages: Vec<RangeMap<Live>> = vec![RangeMap::with_backend(backend.clone())];
        for _ in 0..OPS {
            let i = rng.below(lineages.len() as u64) as usize;
            let start = rng.below(SLOTS) * 4 * PAGE;
            match rng.below(32) {
                0 if lineages.len() < MAX_LINEAGES => {
                    let child = lineages[i].fork();
                    lineages.push(child);
                }
                1 if lineages.len() > 1 => drop(lineages.swap_remove(i)),
                2..=5 => {
                    // Up to two slots wide: removes, truncates and splits.
                    let lo = start + rng.below(3) * PAGE;
                    lineages[i].unmap_range(lo, lo + (1 + rng.below(8)) * PAGE);
                }
                6..=15 => drop(lineages[i].unmap(start)),
                _ => {
                    let end = start + (1 + rng.below(3)) * PAGE;
                    lineages[i].map(start, end, Live::new(live));
                }
            }
        }
        assert!(
            live.load(Relaxed) > 0,
            "{kind:?}: the lineages hold nothing"
        );
        drop(lineages);
        assert_all_dropped(kind, &backend, live);
    }
}

/// Dropping a map or a tree whose writers have replaced fewer nodes than
/// one retire chunk: nothing has reached the backend yet, so every
/// replaced payload is on a pending list — the map's pooled scratches',
/// the tree's own writer scratch's — and the drop must retire them all.
#[test]
fn drops_retire_partial_batches() {
    for kind in KINDS {
        let live = counter();
        let backend = ReclaimBackend::new(kind);
        let map: RangeMap<Live> = RangeMap::with_backend(backend.clone());
        for slot in 0..6 {
            assert!(map.map(slot * 4 * PAGE, slot * 4 * PAGE + PAGE, Live::new(live)));
        }
        assert_eq!(map.unmap_range(0, 5 * PAGE), 2);
        let tree: BonsaiTree<u64, Live> = BonsaiTree::with_backend(backend.clone());
        for k in 0..6 {
            tree.insert(k, Live::new(live));
        }
        tree.insert(3, Live::new(live));
        let child = tree.fork();
        child.remove(&4);
        assert_eq!(
            backend.stats().objects_retired,
            0,
            "{kind:?}: a batch shipped; the test no longer drops partial ones"
        );
        drop((map, tree, child));
        assert_all_dropped(kind, &backend, live);
    }
}
