//! Differential testing for structural-sharing forks.
//!
//! A seeded generator grows a tree, forks it at random points into a
//! family of lineages, and mutates every lineage independently — each one
//! paired with its own shadow `BTreeMap` model cloned at the fork point.
//! Every mutation's return value is checked against the model, lookups
//! are probed continuously, and each lineage's full contents are compared
//! after every step, so a single shared node leaking a mutation across
//! lineages (or a premature retirement corrupting a sibling) is caught at
//! the step that caused it.
//!
//! After the run, lineages are dropped in a seed-dependent order
//! (including dropping some mid-run, while their siblings keep mutating
//! shared subtrees) and the backend is drained: byte-accurate
//! `ReclaimStats` equality (`retired == freed`, objects and bytes) then
//! proves every shared node was retired exactly once — a leak shows up as
//! `freed < retired`... and a double retirement as a double free long
//! before the counters disagree.
//!
//! A tree that has never been forked runs without the counting protocol
//! (every count is 1; see `docs/CONCURRENCY.md` §9), so the lineage tests
//! also cross that boundary on purpose: a map is mutated for thousands of
//! operations *before* its first fork, and the family is audited on both
//! sides of it — every reachable node's count equals its in-degree over
//! the family's live roots, and the arena family's block ledger balances
//! against the nodes those roots reach. The range-map run audits its
//! family that way every 64 steps, its span unmaps cutting across
//! subtrees the lineages share.
//!
//! Everything runs on both reclamation backends.

use std::collections::BTreeMap;

use bonsai::{BonsaiTree, RangeMap};
use rcukit::{Collector, HybridDomain, ReclaimBackend};

/// Both reclamation backends, fresh.
fn backends() -> [ReclaimBackend; 2] {
    [
        ReclaimBackend::Epoch(Collector::new()),
        ReclaimBackend::Hybrid(HybridDomain::new()),
    ]
}

/// Small deterministic RNG (xorshift64*), since the workspace carries no
/// external dependencies.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

const KEY_SPACE: u64 = 512;
const MAX_LINEAGES: usize = 8;

/// One tree lineage with its shadow model.
struct Lineage {
    tree: BonsaiTree<u64, u64>,
    model: BTreeMap<u64, u64>,
    /// Lineage id, for failure messages (index is unstable across drops).
    id: usize,
}

impl Lineage {
    fn mutate(&mut self, rng: &mut Rng) {
        let key = rng.next() % KEY_SPACE;
        if rng.next().is_multiple_of(3) {
            assert_eq!(
                self.tree.remove(&key),
                self.model.remove(&key),
                "lineage {}: remove({key}) diverged from model",
                self.id
            );
        } else {
            let val = rng.next();
            assert_eq!(
                self.tree.insert(key, val),
                self.model.insert(key, val),
                "lineage {}: insert({key}) diverged from model",
                self.id
            );
        }
    }

    fn probe(&self, rng: &mut Rng) {
        let key = rng.next() % KEY_SPACE;
        assert_eq!(
            self.tree.get_owned(&key),
            self.model.get(&key).copied(),
            "lineage {}: get({key}) diverged from model",
            self.id
        );
        assert_eq!(
            self.tree.get_le_owned(&key),
            self.model.range(..=key).next_back().map(|(&k, &v)| (k, v)),
            "lineage {}: get_le({key}) diverged from model",
            self.id
        );
        assert_eq!(
            self.tree.get_ge_owned(&key),
            self.model.range(key..).next().map(|(&k, &v)| (k, v)),
            "lineage {}: get_ge({key}) diverged from model",
            self.id
        );
    }

    fn check_full(&self) {
        self.tree.check_invariants();
        assert_eq!(self.tree.len(), self.model.len(), "lineage {}", self.id);
        let contents: Vec<(u64, u64)> = self.model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(
            self.tree.to_vec(),
            contents,
            "lineage {}: full contents diverged from model",
            self.id
        );
    }
}

fn run_tree_diff(backend: ReclaimBackend, seed: u64, steps: u64) {
    // Miri runs the same logic on a scaled-down step budget (the model.rs
    // ITERS convention); the native runs keep the full interleaving depth.
    let steps = if cfg!(miri) { steps / 20 } else { steps };
    let kind = backend.name();
    let mut rng = Rng(seed);
    let mut next_id = 0;

    // Grow a root lineage first so forks have real subtrees to share.
    let mut root = Lineage {
        tree: BonsaiTree::with_backend(backend.clone()),
        model: BTreeMap::new(),
        id: next_id,
    };
    next_id += 1;
    for _ in 0..KEY_SPACE / 2 {
        root.mutate(&mut rng);
    }
    let mut lineages = vec![root];

    for step in 0..steps {
        let roll = rng.next() % 100;
        let li = (rng.next() as usize) % lineages.len();
        if roll < 5 && lineages.len() < MAX_LINEAGES {
            // Fork at a random point: the child starts as a structural
            // twin of its parent and diverges from here on.
            let child = Lineage {
                tree: lineages[li].tree.fork(),
                model: lineages[li].model.clone(),
                id: next_id,
            };
            next_id += 1;
            child.check_full();
            lineages.push(child);
        } else if roll < 8 && lineages.len() > 1 {
            // Drop a random lineage mid-run: its unshared nodes must be
            // retired while siblings keep reading the shared ones.
            let dead = lineages.swap_remove(li);
            drop(dead);
        } else {
            lineages[li].mutate(&mut rng);
            lineages[li].probe(&mut rng);
        }
        // Full-model comparison for every lineage, every step: the first
        // step where sharing leaks a write across lineages fails here.
        if step % 64 == 0 {
            for l in &lineages {
                l.check_full();
            }
            // Refcount audit: `lineages` is the whole live family.
            let family: Vec<&BonsaiTree<u64, u64>> = lineages.iter().map(|l| &l.tree).collect();
            BonsaiTree::check_family_invariants(&family);
        }
    }
    for l in &lineages {
        l.check_full();
    }

    // Tear down in a seed-dependent order, then drain: every node —
    // shared or not — must be retired exactly once and freed.
    while !lineages.is_empty() {
        let li = (rng.next() as usize) % lineages.len();
        lineages.swap_remove(li);
    }
    backend.synchronize();
    let s = backend.stats();
    assert!(s.objects_retired > 0, "{kind}: nothing was ever retired");
    assert_eq!(
        s.objects_retired, s.objects_freed,
        "{kind}: leaked or double-retired objects after final drain"
    );
    assert_eq!(
        s.bytes_retired, s.bytes_freed,
        "{kind}: byte accounting diverged after final drain"
    );
}

#[test]
fn forked_tree_lineages_match_independent_models() {
    for (salt, backend) in backends().into_iter().enumerate() {
        run_tree_diff(backend, 0x5eed_0001 ^ salt as u64, 1500);
    }
}

#[test]
#[cfg_attr(miri, ignore)] // same logic, larger constants — slow under miri
fn forked_tree_lineages_match_independent_models_long() {
    run_tree_diff(ReclaimBackend::Epoch(Collector::new()), 0xdead_beef, 6000);
}

/// One range-map lineage with its shadow model (`start -> (end, value)`).
struct MapLineage {
    map: RangeMap<u64>,
    model: BTreeMap<u64, (u64, u64)>,
    id: usize,
}

const PAGE: u64 = 0x1000;
const PAGES: u64 = 256;

impl MapLineage {
    fn model_overlaps(&self, start: u64, end: u64) -> bool {
        if let Some((_, &(pred_end, _))) = self.model.range(..=start).next_back() {
            if pred_end > start {
                return true;
            }
        }
        self.model.range(start..end).next().is_some()
    }

    /// `unmap_range` on the model, with `chaos::model_unmap_range`'s
    /// semantics: returns the regions removed or truncated.
    fn model_unmap_range(&mut self, start: u64, end: u64) -> usize {
        let mut affected = 0;
        if let Some((&s, &(e, v))) = self.model.range(..start).next_back() {
            if e > start {
                self.model.insert(s, (start, v));
                if e > end {
                    self.model.insert(end, (e, v));
                }
                affected += 1;
            }
        }
        let inside: Vec<u64> = self.model.range(start..end).map(|(&s, _)| s).collect();
        for s in inside {
            let (e, v) = self.model.remove(&s).expect("inside key vanished");
            if e > end {
                self.model.insert(end, (e, v));
            }
            affected += 1;
        }
        affected
    }

    fn mutate(&mut self, rng: &mut Rng) {
        let start = (rng.next() % PAGES) * PAGE;
        match rng.next() % 4 {
            0 => {
                let pages = 1 + rng.next() % 4;
                let end = start + pages * PAGE;
                let val = rng.next();
                let expect = !self.model_overlaps(start, end);
                assert_eq!(
                    self.map.map(start, end, val),
                    expect,
                    "lineage {}: map({start:#x}, {end:#x}) diverged",
                    self.id
                );
                if expect {
                    self.model.insert(start, (end, val));
                }
            }
            1 => {
                assert_eq!(
                    self.map.unmap(start),
                    self.model.remove(&start).map(|(_, v)| v),
                    "lineage {}: unmap({start:#x}) diverged",
                    self.id
                );
            }
            2 => {
                // A span cut, often over subtrees another lineage shares.
                let end = start + (1 + rng.next() % 8) * PAGE;
                assert_eq!(
                    self.map.unmap_range(start, end),
                    self.model_unmap_range(start, end),
                    "lineage {}: unmap_range({start:#x}, {end:#x}) diverged",
                    self.id
                );
            }
            _ => {
                let addr = start + rng.next() % PAGE;
                let expect = self
                    .model
                    .range(..=addr)
                    .next_back()
                    .and_then(|(_, &(end, v))| (addr < end).then_some(v));
                assert_eq!(
                    self.map.lookup_owned(addr),
                    expect,
                    "lineage {}: lookup({addr:#x}) diverged",
                    self.id
                );
            }
        }
    }

    fn check_full(&self) {
        let contents: Vec<(u64, u64, u64)> =
            self.model.iter().map(|(&s, &(e, v))| (s, e, v)).collect();
        assert_eq!(
            self.map.to_vec(),
            contents,
            "lineage {}: full contents diverged from model",
            self.id
        );
    }
}

fn run_map_diff(backend: ReclaimBackend, seed: u64, steps: u64) {
    // Same miri scale-down as `run_tree_diff`.
    let steps = if cfg!(miri) { steps / 20 } else { steps };
    let kind = backend.name();
    let mut rng = Rng(seed);
    let mut next_id = 0;

    let mut root = MapLineage {
        map: RangeMap::with_backend(backend.clone()),
        model: BTreeMap::new(),
        id: next_id,
    };
    next_id += 1;
    for _ in 0..PAGES {
        root.mutate(&mut rng);
    }
    let mut lineages = vec![root];

    for step in 0..steps {
        let roll = rng.next() % 100;
        let li = (rng.next() as usize) % lineages.len();
        if roll < 5 && lineages.len() < MAX_LINEAGES {
            let child = MapLineage {
                map: lineages[li].map.fork(),
                model: lineages[li].model.clone(),
                id: next_id,
            };
            next_id += 1;
            child.check_full();
            lineages.push(child);
        } else if roll < 8 && lineages.len() > 1 {
            let dead = lineages.swap_remove(li);
            drop(dead);
        } else {
            lineages[li].mutate(&mut rng);
        }
        if step % 64 == 0 {
            audit_family(&backend, &lineages.iter().collect::<Vec<_>>());
        }
    }
    audit_family(&backend, &lineages.iter().collect::<Vec<_>>());

    while !lineages.is_empty() {
        let li = (rng.next() as usize) % lineages.len();
        lineages.swap_remove(li);
    }
    backend.synchronize();
    let s = backend.stats();
    assert!(s.objects_retired > 0, "{kind}: nothing was ever retired");
    assert_eq!(
        s.objects_retired, s.objects_freed,
        "{kind}: leaked or double-retired objects after final drain"
    );
    assert_eq!(
        s.bytes_retired, s.bytes_freed,
        "{kind}: byte accounting diverged after final drain"
    );
}

#[test]
fn forked_range_map_lineages_match_independent_models() {
    for (salt, backend) in backends().into_iter().enumerate() {
        run_map_diff(backend, 0x5eed_0002 ^ salt as u64, 1200);
    }
}

/// Fixed drop orderings around a deep fork chain: grandparent-first,
/// child-first, and middle-first teardowns all drain to retired == freed.
#[test]
fn fork_chain_drop_orderings_balance_reclaim_stats() {
    for order in [[0usize, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0]] {
        for backend in backends() {
            let kind = backend.name();
            let a: BonsaiTree<u64, u64> = BonsaiTree::with_backend(backend.clone());
            for k in 0..200 {
                a.insert(k, k);
            }
            let b = a.fork();
            for k in 0..50 {
                b.insert(k + 1000, k);
                b.remove(&(k * 3));
            }
            let c = b.fork();
            for k in 0..50 {
                c.insert(k + 2000, k);
                c.remove(&(k * 2));
            }
            let mut family = [Some(a), Some(b), Some(c)];
            for i in order {
                let survivors: Vec<usize> = family
                    .iter()
                    .enumerate()
                    .filter(|&(j, t)| j != i && t.is_some())
                    .map(|(_, t)| t.as_ref().unwrap().len())
                    .collect();
                drop(family[i].take());
                // Survivors stay intact after a relative's teardown.
                let after: Vec<usize> = family.iter().flatten().map(|t| t.len()).collect();
                assert_eq!(after, survivors, "sibling teardown disturbed survivors");
                for t in family.iter().flatten() {
                    t.check_invariants();
                }
            }
            backend.synchronize();
            let s = backend.stats();
            assert!(s.objects_retired > 0);
            assert_eq!(
                s.objects_retired, s.objects_freed,
                "{kind} drop order {order:?}: leak or double retirement"
            );
            assert_eq!(s.bytes_retired, s.bytes_freed);
        }
    }
}

/// Drains `backend`, then audits `family` — every live lineage of one
/// map family: model-equal contents, tree invariants, reference counts
/// against in-degrees, and the arena block ledger.
fn audit_family(backend: &ReclaimBackend, family: &[&MapLineage]) {
    backend.synchronize();
    for l in family {
        l.check_full();
        assert_eq!(l.map.len(), l.model.len(), "lineage {}", l.id);
    }
    let maps: Vec<&RangeMap<u64>> = family.iter().map(|l| &l.map).collect();
    RangeMap::check_family_invariants(&maps);
}

/// The never-forked → first-fork transition, on both backends and in both
/// exit orders: a fresh map runs a few thousand operations with the
/// counting protocol off (every count 1, replaced nodes listed, blocks in
/// use == regions mapped — the leak oracle for the list-based retire
/// path), forks, and both lineages keep mutating with it on; the child
/// forks again; then the lineages exit oldest-first or youngest-first,
/// the survivors audited after each exit.
#[test]
fn first_fork_transition_keeps_counts_and_blocks_exact() {
    let ops = if cfg!(miri) { 150 } else { 3000 };
    for oldest_first in [true, false] {
        for (salt, backend) in backends().into_iter().enumerate() {
            let kind = backend.name();
            let mut rng = Rng(0x5eed_0003 ^ salt as u64);
            let mut parent = MapLineage {
                map: RangeMap::with_backend(backend.clone()),
                model: BTreeMap::new(),
                id: 0,
            };
            for _ in 0..ops {
                parent.mutate(&mut rng);
            }
            audit_family(&backend, &[&parent]);
            let s = backend.stats();
            assert!(s.objects_retired > 0, "{kind}: nothing retired unshared");
            assert_eq!(s.objects_retired, s.objects_freed, "{kind}: unshared leak");

            let mut child = MapLineage {
                map: parent.map.fork(),
                model: parent.model.clone(),
                id: 1,
            };
            audit_family(&backend, &[&parent, &child]);
            for _ in 0..ops / 4 {
                parent.mutate(&mut rng);
                child.mutate(&mut rng);
            }
            audit_family(&backend, &[&parent, &child]);

            let mut grandchild = MapLineage {
                map: child.map.fork(),
                model: child.model.clone(),
                id: 2,
            };
            for _ in 0..ops / 4 {
                parent.mutate(&mut rng);
                child.mutate(&mut rng);
                grandchild.mutate(&mut rng);
            }
            audit_family(&backend, &[&parent, &child, &grandchild]);

            if oldest_first {
                drop(parent);
                audit_family(&backend, &[&child, &grandchild]);
                drop(child);
                for _ in 0..ops / 8 {
                    grandchild.mutate(&mut rng);
                }
                audit_family(&backend, &[&grandchild]);
                drop(grandchild);
            } else {
                drop(grandchild);
                audit_family(&backend, &[&parent, &child]);
                drop(child);
                for _ in 0..ops / 8 {
                    parent.mutate(&mut rng);
                }
                audit_family(&backend, &[&parent]);
                drop(parent);
            }
            backend.synchronize();
            let s = backend.stats();
            assert_eq!(
                s.objects_retired, s.objects_freed,
                "{kind} oldest_first={oldest_first}: leak or double retirement"
            );
            assert_eq!(s.bytes_retired, s.bytes_freed);
        }
    }
}
