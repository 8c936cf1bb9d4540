//! A VMA-style interval map over the Bonsai tree, with range-locked
//! parallel writers.
//!
//! Models the paper's address-space workload: page faults translate an
//! address to the mapped region containing it (`lookup`), concurrently with
//! `mmap`/`munmap`-style mutations (`map`/`unmap`/`unmap_range`). Lookups
//! are lock-free reads of the underlying [`BonsaiTree`]; mutations acquire
//! a [`RangeLocks`](crate::range_lock) span covering exactly the bytes they
//! decide over and mutate, so **disjoint mutations run in parallel** and
//! only overlapping spans serialize — the finer-grained successor to the
//! paper's single per-address-space writer lock.
//!
//! # The lock-coverage invariant
//!
//! Every mutation holds range locks covering (a) every byte of every
//! region it inserts, (b) every byte of every region it removes or
//! replaces, and (c) every byte whose coverage status its decision depends
//! on. Since any region overlapping a span `[start, end)` necessarily
//! covers at least one byte *inside* the span, holding `[start, end)`
//! freezes the span's coverage: no concurrent writer can create or destroy
//! coverage of any byte in it. That is exactly what makes `map`'s
//! check-then-insert atomic against other writers, while the tree-level
//! CAS commit (see `tree.rs`) keeps concurrent disjoint commits physically
//! sound. Operations whose affected extent is discovered dynamically
//! (`unmap` of an unknown-length region, `unmap_range` hitting straddling
//! regions) use a *widening retry*: if the discovered extent escapes the
//! held span, release, re-acquire the wider monotonically-grown span, and
//! revalidate — never extending a held lock, so the no-hold-and-wait
//! deadlock-freedom argument (`docs/CONCURRENCY.md`) is preserved.
//!
//! # What readers observe
//!
//! Every mutation, `unmap_range` included, is one publication (one root
//! CAS), so a lock-free reader sees each one wholly applied or not at all.

use std::fmt;
use std::sync::Arc;

use rcukit::{Collector, Guard, ReclaimBackend};

use crate::arena::ChunkStore;
use crate::range_lock::{RangeLocks, RangeWriteGuard};
use crate::tree::{
    with_write_session, BonsaiTree, Cut, Floor, Node, Probe, WriteSess, WriterScratch,
};

/// A mapped region: keyed in the tree by its start address, carrying its
/// exclusive end and a payload.
#[derive(Clone)]
struct Extent<V> {
    end: u64,
    value: V,
}

/// The scratch type pooled by the map's range-lock manager.
type Scratch<V> = WriterScratch<u64, Extent<V>>;

/// A held range lock, lending its pooled scratch.
type Lock<'a, V> = RangeWriteGuard<'a, Scratch<V>>;

/// An interval map of non-overlapping half-open ranges `[start, end)`,
/// backed by a [`BonsaiTree`] keyed on range start.
///
/// The address-space analogy: `map` is `mmap`, `unmap` is `munmap`
/// (exact-start), [`unmap_range`](Self::unmap_range) is a multi-region
/// `munmap` that splits and truncates straddling regions, and `lookup` is
/// the page-fault handler's VMA search — the operation the paper makes
/// scale by running it under RCU instead of a lock. Mutations on disjoint
/// spans commit in parallel under per-span range locks; see the module
/// docs and `docs/CONCURRENCY.md`.
pub struct RangeMap<V> {
    tree: BonsaiTree<u64, Extent<V>>,
    /// The arena family every scratch of this map — the tree's mutex-owned
    /// one and the range-lock pool's alike — allocates from. Held here so
    /// [`fork`](Self::fork) can put the child lineage's scratches in the
    /// same family: lineages share nodes, so they must share the blocks'
    /// lifetime story too (a pending recycle batch pins only its own
    /// arena's store).
    store: Arc<ChunkStore<Node<u64, Extent<V>>>>,
    /// The range-lock manager: writer mutual exclusion by byte span, plus
    /// the pool of per-holder scratch buffers (the map's share of the
    /// writer-path allocation diet).
    locks: RangeLocks<Scratch<V>>,
}

impl<V> RangeMap<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty map reclaiming through `collector`. The range-lock
    /// table is striped by the machine's available parallelism.
    pub fn new(collector: Collector) -> Self {
        Self::with_backend(ReclaimBackend::Epoch(collector))
    }

    /// Creates an empty map reclaiming through either [`ReclaimBackend`]
    /// (epoch or hybrid). The backend decides the read-side protocol
    /// available: guard-based [`lookup`](Self::lookup) requires the epoch
    /// backend, while the owned lookups and [`contains`](Self::contains)
    /// work on both.
    pub fn with_backend(backend: ReclaimBackend) -> Self {
        Self::build(backend, None)
    }

    /// [`new`](Self::new) with an explicit range-lock stripe count
    /// (rounded up to a power of two, clamped to `1..=64`). Test and
    /// model-checking aid: small stripe tables force multi-stripe span
    /// geometries a machine-sized table would spread out.
    #[doc(hidden)]
    pub fn with_stripes(collector: Collector, stripes: usize) -> Self {
        Self::with_backend_and_stripes(ReclaimBackend::Epoch(collector), stripes)
    }

    /// [`with_backend`](Self::with_backend) with an explicit range-lock
    /// stripe count (see [`with_stripes`](Self::with_stripes)).
    #[doc(hidden)]
    pub fn with_backend_and_stripes(backend: ReclaimBackend, stripes: usize) -> Self {
        Self::build(backend, Some(stripes))
    }

    /// Shared constructor body: one fresh arena family (one chunk store)
    /// for the whole map, joined by the tree's mutex-owned scratch and
    /// every pooled range-lock scratch, so retired blocks may migrate
    /// between them while any pending recycle batch keeps all their
    /// backing chunks alive (see `crate::arena`).
    fn build(backend: ReclaimBackend, stripes: Option<usize>) -> Self {
        let store: Arc<ChunkStore<Node<u64, Extent<V>>>> = Arc::new(ChunkStore::new());
        let tree = BonsaiTree::with_scratch(backend, Scratch::with_store(store.clone()));
        Self::assemble(tree, store, stripes)
    }

    /// Wraps an already-built tree (fresh or forked) in a map over
    /// `store`'s arena family.
    fn assemble(
        tree: BonsaiTree<u64, Extent<V>>,
        store: Arc<ChunkStore<Node<u64, Extent<V>>>>,
        stripes: Option<usize>,
    ) -> Self {
        let locks = match stripes {
            Some(n) => RangeLocks::with_stripes(n),
            None => RangeLocks::new(),
        };
        Self { tree, store, locks }
    }

    /// Acquires the range lock on `[lo, hi)`; a pool miss creates the
    /// lent scratch in this map's arena family.
    fn acquire(&self, lo: u64, hi: u64) -> Lock<'_, V> {
        self.locks
            .acquire(lo, hi, || Scratch::with_store(self.store.clone()))
    }

    /// Snapshots the map in O(1) — the `fork()` of the paper's
    /// address-space analogy: the child starts as an identical map sharing
    /// every tree node with the parent, and the two diverge copy-on-write
    /// from there (see [`BonsaiTree::fork`]). The child keeps the parent's
    /// backend, arena family, and stripe geometry.
    ///
    /// The fork acquires the *full* address range, excluding every
    /// concurrent writer, so no commit can release the root it takes its
    /// count on (see `BonsaiTree::fork_in`). Readers of the parent are
    /// undisturbed.
    pub fn fork(&self) -> Self {
        with_write_session(
            &self.tree,
            || self.acquire(0, u64::MAX),
            |sess, _lock| {
                let tree = self
                    .tree
                    .fork_in(sess, Scratch::with_store(self.store.clone()));
                Self::assemble(tree, self.store.clone(), Some(self.locks.stripe_count()))
            },
        )
    }

    /// The reclamation backend this map retires through.
    pub fn backend(&self) -> &ReclaimBackend {
        self.tree.backend()
    }

    /// The collector backing this map.
    ///
    /// # Panics
    ///
    /// Panics if the map was built on a non-epoch backend.
    pub fn collector(&self) -> &Collector {
        self.tree.collector()
    }

    /// Pins the current thread against the map's collector. The guard
    /// borrows the map, so the map cannot be dropped while it is live.
    ///
    /// # Panics
    ///
    /// Panics if the map was built on a non-epoch backend; use the owned
    /// lookups ([`lookup_owned`](Self::lookup_owned),
    /// [`translate_owned`](Self::translate_owned),
    /// [`contains`](Self::contains)) there instead.
    pub fn pin(&self) -> Guard<'_> {
        self.tree.pin()
    }

    /// Largest capacity among the pooled writer scratch buffers (see
    /// `BonsaiTree::writer_scratch_capacity`). Test aid; call while no
    /// writer is active.
    #[doc(hidden)]
    pub fn writer_scratch_capacity(&self) -> usize {
        self.locks.fold_pooled(0, |max, s| max.max(s.capacity()))
    }

    /// Number of range-lock acquisitions that had to wait for an
    /// overlapping holder. Test aid: disjoint-writer workloads should keep
    /// this at (or near) zero, overlapping ones must move it.
    #[doc(hidden)]
    pub fn contended_acquires(&self) -> u64 {
        self.locks.contended_acquires()
    }

    /// Number of stripes in the range-lock table.
    #[doc(hidden)]
    pub fn lock_stripes(&self) -> usize {
        self.locks.stripe_count()
    }

    /// Held range-lock records across all stripes. Chaos-tier probe: at
    /// quiescence this must be zero even after injected panics — an
    /// unwinding writer's guard releases its span on drop.
    #[doc(hidden)]
    pub fn held_range_locks(&self) -> usize {
        self.locks.held_records()
    }

    /// Largest arena chunk count among the pooled writer scratches — the
    /// capacity-flat proxy for the zero-allocation write path. Call while
    /// no writer is active (lent scratches are invisible to the probe).
    #[doc(hidden)]
    pub fn writer_arena_chunks(&self) -> usize {
        self.locks
            .fold_pooled(0, |max, s| max.max(s.arena_chunks()))
    }

    /// Audits a whole fork family: each lineage's tree invariants, the
    /// reference counts (`BonsaiTree::check_family_invariants`), and the
    /// arena family's block ledger — blocks carved, minus blocks resting
    /// on the shelf and on every live scratch's private stack and shared
    /// list, minus nodes waiting on every live scratch's pending retire
    /// list, must equal the distinct nodes the lineages reach, so a
    /// retired block that never came back (or came back twice) shows.
    /// Panics on violation. Test/debug aid: `family` must be *every* live
    /// lineage of one family, no writer active, and the backend drained
    /// (`synchronize`) so no shipped retirement is in flight.
    #[doc(hidden)]
    pub fn check_family_invariants(family: &[&Self]) {
        let trees: Vec<_> = family.iter().map(|m| &m.tree).collect();
        for tree in &trees {
            tree.check_invariants();
        }
        let reachable = BonsaiTree::check_family_invariants(&trees);
        let Some(first) = family.first() else { return };
        let (carved, shelved) = first.store.carved_and_shelved();
        let (free, pending) = family.iter().fold((0, 0), |acc, m| {
            let (free, pending) = m.tree.writer_free_and_pending();
            m.locks
                .fold_pooled((acc.0 + free, acc.1 + pending), |(f, p), s| {
                    (f + s.arena.free_blocks(), p + s.pending_len())
                })
        });
        assert_eq!(
            carved - shelved - free - pending,
            reachable,
            "arena blocks in use disagree with the nodes the family reaches \
             ({carved} carved, {shelved} shelved, {free} on live arenas' lists, \
             {pending} pending retirement)"
        );
    }

    /// Root-CAS commits that lost to a concurrent writer and rebuilt (see
    /// `BonsaiTree`).
    #[doc(hidden)]
    pub fn cas_retries(&self) -> u64 {
        self.tree.cas_retries()
    }

    /// Speculative nodes discarded by failed root-CAS commits.
    #[doc(hidden)]
    pub fn cas_wasted_nodes(&self) -> u64 {
        self.tree.cas_wasted_nodes()
    }

    /// Number of mapped regions.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether no region is mapped.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Runs `f` holding the range lock on `[lo, hi)` inside a write
    /// session for the map's backend, in the writer session order
    /// (backend gate → lock → protect → mutate → unlock → unprotect; see
    /// `with_write_session`).
    fn locked<R>(
        &self,
        lo: u64,
        hi: u64,
        f: impl FnOnce(&WriteSess<'_>, &mut Lock<'_, V>) -> R,
    ) -> R {
        with_write_session(&self.tree, || self.acquire(lo, hi), f)
    }

    /// Runs `f` [`locked`](Self::locked) on `[lo, hi)` until it completes,
    /// for operations whose affected extent is discovered under the lock:
    /// `f` returns `Err` with the span it needs when that extent escapes
    /// the held one, and the retry takes the union. The span only ever
    /// grows, so the loop terminates.
    fn widening<T>(
        &self,
        (mut lo, mut hi): (u64, u64),
        mut f: impl FnMut(&WriteSess<'_>, &mut Lock<'_, V>, (u64, u64)) -> Result<T, (u64, u64)>,
    ) -> T {
        loop {
            match self.locked(lo, hi, |sess, lock| f(sess, lock, (lo, hi))) {
                Ok(out) => return out,
                Err((l, h)) => (lo, hi) = (lo.min(l), hi.max(h)),
            }
        }
    }

    /// Maps `[start, end)` to `value`. Returns `false` (and maps nothing)
    /// if the range overlaps an existing region.
    ///
    /// Runs under the range lock for exactly `[start, end)`: concurrent
    /// `map`s of disjoint ranges proceed in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn map(&self, start: u64, end: u64, value: V) -> bool {
        assert!(start < end, "empty or inverted range {start:#x}..{end:#x}");
        self.locked(start, end, |sess, lock| {
            // Predecessor overlap: a region starting at or before `start`
            // that has not ended by `start`. (Reading the predecessor is
            // covered by the invariant: its overlap status is a fact about
            // coverage of byte `start`, which our lock freezes.)
            if let Some((_, extent)) = self.tree.get_le_in(&start, sess) {
                if extent.end > start {
                    return false;
                }
            }
            // Successor overlap: a region starting inside `[start, end)`,
            // as the last region starting before `end` would then be.
            if let Some((&last, _)) = self.tree.get_le_in(&(end - 1), sess) {
                if last >= start {
                    return false;
                }
            }
            self.tree
                .insert_with(start, Extent { end, value }, sess, lock.scratch());
            true
        })
    }

    /// Unmaps the region that starts exactly at `start`, returning its
    /// payload.
    ///
    /// The coverage invariant requires holding the lock over the whole
    /// region being destroyed, whose end is only discoverable by reading
    /// the tree — so the span is sized by an optimistic lock-free read and
    /// revalidated under the lock, widening and retrying if the region
    /// grew in between.
    pub fn unmap(&self, start: u64) -> Option<V> {
        // A lock-free miss here is a valid linearization point: no region
        // starts at `start` as of this read.
        let hi = self
            .tree
            .read_map(&start, Probe::Eq, |_, extent| extent.end)?;
        self.widening((start, hi), |sess, lock, (_, hi)| {
            match self
                .tree
                .get_le_in(&start, sess)
                .filter(|&(&s, _)| s == start)
            {
                None => Ok(None),
                // Remapped longer since the optimistic read: the held span
                // no longer covers the region.
                Some((_, extent)) if extent.end > hi => Err((start, extent.end)),
                Some(_) => Ok(self
                    .tree
                    .remove_with(&start, sess, lock.scratch())
                    .map(|extent| extent.value)),
            }
        })
    }

    /// Unmaps every byte in `[start, end)`, kernel-`munmap` style: regions
    /// fully inside the span are removed; a region straddling `start` is
    /// truncated; one straddling `end` keeps its tail; a region enclosing
    /// the whole span is split in two. Returns the number of regions
    /// removed or truncated (`0` if the span touched nothing).
    ///
    /// One publication, like every mutation: readers see the map before
    /// the whole unmap or after it, and a panic (a `V::clone`, say) leaves
    /// it untouched.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn unmap_range(&self, start: u64, end: u64) -> usize {
        assert!(start < end, "empty or inverted range {start:#x}..{end:#x}");
        self.widening((start, end), |sess, lock, (lo, hi)| {
            let mut escaped = None;
            let affected = self.tree.cut_span_with(sess, lock.scratch(), |floor| {
                let (cut, reach) = Self::plan_cut(floor, start, end)?;
                if cut.lo < lo || reach > hi {
                    // The affected regions reach past the held span: cut
                    // nothing, and retry holding all of them.
                    escaped = Some((cut.lo, reach));
                    return None;
                }
                Some(cut)
            });
            escaped.map_or(Ok(affected), Err)
        })
    }

    /// The [`Cut`] that unmaps `[start, end)` from the version `floor`
    /// reads, with the end of the byte extent it affects, or `None` if the
    /// span touches no region. Every affected region lies between two
    /// probes: the head straddler (the region before `start` reaching past
    /// it), which comes back trimmed as `first`, and the last region
    /// starting before `end`, whose piece past `end` comes back as `last` —
    /// or the head's, when the head encloses the span. The cut's `lo` is
    /// where the extent starts.
    fn plan_cut(
        floor: &Floor<'_, u64, Extent<V>>,
        start: u64,
        end: u64,
    ) -> Option<(Cut<u64, Extent<V>>, u64)> {
        let piece = |end, x: &Extent<V>| Extent {
            end,
            value: x.value.clone(),
        };
        let head = start
            .checked_sub(1)
            .and_then(|p| floor(&p))
            .filter(|(_, x)| x.end > start);
        let last = floor(&(end - 1)).filter(|&(&s, _)| s >= start);
        let (&hi, src) = last.or(head)?;
        let lo = head.map_or(start, |(&a, _)| a);
        let first = head.map(|(_, x)| piece(start, x));
        let last = (src.end > end).then(|| (end, piece(src.end, src)));
        Some((
            Cut {
                lo,
                hi,
                first,
                last,
            },
            end.max(src.end),
        ))
    }

    /// Finds the region containing `addr` (the page-fault path). Lock-free;
    /// the reference is valid for the guard's critical section and borrows
    /// the map, so the map cannot be dropped while it is live.
    ///
    /// Epoch backend only (the guard *is* the epoch read-side protocol);
    /// on the hybrid backend use [`lookup_owned`](Self::lookup_owned).
    pub fn lookup<'g>(&'g self, addr: u64, guard: &'g Guard<'_>) -> Option<&'g V> {
        let (_, extent) = self.tree.get_le(&addr, guard)?;
        if addr < extent.end {
            Some(&extent.value)
        } else {
            None
        }
    }

    /// Whether any mapped region contains `addr`. Protects itself for the
    /// duration of the check using whatever read-side protocol the map's
    /// backend prescribes (an epoch pin, or a hybrid pin and validated
    /// root) — the
    /// self-contained page-fault probe used by the
    /// [`AddressSpace`](crate::AddressSpace) backend abstraction. Use
    /// [`lookup`](Self::lookup) with an explicit guard when the payload is
    /// needed or when batching many probes under one pin (epoch backend).
    pub fn contains(&self, addr: u64) -> bool {
        self.tree
            .read_map(&addr, Probe::Le, |_, extent| addr < extent.end)
            .unwrap_or(false)
    }

    /// Clones out the payload of the region containing `addr`. Works on
    /// either backend (this is the only payload lookup available on the
    /// hybrid backend, whose read protocol hands out no guard to borrow
    /// from).
    pub fn lookup_owned(&self, addr: u64) -> Option<V> {
        self.tree
            .read_map(&addr, Probe::Le, |_, extent| {
                (addr < extent.end).then(|| extent.value.clone())
            })
            .flatten()
    }

    /// Like [`lookup`](Self::lookup), also returning the region bounds.
    ///
    /// Epoch backend only; on the hybrid backend use
    /// [`translate_owned`](Self::translate_owned).
    pub fn translate<'g>(&'g self, addr: u64, guard: &'g Guard<'_>) -> Option<(u64, u64, &'g V)> {
        let (start, extent) = self.tree.get_le(&addr, guard)?;
        if addr < extent.end {
            Some((*start, extent.end, &extent.value))
        } else {
            None
        }
    }

    /// Like [`translate`](Self::translate) but cloning the payload out;
    /// works on either backend.
    pub fn translate_owned(&self, addr: u64) -> Option<(u64, u64, V)> {
        self.tree
            .read_map(&addr, Probe::Le, |start, extent| {
                (addr < extent.end).then(|| (*start, extent.end, extent.value.clone()))
            })
            .flatten()
    }

    /// Clones the regions in address order as `(start, end, value)`.
    /// Intended for tests and debugging.
    pub fn to_vec(&self) -> Vec<(u64, u64, V)> {
        self.tree
            .to_vec()
            .into_iter()
            .map(|(start, extent)| (start, extent.end, extent.value))
            .collect()
    }
}

impl<V> Drop for RangeMap<V> {
    fn drop(&mut self) {
        // The pooled scratches' pending retire lists go onto the tree's
        // writer scratch, whose list the tree's drop (next, as a field)
        // retires with its root release through the backend and its
        // cached recycler — one family, so any of its arenas may recycle
        // any of its blocks. `&mut self` means no writer holds a span, so
        // every scratch is pooled and no stripe needs locking.
        let writer = self.tree.writer_mut();
        for scratch in self.locks.pooled_mut() {
            writer.adopt_pending(scratch);
        }
    }
}

impl<V> fmt::Debug for RangeMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeMap")
            .field("tree", &self.tree)
            .field("locks", &self.locks)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The page-fault probe inherits the collector's RMW-free read side:
    /// `contains` performs no atomic read-modify-write through rcukit's
    /// sync facade, takes neither the thread's bag mutex nor a registry
    /// lock, and leaves the collector's strong count alone (the censuses
    /// count in debug builds; in release they read 0 on both sides). The
    /// census cannot see a std `Arc`; that the guard holds no reference to
    /// the thread state is rcukit's to check, where the state is visible
    /// (`slot_pins_perform_no_rmw_and_take_no_lock`).
    #[test]
    fn contains_performs_no_rmw_and_takes_no_lock() {
        let c = Collector::new();
        let m: RangeMap<u32> = RangeMap::new(c.clone());
        for slot in 0..64u64 {
            assert!(m.map(slot * 0x2000, slot * 0x2000 + 0x1000, slot as u32));
        }
        assert!(m.contains(0x2000)); // this thread's slot now holds `c`
        let handles_before = c.handle_count();
        let before = c.stats();
        let rmws_before = Collector::thread_rmw_count();
        let mut hits = 0;
        for i in 0..10_000u64 {
            hits += usize::from(m.contains((i % 128) * 0x1000));
        }
        let rmws = Collector::thread_rmw_count() - rmws_before;
        let after = c.stats();
        assert_eq!(hits, 5_000);
        assert_eq!(rmws, 0, "faults performed atomic RMWs");
        assert_eq!(c.handle_count(), handles_before);
        // What the second `stats()` call itself acquired, as in rcukit's
        // `slot_pins_perform_no_rmw_and_take_no_lock`.
        let (per_stats_registry, per_stats_bags) = if cfg!(debug_assertions) {
            (
                after.registry_shards as u64,
                after.registered_threads as u64,
            )
        } else {
            (0, 0)
        };
        assert_eq!(
            after.registry_locks - before.registry_locks,
            per_stats_registry
        );
        assert_eq!(after.bag_locks - before.bag_locks, per_stats_bags);
    }

    /// The write path's pay-as-you-go contract: an uncontended
    /// `map`/`unmap` on a never-forked map notifies no condvar, takes no
    /// commit gate and performs no reference-count RMW (all three are
    /// debug-build censuses; release builds read 0 throughout). The first
    /// fork switches the counting protocol on for both lineages — and
    /// still wakes nobody.
    #[test]
    fn uncontended_churn_wakes_nobody_and_pays_no_sharing_cost() {
        use crate::tree::sharing_ops;
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        for slot in 0..64u64 {
            assert!(m.map(slot * 0x4000, slot * 0x4000 + 0x1000, slot as u32));
        }
        let before = sharing_ops();
        for i in 0..10_000u64 {
            let start = (i % 64) * 0x4000 + 0x2000;
            assert!(m.map(start, start + 0x1000, 7));
            assert_eq!(m.unmap(start), Some(7));
        }
        assert_eq!(m.locks.wakes(), 0, "uncontended releases woke a stripe");
        assert_eq!(sharing_ops(), before, "a never-forked map paid for sharing");

        let child = m.fork();
        assert_eq!(m.locks.wakes(), 0, "a quiet fork woke a stripe");
        let forked = sharing_ops();
        assert!(m.map(0x2000, 0x3000, 7));
        assert!(child.map(0x2000, 0x3000, 8));
        if cfg!(debug_assertions) {
            assert!(
                sharing_ops() > forked,
                "forked lineages skipped the accounting"
            );
        }
        assert_eq!(m.locks.wakes() + child.locks.wakes(), 0);
    }

    #[test]
    fn map_lookup_unmap() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        assert!(m.map(0x1000, 0x2000, 1));
        assert!(m.map(0x3000, 0x5000, 2));
        assert_eq!(m.len(), 2);

        let g = m.pin();
        assert_eq!(m.lookup(0x0fff, &g), None);
        assert_eq!(m.lookup(0x1000, &g), Some(&1));
        assert_eq!(m.lookup(0x1fff, &g), Some(&1));
        assert_eq!(m.lookup(0x2000, &g), None);
        assert_eq!(m.translate(0x4000, &g), Some((0x3000, 0x5000, &2)));
        drop(g);

        assert_eq!(m.unmap(0x1000), Some(1));
        assert_eq!(m.unmap(0x1000), None);
        let g = m.pin();
        assert_eq!(m.lookup(0x1500, &g), None);
    }

    #[test]
    fn overlaps_are_rejected() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        assert!(m.map(0x2000, 0x4000, 1));
        // Overlapping the middle, start, end, and enclosing.
        assert!(!m.map(0x2800, 0x3000, 2));
        assert!(!m.map(0x1000, 0x2001, 2));
        assert!(!m.map(0x3fff, 0x5000, 2));
        assert!(!m.map(0x1000, 0x6000, 2));
        assert!(!m.map(0x2000, 0x4000, 2));
        // Exactly adjacent ranges are fine.
        assert!(m.map(0x1000, 0x2000, 3));
        assert!(m.map(0x4000, 0x5000, 4));
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.to_vec()
                .into_iter()
                .map(|(s, e, _)| (s, e))
                .collect::<Vec<_>>(),
            vec![(0x1000, 0x2000), (0x2000, 0x4000), (0x4000, 0x5000)]
        );
    }

    /// The full map/lookup/unmap/unmap_range surface replayed on each
    /// reclamation backend through the owned read API, ending with the
    /// backend's retired==freed exit invariant.
    #[test]
    fn map_roundtrip_on_every_backend() {
        use rcukit::HybridDomain;
        for backend in [
            ReclaimBackend::Epoch(Collector::new()),
            ReclaimBackend::Hybrid(HybridDomain::new()),
        ] {
            let kind = backend.name();
            let m: RangeMap<u32> = RangeMap::with_backend(backend.clone());
            assert_eq!(m.backend(), &backend);
            assert!(m.map(0x1000, 0x3000, 1), "{kind}");
            assert!(m.map(0x4000, 0x6000, 2), "{kind}");
            assert!(!m.map(0x2000, 0x5000, 3), "{kind} overlap accepted");
            assert!(m.contains(0x2fff), "{kind}");
            assert!(!m.contains(0x3000), "{kind}");
            assert_eq!(m.lookup_owned(0x1000), Some(1), "{kind}");
            assert_eq!(m.lookup_owned(0x0fff), None, "{kind}");
            assert_eq!(
                m.translate_owned(0x5000),
                Some((0x4000, 0x6000, 2)),
                "{kind}"
            );
            assert_eq!(m.unmap(0x1000), Some(1), "{kind}");
            assert_eq!(m.unmap(0x1000), None, "{kind}");
            // Straddling span: truncates [0x4000,0x6000) to [0x4000,0x5000).
            assert_eq!(m.unmap_range(0x5000, 0x7000), 1, "{kind}");
            assert_eq!(m.to_vec(), vec![(0x4000, 0x5000, 2)], "{kind}");
            drop(m);
            backend.synchronize();
            let s = backend.stats();
            assert_eq!(
                s.objects_retired, s.objects_freed,
                "{kind} leaked retired objects"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty or inverted range")]
    fn empty_range_panics() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        m.map(0x1000, 0x1000, 1);
    }

    #[test]
    fn unmap_range_removes_inside_regions() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        assert!(m.map(0x1000, 0x2000, 1));
        assert!(m.map(0x3000, 0x4000, 2));
        assert!(m.map(0x5000, 0x6000, 3));
        // Span covering the middle two entirely.
        assert_eq!(m.unmap_range(0x3000, 0x6000), 2);
        assert_eq!(
            m.to_vec()
                .into_iter()
                .map(|(s, e, _)| (s, e))
                .collect::<Vec<_>>(),
            vec![(0x1000, 0x2000)]
        );
        // Nothing left in the span: a miss.
        assert_eq!(m.unmap_range(0x3000, 0x6000), 0);
    }

    #[test]
    fn unmap_range_truncates_head_straddler() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        assert!(m.map(0x1000, 0x4000, 7));
        // Span starts inside the region: it is truncated to [0x1000,0x2000).
        assert_eq!(m.unmap_range(0x2000, 0x5000), 1);
        assert_eq!(m.to_vec(), vec![(0x1000, 0x2000, 7)]);
        let g = m.pin();
        assert_eq!(m.lookup(0x1fff, &g), Some(&7));
        assert_eq!(m.lookup(0x2000, &g), None);
    }

    #[test]
    fn unmap_range_keeps_tail_straddler() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        assert!(m.map(0x2000, 0x5000, 7));
        // Span ends inside the region: the tail [0x3000,0x5000) survives.
        assert_eq!(m.unmap_range(0x1000, 0x3000), 1);
        assert_eq!(m.to_vec(), vec![(0x3000, 0x5000, 7)]);
    }

    #[test]
    fn unmap_range_splits_enclosing_region() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        assert!(m.map(0x1000, 0x6000, 9));
        // Span strictly inside one region: it splits into two pieces.
        assert_eq!(m.unmap_range(0x3000, 0x4000), 1);
        assert_eq!(m.to_vec(), vec![(0x1000, 0x3000, 9), (0x4000, 0x6000, 9)]);
        // The freed hole is mappable again.
        assert!(m.map(0x3000, 0x4000, 10));
    }

    #[test]
    fn unmap_range_mixed_head_inside_tail() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        assert!(m.map(0x1000, 0x3000, 1)); // head straddler
        assert!(m.map(0x3000, 0x4000, 2)); // fully inside
        assert!(m.map(0x5000, 0x8000, 3)); // tail straddler
        assert_eq!(m.unmap_range(0x2000, 0x6000), 3);
        assert_eq!(m.to_vec(), vec![(0x1000, 0x2000, 1), (0x6000, 0x8000, 3)]);
    }

    #[test]
    fn unmap_range_at_address_zero() {
        let m: RangeMap<u32> = RangeMap::new(Collector::new());
        assert!(m.map(0x0, 0x2000, 1));
        assert_eq!(m.unmap_range(0x0, 0x1000), 1);
        assert_eq!(m.to_vec(), vec![(0x1000, 0x2000, 1)]);
    }

    /// A `V::clone` panicking mid-rebuild must be contained: the aborted
    /// attempt's speculative nodes are freed on unwind (`DrainOnUnwind`),
    /// the pooled scratch returns clean, the tree is unchanged, and later
    /// writers proceed — the pooled-scratch replacement for the old writer
    /// mutex's poisoning. Without the drain, a release build's next commit
    /// would defer the aborted attempt's still-published replaced nodes
    /// (use-after-free); a debug build would fire the is-drained assert.
    #[test]
    fn panicking_value_clone_mid_rebuild_is_contained() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        static ARMED: AtomicBool = AtomicBool::new(false);
        #[derive(Debug)]
        struct Fuse(u64);
        impl Clone for Fuse {
            fn clone(&self) -> Self {
                if ARMED.swap(false, SeqCst) {
                    panic!("fuse blown mid-rebuild");
                }
                Fuse(self.0)
            }
        }
        let m: RangeMap<Fuse> = RangeMap::new(Collector::new());
        for i in 0..8u64 {
            assert!(m.map(i * 0x2000, i * 0x2000 + 0x1000, Fuse(i)));
        }
        // The next map rebuilds a path through existing nodes, cloning
        // their values; the armed fuse panics on the first such clone.
        ARMED.store(true, SeqCst);
        let blown = catch_unwind(AssertUnwindSafe(|| {
            m.map(8 * 0x2000, 8 * 0x2000 + 0x1000, Fuse(8))
        }));
        assert!(blown.is_err(), "the armed clone must panic mid-rebuild");
        // No trace of the aborted attempt: unchanged map, working writers,
        // full reclamation.
        assert_eq!(m.len(), 8);
        assert!(m.map(8 * 0x2000, 8 * 0x2000 + 0x1000, Fuse(8)));
        assert_eq!(m.unmap(0).map(|f| f.0), Some(0));
        m.collector().synchronize();
        let s = m.collector().stats();
        assert_eq!(s.objects_retired, s.objects_freed);
    }

    /// Dropping the map while retirements are still waiting out their
    /// grace period must be safe even when retired blocks were allocated
    /// by a *different* pooled scratch than the one that retired them:
    /// the pending batch pins its recycler arena, which pins the family
    /// chunk store, so every block's backing chunk stays alive until the
    /// collector's final drain fires the batch. (Regression test for a
    /// cross-arena use-after-free: per-scratch chunk ownership freed a
    /// sibling's chunks while a batch still pointed into them.)
    #[test]
    fn drop_with_pending_batches_is_safe() {
        let collector = Collector::new();
        {
            let m: RangeMap<u64> = RangeMap::new(collector.clone());
            // A long-lived reader pin keeps every retirement queued.
            let outer = collector.register();
            let pin = outer.pin();
            // Churn through *many* sequential writer sessions; scratches
            // cycle through stripe pools, so later sessions retire nodes
            // earlier sessions' arenas allocated.
            for round in 0..8u64 {
                for slot in 0..64u64 {
                    let start = slot * 0x4000;
                    if m.unmap(start).is_none() {
                        assert!(m.map(start, start + 0x2000, round));
                    }
                }
            }
            drop(pin);
            // Map (and all its arenas' handles) drop here with batches
            // still pending on the collector.
        }
        // The final drain reclaims into (and frees) the still-pinned
        // family store; a use-after-free here dies under Miri/ASan and
        // corrupts the heap in plain runs.
        collector.synchronize();
        let s = collector.stats();
        assert_eq!(s.objects_retired, s.objects_freed);
        assert!(s.objects_retired > 0);
    }

    /// A `V::clone` panicking anywhere inside `unmap_range` leaves the map
    /// exactly as it was, with no range lock held: every clone runs before
    /// the one commit. The fuse blows at each clone index in turn, on an
    /// enclosing split and on a head + inside + tail span.
    #[test]
    fn panicking_clone_in_unmap_range_leaves_the_map_unchanged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        // Clones left before one panics; the blown fuse wraps to disarmed.
        static FUSE: AtomicUsize = AtomicUsize::new(usize::MAX);
        struct Fuse(u64);
        impl Clone for Fuse {
            fn clone(&self) -> Self {
                if FUSE.fetch_sub(1, SeqCst) == 0 {
                    panic!("fuse blown mid-unmap_range");
                }
                Fuse(self.0)
            }
        }
        let contents = |m: &RangeMap<Fuse>| -> Vec<(u64, u64, u64)> {
            m.to_vec()
                .into_iter()
                .map(|(s, e, v)| (s, e, v.0))
                .collect()
        };
        let enclosing: &[(u64, u64, u64)] = &[(0x1000, 0x6000, 7)];
        let mixed: &[(u64, u64, u64)] = &[
            (0x1000, 0x3000, 1),
            (0x3000, 0x4000, 2),
            (0x4000, 0x5000, 3),
            (0x6000, 0x9000, 4),
        ];
        for (regions, span, affected, after) in [
            (
                enclosing,
                (0x3000, 0x4000),
                1,
                vec![(0x1000, 0x3000, 7), (0x4000, 0x6000, 7)],
            ),
            (
                mixed,
                (0x2000, 0x7000),
                4,
                vec![(0x1000, 0x2000, 1), (0x7000, 0x9000, 4)],
            ),
        ] {
            for blow_at in 0.. {
                let m: RangeMap<Fuse> = RangeMap::new(Collector::new());
                for &(s, e, v) in regions {
                    assert!(m.map(s, e, Fuse(v)));
                }
                FUSE.store(blow_at, SeqCst);
                let blown = catch_unwind(AssertUnwindSafe(|| m.unmap_range(span.0, span.1)));
                FUSE.store(usize::MAX, SeqCst);
                if blown.is_ok() {
                    assert!(blow_at >= 2, "unmap_range cloned {blow_at} values");
                    assert_eq!(contents(&m), after);
                    break;
                }
                assert_eq!(contents(&m), regions, "clone {blow_at} changed the map");
                assert_eq!(m.held_range_locks(), 0, "clone {blow_at} leaked its lock");
                assert_eq!(m.unmap_range(span.0, span.1), affected);
                assert_eq!(contents(&m), after);
                m.collector().synchronize();
                let s = m.collector().stats();
                assert_eq!(s.objects_retired, s.objects_freed);
            }
        }
    }

    /// The map's pooled writer scratches (distinct from the tree's, which
    /// the range-locked entry points bypass) must stop growing on a
    /// steady-state map/unmap churn — the `RangeMap` half of the
    /// writer-path allocation diet.
    #[test]
    fn steady_state_churn_does_not_regrow_scratch() {
        const PAGE: u64 = 0x1000;
        const SLOTS: u64 = 128;
        let m: RangeMap<u64> = RangeMap::new(Collector::new());
        let toggle = |rounds: usize| {
            for _ in 0..rounds {
                for slot in 0..SLOTS {
                    let start = slot * 4 * PAGE;
                    if m.unmap(start).is_none() {
                        assert!(m.map(start, start + 2 * PAGE, slot));
                    }
                }
            }
        };
        toggle(8); // warm-up: reach the workload's peak path length
        let warm = m.writer_scratch_capacity();
        assert!(warm > 0, "warm-up retired nothing");
        toggle(20);
        assert_eq!(
            m.writer_scratch_capacity(),
            warm,
            "steady-state churn regrew the map's writer scratch buffer"
        );
    }
}
