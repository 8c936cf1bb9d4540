//! The RCU-balanced Bonsai tree.
//!
//! # Structure
//!
//! The tree is a weight-balanced BST (Adams' bounded-balance variant with
//! `DELTA = 3`, `RATIO = 2`, the parameters proven sound for one-element
//! updates). Every node is immutable after publication: an update clones the
//! key/value pairs along the root-to-site path into freshly allocated nodes,
//! rebalancing copy-on-write, and finally swings the root pointer with a
//! compare-and-swap against the snapshot it rebuilt from. Only *after* a
//! successful publication do the replaced nodes join the writer's pending
//! retire list — retiring earlier would let a reader pin after the
//! retirement yet still reach the nodes through the still-published old
//! root — and the list goes to the tree's reclamation backend one chunk
//! at a time ([`WriterScratch`]), not once per update: handing a batch
//! over costs a fence, a few locks and shared-counter updates whatever
//! its size. Holding an unlinked node longer before retiring it is always
//! safe (its grace period can only start later). Retired nodes are
//! reclaimed only once the backend proves no reader can still hold them,
//! so concurrent readers traversing the old path never touch freed memory.
//!
//! # Structural sharing and forks
//!
//! Every node carries a reference count: one reference per parent link
//! (across every published version and every forked lineage that reaches
//! it) plus one per tree whose root pointer is exactly that node.
//! [`BonsaiTree::fork`] snapshots a tree in O(1) by taking one extra
//! reference on the current root; the two lineages then diverge
//! copy-on-write, sharing every untouched subtree. A committed update does
//! not retire "the replaced path" by listing it — it *releases* the old
//! version's root reference ([`release`]), and the resulting cascade
//! finds exactly the nodes no remaining root can reach, stopping at
//! subtrees another lineage still shares. Reclamation *timing* is
//! unchanged: a node whose count hits zero joins the pending list and
//! goes through the backend's grace period like any replaced node,
//! because a reader that pinned before the unlinking commit may still be
//! traversing it. See `docs/CONCURRENCY.md` §9 for the per-backend
//! lifetime argument.
//!
//! Sharing is paid for only once it exists. Until a tree's first
//! [`fork`](BonsaiTree::fork) every published node is reachable from one
//! root through one link, so every count is 1: nodes are born with that
//! count, an update lists the published nodes it replaces as it rebuilds,
//! and a successful commit moves the list to the pending list — no commit
//! gate, no accounting walk, no release cascade. The first fork sets the tree's
//! `shared` flag and needs no fix-up walk (all-ones is what the counting
//! protocol would have produced); from then on both lineages count.
//!
//! # Concurrency contract
//!
//! The tree is generic over [`ReclaimBackend`]: the copy-on-write update
//! machinery is shared, while read-side protection and the retire path
//! dispatch per backend.
//!
//! * **Epoch** (the default, [`BonsaiTree::new`]): lookups
//!   ([`BonsaiTree::get`], [`get_le`](BonsaiTree::get_le),
//!   [`get_ge`](BonsaiTree::get_ge)) take a pinned [`Guard`] from the
//!   tree's collector and are lock-free: they only load the root pointer
//!   and walk immutable nodes. The `*_owned` lookups pin internally.
//! * **Hybrid**: the `*_owned` lookups pin an era interval and validate
//!   the root once (see [`BonsaiTree::hybrid_find`]) — the whole snapshot
//!   is then covered, so the walk itself is plain loads; writers
//!   serialize on a per-tree gate (`hybrid_gate`), so the copy-on-write
//!   path needs no reservation of its own. Guard-based lookups panic.
//! * Updates ([`insert`](BonsaiTree::insert),
//!   [`remove`](BonsaiTree::remove)) serialize on an internal writer mutex,
//!   mirroring the paper's single-writer address-space lock. The *commit*
//!   itself, though, is a CAS-with-retry ([`BonsaiTree::insert_with`] /
//!   [`BonsaiTree::remove_with`]), so crate-internal callers that provide
//!   their own finer-grained serialization — `RangeMap`'s range locks —
//!   may run several writers concurrently: a failed CAS frees the
//!   never-published speculative path and rebuilds from the new root.
//!   ABA on the root pointer is impossible because the write session
//!   protects the load→CAS window per backend: an epoch writer holds a
//!   pinned guard (the snapshot root cannot be freed, let alone
//!   reallocated, until it drops), and hybrid writers are serialized
//!   outright by the gate, so the root cannot change at all. See
//!   `docs/CONCURRENCY.md` at the repo root for the full protocol
//!   walkthrough.

use std::cmp::Ordering as Cmp;
use std::fmt;
use std::ptr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rcukit::{Collector, Guard, HybridDomain, ReclaimBackend, RecycleBatch, Recycler};

use crate::arena::{Arena, ChunkStore, CHUNK_BLOCKS};
use crate::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
use crate::sync::Mutex;

/// Weight-balance factor: a subtree may be at most `DELTA` times heavier
/// than its sibling.
const DELTA: usize = 3;
/// Rotation selector: single vs. double rotation threshold.
const RATIO: usize = 2;

/// An immutable tree node. Published nodes are never mutated; readers walk
/// `left`/`right` as plain loads under a pinned guard. Crate-visible only
/// so `RangeMap` can name the arena chunk-store type its scratch family
/// shares.
pub(crate) struct Node<K, V> {
    /// Number of nodes in the subtree rooted here (including this node).
    size: usize,
    /// References on this node: one per parent link across every
    /// published version and forked lineage that reaches it, plus one per
    /// tree whose root pointer is exactly this node. On a shared tree
    /// links are counted at *commit* time, never speculatively: a node is
    /// born at zero (the not-yet-accounted marker, visible to no other
    /// thread) and receives its counts in the publishing commit's
    /// accounting walk, under the tree's commit gate — so a count can
    /// only be incremented by a thread whose own lineage already holds a
    /// counted chain to the node, never resurrected from zero. The node
    /// leaves the graph only when the count returns to zero ([`release`]),
    /// which is what makes structural sharing across forks sound:
    /// replacing or dropping a node in one lineage can never free state
    /// another lineage still reaches. (It then waits on the releasing
    /// writer's pending list for that list's next hand-off to the backend,
    /// like every replaced node.) On a never-forked tree the node is born at
    /// 1, its final count. Either way the count is never read to decide
    /// whether a node is *fresh*: a concurrent range-locked writer may
    /// rebuild from a root whose publisher has not yet run its post-CAS
    /// code, so freshness is decided from the builder's own scratch.
    rc: AtomicUsize,
    /// Era the node was created in, sampled from the hybrid domain at the
    /// start of the writer entry that built it (0 under the epoch
    /// backend). An under-approximation of the publish era, which is the
    /// safe direction for the hybrid interval rule — and what lets churn
    /// reclaim past a stalled reader: nodes born after its pinned interval
    /// can never be blocked by it.
    birth: u64,
    key: K,
    value: V,
    left: *mut Node<K, V>,
    right: *mut Node<K, V>,
}

// Safety: a retired node's payload is dropped in place on whichever thread
// runs the deferred recycle (see [`crate::arena`]). Dropping a node drops
// only its own key and value — the child pointers are plain data, never
// followed — so sending a node requires exactly `K: Send + V: Send`.
unsafe impl<K: Send, V: Send> Send for Node<K, V> {}

#[cfg(debug_assertions)]
thread_local! {
    /// Debug-build census of the sharing protocol's per-update costs, per
    /// thread: commit-gate acquisitions plus reference-count read-modify-
    /// writes. An update of a never-forked tree must not move it.
    static SHARING_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Tallies one commit-gate acquisition or count RMW (debug builds).
#[inline]
fn note_sharing_op() {
    #[cfg(debug_assertions)]
    let _ = SHARING_OPS.try_with(|n| n.set(n.get() + 1));
}

/// The calling thread's sharing-protocol census (0 in release builds).
#[cfg(test)]
pub(crate) fn sharing_ops() -> u64 {
    #[cfg(debug_assertions)]
    return SHARING_OPS.with(std::cell::Cell::get);
    #[cfg(not(debug_assertions))]
    0
}

/// Takes one reference to `n` (a committed child link, or a root pointer
/// being published or forked). No-op on null.
///
/// # Safety
///
/// `n` must be null or a node whose count the caller can prove is
/// *currently positive and cannot concurrently reach zero*: the caller's
/// own lineage holds a counted chain to `n` that no concurrent release
/// can sever (the old version's, until this commit itself releases it),
/// or writer exclusion rules releases out entirely (fork). Incrementing
/// from zero would resurrect a node another thread already batched.
unsafe fn acquire<K, V>(n: *mut Node<K, V>) {
    if !n.is_null() {
        note_sharing_op();
        // ordering: Relaxed — as in `Arc::clone`: the new reference only
        // becomes visible to other threads through a later Release (the
        // publishing root CAS, or the lock handoff protecting a fork),
        // which carries the count with it; the count synchronizes nothing
        // itself until the paired `release`'s AcqRel decrement.
        unsafe { (*n).rc.fetch_add(1, Ordering::Relaxed) };
    }
}

/// Drops one reference to `n`. When the last reference is gone the node
/// leaves the graph: it is pushed into `batch` for reclamation and its
/// child references die with it (the cascade recurses, stopping at any
/// subtree some other version or lineage still references). No-op on null.
///
/// # Safety
///
/// `n` must be null or a live node the caller holds one reference to,
/// which this call consumes. Every pointer that lands in `batch` has
/// refcount zero — unreachable from every root — and must be handed to
/// grace-period reclamation (or, for provably unpublished nodes, freed
/// directly) exactly once.
unsafe fn release<K, V>(n: *mut Node<K, V>, batch: &mut RecycleBatch) {
    if n.is_null() {
        return;
    }
    note_sharing_op();
    // ordering: AcqRel — as in `Arc::drop`: Release so this holder's
    // accesses to the node happen-before the reclamation the final
    // decrement triggers; Acquire (effective on the final decrement,
    // through the RMW chain over all decrements) so the retiring thread
    // sees every prior holder's accesses as complete before the payload
    // drops.
    if unsafe { (*n).rc.fetch_sub(1, Ordering::AcqRel) } == 1 {
        // Safety: we held the last reference, so the node (still live
        // until its batch fires) is ours to read and its child links are
        // ours to consume.
        let (left, right) = unsafe { ((*n).left, (*n).right) };
        batch.push(n as *mut ());
        unsafe { release(left, batch) };
        unsafe { release(right, batch) };
    }
}

/// The publishing commit's accounting walk: descends from the just-
/// published root, entering only this update's fresh nodes (count still
/// zero, the birth marker). Each fresh node reached takes exactly one
/// reference — its parent link in the new tree, or the root pointer — and
/// each *published* node newly linked from a fresh parent (or republished
/// untouched as the root) gains one. Fresh nodes the walk never reaches
/// were rotated away within the update and stay at zero for the caller to
/// free. Runs before the old version's release, so every published node
/// it acquires still holds its old-version chain.
///
/// # Safety
///
/// `n` must be null or the root the caller just published (or a fresh
/// node's child) on a tree whose commit gate the caller holds: the gate
/// orders accounting in version order, so zero counts here mean "this
/// update's fresh node" and every positive count is held up by the
/// still-unreleased old version.
unsafe fn account<K, V>(n: *mut Node<K, V>) {
    if n.is_null() {
        return;
    }
    // ordering: Relaxed — the zero marker is thread-private until this
    // walk assigns the real count (fresh nodes become reachable to other
    // committers only through the gate handoff, which orders these plain
    // stores before their loads; readers never touch counts).
    if unsafe { (*n).rc.load(Ordering::Relaxed) } == 0 {
        // ordering: Relaxed — see above; the node's single new-tree
        // reference (parent link or root pointer).
        unsafe { (*n).rc.store(1, Ordering::Relaxed) };
        let (left, right) = unsafe { ((*n).left, (*n).right) };
        unsafe { account(left) };
        unsafe { account(right) };
    } else {
        // Safety: a positive count here is held up by the old version's
        // still-unreleased chain (see the function contract).
        unsafe { acquire(n) };
    }
}

/// Writer-owned scratch state, only reachable while holding a writer lock
/// (the tree's internal mutex, or one of `RangeMap`'s range locks, whose
/// manager pools one scratch per concurrently held lock).
///
/// The `fresh` and `replaced` buffers are the CAS-retry bookkeeping of one
/// attempt, `pending` is what committed attempts left to retire, and
/// together with the scratch's [`Arena`] they are the whole
/// allocation-free write path:
///
/// * `fresh` records every node the attempt allocated and still links. On
///   a failed CAS nothing in it was ever visible to any reader and no
///   count was ever touched, so [`Self::discard`] returns every fresh node
///   to the arena immediately.
/// * `replaced` lists, while the tree is unshared (`exclusive`), each
///   published node the rebuild replaces: a successful commit
///   ([`Self::commit`]) moves the list to `pending`, and a failed one
///   merely clears it (those nodes are still published). A shared tree
///   leaves it empty.
/// * `pending` outlives the update: every commit appends the nodes it
///   unlinked — the `replaced` list, or on a shared tree the old root's
///   release cascade, run after the accounting walk ([`account`]) has
///   assigned the new counts — and the list ships to the backend as one
///   deferred batch once it holds [`CHUNK_BLOCKS`] nodes. Every node on
///   it is unreachable from every root; the attempt-level paths
///   (`discard`, [`DrainOnUnwind`], [`CommitOnUnwind`]) never touch it.
///   Whatever a scratch still holds when its tree or map is dropped is
///   folded into the drop's own retirement.
/// * `arena` feeds every node allocation ([`BonsaiTree::mk`]) and pools
///   the batch buffers; once warm, an update performs zero heap
///   allocations (the node blocks, the batch buffer, and — see
///   `rcukit::deferred` — the deferred unit itself are all recycled).
///
/// Capacity persists across updates (amortized zero growth once warm).
pub(crate) struct WriterScratch<K, V> {
    fresh: Vec<*mut Node<K, V>>,
    replaced: RecycleBatch,
    pending: RecycleBatch,
    /// The slab arena this scratch allocates nodes from and retires them
    /// to. Sibling scratches' nodes may also recycle here; see
    /// `crate::arena` on block migration.
    pub(crate) arena: Arena<Node<K, V>>,
    /// Birth era stamped into every node `mk` builds this writer entry —
    /// the hybrid domain's era sampled when the entry began; 0 under the
    /// epoch backend (it ignores the stamp).
    birth_era: u64,
    /// Whether the tree was still unshared when this writer entry began
    /// (sampled from [`BonsaiTree::shared`] under the writer's lock, which
    /// excludes the fork that could change it).
    exclusive: bool,
}

// Safety: the per-attempt buffers are drained before the writer lock is
// released (every update either commits or discards), and inside a
// critical section the scratch is confined to the lock-holding thread.
// What a scratch carries between critical sections is `pending`: nodes
// unreachable from every root, owned by this scratch alone until they
// ship, whose payloads are `K: Send + V: Send` — moving them (and the
// `Send + Sync` arena handle) across threads is sound.
unsafe impl<K: Send, V: Send> Send for WriterScratch<K, V> {}

impl<K, V> Default for WriterScratch<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> WriterScratch<K, V> {
    /// A standalone scratch over its own single-member arena family (the
    /// tree's mutex-owned scratch).
    pub(crate) fn new() -> Self {
        Self::with_store(Arc::new(ChunkStore::new()))
    }

    /// A scratch joining an existing arena family: its nodes live in
    /// `store`, shared with every sibling scratch of the same owner —
    /// which is what lets retired blocks migrate between pooled scratches
    /// while any pending batch (pinning its arena, pinning the store)
    /// keeps every block's chunk alive. See `crate::arena`.
    pub(crate) fn with_store(store: Arc<ChunkStore<Node<K, V>>>) -> Self {
        Self {
            fresh: Vec::new(),
            replaced: RecycleBatch::new(),
            pending: RecycleBatch::new(),
            arena: Arena::with_store(store),
            birth_era: 0,
            exclusive: false,
        }
    }

    /// The family chunk store this scratch's arena belongs to — how forked
    /// trees and sibling scratches join the same block-lifetime family.
    pub(crate) fn store(&self) -> Arc<ChunkStore<Node<K, V>>> {
        self.arena.store()
    }

    /// Capacity of the fresh-node buffer — exposed (via doc-hidden tree /
    /// map accessors) so tests can assert steady-state updates stop growing
    /// it (it tracks the workload's peak rebuilt-path length).
    pub(crate) fn capacity(&self) -> usize {
        self.fresh.capacity()
    }

    /// Chunks allocated by this scratch's arena — the capacity-flat proxy
    /// for the zero-allocation write path: steady-state churn must stop
    /// moving it.
    pub(crate) fn arena_chunks(&self) -> usize {
        self.arena.chunks()
    }

    /// Nodes waiting on the pending retire list: neither reachable nor
    /// free (audit aid for `RangeMap::check_family_invariants`).
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Moves `other`'s pending retire list onto this one's — how a map
    /// being dropped hands its pooled scratches' lists to its tree, whose
    /// drop retires them with its own. Both scratches must belong to one
    /// arena family (any family arena may recycle any family block).
    pub(crate) fn adopt_pending(&mut self, other: &mut Self) {
        for p in other.pending.drain() {
            self.pending.push(p);
        }
    }

    /// Whether both per-attempt buffers are empty — every update must
    /// start and end in this state (`pending` is not per-attempt).
    fn is_drained(&self) -> bool {
        self.fresh.is_empty() && self.replaced.is_empty()
    }

    /// Records that the published node `n` leaves the tree with this
    /// update. A shared tree lists nothing: its release cascade finds the
    /// nodes no remaining root reaches.
    #[inline]
    fn replace(&mut self, n: *mut Node<K, V>) {
        if self.exclusive {
            self.replaced.push(n as *mut ());
        }
    }

    /// Records that `n` (if not null) was rotated out of the path being
    /// rebuilt: one of this attempt's own nodes (found in `fresh`: back to
    /// the arena on the spot) or a published one (joins `replaced`).
    /// Membership in the attempt's own list is the only freshness test
    /// (see [`Node`]'s `rc`).
    ///
    /// # Safety
    ///
    /// `n` must be null or a live node the attempt no longer links and
    /// will not read again.
    unsafe fn unlink(&mut self, n: *mut Node<K, V>) {
        if !self.exclusive || n.is_null() {
            return;
        }
        match self.fresh.iter().rposition(|&f| f == n) {
            Some(i) => {
                self.fresh.swap_remove(i);
                // Safety: allocated by `mk` this attempt, never published,
                // unlinked per the contract; reclaimed exactly once here.
                unsafe { self.arena.reclaim_now(n) };
            }
            None => self.replaced.push(n as *mut ()),
        }
    }

    /// Publication failed (another writer's CAS won) or the attempt
    /// unwound pre-CAS: return every node this attempt allocated to the
    /// arena — none was ever reachable by a reader, so no grace period is
    /// needed, and no reference count was ever touched, so there is
    /// nothing to unwind — and forget the replaced list, whose nodes are
    /// all still published.
    ///
    /// # Safety
    ///
    /// Nothing in `fresh` was published (failed CAS, or unwind before the
    /// CAS); each pointer appears exactly once (every allocation site is
    /// [`BonsaiTree::mk`], which records each node once).
    unsafe fn discard(&mut self) {
        for &n in &self.fresh {
            // Safety: allocated by `mk` this attempt from this scratch's
            // arena, never published, reclaimed exactly once here. Only
            // the node payload is dropped; its children may be published
            // nodes and are not followed.
            unsafe { self.arena.reclaim_now(n) };
        }
        self.fresh.clear();
        drop(self.replaced.drain());
    }
}

/// Unwind guard for a commit attempt: if the attempt leaves the scratch
/// undrained — a `K`/`V` clone or an allocation panicked mid-rebuild,
/// before any publication — free the speculative nodes and forget the
/// replaced list, so the scratch returns to its pool (or poisoned mutex)
/// clean and the next writer inherits no stale pointers. Both buffers
/// count: an unwinding `remove` can have listed the node it removes before
/// its first allocation failed.
struct DrainOnUnwind<'a, K, V>(&'a mut WriterScratch<K, V>);

impl<K, V> Drop for DrainOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        if !self.0.is_drained() {
            // Safety: reached only when the attempt neither committed nor
            // explicitly discarded — i.e. it unwound before its CAS — so
            // everything in `fresh` is unpublished.
            unsafe { self.0.discard() };
        }
    }
}

/// Unwind guard for the post-CAS window: once the root CAS succeeds the
/// new version is published, so the commit accounting (settle reference
/// counts, move the replaced version to the pending retire list) and the
/// length update are owed no matter how the attempt exits — an injected
/// `tree.post_cas` panic included. Runs both on drop, while the caller's
/// commit gate is
/// still held (locals unwind innermost-first), preserving version-order
/// accounting; `commit` leaves the scratch drained, so the outer
/// [`DrainOnUnwind`] then has nothing to discard.
struct CommitOnUnwind<'a, 's, K: Send + 'static, V: Send + 'static> {
    scratch: &'a mut WriterScratch<K, V>,
    sess: &'a WriteSess<'s>,
    old_root: *mut Node<K, V>,
    new_root: *mut Node<K, V>,
    len: &'a AtomicUsize,
    /// The update's change in key count: `+1` for an insert of a new key,
    /// `-1` for a remove, `0` for a replacement, anything for a span cut.
    delta: isize,
}

impl<K: Send + 'static, V: Send + 'static> Drop for CommitOnUnwind<'_, '_, K, V> {
    fn drop(&mut self) {
        self.scratch.commit(self.sess, self.old_root, self.new_root);
        if self.delta != 0 {
            // ordering: Release — pairs with `len`'s Acquire so an observed
            // count implies the commit behind it. The add wraps, so a
            // negative delta subtracts.
            self.len.fetch_add(self.delta as usize, Ordering::Release);
        }
    }
}

impl<K: Send + 'static, V: Send + 'static> WriterScratch<K, V> {
    /// Publication succeeded: move what the update replaced to the
    /// pending retire list. On an unshared tree that is the `replaced`
    /// list the rebuild made, as is — exactly the nodes a release cascade
    /// would have found, each having been reachable through one link from
    /// one root. On a shared tree the reference counts are settled first,
    /// in the only sound order and under the tree's commit gate (held by
    /// the caller across CAS → commit, so accounting runs in version
    /// order).
    ///
    /// 1. [`account`] the new version from `new_root`: kept fresh nodes
    ///    take their single new-tree reference, published nodes newly
    ///    linked from fresh parents (or republished untouched as the
    ///    root) gain one. This precedes every release — each published
    ///    node acquired here is meanwhile held up by the old version's
    ///    not-yet-released chain.
    /// 2. Free rotated-away fresh nodes (count still zero: absent from
    ///    the new tree, never published) back to the arena immediately.
    /// 3. Release the old version's root reference; the cascade collects
    ///    exactly the nodes no remaining root — this tree's new version,
    ///    or any forked lineage — can reach.
    ///
    /// Once the pending list holds [`CHUNK_BLOCKS`] nodes it ships as one
    /// deferred recycle batch — a single retire-tag sample (and its
    /// StoreLoad fence), bag entry and set of shared-counter updates per
    /// chunk instead of per update, zero allocations once the arena's
    /// batch pool is warm (the hybrid backend splits the batch per
    /// pointer, so each node reclaims as soon as no pinned interval
    /// overlaps *its* lifetime).
    /// Shipping a node later than its commit only samples a later retire
    /// tag, so its grace period covers every reader the commit-time tag
    /// would have. After the backend's grace condition the arena drops
    /// each payload in place and reclaims the blocks.
    fn commit(
        &mut self,
        sess: &WriteSess<'_>,
        old_root: *mut Node<K, V>,
        new_root: *mut Node<K, V>,
    ) {
        if self.exclusive {
            for p in self.replaced.drain() {
                self.pending.push(p);
            }
        } else {
            // Safety: `new_root` was just published under the held commit
            // gate; fresh children are this update's own, published ones
            // are held up by the old version until the release below.
            unsafe { account(new_root) };
            for &n in &self.fresh {
                // ordering: Relaxed — the accounting walk above ran on
                // this thread; zero means it never reached `n`.
                if unsafe { (*n).rc.load(Ordering::Relaxed) } == 0 {
                    // Safety: rotated away within this update — absent
                    // from the new tree, so never published and never
                    // referenced; freed exactly once here.
                    unsafe { self.arena.reclaim_now(n) };
                }
            }
            // Safety: dropping the replaced version's root-pointer
            // reference; the cascade stops at subtrees the new version or
            // a forked lineage still references.
            unsafe { release(old_root, &mut self.pending) };
        }
        self.fresh.clear();
        if self.pending.len() < CHUNK_BLOCKS {
            return;
        }
        let batch = std::mem::replace(&mut self.pending, self.arena.take_batch());
        // Safety: every batched pointer left the graph under a write
        // session of this tree family (listed as replaced on the only root
        // that reached it, or released to a zero count) and sat on this
        // scratch's list since: no root reaches it anymore, so only
        // readers already inside a critical section can, and the grace
        // period starting now covers exactly those.
        unsafe { self.defer_batch(sess, batch) };
    }

    /// Ships the non-empty `batch` to the session's backend for
    /// grace-period reclamation.
    ///
    /// # Safety
    ///
    /// Every pointer in `batch` is an arena-family block holding an
    /// initialized `Node` unreachable from every root, batched exactly
    /// once; the payload is `Send` (the bounds here).
    unsafe fn defer_batch(&mut self, sess: &WriteSess<'_>, batch: RecycleBatch) {
        let bytes = batch.len() * std::mem::size_of::<Node<K, V>>();
        // Safety: forwarded contract. The hybrid arm additionally reads
        // each node's birth stamp out of the retired block — still valid
        // here, its grace period starts with this call — and the stamp
        // never exceeds the publish era (`mk` samples it at writer entry).
        unsafe {
            match sess {
                WriteSess::Epoch(guard) => guard.defer_recycle(self.arena.recycler(), batch, bytes),
                WriteSess::Hybrid(d) => {
                    d.defer_recycle_with(self.arena.recycler(), batch, bytes, node_birth::<K, V>)
                }
            }
        }
    }
}

/// Reads a retired node's birth-era stamp for the hybrid backend's
/// interval rule.
///
/// Sound to call only from `defer_batch`: the batched pointers are
/// initialized nodes whose grace period starts with the defer itself, so
/// they are still valid when the domain samples their births.
fn node_birth<K, V>(p: *mut ()) -> u64 {
    // Safety: see above — an initialized, still-valid `Node` block.
    unsafe { (*p.cast::<Node<K, V>>()).birth }
}

/// Which entry a tree search returns: the exact key, its predecessor
/// (greatest `<=`), or its successor (least `>=`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// Exact match.
    Eq,
    /// Greatest entry with key `<= key`.
    Le,
    /// Least entry with key `>= key`.
    Ge,
}

/// One span cut, as a [`BonsaiTree::cut_span_with`] plan describes it:
/// every key in `lo..=hi` leaves the tree, then `first` (if any) comes back
/// at `lo` and `last` (if any) goes in, its key between `hi` and the next
/// key the tree keeps.
pub(crate) struct Cut<K, V> {
    pub(crate) lo: K,
    pub(crate) hi: K,
    pub(crate) first: Option<V>,
    pub(crate) last: Option<(K, V)>,
}

/// How a [`BonsaiTree::cut_span_with`] plan reads the version its attempt
/// was handed: the entry with the greatest key `<=` the one asked for.
pub(crate) type Floor<'v, K, V> = dyn Fn(&K) -> Option<(&'v K, &'v V)> + 'v;

/// Write-side protection token, one variant per reclamation backend. Held
/// for the whole lock→load→rebuild→CAS→retire window of an update; what it
/// proves differs per backend:
///
/// * `Epoch` — the session pinned a housekeeping-free guard, so the
///   snapshot root (and everything reachable from it) cannot be reclaimed,
///   which is also the commit CAS's ABA argument.
/// * `Hybrid` — the caller holds the tree's writer gate: no concurrent
///   commit exists at all, so the root CAS cannot lose, and a gate-held
///   writer traverses only nodes reachable from the current root, which
///   its own exclusion keeps unretired — writers need no era reservation
///   of their own. (Readers run their own pin/protect protocol; the gate
///   is writer-to-writer only.)
pub(crate) enum WriteSess<'a> {
    /// Epoch backend: the pinned (quiet) guard.
    Epoch(Guard<'a>),
    /// Hybrid backend: the domain (the tree's writer gate is held).
    Hybrid(&'a HybridDomain),
}

impl WriteSess<'_> {
    /// Era stamp for the nodes an update builds under this session
    /// ([`Node`]'s `birth` field): the hybrid domain's current era,
    /// sampled at writer entry — so the stamp can only under-approximate
    /// the node's eventual publish era, the safe direction for the
    /// interval rule — or 0 ("born before every era") on the epoch
    /// backend, which ignores the field.
    fn birth_era(&self) -> u64 {
        match self {
            WriteSess::Epoch(_) => 0,
            WriteSess::Hybrid(d) => d.current_era(),
        }
    }
}

/// Runs `f` with a writer lock token held and `tree`'s backend write-side
/// protection established, in the only safe order for a writer entry
/// point (stated for the epoch backend):
///
/// 1. lock first, pin second — a writer queued on a mutex or blocked on a
///    range lock must not hold a pin, or its wait would stall epoch advance
///    (and all reclamation) for the whole collector;
/// 2. the pin is housekeeping-free ([`Collector::pin_quiet`]) — pin-time
///    cache eviction can fire deferred callbacks, and one re-entering a
///    writer entry point would relock a non-reentrant lock this thread
///    already holds;
/// 3. the lock token is dropped before the guard — so it holds even when
///    `f` unwinds — because the outermost unpin may also fire callbacks,
///    and a callback re-entering a writer entry point must find this
///    writer's locks already released;
/// 4. the skipped pin-time housekeeping runs afterwards, once no lock is
///    held and no guard is live.
///
/// On the hybrid backend the protection is the per-tree writer gate
/// ([`BonsaiTree`]'s `hybrid_gate`), taken **before** `acquire` so the
/// lock order gate → writer-mutex/stripe-locks is identical on every path.
///
/// Every writer entry point — the tree's mutex path
/// ([`BonsaiTree::insert`]/[`BonsaiTree::remove`]) and `RangeMap`'s
/// range-locked path — must go through here so the ordering invariants
/// cannot be broken in one call site. The lock token `T` is whatever RAII
/// guard `acquire` produces: a `MutexGuard` over the tree's
/// [`WriterScratch`], or a `RangeWriteGuard` carrying a pooled scratch.
pub(crate) fn with_write_session<K, V, T, R>(
    tree: &BonsaiTree<K, V>,
    acquire: impl FnOnce() -> T,
    f: impl FnOnce(&WriteSess<'_>, &mut T) -> R,
) -> R {
    match &tree.backend {
        ReclaimBackend::Epoch(collector) => {
            struct Session<'a, T> {
                token: T,
                sess: WriteSess<'a>,
            }
            // Struct fields evaluate in written order: lock acquired before
            // the pin. Drop also runs in declaration order: unlock before
            // unpin.
            let mut session = Session {
                token: acquire(),
                sess: WriteSess::Epoch(collector.pin_quiet()),
            };
            let out = {
                let Session { token, sess } = &mut session;
                f(sess, token)
            };
            drop(session);
            collector.housekeep();
            out
        }
        ReclaimBackend::Hybrid(d) => {
            // Gate before `acquire`: the one lock order every hybrid
            // writer path shares (gate → writer mutex, gate → stripe
            // locks), so the gate can never deadlock against the caller's
            // locks. Readers run their own pin/protect protocol against
            // the domain.
            let gate = tree.hybrid_gate.lock().unwrap_or_else(|e| e.into_inner());
            let mut token = acquire();
            let sess = WriteSess::Hybrid(d);
            let out = f(&sess, &mut token);
            drop(token);
            drop(gate);
            out
        }
    }
}

/// The paper's RCU-balanced tree: lock-free lookups, copy-on-write updates
/// with grace-period reclamation.
///
/// # Concurrency contract
///
/// * Lookups ([`get`](Self::get), [`get_le`](Self::get_le),
///   [`get_ge`](Self::get_ge)) take a pinned [`Guard`] from the tree's
///   collector and are lock-free: they only load the root pointer and walk
///   immutable nodes. Returned references stay valid for the shorter of
///   the guard's critical section and the tree's lifetime.
/// * Updates ([`insert`](Self::insert), [`remove`](Self::remove))
///   serialize on an internal writer mutex — the paper's single-writer
///   address-space lock — rebuild the root-to-site path copy-on-write,
///   publish the new root by CAS, and only then queue the replaced nodes
///   for retirement; the queue goes to the collector for grace-period
///   reclamation a chunk at a time. The CAS commit makes
///   the crate-internal entry points safe under *concurrent* writers
///   (`RangeMap` runs them under per-span range locks); only the public
///   `insert`/`remove` pair takes the serializing mutex.
pub struct BonsaiTree<K, V> {
    root: AtomicPtr<Node<K, V>>,
    /// Serializes writers (the paper's per-address-space update lock) and
    /// owns the writer scratch (its buffers, arena and pending retire
    /// list). Lock sites recover
    /// from poisoning (`into_inner`): [`DrainOnUnwind`] guarantees an
    /// unwinding update leaves the scratch drained and the post-CAS guard
    /// completes any published commit, so a poisoned mutex still guards a
    /// clean scratch — the fault-injection tier treats panics as normal
    /// operation and asserts no writer path stays wedged afterwards.
    writer: Mutex<WriterScratch<K, V>>,
    /// The reclamation backend nodes retire to.
    backend: ReclaimBackend,
    /// Hybrid-only writer serialization (see [`WriteSess::Hybrid`]): every
    /// writer entry on a hybrid tree holds it, so commits never race and
    /// writers need no era reservation. Never touched on the epoch
    /// backend, whose writers are protected by their pinned guard.
    hybrid_gate: Mutex<()>,
    /// Serializes the commit point — each CAS attempt plus, on success,
    /// the reference-count accounting behind it ([`WriterScratch::commit`])
    /// — so accounting runs in version order: version N+1's release
    /// cascade must not run before version N's accounting has counted the
    /// links holding N's nodes up. Held only across CAS → account/release
    /// (O(path)); the expensive speculative rebuild stays outside it, so
    /// disjoint `RangeMap` writers still overlap where it matters. A
    /// *leaf* lock: nothing is acquired while it is held. Taken only once
    /// the tree is `shared`: an unshared tree's commits touch no count, so
    /// there is no accounting to order.
    commit_gate: Mutex<()>,
    /// Whether this tree has ever been one side of a fork. False from
    /// construction until the first [`fork_in`](Self::fork_in) sets it on
    /// parent and child, never cleared. While it is false every published
    /// node's count is exactly 1 and updates run without the counting
    /// protocol (see the module docs).
    shared: AtomicBool,
    len: AtomicUsize,
    /// Root-CAS commits that lost to a concurrent writer and rebuilt. Only
    /// the failure path touches these two counters, so an uncontended
    /// writer pays nothing for the telemetry.
    cas_retries: AtomicU64,
    /// Speculative nodes discarded by those failed commits — the wasted
    /// rebuild work the backoff exists to bound.
    cas_wasted: AtomicU64,
    /// The writer scratch's arena recycler, cached at construction (where
    /// the `K: Send + 'static, V: Send + 'static` bounds are in scope) so
    /// the unbounded [`Drop`] impl can defer the final release cascade and
    /// the pending retire lists through the backend.
    recycler: Arc<dyn Recycler>,
}

// Safety: the raw node pointers are owned by the tree (plus the collector's
// deferred-free queue) and all cross-thread access is mediated by the
// epoch protocol; sharing the tree is sound whenever K and V themselves can
// be shared and sent (nodes are dropped on reclaiming threads).
unsafe impl<K: Send + Sync, V: Send + Sync> Send for BonsaiTree<K, V> {}
// Safety: see the `Send` justification above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for BonsaiTree<K, V> {}

impl<K, V> BonsaiTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty tree whose nodes are reclaimed through `collector`
    /// (the epoch backend; use [`with_backend`](Self::with_backend) for
    /// the hybrid one).
    pub fn new(collector: Collector) -> Self {
        Self::with_backend(ReclaimBackend::Epoch(collector))
    }

    /// Creates an empty tree over either reclamation backend. Guard-based
    /// lookups work only on the epoch backend; the `*_owned` lookups work
    /// on both.
    pub fn with_backend(backend: ReclaimBackend) -> Self {
        Self::with_scratch(backend, WriterScratch::new())
    }

    /// Creates an empty tree over `backend` whose mutex-owned writer
    /// scratch is `scratch` — the seam that lets `RangeMap` put the
    /// tree's scratch in the same arena family ([`ChunkStore`]) as its
    /// pooled range-lock scratches, and lets [`Self::fork_in`] put a
    /// child lineage in its parent's.
    pub(crate) fn with_scratch(backend: ReclaimBackend, scratch: WriterScratch<K, V>) -> Self {
        let recycler = scratch.arena.recycler();
        Self {
            root: AtomicPtr::new(ptr::null_mut()),
            writer: Mutex::new(scratch),
            backend,
            hybrid_gate: Mutex::new(()),
            commit_gate: Mutex::new(()),
            shared: AtomicBool::new(false),
            len: AtomicUsize::new(0),
            cas_retries: AtomicU64::new(0),
            cas_wasted: AtomicU64::new(0),
            recycler,
        }
    }

    /// Snapshots the tree in O(1): the child starts at the parent's
    /// current root — one extra reference on one node, no copying — and
    /// the two lineages diverge copy-on-write from there, sharing every
    /// subtree neither has since replaced. The per-node refcounts keep a
    /// shared node alive (and unretired) until the *last* lineage that
    /// reaches it replaces or drops it; see the module docs and
    /// `docs/CONCURRENCY.md` §9.
    ///
    /// The child retires to the same reclamation backend and allocates
    /// from the same arena family as the parent, so shared nodes have a
    /// single block-lifetime story wherever they end up released from.
    /// Concurrent readers of the parent are undisturbed; the fork itself
    /// briefly takes the parent's writer lock (it must observe a root no
    /// in-flight commit is about to replace).
    pub fn fork(&self) -> Self {
        with_write_session(
            self,
            || self.writer.lock().unwrap_or_else(|e| e.into_inner()),
            |sess, w| self.fork_in(sess, WriterScratch::with_store(w.store())),
        )
    }

    /// [`fork`](Self::fork) against a caller-provided scratch and write
    /// session — for `RangeMap`, whose fork runs under a full-range lock.
    ///
    /// The caller must hold, for the duration of the call, whatever lock
    /// excludes this tree's committers (the writer mutex, or every range
    /// lock): that is what makes the loaded root current and keeps its
    /// root reference from being released while the child takes its own.
    /// `scratch` must belong to the parent's arena family — the child's
    /// deferred batches may carry blocks holding nodes the parent
    /// allocated, and a pending batch pins only its *own* arena's chunk
    /// store.
    pub(crate) fn fork_in(&self, sess: &WriteSess<'_>, scratch: WriterScratch<K, V>) -> Self {
        self.check_sess(sess);
        // ordering: Acquire — publication pairing, as in `find`: the child
        // republishes this snapshot to its own readers.
        let root = self.root.load(Ordering::Acquire);
        // ordering: Relaxed — written under the caller's writer exclusion
        // and read by writers under the same locks (`publish`), whose
        // hand-off orders the store before every later update's load. No
        // fix-up walk is owed: an unshared tree's counts are all 1, which
        // is what the counting protocol would have left.
        self.shared.store(true, Ordering::Relaxed);
        // Safety: writer exclusion (see above) keeps `root` the current
        // root — its root-pointer reference cannot be released before the
        // child takes its own here.
        unsafe { acquire(root) };
        let recycler = scratch.arena.recycler();
        Self {
            root: AtomicPtr::new(root),
            writer: Mutex::new(scratch),
            backend: self.backend.clone(),
            hybrid_gate: Mutex::new(()),
            commit_gate: Mutex::new(()),
            shared: AtomicBool::new(true),
            // ordering: Acquire — pairs with the commit-path Release; exact
            // under the caller's writer exclusion.
            len: AtomicUsize::new(self.len.load(Ordering::Acquire)),
            cas_retries: AtomicU64::new(0),
            cas_wasted: AtomicU64::new(0),
            recycler,
        }
    }

    /// The reclamation backend this tree retires nodes to.
    pub fn backend(&self) -> &ReclaimBackend {
        &self.backend
    }

    /// The collector this tree retires nodes to.
    ///
    /// # Panics
    ///
    /// Panics unless the tree uses the epoch backend.
    pub fn collector(&self) -> &Collector {
        self.backend
            .as_epoch()
            .expect("tree is not using the epoch backend")
    }

    /// Pins the current thread against the tree's collector. The guard
    /// borrows the tree, so the tree cannot be dropped while it is live.
    ///
    /// # Panics
    ///
    /// Panics unless the tree uses the epoch backend (hybrid readers use
    /// the `*_owned` lookups, which protect internally).
    pub fn pin(&self) -> Guard<'_> {
        self.collector().pin()
    }

    /// Capacity of the writer's fresh-node scratch buffer. Test aid for
    /// the allocation-diet regression: steady-state updates must not keep
    /// growing it.
    #[doc(hidden)]
    pub fn writer_scratch_capacity(&self) -> usize {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .capacity()
    }

    /// Chunks allocated by the writer scratch's node arena — the
    /// capacity-flat proxy for the zero-allocation write path.
    #[doc(hidden)]
    pub fn writer_arena_chunks(&self) -> usize {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .arena_chunks()
    }

    /// Free blocks resting in the writer scratch's arena, and nodes on its
    /// pending retire list (audit aid for
    /// `RangeMap::check_family_invariants`).
    pub(crate) fn writer_free_and_pending(&self) -> (usize, usize) {
        let writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        (writer.arena.free_blocks(), writer.pending_len())
    }

    /// Root-CAS commits that lost to a concurrent writer and had to
    /// rebuild. Telemetry; counted only on the failure path.
    #[doc(hidden)]
    pub fn cas_retries(&self) -> u64 {
        // ordering: Relaxed — telemetry snapshot.
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Speculative nodes discarded by failed root-CAS commits — the wasted
    /// copy-on-write work those retries rebuilt.
    #[doc(hidden)]
    pub fn cas_wasted_nodes(&self) -> u64 {
        // ordering: Relaxed — telemetry snapshot.
        self.cas_wasted.load(Ordering::Relaxed)
    }

    /// Records one failed root-CAS commit (`wasted` speculative nodes
    /// discarded) and applies bounded exponential backoff from the second
    /// consecutive failure of one update on: 2^(failures - 2) spin hints,
    /// capped at 64. The first retry stays free — losing one race is the
    /// normal two-writer case and a delay would only add latency — while a
    /// write storm's repeated losers progressively yield the root's cache
    /// line instead of rebuilding whole paths just to lose again.
    /// `failures` counts this update's failures so far, starting at 1.
    fn note_cas_failure(&self, failures: u32, wasted: usize) {
        // ordering: Relaxed (both) — telemetry counters on the commit
        // retry path; nothing is published through them, and a SeqCst RMW
        // here would put two full barriers inside the contention loop.
        self.cas_retries.fetch_add(1, Ordering::Relaxed);
        self.cas_wasted.fetch_add(wasted as u64, Ordering::Relaxed);
        if failures >= 2 {
            let spins = 1u32 << (failures - 2).min(6);
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> usize {
        // ordering: Acquire — pairs with the commit-path Release updates so
        // a caller that observes a count also observes the tree state that
        // produced it.
        self.len.load(Ordering::Acquire)
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Panics unless `guard` is pinned against this tree's collector; a
    /// foreign guard would not protect our nodes from reclamation.
    fn check_guard(&self, guard: &Guard<'_>) {
        let collector = self
            .backend
            .as_epoch()
            .expect("guard-based reads require the epoch backend; use the *_owned lookups instead");
        assert!(
            *guard.collector() == *collector,
            "guard is pinned against a different collector than this tree"
        );
    }

    /// Panics unless `sess` was opened against this tree's backend; a
    /// foreign session would not protect our nodes from reclamation.
    fn check_sess(&self, sess: &WriteSess<'_>) {
        match (sess, &self.backend) {
            (WriteSess::Epoch(guard), ReclaimBackend::Epoch(c)) => assert!(
                *guard.collector() == *c,
                "guard is pinned against a different collector than this tree"
            ),
            (WriteSess::Hybrid(d), ReclaimBackend::Hybrid(h)) => assert!(
                **d == *h,
                "session belongs to a different hybrid domain than this tree"
            ),
            _ => panic!("write session opened against a different reclamation backend"),
        }
    }

    /// Plain search walk over published immutable nodes. Returns the
    /// matching node, or null on a miss.
    ///
    /// # Safety
    ///
    /// The caller must guarantee every node reachable from the current
    /// root stays live across the call: a pinned epoch guard, a checked
    /// [`WriteSess`], or exclusive access. (The hybrid read side validates
    /// its root load first and walks with [`Self::walk_from`].)
    unsafe fn find(&self, key: &K, probe: Probe) -> *mut Node<K, V> {
        // ordering: Acquire — pairs with the commit CAS's Release: the
        // fully built path behind a published root is visible before the
        // traversal dereferences it. This is the weakest sound root-load
        // ordering (a Relaxed load could reach nodes whose fields are not
        // yet visible on non-TSO hardware).
        let root = self.root.load(Ordering::Acquire);
        // Safety: forwarded caller obligation — every node reachable from
        // the loaded root stays live across the walk.
        unsafe { Self::walk_from(root, key, probe) }
    }

    /// The search loop of [`find`](Self::find) against a caller-supplied
    /// snapshot root, for backends that validate the root load themselves
    /// (the hybrid read side protects-and-validates it before walking).
    ///
    /// # Safety
    ///
    /// As in [`find`](Self::find): every node reachable from `root` must
    /// stay live across the call, and `root` must have been loaded with
    /// (at least) `Acquire` so the published path behind it is visible.
    unsafe fn walk_from(root: *mut Node<K, V>, key: &K, probe: Probe) -> *mut Node<K, V> {
        let mut cur = root;
        let mut best: *mut Node<K, V> = ptr::null_mut();
        while !cur.is_null() {
            // Safety: `cur` is a published node the caller's protection
            // keeps live; published nodes are immutable.
            let node = unsafe { &*cur };
            cur = match probe {
                Probe::Eq => match key.cmp(&node.key) {
                    Cmp::Equal => return cur,
                    Cmp::Less => node.left,
                    Cmp::Greater => node.right,
                },
                Probe::Le => {
                    if *key < node.key {
                        node.left
                    } else {
                        best = cur;
                        node.right
                    }
                }
                Probe::Ge => {
                    if *key > node.key {
                        node.right
                    } else {
                        best = cur;
                        node.left
                    }
                }
            };
        }
        best
    }

    /// Interval-protected search: the hybrid (IBR) read protocol.
    ///
    /// One protected load suffices for the whole walk — no per-node
    /// protect-and-validate step. `protect` returns a root pointer
    /// validated against the guard's reservation `[lo, hi]`:
    ///
    /// - every node reachable from that root carries a birth era ≤ the
    ///   validated era (COW builds children before parents, and a node's
    ///   birth stamp is taken before its root publishes), so `birth ≤ hi`;
    /// - a reachable node is unretired at validation time, so its eventual
    ///   retire era is ≥ the validated era ≥ `lo`.
    ///
    /// Both interval-overlap conditions hold for the entire subtree, so
    /// the domain's free rule keeps all of it live and the plain
    /// [`walk_from`](Self::walk_from) loop is sound with no per-node
    /// protection.
    fn hybrid_find<R>(
        &self,
        d: &HybridDomain,
        key: &K,
        probe: Probe,
        f: impl FnOnce(&K, &V) -> R,
    ) -> Option<R> {
        let guard = d.pin();
        // Failpoint: slow this reader down while its reservation is live —
        // the stall the degradation protocol must tolerate.
        rcukit::faults::maybe_stall(rcukit::faults::site::READER_STALL);
        // ordering: Acquire — publication pairing; see `find`. `protect`
        // re-runs the load until the era validates, making the returned
        // snapshot covered by the guard's reservation interval.
        let root = guard.protect(|| self.root.load(Ordering::Acquire));
        // Safety: the validated root's whole subtree is covered by the
        // reservation (see the method docs); published nodes are immutable.
        let n = unsafe { Self::walk_from(root, key, probe) };
        (!n.is_null()).then(|| {
            // Safety: `n` is reachable from the protected root, hence live
            // for the guard's lifetime.
            let node = unsafe { &*n };
            f(&node.key, &node.value)
        })
    }

    /// Backend-dispatched protected point read: finds the `probe` entry
    /// for `key`, applies `f` under the backend's read-side protection,
    /// and returns the owned result.
    pub(crate) fn read_map<R>(
        &self,
        key: &K,
        probe: Probe,
        f: impl FnOnce(&K, &V) -> R,
    ) -> Option<R> {
        match &self.backend {
            ReclaimBackend::Epoch(c) => {
                let _guard = c.pin();
                // Failpoint: slow this reader down while pinned — the
                // stall that makes epoch garbage grow unboundedly.
                rcukit::faults::maybe_stall(rcukit::faults::site::READER_STALL);
                // Safety: the pinned guard protects the traversal.
                let n = unsafe { self.find(key, probe) };
                (!n.is_null()).then(|| {
                    // Safety: `n` is a published node the guard protects.
                    let node = unsafe { &*n };
                    f(&node.key, &node.value)
                })
            }
            ReclaimBackend::Hybrid(d) => self.hybrid_find(d, key, probe, f),
        }
    }

    /// Looks up `key`. The returned reference is valid for the guard's
    /// critical section; it also borrows the tree, so the tree cannot be
    /// dropped (which frees all nodes without a grace period) while the
    /// reference is live:
    ///
    /// ```compile_fail,E0505
    /// use bonsai::BonsaiTree;
    /// use rcukit::Collector;
    ///
    /// let t: BonsaiTree<u64, u64> = BonsaiTree::new(Collector::new());
    /// t.insert(1, 10);
    /// let g = t.pin();
    /// let v = t.get(&1, &g).unwrap();
    /// drop(t); // ERROR: `t` is still borrowed by `v`
    /// println!("{v}");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless the tree uses the epoch backend (see
    /// [`get_owned`](Self::get_owned) for the backend-agnostic form).
    pub fn get<'g>(&'g self, key: &K, guard: &'g Guard<'_>) -> Option<&'g V> {
        self.check_guard(guard);
        // Safety: the checked guard pins this tree's collector.
        let n = unsafe { self.find(key, Probe::Eq) };
        // Safety: `n` is a published node protected by the guard.
        (!n.is_null()).then(|| unsafe { &(*n).value })
    }

    /// Whether `key` is present. Protects internally; works on either
    /// backend.
    pub fn contains_key(&self, key: &K) -> bool {
        self.read_map(key, Probe::Eq, |_, _| ()).is_some()
    }

    /// Finds the greatest entry with key `<= key` (predecessor query, the
    /// primitive behind VMA lookup). Borrows as in [`get`](Self::get);
    /// panics on the hybrid backend like [`get`](Self::get).
    pub fn get_le<'g>(&'g self, key: &K, guard: &'g Guard<'_>) -> Option<(&'g K, &'g V)> {
        self.check_guard(guard);
        // Safety: the checked guard pins this tree's collector.
        let n = unsafe { self.find(key, Probe::Le) };
        // Safety: `n` is a published node protected by the guard.
        (!n.is_null()).then(|| unsafe { (&(*n).key, &(*n).value) })
    }

    /// Finds the least entry with key `>= key` (successor query). Borrows
    /// as in [`get`](Self::get); panics on the hybrid backend like
    /// [`get`](Self::get).
    pub fn get_ge<'g>(&'g self, key: &K, guard: &'g Guard<'_>) -> Option<(&'g K, &'g V)> {
        self.check_guard(guard);
        // Safety: the checked guard pins this tree's collector.
        let n = unsafe { self.find(key, Probe::Ge) };
        // Safety: `n` is a published node protected by the guard.
        (!n.is_null()).then(|| unsafe { (&(*n).key, &(*n).value) })
    }

    /// [`get`](Self::get) on either backend, returning a clone. Protection
    /// is internal: an epoch pin, or a hybrid pin with a validated root.
    pub fn get_owned(&self, key: &K) -> Option<V> {
        self.read_map(key, Probe::Eq, |_, v| v.clone())
    }

    /// [`get_le`](Self::get_le) on either backend, returning clones.
    pub fn get_le_owned(&self, key: &K) -> Option<(K, V)> {
        self.read_map(key, Probe::Le, |k, v| (k.clone(), v.clone()))
    }

    /// [`get_ge`](Self::get_ge) on either backend, returning clones.
    pub fn get_ge_owned(&self, key: &K) -> Option<(K, V)> {
        self.read_map(key, Probe::Ge, |k, v| (k.clone(), v.clone()))
    }

    /// [`get_le`](Self::get_le) under a checked write session — for writer
    /// paths (`RangeMap`) that read while already holding their backend's
    /// write-side protection. The references are valid for the shorter of
    /// the session and the tree borrow.
    pub(crate) fn get_le_in<'t>(&'t self, key: &K, sess: &WriteSess<'_>) -> Option<(&'t K, &'t V)> {
        self.check_sess(sess);
        // Safety: a checked session protects the traversal on either
        // backend (pin / writer gate — see `WriteSess`).
        let n = unsafe { self.find(key, Probe::Le) };
        // Safety: `n` stays live for the session.
        (!n.is_null()).then(|| unsafe { (&(*n).key, &(*n).value) })
    }

    /// Inserts `key -> value`, returning the previous value for `key` if it
    /// was present. Takes the writer lock.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        with_write_session(
            self,
            || self.writer.lock().unwrap_or_else(|e| e.into_inner()),
            |sess, w| self.insert_with(key, value, sess, &mut **w),
        )
    }

    /// [`insert`](Self::insert) against a caller-provided scratch, for
    /// writer paths with their own serialization (`RangeMap`'s range
    /// locks) — or none: the commit is a CAS-with-retry
    /// ([`publish`](Self::publish)), so concurrent calls are *safe* (no
    /// torn roots, no double retire), they merely contend on the root.
    ///
    /// # Panics
    ///
    /// Panics if `sess` belongs to a different backend or domain.
    pub(crate) fn insert_with(
        &self,
        key: K,
        value: V,
        sess: &WriteSess<'_>,
        scratch: &mut WriterScratch<K, V>,
    ) -> Option<V> {
        self.publish(sess, scratch, |root, scratch| {
            let cut = Cut {
                lo: key.clone(),
                hi: key.clone(),
                first: Some(value.clone()),
                last: None,
            };
            // Safety: `root` was published and the write session keeps
            // every node reachable from it live and immutable.
            let (new_root, hit) = unsafe { Self::cut_rec(root, cut, scratch) };
            // Safety: the hit is null or a node of `root`, still published.
            let old = unsafe { hit.as_ref() }.map(|n| n.value.clone());
            Ok((new_root, isize::from(old.is_none()), old))
        })
    }

    /// Removes `key`, returning its value if it was present. Takes the
    /// writer lock.
    pub fn remove(&self, key: &K) -> Option<V> {
        with_write_session(
            self,
            || self.writer.lock().unwrap_or_else(|e| e.into_inner()),
            |sess, w| self.remove_with(key, sess, &mut **w),
        )
    }

    /// [`remove`](Self::remove) against a caller-provided scratch; same
    /// CAS-with-retry contract as [`Self::insert_with`].
    ///
    /// # Panics
    ///
    /// Panics if `sess` belongs to a different backend or domain.
    pub(crate) fn remove_with(
        &self,
        key: &K,
        sess: &WriteSess<'_>,
        scratch: &mut WriterScratch<K, V>,
    ) -> Option<V> {
        self.publish(sess, scratch, |root, scratch| {
            let cut = Cut {
                lo: key.clone(),
                hi: key.clone(),
                first: None,
                last: None,
            };
            // Safety: as in `insert_with`.
            let (new_root, hit) = unsafe { Self::cut_rec(root, cut, scratch) };
            // Safety: as in `insert_with`.
            match unsafe { hit.as_ref() } {
                // A miss rebuilds nothing and therefore replaces nothing;
                // the answer is valid as of the root load, no CAS needed.
                None => Err(None),
                Some(old) => Ok((new_root, -1, Some(old.value.clone()))),
            }
        })
    }

    /// Cuts a span out of the tree in one publication: `plan` reads the
    /// version the attempt was handed and returns the [`Cut`] to make, or
    /// `None` to publish nothing (the span touches nothing, say). A
    /// retry after a lost CAS re-plans from the winner's root, so no entry
    /// read before the commit outlives it. Returns the number of keys in
    /// `lo..=hi`, which all left the tree (`first` puts one back). Same
    /// CAS-with-retry contract as [`Self::insert_with`].
    ///
    /// # Panics
    ///
    /// Panics if `sess` belongs to a different backend or domain.
    pub(crate) fn cut_span_with(
        &self,
        sess: &WriteSess<'_>,
        scratch: &mut WriterScratch<K, V>,
        mut plan: impl FnMut(&Floor<'_, K, V>) -> Option<Cut<K, V>>,
    ) -> usize {
        self.publish(sess, scratch, |root, scratch| {
            let floor = |key: &K| {
                // Safety: the write session keeps every node reachable from
                // `root` live and immutable for the whole attempt.
                let n = unsafe { Self::walk_from(root, key, Probe::Le).as_ref() };
                n.map(|n| (&n.key, &n.value))
            };
            let Some(cut) = plan(&floor) else {
                return Err(0);
            };
            let restored = isize::from(cut.first.is_some()) + isize::from(cut.last.is_some());
            // Safety: as in `insert_with`.
            let (new_root, _) = unsafe { Self::cut_rec(root, cut, scratch) };
            let delta = Self::size_of(new_root) as isize - Self::size_of(root) as isize;
            Ok((new_root, delta, (restored - delta) as usize))
        })
    }

    /// The CAS-with-retry commit loop behind every update. `rebuild`
    /// builds the next version speculatively from a root snapshot and
    /// returns `(new_root, len_delta, result)`, or `Err(result)` when
    /// there is nothing to publish. A failed CAS frees the never-published
    /// speculative path ([`WriterScratch::discard`]) and rebuilds from the
    /// winner's root.
    ///
    /// `sess` must have been opened against this tree's backend (checked)
    /// and *before* this call — which is what makes the load→CAS window
    /// ABA-free: under epoch the snapshot root cannot be reclaimed while
    /// the session's pin holds, so a re-observed equal pointer really is
    /// the unchanged root; under hybrid the session holds the writer
    /// gate, so the root cannot change at all.
    #[allow(clippy::type_complexity)]
    fn publish<R>(
        &self,
        sess: &WriteSess<'_>,
        scratch: &mut WriterScratch<K, V>,
        mut rebuild: impl FnMut(
            *mut Node<K, V>,
            &mut WriterScratch<K, V>,
        ) -> Result<(*mut Node<K, V>, isize, R), R>,
    ) -> R {
        self.check_sess(sess);
        debug_assert!(scratch.is_drained());
        scratch.birth_era = sess.birth_era();
        // ordering: Relaxed — ordered by the writer lock this caller
        // holds, which every fork excludes (see `fork_in`).
        scratch.exclusive = !self.shared.load(Ordering::Relaxed);
        // Unwind safety: if a K/V clone or an allocation panics
        // mid-rebuild, the scratch holds a half-built speculative path.
        // The old mutex-owned scratch was covered by lock poisoning;
        // `RangeMap`'s pooled scratches are not, and lending a dirty
        // scratch to the next writer would leak those nodes (or worse,
        // retire a node still in the tree). Discard on the way out
        // instead.
        let scratch = DrainOnUnwind(scratch);
        // ordering: Acquire — publication pairing, as in `get`: the rebuild
        // below dereferences nodes behind this root.
        let mut root = self.root.load(Ordering::Acquire);
        let mut failures = 0u32;
        loop {
            let (new_root, delta, out) = match rebuild(root, scratch.0) {
                Ok(built) => built,
                Err(out) => {
                    debug_assert!(scratch.0.is_drained());
                    return out;
                }
            };
            // Failpoint: unwind before anything publishes — must leak
            // nothing (`DrainOnUnwind` discards the speculative path).
            rcukit::faults::maybe_panic(rcukit::faults::site::TREE_PRE_PUBLISH);
            // On a shared tree the commit point is gated so accounting
            // runs in version order (see `commit_gate`); the rebuild above
            // stayed outside. A poisoned gate is recoverable: the post-CAS
            // unwind guard below completes the poisoning attempt's
            // accounting before the gate is released, so the protected
            // state is consistent.
            let gate = (!scratch.0.exclusive).then(|| {
                note_sharing_op();
                self.commit_gate.lock().unwrap_or_else(|e| e.into_inner())
            });
            // Failpoint: a forced CAS failure exercises the retry path
            // without a competing writer — skip the CAS, root unchanged.
            // ordering: AcqRel success — Release publishes the speculative
            // path's node writes to readers' Acquire root loads; Acquire
            // orders this commit after the prior one it replaces. Acquire
            // failure — the reloaded root is dereferenced on the retry.
            let cas = if rcukit::faults::should_fail(rcukit::faults::site::TREE_CAS) {
                Err(root)
            } else {
                self.root
                    .compare_exchange(root, new_root, Ordering::AcqRel, Ordering::Acquire)
            };
            match cas {
                Ok(_) => {
                    // Retire strictly after publication: until the CAS, a
                    // freshly pinned reader could still reach the replaced
                    // nodes through `self.root`. The new root is now
                    // visible, so the retirement and the length update are
                    // owed no matter how this attempt exits — the guard
                    // runs them even if the failpoint below unwinds.
                    let done = CommitOnUnwind {
                        scratch: &mut *scratch.0,
                        sess,
                        old_root: root,
                        new_root,
                        len: &self.len,
                        delta,
                    };
                    // Failpoint: unwind after publication but before
                    // accounting — the atomicity hole the guard closes.
                    rcukit::faults::maybe_panic(rcukit::faults::site::TREE_POST_CAS);
                    drop(done);
                    drop(gate);
                    return out;
                }
                Err(current) => {
                    drop(gate);
                    // Another writer published first. Nothing this attempt
                    // built was ever visible.
                    failures += 1;
                    let wasted = scratch.0.fresh.len();
                    // Safety: the CAS failed, so `fresh` is unpublished.
                    unsafe { scratch.0.discard() };
                    self.note_cas_failure(failures, wasted);
                    root = current;
                }
            }
        }
    }

    /// Runs `f` on a root snapshot that the backend's protection keeps
    /// live for the duration of the call — the whole-tree-traversal
    /// analogue of [`read_map`](Self::read_map).
    fn with_snapshot<R>(&self, f: impl FnOnce(*mut Node<K, V>) -> R) -> R {
        match &self.backend {
            ReclaimBackend::Epoch(c) => {
                let _guard = c.pin();
                // ordering: Acquire — publication pairing; see `find`.
                f(self.root.load(Ordering::Acquire))
            }
            ReclaimBackend::Hybrid(d) => {
                let guard = d.pin();
                // ordering: Acquire — publication pairing; see `find`. The
                // validated snapshot's whole subtree is covered by the
                // guard's interval (see `hybrid_find`), however large.
                f(guard.protect(|| self.root.load(Ordering::Acquire)))
            }
        }
    }

    /// Clones the tree contents in key order. Intended for tests and
    /// debugging; protects internally (works on either backend).
    pub fn to_vec(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        self.with_snapshot(|root| {
            // Safety: traversal of published immutable nodes under the
            // snapshot's backend protection.
            unsafe { Self::inorder(root, &mut out) }
        });
        out
    }

    /// Verifies the BST ordering, cached sizes, and the weight-balance
    /// bound — and, on a tree that has never been forked, that every
    /// node's reference count is exactly 1. Panics on violation.
    /// Test/debug aid; call while no writer is active.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let n = self.with_snapshot(|root| {
            // Safety: traversal of published immutable nodes under the
            // snapshot's backend protection.
            unsafe { Self::check_rec(root, None, None) }
        });
        assert_eq!(n, self.len(), "cached len disagrees with node count");
        // ordering: Relaxed — no writer (hence no fork) is active.
        if !self.shared.load(Ordering::Relaxed) {
            assert_eq!(Self::check_family_invariants(&[self]), n);
        }
    }

    /// The reference-count audit over a whole fork family: every node
    /// reachable from `family`'s roots must carry a count equal to its
    /// in-degree — parent links from distinct reachable nodes, plus one
    /// per root pointer at it. Returns the number of distinct nodes.
    /// Panics on violation. Test/debug aid: `family` must be *every* live
    /// lineage of one family, with no writer active on any of them.
    #[doc(hidden)]
    pub fn check_family_invariants(family: &[&Self]) -> usize {
        let mut indegree = std::collections::HashMap::new();
        let mut stack = Vec::new();
        for tree in family {
            // ordering: Acquire — publication pairing; see `find`. No
            // protection beyond it: the caller excludes writers, so no
            // reachable node can be retired under the walk.
            stack.push(tree.root.load(Ordering::Acquire));
            while let Some(n) = stack.pop() {
                if n.is_null() {
                    continue;
                }
                let links = indegree.entry(n).or_insert(0usize);
                *links += 1;
                if *links == 1 {
                    // Safety: reachable from a live root, writers excluded.
                    stack.extend(unsafe { [(*n).left, (*n).right] });
                }
            }
        }
        for (&n, &links) in &indegree {
            // ordering: Relaxed — quiescent per the contract.
            let rc = unsafe { (*n).rc.load(Ordering::Relaxed) };
            assert_eq!(rc, links, "node count disagrees with its in-degree");
        }
        indegree.len()
    }

    // ---- internal copy-on-write machinery (writer side) ----

    /// `size` of a possibly-null subtree.
    #[inline]
    fn size_of(n: *mut Node<K, V>) -> usize {
        if n.is_null() {
            0
        } else {
            // Safety: non-null nodes passed here are live (writer-owned or
            // guard-protected) and immutable.
            unsafe { (*n).size }
        }
    }

    /// Allocates a new node from the scratch's arena over the given
    /// children, recording it in the `fresh` list so a failed publication
    /// can return it (every allocation of an update goes through here,
    /// exactly once each). Steady state this is a free-list pop, not a
    /// heap allocation.
    fn mk(
        scratch: &mut WriterScratch<K, V>,
        left: *mut Node<K, V>,
        key: K,
        value: V,
        right: *mut Node<K, V>,
    ) -> *mut Node<K, V> {
        let n = scratch.arena.alloc(Node {
            size: 1 + Self::size_of(left) + Self::size_of(right),
            // On a shared tree, born unaccounted: links are counted only
            // by a successful commit's accounting walk ([`account`]), so
            // a failed CAS has nothing to unwind. On an unshared tree,
            // born at 1 — the final count of every node it will publish.
            rc: AtomicUsize::new(usize::from(scratch.exclusive)),
            birth: scratch.birth_era,
            key,
            value,
            left,
            right,
        });
        scratch.fresh.push(n);
        n
    }

    /// Builds a balanced node over `l`, `(key, value)`, `r`, where the two
    /// subtrees' weights differ by at most one element from a balanced
    /// state (the single-update invariant) — or, called by
    /// [`link`](Self::link), by one spine level's worth.
    ///
    /// # Safety
    ///
    /// `l`/`r` are valid subtree roots owned by the current update (or
    /// published and guard-protected). A rotated-away node is recorded
    /// through [`WriterScratch::unlink`]: on an unshared tree it returns
    /// to the arena (the attempt's own) or joins the replaced list
    /// (published); on a shared tree the commit's accounting finds it.
    unsafe fn balance(
        l: *mut Node<K, V>,
        key: K,
        value: V,
        r: *mut Node<K, V>,
        scratch: &mut WriterScratch<K, V>,
    ) -> *mut Node<K, V> {
        let sl = Self::size_of(l);
        let sr = Self::size_of(r);
        if sl + sr <= 1 {
            return Self::mk(scratch, l, key, value, r);
        }
        if sr > DELTA * sl {
            // Right-heavy: rotate left. `r` is non-null since sr >= 2.
            // Safety: `r` is a valid node per the function contract.
            let (rl, rr) = unsafe { ((*r).left, (*r).right) };
            if Self::size_of(rl) < RATIO * Self::size_of(rr) {
                // Single left rotation.
                // Safety: `r` valid; its fields are cloned, not moved.
                let (rk, rv) = unsafe { ((*r).key.clone(), (*r).value.clone()) };
                let inner = Self::mk(scratch, l, key, value, rl);
                let out = Self::mk(scratch, inner, rk, rv, rr);
                // Safety: `r` is replaced by `out` and not read again.
                unsafe { scratch.unlink(r) };
                out
            } else {
                // Double left rotation; `rl` is non-null because
                // size(rl) >= RATIO * size(rr) and sizes sum to >= 2.
                // Safety: `r` and `rl` are valid nodes.
                let (rk, rv) = unsafe { ((*r).key.clone(), (*r).value.clone()) };
                let (rlk, rlv) = unsafe { ((*rl).key.clone(), (*rl).value.clone()) };
                let (rll, rlr) = unsafe { ((*rl).left, (*rl).right) };
                let left = Self::mk(scratch, l, key, value, rll);
                let right = Self::mk(scratch, rlr, rk, rv, rr);
                let out = Self::mk(scratch, left, rlk, rlv, right);
                // Safety: `r` and `rl` are replaced by `out` and not read
                // again.
                unsafe {
                    scratch.unlink(r);
                    scratch.unlink(rl);
                }
                out
            }
        } else if sl > DELTA * sr {
            // Left-heavy: rotate right (mirror image).
            // Safety: `l` is a valid node since sl >= 2.
            let (ll, lr) = unsafe { ((*l).left, (*l).right) };
            if Self::size_of(lr) < RATIO * Self::size_of(ll) {
                // Safety: `l` valid; fields cloned.
                let (lk, lv) = unsafe { ((*l).key.clone(), (*l).value.clone()) };
                let inner = Self::mk(scratch, lr, key, value, r);
                let out = Self::mk(scratch, ll, lk, lv, inner);
                // Safety: `l` is replaced by `out` and not read again.
                unsafe { scratch.unlink(l) };
                out
            } else {
                // Safety: `l` and `lr` are valid nodes.
                let (lk, lv) = unsafe { ((*l).key.clone(), (*l).value.clone()) };
                let (lrk, lrv) = unsafe { ((*lr).key.clone(), (*lr).value.clone()) };
                let (lrl, lrr) = unsafe { ((*lr).left, (*lr).right) };
                let left = Self::mk(scratch, ll, lk, lv, lrl);
                let right = Self::mk(scratch, lrr, key, value, r);
                let out = Self::mk(scratch, left, lrk, lrv, right);
                // Safety: `l` and `lr` are replaced by `out` and not read
                // again.
                unsafe {
                    scratch.unlink(l);
                    scratch.unlink(lr);
                }
                out
            }
        } else {
            Self::mk(scratch, l, key, value, r)
        }
    }

    /// The copy-on-write rebuild behind every update: removes every key in
    /// `cut.lo..=cut.hi` from published subtree `n` and puts back
    /// `cut.first` (at `lo`) and `cut.last`. Above the span it copies the
    /// search path, relinking each node over its cut child. The first node
    /// whose key lies in the span (the *hit*; null if the path ends first)
    /// is where the span hangs: its left subtree splits at `lo`, its right
    /// one at `hi`, what lies between leaves the tree, and the outer parts
    /// link back around the kept entries. A subtree the cut leaves alone
    /// comes back as-is, so a miss copies nothing. Returns the new subtree
    /// and the hit, which stays published for the rest of the attempt.
    ///
    /// # Safety
    ///
    /// The write session keeps `n` (null or published) and every node
    /// reachable from it live and immutable.
    unsafe fn cut_rec(
        n: *mut Node<K, V>,
        cut: Cut<K, V>,
        scratch: &mut WriterScratch<K, V>,
    ) -> (*mut Node<K, V>, *mut Node<K, V>) {
        // Safety: `n` is null or a valid published node.
        let node = unsafe { n.as_ref() };
        if let Some(node) = node.filter(|x| x.key < cut.lo || x.key > cut.hi) {
            let below = node.key < cut.lo;
            // Safety: recursing with the same contract.
            let (l, r, hit) = unsafe {
                if below {
                    let (r, hit) = Self::cut_rec(node.right, cut, scratch);
                    (node.left, r, hit)
                } else {
                    let (l, hit) = Self::cut_rec(node.left, cut, scratch);
                    (l, node.right, hit)
                }
            };
            if (l, r) == (node.left, node.right) {
                return (n, hit);
            }
            let (k, v) = (node.key.clone(), node.value.clone());
            // Safety: `l`/`r` are `n`'s children, one of them cut.
            let out = unsafe { Self::link(l, k, v, r, scratch) };
            scratch.replace(n);
            return (out, hit);
        }
        let null = ptr::null_mut();
        let (left, right) = node.map_or((null, null), |x| (x.left, x.right));
        let (at_lo, at_hi) = node.map_or((true, true), |x| (x.key == cut.lo, x.key == cut.hi));
        // Safety: `n`'s children are published; `n`, the pivots and the
        // parts between the outer ones are linked nowhere in the new
        // version; `first` sorts between `l` and `last`, `last` before `r`.
        unsafe {
            let (l, lo_pivot, l_gone) = match at_lo {
                true => (left, null, null),
                false => Self::split(left, &cut.lo, scratch),
            };
            let (r_gone, hi_pivot, r) = match at_hi {
                true => (null, null, right),
                false => Self::split(right, &cut.hi, scratch),
            };
            for gone in [n, lo_pivot, hi_pivot] {
                scratch.unlink(gone);
            }
            Self::unlink_subtree(l_gone, scratch);
            Self::unlink_subtree(r_gone, scratch);
            let out = match (cut.first, cut.last) {
                (None, None) => Self::join(l, r, scratch),
                (Some(v), None) => Self::link(l, cut.lo, v, r, scratch),
                (None, Some((k, v))) => Self::link(l, k, v, r, scratch),
                (Some(v), Some((k, w))) => {
                    let r = Self::link(null, k, w, r, scratch);
                    Self::link(l, cut.lo, v, r, scratch)
                }
            };
            (out, n)
        }
    }

    /// Adams' `concat3`: a balanced tree over `l`, `(key, value)` and `r`
    /// whatever their weights, where every key in `l` is less than `key`
    /// and every key in `r` greater. Descends the heavier side's inner
    /// spine until the sides balance, links there, and rebalances each
    /// copied spine node on the way back up.
    ///
    /// # Safety
    ///
    /// `l`/`r` are valid subtree roots, published or built by this update,
    /// and linked nowhere else in it. Every node the rebuild copies goes
    /// through [`WriterScratch::unlink`] (as in [`Self::balance`]).
    unsafe fn link(
        l: *mut Node<K, V>,
        key: K,
        value: V,
        r: *mut Node<K, V>,
        scratch: &mut WriterScratch<K, V>,
    ) -> *mut Node<K, V> {
        let (sl, sr) = (Self::size_of(l), Self::size_of(r));
        if sl + sr <= 1 || (sr <= DELTA * sl && sl <= DELTA * sr) {
            return Self::mk(scratch, l, key, value, r);
        }
        let heavy = if sr > DELTA * sl { r } else { l };
        // Safety: the heavier side is non-null (its weight exceeds 1).
        let h = unsafe { &*heavy };
        let (hk, hv) = (h.key.clone(), h.value.clone());
        // Safety: each recursion keeps the key order; `balance` restores
        // the weight bound one spine level at a time.
        let out = unsafe {
            if heavy == r {
                let inner = Self::link(l, key, value, h.left, scratch);
                Self::balance(inner, hk, hv, h.right, scratch)
            } else {
                let inner = Self::link(h.right, key, value, r, scratch);
                Self::balance(h.left, hk, hv, inner, scratch)
            }
        };
        // Safety: the heavier root is replaced by `out`, not read again.
        unsafe { scratch.unlink(heavy) };
        out
    }

    /// [`link`](Self::link)'s two-subtree form, around `r`'s minimum.
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::link`].
    unsafe fn join(
        l: *mut Node<K, V>,
        r: *mut Node<K, V>,
        scratch: &mut WriterScratch<K, V>,
    ) -> *mut Node<K, V> {
        if l.is_null() || r.is_null() {
            return if l.is_null() { r } else { l };
        }
        // Safety: forwarded contract; `min` is `r`'s leftmost node, which
        // the split at its key detaches and `link` replaces.
        unsafe {
            let mut min = r;
            while !(*min).left.is_null() {
                min = (*min).left;
            }
            let (_, min, r) = Self::split(r, &(*min).key, scratch);
            let (k, v) = ((*min).key.clone(), (*min).value.clone());
            scratch.unlink(min);
            Self::link(l, k, v, r, scratch)
        }
    }

    /// Splits subtree `n` at `key` into the keys below it, the node holding
    /// `key` (the pivot; null if absent), and the keys above it. A side
    /// the split does not cut comes back as-is, so splitting outside the
    /// subtree's key range copies nothing. The pivot is left to the caller.
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::link`].
    #[allow(clippy::type_complexity)]
    unsafe fn split(
        n: *mut Node<K, V>,
        key: &K,
        scratch: &mut WriterScratch<K, V>,
    ) -> (*mut Node<K, V>, *mut Node<K, V>, *mut Node<K, V>) {
        // Safety: `n` is null or a valid node per the contract.
        let Some(node) = (unsafe { n.as_ref() }) else {
            return (n, n, n);
        };
        let null = ptr::null_mut();
        // Safety: recursing with the same contract; each `link` joins a
        // split part to `n`'s other child around `n`'s entry, in order.
        let out = unsafe {
            match key.cmp(&node.key) {
                Cmp::Equal => return (node.left, n, node.right),
                Cmp::Less => {
                    let (l, pivot, r) = Self::split(node.left, key, scratch);
                    if r == node.left {
                        return (null, null, n);
                    }
                    let (k, v) = (node.key.clone(), node.value.clone());
                    (l, pivot, Self::link(r, k, v, node.right, scratch))
                }
                Cmp::Greater => {
                    let (l, pivot, r) = Self::split(node.right, key, scratch);
                    if l == node.right {
                        return (n, null, null);
                    }
                    let (k, v) = (node.key.clone(), node.value.clone());
                    (Self::link(node.left, k, v, l, scratch), pivot, r)
                }
            }
        };
        // Safety: `n` is replaced by the linked side, not read again.
        unsafe { scratch.unlink(n) };
        out
    }

    /// Records every node of subtree `n`, which leaves the tree whole,
    /// through [`WriterScratch::unlink`]: an O(size) walk on an unshared
    /// tree, nothing on a shared one (the release cascade finds the
    /// published nodes, the commit frees the fresh ones).
    ///
    /// # Safety
    ///
    /// `n` is null or a valid subtree linked nowhere in the new version.
    unsafe fn unlink_subtree(n: *mut Node<K, V>, scratch: &mut WriterScratch<K, V>) {
        if n.is_null() || !scratch.exclusive {
            return;
        }
        // Safety: `n` is valid; its children are read before it goes.
        unsafe {
            let (l, r) = ((*n).left, (*n).right);
            Self::unlink_subtree(l, scratch);
            Self::unlink_subtree(r, scratch);
            scratch.unlink(n);
        }
    }

    // ---- read-side helpers ----

    /// In-order traversal cloning entries into `out`.
    ///
    /// # Safety
    ///
    /// `n` must be null or a guard-protected published subtree.
    unsafe fn inorder(n: *mut Node<K, V>, out: &mut Vec<(K, V)>) {
        if n.is_null() {
            return;
        }
        // Safety: valid published node per the contract.
        let node = unsafe { &*n };
        // Safety: children satisfy the same contract.
        unsafe { Self::inorder(node.left, out) };
        out.push((node.key.clone(), node.value.clone()));
        // Safety: children satisfy the same contract.
        unsafe { Self::inorder(node.right, out) };
    }

    /// Recursive invariant check; returns the subtree's node count.
    ///
    /// # Safety
    ///
    /// `n` must be null or a guard-protected published subtree.
    unsafe fn check_rec(n: *mut Node<K, V>, lo: Option<&K>, hi: Option<&K>) -> usize {
        if n.is_null() {
            return 0;
        }
        // Safety: valid published node per the contract.
        let node = unsafe { &*n };
        if let Some(lo) = lo {
            assert!(*lo < node.key, "BST order violated (low bound)");
        }
        if let Some(hi) = hi {
            assert!(node.key < *hi, "BST order violated (high bound)");
        }
        // Safety: children satisfy the same contract.
        let sl = unsafe { Self::check_rec(node.left, lo, Some(&node.key)) };
        // Safety: children satisfy the same contract.
        let sr = unsafe { Self::check_rec(node.right, Some(&node.key), hi) };
        assert_eq!(node.size, 1 + sl + sr, "cached size wrong");
        if sl + sr > 1 {
            assert!(
                sl <= DELTA * sr && sr <= DELTA * sl,
                "weight balance violated: sl={sl} sr={sr}"
            );
        }
        1 + sl + sr
    }
}

impl<K, V> BonsaiTree<K, V> {
    /// The mutex-owned writer scratch, reached through `&mut self` (no
    /// lock): how a map being dropped moves its pooled scratches' pending
    /// lists onto the one this tree's drop retires.
    pub(crate) fn writer_mut(&mut self) -> &mut WriterScratch<K, V> {
        self.writer.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<K, V> Drop for BonsaiTree<K, V> {
    fn drop(&mut self) {
        // Dropping a tree releases its root-pointer reference — it must
        // NOT free the tree outright, for two independent reasons: a
        // forked lineage may still reach any shared subtree (the cascade
        // stops there), and a reader of *that* lineage — pinned before
        // some commit over there unlinked a node both lineages once
        // shared — may still be traversing nodes this release is last to
        // drop. So the cascade's batch takes the backend's grace period
        // like any commit's. `&mut self` guarantees only that *this*
        // tree has no readers or writers left. The writer scratch's
        // pending list (plus whatever a dropping `RangeMap` moved onto
        // it from its pooled scratches) rides in the same batch.
        let mut batch = std::mem::take(&mut self.writer_mut().pending);
        // ordering: Relaxed — `&mut self` proves exclusive access, so no
        // concurrent writer exists (and loomette's atomics have no
        // `get_mut`; an unordered load is the same thing here).
        let root = self.root.load(Ordering::Relaxed);
        // Safety: dropping this tree's root-pointer reference, held since
        // the commit (or fork) that published `root`.
        unsafe { release(root, &mut batch) };
        if batch.is_empty() {
            return;
        }
        let bytes = batch.len() * std::mem::size_of::<Node<K, V>>();
        let recycler = self.recycler.clone();
        // Safety: every batched pointer hit refcount zero (or was listed
        // as replaced by a committed update), so no remaining lineage
        // reaches it; only readers already inside a critical section can,
        // and the grace period covers exactly those. Blocks allocated by
        // any arena of the family may go to `recycler`, which belongs to
        // the same family. `recycler` was cached at construction, where the
        // `K: Send + 'static, V: Send + 'static` bounds every constructor
        // carries were in scope — so the payload is `Send`.
        unsafe {
            match &self.backend {
                ReclaimBackend::Epoch(c) => {
                    // Quiet pin: pin-time housekeeping could run deferred
                    // callbacks while we hold `self` half-destroyed.
                    let guard = c.pin_quiet();
                    guard.defer_recycle(recycler, batch, bytes);
                }
                ReclaimBackend::Hybrid(d) => {
                    // Batched nodes are still-valid blocks whose grace
                    // period starts here, so their birth stamps are
                    // readable — the `node_birth` contract.
                    d.defer_recycle_with(recycler, batch, bytes, node_birth::<K, V>)
                }
            }
        }
    }
}

impl<K, V> fmt::Debug for BonsaiTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BonsaiTree")
            // ordering: Relaxed — diagnostic snapshot.
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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

    #[test]
    fn insert_get_remove_roundtrip() {
        let t: BonsaiTree<u64, u64> = BonsaiTree::new(Collector::new());
        assert!(t.is_empty());
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(3, 30), None);
        assert_eq!(t.insert(7, 70), None);
        assert_eq!(t.insert(5, 55), Some(50));
        assert_eq!(t.len(), 3);
        let g = t.pin();
        assert_eq!(t.get(&5, &g), Some(&55));
        assert_eq!(t.get(&4, &g), None);
        drop(g);
        assert_eq!(t.remove(&3), Some(30));
        assert_eq!(t.remove(&3), None);
        assert_eq!(t.len(), 2);
        t.check_invariants();
    }

    #[test]
    fn ordered_queries() {
        let t: BonsaiTree<u64, &str> = BonsaiTree::new(Collector::new());
        for k in [10u64, 20, 30, 40] {
            t.insert(k, "x");
        }
        let g = t.pin();
        assert_eq!(t.get_le(&25, &g).map(|(k, _)| *k), Some(20));
        assert_eq!(t.get_le(&20, &g).map(|(k, _)| *k), Some(20));
        assert_eq!(t.get_le(&5, &g), None);
        assert_eq!(t.get_ge(&25, &g).map(|(k, _)| *k), Some(30));
        assert_eq!(t.get_ge(&40, &g).map(|(k, _)| *k), Some(40));
        assert_eq!(t.get_ge(&41, &g), None);
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        let collector = Collector::new();
        let t: BonsaiTree<u64, u64> = BonsaiTree::new(collector.clone());
        let mut model = BTreeMap::new();
        let mut rng = Rng(0xDEADBEEF);
        const OPS: u64 = if cfg!(miri) { 300 } else { 4000 };
        for i in 0..OPS {
            let k = rng.next() % 512;
            if rng.next().is_multiple_of(3) {
                assert_eq!(t.remove(&k), model.remove(&k), "op {i}: remove {k}");
            } else {
                assert_eq!(t.insert(k, i), model.insert(k, i), "op {i}: insert {k}");
            }
            if i % 512 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        let got = t.to_vec();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, want);
        // Everything replaced along the way is eventually reclaimed.
        collector.synchronize();
        let s = collector.stats();
        assert_eq!(s.objects_retired, s.objects_freed);
    }

    /// Pay-as-you-go sharing must change *how* replaced nodes are found,
    /// never *which*: the same operations on a never-forked tree (replaced
    /// list) and on a twin that forked once while empty (accounting walk +
    /// release cascade, counts all 1) retire the same number of nodes at
    /// every step, and the unshared tree's counts stay exactly 1.
    #[test]
    fn unshared_updates_retire_exactly_what_the_cascade_would() {
        let (c_list, c_cascade) = (Collector::new(), Collector::new());
        let listed: BonsaiTree<u64, u64> = BonsaiTree::new(c_list.clone());
        let cascaded: BonsaiTree<u64, u64> = BonsaiTree::new(c_cascade.clone());
        drop(cascaded.fork()); // sets `shared`; nothing is actually shared
        let mut rng = Rng(0xFACADE);
        const OPS: u64 = if cfg!(miri) { 300 } else { 6000 };
        for i in 0..OPS {
            // Sequential runs force rotations; random keys mix in replaces
            // and removes of inner nodes (the `join` path).
            let k = if i % 3 == 0 { i / 3 } else { rng.next() % 512 };
            if rng.next().is_multiple_of(3) {
                assert_eq!(listed.remove(&k), cascaded.remove(&k), "op {i}");
            } else {
                assert_eq!(listed.insert(k, i), cascaded.insert(k, i), "op {i}");
            }
            assert_eq!(
                c_list.stats().objects_retired,
                c_cascade.stats().objects_retired,
                "op {i} (key {k}): the replaced list and the release cascade disagree"
            );
            if i % 256 == 0 {
                listed.check_invariants(); // includes "every count is 1"
                cascaded.check_invariants();
                BonsaiTree::check_family_invariants(&[&cascaded]);
            }
        }
        listed.check_invariants();
        assert_eq!(listed.to_vec(), cascaded.to_vec());
        drop((listed, cascaded));
        for c in [c_list, c_cascade] {
            c.synchronize();
            let s = c.stats();
            assert_eq!(s.objects_retired, s.objects_freed);
        }
    }

    /// Cuts `lo..=hi` out of `t` as one update, putting `first` back at
    /// `lo` and inserting `last`; returns the keys cut.
    fn cut(
        t: &BonsaiTree<u64, u64>,
        lo: u64,
        hi: u64,
        first: Option<u64>,
        last: Option<(u64, u64)>,
    ) -> usize {
        with_write_session(
            t,
            || t.writer.lock().unwrap(),
            |sess, w| {
                t.cut_span_with(sess, w, |_| {
                    Some(Cut {
                        lo,
                        hi,
                        first,
                        last,
                    })
                })
            },
        )
    }

    /// [`cut`] applied to a `BTreeMap`.
    fn model_cut(
        m: &mut BTreeMap<u64, u64>,
        lo: u64,
        hi: u64,
        first: Option<u64>,
        last: Option<(u64, u64)>,
    ) -> usize {
        let gone: Vec<u64> = m.range(lo..=hi).map(|(&k, _)| k).collect();
        for k in &gone {
            m.remove(k);
        }
        m.extend(first.map(|v| (lo, v)).into_iter().chain(last));
        gone.len()
    }

    /// A random cut against `model`: a span of up to `width` keys' worth
    /// of key space, with a `first` and a `last` entry now and then (`last`
    /// only where its key has room before the next key).
    #[allow(clippy::type_complexity)]
    fn random_cut(
        rng: &mut Rng,
        model: &BTreeMap<u64, u64>,
        space: u64,
        width: u64,
    ) -> (u64, u64, Option<u64>, Option<(u64, u64)>) {
        let lo = rng.next() % space;
        let hi = lo + rng.next() % width;
        let first = rng.next().is_multiple_of(2).then(|| rng.next());
        let last = (rng.next().is_multiple_of(2) && !model.contains_key(&(hi + 1)))
            .then(|| (hi + 1, rng.next()));
        (lo, hi, first, last)
    }

    /// Span cuts — split at both edges, link around the kept entries —
    /// diffed against a `BTreeMap` on trees of 0 to 2,000 keys, with the
    /// order, size and weight-balance invariants checked after every cut.
    /// Each cut also runs on a twin that forked once while empty: the
    /// nodes an unshared cut lists as replaced (a dropped middle part
    /// included) must be exactly those the twin's release cascade finds,
    /// and both reclaim everything at the end.
    #[test]
    fn span_cuts_match_btreemap() {
        let (c_list, c_cascade) = (Collector::new(), Collector::new());
        let mut rng = Rng(0x5_11CE);
        for n in [0u64, 1, 2, 3, 7, 64, 500, 2000] {
            let listed: BonsaiTree<u64, u64> = BonsaiTree::new(c_list.clone());
            let cascaded: BonsaiTree<u64, u64> = BonsaiTree::new(c_cascade.clone());
            drop(cascaded.fork());
            let twins = [&listed, &cascaded];
            let mut model = BTreeMap::new();
            let insert = |model: &mut BTreeMap<u64, u64>, k| {
                let old = model.insert(k, k);
                for t in twins {
                    assert_eq!(t.insert(k, k), old);
                }
            };
            for _ in 0..n {
                insert(&mut model, 4 * (rng.next() % (2 * n)));
            }
            let space = 8 * n + 8;
            for i in 0..60 {
                let width = [2, 16, space][i % 3];
                let (lo, hi, first, last) = random_cut(&mut rng, &model, space, width);
                let gone = model_cut(&mut model, lo, hi, first, last);
                for t in twins {
                    assert_eq!(
                        cut(t, lo, hi, first, last),
                        gone,
                        "n={n} cut {i}: {lo}..={hi}"
                    );
                    t.check_invariants();
                    assert_eq!(t.to_vec(), model.clone().into_iter().collect::<Vec<_>>());
                }
                assert_eq!(
                    c_list.stats().objects_retired,
                    c_cascade.stats().objects_retired,
                    "n={n} cut {i}: the replaced list and the release cascade disagree"
                );
                for _ in 0..rng.next() % 8 {
                    insert(&mut model, 4 * (rng.next() % (2 * n + 2)));
                }
            }
        }
        for c in [c_list, c_cascade] {
            c.synchronize();
            let s = c.stats();
            assert_eq!(s.objects_retired, s.objects_freed);
        }
    }

    /// Splits `t` at `key` and links the two sides back around `key` as one
    /// update; returns the sides' weights.
    fn split_and_link(t: &BonsaiTree<u64, u64>, key: u64) -> (usize, usize) {
        with_write_session(
            t,
            || t.writer.lock().unwrap(),
            |sess, w| {
                t.publish(sess, w, |root, s| {
                    // Safety: the session protects the published `root`; the
                    // pivot is replaced by the linked node.
                    unsafe {
                        let (l, pivot, r) = BonsaiTree::split(root, &key, s);
                        if !pivot.is_null() {
                            s.unlink(pivot);
                        }
                        let sides = (BonsaiTree::size_of(l), BonsaiTree::size_of(r));
                        let out = BonsaiTree::link(l, key, key, r, s);
                        let delta =
                            BonsaiTree::size_of(out) as isize - BonsaiTree::size_of(root) as isize;
                        Ok((out, delta, sides))
                    }
                })
            },
        )
    }

    /// `link` balances whatever the weights of its sides: empty against
    /// 2,000 keys, one against 10,000, and equal, each way round.
    #[test]
    fn link_balances_any_weights() {
        for (keys, at, sides) in [
            (1..=2000u64, 0, (0, 2000)),
            (0..=1999, 2000, (2000, 0)),
            (0..=10_001, 1, (1, 10_000)),
            (0..=10_001, 10_000, (10_000, 1)),
            (0..=4000, 2000, (2000, 2000)),
        ] {
            let t: BonsaiTree<u64, u64> = BonsaiTree::new(Collector::new());
            let mut model = BTreeMap::new();
            for k in keys {
                t.insert(k, k);
                model.insert(k, k);
            }
            assert_eq!(split_and_link(&t, at), sides);
            model.insert(at, at);
            t.check_invariants();
            assert_eq!(t.to_vec(), model.into_iter().collect::<Vec<_>>());
        }
    }

    /// Cuts on both lineages of a fork, and on a grandchild forked midway:
    /// the reference counts match the in-degrees after every cut, each
    /// lineage matches its own model, and teardown reclaims every node.
    #[test]
    fn span_cuts_on_forked_lineages_keep_counts_exact() {
        let collector = Collector::new();
        let root: BonsaiTree<u64, u64> = BonsaiTree::new(collector.clone());
        let mut base = BTreeMap::new();
        for k in 0..500u64 {
            root.insert(4 * k, k);
            base.insert(4 * k, k);
        }
        let mut lineages = vec![(root.fork(), base.clone()), (root, base)];
        let mut rng = Rng(0xF0_4CED);
        for i in 0..120 {
            if i == 60 {
                let grandchild = (lineages[0].0.fork(), lineages[0].1.clone());
                lineages.push(grandchild);
            }
            let which = i % lineages.len();
            let (t, model) = &mut lineages[which];
            let (lo, hi, first, last) = random_cut(&mut rng, model, 2000, [4, 64, 400][i % 3]);
            assert_eq!(
                cut(t, lo, hi, first, last),
                model_cut(model, lo, hi, first, last),
                "cut {i}: {lo}..={hi}"
            );
            let family: Vec<_> = lineages.iter().map(|(t, _)| t).collect();
            BonsaiTree::check_family_invariants(&family);
            for (t, model) in &lineages {
                t.check_invariants();
                assert_eq!(t.to_vec(), model.clone().into_iter().collect::<Vec<_>>());
            }
        }
        drop(lineages);
        collector.synchronize();
        let s = collector.stats();
        assert_eq!(s.objects_retired, s.objects_freed);
    }

    #[test]
    fn sequential_insert_stays_balanced() {
        const N: u64 = if cfg!(miri) { 300 } else { 2000 };
        let t: BonsaiTree<u64, u64> = BonsaiTree::new(Collector::new());
        for k in 0..N {
            t.insert(k, k);
        }
        t.check_invariants();
        for k in (0..N).rev().step_by(2) {
            t.remove(&k);
        }
        t.check_invariants();
        assert_eq!(t.len(), N as usize / 2);
    }

    /// The same randomized differential as `matches_btreemap_under_random_ops`,
    /// replayed against each reclamation backend through the owned
    /// (backend-agnostic) read API — the tentpole invariant: tree behavior
    /// is identical whatever reclaims the garbage, and every backend ends
    /// the run with everything it retired reclaimed.
    #[test]
    fn matches_btreemap_on_every_backend() {
        let backends = [
            ReclaimBackend::Epoch(Collector::new()),
            ReclaimBackend::Hybrid(HybridDomain::new()),
        ];
        for (seed, backend) in backends.into_iter().enumerate() {
            let kind = backend.name();
            let t: BonsaiTree<u64, u64> = BonsaiTree::with_backend(backend.clone());
            let mut model = BTreeMap::new();
            let mut rng = Rng(0xC0FFEE ^ seed as u64);
            const OPS: u64 = if cfg!(miri) { 200 } else { 3000 };
            for i in 0..OPS {
                let k = rng.next() % 256;
                if rng.next().is_multiple_of(3) {
                    assert_eq!(t.remove(&k), model.remove(&k), "{kind} op {i}: remove {k}");
                } else {
                    assert_eq!(
                        t.insert(k, i),
                        model.insert(k, i),
                        "{kind} op {i}: insert {k}"
                    );
                }
                if i % 512 == 0 {
                    t.check_invariants();
                    let probe = rng.next() % 256;
                    assert_eq!(
                        t.get_owned(&probe),
                        model.get(&probe).copied(),
                        "{kind} op {i}: get {probe}"
                    );
                    assert_eq!(
                        t.get_le_owned(&probe),
                        model.range(..=probe).next_back().map(|(&k, &v)| (k, v)),
                        "{kind} op {i}: get_le {probe}"
                    );
                    assert_eq!(
                        t.get_ge_owned(&probe),
                        model.range(probe..).next().map(|(&k, &v)| (k, v)),
                        "{kind} op {i}: get_ge {probe}"
                    );
                }
            }
            t.check_invariants();
            let got = t.to_vec();
            let want: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(got, want, "{kind} final state diverged");
            drop(t);
            backend.synchronize();
            let s = backend.stats();
            assert_eq!(
                s.objects_retired, s.objects_freed,
                "{kind} leaked retired objects"
            );
            assert!(s.objects_retired > 0, "{kind} retired nothing");
            assert_eq!(s.bytes_retired, s.bytes_freed, "{kind} leaked bytes");
            assert!(
                s.peak_unreclaimed_bytes > 0,
                "{kind} never measured outstanding garbage"
            );
        }
    }

    /// Guard-based reads are the epoch protocol; the hybrid backend must
    /// reject them loudly instead of handing out unprotected references.
    #[test]
    fn guard_reads_panic_on_non_epoch_backends() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let t: BonsaiTree<u64, u64> =
            BonsaiTree::with_backend(ReclaimBackend::Hybrid(HybridDomain::new()));
        t.insert(1, 10);
        assert!(
            catch_unwind(AssertUnwindSafe(|| t.pin())).is_err(),
            "pin() must panic"
        );
        assert!(
            catch_unwind(AssertUnwindSafe(|| t.collector())).is_err(),
            "collector() must panic"
        );
        // The owned reads are the supported protocol there.
        assert_eq!(t.get_owned(&1), Some(10));
        assert!(t.contains_key(&1));
    }

    #[test]
    fn foreign_guard_is_rejected() {
        let t: BonsaiTree<u64, u64> = BonsaiTree::new(Collector::new());
        let other = Collector::new();
        let g = other.pin();
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| { t.get(&1, &g) })).is_err()
        );
    }

    /// The writer-path allocation diet: the retired-node buffer lives with
    /// the writer lock and is reused, so a steady-state workload (bounded
    /// key universe, tree size oscillating around a fixed point) must stop
    /// growing its capacity after warm-up — per-update cost is then the
    /// O(log n) node boxes plus one exact-size batch allocation, with no
    /// doubling regrowth.
    #[test]
    fn steady_state_updates_do_not_regrow_scratch() {
        let t: BonsaiTree<u64, u64> = BonsaiTree::new(Collector::new());
        let mut rng = Rng(0x5EED_5EED);
        const KEYS: u64 = if cfg!(miri) { 64 } else { 256 };
        const WARMUP: u64 = if cfg!(miri) { 500 } else { 2_000 };
        const STEADY: u64 = if cfg!(miri) { 1_000 } else { 10_000 };
        // Warm-up: reach steady state and the workload's peak path length.
        for i in 0..WARMUP {
            let k = rng.next() % KEYS;
            if rng.next().is_multiple_of(2) {
                t.insert(k, i);
            } else {
                t.remove(&k);
            }
        }
        let warm = t.writer_scratch_capacity();
        assert!(warm > 0, "warm-up retired nothing");
        // Steady state: same workload shape, thousands more updates.
        for i in 0..STEADY {
            let k = rng.next() % KEYS;
            if rng.next().is_multiple_of(2) {
                t.insert(k, i);
            } else {
                t.remove(&k);
            }
        }
        assert_eq!(
            t.writer_scratch_capacity(),
            warm,
            "steady-state updates regrew the writer scratch buffer"
        );
    }
}
