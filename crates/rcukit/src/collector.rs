//! The global epoch collector and per-thread registration.
//!
//! # Epoch protocol
//!
//! The collector maintains a global epoch counter. Each registered thread
//! ([`LocalHandle`]) publishes its *status* word: `0` when not in a read-side
//! critical section, or `(epoch << 1) | 1` while pinned. The global epoch may
//! advance from `E` to `E + 1` only when every pinned thread's recorded epoch
//! equals `E`; consequently a thread pinned at epoch `p` keeps the global
//! epoch at most `p + 1` for as long as it stays pinned.
//!
//! Retired garbage is tagged with the global epoch observed *at retire time*.
//! Any reader that could still hold a reference to a retired object must have
//! pinned no later than the retirement, so its pinned epoch is at most the
//! tag `e`. Once the global epoch reaches `e + `[`GRACE_EPOCHS`]` = e + 2`,
//! every such reader has unpinned and the garbage may be freed.
//!
//! # Sharding
//!
//! Registered threads and sealed garbage bags live in per-shard lists
//! (shard count derived from [`std::thread::available_parallelism`], one
//! shard per core rounded up to a power of two). Registration assigns each
//! thread a home shard round-robin; its registry entry and its sealed bags
//! only ever touch that shard's locks. [`Inner::try_advance`] scans the
//! shards one lock at a time — there is no global registry lock for
//! advancing writers to convoy on. Reader pin/unpin takes **no** lock at
//! all (see [`Guard`](crate::Guard)): the hot path is the thread's own
//! status word plus a read of the global epoch word.
//!
//! # The thread slot
//!
//! [`Collector::pin`] finds the calling thread's registration through a
//! one-entry, `const`-initialised thread-local ([`ThreadSlot`]) holding the
//! last-used collector's identity and a raw pointer to the thread's
//! [`LocalState`] for it, in front of the per-thread handle cache
//! ([`HANDLES`]). A hit costs one TLS access and no atomic
//! read-modify-write: the guard *borrows* the state. The borrow is sound
//! because a `LocalState` is freed only by leaving its shard's registry,
//! and it leaves only when its handle drops with no guard live
//! ([`LocalHandle`]'s `Drop`) or, orphaned, when its last guard drops
//! (`Guard`'s `Drop`); the slot itself is emptied before the cache entry it
//! points into dies ([`CachedHandle`]'s `Drop`).
//!
//! [`GRACE_EPOCHS`]: crate::GRACE_EPOCHS

use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::mem;
use std::ptr;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, SeqCst};
use std::sync::Arc;
use std::thread;

use crate::deferred::{Bag, Deferred, Retired};
use crate::guard::Guard;
use crate::stats::CollectorStats;
use crate::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize};
use crate::sync::{Mutex, MutexGuard};
use crate::GRACE_EPOCHS;

/// Seal a thread-local bag into the global garbage queue once it holds this
/// many retirements, even if the owning guard is still pinned.
const BAG_SEAL_THRESHOLD: usize = 64;

/// Maximum drained bag buffers cached for reuse (see [`Inner::bag_pool`]):
/// enough that every active writer thread's seal finds a warm buffer, small
/// enough that the cached capacity stays bounded.
const BAG_POOL_MAX: usize = 64;

/// Default collect throttle: a guard-free unpin that sealed garbage runs the
/// opportunistic advance-and-reclaim pass only every this-many
/// garbage-bearing unpins (per handle), instead of on every one. Between
/// collects, sealed bags simply queue in the home shard. Overridable per
/// collector via [`Collector::set_unpin_collect_period`] (tests and model
/// scenarios set `1` to recover collect-every-unpin behaviour).
const UNPIN_COLLECT_PERIOD: usize = 8;

/// Collect-throttle escape hatch: if the handle's home shard has at least
/// this many sealed bags queued, a garbage-bearing unpin collects regardless
/// of the per-handle counter, bounding queue growth when one handle does all
/// the retiring.
const QUEUE_COLLECT_THRESHOLD: usize = 16;

/// Packs an epoch into a pinned status word.
#[inline]
pub(crate) fn pack(epoch: u64) -> u64 {
    (epoch << 1) | 1
}

/// Extracts the epoch from a pinned status word.
#[inline]
pub(crate) fn unpack(status: u64) -> u64 {
    status >> 1
}

/// Shard count for a new collector: one per hardware thread, rounded up to
/// a power of two (cheap index masking), at least one.
fn default_shards() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
}

/// Per-thread state shared between a [`LocalHandle`], its [`Guard`]s, and the
/// collector's registry.
pub(crate) struct LocalState {
    /// `0` when unpinned, `(epoch << 1) | 1` while pinned.
    pub(crate) status: AtomicU64,
    /// Number of live guards for this handle (nesting depth). Only the owning
    /// thread reads or writes it (plain load/store, no RMW); the collector
    /// never reads it.
    pub(crate) guard_count: AtomicUsize,
    /// Set when this registration has no owning [`LocalHandle`] (the one-shot
    /// orphan pin path) or its handle was dropped while an owned guard was
    /// still live; the last guard then unregisters the state.
    pub(crate) orphaned: AtomicBool,
    /// Set when an outermost unpin sealed garbage but skipped the
    /// opportunistic collect because the thread still held other guards;
    /// this handle's next guard-free unpin collects instead.
    pub(crate) collect_pending: AtomicBool,
    /// Owner-thread mirror of `!bag.is_empty()`: written under the `bag`
    /// lock wherever the owning thread fills or seals the bag, read without
    /// it — an unpin with nothing retired must not touch the mutex just to
    /// learn that.
    pub(crate) bag_dirty: AtomicBool,
    /// Garbage-bearing guard-free unpins since this handle last ran the
    /// opportunistic collect — the collect-throttle counter. Only the
    /// owning thread reads or writes it (plain load/store, no RMW).
    pub(crate) garbage_unpins: AtomicUsize,
    /// Objects this handle has deferred since its last throttled collect —
    /// the throttle's second counter, so that advances keep pace with the
    /// objects retired and not only with the unpins that retired them (a
    /// writer shipping chunk-sized batches seals far fewer bags than it
    /// retires nodes). Owner-thread word like `garbage_unpins`.
    pub(crate) deferred_objects: AtomicUsize,
    /// Index of the home shard holding this thread's registry entry and
    /// receiving its sealed bags.
    pub(crate) shard: usize,
    /// Garbage retired by this thread that has not yet been sealed into the
    /// collector's global queue. Only the owning thread pushes; the lock is
    /// effectively uncontended.
    pub(crate) bag: Mutex<Bag>,
}

impl LocalState {
    fn new(shard: usize) -> Self {
        Self {
            status: AtomicU64::new(0),
            guard_count: AtomicUsize::new(0),
            orphaned: AtomicBool::new(false),
            collect_pending: AtomicBool::new(false),
            bag_dirty: AtomicBool::new(false),
            garbage_unpins: AtomicUsize::new(0),
            deferred_objects: AtomicUsize::new(0),
            shard,
            bag: Mutex::new(Bag::new(0)),
        }
    }
}

/// One registry/garbage shard. A thread's registration and its sealed bags
/// live entirely in its home shard, so writer-side housekeeping from
/// different shards never contends.
struct Shard {
    /// Threads registered in this shard.
    registry: Mutex<Vec<Arc<LocalState>>>,
    /// Sealed bags from this shard's threads awaiting a grace period.
    garbage: Mutex<Vec<Bag>>,
    /// Mirror of `garbage.len()`, maintained under the `garbage` lock but
    /// readable without it — the collect throttle's queue-pressure probe
    /// must not take the very lock the throttle exists to avoid.
    garbage_len: AtomicUsize,
}

impl Shard {
    fn new() -> Self {
        Self {
            registry: Mutex::new(Vec::new()),
            garbage: Mutex::new(Vec::new()),
            garbage_len: AtomicUsize::new(0),
        }
    }

    /// Pushes a sealed bag, keeping the lock-free length mirror exact
    /// (every `garbage` mutation site goes through here or
    /// [`Inner::reclaim`]/`Inner::drop`, all of which hold the lock while
    /// storing the new length).
    fn push_garbage(&self, bag: Bag) {
        let mut garbage = self.garbage.lock().unwrap();
        garbage.push(bag);
        // ordering: Relaxed — advisory queue-pressure mirror; the `garbage`
        // mutex guards the real list, and a stale probe read only delays or
        // hastens a collect by one unpin.
        self.garbage_len.store(garbage.len(), Relaxed);
    }
}

/// The global epoch word, alone on its cache line (128 bytes: a line pair,
/// for CPUs whose adjacent-line prefetcher couples them). Every reader's
/// pin loads it, while the statistics counters beside it in [`Inner`] are
/// read-modify-written by every retiring writer; sharing their line would
/// turn each writer RMW into a miss on every reader's next pin.
#[repr(align(128))]
pub(crate) struct EpochWord(AtomicU64);

impl std::ops::Deref for EpochWord {
    type Target = AtomicU64;

    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// Shared collector state behind the [`Collector`] handle.
pub(crate) struct Inner {
    /// The global epoch.
    pub(crate) epoch: EpochWord,
    /// Per-shard registries and sealed-bag queues.
    shards: Box<[Shard]>,
    /// Round-robin cursor assigning home shards to new registrations.
    next_shard: AtomicUsize,
    /// Total number of successful epoch advances.
    epochs_advanced: AtomicU64,
    /// Total heap objects retired via `defer`/`defer_free`/`defer_recycle`.
    /// Units are *objects*: every pointer in a recycle batch counts
    /// individually; an opaque `defer` closure counts as one (see
    /// [`CollectorStats`]).
    pub(crate) retired: AtomicU64,
    /// Total heap objects reclaimed by executed retirements.
    freed: AtomicU64,
    /// Total bytes retired, per the retirer's estimate (`defer_free` uses
    /// the payload size; `defer_recycle` takes an explicit count; opaque
    /// closures contribute 0).
    retired_bytes: AtomicU64,
    /// Total bytes reclaimed by executed retirements.
    freed_bytes: AtomicU64,
    /// Deferred `Call` callbacks that panicked while the reclaim loop
    /// drained them. The panic is caught in `Bag::fire` so the rest of the
    /// bag still reclaims; this counter is the only trace it leaves.
    callback_panics: AtomicU64,
    /// Bytes retired but not yet reclaimed, and its high-water mark — the
    /// bounded-garbage gauge the stalled-reader benchmark reads.
    unreclaimed_bytes: AtomicU64,
    peak_unreclaimed_bytes: AtomicU64,
    /// Diagnostic: total registry-lock acquisitions, across all shards.
    /// Reader pin/unpin must never move this counter — the hot-path
    /// regression test pins in a loop and asserts it stays flat. Counted
    /// in debug builds only: one shared counter RMW'd by every shard-lock
    /// taker would reintroduce exactly the cross-shard cache-line traffic
    /// the sharding removed (release builds report 0).
    registry_locks: AtomicU64,
    /// Diagnostic twin of `registry_locks` for the per-thread bag mutexes.
    /// An unpin that retired nothing must never move it. The field itself
    /// exists in debug builds only, so release builds allocate exactly
    /// what they did without it.
    #[cfg(debug_assertions)]
    bag_locks: AtomicU64,
    /// Number of per-thread TLS cache entries (see [`HANDLES`]) currently
    /// holding a handle to this collector. Used by the cache sweep to tell
    /// "alive only because caches hold it" apart from "externally owned":
    /// the collector is abandoned exactly when every strong reference is a
    /// cache entry, i.e. `strong_count <= tls_cached`.
    #[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
    tls_cached: AtomicUsize,
    /// Collect throttle period: a guard-free unpin that sealed garbage runs
    /// the opportunistic collect only every this-many garbage-bearing
    /// unpins per handle (see [`UNPIN_COLLECT_PERIOD`]; minimum 1 =
    /// collect every time).
    unpin_collect_period: AtomicUsize,
    /// Recycled bag item buffers (empty, warm capacity). Every bag seal
    /// needs a replacement bag; popping a pooled buffer instead of growing
    /// a fresh `Vec` keeps the steady-state write path allocation-free.
    /// Capped at [`BAG_POOL_MAX`]; a leaf lock (nothing is acquired while
    /// holding it).
    bag_pool: Mutex<Vec<Vec<Retired>>>,
    /// Reusable ready-bag buffer for [`Inner::reclaim`], so the collect
    /// path stops allocating one `Vec` per reclaim pass. Taken briefly at
    /// reclaim entry (a re-entrant reclaim fired from a callback just sees
    /// it empty and falls back to a fresh buffer).
    reclaim_scratch: Mutex<Vec<Bag>>,
}

impl Inner {
    /// Locks one shard's registry, counting the acquisition in debug
    /// builds (the hot-path regression test asserts reader pins never
    /// reach here).
    fn registry(&self, shard: usize) -> MutexGuard<'_, Vec<Arc<LocalState>>> {
        if cfg!(debug_assertions) {
            // ordering: Relaxed — diagnostic counter; nothing is published
            // through it.
            self.registry_locks.fetch_add(1, Relaxed);
        }
        self.shards[shard].registry.lock().unwrap()
    }

    /// Locks `local`'s bag, counting the acquisition in debug builds (the
    /// hot-path regression tests assert an empty-bag unpin never reaches
    /// here).
    fn bag<'l>(&self, local: &'l LocalState) -> MutexGuard<'l, Bag> {
        // ordering: Relaxed — diagnostic counter; nothing is published
        // through it.
        #[cfg(debug_assertions)]
        self.bag_locks.fetch_add(1, Relaxed);
        local.bag.lock().unwrap()
    }

    /// Bag-mutex acquisitions so far (0 in release builds, which do not
    /// count them).
    fn bag_locks(&self) -> u64 {
        // ordering: Relaxed — diagnostic counter.
        #[cfg(debug_assertions)]
        return self.bag_locks.load(Relaxed);
        #[cfg(not(debug_assertions))]
        0
    }

    /// Attempts one epoch advance. Returns `true` if the global epoch moved.
    ///
    /// Scans the shards one registry lock at a time; there is no instant at
    /// which the whole registry is locked. That is sound because the scan
    /// only needs a *negative* guarantee per thread: any thread observed
    /// unpinned or pinned at `e` either stays that way or re-pins through
    /// the publication protocol (publish status, re-read the epoch), which
    /// bounds its pinned epoch to at least `e`.
    fn try_advance(&self) -> bool {
        // ordering: Relaxed — the fence below orders this sample against the
        // scan, and the CAS at the end re-validates it before committing.
        let e = self.epoch.load(Relaxed);
        // ordering: SeqCst fence — the advance-side half of the
        // pin-publication Dekker (its partner is the fence in
        // `Guard::pin_status`). In the total order of SeqCst fences either
        // this fence comes after a pinning reader's fence — then the scan
        // below is guaranteed to observe that reader's status store — or it
        // comes before, and the reader's post-fence epoch re-read is
        // guaranteed to observe every advance this thread already saw, so
        // the reader retries its publication at the newer epoch. Without
        // this fence the scan's loads could read a stale "unpinned" status
        // while the reader's re-read still sees the old epoch, advancing
        // the epoch twice over a live pin.
        fence(SeqCst);
        for shard in 0..self.shards.len() {
            let registry = self.registry(shard);
            for local in registry.iter() {
                // ordering: Acquire — pairs with the Release store of `0` in
                // `Guard::drop`: a reader this scan observes as unpinned had
                // all its critical-section reads happen-before the advance,
                // and hence before any free the advance unlocks.
                #[cfg(not(loomette_weaken))]
                let s = local.status.load(Acquire);
                // Seeded bug for the model-checker meta-test (never in
                // release builds): a Relaxed scan load drops the acquire
                // side of the unpin edge — the AcqRel loom leg must catch
                // the resulting stale-read advance.
                #[cfg(loomette_weaken)]
                let s = local.status.load(Relaxed);
                if s != 0 && unpack(s) != e {
                    return false;
                }
            }
        }
        if self
            .epoch
            // ordering: AcqRel success — Release publishes the new epoch to
            // `reclaim`'s Acquire load (completing the unpin → scan → advance
            // → reclaim happens-before chain); Acquire joins the scan's
            // observations into this advance. Relaxed failure — a lost race
            // is just "someone else advanced".
            .compare_exchange(e, e + 1, AcqRel, Relaxed)
            .is_ok()
        {
            // ordering: Relaxed — statistics counter.
            self.epochs_advanced.fetch_add(1, Relaxed);
            true
        } else {
            false
        }
    }

    /// Fires every sealed bag whose grace period has elapsed, across all
    /// shards. Returns the number of callbacks executed and whether bags
    /// are still queued (observed inside the shard locks, so no extra
    /// acquisition is needed to learn it).
    fn reclaim(&self) -> (usize, bool) {
        // ordering: Acquire — pairs with the advance CAS's Release: an epoch
        // value proving a bag's grace period elapsed carries with it every
        // reader unpin the advances in between observed, so the readers'
        // critical-section reads happen-before the frees below.
        let e = self.epoch.load(Acquire);
        // Reuse the ready buffer across reclaims. `mem::take` under a brief
        // lock, not holding the lock across the fires below: callbacks may
        // re-enter `collect` → `reclaim`, which would then deadlock on the
        // scratch mutex (the re-entrant pass simply sees an empty scratch).
        let mut ready = mem::take(&mut *self.reclaim_scratch.lock().unwrap());
        let mut remaining = false;
        for shard in self.shards.iter() {
            let mut garbage = shard.garbage.lock().unwrap();
            let mut i = 0;
            while i < garbage.len() {
                if garbage[i].epoch + GRACE_EPOCHS <= e {
                    ready.push(garbage.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            // ordering: Relaxed — advisory mirror; see `Shard::push_garbage`.
            shard.garbage_len.store(garbage.len(), Relaxed);
            remaining |= !garbage.is_empty();
        }
        let mut n = 0;
        let mut bytes = 0;
        let mut panics = 0;
        for bag in ready.drain(..) {
            let (objects, b, p, buffer) = bag.fire();
            n += objects;
            bytes += b;
            panics += p;
            self.pool_bag_buffer(buffer);
        }
        // Hand the (drained) buffer back for the next reclaim. A concurrent
        // or re-entrant pass may have installed its own in the meantime;
        // keeping either one is fine — this is a capacity cache, not state.
        *self.reclaim_scratch.lock().unwrap() = ready;
        // ordering: Relaxed (all) — statistics counters.
        self.freed.fetch_add(n as u64, Relaxed);
        self.freed_bytes.fetch_add(bytes as u64, Relaxed);
        self.unreclaimed_bytes.fetch_sub(bytes as u64, Relaxed);
        self.callback_panics.fetch_add(panics, Relaxed);
        (n, remaining)
    }

    /// Pops a recycled bag tagged `epoch` (warm buffer when the pool has
    /// one; a fresh empty `Vec` — which does not allocate until pushed to —
    /// otherwise).
    fn pooled_bag(&self, epoch: u64) -> Bag {
        let buffer = self.bag_pool.lock().unwrap().pop().unwrap_or_default();
        Bag::with_buffer(epoch, buffer)
    }

    /// Returns a drained bag buffer to the pool, dropping it if the pool
    /// is full (bounding the cached capacity).
    fn pool_bag_buffer(&self, buffer: Vec<Retired>) {
        if buffer.capacity() == 0 {
            return;
        }
        let mut pool = self.bag_pool.lock().unwrap();
        if pool.len() < BAG_POOL_MAX {
            pool.push(buffer);
        }
    }

    /// Moves a thread's local bag (if non-empty) into its home shard's
    /// sealed queue. Returns whether anything was sealed. Owner thread
    /// only; an empty bag costs one load and no lock.
    #[inline]
    pub(crate) fn seal_bag(&self, local: &LocalState) -> bool {
        // ordering: Relaxed — owner-thread-only word: only `local`'s own
        // thread fills or seals its bag (here and in `defer`), so the mirror
        // it reads is the one it wrote.
        let dirty = local.bag_dirty.load(Relaxed);
        if dirty {
            self.seal_dirty_bag(local);
        }
        dirty
    }

    /// The locked half of [`seal_bag`](Self::seal_bag).
    fn seal_dirty_bag(&self, local: &LocalState) {
        let sealed = {
            let mut bag = self.bag(local);
            let epoch = bag.epoch;
            // ordering: Relaxed — owner-thread-only word (see `seal_bag`).
            local.bag_dirty.store(false, Relaxed);
            mem::replace(&mut *bag, self.pooled_bag(epoch))
        };
        self.shards[local.shard].push_garbage(sealed);
    }

    /// Adds one deferred retirement (standing for `objects` heap objects /
    /// `bytes` bytes) to `local`'s bag, tagged with the current global
    /// epoch. Seals oversized or stale-epoch bags along the way.
    pub(crate) fn defer(&self, local: &LocalState, d: Deferred, objects: usize, bytes: usize) {
        // ordering: SeqCst fence (StoreLoad) — the caller's unlink store
        // (e.g. a Release store of a new tree root) must be globally visible
        // before the epoch tag is sampled. Without it the unlink can linger
        // in the store buffer while the epoch advances past the stale tag,
        // letting a reader pin at `tag + 1`, load the *old* pointer, and
        // outlive the grace period computed from `tag`.
        fence(SeqCst);
        // ordering: Relaxed — the fence above already orders the unlink
        // before this sample; a stale (lower) tag only lengthens the grace
        // period, and the epoch word is monotone.
        let tag = self.epoch.load(Relaxed);
        let sealed = {
            let mut bag = self.bag(local);
            let stale = if !bag.is_empty() && bag.epoch != tag {
                Some(mem::replace(&mut *bag, self.pooled_bag(tag)))
            } else {
                None
            };
            bag.epoch = tag;
            bag.items.push(Retired { d, objects, bytes });
            let full = if bag.len() >= BAG_SEAL_THRESHOLD {
                Some(mem::replace(&mut *bag, self.pooled_bag(tag)))
            } else {
                None
            };
            // ordering: Relaxed — owner-thread-only word (see `seal_bag`):
            // `defer` runs on the thread whose guard `local` belongs to.
            local.bag_dirty.store(full.is_none(), Relaxed);
            (stale, full)
        };
        // ordering: Relaxed (load and store) — owner-thread-only counter
        // (see `LocalState::deferred_objects`): only this thread defers
        // through `local` and only its own unpins read it, so a load and
        // a store suffice and no RMW is needed.
        let deferred = local.deferred_objects.load(Relaxed).saturating_add(objects);
        local.deferred_objects.store(deferred, Relaxed);
        // ordering: Relaxed (both) — statistics counters.
        self.retired.fetch_add(objects as u64, Relaxed);
        self.retired_bytes.fetch_add(bytes as u64, Relaxed);
        crate::reclaim::note_unreclaimed(
            &self.unreclaimed_bytes,
            &self.peak_unreclaimed_bytes,
            bytes as u64,
        );
        if sealed.0.is_some() || sealed.1.is_some() {
            // A bag sealed mid-critical-section leaves the local bag empty
            // at unpin, so `Guard::drop`'s `had_garbage` check alone would
            // never collect it; arm the handle's pending flag.
            // ordering: Relaxed — owner-thread flag: `local` is the calling
            // thread's own state, and only its own guards consult the flag.
            local.collect_pending.store(true, Relaxed);
            let shard = &self.shards[local.shard];
            let mut garbage = shard.garbage.lock().unwrap();
            if let Some(bag) = sealed.0 {
                garbage.push(bag);
            }
            if let Some(bag) = sealed.1 {
                garbage.push(bag);
            }
            // ordering: Relaxed — advisory mirror; see `Shard::push_garbage`.
            shard.garbage_len.store(garbage.len(), Relaxed);
        }
    }

    /// Removes `local` from its home shard's registry (idempotent) and
    /// returns the registry's reference to it — the one keeping the state
    /// allocated for guards that borrow it, so a guard unregistering its
    /// own state holds the result until it is done with the state. Takes a
    /// pointer (compared, never dereferenced) for that reason: the state
    /// may be freed when the caller drops the result.
    pub(crate) fn unregister(
        &self,
        shard: usize,
        local: *const LocalState,
    ) -> Option<Arc<LocalState>> {
        let mut registry = self.registry(shard);
        let pos = registry.iter().position(|l| Arc::as_ptr(l) == local)?;
        Some(registry.swap_remove(pos))
    }

    /// One non-blocking advance-and-reclaim step. Returns the number of
    /// callbacks executed and whether bags are still queued.
    pub(crate) fn collect(&self) -> (usize, bool) {
        self.try_advance();
        self.reclaim()
    }

    /// The collect-throttle gate, consulted by a guard-free outermost unpin
    /// that just sealed garbage: counts the unpin against the handle and
    /// returns whether this one should run the opportunistic collect —
    /// every [`UNPIN_COLLECT_PERIOD`]-th garbage-bearing unpin, once the
    /// handle has deferred [`BAG_SEAL_THRESHOLD`] objects since its last
    /// such collect (so a writer retiring chunk-sized batches advances the
    /// epoch per chunk, not per eight chunks), or sooner when the handle's
    /// home shard has [`QUEUE_COLLECT_THRESHOLD`] sealed bags queued (a
    /// lock-free read of the shard's length mirror). The counters reset
    /// only when the collect is due, so skipped unpins accumulate toward
    /// the next one.
    pub(crate) fn unpin_collect_due(&self, local: &LocalState) -> bool {
        // ordering: Relaxed (both) — owner-thread-only counters (only
        // `local`'s own thread reads or writes them).
        let n = local.garbage_unpins.load(Relaxed) + 1;
        let deferred = local.deferred_objects.load(Relaxed);
        // ordering: Relaxed (both) — the period is a config knob whose
        // staleness is harmless, and the length probe is the advisory
        // mirror (see `Shard::push_garbage`).
        let due = n >= self.unpin_collect_period.load(Relaxed)
            || deferred >= BAG_SEAL_THRESHOLD
            || self.shards[local.shard].garbage_len.load(Relaxed) >= QUEUE_COLLECT_THRESHOLD;
        // ordering: Relaxed (both) — owner-thread-only counters, as above.
        local.garbage_unpins.store(if due { 0 } else { n }, Relaxed);
        if due {
            local.deferred_objects.store(0, Relaxed);
        }
        due
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // No handle or guard can be alive here: a `LocalHandle` holds an
        // `Arc<Inner>` (via its `Collector`), and a `Guard` borrows either
        // a `LocalHandle` or a `Collector` — so every guard's lifetime is
        // bounded by a live strong reference. With the last strong
        // reference gone, every remaining retirement is safe to execute
        // immediately.
        let mut n = 0;
        let mut bytes = 0;
        let mut panics = 0;
        for shard in self.shards.iter_mut() {
            for local in shard.registry.get_mut().unwrap().drain(..) {
                let bag = mem::replace(&mut *local.bag.lock().unwrap(), Bag::new(0));
                let (objects, b, p, _) = bag.fire();
                n += objects;
                bytes += b;
                panics += p;
            }
            for bag in shard.garbage.get_mut().unwrap().drain(..) {
                let (objects, b, p, _) = bag.fire();
                n += objects;
                bytes += b;
                panics += p;
            }
        }
        // ordering: Relaxed (all) — statistics counters, and `&mut self`
        // proves exclusive access anyway.
        self.freed.fetch_add(n as u64, Relaxed);
        self.freed_bytes.fetch_add(bytes as u64, Relaxed);
        self.unreclaimed_bytes.fetch_sub(bytes as u64, Relaxed);
        self.callback_panics.fetch_add(panics, Relaxed);
    }
}

/// A [`LocalHandle`] owned by a thread's TLS cache. Keeps the collector's
/// [`Inner::tls_cached`] census accurate: the count is incremented when the
/// entry is created (in [`Collector::pin`]) and decremented here on drop,
/// whether the entry dies by sweep eviction or by thread exit.
#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
struct CachedHandle {
    id: usize,
    handle: LocalHandle,
}

impl Drop for CachedHandle {
    fn drop(&mut self) {
        // Empty the thread slot if it points into this entry, *before*
        // `handle` drops (fields drop after this body): the slot must never
        // hold a state whose cache entry is gone. Sweep eviction and thread
        // exit both come through here.
        let local = Arc::as_ptr(&self.handle.local);
        let _ = SLOT.try_with(|slot| {
            if slot.local.get() == local {
                slot.id.set(0);
                slot.local.set(ptr::null());
            }
        });
        // Runs before `handle` (and its `Arc<Inner>`) is dropped, so the
        // count transiently underestimates the cache population; sweeps err
        // toward keeping an entry one round longer, never toward use-after-
        // free, and re-run on every cache miss and every
        // [`SWEEP_PERIOD`]-th cache-hit pin.
        // ordering: Relaxed — the census is advisory (see `sweep_abandoned`):
        // a stale read skews an eviction decision by at most one sweep round
        // and never toward use-after-free.
        self.handle.collector.inner.tls_cached.fetch_sub(1, Relaxed);
    }
}

/// The calling thread's fast slot: everything [`Collector::pin`] and a
/// guard's drop need from thread-local storage, in one `const`-initialised
/// cell with no destructor (so it stays readable during thread exit).
#[cfg_attr(loom, allow(dead_code))] // only `live_guards` is used under the model checker
struct ThreadSlot {
    /// Live guards on this thread, across all collectors and handles
    /// (cached or explicitly registered).
    live_guards: Cell<usize>,
    /// Identity of the collector this thread pinned last through the TLS
    /// cache (`0` when empty), and this thread's state for it. Non-null
    /// `local` points into a live [`HANDLES`] entry of this thread.
    id: Cell<usize>,
    local: Cell<*const LocalState>,
    /// Sampled pins since the last sweep, capped at [`SWEEP_PERIOD`]; at
    /// the cap the hit path yields to the slow path, so a thread that only
    /// ever hits still releases abandoned collectors instead of holding
    /// them until thread exit.
    pins_since_sweep: Cell<u32>,
}

#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
impl ThreadSlot {
    /// Counts one pin toward the sampled sweep and reports whether the
    /// sweep is due. The count stays at the cap — the sweep stays due —
    /// until [`sweep_if_due`] actually runs it.
    #[inline]
    fn tick(&self) -> bool {
        let n = (self.pins_since_sweep.get() + 1).min(SWEEP_PERIOD);
        self.pins_since_sweep.set(n);
        n == SWEEP_PERIOD
    }

    /// Counts a guard the thread just created.
    #[inline]
    fn count_guard(&self) {
        self.live_guards.set(self.live_guards.get() + 1);
    }

    /// The [`Collector::pin`]/[`pin_quiet`](Collector::pin_quiet) hit path:
    /// if the slot holds collector `id`'s state, counts the new guard and
    /// returns the state. A `sampled` hit that finds the sweep due reports
    /// a miss instead, sending the pin through the slow path that runs it
    /// (whose own tick changes nothing at the cap).
    #[inline]
    fn hit(&self, id: usize, sampled: bool) -> Option<*const LocalState> {
        if self.id.get() != id || (sampled && self.tick()) {
            return None;
        }
        self.count_guard();
        Some(self.local.get())
    }
}

thread_local! {
    static SLOT: ThreadSlot = const {
        ThreadSlot {
            live_guards: Cell::new(0),
            id: Cell::new(0),
            local: Cell::new(ptr::null()),
            pins_since_sweep: Cell::new(0),
        }
    };

    /// Per-thread cache of handles, keyed by collector identity, backing
    /// [`Collector::pin`] behind the one-entry [`SLOT`].
    static HANDLES: RefCell<Vec<CachedHandle>> = const { RefCell::new(Vec::new()) };
}

/// Counts a guard the calling thread just created.
#[inline]
pub(crate) fn guard_entered() {
    let _ = SLOT.try_with(ThreadSlot::count_guard);
}

/// Uncounts a guard the calling thread is dropping and returns how many it
/// still holds — what gates inline callback execution at unpin: a callback
/// may block on a grace period, which can never elapse while this thread
/// stays pinned. Reports "some" when the TLS value is unavailable — the
/// conservative answer.
#[inline]
pub(crate) fn guard_left() -> usize {
    SLOT.try_with(|slot| {
        let n = slot.live_guards.get().saturating_sub(1);
        slot.live_guards.set(n);
        n
    })
    .unwrap_or(1)
}

/// Run the eviction sweep on the hit path after this many pins. Misses
/// always sweep (they already take the registry lock to register).
#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
const SWEEP_PERIOD: u32 = 128;

/// The sampled eviction gate shared by [`Collector::pin`] and
/// [`Collector::housekeep`]: counts the pin, and sweeps when due (`force`
/// skips the cadence check — used on cache misses, which are already the
/// slow path) but only while the thread holds no guard (an evicted
/// collector's callbacks run inline and may block on a grace period the
/// thread's own pin would stall forever). The counter resets only when the
/// sweep actually runs, so a skipped sweep retries on the next guard-free
/// opportunity. The caller must drop the returned entries outside the
/// `HANDLES` borrow.
#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
fn sweep_if_due(
    slot: &ThreadSlot,
    entries: &mut Vec<CachedHandle>,
    force: bool,
) -> Vec<CachedHandle> {
    if (force || slot.tick()) && slot.live_guards.get() == 0 {
        slot.pins_since_sweep.set(0);
        sweep_abandoned(entries)
    } else {
        Vec::new()
    }
}

/// Drains entries whose collector *appears* to be referenced only by TLS
/// caches (`strong_count <= tls_cached`). The two counters are read
/// separately, so a sweep racing a registration on another thread can
/// spuriously evict a live collector's entry — benign: the external
/// reference keeps the collector alive, and the entry is rebuilt on this
/// thread's next pin of it. The one borrower such an eviction can pull the
/// state out from under is a guard of that collector in the middle of its
/// own drop — already uncounted, running callbacks that got here by
/// pinning — and `Guard::drop` owns a reference to the state across those
/// callbacks for exactly this case. The caller must drop the returned
/// entries *outside* the `HANDLES` borrow: the last cache to let go triggers
/// `Inner::drop`, which runs user deferred callbacks that may re-enter
/// [`Collector::pin`].
#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
fn sweep_abandoned(entries: &mut Vec<CachedHandle>) -> Vec<CachedHandle> {
    let mut evicted = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let inner = &entries[i].handle.collector.inner;
        // ordering: Relaxed — advisory census read; see the function docs
        // (spurious or missed evictions are benign and retried).
        if Arc::strong_count(inner) <= inner.tls_cached.load(Relaxed) {
            evicted.push(entries.swap_remove(i));
        } else {
            i += 1;
        }
    }
    evicted
}

/// Runs `f` on the calling thread's slot and handle cache; `None` when
/// either is unavailable (thread exit).
#[cfg(not(loom))]
fn with_tls_cache<R>(f: impl FnOnce(&ThreadSlot, &mut Vec<CachedHandle>) -> R) -> Option<R> {
    SLOT.try_with(|slot| HANDLES.try_with(|cache| f(slot, &mut cache.borrow_mut())))
        .ok()?
        .ok()
}

/// An epoch-based garbage collector.
///
/// `Collector` is a cheaply clonable handle to shared state; clones refer to
/// the same collector. Threads participate by [`register`](Self::register)ing
/// a [`LocalHandle`] (or implicitly through [`pin`](Self::pin)) and retire
/// garbage through a [`Guard`].
pub struct Collector {
    pub(crate) inner: Arc<Inner>,
}

impl Collector {
    /// Creates a new collector with no registered threads. The registry is
    /// sharded by the machine's available parallelism.
    pub fn new() -> Self {
        Self::with_shards(default_shards())
    }

    /// Creates a new collector with an explicit registry shard count
    /// (rounded up to a power of two; minimum one).
    ///
    /// [`new`](Self::new) sizes the registry automatically; this exists for
    /// tests — model checkers want the smallest state space, and sharding
    /// tests want a count other than the machine's.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Self {
            inner: Arc::new(Inner {
                epoch: EpochWord(AtomicU64::new(0)),
                shards: (0..shards).map(|_| Shard::new()).collect(),
                next_shard: AtomicUsize::new(0),
                epochs_advanced: AtomicU64::new(0),
                retired: AtomicU64::new(0),
                freed: AtomicU64::new(0),
                retired_bytes: AtomicU64::new(0),
                freed_bytes: AtomicU64::new(0),
                callback_panics: AtomicU64::new(0),
                unreclaimed_bytes: AtomicU64::new(0),
                peak_unreclaimed_bytes: AtomicU64::new(0),
                registry_locks: AtomicU64::new(0),
                #[cfg(debug_assertions)]
                bag_locks: AtomicU64::new(0),
                tls_cached: AtomicUsize::new(0),
                unpin_collect_period: AtomicUsize::new(UNPIN_COLLECT_PERIOD),
                bag_pool: Mutex::new(Vec::new()),
                reclaim_scratch: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Overrides how often a garbage-bearing guard-free unpin runs the
    /// opportunistic collect (default [`UNPIN_COLLECT_PERIOD`]; clamped to
    /// at least 1, which recovers collect-on-every-unpin). Test aid: model
    /// scenarios shrink the period to keep unpin-driven reclamation inside
    /// the explored schedule space, and throttle tests widen it.
    #[doc(hidden)]
    pub fn set_unpin_collect_period(&self, period: usize) {
        // ordering: Relaxed — config knob; stale readers just use the old
        // period for a few more unpins.
        self.inner
            .unpin_collect_period
            .store(period.max(1), Relaxed);
    }

    /// A process-unique identity for this collector, stable for its lifetime.
    #[inline]
    #[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
    pub(crate) fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Creates and registers a fresh per-thread state in its home shard.
    fn register_state(&self) -> Arc<LocalState> {
        // ordering: Relaxed — round-robin cursor; only its atomicity
        // matters, the shard choice is a load-balancing heuristic.
        let shard = self.inner.next_shard.fetch_add(1, Relaxed) & (self.inner.shards.len() - 1);
        let local = Arc::new(LocalState::new(shard));
        self.inner.registry(shard).push(local.clone());
        local
    }

    /// Registers the calling context and returns its [`LocalHandle`].
    ///
    /// Registration takes a registry-shard lock; it is intended to happen
    /// once per thread, not once per critical section.
    pub fn register(&self) -> LocalHandle {
        LocalHandle {
            collector: self.clone(),
            local: self.register_state(),
            _not_sync: PhantomData,
        }
    }

    /// Pins the current thread using a cached per-thread handle, registering
    /// it on first use.
    ///
    /// This is the ergonomic entry point for code that does not want to
    /// thread a [`LocalHandle`] around. The cached handle is unregistered
    /// when the thread exits. The hot path — the thread pinned this
    /// collector last — performs no atomic read-modify-write at all: one
    /// thread-local access finds the thread's state, and the guard borrows
    /// both it and `self`.
    #[inline]
    pub fn pin(&self) -> Guard<'_> {
        self.pin_cached(true)
    }

    /// Like [`pin`](Self::pin) but never runs cache-eviction housekeeping,
    /// so no deferred callback can fire during the call.
    ///
    /// Use this to pin *inside* a critical section (a non-reentrant lock
    /// held): a callback fired by `pin`-time eviction could re-enter code
    /// that takes the same lock. Housekeeping happens on regular `pin`
    /// calls; code that pins *exclusively* through `pin_quiet` should pair
    /// each critical section with a [`housekeep`](Self::housekeep) call at
    /// a point where no lock is held and no guard is live, or abandoned
    /// collectors cached on the thread are only released at thread exit.
    #[inline]
    pub fn pin_quiet(&self) -> Guard<'_> {
        self.pin_cached(false)
    }

    /// Shared body of [`pin`](Self::pin) (`housekeeping`) and
    /// [`pin_quiet`](Self::pin_quiet) (not).
    #[inline]
    fn pin_cached(&self, housekeeping: bool) -> Guard<'_> {
        // Model-checking tier: the TLS handle cache is deliberately outside
        // the model's scope. A cached handle is torn down by the OS
        // thread-exit TLS destructor, which runs *after* the model thread
        // has finished — i.e. outside the loomette scheduler — and its
        // registry unregistration would race the still-scheduled threads on
        // real time (nondeterministic replay, and a real deadlock if a
        // paused model thread holds the registry mutex). Orphan pins keep
        // every registry mutation inside the scheduled body.
        #[cfg(loom)]
        {
            let _ = housekeeping;
            self.pin_orphan()
        }
        #[cfg(not(loom))]
        {
            let hit = SLOT.try_with(|slot| slot.hit(self.id(), housekeeping));
            match hit {
                // Safety: a state in the slot is this thread's registration
                // with the collector the slot names — `self` — and its cache
                // entry is alive (`CachedHandle::drop` empties the slot
                // first), so it is registered; `hit` counted the guard.
                Ok(Some(local)) => unsafe { Guard::enter_counted(self, local) },
                _ => self.pin_cached_slow(housekeeping),
            }
        }
    }

    /// The slot-miss path of [`pin_cached`](Self::pin_cached): finds or
    /// creates this thread's cache entry, runs the eviction sweep if
    /// `housekeeping` and due, and leaves the entry in the slot.
    #[cfg(not(loom))]
    #[cold]
    fn pin_cached_slow(&self, housekeeping: bool) -> Guard<'_> {
        loop {
            let outcome = with_tls_cache(|slot, entries| {
                let id = self.id();
                let pos = entries.iter().position(|e| e.id == id);
                if housekeeping {
                    // Without the sweep, a long-lived thread would keep
                    // every collector it ever pinned alive until thread
                    // exit.
                    let evicted = sweep_if_due(slot, entries, pos.is_none());
                    if !evicted.is_empty() {
                        // Hand them out and retry: the drop must happen
                        // before our own pin exists (a callback may block
                        // on a grace period our pin would stall) and
                        // outside the borrow.
                        return Err(evicted);
                    }
                }
                // `pos` is still valid on this path: the sweep either did
                // not run or evicted nothing (else we returned above), so
                // the entries vec is unchanged.
                let local = match pos {
                    Some(p) => Arc::as_ptr(&entries[p].handle.local),
                    None => self.register_into(entries),
                };
                slot.id.set(id);
                slot.local.set(local);
                slot.count_guard();
                Ok(local)
            });
            match outcome {
                // Safety: `local` is this thread's registration with `self`,
                // held by the cache entry found or made above, and the
                // guard was counted there.
                Some(Ok(local)) => return unsafe { Guard::enter_counted(self, local) },
                Some(Err(evicted)) => {
                    // Unpinned and outside the `RefCell` borrow: dropping
                    // an evicted entry can run user deferred callbacks via
                    // `Inner::drop`, which may re-enter `pin` or wait on a
                    // grace period. Then retry; the sweep just ran, so the
                    // next iteration pins directly.
                    drop(evicted);
                }
                None => return self.pin_orphan(),
            }
        }
    }

    /// Runs the sampled cache-eviction sweep a regular [`pin`](Self::pin)
    /// would run, without pinning. The complement of
    /// [`pin_quiet`](Self::pin_quiet): call it after leaving the critical
    /// section (no locks held, no guard live — evicted collectors' deferred
    /// callbacks run inline here and may themselves pin, block on a grace
    /// period, or take locks).
    #[inline]
    pub fn housekeep(&self) {
        // See `pin_cached`: no TLS cache — and so nothing to sweep — under
        // the model checker.
        #[cfg(not(loom))]
        if SLOT.try_with(ThreadSlot::tick).unwrap_or(false) {
            // Due, so skip the cadence check; the evicted entries drop
            // outside the borrow, as in `pin_cached_slow`.
            drop(with_tls_cache(|slot, entries| {
                sweep_if_due(slot, entries, true)
            }));
        }
    }

    /// Registers this thread with the collector and caches the handle.
    /// Returns the new entry's state.
    #[cfg(not(loom))]
    fn register_into(&self, entries: &mut Vec<CachedHandle>) -> *const LocalState {
        let handle = self.register();
        let local = Arc::as_ptr(&handle.local);
        entries.push(CachedHandle {
            id: self.id(),
            handle,
        });
        // Count the entry only once it exists: during the window the
        // entry's reference is live but uncounted, so a concurrent sweep
        // reads `strong_count > tls_cached` and keeps its own entries. This
        // narrows (it cannot fully close — see `sweep_abandoned`) the
        // spurious-eviction race.
        // ordering: Relaxed — advisory census; see `sweep_abandoned`.
        self.inner.tls_cached.fetch_add(1, Relaxed);
        local
    }

    /// Test aid: the calling thread's cached state for this collector — what
    /// a slot-hit guard borrows — so tests can watch its reference count.
    #[cfg(test)]
    pub(crate) fn cached_state(&self) -> Option<Arc<LocalState>> {
        HANDLES.with(|cache| {
            let cache = cache.borrow();
            let entry = cache.iter().find(|e| e.id == self.id());
            entry.map(|e| e.handle.local.clone())
        })
    }

    /// One-shot registration for contexts where the TLS cache is being (or
    /// has been) destroyed — a thread-exit path, e.g. a deferred callback
    /// fired by the cache's own destructor. The registration is born
    /// orphaned (it has no [`LocalHandle`]; the registry's reference keeps
    /// it alive); the guard unregisters it on drop.
    fn pin_orphan(&self) -> Guard<'_> {
        let local = self.register_state();
        // ordering: Relaxed — same-thread flag: the guard that consults it
        // lives on this thread (a handle serves one thread at a time).
        local.orphaned.store(true, Relaxed);
        // Safety: just registered with `self` by this thread, and an
        // orphaned state leaves the registry only when its last guard —
        // this one — drops.
        unsafe { Guard::enter(self, Arc::as_ptr(&local)) }
    }

    /// Blocks until a full grace period has elapsed: every read-side critical
    /// section that was live when `synchronize` was called has ended, and all
    /// garbage retired before the call has been reclaimed.
    ///
    /// Equivalent to the paper's `synchronize_rcu`. The calling thread must
    /// **not** be pinned, otherwise this deadlocks (the epoch cannot advance
    /// past a pinned thread).
    pub fn synchronize(&self) {
        // ordering: Relaxed (both) — progress watch only: the advances this
        // loop waits for happen inside `try_advance`, which carries the real
        // ordering, and `reclaim` re-samples the epoch with Acquire.
        let start = self.inner.epoch.load(Relaxed);
        while self.inner.epoch.load(Relaxed) < start + GRACE_EPOCHS {
            if !self.inner.try_advance() {
                thread::yield_now();
            }
        }
        self.inner.reclaim();
    }

    /// Attempts one non-blocking epoch advance and reclaims any garbage whose
    /// grace period has elapsed. Returns the number of callbacks executed.
    ///
    /// Ready deferred callbacks run inline in the caller's context,
    /// regardless of any guards the caller holds — do not call this while
    /// pinned if a retired callback may wait on a grace period (see
    /// [`Guard::defer`]).
    pub fn collect(&self) -> usize {
        self.inner.collect().0
    }

    /// The current value of the global epoch.
    pub fn global_epoch(&self) -> u64 {
        // ordering: Relaxed — diagnostic snapshot of a monotone counter;
        // per-location coherence keeps it consistent with anything the
        // caller already observed.
        self.inner.epoch.load(Relaxed)
    }

    /// A point-in-time snapshot of the collector's counters.
    pub fn stats(&self) -> CollectorStats {
        let mut pending_bags = 0;
        let mut pending_objects = 0;
        let mut registered_threads = 0;
        for shard in 0..self.inner.shards.len() {
            let registry = self.inner.registry(shard);
            registered_threads += registry.len();
            for local in registry.iter() {
                let bag = self.inner.bag(local);
                if !bag.is_empty() {
                    pending_bags += 1;
                    pending_objects += bag.objects();
                }
            }
            drop(registry);
            let garbage = self.inner.shards[shard].garbage.lock().unwrap();
            pending_bags += garbage.len();
            pending_objects += garbage.iter().map(Bag::objects).sum::<usize>();
        }
        // ordering: Relaxed (all) — point-in-time snapshot of diagnostic
        // counters; the fields are not mutually consistent anyway.
        CollectorStats {
            global_epoch: self.inner.epoch.load(Relaxed),
            epochs_advanced: self.inner.epochs_advanced.load(Relaxed),
            objects_retired: self.inner.retired.load(Relaxed),
            objects_freed: self.inner.freed.load(Relaxed),
            bytes_retired: self.inner.retired_bytes.load(Relaxed),
            bytes_freed: self.inner.freed_bytes.load(Relaxed),
            peak_unreclaimed_bytes: self.inner.peak_unreclaimed_bytes.load(Relaxed),
            callback_panics: self.inner.callback_panics.load(Relaxed),
            pending_bags,
            pending_objects,
            registered_threads,
            registry_shards: self.inner.shards.len(),
            registry_locks: self.inner.registry_locks.load(Relaxed),
            bag_locks: self.inner.bag_locks(),
        }
    }

    /// Number of strong references to the collector's shared state —
    /// including this handle — i.e. live `Collector` clones plus
    /// [`LocalHandle`]s. Diagnostic: the hot-path regression test asserts
    /// that pinning does not move it.
    #[doc(hidden)]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Atomic read-modify-writes, of any ordering, the calling thread has
    /// issued through this crate's sync facade so far. Diagnostic, debug
    /// builds only (always 0 in release and under the model checker): the
    /// hot-path regression tests assert that pinning does not move it.
    #[doc(hidden)]
    pub fn thread_rmw_count() -> u64 {
        #[cfg(all(not(loom), debug_assertions))]
        {
            crate::sync::atomic::thread_rmw_count()
        }
        #[cfg(not(all(not(loom), debug_assertions)))]
        0
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Collector {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl PartialEq for Collector {
    /// Two `Collector` handles are equal when they refer to the same
    /// underlying collector.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for Collector {}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("epoch", &self.global_epoch())
            .finish_non_exhaustive()
    }
}

/// A thread's registration with a [`Collector`].
///
/// Obtained from [`Collector::register`]. The handle is `Send` (it can be
/// moved to another thread) but not `Sync`: each handle serves exactly one
/// thread at a time, which is what makes [`pin`](Self::pin) a thread-local
/// operation.
pub struct LocalHandle {
    pub(crate) collector: Collector,
    pub(crate) local: Arc<LocalState>,
    /// `Cell` is `Send + !Sync`, making the handle single-thread-at-a-time.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl LocalHandle {
    /// Enters a read-side critical section (the paper's `rcu_read_begin`).
    ///
    /// The returned [`Guard`] borrows this handle, so it cannot outlive it:
    ///
    /// ```compile_fail,E0505
    /// use rcukit::Collector;
    ///
    /// let collector = Collector::new();
    /// let handle = collector.register();
    /// let guard = handle.pin();
    /// drop(handle); // ERROR: `handle` is still borrowed by `guard`
    /// drop(guard);
    /// ```
    ///
    /// Pinning is re-entrant: nested guards share the outermost guard's
    /// epoch. The pin performs **no** shared atomic read-modify-write and
    /// takes no lock — it stores the thread's own status word (an
    /// owner-written cache line), issues one StoreLoad fence, and *reads*
    /// the global epoch word — so readers never contend with each other,
    /// however many cores are faulting at once.
    pub fn pin(&self) -> Guard<'_> {
        // Safety: the state is this handle's registration with its own
        // collector, the handle serves the calling thread, and the guard
        // borrows the handle, so the state stays registered under it.
        unsafe { Guard::enter(&self.collector, Arc::as_ptr(&self.local)) }
    }

    /// Whether this handle currently has a live guard.
    pub fn is_pinned(&self) -> bool {
        // ordering: Relaxed — owner-thread counter: the handle's guards
        // live on the calling thread (the handle is `!Sync`).
        self.local.guard_count.load(Relaxed) > 0
    }

    /// The collector this handle is registered with.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let inner = &self.collector.inner;
        // ordering: Relaxed — owner-thread counter: any guard over this
        // state lives on the dropping thread (the handle is `!Sync`), so
        // there is no concurrent mutation to order against.
        if self.local.guard_count.load(Relaxed) == 0 {
            inner.seal_bag(&self.local);
            inner.unregister(self.local.shard, Arc::as_ptr(&self.local));
        } else {
            // Borrow-based guards cannot outlive the handle, but guards
            // from the TLS-cached `Collector::pin` path borrow the state
            // through the registry's reference and can: when thread-exit
            // TLS destruction drops the cached handle under a live guard
            // stored elsewhere in TLS, mark the state orphaned so the last
            // guard unregisters it, then re-check in case that guard
            // dropped concurrently.
            // ordering: Relaxed — same-thread flag and counter, as above.
            self.local.orphaned.store(true, Relaxed);
            if self.local.guard_count.load(Relaxed) == 0 {
                inner.seal_bag(&self.local);
                inner.unregister(self.local.shard, Arc::as_ptr(&self.local));
            }
        }
    }
}

impl fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalHandle")
            .field("pinned", &self.is_pinned())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn epoch_advances_without_readers() {
        let c = Collector::new();
        let e0 = c.global_epoch();
        c.synchronize();
        assert!(c.global_epoch() >= e0 + GRACE_EPOCHS);
    }

    #[test]
    fn pinned_reader_blocks_advance_past_next_epoch() {
        let c = Collector::new();
        let h = c.register();
        let g = h.pin();
        let pinned_at = g.epoch();
        // The epoch can advance at most once past the pinned epoch.
        for _ in 0..10 {
            c.collect();
        }
        assert!(c.global_epoch() <= pinned_at + 1);
        drop(g);
        c.synchronize();
        assert!(c.global_epoch() >= pinned_at + GRACE_EPOCHS);
    }

    #[test]
    fn register_and_drop_updates_registry() {
        let c = Collector::new();
        assert_eq!(c.stats().registered_threads, 0);
        let h1 = c.register();
        let h2 = c.register();
        assert_eq!(c.stats().registered_threads, 2);
        drop(h1);
        assert_eq!(c.stats().registered_threads, 1);
        drop(h2);
        assert_eq!(c.stats().registered_threads, 0);
    }

    /// Registrations spread across every shard, epoch advance scans them
    /// all (a pinned thread in any shard blocks it), and unregistration
    /// finds the right shard.
    #[test]
    fn sharded_registry_scans_every_shard() {
        let c = Collector::with_shards(4);
        assert_eq!(c.stats().registry_shards, 4);
        // Round-robin: eight handles, two per shard.
        let handles: Vec<_> = (0..8).map(|_| c.register()).collect();
        assert_eq!(c.stats().registered_threads, 8);
        // Pin the handle that landed in the *last* shard; the advance scan
        // must still see it.
        let g = handles[3].pin();
        let pinned_at = g.epoch();
        for _ in 0..10 {
            c.collect();
        }
        assert!(c.global_epoch() <= pinned_at + 1);
        drop(g);
        c.synchronize();
        assert!(c.global_epoch() >= pinned_at + GRACE_EPOCHS);
        drop(handles);
        assert_eq!(c.stats().registered_threads, 0);
    }

    /// Garbage sealed into different shards' queues is all reclaimed.
    #[test]
    fn garbage_from_every_shard_is_reclaimed() {
        let fired = Arc::new(AtomicUsize::new(0));
        let c = Collector::with_shards(4);
        let handles: Vec<_> = (0..4).map(|_| c.register()).collect();
        for h in &handles {
            let g = h.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        c.synchronize();
        assert_eq!(fired.load(SeqCst), 4);
        let s = c.stats();
        assert_eq!(s.objects_retired, 4);
        assert_eq!(s.objects_freed, 4);
        assert_eq!(s.pending_bags, 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(Collector::with_shards(0).stats().registry_shards, 1);
        assert_eq!(Collector::with_shards(3).stats().registry_shards, 4);
        assert_eq!(Collector::with_shards(8).stats().registry_shards, 8);
    }

    #[test]
    fn collector_drop_fires_pending_garbage() {
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            g.defer(|| {
                FIRED.fetch_add(1, SeqCst);
            });
        }
        drop(h);
        drop(c);
        assert_eq!(FIRED.load(SeqCst), 1);
    }

    #[test]
    fn tls_cache_releases_abandoned_collectors() {
        let fired = Arc::new(AtomicUsize::new(0));
        {
            let c = Collector::new();
            let g = c.pin(); // caches a handle in this thread's TLS
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        // The collector is now owned only by the TLS cache; its garbage has
        // not reached a grace period yet.
        assert_eq!(fired.load(SeqCst), 0);
        // Pinning any collector sweeps the cache, dropping the abandoned
        // entry and firing its remaining garbage via Inner::drop.
        let other = Collector::new();
        let _g = other.pin();
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// An abandoned collector cached in several threads' TLS must still be
    /// evicted: each sweep sees `strong_count == tls_cached` and drops its
    /// own entry, and the last eviction fires the pending garbage.
    #[test]
    fn abandoned_collector_cached_in_two_threads_is_evicted() {
        use std::sync::mpsc;

        let fired = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();

        let mut steps = Vec::new();
        let mut readies = Vec::new();
        let mut joins = Vec::new();
        for _ in 0..2 {
            let (step_tx, step_rx) = mpsc::channel::<()>();
            let (ready_tx, ready_rx) = mpsc::channel::<()>();
            let c = c.clone();
            let fired = fired.clone();
            joins.push(thread::spawn(move || {
                {
                    let g = c.pin(); // cache a handle in this thread's TLS
                    let fired = fired.clone();
                    g.defer(move || {
                        fired.fetch_add(1, SeqCst);
                    });
                }
                drop(c);
                ready_tx.send(()).unwrap();
                step_rx.recv().unwrap(); // main has dropped its handle
                let other = Collector::new();
                let _g = other.pin(); // sweep evicts this thread's entry
                ready_tx.send(()).unwrap();
                step_rx.recv().unwrap(); // stay alive until both swept
            }));
            steps.push(step_tx);
            readies.push(ready_rx);
        }
        for rx in &readies {
            rx.recv().unwrap();
        }
        // Only the two TLS caches own the collector now. Sweep one thread at
        // a time so each observes the other's entry consistently.
        drop(c);
        for (tx, rx) in steps.iter().zip(&readies) {
            tx.send(()).unwrap();
            rx.recv().unwrap();
        }
        assert_eq!(fired.load(SeqCst), 2);
        for tx in &steps {
            tx.send(()).unwrap();
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    /// A deferred callback fired by a sweep eviction (via `Inner::drop`) may
    /// itself pin a collector; this must not panic on the TLS `RefCell`.
    #[test]
    fn eviction_fired_callback_may_repin() {
        let fired = Arc::new(AtomicUsize::new(0));
        let other = Collector::new();
        {
            let c = Collector::new();
            let g = c.pin(); // caches a handle to `c` in this thread's TLS
            let f = fired.clone();
            let o = other.clone();
            g.defer(move || {
                let _g = o.pin(); // re-enters the TLS cache
                f.fetch_add(1, SeqCst);
            });
        }
        // Sweeping evicts `c`, dropping its last reference; `Inner::drop`
        // runs the callback above, which pins `other` recursively.
        let _g = other.pin();
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// A thread whose every pin is a cache hit must still release abandoned
    /// collectors: the hit path sweeps every `SWEEP_PERIOD`-th pin.
    #[test]
    fn hit_path_sampled_sweep_releases_abandoned_collectors() {
        let fired = Arc::new(AtomicUsize::new(0));
        let b = Collector::new();
        drop(b.pin()); // cache `b` while `a` does not exist yet
        {
            let a = Collector::new();
            let g = a.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        // `a` is now owned only by this thread's TLS cache; every further
        // pin of `b` is a cache hit, so only the sampled sweep can evict it.
        assert_eq!(fired.load(SeqCst), 0);
        for _ in 0..=SWEEP_PERIOD {
            drop(b.pin());
        }
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// `pin_quiet` must never run eviction housekeeping (it exists to be
    /// callable with non-reentrant locks held); a regular pin still does.
    #[test]
    fn pin_quiet_runs_no_housekeeping() {
        let fired = Arc::new(AtomicUsize::new(0));
        let other = Collector::new();
        drop(other.pin_quiet());
        {
            let c = Collector::new();
            let g = c.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        // `c` is abandoned in this thread's TLS; quiet pins must not evict
        // it no matter how often they run.
        for _ in 0..=SWEEP_PERIOD {
            drop(other.pin_quiet());
        }
        assert_eq!(fired.load(SeqCst), 0);
        // A regular sweeping pin (cache miss) still reclaims it.
        let fresh = Collector::new();
        drop(fresh.pin());
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// An eviction-fired callback may block on a grace period (e.g. call
    /// `synchronize`). The sweep must therefore never run — and never drop
    /// evicted handles — while this thread holds any guard, or the callback
    /// would wait forever on our own pin.
    #[test]
    fn eviction_callback_blocking_on_grace_does_not_deadlock() {
        let fired = Arc::new(AtomicUsize::new(0));
        let x = Collector::new();
        drop(x.pin()); // cache `x` so later pins are hits, not sweeping misses
        {
            let y = Collector::new();
            let g = y.pin();
            let f = fired.clone();
            let x2 = x.clone();
            g.defer(move || {
                x2.synchronize(); // completes only if the thread is unpinned
                f.fetch_add(1, SeqCst);
            });
        }
        // `y` is abandoned in this thread's TLS. While pinned on `x`, even
        // sweep-due nested pins must skip the sweep.
        let outer = x.pin();
        for _ in 0..=SWEEP_PERIOD {
            drop(x.pin());
        }
        assert_eq!(fired.load(SeqCst), 0);
        drop(outer);
        // First guard-free pin runs the overdue sweep; the callback's
        // synchronize() now makes progress.
        drop(x.pin());
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// A deferred callback can also fire from the TLS cache's *destructor*
    /// when an exiting thread owns an abandoned collector's last reference.
    /// Re-entrant pinning then cannot touch the dying TLS value; the
    /// fallback path must register-and-pin without it (and clean up).
    #[test]
    fn thread_exit_fired_callback_may_repin() {
        let fired = Arc::new(AtomicUsize::new(0));
        let other = Collector::new();
        let o = other.clone();
        let f = fired.clone();
        thread::spawn(move || {
            let c = Collector::new();
            let g = c.pin(); // caches a handle to `c` in this thread's TLS
            g.defer(move || {
                let _g = o.pin();
                f.fetch_add(1, SeqCst);
            });
            drop(g);
            drop(c);
            // The thread now exits owning `c` only through its TLS cache;
            // the cache destructor drops the last reference and
            // `Inner::drop` fires the callback above mid-TLS-destruction.
        })
        .join()
        .unwrap();
        assert_eq!(fired.load(SeqCst), 1);
        // The fallback registration was cleaned up when its guard dropped.
        assert_eq!(other.stats().registered_threads, 0);
    }

    /// What the calling thread's slot holds: collector id, state pointer,
    /// live guards.
    fn slot() -> (usize, *const LocalState, usize) {
        SLOT.with(|s| (s.id.get(), s.local.get(), s.live_guards.get()))
    }

    /// Nesting depth of the state the slot points at.
    fn slot_depth() -> usize {
        // Safety: a non-null slot pointer is a live cache entry's state.
        unsafe { (*slot().1).guard_count.load(Relaxed) }
    }

    /// Two collectors alternated on one thread while the first one's guard
    /// is still live: each pin replaces the slot, nesting depth and the
    /// live-guard count stay right, no pin re-registers, and both
    /// collectors' garbage is collected by unpins alone once the thread is
    /// guard-free.
    #[test]
    fn slot_alternates_between_collectors_under_a_live_guard() {
        let fired = Arc::new(AtomicUsize::new(0));
        let a = Collector::with_shards(1);
        let b = Collector::with_shards(1);
        a.set_unpin_collect_period(1);
        b.set_unpin_collect_period(1);
        let defer_one = |g: &Guard<'_>| {
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        };

        let ga = a.pin();
        assert_eq!((slot().0, slot().2), (a.id(), 1));
        let a_state = slot().1;
        let gb = b.pin(); // replaces the slot under `ga`
        assert_eq!((slot().0, slot().2), (b.id(), 2));
        assert_eq!(slot_depth(), 1);
        let ga2 = a.pin(); // back to `a`: a slot miss, a cache hit, nested
        assert_eq!(slot(), (a.id(), a_state, 3));
        assert_eq!(slot_depth(), 2);
        assert_eq!(ga2.epoch(), ga.epoch());
        assert_eq!(a.stats().registered_threads, 1);
        assert_eq!(b.stats().registered_threads, 1);

        defer_one(&ga);
        defer_one(&gb);
        drop(ga2); // inner unpin: `a` stays pinned
        assert_eq!(slot_depth(), 1);
        for _ in 0..4 {
            a.collect();
        }
        assert!(a.global_epoch() <= ga.epoch() + 1);
        drop(gb); // outermost for `b`, but the thread still holds `ga`
        assert_eq!(slot().2, 1);
        assert_eq!(fired.load(SeqCst), 0);
        drop(ga);
        assert_eq!(slot().2, 0);
        // Guard-free now: `b`'s skipped collect is pending on its state and
        // `a`'s unpins collect every time (period 1).
        for _ in 0..3 {
            drop(a.pin());
            drop(b.pin());
        }
        assert_eq!(fired.load(SeqCst), 2);
    }

    /// The slot may point at an abandoned collector's state; evicting that
    /// entry empties the slot before the state dies, and the next pin goes
    /// through registration instead of a dangling pointer.
    #[test]
    fn evicting_the_slots_collector_empties_the_slot() {
        let fired = Arc::new(AtomicUsize::new(0));
        let other = Collector::new();
        drop(other.pin());
        {
            let c = Collector::new();
            let g = c.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
            drop(g);
            assert_eq!(slot().0, c.id());
        }
        // `c` lives on in this thread's cache only, and the slot still
        // points at its state. Evict it without pinning anything.
        for _ in 0..SWEEP_PERIOD {
            other.housekeep();
        }
        assert_eq!(fired.load(SeqCst), 1);
        assert_eq!(slot(), (0, ptr::null(), 0));
        let fresh = Collector::new();
        let g = fresh.pin();
        assert_eq!(slot().0, fresh.id());
        assert_eq!(fresh.stats().registered_threads, 1);
        drop(g);
    }

    /// A callback fired by an unpin's own collect runs with that guard
    /// already uncounted, so it may pin an uncached collector and run the
    /// sweep — which, racing a registration on another thread, can evict
    /// the *live* collector's entry the dropping guard borrowed its state
    /// from (simulated here by inflating the `tls_cached` census). The
    /// guard must keep the state alive until it has re-armed the pending
    /// flag; after its drop the state is gone and the next pin
    /// re-registers.
    #[test]
    fn unpin_collect_callback_may_evict_the_guards_own_entry() {
        const EVICTED_STATE_ALIVE: usize = 1;
        const EVICTED_STATE_FREED: usize = 2;
        const NOT_EVICTED: usize = 3;
        let c = Collector::with_shards(1);
        drop(c.pin());
        let state = Arc::downgrade(&c.cached_state().unwrap());
        let outcome = Arc::new(AtomicUsize::new(0));
        {
            let g = c.pin();
            let (c2, state, outcome) = (c.clone(), state.clone(), outcome.clone());
            g.defer(move || {
                // What a sweep reads when other threads register between
                // its two loads: more cached references than strong ones.
                c2.inner.tls_cached.fetch_add(8, Relaxed);
                drop(Collector::new().pin()); // a cache miss: sweeps
                c2.inner.tls_cached.fetch_sub(8, Relaxed);
                // A panic here would be swallowed by the bag; report.
                let seen = if c2.cached_state().is_some() {
                    NOT_EVICTED
                } else if state.upgrade().is_some() {
                    EVICTED_STATE_ALIVE
                } else {
                    EVICTED_STATE_FREED
                };
                outcome.store(seen, SeqCst);
            });
            g.flush(); // arms `collect_pending`: the next unpins collect
        }
        // Every unpin here is pending-driven and leaves its own bag queued,
        // so the one that fires the callback re-arms the flag afterwards —
        // a store into the state the callback just had unregistered.
        for _ in 0..8 {
            if outcome.load(SeqCst) != 0 {
                break;
            }
            let g = c.pin();
            g.defer(|| {});
            g.flush();
        }
        assert_eq!(
            outcome.load(SeqCst),
            EVICTED_STATE_ALIVE,
            "the dropping guard did not keep its state alive across its callbacks"
        );
        assert!(state.upgrade().is_none());
        assert_eq!(c.stats().registered_threads, 0);
        assert_eq!(slot().2, 0);
        drop(c.pin());
        assert_eq!(c.stats().registered_threads, 1);
        c.synchronize();
        let s = c.stats();
        assert_eq!(s.objects_retired, s.objects_freed);
    }

    /// A guard from the cached path can outlive the thread's handle cache
    /// (a `'static` collector, the guard parked in another thread-local
    /// that is destroyed later). The cache's teardown must leave the
    /// borrowed state registered and orphaned, and the guard's drop must
    /// unregister it.
    #[test]
    fn cached_guard_outliving_the_cache_unregisters_its_state() {
        thread_local! {
            static PARKED: RefCell<Option<Guard<'static>>> = const { RefCell::new(None) };
        }
        static COLLECTOR: std::sync::OnceLock<Collector> = std::sync::OnceLock::new();
        let c = COLLECTOR.get_or_init(Collector::new);
        thread::spawn(move || {
            // Touch `PARKED` first: thread-local destructors run in reverse
            // order of first use, so the handle cache dies before it.
            PARKED.with(|p| assert!(p.borrow().is_none()));
            let g = c.pin();
            g.defer(|| {});
            PARKED.with(|p| *p.borrow_mut() = Some(g));
        })
        .join()
        .unwrap();
        assert_eq!(c.stats().registered_threads, 0);
        c.synchronize();
        let s = c.stats();
        assert_eq!((s.objects_retired, s.objects_freed), (1, 1));
    }

    /// Pins through the slot keep the unpin protocol whole: a
    /// garbage-bearing unpin seals the thread's bag every time and runs the
    /// opportunistic collect on every `UNPIN_COLLECT_PERIOD`-th.
    #[test]
    fn slot_pins_still_seal_and_collect_on_schedule() {
        let c = Collector::with_shards(1);
        drop(c.pin()); // register; every pin below hits the slot
        for round in 1..=2 {
            for n in 1..=UNPIN_COLLECT_PERIOD {
                let g = c.pin();
                g.defer(|| {});
                drop(g);
                // Safety: the slot points at this thread's live entry.
                assert!(!unsafe { (*slot().1).bag_dirty.load(Relaxed) });
                let s = c.stats();
                let collects = (round - 1) + n / UNPIN_COLLECT_PERIOD;
                assert_eq!(s.epochs_advanced as usize, collects);
                assert_eq!(
                    s.pending_objects as u64,
                    s.objects_retired - s.objects_freed
                );
            }
        }
        assert_eq!(c.stats().registered_threads, 1);
        c.synchronize();
        let s = c.stats();
        assert_eq!(s.objects_retired, 2 * UNPIN_COLLECT_PERIOD as u64);
        assert_eq!(s.objects_freed, s.objects_retired);
    }

    #[test]
    fn clone_eq_identity() {
        let a = Collector::new();
        let b = a.clone();
        let c = Collector::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
