//! RAII read-side critical sections.

use std::fmt;
use std::marker::PhantomData;
#[cfg(not(loomette_weaken))]
use std::sync::atomic::Ordering::Release;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Arc;

use crate::collector::{guard_entered, guard_left, pack, unpack, Collector, LocalState};
use crate::deferred::{Deferred, RecycleBatch};
use crate::sync::atomic::fence;

/// A pinned read-side critical section (the paper's `rcu_read_begin` /
/// `rcu_read_end` pair).
///
/// While a `Guard` is live, the global epoch cannot advance more than one
/// step past the guard's pinned epoch, so no object retired while the guard
/// could observe it is reclaimed. Dropping the guard ends the critical
/// section.
///
/// The guard *borrows* its origin — the [`LocalHandle`] it was pinned
/// through, or the [`Collector`] for the TLS-cached
/// [`Collector::pin`](Collector::pin) path — and the thread's registration
/// with it, which is what makes pinning free of atomic read-modify-writes:
/// nothing is cloned, so no reference count is touched, and every word
/// pin/unpin writes is written by the pinning thread only. It also means a
/// guard cannot outlive its handle; see [`LocalHandle::pin`] for the
/// compile-time rejection.
///
/// Guards are re-entrant per thread (nested pins share the outermost epoch)
/// and are neither `Send` nor `Sync`: a critical section belongs to the
/// thread that opened it.
///
/// [`LocalHandle`]: crate::LocalHandle
/// [`LocalHandle::pin`]: crate::LocalHandle::pin
pub struct Guard<'a> {
    collector: &'a Collector,
    /// The pinning thread's registration with `collector`, borrowed: the
    /// shard registry's reference keeps it allocated until it is
    /// unregistered, which happens only with no guard over it counted (see
    /// [`Guard::enter`]; the guard's drop takes a reference of its own for
    /// the callbacks it runs after uncounting itself).
    local: *const LocalState,
    /// Keeps the guard `!Send + !Sync`; unpinning must happen on the pinning
    /// thread for the epoch protocol to be meaningful.
    _not_send: PhantomData<*mut ()>,
}

impl<'a> Guard<'a> {
    /// Pins the calling thread through `local`, counting the new guard in
    /// the thread's live-guard count.
    ///
    /// # Safety
    ///
    /// `local` must be the calling thread's registration with `collector`
    /// (nobody else pins through it meanwhile), and must stay in the
    /// collector's registry until the returned guard has dropped — by a
    /// borrow of its [`LocalHandle`](crate::LocalHandle), or because the
    /// handle's drop leaves a state with live guards registered and
    /// orphaned for the last guard to remove.
    pub(crate) unsafe fn enter(collector: &'a Collector, local: *const LocalState) -> Guard<'a> {
        guard_entered();
        // Safety: forwarded contract; the guard was counted above.
        unsafe { Self::enter_counted(collector, local) }
    }

    /// [`enter`](Self::enter) for a caller that has already counted the
    /// guard in the thread's live-guard count (the `Collector::pin` slot
    /// path, which is in the thread-local anyway).
    ///
    /// # Safety
    ///
    /// As [`enter`](Self::enter).
    #[inline]
    pub(crate) unsafe fn enter_counted(
        collector: &'a Collector,
        local: *const LocalState,
    ) -> Guard<'a> {
        let guard = Guard {
            collector,
            local,
            _not_send: PhantomData,
        };
        let local = guard.local();
        // ordering: Relaxed (both) — owner-thread-only nesting counter: only
        // this thread's guards touch it (a handle serves one thread at a
        // time), and the collector never reads it. A load and a store, not
        // an RMW: there is no other writer to be atomic against.
        let depth = local.guard_count.load(Relaxed);
        local.guard_count.store(depth + 1, Relaxed);
        if depth == 0 {
            // Publish our pinned epoch, re-reading the global epoch until it
            // is stable across the store. This guarantees that at some
            // instant after the store the global epoch equalled our pinned
            // epoch, which is what bounds the epoch to `pinned + 1` while we
            // stay pinned (any later advance re-scans the registry and sees
            // us).
            loop {
                // ordering: Relaxed — this sample is validated by the fence
                // + re-read below before the pin counts as published.
                let e = collector.inner.epoch.load(Relaxed);
                // ordering: Relaxed — the publication itself is ordered by
                // the fence that follows; the advance scan's Acquire load
                // pairs with the *unpin* store, not this one.
                local.status.store(pack(e), Relaxed);
                // ordering: SeqCst fence (StoreLoad) — the pin-publication
                // fence, paired with the fence in `Inner::try_advance`: it
                // forces the status store out before the epoch re-read, so
                // in the SC order of fences either a concurrent advance's
                // scan sees our pin, or our re-read sees its advance and we
                // retry. It also keeps the critical section's pointer loads
                // from starting before the pin is visible.
                fence(SeqCst);
                // ordering: Relaxed — the fence above makes this re-read at
                // least as new as any advance whose scan missed our store.
                if collector.inner.epoch.load(Relaxed) == e {
                    break;
                }
            }
        }
        guard
    }

    /// The thread's registration this guard pins through.
    #[inline]
    fn local(&self) -> &LocalState {
        // Safety: per `enter`'s contract the state stays registered — and
        // so allocated — while this guard is live.
        unsafe { &*self.local }
    }

    /// The epoch this guard is pinned at.
    pub fn epoch(&self) -> u64 {
        // ordering: Relaxed — reading our own thread's status word.
        unpack(self.local().status.load(Relaxed))
    }

    /// The collector this guard is pinned against.
    pub fn collector(&self) -> &Collector {
        self.collector
    }

    /// Defers `f` until after a grace period: it runs only once every thread
    /// that was pinned when `defer` was called has unpinned.
    ///
    /// This is the general form of the paper's `rcu_free`; use
    /// [`defer_free`](Self::defer_free) to retire a `Box` allocation.
    ///
    /// # Callback context
    ///
    /// `f` may run inline on any participating thread — at an explicit
    /// [`collect`](Collector::collect)/[`synchronize`](Collector::synchronize),
    /// when the last reference to an abandoned collector dies, or when a
    /// thread drops its last guard. At the *implicit* points (unpin,
    /// pin-time cache eviction) the runtime guarantees `f` never runs while
    /// the executing thread holds a guard, so `f` may pin or wait on a
    /// grace period; the *explicit* `collect`/`synchronize` calls run ready
    /// callbacks in the caller's context unconditionally — do not make them
    /// while pinned if any retired callback may wait on a grace period.
    /// The runtime also cannot know about caller locks: `f` must not
    /// acquire a non-reentrant lock that callers hold around pin/unpin or
    /// collect/synchronize points.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        // Accounting: an opaque closure counts as one retired object with
        // no byte estimate (see `CollectorStats`).
        self.collector
            .inner
            .defer(self.local(), Deferred::new(f), 1, 0);
    }

    /// Retires a heap allocation: after a grace period, `ptr` is reclaimed
    /// as a `Box<T>` (running `T`'s destructor).
    ///
    /// # Safety
    ///
    /// * `ptr` must have been produced by [`Box::into_raw`] and must not be
    ///   freed by any other path (no double retire).
    /// * `ptr` must be unreachable for readers that pin *after* this call —
    ///   i.e. it has been unlinked from every shared structure.
    pub unsafe fn defer_free<T: Send + 'static>(&self, ptr: *mut T) {
        debug_assert!(!ptr.is_null());
        let addr = ptr as usize;
        self.collector.inner.defer(
            self.local(),
            Deferred::new(move || {
                // Safety: per the contract above, this is the sole owner of
                // the allocation once the grace period has elapsed.
                unsafe { drop(Box::from_raw(addr as *mut T)) };
            }),
            1,
            std::mem::size_of::<T>(),
        );
    }

    /// Defers recycling `batch` to `recycler` after a grace period — the
    /// allocation-free sibling of [`defer`](Self::defer): no closure is
    /// boxed (the batch travels by value inside the bag entry) and the
    /// recycler is an `Arc` clone, so an arena-backed writer can retire a
    /// whole update without touching the heap. After the grace period the
    /// collector calls [`crate::Recycler::recycle`] with the batch, on whichever
    /// thread drives reclamation (same execution contract as
    /// [`defer`](Self::defer)'s callback context).
    ///
    /// # Safety
    ///
    /// * Every pointer in `batch` must be unreachable for readers that pin
    ///   *after* this call (unlinked from every shared structure) and must
    ///   not be reclaimed by any other path (no double retire).
    /// * Every pointer must be valid for `recycler` — pointing at a block
    ///   it manages, still holding an initialized value if `recycle` drops
    ///   payloads — and the pointed-to data must be safe to reclaim from
    ///   any thread (`Send` payloads).
    ///
    /// `bytes` is the caller's estimate of the heap bytes the batch stands
    /// for (feeding the collector's byte counters; every batch pointer
    /// counts as one retired object).
    pub unsafe fn defer_recycle(
        &self,
        recycler: Arc<dyn crate::Recycler>,
        batch: RecycleBatch,
        bytes: usize,
    ) {
        let objects = batch.len();
        self.collector.inner.defer(
            self.local(),
            Deferred::recycle(recycler, batch),
            objects,
            bytes,
        );
    }

    /// Moves this thread's pending retirements into the collector's global
    /// queue so another thread's `collect`/`synchronize` can reclaim them
    /// without waiting for this guard to drop.
    pub fn flush(&self) {
        if self.collector.inner.seal_bag(self.local()) {
            // The local bag is empty now, so the unpin's `had_garbage`
            // check won't see this garbage; arm the pending flag so the
            // next guard-free unpin still collects it (as `Inner::defer`
            // does for its full/stale-bag seals).
            // ordering: Relaxed — owner-thread flag: only this thread's
            // guards read or write it.
            self.local().collect_pending.store(true, Relaxed);
        }
    }
}

impl Drop for Guard<'_> {
    #[inline]
    fn drop(&mut self) {
        let live_guards = guard_left();
        let local = self.local();
        // ordering: Relaxed (both) — owner-thread-only nesting counter (see
        // `enter_counted`): a load and a store, no RMW.
        let depth = local.guard_count.load(Relaxed);
        debug_assert!(depth >= 1);
        local.guard_count.store(depth - 1, Relaxed);
        if depth == 1 {
            // `seal_bag` checks the owner-thread `bag_dirty` mirror itself,
            // so an unpin that retired nothing takes no lock here.
            let had_garbage = self.collector.inner.seal_bag(local);
            // ordering: Release — ends the critical section: pairs with the
            // advance scan's Acquire load, so every read this section made
            // happens-before an advance that observes us unpinned (and hence
            // before any free that advance unlocks).
            #[cfg(not(loomette_weaken))]
            local.status.store(0, Release);
            // Seeded bug for the model-checker meta-test (never in release
            // builds): weakening this Release to Relaxed severs the unpin →
            // advance happens-before edge, and the AcqRel loom leg must
            // find the resulting message-passing violation.
            #[cfg(loomette_weaken)]
            local.status.store(0, Relaxed);
            // An orphaned state (no handle left) is unregistered by its
            // last guard. The registry's reference was what kept the state
            // allocated under this guard's borrow, so hold it to the end of
            // this block, past the last use of `local`.
            // ordering: Relaxed — same-thread flag: set by this thread's own
            // handle drop or orphan pin.
            let _registration = if local.orphaned.load(Relaxed) {
                self.collector.inner.unregister(local.shard, local)
            } else {
                None
            };
            // Opportunistic advance + reclaim keeps garbage bounded for
            // writer threads without a dedicated reclaimer. Gated on the
            // thread holding no guard (ours is already uncounted):
            // reclaim fires user callbacks inline, and a callback that
            // blocks on a grace period — of any collector this thread is
            // still pinned on — would never return.
            //
            // Two triggers, with different contracts:
            //
            // * `collect_pending` — armed by liveness-gate skips (unpin
            //   under other live guards), mid-critical-section bag seals,
            //   and `flush`, and re-armed while a pending-driven collect
            //   leaves bags queued. A pending handle collects at its next
            //   guard-free unpin *unconditionally*: these are the cases
            //   where the `had_garbage` check below can no longer see the
            //   garbage, so the flag is the only thing keeping it alive.
            // * `had_garbage` — this unpin itself sealed a bag. These
            //   collects are *throttled* (`unpin_collect_due`): every Nth
            //   garbage-bearing unpin, or sooner under shard-queue
            //   pressure, this handle runs a collect; in between, sealed
            //   bags just queue. A throttle skip deliberately does NOT arm
            //   `collect_pending` — doing so would make the next unpin
            //   collect and defeat the throttle. The cost is a weaker
            //   tail guarantee: garbage sealed by a handle's final few
            //   (< period) unpins waits for another trigger (any handle's
            //   due collect, queue pressure, or an explicit
            //   collect/synchronize).
            if live_guards == 0 {
                // The flag is consumed up front and only ever re-SET after
                // the collect, never cleared: a callback fired inside
                // `collect()` may re-enter this collector, defer, and arm
                // the flag for its own freshly sealed bag — a blind
                // `store(remaining)` with the pre-callback snapshot would
                // clobber that and strand the bag.
                // ordering: Relaxed (both) — owner-thread-only flag (see
                // `flush`): only this thread's guards and its own `defer`
                // read or write it, so consume-then-re-arm needs no RMW —
                // a load, and a store only when it was set.
                let pending = local.collect_pending.load(Relaxed);
                if pending {
                    local.collect_pending.store(false, Relaxed);
                }
                if pending || (had_garbage && self.collector.inner.unpin_collect_due(local)) {
                    // The callbacks `collect()` fires run with this guard
                    // already uncounted, so one that pins another collector
                    // may run this thread's cache sweep, and a sweep racing
                    // a registration elsewhere can evict a *live*
                    // collector's entry (`sweep_abandoned`) — ours: its
                    // handle then sees `guard_count == 0` and unregisters
                    // the state. Own a reference across the callbacks so
                    // the re-arm store below still has a state to write;
                    // this is the collect path, never the empty unpin.
                    // Safety: `self.local` is `Arc::as_ptr` of a state the
                    // registry still holds (`enter`'s contract), so the
                    // count is at least one.
                    let _alive = unsafe {
                        Arc::increment_strong_count(self.local);
                        Arc::from_raw(self.local)
                    };
                    let (_, remaining) = self.collector.inner.collect();
                    if remaining && pending {
                        // Only the pending chain re-arms on an incomplete
                        // drain: it carries the liveness contract (flushed
                        // or gate-skipped garbage MUST reclaim via later
                        // unpins alone). Throttled collects instead rely on
                        // the steady unpin stream that triggered them.
                        // ordering: Relaxed — owner-thread flag, as above.
                        local.collect_pending.store(true, Relaxed);
                    }
                }
            } else if had_garbage {
                // ordering: Relaxed — owner-thread flag, as above.
                local.collect_pending.store(true, Relaxed);
            }
        }
    }
}

impl fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn nested_guards_share_epoch() {
        let c = Collector::new();
        let h = c.register();
        let g1 = h.pin();
        let e = g1.epoch();
        // Force epoch movement attempts; the outer pin keeps us at `e`.
        c.collect();
        let g2 = h.pin();
        assert_eq!(g2.epoch(), e);
        drop(g2);
        assert!(h.is_pinned());
        drop(g1);
        assert!(!h.is_pinned());
    }

    #[test]
    fn defer_runs_after_grace_period_only() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let n = counter.clone();
            g.defer(move || {
                n.fetch_add(1, SeqCst);
            });
            // Still pinned: a grace period cannot complete.
            for _ in 0..10 {
                c.collect();
            }
            assert_eq!(counter.load(SeqCst), 0);
        }
        c.synchronize();
        assert_eq!(counter.load(SeqCst), 1);
    }

    /// `defer_recycle` honours the same grace-period contract as `defer`
    /// and hands the batch (with its buffer) to the recycler exactly once.
    #[test]
    fn defer_recycle_runs_after_grace_period() {
        struct Sink {
            seen: AtomicUsize,
        }
        impl crate::Recycler for Sink {
            unsafe fn recycle(&self, mut batch: RecycleBatch) {
                self.seen.fetch_add(batch.drain().count(), SeqCst);
            }
        }
        let sink = Arc::new(Sink {
            seen: AtomicUsize::new(0),
        });
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let mut batch = RecycleBatch::new();
            // Never-dereferenced markers: the sink only counts.
            let marks = [0u8; 2];
            batch.push(std::ptr::from_ref(&marks[0]).cast_mut().cast());
            batch.push(std::ptr::from_ref(&marks[1]).cast_mut().cast());
            // Safety: the sink never dereferences; the markers are retired
            // exactly once and reachable by no reader.
            unsafe { g.defer_recycle(sink.clone(), batch, 2) };
            // Still pinned: the grace period cannot complete.
            for _ in 0..10 {
                c.collect();
            }
            assert_eq!(sink.seen.load(SeqCst), 0);
        }
        c.synchronize();
        assert_eq!(sink.seen.load(SeqCst), 2);
        let s = c.stats();
        // Object units: every batch pointer counts (the PR 1 regression
        // counted the whole batch as one), and the caller's byte estimate
        // flows through to the byte counters.
        assert_eq!(s.objects_retired, 2);
        assert_eq!(s.objects_freed, 2);
        assert_eq!(s.bytes_retired, 2);
        assert_eq!(s.bytes_freed, 2);
        assert_eq!(s.peak_unreclaimed_bytes, 2);
    }

    #[test]
    fn defer_free_reclaims_allocation() {
        let c = Collector::new();
        let h = c.register();
        let b = Box::into_raw(Box::new(42u64));
        {
            let g = h.pin();
            // Safety: `b` is never reachable elsewhere and never re-freed.
            unsafe { g.defer_free(b) };
        }
        c.synchronize();
        let s = c.stats();
        assert_eq!(s.objects_retired, 1);
        assert_eq!(s.objects_freed, 1);
        // `defer_free` knows the payload size.
        assert_eq!(s.bytes_retired, std::mem::size_of::<u64>() as u64);
        assert_eq!(s.bytes_freed, std::mem::size_of::<u64>() as u64);
    }

    /// The tentpole regression test for the borrow-based redesign: reader
    /// pin/unpin cycles on a registered handle must not touch any shared
    /// reference count (the collector's `Arc` strong count stays flat),
    /// must not take any registry lock (the lock-acquisition counter stays
    /// flat), and — since the ordering audit — must not perform a single
    /// SeqCst atomic RMW (the pin's only sequentially consistent point is
    /// the explicit publication fence; the facade's debug census stays
    /// flat). This is the paper's "readers never contend" property in
    /// checkable form.
    #[test]
    fn reader_pins_touch_no_shared_refcount_and_no_registry_lock() {
        let c = Collector::new();
        let h = c.register();
        // Warm up: the handle exists, nothing else is happening.
        drop(h.pin());
        let handles_before = c.handle_count();
        let locks_before = c.stats().registry_locks;
        #[cfg(all(not(loom), debug_assertions))]
        let rmws_before = crate::sync::atomic::seqcst_rmw_count();
        const PINS: usize = 10_000;
        for _ in 0..PINS {
            let g = h.pin();
            std::hint::black_box(g.epoch());
            drop(g);
        }
        assert_eq!(
            c.handle_count(),
            handles_before,
            "reader pins moved the collector's strong count (shared-line RMW on the hot path)"
        );
        #[cfg(all(not(loom), debug_assertions))]
        assert_eq!(
            crate::sync::atomic::seqcst_rmw_count(),
            rmws_before,
            "reader pins performed a SeqCst atomic RMW — the guard path's only \
             sequentially consistent operation must be the explicit pin fence"
        );
        // `stats()` itself takes registry locks (one per shard), so compare
        // against exactly that overhead: the pins in between contributed 0.
        // The counter only ticks in debug builds (see `Inner::registry`);
        // in release it must simply stay 0.
        let per_stats = c.stats().registry_shards as u64;
        let locks_after = c.stats().registry_locks;
        let expected = if cfg!(debug_assertions) {
            locks_before + 2 * per_stats
        } else {
            0
        };
        assert_eq!(
            locks_after, expected,
            "reader pins acquired a registry lock"
        );
    }

    /// The TLS-cached `Collector::pin` path must also keep the collector's
    /// strong count flat on cache hits (it borrows the collector and clones
    /// only the thread-local state Arc).
    #[test]
    fn tls_cached_pins_keep_collector_refcount_flat() {
        let c = Collector::new();
        drop(c.pin()); // register + cache (this clones once, into the cache)
        let handles_before = c.handle_count();
        for _ in 0..1_000 {
            drop(c.pin());
        }
        assert_eq!(c.handle_count(), handles_before);
    }

    /// The read side the page-fault path uses — `Collector::pin` hitting
    /// the thread slot, and the guard's drop — performs no atomic
    /// read-modify-write of any ordering (through the crate's atomic
    /// facade, which is all the census sees), takes neither the thread's
    /// bag mutex nor a registry lock, and leaves both std `Arc` counts it
    /// could touch — the collector's and the thread state's — alone: per
    /// pin it costs plain loads and stores of words only this thread
    /// writes, one fence, and two reads of the epoch word.
    #[test]
    fn slot_pins_perform_no_rmw_and_take_no_lock() {
        let c = Collector::new();
        drop(c.pin()); // register, cache, fill the slot
        let handles_before = c.handle_count();
        // The RMW census sees only the crate's atomic facade, not a std
        // `Arc`; watch the thread state's own count for a clone per pin.
        let state = c.cached_state().unwrap();
        let state_refs_before = Arc::strong_count(&state);
        let before = c.stats();
        let rmws_before = Collector::thread_rmw_count();
        for n in 0..10_000 {
            let g = c.pin();
            std::hint::black_box(g.epoch());
            if n == 5_000 {
                assert_eq!(
                    Arc::strong_count(&state),
                    state_refs_before,
                    "a cache-hit guard holds a reference to the thread state"
                );
            }
            drop(g);
        }
        let rmws = Collector::thread_rmw_count() - rmws_before;
        let after = c.stats();
        assert_eq!(rmws, 0, "cache-hit pins performed atomic RMWs");
        assert_eq!(c.handle_count(), handles_before);
        assert_eq!(Arc::strong_count(&state), state_refs_before);
        // The second `stats()` call's own acquisitions (debug builds count;
        // release builds report 0): one registry lock per shard, one bag
        // lock per registered thread. The pins in between added none.
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
            per_stats_registry,
            "cache-hit pins acquired a registry lock"
        );
        assert_eq!(
            after.bag_locks - before.bag_locks,
            per_stats_bags,
            "cache-hit pins with nothing retired locked the thread's bag"
        );
    }

    /// Unpinning must not fire deferred callbacks while the thread still
    /// holds a guard on another collector: a callback blocking on that
    /// collector's grace period (here, `synchronize`) would deadlock under
    /// the thread's own pin.
    #[test]
    fn unpin_defers_callbacks_while_other_guards_live() {
        let fired = Arc::new(AtomicUsize::new(0));
        let x = Collector::new();
        let y = Collector::new();
        let hy = y.register();
        let gx = x.pin();
        {
            let gy = hy.pin();
            let f = fired.clone();
            let x2 = x.clone();
            gy.defer(move || {
                x2.synchronize(); // completes only if the thread is unpinned
                f.fetch_add(1, SeqCst);
            });
        }
        {
            // A second retire/unpin cycle would advance y's epoch far enough
            // to fire the first callback — were the inline collect not gated
            // on the thread holding zero guards.
            let gy = hy.pin();
            gy.defer(|| {});
        }
        assert_eq!(fired.load(SeqCst), 0);
        drop(gx);
        // The skipped collect is pending on the handle: guard-free unpins
        // that seal nothing still retry it until the queue drains, without
        // needing an explicit collect/synchronize.
        for _ in 0..3 {
            drop(hy.pin());
        }
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// `flush` empties the local bag, so the unpin's `had_garbage` check
    /// alone would never reclaim it; the pending flag must carry it.
    #[test]
    fn flushed_garbage_is_collected_by_later_unpins() {
        let fired = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
            g.flush();
        }
        for _ in 0..3 {
            drop(h.pin());
        }
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// The collect throttle: a mutation-heavy loop (every unpin seals
    /// garbage) must run the opportunistic advance-and-reclaim only every
    /// Nth unpin, not every time — observable in debug builds as far fewer
    /// registry-lock takes (each collect's advance scan takes one lock per
    /// shard), the shard-lock traffic the ROADMAP item exists to cut.
    #[test]
    fn unpin_collects_are_throttled() {
        let c = Collector::with_shards(1);
        let h = c.register();
        drop(h.pin()); // warm up
        const ITERS: u64 = 64;
        let locks_before = c.stats().registry_locks;
        for _ in 0..ITERS {
            let g = h.pin();
            g.defer(|| {});
            drop(g);
        }
        let locks_after = c.stats().registry_locks;
        c.synchronize();
        let s = c.stats();
        assert_eq!(s.objects_retired, ITERS);
        assert_eq!(s.objects_freed, ITERS);
        if cfg!(debug_assertions) {
            // One shard: each collect's advance scan takes exactly one
            // registry lock, and each `stats()` call takes one. Without the
            // throttle every one of the 64 unpins would collect (>= 64
            // takes); with it, collects run at most every-8th unpin plus
            // queue-pressure extras — comfortably under half.
            let taken = locks_after - locks_before - 1; // minus the stats() call
            assert!(
                taken < ITERS / 2,
                "mutation-heavy loop took {taken} registry locks over {ITERS} unpins \
                 — the collect throttle is not throttling"
            );
            assert!(taken > 0, "no collect ever ran despite queued garbage");
        }
    }

    /// The throttle's object trigger: an unpin collects once its handle
    /// has deferred `BAG_SEAL_THRESHOLD` (64) objects since its last
    /// throttled collect, so a writer whose every unpin ships a 64-object
    /// recycle batch advances the epoch on every one of them — while
    /// 1-object defers keep the every-8th-unpin cadence. With nothing else
    /// pinned every collect advances exactly once, so `epochs_advanced`
    /// counts the collects.
    #[test]
    fn chunk_sized_retirements_collect_on_every_unpin() {
        struct Sink;
        impl crate::Recycler for Sink {
            unsafe fn recycle(&self, mut batch: RecycleBatch) {
                batch.drain();
            }
        }
        // Never-dereferenced markers: the sink only drains.
        let marks = [0u8; 64];
        let sink: Arc<dyn crate::Recycler> = Arc::new(Sink);

        let c = Collector::with_shards(1);
        let h = c.register();
        for _ in 0..16 {
            let g = h.pin();
            let mut batch = RecycleBatch::new();
            for m in &marks {
                batch.push(std::ptr::from_ref(m).cast_mut().cast());
            }
            // Safety: the sink never dereferences; each batch is retired
            // exactly once and reachable by no reader.
            unsafe { g.defer_recycle(sink.clone(), batch, 0) };
            drop(g);
        }
        assert_eq!(
            c.stats().epochs_advanced,
            16,
            "a chunk-carrying unpin skipped its collect"
        );

        let c = Collector::with_shards(1);
        let h = c.register();
        for _ in 0..64 {
            let g = h.pin();
            g.defer(|| {});
            drop(g);
        }
        assert_eq!(
            c.stats().epochs_advanced,
            8,
            "1-object defers left the every-8th cadence"
        );
    }

    /// With the throttle period forced to 1, every garbage-bearing unpin
    /// collects — the pre-throttle behaviour tests and model scenarios can
    /// opt back into.
    #[test]
    fn throttle_period_one_collects_every_unpin() {
        let c = Collector::with_shards(1);
        c.set_unpin_collect_period(1);
        let h = c.register();
        drop(h.pin());
        let locks_before = c.stats().registry_locks;
        for _ in 0..8 {
            let g = h.pin();
            g.defer(|| {});
            drop(g);
        }
        if cfg!(debug_assertions) {
            let taken = c.stats().registry_locks - locks_before - 1;
            assert!(
                taken >= 8,
                "period-1 throttle skipped unpin collects ({taken} lock takes over 8 unpins)"
            );
        }
    }

    #[test]
    fn flush_allows_foreign_reclaim() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        let g = h.pin();
        let n = counter.clone();
        g.defer(move || {
            n.fetch_add(1, SeqCst);
        });
        g.flush();
        drop(g);
        c.synchronize();
        assert_eq!(counter.load(SeqCst), 1);
    }
}
