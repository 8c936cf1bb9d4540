//! A striped range-lock manager: writer mutual exclusion by address span,
//! with the interval bookkeeping itself partitioned so disjoint writers
//! touch disjoint cache lines.
//!
//! This is the paper's "split the per-address-space lock" direction taken
//! to its conclusion: instead of one writer mutex serializing every
//! `map`/`unmap`, a writer acquires a lock on exactly the byte span
//! `[start, end)` it is about to mutate. Disjoint spans proceed fully in
//! parallel (including the copy-on-write path rebuild — only the root CAS
//! serializes, see `tree.rs`); overlapping spans serialize by blocking
//! until the conflicting holder releases.
//!
//! # Structure: stripes by address slab
//!
//! The old design kept all held spans in one sorted interval set behind a
//! single table mutex — held only for O(log n) bookkeeping, but still one
//! cache line every writer bounced twice per op. The table is now
//! *striped*: addresses are divided into [`SLAB_BYTES`]-sized slabs, slab
//! `i` maps to stripe `i & (stripes - 1)` (stripe count a power of two
//! derived from [`std::thread::available_parallelism`], overridable via
//! [`RangeLocks::with_stripes`] for tests and model checking), and each
//! stripe holds — behind its own mutex, with its own condvar and scratch
//! pool — the spans that intersect any of its slabs. A span is recorded in
//! **every** stripe it covers. Writers whose spans share no stripe never
//! touch the same line; writers that collide on a stripe but not in bytes
//! contend only for the nanoseconds of one stripe's bookkeeping.
//!
//! *Why per-stripe overlap checks suffice:* two overlapping spans share at
//! least one byte; that byte lies in some slab, both spans cover that
//! slab, so both are recorded in — and both check — that slab's stripe.
//! Conversely a span that passes its check in every covering stripe
//! overlaps no held span. (Two *disjoint* spans may share a stripe via
//! slab aliasing — the check compares exact byte ranges, so they are
//! granted concurrently; aliasing costs momentary mutex contention, never
//! false serialization.)
//!
//! # Deadlock freedom under multi-stripe acquisition
//!
//! Three facts make the manager deadlock-free by construction; the full
//! proof sketch lives in `docs/CONCURRENCY.md` §5:
//!
//! 1. **Stripes are acquired in ascending index order** — a total order —
//!    whatever the address order of the slabs that produced them, so no
//!    cycle can form among stripe-mutex holders.
//! 2. **A blocked acquirer holds exactly one stripe mutex**: on finding a
//!    conflict it releases every other stripe it had locked and parks on
//!    the conflicting stripe's condvar (which releases that last mutex
//!    atomically); on wake it restarts from the lowest stripe. While
//!    parked it holds no range lock at all — every `RangeMap` operation
//!    takes one span at a time, and the span-widening retry loops release
//!    before re-acquiring — so no hold-and-wait on spans either.
//! 3. **Release never blocks**: it removes the span one stripe at a time
//!    (ascending) and wakes each stripe that has a parked waiter.
//!    Incremental removal is sound because the mutation the span
//!    protected is already complete — a waiter admitted after seeing a
//!    partially removed span races nothing.
//!
//! # The gated wake
//!
//! `Condvar::notify_all` is a `futex` syscall even with nobody parked. A
//! release therefore wakes a stripe only if `Stripe::waiting` is non-zero,
//! and reads that count *inside the stripe-mutex critical section that
//! removes the span*. The mutex hand-off is the whole lost-wakeup
//! argument: a waiter checks for overlap, increments `waiting` and parks
//! in one critical section of that mutex (the wait releases it
//! atomically), so against the releaser's there are two orders only.
//! Releaser first: the waiter's check runs after the span left this
//! stripe and does not park on it. Waiter first: its increment
//! happens-before the releaser's read, the releaser notifies after
//! unlocking, and the waiter is already on the condvar's queue. Reading
//! the count *before* taking the mutex would open the window between a
//! waiter's check and its park (the model tier's meta-test deadlocks it).
//!
//! Writers also never *pin* while blocked: the writer session pins only
//! after `acquire` returns (see `with_write_session` in `tree.rs`), so a
//! queued writer cannot stall epoch advance or reclamation.
//!
//! The guard also carries a pooled scratch (`S`, in practice the tree's
//! `WriterScratch` with its node arena), drawn from the lowest covering
//! stripe's pool, so each concurrently held lock has its own replaced /
//! fresh buffers, pending retire list and arena, and the allocation-free
//! write path survives the
//! move from one mutex-owned scratch to N lock-owned ones. Held spans are
//! kept in sorted `Vec`s rather than a `BTreeMap`: the per-stripe span
//! count is tiny (bounded by concurrent writers) and a `Vec`'s capacity
//! persists when it empties, where a `BTreeMap` would allocate and free a
//! node every time a stripe's span count toggled between 0 and 1 —
//! breaking the steady-state zero-allocation property.

use std::sync::atomic::Ordering::Relaxed;
use std::thread;

use crate::sync::atomic::AtomicU64;
use crate::sync::{Condvar, Mutex, MutexGuard};

/// Bytes per address slab (64 KiB): large enough that a typical mutation
/// span (a few pages) covers one or two slabs, small enough that
/// concurrently active writers land on distinct slabs. A power of two, so
/// the slab divisions below compile to shifts.
const SLAB_BYTES: u64 = 64 * 1024;

/// Upper bound on stripes, so a span's covering-stripe set fits a `u64`
/// bitmask.
const MAX_STRIPES: usize = 64;

/// One stripe's mutable state: the spans intersecting its slabs, plus the
/// stripe's share of the scratch pool.
struct Table<S> {
    /// Held spans `(start, end)` intersecting this stripe's slabs, sorted
    /// by start, pairwise disjoint (inserts happen only after the overlap
    /// check, under this same lock in concert with the other covering
    /// stripes' locks).
    held: Vec<(u64, u64)>,
    /// Scratches not currently lent to a held lock. A scratch is popped
    /// from (and returned to) the *lowest* covering stripe of the span
    /// that borrows it, so single-stripe spans — the common case — never
    /// touch another stripe's pool.
    pool: Vec<S>,
}

/// One stripe: its table, its waiters, and its park counter.
struct Stripe<S> {
    table: Mutex<Table<S>>,
    /// Signalled when a span covering this stripe is released while
    /// `waiting` is non-zero; waiters re-run their full overlap check.
    released: Condvar,
    /// Threads parked in [`RangeLocks::acquire`] on *this stripe's*
    /// condvar. Incremented and decremented under the stripe mutex, and
    /// read under it by a release deciding whether to wake (see "The gated
    /// wake" in the module docs). Tests also poll it to rendezvous with a
    /// contender on the stripe it actually parks on, instead of sleeping.
    waiting: AtomicU64,
}

/// A manager of non-overlapping address-span locks over a striped interval
/// table, each granted span lending a pooled scratch `S` to its holder.
pub(crate) struct RangeLocks<S> {
    /// Power-of-two number of stripes, at most [`MAX_STRIPES`].
    stripes: Box<[Stripe<S>]>,
    /// Diagnostic: acquisitions that had to wait for an overlapping holder
    /// at least once. Tests assert overlap ⇒ contention and disjoint ⇒
    /// none (stripe aliasing between disjoint spans never parks).
    contended: AtomicU64,
    /// Diagnostic: condvar notifications issued by releases. An
    /// uncontended release must never move it. Debug builds only, like
    /// rcukit's `bag_locks`.
    #[cfg(debug_assertions)]
    wakes: AtomicU64,
}

/// Default stripe count: one per hardware thread, rounded up to a power of
/// two, clamped to [`MAX_STRIPES`].
fn default_stripes() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
        .min(MAX_STRIPES)
}

impl<S> RangeLocks<S> {
    pub(crate) fn new() -> Self {
        Self::with_stripes(default_stripes())
    }

    /// Creates a manager with an explicit stripe count (rounded up to a
    /// power of two, clamped to `1..=`[`MAX_STRIPES`]). [`new`](Self::new)
    /// sizes it automatically; this exists for tests and model checking,
    /// which want specific (usually small) stripe geometries.
    pub(crate) fn with_stripes(stripes: usize) -> Self {
        let stripes = stripes.clamp(1, MAX_STRIPES).next_power_of_two();
        Self {
            stripes: (0..stripes)
                .map(|_| Stripe {
                    table: Mutex::new(Table {
                        held: Vec::new(),
                        pool: Vec::new(),
                    }),
                    released: Condvar::new(),
                    waiting: AtomicU64::new(0),
                })
                .collect(),
            contended: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            wakes: AtomicU64::new(0),
        }
    }

    /// Number of stripes (diagnostic).
    pub(crate) fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Bitmask of the stripes covering `[start, end)`: one bit per
    /// distinct `slab & (stripes - 1)` value. A span covering at least
    /// `stripes` slabs covers every stripe.
    fn stripe_mask(&self, start: u64, end: u64) -> u64 {
        let n = self.stripes.len() as u64;
        let full: u64 = if n == 64 { !0 } else { (1 << n) - 1 };
        let first = start / SLAB_BYTES;
        let last = (end - 1) / SLAB_BYTES;
        if last - first >= n - 1 {
            return full;
        }
        let mut mask = 0u64;
        for slab in first..=last {
            mask |= 1 << (slab & (n - 1));
        }
        mask
    }

    /// Acquires an exclusive lock on the span `[start, end)`, blocking
    /// while any held span overlaps it. Returns a RAII guard carrying a
    /// pooled scratch; dropping it releases the span and wakes waiters.
    /// The cost is proportional to the stripes the span covers, not to
    /// the table's size.
    ///
    /// `make` creates the scratch on a pool miss (cold path — the pool
    /// serves the steady state). The caller supplies it, rather than the
    /// manager requiring `S: Default`, so that every scratch of one
    /// manager can share family-wide backing state — in practice the
    /// arena chunk store, whose lifetime argument (a pending batch pins
    /// every chunk its blocks could live in) depends on all pooled
    /// scratches drawing on one store.
    ///
    /// `start < end` is required (empty spans could not exclude anything).
    pub(crate) fn acquire(
        &self,
        start: u64,
        end: u64,
        make: impl FnOnce() -> S,
    ) -> RangeWriteGuard<'_, S> {
        debug_assert!(start < end, "empty or inverted lock span");
        let mask = self.stripe_mask(start, end);
        let mut waited = false;
        loop {
            match self.grant(mask, start, end) {
                Ok(mut lowest) => {
                    let scratch = lowest.pool.pop().unwrap_or_else(make);
                    drop(lowest);
                    if waited {
                        // ordering: Relaxed — diagnostic counter.
                        self.contended.fetch_add(1, Relaxed);
                    }
                    return RangeWriteGuard {
                        locks: self,
                        start,
                        mask,
                        scratch: Some(scratch),
                    };
                }
                Err((idx, table)) => {
                    // Conflict on stripe `idx`, whose mutex is the only one
                    // still held. Park on that stripe: the conflicting span
                    // is recorded there, so its release must take this
                    // mutex, and holding it from the check to the wait
                    // closes the lost-wakeup window (module docs).
                    waited = true;
                    let stripe = &self.stripes[idx];
                    // ordering: Relaxed (both) — every access to `waiting`
                    // that matters sits inside a critical section of this
                    // stripe's mutex, which orders them.
                    stripe.waiting.fetch_add(1, Relaxed);
                    let table = stripe.released.wait(table).unwrap();
                    stripe.waiting.fetch_sub(1, Relaxed);
                    drop(table);
                }
            }
        }
    }

    /// One grant attempt over the stripes in `bits`: locks the lowest,
    /// checks it for overlap, recurses into the rest while holding it, and
    /// records the span on the way back out — each stripe's record is
    /// written while every covering stripe below it is still locked and
    /// after every one above it passed its check. Returns the lowest
    /// stripe's guard (span recorded in every stripe of `bits`), or the
    /// conflicting stripe's index and guard with every other mutex
    /// released and nothing recorded. One frame per covering stripe: one
    /// for the common single-slab span.
    #[allow(clippy::type_complexity)]
    fn grant(
        &self,
        bits: u64,
        start: u64,
        end: u64,
    ) -> Result<MutexGuard<'_, Table<S>>, (usize, MutexGuard<'_, Table<S>>)> {
        let idx = bits.trailing_zeros() as usize;
        let mut table = self.stripes[idx].table.lock().unwrap();
        if Self::overlaps(&table.held, start, end) {
            return Err((idx, table));
        }
        let rest = bits & (bits - 1);
        if rest != 0 {
            drop(self.grant(rest, start, end)?);
        }
        let pos = table.held.partition_point(|&(s, _)| s < start);
        table.held.insert(pos, (start, end));
        Ok(table)
    }

    /// Whether any span in a stripe's sorted held list intersects
    /// `[start, end)`. Same predecessor/successor probe as the
    /// region-overlap check in `RangeMap::map`, on a sorted `Vec`.
    fn overlaps(held: &[(u64, u64)], start: u64, end: u64) -> bool {
        let pos = held.partition_point(|&(s, _)| s <= start);
        if pos > 0 && held[pos - 1].1 > start {
            return true;
        }
        pos < held.len() && held[pos].0 < end
    }

    /// Total held-span records across all stripes (a span is recorded
    /// once per covering stripe). Chaos-tier probe: at quiescence this
    /// must be zero — an unwinding writer releases its span through the
    /// guard's drop, so a panicked operation can never leak one.
    pub(crate) fn held_records(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| {
                // Poison-recoverable for the same reason the table stays
                // consistent under unwinds: no failpoint sits inside a
                // stripe-mutex critical section.
                let table = stripe.table.lock().unwrap_or_else(|e| e.into_inner());
                table.held.len()
            })
            .sum()
    }

    /// Total acquisitions that waited at least once (diagnostic).
    pub(crate) fn contended_acquires(&self) -> u64 {
        // ordering: Relaxed — diagnostic snapshot.
        self.contended.load(Relaxed)
    }

    /// Condvar notifications issued by releases so far (0 in release
    /// builds, which do not count them).
    #[cfg(test)]
    pub(crate) fn wakes(&self) -> u64 {
        // ordering: Relaxed — diagnostic counter.
        #[cfg(debug_assertions)]
        return self.wakes.load(Relaxed);
        #[cfg(not(debug_assertions))]
        0
    }

    /// Threads currently parked on stripe `idx`'s condvar (test rendezvous
    /// aid — poll the stripe a contender actually parks on).
    #[cfg(test)]
    fn waiting_on(&self, idx: usize) -> u64 {
        // ordering: Relaxed — test-rendezvous poll; see `waiting`.
        self.stripes[idx].waiting.load(Relaxed)
    }

    /// The stripe a span conflicting in `[start, end)` would park on: the
    /// lowest-indexed covering stripe holding the conflict — which, for a
    /// single-slab span, is simply its only stripe.
    #[cfg(test)]
    fn lowest_stripe(&self, start: u64, end: u64) -> usize {
        self.stripe_mask(start, end).trailing_zeros() as usize
    }

    /// Every pooled scratch across all stripes, through `&mut self` — no
    /// stripe lock, no writer can hold a span — for the owner's drop.
    pub(crate) fn pooled_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.stripes.iter_mut().flat_map(|stripe| {
            let table = stripe.table.get_mut().unwrap_or_else(|e| e.into_inner());
            table.pool.iter_mut()
        })
    }

    /// Folds `f` over every pooled scratch across all stripes. Test and
    /// audit aid; spans currently held (and their lent scratches) are not
    /// visible to it, so call it only while no writer is active.
    pub(crate) fn fold_pooled<A>(&self, init: A, mut f: impl FnMut(A, &S) -> A) -> A {
        let mut acc = init;
        for stripe in self.stripes.iter() {
            let table = stripe.table.lock().unwrap();
            for scratch in &table.pool {
                acc = f(acc, scratch);
            }
        }
        acc
    }
}

/// Exclusive ownership of the span `[start, …)` recorded in every covering
/// stripe of a [`RangeLocks`] table, plus a borrowed pooled scratch.
/// Released on drop.
pub(crate) struct RangeWriteGuard<'a, S> {
    locks: &'a RangeLocks<S>,
    start: u64,
    /// The covering-stripe bitmask computed at acquire time.
    mask: u64,
    /// `Some` for the guard's whole life; `Option` only so drop can move
    /// the scratch back into the pool.
    scratch: Option<S>,
}

impl<S> RangeWriteGuard<'_, S> {
    /// The scratch lent to this lock holder.
    pub(crate) fn scratch(&mut self) -> &mut S {
        self.scratch.as_mut().expect("scratch taken before drop")
    }
}

impl<S> Drop for RangeWriteGuard<'_, S> {
    fn drop(&mut self) {
        // Remove the span stripe by stripe, ascending, returning the
        // scratch to the lowest stripe's pool and waking each stripe that
        // has waiters. No two stripe mutexes are held at once; incremental
        // removal is sound because the protected mutation is already done
        // (see the module docs).
        //
        // The scratch is always clean here, even when the writer unwound
        // mid-update: the tree's commit entry points drain it on unwind
        // (see `DrainOnUnwind` in `tree.rs` — the pooled-scratch
        // replacement for the old mutex's poisoning), so lending it to the
        // next holder is sound.
        let mut scratch = self.scratch.take();
        let mut bits = self.mask;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let stripe = &self.locks.stripes[idx];
            let parked = {
                let mut table = stripe.table.lock().unwrap();
                let pos = table.held.partition_point(|&(s, _)| s < self.start);
                debug_assert!(
                    table.held.get(pos).is_some_and(|&(s, _)| s == self.start),
                    "span vanished from stripe {idx} while held"
                );
                table.held.remove(pos);
                if let Some(s) = scratch.take() {
                    table.pool.push(s);
                }
                // ordering: Relaxed — read under the stripe mutex, which
                // every waiter holds from its overlap check to its park:
                // a waiter that saw this span has already incremented
                // (the gated wake, module docs).
                stripe.waiting.load(Relaxed) != 0
            };
            if parked {
                // Wake every waiter parked on this stripe: which spans
                // became acquirable depends on geometry only the waiters
                // themselves can re-check.
                stripe.released.notify_all();
                // ordering: Relaxed — diagnostic counter.
                #[cfg(debug_assertions)]
                self.locks.wakes.fetch_add(1, Relaxed);
            }
        }
    }
}

impl<S> std::fmt::Debug for RangeLocks<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (mut held, mut pooled) = (0, 0);
        for stripe in self.stripes.iter() {
            let table = stripe.table.lock().unwrap();
            held += table.held.len();
            pooled += table.pool.len();
        }
        f.debug_struct("RangeLocks")
            .field("stripes", &self.stripes.len())
            .field("held_records", &held)
            .field("pooled", &pooled)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst as Seq};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn disjoint_spans_are_both_grantable() {
        let locks: RangeLocks<()> = RangeLocks::new();
        let a = locks.acquire(0x1000, 0x2000, Default::default);
        let b = locks.acquire(0x2000, 0x3000, Default::default); // adjacent, not overlapping
        drop(a);
        drop(b);
        assert_eq!(locks.contended_acquires(), 0);
    }

    /// Disjoint spans that alias to the same stripe (same slab) must both
    /// be granted concurrently: aliasing may contend on the stripe mutex,
    /// never on the spans themselves.
    #[test]
    fn stripe_aliasing_does_not_serialize_disjoint_spans() {
        let locks: RangeLocks<()> = RangeLocks::with_stripes(2);
        // Slabs 0 and 2 both map to stripe 0 with two stripes.
        let a = locks.acquire(0, 0x1000, Default::default);
        let b = locks.acquire(2 * SLAB_BYTES, 2 * SLAB_BYTES + 0x1000, Default::default);
        assert_eq!(
            locks.lowest_stripe(0, 0x1000),
            locks.lowest_stripe(2 * SLAB_BYTES, 2 * SLAB_BYTES + 0x1000)
        );
        drop(a);
        drop(b);
        assert_eq!(locks.contended_acquires(), 0);
    }

    /// A span covering several slabs is recorded in every covering stripe:
    /// a later span overlapping only its *last* slab must still block.
    #[test]
    fn multi_stripe_span_excludes_on_every_stripe() {
        let locks: Arc<RangeLocks<()>> = Arc::new(RangeLocks::with_stripes(4));
        // Covers slabs 0..=2 → stripes {0, 1, 2}.
        let held = locks.acquire(0, 3 * SLAB_BYTES, Default::default);
        let entered = Arc::new(AtomicBool::new(false));
        let t = {
            let locks = Arc::clone(&locks);
            let entered = Arc::clone(&entered);
            thread::spawn(move || {
                // Overlaps only the tail slab (stripe 2).
                let _g = locks.acquire(
                    2 * SLAB_BYTES + 0x1000,
                    2 * SLAB_BYTES + 0x2000,
                    Default::default,
                );
                entered.store(true, Seq);
            })
        };
        let park = locks.lowest_stripe(2 * SLAB_BYTES + 0x1000, 2 * SLAB_BYTES + 0x2000);
        assert_eq!(park, 2);
        while locks.waiting_on(park) == 0 {
            thread::yield_now();
        }
        assert!(!entered.load(Seq), "tail-slab overlap granted concurrently");
        assert_eq!(locks.wakes(), 0, "woke a stripe before any release");
        drop(held);
        t.join().unwrap();
        assert!(entered.load(Seq));
        assert_eq!(locks.contended_acquires(), 1);
        // The release covered three stripes and woke only the one with a
        // parked waiter; the contender's own release found nobody parked.
        assert_eq!(locks.wakes(), u64::from(cfg!(debug_assertions)));
    }

    /// Two multi-stripe spans whose slabs alias the same stripe pair in
    /// *opposite address order* must both be grantable without deadlock —
    /// the ascending-index acquisition order at work. (With 2 stripes,
    /// slabs (0,1) give stripe order 0→1 by address, slabs (3,4) give
    /// 1→0; address-order acquisition would deadlock here.)
    #[test]
    fn opposite_stripe_order_spans_do_not_deadlock() {
        let locks: Arc<RangeLocks<()>> = Arc::new(RangeLocks::with_stripes(2));
        let threads: Vec<_> = [(0u64, 2 * SLAB_BYTES), (3 * SLAB_BYTES, 5 * SLAB_BYTES)]
            .into_iter()
            .map(|(lo, hi)| {
                let locks = Arc::clone(&locks);
                thread::spawn(move || {
                    for _ in 0..200 {
                        drop(locks.acquire(lo, hi, Default::default));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap(); // a deadlock would hang the harness timeout
        }
        assert_eq!(locks.contended_acquires(), 0, "disjoint spans contended");
    }

    #[test]
    fn overlapping_span_waits_for_release() {
        let locks: Arc<RangeLocks<()>> = Arc::new(RangeLocks::new());
        let held = locks.acquire(0x1000, 0x3000, Default::default);
        let entered = Arc::new(AtomicBool::new(false));
        let t = {
            let locks = Arc::clone(&locks);
            let entered = Arc::clone(&entered);
            thread::spawn(move || {
                let _g = locks.acquire(0x2000, 0x4000, Default::default); // overlaps [1000,3000)
                entered.store(true, Seq);
            })
        };
        // Deterministic rendezvous: wait until the contender is observably
        // parked on the stripe where it found the conflict — the lowest
        // covering stripe of its span, since the held span shares the
        // contender's first slab (no sleep — a loaded box just takes
        // longer to get here).
        let park = locks.lowest_stripe(0x2000, 0x4000);
        while locks.waiting_on(park) == 0 {
            thread::yield_now();
        }
        // Parked means not granted: `entered` can only be set after the
        // wait completes, which needs our release.
        assert!(!entered.load(Seq), "overlapping span granted concurrently");
        assert_eq!(locks.wakes(), 0, "woke a stripe before any release");
        drop(held);
        // Parked, so the release saw `waiting != 0` under the stripe mutex
        // and woke it: the contender is admitted.
        t.join().unwrap();
        assert!(entered.load(Seq));
        assert_eq!(locks.contended_acquires(), 1);
        assert_eq!(locks.wakes(), u64::from(cfg!(debug_assertions)));
    }

    /// The gated wake's saving: with nobody parked, a release notifies no
    /// condvar — one-stripe spans, multi-stripe spans and the full range a
    /// fork takes alike.
    #[test]
    fn uncontended_releases_issue_no_wakes() {
        let locks: RangeLocks<()> = RangeLocks::with_stripes(4);
        for i in 0..10_000u64 {
            drop(locks.acquire(i * 0x1000, i * 0x1000 + 0x1000, Default::default));
            if i % 64 == 0 {
                drop(locks.acquire(i * 0x1000, i * 0x1000 + 2 * SLAB_BYTES, Default::default));
                drop(locks.acquire(0, u64::MAX, Default::default));
            }
        }
        assert_eq!(locks.wakes(), 0);
        assert_eq!(locks.contended_acquires(), 0);
        assert_eq!(locks.held_records(), 0);
    }

    #[test]
    fn scratch_is_pooled_across_holders() {
        let locks: RangeLocks<Vec<u8>> = RangeLocks::new();
        {
            let mut g = locks.acquire(0, 10, Default::default);
            g.scratch().reserve(1024);
        }
        assert!(
            locks.fold_pooled(0, |max, s| max.max(s.capacity())) >= 1024,
            "scratch not pooled"
        );
        {
            let mut g = locks.acquire(5, 15, Default::default);
            assert!(g.scratch().capacity() >= 1024, "pooled scratch not reused");
        }
    }

    /// The scratch returns to the *lowest covering stripe*'s pool, so a
    /// same-slab successor finds it even on a multi-stripe table.
    #[test]
    fn scratch_returns_to_the_lowest_covering_stripe() {
        let locks: RangeLocks<Vec<u8>> = RangeLocks::with_stripes(4);
        {
            // Covers slabs 1..=2 → lowest stripe 1.
            let mut g = locks.acquire(SLAB_BYTES, 3 * SLAB_BYTES, Default::default);
            g.scratch().reserve(512);
        }
        {
            // Single-slab span in slab 1 → pops stripe 1's pool.
            let mut g = locks.acquire(SLAB_BYTES, SLAB_BYTES + 0x1000, Default::default);
            assert!(g.scratch().capacity() >= 512, "pooled scratch not reused");
        }
    }

    #[test]
    fn stripe_mask_covers_wraparound_and_full_table() {
        let locks: RangeLocks<()> = RangeLocks::with_stripes(4);
        assert_eq!(locks.stripe_count(), 4);
        // One slab → one stripe.
        assert_eq!(locks.stripe_mask(0, SLAB_BYTES), 0b0001);
        // Slabs 3..=5 wrap: stripes {3, 0, 1}.
        assert_eq!(locks.stripe_mask(3 * SLAB_BYTES, 6 * SLAB_BYTES), 0b1011);
        // >= 4 slabs → all stripes.
        assert_eq!(locks.stripe_mask(0, 64 * SLAB_BYTES), 0b1111);
        // The 64-stripe full mask must not overflow the shift.
        let wide: RangeLocks<()> = RangeLocks::with_stripes(64);
        assert_eq!(wide.stripe_mask(0, u64::MAX), !0u64);
    }
}
