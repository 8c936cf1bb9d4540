//! Hybrid (interval-based) reclamation: epoch-cheap reads that degrade
//! gracefully under a stalled reader.
//!
//! The epoch collector fails open under a stalled reader — one stuck pin
//! blocks *every* pending retirement, so garbage grows with the stall
//! window (`bonsai/tests/stalled_reader.rs` asserts that shape). Per-pointer
//! protection schemes bound garbage by construction but pay a
//! protect/validate step per node on traversal. This backend sits between
//! the two, after interval-based reclamation (IBR, Wen et al., PPoPP'18):
//! a global monotone **era** counter stamps every
//! allocation (`birth`) and retirement (`retire`), and a pinned reader
//! publishes one **interval** `[lo, hi]` of eras it may be reading in —
//! `lo` fixed at pin time, `hi` advanced by each validated
//! [`protect`](HybridGuard::protect). A retired node is reclaimable once
//! no active interval overlaps its lifetime:
//!
//! ```text
//! free(node)  ⇔  ∀ active pins: ¬(node.birth ≤ pin.hi  ∧  pin.lo ≤ node.retire)
//! ```
//!
//! Readers therefore pay one era load, two reservation stores, and one
//! fence per pin — epoch-class cost, no per-node work during traversal —
//! while a stalled reader blocks only nodes whose lifetime overlaps its
//! frozen interval: the structure's live set *as of the stall*. Everything
//! allocated after the stall has `birth > hi` and reclaims on schedule, so
//! unreclaimed garbage stays flat instead of tracking writer throughput.
//!
//! # Graceful degradation, observable
//!
//! The interval rule degrades by itself; the domain additionally makes the
//! degradation *observable* and *budgeted*. Each domain carries a garbage
//! budget ([`with_budget`](HybridDomain::with_budget)). When a scan finds
//! more than the budget still blocked by active pins, every pin whose `hi`
//! has fallen [`STALL_AGE_ERAS`] eras behind is marked **stalled**
//! ([`stall_events`](HybridDomain::stall_events) counts the transitions),
//! and every retirement performed while a stalled pin exists is counted in
//! [`degraded_ops`](HybridDomain::degraded_ops), and
//! [`ReclaimStats`](crate::ReclaimStats) surfaces both. The stalled reader
//! itself stays perfectly safe: marking
//! changes no free decision, it only names the pin that the interval rule
//! is already routing garbage around. The blocked set — the stall-time
//! live set — is released in full by the first scan after the pin drops.
//!
//! # Why a validated interval protects a whole snapshot
//!
//! [`protect`](HybridGuard::protect) publishes `hi = e`, fences, runs the
//! caller's root load, and re-reads the era; it only returns when the era
//! is still `e`. Every node reachable from that root was created *before*
//! the root was published (copy-on-write builds children before parents),
//! so its `birth` is at most the era current at publication, which is at
//! most the validated `e ≤ hi`. The `lo ≤ retire` direction is a
//! two-sided `SeqCst`-fence (Dekker) argument: either the scan's fence
//! follows the reader's (and the scan observes the reservation), or the
//! reader's validated load follows the retirer's unlink (and the reader
//! can never reach the node).

use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::Arc;

use crate::deferred::RecycleBatch;
use crate::reclaim::note_unreclaimed;
use crate::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
use crate::sync::Mutex;
use crate::Recycler;

/// Retirements per era tick: the global era advances once every this many
/// retirements, so era resolution tracks mutation rate (an idle structure
/// needs no ticking — nothing is being retired).
const ERA_TICK: u64 = 16;

/// Default retire-list growth that triggers a scan.
const SCAN_THRESHOLD: usize = 64;

/// Eras a pin's `hi` must lag behind the current era before an over-budget
/// scan marks it stalled. At `ERA_TICK` retirements per era this is
/// `8 × 16 = 128` retirements of inactivity — far beyond any live
/// traversal, so only genuinely stuck readers are ever named.
pub const STALL_AGE_ERAS: u64 = 8;

/// Default garbage budget: 1 MiB of blocked bytes before a scan starts
/// marking laggard pins as stalled.
const DEFAULT_BUDGET_BYTES: u64 = 1 << 20;

/// One thread's published era reservation. Records live in an append-only
/// lock-free list owned by the domain; a record is *acquired* (its
/// `active` flag CAS'd up) for the lifetime of a [`HybridGuard`] and
/// released when the guard drops, so the list never shrinks but is
/// recycled across pins.
struct HybridRecord {
    /// Low edge of the reserved interval: the era current at pin time.
    lo: AtomicU64,
    /// High edge: the last era a [`protect`](HybridGuard::protect) call
    /// validated. Only grows while the pin is held.
    hi: AtomicU64,
    /// Whether some live guard owns this record.
    active: AtomicBool,
    /// Whether an over-budget scan has named this pin stalled (reset when
    /// the guard drops). Diagnostic only — never consulted by the free
    /// rule, which routes around a laggard interval arithmetically.
    stalled: AtomicBool,
    /// Next record in the domain's list (immutable after publication).
    next: *mut HybridRecord,
}

/// How a retired pointer is reclaimed once no interval overlaps it.
enum HybridFree {
    /// A boxed callback (the general `defer` path).
    Call(Box<dyn FnOnce() + Send>),
    /// Hand the pointer back to an arena-style recycler, one pointer at a
    /// time (see [`Recycler::recycle_one`]).
    Recycle(Arc<dyn Recycler>),
}

/// One entry in the domain's retire list: a pointer plus the era interval
/// that was its lifetime.
struct HybridRetired {
    ptr: *mut (),
    /// Retirer-supplied byte estimate.
    bytes: usize,
    /// Era the object was allocated in; `0` (before every era — the domain
    /// starts at era 1) when unknown, which degrades this entry to the
    /// epoch rule: blocked by any pin with `lo ≤ retire`.
    birth: u64,
    /// Era current when the object was retired.
    retire: u64,
    free: HybridFree,
}

impl HybridRetired {
    /// Runs the reclamation.
    ///
    /// # Safety
    ///
    /// Caller asserts no active interval overlaps `[birth, retire]` (scan
    /// contract) and the retire-time contract of the `defer_*` call holds.
    unsafe fn run(self) {
        match self.free {
            HybridFree::Call(f) => f(),
            // Safety: forwarded scan contract — the pointer is outside
            // every reservation and exclusively the recycler's now.
            HybridFree::Recycle(r) => unsafe { r.recycle_one(self.ptr) },
        }
    }
}

struct HybridInner {
    /// The global era. Starts at 1 so `birth = 0` reads as "before every
    /// era" for objects whose allocation era is unknown.
    era: AtomicU64,
    /// Retirement pulse driving the era tick (see [`ERA_TICK`]).
    era_pulse: AtomicU64,
    /// Head of the append-only record list.
    head: AtomicPtr<HybridRecord>,
    /// Number of records ever published.
    records: AtomicUsize,
    /// Retirements awaiting an unblocked scan.
    retired: Mutex<Vec<HybridRetired>>,
    /// Retirements since the last scan (the scan trigger — the retire-list
    /// *length* cannot be the trigger here, because entries blocked by a
    /// stalled pin stay queued and would force a scan on every retire).
    since_scan: AtomicUsize,
    /// Retirement count that triggers a scan.
    scan_threshold: AtomicUsize,
    /// Blocked-bytes level above which a scan marks laggard pins stalled.
    budget_bytes: AtomicU64,
    /// Number of currently active pins marked stalled.
    stalled_pins: AtomicU64,
    retired_objects: AtomicU64,
    freed_objects: AtomicU64,
    retired_bytes: AtomicU64,
    freed_bytes: AtomicU64,
    /// Bytes retired but not yet reclaimed, and its high-water mark — the
    /// gauge whose *boundedness under a stalled reader* is this backend's
    /// whole point.
    unreclaimed_bytes: AtomicU64,
    peak_unreclaimed_bytes: AtomicU64,
    /// Pin-became-stalled transitions (degradation entries).
    stall_events: AtomicU64,
    /// Retirements performed while at least one stalled pin was active.
    degraded_ops: AtomicU64,
}

// Safety: the raw pointers inside (`head`'s records, `HybridRetired::ptr`)
// are either owned by the domain for its whole lifetime (records, freed
// only in `Drop` with exclusive access) or covered by the retire contract
// (`Send` payloads reclaimable from any thread, exactly one reclaimer).
unsafe impl Send for HybridInner {}
unsafe impl Sync for HybridInner {}

impl HybridInner {
    /// Collects every active pin's interval and frees each retired entry
    /// no interval overlaps; marks laggard pins stalled when the blocked
    /// residue exceeds the budget. Returns (objects, bytes) freed.
    fn scan(&self) -> (usize, usize) {
        // ordering: SeqCst fence — the scan-side half of the reservation
        // Dekker, paired with the fences in `pin` and `protect`: in the SC
        // order of fences, either this fence comes after a reader's — then
        // the interval loads below see its reservation and overlapping
        // entries are kept — or it comes before, and the reader's
        // post-fence validated root load sees every unlink that preceded
        // the retirements this scan frees, so it can never reach them.
        fence(SeqCst);
        let mut pins: Vec<(u64, u64, *const HybridRecord)> = Vec::new();
        // ordering: Acquire — pairs with the Release publication CAS in
        // `acquire_record`: the record's fields are fully initialized
        // before it becomes reachable.
        let mut rec = self.head.load(Acquire);
        while !rec.is_null() {
            // Safety: records are published exactly once and freed only in
            // `Drop` (exclusive access), so the pointer is valid here.
            let r = unsafe { &*rec };
            // ordering: Acquire — pairs with the guard-drop Release store
            // of `false`: a record observed inactive means its guard's
            // reads happen-before the frees this scan performs.
            if r.active.load(Acquire) {
                // ordering: Relaxed (both) — ordered by the SeqCst fence
                // above against the reader's reservation fence; a stale
                // (pin-time) value only widens the kept set, and the
                // Dekker argument covers the racing-pin window.
                pins.push((r.lo.load(Relaxed), r.hi.load(Relaxed), rec));
            }
            rec = r.next;
        }
        // Partition under the lock, free outside it: a reclamation
        // callback may re-enter `defer` (which takes the same lock).
        let (ready, blocked_bytes) = {
            let mut retired = self.retired.lock().unwrap();
            let mut ready = Vec::new();
            let mut blocked_bytes = 0u64;
            let mut i = 0;
            while i < retired.len() {
                let e = &retired[i];
                // The interval rule: kept only while some active pin's
                // reservation overlaps the entry's `[birth, retire]`
                // lifetime. (`retire < min lo` is the classic epoch fast
                // path; it falls out of the same test.)
                if pins
                    .iter()
                    .any(|&(lo, hi, _)| e.birth <= hi && lo <= e.retire)
                {
                    blocked_bytes += e.bytes as u64;
                    i += 1;
                } else {
                    ready.push(retired.swap_remove(i));
                }
            }
            (ready, blocked_bytes)
        };
        // ordering: Relaxed — config knob; staleness shifts one marking.
        if blocked_bytes > self.budget_bytes.load(Relaxed) {
            // ordering: Relaxed — monotone era sample used for an age
            // heuristic only; staleness under-ages a pin by one tick.
            let now = self.era.load(Relaxed);
            for &(_, hi, rec) in &pins {
                if now.saturating_sub(hi) >= STALL_AGE_ERAS {
                    // Safety: records outlive every scan (freed only in
                    // `Drop`); `rec` came from the live list walk above.
                    let r = unsafe { &*rec };
                    // ordering: Relaxed — diagnostic flag; the free rule
                    // never consults it, and the guard-drop reset is
                    // ordered by the record's `active` Release/Acquire.
                    if r.stalled
                        .compare_exchange(false, true, Relaxed, Relaxed)
                        .is_ok()
                    {
                        // ordering: Relaxed (both) — statistics counters.
                        self.stall_events.fetch_add(1, Relaxed);
                        self.stalled_pins.fetch_add(1, Relaxed);
                    }
                }
            }
        }
        let objects = ready.len();
        let mut bytes = 0;
        for r in ready {
            bytes += r.bytes;
            // Safety: the post-fence interval collection proved no active
            // pin overlaps `r`; ownership is exclusively the reclaimer's.
            unsafe { r.run() };
        }
        // ordering: Relaxed (all) — statistics counters.
        self.freed_objects.fetch_add(objects as u64, Relaxed);
        self.freed_bytes.fetch_add(bytes as u64, Relaxed);
        self.unreclaimed_bytes.fetch_sub(bytes as u64, Relaxed);
        (objects, bytes)
    }

    /// Queues one retirement, stamping its retire era, and scans if enough
    /// retirements have accumulated since the last scan.
    fn retire(&self, ptr: *mut (), bytes: usize, birth: u64, free: HybridFree) {
        // ordering: SeqCst fence — the retire-side half of the reservation
        // Dekker: orders the caller's unlink store before the era sample
        // below, so a reader that pins at a later era (and whose `lo`
        // therefore exceeds this entry's `retire`) provably sees the
        // unlink in its validated root load and can never reach `ptr`.
        fence(SeqCst);
        // ordering: Relaxed — monotone era sample, ordered by the fence.
        let retire = self.era.load(Relaxed);
        // ordering: Relaxed — retirement pulse; the era is a resolution
        // knob, not a synchronization edge (the fences carry the proof).
        let pulse = self.era_pulse.fetch_add(1, Relaxed);
        if pulse % ERA_TICK == ERA_TICK - 1 {
            // ordering: Relaxed — monotone counter, per above.
            self.era.fetch_add(1, Relaxed);
        }
        // ordering: Relaxed (all) — statistics counters.
        self.retired_objects.fetch_add(1, Relaxed);
        self.retired_bytes.fetch_add(bytes as u64, Relaxed);
        // ordering: Relaxed — degradation gauge; a racing unpin at worst
        // counts one extra op as degraded.
        if self.stalled_pins.load(Relaxed) > 0 {
            // ordering: Relaxed — statistics counter.
            self.degraded_ops.fetch_add(1, Relaxed);
        }
        note_unreclaimed(
            &self.unreclaimed_bytes,
            &self.peak_unreclaimed_bytes,
            bytes as u64,
        );
        self.retired.lock().unwrap().push(HybridRetired {
            ptr,
            bytes,
            birth,
            retire,
            free,
        });
        // ordering: Relaxed — scan trigger; a lost increment under a race
        // shifts one scan by one retirement.
        let since = self.since_scan.fetch_add(1, Relaxed) + 1;
        // ordering: Relaxed — config knob; staleness shifts one scan.
        if since >= self.scan_threshold.load(Relaxed) {
            // ordering: Relaxed — trigger reset, per above.
            self.since_scan.store(0, Relaxed);
            self.scan();
        }
    }
}

impl Drop for HybridInner {
    fn drop(&mut self) {
        // No guard can be alive (each holds an Arc to this inner), so
        // every retirement is unblocked and safe to run.
        let retired = std::mem::take(&mut *self.retired.get_mut().unwrap());
        let objects = retired.len();
        let mut bytes = 0;
        for r in retired {
            bytes += r.bytes;
            // Safety: exclusive access — no active pin exists.
            unsafe { r.run() };
        }
        // ordering: Relaxed (all) — statistics counters, and `&mut self`
        // proves exclusive access anyway.
        self.freed_objects.fetch_add(objects as u64, Relaxed);
        self.freed_bytes.fetch_add(bytes as u64, Relaxed);
        self.unreclaimed_bytes.fetch_sub(bytes as u64, Relaxed);
        // Free the record list (append-only in life, exclusively ours now).
        // ordering: Relaxed — `&mut self`: no concurrent access exists.
        let mut rec = self.head.load(Relaxed);
        while !rec.is_null() {
            // Safety: each record was published by exactly one
            // `Box::into_raw` and is freed exactly once, here.
            let boxed = unsafe { Box::from_raw(rec) };
            rec = boxed.next;
        }
    }
}

/// A hybrid (interval-based) reclamation domain — see the [module
/// docs](self) for the protocol and the degradation story.
///
/// Cheaply clonable; clones refer to the same domain. Readers pin an era
/// interval with [`pin`](Self::pin) and validate snapshot roots with
/// [`HybridGuard::protect`]; writers retire through the `defer_*` family,
/// ideally with a birth era ([`defer_recycle_with`](Self::defer_recycle_with))
/// so the interval rule can route retirements around a stalled pin.
pub struct HybridDomain {
    inner: Arc<HybridInner>,
}

impl HybridDomain {
    /// Creates an empty domain with the default budget (1 MiB) and scan
    /// threshold.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_BUDGET_BYTES)
    }

    /// Creates an empty domain whose scans start marking laggard pins
    /// stalled once more than `budget_bytes` of garbage is blocked by
    /// active pins.
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self {
            inner: Arc::new(HybridInner {
                era: AtomicU64::new(1),
                era_pulse: AtomicU64::new(0),
                head: AtomicPtr::new(ptr::null_mut()),
                records: AtomicUsize::new(0),
                retired: Mutex::new(Vec::new()),
                since_scan: AtomicUsize::new(0),
                scan_threshold: AtomicUsize::new(SCAN_THRESHOLD),
                budget_bytes: AtomicU64::new(budget_bytes),
                stalled_pins: AtomicU64::new(0),
                retired_objects: AtomicU64::new(0),
                freed_objects: AtomicU64::new(0),
                retired_bytes: AtomicU64::new(0),
                freed_bytes: AtomicU64::new(0),
                unreclaimed_bytes: AtomicU64::new(0),
                peak_unreclaimed_bytes: AtomicU64::new(0),
                stall_events: AtomicU64::new(0),
                degraded_ops: AtomicU64::new(0),
            }),
        }
    }

    /// Acquires a reservation record: reuses a released one or publishes a
    /// new one onto the append-only list.
    fn acquire_record(&self) -> *const HybridRecord {
        // ordering: Acquire — pairs with the publication CAS's Release
        // (the record's fields are initialized before it is reachable).
        let mut rec = self.inner.head.load(Acquire);
        while !rec.is_null() {
            // Safety: records live until domain drop; the guard holds a
            // domain clone, so the pointer stays valid for its lifetime.
            let r = unsafe { &*rec };
            // ordering: Acquire success — pairs with the releasing guard's
            // Release store of `false`, so its interval/stall resets are
            // visible before we reuse the record; Relaxed failure — an
            // occupied record is just skipped.
            if r.active
                .compare_exchange(false, true, Acquire, Relaxed)
                .is_ok()
            {
                return rec;
            }
            rec = r.next;
        }
        // No free record: publish a fresh one. An activated record whose
        // interval has not been stored yet carries the previous guard's
        // (or the zero-initial) interval — at worst an over-wide
        // reservation, which only delays frees; see `pin` for why it can
        // never permit an unsafe one.
        let raw = Box::into_raw(Box::new(HybridRecord {
            lo: AtomicU64::new(0),
            hi: AtomicU64::new(0),
            active: AtomicBool::new(true),
            stalled: AtomicBool::new(false),
            next: ptr::null_mut(),
        }));
        // ordering: Relaxed — this load seeds the CAS below, which
        // re-validates it on every attempt.
        let mut head = self.inner.head.load(Relaxed);
        loop {
            // Safety: not yet shared — we still exclusively own the
            // allocation until the CAS below succeeds.
            unsafe { (*raw).next = head };
            // ordering: Release success — publishes the initialized record
            // (including `next`) to `scan`'s and `acquire_record`'s
            // Acquire head loads; Acquire failure — re-reads a newer head
            // for the retry, seeing its published fields.
            match self
                .inner
                .head
                .compare_exchange(head, raw, Release, Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        // ordering: Relaxed — statistics counter.
        self.inner.records.fetch_add(1, Relaxed);
        raw
    }

    /// Pins an era interval: reserves `[e, e]` at the current era `e`.
    /// The returned guard keeps every node whose lifetime overlaps the
    /// (growing) reservation from being reclaimed; snapshot roots must
    /// still be validated through [`HybridGuard::protect`] before use.
    ///
    /// Guards are per-thread (`!Send`); dropping one releases the record.
    pub fn pin(&self) -> HybridGuard {
        let record = self.acquire_record();
        // Safety: the record stays valid for the guard's lifetime (domain
        // clone below keeps the list alive; `active` keeps others off it).
        let r = unsafe { &*record };
        // ordering: Relaxed — monotone era sample; the SeqCst fence below
        // orders the whole reservation before the guard's first shared
        // load (the reader-side Dekker half).
        let e = self.inner.era.load(Relaxed);
        // ordering: Relaxed (both) — reservation stores, published by the
        // fence below; no data travels through the values themselves.
        r.lo.store(e, Relaxed);
        r.hi.store(e, Relaxed);
        // ordering: SeqCst fence — the reader-side half of the reservation
        // Dekker, paired with the fences in `HybridInner::scan` (which
        // observes the reservation if it fences later) and
        // `HybridInner::retire` (whose later era sample then exceeds `e`,
        // keeping overlapping entries blocked); see the module docs.
        fence(SeqCst);
        HybridGuard {
            domain: self.clone(),
            record,
            _not_send: PhantomData,
        }
    }

    /// Defers `f` until no interval blocks it. An opaque callback carries
    /// no birth era, so it is maximally conservative: blocked by every pin
    /// whose `lo` does not exceed its retire era (the epoch rule), and run
    /// at the first scan after those pins drop (accounting: one object,
    /// zero bytes).
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.inner
            .retire(ptr::null_mut(), 0, 0, HybridFree::Call(Box::new(f)));
    }

    /// Retires a heap allocation with an unknown birth era (conservative:
    /// the epoch rule applies — see [`defer`](Self::defer)). Reclaims as a
    /// `Box<T>`, running `T`'s destructor.
    ///
    /// # Safety
    ///
    /// * `ptr` came from [`Box::into_raw`] and is freed by no other path.
    /// * `ptr` has been unlinked from every shared structure before this
    ///   call: a guard pinning *after* this retirement's era sample can
    ///   never reach it through a validated [`HybridGuard::protect`].
    pub unsafe fn defer_free<T: Send + 'static>(&self, ptr: *mut T) {
        // Safety: forwarded contract.
        unsafe { self.defer_free_born(ptr, 0) }
    }

    /// Retires a heap allocation whose birth era the caller recorded at
    /// allocation time (typically [`current_era`](Self::current_era)
    /// sampled then). The tighter the interval, the sooner the entry can
    /// reclaim past a stalled pin.
    ///
    /// # Safety
    ///
    /// Same contract as [`defer_free`](Self::defer_free); additionally
    /// `birth` must not exceed the era current when `ptr` first became
    /// reachable to readers (an under-approximation is always safe).
    pub unsafe fn defer_free_born<T: Send + 'static>(&self, ptr: *mut T, birth: u64) {
        debug_assert!(!ptr.is_null());
        let addr = ptr as usize;
        self.inner.retire(
            ptr.cast(),
            std::mem::size_of::<T>(),
            birth,
            HybridFree::Call(Box::new(move || {
                // Safety: sole owner per the contract above, and the scan
                // proved no interval overlaps the entry.
                unsafe { drop(Box::from_raw(addr as *mut T)) };
            })),
        );
    }

    /// Retires a whole batch to a recycler with unknown birth eras
    /// (conservative; see [`defer`](Self::defer)), splitting it into
    /// per-pointer entries. `bytes` estimates the whole batch.
    ///
    /// # Safety
    ///
    /// The [`defer_free`](Self::defer_free) unlink/no-double-retire
    /// contract for every pointer, each valid for `recycler`.
    pub unsafe fn defer_recycle(
        &self,
        recycler: Arc<dyn Recycler>,
        batch: RecycleBatch,
        bytes: usize,
    ) {
        // Safety: forwarded contract; birth 0 is the conservative floor.
        unsafe { self.defer_recycle_with(recycler, batch, bytes, |_| 0) }
    }

    /// Retires a whole batch to a recycler, asking `birth_of` for each
    /// pointer's birth era — the pointers are still valid at this point
    /// (their grace period starts here), so the callback may read a birth
    /// stamp out of the retired object itself. This is the call that lets
    /// a structure's churn reclaim past a stalled reader.
    ///
    /// # Safety
    ///
    /// Same contract as [`defer_recycle`](Self::defer_recycle), and
    /// `birth_of(p)` must not over-report: for every `p` it must return at
    /// most the era current when `p` first became reachable to readers.
    pub unsafe fn defer_recycle_with(
        &self,
        recycler: Arc<dyn Recycler>,
        mut batch: RecycleBatch,
        bytes: usize,
        birth_of: impl Fn(*mut ()) -> u64,
    ) {
        let len = batch.len();
        if len == 0 {
            return;
        }
        let per = bytes / len;
        let mut rem = bytes - per * len;
        for ptr in batch.drain() {
            let extra = std::mem::take(&mut rem);
            self.inner.retire(
                ptr,
                per + extra,
                birth_of(ptr),
                HybridFree::Recycle(Arc::clone(&recycler)),
            );
        }
    }

    /// Runs one scan: frees every retirement no active interval overlaps.
    /// Returns the number of objects freed.
    pub fn scan(&self) -> usize {
        // ordering: Relaxed — trigger reset; an explicit scan restarts the
        // retire countdown.
        self.inner.since_scan.store(0, Relaxed);
        self.inner.scan().0
    }

    /// The hybrid analogue of `synchronize`: there is no grace period to
    /// wait out, so this simply scans — everything outside every active
    /// interval reclaims immediately; entries a live pin overlaps remain
    /// (by design: that is the blocked set the budget watches).
    pub fn synchronize(&self) {
        self.scan();
    }

    /// The current global era (what a writer records as a node's birth).
    pub fn current_era(&self) -> u64 {
        // ordering: Relaxed — monotone counter snapshot; an
        // under-approximated birth stamp is always safe.
        self.inner.era.load(Relaxed)
    }

    /// Retirements still queued (blocked or below the scan trigger).
    pub fn pending(&self) -> usize {
        self.inner.retired.lock().unwrap().len()
    }

    /// Total objects retired.
    pub fn retired(&self) -> u64 {
        // ordering: Relaxed — statistics snapshot.
        self.inner.retired_objects.load(Relaxed)
    }

    /// Total objects freed.
    pub fn freed(&self) -> u64 {
        // ordering: Relaxed — statistics snapshot.
        self.inner.freed_objects.load(Relaxed)
    }

    /// Total bytes retired (retirer estimates).
    pub fn bytes_retired(&self) -> u64 {
        // ordering: Relaxed — statistics snapshot.
        self.inner.retired_bytes.load(Relaxed)
    }

    /// Total bytes freed.
    pub fn bytes_freed(&self) -> u64 {
        // ordering: Relaxed — statistics snapshot.
        self.inner.freed_bytes.load(Relaxed)
    }

    /// High-water mark of unreclaimed bytes over the domain's lifetime.
    pub fn peak_unreclaimed_bytes(&self) -> u64 {
        // ordering: Relaxed — statistics snapshot.
        self.inner.peak_unreclaimed_bytes.load(Relaxed)
    }

    /// Pin-became-stalled transitions: how many times an over-budget scan
    /// named a laggard pin (see the [module docs](self)).
    pub fn stall_events(&self) -> u64 {
        // ordering: Relaxed — statistics snapshot.
        self.inner.stall_events.load(Relaxed)
    }

    /// Retirements performed while at least one stalled pin was active —
    /// the volume of work the domain absorbed in degraded mode.
    pub fn degraded_ops(&self) -> u64 {
        // ordering: Relaxed — statistics snapshot.
        self.inner.degraded_ops.load(Relaxed)
    }

    /// The configured blocked-bytes budget.
    pub fn budget_bytes(&self) -> u64 {
        // ordering: Relaxed — config snapshot.
        self.inner.budget_bytes.load(Relaxed)
    }

    /// Reservation records ever published (guards recycle them).
    pub fn records(&self) -> usize {
        // ordering: Relaxed — statistics snapshot.
        self.inner.records.load(Relaxed)
    }
}

impl Default for HybridDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for HybridDomain {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl PartialEq for HybridDomain {
    /// Two handles are equal when they refer to the same domain.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for HybridDomain {}

impl fmt::Debug for HybridDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridDomain")
            .field("era", &self.current_era())
            .field("records", &self.records())
            .field("pending", &self.pending())
            .field("stall_events", &self.stall_events())
            .finish_non_exhaustive()
    }
}

/// A pinned era reservation over a [`HybridDomain`].
///
/// Holding the guard keeps every node whose lifetime overlaps the
/// reserved interval alive; [`protect`](Self::protect) validates a
/// snapshot root and extends the interval's high edge to cover it.
/// Dropping the guard releases the record (and clears any stalled mark).
pub struct HybridGuard {
    domain: HybridDomain,
    /// Valid for the guard's lifetime: the domain clone above keeps the
    /// record list alive, and `active` keeps other guards off it.
    record: *const HybridRecord,
    /// Guards are single-thread: the reservation is this thread's
    /// protocol state.
    _not_send: PhantomData<*mut ()>,
}

impl HybridGuard {
    #[inline]
    fn record(&self) -> &HybridRecord {
        // Safety: see the field docs — the record outlives the guard.
        unsafe { &*self.record }
    }

    /// Validated snapshot load: publishes the current era as the
    /// interval's high edge, fences, runs `load` (the caller's `Acquire`
    /// root load), and retries until the era is unchanged across the load.
    /// On return, **every node reachable from the returned root** is
    /// covered by the reservation — copy-on-write publishes children
    /// before parents, so each has `birth ≤` the validated era (see the
    /// [module docs](self)) — and stays alive until the guard drops.
    pub fn protect<T>(&self, load: impl FnMut() -> *mut T) -> *mut T {
        let mut load = load;
        let r = self.record();
        // ordering: Relaxed — monotone era sample; the fence in the loop
        // body orders each published reservation before the load.
        let mut e = self.domain.inner.era.load(Relaxed);
        loop {
            // ordering: Relaxed — reservation store, published by the
            // fence below (`hi` only grows: `e` is at least the pin era).
            r.hi.store(e, Relaxed);
            // ordering: SeqCst fence — the reader-side half of the
            // reservation Dekker, paired with the fence in
            // `HybridInner::scan`; see `HybridDomain::pin`.
            fence(SeqCst);
            let p = load();
            // ordering: Relaxed — validation re-read of the monotone era;
            // equality proves the root was loaded inside the reserved era.
            let e2 = self.domain.inner.era.load(Relaxed);
            if e2 == e {
                return p;
            }
            e = e2;
        }
    }

    /// The reserved interval `(lo, hi)` (diagnostic).
    pub fn interval(&self) -> (u64, u64) {
        let r = self.record();
        // ordering: Relaxed (both) — reading our own thread's record.
        (r.lo.load(Relaxed), r.hi.load(Relaxed))
    }

    /// Whether an over-budget scan has marked this pin stalled.
    pub fn is_stalled(&self) -> bool {
        // ordering: Relaxed — diagnostic flag snapshot.
        self.record().stalled.load(Relaxed)
    }

    /// The domain this guard reserves against.
    pub fn domain(&self) -> &HybridDomain {
        &self.domain
    }
}

impl Drop for HybridGuard {
    fn drop(&mut self) {
        // ordering: Relaxed — diagnostic flag; the Release store of
        // `active` below publishes the reset to the record's next owner.
        if self.record().stalled.swap(false, Relaxed) {
            // ordering: Relaxed — statistics counter.
            self.domain.inner.stalled_pins.fetch_sub(1, Relaxed);
        }
        // ordering: Release — pairs with the scan's Acquire `active` load
        // and `acquire_record`'s Acquire CAS: every read this guard made
        // under its reservation happens-before any free that ignoring
        // this record permits.
        self.record().active.store(false, Release);
    }
}

impl fmt::Debug for HybridGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridGuard")
            .field("interval", &self.interval())
            .field("stalled", &self.is_stalled())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    #[test]
    fn unpinned_retirements_free_at_scan() {
        let d = HybridDomain::new();
        let fired = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let f = Arc::clone(&fired);
            d.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        assert_eq!(fired.load(SeqCst), 0);
        assert_eq!(d.scan(), 3);
        assert_eq!(fired.load(SeqCst), 3);
        assert_eq!(d.retired(), 3);
        assert_eq!(d.freed(), 3);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn pinned_interval_blocks_overlapping_retirement_until_unpin() {
        let d = HybridDomain::new();
        let g = d.pin();
        let b = Box::into_raw(Box::new(7u64));
        // Born inside the pinned interval, retired inside it: blocked.
        // Safety: never dereferenced after retire; retired exactly once.
        unsafe { d.defer_free_born(b, d.current_era()) };
        assert_eq!(d.scan(), 0);
        assert_eq!(d.pending(), 1);
        assert_eq!(d.bytes_retired(), 8);
        assert_eq!(d.bytes_freed(), 0);
        drop(g);
        assert_eq!(d.scan(), 1);
        assert_eq!(d.pending(), 0);
        assert_eq!(d.bytes_freed(), 8);
        assert_eq!(d.peak_unreclaimed_bytes(), 8);
    }

    #[test]
    fn stalled_pin_does_not_block_younger_garbage() {
        // Tiny budget so the degradation machinery engages immediately.
        let d = HybridDomain::with_budget(64);
        let stalled = d.pin(); // era 1, never advances its interval
        let (lo, hi) = stalled.interval();
        assert_eq!((lo, hi), (1, 1));
        // Churn: retire allocations born at the *current* era, like a
        // writer stamping nodes at creation. Once the era has advanced
        // past the stalled pin's interval, each new retirement has
        // `birth > hi` and reclaims despite the held pin.
        let churn: u64 = if cfg!(miri) { 600 } else { 2000 };
        for _ in 0..churn {
            let birth = d.current_era();
            // Safety: each allocation retired exactly once, never reused.
            unsafe { d.defer_free_born(Box::into_raw(Box::new([0u8; 128])), birth) };
        }
        d.synchronize();
        assert!(
            d.freed() > churn - 300,
            "stalled pin blocked young garbage: freed {} of {churn}",
            d.freed()
        );
        // The blocked residue is the stall-time overlap, not the churn.
        assert!(
            d.pending() < 300,
            "blocked set tracked churn: {} pending",
            d.pending()
        );
        // Degradation was observed and attributed.
        assert!(stalled.is_stalled());
        assert_eq!(d.stall_events(), 1);
        assert!(d.degraded_ops() > 0);
        // Unpinning releases the residue in full.
        drop(stalled);
        d.synchronize();
        assert_eq!(d.retired(), d.freed());
        assert_eq!(d.bytes_retired(), d.bytes_freed());
    }

    #[test]
    fn peak_unreclaimed_stays_bounded_under_stalled_pin() {
        // Budget below the stall-time overlap (~1 KB) so stalling engages.
        let d = HybridDomain::with_budget(512);
        let _stalled = d.pin();
        // Warm-up churn that the stalled pin may legitimately block: what
        // overlaps era 1. Then sustained churn whose births keep pace.
        let churn = if cfg!(miri) { 1000 } else { 10_000 };
        for _ in 0..churn {
            let birth = d.current_era();
            // Safety: each allocation retired exactly once, never reused.
            unsafe { d.defer_free_born(Box::into_raw(Box::new([0u8; 64])), birth) };
        }
        // Peak is bounded by: garbage blocked at stall detection (≈ the
        // pre-advance overlap, itself ≤ one era tick of retirements) plus
        // one scan threshold of slack — *not* by total churn (~640 KB).
        let bound = (SCAN_THRESHOLD as u64 + 2 * ERA_TICK) * 64 + 512;
        assert!(
            d.peak_unreclaimed_bytes() <= bound,
            "peak {} exceeded bound {}",
            d.peak_unreclaimed_bytes(),
            bound
        );
        assert!(d.stall_events() >= 1);
    }

    #[test]
    fn protect_returns_validated_root_and_extends_interval() {
        let d = HybridDomain::new();
        let root = AtomicPtr::new(Box::into_raw(Box::new(41u64)));
        // Advance the era a few ticks so the pin and the protect differ.
        for _ in 0..3 * ERA_TICK {
            d.defer(|| {});
        }
        let g = d.pin();
        let before = g.interval();
        for _ in 0..2 * ERA_TICK {
            d.defer(|| {});
        }
        let p = g.protect(|| root.load(Acquire));
        // Safety: nothing retires the root in this test.
        assert_eq!(unsafe { *p }, 41);
        let after = g.interval();
        assert_eq!(before.0, after.0, "lo must stay at the pin era");
        assert!(after.1 > before.1, "hi must cover the validated load");
        drop(g);
        d.synchronize();
        // Safety: sole owner; no guard is live.
        unsafe { drop(Box::from_raw(root.load(Acquire))) };
    }

    #[test]
    fn guard_drop_releases_and_recycles_record() {
        let d = HybridDomain::new();
        {
            let _g = d.pin();
        }
        assert_eq!(d.records(), 1);
        let g2 = d.pin();
        assert_eq!(d.records(), 1, "released record was not reused");
        let g3 = d.pin();
        assert_eq!(d.records(), 2);
        drop(g2);
        drop(g3);
    }

    #[test]
    fn recycle_with_births_routes_through_recycler() {
        struct Sink {
            seen: AtomicUsize,
        }
        impl Recycler for Sink {
            unsafe fn recycle(&self, mut batch: RecycleBatch) {
                self.seen.fetch_add(batch.drain().count(), SeqCst);
            }
        }
        let sink = Arc::new(Sink {
            seen: AtomicUsize::new(0),
        });
        let d = HybridDomain::new();
        let g = d.pin();
        let mut batch = RecycleBatch::new();
        let marks = [0u8; 3];
        for m in &marks {
            batch.push(std::ptr::from_ref(m).cast_mut().cast());
        }
        // Births beyond the pinned interval: the held pin cannot block.
        let future = d.current_era() + 1;
        // Safety: the sink never dereferences; markers retired once each.
        unsafe { d.defer_recycle_with(sink.clone() as Arc<dyn Recycler>, batch, 30, |_| future) };
        assert_eq!(d.retired(), 3);
        assert_eq!(d.bytes_retired(), 30);
        assert_eq!(d.scan(), 3);
        assert_eq!(sink.seen.load(SeqCst), 3);
        assert_eq!(d.bytes_freed(), 30);
        drop(g);
    }

    #[test]
    fn domain_drop_fires_pending_garbage() {
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        let d = HybridDomain::new();
        d.defer(|| {
            FIRED.fetch_add(1, SeqCst);
        });
        drop(d);
        assert_eq!(FIRED.load(SeqCst), 1);
    }

    #[test]
    fn concurrent_readers_and_churn_converge() {
        let d = HybridDomain::with_budget(1 << 16);
        let root = Arc::new(AtomicPtr::new(Box::into_raw(Box::new(0u64))));
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let d = d.clone();
                let root = Arc::clone(&root);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while stop.load(SeqCst) == 0 {
                        let g = d.pin();
                        let p = g.protect(|| root.load(Acquire));
                        // Safety: protected by the validated reservation.
                        sum = sum.wrapping_add(unsafe { *p });
                    }
                    sum
                })
            })
            .collect();
        let iters = if cfg!(miri) { 200 } else { 20_000 };
        for i in 1..=iters {
            let birth = d.current_era();
            let new = Box::into_raw(Box::new(i as u64));
            let old = root.swap(new, std::sync::atomic::Ordering::AcqRel);
            // Safety: `old` was just unlinked; retired exactly once.
            unsafe { d.defer_free_born(old, birth) };
        }
        stop.store(1, SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        d.synchronize();
        assert_eq!(d.retired(), d.freed());
        // The published root remains owned by `root`.
        // Safety: all readers joined; sole owner now.
        unsafe { drop(Box::from_raw(root.load(Acquire))) };
    }
}
