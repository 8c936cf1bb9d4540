//! Instrumented drop-in replacements for the `std::sync` primitives the
//! code under test uses.
//!
//! Every operation passes through a scheduler switch point *before* it
//! executes, so the explorer can interleave threads at exactly the places
//! where real hardware could. Because only one model thread runs at a time,
//! the underlying operation then executes on the real `std` primitive
//! without contention.
//!
//! Three memory models are supported (selected by
//! [`crate::Explorer::mem_model`] or `LOOMETTE_MODEL=sc|tso|acqrel`):
//!
//! * **SeqCst-exact** (default): every atomic executes as `SeqCst`, so the
//!   model is sequentially consistent by construction — exact for code
//!   whose atomics are all `SeqCst`, an under-approximation otherwise.
//! * **Store-buffer (TSO)**: non-`SeqCst` stores sit in a per-thread FIFO
//!   until a non-deterministic flush point; loads forward from the own
//!   buffer; RMWs, `SeqCst` stores and `fence(SeqCst)` drain it. This is
//!   the x86-TSO reordering (stores passing later loads) — see the
//!   `sched` module docs for the model and its limits vs. C11.
//! * **Acquire/release (AcqRel)**: per-location modification orders and a
//!   happens-before-constrained reads-from relation, with vector-clock
//!   hb tracking, release sequences, C11 fence semantics, and data-race
//!   detection on [`crate::cell::UnsafeCell`] — see the `sched` module
//!   docs for the full model and its documented gaps.
//!
//! Every atomic is backed by a shared heap `u64` cell
//! (`sched::BackingCell`) so that a buffered store keeps its target
//! alive and both modes execute the same code paths.

use crate::sched;

/// Instrumented atomics. Same API shape as `std::sync::atomic`, minus
/// `const fn new` (and the unsynchronized `get_mut`/`into_inner` accessors:
/// use a `load` — exclusive access makes any ordering race-free).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use std::sync::Arc;

    use crate::sched::{self, BackingCell};

    // The fetch ops below wrap at the backing cell's 64-bit width, which
    // must agree with the fronted integer type's width.
    const _: () = assert!(usize::BITS == 64, "loomette assumes a 64-bit target");

    /// An instrumented memory fence: a scheduler switch point followed by
    /// the real fence. In TSO mode a `SeqCst` fence also drains the calling
    /// thread's store buffer; weaker fences do not (on TSO, only the
    /// store→load reordering exists and only a full barrier kills it). In
    /// AcqRel mode the fence performs the C11 fence clock exchanges — a
    /// `SeqCst` fence joins the global SC clock both ways (the Dekker
    /// edge), acquire/release fences upgrade pending relaxed accesses.
    pub fn fence(order: Ordering) {
        sched::switch_point();
        if order == Ordering::SeqCst {
            sched::tso_drain();
        }
        sched::acqrel_fence(order);
        std::sync::atomic::fence(order);
    }

    /// A value an instrumented atomic can hold, encoded injectively into
    /// the shared `u64` backing cell.
    trait Word: Copy {
        fn enc(self) -> u64;
        fn dec(raw: u64) -> Self;
    }

    impl Word for u64 {
        fn enc(self) -> u64 {
            self
        }
        fn dec(raw: u64) -> u64 {
            raw
        }
    }

    impl Word for usize {
        fn enc(self) -> u64 {
            self as u64
        }
        fn dec(raw: u64) -> usize {
            raw as usize
        }
    }

    impl Word for bool {
        fn enc(self) -> u64 {
            self as u64
        }
        fn dec(raw: u64) -> bool {
            raw != 0
        }
    }

    impl<T> Word for *mut T {
        fn enc(self) -> u64 {
            self as usize as u64
        }
        fn dec(raw: u64) -> *mut T {
            raw as usize as *mut T
        }
    }

    fn new_cell(raw: u64) -> BackingCell {
        Arc::new(std::sync::atomic::AtomicU64::new(raw))
    }

    /// Load: the op's ordering routes into the active memory model. AcqRel
    /// mode explores the reads-from candidate set; TSO mode forwards the
    /// calling thread's newest pending store; SeqCst-exact mode (and
    /// outside a model) reads committed memory.
    fn op_load<W: Word>(c: &BackingCell, order: Ordering) -> W {
        sched::switch_point();
        if let Some(raw) = sched::acqrel_load(c, order) {
            return W::dec(raw);
        }
        if let Some(raw) = sched::tso_buffered_load(c) {
            return W::dec(raw);
        }
        W::dec(c.load(Ordering::SeqCst))
    }

    /// Store: appended to the location's modification order in AcqRel
    /// mode, buffered in TSO mode (committing immediately — with the rest
    /// of the buffer — when the op is `SeqCst`), committed directly in
    /// SeqCst-exact mode or outside a model.
    fn op_store<W: Word>(c: &BackingCell, v: W, order: Ordering) {
        sched::switch_point();
        if sched::acqrel_store(c, v.enc(), order) {
            return;
        }
        if sched::tso_buffer_store(c, v.enc(), order == Ordering::SeqCst) {
            return;
        }
        c.store(v.enc(), Ordering::SeqCst)
    }

    /// RMWs read the newest store in modification order (C11 atomicity —
    /// AcqRel mode, where they extend release sequences) and are full
    /// barriers on TSO (lock-prefixed): drain, then execute on committed
    /// memory.
    fn op_swap<W: Word>(c: &BackingCell, v: W, order: Ordering) -> W {
        sched::switch_point();
        if let Some(old) = sched::acqrel_rmw(c, order, |_| Some(v.enc())) {
            return W::dec(old);
        }
        sched::tso_drain();
        W::dec(c.swap(v.enc(), Ordering::SeqCst))
    }

    fn op_compare_exchange<W: Word>(
        c: &BackingCell,
        current: W,
        new: W,
        success: Ordering,
        failure: Ordering,
    ) -> Result<W, W> {
        sched::switch_point();
        let (cur, new_raw) = (current.enc(), new.enc());
        // A failed compare-exchange is just a load: route the failure
        // ordering; a successful one is an RMW with the success ordering.
        // Peek the newest value first to know which path this is — sound
        // because only one model thread runs between switch points.
        if let Some(old) = sched::acqrel_rmw(
            c,
            if c.load(Ordering::SeqCst) == cur {
                success
            } else {
                failure
            },
            |old| (old == cur).then_some(new_raw),
        ) {
            return if old == cur {
                Ok(W::dec(old))
            } else {
                Err(W::dec(old))
            };
        }
        sched::tso_drain();
        c.compare_exchange(cur, new_raw, Ordering::SeqCst, Ordering::SeqCst)
            .map(W::dec)
            .map_err(W::dec)
    }

    fn op_fetch_add<W: Word>(c: &BackingCell, v: W, order: Ordering) -> W {
        sched::switch_point();
        if let Some(old) = sched::acqrel_rmw(c, order, |old| Some(old.wrapping_add(v.enc()))) {
            return W::dec(old);
        }
        sched::tso_drain();
        W::dec(c.fetch_add(v.enc(), Ordering::SeqCst))
    }

    fn op_fetch_sub<W: Word>(c: &BackingCell, v: W, order: Ordering) -> W {
        sched::switch_point();
        if let Some(old) = sched::acqrel_rmw(c, order, |old| Some(old.wrapping_sub(v.enc()))) {
            return W::dec(old);
        }
        sched::tso_drain();
        W::dec(c.fetch_sub(v.enc(), Ordering::SeqCst))
    }

    macro_rules! instrumented_atomic {
        ($name:ident, $prim:ty) => {
            /// An instrumented atomic: every access is a scheduler switch
            /// point, backed by a shared cell the store-buffer model can
            /// keep alive past the atomic's own lifetime (see module docs).
            #[derive(Debug)]
            pub struct $name {
                cell: BackingCell,
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(<$prim>::default())
                }
            }

            impl $name {
                /// Creates a new atomic (not `const`, unlike `std`).
                pub fn new(v: $prim) -> Self {
                    Self {
                        cell: new_cell(Word::enc(v)),
                    }
                }

                /// Instrumented load; the ordering routes into the active
                /// memory model (reads-from exploration under AcqRel,
                /// store-buffer forwarding under TSO).
                pub fn load(&self, order: Ordering) -> $prim {
                    op_load(&self.cell, order)
                }

                /// Instrumented store; modification-order append (AcqRel)
                /// or buffered unless `SeqCst` (TSO).
                pub fn store(&self, v: $prim, order: Ordering) {
                    op_store(&self.cell, v, order)
                }

                /// Instrumented swap (reads the newest store under AcqRel;
                /// a full barrier under SC/TSO).
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    op_swap(&self.cell, v, order)
                }

                /// Instrumented compare-exchange (under AcqRel a failed
                /// exchange is a load with the failure ordering; under
                /// SC/TSO a full barrier like x86 `lock cmpxchg`, even on
                /// failure).
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    op_compare_exchange(&self.cell, current, new, success, failure)
                }
            }
        };
    }

    macro_rules! instrumented_fetch_arith {
        ($name:ident, $prim:ty) => {
            impl $name {
                /// Instrumented fetch-add (an RMW: reads the newest store
                /// under AcqRel; a full barrier under SC/TSO).
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    op_fetch_add(&self.cell, v, order)
                }

                /// Instrumented fetch-sub (an RMW, as `fetch_add`).
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    op_fetch_sub(&self.cell, v, order)
                }
            }
        };
    }

    instrumented_atomic!(AtomicU64, u64);
    instrumented_atomic!(AtomicUsize, usize);
    instrumented_atomic!(AtomicBool, bool);
    instrumented_fetch_arith!(AtomicU64, u64);
    instrumented_fetch_arith!(AtomicUsize, usize);

    /// An instrumented atomic pointer: every access is a scheduler switch
    /// point; the pointer is encoded through the shared `u64` cell. Written
    /// out by hand because the pointee type parameter does not fit the
    /// macro's monomorphic shape.
    #[derive(Debug)]
    pub struct AtomicPtr<T> {
        cell: BackingCell,
        /// Mirrors `std::sync::atomic::AtomicPtr<T>`'s auto traits
        /// (`Send` and `Sync` for any `T`), which the cell alone would
        /// not pin down for the pointee parameter.
        _marker: std::marker::PhantomData<std::sync::atomic::AtomicPtr<T>>,
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic pointer (not `const`, unlike `std`).
        pub fn new(p: *mut T) -> Self {
            Self {
                cell: new_cell(Word::enc(p)),
                _marker: std::marker::PhantomData,
            }
        }

        /// Instrumented load; the ordering routes into the active memory
        /// model.
        pub fn load(&self, order: Ordering) -> *mut T {
            op_load(&self.cell, order)
        }

        /// Instrumented store; modification-order append (AcqRel) or
        /// buffered unless `SeqCst` (TSO).
        pub fn store(&self, p: *mut T, order: Ordering) {
            op_store(&self.cell, p, order)
        }

        /// Instrumented swap (an RMW: reads the newest store under
        /// AcqRel; a full barrier under SC/TSO).
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            op_swap(&self.cell, p, order)
        }

        /// Instrumented compare-exchange (see the integer atomics).
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            op_compare_exchange(&self.cell, current, new, success, failure)
        }
    }
}

/// An instrumented mutex.
///
/// Acquisition is mediated by the scheduler: a thread that finds the lock
/// held blocks at the *scheduler* level (so the explorer can run the
/// holder), and the underlying `std` mutex is then always taken without
/// contention. Outside a model it degrades to a plain `std::sync::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    /// Scheduler-side lock-word id, assigned on first acquisition within a
    /// model run and keyed by that run's sequence number: a mutex object
    /// that outlives one `model` run re-registers with the next run's
    /// scheduler instead of indexing a stale id into its fresh lock table.
    /// (Assignment order is deterministic per run, so ids are too.)
    id: std::sync::Mutex<Option<(u64, usize)>>,
}

impl<T> Mutex<T> {
    /// Creates a new instrumented mutex.
    pub fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
            id: std::sync::Mutex::new(None),
        }
    }

    /// This mutex's lock-word id in `sched`'s run, (re)assigned if it was
    /// created outside the run (or in an earlier one).
    fn run_id(&self, sched: &crate::sched::Scheduler) -> usize {
        let run = sched::run_seq(sched);
        let mut slot = self
            .id
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match *slot {
            Some((r, id)) if r == run => id,
            _ => {
                let id = sched::mutex_id(sched);
                *slot = Some((run, id));
                id
            }
        }
    }

    /// Acquires the mutex; see the type docs for semantics.
    pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
        let in_model = sched::with_scheduler(|sched, me| {
            let id = self.run_id(sched);
            sched::lock(sched, me, id);
        })
        .is_some();
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Ok(MutexGuard {
            guard: Some(guard),
            mutex: self,
            in_model,
        })
    }

    /// Acquires the mutex if it is free, without blocking. A scheduling
    /// point like [`lock`](Self::lock): the explorer may run another
    /// thread first. A successful attempt is an acquire exactly like
    /// `lock`'s; a failed one returns `WouldBlock` at once and, like
    /// `std`'s, synchronizes with nothing. Never reports poisoning.
    pub fn try_lock(&self) -> std::sync::TryLockResult<MutexGuard<'_, T>> {
        let in_model = match sched::with_scheduler(|sched, me| {
            let id = self.run_id(sched);
            sched::try_lock(sched, me, id)
        }) {
            Some(false) => return Err(std::sync::TryLockError::WouldBlock),
            Some(true) => true,
            None => false,
        };
        // In a model the lock word is now ours, so the real lock is free;
        // outside one (or after a model failure) this is the real attempt.
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                return Err(std::sync::TryLockError::WouldBlock)
            }
        };
        Ok(MutexGuard {
            guard: Some(guard),
            mutex: self,
            in_model,
        })
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> std::sync::LockResult<&mut T> {
        Ok(self
            .inner
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner()))
    }
}

/// RAII guard for [`Mutex`]; releases the scheduler-side lock word on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
    in_model: bool,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().unwrap()
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().unwrap()
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Real unlock first, then the scheduler lock word: both happen
        // while this thread is the only one running, so the order is
        // invisible to the model — but the real lock must be free before
        // another thread's (uncontended) `inner.lock()`.
        self.guard.take();
        if self.in_model {
            sched::with_scheduler(|sched, me| {
                let slot = self
                    .mutex
                    .id
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                if let Some((run, id)) = *slot {
                    if run == sched::run_seq(sched) {
                        drop(slot);
                        sched::unlock(sched, me, id);
                    }
                }
            });
        }
    }
}

/// An instrumented condition variable.
///
/// Inside a model, waiting is scheduler-level: the guard's mutex is
/// released and the thread blocks until a [`notify_all`](Self::notify_all)
/// — with no switch point between unlock and wait, so (only one model
/// thread ever runs) no wakeup can be lost. The model has no spurious
/// wakeups: waking *less* often than reality is sound for bug-finding, and
/// a lost-wakeup bug in the code under test becomes a detected deadlock.
/// Outside a model it degrades to a plain `std::sync::Condvar`.
///
/// `notify_one` is deliberately not provided: picking *which* waiter wakes
/// is a scheduling decision this checker does not explore, so modeling it
/// faithfully would require condvar-waiter choice points. Code under test
/// uses `notify_all` and re-checks its predicate, as condvar code must.
#[derive(Debug, Default)]
pub struct Condvar {
    real: std::sync::Condvar,
    /// Scheduler-side condvar id, run-keyed exactly like [`Mutex::id`].
    id: std::sync::Mutex<Option<(u64, usize)>>,
}

impl Condvar {
    /// Creates a new instrumented condvar.
    pub fn new() -> Self {
        Self::default()
    }

    /// This condvar's id in `sched`'s run, (re)assigned if it was created
    /// outside the run (or in an earlier one).
    fn run_id(&self, sched: &crate::sched::Scheduler) -> usize {
        let run = sched::run_seq(sched);
        let mut slot = self
            .id
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match *slot {
            Some((r, id)) if r == run => id,
            _ => {
                let id = sched::condvar_id(sched);
                *slot = Some((run, id));
                id
            }
        }
    }

    /// Releases `guard`'s mutex and blocks until notified, then re-acquires
    /// the mutex. Callers must re-check their predicate in a loop, exactly
    /// as with `std`.
    pub fn wait<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
    ) -> std::sync::LockResult<MutexGuard<'a, T>> {
        let mutex = guard.mutex;
        if guard.in_model {
            // Dropping the guard releases the real lock and the scheduler
            // lock word (waking scheduler-blocked contenders) without
            // passing a switch point; the wait below then blocks before any
            // other thread has run, so the unlock+wait pair is atomic in
            // the model and no notification can slip between them.
            drop(guard);
            sched::with_scheduler(|sched, me| {
                let id = self.run_id(sched);
                sched::condvar_wait(sched, me, id);
            });
            mutex.lock()
        } else {
            // Outside a model: a real wait on the real condvar, on the
            // real guard extracted from the wrapper (whose drop is then a
            // no-op: no inner guard, not in a model).
            let inner = guard
                .guard
                .take()
                .expect("loomette MutexGuard without inner guard");
            let inner = self
                .real
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            Ok(MutexGuard {
                guard: Some(inner),
                mutex,
                in_model: false,
            })
        }
    }

    /// Wakes every waiter. Inside a model this is an instrumented switch
    /// point followed by a scheduler-level wake; outside, a real
    /// `notify_all`.
    pub fn notify_all(&self) {
        sched::switch_point();
        let in_model = sched::with_scheduler(|sched, me| {
            let id = self.run_id(sched);
            sched::condvar_notify_all(sched, me, id);
        })
        .is_some();
        if !in_model {
            self.real.notify_all();
        }
    }
}
