//! Synchronization-primitive facade: `std` in normal builds, the
//! [`loomette`] model checker's instrumented types under `--cfg loom`.
//!
//! Everything concurrency-relevant in this crate goes through this module,
//! so the model-checking test tier (`tests/loom.rs`, built with
//! `RUSTFLAGS="--cfg loom"`) explores real collector code, not a
//! transliteration. The shimmed surface is exactly what the epoch protocol
//! touches: atomics, fences, and mutexes. `Arc`, `thread_local!`, and
//! `Cell` stay `std` — they are either thread-local or internally
//! synchronized in ways the scheduler does not need to interleave.
//!
//! In normal builds the atomic types are thin wrappers over `std`'s that
//! additionally maintain a **debug-only census of read-modify-writes**: a
//! process-wide count of the `SeqCst` ones (see
//! [`atomic::seqcst_rmw_count`]) and a per-thread count of RMWs of *any*
//! ordering (see [`atomic::thread_rmw_count`]). The epoch protocol's
//! invariant after the ordering audit is that no atomic *operation* uses
//! `SeqCst` — every remaining sequentially consistent point is an explicit
//! [`atomic::fence`] — and the read-side pin/unpin path performs no RMW at
//! all: every word it writes is written by its owning thread only. The
//! pin-flatness regression tests assert both via this census. Release
//! builds compile the census away; the wrappers are `#[repr(transparent)]`
//! and fully inlined.
//!
//! [`loomette`]: https://docs.rs/loom (API-compatible subset, vendored
//! in-tree as `crates/loomette` because this build environment is offline)

#[cfg(not(loom))]
pub(crate) use std::sync::{Mutex, MutexGuard};

#[cfg(not(loom))]
pub(crate) mod atomic {
    use std::sync::atomic::Ordering;

    pub(crate) use std::sync::atomic::fence;

    /// Debug-only census of atomic read-modify-writes issued with
    /// `Ordering::SeqCst` through this facade, process-wide. The ordering
    /// audit's contract is that there are none anywhere in the crate (all
    /// remaining SeqCst points are explicit fences); the hot-path
    /// regression test pins in a loop and asserts the census stays flat.
    #[cfg(debug_assertions)]
    static SEQCST_RMWS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    /// Current value of the SeqCst-RMW census. Debug builds only — release
    /// builds omit the bookkeeping entirely.
    #[cfg(debug_assertions)]
    #[cfg_attr(not(test), allow(dead_code))] // consumed by the pin-flatness test
    pub(crate) fn seqcst_rmw_count() -> u64 {
        // ordering: Relaxed — diagnostic counter.
        SEQCST_RMWS.load(Ordering::Relaxed)
    }

    #[cfg(debug_assertions)]
    thread_local! {
        /// Debug-only census of atomic read-modify-writes the *current
        /// thread* issued through this facade, whatever their ordering.
        /// Per thread, so a test can assert "this loop did none" while
        /// other tests' writers run beside it.
        static THREAD_RMWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The calling thread's RMW census (any ordering). Debug builds only.
    #[cfg(debug_assertions)]
    pub(crate) fn thread_rmw_count() -> u64 {
        THREAD_RMWS.try_with(std::cell::Cell::get).unwrap_or(0)
    }

    /// Tallies one RMW (debug builds): always in the calling thread's
    /// census, and in the process-wide one if it was issued with `SeqCst`.
    #[inline]
    fn note_rmw(order: Ordering) {
        #[cfg(debug_assertions)]
        {
            let _ = THREAD_RMWS.try_with(|n| n.set(n.get() + 1));
            if order == Ordering::SeqCst {
                // ordering: Relaxed — diagnostic counter.
                SEQCST_RMWS.fetch_add(1, Ordering::Relaxed);
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = order;
    }

    /// A `std` atomic wrapper whose RMW entry points feed the census.
    /// Plain loads and stores delegate directly — the census tracks
    /// read-modify-writes, the operations whose `SeqCst` form buys a full
    /// barrier per call.
    macro_rules! counting_atomic {
        ($name:ident, $prim:ty, $std:path) => {
            #[repr(transparent)]
            pub(crate) struct $name($std);

            #[allow(dead_code)] // facade: not every type uses every method
            impl $name {
                #[inline]
                pub(crate) const fn new(v: $prim) -> Self {
                    Self(<$std>::new(v))
                }

                #[inline]
                pub(crate) fn load(&self, order: Ordering) -> $prim {
                    self.0.load(order)
                }

                #[inline]
                pub(crate) fn store(&self, val: $prim, order: Ordering) {
                    self.0.store(val, order);
                }

                #[inline]
                pub(crate) fn swap(&self, val: $prim, order: Ordering) -> $prim {
                    note_rmw(order);
                    self.0.swap(val, order)
                }

                #[inline]
                pub(crate) fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    note_rmw(success);
                    self.0.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    /// Adds the numeric fetch ops to a [`counting_atomic!`] type.
    macro_rules! counting_fetch_arith {
        ($name:ident, $prim:ty) => {
            #[allow(dead_code)] // facade: not every type uses every method
            impl $name {
                #[inline]
                pub(crate) fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    note_rmw(order);
                    self.0.fetch_add(val, order)
                }

                #[inline]
                pub(crate) fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                    note_rmw(order);
                    self.0.fetch_sub(val, order)
                }
            }
        };
    }

    counting_atomic!(AtomicU64, u64, std::sync::atomic::AtomicU64);
    counting_atomic!(AtomicUsize, usize, std::sync::atomic::AtomicUsize);
    counting_atomic!(AtomicBool, bool, std::sync::atomic::AtomicBool);
    counting_fetch_arith!(AtomicU64, u64);
    counting_fetch_arith!(AtomicUsize, usize);

    /// Generic pointer atomic feeding the same census (the
    /// `counting_atomic!` macro cannot mint a generic type, so this one is
    /// written out by hand).
    #[repr(transparent)]
    pub(crate) struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>);

    #[allow(dead_code)] // facade: not every user touches every method
    impl<T> AtomicPtr<T> {
        #[inline]
        pub(crate) const fn new(v: *mut T) -> Self {
            Self(std::sync::atomic::AtomicPtr::new(v))
        }

        #[inline]
        pub(crate) fn load(&self, order: Ordering) -> *mut T {
            self.0.load(order)
        }

        #[inline]
        pub(crate) fn store(&self, val: *mut T, order: Ordering) {
            self.0.store(val, order);
        }

        #[inline]
        pub(crate) fn swap(&self, val: *mut T, order: Ordering) -> *mut T {
            note_rmw(order);
            self.0.swap(val, order)
        }

        #[inline]
        pub(crate) fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            note_rmw(success);
            self.0.compare_exchange(current, new, success, failure)
        }
    }
}

#[cfg(loom)]
pub(crate) use loomette::sync::{Mutex, MutexGuard};

#[cfg(loom)]
pub(crate) mod atomic {
    pub(crate) use loomette::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
}
