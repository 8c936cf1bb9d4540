//! # loomette — a minimal in-tree model checker for atomic protocols
//!
//! A self-contained, dependency-free stand-in for the parts of
//! [`loom`](https://docs.rs/loom) that rcukit's protocol tests need. The
//! build environment is offline, so the real crate cannot be vendored;
//! loomette implements the same *testing shape* — run a closure under every
//! meaningfully distinct thread interleaving — with an honest, documented
//! scope:
//!
//! * **Three memory models** ([`MemModel`], `LOOMETTE_MODEL=sc|tso|acqrel`).
//!   Under `sc` (the default) every instrumented atomic executes as
//!   `SeqCst`, so the model is *sequentially consistent by construction* —
//!   exact for code whose atomics are all `SeqCst`, an under-approximation
//!   for weaker orderings. Under `tso` the checker explores the
//!   **store-buffer (x86-TSO)** model: non-`SeqCst` stores sit in a
//!   per-thread FIFO with non-deterministic flush points, loads forward
//!   from the own buffer, and RMWs / `SeqCst` ops / `fence(SeqCst)` drain
//!   it. Under `acqrel` the checker explores the **acquire/release (C11)**
//!   model: each atomic location keeps its own modification order, every
//!   load picks its value from a *reads-from* candidate set constrained by
//!   happens-before (vector clocks; release sequences; acquire/release
//!   and `SeqCst` fences), and the DFS explores reads-from choices as
//!   scheduling points the same way TSO explores flush points. The AcqRel
//!   model also race-checks non-atomic data accessed through
//!   [`cell::UnsafeCell`]. See [`mod@sync`], [`mod@cell`] and the design
//!   notes in `docs/CONCURRENCY.md` §6 for each model's limits vs. the
//!   respective architecture / full C11.
//! * **Preemption-bounded.** Exploration is exhaustive over schedules with
//!   at most N preemptive context switches (default 2, the CHESS result
//!   that small bounds catch most bugs); forced switches — blocking on a
//!   mutex, joining, finishing — are free, and weak-memory "weirdness"
//!   (early TSO buffer flushes, stale AcqRel reads) is charged against the
//!   same bound. `LOOMETTE_PREEMPTIONS` raises the bound,
//!   `LOOMETTE_MAX_RUNS` the schedule cap.
//! * **Deadlock-detecting.** A state where no thread can run fails the
//!   model with the offending schedule.
//! * **Replayable failures.** A model failure prints a compact schedule
//!   token; `LOOMETTE_REPLAY=<token>` (plus the printed model/bound
//!   settings) deterministically re-runs exactly that schedule, turning a
//!   CI model-check failure into a reproducible unit test.
//!
//! The API mirrors loom where it matters, so swapping the real crate in
//! later is a one-line import change in the code under test:
//!
//! ```
//! use loomette::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! loomette::model(|| {
//!     let v = Arc::new(AtomicUsize::new(0));
//!     let v2 = Arc::clone(&v);
//!     let t = loomette::thread::spawn(move || {
//!         v2.fetch_add(1, Ordering::SeqCst);
//!     });
//!     v.fetch_add(1, Ordering::SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(v.load(Ordering::SeqCst), 2);
//! });
//! ```
//!
//! Model bodies must be deterministic (no wall-clock time, no OS
//! randomness): exploration replays schedule prefixes and diverging
//! replays abort the model.

#![warn(missing_docs)]

pub mod cell;
mod sched;
pub mod sync;
pub mod thread;

pub use sched::{Explorer, MemModel, DEFAULT_MAX_RUNS, DEFAULT_PREEMPTION_BOUND};

/// Explores every schedule of `f` within the default preemption bound,
/// panicking with the failing schedule if any execution panics or
/// deadlocks.
pub fn model(f: impl Fn() + Send + Sync + 'static) {
    Explorer::default().explore(f);
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use super::sync::Mutex;
    use std::sync::Arc;

    /// Two unsynchronized read-modify-read-write sequences must lose an
    /// update in some schedule: the checker finds the classic race.
    #[test]
    fn finds_lost_update() {
        let hit = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hit2 = Arc::clone(&hit);
        super::model(move || {
            let v = Arc::new(AtomicUsize::new(0));
            let v2 = Arc::clone(&v);
            let hit = Arc::clone(&hit2);
            let t = crate::thread::spawn(move || {
                let x = v2.load(Ordering::SeqCst);
                v2.store(x + 1, Ordering::SeqCst);
            });
            let x = v.load(Ordering::SeqCst);
            v.store(x + 1, Ordering::SeqCst);
            t.join().unwrap();
            if v.load(Ordering::SeqCst) == 1 {
                hit.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        });
        assert!(
            hit.load(std::sync::atomic::Ordering::SeqCst),
            "exploration never found the lost-update schedule"
        );
    }

    /// An explorer pinned to the given memory model (environment-
    /// independent, unlike `Explorer::default`).
    fn explorer(mem_model: super::MemModel) -> super::Explorer {
        super::Explorer {
            preemption_bound: super::DEFAULT_PREEMPTION_BOUND,
            max_runs: super::DEFAULT_MAX_RUNS,
            mem_model,
            replay: None,
        }
    }

    /// Store-buffering litmus: under sequential consistency at least one
    /// thread must observe the other's store. SeqCst-exact mode is SC by
    /// construction, so `r1 == r2 == 0` must be impossible.
    #[test]
    fn store_buffering_is_sequentially_consistent() {
        explorer(super::MemModel::Sc).explore(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = crate::thread::spawn(move || {
                x2.store(1, Ordering::SeqCst);
                y2.load(Ordering::SeqCst)
            });
            y.store(1, Ordering::SeqCst);
            let r1 = x.load(Ordering::SeqCst);
            let r2 = t.join().unwrap();
            assert!(
                r1 == 1 || r2 == 1,
                "both threads read 0: not sequentially consistent"
            );
        });
    }

    /// Atomic RMWs never lose updates, in any schedule.
    #[test]
    fn fetch_add_never_loses_updates() {
        super::model(|| {
            let v = Arc::new(AtomicUsize::new(0));
            let v2 = Arc::clone(&v);
            let t = crate::thread::spawn(move || {
                v2.fetch_add(1, Ordering::SeqCst);
            });
            v.fetch_add(1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(v.load(Ordering::SeqCst), 2);
        });
    }

    /// Mutexes provide mutual exclusion: a non-atomic critical section
    /// never interleaves.
    #[test]
    fn mutex_provides_mutual_exclusion() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u64));
            let m2 = Arc::clone(&m);
            let t = crate::thread::spawn(move || {
                let mut g = m2.lock().unwrap();
                let v = *g;
                crate::sched::yield_now(); // widen the window
                *g = v + 1;
            });
            {
                let mut g = m.lock().unwrap();
                let v = *g;
                crate::sched::yield_now();
                *g = v + 1;
            }
            t.join().unwrap();
            assert_eq!(*m.lock().unwrap(), 2);
        });
    }

    /// A failed `try_lock` returns at once: the holder joins the
    /// contender while still holding the lock, so a `try_lock` that
    /// blocked would deadlock the model, and the checker reports that.
    #[test]
    fn failed_try_lock_never_blocks() {
        super::model(|| {
            let m = Arc::new(Mutex::new(()));
            let held = m.lock().unwrap();
            let m2 = Arc::clone(&m);
            let t = crate::thread::spawn(move || m2.try_lock().is_err());
            assert!(t.join().unwrap(), "try_lock took a held mutex");
            drop(held);
        });
    }

    /// A successful `try_lock` excludes `lock`: the two non-atomic
    /// increments never interleave, in every schedule — and the
    /// exploration reaches both a won and a lost attempt.
    #[test]
    fn successful_try_lock_excludes_lock() {
        let outcomes = Arc::new(std::sync::Mutex::new([false; 2]));
        let seen = Arc::clone(&outcomes);
        super::model(move || {
            let m = Arc::new(Mutex::new(0u64));
            let m2 = Arc::clone(&m);
            let t = crate::thread::spawn(move || {
                let Ok(mut g) = m2.try_lock() else {
                    return false;
                };
                let v = *g;
                crate::sched::yield_now(); // widen the window
                *g = v + 1;
                true
            });
            {
                let mut g = m.lock().unwrap();
                let v = *g;
                crate::sched::yield_now();
                *g = v + 1;
            }
            let won = t.join().unwrap();
            assert_eq!(*m.lock().unwrap(), 1 + u64::from(won));
            seen.lock().unwrap()[usize::from(won)] = true;
        });
        assert_eq!(*outcomes.lock().unwrap(), [true, true]);
    }

    /// The checker reports deadlocks instead of hanging.
    #[test]
    fn detects_deadlock() {
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t = crate::thread::spawn(move || {
                    let _ga = a2.lock().unwrap();
                    let _gb = b2.lock().unwrap();
                });
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
                drop(_ga);
                drop(_gb);
                t.join().unwrap();
            });
        });
        assert!(result.is_err(), "AB-BA deadlock went undetected");
    }

    /// A failing assertion in a spawned thread fails the whole model.
    #[test]
    fn propagates_child_panics() {
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let flag = Arc::new(AtomicBool::new(false));
                let f2 = Arc::clone(&flag);
                let t = crate::thread::spawn(move || {
                    assert!(f2.load(Ordering::SeqCst), "child sees false");
                });
                t.join().unwrap();
            });
        });
        assert!(result.is_err(), "child panic was swallowed");
    }

    /// An instrumented mutex created *outside* `model` (and therefore
    /// shared across every run) must re-register its lock word with each
    /// run's scheduler instead of indexing a stale id.
    #[test]
    fn mutex_survives_across_model_runs() {
        let m = Arc::new(Mutex::new(0u64));
        for _ in 0..2 {
            let m = Arc::clone(&m);
            super::model(move || {
                let m2 = Arc::clone(&m);
                let t = crate::thread::spawn(move || {
                    *m2.lock().unwrap() += 1;
                });
                *m.lock().unwrap() += 1;
                t.join().unwrap();
            });
        }
        assert!(*m.lock().unwrap() >= 4, "increments lost across runs");
    }

    /// A condvar handoff works in every schedule: the consumer waits until
    /// the producer has set the flag, with no lost wakeup and no deadlock.
    #[test]
    fn condvar_handoff_never_loses_a_wakeup() {
        use super::sync::Condvar;
        super::model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = Arc::clone(&pair);
            let t = crate::thread::spawn(move || {
                let (m, cv) = &*pair2;
                let mut ready = m.lock().unwrap();
                *ready = true;
                drop(ready);
                cv.notify_all();
            });
            let (m, cv) = &*pair;
            let mut ready = m.lock().unwrap();
            while !*ready {
                ready = cv.wait(ready).unwrap();
            }
            drop(ready);
            t.join().unwrap();
        });
    }

    /// A wait that can never be notified is reported as a deadlock, not a
    /// hang.
    #[test]
    fn condvar_detects_missed_notify_as_deadlock() {
        use super::sync::Condvar;
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let pair = Arc::new((Mutex::new(false), Condvar::new()));
                let (m, cv) = &*pair;
                let mut ready = m.lock().unwrap();
                while !*ready {
                    ready = cv.wait(ready).unwrap();
                }
            });
        });
        assert!(result.is_err(), "un-notified wait went undetected");
    }

    /// The instrumented atomic pointer provides CAS semantics: of two
    /// concurrent compare-exchanges from the same expected value, exactly
    /// one succeeds in every schedule.
    #[test]
    fn atomic_ptr_cas_is_atomic() {
        use super::sync::atomic::AtomicPtr;
        super::model(|| {
            let a = Box::into_raw(Box::new(1u64));
            let b = Box::into_raw(Box::new(2u64));
            let p = Arc::new(AtomicPtr::<u64>::new(std::ptr::null_mut()));
            let p2 = Arc::clone(&p);
            let a_addr = a as usize; // raw pointers are !Send; ship the address
            let t = crate::thread::spawn(move || {
                p2.compare_exchange(
                    std::ptr::null_mut(),
                    a_addr as *mut u64,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            });
            let mine = p
                .compare_exchange(std::ptr::null_mut(), b, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            let theirs = t.join().unwrap();
            assert!(mine ^ theirs, "exactly one CAS must win");
            // Reclaim both allocations (the loser's pointer was never
            // published).
            unsafe {
                drop(Box::from_raw(a));
                drop(Box::from_raw(b));
            }
        });
    }

    /// The store-buffering litmus body with the given store/load orderings,
    /// recording every observed `(r1, r2)` outcome into `saw_both_zero`.
    fn sb_litmus(
        store_order: Ordering,
        load_order: Ordering,
        fenced: bool,
        saw_both_zero: &Arc<std::sync::atomic::AtomicBool>,
    ) -> impl Fn() + Send + Sync + 'static {
        let saw = Arc::clone(saw_both_zero);
        move || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let saw = Arc::clone(&saw);
            let t = crate::thread::spawn(move || {
                x2.store(1, store_order);
                if fenced {
                    crate::sync::atomic::fence(Ordering::SeqCst);
                }
                y2.load(load_order)
            });
            y.store(1, store_order);
            if fenced {
                crate::sync::atomic::fence(Ordering::SeqCst);
            }
            let r1 = x.load(load_order);
            let r2 = t.join().unwrap();
            if r1 == 0 && r2 == 0 {
                saw.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
    }

    /// TSO mode must *find* the store-buffering reorder for non-`SeqCst`
    /// accesses: some schedule observes `r1 == r2 == 0` (both stores still
    /// buffered when the cross loads execute) — the outcome SC forbids.
    #[test]
    fn tso_finds_store_buffering_reorder() {
        let saw = Arc::new(std::sync::atomic::AtomicBool::new(false));
        explorer(super::MemModel::Tso).explore(sb_litmus(
            Ordering::Release,
            Ordering::Acquire,
            false,
            &saw,
        ));
        assert!(
            saw.load(std::sync::atomic::Ordering::SeqCst),
            "TSO exploration never produced the r1 == r2 == 0 reorder"
        );
    }

    /// `SeqCst` operations stay sequentially consistent in TSO mode (a
    /// `SeqCst` store drains the buffer), so the forbidden outcome must
    /// stay unreachable.
    #[test]
    fn tso_seqcst_ops_remain_sequentially_consistent() {
        let saw = Arc::new(std::sync::atomic::AtomicBool::new(false));
        explorer(super::MemModel::Tso).explore(sb_litmus(
            Ordering::SeqCst,
            Ordering::SeqCst,
            false,
            &saw,
        ));
        assert!(
            !saw.load(std::sync::atomic::Ordering::SeqCst),
            "SeqCst accesses were reordered under TSO mode"
        );
    }

    /// A `fence(SeqCst)` between the store and the cross load drains the
    /// buffer and restores SC for the litmus even with `Release`/`Acquire`
    /// accesses — the exact pattern rcukit's pin-publication relies on.
    #[test]
    fn tso_seqcst_fence_restores_sequential_consistency() {
        let saw = Arc::new(std::sync::atomic::AtomicBool::new(false));
        explorer(super::MemModel::Tso).explore(sb_litmus(
            Ordering::Release,
            Ordering::Acquire,
            true,
            &saw,
        ));
        assert!(
            !saw.load(std::sync::atomic::Ordering::SeqCst),
            "fence(SeqCst) failed to forbid the store-buffer reorder"
        );
    }

    /// SeqCst-exact mode executes weaker orderings as `SeqCst` (the
    /// documented under-approximation): the reorder is *not* found there.
    #[test]
    fn sc_mode_does_not_model_store_buffering() {
        let saw = Arc::new(std::sync::atomic::AtomicBool::new(false));
        explorer(super::MemModel::Sc).explore(sb_litmus(
            Ordering::Release,
            Ordering::Acquire,
            false,
            &saw,
        ));
        assert!(
            !saw.load(std::sync::atomic::Ordering::SeqCst),
            "SeqCst-exact mode unexpectedly modeled a store-buffer reorder"
        );
    }

    /// In TSO mode a thread always sees its *own* stores in order (store-
    /// to-load forwarding), even while they are still buffered.
    #[test]
    fn tso_forwards_own_buffered_stores() {
        explorer(super::MemModel::Tso).explore(|| {
            let v = Arc::new(AtomicUsize::new(0));
            let v2 = Arc::clone(&v);
            let t = crate::thread::spawn(move || {
                v2.store(7, Ordering::Release);
                assert_eq!(
                    v2.load(Ordering::Relaxed),
                    7,
                    "own buffered store was not forwarded"
                );
            });
            t.join().unwrap();
            // After the join edge the child's buffer has drained.
            assert_eq!(v.load(Ordering::Acquire), 7, "join did not drain");
        });
    }

    /// Exploration visits more than one schedule when there is branching.
    #[test]
    fn explores_multiple_schedules() {
        let runs = super::Explorer::default().explore(|| {
            let v = Arc::new(AtomicUsize::new(0));
            let v2 = Arc::clone(&v);
            let t = crate::thread::spawn(move || {
                v2.store(1, Ordering::SeqCst);
            });
            let _ = v.load(Ordering::SeqCst);
            t.join().unwrap();
        });
        assert!(runs > 1, "no interleavings explored ({runs} runs)");
    }

    /// The message-passing litmus body: producer writes data then raises a
    /// flag; consumer that sees the flag asserts the data. `flag_store` /
    /// `flag_load` parameterize the synchronizing pair; the data accesses
    /// are always `Relaxed`, so the flag pair is the only ordering.
    fn mp_litmus(
        flag_store: Ordering,
        flag_load: Ordering,
        saw_violation: &Arc<std::sync::atomic::AtomicBool>,
    ) -> impl Fn() + Send + Sync + 'static {
        let saw = Arc::clone(saw_violation);
        move || {
            let data = Arc::new(AtomicUsize::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let saw = Arc::clone(&saw);
            let t = crate::thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(1, flag_store);
            });
            if flag.load(flag_load) == 1 && data.load(Ordering::Relaxed) != 42 {
                saw.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            t.join().unwrap();
        }
    }

    /// The AcqRel model must *find* the message-passing violation when the
    /// flag pair is `Relaxed` (no happens-before edge): some schedule sees
    /// the flag raised but stale data. SC and TSO both miss it (neither
    /// reorders a store-store or load-load pair).
    #[test]
    fn acqrel_finds_relaxed_message_passing_violation() {
        for (model, expected) in [
            (super::MemModel::Sc, false),
            (super::MemModel::Tso, false),
            (super::MemModel::AcqRel, true),
        ] {
            let saw = Arc::new(std::sync::atomic::AtomicBool::new(false));
            explorer(model).explore(mp_litmus(Ordering::Relaxed, Ordering::Relaxed, &saw));
            assert_eq!(
                saw.load(std::sync::atomic::Ordering::SeqCst),
                expected,
                "relaxed MP violation observability mismatch under {}",
                model.name()
            );
        }
    }

    /// With the proper `Release` store / `Acquire` load pairing the
    /// violation is forbidden under every model including AcqRel: the
    /// acquire read of the flag joins the release clock, which covers the
    /// data store.
    #[test]
    fn acqrel_release_acquire_forbids_message_passing_violation() {
        for model in [
            super::MemModel::Sc,
            super::MemModel::Tso,
            super::MemModel::AcqRel,
        ] {
            let saw = Arc::new(std::sync::atomic::AtomicBool::new(false));
            explorer(model).explore(mp_litmus(Ordering::Release, Ordering::Acquire, &saw));
            assert!(
                !saw.load(std::sync::atomic::Ordering::SeqCst),
                "Release/Acquire MP violated under {}",
                model.name()
            );
        }
    }

    /// An RMW continues the release sequence: a `Relaxed` `fetch_add` on
    /// the flag between the release store and the acquire load must not
    /// break the data edge.
    #[test]
    fn acqrel_rmw_extends_release_sequence() {
        explorer(super::MemModel::AcqRel).explore(|| {
            let data = Arc::new(AtomicUsize::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let f3 = Arc::clone(&flag);
            let t = crate::thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(1, Ordering::Release);
            });
            // Interloper RMW, relaxed: joins the release sequence.
            let t2 = crate::thread::spawn(move || {
                f3.fetch_add(2, Ordering::Relaxed);
            });
            if flag.load(Ordering::Acquire) == 3 {
                // Read the RMW's store: its rel clock includes the
                // overwritten release store's, so data is visible.
                assert_eq!(data.load(Ordering::Relaxed), 42, "release sequence broken");
            }
            t.join().unwrap();
            t2.join().unwrap();
        });
    }

    /// `fence(Release)` before a relaxed store + `fence(Acquire)` after a
    /// relaxed load synchronize exactly like a Release/Acquire pair (C11
    /// fence semantics).
    #[test]
    fn acqrel_fences_synchronize_relaxed_pair() {
        explorer(super::MemModel::AcqRel).explore(|| {
            let data = Arc::new(AtomicUsize::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = crate::thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                crate::sync::atomic::fence(Ordering::Release);
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) == 1 {
                crate::sync::atomic::fence(Ordering::Acquire);
                assert_eq!(data.load(Ordering::Relaxed), 42, "fence pair failed");
            }
            t.join().unwrap();
        });
    }

    /// A failing model prints a replay token, and running the explorer
    /// with that token reproduces exactly the failing schedule — in one
    /// run, deterministically.
    #[test]
    fn replay_token_reproduces_failing_schedule() {
        let body = || {
            let v = Arc::new(AtomicUsize::new(0));
            let v2 = Arc::clone(&v);
            let t = crate::thread::spawn(move || {
                let x = v2.load(Ordering::SeqCst);
                v2.store(x + 1, Ordering::SeqCst);
            });
            let x = v.load(Ordering::SeqCst);
            v.store(x + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(v.load(Ordering::SeqCst), 2, "lost update");
        };
        let err = std::panic::catch_unwind(|| explorer(super::MemModel::Sc).explore(body))
            .expect_err("lost update went unfound");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload should be a String");
        let token = msg
            .split("LOOMETTE_REPLAY=")
            .nth(1)
            .expect("failure message should carry a replay token")
            .split_whitespace()
            .next()
            .unwrap()
            .to_string();
        // Replaying must hit the same assertion in a single run.
        let replayer = super::Explorer {
            replay: Some(token),
            ..explorer(super::MemModel::Sc)
        };
        let err = std::panic::catch_unwind(move || replayer.explore(body))
            .expect_err("replay did not reproduce the failure");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("lost update"),
            "replay failed differently: {msg}"
        );
    }

    /// Under AcqRel, two unordered accesses to a `cell::UnsafeCell` (one a
    /// write) are a data race and fail the model; under SC/TSO the same
    /// body runs unchecked (interleaving-only).
    #[test]
    fn acqrel_detects_unsafecell_data_race() {
        let body = || {
            let c = Arc::new(crate::cell::UnsafeCell::new(0u64));
            let c2 = Arc::clone(&c);
            let t = crate::thread::spawn(move || {
                c2.with_mut(|p| unsafe { *p = 1 });
            });
            c.with(|p| unsafe { *p });
            t.join().unwrap();
        };
        let result = std::panic::catch_unwind(|| explorer(super::MemModel::AcqRel).explore(body));
        let msg = match result {
            Ok(_) => panic!("unsynchronized cell accesses went undetected"),
            Err(e) => e.downcast_ref::<String>().cloned().unwrap_or_default(),
        };
        assert!(msg.contains("data race"), "wrong failure: {msg}");
        // SC mode has no clocks: the same body passes (no race check).
        explorer(super::MemModel::Sc).explore(body);
    }

    /// A cell guarded by a Release/Acquire flag handoff is race-free: the
    /// reader only touches the cell after acquiring the flag, so the
    /// writer's access happens-before it.
    #[test]
    fn acqrel_accepts_flag_guarded_unsafecell() {
        explorer(super::MemModel::AcqRel).explore(|| {
            let c = Arc::new(crate::cell::UnsafeCell::new(0u64));
            let flag = Arc::new(AtomicUsize::new(0));
            let (c2, f2) = (Arc::clone(&c), Arc::clone(&flag));
            let t = crate::thread::spawn(move || {
                c2.with_mut(|p| unsafe { *p = 7 });
                f2.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                let v = c.with(|p| unsafe { *p });
                assert_eq!(v, 7);
            }
            t.join().unwrap();
        });
    }
}
