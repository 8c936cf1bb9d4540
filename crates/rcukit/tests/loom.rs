//! Model-checked protocol tests: every scenario in `tests/scenarios` is
//! explored under all thread interleavings within loomette's preemption
//! bound, with every atomic access and mutex acquisition a scheduling
//! point (see `crates/loomette` and `rcukit/src/sync.rs`).
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p rcukit --test loom --release
//! ```
//!
//! Under a plain `cargo test` this file compiles to an empty crate; the
//! `std` stress mirrors in `tests/model.rs` cover the same scenarios in
//! tier-1.

#![cfg(loom)]

mod scenarios;

use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

/// Schedule-count floor: exploration below this means the search was
/// silently pruned (an instrumentation regression), not that the scenario
/// got simpler. Every model leg must clear it at the CI preemption bounds.
const MIN_SCHEDULES: usize = 500;

/// The stalled-reader scenarios hold their protection across the writer's
/// entire spawn-to-join lifetime, so both ends of each scenario are
/// deliberately sequential and the explorable window is much smaller than
/// the free-running protocol scenarios' (tens of schedules at the local
/// preemption bound, not thousands). The floor still catches degeneration
/// to a handful of schedules.
const MIN_SCHEDULES_STALLED: usize = 25;

#[test]
fn loom_pin_publication() {
    let runs = loomette::Explorer::default().explore(scenarios::pin_publication);
    eprintln!("pin_publication: {runs} schedules");
    assert!(
        runs > MIN_SCHEDULES,
        "exploration degenerated to {runs} schedule(s)"
    );
}

#[test]
fn loom_pin_advance_store_buffer() {
    let runs = loomette::Explorer::default().explore(scenarios::pin_advance_store_buffer);
    eprintln!("pin_advance_store_buffer: {runs} schedules");
    assert!(
        runs > MIN_SCHEDULES,
        "exploration degenerated to {runs} schedule(s)"
    );
}

#[test]
fn loom_retire_publish_unpin_collect() {
    let runs = loomette::Explorer::default().explore(scenarios::retire_publish_unpin_collect);
    eprintln!("retire_publish_unpin_collect: {runs} schedules");
    assert!(
        runs > MIN_SCHEDULES,
        "exploration degenerated to {runs} schedule(s)"
    );
}

#[test]
fn loom_deferring_reader_unpin_seals() {
    let runs = loomette::Explorer::default().explore(scenarios::deferring_reader_unpin_seals);
    eprintln!("deferring_reader_unpin_seals: {runs} schedules");
    assert!(
        runs > MIN_SCHEDULES,
        "exploration degenerated to {runs} schedule(s)"
    );
}

#[test]
fn loom_guard_free_callback_gate() {
    let runs = loomette::Explorer::default().explore(scenarios::guard_free_callback_gate);
    eprintln!("guard_free_callback_gate: {runs} schedules");
    assert!(
        runs > MIN_SCHEDULES,
        "exploration degenerated to {runs} schedule(s)"
    );
}

#[test]
fn loom_stalled_reader_epoch() {
    let runs = loomette::Explorer::default().explore(scenarios::stalled_reader_epoch);
    eprintln!("stalled_reader_epoch: {runs} schedules");
    assert!(
        runs > MIN_SCHEDULES_STALLED,
        "exploration degenerated to {runs} schedule(s)"
    );
}

#[test]
fn loom_stalled_reader_hybrid() {
    let runs = loomette::Explorer::default().explore(scenarios::stalled_reader_hybrid);
    eprintln!("stalled_reader_hybrid: {runs} schedules");
    assert!(
        runs > MIN_SCHEDULES_STALLED,
        "exploration degenerated to {runs} schedule(s)"
    );
}

/// Meta-test: the model tier must be able to *find* the bug class it
/// exists for. Seed the PR1 use-after-free — retire **before** the unlink
/// is published — and require the checker to produce a schedule where a
/// pinned reader observes the retired slot. If this test ever fails, the
/// instrumentation has lost the interleavings that matter.
#[test]
fn loom_finds_seeded_retire_before_publish_bug() {
    use loomette::sync::atomic::{AtomicBool, AtomicUsize};
    use loomette::thread::spawn;
    use rcukit::Collector;
    let caught = std::panic::catch_unwind(|| {
        loomette::model(|| {
            let c = Collector::with_shards(1);
            // The seeded violation needs the unpin-driven epoch advance
            // between the (buggy, too-early) retire and the unlink store;
            // the collect throttle would otherwise skip it.
            c.set_unpin_collect_period(1);
            let slot = Arc::new(AtomicUsize::new(0));
            let freed = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
            let reader = {
                let c = c.clone();
                let slot = Arc::clone(&slot);
                let freed = Arc::clone(&freed);
                spawn(move || {
                    let h = c.register();
                    let g = h.pin();
                    let idx = slot.load(SeqCst);
                    assert!(!freed[idx].load(SeqCst), "reader observed retired slot");
                    drop(g);
                })
            };
            let h = c.register();
            {
                let g = h.pin();
                let freed = Arc::clone(&freed);
                // BUG under test: retire first ...
                g.defer(move || freed[0].store(true, SeqCst));
            }
            // ... and publish the unlink only afterwards.
            slot.store(1, SeqCst);
            for _ in 0..3 {
                c.collect();
            }
            reader.join().unwrap();
        });
    });
    assert!(
        caught.is_err(),
        "model checker failed to find the seeded retire-before-publish violation"
    );
}

/// The distilled retire path with `defer`'s StoreLoad fence optionally
/// elided: the writer publishes the unlink (Release store) and then — the
/// step the fence guards — samples the reader-visibility word (standing in
/// for the retire-tag epoch load / advance scan). The reader runs the full
/// pin protocol: publish the status word, `SeqCst` fence, then
/// dereference. Returns via `saw_uaf` whether some schedule had *both*
/// sides miss each other — writer saw "no reader" while the reader missed
/// the unlink — the use-after-free shape.
fn fenceless_retire_litmus(
    fenced: bool,
    saw_uaf: &Arc<std::sync::atomic::AtomicBool>,
) -> impl Fn() + Send + Sync + 'static {
    use loomette::sync::atomic::{fence, AtomicUsize};
    use loomette::thread::spawn;
    use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
    let saw = Arc::clone(saw_uaf);
    move || {
        let unlink = Arc::new(AtomicUsize::new(0)); // writer's unlink publication
        let status = Arc::new(AtomicUsize::new(0)); // reader's pin word
        let (unlink2, status2) = (Arc::clone(&unlink), Arc::clone(&status));
        let reader = spawn(move || {
            status2.store(1, Relaxed);
            fence(std::sync::atomic::Ordering::SeqCst); // the pin fence
            unlink2.load(Acquire)
        });
        unlink.store(1, Release);
        if fenced {
            // `defer`'s StoreLoad fence — the one under test.
            fence(std::sync::atomic::Ordering::SeqCst);
        }
        let r_status = status.load(Relaxed);
        let r_unlink = reader.join().unwrap();
        if r_status == 0 && r_unlink == 0 {
            saw.store(true, SeqCst);
        }
    }
}

/// Meta-test: removing `defer`'s `fence(SeqCst)` must be a bug the
/// store-buffer model can *find*. Without the fence, TSO lets the writer's
/// buffered unlink store pass its reader scan: the writer concludes no
/// reader can hold the object while the reader (whose pin fence already
/// drained) still reads the un-unlinked snapshot — the grace period starts
/// one epoch too early. The same exploration with the fence restored must
/// never reach that outcome: the fence is load-bearing, and the TSO tier
/// is what checks it (SeqCst-exact mode executes the litmus as SC and
/// cannot see the reorder).
#[test]
fn loom_tso_finds_fenceless_retire_publish() {
    // Environment-independent explorers: this test *is* the weak-memory
    // coverage. Both weak models — the store buffer and the full
    // acquire/release tier — must find the reorder without the fence and
    // forbid it with the fence (the SC-fence total order is modeled in
    // both).
    for model in [loomette::MemModel::Tso, loomette::MemModel::AcqRel] {
        let saw = Arc::new(std::sync::atomic::AtomicBool::new(false));
        explorer(model).explore(fenceless_retire_litmus(false, &saw));
        assert!(
            saw.load(SeqCst),
            "{} exploration failed to find the fence-elided retire reorder",
            model.name()
        );

        let saw = Arc::new(std::sync::atomic::AtomicBool::new(false));
        explorer(model).explore(fenceless_retire_litmus(true, &saw));
        assert!(
            !saw.load(SeqCst),
            "defer's StoreLoad fence failed to forbid the retire reorder under {}",
            model.name()
        );
    }
}

/// An environment-independent explorer pinned to `mem_model`.
fn explorer(mem_model: loomette::MemModel) -> loomette::Explorer {
    loomette::Explorer {
        preemption_bound: loomette::DEFAULT_PREEMPTION_BOUND,
        max_runs: loomette::DEFAULT_MAX_RUNS,
        mem_model,
        replay: None,
    }
}

/// The full unpin → advance-scan → reclaim path over real rcukit, with the
/// protected data behind a race-checked `loomette::cell::UnsafeCell`: a
/// reader pins, reads the data, and unpins; the writer defers a poison
/// write of the same data and drives `collect` until the grace period
/// expires and the deferred write runs. With the audited orderings the
/// unpin's `Release` store and the scan's `Acquire` load carry the
/// reader's critical-section reads into happens-before, so the deferred
/// write is ordered after them in every schedule.
#[cfg(loomette_weaken)]
fn weakened_unpin_scenario() {
    use loomette::sync::atomic::AtomicUsize;
    use loomette::thread::spawn;
    use rcukit::Collector;
    let c = Collector::with_shards(1);
    let data = Arc::new(loomette::cell::UnsafeCell::new(0u64));
    let unlinked = Arc::new(AtomicUsize::new(0));
    let reader = {
        let c = c.clone();
        let data = Arc::clone(&data);
        let unlinked = Arc::clone(&unlinked);
        spawn(move || {
            let h = c.register();
            let g = h.pin();
            // Only dereference if the unlink is not yet published — then
            // the pin precedes the writer's epoch sample, so the deferred
            // poison write must wait out this critical section.
            if unlinked.load(SeqCst) == 0 {
                let v = data.with(|p| unsafe { *p });
                assert_eq!(v, 0, "reader observed the poison write");
            }
            drop(g);
        })
    };
    let h = c.register();
    {
        let g = h.pin();
        unlinked.store(1, SeqCst);
        let data = Arc::clone(&data);
        g.defer(move || {
            data.with_mut(|p| unsafe { *p = u64::MAX });
        });
    }
    for _ in 0..4 {
        c.collect();
    }
    reader.join().unwrap();
}

/// Meta-test for the `--cfg loomette_weaken` seeded bugs: with the unpin
/// `Release` store and the advance-scan `Acquire` load weakened to
/// `Relaxed`, the grace-period happens-before chain is severed — yet no
/// *value* any interleaving observes changes, so the SC and TSO legs run
/// the scenario green. Only the AcqRel leg, which tracks happens-before
/// and race-checks the protected cell, must find the message-passing
/// violation (as a data race between the reader's access and the deferred
/// poison write).
#[cfg(loomette_weaken)]
#[test]
fn loom_acqrel_finds_weakened_unpin_edge() {
    for model in [loomette::MemModel::Sc, loomette::MemModel::Tso] {
        explorer(model).explore(weakened_unpin_scenario);
    }
    let caught = std::panic::catch_unwind(|| {
        explorer(loomette::MemModel::AcqRel).explore(weakened_unpin_scenario);
    });
    let msg = match caught {
        Ok(_) => panic!(
            "AcqRel exploration failed to find the weakened unpin/scan \
             message-passing violation"
        ),
        Err(e) => e
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into()),
    };
    assert!(
        msg.contains("data race"),
        "AcqRel leg failed for a different reason than the severed edge: {msg}"
    );
}
