//! Protocol scenarios shared by the model-checking tier (`tests/loom.rs`,
//! built with `RUSTFLAGS="--cfg loom"`) and its plain-`std` stress mirror
//! (`tests/model.rs`), so tier-1 always covers the same code paths the
//! model checker explores exhaustively.
//!
//! Each scenario is one deterministic execution of a small two-thread
//! protocol interaction against the real `rcukit` collector:
//!
//! * under loom, `loomette::model` replays it under every schedule within
//!   the preemption bound, with every atomic and mutex a switch point;
//! * under `std`, the mirror test loops it with real threads, relying on
//!   scheduler noise (the classic stress test).
//!
//! Scenarios intentionally avoid `Collector::synchronize` (an unbounded
//! spin the schedule explorer cannot terminate) and the TLS-cached
//! `Collector::pin` (whose sweep machinery would blow up the state space);
//! reclamation is driven by bounded `collect` calls, and pins go through
//! explicitly registered handles — the same hot path the redesign made
//! lock- and RMW-free.

#[cfg(loom)]
use loomette::sync::atomic::{AtomicBool, AtomicUsize};
#[cfg(loom)]
use loomette::thread::spawn;
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicUsize};
#[cfg(not(loom))]
use std::thread::spawn;

use std::cell::Cell;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use rcukit::{Collector, HybridDomain};

/// Pin publication vs. epoch advance: a reader that observed a slot under
/// a pinned guard must never see that slot's retirement callback fire
/// while still pinned — in *any* schedule of reader pin, writer unlink +
/// retire, and an epoch-advance driver.
///
/// This is the protocol half the status-word publish loop (swap, re-read
/// the epoch until stable) exists for: without it, a reader could publish
/// a stale epoch while the advance scan misses it, the grace period
/// completes early, and `freed[idx]` flips under the reader's feet.
pub fn pin_publication() {
    let c = Collector::with_shards(1);
    // Two "published objects"; `slot` names the currently linked one and
    // `freed[i]` is object i's has-been-reclaimed canary.
    let slot = Arc::new(AtomicUsize::new(0));
    let freed = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);

    let reader = {
        let c = c.clone();
        let slot = Arc::clone(&slot);
        let freed = Arc::clone(&freed);
        spawn(move || {
            let h = c.register();
            let g = h.pin();
            // "Dereference": load the currently published slot index...
            let idx = slot.load(SeqCst);
            // ...and observe the object while still pinned. If the epoch
            // protocol is right, its grace period cannot have elapsed.
            assert!(
                !freed[idx].load(SeqCst),
                "reader observed a retired slot under a pinned guard"
            );
            drop(g);
        })
    };

    // Writer: unlink object 0 by publishing 1, then retire 0.
    let h = c.register();
    slot.store(1, SeqCst);
    {
        let g = h.pin();
        let freed = Arc::clone(&freed);
        g.defer(move || freed[0].store(true, SeqCst));
    }
    // Epoch-advance driver racing the reader's critical section.
    for _ in 0..2 {
        c.collect();
    }
    reader.join().unwrap();
    // With every guard dropped, a bounded drain must reclaim: two advances
    // past the retirement tag plus one reclaim pass.
    for _ in 0..3 {
        c.collect();
    }
    assert!(
        freed[0].load(SeqCst),
        "retirement never fired after a full drain"
    );
    assert!(!freed[1].load(SeqCst), "live object was reclaimed");
}

/// Pin publication vs. a *dedicated* epoch-advance driver: unlike
/// [`pin_publication`], where the writer thread also drives `collect`, the
/// advance scan here runs on its own thread the whole time the reader is
/// pinning — so the status-word publish (store + `SeqCst` fence + epoch
/// re-read) races the advance side's own fence-then-scan directly, with no
/// happens-before edge through the writer serializing them.
///
/// This is the schedule shape the ordering audit's store-buffer model
/// exists for: after the audit the pin store is `Relaxed`, so under TSO
/// (`LOOMETTE_MODEL=tso`) it sits in the reader's store buffer until the pin
/// fence drains it. The Dekker between that fence and the one in
/// `try_advance` is the *only* thing stopping the driver from advancing
/// two epochs past the retirement while the reader dereferences — exactly
/// the use-after-free this scenario's canary assert would catch.
pub fn pin_advance_store_buffer() {
    let c = Collector::with_shards(1);
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
            assert!(
                !freed[idx].load(SeqCst),
                "reader observed a retired slot under a pinned guard"
            );
            drop(g);
        })
    };
    // The advance driver: nothing but grace-period machinery, racing the
    // reader's pin publication and the writer's retirement.
    let advancer = {
        let c = c.clone();
        spawn(move || {
            for _ in 0..2 {
                c.collect();
            }
        })
    };

    // Writer (main thread): unlink object 0 by publishing 1, then retire 0.
    let h = c.register();
    slot.store(1, SeqCst);
    {
        let g = h.pin();
        let freed = Arc::clone(&freed);
        g.defer(move || freed[0].store(true, SeqCst));
    }
    reader.join().unwrap();
    advancer.join().unwrap();
    // Bounded drain with every guard gone: the retirement must fire.
    for _ in 0..3 {
        c.collect();
    }
    assert!(
        freed[0].load(SeqCst),
        "retirement never fired after a full drain"
    );
    assert!(!freed[1].load(SeqCst), "live object was reclaimed");
}

/// Retire-before-publish ordering, driven purely by writer unpins: the
/// writer retires only *after* the unlink store, and its outermost unpins
/// (not an explicit driver) run the opportunistic collect. A pinned reader
/// must still never catch a retired slot, and both retirements must drain
/// eventually.
///
/// This exercises the seal-at-unpin path, `collect_pending` re-arming, and
/// the stale-bag seal in `defer` when the second retirement samples a
/// newer epoch tag.
pub fn retire_publish_unpin_collect() {
    let c = Collector::with_shards(1);
    // The scenario's point is the *unpin-driven* collect path; disable the
    // collect throttle so every garbage-bearing unpin runs it, as the
    // pre-throttle protocol did.
    c.set_unpin_collect_period(1);
    let slot = Arc::new(AtomicUsize::new(0));
    let freed = Arc::new([
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    ]);

    let reader = {
        let c = c.clone();
        let slot = Arc::clone(&slot);
        let freed = Arc::clone(&freed);
        spawn(move || {
            let h = c.register();
            for _ in 0..2 {
                let g = h.pin();
                let idx = slot.load(SeqCst);
                assert!(
                    !freed[idx].load(SeqCst),
                    "reader observed a retired slot under a pinned guard"
                );
                drop(g);
            }
        })
    };

    let h = c.register();
    // Two publish+retire rounds: 0 -> 1 -> 2. Each unpin seals the bag and
    // opportunistically collects, so the epoch moves without any explicit
    // driver thread.
    for old in 0..2usize {
        slot.store(old + 1, SeqCst);
        let g = h.pin();
        let freed = Arc::clone(&freed);
        g.defer(move || freed[old].store(true, SeqCst));
        drop(g);
    }
    reader.join().unwrap();
    // Bounded drain: everything retired must reclaim once guards are gone.
    for _ in 0..4 {
        c.collect();
    }
    let s = c.stats();
    assert_eq!(s.objects_retired, 2);
    assert_eq!(
        s.objects_freed, 2,
        "writer-unpin collects never drained the queue"
    );
    assert!(!freed[2].load(SeqCst), "live object was reclaimed");
}

/// The `bag_dirty`-gated seal: a pinned reader retires an object and
/// unpins while a second thread drives the epoch. The unpin consults the
/// reader's owner-thread mirror of "my bag holds something" instead of
/// locking the bag, so the mirror must be right in every schedule: the
/// first unpin has to move the retirement into the shard queue (where
/// anyone's reclaim can reach it) and the second, clean unpin has to leave
/// the bag alone. The reader's handle stays alive across the final drain,
/// so only the unpin-time seal can have handed the retirement over — a
/// retirement stranded in the local bag fails the drain.
pub fn deferring_reader_unpin_seals() {
    let c = Collector::with_shards(1);
    let freed = Arc::new(AtomicBool::new(false));

    // The advancer: grace-period machinery only, racing the reader's pin,
    // retire and unpin.
    let advancer = {
        let c = c.clone();
        spawn(move || {
            for _ in 0..2 {
                c.collect();
            }
        })
    };

    let h = c.register();
    {
        let g = h.pin();
        let flag = Arc::clone(&freed);
        g.defer(move || flag.store(true, SeqCst));
        assert!(
            !freed.load(SeqCst),
            "retirement fired under the retiring reader's own pin"
        );
    }
    // A clean critical section: nothing retired, nothing to seal.
    drop(h.pin());
    advancer.join().unwrap();
    for _ in 0..3 {
        c.collect();
    }
    assert!(
        freed.load(SeqCst),
        "unpin left the retirement in the reader's local bag"
    );
    let s = c.stats();
    assert_eq!((s.objects_retired, s.objects_freed), (1, 1));
    assert_eq!(s.pending_bags, 0);
    drop(h);
}

/// The stalled-reader window on the epoch backend: the main thread pins a
/// guard *before* the writer exists and holds it across the writer's whole
/// retire-and-collect lifetime. No schedule may free the retirement while
/// the pin is held — the grace period cannot elapse past a pinned reader —
/// and a bounded drain must free it once the pin drops.
///
/// This is the protocol shape behind `bonsai`'s stalled-reader shape test
/// (`bonsai/tests/stalled_reader.rs`): on this backend the stalled pin
/// makes unreclaimed garbage grow with the stall window (here: one object,
/// asserted unreclaimed; there: a peak-bytes gauge that scales with ops).
pub fn stalled_reader_epoch() {
    let c = Collector::with_shards(1);
    let freed = Arc::new(AtomicBool::new(false));
    // The stall: pinned before the writer spawns, held past its join.
    let h = c.register();
    let stall = h.pin();

    let writer = {
        let c = c.clone();
        let freed = Arc::clone(&freed);
        spawn(move || {
            let h = c.register();
            {
                let g = h.pin();
                let freed = Arc::clone(&freed);
                g.defer(move || freed.store(true, SeqCst));
            }
            // Reclaim attempts racing the stall: all must fail to free.
            for _ in 0..4 {
                c.collect();
            }
        })
    };
    writer.join().unwrap();
    assert!(
        !freed.load(SeqCst),
        "epoch reclaim freed a retirement under a stalled reader pin"
    );

    drop(stall);
    for _ in 0..4 {
        c.collect();
    }
    assert!(
        freed.load(SeqCst),
        "retirement never freed after the stalled pin dropped"
    );
}

/// Counts its drops in a shared tally — how the hybrid scenario observes
/// *which* retirements a scan actually reclaimed.
struct DropCanary(Arc<AtomicUsize>);

impl Drop for DropCanary {
    fn drop(&mut self) {
        self.0.fetch_add(1, SeqCst);
    }
}

/// The stalled-reader window on the hybrid backend, plus the property the
/// backend exists for: garbage born after a stalled pin still reclaims.
/// The main thread pins an era interval after the birth of an `old` node
/// and holds the pin across the writer's whole lifetime. The writer
/// retires `old`, then one era tick's worth of `young` nodes, each born
/// after the pin's interval, and scans after each phase. In every
/// schedule:
///
/// * `old` survives every scan while the pin is held — its lifetime
///   overlaps the pinned interval;
/// * every `young` node reclaims despite the stall — unlike epoch, the
///   stall does not grow garbage past what was live when it began.
pub fn stalled_reader_hybrid() {
    let d = HybridDomain::new();
    // Prefix, nothing pinned: count the retirements one era tick takes,
    // then retire one short of the next tick, so the writer's first
    // retirement moves the era past the pin below.
    let start = d.current_era();
    let mut tick = 0;
    while d.current_era() == start {
        d.defer(|| {});
        tick += 1;
    }
    for _ in 1..tick {
        d.defer(|| {});
    }
    d.scan();
    let (old_freed, young_freed) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let old = Box::into_raw(Box::new(DropCanary(Arc::clone(&old_freed))));
    let old_birth = d.current_era();
    // The stall: pinned (and its snapshot validated) before the writer
    // spawns, held past its join.
    let stall = d.pin();
    stall.protect(|| old);

    let writer = {
        let d = d.clone();
        let young_freed = Arc::clone(&young_freed);
        let addr = old as usize;
        spawn(move || {
            // Safety: `old` came from Box::into_raw, is reachable only
            // through the stalled pin's snapshot, and is retired once.
            unsafe { d.defer_free_born(addr as *mut DropCanary, old_birth) };
            d.scan();
            for _ in 0..tick {
                let young = Box::new(DropCanary(Arc::clone(&young_freed)));
                // Safety: fresh allocation, never shared, retired once;
                // its birth is the era current before it was retired.
                unsafe { d.defer_free_born(Box::into_raw(young), d.current_era()) };
            }
            d.scan();
        })
    };
    writer.join().unwrap();
    assert_eq!(
        old_freed.load(SeqCst),
        0,
        "hybrid scan freed a node the stalled pin's interval covers"
    );
    assert_eq!(
        young_freed.load(SeqCst),
        tick,
        "the stalled pin blocked garbage born after its interval"
    );

    // The stall lifts: `old` reclaims at the next scan.
    drop(stall);
    d.scan();
    assert_eq!(
        old_freed.load(SeqCst),
        1,
        "old node never freed after the pin dropped"
    );
    assert_eq!(d.pending(), 0);
    assert_eq!(d.retired(), d.freed());
}

thread_local! {
    /// Scenario-maintained count of guards held by the current thread;
    /// every pin site below brackets its guard with inc/dec. The gate
    /// scenario's callback asserts it is zero — i.e. deferred callbacks
    /// only ever run on threads holding no guard.
    static SCENARIO_GUARDS: Cell<usize> = const { Cell::new(0) };
}

/// The guard-free callback gate: a deferred callback must never execute on
/// a thread that is inside a read-side critical section (of *any*
/// collector), in any schedule — otherwise a callback that waits for a
/// grace period would deadlock under the executing thread's own pin.
///
/// The main thread holds a guard on collector `a` across an unpin of
/// collector `b` that has garbage queued (the exact shape that forces the
/// gate to skip and re-arm via `collect_pending`), while a second thread
/// drives `b.collect()` concurrently.
pub fn guard_free_callback_gate() {
    let a = Collector::with_shards(1);
    let b = Collector::with_shards(1);
    let fired = Arc::new(AtomicUsize::new(0));

    let driver = {
        let b = b.clone();
        spawn(move || {
            // Runs the callback in *this* thread's context if ready; this
            // thread holds no guard, so the assertion inside it holds.
            b.collect();
        })
    };

    let ha = a.register();
    let hb = b.register();
    let ga = ha.pin();
    SCENARIO_GUARDS.with(|g| g.set(g.get() + 1));
    {
        let gb = hb.pin();
        SCENARIO_GUARDS.with(|g| g.set(g.get() + 1));
        let fired = Arc::clone(&fired);
        gb.defer(move || {
            SCENARIO_GUARDS.with(|g| {
                assert_eq!(
                    g.get(),
                    0,
                    "deferred callback ran on a thread holding a guard"
                );
            });
            fired.fetch_add(1, SeqCst);
        });
        SCENARIO_GUARDS.with(|g| g.set(g.get() - 1));
        drop(gb);
        // b's unpin sealed the bag but must have skipped the collect:
        // this thread still holds `ga`.
    }
    // Guard-free unpins of b retry the pending collect; while `ga` is
    // held they must keep skipping.
    {
        let gb = hb.pin();
        SCENARIO_GUARDS.with(|g| g.set(g.get() + 1));
        SCENARIO_GUARDS.with(|g| g.set(g.get() - 1));
        drop(gb);
    }
    SCENARIO_GUARDS.with(|g| g.set(g.get() - 1));
    drop(ga);
    // Now guard-free: unpin-driven and explicit collects may fire the
    // callback at will. Drain deterministically.
    driver.join().unwrap();
    for _ in 0..4 {
        b.collect();
    }
    assert_eq!(fired.load(SeqCst), 1, "callback never fired after drain");
}
