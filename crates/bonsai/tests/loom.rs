//! Model-checked range-locked-writer tests: the scenarios in
//! `tests/scenarios` are explored under all thread interleavings within
//! loomette's preemption bound — every range-lock table mutex/condvar
//! operation, tree root CAS, and rcukit protocol atomic is a scheduling
//! point (see `crates/loomette`, `bonsai/src/sync.rs`, and
//! `rcukit/src/sync.rs`).
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p bonsai --test loom --release
//! ```
//!
//! Under a plain `cargo test` this file compiles to an empty crate; the
//! `std` stress mirrors in `tests/model.rs` cover the same scenarios in
//! tier-1.

#![cfg(loom)]

mod scenarios;

#[test]
fn loom_disjoint_writers() {
    let runs = loomette::Explorer::default().explore(scenarios::disjoint_writers);
    eprintln!("disjoint_writers: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_overlapping_writers() {
    let runs = loomette::Explorer::default().explore(scenarios::overlapping_writers);
    eprintln!("overlapping_writers: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_parked_waiter_vs_releasing_holder() {
    let runs = loomette::Explorer::default().explore(scenarios::parked_waiter_vs_releasing_holder);
    eprintln!("parked_waiter_vs_releasing_holder: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_opposite_stripe_order_writers() {
    let runs = loomette::Explorer::default().explore(scenarios::opposite_stripe_order_writers);
    eprintln!("opposite_stripe_order_writers: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_arena_recycle_vs_reader() {
    let runs = loomette::Explorer::default().explore(scenarios::arena_recycle_vs_reader);
    eprintln!("arena_recycle_vs_reader: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_reader_vs_pending_ship() {
    let runs = loomette::Explorer::default()
        .explore(|| scenarios::reader_vs_pending_ship(scenarios::epoch()));
    eprintln!("reader_vs_pending_ship: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_reader_vs_pending_ship_hybrid() {
    let runs = loomette::Explorer::default()
        .explore(|| scenarios::reader_vs_pending_ship(scenarios::hybrid()));
    eprintln!("reader_vs_pending_ship_hybrid: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_treiber_recycle_push_vs_alloc_pop() {
    let runs = loomette::Explorer::default().explore(scenarios::treiber_recycle_push_vs_alloc_pop);
    eprintln!("treiber_recycle_push_vs_alloc_pop: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_fork_vs_writer() {
    let runs = loomette::Explorer::default().explore(scenarios::fork_vs_writer);
    eprintln!("fork_vs_writer: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_shared_subtree_retire() {
    let runs = loomette::Explorer::default().explore(scenarios::shared_subtree_retire);
    eprintln!("shared_subtree_retire: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

#[test]
fn loom_reader_vs_unmap_range() {
    let runs = loomette::Explorer::default()
        .explore(|| scenarios::reader_vs_unmap_range(scenarios::ONE_SPAN));
    eprintln!("reader_vs_unmap_range: {runs} schedules");
    assert!(runs > 500, "exploration degenerated to {runs} schedule(s)");
}

/// Meta-test: the model tier must be able to *see* a torn span unmap. The
/// same unmap split into two `unmap_range` calls shows the reader the state
/// between them, and every model must report it.
#[test]
fn loom_finds_torn_span_when_the_unmap_is_two_calls() {
    for mem_model in [
        loomette::MemModel::Sc,
        loomette::MemModel::Tso,
        loomette::MemModel::AcqRel,
    ] {
        let caught = std::panic::catch_unwind(|| {
            loomette::Explorer {
                preemption_bound: loomette::DEFAULT_PREEMPTION_BOUND,
                max_runs: loomette::DEFAULT_MAX_RUNS,
                mem_model,
                replay: None,
            }
            .explore(|| scenarios::reader_vs_unmap_range(scenarios::TWO_SPANS))
        });
        let msg = match caught {
            Ok(runs) => panic!(
                "{} exploration missed the torn two-call unmap in {runs} schedules",
                mem_model.name()
            ),
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into()),
        };
        assert!(
            msg.contains("torn span unmap"),
            "{} leg failed for another reason than the torn span: {msg}",
            mem_model.name()
        );
    }
}

/// The range-lock release's gated wake, distilled to its three words — a
/// stripe mutex over "the span is held", the stripe's condvar, and the
/// `waiting` count — with the count read either where `RangeWriteGuard`'s
/// drop reads it (inside the critical section that removes the span) or
/// ahead of the mutex acquisition.
fn gated_wake_litmus(read_under_mutex: bool) -> impl Fn() + Send + Sync + 'static {
    use loomette::sync::atomic::AtomicU64;
    use loomette::sync::{Condvar, Mutex};
    use loomette::thread::spawn;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;
    move || {
        let stripe = Arc::new((Mutex::new(true), Condvar::new(), AtomicU64::new(0)));
        let waiter = {
            let stripe = Arc::clone(&stripe);
            spawn(move || {
                let (held, released, waiting) = &*stripe;
                let mut span_held = held.lock().unwrap();
                while *span_held {
                    // `acquire`'s park: count, wait, uncount — all under
                    // the stripe mutex.
                    waiting.fetch_add(1, Relaxed);
                    span_held = released.wait(span_held).unwrap();
                    waiting.fetch_sub(1, Relaxed);
                }
            })
        };
        let (held, released, waiting) = &*stripe;
        let seen_early = waiting.load(Relaxed) != 0;
        let parked = {
            let mut span_held = held.lock().unwrap();
            *span_held = false;
            if read_under_mutex {
                waiting.load(Relaxed) != 0
            } else {
                seen_early
            }
        };
        if parked {
            released.notify_all();
        }
        waiter.join().unwrap();
    }
}

/// Meta-test: the model tier must be able to *find* the lost wakeup the
/// gated wake's proof rules out. With the `waiting` read moved ahead of
/// the stripe-mutex acquisition, a waiter can check, count itself and park
/// between the read and the span's removal; nobody notifies it, and every
/// model must report the deadlock. With the read where the code has it,
/// no schedule of any model parks a thread forever.
#[test]
fn loom_finds_lost_wakeup_when_waiting_is_read_outside_the_mutex() {
    for mem_model in [
        loomette::MemModel::Sc,
        loomette::MemModel::Tso,
        loomette::MemModel::AcqRel,
    ] {
        let explorer = || loomette::Explorer {
            preemption_bound: loomette::DEFAULT_PREEMPTION_BOUND,
            max_runs: loomette::DEFAULT_MAX_RUNS,
            mem_model,
            replay: None,
        };
        explorer().explore(gated_wake_litmus(true));
        let caught = std::panic::catch_unwind(|| {
            explorer().explore(gated_wake_litmus(false));
        });
        let msg = match caught {
            Ok(_) => panic!(
                "{} exploration missed the lost wakeup of an ungated `waiting` read",
                mem_model.name()
            ),
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into()),
        };
        assert!(
            msg.contains("deadlock"),
            "{} leg failed for another reason than the lost wakeup: {msg}",
            mem_model.name()
        );
    }
}
