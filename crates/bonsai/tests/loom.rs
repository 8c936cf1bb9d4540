//! Model-checked `RangeMap` writer tests: the scenarios in
//! `tests/scenarios` are explored under all thread interleavings within
//! loomette's preemption bound — every writer-slot mutex operation, tree
//! root CAS, arena list or parked-batch step, and rcukit protocol atomic
//! is a scheduling point (see `crates/loomette`, `bonsai/src/sync.rs`,
//! and `rcukit/src/sync.rs`).
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
fn loom_overlapping_maps() {
    let runs = loomette::Explorer::default()
        .explore(|| scenarios::overlapping_maps(scenarios::Admit::InRebuild));
    eprintln!("overlapping_maps: {runs} schedules");
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

/// Meta-test: the model tier must be able to *see* a double admission.
/// The same two overlapping maps, each deciding in a probe and committing
/// in a later insert, admit both in some schedule, and every model must
/// report it.
#[test]
fn loom_finds_double_admission_when_the_decision_is_split_from_the_commit() {
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
            .explore(|| scenarios::overlapping_maps(scenarios::Admit::ProbeThenInsert))
        });
        let msg = match caught {
            Ok(runs) => panic!(
                "{} exploration missed the double admission in {runs} schedules",
                mem_model.name()
            ),
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into()),
        };
        assert!(
            msg.contains("double admission"),
            "{} leg failed for another reason than the double admission: {msg}",
            mem_model.name()
        );
    }
}
