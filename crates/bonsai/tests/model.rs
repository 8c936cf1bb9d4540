//! Plain-`std` stress mirrors of the model-checked range-locked-writer
//! scenarios (`tests/loom.rs`), so tier-1 covers the same interactions on
//! every run. Real-thread scheduling noise supplies the interleavings; the
//! loom tier explores them exhaustively instead.

#![cfg(not(loom))]

mod scenarios;

/// Stress iterations per scenario, scaled down under Miri.
const ITERS: usize = if cfg!(miri) { 10 } else { 200 };

#[test]
fn stress_disjoint_writers() {
    for _ in 0..ITERS {
        scenarios::disjoint_writers();
    }
}

#[test]
fn stress_overlapping_writers() {
    for _ in 0..ITERS {
        scenarios::overlapping_writers();
    }
}

#[test]
fn stress_parked_waiter_vs_releasing_holder() {
    for _ in 0..ITERS {
        scenarios::parked_waiter_vs_releasing_holder();
    }
}

#[test]
fn stress_opposite_stripe_order_writers() {
    for _ in 0..ITERS {
        scenarios::opposite_stripe_order_writers();
    }
}

#[test]
fn stress_arena_recycle_vs_reader() {
    for _ in 0..ITERS {
        scenarios::arena_recycle_vs_reader();
    }
}

#[test]
fn stress_reader_vs_pending_ship() {
    for _ in 0..ITERS {
        scenarios::reader_vs_pending_ship(scenarios::epoch());
    }
}

#[test]
fn stress_reader_vs_pending_ship_hybrid() {
    for _ in 0..ITERS {
        scenarios::reader_vs_pending_ship(scenarios::hybrid());
    }
}

#[test]
fn stress_treiber_recycle_push_vs_alloc_pop() {
    for _ in 0..ITERS {
        scenarios::treiber_recycle_push_vs_alloc_pop();
    }
}

#[test]
fn stress_fork_vs_writer() {
    for _ in 0..ITERS {
        scenarios::fork_vs_writer();
    }
}

#[test]
fn stress_shared_subtree_retire() {
    for _ in 0..ITERS {
        scenarios::shared_subtree_retire();
    }
}

#[test]
fn stress_reader_vs_unmap_range() {
    for _ in 0..ITERS {
        scenarios::reader_vs_unmap_range(scenarios::ONE_SPAN);
    }
}
