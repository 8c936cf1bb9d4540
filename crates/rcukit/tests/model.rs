//! Plain-`std` stress mirrors of the model-checked protocol scenarios
//! (`tests/loom.rs`), so tier-1 covers the same interactions on every run.
//! Each scenario is deterministic protocol logic with real-thread
//! scheduling noise supplying the interleavings; the loom tier explores
//! the schedules exhaustively instead.

#![cfg(not(loom))]

mod scenarios;

/// Stress iterations per scenario: enough for real-thread schedule noise,
/// scaled down under Miri (each iteration spawns threads, which the
/// interpreter runs ~1000x slower).
const ITERS: usize = if cfg!(miri) { 10 } else { 200 };

#[test]
fn stress_pin_publication() {
    for _ in 0..ITERS {
        scenarios::pin_publication();
    }
}

#[test]
fn stress_pin_advance_store_buffer() {
    for _ in 0..ITERS {
        scenarios::pin_advance_store_buffer();
    }
}

#[test]
fn stress_retire_publish_unpin_collect() {
    for _ in 0..ITERS {
        scenarios::retire_publish_unpin_collect();
    }
}

#[test]
fn stress_deferring_reader_unpin_seals() {
    for _ in 0..ITERS {
        scenarios::deferring_reader_unpin_seals();
    }
}

#[test]
fn stress_guard_free_callback_gate() {
    for _ in 0..ITERS {
        scenarios::guard_free_callback_gate();
    }
}

#[test]
fn stress_stalled_reader_epoch() {
    for _ in 0..ITERS {
        scenarios::stalled_reader_epoch();
    }
}

#[test]
fn stress_stalled_reader_qsbr() {
    for _ in 0..ITERS {
        scenarios::stalled_reader_qsbr();
    }
}

#[test]
fn stress_stalled_reader_hp() {
    for _ in 0..ITERS {
        scenarios::stalled_reader_hp();
    }
}
