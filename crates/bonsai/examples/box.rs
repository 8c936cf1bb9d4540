//! Calibrates the machine a two-thread benchmark row was measured on, so a
//! claim about the writer path can be read against the box: prints
//!
//! 1. one cache-line hand-off — half a round trip of a line two threads
//!    take turns writing;
//! 2. a `fetch_add` on one counter both threads hammer, against one on a
//!    counter each thread owns;
//! 3. the t1→t2 ratio of an embarrassingly parallel loop: total throughput
//!    of two threads over that of one (2.0 on two idle cores; two
//!    hyperthreads of one core, or a busy neighbour, read lower).
//!
//! ```text
//! cargo run --release -p bonsai --example box
//! ```

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

/// A counter alone on its line pair.
#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

/// Runs `work(thread index)` on `threads` threads released together and
/// returns the wall time from the release to the last finish, in ns.
fn wall_ns(threads: usize, work: impl Fn(usize) + Sync) -> f64 {
    let barrier = Barrier::new(threads + 1);
    thread::scope(|s| {
        for t in 0..threads {
            let (barrier, work) = (&barrier, &work);
            s.spawn(move || {
                barrier.wait();
                work(t);
            });
        }
        barrier.wait();
        let start = Instant::now();
        // The scope joins the workers before it returns.
        start
    })
    .elapsed()
    .as_nanos() as f64
}

/// Median of five runs of `f`.
fn median(f: impl Fn() -> f64) -> f64 {
    let mut runs: Vec<f64> = (0..5).map(|_| f()).collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

fn main() {
    const HANDOFFS: u64 = 200_000;
    const ADDS: u64 = 2_000_000;
    const SPINS: u64 = 50_000_000;

    // 1. Ping-pong: thread t waits for the line to hold a value of its
    // parity, then writes the next one.
    let handoff = median(|| {
        let line = Padded::default();
        wall_ns(2, |t| {
            for i in (t as u64..2 * HANDOFFS).step_by(2) {
                while line.0.load(Relaxed) != i {
                    std::hint::spin_loop();
                }
                line.0.store(i + 1, Relaxed);
            }
        }) / (2 * HANDOFFS) as f64
    });

    // 2. Contended vs private fetch_add.
    let shared = median(|| {
        let counter = Padded::default();
        wall_ns(2, |_| {
            for _ in 0..ADDS {
                counter.0.fetch_add(1, Relaxed);
            }
        }) / ADDS as f64
    });
    let private = median(|| {
        let counters = [Padded::default(), Padded::default()];
        wall_ns(2, |t| {
            for _ in 0..ADDS {
                counters[t].0.fetch_add(1, Relaxed);
            }
        }) / ADDS as f64
    });

    // 3. Independent work per thread: an xorshift loop touching no memory.
    let spin = |_| {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..SPINS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    };
    let t1 = median(|| SPINS as f64 / wall_ns(1, spin));
    let t2 = median(|| 2.0 * SPINS as f64 / wall_ns(2, spin));

    println!("cache-line hand-off: {handoff:.0} ns");
    println!(
        "fetch_add, both threads on one counter: {shared:.1} ns; each on its own: {private:.1} ns"
    );
    println!("parallel loop t1->t2 throughput ratio: {:.2}", t2 / t1);
}
