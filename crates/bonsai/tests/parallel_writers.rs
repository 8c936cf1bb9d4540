//! The parallel-writer acceptance tests: multiple threads issuing
//! `map`/`unmap` on disjoint spans make progress concurrently to a fixed
//! op count while a reader observes no lost keys; overlapping maps still
//! admit exactly one winner; and every retirement is reclaimed after the
//! final synchronize.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Barrier};
use std::thread;

use bonsai::RangeMap;
use rcukit::{Collector, ReclaimBackend};

/// xorshift64* — the workspace carries no external dependencies.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

const PAGE: u64 = 0x1000;
const WRITERS: usize = if cfg!(miri) { 2 } else { 4 };
const WRITER_OPS: usize = if cfg!(miri) { 200 } else { 4_000 };

/// N writer threads each churn their **own** arena of slots (disjoint
/// address spans) for a fixed op count while a reader hammers a set of
/// permanent regions in a separate arena. All writers must complete their
/// quota (progress), the reader must never lose a permanent region or see
/// a foreign payload, no writer may wait for a writer slot (the map has
/// twice as many as there are writers), and reclamation must fully drain.
#[test]
fn disjoint_writers_make_progress_concurrently() {
    let collector = Collector::new();
    let backend = ReclaimBackend::Epoch(collector.clone());
    let map: Arc<RangeMap<u64>> = Arc::new(RangeMap::with_slots(backend, 2 * WRITERS));

    // Permanent regions live in arena 0; writer t churns arena t + 1.
    const SLOTS: u64 = 64;
    let arena_bytes = SLOTS * 8 * PAGE;
    for i in 0..SLOTS {
        let start = i * 8 * PAGE;
        assert!(map.map(start, start + 4 * PAGE, i));
    }

    let start_barrier = Arc::new(Barrier::new(WRITERS + 1));
    let done = Arc::new(AtomicBool::new(false));
    let lost = Arc::new(AtomicUsize::new(0));

    let mut writers = Vec::new();
    for t in 0..WRITERS {
        let map = Arc::clone(&map);
        let start_barrier = Arc::clone(&start_barrier);
        writers.push(thread::spawn(move || {
            let base = (t as u64 + 1) * arena_bytes;
            let mut rng = Rng(0x9E37_0000 + t as u64);
            start_barrier.wait();
            let mut completed = 0usize;
            while completed < WRITER_OPS {
                let slot = rng.next() % SLOTS;
                let start = base + slot * 8 * PAGE;
                // Toggle the slot; a multi-slot unmap_range now and then
                // exercises the split path under concurrency.
                if rng.next().is_multiple_of(16) {
                    map.unmap_range(start, start + 8 * PAGE);
                } else if map.unmap(start).is_none() {
                    let pages = 1 + rng.next() % 4;
                    assert!(
                        map.map(start, start + pages * PAGE, base + slot),
                        "mapping a slot this writer owns failed"
                    );
                }
                completed += 1;
            }
            completed
        }));
    }

    let reader = {
        let map = Arc::clone(&map);
        let done = Arc::clone(&done);
        let lost = Arc::clone(&lost);
        thread::spawn(move || {
            let mut rng = Rng(0xD15C_0BEE);
            let mut lookups = 0usize;
            while !done.load(SeqCst) {
                let guard = map.pin();
                let i = rng.next() % SLOTS;
                let addr = i * 8 * PAGE + rng.next() % (4 * PAGE);
                match map.lookup(addr, &guard) {
                    Some(&v) if v == i => {}
                    _ => {
                        lost.fetch_add(1, SeqCst);
                    }
                }
                lookups += 1;
            }
            lookups
        })
    };

    start_barrier.wait();
    for w in writers {
        // Progress: every writer completes its fixed quota. A deadlock or
        // livelock among the writers would hang the join (and the test
        // harness's timeout would flag it).
        assert_eq!(w.join().unwrap(), WRITER_OPS);
    }
    done.store(true, SeqCst);
    let lookups = reader.join().unwrap();

    assert_eq!(
        lost.load(SeqCst),
        0,
        "reader lost a permanent region or saw a foreign payload"
    );
    assert!(lookups > 0, "reader made no progress during the churn");
    assert_eq!(
        map.slot_waits(),
        0,
        "a writer waited for a slot with slots to spare"
    );

    // Permanent regions intact; reclamation drains fully.
    let guard = map.pin();
    for i in 0..SLOTS {
        assert_eq!(map.lookup(i * 8 * PAGE, &guard), Some(&i));
    }
    drop(guard);
    collector.synchronize();
    let stats = collector.stats();
    assert_eq!(
        stats.objects_retired, stats.objects_freed,
        "outstanding garbage after final synchronize: {stats:?}"
    );
    assert_eq!(stats.pending_objects, 0);
}

/// Overlapping maps admit exactly one: two threads race to map
/// overlapping spans each round; exactly one must win, the other must be
/// rejected by the overlap check — in every round, which is only possible
/// if the check and the insert commit together (the check is the plan of
/// the insert's own rebuild, re-run after every lost root CAS).
#[test]
fn overlapping_maps_admit_exactly_one_winner() {
    const ROUNDS: usize = if cfg!(miri) { 50 } else { 1_000 };
    let collector = Collector::new();
    let map: Arc<RangeMap<usize>> = Arc::new(RangeMap::new(collector.clone()));
    let round_start = Arc::new(Barrier::new(2));
    let round_end = Arc::new(Barrier::new(2));
    let wins = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);

    let mut threads = Vec::new();
    for t in 0..2 {
        let map = Arc::clone(&map);
        let round_start = Arc::clone(&round_start);
        let round_end = Arc::clone(&round_end);
        let wins = Arc::clone(&wins);
        threads.push(thread::spawn(move || {
            for round in 0..ROUNDS {
                round_start.wait();
                // Same span, straddling offsets so the overlap is partial
                // in one direction and total in the other.
                let (start, end) = if t == 0 {
                    (0x1000, 0x3000)
                } else {
                    (0x2000, 0x4000)
                };
                if map.map(start, end, t) {
                    wins[t].fetch_add(1, SeqCst);
                }
                round_end.wait();
                // Thread 0 referees between rounds: exactly one region
                // exists; clear it for the next round.
                if t == 0 {
                    let regions = map.to_vec();
                    assert_eq!(
                        regions.len(),
                        1,
                        "round {round}: overlap admitted both mappers: {:?}",
                        regions.iter().map(|&(s, e, _)| (s, e)).collect::<Vec<_>>()
                    );
                    let (start, end, owner) = regions[0];
                    assert!(
                        (start, end) == (0x1000, 0x3000) && owner == 0
                            || (start, end) == (0x2000, 0x4000) && owner == 1,
                        "round {round}: winner's region is torn: {start:#x}..{end:#x} owner {owner}"
                    );
                    assert_eq!(map.unmap_range(0x1000, 0x4000), 1);
                }
                round_start.wait(); // referee done
                round_end.wait();
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let (w0, w1) = (wins[0].load(SeqCst), wins[1].load(SeqCst));
    assert_eq!(w0 + w1, ROUNDS, "every round must have exactly one winner");
    collector.synchronize();
    let stats = collector.stats();
    assert_eq!(stats.objects_retired, stats.objects_freed);
}
