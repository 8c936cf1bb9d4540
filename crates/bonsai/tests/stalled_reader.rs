//! The stalled-reader shape: the one measurement that justifies carrying
//! the hybrid backend beside the epoch collector.
//!
//! A reader parks inside its backend's read-side protection on a second
//! thread — an epoch guard, or a hybrid pin with a validated snapshot —
//! while the main thread churns `map`/`unmap` pairs on a `RangeMap`. The
//! epoch collector cannot advance past the parked pin, so its garbage
//! peak grows with the stall window; the hybrid domain blocks only what
//! was live when the stall began, so its peak stays flat and far below.
//! Once the reader leaves and the map is dropped, both backends drain to
//! `retired == freed`, objects and bytes.

use std::sync::mpsc;
use std::thread;

use bonsai::RangeMap;
use rcukit::{Collector, HybridDomain, ReclaimBackend};

/// `map`/`unmap` pairs in the short stall window; the long one is 4×.
const PAIRS: u64 = if cfg!(miri) { 100 } else { 2_000 };
const PAGE: u64 = 0x1000;
const SLOTS: u64 = 16;

/// Churns `pairs` `map`/`unmap` pairs on a fresh map over `backend` while
/// a second thread sits parked inside the backend's read-side protection,
/// then returns the backend's peak unreclaimed bytes — after checking that
/// everything drains once the reader has left.
fn stalled_peak(backend: ReclaimBackend, pairs: u64) -> u64 {
    let map: RangeMap<u64> = RangeMap::with_backend(backend.clone());
    for slot in 0..SLOTS {
        assert!(map.map(slot * 4 * PAGE, slot * 4 * PAGE + PAGE, slot));
    }
    let (parked_tx, parked) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let reader = {
        let backend = backend.clone();
        thread::spawn(move || {
            let park = || {
                parked_tx.send(()).unwrap();
                released.recv().unwrap();
            };
            match &backend {
                ReclaimBackend::Epoch(c) => {
                    let handle = c.register();
                    let _pin = handle.pin();
                    park();
                }
                ReclaimBackend::Hybrid(d) => {
                    let pin = d.pin();
                    pin.protect(std::ptr::null_mut::<()>);
                    park();
                }
            }
        })
    };
    parked.recv().unwrap();
    for i in 0..pairs {
        let start = (i % SLOTS) * 4 * PAGE + 2 * PAGE;
        assert!(map.map(start, start + PAGE, i));
        assert_eq!(map.unmap(start), Some(i));
    }
    let peak = backend.stats().peak_unreclaimed_bytes;
    release.send(()).unwrap();
    reader.join().unwrap();
    drop(map);
    backend.synchronize();
    let s = backend.stats();
    assert!(s.objects_retired > 0, "{}: nothing retired", backend.name());
    assert_eq!(
        (s.objects_retired, s.bytes_retired),
        (s.objects_freed, s.bytes_freed),
        "{}: retirements stranded after the reader left",
        backend.name()
    );
    peak
}

#[test]
fn epoch_peak_grows_with_the_stall_window_and_hybrid_peak_does_not() {
    let epoch = |pairs| stalled_peak(ReclaimBackend::Epoch(Collector::new()), pairs);
    let hybrid = |pairs| stalled_peak(ReclaimBackend::Hybrid(HybridDomain::new()), pairs);
    let (epoch_short, epoch_long) = (epoch(PAIRS), epoch(4 * PAIRS));
    let (hybrid_short, hybrid_long) = (hybrid(PAIRS), hybrid(4 * PAIRS));
    println!(
        "peak unreclaimed bytes under a stalled reader ({PAIRS} → {} map/unmap pairs): \
         epoch {epoch_short} → {epoch_long}, hybrid {hybrid_short} → {hybrid_long}",
        4 * PAIRS
    );
    // Epoch garbage accumulates for the whole window: quadrupling it must
    // at least double the peak (conservative, to stay robust).
    assert!(
        epoch_long >= 2 * epoch_short,
        "epoch peak must scale with the stall window: {epoch_short} → {epoch_long}"
    );
    // The hybrid pin blocks only what was live when it parked, so the
    // peak must not track the window...
    assert!(
        hybrid_long <= 4 * hybrid_short.max(4096),
        "hybrid peak must not scale with the stall window: {hybrid_short} → {hybrid_long}"
    );
    // ...and must sit far below the epoch collector's.
    assert!(
        4 * hybrid_long < epoch_long,
        "hybrid peak ({hybrid_long}) must sit well below the epoch peak ({epoch_long})"
    );
}
