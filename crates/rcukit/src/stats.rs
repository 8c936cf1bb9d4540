//! Observability counters for a [`Collector`](crate::Collector).

/// A point-in-time snapshot of a collector's counters, from
/// [`Collector::stats`](crate::Collector::stats).
///
/// All `objects_*` counters are in units of *heap objects*: one
/// `defer_free` retires one allocation, and every pointer in a
/// `defer_recycle` batch counts individually (a PR 1 regression counted
/// the whole batch as one unit; fixed). The one opaque case is a plain
/// `defer` closure, which counts as a single object with a byte estimate
/// of zero — the collector cannot see inside it. `objects_retired -
/// objects_freed` equals the number of objects still waiting for a grace
/// period (also broken out as `pending_objects`). After a
/// [`synchronize`](crate::Collector::synchronize) with no concurrent
/// writers, retired and freed converge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Current value of the global epoch.
    pub global_epoch: u64,
    /// Total number of successful epoch advances since creation.
    pub epochs_advanced: u64,
    /// Total heap objects retired via `defer` / `defer_free` /
    /// `defer_recycle` (see the struct docs: batch pointers count
    /// individually; an opaque closure counts once).
    pub objects_retired: u64,
    /// Total heap objects reclaimed by executed retirements.
    pub objects_freed: u64,
    /// Total bytes retired, per the retirer's estimate: `defer_free`
    /// contributes the payload size, `defer_recycle` the caller's explicit
    /// byte count, an opaque `defer` closure zero.
    pub bytes_retired: u64,
    /// Total bytes reclaimed by executed retirements.
    pub bytes_freed: u64,
    /// High-water mark of `bytes_retired - bytes_freed` over the
    /// collector's lifetime — the bounded-garbage gauge: under a stalled
    /// reader this grows without bound for epoch-based reclamation, which
    /// is exactly what the `stalled-reader` benchmark profile measures.
    pub peak_unreclaimed_bytes: u64,
    /// Deferred `Call` callbacks that panicked while the reclaim loop ran
    /// them. The panic is caught inside the bag drain (the rest of the bag
    /// still reclaims, and the unit still counts as freed — its closure was
    /// consumed); a nonzero value means a retirement destructor is buggy.
    pub callback_panics: u64,
    /// Bags (local and sealed) still holding retirements.
    pub pending_bags: usize,
    /// Heap objects still waiting for their grace period.
    pub pending_objects: usize,
    /// Threads currently registered with the collector.
    pub registered_threads: usize,
    /// Number of registry shards (derived from the machine's available
    /// parallelism unless overridden by `Collector::with_shards`).
    pub registry_shards: usize,
    /// Diagnostic: total registry-lock acquisitions across all shards since
    /// creation (registration, unregistration, epoch-advance scans, and
    /// `stats` itself — one per shard per call). Counted in **debug builds
    /// only** (always 0 in release — a shared counter on the lock path
    /// would reintroduce the cross-shard cache-line traffic the sharding
    /// removed). Reader pin/unpin never moves it; the hot-path regression
    /// test asserts exactly that.
    pub registry_locks: u64,
    /// Diagnostic: total acquisitions of the registered threads' bag
    /// mutexes since creation (`defer`, bag seals, and `stats` itself —
    /// one per registered thread per call). Debug builds only, like
    /// `registry_locks`. An unpin that retired nothing never moves it.
    pub bag_locks: u64,
}

impl CollectorStats {
    /// Retirements not yet reclaimed (`objects_retired - objects_freed`).
    pub fn outstanding(&self) -> u64 {
        self.objects_retired - self.objects_freed
    }
}

#[cfg(test)]
mod tests {
    use crate::Collector;

    #[test]
    fn counters_track_retire_and_free() {
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            for _ in 0..5 {
                g.defer(|| {});
            }
        }
        let before = c.stats();
        assert_eq!(before.objects_retired, 5);
        c.synchronize();
        let after = c.stats();
        assert_eq!(after.objects_retired, 5);
        assert_eq!(after.objects_freed, 5);
        assert_eq!(after.outstanding(), 0);
        assert_eq!(after.pending_objects, 0);
        assert_eq!(after.pending_bags, 0);
        assert!(after.epochs_advanced >= 2);
        assert_eq!(after.registered_threads, 1);
        assert!(after.registry_shards >= 1);
        // Registration, advance scans, and the stats calls themselves all
        // take registry locks; the (debug-only) counter must be moving.
        if cfg!(debug_assertions) {
            assert!(after.registry_locks > before.registry_locks);
        }
    }

    #[test]
    fn panicking_callback_is_counted_and_bag_still_drains() {
        let c = Collector::new();
        let h = c.register();
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        {
            let g = h.pin();
            let r = ran.clone();
            g.defer(move || {
                r.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
            g.defer(|| panic!("deliberate callback panic"));
            let r = ran.clone();
            g.defer(move || {
                r.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        c.synchronize();
        std::panic::set_hook(prev);
        let s = c.stats();
        // The panicking unit did not abort the drain: everything freed.
        assert_eq!(s.objects_retired, 3);
        assert_eq!(s.objects_freed, 3);
        assert_eq!(s.callback_panics, 1);
        assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn default_is_zeroed() {
        let s = super::CollectorStats::default();
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.global_epoch, 0);
    }
}
