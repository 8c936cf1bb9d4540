//! The pluggable retire/reclaim contract: one handle type over the two
//! reclamation backends, so the `bonsai` tree chooses a
//! memory-reclamation strategy at construction time instead of
//! hard-coding the epoch collector.
//!
//! | backend | protection | garbage bound under a stalled reader |
//! |---------|------------|--------------------------------------|
//! | [`Epoch`](ReclaimBackend::Epoch) | pinned critical sections (grace periods) | **unbounded** — one stuck pin blocks every later retirement |
//! | [`Hybrid`](ReclaimBackend::Hybrid) | pinned era intervals (IBR) | the stall-time live set — new retirements route around the stalled pin (budgeted, observable via `stall_events`/`degraded_ops`) |
//!
//! The enum is deliberately not a trait object: the backends' read-side
//! protocols differ (epoch readers hold a [`Guard`](crate::Guard), hybrid
//! readers pin an interval and validate their snapshot root with
//! [`HybridGuard::protect`](crate::HybridGuard::protect)), and callers
//! dispatch on the variant exactly where those protocols diverge.
//!
//! # Share-aware retirement (what "retired" promises)
//!
//! Every backend's retire path assumes one thing of its callers: a
//! retired object is **unreachable from every published entry point** at
//! the moment of the retire call, so only readers already inside a
//! critical section can still hold it — the grace condition then covers
//! exactly those readers. Callers whose objects are shared between
//! several entry points (the `bonsai` tree's structurally-shared forks,
//! where one node may be reachable from many roots) must therefore retire
//! an object only when its *last* referent drops it — which is why the
//! tree retires through per-node reference counts and hands a node over
//! only at count zero, never merely "when this lineage replaced it". The
//! backends themselves need no change for sharing: reachability
//! bookkeeping happens above, the grace period below, and this line is
//! the contract between them (`docs/CONCURRENCY.md` §9).

use std::fmt;
use std::sync::atomic::Ordering::Relaxed;

use crate::sync::atomic::AtomicU64;
use crate::{Collector, HybridDomain};

/// Tracks a byte-count increase against its high-water mark.
///
/// Shared by both backends' retire paths. Written as a CAS loop, not
/// `fetch_max`: the sync facade (and the model checker behind it) exposes
/// only the audited RMW surface, and a lost race here merely under-reports
/// a transient peak by one in-flight retirement.
pub(crate) fn note_unreclaimed(cur: &AtomicU64, peak: &AtomicU64, bytes: u64) {
    if bytes == 0 {
        return;
    }
    // ordering: Relaxed — statistics counter; the value feeds no safety
    // decision.
    let now = cur.fetch_add(bytes, Relaxed) + bytes;
    // ordering: Relaxed (all) — monotone max maintenance on a statistics
    // counter; no data is published through it.
    let mut seen = peak.load(Relaxed);
    while seen < now {
        match peak.compare_exchange(seen, now, Relaxed, Relaxed) {
            Ok(_) => break,
            Err(s) => seen = s,
        }
    }
}

/// A unified counter snapshot across backends (each backend's native stats
/// carry more detail; these are the comparable core).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Total heap objects retired (batch pointers count individually).
    pub objects_retired: u64,
    /// Total heap objects reclaimed.
    pub objects_freed: u64,
    /// Total bytes retired, per retirer estimates.
    pub bytes_retired: u64,
    /// Total bytes reclaimed.
    pub bytes_freed: u64,
    /// High-water mark of `bytes_retired - bytes_freed` — the
    /// bounded-garbage gauge the stalled-reader shape test
    /// (`bonsai/tests/stalled_reader.rs`) compares across backends.
    pub peak_unreclaimed_bytes: u64,
    /// Times a reader pin was declared stalled (hybrid backend only; the
    /// epoch backend reports 0 — it has no degradation protocol).
    pub stall_events: u64,
    /// Retirements performed while a stalled pin was active (hybrid
    /// backend only).
    pub degraded_ops: u64,
}

impl ReclaimStats {
    /// Objects retired but not yet reclaimed.
    pub fn outstanding(&self) -> u64 {
        self.objects_retired - self.objects_freed
    }
}

/// A handle to one of the two reclamation backends.
///
/// Cheaply clonable (each variant is itself a cheap handle); clones refer
/// to the same underlying domain.
#[derive(Clone, PartialEq, Eq)]
pub enum ReclaimBackend {
    /// Epoch-based reclamation: readers pin, retirements wait out a grace
    /// period of two epoch advances.
    Epoch(Collector),
    /// Hybrid interval-based reclamation: epoch-cheap pins that degrade
    /// gracefully (budgeted, observable) under a stalled reader.
    Hybrid(HybridDomain),
}

impl ReclaimBackend {
    /// The backend's stable name (`"epoch"` / `"hybrid"`).
    pub fn name(&self) -> &'static str {
        match self {
            ReclaimBackend::Epoch(_) => "epoch",
            ReclaimBackend::Hybrid(_) => "hybrid",
        }
    }

    /// Drains everything currently drainable, blocking where the backend's
    /// contract requires it:
    ///
    /// * epoch — waits out a full grace period (the calling thread must not
    ///   be pinned);
    /// * hybrid — runs one scan (no grace period exists; whatever a live
    ///   pin's interval overlaps remains — the budgeted blocked set).
    pub fn synchronize(&self) {
        match self {
            ReclaimBackend::Epoch(c) => c.synchronize(),
            ReclaimBackend::Hybrid(d) => d.synchronize(),
        }
    }

    /// One non-blocking reclamation step (epoch advance + reclaim, or an
    /// interval scan). Returns objects freed.
    pub fn collect(&self) -> usize {
        match self {
            ReclaimBackend::Epoch(c) => c.collect(),
            ReclaimBackend::Hybrid(d) => d.scan(),
        }
    }

    /// The unified counter snapshot.
    pub fn stats(&self) -> ReclaimStats {
        match self {
            ReclaimBackend::Epoch(c) => {
                let s = c.stats();
                ReclaimStats {
                    objects_retired: s.objects_retired,
                    objects_freed: s.objects_freed,
                    bytes_retired: s.bytes_retired,
                    bytes_freed: s.bytes_freed,
                    peak_unreclaimed_bytes: s.peak_unreclaimed_bytes,
                    ..Default::default()
                }
            }
            ReclaimBackend::Hybrid(d) => ReclaimStats {
                objects_retired: d.retired(),
                objects_freed: d.freed(),
                bytes_retired: d.bytes_retired(),
                bytes_freed: d.bytes_freed(),
                peak_unreclaimed_bytes: d.peak_unreclaimed_bytes(),
                stall_events: d.stall_events(),
                degraded_ops: d.degraded_ops(),
            },
        }
    }

    /// The epoch collector, if that is the wrapped backend.
    pub fn as_epoch(&self) -> Option<&Collector> {
        match self {
            ReclaimBackend::Epoch(c) => Some(c),
            _ => None,
        }
    }

    /// The hybrid domain, if that is the wrapped backend.
    pub fn as_hybrid(&self) -> Option<&HybridDomain> {
        match self {
            ReclaimBackend::Hybrid(d) => Some(d),
            _ => None,
        }
    }
}

impl fmt::Debug for ReclaimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ReclaimBackend").field(&self.name()).finish()
    }
}

impl From<Collector> for ReclaimBackend {
    fn from(c: Collector) -> Self {
        ReclaimBackend::Epoch(c)
    }
}

impl From<HybridDomain> for ReclaimBackend {
    fn from(d: HybridDomain) -> Self {
        ReclaimBackend::Hybrid(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;

    #[test]
    fn peak_tracks_high_water_mark() {
        let cur = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        note_unreclaimed(&cur, &peak, 10);
        note_unreclaimed(&cur, &peak, 5);
        assert_eq!(peak.load(Relaxed), 15);
        // Drain and retire less: the peak must hold.
        cur.fetch_sub(15, Relaxed);
        note_unreclaimed(&cur, &peak, 3);
        assert_eq!(peak.load(Relaxed), 15);
        assert_eq!(cur.load(Relaxed), 3);
    }

    #[test]
    fn every_backend_drains_at_synchronize() {
        for backend in [
            ReclaimBackend::Epoch(Collector::new()),
            ReclaimBackend::Hybrid(HybridDomain::new()),
        ] {
            let fired = Arc::new(AtomicUsize::new(0));
            for _ in 0..4 {
                let f = Arc::clone(&fired);
                let callback = move || {
                    f.fetch_add(1, SeqCst);
                };
                match &backend {
                    ReclaimBackend::Epoch(c) => c.register().pin().defer(callback),
                    ReclaimBackend::Hybrid(d) => d.defer(callback),
                }
            }
            backend.synchronize();
            assert_eq!(fired.load(SeqCst), 4, "{} did not drain", backend.name());
            let s = backend.stats();
            assert_eq!(s.objects_retired, 4);
            assert_eq!(s.objects_freed, 4);
            assert_eq!(s.outstanding(), 0);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ReclaimBackend::from(Collector::new()).name(), "epoch");
        assert_eq!(ReclaimBackend::from(HybridDomain::new()).name(), "hybrid");
    }
}
