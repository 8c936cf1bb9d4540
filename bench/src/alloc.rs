//! A counting global allocator: how `heap_peak_bytes` and
//! `alloc.allocs_per_op` are measured without help from the subject.
//!
//! The type lives in the library so the binary and the allocator test can
//! each install it with `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Statistics only: nothing is published through these, so Relaxed.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting calls and live bytes.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(layout.size() as u64, Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap calls made so far, process-wide.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes currently allocated, process-wide.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Starts a peak measurement: everything live now (the trace buffers, in
/// the harness) is excluded from what [`HeapMark::peak_bytes`] reports.
pub fn mark() -> HeapMark {
    let base = live_bytes();
    PEAK.store(base, Relaxed);
    HeapMark { base }
}

/// The heap level a peak measurement started from.
#[derive(Clone, Copy, Debug)]
pub struct HeapMark {
    base: u64,
}

impl HeapMark {
    /// The most the heap has grown above the mark since it was taken.
    pub fn peak_bytes(self) -> u64 {
        PEAK.load(Relaxed).saturating_sub(self.base)
    }
}
