//! `heap_peak_bytes` must not count the trace buffers: whatever is live
//! when the mark is taken is excluded, and stays excluded when freed later.
//!
//! One test only: the counters are process-wide.

use addrspace_bench::alloc::{self, CountingAlloc};
use addrspace_bench::trace::WORKLOADS;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

#[test]
fn buffers_allocated_before_the_mark_are_excluded() {
    const MB: u64 = 1 << 20;
    let cycles = WORKLOADS[2].cycles(42);
    let trace_bytes: u64 = cycles.iter().map(|c| c.len() as u64 * 8).sum();
    assert!(trace_bytes > MB, "the trace buffers should dwarf the probe");
    assert!(alloc::live_bytes() >= trace_bytes);

    let mark = alloc::mark();
    assert_eq!(mark.peak_bytes(), 0);

    let calls = alloc::allocs();
    let subject_like = vec![0u8; MB as usize];
    assert_eq!(alloc::allocs(), calls + 1);
    assert!(mark.peak_bytes() >= MB && mark.peak_bytes() < MB + MB / 8);
    drop(subject_like);
    assert!(mark.peak_bytes() >= MB, "a peak does not come down");

    // Freeing the trace afterwards must not wrap the reading around.
    drop(cycles);
    assert!(mark.peak_bytes() < MB + MB / 8);
}
