//! A backend abstraction over address-space implementations.
//!
//! The paper's evaluation compares the RCU Bonsai-tree address space
//! against a lock-serialized one by running the *same* page-fault/mmap/
//! munmap workload over both. [`AddressSpace`] is that seam: anything
//! that can resolve a fault and mutate its mapping set can be driven by
//! the benchmark's trace replayer (`bench/`), so the RCU [`RangeMap`] and
//! a `RwLock<BTreeMap>` baseline are interchangeable behind one trait.
//!
//! The trait is deliberately guard-free: `fault` takes a bare address and
//! returns whether a mapped region contains it. The [`RangeMap`]
//! implementation pins internally per fault — exactly what a page-fault
//! handler would do — so the cost of entering a read-side critical
//! section is part of what the benchmark measures.

use crate::range_map::RangeMap;

/// An address space that can serve page faults and `mmap`/`munmap`-style
/// mutations.
///
/// Implementations must be shareable across threads; the benchmark drives
/// one instance from many faulting **and mutating** threads concurrently —
/// mutations on the [`RangeMap`] backend genuinely run in parallel, with
/// the root CAS alone ordering them.
///
/// Region semantics follow [`RangeMap`]: ranges are half-open
/// `[start, end)`, `map` refuses overlaps, `unmap` removes the region
/// whose start is exactly `start`, and [`unmap_range`](Self::unmap_range)
/// clears a whole span, splitting and truncating straddling regions.
///
/// # Snapshot semantics under concurrent writers
///
/// Every method linearizes per call, but values derived from multiple
/// reads — [`regions`](Self::regions) most visibly — are *snapshots*: by
/// the time the caller inspects the result, concurrent writers may have
/// changed the mapping set. Benchmark invariants are therefore asserted
/// only at quiescent points (after joins / a final `synchronize`), never
/// mid-replay.
pub trait AddressSpace: Send + Sync {
    /// Serves a page fault at `addr`: returns `true` if a mapped region
    /// contains the address (the fault would succeed), `false` if it would
    /// be a segmentation fault.
    fn fault(&self, addr: u64) -> bool;

    /// Maps `[start, end)`. Returns `false` (mapping nothing) if the range
    /// overlaps an existing region.
    fn map(&self, start: u64, end: u64) -> bool;

    /// Unmaps the region starting exactly at `start`, returning whether a
    /// region was removed.
    fn unmap(&self, start: u64) -> bool;

    /// Unmaps every byte in `[start, end)`, removing regions inside the
    /// span and splitting/truncating regions straddling its edges. Returns
    /// the number of regions removed or truncated (`0`: nothing mapped
    /// there).
    fn unmap_range(&self, start: u64, end: u64) -> usize;

    /// Number of currently mapped regions.
    fn regions(&self) -> usize;

    /// Forks the address space: the child starts with an identical mapping
    /// set and the two diverge independently — the `fork()` of the process
    /// analogy. On the [`RangeMap`] backend this is an O(depth) structural-
    /// sharing snapshot (see [`RangeMap::fork`]); a lock-serialized
    /// implementation deep-copies under its exclusive lock, which is
    /// exactly the asymmetry the fork-storm benchmark profile measures.
    fn fork(&self) -> Box<dyn AddressSpace>;
}

impl<V> AddressSpace for RangeMap<V>
where
    V: Default + Clone + Send + Sync + 'static,
{
    fn fault(&self, addr: u64) -> bool {
        self.contains(addr)
    }

    fn map(&self, start: u64, end: u64) -> bool {
        RangeMap::map(self, start, end, V::default())
    }

    fn unmap(&self, start: u64) -> bool {
        RangeMap::unmap(self, start).is_some()
    }

    fn unmap_range(&self, start: u64, end: u64) -> usize {
        RangeMap::unmap_range(self, start, end)
    }

    fn regions(&self) -> usize {
        self.len()
    }

    fn fork(&self) -> Box<dyn AddressSpace> {
        Box::new(RangeMap::fork(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcukit::Collector;

    #[test]
    fn range_map_behind_trait_object() {
        let space: Box<dyn AddressSpace> = Box::new(RangeMap::<()>::new(Collector::new()));
        assert!(space.map(0x1000, 0x3000));
        assert!(!space.map(0x2000, 0x4000));
        assert!(space.fault(0x2fff));
        assert!(!space.fault(0x3000));
        assert_eq!(space.regions(), 1);
        assert!(space.unmap(0x1000));
        assert!(!space.unmap(0x1000));
        assert!(!space.fault(0x2fff));
        // The multi-region span path is reachable through the trait too.
        assert!(space.map(0x1000, 0x3000));
        assert_eq!(space.unmap_range(0x2000, 0x4000), 1);
        assert!(space.fault(0x1fff));
        assert!(!space.fault(0x2000));
    }
}
