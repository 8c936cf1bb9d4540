//! The lock-serialized comparison baseline: a **frozen copy** of
//! `rcukit-bench`'s `RwLock<BTreeMap>` address space.
//!
//! It models the design the paper argues against: one address-space-wide
//! reader/writer lock protecting an ordered map of regions. Faults take the
//! lock shared, mutations take it exclusive. The `baseline.*` metrics replay
//! the subject's own trace against it, in the same process.

use std::collections::BTreeMap;
use std::sync::RwLock;

use bonsai::AddressSpace;

/// A `RwLock<BTreeMap>` address space: regions keyed by start address,
/// carrying their exclusive end.
#[derive(Debug, Default)]
pub struct LockedAddressSpace {
    regions: RwLock<BTreeMap<u64, u64>>,
}

impl LockedAddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AddressSpace for LockedAddressSpace {
    fn fault(&self, addr: u64) -> bool {
        let regions = self.regions.read().unwrap();
        regions
            .range(..=addr)
            .next_back()
            .is_some_and(|(_, &end)| addr < end)
    }

    fn map(&self, start: u64, end: u64) -> bool {
        assert!(start < end, "empty or inverted range {start:#x}..{end:#x}");
        let mut regions = self.regions.write().unwrap();
        if let Some((_, &pred_end)) = regions.range(..=start).next_back() {
            if pred_end > start {
                return false;
            }
        }
        if let Some((&succ_start, _)) = regions.range(start..).next() {
            if succ_start < end {
                return false;
            }
        }
        regions.insert(start, end);
        true
    }

    fn unmap(&self, start: u64) -> bool {
        self.regions.write().unwrap().remove(&start).is_some()
    }

    fn unmap_range(&self, start: u64, end: u64) -> usize {
        assert!(start < end, "empty or inverted range {start:#x}..{end:#x}");
        let mut regions = self.regions.write().unwrap();
        let mut affected = 0;
        // A region starting strictly before `start` that reaches into the
        // span: truncate it (and keep its tail if it encloses the span).
        if let Some((&a, &b)) = regions.range(..start).next_back() {
            if b > start {
                regions.insert(a, start);
                if b > end {
                    regions.insert(end, b);
                }
                affected += 1;
            }
        }
        // Regions starting inside the span: remove, keeping a tail piece
        // if one straddles `end`.
        let inside: Vec<(u64, u64)> = regions.range(start..end).map(|(&s, &e)| (s, e)).collect();
        for (s, e) in inside {
            regions.remove(&s);
            if e > end {
                regions.insert(end, e);
            }
            affected += 1;
        }
        affected
    }

    fn regions(&self) -> usize {
        self.regions.read().unwrap().len()
    }

    fn fork(&self) -> Box<dyn AddressSpace> {
        // No structural sharing to lean on: fork is a deep copy of the
        // whole region map, O(n), under the shared lock.
        Box::new(LockedAddressSpace {
            regions: RwLock::new(self.regions.read().unwrap().clone()),
        })
    }
}
