//! The benchmark's lock-serialized baseline (`bench/src/locked.rs`) keeps
//! `RangeMap`'s semantics, call for call.
//!
//! `bonsai::` below is this library as the benchmark links it, so the
//! baseline and a `RangeMap` meet behind the one `AddressSpace` trait the
//! benchmark drives.

mod tests {
    use addrspace_bench::locked::LockedAddressSpace;
    use bonsai::{AddressSpace, RangeMap};
    use rcukit::Collector;

    /// The baseline, then the subject it stands in for: every expectation
    /// below must hold on both.
    fn spaces() -> [(&'static str, Box<dyn AddressSpace>); 2] {
        [
            ("locked", Box::new(LockedAddressSpace::new())),
            ("range_map", Box::new(RangeMap::<()>::new(Collector::new()))),
        ]
    }

    #[test]
    fn mirrors_range_map_semantics() {
        for (name, s) in spaces() {
            assert!(s.map(0x2000, 0x4000), "{name}");
            // Middle, start-straddling, end-straddling, enclosing, identical.
            assert!(!s.map(0x2800, 0x3000), "{name}");
            assert!(!s.map(0x1000, 0x2001), "{name}");
            assert!(!s.map(0x3fff, 0x5000), "{name}");
            assert!(!s.map(0x1000, 0x6000), "{name}");
            assert!(!s.map(0x2000, 0x4000), "{name}");
            // Adjacent is fine.
            assert!(s.map(0x1000, 0x2000), "{name}");
            assert!(s.map(0x4000, 0x5000), "{name}");
            assert_eq!(s.regions(), 3, "{name}");

            assert!(!s.fault(0x0fff), "{name}");
            assert!(s.fault(0x1000), "{name}");
            assert!(s.fault(0x3fff), "{name}");
            assert!(!s.fault(0x5000), "{name}");

            assert!(s.unmap(0x2000), "{name}");
            assert!(!s.unmap(0x2000), "{name}");
            assert!(!s.fault(0x2800), "{name}");
        }
    }

    /// Removal of inside regions, head truncation, tail survival and the
    /// split of an enclosing region.
    #[test]
    fn unmap_range_mirrors_range_map_semantics() {
        for (name, s) in spaces() {
            assert!(s.map(0x1000, 0x3000), "{name}"); // head straddler
            assert!(s.map(0x3000, 0x4000), "{name}"); // fully inside
            assert!(s.map(0x5000, 0x8000), "{name}"); // tail straddler
            assert_eq!(s.unmap_range(0x2000, 0x6000), 3, "{name}");
            assert!(s.fault(0x1fff), "{name}");
            assert!(!s.fault(0x2000), "{name}");
            assert!(!s.fault(0x5fff), "{name}");
            assert!(s.fault(0x6000), "{name}");
            assert_eq!(s.regions(), 2, "{name}");
            assert_eq!(s.unmap_range(0x2000, 0x6000), 0, "{name}");
        }

        // Enclosing split.
        for (name, s) in spaces() {
            assert!(s.map(0x1000, 0x6000), "{name}");
            assert_eq!(s.unmap_range(0x3000, 0x4000), 1, "{name}");
            assert!(s.fault(0x2fff), "{name}");
            assert!(!s.fault(0x3000), "{name}");
            assert!(!s.fault(0x3fff), "{name}");
            assert!(s.fault(0x4000), "{name}");
            assert!(s.map(0x3000, 0x4000), "{name}");
        }
    }
}
