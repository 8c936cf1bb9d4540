//! The benchmark's built-in configuration: the workload table
//! `bench/src/trace.rs` ships and the `--quick` variant of each entry.

mod tests {
    use addrspace_bench::trace::{Workload, PAGE, PAGES_PER_SLOT, THREADS, WORKLOADS};

    // A region never outgrows the packed op's 12-bit length field.
    const _: () = assert!(PAGES_PER_SLOT < 1 << 12);

    /// Every shipped workload, full size and `--quick`, is one the
    /// generator and the replay loop can run as documented.
    #[test]
    fn defaults_are_valid() {
        // The command line's default workload is the table's first entry,
        // and every entry is reachable by its name.
        assert_eq!(WORKLOADS[0].name, "fault-scan");
        for w in &WORKLOADS {
            let found = Workload::by_name(w.name).map(|f| f.name);
            assert_eq!(found, Some(w.name));
        }
        assert!(Workload::by_name("metis").is_none());

        for w in WORKLOADS.iter().flat_map(|w| [*w, w.quick()]) {
            let name = w.name;
            // The generator keeps about half the slots mapped, so it needs
            // two; no address outgrows the packed op's 48 bits.
            assert!(w.slots_per_thread >= 2, "{name}");
            assert!(w.span() < 1 << 48, "{name}");
            assert_eq!(
                w.span(),
                THREADS as u64 * w.slots_per_thread * PAGES_PER_SLOT * PAGE
            );
            assert!(w.cycle_ops > 0, "{name}");
            assert!(
                w.cycles_t1 > 0 && w.cycles_t2 > 0 && w.cycles_lat > 0,
                "{name}"
            );
            assert!(!w.phases.is_empty(), "{name}");
            match w.forks {
                // A lifecycle is one phase period, every chunk of the cycle
                // is a full lifecycle, and a thread forks more children
                // than its ring holds, so exits happen.
                Some(shape) => {
                    assert_eq!(w.period, shape.chunk, "{name}");
                    assert_eq!(w.cycle_ops % shape.chunk, 0, "{name}");
                    assert!(shape.live >= 1, "{name}");
                    assert!(w.cycle_ops / shape.chunk > shape.live, "{name}");
                }
                None => assert_eq!(w.period, 0, "{name}: phases span the whole cycle"),
            }
        }

        // `--quick` shrinks the work, never the geometry or the mix.
        for w in &WORKLOADS {
            let q = w.quick();
            assert_eq!(q.slots_per_thread, w.slots_per_thread, "{}", w.name);
            assert_eq!(q.period, w.period, "{}", w.name);
            assert_eq!(q.phases.len(), w.phases.len(), "{}", w.name);
            assert!(q.cycle_ops <= w.cycle_ops, "{}", w.name);
            assert_eq!(
                (q.cycles_t1, q.cycles_t2, q.cycles_lat),
                (1, 1, 1),
                "{}",
                w.name
            );
        }
    }
}
