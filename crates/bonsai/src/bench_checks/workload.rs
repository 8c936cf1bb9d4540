//! The benchmark's trace generator (`bench/src/trace.rs`): deterministic,
//! true to each workload's phase table, and valid by construction against
//! the prefill, so a refused `map` or a missed `unmap` in a replay is a bug
//! in the address space, never in its input.

mod tests {
    use addrspace_bench::trace::{Op, Phase, Workload, THREADS, WORKLOADS};

    /// Generated ops per thread; enough for 2 % absolute tolerances.
    const OPS: usize = 100_000;
    const SEED: u64 = 42;

    fn sized(w: &Workload) -> Workload {
        Workload {
            cycle_ops: OPS,
            ..*w
        }
    }

    fn workload(name: &str) -> Workload {
        sized(Workload::by_name(name).expect("a shipped workload"))
    }

    /// Thread `t`'s generated ops, without the tail that closes the cycle.
    fn generated(w: &Workload, seed: u64, t: usize) -> Vec<Op> {
        w.thread_cycle(seed, t)[..w.cycle_ops]
            .iter()
            .map(|p| p.op())
            .collect()
    }

    fn share(ops: &[Op], pred: impl Fn(&Op) -> bool) -> f64 {
        ops.iter().filter(|o| pred(o)).count() as f64 / ops.len() as f64
    }

    fn fault_share(ops: &[Op]) -> f64 {
        share(ops, |o| matches!(o, Op::Fault(_)))
    }

    /// Share of the faults in `ops` that land outside thread 0's arena.
    fn outside_share(w: &Workload, ops: &[Op]) -> f64 {
        let faults: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Fault(a) => Some(*a),
                _ => None,
            })
            .collect();
        let outside = faults.iter().filter(|&&a| a >= w.arena_bytes()).count();
        outside as f64 / faults.len() as f64
    }

    #[test]
    fn same_seed_same_trace() {
        for w in WORKLOADS.iter().map(sized) {
            for t in 0..THREADS {
                assert_eq!(
                    w.thread_cycle(SEED, t),
                    w.thread_cycle(SEED, t),
                    "{}/{t}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn different_seeds_and_threads_diverge() {
        let w = workload("mixed-metis");
        assert_ne!(w.thread_cycle(SEED, 0), w.thread_cycle(SEED + 1, 0));
        assert_ne!(w.thread_cycle(SEED, 0), w.thread_cycle(SEED, 1));
    }

    #[test]
    fn mix_ratios_within_tolerance() {
        for w in WORKLOADS.iter().map(sized) {
            let ops = generated(&w, SEED, 0);
            // The trace-wide mix is the `ops_ppk`-weighted blend of the
            // phases (every phase recurs in each period).
            let blend = |pick: fn(&Phase) -> u32| {
                let weighted: u32 = w.phases.iter().map(|p| p.ops_ppk * pick(p)).sum();
                weighted as f64 / (1024.0 * 1024.0)
            };
            let expected = [blend(|p| p.mix.0), blend(|p| p.mix.1), blend(|p| p.mix.2)];
            let actual = [
                fault_share(&ops),
                share(&ops, |o| matches!(o, Op::Map(..))),
                share(&ops, |o| matches!(o, Op::Unmap(_) | Op::UnmapRange(..))),
            ];
            // Map and unmap trade places when the wanted kind is impossible
            // (and a ranged unmap can clear two slots), so 2 % absolute on
            // 100k ops: wide enough for the RNG, tight enough to catch a
            // drifted mix.
            for (kind, (e, a)) in ["fault", "map", "unmap"]
                .iter()
                .zip(expected.iter().zip(actual))
            {
                assert!(
                    (a - e).abs() < 0.02,
                    "{}: {kind} share {a}, expected {e}",
                    w.name
                );
            }
        }
    }

    /// A phase table switches the mix and the fault locality at its
    /// boundary: a Metis-like map phase (allocation-heavy, faults at home)
    /// then reduce phase (fault-heavy, faults roaming the shared span), and
    /// the shipped fork-storm's exec/run shift inside every lifecycle.
    #[test]
    fn metis_phased_shifts_mix_and_locality_mid_trace() {
        const METIS_PHASED: &[Phase] = &[
            Phase {
                ops_ppk: 512,
                mix: (256, 384, 384),
                locality: 921,
            },
            Phase {
                ops_ppk: 512,
                mix: (922, 51, 51),
                locality: 205,
            },
        ];
        let w = Workload {
            name: "metis-phased",
            phases: METIS_PHASED,
            ..workload("mixed-metis")
        };
        let ops = generated(&w, SEED, 0);
        let (map_phase, reduce_phase) = ops.split_at(ops.len() / 2);
        let (map_faults, reduce_faults) = (fault_share(map_phase), fault_share(reduce_phase));
        assert!(
            (map_faults - 0.25).abs() < 0.02,
            "map-phase fault share {map_faults}"
        );
        assert!(
            (reduce_faults - 0.90).abs() < 0.02,
            "reduce-phase fault share {reduce_faults}"
        );
        // Two arenas: a whole-span draw leaves thread 0's own half of the
        // time, so the outside share is (1 - locality) / 2 per phase:
        // about 0.05, then about 0.40.
        assert!(outside_share(&w, map_phase) < 0.15, "map phase roamed");
        assert!(
            outside_share(&w, reduce_phase) > 0.3,
            "reduce phase stayed local"
        );

        let fork = workload("fork-storm");
        let chunk = fork.forks.expect("fork-storm forks").chunk;
        let exec_len = chunk * fork.phases[0].ops_ppk as usize / 1024;
        let (mut exec, mut run) = (Vec::new(), Vec::new());
        for (i, op) in generated(&fork, SEED, 0).into_iter().enumerate() {
            if i % chunk < exec_len {
                exec.push(op);
            } else {
                run.push(op);
            }
        }
        for (ops, phase) in [(&exec, &fork.phases[0]), (&run, &fork.phases[1])] {
            let expected = phase.mix.0 as f64 / 1024.0;
            let actual = fault_share(ops);
            assert!(
                (actual - expected).abs() < 0.02,
                "fork-storm fault share {actual}, expected {expected}"
            );
        }
        assert_eq!(
            outside_share(&fork, &exec),
            0.0,
            "exec faults left the own arena"
        );
        assert!(
            outside_share(&fork, &run) > 0.05,
            "run faults never left the own arena"
        );
    }

    /// Every phase table covers its period exactly once, every mix is
    /// complete, and every phase boundary falls on a whole op.
    #[test]
    fn phase_tables_are_consistent() {
        for w in WORKLOADS.iter().flat_map(|w| [*w, w.quick()]) {
            assert_eq!(
                w.phases.iter().map(|p| p.ops_ppk).sum::<u32>(),
                1024,
                "{}",
                w.name
            );
            for p in w.phases {
                assert_eq!(p.mix.0 + p.mix.1 + p.mix.2, 1024, "{}", w.name);
                assert!(p.locality <= 1024, "{}", w.name);
            }
            let period = if w.period == 0 { w.cycle_ops } else { w.period };
            let mut boundary = 0;
            for p in w.phases {
                boundary += p.ops_ppk as usize;
                assert_eq!(
                    boundary * period % 1024,
                    0,
                    "{}: boundary inside an op",
                    w.name
                );
            }
        }
    }

    /// Ranged unmaps occur, in both shapes: truncating (starting mid-region,
    /// the kernel's VMA split) and removing (starting at a region start).
    #[test]
    fn ranged_unmaps_cover_truncation_and_removal() {
        let w = workload("mmap-churn");
        let (mut truncating, mut removing) = (0usize, 0usize);
        for t in 0..THREADS {
            for op in generated(&w, SEED, t) {
                if let Op::UnmapRange(lo, _) = op {
                    let rel = lo - w.slot_start(t, 0);
                    if rel.is_multiple_of(w.slot_bytes()) {
                        removing += 1;
                    } else {
                        truncating += 1;
                    }
                }
            }
        }
        assert!(
            truncating > 0,
            "no mid-region (VMA-splitting) spans generated"
        );
        assert!(removing > 0, "no region-start spans generated");
    }

    /// mmap-churn carries the writers mix (0, 512, 512): pure mutation, no
    /// fault at all, ranged unmaps included.
    #[test]
    fn writers_profile_has_no_faults() {
        let w = workload("mmap-churn");
        assert_eq!(w.phases[0].mix, (0, 512, 512));
        for t in 0..THREADS {
            let cycle: Vec<Op> = w.thread_cycle(SEED, t).iter().map(|p| p.op()).collect();
            assert!(
                !cycle.iter().any(|o| matches!(o, Op::Fault(_))),
                "mmap-churn generated a fault"
            );
            assert!(cycle.iter().any(|o| matches!(o, Op::UnmapRange(..))));
        }
    }

    /// Replaying a cycle against an exact extent model from the prefill
    /// never maps a mapped slot, unmaps an unmapped one, or emits a ranged
    /// span that misses every region; and the cycle's closing tail returns
    /// every slot to the prefill.
    #[test]
    fn traces_are_valid_against_the_initial_state() {
        for w in WORKLOADS.iter().map(sized) {
            let name = w.name;
            let slot_bytes = w.slot_bytes();
            for t in 0..THREADS {
                let arena_base = w.slot_start(t, 0);
                let arena_end = arena_base + w.arena_bytes();
                let slot_of = |addr: u64| ((addr - arena_base) / slot_bytes) as usize;
                let mut initial = vec![None; w.slots_per_thread as usize];
                for (start, end) in w.initial_regions() {
                    if (arena_base..arena_end).contains(&start) {
                        initial[slot_of(start)] = Some(end);
                    }
                }
                let mut extents = initial.clone();
                for packed in w.thread_cycle(SEED, t) {
                    match packed.op() {
                        Op::Fault(addr) => assert!(addr < w.span(), "{name}"),
                        Op::Map(start, end) => {
                            assert!(start >= arena_base && end <= arena_end, "{name}");
                            assert!((start - arena_base).is_multiple_of(slot_bytes), "{name}");
                            assert!(start < end && end - start <= slot_bytes, "{name}");
                            let slot = slot_of(start);
                            assert!(extents[slot].is_none(), "{name}: double map");
                            extents[slot] = Some(end);
                        }
                        Op::Unmap(start) => {
                            assert!((start - arena_base).is_multiple_of(slot_bytes), "{name}");
                            let slot = slot_of(start);
                            assert!(extents[slot].is_some(), "{name}: unmap of unmapped");
                            extents[slot] = None;
                        }
                        Op::UnmapRange(lo, hi) => {
                            // Arena-local, slot-aligned end, non-empty.
                            assert!(lo < hi, "{name}: empty span");
                            assert!(lo >= arena_base && hi <= arena_end, "{name}");
                            assert!((hi - arena_base).is_multiple_of(slot_bytes), "{name}");
                            // The anchor region exists and is affected: `lo`
                            // lies strictly below its current end.
                            let slot = slot_of(lo);
                            let end = extents[slot].unwrap_or_else(|| {
                                panic!("{name}: ranged span anchored on an unmapped slot")
                            });
                            assert!(lo < end, "{name}: span misses the anchor region");
                            // Truncation keeps the head piece.
                            extents[slot] = (lo > w.slot_start(t, slot as u64)).then_some(lo);
                            // Following slots inside the span are cleared
                            // entirely (regions never straddle slots).
                            for e in extents.iter_mut().take(slot_of(hi)).skip(slot + 1) {
                                *e = None;
                            }
                        }
                    }
                }
                assert_eq!(extents, initial, "{name}/{t}: the cycle does not close");
            }
        }
    }

    /// The generator refuses an op its packed format cannot carry (an
    /// address past 48 bits) instead of wrapping it silently, and the
    /// workload table refuses names it does not ship.
    #[test]
    fn validation_rejects_degenerate_specs() {
        let w = workload("mixed-metis");
        let arenas_that_pack = (1u64 << 48) / w.arena_bytes();
        // The last arena wholly below 2^48 generates fine...
        w.thread_cycle(SEED, arenas_that_pack as usize - 1);
        // ...the first one past it is refused.
        let refused =
            std::panic::catch_unwind(|| w.thread_cycle(SEED, arenas_that_pack as usize + 1))
                .expect_err("an arena past 2^48 must not generate");
        let message = refused.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            message.contains("does not pack"),
            "unexpected panic: {message:?}"
        );

        for unknown in ["", "metis", "uniform", "writers", "Fault-Scan"] {
            assert!(Workload::by_name(unknown).is_none(), "{unknown:?}");
        }
    }

    #[test]
    fn uniform_profile_has_no_locality() {
        // With locality 0 every fault draws from the whole span, so about
        // half land outside thread 0's arena; the shipped fault-scan
        // (locality 819) keeps about 0.1 out.
        const UNIFORM: &[Phase] = &[Phase {
            ops_ppk: 1024,
            mix: (922, 51, 51),
            locality: 0,
        }];
        let w = Workload {
            name: "uniform",
            phases: UNIFORM,
            ..workload("mixed-metis")
        };
        let outside = outside_share(&w, &generated(&w, SEED, 0));
        assert!(outside > 0.4, "uniform outside share {outside}");
        let scan = workload("fault-scan");
        let local = outside_share(&scan, &generated(&scan, SEED, 0));
        assert!(local < 0.15, "fault-scan outside share {local}");
    }
}
