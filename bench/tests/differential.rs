//! Differential tests of the frozen locked baseline — and of the subject —
//! against the page-array model, op by op.

use addrspace_bench::locked::LockedAddressSpace;
use addrspace_bench::model::{disagreements, PageModel};
use addrspace_bench::trace::{Op, Rng, PAGE, WORKLOADS};
use bonsai::{AddressSpace, RangeMap};
use rcukit::Collector;

fn apply(space: &dyn AddressSpace, op: Op) -> usize {
    match op {
        Op::Fault(addr) => space.fault(addr) as usize,
        Op::Map(start, end) => space.map(start, end) as usize,
        Op::Unmap(start) => space.unmap(start) as usize,
        Op::UnmapRange(start, end) => space.unmap_range(start, end),
    }
}

fn spaces() -> Vec<(&'static str, Box<dyn AddressSpace>)> {
    vec![
        ("locked", Box::new(LockedAddressSpace::new())),
        ("bonsai", Box::new(RangeMap::<()>::new(Collector::new()))),
    ]
}

/// Every workload's generated cycles, both threads one after the other:
/// each op returns what the model returns, and the cycle closes.
#[test]
fn generated_traces_agree_op_by_op() {
    for w in WORKLOADS.map(|w| w.quick()) {
        for seed in [42, 7] {
            let initial = w.initial_regions();
            for (name, space) in spaces() {
                let mut model = PageModel::new(w.span(), &initial);
                for &(start, end) in &initial {
                    assert!(space.map(start, end));
                }
                for packed in w.cycles(seed).iter().flatten() {
                    let op = packed.op();
                    let expected = model.apply(op);
                    assert_eq!(
                        apply(&*space, op),
                        expected,
                        "{name}/{}/{seed}: {op:?}",
                        w.name
                    );
                    if let Op::Fault(_) = op {
                        assert_eq!(expected == 1, packed.verdict().hit);
                    }
                }
                assert_eq!(disagreements(&*space, &model), 0, "{name}/{}", w.name);
            }
        }
    }
}

/// Random page-aligned ops on a small span, most of them invalid on
/// purpose: overlapping maps, unmaps of non-starts, spans that split an
/// enclosing region or hit nothing. Refusals must agree too.
#[test]
fn random_ops_including_refused_ones_agree() {
    const PAGES: u64 = 96;
    for (name, space) in spaces() {
        let mut model = PageModel::new(PAGES * PAGE, &[]);
        let mut rng = Rng::new(0xD1FF);
        for step in 0..200_000 {
            let lo = rng.below(PAGES);
            let hi = lo + 1 + rng.below((PAGES - lo).min(12));
            let op = match rng.below(8) {
                0..=2 => Op::Map(lo * PAGE, hi * PAGE),
                3..=4 => Op::Unmap(lo * PAGE),
                5 => Op::UnmapRange(lo * PAGE, hi * PAGE),
                _ => Op::Fault(lo * PAGE + rng.below(PAGE)),
            };
            assert_eq!(
                apply(&*space, op),
                model.apply(op),
                "{name}: step {step}: {op:?}"
            );
            if step % 20_000 == 0 {
                assert_eq!(disagreements(&*space, &model), 0, "{name}: step {step}");
            }
        }
    }
}

/// `disagreements` must notice a wrong region set even when every page's
/// mapped-ness is right: two adjacent regions versus one region over both.
#[test]
fn disagreements_sees_region_boundaries() {
    let model = PageModel::new(8 * PAGE, &[(0, 2 * PAGE), (2 * PAGE, 4 * PAGE)]);
    let merged = LockedAddressSpace::new();
    assert!(merged.map(0, 4 * PAGE));
    assert!(disagreements(&merged, &model) > 0);
    let exact = LockedAddressSpace::new();
    assert!(exact.map(0, 2 * PAGE) && exact.map(2 * PAGE, 4 * PAGE));
    assert_eq!(disagreements(&exact, &model), 0);
}
