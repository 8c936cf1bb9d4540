//! Per-layer probes: each layer's public entry points, called from outside
//! in a tight loop on fixtures of the workload's steady-state size.
//!
//! Nothing here reaches into the crates: `bonsai::range_lock` and
//! `bonsai::arena` are private, so they show up only inside
//! `tree.insert_remove_ns` and as the residual `range_map.write_overhead_ns`.
//! Every probe is batch-timed (one clock pair around the whole batch) and
//! reports the median of [`BATCHES`] batches; garbage is reclaimed between
//! batches, outside the timed window.

use std::hint::black_box;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use bonsai::{AddressSpace, BonsaiTree, RangeMap};
use rcukit::Collector;

use crate::stats::Summary;
use crate::trace::{Rng, Workload, PAGE};

/// Batches per probe.
pub const BATCHES: usize = 5;

/// How many calls a batch makes.
#[derive(Clone, Copy, Debug)]
pub struct ProbeScale {
    /// Calls per batch of a probe that costs well under a microsecond.
    pub light: u64,
    /// Calls per batch of a microsecond-scale probe (a write, a fork).
    pub heavy: u64,
}

impl ProbeScale {
    /// The scale of a real run.
    pub const FULL: ProbeScale = ProbeScale {
        light: 1 << 20,
        heavy: 1 << 16,
    };
    /// The scale of `--quick`.
    pub const QUICK: ProbeScale = ProbeScale {
        light: 1 << 12,
        heavy: 1 << 10,
    };
}

/// Nanoseconds per call: the median over [`BATCHES`] batches of `calls`
/// calls of `call`, with `between` run untimed after each batch.
fn per_call(calls: u64, mut call: impl FnMut(u64), mut between: impl FnMut()) -> Summary {
    let ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for i in 0..calls {
                call(i);
            }
            let ns = started.elapsed().as_nanos() as f64;
            between();
            ns / calls as f64
        })
        .collect();
    Summary::of(&ns)
}

/// The fixtures' shape: the workload's two-arena prefill.
struct Shape {
    /// Region starts and ends, in address order.
    regions: Vec<(u64, u64)>,
    /// Random addresses over the span; about half hit a region. A power of
    /// two long and small enough to stay cached, so the loop indexes it
    /// with a mask and streams nothing.
    addrs: Vec<u64>,
    /// Random indices into `regions`.
    picks: Vec<usize>,
}

const TABLE: usize = 1 << 14;

impl Shape {
    fn of(w: &Workload, seed: u64) -> Shape {
        let regions = w.initial_regions();
        let mut rng = Rng::new(seed ^ 0xB1C9_0DD5_EE75_11A7);
        Shape {
            addrs: (0..TABLE).map(|_| rng.below(w.span())).collect(),
            picks: (0..TABLE)
                .map(|_| rng.below(regions.len() as u64) as usize)
                .collect(),
            regions,
        }
    }

    fn addr(&self, i: u64) -> u64 {
        self.addrs[i as usize & (TABLE - 1)]
    }

    fn region(&self, i: u64) -> (u64, u64) {
        self.regions[self.picks[i as usize & (TABLE - 1)]]
    }
}

/// The probed layers' numbers, in nanoseconds per call.
#[derive(Clone, Copy, Debug)]
pub struct Layers {
    /// `Collector::pin` and the guard's drop, one thread.
    pub pin_unpin: Summary,
    /// The same with a second thread doing the same on the same collector.
    pub pin_unpin_t2: Summary,
    /// `Guard::defer` of an empty closure (256 per pin).
    pub defer: Summary,
    /// `BonsaiTree::get_le` under one long-held guard: the walk alone.
    pub get_le_pinned: Summary,
    /// `BonsaiTree::get_le_owned`: pin, walk, clone, unpin.
    pub get_le_owned: Summary,
    /// `BonsaiTree::remove` + `insert` of a resident key, halved.
    pub insert_remove: Summary,
    /// `BonsaiTree::fork` and the untouched child's drop.
    pub tree_fork: Summary,
    /// What a first write to a fresh fork (and tearing its private path
    /// down again) adds to `tree_fork`.
    pub cow_first_write: Summary,
    /// `RangeMap::lookup` under one long-held guard.
    pub lookup_pinned: Summary,
    /// `RangeMap::contains`.
    pub contains: Summary,
    /// `RangeMap::unmap` + `map` of a resident region, halved.
    pub map_unmap: Summary,
    /// A truncating `RangeMap::unmap_range`.
    pub unmap_range: Summary,
    /// `RangeMap::fork` and the untouched child's drop.
    pub range_map_fork: Summary,
    /// `AddressSpace::fault` through `dyn`.
    pub fault: Summary,
}

/// Runs every probe on fixtures shaped like `w`.
pub fn run(w: &Workload, seed: u64, scale: ProbeScale) -> Layers {
    let shape = Shape::of(w, seed);
    let collector = Collector::new();
    let sync = || collector.synchronize();

    let pin_unpin = per_call(scale.light, |_| drop(black_box(collector.pin())), || ());
    let pin_unpin_t2 = pin_unpin_t2(&collector, scale.light);
    let defer = per_call(
        scale.light / 256,
        |_| {
            let guard = collector.pin();
            for _ in 0..256 {
                guard.defer(|| ());
            }
        },
        sync,
    );
    let defer = defer.scaled(1.0 / 256.0);

    let tree = BonsaiTree::<u64, u64>::new(collector.clone());
    for &(start, end) in &shape.regions {
        tree.insert(start, end);
    }
    assert_eq!(tree.len(), shape.regions.len());
    let get_le_pinned = {
        let guard = tree.pin();
        per_call(
            scale.light,
            |i| {
                black_box(tree.get_le(&shape.addr(i), &guard));
            },
            || (),
        )
    };
    let get_le_owned = per_call(
        scale.light,
        |i| {
            black_box(tree.get_le_owned(&shape.addr(i)));
        },
        || (),
    );
    let insert_remove = per_call(
        scale.heavy,
        |i| {
            let (start, end) = shape.region(i);
            black_box(tree.remove(&start));
            black_box(tree.insert(start, end));
        },
        sync,
    )
    .scaled(0.5);
    let tree_fork = per_call(scale.heavy, |_| drop(black_box(tree.fork())), sync);
    // By far the dearest probe; an eighth of the calls keeps it in step.
    let fork_and_write = per_call(
        scale.heavy / 8,
        |i| {
            let child = tree.fork();
            let (start, end) = shape.region(i);
            black_box(child.insert(start, end));
        },
        sync,
    );
    let cow_first_write = minus(fork_and_write, tree_fork);

    let map = RangeMap::<()>::new(collector.clone());
    for &(start, end) in &shape.regions {
        assert!(map.map(start, end, ()));
    }
    let lookup_pinned = {
        let guard = map.pin();
        per_call(
            scale.light,
            |i| {
                black_box(map.lookup(shape.addr(i), &guard));
            },
            || (),
        )
    };
    let contains = per_call(
        scale.light,
        |i| {
            black_box(map.contains(shape.addr(i)));
        },
        || (),
    );
    let unmap_map = per_call(
        scale.heavy,
        |i| {
            let (start, end) = shape.region(i);
            black_box(map.unmap(start));
            black_box(map.map(start, end, ()));
        },
        sync,
    );
    // Truncate the region's upper half away, then restore it with the pair
    // timed above; the difference is the truncating span alone.
    let truncate_unmap_map = per_call(
        scale.heavy,
        |i| {
            let (start, end) = shape.region(i);
            black_box(map.unmap_range(start + (end - start) / 2 / PAGE * PAGE, end));
            black_box(map.unmap(start));
            black_box(map.map(start, end, ()));
        },
        sync,
    );
    let range_map_fork = per_call(scale.heavy, |_| drop(black_box(map.fork())), sync);
    assert_eq!(map.len(), shape.regions.len());

    let space: Box<dyn AddressSpace> = black_box(Box::new(map));
    let fault = per_call(
        scale.light,
        |i| {
            black_box(space.fault(shape.addr(i)));
        },
        || (),
    );

    Layers {
        pin_unpin,
        pin_unpin_t2,
        defer,
        get_le_pinned,
        get_le_owned,
        insert_remove,
        tree_fork,
        cow_first_write,
        lookup_pinned,
        contains,
        map_unmap: unmap_map.scaled(0.5),
        unmap_range: minus(truncate_unmap_map, unmap_map),
        range_map_fork,
        fault,
    }
}

/// Two threads pinning and unpinning one collector at once; each batch's
/// value is the mean of the two threads' per-call times.
fn pin_unpin_t2(collector: &Collector, calls: u64) -> Summary {
    let barrier = Barrier::new(2);
    let ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let both: Vec<f64> = thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            let started = Instant::now();
                            for _ in 0..calls {
                                drop(black_box(collector.pin()));
                            }
                            started.elapsed().as_nanos() as f64 / calls as f64
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("pin thread panicked"))
                    .collect()
            });
            both.iter().sum::<f64>() / 2.0
        })
        .collect();
    Summary::of(&ns)
}

/// The difference of two probes' medians; a difference has no quartiles of
/// its own, so they collapse onto the value.
pub fn minus(a: Summary, b: Summary) -> Summary {
    Summary::single(a.median - b.median)
}
