//! Chaos tier: randomized fault injection over fork/mutate/unmap
//! lineages, diffed against a `BTreeMap` model (the `fork_diff`
//! methodology under injected faults).
//!
//! Builds only with `--features faults`. Each leg arms the process-global
//! failpoint registry (`rcukit::faults`) with a fixed seed, runs a
//! deterministic single-threaded workload in which any write may panic at
//! an injected protocol edge (arena allocation, forced CAS failure,
//! pre-publish / post-CAS panic), catches every unwind, and asserts the
//! panic-atomicity contract after each one:
//!
//! * a panicked tree update or map operation (`unmap_range` included)
//!   left its structure in exactly the pre-op or post-op state — never
//!   torn, never violating the tree invariants;
//! * a panicked map operation kept no writer slot and lent the next
//!   writer a clean scratch (the next operation simply proceeds);
//! * after teardown the backend drains to `retired == freed`, objects
//!   and bytes — no leak, no double free, on both backends.
//!
//! Every leg prints `FAULT_REPLAY=<token>` if its assertions fail, and
//! the token replays the exact fault schedule via `faults::arm_token`
//! (see `chaos_runs_are_replayable_from_their_token`).

#![cfg(feature = "faults")]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, Once};

use bonsai::{BonsaiTree, RangeMap};
use rcukit::{faults, Collector, HybridDomain, ReclaimBackend};

/// Both reclamation backends, fresh.
fn backends() -> [ReclaimBackend; 2] {
    [
        ReclaimBackend::Epoch(Collector::new()),
        ReclaimBackend::Hybrid(HybridDomain::new()),
    ]
}

/// Small deterministic RNG (xorshift64*), as in `fork_diff`.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The failpoint registry is process-global, so chaos tests serialize on
/// one lock instead of corrupting each other's arming.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Silences the default panic printout for *injected* panics only (the
/// workload catches them; the backtrace spam would drown real failures).
/// Installed once for the whole test binary; genuine assertion panics
/// still print through the previous hook.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("injected fault:") {
                prev(info);
            }
        }));
    });
}

/// Prints the replay token if the harness itself fails, so every chaos
/// failure is reproducible: `FAULT_REPLAY=<token>` → `faults::arm_token`.
struct ReplayOnFailure;
impl Drop for ReplayOnFailure {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("FAULT_REPLAY={}", faults::replay_token());
        }
    }
}

const KEY_SPACE: u64 = 256;

fn model_vec(model: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    model.iter().map(|(&k, &v)| (k, v)).collect()
}

/// One fork/mutate lineage chaos run on `backend`, `steps` ops at
/// `per_mille`/1000 fault probability per probe.
fn run_tree_chaos(backend: ReclaimBackend, seed: u64, steps: u64, per_mille: u32) {
    let _replay = ReplayOnFailure;
    faults::arm(seed, per_mille);
    let kind = backend.name();
    let mut rng = Rng(seed | 1);
    let mut injected = 0u64;

    let mut lineages: Vec<(BonsaiTree<u64, u64>, BTreeMap<u64, u64>)> =
        vec![(BonsaiTree::with_backend(backend.clone()), BTreeMap::new())];

    for step in 0..steps {
        let roll = rng.next() % 100;
        let li = (rng.next() as usize) % lineages.len();
        if roll < 4 && lineages.len() < 6 {
            // Fork: the child must be a structural twin even when its
            // parent's history includes recovered panics.
            let child_tree = lineages[li].0.fork();
            let child_model = lineages[li].1.clone();
            assert_eq!(
                child_tree.to_vec(),
                model_vec(&child_model),
                "{kind}: fork diverged"
            );
            lineages.push((child_tree, child_model));
            continue;
        }
        if roll < 7 && lineages.len() > 1 {
            drop(lineages.swap_remove(li));
            continue;
        }
        let (tree, model) = &mut lineages[li];
        let key = rng.next() % KEY_SPACE;
        let remove = rng.next().is_multiple_of(3);
        let val = rng.next();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if remove {
                tree.remove(&key)
            } else {
                tree.insert(key, val)
            }
        }));
        match outcome {
            Ok(old) => {
                let expect = if remove {
                    model.remove(&key)
                } else {
                    model.insert(key, val)
                };
                assert_eq!(
                    old, expect,
                    "{kind} step {step}: clean op diverged from model"
                );
            }
            Err(_) => {
                // Panic-atomicity: the tree is in exactly the pre-op or
                // the post-op state, and structurally intact either way.
                injected += 1;
                tree.check_invariants();
                let mut post = model.clone();
                if remove {
                    post.remove(&key);
                } else {
                    post.insert(key, val);
                }
                let contents = tree.to_vec();
                if contents == model_vec(&post) {
                    *model = post;
                } else {
                    assert_eq!(
                        contents,
                        model_vec(model),
                        "{kind} step {step}: injected panic left a torn tree"
                    );
                }
            }
        }
        // Reads after recovered panics stay consistent.
        let probe = rng.next() % KEY_SPACE;
        let (tree, model) = &lineages[li];
        assert_eq!(
            tree.get_owned(&probe),
            model.get(&probe).copied(),
            "{kind} step {step}"
        );
        if step % 128 == 0 {
            for (tree, model) in &lineages {
                assert_eq!(
                    tree.to_vec(),
                    model_vec(model),
                    "{kind} step {step}: full diff"
                );
            }
        }
    }
    assert!(
        injected > 0,
        "{kind}: chaos run injected no faults — probe wiring broken?"
    );
    faults::disarm();

    // Post-chaos liveness: every writer path must still work (no wedged
    // lock, no poisoned-and-unrecoverable mutex) after the panics.
    for (tree, model) in &mut lineages {
        assert_eq!(tree.insert(KEY_SPACE + 1, 7), None);
        model.insert(KEY_SPACE + 1, 7);
        assert_eq!(tree.to_vec(), model_vec(model));
    }

    drop(lineages);
    backend.synchronize();
    let s = backend.stats();
    assert!(s.objects_retired > 0, "{kind}: nothing retired");
    assert_eq!(
        s.objects_retired, s.objects_freed,
        "{kind}: injected faults leaked or double-retired objects"
    );
    assert_eq!(
        s.bytes_retired, s.bytes_freed,
        "{kind}: byte accounting diverged"
    );
}

#[test]
fn tree_chaos_is_panic_atomic_on_every_backend() {
    let _s = serial();
    silence_injected_panics();
    let steps = if cfg!(miri) { 150 } else { 1500 };
    for (salt, backend) in backends().into_iter().enumerate() {
        run_tree_chaos(backend, 0xc4a0_0001 ^ salt as u64, steps, 35);
    }
}

// ---- range-map chaos ----

const PAGE: u64 = 0x1000;
const PAGES: u64 = 128;

type MapModel = BTreeMap<u64, (u64, u64)>;

fn map_model_vec(model: &MapModel) -> Vec<(u64, u64, u64)> {
    model.iter().map(|(&s, &(e, v))| (s, e, v)).collect()
}

fn model_overlaps(model: &MapModel, start: u64, end: u64) -> bool {
    if let Some((_, &(pred_end, _))) = model.range(..=start).next_back() {
        if pred_end > start {
            return true;
        }
    }
    model.range(start..end).next().is_some()
}

/// Applies a full `unmap_range` to the model, returning the number of
/// regions removed or truncated (the map's contract).
fn model_unmap_range(model: &mut MapModel, start: u64, end: u64) -> usize {
    let mut affected = 0;
    if let Some((&s, &(e, v))) = model.range(..start).next_back() {
        if e > start {
            model.insert(s, (start, v));
            if e > end {
                model.insert(end, (e, v));
            }
            affected += 1;
        }
    }
    let inside: Vec<u64> = model.range(start..end).map(|(&s, _)| s).collect();
    for s in inside {
        let (e, v) = model.remove(&s).expect("inside key vanished");
        if e > end {
            model.insert(end, (e, v));
        }
        affected += 1;
    }
    affected
}

/// Panic atomicity after an injected panic in a map operation: the map
/// holds exactly the pre-op state `model` or the post-op state `post`, and
/// `model` moves to whichever it is.
fn settle(map: &RangeMap<u64>, model: &mut MapModel, post: MapModel, torn: &str) {
    let contents = map.to_vec();
    if contents == map_model_vec(&post) {
        *model = post;
    } else {
        assert_eq!(contents, map_model_vec(model), "{torn}");
    }
}

fn run_map_chaos(backend: ReclaimBackend, seed: u64, steps: u64, per_mille: u32) {
    let _replay = ReplayOnFailure;
    faults::arm(seed, per_mille);
    let kind = backend.name();
    let mut rng = Rng(seed | 1);
    let mut injected = 0u64;

    let mut lineages: Vec<(RangeMap<u64>, MapModel)> =
        vec![(RangeMap::with_backend(backend.clone()), MapModel::new())];

    for step in 0..steps {
        let roll = rng.next() % 100;
        let li = (rng.next() as usize) % lineages.len();
        if roll < 4 && lineages.len() < 4 {
            let child = lineages[li].0.fork();
            let model = lineages[li].1.clone();
            assert_eq!(
                child.to_vec(),
                map_model_vec(&model),
                "{kind}: fork diverged"
            );
            lineages.push((child, model));
            continue;
        }
        if roll < 7 && lineages.len() > 1 {
            drop(lineages.swap_remove(li));
            continue;
        }
        let (map, model) = &mut lineages[li];
        let start = (rng.next() % PAGES) * PAGE;
        match rng.next() % 4 {
            0 => {
                // map()
                let end = start + (1 + rng.next() % 4) * PAGE;
                let val = rng.next();
                let expect = !model_overlaps(model, start, end);
                match catch_unwind(AssertUnwindSafe(|| map.map(start, end, val))) {
                    Ok(mapped) => {
                        assert_eq!(mapped, expect, "{kind} step {step}: map() diverged");
                        if mapped {
                            model.insert(start, (end, val));
                        }
                    }
                    Err(_) => {
                        injected += 1;
                        // Atomic: mapped fully or not at all.
                        let mut post = model.clone();
                        if expect {
                            post.insert(start, (end, val));
                        }
                        settle(map, model, post, &format!("{kind} step {step}: tore map()"));
                    }
                }
            }
            1 => {
                // unmap() — exact-start removal.
                match catch_unwind(AssertUnwindSafe(|| map.unmap(start))) {
                    Ok(got) => {
                        assert_eq!(
                            got,
                            model.remove(&start).map(|(_, v)| v),
                            "{kind} step {step}: unmap() diverged"
                        );
                    }
                    Err(_) => {
                        injected += 1;
                        let mut post = model.clone();
                        post.remove(&start);
                        settle(
                            map,
                            model,
                            post,
                            &format!("{kind} step {step}: tore unmap()"),
                        );
                    }
                }
            }
            2 => {
                // unmap_range() — one publication, so as atomic as map().
                let end = start + (1 + rng.next() % 8) * PAGE;
                match catch_unwind(AssertUnwindSafe(|| map.unmap_range(start, end))) {
                    Ok(n) => {
                        let expect = model_unmap_range(model, start, end);
                        assert_eq!(n, expect, "{kind} step {step}: unmap_range count diverged");
                    }
                    Err(_) => {
                        injected += 1;
                        let mut post = model.clone();
                        model_unmap_range(&mut post, start, end);
                        let torn =
                            format!("{kind} step {step}: tore unmap_range({start:#x}, {end:#x})");
                        settle(map, model, post, &torn);
                    }
                }
            }
            _ => {
                let addr = start + rng.next() % PAGE;
                let expect = model
                    .range(..=addr)
                    .next_back()
                    .and_then(|(_, &(end, v))| (addr < end).then_some(v));
                assert_eq!(map.lookup_owned(addr), expect, "{kind} step {step}: lookup");
            }
        }
        // No panicked writer may keep its slot: every slot must be free
        // whenever no operation is in flight.
        for (map, _) in &lineages {
            assert_eq!(
                map.held_writer_slots(),
                0,
                "{kind} step {step}: a writer slot stayed held"
            );
        }
        if step % 128 == 0 {
            for (map, model) in &lineages {
                assert_eq!(
                    map.to_vec(),
                    map_model_vec(model),
                    "{kind} step {step}: full diff"
                );
            }
        }
    }
    assert!(
        injected > 0,
        "{kind}: chaos run injected no faults — probe wiring broken?"
    );
    faults::disarm();

    // Post-chaos liveness, then drain.
    for (map, model) in &mut lineages {
        let s = (PAGES + 32) * PAGE; // beyond any reachable region end
        assert!(map.map(s, s + PAGE, 1));
        model.insert(s, (s + PAGE, 1));
        assert_eq!(map.to_vec(), map_model_vec(model));
        assert_eq!(map.held_writer_slots(), 0);
    }
    drop(lineages);
    backend.synchronize();
    let s = backend.stats();
    assert!(s.objects_retired > 0, "{kind}: nothing retired");
    assert_eq!(
        s.objects_retired, s.objects_freed,
        "{kind}: injected faults leaked or double-retired objects"
    );
    assert_eq!(
        s.bytes_retired, s.bytes_freed,
        "{kind}: byte accounting diverged"
    );
}

#[test]
fn range_map_chaos_is_panic_atomic_on_every_backend() {
    let _s = serial();
    silence_injected_panics();
    let steps = if cfg!(miri) { 120 } else { 1200 };
    for (salt, backend) in backends().into_iter().enumerate() {
        run_map_chaos(backend, 0xc4a0_0002 ^ salt as u64, steps, 30);
    }
}

/// A fault injected anywhere in a span unmap — at each arena allocation
/// it makes, or just before its commit — leaves the map byte-identical to
/// before, with no writer slot held; one just after the commit leaves it
/// byte-identical to after. The span is one publication, so there is no
/// state in between to leave.
#[test]
fn unmap_range_survives_injected_failures_mid_flight() {
    let _s = serial();
    silence_injected_panics();
    let _replay = ReplayOnFailure;

    let build = || {
        let m: RangeMap<u64> = RangeMap::new(rcukit::Collector::new());
        assert!(m.map(0x1000, 0x3000, 1)); // head straddler
        assert!(m.map(0x3000, 0x4000, 2)); // inside
        assert!(m.map(0x4000, 0x5000, 3)); // inside
        assert!(m.map(0x6000, 0x9000, 4)); // tail straddler
        m
    };
    let full: Vec<(u64, u64, u64)> = vec![
        (0x1000, 0x3000, 1),
        (0x3000, 0x4000, 2),
        (0x4000, 0x5000, 3),
        (0x6000, 0x9000, 4),
    ];
    let after: Vec<(u64, u64, u64)> = vec![(0x1000, 0x2000, 1), (0x7000, 0x9000, 4)];

    // Count the arena allocations the unmap makes (armed at probability
    // zero: hits are counted, nothing fires).
    let m = build();
    faults::arm(0, 0);
    assert_eq!(m.unmap_range(0x2000, 0x7000), 4);
    let allocs = faults::hits(faults::site::ARENA_ALLOC);
    faults::disarm();
    assert!(allocs >= 2, "unmap_range made {allocs} allocations");

    let faulted = (0..allocs)
        .map(|hit| (faults::site::ARENA_ALLOC, hit, &full))
        .chain([
            (faults::site::TREE_PRE_PUBLISH, 0, &full),
            (faults::site::TREE_POST_CAS, 0, &after),
        ]);
    for (site, hit, want) in faulted {
        let m = build();
        faults::arm_schedule(&[(site, hit)]);
        let err = catch_unwind(AssertUnwindSafe(|| m.unmap_range(0x2000, 0x7000)));
        faults::disarm();
        assert!(err.is_err(), "{site}@{hit} did not fire");
        assert_eq!(&m.to_vec(), want, "{site}@{hit} left the map torn");
        assert_eq!(
            m.held_writer_slots(),
            0,
            "{site}@{hit} kept its writer slot"
        );
        // The scratch went back clean: the retry completes the unmap and
        // every arena block is accounted for.
        m.unmap_range(0x2000, 0x7000);
        assert_eq!(m.to_vec(), after, "{site}@{hit}: retry");
        m.collector().synchronize();
        RangeMap::check_family_invariants(&[&m]);
    }
}

/// Regression: an unwinding remove whose *first* allocation fails leaves
/// the attempt with no fresh node but — on a never-forked tree, which
/// lists what it replaces as it rebuilds — one replaced node: removing a
/// leaf `join`s two null children without allocating, and the failure
/// strikes in the parent's rebalance. The unwind guard used to look at the
/// fresh list only, so the scratch went back to its pool still naming a
/// published node, and the next holder's commit retired a node that was
/// still in the tree.
#[test]
fn failed_first_allocation_leaves_no_replaced_node_behind() {
    let _s = serial();
    silence_injected_panics();
    let _replay = ReplayOnFailure;

    // The mutex-owned scratch (standalone tree) and a writer slot's (map).
    let tree: BonsaiTree<u64, u64> = BonsaiTree::new(rcukit::Collector::new());
    let map: RangeMap<u64> = RangeMap::new(rcukit::Collector::new());
    for k in 1..=3u64 {
        tree.insert(k, k * 10);
        assert!(map.map(k * PAGE, k * PAGE + PAGE, k));
    }
    let tree_before = tree.to_vec();
    let map_before = map.to_vec();

    // Key 1 is a leaf under the root: the only allocation of its removal
    // is the root's replacement, so hit 0 of the site is "first and only".
    faults::arm_schedule(&[(faults::site::ARENA_ALLOC, 0)]);
    let err = catch_unwind(AssertUnwindSafe(|| tree.remove(&1)));
    assert!(err.is_err(), "scheduled alloc fault did not fire (tree)");
    faults::arm_schedule(&[(faults::site::ARENA_ALLOC, 0)]);
    let err = catch_unwind(AssertUnwindSafe(|| map.unmap(PAGE)));
    assert!(err.is_err(), "scheduled alloc fault did not fire (map)");
    faults::disarm();
    assert_eq!(tree.to_vec(), tree_before, "failed remove changed the tree");
    assert_eq!(map.to_vec(), map_before, "failed unmap changed the map");

    // The next commits use the same scratches. With a stale replaced list
    // they retire key 1's node; once the grace period recycles its block,
    // the churn below rebuilds other nodes on top of it.
    for round in 0..64u64 {
        tree.insert(100 + round % 8, round);
        tree.remove(&(100 + round % 8));
        let s = (8 + round % 8) * PAGE;
        assert!(map.map(s, s + PAGE, round));
        assert_eq!(map.unmap(s), Some(round));
        tree.collector().synchronize();
        map.collector().synchronize();
    }
    tree.check_invariants();
    assert_eq!(
        tree.to_vec(),
        tree_before,
        "a node still in the tree was retired"
    );
    assert_eq!(
        map.to_vec(),
        map_before,
        "a node still in the map was retired"
    );
    RangeMap::check_family_invariants(&[&map]);
    assert_eq!(tree.remove(&1), Some(10));
    assert_eq!(map.unmap(PAGE), Some(1));
    for c in [tree.collector(), map.collector()] {
        c.synchronize();
        let s = c.stats();
        assert_eq!(s.objects_retired, s.objects_freed);
    }
}

/// Faults while a writer scratch holds a partial retire batch. A
/// `tree.post_cas` panic publishes its update, so its unwind guard must
/// still add the replaced nodes to the pending list; an `arena.alloc`
/// panic publishes nothing, and its discard must leave the list alone.
/// Each faulted tree or map runs beside a fault-free twin doing the same
/// published updates: a never-forked structure eventually retires every
/// node it ever published, exactly once, so the two backends' totals
/// agree exactly — a pending node discarded leaves the faulted total
/// short, one listed twice leaves it long — and each drains byte-exact.
#[test]
fn faults_with_a_partial_batch_pending_lose_and_repeat_nothing() {
    let _s = serial();
    silence_injected_panics();
    let _replay = ReplayOnFailure;

    let fault_both = |post_cas: &dyn Fn(), alloc: &dyn Fn(), faulted: &ReclaimBackend| {
        let shipped = faulted.stats().objects_retired;
        faults::arm_schedule(&[(faults::site::TREE_POST_CAS, 0)]);
        assert!(
            catch_unwind(AssertUnwindSafe(post_cas)).is_err(),
            "post-CAS fault missed"
        );
        faults::arm_schedule(&[(faults::site::ARENA_ALLOC, 1)]);
        assert!(
            catch_unwind(AssertUnwindSafe(alloc)).is_err(),
            "alloc fault missed"
        );
        faults::disarm();
        assert_eq!(
            faulted.stats().objects_retired,
            shipped,
            "the faults fired with nothing pending"
        );
    };
    let drained_alike = |faulted: &ReclaimBackend, twin: &ReclaimBackend| {
        let kind = faulted.name();
        faulted.synchronize();
        twin.synchronize();
        let (f, t) = (faulted.stats(), twin.stats());
        assert!(f.objects_retired > 0, "{kind}: nothing retired");
        assert_eq!(
            (f.objects_retired, f.bytes_retired),
            (t.objects_retired, t.bytes_retired),
            "{kind}: pending nodes lost or retired twice"
        );
        assert_eq!(
            (f.objects_retired, f.bytes_retired),
            (f.objects_freed, f.bytes_freed),
            "{kind}: faulted backend did not drain"
        );
    };

    for (faulted, twin) in backends().into_iter().zip(backends()) {
        let kind = faulted.name();
        let tree: BonsaiTree<u64, u64> = BonsaiTree::with_backend(faulted.clone());
        let same: BonsaiTree<u64, u64> = BonsaiTree::with_backend(twin.clone());
        for k in 0..8 {
            tree.insert(k, k);
            same.insert(k, k);
        }
        assert_eq!(faulted.stats().objects_retired, 0, "{kind}: batch shipped");
        fault_both(
            &|| {
                tree.insert(3, 30);
            },
            &|| {
                tree.insert(100, 1);
            },
            &faulted,
        );
        same.insert(3, 30);
        assert_eq!(tree.to_vec(), same.to_vec(), "{kind}");
        // Churn on past several shipped batches, then tear down.
        for i in 0..400 {
            let k = 8 + i % 16;
            for t in [&tree, &same] {
                t.insert(k, i);
                t.remove(&k);
            }
        }
        tree.check_invariants();
        drop((tree, same));
        drained_alike(&faulted, &twin);
    }
    for (faulted, twin) in backends().into_iter().zip(backends()) {
        let kind = faulted.name();
        let map: RangeMap<u64> = RangeMap::with_backend(faulted.clone());
        let same: RangeMap<u64> = RangeMap::with_backend(twin.clone());
        // One thread writes every span below, so all of them draw its one
        // writer slot's scratch, which the faults must hit with its
        // partial batch.
        for m in [&map, &same] {
            for slot in 0..6 {
                assert!(m.map(slot * 2 * PAGE, slot * 2 * PAGE + PAGE, slot));
            }
        }
        assert_eq!(faulted.stats().objects_retired, 0, "{kind}: batch shipped");
        fault_both(
            &|| {
                map.map(13 * PAGE, 14 * PAGE, 13);
            },
            &|| {
                map.map(15 * PAGE, 16 * PAGE, 15);
            },
            &faulted,
        );
        assert!(same.map(13 * PAGE, 14 * PAGE, 13));
        assert_eq!(map.to_vec(), same.to_vec(), "{kind}");
        assert_eq!(map.held_writer_slots(), 0, "{kind}");
        for i in 0..400 {
            let s = (1 + 2 * (i % 6)) * PAGE;
            for m in [&map, &same] {
                assert!(m.map(s, s + PAGE, i));
                assert_eq!(m.unmap(s), Some(i));
            }
        }
        drop((map, same));
        drained_alike(&faulted, &twin);
    }
}

/// Graceful degradation end-to-end: a reader pinned across heavy churn on
/// the hybrid backend keeps `peak_unreclaimed_bytes` bounded (the epoch
/// backend grows without bound here), and once the blocked garbage
/// crosses the domain's budget the stall is detected and surfaced.
#[test]
fn stalled_reader_on_hybrid_backend_is_bounded_and_detected() {
    let _s = serial();
    silence_injected_panics();
    let _replay = ReplayOnFailure;

    // Small budget so the blocked residue provably crosses it.
    let domain = HybridDomain::with_budget(16 * 1024);
    let backend = ReclaimBackend::Hybrid(domain.clone());
    let tree: BonsaiTree<u64, u64> = BonsaiTree::with_backend(backend.clone());
    let initial = if cfg!(miri) { 256 } else { 2048 };
    for k in 0..initial {
        tree.insert(k, k);
    }

    // Pin a reader and never let it go while the writer churns: every
    // node alive at the pin and retired after it stays blocked, but
    // garbage born *after* the pin's reservation is freed regardless —
    // the interval rule routes around the stalled reader.
    let guard = domain.pin();
    let _root = guard.protect(std::ptr::null_mut::<u8>);
    for k in 0..initial {
        tree.remove(&k); // pre-pin nodes: blocked behind the guard
    }
    let churn = if cfg!(miri) { 2_000 } else { 40_000 };
    for i in 0..churn {
        let k = initial + (i % 64);
        tree.insert(k, i);
        tree.remove(&k);
    }

    let stats = backend.stats();
    // Bounded: the blocked set is at most the pre-pin working set (plus
    // scan-granularity slack) — churn garbage does not accumulate. An
    // unbounded backend would be tens of MB here.
    let node_bytes = 64u64; // generous per-node lower-bound granularity
    let bound = (initial + 4096) * node_bytes * 4;
    assert!(
        stats.peak_unreclaimed_bytes < bound,
        "hybrid stalled-reader garbage not bounded: peak {} >= {}",
        stats.peak_unreclaimed_bytes,
        bound
    );
    // Detected: the blocked bytes crossed the tiny budget, so the scan
    // marked the pin stalled and retirements started counting degraded.
    assert!(guard.is_stalled(), "over-budget pin never marked stalled");
    assert!(stats.stall_events >= 1, "stall not surfaced in stats");
    assert!(stats.degraded_ops > 0, "degraded ops not surfaced in stats");
    assert!(domain.peak_unreclaimed_bytes() == stats.peak_unreclaimed_bytes);

    // Release the reader: everything drains, nothing leaked.
    drop(guard);
    drop(tree);
    backend.synchronize();
    let s = backend.stats();
    assert_eq!(
        s.objects_retired, s.objects_freed,
        "stalled-reader leg leaked"
    );
    assert_eq!(s.bytes_retired, s.bytes_freed);
}

/// Determinism: re-arming from a chaos run's replay token reproduces the
/// exact fault schedule — same fired sites, same hit indices, same final
/// tree state.
#[test]
fn chaos_runs_are_replayable_from_their_token() {
    let _s = serial();
    silence_injected_panics();
    let _replay = ReplayOnFailure;

    let run = || {
        let tree: BonsaiTree<u64, u64> =
            BonsaiTree::with_backend(ReclaimBackend::Epoch(Collector::new()));
        let mut rng = Rng(0xdeed);
        let mut panics = 0u64;
        for _ in 0..400 {
            let key = rng.next() % 64;
            let val = rng.next();
            if catch_unwind(AssertUnwindSafe(|| {
                if val.is_multiple_of(3) {
                    tree.remove(&key);
                } else {
                    tree.insert(key, val);
                }
            }))
            .is_err()
            {
                panics += 1;
            }
        }
        (tree.to_vec(), panics)
    };

    faults::arm(0x5eed_cafe, 60);
    let (contents, panics) = run();
    let token = faults::replay_token();
    assert!(panics > 0, "seeded run fired no faults");
    assert!(token.contains(';'), "malformed replay token {token:?}");

    // Replay from the token: schedule mode, yet bit-identical behavior.
    faults::arm_token(&token);
    let (replayed, replayed_panics) = run();
    let replay_fired = faults::replay_token();
    faults::disarm();
    assert_eq!(
        panics, replayed_panics,
        "replay fired a different number of faults"
    );
    assert_eq!(contents, replayed, "replay diverged from the recorded run");
    assert_eq!(
        token.rsplit(';').next(),
        replay_fired.rsplit(';').next(),
        "replay fired a different schedule"
    );
}
