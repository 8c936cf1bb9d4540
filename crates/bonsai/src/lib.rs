//! # bonsai — an RCU-balanced binary tree
//!
//! Reproduction of the *Bonsai tree* from Clements, Kaashoek and Zeldovich,
//! ["Scalable Address Spaces Using RCU Balanced
//! Trees"](https://pdos.csail.mit.edu/papers/bonsai:asplos12.pdf)
//! (ASPLOS'12): a balanced binary search tree whose lookups run lock-free
//! inside an RCU read-side critical section while a single writer rebuilds
//! the update path out of freshly-allocated immutable nodes and retires the
//! replaced nodes to an [`rcukit`] collector.
//!
//! Three layers are provided:
//!
//! * [`BonsaiTree`] — the ordered map itself: `get`/`get_le`/`get_ge`
//!   under a [`Guard`](rcukit::Guard), `insert`/`remove` behind an internal
//!   single-writer lock; the commit itself is a CAS-with-retry, which is
//!   what lets `RangeMap` run several writers at once.
//!
//!   Both layers are generic over the *reclamation backend*
//!   ([`rcukit::ReclaimBackend`]): epoch (the default, the paper's
//!   design) or hybrid (interval-based: garbage stays bounded under a
//!   stalled reader). Guard-based reads are the epoch read protocol; the
//!   `*_owned` lookups ([`BonsaiTree::get_owned`],
//!   [`RangeMap::lookup_owned`], `contains`) work on both, each traversal
//!   protected by whatever that backend prescribes.
//! * [`RangeMap`] — a VMA-style interval map over the tree, modeling the
//!   paper's page-fault workload: `lookup(addr)` finds the mapped region
//!   containing an address without taking any lock, while each mutation
//!   decides inside its own copy-on-write rebuild and publishes with one
//!   root CAS — `map`/`unmap`/`unmap_range` calls from different threads
//!   run in parallel with nothing but that CAS ordering them, each from a
//!   writer slot that lends its thread the same scratch every time.
//! * [`AddressSpace`] — the backend abstraction the benchmark harness
//!   drives, so the same fault/map/unmap trace runs against [`RangeMap`]
//!   and against a lock-serialized baseline for the paper's comparison.
//!
//! The full concurrency design — epoch lifecycle, the writer session
//! ordering invariant, why the root CAS alone makes a planned mutation
//! atomic, and the writer slots' deadlock-freedom argument — is written up
//! once, in prose, in `docs/CONCURRENCY.md` at the repository root.
//!
//! ```
//! use bonsai::RangeMap;
//! use rcukit::Collector;
//!
//! let vmas: RangeMap<&'static str> = RangeMap::new(Collector::new());
//! assert!(vmas.map(0x1000, 0x3000, "text"));
//! assert!(vmas.map(0x4000, 0x5000, "stack"));
//! assert!(!vmas.map(0x2000, 0x6000, "overlaps"));
//!
//! let guard = vmas.pin();
//! assert_eq!(vmas.lookup(0x2fff, &guard), Some(&"text"));
//! assert_eq!(vmas.lookup(0x3000, &guard), None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unsafe_op_in_unsafe_fn)]

mod addrspace;
mod arena;
mod range_map;
mod sync;
mod tree;

// Tier-1 checks of the benchmark's own code in `bench/` (a package outside
// the workspace, here a dev-dependency): its locked baseline, its workload
// table and its trace generator. Pure safe code with nothing for Miri to
// find, and at Miri's speed the generator checks would take minutes.
#[cfg(all(test, not(miri)))]
#[path = "bench_checks/baseline.rs"]
mod baseline;
#[cfg(all(test, not(miri)))]
#[path = "bench_checks/config.rs"]
mod config;
#[cfg(all(test, not(miri)))]
#[path = "bench_checks/workload.rs"]
mod workload;

pub use addrspace::AddressSpace;
pub use range_map::RangeMap;
pub use tree::BonsaiTree;
