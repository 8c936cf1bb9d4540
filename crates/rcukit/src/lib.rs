//! # rcukit — an epoch-based RCU runtime
//!
//! This crate provides the read-copy-update (RCU) substrate used by the
//! [Bonsai tree](https://pdos.csail.mit.edu/papers/bonsai:asplos12.pdf)
//! reproduction: lock-free read-side critical sections and deferred
//! reclamation of memory that may still be referenced by concurrent readers.
//!
//! The design mirrors classic epoch-based reclamation (EBR):
//!
//! * Readers *pin* the current epoch before touching shared pointers and
//!   *unpin* when done ([`LocalHandle::pin`], the paper's `rcu_read_begin` /
//!   `rcu_read_end`). The guard **borrows** its handle (`Guard<'_>`), so a
//!   pin performs zero atomic read-modify-writes and takes no lock: it is a
//!   plain store to the thread's own status word, one `SeqCst` fence and a
//!   re-read of the global epoch. Page-fault-style readers never contend on
//!   a shared cache line, however many cores fault at once.
//! * Writers retire garbage with [`Guard::defer`] or [`Guard::defer_free`]
//!   (the paper's `rcu_free`). Retired objects are freed only after a *grace
//!   period*: two epoch advances, which guarantee that every reader that
//!   could have observed the object has unpinned.
//! * [`Collector::synchronize`] blocks until a full grace period has elapsed
//!   (the classic `synchronize_rcu`).
//!
//! The full protocol narrative — this crate's epoch lifecycle and memory
//! ordering together with the `bonsai` crate's writer sessions and range
//! locks built on top — lives in `docs/CONCURRENCY.md` at the repository
//! root.
//!
//! Two reclamation backends are provided, unified behind
//! [`ReclaimBackend`]:
//!
//! * [`Collector`] — epoch-based, pin/unpin per critical section, suitable
//!   for preemptible user space (analogous to Linux's sleepable RCU). The
//!   paper's design, and the one the benchmark measures.
//! * [`hybrid::HybridDomain`] — interval-based hybrid: epoch-cheap reads
//!   with per-pin era intervals, degrading gracefully under a stalled
//!   reader by routing new garbage around it instead of halting
//!   reclamation (the `stall_events` / `degraded_ops` counters record the
//!   degradation; see the [`reclaim`] module docs for the comparison).
//!
//! # Quickstart
//!
//! ```
//! use rcukit::Collector;
//! use std::sync::atomic::{AtomicPtr, Ordering};
//!
//! let collector = Collector::new();
//! let handle = collector.register();
//!
//! // A writer publishes a new value and retires the old one.
//! let shared = AtomicPtr::new(Box::into_raw(Box::new(1u64)));
//! {
//!     let guard = handle.pin();
//!     let new = Box::into_raw(Box::new(2u64));
//!     let old = shared.swap(new, Ordering::AcqRel);
//!     // Safety: `old` was just unlinked and is never freed twice.
//!     unsafe { guard.defer_free(old) };
//! }
//!
//! // A reader dereferences the pointer under a guard.
//! {
//!     let guard = handle.pin();
//!     let p = shared.load(Ordering::Acquire);
//!     // Safety: the pointer was published by the writer above and cannot be
//!     // freed while this guard is live.
//!     assert_eq!(unsafe { *p }, 2);
//!     drop(guard);
//! }
//!
//! // A full grace period reclaims the retired allocation.
//! collector.synchronize();
//! let stats = collector.stats();
//! assert_eq!(stats.objects_retired, 1);
//! assert_eq!(stats.objects_freed, 1);
//!
//! // The currently-published value is still owned by `shared`; clean it up
//! // now that no reader can be running.
//! let p = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
//! // Safety: `p` was the sole remaining published allocation.
//! unsafe { drop(Box::from_raw(p)) };
//! ```
//!
//! # Lifecycle: epoch → pin → retire → reclaim
//!
//! The collector maintains one global epoch counter; every participating
//! thread owns a registered status word. An object's life as garbage runs
//! through four stages:
//!
//! 1. **Pin.** A thread's outermost [`pin`](LocalHandle::pin) publishes
//!    `(epoch << 1) | 1` into its status word and re-reads the global epoch
//!    until it is stable across the store. From then on the global epoch can
//!    advance at most once past the pinned value: any later
//!    advance re-scans the registry and sees this thread. Nested pins only
//!    bump a thread-local guard count; unpin clears the status word.
//! 2. **Retire.** A writer unlinks an object from the shared structure,
//!    then hands it to [`Guard::defer`]/[`Guard::defer_free`]. The
//!    retirement is tagged with the global epoch *observed at retire time*
//!    and pushed into the thread's local bag; the bag is sealed into the
//!    collector's global queue when it grows past a threshold, when the
//!    epoch tag changes, at the outermost unpin, or at [`Guard::flush`].
//! 3. **Advance.** `try_advance` (run by `collect`, `synchronize`, and
//!    opportunistically at guard-free unpins) scans the registry — sharded
//!    per core, one shard lock at a time, so concurrent advancers and
//!    registrations in other shards never convoy on a global lock — and
//!    moves the global epoch from `E` to `E + 1` only when every pinned
//!    thread's recorded epoch equals `E`. Unpin-driven advances are
//!    *throttled* per handle: only every Nth garbage-bearing unpin (or
//!    sooner under shard-queue pressure) pays the scan, so a
//!    mutation-heavy writer is not on the registry locks every operation.
//! 4. **Reclaim.** A sealed bag tagged `e` fires once the global epoch
//!    reaches `e + `[`GRACE_EPOCHS`]: every reader that could have observed
//!    its contents pinned no later than the retirement, so two advances
//!    prove they have all unpinned.
//!
//! Deferred callbacks run inline on whichever thread drives reclamation.
//! At the *implicit* points (outermost unpin, pin-time cache eviction) the
//! runtime only runs callbacks while the executing thread holds **zero
//! guards**, so a callback may itself pin or block on a grace period; the
//! *explicit* [`Collector::collect`]/[`Collector::synchronize`] calls run
//! ready callbacks in the caller's context unconditionally (see
//! [`Guard::defer`] for the precise contract).
//!
//! # Memory ordering
//!
//! Three orderings carry the proof; everything else is bookkeeping:
//!
//! * **Pin publication** — the status-word publish is a plain store
//!   followed by a `SeqCst` fence and a re-read of the global epoch,
//!   looping until the epoch is unchanged across the store. The fence
//!   orders the publish before the critical section's pointer loads (and
//!   pairs with the advance scan's own fence), and the stable re-read
//!   guarantees some instant at which the global epoch equalled the
//!   published value — which is what bounds the epoch to `pinned + 1`
//!   while the thread stays pinned.
//! * **The `SeqCst` fence in `defer`** — between the caller's unlink store
//!   and the retirement-tag load sits a StoreLoad fence. Without it, on
//!   TSO hardware the unlink (often a plain `Release` store of a new root)
//!   can linger in the store buffer while this thread reads a stale global
//!   epoch `tag`; the epoch then advances, a reader pins at `tag + 1`,
//!   loads the *old* pointer — still visible, the unlink has not drained —
//!   and outlives the grace period computed from `tag`. The hybrid
//!   backend's retire path carries the same fence before its era sample.
//! * **The guard-free gate** — inline callback execution (unpin-time
//!   collects, pin-time cache eviction) is gated on a thread-local
//!   live-guard count of zero. This is a liveness invariant, not a
//!   visibility one: a callback may block on a grace period, and a grace
//!   period can never elapse while the executing thread itself holds a pin
//!   — the epoch cannot advance past it.
//!
//! Registry scans, bag seals, and statistics ride on per-shard mutexes and
//! `SeqCst` atomics; none of them are on the reader hot path, which touches
//! only the thread's own status word and the global epoch word. The
//! hot-path regression test pins in a loop and asserts both that the
//! collector's `Arc` strong count stays flat (no shared refcount RMW) and
//! that [`CollectorStats::registry_locks`] does not move (no lock).
//!
//! # Testing tiers
//!
//! Three tiers check the protocol, because stress loops alone miss the
//! schedules that matter:
//!
//! * **Tier-1 stress** (`cargo test`): randomized differential tests plus
//!   real-thread mirrors of every model scenario (`tests/model.rs`).
//! * **Model checking** (`RUSTFLAGS="--cfg loom" cargo test -p rcukit
//!   --test loom --release`): the crate's sync primitives (the internal
//!   `sync` facade module) swap to the in-tree `loomette` checker, and
//!   `tests/loom.rs` explores every schedule of the core
//!   scenarios — pin-publication vs. advance, retire-before-publish,
//!   the guard-free callback gate, a stalled reader on each backend —
//!   within a preemption bound, including
//!   a meta-test that re-seeds a known use-after-free and requires the
//!   checker to find it.
//! * **UB detection** (`cargo +nightly miri test -p rcukit -p bonsai`):
//!   the unsafe reclamation paths run under Miri with `cfg(miri)`-scaled
//!   iteration counts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unsafe_op_in_unsafe_fn)]

mod collector;
mod deferred;
pub mod faults;
mod guard;
pub mod hybrid;
pub mod reclaim;
mod stats;
mod sync;

pub use collector::{Collector, LocalHandle};
pub use deferred::{RecycleBatch, Recycler};
pub use guard::Guard;
pub use hybrid::{HybridDomain, HybridGuard};
pub use reclaim::{ReclaimBackend, ReclaimStats};
pub use stats::CollectorStats;

/// Number of epoch advances that constitute a grace period.
///
/// Garbage retired in epoch `e` is reclaimable once the global epoch has
/// reached `e + GRACE_EPOCHS`.
pub const GRACE_EPOCHS: u64 = 2;
