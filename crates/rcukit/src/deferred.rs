//! Storage for deferred reclamation callbacks.
//!
//! Two kinds of deferred work travel through the collector's bags:
//!
//! * [`Deferred::Call`] — a boxed `FnOnce`, the general
//!   [`Guard::defer`](crate::Guard::defer) path. The indirection costs one
//!   allocation per retirement.
//! * [`Deferred::Recycle`] — an allocation-free batch handed to a
//!   [`Recycler`] via [`Guard::defer_recycle`](crate::Guard::defer_recycle):
//!   no closure is boxed, the pointer buffer travels by value and is
//!   returned to its owner for reuse, and the recycler is an `Arc` clone
//!   (a reference-count bump, not a heap allocation). This is what lets an
//!   arena-backed writer retire a whole update without touching the heap.

use std::fmt;
use std::sync::Arc;

/// A batch of type-erased pointers travelling through deferred reclamation
/// to a [`Recycler`].
///
/// The batch owns only its buffer; the pointed-to blocks belong to the
/// recycler that will reclaim them. The buffer is ordinary `Vec` storage,
/// so a recycler that retains it (see [`Recycler::recycle`]) gives the
/// next retirement a warm, already-sized buffer — the steady-state
/// zero-allocation property of the recycle path.
#[derive(Default)]
pub struct RecycleBatch {
    ptrs: Vec<*mut ()>,
}

// Safety: batches are built only through `Guard::defer_recycle`, whose
// contract requires every pointer's pointed-to data to be reclaimable from
// any thread (`Send` payloads); the buffer itself is plain storage.
unsafe impl Send for RecycleBatch {}

impl RecycleBatch {
    /// Creates an empty batch with no buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pointer to the batch.
    pub fn push(&mut self, ptr: *mut ()) {
        self.ptrs.push(ptr);
    }

    /// Number of pointers in the batch.
    pub fn len(&self) -> usize {
        self.ptrs.len()
    }

    /// Whether the batch holds no pointers.
    pub fn is_empty(&self) -> bool {
        self.ptrs.is_empty()
    }

    /// Buffer capacity (diagnostic for allocation-diet tests).
    pub fn capacity(&self) -> usize {
        self.ptrs.capacity()
    }

    /// Removes and returns all pointers, keeping the buffer's capacity —
    /// how a [`Recycler`] consumes the batch before pooling the buffer.
    pub fn drain(&mut self) -> std::vec::Drain<'_, *mut ()> {
        self.ptrs.drain(..)
    }
}

impl fmt::Debug for RecycleBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecycleBatch")
            .field("len", &self.ptrs.len())
            .finish_non_exhaustive()
    }
}

/// A reclamation target for [`Guard::defer_recycle`]: typically a slab
/// arena that takes retired blocks back instead of freeing them.
///
/// Implementations must be shareable across threads — the collector may
/// run [`recycle`](Self::recycle) on whichever thread drives reclamation —
/// and are held by `Arc`, so a pending batch keeps its recycler (and the
/// memory it manages) alive until the batch fires.
///
/// [`Guard::defer_recycle`]: crate::Guard::defer_recycle
pub trait Recycler: Send + Sync {
    /// Reclaims every pointer in `batch` (dropping payloads, returning
    /// blocks to the free store) and may retain `batch`'s buffer for the
    /// next retirement.
    ///
    /// # Safety
    ///
    /// Called only by the collector, exactly once per batch, strictly
    /// after the grace period of the [`defer_recycle`] call that created
    /// it — at which point the batch's pointers are unreachable to every
    /// reader and exclusively owned by the recycler, per that call's
    /// contract.
    ///
    /// [`defer_recycle`]: crate::Guard::defer_recycle
    unsafe fn recycle(&self, batch: RecycleBatch);

    /// Reclaims a single pointer. Reclamation backends that decide per
    /// pointer whether a retirement may run (the hybrid scan frees each
    /// entry no pinned interval overlaps individually) call this instead of
    /// [`recycle`](Self::recycle). The default wraps the pointer in a
    /// one-element batch; arena-style recyclers override it to return the
    /// block directly, keeping the per-pointer path allocation-free.
    ///
    /// # Safety
    ///
    /// Same contract as [`recycle`](Self::recycle), applied to the single
    /// pointer `ptr`.
    unsafe fn recycle_one(&self, ptr: *mut ()) {
        let mut batch = RecycleBatch::new();
        batch.push(ptr);
        // Safety: forwarded contract — `ptr` is unreachable and exclusively
        // owned, exactly as `recycle` requires of every batch entry.
        unsafe { self.recycle(batch) };
    }
}

/// A deferred unit of work executed after a grace period.
pub(crate) enum Deferred {
    /// A boxed callback (the general `defer` path; one allocation each).
    Call(Box<dyn FnOnce() + Send>),
    /// An allocation-free pointer batch bound for a recycler.
    Recycle(Arc<dyn Recycler>, RecycleBatch),
}

impl Deferred {
    /// Wraps a callback for later execution.
    pub(crate) fn new<F: FnOnce() + Send + 'static>(f: F) -> Self {
        Deferred::Call(Box::new(f))
    }

    /// Wraps a recycle batch for later execution.
    pub(crate) fn recycle(target: Arc<dyn Recycler>, batch: RecycleBatch) -> Self {
        Deferred::Recycle(target, batch)
    }

    /// Runs the deferred work, consuming the unit.
    pub(crate) fn call(self) {
        match self {
            Deferred::Call(f) => {
                crate::faults::maybe_panic(crate::faults::site::DEFERRED_CALLBACK);
                f()
            }
            // Safety: `call` runs only at reclamation points, after the
            // grace period of the defer that queued this unit — exactly
            // the contract `Recycler::recycle` requires.
            Deferred::Recycle(target, batch) => unsafe { target.recycle(batch) },
        }
    }
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deferred").finish_non_exhaustive()
    }
}

/// A retired unit plus its accounting: how many heap objects it stands for
/// and the retirer's byte estimate. Carrying the counts through the bag is
/// what keeps the collector's object/byte counters accurate whatever shape
/// the retirement took — one opaque closure, one boxed allocation, or a
/// whole recycle batch (whose entries each count as an object).
pub(crate) struct Retired {
    pub(crate) d: Deferred,
    /// Heap objects this unit reclaims. A recycle batch counts every
    /// pointer; an opaque `Call` closure counts as one.
    pub(crate) objects: usize,
    /// Retirer-supplied estimate of the bytes reclaimed; `0` when unknown
    /// (an opaque closure carries no byte estimate).
    pub(crate) bytes: usize,
}

impl fmt::Debug for Retired {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Retired")
            .field("objects", &self.objects)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

/// A batch of deferred retirements made during the same epoch.
#[derive(Debug, Default)]
pub(crate) struct Bag {
    /// Epoch in which the contents were retired.
    pub(crate) epoch: u64,
    /// The retired units.
    pub(crate) items: Vec<Retired>,
}

impl Bag {
    /// Creates an empty bag tagged with `epoch`.
    pub(crate) fn new(epoch: u64) -> Self {
        Self {
            epoch,
            items: Vec::new(),
        }
    }

    /// Creates a bag tagged with `epoch` over a recycled (empty but
    /// warm-capacity) item buffer — see the collector's bag pool.
    pub(crate) fn with_buffer(epoch: u64, items: Vec<Retired>) -> Self {
        debug_assert!(items.is_empty());
        Self { epoch, items }
    }

    /// Number of retired units held by the bag (the seal-threshold gauge;
    /// see [`objects`](Self::objects) for the object count).
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Number of heap objects the bag's units stand for.
    pub(crate) fn objects(&self) -> usize {
        self.items.iter().map(|r| r.objects).sum()
    }

    /// Whether the bag holds no retirements.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Executes every retirement in the bag, returning how many objects and
    /// bytes were reclaimed, how many `Call` callbacks panicked, plus the
    /// drained item buffer (for the caller to pool).
    ///
    /// A panicking callback is caught here rather than unwinding into the
    /// reclaim loop: the rest of the bag still drains (a buggy destructor
    /// must not turn into a leak of every later retirement), and the panic
    /// count is surfaced through `CollectorStats::callback_panics`. The
    /// unit still counts as reclaimed — its heap object was consumed by the
    /// unwinding closure.
    pub(crate) fn fire(mut self) -> (usize, usize, u64, Vec<Retired>) {
        let mut objects = 0;
        let mut bytes = 0;
        let mut panics = 0;
        for r in self.items.drain(..) {
            objects += r.objects;
            bytes += r.bytes;
            // AssertUnwindSafe: the closure is consumed whether or not it
            // unwinds, and the bag shares no state with it.
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.d.call())).is_err() {
                panics += 1;
            }
        }
        (objects, bytes, panics, self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn deferred_runs_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let d = Deferred::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        d.call();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn bag_fires_all_items() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut bag = Bag::new(7);
        assert!(bag.is_empty());
        for _ in 0..10 {
            let c = counter.clone();
            bag.items.push(Retired {
                d: Deferred::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
                objects: 2,
                bytes: 8,
            });
        }
        assert_eq!(bag.len(), 10);
        assert_eq!(bag.objects(), 20);
        assert_eq!(bag.epoch, 7);
        let (objects, bytes, panics, buffer) = bag.fire();
        assert_eq!(objects, 20);
        assert_eq!(bytes, 80);
        assert_eq!(panics, 0);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        // The drained buffer keeps its capacity for pooling.
        assert!(buffer.is_empty() && buffer.capacity() >= 10);
    }

    #[test]
    fn bag_keeps_draining_past_a_panicking_callback() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut bag = Bag::new(0);
        for i in 0..6 {
            let c = counter.clone();
            bag.items.push(Retired {
                d: Deferred::new(move || {
                    if i % 2 == 0 {
                        panic!("deliberate callback panic");
                    }
                    c.fetch_add(1, Ordering::SeqCst);
                }),
                objects: 1,
                bytes: 4,
            });
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let (objects, bytes, panics, _) = bag.fire();
        std::panic::set_hook(prev);
        assert_eq!(objects, 6);
        assert_eq!(bytes, 24);
        assert_eq!(panics, 3);
        // Every non-panicking callback after a panicking one still ran.
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn recycle_deferred_reaches_its_recycler() {
        struct Sink {
            seen: AtomicUsize,
        }
        impl Recycler for Sink {
            unsafe fn recycle(&self, mut batch: RecycleBatch) {
                self.seen.fetch_add(batch.drain().count(), Ordering::SeqCst);
            }
        }
        let sink = Arc::new(Sink {
            seen: AtomicUsize::new(0),
        });
        let mut batch = RecycleBatch::new();
        // Never-dereferenced markers: the sink only counts.
        let marks = [0u8; 2];
        batch.push(std::ptr::from_ref(&marks[0]).cast_mut().cast());
        batch.push(std::ptr::from_ref(&marks[1]).cast_mut().cast());
        assert_eq!(batch.len(), 2);
        let d = Deferred::recycle(sink.clone() as Arc<dyn Recycler>, batch);
        d.call();
        assert_eq!(sink.seen.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn debug_is_nonempty() {
        let d = Deferred::new(|| {});
        assert!(!format!("{d:?}").is_empty());
        let b = Bag::new(0);
        assert!(!format!("{b:?}").is_empty());
        let r = RecycleBatch::new();
        assert!(!format!("{r:?}").is_empty());
    }
}
