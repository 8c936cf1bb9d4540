//! A slab arena for copy-on-write tree nodes, recycled through the
//! collector's grace periods.
//!
//! Every update of the Bonsai tree allocates O(log n) node boxes and
//! retires as many; with plain `Box` each of those is a malloc/free pair
//! on the writer's hot path. The arena replaces them with fixed-size
//! *blocks* carved from chunks it owns:
//!
//! * **alloc** pops the writer's *private stack* with plain loads and
//!   stores. When that runs dry the writer takes the arena's whole
//!   *shared list* with one `swap`, else a chunk's worth of the family
//!   shelf under one lock, and carves a new chunk only while the arena is
//!   still warming up;
//! * **recycle** happens through the collector: a committed update adds
//!   its replaced nodes to its scratch's pending list, which ships as one
//!   [`RecycleBatch`] via [`Guard::defer_recycle`](rcukit::Guard) once it
//!   holds a chunk's worth ([`CHUNK_BLOCKS`]), and after the grace period
//!   the arena (as the batch's [`Recycler`]) drops each payload in place,
//!   links the blocks into a chain and publishes the chain on the shared
//!   list with one CAS — a node returns to an arena only after its grace
//!   period;
//! * the **batch buffers** themselves are pooled here too, so the retire
//!   step is also allocation-free once warm.
//!
//! # Ownership and lifetime
//!
//! One arena lives in each [`WriterScratch`](crate::tree::WriterScratch) —
//! the tree's mutex-owned scratch and every scratch pooled by a
//! [`RangeLocks`](crate::range_lock::RangeLocks) table — so allocation
//! needs no sharing: exactly one writer holds a given scratch (and its
//! arena) at a time, which is what makes the private stack private and
//! the take-everything `swap` a sound single consumer.
//!
//! Blocks may migrate between sibling arenas: a writer holding scratch A
//! can retire nodes that were allocated from scratch B's arena, and they
//! recycle into A's shared list. Chunk *storage* is therefore deliberately
//! not per-arena: every arena of one family (one `RangeMap` and all its
//! forks, or a standalone tree's lineage) shares one [`ChunkStore`], and
//! every arena — plus, transitively, **every in-flight deferred batch**,
//! which holds an `Arc` to its recycling arena — pins the store. So a
//! block's backing chunk stays allocated as long as *any* family arena or
//! *any* pending batch exists, wherever the block was allocated and
//! whichever list it rests on.
//!
//! Migration is additionally *capped*: an arena's shared list stops
//! accepting chains once its gauge reads [`FREE_CAP`]; the excess lands on
//! the family store's shelf, which any sibling's `alloc` draws from before
//! growing a chunk. This bounds the pathological churn pattern where one
//! scratch does all the retiring (concentrating every free block on lists
//! only its own writer can pop) while the allocating siblings grow the
//! family's chunk count without limit. And an arena's blocks do not die
//! with it: when the last handle *and* the last pending batch are gone,
//! [`ArenaShared`]'s drop moves both of its lists to the shelf, so a
//! family's footprint follows its live lineages, not the forks ever made.

use std::mem::ManuallyDrop;
use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::Arc;

use rcukit::{RecycleBatch, Recycler};

use crate::sync::atomic::{AtomicPtr, AtomicUsize};
use crate::sync::Mutex;

/// Blocks carved per chunk, the unit in which blocks move from the family
/// shelf to a private stack, and the size of the retire batch a writer
/// scratch accumulates before handing it to the backend (see
/// `WriterScratch::commit`). Amortizes the chunk allocation to 1/64th of a
/// warming-up update's allocations; steady state allocates no chunks. The
/// model tier uses tiny chunks, so that a scenario's handful of updates
/// runs the private stack dry, reaches the take-everything `swap` and the
/// shelf, and ships retire batches mid-exploration.
pub(crate) const CHUNK_BLOCKS: usize = if cfg!(loom) { 4 } else { 64 };

/// Cap on pooled batch buffers (one is in use per in-flight retirement; a
/// single writer rarely has more than a handful pending).
const BATCH_POOL_MAX: usize = 32;

/// Cap on one arena's shared list, as read from its gauge
/// ([`ArenaShared::free_len`]). Chains recycled past the cap are diverted
/// to the family [`ChunkStore`]'s shelf, where *any* sibling's `alloc` can
/// take them. Without the cap, pathological churn (one scratch doing all
/// the retiring while others do the allocating) concentrates every free
/// block on one arena's lists — lists only its own writer can pop — and
/// the allocating siblings grow fresh chunks without bound even though the
/// family is swimming in free blocks.
const FREE_CAP: usize = 2 * CHUNK_BLOCKS;

/// One arena block: either a live value or a link in a free list.
/// `repr(C)` so both fields sit at offset zero — a `*mut Block<T>` and the
/// `*mut T` handed to the tree are the same address. Cache-line aligned:
/// blocks are reused across arenas, lineages and threads through the
/// shelf, and a 56-byte tree node packed against its neighbours would
/// share its two lines with nodes other threads are writing.
#[repr(C, align(64))]
union Block<T> {
    value: ManuallyDrop<T>,
    next: *mut Block<T>,
}

/// Last block and length of the non-empty, null-terminated list at `head`.
///
/// # Safety
///
/// `head` must start a list of free blocks that nobody else is changing.
unsafe fn list_end<T>(head: *mut Block<T>) -> (*mut Block<T>, usize) {
    let (mut tail, mut len) = (head, 1);
    loop {
        // Safety: every block of a free list carries a valid link.
        let next = unsafe { (*tail).next };
        if next.is_null() {
            return (tail, len);
        }
        tail = next;
        len += 1;
    }
}

/// Chunk storage shared by every arena of one family (see the module
/// docs): raw leaked slices, not `Box`es in place — moving a `Box`, as a
/// `Vec` does on growth, would invalidate the block pointers derived from
/// it under stacked borrows. Grows during warm-up, never shrinks; freed by
/// `Drop`, i.e. only when the last family arena *and* the last pending
/// batch (each of which pins its arena, which pins the store) are gone.
pub(crate) struct ChunkStore<T> {
    chunks: Mutex<Vec<*mut [Block<T>]>>,
    /// The family-wide shelf, a list threaded through the blocks: chains
    /// diverted from arenas whose shared lists read full, and everything a
    /// dead arena still held. Any sibling's `alloc` cuts a chunk's worth
    /// off it before growing a chunk, which is what keeps the family's
    /// chunk count flat when churn concentrates retirements in one arena
    /// or when lineages come and go.
    shelf: Mutex<*mut Block<T>>,
}

// Safety: the store only owns raw storage; blocks' payloads cross threads
// under the arena protocol (`T: Send`), and all mutation is under the
// mutexes.
unsafe impl<T: Send> Send for ChunkStore<T> {}
// Safety: as above.
unsafe impl<T: Send> Sync for ChunkStore<T> {}

impl<T> ChunkStore<T> {
    pub(crate) fn new() -> Self {
        Self {
            chunks: Mutex::new(Vec::new()),
            shelf: Mutex::new(ptr::null_mut()),
        }
    }

    /// Splices the list at `head` (null for none) onto the shelf, under
    /// one lock.
    ///
    /// # Safety
    ///
    /// The list must be null-terminated, made of this family's free
    /// blocks, and exclusively owned by the caller.
    unsafe fn shelve(&self, head: *mut Block<T>) {
        if head.is_null() {
            return;
        }
        // Safety: the list is the caller's, and the shelf is ours under
        // its lock (whose sections cannot panic, hence `into_inner`).
        let (tail, _) = unsafe { list_end(head) };
        let mut shelf = self.shelf.lock().unwrap_or_else(|e| e.into_inner());
        unsafe { (*tail).next = *shelf };
        *shelf = head;
    }

    /// Cuts up to a chunk's worth of blocks off the shelf under one lock;
    /// null when the shelf is empty.
    fn unshelve(&self) -> *mut Block<T> {
        let mut shelf = self.shelf.lock().unwrap_or_else(|e| e.into_inner());
        let head = *shelf;
        if head.is_null() {
            return head;
        }
        let mut last = head;
        for _ in 1..CHUNK_BLOCKS {
            // Safety: the shelf's list is ours under its lock and every
            // block on it carries a valid link.
            let next = unsafe { (*last).next };
            if next.is_null() {
                break;
            }
            last = next;
        }
        // Safety: as above; cuts the taken blocks off the list.
        *shelf = unsafe { std::mem::replace(&mut (*last).next, ptr::null_mut()) };
        head
    }

    /// Blocks the family has carved and blocks resting on its shelf.
    /// Audit aid, paired with [`Arena::free_blocks`].
    pub(crate) fn carved_and_shelved(&self) -> (usize, usize) {
        let carved = self.chunks.lock().unwrap().len() * CHUNK_BLOCKS;
        let shelf = self.shelf.lock().unwrap();
        // Safety: the shelf's list is ours under its lock.
        let shelved = if shelf.is_null() {
            0
        } else {
            unsafe { list_end(*shelf).1 }
        };
        (carved, shelved)
    }
}

impl<T> Drop for ChunkStore<T> {
    fn drop(&mut self) {
        // Runs only once no family arena and no pending batch holds the
        // store: every block's payload has already been dropped (in place
        // by the owning structure's drop, or by `drop_payload`), and
        // `Block` has no drop glue of its own, so this only releases the
        // storage (the shelf is threaded through it).
        for &raw in self.chunks.get_mut().unwrap().iter() {
            // Safety: leaked by `Arena::grow`, freed exactly once here.
            unsafe { drop(Box::from_raw(raw)) };
        }
    }
}

/// The shared arena state: the free lists, a handle on the family chunk
/// store, the batch-buffer pool.
pub(crate) struct ArenaShared<T> {
    /// The writer's private stack of free blocks. An owner-thread word:
    /// only the writer holding the owning scratch loads or stores it (the
    /// lock that lends the scratch orders one holder's accesses before the
    /// next's), so every access is a plain `Relaxed` load or store and
    /// none is a read-modify-write. It lives here rather than in the
    /// handle so the arena's drop can find it.
    local: AtomicPtr<Block<T>>,
    /// The shared list: a stack of free blocks threaded through the blocks
    /// themselves. Multi-producer (any reclaiming thread pushes a chain),
    /// single-consumer (only the writer holding the owning scratch takes
    /// it, whole, onto `local`).
    free: AtomicPtr<Block<T>>,
    /// The [`FREE_CAP`] gauge: blocks pushed onto `free` since the owner
    /// last took the list. It counts only the shared list — never the
    /// private stack — and resets on every take. A push bumps it after
    /// its CAS and a take zeroes it after its `swap`, so it can
    /// transiently read low (blocks on the list not yet counted) or high
    /// (counted blocks the owner already took, until its next take) by at
    /// most the chains then in flight. Reading low admits a few chains
    /// past the cap, reading high diverts a few early; neither
    /// accumulates, because the next take resets the gauge, so an arena
    /// holds at most about 2 × `FREE_CAP` free blocks (one taken list and
    /// one full shared list) plus what the owner itself freed.
    free_len: AtomicUsize,
    /// The family chunk store backing this arena's blocks — and, because
    /// blocks migrate, possibly blocks on sibling lists too. Held by `Arc`
    /// so a pending batch (which holds an `Arc` to this arena) pins every
    /// chunk any of its blocks could live in.
    store: Arc<ChunkStore<T>>,
    /// Drained batch buffers awaiting reuse by the next commit.
    batches: Mutex<Vec<RecycleBatch>>,
}

// Safety: the raw pointers are either free blocks owned by the family's
// store or are handed out under the writer protocol; payloads cross
// threads only on the recycle path, which drops a `T` on the reclaiming
// thread — hence `T: Send`.
unsafe impl<T: Send> Send for ArenaShared<T> {}
// Safety: as above; all shared mutation goes through the atomic list heads
// or the internal mutexes.
unsafe impl<T: Send> Sync for ArenaShared<T> {}

impl<T> ArenaShared<T> {
    /// Publishes the chain `head ..= tail` of `len` free blocks on the
    /// shared list (the multi-producer half) with one CAS, or — once the
    /// gauge reads [`FREE_CAP`] — splices it onto the family shelf.
    ///
    /// # Safety
    ///
    /// The chain must be null-terminated at `tail`, made of this family's
    /// free blocks, and exclusively owned by the caller.
    unsafe fn push_chain(&self, head: *mut Block<T>, tail: *mut Block<T>, len: usize) {
        // ordering: Relaxed — occupancy heuristic; over- or under-reading
        // only shifts which list the chain lands on, never its safety (see
        // `free_len` for the bound).
        if self.free_len.load(Relaxed) >= FREE_CAP {
            // Safety: forwarded contract.
            unsafe { self.store.shelve(head) };
            return;
        }
        // ordering: Relaxed — only a seed for the CAS below, which
        // re-validates it; the link write is published by the CAS's
        // Release, not by this read.
        let mut seen = self.free.load(Relaxed);
        loop {
            // Safety: the chain is exclusively owned by this call until
            // the CAS publishes it; writing its tail link cannot race.
            unsafe { (*tail).next = seen };
            // ordering: Release success — publishes every link write in
            // the chain (and the payload drops before them) to the owner's
            // Acquire `swap` in `refill` before any block becomes
            // reachable; an earlier pusher's writes reach the owner
            // through the release sequence this RMW extends. Relaxed
            // failure — a lost race just reseeds the loop.
            match self.free.compare_exchange(seen, head, Release, Relaxed) {
                Ok(_) => break,
                Err(h) => seen = h,
            }
        }
        // ordering: Relaxed — the gauge (see `free_len`).
        self.free_len.fetch_add(len, Relaxed);
    }

    /// Pops the private stack. Owner only.
    fn pop(&self) -> Option<*mut Block<T>> {
        // ordering: Relaxed — owner-thread word (see `local`).
        let head = self.local.load(Relaxed);
        if head.is_null() {
            return None;
        }
        // ordering: Relaxed — owner-thread word.
        // Safety: a block on the private stack is ours alone and its link
        // was written before it got there.
        self.local.store(unsafe { (*head).next }, Relaxed);
        Some(head)
    }

    /// Pushes one free block on the private stack. Owner only.
    ///
    /// # Safety
    ///
    /// `block` must be a free block exclusively owned by the caller.
    unsafe fn push(&self, block: *mut Block<T>) {
        // ordering: Relaxed (load and store) — owner-thread word.
        // Safety: exclusively owned per the contract.
        unsafe { (*block).next = self.local.load(Relaxed) };
        self.local.store(block, Relaxed);
    }

    /// Refills the empty private stack — the whole shared list if it holds
    /// anything, else a chunk's worth of the family shelf — and pops it.
    /// Owner only.
    fn refill(&self) -> Option<*mut Block<T>> {
        let mut head = ptr::null_mut();
        // ordering: Relaxed — emptiness peek that saves the RMW below
        // when nothing has been recycled; a stale null only sends this
        // allocation to the shelf.
        if !self.free.load(Relaxed).is_null() {
            // ordering: Acquire — pairs with `push_chain`'s Release CAS:
            // every taken block's link write (and the payload drop before
            // it) happens-before the owner follows the link or reuses the
            // block. Taking the whole list leaves no window in which a
            // block could be popped and pushed back under a reader of its
            // link, so there is no ABA to guard against.
            head = self.free.swap(ptr::null_mut(), Acquire);
            // ordering: Relaxed — the gauge resets on every take (see
            // `free_len`).
            self.free_len.store(0, Relaxed);
        }
        if head.is_null() {
            head = self.store.unshelve();
        }
        // ordering: Relaxed — owner-thread word.
        self.local.store(head, Relaxed);
        self.pop()
    }

    /// Drops the payload of a retired block, leaving a free block.
    ///
    /// # Safety
    ///
    /// `block` must hold an initialized `T` that no thread can still
    /// observe, retired exactly once.
    unsafe fn drop_payload(block: *mut Block<T>) {
        // Safety: per the contract, the payload is initialized and ours.
        // Raw projection (`addr_of_mut!`), never a reference: the sibling
        // union field is a dead link word.
        unsafe { ptr::drop_in_place(ptr::addr_of_mut!((*block).value).cast::<T>()) };
    }
}

impl<T> Drop for ArenaShared<T> {
    fn drop(&mut self) {
        // The last handle and the last pending batch are gone, so nothing
        // can allocate from or recycle into this arena again; its free
        // blocks go back to the family instead of idling until the whole
        // family dies.
        for list in [&self.local, &self.free] {
            // ordering: Relaxed — `&mut self` proves exclusive access
            // (loomette's atomics have no `get_mut`).
            // Safety: every list is exclusively ours now.
            unsafe { self.store.shelve(list.load(Relaxed)) };
        }
    }
}

// The recycle half: after a grace period the collector hands a retired
// batch back, and the arena turns each pointer into a free block.
impl<T: Send> Recycler for ArenaShared<T> {
    unsafe fn recycle(&self, mut batch: RecycleBatch) {
        let (mut head, mut tail) = (ptr::null_mut::<Block<T>>(), ptr::null_mut());
        let len = batch.len();
        for p in batch.drain() {
            let block = p as *mut Block<T>;
            // Safety: `defer_recycle`'s contract (each pointer is an
            // arena-family block holding an initialized node, past its
            // grace period, retired exactly once) is `drop_payload`'s, and
            // makes the block ours to link in front of the chain.
            unsafe {
                Self::drop_payload(block);
                (*block).next = head;
            }
            if head.is_null() {
                tail = block;
            }
            head = block;
        }
        if len > 0 {
            // Safety: the chain just built is ours alone.
            unsafe { self.push_chain(head, tail, len) };
        }
        let mut pool = self.batches.lock().unwrap();
        if pool.len() < BATCH_POOL_MAX {
            pool.push(batch);
        }
    }

    unsafe fn recycle_one(&self, ptr: *mut ()) {
        // The hazard-pointer scan reclaims per pointer; going straight to
        // the block keeps that path free of the default method's
        // one-element batch allocation.
        let block = ptr as *mut Block<T>;
        // Safety: forwarded contract — identical to a batch entry's; the
        // block is then a one-block chain of ours.
        unsafe {
            Self::drop_payload(block);
            (*block).next = ptr::null_mut();
            self.push_chain(block, block, 1);
        }
    }
}

/// A writer-owned handle to a slab arena of `T` blocks. See the module
/// docs for the ownership story; the handle itself must only be used by
/// one writer at a time (it lives inside a lock-guarded scratch).
pub(crate) struct Arena<T> {
    shared: Arc<ArenaShared<T>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// A standalone arena over its own (single-member) family store.
    pub(crate) fn new() -> Self {
        Self::with_store(Arc::new(ChunkStore::new()))
    }

    /// An arena joining an existing family: blocks it allocates live in
    /// `store`, and retirements recycled here may carry blocks from any
    /// sibling over the same store.
    pub(crate) fn with_store(store: Arc<ChunkStore<T>>) -> Self {
        Self {
            shared: Arc::new(ArenaShared {
                local: AtomicPtr::new(ptr::null_mut()),
                free: AtomicPtr::new(ptr::null_mut()),
                free_len: AtomicUsize::new(0),
                store,
                batches: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Allocates a block holding `value`: the private stack first, then
    /// the shared list, then the family shelf, a fresh chunk only when all
    /// three are dry (warm-up). Returns a pointer valid until the block is
    /// reclaimed (and stable across publication — the tree hands it to
    /// readers).
    pub(crate) fn alloc(&self, value: T) -> *mut T {
        // Failpoint: models allocation failure (as Rust's infallible
        // allocator surfaces it — an unwind) before any free-list state
        // moves, so an injected failure leaves the arena untouched.
        rcukit::faults::maybe_panic(rcukit::faults::site::ARENA_ALLOC);
        let shared = &*self.shared;
        let block = shared
            .pop()
            .or_else(|| shared.refill())
            .unwrap_or_else(|| self.grow());
        // Safety: `block` is free (popped or freshly carved), so writing
        // the payload cannot race or overwrite a live value. Raw
        // projection only — a `&mut` to the uninitialized payload would
        // assert validity it does not have.
        unsafe { ptr::write(ptr::addr_of_mut!((*block).value).cast::<T>(), value) };
        block as *mut T
    }

    /// Carves a new chunk, making all but one block the (empty) private
    /// stack and returning that one.
    fn grow(&self) -> *mut Block<T> {
        let chunk: Box<[Block<T>]> = (0..CHUNK_BLOCKS)
            .map(|_| Block {
                next: ptr::null_mut(),
            })
            .collect();
        let raw = Box::into_raw(chunk);
        let base = raw as *mut Block<T>;
        for i in 1..CHUNK_BLOCKS - 1 {
            // Safety: in-bounds blocks of the just-leaked chunk, ours
            // alone; the last one keeps its null link.
            unsafe { (*base.add(i)).next = base.add(i + 1) };
        }
        // ordering: Relaxed — owner-thread word; the stack is empty, or
        // `alloc` would not be growing.
        self.shared.local.store(unsafe { base.add(1) }, Relaxed);
        self.shared.store.chunks.lock().unwrap().push(raw);
        base
    }

    /// Drops the payload and returns the block to the private stack
    /// immediately, with no grace period — for speculative nodes a failed
    /// CAS (or a rotation within the attempt) proved no reader ever saw.
    ///
    /// # Safety
    ///
    /// `ptr` must come from an arena sharing this arena's owner (see the
    /// module docs on block migration), hold an initialized `T`, be
    /// unreachable by any thread, and be reclaimed exactly once; the
    /// caller must be the writer holding this arena.
    pub(crate) unsafe fn reclaim_now(&self, ptr: *mut T) {
        let block = ptr as *mut Block<T>;
        // Safety: forwarded contract.
        unsafe {
            ArenaShared::drop_payload(block);
            self.shared.push(block);
        }
    }

    /// Pops a pooled (drained, warm-capacity) batch buffer for the next
    /// retirement, or a fresh empty one during warm-up.
    pub(crate) fn take_batch(&self) -> RecycleBatch {
        self.shared
            .batches
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_default()
    }

    /// The family chunk store this arena belongs to — how a forked tree's
    /// scratch joins its parent's block-lifetime family.
    pub(crate) fn store(&self) -> Arc<ChunkStore<T>> {
        self.shared.store.clone()
    }

    /// Number of chunks allocated by the whole family so far — the
    /// capacity-flat proxy for the allocation-diet tests: steady-state
    /// churn must stop moving this.
    pub(crate) fn chunks(&self) -> usize {
        self.shared.store.chunks.lock().unwrap().len()
    }

    /// Free blocks on this arena's two lists, by walking them. Audit aid:
    /// sound only while no writer holds the arena and no batch can fire
    /// into it (the family is quiescent and its backend drained).
    pub(crate) fn free_blocks(&self) -> usize {
        let shared = &*self.shared;
        [&shared.local, &shared.free]
            .into_iter()
            // ordering: Relaxed — quiescent per the contract above.
            .map(|list| list.load(Relaxed))
            .filter(|head| !head.is_null())
            // Safety: quiescence makes every list ours to read.
            .map(|head| unsafe { list_end(head).1 })
            .sum()
    }

    /// The shared list's gauge (test probe for the [`FREE_CAP`]
    /// diversion).
    #[cfg(test)]
    fn free_len(&self) -> usize {
        // ordering: Relaxed — test probe of the heuristic counter.
        self.shared.free_len.load(Relaxed)
    }
}

impl<T: Send + 'static> Arena<T> {
    /// The `Arc` handed to [`rcukit::Guard::defer_recycle`]; each pending
    /// batch holds one, keeping the arena's chunks alive until the batch
    /// fires.
    pub(crate) fn recycler(&self) -> Arc<dyn Recycler> {
        self.shared.clone()
    }
}

impl<T> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("chunks", &self.chunks())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reclaim_now_reuses_blocks() {
        let arena: Arena<u64> = Arena::new();
        let a = arena.alloc(7);
        // Safety: `a` is ours alone; reclaimed exactly once.
        unsafe { arena.reclaim_now(a) };
        let b = arena.alloc(9);
        assert_eq!(a, b, "recycled block not reused");
        // Safety: as above.
        unsafe { assert_eq!(*b, 9) };
        unsafe { arena.reclaim_now(b) };
        assert_eq!(arena.chunks(), 1);
    }

    #[test]
    fn steady_churn_allocates_no_new_chunks() {
        let arena: Arena<[u64; 4]> = Arena::new();
        // Warm up past one chunk.
        let mut live: Vec<*mut [u64; 4]> = (0..3 * CHUNK_BLOCKS as u64)
            .map(|i| arena.alloc([i; 4]))
            .collect();
        let warm = arena.chunks();
        assert!(warm >= 3);
        for _ in 0..10_000 {
            // Safety: each pointer is live, owned here, reclaimed once.
            unsafe { arena.reclaim_now(live.pop().unwrap()) };
            live.push(arena.alloc([0; 4]));
        }
        assert_eq!(arena.chunks(), warm, "steady churn grew the arena");
        for p in live {
            // Safety: as above.
            unsafe { arena.reclaim_now(p) };
        }
    }

    /// The concentration cap (ROADMAP watch-item): churn that allocates
    /// from one family arena but retires everything through a sibling
    /// must not grow the family's chunk count without bound. Before the
    /// [`FREE_CAP`] overflow shelf, every freed block piled up on the
    /// retiring arena's private list — unreachable to the allocating
    /// sibling, which grew a fresh chunk set per round.
    #[test]
    fn concentrated_churn_keeps_chunk_count_flat() {
        const ROUNDS: usize = 10;
        const BLOCKS: usize = 6 * CHUNK_BLOCKS;
        let store = Arc::new(ChunkStore::new());
        let a: Arena<u64> = Arena::with_store(store.clone());
        let b: Arena<u64> = Arena::with_store(store.clone());
        let mut settled = 0;
        for round in 0..ROUNDS {
            // A allocates; everything retires through B (the worst-case
            // one-directional migration under cross-stripe churn).
            let live: Vec<*mut u64> = (0..BLOCKS as u64).map(|i| a.alloc(i)).collect();
            let recycler = b.recycler();
            for group in live.chunks(CHUNK_BLOCKS) {
                let mut batch = b.take_batch();
                for &p in group {
                    batch.push(p as *mut ());
                }
                // Safety: every block is unreachable (the test is the
                // sole owner) and retired exactly once.
                unsafe { recycler.recycle(batch) };
            }
            // B's shared list never exceeds its cap (B never allocates,
            // so its gauge never resets and counts exactly); the rest of
            // the family's free blocks sit on the shelf.
            assert!(
                b.free_len() <= FREE_CAP && b.free_blocks() == b.free_len(),
                "round {round}: shared list above cap ({})",
                b.free_len()
            );
            if round == 2 {
                // By now A has grown the one-time make-up for the blocks
                // parked on B's capped list; from here the shelf recirculates.
                settled = a.chunks();
            }
            if round > 2 {
                assert_eq!(
                    a.chunks(),
                    settled,
                    "round {round}: concentrated churn regrew the family"
                );
            }
        }
        assert!(settled > 0);
        assert!(store.carved_and_shelved().1 > 0, "diversion never engaged");
    }

    /// The gauge's stated meaning: it counts the shared list only, and a
    /// take resets it — so an owner that keeps allocating keeps accepting
    /// recycled chains, however many blocks have passed through.
    #[test]
    fn gauge_counts_the_shared_list_and_resets_on_every_take() {
        let arena: Arena<u64> = Arena::new();
        let recycler = arena.recycler();
        for round in 0..4 * FREE_CAP as u64 {
            let live: Vec<*mut u64> = (0..8).map(|i| arena.alloc(round + i)).collect();
            let mut batch = arena.take_batch();
            for &p in &live {
                batch.push(p as *mut ());
            }
            // Safety: unreachable (sole owner), retired exactly once.
            unsafe { recycler.recycle(batch) };
            assert!(arena.free_len() <= FREE_CAP, "gauge never reset");
        }
        assert_eq!(arena.chunks(), 1, "recirculating churn grew the arena");
        assert_eq!(
            arena.shared.store.carved_and_shelved().1,
            0,
            "an allocating owner's chains were diverted"
        );
    }

    /// A dying arena — last handle *and* last pending batch gone — hands
    /// the blocks on both of its lists to the family shelf, where the next
    /// sibling finds them before growing a chunk.
    #[test]
    fn dead_arena_returns_its_blocks_to_the_family_shelf() {
        let store = Arc::new(ChunkStore::new());
        let child: Arena<u64> = Arena::with_store(store.clone());
        let live: Vec<*mut u64> = (0..10).map(|i| child.alloc(i)).collect();
        let mut batch = child.take_batch();
        for &p in &live[..4] {
            batch.push(p as *mut ());
        }
        for &p in &live[4..] {
            // Safety: live, owned here, reclaimed once.
            unsafe { child.reclaim_now(p) };
        }
        // The "pending batch" outlives the handle and fires afterwards.
        let recycler = child.recycler();
        drop(child);
        assert_eq!(store.carved_and_shelved(), (CHUNK_BLOCKS, 0));
        // Safety: unreachable, retired exactly once.
        unsafe { recycler.recycle(batch) };
        drop(recycler);
        assert_eq!(
            store.carved_and_shelved(),
            (CHUNK_BLOCKS, CHUNK_BLOCKS),
            "dead arena kept its blocks"
        );
        let next: Arena<u64> = Arena::with_store(store.clone());
        let again: Vec<*mut u64> = (0..CHUNK_BLOCKS as u64).map(|i| next.alloc(i)).collect();
        assert_eq!(next.chunks(), 1, "sibling grew a chunk past a full shelf");
        for p in again {
            // Safety: as above.
            unsafe { next.reclaim_now(p) };
        }
    }

    #[test]
    fn recycle_one_returns_the_block_directly() {
        let arena: Arena<u64> = Arena::new();
        let p = arena.alloc(11);
        let recycler = arena.recycler();
        // Safety: `p` is unreachable and retired exactly once; this test
        // plays the hazard-pointer scan's per-pointer reclaim role.
        unsafe { recycler.recycle_one(p as *mut ()) };
        assert_eq!(arena.free_len(), 1, "block not on the shared list");
        let again: Vec<*mut u64> = (0..CHUNK_BLOCKS as u64).map(|i| arena.alloc(i)).collect();
        assert!(again.contains(&p), "recycled block not reused");
        assert_eq!(arena.chunks(), 1);
        for q in again {
            // Safety: as above.
            unsafe { arena.reclaim_now(q) };
        }
    }

    #[test]
    fn payloads_are_dropped_on_reclaim() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let arena: Arena<Counted> = Arena::new();
        let p = arena.alloc(Counted);
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        // Safety: live, owned, reclaimed once.
        unsafe { arena.reclaim_now(p) };
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn recycler_returns_blocks_and_pools_the_buffer() {
        let arena: Arena<u64> = Arena::new();
        let a = arena.alloc(1);
        let b = arena.alloc(2);
        let mut batch = arena.take_batch();
        batch.push(a as *mut ());
        batch.push(b as *mut ());
        let recycler = arena.recycler();
        // Safety: both blocks are unreachable and retired exactly once;
        // this test plays the role of the post-grace-period collector.
        unsafe { recycler.recycle(batch) };
        // Both blocks are handed out again before the arena grows a
        // second chunk, in whatever order the lists yield them…
        let again: Vec<*mut u64> = (0..CHUNK_BLOCKS as u64).map(|i| arena.alloc(i)).collect();
        assert_eq!(arena.chunks(), 1);
        assert!(again.contains(&a) && again.contains(&b));
        // …and the buffer pooled with its capacity.
        assert!(arena.take_batch().capacity() >= 2);
        for p in again {
            // Safety: as above.
            unsafe { arena.reclaim_now(p) };
        }
    }
}
