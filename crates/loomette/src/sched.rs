//! The cooperative scheduler and schedule explorer.
//!
//! One model *run* executes the test body with real OS threads, but only one
//! thread is ever runnable at a time: every instrumented operation (atomic
//! access, fence, mutex acquire, spawn/join) is a *switch point* where the
//! scheduler decides which thread runs next. A run is therefore sequentially
//! consistent by construction and — because the test body is deterministic —
//! exactly reproducible from the sequence of scheduling decisions.
//!
//! Exploration is depth-first over that decision tree: after each run the
//! deepest decision with an untried alternative is bumped and the prefix is
//! replayed (the classic stateless-model-checking loop). The tree is pruned
//! with a context-switch bound: schedules may *preempt* a runnable thread at
//! most [`preemption_bound`](Explorer::preemption_bound) times (CHESS-style;
//! most concurrency bugs need very few preemptions). Forced switches — the
//! current thread blocked or finished — are always free.
//!
//! # The store-buffer (TSO) mode
//!
//! With [`Explorer::mem_model`] set to [`MemModel::Tso`] (or
//! `LOOMETTE_MODEL=tso`), the model adds x86-TSO
//! store buffers: each thread owns a FIFO of not-yet-visible atomic stores.
//! A non-`SeqCst` instrumented store is appended to its thread's buffer
//! instead of hitting memory; loads forward from the own buffer (newest
//! entry for the location) and otherwise read committed memory — so a load
//! can complete *before* an earlier store of the same thread becomes
//! visible, the one reordering TSO allows. `SeqCst` stores, all RMWs
//! (swap/CAS/fetch ops), `fence(SeqCst)`, and every scheduler-level
//! synchronization edge (mutex acquire/release, condvar ops, spawn, thread
//! finish) drain the issuing thread's buffer, exactly like the fence or
//! lock-prefixed instruction they compile to. Flush points in between are
//! non-deterministic: at every scheduling decision the explorer may commit
//! the oldest buffered entry of any thread instead of running a thread —
//! an *early flush* choice charged against the same preemption bound (it
//! is a "weirdness event" in the CHESS sense), which keeps the extra
//! branching bounded. The default behaviour — buffers draining as late as
//! possible — is the free path, and it is the one that exposes
//! store-buffering bugs.
//!
//! # The acquire/release (AcqRel) mode
//!
//! With [`Explorer::mem_model`] set to [`MemModel::AcqRel`] (or
//! `LOOMETTE_MODEL=acqrel`), the checker drops the single shared memory
//! and models C11-style release/acquire semantics the way loom documents
//! its own design (CDSChecker-style): every atomic location keeps its own
//! **modification order** — the list of stores executed against it — and a
//! load does not necessarily read the newest one. Instead the explorer
//! computes the load's *reads-from candidate set*: every store not ruled
//! out by happens-before (a load may not read a store that some
//! hb-later store to the same location has already overwritten, nor one
//! older than what the thread itself last read or wrote there — coherence)
//! and picks among them. Reading the newest store is the free path —
//! exactly the SC execution — and each *stale* choice is a weirdness event
//! charged against the preemption bound, the same way TSO charges early
//! flushes, so the extra branching stays bounded.
//!
//! Happens-before is tracked with per-thread vector clocks:
//!
//! * a `Release` store (or RMW) carries the writer's clock; an `Acquire`
//!   load that reads it joins that clock — the release/acquire edge;
//! * RMWs join the release clock of the store they overwrite into their
//!   own, which is exactly the C11 **release sequence** (an acquire read
//!   of the last RMW in a chain synchronizes with the head);
//! * a `Relaxed` store after a release fence carries the fence-point
//!   clock; a relaxed load *remembers* the release clock it saw and a
//!   later acquire fence turns it into hb — the C11 fence rules;
//! * `fence(SeqCst)` additionally joins the thread's clock with a global
//!   SC clock **both ways**. Consecutive SC fences are therefore totally
//!   ordered by execution order and transfer hb, which gives the Dekker
//!   (StoreLoad) guarantee the six named protocol fences rely on. This is
//!   (knowingly) a little *stronger* than the C11 fence axioms — it can
//!   miss behaviours real fences allow, never invent them;
//! * per-op `SeqCst` atomics are modeled as the op bracketed by SC
//!   fences: SC among themselves (IRIW-SC stays forbidden), release/
//!   acquire toward everything else.
//!
//! RMWs read the newest store in modification order (their write is
//! appended right after — C11 atomicity) so they never branch. Scheduler
//! edges (mutex, condvar, spawn, join, finish) join clocks as full
//! release/acquire edges.
//!
//! Two honest scope limits, shared with every operational (non-promising)
//! checker of this family: stores enter modification order in execution
//! order (no speculative placement, so some 2+2W coherence weirdness is
//! not explored) and loads never read stores that have not executed yet
//! (no load-buffering — the LB litmus's weak outcome, which C11 relaxed
//! formally allows, is not exhibited). Both are *under*-approximations of
//! weakness on top of an explored superset of SC; the litmus suite in
//! `tests/litmus.rs` pins the exact outcome table per model.
//!
//! # Failing-schedule replay
//!
//! Every model failure prints a compact *schedule token* — the recorded
//! decision sequence, e.g. `1-0-r0-f1-2`: plain numbers are thread
//! choices, `rN` is "read the candidate at modification-order index N",
//! `fN` is "flush thread N's oldest buffered store". Running the same
//! test with `LOOMETTE_REPLAY=<token>` (and the same model/bound
//! environment) re-executes exactly that schedule once — a CI failure
//! becomes a deterministic unit test.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread as os_thread;

/// Default preemption bound (see module docs). Overridable per model via
/// [`Explorer`] or the `LOOMETTE_PREEMPTIONS` environment variable.
pub const DEFAULT_PREEMPTION_BOUND: usize = 2;

/// Which memory model the explorer runs the test body under.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemModel {
    /// SeqCst-exact: every atomic executes as `SeqCst`; the model is
    /// sequentially consistent by construction (an under-approximation
    /// for code using weaker orderings).
    #[default]
    Sc,
    /// x86-TSO store buffers: non-`SeqCst` stores sit in a per-thread
    /// FIFO with nondeterministic flush points (see the module docs).
    Tso,
    /// C11-style release/acquire: per-location modification orders, a
    /// reads-from relation explored as scheduling choices, vector-clock
    /// happens-before, release sequences and fence semantics (see the
    /// module docs).
    AcqRel,
}

impl MemModel {
    /// Parses the `LOOMETTE_MODEL` environment value (`sc`, `tso`,
    /// `acqrel`; case-insensitive).
    pub fn parse(s: &str) -> Option<MemModel> {
        match s.to_ascii_lowercase().as_str() {
            "sc" | "seqcst" => Some(MemModel::Sc),
            "tso" => Some(MemModel::Tso),
            "acqrel" | "acq-rel" | "c11" => Some(MemModel::AcqRel),
            _ => None,
        }
    }

    /// The name CI and replay messages use for this model.
    pub fn name(self) -> &'static str {
        match self {
            MemModel::Sc => "sc",
            MemModel::Tso => "tso",
            MemModel::AcqRel => "acqrel",
        }
    }
}

/// A vector clock: `clock[t]` counts the labeled operations of thread `t`
/// that happen-before the clock's owner. Threads are few and short-lived
/// per run, so a flat `Vec` beats anything clever.
pub(crate) type Clock = Vec<u64>;

/// `dst := dst ⊔ src` (pointwise max, growing `dst` as needed).
fn join(dst: &mut Clock, src: &Clock) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = (*d).max(*s);
    }
}

/// The initial-value pseudo-store's writer id: initialization
/// happens-before the whole model, so it is hb-visible to every load.
const INIT_WRITER: usize = usize::MAX;

/// One entry of a location's modification order (AcqRel mode).
struct StoreEvt {
    val: u64,
    /// Writing thread (or [`INIT_WRITER`] for the initial value).
    writer: usize,
    /// The writer's own clock component at this store: store `S` by `w`
    /// happens-before thread `t` iff `clocks[t][w] >= S.writer_seq`.
    writer_seq: u64,
    /// Release clock acquirers join (empty ⇒ no synchronization): the
    /// writer's clock for `Release`+ stores, the writer's last
    /// release-fence clock for `Relaxed` stores, and for RMWs the join of
    /// that with the overwritten store's release clock (release
    /// sequences).
    rel: Clock,
}

/// Per-location state in AcqRel mode: the modification order, plus an
/// owned handle keeping the backing cell alive so the pointer key stays
/// unique for the whole run.
struct LocHist {
    _cell: BackingCell,
    stores: Vec<StoreEvt>,
    /// Every read of this location as (reader, reader_seq, store index):
    /// read-read coherence (C11 CoRR) forbids a load from reading
    /// mod-order-*before* a read it happens-after, so hb-covered entries
    /// raise the candidate floor exactly like hb-covered stores do.
    reads: Vec<(usize, u64, usize)>,
}

/// One `loomette::cell::UnsafeCell`'s access history (AcqRel race
/// detection): the last write and every read since it, as (thread,
/// thread-seq) hb stamps.
#[derive(Default)]
struct CellState {
    last_write: Option<(usize, u64)>,
    reads_since: Vec<(usize, u64)>,
}

/// The shared backing word of one instrumented atomic: the committed value
/// lives in a process-heap cell kept alive by `Arc` from both the atomic
/// object *and* any store-buffer entries targeting it, so a buffered store
/// can never dangle even if the atomic is dropped before the flush (the
/// collector scenarios drop their structures on thread 0 before `finish`).
/// All value types encode into the one `u64` (see `sync::atomic`).
pub(crate) type BackingCell = Arc<std::sync::atomic::AtomicU64>;

/// Scheduling-option encoding for "commit the oldest store-buffer entry of
/// thread `v - FLUSH_BASE`" (plain thread ids are always far below this).
const FLUSH_BASE: usize = usize::MAX / 2;

/// Decision encoding for "read the store at modification-order index
/// `v - READ_BASE`" (AcqRel reads-from choices). Thread ids stay far
/// below this, and mod-order indices far below `FLUSH_BASE - READ_BASE`,
/// so the three option ranges never collide.
const READ_BASE: usize = usize::MAX / 4;

/// Hard cap on runs per [`crate::model`] call; exceeding it means the test
/// is too big to check exhaustively and should be shrunk.
pub const DEFAULT_MAX_RUNS: usize = 500_000;

thread_local! {
    /// The scheduler governing the current OS thread, if it is a model
    /// thread. `None` outside a model: instrumented ops degrade to their
    /// plain `std` behaviour.
    static CURRENT: Cell<Option<(*const Scheduler, usize)>> = const { Cell::new(None) };
}

/// Runs `f` with this thread registered as model thread `tid` of `sched`.
fn with_current<R>(sched: &Arc<Scheduler>, tid: usize, f: impl FnOnce() -> R) -> R {
    CURRENT.with(|c| c.set(Some((Arc::as_ptr(sched), tid))));
    let out = f();
    CURRENT.with(|c| c.set(None));
    out
}

/// The scheduler handle for the calling thread, or `None` outside a model.
///
/// # Safety of the raw pointer
///
/// The `Arc<Scheduler>` is kept alive by the spawn wrapper for the whole
/// time the TLS entry is set, so the pointer is always valid when read.
fn current() -> Option<(&'static Scheduler, usize)> {
    CURRENT.with(|c| c.get().map(|(p, tid)| (unsafe { &*p }, tid)))
}

/// What a model thread is currently able to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    /// Ready to execute.
    Runnable,
    /// Waiting for a loomette mutex to be released.
    BlockedMutex(usize),
    /// Waiting for a loomette condvar to be notified.
    BlockedCondvar(usize),
    /// Waiting for another model thread to finish.
    BlockedJoin(usize),
    /// Body returned (or unwound).
    Finished,
}

/// One recorded scheduling decision: the runnable candidates at the point
/// (in try order) and which one was taken this run.
#[derive(Clone, Debug)]
pub(crate) struct Choice {
    options: Vec<usize>,
    chosen: usize, // index into `options`
}

/// Mutable scheduler state, shared by every thread of one run.
struct State {
    threads: Vec<Run>,
    /// The single thread allowed to execute.
    current: usize,
    /// Decisions to replay from the previous run, as thread ids.
    prefix: Vec<usize>,
    /// How many recorded decision points have been passed this run.
    step: usize,
    /// Decisions recorded this run (only points with >1 option).
    trace: Vec<Choice>,
    /// Preemptive (non-forced) switches taken so far this run. In TSO mode
    /// early store-buffer flushes are charged here too; in AcqRel mode,
    /// stale reads-from choices.
    preemptions: usize,
    preemption_bound: usize,
    /// Memory model this run explores: see the module docs.
    mem: MemModel,
    /// Per-thread FIFO store buffers (TSO mode; always empty otherwise),
    /// parallel to `threads`. Entries hold an owned handle to the backing
    /// cell so a pending store can never outlive its target.
    buffers: Vec<VecDeque<(BackingCell, u64)>>,
    /// Lock words for loomette mutexes, indexed by mutex id.
    mutexes: Vec<bool>,
    /// Number of condvar ids handed out this run (waiters are tracked in
    /// `threads` as [`Run::BlockedCondvar`]; a condvar itself is stateless).
    condvars: usize,
    /// First failure (panic) observed on any model thread.
    failed: Option<String>,
    finished: usize,

    // ---- AcqRel-mode state (empty under Sc/Tso) ----
    /// Per-thread happens-before vector clocks, parallel to `threads`.
    /// `clocks[t][t]` is also thread `t`'s own operation counter.
    clocks: Vec<Clock>,
    /// Per-thread join of the release clocks seen by *relaxed* loads since
    /// thread start; an acquire (or SC) fence turns it into hb (C11 fence
    /// rule).
    acq_pending: Vec<Clock>,
    /// Per-thread clock snapshot at the last release (or SC) fence:
    /// relaxed stores publish it instead of the live clock.
    rel_fence: Vec<Clock>,
    /// The global SC clock every `fence(SeqCst)` (and modeled SeqCst op)
    /// joins both ways — execution order of SC fences becomes their total
    /// order.
    sc_clock: Clock,
    /// Per-thread coherence view: for each location index, the newest
    /// modification-order index the thread has read or written there.
    views: Vec<HashMap<usize, usize>>,
    /// Atomic location registry: backing-cell pointer → `locs` index.
    loc_ids: HashMap<usize, usize>,
    locs: Vec<LocHist>,
    /// Per-mutex release clock: joined by the releaser at unlock, joined
    /// into the acquirer at lock (the mutex hb edge).
    mutex_clocks: Vec<Clock>,
    /// `loomette::cell::UnsafeCell` access histories, indexed by cell id.
    cells: Vec<CellState>,
}

impl State {
    /// Picks the next thread to run, given that `me` has reached a switch
    /// point (`me_runnable` tells whether `me` could continue). Returns the
    /// chosen tid. Panics the model on deadlock.
    fn schedule(&mut self, me: usize, me_runnable: bool) -> usize {
        loop {
            let runnable: Vec<usize> = (0..self.threads.len())
                .filter(|&t| self.threads[t] == Run::Runnable && (t != me || me_runnable))
                .collect();
            if runnable.is_empty() {
                if self.finished == self.threads.len() {
                    return me; // run is over; value unused
                }
                // A pending store-buffer flush can never make a
                // scheduler-blocked thread runnable, so non-empty buffers
                // do not rescue this state: report the deadlock as-is.
                self.failed = Some(format!(
                    "deadlock: no runnable threads (states: {:?})",
                    self.threads
                ));
                return me;
            }
            // Candidate order: the current thread first (continuing is
            // free), then the others, which each cost one preemption while
            // `me` could have continued. Forced switches (me blocked or
            // finished) are free. In TSO mode, committing the oldest
            // buffered store of any thread is a further candidate, also
            // charged as a preemption (it deviates from the free
            // drain-as-late-as-possible path).
            let mut options: Vec<usize> = Vec::with_capacity(runnable.len());
            if me_runnable {
                options.push(me);
                if self.preemptions < self.preemption_bound {
                    options.extend(runnable.iter().copied().filter(|&t| t != me));
                }
            } else {
                options = runnable;
            }
            if self.mem == MemModel::Tso && self.preemptions < self.preemption_bound {
                options.extend(
                    (0..self.buffers.len())
                        .filter(|&t| !self.buffers[t].is_empty())
                        .map(|t| FLUSH_BASE + t),
                );
            }
            let chosen = self.decide(options);
            if chosen >= FLUSH_BASE {
                // Commit one entry and decide again from the new memory
                // state; the current thread is not switched by a flush.
                let t = chosen - FLUSH_BASE;
                let (cell, val) = self.buffers[t]
                    .pop_front()
                    .expect("flush chosen for an empty buffer");
                cell.store(val, std::sync::atomic::Ordering::SeqCst);
                self.preemptions += 1;
                continue;
            }
            if me_runnable && chosen != me {
                self.preemptions += 1;
            }
            self.current = chosen;
            return chosen;
        }
    }

    /// One recorded decision: picks among `options` (replaying the prefix,
    /// else taking the first), recording the point in the trace when there
    /// was a real choice. Shared by thread scheduling, TSO flush choices,
    /// and AcqRel reads-from choices, so all three replay through one
    /// mechanism.
    fn decide(&mut self, options: Vec<usize>) -> usize {
        if options.len() == 1 {
            // No branching: not a recorded decision point.
            return options[0];
        }
        let idx = if self.step < self.prefix.len() {
            let want = self.prefix[self.step];
            options
                .iter()
                .position(|&t| t == want)
                .expect("replay divergence: recorded choice not available")
        } else {
            0
        };
        self.step += 1;
        let chosen = options[idx];
        self.trace.push(Choice {
            options,
            chosen: idx,
        });
        chosen
    }

    // ---- AcqRel-mode machinery (see the module docs) ----

    /// Does the event (`writer`, `writer_seq`) happen-before thread `t`'s
    /// current point?
    fn hb(&self, t: usize, writer: usize, writer_seq: u64) -> bool {
        writer == INIT_WRITER || self.clocks[t].get(writer).copied().unwrap_or(0) >= writer_seq
    }

    /// Advances thread `t`'s own clock component, returning the new seq.
    fn tick(&mut self, t: usize) -> u64 {
        if self.clocks[t].len() <= t {
            self.clocks[t].resize(t + 1, 0);
        }
        self.clocks[t][t] += 1;
        self.clocks[t][t]
    }

    /// The location index for `cell`, registering it (with its current
    /// committed value as the initial pseudo-store) on first sight.
    fn loc(&mut self, cell: &BackingCell) -> usize {
        let key = Arc::as_ptr(cell) as usize;
        if let Some(&id) = self.loc_ids.get(&key) {
            return id;
        }
        let id = self.locs.len();
        self.locs.push(LocHist {
            _cell: Arc::clone(cell),
            stores: vec![StoreEvt {
                val: cell.load(std::sync::atomic::Ordering::SeqCst),
                writer: INIT_WRITER,
                writer_seq: 0,
                rel: Clock::new(),
            }],
            reads: Vec::new(),
        });
        self.loc_ids.insert(key, id);
        id
    }

    /// The SC-fence clock exchange: acquire-fence side (pending relaxed
    /// reads become hb), global SC clock joined both ways, release-fence
    /// side (snapshot for later relaxed stores). Also the model of a
    /// per-op `SeqCst` atomic's fence bracket.
    fn sc_fence(&mut self, me: usize) {
        let pending = self.acq_pending[me].clone();
        join(&mut self.clocks[me], &pending);
        let sc = self.sc_clock.clone();
        join(&mut self.clocks[me], &sc);
        let mine = self.clocks[me].clone();
        join(&mut self.sc_clock, &mine);
        self.rel_fence[me] = self.clocks[me].clone();
    }

    /// The model-level effect of `fence(order)` in AcqRel mode.
    fn acqrel_fence(&mut self, me: usize, order: Ordering) {
        match order {
            Ordering::SeqCst => self.sc_fence(me),
            Ordering::Acquire => {
                let pending = self.acq_pending[me].clone();
                join(&mut self.clocks[me], &pending);
            }
            Ordering::Release => self.rel_fence[me] = self.clocks[me].clone(),
            Ordering::AcqRel => {
                let pending = self.acq_pending[me].clone();
                join(&mut self.clocks[me], &pending);
                self.rel_fence[me] = self.clocks[me].clone();
            }
            _ => {}
        }
    }

    /// Applies the read side of observing store `idx` of `loc` with
    /// `order`: coherence view update plus the release/acquire (or
    /// pending-until-fence) clock join.
    fn absorb_read(&mut self, me: usize, loc: usize, idx: usize, order: Ordering) {
        self.views[me].insert(loc, idx);
        let seq = self.clocks[me].get(me).copied().unwrap_or(0);
        self.locs[loc].reads.push((me, seq, idx));
        let rel = self.locs[loc].stores[idx].rel.clone();
        if rel.is_empty() {
            return;
        }
        if matches!(
            order,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        ) {
            join(&mut self.clocks[me], &rel);
        } else {
            // A relaxed load remembers the release clock it saw; a later
            // acquire fence turns it into hb (C11 fence rule).
            join(&mut self.acq_pending[me], &rel);
        }
    }

    /// An instrumented load in AcqRel mode: computes the reads-from
    /// candidate set, explores the choice (stale picks cost one weirdness
    /// against the preemption bound), applies the hb edges, and returns
    /// the value read.
    fn acqrel_load(&mut self, me: usize, cell: &BackingCell, order: Ordering) -> u64 {
        if order == Ordering::SeqCst {
            self.sc_fence(me);
        }
        let loc = self.loc(cell);
        self.tick(me);
        let stores = &self.locs[loc].stores;
        let newest = stores.len() - 1;
        // Coherence floor: never older than what this thread last read or
        // wrote here.
        let mut floor = self.views[me].get(&loc).copied().unwrap_or(0);
        // Happens-before floor: a load may not read a store that an
        // hb-earlier *later* store has overwritten — the newest store that
        // happens-before the load bounds the candidates from below.
        for i in (floor..=newest).rev() {
            let s = &self.locs[loc].stores[i];
            if self.hb(me, s.writer, s.writer_seq) {
                floor = floor.max(i);
                break;
            }
        }
        // Read-read coherence floor (CoRR): a load also may not read
        // mod-order-before any hb-earlier *read* of this location (e.g.
        // the WRC shape, where the causal chain runs through a load).
        for k in 0..self.locs[loc].reads.len() {
            let (r_tid, r_seq, r_idx) = self.locs[loc].reads[k];
            if r_idx > floor && self.hb(me, r_tid, r_seq) {
                floor = r_idx;
            }
        }
        let idx = if floor == newest || self.preemptions >= self.preemption_bound {
            newest
        } else {
            // Newest first: the free, SC-identical path. Stale candidates
            // are offered newest-to-oldest and each costs one weirdness.
            let options: Vec<usize> = (floor..=newest).rev().map(|i| READ_BASE + i).collect();
            let chosen = self.decide(options) - READ_BASE;
            if chosen != newest {
                self.preemptions += 1;
            }
            chosen
        };
        let val = self.locs[loc].stores[idx].val;
        self.absorb_read(me, loc, idx, order);
        if order == Ordering::SeqCst {
            self.sc_fence(me);
        }
        val
    }

    /// An instrumented store in AcqRel mode: appends to the location's
    /// modification order carrying the ordering's release clock, and
    /// commits the value to the backing cell (which always mirrors the
    /// newest store, for degraded/teardown reads).
    fn acqrel_store(&mut self, me: usize, cell: &BackingCell, val: u64, order: Ordering) {
        if order == Ordering::SeqCst {
            self.sc_fence(me);
        }
        let loc = self.loc(cell);
        let seq = self.tick(me);
        let rel = match order {
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => self.clocks[me].clone(),
            _ => self.rel_fence[me].clone(),
        };
        self.locs[loc].stores.push(StoreEvt {
            val,
            writer: me,
            writer_seq: seq,
            rel,
        });
        self.views[me].insert(loc, self.locs[loc].stores.len() - 1);
        cell.store(val, std::sync::atomic::Ordering::SeqCst);
        if order == Ordering::SeqCst {
            self.sc_fence(me);
        }
    }

    /// An instrumented RMW in AcqRel mode: reads the newest store in
    /// modification order (its own write lands immediately after — C11
    /// atomicity, so RMWs never branch on reads-from) and continues the
    /// overwritten store's release sequence. Returns the old value;
    /// `new` computes the stored one (`None` ⇒ failed CAS: read only).
    fn acqrel_rmw(
        &mut self,
        me: usize,
        cell: &BackingCell,
        order: Ordering,
        new: impl FnOnce(u64) -> Option<u64>,
    ) -> u64 {
        if order == Ordering::SeqCst {
            self.sc_fence(me);
        }
        let loc = self.loc(cell);
        self.tick(me);
        let newest = self.locs[loc].stores.len() - 1;
        let old = self.locs[loc].stores[newest].val;
        self.absorb_read(me, loc, newest, order);
        if let Some(val) = new(old) {
            let seq = self.tick(me);
            // Release sequence: an acquire read of this RMW synchronizes
            // with the head of the chain it extends.
            let mut rel = self.locs[loc].stores[newest].rel.clone();
            match order {
                Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => {
                    join(&mut rel, &self.clocks[me])
                }
                _ => {
                    let fence = self.rel_fence[me].clone();
                    join(&mut rel, &fence)
                }
            }
            self.locs[loc].stores.push(StoreEvt {
                val,
                writer: me,
                writer_seq: seq,
                rel,
            });
            self.views[me].insert(loc, self.locs[loc].stores.len() - 1);
            cell.store(val, std::sync::atomic::Ordering::SeqCst);
        }
        if order == Ordering::SeqCst {
            self.sc_fence(me);
        }
        old
    }

    /// Full release/acquire edge from thread `from` to thread `to`
    /// (scheduler-level synchronization: spawn, join, condvar wake).
    fn sync_edge(&mut self, from: usize, to: usize) {
        if self.mem != MemModel::AcqRel {
            return;
        }
        let src = self.clocks[from].clone();
        join(&mut self.clocks[to], &src);
    }

    /// Registers one more thread's worth of AcqRel bookkeeping.
    fn push_thread_state(&mut self) {
        self.clocks.push(Clock::new());
        self.acq_pending.push(Clock::new());
        self.rel_fence.push(Clock::new());
        self.views.push(HashMap::new());
    }

    /// Commits every pending store of thread `t`, oldest first (the TSO
    /// buffer-drain a fence / RMW / lock-prefixed instruction performs).
    fn drain_buffer(&mut self, t: usize) {
        while let Some((cell, val)) = self.buffers[t].pop_front() {
            cell.store(val, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn done(&self) -> bool {
        self.finished == self.threads.len() || self.failed.is_some()
    }
}

/// The per-run scheduler: shared state plus the condvar every model thread
/// parks on while it is not `current`.
pub(crate) struct Scheduler {
    state: Mutex<State>,
    cv: Condvar,
    /// Memory model (copy of `State::mem` readable without the state
    /// lock, for the fast path of the instrumentation hooks).
    mem: MemModel,
    /// Set on failure so threads parked in their start-wait exit quickly.
    aborting: AtomicBool,
    /// Process-unique sequence number for this run. Instrumented mutexes
    /// cache their scheduler-side lock-word id keyed by this, so a mutex
    /// object that outlives one run re-registers with the next run's
    /// scheduler instead of indexing a stale id into a fresh table.
    run_seq: u64,
}

impl Scheduler {
    /// Locks the shared state, ignoring poisoning: a panicking model thread
    /// (the normal failure path) must not turn every subsequent state access
    /// — including ones inside destructors running during unwind — into a
    /// second panic.
    fn st(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn new(prefix: Vec<usize>, preemption_bound: usize, mem: MemModel) -> Self {
        static RUN_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let mut state = State {
            threads: vec![Run::Runnable], // thread 0 = the model body
            current: 0,
            prefix,
            step: 0,
            trace: Vec::new(),
            preemptions: 0,
            preemption_bound,
            mem,
            buffers: vec![VecDeque::new()],
            mutexes: Vec::new(),
            condvars: 0,
            failed: None,
            finished: 0,
            clocks: Vec::new(),
            acq_pending: Vec::new(),
            rel_fence: Vec::new(),
            sc_clock: Clock::new(),
            views: Vec::new(),
            loc_ids: HashMap::new(),
            locs: Vec::new(),
            mutex_clocks: Vec::new(),
            cells: Vec::new(),
        };
        state.push_thread_state();
        Scheduler {
            run_seq: RUN_SEQ.fetch_add(1, Ordering::Relaxed),
            mem,
            state: Mutex::new(state),
            cv: Condvar::new(),
            aborting: AtomicBool::new(false),
        }
    }

    /// Terminates this thread's participation after a model failure.
    ///
    /// Panics to unwind the thread body — but only if the thread is not
    /// *already* unwinding: a second panic inside a destructor running
    /// during unwind would abort the whole process. An unwinding thread
    /// instead returns and free-runs its teardown: every instrumented
    /// operation degrades to its real `std` primitive (see
    /// [`Self::degraded`]), which keeps teardown memory-safe without the
    /// scheduler.
    fn die(&self) {
        if !os_thread::panicking() {
            panic!("loomette: model failed on another thread");
        }
    }

    /// Whether the model has failed and scheduling is abandoned: threads
    /// finish (or unwind) on real primitives from here on.
    fn degraded(&self) -> bool {
        self.aborting.load(Ordering::SeqCst)
    }

    /// Marks the model failed (if a specific message has not been recorded
    /// yet, e.g. by the panicking thread itself) and wakes everyone.
    fn note_failure(&self, mut st: std::sync::MutexGuard<'_, State>) {
        if st.failed.is_none() {
            st.failed = Some("model failure".into());
        }
        self.aborting.store(true, Ordering::SeqCst);
        drop(st);
        self.cv.notify_all();
    }

    /// Blocks the calling model thread until it is scheduled. Returns
    /// `false` if the model failed in the meantime (the caller decides how
    /// to terminate — see [`Self::die`]).
    fn wait_for_turn(&self, me: usize) -> bool {
        let mut st = self.st();
        while st.current != me && !st.done() {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.failed.is_none()
    }

    /// The switch point every instrumented operation passes through.
    fn switch(&self, me: usize) {
        if self.degraded() {
            self.die();
            return;
        }
        {
            let mut st = self.st();
            st.schedule(me, true);
            if st.failed.is_some() {
                self.note_failure(st);
                self.die();
                return;
            }
            self.cv.notify_all();
        }
        if !self.wait_for_turn(me) {
            self.die();
        }
    }

    /// Blocks `me` with the given reason and hands the CPU to someone else.
    fn block(&self, me: usize, why: Run) {
        if self.degraded() {
            self.die();
            return;
        }
        {
            let mut st = self.st();
            st.threads[me] = why;
            st.schedule(me, false);
            if st.failed.is_some() {
                self.note_failure(st);
                self.die();
                return;
            }
            self.cv.notify_all();
        }
        if !self.wait_for_turn(me) {
            // Unblock ourselves for bookkeeping sanity, then terminate.
            let mut st = self.st();
            st.threads[me] = Run::Runnable;
            drop(st);
            self.die();
        }
    }

    /// Registers a new model thread spawned by `parent`, returning its
    /// tid. The thread starts runnable but does not execute until
    /// scheduled. The spawn edge is a full synchronization edge: the
    /// child's clock starts at the parent's.
    fn register(&self, parent: usize) -> usize {
        let mut st = self.st();
        st.threads.push(Run::Runnable);
        st.buffers.push(VecDeque::new());
        st.push_thread_state();
        let tid = st.threads.len() - 1;
        st.sync_edge(parent, tid);
        tid
    }

    /// Marks `me` finished, wakes joiners, and schedules the next thread.
    fn finish(&self, me: usize) {
        let mut st = self.st();
        // TSO: a finishing thread's pending stores become visible before
        // any joiner proceeds (the join edge is a synchronization edge).
        st.drain_buffer(me);
        st.threads[me] = Run::Finished;
        st.finished += 1;
        for t in 0..st.threads.len() {
            if st.threads[t] == Run::BlockedJoin(me) {
                st.threads[t] = Run::Runnable;
            }
        }
        if !st.done() {
            st.schedule(me, false);
        }
        drop(st);
        self.cv.notify_all();
    }

    fn record_failure(&self, me: usize, msg: String) {
        let mut st = self.st();
        if st.failed.is_none() {
            st.failed = Some(format!("thread {me} panicked: {msg}"));
        }
        self.aborting.store(true, Ordering::SeqCst);
        drop(st);
        self.cv.notify_all();
    }

    fn alloc_mutex(&self) -> usize {
        let mut st = self.st();
        st.mutexes.push(false);
        st.mutex_clocks.push(Clock::new());
        st.mutexes.len() - 1
    }

    /// Scheduler-side mutex acquire: loops through switch points until the
    /// lock word is free, blocking (scheduler-level) while it is held.
    ///
    /// After a model failure the bookkeeping is skipped entirely: the
    /// caller falls through to the *real* mutex, whose own blocking is
    /// correct (and deadlock-free, because every holder's guard drop
    /// releases it during unwind) without the scheduler.
    fn mutex_lock(&self, me: usize, id: usize) {
        loop {
            if self.degraded() {
                self.die();
                return;
            }
            self.switch(me);
            {
                if self.degraded() {
                    self.die();
                    return;
                }
                let mut st = self.st();
                if !st.mutexes[id] {
                    st.mutexes[id] = true;
                    // TSO: a lock acquire is a full barrier (lock-prefixed
                    // RMW on the lock word); drain the acquirer's buffer.
                    st.drain_buffer(me);
                    // AcqRel: acquire edge — join the last releaser's
                    // clock.
                    if st.mem == MemModel::AcqRel {
                        let rel = st.mutex_clocks[id].clone();
                        join(&mut st.clocks[me], &rel);
                    }
                    return;
                }
            }
            self.block(me, Run::BlockedMutex(id));
        }
    }

    /// Scheduler-side non-blocking acquire: one switch point, then the
    /// lock word is taken if free (with `mutex_lock`'s acquire edges) or
    /// left alone. A failed attempt joins no clock and never blocks. After
    /// a model failure it answers `true` and leaves the decision to the
    /// real mutex, as `mutex_lock` does.
    fn mutex_try_lock(&self, me: usize, id: usize) -> bool {
        if self.degraded() {
            self.die();
            return true;
        }
        self.switch(me);
        if self.degraded() {
            self.die();
            return true;
        }
        let mut st = self.st();
        if st.mutexes[id] {
            return false;
        }
        st.mutexes[id] = true;
        st.drain_buffer(me);
        if st.mem == MemModel::AcqRel {
            let rel = st.mutex_clocks[id].clone();
            join(&mut st.clocks[me], &rel);
        }
        true
    }

    fn mutex_unlock(&self, me: usize, id: usize) {
        let mut st = self.st();
        // TSO: everything stored inside the critical section must be
        // committed before the lock word is seen free by the next holder.
        st.drain_buffer(me);
        // AcqRel: release edge — publish the holder's clock on the lock.
        if st.mem == MemModel::AcqRel {
            let mine = st.clocks[me].clone();
            join(&mut st.mutex_clocks[id], &mine);
        }
        st.mutexes[id] = false;
        for t in 0..st.threads.len() {
            if st.threads[t] == Run::BlockedMutex(id) {
                st.threads[t] = Run::Runnable;
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    fn alloc_condvar(&self) -> usize {
        let mut st = self.st();
        st.condvars += 1;
        st.condvars - 1
    }

    /// Scheduler-side condvar wait. The caller has already released the
    /// associated mutex (both the real guard and the scheduler lock word)
    /// *without passing a switch point in between*, so — only one model
    /// thread ever runs at a time — the unlock+wait pair is atomic with
    /// respect to the model and no wakeup can be lost. The thread wakes
    /// only on [`Self::condvar_notify_all`] (the model has no spurious
    /// wakeups: fewer wakeups than reality is sound for bug-finding, and a
    /// lost-wakeup bug in the code under test surfaces as a detected
    /// deadlock instead of a hang).
    fn condvar_wait(&self, me: usize, id: usize) {
        if self.degraded() {
            self.die();
            return;
        }
        self.block(me, Run::BlockedCondvar(id));
    }

    /// Wakes every thread waiting on condvar `id`; they become runnable and
    /// re-acquire their mutex through the normal scheduler-mediated path.
    fn condvar_notify_all(&self, me: usize, id: usize) {
        let mut st = self.st();
        // TSO: make the notifier's stores visible to woken waiters (the
        // wait side re-acquires its mutex, which is itself a barrier, but
        // draining here keeps the notify edge a full sync edge too).
        st.drain_buffer(me);
        for t in 0..st.threads.len() {
            if st.threads[t] == Run::BlockedCondvar(id) {
                st.threads[t] = Run::Runnable;
                // AcqRel: the notify edge synchronizes-with each woken
                // waiter (the mutex re-acquire is an edge too; this keeps
                // notify a full sync edge like the TSO drain above).
                st.sync_edge(me, t);
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    fn join(&self, me: usize, target: usize) {
        self.switch(me);
        if self.degraded() {
            // The caller's OS-level join is enough: the target thread
            // finishes (or unwinds) on real primitives.
            return;
        }
        let blocked = {
            let st = self.st();
            st.threads[target] != Run::Finished
        };
        if blocked {
            self.block(me, Run::BlockedJoin(target));
        }
        // AcqRel: the join edge — everything the finished thread did
        // happens-before the joiner's continuation.
        let mut st = self.st();
        st.sync_edge(target, me);
    }

    /// Blocks the (non-model) driver thread until the run completes.
    fn wait_all_done(&self) {
        let mut st = self.st();
        while !st.done() {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

// ---- public hooks used by the sync / thread shims ----

/// A switch point: lets the scheduler preempt here. No-op outside a model.
pub fn switch_point() {
    if let Some((sched, tid)) = current() {
        sched.switch(tid);
    }
}

/// Yield: equivalent to a plain switch point (the scheduler may or may not
/// move on; exploration covers both).
pub fn yield_now() {
    switch_point();
}

pub(crate) fn with_scheduler<R>(f: impl FnOnce(&Scheduler, usize) -> R) -> Option<R> {
    current().map(|(sched, tid)| f(sched, tid))
}

pub(crate) fn mutex_id(sched: &Scheduler) -> usize {
    sched.alloc_mutex()
}

/// The process-unique sequence number of `sched`'s run; see
/// [`Scheduler::run_seq`].
pub(crate) fn run_seq(sched: &Scheduler) -> u64 {
    sched.run_seq
}

pub(crate) fn lock(sched: &Scheduler, me: usize, id: usize) {
    sched.mutex_lock(me, id);
}

pub(crate) fn try_lock(sched: &Scheduler, me: usize, id: usize) -> bool {
    sched.mutex_try_lock(me, id)
}

pub(crate) fn unlock(sched: &Scheduler, me: usize, id: usize) {
    sched.mutex_unlock(me, id);
}

pub(crate) fn condvar_id(sched: &Scheduler) -> usize {
    sched.alloc_condvar()
}

pub(crate) fn condvar_wait(sched: &Scheduler, me: usize, id: usize) {
    sched.condvar_wait(me, id);
}

pub(crate) fn condvar_notify_all(sched: &Scheduler, me: usize, id: usize) {
    sched.condvar_notify_all(me, id);
}

// ---- TSO store-buffer hooks (see the module docs) ----
//
// Each hook is a no-op (returns the "not buffered" answer) outside a model,
// in SeqCst-exact mode, or once the model has degraded after a failure —
// the instrumented op then falls through to its real `std` primitive.

/// Store-to-load forwarding: the newest pending store *by the calling
/// thread* to `cell`, if any. A TSO load reads its own buffer first.
pub(crate) fn tso_buffered_load(cell: &BackingCell) -> Option<u64> {
    let (sched, me) = current()?;
    if sched.mem != MemModel::Tso || sched.degraded() {
        return None;
    }
    let st = sched.st();
    st.buffers[me]
        .iter()
        .rev()
        .find(|(c, _)| Arc::ptr_eq(c, cell))
        .map(|(_, v)| *v)
}

/// Appends a store to the calling thread's buffer instead of committing
/// it. With `drain` (a `SeqCst` store) the buffer — including the new
/// entry — is committed immediately, preserving SC semantics for the op.
/// Returns `false` if not in TSO mode (caller performs the real store).
pub(crate) fn tso_buffer_store(cell: &BackingCell, val: u64, drain: bool) -> bool {
    match current() {
        Some((sched, me)) if sched.mem == MemModel::Tso && !sched.degraded() => {
            let mut st = sched.st();
            st.buffers[me].push_back((Arc::clone(cell), val));
            if drain {
                st.drain_buffer(me);
            }
            true
        }
        _ => false,
    }
}

/// Drains the calling thread's store buffer: the model-level effect of
/// `fence(SeqCst)` and of every RMW (which is a full barrier on TSO).
pub(crate) fn tso_drain() {
    if let Some((sched, me)) = current() {
        if sched.mem == MemModel::Tso && !sched.degraded() {
            let mut st = sched.st();
            st.drain_buffer(me);
        }
    }
}

// ---- AcqRel-mode hooks (see the module docs) ----
//
// Like the TSO hooks, each is a no-op (returns the "not handled" answer)
// outside a model, under another memory model, or once the model has
// degraded — the instrumented op then falls through to its `std`
// primitive.

/// In-model guard for the AcqRel hooks.
fn acqrel_current() -> Option<(&'static Scheduler, usize)> {
    let (sched, me) = current()?;
    if sched.mem != MemModel::AcqRel || sched.degraded() {
        return None;
    }
    Some((sched, me))
}

/// AcqRel load: explores the reads-from choice. `None` ⇒ not handled.
pub(crate) fn acqrel_load(cell: &BackingCell, order: Ordering) -> Option<u64> {
    let (sched, me) = acqrel_current()?;
    let mut st = sched.st();
    Some(st.acqrel_load(me, cell, order))
}

/// AcqRel store: appends to the modification order. `false` ⇒ not handled.
pub(crate) fn acqrel_store(cell: &BackingCell, val: u64, order: Ordering) -> bool {
    match acqrel_current() {
        Some((sched, me)) => {
            let mut st = sched.st();
            st.acqrel_store(me, cell, val, order);
            true
        }
        None => false,
    }
}

/// AcqRel RMW: reads the newest store, appends its own right after
/// (`new(old)` returning `None` means a failed CAS: read only). Returns
/// the old value, or `None` if not handled.
pub(crate) fn acqrel_rmw(
    cell: &BackingCell,
    order: Ordering,
    new: impl FnOnce(u64) -> Option<u64>,
) -> Option<u64> {
    let (sched, me) = acqrel_current()?;
    let mut st = sched.st();
    Some(st.acqrel_rmw(me, cell, order, new))
}

/// The model-level effect of `fence(order)` under AcqRel (no-op
/// elsewhere; TSO's drain is a separate hook).
pub(crate) fn acqrel_fence(order: Ordering) {
    if let Some((sched, me)) = acqrel_current() {
        let mut st = sched.st();
        st.acqrel_fence(me, order);
    }
}

// ---- race-detected cell hooks (loomette::cell::UnsafeCell) ----

/// Allocates a cell id in the current run (run-keyed by the caller the
/// same way mutex ids are). `None` outside a model.
pub(crate) fn cell_id(sched: &Scheduler) -> usize {
    let mut st = sched.st();
    st.cells.push(CellState::default());
    st.cells.len() - 1
}

/// Records a non-atomic access to cell `id` and — in AcqRel mode, where
/// happens-before is tracked — fails the model if it races a previous
/// access (write vs. anything unordered by hb). Under Sc/Tso every access
/// is still a switch point, but without clocks there is no race check.
pub(crate) fn cell_access(sched: &Scheduler, me: usize, id: usize, write: bool) {
    if sched.mem != MemModel::AcqRel || sched.degraded() {
        return;
    }
    let race: Option<String> = {
        let mut st = sched.st();
        let seq = st.tick(me);
        let cell = std::mem::take(&mut st.cells[id]);
        let mut race = None;
        if let Some((w_tid, w_seq)) = cell.last_write {
            if w_tid != me && !st.hb(me, w_tid, w_seq) {
                race = Some(format!(
                    "data race on cell {id}: thread {me} {} unordered with \
                     thread {w_tid}'s write",
                    if write { "write" } else { "read" }
                ));
            }
        }
        if write {
            for &(r_tid, r_seq) in &cell.reads_since {
                if r_tid != me && !st.hb(me, r_tid, r_seq) {
                    race = Some(format!(
                        "data race on cell {id}: thread {me} write unordered \
                         with thread {r_tid}'s read"
                    ));
                }
            }
        }
        st.cells[id] = if race.is_some() {
            cell
        } else if write {
            CellState {
                last_write: Some((me, seq)),
                reads_since: Vec::new(),
            }
        } else {
            let mut cell = cell;
            cell.reads_since.push((me, seq));
            cell
        };
        race
    };
    if let Some(msg) = race {
        // The state lock is released; fail the model through the normal
        // panicking path so the failing schedule is reported. Record the
        // failure first: the code under test may catch the panic (rcukit
        // contains panics of deferred callbacks), and a caught race is
        // still a race.
        sched.record_failure(me, msg.clone());
        panic!("loomette: {msg}");
    }
}

// ---- thread spawning ----

/// Handle to a spawned model thread.
pub struct JoinHandle<T> {
    inner: os_thread::JoinHandle<Option<T>>,
    tid: usize,
}

impl<T> JoinHandle<T> {
    /// Waits (scheduler-level, then OS-level) for the thread to finish and
    /// returns its result.
    pub fn join(self) -> std::thread::Result<T> {
        let (sched, me) = current().expect("loomette join outside a model");
        sched.join(me, self.tid);
        match self.inner.join() {
            Ok(Some(v)) => Ok(v),
            Ok(None) => Err(Box::new("model thread failed")),
            Err(e) => Err(e),
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("tid", &self.tid)
            .finish()
    }
}

/// Spawns a model thread. Must be called from inside a model.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (sched_ref, me) = current().expect("loomette spawn outside a model");
    // Re-create the Arc from the raw pointer we stored: the wrapper below
    // needs an owned handle that outlives the parent's stack frame.
    // Safety: `current()` guarantees the scheduler is alive; `ARCS` in the
    // runner keeps one strong reference for the whole run.
    let sched: Arc<Scheduler> = RUN_SCHED.with(|s| {
        s.borrow()
            .clone()
            .expect("loomette spawn outside a model run")
    });
    debug_assert!(std::ptr::eq(Arc::as_ptr(&sched), sched_ref as *const _));
    // The spawn edge synchronizes-with the child's start: under TSO the
    // parent's pending stores must be visible to the child's first load;
    // under AcqRel the child's clock starts at the parent's (in
    // `register`).
    tso_drain();
    let tid = sched.register(me);
    let sched2 = Arc::clone(&sched);
    let inner = os_thread::spawn(move || {
        // Make nested `spawn` possible from this thread too.
        RUN_SCHED.with(|s| *s.borrow_mut() = Some(Arc::clone(&sched2)));
        with_current(&sched2, tid, || {
            if !sched2.wait_for_turn(tid) || sched2.degraded() {
                // The model failed before this thread ever ran its body.
                sched2.finish(tid);
                return None;
            }
            let out = panic::catch_unwind(AssertUnwindSafe(f));
            match out {
                Ok(v) => {
                    sched2.finish(tid);
                    Some(v)
                }
                Err(e) => {
                    sched2.record_failure(tid, panic_message(&*e));
                    sched2.finish(tid);
                    None
                }
            }
        })
    });
    JoinHandle { inner, tid }
}

thread_local! {
    /// Owned scheduler handle for the current model thread, cloned by
    /// `spawn` so child wrappers can own one too.
    static RUN_SCHED: std::cell::RefCell<Option<Arc<Scheduler>>> =
        const { std::cell::RefCell::new(None) };
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

// ---- the exploration driver ----

/// Exploration limits for one model.
pub struct Explorer {
    /// Maximum preemptive context switches per schedule (early TSO
    /// flushes and stale AcqRel reads-from choices are charged against
    /// the same bound).
    pub preemption_bound: usize,
    /// Hard cap on explored schedules. Defaults to [`DEFAULT_MAX_RUNS`],
    /// overridable with `LOOMETTE_MAX_RUNS`.
    pub max_runs: usize,
    /// Which memory model to explore under: see the module docs. Defaults
    /// to `LOOMETTE_MODEL` (`sc` / `tso` / `acqrel`), falling back to the
    /// legacy `LOOMETTE_TSO=1`, else SeqCst-exact.
    pub mem_model: MemModel,
    /// Replay a single failing schedule instead of exploring: the token a
    /// model failure printed (`LOOMETTE_REPLAY` in the environment picks
    /// this up automatically through `Default`). The run must use the
    /// same model, bound, and test body that produced the token.
    pub replay: Option<String>,
}

impl Default for Explorer {
    fn default() -> Self {
        let bound = std::env::var("LOOMETTE_PREEMPTIONS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_PREEMPTION_BOUND);
        let mem_model = std::env::var("LOOMETTE_MODEL")
            .ok()
            .and_then(|s| MemModel::parse(&s))
            .unwrap_or_else(|| {
                let tso = std::env::var("LOOMETTE_TSO")
                    .map(|s| matches!(s.as_str(), "1" | "true" | "yes"))
                    .unwrap_or(false);
                if tso {
                    MemModel::Tso
                } else {
                    MemModel::Sc
                }
            });
        let max_runs = std::env::var("LOOMETTE_MAX_RUNS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_MAX_RUNS);
        Explorer {
            preemption_bound: bound,
            max_runs,
            mem_model,
            replay: std::env::var("LOOMETTE_REPLAY")
                .ok()
                .filter(|s| !s.is_empty()),
        }
    }
}

/// Renders one recorded decision value for the schedule token: plain
/// numbers are thread choices, `rN` reads-from picks, `fN` TSO flushes.
fn encode_decision(v: usize) -> String {
    if v >= FLUSH_BASE {
        format!("f{}", v - FLUSH_BASE)
    } else if v >= READ_BASE {
        format!("r{}", v - READ_BASE)
    } else {
        v.to_string()
    }
}

/// The compact replay token for a decision sequence.
fn encode_schedule(decisions: impl Iterator<Item = usize>) -> String {
    decisions.map(encode_decision).collect::<Vec<_>>().join("-")
}

/// Parses a replay token back into a decision prefix. Panics (failing the
/// test loudly) on a malformed token — a truncated paste should not
/// silently explore from scratch.
fn decode_schedule(token: &str) -> Vec<usize> {
    token
        .split('-')
        .map(|part| {
            let (base, digits) = match part.as_bytes().first() {
                Some(b'f') => (FLUSH_BASE, &part[1..]),
                Some(b'r') => (READ_BASE, &part[1..]),
                _ => (0, part),
            };
            let n: usize = digits
                .parse()
                .unwrap_or_else(|_| panic!("loomette: malformed replay token part {part:?}"));
            base + n
        })
        .collect()
}

impl Explorer {
    /// Exhaustively explores every schedule of `f` within the preemption
    /// bound. Returns the number of schedules run. Panics (with the failing
    /// schedule) if any execution panics or deadlocks.
    pub fn explore(&self, f: impl Fn() + Send + Sync + 'static) -> usize {
        let f = Arc::new(f);
        let replaying = self.replay.is_some();
        let mut prefix: Vec<usize> = match &self.replay {
            Some(token) => decode_schedule(token),
            None => Vec::new(),
        };
        let mut runs = 0usize;
        loop {
            runs += 1;
            assert!(
                runs <= self.max_runs,
                "loomette: exceeded {} schedules — shrink the model (or raise LOOMETTE_MAX_RUNS)",
                self.max_runs
            );
            let sched = Arc::new(Scheduler::new(
                prefix.clone(),
                self.preemption_bound,
                self.mem_model,
            ));
            let f0 = Arc::clone(&f);
            let sched0 = Arc::clone(&sched);
            // Thread 0 runs the model body itself.
            let body = os_thread::spawn(move || {
                RUN_SCHED.with(|s| *s.borrow_mut() = Some(Arc::clone(&sched0)));
                with_current(&sched0, 0, || {
                    let out = panic::catch_unwind(AssertUnwindSafe(|| f0()));
                    if let Err(e) = out {
                        sched0.record_failure(0, panic_message(&*e));
                    }
                    sched0.finish(0);
                });
                RUN_SCHED.with(|s| *s.borrow_mut() = None);
            });
            sched.wait_all_done();
            // All model threads have passed `finish`; their OS threads exit
            // without further scheduling. Reap thread 0 (children are
            // detached once joined at the model level; OS-level join happens
            // in JoinHandle::join or leaks harmlessly past `finish`).
            let _ = body.join();
            let mut st = sched.st();
            if let Some(msg) = st.failed.take() {
                let token = encode_schedule(st.trace.iter().map(|c| c.options[c.chosen]));
                let model = self.mem_model.name();
                // Release the state lock before panicking: orphaned model
                // threads of the failed run may still be unwinding, and
                // their destructors take this lock.
                drop(st);
                panic!(
                    "loomette: model failed after {runs} schedule(s) [model={model}]\n  \
                     failure: {msg}\n  schedule token (N = run thread N, rN = read \
                     mod-order index N, fN = flush thread N's oldest store): {token}\n  \
                     replay deterministically with LOOMETTE_REPLAY={token} \
                     LOOMETTE_MODEL={model} LOOMETTE_PREEMPTIONS={bound}",
                    bound = self.preemption_bound,
                );
            }
            if replaying {
                // Replay mode: the requested schedule ran and passed.
                return runs;
            }
            // Depth-first: bump the deepest decision with an untried
            // alternative; drop everything below it.
            let mut trace: VecDeque<Choice> = st.trace.drain(..).collect();
            drop(st);
            loop {
                match trace.back_mut() {
                    None => return runs,
                    Some(c) if c.chosen + 1 < c.options.len() => {
                        c.chosen += 1;
                        break;
                    }
                    Some(_) => {
                        trace.pop_back();
                    }
                }
            }
            prefix = trace.iter().map(|c| c.options[c.chosen]).collect();
        }
    }
}
