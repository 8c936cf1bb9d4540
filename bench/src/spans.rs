//! Clocks for the replay loop: none at all for the throughput passes, a
//! sampling one for the latency pass, which can also record spans.
//!
//! The replay loop is generic over [`Clock`], so the timer-free passes are
//! compiled without a single branch or clock read from here.

use std::fmt::Write as _;
use std::time::Instant;

/// What a timed call was. The order is the order of every per-class array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `AddressSpace::fault`.
    Fault,
    /// `AddressSpace::map`.
    Map,
    /// `AddressSpace::unmap`.
    Unmap,
    /// `AddressSpace::unmap_range`.
    UnmapRange,
    /// `AddressSpace::fork` at the start of a lifecycle.
    Fork,
    /// Dropping the oldest child of a lineage.
    Exit,
}

/// Number of [`Class`]es.
pub const CLASSES: usize = 6;

/// Span name of each class, indexed by `Class as usize`.
pub const CLASS_SPAN: [&str; CLASSES] = [
    "op.fault",
    "op.map",
    "op.unmap",
    "op.unmap_range",
    "fork",
    "exit",
];

/// Span name of one thread's replay of one cycle.
pub const SEGMENT: &str = "segment";
/// Span name of one fork/exec/exit lifecycle inside a segment.
pub const LIFECYCLE: &str = "lifecycle";
/// Id of the `pass` span, the parent of every segment.
pub const PASS_ID: u32 = 1;

/// One op in this many is timed in the latency pass. A clock pair costs
/// about as much as a fault, so timing every op would measure the clock.
pub const SAMPLE_EVERY: u32 = 16;

/// How the replay loop reports what it is doing.
pub trait Clock {
    /// An open container span.
    type Open;
    /// Opens a container span (a segment or a lifecycle).
    fn open(&mut self, name: &'static str) -> Self::Open;
    /// Closes it.
    fn close(&mut self, open: Self::Open);
    /// Runs a trace op; one in [`SAMPLE_EVERY`] is timed.
    fn op<R>(&mut self, class: Class, f: impl FnOnce() -> R) -> R;
    /// Runs a call that is timed every time (forks and exits).
    fn each<R>(&mut self, class: Class, f: impl FnOnce() -> R) -> R;
}

/// The clock of the timer-free passes: does nothing.
#[derive(Debug)]
pub struct NoClock;

impl Clock for NoClock {
    type Open = ();
    #[inline(always)]
    fn open(&mut self, _: &'static str) {}
    #[inline(always)]
    fn close(&mut self, (): ()) {}
    #[inline(always)]
    fn op<R>(&mut self, _: Class, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn each<R>(&mut self, _: Class, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Times are nanoseconds since the sampler's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique within the file.
    pub id: u32,
    /// The span that caused this one.
    pub parent: u32,
    /// Replay thread, or 255 for the main thread.
    pub thread: u8,
    /// `pass`, `segment`, `lifecycle`, `op.<class>`, `fork` or `exit`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// The latency pass's clock for one thread: raw durations of the sampled
/// calls in the order they were made, time spent in segments, and, when
/// given room, spans.
/// Every buffer is allocated up front; a full span buffer drops records and
/// counts them.
#[derive(Debug)]
pub struct Sampler {
    epoch: Instant,
    thread: u8,
    countdown: u32,
    /// Raw clock-pair readings in nanoseconds, in time order.
    pub samples: Vec<(Class, u32)>,
    /// Total time inside segment spans.
    pub segment_ns: u64,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Spans that did not fit.
    pub dropped: u64,
    span_room: usize,
    next_id: u32,
    parents: Vec<u32>,
}

impl Sampler {
    /// A sampler for `thread` with room for `sample_room` readings and
    /// `span_room` spans (0: record none).
    pub fn new(epoch: Instant, thread: usize, sample_room: usize, span_room: usize) -> Self {
        Sampler {
            epoch,
            thread: thread as u8,
            countdown: 1 + thread as u32,
            samples: Vec::with_capacity(sample_room),
            segment_ns: 0,
            spans: Vec::with_capacity(span_room),
            dropped: 0,
            span_room,
            next_id: (thread as u32 + 1) << 24,
            parents: vec![PASS_ID],
        }
    }

    /// The readings so far, whatever their class, in time order.
    pub fn readings(&self) -> Vec<u32> {
        self.samples.iter().map(|&(_, ns)| ns).collect()
    }

    /// Forgets the readings of the repeat just harvested (spans stay).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.segment_ns = 0;
    }

    /// Forgets everything recorded so far, spans included (the warm-up's).
    pub fn reset(&mut self) {
        self.clear();
        self.spans.clear();
        self.dropped = 0;
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn record(&mut self, id: u32, name: &'static str, start: Instant, end: Instant) {
        if self.spans.len() < self.span_room {
            let parent = *self.parents.last().expect("the pass span is always open");
            self.spans.push(Span {
                id,
                parent,
                thread: self.thread,
                name,
                start_ns: self.since_epoch(start),
                end_ns: self.since_epoch(end),
            });
        } else if self.span_room > 0 {
            self.dropped += 1;
        }
    }

    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }
}

impl Clock for Sampler {
    type Open = (u32, &'static str, Instant);

    fn open(&mut self, name: &'static str) -> Self::Open {
        let id = self.fresh_id();
        self.parents.push(id);
        (id, name, Instant::now())
    }

    fn close(&mut self, (id, name, start): Self::Open) {
        let end = Instant::now();
        self.parents.pop();
        if name == SEGMENT {
            self.segment_ns += end.duration_since(start).as_nanos() as u64;
        }
        self.record(id, name, start, end);
    }

    #[inline(always)]
    fn op<R>(&mut self, class: Class, f: impl FnOnce() -> R) -> R {
        self.countdown -= 1;
        if self.countdown != 0 {
            return f();
        }
        self.countdown = SAMPLE_EVERY;
        self.each(class, f)
    }

    #[inline(always)]
    fn each<R>(&mut self, class: Class, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.samples
            .push((class, end.duration_since(start).as_nanos() as u32));
        let id = self.fresh_id();
        self.record(id, CLASS_SPAN[class as usize], start, end);
        out
    }
}

/// Median cost of an empty clock pair, in nanoseconds: what every raw
/// reading overstates the timed call by.
pub fn timer_bias_ns() -> f64 {
    let mut pairs: Vec<u32> = (0..200_000)
        .map(|_| {
            let start = Instant::now();
            let end = Instant::now();
            end.duration_since(start).as_nanos() as u32
        })
        .collect();
    pairs.sort_unstable();
    crate::stats::percentile(&pairs, 0.5).expect("200k samples have a median")
}

/// Renders spans as the JSON document written to `out/trace-<workload>.json`.
pub fn to_json(workload: &str, dropped: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"dropped\":{dropped},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}
