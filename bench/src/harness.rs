//! One run of one workload: set-up, passes, checks, metrics.
//!
//! A run without tracing measures the end-to-end metrics ([`END_TO_END`]):
//! it sets up several times, then runs the one-thread pass, the two-thread
//! pass and the latency pass, their repeats taking turns, on the last
//! set-up's address space. A traced run measures the per-layer metrics
//! ([`PER_LAYER`]): the same passes with the locked baseline taking turns
//! with the subject, the latency pass recording spans, and the layer probes. Both end by checking the address
//! space against the sequential model and the collector for leaks.

use std::thread;
use std::time::Instant;

use crate::alloc::{self, HeapMark};
use crate::model::{disagreements, PageModel};
use crate::probes::{self, minus, ProbeScale};
use crate::replay::{loop_ns_per_op, run_repeat, Pass, Repeat, RepeatSpec, Subject, Tally};
use crate::spans::{
    timer_bias_ns, Class, Clock, NoClock, Sampler, Span, CLASSES, PASS_ID, SAMPLE_EVERY,
};
use crate::stats::{percentile, Summary};
use crate::trace::{Packed, Rng, Workload, THREADS};

/// Which of a metric's values — one per repeat, per set-up or per chunk of
/// timings — a run reports.
///
/// A busy neighbour on a shared host slows the benchmark for milliseconds
/// to minutes at a time, so the end-to-end metrics report a value from the
/// quiet side of what the run saw. Of a pass's repeats and of the set-ups
/// that is the quartile: of five, the second best, which one lucky value
/// cannot set. Of the chunks of a one-thread probe it is the decile. Of the
/// chunks of the two-thread latency pass it is the quartile again, because
/// there a neighbour also makes chunks too fast: while it holds one
/// thread's processor, the other thread has the address space to itself
/// (`fault-scan`/`fault_p99_ns` read 370 and 510 ns as a decile in two runs
/// of ten, 730 ns in the rest). Over ten runs per workload with a neighbour
/// at work, the spread of `fork-storm`/`fault_p99_ns` was 29 % as one
/// percentile over the run's timings, 20 % as the median over its chunks and
/// 11 % as their first quartile; that of the probed `fork_p99_ns` on
/// `fault-scan` 22 %, 31 %, 26 % and, as the first decile, 9 %. The median
/// and the quartiles are always printed beside the reported value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// The median (per-layer metrics).
    Median,
    /// The first decile: a probed latency, over its chunks.
    Decile,
    /// The first quartile: lower is better.
    Low,
    /// The third quartile: higher is better.
    High,
}

/// Name, unit and reported statistic of every end-to-end metric, in output
/// order. A latency class the workload's mix lacks comes from a one-thread
/// probe, not from the latency pass, and is reported as [`Pick::Decile`].
pub const END_TO_END: [(&str, &str, Pick); 10] = [
    ("setup_s", "s", Pick::Low),
    ("ops_per_s_t1", "1/s", Pick::High),
    ("ops_per_s_t2", "1/s", Pick::High),
    ("fault_p50_ns", "ns", Pick::Low),
    ("fault_p99_ns", "ns", Pick::Low),
    ("mutate_p50_ns", "ns", Pick::Low),
    ("mutate_p99_ns", "ns", Pick::Low),
    ("fork_p50_ns", "ns", Pick::Low),
    ("fork_p99_ns", "ns", Pick::Low),
    ("heap_peak_bytes", "bytes", Pick::Low),
];

/// Name, unit and reported statistic of every per-layer metric, in output
/// order.
pub const PER_LAYER: [(&str, &str, Pick); 37] = [
    ("collector.pin_unpin_ns", "ns", Pick::Median),
    ("collector.pin_unpin_t2_ns", "ns", Pick::Median),
    ("collector.defer_ns", "ns", Pick::Median),
    ("collector.retired_per_mutation", "count", Pick::Median),
    (
        "collector.bytes_retired_per_mutation",
        "bytes",
        Pick::Median,
    ),
    ("collector.epochs_advanced", "count", Pick::Median),
    ("collector.synchronize_ns", "ns", Pick::Median),
    ("collector.peak_unreclaimed_bytes", "bytes", Pick::Median),
    ("tree.get_le_pinned_ns", "ns", Pick::Median),
    ("tree.get_le_owned_ns", "ns", Pick::Median),
    ("tree.insert_remove_ns", "ns", Pick::Median),
    ("tree.fork_ns", "ns", Pick::Median),
    ("tree.cow_first_write_ns", "ns", Pick::Median),
    ("range_map.lookup_pinned_ns", "ns", Pick::Median),
    ("range_map.contains_ns", "ns", Pick::Median),
    ("range_map.map_unmap_ns", "ns", Pick::Median),
    ("range_map.unmap_range_ns", "ns", Pick::Median),
    ("range_map.fork_ns", "ns", Pick::Median),
    ("range_map.write_overhead_ns", "ns", Pick::Median),
    ("addrspace.fault_ns", "ns", Pick::Median),
    ("addrspace.dispatch_ns", "ns", Pick::Median),
    ("alloc.allocs_per_op", "count", Pick::Median),
    ("baseline.locked_ops_per_s_t1", "1/s", Pick::Median),
    ("baseline.locked_ops_per_s_t2", "1/s", Pick::Median),
    ("baseline.vs_locked_t1", "ratio", Pick::Median),
    ("baseline.vs_locked_t2", "ratio", Pick::Median),
    ("trace.fault_share", "share", Pick::Median),
    ("trace.map_share", "share", Pick::Median),
    ("trace.unmap_share", "share", Pick::Median),
    ("trace.unmap_range_share", "share", Pick::Median),
    ("trace.fork_share", "share", Pick::Median),
    ("trace.exit_share", "share", Pick::Median),
    ("trace.loop_self_share", "share", Pick::Median),
    ("trace.ledger_gap_pct", "%", Pick::Median),
    ("trace.overhead_pct", "%", Pick::Median),
    ("trace.timer_bias_ns", "ns", Pick::Median),
    ("failed_share", "share", Pick::Median),
];

/// One row of a metric table.
pub type Row = (&'static str, &'static str, Pick);

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the trace generator.
    pub seed: u64,
    /// Seconds to measure for. The three passes share them equally and a
    /// repeat is sized to take about one second, so each pass gets a third
    /// of this many timed repeats, and never fewer than five.
    pub seconds: f64,
    /// Measure the per-layer metrics and record spans.
    pub trace: bool,
    /// Tiny cycles, two repeats, small probes: a smoke run.
    pub quick: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value the run reports: see [`Pick`].
    pub reported: f64,
    /// Median, quartiles and extremes over repeats (or batches, set-ups, or
    /// chunks of timings).
    pub value: Summary,
    /// Individual timings behind a latency metric; 0 for the others.
    pub samples: u64,
}

/// The timed repeats of one pass of one subject, for the result file.
#[derive(Clone, Debug)]
pub struct PassLog {
    /// Which pass, e.g. `subject.t2`.
    pub name: String,
    /// Its repeats.
    pub repeats: Vec<Repeat>,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Calls made and checks done.
    pub attempted: u64,
    /// Calls that went wrong, checks that failed, objects leaked.
    pub failed: u64,
    /// Every pass's repeats.
    pub passes: Vec<PassLog>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Spans that did not fit the buffers.
    pub spans_dropped: u64,
}

impl Outcome {
    /// Repeats flagged as more than five times their pass's median.
    pub fn outlier_repeats(&self) -> usize {
        self.passes
            .iter()
            .flat_map(|p| &p.repeats)
            .filter(|r| r.outlier)
            .count()
    }

    fn log(&mut self, name: &str, pass: &Pass) {
        let tally = pass.tally();
        self.attempted += tally.ops();
        self.failed += tally.failed;
        self.passes.push(PassLog {
            name: name.to_string(),
            repeats: pass.repeats.clone(),
        });
    }

    fn push(&mut self, table: &[Row], value: Summary, samples: u64) {
        let pick = table[self.metrics.len()].2;
        self.push_as(table, pick, value, samples);
    }

    /// [`Outcome::push`] reporting `pick` whatever the table says.
    fn push_as(&mut self, table: &[Row], pick: Pick, value: Summary, samples: u64) {
        let (name, unit, _) = table[self.metrics.len()];
        self.metrics.push(Metric {
            name,
            unit,
            reported: match pick {
                Pick::Median => value.median,
                Pick::Decile => value.d1,
                Pick::Low => value.q1,
                Pick::High => value.q3,
            },
            value,
            samples,
        });
    }
}

/// The knobs `--quick` turns down.
struct Scale {
    setups: usize,
    /// Timed repeats per pass.
    repeats: usize,
    probes: ProbeScale,
    /// Calls per round of the fault and fork probes.
    fault_probe: u64,
    fork_probe: u64,
}

impl Scale {
    fn of(args: &Args) -> Scale {
        if args.quick {
            Scale {
                setups: 2,
                repeats: 2,
                probes: ProbeScale::QUICK,
                fault_probe: 1 << 15,
                fork_probe: 1 << 11,
            }
        } else {
            Scale {
                // About two seconds of set-ups whatever the cycle's size:
                // 5 of `fault-scan`'s 0.35 s, 20 of `mmap-churn`'s 0.09 s
                // (which reads 0.09 or 0.12 s from one to the next).
                setups: ((2 << 20) / args.workload.cycle_ops).clamp(5, 20),
                repeats: ((args.seconds / 3.0) as usize).max(5),
                probes: ProbeScale::FULL,
                fault_probe: 1 << 18,
                fork_probe: 1 << 15,
            }
        }
    }
}

/// A set-up address space, ready to be measured.
struct Ready {
    cycles: Vec<Vec<Packed>>,
    subject: Subject,
    heap: HeapMark,
    warmup: Tally,
}

impl Ready {
    /// The whole build-free set-up: generate and label the trace, create
    /// and prefill the address space, replay one cycle to warm it up.
    fn new(w: &Workload, seed: u64) -> Ready {
        let cycles = w.cycles(seed);
        // From here on the heap grows on the subject's account only.
        let heap = alloc::mark();
        let mut subject = Subject::bonsai(w);
        let warmup = warm_up(w, &cycles, &mut subject);
        Ready {
            cycles,
            subject,
            heap,
            warmup,
        }
    }
}

fn warm_up(w: &Workload, cycles: &[Vec<Packed>], subject: &mut Subject) -> Tally {
    let spec = RepeatSpec {
        w,
        cycles,
        threads: 1,
        reps: 1,
    };
    run_repeat(subject, &spec, &mut [NoClock]).tally
}

/// Runs the workload once and returns its metrics.
pub fn run(args: &Args) -> Outcome {
    let w = if args.quick {
        args.workload.quick()
    } else {
        *args.workload
    };
    let scale = Scale::of(args);
    let mut out = Outcome::default();
    if args.trace {
        per_layer(&w, args.seed, &scale, &mut out);
        assert_names(&out, &PER_LAYER);
    } else {
        end_to_end(&w, args.seed, &scale, &mut out);
        assert_names(&out, &END_TO_END);
    }
    out
}

fn assert_names(out: &Outcome, table: &[Row]) {
    let emitted: Vec<_> = out.metrics.iter().map(|m| m.name).collect();
    let wanted: Vec<_> = table.iter().map(|t| t.0).collect();
    assert_eq!(emitted, wanted, "emitted metrics differ from the table");
}

/// The three passes of a run. Their repeats take turns — one-thread,
/// two-thread, latency, and round again — so each pass's repeats are spread
/// over the whole run, and a disturbance of a few seconds (a busy
/// neighbour on the host) reaches a minority of any pass's repeats.
struct Passes {
    t1: Pass,
    t2: Pass,
    lat: Latency,
    /// The locked baseline's two throughput passes, in a traced run.
    locked: Option<[Pass; 2]>,
}

/// Runs the passes on `subject` (and, taking turns with it, `locked`): a
/// discarded warm-up repeat of each, then `repeats` rounds. `after_round`
/// runs between rounds, outside every timed window.
///
/// On a forking workload every repeat starts on a new family: the old
/// parent and its lineages are checked and dropped, and a fresh parent is
/// prefilled. A family's address spaces share one chunk store that only
/// grows while any of them lives (about 19 KB per fork), and a run on a
/// family that kept growing measured the host's supply of fresh pages as
/// much as the subject: repeats slowed by a third at a point that moved
/// from run to run. `heap_peak_bytes` still shows the growth.
#[allow(clippy::too_many_arguments)]
fn run_passes(
    w: &Workload,
    cycles: &[Vec<Packed>],
    subject: &mut Subject,
    mut locked: Option<&mut Subject>,
    repeats: usize,
    span_room: usize,
    out: &mut Outcome,
    mut after_round: impl FnMut(&Subject),
) -> Passes {
    let mut renew = |subject: &mut Subject| {
        if w.forks.is_some() {
            let fresh = match subject.collector {
                Some(_) => Subject::bonsai(w),
                None => Subject::locked(w),
            };
            verify(w, std::mem::replace(subject, fresh), out);
        }
    };
    let spec = |threads, reps| RepeatSpec {
        w,
        cycles,
        threads,
        reps,
    };
    let specs = [spec(1, w.cycles_t1), spec(THREADS, w.cycles_t2)];
    let lat_spec = spec(THREADS, w.cycles_lat);
    let idle = &mut [NoClock, NoClock];
    let mut own = [Pass::default(), Pass::default()];
    let mut base = [Pass::default(), Pass::default()];
    let mut lat = Latency::new(&lat_spec, span_room);

    for (i, spec) in specs.iter().enumerate() {
        renew(subject);
        own[i].warmup = run_repeat(subject, spec, idle).tally;
        if let Some(locked) = locked.as_deref_mut() {
            renew(locked);
            base[i].warmup = run_repeat(locked, spec, idle).tally;
        }
    }
    renew(subject);
    lat.warm_up(subject, &lat_spec);
    for _ in 0..repeats {
        for (i, spec) in specs.iter().enumerate() {
            renew(subject);
            own[i].repeats.push(run_repeat(subject, spec, idle));
            if let Some(locked) = locked.as_deref_mut() {
                renew(locked);
                base[i].repeats.push(run_repeat(locked, spec, idle));
            }
        }
        renew(subject);
        lat.repeat(subject, &lat_spec);
        after_round(subject);
    }
    lat.finish();
    own.iter_mut()
        .chain(&mut base)
        .for_each(Pass::flag_outliers);
    let [t1, t2] = own;
    Passes {
        t1,
        t2,
        lat,
        locked: locked.map(|_| base),
    }
}

fn end_to_end(w: &Workload, seed: u64, scale: &Scale, out: &mut Outcome) {
    // Built first, so that the heap mark each set-up takes excludes it.
    let fork_fixture = Subject::bonsai(w);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..scale.setups {
        // The previous set-up is torn down before the clock starts. Both
        // steps get a thread of their own: a thread that has pinned a
        // collector keeps a cached handle to it, and with the handle the
        // old family's heap, until it pins another; the heap mark must not
        // see that.
        let previous = ready.take();
        thread::scope(|s| {
            s.spawn(move || drop(previous));
        });
        let started = Instant::now();
        let set_up = thread::scope(|s| s.spawn(|| Ready::new(w, seed)).join());
        setup_s.push(started.elapsed().as_secs_f64());
        ready = Some(set_up.expect("set-up panicked"));
    }
    let Ready {
        cycles,
        mut subject,
        heap,
        warmup,
    } = ready.expect("at least one set-up");
    let heap_peak = heap.peak_bytes();
    out.attempted += warmup.ops() * scale.setups as u64;
    out.failed += warmup.failed;

    // A class the mix never issues is probed between the rounds, so that
    // every workload reports every metric: faults against the subject
    // itself, forks against an identical address space kept aside — the
    // subject must stay never-forked for as long as it is being measured.
    let probe_faults = w.phases.iter().all(|p| p.mix.0 == 0);
    let probe_forks = w.forks.is_none();
    let (mut fault, mut fork) = (Group::default(), Group::default());
    let mut probed = (0, 0);
    let mut rng = Rng::new(seed ^ 0x5EED_FA17);
    let model = PageModel::new(w.span(), &w.initial_regions());
    let passes = run_passes(
        w,
        &cycles,
        &mut subject,
        None,
        scale.repeats,
        0,
        out,
        |subject| {
            if probe_faults {
                let bad = fault_probe(w, subject, &model, &mut rng, scale, &mut fault);
                probed = (probed.0 + scale.fault_probe, probed.1 + bad);
            }
            if probe_forks {
                fork_probe(&fork_fixture, scale, &mut fork);
                probed.0 += scale.fork_probe;
            }
        },
    );
    out.attempted += probed.0;
    out.failed += probed.1;
    let Passes { t1, t2, lat, .. } = passes;
    out.log("subject.t1", &t1);
    out.log("subject.t2", &t2);
    out.log("subject.latency", &lat.pass);
    verify(w, subject, out);
    verify(w, fork_fixture, out);

    out.push(&END_TO_END, Summary::of(&setup_s), 0);
    out.push(&END_TO_END, t1.ops_per_s(), 0);
    out.push(&END_TO_END, t2.ops_per_s(), 0);
    let groups = [
        if probe_faults {
            (&fault, Pick::Decile)
        } else {
            (&lat.fault, Pick::Low)
        },
        (&lat.mutate, Pick::Low),
        if probe_forks {
            (&fork, Pick::Decile)
        } else {
            (&lat.fork, Pick::Low)
        },
    ];
    for (group, pick) in groups {
        for raw in [&group.p50, &group.p99] {
            let net = Group::net(raw, lat.bias_ns);
            out.push_as(&END_TO_END, pick, net, group.samples);
        }
    }
    out.push(&END_TO_END, Summary::single(heap_peak as f64), 0);
}

fn per_layer(w: &Workload, seed: u64, scale: &Scale, out: &mut Outcome) {
    let Ready {
        cycles,
        mut subject,
        warmup,
        ..
    } = Ready::new(w, seed);
    let mut locked = Subject::locked(w);
    let locked_warmup = warm_up(w, &cycles, &mut locked);
    out.attempted += warmup.ops() + locked_warmup.ops();
    out.failed += warmup.failed + locked_warmup.failed;

    let span_room = if w.forks.is_some() { 1 << 16 } else { 1 << 15 };
    let passes = run_passes(
        w,
        &cycles,
        &mut subject,
        Some(&mut locked),
        scale.repeats,
        span_room,
        out,
        |_| (),
    );
    let collector = subject.collector.as_ref().expect("the subject has one");
    let peak_unreclaimed = collector.stats().peak_unreclaimed_bytes;
    let Passes {
        t1,
        t2,
        lat,
        locked: base,
    } = passes;
    let [locked_t1, locked_t2] = base.expect("the baseline ran");
    let loop_ns = loop_ns_per_op(w, &cycles);
    let layers = probes::run(w, seed, scale.probes);

    for (name, pass) in [
        ("subject.t1", &t1),
        ("locked.t1", &locked_t1),
        ("subject.t2", &t2),
        ("locked.t2", &locked_t2),
        ("subject.latency", &lat.pass),
    ] {
        out.log(name, pass);
    }
    verify(w, subject, out);
    verify(w, locked, out);

    // The collector's counters over the timed one-thread repeats.
    let total = |f: fn(&Repeat) -> u64| t1.repeats.iter().map(f).sum::<u64>() as f64;
    let mutations = total(|r| r.tally.mutations()).max(1.0);
    let sync_ns: Vec<f64> = t1.repeats.iter().map(|r| r.sync_ns).collect();
    let ratio = |a: &Pass, b: &Pass| Summary::single(a.ops_per_s().median / b.ops_per_s().median);
    let ledger = lat.ledger(loop_ns);
    let one = Summary::single;

    let t = &PER_LAYER;
    out.push(t, layers.pin_unpin, 0);
    out.push(t, layers.pin_unpin_t2, 0);
    out.push(t, layers.defer, 0);
    out.push(t, one(total(|r| r.retired) / mutations), 0);
    out.push(t, one(total(|r| r.retired_bytes) / mutations), 0);
    out.push(t, one(total(|r| r.epochs)), 0);
    out.push(t, Summary::of(&sync_ns), 0);
    out.push(t, one(peak_unreclaimed as f64), 0);
    out.push(t, layers.get_le_pinned, 0);
    out.push(t, layers.get_le_owned, 0);
    out.push(t, layers.insert_remove, 0);
    out.push(t, layers.tree_fork, 0);
    out.push(t, layers.cow_first_write, 0);
    out.push(t, layers.lookup_pinned, 0);
    out.push(t, layers.contains, 0);
    out.push(t, layers.map_unmap, 0);
    out.push(t, layers.unmap_range, 0);
    out.push(t, layers.range_map_fork, 0);
    out.push(t, minus(layers.map_unmap, layers.insert_remove), 0);
    out.push(t, layers.fault, 0);
    out.push(t, minus(layers.fault, layers.contains), 0);
    out.push(t, one(total(|r| r.allocs) / total(|r| r.tally.ops())), 0);
    out.push(t, locked_t1.ops_per_s(), 0);
    out.push(t, locked_t2.ops_per_s(), 0);
    out.push(t, ratio(&t1, &locked_t1), 0);
    out.push(t, ratio(&t2, &locked_t2), 0);
    for share in ledger.class_share {
        out.push(t, one(share), ledger.samples);
    }
    out.push(t, one(ledger.loop_self_share), 0);
    out.push(t, one(ledger.gap_pct), 0);
    out.push(
        t,
        one(100.0 * (1.0 - lat.pass.ops_per_s().median / t2.ops_per_s().median)),
        0,
    );
    out.push(t, one(lat.bias_ns), 0);
    let failed_share = out.failed as f64 / out.attempted as f64;
    out.push(t, one(failed_share), 0);

    out.spans = lat.spans;
    out.spans_dropped = lat.spans_dropped;
}

/// Timings per chunk of a latency metric: a 99th percentile then has 20
/// readings beyond it, twice what a percentile needs.
const CHUNK: usize = 2048;

/// Latencies of one group of classes: the raw percentiles of every chunk
/// of [`CHUNK`] consecutive timings of one thread.
///
/// A chunk spans a few milliseconds of a thread's time, a disturbance on
/// the host tens of milliseconds to minutes, so most chunks are either
/// clear of it or wholly inside it, and a low quantile over a run's many
/// chunks (see [`Pick`]) leaves the disturbed ones out. A 99th
/// percentile over a whole repeat or probe round does not: the readings
/// between the 90th percentile and the 99th are sparse (the fork probe
/// reads 0.75 µs at the median, 0.77 µs at the 90th percentile and 0.85 to
/// 1.1 µs at the 99th), so a few disturbed milliseconds move it by 20 %.
#[derive(Debug, Default)]
struct Group {
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: u64,
}

impl Group {
    /// Adds one thread's raw readings of one repeat (or probe round), in
    /// the order they were taken. What is left over after the last whole
    /// chunk joins it.
    fn harvest(&mut self, raw: &[u32]) {
        self.samples += raw.len() as u64;
        let chunks = (raw.len() / CHUNK).max(1);
        for i in 0..chunks {
            let end = if i + 1 == chunks {
                raw.len()
            } else {
                (i + 1) * CHUNK
            };
            let mut chunk = raw[i * CHUNK..end].to_vec();
            chunk.sort_unstable();
            self.p50.extend(percentile(&chunk, 0.5));
            self.p99.extend(percentile(&chunk, 0.99));
        }
    }

    /// The chunks' percentiles less the clock bias. A call cannot take
    /// less than no time: where the bias estimate exceeds a reading, the
    /// result is a tenth of a nanosecond, not a negative.
    fn net(raw: &[f64], bias_ns: f64) -> Summary {
        let net: Vec<f64> = raw.iter().map(|ns| (ns - bias_ns).max(0.1)).collect();
        Summary::of(&net)
    }
}

/// The latency pass: like a timer-free pass, but each thread times one op
/// in [`SAMPLE_EVERY`] (and every fork and exit), and with `span_room > 0`
/// records that many spans per thread.
struct Latency {
    pass: Pass,
    bias_ns: f64,
    fault: Group,
    mutate: Group,
    fork: Group,
    /// Per class over the timed repeats: net sampled time, samples, calls.
    class_ns: [f64; CLASSES],
    class_samples: [u64; CLASSES],
    /// Thread-time inside segment spans over the timed repeats.
    segment_ns: f64,
    spans: Vec<Span>,
    spans_dropped: u64,
    epoch: Instant,
    clocks: Vec<Sampler>,
}

/// The ledger of a traced pass: where the threads' time went.
struct Ledger {
    class_share: [f64; CLASSES],
    loop_self_share: f64,
    gap_pct: f64,
    samples: u64,
}

impl Latency {
    fn new(spec: &RepeatSpec, span_room: usize) -> Latency {
        let epoch = Instant::now();
        let ops_per_repeat = spec.reps * spec.cycles.iter().map(Vec::len).max().unwrap_or(0);
        // One op in SAMPLE_EVERY, and a fork and an exit per lifecycle.
        let lifecycles = spec
            .w
            .forks
            .map_or(0, |shape| ops_per_repeat / shape.chunk + 1);
        let sample_room = ops_per_repeat / SAMPLE_EVERY as usize + 2 * lifecycles + 64;
        Latency {
            pass: Pass::default(),
            bias_ns: timer_bias_ns(),
            fault: Group::default(),
            mutate: Group::default(),
            fork: Group::default(),
            class_ns: [0.0; CLASSES],
            class_samples: [0; CLASSES],
            segment_ns: 0.0,
            spans: Vec::new(),
            spans_dropped: 0,
            epoch,
            clocks: (0..spec.threads)
                .map(|t| Sampler::new(epoch, t, sample_room, span_room))
                .collect(),
        }
    }

    fn warm_up(&mut self, subject: &mut Subject, spec: &RepeatSpec) {
        self.pass.warmup = run_repeat(subject, spec, &mut self.clocks).tally;
        self.clocks.iter_mut().for_each(Sampler::reset);
    }

    /// One timed repeat; each thread's readings are reduced to percentiles
    /// and sums at once, so the buffers are free for the next.
    fn repeat(&mut self, subject: &mut Subject, spec: &RepeatSpec) {
        self.pass
            .repeats
            .push(run_repeat(subject, spec, &mut self.clocks));
        for clock in &mut self.clocks {
            self.segment_ns += clock.segment_ns as f64;
            let (mut fault, mut mutate, mut fork) = (Vec::new(), Vec::new(), Vec::new());
            for &(class, ns) in &clock.samples {
                self.class_samples[class as usize] += 1;
                self.class_ns[class as usize] += ns as f64 - self.bias_ns;
                match class {
                    Class::Fault => fault.push(ns),
                    Class::Map | Class::Unmap | Class::UnmapRange => mutate.push(ns),
                    Class::Fork => fork.push(ns),
                    Class::Exit => (),
                }
            }
            self.fault.harvest(&fault);
            self.mutate.harvest(&mutate);
            self.fork.harvest(&fork);
            clock.clear();
        }
    }

    /// Collects the spans: the threads' own, under one `pass` span from the
    /// first recorded span's start to now.
    fn finish(&mut self) {
        for clock in &mut self.clocks {
            self.spans.append(&mut clock.spans);
            self.spans_dropped += clock.dropped;
        }
        if let Some(first) = self.spans.iter().map(|s| s.start_ns).min() {
            self.spans.insert(
                0,
                Span {
                    id: PASS_ID,
                    parent: 0,
                    thread: 255,
                    name: "pass",
                    start_ns: first,
                    end_ns: self.epoch.elapsed().as_nanos() as u64,
                },
            );
        }
    }

    /// Scales each class's sampled time up by calls per sample (about
    /// [`SAMPLE_EVERY`]; 1 for forks and exits) and sets it against the
    /// time the threads spent in segments. The loop's own share is
    /// estimated independently — the replay loop against a no-op address
    /// space, plus the clock pairs — so the shares need not sum to 1, and
    /// how far they miss is the gap.
    fn ledger(&self, loop_ns_per_op: f64) -> Ledger {
        let calls = self.pass.timed().calls;
        let mut class_share = [0.0; CLASSES];
        for c in 0..CLASSES {
            if self.class_samples[c] > 0 {
                let per_sample = calls[c] as f64 / self.class_samples[c] as f64;
                class_share[c] = self.class_ns[c] * per_sample / self.segment_ns;
            }
        }
        let samples: u64 = self.class_samples.iter().sum();
        let trace_ops: u64 = calls[..Class::Fork as usize].iter().sum();
        let loop_self_share =
            (trace_ops as f64 * loop_ns_per_op + samples as f64 * self.bias_ns) / self.segment_ns;
        let sum = class_share.iter().sum::<f64>() + loop_self_share;
        Ledger {
            class_share,
            loop_self_share,
            gap_pct: 100.0 * (1.0 - sum).abs(),
            samples,
        }
    }
}

/// One round of the fault probe, for a workload whose mix has no faults:
/// random faults from one thread, one in [`SAMPLE_EVERY`] timed, against
/// the subject as the round left it (every cycle closes on the prefill
/// state, which is what `model` holds). Returns the faults that disagreed.
fn fault_probe(
    w: &Workload,
    subject: &Subject,
    model: &PageModel,
    rng: &mut Rng,
    scale: &Scale,
    group: &mut Group,
) -> u64 {
    let room = scale.fault_probe as usize / SAMPLE_EVERY as usize + 64;
    let mut clock = Sampler::new(Instant::now(), 0, room, 0);
    let mut bad = 0;
    for _ in 0..scale.fault_probe {
        let addr = rng.below(w.span());
        let hit = clock.op(Class::Fault, || subject.space.fault(addr));
        bad += (hit != model.fault(addr)) as u64;
    }
    group.harvest(&clock.readings());
    bad
}

/// One round of the fork probe, for a workload that never forks: forks of
/// `fixture`, every one timed, each child dropped at once.
fn fork_probe(fixture: &Subject, scale: &Scale, group: &mut Group) {
    let mut clock = Sampler::new(Instant::now(), 0, scale.fork_probe as usize, 0);
    for _ in 0..scale.fork_probe {
        drop(clock.each(Class::Fork, || fixture.space.fork()));
    }
    group.harvest(&clock.readings());
    fixture.synchronize();
}

/// The closing checks: every address space a thread was mutating must hold
/// exactly the model's regions (every cycle closes on the prefill state),
/// and once every space is dropped and a grace period has passed, the
/// collector must have freed everything it was handed.
fn verify(w: &Workload, subject: Subject, out: &mut Outcome) {
    let model = PageModel::new(w.span(), &w.initial_regions());
    let spaces = if w.forks.is_some() { THREADS } else { 1 };
    for t in 0..spaces {
        out.attempted += 1 + w.span() / crate::trace::PAGE + 2 * model.regions().len() as u64;
        out.failed += disagreements(subject.tip(t), &model);
    }
    let Subject {
        space,
        collector,
        lineages,
    } = subject;
    drop(lineages);
    drop(space);
    if let Some(collector) = collector {
        collector.synchronize();
        let stats = collector.stats();
        out.attempted += 1;
        out.failed += stats.objects_retired - stats.objects_freed;
    }
}
