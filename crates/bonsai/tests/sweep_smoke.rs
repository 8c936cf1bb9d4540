//! In-process smoke test of the benchmark's replay harness (`bench/`) over
//! every address space it can drive: `RangeMap` on the epoch collector (the
//! benchmark's subject), `RangeMap` on the hybrid domain, and the locked
//! baseline. Identical work must tally identically with no wrong answer,
//! both reclaiming backends must drain to `retired == freed`, and a traced
//! replay's span document must be well-formed JSON.

use std::collections::HashSet;
use std::time::Instant;

use addrspace_bench::replay::{run_repeat, Lineage, RepeatSpec, Subject};
use addrspace_bench::spans::{
    self, Class, NoClock, Sampler, CLASS_SPAN, LIFECYCLE, PASS_ID, SEGMENT,
};
use addrspace_bench::trace::{Packed, Workload, THREADS, WORKLOADS};
use bonsai::RangeMap;
use rcukit::{HybridDomain, ReclaimBackend};

/// A workload cut down to a few thousand ops per thread; a forking one to
/// enough lifecycles that every thread's ring of live children fills and
/// the oldest exit.
fn tiny(w: &Workload) -> Workload {
    let cycle_ops = match w.forks {
        Some(shape) => (shape.live + 16) * shape.chunk,
        None => 4096,
    };
    Workload { cycle_ops, ..*w }
}

#[derive(Clone, Copy, Debug)]
enum Backend {
    Epoch,
    Hybrid,
    Locked,
}

/// `backend`'s address space, prefilled for `w`, with the handle its
/// reclamation is checked through (none for the locked baseline).
fn subject(backend: Backend, w: &Workload) -> (Subject, Option<ReclaimBackend>) {
    match backend {
        Backend::Epoch => {
            let subject = Subject::bonsai(w);
            let reclaim = subject.collector.clone().map(ReclaimBackend::Epoch);
            (subject, reclaim)
        }
        Backend::Hybrid => {
            let reclaim = ReclaimBackend::Hybrid(HybridDomain::new());
            let space = RangeMap::<()>::with_backend(reclaim.clone());
            for (start, end) in w.initial_regions() {
                assert!(space.map(start, end, ()), "prefill region refused");
            }
            let subject = Subject {
                space: Box::new(space),
                collector: None,
                lineages: (0..THREADS).map(|_| Lineage::new()).collect(),
            };
            (subject, Some(reclaim))
        }
        Backend::Locked => (Subject::locked(w), None),
    }
}

/// Forks and exits a replay of `cycles` makes: one lifecycle per started
/// chunk of each thread's cycle (cycles differ in the length of their
/// closing tail), and an exit for each beyond the `live` a ring holds.
fn lifecycle_counts(cycles: &[Vec<Packed>], chunk: usize, live: usize) -> (usize, usize) {
    let lifecycles: Vec<usize> = cycles.iter().map(|c| c.len().div_ceil(chunk)).collect();
    let exits = lifecycles.iter().map(|l| l.saturating_sub(live)).sum();
    (lifecycles.iter().sum(), exits)
}

// Not run under Miri (nor is the next test): tens of thousands of replayed
// ops per workload and backend are prohibitively slow to interpret. The
// same `RangeMap` paths run under Miri through the cfg(miri)-scaled stress
// tests.
#[cfg_attr(miri, ignore)]
#[test]
fn sweep_runs_every_backend_over_identical_work() {
    for w in WORKLOADS.iter().map(tiny) {
        let cycles = w.cycles(7);
        for threads in [1, THREADS] {
            let spec = RepeatSpec {
                w: &w,
                cycles: &cycles,
                threads,
                reps: 1,
            };
            let mut tallies = Vec::new();
            for backend in [Backend::Epoch, Backend::Hybrid, Backend::Locked] {
                let at = format!("{}/{threads}t/{backend:?}", w.name);
                let (mut subject, reclaim) = subject(backend, &w);
                let repeat = run_repeat(&mut subject, &spec, &mut [NoClock, NoClock]);
                // Traces are valid by construction and every checkable
                // fault verdict comes from the model: a failure is a bug.
                assert_eq!(repeat.tally.failed, 0, "{at}");
                let calls = repeat.tally.calls;
                let trace_ops: usize = cycles[..threads].iter().map(Vec::len).sum();
                let lifecycle_ops = calls[Class::Fork as usize] + calls[Class::Exit as usize];
                assert_eq!(repeat.tally.ops() - lifecycle_ops, trace_ops as u64, "{at}");
                if let Some(shape) = w.forks {
                    let (forks, exits) =
                        lifecycle_counts(&cycles[..threads], shape.chunk, shape.live);
                    assert_eq!(calls[Class::Fork as usize], forks as u64, "{at}");
                    assert_eq!(calls[Class::Exit as usize], exits as u64, "{at}");
                }
                drop(subject);
                if let Some(reclaim) = reclaim {
                    reclaim.synchronize();
                    let s = reclaim.stats();
                    assert!(
                        s.objects_retired > 0,
                        "{at}: writer churn must retire nodes"
                    );
                    assert!(
                        s.peak_unreclaimed_bytes > 0,
                        "{at}: the peak gauge never moved"
                    );
                    assert_eq!(
                        (s.objects_retired, s.bytes_retired),
                        (s.objects_freed, s.bytes_freed),
                        "{at}: retirements stranded"
                    );
                }
                tallies.push(calls);
            }
            // The same cycles replayed against each address space do the
            // same calls; only the time they take may differ.
            assert!(
                tallies.windows(2).all(|p| p[0] == p[1]),
                "{}/{threads}t: {tallies:?}",
                w.name
            );
        }
    }
}

/// A traced two-thread fork-storm replay: the document the benchmark
/// writes to `bench/out/trace-<workload>.json` parses, carries every span
/// with every field, and links each span to a parent in the same file.
#[cfg_attr(miri, ignore)]
#[test]
fn trajectory_document_is_well_formed_json() {
    let w = tiny(Workload::by_name("fork-storm").expect("a shipped workload"));
    let shape = w.forks.expect("fork-storm forks");
    let cycles = w.cycles(7);
    let mut subject = Subject::bonsai(&w);
    let room = cycles[0].len();
    let epoch = Instant::now();
    let mut clocks: Vec<Sampler> = (0..THREADS)
        .map(|t| Sampler::new(epoch, t, room, room))
        .collect();
    let spec = RepeatSpec {
        w: &w,
        cycles: &cycles,
        threads: THREADS,
        reps: 1,
    };
    assert_eq!(run_repeat(&mut subject, &spec, &mut clocks).tally.failed, 0);
    let spans: Vec<spans::Span> = clocks
        .iter()
        .flat_map(|c| c.spans.iter().copied())
        .collect();
    let dropped: u64 = clocks.iter().map(|c| c.dropped).sum();
    assert_eq!(dropped, 0, "the span buffers overflowed");
    let doc = spans::to_json(w.name, dropped, &spans);

    let value = json::parse(&doc).expect("the span document must parse as JSON");
    let json::Value::Object(top) = value else {
        panic!("expected a top-level object, got {value:?}");
    };
    assert_eq!(
        lookup(&top, "workload"),
        Some(&json::Value::String("fork-storm".into()))
    );
    assert_eq!(lookup(&top, "dropped"), Some(&json::Value::Number(0.0)));
    let Some(json::Value::Array(records)) = lookup(&top, "spans") else {
        panic!("spans must be an array");
    };
    assert_eq!(records.len(), spans.len());

    let number = |fields: &[(String, json::Value)], key: &str| match lookup(fields, key) {
        Some(json::Value::Number(n)) => *n,
        other => panic!("{key} must be a number, got {other:?}"),
    };
    let mut ids = HashSet::new();
    let mut parents = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for record in records {
        let json::Value::Object(fields) = record else {
            panic!("a span must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["id", "parent", "thread", "name", "start_ns", "end_ns"]
        );
        assert!(ids.insert(number(fields, "id") as u64), "duplicate span id");
        parents.push(number(fields, "parent") as u64);
        assert!(number(fields, "thread") < THREADS as f64);
        assert!(number(fields, "start_ns") <= number(fields, "end_ns"));
        let Some(json::Value::String(name)) = lookup(fields, "name") else {
            panic!("a span's name must be a string");
        };
        names.push(name.clone());
    }
    for parent in parents {
        assert!(
            parent == PASS_ID as u64 || ids.contains(&parent),
            "span parent {parent} is not in the document"
        );
    }
    let count = |want: &str| names.iter().filter(|n| *n == want).count();
    let (forks, exits) = lifecycle_counts(&cycles, shape.chunk, shape.live);
    assert_eq!(count(SEGMENT), THREADS);
    assert_eq!(count(LIFECYCLE), forks);
    assert_eq!(count(CLASS_SPAN[Class::Fork as usize]), forks);
    assert_eq!(count(CLASS_SPAN[Class::Exit as usize]), exits);
    for name in &names {
        assert!(
            name == SEGMENT || name == LIFECYCLE || CLASS_SPAN.contains(&name.as_str()),
            "unknown span name {name:?}"
        );
    }
}

fn lookup<'a>(pairs: &'a [(String, json::Value)], key: &str) -> Option<&'a json::Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A minimal recursive-descent JSON parser, here only to prove the emitted
/// document is well-formed without adding a dependency.
mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("truncated escape")?;
                    *pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut pairs = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            pairs.push((key, parse_value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}
