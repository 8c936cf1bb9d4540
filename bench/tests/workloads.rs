//! The workloads cannot drift silently: each one's trace for seed 42 is
//! pinned by a fingerprint, a second seed runs end to end, and the metric
//! names the harness emits are the ones `BENCHMARK.json` declares.

use addrspace_bench::harness::{run, Args, END_TO_END, PER_LAYER};
use addrspace_bench::trace::{fingerprint, WORKLOADS};

/// FNV-1a of both threads' labelled cycles for seed 42, full size.
const GOLDEN: [(&str, u64); 4] = [
    ("fault-scan", 0x13a5_0f71_e1a3_6957),
    ("mmap-churn", 0xd692_9bd4_0a4f_8273),
    ("mixed-metis", 0x7c4c_46dd_060d_9e5f),
    ("fork-storm", 0x2bc1_ae94_8b82_60bc),
];

#[test]
fn seed_42_traces_match_their_golden_fingerprints() {
    for (w, (name, golden)) in WORKLOADS.iter().zip(GOLDEN) {
        assert_eq!(w.name, name);
        let cycles = w.cycles(42);
        assert_eq!(
            fingerprint(&cycles),
            golden,
            "{name}: the trace for seed 42 changed; results are no longer \
             comparable with earlier commits"
        );
        assert_eq!(fingerprint(&cycles), fingerprint(&w.cycles(42)));
        assert_ne!(fingerprint(&cycles), fingerprint(&w.cycles(43)));
    }
}

/// Seed 7, `--quick` size, both kinds of run: nothing fails, and the
/// metrics come out under the declared names (`run` asserts the order).
#[test]
fn second_seed_runs_clean_on_every_workload() {
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let out = run(&Args {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                quick: true,
            });
            assert_eq!(out.failed, 0, "{} trace={trace}", workload.name);
            assert!(out.attempted > 0);
            let rows = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(out.metrics.len(), rows);
            assert_eq!(out.spans.is_empty(), !trace);
        }
    }
}

/// The first double-quoted string in `s`.
fn quoted(s: &str) -> Option<String> {
    let s = &s[s.find('"')? + 1..];
    Some(s[..s.find('"')?].to_string())
}

/// Every `"name"` in `BENCHMARK.json`, in file order, with the `"unit"` of
/// the same object (workloads have none).
fn declared() -> Vec<(String, Option<String>)> {
    include_str!("../../BENCHMARK.json")
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let object = &rest[..rest.find('}').expect("a name sits in an object")];
            let unit = object.find("\"unit\"").map(|at| &object[at + 6..]);
            (
                quoted(object).expect("a name has a value"),
                unit.and_then(quoted),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_names_and_units() {
    let emitted: Vec<(String, Option<String>)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), None))
        .chain(
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .map(|&(name, unit, _)| (name.to_string(), Some(unit.to_string()))),
        )
        .collect();
    assert_eq!(declared(), emitted);
}
