#!/usr/bin/env python3
"""Collect and compare sets of benchmark runs, by the rules in BENCHMARK.json.

    bench/compare.py --collect a.json            run every workload on ten seeds
    bench/compare.py a.json b.json               compare two sets
    bench/compare.py --check-names               quick runs; names must match BENCHMARK.json

A set is what `--collect` writes: one result line per (workload, seed). The
comparison prints one row per (workload, end-to-end metric):

    ok          b's median is not worse than a's by more than the metric's bound
    worse       it is
    unresolved  the spread of a or of b (interquartile range over median, as
                statistics.quantiles(values, n=4) gives the quartiles) is wider
                than the bound, so the medians cannot be told apart

`setup_s` is exempt from the spread rule, as it is in the driver. Exit status
is 1 if any row is `worse` or `unresolved`. Comparing a set with itself
checks the spreads alone.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, extra=()):
    """Runs the benchmark command once; returns its result object and wall time."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), *extra,
    ]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def collect(path, seeds, trace):
    runs = []
    for w in SPEC["workloads"]:
        for seed in seeds:
            result, wall = run(w["name"], seed, trace)
            print(f"{w['name']:<12} seed {seed:<4} {wall:6.1f} s  "
                  f"correct={result['correct']} failed={result['failed']}", flush=True)
            runs.append({"workload": w["name"], "seed": seed, "trace": trace,
                         "wall_s": wall, "result": result})
    Path(path).write_text(json.dumps({"runs": runs}, indent=1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def values_of(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())["runs"]
    b = json.loads(Path(path_b).read_text())["runs"]
    bad = 0
    print(f"{'workload':<12} {'metric':<16} {'median a':>14} {'median b':>14} "
          f"{'b vs a':>8} {'spread a':>9} {'spread b':>9} {'bound':>6}  verdict")
    for w in (w["name"] for w in SPEC["workloads"]):
        for m in SPEC["end_to_end"]:
            va, vb = values_of(a, w, m["name"]), values_of(b, w, m["name"])
            if len(va) < 2 or len(vb) < 2:
                sys.exit(f"{w}/{m['name']}: a set needs at least two runs of it")
            ma, mb = statistics.median(va), statistics.median(vb)
            worse_by = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"{w:<12} {m['name']:<16} {ma:>14.6g} {mb:>14.6g} {worse_by:>+8.1%} "
                  f"{sa:>9.1%} {sb:>9.1%} {m['bound']:>6.0%}  {verdict}")
    failed = sum(r["result"]["failed"] for r in a + b)
    print(f"{bad} rows not ok; {failed} failed operations over {len(a) + len(b)} runs")
    return 1 if bad or failed else 0


def check_names():
    wanted = {0: [m["name"] for m in SPEC["end_to_end"]],
              1: [m["name"] for m in SPEC["per_layer"]]}
    bad = 0
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            result, wall = run(w["name"], 7, trace, ["--quick"])
            got = list(result["metrics"])
            ok = got == wanted[trace] and result["correct"]
            bad += not ok
            print(f"{w['name']:<12} trace {trace} {wall:5.1f} s  {len(got)} metrics  "
                  f"{'ok' if ok else 'MISMATCH'}")
            for name in sorted(set(got) ^ set(wanted[trace])):
                print(f"    {name}: {'not in BENCHMARK.json' if name in got else 'not emitted'}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sets", nargs="*", help="two run sets to compare")
    ap.add_argument("--collect", metavar="OUT", help="run the benchmark and write a set")
    ap.add_argument("--seeds", type=int, default=10, help="seeds per workload (default 10)")
    ap.add_argument("--first-seed", type=int, default=1, help="first seed (default 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-names", action="store_true")
    args = ap.parse_args()
    if args.check_names:
        return check_names()
    if args.collect:
        return collect(args.collect, range(args.first_seed, args.first_seed + args.seeds),
                       args.trace)
    if len(args.sets) != 2:
        ap.error("give two run sets, or --collect, or --check-names")
    return compare(*args.sets)


if __name__ == "__main__":
    sys.exit(main())
