//! Command line of the benchmark; see `README.md` beside this crate.
//!
//! ```text
//! addrspace-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Prints one row per metric (name, unit, reported value, median, quartiles,
//! counts), then
//! — as the last line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The full result, with every repeat,
//! goes to `bench/out/result-<workload>-trace<0|1>.json`, and a traced
//! run's spans to `bench/out/trace-<workload>.json`. Exits 1 when an output
//! was wrong, 2 on a usage error.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use addrspace_bench::alloc::CountingAlloc;
use addrspace_bench::harness::{run, Args, Outcome};
use addrspace_bench::spans;
use addrspace_bench::trace::{Workload, WORKLOADS};

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

/// Where results go, relative to the directory the command is run from
/// (the root of the checkout).
const OUT_DIR: &str = "bench/out";

fn usage(problem: &str) -> ExitCode {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "{problem}\nusage: addrspace-bench --workload <{}> [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--quick]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: 42,
        seconds: 15.0,
        trace: false,
        quick: false,
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::by_name(value).ok_or_else(bad)?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if named {
        Ok(args)
    } else {
        Err("--workload is required".into())
    }
}

/// First line of a command's output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and toolchain a result was measured on, as JSON members.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "\"nproc\":{nproc},\"cpu\":{:?},\"rustc\":{:?},\"git_commit\":{:?}",
        cpu,
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "HEAD"]),
    )
}

/// The last line of standard output: the result in the driver's format.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.reported, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

/// The full result: environment, arguments, every metric with quartiles
/// and counts, every repeat of every pass.
fn result_file(args: &Args, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},{},\n\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"outlier_repeats\":{},\n\"metrics\":{{\n",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        environment(),
        out.failed == 0,
        out.attempted,
        out.failed,
        out.outlier_repeats(),
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let comma = if i + 1 < out.metrics.len() { "," } else { "" };
        writeln!(
            s,
            "\"{}\":{{\"unit\":\"{}\",\"reported\":{},\"median\":{},\"d1\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"n\":{},\"samples\":{}}}{comma}",
            m.name,
            m.unit,
            m.reported,
            m.value.median,
            m.value.d1,
            m.value.q1,
            m.value.q3,
            m.value.min,
            m.value.max,
            m.value.n,
            m.samples
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("},\n\"passes\":{\n");
    for (i, p) in out.passes.iter().enumerate() {
        let repeats: Vec<String> = p
            .repeats
            .iter()
            .map(|r| {
                format!(
                    "{{\"wall_ns\":{},\"ops\":{},\"pending_before\":{},\"sync_ns\":{},\"outlier\":{}}}",
                    r.wall_ns,
                    r.tally.ops(),
                    r.pending_before,
                    r.sync_ns,
                    r.outlier
                )
            })
            .collect();
        let comma = if i + 1 < out.passes.len() { "," } else { "" };
        writeln!(s, "\"{}\":[{}]{comma}", p.name, repeats.join(","))
            .expect("writing to a String cannot fail");
    }
    s.push_str("}}\n");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let out = run(&args);

    println!(
        "{:<38} {:>6} {:>15} {:>15} {:>15} {:>15} {:>3} {:>9}",
        "metric", "unit", "reported", "median", "q1", "q3", "n", "samples"
    );
    for m in &out.metrics {
        println!(
            "{:<38} {:>6} {:>15.4} {:>15.4} {:>15.4} {:>15.4} {:>3} {:>9}",
            m.name,
            m.unit,
            m.reported,
            m.value.median,
            m.value.q1,
            m.value.q3,
            m.value.n,
            m.samples
        );
    }
    for pass in &out.passes {
        for (i, r) in pass.repeats.iter().enumerate().filter(|(_, r)| r.outlier) {
            eprintln!(
                "outlier: {} repeat {i} took {:.3} s with {} objects pending before it",
                pass.name,
                r.wall_ns / 1e9,
                r.pending_before
            );
        }
    }

    let trace = args.trace as u8;
    let name = args.workload.name;
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| {
            std::fs::write(
                format!("{OUT_DIR}/result-{name}-trace{trace}.json"),
                result_file(&args, &out),
            )
        })
        .and_then(|()| {
            if !args.trace {
                return Ok(());
            }
            std::fs::write(
                format!("{OUT_DIR}/trace-{name}.json"),
                spans::to_json(name, out.spans_dropped, &out.spans),
            )
        });
    if let Err(e) = written {
        eprintln!("cannot write results under {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }

    println!("{}", result_line(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} outputs were wrong", out.failed, out.attempted);
        ExitCode::from(1)
    }
}
