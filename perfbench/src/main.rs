//! `perfbench` — the DataPrism benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <blocking_system|serve_warm> \
//!     --seed <n> --seconds <s> [--trace <0|1>]
//! ```
//!
//! One process runs one workload as a closed loop with a single
//! caller. It prints a human-readable summary and, as the last line
//! of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones from a traced run, and its spans are written to
//! `perfbench/spans/<workload>-<seed>.jsonl`. A failed operation or a
//! wrong output makes `correct` false and the exit code 1.
//!
//! A CPU-bound workload reports its end-to-end times as on a reference
//! host: the untraced run times a fixed benchmark-owned kernel after
//! every cycle and divides the times by how much slower than nominal
//! the kernel ran (see `reference`). The shared host this benchmark
//! targets drifts in speed from minute to minute; the scaling keeps
//! that drift out of the comparison of two versions of the library.
//! The unscaled figures go to standard error.

mod adapter;
mod cli;
mod procstat;
mod reference;
mod runner;
mod spans;
mod stats;
mod workloads;

use cli::Workload;
use std::process::ExitCode;

fn build(w: Workload) -> fn() -> Result<Box<dyn runner::Workload>, String> {
    match w {
        Workload::BlockingSystem => workloads::blocking_system,
        Workload::ServeWarm => workloads::serve_warm,
    }
}

/// Whether a workload's wall time is CPU time, so that its times are
/// scaled to the reference host (see `reference`). The blocking
/// system's time is mostly sleeping, which a slow host does not
/// stretch.
fn cpu_bound(w: Workload) -> bool {
    match w {
        Workload::BlockingSystem => false,
        Workload::ServeWarm => true,
    }
}

fn json_line(report: &runner::Report) -> Result<String, String> {
    let mut fields = Vec::new();
    // `error_rate` is printed in the summary; the JSON line carries it
    // as `failed` / `attempted`.
    for (name, value, unit) in report.metrics.iter().filter(|m| m.0 != "error_rate") {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(",")
    ))
}

fn main() -> ExitCode {
    let argv = std::env::args_os().skip(1);
    let args = match cli::parse(argv.map(|a| a.to_string_lossy().into_owned())) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let report = if args.trace {
        let path = std::path::PathBuf::from(format!("perfbench/spans/{name}-{}.jsonl", args.seed));
        runner::run_traced(build(args.workload), args.seed, args.seconds, &path)
    } else {
        runner::run_untraced(
            build(args.workload),
            args.seed,
            args.seconds,
            cpu_bound(args.workload),
        )
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    let summary: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| format!("{n}={v:.4} {u}"))
        .collect();
    println!("{name} seed={}: {}", args.seed, summary.join(", "));
    match json_line(&report) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
