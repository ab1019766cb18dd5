//! The `dp_serve` daemon binary.
//!
//! ```text
//! dp_serve [--addr HOST:PORT] [--max-inflight N] [--max-queue N]
//!          [--budget-bytes N] [--snapshot-dir DIR] [--frame-budget N]
//! dp_serve --smoke
//! ```
//!
//! `--smoke` runs an end-to-end self-check instead of serving:
//! start on an ephemeral port, register the income scenario, run two
//! diagnoses, and verify the second one was served warm from the
//! server-resident cache with a bit-identical explanation and left
//! the namespace's `prefilter_pairs_total` and
//! `candidates_prepared_total` unchanged (discovery and the
//! lint-and-rank pass run once, at `register`).

use dp_serve::{field_u64, is_ok, Client, ServeConfig, Server};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: dp_serve [--addr HOST:PORT] [--max-inflight N] [--max-queue N]\n                [--budget-bytes N] [--snapshot-dir DIR] [--frame-budget N] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> (ServeConfig, bool) {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7717".to_string(),
        ..ServeConfig::default()
    };
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--max-inflight" => {
                config.max_inflight = value("--max-inflight").parse().unwrap_or_else(|_| usage())
            }
            "--max-queue" => {
                config.max_queue = value("--max-queue").parse().unwrap_or_else(|_| usage())
            }
            "--budget-bytes" => {
                config.budget_bytes = value("--budget-bytes").parse().unwrap_or_else(|_| usage())
            }
            "--snapshot-dir" => config.snapshot_dir = Some(value("--snapshot-dir").into()),
            "--frame-budget" => {
                config.speculation_budget =
                    Some(value("--frame-budget").parse().unwrap_or_else(|_| usage()))
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    (config, smoke)
}

fn smoke_test() -> Result<(), String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::start(config).map_err(|e| format!("start: {e}"))?;
    let addr = server.local_addr();
    println!("dp_serve smoke: listening on {addr}");

    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let pong = client.ping().map_err(|e| format!("ping: {e}"))?;
    if !is_ok(&pong) {
        return Err("ping not ok".to_string());
    }

    let reg = client
        .register("income", "income", None, None)
        .map_err(|e| format!("register: {e}"))?;
    if !is_ok(&reg) {
        return Err(format!("register failed: {reg:?}"));
    }

    let cold = client
        .diagnose("income", "greedy", None)
        .map_err(|e| format!("diagnose (cold): {e}"))?;
    if !is_ok(&cold) {
        return Err(format!("cold diagnosis failed: {cold:?}"));
    }
    let before = work_totals(&mut client)?;
    let warm = client
        .diagnose("income", "greedy", None)
        .map_err(|e| format!("diagnose (warm): {e}"))?;
    if !is_ok(&warm) {
        return Err(format!("warm diagnosis failed: {warm:?}"));
    }
    // Discovery and preparation ran once, at `register`: a diagnosis
    // tests no pair and lints no candidate.
    let after = work_totals(&mut client)?;
    for ((name, was), (_, is)) in before.iter().zip(&after) {
        if *was == 0 || is != was {
            return Err(format!(
                "{name} went from {was} to {is} over a warm diagnosis"
            ));
        }
    }
    let [(_, pairs_after), (_, prepared)] = after;

    let cold_digest = field_u64(&cold, "digest").ok_or("cold digest missing")?;
    let warm_digest = field_u64(&warm, "digest").ok_or("warm digest missing")?;
    if cold_digest != warm_digest {
        return Err(format!(
            "explanations diverged: cold digest {cold_digest}, warm digest {warm_digest}"
        ));
    }
    let warm_hits = field_u64(&warm, "warm_hits").ok_or("warm_hits missing")?;
    if warm_hits == 0 {
        return Err("second diagnosis reported no warm cache hits".to_string());
    }
    let cold_misses = field_u64(&cold, "cache_misses").ok_or("cache_misses missing")?;
    let warm_misses = field_u64(&warm, "cache_misses").ok_or("cache_misses missing")?;
    // The cold run's own misses depend on how its speculation was
    // scheduled (they can reach 0); the warm run must answer every
    // charged query from the namespace whatever happened.
    if warm_misses != 0 {
        return Err(format!(
            "warm run still evaluated: {warm_misses} misses (cold: {cold_misses})"
        ));
    }
    println!(
        "dp_serve smoke: digest {cold_digest:#018x} identical; warm run {warm_hits} warm hits, {warm_misses} misses (cold: {cold_misses}); {pairs_after} discovery pairs and {prepared} prepared candidates, all at register"
    );

    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    server.join();
    println!("dp_serve smoke: OK");
    Ok(())
}

/// The `income` namespace's `prefilter_pairs_total` and
/// `candidates_prepared_total` from `stats`.
fn work_totals(client: &mut Client) -> Result<[(&'static str, u64); 2], String> {
    let stats = client
        .stats(Some("income"))
        .map_err(|e| format!("stats: {e}"))?;
    let total = |name: &'static str| {
        field_u64(&stats, name)
            .map(|n| (name, n))
            .ok_or_else(|| format!("stats lacks {name}: {stats:?}"))
    };
    Ok([
        total("prefilter_pairs_total")?,
        total("candidates_prepared_total")?,
    ])
}

fn main() -> ExitCode {
    let (config, smoke) = parse_args();
    if smoke {
        return match smoke_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dp_serve smoke: FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dp_serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("dp_serve: listening on {}", server.local_addr());
    // Serve until a client sends the `shutdown` op.
    server.join();
    println!("dp_serve: shut down");
    ExitCode::SUCCESS
}
