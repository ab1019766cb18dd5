//! Serving with a warm oracle cache: the `dp_serve` daemon
//! end-to-end, in one process.
//!
//! Starts the daemon on an ephemeral port, registers the income
//! scenario, and shows all three ways a diagnosis gets warm:
//!
//! 1. a **second request** against the same system namespace,
//! 2. a fresh namespace **warm-started from a JSONL trace** of a
//!    prior (here: in-process) run,
//! 3. a namespace **restored from a cache snapshot** of another.
//!
//! Every warm diagnosis is bit-identical to the cold one — same
//! `Explanation::digest` — it just re-evaluates the system less.
//!
//! Run with: `cargo run --release --example serving_warm_start`

use dataprism::{Algorithm, Diagnosis, Source, TraceConfig};
use dp_scenarios::income;
use dp_serve::{field_u64, is_ok, Client, ServeConfig, Server};
use dp_trace::to_jsonl;

fn main() -> std::io::Result<()> {
    let server = Server::start(ServeConfig::default())?;
    println!("daemon listening on {}", server.local_addr());
    let mut client = Client::connect(server.local_addr())?;

    // 1. Register + diagnose twice: the second request is served warm
    //    from the server-resident namespace.
    client.register("income", "income", None, None)?;
    let cold = client.diagnose("income", "greedy", None)?;
    let warm = client.diagnose("income", "greedy", None)?;
    assert!(is_ok(&cold) && is_ok(&warm));
    let digest = field_u64(&cold, "digest").unwrap();
    assert_eq!(field_u64(&warm, "digest"), Some(digest));
    println!(
        "cold:  digest {digest:#018x}, {} cache misses",
        field_u64(&cold, "cache_misses").unwrap()
    );
    println!(
        "warm:  digest {:#018x}, {} cache misses, {} warm hits",
        field_u64(&warm, "digest").unwrap(),
        field_u64(&warm, "cache_misses").unwrap(),
        field_u64(&warm, "warm_hits").unwrap()
    );

    // 2. Trace-warm a fresh namespace: replay a prior run's JSONL
    //    trace (every charged query carries fingerprint + score in
    //    exact encodings), then diagnose — warm on the *first*
    //    request.
    let scenario = income::scenario_with_size(300, 7);
    let mut config = scenario.config.clone();
    config.trace = TraceConfig::Collect;
    let traced = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Factory(scenario.factory.as_ref()),
            &scenario.d_fail,
            &scenario.d_pass,
            &config,
        )
        .expect("income resolves");
    client.register("income-replica", "income", None, None)?;
    let loaded = client.warm("income-replica", &to_jsonl(&traced.trace_records))?;
    let first = client.diagnose("income-replica", "greedy", None)?;
    assert_eq!(field_u64(&first, "digest"), Some(digest));
    println!(
        "trace: {} spans replayed, first diagnosis already {} warm hits, digest identical",
        field_u64(&loaded, "spans_loaded").unwrap(),
        field_u64(&first, "warm_hits").unwrap()
    );

    // 3. Snapshot one namespace, restore into another.
    let snapshot = client.snapshot("income")?;
    client.register("income-restored", "income", None, None)?;
    client.restore("income-restored", &snapshot)?;
    let restored = client.diagnose("income-restored", "greedy", None)?;
    assert_eq!(field_u64(&restored, "digest"), Some(digest));
    println!(
        "snap:  restored namespace served {} warm hits, digest identical",
        field_u64(&restored, "warm_hits").unwrap()
    );

    client.shutdown()?;
    server.join();
    println!("daemon drained and shut down cleanly");
    Ok(())
}
