//! Warm-vs-cold serving benchmark: what a server-resident score
//! cache buys a repeat diagnosis.
//!
//! For each case-study scenario, three GRD runs through the cached
//! entry point (`explain_greedy_parallel_cached`, the seam `dp_serve`
//! drives):
//!
//! * **cold** — empty seed cache (also collects the trace);
//! * **warm** — seeded with everything the cold run exported, i.e.
//!   the second request against the same `dp_serve` namespace;
//! * **trace** — seeded only from the cold run's JSONL trace replay
//!   (`ScoreCache::warm_from_jsonl`), i.e. a fresh server
//!   bootstrapped from a prior run's `--trace` artifact.
//!
//! All three are asserted bit-identical (same `Explanation::digest`)
//! — the speedup is pure evaluation reuse, never a different search.
//! As in `parallel_scaling`, each oracle query blocks for a fixed
//! interval standing in for the external model (re)training of the
//! paper's real systems; the wall-clock ratio is what a deployment
//! with seconds-per-query systems sees.
//!
//! Usage: `cargo run --release -p dp-bench --bin warm_cache
//! [--threads N] [--query-cost-ms C]`

use dataprism::{
    explain_greedy_parallel_cached, Explanation, PrismConfig, ScoreCache, System, SystemFactory,
    TraceConfig,
};
use dp_bench::{arg_value, format_row};
use dp_frame::DataFrame;
use dp_scenarios::{cardio, example1, income};
use dp_trace::to_jsonl;
use std::time::{Duration, Instant};

/// Wraps a scenario's system so every malfunction query blocks for a
/// fixed interval (the stand-in for external model retraining).
struct BlockingSystem {
    inner: Box<dyn System + Send>,
    query_cost: Duration,
}

impl System for BlockingSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        std::thread::sleep(self.query_cost);
        self.inner.malfunction(df)
    }
}

struct BlockingFactory {
    inner: Box<dyn SystemFactory + Send + Sync>,
    query_cost: Duration,
}

impl SystemFactory for BlockingFactory {
    fn build(&self) -> Box<dyn System + Send> {
        Box::new(BlockingSystem {
            inner: self.inner.build(),
            query_cost: self.query_cost,
        })
    }
}

/// Actual system invocations a run paid for: charged misses plus
/// speculative evaluations.
fn evaluations(exp: &Explanation) -> u64 {
    exp.metrics.cache_misses + exp.metrics.speculative_evaluated
}

fn run(
    factory: &BlockingFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    base_config: &PrismConfig,
    threads: usize,
    collect_trace: bool,
    cache: &mut ScoreCache,
) -> (f64, Explanation) {
    let mut config = base_config.clone();
    config.num_threads = threads;
    if collect_trace {
        config.trace = TraceConfig::Collect;
    }
    let start = Instant::now();
    let exp = explain_greedy_parallel_cached(factory, d_fail, d_pass, &config, cache)
        .expect("case studies resolve");
    (start.elapsed().as_secs_f64(), exp)
}

fn main() {
    let threads = arg_value("--threads", 8);
    let query_cost = Duration::from_millis(arg_value("--query-cost-ms", 10) as u64);

    let scenarios = vec![
        example1::scenario(),
        income::scenario_with_size(300, 7),
        cardio::scenario_with_size(300, 5),
    ];

    println!(
        "Warm-vs-cold serving cache: {} ms blocking per oracle query, {threads} threads, GRD\n",
        query_cost.as_millis()
    );
    let widths = [26, 8, 8, 8, 9, 9, 10, 9];
    println!(
        "{}",
        format_row(
            &[
                "scenario".into(),
                "cold s".into(),
                "warm s".into(),
                "trace s".into(),
                "cold ev".into(),
                "warm ev".into(),
                "warm hits".into(),
                "speedup".into(),
            ],
            &widths
        )
    );

    let mut best = f64::MIN;
    for scenario in scenarios {
        let name = scenario.name;
        let (d_pass, d_fail, config) = (scenario.d_pass, scenario.d_fail, scenario.config);
        let factory = BlockingFactory {
            inner: scenario.factory,
            query_cost,
        };

        // Cold: empty namespace; the export stays in `namespace` —
        // exactly what a `dp_serve` system accumulates.
        let mut namespace = ScoreCache::new();
        let (cold_s, cold) = run(
            &factory,
            &d_fail,
            &d_pass,
            &config,
            threads,
            true,
            &mut namespace,
        );
        // Warm: the second request against the same namespace.
        let (warm_s, warm) = run(
            &factory,
            &d_fail,
            &d_pass,
            &config,
            threads,
            false,
            &mut namespace,
        );
        // Trace-warmed: a fresh namespace bootstrapped from the cold
        // run's JSONL trace.
        let mut replayed = ScoreCache::new();
        replayed
            .warm_from_jsonl(&to_jsonl(&cold.trace_records))
            .expect("own trace must replay");
        let (trace_s, traced) = run(
            &factory,
            &d_fail,
            &d_pass,
            &config,
            threads,
            false,
            &mut replayed,
        );

        for (leg, exp) in [("warm", &warm), ("trace", &traced)] {
            assert_eq!(
                cold.digest(),
                exp.digest(),
                "{name}/{leg}: warmth must not change the explanation"
            );
            assert!(
                evaluations(exp) < evaluations(&cold),
                "{name}/{leg}: warm run must re-evaluate strictly less"
            );
            assert!(exp.metrics.warm_hits > 0, "{name}/{leg}: no warm hits?");
        }

        let speedup = cold_s / warm_s;
        best = best.max(speedup);
        println!(
            "{}",
            format_row(
                &[
                    name.into(),
                    format!("{cold_s:.3}"),
                    format!("{warm_s:.3}"),
                    format!("{trace_s:.3}"),
                    evaluations(&cold).to_string(),
                    evaluations(&warm).to_string(),
                    warm.metrics.warm_hits.to_string(),
                    format!("{speedup:.2}x"),
                ],
                &widths
            )
        );
    }

    println!("\nbest warm-over-cold speedup: {best:.2}x");
    assert!(
        best > 1.0,
        "a warm namespace must beat a cold one when queries cost real time (got {best:.2}x)"
    );
}
