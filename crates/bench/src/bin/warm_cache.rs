//! Warm-vs-cold serving benchmark: what a server-resident score
//! cache buys a repeat diagnosis.
//!
//! For each case-study scenario and each algorithm (GRD greedy, GT
//! group testing), three runs of a `Diagnosis` with a cache (the seam
//! `dp_serve` drives):
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
//! with seconds-per-query systems sees. The table also prints the
//! candidate frames each cold and warm run built: a warm run scores
//! its charged compositions by intent key, so a warm GT run builds
//! little beyond its leaves (the exact count at one thread is pinned
//! in `tests/intent_cache.rs`) and a warm GRD run builds exactly the
//! picks it keeps and the Make-Minimal drops it accepts, which is
//! asserted here. GT refuses example1 and cardio at its A3 check (the
//! paper's NA cells); those rows print `NA`.
//!
//! Usage: `cargo run --release -p dp-bench --bin warm_cache
//! [--threads N] [--query-cost-ms C]`

use dataprism::{
    Algorithm, Diagnosis, Event, Explanation, PrismConfig, PrismError, ScoreCache, Source, System,
    SystemFactory, TraceConfig,
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

/// The table label of an algorithm.
fn short_name(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::Greedy => "GRD",
        _ => "GT",
    }
}

/// One diagnosis through the cached entry point; `None` for GT's A3
/// refusal.
#[allow(clippy::too_many_arguments)]
fn run(
    algo: Algorithm,
    factory: &BlockingFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    base_config: &PrismConfig,
    threads: usize,
    collect_trace: bool,
    cache: &mut ScoreCache,
) -> Option<(f64, Explanation)> {
    let mut config = base_config.clone();
    config.num_threads = threads;
    if collect_trace {
        config.trace = TraceConfig::Collect;
    }
    let start = Instant::now();
    let result = Diagnosis::new(algo).with_cache(cache).run(
        Source::Factory(factory),
        d_fail,
        d_pass,
        &config,
    );
    match result {
        Ok(exp) => Some((start.elapsed().as_secs_f64(), exp)),
        Err(PrismError::AssumptionViolated(_)) if algo == Algorithm::GroupTest => None,
        Err(e) => panic!("{}: case studies resolve: {e}", short_name(algo)),
    }
}

/// Every flag this binary takes.
const FLAGS: &[&str] = &["--threads", "--query-cost-ms"];

fn main() {
    let threads = arg_value(FLAGS, "--threads", 8);
    let query_cost = Duration::from_millis(arg_value(FLAGS, "--query-cost-ms", 10) as u64);

    let scenarios = vec![
        example1::scenario(),
        income::scenario_with_size(300, 7),
        cardio::scenario_with_size(300, 5),
    ];

    println!(
        "Warm-vs-cold serving cache: {} ms blocking per oracle query, {threads} threads\n",
        query_cost.as_millis()
    );
    let widths = [26, 4, 8, 8, 8, 9, 9, 10, 9, 9, 8];
    println!(
        "{}",
        format_row(
            &[
                "scenario".into(),
                "alg".into(),
                "cold s".into(),
                "warm s".into(),
                "trace s".into(),
                "cold ev".into(),
                "warm ev".into(),
                "warm hits".into(),
                "cold fr".into(),
                "warm fr".into(),
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
        for algo in [Algorithm::Greedy, Algorithm::GroupTest] {
            let run = |collect_trace, cache: &mut ScoreCache| {
                run(
                    algo,
                    &factory,
                    &d_fail,
                    &d_pass,
                    &config,
                    threads,
                    collect_trace,
                    cache,
                )
            };
            // Cold: empty namespace; the export stays in `namespace` —
            // exactly what a `dp_serve` system accumulates.
            let mut namespace = ScoreCache::new();
            let Some((cold_s, cold)) = run(true, &mut namespace) else {
                let mut na = vec![name.to_string(), short_name(algo).into()];
                na.extend(std::iter::repeat_n("NA".to_string(), widths.len() - 2));
                println!("{}", format_row(&na, &widths));
                continue;
            };
            // Warm: the second request against the same namespace.
            let (warm_s, warm) = run(false, &mut namespace).expect("warm run resolves as cold");
            // Trace-warmed: a fresh namespace bootstrapped from the
            // cold run's JSONL trace.
            let mut replayed = ScoreCache::new();
            replayed
                .warm_from_jsonl(&to_jsonl(&cold.trace_records))
                .expect("own trace must replay");
            let (trace_s, traced) = run(false, &mut replayed).expect("trace run resolves as cold");

            let label = format!("{name}/{}", short_name(algo));
            for (leg, exp) in [("warm", &warm), ("trace", &traced)] {
                assert_eq!(
                    cold.digest(),
                    exp.digest(),
                    "{label}/{leg}: warmth must not change the explanation"
                );
                assert!(
                    evaluations(exp) < evaluations(&cold),
                    "{label}/{leg}: warm run must re-evaluate strictly less"
                );
                assert!(exp.metrics.warm_hits > 0, "{label}/{leg}: no warm hits?");
            }
            if algo == Algorithm::Greedy {
                // The frames a warm greedy run carries forward, read off
                // the cold run's trail (the same decisions).
                let carried = cold
                    .trace_records
                    .iter()
                    .filter(|r| {
                        matches!(
                            r.event,
                            Event::Intervention { kept: true, .. } | Event::MinimalityDrop { .. }
                        )
                    })
                    .count() as u64;
                assert_eq!(
                    warm.metrics.frames_built, carried,
                    "{label}/warm: a warm greedy run builds only the picks it keeps and the drops it accepts"
                );
            }

            let speedup = cold_s / warm_s;
            best = best.max(speedup);
            println!(
                "{}",
                format_row(
                    &[
                        name.into(),
                        short_name(algo).into(),
                        format!("{cold_s:.3}"),
                        format!("{warm_s:.3}"),
                        format!("{trace_s:.3}"),
                        evaluations(&cold).to_string(),
                        evaluations(&warm).to_string(),
                        warm.metrics.warm_hits.to_string(),
                        cold.metrics.frames_built.to_string(),
                        warm.metrics.frames_built.to_string(),
                        format!("{speedup:.2}x"),
                    ],
                    &widths
                )
            );
        }
    }

    println!("\nbest warm-over-cold speedup: {best:.2}x");
    assert!(
        best > 1.0,
        "a warm namespace must beat a cold one when queries cost real time (got {best:.2}x)"
    );
}
