//! Wall-clock scaling of the parallel intervention runtime on the
//! Fig 8 synthetic workloads (pre-built discriminative PVTs, exactly
//! like the `fig8_scaling` harness), plus the §5.2 rank-54
//! adversarial pipeline from the same suite — the rejection-heavy
//! regime where speculative evaluation matters most.
//!
//! Each workload runs at `num_threads = 1` and `num_threads = 8` and
//! reports end-to-end wall clock, speedup, and intervention counts.
//! The conformance contract makes the comparison meaningful: both
//! runs perform *identical* interventions (asserted below), so the
//! speedup is pure runtime parallelism, never a different search.
//!
//! The system under diagnosis blocks for a fixed interval per
//! malfunction query, modeling the paper's setting where every
//! oracle query retrains a model (flair / scikit-learn pipelines
//! taking seconds to minutes, i.e. the diagnosis thread waits on an
//! external computation). Without it the synthetic system answers in
//! nanoseconds and no intervention runtime — serial or parallel —
//! would be measurable. Parallel speedup on the blocking interval is
//! exactly what a real deployment sees, and is also the only speedup
//! observable on a single-core host; on a multi-core host the
//! parallel profile discovery adds CPU-bound scaling on top.
//!
//! Usage: `cargo run --release -p dp-bench --bin parallel_scaling
//! [--threads N] [--query-cost-ms C]`

use dataprism::{Algorithm, Diagnosis, Explanation, Source, System};
use dp_bench::{arg_value, format_row};
use dp_frame::DataFrame;
use dp_scenarios::synthetic::{adversarial_rank, single_cause, SyntheticScenario, SyntheticSystem};
use std::time::{Duration, Instant};

/// A [`SyntheticSystem`] that blocks for a fixed interval per
/// malfunction query, standing in for the external model
/// (re)training of the paper's real systems under diagnosis.
#[derive(Clone)]
struct BlockingSystem {
    inner: SyntheticSystem,
    query_cost: Duration,
}

impl System for BlockingSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        std::thread::sleep(self.query_cost);
        self.inner.malfunction(df)
    }
}

fn run(
    technique: &str,
    scenario: &SyntheticScenario,
    query_cost: Duration,
    num_threads: usize,
) -> (f64, Explanation) {
    let base = BlockingSystem {
        inner: scenario.system.clone(),
        query_cost,
    };
    let factory = move || base.clone();
    let mut config = scenario.config.clone();
    config.num_threads = num_threads;
    let start = Instant::now();
    let algorithm = match technique {
        "GRD" => Algorithm::Greedy,
        "GT" => Algorithm::GroupTest,
        _ => unreachable!(),
    };
    let explanation = Diagnosis::new(algorithm)
        .with_candidates(scenario.pvts.clone())
        .run(
            Source::Factory(&factory),
            &scenario.d_fail,
            &scenario.d_pass,
            &config,
        )
        .expect("scaling workloads resolve");
    (start.elapsed().as_secs_f64(), explanation)
}

/// Every flag this binary takes.
const FLAGS: &[&str] = &["--threads", "--query-cost-ms"];

fn main() {
    let threads = arg_value(FLAGS, "--threads", 8);
    let query_cost = Duration::from_millis(arg_value(FLAGS, "--query-cost-ms", 25) as u64);

    let workloads: Vec<(String, &str, SyntheticScenario)> = vec![
        ("fig8 m=200".into(), "GRD", single_cause(200, 200, 11)),
        ("fig8 m=200".into(), "GT", single_cause(200, 200, 11)),
        ("sec5.2 rank-54".into(), "GRD", adversarial_rank(54, 3)),
        ("sec5.2 rank-54".into(), "GT", adversarial_rank(54, 3)),
    ];

    println!(
        "Parallel intervention runtime: {} ms blocking per oracle query,\n\
         num_threads 1 vs {threads}, pre-built discriminative PVTs\n",
        query_cost.as_millis()
    );
    let widths = [16, 10, 12, 14, 9, 11];
    println!(
        "{}",
        format_row(
            &[
                "workload".into(),
                "technique".into(),
                "serial s".into(),
                format!("{threads}-thread s"),
                "speedup".into(),
                "intervs".into(),
            ],
            &widths
        )
    );

    let mut best = f64::MIN;
    for (workload, technique, scenario) in &workloads {
        let (serial_s, serial) = run(technique, scenario, query_cost, 1);
        let (par_s, par) = run(technique, scenario, query_cost, threads);

        assert_eq!(
            serial.interventions, par.interventions,
            "{workload}/{technique}: thread count must not change the intervention count"
        );
        assert_eq!(
            serial.pvt_ids(),
            par.pvt_ids(),
            "{workload}/{technique}: thread count must not change the explanation"
        );
        assert_eq!(
            serial.trace, par.trace,
            "{workload}/{technique}: thread count must not change the trace"
        );

        let speedup = serial_s / par_s;
        best = best.max(speedup);
        println!(
            "{}",
            format_row(
                &[
                    workload.clone(),
                    (*technique).into(),
                    format!("{serial_s:.3}"),
                    format!("{par_s:.3}"),
                    format!("{speedup:.2}x"),
                    serial.interventions.to_string(),
                ],
                &widths
            )
        );
    }

    println!("\nbest speedup at {threads} threads: {best:.2}x");
    // The >= 2x gate is the acceptance bar for the default 8-thread
    // configuration (what CI runs); narrower widths legitimately top
    // out lower (e.g. --threads 2 caps at 2x minus overhead).
    if threads >= 8 {
        assert!(
            best >= 2.0,
            "parallel runtime must reach >= 2x at {threads} threads (got {best:.2}x)"
        );
    }
}
