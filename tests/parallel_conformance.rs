//! Conformance suite for the parallel intervention runtime.
//!
//! The contract under test: for every scenario and both algorithms
//! (GRD = greedy Algorithm 1, GT = group testing Algorithms 2–3),
//! running on the parallel runtime at any `num_threads` produces an
//! explanation **bit-for-bit identical** to the serial oracle — same
//! PVTs, same malfunction scores, same intervention count (the
//! paper's Fig 7 currency), same decision digest, same repaired
//! dataset — at every `num_threads` in {1, 2, 8} crossed with every
//! `gt_speculation_depth` in {0, 1, 2, 4}. Only the cache counters
//! may differ, because scheduling decides which queries become hits
//! and how much lookahead goes to waste; the rendered markdown
//! report is likewise identical modulo that one documented
//! `- oracle cache:` counter line.

use dataprism::report::markdown_report;
use dataprism::{
    discovery::discriminative_pvts, fingerprint, Algorithm, Diagnosis, Explanation, PrismConfig,
    PrismError, Result, Source, System, SystemFactory,
};
use dp_frame::DataFrame;
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, synthetic, Scenario};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const DEPTHS: [usize; 4] = [0, 1, 2, 4];

/// The moderate-size case-study set: one constructor per scenario
/// module.
fn scenarios() -> Vec<Scenario> {
    vec![
        example1::scenario(),
        sentiment::scenario_with_size(240, 11),
        income::scenario_with_size(300, 7),
        cardio::scenario_with_size(300, 5),
        ezgo::scenario_with_size(400, 2),
        sensors::scenario_with_size(250, 4),
    ]
}

/// Strip the two report lines that are allowed to vary across runtime
/// configurations: the `- oracle cache:` hit/miss/speculation
/// counters and the `- run metrics:` summary derived from them, which
/// depend on scheduling (see the module doc of `dataprism::runtime`).
/// Everything else must match byte-for-byte.
fn normalize_report(report: &str) -> String {
    report
        .lines()
        .map(|line| {
            if line.starts_with("- oracle cache:") {
                "- oracle cache: <runtime-dependent counters>"
            } else if line.starts_with("- run metrics:") {
                "- run metrics: <runtime-dependent counters>"
            } else {
                line
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Assert two diagnosis outcomes are indistinguishable (ignoring
/// cache counters).
fn assert_identical(
    name: &str,
    threads: usize,
    serial: &Result<Explanation>,
    par: &Result<Explanation>,
) {
    match (serial, par) {
        (Ok(s), Ok(p)) => {
            assert_eq!(s.pvt_ids(), p.pvt_ids(), "{name}@{threads}: explanation set");
            assert_eq!(
                s.interventions, p.interventions,
                "{name}@{threads}: intervention count"
            );
            assert_eq!(
                s.initial_score.to_bits(),
                p.initial_score.to_bits(),
                "{name}@{threads}: initial score"
            );
            assert_eq!(
                s.final_score.to_bits(),
                p.final_score.to_bits(),
                "{name}@{threads}: final score"
            );
            assert_eq!(s.resolved, p.resolved, "{name}@{threads}: resolved flag");
            assert_eq!(s.digest(), p.digest(), "{name}@{threads}: digest");
            assert_eq!(
                fingerprint(&s.repaired),
                fingerprint(&p.repaired),
                "{name}@{threads}: repaired dataset"
            );
            assert_conserved(&format!("{name}/serial"), s);
            assert_conserved(&format!("{name}@{threads}"), p);
        }
        (Err(se), Err(pe)) => {
            assert_eq!(se, pe, "{name}@{threads}: error value");
        }
        (s, p) => panic!(
            "{name}@{threads}: serial and parallel disagree on success: serial {s:?} vs parallel {p:?}"
        ),
    }
}

/// Every charged query is exactly one of a cache hit or a cache miss;
/// re-asking a free baseline is neither.
fn assert_conserved(label: &str, exp: &Explanation) {
    let m = &exp.metrics;
    assert_eq!(
        m.cache_hits + m.cache_misses,
        m.charged_queries,
        "{label}: hit/miss conservation {m:?}"
    );
}

#[test]
fn greedy_is_runtime_invariant_on_all_case_studies() {
    // GRD leg of the matrix. `gt_speculation_depth` is a group-test
    // knob; the matrix verifies it is inert for greedy at every
    // width rather than assuming so.
    for mut scenario in scenarios() {
        let serial = Diagnosis::new(Algorithm::Greedy).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        for threads in THREAD_COUNTS {
            for depth in DEPTHS {
                let mut config = scenario.config.clone();
                config.num_threads = threads;
                config.gt_speculation_depth = depth;
                let par = Diagnosis::new(Algorithm::Greedy).run(
                    Source::Factory(scenario.factory.as_ref()),
                    &scenario.d_fail,
                    &scenario.d_pass,
                    &config,
                );
                assert_identical(scenario.name, threads, &serial, &par);
            }
        }
    }
}

#[test]
fn group_test_is_runtime_invariant_on_all_case_studies() {
    // GT leg of the matrix: every (num_threads, gt_speculation_depth)
    // cell reproduces the serial explanation bit-for-bit, and the
    // rendered report matches modulo the oracle-cache counter line.
    for mut scenario in scenarios() {
        let serial = Diagnosis::new(Algorithm::GroupTest).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        let serial_report = serial.as_ref().ok().map(|exp| {
            normalize_report(&markdown_report(
                exp,
                &scenario.d_pass,
                &scenario.d_fail,
                scenario.config.threshold,
                &scenario.config.discovery,
            ))
        });
        for threads in THREAD_COUNTS {
            for depth in DEPTHS {
                let mut config = scenario.config.clone();
                config.num_threads = threads;
                config.gt_speculation_depth = depth;
                let par = Diagnosis::new(Algorithm::GroupTest).run(
                    Source::Factory(scenario.factory.as_ref()),
                    &scenario.d_fail,
                    &scenario.d_pass,
                    &config,
                );
                assert_identical(scenario.name, threads, &serial, &par);
                if let (Some(expected), Ok(exp)) = (&serial_report, &par) {
                    let got = normalize_report(&markdown_report(
                        exp,
                        &scenario.d_pass,
                        &scenario.d_fail,
                        config.threshold,
                        &config.discovery,
                    ));
                    assert_eq!(
                        expected, &got,
                        "{}@{threads}t/d{depth}: report must match modulo cache line",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn random_partition_group_test_is_reproducible_across_widths() {
    // Regression test for the GrpTest baseline: `random_bisection`
    // draws from a per-node stream derived from `Config::seed` and
    // the candidate id set, so the Random partition strategy — the
    // paper's GrpTest comparison point — returns the same explanation
    // at every thread count and lookahead depth, and twice in a row.
    for mut scenario in scenarios() {
        let serial = Diagnosis::new(Algorithm::GrpTest).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        let again = Diagnosis::new(Algorithm::GrpTest).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        assert_identical(scenario.name, 1, &serial, &again);
        for threads in THREAD_COUNTS {
            for depth in DEPTHS {
                let mut config = scenario.config.clone();
                config.num_threads = threads;
                config.gt_speculation_depth = depth;
                let par = Diagnosis::new(Algorithm::GrpTest).run(
                    Source::Factory(scenario.factory.as_ref()),
                    &scenario.d_fail,
                    &scenario.d_pass,
                    &config,
                );
                assert_identical(scenario.name, threads, &serial, &par);
            }
        }
    }
}

#[test]
fn synthetic_pipelines_are_thread_count_invariant() {
    let cases: Vec<(&str, synthetic::SyntheticScenario)> = vec![
        ("single_cause", synthetic::single_cause(6, 8, 3)),
        ("interacting_cause", synthetic::interacting_cause(8, 3, 17)),
    ];
    for (name, mut sc) in cases {
        let factory = sc.factory();
        let serial_grd = Diagnosis::new(Algorithm::Greedy)
            .with_candidates(sc.pvts.clone())
            .run(
                Source::Borrowed(&mut sc.system),
                &sc.d_fail,
                &sc.d_pass,
                &sc.config,
            );
        let mut gt_system = sc.system.clone();
        let serial_gt = Diagnosis::new(Algorithm::GroupTest)
            .with_candidates(sc.pvts.clone())
            .run(
                Source::Borrowed(&mut gt_system),
                &sc.d_fail,
                &sc.d_pass,
                &sc.config,
            );
        for threads in THREAD_COUNTS {
            for depth in DEPTHS {
                let mut config = sc.config.clone();
                config.num_threads = threads;
                config.gt_speculation_depth = depth;
                let par_grd = Diagnosis::new(Algorithm::Greedy)
                    .with_candidates(sc.pvts.clone())
                    .run(Source::Factory(&factory), &sc.d_fail, &sc.d_pass, &config);
                assert_identical(name, threads, &serial_grd, &par_grd);
                let par_gt = Diagnosis::new(Algorithm::GroupTest)
                    .with_candidates(sc.pvts.clone())
                    .run(Source::Factory(&factory), &sc.d_fail, &sc.d_pass, &config);
                assert_identical(name, threads, &serial_gt, &par_gt);
            }
        }
    }
}

/// The wall-clock workloads of `gt_scaling --runtime-smoke` (the
/// Fig 8 m=200 suite and the §5.2 rank-54 pipeline), at one thread
/// vs eight with the scenario's own speculation depth: both
/// algorithms make identical decisions.
#[test]
fn fig8_and_rank54_workloads_are_thread_count_invariant() {
    let cases = [
        ("fig8 m=200", synthetic::single_cause(200, 200, 11)),
        ("rank-54", synthetic::adversarial_rank(54, 3)),
    ];
    for (name, sc) in cases {
        let factory = sc.factory();
        for algorithm in [Algorithm::Greedy, Algorithm::GroupTest] {
            let run = |threads| {
                let config = PrismConfig {
                    num_threads: threads,
                    ..sc.config.clone()
                };
                Diagnosis::new(algorithm)
                    .with_candidates(sc.pvts.clone())
                    .run(Source::Factory(&factory), &sc.d_fail, &sc.d_pass, &config)
            };
            let label = format!("{name}/{algorithm:?}");
            assert_identical(&label, 8, &run(1), &run(8));
        }
    }
}

#[test]
fn auto_is_thread_count_invariant() {
    // The auto strategy (GT, greedy fallback on A3 violation) must
    // take the same branch and return the same result at any width.
    for mut scenario in scenarios() {
        let serial = Diagnosis::new(Algorithm::Auto).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        for threads in THREAD_COUNTS {
            let mut config = scenario.config.clone();
            config.num_threads = threads;
            let par = Diagnosis::new(Algorithm::Auto).run(
                Source::Factory(scenario.factory.as_ref()),
                &scenario.d_fail,
                &scenario.d_pass,
                &config,
            );
            assert_identical(scenario.name, threads, &serial, &par);
        }
    }
}

#[test]
fn parallel_runs_actually_speculate() {
    // Sanity check that the parallel path is exercised: at width > 1
    // on a non-trivial scenario the workers must have performed at
    // least one speculative evaluation (otherwise the suite would
    // vacuously pass with a serial fallback).
    let scenario = income::scenario_with_size(300, 7);
    let mut config = scenario.config.clone();
    config.num_threads = 8;
    let exp = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Factory(scenario.factory.as_ref()),
            &scenario.d_fail,
            &scenario.d_pass,
            &config,
        )
        .unwrap();
    assert!(
        exp.metrics.speculative_evaluated > 0,
        "expected speculative work at 8 threads, got {:?}",
        exp.metrics
    );
}

#[test]
fn speculation_budget_is_bit_identical_to_unbounded() {
    // A frame budget changes how many speculative frames may be in
    // flight — never the serial replay — so every budgeted cell must
    // reproduce the serial explanation bit-for-bit, with and without
    // a (deliberately tight) bound.
    for mut scenario in scenarios() {
        let serial_gt = Diagnosis::new(Algorithm::GroupTest).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        let serial_grd = Diagnosis::new(Algorithm::Greedy).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        for threads in [2, 8] {
            for budget in [None, Some(4)] {
                let mut config = scenario.config.clone();
                config.num_threads = threads;
                config.gt_speculation_depth = 2;
                config.speculation_budget = budget;
                let gt = Diagnosis::new(Algorithm::GroupTest).run(
                    Source::Factory(scenario.factory.as_ref()),
                    &scenario.d_fail,
                    &scenario.d_pass,
                    &config,
                );
                assert_identical(scenario.name, threads, &serial_gt, &gt);
                let grd = Diagnosis::new(Algorithm::Greedy).run(
                    Source::Factory(scenario.factory.as_ref()),
                    &scenario.d_fail,
                    &scenario.d_pass,
                    &config,
                );
                assert_identical(scenario.name, threads, &serial_grd, &grd);
            }
        }
    }
}

/// Wraps a scenario factory so every system evaluation pays a fixed
/// injected latency — a stand-in for the paper's expensive retraining
/// pipelines.
struct SlowFactory<'a> {
    inner: &'a dyn SystemFactory,
    delay: Duration,
}

struct SlowSystem {
    inner: Box<dyn System + Send>,
    delay: Duration,
}

impl System for SlowSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        std::thread::sleep(self.delay);
        self.inner.malfunction(df)
    }
}

impl SystemFactory for SlowFactory<'_> {
    fn build(&self) -> Box<dyn System + Send> {
        Box::new(SlowSystem {
            inner: self.inner.build(),
            delay: self.delay,
        })
    }
}

#[test]
fn slow_oracle_keeps_inflight_frames_within_budget() {
    // Backpressure end to end: with a slow oracle and a tight frame
    // budget, in-flight speculative frames never exceed the bound
    // (budget queued/executing plus at most one unsheddable frame per
    // worker already mid-evaluation) and the explanation still
    // matches the serial run bit-for-bit.
    // (income rather than example1: group testing on example1 rejects
    // A3, which would end the run before any speculation happens.)
    let mut scenario = income::scenario_with_size(200, 7);
    let serial = Diagnosis::new(Algorithm::GroupTest).run(
        Source::Borrowed(scenario.system.as_mut()),
        &scenario.d_fail,
        &scenario.d_pass,
        &scenario.config,
    );
    let slow = SlowFactory {
        inner: scenario.factory.as_ref(),
        delay: Duration::from_millis(2),
    };
    let budget = 6;
    let threads = 4;
    let mut config = scenario.config.clone();
    config.num_threads = threads;
    config.gt_speculation_depth = 4;
    config.speculation_budget = Some(budget);
    let par = Diagnosis::new(Algorithm::GroupTest).run(
        Source::Factory(&slow),
        &scenario.d_fail,
        &scenario.d_pass,
        &config,
    );
    assert_identical(scenario.name, threads, &serial, &par);
    let exp = par.unwrap();
    assert!(
        exp.metrics.peak_inflight <= (budget + threads) as u64,
        "peak in-flight {} exceeded budget {budget} + {threads} workers",
        exp.metrics.peak_inflight
    );
}

#[test]
fn thread_count_does_not_leak_into_config_dependent_validation() {
    // num_threads must not perturb BadInput reporting either: a
    // passing dataset that fails validation produces the same error
    // text at every width.
    let scenario = example1::scenario();
    let mut config = PrismConfig::with_threshold(0.0); // d_pass can't pass
    config.discovery = scenario.config.discovery.clone();
    let mut errs = Vec::new();
    for threads in THREAD_COUNTS {
        config.num_threads = threads;
        let res = Diagnosis::new(Algorithm::Greedy).run(
            Source::Factory(scenario.factory.as_ref()),
            &scenario.d_fail,
            &scenario.d_pass,
            &config,
        );
        errs.push(res.expect_err("τ = 0 must reject d_pass"));
    }
    assert!(errs.windows(2).all(|w| w[0] == w[1]), "{errs:?}");
}

#[test]
fn bad_passing_dataset_is_reported_first_at_every_width() {
    // The opening scores both baselines and the first charged frames
    // at once, but validation still replays them in serial order. With
    // the inputs swapped, both baselines are wrong, and the error must
    // name the passing dataset at width 1 and width 2 alike. The
    // candidates come from the unswapped inputs, so the width-2
    // opening has frames to score.
    let scenario = income::scenario_with_size(200, 7);
    let pvts = discriminative_pvts(
        &scenario.d_pass,
        &scenario.d_fail,
        &scenario.config.discovery,
    );
    assert!(!pvts.is_empty());
    let (d_fail, d_pass) = (&scenario.d_pass, &scenario.d_fail);
    for threads in [1, 2] {
        let mut config = scenario.config.clone();
        config.num_threads = threads;
        let factory = scenario.factory.as_ref();
        let runs = [
            (
                "grd",
                Diagnosis::new(Algorithm::Greedy)
                    .with_candidates(pvts.clone())
                    .run(Source::Factory(factory), d_fail, d_pass, &config),
            ),
            (
                "gt",
                Diagnosis::new(Algorithm::GroupTest)
                    .with_candidates(pvts.clone())
                    .run(Source::Factory(factory), d_fail, d_pass, &config),
            ),
        ];
        for (algo, res) in runs {
            match res {
                Err(PrismError::BadInput(msg)) => assert!(
                    msg.starts_with("passing dataset"),
                    "{algo}@{threads}: {msg}"
                ),
                other => panic!("{algo}@{threads}: expected the D_pass BadInput, got {other:?}"),
            }
        }
    }
}

/// Holds each of the first `n` system evaluations until all `n` have
/// started, recording their fingerprints: a diagnosis gets past them
/// only if they run concurrently.
struct Gate {
    n: usize,
    arrived: Mutex<Vec<u64>>,
    all_in: Condvar,
    /// Set when an evaluation gave up waiting. The cap only keeps a
    /// serial opening from hanging the suite; the test then fails.
    gave_up: AtomicBool,
}

struct GatedFactory<'a> {
    inner: &'a dyn SystemFactory,
    gate: Arc<Gate>,
}

struct GatedSystem {
    inner: Box<dyn System + Send>,
    gate: Arc<Gate>,
}

impl System for GatedSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        let gate = &self.gate;
        let mut arrived = gate.arrived.lock().unwrap();
        if arrived.len() < gate.n {
            arrived.push(fingerprint(df));
            gate.all_in.notify_all();
            let (guard, wait) = gate
                .all_in
                .wait_timeout_while(arrived, Duration::from_secs(30), |a| a.len() < gate.n)
                .unwrap();
            if wait.timed_out() {
                gate.gave_up.store(true, Ordering::SeqCst);
            }
            arrived = guard;
        }
        drop(arrived);
        self.inner.malfunction(df)
    }
}

impl SystemFactory for GatedFactory<'_> {
    fn build(&self) -> Box<dyn System + Send> {
        Box::new(GatedSystem {
            inner: self.inner.build(),
            gate: Arc::clone(&self.gate),
        })
    }
}

#[test]
fn group_test_opening_scores_baselines_and_a3_concurrently() {
    // At width 2 the opening runs D_pass and D_fail on the pool and
    // the A3 composition on a sync worker: the first three evaluations
    // must all be in progress at once.
    let mut scenario = income::scenario_with_size(200, 7);
    let serial = Diagnosis::new(Algorithm::GroupTest).run(
        Source::Borrowed(scenario.system.as_mut()),
        &scenario.d_fail,
        &scenario.d_pass,
        &scenario.config,
    );
    let gate = Arc::new(Gate {
        n: 3,
        arrived: Mutex::new(Vec::new()),
        all_in: Condvar::new(),
        gave_up: AtomicBool::new(false),
    });
    let gated = GatedFactory {
        inner: scenario.factory.as_ref(),
        gate: Arc::clone(&gate),
    };
    let mut config = scenario.config.clone();
    config.num_threads = 2;
    let par = Diagnosis::new(Algorithm::GroupTest).run(
        Source::Factory(&gated),
        &scenario.d_fail,
        &scenario.d_pass,
        &config,
    );
    assert!(
        !gate.gave_up.load(Ordering::SeqCst),
        "the opening's three evaluations did not overlap"
    );
    let arrived = gate.arrived.lock().unwrap().clone();
    assert_eq!(arrived.len(), 3);
    assert!(
        arrived.contains(&fingerprint(&scenario.d_pass)),
        "{arrived:?}"
    );
    assert!(
        arrived.contains(&fingerprint(&scenario.d_fail)),
        "{arrived:?}"
    );
    let mut distinct = arrived.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 3, "one evaluation per frame: {arrived:?}");
    assert_identical(scenario.name, 2, &serial, &par);
}
