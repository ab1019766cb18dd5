//! Differential suite for the confidence-bounded sampled oracle.
//!
//! The contract under test: `PrismConfig::oracle_sampling` is an
//! **observation-preserving** optimization. For every scenario, both
//! algorithms (GRD/GT), and every thread count, a run under
//! `OracleSampling::Bounded` produces an explanation bit-for-bit
//! identical to `OracleSampling::Off` — same PVTs, scores, trace,
//! intervention count, and repaired-dataset fingerprint. Only the
//! cache/metrics counters may differ (a settled sampled decision is
//! neither a hit nor a miss).
//!
//! Targeted tests pin the decision procedure itself: confident FAILs
//! settle on a stratified sample without touching the full dataset,
//! verdicts near the threshold escalate (the Hoeffding band refuses
//! to decide the boundary), and passing verdicts always escalate so
//! their exact score survives.

use dataprism::report::markdown_report;
use dataprism::{
    explain_greedy, explain_greedy_parallel, explain_group_test, explain_group_test_parallel,
    fingerprint, Explanation, Oracle, OracleSampling, PartitionStrategy, Result,
};
use dp_frame::{Column, DataFrame};
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, Scenario};

const THREAD_COUNTS: [usize; 2] = [1, 8];

fn bounded() -> OracleSampling {
    OracleSampling::Bounded { confidence: 0.95 }
}

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

/// Strip the runtime-dependent counter lines (see
/// `tests/parallel_conformance.rs`): sampling legitimately changes
/// hit/miss/settled counts, never anything else in the report.
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

fn assert_identical(
    name: &str,
    cell: &str,
    reference: &Result<Explanation>,
    got: &Result<Explanation>,
) {
    match (reference, got) {
        (Ok(s), Ok(p)) => {
            assert_eq!(s.digest(), p.digest(), "{name}@{cell}: explanation digest");
            assert_eq!(s.pvt_ids(), p.pvt_ids(), "{name}@{cell}: explanation set");
            assert_eq!(
                s.interventions, p.interventions,
                "{name}@{cell}: intervention count"
            );
            assert_eq!(
                s.final_score.to_bits(),
                p.final_score.to_bits(),
                "{name}@{cell}: final score"
            );
            assert_eq!(s.trace, p.trace, "{name}@{cell}: trace");
            assert_eq!(
                fingerprint(&s.repaired),
                fingerprint(&p.repaired),
                "{name}@{cell}: repaired dataset"
            );
        }
        (Err(se), Err(pe)) => assert_eq!(se, pe, "{name}@{cell}: error value"),
        (s, p) => {
            panic!("{name}@{cell}: sampled and full runs disagree on success: {s:?} vs {p:?}")
        }
    }
}

#[test]
fn sampling_is_explanation_invariant_for_greedy() {
    for mut scenario in scenarios() {
        let reference = explain_greedy(
            scenario.system.as_mut(),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        let mut serial_cfg = scenario.config.clone();
        serial_cfg.oracle_sampling = bounded();
        let sampled_serial = explain_greedy(
            scenario.system.as_mut(),
            &scenario.d_fail,
            &scenario.d_pass,
            &serial_cfg,
        );
        assert_identical(
            scenario.name,
            "grd/serial/bounded",
            &reference,
            &sampled_serial,
        );
        for threads in THREAD_COUNTS {
            for sampling in [OracleSampling::Off, bounded()] {
                let mut config = scenario.config.clone();
                config.num_threads = threads;
                config.oracle_sampling = sampling;
                let par = explain_greedy_parallel(
                    scenario.factory.as_ref(),
                    &scenario.d_fail,
                    &scenario.d_pass,
                    &config,
                );
                let cell = format!("grd/{threads}t/{sampling:?}");
                assert_identical(scenario.name, &cell, &reference, &par);
            }
        }
    }
}

#[test]
fn sampling_is_explanation_invariant_for_group_test() {
    for mut scenario in scenarios() {
        let reference = explain_group_test(
            scenario.system.as_mut(),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
            PartitionStrategy::MinBisection,
        );
        let reference_report = reference.as_ref().ok().map(|exp| {
            normalize_report(&markdown_report(
                exp,
                &scenario.d_pass,
                &scenario.d_fail,
                scenario.config.threshold,
                &scenario.config.discovery,
            ))
        });
        let mut serial_cfg = scenario.config.clone();
        serial_cfg.oracle_sampling = bounded();
        let sampled_serial = explain_group_test(
            scenario.system.as_mut(),
            &scenario.d_fail,
            &scenario.d_pass,
            &serial_cfg,
            PartitionStrategy::MinBisection,
        );
        assert_identical(
            scenario.name,
            "gt/serial/bounded",
            &reference,
            &sampled_serial,
        );
        if let (Some(expected), Ok(exp)) = (&reference_report, &sampled_serial) {
            let got = normalize_report(&markdown_report(
                exp,
                &scenario.d_pass,
                &scenario.d_fail,
                serial_cfg.threshold,
                &serial_cfg.discovery,
            ));
            assert_eq!(
                expected, &got,
                "{}: sampled report must match modulo counter lines",
                scenario.name
            );
        }
        for threads in THREAD_COUNTS {
            for sampling in [OracleSampling::Off, bounded()] {
                let mut config = scenario.config.clone();
                config.num_threads = threads;
                config.oracle_sampling = sampling;
                let par = explain_group_test_parallel(
                    scenario.factory.as_ref(),
                    &scenario.d_fail,
                    &scenario.d_pass,
                    &config,
                    PartitionStrategy::MinBisection,
                );
                let cell = format!("gt/{threads}t/{sampling:?}");
                assert_identical(scenario.name, &cell, &reference, &par);
            }
        }
    }
}

/// `rows`-row frame with exactly `bad` flagged rows spread evenly
/// across the index range, so any stratified sample's flagged
/// fraction tracks `bad / rows` closely.
fn flagged_frame(rows: usize, bad: usize) -> DataFrame {
    let vals = (0..rows)
        .map(|i| Some((((i + 1) * bad / rows) > (i * bad / rows)) as i64))
        .collect();
    DataFrame::from_columns(vec![Column::from_ints("flag", vals)]).unwrap()
}

/// Malfunction = flagged fraction of the queried frame.
fn flagged_fraction(df: &DataFrame) -> f64 {
    let col = df.column("flag").unwrap();
    let flagged = (0..col.len())
        .filter(|&i| col.get(i) == dp_frame::Value::Int(1))
        .count();
    flagged as f64 / df.n_rows().max(1) as f64
}

#[test]
fn confident_fail_settles_on_a_sample() {
    // 90% flagged vs τ = 0.2: the very first 64-row probe puts the
    // estimate far outside the Hoeffding band, so the verdict settles
    // without ever scoring the full 4096 rows.
    let df = flagged_frame(4096, 3686);
    let mut evals: Vec<usize> = Vec::new();
    let mut system = |d: &DataFrame| {
        evals.push(d.n_rows());
        flagged_fraction(d)
    };
    let mut oracle = Oracle::new(&mut system, 0.2, 100).with_sampling(bounded(), 42);
    let (passes, score) = oracle.decide(&df);
    assert!(!passes, "90% flagged must fail at τ = 0.2");
    assert!(score.is_none(), "settled decisions carry no exact score");
    let m = oracle.run_metrics();
    assert_eq!(m.sampled_queries, 1);
    assert_eq!(m.escalations, 0);
    assert_eq!(m.rows_touched, 64, "one 64-row probe should suffice");
    assert_eq!(m.charged_queries, 1, "the act of asking is still charged");
    assert_eq!(m.cache_hits + m.cache_misses, 0, "no full evaluation");
    let span = oracle
        .last_sampled_query()
        .expect("settled decision recorded");
    assert_eq!(span.fingerprint, fingerprint(&df));
    assert_eq!(span.rows, 64);
    assert_eq!(span.total_rows, 4096);
    assert!(span.estimate > 0.2 + 0.169, "estimate clears the band");
    drop(oracle);
    assert_eq!(evals, vec![64], "the system only ever saw the sample");
}

#[test]
fn settled_verdicts_are_cached_per_fingerprint() {
    let df = flagged_frame(4096, 3686);
    let mut system = flagged_fraction;
    let mut oracle = Oracle::new(&mut system, 0.2, 100).with_sampling(bounded(), 42);
    let first = oracle.decide(&df);
    let second = oracle.decide(&df);
    assert_eq!(first, second);
    let m = oracle.run_metrics();
    assert_eq!(m.sampled_queries, 2, "both queries settled (and charged)");
    assert_eq!(m.charged_queries, 2);
    assert_eq!(
        m.rows_touched, 64,
        "the repeat re-used the verdict, scoring no rows"
    );
}

/// The boundary-case generator: flagged fractions inside the
/// confidence band of τ = 0.5 at every sample size, so sampling must
/// refuse to decide and escalate to a bit-exact full evaluation.
#[test]
fn boundary_scores_escalate_to_full_evaluation() {
    // ε(4096) = sqrt(ln(40)/8192) ≈ 0.0212: every fraction within
    // ~0.02 of τ sits inside the band even for a full-frame probe.
    for bad in [2048usize - 60, 2048, 2048 + 60] {
        let df = flagged_frame(4096, bad);
        let exact = bad as f64 / 4096.0;
        let mut system = flagged_fraction;
        let mut oracle = Oracle::new(&mut system, 0.5, 100).with_sampling(bounded(), 42);
        let (passes, score) = oracle.decide(&df);
        assert_eq!(passes, exact <= 0.5, "bad = {bad}");
        assert_eq!(score, Some(exact), "escalation returns the exact score");
        let m = oracle.run_metrics();
        assert_eq!(m.sampled_queries, 0, "bad = {bad}: nothing settled");
        assert_eq!(m.escalations, 1, "bad = {bad}: the boundary escalated");
        assert_eq!(m.cache_misses, 1, "the full evaluation really ran");
        assert!(m.rows_touched >= 64, "escalation still paid for its probes");
    }
}

#[test]
fn confident_pass_escalates_for_the_exact_score() {
    // 2% flagged vs τ = 0.5: the first probe is confidently on the
    // PASS side — but passing decisions feed exact scores downstream
    // (greedy composes them, Make-Minimal adopts them), so the
    // decision must escalate rather than settle.
    let df = flagged_frame(4096, 82);
    let mut system = flagged_fraction;
    let mut oracle = Oracle::new(&mut system, 0.5, 100).with_sampling(bounded(), 42);
    let (passes, score) = oracle.decide(&df);
    assert!(passes);
    assert_eq!(score, Some(82.0 / 4096.0));
    let m = oracle.run_metrics();
    assert_eq!(m.sampled_queries, 0);
    assert_eq!(m.escalations, 1);
}

#[test]
fn small_frames_never_sample() {
    // 100 rows < the 128-row eligibility floor: decide degenerates to
    // intervene + passes with no sampling bookkeeping at all.
    let df = flagged_frame(100, 90);
    let mut system = flagged_fraction;
    let mut oracle = Oracle::new(&mut system, 0.2, 100).with_sampling(bounded(), 42);
    let (passes, score) = oracle.decide(&df);
    assert!(!passes);
    assert_eq!(score, Some(0.9));
    let m = oracle.run_metrics();
    assert_eq!(
        (m.sampled_queries, m.escalations, m.rows_touched),
        (0, 0, 0)
    );
}

#[test]
fn known_scores_bypass_sampling() {
    // Once the exact score is cached (here: by a prior full
    // intervention), decide consumes the cache instead of sampling —
    // sampling an already-paid-for score could only lose information.
    let df = flagged_frame(4096, 3686);
    let mut system = flagged_fraction;
    let mut oracle = Oracle::new(&mut system, 0.2, 100).with_sampling(bounded(), 42);
    let full = oracle.intervene(&df);
    let (passes, score) = oracle.decide(&df);
    assert!(!passes);
    assert_eq!(score, Some(full));
    let m = oracle.run_metrics();
    assert_eq!(m.sampled_queries, 0);
    assert_eq!(m.cache_hits, 1, "decide consumed the cached score");
}

#[test]
fn sampling_off_is_plain_intervene() {
    let df = flagged_frame(4096, 3686);
    let mut system = flagged_fraction;
    let mut oracle = Oracle::new(&mut system, 0.2, 100);
    let (passes, score) = oracle.decide(&df);
    assert!(!passes);
    assert_eq!(score, Some(3686.0 / 4096.0));
    let m = oracle.run_metrics();
    assert_eq!(
        (m.sampled_queries, m.escalations, m.rows_touched),
        (0, 0, 0)
    );
    assert_eq!(m.cache_misses, 1);
}

#[test]
fn serial_and_parallel_deciders_sample_identically() {
    // The decider's sample stream is keyed by seed ^ fingerprint, so a
    // runtime over a borrowed system and one over a factory at width 1
    // must draw the same probes, touch the same rows, and settle the
    // same verdicts.
    let df = flagged_frame(4096, 3686);
    let mut system = flagged_fraction;
    let mut borrowed = Oracle::new(&mut system, 0.2, 100).with_sampling(bounded(), 42);
    let borrowed_out = borrowed.decide(&df);
    let borrowed_m = borrowed.run_metrics();

    let factory = || flagged_fraction;
    let mut built = Oracle::parallel(&factory, 0.2, 100, 1).with_sampling(bounded(), 42);
    let built_out = built.decide(&df);
    let built_m = built.run_metrics();
    assert_eq!(borrowed_out, built_out);
    let counts = |m: &dataprism::RunMetrics| {
        (
            m.charged_queries,
            m.sampled_queries,
            m.escalations,
            m.rows_touched,
            m.cache_hits + m.cache_misses,
        )
    };
    assert_eq!(counts(&borrowed_m), counts(&built_m));
    assert_eq!(
        borrowed_m.sampled_queries, 1,
        "the verdict settled on a sample"
    );
    assert_eq!(borrowed.last_sampled_query(), built.last_sampled_query());
}
