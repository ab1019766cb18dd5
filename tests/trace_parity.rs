//! Parity, round-trip, and reconstruction tests for the `dp_trace`
//! observability layer.
//!
//! The contract under test: attaching any trace sink is **pure
//! observation**. With the in-memory `Collector` or the buffered
//! JSONL writer, a diagnosis returns the bit-identical explanation a
//! `NullSink` (trace off) run returns — same PVTs, scores,
//! intervention counts, decision digest, and repaired-dataset fingerprint
//! — at every `num_threads` in {1, 2, 8} crossed with every
//! `gt_speculation_depth` in {0, 1, 2}, for both GRD and GT.
//!
//! Separately, the JSONL schema must round-trip bit-for-bit (u64
//! fingerprints and f64 score bits survive), the search tree folded
//! from a deserialized stream must match the tree folded from the
//! live `Collector` records, and a serial GT trace renders a stable
//! golden tree.

use dataprism::{
    fingerprint, Algorithm, Diagnosis, Explanation, PrismConfig, Result, SearchTree, Source,
    TraceConfig,
};
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, Scenario};
use dp_trace::{parse_jsonl, to_jsonl, Event};
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const DEPTHS: [usize; 3] = [0, 1, 2];

/// The case-study set, sized down from the conformance suite: the
/// parity matrix multiplies every scenario by algorithms × sinks ×
/// threads × depths.
fn scenarios() -> Vec<Scenario> {
    vec![
        example1::scenario(),
        sentiment::scenario_with_size(160, 11),
        income::scenario_with_size(200, 7),
        cardio::scenario_with_size(200, 5),
        ezgo::scenario_with_size(240, 2),
        sensors::scenario_with_size(150, 4),
    ]
}

fn run(algo: Algorithm, scenario: &Scenario, config: &PrismConfig) -> Result<Explanation> {
    Diagnosis::new(algo).run(
        Source::Factory(scenario.factory.as_ref()),
        &scenario.d_fail,
        &scenario.d_pass,
        config,
    )
}

/// A fresh path under the cargo-managed test temp dir.
fn temp_jsonl(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("trace_{tag}_{}.jsonl", std::process::id()))
}

/// Assert the deterministic surface of two outcomes is bit-identical.
/// Cache counters and latency metrics are excluded by design: they
/// vary with scheduling, not with the sink.
fn assert_same_outcome(label: &str, base: &Result<Explanation>, traced: &Result<Explanation>) {
    match (base, traced) {
        (Ok(b), Ok(t)) => {
            assert_eq!(b.pvt_ids(), t.pvt_ids(), "{label}: explanation set");
            assert_eq!(b.interventions, t.interventions, "{label}: interventions");
            assert_eq!(
                b.initial_score.to_bits(),
                t.initial_score.to_bits(),
                "{label}: initial score"
            );
            assert_eq!(
                b.final_score.to_bits(),
                t.final_score.to_bits(),
                "{label}: final score"
            );
            assert_eq!(b.resolved, t.resolved, "{label}: resolved");
            assert_eq!(b.digest(), t.digest(), "{label}: decision digest");
            assert_eq!(
                fingerprint(&b.repaired),
                fingerprint(&t.repaired),
                "{label}: repaired dataset"
            );
        }
        (Err(be), Err(te)) => assert_eq!(be, te, "{label}: error value"),
        (b, t) => panic!("{label}: sink changed the outcome: off {b:?} vs traced {t:?}"),
    }
}

fn parity_matrix(algo: Algorithm, algo_name: &str) {
    for scenario in scenarios() {
        for threads in THREAD_COUNTS {
            for depth in DEPTHS {
                let mut config = scenario.config.clone();
                config.num_threads = threads;
                config.gt_speculation_depth = depth;

                config.trace = TraceConfig::Off;
                let off = run(algo, &scenario, &config);

                config.trace = TraceConfig::Collect;
                let collected = run(algo, &scenario, &config);

                let path = temp_jsonl(&format!(
                    "{algo_name}_{}_{threads}t_d{depth}",
                    scenario.name.replace(' ', "_")
                ));
                config.trace = TraceConfig::Jsonl(path.clone());
                let jsonl = run(algo, &scenario, &config);

                let label = format!("{}/{algo_name}@{threads}t/d{depth}", scenario.name);
                assert_same_outcome(&label, &off, &collected);
                assert_same_outcome(&label, &off, &jsonl);

                if let Ok(exp) = &off {
                    assert!(
                        exp.trace_records.is_empty(),
                        "{label}: off-run must collect nothing"
                    );
                }
                if let Ok(exp) = &collected {
                    assert!(
                        !exp.trace_records.is_empty(),
                        "{label}: collect-run must have records"
                    );
                    assert!(
                        matches!(exp.trace_records[0].event, Event::DiagnosisBegin(_)),
                        "{label}: stream opens with DiagnosisBegin"
                    );
                    assert!(
                        matches!(
                            exp.trace_records.last().unwrap().event,
                            Event::DiagnosisEnd { .. }
                        ),
                        "{label}: stream closes with DiagnosisEnd"
                    );
                }
                if jsonl.is_ok() {
                    let raw = std::fs::read_to_string(&path).unwrap();
                    let parsed = parse_jsonl(&raw)
                        .unwrap_or_else(|e| panic!("{label}: file must parse: {e}"));
                    assert!(!parsed.is_empty(), "{label}: file must have records");
                }
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

#[test]
fn greedy_explanations_are_sink_invariant() {
    parity_matrix(Algorithm::Greedy, "grd");
}

#[test]
fn group_test_explanations_are_sink_invariant() {
    parity_matrix(Algorithm::GroupTest, "gt");
}

#[test]
fn budgeted_speculation_is_sink_invariant_and_plans_round_trip() {
    // Budgeted cell of the parity matrix: with an in-flight frame
    // budget far below one node's frontier, every sink still returns
    // the unbounded off-run's explanation bit-for-bit, the collected
    // stream carries each cold node's `speculation_plan` (the
    // configured depth, one deeper where every pair commutes, under
    // the configured budget), and the records survive the JSONL round
    // trip exactly.
    for scenario in [
        income::scenario_with_size(200, 7),
        sensors::scenario_with_size(150, 4),
    ] {
        for threads in [2usize, 8] {
            let depth = 2;
            let budget = 4;
            let mut config = scenario.config.clone();
            config.num_threads = threads;
            config.gt_speculation_depth = depth;
            config.trace = TraceConfig::Off;
            let unbounded_off = run(Algorithm::GroupTest, &scenario, &config);

            config.speculation_budget = Some(budget);
            let budgeted_off = run(Algorithm::GroupTest, &scenario, &config);
            config.trace = TraceConfig::Collect;
            let budgeted_collected = run(Algorithm::GroupTest, &scenario, &config);

            let label = format!("{}/budget {budget}@{threads}t", scenario.name);
            assert_same_outcome(&label, &unbounded_off, &budgeted_off);
            assert_same_outcome(&label, &unbounded_off, &budgeted_collected);

            let Ok(exp) = &budgeted_collected else {
                continue;
            };
            let mut plans = 0;
            for record in &exp.trace_records {
                if let Event::SpeculationPlan(plan) = &record.event {
                    plans += 1;
                    assert!(
                        plan.depth == depth || plan.depth == depth + 1,
                        "{label}: planned depth {} for configured depth {depth}",
                        plan.depth
                    );
                    assert_eq!(plan.budget, Some(budget), "{label}: plan budget");
                }
            }
            assert!(plans > 0, "{label}: no speculation plans were traced");
            let text = to_jsonl(&exp.trace_records);
            assert_eq!(
                parse_jsonl(&text).unwrap(),
                exp.trace_records,
                "{label}: speculation_plan records must round-trip"
            );
        }
    }
}

#[test]
fn jsonl_round_trips_bit_for_bit_and_reconstructs_the_tree() {
    // Satellite 3: serialize the full event stream of real runs,
    // deserialize, and reconstruct — everything must survive exactly,
    // for all scenarios × GRD/GT × threads {1, 8}.
    for scenario in scenarios() {
        for algo in [Algorithm::Greedy, Algorithm::GroupTest] {
            for threads in [1usize, 8] {
                let mut config = scenario.config.clone();
                config.num_threads = threads;
                config.trace = TraceConfig::Collect;
                let Ok(exp) = run(algo, &scenario, &config) else {
                    continue; // error parity is covered by the matrix above
                };
                let records = &exp.trace_records;
                let text = to_jsonl(records);
                let parsed = parse_jsonl(&text).unwrap();
                assert_eq!(&parsed, records, "{}@{threads}t: records", scenario.name);
                let live = SearchTree::from_records(records);
                let rebuilt = SearchTree::from_records(&parsed);
                assert_eq!(
                    live, rebuilt,
                    "{}@{threads}t: reconstructed tree",
                    scenario.name
                );
                if matches!(algo, Algorithm::GroupTest) {
                    assert!(
                        live.node_count() > 0,
                        "{}@{threads}t: GT run must produce a tree",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn jsonl_file_stream_rebuilds_the_collector_tree() {
    // A JSONL-sink run is a *different* run than a Collector run, so
    // wall times and speculative-hit flags may differ; everything
    // structural (nodes, candidate sets, partitions, probe scores,
    // selections) is deterministic and must match after
    // `strip_volatile`.
    let scenario = income::scenario_with_size(200, 7);
    for threads in [1usize, 8] {
        let mut config = scenario.config.clone();
        config.num_threads = threads;

        config.trace = TraceConfig::Collect;
        let collected = run(Algorithm::GroupTest, &scenario, &config).unwrap();

        let path = temp_jsonl(&format!("file_tree_{threads}t"));
        config.trace = TraceConfig::Jsonl(path.clone());
        let _ = run(Algorithm::GroupTest, &scenario, &config).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_jsonl(&raw).unwrap();
        let _ = std::fs::remove_file(&path);

        let live = SearchTree::from_records(&collected.trace_records).strip_volatile();
        let from_file = SearchTree::from_records(&parsed).strip_volatile();
        assert_eq!(live, from_file, "{threads}t: structural tree");
    }
}

#[test]
fn serial_gt_tree_matches_golden_rendering() {
    // Serial GT on the income case study (example 1's GT run reports
    // an A3 violation, so it has no tree): the reconstructed search
    // tree renders byte-identically on every run (no wall times in
    // the text rendering).
    let mut scenario = income::scenario_with_size(200, 7);
    let mut config = scenario.config.clone();
    config.trace = TraceConfig::Collect;
    let exp = Diagnosis::new(Algorithm::GroupTest)
        .run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &config,
        )
        .unwrap();
    let tree = SearchTree::from_records(&exp.trace_records);
    let rendered = tree.render_text(false);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("income_gt_tree.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        rendered, expected,
        "tree drifted from {path:?}; run with UPDATE_GOLDEN=1 to regenerate"
    );
}

#[test]
fn auto_fallback_keeps_the_group_testing_attempt_in_the_trace() {
    // Example 1's group-testing attempt reports an A3 violation, so
    // `Auto` falls back to greedy. Both attempts write to one tracer:
    // the collected records and the JSONL file hold the group-testing
    // attempt (its opening event and its A3 probe) ahead of the greedy
    // run, and tracing leaves the explanation unchanged.
    let scenario = example1::scenario();
    let untraced = run(Algorithm::Auto, &scenario, &scenario.config).unwrap();
    let opened = |records: &[dp_trace::TraceRecord]| -> Vec<String> {
        records
            .iter()
            .filter_map(|r| match &r.event {
                Event::DiagnosisBegin(span) => Some(span.algorithm.clone()),
                _ => None,
            })
            .collect()
    };
    let mut config = scenario.config.clone();
    config.trace = TraceConfig::Collect;
    let collected = run(Algorithm::Auto, &scenario, &config).unwrap();
    assert_eq!(collected.digest(), untraced.digest());
    let records = &collected.trace_records;
    assert_eq!(opened(records), ["group_test", "greedy"]);
    let greedy_begin = records
        .iter()
        .rposition(|r| matches!(r.event, Event::DiagnosisBegin(_)))
        .unwrap();
    assert!(
        records[..greedy_begin]
            .iter()
            .any(|r| matches!(r.event, Event::OracleQuery(_))),
        "the A3 probe of the group-testing attempt is kept"
    );
    assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));
    assert!(matches!(
        records.last().unwrap().event,
        Event::DiagnosisEnd { .. }
    ));

    let path = temp_jsonl("auto_fallback");
    config.trace = TraceConfig::Jsonl(path.clone());
    let streamed = run(Algorithm::Auto, &scenario, &config).unwrap();
    assert_eq!(streamed.digest(), untraced.digest());
    let parsed = parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(opened(&parsed), ["group_test", "greedy"]);
    assert_eq!(parsed.len(), records.len());
}
