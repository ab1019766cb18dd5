//! Conformance for the continuous-monitoring layer (`dp_monitor`).
//!
//! Two contracts under test, across every case-study scenario:
//!
//! 1. **Stream/batch sketch parity.** The live per-column sketches a
//!    [`Watcher`] maintains by merging per-batch sketches are
//!    *bit-identical* (by fingerprint) to sketches rebuilt from
//!    scratch over the concatenation of everything ingested — the
//!    merge layer is exact, not approximate.
//! 2. **Triggered/offline digest identity.** A drift-triggered
//!    re-diagnosis — seeded with only the drifted profiles'
//!    candidates and warmed from a resident cache — produces the same
//!    explanation, bit for bit, as an offline run handed the same
//!    candidate set. Pinned across scenarios × GRD/GT × thread
//!    widths {1, 8} × warmth, and once more end-to-end through an
//!    in-process `dp_serve` daemon (watch → ingest CSV → drift).
//!
//! The drift *detection* side (lag, screen rates, targeted-vs-full
//! query cost) is measured and gated by `drift_detection --smoke`.

use dataprism::{fingerprint, Algorithm, Diagnosis, Explanation, Result, ScoreCache, Source};
use dp_frame::csv::write_csv;
use dp_monitor::{MonitorConfig, Watcher};
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, Scenario};
use dp_serve::{field_u64, is_ok, Client, ServeConfig, Server};
use dp_stats::sketch::{CategoricalSketch, ColumnSummary, NumericSketch, DEFAULT_BUCKETS};
use dp_trace::Tracer;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Loose enough that every scenario's injected disconnect registers
/// (the weakest, ezgo's shifted stars, violates its domain profile on
/// only part of the window).
const TAU_DRIFT: f64 = 0.05;

/// The moderate-size case-study set (same sizes as
/// `serve_conformance.rs`).
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

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        tau_drift: TAU_DRIFT,
        window_batches: 2,
    }
}

/// A watcher over the scenario's passing dataset that has ingested
/// the failing dataset as one streamed batch (so the scoring window
/// is exactly `d_fail`), plus the drifted profile indices.
fn drifted_watcher(scenario: &Scenario, threads: usize) -> (Watcher, Vec<usize>) {
    let mut config = scenario.config.clone();
    config.num_threads = threads;
    let mut watcher = Watcher::new(scenario.d_pass.clone(), config, monitor_config());
    watcher
        .ingest(scenario.d_fail.clone(), &Tracer::off())
        .expect("d_fail shares d_pass's schema in every case study");
    let report = watcher.check_drift(&Tracer::off());
    assert!(
        report.any_drifted(),
        "{}: the injected disconnect must register as drift (max score {:?})",
        scenario.name,
        report.scores.iter().map(|s| s.score).fold(0.0f64, f64::max),
    );
    let drifted = report.drifted();
    (watcher, drifted)
}

fn run_triggered(
    watcher: &Watcher,
    scenario: &Scenario,
    algo: Algorithm,
    drifted: &[usize],
    cache: &mut ScoreCache,
) -> Result<Explanation> {
    watcher.diagnose(
        algo,
        scenario.factory.as_ref(),
        drifted,
        cache,
        &Tracer::off(),
    )
}

/// The offline leg: the plain (uncached) parallel entry points handed
/// the watcher's window and candidate set verbatim.
fn run_offline(
    watcher: &Watcher,
    scenario: &Scenario,
    algo: Algorithm,
    drifted: &[usize],
    threads: usize,
) -> Result<Explanation> {
    let window = watcher.window_frame().expect("a batch was ingested");
    let pvts = watcher.candidates(drifted);
    let mut config = scenario.config.clone();
    config.num_threads = threads;
    Diagnosis::new(algo).with_candidates(pvts).run(
        Source::Factory(scenario.factory.as_ref()),
        &window,
        &scenario.d_pass,
        &config,
    )
}

/// Bit-indistinguishability, cache counters excluded by design.
fn assert_identical(label: &str, offline: &Result<Explanation>, triggered: &Result<Explanation>) {
    match (offline, triggered) {
        (Ok(o), Ok(t)) => {
            assert_eq!(o.pvt_ids(), t.pvt_ids(), "{label}: explanation set");
            assert_eq!(o.interventions, t.interventions, "{label}: interventions");
            assert_eq!(
                o.initial_score.to_bits(),
                t.initial_score.to_bits(),
                "{label}: initial score"
            );
            assert_eq!(
                o.final_score.to_bits(),
                t.final_score.to_bits(),
                "{label}: final score"
            );
            assert_eq!(o.resolved, t.resolved, "{label}: resolved flag");
            assert_eq!(o.trace, t.trace, "{label}: trace");
            assert_eq!(
                fingerprint(&o.repaired),
                fingerprint(&t.repaired),
                "{label}: repaired dataset"
            );
            assert_eq!(o.digest(), t.digest(), "{label}: digest");
        }
        (Err(oe), Err(te)) => assert_eq!(oe, te, "{label}: error value"),
        (o, t) => {
            panic!("{label}: triggering changed the outcome: offline {o:?} vs triggered {t:?}")
        }
    }
}

#[test]
fn live_sketches_are_bit_identical_to_scratch_rebuilds() {
    for scenario in scenarios() {
        // Stream two batches (the passing distribution, then the
        // disconnect) so merges actually happen, and rebuild every
        // sketch from the concatenation.
        let mut config = scenario.config.clone();
        config.num_threads = 1;
        let mut watcher = Watcher::new(scenario.d_pass.clone(), config, monitor_config());
        let tracer = Tracer::off();
        watcher.ingest(scenario.d_pass.clone(), &tracer).unwrap();
        watcher.ingest(scenario.d_fail.clone(), &tracer).unwrap();
        let whole = scenario.d_pass.concat(&scenario.d_fail).unwrap();
        for col in whole.columns() {
            let label = format!("{} column {}", scenario.name, col.name());
            let live = watcher
                .live_summary(col.name())
                .unwrap_or_else(|| panic!("{label}: no live summary"));
            assert_eq!(
                live.fingerprint(),
                ColumnSummary::build(col).fingerprint(),
                "{label}: summary diverged from scratch rebuild"
            );
            if col.dtype().is_numeric() {
                assert_eq!(
                    watcher
                        .live_numeric_sketch(col.name())
                        .unwrap()
                        .fingerprint(),
                    NumericSketch::build(col.len(), &col.f64_values()).fingerprint(),
                    "{label}: numeric sketch diverged"
                );
            } else if col.dtype().is_string() {
                let mut cells: Vec<Option<&str>> = vec![None; col.len()];
                for (i, s) in col.str_values() {
                    cells[i] = Some(s);
                }
                assert_eq!(
                    watcher
                        .live_categorical_sketch(col.name())
                        .unwrap()
                        .fingerprint(),
                    CategoricalSketch::from_values(&cells, DEFAULT_BUCKETS).fingerprint(),
                    "{label}: categorical sketch diverged"
                );
            }
        }
    }
}

#[test]
fn triggered_rediagnosis_matches_offline_across_the_matrix() {
    for scenario in scenarios() {
        for algo in [Algorithm::Greedy, Algorithm::GroupTest] {
            for threads in THREAD_COUNTS {
                let label = format!("{} {}@{threads}t", scenario.name, algo.name());
                let (watcher, drifted) = drifted_watcher(&scenario, threads);

                let offline = run_offline(&watcher, &scenario, algo, &drifted, threads);
                let mut cache = ScoreCache::new();
                let cold = run_triggered(&watcher, &scenario, algo, &drifted, &mut cache);
                assert_identical(&format!("{label} cold-triggered"), &offline, &cold);

                // Second trigger over the same window, warmed by the
                // first: identical, and served from the cache.
                let warm = run_triggered(&watcher, &scenario, algo, &drifted, &mut cache);
                assert_identical(&format!("{label} warm-triggered"), &offline, &warm);
                if let (Ok(c), Ok(w)) = (&cold, &warm) {
                    assert_eq!(
                        c.metrics.charged_queries, w.metrics.charged_queries,
                        "{label}: warmth must not change what the algorithm asks"
                    );
                    assert!(
                        w.metrics.warm_hits > 0,
                        "{label}: warm trigger never touched the seeded cache"
                    );
                }
            }
        }
    }
}

#[test]
fn targeted_candidates_are_a_strict_subset_of_full_discovery() {
    // The targeted run must charge no more oracle queries than a full
    // diagnosis of the same window — the whole point of seeding with
    // only the drifted profiles. (The bench gates the margin; here we
    // pin the non-strict invariant cheaply at one width.)
    let scenario = income::scenario_with_size(300, 7);
    let (watcher, drifted) = drifted_watcher(&scenario, 1);
    let full_profiles = watcher.profiles().len();
    assert!(
        drifted.len() < full_profiles,
        "drift must localize: {} of {full_profiles} profiles drifted",
        drifted.len()
    );
    let targeted = watcher.candidates(&drifted);
    assert!(!targeted.is_empty());
    let all: Vec<usize> = (0..full_profiles).collect();
    let every = watcher.candidates(&all);
    assert!(targeted.len() < every.len());
}

/// End-to-end over real TCP: watch → ingest (CSV round-trip) → drift
/// with escalation, digest-identical to the in-process watcher fed
/// the same frames.
#[test]
fn daemon_drift_escalation_matches_in_process_watcher() {
    let rows = 300;
    let seed = 7;
    let scenario = income::scenario_with_size(rows, seed);

    // In-process reference: same tau/window the daemon will run.
    let mut watcher = Watcher::new(
        scenario.d_pass.clone(),
        scenario.config.clone(),
        monitor_config(),
    );
    watcher
        .ingest(scenario.d_fail.clone(), &Tracer::off())
        .unwrap();
    let report = watcher.check_drift(&Tracer::off());
    let drifted = report.drifted();
    assert!(!drifted.is_empty());
    let mut cache = ScoreCache::new();
    let reference = watcher
        .diagnose(
            Algorithm::Greedy,
            scenario.factory.as_ref(),
            &drifted,
            &mut cache,
            &Tracer::off(),
        )
        .expect("reference escalation");

    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reg = client
        .register("inc", "income", Some(rows), Some(seed))
        .unwrap();
    assert!(is_ok(&reg));

    // Monitoring ops require a watcher.
    let premature = client.ingest("inc", "x\n1\n").unwrap();
    assert_eq!(
        premature.get("code").and_then(|c| c.as_str()),
        Some("not_watching")
    );

    let watch = client.watch("inc", Some(TAU_DRIFT), Some(2)).unwrap();
    assert!(is_ok(&watch), "{watch:?}");
    assert_eq!(
        field_u64(&watch, "profiles"),
        Some(watcher.profiles().len() as u64)
    );

    // A batch that does not parse against the watched schema is a
    // typed error, not a poisoned namespace.
    let bad = client
        .ingest("inc", "totally,wrong\nschema,here\n")
        .unwrap();
    assert_eq!(bad.get("code").and_then(|c| c.as_str()), Some("bad_batch"));

    let mut csv = Vec::new();
    write_csv(&scenario.d_fail, &mut csv).unwrap();
    let ingest = client
        .ingest("inc", std::str::from_utf8(&csv).unwrap())
        .unwrap();
    assert!(is_ok(&ingest), "{ingest:?}");
    assert_eq!(
        field_u64(&ingest, "rows_total"),
        Some(scenario.d_fail.n_rows() as u64)
    );

    let drift = client.drift("inc", true, "greedy").unwrap();
    assert!(is_ok(&drift), "{drift:?}");
    assert_eq!(drift.get("diagnosed").and_then(|b| b.as_bool()), Some(true));
    let wire_drifted: Vec<u64> = match drift.get("drifted") {
        Some(dp_trace::JsonValue::Arr(items)) => items.iter().filter_map(|v| v.as_u64()).collect(),
        other => panic!("drifted is not an array: {other:?}"),
    };
    assert_eq!(
        wire_drifted,
        drifted.iter().map(|&i| i as u64).collect::<Vec<_>>(),
        "daemon and in-process watcher must agree on what drifted"
    );
    assert_eq!(
        field_u64(&drift, "digest"),
        Some(reference.digest()),
        "daemon escalation must be digest-identical to the in-process run"
    );

    // The scrape reflects the session.
    let body = client.metrics().unwrap();
    assert!(
        body.contains("dp_monitor_watching{system=\"inc\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("dp_monitor_batches_ingested_total{system=\"inc\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("dp_monitor_drift_triggers_total{system=\"inc\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("dp_monitor_ingest_latency_seconds_count{system=\"inc\"} 1"),
        "{body}"
    );

    // Per-system stats carry the cumulative totals: the lint counts
    // of the `diagnose` request and of the drift-escalated diagnosis
    // alike.
    let diagnosed = client.diagnose("inc", "greedy", None).unwrap();
    assert!(is_ok(&diagnosed), "{diagnosed:?}");
    let escalated_pairs = reference.metrics.lint_commuting_pairs;
    let stats = client.stats(Some("inc")).unwrap();
    assert_eq!(stats.get("watching").and_then(|b| b.as_bool()), Some(true));
    assert_eq!(field_u64(&stats, "diagnoses"), Some(2));
    assert_eq!(
        field_u64(&stats, "lint_commuting_pairs_total"),
        Some(field_u64(&diagnosed, "lint_commuting_pairs").unwrap() + escalated_pairs),
        "{stats:?}"
    );
    assert_eq!(field_u64(&stats, "drift_checks_total"), Some(1));
    assert_eq!(field_u64(&stats, "drift_triggers_total"), Some(1));

    // A re-`watch` starts a new stream, but the namespace's totals keep
    // counting; the ingest-latency histogram is the live watcher's own.
    let rewatch = client.watch("inc", Some(TAU_DRIFT), Some(2)).unwrap();
    assert!(is_ok(&rewatch), "{rewatch:?}");
    let ingest = client
        .ingest("inc", std::str::from_utf8(&csv).unwrap())
        .unwrap();
    assert_eq!(field_u64(&ingest, "batches"), Some(1), "{ingest:?}");
    let stats = client.stats(Some("inc")).unwrap();
    assert_eq!(field_u64(&stats, "batches_ingested_total"), Some(2));
    assert_eq!(
        field_u64(&stats, "rows_ingested_total"),
        Some(2 * scenario.d_fail.n_rows() as u64)
    );
    assert_eq!(field_u64(&stats, "drift_checks_total"), Some(1));
    let body = client.metrics().unwrap();
    for line in [
        "dp_monitor_batches_ingested_total{system=\"inc\"} 2",
        "dp_monitor_drift_checks_total{system=\"inc\"} 1",
        "dp_monitor_ingest_latency_seconds_count{system=\"inc\"} 1",
    ] {
        assert!(body.contains(line), "{line} missing from {body}");
    }

    client.shutdown().unwrap();
    server.join();
}

/// The namespace's lint totals count the drift-escalated diagnosis
/// too. Example 1's escalation certifies commuting pairs, and its
/// zip codes (`01004`) must reach the watcher as text, unchanged, for
/// the daemon's run to match the in-process one.
#[test]
fn daemon_lint_totals_include_the_drift_escalated_diagnosis() {
    let scenario = example1::scenario();
    let mut watcher = Watcher::new(
        scenario.d_pass.clone(),
        scenario.config.clone(),
        monitor_config(),
    );
    watcher
        .ingest(scenario.d_fail.clone(), &Tracer::off())
        .unwrap();
    let drifted = watcher.check_drift(&Tracer::off()).drifted();
    let reference = watcher
        .diagnose(
            Algorithm::Greedy,
            scenario.factory.as_ref(),
            &drifted,
            &mut ScoreCache::new(),
            &Tracer::off(),
        )
        .expect("reference escalation");
    let escalated_pairs = reference.metrics.lint_commuting_pairs;
    assert!(escalated_pairs > 0, "the escalated run certifies pairs");

    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    assert!(is_ok(
        &client.watch("ex", Some(TAU_DRIFT), Some(2)).unwrap()
    ));
    let mut csv = Vec::new();
    write_csv(&scenario.d_fail, &mut csv).unwrap();
    let ingest = client
        .ingest("ex", std::str::from_utf8(&csv).unwrap())
        .unwrap();
    assert!(is_ok(&ingest), "{ingest:?}");
    let drift = client.drift("ex", true, "greedy").unwrap();
    assert_eq!(drift.get("diagnosed").and_then(|b| b.as_bool()), Some(true));
    assert_eq!(field_u64(&drift, "digest"), Some(reference.digest()));

    let diagnosed = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&diagnosed), "{diagnosed:?}");
    let stats = client.stats(Some("ex")).unwrap();
    assert_eq!(
        field_u64(&stats, "lint_commuting_pairs_total"),
        Some(field_u64(&diagnosed, "lint_commuting_pairs").unwrap() + escalated_pairs),
        "{stats:?}"
    );
    let body = client.metrics().unwrap();
    let line = format!(
        "dp_lint_commuting_pairs_total{{system=\"ex\"}} {}",
        field_u64(&stats, "lint_commuting_pairs_total").unwrap()
    );
    assert!(body.contains(&line), "{line} missing from {body}");

    client.shutdown().unwrap();
    server.join();
}
