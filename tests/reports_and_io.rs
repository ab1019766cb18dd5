//! Integration tests of the user-facing surfaces around a diagnosis:
//! the markdown report, CSV round-trips of scenario data, a
//! [`Diagnosis`] straight from a scenario, and the frame-description
//! utilities — the pieces a downstream user touches right after the
//! algorithms.

use dataprism::report::markdown_report;
use dataprism::{Algorithm, Diagnosis, Explanation, Source};
use dp_frame::csv::{read_csv, write_csv};
use dp_frame::describe::{describe, describe_table, sort_by, top_k, value_histogram};
use dp_scenarios::{example1, ezgo, sentiment, Scenario};

/// `algorithm` on the scenario's own system.
fn diagnose(scenario: &mut Scenario, algorithm: Algorithm) -> Explanation {
    let source = Source::Borrowed(scenario.system.as_mut());
    Diagnosis::new(algorithm)
        .run(source, &scenario.d_fail, &scenario.d_pass, &scenario.config)
        .unwrap()
}

/// The markdown report of `exp` under the scenario's configuration.
fn report(scenario: &Scenario, exp: &Explanation) -> String {
    let config = &scenario.config;
    markdown_report(
        exp,
        &scenario.d_pass,
        &scenario.d_fail,
        config.threshold,
        &config.discovery,
    )
}

/// Compare `actual` against the checked-in golden file
/// `tests/golden/<name>`; regenerate with `UPDATE_GOLDEN=1 cargo test`.
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        actual, expected,
        "report drifted from {path:?}; run with UPDATE_GOLDEN=1 to regenerate"
    );
}

#[test]
fn greedy_report_matches_golden_file() {
    // The running example of the paper's §1 is fully deterministic:
    // a serial diagnosis renders byte-identical markdown (including
    // the oracle cache-stats block) on every run.
    let mut scenario = example1::scenario();
    let exp = diagnose(&mut scenario, Algorithm::Greedy);
    let report = report(&scenario, &exp);
    assert!(report.contains("- oracle cache: **"));
    assert_golden("example1_greedy_report.md", &report);
}

#[test]
fn group_test_report_matches_golden_file() {
    let mut scenario = example1::scenario();
    let exp = diagnose(&mut scenario, Algorithm::Auto);
    assert_golden("example1_auto_report.md", &report(&scenario, &exp));
}

#[test]
fn parallel_width_one_report_matches_serial_golden() {
    // num_threads = 1 on the parallel runtime materializes serially,
    // so even the cache counters (the only scheduling-dependent
    // output) must reproduce the serial golden file exactly.
    let scenario = example1::scenario();
    let mut config = scenario.config.clone();
    config.num_threads = 1;
    let exp = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Factory(scenario.factory.as_ref()),
            &scenario.d_fail,
            &scenario.d_pass,
            &config,
        )
        .unwrap();
    assert_golden("example1_greedy_report.md", &report(&scenario, &exp));
}

#[test]
fn report_covers_a_real_case_study() {
    let mut scenario = sentiment::scenario_with_size(300, 11);
    let exp = diagnose(&mut scenario, Algorithm::Greedy);
    assert!(exp.resolved);
    let report = report(&scenario, &exp);
    assert!(report.contains("# DataPrism diagnosis report"));
    assert!(report.contains("⟨Domain, target"));
    assert!(report.contains("**yes**"), "the cause row is flagged");
    assert!(report.contains("Intervention trace"));
}

#[test]
fn auto_strategy_resolves_case_studies() {
    let mut scenario = ezgo::scenario_with_size(600, 2);
    let exp = diagnose(&mut scenario, Algorithm::Auto);
    assert!(exp.resolved, "{exp}");
}

#[test]
fn scenario_data_roundtrips_through_csv() {
    let scenario = ezgo::scenario_with_size(120, 2);
    let mut buf = Vec::new();
    write_csv(&scenario.d_fail, &mut buf).unwrap();
    let back = read_csv(&buf[..]).unwrap();
    assert_eq!(back.n_rows(), scenario.d_fail.n_rows());
    assert_eq!(back.n_cols(), scenario.d_fail.n_cols());
    // Cell-level fidelity for a few sampled positions.
    for row in [0usize, 17, 119] {
        for col in ["has_toll_pass", "plate_color", "axles"] {
            assert_eq!(
                back.cell(row, col).unwrap().to_string(),
                scenario.d_fail.cell(row, col).unwrap().to_string(),
                "row {row} col {col}"
            );
        }
    }
}

#[test]
fn describe_utilities_work_on_scenario_frames() {
    let scenario = sentiment::scenario_with_size(150, 3);
    let summaries = describe(&scenario.d_fail);
    assert_eq!(summaries.len(), scenario.d_fail.n_cols());
    let target = summaries.iter().find(|s| s.name == "target").unwrap();
    assert_eq!(target.distinct, 2, "labels are {{0, 4}}");
    assert_eq!(target.nulls, 0);

    let table = describe_table(&scenario.d_fail);
    assert!(table.contains("target") && table.contains("retweets"));

    let sorted = sort_by(&scenario.d_fail, "retweets", true).unwrap();
    let first = sorted.cell(0, "retweets").unwrap().as_i64().unwrap();
    let last = sorted
        .cell(sorted.n_rows() - 1, "retweets")
        .unwrap()
        .as_i64()
        .unwrap();
    assert!(first >= last);

    let top = top_k(&scenario.d_fail, "retweets", 5).unwrap();
    assert_eq!(top.n_rows(), 5);
    assert_eq!(top.cell(0, "retweets").unwrap().as_i64().unwrap(), first);

    let hist = value_histogram(&scenario.d_fail, "target", 5).unwrap();
    assert!(hist.contains('0') && hist.contains('4'));
}
