//! Edge-case and failure-injection integration tests: degenerate
//! datasets, hostile systems, and tiny budgets through the full
//! diagnosis pipeline — plus degenerate candidate sets through group
//! testing (empty, singleton, disconnected dependency graph, and
//! all-no-op compositions).

use dataprism::{
    Algorithm, Diagnosis, Lint, PrismConfig, PrismError, Profile, Pvt, Ranked, RunMetrics, Source,
    Transform,
};
use dp_frame::{Column, DType, DataFrame, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn cat(name: &str, vals: &[&str]) -> Column {
    Column::from_strings(
        name,
        DType::Categorical,
        vals.iter().map(|s| Some(s.to_string())).collect(),
    )
}

#[test]
fn single_row_datasets_diagnose() {
    let pass = DataFrame::from_columns(vec![cat("target", &["1"])]).unwrap();
    let fail = DataFrame::from_columns(vec![cat("target", &["4"])]).unwrap();
    let mut system = |df: &DataFrame| {
        let col = df.column("target").unwrap();
        col.str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count() as f64
            / df.n_rows().max(1) as f64
    };
    let exp = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Borrowed(&mut system),
            &fail,
            &pass,
            &PrismConfig::with_threshold(0.2),
        )
        .expect("single-row diagnosis runs");
    assert!(exp.resolved);
    assert_eq!(
        exp.repaired.cell(0, "target").unwrap(),
        Value::Str("1".into())
    );
}

#[test]
fn all_null_column_does_not_crash_discovery() {
    let pass = DataFrame::from_columns(vec![
        cat("target", &["1", "-1", "1"]),
        Column::from_floats("ghost", vec![None, None, None]),
    ])
    .unwrap();
    let fail = DataFrame::from_columns(vec![
        cat("target", &["4", "0", "4"]),
        Column::from_floats("ghost", vec![None, None, None]),
    ])
    .unwrap();
    let mut system = |df: &DataFrame| {
        let col = df.column("target").unwrap();
        col.str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count() as f64
            / df.n_rows().max(1) as f64
    };
    let exp = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Borrowed(&mut system),
            &fail,
            &pass,
            &PrismConfig::with_threshold(0.2),
        )
        .expect("all-NULL columns are tolerated");
    assert!(exp.resolved);
}

#[test]
fn nan_returning_system_is_treated_as_failing() {
    // Failure injection: the system "crashes" (NaN) on every
    // transformed dataset. Diagnosis must terminate (candidates
    // exhausted) without resolving, never looping or passing.
    // Different row counts so no repair can coincide byte-for-byte
    // with the passing dataset (which would legitimately pass).
    let pass = DataFrame::from_columns(vec![cat("target", &["1", "-1", "1"])]).unwrap();
    let fail = DataFrame::from_columns(vec![cat("target", &["4", "0"])]).unwrap();
    let pass_fp = dataprism::oracle::fingerprint(&pass);
    let fail_fp = dataprism::oracle::fingerprint(&fail);
    let mut system = move |df: &DataFrame| {
        let fp = dataprism::oracle::fingerprint(df);
        if fp == pass_fp {
            0.0
        } else if fp == fail_fp {
            0.9
        } else {
            f64::NAN // everything else crashes
        }
    };
    let exp = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Borrowed(&mut system),
            &fail,
            &pass,
            &PrismConfig::with_threshold(0.2),
        )
        .expect("terminates despite NaN scores");
    assert!(!exp.resolved);
    assert!(exp.pvts.is_empty(), "no NaN-scored intervention is kept");
}

#[test]
fn adversarial_oscillating_system_terminates() {
    // A system whose score jumps around arbitrarily per dataset:
    // diagnosis must still terminate within the candidate set and
    // never report an unverified success.
    let pass = DataFrame::from_columns(vec![
        cat("target", &["1", "-1", "1", "-1"]),
        Column::from_ints("x", vec![Some(1), Some(2), Some(3), Some(4)]),
    ])
    .unwrap();
    let fail = DataFrame::from_columns(vec![
        cat("target", &["4", "0", "4", "0"]),
        Column::from_ints("x", vec![Some(7), Some(8), Some(9), Some(10)]),
    ])
    .unwrap();
    let pass_fp = dataprism::oracle::fingerprint(&pass);
    let mut flip = false;
    let mut system = move |df: &DataFrame| {
        if dataprism::oracle::fingerprint(df) == pass_fp {
            return 0.0;
        }
        flip = !flip;
        if flip {
            0.95
        } else {
            0.55
        }
    };
    let config = PrismConfig::with_threshold(0.2);
    let result =
        Diagnosis::new(Algorithm::Greedy).run(Source::Borrowed(&mut system), &fail, &pass, &config);
    match result {
        Ok(exp) => assert!(!exp.resolved || exp.final_score <= config.threshold),
        Err(PrismError::BudgetExhausted { .. }) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn diagnosis_rejects_swapped_inputs() {
    let pass = DataFrame::from_columns(vec![cat("target", &["1", "-1"])]).unwrap();
    let fail = DataFrame::from_columns(vec![cat("target", &["4", "0"])]).unwrap();
    let mut system = |df: &DataFrame| {
        let col = df.column("target").unwrap();
        col.str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count() as f64
            / df.n_rows().max(1) as f64
    };
    let config = PrismConfig::with_threshold(0.2);
    // Swapped: "failing" passes, "passing" fails.
    let err = Diagnosis::new(Algorithm::Greedy)
        .run(Source::Borrowed(&mut system), &pass, &fail, &config)
        .unwrap_err();
    assert!(matches!(err, PrismError::BadInput(_)), "{err}");
}

#[test]
fn identical_rows_with_extreme_duplication_diagnose() {
    // 1000 copies of two distinct rows — duplication must not break
    // discovery statistics or transformations.
    let mut pass_vals = Vec::new();
    let mut fail_vals = Vec::new();
    for i in 0..1000 {
        pass_vals.push(Some(if i % 2 == 0 { "1" } else { "-1" }.to_string()));
        fail_vals.push(Some(if i % 2 == 0 { "4" } else { "0" }.to_string()));
    }
    let pass = DataFrame::from_columns(vec![Column::from_strings(
        "target",
        DType::Categorical,
        pass_vals,
    )])
    .unwrap();
    let fail = DataFrame::from_columns(vec![Column::from_strings(
        "target",
        DType::Categorical,
        fail_vals,
    )])
    .unwrap();
    let mut system = |df: &DataFrame| {
        let col = df.column("target").unwrap();
        col.str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count() as f64
            / df.n_rows().max(1) as f64
    };
    let exp = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Borrowed(&mut system),
            &fail,
            &pass,
            &PrismConfig::with_threshold(0.2),
        )
        .unwrap();
    assert!(exp.resolved);
    assert_eq!(exp.repaired.n_rows(), 1000);
}

// ---- degenerate group-testing candidate sets ------------------------

/// Score = fraction of `target` values outside {-1, 1}; ignores every
/// other column.
fn target_domain_score(df: &DataFrame) -> f64 {
    let col = df.column("target").unwrap();
    col.str_values()
        .iter()
        .filter(|(_, s)| *s != "-1" && *s != "1")
        .count() as f64
        / df.n_rows().max(1) as f64
}

/// A passing/failing pair with one real cause (`target` out of
/// domain) and three untouched numeric side columns for decoy PVTs.
fn gt_pass_fail() -> (DataFrame, DataFrame) {
    let mk = |targets: &[&str], base: i64| {
        let mut cols = vec![cat("target", targets)];
        for (idx, name) in ["a", "b", "c"].iter().enumerate() {
            let start = base + idx as i64 * 10;
            cols.push(Column::from_ints(
                *name,
                (0..6).map(|i| Some(start + i)).collect(),
            ));
        }
        DataFrame::from_columns(cols).unwrap()
    };
    let pass = mk(&["-1", "1", "1", "-1", "1", "-1"], 100);
    let fail = mk(&["0", "4", "4", "0", "4", "0"], 100);
    (pass, fail)
}

fn map_to_domain_pvt(id: usize, attr: &str, values: &[&str]) -> Pvt {
    let values: BTreeSet<String> = values.iter().map(|s| s.to_string()).collect();
    Pvt {
        id,
        profile: Profile::DomainCategorical {
            attr: attr.into(),
            values: values.clone(),
        },
        transform: Transform::MapToDomain {
            attr: attr.into(),
            values,
        },
    }
}

/// A decoy PVT over its own numeric column: rescaling onto a shifted
/// range really modifies the column (it is not a no-op), but the
/// system never reads it.
fn rescale_pvt(id: usize, attr: &str) -> Pvt {
    Pvt {
        id,
        profile: Profile::DomainNumeric {
            attr: attr.into(),
            lb: 0.0,
            ub: 1.0,
        },
        transform: Transform::LinearRescale {
            attr: attr.into(),
            lb: 0.0,
            ub: 1.0,
        },
    }
}

#[test]
fn group_test_rejects_empty_candidate_set() {
    let (pass, fail) = gt_pass_fail();
    let mut system = target_domain_score;
    let config = PrismConfig::with_threshold(0.2);
    let err = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(Vec::new())
        .run(Source::Borrowed(&mut system), &fail, &pass, &config)
        .unwrap_err();
    assert_eq!(err, PrismError::NoDiscriminativePvts);
    // Parallel runtimes report the identical error at every width
    // and lookahead depth.
    let factory = || target_domain_score;
    for threads in [1, 2, 8] {
        for depth in [0, 2] {
            let mut config = config.clone();
            config.num_threads = threads;
            config.gt_speculation_depth = depth;
            let err = Diagnosis::new(Algorithm::GrpTest)
                .with_candidates(Vec::new())
                .run(Source::Factory(&factory), &fail, &pass, &config)
                .unwrap_err();
            assert_eq!(err, PrismError::NoDiscriminativePvts, "{threads}t/d{depth}");
        }
    }
}

#[test]
fn group_test_resolves_a_single_candidate_without_bisecting() {
    // One candidate: Alg 3 never partitions — the A3 check doubles as
    // the only intervention and the candidate is the explanation.
    let (pass, fail) = gt_pass_fail();
    let pvts = vec![map_to_domain_pvt(0, "target", &["-1", "1"])];
    let mut system = target_domain_score;
    let config = PrismConfig::with_threshold(0.2);
    let exp = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(pvts.clone())
        .run(Source::Borrowed(&mut system), &fail, &pass, &config)
        .unwrap();
    assert!(exp.resolved);
    assert_eq!(exp.pvt_ids(), vec![0]);
    assert_eq!(exp.final_score, 0.0);
    // Lookahead on a singleton frontier must be a silent no-op.
    let factory = || target_domain_score;
    let mut par_config = config.clone();
    par_config.num_threads = 8;
    par_config.gt_speculation_depth = 4;
    let par = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(pvts)
        .run(Source::Factory(&factory), &fail, &pass, &par_config)
        .unwrap();
    assert_eq!(exp.pvt_ids(), par.pvt_ids());
    assert_eq!(exp.interventions, par.interventions);
    assert_eq!(exp.digest(), par.digest());
}

#[test]
fn group_test_handles_fully_disconnected_dependency_graph() {
    // Four candidates over four disjoint attributes: the PVT
    // dependency graph has no edges, so every min-bisection cut is 0
    // and the split is driven purely by the benefit order. The decoys
    // genuinely modify their columns; only the target PVT repairs.
    let (pass, fail) = gt_pass_fail();
    let pvts = vec![
        map_to_domain_pvt(0, "target", &["-1", "1"]),
        rescale_pvt(1, "a"),
        rescale_pvt(2, "b"),
        rescale_pvt(3, "c"),
    ];
    let mut system = target_domain_score;
    let config = PrismConfig::with_threshold(0.2);
    let exp = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(pvts.clone())
        .run(Source::Borrowed(&mut system), &fail, &pass, &config)
        .unwrap();
    assert!(exp.resolved);
    assert_eq!(exp.pvt_ids(), vec![0], "only the causal PVT is kept");
    // Thread-count and depth invariance hold on edgeless graphs too.
    let factory = || target_domain_score;
    for depth in [0, 1, 4] {
        let mut par_config = config.clone();
        par_config.num_threads = 8;
        par_config.gt_speculation_depth = depth;
        let par = Diagnosis::new(Algorithm::GroupTest)
            .with_candidates(pvts.clone())
            .run(Source::Factory(&factory), &fail, &pass, &par_config)
            .unwrap();
        assert_eq!(exp.pvt_ids(), par.pvt_ids(), "depth {depth}");
        assert_eq!(exp.interventions, par.interventions, "depth {depth}");
        assert_eq!(exp.digest(), par.digest(), "depth {depth}");
    }
}

#[test]
fn group_test_reports_a3_when_every_composed_transform_is_a_noop() {
    // Candidates whose transformations all leave the failing dataset
    // untouched (its values already satisfy the target domains): the
    // composed intervention cannot reduce the malfunction, so the A3
    // applicability check must reject the run rather than recurse
    // into partitions that can never help.
    let (pass, fail) = gt_pass_fail();
    let pvts = vec![
        map_to_domain_pvt(0, "target", &["0", "4"]), // d_fail already in-domain
        Pvt {
            id: 1,
            profile: Profile::DomainNumeric {
                attr: "a".into(),
                lb: 0.0,
                ub: 1000.0,
            },
            transform: Transform::Winsorize {
                attr: "a".into(),
                lb: 0.0,
                ub: 1000.0, // every value already inside the bounds
            },
        },
    ];
    let mut system = target_domain_score;
    let config = PrismConfig::with_threshold(0.2);
    let res = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(pvts.clone())
        .run(Source::Borrowed(&mut system), &fail, &pass, &config);
    assert!(
        matches!(res, Err(PrismError::AssumptionViolated(_))),
        "{res:?}"
    );
    // The parallel runtime takes the same exit before any lookahead.
    let factory = || target_domain_score;
    let mut par_config = config.clone();
    par_config.num_threads = 8;
    par_config.gt_speculation_depth = 2;
    let par = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(pvts)
        .run(Source::Factory(&factory), &fail, &pass, &par_config);
    assert_eq!(res.unwrap_err(), par.unwrap_err());
}

#[test]
fn a_prepared_record_refuses_another_failing_dataset_lint_mode_or_tau() {
    // A `Ranked` record holds a lint verdict and benefits of one
    // failing dataset under one lint mode and τ. A run over another
    // of any of the three is refused with a typed error before the
    // system is evaluated even once; over its own, it equals a run
    // that prepares the same candidates itself.
    let (pass, fail) = gt_pass_fail();
    let pvts = vec![
        map_to_domain_pvt(0, "target", &["-1", "1"]),
        rescale_pvt(1, "a"),
        rescale_pvt(2, "b"),
    ];
    let config = PrismConfig::with_threshold(0.2);
    let ranked = Arc::new(Ranked::new(
        pvts.clone(),
        &fail,
        &config,
        &mut RunMetrics::default(),
    ));
    let evaluations = AtomicUsize::new(0);
    let mut system = |df: &DataFrame| {
        evaluations.fetch_add(1, Ordering::SeqCst);
        target_domain_score(df)
    };
    let mut other_fail = fail.clone();
    other_fail
        .column_mut("a")
        .unwrap()
        .set(0, 7.into())
        .unwrap();
    let cases = [
        (
            "failing dataset",
            other_fail,
            config.clone(),
            "another failing dataset",
        ),
        (
            "lint mode",
            fail.clone(),
            PrismConfig {
                lint: Lint::Prune,
                ..config.clone()
            },
            "lint mode",
        ),
        (
            "tau",
            fail.clone(),
            PrismConfig::with_threshold(0.25),
            "τ = 0.2",
        ),
    ];
    for (label, d_fail, run_config, names) in cases {
        for algo in [Algorithm::Greedy, Algorithm::GroupTest, Algorithm::Auto] {
            let err = Diagnosis::new(algo)
                .with_ranked(Arc::clone(&ranked))
                .run(Source::Borrowed(&mut system), &d_fail, &pass, &run_config)
                .unwrap_err();
            match &err {
                PrismError::BadInput(msg) => assert!(msg.contains(names), "{label}: {msg}"),
                other => panic!("{label}: {other:?}"),
            }
        }
    }
    assert_eq!(evaluations.load(Ordering::SeqCst), 0, "no oracle query");

    // Every algorithm, BugDoc and Anchor over all of the record's
    // candidates included, explains the same over the record as over
    // the candidates it was prepared from.
    for algo in [
        Algorithm::Greedy,
        Algorithm::GroupTest,
        Algorithm::GrpTest,
        Algorithm::BugDoc,
        Algorithm::Anchor,
        Algorithm::Auto,
    ] {
        let prepared = Diagnosis::new(algo)
            .with_ranked(Arc::clone(&ranked))
            .run(Source::Borrowed(&mut system), &fail, &pass, &config)
            .unwrap();
        let given = Diagnosis::new(algo)
            .with_candidates(pvts.clone())
            .run(Source::Borrowed(&mut system), &fail, &pass, &config)
            .unwrap();
        assert_eq!(prepared.digest(), given.digest(), "{}", algo.name());
        assert_eq!(prepared.pvt_ids(), given.pvt_ids(), "{}", algo.name());
        // BugDoc and Anchor prepare nothing; a DataPrism search over
        // given candidates prepares them once.
        let baseline = matches!(algo, Algorithm::BugDoc | Algorithm::Anchor);
        let once = if baseline { 0 } else { pvts.len() as u64 };
        assert_eq!(prepared.metrics.candidates_prepared, 0);
        assert_eq!(given.metrics.candidates_prepared, once, "{}", algo.name());
    }
}
