//! Parity and savings guarantees of the static lint pass (`dp_lint`).
//!
//! The contract under test, from two directions:
//!
//! 1. **Parity** — `Lint::Prune` never changes the final explanation.
//!    On discovery-produced candidate sets the Error rules never fire
//!    (a discriminative PVT has positive violation and coverage by
//!    construction), so pruning is a bit-identical no-op: same PVTs,
//!    same scores, same trace, same intervention count, same repaired
//!    dataset — on every bundled scenario, both algorithms (GRD/GT),
//!    and every thread count in {1, 2, 8}.
//! 2. **Savings** — on candidate sets that *do* contain provably
//!    futile PVTs (here: hand-built fixes that write an attribute
//!    disjoint from their profile, rule L2), pruning removes them
//!    before ranking and measurably reduces the charged oracle
//!    queries, while the explanation, scores, and repaired dataset
//!    stay identical.
//!
//! Degenerate inputs (empty candidate set, all candidates pruned)
//! must exit through the documented error paths, never panic.

use dataprism::report::markdown_report;
use dataprism::{
    fingerprint, Algorithm, Diagnosis, Explanation, Lint, PrismConfig, PrismError, Profile, Pvt,
    Result, Severity, Source, TraceConfig, Transform,
};
use dp_frame::{Column, DType, DataFrame};
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, Scenario};
use proptest::prelude::*;
use std::collections::BTreeSet;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

/// Bit-level equality of two diagnosis outcomes: explanation set,
/// intervention count, score bits, resolution, trace, and repaired
/// fingerprint (cache counters excluded — scheduling-dependent).
fn assert_identical(name: &str, serial: &Result<Explanation>, other: &Result<Explanation>) {
    match (serial, other) {
        (Ok(s), Ok(p)) => {
            assert_eq!(s.pvt_ids(), p.pvt_ids(), "{name}: explanation set");
            assert_eq!(s.interventions, p.interventions, "{name}: interventions");
            assert_eq!(
                s.initial_score.to_bits(),
                p.initial_score.to_bits(),
                "{name}: initial score"
            );
            assert_eq!(
                s.final_score.to_bits(),
                p.final_score.to_bits(),
                "{name}: final score"
            );
            assert_eq!(s.resolved, p.resolved, "{name}: resolved flag");
            assert_eq!(s.digest(), p.digest(), "{name}: digest");
            assert_eq!(
                fingerprint(&s.repaired),
                fingerprint(&p.repaired),
                "{name}: repaired dataset"
            );
        }
        (Err(se), Err(pe)) => assert_eq!(se, pe, "{name}: error value"),
        (s, p) => panic!("{name}: outcomes disagree on success: {s:?} vs {p:?}"),
    }
}

#[test]
fn prune_is_bit_identical_on_every_scenario_grd() {
    for mut scenario in scenarios() {
        let mut off = scenario.config.clone();
        off.lint = Lint::Off;
        let baseline = Diagnosis::new(Algorithm::Greedy).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &off,
        );
        let mut prune = scenario.config.clone();
        prune.lint = Lint::Prune;
        let pruned = Diagnosis::new(Algorithm::Greedy).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &prune,
        );
        assert_identical(scenario.name, &baseline, &pruned);
        if let Ok(exp) = &pruned {
            assert!(
                exp.lint.analyzed,
                "{}: prune run was analyzed",
                scenario.name
            );
            assert!(
                exp.lint.pruned.is_empty(),
                "{}: nothing prunable",
                scenario.name
            );
            assert_eq!(exp.metrics.lint_pruned, 0);
        }
        for threads in THREAD_COUNTS {
            let mut config = prune.clone();
            config.num_threads = threads;
            let par = Diagnosis::new(Algorithm::Greedy).run(
                Source::Factory(scenario.factory.as_ref()),
                &scenario.d_fail,
                &scenario.d_pass,
                &config,
            );
            assert_identical(scenario.name, &baseline, &par);
        }
    }
}

#[test]
fn prune_is_bit_identical_on_every_scenario_gt() {
    for mut scenario in scenarios() {
        let mut off = scenario.config.clone();
        off.lint = Lint::Off;
        let baseline = Diagnosis::new(Algorithm::GroupTest).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &off,
        );
        let mut prune = scenario.config.clone();
        prune.lint = Lint::Prune;
        let pruned = Diagnosis::new(Algorithm::GroupTest).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &prune,
        );
        assert_identical(scenario.name, &baseline, &pruned);
        for threads in THREAD_COUNTS {
            let mut config = prune.clone();
            config.num_threads = threads;
            let par = Diagnosis::new(Algorithm::GroupTest).run(
                Source::Factory(scenario.factory.as_ref()),
                &scenario.d_fail,
                &scenario.d_pass,
                &config,
            );
            assert_identical(scenario.name, &baseline, &par);
        }
    }
}

#[test]
fn discovery_candidates_never_trip_error_rules() {
    // The parity guarantee rests on this: a discriminative PVT has
    // positive violation and positive coverage on D_fail by
    // construction, so L1–L3 can never reach Error severity on
    // discovery output (L4/L5 emit at most Warn/Info).
    for mut scenario in scenarios() {
        let config = scenario.config.clone(); // default Lint::Report
        assert_eq!(config.lint, Lint::Report);
        if let Ok(exp) = Diagnosis::new(Algorithm::Greedy).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &config,
        ) {
            assert!(exp.lint.analyzed, "{}: report mode analyzes", scenario.name);
            assert_eq!(
                exp.lint.count(Severity::Error),
                0,
                "{}: no Error-level diagnostics on discovery output: {:?}",
                scenario.name,
                exp.lint.diagnostics
            );
            assert!(exp.lint.pruned.is_empty(), "report mode never prunes");
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-built candidate sets: measurable savings and degenerate exits.
// ---------------------------------------------------------------------------

/// The miniature sentiment system: malfunction = fraction of labels
/// outside {-1, 1}. Only the "target" column matters.
fn label_system(df: &DataFrame) -> f64 {
    let col = df.column("target").unwrap();
    let bad = col
        .str_values()
        .iter()
        .filter(|(_, s)| *s != "-1" && *s != "1")
        .count();
    bad as f64 / df.n_rows().max(1) as f64
}

fn cat(name: &str, vals: &[&str]) -> Column {
    Column::from_strings(
        name,
        DType::Categorical,
        vals.iter().map(|s| Some(s.to_string())).collect(),
    )
}

fn floats(name: &str, vals: &[f64]) -> Column {
    Column::from_floats(name, vals.iter().map(|&v| Some(v)).collect())
}

fn pass_fail() -> (DataFrame, DataFrame) {
    let pass = DataFrame::from_columns(vec![
        cat("target", &["-1", "1", "1", "-1"]),
        floats("len", &[4.0, 9.0, 6.0, 11.0]),
        floats("aux", &[40.0, 90.0, 60.0, 110.0]),
    ])
    .unwrap();
    let fail = DataFrame::from_columns(vec![
        cat("target", &["0", "4", "4", "0"]),
        floats("len", &[3.0, 15.0, 7.0, 12.0]),
        floats("aux", &[30.0, 150.0, 70.0, 120.0]),
    ])
    .unwrap();
    (pass, fail)
}

/// One real cause plus three provably futile candidates. The junk
/// profiles sit on "len" (violated — every value is outside [0, 1])
/// and their fixes write "aux": rule L2 proves the fix cannot move the
/// profile parameter, so `Prune` drops them. Left in (`Off`), their
/// shared attributes make {len, aux} the highest-degree nodes of the
/// PVT–attribute graph, so greedy's O1 prioritization explores and
/// rejects every one of them — each a charged oracle query — before
/// reaching the real cause on degree-1 "target". Every transform is
/// deterministic, so RNG streams cannot perturb the comparison.
fn candidates_with_junk() -> Vec<Pvt> {
    let domain: BTreeSet<String> = ["-1", "1"].iter().map(|s| s.to_string()).collect();
    let junk = |id: usize, ub: f64| Pvt {
        id,
        profile: Profile::DomainNumeric {
            attr: "len".into(),
            lb: 0.0,
            ub: 1.0,
        },
        transform: Transform::Winsorize {
            attr: "aux".into(),
            lb: 0.0,
            ub,
        },
    };
    vec![
        junk(0, 50.0),
        junk(1, 60.0),
        junk(2, 65.0),
        Pvt {
            id: 3,
            profile: Profile::DomainCategorical {
                attr: "target".into(),
                values: domain.clone(),
            },
            transform: Transform::MapToDomain {
                attr: "target".into(),
                values: domain,
            },
        },
    ]
}

fn config_with(lint: Lint) -> PrismConfig {
    let mut config = PrismConfig::with_threshold(0.2);
    config.lint = lint;
    config
}

#[test]
fn prune_saves_oracle_queries_grd() {
    let (pass, fail) = pass_fail();
    let run = |lint: Lint| {
        let mut system = label_system;
        Diagnosis::new(Algorithm::Greedy)
            .with_candidates(candidates_with_junk())
            .run(
                Source::Borrowed(&mut system),
                &fail,
                &pass,
                &config_with(lint),
            )
            .unwrap()
    };
    let off = run(Lint::Off);
    let pruned = run(Lint::Prune);
    // Same diagnosis...
    assert_eq!(off.pvt_ids(), pruned.pvt_ids());
    assert_eq!(pruned.pvt_ids(), vec![3], "only the real cause survives");
    assert_eq!(off.final_score.to_bits(), pruned.final_score.to_bits());
    assert!(off.resolved && pruned.resolved);
    assert_eq!(fingerprint(&off.repaired), fingerprint(&pruned.repaired));
    // ...for measurably fewer charged queries.
    assert!(
        pruned.interventions < off.interventions,
        "pruning must save oracle queries: {} (prune) vs {} (off)",
        pruned.interventions,
        off.interventions
    );
    assert_eq!(
        pruned.metrics.lint_pruned, 3,
        "three junk candidates dropped"
    );
    assert_eq!(pruned.lint.pruned, vec![0, 1, 2]);
    assert_eq!(off.metrics.lint_pruned, 0);
    assert!(!off.lint.analyzed, "Lint::Off skips the analysis");
}

#[test]
fn prune_saves_oracle_queries_gt() {
    let (pass, fail) = pass_fail();
    let run = |lint: Lint| {
        let mut system = label_system;
        Diagnosis::new(Algorithm::GroupTest)
            .with_candidates(candidates_with_junk())
            .run(
                Source::Borrowed(&mut system),
                &fail,
                &pass,
                &config_with(lint),
            )
            .unwrap()
    };
    let off = run(Lint::Off);
    let pruned = run(Lint::Prune);
    assert_eq!(off.pvt_ids(), pruned.pvt_ids());
    assert_eq!(pruned.pvt_ids(), vec![3]);
    assert_eq!(off.final_score.to_bits(), pruned.final_score.to_bits());
    assert!(off.resolved && pruned.resolved);
    assert_eq!(fingerprint(&off.repaired), fingerprint(&pruned.repaired));
    assert!(
        pruned.interventions < off.interventions,
        "pruning must shrink the GT search: {} (prune) vs {} (off)",
        pruned.interventions,
        off.interventions
    );
    assert_eq!(pruned.metrics.lint_pruned, 3);
}

#[test]
fn pruned_savings_render_in_the_report() {
    let (pass, fail) = pass_fail();
    let mut system = label_system;
    let config = config_with(Lint::Prune);
    let exp = Diagnosis::new(Algorithm::Greedy)
        .with_candidates(candidates_with_junk())
        .run(Source::Borrowed(&mut system), &fail, &pass, &config)
        .unwrap();
    let report = markdown_report(&exp, &pass, &fail, config.threshold, &config.discovery);
    assert!(report.contains("- lint: **"), "lint summary line");
    assert!(
        report.contains("3 candidates pruned before ranking"),
        "pruning savings surfaced: {report}"
    );
    assert!(report.contains("[L2/error]"), "the findings are itemized");
}

#[test]
fn the_report_trail_counts_the_candidates_the_search_starts_from() {
    // Supplied candidates skip discovery, and pruning shrinks the set:
    // the trail's count is the one the search ran on, for every
    // algorithm that reports a trail.
    let (pass, fail) = pass_fail();
    let n = candidates_with_junk().len();
    for (algorithm, lint, expected) in [
        (Algorithm::Greedy, Lint::Report, n),
        (Algorithm::Greedy, Lint::Prune, n - 3),
        (Algorithm::GroupTest, Lint::Prune, n - 3),
        (Algorithm::BugDoc, Lint::Report, n),
        (Algorithm::Anchor, Lint::Report, n),
    ] {
        let mut config = config_with(lint);
        config.trace = TraceConfig::Collect;
        let mut system = label_system;
        let exp = Diagnosis::new(algorithm)
            .with_candidates(candidates_with_junk())
            .run(Source::Borrowed(&mut system), &fail, &pass, &config)
            .unwrap();
        let report = markdown_report(&exp, &pass, &fail, config.threshold, &config.discovery);
        let line = format!("- discovered {expected} discriminative PVTs\n");
        assert_eq!(
            report.matches(&line).count(),
            1,
            "{algorithm:?} under {lint:?}: {report}"
        );
    }
}

#[test]
fn all_error_candidate_set_exits_cleanly() {
    let (pass, fail) = pass_fail();
    let junk_only: Vec<Pvt> = candidates_with_junk().into_iter().take(3).collect();

    // Prune drops everything: both algorithms report the documented
    // no-candidates error rather than panicking.
    let mut system = label_system;
    let err = Diagnosis::new(Algorithm::Greedy)
        .with_candidates(junk_only.clone())
        .run(
            Source::Borrowed(&mut system),
            &fail,
            &pass,
            &config_with(Lint::Prune),
        )
        .unwrap_err();
    assert_eq!(err, PrismError::NoDiscriminativePvts);
    let err = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(junk_only.clone())
        .run(
            Source::Borrowed(&mut system),
            &fail,
            &pass,
            &config_with(Lint::Prune),
        )
        .unwrap_err();
    assert_eq!(err, PrismError::NoDiscriminativePvts);

    // Unpruned, GT's A3 check catches the same futility the hard way:
    // the full composition cannot reduce the malfunction.
    let err = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(junk_only)
        .run(
            Source::Borrowed(&mut system),
            &fail,
            &pass,
            &config_with(Lint::Off),
        )
        .unwrap_err();
    assert!(
        matches!(err, PrismError::AssumptionViolated(_)),
        "unpruned junk-only set must fail A3: {err:?}"
    );
}

// ---------------------------------------------------------------------------
// L6–L9 (abstract interpretation): mode matrix, duplicate/unreachable
// savings, chunked-frame agreement, and transfer-function soundness.
// ---------------------------------------------------------------------------

/// Every scenario × algorithm × thread count × lint mode lands on the
/// same explanation digest: the analysis may merge and prune, never
/// steer. (Digest covers pvt_ids, score bits, resolution, and the
/// repaired fingerprint.)
#[test]
fn lint_mode_matrix_agrees_on_digest() {
    for mut scenario in scenarios() {
        for (algo, serial_digest) in [("grd", None::<u64>), ("gt", None)] {
            let mut reference: Option<u64> = serial_digest;
            let mut check = |label: String, result: Result<Explanation>| {
                let digest = result.as_ref().ok().map(|e| e.digest());
                let Some(d) = digest else {
                    return; // error outcomes are covered by assert_identical tests
                };
                match reference {
                    None => reference = Some(d),
                    Some(r) => assert_eq!(r, d, "{}: {label} digest drifted", scenario.name),
                }
            };
            for lint in [Lint::Off, Lint::Report, Lint::Prune] {
                let mut config = scenario.config.clone();
                config.lint = lint;
                let serial = match algo {
                    "grd" => Diagnosis::new(Algorithm::Greedy).run(
                        Source::Borrowed(scenario.system.as_mut()),
                        &scenario.d_fail,
                        &scenario.d_pass,
                        &config,
                    ),
                    _ => Diagnosis::new(Algorithm::GroupTest).run(
                        Source::Borrowed(scenario.system.as_mut()),
                        &scenario.d_fail,
                        &scenario.d_pass,
                        &config,
                    ),
                };
                check(format!("{algo}/{lint:?}/serial"), serial);
                for threads in [1usize, 8] {
                    let mut par_config = config.clone();
                    par_config.num_threads = threads;
                    let par = match algo {
                        "grd" => Diagnosis::new(Algorithm::Greedy).run(
                            Source::Factory(scenario.factory.as_ref()),
                            &scenario.d_fail,
                            &scenario.d_pass,
                            &par_config,
                        ),
                        _ => Diagnosis::new(Algorithm::GroupTest).run(
                            Source::Factory(scenario.factory.as_ref()),
                            &scenario.d_fail,
                            &scenario.d_pass,
                            &par_config,
                        ),
                    };
                    check(format!("{algo}/{lint:?}/threads={threads}"), par);
                }
            }
        }
    }
}

/// A triplicated junk candidate (one L6 equivalence class), two
/// τ-unreachable candidates (L7 certificates), and the real cause.
/// The junk sits on "len", the highest-degree attribute, so greedy's
/// O1 prioritization explores every copy — one charged query each —
/// before reaching the real cause on degree-1 "target". `Prune`
/// collapses the class to its representative and drops the
/// unreachable pair, paying measurably fewer queries for the same
/// explanation. All transforms are deterministic, so RNG streams
/// cannot perturb the comparison.
fn candidates_with_duplicates_and_unreachable() -> Vec<Pvt> {
    let domain: BTreeSet<String> = ["-1", "1"].iter().map(|s| s.to_string()).collect();
    // Repairs its own profile ("len" into [0, 1]) but not the labels:
    // a clean L6-only class, charged three times unpruned.
    let dup = |id: usize| Pvt {
        id,
        profile: Profile::DomainNumeric {
            attr: "len".into(),
            lb: 0.0,
            ub: 1.0,
        },
        transform: Transform::Winsorize {
            attr: "len".into(),
            lb: 0.0,
            ub: 1.0,
        },
    };
    // "len" sits in [3, 15] with no nulls, so winsorizing into
    // [20, 30] lands the whole column outside the profile's [0, 1]
    // region: the violation provably stays above any τ < 1.
    let unreachable = |id: usize| Pvt {
        id,
        profile: Profile::DomainNumeric {
            attr: "len".into(),
            lb: 0.0,
            ub: 1.0,
        },
        transform: Transform::Winsorize {
            attr: "len".into(),
            lb: 20.0,
            ub: 30.0,
        },
    };
    vec![
        dup(0),
        dup(1),
        dup(2),
        unreachable(3),
        unreachable(4),
        Pvt {
            id: 5,
            profile: Profile::DomainCategorical {
                attr: "target".into(),
                values: domain.clone(),
            },
            transform: Transform::MapToDomain {
                attr: "target".into(),
                values: domain,
            },
        },
    ]
}

#[test]
fn subsumption_and_unreachability_save_queries_grd() {
    let (pass, fail) = pass_fail();
    let run = |lint: Lint| {
        let mut system = label_system;
        Diagnosis::new(Algorithm::Greedy)
            .with_candidates(candidates_with_duplicates_and_unreachable())
            .run(
                Source::Borrowed(&mut system),
                &fail,
                &pass,
                &config_with(lint),
            )
            .unwrap()
    };
    let off = run(Lint::Off);
    let pruned = run(Lint::Prune);
    assert_eq!(off.pvt_ids(), pruned.pvt_ids());
    assert_eq!(pruned.pvt_ids(), vec![5], "only the real cause survives");
    assert_eq!(off.final_score.to_bits(), pruned.final_score.to_bits());
    assert_eq!(fingerprint(&off.repaired), fingerprint(&pruned.repaired));
    assert!(
        pruned.interventions < off.interventions,
        "merging + unreachability pruning must save queries: {} vs {}",
        pruned.interventions,
        off.interventions
    );
    assert_eq!(pruned.lint.subsumed, vec![1, 2], "duplicates merged (L6)");
    assert_eq!(
        pruned.lint.unreachable_ids(),
        [3, 4].into_iter().collect::<BTreeSet<usize>>(),
        "τ-unreachability certified (L7)"
    );
    assert_eq!(pruned.metrics.lint_subsumed, 2);
    assert_eq!(pruned.metrics.lint_pruned, 2);
    assert_eq!(pruned.metrics.lint_subsumed, 2);
    assert_eq!(pruned.metrics.lint_unreachable, 2);
}

#[test]
fn subsumption_and_unreachability_save_queries_gt() {
    let (pass, fail) = pass_fail();
    let run = |lint: Lint| {
        let mut system = label_system;
        Diagnosis::new(Algorithm::GroupTest)
            .with_candidates(candidates_with_duplicates_and_unreachable())
            .run(
                Source::Borrowed(&mut system),
                &fail,
                &pass,
                &config_with(lint),
            )
            .unwrap()
    };
    let off = run(Lint::Off);
    let pruned = run(Lint::Prune);
    assert_eq!(off.pvt_ids(), pruned.pvt_ids());
    assert_eq!(pruned.pvt_ids(), vec![5]);
    assert_eq!(off.final_score.to_bits(), pruned.final_score.to_bits());
    assert_eq!(fingerprint(&off.repaired), fingerprint(&pruned.repaired));
    assert!(
        pruned.interventions < off.interventions,
        "the GT tree over one representative must be smaller: {} vs {}",
        pruned.interventions,
        off.interventions
    );
    assert_eq!(pruned.metrics.lint_subsumed, 2);
    assert_eq!(pruned.metrics.lint_pruned, 2);
}

#[test]
fn subsumption_savings_render_in_the_report() {
    let (pass, fail) = pass_fail();
    let mut system = label_system;
    let config = config_with(Lint::Prune);
    let exp = Diagnosis::new(Algorithm::Greedy)
        .with_candidates(candidates_with_duplicates_and_unreachable())
        .run(Source::Borrowed(&mut system), &fail, &pass, &config)
        .unwrap();
    let report = markdown_report(&exp, &pass, &fail, config.threshold, &config.discovery);
    assert!(
        report.contains("2 candidates subsumed into equivalence-class representatives"),
        "merge savings surfaced: {report}"
    );
    assert!(report.contains("[L7/error]"), "certificates itemized");
}

#[test]
fn empty_candidate_set_exits_cleanly_under_every_mode() {
    let (pass, fail) = pass_fail();
    for lint in [Lint::Off, Lint::Report, Lint::Prune] {
        let mut system = label_system;
        let err = Diagnosis::new(Algorithm::Greedy)
            .with_candidates(Vec::new())
            .run(
                Source::Borrowed(&mut system),
                &fail,
                &pass,
                &config_with(lint),
            )
            .unwrap_err();
        assert_eq!(err, PrismError::NoDiscriminativePvts, "{lint:?}");
        let err = Diagnosis::new(Algorithm::GroupTest)
            .with_candidates(Vec::new())
            .run(
                Source::Borrowed(&mut system),
                &fail,
                &pass,
                &config_with(lint),
            )
            .unwrap_err();
        assert_eq!(err, PrismError::NoDiscriminativePvts, "{lint:?}");
    }
}

// ---------------------------------------------------------------------------
// Chunked-frame agreement: the abstract-interpretation pass reads
// D_fail only through dp_stats column summaries, so candidate facts
// and diagnostics must be identical whether the frame's chunks are
// live-aliased copy-on-write overlays or eagerly materialized
// refcount-1 storage — including on frames wide enough to straddle
// the CHUNK_ROWS boundary.
// ---------------------------------------------------------------------------

/// Rebuild `df` value-by-value: the eager-materialization oracle
/// sharing no chunks with the source.
fn deep_copy(df: &DataFrame) -> DataFrame {
    let cols = df
        .columns()
        .iter()
        .map(|c| {
            Column::from_values(
                c.name(),
                c.dtype(),
                (0..c.len()).map(|i| c.get(i)).collect(),
            )
            .expect("deep copy preserves dtypes")
        })
        .collect();
    DataFrame::from_columns(cols).expect("deep copy rebuilds")
}

/// Every concrete value of `post` lies inside the abstract post-state
/// of its column: interval membership for numerics, support
/// membership for strings, and the observed null fraction inside the
/// certified `[null_lo, null_hi]` band.
fn assert_concrete_contained(post: &DataFrame, abs: &dp_lint::domains::AbsState, what: &str) {
    for col in post.columns() {
        let a = abs.col(col.name());
        if col.dtype().is_numeric() {
            for (row, v) in col.f64_values() {
                assert!(
                    a.interval.contains(v),
                    "{what}: {}[{row}] = {v} escapes {:?}",
                    col.name(),
                    a.interval
                );
            }
        } else if col.dtype().is_string() {
            for (row, s) in col.str_values() {
                assert!(
                    a.support.contains(s),
                    "{what}: {}[{row}] = {s:?} outside support {:?}",
                    col.name(),
                    a.support
                );
            }
        }
        let nulls = col.null_count() as f64 / col.len().max(1) as f64;
        assert!(
            a.admits_null_fraction(nulls),
            "{what}: {} null fraction {nulls} outside [{}, {}]",
            col.name(),
            a.null_lo,
            a.null_hi
        );
    }
}

#[test]
fn lint_facts_agree_on_chunk_straddling_cow_frames() {
    use dataprism::lint::{candidate_facts, lint_pvts, seed_state};
    use dp_lint::absint::apply_chain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Two chunks in every column, with the second only partly full.
    const ROWS: usize = dp_frame::CHUNK_ROWS + 1000;
    let nums: Vec<Option<f64>> = (0..ROWS)
        .map(|i| {
            if i % 97 == 0 {
                None
            } else {
                Some((i % 200) as f64 - 50.0)
            }
        })
        .collect();
    let aux: Vec<Option<f64>> = (0..ROWS).map(|i| Some((i % 37) as f64 * 10.0)).collect();
    let base = DataFrame::from_columns(vec![
        Column::from_floats("num", nums),
        Column::from_floats("aux", aux),
    ])
    .unwrap();

    // A live alias: the overlay initially shares every chunk with
    // `base`; the vectorized winsorize kernel then copy-on-writes the
    // "num" chunks while "aux" stays shared — exactly the state the
    // PR 8 kernels leave behind mid-diagnosis.
    let overlay = base.clone();
    let mut rng = StdRng::seed_from_u64(7);
    let winsorize = Transform::Winsorize {
        attr: "num".into(),
        lb: -20.0,
        ub: 120.0,
    };
    let (cow_fail, _) = winsorize.apply(&overlay, &mut rng).unwrap();
    assert!(
        cow_fail
            .column("aux")
            .unwrap()
            .shares_chunks_with(base.column("aux").unwrap()),
        "untouched column must keep aliasing the base frame"
    );
    assert!(
        !cow_fail
            .column("num")
            .unwrap()
            .shares_chunks_with(base.column("num").unwrap()),
        "written column must have been un-shared"
    );
    let eager_fail = deep_copy(&cow_fail);

    // Winsorize / rescale / impute write-sets, plus one L2 candidate
    // whose fix writes an attribute disjoint from its profile.
    let pvts = vec![
        Pvt {
            id: 0,
            profile: Profile::DomainNumeric {
                attr: "num".into(),
                lb: -20.0,
                ub: 100.0,
            },
            transform: Transform::Winsorize {
                attr: "num".into(),
                lb: -20.0,
                ub: 100.0,
            },
        },
        Pvt {
            id: 1,
            profile: Profile::DomainNumeric {
                attr: "aux".into(),
                lb: 0.0,
                ub: 1.0,
            },
            transform: Transform::LinearRescale {
                attr: "aux".into(),
                lb: 0.0,
                ub: 1.0,
            },
        },
        Pvt {
            id: 2,
            profile: Profile::Missing {
                attr: "num".into(),
                theta: 0.001,
            },
            transform: Transform::Impute {
                attr: "num".into(),
                strategy: dataprism::transform::ImputeStrategy::Central,
            },
        },
        Pvt {
            id: 3,
            profile: Profile::DomainNumeric {
                attr: "num".into(),
                lb: 0.0,
                ub: 1.0,
            },
            transform: Transform::Winsorize {
                attr: "aux".into(),
                lb: 0.0,
                ub: 1.0,
            },
        },
    ];

    // Facts and diagnostics are chunk-layout-independent.
    for pvt in &pvts {
        assert_eq!(
            candidate_facts(pvt, &cow_fail),
            candidate_facts(pvt, &eager_fail),
            "facts drifted on PVT {}",
            pvt.id
        );
    }
    let cow_diag = lint_pvts(&pvts, &cow_fail, 0.2);
    let eager_diag = lint_pvts(&pvts, &eager_fail, 0.2);
    assert_eq!(cow_diag.diagnostics, eager_diag.diagnostics);
    assert!(
        cow_diag
            .diagnostics
            .iter()
            .any(|d| d.rule == dp_lint::RuleId::TransformConsistency && d.pvt_ids == vec![3]),
        "the L2 candidate is flagged on the chunked frame: {:?}",
        cow_diag.diagnostics
    );

    // Soundness on the straddling frame: each deterministic
    // candidate's concrete post-frame is contained in the abstract
    // post-state of its lowered transfer chain.
    let state = seed_state(&cow_fail);
    for pvt in pvts.iter().take(3) {
        let facts = candidate_facts(pvt, &cow_fail);
        let abs_post = apply_chain(&state, &facts.transfer);
        let mut rng = StdRng::seed_from_u64(11);
        let (concrete_post, _) = pvt.transform.apply(&cow_fail, &mut rng).unwrap();
        assert_concrete_contained(&concrete_post, &abs_post, &format!("pvt {}", pvt.id));
    }
}

// ---------------------------------------------------------------------------
// Transfer-function soundness (proptest): for random frames and
// random deterministic transforms, the abstract post-state computed
// by the lowered transfer chain contains the concrete post-frame —
// the certificate rules L6/L7/L9 are only as sound as this containment.
// ---------------------------------------------------------------------------

proptest! {

    #[test]
    fn abstract_post_contains_concrete_post(
        vals in prop::collection::vec(
            prop_oneof![
                4 => (-1e3f64..1e3).prop_map(Some),
                1 => Just(None),
            ],
            1..120,
        ),
        kind in 0usize..4,
        a in -50f64..50.0,
        b in 0f64..100.0,
        seed in 0u64..1000,
    ) {
        use dataprism::lint::{candidate_facts, seed_state};
        use dp_lint::absint::apply_chain;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let lb = a.min(a + b);
        let ub = a.max(a + b);
        let df = DataFrame::from_columns(vec![Column::from_floats("x", vals)]).unwrap();
        let transform = match kind {
            0 => Transform::Winsorize { attr: "x".into(), lb, ub },
            1 => Transform::LinearRescale { attr: "x".into(), lb, ub },
            2 => Transform::Impute {
                attr: "x".into(),
                strategy: dataprism::transform::ImputeStrategy::Central,
            },
            _ => Transform::Impute {
                attr: "x".into(),
                strategy: dataprism::transform::ImputeStrategy::Mode,
            },
        };
        let pvt = Pvt {
            id: 0,
            profile: Profile::DomainNumeric { attr: "x".into(), lb, ub },
            transform,
        };
        let state = seed_state(&df);
        let facts = candidate_facts(&pvt, &df);
        let abs_post = apply_chain(&state, &facts.transfer);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok((post, _)) = pvt.transform.apply(&df, &mut rng) {
            assert_concrete_contained(&post, &abs_post, "random transform");
        }
    }
}
