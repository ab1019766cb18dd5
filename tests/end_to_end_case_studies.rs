//! End-to-end integration tests over the three §5.1 case studies:
//! full discovery-driven diagnosis against the real (retraining)
//! pipelines, checking the paper's headline claims:
//!
//! - DataPrism-GRD resolves every study with < 5 interventions and
//!   finds the planted ground truth;
//! - group testing works on Sentiment/Income but reports an A3
//!   violation (not applicable) on Cardiovascular;
//! - the baselines need (often far) more interventions than GRD.

use dataprism::decision_tree_ext::explain_with_decision_tree;
use dataprism::discovery::discriminative_pvts;
use dataprism::{Algorithm, Diagnosis, PrismError, Source};
use dp_scenarios::{cardio, income, sentiment, Scenario};

fn scenarios() -> Vec<Scenario> {
    vec![
        sentiment::scenario_with_size(400, 42),
        income::scenario_with_size(300, 42),
        cardio::scenario_with_size(400, 42),
    ]
}

#[test]
fn problem_inputs_are_valid() {
    for mut s in scenarios() {
        let pass = s.system.malfunction(&s.d_pass);
        let fail = s.system.malfunction(&s.d_fail);
        assert!(
            pass <= s.config.threshold,
            "{}: D_pass must pass (score {pass}, τ {})",
            s.name,
            s.config.threshold
        );
        assert!(
            fail > s.config.threshold,
            "{}: D_fail must fail (score {fail}, τ {})",
            s.name,
            s.config.threshold
        );
    }
}

#[test]
fn greedy_resolves_all_studies_with_few_interventions() {
    for mut s in scenarios() {
        let exp = Diagnosis::new(Algorithm::Greedy)
            .run(
                Source::Borrowed(s.system.as_mut()),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert!(exp.resolved, "{}: {exp}", s.name);
        assert!(
            exp.interventions < 5,
            "{}: paper claims < 5, got {}",
            s.name,
            exp.interventions
        );
        assert!(
            s.explains_ground_truth(&exp),
            "{}: explanation missed the planted cause: {exp}",
            s.name
        );
        assert!(
            exp.final_score <= s.config.threshold,
            "{}: repaired score {}",
            s.name,
            exp.final_score
        );
    }
}

#[test]
fn greedy_explanations_are_minimal() {
    for mut s in scenarios() {
        let name = s.name;
        let exp = Diagnosis::new(Algorithm::Greedy)
            .run(
                Source::Borrowed(s.system.as_mut()),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Definition 11: dropping any PVT from the explanation must
        // leave the malfunction above τ. Re-check by recomputing the
        // reduced compositions.
        if exp.pvts.len() <= 1 {
            continue; // singleton explanations are trivially minimal
        }
        use dataprism::pvt::apply_composition;
        use rand::SeedableRng;
        for drop in 0..exp.pvts.len() {
            let subset: Vec<&dataprism::Pvt> = exp
                .pvts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, p)| p)
                .collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let (reduced, _) = apply_composition(&subset, &s.d_fail, &mut rng).unwrap();
            let score = s.system.malfunction(&reduced);
            assert!(
                score > s.config.threshold,
                "{name}: dropping PVT {} still passes ({score})",
                exp.pvts[drop].profile
            );
        }
    }
}

#[test]
fn group_testing_matches_fig7_applicability() {
    // Sentiment and Income: applicable and resolving.
    for mut s in [
        sentiment::scenario_with_size(400, 42),
        income::scenario_with_size(300, 42),
    ] {
        let name = s.name;
        for algorithm in [Algorithm::GroupTest, Algorithm::GrpTest] {
            let exp = Diagnosis::new(algorithm)
                .run(
                    Source::Borrowed(s.system.as_mut()),
                    &s.d_fail,
                    &s.d_pass,
                    &s.config,
                )
                .unwrap_or_else(|e| panic!("{name} ({algorithm:?}): {e}"));
            assert!(exp.resolved, "{name} ({algorithm:?}): {exp}");
        }
    }
    // Cardiovascular: the A3 check must fire (Fig 7's "NA").
    let mut s = cardio::scenario_with_size(400, 42);
    let err = Diagnosis::new(Algorithm::GroupTest)
        .run(
            Source::Borrowed(s.system.as_mut()),
            &s.d_fail,
            &s.d_pass,
            &s.config,
        )
        .expect_err("cardio violates A3");
    assert!(matches!(err, PrismError::AssumptionViolated(_)), "{err}");
}

#[test]
fn greedy_beats_bugdoc_on_interventions() {
    for make in [
        || sentiment::scenario_with_size(400, 42),
        || income::scenario_with_size(300, 42),
    ] {
        let mut s = make();
        let name = s.name;
        let greedy = Diagnosis::new(Algorithm::Greedy)
            .run(
                Source::Borrowed(s.system.as_mut()),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut s2 = make();
        let bugdoc = Diagnosis::new(Algorithm::BugDoc)
            .run(
                Source::Borrowed(s2.system.as_mut()),
                &s2.d_fail,
                &s2.d_pass,
                &s2.config,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            greedy.interventions < bugdoc.interventions,
            "{name}: GRD {} vs BugDoc {}",
            greedy.interventions,
            bugdoc.interventions
        );
    }
}

#[test]
fn repaired_dataset_keeps_schema() {
    for mut s in scenarios() {
        let name = s.name;
        let exp = Diagnosis::new(Algorithm::Greedy)
            .run(
                Source::Borrowed(s.system.as_mut()),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            exp.repaired.schema(),
            s.d_fail.schema(),
            "{name}: transformations must preserve the schema"
        );
        assert!(exp.repaired.n_rows() > 0);
    }
}

#[test]
fn baselines_conserve_charged_queries() {
    // BugDoc, Anchor and the Appendix B decision tree charge through
    // the same runtime as GRD and GT: every charged query is a cache
    // hit, a miss or a sampled verdict, and the explanation's count is
    // the runtime's.
    for mut s in scenarios() {
        let name = s.name;
        let discriminative = discriminative_pvts(&s.d_pass, &s.d_fail, &s.config.discovery);
        let datasets = [s.d_pass.clone()];
        let system = s.system.as_mut();
        let runs = [
            (
                "bugdoc",
                Diagnosis::new(Algorithm::BugDoc).run(
                    Source::Borrowed(&mut *system),
                    &s.d_fail,
                    &s.d_pass,
                    &s.config,
                ),
            ),
            (
                "anchor",
                Diagnosis::new(Algorithm::Anchor).run(
                    Source::Borrowed(&mut *system),
                    &s.d_fail,
                    &s.d_pass,
                    &s.config,
                ),
            ),
            (
                "decision tree",
                explain_with_decision_tree(
                    system,
                    &s.d_fail,
                    &datasets,
                    &discriminative,
                    &s.config,
                ),
            ),
        ];
        for (algo, run) in runs {
            let exp = run.unwrap_or_else(|e| panic!("{name}/{algo}: {e}"));
            let m = &exp.metrics;
            assert_eq!(
                m.cache_hits + m.cache_misses,
                m.charged_queries,
                "{name}/{algo}: {m:?}"
            );
            assert_eq!(m.charged_queries, exp.interventions as u64, "{name}/{algo}");
        }
    }
}
