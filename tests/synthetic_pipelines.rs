//! Integration tests over the §5.2 / appendix D synthetic pipelines:
//! the intervention-complexity claims that Figs 8–9 visualize.

use dataprism::{Algorithm, Diagnosis, Source};
use dp_scenarios::synthetic::{
    adversarial_rank, conjunctive_cause, disjunctive_cause, single_cause, toy_fig6,
};

#[test]
fn greedy_interventions_stay_flat_as_pvts_grow() {
    // Fig 9(b): with O1-O3 satisfied, GRD's intervention count does
    // not grow with the number of discriminative PVTs.
    let mut counts = Vec::new();
    for k in [10usize, 40, 120] {
        let mut s = single_cause(k.div_ceil(2), k, 5);
        let exp = Diagnosis::new(Algorithm::Greedy)
            .with_candidates(s.pvts.clone())
            .run(
                Source::Borrowed(&mut s.system),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap();
        assert!(exp.resolved);
        counts.push(exp.interventions);
    }
    assert!(
        counts.iter().all(|&c| c <= 5),
        "GRD must stay < 5 (paper Fig 9(b)): {counts:?}"
    );
}

#[test]
fn group_testing_interventions_grow_logarithmically() {
    // The paper's O(t log |X|) bound with t = 1.
    for (k, bound) in [(16usize, 14), (64, 20), (256, 26)] {
        let mut s = single_cause(k.div_ceil(2), k, 6);
        let exp = Diagnosis::new(Algorithm::GroupTest)
            .with_candidates(s.pvts.clone())
            .run(
                Source::Borrowed(&mut s.system),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap();
        assert!(exp.resolved);
        assert!(
            exp.interventions <= bound,
            "k={k}: {} interventions exceeds the O(log) bound {bound}",
            exp.interventions
        );
    }
}

#[test]
fn conjunctive_causes_are_fully_recovered() {
    for size in [2usize, 5, 8] {
        let mut s = conjunctive_cause(16, 32, size, 7);
        let exp = Diagnosis::new(Algorithm::Greedy)
            .with_candidates(s.pvts.clone())
            .run(
                Source::Borrowed(&mut s.system),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap();
        assert!(exp.resolved, "size {size}");
        assert!(
            s.is_exact_cause(&exp.pvt_ids()),
            "size {size}: got {:?}",
            exp.pvt_ids()
        );
    }
}

#[test]
fn disjunctive_causes_yield_one_alternative() {
    for groups in [2usize, 4, 8] {
        let mut s = disjunctive_cause(16, 32, groups, 8);
        let exp = Diagnosis::new(Algorithm::Greedy)
            .with_candidates(s.pvts.clone())
            .run(
                Source::Borrowed(&mut s.system),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap();
        assert!(exp.resolved, "groups {groups}");
        assert_eq!(
            exp.pvts.len(),
            1,
            "minimality picks exactly one alternative, got {:?}",
            exp.pvt_ids()
        );
        assert!(s.covers_cause(&exp.pvt_ids()));
    }
}

#[test]
fn rank54_reproduces_the_sec52_gap() {
    // §5.2: the cause is benefit-ranked 54th → GRD needs exactly 54
    // interventions; GT needs O(log 54) (paper: 9).
    let mut s = adversarial_rank(54, 3);
    let greedy = Diagnosis::new(Algorithm::Greedy)
        .with_candidates(s.pvts.clone())
        .run(
            Source::Borrowed(&mut s.system),
            &s.d_fail,
            &s.d_pass,
            &s.config,
        )
        .unwrap();
    assert!(greedy.resolved);
    assert_eq!(greedy.interventions, 54);

    let mut s = adversarial_rank(54, 3);
    let gt = Diagnosis::new(Algorithm::GroupTest)
        .with_candidates(s.pvts.clone())
        .run(
            Source::Borrowed(&mut s.system),
            &s.d_fail,
            &s.d_pass,
            &s.config,
        )
        .unwrap();
    assert!(gt.resolved);
    assert!(
        gt.interventions <= 15,
        "GT should be ~9 (paper), got {}",
        gt.interventions
    );
}

#[test]
fn toy_fig6_explanations_are_valid_disjuncts() {
    for seed in 0..5 {
        for algorithm in [Algorithm::GroupTest, Algorithm::GrpTest] {
            let mut s = toy_fig6(seed);
            let exp = Diagnosis::new(algorithm)
                .with_candidates(s.pvts.clone())
                .run(
                    Source::Borrowed(&mut s.system),
                    &s.d_fail,
                    &s.d_pass,
                    &s.config,
                )
                .unwrap();
            assert!(exp.resolved, "seed {seed} {algorithm:?}");
            assert!(
                s.covers_cause(&exp.pvt_ids()),
                "seed {seed} {algorithm:?}: {:?}",
                exp.pvt_ids()
            );
        }
    }
}

#[test]
fn repaired_synthetic_data_satisfies_cause_profiles() {
    let mut s = conjunctive_cause(10, 20, 3, 9);
    let exp = Diagnosis::new(Algorithm::Greedy)
        .with_candidates(s.pvts.clone())
        .run(
            Source::Borrowed(&mut s.system),
            &s.d_fail,
            &s.d_pass,
            &s.config,
        )
        .unwrap();
    for pvt in &exp.pvts {
        assert!(
            pvt.violation(&exp.repaired) < 0.06,
            "repaired data still violates {}: {}",
            pvt.profile,
            pvt.violation(&exp.repaired)
        );
    }
}

#[test]
fn budget_exhaustion_is_a_typed_error() {
    // A budget too small to reach the (findable) cause: the algorithms
    // surface `BudgetExhausted` instead of quietly giving up.
    let mut s = dp_scenarios::synthetic::adversarial_rank(20, 3);
    s.config.max_interventions = 5; // cause is benefit-ranked 20th
    let err = Diagnosis::new(Algorithm::Greedy)
        .with_candidates(s.pvts.clone())
        .run(
            Source::Borrowed(&mut s.system),
            &s.d_fail,
            &s.d_pass,
            &s.config,
        )
        .unwrap_err();
    match err {
        dataprism::PrismError::BudgetExhausted { used, best_score } => {
            assert!(used >= 5);
            assert!(best_score > s.config.threshold);
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
}
