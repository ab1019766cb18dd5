//! Benefit scores (paper §4.2 "Benefit score calculation").
//!
//! The benefit of a PVT estimates — *without* performing the
//! intervention — how likely its transformation is to reduce the
//! malfunction score: the product of the failing dataset's violation
//! score w.r.t. the PVT's profile (observation O2) and the coverage
//! of its transformation, i.e. the fraction of tuples it would modify
//! (observation O3).

use crate::lint::Ranked;
use crate::pvt::Pvt;
use dp_frame::DataFrame;
use std::collections::BTreeMap;

/// Benefit of one PVT on the (current) failing dataset:
/// `violation × coverage`.
pub fn benefit(pvt: &Pvt, d_fail: &DataFrame) -> f64 {
    pvt.violation(d_fail) * pvt.transform.coverage(d_fail)
}

/// Benefit scores for a whole candidate set, keyed by PVT id
/// (Alg 1 line 6).
pub fn benefit_scores(pvts: &[Pvt], d_fail: &DataFrame) -> BTreeMap<usize, f64> {
    pvts.iter().map(|p| (p.id, benefit(p, d_fail))).collect()
}

/// Recompute benefits for the PVTs of `ranked` whose ids are listed
/// (Alg 1 line 17's incremental update after an intervention changes
/// the dataset), each found by id in constant time.
pub fn update_benefits(
    scores: &mut BTreeMap<usize, f64>,
    ranked: &Ranked,
    ids: &[usize],
    d_fail: &DataFrame,
) {
    for &id in ids {
        if let Some(pvt) = ranked.pvt(id) {
            scores.insert(id, benefit(pvt, d_fail));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::transform::{ImputeStrategy, Transform};
    use dp_frame::{Column, DType, DataFrame};

    fn frame() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_strings(
                "target",
                DType::Categorical,
                vec![Some("0".into()), Some("4".into()), Some("4".into()), None],
            ),
            Column::from_ints("zip", vec![Some(1), None, None, Some(2)]),
        ])
        .unwrap()
    }

    fn domain_pvt() -> Pvt {
        let values = ["-1", "1"].iter().map(|s| s.to_string()).collect();
        Pvt {
            id: 0,
            profile: Profile::DomainCategorical {
                attr: "target".into(),
                values: ["-1", "1"].iter().map(|s| s.to_string()).collect(),
            },
            transform: Transform::MapToDomain {
                attr: "target".into(),
                values,
            },
        }
    }

    fn missing_pvt() -> Pvt {
        Pvt {
            id: 1,
            profile: Profile::Missing {
                attr: "zip".into(),
                theta: 0.0,
            },
            transform: Transform::Impute {
                attr: "zip".into(),
                strategy: ImputeStrategy::Central,
            },
        }
    }

    #[test]
    fn benefit_is_violation_times_coverage() {
        let df = frame();
        // Domain: violation 3/4 (3 foreign values of 4 rows),
        // coverage 3/4 → benefit 9/16.
        let b = benefit(&domain_pvt(), &df);
        assert!((b - 0.75 * 0.75).abs() < 1e-12, "{b}");
        // Missing: violation 1/2 (θ=0), coverage 1/2 → 1/4.
        let b = benefit(&missing_pvt(), &df);
        assert!((b - 0.25).abs() < 1e-12, "{b}");
    }

    #[test]
    fn higher_coverage_ranks_first() {
        // Mirrors the paper's §4.1 step 3 intuition: the transform
        // affecting more tuples gets the higher benefit.
        let df = frame();
        let scores = benefit_scores(&[domain_pvt(), missing_pvt()], &df);
        assert!(scores[&0] > scores[&1]);
    }

    #[test]
    fn update_recomputes_selected_ids() {
        let df = frame();
        let pvts = vec![domain_pvt(), missing_pvt()];
        let mut scores = benefit_scores(&pvts, &df);
        let config = crate::PrismConfig::default();
        let ranked = Ranked::new(pvts.clone(), &df, &config, &mut Default::default());
        // Repair the missing values, then update only PVT 1.
        let fixed = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            pvts[1].apply(&df, &mut rng).unwrap().0
        };
        update_benefits(&mut scores, &ranked, &[1], &fixed);
        assert_eq!(scores[&1], 0.0, "no missing values remain");
        assert!(scores[&0] > 0.0, "untouched PVT keeps its old score");
    }
}
