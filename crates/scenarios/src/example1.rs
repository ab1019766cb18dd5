//! The paper's running example (Example 1, Figures 2–5): the biased
//! discount classifier over `People_fail` and `People_pass`.
//!
//! This module reproduces the example with the **exact tuples of
//! Fig 2 and Fig 3**. A logistic regression predicts
//! `high_expenditure` after the sensitive attributes (race, gender)
//! are dropped; the malfunction score is the (smoothed normalized)
//! disparate impact of its predictions against the unprivileged
//! groups (race = "A", gender = "F"), as in the §4.1 scenario where
//! `People_fail` scores 0.75 and `People_pass` 0.15 with τ = 0.2.
//!
//! Unit tests assert the artifacts the paper derives from this
//! example: the Fig 5 discriminative-profile list (Domain of age,
//! Missing of zip_code, Indep of race/high_expenditure, Selectivity
//! of gender = F ∧ high_expenditure = yes with θ 0.44 vs 0.1) and the
//! Fig 4 attribute degrees (high_expenditure is the hub).

use crate::scenario::Scenario;
use dataprism::{DiscoveryConfig, PrismConfig, System};
use dp_frame::{DType, DataFrame, DataFrameBuilder, Value};
use dp_ml::encoding::{encode_features, extract_labels};
use dp_ml::fairness::{normalized_disparate_impact_smoothed, Group};
use dp_ml::{Classifier, LogisticRegression};

type Row<'a> = (
    &'a str,         // name
    &'a str,         // gender
    i64,             // age
    &'a str,         // race
    Option<&'a str>, // zip_code
    Option<&'a str>, // phone
    &'a str,         // high_expenditure
);

/// Fig 2 — `People_fail` (10 entities).
const PEOPLE_FAIL: &[Row<'static>] = &[
    (
        "Shanice Johnson",
        "F",
        45,
        "A",
        Some("01004"),
        Some("2088556597"),
        "no",
    ),
    (
        "DeShawn Bad",
        "M",
        40,
        "A",
        Some("01004"),
        Some("2085374523"),
        "no",
    ),
    (
        "Malik Ayer",
        "M",
        60,
        "A",
        Some("01005"),
        Some("2766465009"),
        "no",
    ),
    (
        "Dustin Jenner",
        "M",
        22,
        "W",
        Some("01009"),
        Some("7874891021"),
        "yes",
    ),
    ("Julietta Brown", "F", 41, "W", Some("01009"), None, "yes"),
    (
        "Molly Beasley",
        "F",
        32,
        "W",
        None,
        Some("7872899033"),
        "no",
    ),
    (
        "Jake Bloom",
        "M",
        25,
        "W",
        Some("01101"),
        Some("4047747803"),
        "yes",
    ),
    (
        "Luke Stonewald",
        "M",
        35,
        "W",
        Some("01101"),
        Some("4042127741"),
        "yes",
    ),
    ("Scott Nossenson", "M", 25, "W", Some("01101"), None, "yes"),
    ("Gabe Erwin", "M", 20, "W", None, Some("4048421581"), "yes"),
];

/// Fig 3 — `People_pass` (9 entities).
const PEOPLE_PASS: &[Row<'static>] = &[
    (
        "Darin Brust",
        "M",
        25,
        "W",
        Some("01004"),
        Some("2088556597"),
        "no",
    ),
    ("Rosalie Bad", "F", 22, "W", Some("01005"), None, "no"),
    (
        "Kristine Hilyard",
        "F",
        50,
        "W",
        Some("01004"),
        Some("2766465009"),
        "yes",
    ),
    ("Chloe Ayer", "F", 22, "A", None, Some("7874891021"), "yes"),
    (
        "Julietta Mchugh",
        "F",
        51,
        "W",
        Some("01009"),
        Some("9042899033"),
        "yes",
    ),
    ("Doria Ely", "F", 32, "A", Some("01101"), None, "yes"),
    (
        "Kristan Whidden",
        "F",
        25,
        "W",
        Some("01101"),
        Some("4047747803"),
        "no",
    ),
    (
        "Rene Strelow",
        "M",
        35,
        "W",
        Some("01101"),
        Some("6162127741"),
        "yes",
    ),
    (
        "Arial Brent",
        "M",
        45,
        "W",
        Some("01102"),
        Some("4089065769"),
        "yes",
    ),
];

fn build_people(rows: &[Row<'_>]) -> DataFrame {
    let mut b = DataFrameBuilder::with_fields(&[
        ("name", DType::Text),
        ("gender", DType::Categorical),
        ("age", DType::Int),
        ("race", DType::Categorical),
        ("zip_code", DType::Categorical),
        ("phone", DType::Text),
        ("high_expenditure", DType::Categorical),
    ]);
    for (name, gender, age, race, zip, phone, high) in rows {
        b.push_row(vec![
            Value::Str(name.to_string()),
            Value::Str(gender.to_string()),
            Value::Int(*age),
            Value::Str(race.to_string()),
            zip.map(|z| Value::Str(z.to_string()))
                .unwrap_or(Value::Null),
            phone
                .map(|p| Value::Str(p.to_string()))
                .unwrap_or(Value::Null),
            Value::Str(high.to_string()),
        ])
        .expect("Fig 2/3 rows conform to the schema");
    }
    b.build()
}

/// The Fig 2 dataset.
pub fn people_fail() -> DataFrame {
    build_people(PEOPLE_FAIL)
}

/// The Fig 3 dataset.
pub fn people_pass() -> DataFrame {
    build_people(PEOPLE_PASS)
}

/// The discount pipeline: logistic regression over the non-sensitive
/// attributes; malfunction = worst smoothed normalized disparate
/// impact across the two protected attributes.
pub struct DiscountSystem {
    /// Training epochs for the logistic regression.
    pub epochs: usize,
}

impl Default for DiscountSystem {
    fn default() -> Self {
        DiscountSystem { epochs: 400 }
    }
}

impl System for DiscountSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        // Anita's pre-processing: drop the sensitive attributes.
        let Ok(enc) = encode_features(df, &["high_expenditure", "race", "gender"]) else {
            return 1.0;
        };
        let Ok(y) = extract_labels(df, "high_expenditure", &["yes"]) else {
            return 1.0;
        };
        if y.iter().all(|&v| v == 0) || y.iter().all(|&v| v == 1) {
            return 1.0;
        }
        let mut model = LogisticRegression {
            epochs: self.epochs,
            learning_rate: 0.3,
            ..Default::default()
        };
        let mut x = enc.x.clone();
        dp_ml::encoding::standardize_columns(&mut x);
        model.fit(&x, &y);
        let preds = model.predict_all(&x);
        let mut worst = 0.0f64;
        for (attr, unprivileged) in [("race", "A"), ("gender", "F")] {
            let Ok(col) = df.column(attr) else { return 1.0 };
            let groups: Vec<Group> = (0..df.n_rows())
                .map(|i| {
                    if col.get(i).to_string() == unprivileged {
                        Group::Unprivileged
                    } else {
                        Group::Privileged
                    }
                })
                .collect();
            if let Some(score) = normalized_disparate_impact_smoothed(&preds, &groups) {
                worst = worst.max(score);
            }
        }
        worst
    }

    fn name(&self) -> &str {
        "discount-classifier"
    }
}

/// The §4.1 scenario: `People_fail` vs `People_pass`. The paper uses
/// τ = 0.2 with its classifier scoring 0.15 on `People_pass`; our
/// from-scratch logistic regression with add-one smoothing over nine
/// tuples floors at ≈ 0.26 on the same data (smoothing alone
/// contributes ~0.15 at these group sizes), so the threshold is 0.3 —
/// the failing dataset still scores 0.74 vs the paper's 0.75.
pub fn scenario() -> Scenario {
    let config = PrismConfig {
        threshold: 0.3,
        discovery: DiscoveryConfig {
            // Fig 5's Selectivity profile is the conjunction
            // `gender = F ∧ high_expenditure = yes`.
            selectivity_pair_with: Some("high_expenditure".to_string()),
            ..DiscoveryConfig::default()
        },
        ..Default::default()
    };
    Scenario {
        name: "Example 1 (discount classifier)",
        system: Box::new(DiscountSystem::default()),
        factory: Box::new(DiscountSystem::default),
        d_pass: people_pass(),
        d_fail: people_fail(),
        config,
        // Example 1's two stated issues: (1) race is highly
        // correlated with zip_code — so an Indep profile naming
        // either of them against high_expenditure carries the same
        // shuffle fix — and (2) the female/high-expenditure group is
        // under-represented (the Selectivity profile).
        ground_truth: vec![
            "indep_chi2(*,high_expenditure)".to_string(),
            "selectivity(*gender = F*high_expenditure = yes*".to_string(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataprism::discovery::discriminative_pvts;
    use dataprism::graph::PvtAttributeGraph;
    use dataprism::violation::dependence;
    use dataprism::DependenceKind;

    #[test]
    fn datasets_match_the_paper_tables() {
        let fail = people_fail();
        let pass = people_pass();
        assert_eq!(fail.n_rows(), 10, "Fig 2 has 10 entities");
        assert_eq!(pass.n_rows(), 9, "Fig 3 has 9 entities");
        // Example 14's statistics: mean age 34.5, σ ≈ 11.78 in
        // People_fail, with only t3 (age 60) an O_1.5 outlier.
        let ages: Vec<f64> = fail
            .column("age")
            .unwrap()
            .f64_values()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert!((dp_stats::descriptive::mean(&ages).unwrap() - 34.5).abs() < 1e-9);
        assert!((dp_stats::descriptive::std_dev(&ages).unwrap() - 11.78).abs() < 0.01);
        // Fig 5's Missing parameters: 0.11 (pass) vs 0.2 (fail).
        assert_eq!(pass.column("zip_code").unwrap().null_count(), 1);
        assert_eq!(fail.column("zip_code").unwrap().null_count(), 2);
    }

    #[test]
    fn fig5_discriminative_profiles_are_discovered() {
        let s = scenario();
        let pvts = discriminative_pvts(&s.d_pass, &s.d_fail, &s.config.discovery);
        let keys: Vec<String> = pvts.iter().map(|p| p.profile.template_key()).collect();
        // The four profiles of Fig 5.
        assert!(keys.contains(&"domain_num(age)".to_string()), "{keys:?}");
        assert!(keys.contains(&"missing(zip_code)".to_string()), "{keys:?}");
        assert!(
            keys.contains(&"indep_chi2(race,high_expenditure)".to_string()),
            "{keys:?}"
        );
        assert!(
            keys.iter()
                .any(|k| k.contains("gender = F") && k.contains("high_expenditure = yes")),
            "{keys:?}"
        );
    }

    #[test]
    fn fig5_profile_parameters_match() {
        use dataprism::Profile;
        let s = scenario();
        let pvts = discriminative_pvts(&s.d_pass, &s.d_fail, &s.config.discovery);
        for pvt in &pvts {
            match &pvt.profile {
                Profile::DomainNumeric { attr, lb, ub } if attr == "age" => {
                    // Parameters come from the passing dataset: [22, 51].
                    assert_eq!((*lb, *ub), (22.0, 51.0));
                }
                Profile::Missing { attr, theta } if attr == "zip_code" => {
                    assert!((theta - 1.0 / 9.0).abs() < 1e-9, "θ = {theta}");
                }
                Profile::Selectivity { predicate, theta }
                    if predicate.to_string().contains("gender = F")
                        && predicate.to_string().contains("high_expenditure = yes") =>
                {
                    // Fig 5: θ = 0.44 on the passing dataset...
                    assert!((theta - 4.0 / 9.0).abs() < 1e-9, "θ = {theta}");
                    // ... vs 0.1 on the failing dataset.
                    let fail_sel = s.d_fail.selectivity(predicate).unwrap();
                    assert!((fail_sel - 0.1).abs() < 1e-9, "sel = {fail_sel}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn fig4_high_expenditure_is_the_hub_attribute() {
        let s = scenario();
        let pvts = discriminative_pvts(&s.d_pass, &s.d_fail, &s.config.discovery);
        let graph = PvtAttributeGraph::new(&pvts);
        let degrees = graph.attribute_degrees();
        let max_attr = degrees
            .iter()
            .max_by_key(|(_, &d)| d)
            .map(|(a, _)| a.clone())
            .unwrap();
        assert_eq!(
            max_attr, "high_expenditure",
            "Fig 4: high_expenditure has the highest degree ({degrees:?})"
        );
    }

    #[test]
    fn example15_race_dependence_in_people_fail() {
        // ⟨Indep, race, high_expenditure⟩: strong in People_fail
        // (race almost determines the outcome), weak in People_pass.
        let fail_dep = dependence(
            &people_fail(),
            "race",
            "high_expenditure",
            DependenceKind::Chi2,
        );
        let pass_dep = dependence(
            &people_pass(),
            "race",
            "high_expenditure",
            DependenceKind::Chi2,
        );
        assert!(fail_dep > 0.5, "fail dependence {fail_dep}");
        assert!(pass_dep < fail_dep, "pass {pass_dep} vs fail {fail_dep}");
    }

    #[test]
    fn end_to_end_diagnosis_resolves_example1() {
        use dataprism::{Algorithm, Diagnosis, Source};
        let mut s = scenario();
        let exp = Diagnosis::new(Algorithm::Greedy)
            .run(
                Source::Borrowed(s.system.as_mut()),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap();
        assert!(exp.resolved, "{exp}");
        assert!(
            s.explains_ground_truth(&exp),
            "explanation must be an Indep-on-high_expenditure or the
             gender/high_expenditure Selectivity: {exp}"
        );
    }

    #[test]
    fn system_scores_separate_the_datasets() {
        let mut s = scenario();
        let fail_score = s.system.malfunction(&s.d_fail);
        let pass_score = s.system.malfunction(&s.d_pass);
        assert!(
            fail_score > s.config.threshold,
            "People_fail must fail (paper: 0.75), got {fail_score}"
        );
        assert!(
            pass_score <= s.config.threshold,
            "People_pass must pass (paper: 0.15), got {pass_score}"
        );
    }
}
