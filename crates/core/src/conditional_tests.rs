//! Tests for the §3 conditional-profiles extension (analogous to
//! conditional functional dependencies): profiles that only a
//! predicate-selected subset of the data must satisfy, and the
//! row-scoped transformations that repair exactly that subset.

#![cfg(test)]

use crate::config::DiscoveryConfig;
use crate::discovery::{discover_profiles, discriminative_pvts};
use crate::profile::Profile;
use crate::transform::Transform;
use crate::violation::violation;
use dp_frame::{CmpOp, Column, DType, DataFrame, Predicate, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Patients from two sites; site B reports heights in inches.
fn mixed_site_frame(inches_for_b: bool) -> DataFrame {
    let mut site = Vec::new();
    let mut height = Vec::new();
    for i in 0..40 {
        if i % 2 == 0 {
            site.push(Some("A".to_string()));
            height.push(Some(160.0 + (i % 10) as f64 * 3.0));
        } else {
            site.push(Some("B".to_string()));
            let cm = 162.0 + (i % 10) as f64 * 3.0;
            height.push(Some(if inches_for_b { cm / 2.54 } else { cm }));
        }
    }
    DataFrame::from_columns(vec![
        Column::from_strings("site", DType::Categorical, site),
        Column::from_floats("height", height),
    ])
    .unwrap()
}

fn conditional_height_profile() -> Profile {
    Profile::Conditional {
        condition: Predicate::cmp("site", CmpOp::Eq, "B"),
        inner: Box::new(Profile::DomainNumeric {
            attr: "height".into(),
            lb: 150.0,
            ub: 195.0,
        }),
    }
}

#[test]
fn conditional_violation_scopes_to_the_slice() {
    let clean = mixed_site_frame(false);
    let corrupt = mixed_site_frame(true);
    let profile = conditional_height_profile();
    assert_eq!(violation(&clean, &profile), 0.0);
    // Every site-B height is out of range: the *conditional* violation
    // is 1.0 even though only half the overall rows are affected.
    assert_eq!(violation(&corrupt, &profile), 1.0);
    // The unconditional profile only sees a 0.5 violation.
    let global = Profile::DomainNumeric {
        attr: "height".into(),
        lb: 150.0,
        ub: 195.0,
    };
    assert!((violation(&corrupt, &global) - 0.5).abs() < 1e-9);
}

#[test]
fn conditional_transform_repairs_only_matching_rows() {
    let corrupt = mixed_site_frame(true);
    let transform = Transform::Conditional {
        condition: Predicate::cmp("site", CmpOp::Eq, "B"),
        inner: Box::new(Transform::LinearRescale {
            attr: "height".into(),
            lb: 162.0,
            ub: 189.0,
        }),
    };
    assert!(!transform.is_global());
    let mut rng = StdRng::seed_from_u64(1);
    let (repaired, changed) = transform.apply(&corrupt, &mut rng).unwrap();
    assert_eq!(changed, 20, "exactly the site-B rows change");
    // Site-A rows untouched.
    let site = repaired.column("site").unwrap();
    for i in 0..repaired.n_rows() {
        let h = repaired.cell(i, "height").unwrap().as_f64().unwrap();
        if site.get(i).to_string() == "A" {
            assert_eq!(h, corrupt.cell(i, "height").unwrap().as_f64().unwrap());
        } else {
            assert!((150.0..=195.0).contains(&h), "row {i}: {h}");
        }
    }
    // Definition 8 for the conditional profile.
    assert_eq!(violation(&repaired, &conditional_height_profile()), 0.0);
}

#[test]
fn conditional_transform_with_global_inner_is_identity() {
    let corrupt = mixed_site_frame(true);
    let transform = Transform::Conditional {
        condition: Predicate::cmp("site", CmpOp::Eq, "B"),
        inner: Box::new(Transform::ResampleSelectivity {
            predicate: Predicate::True,
            theta: 0.5,
        }),
    };
    assert!(transform.is_global());
    let mut rng = StdRng::seed_from_u64(1);
    let (out, changed) = transform.apply(&corrupt, &mut rng).unwrap();
    assert_eq!(changed, 0);
    assert_eq!(out, corrupt);
}

#[test]
fn conditional_coverage_scales_by_slice_share() {
    let corrupt = mixed_site_frame(true);
    let transform = Transform::Conditional {
        condition: Predicate::cmp("site", CmpOp::Eq, "B"),
        inner: Box::new(Transform::Winsorize {
            attr: "height".into(),
            lb: 150.0,
            ub: 195.0,
        }),
    };
    // All 20 of 40 rows in the slice violate: coverage 0.5.
    assert!((transform.coverage(&corrupt) - 0.5).abs() < 1e-9);
}

#[test]
fn conditional_discovery_emits_per_slice_domains() {
    let clean = mixed_site_frame(false);
    let cfg = DiscoveryConfig {
        conditional_domains_on: Some("site".into()),
        ..DiscoveryConfig::default()
    };
    let profiles = discover_profiles(&clean, &cfg);
    let conditional: Vec<&Profile> = profiles
        .iter()
        .filter(|p| matches!(p, Profile::Conditional { .. }))
        .collect();
    assert_eq!(
        conditional.len(),
        2,
        "one height Domain per site: {conditional:?}"
    );
    // Self-violation is zero by construction.
    for p in conditional {
        assert_eq!(violation(&clean, p), 0.0, "{p}");
    }
}

#[test]
fn conditional_pvts_diagnose_partial_corruption_end_to_end() {
    let clean = mixed_site_frame(false);
    let corrupt = mixed_site_frame(true);
    let cfg = DiscoveryConfig {
        conditional_domains_on: Some("site".into()),
        ..DiscoveryConfig::default()
    };
    let pvts = discriminative_pvts(&clean, &corrupt, &cfg);
    let cond_pvt = pvts
        .iter()
        .find(|p| {
            matches!(&p.profile, Profile::Conditional { condition, .. }
                if condition.to_string().contains('B'))
        })
        .expect("the site-B conditional Domain must be discriminative");
    // The system: fails while any site-B height is below 100 cm.
    let mut system = |df: &DataFrame| {
        let site = df.column("site").unwrap();
        let height = df.column("height").unwrap();
        let bad = (0..df.n_rows())
            .filter(|&i| {
                site.get(i).to_string() == "B"
                    && height.get(i).as_f64().map(|h| h < 100.0).unwrap_or(false)
            })
            .count();
        bad as f64 / df.n_rows().max(1) as f64
    };
    let config = crate::PrismConfig {
        threshold: 0.05,
        discovery: cfg,
        ..Default::default()
    };
    let exp = crate::Diagnosis::new(crate::Algorithm::Greedy)
        .with_candidates(pvts.clone())
        .run(
            crate::Source::Borrowed(&mut system),
            &corrupt,
            &clean,
            &config,
        )
        .unwrap();
    assert!(exp.resolved, "{exp}");
    // The conditional PVT (or the unconditional height Domain, which
    // also repairs site B) resolves it; assert the repaired slice.
    let _ = cond_pvt;
    let site = exp.repaired.column("site").unwrap();
    let height = exp.repaired.column("height").unwrap();
    for i in 0..exp.repaired.n_rows() {
        if site.get(i).to_string() == "B" {
            let h = height.get(i).as_f64().unwrap();
            assert!(h >= 100.0, "row {i}: {h}");
        }
    }
}

#[test]
fn conditional_display_and_identity() {
    let p = conditional_height_profile();
    assert!(p.to_string().contains("⟹"));
    assert!(p.template_key().starts_with("conditional("));
    assert!(p.same_parameters(&p.clone(), 0.01));
    let other = Profile::Conditional {
        condition: Predicate::cmp("site", CmpOp::Eq, "B"),
        inner: Box::new(Profile::DomainNumeric {
            attr: "height".into(),
            lb: 60.0,
            ub: 75.0,
        }),
    };
    assert!(!p.same_parameters(&other, 0.01));
    assert_eq!(p.template_key(), other.template_key());
    assert_eq!(
        p.attributes(),
        vec!["site".to_string(), "height".to_string()]
    );
}

#[test]
fn empty_slice_neither_violates_nor_transforms() {
    let df = mixed_site_frame(true);
    let profile = Profile::Conditional {
        condition: Predicate::cmp("site", CmpOp::Eq, "Z"),
        inner: Box::new(Profile::DomainNumeric {
            attr: "height".into(),
            lb: 0.0,
            ub: 1.0,
        }),
    };
    assert_eq!(violation(&df, &profile), 0.0);
    let transform = Transform::Conditional {
        condition: Predicate::cmp("site", CmpOp::Eq, "Z"),
        inner: Box::new(Transform::Winsorize {
            attr: "height".into(),
            lb: 0.0,
            ub: 1.0,
        }),
    };
    let mut rng = StdRng::seed_from_u64(1);
    let (out, changed) = transform.apply(&df, &mut rng).unwrap();
    assert_eq!(changed, 0);
    assert_eq!(out, df);
    let _ = Value::Null; // keep the import exercised
}
