//! Property-based tests (proptest) over the framework's core
//! invariants, crossing crate boundaries:
//!
//! - violation scores are always in `[0, 1]`;
//! - transformation postcondition (Definition 8): after applying a
//!   PVT's transformation, the violation of its profile is 0;
//! - min-bisection returns a balanced exact partition;
//! - learned text patterns accept their own training examples and
//!   their own repairs;
//! - CSV round-trips arbitrary frames;
//! - the intervention-counting oracle counts exactly the non-baseline
//!   queries.

use dataprism::profile::{OutlierSpec, Profile};
use dataprism::transform::{ImputeStrategy, OutlierRepair, Transform};
use dataprism::violation::violation;
use dataprism::{fingerprint, fingerprint_reference, Tracer};
use dp_frame::{Column, DType, DataFrame, Value};
use dp_stats::Pattern;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn float_column(name: &'static str) -> impl Strategy<Value = Column> {
    prop::collection::vec(
        prop_oneof![
            3 => (-1e3f64..1e3).prop_map(Some),
            1 => Just(None),
        ],
        1..60,
    )
    .prop_map(move |vals| Column::from_floats(name, vals))
}

fn cat_column(name: &'static str) -> impl Strategy<Value = Column> {
    prop::collection::vec(
        prop_oneof![
            4 => prop::sample::select(vec!["a", "b", "c", "d", "e"])
                .prop_map(|s| Some(s.to_string())),
            1 => Just(None),
        ],
        1..60,
    )
    .prop_map(move |vals| Column::from_strings(name, DType::Categorical, vals))
}

proptest! {
    #[test]
    fn violation_is_bounded(col in float_column("x"), lb in -10.0f64..0.0, width in 0.0f64..20.0) {
        let df = DataFrame::from_columns(vec![col]).unwrap();
        for profile in [
            Profile::DomainNumeric { attr: "x".into(), lb, ub: lb + width },
            Profile::Missing { attr: "x".into(), theta: 0.1 },
            Profile::Outlier {
                attr: "x".into(),
                detector: OutlierSpec::ZScore(2.0),
                theta: 0.05,
            },
        ] {
            let v = violation(&df, &profile);
            prop_assert!((0.0..=1.0).contains(&v), "{profile}: {v}");
        }
    }

    #[test]
    fn winsorize_postcondition(col in float_column("x"), lb in -5.0f64..0.0, width in 0.1f64..10.0) {
        // Definition 8: V(T(D), P) = 0.
        let df = DataFrame::from_columns(vec![col]).unwrap();
        let ub = lb + width;
        let profile = Profile::DomainNumeric { attr: "x".into(), lb, ub };
        let transform = Transform::Winsorize { attr: "x".into(), lb, ub };
        let mut rng = StdRng::seed_from_u64(0);
        let (repaired, _) = transform.apply(&df, &mut rng).unwrap();
        prop_assert_eq!(violation(&repaired, &profile), 0.0);
        // And row count / schema are preserved.
        prop_assert_eq!(repaired.n_rows(), df.n_rows());
        prop_assert_eq!(repaired.schema(), df.schema());
    }

    #[test]
    fn linear_rescale_postcondition_and_monotonicity(col in float_column("x")) {
        let df = DataFrame::from_columns(vec![col]).unwrap();
        let n_valid = df.column("x").unwrap().f64_values().len();
        prop_assume!(n_valid >= 2);
        let profile = Profile::DomainNumeric { attr: "x".into(), lb: 0.0, ub: 1.0 };
        let transform = Transform::LinearRescale { attr: "x".into(), lb: 0.0, ub: 1.0 };
        let mut rng = StdRng::seed_from_u64(0);
        let (repaired, _) = transform.apply(&df, &mut rng).unwrap();
        prop_assert_eq!(violation(&repaired, &profile), 0.0);
        // Monotonic: value order preserved.
        let before = df.column("x").unwrap().f64_values();
        let after = repaired.column("x").unwrap().f64_values();
        for (i, j) in before.iter().zip(before.iter().skip(1)).map(|_| ()).enumerate().map(|(i, _)| (i, i + 1)) {
            if before[i].1 <= before[j].1 {
                prop_assert!(after[i].1 <= after[j].1 + 1e-9);
            }
        }
    }

    #[test]
    fn impute_postcondition(col in cat_column("c")) {
        let df = DataFrame::from_columns(vec![col]).unwrap();
        prop_assume!(df.column("c").unwrap().null_count() < df.n_rows());
        let profile = Profile::Missing { attr: "c".into(), theta: 0.0 };
        let transform = Transform::Impute { attr: "c".into(), strategy: ImputeStrategy::Central };
        let mut rng = StdRng::seed_from_u64(0);
        let (repaired, changed) = transform.apply(&df, &mut rng).unwrap();
        prop_assert_eq!(violation(&repaired, &profile), 0.0);
        prop_assert_eq!(changed, df.column("c").unwrap().null_count());
    }

    #[test]
    fn outlier_repair_reduces_outlier_fraction(col in float_column("x")) {
        let df = DataFrame::from_columns(vec![col]).unwrap();
        let profile = Profile::Outlier {
            attr: "x".into(),
            detector: OutlierSpec::ZScore(2.5),
            theta: 0.0,
        };
        let before = violation(&df, &profile);
        let transform = Transform::ReplaceOutliers {
            attr: "x".into(),
            detector: OutlierSpec::ZScore(2.5),
            strategy: OutlierRepair::Clamp,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let (repaired, _) = transform.apply(&df, &mut rng).unwrap();
        // The detector refits on the repaired data, so strict zero is
        // not guaranteed (repairing can expose new relative outliers);
        // but the violation must not increase.
        let after = violation(&repaired, &profile);
        prop_assert!(after <= before + 1e-9, "before {before}, after {after}");
    }

    #[test]
    fn pattern_accepts_training_and_repairs(examples in prop::collection::vec("[a-z]{1,6}-[0-9]{1,5}", 1..8), foreign in "[a-z0-9-]{0,12}") {
        if let Some(p) = Pattern::learn(&examples) {
            for e in &examples {
                prop_assert!(p.matches(e), "pattern /{p}/ rejects its own example {e:?}");
            }
            let repaired = p.repair(&foreign);
            prop_assert!(p.matches(&repaired), "repair {repaired:?} of {foreign:?} fails /{p}/");
        }
    }

    #[test]
    fn min_bisection_is_an_exact_balanced_partition(
        k in 1usize..24,
        edges in prop::collection::vec((0usize..24, 0usize..24), 0..40),
        seed in 0u64..1000,
    ) {
        let items: Vec<usize> = (0..k).collect();
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|(a, b)| a < &k && b < &k && a != b)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (l, r) = dataprism::bisection::min_bisection(&items, &edges, &mut rng);
        let mut all: Vec<usize> = l.iter().chain(r.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, items, "partition must cover every item exactly once");
        prop_assert!(l.len().abs_diff(r.len()) <= 1, "balanced: {} vs {}", l.len(), r.len());
    }

    #[test]
    fn csv_roundtrip(ints in prop::collection::vec(prop::option::of(-1000i64..1000), 1..30),
                     cats in prop::collection::vec(prop::option::of("[a-z]{1,8}"), 1..30)) {
        let n = ints.len().min(cats.len());
        let df = DataFrame::from_columns(vec![
            Column::from_ints("i", ints[..n].to_vec()),
            Column::from_strings("s", DType::Categorical, cats[..n].to_vec()),
        ]).unwrap();
        let mut buf = Vec::new();
        dp_frame::csv::write_csv(&df, &mut buf).unwrap();
        let back = dp_frame::csv::read_csv(&buf[..]).unwrap();
        prop_assert_eq!(back.n_rows(), df.n_rows());
        for row in 0..n {
            prop_assert_eq!(back.cell(row, "i").unwrap().to_string(),
                            df.cell(row, "i").unwrap().to_string());
            prop_assert_eq!(back.cell(row, "s").unwrap().to_string(),
                            df.cell(row, "s").unwrap().to_string());
        }
    }

    #[test]
    fn oracle_counts_non_baseline_queries(scores in prop::collection::vec(0.0f64..1.0, 1..20)) {
        let mut i = 0usize;
        let scores2 = scores.clone();
        let mut system = move |_: &DataFrame| {
            let s = scores2[i % scores2.len()];
            i += 1;
            s
        };
        let mut oracle = dataprism::Oracle::new(dataprism::Source::Borrowed(&mut system), 0.5, 10_000, 1);
        let base = DataFrame::from_columns(vec![Column::from_ints("x", vec![Some(-1)])]).unwrap();
        oracle.baseline(&base, &Tracer::off());
        for k in 0..scores.len() {
            let df = DataFrame::from_columns(vec![Column::from_ints(
                "x",
                vec![Some(k as i64)],
            )])
            .unwrap();
            oracle.intervene(&df, &Tracer::off());
        }
        oracle.intervene(&base, &Tracer::off()); // baseline re-query: free
        prop_assert_eq!(oracle.interventions, scores.len());
    }
}

/// Strategy for a small mixed-type frame: one numeric, one
/// categorical column of equal length.
fn mixed_frame() -> impl Strategy<Value = DataFrame> {
    (
        prop::collection::vec(
            prop_oneof![4 => (-100.0f64..100.0).prop_map(Some), 1 => Just(None)],
            2..40,
        ),
        prop::sample::select(vec!["a", "b", "c"]),
    )
        .prop_flat_map(|(nums, _)| {
            let n = nums.len();
            (
                Just(nums),
                prop::collection::vec(
                    prop::sample::select(vec!["x", "y", "z"]).prop_map(|s| Some(s.to_string())),
                    n..=n,
                ),
            )
        })
        .prop_map(|(nums, cats)| {
            DataFrame::from_columns(vec![
                Column::from_floats("num", nums),
                Column::from_strings("cat", DType::Categorical, cats),
            ])
            .unwrap()
        })
}

proptest! {
    #[test]
    fn discovered_profiles_never_violate_their_own_dataset(df in mixed_frame()) {
        // Fig 1 discovery reads parameters off the dataset, so the
        // dataset satisfies every discovered profile (the Definition
        // 10 requirement on D_pass).
        let cfg = dataprism::DiscoveryConfig::default();
        for profile in dataprism::discovery::discover_profiles(&df, &cfg) {
            let v = violation(&df, &profile);
            prop_assert!(v < 1e-9, "{profile}: self-violation {v}");
        }
    }

    #[test]
    fn composition_satisfies_all_constituents(df in mixed_frame()) {
        // Definition 9: after composing transformations, every
        // constituent profile is satisfied (for independent local
        // repairs on disjoint concerns).
        use dataprism::pvt::{apply_composition, Pvt};
        use dataprism::transform::ImputeStrategy;
        let pvts = vec![
            Pvt {
                id: 0,
                profile: Profile::DomainNumeric { attr: "num".into(), lb: -10.0, ub: 10.0 },
                transform: Transform::Winsorize { attr: "num".into(), lb: -10.0, ub: 10.0 },
            },
            Pvt {
                id: 1,
                profile: Profile::Missing { attr: "num".into(), theta: 0.0 },
                transform: Transform::Impute { attr: "num".into(), strategy: ImputeStrategy::Central },
            },
        ];
        // Imputation needs at least one non-NULL value to compute a mean.
        prop_assume!(df.column("num").unwrap().null_count() < df.n_rows());
        let refs: Vec<&Pvt> = pvts.iter().collect();
        let mut rng = StdRng::seed_from_u64(3);
        let (repaired, _) = apply_composition(&refs, &df, &mut rng).unwrap();
        for pvt in &pvts {
            prop_assert!(
                pvt.violation(&repaired) < 1e-9,
                "{} violated after composition", pvt.profile
            );
        }
    }

    #[test]
    fn conditional_violation_never_exceeds_slice_violation(df in mixed_frame(), lb in -50.0f64..0.0, width in 1.0f64..100.0) {
        // The conditional violation equals the inner violation on the
        // selected slice, and both are bounded.
        use dp_frame::{CmpOp, Predicate};
        let inner = Profile::DomainNumeric { attr: "num".into(), lb, ub: lb + width };
        let profile = Profile::Conditional {
            condition: Predicate::cmp("cat", CmpOp::Eq, "x"),
            inner: Box::new(inner.clone()),
        };
        let v = violation(&df, &profile);
        prop_assert!((0.0..=1.0).contains(&v));
        if let Ok(slice) = df.filter_by(&Predicate::cmp("cat", CmpOp::Eq, "x")) {
            if !slice.is_empty() {
                prop_assert!((v - violation(&slice, &inner)).abs() < 1e-12);
            } else {
                prop_assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn resample_moves_selectivity_toward_theta(df in mixed_frame(), theta in 0.05f64..0.95) {
        use dp_frame::{CmpOp, Predicate};
        let pred = Predicate::cmp("cat", CmpOp::Eq, "x");
        let before = df.selectivity(&pred).unwrap();
        // Oversampling needs at least one matching row.
        prop_assume!(before > 0.0);
        let t = Transform::ResampleSelectivity { predicate: pred.clone(), theta };
        let mut rng = StdRng::seed_from_u64(4);
        let (after_df, _) = t.apply(&df, &mut rng).unwrap();
        let after = after_df.selectivity(&pred).unwrap();
        // Integer granularity: a k-row frame can only realize
        // selectivities that are multiples of 1/k, and the ceil in
        // the resampler can overshoot by one row.
        let granularity = 1.5 / after_df.n_rows().max(1) as f64;
        prop_assert!(
            (after - theta).abs() <= (before - theta).abs().max(granularity) + 0.05,
            "selectivity {before} -> {after}, target {theta}, rows {}",
            after_df.n_rows()
        );
    }
}

// ---------------------------------------------------------------
// Buffer-level dataset fingerprint (oracle cache key). Three
// invariants: it is a pure function of the *logical* content
// (stale placeholder bytes behind NULLs are invisible), any cell
// perturbation changes it, and it induces the same equality
// classes as the slow per-cell reference implementation.
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn fingerprint_is_a_function_of_logical_content(df in mixed_frame()) {
        let fp = fingerprint(&df);
        // Equal frames hash equally.
        prop_assert_eq!(fp, fingerprint(&df.clone()));
        // Writing a placeholder behind an existing NULL leaves the
        // logical content — and therefore the fingerprint — intact.
        let mut stale = df.clone();
        let n = stale.n_rows();
        let col = stale.column_mut("num").unwrap();
        if let Some(i) = (0..n).find(|&i| col.get(i).is_null()) {
            col.set(i, Value::Float(123.456)).unwrap();
            col.set(i, Value::Null).unwrap();
            prop_assert_eq!(fingerprint(&stale), fp);
            prop_assert_eq!(fingerprint_reference(&stale), fingerprint_reference(&df));
        }
    }

    #[test]
    fn fingerprint_detects_cell_perturbations(df in mixed_frame(), row in 0usize..1000, bump in 1.0f64..50.0) {
        let fp = fingerprint(&df);
        let row = row % df.n_rows();

        // Numeric perturbation (NULL slots become valid — also a change).
        let mut num = df.clone();
        let col = num.column_mut("num").unwrap();
        let new = match col.get(row) {
            Value::Float(x) => Value::Float(x + bump),
            _ => Value::Float(bump),
        };
        col.set(row, new).unwrap();
        prop_assert!(fingerprint(&num) != fp, "numeric cell change must rehash");

        // Nulling a valid cell.
        let mut nulled = df.clone();
        let col = nulled.column_mut("num").unwrap();
        if !col.get(row).is_null() {
            col.set(row, Value::Null).unwrap();
            prop_assert!(fingerprint(&nulled) != fp, "NULLing a cell must rehash");
        }

        // Categorical perturbation.
        let mut cat = df.clone();
        let col = cat.column_mut("cat").unwrap();
        let new = match col.get(row) {
            Value::Str(s) if s == "x" => Value::Str("y".into()),
            _ => Value::Str("x".into()),
        };
        col.set(row, new).unwrap();
        prop_assert!(fingerprint(&cat) != fp, "categorical cell change must rehash");
    }

    #[test]
    fn fingerprint_agrees_with_per_cell_reference(df in mixed_frame(), row in 0usize..1000, perturb in 0usize..2) {
        let perturb = perturb == 1;
        // Differential test: the buffer-level fast path and the
        // per-cell reference must agree on whether two frames are
        // the same dataset.
        let mut other = df.clone();
        if perturb {
            let row = row % other.n_rows();
            let col = other.column_mut("num").unwrap();
            let new = match col.get(row) {
                Value::Float(x) => Value::Float(x + 1.0),
                _ => Value::Float(0.5),
            };
            col.set(row, new).unwrap();
        }
        let fast = fingerprint(&df) == fingerprint(&other);
        let slow = fingerprint_reference(&df) == fingerprint_reference(&other);
        prop_assert_eq!(fast, slow, "implementations disagree on frame equality");
    }
}
