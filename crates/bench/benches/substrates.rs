//! Micro-benchmarks of the substrate hot paths: violation scoring,
//! the χ² and Pearson statistics, min-bisection, transformation
//! application, and model training — the pieces every intervention
//! pays for — plus the pre-query lint pass every diagnosis runs
//! before its first intervention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dataprism::bisection::min_bisection;
use dataprism::discovery::discriminative_pvts;
use dataprism::lint_pvts;
use dataprism::profile::{DependenceKind, Profile};
use dataprism::transform::Transform;
use dataprism::violation::violation;
use dp_frame::groupby::ContingencyTable;
use dp_frame::{Column, DType, DataFrame};
use dp_ml::{AdaBoost, Matrix, RandomForest};
use dp_stats::{chi_squared, pearson};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn numeric_frame(n: usize, seed: u64) -> DataFrame {
    let mut rng = StdRng::seed_from_u64(seed);
    DataFrame::from_columns(vec![
        Column::from_floats("x", (0..n).map(|_| Some(rng.gen::<f64>())).collect()),
        Column::from_floats("y", (0..n).map(|_| Some(rng.gen::<f64>() * 2.0)).collect()),
    ])
    .unwrap()
}

fn categorical_frame(n: usize, seed: u64) -> DataFrame {
    let mut rng = StdRng::seed_from_u64(seed);
    let cats = ["a", "b", "c", "d"];
    let col = |name: &str, rng: &mut StdRng| {
        Column::from_strings(
            name,
            DType::Categorical,
            (0..n)
                .map(|_| Some(cats[rng.gen_range(0..cats.len())].to_string()))
                .collect(),
        )
    };
    let a = col("a", &mut rng);
    let b = col("b", &mut rng);
    DataFrame::from_columns(vec![a, b]).unwrap()
}

fn bench_violation(c: &mut Criterion) {
    let mut group = c.benchmark_group("violation");
    for n in [1_000usize, 10_000] {
        let df = numeric_frame(n, 1);
        let domain = Profile::DomainNumeric {
            attr: "x".into(),
            lb: 0.2,
            ub: 0.8,
        };
        group.bench_with_input(BenchmarkId::new("domain_numeric", n), &n, |bench, _| {
            bench.iter(|| violation(&df, &domain))
        });
        let indep = Profile::Indep {
            a: "x".into(),
            b: "y".into(),
            alpha: 0.1,
            kind: DependenceKind::Pearson,
        };
        group.bench_with_input(BenchmarkId::new("indep_pearson", n), &n, |bench, _| {
            bench.iter(|| violation(&df, &indep))
        });
    }
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    for n in [1_000usize, 10_000] {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        group.bench_with_input(BenchmarkId::new("pearson", n), &n, |bench, _| {
            bench.iter(|| pearson(&xs, &ys))
        });
        let df = categorical_frame(n, 3);
        group.bench_with_input(BenchmarkId::new("chi2", n), &n, |bench, _| {
            bench.iter(|| {
                let t = ContingencyTable::from_frame(&df, "a", "b").unwrap();
                chi_squared(&t)
            })
        });
    }
    group.finish();
}

fn bench_min_bisection(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_bisection");
    for k in [16usize, 48] {
        let items: Vec<usize> = (0..k).collect();
        // Pair matching like the Fig 6 toy.
        let edges: Vec<(usize, usize)> = (0..k / 2).map(|i| (2 * i, 2 * i + 1)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter_with_setup(
                || StdRng::seed_from_u64(7),
                |mut rng| min_bisection(&items, &edges, &mut rng),
            )
        });
    }
    // Dense dependency graphs at Income's density: its 39 candidates
    // share 5 attributes, so 69% of pairs are dependent. Group testing
    // there splits nodes of 39, 20, 10, 5 and 2 candidates, and 64 is
    // the local-search limit.
    for k in [19usize, 39, 64] {
        let mut rng = StdRng::seed_from_u64(8);
        let items: Vec<usize> = (0..k).collect();
        let edges: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(0.7))
            .collect();
        group.bench_with_input(BenchmarkId::new("dense", k), &k, |bench, _| {
            bench.iter_with_setup(
                || StdRng::seed_from_u64(7),
                |mut rng| min_bisection(&items, &edges, &mut rng),
            )
        });
    }
    group.finish();
}

fn bench_transforms(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform");
    let df = numeric_frame(10_000, 4);
    let rescale = Transform::LinearRescale {
        attr: "x".into(),
        lb: 10.0,
        ub: 20.0,
    };
    group.bench_function("linear_rescale_10k", |bench| {
        bench.iter_with_setup(
            || StdRng::seed_from_u64(5),
            |mut rng| rescale.apply(&df, &mut rng).unwrap(),
        )
    });
    let noise = Transform::DecorrelateNoise {
        a: "x".into(),
        b: "y".into(),
        alpha: 0.01,
    };
    group.bench_function("decorrelate_10k", |bench| {
        bench.iter_with_setup(
            || StdRng::seed_from_u64(5),
            |mut rng| noise.apply(&df, &mut rng).unwrap(),
        )
    });
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("models");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(6);
    let n = 500;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..8).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<usize> = rows
        .iter()
        .map(|r| usize::from(r[0] + r[1] > 1.0))
        .collect();
    let x = Matrix::from_rows(rows);
    group.bench_function("random_forest_fit_500x8", |bench| {
        bench.iter(|| {
            let mut f = RandomForest::new(12, 6, 1);
            f.fit(&x, &y);
            f
        })
    });
    group.bench_function("adaboost_fit_500x8", |bench| {
        bench.iter(|| {
            let mut m = AdaBoost::new(25, 2);
            m.fit(&x, &y);
            m
        })
    });
    group.finish();
}

/// `lint_pvts` on the candidate sets a warm `dp_serve` diagnosis
/// lints: Income (300 rows, seed 7; 39 discovered candidates), and a
/// 5 000-PVT Fig 8 right-panel set (`single_cause(2500, 5000, 11)`).
fn bench_lint(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint_pvts");
    let income = dp_scenarios::income::scenario_with_size(300, 7);
    let pvts = discriminative_pvts(&income.d_pass, &income.d_fail, &income.config.discovery);
    let tau = income.config.threshold;
    group.bench_with_input(
        BenchmarkId::new("income", pvts.len()),
        &pvts,
        |bench, pvts| bench.iter(|| lint_pvts(pvts, &income.d_fail, tau)),
    );
    let fig8 = dp_scenarios::synthetic::single_cause(2500, 5000, 11);
    let tau = fig8.config.threshold;
    group.bench_with_input(
        BenchmarkId::new("fig8", fig8.pvts.len()),
        &fig8.pvts,
        |bench, pvts| bench.iter(|| lint_pvts(pvts, &fig8.d_fail, tau)),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_lint,
    bench_violation,
    bench_stats,
    bench_min_bisection,
    bench_transforms,
    bench_models
);
criterion_main!(benches);
