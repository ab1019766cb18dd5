//! Criterion timing for the Fig 7 case studies: full diagnosis
//! wall-clock (discovery + interventions) for DataPrism-GRD and
//! DataPrism-GT on each scenario, plus the discovery step alone.
//!
//! These are the "Execution Time (seconds)" columns of Fig 7; the
//! slow baselines (Anchor) are exercised by the `fig7_table` binary
//! instead of criterion, whose repeated sampling would take hours.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dataprism::discovery::discriminative_pvts;
use dataprism::{Algorithm, Diagnosis, Source};
use dp_scenarios::{cardio, income, sentiment, Scenario};

type ScenarioMaker = fn() -> Scenario;

fn scenario_factories() -> Vec<(&'static str, ScenarioMaker)> {
    vec![
        ("sentiment", || sentiment::scenario_with_size(400, 42)),
        ("income", || income::scenario_with_size(300, 42)),
        ("cardio", || cardio::scenario_with_size(400, 42)),
    ]
}

/// Full diagnoses of `scenarios` with `algorithm`, in the group
/// `fig7_<algorithm name>`.
fn bench_algorithm(c: &mut Criterion, algorithm: Algorithm, scenarios: &[(&str, ScenarioMaker)]) {
    let mut group = c.benchmark_group(format!("fig7_{}", algorithm.name()));
    group.sample_size(10);
    for &(name, make) in scenarios {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter_with_setup(make, |mut s| {
                Diagnosis::new(algorithm)
                    .run(
                        Source::Borrowed(s.system.as_mut()),
                        &s.d_fail,
                        &s.d_pass,
                        &s.config,
                    )
                    .expect("case study resolves")
            })
        });
    }
    group.finish();
}

fn bench_greedy(c: &mut Criterion) {
    bench_algorithm(c, Algorithm::Greedy, &scenario_factories());
}

fn bench_group_test(c: &mut Criterion) {
    // Cardio is NA for group testing (A3), so only the other two.
    bench_algorithm(c, Algorithm::GroupTest, &scenario_factories()[..2]);
}

fn bench_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("discovery");
    group.sample_size(10);
    for (name, make) in scenario_factories() {
        let s = make();
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| discriminative_pvts(&s.d_pass, &s.d_fail, &s.config.discovery))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_greedy, bench_group_test, bench_discovery);
criterion_main!(benches);
