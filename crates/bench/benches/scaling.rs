//! Criterion timing for the Fig 8 scaling curves: DataPrism-GRD and
//! DataPrism-GT wall-clock as the number of attributes and the number
//! of discriminative PVTs grow (synthetic pipelines, pre-built PVTs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dataprism::{Algorithm, Diagnosis, Source};
use dp_scenarios::synthetic::{single_cause, SyntheticScenario};

/// One greedy and one group-testing diagnosis per parameter value,
/// on the pipeline `make` builds for it.
fn bench_both(
    c: &mut Criterion,
    group: &str,
    params: &[usize],
    make: fn(usize) -> SyntheticScenario,
) {
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    for &param in params {
        for algorithm in [Algorithm::Greedy, Algorithm::GroupTest] {
            group.bench_with_input(
                BenchmarkId::new(algorithm.name(), param),
                &param,
                |b, &param| {
                    b.iter_with_setup(
                        || make(param),
                        |mut s| {
                            Diagnosis::new(algorithm)
                                .with_candidates(s.pvts.clone())
                                .run(
                                    Source::Borrowed(&mut s.system),
                                    &s.d_fail,
                                    &s.d_pass,
                                    &s.config,
                                )
                                .expect("resolves")
                        },
                    )
                },
            );
        }
    }
    group.finish();
}

fn bench_attributes(c: &mut Criterion) {
    bench_both(c, "fig8_attributes", &[10, 50, 200], |m| {
        single_cause(m, m, 11)
    });
}

fn bench_pvts(c: &mut Criterion) {
    bench_both(c, "fig8_pvts", &[100, 1000, 5000], |k| {
        single_cause(k.div_ceil(2), k, 11)
    });
}

criterion_group!(benches, bench_attributes, bench_pvts);
criterion_main!(benches);
