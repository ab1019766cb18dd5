//! The intent-keyed score cache.
//!
//! A composition's intent key hashes the base frame's fingerprint, the
//! transformations in order and the RNG stream seed; applying a
//! composition is a pure function of those inputs, so a query the
//! runtime resolves by key must land on the fingerprint the built
//! frame would have had. Two properties pin that down:
//!
//! 1. On every bundled scenario's own candidates, the fingerprint a
//!    query resolves by intent key — within one run, and from a warm
//!    cache — equals `fingerprint(apply_composition(..))` of the same
//!    job, for group-testing probes (id-derived stream seeds, on the
//!    failing frame and on a transformed one) and Make-Minimal drops
//!    (the fixed Make-Minimal seed).
//! 2. A fully warm diagnosis at width 1 builds exactly the frames its
//!    search carries forward: each pick greedy keeps, group testing's
//!    leaf applications and each accepted Make-Minimal drop, while its
//!    digest and charged queries equal the cold run's.

use dataprism::bisection::{stream_seed, APPLY_STREAM};
use dataprism::discovery::discriminative_pvts;
use dataprism::runtime::Intent;
use dataprism::{
    fingerprint, Algorithm, Diagnosis, Event, Explanation, Oracle, PrismError, Pvt, Result,
    ScoreCache, Source, TraceConfig, Tracer,
};
use dp_frame::DataFrame;
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, Scenario};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The moderate-size case-study set (same sizes as
/// `serve_conformance.rs`).
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

/// One scenario's failing frame, discovered candidates and run seed.
struct Case {
    d_fail: DataFrame,
    pvts: Vec<Pvt>,
    seed: u64,
}

fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        scenarios()
            .into_iter()
            .map(|s| Case {
                pvts: discriminative_pvts(&s.d_pass, &s.d_fail, &s.config.discovery),
                d_fail: s.d_fail,
                seed: s.config.seed,
            })
            .collect()
    })
}

/// A cheap deterministic system: the tests are about which frame a
/// query names, not about its score.
fn system(df: &DataFrame) -> f64 {
    (fingerprint(df) % 1024) as f64 / 1024.0
}

/// The seed Make-Minimal applies every drop candidate with.
fn make_minimal_seed(seed: u64) -> u64 {
    seed ^ 0x9e37_79b9
}

proptest! {
    #[test]
    fn intent_hits_resolve_to_the_fingerprint_of_the_built_frame(
        case in 0usize..6,
        picks in prop::collection::vec(0usize..4096, 1..6),
        drop_at in 0usize..8,
        transformed_base in 0u8..2,
    ) {
        let c = &cases()[case];
        prop_assume!(!c.pvts.is_empty());
        let mut idx: Vec<usize> = picks.iter().map(|p| p % c.pvts.len()).collect();
        idx.sort_unstable();
        idx.dedup();
        let refs: Vec<&Pvt> = idx.iter().map(|&i| &c.pvts[i]).collect();
        let ids: Vec<usize> = refs.iter().map(|p| p.id).collect();
        // Deeper bisection nodes probe a frame earlier leaves already
        // transformed.
        let leaf;
        let base = if transformed_base == 1 {
            let first = Intent {
                pvts: vec![&c.pvts[0]],
                base: &c.d_fail,
                base_fp: fingerprint(&c.d_fail),
                seed: stream_seed(c.seed, APPLY_STREAM, &[c.pvts[0].id]),
            };
            let Ok(frame) = first.build() else {
                return Ok(());
            };
            leaf = frame;
            &leaf
        } else {
            &c.d_fail
        };
        let base_fp = fingerprint(base);
        let probe = Intent {
            pvts: refs.clone(),
            base,
            base_fp,
            seed: stream_seed(c.seed, APPLY_STREAM, &ids),
        };
        // The same composition on Make-Minimal's stream: a key that
        // ignored the seed would merge it with the probe above.
        let same_on_mm_stream = Intent {
            seed: make_minimal_seed(c.seed),
            ..probe.clone()
        };
        let mut rest = refs.clone();
        if rest.len() > 1 {
            rest.remove(drop_at % rest.len());
        }
        let drop_probe = Intent {
            pvts: rest,
            base,
            base_fp,
            seed: make_minimal_seed(c.seed),
        };
        let jobs = [probe, same_on_mm_stream, drop_probe];
        let mut built = Vec::new();
        for job in &jobs {
            let Ok(frame) = job.build() else {
                return Ok(());
            };
            built.push(fingerprint(&frame));
        }

        // Within one run: the first query of each job builds its frame,
        // the second resolves it by key.
        let mut cold_system = system;
        let mut cold = Oracle::new(Source::Borrowed(&mut cold_system), 0.5, 1_000, 1);
        for round in 0..2 {
            for (job, &fp) in jobs.iter().zip(&built) {
                cold.intervene_apply(job, &Tracer::off()).expect("built above");
                prop_assert_eq!(cold.last_query().fingerprint, fp, "round {}", round);
            }
        }
        let m = cold.run_metrics();
        prop_assert!(m.intent_hits >= jobs.len() as u64, "{:?}", m);
        let exported = cold.export_cache();
        drop(cold);

        // From a warm cache: every query resolves by key, the first
        // ask and the repeat alike, and no frame is built.
        let mut warm_system = system;
        let mut warm = Oracle::new(Source::Borrowed(&mut warm_system), 0.5, 1_000, 1).with_warm_cache(&exported);
        for (job, &fp) in jobs.iter().zip(&built).rev() {
            for _ in 0..2 {
                warm.intervene_apply(job, &Tracer::off()).expect("resolved by key");
                prop_assert_eq!(warm.last_query().fingerprint, fp);
            }
        }
        let m = warm.run_metrics();
        prop_assert_eq!(m.frames_built, 0);
        prop_assert_eq!(m.intent_hits, 2 * jobs.len() as u64);
        prop_assert_eq!(m.cache_misses, 0);
    }
}

fn run(scenario: &Scenario, algo: Algorithm, cache: &mut ScoreCache) -> Result<Explanation> {
    let mut config = scenario.config.clone();
    config.num_threads = 1;
    config.trace = TraceConfig::Collect;
    let (factory, d_fail, d_pass) = (
        scenario.factory.as_ref(),
        &scenario.d_fail,
        &scenario.d_pass,
    );
    Diagnosis::new(algo)
        .with_cache(cache)
        .run(Source::Factory(factory), d_fail, d_pass, &config)
}

/// The frames a fully warm width-1 run must build: greedy builds each
/// pick it keeps, group testing each leaf (the selection before
/// Make-Minimal), and both each accepted Make-Minimal drop. Counted
/// from the collected trail.
fn frames_a_warm_run_must_build(algo: Algorithm, exp: &Explanation) -> u64 {
    let count =
        |f: fn(&Event) -> bool| exp.trace_records.iter().filter(|r| f(&r.event)).count() as u64;
    let dropped = count(|e| matches!(e, Event::MinimalityDrop { .. }));
    let carried = match algo {
        Algorithm::Greedy => count(|e| matches!(e, Event::Intervention { kept: true, .. })),
        _ => exp.pvts.len() as u64 + dropped,
    };
    carried + dropped
}

#[test]
fn a_warm_width_one_diagnosis_builds_only_the_frames_it_carries() {
    for scenario in scenarios() {
        for algo in [Algorithm::Greedy, Algorithm::GroupTest] {
            let label = format!("{}/{algo:?}", scenario.name);
            let mut cache = ScoreCache::new();
            let cold = run(&scenario, algo, &mut cache);
            let warm = run(&scenario, algo, &mut cache);
            let (cold, warm) = match (cold, warm) {
                (Ok(cold), Ok(warm)) => (cold, warm),
                // Group testing's A3 check refuses example1 and cardio
                // (the paper's NA cells), warm or cold alike.
                (
                    Err(PrismError::AssumptionViolated(_)),
                    Err(PrismError::AssumptionViolated(_)),
                ) => continue,
                (cold, warm) => panic!("{label}: cold {cold:?} vs warm {warm:?}"),
            };
            assert_eq!(cold.digest(), warm.digest(), "{label}");
            let (c, w) = (&cold.metrics, &warm.metrics);
            assert_eq!(c.charged_queries, w.charged_queries, "{label}");
            for m in [c, w] {
                assert_eq!(
                    m.cache_hits + m.cache_misses,
                    m.charged_queries,
                    "{label}: {m:?}"
                );
            }
            assert_eq!(w.cache_misses, 0, "{label}: {w:?}");
            assert_eq!(
                w.frames_built,
                frames_a_warm_run_must_build(algo, &warm),
                "{label}: {w:?}"
            );
            assert!(w.frames_built <= c.frames_built, "{label}");
            if matches!(algo, Algorithm::GroupTest) {
                assert!(w.intent_hits > 0, "{label}: {w:?}");
            }
        }
    }
}

/// A charged query that has to build its frame hands it back, so a
/// cold width-1 greedy run builds no frame twice: a kept pick (or an
/// accepted Make-Minimal drop) is carried forward from the query that
/// scored it. Example 1 charges one pick and keeps it: one frame.
#[test]
fn a_cold_greedy_run_builds_each_charged_frame_at_most_once() {
    for scenario in scenarios() {
        let label = scenario.name.to_string();
        let exp = run(&scenario, Algorithm::Greedy, &mut ScoreCache::new())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let m = &exp.metrics;
        assert!(
            m.frames_built <= m.charged_queries,
            "{label}: {} frames for {} charged queries",
            m.frames_built,
            m.charged_queries
        );
        if scenario.name == example1::scenario().name {
            assert_eq!((exp.interventions, m.frames_built), (1, 1), "{label}");
        }
    }
}
