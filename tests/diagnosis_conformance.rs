//! One request for every technique of the paper's Fig 7.
//!
//! The contract under test: every [`Algorithm`] run through a
//! [`Diagnosis`] returns the same explanation — same
//! [`Explanation::digest`], same charged interventions — on the
//! caller's own system (`Source::Borrowed`) and on a factory at
//! widths 1 and 2 (`Source::Factory`), on every case study. In every
//! cell each charged query is exactly one cache hit or miss. BugDoc
//! and Anchor on a factory, and warm-started from a cache, are
//! reachable only through the request, so their cells are covered
//! here.

use dataprism::{Algorithm, Diagnosis, Explanation, PrismConfig, Result, ScoreCache, Source};
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, Scenario};

/// The running examples at moderate size (same sizes as
/// `parallel_conformance.rs`).
fn examples() -> Vec<Scenario> {
    vec![
        example1::scenario(),
        ezgo::scenario_with_size(400, 2),
        sensors::scenario_with_size(250, 4),
    ]
}

/// The §5.1 case studies at moderate size.
fn case_studies() -> Vec<Scenario> {
    vec![
        sentiment::scenario_with_size(240, 11),
        income::scenario_with_size(300, 7),
        cardio::scenario_with_size(300, 5),
    ]
}

fn scenarios() -> Vec<Scenario> {
    let mut all = examples();
    all.extend(case_studies());
    all
}

/// `algorithm` on the scenario's factory at `threads` workers,
/// warm-started from `cache` when one is given.
fn on_factory(
    algorithm: Algorithm,
    scenario: &Scenario,
    threads: usize,
    cache: Option<&mut ScoreCache>,
) -> Result<Explanation> {
    let config = PrismConfig {
        num_threads: threads,
        ..scenario.config.clone()
    };
    let mut request = Diagnosis::new(algorithm);
    if let Some(cache) = cache {
        request = request.with_cache(cache);
    }
    let source = Source::Factory(scenario.factory.as_ref());
    request.run(source, &scenario.d_fail, &scenario.d_pass, &config)
}

/// Every charged query is exactly one of a cache hit or a miss.
fn assert_conserved(label: &str, exp: &Explanation) {
    let m = &exp.metrics;
    assert_eq!(
        m.cache_hits + m.cache_misses,
        m.charged_queries,
        "{label}: hit/miss conservation {m:?}"
    );
    assert_eq!(
        m.charged_queries, exp.interventions as u64,
        "{label}: charged queries"
    );
}

fn assert_same(label: &str, expected: &Result<Explanation>, got: &Result<Explanation>) {
    match (expected, got) {
        (Ok(e), Ok(g)) => {
            assert_eq!(e.digest(), g.digest(), "{label}: digest");
            assert_eq!(e.interventions, g.interventions, "{label}: interventions");
            assert_conserved(label, g);
        }
        (Err(e), Err(g)) => assert_eq!(e, g, "{label}: error"),
        (e, g) => panic!("{label}: disagree on success: {e:?} vs {g:?}"),
    }
}

/// The matrix row of one algorithm over `scenarios`: borrowed ×
/// factory at widths 1 and 2. The width-1 run is warm-started from
/// everything the width-2 run scored, so it must score nothing new.
fn sources_agree(algorithm: Algorithm, scenarios: Vec<Scenario>) {
    for mut scenario in scenarios {
        let name = scenario.name;
        let borrowed = Diagnosis::new(algorithm).run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        );
        if let Ok(exp) = &borrowed {
            assert_conserved(&format!("{name}/{algorithm:?}/borrowed"), exp);
        }
        let mut cache = ScoreCache::new();
        let cold = on_factory(algorithm, &scenario, 2, Some(&mut cache));
        assert_same(&format!("{name}/{algorithm:?}/factory@2"), &borrowed, &cold);
        let warm = on_factory(algorithm, &scenario, 1, Some(&mut cache));
        assert_same(&format!("{name}/{algorithm:?}/factory@1"), &borrowed, &warm);
        if let Ok(exp) = &warm {
            assert_eq!(
                exp.metrics.cache_misses, 0,
                "{name}/{algorithm:?}: a warm rerun scores nothing new"
            );
        }
    }
}

#[test]
fn greedy_agrees_across_sources() {
    sources_agree(Algorithm::Greedy, scenarios());
}

#[test]
fn group_test_agrees_across_sources() {
    sources_agree(Algorithm::GroupTest, scenarios());
}

#[test]
fn grp_test_agrees_across_sources() {
    sources_agree(Algorithm::GrpTest, scenarios());
}

#[test]
fn bugdoc_agrees_across_sources() {
    sources_agree(Algorithm::BugDoc, scenarios());
}

// Anchor samples thousands of configurations per diagnosis, so its
// row is split in two tests that run in parallel.
#[test]
fn anchor_agrees_across_sources_on_the_examples() {
    sources_agree(Algorithm::Anchor, examples());
}

#[test]
fn anchor_agrees_across_sources_on_the_case_studies() {
    sources_agree(Algorithm::Anchor, case_studies());
}

#[test]
fn auto_agrees_across_sources() {
    sources_agree(Algorithm::Auto, scenarios());
}
