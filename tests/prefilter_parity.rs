//! Parity suite for the sketch-based discovery pre-filter.
//!
//! The contract under test: [`Prefilter::On`] may only *skip* exact
//! independence tests whose outcome is already decided — it must
//! never change what discovery returns. For every case-study
//! scenario and the wide synthetic schemas, profile discovery on
//! both datasets and the discriminative PVT set must be **identical**
//! with the pre-filter off and on, while the wide schemas must also
//! show the filter actually screening pairs (otherwise the parity
//! claim is vacuous).

use dataprism::discovery::{discover_profiles_stats, discriminative_pvts_stats};
use dataprism::{DiscoveryConfig, Prefilter};
use dp_frame::DataFrame;
use dp_scenarios::wide::wide_schema;
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, Scenario};

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

fn with_prefilter(cfg: &DiscoveryConfig, prefilter: Prefilter) -> DiscoveryConfig {
    DiscoveryConfig {
        prefilter,
        ..cfg.clone()
    }
}

/// Assert off/on parity of single-frame discovery and of the
/// discriminative PVT set; returns the number of screened pair tests
/// so callers can additionally demand screening happened.
fn assert_parity(
    name: &str,
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    cfg: &DiscoveryConfig,
) -> usize {
    let off = with_prefilter(cfg, Prefilter::Off);
    let on = with_prefilter(cfg, Prefilter::On);
    for (side, df) in [("d_pass", d_pass), ("d_fail", d_fail)] {
        let (p_off, s_off) = discover_profiles_stats(df, &off, 1);
        let (p_on, s_on) = discover_profiles_stats(df, &on, 1);
        assert_eq!(p_off, p_on, "{name}/{side}: profile parity");
        assert_eq!(s_off.screened(), 0, "{name}/{side}: Off never screens");
        assert_eq!(
            s_off.tests(),
            s_on.tests(),
            "{name}/{side}: same pair tests considered"
        );
    }
    let (pvts_off, _) = discriminative_pvts_stats(d_pass, d_fail, &off, 1);
    let (pvts_on, stats_on) = discriminative_pvts_stats(d_pass, d_fail, &on, 1);
    assert_eq!(pvts_off, pvts_on, "{name}: discriminative PVT parity");
    stats_on.screened()
}

#[test]
fn case_studies_prefilter_parity() {
    for scenario in scenarios() {
        assert_parity(
            scenario.name,
            &scenario.d_pass,
            &scenario.d_fail,
            &scenario.config.discovery,
        );
    }
}

#[test]
fn wide_schema_parity_with_screening() {
    for (attrs, rows, seed) in [(40usize, 200usize, 3u64), (55, 120, 11)] {
        let w = wide_schema(attrs, rows, seed);
        let screened = assert_parity(
            &format!("wide({attrs}x{rows})"),
            &w.d_pass,
            &w.d_fail,
            &DiscoveryConfig::default(),
        );
        assert!(
            screened > 0,
            "wide({attrs}x{rows}): a wide schema must screen pairs"
        );
    }
}

#[test]
fn wide_schema_parity_with_causal_profiles() {
    // Causal (SEM) profiles have no significance gate, so the
    // pre-filter must leave them alone: parity with `indep_causal`
    // on proves screened pairs still get their causal profile.
    let w = wide_schema(12, 100, 5);
    let cfg = DiscoveryConfig {
        indep_causal: true,
        ..Default::default()
    };
    let screened = assert_parity("wide-causal", &w.d_pass, &w.d_fail, &cfg);
    assert!(screened > 0, "independence tests still screen");
}

#[test]
fn wide_schema_parity_across_thread_counts() {
    // Screening decisions are per pair and the counters are atomic:
    // profiles, PVTs, and stats must be identical at any fan-out.
    let w = wide_schema(30, 150, 8);
    let cfg = DiscoveryConfig::default();
    let (base_pvts, base_stats) = discriminative_pvts_stats(&w.d_pass, &w.d_fail, &cfg, 1);
    assert!(base_stats.screened() > 0);
    for threads in [2, 8] {
        let (pvts, stats) = discriminative_pvts_stats(&w.d_pass, &w.d_fail, &cfg, threads);
        assert_eq!(base_pvts, pvts, "@{threads}: PVT parity");
        assert_eq!(base_stats, stats, "@{threads}: deterministic counters");
    }
}
