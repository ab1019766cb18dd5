//! A sensor-fusion scenario exercising the **causal** `Indep` profile
//! (Fig 1 row 9) and its `Residualize` transformation end to end.
//!
//! A redundancy-based fault detector cross-checks two sensor
//! channels: a fault in channel A is caught when the two calibration
//! residuals disagree. The design assumption is that the channels'
//! errors are *causally independent*. In the failing dataset the
//! channels share a power supply, so channel B's residual tracks
//! channel A's (`error_b ≈ 0.8 · error_a`): faulty rows no longer
//! disagree and slip through undetected — the paper's "disconnect
//! between the assumptions about the data and the design of the
//! system".
//!
//! Discovery is configured for the causal profile class only (the
//! paper's scope assumption: domain experts supply the relevant
//! classes — here, "the errors must be causally independent"). The
//! fix is Fig 1 row 9's distribution change, implemented as
//! residualization of `error_b` on `error_a`.

use crate::scenario::Scenario;
use dataprism::{DiscoveryConfig, PrismConfig, System};
use dp_frame::{DType, DataFrame, DataFrameBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gaussian(rng: &mut StdRng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

/// Generate sensor logs. Each row: the two calibration residuals, an
/// ambient temperature covariate, and whether channel A is actually
/// faulty (the detector's ground truth for scoring).
fn build_logs(rng: &mut StdRng, n: usize, coupled: bool) -> DataFrame {
    let mut b = DataFrameBuilder::with_fields(&[
        ("error_a", DType::Float),
        ("error_b", DType::Float),
        ("temperature", DType::Float),
        ("faulty", DType::Categorical),
    ]);
    for _ in 0..n {
        let faulty = rng.gen_bool(0.1);
        let error_a = if faulty {
            6.0 + 2.0 * gaussian(rng).abs()
        } else {
            0.5 * gaussian(rng)
        };
        let error_b = if coupled {
            0.8 * error_a + 0.3 * gaussian(rng)
        } else {
            0.5 * gaussian(rng)
        };
        b.push_row(vec![
            Value::Float(error_a),
            Value::Float(error_b),
            Value::Float(20.0 + 3.0 * gaussian(rng)),
            Value::Str(if faulty { "1" } else { "0" }.to_string()),
        ])
        .expect("schema-conforming row");
    }
    b.build()
}

/// The fault detector: flags a row when the channel residuals
/// disagree by more than the tolerance; the malfunction score is the
/// fraction of truly faulty rows it misses.
pub struct SensorFusionSystem {
    /// Disagreement tolerance.
    pub tolerance: f64,
}

impl Default for SensorFusionSystem {
    fn default() -> Self {
        SensorFusionSystem { tolerance: 2.5 }
    }
}

impl System for SensorFusionSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        let (Ok(ea), Ok(eb), Ok(fault)) = (
            df.column("error_a"),
            df.column("error_b"),
            df.column("faulty"),
        ) else {
            return 1.0;
        };
        let mut faults = 0usize;
        let mut missed = 0usize;
        for i in 0..df.n_rows() {
            if fault.get(i).to_string() != "1" {
                continue;
            }
            faults += 1;
            let (Some(a), Some(b)) = (ea.get(i).as_f64(), eb.get(i).as_f64()) else {
                continue;
            };
            if (a - b).abs() <= self.tolerance {
                missed += 1;
            }
        }
        if faults == 0 {
            return 1.0;
        }
        missed as f64 / faults as f64
    }

    fn name(&self) -> &str {
        "sensor-fusion-fault-detector"
    }
}

/// Build the sensor-fusion scenario with `n` rows per dataset.
pub fn scenario_with_size(n: usize, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let d_pass = build_logs(&mut rng, n, false);
    let d_fail = build_logs(&mut rng, n, true);
    let config = PrismConfig {
        threshold: 0.25,
        discovery: DiscoveryConfig {
            // The expert-provided profile class for this task: the
            // causal (in)dependence of attribute pairs (Fig 1 row 9).
            domains: false,
            outliers: None,
            missing: false,
            selectivity_max_domain: None,
            selectivity_pair_with: None,
            indep_chi2: false,
            indep_pearson: false,
            indep_causal: true,
            ..DiscoveryConfig::default()
        },
        ..Default::default()
    };
    Scenario {
        name: "Sensor Fusion (causal profile)",
        system: Box::new(SensorFusionSystem::default()),
        factory: Box::new(SensorFusionSystem::default),
        d_pass,
        d_fail,
        config,
        ground_truth: vec!["indep_causal(error_a,error_b)".to_string()],
    }
}

/// Default-size sensor scenario.
pub fn scenario(seed: u64) -> Scenario {
    scenario_with_size(800, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataprism::discovery::discriminative_pvts;
    use dataprism::{Algorithm, Diagnosis, Source};

    #[test]
    fn coupled_errors_hide_faults() {
        let mut s = scenario_with_size(600, 4);
        let pass_score = s.system.malfunction(&s.d_pass);
        let fail_score = s.system.malfunction(&s.d_fail);
        assert!(
            pass_score < 0.2,
            "independent errors expose faults: {pass_score}"
        );
        assert!(fail_score > 0.6, "coupled errors hide faults: {fail_score}");
    }

    #[test]
    fn causal_profile_is_discovered() {
        let s = scenario_with_size(600, 4);
        let pvts = discriminative_pvts(&s.d_pass, &s.d_fail, &s.config.discovery);
        assert!(
            pvts.iter()
                .any(|p| p.profile.template_key() == "indep_causal(error_a,error_b)"),
            "{:?}",
            pvts.iter()
                .map(|p| p.profile.template_key())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn residualization_restores_fault_detection() {
        let mut s = scenario_with_size(600, 4);
        let exp = Diagnosis::new(Algorithm::Greedy)
            .run(
                Source::Borrowed(s.system.as_mut()),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap();
        assert!(exp.resolved, "{exp}");
        assert!(s.explains_ground_truth(&exp), "{exp}");
        assert!(
            exp.interventions <= 4,
            "the causal profile is nearly the only candidate: {}",
            exp.interventions
        );
    }
}
