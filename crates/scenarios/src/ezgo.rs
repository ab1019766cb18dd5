//! Example 2 of the paper — the **EZGo process timeout**.
//!
//! "A toll collection software EZGo … uses an external software OCR
//! to extract the registration number … \[which\] is extremely slow
//! for images of black license plates captured in low illumination.
//! As a result, when a batch contains a large number of such cases
//! (significantly skewed distribution), EZGo fails."
//!
//! The system here is that batch processor: it charges a per-vehicle
//! cost (toll-pass reads are instant, OCR is slow, OCR on a black
//! plate in low illumination is pathological) against a fixed
//! one-hour reservation; the malfunction score is the normalized
//! budget overrun. The failing batch skews the pathological
//! combination from ~2% to ~18%, and the root cause is the
//! **Selectivity** profile of
//! `plate_color = black ∧ illumination = low` — the fix undersamples
//! (re-balances) that slice of the batch, exactly Fig 1 row 6.

use crate::scenario::Scenario;
use dataprism::{DiscoveryConfig, PrismConfig, System};
use dp_frame::{DType, DataFrame, DataFrameBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-vehicle processing cost in seconds.
fn vehicle_cost(has_pass: bool, plate: &str, illumination: &str, axles: i64) -> f64 {
    if has_pass {
        return 0.5;
    }
    // OCR path.
    let base = 2.5 + 0.2 * axles as f64;
    if plate == "black" && illumination == "low" {
        base + 110.0 // the pathological OCR case
    } else if illumination == "low" {
        base + 6.0
    } else {
        base
    }
}

/// Generate one batch of `n` vehicles. `pathological_fraction`
/// controls how many no-pass/black-plate/low-light vehicles it
/// contains.
fn build_batch(rng: &mut StdRng, n: usize, pathological_fraction: f64) -> DataFrame {
    let mut b = DataFrameBuilder::with_fields(&[
        ("has_toll_pass", DType::Categorical),
        ("plate_color", DType::Categorical),
        ("illumination", DType::Categorical),
        ("axles", DType::Int),
        ("speed", DType::Float),
    ]);
    // Plant the pathological slice as an exact count at shuffled
    // positions rather than per-row Bernoulli draws: each such
    // vehicle shifts the batch score by ~110 s, so sampling noise in
    // the count would dominate the pass/fail separation the scenario
    // is built around.
    let n_path = (n as f64 * pathological_fraction).round() as usize;
    let mut path_mask = vec![false; n];
    for slot in path_mask.iter_mut().take(n_path) {
        *slot = true;
    }
    use rand::seq::SliceRandom;
    path_mask.shuffle(rng);
    for pathological in path_mask {
        let (has_pass, plate, illum) = if pathological {
            (false, "black", "low")
        } else {
            let has_pass = rng.gen_bool(0.7);
            let plate = *["white", "yellow", "black"]
                .get(rng.gen_range(0..3))
                .unwrap();
            // Non-pathological black plates appear in normal light.
            let illum = if plate == "black" {
                "normal"
            } else if rng.gen_bool(0.25) {
                "low"
            } else {
                "normal"
            };
            (has_pass, plate, illum)
        };
        b.push_row(vec![
            Value::Str(if has_pass { "yes" } else { "no" }.to_string()),
            Value::Str(plate.to_string()),
            Value::Str(illum.to_string()),
            Value::Int(rng.gen_range(2..=5)),
            Value::Float(40.0 + rng.gen::<f64>() * 60.0),
        ])
        .expect("schema-conforming row");
    }
    b.build()
}

/// The EZGo batch processor: sums per-vehicle costs and scores the
/// overrun of the one-hour budget (scaled to batch size).
pub struct EzgoSystem {
    /// Seconds available per vehicle (the paper reserves one hour per
    /// 1000 vehicles = 3.6 s/vehicle).
    pub budget_per_vehicle: f64,
}

impl Default for EzgoSystem {
    fn default() -> Self {
        EzgoSystem {
            budget_per_vehicle: 3.6,
        }
    }
}

impl System for EzgoSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        let n = df.n_rows();
        if n == 0 {
            return 1.0;
        }
        let (Ok(pass), Ok(plate), Ok(illum), Ok(axles)) = (
            df.column("has_toll_pass"),
            df.column("plate_color"),
            df.column("illumination"),
            df.column("axles"),
        ) else {
            return 1.0;
        };
        let mut total = 0.0;
        for i in 0..n {
            total += vehicle_cost(
                pass.get(i).to_string() == "yes",
                &plate.get(i).to_string(),
                &illum.get(i).to_string(),
                axles.get(i).as_i64().unwrap_or(2),
            );
        }
        let budget = self.budget_per_vehicle * n as f64;
        // Normalized overrun: 0 within budget, →1 at 2× the budget.
        ((total - budget) / budget).clamp(0.0, 1.0)
    }

    fn name(&self) -> &str {
        "ezgo-batch-processor"
    }
}

/// Build the EZGo scenario: a passing batch (~2% pathological
/// vehicles) vs a skewed failing batch (~18%).
pub fn scenario_with_size(n: usize, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let d_pass = build_batch(&mut rng, n, 0.02);
    let d_fail = build_batch(&mut rng, n, 0.18);
    let config = PrismConfig {
        // Allow a 12% overrun (a few minutes on a one-hour
        // reservation) — randomized re-balancing of a batch cannot
        // hit the exact pathological fraction.
        threshold: 0.12,
        discovery: DiscoveryConfig {
            selectivity_pair_with: Some("illumination".to_string()),
            ..DiscoveryConfig::default()
        },
        ..Default::default()
    };
    Scenario {
        name: "EZGo Process Timeout (Example 2)",
        system: Box::new(EzgoSystem::default()),
        factory: Box::new(EzgoSystem::default),
        d_pass,
        d_fail,
        config,
        // Any selectivity repair that thins the pathological slice
        // resolves the timeout; the most precise is the
        // black ∧ low conjunction.
        ground_truth: vec![
            "selectivity(*black*low*".to_string(),
            "selectivity(*low*black*".to_string(),
            "selectivity(*illumination = low*".to_string(),
            "selectivity(*has_toll_pass = no*".to_string(),
        ],
    }
}

/// Default-size EZGo scenario (one batch of 1000 vehicles, like the
/// paper's example).
pub fn scenario(seed: u64) -> Scenario {
    scenario_with_size(1000, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataprism::{Algorithm, Diagnosis, Source};

    #[test]
    fn skewed_batch_times_out() {
        let mut s = scenario_with_size(600, 2);
        let pass_score = s.system.malfunction(&s.d_pass);
        let fail_score = s.system.malfunction(&s.d_fail);
        assert!(
            pass_score <= s.config.threshold,
            "normal batch fits the budget, got {pass_score}"
        );
        assert!(
            fail_score > 0.3,
            "skewed batch must overrun significantly, got {fail_score}"
        );
    }

    #[test]
    fn diagnosis_blames_the_pathological_slice() {
        let mut s = scenario_with_size(600, 2);
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
            "expected a selectivity cause on the slow slice: {exp}"
        );
        // The repaired batch fits the budget again.
        assert!(exp.final_score <= s.config.threshold);
    }

    #[test]
    fn cost_model_is_pathological_exactly_where_the_paper_says() {
        // Black plate + low light + no pass is two orders slower.
        let slow = vehicle_cost(false, "black", "low", 2);
        let ocr = vehicle_cost(false, "white", "normal", 2);
        let pass = vehicle_cost(true, "black", "low", 2);
        assert!(slow > 30.0 * ocr);
        assert!(pass < ocr);
    }
}
