//! The §5.1 Cardiovascular case study: a unit mismatch and a failed
//! assumption.
//!
//! The pipeline assumes heights in centimeters; the failing dataset
//! reports them in inches, so the cleaning stage clamps every height
//! and the derived BMI — the classifier's main signal — is destroyed.
//! Recall collapses. DataPrism-GRD repairs it with one intervention:
//! the monotonic linear rescale attached to the `Domain` profile of
//! `height` (Fig 1 row 2).
//!
//! Group testing, however, is **not applicable** here: the failing
//! dataset also differs in its `ap_hi ↔ ap_lo` correlation, and the
//! noise transformation attached to that `Indep` profile pushes
//! blood-pressure readings outside the medically plausible range,
//! aborting the pipeline. Composing all candidate transformations
//! therefore *raises* the malfunction — assumption A3 is violated,
//! and group testing reports it instead of looping (the "NA"
//! cells of the paper's Fig 7).
//!
//! Run: `cargo run --release --example cardio_units`

use dataprism::{Algorithm, Diagnosis, PrismError, Source};
use dp_scenarios::cardio;

fn main() {
    let mut scenario = cardio::scenario_with_size(800, 21);
    let pass_score = scenario.system.malfunction(&scenario.d_pass);
    let fail_score = scenario.system.malfunction(&scenario.d_fail);
    println!("1 - recall with cm heights:   {pass_score:.3} (paper: 0.29)");
    println!("1 - recall with inch heights: {fail_score:.3} (paper: 0.71)\n");

    println!("--- DataPrism-GRD ---");
    let greedy = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        )
        .expect("diagnosis runs");
    println!("{greedy}");
    println!(
        "ground truth found: {} ({} interventions; paper: 1)\n",
        scenario.explains_ground_truth(&greedy),
        greedy.interventions
    );

    println!("--- DataPrism-GT ---");
    let mut scenario2 = cardio::scenario_with_size(800, 21);
    match Diagnosis::new(Algorithm::GroupTest).run(
        Source::Borrowed(scenario2.system.as_mut()),
        &scenario2.d_fail,
        &scenario2.d_pass,
        &scenario2.config,
    ) {
        Err(PrismError::AssumptionViolated(msg)) => {
            println!("not applicable, as in the paper's Fig 7 (\"NA\"):\n  {msg}");
        }
        Ok(exp) => println!("unexpectedly applicable: {exp}"),
        Err(e) => println!("error: {e}"),
    }
}
