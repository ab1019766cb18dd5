//! The §5.1 Income Prediction case study: diagnosing unfairness.
//!
//! A Random Forest pipeline (sensitive attributes dropped before
//! training, like Anita's pipeline in the paper's Example 1) still
//! produces biased predictions on the failing dataset, because the
//! data itself carries a planted `sex → target` dependence and an
//! occupation proxy. The malfunction score is the normalized
//! disparate impact. Both DataPrism algorithms expose an `Indep`
//! profile whose shuffle transformation breaks the dependence.
//!
//! Run: `cargo run --release --example income_fairness`
//!
//! Pass `--trace` to collect the GT run's structured event stream and
//! print the reconstructed bisection search tree plus run metrics.

use dataprism::{Algorithm, Diagnosis, SearchTree, Source, TraceConfig};
use dp_scenarios::income;

fn main() {
    let trace = std::env::args().any(|a| a == "--trace");
    let mut scenario = income::scenario_with_size(700, 13);
    let pass_score = scenario.system.malfunction(&scenario.d_pass);
    let fail_score = scenario.system.malfunction(&scenario.d_fail);
    println!("normalized disparate impact, unbiased census: {pass_score:.3} (paper: 0.195)");
    println!("normalized disparate impact, biased census:   {fail_score:.3} (paper: 0.580)\n");

    println!("--- DataPrism-GRD (Algorithm 1) ---");
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

    println!("--- DataPrism-GT (Algorithms 2-3) ---");
    let mut scenario2 = income::scenario_with_size(700, 13);
    if trace {
        scenario2.config.trace = TraceConfig::Collect;
    }
    let gt = Diagnosis::new(Algorithm::GroupTest)
        .run(
            Source::Borrowed(scenario2.system.as_mut()),
            &scenario2.d_fail,
            &scenario2.d_pass,
            &scenario2.config,
        )
        .expect("A3 holds on the income study");
    println!("{gt}");
    println!(
        "ground truth found: {} ({} interventions; paper: 8)",
        scenario2.explains_ground_truth(&gt),
        gt.interventions
    );

    if trace {
        let tree = SearchTree::from_records(&gt.trace_records);
        println!("\nbisection search tree ({} nodes):", tree.node_count());
        print!("{}", tree.render_text(true));
        println!("run metrics: {}", gt.metrics.summary_line());
    }
}
