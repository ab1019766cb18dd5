//! The paper's running example, end to end: the biased discount
//! classifier of Example 1 / §4.1, on the *exact* tuples of
//! Figures 2 and 3.
//!
//! The walkthrough in §4.1: DataPrism discovers the discriminative
//! profiles of Fig 5, builds the PVT–attribute graph of Fig 4 (where
//! `high_expenditure` is the hub attribute), and intervenes first on
//! the PVTs attached to it — the Indep(race, high_expenditure) and
//! Selectivity(gender = F ∧ high_expenditure = yes) triplets — until
//! the trained classifier's disparate impact drops below the
//! threshold.
//!
//! Run: `cargo run --release --example paper_example1`
//!
//! Pass `--trace` to collect the structured event stream of the run
//! and print the decision log plus the run-metrics summary.

use dataprism::discovery::discriminative_pvts;
use dataprism::graph::PvtAttributeGraph;
use dataprism::{Algorithm, Diagnosis, Event, Source, TraceConfig};
use dp_scenarios::example1;

fn main() {
    let trace = std::env::args().any(|a| a == "--trace");
    let mut scenario = example1::scenario();
    if trace {
        scenario.config.trace = TraceConfig::Collect;
    }
    println!("People_fail (Fig 2):\n{}", scenario.d_fail);
    println!("People_pass (Fig 3):\n{}", scenario.d_pass);

    let fail_score = scenario.system.malfunction(&scenario.d_fail);
    let pass_score = scenario.system.malfunction(&scenario.d_pass);
    println!("malfunction(People_fail) = {fail_score:.3}  (paper: 0.75)");
    println!("malfunction(People_pass) = {pass_score:.3}  (paper: 0.15)\n");

    // Step 1 (§4.1): discriminative PVTs — Fig 5.
    let pvts = discriminative_pvts(
        &scenario.d_pass,
        &scenario.d_fail,
        &scenario.config.discovery,
    );
    println!("discriminative PVTs (Fig 5):");
    for pvt in &pvts {
        println!("  {}", pvt.profile);
    }

    // Step 2: the PVT–attribute graph — Fig 4.
    let graph = PvtAttributeGraph::new(&pvts);
    println!("\nattribute degrees (Fig 4):");
    for (attr, degree) in graph.attribute_degrees() {
        println!("  {attr}: {degree}");
    }

    // Steps 3–6: greedy interventions + Make-Minimal.
    let explanation = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        )
        .expect("diagnosis runs");
    println!("\n{explanation}");
    println!(
        "matches the paper's expected causes (Indep/Selectivity on high_expenditure): {}",
        scenario.explains_ground_truth(&explanation)
    );

    if trace {
        println!(
            "\ntrace: {} events | run metrics: {}",
            explanation.trace_records.len(),
            explanation.metrics.summary_line()
        );
        for record in &explanation.trace_records {
            match &record.event {
                Event::GreedyPick {
                    pvt,
                    before,
                    after,
                    kept,
                } => println!(
                    "  pick PVT {pvt}: {before:.3} -> {after:.3} ({})",
                    if *kept { "kept" } else { "reverted" }
                ),
                Event::MinimalityDrop { pvt } => {
                    println!("  make-minimal dropped PVT {pvt}");
                }
                _ => {}
            }
        }
    }
}
