//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. **Benefit scores** (observations O2/O3) on/off — measured on a
//!    scenario where attribute degrees carry no signal but the cause
//!    has the highest violation × coverage;
//! 2. **High-degree-attribute prioritization** (observation O1)
//!    on/off — measured on a scenario where benefit scores carry no
//!    signal but the cause attribute has the highest degree;
//! 3. **Make-Minimal** on/off — interventions spent vs explanation
//!    minimality, on a conjunctive cause;
//! 4. **Min-bisection vs random partitioning** in group testing
//!    (see also `fig6_toy`).
//!
//! Usage: `cargo run --release -p dp-bench --bin ablations`

use dataprism::{Algorithm, Diagnosis, Source};
use dp_scenarios::synthetic::{
    ablation_benefit, ablation_o1, conjunctive_cause, SyntheticScenario,
};

fn greedy_mean(
    make: &dyn Fn(u64) -> SyntheticScenario,
    seeds: &[u64],
    use_benefit: bool,
    use_hda: bool,
    minimal: bool,
) -> (f64, f64, usize) {
    let mut interventions = 0usize;
    let mut sizes = 0usize;
    let mut resolved = 0usize;
    for &seed in seeds {
        let mut s = make(seed);
        s.config.use_benefit = use_benefit;
        s.config.use_high_degree = use_hda;
        s.config.make_minimal = minimal;
        s.config.seed = seed; // drives the uninformed ordering too
        let exp = Diagnosis::new(Algorithm::Greedy)
            .with_candidates(s.pvts.clone())
            .run(
                Source::Borrowed(&mut s.system),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .expect("greedy must run");
        interventions += exp.interventions;
        sizes += exp.pvts.len();
        resolved += usize::from(exp.resolved);
    }
    (
        interventions as f64 / seeds.len() as f64,
        sizes as f64 / seeds.len() as f64,
        resolved,
    )
}

fn main() {
    let seeds: Vec<u64> = (0..10).collect();
    let n = seeds.len();

    println!("Ablation 1 — benefit scores (O2/O3); 40 disc. PVTs, degrees uninformative\n");
    for (label, on) in [
        ("with benefit scores", true),
        ("without (uninformed order)", false),
    ] {
        let (iv, _, res) = greedy_mean(&|s| ablation_benefit(40, s), &seeds, on, true, true);
        println!("  {label:<30} mean interventions {iv:5.1}   resolved {res}/{n}");
    }

    println!("\nAblation 2 — high-degree priority (O1); 40 disc. PVTs, benefits uninformative\n");
    for (label, on) in [
        ("with O1 prioritization", true),
        ("without (all PVTs eligible)", false),
    ] {
        // Benefit off in both arms so only O1 varies.
        let (iv, _, res) = greedy_mean(&|s| ablation_o1(40, s), &seeds, false, on, true);
        println!("  {label:<30} mean interventions {iv:5.1}   resolved {res}/{n}");
    }

    println!("\nAblation 3 — Make-Minimal; 3-PVT conjunctive cause, 40 disc. PVTs\n");
    for (label, on) in [("with Make-Minimal", true), ("without", false)] {
        let (iv, size, res) =
            greedy_mean(&|s| conjunctive_cause(20, 40, 3, s), &seeds, true, true, on);
        println!(
            "  {label:<30} mean interventions {iv:5.1}   mean |X*| {size:3.1}   resolved {res}/{n}"
        );
    }

    println!("\nAblation 4 — group-testing partitioner; 3-PVT conjunctive cause, 40 disc. PVTs\n");
    for (label, algorithm) in [
        ("min-bisection (DataPrism-GT)", Algorithm::GroupTest),
        ("random (GrpTest)", Algorithm::GrpTest),
    ] {
        let mut interventions = 0usize;
        let mut resolved = 0usize;
        for &seed in &seeds {
            let mut s = conjunctive_cause(20, 40, 3, seed);
            let exp = Diagnosis::new(algorithm)
                .with_candidates(s.pvts.clone())
                .run(
                    Source::Borrowed(&mut s.system),
                    &s.d_fail,
                    &s.d_pass,
                    &s.config,
                )
                .expect("A3 holds on synthetic pipelines");
            interventions += exp.interventions;
            resolved += usize::from(exp.resolved);
        }
        println!(
            "  {label:<30} mean interventions {:5.1}   resolved {resolved}/{n}",
            interventions as f64 / n as f64
        );
    }
}
