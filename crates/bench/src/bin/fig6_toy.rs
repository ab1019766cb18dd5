//! Regenerates the paper's **Fig 6 / Example 16**: DataPrism-GT
//! (min-bisection partitioning) vs traditional adaptive group testing
//! (random partitioning) on the 8-PVT toy whose dependency graph is
//! the four-pair matching and whose ground truth is the disjunction
//! `{X1, X6} ∨ {X4, X8}`.
//!
//! The paper reports 10 interventions for DataPrism-GT and 14 for the
//! traditional algorithm on one execution; both are randomized, so we
//! report means over several seeds.
//!
//! Usage: `cargo run --release -p dp-bench --bin fig6_toy`

use dataprism::Algorithm;
use dp_bench::{run_synthetic, technique_name};
use dp_scenarios::synthetic::toy_fig6;

fn main() {
    let seeds: Vec<u64> = (0..20).collect();
    println!("Fig 6 toy — 8 PVTs, dependency pairs (X1,X4),(X2,X3),(X5,X7),(X6,X8),");
    println!(
        "ground truth {{X1,X6}} ∨ {{X4,X8}}; mean over {} seeds\n",
        seeds.len()
    );
    for technique in [Algorithm::GroupTest, Algorithm::GrpTest] {
        let mut total = 0usize;
        let mut resolved = 0usize;
        let mut found = 0usize;
        let mut counts = Vec::new();
        for &seed in &seeds {
            let result = run_synthetic(toy_fig6(seed), technique);
            let n = result.interventions.expect("A3 holds on the toy");
            total += n;
            counts.push(n);
            resolved += usize::from(result.resolved);
            found += usize::from(result.found_ground_truth);
        }
        println!(
            "{:>24}: mean {:5.1} interventions (min {}, max {}), resolved {}/{}, ground truth {}/{}",
            technique_name(technique),
            total as f64 / seeds.len() as f64,
            counts.iter().min().unwrap(),
            counts.iter().max().unwrap(),
            resolved,
            seeds.len(),
            found,
            seeds.len(),
        );
    }
    println!("\npaper reference: DataPrism-GT 10 vs traditional GT 14 (one execution)");
}
