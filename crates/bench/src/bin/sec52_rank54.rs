//! Regenerates the paper's **§5.2 "DataExposerGRD vs DataExposerGT"**
//! experiment: a synthetic pipeline whose ground-truth explanation is
//! a single corrupted value whose benefit estimate ranks **54th**
//! among the discriminative PVTs (observations O1–O3 all violated).
//! The paper: GRD needs 54 interventions, GT only 9.
//!
//! Usage: `cargo run --release -p dp-bench --bin sec52_rank54`

use dataprism::Algorithm;
use dp_bench::{run_synthetic, technique_name};
use dp_scenarios::synthetic::adversarial_rank;

fn main() {
    const RANK: usize = 54;
    println!("§5.2 adversarial pipeline — cause benefit-ranked {RANK} of {RANK}\n");
    for technique in [Algorithm::Greedy, Algorithm::GroupTest, Algorithm::GrpTest] {
        let result = run_synthetic(adversarial_rank(RANK, 3), technique);
        println!(
            "{:>24}: {:>4} interventions  (resolved: {}, ground truth: {}, {:.3}s)",
            technique_name(technique),
            result.interventions_cell(),
            result.resolved,
            result.found_ground_truth,
            result.seconds,
        );
    }
    println!("\npaper reference: DataPrism-GRD 54, DataPrism-GT 9");
}
