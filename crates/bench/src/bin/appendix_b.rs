//! Regenerates the appendix-B experiment: pipelines whose PVTs
//! **interact** (assumption A2 violated — fixing any strict subset of
//! the conjunctive cause gives no partial credit). The greedy
//! algorithm keeps no intervention and fails; **Algorithm 5**
//! (decision tree over multiple pass/fail datasets) finds the
//! conjunction.
//!
//! Usage: `cargo run --release -p dp-bench --bin appendix_b`

use dataprism::decision_tree_ext::explain_with_decision_tree;
use dataprism::{Algorithm, Diagnosis, Source};
use dp_scenarios::synthetic::interacting_cause;

fn main() {
    println!("Appendix B — interacting PVTs (all-or-nothing malfunction, A2 violated)\n");
    println!(
        "{:>6} {:>6}  {:>28}  {:>34}",
        "|X|", "|conj|", "greedy (Alg 1)", "decision tree (Alg 5)"
    );
    for (n_disc, size) in [(8usize, 2usize), (12, 3), (16, 4)] {
        // Greedy: no partial credit means nothing is kept.
        let mut s = interacting_cause(n_disc, size, 7);
        let greedy = Diagnosis::new(Algorithm::Greedy)
            .with_candidates(s.pvts.clone())
            .run(
                Source::Borrowed(&mut s.system),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .expect("greedy runs (but will not resolve)");

        // Algorithm 5 "leverages multiple passing and failing
        // datasets" (appendix B): besides the passing dataset, give
        // it observed variants of the failing dataset with random
        // subsets of the corruptions repaired. These are *knowledge*,
        // not interventions — their outcomes are already known.
        let mut s2 = interacting_cause(n_disc, size, 7);
        let mut datasets = vec![s2.d_pass.clone()];
        {
            use dataprism::pvt::apply_composition;
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(1234);
            for _ in 0..3 * n_disc {
                let subset: Vec<&dataprism::Pvt> =
                    s2.pvts.iter().filter(|_| rng.gen_bool(0.5)).collect();
                let (variant, _) =
                    apply_composition(&subset, &s2.d_fail, &mut rng).expect("variant builds");
                datasets.push(variant);
            }
        }
        let tree = explain_with_decision_tree(
            &mut s2.system,
            &s2.d_fail,
            &datasets,
            &s2.pvts.clone(),
            &s2.config,
        )
        .expect("Algorithm 5 runs");

        println!(
            "{:>6} {:>6}  {:>14} intervs, {}  {:>14} intervs, {} (cause {})",
            n_disc,
            size,
            greedy.interventions,
            if greedy.resolved {
                "resolved  "
            } else {
                "UNRESOLVED"
            },
            tree.interventions,
            if tree.resolved {
                "resolved  "
            } else {
                "UNRESOLVED"
            },
            if s2.covers_cause(&tree.pvt_ids()) {
                "found"
            } else {
                "missed"
            },
        );
    }
    println!(
        "\npaper reference: appendix B — the decision-tree extension handles PVT\n\
         interactions that break the greedy/group-testing assumptions"
    );
}
