//! Build your own diagnosis problem: plant corruptions, choose a
//! (possibly conjunctive/disjunctive) root cause, and watch all five
//! techniques race.
//!
//! The pipeline here has 24 discriminative PVTs over 12 attributes;
//! the cause is the conjunction of PVTs 0 and 1 (a domain shift on
//! `a0` *and* missing values on `a1` must both be repaired).
//!
//! Note: several PVTs share attributes, so an algorithm may resolve
//! the malfunction through *different* PVT ids whose transformations
//! have the same effect (the paper's footnote 1: altering an
//! attribute w.r.t. one PVT passively repairs other PVTs on it). The
//! `cause?` column checks the planted ids specifically, so a `false`
//! next to `resolved = true` is exactly that aliasing.
//!
//! Run: `cargo run --release --example synthetic_playground`

use dataprism::{Algorithm, Diagnosis, Source};
use dp_scenarios::synthetic::{build, Plant, PlantKind, SyntheticSpec};

fn main() {
    let mut plants = vec![
        Plant {
            attr: 0,
            kind: PlantKind::Domain { severity: 1.0 },
        },
        Plant {
            attr: 1,
            kind: PlantKind::Missing { severity: 0.9 },
        },
    ];
    for i in 2..24 {
        plants.push(Plant {
            attr: i % 12,
            kind: if i % 2 == 0 {
                PlantKind::Domain { severity: 0.3 }
            } else {
                PlantKind::Missing { severity: 0.3 }
            },
        });
    }
    let spec = SyntheticSpec {
        n_rows: 150,
        n_attributes: 12,
        plants,
        cause: vec![vec![0, 1]],
        seed: 99,
    };

    println!("planted cause: fix PVT 0 (domain of a0) AND PVT 1 (missing in a1)\n");
    let header = format!(
        "{:<16} {:>13} {:>9} {:>13} {:>6}",
        "technique", "interventions", "resolved", "explanation", "cause?"
    );
    println!("{header}");

    let report = |name: &str, result: dataprism::Result<dataprism::Explanation>, covers: bool| {
        match result {
            Ok(exp) => println!(
                "{:<16} {:>13} {:>9} {:>13} {:>6}",
                name,
                exp.interventions,
                exp.resolved,
                format!("{:?}", exp.pvt_ids()),
                covers
            ),
            Err(e) => println!("{name:<16} {e}"),
        }
    };

    for (name, algorithm) in [
        ("DataPrism-GRD", Algorithm::Greedy),
        ("DataPrism-GT", Algorithm::GroupTest),
        ("GrpTest", Algorithm::GrpTest),
        ("BugDoc", Algorithm::BugDoc),
        ("Anchor", Algorithm::Anchor),
    ] {
        let mut s = build(&spec);
        let r = Diagnosis::new(algorithm)
            .with_candidates(s.pvts.clone())
            .run(
                Source::Borrowed(&mut s.system),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            );
        let covers = r
            .as_ref()
            .map(|e| s.covers_cause(&e.pvt_ids()))
            .unwrap_or(false);
        report(name, r, covers);
    }
}
