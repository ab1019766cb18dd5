//! Oracle-query savings of the abstract-interpretation lint pass
//! (`dp_lint` L6/L7) on a wide-schema junk workload.
//!
//! The workload plants, per numeric attribute, one L6 equivalence
//! class (three copies of the literally identical winsorize fix) and
//! one τ-unreachable candidate (L7: the fix provably lands the whole
//! column outside its profile's region), plus a single real cause on
//! the categorical label column. Unpruned, greedy's O1 prioritization
//! charges one oracle query per junk candidate before reaching the
//! cause, and group testing bisects a candidate set four times the
//! size it needs to; with `Lint::Prune` the subsumption classes
//! collapse to their representatives and the unreachable certificates
//! drop out before any query.
//!
//! The comparison is meaningful because pruning is parity-preserving:
//! this harness **asserts** that Off and Prune land on the same
//! explanation, score bits, and repaired fingerprint, and that each
//! algorithm clears its structural savings floor (greedy explores
//! junk linearly, so >= 50%; group testing's savings are a ratio of
//! logarithms, so >= 15%). A non-zero exit is a conformance failure,
//! which is how the CI smoke job uses it.
//!
//! Usage: `cargo run --release -p dp-bench --bin lint_pruning
//! [--attrs M] [--rows N] [--smoke]`

use dataprism::{
    fingerprint, Algorithm, Diagnosis, Explanation, Lint, PrismConfig, Profile, Pvt, Source,
    Transform,
};
use dp_bench::{arg_value, format_row};
use dp_frame::{Column, DType, DataFrame};
use std::collections::BTreeSet;

/// One categorical label column carrying the real corruption plus
/// `attrs` numeric junk-target columns, each deterministically filled
/// inside [3, 15] (no NULLs — the L7 certificate needs the non-null
/// mass above τ).
fn frames(attrs: usize, rows: usize) -> (DataFrame, DataFrame) {
    let label = |bad: bool| -> Column {
        let vals: Vec<Option<String>> = (0..rows)
            .map(|i| {
                let good = if i % 2 == 0 { "-1" } else { "1" };
                let corrupt = if i % 2 == 0 { "0" } else { "4" };
                Some(if bad { corrupt } else { good }.to_string())
            })
            .collect();
        Column::from_strings("target", DType::Categorical, vals)
    };
    // The passing frame's numerics are offset by 0.25 so repairing
    // the label column never reproduces D_pass bit-for-bit — every
    // probe is a genuinely charged oracle query, not a baseline
    // cache hit.
    let numeric = |a: usize, bad: bool| -> Column {
        let offset = if bad { 0.0 } else { 0.25 };
        let vals: Vec<Option<f64>> = (0..rows)
            .map(|i| Some(3.0 + offset + ((i * 7 + a * 13) % 12) as f64))
            .collect();
        Column::from_floats(format!("a{a}"), vals)
    };
    let build = |bad: bool| {
        let mut cols = vec![label(bad)];
        cols.extend((0..attrs).map(|a| numeric(a, bad)));
        DataFrame::from_columns(cols).expect("workload frame builds")
    };
    (build(false), build(true))
}

/// Per attribute: three transform-key-identical candidates (one L6
/// class) and one τ-unreachable candidate; the real cause gets the
/// highest id so greedy's attribute-degree prioritization explores
/// the junk first.
fn candidates(attrs: usize) -> Vec<Pvt> {
    let mut pvts = Vec::new();
    let mut id = 0;
    for a in 0..attrs {
        let attr = format!("a{a}");
        for _ in 0..3 {
            pvts.push(Pvt {
                id,
                profile: Profile::DomainNumeric {
                    attr: attr.clone(),
                    lb: 0.0,
                    ub: 1.0,
                },
                transform: Transform::Winsorize {
                    attr: attr.clone(),
                    lb: 0.0,
                    ub: 1.0,
                },
            });
            id += 1;
        }
        pvts.push(Pvt {
            id,
            profile: Profile::DomainNumeric {
                attr: attr.clone(),
                lb: 0.0,
                ub: 1.0,
            },
            transform: Transform::Winsorize {
                attr,
                lb: 20.0,
                ub: 30.0,
            },
        });
        id += 1;
    }
    let domain: BTreeSet<String> = ["-1", "1"].iter().map(|s| s.to_string()).collect();
    pvts.push(Pvt {
        id,
        profile: Profile::DomainCategorical {
            attr: "target".into(),
            values: domain.clone(),
        },
        transform: Transform::MapToDomain {
            attr: "target".into(),
            values: domain,
        },
    });
    pvts
}

fn run(
    algo: &str,
    lint: Lint,
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    pvts: Vec<Pvt>,
) -> Explanation {
    let mut system = |df: &DataFrame| {
        let col = df.column("target").expect("label column present");
        let bad = col
            .str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count();
        bad as f64 / df.n_rows().max(1) as f64
    };
    let mut config = PrismConfig::with_threshold(0.2);
    config.lint = lint;
    let algorithm = match algo {
        "grd" => Algorithm::Greedy,
        _ => Algorithm::GroupTest,
    };
    Diagnosis::new(algorithm)
        .with_candidates(pvts)
        .run(Source::Borrowed(&mut system), d_fail, d_pass, &config)
        .expect("workload diagnosis succeeds")
}

/// Every flag this binary takes.
const FLAGS: &[&str] = &["--smoke", "--attrs", "--rows"];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let attrs = arg_value(FLAGS, "--attrs", if smoke { 6 } else { 12 });
    let rows = arg_value(FLAGS, "--rows", if smoke { 64 } else { 200 });
    let (d_pass, d_fail) = frames(attrs, rows);
    let n = candidates(attrs).len();
    println!(
        "lint-pruning savings: {attrs} junk attributes x {rows} rows, \
         {n} candidates ({} prunable)\n",
        n - 1 - attrs, // 2 subsumed + 1 unreachable per attribute
    );

    let widths = [8, 10, 12, 12, 12, 14];
    println!(
        "{}",
        format_row(
            &[
                "algo",
                "queries",
                "with lint",
                "saved",
                "reduction",
                "wall-clock"
            ]
            .map(String::from),
            &widths,
        )
    );
    for algo in ["grd", "gt"] {
        let timed = |lint: Lint| {
            let start = std::time::Instant::now();
            let exp = run(algo, lint, &d_pass, &d_fail, candidates(attrs));
            (exp, start.elapsed())
        };
        let (off, t_off) = timed(Lint::Off);
        let (pruned, t_pruned) = timed(Lint::Prune);

        // Parity: pruning may only remove work, never steer.
        assert_eq!(off.pvt_ids(), pruned.pvt_ids(), "{algo}: explanation set");
        assert_eq!(
            off.final_score.to_bits(),
            pruned.final_score.to_bits(),
            "{algo}: final score"
        );
        assert_eq!(
            fingerprint(&off.repaired),
            fingerprint(&pruned.repaired),
            "{algo}: repaired dataset"
        );
        assert_eq!(
            pruned.metrics.lint_subsumed,
            2 * attrs as u64,
            "{algo}: two duplicates merged per attribute"
        );
        assert_eq!(
            pruned.metrics.lint_pruned, attrs as u64,
            "{algo}: one unreachable candidate dropped per attribute"
        );

        // Greedy explores junk linearly, so pruning saves a constant
        // fraction per candidate; group testing discards non-reducing
        // halves wholesale, so its savings are a ratio of logarithms
        // and shrink as the candidate count grows.
        let floor = if algo == "grd" { 0.50 } else { 0.15 };
        let saved = off.interventions.saturating_sub(pruned.interventions);
        let reduction = saved as f64 / off.interventions.max(1) as f64;
        println!(
            "{}",
            format_row(
                &[
                    algo.to_string(),
                    format!("{}", off.interventions),
                    format!("{}", pruned.interventions),
                    format!("{saved}"),
                    format!("{:.1}%", reduction * 100.0),
                    format!(
                        "{:.1}ms -> {:.1}ms",
                        t_off.as_secs_f64() * 1e3,
                        t_pruned.as_secs_f64() * 1e3
                    ),
                ],
                &widths,
            )
        );
        assert!(
            reduction >= floor,
            "{algo}: lint pruning must save at least {:.0}% of charged queries \
             (got {:.1}%: {} -> {})",
            floor * 100.0,
            reduction * 100.0,
            off.interventions,
            pruned.interventions
        );
    }
    println!(
        "\nPARITY OK: identical explanations with lint pruning on; \
         savings cleared the per-algorithm floors (grd >= 50%, gt >= 15%)"
    );
}
