//! Regenerates the paper's **Fig 8**: execution time of DataPrism-GRD
//! and DataPrism-GT as the number of attributes (left panel) and the
//! number of discriminative PVTs (right panel) grow. The paper's
//! claim is sub-linear growth in both; absolute times differ from the
//! paper (different hardware and substrate).
//!
//! The paper's right panel reaches 300K discriminative PVTs at up to
//! ~10⁴ seconds per run; this harness defaults to 20K so a full sweep
//! finishes in minutes (`--full` raises the cap to 100K).
//!
//! A third panel scales the *row count* to 10⁶ (10⁷ with `--full`),
//! the regime where the copy-on-write chunked frame matters.
//!
//! Usage: `cargo run --release -p dp-bench --bin fig8_scaling
//! [--full] [--smoke]`
//!
//! `--smoke` skips the sweeps and runs the CI memory gate on one
//! 10⁶-row cell instead: the live intervention working set (base
//! frame + one speculated frame per PVT, exactly what the speculation
//! layer holds in flight) must occupy ≥ 5× less heap after chunk
//! deduplication than eager full copies would.

use dataprism::Algorithm;
use dp_bench::{arg_switch, format_row, run_synthetic};
use dp_frame::unique_heap_bytes;
use dp_scenarios::synthetic::{conjunctive_cause_with_rows, single_cause, single_cause_with_rows};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The CI gate: one 10⁶-row cell, checked for the CoW working-set
/// saving.
fn smoke() {
    let rows = 1_000_000;
    // A 4-PVT conjunctive cause over 16 attributes and 8 PVTs.
    let scenario = conjunctive_cause_with_rows(16, 8, 4, rows, 11);

    // Memory gate. Materialize every candidate intervention the way
    // the runtime does — `Transform::apply` clones the frame and
    // copy-on-writes only the chunks it touches — and keep them all
    // alive at once, the speculation layer's peak working set.
    let mut rng = StdRng::seed_from_u64(scenario.config.seed);
    let speculated: Vec<_> = scenario
        .pvts
        .iter()
        .map(|p| p.apply(&scenario.d_fail, &mut rng).expect("pvt applies").0)
        .collect();
    let frames: Vec<&dp_frame::DataFrame> = std::iter::once(&scenario.d_fail)
        .chain(&speculated)
        .collect();
    let cow = unique_heap_bytes(frames.iter().copied());
    let eager: usize = frames.iter().map(|f| f.heap_bytes()).sum();
    let factor = eager as f64 / cow as f64;
    println!(
        "memory gate: {rows} rows x 16 attrs, {} live interventions:\n\
         cow working set {:.1} MiB vs eager copies {:.1} MiB ({factor:.1}x saved)",
        speculated.len(),
        cow as f64 / (1 << 20) as f64,
        eager as f64 / (1 << 20) as f64,
    );
    assert!(
        factor >= 5.0,
        "CoW working set must be >= 5x smaller than eager copies (got {factor:.2}x)"
    );

    println!("fig8 memory gate: ok");
}

/// Every flag this binary takes.
const FLAGS: &[&str] = &["--full", "--smoke"];

fn main() {
    if arg_switch(FLAGS, "--smoke") {
        smoke();
        return;
    }
    let full = arg_switch(FLAGS, "--full");
    let seed = 11;

    println!(
        "Fig 8 (left) — execution time vs #attributes (one discriminative PVT per attribute)\n"
    );
    let widths = [12, 14, 14, 13, 13];
    println!(
        "{}",
        format_row(
            &[
                "#attributes".into(),
                "GRD seconds".into(),
                "GT seconds".into(),
                "GRD intervs".into(),
                "GT intervs".into()
            ],
            &widths
        )
    );
    let attr_points: &[usize] = if full {
        &[10, 50, 100, 200, 400, 800]
    } else {
        &[10, 50, 100, 200, 400]
    };
    for &m in attr_points {
        let grd = run_synthetic(single_cause(m, m, seed), Algorithm::Greedy);
        let gt = run_synthetic(single_cause(m, m, seed), Algorithm::GroupTest);
        println!(
            "{}",
            format_row(
                &[
                    m.to_string(),
                    format!("{:.3}", grd.seconds),
                    format!("{:.3}", gt.seconds),
                    grd.interventions_cell(),
                    gt.interventions_cell(),
                ],
                &widths
            )
        );
        assert!(grd.resolved && gt.resolved, "scaling runs must resolve");
    }

    println!("\nFig 8 (right) — execution time vs #discriminative PVTs (2 PVTs per attribute)\n");
    println!(
        "{}",
        format_row(
            &[
                "#disc PVTs".into(),
                "GRD seconds".into(),
                "GT seconds".into(),
                "GRD intervs".into(),
                "GT intervs".into()
            ],
            &widths
        )
    );
    let pvt_points: &[usize] = if full {
        &[10, 100, 1000, 5000, 20_000, 100_000]
    } else {
        &[10, 100, 1000, 5000, 20_000]
    };
    for &k in pvt_points {
        let n_attrs = k.div_ceil(2);
        let grd = run_synthetic(single_cause(n_attrs, k, seed), Algorithm::Greedy);
        let gt = run_synthetic(single_cause(n_attrs, k, seed), Algorithm::GroupTest);
        println!(
            "{}",
            format_row(
                &[
                    k.to_string(),
                    format!("{:.3}", grd.seconds),
                    format!("{:.3}", gt.seconds),
                    grd.interventions_cell(),
                    gt.interventions_cell(),
                ],
                &widths
            )
        );
        assert!(grd.resolved && gt.resolved, "scaling runs must resolve");
    }
    println!("\nFig 8 (rows) — execution time vs #rows (16 attributes, 8 discriminative PVTs)\n");
    println!(
        "{}",
        format_row(
            &[
                "#rows".into(),
                "GRD seconds".into(),
                "GT seconds".into(),
                "GRD intervs".into(),
                "GT intervs".into()
            ],
            &widths
        )
    );
    let row_points: &[usize] = if full {
        &[10_000, 100_000, 1_000_000, 10_000_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    for &rows in row_points {
        let grd = run_synthetic(single_cause_with_rows(16, 8, rows, seed), Algorithm::Greedy);
        let gt = run_synthetic(
            single_cause_with_rows(16, 8, rows, seed),
            Algorithm::GroupTest,
        );
        println!(
            "{}",
            format_row(
                &[
                    rows.to_string(),
                    format!("{:.3}", grd.seconds),
                    format!("{:.3}", gt.seconds),
                    grd.interventions_cell(),
                    gt.interventions_cell(),
                ],
                &widths
            )
        );
        assert!(grd.resolved && gt.resolved, "scaling runs must resolve");
    }

    println!("\npaper reference: both curves grow sub-linearly (their Fig 8, log-log)");
}
