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
//! [--full] [--paper] [--panel all|attributes|pvts|rows] [--lint-off]
//! [--smoke]`
//!
//! `--panel` runs one panel only; `--paper` adds the paper's 300K
//! point to the PVT panel; `--lint-off` runs every diagnosis with
//! `Lint::Off`, to split the pre-query lint pass from the search.
//!
//! `--smoke` skips the sweeps and runs the CI memory gate on one
//! 10⁶-row cell instead: the live intervention working set (base
//! frame + one speculated frame per PVT, exactly what the speculation
//! layer holds in flight) must occupy ≥ 5× less heap after chunk
//! deduplication than eager full copies would.

use dataprism::{Algorithm, Lint};
use dp_bench::{arg_choice, arg_switch, format_row, run_synthetic, RunResult};
use dp_frame::unique_heap_bytes;
use dp_scenarios::synthetic::{
    conjunctive_cause_with_rows, single_cause, single_cause_with_rows, SyntheticScenario,
};
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
const FLAGS: &[&str] = &["--full", "--paper", "--panel", "--lint-off", "--smoke"];

fn main() {
    if arg_switch(FLAGS, "--smoke") {
        smoke();
        return;
    }
    let full = arg_switch(FLAGS, "--full");
    let paper = arg_switch(FLAGS, "--paper");
    let panel = arg_choice(
        FLAGS,
        "--panel",
        "all",
        &["all", "attributes", "pvts", "rows"],
    );
    let lint = if arg_switch(FLAGS, "--lint-off") {
        Lint::Off
    } else {
        Lint::default()
    };
    let run = |mut scenario: SyntheticScenario, algorithm| -> RunResult {
        scenario.config.lint = lint;
        run_synthetic(scenario, algorithm)
    };
    let seed = 11;
    if matches!(panel, "all" | "attributes") {
        attributes_panel(&run, full, seed);
    }
    if matches!(panel, "all" | "pvts") {
        pvts_panel(&run, full, paper, seed);
    }
    if matches!(panel, "all" | "rows") {
        rows_panel(&run, full, seed);
    }
    println!("\npaper reference: both curves grow sub-linearly (their Fig 8, log-log)");
}

/// Column widths of every panel's table.
const WIDTHS: [usize; 5] = [12, 14, 14, 13, 13];

/// One table row: the x value, then GRD and GT seconds and
/// interventions.
fn print_row(x: usize, grd: &RunResult, gt: &RunResult) {
    println!(
        "{}",
        format_row(
            &[
                x.to_string(),
                format!("{:.3}", grd.seconds),
                format!("{:.3}", gt.seconds),
                grd.interventions_cell(),
                gt.interventions_cell(),
            ],
            &WIDTHS
        )
    );
    assert!(grd.resolved && gt.resolved, "scaling runs must resolve");
}

fn header(x: &str) {
    println!(
        "{}",
        format_row(
            &[
                x.into(),
                "GRD seconds".into(),
                "GT seconds".into(),
                "GRD intervs".into(),
                "GT intervs".into()
            ],
            &WIDTHS
        )
    );
}

type Runner<'a> = dyn Fn(SyntheticScenario, Algorithm) -> RunResult + 'a;

fn attributes_panel(run: &Runner<'_>, full: bool, seed: u64) {
    println!(
        "Fig 8 (left) — execution time vs #attributes (one discriminative PVT per attribute)\n"
    );
    header("#attributes");
    let attr_points: &[usize] = if full {
        &[10, 50, 100, 200, 400, 800]
    } else {
        &[10, 50, 100, 200, 400]
    };
    for &m in attr_points {
        let grd = run(single_cause(m, m, seed), Algorithm::Greedy);
        let gt = run(single_cause(m, m, seed), Algorithm::GroupTest);
        print_row(m, &grd, &gt);
    }
}

fn pvts_panel(run: &Runner<'_>, full: bool, paper: bool, seed: u64) {
    println!("\nFig 8 (right) — execution time vs #discriminative PVTs (2 PVTs per attribute)\n");
    header("#disc PVTs");
    let mut pvt_points: Vec<usize> = vec![10, 100, 1000, 5000, 20_000];
    if full {
        pvt_points.push(100_000);
    }
    if paper {
        pvt_points.push(300_000);
    }
    for k in pvt_points {
        let n_attrs = k.div_ceil(2);
        let grd = run(single_cause(n_attrs, k, seed), Algorithm::Greedy);
        let gt = run(single_cause(n_attrs, k, seed), Algorithm::GroupTest);
        print_row(k, &grd, &gt);
    }
}

fn rows_panel(run: &Runner<'_>, full: bool, seed: u64) {
    println!("\nFig 8 (rows) — execution time vs #rows (16 attributes, 8 discriminative PVTs)\n");
    header("#rows");
    let row_points: &[usize] = if full {
        &[10_000, 100_000, 1_000_000, 10_000_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    for &rows in row_points {
        let grd = run(single_cause_with_rows(16, 8, rows, seed), Algorithm::Greedy);
        let gt = run(
            single_cause_with_rows(16, 8, rows, seed),
            Algorithm::GroupTest,
        );
        print_row(rows, &grd, &gt);
    }
}
