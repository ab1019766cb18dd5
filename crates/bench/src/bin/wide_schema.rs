//! Discovery cost on wide schemas: sketch pre-filter off vs on.
//!
//! The pairwise independence pass of §4.1 is O(m²) exact tests; on
//! the paper's ≤ 15-attribute case studies it is invisible, at a few
//! hundred attributes it dominates discovery. This harness generates
//! the [`dp_scenarios::wide`] datasets (mixed numeric/categorical
//! schema, planted correlated groups, background NULLs, five
//! discriminative corruptions), runs discriminative-PVT discovery
//! with [`Prefilter::Off`] and [`Prefilter::On`], and reports wall
//! clock, speedup, and the screening counters.
//!
//! The comparison is meaningful because the pre-filter is
//! parity-preserving: this harness **asserts** that both settings
//! discover identical profile sets on both frames and an identical
//! discriminative PVT set, and that the `On` run actually screened
//! pairs. A non-zero exit is a conformance failure, which is how the
//! CI smoke job uses it.
//!
//! Usage: `cargo run --release -p dp-bench --bin wide_schema
//! [--attrs M] [--rows N] [--repeat K] [--smoke]`

use dataprism::discovery::{discover_profiles_stats, discriminative_pvts_stats};
use dataprism::{DiscoveryConfig, DiscoveryStats, Prefilter, Pvt};
use dp_bench::{arg_value, format_row};
use dp_scenarios::wide::wide_schema;
use std::time::Instant;

fn config(prefilter: Prefilter) -> DiscoveryConfig {
    DiscoveryConfig {
        prefilter,
        ..Default::default()
    }
}

/// Every flag this binary takes.
const FLAGS: &[&str] = &["--smoke", "--attrs", "--rows", "--repeat"];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let attrs = arg_value(FLAGS, "--attrs", if smoke { 60 } else { 200 });
    let rows = arg_value(FLAGS, "--rows", if smoke { 150 } else { 400 });
    let repeat = arg_value(FLAGS, "--repeat", if smoke { 1 } else { 3 });

    println!("wide-schema discovery: {attrs} attributes x {rows} rows (best of {repeat})\n");
    let w = wide_schema(attrs, rows, 2022);

    // Parity: the screened pass must not change what is discovered.
    let timed = |df, prefilter| {
        let start = Instant::now();
        let (profiles, _) = discover_profiles_stats(df, &config(prefilter), 1);
        (profiles, start.elapsed().as_secs_f64())
    };
    let (pass_off, tp_off) = timed(&w.d_pass, Prefilter::Off);
    let (pass_on, tp_on) = timed(&w.d_pass, Prefilter::On);
    assert_eq!(pass_off, pass_on, "d_pass profile parity");
    let (fail_off, tf_off) = timed(&w.d_fail, Prefilter::Off);
    let (fail_on, tf_on) = timed(&w.d_fail, Prefilter::On);
    assert_eq!(fail_off, fail_on, "d_fail profile parity");
    println!(
        "single-frame discovery: d_pass off {tp_off:.3}s / on {tp_on:.3}s, \
         d_fail off {tf_off:.3}s / on {tf_on:.3}s ({} + {} profiles)\n",
        pass_on.len(),
        fail_on.len(),
    );

    let time = |prefilter: Prefilter| -> (f64, Vec<Pvt>, DiscoveryStats) {
        let cfg = config(prefilter);
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..repeat.max(1) {
            let start = Instant::now();
            let (pvts, stats) = discriminative_pvts_stats(&w.d_pass, &w.d_fail, &cfg, 1);
            best = best.min(start.elapsed().as_secs_f64());
            result = Some((pvts, stats));
        }
        let (pvts, stats) = result.expect("at least one repetition");
        (best, pvts, stats)
    };

    let (t_off, pvts_off, stats_off) = time(Prefilter::Off);
    let (t_on, pvts_on, stats_on) = time(Prefilter::On);

    assert_eq!(pvts_off, pvts_on, "discriminative PVT parity");
    assert_eq!(stats_off.screened(), 0, "Off must not screen");
    assert!(stats_on.screened() > 0, "On must screen on a wide schema");
    assert_eq!(
        stats_on.tests(),
        stats_off.tests(),
        "same pairs considered either way"
    );

    let widths = [12, 12, 12, 12, 12];
    println!(
        "{}",
        format_row(
            &["prefilter", "time (s)", "pair tests", "screened", "exact"].map(String::from),
            &widths,
        )
    );
    for (name, t, stats) in [("off", t_off, &stats_off), ("on", t_on, &stats_on)] {
        println!(
            "{}",
            format_row(
                &[
                    name.to_string(),
                    format!("{t:.3}"),
                    format!("{}", stats.tests()),
                    format!("{}", stats.screened()),
                    format!("{}", stats.tests() - stats.screened()),
                ],
                &widths,
            )
        );
    }
    println!(
        "\nscreened {} of {} pair tests ({} chi2, {} Pearson); \
         {} discriminative PVTs either way",
        stats_on.screened(),
        stats_on.tests(),
        stats_on.chi2_screened,
        stats_on.pearson_screened,
        pvts_on.len(),
    );
    println!(
        "speedup: {:.2}x (off {:.3}s -> on {:.3}s)",
        t_off / t_on.max(1e-9),
        t_off,
        t_on
    );
    println!("PARITY OK: identical profiles and discriminative PVTs with the pre-filter on");
}
