//! Example 2 of the paper — the EZGo toll-batch timeout — end to end,
//! including a full markdown diagnosis report.
//!
//! The EZGo batch processor reserves one hour per 1000 vehicles; an
//! external OCR is pathologically slow on black plates photographed
//! in low light, so a batch skewed toward that combination overruns
//! the budget. DataPrism pins the **Selectivity** profile of the
//! pathological slice and re-balances it (Fig 1 row 6).
//!
//! Run: `cargo run --release --example ezgo_timeout`

use dataprism::report::markdown_report;
use dataprism::{Algorithm, Diagnosis, Source, TraceConfig};
use dp_scenarios::ezgo;

fn main() {
    let mut scenario = ezgo::scenario_with_size(1000, 3);
    let pass_score = scenario.system.malfunction(&scenario.d_pass);
    let fail_score = scenario.system.malfunction(&scenario.d_fail);
    println!("budget overrun, normal batch: {pass_score:.3}");
    println!("budget overrun, skewed batch: {fail_score:.3}\n");

    // The report renders its intervention trail from collected trace
    // records.
    let mut config = scenario.config.clone();
    config.trace = TraceConfig::Collect;
    let explanation = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Borrowed(scenario.system.as_mut()),
            &scenario.d_fail,
            &scenario.d_pass,
            &config,
        )
        .expect("diagnosis runs");

    let report = markdown_report(
        &explanation,
        &scenario.d_pass,
        &scenario.d_fail,
        scenario.config.threshold,
        &scenario.config.discovery,
    );
    println!("{report}");
    println!(
        "pathological slice blamed: {}",
        scenario.explains_ground_truth(&explanation)
    );
}
