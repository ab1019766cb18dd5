//! Quickstart: diagnose why a system fails on one dataset but not
//! another, in ~40 lines.
//!
//! The "system" here is a label validator that assumes sentiment
//! labels are `-1`/`1`. The failing dataset encodes them as `0`/`4`
//! (the paper's Sentiment140 convention). DataPrism discovers the
//! discriminative profiles, intervenes, and reports the Domain
//! profile of `target` as the causally verified root cause, with the
//! order-preserving value mapping as the fix.
//!
//! Run: `cargo run --example quickstart`
//!
//! Pass `--trace` to collect the run's structured event stream and
//! print the run-metrics summary alongside the explanation.

use dataprism::{Algorithm, Diagnosis, PrismConfig, Source, TraceConfig};
use dp_frame::{Column, DType, DataFrame};

fn labels(values: &[&str]) -> Column {
    Column::from_strings(
        "target",
        DType::Categorical,
        values.iter().map(|v| Some(v.to_string())).collect(),
    )
}

fn main() {
    // A black-box system: any closure DataFrame -> [0,1] works.
    let mut system = |df: &DataFrame| {
        let col = df.column("target").expect("target column");
        let bad = col
            .str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count();
        bad as f64 / df.n_rows().max(1) as f64
    };

    let d_pass = DataFrame::from_columns(vec![labels(&["-1", "1", "1", "-1", "1", "-1"])])
        .expect("valid frame");
    let d_fail = DataFrame::from_columns(vec![labels(&["0", "4", "4", "0", "4", "0"])])
        .expect("valid frame");

    let mut config = PrismConfig::with_threshold(0.2);
    if std::env::args().any(|a| a == "--trace") {
        config.trace = TraceConfig::Collect;
    }
    let explanation = Diagnosis::new(Algorithm::Greedy)
        .run(Source::Borrowed(&mut system), &d_fail, &d_pass, &config)
        .expect("diagnosis runs");

    println!("{explanation}");
    println!("repaired dataset:\n{}", explanation.repaired);
    if !explanation.trace_records.is_empty() {
        println!(
            "trace: {} events | run metrics: {}",
            explanation.trace_records.len(),
            explanation.metrics.summary_line()
        );
    }
    assert!(explanation.resolved);
    assert!(explanation.contains_template("domain_cat(target)"));
}
