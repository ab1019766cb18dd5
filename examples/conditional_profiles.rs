//! The §3 conditional-profiles extension in action: diagnosing a
//! *partial* unit corruption that only affects one site's records.
//!
//! Hospital A reports heights in centimeters, hospital B switched to
//! inches. A global `Domain(height)` profile sees only a 50%
//! violation and its global rescale would distort hospital A's
//! correct values; the conditional profile
//! `⟨site = B ⟹ Domain(height, [150, 195])⟩` captures the slice
//! exactly and its row-scoped transformation repairs only hospital
//! B's rows.
//!
//! Run: `cargo run --release --example conditional_profiles`

use dataprism::{Algorithm, Diagnosis, DiscoveryConfig, PrismConfig, Source};
use dp_frame::{Column, DType, DataFrame};

fn build(n: usize, inches_for_b: bool) -> DataFrame {
    let mut site = Vec::new();
    let mut height = Vec::new();
    let mut weight = Vec::new();
    for i in 0..n {
        let cm = 155.0 + (i % 40) as f64;
        if i % 2 == 0 {
            site.push(Some("A".to_string()));
            height.push(Some(cm));
        } else {
            site.push(Some("B".to_string()));
            height.push(Some(if inches_for_b { cm / 2.54 } else { cm }));
        }
        weight.push(Some(60.0 + (i % 30) as f64));
    }
    DataFrame::from_columns(vec![
        Column::from_strings("site", DType::Categorical, site),
        Column::from_floats("height", height),
        Column::from_floats("weight", weight),
    ])
    .unwrap()
}

fn main() {
    let d_pass = build(200, false);
    let d_fail = build(200, true);

    // The system: BMI-based screening that mistrusts implausible
    // heights. Malfunction = fraction of records it must reject.
    let mut system = |df: &DataFrame| {
        let height = df.column("height").unwrap();
        let rejected = height
            .f64_values()
            .iter()
            .filter(|(_, h)| !(100.0..=230.0).contains(h))
            .count();
        rejected as f64 / df.n_rows().max(1) as f64
    };

    let config = PrismConfig {
        threshold: 0.05,
        discovery: DiscoveryConfig {
            conditional_domains_on: Some("site".to_string()),
            ..DiscoveryConfig::default()
        },
        ..Default::default()
    };

    let explanation = Diagnosis::new(Algorithm::Greedy)
        .run(Source::Borrowed(&mut system), &d_fail, &d_pass, &config)
        .expect("diagnosis runs");
    println!("{explanation}");

    // Show that hospital A's records were untouched by the repair.
    let site = explanation.repaired.column("site").unwrap();
    let before = d_fail.column("height").unwrap();
    let after = explanation.repaired.column("height").unwrap();
    let mut a_unchanged = true;
    for i in 0..explanation.repaired.n_rows() {
        if site.get(i).to_string() == "A" && (before.get(i).as_f64() != after.get(i).as_f64()) {
            a_unchanged = false;
        }
    }
    println!(
        "hospital A rows untouched by the fix: {}",
        if a_unchanged {
            "yes"
        } else {
            "no (a global repair was chosen)"
        }
    );
}
