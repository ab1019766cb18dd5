//! Regenerates the paper's **Fig 7**: number of interventions and
//! wall-clock time of the five techniques on the three real-world
//! case studies. "NA" means the technique detected an A3 violation
//! (group testing not applicable), exactly as in the paper's
//! Cardiovascular row.
//!
//! Usage: `cargo run --release -p dp-bench --bin fig7_table [--small]`

use dp_bench::{arg_switch, format_row, run_case_study, technique_name, TECHNIQUES};
use dp_scenarios::{cardio, income, sentiment, Scenario};

/// Every flag this binary takes.
const FLAGS: &[&str] = &["--small"];

fn main() {
    let small = arg_switch(FLAGS, "--small");
    let (n_sent, n_inc, n_card) = if small {
        (400, 300, 400)
    } else {
        (1500, 800, 900)
    };
    let seed = 42;

    type ScenarioMaker = Box<dyn Fn() -> Scenario>;
    let studies: Vec<(&str, ScenarioMaker)> = vec![
        (
            "Sentiment",
            Box::new(move || sentiment::scenario_with_size(n_sent, seed)),
        ),
        (
            "Income",
            Box::new(move || income::scenario_with_size(n_inc, seed)),
        ),
        (
            "Cardiovascular",
            Box::new(move || cardio::scenario_with_size(n_card, seed)),
        ),
    ];

    println!("Fig 7 — interventions and execution time per technique\n");
    let widths = [16, 14, 13, 8, 8, 8];
    let header: Vec<String> = [
        "Application",
        "DataPrism-GRD",
        "DataPrism-GT",
        "BugDoc",
        "Anchor",
        "GrpTest",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut all_rows: Vec<(String, Vec<dp_bench::RunResult>)> = Vec::new();
    for (name, make) in &studies {
        let mut results = Vec::new();
        for technique in TECHNIQUES {
            eprintln!("running {} × {name} ...", technique_name(technique));
            results.push(run_case_study(make(), technique));
        }
        all_rows.push((name.to_string(), results));
    }

    println!("Number of interventions:");
    println!("{}", format_row(&header, &widths));
    for (name, results) in &all_rows {
        let mut cells = vec![name.clone()];
        cells.extend(results.iter().map(|r| r.interventions_cell()));
        println!("{}", format_row(&cells, &widths));
    }

    println!("\nExecution time (seconds):");
    println!("{}", format_row(&header, &widths));
    for (name, results) in &all_rows {
        let mut cells = vec![name.clone()];
        cells.extend(results.iter().map(|r| r.seconds_cell()));
        println!("{}", format_row(&cells, &widths));
    }

    println!("\nGround truth found / resolved:");
    println!("{}", format_row(&header, &widths));
    for (name, results) in &all_rows {
        let mut cells = vec![name.clone()];
        cells.extend(results.iter().map(|r| {
            if r.interventions.is_none() {
                "NA".to_string()
            } else {
                format!(
                    "{}{}",
                    if r.found_ground_truth { "GT" } else { "--" },
                    if r.resolved { "/ok" } else { "/un" }
                )
            }
        }));
        println!("{}", format_row(&cells, &widths));
    }
}
