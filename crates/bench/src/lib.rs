//! # dp-bench — harness regenerating the paper's tables and figures
//!
//! Each binary regenerates one experiment (see DESIGN.md's experiment
//! index):
//!
//! - `fig7_table` — interventions & wall-clock for the five
//!   techniques on the three case studies (the paper's Fig 7).
//! - `fig6_toy` — DataPrism-GT vs traditional group testing on the
//!   8-PVT toy (Fig 6 / Example 16).
//! - `fig8_scaling` — wall-clock vs #attributes and #discriminative
//!   PVTs for GRD and GT (Fig 8).
//! - `fig9_interventions` — average #interventions vs #attributes /
//!   #PVTs / conjunction size / disjunction size (Fig 9(a)–(d)).
//! - `sec52_rank54` — the §5.2 adversarial pipeline where the cause
//!   is benefit-ranked 54th.
//!
//! This library holds the shared runner: it executes one technique
//! on one scenario and records interventions, wall-clock, resolution,
//! and whether the ground truth was found.

use dataprism::baselines::all_candidate_pvts;
use dataprism::baselines::anchor::{explain_anchor, AnchorConfig};
use dataprism::baselines::bugdoc::explain_bugdoc;
use dataprism::{
    explain_greedy, explain_greedy_with_pvts, explain_group_test, explain_group_test_with_pvts,
    PartitionStrategy, PrismError, Pvt,
};
use dp_scenarios::synthetic::SyntheticScenario;
use dp_scenarios::Scenario;
use std::time::Instant;

/// The five techniques of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// DataPrism-GRD (Algorithm 1).
    Greedy,
    /// DataPrism-GT (Algorithms 2–3 with min-bisection).
    GroupTest,
    /// BugDoc adapted to PVT configurations.
    BugDoc,
    /// Anchor adapted to PVT perturbations.
    Anchor,
    /// Traditional adaptive group testing (random bisection).
    GrpTest,
}

impl Technique {
    /// All five, in the paper's column order.
    pub fn all() -> [Technique; 5] {
        [
            Technique::Greedy,
            Technique::GroupTest,
            Technique::BugDoc,
            Technique::Anchor,
            Technique::GrpTest,
        ]
    }

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Greedy => "DataPrism-GRD",
            Technique::GroupTest => "DataPrism-GT",
            Technique::BugDoc => "BugDoc",
            Technique::Anchor => "Anchor",
            Technique::GrpTest => "GrpTest",
        }
    }
}

/// Outcome of one technique × scenario run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which technique ran.
    pub technique: Technique,
    /// Oracle interventions (the paper's primary metric). `None` when
    /// the technique is not applicable (A3 violated — the paper's
    /// "NA" cells).
    pub interventions: Option<usize>,
    /// Wall-clock seconds for the full diagnosis (discovery included).
    pub seconds: f64,
    /// Whether the malfunction was brought below τ.
    pub resolved: bool,
    /// Whether the explanation contains the planted ground truth.
    pub found_ground_truth: bool,
    /// Size of the reported explanation.
    pub explanation_size: usize,
}

impl RunResult {
    /// Paper-style rendering of the interventions cell.
    pub fn interventions_cell(&self) -> String {
        match self.interventions {
            Some(n) => n.to_string(),
            None => "NA".to_string(),
        }
    }

    /// Paper-style rendering of the time cell.
    pub fn seconds_cell(&self) -> String {
        match self.interventions {
            Some(_) => format!("{:.2}", self.seconds),
            None => "NA".to_string(),
        }
    }
}

/// Run one technique on a case-study scenario (fresh scenario each
/// call — systems are stateful).
pub fn run_case_study(mut scenario: Scenario, technique: Technique) -> RunResult {
    let start = Instant::now();
    let result = match technique {
        Technique::Greedy => explain_greedy(
            scenario.system.as_mut(),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
        ),
        Technique::GroupTest => explain_group_test(
            scenario.system.as_mut(),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
            PartitionStrategy::MinBisection,
        ),
        Technique::GrpTest => explain_group_test(
            scenario.system.as_mut(),
            &scenario.d_fail,
            &scenario.d_pass,
            &scenario.config,
            PartitionStrategy::Random,
        ),
        Technique::BugDoc => {
            let candidates = all_candidate_pvts(&scenario.d_pass, &scenario.config.discovery);
            explain_bugdoc(
                scenario.system.as_mut(),
                &scenario.d_fail,
                &scenario.d_pass,
                &candidates,
                &scenario.config,
            )
        }
        Technique::Anchor => {
            let candidates = all_candidate_pvts(&scenario.d_pass, &scenario.config.discovery);
            explain_anchor(
                scenario.system.as_mut(),
                &scenario.d_fail,
                &scenario.d_pass,
                &candidates,
                &scenario.config,
                &AnchorConfig::default(),
            )
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    match result {
        Ok(exp) => RunResult {
            technique,
            interventions: Some(exp.interventions),
            seconds,
            resolved: exp.resolved,
            found_ground_truth: scenario.explains_ground_truth(&exp),
            explanation_size: exp.pvts.len(),
        },
        Err(PrismError::AssumptionViolated(_)) => RunResult {
            technique,
            interventions: None,
            seconds,
            resolved: false,
            found_ground_truth: false,
            explanation_size: 0,
        },
        Err(e) => panic!("{} failed on {}: {e}", technique.name(), scenario.name),
    }
}

/// Run one technique on a synthetic scenario with pre-built PVTs.
pub fn run_synthetic(mut scenario: SyntheticScenario, technique: Technique) -> RunResult {
    let pvts: Vec<Pvt> = scenario.pvts.clone();
    let start = Instant::now();
    let result = match technique {
        Technique::Greedy => explain_greedy_with_pvts(
            &mut scenario.system,
            &scenario.d_fail,
            &scenario.d_pass,
            pvts,
            &scenario.config,
        ),
        Technique::GroupTest => explain_group_test_with_pvts(
            &mut scenario.system,
            &scenario.d_fail,
            &scenario.d_pass,
            pvts,
            &scenario.config,
            PartitionStrategy::MinBisection,
        ),
        Technique::GrpTest => explain_group_test_with_pvts(
            &mut scenario.system,
            &scenario.d_fail,
            &scenario.d_pass,
            pvts,
            &scenario.config,
            PartitionStrategy::Random,
        ),
        Technique::BugDoc => explain_bugdoc(
            &mut scenario.system,
            &scenario.d_fail,
            &scenario.d_pass,
            &pvts,
            &scenario.config,
        ),
        Technique::Anchor => explain_anchor(
            &mut scenario.system,
            &scenario.d_fail,
            &scenario.d_pass,
            &pvts,
            &scenario.config,
            &AnchorConfig::default(),
        ),
    };
    let seconds = start.elapsed().as_secs_f64();
    match result {
        Ok(exp) => {
            let found = scenario.covers_cause(&exp.pvt_ids());
            RunResult {
                technique,
                interventions: Some(exp.interventions),
                seconds,
                resolved: exp.resolved,
                found_ground_truth: found,
                explanation_size: exp.pvts.len(),
            }
        }
        Err(PrismError::AssumptionViolated(_)) => RunResult {
            technique,
            interventions: None,
            seconds,
            resolved: false,
            found_ground_truth: false,
            explanation_size: 0,
        },
        Err(e) => panic!("{} failed on synthetic scenario: {e}", technique.name()),
    }
}

/// Render one fixed-width table row.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// The value of flag `name` in `args` (`name <value>`), or `default`
/// when the flag is absent. A flag with no value after it, or a value
/// that is not a non-negative integer, is an error naming the flag.
pub fn parse_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("invalid value '{value}' for {name}"))
}

/// [`parse_flag`] over this process's command line. On a missing or
/// unparsable value it prints the problem and exits with status 2,
/// so a typo never silently runs the default.
pub fn arg_value(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_scenarios::synthetic::single_cause;

    #[test]
    fn runner_executes_every_technique_on_a_tiny_pipeline() {
        for technique in Technique::all() {
            let result = run_synthetic(single_cause(6, 6, 1), technique);
            assert!(result.interventions.is_some(), "{technique:?}");
            assert!(result.resolved, "{technique:?}: {result:?}");
            assert!(result.seconds >= 0.0);
            assert_ne!(result.interventions_cell(), "NA");
        }
    }

    #[test]
    fn na_cells_render() {
        let r = RunResult {
            technique: Technique::GroupTest,
            interventions: None,
            seconds: 1.0,
            resolved: false,
            found_ground_truth: false,
            explanation_size: 0,
        };
        assert_eq!(r.interventions_cell(), "NA");
        assert_eq!(r.seconds_cell(), "NA");
    }

    #[test]
    fn technique_names_are_paper_labels() {
        let names: Vec<&str> = Technique::all().iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec![
                "DataPrism-GRD",
                "DataPrism-GT",
                "BugDoc",
                "Anchor",
                "GrpTest"
            ]
        );
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_strictly() {
        let argv = args(&["bin", "--smoke", "--threads", "4"]);
        assert_eq!(parse_flag(&argv, "--threads", 8), Ok(4));
        assert_eq!(parse_flag(&argv, "--rows", 8), Ok(8), "absent flag");
        assert_eq!(
            parse_flag(&args(&["bin", "--threads", "abc"]), "--threads", 8),
            Err("invalid value 'abc' for --threads".to_string())
        );
        assert_eq!(
            parse_flag(&args(&["bin", "--threads", "-1"]), "--threads", 8),
            Err("invalid value '-1' for --threads".to_string())
        );
        assert_eq!(
            parse_flag(&args(&["bin", "--threads"]), "--threads", 8),
            Err("--threads needs a value".to_string()),
            "trailing flag"
        );
        assert!(
            parse_flag(&args(&["bin", "--threads", "--smoke"]), "--threads", 8).is_err(),
            "another flag is not a value"
        );
    }
}
