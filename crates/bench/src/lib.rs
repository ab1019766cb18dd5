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

use dataprism::{Algorithm, Diagnosis, Explanation, PrismError, Source};
use dp_scenarios::synthetic::SyntheticScenario;
use dp_scenarios::Scenario;
use std::time::Instant;

/// The five techniques of the paper's evaluation, in its column order.
pub const TECHNIQUES: [Algorithm; 5] = [
    Algorithm::Greedy,
    Algorithm::GroupTest,
    Algorithm::BugDoc,
    Algorithm::Anchor,
    Algorithm::GrpTest,
];

/// Paper-style display name of a technique, one of [`TECHNIQUES`].
///
/// # Panics
///
/// On [`Algorithm::Auto`], which is not a technique of the paper's
/// evaluation.
pub fn technique_name(technique: Algorithm) -> &'static str {
    match technique {
        Algorithm::Greedy => "DataPrism-GRD",
        Algorithm::GroupTest => "DataPrism-GT",
        Algorithm::BugDoc => "BugDoc",
        Algorithm::Anchor => "Anchor",
        Algorithm::GrpTest => "GrpTest",
        Algorithm::Auto => unreachable!("Auto is not a technique of Fig 7"),
    }
}

/// Outcome of one technique × scenario run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which technique ran.
    pub technique: Algorithm,
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

    /// The row of one finished run: an A3 violation is an "NA" cell,
    /// any other error a bug in the harness.
    fn of(
        technique: Algorithm,
        result: dataprism::Result<Explanation>,
        seconds: f64,
        found_ground_truth: impl FnOnce(&Explanation) -> bool,
        scenario: &str,
    ) -> RunResult {
        match result {
            Ok(exp) => RunResult {
                technique,
                interventions: Some(exp.interventions),
                seconds,
                resolved: exp.resolved,
                found_ground_truth: found_ground_truth(&exp),
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
            Err(e) => panic!("{} failed on {scenario}: {e}", technique_name(technique)),
        }
    }
}

/// Run one technique on a case-study scenario (fresh scenario each
/// call — systems are stateful). BugDoc and Anchor search every PVT
/// discoverable over the passing dataset, the others the
/// discriminative ones.
pub fn run_case_study(mut scenario: Scenario, technique: Algorithm) -> RunResult {
    let start = Instant::now();
    let result = Diagnosis::new(technique).run(
        Source::Borrowed(scenario.system.as_mut()),
        &scenario.d_fail,
        &scenario.d_pass,
        &scenario.config,
    );
    let seconds = start.elapsed().as_secs_f64();
    let found = |exp: &Explanation| scenario.explains_ground_truth(exp);
    RunResult::of(technique, result, seconds, found, scenario.name)
}

/// Run one technique on a synthetic scenario with pre-built PVTs.
pub fn run_synthetic(mut scenario: SyntheticScenario, technique: Algorithm) -> RunResult {
    let pvts = scenario.pvts.clone();
    let start = Instant::now();
    let result = Diagnosis::new(technique).with_candidates(pvts).run(
        Source::Borrowed(&mut scenario.system),
        &scenario.d_fail,
        &scenario.d_pass,
        &scenario.config,
    );
    let seconds = start.elapsed().as_secs_f64();
    let found = |exp: &Explanation| scenario.covers_cause(&exp.pvt_ids());
    RunResult::of(technique, result, seconds, found, "synthetic scenario")
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

/// An error naming the first argument in `args` that looks like a
/// flag (`--…`) but is not in `flags`, the binary's whole flag list.
fn check_known(args: &[String], flags: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .skip(1)
        .find(|a| a.starts_with("--") && !flags.contains(&a.as_str()))
    {
        Some(unknown) => Err(format!(
            "unknown flag '{unknown}' (expected one of {})",
            flags.join(", ")
        )),
        None => Ok(()),
    }
}

/// The argument after flag `name` in `args`, `None` when the flag is
/// absent, or an error when nothing follows it.
fn raw_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) => Ok(Some(value)),
        None => Err(format!("{name} needs a value")),
    }
}

/// The value of flag `name` in `args` (`name <value>`), or `default`
/// when the flag is absent. `flags` is the binary's whole flag list,
/// switches included: any other argument that starts with `--` is an
/// unknown flag, so a misspelt name is an error instead of a silent
/// default. A flag with no value after it, or a value that is not a
/// non-negative integer, is an error naming the flag.
pub fn parse_flag(
    args: &[String],
    flags: &[&str],
    name: &str,
    default: usize,
) -> Result<usize, String> {
    check_known(args, flags)?;
    match raw_value(args, name)? {
        None => Ok(default),
        Some(value) => value
            .parse()
            .map_err(|_| format!("invalid value '{value}' for {name}")),
    }
}

/// [`parse_flag`] for a flag whose value must be one of `choices`.
pub fn parse_choice<'c>(
    args: &[String],
    flags: &[&str],
    name: &str,
    default: &'c str,
    choices: &[&'c str],
) -> Result<&'c str, String> {
    check_known(args, flags)?;
    let Some(value) = raw_value(args, name)? else {
        return Ok(default);
    };
    choices
        .iter()
        .copied()
        .find(|c| *c == value)
        .ok_or_else(|| {
            format!(
                "invalid value '{value}' for {name} (expected one of {})",
                choices.join(", ")
            )
        })
}

/// The command line of this process.
fn process_args() -> Vec<String> {
    std::env::args().collect()
}

/// `result`'s value, or exit with status 2 after printing its error,
/// so a typo never silently runs the default.
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// [`parse_flag`] over this process's command line. On an unknown
/// flag or a missing or unparsable value it prints the problem and
/// exits with status 2.
pub fn arg_value(flags: &[&str], name: &str, default: usize) -> usize {
    or_exit(parse_flag(&process_args(), flags, name, default))
}

/// [`parse_choice`] over this process's command line; exits with
/// status 2 like [`arg_value`].
pub fn arg_choice(
    flags: &[&str],
    name: &str,
    default: &'static str,
    choices: &[&'static str],
) -> &'static str {
    or_exit(parse_choice(&process_args(), flags, name, default, choices))
}

/// Whether switch `name` is on this process's command line. An
/// unknown flag exits with status 2 like [`arg_value`].
pub fn arg_switch(flags: &[&str], name: &str) -> bool {
    let args = process_args();
    or_exit(check_known(&args, flags));
    args.iter().skip(1).any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_scenarios::synthetic::single_cause;

    #[test]
    fn runner_executes_every_technique_on_a_tiny_pipeline() {
        for technique in TECHNIQUES {
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
            technique: Algorithm::GroupTest,
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
        let names: Vec<&str> = TECHNIQUES.into_iter().map(technique_name).collect();
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
        const FLAGS: &[&str] = &["--threads", "--rows", "--smoke"];
        let parse = |argv: &[&str], name, default| parse_flag(&args(argv), FLAGS, name, default);
        let argv = ["bin", "--smoke", "--threads", "4"];
        assert_eq!(parse(&argv, "--threads", 8), Ok(4));
        assert_eq!(parse(&argv, "--rows", 8), Ok(8), "absent flag");
        assert_eq!(
            parse(&["bin", "--threads", "abc"], "--threads", 8),
            Err("invalid value 'abc' for --threads".to_string())
        );
        assert_eq!(
            parse(&["bin", "--threads", "-1"], "--threads", 8),
            Err("invalid value '-1' for --threads".to_string())
        );
        assert_eq!(
            parse(&["bin", "--threads"], "--threads", 8),
            Err("--threads needs a value".to_string()),
            "trailing flag"
        );
        assert!(
            parse(&["bin", "--threads", "--smoke"], "--threads", 8).is_err(),
            "another flag is not a value"
        );
        // A misspelt flag is refused, whichever flag is asked for.
        for name in ["--threads", "--rows"] {
            assert_eq!(
                parse(&["bin", "--thread", "4"], name, 8),
                Err(
                    "unknown flag '--thread' (expected one of --threads, --rows, --smoke)"
                        .to_string()
                ),
            );
        }
        // fig9_interventions' flags: a bad seed count and an unknown
        // panel are errors, not 3 seeds and an empty run.
        const FIG9: &[&str] = &["--panel", "--seeds"];
        const PANELS: &[&str] = &["a", "b", "c", "d", "all"];
        assert_eq!(
            parse_flag(&args(&["bin", "--seeds", "abc"]), FIG9, "--seeds", 3),
            Err("invalid value 'abc' for --seeds".to_string())
        );
        let panel = |argv: &[&str]| parse_choice(&args(argv), FIG9, "--panel", "all", PANELS);
        assert_eq!(panel(&["bin"]), Ok("all"), "absent choice");
        assert_eq!(panel(&["bin", "--panel", "c", "--seeds", "2"]), Ok("c"));
        assert_eq!(
            panel(&["bin", "--panel", "z"]),
            Err("invalid value 'z' for --panel (expected one of a, b, c, d, all)".to_string())
        );
        assert_eq!(
            panel(&["bin", "--panel"]),
            Err("--panel needs a value".to_string())
        );
        assert_eq!(
            panel(&["bin", "--panle", "a"]),
            Err("unknown flag '--panle' (expected one of --panel, --seeds)".to_string())
        );
        // fig7_table and fig8_scaling take switches only: a typo'd
        // switch is refused by the same check.
        assert_eq!(
            check_known(&args(&["bin", "--smol"]), &["--small"]),
            Err("unknown flag '--smol' (expected one of --small)".to_string())
        );
        assert_eq!(
            check_known(&args(&["bin", "--small"]), &["--small"]),
            Ok(())
        );
    }
}
