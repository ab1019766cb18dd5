//! BugDoc baseline (Lourenço et al., SIGMOD 2020), adapted to PVT
//! interventions.
//!
//! BugDoc debugs black-box computational pipelines by evaluating
//! *parameter configurations* chosen by combinatorial designs and
//! learning which parameter settings separate passing from failing
//! runs. In the paper's adaptation, each PVT is a binary pipeline
//! parameter (transformation applied / not applied) and each
//! configuration evaluation is an intervention.
//!
//! The re-implementation follows BugDoc's configuration-exploration
//! skeleton:
//!
//! 1. **Design phase** — evaluate random balanced configurations
//!    (each PVT on with probability ½, the strength-2 covering-style
//!    sampling BugDoc starts from). Every *passing* configuration
//!    refines the candidate cause set by intersection (the root
//!    cause's transformations must all be "on" in any passing
//!    configuration, by A1/A2).
//! 2. **Minimization phase** — once the candidate set is small,
//!    greedily drop PVTs whose removal keeps the configuration
//!    passing (BugDoc's shortest-path narrowing). The paper notes
//!    BugDoc's result "is not minimal" in general — minimization here
//!    is best-effort within the budget, reproducing that behavior.

use crate::config::PrismConfig;
use crate::diagnosis::{finish_run, validate_inputs};
use crate::error::{PrismError, Result};
use crate::explanation::Explanation;
use crate::pvt::{apply_composition, Pvt};
use crate::runtime::Oracle;
use dp_frame::DataFrame;
use dp_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Run the adapted BugDoc baseline over the candidate PVTs
/// ([`super::all_candidate_pvts`] in the paper's setting).
pub(crate) fn run_bugdoc(
    oracle: &mut Oracle<'_>,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    candidates: &[Pvt],
    config: &PrismConfig,
    tracer: Tracer,
) -> Result<Explanation> {
    let initial_score = validate_inputs(oracle, d_fail, d_pass, &[], &tracer)?;
    if candidates.is_empty() {
        return Err(PrismError::NoDiscriminativePvts);
    }
    tracer.candidates(candidates.len());
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x00B0_6D0C);

    let apply = |ids: &BTreeSet<usize>, rng: &mut StdRng| -> Result<DataFrame> {
        let refs: Vec<&Pvt> = candidates.iter().filter(|p| ids.contains(&p.id)).collect();
        Ok(apply_composition(&refs, d_fail, rng)?.0)
    };

    // Phase 1: design-based exploration with intersection refinement.
    let all_ids: BTreeSet<usize> = candidates.iter().map(|p| p.id).collect();
    let mut candidate_cause: BTreeSet<usize> = all_ids.clone();
    let mut best: Option<(BTreeSet<usize>, DataFrame, f64)> = None;
    // Adaptive design budget: BugDoc keeps sampling configurations
    // until a handful pass (rare passing configurations — e.g. when
    // some transformations are actively harmful — cost proportionally
    // more runs, which is why the paper's BugDoc spent 100
    // interventions on Cardiovascular vs 10 on Sentiment).
    let log_k = (candidates.len().max(2) as f64).log2().ceil() as usize;
    // A covering design always runs a minimum number of rows before
    // any conclusion; adaptivity only extends the run when passing
    // configurations are rare.
    let min_rounds = (2 * log_k).max(8);
    let base_budget = (6 * log_k).clamp(16, 150);
    const HARD_CAP: usize = 150;
    let mut hits = 0usize;
    for round in 0..HARD_CAP {
        let enough = round >= min_rounds && (hits >= 3 || (hits >= 1 && round >= base_budget));
        if oracle.exhausted() || enough {
            break;
        }
        // First probe: the all-on configuration (BugDoc's sanity run);
        // then balanced random configurations restricted to the
        // current candidate set unioned with random context.
        let config_ids: BTreeSet<usize> = if round == 0 {
            all_ids.clone()
        } else {
            all_ids
                .iter()
                .copied()
                .filter(|id| {
                    if candidate_cause.contains(id) {
                        rng.gen_bool(0.5)
                    } else {
                        rng.gen_bool(0.25)
                    }
                })
                .collect()
        };
        let transformed = apply(&config_ids, &mut rng)?;
        let score = oracle.intervene(&transformed, &tracer);
        let passes = oracle.passes(score);
        let ids: Vec<usize> = config_ids.iter().copied().collect();
        tracer.intervention(&ids, initial_score, score, passes);
        if passes {
            hits += 1;
            candidate_cause = candidate_cause.intersection(&config_ids).copied().collect();
            match &best {
                Some((ids, _, _)) if ids.len() <= candidate_cause.len() => {}
                _ => best = Some((candidate_cause.clone(), transformed, score)),
            }
            if candidate_cause.len() <= 2 {
                break;
            }
        }
    }

    let Some((mut cause, _, _)) = best else {
        // No configuration passed within the design budget.
        return finish_run(
            oracle,
            &tracer,
            Default::default(),
            Vec::new(),
            initial_score,
            initial_score,
            d_fail.clone(),
        );
    };

    // The intersection itself may not have been evaluated as a
    // configuration: verify it.
    let (mut repaired, mut final_score);
    {
        let transformed = apply(&cause, &mut rng)?;
        let score = oracle.intervene(&transformed, &tracer);
        if oracle.passes(score) {
            repaired = transformed;
            final_score = score;
        } else {
            // Fall back to the last passing configuration (whatever
            // superset we stored) by re-running phase 2 from all_ids.
            cause = all_ids.clone();
            let transformed = apply(&cause, &mut rng)?;
            final_score = oracle.intervene(&transformed, &tracer);
            repaired = transformed;
        }
    }

    // Phase 2: greedy one-pass minimization — best-effort and only
    // attempted when the candidate cause is already small. BugDoc's
    // reported explanations are not minimal in general (the paper's
    // Income discussion: "the returned solution of PVTs is not
    // minimal"); a large surviving intersection is reported as-is.
    const MINIMIZATION_LIMIT: usize = 12;
    let ids: Vec<usize> = if cause.len() <= MINIMIZATION_LIMIT {
        cause.iter().copied().collect()
    } else {
        Vec::new()
    };
    for id in ids {
        if cause.len() == 1 || oracle.exhausted() {
            break;
        }
        let mut without = cause.clone();
        without.remove(&id);
        let transformed = apply(&without, &mut rng)?;
        let score = oracle.intervene(&transformed, &tracer);
        if oracle.passes(score) {
            tracer.minimality_drop(id);
            cause = without;
            repaired = transformed;
            final_score = score;
        }
    }

    let pvts: Vec<Pvt> = candidates
        .iter()
        .filter(|p| cause.contains(&p.id))
        .cloned()
        .collect();
    finish_run(
        oracle,
        &tracer,
        Default::default(),
        pvts,
        initial_score,
        final_score,
        repaired,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::all_candidate_pvts;
    use crate::config::PrismConfig;
    use crate::{Algorithm, Diagnosis, Source, System};
    use dp_frame::{Column, DType};

    fn bugdoc(
        system: &mut dyn System,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
        candidates: &[Pvt],
        config: &PrismConfig,
    ) -> Result<Explanation> {
        Diagnosis::new(Algorithm::BugDoc)
            .with_candidates(candidates.to_vec())
            .run(Source::Borrowed(system), d_fail, d_pass, config)
    }

    fn cat(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(
            name,
            DType::Categorical,
            vals.iter().map(|s| Some(s.to_string())).collect(),
        )
    }

    fn scenario() -> (DataFrame, DataFrame) {
        let pass = DataFrame::from_columns(vec![
            cat("target", &["-1", "1", "1", "-1", "1", "-1"]),
            Column::from_ints(
                "len",
                vec![
                    Some(100),
                    Some(150),
                    Some(120),
                    Some(90),
                    Some(140),
                    Some(110),
                ],
            ),
        ])
        .unwrap();
        let fail = DataFrame::from_columns(vec![
            cat("target", &["0", "4", "4", "0", "4", "0"]),
            Column::from_ints(
                "len",
                vec![Some(20), Some(25), Some(22), Some(18), Some(24), Some(21)],
            ),
        ])
        .unwrap();
        (pass, fail)
    }

    fn label_system(df: &DataFrame) -> f64 {
        let col = df.column("target").unwrap();
        let bad = col
            .str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count();
        bad as f64 / df.n_rows().max(1) as f64
    }

    #[test]
    fn bugdoc_finds_a_fix_with_more_interventions_than_greedy() {
        let (pass, fail) = scenario();
        let config = PrismConfig::with_threshold(0.2);
        let candidates = all_candidate_pvts(&pass, &config.discovery);
        let mut system = label_system;
        let exp = bugdoc(&mut system, &fail, &pass, &candidates, &config).unwrap();
        assert!(exp.resolved, "{exp}");
        assert!(exp.contains_template("domain_cat(target)"), "{exp}");
        let mut system2 = label_system;
        let greedy = Diagnosis::new(Algorithm::Greedy)
            .run(Source::Borrowed(&mut system2), &fail, &pass, &config)
            .unwrap();
        assert!(
            exp.interventions >= greedy.interventions,
            "bugdoc {} vs greedy {}",
            exp.interventions,
            greedy.interventions
        );
    }

    #[test]
    fn empty_candidates_error() {
        let (pass, fail) = scenario();
        let mut system = label_system;
        let err = bugdoc(
            &mut system,
            &fail,
            &pass,
            &[],
            &PrismConfig::with_threshold(0.2),
        )
        .unwrap_err();
        assert!(matches!(err, PrismError::NoDiscriminativePvts));
    }

    #[test]
    fn unresolvable_reports_unresolved() {
        let (pass, fail) = scenario();
        let pass_fp = crate::oracle::fingerprint(&pass);
        let mut system = move |df: &DataFrame| {
            if crate::oracle::fingerprint(df) == pass_fp {
                0.0
            } else {
                0.9
            }
        };
        let config = PrismConfig::with_threshold(0.2);
        let candidates = all_candidate_pvts(&pass, &config.discovery);
        let exp = bugdoc(&mut system, &fail, &pass, &candidates, &config).unwrap();
        assert!(!exp.resolved);
        assert!(exp.pvts.is_empty());
    }
}
