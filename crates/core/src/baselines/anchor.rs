//! Anchor baseline (Ribeiro et al., AAAI 2018), adapted to PVT
//! interventions.
//!
//! Anchors explain a classifier's prediction by a minimal rule — a
//! partial assignment of feature values — that keeps the prediction
//! (almost) invariant under random perturbation of the remaining
//! features. In the paper's adaptation the "classifier" is the
//! Pass/Fail outcome of the system, the "features" are the PVTs
//! (transformation applied / not applied), and the anchor is a
//! partial on/off assignment `A` such that random configurations
//! consistent with `A` pass with high precision. Every sampled
//! configuration is evaluated by the real oracle, so each sample is
//! an intervention — which is why Anchor spends hundreds to
//! thousands of interventions (the paper's Fig 7: 303 / 800 / 5900).
//!
//! The search is the KL-LUCB-flavored beam construction of the
//! original: grow the anchor one assignment at a time, estimating
//! each candidate extension's precision from batches of Monte-Carlo
//! samples and keeping the best arm, until the precision target is
//! met or the sampling budget runs out.

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
use std::collections::BTreeMap;

/// Precision target for accepting an anchor.
const PRECISION_TARGET: f64 = 0.9;
/// Samples drawn per candidate arm per round.
const BATCH_SIZE: usize = 10;
/// Candidate extensions examined per round (beam width, counting on-
/// and off-assignments separately).
const BEAM_WIDTH: usize = 6;
/// Minimum samples of the final anchor before it is trusted.
const MIN_SAMPLES: usize = 25;
/// Hard cap on sampled configurations (oracle queries), below
/// `PrismConfig::max_interventions`; the search returns its best
/// effort when exhausted.
const MAX_QUERIES: usize = 8000;

#[derive(Debug, Clone, Default)]
struct ArmStats {
    samples: usize,
    passes: usize,
}

impl ArmStats {
    fn precision(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.passes as f64 / self.samples as f64
        }
    }
}

/// A partial assignment: PVT id → forced on (apply) / off (skip).
type Assignment = BTreeMap<usize, bool>;

/// Run the adapted Anchor baseline over the candidate PVTs
/// ([`super::all_candidate_pvts`] in the paper's setting).
pub(crate) fn run_anchor(
    oracle: &mut Oracle<'_>,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    candidates: &[Pvt],
    config: &PrismConfig,
    tracer: Tracer,
) -> Result<Explanation> {
    let (initial_score, _) = validate_inputs(oracle, d_fail, d_pass, Vec::new(), &tracer)?;
    if candidates.is_empty() {
        return Err(PrismError::NoDiscriminativePvts);
    }
    tracer.candidates(candidates.len());
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x00A2_C407);
    let all_ids: Vec<usize> = candidates.iter().map(|p| p.id).collect();
    let max_queries = MAX_QUERIES.min(config.max_interventions);

    let mut best_pass: Option<(DataFrame, f64, Vec<usize>)> = None;
    let mut queries = 0usize;

    // Draw one configuration consistent with `anchor`, evaluate it.
    macro_rules! sample {
        ($anchor:expr) => {{
            let on_ids: Vec<usize> = all_ids
                .iter()
                .copied()
                .filter(|id| match $anchor.get(id) {
                    Some(&forced) => forced,
                    None => rng.gen_bool(0.5),
                })
                .collect();
            let refs: Vec<&Pvt> = candidates
                .iter()
                .filter(|p| on_ids.contains(&p.id))
                .collect();
            let (transformed, _) = apply_composition(&refs, d_fail, &mut rng)?;
            let score = oracle.intervene_traced(&transformed, &tracer);
            queries += 1;
            let pass = oracle.passes(score);
            if pass
                && best_pass
                    .as_ref()
                    .map(|(_, s, _)| score < *s)
                    .unwrap_or(true)
            {
                best_pass = Some((transformed, score, on_ids.clone()));
            }
            pass
        }};
    }

    let mut anchor: Assignment = Assignment::new();
    let mut anchor_stats = ArmStats::default();

    loop {
        let done_sampling = queries >= max_queries || oracle.exhausted();
        let precise =
            anchor_stats.precision() >= PRECISION_TARGET && anchor_stats.samples >= MIN_SAMPLES;
        if done_sampling || precise || anchor.len() == all_ids.len() {
            break;
        }
        if anchor_stats.precision() >= PRECISION_TARGET {
            // Precise but under-sampled: shore up the estimate
            // (KL-LUCB's confirmation sampling).
            for _ in 0..BATCH_SIZE {
                if queries >= max_queries || oracle.exhausted() {
                    break;
                }
                let pass = sample!(&anchor);
                anchor_stats.samples += 1;
                anchor_stats.passes += usize::from(pass);
            }
            continue;
        }
        // Candidate arms: extend by forcing one unassigned PVT on or
        // off. Round-robin a beam over the unassigned ids.
        let unassigned: Vec<usize> = all_ids
            .iter()
            .copied()
            .filter(|id| !anchor.contains_key(id))
            .collect();
        let mut arms: Vec<(usize, bool)> = Vec::new();
        for id in unassigned.iter().take(BEAM_WIDTH.max(2) / 2 + 1) {
            arms.push((*id, true));
            arms.push((*id, false));
        }
        arms.truncate(BEAM_WIDTH.max(1));
        let mut best_arm: Option<((usize, bool), ArmStats)> = None;
        for (id, forced) in arms {
            let mut extended = anchor.clone();
            extended.insert(id, forced);
            let mut stats = ArmStats::default();
            for _ in 0..BATCH_SIZE {
                if queries >= max_queries || oracle.exhausted() {
                    break;
                }
                let pass = sample!(&extended);
                stats.samples += 1;
                stats.passes += usize::from(pass);
            }
            let ids: Vec<usize> = extended
                .iter()
                .filter(|(_, &on)| on)
                .map(|(&i, _)| i)
                .collect();
            tracer.intervention(
                &ids,
                initial_score,
                1.0 - stats.precision(),
                stats.precision() > anchor_stats.precision(),
            );
            if best_arm
                .as_ref()
                .map(|(_, s)| stats.precision() > s.precision())
                .unwrap_or(true)
            {
                best_arm = Some(((id, forced), stats));
            }
        }
        let Some(((id, forced), stats)) = best_arm else {
            break;
        };
        if stats.precision() >= anchor_stats.precision() {
            anchor.insert(id, forced);
            anchor_stats = stats;
        } else {
            // No extension helped this round: sample the incumbent
            // more before retrying.
            for _ in 0..BATCH_SIZE {
                if queries >= max_queries || oracle.exhausted() {
                    break;
                }
                let pass = sample!(&anchor);
                anchor_stats.samples += 1;
                anchor_stats.passes += usize::from(pass);
            }
        }
    }

    // Final verification: the anchor's forced-on PVTs alone.
    let on_ids: Vec<usize> = anchor
        .iter()
        .filter(|(_, &on)| on)
        .map(|(&id, _)| id)
        .collect();
    let refs: Vec<&Pvt> = candidates
        .iter()
        .filter(|p| on_ids.contains(&p.id))
        .collect();
    let (anchored, _) = apply_composition(&refs, d_fail, &mut rng)?;
    let anchored_score = oracle.intervene_traced(&anchored, &tracer);
    let (repaired, final_score, explaining_ids) = if oracle.passes(anchored_score) {
        (anchored, anchored_score, on_ids)
    } else if let Some((df, s, ids)) = best_pass {
        (df, s, ids)
    } else {
        (d_fail.clone(), initial_score, Vec::new())
    };

    let pvts: Vec<Pvt> = candidates
        .iter()
        .filter(|p| explaining_ids.contains(&p.id))
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
    use crate::{Algorithm, Diagnosis, Source, System};
    use dp_frame::{Column, DType};

    fn anchor(
        system: &mut dyn System,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
        candidates: &[Pvt],
        config: &PrismConfig,
    ) -> Result<Explanation> {
        Diagnosis::new(Algorithm::Anchor)
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
    fn anchor_resolves_but_spends_many_interventions() {
        let (pass, fail) = scenario();
        let config = PrismConfig::with_threshold(0.2);
        let candidates = all_candidate_pvts(&pass, &config.discovery);
        let mut system = label_system;
        let exp = anchor(&mut system, &fail, &pass, &candidates, &config).unwrap();
        assert!(exp.resolved, "{exp}");
        let mut system2 = label_system;
        let greedy = Diagnosis::new(Algorithm::Greedy)
            .run(Source::Borrowed(&mut system2), &fail, &pass, &config)
            .unwrap();
        assert!(
            exp.interventions > 3 * greedy.interventions,
            "anchor {} vs greedy {}",
            exp.interventions,
            greedy.interventions
        );
    }

    #[test]
    fn query_cap_bounds_interventions() {
        let (pass, fail) = scenario();
        // Unresolvable system: Anchor must stop at the cap.
        let pass_fp = crate::oracle::fingerprint(&pass);
        let mut system = move |df: &DataFrame| {
            if crate::oracle::fingerprint(df) == pass_fp {
                0.0
            } else {
                0.9
            }
        };
        let config = PrismConfig {
            max_interventions: 100,
            ..PrismConfig::with_threshold(0.2)
        };
        let candidates = all_candidate_pvts(&pass, &config.discovery);
        let exp = anchor(&mut system, &fail, &pass, &candidates, &config).unwrap();
        assert!(!exp.resolved);
        assert!(
            exp.interventions <= 120,
            "cap plus final verification, got {}",
            exp.interventions
        );
    }

    #[test]
    fn empty_candidates_error() {
        let (pass, fail) = scenario();
        let mut system = label_system;
        let err = anchor(
            &mut system,
            &fail,
            &pass,
            &[],
            &PrismConfig::with_threshold(0.2),
        )
        .unwrap_err();
        assert!(matches!(err, PrismError::NoDiscriminativePvts));
    }
}
