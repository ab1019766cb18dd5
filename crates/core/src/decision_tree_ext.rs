//! Appendix B / Algorithm 5 — handling interacting PVTs with a
//! decision tree over multiple passing and failing datasets.
//!
//! When assumption A2 fails (intervening on PVT `P1` alone does not
//! help, but `P1` together with `P2` does), the greedy and
//! group-testing algorithms can miss the cause. Given *several*
//! passing and failing datasets, Algorithm 5 fits a decision tree on
//! (PVT-violation vector → pass/fail) instances, reads off the pure
//! "pass" paths as candidate conjunctions, and verifies them by
//! intervention, feeding failed attempts back as new training
//! instances.
//!
//! The tree here is a purpose-built ID3-style tree over *binary*
//! violation indicators (violated / not violated), which is all
//! Algorithm 5 requires.

use crate::cache::ScoreCache;
use crate::config::PrismConfig;
use crate::error::{PrismError, Result};
use crate::explanation::Explanation;
use crate::oracle::System;
use crate::pvt::{apply_composition, Pvt};
use crate::runtime::{Oracle, Source};
use dp_frame::DataFrame;
use dp_trace::{DiagnosisSpan, Event, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// One training instance: which PVTs a dataset violates, and whether
/// the system passed on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// `violated[i]` — does the dataset violate `pvts[i].profile`?
    pub violated: Vec<bool>,
    /// Did the system pass (`m_S ≤ τ`)?
    pub pass: bool,
}

/// Compute the violation indicator vector of a dataset.
pub fn violation_vector(df: &DataFrame, pvts: &[Pvt]) -> Vec<bool> {
    pvts.iter().map(|p| p.violation(df) > 0.0).collect()
}

/// Binary decision tree over violation indicators.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        pass: bool,
        pure: bool,
    },
    Split {
        feature: usize,
        /// Child for `violated == false`.
        clean: Box<Node>,
        /// Child for `violated == true`.
        violated: Box<Node>,
    },
}

fn entropy(pos: usize, neg: usize) -> f64 {
    let total = (pos + neg) as f64;
    if total == 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for c in [pos, neg] {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    h
}

fn fit_tree(instances: &[&Instance], used: &BTreeSet<usize>, n_features: usize) -> Node {
    let pos = instances.iter().filter(|i| i.pass).count();
    let neg = instances.len() - pos;
    if pos == 0 || neg == 0 || used.len() == n_features {
        return Node::Leaf {
            pass: pos >= neg,
            pure: pos == 0 || neg == 0,
        };
    }
    // Best information-gain split among unused features.
    let parent = entropy(pos, neg);
    let mut best: Option<(usize, f64)> = None;
    for f in 0..n_features {
        if used.contains(&f) {
            continue;
        }
        let (mut vp, mut vn, mut cp, mut cn) = (0usize, 0usize, 0usize, 0usize);
        for inst in instances {
            match (inst.violated[f], inst.pass) {
                (true, true) => vp += 1,
                (true, false) => vn += 1,
                (false, true) => cp += 1,
                (false, false) => cn += 1,
            }
        }
        if vp + vn == 0 || cp + cn == 0 {
            continue; // feature constant on this subset
        }
        let total = instances.len() as f64;
        let child = ((vp + vn) as f64 / total) * entropy(vp, vn)
            + ((cp + cn) as f64 / total) * entropy(cp, cn);
        let gain = parent - child;
        if gain > 1e-12 && best.is_none_or(|(_, g)| gain > g) {
            best = Some((f, gain));
        }
    }
    let Some((feature, _)) = best else {
        return Node::Leaf {
            pass: pos >= neg,
            pure: false,
        };
    };
    let mut used2 = used.clone();
    used2.insert(feature);
    let clean: Vec<&Instance> = instances
        .iter()
        .copied()
        .filter(|i| !i.violated[feature])
        .collect();
    let violated: Vec<&Instance> = instances
        .iter()
        .copied()
        .filter(|i| i.violated[feature])
        .collect();
    Node::Split {
        feature,
        clean: Box::new(fit_tree(&clean, &used2, n_features)),
        violated: Box::new(fit_tree(&violated, &used2, n_features)),
    }
}

/// Collect the paths that end in *pure pass* leaves. Each path yields
/// the set of features required to be clean (non-violated) along it.
fn pass_paths(node: &Node, require_clean: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    match node {
        Node::Leaf { pass, pure } => {
            if *pass && *pure {
                out.push(require_clean.clone());
            }
        }
        Node::Split {
            feature,
            clean,
            violated,
        } => {
            require_clean.push(*feature);
            pass_paths(clean, require_clean, out);
            require_clean.pop();
            pass_paths(violated, require_clean, out);
        }
    }
}

/// Run Algorithm 5: diagnose `d_fail` using a decision tree trained
/// on `datasets` (each labeled pass/fail by the oracle) plus the
/// baseline pair, verifying candidate conjunctions by intervention.
///
/// `pvts` is the candidate PVT set (for the A2-violating synthetic
/// scenarios, the discriminative set of any fail/pass pair works).
pub fn explain_with_decision_tree(
    system: &mut dyn System,
    d_fail: &DataFrame,
    datasets: &[DataFrame],
    pvts: &[Pvt],
    config: &PrismConfig,
) -> Result<Explanation> {
    decision_tree(system, d_fail, datasets, pvts, config, None)
}

/// [`explain_with_decision_tree`] with the oracle warm-started from
/// `warm`.
fn decision_tree(
    system: &mut dyn System,
    d_fail: &DataFrame,
    datasets: &[DataFrame],
    pvts: &[Pvt],
    config: &PrismConfig,
    warm: Option<&ScoreCache>,
) -> Result<Explanation> {
    if pvts.is_empty() {
        return Err(PrismError::NoDiscriminativePvts);
    }
    let tracer =
        Tracer::from_config(&config.trace).map_err(|e| PrismError::Trace(e.to_string()))?;
    let mut oracle = Oracle::new(
        Source::Borrowed(system),
        config.threshold,
        config.max_interventions,
        1,
    );
    if let Some(warm) = warm {
        oracle = oracle.with_warm_cache(warm);
    }
    tracer.begin(|| DiagnosisSpan {
        algorithm: "decision_tree".into(),
        system: oracle.system_name(),
        seed: config.seed,
        threshold: config.threshold,
        num_threads: 1,
        speculation_depth: 0,
    });
    let end = |resolved, interventions, final_score| {
        tracer.emit(|| Event::DiagnosisEnd {
            resolved,
            interventions,
            final_score,
        });
        tracer.finish()
    };
    let initial_score = oracle.baseline(d_fail, &tracer);
    tracer.candidates(pvts.len());
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD7EE);

    // Seed training instances from the provided datasets (these are
    // observations, not interventions).
    let mut instances: Vec<Instance> = Vec::new();
    for df in datasets {
        let score = oracle.baseline(df, &tracer);
        instances.push(Instance {
            violated: violation_vector(df, pvts),
            pass: oracle.passes(score),
        });
    }
    instances.push(Instance {
        violated: violation_vector(d_fail, pvts),
        pass: false,
    });

    let fail_violations = violation_vector(d_fail, pvts);

    // Lines 2–11: explore tree paths until a verified fix is found.
    let max_rebuilds = 2 * pvts.len() + 4;
    for _ in 0..max_rebuilds {
        if oracle.exhausted() {
            break;
        }
        let refs: Vec<&Instance> = instances.iter().collect();
        let tree = fit_tree(&refs, &BTreeSet::new(), pvts.len());
        let mut paths = Vec::new();
        pass_paths(&tree, &mut Vec::new(), &mut paths);
        // Candidate conjunction = clean-required features that the
        // failing dataset currently violates. Sort by total benefit.
        let mut candidates: Vec<Vec<usize>> = paths
            .into_iter()
            .map(|path| {
                path.into_iter()
                    .filter(|&f| fail_violations[f])
                    .collect::<Vec<usize>>()
            })
            .filter(|c| !c.is_empty())
            .collect();
        candidates.sort_by(|a, b| {
            let score = |c: &Vec<usize>| -> f64 {
                c.iter()
                    .map(|&f| crate::benefit::benefit(&pvts[f], d_fail))
                    .sum()
            };
            score(b).total_cmp(&score(a))
        });
        candidates.dedup();
        if candidates.is_empty() {
            // No informative pass path: grow the training set by
            // trying the full conjunction (exploration step).
            candidates.push((0..pvts.len()).filter(|&f| fail_violations[f]).collect());
        }
        let mut progressed = false;
        for conj in candidates {
            if oracle.exhausted() {
                break;
            }
            let refs: Vec<&Pvt> = conj.iter().map(|&f| &pvts[f]).collect();
            let (transformed, _) = apply_composition(&refs, d_fail, &mut rng)?;
            let score = oracle.intervene(&transformed, &tracer);
            let pass = oracle.passes(score);
            tracer.intervention(&conj, initial_score, score, pass);
            if pass {
                // Found: minimize and report.
                let selected: Vec<Pvt> = conj.iter().map(|&f| pvts[f].clone()).collect();
                let (selected, repaired, final_score) = crate::greedy::make_minimal(
                    &mut oracle,
                    d_fail,
                    selected,
                    transformed,
                    score,
                    config.seed,
                    &tracer,
                )?;
                return Ok(Explanation {
                    pvts: selected,
                    interventions: oracle.interventions,
                    lint: Default::default(),
                    metrics: oracle.run_metrics(),
                    trace_records: end(true, oracle.interventions, final_score),
                    initial_score,
                    final_score,
                    resolved: true,
                    repaired,
                    decisions: tracer.digest(),
                });
            }
            // Line 10: feed the failed attempt back into the tree.
            let new_instance = Instance {
                violated: violation_vector(&transformed, pvts),
                pass: false,
            };
            if !instances.contains(&new_instance) {
                instances.push(new_instance);
                progressed = true;
                break; // rebuild the tree with the new evidence
            }
        }
        if !progressed {
            break;
        }
    }

    Ok(Explanation {
        pvts: Vec::new(),
        interventions: oracle.interventions,
        lint: Default::default(),
        metrics: oracle.run_metrics(),
        trace_records: end(false, oracle.interventions, initial_score),
        initial_score,
        final_score: initial_score,
        resolved: false,
        repaired: d_fail.clone(),
        decisions: tracer.digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::transform::Transform;
    use dp_frame::Column;

    /// Two numeric attributes; PVT i is "attr_i within [0, 1]" fixed
    /// by winsorizing. The system passes only when BOTH attributes
    /// are in range — but fixing either one alone does not reduce the
    /// malfunction at all (A2 violated: no partial credit).
    fn interacting_scenario() -> (
        Vec<Pvt>,
        DataFrame,
        DataFrame,
        impl FnMut(&DataFrame) -> f64,
    ) {
        let pvt = |id: usize, attr: &str| Pvt {
            id,
            profile: Profile::DomainNumeric {
                attr: attr.into(),
                lb: 0.0,
                ub: 1.0,
            },
            transform: Transform::Winsorize {
                attr: attr.into(),
                lb: 0.0,
                ub: 1.0,
            },
        };
        let pvts = vec![pvt(0, "a"), pvt(1, "b")];
        let fail = DataFrame::from_columns(vec![
            Column::from_floats("a", vec![Some(5.0), Some(6.0), Some(0.5)]),
            Column::from_floats("b", vec![Some(7.0), Some(0.2), Some(9.0)]),
        ])
        .unwrap();
        let pass = DataFrame::from_columns(vec![
            Column::from_floats("a", vec![Some(0.1), Some(0.9), Some(0.5)]),
            Column::from_floats("b", vec![Some(0.3), Some(0.2), Some(0.8)]),
        ])
        .unwrap();
        let system = |df: &DataFrame| {
            let in_range = |name: &str| {
                df.column(name)
                    .map(|c| c.f64_values().iter().all(|(_, v)| (0.0..=1.0).contains(v)))
                    .unwrap_or(false)
            };
            if in_range("a") && in_range("b") {
                0.0
            } else {
                0.8 // all-or-nothing: violates A2
            }
        };
        (pvts, pass, fail, system)
    }

    #[test]
    fn finds_conjunctive_cause_despite_a2_violation() {
        let (pvts, pass, fail, mut system) = interacting_scenario();
        let config = PrismConfig::with_threshold(0.2);
        let exp = explain_with_decision_tree(&mut system, &fail, &[pass], &pvts, &config).unwrap();
        assert!(exp.resolved, "{exp}");
        assert_eq!(exp.pvt_ids(), vec![0, 1], "both PVTs required");
        assert_eq!(exp.final_score, 0.0);
    }

    #[test]
    fn a_collected_run_emits_its_interventions_and_digests_like_an_untraced_one() {
        let (pvts, pass, fail, mut system) = interacting_scenario();
        let mut config = PrismConfig::with_threshold(0.2);
        let observed = [pass];
        let off =
            explain_with_decision_tree(&mut system, &fail, &observed, &pvts, &config).unwrap();
        assert!(off.trace_records.is_empty());
        config.trace = dp_trace::TraceConfig::Collect;
        let on = explain_with_decision_tree(&mut system, &fail, &observed, &pvts, &config).unwrap();
        assert_eq!(on.digest(), off.digest());
        let events: Vec<&Event> = on.trace_records.iter().map(|r| &r.event).collect();
        assert!(matches!(events[0], Event::DiagnosisBegin(s) if s.algorithm == "decision_tree"));
        assert!(events.contains(&&Event::Candidates { n: 2 }));
        let kept = events
            .iter()
            .filter(|e| matches!(e, Event::Intervention { kept: true, .. }))
            .count();
        assert_eq!(kept, 1, "{events:?}");
        assert!(matches!(
            events.last(),
            Some(Event::DiagnosisEnd { resolved: true, .. })
        ));
    }

    #[test]
    fn a_collected_trail_replays_its_scores_and_warms_a_rerun_fully() {
        let (pvts, pass, fail, mut system) = interacting_scenario();
        let mut config = PrismConfig::with_threshold(0.2);
        config.trace = dp_trace::TraceConfig::Collect;
        let observed = [pass];
        let cold =
            explain_with_decision_tree(&mut system, &fail, &observed, &pvts, &config).unwrap();
        assert!(cold.metrics.cache_misses > 0, "{:?}", cold.metrics);
        let replay =
            dp_trace::replay_oracle_queries(&dp_trace::to_jsonl(&cold.trace_records)).unwrap();
        let scores: Vec<f64> = replay.queries.iter().map(|q| q.score).collect();
        // Two baselines (the failing and the observed passing
        // dataset), then one query per charged intervention, the
        // Make-Minimal drops included.
        assert_eq!(
            scores.len() as u64,
            cold.metrics.baseline_queries + cold.metrics.charged_queries,
            "{scores:?}"
        );
        assert_eq!(scores[0], cold.initial_score);
        assert!(scores.contains(&cold.final_score), "{scores:?}");
        let mut cache = ScoreCache::new();
        cache.absorb_spans(&replay.queries);
        let warm =
            decision_tree(&mut system, &fail, &observed, &pvts, &config, Some(&cache)).unwrap();
        assert_eq!(warm.digest(), cold.digest());
        assert_eq!(warm.metrics.cache_misses, 0, "{:?}", warm.metrics);
        assert_eq!(warm.metrics.warm_hits, warm.metrics.charged_queries);
    }

    #[test]
    fn greedy_fails_on_the_same_scenario() {
        // Motivates Algorithm 5: greedy keeps nothing because no
        // single intervention reduces the all-or-nothing malfunction.
        let (_, pass, fail, mut system) = interacting_scenario();
        let config = PrismConfig::with_threshold(0.2);
        let exp = crate::Diagnosis::new(crate::Algorithm::Greedy)
            .run(crate::Source::Borrowed(&mut system), &fail, &pass, &config)
            .unwrap();
        assert!(!exp.resolved);
    }

    #[test]
    fn violation_vector_marks_violated_profiles() {
        let (pvts, pass, fail, _) = interacting_scenario();
        assert_eq!(violation_vector(&fail, &pvts), vec![true, true]);
        assert_eq!(violation_vector(&pass, &pvts), vec![false, false]);
    }

    #[test]
    fn empty_pvts_error() {
        let (_, pass, fail, mut system) = interacting_scenario();
        let err = explain_with_decision_tree(
            &mut system,
            &fail,
            &[pass],
            &[],
            &PrismConfig::with_threshold(0.2),
        )
        .unwrap_err();
        assert!(matches!(err, PrismError::NoDiscriminativePvts));
    }
}
