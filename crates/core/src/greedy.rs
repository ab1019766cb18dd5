//! Algorithm 1 — `DataPrism-GRD`, the greedy intervention algorithm
//! (the paper's `DataExposerGRD`).
//!
//! One discriminative PVT is intervened on at a time, prioritized by
//! (1) adjacency to the highest-degree attributes of the
//! PVT–attribute graph (observation O1) and (2) benefit score
//! (observations O2/O3). Interventions that reduce the malfunction
//! score are kept and composed; the accumulated explanation is
//! post-processed by Make-Minimal (Definition 11).
//!
//! The algorithm charges its queries through one [`Oracle`], over the
//! caller's own system (width 1) or a [`crate::SystemFactory`] at
//! `num_threads`. At width > 1, each round plans the next `width`
//! serial picks (by simulating the pick sequence under the
//! all-rejected hypothesis — a rejection only removes the candidate
//! from the graph), scores them concurrently as cache warming, and
//! then charges interventions for exactly the prefix a serial run
//! would consume. Results and intervention counts are identical for
//! any thread count.
//!
//! This module also holds Make-Minimal, which group testing reuses.

use crate::benefit::benefit_scores;
use crate::config::PrismConfig;
use crate::diagnosis::{finish_run, validate_inputs};
use crate::error::{PrismError, Result};
use crate::explanation::Explanation;
use crate::graph::PvtAttributeGraph;
use crate::oracle::fingerprint;
use crate::pvt::Pvt;
use crate::runtime::{Intent, Oracle, Speculation};
use dp_frame::DataFrame;
use dp_trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Make-Minimal (Alg 1 line 20): drop PVTs one at a time; keep the
/// drop whenever the remaining composition still brings the
/// malfunction below τ. Returns the minimal set, the repaired frame,
/// and its score.
///
/// Every drop-candidate reruns the remaining composition on a fresh,
/// fixed RNG stream, so it is an [`Intent`]: whole scan windows can be
/// scored speculatively, and a drop whose intent the runtime already
/// knows is decided without building its frame. Interventions are
/// still charged one by one in scan order, and a successful drop
/// discards the rest of its window uncharged — exactly the serial
/// consumption. Only an accepted drop's frame is built, since it
/// becomes the repaired frame.
#[allow(clippy::too_many_arguments)]
pub(crate) fn make_minimal(
    rt: &mut Oracle<'_>,
    d_fail: &DataFrame,
    mut selected: Vec<Pvt>,
    repaired: DataFrame,
    score: f64,
    seed: u64,
    tracer: &Tracer,
) -> Result<(Vec<Pvt>, DataFrame, f64)> {
    let mut best = (repaired, score);
    let width = rt.speculation_width().max(1);
    let base_fp = fingerprint(d_fail);
    let mut i = 0;
    while selected.len() > 1 && i < selected.len() {
        let window_end = (i + width).min(selected.len());
        let probes: Vec<Intent<'_>> = (i..window_end)
            .map(|j| Intent {
                pvts: selected
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != j)
                    .map(|(_, p)| p)
                    .collect(),
                base: d_fail,
                base_fp,
                seed: seed ^ 0x9e37_79b9,
            })
            .collect();
        rt.prescore(&probes);
        let mut accepted = None;
        for (offset, probe) in probes.iter().enumerate() {
            let s = rt.intervene_apply_traced(probe, tracer)?;
            if rt.passes(s) {
                accepted = Some((i + offset, rt.build(probe)?, s));
                break;
            }
        }
        match accepted {
            Some((j, frame, s)) => {
                tracer.minimality_drop(selected[j].id);
                selected.remove(j);
                best = (frame, s);
                // Restart the scan: minimality must hold for every
                // strict subset of the final set.
                i = 0;
            }
            None => i = window_end,
        }
    }
    Ok((selected, best.0, best.1))
}

/// One planned window of greedy picks: the next serial picks under
/// the all-rejected hypothesis, their candidate datasets, and the RNG
/// state a serial run holds once each pick is processed.
struct Window<'a> {
    plan: Vec<usize>,
    jobs: Vec<Speculation<'a>>,
    rng_states: Vec<StdRng>,
}

/// Lines 10–12, planned `width` picks ahead. The pick sequence is
/// simulated under the hypothesis that every candidate is rejected —
/// a rejection removes the pick from the graph but changes neither
/// the dataset, the score, nor the benefit map, so removals on a
/// clone reproduce the serial choices (including high-degree
/// re-ranking and `max_by` tie-breaking) exactly. Each candidate is
/// materialized against `current` with the exact RNG state a serial
/// run would hold: stochastic transformations consume the stream and
/// must advance it here, on the main thread; deterministic ones never
/// touch it, so any stream seed names their frame, and they are
/// deferred to the runtime's workers as intents.
fn plan_window<'a>(
    pvts: &'a [Pvt],
    graph: &PvtAttributeGraph,
    benefits: &BTreeMap<usize, f64>,
    current: &'a DataFrame,
    rng: &StdRng,
    width: usize,
    config: &PrismConfig,
) -> Result<Window<'a>> {
    let key = |id: usize| -> f64 {
        if config.use_benefit {
            benefits.get(&id).copied().unwrap_or(0.0)
        } else {
            // Ablation: O2/O3 off ranks in a seed-dependent arbitrary
            // order — a Knuth-hash of the id, so the ablation
            // measures uninformed search rather than a lucky id
            // ordering.
            (id as u64)
                .wrapping_add(config.seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15) as f64
        }
    };
    let mut sim_graph = graph.clone();
    let mut plan: Vec<usize> = Vec::new();
    while plan.len() < width && !sim_graph.is_empty() {
        let hda = if config.use_high_degree {
            sim_graph.high_degree_pvts()
        } else {
            sim_graph.pvt_ids()
        };
        let Some(&chosen_id) = hda.iter().max_by(|&&a, &&b| key(a).total_cmp(&key(b))) else {
            break;
        };
        plan.push(chosen_id);
        sim_graph.remove(chosen_id);
    }
    let mut plan_rng = rng.clone();
    let base_fp = fingerprint(current);
    let mut jobs: Vec<Speculation<'a>> = Vec::with_capacity(plan.len());
    let mut rng_states: Vec<StdRng> = Vec::with_capacity(plan.len());
    for &id in &plan {
        let pvt = pvts
            .iter()
            .find(|p| p.id == id)
            .expect("graph only holds known ids");
        if pvt.transform.is_deterministic() {
            jobs.push(Speculation::Apply(Intent {
                pvts: vec![pvt],
                base: current,
                base_fp,
                seed: 0,
            }));
        } else {
            let (frame, _) = pvt.apply(current, &mut plan_rng)?;
            jobs.push(Speculation::Ready(frame));
        }
        // RNG state after applying candidates 0..=i — the state the
        // serial run holds once candidate i is processed, kept or not.
        rng_states.push(plan_rng.clone());
    }
    Ok(Window {
        plan,
        jobs,
        rng_states,
    })
}

/// Algorithm 1 lines 5–21.
pub(crate) fn run_greedy(
    rt: &mut Oracle<'_>,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    pvts: Vec<Pvt>,
    config: &PrismConfig,
    tracer: Tracer,
) -> Result<Explanation> {
    let discovered = !pvts.is_empty();
    // Static L1–L9 analysis of the candidate set, before any oracle
    // query; `Lint::Prune` drops provably futile candidates here.
    let (lint, pvts) = crate::lint::lint_and_prune(pvts, d_fail, config.lint, config.threshold);

    // Lines 5–6: PVT–attribute graph and benefit scores.
    let mut graph = PvtAttributeGraph::new(&pvts);
    let mut benefits = benefit_scores(&pvts, d_fail);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let width = rt.speculation_width().max(1);

    // The opening: on a parallel runtime the first window of picks is
    // scored together with the baselines. A window that fails to
    // plan is left to the loop, which re-plans it and surfaces the
    // error in its serial place.
    let first = (width > 1 && !graph.is_empty())
        .then(|| plan_window(&pvts, &graph, &benefits, d_fail, &rng, width, config).ok())
        .flatten()
        .filter(|w| !w.plan.is_empty());
    let (first_jobs, first) = match first {
        Some(w) => (w.jobs, Some((w.plan, w.rng_states))),
        None => (Vec::new(), None),
    };
    let (initial_score, opened) = validate_inputs(rt, d_fail, d_pass, first_jobs, &tracer)?;
    let mut opening = first.map(|(plan, rng_states)| (plan, opened, rng_states));
    if !discovered {
        return Err(PrismError::NoDiscriminativePvts);
    }
    crate::lint::emit_lint(&lint, &tracer);
    if pvts.is_empty() {
        return Err(PrismError::NoDiscriminativePvts);
    }
    tracer.candidates(pvts.len());

    // Lines 7–8.
    let mut selected: Vec<Pvt> = Vec::new();
    let mut current = d_fail.clone();
    let mut score = initial_score;

    // Line 9: intervene until acceptable.
    while !rt.passes(score) && !graph.is_empty() && !rt.exhausted() {
        // Lines 10–12, batched: the opening already holds the first
        // window's frames; later windows are scored here as cache
        // warming.
        let (plan, spec, rng_states) = match opening.take() {
            Some((plan, opened, rng_states)) => (
                plan,
                opened.into_iter().collect::<Result<Vec<_>>>()?,
                rng_states,
            ),
            None => {
                let Window {
                    plan,
                    jobs,
                    rng_states,
                } = plan_window(&pvts, &graph, &benefits, &current, &rng, width, config)?;
                if plan.is_empty() {
                    break;
                }
                (plan, rt.speculate(jobs)?, rng_states)
            }
        };

        // Decision pass: replay the serial loop, charging exactly the
        // prefix a serial run would consume. A kept candidate changes
        // the dataset and the benefit map, so the rest of the batch
        // is discarded unscored and uncharged.
        for (i, speculated) in spec.into_iter().enumerate() {
            if i > 0 && rt.exhausted() {
                break;
            }
            let chosen_id = plan[i];
            let transformed = speculated.frame;
            let new_score = rt.intervene_traced(&transformed, &tracer);
            let delta = score - new_score;

            // Line 13: mark explored.
            graph.remove(chosen_id);
            benefits.remove(&chosen_id);
            tracer.intervention(&[chosen_id], score, new_score, delta > 0.0);
            rng = rng_states[i].clone();

            // Lines 14–19.
            if delta > 0.0 {
                current = transformed;
                score = new_score;
                selected.push(
                    pvts.iter()
                        .find(|p| p.id == chosen_id)
                        .expect("graph only holds known ids")
                        .clone(),
                );
                // Line 17: refresh benefits against the updated
                // dataset.
                let live = graph.pvt_ids();
                crate::benefit::update_benefits(&mut benefits, &pvts, &live, &current);
                break;
            }
        }
    }

    let resolved_before_minimal = rt.passes(score);

    // Line 20: Make-Minimal.
    let (selected, current, score) = if resolved_before_minimal && config.make_minimal {
        make_minimal(rt, d_fail, selected, current, score, config.seed, &tracer)?
    } else {
        (selected, current, score)
    };

    if !rt.passes(score) && rt.exhausted() {
        return Err(PrismError::BudgetExhausted {
            used: rt.interventions,
            best_score: score,
        });
    }

    finish_run(rt, &tracer, lint, selected, initial_score, score, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrismConfig;
    use crate::violation::violation;
    use crate::{Algorithm, Diagnosis, Source, System};
    use dp_frame::{Column, DType, DataFrame};

    fn greedy(
        system: &mut dyn System,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
        config: &PrismConfig,
    ) -> Result<Explanation> {
        let source = Source::Borrowed(system);
        Diagnosis::new(Algorithm::Greedy).run(source, d_fail, d_pass, config)
    }

    fn cat(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(
            name,
            DType::Categorical,
            vals.iter().map(|s| Some(s.to_string())).collect(),
        )
    }

    /// A miniature sentiment-style scenario: the system expects
    /// target ∈ {-1, 1}; malfunction = fraction of labels outside
    /// that domain (as if every such row were misclassified).
    fn label_domain_system(df: &DataFrame) -> f64 {
        let col = df.column("target").unwrap();
        let bad = col
            .str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count();
        bad as f64 / df.n_rows().max(1) as f64
    }

    fn pass_fail() -> (DataFrame, DataFrame) {
        let pass = DataFrame::from_columns(vec![
            cat("target", &["-1", "1", "1", "-1", "1", "-1", "1", "-1"]),
            Column::from_ints(
                "len",
                vec![
                    Some(100),
                    Some(150),
                    Some(120),
                    Some(90),
                    Some(140),
                    Some(100),
                    Some(130),
                    Some(95),
                ],
            ),
        ])
        .unwrap();
        let fail = DataFrame::from_columns(vec![
            cat("target", &["0", "4", "4", "0", "4", "0", "4", "0"]),
            Column::from_ints(
                "len",
                vec![
                    Some(20),
                    Some(25),
                    Some(22),
                    Some(18),
                    Some(24),
                    Some(21),
                    Some(23),
                    Some(19),
                ],
            ),
        ])
        .unwrap();
        (pass, fail)
    }

    #[test]
    fn finds_the_domain_root_cause() {
        let (pass, fail) = pass_fail();
        let mut system = label_domain_system;
        let config = PrismConfig::with_threshold(0.2);
        let exp = greedy(&mut system, &fail, &pass, &config).unwrap();
        assert!(exp.resolved);
        assert_eq!(exp.pvts.len(), 1, "minimal explanation: {exp}");
        assert!(exp.contains_template("domain_cat(target)"));
        assert!(
            exp.interventions <= 5,
            "took {} interventions",
            exp.interventions
        );
        assert_eq!(exp.final_score, 0.0);
        // The repaired dataset satisfies the cause profile.
        assert_eq!(violation(&exp.repaired, &exp.pvts[0].profile), 0.0);
        assert_eq!(exp.initial_score, 1.0);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let (pass, fail) = pass_fail();
        let mut system = label_domain_system;
        let config = PrismConfig::with_threshold(0.2);
        let serial = greedy(&mut system, &fail, &pass, &config).unwrap();
        for threads in [1, 2, 8] {
            let cfg = PrismConfig {
                num_threads: threads,
                ..PrismConfig::with_threshold(0.2)
            };
            let factory = || label_domain_system;
            let par = Diagnosis::new(Algorithm::Greedy)
                .run(Source::Factory(&factory), &fail, &pass, &cfg)
                .unwrap();
            assert_eq!(par.pvt_ids(), serial.pvt_ids(), "{threads} threads");
            assert_eq!(par.interventions, serial.interventions);
            assert_eq!(par.final_score, serial.final_score);
            assert_eq!(par.digest(), serial.digest());
            assert_eq!(
                crate::oracle::fingerprint(&par.repaired),
                crate::oracle::fingerprint(&serial.repaired)
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let (pass, fail) = pass_fail();
        let mut system = label_domain_system;
        let config = PrismConfig::with_threshold(0.2);
        // Swapped inputs: "failing" dataset passes.
        let err = greedy(&mut system, &pass, &fail, &config).unwrap_err();
        assert!(matches!(err, PrismError::BadInput(_)));
    }

    #[test]
    fn no_discriminative_pvts_reported() {
        let (pass, _) = pass_fail();
        // A system that fails on the "failing" copy only via row
        // count (not profile-expressible): use an identical dataset
        // so no PVT is discriminative, with a threshold placing one
        // dataset on each side.
        let mut calls = 0usize;
        let mut system = move |_: &DataFrame| {
            calls += 1;
            if calls == 1 {
                0.1 // first query: D_pass
            } else {
                0.9 // second query: D_fail (same content? no-cache different fingerprint needed)
            }
        };
        // Use two structurally identical but distinct frames: the
        // oracle fingerprints content, so make one cell differ in a
        // way discovery tolerates (same profiles).
        let mut fail = pass.clone();
        fail.column_mut("len").unwrap().set(0, 101.into()).unwrap();
        let err = greedy(&mut system, &fail, &pass, &PrismConfig::with_threshold(0.2)).unwrap_err();
        assert!(matches!(err, PrismError::NoDiscriminativePvts), "{err}");
    }

    #[test]
    fn trace_records_interventions() {
        use dp_trace::{Event, TraceConfig};
        let (pass, fail) = pass_fail();
        let mut system = label_domain_system;
        let config = PrismConfig {
            trace: TraceConfig::Collect,
            ..PrismConfig::with_threshold(0.2)
        };
        let exp = greedy(&mut system, &fail, &pass, &config).unwrap();
        let events: Vec<&Event> = exp.trace_records.iter().map(|r| &r.event).collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Discovery(s) if s.n_pvts > 0)));
        let picks: Vec<(usize, bool)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Intervention { ids, kept, .. } => Some((ids.len(), *kept)),
                _ => None,
            })
            .collect();
        assert_eq!(picks.len(), exp.interventions, "one event per charged pick");
        assert!(picks.iter().all(|&(n, _)| n == 1), "greedy picks one PVT");
        assert!(
            picks.iter().any(|&(_, k)| k),
            "at least one kept intervention"
        );
        // Collecting the trail does not move the digest.
        let untraced = greedy(&mut system, &fail, &pass, &PrismConfig::with_threshold(0.2));
        assert_eq!(untraced.unwrap().digest(), exp.digest());
    }

    #[test]
    fn unresolvable_returns_best_effort() {
        let (pass, fail) = pass_fail();
        // System that always fails badly no matter the data — except
        // on the exact passing dataset (so validation succeeds).
        let pass_fp = crate::oracle::fingerprint(&pass);
        let mut system = move |df: &DataFrame| {
            if crate::oracle::fingerprint(df) == pass_fp {
                0.0
            } else {
                0.9
            }
        };
        let exp = greedy(&mut system, &fail, &pass, &PrismConfig::with_threshold(0.2)).unwrap();
        assert!(!exp.resolved);
        assert!(exp.pvts.is_empty(), "nothing reduced the malfunction");
    }
}
