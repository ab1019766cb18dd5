//! Algorithms 2–3 — `DataPrism-GT`, the group-testing intervention
//! algorithm (the paper's `DataExposerGT`), plus the `GrpTest`
//! baseline (traditional adaptive group testing with random
//! partitioning, §5 baselines).
//!
//! The candidate discriminative PVTs are recursively bisected; each
//! partition is intervened on *as a group* (one oracle query for the
//! whole composition), and partitions that do not reduce the
//! malfunction are discarded wholesale. `DataPrism-GT` partitions
//! along the minimum bisection of the PVT-dependency graph so that
//! attribute-sharing PVTs stay together (Example 16 / Fig 6);
//! `GrpTest` partitions randomly.
//!
//! Group testing requires assumption **A3** (§4.4): a composition of
//! transformations reduces the malfunction iff some constituent
//! does. Before recursing, the full candidate composition is tested;
//! if it fails to reduce the malfunction — even though A1 guarantees
//! the ground-truth cause is among the candidates — A3 must be
//! violated and the algorithm reports
//! [`PrismError::AssumptionViolated`] (the "NA" cells of the paper's
//! Fig 7, observed on the Cardiovascular study).
//!
//! Every probe is charged through one [`Oracle`]. A probe's frame is a
//! pure function of the node's frame, the half's transformations and
//! the half's derived stream seed, so each probe is an [`Intent`]: the
//! runtime scores a probe it has seen before (in this run or a warm
//! cache) without building its frame. Only the leaves build frames,
//! because the frame a leaf returns is the one the search carries
//! forward. At width > 1 a cold bisection node also pre-scores its two
//! halves and a lookahead frontier of descendant probes on the
//! runtime's workers; the serial replay charges the same queries
//! either way.

use crate::bisection::{
    cut_size, min_bisection, partition_rng, random_bisection, stream_seed, APPLY_STREAM,
};
use crate::config::PrismConfig;
use crate::diagnosis::{finish_run, validate_inputs};
use crate::error::{PrismError, Result};
use crate::explanation::Explanation;
use crate::graph::PvtAttributeGraph;
use crate::greedy::make_minimal;
use crate::lint::Ranked;
use crate::oracle::fingerprint;
use crate::pvt::Pvt;
use crate::runtime::{DetachedSpeculation, Intent, Oracle};
use dp_frame::DataFrame;
use dp_lint::Commuting;
use dp_trace::{BisectionNodeSpan, Event, SpeculationPlanSpan, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How Group-Test splits the candidate set (Alg 3 line 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Minimum bisection of the PVT-dependency graph (DataPrism-GT).
    MinBisection,
    /// Random balanced split (the GrpTest baseline \[21\]).
    Random,
}

struct GtCtx<'o, 'r, 'p> {
    pvts: &'p BTreeMap<usize, &'p Pvt>,
    graph: &'p PvtAttributeGraph,
    rt: &'o mut Oracle<'r>,
    strategy: PartitionStrategy,
    seed_order: Vec<usize>,
    /// Run seed — every partition and composed application derives
    /// its own RNG stream from it (see [`stream_seed`]), making both
    /// pure functions of the candidate id set.
    seed: u64,
    /// [`PrismConfig::gt_speculation_depth`]: how many extra levels
    /// of the recursion tree each cold node pre-bisects and scores
    /// speculatively.
    depth: usize,
    /// L8 fact table from the lint pass: which candidate pairs
    /// provably commute. Drives the commute bonus on the speculation
    /// depth. Empty under `Lint::Off` — result-invisible either way,
    /// since speculation only warms the cache.
    commuting: &'p Commuting,
    /// Trace handle ([`dp_trace::Tracer`]); a no-op in the default
    /// off state. Node events are emitted here, on the main thread,
    /// in serial recursion order.
    tracer: Tracer,
}

/// Algorithm 2 over the prepared candidates: the survivors of
/// `ranked`'s lint verdict (under `Lint::Prune` a provably futile
/// candidate would otherwise inflate the A3 composition and every
/// bisection probe containing it), their dependency graph and their
/// benefit order.
pub(crate) fn run_group_test(
    rt: &mut Oracle<'_>,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    ranked: &Ranked,
    config: &PrismConfig,
    strategy: PartitionStrategy,
    tracer: Tracer,
) -> Result<Explanation> {
    let pvts: BTreeMap<usize, &Pvt> = ranked.pvts().map(|p| (p.id, p)).collect();
    let all_ids: Vec<usize> = pvts.keys().copied().collect();

    // The opening: on a parallel runtime the A3 composition below is
    // scored together with the baselines.
    let full = intent(&pvts, config.seed, &all_ids, d_fail, fingerprint(d_fail));
    let initial_score = validate_inputs(rt, d_fail, d_pass, std::slice::from_ref(&full), &tracer)?;
    if ranked.candidates().is_empty() {
        return Err(PrismError::NoDiscriminativePvts);
    }
    crate::lint::emit_lint(ranked.lint(), &tracer);
    if ranked.pvts().len() == 0 {
        return Err(PrismError::NoDiscriminativePvts);
    }
    tracer.candidates(ranked.pvts().len());

    // A3 applicability check: the full composition must reduce the
    // malfunction (see module docs).
    let full_score = rt.intervene_apply(&full, &tracer)?.score;
    tracer.intervention(
        &all_ids,
        initial_score,
        full_score,
        full_score < initial_score,
    );
    if full_score >= initial_score {
        return Err(PrismError::AssumptionViolated(format!(
            "composing all {} candidate transformations raised the malfunction \
             from {initial_score:.3} to {full_score:.3}; A3 cannot hold",
            all_ids.len()
        )));
    }

    // Benefit-ordered ids seed deterministic tie-breaking inside the
    // partitioner (helps reproducibility across runs).
    let benefits = ranked.benefits();
    let mut seed_order = all_ids.clone();
    seed_order.sort_by(|a, b| benefits[b].total_cmp(&benefits[a]));

    // Line 6 of Alg 2: recursive group testing.
    let mut ctx = GtCtx {
        pvts: &pvts,
        graph: ranked.graph(),
        rt: &mut *rt,
        strategy,
        seed_order,
        seed: config.seed,
        depth: config.gt_speculation_depth,
        commuting: &ranked.lint().commuting,
        tracer: tracer.clone(),
    };
    let (repaired, selected_ids) = group_test_rec(
        &mut ctx,
        &all_ids,
        d_fail.clone(),
        Some(initial_score),
        0,
        None,
    )?;
    let score = ctx.rt.intervene(&repaired, &tracer);

    let selected: Vec<Pvt> = selected_ids
        .iter()
        .filter_map(|id| pvts.get(id).map(|p| (*p).clone()))
        .collect();

    // Line 7 of Alg 2: Make-Minimal.
    let (selected, repaired, score) = if rt.passes(score) && config.make_minimal {
        make_minimal(rt, d_fail, selected, repaired, score, config.seed, &tracer)?
    } else {
        (selected, repaired, score)
    };

    if !rt.passes(score) && rt.exhausted() {
        return Err(PrismError::BudgetExhausted {
            used: rt.interventions,
            best_score: score,
        });
    }

    finish_run(
        rt,
        &tracer,
        ranked.lint().clone(),
        selected,
        initial_score,
        score,
        repaired,
    )
}

/// The composition of the transformations of `ids` (ascending)
/// applied to `base` (fingerprint `base_fp`) on the id set's own
/// derived stream: a pure function of `(seed, ids, base)`, so serial
/// replay and speculative workers build bit-identical frames for the
/// same candidate set, and the runtime can name the frame by intent
/// key without building it.
fn intent<'a>(
    pvts: &BTreeMap<usize, &'a Pvt>,
    seed: u64,
    ids: &[usize],
    base: &'a DataFrame,
    base_fp: u64,
) -> Intent<'a> {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    Intent {
        pvts: sorted
            .iter()
            .filter_map(|id| pvts.get(id).copied())
            .collect(),
        base,
        base_fp,
        seed: stream_seed(seed, APPLY_STREAM, &sorted),
    }
}

/// Pre-bisect both halves of a cold node and plan the probe frames of
/// the next `depth` levels of the recursion tree as **detached**
/// cache-warming jobs, breadth-first (shallower probes are charged
/// sooner, so they must leave the queue first) — the lookahead
/// frontier of [`group_test_rec`]. Because partitioning and
/// application both run on per-node derived streams, any descendant's
/// candidate frame is computable here without replaying the serial
/// decision history; whichever branches the serial order takes later
/// find their oracle queries already warm (or in flight), and the
/// rest is counted as speculative waste.
fn plan_frontier(
    ctx: &GtCtx<'_, '_, '_>,
    x1: &[usize],
    x2: &[usize],
    base: &Arc<DataFrame>,
    base_fp: u64,
    depth: usize,
) -> Vec<DetachedSpeculation> {
    let mut jobs = Vec::new();
    let mut queue: VecDeque<(Vec<usize>, usize)> = VecDeque::new();
    queue.push_back((x1.to_vec(), 0));
    queue.push_back((x2.to_vec(), 0));
    while let Some((ids, level)) = queue.pop_front() {
        if level >= depth || ids.len() <= 1 {
            continue;
        }
        let (a, b) = partition(ctx, &ids);
        for half in [a, b] {
            if half.is_empty() {
                continue;
            }
            let probe = intent(ctx.pvts, ctx.seed, &half, base, base_fp);
            jobs.push(DetachedSpeculation {
                pvts: probe.pvts.into_iter().cloned().collect(),
                base: Arc::clone(base),
                base_fp,
                seed: probe.seed,
            });
            queue.push_back((half, level + 1));
        }
    }
    jobs
}

/// Algorithm 3 (Group-Test). `score` carries `m_S(d)` when the
/// caller already knows it (line 5 of the pseudocode recomputes it;
/// passing it down avoids charging a redundant intervention for a
/// dataset whose score the algorithm just observed). `covered` is
/// the number of levels below this node an ancestor's speculative
/// frontier already materialized and scored: a covered node charges
/// its probes straight out of the fingerprint cache and defers
/// planning to the first cold descendant.
fn group_test_rec(
    ctx: &mut GtCtx<'_, '_, '_>,
    candidates: &[usize],
    d: DataFrame,
    score: Option<f64>,
    covered: usize,
    parent: Option<u64>,
) -> Result<(DataFrame, Vec<usize>)> {
    // Lines 2–3: a single candidate is applied and reported. Its frame
    // is the one the search carries forward, so it is built.
    if candidates.len() == 1 {
        let leaf = intent(ctx.pvts, ctx.seed, candidates, &d, fingerprint(&d));
        let transformed = ctx.rt.build(&leaf)?;
        if ctx.tracer.enabled() {
            let node = ctx.tracer.next_node_id();
            ctx.tracer.emit(|| {
                Event::BisectionNodeBegin(BisectionNodeSpan {
                    node,
                    parent,
                    candidates: candidates.to_vec(),
                    covered,
                })
            });
            ctx.tracer.emit(|| Event::BisectionNodeEnd {
                node,
                selected: candidates.to_vec(),
            });
        }
        return Ok((transformed, candidates.to_vec()));
    }
    if candidates.is_empty() || ctx.rt.exhausted() {
        return Ok((d, Vec::new()));
    }
    let node = ctx.tracer.next_node_id();
    ctx.tracer.emit(|| {
        Event::BisectionNodeBegin(BisectionNodeSpan {
            node,
            parent,
            candidates: candidates.to_vec(),
            covered,
        })
    });

    // Line 4: partition (pure function of the candidate set).
    let (x1, x2) = partition(ctx, candidates);
    if ctx.tracer.enabled() {
        // The cut size is only re-derivable (and cheap) where the
        // min-bisection local search enumerated the edges.
        let cut_edges = (ctx.strategy == PartitionStrategy::MinBisection
            && candidates.len() <= LOCAL_SEARCH_LIMIT)
            .then(|| cut_size(&x1, &x2, |i, j| ctx.graph.dependent(i, j)));
        ctx.tracer.emit(|| Event::BisectionPartition {
            node,
            left: x1.clone(),
            right: x2.clone(),
            cut_edges,
        });
    }

    // Line 5: current malfunction.
    let m = match score {
        Some(s) => s,
        None => ctx.rt.intervene(&d, &ctx.tracer),
    };

    // The two half probes. On a parallel runtime, a node not covered
    // by an ancestor's frontier fires `ctx.depth` levels of
    // pre-bisected descendant probes as detached background jobs, then
    // scores its own two halves concurrently. The detached frontier
    // keeps draining while the serial replay below charges queries
    // and recurses — covered descendants find their probes already
    // scored (cache hit) or in flight. The replay decides exactly as
    // a `num_threads = 1` run would; a wrong lookahead guess is
    // uncharged waste, never a different search.
    let base_fp = fingerprint(&d);
    let probes = [
        intent(ctx.pvts, ctx.seed, &x1, &d, base_fp),
        intent(ctx.pvts, ctx.seed, &x2, &d, base_fp),
    ];
    let speculate_here = ctx.rt.speculation_width() > 1 && !x1.is_empty() && !x2.is_empty();
    let child_covered = if speculate_here {
        let child_covered = if covered == 0 {
            // L8 bonus: when every candidate pair at this node
            // provably commutes, descendant probes compose in any
            // order onto identical frames, so lookahead frames stay
            // consumable one level deeper. Speculation is
            // result-invisible — only cache warmth changes.
            let depth = ctx.depth + usize::from(all_pairs_commute(ctx, candidates));
            let jobs = if depth > 0 {
                let base = Arc::new(d.clone());
                plan_frontier(ctx, &x1, &x2, &base, base_fp, depth)
            } else {
                Vec::new()
            };
            if ctx.tracer.enabled() {
                let frames = jobs.len();
                let budget = ctx.rt.effective_budget();
                ctx.tracer.emit(|| {
                    Event::SpeculationPlan(SpeculationPlanSpan {
                        node,
                        depth,
                        budget,
                        frames,
                    })
                });
            }
            if !jobs.is_empty() {
                ctx.rt.speculate_detached(jobs);
            }
            depth
        } else {
            covered - 1
        };
        ctx.rt.prescore(&probes);
        child_covered
    } else {
        0
    };

    // Line 6: intervene with all of X1.
    let s1 = ctx.rt.intervene_apply(&probes[0], &ctx.tracer)?.score;
    let delta1 = m - s1;
    let rt = &ctx.rt;
    ctx.tracer.probe(node, 1, &x1, m, s1, delta1 > 0.0, || {
        rt.last_query().speculative_hit
    });

    // Lines 7–8: X1 insufficient → also probe X2. (If X1 passes, a
    // speculated X2 score is simply left unused — surplus cache
    // warmth.)
    let mut delta2 = 0.0;
    let mut s2 = f64::INFINITY;
    if !ctx.rt.passes(s1) {
        s2 = ctx.rt.intervene_apply(&probes[1], &ctx.tracer)?.score;
        delta2 = m - s2;
        let rt = &ctx.rt;
        ctx.tracer.probe(node, 2, &x2, m, s2, delta2 > 0.0, || {
            rt.last_query().speculative_hit
        });
    }

    drop(probes);
    let mut current = d;
    let mut selected = Vec::new();

    // Lines 9–13: recurse into X1 when it is sufficient alone, or
    // when it helps and X2 alone is insufficient.
    if ctx.rt.passes(s1) || (delta1 > 0.0 && !ctx.rt.passes(s2)) {
        let (d_next, mut found) =
            group_test_rec(ctx, &x1, current, Some(m), child_covered, Some(node))?;
        current = d_next;
        selected.append(&mut found);
        if ctx.rt.passes(s1) {
            // Line 13: no need to check X2.
            ctx.tracer.emit(|| Event::BisectionNodeEnd {
                node,
                selected: selected.clone(),
            });
            return Ok((current, selected));
        }
    }

    // Lines 14–16: recurse into X2 when it helps. When X1's subtree
    // already applied transformations, `current`'s score is unknown
    // and the child must re-measure; the ancestor frontier (which
    // speculated against the *unmodified* base frame) no longer
    // covers it either.
    if delta2 > 0.0 {
        let (hint, cov) = if selected.is_empty() {
            (Some(m), child_covered)
        } else {
            (None, 0)
        };
        let (d_next, mut found) = group_test_rec(ctx, &x2, current, hint, cov, Some(node))?;
        current = d_next;
        selected.append(&mut found);
    }

    ctx.tracer.emit(|| Event::BisectionNodeEnd {
        node,
        selected: selected.clone(),
    });
    Ok((current, selected))
}

/// Above this candidate count, the quadratic edge enumeration and
/// local-search bisection are replaced by the attribute-grouped
/// partitioner (same keep-dependent-PVTs-together objective, linear
/// time) so group testing scales to the paper's 10⁵-PVT regime.
/// Below it, [`min_bisection`] costs O(n²) to index the edges, O(1)
/// per tried swap and O(n) per accepted one, so it would be cheap
/// above 64 too. The limit stays because raising it would change the
/// partitions, and so the results, of larger runs.
const LOCAL_SEARCH_LIMIT: usize = 64;

/// Bisect the candidate set. A pure function of `(ctx.seed,
/// candidates)` — randomized strategies draw from the candidate
/// set's own derived stream ([`partition_rng`]), never from shared
/// sequential state — so the lookahead planner and the serial replay
/// agree on every split, and `GrpTest` splits reproduce across
/// thread counts.
fn partition(ctx: &GtCtx<'_, '_, '_>, candidates: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut rng = partition_rng(ctx.seed, candidates);
    match ctx.strategy {
        PartitionStrategy::Random => random_bisection(candidates, &mut rng),
        PartitionStrategy::MinBisection if candidates.len() <= LOCAL_SEARCH_LIMIT => {
            // Edges of G_PD restricted to the candidates.
            let cand: std::collections::BTreeSet<usize> = candidates.iter().copied().collect();
            let mut edges = Vec::new();
            for (k, &i) in candidates.iter().enumerate() {
                for &j in &candidates[k + 1..] {
                    if ctx.graph.dependent(i, j) {
                        edges.push((i, j));
                    }
                }
            }
            // Keep the candidate order deterministic (benefit order)
            // before the randomized local search.
            let ordered: Vec<usize> = ctx
                .seed_order
                .iter()
                .copied()
                .filter(|id| cand.contains(id))
                .collect();
            min_bisection(&ordered, &edges, &mut rng)
        }
        PartitionStrategy::MinBisection => grouped_bisection(ctx, candidates),
    }
}

/// True when every unordered pair of `candidates` is in the lint
/// commutation table (L8). Vacuously false for singletons (no pair to
/// certify ⇒ no reordering freedom to exploit) and skipped above the
/// local-search limit where the quadratic check would not pay off.
fn all_pairs_commute(ctx: &GtCtx<'_, '_, '_>, candidates: &[usize]) -> bool {
    if candidates.len() < 2 || candidates.len() > LOCAL_SEARCH_LIMIT {
        return false;
    }
    candidates.iter().enumerate().all(|(k, &i)| {
        candidates[k + 1..]
            .iter()
            .all(|&j| ctx.commuting.commutes(i, j))
    })
}

/// Linear-time bisection that keeps PVTs sharing an attribute in the
/// same half: group candidates by their first attribute, then fill
/// the smaller half group by group (largest groups first). Halves may
/// differ by more than one element when groups are lumpy — acceptable
/// for the adaptive recursion, which only needs both halves nonempty.
fn grouped_bisection(ctx: &GtCtx<'_, '_, '_>, candidates: &[usize]) -> (Vec<usize>, Vec<usize>) {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for &id in candidates {
        let attr = ctx
            .pvts
            .get(&id)
            .and_then(|p| p.attributes().into_iter().next())
            .unwrap_or_default();
        groups.entry(attr).or_default().push(id);
    }
    let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
    let mut left = Vec::new();
    let mut right = Vec::new();
    for g in groups {
        if left.len() <= right.len() {
            left.extend(g);
        } else {
            right.extend(g);
        }
    }
    if right.is_empty() && left.len() > 1 {
        // Single giant group: fall back to an even split so the
        // recursion can still make progress.
        let half = left.len() / 2;
        right = left.split_off(half);
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Diagnosis, Source, System};

    fn group_test(
        system: &mut dyn System,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
        config: &PrismConfig,
        algorithm: Algorithm,
    ) -> Result<Explanation> {
        Diagnosis::new(algorithm).run(Source::Borrowed(system), d_fail, d_pass, config)
    }
    use crate::config::PrismConfig;
    use dp_frame::{Column, DType, DataFrame};

    fn cat(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(
            name,
            DType::Categorical,
            vals.iter().map(|s| Some(s.to_string())).collect(),
        )
    }

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
    fn group_testing_finds_the_domain_cause() {
        for algorithm in [Algorithm::GroupTest, Algorithm::GrpTest] {
            let (pass, fail) = pass_fail();
            let mut system = label_domain_system;
            let config = PrismConfig::with_threshold(0.2);
            let exp = group_test(&mut system, &fail, &pass, &config, algorithm).unwrap();
            assert!(exp.resolved, "{algorithm:?}");
            assert!(
                exp.contains_template("domain_cat(target)"),
                "{algorithm:?}: {exp}"
            );
            assert_eq!(exp.final_score, 0.0);
        }
    }

    #[test]
    fn a3_violation_is_reported_not_applicable() {
        // A system where touching `len` catastrophically breaks
        // things (the cardio pattern: noise transforms wreck the
        // classifier), so the full composition raises the
        // malfunction above the failing baseline and the A3 check
        // must fire.
        let (pass, fail) = pass_fail();
        let fail_len: Vec<i64> = (0..fail.n_rows())
            .map(|i| fail.cell(i, "len").unwrap().as_i64().unwrap())
            .collect();
        let pass_fp = crate::oracle::fingerprint(&pass);
        let mut system = move |df: &DataFrame| {
            if crate::oracle::fingerprint(df) == pass_fp {
                return 0.0;
            }
            let len_changed = df.n_rows() != fail_len.len()
                || (0..df.n_rows()).any(|i| {
                    df.cell(i, "len")
                        .ok()
                        .and_then(|v| v.as_i64())
                        .map(|v| v != fail_len[i])
                        .unwrap_or(true)
                });
            if len_changed {
                1.0
            } else {
                label_domain_system(df)
            }
        };
        let config = PrismConfig::with_threshold(0.2);
        let res = group_test(&mut system, &fail, &pass, &config, Algorithm::GroupTest);
        match res {
            Err(PrismError::AssumptionViolated(_)) => {}
            Ok(exp) => panic!("expected A3 violation, got {exp}"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn min_bisection_uses_no_more_interventions_than_random_on_average() {
        // Smoke check on a small case: both strategies succeed; exact
        // counts are scenario-dependent and exercised by the Fig 6
        // toy benchmark.
        let (pass, fail) = pass_fail();
        let mut s1 = label_domain_system;
        let mut s2 = label_domain_system;
        let config = PrismConfig::with_threshold(0.2);
        let a = group_test(&mut s1, &fail, &pass, &config, Algorithm::GroupTest).unwrap();
        let b = group_test(&mut s2, &fail, &pass, &config, Algorithm::GrpTest).unwrap();
        assert!(a.interventions >= 1 && b.interventions >= 1);
    }
}
