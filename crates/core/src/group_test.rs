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
//! Every probe is charged through one [`Oracle`]. At width > 1 a cold
//! bisection node also pre-scores its two halves and a lookahead
//! frontier of descendant probes on the runtime's workers; the serial
//! replay charges the same queries either way.

use crate::benefit::benefit_scores;
use crate::bisection::{
    cut_size, min_bisection, partition_rng, random_bisection, stream_seed, APPLY_STREAM,
};
use crate::cache::ScoreCache;
use crate::config::PrismConfig;
use crate::error::{PrismError, Result};
use crate::explanation::{Explanation, TraceEvent};
use crate::graph::PvtAttributeGraph;
use crate::greedy::{diagnose, finish_run, make_minimal, validate_inputs};
use crate::oracle::{System, SystemFactory};
use crate::pvt::{apply_composition, Pvt};
use crate::runtime::{DetachedSpeculation, Oracle, Source, Speculation};
use dp_frame::DataFrame;
use dp_trace::{BisectionNodeSpan, Event, SpeculationPlanSpan, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How Group-Test splits the candidate set (Alg 3 line 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Minimum bisection of the PVT-dependency graph (DataPrism-GT).
    MinBisection,
    /// Random balanced split (the GrpTest baseline \[21\]).
    Random,
    /// Minimum bisection over the lint pass's L8 *conflict* graph:
    /// edges connect candidate pairs **not** certified to commute, so
    /// provably independent candidates are split apart (their probes
    /// compose freely) while order-sensitive pairs stay in one half.
    /// Falls back to the attribute-grouped partitioner above the
    /// local-search limit. Without commutation facts (`Lint::Off`)
    /// every pair counts as a conflict edge, and the local search
    /// reduces to a balanced split of a complete graph.
    CommuteAware,
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
    /// L8 fact table from the lint pass: candidate pairs `(lo, hi)`
    /// whose transformations provably commute. Drives the commute
    /// bonus on the speculation cap and the
    /// [`PartitionStrategy::CommuteAware`] conflict graph. Empty under
    /// `Lint::Off` — result-invisible either way, since speculation
    /// only warms the cache and the partition strategy is explicit.
    commuting: std::collections::HashSet<(usize, usize)>,
    /// Trace handle ([`dp_trace::Tracer`]); a no-op in the default
    /// off state. Node events are emitted here, on the main thread,
    /// in serial recursion order.
    tracer: Tracer,
}

/// Run `DataPrism-GT` / `GrpTest` (Algorithm 2).
pub fn explain_group_test(
    system: &mut dyn System,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    config: &PrismConfig,
    strategy: PartitionStrategy,
) -> Result<Explanation> {
    let source = Source::Borrowed(system);
    group_test(source, d_fail, d_pass, None, config, strategy, None)
}

/// Algorithm 2 with a caller-supplied discriminative PVT set (see
/// [`crate::greedy::explain_greedy_with_pvts`] for why).
pub fn explain_group_test_with_pvts(
    system: &mut dyn System,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    pvt_vec: Vec<Pvt>,
    config: &PrismConfig,
    strategy: PartitionStrategy,
) -> Result<Explanation> {
    let source = Source::Borrowed(system);
    group_test(
        source,
        d_fail,
        d_pass,
        Some(pvt_vec),
        config,
        strategy,
        None,
    )
}

/// [`explain_group_test`] on the parallel runtime: at every cold
/// bisection node the two halves *plus*
/// [`PrismConfig::gt_speculation_depth`] further levels of
/// pre-bisected descendants are materialized and scored concurrently
/// (a speculated score becomes a cache hit only if the serial
/// decision path actually asks for it), and discovery fans out per
/// attribute. Explanations and intervention counts are bit-for-bit
/// identical to the serial run at every depth and thread count.
pub fn explain_group_test_parallel(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    config: &PrismConfig,
    strategy: PartitionStrategy,
) -> Result<Explanation> {
    let source = Source::Factory(factory);
    group_test(source, d_fail, d_pass, None, config, strategy, None)
}

/// [`explain_group_test_parallel`] warm-started from — and exporting
/// back into — a cross-run [`crate::ScoreCache`] (see
/// [`crate::explain_greedy_parallel_cached`] for the contract: seeded
/// before any query, absorbed back even on error, results
/// bit-for-bit identical to a cold run).
pub fn explain_group_test_parallel_cached(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    config: &PrismConfig,
    strategy: PartitionStrategy,
    cache: &mut ScoreCache,
) -> Result<Explanation> {
    let source = Source::Factory(factory);
    group_test(source, d_fail, d_pass, None, config, strategy, Some(cache))
}

/// [`explain_group_test_parallel_cached`] with a caller-supplied
/// candidate set: the warm-cache runtime, but discovery is skipped —
/// the monitor's targeted re-diagnosis hands in only the drifted
/// profiles' candidates and still reuses the namespace cache.
pub fn explain_group_test_parallel_cached_with_pvts(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    pvt_vec: Vec<Pvt>,
    config: &PrismConfig,
    strategy: PartitionStrategy,
    cache: &mut ScoreCache,
) -> Result<Explanation> {
    let source = Source::Factory(factory);
    group_test(
        source,
        d_fail,
        d_pass,
        Some(pvt_vec),
        config,
        strategy,
        Some(cache),
    )
}

/// [`explain_group_test_with_pvts`] on the parallel runtime.
pub fn explain_group_test_parallel_with_pvts(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    pvt_vec: Vec<Pvt>,
    config: &PrismConfig,
    strategy: PartitionStrategy,
) -> Result<Explanation> {
    let source = Source::Factory(factory);
    group_test(
        source,
        d_fail,
        d_pass,
        Some(pvt_vec),
        config,
        strategy,
        None,
    )
}

/// The body of every `explain_group_test*` entry point.
fn group_test(
    source: Source<'_>,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    candidates: Option<Vec<Pvt>>,
    config: &PrismConfig,
    strategy: PartitionStrategy,
    cache: Option<&mut ScoreCache>,
) -> Result<Explanation> {
    let run = |rt: &mut Oracle<'_>, pvts, tracer| {
        run_group_test(rt, d_fail, d_pass, pvts, config, strategy, tracer)
    };
    diagnose(
        "group_test",
        source,
        d_fail,
        d_pass,
        candidates,
        config,
        cache,
        run,
    )
}

/// Algorithm 2.
fn run_group_test(
    rt: &mut Oracle<'_>,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    pvt_vec: Vec<Pvt>,
    config: &PrismConfig,
    strategy: PartitionStrategy,
    tracer: Tracer,
) -> Result<Explanation> {
    let discovered = !pvt_vec.is_empty();
    // Static L1–L9 analysis of the candidate set, before any oracle
    // query; `Lint::Prune` drops provably futile candidates here
    // (each one would otherwise inflate the A3 composition and every
    // bisection probe containing it).
    let (lint, pvt_vec) =
        crate::lint::lint_and_prune(pvt_vec, d_fail, config.lint, config.threshold);
    let pvts: BTreeMap<usize, &Pvt> = pvt_vec.iter().map(|p| (p.id, p)).collect();
    let all_ids: Vec<usize> = pvts.keys().copied().collect();

    // The opening: on a parallel runtime the A3 composition below is
    // scored together with the baselines.
    let first = if rt.speculation_width() > 1 && !all_ids.is_empty() {
        vec![apply_job(&pvts, config.seed, &all_ids, d_fail)]
    } else {
        Vec::new()
    };
    let (initial_score, mut opened) = validate_inputs(rt, d_fail, d_pass, first, &tracer)?;
    if !discovered {
        return Err(PrismError::NoDiscriminativePvts);
    }
    crate::lint::emit_lint(&lint, &tracer);
    if pvt_vec.is_empty() {
        return Err(PrismError::NoDiscriminativePvts);
    }
    let mut trace = vec![TraceEvent::Discovered {
        n_pvts: pvt_vec.len(),
    }];
    let graph = PvtAttributeGraph::new(&pvt_vec);

    // A3 applicability check: the full composition must reduce the
    // malfunction (see module docs).
    let full = match opened.pop() {
        Some(speculated) => speculated?.frame,
        None => apply_ids(&pvts, &all_ids, d_fail, config.seed)?.0,
    };
    let full_score = rt.intervene_traced(&full, &tracer);
    trace.push(TraceEvent::Intervention {
        pvt_ids: all_ids.clone(),
        before: initial_score,
        after: full_score,
        kept: full_score < initial_score,
    });
    if full_score >= initial_score {
        return Err(PrismError::AssumptionViolated(format!(
            "composing all {} candidate transformations raised the malfunction \
             from {initial_score:.3} to {full_score:.3}; A3 cannot hold",
            all_ids.len()
        )));
    }

    // Benefit-ordered ids seed deterministic tie-breaking inside the
    // partitioner (helps reproducibility across runs).
    let benefits = benefit_scores(&pvt_vec, d_fail);
    let mut seed_order = all_ids.clone();
    seed_order.sort_by(|a, b| benefits[b].total_cmp(&benefits[a]));

    // Line 6 of Alg 2: recursive group testing.
    let mut ctx = GtCtx {
        pvts: &pvts,
        graph: &graph,
        rt: &mut *rt,
        strategy,
        seed_order,
        seed: config.seed,
        depth: config.gt_speculation_depth,
        commuting: lint.commuting.iter().copied().collect(),
        tracer: tracer.clone(),
    };
    let (repaired, selected_ids) = group_test_rec(
        &mut ctx,
        &all_ids,
        d_fail.clone(),
        Some(initial_score),
        0,
        None,
        &mut trace,
    )?;
    let score = ctx.rt.intervene_traced(&repaired, &tracer);

    let selected: Vec<Pvt> = selected_ids
        .iter()
        .filter_map(|id| pvts.get(id).map(|p| (*p).clone()))
        .collect();

    // Line 7 of Alg 2: Make-Minimal.
    let (selected, repaired, score) = if rt.passes(score) && config.make_minimal {
        make_minimal(
            rt,
            d_fail,
            selected,
            repaired,
            score,
            config.seed,
            &mut trace,
            &tracer,
        )?
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
        lint,
        selected,
        initial_score,
        score,
        repaired,
        trace,
    )
}

/// Apply the composition of the transformations of `ids` (ascending)
/// to `d`, on the id set's own derived RNG stream.
fn apply_ids(
    pvts: &BTreeMap<usize, &Pvt>,
    ids: &[usize],
    d: &DataFrame,
    seed: u64,
) -> Result<(DataFrame, usize)> {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let mut rng = apply_rng(seed, &sorted);
    let refs: Vec<&Pvt> = sorted
        .iter()
        .filter_map(|id| pvts.get(id).copied())
        .collect();
    apply_composition(&refs, d, &mut rng)
}

/// The RNG stream consumed when applying the composition of `ids`
/// (which must already be sorted): a pure function of `(seed, ids)`,
/// so serial replay and speculative workers materialize bit-identical
/// frames for the same candidate set.
fn apply_rng(seed: u64, sorted_ids: &[usize]) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, APPLY_STREAM, sorted_ids))
}

/// A synchronous materialize-and-score job for the composition of
/// `ids` applied to `base` (the A3 composition, a node's own half
/// probes): the job form of [`apply_ids`].
fn apply_job<'a>(
    pvts: &BTreeMap<usize, &'a Pvt>,
    seed: u64,
    ids: &[usize],
    base: &'a DataFrame,
) -> Speculation<'a> {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let rng = apply_rng(seed, &sorted);
    let refs: Vec<&'a Pvt> = sorted
        .iter()
        .filter_map(|id| pvts.get(id).copied())
        .collect();
    Speculation::Apply {
        pvts: refs,
        base,
        rng,
    }
}

/// Pre-bisect both halves of a cold node and plan the probe frames of
/// the next `depth` levels of the recursion tree as **detached**
/// cache-warming jobs, breadth-first (shallower probes are charged
/// sooner, so they must leave the queue first) — the lookahead
/// frontier of [`group_test_rec`]. The depth comes from the
/// runtime's [`Oracle::plan_speculation_depth`]: the
/// configured value under static speculation, a latency-driven
/// choice under adaptive. Because partitioning and application both
/// run on per-node derived streams, any descendant's candidate frame
/// is computable here without replaying the serial decision history;
/// whichever branches the serial order takes later find their oracle
/// queries already warm (or in flight), and the rest is counted as
/// speculative waste.
fn plan_frontier(
    ctx: &GtCtx<'_, '_, '_>,
    x1: &[usize],
    x2: &[usize],
    base: &Arc<DataFrame>,
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
            let mut sorted = half.clone();
            sorted.sort_unstable();
            let rng = apply_rng(ctx.seed, &sorted);
            let pvts: Vec<Pvt> = sorted
                .iter()
                .filter_map(|id| ctx.pvts.get(id).map(|p| (*p).clone()))
                .collect();
            jobs.push(DetachedSpeculation {
                pvts,
                base: Arc::clone(base),
                rng,
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
    trace: &mut Vec<TraceEvent>,
) -> Result<(DataFrame, Vec<usize>)> {
    // Lines 2–3: a single candidate is applied and reported.
    if candidates.len() == 1 {
        let (transformed, _) = apply_ids(ctx.pvts, candidates, &d, ctx.seed)?;
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
        let cut_edges = (candidates.len() <= LOCAL_SEARCH_LIMIT)
            .then(|| match ctx.strategy {
                PartitionStrategy::MinBisection => {
                    Some(cut_size(&x1, &x2, |i, j| ctx.graph.dependent(i, j)))
                }
                PartitionStrategy::CommuteAware => Some(cut_size(&x1, &x2, |i, j| {
                    !ctx.commuting.contains(&(i.min(j), i.max(j)))
                })),
                PartitionStrategy::Random => None,
            })
            .flatten();
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
        None => ctx.rt.intervene_traced(&d, &ctx.tracer),
    };

    // On a parallel runtime, a node not covered by an ancestor's
    // frontier fires `ctx.depth` levels of pre-bisected descendant
    // probes as detached background jobs, then materializes and
    // scores its own two halves concurrently. The detached frontier
    // keeps draining while the serial replay below charges queries
    // and recurses — covered descendants find their probes already
    // scored (cache hit) or in flight. The replay decides exactly as
    // a `num_threads = 1` run would; a wrong lookahead guess is
    // uncharged waste, never a different search.
    let speculate_here = ctx.rt.speculation_width() > 1 && !x1.is_empty() && !x2.is_empty();
    let (d1, x2_speculated, child_covered) = if speculate_here {
        let child_covered = if covered == 0 {
            // L8 bonus: when every candidate pair at this node
            // provably commutes, descendant probes compose in any
            // order onto identical frames, so lookahead frames stay
            // consumable one level deeper. The controller's headroom
            // clamp still bounds in-flight frames by the budget, and
            // speculation is result-invisible — only cache warmth
            // changes.
            let cap = ctx.depth + usize::from(all_pairs_commute(ctx, candidates));
            let plan = ctx.rt.plan_speculation_depth(cap);
            let jobs = if plan.depth > 0 {
                let base = Arc::new(d.clone());
                plan_frontier(ctx, &x1, &x2, &base, plan.depth)
            } else {
                Vec::new()
            };
            if ctx.tracer.enabled() {
                let frames = jobs.len();
                ctx.tracer.emit(|| {
                    Event::SpeculationPlan(SpeculationPlanSpan {
                        node,
                        cap: plan.cap,
                        depth: plan.depth,
                        budget: plan.budget,
                        mean_query_ns: plan.mean_query_ns,
                        frames,
                    })
                });
            }
            if !jobs.is_empty() {
                ctx.rt.speculate_detached(jobs);
            }
            plan.depth
        } else {
            covered - 1
        };
        let jobs = vec![
            apply_job(ctx.pvts, ctx.seed, &x1, &d),
            apply_job(ctx.pvts, ctx.seed, &x2, &d),
        ];
        let spec = ctx.rt.speculate(jobs)?;
        let mut frames = spec.into_iter();
        let d1 = frames.next().expect("X1 job queued").frame;
        let d2 = frames.next().expect("X2 job queued").frame;
        (d1, Some(d2), child_covered)
    } else {
        let (d1, _) = apply_ids(ctx.pvts, &x1, &d, ctx.seed)?;
        (d1, None, 0)
    };

    // Line 6: intervene with all of X1.
    let s1 = ctx.rt.intervene_traced(&d1, &ctx.tracer);
    let delta1 = m - s1;
    trace.push(TraceEvent::Intervention {
        pvt_ids: x1.clone(),
        before: m,
        after: s1,
        kept: delta1 > 0.0,
    });
    if ctx.tracer.enabled() {
        let speculative_hit = ctx.rt.last_query().speculative_hit;
        ctx.tracer.emit(|| Event::BisectionProbe {
            node,
            half: 1,
            ids: x1.clone(),
            before: m,
            after: s1,
            kept: delta1 > 0.0,
            speculative_hit,
        });
    }

    // Lines 7–8: X1 insufficient → also probe X2. (If X1 passes, a
    // speculated X2 frame is simply dropped — surplus cache warmth.)
    let mut delta2 = 0.0;
    let mut s2 = f64::INFINITY;
    if !ctx.rt.passes(s1) {
        let d2 = match x2_speculated {
            Some(frame) => frame,
            None => apply_ids(ctx.pvts, &x2, &d, ctx.seed)?.0,
        };
        s2 = ctx.rt.intervene_traced(&d2, &ctx.tracer);
        delta2 = m - s2;
        trace.push(TraceEvent::Intervention {
            pvt_ids: x2.clone(),
            before: m,
            after: s2,
            kept: delta2 > 0.0,
        });
        if ctx.tracer.enabled() {
            let speculative_hit = ctx.rt.last_query().speculative_hit;
            let (after, kept) = (s2, delta2 > 0.0);
            ctx.tracer.emit(|| Event::BisectionProbe {
                node,
                half: 2,
                ids: x2.clone(),
                before: m,
                after,
                kept,
                speculative_hit,
            });
        }
    }

    let mut current = d;
    let mut selected = Vec::new();

    // Lines 9–13: recurse into X1 when it is sufficient alone, or
    // when it helps and X2 alone is insufficient.
    if ctx.rt.passes(s1) || (delta1 > 0.0 && !ctx.rt.passes(s2)) {
        let (d_next, mut found) =
            group_test_rec(ctx, &x1, current, Some(m), child_covered, Some(node), trace)?;
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
        let (d_next, mut found) = group_test_rec(ctx, &x2, current, hint, cov, Some(node), trace)?;
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
        PartitionStrategy::CommuteAware if candidates.len() <= LOCAL_SEARCH_LIMIT => {
            // Conflict graph: an edge between every pair NOT
            // certified commuting by lint (L8). Under `Lint::Off`
            // no pair is certified, so every pair conflicts and the
            // local search degenerates to keeping the benefit order
            // intact — still a valid bisection.
            let cand: std::collections::BTreeSet<usize> = candidates.iter().copied().collect();
            let mut edges = Vec::new();
            for (k, &i) in candidates.iter().enumerate() {
                for &j in &candidates[k + 1..] {
                    let key = (i.min(j), i.max(j));
                    if !ctx.commuting.contains(&key) {
                        edges.push((i, j));
                    }
                }
            }
            let ordered: Vec<usize> = ctx
                .seed_order
                .iter()
                .copied()
                .filter(|id| cand.contains(id))
                .collect();
            min_bisection(&ordered, &edges, &mut rng)
        }
        PartitionStrategy::CommuteAware => grouped_bisection(ctx, candidates),
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
            .all(|&j| ctx.commuting.contains(&(i.min(j), i.max(j))))
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
        for strategy in [PartitionStrategy::MinBisection, PartitionStrategy::Random] {
            let (pass, fail) = pass_fail();
            let mut system = label_domain_system;
            let config = PrismConfig::with_threshold(0.2);
            let exp = explain_group_test(&mut system, &fail, &pass, &config, strategy).unwrap();
            assert!(exp.resolved, "{strategy:?}");
            assert!(
                exp.contains_template("domain_cat(target)"),
                "{strategy:?}: {exp}"
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
        let res = explain_group_test(
            &mut system,
            &fail,
            &pass,
            &config,
            PartitionStrategy::MinBisection,
        );
        match res {
            Err(PrismError::AssumptionViolated(_)) => {}
            Ok(exp) => panic!("expected A3 violation, got {exp}"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn commute_aware_partitioning_reaches_the_same_explanation() {
        // CommuteAware bisects over the L8 *conflict* graph instead
        // of G_PD, so split shapes may differ from MinBisection —
        // but the diagnosis must still land on the same cause, and
        // under `Lint::Off` (empty commutation table: every pair
        // conflicts) the strategy must still terminate.
        for lint in [crate::Lint::Report, crate::Lint::Off] {
            let (pass, fail) = pass_fail();
            let mut system = label_domain_system;
            let config = PrismConfig {
                lint,
                ..PrismConfig::with_threshold(0.2)
            };
            let exp = explain_group_test(
                &mut system,
                &fail,
                &pass,
                &config,
                PartitionStrategy::CommuteAware,
            )
            .unwrap();
            assert!(exp.resolved, "{lint:?}");
            assert!(
                exp.contains_template("domain_cat(target)"),
                "{lint:?}: {exp}"
            );
            assert_eq!(exp.final_score, 0.0);
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
        let a = explain_group_test(
            &mut s1,
            &fail,
            &pass,
            &config,
            PartitionStrategy::MinBisection,
        )
        .unwrap();
        let b =
            explain_group_test(&mut s2, &fail, &pass, &config, PartitionStrategy::Random).unwrap();
        assert!(a.interventions >= 1 && b.interventions >= 1);
    }
}
