//! One diagnosis request: which algorithm runs, over which system
//! source, on which candidates, warm-started from which cache.
//!
//! Every technique of the paper's Fig 7 — DataPrism-GRD,
//! DataPrism-GT, GrpTest, BugDoc and Anchor — runs through
//! [`Diagnosis::run`], so all five share one setup: one tracer, one
//! [`Oracle`] over the caller's [`Source`] (warm-started from an
//! optional [`ScoreCache`] and absorbed back into it afterwards), one
//! `diagnosis_begin` event, one candidate resolution and one epilogue.
//! Only the search in between differs, and their intervention counts
//! are charged by the same runtime.
//!
//! ```
//! use dataprism::{Algorithm, Diagnosis, PrismConfig, Source};
//! use dp_frame::{Column, DType, DataFrame};
//!
//! let mut system = |df: &DataFrame| {
//!     let col = df.column("target").unwrap();
//!     let bad = col.str_values().iter()
//!         .filter(|(_, s)| *s != "-1" && *s != "1").count();
//!     bad as f64 / df.n_rows().max(1) as f64
//! };
//! let labels = |vals: &[&str]| Column::from_strings(
//!     "target", DType::Categorical,
//!     vals.iter().map(|v| Some(v.to_string())).collect(),
//! );
//! let pass = DataFrame::from_columns(vec![labels(&["-1", "1", "1", "-1"])]).unwrap();
//! let fail = DataFrame::from_columns(vec![labels(&["0", "4", "4", "0"])]).unwrap();
//! let config = PrismConfig::with_threshold(0.2);
//!
//! let serial = Diagnosis::new(Algorithm::Auto)
//!     .run(Source::Borrowed(&mut system), &fail, &pass, &config)
//!     .unwrap();
//! assert!(serial.resolved);
//!
//! // The same request on two worker systems built by a factory.
//! let factory = || system;
//! let config = PrismConfig { num_threads: 2, ..config };
//! let parallel = Diagnosis::new(Algorithm::Auto)
//!     .run(Source::Factory(&factory), &fail, &pass, &config)
//!     .unwrap();
//! assert_eq!(parallel.digest(), serial.digest());
//! ```

use crate::baselines::{all_candidate_pvts, anchor, bugdoc};
use crate::cache::ScoreCache;
use crate::config::PrismConfig;
use crate::discovery::discriminative_pvts_traced;
use crate::error::{PrismError, Result};
use crate::explanation::Explanation;
use crate::group_test::{run_group_test, PartitionStrategy};
use crate::oracle::SystemFactory;
use crate::pvt::Pvt;
use crate::runtime::{Oracle, Source, Speculated, Speculation};
use dp_frame::DataFrame;
use dp_trace::{DiagnosisSpan, Event, Tracer};

/// Which search a [`Diagnosis`] runs: the rows of the paper's Fig 7,
/// plus the group-testing-then-greedy fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// DataPrism-GRD, the greedy Algorithm 1 ([`crate::greedy`]):
    /// fewest interventions on every case study of Fig 7.
    Greedy,
    /// DataPrism-GT, group testing along the min bisection of the PVT
    /// dependency graph (Algorithms 2–3, [`crate::group_test`]). Fails
    /// with [`PrismError::AssumptionViolated`] when assumption A3 does
    /// not hold.
    GroupTest,
    /// The GrpTest baseline: group testing with random balanced
    /// partitions.
    GrpTest,
    /// The BugDoc baseline ([`crate::baselines::bugdoc`]).
    BugDoc,
    /// The Anchor baseline ([`crate::baselines::anchor`]).
    Anchor,
    /// [`Algorithm::GroupTest`], falling back to
    /// [`Algorithm::Greedy`] when A3 is violated — the paper's own
    /// guidance ("DataExposerGRD always identifies the ground-truth
    /// cause", appendix C). With a cache, the group-testing attempt's
    /// evaluations land in it before the fallback starts, so the
    /// greedy run reuses every score the failed attempt paid for; with
    /// a trace sink, the greedy run's records follow the failed
    /// attempt's in one stream.
    Auto,
}

impl Algorithm {
    /// The algorithm's name in trace events and `dp_serve` replies.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Greedy => "greedy",
            Algorithm::GroupTest => "group_test",
            Algorithm::GrpTest => "grp_test",
            Algorithm::BugDoc => "bugdoc",
            Algorithm::Anchor => "anchor",
            Algorithm::Auto => "auto",
        }
    }
}

/// A diagnosis request: an [`Algorithm`], optionally the candidate
/// PVTs to search, and optionally a cross-run [`ScoreCache`].
///
/// Without candidates, the DataPrism algorithms discover the
/// discriminative PVTs (§4.1 step 1) and BugDoc and Anchor take every
/// PVT discoverable over the passing dataset
/// ([`all_candidate_pvts`], their setting in §5). Given candidates
/// skip both; the synthetic pipelines of §5.2 and the monitor's
/// targeted re-diagnosis hand theirs in.
#[derive(Debug)]
pub struct Diagnosis<'c> {
    algorithm: Algorithm,
    candidates: Option<Vec<Pvt>>,
    cache: Option<&'c mut ScoreCache>,
}

impl<'c> Diagnosis<'c> {
    /// A request for `algorithm` with discovered candidates and no
    /// cache.
    pub fn new(algorithm: Algorithm) -> Self {
        Diagnosis {
            algorithm,
            candidates: None,
            cache: None,
        }
    }

    /// Search `pvts` instead of discovering candidates.
    pub fn with_candidates(mut self, pvts: Vec<Pvt>) -> Self {
        self.candidates = Some(pvts);
        self
    }

    /// Warm-start from — and export back into — `cache`. The
    /// runtime's fingerprint cache is seeded from `cache` before any
    /// oracle query, and everything the run scored (charged and
    /// speculative alike) is absorbed back afterwards — **including on
    /// error**, so a budget-exhausted or assumption-failed run still
    /// pays its evaluations forward. The explanation is bit-for-bit
    /// identical to a cold run; only `cache_misses` drops and
    /// [`dp_trace::RunMetrics::warm_hits`] counts the queries the warm
    /// start answered.
    pub fn with_cache(mut self, cache: &'c mut ScoreCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Explain why the system of `source` malfunctions on `d_fail`
    /// but not on `d_pass`.
    ///
    /// A borrowed system runs at width 1; a factory runs
    /// `config.num_threads` worker systems, on which discovery fans out
    /// per attribute and candidate interventions are scored
    /// speculatively. The explanation (PVTs, scores, intervention
    /// counts, trace) is bit-for-bit identical for every source and
    /// thread count.
    pub fn run(
        self,
        mut source: Source<'_>,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
        config: &PrismConfig,
    ) -> Result<Explanation> {
        let Diagnosis {
            algorithm,
            candidates,
            mut cache,
        } = self;
        // A sink that cannot be set up (an unwritable JSONL path) fails
        // before any oracle query is spent.
        let tracer =
            Tracer::from_config(&config.trace).map_err(|e| PrismError::Trace(e.to_string()))?;
        if algorithm != Algorithm::Auto {
            return run_one(
                algorithm, source, d_fail, d_pass, candidates, config, cache, tracer,
            );
        }
        // Both attempts write to the one tracer, so a fallback's trace
        // keeps the group-testing attempt's records ahead of its own.
        let attempt = run_one(
            Algorithm::GroupTest,
            source.reborrow(),
            d_fail,
            d_pass,
            candidates.clone(),
            config,
            cache.as_deref_mut(),
            tracer.clone(),
        );
        match attempt {
            Err(PrismError::AssumptionViolated(_)) => run_one(
                Algorithm::Greedy,
                source,
                d_fail,
                d_pass,
                candidates,
                config,
                cache,
                tracer,
            ),
            other => other,
        }
    }
}

/// One search with the setup every diagnosis shares: build the runtime
/// over `source` (warm-started from `cache`), emit the opening event,
/// resolve the candidates, run the search, and absorb everything the
/// run scored back into `cache` — on error too.
#[allow(clippy::too_many_arguments)]
fn run_one(
    algorithm: Algorithm,
    source: Source<'_>,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    candidates: Option<Vec<Pvt>>,
    config: &PrismConfig,
    cache: Option<&mut ScoreCache>,
    tracer: Tracer,
) -> Result<Explanation> {
    let budget = config.max_interventions;
    let mut rt = Oracle::new(source, config.threshold, budget, config.num_threads)
        .with_speculation_budget(config.speculation_budget);
    if let Some(cache) = cache.as_deref() {
        rt = rt.with_warm_cache(cache);
    }
    let threads = rt.speculation_width();
    tracer.begin(|| DiagnosisSpan {
        algorithm: algorithm.name().to_string(),
        system: rt.system_name(),
        seed: config.seed,
        threshold: config.threshold,
        num_threads: threads,
        speculation_depth: config.gt_speculation_depth,
    });
    let baseline = matches!(algorithm, Algorithm::BugDoc | Algorithm::Anchor);
    let (pvts, stats) = match candidates {
        Some(pvts) => (pvts, None),
        None if baseline => (all_candidate_pvts(d_pass, &config.discovery), None),
        None => {
            let (pvts, stats) =
                discriminative_pvts_traced(d_pass, d_fail, &config.discovery, threads, &tracer);
            (pvts, Some(stats))
        }
    };
    let result = match algorithm {
        Algorithm::Greedy => {
            crate::greedy::run_greedy(&mut rt, d_fail, d_pass, pvts, config, tracer)
        }
        Algorithm::GroupTest => run_group_test(
            &mut rt,
            d_fail,
            d_pass,
            pvts,
            config,
            PartitionStrategy::MinBisection,
            tracer,
        ),
        Algorithm::GrpTest => run_group_test(
            &mut rt,
            d_fail,
            d_pass,
            pvts,
            config,
            PartitionStrategy::Random,
            tracer,
        ),
        Algorithm::BugDoc => bugdoc::run_bugdoc(&mut rt, d_fail, d_pass, &pvts, config, tracer),
        Algorithm::Anchor => anchor::run_anchor(&mut rt, d_fail, d_pass, &pvts, config, tracer),
        Algorithm::Auto => unreachable!("Auto runs as GroupTest, then Greedy"),
    };
    if let Some(cache) = cache {
        cache.absorb(&rt.export_cache());
    }
    let mut exp = result?;
    if let Some(stats) = stats {
        exp.metrics.prefilter_pairs = stats.pairs as u64;
        exp.metrics.prefilter_screened = stats.screened() as u64;
        exp.metrics.prefilter_chi2_screened = stats.chi2_screened as u64;
        exp.metrics.prefilter_exact = (stats.chi2_exact + stats.pearson_exact) as u64;
    }
    Ok(exp)
}

/// Validate the problem inputs (Definition 10 items 3–4): the passing
/// dataset must pass and the failing dataset must fail. Returns the
/// failing score.
///
/// `first` holds the algorithm's first charged frames, if it planned
/// any. The runtime then scores them together with both baselines as
/// one opening batch ([`Oracle::score_opening`]) and
/// returns the materialized frames, one result per job, for the
/// caller to charge in serial order — a materialization error
/// surfaces there, after validation, as in a serial run.
pub(crate) fn validate_inputs(
    rt: &mut Oracle<'_>,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    first: Vec<Speculation<'_>>,
    tracer: &Tracer,
) -> Result<(f64, Vec<Result<Speculated>>)> {
    let opened = if first.is_empty() {
        Vec::new()
    } else {
        rt.score_opening([d_pass, d_fail], first)
    };
    let pass_score = rt.baseline_traced(d_pass, tracer);
    if !rt.passes(pass_score) {
        return Err(PrismError::BadInput(format!(
            "passing dataset has malfunction {pass_score:.3} > τ = {:.3}",
            rt.threshold
        )));
    }
    let fail_score = rt.baseline_traced(d_fail, tracer);
    if rt.passes(fail_score) {
        return Err(PrismError::BadInput(format!(
            "failing dataset has malfunction {fail_score:.3} ≤ τ = {:.3}",
            rt.threshold
        )));
    }
    Ok((fail_score, opened))
}

/// Shared run epilogue: emit [`Event::DiagnosisEnd`], merge worker
/// metric shards, fold the lint counters into
/// [`dp_trace::RunMetrics`], and drain the tracer and its decision
/// digest.
pub(crate) fn finish_run(
    rt: &mut Oracle<'_>,
    tracer: &Tracer,
    lint: dp_lint::Diagnostics,
    selected: Vec<Pvt>,
    initial_score: f64,
    score: f64,
    current: DataFrame,
) -> Result<Explanation> {
    let resolved = rt.passes(score);
    let interventions = rt.interventions;
    tracer.emit(|| Event::DiagnosisEnd {
        resolved,
        interventions,
        final_score: score,
    });
    let mut metrics = rt.run_metrics();
    metrics.lint_errors = lint.count(dp_lint::Severity::Error) as u64;
    metrics.lint_warnings = lint.count(dp_lint::Severity::Warn) as u64;
    metrics.lint_infos = lint.count(dp_lint::Severity::Info) as u64;
    metrics.lint_pruned = lint.pruned.len() as u64;
    metrics.lint_subsumed = lint.subsumed.len() as u64;
    metrics.lint_unreachable = lint.unreachable_ids().len() as u64;
    metrics.lint_commuting_pairs = lint.commuting.len() as u64;
    let trace_records = tracer.finish();
    Ok(Explanation {
        pvts: selected,
        interventions,
        initial_score,
        final_score: score,
        resolved,
        repaired: current,
        lint,
        metrics,
        trace_records,
        decisions: tracer.digest(),
    })
}

/// The group-testing algorithm of a partition strategy.
fn group_testing(strategy: PartitionStrategy) -> Algorithm {
    match strategy {
        PartitionStrategy::MinBisection => Algorithm::GroupTest,
        PartitionStrategy::Random => Algorithm::GrpTest,
    }
}

/// [`Algorithm::Greedy`] over a factory on given candidates. Kept
/// only for `perfbench/src/adapter.rs` until a benchmark change moves
/// it onto [`Diagnosis`].
pub fn explain_greedy_parallel_with_pvts(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    pvts: Vec<Pvt>,
    config: &PrismConfig,
) -> Result<Explanation> {
    let source = Source::Factory(factory);
    Diagnosis::new(Algorithm::Greedy)
        .with_candidates(pvts)
        .run(source, d_fail, d_pass, config)
}

/// Group testing over a factory on given candidates. Kept only for
/// `perfbench/src/adapter.rs` until a benchmark change moves it onto
/// [`Diagnosis`].
pub fn explain_group_test_parallel_with_pvts(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    pvts: Vec<Pvt>,
    config: &PrismConfig,
    strategy: PartitionStrategy,
) -> Result<Explanation> {
    let source = Source::Factory(factory);
    Diagnosis::new(group_testing(strategy))
        .with_candidates(pvts)
        .run(source, d_fail, d_pass, config)
}

/// [`Algorithm::Greedy`] over a factory, warm-started from `cache`.
/// Kept only for `perfbench/src/adapter.rs` until a benchmark change
/// moves it onto [`Diagnosis`].
pub fn explain_greedy_parallel_cached(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    config: &PrismConfig,
    cache: &mut ScoreCache,
) -> Result<Explanation> {
    let source = Source::Factory(factory);
    Diagnosis::new(Algorithm::Greedy)
        .with_cache(cache)
        .run(source, d_fail, d_pass, config)
}

/// Group testing over a factory, warm-started from `cache`. Kept only
/// for `perfbench/src/adapter.rs` until a benchmark change moves it
/// onto [`Diagnosis`].
pub fn explain_group_test_parallel_cached(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    config: &PrismConfig,
    strategy: PartitionStrategy,
    cache: &mut ScoreCache,
) -> Result<Explanation> {
    let source = Source::Factory(factory);
    Diagnosis::new(group_testing(strategy))
        .with_cache(cache)
        .run(source, d_fail, d_pass, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::Column;
    use dp_frame::DType;

    fn cat(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(
            name,
            DType::Categorical,
            vals.iter().map(|s| Some(s.to_string())).collect(),
        )
    }

    fn label_system(df: &DataFrame) -> f64 {
        let col = df.column("target").unwrap();
        col.str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count() as f64
            / df.n_rows().max(1) as f64
    }

    #[test]
    fn auto_falls_back_to_greedy_on_a3_violation() {
        // A system where any composition involving the second column's
        // transforms blows up, violating A3, but the greedy path works.
        let pass = DataFrame::from_columns(vec![
            cat("target", &["-1", "1", "1", "-1"]),
            Column::from_ints("len", vec![Some(10), Some(12), Some(11), Some(13)]),
        ])
        .unwrap();
        let fail = DataFrame::from_columns(vec![
            cat("target", &["0", "4", "4", "0"]),
            Column::from_ints("len", vec![Some(1), Some(2), Some(3), Some(4)]),
        ])
        .unwrap();
        let pass_fp = crate::oracle::fingerprint(&pass);
        let system = move |df: &DataFrame| {
            if crate::oracle::fingerprint(df) == pass_fp {
                return 0.0;
            }
            let fail_len = [1, 2, 3, 4];
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
                label_system(df)
            }
        };
        let factory = || system;
        for threads in [1, 2] {
            let config = PrismConfig {
                num_threads: threads,
                ..PrismConfig::with_threshold(0.2)
            };
            let mut borrowed = system;
            let sources = [Source::Borrowed(&mut borrowed), Source::Factory(&factory)];
            let mut digests = Vec::new();
            for mut source in sources {
                let gt = Diagnosis::new(Algorithm::GroupTest).run(
                    source.reborrow(),
                    &fail,
                    &pass,
                    &config,
                );
                assert!(matches!(gt, Err(PrismError::AssumptionViolated(_))));
                let mut cache = ScoreCache::new();
                let exp = Diagnosis::new(Algorithm::Auto)
                    .with_cache(&mut cache)
                    .run(source, &fail, &pass, &config)
                    .unwrap();
                assert!(exp.resolved, "{exp}");
                assert!(!cache.is_empty(), "both attempts pay into the cache");
                digests.push(exp.digest());
            }
            assert_eq!(digests[0], digests[1], "{threads} threads");
        }
    }
}
