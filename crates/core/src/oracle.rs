//! The system under diagnosis and the intervention-counting oracle.
//!
//! A [`System`] computes the malfunction score `m_S(D) ∈ [0, 1]`
//! (Definition 3). The [`Oracle`] wraps it with the bookkeeping the
//! paper's evaluation reports: every malfunction evaluation of a
//! *transformed* dataset is an **intervention**, the currency of
//! Fig 7 and Fig 9. Identical datasets are content-fingerprinted so a
//! repeated query (e.g. during Make-Minimal) does not double count.
//!
//! [`SystemFactory`] extends the abstraction for the parallel runtime
//! (see [`crate::runtime`]): it builds independent `Send` system
//! instances so worker threads can score speculative candidate
//! datasets concurrently into a shared fingerprint cache.

use crate::cache::ScoreCache;
use crate::config::OracleSampling;
use dp_frame::sample::stratified_sample_indices;
use dp_frame::{Bitmap, Chunk, ColumnData, DataFrame, Value};
use dp_trace::{LatencyHistogram, QueryStat, RunMetrics, SampledQuerySpan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// A (possibly stateful) data-driven system with a malfunction score.
///
/// Implementations retrain models, run pipelines, etc. They must be
/// deterministic functions of the dataset for the diagnosis to be
/// meaningful (seed your models).
pub trait System {
    /// Malfunction score of the system over `df`, in `[0, 1]`
    /// (0 = functions properly).
    fn malfunction(&mut self, df: &DataFrame) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "system"
    }
}

impl<F: FnMut(&DataFrame) -> f64> System for F {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        self(df)
    }
}

/// Builds independent instances of the system under diagnosis so the
/// parallel runtime can hand one to each worker thread.
///
/// Instances must be *observationally identical*: `malfunction` must
/// return the same score for the same dataset on every instance
/// (deterministic systems satisfy this trivially). Implemented via a
/// blanket impl for any `Fn() -> S` constructor closure, so
/// `&|| MySystem::new(...)` is a ready-made factory.
pub trait SystemFactory: Sync {
    /// Build one fresh system instance.
    fn build(&self) -> Box<dyn System + Send>;

    /// Human-readable name for reports (defaults to a probe
    /// instance's name).
    fn name(&self) -> String {
        self.build().name().to_string()
    }
}

impl<S, F> SystemFactory for F
where
    S: System + Send + 'static,
    F: Fn() -> S + Sync,
{
    fn build(&self) -> Box<dyn System + Send> {
        Box::new(self())
    }
}

fn hash_valid_slots<T: Hash>(h: &mut DefaultHasher, tag: u8, values: &[T], validity: &Bitmap) {
    tag.hash(h);
    if validity.count_zeros() == 0 {
        // Fast path: no NULLs, the buffer is canonical as-is.
        values.hash(h);
        return;
    }
    // Slots masked out by the validity bitmap hold stale placeholders
    // (`Column::set(i, Null)` only clears the bit), so only valid
    // slots may contribute to the fingerprint.
    for (i, v) in values.iter().enumerate() {
        if validity.get(i) {
            v.hash(h);
        }
    }
}

/// Content hash of one storage chunk: validity words plus the typed
/// buffer (placeholders under NULL slots masked out). This is the
/// `compute` half of [`Chunk::cached_fingerprint`] — the hash policy
/// lives here with the oracle, the cache lives with the storage.
fn chunk_fingerprint(chunk: &Chunk) -> u64 {
    let mut h = DefaultHasher::new();
    // The bitmap's tail bits past `len` are canonically zero, so the
    // word slice is safe to hash directly; it distinguishes NULL
    // layouts that the value stream alone cannot.
    chunk.validity().words().hash(&mut h);
    match chunk.data() {
        ColumnData::Int(v) => hash_valid_slots(&mut h, 1, v, chunk.validity()),
        ColumnData::Bool(v) => hash_valid_slots(&mut h, 3, v, chunk.validity()),
        ColumnData::Str(v) => hash_valid_slots(&mut h, 4, v, chunk.validity()),
        ColumnData::Float(v) => {
            2u8.hash(&mut h);
            if chunk.validity().count_zeros() == 0 {
                for x in v {
                    x.to_bits().hash(&mut h);
                }
            } else {
                for (i, x) in v.iter().enumerate() {
                    if chunk.validity().get(i) {
                        x.to_bits().hash(&mut h);
                    }
                }
            }
        }
    }
    h.finish()
}

/// Content fingerprint of a dataframe, hashing the raw typed column
/// buffers and validity bitmaps directly — no per-cell [`Value`]
/// boxing or string formatting. Collisions would only merge two
/// intervention cache entries, never corrupt correctness-critical
/// state.
///
/// Per-chunk hashes are memoized on the chunks themselves
/// ([`Chunk::cached_fingerprint`]), so fingerprinting a transformed
/// frame re-hashes only the chunks the transformation actually wrote
/// — every chunk still shared with an already-fingerprinted frame is
/// a single cached `u64` read.
pub fn fingerprint(df: &DataFrame) -> u64 {
    let mut h = DefaultHasher::new();
    for col in df.columns() {
        col.name().hash(&mut h);
        col.dtype().hash(&mut h);
        col.len().hash(&mut h);
        for chunk in col.chunks() {
            chunk.cached_fingerprint(chunk_fingerprint).hash(&mut h);
        }
    }
    h.finish()
}

/// Original per-cell fingerprint, kept as a differential-testing
/// reference for the buffer-level [`fingerprint`]: both walk the same
/// logical content, so they must agree on equality/inequality of any
/// two frames (the hash values themselves differ).
pub fn fingerprint_reference(df: &DataFrame) -> u64 {
    let mut h = DefaultHasher::new();
    for col in df.columns() {
        col.name().hash(&mut h);
        format!("{:?}", col.dtype()).hash(&mut h);
        for i in 0..col.len() {
            match col.get(i) {
                Value::Null => 0u8.hash(&mut h),
                Value::Int(v) => {
                    1u8.hash(&mut h);
                    v.hash(&mut h);
                }
                Value::Float(v) => {
                    2u8.hash(&mut h);
                    v.to_bits().hash(&mut h);
                }
                Value::Bool(v) => {
                    3u8.hash(&mut h);
                    v.hash(&mut h);
                }
                Value::Str(v) => {
                    4u8.hash(&mut h);
                    v.hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

/// Clamp a malfunction score into `[0, 1]`; a NaN (a crashed or
/// undefined measurement) is treated as extreme malfunction so it can
/// never masquerade as "passes" (NaN comparisons are all false, which
/// would otherwise poison the `m ≤ τ` checks).
pub(crate) fn sanitize(score: f64) -> f64 {
    if score.is_nan() {
        1.0
    } else {
        score.clamp(0.0, 1.0)
    }
}

/// Oracle cache counters surfaced in [`crate::Explanation`] and the
/// markdown report.
///
/// `interventions` is the paper's Fig 7/Fig 9 currency and is
/// invariant under the thread count; `hits`/`misses`/`speculative`
/// describe how the fingerprint cache served those queries and *do*
/// vary with scheduling (a speculative worker may turn a would-be
/// miss into a hit).
///
/// **Deprecated as a primary surface**: these counters are now a
/// read-through view of [`RunMetrics`] (see
/// [`CacheStats::from_metrics`], the single derivation point), kept
/// so existing goldens and tests migrate in one place. New counters
/// land on `RunMetrics` — `Explanation::metrics` — not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Charged oracle queries answered from the fingerprint cache.
    pub hits: usize,
    /// Charged oracle queries that ran the system.
    pub misses: usize,
    /// System evaluations performed speculatively by worker threads
    /// (cache warming; never charged as interventions).
    pub speculative: usize,
    /// Speculative evaluations whose score was never consumed by a
    /// charged query — wasted lookahead (the price of guessing the
    /// recursion's decisions ahead of time). Like `hits`/`misses`,
    /// this varies with scheduling and speculation depth.
    pub speculative_waste: usize,
    /// Interventions charged (every non-baseline query, cached or
    /// not).
    pub interventions: usize,
    /// Candidate PVTs dropped by the static lint pass before ranking
    /// (`Lint::Prune` only) — each one an exploration the run never
    /// had to pay oracle queries for. Like `interventions`, invariant
    /// under the thread count.
    pub lint_pruned: usize,
    /// Candidate PVTs merged into an L6 equivalence-class sibling
    /// before ranking (`Lint::Prune` only): the class representative
    /// carries the single oracle charge. Disjoint from `lint_pruned`
    /// and, like it, invariant under the thread count.
    pub lint_subsumed: usize,
}

impl CacheStats {
    /// Derive the legacy counters from a [`RunMetrics`] — the single
    /// point where the deprecated aliases are populated.
    pub fn from_metrics(m: &RunMetrics) -> CacheStats {
        CacheStats {
            hits: m.cache_hits as usize,
            misses: m.cache_misses as usize,
            speculative: m.speculative_evaluated as usize,
            speculative_waste: m.speculative_wasted as usize,
            interventions: m.charged_queries as usize,
            lint_pruned: m.lint_pruned as usize,
            lint_subsumed: m.lint_subsumed as usize,
        }
    }
}

/// Datasets smaller than this are never worth sampling: the first
/// probe (64 rows) plus the Hoeffding band would cover most of the
/// data anyway, so the full evaluation is both cheaper and exact.
const MIN_SAMPLED_ROWS: usize = 128;

/// First sample size of the doubling schedule.
const INITIAL_SAMPLE_ROWS: usize = 64;

/// Contiguous row-range strata the sampled oracle draws from, so a
/// sample covers the whole index range even when rows are ordered.
const SAMPLE_STRATA: usize = 16;

/// The confidence-bounded sampled decision procedure shared by the
/// serial [`Oracle`] and [`crate::runtime::ParOracle`].
///
/// `try_settle` estimates `m_S(D)` on growing stratified row samples
/// and settles the pass/fail verdict at τ once a two-sided Hoeffding
/// bound puts the estimate confidently on the FAIL side:
/// `est − τ > ε(n)` with `ε(n) = sqrt(ln(2/δ) / 2n)`, `δ = 1 −
/// confidence`. Only FAIL verdicts ever settle — every consumer of a
/// *passing* decision reads the exact score (the greedy loop composes
/// it, Make-Minimal adopts it, reports print it), so confident
/// passes, boundary cases, and exhausted schedules all escalate to a
/// full evaluation and stay bit-identical to an unsampled run.
pub(crate) struct SampledDecider {
    mode: OracleSampling,
    seed: u64,
    /// Verdicts already settled on a sample, by dataset fingerprint:
    /// `(estimate, rows)` of the settling probe. A repeated query
    /// reuses the verdict without re-scoring any rows.
    settled: HashMap<u64, (f64, u64)>,
    /// Charged queries settled on a sample.
    pub(crate) sampled_queries: u64,
    /// Eligible queries that escalated to a full evaluation.
    pub(crate) escalations: u64,
    /// Rows actually scored by sampled probes.
    pub(crate) rows_touched: u64,
    /// Record of the most recent settled decision, for span emission.
    pub(crate) last: Option<SampledQuerySpan>,
}

impl SampledDecider {
    pub(crate) fn new(mode: OracleSampling, seed: u64) -> Self {
        SampledDecider {
            mode,
            seed,
            settled: HashMap::new(),
            sampled_queries: 0,
            escalations: 0,
            rows_touched: 0,
            last: None,
        }
    }

    /// The configured confidence, clamped into a usable range
    /// (δ must stay in `(0, 0.5]` for the bound to mean anything).
    fn confidence(&self) -> Option<f64> {
        match self.mode {
            OracleSampling::Off => None,
            OracleSampling::Bounded { confidence } => Some(confidence.clamp(0.5, 1.0 - 1e-9)),
        }
    }

    /// Try to settle `df`'s verdict at `threshold` on stratified row
    /// samples scored by `eval`. Returns `Some(false)` for a
    /// confident FAIL (never `Some(true)`: passing decisions must
    /// carry exact scores); `None` means the caller must evaluate in
    /// full — sampling off, dataset too small, or escalation.
    pub(crate) fn try_settle(
        &mut self,
        fp: u64,
        df: &DataFrame,
        threshold: f64,
        eval: &mut dyn FnMut(&DataFrame) -> f64,
    ) -> Option<bool> {
        let confidence = self.confidence()?;
        let total = df.n_rows();
        if total < MIN_SAMPLED_ROWS {
            return None;
        }
        if let Some(&(estimate, rows)) = self.settled.get(&fp) {
            self.sampled_queries += 1;
            self.last = Some(SampledQuerySpan {
                fingerprint: fp,
                estimate,
                rows,
                total_rows: total as u64,
                confidence,
            });
            return Some(false);
        }
        let delta = 1.0 - confidence;
        // Deterministic per-dataset stream: the same frame samples the
        // same rows in every run and on every runtime.
        let mut rng = StdRng::seed_from_u64(self.seed ^ fp);
        let mut n = INITIAL_SAMPLE_ROWS.min(total);
        loop {
            let idx = stratified_sample_indices(&mut rng, total, n, SAMPLE_STRATA)
                .expect("sample size is bounded by the row count");
            let sample = df.take(&idx).expect("sampled indices are in range");
            let estimate = sanitize(eval(&sample));
            self.rows_touched += n as u64;
            let eps = ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt();
            if estimate - threshold > eps {
                self.sampled_queries += 1;
                self.settled.insert(fp, (estimate, n as u64));
                self.last = Some(SampledQuerySpan {
                    fingerprint: fp,
                    estimate,
                    rows: n as u64,
                    total_rows: total as u64,
                    confidence,
                });
                return Some(false);
            }
            if threshold - estimate > eps {
                // Confident PASS: the verdict is settled but the
                // exact score is consumed downstream — escalate.
                break;
            }
            if n * 2 <= total {
                n *= 2;
            } else {
                // The estimate still sits inside the confidence band
                // of τ with the schedule exhausted: the boundary case
                // sampling must never decide.
                break;
            }
        }
        self.escalations += 1;
        None
    }
}

/// Intervention-counting, caching wrapper around a [`System`].
pub struct Oracle<'a> {
    system: &'a mut dyn System,
    /// Acceptable-malfunction threshold `τ`.
    pub threshold: f64,
    /// Interventions performed. Every [`Oracle::intervene`] query
    /// counts — even when the content cache spares the recomputation
    /// — because an intervention is the *act of asking the oracle*
    /// about a transformed dataset (the metric of the paper's Fig 7
    /// and Fig 9). Only the two problem-input baselines are free.
    pub interventions: usize,
    /// Hard cap; exceeding it surfaces as
    /// [`crate::PrismError::BudgetExhausted`] in the algorithms.
    pub budget: usize,
    hits: usize,
    misses: usize,
    warm_hits: u64,
    baseline_queries: u64,
    query_latency: LatencyHistogram,
    last: QueryStat,
    cache: HashMap<u64, f64>,
    free: std::collections::HashSet<u64>,
    /// Fingerprints seeded from a cross-run [`ScoreCache`] before the
    /// run started, for [`RunMetrics::warm_hits`] accounting.
    warm: HashSet<u64>,
    /// The confidence-bounded sampled decision procedure (inert under
    /// [`OracleSampling::Off`], the default).
    sampling: SampledDecider,
}

impl<'a> Oracle<'a> {
    /// Wrap `system` with threshold `τ` and an intervention budget.
    pub fn new(system: &'a mut dyn System, threshold: f64, budget: usize) -> Self {
        Oracle {
            system,
            threshold,
            interventions: 0,
            budget,
            hits: 0,
            misses: 0,
            warm_hits: 0,
            baseline_queries: 0,
            query_latency: LatencyHistogram::default(),
            last: QueryStat::default(),
            cache: HashMap::new(),
            free: std::collections::HashSet::new(),
            warm: HashSet::new(),
            sampling: SampledDecider::new(OracleSampling::Off, 0),
        }
    }

    /// Configure the sampled decision procedure (see
    /// [`crate::PrismConfig::oracle_sampling`]); `seed` keys the
    /// per-dataset sample streams. Returns `self` for chaining.
    pub fn with_sampling(mut self, mode: OracleSampling, seed: u64) -> Self {
        self.sampling = SampledDecider::new(mode, seed);
        self
    }

    /// Like [`Oracle::new`], but seed the fingerprint cache from a
    /// cross-run [`ScoreCache`] (trace replay, snapshot, or a
    /// server-resident cache). Systems are deterministic, so seeded
    /// scores equal what a cold evaluation would return bit-for-bit:
    /// the diagnosis result is unchanged, only `cache_misses` drops
    /// and [`RunMetrics::warm_hits`] counts the queries the warm
    /// start answered.
    pub fn with_warm_cache(
        system: &'a mut dyn System,
        threshold: f64,
        budget: usize,
        warm: &ScoreCache,
    ) -> Self {
        let mut oracle = Oracle::new(system, threshold, budget);
        for (fp, score) in warm.iter() {
            oracle.cache.insert(fp, score);
            oracle.warm.insert(fp);
        }
        oracle
    }

    /// Snapshot the fingerprint cache accumulated so far (seeded and
    /// newly scored entries alike) into a cross-run [`ScoreCache`].
    pub fn export_cache(&self) -> ScoreCache {
        let mut out = ScoreCache::new();
        for (&fp, &score) in &self.cache {
            out.insert(fp, score);
        }
        out
    }

    /// Malfunction score of a *baseline* dataset (`D_pass`/`D_fail`
    /// as given). Never counted as an intervention — the problem
    /// definition assumes these two scores are known — and future
    /// queries of the identical dataset stay free.
    pub fn baseline(&mut self, df: &DataFrame) -> f64 {
        let fp = fingerprint(df);
        self.free.insert(fp);
        self.baseline_queries += 1;
        if let Some(&score) = self.cache.get(&fp) {
            self.last = QueryStat {
                fingerprint: fp,
                cached: true,
                speculative_hit: false,
                latency_ns: None,
            };
            return score;
        }
        let start = Instant::now();
        let score = sanitize(self.system.malfunction(df));
        let latency_ns = start.elapsed().as_nanos() as u64;
        // Baselines are free of charge but their evaluations are real
        // latency samples — often the *only* ones a fresh system has
        // before the speculation controller first runs.
        self.query_latency.record(latency_ns);
        self.last = QueryStat {
            fingerprint: fp,
            cached: false,
            speculative_hit: false,
            latency_ns: Some(latency_ns),
        };
        self.cache.insert(fp, score);
        score
    }

    /// Malfunction score of a transformed dataset: one intervention
    /// (the system itself is only re-run when the exact dataset has
    /// not been scored before). Re-asking a free baseline is neither
    /// charged nor counted as a cache hit.
    pub fn intervene(&mut self, df: &DataFrame) -> f64 {
        let fp = fingerprint(df);
        let charged = !self.free.contains(&fp);
        if charged {
            self.interventions += 1;
        }
        if let Some(&score) = self.cache.get(&fp) {
            if charged {
                self.hits += 1;
                if self.warm.contains(&fp) {
                    self.warm_hits += 1;
                }
            }
            self.last = QueryStat {
                fingerprint: fp,
                cached: true,
                speculative_hit: false,
                latency_ns: None,
            };
            return score;
        }
        self.misses += 1;
        let start = Instant::now();
        let score = sanitize(self.system.malfunction(df));
        let latency_ns = start.elapsed().as_nanos() as u64;
        self.query_latency.record(latency_ns);
        self.last = QueryStat {
            fingerprint: fp,
            cached: false,
            speculative_hit: false,
            latency_ns: Some(latency_ns),
        };
        self.cache.insert(fp, score);
        score
    }

    /// Decide whether `df` passes at τ, charging one intervention.
    ///
    /// With sampling off (the default) this is exactly
    /// [`Oracle::intervene`] plus [`Oracle::passes`], and the exact
    /// score is always returned. Under [`OracleSampling::Bounded`],
    /// an uncached query may instead be settled as a confident FAIL
    /// on stratified row samples ([`SampledDecider`]); those return
    /// `(false, None)` without ever scoring the full dataset.
    /// Decisions that pass — or sit inside the confidence band of τ —
    /// escalate to a full evaluation, so a returned score is exact.
    pub fn decide(&mut self, df: &DataFrame) -> (bool, Option<f64>) {
        let fp = fingerprint(df);
        let settled = if self.free.contains(&fp) || self.cache.contains_key(&fp) {
            // The exact score is free or already paid for — sampling
            // could only discard information.
            None
        } else {
            let threshold = self.threshold;
            let system = &mut *self.system;
            self.sampling
                .try_settle(fp, df, threshold, &mut |d| sanitize(system.malfunction(d)))
        };
        match settled {
            Some(passes) => {
                // The act of asking is still one intervention; the
                // hit/miss split, score cache, and latency histogram
                // describe full evaluations only and stay untouched.
                self.interventions += 1;
                (passes, None)
            }
            None => {
                let score = self.intervene(df);
                (self.passes(score), Some(score))
            }
        }
    }

    /// The sampled-decision record of the most recent
    /// [`Oracle::decide`] that settled without an exact score, for
    /// span emission.
    pub fn last_sampled_query(&self) -> Option<SampledQuerySpan> {
        self.sampling.last
    }

    /// Whether a score is acceptable (`m ≤ τ`).
    pub fn passes(&self, score: f64) -> bool {
        score <= self.threshold
    }

    /// Whether the intervention budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.interventions >= self.budget
    }

    /// Cache counters accumulated so far (derived from
    /// [`Oracle::run_metrics`]).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::from_metrics(&self.run_metrics())
    }

    /// Full metrics accumulated so far. The serial oracle never
    /// speculates, so all speculation counters are zero.
    pub fn run_metrics(&self) -> RunMetrics {
        RunMetrics {
            baseline_queries: self.baseline_queries,
            charged_queries: self.interventions as u64,
            cache_hits: self.hits as u64,
            cache_misses: self.misses as u64,
            warm_hits: self.warm_hits,
            sampled_queries: self.sampling.sampled_queries,
            escalations: self.sampling.escalations,
            rows_touched: self.sampling.rows_touched,
            query_latency: self.query_latency,
            ..RunMetrics::default()
        }
    }

    /// Cache behaviour of the most recent query (for span emission).
    pub fn last_query(&self) -> QueryStat {
        self.last
    }

    /// Name of the wrapped system.
    pub fn system_name(&self) -> String {
        self.system.name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::Column;

    fn df(vals: &[i64]) -> DataFrame {
        DataFrame::from_columns(vec![Column::from_ints(
            "x",
            vals.iter().map(|&v| Some(v)).collect(),
        )])
        .unwrap()
    }

    #[test]
    fn every_query_counts_but_computation_is_cached() {
        let mut calls = 0usize;
        let mut system = |_: &DataFrame| {
            calls += 1;
            0.5
        };
        let mut oracle = Oracle::new(&mut system, 0.2, 100);
        let a = df(&[1, 2, 3]);
        let b = df(&[4, 5, 6]);
        assert_eq!(oracle.intervene(&a), 0.5);
        assert_eq!(oracle.intervene(&a), 0.5, "cached result, counted query");
        assert_eq!(oracle.intervene(&b), 0.5);
        assert_eq!(oracle.interventions, 3);
        let stats = oracle.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.interventions, 3);
        drop(oracle);
        assert_eq!(calls, 2, "system invoked once per unique dataset");
    }

    #[test]
    fn baseline_is_free_forever() {
        let mut system = |_: &DataFrame| 0.9;
        let mut oracle = Oracle::new(&mut system, 0.2, 100);
        let d = df(&[1]);
        oracle.baseline(&d);
        assert_eq!(oracle.interventions, 0);
        // Re-querying the exact baseline dataset stays free.
        oracle.intervene(&d);
        assert_eq!(oracle.interventions, 0);
        // A genuinely different dataset counts.
        oracle.intervene(&df(&[2]));
        assert_eq!(oracle.interventions, 1);
    }

    #[test]
    fn cold_baseline_records_a_latency_sample() {
        // Regression: the cold-baseline path used to skip
        // `query_latency.record`, losing the first — often only —
        // latency sample of a fresh system, which starved the
        // adaptive speculation controller.
        let mut system = |_: &DataFrame| 0.9;
        let mut oracle = Oracle::new(&mut system, 0.2, 100);
        oracle.baseline(&df(&[1, 2, 3]));
        let m = oracle.run_metrics();
        assert!(
            m.query_latency.count >= 1,
            "cold baseline must record into the latency histogram"
        );
        assert!(oracle.last_query().latency_ns.is_some());
        // A warm (cached) baseline adds no sample and reports no
        // latency at all — hits must never skew the mean query cost.
        let before = oracle.run_metrics().query_latency.count;
        oracle.baseline(&df(&[1, 2, 3]));
        assert_eq!(oracle.run_metrics().query_latency.count, before);
        assert_eq!(oracle.last_query().latency_ns, None);
    }

    #[test]
    fn passes_and_budget() {
        let mut system = |_: &DataFrame| 0.1;
        let mut oracle = Oracle::new(&mut system, 0.2, 1);
        assert!(oracle.passes(0.2));
        assert!(!oracle.passes(0.21));
        assert!(!oracle.exhausted());
        oracle.intervene(&df(&[1]));
        assert!(oracle.exhausted());
    }

    #[test]
    fn fingerprints_differ_on_content_and_schema() {
        let a = df(&[1, 2]);
        let b = df(&[2, 1]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let c =
            DataFrame::from_columns(vec![Column::from_ints("y", vec![Some(1), Some(2)])]).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&c), "column name matters");
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn fingerprint_masks_stale_placeholders_behind_nulls() {
        // Two frames whose only difference is the placeholder hidden
        // under a NULL slot must fingerprint identically: `set(i,
        // Null)` clears the validity bit but leaves the old buffer
        // value in place.
        let mut a = DataFrame::from_columns(vec![Column::from_ints(
            "x",
            vec![Some(10), Some(2), Some(3)],
        )])
        .unwrap();
        let mut b = DataFrame::from_columns(vec![Column::from_ints(
            "x",
            vec![Some(99), Some(2), Some(3)],
        )])
        .unwrap();
        a.column_mut("x").unwrap().set(0, Value::Null).unwrap();
        b.column_mut("x").unwrap().set(0, Value::Null).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint_reference(&a), fingerprint_reference(&b));
        // And flipping which slot is NULL must change the hash.
        let c =
            DataFrame::from_columns(vec![Column::from_ints("x", vec![Some(10), None, Some(3)])])
                .unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn factory_builds_independent_equivalent_systems() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 100.0;
        let f: &dyn SystemFactory = &factory;
        let mut s1 = f.build();
        let mut s2 = f.build();
        let d = df(&[1, 2, 3]);
        assert_eq!(s1.malfunction(&d), s2.malfunction(&d));
    }

    #[test]
    fn scores_clamped_and_nan_is_extreme() {
        let mut system = |_: &DataFrame| 7.5;
        let mut oracle = Oracle::new(&mut system, 0.2, 10);
        assert_eq!(oracle.intervene(&df(&[1])), 1.0);
        // Failure injection: a system returning NaN (crashed
        // measurement) must read as extreme malfunction, not as a
        // vacuous pass.
        let mut nan_system = |_: &DataFrame| f64::NAN;
        let mut oracle = Oracle::new(&mut nan_system, 0.2, 10);
        let score = oracle.intervene(&df(&[2]));
        assert_eq!(score, 1.0);
        assert!(!oracle.passes(score));
    }
}
