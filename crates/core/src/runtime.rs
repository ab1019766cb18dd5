//! The intervention runtime: the [`Oracle`] every diagnosis charges
//! its queries through.
//!
//! An [`Oracle`] wraps the system under diagnosis with the
//! bookkeeping the paper's evaluation reports: every malfunction
//! evaluation of a *transformed* dataset is an **intervention**, the
//! currency of Fig 7 and Fig 9. The two problem-input baselines are
//! free. Identical datasets are content-fingerprinted, so a repeated
//! query (e.g. during Make-Minimal) is charged but never re-scored.
//!
//! The runtime draws its systems from one of two sources. A borrowed
//! `&mut dyn System` ([`Oracle::new`]) runs at width 1: the calling
//! thread scores each frame when it is charged, and no worker or pool
//! ever starts. A [`SystemFactory`] ([`Oracle::parallel`]) builds one
//! instance per worker thread, and the runtime then overlaps the
//! expensive part of a search with its serial decisions.
//!
//! The paper's algorithms are strictly sequential: every decision
//! (keep a PVT, recurse into a partition) depends on the score of the
//! previous intervention. What *can* run concurrently is materializing
//! candidate datasets and running the system on them. The runtime
//! exploits that split with **speculation as cache warming**:
//!
//! 1. An algorithm plans the next few candidate datasets a serial run
//!    *might* query (under explicit hypotheses about its own
//!    decisions) and hands them to [`Oracle::speculate`].
//! 2. At width > 1 the runtime materializes and scores them on worker
//!    threads, each holding its own [`System`] instance, into a
//!    shared, lock-guarded fingerprint cache. **No interventions are
//!    charged.** At width 1 it only materializes them.
//! 3. The algorithm then replays its decisions exactly as a serial
//!    run would, charging interventions one by one through
//!    [`Oracle::intervene`]; queries the speculation guessed right
//!    become cache hits. Candidates a serial run would never have
//!    reached are simply discarded.
//!
//! Synchronous [`Oracle::speculate`] batches block until every job is
//! scored — right for the handful of frames the caller consumes
//! immediately (greedy plans, a GT node's own two halves). Deep
//! group-testing lookahead instead queues **detached** jobs
//! ([`Oracle::speculate_detached`]): fully owned
//! [`DetachedSpeculation`]s drained FIFO by a persistent background
//! pool while the serial replay keeps running. A parallel diagnosis
//! starts with one concurrent batch, the **opening**
//! ([`Oracle::score_opening`]): the two free baselines on the pool and
//! the algorithm's first charged frames on the sync workers, all
//! scored at once before the replay validates the inputs.
//!
//! The shared fingerprint cache also tracks the frames being scored
//! right now. A thread claims a fingerprint before it runs the system
//! on it, so no frame is scored twice: a worker skips a frame that is
//! already scored or claimed, and a replay query whose frame a worker
//! is still scoring waits for that score (a cache hit) instead of
//! evaluating it again. If the system panics mid-evaluation, the claim
//! is released and the waiting query scores the frame itself, so a
//! panic that always recurs surfaces on the caller as in a serial run.
//! Frontier frames the search never asks for are counted as
//! *speculative waste* ([`RunMetrics::speculative_wasted`]).
//!
//! Because all charging and all decisions flow through `intervene` in
//! serial order, explanations, malfunction scores, and intervention
//! counts are **bit-for-bit identical for any thread count and any
//! lookahead depth** (the paper's Fig 7/Fig 9 numbers are preserved);
//! only wall-clock time and the cache hit/miss/speculation counters
//! change. `tests/parallel_conformance.rs` pins this invariant across
//! every bundled scenario, `num_threads` in {1, 2, 8}, and
//! `gt_speculation_depth` in {0, 1, 2, 4}.

use crate::cache::ScoreCache;
use crate::config::{OracleSampling, SpeculationMode};
use crate::error::Result;
use crate::oracle::{fingerprint, System, SystemFactory};
use crate::pvt::{apply_composition, Pvt};
use dp_frame::sample::stratified_sample_indices;
use dp_frame::DataFrame;
use dp_trace::{
    Event, LatencyHistogram, MetricsShard, OracleQuerySpan, QueryKind, QueryStat, RunMetrics,
    SampledQuerySpan, Tracer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

// Under `RUSTFLAGS="--cfg loom"` the pool's synchronization
// primitives and worker threads swap to the loom shim so the model
// tests in tests/loom_model.rs can perturb their interleavings. The
// shim's `sync::Arc` is the std `Arc` re-exported, so both cfgs
// share one set of types.
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex};
#[cfg(loom)]
use loom::thread as pool_thread;
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex};
#[cfg(not(loom))]
use std::thread as pool_thread;

/// One candidate dataset an algorithm may query soon.
pub enum Speculation<'a> {
    /// Already materialized by the caller (e.g. because its
    /// transformation consumes the algorithm's RNG stream, which must
    /// advance on the main thread).
    Ready(DataFrame),
    /// To be materialized by applying the composition of `pvts` (in
    /// the given order) to `base`, consuming `rng` — a snapshot of
    /// the exact RNG state a serial run would hold at this point, so
    /// deferred materialization is reproducible.
    Apply {
        /// Transformations to compose, in application order.
        pvts: Vec<&'a Pvt>,
        /// Dataset to transform.
        base: &'a DataFrame,
        /// RNG stream snapshot to consume.
        rng: StdRng,
    },
}

/// A materialized speculation.
pub struct Speculated {
    /// The candidate dataset.
    pub frame: DataFrame,
}

fn materialize(job: Speculation<'_>) -> Result<Speculated> {
    match job {
        Speculation::Ready(frame) => Ok(Speculated { frame }),
        Speculation::Apply {
            pvts,
            base,
            mut rng,
        } => {
            let (frame, _) = apply_composition(&pvts, base, &mut rng)?;
            Ok(Speculated { frame })
        }
    }
}

/// A fully owned, fire-and-forget cache-warming job: apply the
/// composition of `pvts` to `base` consuming `rng`, then score the
/// result into the shared fingerprint cache.
///
/// Unlike [`Speculation`], nothing is borrowed and nothing is
/// returned: the group-testing lookahead queues whole recursion-tree
/// frontiers this way ([`Oracle::speculate_detached`]) and keeps
/// replaying while the pool drains them in the background.
/// A materialization error in a detached job is swallowed — if the
/// serial decision path ever needs that frame, it re-materializes it
/// on the main thread and surfaces the same deterministic error.
pub struct DetachedSpeculation {
    /// Transformations to compose, in application order.
    pub pvts: Vec<Pvt>,
    /// Dataset to transform.
    pub base: Arc<DataFrame>,
    /// RNG stream to consume (derived, never shared).
    pub rng: StdRng,
}

/// The speculation executor's decision for one cold bisection node:
/// how many extra recursion levels to pre-score, and under what
/// budget. Returned by [`Oracle::plan_speculation_depth`]; the
/// group-testing recursion emits it as a `SpeculationPlan` trace
/// event.
///
/// The plan only steers cache warming. Whatever depth it picks, the
/// serial replay charges the identical query sequence, so
/// explanations are bit-identical across plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationPlan {
    /// The configured depth cap (`gt_speculation_depth`).
    pub cap: usize,
    /// Effective depth chosen (≤ `cap`).
    pub depth: usize,
    /// In-flight frame budget in force, if any.
    pub budget: Option<usize>,
    /// Mean observed cold-query latency the decision was based on,
    /// in nanoseconds (`None` when no sample existed yet).
    pub mean_query_ns: Option<u64>,
}

/// Upper bound on the frames a depth-`d` speculative frontier plans:
/// the full binary pre-bisection tree holds 2^(d+2) − 2 nodes (see
/// `group_test::plan_frontier`; small candidate sets plan fewer).
fn frontier_frames(depth: usize) -> usize {
    1usize
        .checked_shl(depth as u32 + 2)
        .map_or(usize::MAX, |v| v - 2)
}

/// Clamp a malfunction score into `[0, 1]`; a NaN (a crashed or
/// undefined measurement) is treated as extreme malfunction so it can
/// never masquerade as "passes" (NaN comparisons are all false, which
/// would otherwise poison the `m ≤ τ` checks).
fn sanitize(score: f64) -> f64 {
    if score.is_nan() {
        1.0
    } else {
        score.clamp(0.0, 1.0)
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

/// The confidence-bounded sampled decision procedure behind
/// [`Oracle::decide`].
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
struct SampledDecider {
    mode: OracleSampling,
    seed: u64,
    /// Verdicts already settled on a sample, by dataset fingerprint:
    /// `(estimate, rows)` of the settling probe. A repeated query
    /// reuses the verdict without re-scoring any rows.
    settled: HashMap<u64, (f64, u64)>,
    /// Charged queries settled on a sample.
    sampled_queries: u64,
    /// Eligible queries that escalated to a full evaluation.
    escalations: u64,
    /// Rows actually scored by sampled probes.
    rows_touched: u64,
    /// Record of the most recent settled decision, for span emission.
    last: Option<SampledQuerySpan>,
}

impl SampledDecider {
    fn new(mode: OracleSampling, seed: u64) -> Self {
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
    fn try_settle(
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

/// The fingerprint cache shared by the caller and every worker, with
/// the hand-off for frames being scored right now. Evaluation
/// *counts* live outside the lock, in per-worker [`MetricsShard`]s,
/// so workers never contend on the cache mutex just to bump a counter.
struct SharedCache {
    state: Mutex<CacheState>,
    /// Signals waiters that a fingerprint left `inflight`.
    settled: Condvar,
}

struct CacheState {
    /// Fingerprint → score.
    map: HashMap<u64, f64>,
    /// Speculatively scored fingerprints no query has consumed yet
    /// (the speculative-waste numerator).
    unconsumed: HashSet<u64>,
    /// Fingerprints a thread has claimed and is scoring right now.
    inflight: HashSet<u64>,
}

/// What a replay query finds in the [`SharedCache`].
enum Lookup {
    /// Scored, possibly after waiting for an in-flight evaluation;
    /// `speculative` when the query retired a speculative score from
    /// the waste set.
    Scored { score: f64, speculative: bool },
    /// Neither scored nor in flight: the caller now holds the claim.
    Claimed,
}

impl SharedCache {
    fn new() -> Self {
        SharedCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                unconsumed: HashSet::new(),
                inflight: HashSet::new(),
            }),
            settled: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // Nothing panics while holding the lock (systems run outside
        // it), so a poisoned state is still consistent.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Worker side: claim `fp` unless it is scored or being scored.
    fn try_claim(&self, fp: u64) -> bool {
        let mut state = self.lock();
        !state.map.contains_key(&fp) && state.inflight.insert(fp)
    }

    /// Replay side: the score of `fp`, waiting for a worker that is
    /// still scoring it. When no score exists or is coming, claim it.
    fn lookup_or_claim(&self, fp: u64) -> Lookup {
        let mut state = self.lock();
        loop {
            if let Some(&score) = state.map.get(&fp) {
                let speculative = state.unconsumed.remove(&fp);
                return Lookup::Scored { score, speculative };
            }
            if state.inflight.insert(fp) {
                return Lookup::Claimed;
            }
            state = self.settled.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Whether `fp` is scored or being scored.
    fn known(&self, fp: u64) -> bool {
        let state = self.lock();
        state.map.contains_key(&fp) || state.inflight.contains(&fp)
    }

    /// Release the claim on `fp`, recording its score if there is one
    /// (`None`: the evaluation died), and wake every waiter.
    fn release(&self, fp: u64, scored: Option<(f64, bool)>) {
        let mut state = self.lock();
        if let Some((score, speculative)) = scored {
            state.map.insert(fp, score);
            if speculative {
                state.unconsumed.insert(fp);
            }
        }
        state.inflight.remove(&fp);
        drop(state);
        self.settled.notify_all();
    }
}

/// One evaluation's hold on shared state: the in-flight claim on the
/// frame it scores and, for a detached job, its `pending` slot in the
/// pool. Dropped without [`JobGuard::publish`] (the system or a
/// transform panicked), it clears the claim and wakes the waiters, who
/// then score the frame themselves. It releases the pool slot either
/// way, so settling never waits for a job that died.
struct JobGuard<'g> {
    cache: &'g SharedCache,
    claimed: Option<u64>,
    pool: Option<&'g Pool>,
}

impl<'g> JobGuard<'g> {
    fn new(cache: &'g SharedCache, claimed: Option<u64>, pool: Option<&'g Pool>) -> Self {
        JobGuard {
            cache,
            claimed,
            pool,
        }
    }

    /// Record the claimed frame's score and release the claim.
    fn publish(&mut self, score: f64, speculative: bool) {
        if let Some(fp) = self.claimed.take() {
            self.cache.release(fp, Some((score, speculative)));
        }
    }

    /// Score `frame` on `system` into the cache as a speculative
    /// entry, unless some thread has scored or claimed it already.
    /// The evaluation count and latency go to the worker's `shard`.
    fn speculate(&mut self, system: &mut dyn System, frame: &DataFrame, shard: &MetricsShard) {
        let fp = fingerprint(frame);
        if !self.cache.try_claim(fp) {
            return;
        }
        self.claimed = Some(fp);
        let start = Instant::now();
        let score = sanitize(system.malfunction(frame));
        shard.record(start.elapsed().as_nanos() as u64);
        self.publish(score, true);
    }
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if let Some(fp) = self.claimed.take() {
            self.cache.release(fp, None);
        }
        if let Some(pool) = self.pool {
            let mut state = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            state.pending -= 1;
            if state.pending == 0 {
                pool.idle.notify_all();
            }
        }
    }
}

/// The detached-job pool shared between an [`Oracle`] and its
/// persistent background workers: a FIFO of owned jobs plus a count
/// of jobs enqueued or in flight, so the runtime can wait for
/// quiescence before reporting final cache counters.
struct Pool {
    state: Mutex<PoolState>,
    /// Signals workers that jobs arrived (or shutdown was requested).
    work: Condvar,
    /// Signals waiters that `pending` reached zero.
    idle: Condvar,
}

struct PoolState {
    queue: VecDeque<DetachedSpeculation>,
    /// Jobs enqueued or currently executing.
    pending: usize,
    shutdown: bool,
    /// High-water mark of `pending` over the pool's lifetime.
    peak_pending: usize,
    /// Queued jobs shed by backpressure (oldest first) when an
    /// enqueue would have pushed `pending` past the budget.
    shed: u64,
    /// Queued jobs discarded at settle/shutdown: the search
    /// terminated before any worker started them, so they cost
    /// nothing and are not waste.
    discarded: u64,
}

impl Pool {
    /// Queue `jobs` and wake the workers. Under a `budget`, apply hard
    /// backpressure: shed the *oldest* queued frames until in-flight
    /// work fits the budget again. Oldest frames belong to the
    /// shallowest (soonest-replayed) part of the frontier — the frames
    /// the serial replay is most likely to reach before a worker
    /// would, so shedding them costs the least cache warming. Jobs a
    /// worker already started cannot be shed, so `pending` is bounded
    /// by budget + worker count.
    fn enqueue(&self, jobs: Vec<DetachedSpeculation>, budget: Option<usize>) {
        let mut state = self.state.lock().expect("pool lock");
        state.pending += jobs.len();
        state.queue.extend(jobs);
        if let Some(budget) = budget {
            while state.pending > budget {
                let Some(_dropped) = state.queue.pop_front() else {
                    break;
                };
                state.pending -= 1;
                state.shed += 1;
            }
        }
        state.peak_pending = state.peak_pending.max(state.pending);
        drop(state);
        self.work.notify_all();
    }
}

/// Where a runtime gets the systems it runs.
pub(crate) enum Source<'a> {
    /// The caller's own instance. The runtime runs at width 1 on it
    /// and never builds another.
    Borrowed(&'a mut dyn System),
    /// Builds one instance per worker thread, on first use.
    Factory(&'a dyn SystemFactory),
}

impl Source<'_> {
    /// The system the calling thread scores on: the borrowed instance,
    /// or the first of the factory's sync `workers`.
    fn primary<'s>(
        &'s mut self,
        workers: &'s mut Vec<Box<dyn System + Send>>,
    ) -> &'s mut dyn System {
        match self {
            Source::Borrowed(system) => &mut **system,
            Source::Factory(factory) => {
                if workers.is_empty() {
                    workers.push(factory.build());
                }
                workers[0].as_mut()
            }
        }
    }
}

/// The intervention runtime: charges, caches and (optionally) samples
/// every oracle query of a diagnosis, and at width > 1 scores
/// speculation batches on `num_threads` sync workers (one independent
/// [`System`] instance each, built lazily from the factory) into a
/// shared fingerprint cache. Detached lookahead jobs
/// ([`Oracle::speculate_detached`]) run on a persistent background
/// pool of another `num_threads` workers that outlives individual
/// calls, overlapping with the charged replay.
///
/// At width 1 — a borrowed system, or a factory with
/// `num_threads ≤ 1` — speculation degenerates to serial
/// materialization with no pre-scoring and no pool: a true serial
/// run.
pub struct Oracle<'a> {
    source: Source<'a>,
    /// Factory-built sync workers; the first also scores the calling
    /// thread's own queries. Always empty for a borrowed system.
    workers: Vec<Box<dyn System + Send>>,
    /// Acceptable-malfunction threshold `τ`.
    pub threshold: f64,
    /// Interventions performed. Every [`Oracle::intervene`] query
    /// counts — even when the content cache spares the recomputation
    /// — because an intervention is the *act of asking the oracle*
    /// about a transformed dataset (the metric of the paper's Fig 7
    /// and Fig 9). Only the two problem-input baselines are free.
    /// Invariant under the thread count.
    pub interventions: usize,
    /// Hard cap; exceeding it surfaces as
    /// [`crate::PrismError::BudgetExhausted`] in the algorithms.
    pub budget: usize,
    num_threads: usize,
    /// How the speculation executor schedules lookahead (static
    /// fixed-depth or the adaptive latency-driven controller).
    speculation: SpeculationMode,
    /// Caller-configured in-flight frame bound
    /// (`PrismConfig::speculation_budget`); `None` falls back to the
    /// mode's default (unbounded for Static, derived for Adaptive).
    budget_override: Option<usize>,
    hits: usize,
    misses: usize,
    warm_hits: u64,
    baseline_queries: u64,
    speculative_issued: u64,
    speculative_used: u64,
    query_latency: LatencyHistogram,
    last: QueryStat,
    /// One shard per sync-speculation worker slot (same index as
    /// `workers`), bumped lock-free on the worker's query path.
    sync_shards: Vec<Arc<MetricsShard>>,
    /// One shard per detached-pool worker.
    pool_shards: Vec<Arc<MetricsShard>>,
    cache: Arc<SharedCache>,
    free: HashSet<u64>,
    /// Fingerprints seeded from a cross-run [`ScoreCache`] before the
    /// run started, for [`RunMetrics::warm_hits`] accounting. Seeded
    /// entries never enter `unconsumed`: a warm start is not
    /// speculation and must not read as speculative waste.
    warm: HashSet<u64>,
    /// The confidence-bounded sampled decision procedure (inert under
    /// [`OracleSampling::Off`], the default). Sample probes are
    /// scored synchronously on the primary system; on parallel runs
    /// speculation usually pre-scores candidate frames into the
    /// shared cache first, making the sampler mostly a no-op there.
    sampling: SampledDecider,
    pool: Option<Arc<Pool>>,
    pool_workers: Vec<pool_thread::JoinHandle<()>>,
}

impl<'a> Oracle<'a> {
    /// Wrap the caller's `system` with threshold `τ` and an
    /// intervention budget. Runs at width 1: every frame is scored on
    /// `system` by the calling thread when it is charged.
    pub fn new(system: &'a mut dyn System, threshold: f64, budget: usize) -> Self {
        Oracle::from_source(Source::Borrowed(system), threshold, budget, 1)
    }

    /// Wrap a system factory with threshold `τ`, an intervention
    /// budget, and a worker count.
    pub fn parallel(
        factory: &'a dyn SystemFactory,
        threshold: f64,
        budget: usize,
        num_threads: usize,
    ) -> Self {
        Oracle::from_source(Source::Factory(factory), threshold, budget, num_threads)
    }

    /// A runtime over `source`; a borrowed system always runs at
    /// width 1.
    pub(crate) fn from_source(
        source: Source<'a>,
        threshold: f64,
        budget: usize,
        num_threads: usize,
    ) -> Self {
        let num_threads = match source {
            Source::Borrowed(_) => 1,
            Source::Factory(_) => num_threads.max(1),
        };
        Oracle {
            source,
            workers: Vec::new(),
            threshold,
            interventions: 0,
            budget,
            num_threads,
            speculation: SpeculationMode::Static,
            budget_override: None,
            hits: 0,
            misses: 0,
            warm_hits: 0,
            baseline_queries: 0,
            speculative_issued: 0,
            speculative_used: 0,
            query_latency: LatencyHistogram::default(),
            last: QueryStat::default(),
            sync_shards: Vec::new(),
            pool_shards: Vec::new(),
            cache: Arc::new(SharedCache::new()),
            free: HashSet::new(),
            warm: HashSet::new(),
            sampling: SampledDecider::new(OracleSampling::Off, 0),
            pool: None,
            pool_workers: Vec::new(),
        }
    }

    /// Configure the sampled decision procedure (see
    /// [`crate::PrismConfig::oracle_sampling`]); `seed` keys the
    /// per-dataset sample streams. Returns `self` for chaining.
    pub fn with_sampling(mut self, mode: OracleSampling, seed: u64) -> Self {
        self.sampling = SampledDecider::new(mode, seed);
        self
    }

    /// Configure the speculation executor: the scheduling mode and an
    /// optional in-flight frame budget (see
    /// [`crate::PrismConfig::speculation`] and
    /// [`crate::PrismConfig::speculation_budget`]). Call before the
    /// first speculation; returns `self` for chaining.
    pub fn with_speculation(mut self, mode: SpeculationMode, budget: Option<usize>) -> Self {
        self.speculation = mode;
        self.budget_override = budget;
        self
    }

    /// Seed the fingerprint cache from a cross-run [`ScoreCache`]
    /// (trace replay, snapshot, or a server-resident cache). Seeded
    /// entries behave exactly like scores the run computed itself —
    /// systems are deterministic, so the charged query sequence and
    /// every result stay bit-for-bit identical to a cold run — but
    /// they are *not* marked unconsumed (a warm start is not
    /// speculation, so an unqueried seed is not waste), and charged
    /// queries they answer are counted as [`RunMetrics::warm_hits`].
    ///
    /// A seed outside `[0, 1]` (NaN included) cannot be a score this
    /// runtime computed, so it is skipped and its frame is scored
    /// cold. Call before the first query; returns `self` for chaining.
    pub fn with_warm_cache(mut self, warm: &ScoreCache) -> Self {
        let mut shared = self.cache.lock();
        // One allocation for the whole seed set: growing it entry by
        // entry left freed blocks behind that slowed the daemon's later
        // `ingest` requests by about 6% (perfbench serve_warm).
        self.warm.reserve(warm.len());
        for (fp, score) in warm.iter() {
            if (0.0..=1.0).contains(&score) {
                shared.map.insert(fp, score);
                self.warm.insert(fp);
            }
        }
        drop(shared);
        self
    }

    /// The in-flight frame bound actually in force: the caller's
    /// override if set, otherwise unbounded in Static mode and
    /// `8 × num_threads` (min 32) in Adaptive mode — enough frames to
    /// keep every worker busy several waves ahead without letting a
    /// slow oracle pile up unbounded work.
    pub fn effective_budget(&self) -> Option<usize> {
        match (self.budget_override, self.speculation) {
            (Some(b), _) => Some(b.max(1)),
            (None, SpeculationMode::Adaptive) => Some((8 * self.num_threads).max(32)),
            (None, SpeculationMode::Static) => None,
        }
    }

    /// Snapshot the shared fingerprint cache (seeded, charged, and
    /// speculative entries alike) into a cross-run [`ScoreCache`],
    /// after settling in-flight background speculation so the export
    /// is a quiescent, complete view.
    pub fn export_cache(&self) -> ScoreCache {
        self.settle_pool();
        let shared = self.cache.lock();
        let mut out = ScoreCache::new();
        for (&fp, &score) in &shared.map {
            out.insert(fp, score);
        }
        out
    }

    /// The factory, when this runtime scores frames ahead on more than
    /// one thread. `None` means width 1: frames are only materialized,
    /// and each is scored when it is charged.
    fn pool_factory(&self) -> Option<&'a dyn SystemFactory> {
        match self.source {
            Source::Factory(factory) if self.num_threads > 1 => Some(factory),
            _ => None,
        }
    }

    /// Spawn the persistent background pool on first use. Each worker
    /// owns its own [`System`] instance (built here, on the calling
    /// thread) and loops: pop a detached job, materialize it, score
    /// the frame into the shared cache unless some other thread has
    /// scored or claimed it, signal idle when the queue drains.
    fn ensure_pool(&mut self, factory: &dyn SystemFactory) -> Arc<Pool> {
        if let Some(pool) = &self.pool {
            return Arc::clone(pool);
        }
        let pool = Arc::new(Pool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                pending: 0,
                shutdown: false,
                peak_pending: 0,
                shed: 0,
                discarded: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        for _ in 0..self.num_threads {
            let mut system = factory.build();
            let pool_ref = Arc::clone(&pool);
            let cache = Arc::clone(&self.cache);
            let shard = Arc::new(MetricsShard::default());
            self.pool_shards.push(Arc::clone(&shard));
            self.pool_workers.push(pool_thread::spawn(move || loop {
                let job = {
                    let mut state = pool_ref.state.lock().expect("pool lock");
                    loop {
                        if let Some(job) = state.queue.pop_front() {
                            break Some(job);
                        }
                        if state.shutdown {
                            break None;
                        }
                        state = pool_ref.work.wait(state).expect("pool lock");
                    }
                };
                let Some(mut job) = job else { return };
                let mut guard = JobGuard::new(&cache, None, Some(&pool_ref));
                let refs: Vec<&Pvt> = job.pvts.iter().collect();
                if let Ok((frame, _)) = apply_composition(&refs, &job.base, &mut job.rng) {
                    guard.speculate(system.as_mut(), &frame, &shard);
                }
            }));
        }
        self.pool = Some(Arc::clone(&pool));
        pool
    }

    /// Discard detached jobs nobody started yet (the replay is past
    /// the point of consuming them) and wait for the in-flight rest
    /// to finish, so cache counters are read at quiescence. Discarded
    /// jobs are counted ([`RunMetrics::speculative_discarded`]) but
    /// are **not** waste — no worker ever evaluated them.
    fn settle_pool(&self) {
        if let Some(pool) = &self.pool {
            let mut state = pool.state.lock().expect("pool lock");
            let dropped = state.queue.len();
            state.queue.clear();
            state.pending -= dropped;
            state.discarded += dropped as u64;
            while state.pending > 0 {
                state = pool.idle.wait(state).expect("pool lock");
            }
        }
    }

    /// Score `df` (fingerprint `fp`) through the shared cache on the
    /// primary system. A frame a worker is still scoring is waited
    /// for, never scored twice. Only a `charged` query counts as a
    /// cache hit or miss: re-asking a free baseline is neither.
    fn query(&mut self, fp: u64, df: &DataFrame, charged: bool) -> f64 {
        let (score, cached, speculative_hit, latency_ns) = match self.cache.lookup_or_claim(fp) {
            Lookup::Scored { score, speculative } => {
                // Consuming a speculatively scored frame retires it
                // from the waste set — the lookahead guessed right.
                if speculative {
                    self.speculative_used += 1;
                }
                if charged {
                    self.hits += 1;
                    if self.warm.contains(&fp) {
                        self.warm_hits += 1;
                    }
                }
                (score, true, speculative, None)
            }
            Lookup::Claimed => {
                if charged {
                    self.misses += 1;
                }
                let mut guard = JobGuard::new(&self.cache, Some(fp), None);
                let system = self.source.primary(&mut self.workers);
                let start = Instant::now();
                let score = sanitize(system.malfunction(df));
                let latency_ns = start.elapsed().as_nanos() as u64;
                guard.publish(score, false);
                // Baselines are free but their evaluations are real
                // latency samples — often the only ones the adaptive
                // controller has before the first cold node.
                self.query_latency.record(latency_ns);
                (score, false, false, Some(latency_ns))
            }
        };
        self.last = QueryStat {
            fingerprint: fp,
            cached,
            speculative_hit,
            latency_ns,
        };
        score
    }

    /// Materialize `jobs` and score them concurrently on up to
    /// `num_threads` sync workers built by `factory`, one result per
    /// job in job order.
    fn score_batch(
        &mut self,
        factory: &dyn SystemFactory,
        jobs: Vec<Speculation<'_>>,
    ) -> Vec<Result<Speculated>> {
        let n_jobs = jobs.len();
        let n_workers = self.num_threads.min(n_jobs);
        while self.workers.len() < n_workers {
            self.workers.push(factory.build());
        }
        while self.sync_shards.len() < n_workers {
            self.sync_shards.push(Arc::new(MetricsShard::default()));
        }
        // Index-tagged pop queue (reversed so workers drain in job
        // order) and one result slot per job; plain `Mutex` state
        // keeps the crate `forbid(unsafe_code)`-clean.
        let queue: Mutex<Vec<(usize, Speculation<'_>)>> =
            Mutex::new(jobs.into_iter().enumerate().rev().collect());
        let results: Vec<Mutex<Option<Result<Speculated>>>> =
            (0..n_jobs).map(|_| Mutex::new(None)).collect();
        let cache = &*self.cache;
        let queue_ref = &queue;
        let results_ref = &results;
        std::thread::scope(|scope| {
            for (worker, shard) in self
                .workers
                .iter_mut()
                .zip(self.sync_shards.iter())
                .take(n_workers)
            {
                scope.spawn(move || loop {
                    let job = queue_ref.lock().expect("queue lock").pop();
                    let Some((idx, job)) = job else { break };
                    let mut guard = JobGuard::new(cache, None, None);
                    let out = materialize(job);
                    if let Ok(speculated) = &out {
                        guard.speculate(worker.as_mut(), &speculated.frame, shard);
                    }
                    *results_ref[idx].lock().expect("result lock") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result lock")
                    .expect("every queued job produces a result")
            })
            .collect()
    }

    /// Mean observed cold-query latency so far: the main thread's
    /// charged-miss histogram merged with every worker shard's
    /// speculative evaluations. `None` before the first sample.
    fn observed_mean_query_ns(&self) -> Option<u64> {
        let mut merged = self.query_latency;
        for shard in self.sync_shards.iter().chain(self.pool_shards.iter()) {
            merged.merge(&shard.snapshot());
        }
        (merged.count > 0).then(|| merged.mean_ns())
    }

    /// Malfunction score of a *baseline* dataset (`D_pass`/`D_fail`
    /// as given). Never counted as an intervention — the problem
    /// definition assumes these two scores are known — and future
    /// queries of the identical dataset stay free.
    pub fn baseline(&mut self, df: &DataFrame) -> f64 {
        let fp = fingerprint(df);
        self.free.insert(fp);
        self.baseline_queries += 1;
        // Baselines never count toward the hit/miss split.
        self.query(fp, df, false)
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
        self.query(fp, df, charged)
    }

    /// Decide whether `df` passes at τ, charging one intervention.
    ///
    /// With sampling off (the default) this is exactly
    /// [`Oracle::intervene`] plus [`Oracle::passes`], and the exact
    /// score is always returned. Under [`OracleSampling::Bounded`],
    /// an uncached query may instead be settled as a confident FAIL
    /// on stratified row samples; those return `(false, None)`
    /// without ever scoring the full dataset. Decisions that pass —
    /// or sit inside the confidence band of τ — escalate to a full
    /// evaluation, so a returned score is exact.
    pub fn decide(&mut self, df: &DataFrame) -> (bool, Option<f64>) {
        let fp = fingerprint(df);
        let settled = if self.free.contains(&fp) || self.cache.known(fp) {
            // The exact score is free, or speculation (or a warm
            // start) already paid — or is paying — for it: consume it
            // through the normal charged path so hit/waste accounting
            // stays truthful.
            None
        } else {
            let threshold = self.threshold;
            let system = self.source.primary(&mut self.workers);
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

    /// Score a baseline and emit its [`OracleQuerySpan`].
    pub(crate) fn baseline_traced(&mut self, df: &DataFrame, tracer: &Tracer) -> f64 {
        let score = self.baseline(df);
        self.emit_query(QueryKind::Baseline, score, tracer);
        score
    }

    /// Charge one intervention and emit its [`OracleQuerySpan`].
    pub(crate) fn intervene_traced(&mut self, df: &DataFrame, tracer: &Tracer) -> f64 {
        let score = self.intervene(df);
        self.emit_query(QueryKind::Intervention, score, tracer);
        score
    }

    /// Decide one pass/fail verdict and emit its event: an
    /// [`OracleQuerySpan`] when the decision computed an exact score,
    /// an [`Event::SampledQuery`] when it settled on a sample.
    pub(crate) fn decide_traced(&mut self, df: &DataFrame, tracer: &Tracer) -> (bool, Option<f64>) {
        let (passes, score) = self.decide(df);
        match score {
            Some(score) => self.emit_query(QueryKind::Intervention, score, tracer),
            None => {
                if let Some(span) = self.sampling.last {
                    tracer.emit(|| Event::SampledQuery(span));
                }
            }
        }
        (passes, score)
    }

    /// Emit the [`OracleQuerySpan`] of the most recent query.
    fn emit_query(&self, kind: QueryKind, score: f64, tracer: &Tracer) {
        let q = self.last;
        tracer.emit(|| {
            Event::OracleQuery(OracleQuerySpan {
                kind,
                fingerprint: q.fingerprint,
                score,
                cached: q.cached,
                speculative_hit: q.speculative_hit,
                latency_ns: q.latency_ns,
            })
        });
    }

    /// The sampled-decision record of the most recent
    /// [`Oracle::decide`] that settled without an exact score, for
    /// span emission.
    pub fn last_sampled_query(&self) -> Option<SampledQuerySpan> {
        self.sampling.last
    }

    /// Materialize the given candidate datasets and, at width > 1,
    /// score them into the fingerprint cache without charging
    /// interventions.
    pub fn speculate(&mut self, jobs: Vec<Speculation<'_>>) -> Result<Vec<Speculated>> {
        match self.pool_factory() {
            Some(factory) if jobs.len() > 1 => {
                self.speculative_issued += jobs.len() as u64;
                self.score_batch(factory, jobs).into_iter().collect()
            }
            // Width 1 (or nothing to overlap): materialize only, never
            // pre-score — exactly the work of a serial run.
            _ => jobs.into_iter().map(materialize).collect(),
        }
    }

    /// Queue owned cache-warming jobs to run **asynchronously**: the
    /// call returns immediately and worker threads materialize and
    /// score the jobs while the caller keeps replaying its serial
    /// decisions. A worker skips a frame that is already scored or
    /// being scored, and a charged query of a frame a worker is still
    /// scoring waits for that score rather than scoring it again. At
    /// width 1 the jobs are dropped unexecuted — a serial run would
    /// never have asked.
    pub fn speculate_detached(&mut self, jobs: Vec<DetachedSpeculation>) {
        let Some(factory) = self.pool_factory() else {
            return;
        };
        if jobs.is_empty() {
            return;
        }
        self.speculative_issued += jobs.len() as u64;
        let budget = self.effective_budget();
        self.ensure_pool(factory).enqueue(jobs, budget);
    }

    /// Score the opening of a diagnosis as one batch: both baselines
    /// (`[D_pass, D_fail]`, never charged) and `first`, the
    /// algorithm's first charged frames. Returns one materialization
    /// result per `first` job, in order. Nothing is charged: the
    /// caller then validates the baselines and charges the frames in
    /// serial order, and each query finds its score in the cache.
    ///
    /// The baselines go to the detached pool as owned copies and
    /// `first` to the sync workers, so the whole opening is scored at
    /// once on the instances the runtime already owns. The opening is
    /// never shed: the replay consumes all of it. At width 1 this only
    /// materializes `first`, and every query scores its own frame.
    pub fn score_opening(
        &mut self,
        baselines: [&DataFrame; 2],
        first: Vec<Speculation<'_>>,
    ) -> Vec<Result<Speculated>> {
        let Some(factory) = self.pool_factory() else {
            return first.into_iter().map(materialize).collect();
        };
        let jobs: Vec<DetachedSpeculation> = baselines
            .into_iter()
            .map(|df| DetachedSpeculation {
                pvts: Vec::new(),
                base: Arc::new(df.clone()),
                rng: StdRng::seed_from_u64(0),
            })
            .collect();
        self.speculative_issued += (jobs.len() + first.len()) as u64;
        self.ensure_pool(factory).enqueue(jobs, None);
        self.score_batch(factory, first)
    }

    /// How many candidates per batch are worth planning ahead (1 ⇒
    /// don't speculate: plan lazily exactly as the serial algorithm
    /// would).
    pub fn speculation_width(&self) -> usize {
        self.num_threads
    }

    /// Decide how deep to speculate at one cold group-testing node,
    /// given the configured cap. Never exceeds `cap`, and never
    /// affects charged queries (the plan only steers cache warming).
    /// In Static mode this returns the cap unchanged. In Adaptive mode
    /// the controller reads only *observed* state — the merged latency
    /// histograms and the live waste counters — and picks a depth
    /// within the cap:
    ///
    /// - no latency sample yet → a conservative depth 1 (the first
    ///   cold node runs before any charged miss, but baselines have
    ///   usually recorded by then);
    /// - mean query < 100 µs → depth 0 (scoring overhead rivals the
    ///   query itself; only the node's own halves overlap);
    /// - < 1 ms → depth 1; ≥ 1 ms → depth 2. Deeper never pays: a
    ///   depth-d frontier plans 2^(d+2)−2 frames of which the replay
    ///   path consumes ~2 per level, and because every cold child
    ///   re-plans its own frontier, shallow planning already keeps the
    ///   pipeline one step ahead — extra depth only parks wasted
    ///   frames in front of the next node's useful ones (measured:
    ///   static depth 1–2 beats depth 4 on both gate workloads at
    ///   10 ms/query);
    /// - waste guard: until 16 speculative evaluations have completed
    ///   the plan stays within depth 1 (escalate on evidence, not
    ///   hope); after that, under two-fifths consumed backs the depth
    ///   off one level (a fully-consumed depth-2 pipeline sits at
    ///   ~0.43, so 0.4 fires exactly when depth 2 stops paying for
    ///   itself);
    /// - headroom clamp: the planned frontier (at most 2^(depth+2)−2
    ///   frames) must fit the budget slots still free. Over-issuing
    ///   would immediately shed the *previous* node's oldest frames —
    ///   the ones the serial replay consumes next — converting cache
    ///   warming into pure waste.
    pub fn plan_speculation_depth(&mut self, cap: usize) -> SpeculationPlan {
        let budget = self.effective_budget();
        if self.speculation == SpeculationMode::Static {
            return SpeculationPlan {
                cap,
                depth: cap,
                budget,
                mean_query_ns: None,
            };
        }
        let mean_query_ns = self.observed_mean_query_ns();
        let mut depth = match mean_query_ns {
            None => cap.min(1),
            Some(ns) if ns < 100_000 => 0,
            Some(ns) if ns < 1_000_000 => cap.min(1),
            Some(_) => cap.min(2),
        };
        let evaluated: u64 = self
            .sync_shards
            .iter()
            .chain(self.pool_shards.iter())
            .map(|s| s.evaluated())
            .sum();
        if evaluated < 16 {
            // No consumption track record yet: stay within one level
            // until the pipeline has proven shallow frames get used.
            depth = depth.min(1);
        } else if self.speculative_used * 5 < evaluated * 2 {
            depth = depth.saturating_sub(1);
        }
        if let Some(budget) = budget {
            let pending = match &self.pool {
                Some(pool) => pool.state.lock().expect("pool lock").pending,
                None => 0,
            };
            let headroom = budget.saturating_sub(pending);
            while depth > 0 && frontier_frames(depth) > headroom {
                depth -= 1;
            }
        }
        SpeculationPlan {
            cap,
            depth,
            budget,
            mean_query_ns,
        }
    }

    /// Whether a score is acceptable (`m ≤ τ`).
    pub fn passes(&self, score: f64) -> bool {
        score <= self.threshold
    }

    /// Whether the intervention budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.interventions >= self.budget
    }

    /// Full run metrics accumulated so far, after settling background
    /// speculation and folding in every worker shard.
    pub fn run_metrics(&self) -> RunMetrics {
        self.settle_pool();
        let (shed, discarded, peak) = match &self.pool {
            Some(pool) => {
                let state = pool.state.lock().expect("pool lock");
                (state.shed, state.discarded, state.peak_pending as u64)
            }
            None => (0, 0, 0),
        };
        let mut metrics = RunMetrics {
            baseline_queries: self.baseline_queries,
            charged_queries: self.interventions as u64,
            cache_hits: self.hits as u64,
            cache_misses: self.misses as u64,
            warm_hits: self.warm_hits,
            speculative_issued: self.speculative_issued,
            speculative_used: self.speculative_used,
            speculative_wasted: self.cache.lock().unconsumed.len() as u64,
            speculative_shed: shed,
            speculative_discarded: discarded,
            peak_inflight: peak,
            sampled_queries: self.sampling.sampled_queries,
            escalations: self.sampling.escalations,
            rows_touched: self.sampling.rows_touched,
            query_latency: self.query_latency,
            ..RunMetrics::default()
        };
        for shard in self.sync_shards.iter().chain(self.pool_shards.iter()) {
            metrics.merge_worker(shard);
        }
        metrics
    }

    /// Cache behaviour of the most recent `baseline`/`intervene`
    /// query, for span emission.
    pub fn last_query(&self) -> QueryStat {
        self.last
    }

    /// Name of the system under diagnosis. A factory names a probe
    /// instance; a borrowed system names itself.
    pub fn system_name(&self) -> String {
        match &self.source {
            Source::Borrowed(system) => system.name().to_string(),
            Source::Factory(factory) => factory.name(),
        }
    }
}

impl Drop for Oracle<'_> {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            let mut state = pool.state.lock().expect("pool lock");
            state.shutdown = true;
            let dropped = state.queue.len();
            state.pending -= dropped;
            state.discarded += dropped as u64;
            state.queue.clear();
            if state.pending == 0 {
                pool.idle.notify_all();
            }
            drop(state);
            pool.work.notify_all();
        }
        for handle in self.pool_workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Map `f` over `items` on up to `num_threads` scoped worker threads,
/// preserving item order in the output. With `num_threads ≤ 1` (or a
/// single item) this is a plain serial map, so results are identical
/// for any thread count as long as `f` is pure.
///
/// This is the fan-out primitive behind parallel discovery — per
/// attribute, per attribute pair, and per frame for the pre-filter
/// sketches — and is public so benchmarks and downstream harnesses
/// can reuse it for deterministic data-parallel work.
pub fn par_map<T, R, F>(items: Vec<T>, num_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if num_threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let queue_ref = &queue;
    let results_ref = &results;
    let f_ref = &f;
    std::thread::scope(|scope| {
        for _ in 0..num_threads.min(n) {
            scope.spawn(move || loop {
                let item = queue_ref.lock().expect("queue lock").pop();
                let Some((idx, item)) = item else { break };
                *results_ref[idx].lock().expect("result lock") = Some(f_ref(item));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result lock")
                .expect("every item produces a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::Column;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let m = oracle.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (1, 2));
        assert_eq!(m.charged_queries, 3);
        drop(oracle);
        assert_eq!(calls, 2, "system invoked once per unique dataset");
    }

    #[test]
    fn baselines_stay_free_on_both_sources() {
        let mut system = |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        for mut rt in [
            Oracle::new(&mut system, 0.2, 100),
            Oracle::parallel(&factory, 0.2, 100, 4),
        ] {
            let base = df(&[1]);
            rt.baseline(&base);
            assert_eq!(rt.interventions, 0);
            // Re-querying the exact baseline dataset stays free, and
            // is neither a hit nor a miss.
            rt.intervene(&base);
            assert_eq!(rt.interventions, 0, "baseline stays free forever");
            rt.intervene(&df(&[1, 2, 3]));
            rt.intervene(&df(&[1, 2, 3]));
            assert_eq!(rt.interventions, 2, "repeat queries are each charged");
            let m = rt.run_metrics();
            assert_eq!(m.cache_hits + m.cache_misses, m.charged_queries);
            assert!(rt.passes(0.2) && !rt.passes(0.21));
            assert!(!rt.exhausted());
        }
    }

    #[test]
    fn cold_baseline_records_a_latency_sample() {
        // Regression: a cold-baseline path that skips
        // `query_latency.record` loses the first — often only —
        // latency sample of a fresh system, and the adaptive
        // speculation controller reaches the first cold node blind.
        let mut system = |_: &DataFrame| 0.9;
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        for mut rt in [
            Oracle::new(&mut system, 0.2, 100),
            Oracle::parallel(&factory, 0.2, 100, 4),
        ] {
            rt.baseline(&df(&[1, 2, 3]));
            let before = rt.run_metrics().query_latency.count;
            assert!(before >= 1, "cold baseline must record a latency");
            assert!(rt.last_query().latency_ns.is_some());
            // A cached repeat adds no sample and reports no latency at
            // all — hits must never skew the mean query cost.
            rt.baseline(&df(&[1, 2, 3]));
            assert_eq!(rt.run_metrics().query_latency.count, before);
            assert_eq!(rt.last_query().latency_ns, None);
        }
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

    #[test]
    fn out_of_range_warm_seeds_are_scored_cold() {
        // A restored snapshot or replayed trace may carry any bit
        // pattern. Seeds the runtime could never have computed must
        // not answer a query: a seeded −1.0 would read as a pass.
        let mut calls = 0usize;
        let mut system = |_: &DataFrame| {
            calls += 1;
            0.5
        };
        let (neg, nan, good) = (df(&[1]), df(&[2]), df(&[3]));
        let mut warm = ScoreCache::new();
        warm.insert(fingerprint(&neg), -1.0);
        warm.insert(fingerprint(&nan), f64::NAN);
        warm.insert(fingerprint(&good), 0.25);
        let mut oracle = Oracle::new(&mut system, 0.2, 100).with_warm_cache(&warm);
        assert_eq!(oracle.intervene(&neg), 0.5);
        assert_eq!(oracle.intervene(&nan), 0.5);
        assert_eq!(oracle.intervene(&good), 0.25);
        let m = oracle.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses, m.warm_hits), (1, 2, 1));
        drop(oracle);
        assert_eq!(calls, 2, "both bad seeds were scored by the system");
    }

    #[test]
    fn speculation_is_never_charged() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 4);
        let frames: Vec<DataFrame> = (0..8).map(|i| df(&[i, i + 1])).collect();
        let jobs: Vec<Speculation<'_>> = frames
            .iter()
            .map(|f| Speculation::Ready(f.clone()))
            .collect();
        let out = rt.speculate(jobs).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(rt.interventions, 0, "speculation is free");
        let m = rt.run_metrics();
        assert_eq!(m.speculative_evaluated, 8, "all eight scored by workers");
        // A later charged query of a speculated frame is a cache hit.
        rt.intervene(&frames[3]);
        assert_eq!(rt.interventions, 1);
        let m = rt.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (1, 0));
    }

    #[test]
    fn width_one_materializes_without_scoring() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let factory = move || {
            let c = Arc::clone(&c2);
            move |_: &DataFrame| {
                c.fetch_add(1, Ordering::SeqCst);
                0.5
            }
        };
        let c3 = Arc::clone(&counter);
        let mut system = move |_: &DataFrame| {
            c3.fetch_add(1, Ordering::SeqCst);
            0.5
        };
        for mut rt in [
            Oracle::parallel(&factory, 0.2, 100, 1),
            Oracle::new(&mut system, 0.2, 100),
        ] {
            let jobs = vec![
                Speculation::Ready(df(&[1])),
                Speculation::Ready(df(&[2])),
                Speculation::Ready(df(&[3])),
            ];
            assert_eq!(rt.speculate(jobs).unwrap().len(), 3);
            // Detached jobs are dropped unexecuted; no pool starts.
            rt.speculate_detached(vec![detached(&df(&[4]))]);
            assert!(rt.pool.is_none());
            assert_eq!(
                counter.load(Ordering::SeqCst),
                0,
                "width 1 must not run the system ahead"
            );
            let m = rt.run_metrics();
            assert_eq!((m.speculative_issued, m.speculative_evaluated), (0, 0));
        }
    }

    #[test]
    fn a_borrowed_system_never_builds_a_probe_instance() {
        struct Named;
        impl System for Named {
            fn malfunction(&mut self, _: &DataFrame) -> f64 {
                0.0
            }
            fn name(&self) -> &str {
                "named"
            }
        }
        let mut system = Named;
        let rt =
            Oracle::new(&mut system, 0.2, 100).with_speculation(SpeculationMode::Adaptive, None);
        assert_eq!(rt.system_name(), "named");
        assert_eq!(rt.speculation_width(), 1);
        assert!(rt.workers.is_empty());
    }

    #[test]
    fn detached_jobs_score_into_the_cache_and_count_waste() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 4);
        let frames: Vec<DataFrame> = (0..4).map(|i| df(&[i, i + 1])).collect();
        // No PVTs to compose: each detached job materializes its base
        // frame unchanged and scores it in the background.
        rt.speculate_detached(frames.iter().map(detached).collect());
        assert_eq!(rt.interventions, 0, "detached speculation is free");
        // Wait for the pool to finish all four jobs before settling:
        // run_metrics() discards still-queued jobs (by design — the
        // replay is past consuming them), which this test is not
        // about.
        for _ in 0..1000 {
            let evaluated: u64 = rt.pool_shards.iter().map(|s| s.evaluated()).sum();
            if evaluated == 4 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let m = rt.run_metrics();
        assert_eq!(m.speculative_evaluated, 4);
        assert_eq!(m.speculative_wasted, 4);
        // Charged queries consume two of them (hits); the other two
        // remain waste.
        rt.intervene(&frames[0]);
        rt.intervene(&frames[2]);
        let m = rt.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (2, 0));
        assert_eq!(m.speculative_wasted, 2);
        assert_eq!(rt.interventions, 2);
    }

    #[test]
    fn drop_joins_the_pool_with_jobs_still_queued() {
        // Queue far more jobs than workers and drop immediately: Drop
        // must discard the unstarted tail, join cleanly, and never
        // deadlock or panic on the pending accounting.
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 2);
        rt.speculate_detached((0..64).map(|i| detached(&df(&[i, i + 1, i + 2]))).collect());
        drop(rt);
    }

    #[test]
    fn warm_seed_serves_queries_without_reading_as_waste() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&calls);
        let factory = move || {
            let c = Arc::clone(&c2);
            move |df: &DataFrame| {
                c.fetch_add(1, Ordering::SeqCst);
                df.n_rows() as f64 / 10.0
            }
        };
        let a = df(&[1]);
        let b = df(&[1, 2]);
        let mut warm = ScoreCache::new();
        warm.insert(fingerprint(&a), 0.1);
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 4).with_warm_cache(&warm);
        // Seeded entry answers the charged query: no evaluation, a
        // warm hit, still one charged intervention.
        assert_eq!(rt.intervene(&a).to_bits(), 0.1f64.to_bits());
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(rt.interventions, 1);
        rt.intervene(&b);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let m = rt.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses, m.warm_hits), (1, 1, 1));
        assert_eq!(
            m.speculative_wasted, 0,
            "unqueried seeds are not speculative waste"
        );
        // The export is a superset of the seed plus the new score.
        let out = rt.export_cache();
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(fingerprint(&a)), Some(0.1));
    }

    #[test]
    fn export_absorb_reimport_round_trip() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let frames: Vec<DataFrame> = (0..3).map(|i| df(&[i, i + 1])).collect();
        let mut cross_run = ScoreCache::new();
        {
            let mut rt = Oracle::parallel(&factory, 0.2, 100, 2);
            for f in &frames {
                rt.intervene(f);
            }
            cross_run.absorb(&rt.export_cache());
        }
        // Second run warm-started from the first: identical scores,
        // zero misses, all three queries warm.
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 2).with_warm_cache(&cross_run);
        for f in &frames {
            rt.intervene(f);
        }
        let m = rt.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses, m.warm_hits), (3, 0, 3));
        assert_eq!(m.charged_queries, 3, "charging is per-ask, cache or not");
    }

    #[test]
    fn backpressure_sheds_oldest_and_bounds_inflight() {
        // A slow oracle: each speculative evaluation blocks long
        // enough that the enqueue bursts outpace the workers.
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&calls);
        let factory = move || {
            let c = Arc::clone(&c2);
            move |df: &DataFrame| {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                df.n_rows() as f64 / 10.0
            }
        };
        let budget = 4usize;
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 2)
            .with_speculation(SpeculationMode::Adaptive, Some(budget));
        assert_eq!(rt.effective_budget(), Some(budget));
        // Three bursts of 8 jobs against a budget of 4: most of each
        // burst must be shed, and in-flight work must never exceed
        // budget + workers.
        for burst in 0..3 {
            rt.speculate_detached(
                (0..8)
                    .map(|i| detached(&df(&[burst * 100 + i, burst * 100 + i + 1])))
                    .collect(),
            );
        }
        let m = rt.run_metrics();
        assert_eq!(m.speculative_issued, 24);
        assert!(
            m.speculative_shed > 0,
            "a slow oracle under a budget of {budget} must shed: {m:?}"
        );
        assert!(
            m.peak_inflight <= (budget + 2) as u64,
            "peak in-flight {} exceeds budget {budget} + 2 workers",
            m.peak_inflight
        );
        // Conservation: every issued job was evaluated, shed, or
        // discarded at settle.
        assert_eq!(
            m.speculative_evaluated + m.speculative_shed + m.speculative_discarded,
            m.speculative_issued,
            "{m:?}"
        );
    }

    #[test]
    fn static_mode_without_budget_is_unbounded() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let rt = Oracle::parallel(&factory, 0.2, 100, 4);
        assert_eq!(rt.effective_budget(), None);
        let rt = Oracle::parallel(&factory, 0.2, 100, 4)
            .with_speculation(SpeculationMode::Adaptive, None);
        assert_eq!(
            rt.effective_budget(),
            Some(32),
            "adaptive mode derives a default bound"
        );
    }

    #[test]
    fn settle_after_termination_counts_discards_not_waste() {
        // Frames still queued when the search terminates (settle) were
        // never evaluated — they must be reported as
        // `speculative_discarded`, never as waste, and the pending
        // accounting must balance so settle cannot hang or underflow.
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&calls);
        let factory = move || {
            let c = Arc::clone(&c2);
            move |df: &DataFrame| {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(30));
                df.n_rows() as f64 / 10.0
            }
        };
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 2);
        rt.speculate_detached((0..32).map(|i| detached(&df(&[i, i + 1, i + 2]))).collect());
        // Settle immediately: the two workers have started at most a
        // couple of jobs; the rest of the queue must be discarded.
        let m = rt.run_metrics();
        assert_eq!(m.speculative_issued, 32);
        assert!(m.speculative_discarded > 0, "{m:?}");
        assert_eq!(
            m.speculative_evaluated + m.speculative_shed + m.speculative_discarded,
            32,
            "{m:?}"
        );
        // Waste counts only *evaluated-but-unconsumed* frames.
        assert_eq!(m.speculative_wasted, m.speculative_evaluated, "{m:?}");
        assert_eq!(
            calls.load(Ordering::SeqCst) as u64,
            m.speculative_evaluated,
            "discarded jobs must never have run the system"
        );
        // A second settle is stable (no double-discard of the same
        // jobs, no underflow).
        let again = rt.run_metrics();
        assert_eq!(again.speculative_discarded, m.speculative_discarded);
    }

    #[test]
    fn adaptive_plan_respects_cap_and_latency() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        // Static mode: the plan is always the cap.
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 4);
        assert_eq!(rt.plan_speculation_depth(3).depth, 3);
        // Adaptive, no samples yet: conservative depth 1.
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 4)
            .with_speculation(SpeculationMode::Adaptive, None);
        let plan = rt.plan_speculation_depth(4);
        assert_eq!(plan.depth, 1);
        assert_eq!(plan.cap, 4);
        assert_eq!(plan.mean_query_ns, None);
        // After observing sub-100µs queries: depth drops to 0 (the
        // in-process system is far cheaper than frame scoring).
        rt.baseline(&df(&[1]));
        rt.intervene(&df(&[1, 2]));
        let plan = rt.plan_speculation_depth(4);
        assert!(plan.mean_query_ns.is_some());
        if plan.mean_query_ns.unwrap() < 100_000 {
            assert_eq!(plan.depth, 0, "{plan:?}");
        }
        assert!(plan.depth <= plan.cap);

        // A slow oracle (≥ 1ms/query) tiers to depth 2, but without a
        // speculative consumption track record (< 16 evaluations) the
        // plan stays within depth 1 — escalate on evidence, not hope.
        let slow_factory = || {
            |df: &DataFrame| {
                std::thread::sleep(std::time::Duration::from_millis(11));
                df.n_rows() as f64 / 10.0
            }
        };
        let mut rt = Oracle::parallel(&slow_factory, 0.2, 100, 4)
            .with_speculation(SpeculationMode::Adaptive, None);
        rt.baseline(&df(&[1]));
        rt.intervene(&df(&[1, 2]));
        let plan = rt.plan_speculation_depth(4);
        assert!(plan.mean_query_ns.unwrap() >= 10_000_000);
        assert_eq!(plan.depth, 1, "no track record caps the plan at 1");
        assert_eq!(plan.budget, Some(32));

        // A tight budget override engages the headroom clamp: the
        // depth-1 frontier (6 frames) cannot fit 4 free slots, so
        // the plan steps down to depth 0.
        let mut rt = Oracle::parallel(&slow_factory, 0.2, 100, 4)
            .with_speculation(SpeculationMode::Adaptive, Some(4));
        rt.baseline(&df(&[1]));
        rt.intervene(&df(&[1, 2]));
        let plan = rt.plan_speculation_depth(4);
        assert_eq!(plan.budget, Some(4));
        assert_eq!(plan.depth, 0, "{plan:?}");
    }

    fn detached(frame: &DataFrame) -> DetachedSpeculation {
        DetachedSpeculation {
            pvts: Vec::new(),
            base: Arc::new(frame.clone()),
            rng: StdRng::seed_from_u64(0),
        }
    }

    #[test]
    fn charged_query_waits_for_the_pool_worker_scoring_its_frame() {
        use std::sync::mpsc;
        use std::sync::Mutex as StdMutex;
        // Evaluations counted per fingerprint, and a signal sent once
        // an evaluation has started (its frame is claimed by then).
        let evals: Arc<StdMutex<HashMap<u64, usize>>> = Arc::default();
        let (started_tx, started) = mpsc::channel::<()>();
        let (e2, tx) = (Arc::clone(&evals), StdMutex::new(started_tx));
        let factory = move || {
            let evals = Arc::clone(&e2);
            let tx = tx.lock().unwrap().clone();
            move |df: &DataFrame| {
                *evals.lock().unwrap().entry(fingerprint(df)).or_default() += 1;
                let _ = tx.send(());
                std::thread::sleep(std::time::Duration::from_millis(20));
                df.n_rows() as f64 / 10.0
            }
        };
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 2);
        let frame = df(&[1, 2, 3]);
        rt.speculate_detached(vec![detached(&frame)]);
        started.recv().unwrap();
        // The pool worker holds the frame: the charged query takes its
        // score instead of evaluating the frame a second time.
        assert_eq!(rt.intervene(&frame).to_bits(), 0.3f64.to_bits());
        let q = rt.last_query();
        assert!(q.cached && q.speculative_hit, "{q:?}");
        let m = rt.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (1, 0));
        assert_eq!((m.speculative_evaluated, m.speculative_used), (1, 1));
        let evals = evals.lock().unwrap();
        assert_eq!(
            *evals,
            HashMap::from([(fingerprint(&frame), 1)]),
            "one evaluation per fingerprint"
        );
    }

    #[test]
    fn opening_scores_baselines_and_first_frames_uncharged() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&calls);
        let factory = move || {
            let c = Arc::clone(&c2);
            move |df: &DataFrame| {
                c.fetch_add(1, Ordering::SeqCst);
                df.n_rows() as f64 / 10.0
            }
        };
        let (pass, fail, probe) = (df(&[1]), df(&[1, 2, 3, 4]), df(&[1, 2]));
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 2);
        let opened = rt.score_opening([&pass, &fail], vec![Speculation::Ready(probe.clone())]);
        assert_eq!(opened.len(), 1);
        assert_eq!(rt.interventions, 0, "the opening is free");
        // The replay finds every score in the cache.
        assert_eq!(rt.baseline(&pass).to_bits(), 0.1f64.to_bits());
        assert_eq!(rt.baseline(&fail).to_bits(), 0.4f64.to_bits());
        rt.intervene(&opened[0].as_ref().unwrap().frame);
        let m = rt.run_metrics();
        assert_eq!(calls.load(Ordering::SeqCst), 3, "each frame scored once");
        assert_eq!((m.charged_queries, m.cache_hits, m.cache_misses), (1, 1, 0));
        assert_eq!(m.speculative_wasted, 0);
        // Width 1 only materializes.
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 1);
        let opened = rt.score_opening([&pass, &fail], vec![Speculation::Ready(probe)]);
        assert_eq!(opened.len(), 1);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_panicking_pool_worker_cannot_wedge_settling() {
        use std::sync::atomic::AtomicBool;
        let poison = df(&[9, 9]);
        let poison_fp = fingerprint(&poison);
        let panicked = Arc::new(AtomicBool::new(false));
        let p2 = Arc::clone(&panicked);
        let factory = move || {
            let panicked = Arc::clone(&p2);
            move |df: &DataFrame| {
                if fingerprint(df) == poison_fp {
                    panicked.store(true, Ordering::SeqCst);
                    panic!("system fails on one frame");
                }
                df.n_rows() as f64 / 10.0
            }
        };
        let mut rt = Oracle::parallel(&factory, 0.2, 100, 2);
        rt.speculate_detached(vec![detached(&poison), detached(&df(&[1]))]);
        while !panicked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The dead job released its pending slot and its claim.
        let m = rt.run_metrics();
        assert!(m.speculative_evaluated <= 1, "{m:?}");
        // A later query scores the frame itself, and the panic recurs
        // on the caller as it would in a serial run.
        let again =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.intervene(&poison)));
        assert!(again.is_err());
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 8] {
            let out = par_map((0..100).collect::<Vec<i32>>(), threads, |x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
        }
    }
}
