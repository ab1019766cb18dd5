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
//! The runtime draws its systems from one of two [`Source`]s. A
//! borrowed `&mut dyn System` ([`Source::Borrowed`]) runs at width 1:
//! the calling thread scores each frame when it is charged, and no
//! worker or pool ever starts. A [`SystemFactory`]
//! ([`Source::Factory`]) builds one
//! instance per worker thread, and the runtime then overlaps the
//! expensive part of a search with its serial decisions.
//!
//! The paper's algorithms are strictly sequential: every decision
//! (keep a PVT, recurse into a partition) depends on the score of the
//! previous intervention. What *can* run concurrently is materializing
//! candidate datasets and running the system on them. The runtime
//! exploits that split with **speculation as cache warming**:
//!
//! 1. An algorithm plans the next few compositions a serial run
//!    *might* charge (under explicit hypotheses about its own
//!    decisions) as [`Intent`]s: transformations applied to a base
//!    frame on a derived RNG stream, whose result is a pure function
//!    of the base's fingerprint, the transformations and the stream
//!    seed.
//! 2. At width > 1 the runtime builds and scores them on worker
//!    threads, each holding its own [`System`] instance, into a
//!    shared, lock-guarded fingerprint cache. **No interventions are
//!    charged**, and no frame is handed back. At width 1 nothing runs
//!    ahead.
//! 3. The algorithm then replays its decisions exactly as a serial
//!    run would, charging interventions one by one through
//!    [`Oracle::intervene_apply`]; queries the speculation guessed
//!    right become cache hits. Candidates a serial run would never
//!    have reached are simply discarded.
//!
//! Speculation has three entry points. A diagnosis starts with one
//! concurrent batch, the **opening** ([`Oracle::open`]): the two free
//! baselines on the detached pool and the algorithm's first charged
//! intents on the sync workers, all scored at once before the replay
//! validates the inputs. [`Oracle::prescore`] is the synchronous batch
//! for the handful of intents the caller charges next (a greedy
//! window, a group-testing node's two halves, a Make-Minimal window):
//! it blocks until every one is scored. Deep group-testing lookahead
//! instead queues **detached** jobs ([`Oracle::speculate_detached`]):
//! fully owned [`DetachedSpeculation`]s drained FIFO by a persistent
//! background pool while the serial replay keeps running.
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
//! A charged intent need not be built to be scored. The shared cache
//! maps each intent key ([`crate::oracle::intent_key`]) to the
//! fingerprint of the frame it built — recorded by the replay and by
//! every worker, and seeded from a warm [`ScoreCache`] — so
//! [`Oracle::intervene_apply`] scores a known intent whose
//! fingerprint is scored without building its frame. The frame is
//! built only when the intent is unknown or its fingerprint has no
//! usable score, and speculation skips intents that already resolve.
//! A search builds on the calling thread ([`Oracle::build`]) only the
//! frames it carries forward, and a charged query that had to build
//! its frame hands it back ([`Applied::built`]), so no frame is built
//! twice. Charged queries, scores and trace spans
//! are the same either way; [`RunMetrics::frames_built`] and
//! [`RunMetrics::intent_hits`] show the work saved.
//!
//! Because all charging and all decisions flow through the charged
//! queries in serial order, explanations, malfunction scores, and
//! intervention counts are **bit-for-bit identical for any thread
//! count and any lookahead depth** (the paper's Fig 7/Fig 9 numbers
//! are preserved); only wall-clock time and the cache
//! hit/miss/speculation counters change. `tests/parallel_conformance.rs` pins this invariant across
//! every bundled scenario, `num_threads` in {1, 2, 8}, and
//! `gt_speculation_depth` in {0, 1, 2, 4}.

use crate::cache::ScoreCache;
use crate::error::Result;
use crate::oracle::{fingerprint, intent_key, System, SystemFactory};
use crate::pvt::{apply_composition, Pvt};
use dp_frame::DataFrame;
use dp_trace::{
    Event, LatencyHistogram, MetricsShard, OracleQuerySpan, QueryKind, QueryStat, RunMetrics,
    Tracer,
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

/// The outcome of a charged [`Oracle::intervene_apply`].
#[derive(Debug)]
pub struct Applied {
    /// The frame's malfunction score.
    pub score: f64,
    /// The frame, when the query had to build it (its intent was not
    /// known to the runtime); `None` when it was scored by intent key.
    pub built: Option<DataFrame>,
}

/// A composition a search may charge: the transformations of `pvts`,
/// in order, applied to `base` on the RNG stream
/// `StdRng::seed_from_u64(seed)`.
///
/// [`apply_composition`] is a pure function of these inputs, so the
/// intent's [`Intent::key`] names the frame it builds. The runtime
/// remembers the fingerprint behind every key it has built (or been
/// seeded with), and a charged query of a known intent
/// ([`Oracle::intervene_apply`]) is scored straight from the cache
/// without building the frame.
#[derive(Clone)]
pub struct Intent<'a> {
    /// Transformations to compose, in application order.
    pub pvts: Vec<&'a Pvt>,
    /// Dataset to transform.
    pub base: &'a DataFrame,
    /// [`fingerprint`] of `base`.
    pub base_fp: u64,
    /// Seed of the RNG stream the application consumes. Group testing
    /// and greedy derive it from the candidate id set, Make-Minimal
    /// fixes it per run, and a deterministic transformation never
    /// reads it.
    pub seed: u64,
}

impl Intent<'_> {
    /// The intent key ([`intent_key`]).
    pub fn key(&self) -> u64 {
        intent_key(
            self.base_fp,
            self.pvts.iter().map(|p| &p.transform),
            self.seed,
        )
    }

    /// Build the frame: apply the composition to the base.
    pub fn build(&self) -> Result<DataFrame> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        Ok(apply_composition(&self.pvts, self.base, &mut rng)?.0)
    }
}

/// A fully owned, fire-and-forget cache-warming job: the owned form of
/// an [`Intent`]. A worker builds the frame, records its fingerprint
/// under the intent key and scores it into the shared fingerprint
/// cache, unless the key already names a frame that is scored or being
/// scored.
///
/// Unlike an [`Intent`], nothing is borrowed: the group-testing
/// lookahead queues whole recursion-tree frontiers this way
/// ([`Oracle::speculate_detached`]) and keeps replaying while the pool
/// drains them in the background. A materialization error in a
/// detached job is swallowed — if the serial decision path ever needs
/// that frame, it re-materializes it on the main thread and surfaces
/// the same deterministic error.
pub struct DetachedSpeculation {
    /// Transformations to compose, in application order.
    pub pvts: Vec<Pvt>,
    /// Dataset to transform.
    pub base: Arc<DataFrame>,
    /// [`fingerprint`] of `base`.
    pub base_fp: u64,
    /// Seed of the RNG stream the application consumes.
    pub seed: u64,
}

impl DetachedSpeculation {
    /// The job as a borrowed [`Intent`].
    pub fn intent(&self) -> Intent<'_> {
        Intent {
            pvts: self.pvts.iter().collect(),
            base: &self.base,
            base_fp: self.base_fp,
            seed: self.seed,
        }
    }
}

/// One job of the detached pool.
enum PoolJob {
    /// A free baseline of the opening, scored as given.
    Baseline(Arc<DataFrame>),
    /// A lookahead probe.
    Probe(DetachedSpeculation),
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
    /// Intent key → fingerprint of the frame the intent builds,
    /// recorded wherever a frame is built from an intent (the replay
    /// and every worker) and seeded from a warm cache.
    intents: HashMap<u64, u64>,
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

/// The frame behind a query: built by the caller, or still an intent
/// the runtime builds only if no score for it exists or is coming.
enum Frame<'q, 'a> {
    Built(&'q DataFrame),
    Intent(&'q Intent<'a>),
}

impl SharedCache {
    fn new() -> Self {
        SharedCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                unconsumed: HashSet::new(),
                inflight: HashSet::new(),
                intents: HashMap::new(),
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

    /// The fingerprint intent key `key` builds, when it is recorded
    /// and that fingerprint is scored or being scored — the case in
    /// which a query needs no frame.
    fn resolve(&self, key: u64) -> Option<u64> {
        let state = self.lock();
        let fp = *state.intents.get(&key)?;
        (state.map.contains_key(&fp) || state.inflight.contains(&fp)).then_some(fp)
    }

    /// Record that intent key `key` builds fingerprint `fp`.
    fn register(&self, key: u64, fp: u64) {
        self.lock().intents.insert(key, fp);
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

    /// Score `frame` (fingerprint `fp`) on `system` into the cache as
    /// a speculative entry, unless some thread has scored or claimed it
    /// already. The evaluation count and latency go to the worker's
    /// `shard`.
    fn speculate(
        &mut self,
        system: &mut dyn System,
        fp: u64,
        frame: &DataFrame,
        shard: &MetricsShard,
    ) {
        if !self.cache.try_claim(fp) {
            return;
        }
        self.claimed = Some(fp);
        let start = Instant::now();
        let score = sanitize(system.malfunction(frame));
        shard.record(start.elapsed().as_nanos() as u64);
        self.publish(score, true);
    }

    /// Worker side of one intent: unless its key already names a
    /// scored or in-flight frame, build the frame, record its
    /// fingerprint under the key and score it as in
    /// [`JobGuard::speculate`]. A build error is swallowed: the replay
    /// rebuilds the frame if it charges it and surfaces the error there.
    fn speculate_intent(
        &mut self,
        system: &mut dyn System,
        shard: &MetricsShard,
        intent: &Intent<'_>,
    ) {
        let key = intent.key();
        if self.cache.resolve(key).is_some() {
            return;
        }
        let Ok(frame) = intent.build() else {
            return;
        };
        shard.record_build();
        let fp = fingerprint(&frame);
        self.cache.register(key, fp);
        self.speculate(system, fp, &frame, shard);
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
    queue: VecDeque<PoolJob>,
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
    fn enqueue(&self, jobs: Vec<PoolJob>, budget: Option<usize>) {
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

/// Where a diagnosis gets the systems it runs.
pub enum Source<'a> {
    /// The caller's own instance. The runtime runs at width 1 on it
    /// and never builds another.
    Borrowed(&'a mut dyn System),
    /// Builds one instance per worker thread, on first use.
    Factory(&'a dyn SystemFactory),
}

impl Source<'_> {
    /// The same source for a shorter borrow, so one source can run two
    /// searches in turn.
    pub(crate) fn reborrow(&mut self) -> Source<'_> {
        match self {
            Source::Borrowed(system) => Source::Borrowed(&mut **system),
            Source::Factory(factory) => Source::Factory(*factory),
        }
    }

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

/// The intervention runtime: charges and caches every oracle query of
/// a diagnosis, and at width > 1 scores speculation batches on
/// `num_threads` sync workers (one independent [`System`] instance
/// each, built lazily from the factory) into a shared fingerprint
/// cache. Detached lookahead jobs
/// ([`Oracle::speculate_detached`]) run on a persistent background
/// pool of another `num_threads` workers that outlives individual
/// calls, overlapping with the charged replay.
///
/// At width 1 — a borrowed system, or a factory with
/// `num_threads ≤ 1` — speculation does nothing and no pool starts:
/// each charged query builds and scores its own frame, a true serial
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
    /// In-flight frame bound of the detached pool
    /// (`PrismConfig::speculation_budget`, at least 1); `None` is
    /// unbounded.
    speculation_budget: Option<usize>,
    hits: usize,
    misses: usize,
    warm_hits: u64,
    baseline_queries: u64,
    speculative_issued: u64,
    speculative_used: u64,
    /// Frames built on the calling thread ([`RunMetrics::frames_built`]).
    frames_built: u64,
    /// Queries whose fingerprint came from the intent index
    /// ([`RunMetrics::intent_hits`]).
    intent_hits: u64,
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
    pool: Option<Arc<Pool>>,
    pool_workers: Vec<pool_thread::JoinHandle<()>>,
}

impl<'a> Oracle<'a> {
    /// A runtime over `source` with threshold `τ`, an intervention
    /// budget, and a worker count. A borrowed system always runs at
    /// width 1.
    pub fn new(source: Source<'a>, threshold: f64, budget: usize, num_threads: usize) -> Self {
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
            speculation_budget: None,
            hits: 0,
            misses: 0,
            warm_hits: 0,
            baseline_queries: 0,
            speculative_issued: 0,
            speculative_used: 0,
            frames_built: 0,
            intent_hits: 0,
            query_latency: LatencyHistogram::default(),
            last: QueryStat::default(),
            sync_shards: Vec::new(),
            pool_shards: Vec::new(),
            cache: Arc::new(SharedCache::new()),
            free: HashSet::new(),
            warm: HashSet::new(),
            pool: None,
            pool_workers: Vec::new(),
        }
    }

    /// Bound the detached pool's in-flight frames (see
    /// [`crate::PrismConfig::speculation_budget`]; a bound of 0 counts
    /// as 1). Call before the first speculation; returns `self` for
    /// chaining.
    pub fn with_speculation_budget(mut self, budget: Option<usize>) -> Self {
        self.speculation_budget = budget.map(|b| b.max(1));
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
    /// cold. The cache's intent records are seeded too: a charged
    /// query of a recorded composition whose fingerprint is scored
    /// needs no frame. Call before the first query; returns `self` for
    /// chaining.
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
        shared.intents.reserve(warm.intent_count());
        shared.intents.extend(warm.intents());
        drop(shared);
        self
    }

    /// The in-flight frame bound in force, if any.
    pub fn effective_budget(&self) -> Option<usize> {
        self.speculation_budget
    }

    /// Snapshot the shared fingerprint cache (seeded, charged, and
    /// speculative entries alike) and its intent records into a
    /// cross-run [`ScoreCache`], after settling in-flight background
    /// speculation so the export is a quiescent, complete view.
    pub fn export_cache(&self) -> ScoreCache {
        self.settle_pool();
        let shared = self.cache.lock();
        let mut out = ScoreCache::new();
        for (&fp, &score) in &shared.map {
            out.insert(fp, score);
        }
        for (&key, &fp) in &shared.intents {
            out.insert_intent(key, fp);
        }
        out
    }

    /// The factory, when this runtime scores frames ahead on more than
    /// one thread. `None` means width 1: each frame is built and scored
    /// when it is charged.
    fn pool_factory(&self) -> Option<&'a dyn SystemFactory> {
        match self.source {
            Source::Factory(factory) if self.num_threads > 1 => Some(factory),
            _ => None,
        }
    }

    /// Spawn the persistent background pool on first use. Each worker
    /// owns its own [`System`] instance (built here, on the calling
    /// thread) and loops: pop a detached job, skip it when its intent
    /// already names a scored or in-flight frame, otherwise
    /// materialize it and score the frame into the shared cache unless
    /// some other thread has scored or claimed it; signal idle when the
    /// queue drains.
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
                let Some(job) = job else { return };
                let mut guard = JobGuard::new(&cache, None, Some(&pool_ref));
                match job {
                    PoolJob::Baseline(frame) => {
                        let fp = fingerprint(&frame);
                        guard.speculate(system.as_mut(), fp, &frame, &shard);
                    }
                    PoolJob::Probe(job) => {
                        guard.speculate_intent(system.as_mut(), &shard, &job.intent());
                    }
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

    /// Score the frame of fingerprint `fp` through the shared cache on
    /// the primary system. A frame a worker is still scoring is waited
    /// for, never scored twice. An [`Frame::Intent`] is built only when
    /// the score is neither cached nor coming. Only a `charged` query
    /// counts as a cache hit or miss: re-asking a free baseline is
    /// neither.
    fn query(&mut self, fp: u64, frame: Frame<'_, '_>, charged: bool) -> Result<f64> {
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
                // Dropped on an error or a panic, the guard releases
                // the claim.
                let mut guard = JobGuard::new(&self.cache, Some(fp), None);
                let built;
                let df = match frame {
                    Frame::Built(df) => df,
                    Frame::Intent(intent) => {
                        // The worker that was scoring this frame died:
                        // build it here.
                        built = intent.build()?;
                        self.frames_built += 1;
                        &built
                    }
                };
                if charged {
                    self.misses += 1;
                }
                let system = self.source.primary(&mut self.workers);
                let start = Instant::now();
                let score = sanitize(system.malfunction(df));
                let latency_ns = start.elapsed().as_nanos() as u64;
                guard.publish(score, false);
                // Baselines are free but their evaluations are real
                // latency samples.
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
        Ok(score)
    }

    /// Charge one query of the frame of fingerprint `fp`, unless it is
    /// a free baseline.
    fn charge(&mut self, fp: u64, frame: Frame<'_, '_>) -> Result<f64> {
        let charged = !self.free.contains(&fp);
        if charged {
            self.interventions += 1;
        }
        self.query(fp, frame, charged)
    }

    /// Build the frame of `intent` on the calling thread, counted in
    /// [`RunMetrics::frames_built`]. Searches call this for the frames
    /// they carry forward and no charged query built (a group-testing
    /// leaf, or a kept greedy pick or accepted Make-Minimal drop whose
    /// query was a key hit); a query
    /// that only needs a score goes through [`Oracle::intervene_apply`]
    /// instead.
    pub fn build(&mut self, intent: &Intent<'_>) -> Result<DataFrame> {
        self.frames_built += 1;
        intent.build()
    }

    /// The fingerprint of `intent`'s frame: from the intent index when
    /// it names a scored or in-flight fingerprint (no frame needed),
    /// otherwise by building the frame, which is returned and its
    /// fingerprint recorded under the intent key.
    fn resolve(&mut self, intent: &Intent<'_>) -> Result<(u64, Option<DataFrame>)> {
        let key = intent.key();
        if let Some(fp) = self.cache.resolve(key) {
            self.intent_hits += 1;
            return Ok((fp, None));
        }
        let frame = self.build(intent)?;
        let fp = fingerprint(&frame);
        self.cache.register(key, fp);
        Ok((fp, Some(frame)))
    }

    /// Build and score `jobs` concurrently on up to `num_threads` sync
    /// workers built by `factory`, returning once every job is done.
    fn score_batch(&mut self, factory: &dyn SystemFactory, jobs: Vec<Intent<'_>>) {
        let n_workers = self.num_threads.min(jobs.len());
        while self.workers.len() < n_workers {
            self.workers.push(factory.build());
        }
        while self.sync_shards.len() < n_workers {
            self.sync_shards.push(Arc::new(MetricsShard::default()));
        }
        // A pop queue, reversed so workers drain in job order; plain
        // `Mutex` state keeps the crate `forbid(unsafe_code)`-clean.
        let queue: Mutex<Vec<Intent<'_>>> = Mutex::new(jobs.into_iter().rev().collect());
        let cache = &*self.cache;
        let queue_ref = &queue;
        std::thread::scope(|scope| {
            for (worker, shard) in self
                .workers
                .iter_mut()
                .zip(self.sync_shards.iter())
                .take(n_workers)
            {
                scope.spawn(move || loop {
                    let job = queue_ref.lock().expect("queue lock").pop();
                    let Some(intent) = job else { break };
                    JobGuard::new(cache, None, None).speculate_intent(
                        worker.as_mut(),
                        shard,
                        &intent,
                    );
                });
            }
        });
    }

    /// Malfunction score of a *baseline* dataset (`D_pass`/`D_fail`
    /// as given), with its [`OracleQuerySpan`] emitted on `tracer`.
    /// Never counted as an intervention — the problem definition
    /// assumes these two scores are known — and future queries of the
    /// identical dataset stay free.
    pub fn baseline(&mut self, df: &DataFrame, tracer: &Tracer) -> f64 {
        let fp = fingerprint(df);
        self.free.insert(fp);
        self.baseline_queries += 1;
        // Baselines never count toward the hit/miss split.
        let score = self
            .query(fp, Frame::Built(df), false)
            .expect("a built frame is never rebuilt");
        self.emit_query(QueryKind::Baseline, score, tracer);
        score
    }

    /// Malfunction score of a transformed dataset: one intervention
    /// (the system itself is only re-run when the exact dataset has
    /// not been scored before), with its [`OracleQuerySpan`] emitted
    /// on `tracer`. Re-asking a free baseline is neither charged nor
    /// counted as a cache hit.
    pub fn intervene(&mut self, df: &DataFrame, tracer: &Tracer) -> f64 {
        let score = self
            .charge(fingerprint(df), Frame::Built(df))
            .expect("a built frame is never rebuilt");
        self.emit_query(QueryKind::Intervention, score, tracer);
        score
    }

    /// [`Oracle::intervene`] on the frame `intent` builds. When the
    /// intent's key names a fingerprint that is already scored (or
    /// being scored), the frame is never built; otherwise it is built
    /// once, its fingerprint recorded under the key, and the frame
    /// handed back in [`Applied::built`] so a search that keeps it
    /// need not build it again. Charging, scores,
    /// the cache counters and the span are those of
    /// [`Oracle::intervene`] on the built frame.
    pub fn intervene_apply(&mut self, intent: &Intent<'_>, tracer: &Tracer) -> Result<Applied> {
        let (fp, built) = self.resolve(intent)?;
        let score = match &built {
            Some(df) => self.charge(fp, Frame::Built(df)),
            None => self.charge(fp, Frame::Intent(intent)),
        }?;
        self.emit_query(QueryKind::Intervention, score, tracer);
        Ok(Applied { score, built })
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

    /// Score the frames of `probes` concurrently at width > 1, without
    /// charging interventions and without returning them: the charged
    /// queries that follow ([`Oracle::intervene_apply`]) then find
    /// their scores by intent key.
    /// A probe whose key already names a scored or in-flight frame is
    /// skipped, and with fewer than two probes left there is nothing to
    /// overlap. At width 1 this does nothing: each query builds its own
    /// frame if it must. A materialization error is left for the
    /// charged query to surface.
    pub fn prescore(&mut self, probes: &[Intent<'_>]) {
        let Some(factory) = self.pool_factory() else {
            return;
        };
        let jobs = self.unresolved(probes);
        if jobs.len() > 1 {
            self.speculative_issued += jobs.len() as u64;
            self.score_batch(factory, jobs);
        }
    }

    /// The probes whose intent key names no scored or in-flight frame.
    fn unresolved<'j>(&self, probes: &[Intent<'j>]) -> Vec<Intent<'j>> {
        probes
            .iter()
            .filter(|probe| self.cache.resolve(probe.key()).is_none())
            .cloned()
            .collect()
    }

    /// Queue owned cache-warming jobs to run **asynchronously**: the
    /// call returns immediately and worker threads materialize and
    /// score the jobs while the caller keeps replaying its serial
    /// decisions. A worker skips a job whose intent already names a
    /// scored or in-flight frame, and a frame that is already scored or
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
        let budget = self.speculation_budget;
        let jobs = jobs.into_iter().map(PoolJob::Probe).collect();
        self.ensure_pool(factory).enqueue(jobs, budget);
    }

    /// Score the opening of a diagnosis as one batch, without charging
    /// anything: both baselines (`[D_pass, D_fail]`) and `first`, the
    /// algorithm's first charged intents. The caller then validates
    /// the baselines and charges the intents in serial order, and each
    /// query finds its score in the cache.
    ///
    /// At width > 1 the baselines go to the detached pool as owned
    /// copies (never shed: the replay consumes all of them) and the
    /// intents whose key names no scored frame to the sync workers, so
    /// the whole opening is scored at once on the instances the
    /// runtime already owns. At width 1, or with no `first` intents to
    /// overlap the baselines with, this does nothing.
    pub fn open(&mut self, baselines: [&DataFrame; 2], first: &[Intent<'_>]) {
        let Some(factory) = self.pool_factory() else {
            return;
        };
        if first.is_empty() {
            return;
        }
        let jobs: Vec<PoolJob> = baselines
            .into_iter()
            .map(|df| PoolJob::Baseline(Arc::new(df.clone())))
            .collect();
        self.speculative_issued += jobs.len() as u64;
        self.ensure_pool(factory).enqueue(jobs, None);
        let jobs = self.unresolved(first);
        self.speculative_issued += jobs.len() as u64;
        self.score_batch(factory, jobs);
    }

    /// How many candidates per batch are worth planning ahead (1 ⇒
    /// don't speculate: plan lazily exactly as the serial algorithm
    /// would).
    pub fn speculation_width(&self) -> usize {
        self.num_threads
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
            frames_built: self.frames_built,
            intent_hits: self.intent_hits,
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
        let mut oracle = Oracle::new(Source::Borrowed(&mut system), 0.2, 100, 1);
        let a = df(&[1, 2, 3]);
        let b = df(&[4, 5, 6]);
        assert_eq!(oracle.intervene(&a, &Tracer::off()), 0.5);
        assert_eq!(
            oracle.intervene(&a, &Tracer::off()),
            0.5,
            "cached result, counted query"
        );
        assert_eq!(oracle.intervene(&b, &Tracer::off()), 0.5);
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
            Oracle::new(Source::Borrowed(&mut system), 0.2, 100, 1),
            Oracle::new(Source::Factory(&factory), 0.2, 100, 4),
        ] {
            let base = df(&[1]);
            rt.baseline(&base, &Tracer::off());
            assert_eq!(rt.interventions, 0);
            // Re-querying the exact baseline dataset stays free, and
            // is neither a hit nor a miss.
            rt.intervene(&base, &Tracer::off());
            assert_eq!(rt.interventions, 0, "baseline stays free forever");
            rt.intervene(&df(&[1, 2, 3]), &Tracer::off());
            rt.intervene(&df(&[1, 2, 3]), &Tracer::off());
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
        // latency sample of a fresh system.
        let mut system = |_: &DataFrame| 0.9;
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        for mut rt in [
            Oracle::new(Source::Borrowed(&mut system), 0.2, 100, 1),
            Oracle::new(Source::Factory(&factory), 0.2, 100, 4),
        ] {
            rt.baseline(&df(&[1, 2, 3]), &Tracer::off());
            let before = rt.run_metrics().query_latency.count;
            assert!(before >= 1, "cold baseline must record a latency");
            assert!(rt.last_query().latency_ns.is_some());
            // A cached repeat adds no sample and reports no latency at
            // all — hits must never skew the mean query cost.
            rt.baseline(&df(&[1, 2, 3]), &Tracer::off());
            assert_eq!(rt.run_metrics().query_latency.count, before);
            assert_eq!(rt.last_query().latency_ns, None);
        }
    }

    #[test]
    fn passes_and_budget() {
        let mut system = |_: &DataFrame| 0.1;
        let mut oracle = Oracle::new(Source::Borrowed(&mut system), 0.2, 1, 1);
        assert!(oracle.passes(0.2));
        assert!(!oracle.passes(0.21));
        assert!(!oracle.exhausted());
        oracle.intervene(&df(&[1]), &Tracer::off());
        assert!(oracle.exhausted());
    }

    #[test]
    fn scores_clamped_and_nan_is_extreme() {
        let mut system = |_: &DataFrame| 7.5;
        let mut oracle = Oracle::new(Source::Borrowed(&mut system), 0.2, 10, 1);
        assert_eq!(oracle.intervene(&df(&[1]), &Tracer::off()), 1.0);
        // Failure injection: a system returning NaN (crashed
        // measurement) must read as extreme malfunction, not as a
        // vacuous pass.
        let mut nan_system = |_: &DataFrame| f64::NAN;
        let mut oracle = Oracle::new(Source::Borrowed(&mut nan_system), 0.2, 10, 1);
        let score = oracle.intervene(&df(&[2]), &Tracer::off());
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
        let mut oracle =
            Oracle::new(Source::Borrowed(&mut system), 0.2, 100, 1).with_warm_cache(&warm);
        assert_eq!(oracle.intervene(&neg, &Tracer::off()), 0.5);
        assert_eq!(oracle.intervene(&nan, &Tracer::off()), 0.5);
        assert_eq!(oracle.intervene(&good, &Tracer::off()), 0.25);
        let m = oracle.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses, m.warm_hits), (1, 2, 1));
        drop(oracle);
        assert_eq!(calls, 2, "both bad seeds were scored by the system");
    }

    /// An intent with no transformations: it builds `frame` unchanged.
    fn unchanged(frame: &DataFrame) -> Intent<'_> {
        Intent {
            pvts: Vec::new(),
            base: frame,
            base_fp: fingerprint(frame),
            seed: 0,
        }
    }

    #[test]
    fn speculation_is_never_charged() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 4);
        let frames: Vec<DataFrame> = (0..8).map(|i| df(&[i, i + 1])).collect();
        let probes: Vec<Intent<'_>> = frames.iter().map(unchanged).collect();
        rt.prescore(&probes);
        assert_eq!(rt.interventions, 0, "speculation is free");
        let m = rt.run_metrics();
        assert_eq!(m.speculative_evaluated, 8, "all eight scored by workers");
        // A later charged query of a speculated frame is a cache hit.
        rt.intervene(&frames[3], &Tracer::off());
        assert_eq!(rt.interventions, 1);
        let m = rt.run_metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (1, 0));
    }

    #[test]
    fn width_one_never_scores_ahead() {
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
            Oracle::new(Source::Factory(&factory), 0.2, 100, 1),
            Oracle::new(Source::Borrowed(&mut system), 0.2, 100, 1),
        ] {
            let frames = [df(&[1]), df(&[2]), df(&[3])];
            let probes: Vec<Intent<'_>> = frames.iter().map(unchanged).collect();
            rt.open([&frames[0], &frames[1]], &probes);
            rt.prescore(&probes);
            // Detached jobs are dropped unexecuted; no pool starts.
            rt.speculate_detached(vec![detached(&df(&[4]))]);
            assert!(rt.pool.is_none());
            assert_eq!(
                counter.load(Ordering::SeqCst),
                0,
                "width 1 must not run the system ahead"
            );
            let m = rt.run_metrics();
            assert_eq!(
                (
                    m.speculative_issued,
                    m.speculative_evaluated,
                    m.frames_built
                ),
                (0, 0, 0)
            );
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
        let rt = Oracle::new(Source::Borrowed(&mut system), 0.2, 100, 1)
            .with_speculation_budget(Some(4));
        assert_eq!(rt.system_name(), "named");
        assert_eq!(rt.speculation_width(), 1);
        assert!(rt.workers.is_empty());
    }

    #[test]
    fn detached_jobs_score_into_the_cache_and_count_waste() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 4);
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
        rt.intervene(&frames[0], &Tracer::off());
        rt.intervene(&frames[2], &Tracer::off());
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
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
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
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 4).with_warm_cache(&warm);
        // Seeded entry answers the charged query: no evaluation, a
        // warm hit, still one charged intervention.
        assert_eq!(rt.intervene(&a, &Tracer::off()).to_bits(), 0.1f64.to_bits());
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(rt.interventions, 1);
        rt.intervene(&b, &Tracer::off());
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
            let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
            for f in &frames {
                rt.intervene(f, &Tracer::off());
            }
            cross_run.absorb(&rt.export_cache());
        }
        // Second run warm-started from the first: identical scores,
        // zero misses, all three queries warm.
        let mut rt =
            Oracle::new(Source::Factory(&factory), 0.2, 100, 2).with_warm_cache(&cross_run);
        for f in &frames {
            rt.intervene(f, &Tracer::off());
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
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2)
            .with_speculation_budget(Some(budget));
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
    fn speculation_is_unbounded_without_a_budget() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 4);
        assert_eq!(rt.effective_budget(), None);
        let rt =
            Oracle::new(Source::Factory(&factory), 0.2, 100, 4).with_speculation_budget(Some(0));
        assert_eq!(rt.effective_budget(), Some(1), "a zero bound counts as 1");
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
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
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

    fn detached(frame: &DataFrame) -> DetachedSpeculation {
        DetachedSpeculation {
            pvts: Vec::new(),
            base: Arc::new(frame.clone()),
            base_fp: fingerprint(frame),
            seed: 0,
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
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
        let frame = df(&[1, 2, 3]);
        rt.speculate_detached(vec![detached(&frame)]);
        started.recv().unwrap();
        // The pool worker holds the frame: the charged query takes its
        // score instead of evaluating the frame a second time.
        assert_eq!(
            rt.intervene(&frame, &Tracer::off()).to_bits(),
            0.3f64.to_bits()
        );
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
        let off = Tracer::off();
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
        rt.open([&pass, &fail], &[unchanged(&probe)]);
        assert_eq!(rt.interventions, 0, "the opening is free");
        // The replay finds every score in the cache, the intent by key.
        assert_eq!(rt.baseline(&pass, &off).to_bits(), 0.1f64.to_bits());
        assert_eq!(rt.baseline(&fail, &off).to_bits(), 0.4f64.to_bits());
        rt.intervene_apply(&unchanged(&probe), &off).unwrap();
        let m = rt.run_metrics();
        assert_eq!(calls.load(Ordering::SeqCst), 3, "each frame scored once");
        assert_eq!((m.charged_queries, m.cache_hits, m.cache_misses), (1, 1, 0));
        assert_eq!((m.intent_hits, m.speculative_wasted), (1, 0));
        // Width 1 scores nothing ahead.
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 1);
        rt.open([&pass, &fail], &[unchanged(&probe)]);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    fn rescale(id: usize, lb: f64) -> Pvt {
        Pvt {
            id,
            profile: crate::profile::Profile::Missing {
                attr: "x".into(),
                theta: 0.0,
            },
            transform: crate::transform::Transform::LinearRescale {
                attr: "x".into(),
                lb,
                ub: lb + 1.0,
            },
        }
    }

    #[test]
    fn prescored_intents_are_charged_without_building_their_frames() {
        let factory = || |df: &DataFrame| fingerprint(df) as f64 / u64::MAX as f64;
        let base = DataFrame::from_columns(vec![Column::from_floats(
            "x",
            vec![Some(1.0), Some(2.0), Some(4.0)],
        )])
        .unwrap();
        let (a, b) = (rescale(0, 0.0), rescale(1, 5.0));
        let probe = |pvt| Intent {
            pvts: vec![pvt],
            base: &base,
            base_fp: fingerprint(&base),
            seed: 7,
        };
        let probes = [probe(&a), probe(&b)];
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
        rt.prescore(&probes);
        let m = rt.run_metrics();
        assert_eq!((m.speculative_issued, m.frames_built), (2, 2), "{m:?}");
        // The workers recorded both intents: the charged queries are
        // cache hits found by key, with no frame built.
        for p in &probes {
            let score = rt.intervene_apply(p, &Tracer::off()).unwrap().score;
            let built = fingerprint(&p.build().unwrap());
            assert_eq!(rt.last_query().fingerprint, built);
            assert_eq!(score.to_bits(), factory()(&p.build().unwrap()).to_bits());
        }
        // Probes that already resolve are not scored again.
        rt.prescore(&probes);
        let m = rt.run_metrics();
        assert_eq!((m.speculative_issued, m.frames_built), (2, 2), "{m:?}");
        assert_eq!((m.cache_hits, m.cache_misses, m.intent_hits), (2, 0, 2));
        // The export carries the intents; a warm width-1 runtime
        // resolves them too.
        let warm = rt.export_cache();
        assert_eq!(warm.intent_count(), 2);
        let mut system = factory();
        let mut rt = Oracle::new(Source::Borrowed(&mut system), 0.2, 100, 1).with_warm_cache(&warm);
        for p in &probes {
            rt.intervene_apply(p, &Tracer::off()).unwrap();
        }
        let m = rt.run_metrics();
        assert_eq!((m.frames_built, m.intent_hits, m.warm_hits), (0, 2, 2));
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
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
        rt.speculate_detached(vec![detached(&poison), detached(&df(&[1]))]);
        while !panicked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The dead job released its pending slot and its claim.
        let m = rt.run_metrics();
        assert!(m.speculative_evaluated <= 1, "{m:?}");
        // A later query scores the frame itself, and the panic recurs
        // on the caller as it would in a serial run.
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.intervene(&poison, &Tracer::off())
        }));
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
