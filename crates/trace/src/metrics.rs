//! Monotonic counters and fixed-bucket latency histograms.
//!
//! Metrics are **always on** — unlike event tracing they are plain
//! integer bumps, too cheap to gate. The main thread owns a
//! [`RunMetrics`] directly; worker threads (the runtime's scoped
//! sync workers and the detached speculation pool) each own a
//! [`MetricsShard`] of relaxed atomics so the query path never takes
//! a lock, and the runtime merges the shards in at settle.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Upper bounds (exclusive) of the latency histogram buckets, in
/// nanoseconds: 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s. An eighth
/// bucket catches everything ≥ 10s.
pub const LATENCY_BOUNDS_NS: [u64; 7] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

const NUM_BUCKETS: usize = LATENCY_BOUNDS_NS.len() + 1;

fn bucket_of(ns: u64) -> usize {
    LATENCY_BOUNDS_NS
        .iter()
        .position(|&bound| ns < bound)
        .unwrap_or(LATENCY_BOUNDS_NS.len())
}

/// A fixed-bucket latency histogram (bounds in
/// [`LATENCY_BOUNDS_NS`]) plus count/sum/max, mergeable across
/// workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Samples per bucket; the last bucket is the ≥ 10s overflow.
    pub buckets: [u64; NUM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub sum_ns: u64,
    /// Largest sample, in nanoseconds.
    pub max_ns: u64,
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-worker metrics shard: relaxed atomics bumped on the worker's
/// own query path (no locks, no contention with the cache mutex) and
/// merged into [`RunMetrics`] by the main thread at settle.
#[derive(Debug, Default)]
pub struct MetricsShard {
    evaluated: AtomicU64,
    built: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl MetricsShard {
    /// Record one completed speculative evaluation and its wall time.
    pub fn record(&self, ns: u64) {
        self.evaluated.fetch_add(1, Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    /// Evaluations recorded so far.
    pub fn evaluated(&self) -> u64 {
        self.evaluated.load(Relaxed)
    }

    /// Record one frame the worker built from a composition.
    pub fn record_build(&self) {
        self.built.fetch_add(1, Relaxed);
    }

    /// Frames built so far.
    pub fn built(&self) -> u64 {
        self.built.load(Relaxed)
    }

    /// Snapshot the shard's histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Relaxed);
        }
        LatencyHistogram {
            buckets,
            count: self.count.load(Relaxed),
            sum_ns: self.sum_ns.load(Relaxed),
            max_ns: self.max_ns.load(Relaxed),
        }
    }
}

/// The most recent charged query, kept by the runtime so the caller
/// that triggered it can emit an [`crate::OracleQuerySpan`] without
/// re-deriving cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStat {
    /// Content fingerprint of the queried dataset.
    pub fingerprint: u64,
    /// Whether the fingerprint cache served it.
    pub cached: bool,
    /// Whether the serving cache entry came from a speculative
    /// worker.
    pub speculative_hit: bool,
    /// Wall time of the system evaluation. `None` for cache hits:
    /// no evaluation happened, so there is no latency sample — hit
    /// queries must never be averaged into query cost.
    pub latency_ns: Option<u64>,
}

/// All counters and histograms of one diagnosis run, merged across
/// workers. Surfaced as `Explanation::metrics`, as a watcher's
/// monitoring counters, and — summed with [`RunMetrics::merge`] — as
/// a `dp_serve` namespace's running totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Baseline queries answered (never charged).
    pub baseline_queries: u64,
    /// Charged intervention queries (= `Explanation::interventions`).
    pub charged_queries: u64,
    /// Charged queries served from the fingerprint cache.
    pub cache_hits: u64,
    /// Charged queries that evaluated the system.
    pub cache_misses: u64,
    /// Charged queries served by cache entries injected **before the
    /// run started** — a cross-run warm start (trace replay, snapshot
    /// load, or a server-resident cache). Always ≤ `cache_hits`; zero
    /// on cold runs.
    pub warm_hits: u64,
    /// Speculative jobs issued (sync probes + detached pool jobs).
    pub speculative_issued: u64,
    /// Speculative evaluations completed by workers.
    pub speculative_evaluated: u64,
    /// Cache entries written by speculation and later consumed by a
    /// real query.
    pub speculative_used: u64,
    /// Speculative evaluations never consumed (waste; counted at
    /// settle).
    pub speculative_wasted: u64,
    /// Speculative jobs shed by pool backpressure before any worker
    /// picked them up (oldest queued jobs dropped when the in-flight
    /// budget was exceeded). Always ≤ `speculative_issued`.
    pub speculative_shed: u64,
    /// Speculative jobs still queued when the pool settled (the
    /// search terminated before any worker could start them). Unlike
    /// `speculative_wasted` these never cost an evaluation.
    pub speculative_discarded: u64,
    /// High-water mark of in-flight speculative frames (queued +
    /// executing) over the run. With a configured budget this never
    /// exceeds budget + worker count.
    pub peak_inflight: u64,
    /// Attribute pairs the discovery independence pass considered.
    pub prefilter_pairs: u64,
    /// Pair tests the sketch pre-filter screened out.
    pub prefilter_screened: u64,
    /// The χ² share of `prefilter_screened`; the rest are Pearson
    /// tests.
    pub prefilter_chi2_screened: u64,
    /// Exact χ²/Pearson tests actually run.
    pub prefilter_exact: u64,
    /// Candidates linted and ranked by the pre-query stage, counted
    /// where a candidate set is prepared. A search over an
    /// already-prepared set (a `dp_serve` diagnose, `Auto`'s fallback)
    /// prepares none.
    pub candidates_prepared: u64,
    /// Error-level lint findings.
    pub lint_errors: u64,
    /// Warn-level lint findings.
    pub lint_warnings: u64,
    /// Info-level lint findings.
    pub lint_infos: u64,
    /// Candidates the lint pass pruned before ranking.
    pub lint_pruned: u64,
    /// Candidates dropped because an L6 equivalence-class sibling
    /// already carries their oracle charge (`Lint::Prune` only;
    /// disjoint from `lint_pruned`).
    pub lint_subsumed: u64,
    /// Candidates with an L7 τ-unreachability certificate.
    pub lint_unreachable: u64,
    /// Candidate pairs the L8 rule certified commuting.
    pub lint_commuting_pairs: u64,
    /// Candidate frames built from compositions of transformations, on
    /// the calling thread and on workers, plus frames a search handed
    /// to speculation ready-made. A warm run whose queries all resolve
    /// by intent key builds only the frames its search carries
    /// forward. Searches that build their own frames outside the
    /// runtime (BugDoc, Anchor, the Appendix B tree) count none.
    pub frames_built: u64,
    /// Queries that found their frame's fingerprint by intent key and
    /// so needed no frame built.
    pub intent_hits: u64,
    /// Latency of charged cache-miss evaluations (main thread).
    pub query_latency: LatencyHistogram,
    /// Latency of speculative evaluations (worker shards).
    pub speculative_latency: LatencyHistogram,
    /// Row batches folded into a watcher's live sketches (continuous
    /// monitoring; zero in batch diagnosis runs).
    pub batches_ingested: u64,
    /// Rows across all ingested batches.
    pub rows_ingested: u64,
    /// Drift checks run against the passing-run profile set.
    pub drift_checks: u64,
    /// Drift checks whose score crossed τ_drift (each escalates to a
    /// targeted re-diagnosis).
    pub drift_triggers: u64,
    /// Latency of batch ingests (sketch builds + merges).
    pub ingest_latency: LatencyHistogram,
}

impl RunMetrics {
    /// Fold one worker shard in (called at settle, main thread).
    pub fn merge_worker(&mut self, shard: &MetricsShard) {
        self.speculative_evaluated += shard.evaluated();
        self.frames_built += shard.built();
        self.speculative_latency.merge(&shard.snapshot());
    }

    /// Fold another run in: every counter adds, `peak_inflight` keeps
    /// the larger high-water mark, and every histogram merges.
    pub fn merge(&mut self, other: &RunMetrics) {
        // Destructured without `..`, so a field added to the struct
        // does not compile until it is merged here.
        let RunMetrics {
            baseline_queries,
            charged_queries,
            cache_hits,
            cache_misses,
            warm_hits,
            speculative_issued,
            speculative_evaluated,
            speculative_used,
            speculative_wasted,
            speculative_shed,
            speculative_discarded,
            peak_inflight,
            prefilter_pairs,
            prefilter_screened,
            prefilter_chi2_screened,
            prefilter_exact,
            candidates_prepared,
            lint_errors,
            lint_warnings,
            lint_infos,
            lint_pruned,
            lint_subsumed,
            lint_unreachable,
            lint_commuting_pairs,
            frames_built,
            intent_hits,
            query_latency,
            speculative_latency,
            batches_ingested,
            rows_ingested,
            drift_checks,
            drift_triggers,
            ingest_latency,
        } = other;
        for (total, add) in [
            (&mut self.baseline_queries, baseline_queries),
            (&mut self.charged_queries, charged_queries),
            (&mut self.cache_hits, cache_hits),
            (&mut self.cache_misses, cache_misses),
            (&mut self.warm_hits, warm_hits),
            (&mut self.speculative_issued, speculative_issued),
            (&mut self.speculative_evaluated, speculative_evaluated),
            (&mut self.speculative_used, speculative_used),
            (&mut self.speculative_wasted, speculative_wasted),
            (&mut self.speculative_shed, speculative_shed),
            (&mut self.speculative_discarded, speculative_discarded),
            (&mut self.prefilter_pairs, prefilter_pairs),
            (&mut self.prefilter_screened, prefilter_screened),
            (&mut self.prefilter_chi2_screened, prefilter_chi2_screened),
            (&mut self.prefilter_exact, prefilter_exact),
            (&mut self.candidates_prepared, candidates_prepared),
            (&mut self.lint_errors, lint_errors),
            (&mut self.lint_warnings, lint_warnings),
            (&mut self.lint_infos, lint_infos),
            (&mut self.lint_pruned, lint_pruned),
            (&mut self.lint_subsumed, lint_subsumed),
            (&mut self.lint_unreachable, lint_unreachable),
            (&mut self.lint_commuting_pairs, lint_commuting_pairs),
            (&mut self.frames_built, frames_built),
            (&mut self.intent_hits, intent_hits),
            (&mut self.batches_ingested, batches_ingested),
            (&mut self.rows_ingested, rows_ingested),
            (&mut self.drift_checks, drift_checks),
            (&mut self.drift_triggers, drift_triggers),
        ] {
            *total += add;
        }
        self.peak_inflight = self.peak_inflight.max(*peak_inflight);
        self.query_latency.merge(query_latency);
        self.speculative_latency.merge(speculative_latency);
        self.ingest_latency.merge(ingest_latency);
    }

    /// One-line counts-only summary for the markdown report.
    ///
    /// Deliberately excludes latencies: the report is golden-tested
    /// byte-for-byte and must be identical across serial/parallel
    /// runs of the same scenario.
    pub fn summary_line(&self) -> String {
        format!(
            "queries {} (hits {}, misses {}), baselines {}, \
             speculation {}/{}/{} issued/used/wasted, \
             prefilter {}/{} screened/exact, lint {}/{} pruned/subsumed",
            self.charged_queries,
            self.cache_hits,
            self.cache_misses,
            self.baseline_queries,
            self.speculative_issued,
            self.speculative_used,
            self.speculative_wasted,
            self.prefilter_screened,
            self.prefilter_exact,
            self.lint_pruned,
            self.lint_subsumed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = LatencyHistogram::default();
        h.record(5_000); // bucket 0 (< 10µs)
        h.record(50_000); // bucket 1
        h.record(2_000_000); // bucket 3 (< 10ms)
        h.record(20_000_000_000); // overflow bucket
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[NUM_BUCKETS - 1], 1);
        assert_eq!(h.max_ns, 20_000_000_000);
        assert_eq!(
            h.mean_ns(),
            (5_000 + 50_000 + 2_000_000 + 20_000_000_000) / 4
        );
    }

    #[test]
    fn histogram_merge_is_additive() {
        let mut a = LatencyHistogram::default();
        a.record(1_000);
        let mut b = LatencyHistogram::default();
        b.record(500_000);
        b.record(3_000);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.buckets[0], 2);
        assert_eq!(a.buckets[2], 1);
        assert_eq!(a.max_ns, 500_000);
    }

    #[test]
    fn shard_snapshot_matches_records() {
        let shard = MetricsShard::default();
        shard.record(7_000);
        shard.record(700_000_000);
        assert_eq!(shard.evaluated(), 2);
        let snap = shard.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max_ns, 700_000_000);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[5], 1);
    }

    #[test]
    fn merge_worker_accumulates() {
        let shard = MetricsShard::default();
        shard.record(1_000);
        shard.record(2_000);
        let mut m = RunMetrics::default();
        m.merge_worker(&shard);
        assert_eq!(m.speculative_evaluated, 2);
        assert_eq!(m.speculative_latency.count, 2);
    }

    /// A store whose every counter reads `scale` times a distinct
    /// base, whose histograms hold `scale` samples each, and whose
    /// high-water mark is `peak`. Written without `..`, so a new field
    /// must be given a value here too.
    fn filled(scale: u64, peak: u64) -> RunMetrics {
        let hist = |ns: u64| {
            let mut h = LatencyHistogram::default();
            for _ in 0..scale {
                h.record(ns);
            }
            h
        };
        RunMetrics {
            baseline_queries: 2 * scale,
            charged_queries: 3 * scale,
            cache_hits: 4 * scale,
            cache_misses: 5 * scale,
            warm_hits: 6 * scale,
            speculative_issued: 7 * scale,
            speculative_evaluated: 8 * scale,
            speculative_used: 9 * scale,
            speculative_wasted: 10 * scale,
            speculative_shed: 11 * scale,
            speculative_discarded: 12 * scale,
            prefilter_pairs: 13 * scale,
            prefilter_screened: 14 * scale,
            prefilter_chi2_screened: 15 * scale,
            prefilter_exact: 16 * scale,
            lint_errors: 17 * scale,
            lint_warnings: 18 * scale,
            lint_infos: 19 * scale,
            lint_pruned: 20 * scale,
            lint_subsumed: 21 * scale,
            lint_unreachable: 22 * scale,
            lint_commuting_pairs: 23 * scale,
            frames_built: 24 * scale,
            intent_hits: 25 * scale,
            batches_ingested: 26 * scale,
            rows_ingested: 27 * scale,
            drift_checks: 28 * scale,
            drift_triggers: 29 * scale,
            candidates_prepared: 30 * scale,
            peak_inflight: peak,
            query_latency: hist(2_000),
            speculative_latency: hist(300_000),
            ingest_latency: hist(40_000_000),
        }
    }

    #[test]
    fn merge_adds_counters_maxes_peak_and_merges_histograms() {
        let mut m = RunMetrics::default();
        m.merge(&filled(1, 5));
        assert_eq!(m, filled(1, 5), "merging into an empty store copies");
        m.merge(&filled(2, 3));
        assert_eq!(m, filled(3, 5), "counters add, the peak is a max");
        m.merge(&filled(0, 9));
        assert_eq!(m, filled(3, 9));
    }

    #[test]
    fn summary_line_has_no_latencies() {
        let mut m = RunMetrics {
            charged_queries: 9,
            cache_hits: 3,
            cache_misses: 6,
            ..RunMetrics::default()
        };
        m.query_latency.record(123_456);
        let line = m.summary_line();
        assert!(line.contains("queries 9 (hits 3, misses 6)"), "{line}");
        assert!(
            !line.contains("123"),
            "latency leaked into report line: {line}"
        );
    }
}
