//! The versioned trace event schema.
//!
//! A diagnosis run emits a flat, strictly ordered stream of
//! [`TraceRecord`]s. Span-shaped activities (the run itself, each
//! bisection node) are encoded as begin/end event pairs so the stream
//! stays append-only and a crashed run still leaves a readable
//! prefix; [`crate::tree::SearchTree`] folds the node spans back into
//! the recursion tree.
//!
//! Events carry ids, fingerprints, and scores — never dataset
//! contents — so a trace is cheap to emit, safe to ship, and stable
//! to diff across runs.

/// Version of the event schema. Bumped whenever a field or variant
/// changes meaning; every JSONL line carries it as `"v"` and the
/// parser rejects lines from other versions.
///
/// v2: `OracleQuerySpan::latency_ns` became optional (absent for
/// cache hits instead of a `0` sentinel) and the
/// [`Event::SpeculationPlan`] controller event was added.
///
/// v3: a `SampledQuery` event was added — a confidence-bounded
/// oracle decision settled on a stratified row sample instead of the
/// full dataset.
///
/// v4: the [`Event::LintFact`] event was added — the abstract-
/// interpretation fact counts (L6 subsumption classes, L7
/// τ-unreachability drops, L8 commutation pairs, L9 no-op
/// certificates) the lint pass derived before any oracle query.
///
/// v5: the continuous-monitoring events were added —
/// [`Event::SketchMerge`] (a batch was folded into the live
/// per-column sketches), [`Event::DriftScore`] (one profile's drift
/// score against the live window), and [`Event::MonitorTrigger`]
/// (drift past τ_drift escalated to a targeted re-diagnosis).
///
/// v6: the sampled oracle and the adaptive speculation controller
/// were removed. The `SampledQuery` event is gone, and
/// [`Event::SpeculationPlan`] lost its `cap` field (always equal to
/// `depth`) and its `mean_query_ns` field (never set without the
/// controller).
///
/// v7: `GreedyPick` became [`Event::Intervention`], which every charged
/// intervention that is not a bisection probe emits, and
/// [`Event::Candidates`] records the count each search starts from.
pub const SCHEMA_VERSION: u32 = 7;

/// Whether an oracle query was a free baseline or a charged
/// intervention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// One of the two problem-input baselines (never charged).
    Baseline,
    /// A transformed-dataset query (charged as one intervention,
    /// cached or not).
    Intervention,
}

/// Attributes of the span bracketing a whole diagnosis run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisSpan {
    /// The search that ran: `"greedy"`, `"group_test"`, `"grp_test"`,
    /// `"bugdoc"` or `"anchor"` (an `auto` diagnosis runs group
    /// testing, then greedy if A3 fails; each attempt opens its own
    /// span in the one stream).
    pub algorithm: String,
    /// Name of the system under diagnosis.
    pub system: String,
    /// Run seed.
    pub seed: u64,
    /// Acceptable-malfunction threshold τ.
    pub threshold: f64,
    /// Worker threads of the intervention runtime.
    pub num_threads: usize,
    /// Speculative lookahead depth (group testing).
    pub speculation_depth: usize,
}

/// One profile-discovery pass (emitted once, after it completes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoverySpan {
    /// Discriminative PVTs found.
    pub n_pvts: usize,
    /// Attribute pairs the pairwise independence pass considered.
    pub pairs: u64,
    /// Pair tests screened out by the sketch pre-filter.
    pub screened: u64,
    /// Exact χ²/Pearson tests actually run.
    pub exact: u64,
    /// Wall time of the discovery pass.
    pub elapsed_ns: u64,
}

/// The static lint pass over the candidate PVT set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintSpan {
    /// Whether the pass ran at all (`false` under `Lint::Off`).
    pub analyzed: bool,
    /// Error-level findings.
    pub errors: usize,
    /// Warn-level findings.
    pub warnings: usize,
    /// Info-level findings.
    pub infos: usize,
    /// Candidates pruned before ranking (`Lint::Prune` only).
    pub pruned: usize,
}

/// The abstract-interpretation fact counts the lint pass derived (v4;
/// emitted right after [`Event::Lint`] whenever the pass ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintFactSpan {
    /// L6 equivalence classes of size ≥ 2.
    pub subsumption_classes: usize,
    /// Candidates whose oracle charge another class member carries
    /// (`Lint::Prune` only; 0 under `Report`).
    pub subsumed: usize,
    /// Candidates with an L7 τ-unreachability certificate.
    pub unreachable: usize,
    /// L8 certified commuting candidate pairs.
    pub commuting_pairs: usize,
    /// Candidates with an L9 abstract no-op certificate.
    pub noop_certified: usize,
}

/// One oracle query, with how the fingerprint cache served it.
///
/// The `fingerprint` is the content hash of the queried dataset —
/// stable across runs of the same scenario, which is what makes these
/// spans the natural key for a future cross-run oracle cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleQuerySpan {
    /// Baseline or charged intervention.
    pub kind: QueryKind,
    /// Content fingerprint of the queried dataset.
    pub fingerprint: u64,
    /// The malfunction score returned.
    pub score: f64,
    /// Served from the fingerprint cache (no system evaluation on
    /// the charged path).
    pub cached: bool,
    /// The cache entry was produced by a speculative worker — the
    /// lookahead guessed this query right.
    pub speculative_hit: bool,
    /// Wall time of the system evaluation; `None` for cache hits
    /// (no evaluation happened). Absent on the wire when `None`.
    pub latency_ns: Option<u64>,
}

/// The lookahead planned at one cold bisection node: how deep to
/// pre-bisect and under what in-flight bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationPlanSpan {
    /// Bisection node the plan applies to.
    pub node: u64,
    /// Extra recursion levels pre-bisected: `gt_speculation_depth`,
    /// plus one where every candidate pair provably commutes.
    pub depth: usize,
    /// In-flight frame budget in force at plan time; `None` means
    /// unbounded.
    pub budget: Option<usize>,
    /// Frames the resulting frontier enqueues.
    pub frames: usize,
}

/// One node of the group-testing recursion (begin side; the end side
/// is [`Event::BisectionNodeEnd`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectionNodeSpan {
    /// Node id, assigned in recursion (= serial visit) order.
    pub node: u64,
    /// Parent node id; `None` for the root.
    pub parent: Option<u64>,
    /// Candidate PVT ids at this node.
    pub candidates: Vec<usize>,
    /// Levels below this node an ancestor's speculative frontier
    /// already covers.
    pub covered: usize,
}

/// One ingested batch folded into a watcher's live sketches (v5).
/// Emitted once per batch; the per-column merges it stands for are
/// bit-identical to rebuilding the sketches over the whole stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchMergeSpan {
    /// Columns whose summaries were merged.
    pub columns: usize,
    /// Rows in the ingested batch.
    pub batch_rows: u64,
    /// Rows of the stream after the merge.
    pub total_rows: u64,
    /// Batches ingested so far (this one included).
    pub batches: u64,
}

/// One passing-run profile scored against the live drift window (v5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftScoreSpan {
    /// Index of the profile in the watcher's baseline profile set.
    pub profile: usize,
    /// The drift score — the profile's violation over the window.
    pub score: f64,
    /// The violation threshold τ_drift in force.
    pub threshold: f64,
    /// Whether the score exceeded τ_drift.
    pub drifted: bool,
    /// Whether the sketch screen proved the score zero without
    /// touching rows.
    pub screened: bool,
}

/// A drift check crossed τ_drift and the watcher escalated to a
/// targeted re-diagnosis seeded with only the drifted profiles (v5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorTriggerSpan {
    /// Indices of the drifted profiles (ascending baseline order).
    pub drifted: Vec<usize>,
    /// Candidate PVTs the drifted profiles expanded into.
    pub candidates: usize,
    /// Rows of the drift window handed to the diagnosis as `D_fail`.
    pub window_rows: u64,
}

/// One event of the trace stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The run began (always the first record).
    DiagnosisBegin(DiagnosisSpan),
    /// Profile discovery completed.
    Discovery(DiscoverySpan),
    /// The lint pass completed.
    Lint(LintSpan),
    /// The lint pass's abstract-interpretation fact counts (v4).
    LintFact(LintFactSpan),
    /// An oracle query completed.
    OracleQuery(OracleQuerySpan),
    /// The number of candidate PVTs the search starts from, after
    /// discovery or the caller's candidate set and after any lint
    /// pruning (v7).
    Candidates {
        /// Candidate PVTs.
        n: usize,
    },
    /// A charged intervention that is not a bisection probe (v7): a
    /// greedy pick, the A3 composition, or a baseline's configuration.
    Intervention {
        /// Ids of the PVTs whose transformations were applied.
        ids: Vec<usize>,
        /// Malfunction score before the intervention.
        before: f64,
        /// Malfunction score after.
        after: f64,
        /// The algorithm's verdict (greedy and GT: the malfunction
        /// dropped; the baselines: the score passed).
        kept: bool,
    },
    /// Entered a group-testing recursion node.
    BisectionNodeBegin(BisectionNodeSpan),
    /// A lookahead frontier was planned for a cold bisection node
    /// (emitted before the frames are enqueued).
    SpeculationPlan(SpeculationPlanSpan),
    /// The node's candidate set was bisected.
    BisectionPartition {
        /// Node id.
        node: u64,
        /// First half (probed first).
        left: Vec<usize>,
        /// Second half.
        right: Vec<usize>,
        /// Dependency-graph edges cut by the split, when the
        /// partitioner enumerated them (min-bisection below the
        /// local-search limit).
        cut_edges: Option<usize>,
    },
    /// A half of the node's partition was probed as a group.
    BisectionProbe {
        /// Node id.
        node: u64,
        /// 1 = left half, 2 = right half.
        half: u8,
        /// The probed candidate ids.
        ids: Vec<usize>,
        /// Malfunction score before.
        before: f64,
        /// Malfunction score of the half's composition.
        after: f64,
        /// Whether the half reduced the malfunction.
        kept: bool,
        /// Whether the probe's oracle query was served by a
        /// speculative worker's evaluation.
        speculative_hit: bool,
    },
    /// Left a group-testing recursion node.
    BisectionNodeEnd {
        /// Node id.
        node: u64,
        /// Candidate ids this subtree selected into the explanation.
        selected: Vec<usize>,
    },
    /// Make-Minimal dropped a redundant PVT.
    MinimalityDrop {
        /// The dropped PVT id.
        pvt: usize,
    },
    /// A batch was folded into a watcher's live sketches (v5).
    SketchMerge(SketchMergeSpan),
    /// One profile's drift score against the live window (v5).
    DriftScore(DriftScoreSpan),
    /// Drift crossed τ_drift; a targeted re-diagnosis was seeded with
    /// the drifted profiles (v5).
    MonitorTrigger(MonitorTriggerSpan),
    /// The run ended (always the last record of a completed run).
    DiagnosisEnd {
        /// Whether the final score is at or below τ.
        resolved: bool,
        /// Interventions charged.
        interventions: usize,
        /// Final malfunction score.
        final_score: f64,
    },
}

/// One record of the trace stream: a strictly increasing sequence
/// number, a monotonic timestamp relative to the run start, and the
/// event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Position in the stream (0-based, dense).
    pub seq: u64,
    /// Nanoseconds since the run started.
    pub at_ns: u64,
    /// What happened.
    pub event: Event,
}
