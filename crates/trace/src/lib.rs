//! # dp-trace — observability for the DataPrism diagnosis pipeline
//!
//! A lightweight, std-only tracing and metrics layer the diagnosis
//! algorithms thread through discovery, lint, greedy, group testing,
//! the speculation pool, and the oracle. Three pieces:
//!
//! 1. **Spans and events** ([`event`]): a run emits a stream of
//!    [`TraceRecord`]s — a `DiagnosisSpan` bracketing the run,
//!    `DiscoverySpan`/`OracleQuerySpan` events, and
//!    `BisectionNodeSpan` begin/end pairs mirroring the group-testing
//!    recursion — through a [`TraceSink`]. Three sinks are built in:
//!    [`NullSink`] (the default; the emitting side short-circuits to
//!    a no-op before any event is even constructed), the in-memory
//!    [`Collector`], and the buffered [`JsonlSink`] writing one JSON
//!    object per line under the stable, versioned schema
//!    ([`SCHEMA_VERSION`], [`json`]). The stream is the run's one
//!    audit trail: the [`Tracer`] folds every charged decision into a
//!    rolling digest as it is made, sink or not.
//! 2. **Metrics** ([`metrics`]): monotonic counters and fixed-bucket
//!    latency histograms, always on. Worker threads record into
//!    per-worker [`MetricsShard`]s (atomics, no locks on the query
//!    path) that the runtime merges into one [`RunMetrics`] at
//!    settle.
//! 3. **Search-tree reconstruction** ([`tree`]): [`SearchTree`]
//!    folds the event stream back into the group-testing recursion
//!    tree — per node the candidate set, partition, oracle verdicts,
//!    speculative-hit flags, and wall time — rendered as indented
//!    text or DOT.
//!
//! The crate deliberately has **no dependencies** (not even on the
//! dataframe): events carry ids, fingerprints, and scores, never
//! data, so attaching a sink can neither slow the oracle down
//! meaningfully nor perturb the diagnosis. Parity is asserted by
//! `tests/trace_parity.rs` in the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod sink;
pub mod tracer;
pub mod tree;

pub use event::{
    BisectionNodeSpan, DiagnosisSpan, DiscoverySpan, DriftScoreSpan, Event, LintFactSpan, LintSpan,
    MonitorTriggerSpan, OracleQuerySpan, QueryKind, SketchMergeSpan, SpeculationPlanSpan,
    TraceRecord, SCHEMA_VERSION,
};
pub use hash::SipHasher13;
pub use json::{json_escape, parse_jsonl, to_jsonl, JsonValue, ParseError};
pub use metrics::{LatencyHistogram, MetricsShard, QueryStat, RunMetrics, LATENCY_BOUNDS_NS};
pub use replay::{replay_oracle_queries, replay_records, Replay};
pub use sink::{Collector, JsonlSink, NullSink, TraceSink};
pub use tracer::Tracer;
pub use tree::{PartitionInfo, ProbeInfo, SearchTree, TreeNode};

/// Which sink — if any — a diagnosis run attaches.
///
/// Carried by `PrismConfig::trace` in the core crate. The default is
/// [`TraceConfig::Off`]: no sink, no events, and the emitting side
/// compiles down to a branch on an `Option` that is `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TraceConfig {
    /// No tracing (the default). Metrics are still collected — they
    /// are plain counters the runtime maintains anyway.
    #[default]
    Off,
    /// Collect events in memory; they surface as
    /// `Explanation::trace_records`.
    Collect,
    /// Stream events to a JSONL file (one JSON object per line,
    /// schema [`SCHEMA_VERSION`]). The file is created eagerly when
    /// the run starts; IO errors surface before any oracle query.
    Jsonl(std::path::PathBuf),
}
