//! # dp_monitor — continuous observability for DataPrism
//!
//! Batch diagnosis (the `dataprism` crate) answers *"why does this
//! failing dataset break the system?"* after the fact. This crate
//! turns the same machinery into a **continuous monitoring layer**
//! that answers *"is the data drifting toward a disconnect right
//! now?"* over an append stream of row batches:
//!
//! 1. A [`Watcher`] folds every ingested batch into **mergeable
//!    streaming sketches** — one [`dp_stats::sketch::ColumnSummary`]
//!    plus a numeric or keyed categorical sketch per monitored
//!    column. The merges are associative, commutative, and
//!    *bit-identical* to rebuilding the sketch from scratch over the
//!    concatenated rows, so a live profile is indistinguishable from
//!    an offline one.
//! 2. A [`DriftScorer`] compares a sliding window of recent batches
//!    against the passing-run profile set (the profiles discovered
//!    from `D_pass` at watch time). Each profile gets a drift score
//!    in `[0, 1]` — exactly the paper's violation function over the
//!    window — with a sketch-based screen that proves most scores
//!    zero without touching rows.
//! 3. When any score crosses `τ_drift`, the watcher escalates to a
//!    **targeted re-diagnosis**: only the drifted profiles seed the
//!    candidate set, and the run reuses the namespace's warm
//!    [`dataprism::ScoreCache`] through one [`dataprism::Diagnosis`]
//!    with given candidates.
//!    Given the same candidates, the triggered diagnosis is
//!    digest-identical to an offline run.
//!
//! Every stage is observable: ingests emit `sketch_merge` trace
//! events, scoring emits `drift_score`, escalation emits
//! `monitor_trigger` (schema v5), and the watcher keeps a
//! [`dp_trace::RunMetrics`] with ingest counters and latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod drift;
mod watcher;

pub use config::MonitorConfig;
pub use drift::{DriftReport, DriftScore, DriftScorer};
pub use watcher::Watcher;
