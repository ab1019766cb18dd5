//! Diagnosis results: the explanation of a system malfunction
//! (Definition 10/11) plus an audit trail.

use crate::pvt::Pvt;
use dp_frame::DataFrame;
use dp_lint::Diagnostics;
use dp_trace::{RunMetrics, TraceRecord};
use std::fmt;

/// One event of the diagnosis trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Discovery finished with this many discriminative PVTs.
    Discovered {
        /// Number of discriminative PVTs.
        n_pvts: usize,
    },
    /// An intervention was performed.
    Intervention {
        /// Ids of the PVTs whose transformations were applied
        /// (singleton for the greedy algorithm, a partition for group
        /// testing).
        pvt_ids: Vec<usize>,
        /// Malfunction score before.
        before: f64,
        /// Malfunction score after.
        after: f64,
        /// Whether the intervention was kept (reduced malfunction).
        kept: bool,
    },
    /// Make-Minimal dropped a redundant PVT.
    MinimalityDropped {
        /// Id of the dropped PVT.
        pvt_id: usize,
    },
}

/// The output of a diagnosis: the minimal explanation (causes and
/// fixes), the interventions spent finding it, and the repaired
/// dataset.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The explanation set `X*`: failing to satisfy these profiles is
    /// the cause; their transformations are the fix.
    pub pvts: Vec<Pvt>,
    /// Oracle interventions performed.
    pub interventions: usize,
    /// `m_S(D_fail)` before any intervention.
    pub initial_score: f64,
    /// Malfunction score of the repaired dataset.
    pub final_score: f64,
    /// Whether the final score is at or below the threshold `τ`. When
    /// false, `pvts` is a best-effort partial explanation.
    pub resolved: bool,
    /// The repaired failing dataset
    /// `(∘_{X ∈ X*} X_T)(D_fail)`.
    pub repaired: DataFrame,
    /// Ordered audit trail of the run.
    pub trace: Vec<TraceEvent>,
    /// Static-analysis findings over the candidate PVT set, produced
    /// before any oracle query (rules L1–L5 of `dp_lint`; see
    /// [`crate::Lint`]). `analyzed` is false under `Lint::Off`; under
    /// `Lint::Prune`, `pruned` lists the candidate ids dropped before
    /// ranking. Identical for any thread count.
    pub lint: Diagnostics,
    /// All counters and latency histograms of the run, merged across
    /// worker threads at settle ([`RunMetrics`]). The counts that
    /// matter to the paper (`charged_queries`, lint, prefilter) are
    /// thread-count invariant; cache/speculation splits and latencies
    /// vary with scheduling.
    pub metrics: RunMetrics,
    /// The structured event stream of the run, when
    /// `PrismConfig::trace` was [`dp_trace::TraceConfig::Collect`]
    /// (empty otherwise — JSONL streams go to their file). Feed to
    /// [`dp_trace::SearchTree::from_records`] for the recursion tree.
    pub trace_records: Vec<TraceRecord>,
}

impl Explanation {
    /// Ids of the explanation PVTs, ascending.
    pub fn pvt_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.pvts.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Whether a PVT whose profile has this template key is part of
    /// the explanation — convenient for asserting that a planted
    /// ground-truth cause was found.
    pub fn contains_template(&self, template_key: &str) -> bool {
        self.pvts
            .iter()
            .any(|p| p.profile.template_key() == template_key)
    }

    /// Content digest of the *result* of the diagnosis: the PVT ids
    /// (in explanation order), intervention count, exact bit patterns
    /// of the initial and final malfunction scores, resolution flag,
    /// audit trail, and the content fingerprint of the repaired
    /// dataset.
    ///
    /// Two explanations digest equal iff the diagnosis reached the
    /// same conclusion through the same charged decisions — which is
    /// exactly what is invariant under thread count, speculation
    /// depth, and cache warm-starts. Scheduling-dependent observability
    /// (cache/metrics counters, latencies, trace-record timestamps) is
    /// deliberately excluded, so `dp_serve` clients can assert warm
    /// vs cold bit-identity over the wire with one `u64`.
    pub fn digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.pvts.len().hash(&mut h);
        for pvt in &self.pvts {
            pvt.id.hash(&mut h);
            pvt.profile.to_string().hash(&mut h);
            pvt.transform.to_string().hash(&mut h);
        }
        self.interventions.hash(&mut h);
        self.initial_score.to_bits().hash(&mut h);
        self.final_score.to_bits().hash(&mut h);
        self.resolved.hash(&mut h);
        self.trace.len().hash(&mut h);
        for event in &self.trace {
            match event {
                TraceEvent::Discovered { n_pvts } => {
                    0u8.hash(&mut h);
                    n_pvts.hash(&mut h);
                }
                TraceEvent::Intervention {
                    pvt_ids,
                    before,
                    after,
                    kept,
                } => {
                    1u8.hash(&mut h);
                    pvt_ids.hash(&mut h);
                    before.to_bits().hash(&mut h);
                    after.to_bits().hash(&mut h);
                    kept.hash(&mut h);
                }
                TraceEvent::MinimalityDropped { pvt_id } => {
                    2u8.hash(&mut h);
                    pvt_id.hash(&mut h);
                }
            }
        }
        crate::oracle::fingerprint(&self.repaired).hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Explanation ({} PVT{}, {} intervention{}, malfunction {:.3} → {:.3}, {}):",
            self.pvts.len(),
            if self.pvts.len() == 1 { "" } else { "s" },
            self.interventions,
            if self.interventions == 1 { "" } else { "s" },
            self.initial_score,
            self.final_score,
            if self.resolved {
                "resolved"
            } else {
                "UNRESOLVED"
            },
        )?;
        for pvt in &self.pvts {
            writeln!(f, "  cause: {}", pvt.profile)?;
            writeln!(f, "    fix: {}", pvt.transform)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::transform::{ImputeStrategy, Transform};

    fn dummy() -> Explanation {
        Explanation {
            pvts: vec![Pvt {
                id: 3,
                profile: Profile::Missing {
                    attr: "zip".into(),
                    theta: 0.1,
                },
                transform: Transform::Impute {
                    attr: "zip".into(),
                    strategy: ImputeStrategy::Central,
                },
            }],
            interventions: 2,
            initial_score: 0.75,
            final_score: 0.15,
            resolved: true,
            repaired: DataFrame::new(),
            trace: vec![TraceEvent::Discovered { n_pvts: 4 }],
            lint: Diagnostics::default(),
            metrics: RunMetrics::default(),
            trace_records: Vec::new(),
        }
    }

    #[test]
    fn accessors() {
        let e = dummy();
        assert_eq!(e.pvt_ids(), vec![3]);
        assert!(e.contains_template("missing(zip)"));
        assert!(!e.contains_template("missing(age)"));
    }

    #[test]
    fn digest_ignores_scheduling_but_not_results() {
        let a = dummy();
        // Counters that vary with scheduling must not move the digest.
        let mut b = dummy();
        b.metrics.cache_hits = 99;
        b.metrics.cache_misses = 7;
        b.metrics.warm_hits = 7;
        assert_eq!(a.digest(), b.digest());
        // Any result-bearing field must.
        let mut c = dummy();
        c.final_score = 0.150000001;
        assert_ne!(a.digest(), c.digest());
        let mut d = dummy();
        d.interventions = 3;
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn display_summarizes() {
        let s = dummy().to_string();
        assert!(s.contains("1 PVT"));
        assert!(s.contains("2 interventions"));
        assert!(s.contains("resolved"));
        assert!(s.contains("cause") && s.contains("fix"));
    }
}
