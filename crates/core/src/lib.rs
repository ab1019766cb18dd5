//! # DataPrism — exposing the disconnect between data and systems
//!
//! A from-scratch Rust reproduction of **"DataPrism: Exposing
//! Disconnect between Data and Systems"** (SIGMOD 2022; preprint
//! title *DataExposer*, arXiv:2105.06058).
//!
//! Given a black-box [`System`] with a malfunction score
//! `m_S(D) ∈ [0, 1]`, a threshold `τ`, a **passing** dataset
//! (`m_S ≤ τ`) and a **failing** dataset (`m_S > τ`), DataPrism finds
//! a minimal set of *PVT triplets* ⟨[`Profile`], violation function,
//! [`Transform`]⟩ whose transformations repair the failing dataset:
//! the profiles are the causally verified root causes of the
//! malfunction, the transformations are the fix.
//!
//! ```
//! use dataprism::{Algorithm, Diagnosis, PrismConfig, Source};
//! use dp_frame::{Column, DType, DataFrame};
//!
//! // A system that assumes labels are "-1"/"1" (the paper's
//! // Sentiment case study in miniature).
//! let mut system = |df: &DataFrame| {
//!     let col = df.column("target").unwrap();
//!     let bad = col.str_values().iter()
//!         .filter(|(_, s)| *s != "-1" && *s != "1").count();
//!     bad as f64 / df.n_rows().max(1) as f64
//! };
//! let pass = DataFrame::from_columns(vec![Column::from_strings(
//!     "target", DType::Categorical,
//!     vec![Some("-1".into()), Some("1".into()), Some("1".into()), Some("-1".into())],
//! )]).unwrap();
//! let fail = DataFrame::from_columns(vec![Column::from_strings(
//!     "target", DType::Categorical,
//!     vec![Some("0".into()), Some("4".into()), Some("4".into()), Some("0".into())],
//! )]).unwrap();
//!
//! let explanation = Diagnosis::new(Algorithm::Greedy)
//!     .run(Source::Borrowed(&mut system), &fail, &pass, &PrismConfig::with_threshold(0.2))
//!     .unwrap();
//! assert!(explanation.resolved);
//! assert!(explanation.contains_template("domain_cat(target)"));
//! ```
//!
//! ## Module map
//!
//! | Paper element | Module |
//! |---|---|
//! | Data profiles (Fig 1) | [`profile`] |
//! | Violation functions (Fig 1) | [`mod@violation`] |
//! | Transformation functions (Fig 1) | [`transform`] |
//! | PVT triplets & composition (Defs 8–9) | [`pvt`] |
//! | Profile discovery & discriminative PVTs (§4.1 step 1) | [`discovery`] |
//! | PVT–attribute & dependency graphs (§4.2) | [`graph`] |
//! | Benefit scores (§4.2) | [`benefit`] |
//! | Malfunction oracle & intervention counting (Def 3) | [`oracle`], [`runtime`] |
//! | One diagnosis request for every §5 technique (Fig 7) | [`diagnosis`] |
//! | Algorithm 1 (greedy) | [`greedy`] |
//! | Algorithms 2–3 (group testing) + GrpTest baseline | [`group_test`] |
//! | Algorithm 4 (min bisection, appendix A) | [`bisection`] |
//! | Algorithm 5 (decision-tree extension, appendix B) | [`decision_tree_ext`] |
//! | §5 baselines (BugDoc, Anchor) | [`baselines`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod benefit;
pub mod bisection;
pub mod cache;
mod conditional_tests;
pub mod config;
pub mod decision_tree_ext;
pub mod diagnosis;
pub mod discovery;
pub mod error;
pub mod explanation;
pub mod graph;
pub mod greedy;
pub mod group_test;
pub mod lint;
pub mod oracle;
pub mod profile;
pub mod pvt;
pub mod report;
pub mod runtime;
pub mod transform;
pub mod violation;

pub use cache::{ScoreCache, SnapshotError};
pub use config::{DiscoveryConfig, Lint, Prefilter, PrismConfig};
pub use diagnosis::{
    explain_greedy_parallel_cached, explain_greedy_parallel_with_pvts,
    explain_group_test_parallel_cached, explain_group_test_parallel_with_pvts, Algorithm,
    Diagnosis,
};
pub use discovery::DiscoveryStats;
pub use dp_lint::{Diagnostic, Diagnostics, RuleId, Severity};
pub use dp_trace::{
    Collector, Event, JsonlSink, LatencyHistogram, NullSink, QueryStat, RunMetrics, SearchTree,
    TraceConfig, TraceRecord, TraceSink, Tracer,
};
pub use error::{PrismError, Result};
pub use explanation::Explanation;
pub use group_test::PartitionStrategy;
pub use lint::{lint_pvts, Ranked};
pub use oracle::{fingerprint, fingerprint_reference, System, SystemFactory};
pub use profile::{DependenceKind, OutlierSpec, Profile};
pub use pvt::Pvt;
pub use runtime::{par_map, Applied, Oracle, Source};
pub use transform::Transform;
pub use violation::violation;
