//! Configuration of discovery and diagnosis.

use crate::profile::OutlierSpec;

/// Pre-filter policy for the pairwise independence pass.
///
/// Discovery builds per-column sketches ([`dp_stats::sketch`]) once
/// per frame and skips the exact χ²/Pearson test on pairs whose
/// sketched dependence estimate is already insignificant. The
/// estimates are exact-equivalent in the default configuration —
/// numeric estimates recover the joint-pair statistics through a
/// presence bitmap, and categorical domains at or below the sketch
/// bucket width are coded injectively (only injectively coded pairs
/// are ever screened) — so screening preserves the discovered
/// profile set bit for bit; `tests/prefilter_parity.rs` asserts this
/// on every scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefilter {
    /// No screening: every eligible pair pays the exact test
    /// (the pre-PR-2 behavior).
    Off,
    /// Screen with the exact-equivalent estimates (floating-point
    /// slack only). The default.
    On,
}

/// Which PVT classes discovery emits and with what knobs.
///
/// The paper's scope assumption (§1 "Scope") is that the *classes* of
/// candidate profiles are known for the task at hand; this struct is
/// that knowledge. The defaults enable every Fig 1 row that is cheap
/// to discover; causal profiles and pairwise selectivity are opt-in
/// because their candidate spaces are quadratic.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Emit Domain profiles (rows 1–3).
    pub domains: bool,
    /// Emit Outlier profiles (row 4) with this detector.
    pub outliers: Option<OutlierSpec>,
    /// Emit Missing profiles (row 5).
    pub missing: bool,
    /// Emit single-attribute Selectivity profiles (`attr = value`)
    /// for categorical attributes with at most this many distinct
    /// values (row 6). `None` disables.
    pub selectivity_max_domain: Option<usize>,
    /// Additionally emit pairwise Selectivity profiles
    /// (`attr = value ∧ target = value`) conjoined with this
    /// designated attribute — the shape of the paper's
    /// `gender = F ∧ high_expenditure = yes`.
    pub selectivity_pair_with: Option<String>,
    /// Emit χ² Indep profiles for categorical pairs (row 7).
    pub indep_chi2: bool,
    /// Emit Pearson Indep profiles for numeric pairs (row 8).
    pub indep_pearson: bool,
    /// Emit causal Indep profiles (row 9, expensive).
    pub indep_causal: bool,
    /// Categorical attributes with more distinct values than this do
    /// not get Domain/Indep profiles (they are effectively text).
    pub max_categorical_domain: usize,
    /// Discover **conditional profiles** (the paper's §3 extension):
    /// for each value `v` of this categorical attribute, per-slice
    /// numeric Domain profiles `⟨attr = v ⟹ Domain(A_j, …)⟩` are
    /// emitted. `None` disables conditional discovery.
    pub conditional_domains_on: Option<String>,
    /// Sketch-based screening of the O(m²) pairwise independence
    /// pass (see [`Prefilter`]).
    pub prefilter: Prefilter,
    /// Numeric tolerance when deciding whether two concretized
    /// profiles are "identical" (step 1 of §4.1).
    pub param_tolerance: f64,
    /// Also emit the alternative transformation functions Fig 1
    /// lists (winsorize for row 2, clamp for row 4, …) as additional
    /// PVTs sharing the same profile.
    pub alternative_transforms: bool,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            domains: true,
            outliers: Some(OutlierSpec::ZScore(3.0)),
            missing: true,
            selectivity_max_domain: Some(12),
            selectivity_pair_with: None,
            indep_chi2: true,
            indep_pearson: true,
            indep_causal: false,
            max_categorical_domain: 30,
            conditional_domains_on: None,
            prefilter: Prefilter::On,
            param_tolerance: 0.02,
            alternative_transforms: false,
        }
    }
}

/// Static lint policy over the candidate PVT set (crate `dp_lint`).
///
/// The lint pass runs after discovery (or on the caller-supplied
/// candidate set) and **before any oracle query**: rules L1–L5 check
/// schema typing, violation–transform consistency, no-op coverage,
/// write conflicts, and dependency-graph sanity. The findings are
/// surfaced as [`crate::Diagnostics`] in the
/// [`crate::Explanation::lint`] field and the markdown report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lint {
    /// Skip the analysis entirely (`Explanation::lint.analyzed` is
    /// false).
    Off,
    /// Analyze and report, but diagnose the full candidate set — the
    /// pre-lint behavior with diagnostics attached. The default.
    #[default]
    Report,
    /// Analyze, report, and **drop Error-level candidates before
    /// Greedy/GT ranking**. Pruned candidates are provably futile
    /// (certified no-ops, unsatisfiable typings, fixes that cannot
    /// move their profile), so each drop saves the oracle queries a
    /// run would have spent exploring it; the count is surfaced as
    /// [`crate::RunMetrics::lint_pruned`]. On candidates produced by
    /// discovery the rules never fire (discriminative PVTs have
    /// positive violation and coverage by construction), so pruning
    /// is a bit-identical no-op there — `tests/lint_parity.rs`
    /// asserts this on every scenario, thread count, and algorithm.
    Prune,
}

/// Top-level configuration for a diagnosis run.
#[derive(Debug, Clone)]
pub struct PrismConfig {
    /// Acceptable-malfunction threshold `τ` (Definition 3).
    pub threshold: f64,
    /// RNG seed for randomized transformations and partitioning.
    pub seed: u64,
    /// Hard cap on oracle interventions.
    pub max_interventions: usize,
    /// Discovery knobs.
    pub discovery: DiscoveryConfig,
    /// Run the Make-Minimal post-processing (Algorithm 1 line 20).
    /// Disable only for ablation studies.
    pub make_minimal: bool,
    /// Use benefit scores (observations O2/O3) to rank candidate
    /// PVTs. When false, candidates rank uniformly (ties broken by
    /// id) — an ablation of the paper's §4.2 design choice.
    pub use_benefit: bool,
    /// Restrict each greedy pick to PVTs adjacent to the
    /// highest-degree attributes (observation O1). When false, every
    /// live PVT is eligible — an ablation of the PVT–attribute-graph
    /// prioritization.
    pub use_high_degree: bool,
    /// Worker threads for the parallel intervention runtime
    /// ([`crate::runtime`]) and parallel discovery. `1` runs fully
    /// serially; any value produces bit-for-bit identical
    /// explanations and intervention counts — parallelism only warms
    /// the oracle's fingerprint cache speculatively. Defaults to the
    /// machine's available parallelism.
    pub num_threads: usize,
    /// Depth of speculative lookahead into the group-testing
    /// recursion tree (`num_threads > 1` only). At every bisection
    /// node not already covered by an ancestor's frontier, worker
    /// threads pre-bisect this many *additional* levels of the
    /// recursion tree and score the descendant half-compositions
    /// into the fingerprint cache: `0` overlaps only the node's own
    /// two halves (the pre-speculation behavior), `1` adds the four
    /// grandchildren, `2` the great-grandchildren, and so on
    /// (`2^(d+2) − 2` candidate frames per cold node); a node whose
    /// candidate pairs all provably commute (lint L8) speculates one
    /// level deeper. The knob has **no effect on results** —
    /// explanations, scores, traces, and intervention counts are
    /// bit-identical at every depth and thread count — only on wall
    /// clock and the speculative cache counters
    /// ([`crate::RunMetrics`]).
    pub gt_speculation_depth: usize,
    /// Hard bound on in-flight speculative frames (queued + being
    /// scored) in the detached pool. When the bound is hit the
    /// oldest queued frames are shed — never the search itself — so
    /// a slow oracle cannot pile up unbounded speculative work.
    /// `None` (the default) means unbounded.
    pub speculation_budget: Option<usize>,
    /// Static analysis of the candidate PVT set before any oracle
    /// query (see [`Lint`]). Defaults to [`Lint::Report`].
    pub lint: Lint,
    /// Structured tracing of the run (see [`dp_trace::TraceConfig`]).
    /// Defaults to off; any sink observes the identical, serially
    /// ordered event stream — attaching one never changes the
    /// diagnosis (asserted by `tests/trace_parity.rs`).
    pub trace: dp_trace::TraceConfig,
}

impl Default for PrismConfig {
    fn default() -> Self {
        PrismConfig {
            threshold: 0.2,
            seed: 0xDA7A,
            max_interventions: 100_000,
            discovery: DiscoveryConfig::default(),
            make_minimal: true,
            use_benefit: true,
            use_high_degree: true,
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            gt_speculation_depth: 1,
            speculation_budget: None,
            lint: Lint::default(),
            trace: dp_trace::TraceConfig::default(),
        }
    }
}

impl PrismConfig {
    /// Config with the given threshold, other fields default.
    pub fn with_threshold(threshold: f64) -> Self {
        PrismConfig {
            threshold,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_cheap_profiles() {
        let c = DiscoveryConfig::default();
        assert!(c.domains && c.missing && c.indep_chi2 && c.indep_pearson);
        assert!(!c.indep_causal, "causal discovery is opt-in");
        assert!(c.outliers.is_some());
    }

    #[test]
    fn prefilter_defaults_on() {
        assert_eq!(DiscoveryConfig::default().prefilter, Prefilter::On);
    }

    #[test]
    fn with_threshold_sets_tau() {
        let c = PrismConfig::with_threshold(0.35);
        assert_eq!(c.threshold, 0.35);
        assert!(c.make_minimal);
    }

    #[test]
    fn lint_defaults_to_report() {
        assert_eq!(PrismConfig::default().lint, Lint::Report);
        assert_eq!(Lint::default(), Lint::Report);
    }

    #[test]
    fn speculation_defaults_to_unbounded() {
        assert_eq!(PrismConfig::default().speculation_budget, None);
    }
}
