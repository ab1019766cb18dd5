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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prefilter {
    /// No screening: every eligible pair pays the exact test
    /// (the pre-PR-2 behavior).
    Off,
    /// Screen with the exact-equivalent estimates (floating-point
    /// slack only). The default.
    On,
    /// Like `On`, but demand the numeric estimate clear significance
    /// even after inflating it by this many standard errors — extra
    /// caution that trades screened pairs for slack against the
    /// estimate. `Threshold(0.0)` is equivalent to `On`.
    Threshold(f64),
}

impl Prefilter {
    /// The slack margin in standard-error units, or `None` when
    /// screening is disabled.
    pub fn margin(&self) -> Option<f64> {
        match self {
            Prefilter::Off => None,
            Prefilter::On => Some(0.0),
            Prefilter::Threshold(c) => Some(c.max(0.0)),
        }
    }
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

/// How the speculation executor schedules lookahead work.
///
/// Either way the serial-replay charging discipline is untouched:
/// speculation only warms the fingerprint cache, so explanations,
/// scores, traces, and intervention counts are bit-identical across
/// modes (asserted per cell by `tests/parallel_conformance.rs` and
/// `tests/trace_parity.rs`). The mode changes *which* frames get
/// pre-scored, never the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpeculationMode {
    /// Every cold bisection node speculates exactly
    /// `gt_speculation_depth` extra levels, and the detached pool
    /// queue is unbounded unless [`PrismConfig::speculation_budget`]
    /// says otherwise — the pre-adaptive behavior. The default.
    #[default]
    Static,
    /// An adaptive controller picks the effective depth per cold
    /// node, with `gt_speculation_depth` as the *cap*: it reads the
    /// run's live [`dp_trace::RunMetrics`] latency histogram and
    /// waste counters and speculates deep only when observed oracle
    /// latency is high (deep lookahead pays off exactly when a query
    /// costs much more than frame scoring). Also enforces a default
    /// in-flight frame budget when none is configured, so a slow
    /// oracle can never pile up unbounded speculative work.
    Adaptive,
}

impl SpeculationMode {
    /// The wire/CLI spelling (`"static"` / `"adaptive"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SpeculationMode::Static => "static",
            SpeculationMode::Adaptive => "adaptive",
        }
    }
}

/// Confidence-bounded sampled oracle queries.
///
/// With sampling on, an oracle query may first estimate `m_S(D)` on a
/// stratified row sample and **early-exit once the pass/fail decision
/// at τ is statistically settled** (a Hoeffding bound at the
/// configured confidence), escalating to the full dataset whenever
/// the estimate sits inside the confidence band of τ. Only queries
/// whose exact score is never consumed downstream (Make-Minimal's
/// rejected drop candidates) are eligible, and a confidently *passing*
/// estimate escalates too — a pass decision feeds the explanation's
/// score — so explanations, traces, and intervention counts stay
/// bit-for-bit identical to `Off` (`tests/sampled_oracle_differential.rs`
/// asserts this across every scenario × algorithm × thread count).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OracleSampling {
    /// Every query scores the full dataset (the pre-sampling
    /// behavior). The default.
    #[default]
    Off,
    /// Allow sampled early exits on decision-only queries.
    Bounded {
        /// Confidence level `1 − δ` of the Hoeffding settlement test,
        /// e.g. `0.999`. Clamped into `[0.5, 1)` at use sites.
        confidence: f64,
    },
}

impl OracleSampling {
    /// Whether sampling is enabled.
    pub fn is_enabled(&self) -> bool {
        matches!(self, OracleSampling::Bounded { .. })
    }
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
    /// (`2^(d+2) − 2` candidate frames per cold node). Under
    /// [`SpeculationMode::Static`] this is the exact depth; under
    /// [`SpeculationMode::Adaptive`] it is the **cap** the controller
    /// may choose up to. The knob has **no effect on results** —
    /// explanations, scores, traces, and intervention counts are
    /// bit-identical at every depth and thread count — only on wall
    /// clock and the speculative cache counters
    /// ([`crate::RunMetrics`]).
    pub gt_speculation_depth: usize,
    /// How the executor schedules speculative lookahead: fixed-depth
    /// [`SpeculationMode::Static`] (the default) or the
    /// latency-driven [`SpeculationMode::Adaptive`] controller.
    pub speculation: SpeculationMode,
    /// Hard bound on in-flight speculative frames (queued + being
    /// scored) in the detached pool. When the bound is hit the
    /// oldest queued frames are shed — never the search itself — so
    /// a slow oracle cannot pile up unbounded speculative work.
    /// `None` means unbounded in Static mode and a derived default
    /// (`8 × num_threads`, minimum 32) in Adaptive mode.
    pub speculation_budget: Option<usize>,
    /// Static analysis of the candidate PVT set before any oracle
    /// query (see [`Lint`]). Defaults to [`Lint::Report`].
    pub lint: Lint,
    /// Structured tracing of the run (see [`dp_trace::TraceConfig`]).
    /// Defaults to off; any sink observes the identical, serially
    /// ordered event stream — attaching one never changes the
    /// diagnosis (asserted by `tests/trace_parity.rs`).
    pub trace: dp_trace::TraceConfig,
    /// Confidence-bounded sampled oracle queries (see
    /// [`OracleSampling`]). Defaults to [`OracleSampling::Off`];
    /// `Bounded` never changes the diagnosis, only how many rows
    /// decision-only queries touch ([`dp_trace::RunMetrics`]'s
    /// `sampled_queries` / `escalations` / `rows_touched`).
    pub oracle_sampling: OracleSampling,
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
            speculation: SpeculationMode::default(),
            speculation_budget: None,
            lint: Lint::default(),
            trace: dp_trace::TraceConfig::default(),
            oracle_sampling: OracleSampling::default(),
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
    fn prefilter_margins() {
        assert_eq!(Prefilter::Off.margin(), None);
        assert_eq!(Prefilter::On.margin(), Some(0.0));
        assert_eq!(Prefilter::Threshold(1.5).margin(), Some(1.5));
        assert_eq!(Prefilter::Threshold(-2.0).margin(), Some(0.0));
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
    fn speculation_defaults_to_static_and_unbounded() {
        let c = PrismConfig::default();
        assert_eq!(c.speculation, SpeculationMode::Static);
        assert_eq!(c.speculation_budget, None);
    }

    #[test]
    fn oracle_sampling_defaults_off() {
        let c = PrismConfig::default();
        assert_eq!(c.oracle_sampling, OracleSampling::Off);
        assert!(!c.oracle_sampling.is_enabled());
        assert!(OracleSampling::Bounded { confidence: 0.999 }.is_enabled());
    }
}
