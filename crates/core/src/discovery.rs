//! Profile discovery and discriminative-PVT computation
//! (paper §3 / Fig 1 column "Discovery over D", and §4.1 step 1).

use crate::config::{DiscoveryConfig, Prefilter};
use crate::profile::{DependenceKind, Profile};
use crate::pvt::Pvt;
use crate::transform::{ImputeStrategy, OutlierRepair, Transform};
use crate::violation::{dependence, violation};
use dp_frame::{CmpOp, DType, DataFrame, Predicate};
use dp_stats::sketch::{self, CategoricalSketch, NumericSketch};
use dp_stats::Pattern;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counters of the pairwise independence pass, surfaced in
/// [`crate::Explanation`] and the markdown report next to the oracle
/// cache stats. Totals are deterministic for any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Unordered attribute pairs enumerated (summed over both
    /// datasets for a discriminative-PVT run).
    pub pairs: usize,
    /// χ² tests the sketch screened out (the pair's `Indep` profile
    /// was emitted with `alpha = 0` without building the exact
    /// contingency table).
    pub chi2_screened: usize,
    /// χ² tests that ran exactly.
    pub chi2_exact: usize,
    /// Pearson tests the sketch screened out.
    pub pearson_screened: usize,
    /// Pearson tests that ran exactly.
    pub pearson_exact: usize,
}

impl DiscoveryStats {
    /// Pair tests skipped thanks to the pre-filter.
    pub fn screened(&self) -> usize {
        self.chi2_screened + self.pearson_screened
    }

    /// Pair tests considered (screened + exact).
    pub fn tests(&self) -> usize {
        self.screened() + self.chi2_exact + self.pearson_exact
    }

    /// Add these counters to the `prefilter_*` fields of `metrics`:
    /// the one place a discovery pass's counts enter a
    /// [`dp_trace::RunMetrics`].
    pub fn count_into(&self, metrics: &mut dp_trace::RunMetrics) {
        metrics.prefilter_pairs += self.pairs as u64;
        metrics.prefilter_screened += self.screened() as u64;
        metrics.prefilter_chi2_screened += self.chi2_screened as u64;
        metrics.prefilter_exact += (self.chi2_exact + self.pearson_exact) as u64;
    }

    /// Accumulate another run's counters (e.g. the second dataset of
    /// a discriminative-PVT discovery).
    pub fn merge(&mut self, other: &DiscoveryStats) {
        self.pairs += other.pairs;
        self.chi2_screened += other.chi2_screened;
        self.chi2_exact += other.chi2_exact;
        self.pearson_screened += other.pearson_screened;
        self.pearson_exact += other.pearson_exact;
    }
}

/// Thread-safe counters for the pairwise pass; totals are identical
/// for any thread count because the set of screened pairs is
/// deterministic.
#[derive(Default)]
struct PairCounters {
    chi2_screened: AtomicUsize,
    chi2_exact: AtomicUsize,
    pearson_screened: AtomicUsize,
    pearson_exact: AtomicUsize,
}

impl PairCounters {
    fn snapshot(&self, pairs: usize) -> DiscoveryStats {
        DiscoveryStats {
            pairs,
            chi2_screened: self.chi2_screened.load(Ordering::Relaxed),
            chi2_exact: self.chi2_exact.load(Ordering::Relaxed),
            pearson_screened: self.pearson_screened.load(Ordering::Relaxed),
            pearson_exact: self.pearson_exact.load(Ordering::Relaxed),
        }
    }
}

/// Per-column pre-filter sketches of one frame, built once (fanned
/// out per column over [`crate::runtime::par_map`]) before the O(m²)
/// pairwise pass.
///
/// `categorical[i]` doubles as the cached χ²-eligibility decision:
/// it is `Some` exactly when the column is categorical/boolean with
/// at most `max_categorical_domain` distinct values — the check the
/// seed code re-derived (via `value_counts`) once per *pair*.
struct FrameSketches {
    numeric: Vec<Option<NumericSketch>>,
    categorical: Vec<Option<CategoricalSketch>>,
}

impl FrameSketches {
    fn build(df: &DataFrame, cfg: &DiscoveryConfig, num_threads: usize) -> Self {
        let schema = df.schema();
        let n_rows = df.n_rows();
        // Injective coding whenever the domain is χ²-eligible, capped
        // so a huge `max_categorical_domain` cannot blow up the
        // per-pair count table (beyond the cap codes are hashed and
        // the pair is never screened).
        let buckets = cfg
            .max_categorical_domain
            .clamp(sketch::DEFAULT_BUCKETS, 256);
        let field_indices: Vec<usize> = (0..schema.fields().len()).collect();
        let built = crate::runtime::par_map(field_indices, num_threads, |i| {
            let field = &schema.fields()[i];
            let Ok(col) = df.column(&field.name) else {
                return (None, None);
            };
            match field.dtype {
                DType::Int | DType::Float => {
                    (Some(NumericSketch::build(n_rows, &col.f64_values())), None)
                }
                DType::Categorical | DType::Bool => {
                    let counts = col.value_counts();
                    if counts.len() > cfg.max_categorical_domain {
                        return (None, None);
                    }
                    let mut codes: Vec<Option<u32>> = vec![None; n_rows];
                    if field.dtype == DType::Bool {
                        // `false` sorts before `true`, so the f64
                        // coercion matches the sorted-distinct index
                        // when both values occur.
                        let both = counts.len() == 2;
                        for (i, x) in col.f64_values() {
                            codes[i] = Some(if both { x as u32 } else { 0 });
                        }
                    } else {
                        let sorted: Vec<&str> = counts.iter().map(|(s, _)| s.as_str()).collect();
                        for (i, s) in col.str_values() {
                            codes[i] = sorted.binary_search(&s).ok().map(|p| p as u32);
                        }
                    }
                    (
                        None,
                        Some(CategoricalSketch::from_codes(&codes, counts.len(), buckets)),
                    )
                }
                DType::Text => (None, None),
            }
        });
        let (numeric, categorical) = built.into_iter().unzip();
        FrameSketches {
            numeric,
            categorical,
        }
    }
}

/// Discover the concretized profiles a dataset satisfies, per Fig 1.
///
/// Every returned profile has zero violation on `df` by construction
/// (its parameters are read off `df` itself), matching Definition 10's
/// requirement `X_V(D_pass, X_P) = 0` when called on the passing
/// dataset.
pub fn discover_profiles(df: &DataFrame, cfg: &DiscoveryConfig) -> Vec<Profile> {
    discover_profiles_stats(df, cfg, 1).0
}

/// [`discover_profiles`] with per-attribute (and per-attribute-pair)
/// fan-out over up to `num_threads` scoped worker threads, returning
/// the pre-filter counters of the pairwise pass alongside the
/// profiles. Results are collected in schema order, so the output is
/// identical for any thread count.
pub fn discover_profiles_stats(
    df: &DataFrame,
    cfg: &DiscoveryConfig,
    num_threads: usize,
) -> (Vec<Profile>, DiscoveryStats) {
    let mut out = Vec::new();
    let schema = df.schema();
    let n = df.n_rows();
    if n == 0 {
        return (out, DiscoveryStats::default());
    }
    // Per-attribute profiles.
    let field_indices: Vec<usize> = (0..schema.fields().len()).collect();
    let per_field = crate::runtime::par_map(field_indices, num_threads, |i| {
        field_profiles(df, &schema.fields()[i], n, cfg)
    });
    out.extend(per_field.into_iter().flatten());
    // Conditional profiles (§3 extension): per-slice numeric domains.
    if let Some(cond_attr) = &cfg.conditional_domains_on {
        if let Ok(cond_col) = df.column(cond_attr) {
            let values = cond_col.value_counts();
            if values.len() <= cfg.max_categorical_domain {
                for (value, count) in values {
                    if count < 2 {
                        continue; // single-tuple slices over-fit
                    }
                    let pred = Predicate::cmp(cond_attr.clone(), CmpOp::Eq, value.clone());
                    let Ok(subset) = df.filter_by(&pred) else {
                        continue;
                    };
                    for field in schema.fields() {
                        if !field.dtype.is_numeric() || &field.name == cond_attr {
                            continue;
                        }
                        let Ok(col) = subset.column(&field.name) else {
                            continue;
                        };
                        if let Some((lb, ub)) = col.min_max() {
                            out.push(Profile::Conditional {
                                condition: pred.clone(),
                                inner: Box::new(Profile::DomainNumeric {
                                    attr: field.name.clone(),
                                    lb,
                                    ub,
                                }),
                            });
                        }
                    }
                }
            }
        }
    }
    // Pairwise independence profiles (rows 7–9), fanned out per pair.
    // With the pre-filter enabled, per-column sketches are built once
    // (also fanned out) and pairs whose sketched dependence is already
    // insignificant emit `alpha = 0` directly — identical to what the
    // exact test would conclude — without paying for column
    // extraction, coding, and the exact statistic.
    let fields = schema.fields();
    let pair_relevant = cfg.indep_chi2 || cfg.indep_pearson || cfg.indep_causal;
    let sketches = (cfg.prefilter == Prefilter::On && pair_relevant && fields.len() > 1)
        .then(|| FrameSketches::build(df, cfg, num_threads));
    let mut pairs = Vec::new();
    for i in 0..fields.len() {
        for j in (i + 1)..fields.len() {
            pairs.push((i, j));
        }
    }
    let n_pairs = pairs.len();
    let counters = PairCounters::default();
    let per_pair = crate::runtime::par_map(pairs, num_threads, |(i, j)| {
        let (fa, fb) = (&fields[i], &fields[j]);
        let mut found = Vec::new();
        // χ² eligibility: categorical/boolean with a bounded domain.
        // The sketch caches this per column; without it the seed
        // re-derives it (via `value_counts`) for every pair.
        let cat = |idx: usize, f: &dp_frame::Field| match &sketches {
            Some(s) => s.categorical[idx].is_some(),
            None => {
                matches!(f.dtype, DType::Categorical | DType::Bool)
                    && df
                        .column(&f.name)
                        .map(|c| c.value_counts().len() <= cfg.max_categorical_domain)
                        .unwrap_or(false)
            }
        };
        let num = |f: &dp_frame::Field| f.dtype.is_numeric();
        if cfg.indep_chi2 && cat(i, fa) && cat(j, fb) {
            // Only order-preservingly coded pairs are screened: their
            // sketched χ² is bit-identical to the exact test, so
            // "insignificant" here is exactly the condition under
            // which `dependence` returns 0. (`is_exact` is weaker —
            // collision-free hashing matches only up to summation
            // order, which is not good enough for parity.)
            let screened = sketches.as_ref().is_some_and(|s| {
                let (Some(sa), Some(sb)) = (&s.categorical[i], &s.categorical[j]) else {
                    return false;
                };
                sa.is_order_preserving()
                    && sb.is_order_preserving()
                    && !sketch::chi2_estimate(sa, sb).significant(0.05)
            });
            let alpha = if screened {
                counters.chi2_screened.fetch_add(1, Ordering::Relaxed);
                0.0
            } else {
                counters.chi2_exact.fetch_add(1, Ordering::Relaxed);
                dependence(df, &fa.name, &fb.name, DependenceKind::Chi2)
            };
            found.push(Profile::Indep {
                a: fa.name.clone(),
                b: fb.name.clone(),
                alpha,
                kind: DependenceKind::Chi2,
            });
        }
        if cfg.indep_pearson && num(fa) && num(fb) {
            // The numeric estimate recovers the exact joint-pair
            // statistics (bitmap-masked when values are missing), so
            // an insignificant inflated estimate implies the exact
            // test is insignificant too.
            let screened = sketches.as_ref().is_some_and(|s| {
                let (Some(sa), Some(sb)) = (&s.numeric[i], &s.numeric[j]) else {
                    return false;
                };
                !sketch::pearson_upper(sa, sb).significant(0.05)
            });
            let alpha = if screened {
                counters.pearson_screened.fetch_add(1, Ordering::Relaxed);
                0.0
            } else {
                counters.pearson_exact.fetch_add(1, Ordering::Relaxed);
                dependence(df, &fa.name, &fb.name, DependenceKind::Pearson)
            };
            found.push(Profile::Indep {
                a: fa.name.clone(),
                b: fb.name.clone(),
                alpha,
                kind: DependenceKind::Pearson,
            });
        }
        if cfg.indep_causal && (num(fa) || cat(i, fa)) && (num(fb) || cat(j, fb)) {
            // Never screened: the SEM coefficient has no significance
            // gate, so no sketch outcome implies `alpha = 0`.
            let alpha = dependence(df, &fa.name, &fb.name, DependenceKind::Causal);
            found.push(Profile::Indep {
                a: fa.name.clone(),
                b: fb.name.clone(),
                alpha,
                kind: DependenceKind::Causal,
            });
        }
        // Mixed categorical/numeric pairs: χ² over the coded pair
        // is covered by the causal profile when enabled.
        found
    });
    out.extend(per_pair.into_iter().flatten());
    (out, counters.snapshot(n_pairs))
}

/// All single-attribute profiles of one field (the body of the
/// per-attribute discovery loop, extracted so the parallel variant
/// can fan it out per field).
fn field_profiles(
    df: &DataFrame,
    field: &dp_frame::Field,
    n: usize,
    cfg: &DiscoveryConfig,
) -> Vec<Profile> {
    let mut out = Vec::new();
    let col = df.column(&field.name).expect("schema-listed column");
    let null_frac = col.null_count() as f64 / n as f64;
    if cfg.missing {
        out.push(Profile::Missing {
            attr: field.name.clone(),
            theta: null_frac,
        });
    }
    match field.dtype {
        DType::Int | DType::Float => {
            if cfg.domains {
                if let Some((lb, ub)) = col.min_max() {
                    out.push(Profile::DomainNumeric {
                        attr: field.name.clone(),
                        lb,
                        ub,
                    });
                }
            }
            if let Some(spec) = cfg.outliers {
                let values: Vec<f64> = col.f64_values().into_iter().map(|(_, v)| v).collect();
                if let Some(det) = spec.fit(&values) {
                    let frac =
                        values.iter().filter(|&&v| det.is_outlier(v)).count() as f64 / n as f64;
                    out.push(Profile::Outlier {
                        attr: field.name.clone(),
                        detector: spec,
                        theta: frac,
                    });
                }
            }
        }
        DType::Categorical => {
            let counts = col.value_counts();
            if cfg.domains && counts.len() <= cfg.max_categorical_domain {
                out.push(Profile::DomainCategorical {
                    attr: field.name.clone(),
                    values: counts.iter().map(|(v, _)| v.clone()).collect(),
                });
            }
            if let Some(max_dom) = cfg.selectivity_max_domain {
                if counts.len() <= max_dom {
                    for (value, count) in &counts {
                        out.push(Profile::Selectivity {
                            predicate: Predicate::cmp(field.name.clone(), CmpOp::Eq, value.clone()),
                            theta: *count as f64 / n as f64,
                        });
                    }
                    if let Some(pair_attr) = &cfg.selectivity_pair_with {
                        if pair_attr != &field.name {
                            discover_pair_selectivity(
                                df,
                                &field.name,
                                &counts,
                                pair_attr,
                                max_dom,
                                &mut out,
                            );
                        }
                    }
                }
            }
        }
        DType::Text => {
            if cfg.domains {
                let values: Vec<&str> = col.str_values().into_iter().map(|(_, s)| s).collect();
                let pattern = Pattern::learn(&values).or_else(|| Pattern::length_only(&values));
                if let Some(pattern) = pattern {
                    out.push(Profile::DomainText {
                        attr: field.name.clone(),
                        pattern,
                    });
                }
            }
        }
        DType::Bool => {}
    }
    out
}

fn discover_pair_selectivity(
    df: &DataFrame,
    attr: &str,
    counts: &[(String, usize)],
    pair_attr: &str,
    max_dom: usize,
    out: &mut Vec<Profile>,
) {
    let Ok(pair_col) = df.column(pair_attr) else {
        return;
    };
    let pair_counts = pair_col.value_counts();
    if pair_counts.len() > max_dom {
        return;
    }
    let Ok(col) = df.column(attr) else {
        return;
    };
    // One joint-count pass over the two columns instead of a
    // full-frame `selectivity` scan per (v1, v2) cell — the scan was
    // O(|dom_a| · |dom_b| · n). An `attr = "v"` predicate matches
    // exactly the non-NULL string cells equal to `v` (cross-type
    // comparisons are never equal), so the joint string-cell counts
    // reproduce the conjunction's selectivity.
    let n = df.n_rows() as f64;
    let b_vals = pair_col.str_values();
    let mut b_at: Vec<Option<&str>> = vec![None; df.n_rows()];
    for &(i, s) in &b_vals {
        b_at[i] = Some(s);
    }
    let a_vals = col.str_values();
    let mut joint: HashMap<(&str, &str), usize> = HashMap::new();
    for &(i, sa) in &a_vals {
        if let Some(sb) = b_at[i] {
            *joint.entry((sa, sb)).or_insert(0) += 1;
        }
    }
    for (v1, _) in counts {
        for (v2, _) in &pair_counts {
            let Some(&count) = joint.get(&(v1.as_str(), v2.as_str())) else {
                // Skip empty cells: a never-seen combination is not a
                // meaningful selectivity expectation.
                continue;
            };
            let sel = count as f64 / n;
            // The historical guard, kept bit-for-bit: `sel * n` can
            // round just below 1.0 for a singleton cell at some n.
            if sel * n >= 1.0 {
                let pred = Predicate::cmp(attr, CmpOp::Eq, v1.clone()).and(Predicate::cmp(
                    pair_attr,
                    CmpOp::Eq,
                    v2.clone(),
                ));
                out.push(Profile::Selectivity {
                    predicate: pred,
                    theta: sel,
                });
            }
        }
    }
}

/// The primary transformation for a profile (Fig 1's first listed
/// alternative), plus the extra alternatives when requested.
pub fn transforms_for(profile: &Profile, alternatives: bool) -> Vec<Transform> {
    let mut out = Vec::new();
    match profile {
        Profile::DomainCategorical { attr, values } => {
            out.push(Transform::MapToDomain {
                attr: attr.clone(),
                values: values.clone(),
            });
        }
        Profile::DomainNumeric { attr, lb, ub } => {
            out.push(Transform::LinearRescale {
                attr: attr.clone(),
                lb: *lb,
                ub: *ub,
            });
            if alternatives {
                out.push(Transform::Winsorize {
                    attr: attr.clone(),
                    lb: *lb,
                    ub: *ub,
                });
            }
        }
        Profile::DomainText { attr, pattern } => {
            out.push(Transform::RepairText {
                attr: attr.clone(),
                pattern: pattern.clone(),
            });
        }
        Profile::Outlier { attr, detector, .. } => {
            out.push(Transform::ReplaceOutliers {
                attr: attr.clone(),
                detector: *detector,
                strategy: OutlierRepair::Mean,
            });
            if alternatives {
                out.push(Transform::ReplaceOutliers {
                    attr: attr.clone(),
                    detector: *detector,
                    strategy: OutlierRepair::Clamp,
                });
            }
        }
        Profile::Missing { attr, .. } => {
            out.push(Transform::Impute {
                attr: attr.clone(),
                strategy: ImputeStrategy::Central,
            });
        }
        Profile::Selectivity { predicate, theta } => {
            out.push(Transform::ResampleSelectivity {
                predicate: predicate.clone(),
                theta: *theta,
            });
        }
        Profile::Conditional { condition, inner } => {
            for t in transforms_for(inner, alternatives) {
                // Global inner transforms cannot be row-scoped; only
                // local repairs are lifted into the condition.
                if !t.is_global() {
                    out.push(Transform::Conditional {
                        condition: condition.clone(),
                        inner: Box::new(t),
                    });
                }
            }
        }
        Profile::Indep { a, b, alpha, kind } => match kind {
            DependenceKind::Chi2 => out.push(Transform::BreakDependenceShuffle {
                a: a.clone(),
                b: b.clone(),
                alpha: *alpha,
            }),
            DependenceKind::Pearson => out.push(Transform::DecorrelateNoise {
                a: a.clone(),
                b: b.clone(),
                alpha: *alpha,
            }),
            DependenceKind::Causal => out.push(Transform::Residualize {
                a: a.clone(),
                b: b.clone(),
            }),
        },
    }
    out
}

/// Step 1 of the paper's §4.1: discover PVTs over both datasets and
/// keep the *discriminative* ones — profiles of the passing dataset
/// whose parameter values differ over the failing dataset (or that
/// the failing dataset does not exhibit at all), filtered to those
/// the failing dataset actually violates (Definition 10 condition 5).
pub fn discriminative_pvts(
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    cfg: &DiscoveryConfig,
) -> Vec<Pvt> {
    discriminative_pvts_stats(d_pass, d_fail, cfg, 1).0
}

/// [`discriminative_pvts_stats`] emitting a
/// [`dp_trace::DiscoverySpan`] event once the pass completes (the
/// span carries only counters and elapsed time, never data).
pub(crate) fn discriminative_pvts_traced(
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    cfg: &DiscoveryConfig,
    num_threads: usize,
    tracer: &dp_trace::Tracer,
) -> (Vec<Pvt>, DiscoveryStats) {
    let start_ns = tracer.now_ns();
    let (pvts, stats) = discriminative_pvts_stats(d_pass, d_fail, cfg, num_threads);
    let elapsed_ns = tracer.now_ns().saturating_sub(start_ns);
    tracer.emit(|| {
        dp_trace::Event::Discovery(dp_trace::DiscoverySpan {
            n_pvts: pvts.len(),
            pairs: stats.pairs as u64,
            screened: stats.screened() as u64,
            exact: (stats.chi2_exact + stats.pearson_exact) as u64,
            elapsed_ns,
        })
    });
    (pvts, stats)
}

/// [`discriminative_pvts`] with profile discovery fanned out over up
/// to `num_threads` worker threads (both datasets concurrently, each
/// per attribute), returning the pre-filter counters (merged over
/// both datasets) alongside the PVTs. Output is identical for any
/// thread count.
pub fn discriminative_pvts_stats(
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    cfg: &DiscoveryConfig,
    num_threads: usize,
) -> (Vec<Pvt>, DiscoveryStats) {
    // Split the workers across the two datasets; each side fans out
    // per attribute with its share.
    let mut results = if num_threads > 1 {
        let side_threads = (num_threads / 2).max(1);
        crate::runtime::par_map(vec![d_pass, d_fail], 2, |df| {
            discover_profiles_stats(df, cfg, side_threads)
        })
    } else {
        vec![
            discover_profiles_stats(d_pass, cfg, 1),
            discover_profiles_stats(d_fail, cfg, 1),
        ]
    };
    let (fail_profiles, fail_stats) = results.pop().expect("two datasets mapped");
    let (pass_profiles, mut stats) = results.pop().expect("two datasets mapped");
    stats.merge(&fail_stats);
    // Index the failing side by template key: the identical-profile
    // check is then a bucket probe instead of a scan over every
    // failing profile (wide schemas discover O(m²) Indep profiles,
    // and a scan per passing profile would be O(m⁴) comparisons).
    let mut fail_index: HashMap<String, Vec<&Profile>> = HashMap::new();
    for fp in &fail_profiles {
        fail_index.entry(fp.template_key()).or_default().push(fp);
    }
    let mut pvts = Vec::new();
    let mut id = 0;
    for profile in pass_profiles {
        let identical = fail_index
            .get(&profile.template_key())
            .is_some_and(|bucket| {
                bucket
                    .iter()
                    .any(|fp| fp.same_parameters(&profile, cfg.param_tolerance))
            });
        if identical {
            continue;
        }
        if violation(d_fail, &profile) <= 0.0 {
            continue;
        }
        for transform in transforms_for(&profile, cfg.alternative_transforms) {
            pvts.push(Pvt {
                id,
                profile: profile.clone(),
                transform,
            });
            id += 1;
        }
    }
    (pvts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::Column;

    fn cat(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(
            name,
            DType::Categorical,
            vals.iter().map(|s| Some(s.to_string())).collect(),
        )
    }

    fn sentiment_pair() -> (DataFrame, DataFrame) {
        let pass = DataFrame::from_columns(vec![
            cat("target", &["-1", "1", "1", "-1", "1", "-1"]),
            Column::from_ints(
                "len",
                vec![
                    Some(100),
                    Some(150),
                    Some(120),
                    Some(90),
                    Some(140),
                    Some(100),
                ],
            ),
        ])
        .unwrap();
        let fail = DataFrame::from_columns(vec![
            cat("target", &["0", "4", "4", "0", "4", "0"]),
            Column::from_ints(
                "len",
                vec![Some(20), Some(25), Some(22), Some(18), Some(24), Some(21)],
            ),
        ])
        .unwrap();
        (pass, fail)
    }

    #[test]
    fn discovers_fig1_profiles() {
        let (pass, _) = sentiment_pair();
        let profiles = discover_profiles(&pass, &DiscoveryConfig::default());
        let keys: Vec<String> = profiles.iter().map(|p| p.template_key()).collect();
        assert!(keys.contains(&"domain_cat(target)".to_string()), "{keys:?}");
        assert!(keys.contains(&"domain_num(len)".to_string()));
        assert!(keys.contains(&"missing(target)".to_string()));
        assert!(keys.contains(&"missing(len)".to_string()));
        assert!(keys.iter().any(|k| k.starts_with("selectivity")));
    }

    #[test]
    fn discovered_profiles_have_zero_self_violation() {
        let (pass, _) = sentiment_pair();
        for p in discover_profiles(&pass, &DiscoveryConfig::default()) {
            assert!(
                violation(&pass, &p) < 1e-9,
                "self-violation of {p} was {}",
                violation(&pass, &p)
            );
        }
    }

    #[test]
    fn discriminative_pvts_capture_the_sentiment_mismatch() {
        let (pass, fail) = sentiment_pair();
        let pvts = discriminative_pvts(&pass, &fail, &DiscoveryConfig::default());
        assert!(!pvts.is_empty());
        // The Domain profile on target must be among them.
        assert!(
            pvts.iter()
                .any(|p| p.profile.template_key() == "domain_cat(target)"),
            "{:?}",
            pvts.iter()
                .map(|p| p.profile.template_key())
                .collect::<Vec<_>>()
        );
        // Every discriminative PVT is violated by the failing data and
        // satisfied by the passing data (Definition 10).
        for p in &pvts {
            assert!(p.violation(&fail) > 0.0, "{}", p.profile);
            assert!(p.violation(&pass) < 1e-9, "{}", p.profile);
        }
        // Ids are sequential.
        for (i, p) in pvts.iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn identical_datasets_yield_no_discriminative_pvts() {
        let (pass, _) = sentiment_pair();
        let pvts = discriminative_pvts(&pass, &pass.clone(), &DiscoveryConfig::default());
        assert!(pvts.is_empty());
    }

    #[test]
    fn pair_selectivity_discovery() {
        let df = DataFrame::from_columns(vec![
            cat("gender", &["F", "F", "M", "M", "M", "M"]),
            cat("high", &["yes", "no", "yes", "yes", "no", "yes"]),
        ])
        .unwrap();
        let cfg = DiscoveryConfig {
            selectivity_pair_with: Some("high".into()),
            ..Default::default()
        };
        let profiles = discover_profiles(&df, &cfg);
        let pair = profiles.iter().any(|p| {
            matches!(p, Profile::Selectivity { predicate, .. }
                if predicate.to_string().contains('∧'))
        });
        assert!(pair, "conjunctive selectivity profile discovered");
    }

    #[test]
    fn pair_selectivity_matches_bruteforce_on_max_domain() {
        // Maximum-domain categorical pair (12 × 12 at the default
        // `selectivity_max_domain`), with NULLs in both columns and
        // singleton cells at n = 49 — the row count where a
        // singleton's `sel * n` can round below 1.0, exercising the
        // historical guard. The joint-count rewrite must reproduce
        // the per-cell `DataFrame::selectivity` scan bit for bit.
        let n = 49;
        let a_vals: Vec<Option<String>> = (0..n)
            .map(|i| {
                if i % 10 == 9 {
                    None
                } else {
                    Some(format!("a{:02}", i % 12))
                }
            })
            .collect();
        let b_vals: Vec<Option<String>> = (0..n)
            .map(|i| {
                if i % 7 == 6 {
                    None
                } else {
                    Some(format!("b{:02}", (i / 2) % 12))
                }
            })
            .collect();
        let df = DataFrame::from_columns(vec![
            Column::from_strings("a", DType::Categorical, a_vals),
            Column::from_strings("b", DType::Categorical, b_vals),
        ])
        .unwrap();

        // Brute force: the pre-rewrite implementation — a full-frame
        // selectivity scan per (v1, v2) cell.
        let counts = df.column("a").unwrap().value_counts();
        let pair_counts = df.column("b").unwrap().value_counts();
        assert_eq!(counts.len(), 12);
        assert_eq!(pair_counts.len(), 12);
        let nf = df.n_rows() as f64;
        let mut expected = Vec::new();
        for (v1, _) in &counts {
            for (v2, _) in &pair_counts {
                let pred = Predicate::cmp("a", CmpOp::Eq, v1.clone()).and(Predicate::cmp(
                    "b",
                    CmpOp::Eq,
                    v2.clone(),
                ));
                let sel = df.selectivity(&pred).unwrap();
                if sel * nf >= 1.0 {
                    expected.push(Profile::Selectivity {
                        predicate: pred,
                        theta: sel,
                    });
                }
            }
        }
        assert!(!expected.is_empty());

        let mut actual = Vec::new();
        discover_pair_selectivity(&df, "a", &counts, "b", 12, &mut actual);
        assert_eq!(actual, expected);
    }

    #[test]
    fn prefilter_parity_and_counters_on_fixture() {
        let (pass, fail) = sentiment_pair();
        let on = DiscoveryConfig::default();
        let off = DiscoveryConfig {
            prefilter: crate::config::Prefilter::Off,
            ..Default::default()
        };
        for df in [&pass, &fail] {
            let (p_off, s_off) = discover_profiles_stats(df, &off, 1);
            let (p_on, s_on) = discover_profiles_stats(df, &on, 1);
            assert_eq!(p_off, p_on, "profile parity");
            assert_eq!(s_off.screened(), 0, "Off never screens");
            assert_eq!(s_off.pairs, s_on.pairs, "same pairs surveyed");
            assert_eq!(s_on.tests(), s_off.tests(), "same tests considered");
        }
        let (pvts_off, _) = discriminative_pvts_stats(&pass, &fail, &off, 1);
        let (pvts_on, stats_on) = discriminative_pvts_stats(&pass, &fail, &on, 1);
        assert_eq!(pvts_off, pvts_on, "discriminative PVT parity");
        assert_eq!(stats_on.pairs, 2, "one pair per frame");
    }

    #[test]
    fn alternative_transforms_flag() {
        let profile = Profile::DomainNumeric {
            attr: "x".into(),
            lb: 0.0,
            ub: 1.0,
        };
        assert_eq!(transforms_for(&profile, false).len(), 1);
        assert_eq!(transforms_for(&profile, true).len(), 2);
    }

    #[test]
    fn indep_profiles_for_planted_dependence() {
        // pass: independent; fail: perfectly dependent.
        let mut pa = Vec::new();
        let mut pb = Vec::new();
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        for i in 0..80 {
            pa.push(if i % 2 == 0 { "x" } else { "y" });
            pb.push(if (i / 2) % 2 == 0 { "p" } else { "q" });
            fa.push(if i % 2 == 0 { "x" } else { "y" });
            fb.push(if i % 2 == 0 { "p" } else { "q" });
        }
        let pass = DataFrame::from_columns(vec![cat("a", &pa), cat("b", &pb)]).unwrap();
        let fail = DataFrame::from_columns(vec![cat("a", &fa), cat("b", &fb)]).unwrap();
        let pvts = discriminative_pvts(&pass, &fail, &DiscoveryConfig::default());
        assert!(
            pvts.iter()
                .any(|p| p.profile.template_key() == "indep_chi2(a,b)"),
            "{:?}",
            pvts.iter()
                .map(|p| p.profile.template_key())
                .collect::<Vec<_>>()
        );
    }
}
