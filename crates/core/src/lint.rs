//! Bridge between the runtime's `Profile`/`Transform` enums and the
//! [`dp_lint`] static analyzer.
//!
//! `dp_lint` is deliberately decoupled from this crate: it checks
//! [`dp_lint::CandidateFacts`] records, not PVTs. This module lowers
//! each candidate [`Pvt`] into facts — typed attribute reads/writes,
//! the profile's observed violation on `D_fail`, the transform's
//! coverage, and (when statically known) the write target — and runs
//! [`dp_lint::analyze`] over them together with the schema and the
//! PVT-dependency edges, **before any oracle query** is spent.
//!
//! Under [`Lint::Prune`] the Error-level candidates are dropped from
//! the ranking. The lowering is sound for pruning: a fact is only
//! strong enough to produce an `Error` when the corresponding futility
//! is provable (e.g. `coverage_is_exact` is set only for transforms
//! whose zero-coverage application is a bit-exact identity), so a
//! pruned candidate could never have changed the explanation — only
//! cost interventions. `tests/lint_parity.rs` asserts this end to end.

use crate::benefit::benefit_scores;
use crate::config::{Lint, PrismConfig};
use crate::error::{PrismError, Result};
use crate::graph::PvtAttributeGraph;
use crate::oracle::fingerprint;
use crate::profile::Profile;
use crate::pvt::Pvt;
use crate::transform::Transform;
use dp_frame::DataFrame;
use dp_lint::absint::{TransferOp, ValueRegion};
use dp_lint::domains::{AbsCol, AbsState, Interval, SupportDom};
use dp_lint::{AttrRequirement, CandidateFacts, Diagnostics, TypeClass, WriteTarget};
use dp_stats::sketch::ColumnSummary;
use dp_trace::RunMetrics;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Typed attribute reads a profile performs when its violation is
/// evaluated.
fn profile_reads(profile: &Profile) -> Vec<AttrRequirement> {
    match profile {
        Profile::DomainCategorical { attr, .. } | Profile::DomainText { attr, .. } => {
            vec![AttrRequirement::new(attr, TypeClass::Textual)]
        }
        Profile::DomainNumeric { attr, .. } | Profile::Outlier { attr, .. } => {
            vec![AttrRequirement::new(attr, TypeClass::Numeric)]
        }
        Profile::Missing { attr, .. } => vec![AttrRequirement::new(attr, TypeClass::Any)],
        Profile::Selectivity { predicate, .. } => predicate
            .columns()
            .into_iter()
            .map(|c| AttrRequirement::new(c, TypeClass::Any))
            .collect(),
        // Every dependence measure coerces both columns: χ² builds
        // the contingency table over stringified values, and the
        // Pearson/SEM paths integer-code categoricals (Fig 1 row 9
        // supports mixed "categorical, numerical" pairs). No dtype is
        // inadmissible.
        Profile::Indep { a, b, .. } => vec![
            AttrRequirement::new(a, TypeClass::Any),
            AttrRequirement::new(b, TypeClass::Any),
        ],
        Profile::Conditional { condition, inner } => {
            let mut reads: Vec<AttrRequirement> = condition
                .columns()
                .into_iter()
                .map(|c| AttrRequirement::new(c, TypeClass::Any))
                .collect();
            reads.extend(profile_reads(inner));
            reads
        }
    }
}

/// Typed reads, typed writes, and the rewrites-everything flag of a
/// transformation.
fn transform_io(t: &Transform) -> (Vec<AttrRequirement>, Vec<AttrRequirement>, bool) {
    match t {
        Transform::MapToDomain { attr, .. } | Transform::RepairText { attr, .. } => (
            Vec::new(),
            vec![AttrRequirement::new(attr, TypeClass::Textual)],
            false,
        ),
        Transform::LinearRescale { attr, .. }
        | Transform::Winsorize { attr, .. }
        | Transform::ReplaceOutliers { attr, .. } => (
            Vec::new(),
            vec![AttrRequirement::new(attr, TypeClass::Numeric)],
            false,
        ),
        Transform::Impute { attr, .. } => (
            Vec::new(),
            vec![AttrRequirement::new(attr, TypeClass::Any)],
            false,
        ),
        // Row resampling drops/duplicates whole tuples: every
        // attribute is rewritten, so no "fix touches no profile
        // attribute" reasoning applies.
        Transform::ResampleSelectivity { predicate, .. } => (
            predicate
                .columns()
                .into_iter()
                .map(|c| AttrRequirement::new(c, TypeClass::Any))
                .collect(),
            Vec::new(),
            true,
        ),
        Transform::BreakDependenceShuffle { a, b, .. } => (
            vec![AttrRequirement::new(a, TypeClass::Any)],
            vec![AttrRequirement::new(b, TypeClass::Any)],
            false,
        ),
        // Like the dependence profiles they repair, these regress on
        // coerced values (categoricals are integer-coded), so any
        // dtype is admissible on either side.
        Transform::DecorrelateNoise { a, b, .. } | Transform::Residualize { a, b } => (
            vec![AttrRequirement::new(a, TypeClass::Any)],
            vec![AttrRequirement::new(b, TypeClass::Any)],
            false,
        ),
        Transform::Conditional { condition, inner } => {
            let (mut reads, writes, rewrites_all) = transform_io(inner);
            reads.extend(
                condition
                    .columns()
                    .into_iter()
                    .map(|c| AttrRequirement::new(c, TypeClass::Any)),
            );
            (reads, writes, rewrites_all)
        }
    }
}

/// Whether [`Transform::coverage`] returning `0.0` certifies that an
/// application is a **bit-exact identity** on that frame. Only then
/// may L3 emit an `Error` (prunable); otherwise zero coverage is a
/// `Warn`. `LinearRescale` is excluded (its re-mapping arithmetic is
/// not bit-exact even when the range matches within tolerance), as are
/// the stochastic/global transforms and `RepairText` (a value matching
/// the length bounds can still be edited toward the pattern).
fn coverage_is_exact(t: &Transform) -> bool {
    matches!(
        t,
        Transform::MapToDomain { .. }
            | Transform::Winsorize { .. }
            | Transform::Impute { .. }
            | Transform::ReplaceOutliers { .. }
    )
}

/// The statically-known target a transformation writes into an
/// attribute, for L4 conflict detection. `None` when the target is
/// data-dependent (imputation, resampling, noise, …).
fn write_target(t: &Transform) -> Option<(String, WriteTarget)> {
    match t {
        Transform::MapToDomain { attr, values } => {
            Some((attr.clone(), WriteTarget::Domain(values.clone())))
        }
        Transform::LinearRescale { attr, lb, ub } | Transform::Winsorize { attr, lb, ub } => {
            Some((attr.clone(), WriteTarget::Range { lb: *lb, ub: *ub }))
        }
        Transform::Conditional { inner, .. } => write_target(inner),
        _ => None,
    }
}

/// Seed the abstract-interpretation state exactly from `D_fail`: per
/// column, the observed min/max hull (degrading to `Top` when any
/// non-finite value was seen), the exact null fraction, and the
/// distinct string support up to the summary cap. By construction the
/// seeded state *contains* the concrete frame, the soundness
/// precondition of every L6/L7/L9 certificate.
pub fn seed_state(d_fail: &DataFrame) -> AbsState {
    let mut state = AbsState::new();
    for col in d_fail.columns() {
        let s = ColumnSummary::build(col);
        let nf = s.null_fraction();
        let interval = if col.dtype().is_numeric() {
            match (s.min, s.max, s.non_finite) {
                (_, _, true) => Interval::Top,
                (Some(lo), Some(hi), false) => Interval::range(lo, hi),
                _ => Interval::Empty,
            }
        } else if col.dtype().is_string() {
            // String columns hold no numeric values at all.
            Interval::Empty
        } else {
            Interval::Top
        };
        let support = match s.support {
            Some(values) => SupportDom::Set(values.into_iter().collect()),
            None if col.dtype().is_string() => SupportDom::Top,
            // Non-string columns hold no string values.
            None if col.dtype().is_numeric() => SupportDom::Set(Default::default()),
            None => SupportDom::Top,
        };
        state.set(
            col.name(),
            AbsCol {
                interval,
                null_lo: nf,
                null_hi: nf,
                support,
            },
        );
    }
    state
}

/// Lower a transformation chain into the analyzer's abstract transfer
/// ops. Every transformation lowers (the stochastic ones to the
/// `Top`-producing ops, which certify nothing but stay sound), and
/// `Conditional` wraps its inner chain in `Guarded` — the abstract
/// engine then joins the guarded effect with the identity, which is
/// how L9 reaches exact no-ops hidden under a predicate.
fn lower_transfer(t: &Transform) -> Vec<TransferOp> {
    match t {
        Transform::MapToDomain { attr, values } => vec![TransferOp::MapIntoDomain {
            attr: attr.clone(),
            values: values.clone(),
        }],
        Transform::LinearRescale { attr, lb, ub } => vec![TransferOp::AffineToRange {
            attr: attr.clone(),
            lb: *lb,
            ub: *ub,
        }],
        Transform::Winsorize { attr, lb, ub } => vec![TransferOp::Clamp {
            attr: attr.clone(),
            lb: *lb,
            ub: *ub,
        }],
        Transform::RepairText { attr, .. } => {
            vec![TransferOp::RepairPattern { attr: attr.clone() }]
        }
        Transform::ReplaceOutliers { attr, .. } => {
            vec![TransferOp::BoundOutliers { attr: attr.clone() }]
        }
        Transform::Impute { attr, .. } => vec![TransferOp::FillNulls { attr: attr.clone() }],
        Transform::ResampleSelectivity { .. } => vec![TransferOp::ResampleRows],
        Transform::BreakDependenceShuffle { b, .. } => {
            vec![TransferOp::PermuteValues { attr: b.clone() }]
        }
        Transform::DecorrelateNoise { b, .. } | Transform::Residualize { b, .. } => {
            vec![TransferOp::Perturb { attr: b.clone() }]
        }
        Transform::Conditional { inner, .. } => lower_transfer(inner)
            .into_iter()
            .map(|op| TransferOp::Guarded(Box::new(op)))
            .collect(),
    }
}

/// L6's syntactic function key: `Some` iff the transformation is
/// deterministic, in which case equal keys mean the bit-identical
/// pure function — interchangeable in *any* evaluation context, not
/// just on `D_fail`.
fn transform_key(t: &Transform) -> Option<String> {
    t.is_deterministic().then(|| format!("{t:?}"))
}

/// The violated region of a profile constraining a single attribute,
/// for the L7 τ-unreachability certificate. `None` for profiles whose
/// violation is not a simple region-membership fraction (outlier
/// refitting, selectivity, dependence) and for conditional profiles
/// (the violation is computed over a data-dependent subset).
fn profile_region(p: &Profile) -> Option<(String, ValueRegion)> {
    match p {
        Profile::DomainNumeric { attr, lb, ub } => {
            Some((attr.clone(), ValueRegion::Range { lb: *lb, ub: *ub }))
        }
        Profile::DomainCategorical { attr, values } => {
            Some((attr.clone(), ValueRegion::Domain(values.clone())))
        }
        Profile::Missing { attr, theta } => {
            Some((attr.clone(), ValueRegion::NullFracAtMost(*theta)))
        }
        _ => None,
    }
}

/// Lower one candidate PVT into the analyzer's fact record. Public
/// so property tests can compare the lowered transfer chain's
/// abstract post-state against the concrete [`Transform::apply`]
/// result without re-implementing the lowering.
pub fn candidate_facts(pvt: &Pvt, d_fail: &DataFrame) -> CandidateFacts {
    let mut facts = CandidateFacts::new(pvt.id, pvt.profile.template_key());
    let (t_reads, t_writes, rewrites_all) = transform_io(&pvt.transform);
    facts.transform_reads = t_reads.iter().map(|r| r.attr.clone()).collect();
    facts.reads = profile_reads(&pvt.profile);
    facts.reads.extend(t_reads);
    facts.writes = t_writes;
    facts.rewrites_all_attributes = rewrites_all;
    facts.profile_attributes = pvt.profile.attributes();
    facts.profile_violation_on_fail = pvt.violation(d_fail);
    facts.coverage_on_fail = pvt.transform.coverage(d_fail);
    facts.coverage_is_exact = coverage_is_exact(&pvt.transform);
    facts.write_target = write_target(&pvt.transform);
    facts.transfer = lower_transfer(&pvt.transform);
    facts.transform_key = transform_key(&pvt.transform);
    facts.profile_region = profile_region(&pvt.profile);
    facts
}

/// Run the full L1–L9 static analysis over a candidate PVT set
/// against the failing dataset, before any oracle query. `tau` is the
/// run's acceptable-malfunction threshold (Definition 3), the margin
/// the L7 unreachability certificate must clear.
pub fn lint_pvts(pvts: &[Pvt], d_fail: &DataFrame, tau: f64) -> Diagnostics {
    let facts: Vec<CandidateFacts> = pvts.iter().map(|p| candidate_facts(p, d_fail)).collect();
    analyze(&facts, &PvtAttributeGraph::new(pvts), d_fail, tau)
}

/// [`dp_lint::analyze`] over lowered facts and the candidates' graph.
fn analyze(
    facts: &[CandidateFacts],
    graph: &PvtAttributeGraph,
    d_fail: &DataFrame,
    tau: f64,
) -> Diagnostics {
    let state = seed_state(d_fail);
    dp_lint::analyze(
        &d_fail.schema(),
        &state,
        tau,
        facts,
        &graph.dependency_edges(),
    )
}

/// The pre-query stage of a candidate set, prepared once and shared:
/// the lint verdict, the candidates that survive it, their
/// PVT–attribute graph and their initial benefit scores (Alg 1
/// lines 5–6). The record depends only on the candidates, `D_fail`,
/// the lint mode and τ, and records the last three, so a search over
/// it needs no pass of its own: [`crate::Diagnosis::with_ranked`]
/// hands one to any number of runs (a `dp_serve` spec holds one per
/// `register`), and `Ranked::check` refuses a run whose inputs it
/// was not prepared for. Searches only read it; greedy clones the
/// graph and the benefit map it mutates.
#[derive(Debug)]
pub struct Ranked {
    lint: Diagnostics,
    /// Every candidate, in the order given.
    candidates: Vec<Pvt>,
    /// Positions in `candidates` of the survivors, ascending.
    survivors: Vec<usize>,
    /// Id → position in `candidates` of its first candidate.
    index: HashMap<usize, usize>,
    graph: PvtAttributeGraph,
    benefits: BTreeMap<usize, f64>,
    fail_fingerprint: u64,
    mode: Lint,
    tau: f64,
}

impl Ranked {
    /// Prepare `candidates` against `d_fail` under `config`'s lint mode
    /// and τ in one pass: apply the lint policy (under `Prune`,
    /// `prune`'s drops), then rank the survivors. Each candidate's
    /// violation and coverage on `D_fail` are computed once, for the
    /// lint facts and the benefit scores alike, and the one
    /// PVT–attribute graph gives lint its dependency edges before the
    /// dropped candidates leave it. Under `Lint::Off` only the
    /// benefits are computed. The pass is counted into `metrics`
    /// ([`RunMetrics::candidates_prepared`]).
    pub fn new(
        candidates: Vec<Pvt>,
        d_fail: &DataFrame,
        config: &PrismConfig,
        metrics: &mut RunMetrics,
    ) -> Ranked {
        metrics.candidates_prepared += candidates.len() as u64;
        let (mode, tau) = (config.lint, config.threshold);
        let mut graph = PvtAttributeGraph::new(&candidates);
        let (lint, dropped, benefits) = if mode == Lint::Off {
            let benefits = benefit_scores(&candidates, d_fail);
            (Diagnostics::default(), BTreeSet::new(), benefits)
        } else {
            let facts: Vec<CandidateFacts> = candidates
                .iter()
                .map(|p| candidate_facts(p, d_fail))
                .collect();
            let mut lint = analyze(&facts, &graph, d_fail, tau);
            let dropped = if mode == Lint::Prune {
                prune(&mut lint)
            } else {
                BTreeSet::new()
            };
            for &id in &dropped {
                graph.remove(id);
            }
            // The benefit operands of `benefit::benefit`, in its order.
            let benefits = facts
                .iter()
                .filter(|f| !dropped.contains(&f.id))
                .map(|f| (f.id, f.profile_violation_on_fail * f.coverage_on_fail))
                .collect();
            (lint, dropped, benefits)
        };
        let survivors = (0..candidates.len())
            .filter(|&i| !dropped.contains(&candidates[i].id))
            .collect();
        let mut index = HashMap::with_capacity(candidates.len());
        for (i, p) in candidates.iter().enumerate() {
            index.entry(p.id).or_insert(i);
        }
        Ranked {
            lint,
            candidates,
            survivors,
            index,
            graph,
            benefits,
            fail_fingerprint: fingerprint(d_fail),
            mode,
            tau,
        }
    }

    /// Refuse a run over `d_fail` under `config` unless the record was
    /// prepared for that failing dataset (by fingerprint), lint mode
    /// and τ: the verdict, the survivors and the benefits would be
    /// another problem's.
    pub(crate) fn check(&self, d_fail: &DataFrame, config: &PrismConfig) -> Result<()> {
        let what = if config.lint != self.mode {
            format!("under lint mode {:?}, not {:?}", self.mode, config.lint)
        } else if config.threshold.to_bits() != self.tau.to_bits() {
            format!("at τ = {}, not {}", self.tau, config.threshold)
        } else if fingerprint(d_fail) != self.fail_fingerprint {
            "against another failing dataset".to_string()
        } else {
            return Ok(());
        };
        Err(PrismError::BadInput(format!(
            "prepared candidates were ranked {what}"
        )))
    }

    /// The lint verdict.
    pub(crate) fn lint(&self) -> &Diagnostics {
        &self.lint
    }

    /// Every candidate, in the order given, pruned ones included: the
    /// set BugDoc and Anchor search.
    pub(crate) fn candidates(&self) -> &[Pvt] {
        &self.candidates
    }

    /// The candidates that survive the lint policy, in the order given.
    pub(crate) fn pvts(&self) -> impl ExactSizeIterator<Item = &Pvt> {
        self.survivors.iter().map(|&i| &self.candidates[i])
    }

    /// The first candidate with id `id`.
    pub(crate) fn pvt(&self, id: usize) -> Option<&Pvt> {
        self.index.get(&id).map(|&i| &self.candidates[i])
    }

    /// The survivors' PVT–attribute graph.
    pub(crate) fn graph(&self) -> &PvtAttributeGraph {
        &self.graph
    }

    /// The survivors' initial benefit scores, by id.
    pub(crate) fn benefits(&self) -> &BTreeMap<usize, f64> {
        &self.benefits
    }
}

/// Emit the [`dp_trace::LintSpan`] event of a [`Ranked`] record's verdict
/// with the verdict counts (always emitted, `analyzed = false` under
/// `Lint::Off`, so a trace records that the pass was skipped),
/// followed by a [`dp_trace::LintFactSpan`] when the pass analyzed.
/// Split from the preparation, which can serve many runs, so each run
/// emits the events after validating its inputs.
pub(crate) fn emit_lint(diag: &Diagnostics, tracer: &dp_trace::Tracer) {
    tracer.emit(|| {
        dp_trace::Event::Lint(dp_trace::LintSpan {
            analyzed: diag.analyzed,
            errors: diag.count(dp_lint::Severity::Error),
            warnings: diag.count(dp_lint::Severity::Warn),
            infos: diag.count(dp_lint::Severity::Info),
            pruned: diag.pruned.len(),
        })
    });
    if diag.analyzed {
        tracer.emit(|| {
            dp_trace::Event::LintFact(dp_trace::LintFactSpan {
                subsumption_classes: diag.equivalence.len(),
                subsumed: diag.subsumed.len(),
                unreachable: diag.unreachable_ids().len(),
                commuting_pairs: diag.commuting.len(),
                noop_certified: diag
                    .for_rule(dp_lint::RuleId::AbstractNoOp)
                    .iter()
                    .map(|d| d.pvt_ids.len())
                    .sum(),
            })
        });
    }
}

/// The `Lint::Prune` drops: the Error-level candidates (recorded in
/// [`Diagnostics::pruned`]) plus the non-representative members of
/// each L6 equivalence class (recorded in [`Diagnostics::subsumed`]):
/// the class applies one bit-identical pure function, so the
/// lowest-id representative's query answers for every sibling — one
/// oracle charge per class instead of one per member, with the
/// explanation unchanged. Returns every dropped id.
fn prune(diag: &mut Diagnostics) -> BTreeSet<usize> {
    let errors = diag.error_pvt_ids();
    // The carrying representative is each class's lowest *surviving*
    // member; when every member is an Error the whole class is pruned
    // and nothing is subsumed.
    let subsumed: BTreeSet<usize> = diag
        .equivalence
        .iter()
        .flat_map(|class| {
            class
                .iter()
                .copied()
                .filter(|id| !errors.contains(id))
                .skip(1)
        })
        .collect();
    diag.pruned = errors.iter().copied().collect();
    diag.subsumed = subsumed.iter().copied().collect();
    errors.into_iter().chain(subsumed).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::ImputeStrategy;
    use dp_frame::{Column, DType};
    use dp_lint::{RuleId, Severity};
    use std::collections::BTreeSet;

    fn d_fail() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_strings(
                "target",
                DType::Categorical,
                vec![Some("0".into()), Some("4".into()), Some("1".into())],
            ),
            Column::from_floats("len", vec![Some(3.0), Some(15.0), Some(7.0)]),
        ])
        .unwrap()
    }

    fn domain_pvt(id: usize) -> Pvt {
        let values: BTreeSet<String> = ["-1", "1"].iter().map(|s| s.to_string()).collect();
        Pvt {
            id,
            profile: Profile::DomainCategorical {
                attr: "target".into(),
                values: values.clone(),
            },
            transform: Transform::MapToDomain {
                attr: "target".into(),
                values,
            },
        }
    }

    /// A [`Ranked`] record of `pvts` under `mode` at τ = `tau`.
    fn ranked(pvts: Vec<Pvt>, d_fail: &DataFrame, mode: Lint, tau: f64) -> Ranked {
        let config = PrismConfig {
            lint: mode,
            ..PrismConfig::with_threshold(tau)
        };
        Ranked::new(pvts, d_fail, &config, &mut RunMetrics::default())
    }

    /// [`Ranked`]'s verdict and surviving candidates.
    fn lint_and_prune(
        pvts: Vec<Pvt>,
        d_fail: &DataFrame,
        mode: Lint,
        tau: f64,
    ) -> (Diagnostics, Vec<Pvt>) {
        let ranked = ranked(pvts, d_fail, mode, tau);
        let kept = ranked.pvts().cloned().collect();
        (ranked.lint, kept)
    }

    /// [`lint_pvts`] at the default τ, the margin the existing L1–L5
    /// tests were written against.
    fn lint_pvts_t(pvts: &[Pvt], d_fail: &DataFrame) -> Diagnostics {
        lint_pvts(pvts, d_fail, 0.2)
    }

    #[test]
    fn healthy_discovery_shaped_candidate_is_clean() {
        let diag = lint_pvts_t(&[domain_pvt(0)], &d_fail());
        assert!(diag.analyzed);
        assert!(diag.is_clean(), "{:?}", diag.diagnostics);
    }

    #[test]
    fn missing_attribute_trips_l1() {
        let pvt = Pvt {
            id: 0,
            profile: Profile::Missing {
                attr: "zip".into(),
                theta: 0.0,
            },
            transform: Transform::Impute {
                attr: "zip".into(),
                strategy: ImputeStrategy::Mode,
            },
        };
        let diag = lint_pvts_t(&[pvt], &d_fail());
        assert!(!diag.for_rule(RuleId::SchemaTyping).is_empty());
        assert!(diag.error_pvt_ids().contains(&0));
    }

    #[test]
    fn mistyped_write_trips_l1() {
        // Winsorize (numeric write) aimed at the categorical column.
        let pvt = Pvt {
            id: 3,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 10.0,
            },
            transform: Transform::Winsorize {
                attr: "target".into(),
                lb: 0.0,
                ub: 10.0,
            },
        };
        let diag = lint_pvts_t(&[pvt], &d_fail());
        let l1 = diag.for_rule(RuleId::SchemaTyping);
        assert!(
            l1.iter()
                .any(|d| d.severity == Severity::Error && d.attr.as_deref() == Some("target")),
            "{l1:?}"
        );
    }

    #[test]
    fn disjoint_fix_trips_l2() {
        // Profile on "target", fix on "len": provably cannot move the
        // profile's parameter.
        let pvt = Pvt {
            id: 1,
            profile: Profile::Missing {
                attr: "target".into(),
                theta: 0.0,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb: 0.0,
                ub: 100.0,
            },
        };
        let diag = lint_pvts_t(&[pvt], &d_fail());
        assert!(!diag.for_rule(RuleId::TransformConsistency).is_empty());
        assert!(diag.error_pvt_ids().contains(&1));
    }

    #[test]
    fn certified_noop_trips_l3_error() {
        // Winsorize bounds already containing the observed range:
        // coverage 0 and bit-exact at coverage 0 ⇒ Error.
        let pvt = Pvt {
            id: 2,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 100.0,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb: 0.0,
                ub: 100.0,
            },
        };
        let diag = lint_pvts_t(&[pvt], &d_fail());
        let l3 = diag.for_rule(RuleId::NoOpTransform);
        assert_eq!(l3.len(), 1);
        assert_eq!(l3[0].severity, Severity::Error);
    }

    #[test]
    fn zero_coverage_without_certificate_is_warn() {
        // LinearRescale whose target range matches the observed range:
        // coverage 0, but not bit-exact ⇒ Warn, never pruned. The
        // profile itself is violated (values above 5), so L2 stays
        // quiet and L3 is the only rule in play.
        let pvt = Pvt {
            id: 5,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 5.0,
            },
            transform: Transform::LinearRescale {
                attr: "len".into(),
                lb: 3.0,
                ub: 15.0,
            },
        };
        let diag = lint_pvts_t(&[pvt], &d_fail());
        let l3 = diag.for_rule(RuleId::NoOpTransform);
        assert_eq!(l3.len(), 1);
        assert_eq!(l3[0].severity, Severity::Warn);
        assert!(diag.error_pvt_ids().is_empty());
    }

    #[test]
    fn incompatible_targets_trip_l4() {
        let mk = |id: usize, lb: f64, ub: f64| Pvt {
            id,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb,
                ub,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb,
                ub,
            },
        };
        // [0,5] and [10,20] are disjoint target ranges on one column.
        let diag = lint_pvts_t(&[mk(0, 0.0, 5.0), mk(1, 10.0, 20.0)], &d_fail());
        let l4 = diag.for_rule(RuleId::WriteConflict);
        assert_eq!(l4.len(), 1);
        assert_eq!(l4[0].pvt_ids, vec![0, 1]);
        assert_eq!(l4[0].severity, Severity::Warn, "conflicts are never pruned");
    }

    #[test]
    fn components_surface_as_l5_info() {
        let other = Pvt {
            id: 7,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 10.0,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb: 0.0,
                ub: 10.0,
            },
        };
        // domain_pvt touches "target", `other` touches "len": two
        // disconnected components in G_PD.
        let diag = lint_pvts_t(&[domain_pvt(0), other], &d_fail());
        assert!(diag
            .for_rule(RuleId::GraphSanity)
            .iter()
            .any(|d| d.severity == Severity::Info));
    }

    #[test]
    fn prune_drops_only_error_candidates() {
        let noop = Pvt {
            id: 1,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 100.0,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb: 0.0,
                ub: 100.0,
            },
        };
        let (diag, kept) = lint_and_prune(vec![domain_pvt(0), noop], &d_fail(), Lint::Prune, 0.2);
        assert_eq!(diag.pruned, vec![1]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].id, 0);
    }

    #[test]
    fn ranking_matches_benefit_scores_and_graph_of_the_survivors() {
        let noop = Pvt {
            id: 1,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 100.0,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb: 0.0,
                ub: 100.0,
            },
        };
        let clamp = Pvt {
            id: 4,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 10.0,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb: 0.0,
                ub: 10.0,
            },
        };
        let pvts = vec![domain_pvt(0), noop, domain_pvt(2), clamp];
        for mode in [Lint::Off, Lint::Report, Lint::Prune] {
            let ranked = ranked(pvts.clone(), &d_fail(), mode, 0.2);
            let survivors: Vec<Pvt> = ranked.pvts().cloned().collect();
            assert_eq!(ranked.candidates().len(), pvts.len(), "{mode:?}");
            let fresh = PvtAttributeGraph::new(&survivors);
            assert_eq!(ranked.graph.pvt_ids(), fresh.pvt_ids(), "{mode:?}");
            assert_eq!(
                ranked.graph.dependency_edges(),
                fresh.dependency_edges(),
                "{mode:?}"
            );
            let scores = benefit_scores(&survivors, &d_fail());
            assert_eq!(ranked.benefits.len(), scores.len(), "{mode:?}");
            for (id, b) in &scores {
                assert_eq!(ranked.benefits[id].to_bits(), b.to_bits(), "{mode:?}");
            }
        }
        let pruned = ranked(pvts, &d_fail(), Lint::Prune, 0.2);
        assert_eq!(pruned.lint.pruned, vec![1]);
        assert_eq!(pruned.lint.subsumed, vec![2]);
        assert_eq!(pruned.graph.pvt_ids(), vec![0, 4]);
    }

    #[test]
    fn off_and_report_keep_everything() {
        let pvts = vec![domain_pvt(0)];
        let (diag, kept) = lint_and_prune(pvts.clone(), &d_fail(), Lint::Off, 0.2);
        assert!(!diag.analyzed);
        assert_eq!(kept.len(), 1);
        let (diag, kept) = lint_and_prune(pvts, &d_fail(), Lint::Report, 0.2);
        assert!(diag.analyzed);
        assert!(diag.pruned.is_empty());
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn conditional_profiles_lower_recursively() {
        let pvt = Pvt {
            id: 0,
            profile: Profile::Conditional {
                condition: dp_frame::Predicate::cmp("target", dp_frame::CmpOp::Eq, "1"),
                inner: Box::new(Profile::DomainNumeric {
                    attr: "len".into(),
                    lb: 0.0,
                    ub: 10.0,
                }),
            },
            transform: Transform::Conditional {
                condition: dp_frame::Predicate::cmp("target", dp_frame::CmpOp::Eq, "1"),
                inner: Box::new(Transform::Winsorize {
                    attr: "len".into(),
                    lb: 0.0,
                    ub: 10.0,
                }),
            },
        };
        let facts = candidate_facts(&pvt, &d_fail());
        assert!(facts.reads.iter().any(|r| r.attr == "target"));
        assert!(facts.reads.iter().any(|r| r.attr == "len"));
        assert!(facts.writes.iter().any(|w| w.attr == "len"));
        assert!(matches!(
            facts.write_target,
            Some((ref a, WriteTarget::Range { .. })) if a == "len"
        ));
        // Conditional transforms lower to Guarded transfer ops and
        // the conditional profile yields no L7 region (the violation
        // is computed on a data-dependent subset).
        assert!(matches!(facts.transfer[..], [TransferOp::Guarded(_)]));
        assert!(facts.profile_region.is_none());
        assert!(facts.transform_key.is_some(), "winsorize is deterministic");
    }

    #[test]
    fn seeded_state_contains_the_frame_exactly() {
        let state = seed_state(&d_fail());
        let len = state.col("len");
        assert_eq!(len.interval, Interval::Range { lo: 3.0, hi: 15.0 });
        assert_eq!((len.null_lo, len.null_hi), (0.0, 0.0));
        assert_eq!(
            len.support,
            SupportDom::Set(Default::default()),
            "numeric columns hold no string values"
        );
        let target = state.col("target");
        assert_eq!(target.interval, Interval::Empty);
        match &target.support {
            SupportDom::Set(s) => {
                assert_eq!(
                    s.iter().cloned().collect::<Vec<_>>(),
                    vec!["0".to_string(), "1".to_string(), "4".to_string()]
                );
            }
            SupportDom::Top => panic!("small categorical support must be exact"),
        }
        // An unseeded column is unknown, not empty.
        assert_eq!(state.col("absent"), dp_lint::domains::AbsCol::top());
    }

    #[test]
    fn lowering_covers_every_transform_kind() {
        let shuffle = Transform::BreakDependenceShuffle {
            a: "len".into(),
            b: "target".into(),
            alpha: 0.1,
        };
        assert!(matches!(
            lower_transfer(&shuffle)[..],
            [TransferOp::PermuteValues { ref attr }] if attr == "target"
        ));
        assert!(transform_key(&shuffle).is_none(), "stochastic: no L6 key");
        let resample = Transform::ResampleSelectivity {
            predicate: dp_frame::Predicate::cmp("target", dp_frame::CmpOp::Eq, "1"),
            theta: 0.5,
        };
        assert!(matches!(
            lower_transfer(&resample)[..],
            [TransferOp::ResampleRows]
        ));
        let impute = Transform::Impute {
            attr: "len".into(),
            strategy: ImputeStrategy::Mode,
        };
        assert!(matches!(
            lower_transfer(&impute)[..],
            [TransferOp::FillNulls { .. }]
        ));
        assert!(transform_key(&impute).is_some());
    }

    #[test]
    fn identical_transforms_are_subsumed_under_prune() {
        // Two healthy candidates applying the bit-identical transform
        // (same key): one oracle charge, the lowest id carries it.
        let (diag, kept) = lint_and_prune(
            vec![domain_pvt(0), domain_pvt(1)],
            &d_fail(),
            Lint::Prune,
            0.2,
        );
        assert_eq!(diag.equivalence, vec![vec![0, 1]]);
        assert_eq!(diag.subsumed, vec![1]);
        assert!(diag.pruned.is_empty(), "subsumption is not an Error prune");
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].id, 0);
        // Report mode surfaces the class but drops nothing.
        let (diag, kept) = lint_and_prune(
            vec![domain_pvt(0), domain_pvt(1)],
            &d_fail(),
            Lint::Report,
            0.2,
        );
        assert_eq!(diag.equivalence, vec![vec![0, 1]]);
        assert!(diag.subsumed.is_empty());
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn tau_unreachable_candidate_trips_l7() {
        // Winsorize into [20, 30] can never move `len` back inside
        // the profile's [0, 1] region: post-interval [20, 30] is
        // disjoint and the column has no nulls, so the violation is
        // pinned at 1 > τ.
        let pvt = Pvt {
            id: 6,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 1.0,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb: 20.0,
                ub: 30.0,
            },
        };
        let diag = lint_pvts_t(std::slice::from_ref(&pvt), &d_fail());
        assert!(
            !diag.for_rule(RuleId::TauUnreachable).is_empty(),
            "{:?}",
            diag.diagnostics
        );
        assert!(diag.unreachable_ids().contains(&6));
        assert!(diag.error_pvt_ids().contains(&6), "L7 is prunable");
    }

    #[test]
    fn disjoint_deterministic_candidates_commute() {
        // domain_pvt writes "target", the winsorize writes "len":
        // disjoint deterministic footprints certify the pair.
        let other = Pvt {
            id: 3,
            profile: Profile::DomainNumeric {
                attr: "len".into(),
                lb: 0.0,
                ub: 10.0,
            },
            transform: Transform::Winsorize {
                attr: "len".into(),
                lb: 0.0,
                ub: 10.0,
            },
        };
        let diag = lint_pvts_t(&[domain_pvt(0), other], &d_fail());
        assert_eq!(diag.commuting.pairs().collect::<Vec<_>>(), vec![(0, 3)]);
        assert_eq!(diag.commuting.len(), 1);
        assert!(diag.commuting.commutes(3, 0));
    }

    #[test]
    fn lint_fact_event_follows_lint_event() {
        let tracer = dp_trace::Tracer::collect();
        let (diag, _kept) = lint_and_prune(
            vec![domain_pvt(0), domain_pvt(1)],
            &d_fail(),
            Lint::Prune,
            0.2,
        );
        emit_lint(&diag, &tracer);
        let records = tracer.finish();
        let lint_at = records
            .iter()
            .position(|r| matches!(r.event, dp_trace::Event::Lint(_)))
            .expect("lint event");
        match &records[lint_at + 1].event {
            dp_trace::Event::LintFact(f) => {
                assert_eq!(f.subsumption_classes, 1);
                assert_eq!(f.subsumed, 1);
                assert_eq!(f.unreachable, 0);
                assert_eq!(f.noop_certified, 0);
            }
            other => panic!("expected LintFact after Lint, got {other:?}"),
        }
        // Under Off no fact event is emitted.
        let tracer = dp_trace::Tracer::collect();
        let (diag, _kept) = lint_and_prune(vec![domain_pvt(0)], &d_fail(), Lint::Off, 0.2);
        emit_lint(&diag, &tracer);
        assert!(!tracer
            .finish()
            .iter()
            .any(|r| matches!(r.event, dp_trace::Event::LintFact(_))));
    }
}
