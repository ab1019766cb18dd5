//! Rules L1–L4 (per-candidate and cross-candidate fact lints) and
//! L6–L9 (abstract-interpretation lints over the seeded state).
//!
//! Each rule is an individually testable function returning the
//! diagnostics it found; [`crate::analyze`] composes them and imposes
//! the deterministic global ordering.

use crate::absint::{chain_is_identity, chains_pointwise_equal, region_unreachable, Overlay};
use crate::domains::{AbsCol, AbsState, Interval, SupportDom};
use crate::facts::CandidateFacts;
use crate::{Commuting, Diagnostic, RuleId, Severity};
use dp_frame::{DType, Schema};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// L1 — schema typing: every attribute the candidate reads or writes
/// must exist in the schema, and its declared dtype must admit the
/// access's type class. Violations are `Error`s: the transformation
/// would fail (missing column) or act on data it cannot interpret.
pub fn check_schema_typing(schema: &Schema, c: &CandidateFacts) -> Vec<Diagnostic> {
    schema_typing(schema, |attr| schema.dtype_of(attr), c)
}

/// [`check_schema_typing`] with the schema's dtypes looked up through
/// `dtype_of` (an index built once per analysis: `Schema::field` scans
/// every field, which made L1 O(candidates × columns)).
pub(crate) fn schema_typing(
    schema: &Schema,
    dtype_of: impl Fn(&str) -> Option<DType>,
    c: &CandidateFacts,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (kind, reqs) in [("reads", &c.reads), ("writes", &c.writes)] {
        for req in reqs {
            let message = match dtype_of(&req.attr) {
                None => format!(
                    "{} ({kind} `{}`): attribute is not in the schema {}",
                    c.label, req.attr, schema
                ),
                Some(dtype) if !req.ty.admits(dtype) => format!(
                    "{} ({kind} `{}`): declared dtype {} does not admit the required {} access",
                    c.label, req.attr, dtype, req.ty
                ),
                Some(_) => continue,
            };
            out.push(Diagnostic {
                rule: RuleId::SchemaTyping,
                severity: Severity::Error,
                pvt_ids: vec![c.id],
                attr: Some(req.attr.clone()),
                message,
            });
        }
    }
    out.sort();
    out.dedup();
    out
}

/// L2 — violation–transform consistency: the transformation must be
/// able to move the profile's parameter toward the passing dataset's
/// value. Two provable failures, both `Error`s:
///
/// * the transformation writes none of the attributes the profile
///   constrains (a local transform on disjoint columns cannot change
///   the violation), or
/// * `V(D_fail, P) = 0` — the failing dataset already satisfies the
///   profile (e.g. a clamp whose bounds already contain the observed
///   range), so the profile cannot be a cause and the fix has nothing
///   to move.
pub fn check_transform_consistency(c: &CandidateFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !c.rewrites_all_attributes && !c.profile_attributes.is_empty() {
        let touches_profile = c
            .writes
            .iter()
            .any(|w| c.profile_attributes.contains(&w.attr));
        if !touches_profile {
            let writes: Vec<&str> = c.writes.iter().map(|w| w.attr.as_str()).collect();
            out.push(Diagnostic {
                rule: RuleId::TransformConsistency,
                severity: Severity::Error,
                pvt_ids: vec![c.id],
                attr: c.profile_attributes.first().cloned(),
                message: format!(
                    "{}: fix writes [{}] but the cause profile constrains [{}]; \
                     the transformation provably cannot move the profile parameter",
                    c.label,
                    writes.join(", "),
                    c.profile_attributes.join(", ")
                ),
            });
        }
    }
    if c.profile_violation_on_fail == 0.0 {
        out.push(Diagnostic {
            rule: RuleId::TransformConsistency,
            severity: Severity::Error,
            pvt_ids: vec![c.id],
            attr: c.profile_attributes.first().cloned(),
            message: format!(
                "{}: D_fail already satisfies the profile (violation 0), so it cannot \
                 be a cause and its repair is a certified no-op",
                c.label
            ),
        });
    }
    out
}

/// L3 — no-op/idempotence: a transformation whose coverage on
/// `D_fail` is zero fixes no violating tuples. When the coverage
/// estimate is exact for the transformation kind, applying it
/// provably returns the dataset unchanged — an `Error` (the oracle
/// query is certainly wasted); otherwise a `Warn`.
pub fn check_noop(c: &CandidateFacts) -> Vec<Diagnostic> {
    if c.coverage_on_fail != 0.0 {
        return Vec::new();
    }
    let (severity, certainty) = if c.coverage_is_exact {
        (
            Severity::Error,
            "certified no-op: applying it returns D_fail unchanged",
        )
    } else {
        (
            Severity::Warn,
            "estimated no-op: the coverage estimate is not exact for this transformation kind",
        )
    };
    vec![Diagnostic {
        rule: RuleId::NoOpTransform,
        severity,
        pvt_ids: vec![c.id],
        attr: c.writes.first().map(|w| w.attr.clone()),
        message: format!(
            "{}: transformation fixes no violating tuples on D_fail (coverage 0) — {certainty}",
            c.label
        ),
    }]
}

/// L4 — conflict detection: two candidates writing the same attribute
/// with incompatible targets (disjoint ranges or disjoint domains).
/// Each is individually valid, so this is a `Warn`: group testing
/// must not compose them in one application, because the
/// later-applied transformation undoes the earlier one.
pub fn check_write_conflicts(candidates: &[CandidateFacts]) -> Vec<Diagnostic> {
    let mut by_attr: BTreeMap<&str, Vec<&CandidateFacts>> = BTreeMap::new();
    for c in candidates {
        if let Some((attr, _)) = &c.write_target {
            by_attr.entry(attr.as_str()).or_default().push(c);
        }
    }
    let mut out = Vec::new();
    for (attr, writers) in by_attr {
        for (i, a) in writers.iter().enumerate() {
            for b in writers.iter().skip(i + 1) {
                let (ta, tb) = (
                    &a.write_target.as_ref().expect("grouped by target").1,
                    &b.write_target.as_ref().expect("grouped by target").1,
                );
                if !ta.compatible_with(tb) {
                    let mut ids = vec![a.id, b.id];
                    ids.sort_unstable();
                    out.push(Diagnostic {
                        rule: RuleId::WriteConflict,
                        severity: Severity::Warn,
                        pvt_ids: ids,
                        attr: Some(attr.to_string()),
                        message: format!(
                            "{} and {} drive `{attr}` toward incompatible targets \
                             ({ta} vs {tb}); group testing must not compose them",
                            a.label, b.label
                        ),
                    });
                }
            }
        }
    }
    out
}

/// The result of the L6 subsumption pass: the diagnostics plus the
/// machine-readable equivalence classes (each sorted ascending, the
/// first member the representative).
pub struct SubsumptionResult {
    /// One `Info` diagnostic per class of size ≥ 2.
    pub diagnostics: Vec<Diagnostic>,
    /// Equivalence classes of size ≥ 2, sorted by representative.
    pub classes: Vec<Vec<usize>>,
}

/// L6's grouping key: a candidate's profile attributes and its
/// post-state projected onto them. Two keys are equal exactly when
/// their `Debug` renderings are — floats compare by bits, with every
/// NaN alike — so the partition is the one grouping by the rendered
/// text gives, without rendering it.
struct GroupKey<'p> {
    attrs: &'p [String],
    cols: Vec<Cow<'p, AbsCol>>,
}

/// An `f64` as its `Debug` rendering distinguishes it.
fn float_key(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn interval_key(i: &Interval) -> (u8, u64, u64) {
    match *i {
        Interval::Empty => (0, 0, 0),
        Interval::Range { lo, hi } => (1, float_key(lo), float_key(hi)),
        Interval::Top => (2, 0, 0),
    }
}

/// A column's grouping components: interval, null band, support
/// (`None` for `Top`).
type ColKey<'c> = ((u8, u64, u64), u64, u64, Option<&'c BTreeSet<String>>);

fn col_key(c: &AbsCol) -> ColKey<'_> {
    let support = match &c.support {
        SupportDom::Top => None,
        SupportDom::Set(s) => Some(s),
    };
    (
        interval_key(&c.interval),
        float_key(c.null_lo),
        float_key(c.null_hi),
        support,
    )
}

impl PartialEq for GroupKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.attrs == other.attrs
            && self.cols.len() == other.cols.len()
            && self
                .cols
                .iter()
                .zip(&other.cols)
                .all(|(a, b)| col_key(a) == col_key(b))
    }
}

impl Eq for GroupKey<'_> {}

impl Hash for GroupKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.attrs.hash(state);
        for col in &self.cols {
            col_key(col).hash(state);
        }
    }
}

/// L6 — subsumption/equivalence: candidates that provably apply the
/// bit-identical repair are merged into one oracle charge per class.
///
/// Candidates are first grouped by the cheap filter — identical
/// profile read-set and coinciding abstract post-state on it — then
/// certified pairwise:
///
/// * **syntactic**: equal [`CandidateFacts::transform_key`]s mean the
///   two candidates apply the literally identical deterministic
///   function, interchangeable in *any* context. These classes are
///   safe to collapse under pruning: every member produces the same
///   frame, hence the same oracle score, wherever it is applied.
/// * **semantic**: [`chains_pointwise_equal`] proves two
///   syntactically different chains act identically on every frame
///   the seeded state admits (e.g. clamps whose differing bounds are
///   inactive on the observed interval). This holds on `D_fail`
///   itself but not necessarily on intermediate frames of an
///   iterative search, so these pairs are *reported* (`Info`) but
///   never collapsed.
///
/// Severity is `Info` throughout: duplicates are not futile — one
/// member of each class still deserves its oracle query.
pub fn check_subsumption(state: &AbsState, candidates: &[CandidateFacts]) -> SubsumptionResult {
    subsumption(state, candidates, &post_states(state, candidates))
}

/// Each candidate's abstract post-state, its transfer chain run once
/// over a sparse [`Overlay`] of `state`: the one input L6 and L7 share.
/// `None` for a candidate neither rule reads (an empty chain, or no
/// profile attributes and no profile region).
pub(crate) fn post_states<'s>(
    state: &'s AbsState,
    candidates: &[CandidateFacts],
) -> Vec<Option<Overlay<'s>>> {
    candidates
        .iter()
        .map(|c| {
            let read = !c.profile_attributes.is_empty() || c.profile_region.is_some();
            (read && !c.transfer.is_empty()).then(|| Overlay::apply(state, &c.transfer))
        })
        .collect()
}

/// [`check_subsumption`] over precomputed [`post_states`].
pub(crate) fn subsumption(
    state: &AbsState,
    candidates: &[CandidateFacts],
    posts: &[Option<Overlay<'_>>],
) -> SubsumptionResult {
    // Cheap grouping filter: profile read-set + abstract post-state
    // projected onto it must coincide before any certificate runs.
    let mut index: HashMap<GroupKey<'_>, usize> = HashMap::new();
    let mut groups: Vec<Vec<&CandidateFacts>> = Vec::new();
    for (c, post) in candidates.iter().zip(posts) {
        if c.transfer.is_empty() || c.profile_attributes.is_empty() {
            continue;
        }
        let post = post.as_ref().expect("post-state of a lowered candidate");
        let key = GroupKey {
            attrs: &c.profile_attributes,
            cols: c.profile_attributes.iter().map(|a| post.col(a)).collect(),
        };
        let next = groups.len();
        let slot = *index.entry(key).or_insert(next);
        if slot == next {
            groups.push(Vec::new());
        }
        groups[slot].push(c);
    }

    let mut diagnostics = Vec::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for members in &groups {
        if members.len() < 2 {
            continue;
        }
        // Syntactic certificate: transform-key equality is an
        // equivalence relation, so clustering by key is exact.
        let mut by_key: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for c in members {
            if let Some(key) = &c.transform_key {
                by_key.entry(key.as_str()).or_default().push(c.id);
            }
        }
        // Semantic certificate: report pointwise-equal pairs that the
        // syntactic pass did not already put in one class.
        for (i, a) in members.iter().enumerate() {
            for b in members.iter().skip(i + 1) {
                if a.transform_key.is_some() && a.transform_key == b.transform_key {
                    continue;
                }
                if chains_pointwise_equal(state, &a.transfer, &b.transfer) {
                    let mut ids = vec![a.id, b.id];
                    ids.sort_unstable();
                    diagnostics.push(Diagnostic {
                        rule: RuleId::Subsumption,
                        severity: Severity::Info,
                        pvt_ids: ids,
                        attr: a.profile_attributes.first().cloned(),
                        message: format!(
                            "{} and {} act bit-identically on every frame the observed \
                             state admits (pointwise-equal on D_fail); equivalent there \
                             but not collapsible mid-search",
                            a.label, b.label
                        ),
                    });
                }
            }
        }
        for ids in by_key.into_values() {
            let mut ids = ids;
            ids.sort_unstable();
            if ids.len() < 2 {
                continue;
            }
            let rep = ids[0];
            diagnostics.push(Diagnostic {
                rule: RuleId::Subsumption,
                severity: Severity::Info,
                pvt_ids: ids.clone(),
                attr: None,
                message: format!(
                    "candidates [{}] apply the identical deterministic transformation; \
                     one oracle charge (representative #{rep}) decides the whole class",
                    ids.iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
            classes.push(ids);
        }
    }
    classes.sort();
    SubsumptionResult {
        diagnostics,
        classes,
    }
}

/// L7 — τ-unreachability: interval arithmetic on the candidate's own
/// profile parameters proves the transformation can never move the
/// violated parameter across the `tau` margin — on *any* frame the
/// seeded state admits, the post-state keeps the profile violated
/// beyond `tau`. An `Error`: like L2's provable inconsistency, the
/// fix cannot discharge the violation it claims to repair, so the
/// PVT is malformed and its oracle queries are certainly wasted.
pub fn check_tau_unreachable(
    state: &AbsState,
    tau: f64,
    candidates: &[CandidateFacts],
) -> Vec<Diagnostic> {
    tau_unreachable(tau, candidates, &post_states(state, candidates))
}

/// [`check_tau_unreachable`] over precomputed [`post_states`].
pub(crate) fn tau_unreachable(
    tau: f64,
    candidates: &[CandidateFacts],
    posts: &[Option<Overlay<'_>>],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (c, post) in candidates.iter().zip(posts) {
        let Some((attr, region)) = &c.profile_region else {
            continue;
        };
        if c.transfer.is_empty() {
            continue;
        }
        let post = post.as_ref().expect("post-state of a lowered candidate");
        if region_unreachable(&post.col(attr), region, tau) {
            out.push(Diagnostic {
                rule: RuleId::TauUnreachable,
                severity: Severity::Error,
                pvt_ids: vec![c.id],
                attr: Some(attr.clone()),
                message: format!(
                    "{}: the abstract post-state of `{attr}` provably keeps the profile \
                     violated beyond the τ = {tau} margin; the fix can never repair its \
                     own profile",
                    c.label
                ),
            });
        }
    }
    out
}

/// The result of the L8 commutation pass: one summary diagnostic (to
/// avoid O(m²) report flooding) plus the fact table.
pub struct CommutationResult {
    /// At most one `Info` diagnostic summarizing the fact table.
    pub diagnostics: Vec<Diagnostic>,
    /// Which candidate pairs provably commute.
    pub commuting: Commuting,
}

/// L8 — commutation/independence: a candidate pair whose
/// transformations are deterministic (the RNG stream cannot skew
/// them), row-local (no resampling), and touch disjoint
/// read/write footprints provably commutes —
/// `t_b(t_a(d)) = t_a(t_b(d))` bit-for-bit on every frame. The fact
/// table feeds group testing's speculation depth (commuting frontiers
/// stay useful deeper).
///
/// Only a pair sharing an attribute can conflict, so conflicts are
/// read off per-attribute buckets — the writers of each attribute
/// against every candidate whose footprint holds it — and the table
/// stores the eligible candidates plus those conflicting pairs. The
/// cost is linear in the candidates plus the conflicts, never in all
/// n²/2 pairs. Candidate ids are assumed distinct.
pub fn check_commutation(candidates: &[CandidateFacts]) -> CommutationResult {
    let mut eligible = Vec::new();
    let mut writers: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut touchers: HashMap<&str, Vec<usize>> = HashMap::new();
    for c in candidates {
        if c.transform_key.is_none() || c.rewrites_all_attributes {
            continue;
        }
        eligible.push(c.id);
        let writes = c.writes.iter().map(|w| w.attr.as_str());
        for attr in writes.clone() {
            writers.entry(attr).or_default().push(c.id);
        }
        for attr in c.transform_reads.iter().map(String::as_str).chain(writes) {
            touchers.entry(attr).or_default().push(c.id);
        }
    }
    let mut conflicts = Vec::new();
    for (attr, ws) in &writers {
        for &w in ws {
            for &t in &touchers[attr] {
                if w != t {
                    conflicts.push((w.min(t), w.max(t)));
                }
            }
        }
    }
    let commuting = Commuting::new(eligible, conflicts);
    let diagnostics = if commuting.is_empty() {
        Vec::new()
    } else {
        let total = candidates.len() * candidates.len().saturating_sub(1) / 2;
        vec![Diagnostic {
            rule: RuleId::Commutation,
            severity: Severity::Info,
            pvt_ids: Vec::new(),
            attr: None,
            message: format!(
                "{} of {} candidate pairs provably commute (disjoint deterministic \
                 read/write footprints); the fact table steers group testing's \
                 speculation depth",
                commuting.len(),
                total
            ),
        }]
    };
    CommutationResult {
        diagnostics,
        commuting,
    }
}

/// L9 — abstract no-op: fixpoint detection over the seeded state. A
/// chain every step of which is provably the identity on the frames
/// the state admits (winsorize inside the observed hull, domain map
/// over a subset support, impute with a zero null fraction — also
/// under conditional guards, where L3's exact-coverage whitelist
/// cannot reach) returns `D_fail` bit-unchanged: an `Error`, the
/// oracle query is certainly wasted.
pub fn check_abstract_noop(state: &AbsState, candidates: &[CandidateFacts]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for c in candidates {
        if chain_is_identity(state, &c.transfer) {
            out.push(Diagnostic {
                rule: RuleId::AbstractNoOp,
                severity: Severity::Error,
                pvt_ids: vec![c.id],
                attr: c.writes.first().map(|w| w.attr.clone()),
                message: format!(
                    "{}: every step of the transformation is the identity on the \
                     observed abstract state — applying it provably returns D_fail \
                     unchanged",
                    c.label
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::{TransferOp, ValueRegion};
    use crate::domains::{AbsCol, Interval, SupportDom};
    use crate::facts::{AttrRequirement, TypeClass, WriteTarget};
    use dp_frame::{DType, Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DType::Int),
            Field::new("target", DType::Categorical),
            Field::new("note", DType::Text),
        ])
        .unwrap()
    }

    // --- L1 ---

    #[test]
    fn l1_flags_missing_and_mistyped_attributes() {
        let mut c = CandidateFacts::new(7, "domain_cat(zip)");
        c.reads
            .push(AttrRequirement::new("zip", TypeClass::Textual));
        c.writes
            .push(AttrRequirement::new("age", TypeClass::Textual));
        let diags = check_schema_typing(&schema(), &c);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        assert!(diags.iter().all(|d| d.rule == RuleId::SchemaTyping));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("not in the schema")));
        assert!(diags.iter().any(|d| d
            .message
            .contains("does not admit the required textual access")));
    }

    #[test]
    fn l1_accepts_well_typed_accesses() {
        let mut c = CandidateFacts::new(7, "domain_num(age)");
        c.reads
            .push(AttrRequirement::new("age", TypeClass::Numeric));
        c.writes
            .push(AttrRequirement::new("age", TypeClass::Numeric));
        c.reads
            .push(AttrRequirement::new("target", TypeClass::Textual));
        c.reads.push(AttrRequirement::new("note", TypeClass::Any));
        assert!(check_schema_typing(&schema(), &c).is_empty());
    }

    // --- L2 ---

    #[test]
    fn l2_flags_fix_on_disjoint_attributes() {
        let mut c = CandidateFacts::new(3, "domain_num(age)");
        c.profile_attributes = vec!["age".into()];
        c.writes.push(AttrRequirement::new("note", TypeClass::Any));
        let diags = check_transform_consistency(&c);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0]
            .message
            .contains("cannot move the profile parameter"));
    }

    #[test]
    fn l2_flags_already_satisfied_profile() {
        let mut c = CandidateFacts::new(3, "domain_num(age)");
        c.profile_attributes = vec!["age".into()];
        c.writes
            .push(AttrRequirement::new("age", TypeClass::Numeric));
        c.profile_violation_on_fail = 0.0;
        let diags = check_transform_consistency(&c);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("violation 0"));
    }

    #[test]
    fn l2_accepts_consistent_candidates_and_global_rewrites() {
        let mut c = CandidateFacts::new(3, "domain_num(age)");
        c.profile_attributes = vec!["age".into()];
        c.writes
            .push(AttrRequirement::new("age", TypeClass::Numeric));
        assert!(check_transform_consistency(&c).is_empty());
        // A row-resampling transform touches every column and is
        // always attribute-consistent.
        let mut g = CandidateFacts::new(4, "selectivity(age = 1)");
        g.profile_attributes = vec!["age".into()];
        g.rewrites_all_attributes = true;
        assert!(check_transform_consistency(&g).is_empty());
    }

    // --- L3 ---

    #[test]
    fn l3_certifies_exact_zero_coverage_as_error() {
        let mut c = CandidateFacts::new(5, "domain_num(age)");
        c.coverage_on_fail = 0.0;
        c.coverage_is_exact = true;
        let diags = check_noop(&c);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("certified no-op"));
    }

    #[test]
    fn l3_warns_on_inexact_zero_coverage() {
        let mut c = CandidateFacts::new(5, "indep_chi2(a, b)");
        c.coverage_on_fail = 0.0;
        c.coverage_is_exact = false;
        let diags = check_noop(&c);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warn);
    }

    #[test]
    fn l3_accepts_positive_coverage() {
        let mut c = CandidateFacts::new(5, "domain_num(age)");
        c.coverage_on_fail = 0.25;
        c.coverage_is_exact = true;
        assert!(check_noop(&c).is_empty());
    }

    // --- L4 ---

    fn with_target(id: usize, attr: &str, target: WriteTarget) -> CandidateFacts {
        let mut c = CandidateFacts::new(id, format!("pvt{id}"));
        c.write_target = Some((attr.to_string(), target));
        c
    }

    #[test]
    fn l4_flags_disjoint_range_writers_of_one_attribute() {
        let a = with_target(1, "age", WriteTarget::Range { lb: 0.0, ub: 10.0 });
        let b = with_target(2, "age", WriteTarget::Range { lb: 50.0, ub: 60.0 });
        let diags = check_write_conflicts(&[a, b]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warn);
        assert_eq!(diags[0].pvt_ids, vec![1, 2]);
        assert_eq!(diags[0].attr.as_deref(), Some("age"));
    }

    #[test]
    fn l4_flags_disjoint_domain_writers() {
        let dom = |vals: &[&str]| {
            WriteTarget::Domain(vals.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>())
        };
        let a = with_target(1, "target", dom(&["-1", "1"]));
        let b = with_target(9, "target", dom(&["0", "4"]));
        let diags = check_write_conflicts(&[b, a]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pvt_ids, vec![1, 9], "ids sorted ascending");
    }

    #[test]
    fn l4_accepts_overlapping_targets_and_distinct_attributes() {
        let a = with_target(1, "age", WriteTarget::Range { lb: 0.0, ub: 10.0 });
        let b = with_target(2, "age", WriteTarget::Range { lb: 5.0, ub: 60.0 });
        let c = with_target(3, "len", WriteTarget::Range { lb: 99.0, ub: 99.5 });
        assert!(check_write_conflicts(&[a, b, c]).is_empty());
    }

    // --- L6–L9 ---

    fn seeded_state() -> AbsState {
        let mut s = AbsState::new();
        s.set(
            "len",
            AbsCol {
                interval: Interval::range(3.0, 15.0),
                null_lo: 0.0,
                null_hi: 0.0,
                support: SupportDom::Top,
            },
        );
        s.set(
            "target",
            AbsCol {
                interval: Interval::Empty,
                null_lo: 0.0,
                null_hi: 0.0,
                support: SupportDom::Set(["0", "4"].iter().map(|s| s.to_string()).collect()),
            },
        );
        s
    }

    fn clamp_candidate(
        id: usize,
        attr: &str,
        lb: f64,
        ub: f64,
        key: Option<&str>,
    ) -> CandidateFacts {
        let mut c = CandidateFacts::new(id, format!("pvt{id}"));
        c.profile_attributes = vec![attr.to_string()];
        c.writes
            .push(AttrRequirement::new(attr, TypeClass::Numeric));
        c.transform_reads = vec![attr.to_string()];
        c.transfer = vec![TransferOp::Clamp {
            attr: attr.to_string(),
            lb,
            ub,
        }];
        c.transform_key = key.map(str::to_string);
        c
    }

    #[test]
    fn l6_collapses_identical_keys_and_reports_pointwise_pairs() {
        // Two literal duplicates (same key) + one pointwise-equal
        // variant (different key, bound inactive on [3, 15]).
        let a = clamp_candidate(4, "len", 0.0, 20.0, Some("w(0,20)"));
        let b = clamp_candidate(2, "len", 0.0, 20.0, Some("w(0,20)"));
        let c = clamp_candidate(7, "len", 0.0, 25.0, Some("w(0,25)"));
        let result = check_subsumption(&seeded_state(), &[a, b, c]);
        assert_eq!(result.classes, vec![vec![2, 4]], "key class, sorted");
        let class_diag = result
            .diagnostics
            .iter()
            .find(|d| d.message.contains("identical deterministic"))
            .expect("class diagnostic");
        assert_eq!(class_diag.pvt_ids, vec![2, 4]);
        assert_eq!(class_diag.severity, Severity::Info);
        assert!(class_diag.message.contains("representative #2"));
        // The pointwise pairs (2,7) and (4,7) are reported, not
        // collapsed.
        assert_eq!(
            result
                .diagnostics
                .iter()
                .filter(|d| d.message.contains("pointwise-equal"))
                .count(),
            2
        );
    }

    #[test]
    fn l6_requires_coinciding_post_states() {
        // Same key shape but different post-intervals on the profile
        // read-set: the grouping filter must keep them apart.
        let a = clamp_candidate(0, "len", 0.0, 5.0, Some("w(0,5)"));
        let b = clamp_candidate(1, "len", 0.0, 9.0, Some("w(0,9)"));
        let result = check_subsumption(&seeded_state(), &[a, b]);
        assert!(result.classes.is_empty());
        assert!(result.diagnostics.is_empty());
    }

    #[test]
    fn l6_ignores_nondeterministic_and_unlowered_candidates() {
        let mut a = clamp_candidate(0, "len", 0.0, 20.0, None); // nondeterministic
        let mut b = clamp_candidate(1, "len", 0.0, 20.0, None);
        a.transform_key = None;
        b.transform_key = None;
        let result = check_subsumption(&seeded_state(), &[a, b]);
        assert!(result.classes.is_empty());
        // Pointwise equivalence still reports — the *chains* are
        // equal regardless of determinism of the key.
        let c = CandidateFacts::new(2, "unlowered");
        assert!(check_subsumption(&seeded_state(), &[c.clone(), c])
            .classes
            .is_empty());
    }

    #[test]
    fn l7_certifies_unreachable_regions() {
        // Profile wants len ∈ [0, 1]; the fix clamps len into [5, 10]
        // — provably still fully violated.
        let mut c = clamp_candidate(3, "len", 5.0, 10.0, Some("w(5,10)"));
        c.profile_region = Some(("len".to_string(), ValueRegion::Range { lb: 0.0, ub: 1.0 }));
        let diags = check_tau_unreachable(&seeded_state(), 0.2, &[c]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].pvt_ids, vec![3]);
        assert!(diags[0].message.contains("τ = 0.2"));
        // A clamp into the admissible region is (correctly) not
        // flagged.
        let mut ok = clamp_candidate(4, "len", 0.0, 1.0, Some("w(0,1)"));
        ok.profile_region = Some(("len".to_string(), ValueRegion::Range { lb: 0.0, ub: 1.0 }));
        assert!(check_tau_unreachable(&seeded_state(), 0.2, &[ok]).is_empty());
    }

    #[test]
    fn l8_certifies_disjoint_deterministic_pairs_only() {
        let a = clamp_candidate(0, "len", 0.0, 5.0, Some("a"));
        let b = clamp_candidate(1, "aux", 0.0, 5.0, Some("b"));
        let c = clamp_candidate(2, "len", 1.0, 6.0, Some("c")); // conflicts with a
        let mut shuffled = clamp_candidate(3, "other", 0.0, 5.0, None);
        shuffled.transform_key = None; // nondeterministic
        let mut resample = clamp_candidate(4, "fifth", 0.0, 5.0, Some("r"));
        resample.rewrites_all_attributes = true;
        let result = check_commutation(&[a, b, c, shuffled, resample]);
        assert_eq!(
            result.commuting.pairs().collect::<Vec<_>>(),
            vec![(0, 1), (1, 2)]
        );
        assert_eq!(result.commuting.len(), 2);
        assert!(result.commuting.commutes(2, 1));
        assert!(!result.commuting.commutes(0, 2), "shared attribute");
        assert!(!result.commuting.commutes(1, 3), "nondeterministic");
        assert_eq!(result.diagnostics.len(), 1, "one summary, not O(m²)");
        assert_eq!(result.diagnostics[0].severity, Severity::Info);
        assert!(result.diagnostics[0].message.contains("2 of 10"));
        // No pairs → no diagnostic at all.
        let lone = clamp_candidate(0, "len", 0.0, 5.0, Some("a"));
        assert!(check_commutation(&[lone]).diagnostics.is_empty());
    }

    #[test]
    fn l9_certifies_identity_chains_as_error() {
        // Clamp strictly containing the observed interval.
        let noop = clamp_candidate(5, "len", 0.0, 20.0, Some("w(0,20)"));
        let diags = check_abstract_noop(&seeded_state(), &[noop]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("identity on the"));
        // Guarded identity: L3's whitelist cannot see through the
        // guard, L9 can.
        let mut guarded = CandidateFacts::new(6, "cond(len)");
        guarded.transfer = vec![TransferOp::Guarded(Box::new(TransferOp::Clamp {
            attr: "len".into(),
            lb: 0.0,
            ub: 20.0,
        }))];
        assert_eq!(check_abstract_noop(&seeded_state(), &[guarded]).len(), 1);
        // An effective clamp is not flagged.
        let effective = clamp_candidate(7, "len", 0.0, 5.0, Some("w(0,5)"));
        assert!(check_abstract_noop(&seeded_state(), &[effective]).is_empty());
        // An unlowered candidate (empty chain) is not flagged.
        assert!(check_abstract_noop(&seeded_state(), &[CandidateFacts::new(8, "x")]).is_empty());
    }
}
