//! # dp_lint — static analysis of DataPrism PVT pipelines
//!
//! DataPrism pays one oracle query per intervention; a malformed or
//! provably futile candidate PVT burns queries the benefit score was
//! designed to save. This crate analyzes a diagnosis *before any
//! oracle query*: a [`Diagnostics`] pass over the candidate set, the
//! [`dp_frame::Schema`], and the PVT-dependency graph, in the spirit
//! of task-aware static pipeline checking (PrismaDV) and no-fix
//! pruning certificates (Chakarov et al.).
//!
//! ## Rules
//!
//! | ID | Name | Severity | Catches |
//! |----|------|----------|---------|
//! | L1 | schema typing | Error | reads/writes of missing or dtype-incompatible attributes |
//! | L2 | violation–transform consistency | Error | fixes that provably cannot move their profile's parameter toward `D_pass` |
//! | L3 | no-op/idempotence | Error/Warn | transforms fixing no violating tuples on `D_fail` (coverage 0) |
//! | L4 | conflict detection | Warn | two candidates writing one attribute with incompatible targets |
//! | L5 | graph sanity | Warn/Info | self-loops, dangling edges, cycles, disconnected components |
//! | L6 | subsumption/equivalence | Info | candidate classes applying the bit-identical repair — one oracle charge per class |
//! | L7 | τ-unreachability | Error | fixes that provably keep their own profile violated beyond the τ margin |
//! | L8 | commutation/independence | Info | candidate pairs with disjoint deterministic footprints — a fact table for the planner |
//! | L9 | abstract no-op | Error | transformation chains provably the identity on the observed abstract state |
//!
//! L1–L5 reason over per-candidate facts; L6–L9 run an
//! abstract-interpretation pass ([`domains`], [`absint`]): per-column
//! abstract states (numeric intervals, null-fraction bounds,
//! categorical support sets) seeded exactly from `D_fail`, pushed
//! through transfer functions that symbolically execute each
//! transformation chain.
//!
//! The analyzer is deliberately decoupled from the runtime's
//! `Profile`/`Transform` enums: callers lower each candidate into a
//! [`CandidateFacts`] record and hand [`analyze`] the schema, the
//! seeded abstract state, the `τ` margin, the facts, and the
//! dependency edges. Emitted diagnostics are sorted by
//! `(rule, severity, pvt_ids, attr, message)` — a total, deterministic
//! order, so reports and golden files are stable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod domains;
mod facts;
mod graph;
mod rules;

pub use facts::{AttrRequirement, CandidateFacts, TypeClass, WriteTarget};
pub use graph::check_graph;
pub use rules::{
    check_abstract_noop, check_commutation, check_noop, check_schema_typing, check_subsumption,
    check_tau_unreachable, check_transform_consistency, check_write_conflicts, CommutationResult,
    SubsumptionResult,
};

use dp_frame::{DType, Schema};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// How bad a diagnostic is. The `Ord` order (Error < Warn < Info) is
/// the report order: most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The candidate is provably broken or futile; `Lint::Prune`
    /// drops Error-level candidates before ranking.
    Error,
    /// Suspicious but not provably futile; never pruned.
    Warn,
    /// Structural information; never pruned.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        })
    }
}

/// The named lint rules, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// L1 — schema typing of attribute reads/writes.
    SchemaTyping,
    /// L2 — violation–transform consistency.
    TransformConsistency,
    /// L3 — no-op/idempotence detection.
    NoOpTransform,
    /// L4 — incompatible-write conflict detection.
    WriteConflict,
    /// L5 — dependency-graph sanity.
    GraphSanity,
    /// L6 — subsumption/equivalence classes.
    Subsumption,
    /// L7 — τ-unreachability of the candidate's own profile.
    TauUnreachable,
    /// L8 — commutation/independence facts.
    Commutation,
    /// L9 — abstract no-op (fixpoint) detection.
    AbstractNoOp,
}

impl RuleId {
    /// The rule's short code, `"L1"` … `"L9"`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::SchemaTyping => "L1",
            RuleId::TransformConsistency => "L2",
            RuleId::NoOpTransform => "L3",
            RuleId::WriteConflict => "L4",
            RuleId::GraphSanity => "L5",
            RuleId::Subsumption => "L6",
            RuleId::TauUnreachable => "L7",
            RuleId::Commutation => "L8",
            RuleId::AbstractNoOp => "L9",
        }
    }

    /// The rule's human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::SchemaTyping => "schema typing",
            RuleId::TransformConsistency => "violation-transform consistency",
            RuleId::NoOpTransform => "no-op transform",
            RuleId::WriteConflict => "write conflict",
            RuleId::GraphSanity => "graph sanity",
            RuleId::Subsumption => "subsumption/equivalence",
            RuleId::TauUnreachable => "tau-unreachability",
            RuleId::Commutation => "commutation/independence",
            RuleId::AbstractNoOp => "abstract no-op",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding. Field order is the deterministic sort order
/// (`Ord` is derived): rule, then severity, then the involved ids.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How bad it is.
    pub severity: Severity,
    /// The candidate ids involved, ascending.
    pub pvt_ids: Vec<usize>,
    /// The attribute at fault, when the finding is attribute-scoped.
    pub attr: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] ", self.rule, self.severity)?;
        if !self.pvt_ids.is_empty() {
            let ids: Vec<String> = self.pvt_ids.iter().map(|i| i.to_string()).collect();
            write!(f, "PVT {}: ", ids.join(", "))?;
        }
        f.write_str(&self.message)
    }
}

/// The machine-readable result of a lint pass, surfaced in
/// `dataprism::Explanation` and the markdown report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    /// Whether a lint pass ran at all (`false` under `Lint::Off`).
    pub analyzed: bool,
    /// The findings, in the deterministic `(rule, severity, ids,
    /// attr, message)` order.
    pub diagnostics: Vec<Diagnostic>,
    /// Ids of candidates dropped before ranking (`Lint::Prune` only),
    /// ascending. Empty under `Off`/`Report`.
    pub pruned: Vec<usize>,
    /// L6 equivalence classes (size ≥ 2), each sorted ascending with
    /// the representative first; classes sorted by representative.
    pub equivalence: Vec<Vec<usize>>,
    /// Ids dropped because an equivalence-class sibling already
    /// carries their oracle charge (`Lint::Prune` only), ascending.
    /// Disjoint from `pruned` (which holds the `Error`-level drops).
    pub subsumed: Vec<usize>,
    /// L8 fact table: which candidate pairs provably commute.
    pub commuting: Commuting,
}

/// The L8 fact table, stored as the candidates eligible to commute
/// (deterministic, row-local transformations) plus the eligible pairs
/// whose read/write footprints conflict; every other pair of eligible
/// candidates provably commutes. The storage grows with the candidates
/// and the conflicts, not with the Θ(n²) commuting pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Commuting {
    /// Eligible candidate ids, ascending and distinct.
    eligible: Vec<usize>,
    /// Conflicting eligible pairs `(low id, high id)`, ascending and
    /// distinct.
    conflicts: Vec<(usize, usize)>,
}

impl Commuting {
    /// The table over `eligible` ids with `conflicts` among them (in
    /// any order, duplicates allowed; each pair `(low id, high id)`).
    pub fn new(mut eligible: Vec<usize>, mut conflicts: Vec<(usize, usize)>) -> Self {
        eligible.sort_unstable();
        eligible.dedup();
        conflicts.sort_unstable();
        conflicts.dedup();
        Commuting {
            eligible,
            conflicts,
        }
    }

    /// Number of certified commuting pairs.
    pub fn len(&self) -> usize {
        let n = self.eligible.len();
        n * n.saturating_sub(1) / 2 - self.conflicts.len()
    }

    /// No pair commutes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether candidates `i` and `j` (in either order) provably
    /// commute.
    pub fn commutes(&self, i: usize, j: usize) -> bool {
        i != j
            && self.eligible.binary_search(&i).is_ok()
            && self.eligible.binary_search(&j).is_ok()
            && self.conflicts.binary_search(&(i.min(j), i.max(j))).is_err()
    }

    /// Every certified commuting pair `(low id, high id)`, ascending.
    /// Enumerates all eligible pairs: for reports and tests, not for
    /// hot paths.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.eligible.iter().enumerate().flat_map(move |(k, &i)| {
            self.eligible[k + 1..]
                .iter()
                .map(move |&j| (i, j))
                .filter(|pair| self.conflicts.binary_search(pair).is_err())
        })
    }
}

impl Diagnostics {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings with the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// All candidate ids involved in an `Error`-level finding — the
    /// prune set.
    pub fn error_pvt_ids(&self) -> BTreeSet<usize> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .flat_map(|d| d.pvt_ids.iter().copied())
            .collect()
    }

    /// The findings a given rule produced.
    pub fn for_rule(&self, rule: RuleId) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// All candidate ids with an L7 (τ-unreachability) finding.
    pub fn unreachable_ids(&self) -> BTreeSet<usize> {
        self.diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::TauUnreachable)
            .flat_map(|d| d.pvt_ids.iter().copied())
            .collect()
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.analyzed {
            return f.write_str("lint off");
        }
        write!(
            f,
            "{} error(s) / {} warning(s) / {} info",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )?;
        if !self.pruned.is_empty() {
            write!(f, ", {} pruned", self.pruned.len())?;
        }
        if !self.subsumed.is_empty() {
            write!(f, ", {} subsumed", self.subsumed.len())?;
        }
        Ok(())
    }
}

/// Run every rule over the candidate facts, the schema, the seeded
/// abstract state of `D_fail`, the acceptable-malfunction margin
/// `tau`, and the dependency edges. The returned diagnostics are
/// deterministically ordered and `analyzed` is set; `pruned` and
/// `subsumed` are left empty (pruning is the runtime's decision, not
/// the analyzer's), while `equivalence` and `commuting` carry the
/// L6/L8 fact tables.
pub fn analyze(
    schema: &Schema,
    state: &domains::AbsState,
    tau: f64,
    candidates: &[CandidateFacts],
    edges: &[(usize, usize)],
) -> Diagnostics {
    let dtypes: HashMap<&str, DType> = schema
        .fields()
        .iter()
        .map(|f| (f.name.as_str(), f.dtype))
        .collect();
    let mut diagnostics = Vec::new();
    for c in candidates {
        diagnostics.extend(rules::schema_typing(
            schema,
            |attr| dtypes.get(attr).copied(),
            c,
        ));
        diagnostics.extend(rules::check_transform_consistency(c));
        diagnostics.extend(rules::check_noop(c));
    }
    diagnostics.extend(rules::check_write_conflicts(candidates));
    let ids: Vec<usize> = candidates.iter().map(|c| c.id).collect();
    diagnostics.extend(graph::check_graph(&ids, edges));
    let posts = rules::post_states(state, candidates);
    let subsumption = rules::subsumption(state, candidates, &posts);
    diagnostics.extend(subsumption.diagnostics);
    diagnostics.extend(rules::tau_unreachable(tau, candidates, &posts));
    let commutation = rules::check_commutation(candidates);
    diagnostics.extend(commutation.diagnostics);
    diagnostics.extend(rules::check_abstract_noop(state, candidates));
    diagnostics.sort();
    diagnostics.dedup();
    Diagnostics {
        analyzed: true,
        diagnostics,
        pruned: Vec::new(),
        equivalence: subsumption.classes,
        subsumed: Vec::new(),
        commuting: commutation.commuting,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DType::Int),
            Field::new("target", DType::Categorical),
        ])
        .unwrap()
    }

    #[test]
    fn empty_candidate_set_is_clean() {
        let d = analyze(&schema(), &domains::AbsState::new(), 0.2, &[], &[]);
        assert!(d.analyzed);
        assert!(d.is_clean());
        assert!(d.error_pvt_ids().is_empty());
        assert_eq!(d.to_string(), "0 error(s) / 0 warning(s) / 0 info");
    }

    #[test]
    fn single_attribute_schema_degenerate_input() {
        // One-column schema, one healthy candidate touching it: clean.
        let schema = Schema::new(vec![Field::new("x", DType::Float)]).unwrap();
        let mut c = CandidateFacts::new(0, "domain_num(x)");
        c.reads.push(AttrRequirement::new("x", TypeClass::Numeric));
        c.writes.push(AttrRequirement::new("x", TypeClass::Numeric));
        c.profile_attributes = vec!["x".into()];
        let d = analyze(
            &schema,
            &domains::AbsState::new(),
            0.2,
            std::slice::from_ref(&c),
            &[],
        );
        assert!(d.is_clean(), "{:?}", d.diagnostics);
        // The same candidate against an empty requirement on a
        // missing column errors.
        c.reads.push(AttrRequirement::new("y", TypeClass::Any));
        let d = analyze(&schema, &domains::AbsState::new(), 0.2, &[c], &[]);
        assert_eq!(d.count(Severity::Error), 1);
        assert_eq!(d.error_pvt_ids().into_iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn ordering_is_deterministic_and_rule_major() {
        // Build candidates triggering L1, L2, L3, and L5 in reverse
        // id order; the output must come back sorted rule-major.
        let mut broken_schema = CandidateFacts::new(9, "domain_cat(missing)");
        broken_schema
            .reads
            .push(AttrRequirement::new("missing", TypeClass::Textual));
        let mut noop = CandidateFacts::new(1, "domain_num(age)");
        noop.profile_attributes = vec!["age".into()];
        noop.writes
            .push(AttrRequirement::new("age", TypeClass::Numeric));
        noop.coverage_on_fail = 0.0;
        noop.coverage_is_exact = true;
        let mut disjoint = CandidateFacts::new(4, "domain_num(age)");
        disjoint.profile_attributes = vec!["age".into()];
        disjoint
            .writes
            .push(AttrRequirement::new("target", TypeClass::Textual));
        let candidates = vec![broken_schema, noop, disjoint];
        let state = domains::AbsState::new();
        let d1 = analyze(&schema(), &state, 0.2, &candidates, &[(1, 1)]);
        let d2 = analyze(&schema(), &state, 0.2, &candidates, &[(1, 1)]);
        assert_eq!(d1, d2, "analysis is a pure function of its inputs");
        let rules: Vec<RuleId> = d1.diagnostics.iter().map(|d| d.rule).collect();
        let mut sorted = rules.clone();
        sorted.sort();
        assert_eq!(rules, sorted, "rule-major order");
        assert!(rules.contains(&RuleId::SchemaTyping));
        assert!(rules.contains(&RuleId::TransformConsistency));
        assert!(rules.contains(&RuleId::NoOpTransform));
        assert!(rules.contains(&RuleId::GraphSanity));
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(RuleId::SchemaTyping.code(), "L1");
        assert_eq!(RuleId::GraphSanity.code(), "L5");
        assert_eq!(RuleId::NoOpTransform.name(), "no-op transform");
        let d = Diagnostic {
            rule: RuleId::NoOpTransform,
            severity: Severity::Error,
            pvt_ids: vec![2],
            attr: Some("len".into()),
            message: "certified no-op".into(),
        };
        assert_eq!(d.to_string(), "[L3/error] PVT 2: certified no-op");
        let mut diags = Diagnostics {
            analyzed: true,
            diagnostics: vec![d],
            pruned: vec![2],
            ..Default::default()
        };
        assert_eq!(
            diags.to_string(),
            "1 error(s) / 0 warning(s) / 0 info, 1 pruned"
        );
        diags.subsumed = vec![5, 6];
        assert_eq!(
            diags.to_string(),
            "1 error(s) / 0 warning(s) / 0 info, 1 pruned, 2 subsumed"
        );
        diags.subsumed.clear();
        diags.analyzed = false;
        assert_eq!(diags.to_string(), "lint off");
    }
}
