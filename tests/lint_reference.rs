//! Reference parity of the near-linear pre-query stage.
//!
//! The lint pass and the dependency graph read their pairwise facts
//! off per-attribute buckets and run each transfer chain once over a
//! sparse overlay of the seed state. This file keeps the direct
//! formulations they replaced — every pair tested, every chain run on
//! a full copy of the state, a `BTreeMap` union–find — as test-only
//! references, and checks on random candidate sets (conditional,
//! resampling and stochastic transforms included) that every field of
//! the [`Diagnostics`] and every dependency edge agree exactly.

use dataprism::graph::PvtAttributeGraph;
use dataprism::lint::{candidate_facts, lint_pvts, seed_state};
use dataprism::profile::{DependenceKind, Profile};
use dataprism::transform::{ImputeStrategy, Transform};
use dataprism::Pvt;
use dp_frame::{CmpOp, Column, DType, DataFrame, Predicate};
use dp_lint::absint::{
    apply_chain, chains_pointwise_equal, violation_unreachable, Overlay, TransferOp,
};
use dp_lint::domains::AbsState;
use dp_lint::{
    check_abstract_noop, check_noop, check_schema_typing, check_transform_consistency,
    check_write_conflicts, CandidateFacts, Diagnostic, Diagnostics, RuleId, Severity,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// References: the all-pairs and full-clone formulations.
// ---------------------------------------------------------------------------

/// `G_PD` edges by testing all n²/2 pairs, in `(i, j)` id order.
fn ref_dependency_edges(pvts: &[Pvt]) -> Vec<(usize, usize)> {
    let adjacency: BTreeMap<usize, Vec<String>> =
        pvts.iter().map(|p| (p.id, p.attributes())).collect();
    let ids: Vec<usize> = adjacency.keys().copied().collect();
    let mut edges = Vec::new();
    for (k, &i) in ids.iter().enumerate() {
        let ai: BTreeSet<&String> = adjacency[&i].iter().collect();
        for &j in &ids[k + 1..] {
            if adjacency[&j].iter().any(|a| ai.contains(a)) {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// L5 over a `BTreeMap` union–find keyed by candidate id.
fn ref_check_graph(ids: &[usize], edges: &[(usize, usize)]) -> Vec<Diagnostic> {
    let nodes: BTreeSet<usize> = ids.iter().copied().collect();
    let mut parent: BTreeMap<usize, usize> = nodes.iter().map(|&i| (i, i)).collect();
    fn find(parent: &mut BTreeMap<usize, usize>, mut x: usize) -> usize {
        while parent[&x] != x {
            let grandparent = parent[&parent[&x]];
            parent.insert(x, grandparent);
            x = grandparent;
        }
        x
    }
    let mut out = Vec::new();
    let mut canonical: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &(a, b) in edges {
        if a == b {
            out.push(Diagnostic {
                rule: RuleId::GraphSanity,
                severity: Severity::Warn,
                pvt_ids: vec![a],
                attr: None,
                message: format!("candidate {a} has a self-loop in the dependency graph"),
            });
            continue;
        }
        if !nodes.contains(&a) || !nodes.contains(&b) {
            let mut pair = vec![a, b];
            pair.sort_unstable();
            out.push(Diagnostic {
                rule: RuleId::GraphSanity,
                severity: Severity::Warn,
                pvt_ids: pair,
                attr: None,
                message: format!(
                    "dependency edge ({a}, {b}) references a candidate outside the set"
                ),
            });
            continue;
        }
        canonical.insert((a.min(b), a.max(b)));
    }
    for &(a, b) in &canonical {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent.insert(ra.max(rb), ra.min(rb));
        }
    }
    let mut components: BTreeMap<usize, (Vec<usize>, usize)> = BTreeMap::new();
    for &id in &nodes {
        let root = find(&mut parent, id);
        components.entry(root).or_default().0.push(id);
    }
    for &(a, _) in &canonical {
        let root = find(&mut parent, a);
        components.entry(root).or_default().1 += 1;
    }
    if components.len() > 1 {
        out.push(Diagnostic {
            rule: RuleId::GraphSanity,
            severity: Severity::Info,
            pvt_ids: Vec::new(),
            attr: None,
            message: format!(
                "dependency graph splits into {} independent components; \
                 they could be diagnosed separately",
                components.len()
            ),
        });
    }
    for (members, n_edges) in components.values() {
        if *n_edges >= members.len() && !members.is_empty() {
            let preview: Vec<String> = members.iter().take(8).map(|i| i.to_string()).collect();
            let ellipsis = if members.len() > 8 { ", …" } else { "" };
            out.push(Diagnostic {
                rule: RuleId::GraphSanity,
                severity: Severity::Info,
                pvt_ids: members.clone(),
                attr: None,
                message: format!(
                    "candidates {{{}{}}} form a dependency cycle; partitioning cannot \
                     fully separate them",
                    preview.join(", "),
                    ellipsis
                ),
            });
        }
    }
    out
}

/// L6 with every chain run on a full clone of the state.
fn ref_subsumption(
    state: &AbsState,
    candidates: &[CandidateFacts],
) -> (Vec<Diagnostic>, Vec<Vec<usize>>) {
    let mut groups: BTreeMap<String, Vec<&CandidateFacts>> = BTreeMap::new();
    for c in candidates {
        if c.transfer.is_empty() || c.profile_attributes.is_empty() {
            continue;
        }
        let post = apply_chain(state, &c.transfer);
        let key = format!(
            "{:?}|{:?}",
            c.profile_attributes,
            post.project(&c.profile_attributes)
        );
        groups.entry(key).or_default().push(c);
    }
    let mut diagnostics = Vec::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for members in groups.values() {
        if members.len() < 2 {
            continue;
        }
        let mut by_key: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for c in members {
            if let Some(key) = &c.transform_key {
                by_key.entry(key.as_str()).or_default().push(c.id);
            }
        }
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
        for mut ids in by_key.into_values() {
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
    (diagnostics, classes)
}

/// L7 with every chain run on a full clone of the state.
fn ref_tau_unreachable(
    state: &AbsState,
    tau: f64,
    candidates: &[CandidateFacts],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for c in candidates {
        let Some((attr, region)) = &c.profile_region else {
            continue;
        };
        if c.transfer.is_empty() {
            continue;
        }
        let post = apply_chain(state, &c.transfer);
        if violation_unreachable(&post, attr, region, tau) {
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

/// L8 by testing every candidate pair's footprints.
fn ref_commuting_pairs(candidates: &[CandidateFacts]) -> Vec<(usize, usize)> {
    fn footprint(c: &CandidateFacts) -> BTreeSet<&str> {
        c.transform_reads
            .iter()
            .map(String::as_str)
            .chain(c.writes.iter().map(|w| w.attr.as_str()))
            .collect()
    }
    let mut pairs = Vec::new();
    for (i, a) in candidates.iter().enumerate() {
        if a.transform_key.is_none() || a.rewrites_all_attributes {
            continue;
        }
        let fa = footprint(a);
        let wa: BTreeSet<&str> = a.writes.iter().map(|w| w.attr.as_str()).collect();
        for b in candidates.iter().skip(i + 1) {
            if b.transform_key.is_none() || b.rewrites_all_attributes {
                continue;
            }
            let fb = footprint(b);
            let wb: BTreeSet<&str> = b.writes.iter().map(|w| w.attr.as_str()).collect();
            if wa.is_disjoint(&fb) && wb.is_disjoint(&fa) {
                pairs.push((a.id.min(b.id), a.id.max(b.id)));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// What the reference analysis yields: the diagnostics, the L6
/// classes and the L8 commuting pairs.
type Reference = (Vec<Diagnostic>, Vec<Vec<usize>>, Vec<(usize, usize)>);

/// The whole analysis from the references plus the unchanged
/// per-candidate rules.
fn ref_lint(pvts: &[Pvt], d_fail: &DataFrame, tau: f64) -> Reference {
    let facts: Vec<CandidateFacts> = pvts.iter().map(|p| candidate_facts(p, d_fail)).collect();
    let schema = d_fail.schema();
    let state = seed_state(d_fail);
    let mut diagnostics = Vec::new();
    for c in &facts {
        diagnostics.extend(check_schema_typing(&schema, c));
        diagnostics.extend(check_transform_consistency(c));
        diagnostics.extend(check_noop(c));
    }
    diagnostics.extend(check_write_conflicts(&facts));
    let ids: Vec<usize> = facts.iter().map(|c| c.id).collect();
    diagnostics.extend(ref_check_graph(&ids, &ref_dependency_edges(pvts)));
    let (l6, classes) = ref_subsumption(&state, &facts);
    diagnostics.extend(l6);
    diagnostics.extend(ref_tau_unreachable(&state, tau, &facts));
    let pairs = ref_commuting_pairs(&facts);
    if !pairs.is_empty() {
        let total = facts.len() * facts.len().saturating_sub(1) / 2;
        diagnostics.push(Diagnostic {
            rule: RuleId::Commutation,
            severity: Severity::Info,
            pvt_ids: Vec::new(),
            attr: None,
            message: format!(
                "{} of {} candidate pairs provably commute (disjoint deterministic \
                 read/write footprints); the fact table steers group testing's \
                 speculation depth",
                pairs.len(),
                total
            ),
        });
    }
    diagnostics.extend(check_abstract_noop(&state, &facts));
    diagnostics.sort();
    diagnostics.dedup();
    (diagnostics, classes, pairs)
}

// ---------------------------------------------------------------------------
// Random candidate sets.
// ---------------------------------------------------------------------------

const NUMERIC: [&str; 3] = ["a", "b", "e"];
const CATEGORICAL: [&str; 2] = ["c", "d"];

/// A small failing frame: three numeric and two categorical columns,
/// with nulls.
fn frame(rows: usize, salt: u64) -> DataFrame {
    let num = |k: u64| {
        (0..rows as u64)
            .map(|i| {
                let x = (i * 7 + k * 13 + salt) % 23;
                (x != 5).then_some(x as f64 - 4.0)
            })
            .collect::<Vec<_>>()
    };
    let cat = |k: u64| {
        (0..rows as u64)
            .map(|i| {
                let x = (i * 3 + k + salt) % 5;
                (x != 4).then(|| x.to_string())
            })
            .collect::<Vec<_>>()
    };
    DataFrame::from_columns(vec![
        Column::from_floats("a", num(1)),
        Column::from_floats("b", num(2)),
        Column::from_floats("e", num(3)),
        Column::from_strings("c", DType::Categorical, cat(1)),
        Column::from_strings("d", DType::Categorical, cat(2)),
    ])
    .unwrap()
}

fn domain(values: &[&str]) -> BTreeSet<String> {
    values.iter().map(|v| v.to_string()).collect()
}

/// One random column-level transform over the attribute picks `x`
/// (written) and `y` (read by the two-attribute kinds).
fn transform(kind: usize, x: usize, y: usize, lb: f64, width: f64) -> Transform {
    let (n, m) = (NUMERIC[x % 3].to_string(), NUMERIC[y % 3].to_string());
    let c = CATEGORICAL[x % 2].to_string();
    match kind % 10 {
        0 => Transform::Winsorize {
            attr: n,
            lb,
            ub: lb + width,
        },
        1 => Transform::LinearRescale {
            attr: n,
            lb,
            ub: lb + width,
        },
        2 => Transform::MapToDomain {
            attr: c,
            values: domain(&["0", "1"][..1 + y % 2]),
        },
        3 => Transform::Impute {
            attr: n,
            strategy: ImputeStrategy::Central,
        },
        4 => Transform::Impute {
            attr: c,
            strategy: ImputeStrategy::Mode,
        },
        5 => Transform::ResampleSelectivity {
            predicate: Predicate::cmp(c, CmpOp::Eq, "1"),
            theta: 0.4,
        },
        6 => Transform::BreakDependenceShuffle {
            a: m,
            b: n,
            alpha: 0.05,
        },
        7 => Transform::DecorrelateNoise {
            a: m,
            b: n,
            alpha: 0.05,
        },
        8 => Transform::Residualize { a: m, b: n },
        _ => Transform::Winsorize {
            attr: n,
            lb: -100.0,
            ub: 100.0,
        },
    }
}

/// One random profile over the attribute picks `x` and `y`.
fn profile(kind: usize, x: usize, y: usize, lb: f64, width: f64) -> Profile {
    let (n, m) = (NUMERIC[x % 3].to_string(), NUMERIC[y % 3].to_string());
    let c = CATEGORICAL[x % 2].to_string();
    match kind % 6 {
        0 => Profile::DomainNumeric {
            attr: n,
            lb,
            ub: lb + width,
        },
        1 => Profile::DomainCategorical {
            attr: c,
            values: domain(&["0", "1"][..1 + y % 2]),
        },
        2 => Profile::Missing {
            attr: if y.is_multiple_of(2) { n } else { c },
            theta: 0.02,
        },
        3 => Profile::Selectivity {
            predicate: Predicate::cmp(c, CmpOp::Eq, "1"),
            theta: 0.4,
        },
        4 => Profile::Indep {
            a: m,
            b: n,
            alpha: 0.05,
            kind: if y.is_multiple_of(2) {
                DependenceKind::Pearson
            } else {
                DependenceKind::Chi2
            },
        },
        _ => Profile::DomainNumeric {
            attr: n,
            lb: -100.0,
            ub: 100.0,
        },
    }
}

/// A random candidate. With `conditional` both halves are wrapped
/// under the same guard, so a guarded resample — the one chain that
/// reaches every column — comes up too.
fn pvt(id: usize, spec: Spec) -> Pvt {
    let ((tk, pk, x), (y, lb, width), guard) = spec;
    let conditional = guard == 0;
    let mut transform = transform(tk, x, y, lb, width);
    let mut profile = profile(pk, x, y, lb, width);
    if conditional {
        let condition = Predicate::cmp(CATEGORICAL[y % 2], CmpOp::Ne, "2");
        transform = Transform::Conditional {
            condition: condition.clone(),
            inner: Box::new(transform),
        };
        profile = Profile::Conditional {
            condition,
            inner: Box::new(profile),
        };
    }
    Pvt {
        id,
        profile,
        transform,
    }
}

/// Transform kind, profile kind and attribute pick; second attribute
/// pick and the range; and a guard selector (0: conditional).
type Spec = ((usize, usize, usize), (usize, f64, f64), usize);

fn spec() -> impl Strategy<Value = Spec> {
    (
        (0usize..10, 0usize..6, 0usize..6),
        (0usize..6, -8f64..12.0, 0f64..20.0),
        0usize..3,
    )
}

// ---------------------------------------------------------------------------
// Parity.
// ---------------------------------------------------------------------------

/// Every field of `lint_pvts` against the reference analysis, plus
/// the dependency edges and each chain's overlay against its full
/// post-state.
fn assert_parity(pvts: &[Pvt], d_fail: &DataFrame, tau: f64) {
    let d: Diagnostics = lint_pvts(pvts, d_fail, tau);
    let (diagnostics, classes, pairs) = ref_lint(pvts, d_fail, tau);
    assert!(d.analyzed);
    assert_eq!(d.diagnostics, diagnostics);
    assert_eq!(d.equivalence, classes);
    assert!(d.pruned.is_empty() && d.subsumed.is_empty());
    assert_eq!(d.commuting.pairs().collect::<Vec<_>>(), pairs);
    assert_eq!(d.commuting.len(), pairs.len());
    let pair_set: BTreeSet<(usize, usize)> = pairs.iter().copied().collect();
    for a in pvts {
        for b in pvts {
            let expected = pair_set.contains(&(a.id.min(b.id), a.id.max(b.id)));
            assert_eq!(
                d.commuting.commutes(a.id, b.id),
                expected,
                "{} {}",
                a.id,
                b.id
            );
        }
    }

    assert_eq!(
        PvtAttributeGraph::new(pvts).dependency_edges(),
        ref_dependency_edges(pvts)
    );

    let state = seed_state(d_fail);
    for p in pvts {
        let facts = candidate_facts(p, d_fail);
        let full = apply_chain(&state, &facts.transfer);
        let overlay = Overlay::apply(&state, &facts.transfer);
        for attr in full.attrs().chain(["absent"]) {
            assert_eq!(
                format!("{:?}", overlay.col(attr)),
                format!("{:?}", full.col(attr)),
                "PVT {} column {attr}",
                p.id
            );
        }
    }
}

proptest! {
    #[test]
    fn bucketed_and_sparse_lint_match_the_all_pairs_references(
        specs in prop::collection::vec(spec(), 0..24),
        rows in 6usize..40,
        salt in 0u64..50,
        stride in 1usize..4,
        tau in 0.05f64..0.6,
    ) {
        let d_fail = frame(rows, salt);
        // Sparse, distinct, out-of-order ids: rules key on ids, not
        // positions (odd positions sit 100 above their stride slot,
        // which no multiple of 3·stride ≤ 9 reaches).
        let pvts: Vec<Pvt> = specs
            .into_iter()
            .enumerate()
            .map(|(k, s)| pvt(3 * stride * k + 100 * (k % 2), s))
            .rev()
            .collect();
        assert_parity(&pvts, &d_fail, tau);
    }
}

/// Chains the lowering never produces but the overlay must still run
/// exactly: a resample between column writes, a guarded resample, and
/// writes to an unseeded column.
#[test]
fn overlay_matches_the_full_clone_on_mixed_chains() {
    let d_fail = frame(30, 3);
    let state = seed_state(&d_fail);
    let clamp = |attr: &str| TransferOp::Clamp {
        attr: attr.into(),
        lb: 0.0,
        ub: 5.0,
    };
    let fill = |attr: &str| TransferOp::FillNulls { attr: attr.into() };
    let guarded = |op: TransferOp| TransferOp::Guarded(Box::new(op));
    let chains = vec![
        vec![clamp("a"), TransferOp::ResampleRows, fill("b")],
        vec![fill("a"), guarded(TransferOp::ResampleRows), clamp("zz")],
        vec![guarded(guarded(TransferOp::ResampleRows)), fill("c")],
        vec![fill("zz"), TransferOp::ResampleRows, guarded(fill("a"))],
        vec![
            TransferOp::Perturb { attr: "e".into() },
            guarded(clamp("e")),
        ],
    ];
    for ops in chains {
        let full = apply_chain(&state, &ops);
        let overlay = Overlay::apply(&state, &ops);
        for attr in full.attrs().chain(["absent"]) {
            assert_eq!(
                format!("{:?}", overlay.col(attr)),
                format!("{:?}", full.col(attr)),
                "{ops:?} column {attr}"
            );
        }
    }
}
