//! Transfer functions: symbolic execution of repair transformations
//! over the abstract states of [`crate::domains`].
//!
//! The engine is deliberately decoupled from the core crate's
//! `Transform` type: the bridge lowers each transformation (and each
//! composed chain) to a sequence of [`TransferOp`]s that capture just
//! enough semantics for sound reasoning. Every op's transfer
//! over-approximates its concrete effect — the abstract post-state
//! contains the concrete post-column for *every* concrete column the
//! pre-state admits (property-tested end-to-end against the real
//! transform kernels in the suite).
//!
//! Three certificate families are built on top:
//!
//! - [`chain_is_identity`] — the chain provably leaves every frame
//!   admitted by the state bit-unchanged (rule L9);
//! - [`chains_pointwise_equal`] — two chains provably produce
//!   bit-identical output on every frame admitted by the state
//!   (rule L6's semantic half; the syntactic half — identical
//!   deterministic transforms — lives in the facts);
//! - [`violation_unreachable`] — after the chain, the violated
//!   parameter of the candidate's own profile provably stays above
//!   the `τ` margin (rule L7).
//!
//! All three only ever answer `true` on evidence; `Top` components
//! certify nothing.

use crate::domains::{AbsCol, AbsState, Interval, SupportDom};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// The region of values a profile declares admissible for its
/// attribute, lowered from the core `Profile` parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRegion {
    /// Non-null values must lie in `[lb, ub]` (numeric domain
    /// profiles). Violation counts out-of-range non-null values over
    /// all rows.
    Range {
        /// Inclusive lower bound.
        lb: f64,
        /// Inclusive upper bound.
        ub: f64,
    },
    /// Non-null values must be members of the set (categorical
    /// domain profiles). Violation counts foreign non-null values
    /// over all rows.
    Domain(BTreeSet<String>),
    /// The null fraction must not exceed `theta` (missing-value
    /// profiles). Violation is the thresholded excess
    /// `clamp((f − θ)/(1 − θ), 0, 1)`.
    NullFracAtMost(f64),
}

/// One symbolic step of a repair chain. Lowered from the core
/// `Transform` enum by the bridge; each variant documents the
/// concrete semantics its transfer over-approximates.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferOp {
    /// `x ↦ clamp(x, lb, ub)` on every non-null value (winsorize).
    Clamp {
        /// Written attribute.
        attr: String,
        /// Clamp lower bound.
        lb: f64,
        /// Clamp upper bound.
        ub: f64,
    },
    /// A monotone affine map of the observed range onto `[lb, ub]`
    /// (linear rescale). Never an identity certificate: even a
    /// same-range rescale is not bit-exact in floating point.
    AffineToRange {
        /// Written attribute.
        attr: String,
        /// Target lower bound.
        lb: f64,
        /// Target upper bound.
        ub: f64,
    },
    /// Values outside `values` are mapped onto members of `values`;
    /// values inside are untouched (order-preserving domain map).
    MapIntoDomain {
        /// Written attribute.
        attr: String,
        /// Target domain.
        values: BTreeSet<String>,
    },
    /// Nulls are replaced by a statistic of the non-null values
    /// (mean/mode), which always lies in the observed hull/support;
    /// non-null values are untouched. No-op on an all-null column
    /// (no statistic to fill with).
    FillNulls {
        /// Written attribute.
        attr: String,
    },
    /// Outliers under a refit detector are clamped to the detector
    /// bounds or replaced by a central statistic of the inliers —
    /// either way the result stays inside the observed hull.
    BoundOutliers {
        /// Written attribute.
        attr: String,
    },
    /// Text values are edited to match a pattern: the support is
    /// unknown afterwards.
    RepairPattern {
        /// Written attribute.
        attr: String,
    },
    /// The column's values are permuted (dependence-breaking
    /// shuffle): the value multiset — hence interval, support, and
    /// null fraction — is preserved.
    PermuteValues {
        /// Written attribute.
        attr: String,
    },
    /// Values are perturbed by data-dependent noise (decorrelation,
    /// residualization): the interval is lost, nulls are preserved.
    Perturb {
        /// Written attribute.
        attr: String,
    },
    /// Rows are re-sampled from the existing rows (selectivity
    /// repair): every column keeps its interval and support (values
    /// come from existing rows), but per-column null *fractions* can
    /// move anywhere in `(0, 1)` bounds.
    ResampleRows,
    /// The inner op applies only to a predicate-selected subset of
    /// rows: the post-state is the join of the identity and the
    /// inner transfer.
    Guarded(Box<TransferOp>),
}

impl TransferOp {
    /// The attribute this op writes, when it is column-local.
    pub fn written_attr(&self) -> Option<&str> {
        match self {
            TransferOp::Clamp { attr, .. }
            | TransferOp::AffineToRange { attr, .. }
            | TransferOp::MapIntoDomain { attr, .. }
            | TransferOp::FillNulls { attr }
            | TransferOp::BoundOutliers { attr }
            | TransferOp::RepairPattern { attr }
            | TransferOp::PermuteValues { attr }
            | TransferOp::Perturb { attr } => Some(attr),
            TransferOp::ResampleRows => None,
            TransferOp::Guarded(inner) => inner.written_attr(),
        }
    }
}

/// The effect of a column-local `op` on the column it writes.
/// `ResampleRows` and `Guarded` are not column-local; the state-level
/// transfers handle them.
fn transfer_col(col: &mut AbsCol, op: &TransferOp) {
    match op {
        TransferOp::Clamp { lb, ub, .. } => {
            col.interval = match col.interval {
                Interval::Empty => Interval::Empty,
                // clamp maps any input into [lb, ub]; values already
                // inside a tighter observed range stay put, so the
                // post-range is the intersection-or-clamp hull.
                Interval::Range { lo, hi } => {
                    Interval::range(lo.clamp(*lb, *ub), hi.clamp(*lb, *ub))
                }
                Interval::Top => Interval::range(*lb, *ub),
            };
        }
        TransferOp::AffineToRange { lb, ub, .. } => {
            col.interval = match col.interval {
                Interval::Empty => Interval::Empty,
                // The map sends observed min→lb and max→ub
                // monotonically; a degenerate observed range centers
                // on the midpoint, which is also inside [lb, ub].
                _ => Interval::range(*lb, *ub),
            };
        }
        TransferOp::MapIntoDomain { values, .. } => {
            col.support = match &col.support {
                SupportDom::Set(s) if s.is_empty() => SupportDom::Set(BTreeSet::new()),
                // In-domain values stay; foreign values land on
                // members of the target domain.
                SupportDom::Set(s) => SupportDom::Set(
                    s.intersection(values)
                        .cloned()
                        .chain(values.iter().cloned())
                        .collect(),
                ),
                SupportDom::Top => SupportDom::Top,
            };
        }
        TransferOp::FillNulls { .. } => {
            if col.null_hi <= 0.0 || col.null_lo >= 1.0 {
                // Nothing to fill, or certainly nothing to fill
                // *with* (the concrete kernel no-ops on an all-null
                // column).
            } else if col.null_hi < 1.0 {
                // Every admitted column has a non-null statistic to
                // fill with: all nulls are replaced.
                col.null_lo = 0.0;
                col.null_hi = 0.0;
            } else {
                // The band admits both an all-null column (fill
                // no-ops, fraction stays 1) and a partial one (fill
                // zeroes it): keep both outcomes admissible.
                col.null_lo = 0.0;
            }
            // Interval/support preserved: the fill value is the mean
            // (inside the hull; Int rounding stays inside an integral
            // hull) or the mode (a member of the support).
        }
        TransferOp::RepairPattern { .. } => col.support = SupportDom::Top,
        TransferOp::Perturb { .. } => col.interval = Interval::Top,
        // Clamping to refit detector bounds or replacing with a
        // central statistic of the inliers keeps every value inside
        // the observed hull (Int rounding stays inside an integral
        // hull), and a permutation preserves the value multiset:
        // interval, support, and null fraction all survive.
        TransferOp::BoundOutliers { .. } | TransferOp::PermuteValues { .. } => {}
        TransferOp::ResampleRows | TransferOp::Guarded(_) => {
            unreachable!("not a column-local op")
        }
    }
}

/// Whether `op` changes nothing at all (no column is even touched).
fn is_inert(op: &TransferOp) -> bool {
    matches!(
        op,
        TransferOp::BoundOutliers { .. } | TransferOp::PermuteValues { .. }
    )
}

/// `ResampleRows` on one column: values come from existing rows, so
/// interval and support are preserved — but the null *fraction*
/// depends on which rows survive.
fn widen_nulls(col: &mut AbsCol) {
    if col.null_hi > 0.0 {
        col.null_lo = 0.0;
        col.null_hi = 1.0;
    }
}

/// Apply one op to `state` in place.
pub fn transfer(state: &mut AbsState, op: &TransferOp) {
    match op {
        TransferOp::ResampleRows => {
            let attrs: Vec<String> = state.attrs().map(str::to_string).collect();
            for attr in attrs {
                widen_nulls(state.col_mut(&attr));
            }
        }
        TransferOp::Guarded(inner) => {
            let pre = state.clone();
            transfer(state, inner);
            if let Some(attr) = inner.written_attr() {
                let joined = pre.col(attr).join(&state.col(attr));
                state.set(attr, joined);
            } else {
                // A global inner op under a guard: join every column.
                let attrs: Vec<String> = pre.attrs().map(str::to_string).collect();
                for attr in attrs {
                    let joined = pre.col(&attr).join(&state.col(&attr));
                    state.set(&attr, joined);
                }
            }
        }
        op if is_inert(op) => {}
        op => {
            let attr = op
                .written_attr()
                .expect("column-local ops write one attribute");
            transfer_col(state.col_mut(attr), op);
        }
    }
}

/// Run a whole chain on a full copy of `seed`, returning the
/// post-state. [`Overlay::apply`] computes the same post-state while
/// copying only the columns the chain writes.
pub fn apply_chain(seed: &AbsState, ops: &[TransferOp]) -> AbsState {
    let mut state = seed.clone();
    for op in ops {
        transfer(&mut state, op);
    }
    state
}

/// The column `attr` of `state`, borrowed when it is bound.
fn read<'a>(state: &'a AbsState, attr: &str) -> Cow<'a, AbsCol> {
    match state.get(attr) {
        Some(col) => Cow::Borrowed(col),
        None => Cow::Owned(AbsCol::top()),
    }
}

/// The post-state of a transformation chain as a sparse overlay on
/// the seed state: only the columns the chain writes are copied, and
/// every other column reads through to the seed. `ResampleRows`
/// rewrites every column, so the overlay records that it ran and
/// widens a seed column's null band when the column is read. Every
/// read returns what [`apply_chain`]'s full post-state holds for the
/// same column; only a guarded `ResampleRows` copies the whole seed,
/// because its join reaches every column.
#[derive(Debug, Clone)]
pub struct Overlay<'s> {
    seed: &'s AbsState,
    written: BTreeMap<String, AbsCol>,
    /// A `ResampleRows` ran: seed columns not in `written` read with
    /// their null band widened.
    resampled: bool,
}

impl<'s> Overlay<'s> {
    /// Run `ops` over `seed`.
    pub fn apply(seed: &'s AbsState, ops: &[TransferOp]) -> Self {
        let mut overlay = Overlay {
            seed,
            written: BTreeMap::new(),
            resampled: false,
        };
        for op in ops {
            overlay.transfer(op);
        }
        overlay
    }

    /// The post-state's abstract column for `attr` (`Top` when
    /// neither written nor seeded).
    pub fn col(&self, attr: &str) -> Cow<'_, AbsCol> {
        if let Some(col) = self.written.get(attr) {
            return Cow::Borrowed(col);
        }
        match self.seed.get(attr) {
            Some(col) if self.resampled && col.null_hi > 0.0 => {
                let mut col = col.clone();
                widen_nulls(&mut col);
                Cow::Owned(col)
            }
            Some(col) => Cow::Borrowed(col),
            None => Cow::Owned(AbsCol::top()),
        }
    }

    fn col_mut(&mut self, attr: &str) -> &mut AbsCol {
        if !self.written.contains_key(attr) {
            let col = self.col(attr).into_owned();
            self.written.insert(attr.to_string(), col);
        }
        self.written.get_mut(attr).expect("inserted above")
    }

    fn transfer(&mut self, op: &TransferOp) {
        match op {
            TransferOp::ResampleRows => {
                self.resampled = true;
                self.written.values_mut().for_each(widen_nulls);
            }
            TransferOp::Guarded(inner) => match inner.written_attr() {
                Some(attr) => {
                    let pre = self.col(attr).into_owned();
                    self.transfer(inner);
                    let joined = pre.join(&self.col(attr));
                    self.written.insert(attr.to_string(), joined);
                }
                None => {
                    // A global inner op under a guard joins every
                    // column with its pre-state: copy the seed in.
                    let seeded: Vec<String> = self.seed.attrs().map(str::to_string).collect();
                    for attr in &seeded {
                        self.col_mut(attr);
                    }
                    let pre = self.written.clone();
                    self.transfer(inner);
                    for (attr, pre_col) in pre {
                        let joined = pre_col.join(&self.col(&attr));
                        self.written.insert(attr, joined);
                    }
                }
            },
            op if is_inert(op) => {}
            op => {
                let attr = op
                    .written_attr()
                    .expect("column-local ops write one attribute");
                transfer_col(self.col_mut(attr), op);
            }
        }
    }
}

/// Is `op` provably the identity on every concrete frame `state`
/// admits? Monotone in the abstraction: widening any component can
/// only flip `true` to `false`.
fn op_is_identity(state: &AbsState, op: &TransferOp) -> bool {
    match op {
        TransferOp::Clamp { attr, lb, ub } => read(state, attr).interval.within(*lb, *ub),
        // A rescale recomputes every value through an affine map;
        // even when the target range equals the observed range the
        // round-trip is not bit-exact.
        TransferOp::AffineToRange { .. } => false,
        TransferOp::MapIntoDomain { attr, values } => match &read(state, attr).support {
            // The order-preserving map rewrites only foreign values.
            SupportDom::Set(s) => s.is_subset(values),
            SupportDom::Top => false,
        },
        TransferOp::FillNulls { attr } => {
            let col = read(state, attr);
            // Nothing to fill — or nothing to fill with.
            col.null_hi <= 0.0 || col.null_lo >= 1.0
        }
        // Refit detectors and pattern/noise/permutation repairs have
        // no static identity certificate.
        TransferOp::BoundOutliers { .. }
        | TransferOp::RepairPattern { .. }
        | TransferOp::PermuteValues { .. }
        | TransferOp::Perturb { .. }
        | TransferOp::ResampleRows => false,
        // If the inner op is the identity on the whole column, it is
        // the identity on any predicate-selected subset of it.
        TransferOp::Guarded(inner) => op_is_identity(state, inner),
    }
}

/// Is the whole chain provably the identity on every frame `state`
/// admits? Each op is checked against the *same* state: once an op
/// is the identity the state is unchanged for the next.
pub fn chain_is_identity(state: &AbsState, ops: &[TransferOp]) -> bool {
    !ops.is_empty() && ops.iter().all(|op| op_is_identity(state, op))
}

/// Do two chains provably produce bit-identical output on every
/// frame `state` admits? This is the *semantic* L6 certificate for
/// chains that are not syntactically equal: currently a single
/// pointwise rule — two clamps on the same attribute whose bounds
/// act identically on the whole observed interval. (Syntactic
/// equality of deterministic transforms is certified upstream via
/// the facts' transform key.)
pub fn chains_pointwise_equal(state: &AbsState, a: &[TransferOp], b: &[TransferOp]) -> bool {
    let (
        [TransferOp::Clamp {
            attr: aa,
            lb: alb,
            ub: aub,
        }],
        [TransferOp::Clamp {
            attr: ba,
            lb: blb,
            ub: bub,
        }],
    ) = (a, b)
    else {
        return false;
    };
    if aa != ba {
        return false;
    }
    let Interval::Range { lo, hi } = read(state, aa).interval else {
        return false;
    };
    // clamp(x, l1, u1) == clamp(x, l2, u2) for every x in [lo, hi]
    // iff each bound either matches exactly or is inactive on the
    // whole interval for both.
    let lower_equal = (alb <= &lo && blb <= &lo) || alb.to_bits() == blb.to_bits();
    let upper_equal = (aub >= &hi && bub >= &hi) || aub.to_bits() == bub.to_bits();
    lower_equal && upper_equal
}

/// After the chain, is the candidate's own profile provably still
/// violated beyond the `tau` margin on every frame `state` admits?
///
/// The caller passes the *post*-state of the chain. Violation
/// semantics mirror the core's `violation()`:
///
/// - region profiles count out-of-region non-null values over all
///   rows, so a post-interval (or post-support) disjoint from the
///   region pins the violation at ≥ `1 − null_hi`;
/// - missing profiles use the thresholded excess
///   `(f − θ)/(1 − θ)`, so a null floor above `θ` pins it at
///   ≥ `(null_lo − θ)/(1 − θ)`.
pub fn violation_unreachable(post: &AbsState, attr: &str, region: &ValueRegion, tau: f64) -> bool {
    region_unreachable(&read(post, attr), region, tau)
}

/// [`violation_unreachable`] on the post-state column of the
/// profile's attribute.
pub(crate) fn region_unreachable(col: &AbsCol, region: &ValueRegion, tau: f64) -> bool {
    match region {
        ValueRegion::Range { lb, ub } => {
            col.interval.disjoint_from(*lb, *ub) && 1.0 - col.null_hi > tau
        }
        ValueRegion::Domain(values) => match &col.support {
            SupportDom::Set(s) => {
                !s.is_empty() && s.iter().all(|v| !values.contains(v)) && 1.0 - col.null_hi > tau
            }
            SupportDom::Top => false,
        },
        ValueRegion::NullFracAtMost(theta) => {
            *theta < 1.0 && (col.null_lo - theta) / (1.0 - theta) > tau
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(interval: Interval, null: f64, support: SupportDom) -> AbsState {
        let mut s = AbsState::new();
        s.set(
            "a",
            AbsCol {
                interval,
                null_lo: null,
                null_hi: null,
                support,
            },
        );
        s
    }

    #[test]
    fn clamp_transfer_and_identity() {
        let s = seeded(Interval::range(2.0, 8.0), 0.0, SupportDom::Top);
        let clamp = TransferOp::Clamp {
            attr: "a".into(),
            lb: 0.0,
            ub: 5.0,
        };
        let post = apply_chain(&s, std::slice::from_ref(&clamp));
        assert_eq!(post.col("a").interval, Interval::Range { lo: 2.0, hi: 5.0 });
        assert!(!chain_is_identity(&s, std::slice::from_ref(&clamp)));
        let loose = TransferOp::Clamp {
            attr: "a".into(),
            lb: 0.0,
            ub: 10.0,
        };
        assert!(chain_is_identity(&s, &[loose]));
        // An empty interval (all-null column) makes any clamp an
        // identity.
        let empty = seeded(Interval::Empty, 1.0, SupportDom::Top);
        assert!(chain_is_identity(
            &empty,
            &[TransferOp::Clamp {
                attr: "a".into(),
                lb: 0.0,
                ub: 1.0
            }]
        ));
    }

    #[test]
    fn fill_nulls_identity_needs_zero_or_total_nulls() {
        let none = seeded(Interval::range(0.0, 1.0), 0.0, SupportDom::Top);
        let some = seeded(Interval::range(0.0, 1.0), 0.3, SupportDom::Top);
        let all = seeded(Interval::Empty, 1.0, SupportDom::Top);
        let fill = TransferOp::FillNulls { attr: "a".into() };
        assert!(chain_is_identity(&none, std::slice::from_ref(&fill)));
        assert!(!chain_is_identity(&some, std::slice::from_ref(&fill)));
        assert!(chain_is_identity(&all, std::slice::from_ref(&fill)));
        let post = apply_chain(&some, &[fill]);
        assert_eq!(post.col("a").null_hi, 0.0);
        assert_eq!(post.col("a").interval, Interval::Range { lo: 0.0, hi: 1.0 });
    }

    #[test]
    fn map_into_domain_identity_iff_support_subset() {
        let dom: BTreeSet<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let inside = seeded(
            Interval::Empty,
            0.0,
            SupportDom::Set(["x".to_string()].into_iter().collect()),
        );
        let outside = seeded(
            Interval::Empty,
            0.0,
            SupportDom::Set(["z".to_string()].into_iter().collect()),
        );
        let map = TransferOp::MapIntoDomain {
            attr: "a".into(),
            values: dom.clone(),
        };
        assert!(chain_is_identity(&inside, std::slice::from_ref(&map)));
        assert!(!chain_is_identity(&outside, std::slice::from_ref(&map)));
        let post = apply_chain(&outside, &[map]);
        match post.col("a").support {
            SupportDom::Set(s) => assert_eq!(s, dom),
            SupportDom::Top => panic!("support lost"),
        }
    }

    #[test]
    fn guarded_identity_recurses() {
        let s = seeded(Interval::range(0.0, 1.0), 0.0, SupportDom::Top);
        let inner = TransferOp::Clamp {
            attr: "a".into(),
            lb: 0.0,
            ub: 2.0,
        };
        assert!(chain_is_identity(
            &s,
            &[TransferOp::Guarded(Box::new(inner))]
        ));
        // A guarded *effective* op joins with the identity: the
        // post-interval must still contain untouched values.
        let cut = TransferOp::Guarded(Box::new(TransferOp::Clamp {
            attr: "a".into(),
            lb: 0.5,
            ub: 2.0,
        }));
        let post = apply_chain(&s, std::slice::from_ref(&cut));
        assert_eq!(post.col("a").interval, Interval::Range { lo: 0.0, hi: 1.0 });
        assert!(!chain_is_identity(&s, &[cut]));
    }

    #[test]
    fn pointwise_clamp_equivalence() {
        let s = seeded(Interval::range(30.0, 45.0), 0.0, SupportDom::Top);
        let clamp = |lb: f64, ub: f64| {
            vec![TransferOp::Clamp {
                attr: "a".into(),
                lb,
                ub,
            }]
        };
        // Both upper bounds inactive on [30, 45]: equivalent.
        assert!(chains_pointwise_equal(
            &s,
            &clamp(0.0, 50.0),
            &clamp(0.0, 60.0)
        ));
        // One bound cuts into the interval: not equivalent.
        assert!(!chains_pointwise_equal(
            &s,
            &clamp(0.0, 40.0),
            &clamp(0.0, 60.0)
        ));
        // Identical active bounds: equivalent.
        assert!(chains_pointwise_equal(
            &s,
            &clamp(0.0, 40.0),
            &clamp(0.0, 40.0)
        ));
        // Different attributes never are.
        let other = vec![TransferOp::Clamp {
            attr: "b".into(),
            lb: 0.0,
            ub: 50.0,
        }];
        assert!(!chains_pointwise_equal(&s, &clamp(0.0, 50.0), &other));
    }

    #[test]
    fn unreachability_certificates() {
        // Numeric region: post-interval [3, 15] disjoint from [0, 1],
        // no nulls → violation pinned at 1 > τ.
        let post = seeded(Interval::range(3.0, 15.0), 0.0, SupportDom::Top);
        let region = ValueRegion::Range { lb: 0.0, ub: 1.0 };
        assert!(violation_unreachable(&post, "a", &region, 0.2));
        // Overlapping interval proves nothing.
        let post = seeded(Interval::range(0.5, 15.0), 0.0, SupportDom::Top);
        assert!(!violation_unreachable(&post, "a", &region, 0.2));
        // High null ceiling weakens the bound below τ.
        let mut nully = AbsState::new();
        nully.set(
            "a",
            AbsCol {
                interval: Interval::range(3.0, 15.0),
                null_lo: 0.0,
                null_hi: 0.9,
                support: SupportDom::Top,
            },
        );
        assert!(!violation_unreachable(&nully, "a", &region, 0.2));
        // Categorical region: disjoint non-empty support certifies.
        let dom: BTreeSet<String> = ["-1", "1"].iter().map(|s| s.to_string()).collect();
        let post = seeded(
            Interval::Empty,
            0.0,
            SupportDom::Set(["0", "4"].iter().map(|s| s.to_string()).collect()),
        );
        assert!(violation_unreachable(
            &post,
            "a",
            &ValueRegion::Domain(dom.clone()),
            0.2
        ));
        let post = seeded(
            Interval::Empty,
            0.0,
            SupportDom::Set(["0", "1"].iter().map(|s| s.to_string()).collect()),
        );
        assert!(!violation_unreachable(
            &post,
            "a",
            &ValueRegion::Domain(dom),
            0.2
        ));
        // Missing region: null floor above θ by more than the τ
        // excess certifies.
        let post = seeded(Interval::Empty, 0.8, SupportDom::Top);
        assert!(violation_unreachable(
            &post,
            "a",
            &ValueRegion::NullFracAtMost(0.1),
            0.2
        ));
        // θ = 0.7: excess (0.8 − 0.7)/0.3 ≈ 0.33 stays under a wider
        // τ margin — not certifiable.
        assert!(!violation_unreachable(
            &post,
            "a",
            &ValueRegion::NullFracAtMost(0.7),
            0.5
        ));
    }

    #[test]
    fn resample_preserves_hull_but_not_null_fraction() {
        let mut s = AbsState::new();
        s.set(
            "a",
            AbsCol {
                interval: Interval::range(1.0, 2.0),
                null_lo: 0.1,
                null_hi: 0.1,
                support: SupportDom::Top,
            },
        );
        let post = apply_chain(&s, &[TransferOp::ResampleRows]);
        let col = post.col("a");
        assert_eq!(col.interval, Interval::Range { lo: 1.0, hi: 2.0 });
        assert_eq!((col.null_lo, col.null_hi), (0.0, 1.0));
    }
}
