//! Abstract domains for the lint pass's symbolic execution.
//!
//! A column is abstracted by three independent lattices:
//!
//! - a **numeric interval** over the non-null values (`Empty` ⊑
//!   `Range` ⊑ `Top`),
//! - a **null-fraction band** `[lo, hi] ⊆ [0, 1]`,
//! - a **categorical support set** over the non-null string values
//!   (a finite set, or `Top` when the domain is unknown/too wide).
//!
//! The engine seeds these *exactly* from the failing dataset (the
//! observed min/max, the exact null fraction, the full distinct set
//! up to a cap), then pushes them through the transfer functions of
//! [`crate::absint`]. Soundness contract: after seeding, an abstract
//! column **contains** its concrete column (every non-null value in
//! the interval and the support, the null fraction inside the band),
//! and every transfer function preserves containment. All
//! certificates in the rule pass (identity, equivalence, region
//! disjointness) are monotone in the abstraction — a wider state can
//! only certify *less* — so over-approximation never produces an
//! unsound verdict.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// A closed interval over the non-null numeric values of a column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interval {
    /// No non-null numeric values at all.
    Empty,
    /// Every non-null value lies in `[lo, hi]` (finite bounds).
    Range {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// Nothing is known (non-finite observations, or an op the
    /// engine cannot bound).
    Top,
}

impl Interval {
    /// Construct from finite bounds; anything non-finite degrades to
    /// `Top` (the seeding path hits this on NaN/∞ observations).
    pub fn range(lo: f64, hi: f64) -> Self {
        if lo.is_finite() && hi.is_finite() && lo <= hi {
            Interval::Range { lo, hi }
        } else {
            Interval::Top
        }
    }

    /// Does the interval admit the concrete value `x`?
    pub fn contains(&self, x: f64) -> bool {
        match *self {
            Interval::Empty => false,
            Interval::Range { lo, hi } => x >= lo && x <= hi,
            Interval::Top => true,
        }
    }

    /// Is every admissible value inside `[lb, ub]`? (`Empty` is —
    /// vacuously.)
    pub fn within(&self, lb: f64, ub: f64) -> bool {
        match *self {
            Interval::Empty => true,
            Interval::Range { lo, hi } => lb <= lo && hi <= ub,
            Interval::Top => false,
        }
    }

    /// Is every admissible value *outside* `[lb, ub]`? (`Empty` and
    /// `Top` are not: the certificate needs at least one provably
    /// out-of-region value, and `Top` proves nothing.)
    pub fn disjoint_from(&self, lb: f64, ub: f64) -> bool {
        match *self {
            Interval::Empty | Interval::Top => false,
            Interval::Range { lo, hi } => hi < lb || lo > ub,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &Interval) -> Interval {
        match (*self, *other) {
            (Interval::Empty, x) | (x, Interval::Empty) => x,
            (Interval::Top, _) | (_, Interval::Top) => Interval::Top,
            (Interval::Range { lo: a, hi: b }, Interval::Range { lo: c, hi: d }) => {
                Interval::Range {
                    lo: a.min(c),
                    hi: b.max(d),
                }
            }
        }
    }
}

/// The set of non-null string values a categorical column may hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupportDom {
    /// Unknown (numeric column, capped cardinality, or an op that
    /// invents values).
    Top,
    /// Every non-null value is a member of the set (possibly empty:
    /// an all-null column).
    Set(BTreeSet<String>),
}

impl SupportDom {
    /// Does the support admit the concrete string `s`?
    pub fn contains(&self, s: &str) -> bool {
        match self {
            SupportDom::Top => true,
            SupportDom::Set(set) => set.contains(s),
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &SupportDom) -> SupportDom {
        match (self, other) {
            (SupportDom::Top, _) | (_, SupportDom::Top) => SupportDom::Top,
            (SupportDom::Set(a), SupportDom::Set(b)) => {
                SupportDom::Set(a.union(b).cloned().collect())
            }
        }
    }
}

/// Abstract state of one column: interval × null band × support.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsCol {
    /// Range of the non-null numeric values.
    pub interval: Interval,
    /// Lower bound on the null fraction (of all rows).
    pub null_lo: f64,
    /// Upper bound on the null fraction.
    pub null_hi: f64,
    /// Support of the non-null string values.
    pub support: SupportDom,
}

impl AbsCol {
    /// The no-information element (admits any column).
    pub fn top() -> Self {
        AbsCol {
            interval: Interval::Top,
            null_lo: 0.0,
            null_hi: 1.0,
            support: SupportDom::Top,
        }
    }

    /// Does the abstract column admit a concrete null fraction `f`?
    pub fn admits_null_fraction(&self, f: f64) -> bool {
        f >= self.null_lo && f <= self.null_hi
    }

    /// Least upper bound, component-wise.
    pub fn join(&self, other: &AbsCol) -> AbsCol {
        AbsCol {
            interval: self.interval.join(&other.interval),
            null_lo: self.null_lo.min(other.null_lo),
            null_hi: self.null_hi.max(other.null_hi),
            support: self.support.join(&other.support),
        }
    }
}

/// Abstract state of a frame: one [`AbsCol`] per column. Columns not
/// present map to [`AbsCol::top`] (unknown).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbsState {
    cols: BTreeMap<String, AbsCol>,
}

impl AbsState {
    /// Empty state: every column unknown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `attr` to `col`.
    pub fn set(&mut self, attr: &str, col: AbsCol) {
        self.cols.insert(attr.to_string(), col);
    }

    /// The abstract column for `attr` (`Top` when unseeded).
    pub fn col(&self, attr: &str) -> AbsCol {
        self.cols.get(attr).cloned().unwrap_or_else(AbsCol::top)
    }

    /// The bound abstract column for `attr`, borrowed; `None` when
    /// unseeded (read as `Top`).
    pub fn get(&self, attr: &str) -> Option<&AbsCol> {
        self.cols.get(attr)
    }

    /// Mutable access, inserting `Top` on first touch.
    pub fn col_mut(&mut self, attr: &str) -> &mut AbsCol {
        self.cols
            .entry(attr.to_string())
            .or_insert_with(AbsCol::top)
    }

    /// The seeded column names, in sorted order.
    pub fn attrs(&self) -> impl Iterator<Item = &str> {
        self.cols.keys().map(String::as_str)
    }

    /// Restrict to `attrs` (the comparison key for post-state
    /// coincidence on a profile's read-set).
    pub fn project(&self, attrs: &[String]) -> Vec<(String, AbsCol)> {
        attrs.iter().map(|a| (a.clone(), self.col(a))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_lattice_laws() {
        let r = Interval::range(1.0, 5.0);
        assert_eq!(r.join(&Interval::Empty), r);
        assert_eq!(Interval::Empty.join(&r), r);
        assert_eq!(r.join(&Interval::Top), Interval::Top);
        assert_eq!(
            Interval::range(1.0, 5.0).join(&Interval::range(4.0, 9.0)),
            Interval::Range { lo: 1.0, hi: 9.0 }
        );
        assert!(r.contains(1.0) && r.contains(5.0) && !r.contains(5.5));
        assert!(r.within(0.0, 5.0) && !r.within(2.0, 5.0));
        assert!(r.disjoint_from(-3.0, 0.5) && r.disjoint_from(6.0, 9.0));
        assert!(!r.disjoint_from(5.0, 9.0), "touching is not disjoint");
        assert!(!Interval::Top.disjoint_from(6.0, 9.0), "Top proves nothing");
        assert!(!Interval::Empty.disjoint_from(6.0, 9.0));
    }

    #[test]
    fn non_finite_bounds_degrade_to_top() {
        assert_eq!(Interval::range(f64::NAN, 1.0), Interval::Top);
        assert_eq!(Interval::range(0.0, f64::INFINITY), Interval::Top);
        assert_eq!(Interval::range(2.0, 1.0), Interval::Top);
    }

    #[test]
    fn support_join_and_membership() {
        let a = SupportDom::Set(["x".to_string()].into_iter().collect());
        let b = SupportDom::Set(["y".to_string()].into_iter().collect());
        let j = a.join(&b);
        assert!(j.contains("x") && j.contains("y") && !j.contains("z"));
        assert_eq!(a.join(&SupportDom::Top), SupportDom::Top);
    }

    #[test]
    fn state_defaults_to_top() {
        let mut s = AbsState::new();
        assert_eq!(s.col("unseen"), AbsCol::top());
        s.set(
            "a",
            AbsCol {
                interval: Interval::range(0.0, 1.0),
                null_lo: 0.0,
                null_hi: 0.0,
                support: SupportDom::Top,
            },
        );
        assert_eq!(s.col("a").interval, Interval::Range { lo: 0.0, hi: 1.0 });
        let proj = s.project(&["a".to_string(), "b".to_string()]);
        assert_eq!(proj.len(), 2);
        assert_eq!(proj[1].1, AbsCol::top());
    }
}
