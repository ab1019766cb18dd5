//! Streaming pre-filter sketches for pairwise dependence discovery.
//!
//! Profile discovery's independence pass (Fig 1 rows 7–8) is O(m²)
//! in attributes, and each exact test re-extracts, re-codes and
//! re-allocates both columns. This module provides per-column
//! one-pass summaries that make a *conservative* pairwise dependence
//! estimate cheap, so the exact test only runs on pairs the sketch
//! cannot rule out:
//!
//! - [`NumericSketch`] — one-pass (Welford) moments plus a centered,
//!   zero-filled value array and a presence bitmap. For a pair of
//!   null-free columns the Pearson estimate is a single dot product;
//!   with missing values a bitmap-masked pass recovers the exact
//!   joint-pair statistics. Either way the estimate agrees with
//!   [`crate::correlation::pearson`] over the aligned non-null pairs
//!   up to floating-point noise. Average-rank summaries support a
//!   Spearman estimate the same way.
//! - [`CategoricalSketch`] — a per-row code array (the value's index
//!   in the column's sorted distinct order, hashed into a fixed
//!   bucket width when the domain is larger). For injectively coded
//!   pairs the χ² estimate is **bit-identical** to
//!   [`crate::chi2::chi_squared`] over the
//!   `ContingencyTable::from_frame` table: the joint-count pass uses
//!   the same pairwise deletion, the sorted code order reproduces the
//!   table's label order, and [`crate::chi2::chi_squared_counts`]
//!   ignores empty padding rows/columns.
//!
//! Discovery skips the exact test of a pair whose estimate proves it
//! insignificant: [`pearson_upper`] inflates the Pearson estimate by a
//! floating-point floor first, and the χ² estimate of an
//! order-preserving pair *is* the exact test. Hashed categorical codes
//! can only merge cells, which shrinks the χ² statistic, so their
//! estimate is never used to skip.
//!
//! # Mergeability
//!
//! All three summaries are **mergeable**: two sketches built over
//! disjoint row ranges of the same column combine into the sketch of
//! the union, and for adjacent ranges the merge is **bit-identical**
//! to a from-scratch build over the concatenated rows. The merge is
//! commutative and associative because each sketch carries its global
//! row range and the combine canonicalizes by ascending row order —
//! argument order never matters. This is what lets `dp_monitor`
//! maintain live per-column profiles incrementally over an append
//! stream of batches: the moments fold continues exactly where the
//! earlier chunk's Welford state left off, presence bitmaps and
//! centered arrays are rebuilt around the merged mean, and the
//! categorical co-occurrence codes go through a keyed merge (the
//! sorted distinct union) before re-deriving the bucket mapping.

use crate::chi2::{chi_squared_counts, Chi2Result};
use crate::correlation::{ranks, Correlation};
use crate::distributions::t_sf_two_sided;

/// Default bucket width of the categorical co-occurrence sketch.
/// Columns with at most this many distinct values are coded
/// injectively, making the sketched χ² bit-identical to the exact
/// test; wider domains fall back to hashed (lossy) codes.
pub const DEFAULT_BUCKETS: usize = 64;

/// Floating-point slack on an exact-equivalent correlation estimate:
/// the sketch accumulates the same sums in a different order/form, so
/// the coefficient can differ from the two-pass computation by a few
/// ulps — never by more than this.
const R_FP_MARGIN: f64 = 1e-6;

/// Distinct-value cap of [`ColumnSummary`]: a string column with more
/// distinct values than this reports no support set (the abstract
/// domain degrades to Top rather than carrying an unbounded set).
pub const SUPPORT_CAP: usize = 64;

/// Total-order minimum (`-0.0 < +0.0`): unlike `f64::min`, the result
/// is uniquely determined, which makes the min/max hull folds
/// associative and commutative *bit-for-bit* — the property
/// [`ColumnSummary::merge`] relies on. Only finite values reach these.
fn total_min(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a).is_lt() {
        b
    } else {
        a
    }
}

/// Total-order maximum (`+0.0 > -0.0`); see [`total_min`].
fn total_max(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a).is_gt() {
        b
    } else {
        a
    }
}

/// FNV-1a over a stream of `u64` words — the bit-exact state digest
/// backing the sketches' `fingerprint` methods.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Exact one-pass summary of a single column, the seeding input for
/// abstract interpretation (dp_lint's `AbsState`): total rows, null
/// count, the min/max hull of the finite numeric values, and the
/// distinct string support up to [`SUPPORT_CAP`].
///
/// Unlike the dependence sketches above, nothing here is estimated —
/// every field is exact over the column it summarizes, so an abstract
/// state seeded from it *contains* the concrete column by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Total rows (including nulls).
    pub rows: usize,
    /// NULL count.
    pub nulls: usize,
    /// Smallest finite non-null numeric value, when any.
    pub min: Option<f64>,
    /// Largest finite non-null numeric value, when any.
    pub max: Option<f64>,
    /// Whether any non-null numeric value was NaN or infinite — the
    /// min/max hull then does not bound the column and the interval
    /// abstraction must degrade to Top.
    pub non_finite: bool,
    /// Sorted distinct non-null string values, present only for
    /// string-typed columns with at most [`SUPPORT_CAP`] distinct
    /// values.
    pub support: Option<Vec<String>>,
}

impl ColumnSummary {
    /// Summarize one column exactly.
    pub fn build(col: &dp_frame::Column) -> Self {
        let rows = col.len();
        let nulls = col.null_count();
        let (mut min, mut max, mut non_finite) = (None, None, false);
        let mut support = None;
        let dtype = col.dtype();
        if dtype.is_numeric() {
            let mut seen = 0usize;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (_, v) in col.f64_values() {
                if v.is_finite() {
                    seen += 1;
                    lo = total_min(lo, v);
                    hi = total_max(hi, v);
                } else {
                    non_finite = true;
                }
            }
            if seen > 0 {
                min = Some(lo);
                max = Some(hi);
            }
        } else if dtype.is_string() {
            let counts = col.value_counts();
            if counts.len() <= SUPPORT_CAP {
                let mut values: Vec<String> = counts.into_iter().map(|(v, _)| v).collect();
                values.sort_unstable();
                support = Some(values);
            }
        }
        ColumnSummary {
            rows,
            nulls,
            min,
            max,
            non_finite,
            support,
        }
    }

    /// Exact null fraction (`0.0` on an empty column).
    pub fn null_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nulls as f64 / self.rows as f64
        }
    }

    /// Combine the summaries of two disjoint row sets of the same
    /// column. Every field is exact, so the merge is too: counts add,
    /// the hull is the total-order min/max of the hulls, non-finite
    /// poisoning is sticky, and the support is the sorted union
    /// (degrading to `None` past [`SUPPORT_CAP`], or when either side
    /// already degraded). Commutative, associative, and bit-identical
    /// to [`ColumnSummary::build`] over the concatenated rows.
    pub fn merge(&self, other: &ColumnSummary) -> ColumnSummary {
        let min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(total_min(a, b)),
            (a, b) => a.or(b),
        };
        let max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(total_max(a, b)),
            (a, b) => a.or(b),
        };
        let support = match (&self.support, &other.support) {
            (Some(a), Some(b)) => {
                let mut union = sorted_union(a, b);
                if union.len() <= SUPPORT_CAP {
                    union.shrink_to_fit();
                    Some(union)
                } else {
                    None
                }
            }
            _ => None,
        };
        ColumnSummary {
            rows: self.rows + other.rows,
            nulls: self.nulls + other.nulls,
            min,
            max,
            non_finite: self.non_finite || other.non_finite,
            support,
        }
    }

    /// Bit-exact state digest for merge-parity tests: two summaries
    /// fingerprint equal iff every field (hull bounds compared as raw
    /// bits) is identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.rows as u64);
        h.word(self.nulls as u64);
        h.word(self.non_finite as u64);
        for bound in [self.min, self.max] {
            match bound {
                Some(v) => {
                    h.word(1);
                    h.f64(v);
                }
                None => h.word(0),
            }
        }
        match &self.support {
            Some(values) => {
                h.word(1 + values.len() as u64);
                for v in values {
                    h.bytes(v.as_bytes());
                }
            }
            None => h.word(0),
        }
        h.0
    }
}

/// Sorted union of two sorted, deduplicated string slices.
fn sorted_union(a: &[String], b: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One-pass summary of a numeric column: moments, centered values,
/// presence bitmap, and average-rank analogues for Spearman.
///
/// The sketch covers the global row range `[start, start + n_rows)`
/// and retains its raw finite observations (value + global row, in
/// row order), so two sketches over disjoint ranges [`merge`]
/// exactly: the Welford fold continues from the earlier range's
/// `(n, mean, m2)` state over the later range's values, reproducing a
/// single-pass build over the concatenation bit for bit.
///
/// [`merge`]: NumericSketch::merge
#[derive(Debug, Clone)]
pub struct NumericSketch {
    /// First global row covered (`0` for a whole-column sketch).
    start: usize,
    n_rows: usize,
    /// Finite, non-null observations.
    n: usize,
    /// Running mean of the finite observations (the Welford state
    /// alongside `n` and `m2`; retained so a merge can continue the
    /// fold exactly).
    mean: f64,
    /// Sum of squared deviations from the column mean.
    m2: f64,
    /// `value - mean` per row; `0.0` where absent.
    centered: Vec<f64>,
    /// Sum of squared deviations of the average ranks.
    rank_m2: f64,
    /// `rank - mean_rank` per row; `0.0` where absent.
    rank_centered: Vec<f64>,
    /// Presence bitmap (little-endian 64-bit words).
    present: Vec<u64>,
    /// Raw finite observations in ascending row order.
    finite: Vec<f64>,
    /// Global row index of each entry in `finite`.
    finite_rows: Vec<usize>,
    /// No row is missing or non-finite.
    exact: bool,
}

impl NumericSketch {
    /// Build from the column's non-null `(row index, value)` list and
    /// the total row count. NaN and infinite observations are treated
    /// as absent, mirroring the listwise deletion of
    /// [`crate::correlation::pearson`].
    pub fn build(n_rows: usize, values: &[(usize, f64)]) -> Self {
        Self::build_at(0, n_rows, values)
    }

    /// Build over the global row range `[start, start + n_rows)`,
    /// where `values` carries **global** row indices in that range
    /// (ascending). Chunk sketches built this way merge into exactly
    /// the sketch [`build`](Self::build) produces on the whole column.
    pub fn build_at(start: usize, n_rows: usize, values: &[(usize, f64)]) -> Self {
        let mut n = 0usize;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for &(_, v) in values {
            if v.is_finite() {
                n += 1;
                let d = v - mean;
                mean += d / n as f64;
                m2 += d * (v - mean);
            }
        }
        let mut finite = Vec::with_capacity(n);
        let mut finite_rows = Vec::with_capacity(n);
        for &(i, v) in values {
            if v.is_finite() {
                debug_assert!(i >= start && i < start + n_rows, "row outside sketch range");
                finite.push(v);
                finite_rows.push(i);
            }
        }
        Self::assemble(start, n_rows, n, mean, m2, finite, finite_rows)
    }

    /// Rebuild the derived state (centered arrays, presence bitmap,
    /// ranks) around final moments — shared by build and merge so
    /// both produce identical bits from identical inputs.
    fn assemble(
        start: usize,
        n_rows: usize,
        n: usize,
        mean: f64,
        m2: f64,
        finite: Vec<f64>,
        finite_rows: Vec<usize>,
    ) -> Self {
        let words = n_rows.div_ceil(64);
        let mut centered = vec![0.0; n_rows];
        let mut present = vec![0u64; words];
        for (&i, &v) in finite_rows.iter().zip(&finite) {
            let local = i - start;
            centered[local] = v - mean;
            present[local / 64] |= 1u64 << (local % 64);
        }
        let rk = ranks(&finite);
        let rank_mean = (n as f64 + 1.0) / 2.0;
        let mut rank_centered = vec![0.0; n_rows];
        let mut rank_m2 = 0.0;
        for (&i, &r) in finite_rows.iter().zip(&rk) {
            let d = r - rank_mean;
            rank_centered[i - start] = d;
            rank_m2 += d * d;
        }
        NumericSketch {
            start,
            n_rows,
            n,
            mean,
            m2,
            centered,
            rank_m2,
            rank_centered,
            present,
            finite,
            finite_rows,
            exact: n == n_rows,
        }
    }

    /// Combine with a sketch over a disjoint row range of the same
    /// column (panics on overlap). Commutative and associative: the
    /// operands are canonicalized by ascending global row order, the
    /// Welford fold continues from the earlier range's retained state
    /// over the later range's values, and centered/rank/presence
    /// state is rebuilt around the merged moments. For adjacent
    /// ranges the result is **bit-identical** to
    /// [`build`](Self::build) over the concatenated rows; a gap
    /// between the ranges counts as absent rows.
    pub fn merge(&self, other: &NumericSketch) -> NumericSketch {
        // Order by (start, end) so an empty chunk sharing its start
        // with a non-empty one still canonicalizes deterministically.
        let key = |s: &NumericSketch| (s.start, s.start + s.n_rows);
        let (first, second) = if key(self) <= key(other) {
            (self, other)
        } else {
            (other, self)
        };
        assert!(
            first.start + first.n_rows <= second.start,
            "merge requires disjoint row ranges ([{}, {}) overlaps [{}, {}))",
            first.start,
            first.start + first.n_rows,
            second.start,
            second.start + second.n_rows,
        );
        let start = first.start;
        let n_rows = second.start + second.n_rows - start;
        // Continue the single-pass fold where `first` left off.
        let mut n = first.n;
        let mut mean = first.mean;
        let mut m2 = first.m2;
        for &v in &second.finite {
            n += 1;
            let d = v - mean;
            mean += d / n as f64;
            m2 += d * (v - mean);
        }
        let mut finite = Vec::with_capacity(n);
        finite.extend_from_slice(&first.finite);
        finite.extend_from_slice(&second.finite);
        let mut finite_rows = Vec::with_capacity(n);
        finite_rows.extend_from_slice(&first.finite_rows);
        finite_rows.extend_from_slice(&second.finite_rows);
        Self::assemble(start, n_rows, n, mean, m2, finite, finite_rows)
    }

    /// Finite, non-null observations summarized.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Rows covered (including absent ones).
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// First global row covered.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Whether every row is present (pair estimates against another
    /// exact sketch are then exact up to floating-point noise).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Bit-exact state digest for merge-parity tests: equal iff every
    /// field — moments, centered arrays, ranks, bitmap, retained
    /// observations — is bitwise identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.start as u64);
        h.word(self.n_rows as u64);
        h.word(self.n as u64);
        h.f64(self.mean);
        h.f64(self.m2);
        h.f64(self.rank_m2);
        h.word(self.exact as u64);
        for &v in &self.centered {
            h.f64(v);
        }
        for &v in &self.rank_centered {
            h.f64(v);
        }
        for &w in &self.present {
            h.word(w);
        }
        for (&i, &v) in self.finite_rows.iter().zip(&self.finite) {
            h.word(i as u64);
            h.f64(v);
        }
        h.0
    }
}

/// The t-distribution p-value [`crate::correlation::pearson`] attaches
/// to a coefficient over `n` pairs.
fn p_of_r(r: f64, n: usize) -> f64 {
    if n < 3 {
        return 1.0;
    }
    if r.abs() >= 1.0 {
        return 0.0;
    }
    let df = (n - 2) as f64;
    let t = r * (df / (1.0 - r * r)).sqrt();
    t_sf_two_sided(t, df)
}

/// Correlation estimate from joint sums over `n` pairs of values that
/// were centered by per-column (not per-pair) means: recenter by the
/// joint means, then form the coefficient.
fn corr_from_sums(n: usize, sx: f64, sy: f64, sxx: f64, syy: f64, sxy: f64) -> Correlation {
    if n < 2 {
        return Correlation {
            r: 0.0,
            p_value: 1.0,
            n,
        };
    }
    let nf = n as f64;
    let cxx = sxx - sx * sx / nf;
    let cyy = syy - sy * sy / nf;
    let cxy = sxy - sx * sy / nf;
    if cxx <= 0.0 || cyy <= 0.0 {
        return Correlation {
            r: 0.0,
            p_value: 1.0,
            n,
        };
    }
    let r = (cxy / (cxx * cyy).sqrt()).clamp(-1.0, 1.0);
    Correlation {
        r,
        p_value: p_of_r(r, n),
        n,
    }
}

/// Pearson estimate for a column pair from their sketches.
///
/// Agrees with [`crate::correlation::pearson`] over the aligned
/// non-null finite pairs up to floating-point noise: when both
/// columns are fully present the joint co-moment is a dot product of
/// the centered arrays; otherwise a bitmap-masked pass recovers the
/// joint-pair sums exactly.
pub fn pearson_estimate(a: &NumericSketch, b: &NumericSketch) -> Correlation {
    assert_eq!(
        (a.start, a.n_rows),
        (b.start, b.n_rows),
        "sketches of the same frame required"
    );
    if a.exact && b.exact {
        if a.m2 <= 0.0 || b.m2 <= 0.0 || a.n < 2 {
            return Correlation {
                r: 0.0,
                p_value: 1.0,
                n: a.n,
            };
        }
        let dot: f64 = a.centered.iter().zip(&b.centered).map(|(x, y)| x * y).sum();
        let r = (dot / (a.m2 * b.m2).sqrt()).clamp(-1.0, 1.0);
        return Correlation {
            r,
            p_value: p_of_r(r, a.n),
            n: a.n,
        };
    }
    masked_estimate(a, b, &a.centered, &b.centered)
}

/// Spearman estimate from the average-rank summaries. Exact-equivalent
/// to [`crate::correlation::spearman`] only when both columns are
/// fully present (with missing values, ranks over the joint subset
/// differ from masked full-column ranks), so it carries no exactness
/// guarantee — use it as a monotone-dependence screen.
pub fn spearman_estimate(a: &NumericSketch, b: &NumericSketch) -> Correlation {
    assert_eq!(
        (a.start, a.n_rows),
        (b.start, b.n_rows),
        "sketches of the same frame required"
    );
    if a.exact && b.exact {
        if a.rank_m2 <= 0.0 || b.rank_m2 <= 0.0 || a.n < 2 {
            return Correlation {
                r: 0.0,
                p_value: 1.0,
                n: a.n,
            };
        }
        let dot: f64 = a
            .rank_centered
            .iter()
            .zip(&b.rank_centered)
            .map(|(x, y)| x * y)
            .sum();
        let r = (dot / (a.rank_m2 * b.rank_m2).sqrt()).clamp(-1.0, 1.0);
        return Correlation {
            r,
            p_value: p_of_r(r, a.n),
            n: a.n,
        };
    }
    masked_estimate(a, b, &a.rank_centered, &b.rank_centered)
}

/// Joint-pair sums over the rows present in both sketches.
fn masked_estimate(a: &NumericSketch, b: &NumericSketch, xs: &[f64], ys: &[f64]) -> Correlation {
    let mut n = 0usize;
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (w, (&wa, &wb)) in a.present.iter().zip(&b.present).enumerate() {
        let mut bits = wa & wb;
        while bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (x, y) = (xs[i], ys[i]);
            n += 1;
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
    }
    corr_from_sums(n, sx, sy, sxx, syy, sxy)
}

/// Conservative upper envelope of the exact Pearson test: the
/// estimate's |r| inflated by the floating-point floor, with the
/// matching p-value. If this is still insignificant, the exact test
/// over the same pairs is too: the numeric estimate reproduces the
/// exact joint-pair statistics, so the floor is the only slack it
/// needs.
pub fn pearson_upper(a: &NumericSketch, b: &NumericSketch) -> Correlation {
    let est = pearson_estimate(a, b);
    let r_up = (est.r.abs() + R_FP_MARGIN).min(1.0);
    Correlation {
        r: r_up,
        p_value: p_of_r(r_up, est.n),
        n: est.n,
    }
}

/// Per-row co-occurrence codes of a categorical (or boolean) column.
///
/// Built key-retaining (via [`from_values`]) the sketch also carries
/// the sorted distinct values and the per-row pre-hash codes, which
/// is what makes the co-occurrence table **keyed-mergeable**: two
/// sketches over disjoint row ranges union their key tables, remap
/// both code streams through the union, and re-derive the bucket
/// mapping — bit-identical to building over the concatenated rows,
/// because the sorted distinct order of a concatenation *is* the
/// sorted union of the chunks' distinct orders. Sketches built from
/// bare codes ([`from_codes`]) carry no keys and cannot merge.
///
/// [`from_values`]: CategoricalSketch::from_values
/// [`from_codes`]: CategoricalSketch::from_codes
#[derive(Debug, Clone)]
pub struct CategoricalSketch {
    /// First global row covered (`0` for a whole-column sketch).
    start: usize,
    /// Bucket per row; `NULL_CODE` where absent.
    codes: Vec<u32>,
    /// Bucket width actually used.
    buckets: usize,
    /// No two *observed* values share a bucket (collision-aware; see
    /// [`is_exact`](CategoricalSketch::is_exact)).
    exact: bool,
    /// The mapping is the identity on sorted distinct order — the
    /// strictly stronger property the bit-identity claims need.
    order_preserving: bool,
    /// Bucket width originally requested; a merge re-derives the
    /// mapping decision against this, not the collapsed width.
    requested_buckets: usize,
    /// Sorted distinct values (key-retaining builds only).
    keys: Option<Vec<String>>,
    /// Per-row index into `keys` pre-hashing; `NULL_CODE` where
    /// absent (key-retaining builds only).
    raw: Option<Vec<u32>>,
}

const NULL_CODE: u32 = u32::MAX;

/// SplitMix64 finalizer — mixes sorted-order indices so hashed
/// buckets don't systematically merge adjacent values.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CategoricalSketch {
    /// Build from per-row value codes, where `codes[i]` is the row's
    /// index into the column's **sorted distinct-value order** (as
    /// produced by `value_counts`) and `None` marks NULL. `distinct`
    /// is the domain size; when it fits `buckets` the codes are kept
    /// injective — sorted order included — so the pairwise table
    /// reproduces `ContingencyTable::from_frame` exactly. Larger
    /// domains are hashed into the bucket width.
    pub fn from_codes(codes: &[Option<u32>], distinct: usize, buckets: usize) -> Self {
        assert!(buckets > 0, "at least one bucket required");
        let order_preserving = distinct <= buckets;
        let mapped: Vec<u32> = codes
            .iter()
            .map(|c| match c {
                None => NULL_CODE,
                Some(v) if order_preserving => *v,
                Some(v) => (splitmix64(*v as u64) % buckets as u64) as u32,
            })
            .collect();
        let exact = order_preserving || hashing_is_collision_free(codes.iter().flatten(), buckets);
        CategoricalSketch {
            start: 0,
            codes: mapped,
            buckets: if order_preserving {
                distinct.max(1)
            } else {
                buckets
            },
            exact,
            order_preserving,
            requested_buckets: buckets,
            keys: None,
            raw: None,
        }
    }

    /// Key-retaining build from per-row values (`None` marks NULL):
    /// computes the sorted distinct order and the codes itself and
    /// keeps both, so the sketch can [`merge`](Self::merge).
    pub fn from_values(values: &[Option<&str>], buckets: usize) -> Self {
        Self::from_values_at(0, values, buckets)
    }

    /// Key-retaining build over the global row range
    /// `[start, start + values.len())`; see
    /// [`from_values`](Self::from_values).
    pub fn from_values_at(start: usize, values: &[Option<&str>], buckets: usize) -> Self {
        let mut keys: Vec<String> = values.iter().flatten().map(|s| s.to_string()).collect();
        keys.sort_unstable();
        keys.dedup();
        let raw: Vec<u32> = values
            .iter()
            .map(|v| match v {
                None => NULL_CODE,
                Some(s) => keys.binary_search_by(|k| k.as_str().cmp(s)).unwrap() as u32,
            })
            .collect();
        Self::from_parts(start, keys, raw, buckets)
    }

    /// Shared tail of the key-retaining constructors and
    /// [`merge`](Self::merge): derive the bucket mapping from the key
    /// table exactly the way [`from_codes`](Self::from_codes) would,
    /// so a merged sketch is bitwise the sketch of the concatenation.
    fn from_parts(start: usize, keys: Vec<String>, raw: Vec<u32>, buckets: usize) -> Self {
        assert!(buckets > 0, "at least one bucket required");
        let distinct = keys.len();
        let order_preserving = distinct <= buckets;
        let mapped: Vec<u32> = raw
            .iter()
            .map(|&c| match c {
                NULL_CODE => NULL_CODE,
                v if order_preserving => v,
                v => (splitmix64(v as u64) % buckets as u64) as u32,
            })
            .collect();
        let exact = order_preserving
            || hashing_is_collision_free(raw.iter().filter(|&&c| c != NULL_CODE), buckets);
        CategoricalSketch {
            start,
            codes: mapped,
            buckets: if order_preserving {
                distinct.max(1)
            } else {
                buckets
            },
            exact,
            order_preserving,
            requested_buckets: buckets,
            keys: Some(keys),
            raw: Some(raw),
        }
    }

    /// Keyed merge with a sketch over a disjoint row range of the
    /// same column (panics on overlap, on mismatched requested bucket
    /// widths, or when either side was built without keys).
    /// Commutative and associative — operands canonicalize by
    /// ascending global row order — and for adjacent ranges
    /// bit-identical to [`from_values`](Self::from_values) over the
    /// concatenated rows; a gap between the ranges counts as NULL
    /// rows.
    pub fn merge(&self, other: &CategoricalSketch) -> CategoricalSketch {
        assert_eq!(
            self.requested_buckets, other.requested_buckets,
            "merge requires the same requested bucket width"
        );
        let key = |s: &CategoricalSketch| (s.start, s.start + s.codes.len());
        let (first, second) = if key(self) <= key(other) {
            (self, other)
        } else {
            (other, self)
        };
        assert!(
            first.start + first.codes.len() <= second.start,
            "merge requires disjoint row ranges ([{}, {}) overlaps [{}, {}))",
            first.start,
            first.start + first.codes.len(),
            second.start,
            second.start + second.codes.len(),
        );
        let (keys_a, raw_a) = first.key_state();
        let (keys_b, raw_b) = second.key_state();
        let keys = sorted_union(keys_a, keys_b);
        let remap = |side: &[String]| -> Vec<u32> {
            side.iter()
                .map(|k| keys.binary_search(k).unwrap() as u32)
                .collect()
        };
        let (map_a, map_b) = (remap(keys_a), remap(keys_b));
        let start = first.start;
        let end = second.start + second.codes.len();
        let mut raw = Vec::with_capacity(end - start);
        raw.extend(raw_a.iter().map(|&c| translate(c, &map_a)));
        raw.resize(second.start - start, NULL_CODE); // gap rows are NULL
        raw.extend(raw_b.iter().map(|&c| translate(c, &map_b)));
        Self::from_parts(start, keys, raw, self.requested_buckets)
    }

    fn key_state(&self) -> (&Vec<String>, &Vec<u32>) {
        match (&self.keys, &self.raw) {
            (Some(k), Some(r)) => (k, r),
            _ => panic!("merge requires key-retaining sketches (build with from_values)"),
        }
    }

    /// Whether no two *observed* values share a bucket — the χ² table
    /// then loses no information. This reflects actual collisions:
    /// a domain wider than the bucket width still reports exact when
    /// the values that actually occur happen to hash injectively
    /// (their table is a permutation of the exact test's, equal up to
    /// summation order). For the strictly stronger bit-identity
    /// guarantee see
    /// [`is_order_preserving`](Self::is_order_preserving).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Whether the coding is the identity on the column's sorted
    /// distinct order — the χ² estimate is then **bit-identical** to
    /// the exact test, not merely equal up to floating-point
    /// summation order.
    pub fn is_order_preserving(&self) -> bool {
        self.order_preserving
    }

    /// First global row covered.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Rows covered.
    pub fn rows(&self) -> usize {
        self.codes.len()
    }

    /// Bit-exact state digest for merge-parity tests: equal iff the
    /// code stream, bucket decision, exactness flags, and (when
    /// retained) key table and raw codes are all identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.start as u64);
        h.word(self.buckets as u64);
        h.word(self.requested_buckets as u64);
        h.word(self.exact as u64);
        h.word(self.order_preserving as u64);
        for &c in &self.codes {
            h.word(c as u64);
        }
        match &self.keys {
            Some(keys) => {
                h.word(1 + keys.len() as u64);
                for k in keys {
                    h.bytes(k.as_bytes());
                }
            }
            None => h.word(0),
        }
        match &self.raw {
            Some(raw) => {
                h.word(1 + raw.len() as u64);
                for &c in raw {
                    h.word(c as u64);
                }
            }
            None => h.word(0),
        }
        h.0
    }
}

/// Remap a raw code through a chunk-to-union translation table,
/// passing NULL through.
fn translate(code: u32, map: &[u32]) -> u32 {
    if code == NULL_CODE {
        NULL_CODE
    } else {
        map[code as usize]
    }
}

/// Whether hashing the observed codes into `buckets` cells merges
/// none of them (injective on what actually occurs, though not
/// order-preserving).
fn hashing_is_collision_free<'a>(observed: impl Iterator<Item = &'a u32>, buckets: usize) -> bool {
    let mut distinct: Vec<u32> = observed.copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut cells: Vec<u32> = distinct
        .iter()
        .map(|&c| (splitmix64(c as u64) % buckets as u64) as u32)
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells.len() == distinct.len()
}

/// χ² estimate for a column pair from their co-occurrence sketches:
/// one joint-count pass over the code arrays (pairwise deletion, like
/// `ContingencyTable::from_frame`) into a fixed-width table, scored
/// by [`chi_squared_counts`]. Bit-identical to the exact test when
/// both sketches are injective.
pub fn chi2_estimate(a: &CategoricalSketch, b: &CategoricalSketch) -> Chi2Result {
    assert_eq!(
        (a.start, a.codes.len()),
        (b.start, b.codes.len()),
        "sketches of the same frame required"
    );
    let mut counts = vec![vec![0u64; b.buckets]; a.buckets];
    for (&ca, &cb) in a.codes.iter().zip(&b.codes) {
        if ca != NULL_CODE && cb != NULL_CODE {
            counts[ca as usize][cb as usize] += 1;
        }
    }
    chi_squared_counts(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi2::chi_squared;
    use crate::correlation::{pearson, spearman};
    use dp_frame::groupby::ContingencyTable;
    use dp_frame::{Column, DType, DataFrame};

    fn dense_sketch(values: &[f64]) -> NumericSketch {
        let pairs: Vec<(usize, f64)> = values.iter().copied().enumerate().collect();
        NumericSketch::build(values.len(), &pairs)
    }

    /// Deterministic pseudo-random stream (LCG) for test data.
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(13);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn dense_pearson_estimate_matches_exact() {
        let xs = stream(1, 500);
        let ys: Vec<f64> = stream(2, 500)
            .iter()
            .zip(&xs)
            .map(|(e, x)| 0.3 * x + e)
            .collect();
        let exact = pearson(&xs, &ys);
        let est = pearson_estimate(&dense_sketch(&xs), &dense_sketch(&ys));
        assert_eq!(est.n, exact.n);
        assert!(
            (est.r - exact.r).abs() < 1e-12,
            "estimate {} vs exact {}",
            est.r,
            exact.r
        );
        assert!((est.p_value - exact.p_value).abs() < 1e-9);
    }

    #[test]
    fn masked_pearson_estimate_matches_exact_over_joint_pairs() {
        // Missing values on both sides: the estimate must agree with
        // pearson over the aligned non-null pairs, not the full rows.
        let xs = stream(3, 400);
        let ys = stream(4, 400);
        let a_vals: Vec<(usize, f64)> = xs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 5 != 0)
            .map(|(i, &v)| (i, v))
            .collect();
        let b_vals: Vec<(usize, f64)> = ys
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 7 != 3)
            .map(|(i, &v)| (i, v))
            .collect();
        let a = NumericSketch::build(400, &a_vals);
        let b = NumericSketch::build(400, &b_vals);
        assert!(!a.is_exact() && !b.is_exact());
        // Reference: pairwise deletion by hand.
        let mut jx = Vec::new();
        let mut jy = Vec::new();
        for i in 0..400 {
            if i % 5 != 0 && i % 7 != 3 {
                jx.push(xs[i]);
                jy.push(ys[i]);
            }
        }
        let exact = pearson(&jx, &jy);
        let est = pearson_estimate(&a, &b);
        assert_eq!(est.n, exact.n);
        assert!(
            (est.r - exact.r).abs() < 1e-10,
            "estimate {} vs exact {}",
            est.r,
            exact.r
        );
    }

    #[test]
    fn non_finite_values_are_treated_as_absent() {
        let mut xs = stream(5, 100);
        xs[17] = f64::NAN;
        xs[42] = f64::INFINITY;
        let pairs: Vec<(usize, f64)> = xs.iter().copied().enumerate().collect();
        let a = NumericSketch::build(100, &pairs);
        assert_eq!(a.count(), 98);
        assert!(!a.is_exact());
        let ys = stream(6, 100);
        let est = pearson_estimate(&a, &dense_sketch(&ys));
        let exact = pearson(&xs, &ys); // drops non-finite pairs itself
        assert_eq!(est.n, exact.n);
        assert!((est.r - exact.r).abs() < 1e-10);
    }

    #[test]
    fn upper_envelope_dominates_exact_coefficient() {
        let xs = stream(7, 300);
        let ys: Vec<f64> = stream(8, 300)
            .iter()
            .zip(&xs)
            .map(|(e, x)| 0.15 * x + e)
            .collect();
        let exact = pearson(&xs, &ys);
        let up = pearson_upper(&dense_sketch(&xs), &dense_sketch(&ys));
        assert!(up.r >= exact.r.abs());
        assert!(up.p_value <= exact.p_value + 1e-12);
        // A significant exact test can never be screened.
        if exact.significant(0.05) {
            assert!(up.significant(0.05));
        }
    }

    #[test]
    fn dense_spearman_estimate_matches_exact() {
        let xs = stream(9, 200);
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x).exp()).collect();
        let exact = spearman(&xs, &ys);
        let est = spearman_estimate(&dense_sketch(&xs), &dense_sketch(&ys));
        assert!(
            (est.r - exact.r).abs() < 1e-10,
            "estimate {} vs exact {}",
            est.r,
            exact.r
        );
    }

    fn codes_of(vals: &[Option<&str>]) -> (Vec<Option<u32>>, usize) {
        let mut distinct: Vec<&str> = vals.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let codes = vals
            .iter()
            .map(|v| v.map(|s| distinct.binary_search(&s).unwrap() as u32))
            .collect();
        (codes, distinct.len())
    }

    #[test]
    fn injective_chi2_estimate_is_bit_identical_to_exact() {
        // Interleave nulls so pairwise deletion is exercised.
        let a_vals: Vec<Option<&str>> = (0..240)
            .map(|i| match i % 8 {
                0 => None,
                1..=3 => Some("x"),
                4 | 5 => Some("y"),
                _ => Some("z"),
            })
            .collect();
        let b_vals: Vec<Option<&str>> = (0..240)
            .map(|i| match (i / 3) % 5 {
                0 => Some("p"),
                1 | 2 => Some("q"),
                3 => None,
                _ => Some("r"),
            })
            .collect();
        let df = DataFrame::from_columns(vec![
            Column::from_strings(
                "a",
                DType::Categorical,
                a_vals.iter().map(|v| v.map(str::to_string)).collect(),
            ),
            Column::from_strings(
                "b",
                DType::Categorical,
                b_vals.iter().map(|v| v.map(str::to_string)).collect(),
            ),
        ])
        .unwrap();
        let exact = chi_squared(&ContingencyTable::from_frame(&df, "a", "b").unwrap());
        let (ca, da) = codes_of(&a_vals);
        let (cb, db) = codes_of(&b_vals);
        let sa = CategoricalSketch::from_codes(&ca, da, DEFAULT_BUCKETS);
        let sb = CategoricalSketch::from_codes(&cb, db, DEFAULT_BUCKETS);
        assert!(sa.is_exact() && sb.is_exact());
        let est = chi2_estimate(&sa, &sb);
        assert_eq!(est.statistic.to_bits(), exact.statistic.to_bits());
        assert_eq!(est.p_value.to_bits(), exact.p_value.to_bits());
        assert_eq!(est.df, exact.df);
        assert_eq!(est.cramers_v.to_bits(), exact.cramers_v.to_bits());
    }

    #[test]
    fn column_summary_is_exact_on_numeric_columns() {
        let col = Column::from_floats(
            "x",
            vec![Some(3.5), None, Some(-1.0), Some(9.25), None, Some(0.0)],
        );
        let s = ColumnSummary::build(&col);
        assert_eq!((s.rows, s.nulls), (6, 2));
        assert_eq!((s.min, s.max), (Some(-1.0), Some(9.25)));
        assert!(!s.non_finite);
        assert!(s.support.is_none());
        assert!((s.null_fraction() - 2.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn column_summary_flags_non_finite_observations() {
        // NaN becomes NULL at construction, but infinities are
        // storable and must poison the hull.
        let col = Column::from_floats("x", vec![Some(1.0), Some(f64::INFINITY), Some(2.0)]);
        let s = ColumnSummary::build(&col);
        assert!(s.non_finite, "∞ must poison the hull");
        assert_eq!((s.min, s.max), (Some(1.0), Some(2.0)));
        let empty = ColumnSummary::build(&Column::from_floats("x", vec![None, None]));
        assert_eq!((empty.min, empty.max), (None, None));
        assert!((empty.null_fraction() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn column_summary_caps_string_support() {
        let col = Column::from_strings(
            "c",
            DType::Categorical,
            vec![Some("b".into()), Some("a".into()), None, Some("b".into())],
        );
        let s = ColumnSummary::build(&col);
        assert_eq!(
            s.support,
            Some(vec!["a".to_string(), "b".to_string()]),
            "sorted distinct support"
        );
        assert_eq!(s.nulls, 1);
        // Over the cap: no support set.
        let wide = Column::from_strings(
            "w",
            DType::Text,
            (0..SUPPORT_CAP + 1)
                .map(|i| Some(format!("v{i:03}")))
                .collect(),
        );
        assert!(ColumnSummary::build(&wide).support.is_none());
    }

    #[test]
    fn collision_free_hashing_reports_exact() {
        // Regression: `from_codes` used to equate exactness with
        // `distinct <= buckets`, silently dropping it when a wide
        // domain happened to hash without any observed collision.
        // Only two of 100 domain values occur; with 64 buckets their
        // hashes differ, so no table cell is merged.
        let vals: Vec<Option<u32>> = (0..200).map(|i| Some((i % 2) * 57)).collect();
        let s = CategoricalSketch::from_codes(&vals, 100, DEFAULT_BUCKETS);
        assert!(
            s.is_exact(),
            "no observed collision must report exact despite distinct > buckets"
        );
        assert!(
            !s.is_order_preserving(),
            "hashed coding is not order-preserving"
        );
        // A genuinely colliding domain still reports inexact.
        let wide: Vec<Option<u32>> = (0..300).map(|i| Some(i % 200)).collect();
        let t = CategoricalSketch::from_codes(&wide, 200, DEFAULT_BUCKETS);
        assert!(
            !t.is_exact(),
            "200 observed codes in 64 buckets must collide"
        );
        // A narrow domain hashed into the same width stays exact.
        let other: Vec<Option<u32>> = (0..200).map(|i| Some(((i / 7) % 2) * 31)).collect();
        let o = CategoricalSketch::from_codes(&other, 100, DEFAULT_BUCKETS);
        assert!(o.is_exact());
    }

    #[test]
    fn column_summary_merge_matches_rebuild() {
        let xs: Vec<Option<f64>> = stream(21, 120)
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i % 9 {
                0 => None,
                4 => Some(f64::INFINITY),
                _ => Some(v - 0.5),
            })
            .collect();
        for split in [0, 1, 37, 119, 120] {
            let a = ColumnSummary::build(&Column::from_floats("x", xs[..split].to_vec()));
            let b = ColumnSummary::build(&Column::from_floats("x", xs[split..].to_vec()));
            let whole = ColumnSummary::build(&Column::from_floats("x", xs.clone()));
            let merged = a.merge(&b);
            assert_eq!(merged, whole);
            assert_eq!(merged.fingerprint(), whole.fingerprint());
            assert_eq!(
                a.merge(&b).fingerprint(),
                b.merge(&a).fingerprint(),
                "summary merge must be commutative"
            );
        }
    }

    #[test]
    fn column_summary_merge_unions_support_up_to_cap() {
        let strings = |names: &[&str]| {
            Column::from_strings(
                "c",
                DType::Categorical,
                names.iter().map(|s| Some(s.to_string())).collect(),
            )
        };
        let a = ColumnSummary::build(&strings(&["b", "a", "d"]));
        let b = ColumnSummary::build(&strings(&["c", "a"]));
        let m = a.merge(&b);
        assert_eq!(
            m.support,
            Some(vec!["a".into(), "b".into(), "c".into(), "d".into()])
        );
        // Union past the cap degrades to None, like a direct build.
        let lo: Vec<String> = (0..40).map(|i| format!("a{i:02}")).collect();
        let hi: Vec<String> = (0..40).map(|i| format!("b{i:02}")).collect();
        let wide_a =
            ColumnSummary::build(&strings(&lo.iter().map(String::as_str).collect::<Vec<_>>()));
        let wide_b =
            ColumnSummary::build(&strings(&hi.iter().map(String::as_str).collect::<Vec<_>>()));
        assert!(wide_a.merge(&wide_b).support.is_none());
    }

    #[test]
    fn numeric_sketch_merge_is_bit_identical_to_rebuild() {
        let mut xs = stream(22, 300);
        xs[13] = f64::NAN;
        xs[200] = f64::NEG_INFINITY;
        let pairs: Vec<(usize, f64)> = xs
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % 11 != 5) // missing rows too
            .collect();
        let whole = NumericSketch::build(300, &pairs);
        for split in [0, 64, 150, 299, 300] {
            let (lo, hi): (Vec<_>, Vec<_>) = pairs.iter().copied().partition(|(i, _)| *i < split);
            let a = NumericSketch::build_at(0, split, &lo);
            let b = NumericSketch::build_at(split, 300 - split, &hi);
            assert_eq!(a.merge(&b).fingerprint(), whole.fingerprint());
            assert_eq!(
                b.merge(&a).fingerprint(),
                whole.fingerprint(),
                "merge must canonicalize by row order"
            );
        }
        // Associativity across a three-way split.
        let part = |lo: usize, hi: usize| {
            let vals: Vec<(usize, f64)> = pairs
                .iter()
                .copied()
                .filter(|(i, _)| *i >= lo && *i < hi)
                .collect();
            NumericSketch::build_at(lo, hi - lo, &vals)
        };
        let (a, b, c) = (part(0, 100), part(100, 180), part(180, 300));
        assert_eq!(
            a.merge(&b).merge(&c).fingerprint(),
            a.merge(&b.merge(&c)).fingerprint()
        );
        assert_eq!(a.merge(&b).merge(&c).fingerprint(), whole.fingerprint());
    }

    #[test]
    fn numeric_sketch_merge_keeps_pair_estimates_exact() {
        // Merged sketches must stay usable: pair estimates over
        // merged halves equal the whole-column estimates bit for bit.
        let xs = stream(23, 256);
        let ys: Vec<f64> = stream(24, 256)
            .iter()
            .zip(&xs)
            .map(|(e, x)| 0.4 * x + e)
            .collect();
        let half = |v: &[f64], lo: usize, hi: usize| {
            let pairs: Vec<(usize, f64)> = v[lo..hi]
                .iter()
                .enumerate()
                .map(|(i, &x)| (lo + i, x))
                .collect();
            NumericSketch::build_at(lo, hi - lo, &pairs)
        };
        let a = half(&xs, 0, 100).merge(&half(&xs, 100, 256));
        let b = half(&ys, 0, 100).merge(&half(&ys, 100, 256));
        let merged = pearson_estimate(&a, &b);
        let whole = pearson_estimate(&dense_sketch(&xs), &dense_sketch(&ys));
        assert_eq!(merged.r.to_bits(), whole.r.to_bits());
        assert_eq!(merged.p_value.to_bits(), whole.p_value.to_bits());
    }

    #[test]
    fn categorical_sketch_keyed_merge_is_bit_identical_to_rebuild() {
        let vals: Vec<Option<&str>> = (0..180)
            .map(|i| match i % 7 {
                0 => None,
                1 | 2 => Some("red"),
                3 => Some("green"),
                4 | 5 => Some("blue"),
                _ => Some("violet"),
            })
            .collect();
        let whole = CategoricalSketch::from_values(&vals, DEFAULT_BUCKETS);
        for split in [0, 1, 90, 179, 180] {
            let a = CategoricalSketch::from_values_at(0, &vals[..split], DEFAULT_BUCKETS);
            let b = CategoricalSketch::from_values_at(split, &vals[split..], DEFAULT_BUCKETS);
            assert_eq!(a.merge(&b).fingerprint(), whole.fingerprint());
            assert_eq!(
                b.merge(&a).fingerprint(),
                whole.fingerprint(),
                "keyed merge must canonicalize by row order"
            );
        }
        // Chunks that each see a *different* subset of the domain:
        // the union remap is what keeps codes consistent.
        let a_only: Vec<Option<&str>> = vec![Some("zeta"), Some("alpha"), None];
        let b_only: Vec<Option<&str>> = vec![Some("mid"), Some("alpha"), Some("beta")];
        let concat: Vec<Option<&str>> = a_only.iter().chain(&b_only).copied().collect();
        let a = CategoricalSketch::from_values_at(0, &a_only, DEFAULT_BUCKETS);
        let b = CategoricalSketch::from_values_at(3, &b_only, DEFAULT_BUCKETS);
        let rebuilt = CategoricalSketch::from_values(&concat, DEFAULT_BUCKETS);
        assert_eq!(a.merge(&b).fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn categorical_merge_re_derives_the_hash_decision() {
        // Each chunk fits the bucket width (order-preserving), but
        // their union does not: the merge must re-derive the hashed
        // mapping exactly as a from-scratch build would.
        let lo: Vec<String> = (0..5).map(|i| format!("a{i}")).collect();
        let hi: Vec<String> = (0..5).map(|i| format!("b{i}")).collect();
        let lo_vals: Vec<Option<&str>> = lo.iter().map(|s| Some(s.as_str())).collect();
        let hi_vals: Vec<Option<&str>> = hi.iter().map(|s| Some(s.as_str())).collect();
        let concat: Vec<Option<&str>> = lo_vals.iter().chain(&hi_vals).copied().collect();
        let a = CategoricalSketch::from_values_at(0, &lo_vals, 6);
        let b = CategoricalSketch::from_values_at(5, &hi_vals, 6);
        assert!(a.is_order_preserving() && b.is_order_preserving());
        let merged = a.merge(&b);
        assert!(!merged.is_order_preserving(), "10 keys exceed 6 buckets");
        let rebuilt = CategoricalSketch::from_values(&concat, 6);
        assert_eq!(merged.fingerprint(), rebuilt.fingerprint());
    }
}
