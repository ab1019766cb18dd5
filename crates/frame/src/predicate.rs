//! Boolean predicate AST for selections (`σ_P`).
//!
//! Selectivity profiles (Fig 1 row 6) are parameterized by a selection
//! predicate `P`, e.g. `gender = F ∧ high_expenditure = yes` in the
//! paper's running example. This module provides that predicate
//! language and a vectorized evaluator producing a row mask.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::error::Result;
use crate::frame::DataFrame;
use crate::value::Value;
use std::fmt;

/// Comparison operator of an atomic predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality (loose across numeric types).
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn apply(&self, cell: &Value, rhs: &Value) -> bool {
        use std::cmp::Ordering::*;
        // SQL semantics: comparisons involving NULL are false, except
        // explicit IS NULL handled by Predicate::IsNull.
        if cell.is_null() || rhs.is_null() {
            return false;
        }
        let ord = cell.total_cmp(rhs);
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A boolean expression over one tuple, evaluated row-wise against a
/// [`DataFrame`].
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column op literal`.
    Cmp {
        /// Attribute name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal right-hand side.
        value: Value,
    },
    /// `column IS NULL`.
    IsNull(String),
    /// `column IS NOT NULL`.
    IsNotNull(String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Constant truth (useful as a fold identity).
    True,
}

impl Predicate {
    /// Convenience constructor for an atomic comparison.
    pub fn cmp<S: Into<String>, V: Into<Value>>(column: S, op: CmpOp, value: V) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Names of all attributes this predicate references (with
    /// duplicates removed, in first-mention order). The PVT–attribute
    /// graph uses this to connect Selectivity PVTs to attributes.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Predicate::Cmp { column, .. }
            | Predicate::IsNull(column)
            | Predicate::IsNotNull(column) => {
                if !out.iter().any(|c| c == column) {
                    out.push(column.clone());
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
            Predicate::True => {}
        }
    }

    /// Evaluate against every row, producing a selection mask.
    ///
    /// Vectorized: combinators run word-wise over bitmaps and atomic
    /// comparisons run as typed loops over column chunks, matching
    /// [`Predicate::matches_row`] (i.e. `CmpOp::apply` over
    /// [`Value::total_cmp`]) bit for bit.
    pub fn evaluate(&self, df: &DataFrame) -> Result<Bitmap> {
        let n = df.n_rows();
        match self {
            Predicate::True => Ok(Bitmap::with_value(n, true)),
            Predicate::Cmp { column, op, value } => Ok(eval_cmp(df.column(column)?, *op, value)),
            Predicate::IsNull(column) => Ok(df.column(column)?.validity_mask().not()),
            Predicate::IsNotNull(column) => Ok(df.column(column)?.validity_mask()),
            Predicate::And(a, b) => Ok(a.evaluate(df)?.and(&b.evaluate(df)?)),
            Predicate::Or(a, b) => Ok(a.evaluate(df)?.or(&b.evaluate(df)?)),
            Predicate::Not(p) => Ok(p.evaluate(df)?.not()),
        }
    }

    /// Evaluate for a single row.
    pub fn matches_row(&self, df: &DataFrame, row: usize) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp { column, op, value } => {
                Ok(op.apply(&df.column(column)?.get(row), value))
            }
            Predicate::IsNull(column) => Ok(df.column(column)?.is_null(row)),
            Predicate::IsNotNull(column) => Ok(!df.column(column)?.is_null(row)),
            Predicate::And(a, b) => Ok(a.matches_row(df, row)? && b.matches_row(df, row)?),
            Predicate::Or(a, b) => Ok(a.matches_row(df, row)? || b.matches_row(df, row)?),
            Predicate::Not(p) => Ok(!p.matches_row(df, row)?),
        }
    }
}

/// How a chunk's cells compare against the literal, resolved once per
/// chunk from the storage variant instead of per row through [`Value`].
enum CmpMode<'a> {
    /// Numeric cell vs numeric literal: `f64` total order.
    Num(f64),
    /// String cell vs string literal: lexicographic.
    Str(&'a str),
    /// Incomparable runtime types: [`Value::total_cmp`] falls back to
    /// ordering by type name, which is constant across the chunk.
    Fixed(std::cmp::Ordering),
}

/// Vectorized `column op literal` over the column's chunks. NULL
/// cells (and a NULL literal) never match, mirroring [`CmpOp::apply`].
fn eval_cmp(col: &Column, op: CmpOp, rhs: &Value) -> Bitmap {
    use std::cmp::Ordering;
    if rhs.is_null() {
        return Bitmap::with_value(col.len(), false);
    }
    let keep = |ord: Ordering| match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    };
    let mut out = Bitmap::new();
    for chunk in col.chunks() {
        let validity = chunk.validity();
        let mode = match (chunk.data(), rhs) {
            (ColumnData::Str(_), Value::Str(s)) => CmpMode::Str(s),
            (ColumnData::Str(_), _) => CmpMode::Fixed("Str".cmp(rhs.type_name())),
            (_, _) => match rhs.as_f64() {
                Some(y) => CmpMode::Num(y),
                // Numeric cell vs string literal: type-name order.
                None => match chunk.data() {
                    ColumnData::Int(_) => CmpMode::Fixed("Int".cmp(rhs.type_name())),
                    ColumnData::Float(_) => CmpMode::Fixed("Float".cmp(rhs.type_name())),
                    ColumnData::Bool(_) => CmpMode::Fixed("Bool".cmp(rhs.type_name())),
                    ColumnData::Str(_) => unreachable!("handled above"),
                },
            },
        };
        match (chunk.data(), &mode) {
            (ColumnData::Int(v), CmpMode::Num(y)) => {
                for (off, x) in v.iter().enumerate() {
                    out.push(validity.get(off) && keep((*x as f64).total_cmp(y)));
                }
            }
            (ColumnData::Float(v), CmpMode::Num(y)) => {
                for (off, x) in v.iter().enumerate() {
                    out.push(validity.get(off) && keep(x.total_cmp(y)));
                }
            }
            (ColumnData::Bool(v), CmpMode::Num(y)) => {
                for (off, b) in v.iter().enumerate() {
                    let x = *b as u8 as f64;
                    out.push(validity.get(off) && keep(x.total_cmp(y)));
                }
            }
            (ColumnData::Str(v), CmpMode::Str(s)) => {
                for (off, x) in v.iter().enumerate() {
                    out.push(validity.get(off) && keep(x.as_str().cmp(s)));
                }
            }
            (_, CmpMode::Fixed(ord)) => {
                // Constant verdict for every non-NULL cell: the chunk
                // mask is either all-false or the validity bitmap.
                if keep(*ord) {
                    out.append(validity);
                } else {
                    out.append(&Bitmap::with_value(chunk.len(), false));
                }
            }
            _ => unreachable!("mode matches the chunk's storage variant"),
        }
    }
    out
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::IsNull(c) => write!(f, "{c} IS NULL"),
            Predicate::IsNotNull(c) => write!(f, "{c} IS NOT NULL"),
            Predicate::And(a, b) => write!(f, "({a} ∧ {b})"),
            Predicate::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Predicate::Not(p) => write!(f, "¬({p})"),
            Predicate::True => write!(f, "TRUE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::dtype::DType;

    fn df() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_ints("age", vec![Some(45), Some(22), None, Some(60)]),
            Column::from_strings(
                "gender",
                DType::Categorical,
                vec![
                    Some("F".into()),
                    Some("M".into()),
                    Some("F".into()),
                    Some("M".into()),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn atomic_comparisons() {
        let d = df();
        let m = Predicate::cmp("age", CmpOp::Ge, 45).evaluate(&d).unwrap();
        let bits: Vec<bool> = m.iter().collect();
        assert_eq!(bits, vec![true, false, false, true]);
    }

    #[test]
    fn null_comparisons_are_false() {
        let d = df();
        // NULL age row never matches < or >= comparisons.
        let lt = Predicate::cmp("age", CmpOp::Lt, 1000).evaluate(&d).unwrap();
        assert!(!lt.get(2));
        let ge = Predicate::cmp("age", CmpOp::Ge, 0).evaluate(&d).unwrap();
        assert!(!ge.get(2));
        // but IS NULL does.
        let isnull = Predicate::IsNull("age".into()).evaluate(&d).unwrap();
        assert_eq!(isnull.count_ones(), 1);
        assert!(isnull.get(2));
    }

    #[test]
    fn conjunction_matches_paper_example() {
        // gender = F ∧ age >= 40, the shape of the paper's Selectivity
        // predicate.
        let d = df();
        let p = Predicate::cmp("gender", CmpOp::Eq, "F").and(Predicate::cmp("age", CmpOp::Ge, 40));
        let m = p.evaluate(&d).unwrap();
        assert_eq!(m.count_ones(), 1);
        assert!(m.get(0));
    }

    #[test]
    fn disjunction_and_negation() {
        let d = df();
        let p = Predicate::cmp("age", CmpOp::Lt, 30)
            .or(Predicate::cmp("age", CmpOp::Gt, 50))
            .not();
        let m = p.evaluate(&d).unwrap();
        let bits: Vec<bool> = m.iter().collect();
        assert_eq!(bits, vec![true, false, true, false]);
    }

    #[test]
    fn columns_deduplicated() {
        let p = Predicate::cmp("a", CmpOp::Eq, 1)
            .and(Predicate::cmp("b", CmpOp::Eq, 2).or(Predicate::cmp("a", CmpOp::Gt, 0)));
        assert_eq!(p.columns(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn matches_row_agrees_with_evaluate() {
        let d = df();
        let p = Predicate::cmp("gender", CmpOp::Eq, "M");
        let m = p.evaluate(&d).unwrap();
        for i in 0..d.n_rows() {
            assert_eq!(p.matches_row(&d, i).unwrap(), m.get(i));
        }
    }

    #[test]
    fn missing_column_errors() {
        let d = df();
        assert!(Predicate::cmp("zip", CmpOp::Eq, 1).evaluate(&d).is_err());
    }

    #[test]
    fn display_renders() {
        let p = Predicate::cmp("gender", CmpOp::Eq, "F").and(Predicate::cmp("age", CmpOp::Ge, 40));
        assert_eq!(p.to_string(), "(gender = F ∧ age >= 40)");
    }

    /// Differential check: the vectorized evaluator must agree with
    /// the row-at-a-time reference on every row.
    fn assert_matches_reference(d: &DataFrame, p: &Predicate) {
        let m = p.evaluate(d).unwrap();
        assert_eq!(m.len(), d.n_rows());
        for i in 0..d.n_rows() {
            assert_eq!(m.get(i), p.matches_row(d, i).unwrap(), "row {i} of {p}");
        }
    }

    #[test]
    fn vectorized_matches_rowwise_across_chunk_boundaries() {
        use crate::column::CHUNK_ROWS;
        // Lengths around chunk and word boundaries, plus empty.
        for len in [
            0usize,
            1,
            63,
            64,
            65,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 5,
        ] {
            let ages: Vec<Option<i64>> = (0..len as i64)
                .map(|i| if i % 7 == 0 { None } else { Some(i % 90) })
                .collect();
            let genders: Vec<Option<String>> = (0..len)
                .map(|i| match i % 3 {
                    0 => Some("F".to_string()),
                    1 => Some("M".to_string()),
                    _ => None,
                })
                .collect();
            let d = DataFrame::from_columns(vec![
                Column::from_ints("age", ages),
                Column::from_strings("gender", DType::Categorical, genders),
            ])
            .unwrap();
            for p in [
                Predicate::True,
                Predicate::cmp("age", CmpOp::Ge, 45),
                Predicate::cmp("age", CmpOp::Lt, 10).or(Predicate::cmp("gender", CmpOp::Eq, "F")),
                Predicate::cmp("gender", CmpOp::Eq, "F")
                    .and(Predicate::cmp("age", CmpOp::Ge, 40))
                    .not(),
                Predicate::IsNull("age".into()),
                Predicate::IsNotNull("gender".into()),
                // Mismatched literal types: constant type-name order.
                Predicate::cmp("age", CmpOp::Eq, "45"),
                Predicate::cmp("gender", CmpOp::Lt, 3),
                Predicate::cmp("age", CmpOp::Ne, "x"),
                // NULL literal never matches.
                Predicate::cmp("age", CmpOp::Eq, Value::Null),
            ] {
                assert_matches_reference(&d, &p);
            }
        }
    }

    #[test]
    fn all_null_column_predicates() {
        let d = DataFrame::from_columns(vec![Column::from_ints("x", vec![None; 70])]).unwrap();
        let isnull = Predicate::IsNull("x".into()).evaluate(&d).unwrap();
        assert_eq!(isnull.count_ones(), 70);
        let cmp = Predicate::cmp("x", CmpOp::Le, 1_000_000)
            .evaluate(&d)
            .unwrap();
        assert_eq!(cmp.count_ones(), 0);
        assert_matches_reference(&d, &Predicate::cmp("x", CmpOp::Ne, 0));
    }

    #[test]
    fn float_and_bool_fast_paths_match_reference() {
        let d = DataFrame::from_columns(vec![
            Column::from_floats(
                "score",
                (0..130)
                    .map(|i| {
                        if i % 11 == 0 {
                            None
                        } else {
                            Some(i as f64 / 3.0 - 10.0)
                        }
                    })
                    .collect(),
            ),
            Column::from_bools("flag", (0..130).map(|i| Some(i % 2 == 0)).collect()),
        ])
        .unwrap();
        for p in [
            Predicate::cmp("score", CmpOp::Gt, 0.0),
            Predicate::cmp("score", CmpOp::Le, -5.0),
            Predicate::cmp("flag", CmpOp::Eq, true),
            Predicate::cmp("flag", CmpOp::Eq, 1),
            Predicate::cmp("score", CmpOp::Eq, 7), // Int literal vs Float column
        ] {
            assert_matches_reference(&d, &p);
        }
    }
}
