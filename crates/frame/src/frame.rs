//! The `DataFrame`: a relation instance `D ⊆ Dom^m`.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::predicate::Predicate;
use crate::schema::{Field, Schema};
use crate::value::Value;
use std::fmt;

/// An in-memory relation: equal-length named typed columns.
///
/// All of the paper's machinery — profile discovery, violation
/// scoring, and interventional transformations — operates on this
/// type. Transformations mutate columns in place via
/// [`DataFrame::column_mut`] or rebuild row sets via
/// [`DataFrame::take`] / [`DataFrame::filter`].
#[derive(Debug, Clone, Default)]
pub struct DataFrame {
    columns: Vec<Column>,
    /// Name → position index. Wide frames (the synthetic scaling
    /// experiments reach 10⁴ columns) need O(1) column lookup —
    /// per-PVT violation scoring does one lookup per candidate.
    index: std::collections::HashMap<String, usize>,
}

impl PartialEq for DataFrame {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns
    }
}

impl DataFrame {
    /// Empty frame (no columns, no rows).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from columns, validating equal lengths and unique names.
    pub fn from_columns(columns: Vec<Column>) -> Result<Self> {
        let mut df = DataFrame::new();
        for c in columns {
            df.add_column(c)?;
        }
        Ok(df)
    }

    /// Number of rows (`|D|`).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns (`m`).
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True iff the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// The schema of this frame.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name(), c.dtype()))
                .collect(),
        )
        .expect("frame invariant: unique column names")
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| FrameError::ColumnNotFound(name.to_string()))
    }

    /// Mutable column by name (the intervention entry point).
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        match self.index.get(name) {
            Some(&i) => Ok(&mut self.columns[i]),
            None => Err(FrameError::ColumnNotFound(name.to_string())),
        }
    }

    /// Append a column; must match the current row count (unless the
    /// frame has no columns yet) and have a fresh name.
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.index.contains_key(column.name()) {
            return Err(FrameError::DuplicateColumn(column.name().to_string()));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch(format!(
                "column {:?} has {} rows, frame has {}",
                column.name(),
                column.len(),
                self.n_rows()
            )));
        }
        self.index
            .insert(column.name().to_string(), self.columns.len());
        self.columns.push(column);
        Ok(())
    }

    /// Replace an existing column (same name) wholesale; must match
    /// the row count.
    pub fn replace_column(&mut self, column: Column) -> Result<()> {
        if column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch(format!(
                "replacement column {:?} has {} rows, frame has {}",
                column.name(),
                column.len(),
                self.n_rows()
            )));
        }
        let idx = *self
            .index
            .get(column.name())
            .ok_or_else(|| FrameError::ColumnNotFound(column.name().to_string()))?;
        self.columns[idx] = column;
        Ok(())
    }

    /// Drop a column by name, returning it.
    pub fn drop_column(&mut self, name: &str) -> Result<Column> {
        let idx = *self
            .index
            .get(name)
            .ok_or_else(|| FrameError::ColumnNotFound(name.to_string()))?;
        let removed = self.columns.remove(idx);
        self.index.remove(name);
        for v in self.index.values_mut() {
            if *v > idx {
                *v -= 1;
            }
        }
        Ok(removed)
    }

    /// The tuple at `index` as owned values, in column order.
    pub fn row(&self, index: usize) -> Result<Vec<Value>> {
        if index >= self.n_rows() {
            return Err(FrameError::RowOutOfBounds {
                index,
                len: self.n_rows(),
            });
        }
        Ok(self.columns.iter().map(|c| c.get(index)).collect())
    }

    /// Single cell accessor.
    pub fn cell(&self, row: usize, column: &str) -> Result<Value> {
        let col = self.column(column)?;
        if row >= col.len() {
            return Err(FrameError::RowOutOfBounds {
                index: row,
                len: col.len(),
            });
        }
        Ok(col.get(row))
    }

    /// Projection: keep only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            cols.push(self.column(n)?.clone());
        }
        DataFrame::from_columns(cols)
    }

    /// Selection by bitmap mask (`σ` with a precomputed mask).
    pub fn filter(&self, mask: &Bitmap) -> Result<DataFrame> {
        if mask.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch(format!(
                "mask has {} bits, frame has {} rows",
                mask.len(),
                self.n_rows()
            )));
        }
        DataFrame::from_columns(self.columns.iter().map(|c| c.filter(mask)).collect())
    }

    /// Selection by predicate: `σ_P(D)`.
    pub fn filter_by(&self, predicate: &Predicate) -> Result<DataFrame> {
        let mask = predicate.evaluate(self)?;
        self.filter(&mask)
    }

    /// Fraction of tuples satisfying `predicate`: `|σ_P(D)| / |D|`.
    /// This is the paper's selectivity (Fig 1 row 6). Zero on an empty
    /// frame.
    pub fn selectivity(&self, predicate: &Predicate) -> Result<f64> {
        if self.is_empty() {
            return Ok(0.0);
        }
        let mask = predicate.evaluate(self)?;
        Ok(mask.count_ones() as f64 / self.n_rows() as f64)
    }

    /// Gather rows at `indices` (repeats allowed) into a new frame.
    /// Backs over/undersampling transformations.
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.n_rows()) {
            return Err(FrameError::RowOutOfBounds {
                index: bad,
                len: self.n_rows(),
            });
        }
        DataFrame::from_columns(self.columns.iter().map(|c| c.take(indices)).collect())
    }

    /// Vertically concatenate another frame with an identical schema.
    pub fn concat(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.schema() != other.schema() {
            return Err(FrameError::LengthMismatch(
                "cannot concat frames with different schemas".into(),
            ));
        }
        let mut out = self.clone();
        for (col, other_col) in out.columns.iter_mut().zip(other.columns.iter()) {
            col.append(other_col)?;
        }
        Ok(out)
    }

    /// First `n` rows (or fewer).
    pub fn head(&self, n: usize) -> DataFrame {
        let idx: Vec<usize> = (0..self.n_rows().min(n)).collect();
        self.take(&idx).expect("indices in range")
    }

    /// Approximate heap bytes of this frame's buffers, counting every
    /// chunk at full size even when shared — i.e. what an eager
    /// full-copy materialization of this frame would occupy.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum()
    }

    /// Whether the named column is backed by exactly the same chunk
    /// allocations in `self` and `other` — true for columns a
    /// copy-on-write clone has not yet written to.
    pub fn column_shares_chunks(&self, other: &DataFrame, name: &str) -> bool {
        match (self.column(name), other.column(name)) {
            (Ok(a), Ok(b)) => a.shares_chunks_with(b),
            _ => false,
        }
    }
}

/// Approximate heap bytes held by a set of frames *after* chunk
/// deduplication: each distinct chunk allocation is counted once, no
/// matter how many frames or columns share it. The gap between this
/// and the sum of [`DataFrame::heap_bytes`] is exactly what
/// copy-on-write saves.
pub fn unique_heap_bytes<'a, I: IntoIterator<Item = &'a DataFrame>>(frames: I) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut total = 0usize;
    for df in frames {
        for col in df.columns() {
            for chunk in col.chunks() {
                if seen.insert(std::sync::Arc::as_ptr(chunk)) {
                    total += chunk.heap_bytes();
                }
            }
        }
    }
    total
}

impl fmt::Display for DataFrame {
    /// Renders a small aligned preview table (up to 10 rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = self.n_rows().min(10);
        let headers: Vec<String> = self.columns.iter().map(|c| c.name().to_string()).collect();
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(show);
        for i in 0..show {
            rows.push(self.columns.iter().map(|c| c.get(i).to_string()).collect());
        }
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, "{h:w$} | ")?;
        }
        writeln!(f)?;
        for row in &rows {
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, "{cell:w$} | ")?;
            }
            writeln!(f)?;
        }
        if self.n_rows() > show {
            writeln!(f, "... ({} rows total)", self.n_rows())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::predicate::{CmpOp, Predicate};

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_ints("age", vec![Some(45), Some(22), Some(60), None]),
            Column::from_strings(
                "gender",
                DType::Categorical,
                vec![
                    Some("F".into()),
                    Some("M".into()),
                    Some("M".into()),
                    Some("F".into()),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let err = DataFrame::from_columns(vec![
            Column::from_ints("a", vec![Some(1)]),
            Column::from_ints("a", vec![Some(2)]),
        ])
        .unwrap_err();
        assert!(matches!(err, FrameError::DuplicateColumn(_)));

        let err = DataFrame::from_columns(vec![
            Column::from_ints("a", vec![Some(1)]),
            Column::from_ints("b", vec![Some(2), Some(3)]),
        ])
        .unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch(_)));
    }

    #[test]
    fn row_and_cell_access() {
        let df = sample();
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.n_cols(), 2);
        assert_eq!(
            df.row(0).unwrap(),
            vec![Value::Int(45), Value::Str("F".into())]
        );
        assert_eq!(df.cell(3, "age").unwrap(), Value::Null);
        assert!(df.row(4).is_err());
        assert!(df.cell(0, "zip").is_err());
    }

    #[test]
    fn select_projects_in_order() {
        let df = sample();
        let p = df.select(&["gender", "age"]).unwrap();
        assert_eq!(p.schema().names(), vec!["gender", "age"]);
        assert!(df.select(&["nope"]).is_err());
    }

    #[test]
    fn filter_by_predicate_and_selectivity() {
        let df = sample();
        let pred = Predicate::cmp("gender", CmpOp::Eq, "M");
        let sel = df.selectivity(&pred).unwrap();
        assert!((sel - 0.5).abs() < 1e-12);
        let filtered = df.filter_by(&pred).unwrap();
        assert_eq!(filtered.n_rows(), 2);
        assert_eq!(filtered.cell(0, "age").unwrap(), Value::Int(22));
    }

    #[test]
    fn take_and_concat() {
        let df = sample();
        let boot = df.take(&[0, 0, 2]).unwrap();
        assert_eq!(boot.n_rows(), 3);
        assert_eq!(boot.cell(1, "age").unwrap(), Value::Int(45));
        let both = df.concat(&boot).unwrap();
        assert_eq!(both.n_rows(), 7);
        assert!(df.take(&[9]).is_err());
    }

    #[test]
    fn concat_rejects_schema_mismatch() {
        let df = sample();
        let other = DataFrame::from_columns(vec![Column::from_ints("age", vec![Some(1)])]).unwrap();
        assert!(df.concat(&other).is_err());
    }

    #[test]
    fn replace_and_drop_column() {
        let mut df = sample();
        let new_age = Column::from_ints("age", vec![Some(1), Some(2), Some(3), Some(4)]);
        df.replace_column(new_age).unwrap();
        assert_eq!(df.cell(0, "age").unwrap(), Value::Int(1));
        let dropped = df.drop_column("gender").unwrap();
        assert_eq!(dropped.name(), "gender");
        assert_eq!(df.n_cols(), 1);
    }

    #[test]
    fn clone_shares_chunks_and_dedup_accounting_sees_it() {
        let df = sample();
        let copy = df.clone();
        assert!(df.column_shares_chunks(&copy, "age"));
        assert!(df.column_shares_chunks(&copy, "gender"));
        // Two clones occupy one frame's worth of unique bytes.
        let eager = df.heap_bytes() + copy.heap_bytes();
        let unique = unique_heap_bytes([&df, &copy]);
        assert_eq!(eager, 2 * unique);
        // Writing one column un-shares only that column's chunks.
        let mut written = copy.clone();
        written
            .column_mut("age")
            .unwrap()
            .set(0, Value::Int(99))
            .unwrap();
        assert!(!df.column_shares_chunks(&written, "age"));
        assert!(df.column_shares_chunks(&written, "gender"));
    }

    #[test]
    fn head_and_display() {
        let df = sample();
        assert_eq!(df.head(2).n_rows(), 2);
        assert_eq!(df.head(100).n_rows(), 4);
        let rendered = df.to_string();
        assert!(rendered.contains("age") && rendered.contains("gender"));
    }
}
