//! Typed column storage with validity bitmaps.
//!
//! Storage is *chunked and copy-on-write*: a column is a sequence of
//! fixed-size [`Chunk`]s held behind [`std::sync::Arc`]s. Cloning a
//! column — and therefore a whole [`crate::DataFrame`] — is
//! O(#chunks) reference-count bumps, and writers clone only the
//! chunks they actually modify (`Arc::make_mut`). A composed
//! transformation that edits one attribute thus leaves every other
//! column's chunks shared with the source frame, together with their
//! cached content fingerprints (see [`Chunk::cached_fingerprint`]).

use crate::bitmap::Bitmap;
use crate::dtype::DType;
use crate::error::{FrameError, Result};
use crate::value::Value;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Rows per storage chunk. A multiple of 64 so chunk validity bitmaps
/// stay word-aligned and chunk masks concatenate word-wise.
pub const CHUNK_ROWS: usize = 4096;

/// Physical storage of one chunk of a column. Slots masked out by the
/// validity bitmap hold an arbitrary placeholder (0 / 0.0 / false / "").
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// `Int` columns.
    Int(Vec<i64>),
    /// `Float` columns.
    Float(Vec<f64>),
    /// `Bool` columns.
    Bool(Vec<bool>),
    /// `Categorical` and `Text` columns.
    Str(Vec<String>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    fn empty(dtype: DType) -> ColumnData {
        match dtype {
            DType::Int => ColumnData::Int(Vec::new()),
            DType::Float => ColumnData::Float(Vec::new()),
            DType::Bool => ColumnData::Bool(Vec::new()),
            DType::Categorical | DType::Text => ColumnData::Str(Vec::new()),
        }
    }

    /// Heap bytes held by the buffer (strings count their capacity).
    fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v
                .iter()
                .map(|s| std::mem::size_of::<String>() + s.capacity())
                .sum(),
        }
    }
}

/// One fixed-size run of rows of a column: typed values plus their
/// validity bitmap, plus a lazily computed content fingerprint.
///
/// All chunks of a column hold exactly [`CHUNK_ROWS`] rows except the
/// last, which holds the remainder — so a row index maps to
/// `(index / CHUNK_ROWS, index % CHUNK_ROWS)` without a lookup table.
#[derive(Debug)]
pub struct Chunk {
    data: ColumnData,
    validity: Bitmap,
    /// Cached content fingerprint. Populated on first use by
    /// [`Chunk::cached_fingerprint`]; every mutation path resets it.
    fp: OnceLock<u64>,
}

impl Clone for Chunk {
    fn clone(&self) -> Chunk {
        Chunk {
            data: self.data.clone(),
            validity: self.validity.clone(),
            // The clone holds identical contents, so the cached
            // fingerprint transfers; mutators reset it after cloning.
            fp: self.fp.clone(),
        }
    }
}

impl PartialEq for Chunk {
    fn eq(&self, other: &Self) -> bool {
        // The fingerprint cache is derived state: two chunks with
        // equal contents are equal regardless of which has hashed.
        self.data == other.data && self.validity == other.validity
    }
}

impl Chunk {
    fn new(data: ColumnData, validity: Bitmap) -> Chunk {
        debug_assert_eq!(data.len(), validity.len());
        Chunk {
            data,
            validity,
            fp: OnceLock::new(),
        }
    }

    /// Number of rows in this chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True iff the chunk holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Typed value buffer. Slots masked out by the validity bitmap
    /// hold arbitrary placeholders — pair with [`Chunk::validity`]
    /// when reading.
    #[inline]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Validity bitmap (1 = valid, 0 = NULL).
    #[inline]
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// The chunk's content fingerprint, computing it with `compute`
    /// on first use and caching it for every later caller. The hash
    /// policy lives with the caller (the oracle), the cache with the
    /// storage: chunks shared between frames hash exactly once.
    pub fn cached_fingerprint(&self, compute: impl FnOnce(&Chunk) -> u64) -> u64 {
        *self.fp.get_or_init(|| compute(self))
    }

    /// Whether a fingerprint is currently cached (test introspection).
    pub fn has_cached_fingerprint(&self) -> bool {
        self.fp.get().is_some()
    }

    /// Approximate heap bytes held by this chunk's buffers.
    pub fn heap_bytes(&self) -> usize {
        self.data.heap_bytes() + self.validity.words().len() * 8
    }

    /// Append `src`'s rows `rows` (same storage type), writing the
    /// placeholder [`Column::push`] writes into each NULL slot.
    fn extend_from(&mut self, src: &Chunk, rows: Range<usize>) {
        fn copy<T: Clone>(
            dst: &mut Vec<T>,
            src: &[T],
            valid: &Bitmap,
            rows: Range<usize>,
            null: T,
        ) {
            dst.extend(rows.map(|i| {
                if valid.get(i) {
                    src[i].clone()
                } else {
                    null.clone()
                }
            }));
        }
        let valid = &src.validity;
        match (&mut self.data, &src.data) {
            (ColumnData::Int(d), ColumnData::Int(s)) => copy(d, s, valid, rows.clone(), 0),
            (ColumnData::Float(d), ColumnData::Float(s)) => copy(d, s, valid, rows.clone(), 0.0),
            (ColumnData::Bool(d), ColumnData::Bool(s)) => copy(d, s, valid, rows.clone(), false),
            (ColumnData::Str(d), ColumnData::Str(s)) => {
                copy(d, s, valid, rows.clone(), String::new())
            }
            _ => unreachable!("append checks the dtypes match"),
        }
        for i in rows {
            self.validity.push(valid.get(i));
        }
        self.fp.take();
    }
}

/// A named, typed column: `D.A_j` in the paper's notation — the
/// multiset of values all tuples take for attribute `A_j`, stored as
/// copy-on-write [`Chunk`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    dtype: DType,
    len: usize,
    chunks: Vec<Arc<Chunk>>,
}

/// Chunk the `(value, validity)` stream of a constructor into
/// `CHUNK_ROWS`-sized chunks.
fn build_chunks<T>(
    values: Vec<Option<T>>,
    mut admit: impl FnMut(&T) -> bool,
    mut placeholder: impl FnMut() -> T,
    wrap: impl Fn(Vec<T>) -> ColumnData,
) -> (usize, Vec<Arc<Chunk>>) {
    let len = values.len();
    let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK_ROWS));
    let mut buf: Vec<T> = Vec::with_capacity(CHUNK_ROWS.min(len));
    let mut validity = Bitmap::new();
    for v in values {
        match v {
            Some(x) if admit(&x) => {
                buf.push(x);
                validity.push(true);
            }
            _ => {
                buf.push(placeholder());
                validity.push(false);
            }
        }
        if buf.len() == CHUNK_ROWS {
            chunks.push(Arc::new(Chunk::new(
                wrap(std::mem::take(&mut buf)),
                std::mem::take(&mut validity),
            )));
        }
    }
    if !buf.is_empty() {
        chunks.push(Arc::new(Chunk::new(wrap(buf), validity)));
    }
    (len, chunks)
}

impl Column {
    /// Build an `Int` column; `None` entries become NULL.
    pub fn from_ints<S: Into<String>>(name: S, values: Vec<Option<i64>>) -> Self {
        let (len, chunks) = build_chunks(values, |_| true, || 0, ColumnData::Int);
        Column {
            name: name.into(),
            dtype: DType::Int,
            len,
            chunks,
        }
    }

    /// Build a `Float` column; `None` and NaN entries become NULL.
    pub fn from_floats<S: Into<String>>(name: S, values: Vec<Option<f64>>) -> Self {
        let (len, chunks) = build_chunks(values, |x| !x.is_nan(), || 0.0, ColumnData::Float);
        Column {
            name: name.into(),
            dtype: DType::Float,
            len,
            chunks,
        }
    }

    /// Build a `Bool` column; `None` entries become NULL.
    pub fn from_bools<S: Into<String>>(name: S, values: Vec<Option<bool>>) -> Self {
        let (len, chunks) = build_chunks(values, |_| true, || false, ColumnData::Bool);
        Column {
            name: name.into(),
            dtype: DType::Bool,
            len,
            chunks,
        }
    }

    /// Build a string-backed column (`Categorical` or `Text`).
    pub fn from_strings<S: Into<String>>(
        name: S,
        dtype: DType,
        values: Vec<Option<String>>,
    ) -> Self {
        assert!(dtype.is_string(), "from_strings requires a string dtype");
        let (len, chunks) = build_chunks(values, |_| true, String::new, ColumnData::Str);
        Column {
            name: name.into(),
            dtype,
            len,
            chunks,
        }
    }

    /// Build a column of `dtype` from dynamically typed values.
    ///
    /// Fails with [`FrameError::TypeMismatch`] on any value the dtype
    /// does not admit. `Int` values widen into `Float` columns.
    pub fn from_values<S: Into<String>>(name: S, dtype: DType, values: Vec<Value>) -> Result<Self> {
        let name = name.into();
        let mut col = Column::empty(name, dtype);
        for v in values {
            col.push(v)?;
        }
        Ok(col)
    }

    /// Empty column of the given type.
    pub fn empty<S: Into<String>>(name: S, dtype: DType) -> Self {
        Column {
            name: name.into(),
            dtype,
            len: 0,
            chunks: Vec::new(),
        }
    }

    /// Column name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the column in place.
    pub fn set_name<S: Into<String>>(&mut self, name: S) {
        self.name = name.into();
    }

    /// Logical type.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Re-tag a string column between `Categorical` and `Text`
    /// (identical storage, different profile semantics).
    pub fn retag(&mut self, dtype: DType) -> Result<()> {
        if self.dtype.is_string() && dtype.is_string() {
            self.dtype = dtype;
            Ok(())
        } else {
            Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "a string dtype".into(),
                found: format!("{} -> {}", self.dtype, dtype),
            })
        }
    }

    /// The storage chunks backing this column, in row order. Every
    /// chunk holds exactly [`CHUNK_ROWS`] rows except the last.
    #[inline]
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// Whether `self` and `other` are backed by exactly the same
    /// chunk allocations (pointer equality, not value equality) —
    /// i.e. a clone of `other` that no write has yet un-shared.
    pub fn shares_chunks_with(&self, other: &Column) -> bool {
        self.chunks.len() == other.chunks.len()
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Approximate heap bytes of this column's buffers, counting
    /// shared chunks at full size (the "eager copy" accounting).
    pub fn heap_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.heap_bytes()).sum()
    }

    /// The concatenated validity bitmap (1 = valid, 0 = NULL) over
    /// all rows. Chunk bitmaps are word-aligned, so this is a word
    /// copy, not a bit-by-bit rebuild.
    pub fn validity_mask(&self) -> Bitmap {
        let mut out = Bitmap::new();
        for chunk in &self.chunks {
            out.append(&chunk.validity);
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL entries.
    pub fn null_count(&self) -> usize {
        self.chunks.iter().map(|c| c.validity.count_zeros()).sum()
    }

    /// Whether row `index` is NULL.
    #[inline]
    pub fn is_null(&self, index: usize) -> bool {
        assert!(index < self.len, "row index {index} out of {}", self.len);
        !self.chunks[index / CHUNK_ROWS]
            .validity
            .get(index % CHUNK_ROWS)
    }

    /// Value at `index` as a dynamically typed [`Value`].
    pub fn get(&self, index: usize) -> Value {
        assert!(index < self.len, "row index {index} out of {}", self.len);
        let chunk = &self.chunks[index / CHUNK_ROWS];
        let off = index % CHUNK_ROWS;
        if !chunk.validity.get(off) {
            return Value::Null;
        }
        match &chunk.data {
            ColumnData::Int(v) => Value::Int(v[off]),
            ColumnData::Float(v) => Value::Float(v[off]),
            ColumnData::Bool(v) => Value::Bool(v[off]),
            ColumnData::Str(v) => Value::Str(v[off].clone()),
        }
    }

    /// Unique access to the chunk holding row `index`, un-sharing it
    /// if needed and resetting its cached fingerprint.
    fn chunk_mut(&mut self, index: usize) -> (&mut Chunk, usize) {
        let slot = &mut self.chunks[index / CHUNK_ROWS];
        let chunk = Arc::make_mut(slot);
        chunk.fp.take();
        (chunk, index % CHUNK_ROWS)
    }

    /// Append a value, checking it against the dtype.
    pub fn push(&mut self, value: Value) -> Result<()> {
        if !self.dtype.admits(&value) {
            return Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: self.dtype.to_string(),
                found: value.type_name().to_string(),
            });
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK_ROWS) {
            self.chunks.push(Arc::new(Chunk::new(
                ColumnData::empty(self.dtype),
                Bitmap::new(),
            )));
        }
        let chunk = Arc::make_mut(self.chunks.last_mut().expect("chunk pushed above"));
        chunk.fp.take();
        match (&mut chunk.data, value) {
            (data, Value::Null) => {
                match data {
                    ColumnData::Int(v) => v.push(0),
                    ColumnData::Float(v) => v.push(0.0),
                    ColumnData::Bool(v) => v.push(false),
                    ColumnData::Str(v) => v.push(String::new()),
                }
                chunk.validity.push(false);
            }
            (ColumnData::Int(v), Value::Int(i)) => {
                v.push(i);
                chunk.validity.push(true);
            }
            (ColumnData::Float(v), Value::Float(x)) => {
                v.push(x);
                chunk.validity.push(true);
            }
            (ColumnData::Float(v), Value::Int(i)) => {
                v.push(i as f64);
                chunk.validity.push(true);
            }
            (ColumnData::Bool(v), Value::Bool(b)) => {
                v.push(b);
                chunk.validity.push(true);
            }
            (ColumnData::Str(v), Value::Str(s)) => {
                v.push(s);
                chunk.validity.push(true);
            }
            _ => unreachable!("admits() already filtered mismatches"),
        }
        self.len += 1;
        Ok(())
    }

    /// Append every row of `other`, which must have the same dtype,
    /// copying typed chunk buffers instead of boxing each cell through
    /// [`Value`]. A NULL slot receives the placeholder
    /// [`push`](Self::push) writes, so the result equals pushing
    /// `other.iter()` value by value.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        if self.dtype != other.dtype {
            return Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: self.dtype.to_string(),
                found: other.dtype.to_string(),
            });
        }
        for src in &other.chunks {
            let mut off = 0;
            while off < src.len() {
                if self.chunks.last().is_none_or(|c| c.len() == CHUNK_ROWS) {
                    self.chunks.push(Arc::new(Chunk::new(
                        ColumnData::empty(self.dtype),
                        Bitmap::new(),
                    )));
                }
                let dst = Arc::make_mut(self.chunks.last_mut().expect("chunk pushed above"));
                let n = (CHUNK_ROWS - dst.len()).min(src.len() - off);
                dst.extend_from(src, off..off + n);
                off += n;
            }
        }
        self.len += other.len;
        Ok(())
    }

    /// Overwrite the value at `index` (same type rules as [`push`](Self::push)).
    ///
    /// Writing a value a slot already holds is a no-op that leaves
    /// the chunk shared (copy-on-write never clones for an identical
    /// write).
    pub fn set(&mut self, index: usize, value: Value) -> Result<()> {
        if index >= self.len {
            return Err(FrameError::RowOutOfBounds {
                index,
                len: self.len,
            });
        }
        if !self.dtype.admits(&value) {
            return Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: self.dtype.to_string(),
                found: value.type_name().to_string(),
            });
        }
        // Skip the write (and the chunk un-sharing it would force)
        // when the slot already holds the value. Floats compare by
        // bit pattern so a -0.0 → 0.0 write still lands.
        {
            let chunk = &self.chunks[index / CHUNK_ROWS];
            let off = index % CHUNK_ROWS;
            let valid = chunk.validity.get(off);
            let same = match (&chunk.data, &value) {
                (_, Value::Null) => !valid,
                (ColumnData::Int(v), Value::Int(i)) => valid && v[off] == *i,
                (ColumnData::Float(v), Value::Float(x)) => valid && v[off].to_bits() == x.to_bits(),
                (ColumnData::Float(v), Value::Int(i)) => {
                    valid && v[off].to_bits() == (*i as f64).to_bits()
                }
                (ColumnData::Bool(v), Value::Bool(b)) => valid && v[off] == *b,
                (ColumnData::Str(v), Value::Str(s)) => valid && v[off] == *s,
                _ => false,
            };
            if same {
                return Ok(());
            }
        }
        let (chunk, off) = self.chunk_mut(index);
        match (&mut chunk.data, value) {
            (_, Value::Null) => chunk.validity.set(off, false),
            (ColumnData::Int(v), Value::Int(i)) => {
                v[off] = i;
                chunk.validity.set(off, true);
            }
            (ColumnData::Float(v), Value::Float(x)) => {
                v[off] = x;
                chunk.validity.set(off, true);
            }
            (ColumnData::Float(v), Value::Int(i)) => {
                v[off] = i as f64;
                chunk.validity.set(off, true);
            }
            (ColumnData::Bool(v), Value::Bool(b)) => {
                v[off] = b;
                chunk.validity.set(off, true);
            }
            (ColumnData::Str(v), Value::Str(s)) => {
                v[off] = s;
                chunk.validity.set(off, true);
            }
            _ => unreachable!("admits() already filtered mismatches"),
        }
        Ok(())
    }

    /// Iterator over values as [`Value`]s (allocates for strings).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Non-NULL values as `f64`, paired with their row indices.
    /// Empty for non-numeric columns.
    pub fn f64_values(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for (ci, chunk) in self.chunks.iter().enumerate() {
            let base = ci * CHUNK_ROWS;
            match &chunk.data {
                ColumnData::Int(v) => {
                    out.extend(chunk.validity.ones().map(|off| (base + off, v[off] as f64)));
                }
                ColumnData::Float(v) => {
                    out.extend(chunk.validity.ones().map(|off| (base + off, v[off])));
                }
                ColumnData::Bool(v) => {
                    out.extend(
                        chunk
                            .validity
                            .ones()
                            .map(|off| (base + off, v[off] as u8 as f64)),
                    );
                }
                ColumnData::Str(_) => return Vec::new(),
            }
        }
        out
    }

    /// Non-NULL string values paired with row indices; empty for
    /// non-string columns.
    pub fn str_values(&self) -> Vec<(usize, &str)> {
        let mut out = Vec::new();
        for (ci, chunk) in self.chunks.iter().enumerate() {
            let base = ci * CHUNK_ROWS;
            match &chunk.data {
                ColumnData::Str(v) => {
                    out.extend(
                        chunk
                            .validity
                            .ones()
                            .map(|off| (base + off, v[off].as_str())),
                    );
                }
                _ => return Vec::new(),
            }
        }
        out
    }

    /// Map every non-NULL numeric value through `f` in place.
    /// Returns the number of values changed (for transformation
    /// coverage accounting). No-op on non-numeric columns.
    ///
    /// Chunks are un-shared lazily, on the first row `f` actually
    /// changes: a map that leaves a chunk untouched leaves it shared
    /// with every other frame holding it.
    pub fn map_numeric_in_place<F: FnMut(f64) -> f64>(&mut self, mut f: F) -> usize {
        let mut changed = 0;
        for slot in &mut self.chunks {
            match &slot.data {
                ColumnData::Float(_) => {
                    for off in 0..slot.len() {
                        if !slot.validity.get(off) {
                            continue;
                        }
                        let ColumnData::Float(v) = &slot.data else {
                            unreachable!("chunk variant fixed per column")
                        };
                        let x = v[off];
                        let y = f(x);
                        if y != x {
                            let chunk = Arc::make_mut(slot);
                            chunk.fp.take();
                            let ColumnData::Float(v) = &mut chunk.data else {
                                unreachable!("chunk variant fixed per column")
                            };
                            v[off] = y;
                            changed += 1;
                        }
                    }
                }
                ColumnData::Int(_) => {
                    for off in 0..slot.len() {
                        if !slot.validity.get(off) {
                            continue;
                        }
                        let ColumnData::Int(v) = &slot.data else {
                            unreachable!("chunk variant fixed per column")
                        };
                        let x = v[off];
                        let y = f(x as f64).round() as i64;
                        if y != x {
                            let chunk = Arc::make_mut(slot);
                            chunk.fp.take();
                            let ColumnData::Int(v) = &mut chunk.data else {
                                unreachable!("chunk variant fixed per column")
                            };
                            v[off] = y;
                            changed += 1;
                        }
                    }
                }
                _ => break,
            }
        }
        changed
    }

    /// Map every non-NULL string value through `f` in place; returns
    /// how many changed. No-op on non-string columns. Same lazy
    /// un-sharing as [`Column::map_numeric_in_place`].
    pub fn map_str_in_place<F: FnMut(&str) -> Option<String>>(&mut self, mut f: F) -> usize {
        let mut changed = 0;
        for slot in &mut self.chunks {
            if !matches!(slot.data, ColumnData::Str(_)) {
                break;
            }
            for off in 0..slot.len() {
                if !slot.validity.get(off) {
                    continue;
                }
                let ColumnData::Str(v) = &slot.data else {
                    unreachable!("checked above")
                };
                let Some(new) = f(&v[off]) else { continue };
                if new != v[off] {
                    let chunk = Arc::make_mut(slot);
                    chunk.fp.take();
                    let ColumnData::Str(v) = &mut chunk.data else {
                        unreachable!("checked above")
                    };
                    v[off] = new;
                    changed += 1;
                }
            }
        }
        changed
    }

    /// New column keeping only rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> Column {
        assert_eq!(mask.len(), self.len(), "mask length mismatch");
        let mut out = Column::empty(self.name.clone(), self.dtype);
        for i in mask.ones() {
            out.push(self.get(i)).expect("same dtype");
        }
        out
    }

    /// New column with rows gathered at `indices` (repeats allowed —
    /// used by over/undersampling transformations).
    pub fn take(&self, indices: &[usize]) -> Column {
        let mut out = Column::empty(self.name.clone(), self.dtype);
        for &i in indices {
            out.push(self.get(i)).expect("same dtype");
        }
        out
    }

    /// Distinct non-NULL values (as display strings) with counts,
    /// sorted by value. Backs categorical domain discovery.
    pub fn value_counts(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for chunk in &self.chunks {
            match &chunk.data {
                ColumnData::Str(v) => {
                    for off in chunk.validity.ones() {
                        match counts.get_mut(v[off].as_str()) {
                            Some(c) => *c += 1,
                            None => {
                                counts.insert(v[off].clone(), 1);
                            }
                        }
                    }
                }
                ColumnData::Int(v) => {
                    for off in chunk.validity.ones() {
                        *counts.entry(v[off].to_string()).or_insert(0) += 1;
                    }
                }
                ColumnData::Float(v) => {
                    for off in chunk.validity.ones() {
                        *counts.entry(format!("{}", v[off])).or_insert(0) += 1;
                    }
                }
                ColumnData::Bool(v) => {
                    for off in chunk.validity.ones() {
                        *counts.entry(v[off].to_string()).or_insert(0) += 1;
                    }
                }
            }
        }
        counts.into_iter().collect()
    }

    /// Min and max over non-NULL numeric values.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut any = false;
        for chunk in &self.chunks {
            match &chunk.data {
                ColumnData::Int(v) => {
                    for off in chunk.validity.ones() {
                        let x = v[off] as f64;
                        lo = lo.min(x);
                        hi = hi.max(x);
                        any = true;
                    }
                }
                ColumnData::Float(v) => {
                    for off in chunk.validity.ones() {
                        let x = v[off];
                        lo = lo.min(x);
                        hi = hi.max(x);
                        any = true;
                    }
                }
                ColumnData::Bool(v) => {
                    for off in chunk.validity.ones() {
                        let x = v[off] as u8 as f64;
                        lo = lo.min(x);
                        hi = hi.max(x);
                        any = true;
                    }
                }
                ColumnData::Str(_) => return None,
            }
        }
        if any {
            Some((lo, hi))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_roundtrip_with_nulls() {
        let col = Column::from_ints("age", vec![Some(1), None, Some(3)]);
        assert_eq!(col.len(), 3);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.get(0), Value::Int(1));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.get(2), Value::Int(3));
    }

    #[test]
    fn float_column_nan_is_null() {
        let col = Column::from_floats("x", vec![Some(1.0), Some(f64::NAN), None]);
        assert_eq!(col.null_count(), 2);
        assert_eq!(col.get(1), Value::Null);
    }

    #[test]
    fn push_type_checks() {
        let mut col = Column::empty("c", DType::Int);
        assert!(col.push(Value::Int(1)).is_ok());
        assert!(col.push(Value::Null).is_ok());
        let err = col.push(Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, FrameError::TypeMismatch { .. }));
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut col = Column::empty("c", DType::Float);
        col.push(Value::Int(3)).unwrap();
        assert_eq!(col.get(0), Value::Float(3.0));
    }

    #[test]
    fn set_overwrites_and_updates_validity() {
        let mut col = Column::from_ints("c", vec![Some(1), None]);
        col.set(1, Value::Int(9)).unwrap();
        assert_eq!(col.get(1), Value::Int(9));
        col.set(0, Value::Null).unwrap();
        assert!(col.is_null(0));
        assert!(matches!(
            col.set(5, Value::Int(0)),
            Err(FrameError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn map_numeric_counts_changes_and_skips_nulls() {
        let mut col = Column::from_floats("h", vec![Some(100.0), None, Some(50.0)]);
        let changed = col.map_numeric_in_place(|x| x / 2.54);
        assert_eq!(changed, 2);
        assert!(col.is_null(1));
        assert!((col.get(0).as_f64().unwrap() - 100.0 / 2.54).abs() < 1e-12);
    }

    #[test]
    fn map_numeric_rounds_for_int_columns() {
        let mut col = Column::from_ints("h", vec![Some(100)]);
        col.map_numeric_in_place(|x| x * 2.54);
        assert_eq!(col.get(0), Value::Int(254));
    }

    #[test]
    fn map_str_in_place_replaces() {
        let mut col = Column::from_strings(
            "g",
            DType::Categorical,
            vec![Some("4".into()), Some("0".into()), None],
        );
        let changed = col.map_str_in_place(|s| match s {
            "4" => Some("1".into()),
            "0" => Some("-1".into()),
            _ => None,
        });
        assert_eq!(changed, 2);
        assert_eq!(col.get(0), Value::Str("1".into()));
        assert_eq!(col.get(1), Value::Str("-1".into()));
    }

    #[test]
    fn filter_and_take() {
        let col = Column::from_ints("c", vec![Some(10), Some(20), Some(30)]);
        let mask = Bitmap::from_iter([true, false, true]);
        let f = col.filter(&mask);
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(1), Value::Int(30));
        let t = col.take(&[2, 2, 0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), Value::Int(30));
        assert_eq!(t.get(2), Value::Int(10));
    }

    #[test]
    fn value_counts_and_min_max() {
        let col = Column::from_strings(
            "g",
            DType::Categorical,
            vec![Some("M".into()), Some("F".into()), Some("M".into()), None],
        );
        assert_eq!(
            col.value_counts(),
            vec![("F".to_string(), 1), ("M".to_string(), 2)]
        );
        let num = Column::from_ints("a", vec![Some(5), Some(-2), None, Some(7)]);
        assert_eq!(num.min_max(), Some((-2.0, 7.0)));
        let empty = Column::empty("e", DType::Float);
        assert_eq!(empty.min_max(), None);
    }

    #[test]
    fn retag_between_string_types_only() {
        let mut col = Column::from_strings("t", DType::Text, vec![Some("a".into())]);
        assert!(col.retag(DType::Categorical).is_ok());
        assert_eq!(col.dtype(), DType::Categorical);
        let mut num = Column::from_ints("n", vec![Some(1)]);
        assert!(num.retag(DType::Text).is_err());
    }

    #[test]
    fn f64_values_includes_bools() {
        let col = Column::from_bools("b", vec![Some(true), None, Some(false)]);
        let vals = col.f64_values();
        assert_eq!(vals, vec![(0, 1.0), (2, 0.0)]);
    }

    /// The value-by-value append that [`Column::append`] replaces.
    fn push_all(mut col: Column, other: &Column) -> Column {
        for v in other.iter() {
            col.push(v).unwrap();
        }
        col
    }

    #[test]
    fn append_equals_pushing_every_value() {
        let floats = |n: usize, offset: f64| {
            Column::from_floats(
                "x",
                (0..n)
                    .map(|i| (i % 5 != 0).then_some(i as f64 + offset))
                    .collect(),
            )
        };
        let strings = |n: usize| {
            Column::from_strings(
                "s",
                DType::Text,
                (0..n)
                    .map(|i| (i % 3 != 0).then(|| format!("v{i}")))
                    .collect(),
            )
        };
        // Straddle chunk boundaries from both sides: a partial last
        // chunk filled up, and a source longer than one chunk.
        for (a, b) in [(3, 4), (CHUNK_ROWS - 2, 5), (7, CHUNK_ROWS + 9), (0, 3)] {
            let mut appended = floats(a, 0.5);
            appended.append(&floats(b, 100.0)).unwrap();
            assert_eq!(
                appended,
                push_all(floats(a, 0.5), &floats(b, 100.0)),
                "{a}+{b}"
            );
            let mut appended = strings(a);
            appended.append(&strings(b)).unwrap();
            assert_eq!(appended, push_all(strings(a), &strings(b)), "{a}+{b}");
        }
        // A slot set to NULL after construction still holds its old
        // value in the buffer; the appended copy holds the placeholder.
        let mut src = Column::from_ints("n", vec![Some(1), Some(2), Some(3)]);
        src.set(1, Value::Null).unwrap();
        let mut appended = Column::from_ints("n", vec![Some(9)]);
        appended.append(&src).unwrap();
        assert_eq!(
            appended,
            push_all(Column::from_ints("n", vec![Some(9)]), &src)
        );
        assert!(appended.append(&strings(2)).is_err(), "dtype mismatch");
    }

    // ------------------------------------------------------------
    // Chunked / copy-on-write behavior
    // ------------------------------------------------------------

    /// A column long enough to span three chunks, with the last one
    /// partial and NULLs sprinkled across chunk boundaries.
    fn multi_chunk() -> Column {
        let values: Vec<Option<i64>> = (0..2 * CHUNK_ROWS as i64 + 7)
            .map(|i| if i % 97 == 0 { None } else { Some(i) })
            .collect();
        Column::from_ints("big", values)
    }

    #[test]
    fn constructors_chunk_at_chunk_rows() {
        let col = multi_chunk();
        assert_eq!(col.chunks().len(), 3);
        assert_eq!(col.chunks()[0].len(), CHUNK_ROWS);
        assert_eq!(col.chunks()[1].len(), CHUNK_ROWS);
        assert_eq!(col.chunks()[2].len(), 7);
        assert_eq!(col.len(), 2 * CHUNK_ROWS + 7);
        // Values and NULLs land at the right global indices.
        assert_eq!(col.get(CHUNK_ROWS), Value::Int(CHUNK_ROWS as i64));
        assert!(col.is_null(97 * 42));
    }

    #[test]
    fn push_grows_the_last_chunk_only() {
        let mut col = Column::empty("c", DType::Int);
        for i in 0..CHUNK_ROWS as i64 + 1 {
            col.push(Value::Int(i)).unwrap();
        }
        assert_eq!(col.chunks().len(), 2);
        assert_eq!(col.chunks()[1].len(), 1);
        assert_eq!(col.get(CHUNK_ROWS), Value::Int(CHUNK_ROWS as i64));
    }

    #[test]
    fn clone_shares_chunks_until_written() {
        let base = multi_chunk();
        let mut copy = base.clone();
        assert!(copy.shares_chunks_with(&base));
        // A write to one row un-shares exactly that chunk.
        copy.set(CHUNK_ROWS + 1, Value::Int(-1)).unwrap();
        assert!(!copy.shares_chunks_with(&base));
        assert!(Arc::ptr_eq(&base.chunks()[0], &copy.chunks()[0]));
        assert!(!Arc::ptr_eq(&base.chunks()[1], &copy.chunks()[1]));
        assert!(Arc::ptr_eq(&base.chunks()[2], &copy.chunks()[2]));
        // The base is untouched.
        assert_eq!(base.get(CHUNK_ROWS + 1), Value::Int(CHUNK_ROWS as i64 + 1));
        assert_eq!(copy.get(CHUNK_ROWS + 1), Value::Int(-1));
    }

    #[test]
    fn identical_set_does_not_unshare() {
        let base = multi_chunk();
        let mut copy = base.clone();
        copy.set(5, Value::Int(5)).unwrap(); // already holds 5
        copy.set(0, Value::Null).unwrap(); // index 0 is already NULL
        assert!(copy.shares_chunks_with(&base));
    }

    #[test]
    fn map_unshares_only_chunks_with_changes() {
        let base = multi_chunk();
        let mut copy = base.clone();
        // Change only rows in the final partial chunk.
        let cut = (2 * CHUNK_ROWS) as f64;
        let changed = copy.map_numeric_in_place(|x| if x >= cut { -x } else { x });
        assert!(changed > 0);
        assert!(Arc::ptr_eq(&base.chunks()[0], &copy.chunks()[0]));
        assert!(Arc::ptr_eq(&base.chunks()[1], &copy.chunks()[1]));
        assert!(!Arc::ptr_eq(&base.chunks()[2], &copy.chunks()[2]));
    }

    #[test]
    fn mutation_resets_cached_fingerprint() {
        let base = multi_chunk();
        let fp0 = base.chunks()[0].cached_fingerprint(|_| 0xABCD);
        assert_eq!(fp0, 0xABCD);
        let mut copy = base.clone();
        // The clone carries the cache for shared chunks...
        assert!(copy.chunks()[0].has_cached_fingerprint());
        // ...but a write invalidates it on the written chunk only.
        copy.set(0, Value::Int(123)).unwrap();
        assert!(!copy.chunks()[0].has_cached_fingerprint());
        assert!(base.chunks()[0].has_cached_fingerprint());
    }

    #[test]
    fn all_null_column_roundtrips() {
        let col = Column::from_ints("n", vec![None; CHUNK_ROWS + 3]);
        assert_eq!(col.null_count(), CHUNK_ROWS + 3);
        assert_eq!(col.f64_values(), Vec::new());
        assert_eq!(col.value_counts(), Vec::new());
        assert_eq!(col.min_max(), None);
        let mask = col.validity_mask();
        assert_eq!(mask.len(), CHUNK_ROWS + 3);
        assert_eq!(mask.count_ones(), 0);
    }

    #[test]
    fn validity_mask_concatenates_across_chunks() {
        let col = multi_chunk();
        let mask = col.validity_mask();
        assert_eq!(mask.len(), col.len());
        for i in 0..col.len() {
            assert_eq!(mask.get(i), !col.is_null(i), "row {i}");
        }
    }
}
