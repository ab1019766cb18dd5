//! The system under diagnosis and dataset fingerprints.
//!
//! A [`System`] computes the malfunction score `m_S(D) ∈ [0, 1]`
//! (Definition 3). A [`SystemFactory`] builds independent `Send`
//! instances of it, so worker threads can score speculative candidate
//! datasets concurrently. [`fingerprint`] is the content hash that
//! keys every oracle score cache, and [`intent_key`] names the frame a
//! composition of transformations would build, without building it. The [`crate::Oracle`] that charges
//! interventions against a system lives in [`crate::runtime`].

use crate::transform::Transform;
use dp_frame::{Bitmap, Chunk, ColumnData, DataFrame, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A (possibly stateful) data-driven system with a malfunction score.
///
/// Implementations retrain models, run pipelines, etc. They must be
/// deterministic functions of the dataset for the diagnosis to be
/// meaningful (seed your models).
pub trait System {
    /// Malfunction score of the system over `df`, in `[0, 1]`
    /// (0 = functions properly).
    fn malfunction(&mut self, df: &DataFrame) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "system"
    }
}

impl<F: FnMut(&DataFrame) -> f64> System for F {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        self(df)
    }
}

/// Builds independent instances of the system under diagnosis so the
/// parallel runtime can hand one to each worker thread.
///
/// Instances must be *observationally identical*: `malfunction` must
/// return the same score for the same dataset on every instance
/// (deterministic systems satisfy this trivially). Implemented via a
/// blanket impl for any `Fn() -> S` constructor closure, so
/// `&|| MySystem::new(...)` is a ready-made factory.
pub trait SystemFactory: Sync {
    /// Build one fresh system instance.
    fn build(&self) -> Box<dyn System + Send>;

    /// Human-readable name for reports (defaults to a probe
    /// instance's name).
    fn name(&self) -> String {
        self.build().name().to_string()
    }
}

impl<S, F> SystemFactory for F
where
    S: System + Send + 'static,
    F: Fn() -> S + Sync,
{
    fn build(&self) -> Box<dyn System + Send> {
        Box::new(self())
    }
}

fn hash_valid_slots<T: Hash>(h: &mut DefaultHasher, tag: u8, values: &[T], validity: &Bitmap) {
    tag.hash(h);
    if validity.count_zeros() == 0 {
        // Fast path: no NULLs, the buffer is canonical as-is.
        values.hash(h);
        return;
    }
    // Slots masked out by the validity bitmap hold stale placeholders
    // (`Column::set(i, Null)` only clears the bit), so only valid
    // slots may contribute to the fingerprint.
    for (i, v) in values.iter().enumerate() {
        if validity.get(i) {
            v.hash(h);
        }
    }
}

/// Content hash of one storage chunk: validity words plus the typed
/// buffer (placeholders under NULL slots masked out). This is the
/// `compute` half of [`Chunk::cached_fingerprint`] — the hash policy
/// lives here with the oracle, the cache lives with the storage.
fn chunk_fingerprint(chunk: &Chunk) -> u64 {
    let mut h = DefaultHasher::new();
    // The bitmap's tail bits past `len` are canonically zero, so the
    // word slice is safe to hash directly; it distinguishes NULL
    // layouts that the value stream alone cannot.
    chunk.validity().words().hash(&mut h);
    match chunk.data() {
        ColumnData::Int(v) => hash_valid_slots(&mut h, 1, v, chunk.validity()),
        ColumnData::Bool(v) => hash_valid_slots(&mut h, 3, v, chunk.validity()),
        ColumnData::Str(v) => hash_valid_slots(&mut h, 4, v, chunk.validity()),
        ColumnData::Float(v) => {
            2u8.hash(&mut h);
            if chunk.validity().count_zeros() == 0 {
                for x in v {
                    x.to_bits().hash(&mut h);
                }
            } else {
                for (i, x) in v.iter().enumerate() {
                    if chunk.validity().get(i) {
                        x.to_bits().hash(&mut h);
                    }
                }
            }
        }
    }
    h.finish()
}

/// Content fingerprint of a dataframe, hashing the raw typed column
/// buffers and validity bitmaps directly — no per-cell [`Value`]
/// boxing or string formatting. Collisions would only merge two
/// intervention cache entries, never corrupt correctness-critical
/// state.
///
/// Per-chunk hashes are memoized on the chunks themselves
/// ([`Chunk::cached_fingerprint`]), so fingerprinting a transformed
/// frame re-hashes only the chunks the transformation actually wrote
/// — every chunk still shared with an already-fingerprinted frame is
/// a single cached `u64` read.
pub fn fingerprint(df: &DataFrame) -> u64 {
    let mut h = DefaultHasher::new();
    for col in df.columns() {
        col.name().hash(&mut h);
        col.dtype().hash(&mut h);
        col.len().hash(&mut h);
        for chunk in col.chunks() {
            chunk.cached_fingerprint(chunk_fingerprint).hash(&mut h);
        }
    }
    h.finish()
}

/// The intent key of a composition: a hash of the base frame's
/// [`fingerprint`], the content of the transformations in application
/// order ([`Transform::hash_content`]) and the seed of the RNG stream
/// the application consumes (`StdRng::seed_from_u64(seed)`).
///
/// [`crate::pvt::apply_composition`] is a pure function of exactly
/// these inputs, so two compositions with equal keys build frames with
/// equal fingerprints. The runtime maps keys to fingerprints and can
/// then score a composition it has seen before without building it.
/// Like [`fingerprint`], the key uses no randomly keyed hasher and no
/// PVT id, so it is stable across processes and can be persisted in a
/// cache snapshot.
pub fn intent_key<'t>(
    base: u64,
    transforms: impl IntoIterator<Item = &'t Transform>,
    seed: u64,
) -> u64 {
    let mut h = DefaultHasher::new();
    base.hash(&mut h);
    seed.hash(&mut h);
    let mut n = 0usize;
    for t in transforms {
        t.hash_content(&mut h);
        n += 1;
    }
    n.hash(&mut h);
    h.finish()
}

/// Original per-cell fingerprint, kept as a differential-testing
/// reference for the buffer-level [`fingerprint`]: both walk the same
/// logical content, so they must agree on equality/inequality of any
/// two frames (the hash values themselves differ).
pub fn fingerprint_reference(df: &DataFrame) -> u64 {
    let mut h = DefaultHasher::new();
    for col in df.columns() {
        col.name().hash(&mut h);
        format!("{:?}", col.dtype()).hash(&mut h);
        for i in 0..col.len() {
            match col.get(i) {
                Value::Null => 0u8.hash(&mut h),
                Value::Int(v) => {
                    1u8.hash(&mut h);
                    v.hash(&mut h);
                }
                Value::Float(v) => {
                    2u8.hash(&mut h);
                    v.to_bits().hash(&mut h);
                }
                Value::Bool(v) => {
                    3u8.hash(&mut h);
                    v.hash(&mut h);
                }
                Value::Str(v) => {
                    4u8.hash(&mut h);
                    v.hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::Column;

    fn df(vals: &[i64]) -> DataFrame {
        DataFrame::from_columns(vec![Column::from_ints(
            "x",
            vals.iter().map(|&v| Some(v)).collect(),
        )])
        .unwrap()
    }

    #[test]
    fn fingerprints_differ_on_content_and_schema() {
        let a = df(&[1, 2]);
        let b = df(&[2, 1]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let c =
            DataFrame::from_columns(vec![Column::from_ints("y", vec![Some(1), Some(2)])]).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&c), "column name matters");
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn fingerprint_masks_stale_placeholders_behind_nulls() {
        // Two frames whose only difference is the placeholder hidden
        // under a NULL slot must fingerprint identically: `set(i,
        // Null)` clears the validity bit but leaves the old buffer
        // value in place.
        let mut a = DataFrame::from_columns(vec![Column::from_ints(
            "x",
            vec![Some(10), Some(2), Some(3)],
        )])
        .unwrap();
        let mut b = DataFrame::from_columns(vec![Column::from_ints(
            "x",
            vec![Some(99), Some(2), Some(3)],
        )])
        .unwrap();
        a.column_mut("x").unwrap().set(0, Value::Null).unwrap();
        b.column_mut("x").unwrap().set(0, Value::Null).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint_reference(&a), fingerprint_reference(&b));
        // And flipping which slot is NULL must change the hash.
        let c =
            DataFrame::from_columns(vec![Column::from_ints("x", vec![Some(10), None, Some(3)])])
                .unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn factory_builds_independent_equivalent_systems() {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 100.0;
        let f: &dyn SystemFactory = &factory;
        let mut s1 = f.build();
        let mut s2 = f.build();
        let d = df(&[1, 2, 3]);
        assert_eq!(s1.malfunction(&d), s2.malfunction(&d));
    }
}
