//! Random row sampling.
//!
//! Interventions on Selectivity profiles (Fig 1 row 6) undersample
//! tuples satisfying a predicate, and the paper's example scenario
//! oversamples the underrepresented group; both need reproducible
//! random index selection.

use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use rand::seq::SliceRandom;
use rand::Rng;

/// Sample `n` row indices without replacement from `0..len`.
/// Errors if `n > len`.
pub fn sample_indices_without_replacement<R: Rng>(
    rng: &mut R,
    len: usize,
    n: usize,
) -> Result<Vec<usize>> {
    if n > len {
        return Err(FrameError::InvalidArgument(format!(
            "cannot sample {n} rows without replacement from {len}"
        )));
    }
    let mut idx: Vec<usize> = (0..len).collect();
    idx.shuffle(rng);
    idx.truncate(n);
    idx.sort_unstable();
    Ok(idx)
}

/// Sample `n` row indices with replacement from `0..len`.
/// Errors if `len == 0` and `n > 0`.
pub fn sample_indices_with_replacement<R: Rng>(
    rng: &mut R,
    len: usize,
    n: usize,
) -> Result<Vec<usize>> {
    if len == 0 && n > 0 {
        return Err(FrameError::InvalidArgument(
            "cannot sample with replacement from an empty frame".into(),
        ));
    }
    Ok((0..n).map(|_| rng.gen_range(0..len)).collect())
}

/// A uniform random subset of `n` rows of `df`, without replacement.
pub fn sample_rows<R: Rng>(rng: &mut R, df: &DataFrame, n: usize) -> Result<DataFrame> {
    let idx = sample_indices_without_replacement(rng, df.n_rows(), n)?;
    df.take(&idx)
}

/// Bootstrap sample: `n` rows with replacement.
pub fn bootstrap_rows<R: Rng>(rng: &mut R, df: &DataFrame, n: usize) -> Result<DataFrame> {
    let idx = sample_indices_with_replacement(rng, df.n_rows(), n)?;
    df.take(&idx)
}

/// Split `df` into (train, test) by shuffling rows and cutting at
/// `train_fraction`. Errors on fractions outside `(0, 1)`.
pub fn train_test_split<R: Rng>(
    rng: &mut R,
    df: &DataFrame,
    train_fraction: f64,
) -> Result<(DataFrame, DataFrame)> {
    if !(train_fraction > 0.0 && train_fraction < 1.0) {
        return Err(FrameError::InvalidArgument(format!(
            "train_fraction must be in (0,1), got {train_fraction}"
        )));
    }
    let mut idx: Vec<usize> = (0..df.n_rows()).collect();
    idx.shuffle(rng);
    let cut = ((df.n_rows() as f64) * train_fraction).round() as usize;
    let cut = cut.clamp(1, df.n_rows().saturating_sub(1).max(1));
    let (train_idx, test_idx) = idx.split_at(cut.min(idx.len()));
    Ok((df.take(train_idx)?, df.take(test_idx)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn df(n: usize) -> DataFrame {
        DataFrame::from_columns(vec![Column::from_ints(
            "id",
            (0..n as i64).map(Some).collect(),
        )])
        .unwrap()
    }

    #[test]
    fn without_replacement_is_a_subset() {
        let mut rng = StdRng::seed_from_u64(7);
        let idx = sample_indices_without_replacement(&mut rng, 100, 30).unwrap();
        assert_eq!(idx.len(), 30);
        let mut dedup = idx.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 30, "no repeats");
        assert!(idx.iter().all(|&i| i < 100));
        assert!(sample_indices_without_replacement(&mut rng, 5, 6).is_err());
    }

    #[test]
    fn with_replacement_allows_repeats() {
        let mut rng = StdRng::seed_from_u64(7);
        let idx = sample_indices_with_replacement(&mut rng, 3, 50).unwrap();
        assert_eq!(idx.len(), 50);
        assert!(idx.iter().all(|&i| i < 3));
        assert!(sample_indices_with_replacement(&mut rng, 0, 1).is_err());
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let d = df(100);
        let a = sample_rows(&mut StdRng::seed_from_u64(42), &d, 10).unwrap();
        let b = sample_rows(&mut StdRng::seed_from_u64(42), &d, 10).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn split_partitions_all_rows() {
        let d = df(50);
        let (train, test) = train_test_split(&mut StdRng::seed_from_u64(1), &d, 0.8).unwrap();
        assert_eq!(train.n_rows() + test.n_rows(), 50);
        assert_eq!(train.n_rows(), 40);
        assert!(train_test_split(&mut StdRng::seed_from_u64(1), &d, 1.5).is_err());
    }

    #[test]
    fn bootstrap_has_requested_size() {
        let d = df(10);
        let b = bootstrap_rows(&mut StdRng::seed_from_u64(3), &d, 25).unwrap();
        assert_eq!(b.n_rows(), 25);
    }
}
