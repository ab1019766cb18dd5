//! Algorithm 4 (appendix A) — local-search minimum bisection of the
//! PVT-dependency graph.
//!
//! Group testing wants both partitions to keep dependent PVTs (those
//! sharing attributes) together, so that discarding a useless
//! partition prunes whole attribute neighborhoods at once. Minimum
//! bisection is NP-hard; the paper uses the classic local-search
//! heuristic: start from a random balanced split, then swap PVT pairs
//! across the cut while the number of cut edges decreases.
//!
//! The search keeps each item's external-minus-internal edge count
//! (Kernighan–Lin's `D`), so scoring a tried swap costs O(1) and an
//! accepted swap O(n) to update, after one O(n² + |E| log n) setup.
//! It tries swaps in the same order and accepts exactly the swaps a
//! full cut recount would, so its splits are those of the textbook
//! rescan.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Derive the seed of one of the documented per-node RNG streams of
/// the group-testing recursion: a SplitMix64-style mix of the run
/// seed ([`crate::PrismConfig::seed`]), a stream tag, and the
/// canonical (sorted) id set identifying the node. The mix is fully
/// specified here — no `std` hasher — so derived streams are stable
/// across runs, platforms, and toolchains.
///
/// Making every partition and every composed application a *pure
/// function* of `(seed, ids)` — instead of consuming one global
/// sequential stream — is what lets the parallel runtime speculate
/// arbitrary descendants of the recursion tree: any future node's
/// candidate frame can be materialized on a worker thread without
/// replaying the serial history, and the serial replay derives the
/// exact same stream when it arrives. It also makes `GrpTest`
/// baseline partitions reproducible across thread counts and
/// intervention histories.
pub fn stream_seed(seed: u64, tag: u64, ids: &[usize]) -> u64 {
    let mut acc = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &id in ids {
        let mut z = acc
            .wrapping_add(id as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = z ^ (z >> 31);
    }
    acc
}

/// Stream tag for partitioning draws (bisection shuffles and local
/// search) — see [`stream_seed`].
pub const PARTITION_STREAM: u64 = 0x50_41_52_54; // "PART"

/// Stream tag for transformation-application draws (composed
/// transforms consuming randomness) — see [`stream_seed`].
pub const APPLY_STREAM: u64 = 0x41_50_50_4C; // "APPL"

/// The RNG for partitioning the candidate set `ids`: seeded from the
/// documented [`PARTITION_STREAM`] over the canonicalized id set, so
/// the same candidates always partition the same way for a given run
/// seed — regardless of thread count, speculation depth, or how many
/// interventions preceded the call.
pub fn partition_rng(seed: u64, ids: &[usize]) -> StdRng {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    StdRng::seed_from_u64(stream_seed(seed, PARTITION_STREAM, &sorted))
}

/// Partition `items` into two halves whose sizes differ by at most
/// one, minimizing (locally) the number of `edges` crossing the cut.
///
/// `items` must be distinct ids (checked in debug builds): each id is
/// indexed to one matrix row. `edges` are unordered pairs of ids and
/// count with multiplicity; self-loops and edges with an endpoint
/// outside `items` never cross the cut and are dropped. Items
/// appearing in no edge are free movers the search places wherever
/// balance requires.
pub fn min_bisection(
    items: &[usize],
    edges: &[(usize, usize)],
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>) {
    let n = items.len();
    if n <= 1 {
        return (items.to_vec(), Vec::new());
    }
    // Dense index: position k in `items` is matrix row k.
    let mut by_id: Vec<(usize, usize)> = items.iter().copied().zip(0..).collect();
    by_id.sort_unstable();
    debug_assert!(
        by_id.windows(2).all(|p| p[0].0 != p[1].0),
        "min_bisection needs distinct items"
    );
    let index = |id: usize| {
        by_id
            .binary_search_by_key(&id, |&(v, _)| v)
            .ok()
            .map(|k| by_id[k].1)
    };
    let mut weights = vec![0u32; n * n];
    for &(a, b) in edges {
        if let (Some(x), Some(y)) = (index(a), index(b)) {
            if x != y {
                weights[x * n + y] += 1;
                weights[y * n + x] += 1;
            }
        }
    }
    let w = |x: usize, y: usize| i64::from(weights[x * n + y]);

    // Line 1: random balanced initialization. Shuffling positions
    // draws the same permutation as shuffling the ids themselves.
    let mut shuffled: Vec<usize> = (0..n).collect();
    shuffled.shuffle(rng);
    let half = n.div_ceil(2);
    let mut left: Vec<usize> = shuffled[..half].to_vec();
    let mut right: Vec<usize> = shuffled[half..].to_vec();
    let mut in_left = vec![false; n];
    for &x in &left {
        in_left[x] = true;
    }
    // d[x]: external minus internal edge count of x.
    let mut d: Vec<i64> = (0..n)
        .map(|x| {
            (0..n)
                .map(|y| {
                    if in_left[x] == in_left[y] {
                        -w(x, y)
                    } else {
                        w(x, y)
                    }
                })
                .sum()
        })
        .collect();

    // Lines 2–14: swap pairs while the cut shrinks, rescanning from the
    // first pair after each swap. Swapping a ∈ left with b ∈ right
    // shrinks the cut by d[a] + d[b] − 2·w(a, b).
    loop {
        let improving = (0..left.len())
            .flat_map(|i| (0..right.len()).map(move |j| (i, j)))
            .find(|&(i, j)| d[left[i]] + d[right[j]] - 2 * w(left[i], right[j]) > 0);
        let Some((i, j)) = improving else { break };
        let (a, b) = (left[i], right[j]);
        std::mem::swap(&mut left[i], &mut right[j]);
        for x in (0..n).filter(|&x| x != a && x != b) {
            let shift = 2 * (w(x, a) - w(x, b));
            d[x] += if in_left[x] { shift } else { -shift };
        }
        d[a] = 2 * w(a, b) - d[a];
        d[b] = 2 * w(a, b) - d[b];
        in_left[a] = false;
        in_left[b] = true;
    }
    let ids = |half: &[usize]| half.iter().map(|&k| items[k]).collect();
    (ids(&left), ids(&right))
}

/// Random balanced bisection — the partitioning used by the `GrpTest`
/// baseline (traditional adaptive group testing, \[21\]).
pub fn random_bisection(items: &[usize], rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let mut shuffled = items.to_vec();
    shuffled.shuffle(rng);
    let half = shuffled.len().div_ceil(2);
    let right = shuffled.split_off(half);
    (shuffled, right)
}

/// Number of dependency edges crossing a bisection — the objective
/// [`min_bisection`] minimizes, re-derived from the graph's edge
/// predicate. Quadratic in the half sizes; used to annotate
/// [`dp_trace::Event::BisectionPartition`] events, so it only runs
/// when a trace sink is attached.
pub fn cut_size(
    left: &[usize],
    right: &[usize],
    dependent: impl Fn(usize, usize) -> bool,
) -> usize {
    left.iter()
        .map(|&i| right.iter().filter(|&&j| dependent(i, j)).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn cut_size(l: &[usize], r: &[usize], edges: &[(usize, usize)]) -> usize {
        let ls: BTreeSet<usize> = l.iter().copied().collect();
        let rs: BTreeSet<usize> = r.iter().copied().collect();
        edges
            .iter()
            .filter(|(a, b)| {
                (ls.contains(a) && rs.contains(b)) || (rs.contains(a) && ls.contains(b))
            })
            .count()
    }

    #[test]
    fn perfect_split_of_two_cliques() {
        // Two 4-cliques with no inter-clique edges: the optimum cut
        // is 0, and local search must find it.
        let items: Vec<usize> = (0..8).collect();
        let mut edges = Vec::new();
        for group in [[0, 1, 2, 3], [4, 5, 6, 7]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((group[i], group[j]));
                }
            }
        }
        let mut r = rng();
        let (l, rp) = min_bisection(&items, &edges, &mut r);
        assert_eq!(l.len(), 4);
        assert_eq!(rp.len(), 4);
        assert_eq!(cut_size(&l, &rp, &edges), 0, "{l:?} | {rp:?}");
    }

    #[test]
    fn paper_fig6_pair_structure() {
        // Fig 6(a): pairs (X1,X4), (X2,X3), (X5,X7), (X6,X8) are
        // dependent. Min bisection must never split a pair.
        let items: Vec<usize> = (1..=8).collect();
        let edges = vec![(1, 4), (2, 3), (5, 7), (6, 8)];
        let mut r = rng();
        let (l, rp) = min_bisection(&items, &edges, &mut r);
        assert_eq!(cut_size(&l, &rp, &edges), 0);
        for (a, b) in &edges {
            let same = (l.contains(a) && l.contains(b)) || (rp.contains(a) && rp.contains(b));
            assert!(same, "pair ({a},{b}) split across {l:?} | {rp:?}");
        }
    }

    #[test]
    fn balanced_sizes_odd_count() {
        let items: Vec<usize> = (0..7).collect();
        let mut r = rng();
        let (l, rp) = min_bisection(&items, &[], &mut r);
        assert_eq!(l.len(), 4);
        assert_eq!(rp.len(), 3);
        let mut all: Vec<usize> = l.iter().chain(rp.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn random_bisection_is_balanced_partition() {
        let items: Vec<usize> = (0..9).collect();
        let mut r = rng();
        let (l, rp) = random_bisection(&items, &mut r);
        assert_eq!(l.len(), 5);
        assert_eq!(rp.len(), 4);
        let mut all: Vec<usize> = l.iter().chain(rp.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn degenerate_inputs() {
        let mut r = rng();
        let (l, rp) = min_bisection(&[], &[], &mut r);
        assert!(l.is_empty() && rp.is_empty());
        let (l, rp) = min_bisection(&[42], &[], &mut r);
        assert_eq!(l, vec![42]);
        assert!(rp.is_empty());
    }
}
