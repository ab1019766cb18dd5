//! Property-based tests (proptest) for the bisection primitives
//! behind group testing — `min_bisection`, `random_bisection`, and
//! the derived per-node RNG streams:
//!
//! - both bisections return a true partition (disjoint, covering);
//! - halves are balanced within one element;
//! - a fixed seed reproduces the split exactly;
//! - local-search min-bisection never cuts more edges than the random
//!   balanced split it starts from;
//! - derived streams canonicalize the candidate id order, so the same
//!   candidate *set* always draws the same randomness;
//! - the incremental-gain local search returns exactly the split of
//!   the full-rescan reference it replaced, up to the local-search
//!   limit of 64 candidates and complete graphs.

use dataprism::bisection::{
    min_bisection, partition_rng, random_bisection, stream_seed, APPLY_STREAM, PARTITION_STREAM,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn cut_size(l: &[usize], r: &[usize], edges: &[(usize, usize)]) -> usize {
    let ls: BTreeSet<usize> = l.iter().copied().collect();
    let rs: BTreeSet<usize> = r.iter().copied().collect();
    edges
        .iter()
        .filter(|(a, b)| (ls.contains(a) && rs.contains(b)) || (rs.contains(a) && ls.contains(b)))
        .count()
}

fn assert_balanced_partition(
    items: &[usize],
    l: &[usize],
    r: &[usize],
) -> Result<(), proptest::TestCaseError> {
    let mut all: Vec<usize> = l.iter().chain(r.iter()).copied().collect();
    all.sort_unstable();
    let mut expect = items.to_vec();
    expect.sort_unstable();
    prop_assert_eq!(all, expect, "halves must partition the items exactly");
    prop_assert!(
        l.len().abs_diff(r.len()) <= 1,
        "halves must balance within one element ({} vs {})",
        l.len(),
        r.len()
    );
    Ok(())
}

/// The textbook local-search min-bisection: recount the whole cut with
/// two `BTreeSet`s for every tried swap. `min_bisection` must match it
/// split for split.
fn reference_min_bisection(
    items: &[usize],
    edges: &[(usize, usize)],
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>) {
    let n = items.len();
    if n <= 1 {
        return (items.to_vec(), Vec::new());
    }
    // Line 1: random balanced initialization.
    let mut shuffled = items.to_vec();
    shuffled.shuffle(rng);
    let half = n.div_ceil(2);
    let mut left: Vec<usize> = shuffled[..half].to_vec();
    let mut right: Vec<usize> = shuffled[half..].to_vec();

    let cut = |l: &[usize], r: &[usize]| -> usize {
        let ls: BTreeSet<usize> = l.iter().copied().collect();
        let rs: BTreeSet<usize> = r.iter().copied().collect();
        edges
            .iter()
            .filter(|(a, b)| {
                (ls.contains(a) && rs.contains(b)) || (rs.contains(a) && ls.contains(b))
            })
            .count()
    };

    // Lines 2–14: swap pairs while the cut shrinks.
    let mut current = cut(&left, &right);
    loop {
        let mut improved = false;
        'search: for i in 0..left.len() {
            for j in 0..right.len() {
                std::mem::swap(&mut left[i], &mut right[j]);
                let candidate = cut(&left, &right);
                if candidate < current {
                    current = candidate;
                    improved = true;
                    break 'search;
                }
                std::mem::swap(&mut left[i], &mut right[j]);
            }
        }
        if !improved {
            break;
        }
    }
    (left, right)
}

/// `n` distinct non-contiguous ids in shuffled order, with each pair
/// joined by an edge with probability `density`%. Endpoints come in
/// either orientation; some edges repeat, some are self-loops, and
/// some name ids outside the item set.
fn noisy_graph(n: usize, density: u32, seed: u64) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items: Vec<usize> = (0..n).map(|i| i * 3 + 7).collect();
    items.shuffle(&mut rng);
    let mut edges = Vec::new();
    for (k, &a) in items.iter().enumerate() {
        for &b in &items[k + 1..] {
            if rng.gen_range(0..100) < density {
                let edge = if rng.gen::<bool>() { (a, b) } else { (b, a) };
                edges.push(edge);
                if rng.gen_range(0..8) == 0 {
                    edges.push(edge);
                }
            }
        }
    }
    for _ in 0..rng.gen_range(1..4) {
        let a = items[rng.gen_range(0..n)];
        edges.push((a, a));
        // Ids ≡ 2 (mod 3) are never items.
        edges.push((a, rng.gen_range(0..64) * 3 + 8));
    }
    edges.shuffle(&mut rng);
    (items, edges)
}

/// Graphs of 2 to 64 items (the group-testing local-search limit) at
/// any density up to complete. Sizes lean small because the reference
/// costs seconds per dense 64-item graph in a debug build;
/// [`min_bisection_matches_the_reference_at_the_local_search_limit`]
/// pins n = 64 itself.
fn dense_graph() -> impl Strategy<Value = (Vec<usize>, Vec<(usize, usize)>)> {
    let n = prop_oneof![5 => 2usize..25, 1 => 25usize..65];
    (n, 0u32..101, 0u64..u64::MAX).prop_map(|(n, density, seed)| noisy_graph(n, density, seed))
}

#[test]
fn min_bisection_matches_the_reference_at_the_local_search_limit() {
    for (density, seed) in [(10, 1), (30, 2), (100, 3)] {
        let (items, edges) = noisy_graph(64, density, seed);
        assert_eq!(
            min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed)),
            reference_min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed)),
            "density {density}%"
        );
    }
}

/// Item sets with non-contiguous ids (so id value ≠ index) plus a
/// random dependency-edge set over them.
fn graph() -> impl Strategy<Value = (Vec<usize>, Vec<(usize, usize)>)> {
    (2usize..24)
        .prop_flat_map(|n| {
            (
                Just((0..n).map(|i| i * 3 + 7).collect::<Vec<usize>>()),
                prop::collection::vec((0usize..n, 0usize..n), 0..40),
            )
        })
        .prop_map(|(items, index_pairs)| {
            let edges: Vec<(usize, usize)> = index_pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (items[a], items[b]))
                .collect();
            (items, edges)
        })
}

proptest! {
    #[test]
    fn min_bisection_matches_the_full_rescan_reference(
        graph in dense_graph(),
        seed in 0u64..1_000,
    ) {
        let (items, edges) = graph;
        let fast = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        let reference = reference_min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(fast, reference);
    }

    #[test]
    fn bisections_return_balanced_exact_partitions(
        graph in graph(),
        seed in 0u64..1_000,
    ) {
        let (items, edges) = graph;
        let (l, r) = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        assert_balanced_partition(&items, &l, &r)?;
        let (l, r) = random_bisection(&items, &mut StdRng::seed_from_u64(seed));
        assert_balanced_partition(&items, &l, &r)?;
    }

    #[test]
    fn fixed_seed_reproduces_the_split(
        graph in graph(),
        seed in 0u64..1_000,
    ) {
        let (items, edges) = graph;
        let a = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        let b = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b, "min_bisection must be deterministic for a fixed seed");
        let a = random_bisection(&items, &mut StdRng::seed_from_u64(seed));
        let b = random_bisection(&items, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b, "random_bisection must be deterministic for a fixed seed");
    }

    #[test]
    fn local_search_never_cuts_more_than_the_random_split(
        graph in graph(),
        seed in 0u64..1_000,
    ) {
        let (items, edges) = graph;
        // Seeded identically, min_bisection starts from exactly the
        // split random_bisection returns and only ever improves it.
        let (ml, mr) = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        let (rl, rr) = random_bisection(&items, &mut StdRng::seed_from_u64(seed));
        prop_assert!(
            cut_size(&ml, &mr, &edges) <= cut_size(&rl, &rr, &edges),
            "local search returned a worse cut than its starting split"
        );
    }

    #[test]
    fn derived_streams_canonicalize_id_order(
        graph in graph(),
        seed in 0u64..1_000,
        rotation in 0usize..24,
    ) {
        let (items, _) = graph;
        // The partition stream is a function of the candidate *set*:
        // any permutation of the ids draws identical randomness.
        let mut permuted = items.clone();
        permuted.reverse();
        let rot = rotation % permuted.len();
        permuted.rotate_left(rot);
        let a: u64 = partition_rng(seed, &items).gen();
        let b: u64 = partition_rng(seed, &permuted).gen();
        prop_assert_eq!(a, b);
        // Distinct stream tags decorrelate: the partition draw for a
        // node never reuses the application draw of the same node.
        let mut sorted = items.clone();
        sorted.sort_unstable();
        prop_assert!(
            stream_seed(seed, PARTITION_STREAM, &sorted)
                != stream_seed(seed, APPLY_STREAM, &sorted)
        );
        // And the stream depends on the id set, not just the seed.
        let mut grown = sorted.clone();
        grown.push(sorted.last().unwrap() + 1);
        prop_assert!(
            stream_seed(seed, PARTITION_STREAM, &sorted)
                != stream_seed(seed, PARTITION_STREAM, &grown)
        );
    }
}
