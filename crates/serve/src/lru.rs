//! A budgeted LRU over the fingerprint → score cache.
//!
//! Each registered system owns one [`LruScoreCache`] — its
//! server-resident cache namespace. Entries are the same `(u64
//! fingerprint, f64 score)` pairs and `(u64 intent key, u64
//! fingerprint)` intent records a [`dataprism::ScoreCache`] holds,
//! each with a recency tick; when the estimated footprint of both
//! kinds together exceeds the configured byte budget, the
//! least-recently-used entries are evicted (and counted, for the
//! `stats` op). An intent record whose score was evicted is harmless:
//! the runtime then builds that frame and scores it again.
//!
//! Recency is touched on lookup and on (re-)insertion. A diagnosis
//! run interacts with the namespace copy-in/copy-out: the server
//! snapshots the namespace into a plain `ScoreCache`
//! ([`LruScoreCache::to_score_cache`]), runs the diagnosis unlocked,
//! and absorbs the exported result back ([`LruScoreCache::absorb`])
//! — so a panicking run can never poison or half-update the
//! namespace.

use dataprism::ScoreCache;
use std::collections::{BTreeMap, HashMap};

/// Estimated bytes one cache entry costs across the two indexes
/// (key + value + tick in the map, tick + key in the recency index,
/// plus container overhead). Deliberately generous — the budget is a
/// memory-pressure bound, not an accounting exercise. Scores and
/// intent records cost the same.
pub const ENTRY_COST_BYTES: usize = 96;

/// What one recency tick points at.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A score, by fingerprint.
    Score(u64),
    /// An intent record, by intent key.
    Intent(u64),
}

/// A fingerprint → score map plus intent records, with LRU eviction
/// under one byte budget.
#[derive(Debug)]
pub struct LruScoreCache {
    /// fingerprint → (score, recency tick).
    map: HashMap<u64, (f64, u64)>,
    /// intent key → (fingerprint, recency tick).
    intents: HashMap<u64, (u64, u64)>,
    /// recency tick → entry; the first entry is the LRU victim.
    recency: BTreeMap<u64, Slot>,
    /// Next recency tick (monotonic; u64 never wraps in practice).
    tick: u64,
    /// Max entries derived from the byte budget (at least 1).
    max_entries: usize,
    /// Entries evicted over the namespace's lifetime.
    pub evictions: u64,
}

impl LruScoreCache {
    /// A cache namespace bounded by `budget_bytes` (rounded down to
    /// whole entries, minimum one).
    pub fn with_budget(budget_bytes: usize) -> LruScoreCache {
        LruScoreCache {
            map: HashMap::new(),
            intents: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            max_entries: (budget_bytes / ENTRY_COST_BYTES).max(1),
            evictions: 0,
        }
    }

    /// Number of resident entries: scores and intent records.
    pub fn len(&self) -> usize {
        self.map.len() + self.intents.len()
    }

    /// Whether the namespace holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry capacity implied by the byte budget.
    pub fn capacity(&self) -> usize {
        self.max_entries
    }

    /// Estimated resident footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.len() * ENTRY_COST_BYTES
    }

    /// A fresh recency tick for `slot`.
    fn stamp(&mut self, slot: Slot) -> u64 {
        let t = self.tick;
        self.tick += 1;
        self.recency.insert(t, slot);
        t
    }

    /// Evict least-recently-used entries until the budget holds.
    fn evict(&mut self) {
        while self.len() > self.max_entries {
            let (_, victim) = self.recency.pop_first().expect("recency tracks both maps");
            match victim {
                Slot::Score(fp) => {
                    self.map.remove(&fp);
                }
                Slot::Intent(key) => {
                    self.intents.remove(&key);
                }
            }
            self.evictions += 1;
        }
    }

    /// Insert (or refresh) one score, evicting LRU entries if the
    /// budget is exceeded.
    pub fn insert(&mut self, fp: u64, score: f64) {
        if let Some((_, old)) = self.map.get(&fp).copied() {
            self.recency.remove(&old);
        }
        let t = self.stamp(Slot::Score(fp));
        self.map.insert(fp, (score, t));
        self.evict();
    }

    /// Insert (or refresh) one intent record, evicting LRU entries if
    /// the budget is exceeded.
    pub fn insert_intent(&mut self, key: u64, fp: u64) {
        if let Some((_, old)) = self.intents.get(&key).copied() {
            self.recency.remove(&old);
        }
        let t = self.stamp(Slot::Intent(key));
        self.intents.insert(key, (fp, t));
        self.evict();
    }

    /// Look up a score, refreshing the entry's recency.
    pub fn get(&mut self, fp: u64) -> Option<f64> {
        let (score, old) = self.map.get(&fp).copied()?;
        self.recency.remove(&old);
        let t = self.stamp(Slot::Score(fp));
        self.map.insert(fp, (score, t));
        Some(score)
    }

    /// Snapshot the namespace into a plain cross-run [`ScoreCache`]
    /// (the copy a diagnosis run is seeded with).
    pub fn to_score_cache(&self) -> ScoreCache {
        let mut out = ScoreCache::new();
        for (&fp, &(score, _)) in &self.map {
            out.insert(fp, score);
        }
        for (&key, &(fp, _)) in &self.intents {
            out.insert_intent(key, fp);
        }
        out
    }

    /// Fold a run's exported [`ScoreCache`] back in, in key order
    /// (deterministic recency among the new entries), evicting under
    /// the budget as usual. Intent records go in first, so under
    /// pressure they are evicted before the scores they point at.
    /// Returns how many entries were new.
    pub fn absorb(&mut self, cache: &ScoreCache) -> usize {
        let mut intents: Vec<(u64, u64)> = cache.intents().collect();
        intents.sort_unstable();
        let mut entries: Vec<(u64, f64)> = cache.iter().collect();
        entries.sort_unstable_by_key(|&(fp, _)| fp);
        let before = self.len() + self.evictions as usize;
        for (key, fp) in intents {
            self.insert_intent(key, fp);
        }
        for (fp, score) in entries {
            self.insert(fp, score);
        }
        self.len() + self.evictions as usize - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_touch() {
        let mut lru = LruScoreCache::with_budget(ENTRY_COST_BYTES * 8);
        assert_eq!(lru.capacity(), 8);
        lru.insert(1, 0.5);
        lru.insert(2, 0.25);
        assert_eq!(lru.get(1), Some(0.5));
        assert_eq!(lru.get(3), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.footprint_bytes(), 2 * ENTRY_COST_BYTES);
    }

    #[test]
    fn evicts_least_recently_used_under_budget() {
        let mut lru = LruScoreCache::with_budget(ENTRY_COST_BYTES * 3);
        lru.insert(1, 0.1);
        lru.insert(2, 0.2);
        lru.insert(3, 0.3);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(lru.get(1), Some(0.1));
        lru.insert(4, 0.4);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.evictions, 1);
        assert_eq!(lru.get(2), None, "LRU entry evicted");
        assert_eq!(lru.get(1), Some(0.1));
        assert_eq!(lru.get(4), Some(0.4));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut lru = LruScoreCache::with_budget(ENTRY_COST_BYTES * 2);
        lru.insert(1, 0.1);
        lru.insert(2, 0.2);
        lru.insert(1, 0.9); // refresh: now 2 is the victim
        lru.insert(3, 0.3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(1), Some(0.9));
        assert_eq!(lru.get(2), None);
    }

    #[test]
    fn copy_out_copy_in_round_trip() {
        let mut lru = LruScoreCache::with_budget(ENTRY_COST_BYTES * 16);
        lru.insert(10, 0.5);
        lru.insert(20, 0.75);
        let snap = lru.to_score_cache();
        assert_eq!(snap.len(), 2);
        let mut other = LruScoreCache::with_budget(ENTRY_COST_BYTES * 16);
        assert_eq!(other.absorb(&snap), 2);
        assert_eq!(other.absorb(&snap), 0, "re-absorb adds nothing");
        assert_eq!(other.get(20), Some(0.75));
    }

    #[test]
    fn intent_records_share_the_budget_and_round_trip() {
        let mut lru = LruScoreCache::with_budget(ENTRY_COST_BYTES * 3);
        let mut run = ScoreCache::new();
        run.insert(10, 0.5);
        run.insert_intent(1, 10);
        run.insert_intent(2, 20);
        assert_eq!(lru.absorb(&run), 3);
        assert_eq!(lru.len(), 3);
        let copy = lru.to_score_cache();
        assert_eq!((copy.len(), copy.intent_count()), (1, 2));
        assert_eq!(copy.intent(2), Some(20));
        // One more score overflows the budget: the oldest entry, an
        // intent record, goes first.
        lru.insert(30, 0.25);
        assert_eq!((lru.len(), lru.evictions), (3, 1));
        let copy = lru.to_score_cache();
        assert_eq!(copy.intent(1), None);
        assert_eq!(copy.get(10), Some(0.5));
        assert_eq!(copy.intent(2), Some(20));
    }

    #[test]
    fn tiny_budget_still_holds_one_entry() {
        let mut lru = LruScoreCache::with_budget(0);
        assert_eq!(lru.capacity(), 1);
        lru.insert(1, 0.1);
        lru.insert(2, 0.2);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(2), Some(0.2));
    }
}
