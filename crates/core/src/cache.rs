//! The cross-run oracle score cache.
//!
//! A [`ScoreCache`] is a plain content-fingerprint → malfunction-score
//! map, decoupled from any single run: the serving story
//! (`dp_serve`) keeps one per registered system and threads it
//! through consecutive diagnoses, so a second diagnosis of the same
//! system never re-pays the first one's system evaluations.
//!
//! Three ways entries get in:
//!
//! 1. **Export after a run** — [`crate::Oracle::export_cache`] hands
//!    back everything the run scored (charged *and* speculative).
//! 2. **Trace replay** — every charged query of a traced run is an
//!    [`OracleQuerySpan`] carrying fingerprint and score in exact
//!    encodings, so [`ScoreCache::warm_from_jsonl`] bootstraps the
//!    cache bit-for-bit from a prior run's `--trace` output.
//! 3. **Snapshot load** — [`ScoreCache::from_snapshot`] reads the
//!    text format [`ScoreCache::to_snapshot`] writes (`dp_serve`
//!    flushes these on graceful shutdown).
//!
//! Scores are cached *as the system returned them* (post-sanitize);
//! because systems are deterministic functions of the dataset, a
//! warm hit returns the identical `f64` bit pattern a cold
//! evaluation would have produced — which is what makes cache-warm
//! diagnoses bit-identical to cold ones (`tests/serve_conformance.rs`).
//!
//! The container itself stores any bit pattern, so a snapshot
//! round-trips exactly. The runtime is what refuses a score outside
//! `[0, 1]`: [`crate::Oracle::with_warm_cache`] skips such an entry
//! and scores its frame cold.

use dp_trace::{replay_oracle_queries, OracleQuerySpan, ParseError};
use std::collections::HashMap;
use std::fmt;

/// Magic first line of the snapshot text format.
const SNAPSHOT_HEADER: &str = "dp-score-cache v1";

/// A malformed cache snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// 1-based line number of the offending snapshot line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// A reusable fingerprint → score cache that outlives single runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreCache {
    entries: HashMap<u64, f64>,
}

impl ScoreCache {
    /// An empty cache.
    pub fn new() -> ScoreCache {
        ScoreCache::default()
    }

    /// Number of cached scores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no scores.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert one fingerprint → score entry (last write wins).
    pub fn insert(&mut self, fingerprint: u64, score: f64) {
        self.entries.insert(fingerprint, score);
    }

    /// Look up a cached score.
    pub fn get(&self, fingerprint: u64) -> Option<f64> {
        self.entries.get(&fingerprint).copied()
    }

    /// Iterate over `(fingerprint, score)` entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.entries.iter().map(|(&fp, &s)| (fp, s))
    }

    /// Fold another cache's entries in (theirs win on collision —
    /// scores for the same fingerprint are identical anyway for a
    /// deterministic system). Returns how many entries were new.
    pub fn absorb(&mut self, other: &ScoreCache) -> usize {
        let before = self.entries.len();
        for (&fp, &score) in &other.entries {
            self.entries.insert(fp, score);
        }
        self.entries.len() - before
    }

    /// Absorb the fingerprint/score pairs of recorded oracle-query
    /// spans (baselines included — their scores are just as
    /// reusable). Returns how many entries were new.
    pub fn absorb_spans<'a, I>(&mut self, spans: I) -> usize
    where
        I: IntoIterator<Item = &'a OracleQuerySpan>,
    {
        let before = self.entries.len();
        for span in spans {
            // A NaN score can only come from a hand-edited stream
            // (the oracle sanitizes); refuse to cache it rather than
            // poison the `m ≤ τ` checks of a warm run.
            if !span.score.is_nan() {
                self.entries.insert(span.fingerprint, span.score);
            }
        }
        self.entries.len() - before
    }

    /// Bootstrap from a prior run's JSONL trace stream (the
    /// `--trace` output): every recorded oracle query becomes a
    /// cache entry, bit-for-bit. Returns how many entries were new;
    /// fails on malformed input or a schema version this build does
    /// not write (see [`dp_trace::replay_oracle_queries`]).
    pub fn warm_from_jsonl(&mut self, input: &str) -> Result<usize, ParseError> {
        let replay = replay_oracle_queries(input)?;
        Ok(self.absorb_spans(&replay.queries))
    }

    /// Serialize to the versioned snapshot text format: a header
    /// line, then one `fingerprint score_bits` pair per line, both
    /// as raw decimal digit strings (the score is `f64::to_bits`),
    /// sorted by fingerprint so equal caches serialize identically.
    /// Exact for every bit pattern, NaN payloads included.
    pub fn to_snapshot(&self) -> String {
        let mut fps: Vec<u64> = self.entries.keys().copied().collect();
        fps.sort_unstable();
        let mut out = String::with_capacity(24 + fps.len() * 44);
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        for fp in fps {
            let score = self.entries[&fp];
            out.push_str(&fp.to_string());
            out.push(' ');
            out.push_str(&score.to_bits().to_string());
            out.push('\n');
        }
        out
    }

    /// Parse a snapshot produced by [`ScoreCache::to_snapshot`].
    pub fn from_snapshot(input: &str) -> Result<ScoreCache, SnapshotError> {
        let mut lines = input.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == SNAPSHOT_HEADER => {}
            Some((_, header)) => {
                return Err(SnapshotError {
                    line: 1,
                    message: format!(
                        "unsupported snapshot header '{}' (this reader reads '{SNAPSHOT_HEADER}')",
                        header.trim()
                    ),
                })
            }
            None => {
                return Err(SnapshotError {
                    line: 1,
                    message: "empty snapshot (missing header)".into(),
                })
            }
        }
        let mut cache = ScoreCache::new();
        for (i, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| SnapshotError {
                line: i + 1,
                message,
            };
            let mut parts = line.split_ascii_whitespace();
            let fp = parts
                .next()
                .ok_or_else(|| err("missing fingerprint".into()))?
                .parse::<u64>()
                .map_err(|_| err(format!("bad fingerprint in '{line}'")))?;
            let bits = parts
                .next()
                .ok_or_else(|| err(format!("missing score bits in '{line}'")))?
                .parse::<u64>()
                .map_err(|_| err(format!("bad score bits in '{line}'")))?;
            if parts.next().is_some() {
                return Err(err(format!("trailing data in '{line}'")));
            }
            cache.entries.insert(fp, f64::from_bits(bits));
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_trace::QueryKind;

    fn span(fp: u64, score: f64) -> OracleQuerySpan {
        OracleQuerySpan {
            kind: QueryKind::Intervention,
            fingerprint: fp,
            score,
            cached: false,
            speculative_hit: false,
            latency_ns: Some(1),
        }
    }

    #[test]
    fn insert_get_absorb() {
        let mut a = ScoreCache::new();
        assert!(a.is_empty());
        a.insert(1, 0.5);
        a.insert(2, 0.25);
        let mut b = ScoreCache::new();
        b.insert(2, 0.25);
        b.insert(3, 0.75);
        assert_eq!(a.absorb(&b), 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(3), Some(0.75));
        assert_eq!(a.get(9), None);
    }

    #[test]
    fn spans_are_absorbed_but_nan_is_refused() {
        let mut c = ScoreCache::new();
        let n = c.absorb_spans(&[span(1, 0.5), span(2, f64::NAN), span(1, 0.5)]);
        assert_eq!(n, 1);
        assert_eq!(c.get(2), None, "NaN scores never enter the cache");
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut c = ScoreCache::new();
        c.insert(u64::MAX, 1.0);
        c.insert(0, 0.1 + 0.2); // not shortest-decimal representable
        c.insert(0xFEDC_BA98_7654_3210, f64::MIN_POSITIVE);
        let text = c.to_snapshot();
        let back = ScoreCache::from_snapshot(&text).unwrap();
        assert_eq!(back.len(), 3);
        for (fp, score) in c.iter() {
            assert_eq!(back.get(fp).unwrap().to_bits(), score.to_bits());
        }
        // Deterministic serialization: same entries, same bytes.
        assert_eq!(text, back.to_snapshot());
    }

    #[test]
    fn snapshot_rejects_bad_input() {
        assert!(ScoreCache::from_snapshot("").is_err());
        assert!(ScoreCache::from_snapshot("dp-score-cache v2\n").is_err());
        let err =
            ScoreCache::from_snapshot("dp-score-cache v1\n1 2 3\n").expect_err("trailing data");
        assert_eq!(err.line, 2);
        assert!(ScoreCache::from_snapshot("dp-score-cache v1\nnope 1\n").is_err());
        assert!(ScoreCache::from_snapshot("dp-score-cache v1\n1 -0.5\n").is_err());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let c = ScoreCache::new();
        let back = ScoreCache::from_snapshot(&c.to_snapshot()).unwrap();
        assert!(back.is_empty());
    }
}
