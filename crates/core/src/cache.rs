//! The cross-run oracle score cache.
//!
//! A [`ScoreCache`] is a plain content-fingerprint → malfunction-score
//! map, decoupled from any single run: the serving story
//! (`dp_serve`) keeps one per registered system and threads it
//! through consecutive diagnoses, so a second diagnosis of the same
//! system never re-pays the first one's system evaluations.
//!
//! Next to the scores it keeps **intent records**: intent key →
//! fingerprint pairs ([`crate::oracle::intent_key`]). A composition's
//! intent key names the frame it builds, so a warm run that finds the
//! key can score the composition straight from the cache without
//! building the frame at all.
//!
//! Three ways entries get in:
//!
//! 1. **Export after a run** — [`crate::Oracle::export_cache`] hands
//!    back everything the run scored (charged *and* speculative) and
//!    every intent it resolved.
//! 2. **Trace replay** — every charged query of a traced run is an
//!    [`OracleQuerySpan`] carrying fingerprint and score in exact
//!    encodings, so [`ScoreCache::warm_from_jsonl`] bootstraps the
//!    scores bit-for-bit from a prior run's `--trace` output. Spans
//!    carry no intents: a trace-warmed run still builds its frames.
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

/// Magic first line of a snapshot with scores only. Every reader
/// loads it, so a cache without intent records is still written this
/// way.
const SNAPSHOT_V1: &str = "dp-score-cache v1";
/// Magic first line of a snapshot that also carries intent records.
const SNAPSHOT_V2: &str = "dp-score-cache v2";
/// First field of an intent record line (v2 only).
const INTENT_TAG: &str = "intent";

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

/// A reusable fingerprint → score cache that outlives single runs,
/// with the intent key → fingerprint records of the compositions
/// whose frames it scored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreCache {
    entries: HashMap<u64, f64>,
    intents: HashMap<u64, u64>,
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

    /// Record that the composition with intent key `intent` builds the
    /// frame with fingerprint `fingerprint` (last write wins).
    pub fn insert_intent(&mut self, intent: u64, fingerprint: u64) {
        self.intents.insert(intent, fingerprint);
    }

    /// The fingerprint of the frame intent key `intent` builds, if
    /// recorded.
    pub fn intent(&self, intent: u64) -> Option<u64> {
        self.intents.get(&intent).copied()
    }

    /// Number of intent records.
    pub fn intent_count(&self) -> usize {
        self.intents.len()
    }

    /// Iterate over `(intent key, fingerprint)` records (arbitrary
    /// order).
    pub fn intents(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.intents.iter().map(|(&key, &fp)| (key, fp))
    }

    /// Fold another cache's scores and intent records in (theirs win
    /// on collision — both are pure functions of the key for a
    /// deterministic system). Returns how many scores and records were
    /// new.
    pub fn absorb(&mut self, other: &ScoreCache) -> usize {
        let before = self.entries.len() + self.intents.len();
        for (&fp, &score) in &other.entries {
            self.entries.insert(fp, score);
        }
        for (&key, &fp) in &other.intents {
            self.intents.insert(key, fp);
        }
        self.entries.len() + self.intents.len() - before
    }

    /// Absorb the fingerprint/score pairs of recorded oracle-query
    /// spans (baselines included — their scores are just as
    /// reusable). Returns how many new entries were stored.
    ///
    /// A score outside `[0, 1]` (NaN included) can only come from a
    /// hand-edited stream — the oracle clamps every score it computes
    /// — so it is skipped, exactly as
    /// [`crate::Oracle::with_warm_cache`] would skip it as a seed.
    pub fn absorb_spans<'a, I>(&mut self, spans: I) -> usize
    where
        I: IntoIterator<Item = &'a OracleQuerySpan>,
    {
        let before = self.entries.len();
        for span in spans {
            if (0.0..=1.0).contains(&span.score) {
                self.entries.insert(span.fingerprint, span.score);
            }
        }
        self.entries.len() - before
    }

    /// Bootstrap from a prior run's JSONL trace stream (the
    /// `--trace` output): every recorded oracle query with a score in
    /// `[0, 1]` becomes a cache entry, bit-for-bit (see
    /// [`ScoreCache::absorb_spans`]). Returns how many new entries
    /// were stored;
    /// fails on malformed input or a schema version this build does
    /// not write (see [`dp_trace::replay_oracle_queries`]).
    pub fn warm_from_jsonl(&mut self, input: &str) -> Result<usize, ParseError> {
        let replay = replay_oracle_queries(input)?;
        Ok(self.absorb_spans(&replay.queries))
    }

    /// Serialize to the versioned snapshot text format: a header
    /// line, then one `fingerprint score_bits` pair per line, both as
    /// raw decimal digit strings (the score is `f64::to_bits`), sorted
    /// by fingerprint, then one `intent key fingerprint` record per
    /// line, sorted by key. Equal caches serialize identically, and
    /// the encoding is exact for every bit pattern, NaN payloads
    /// included. The header is `dp-score-cache v2` when there are
    /// intent records and `dp-score-cache v1` otherwise, so a
    /// scores-only snapshot stays readable by v1 readers.
    pub fn to_snapshot(&self) -> String {
        let mut fps: Vec<u64> = self.entries.keys().copied().collect();
        fps.sort_unstable();
        let mut keys: Vec<u64> = self.intents.keys().copied().collect();
        keys.sort_unstable();
        let header = if keys.is_empty() {
            SNAPSHOT_V1
        } else {
            SNAPSHOT_V2
        };
        let mut out = String::with_capacity(24 + fps.len() * 44 + keys.len() * 48);
        out.push_str(header);
        out.push('\n');
        for fp in fps {
            let score = self.entries[&fp];
            out.push_str(&fp.to_string());
            out.push(' ');
            out.push_str(&score.to_bits().to_string());
            out.push('\n');
        }
        for key in keys {
            out.push_str(INTENT_TAG);
            out.push(' ');
            out.push_str(&key.to_string());
            out.push(' ');
            out.push_str(&self.intents[&key].to_string());
            out.push('\n');
        }
        out
    }

    /// Parse a snapshot produced by [`ScoreCache::to_snapshot`], in
    /// either version: v1 lines are score pairs only, v2 adds intent
    /// records. Any malformed line is an error naming its 1-based line
    /// number.
    pub fn from_snapshot(input: &str) -> Result<ScoreCache, SnapshotError> {
        let mut lines = input.lines().enumerate();
        let with_intents = match lines.next().map(|(_, header)| header.trim()) {
            Some(SNAPSHOT_V1) => false,
            Some(SNAPSHOT_V2) => true,
            Some(header) => {
                return Err(SnapshotError {
                    line: 1,
                    message: format!(
                        "unsupported snapshot header '{header}' \
                         (this reader reads '{SNAPSHOT_V1}' and '{SNAPSHOT_V2}')"
                    ),
                })
            }
            None => {
                return Err(SnapshotError {
                    line: 1,
                    message: "empty snapshot (missing header)".into(),
                })
            }
        };
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
            let mut parts = line.split_ascii_whitespace().peekable();
            let is_intent = with_intents && parts.peek() == Some(&INTENT_TAG);
            if is_intent {
                parts.next();
            }
            let mut field = |what: &str| -> Result<u64, SnapshotError> {
                parts
                    .next()
                    .ok_or_else(|| err(format!("missing {what} in '{line}'")))?
                    .parse::<u64>()
                    .map_err(|_| err(format!("bad {what} in '{line}'")))
            };
            if is_intent {
                let key = field("intent key")?;
                let fp = field("fingerprint")?;
                cache.intents.insert(key, fp);
            } else {
                let fp = field("fingerprint")?;
                let bits = field("score bits")?;
                cache.entries.insert(fp, f64::from_bits(bits));
            }
            if parts.next().is_some() {
                return Err(err(format!("trailing data in '{line}'")));
            }
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
        assert!(ScoreCache::from_snapshot("dp-score-cache v3\n").is_err());
        // Intent records are a v2 line kind only.
        let err = ScoreCache::from_snapshot("dp-score-cache v1\nintent 1 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err =
            ScoreCache::from_snapshot("dp-score-cache v1\n1 2 3\n").expect_err("trailing data");
        assert_eq!(err.line, 2);
        assert!(ScoreCache::from_snapshot("dp-score-cache v1\nnope 1\n").is_err());
        assert!(ScoreCache::from_snapshot("dp-score-cache v1\n1 -0.5\n").is_err());
    }

    #[test]
    fn intent_records_round_trip_under_the_v2_header() {
        let mut c = ScoreCache::new();
        c.insert(7, 0.5);
        assert!(c.to_snapshot().starts_with("dp-score-cache v1\n"));
        c.insert_intent(u64::MAX, 7);
        c.insert_intent(3, 9);
        let text = c.to_snapshot();
        assert_eq!(
            text,
            format!(
                "dp-score-cache v2\n7 {}\nintent 3 9\nintent {} 7\n",
                0.5f64.to_bits(),
                u64::MAX
            )
        );
        let back = ScoreCache::from_snapshot(&text).unwrap();
        assert_eq!(back, c);
        let mut other = ScoreCache::new();
        assert_eq!(other.absorb(&back), 3, "one score and two intents");
        assert_eq!(other.intent(3), Some(9));
        assert_eq!(other.intent_count(), 2);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let c = ScoreCache::new();
        let back = ScoreCache::from_snapshot(&c.to_snapshot()).unwrap();
        assert!(back.is_empty());
    }
}
