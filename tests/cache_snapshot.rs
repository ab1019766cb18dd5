//! Property tests for the cache snapshot codec.
//!
//! The snapshot format (`dp-score-cache v1`, then one
//! `<fingerprint> <score-bits>` decimal pair per line; `dp-score-cache
//! v2` adds `intent <key> <fingerprint>` records) must be *exact*:
//! save → load reproduces every entry bit for bit, for any u64
//! fingerprint and any f64 bit pattern — including negative zero,
//! infinities, subnormals, and NaNs with arbitrary payloads (a
//! hand-edited NaN must survive the round trip unchanged, even though
//! the oracle itself never caches one). The loader is a trust
//! boundary: arbitrary bytes under either header load or fail with a
//! typed error naming a line, and never panic.

use dataprism::ScoreCache;
use proptest::prelude::*;

/// Canonical view of a cache for NaN-safe comparison: sorted
/// `(fingerprint, score_bits)` pairs.
fn canon(cache: &ScoreCache) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = cache.iter().map(|(fp, s)| (fp, s.to_bits())).collect();
    v.sort_unstable();
    v
}

fn build(entries: &[(u64, u64)]) -> ScoreCache {
    let mut cache = ScoreCache::new();
    for &(fp, bits) in entries {
        cache.insert(fp, f64::from_bits(bits));
    }
    cache
}

/// Canonical view of a cache's intent records: sorted
/// `(intent key, fingerprint)` pairs.
fn canon_intents(cache: &ScoreCache) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = cache.intents().collect();
    v.sort_unstable();
    v
}

/// Arbitrary text: printable snapshot-ish characters (digits, spaces,
/// newlines, the intent tag's letters, signs) mixed with any bytes,
/// decoded lossily as the daemon decodes a request.
fn noise() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            4 => prop::sample::select(b"0123456789 \nintent-+.x\t".to_vec()),
            1 => 0u8..=255u8,
        ],
        0..96,
    )
    .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #[test]
    fn snapshot_loader_rejects_arbitrary_bytes_with_a_line_number(
        header in 0usize..3,
        body in noise(),
    ) {
        let text = match header {
            0 => format!("dp-score-cache v1\n{body}"),
            1 => format!("dp-score-cache v2\n{body}"),
            _ => body,
        };
        // Never panics: either a cache or a typed error on a real line.
        if let Err(err) = ScoreCache::from_snapshot(&text) {
            let lines = text.lines().count().max(1);
            prop_assert!(err.line >= 1 && err.line <= lines, "{err} in {text:?}");
        }
    }

    #[test]
    fn snapshots_with_intent_records_round_trip_exactly(
        entries in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..24),
        intents in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..24),
    ) {
        let mut cache = build(&entries);
        for &(key, fp) in &intents {
            cache.insert_intent(key, fp);
        }
        let text = cache.to_snapshot();
        let header = if intents.is_empty() { "dp-score-cache v1" } else { "dp-score-cache v2" };
        prop_assert_eq!(text.lines().next(), Some(header));
        let reloaded = ScoreCache::from_snapshot(&text).expect("own snapshot must load");
        prop_assert_eq!(canon(&cache), canon(&reloaded));
        prop_assert_eq!(canon_intents(&cache), canon_intents(&reloaded));
        prop_assert_eq!(text, reloaded.to_snapshot());
    }

    #[test]
    fn snapshot_save_load_round_trips_exactly(
        entries in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..48)
    ) {
        let cache = build(&entries);
        let text = cache.to_snapshot();
        let reloaded = ScoreCache::from_snapshot(&text).expect("own snapshot must load");
        prop_assert_eq!(canon(&cache), canon(&reloaded));
        // The codec is also canonical: re-encoding the reload gives
        // byte-identical text (entries are sorted by fingerprint).
        prop_assert_eq!(text, reloaded.to_snapshot());
    }

    #[test]
    fn snapshot_lines_are_raw_decimal_digit_pairs(
        entries in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..16)
    ) {
        // The encoding promise tests and humans rely on: after the
        // header, every line is exactly two base-10 u64s. No floats,
        // no hex, no locale surprises.
        let text = build(&entries).to_snapshot();
        let mut lines = text.lines();
        prop_assert_eq!(lines.next(), Some("dp-score-cache v1"));
        let mut prev_fp = None;
        for line in lines {
            let mut parts = line.split(' ');
            let fp: u64 = parts.next().unwrap().parse().expect("fingerprint digits");
            let _bits: u64 = parts.next().unwrap().parse().expect("score-bit digits");
            prop_assert!(parts.next().is_none(), "exactly two fields per line");
            prop_assert!(prev_fp < Some(fp), "sorted strictly by fingerprint");
            prev_fp = Some(fp);
        }
    }
}

#[test]
fn empty_cache_round_trips() {
    let cache = ScoreCache::new();
    let text = cache.to_snapshot();
    let reloaded = ScoreCache::from_snapshot(&text).unwrap();
    assert!(reloaded.is_empty());
    assert_eq!(text, reloaded.to_snapshot());
}

#[test]
fn single_entry_round_trips_for_awkward_bit_patterns() {
    for bits in [
        0u64,                // +0.0
        (-0.0f64).to_bits(), // -0.0 (distinct bits!)
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::NAN.to_bits(),
        f64::NAN.to_bits() | 0xdead, // NaN with payload
        f64::MIN_POSITIVE.to_bits(),
        1, // smallest subnormal
        (0.1f64 + 0.2).to_bits(),
        u64::MAX,
    ] {
        let mut cache = ScoreCache::new();
        cache.insert(u64::MAX, f64::from_bits(bits));
        let reloaded = ScoreCache::from_snapshot(&cache.to_snapshot()).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(
            reloaded.get(u64::MAX).unwrap().to_bits(),
            bits,
            "bit pattern {bits:#018x} must survive"
        );
    }
}

#[test]
fn corrupt_snapshots_are_rejected_with_line_numbers() {
    for (text, bad_line) in [
        ("", 1),                               // no header
        ("dp-score-cache v3\n", 1),            // future version
        ("dp-score-cache v1\n1 2 3\n", 2),     // three fields
        ("dp-score-cache v1\n1\n", 2),         // one field
        ("dp-score-cache v1\nx 2\n", 2),       // non-decimal fp
        ("dp-score-cache v1\n1 2\n1 -3\n", 3), // negative bits
    ] {
        let err = ScoreCache::from_snapshot(text).expect_err(text);
        assert_eq!(err.line, bad_line, "{text:?}: {err}");
    }
}

#[test]
fn replayed_traces_keep_only_scores_in_the_unit_interval() {
    // A trace is a trust boundary too: a hand-edited stream may carry
    // any score, but the runtime never computes one outside [0, 1],
    // so warming from it stores only the usable entries and counts
    // only those.
    let span = |fingerprint, score| dp_trace::TraceRecord {
        seq: 0,
        at_ns: 0,
        event: dp_trace::Event::OracleQuery(dp_trace::OracleQuerySpan {
            kind: dp_trace::QueryKind::Intervention,
            fingerprint,
            score,
            cached: false,
            speculative_hit: false,
            latency_ns: Some(1),
        }),
    };
    let trace = dp_trace::to_jsonl(&[
        span(1, -1.0),
        span(2, 7.5),
        span(3, f64::NAN),
        span(4, 0.25),
        span(5, 0.0),
        span(6, 1.0),
    ]);
    let mut cache = ScoreCache::new();
    assert_eq!(cache.warm_from_jsonl(&trace).unwrap(), 3);
    assert_eq!(
        canon(&cache),
        vec![
            (4, 0.25f64.to_bits()),
            (5, 0.0f64.to_bits()),
            (6, 1.0f64.to_bits())
        ]
    );
    // Replaying the same trace again stores nothing new.
    assert_eq!(cache.warm_from_jsonl(&trace).unwrap(), 0);
}
