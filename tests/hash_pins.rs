//! Pinned hash values.
//!
//! Fingerprints and intent keys are persisted (in `dp-score-cache`
//! snapshots and trace JSONL) and digests are compared across
//! processes, so every one of them is computed with the in-repo
//! SipHash-1-3 (`dp_trace::SipHasher13`), never with a hasher whose
//! algorithm the toolchain may change. The fingerprint and intent-key
//! literals below were computed before that switch, with `std`'s
//! `DefaultHasher`: they prove the in-repo hash reproduces the old
//! values, so existing snapshots stay valid. The snapshot test loads
//! one such snapshot and requires a fully warm run. Any later change
//! to what is hashed, or how, shows up here as a diff.

use dataprism::oracle::intent_key;
use dataprism::transform::ImputeStrategy;
use dataprism::{fingerprint, Algorithm, Diagnosis, ScoreCache, Source, Transform};
use dp_frame::{CmpOp, Column, DType, DataFrame, Predicate, Value};
use dp_scenarios::{example1, income};
use dp_stats::Pattern;

/// One column of every dtype, each holding a NULL: Int, Float (with
/// negative zero and infinity), Bool, Text and Categorical.
fn pinned_frame() -> DataFrame {
    let strings = |vals: &[Option<&str>]| vals.iter().map(|v| v.map(str::to_string)).collect();
    DataFrame::from_columns(vec![
        Column::from_ints("n", vec![Some(3), None, Some(-7), Some(42)]),
        Column::from_floats("x", vec![Some(1.5), Some(-0.0), None, Some(f64::INFINITY)]),
        Column::from_bools("b", vec![Some(true), None, Some(false), Some(true)]),
        Column::from_strings(
            "t",
            DType::Text,
            strings(&[Some("a,b"), None, Some(""), Some("zïp")]),
        ),
        Column::from_strings(
            "c",
            DType::Categorical,
            strings(&[Some("x"), Some("y"), None, Some("x")]),
        ),
    ])
    .unwrap()
}

#[test]
fn the_fingerprint_of_a_fixed_frame_is_pinned() {
    assert_eq!(fingerprint(&pinned_frame()), 0x548c_c144_8c73_6281);
}

#[test]
fn the_intent_key_of_a_fixed_composition_is_pinned() {
    let transforms = [
        Transform::MapToDomain {
            attr: "c".into(),
            values: ["x".to_string(), "y".to_string()].into_iter().collect(),
        },
        Transform::Conditional {
            condition: Predicate::Cmp {
                column: "n".into(),
                op: CmpOp::Gt,
                value: Value::Int(3),
            },
            inner: Box::new(Transform::Impute {
                attr: "x".into(),
                strategy: ImputeStrategy::Central,
            }),
        },
    ];
    let key = intent_key(fingerprint(&pinned_frame()), &transforms, 42);
    assert_eq!(key, 0x3414_e1d6_46c7_25e2);
}

#[test]
fn the_example1_digest_is_pinned() {
    let s = example1::scenario();
    let exp = Diagnosis::new(Algorithm::Greedy)
        .run(
            Source::Factory(s.factory.as_ref()),
            &s.d_fail,
            &s.d_pass,
            &s.config,
        )
        .unwrap();
    assert_eq!(exp.digest(), 0xf518_d204_579c_a68c);
}

/// `tests/golden/income_gt_v2.snapshot` was written by a group-testing
/// run on this scenario before the hash was fixed (fingerprints and
/// intent keys from `DefaultHasher`). Restored now, it answers every
/// charged query of the same run.
#[test]
fn a_snapshot_written_before_the_switch_restores_fully_warm() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/income_gt_v2.snapshot"
    ))
    .unwrap();
    assert!(text.starts_with("dp-score-cache v2\n"));
    let s = income::scenario_with_size(300, 7);
    let mut config = s.config.clone();
    config.num_threads = 1;
    let run = |cache: &mut ScoreCache| {
        Diagnosis::new(Algorithm::GroupTest)
            .with_cache(cache)
            .run(
                Source::Factory(s.factory.as_ref()),
                &s.d_fail,
                &s.d_pass,
                &config,
            )
            .unwrap()
    };
    let cold = run(&mut ScoreCache::new());
    let mut restored = ScoreCache::from_snapshot(&text).unwrap();
    let warm = run(&mut restored);
    assert_eq!(warm.digest(), cold.digest());
    let m = &warm.metrics;
    assert_eq!(m.charged_queries, 10);
    assert_eq!(m.cache_misses, 0, "{m:?}");
    assert_eq!(m.warm_hits, m.charged_queries, "{m:?}");
    assert!(m.intent_hits > 0, "{m:?}");
}

/// A `RepairText` intent key: the learned pattern holds a token of
/// every character class (letters, a literal `-`, digits, a space),
/// so each class's tag and the literal's character are in the hashed
/// stream. Computed when the pattern still fed a derived `Hash`.
#[test]
fn the_intent_key_of_a_text_repair_is_pinned() {
    let pattern = Pattern::learn(&["ab-12 x", "abc-123 y"]).unwrap();
    assert_eq!(pattern.to_string(), r"[a-zA-Z]{2,3}-\d{2,3}\s[a-zA-Z]");
    let transforms = [Transform::RepairText {
        attr: "t".into(),
        pattern,
    }];
    let key = intent_key(fingerprint(&pinned_frame()), &transforms, 7);
    assert_eq!(key, 0x8afa_3d62_c36e_ea32);
}
