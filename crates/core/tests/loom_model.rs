//! Schedule-perturbation models of the detached speculation pool.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`, where the runtime's
//! pool primitives (`Mutex`/`Condvar`/worker spawn) swap to the
//! `loom` shim: every acquisition, wait, and notification becomes a
//! perturbation point, and `loom::model` re-runs each closure under
//! many distinct yield schedules. The models target the pool's three
//! delicate protocols:
//!
//! 1. **Settle quiescence** — `run_metrics()` discards the unstarted
//!    queue tail and waits on the `idle` condvar until `pending == 0`;
//!    a lost wakeup or miscounted `pending` deadlocks or underflows.
//! 2. **Fingerprint-cache handoff** — a speculative worker scoring a
//!    frame concurrently with a charged `intervene` of the same frame
//!    must agree on one deterministic score, and the charged query
//!    must retire the speculation from the waste set at most once.
//! 3. **Drop with queued jobs** — dropping the runtime mid-burst must
//!    shut workers down, rebalance `pending`, and join cleanly.
//! 4. **In-flight hand-off** — a charged query of a frame a worker has
//!    claimed waits on the cache condvar for the worker's score; a
//!    lost wake-up hangs the waiter, and a missed claim scores the
//!    frame twice.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p dataprism --test loom_model --release`

#![cfg(loom)]

use dataprism::runtime::DetachedSpeculation;
use dataprism::{fingerprint, Oracle, Source, Tracer};
use dp_frame::{Column, DataFrame};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn df(vals: &[i64]) -> DataFrame {
    DataFrame::from_columns(vec![Column::from_ints(
        "x",
        vals.iter().map(|&v| Some(v)).collect(),
    )])
    .unwrap()
}

fn detached(frame: &DataFrame) -> DetachedSpeculation {
    DetachedSpeculation {
        pvts: Vec::new(),
        base: Arc::new(frame.clone()),
        base_fp: fingerprint(frame),
        seed: 0,
    }
}

#[test]
fn settle_reaches_quiescence_under_perturbed_schedules() {
    loom::model(|| {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
        let frames: Vec<DataFrame> = (0..6).map(|i| df(&[i, i + 1])).collect();
        rt.speculate_detached(frames.iter().map(detached).collect());
        // run_metrics() settles the pool: drops the unstarted tail,
        // waits for in-flight jobs. Whatever the schedule did, the
        // counters must be read at quiescence and stay consistent.
        let m = rt.run_metrics();
        assert!(m.speculative_evaluated <= frames.len() as u64);
        assert_eq!(m.speculative_wasted, m.speculative_evaluated);
        assert_eq!(m.charged_queries, 0, "speculation is never charged");
        // A second settle with nothing queued must not deadlock.
        let again = rt.run_metrics();
        assert_eq!(again.speculative_evaluated, m.speculative_evaluated);
    });
}

#[test]
fn cache_handoff_agrees_on_one_score() {
    loom::model(|| {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
        let frame = df(&[1, 2, 3]);
        // Race the background scoring of `frame` against a charged
        // query of the same frame on the primary thread.
        rt.speculate_detached(vec![detached(&frame), detached(&df(&[7]))]);
        let score = rt.intervene(&frame, &Tracer::off());
        assert_eq!(score, 0.3, "deterministic score, whoever computed it");
        assert_eq!(rt.interventions, 1);
        let m = rt.run_metrics();
        // The charged query either hit a worker's speculative score
        // (consuming it from the waste set) or scored first itself;
        // both ends of the race must balance the books.
        assert_eq!(m.cache_hits + m.cache_misses, 1);
        assert!(m.speculative_wasted <= m.speculative_evaluated);
        assert_eq!(m.charged_queries, 1);
        // The score is now cached for everyone: a repeat query is a
        // hit and the answer is bit-identical.
        assert_eq!(rt.intervene(&frame, &Tracer::off()), 0.3);
    });
}

#[test]
fn drop_with_queued_jobs_joins_cleanly() {
    loom::model(|| {
        let factory = || |df: &DataFrame| df.n_rows() as f64 / 10.0;
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
        let jobs: Vec<DetachedSpeculation> =
            (0..16).map(|i| detached(&df(&[i, i + 1, i + 2]))).collect();
        rt.speculate_detached(jobs);
        // Drop immediately: workers may be mid-job, waiting for work,
        // or not yet scheduled. Drop must discard the unstarted tail,
        // wake every waiter, and join without deadlock or panic.
        drop(rt);
    });
}

#[test]
fn inflight_handoff_scores_each_frame_once_without_lost_wakeups() {
    loom::model(|| {
        let evals = Arc::new(AtomicUsize::new(0));
        let e2 = Arc::clone(&evals);
        let factory = move || {
            let evals = Arc::clone(&e2);
            move |df: &DataFrame| {
                evals.fetch_add(1, Ordering::SeqCst);
                df.n_rows() as f64 / 10.0
            }
        };
        let mut rt = Oracle::new(Source::Factory(&factory), 0.2, 100, 2);
        let frame = df(&[1, 2, 3]);
        // The pool worker may claim the frame before, during or after
        // the charged query: the query then waits for the worker's
        // score, finds it, or scores the frame itself while the
        // worker skips it.
        rt.speculate_detached(vec![detached(&frame)]);
        assert_eq!(rt.intervene(&frame, &Tracer::off()), 0.3);
        let m = rt.run_metrics();
        assert_eq!(evals.load(Ordering::SeqCst), 1, "one evaluation");
        assert_eq!(m.cache_hits + m.cache_misses, 1);
        assert_eq!(m.speculative_evaluated + m.cache_misses, 1);
        assert_eq!(m.speculative_wasted, 0);
    });
}
