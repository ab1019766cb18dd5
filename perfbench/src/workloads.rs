//! The workloads. Each builds a fixed cycle of operations at
//! set-up; the seed only orders each cycle (see `runner::Shuffle`),
//! so counts per cycle are the same for every seed and percentiles
//! fall at the same place in the latency distribution.
//!
//! Sizes and instance seeds below were chosen so that every operation
//! succeeds, a run completes at least `runner::MIN_OPS` operations in
//! the benchmark's run time, and p50 and p95 each fall inside one
//! class of operation rather than on the edge between two.

use crate::adapter::{
    self, Algo, Daemon, DataFrame, Diagnosis, Explanation, InstrumentedFactory, PrismConfig,
    PrismError, Pvt, Scenario, ScoreCache, Served, SyntheticScenario, Watcher,
};
use crate::runner::{OpOutput, Trace, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Candidates materialised and fingerprinted beside each traced
/// diagnosis (a strided sample, so the unit costs stay cheap to take
/// on thousands of candidates).
const APPLY_SAMPLE: usize = 16;

/// Turn a diagnosis result into an operation output, failing on any
/// error other than an expected A3 refusal and on an unresolved
/// explanation.
fn judge(
    result: Result<Explanation, PrismError>,
    expect_na: bool,
    truth: impl FnOnce(&Explanation) -> bool,
) -> Result<OpOutput, String> {
    match (adapter::classify(result)?, expect_na) {
        (Diagnosis::Explained(e), false) if e.resolved => Ok(OpOutput::Explained {
            digest: adapter::digest(&e),
            interventions: e.interventions as u64,
            truth: truth(&e),
        }),
        (Diagnosis::Explained(_), false) => Err("unresolved explanation".into()),
        (Diagnosis::Explained(_), true) => {
            Err("expected the A3 refusal, got an explanation".into())
        }
        (Diagnosis::NotApplicable, true) => Ok(OpOutput::NotApplicable),
        (Diagnosis::NotApplicable, false) => Err("unexpected A3 refusal".into()),
    }
}

/// Time lint, ranking, transformation and fingerprinting beside a
/// diagnosis, on the same candidates.
fn layers_beside(tr: &mut Trace, pvts: &[Pvt], d_fail: &DataFrame, tau: f64) -> Result<(), String> {
    let (lint, ns) = tr.beside("lint", || adapter::lint(pvts, d_fail, tau));
    tr.layers.lint_ns += ns;
    tr.layers.lint_calls += 1;
    tr.layers.commuting_pairs += lint.commuting_pairs;
    tr.layers.prunable += lint.prunable;
    let (_, ns) = tr.beside("rank", || black_box(adapter::rank(pvts, d_fail)));
    tr.layers.rank_ns += ns;
    tr.layers.rank_calls += 1;
    let step = (pvts.len() / APPLY_SAMPLE).max(1);
    for pvt in pvts.iter().step_by(step).take(APPLY_SAMPLE) {
        let (frame, ns) = tr.beside("transform", || adapter::apply(pvt, d_fail, pvt.id as u64));
        let frame = frame?;
        tr.layers.apply_ns += ns;
        tr.layers.applied += 1;
        let (_, ns) = tr.beside("fingerprint", || black_box(adapter::fingerprint(&frame)));
        tr.layers.fingerprint_ns += ns;
        tr.layers.fingerprinted += 1;
    }
    Ok(())
}

/// Time discovery beside an operation, with its counts.
fn discover_beside(
    tr: &mut Trace,
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    config: &PrismConfig,
) -> Vec<Pvt> {
    let ((pvts, counts), ns) = tr.beside("discovery", || adapter::discover(d_pass, d_fail, config));
    let l = &mut tr.layers;
    l.discovery_ns += ns;
    l.discovery_calls += 1;
    l.pairs += counts.pairs;
    l.pair_tests += counts.pair_tests;
    l.screened += counts.screened;
    l.candidates += pvts.len() as u64;
    pvts
}

/// Time the search itself (`explain_*_with_pvts`); evaluations the
/// instrumented system records while it runs become its children.
fn search_traced(
    tr: &mut Trace,
    f: impl FnOnce() -> Result<Explanation, PrismError>,
) -> Result<Explanation, PrismError> {
    let span = tr.log.open("search", Some(tr.op_span));
    let result = f();
    tr.log.close(span);
    tr.layers.diagnoses += 1;
    if let Ok(e) = &result {
        count_oracle(tr, e);
    }
    result
}

fn count_oracle(tr: &mut Trace, e: &Explanation) {
    let [charged, hits, warm, spec_evaluated, spec_used] = adapter::oracle_counts(e);
    let l = &mut tr.layers;
    l.charged += charged;
    l.cache_hits += hits;
    l.warm_hits += warm;
    l.spec_evaluated += spec_evaluated;
    l.spec_used += spec_used;
}

/// Group testing's A3 check refuses these case studies: the paper's
/// "NA" cells, counted as successes.
fn case_expects_na(key: &str, algo: Algo) -> bool {
    algo == Algo::Gt && matches!(key, "example1" | "cardio")
}

// ---------------------------------------------------------------
// blocking_system
// ---------------------------------------------------------------

/// Each evaluation blocks this long, as a remote pipeline run would;
/// wall time then depends on how the runtime overlaps evaluations. On
/// a busy host a sleep overshoots by about a millisecond, so a longer
/// sleep keeps that overshoot a small share of each operation.
const EVAL_SLEEP: Duration = Duration::from_millis(10);
/// Width of the parallel runtime: one caller plus one speculation
/// worker, so it needs no more than two cores.
const BLOCKING_THREADS: usize = 2;

/// Fig 9(b)/(c)-shaped pipelines as (attributes, given candidates,
/// cause size, rows, seed).
const BLOCKING: [(usize, usize, usize, usize, u64); 4] = [
    (40, 40, 1, 100, 1),
    (40, 50, 2, 100, 2),
    (50, 60, 3, 100, 3),
    (50, 80, 4, 100, 4),
];
/// The single cause's GT sits between the GRD runs and the slower GT
/// runs, so twice it is the median of the nine operations.
const BLOCKING_REPEATS: [(usize, Algo); 1] = [(0, Algo::Gt)];

struct SyntheticInstance {
    label: String,
    scenario: SyntheticScenario,
    factory: InstrumentedFactory,
    config: PrismConfig,
}

/// Diagnoses on the parallel runtime, given the planted candidates.
struct Synthetic {
    instances: Vec<SyntheticInstance>,
    ops: Vec<(usize, Algo)>,
}

pub fn blocking_system() -> Result<Box<dyn Workload>, String> {
    let instances: Vec<SyntheticInstance> = BLOCKING
        .iter()
        .map(|&(attrs, plants, size, rows, seed)| {
            let scenario = adapter::synthetic(attrs, plants, size, rows, seed);
            let mut config = scenario.config.clone();
            config.num_threads = BLOCKING_THREADS;
            SyntheticInstance {
                label: format!("a{attrs}p{plants}k{size}r{rows}#{seed}"),
                factory: InstrumentedFactory::new(
                    adapter::synthetic_factory(&scenario),
                    Some(EVAL_SLEEP),
                ),
                scenario,
                config,
            }
        })
        .collect();
    // Every instance under both algorithms, plus the repeats, which
    // place p50 inside one operation's samples: without them the
    // median of an even count falls between two operations.
    let ops = (0..instances.len())
        .flat_map(|i| Algo::BOTH.into_iter().map(move |a| (i, a)))
        .chain(BLOCKING_REPEATS)
        .collect();
    Ok(Box::new(Synthetic { instances, ops }))
}

impl Workload for Synthetic {
    fn cycle_len(&self) -> usize {
        self.ops.len()
    }

    fn label(&self, op: usize) -> String {
        let (i, algo) = self.ops[op];
        format!("{}/{}", self.instances[i].label, algo.name())
    }

    fn run(&mut self, op: usize, trace: Option<&mut Trace>) -> Result<OpOutput, String> {
        let (i, algo) = self.ops[op];
        let inst = &mut self.instances[i];
        let s = &inst.scenario;
        inst.factory
            .set_log(trace.as_ref().map(|t| Arc::clone(&t.log)));
        let (factory, config) = (&inst.factory, &inst.config);
        let pvts = s.pvts.clone();
        let run = || {
            adapter::diagnose_parallel_with_pvts(factory, &s.d_fail, &s.d_pass, pvts, config, algo)
        };
        let result = match trace {
            None => run(),
            Some(tr) => {
                layers_beside(tr, &s.pvts, &s.d_fail, config.threshold)?;
                search_traced(tr, run)
            }
        };
        judge(result, false, |e| adapter::synthetic_truth_given(s, e))
    }

    fn warmup(&self) -> Vec<usize> {
        // Both algorithms on the first instance.
        (0..self.ops.len())
            .filter(|&op| self.ops[op].0 == 0)
            .take(2)
            .collect()
    }
}

// ---------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------

/// `threads` of every daemon diagnosis (at most the host's cores).
const SERVE_THREADS: usize = 1;
/// The system put under continuous monitoring.
const WATCHED: &str = "income";
/// Rows per ingested batch; batches alternate passing and failing
/// rows.
const BATCH_ROWS: usize = 50;
const BATCHES: usize = 12;
/// Timed mix per cycle: each resolvable (system, algorithm) pair once
/// and Income's GT `INCOME_GT_REPEATS` times, `BATCHES` ingests,
/// `DRIFTS` checks and one `watch` that restarts the stream (an ingest
/// merges into sketches over the whole stream, so its cost grows with
/// stream length; restarting once a cycle keeps the stream at most two
/// cycles' batches long). Drift checks and the watch are the fastest 11 of 35
/// requests and the ingests the next 12, so the median is an ingest;
/// Income's GT, some 15 times slower than anything else, is the top
/// three, so p95 is one of those.
const INCOME_GT_REPEATS: usize = 3;
const DRIFTS: usize = 10;

struct ServedPair {
    key: &'static str,
    algo: Algo,
    scenario: Scenario,
    factory: InstrumentedFactory,
    config: PrismConfig,
    /// The in-process cold run's result.
    digest: u64,
    truth: bool,
    /// The daemon's namespace as the cold runs left it.
    cache: ScoreCache,
}

#[derive(Clone, Copy)]
enum ServeOp {
    Diagnose(usize),
    Ingest(usize),
    Drift,
    Watch,
}

/// A monitoring request as sent, with the daemon's drift reply, kept
/// for [`Workload::verify`].
enum Sent {
    Ingest(usize),
    Drift(Vec<usize>),
    Watch,
}

pub struct ServeWarm {
    daemon: Daemon,
    pairs: Vec<ServedPair>,
    batches: Vec<(String, DataFrame)>,
    ops: Vec<ServeOp>,
    /// Batches ingested since the last `watch`.
    since_watch: usize,
    /// Monitoring requests not yet verified.
    sent: Vec<Sent>,
    /// In-process watcher fed the same requests as the daemon's, for
    /// the drift replies to be checked against; the traced run times
    /// the monitor layer on it.
    reference: Watcher,
    watched: Scenario,
}

pub fn serve_warm() -> Result<Box<dyn Workload>, String> {
    let mut daemon = Daemon::start()?;
    for key in adapter::SERVED_CASES {
        daemon.register(key, key)?;
    }
    let mut pairs = Vec::new();
    for key in adapter::SERVED_CASES {
        for algo in Algo::BOTH {
            let mut scenario = adapter::served_case(key)?;
            let mut config = scenario.config.clone();
            config.num_threads = SERVE_THREADS;
            let factory = InstrumentedFactory::new(adapter::case_factory(&mut scenario), None);
            let cold = daemon.diagnose(key, algo, SERVE_THREADS)?;
            let local = adapter::diagnose_cached(
                &factory,
                &scenario.d_fail,
                &scenario.d_pass,
                &config,
                algo,
                &mut ScoreCache::new(),
            );
            let expect_na = case_expects_na(key, algo);
            let local = judge(local, expect_na, |e| adapter::case_truth(&scenario, e))
                .map_err(|e| format!("{key}/{}: {e}", algo.name()))?;
            match (cold, local) {
                (Served::NotApplicable, OpOutput::NotApplicable) => continue,
                (Served::Explained(reply), OpOutput::Explained { digest, truth, .. })
                    if reply.digest == digest =>
                {
                    pairs.push(ServedPair {
                        key,
                        algo,
                        scenario,
                        factory,
                        config,
                        digest,
                        truth,
                        cache: ScoreCache::new(),
                    })
                }
                _ => {
                    return Err(format!(
                        "{key}/{}: daemon and in-process cold diagnoses disagree",
                        algo.name()
                    ))
                }
            }
        }
    }
    for pair in &mut pairs {
        pair.cache = daemon.snapshot(pair.key)?;
    }
    daemon.watch(WATCHED)?;
    let watched = adapter::served_case(WATCHED)?;
    let mut batches = Vec::new();
    for b in 0..BATCHES {
        let source = if b % 2 == 0 {
            &watched.d_pass
        } else {
            &watched.d_fail
        };
        let start = (b / 2 * BATCH_ROWS) % (adapter::n_rows(source).saturating_sub(BATCH_ROWS) + 1);
        let frame = adapter::rows(source, start..start + BATCH_ROWS)?;
        batches.push((adapter::to_csv(&frame)?, frame));
    }
    let mut ops: Vec<ServeOp> = Vec::new();
    for (p, pair) in pairs.iter().enumerate() {
        let repeats = if (pair.key, pair.algo) == ("income", Algo::Gt) {
            INCOME_GT_REPEATS
        } else {
            1
        };
        ops.extend(std::iter::repeat_n(ServeOp::Diagnose(p), repeats));
    }
    ops.extend((0..BATCHES).map(ServeOp::Ingest));
    ops.extend(std::iter::repeat_n(ServeOp::Drift, DRIFTS));
    ops.push(ServeOp::Watch);
    Ok(Box::new(ServeWarm {
        daemon,
        pairs,
        batches,
        ops,
        since_watch: 0,
        sent: Vec::new(),
        reference: adapter::watcher(&watched),
        watched,
    }))
}

impl ServeWarm {
    fn diagnose(&mut self, p: usize, trace: Option<&mut Trace>) -> Result<OpOutput, String> {
        let pair = &mut self.pairs[p];
        let Some(tr) = trace else {
            let reply = self.daemon.diagnose(pair.key, pair.algo, SERVE_THREADS)?;
            return served_output(pair, reply);
        };
        let (reply, rtt_ns) = tr.span("serve.diagnose", || {
            self.daemon.diagnose(pair.key, pair.algo, SERVE_THREADS)
        });
        if let Ok(Served::Explained(r)) = &reply {
            tr.layers.charged += r.charged;
            tr.layers.cache_hits += r.hits;
            tr.layers.warm_hits += r.warm_hits;
        }
        let out = served_output(pair, reply?)?;
        // The same request in process, on a copy of the daemon's warm
        // namespace: what is left of the round trip is the daemon's own
        // cost (protocol, locking, cache copy-in and copy-out).
        let beside_start = Instant::now();
        pair.factory.set_log(Some(Arc::clone(&tr.log)));
        let mut cache = pair.cache.clone();
        let span = tr.log.open("serve.inproc", Some(tr.op_span));
        let start = Instant::now();
        let local = adapter::diagnose_cached(
            &pair.factory,
            &pair.scenario.d_fail,
            &pair.scenario.d_pass,
            &pair.config,
            pair.algo,
            &mut cache,
        );
        let local_ns = start.elapsed().as_nanos() as u64;
        tr.log.close(span);
        pair.factory.set_log(None);
        tr.beside_ns += beside_start.elapsed().as_nanos() as u64;
        let local = judge(local, false, |_| pair.truth)?;
        if local != out {
            return Err(format!(
                "in-process warm run gave {local:?}, daemon {out:?}"
            ));
        }
        tr.layers.diagnoses += 1;
        tr.layers.serve_diagnose_ms.push(rtt_ns as f64 / 1e6);
        tr.layers
            .serve_overhead_ms
            .push((rtt_ns as f64 - local_ns as f64) / 1e6);
        let s = &pair.scenario;
        let pvts = discover_beside(tr, &s.d_pass, &s.d_fail, &pair.config);
        layers_beside(tr, &pvts, &s.d_fail, pair.config.threshold)?;
        Ok(out)
    }

    fn ingest(&mut self, b: usize, trace: Option<&mut Trace>) -> Result<OpOutput, String> {
        let csv = &self.batches[b].0;
        let batches = match trace {
            None => self.daemon.ingest(WATCHED, csv)?,
            Some(tr) => {
                let (reply, ns) = tr.span("serve.ingest", || self.daemon.ingest(WATCHED, csv));
                tr.layers.serve_ingest_ms.push(ns as f64 / 1e6);
                reply?
            }
        };
        self.since_watch += 1;
        self.sent.push(Sent::Ingest(b));
        if batches != self.since_watch as u64 {
            return Err(format!(
                "daemon counts {batches} batches, {} were sent",
                self.since_watch
            ));
        }
        Ok(OpOutput::Other)
    }

    fn drift(&mut self, trace: Option<&mut Trace>) -> Result<OpOutput, String> {
        let drifted = match trace {
            None => self.daemon.drift(WATCHED)?,
            Some(tr) => {
                let (reply, ns) = tr.span("serve.drift", || self.daemon.drift(WATCHED));
                tr.layers.serve_drift_ms.push(ns as f64 / 1e6);
                reply?
            }
        };
        self.sent.push(Sent::Drift(drifted));
        Ok(OpOutput::Other)
    }
}

fn served_output(pair: &ServedPair, reply: Served) -> Result<OpOutput, String> {
    match reply {
        Served::Explained(r) if r.digest == pair.digest => Ok(OpOutput::Explained {
            digest: r.digest,
            interventions: r.interventions,
            truth: pair.truth,
        }),
        Served::Explained(r) => Err(format!(
            "reply digest {} differs from the in-process {}",
            r.digest, pair.digest
        )),
        Served::NotApplicable => Err("unexpected A3 refusal".into()),
    }
}

impl Workload for ServeWarm {
    fn cycle_len(&self) -> usize {
        self.ops.len()
    }

    fn label(&self, op: usize) -> String {
        match self.ops[op] {
            ServeOp::Diagnose(p) => {
                let pair = &self.pairs[p];
                format!("diagnose {}/{}", pair.key, pair.algo.name())
            }
            ServeOp::Ingest(b) if b % 2 == 0 => "ingest passing rows".into(),
            ServeOp::Ingest(_) => "ingest failing rows".into(),
            ServeOp::Drift => "drift".into(),
            ServeOp::Watch => "watch".into(),
        }
    }

    fn run(&mut self, op: usize, trace: Option<&mut Trace>) -> Result<OpOutput, String> {
        match self.ops[op] {
            ServeOp::Diagnose(p) => self.diagnose(p, trace),
            ServeOp::Ingest(b) => self.ingest(b, trace),
            ServeOp::Drift => self.drift(trace),
            ServeOp::Watch => {
                self.daemon.watch(WATCHED)?;
                self.since_watch = 0;
                self.sent.push(Sent::Watch);
                Ok(OpOutput::Other)
            }
        }
    }

    fn warmup(&self) -> Vec<usize> {
        // One request of each kind.
        let first = |f: fn(&ServeOp) -> bool| self.ops.iter().position(f);
        [
            first(|o| matches!(o, ServeOp::Diagnose(_))),
            first(|o| matches!(o, ServeOp::Ingest(_))),
            first(|o| matches!(o, ServeOp::Drift)),
            first(|o| matches!(o, ServeOp::Watch)),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Replay the monitoring requests on the in-process watcher and
    /// compare every drift reply with its drifted set.
    fn verify(&mut self, mut trace: Option<&mut Trace>) -> Vec<String> {
        let mut wrong = Vec::new();
        for sent in std::mem::take(&mut self.sent) {
            match sent {
                Sent::Ingest(b) => {
                    let batch = self.batches[b].1.clone();
                    let rows = adapter::n_rows(&batch) as u64;
                    let start = Instant::now();
                    let ingested = adapter::watcher_ingest(&mut self.reference, batch);
                    if let Some(tr) = trace.as_deref_mut() {
                        let end = Instant::now();
                        tr.log.record("monitor.ingest", start, end, None);
                        tr.layers.monitor_ingest_ns += (end - start).as_nanos() as u64;
                        tr.layers.monitor_rows += rows;
                    }
                    if let Err(e) = ingested {
                        wrong.push(format!("in-process ingest: {e}"));
                    }
                }
                Sent::Drift(drifted) => {
                    let start = Instant::now();
                    let expected = adapter::watcher_drift(&mut self.reference);
                    if let Some(tr) = trace.as_deref_mut() {
                        let end = Instant::now();
                        tr.log.record("monitor.drift", start, end, None);
                        tr.layers.monitor_drift_ns += (end - start).as_nanos() as u64;
                        tr.layers.monitor_drifts += 1;
                    }
                    if expected != drifted {
                        wrong.push(format!(
                            "drift: daemon drifted {drifted:?}, in-process {expected:?}"
                        ));
                    }
                }
                Sent::Watch => self.reference = adapter::watcher(&self.watched),
            }
        }
        wrong
    }
}
