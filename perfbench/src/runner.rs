//! The closed loop: set a workload up, run its cycle of operations
//! back to back for the requested time, check every output, and turn
//! what was measured into metrics.

use crate::procstat;
use crate::reference;
use crate::spans::{self, SpanLog};
use crate::stats::{self, ratio};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Operations a run must complete so p95 has ten samples beyond it.
pub const MIN_OPS: usize = 200;

/// What one operation produced, for the output checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpOutput {
    /// A diagnosis that explained the malfunction.
    Explained {
        digest: u64,
        interventions: u64,
        truth: bool,
    },
    /// A diagnosis that ended in the expected typed A3 refusal.
    NotApplicable,
    /// Not a diagnosis (a daemon ingest, drift or watch request).
    Other,
}

/// Per-layer totals gathered by the traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub diagnoses: u64,
    pub discovery_ns: u64,
    pub discovery_calls: u64,
    pub pairs: u64,
    pub pair_tests: u64,
    pub screened: u64,
    pub candidates: u64,
    pub lint_ns: u64,
    pub lint_calls: u64,
    pub commuting_pairs: u64,
    pub prunable: u64,
    pub rank_ns: u64,
    pub rank_calls: u64,
    pub apply_ns: u64,
    pub applied: u64,
    pub fingerprint_ns: u64,
    pub fingerprinted: u64,
    pub charged: u64,
    pub cache_hits: u64,
    pub warm_hits: u64,
    pub spec_evaluated: u64,
    pub spec_used: u64,
    pub serve_diagnose_ms: Vec<f64>,
    pub serve_ingest_ms: Vec<f64>,
    pub serve_drift_ms: Vec<f64>,
    pub serve_overhead_ms: Vec<f64>,
    pub monitor_ingest_ns: u64,
    pub monitor_rows: u64,
    pub monitor_drift_ns: u64,
    pub monitor_drifts: u64,
}

/// The traced run's state handed to each operation.
pub struct Trace {
    pub log: Arc<SpanLog>,
    pub layers: Layers,
    /// Span of the operation in progress.
    pub op_span: usize,
    /// Traced operations so far; the next one's id.
    pub ops: u64,
    /// Time spent on layer calls made beside the operations, which the
    /// untraced run does not make.
    pub beside_ns: u64,
}

impl Trace {
    /// Time `f` as a child span of the current operation.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.log.record(name, start, end, Some(self.op_span));
        (out, (end - start).as_nanos() as u64)
    }

    /// [`Trace::span`] for a call made beside the operation only to
    /// time a layer; its time is left out of the traced throughput.
    pub fn beside<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let (out, ns) = self.span(name, f);
        self.beside_ns += ns;
        (out, ns)
    }
}

pub trait Workload {
    /// Operations in one cycle, in canonical order.
    fn cycle_len(&self) -> usize;
    /// What kind of operation `op` is (for the latency breakdown).
    fn label(&self, op: usize) -> String;
    /// Run operation `op`; `Err` is a failed operation.
    fn run(&mut self, op: usize, trace: Option<&mut Trace>) -> Result<OpOutput, String>;
    /// Operations run once at the end of set-up.
    fn warmup(&self) -> Vec<usize>;
    /// Check outputs that cost too much to check inside the timed
    /// operations; called after set-up and after every cycle, outside
    /// the timed span. Returns one message per wrong output.
    fn verify(&mut self, _trace: Option<&mut Trace>) -> Vec<String> {
        Vec::new()
    }
}

/// The seed's orders of the cycles: each cycle is a fresh Fisher–Yates
/// shuffle driven by splitmix64 from the seed. Every cycle runs the
/// same operations, so counts per cycle are identical across seeds,
/// and a run averages over many orders rather than timing one.
pub struct Shuffle {
    state: u64,
}

impl Shuffle {
    pub fn new(seed: u64) -> Shuffle {
        Shuffle { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next cycle's order of `len` operations.
    pub fn cycle(&mut self, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Output checks shared by every phase of a run.
#[derive(Default)]
pub struct Checker {
    seen: HashMap<usize, OpOutput>,
    pub failed: u64,
    messages: Vec<String>,
}

impl Checker {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 5 {
            eprintln!("perfbench: failed operation: {msg}");
            self.messages.push(msg);
        }
    }

    /// Count a failure for an error, or for a diagnosis whose output
    /// differs from the last time the same input ran.
    pub fn check(
        &mut self,
        op: usize,
        label: &str,
        result: Result<OpOutput, String>,
    ) -> Option<OpOutput> {
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                self.fail(format!("{label}: {e}"));
                return None;
            }
        };
        if out != OpOutput::Other {
            let first = *self.seen.entry(op).or_insert(out);
            if first != out {
                self.fail(format!(
                    "{label}: output {out:?} differs from earlier {first:?}"
                ));
                return None;
            }
        }
        Some(out)
    }

    /// Count a failure for each message of [`Workload::verify`].
    pub fn verify(&mut self, w: &mut dyn Workload, trace: Option<&mut Trace>) {
        for msg in w.verify(trace) {
            self.fail(msg);
        }
    }
}

#[derive(Default)]
pub struct Phase {
    pub wall_s: f64,
    pub cpu_ms: f64,
    /// Latency in ms and the operation it belongs to.
    pub latencies: Vec<(f64, usize)>,
    /// Running totals at the end of each cycle.
    pub cycles: Vec<Mark>,
    /// Reference kernel time (ms) after each cycle, when calibrating.
    pub refs: Vec<f64>,
    pub explained: u64,
    pub interventions: u64,
    pub truths: u64,
}

/// Seconds, CPU milliseconds and operations since the phase started.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Mark {
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub ops: usize,
}

/// The run is read in this many windows of whole cycles; rates and the
/// median latency are medians over windows, so load from outside the
/// process that slows a minority of windows does not move them.
const WINDOWS: usize = 5;

/// Group cycle-end marks into windows of at least `total_s / k`
/// seconds each (the last may be longer); each window is the
/// difference between its end mark and the previous one.
pub fn windows(cycles: &[Mark], total_s: f64, k: usize) -> Vec<Mark> {
    let mut out = Vec::new();
    let mut last = Mark::default();
    for (i, m) in cycles.iter().enumerate() {
        let due = (out.len() + 1) as f64 * total_s / k as f64;
        if (m.wall_s >= due && out.len() + 1 < k) || i + 1 == cycles.len() {
            out.push(Mark {
                wall_s: m.wall_s - last.wall_s,
                cpu_ms: m.cpu_ms - last.cpu_ms,
                ops: m.ops - last.ops,
            });
            last = *m;
        }
    }
    out
}

/// Run whole cycles until `seconds` have passed and at least
/// `min_ops` operations completed (giving up on `min_ops` at four
/// times the time). With `calibrate`, the reference kernel runs after
/// every cycle; its time, like that of [`Workload::verify`], is left
/// out of the phase's wall and CPU time.
pub fn measure(
    w: &mut dyn Workload,
    shuffle: &mut Shuffle,
    seconds: f64,
    min_ops: usize,
    calibrate: bool,
    checker: &mut Checker,
    mut trace: Option<&mut Trace>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let cpu0 = procstat::cpu_ms()?;
    let start = Instant::now();
    let (mut paused_s, mut paused_cpu_ms) = (0.0, 0.0);
    loop {
        for op in shuffle.cycle(w.cycle_len()) {
            let label = w.label(op);
            let t = Instant::now();
            let result = match trace.as_deref_mut() {
                None => w.run(op, None),
                Some(tr) => {
                    tr.log.set_op(tr.ops);
                    tr.ops += 1;
                    tr.op_span = tr.log.open("op", None);
                    let r = w.run(op, Some(&mut *tr));
                    tr.log.close(tr.op_span);
                    r
                }
            };
            phase.latencies.push((t.elapsed().as_secs_f64() * 1e3, op));
            if let Some(OpOutput::Explained {
                interventions,
                truth,
                ..
            }) = checker.check(op, &label, result)
            {
                phase.explained += 1;
                phase.interventions += interventions;
                phase.truths += u64::from(truth);
            }
        }
        let mark = Mark {
            wall_s: start.elapsed().as_secs_f64() - paused_s,
            cpu_ms: procstat::cpu_ms()? - cpu0 - paused_cpu_ms,
            ops: phase.latencies.len(),
        };
        let pause = Instant::now();
        checker.verify(w, trace.as_deref_mut());
        if calibrate {
            phase.refs.push(reference::time_ms());
        }
        paused_s += pause.elapsed().as_secs_f64();
        paused_cpu_ms = procstat::cpu_ms()? - cpu0 - mark.cpu_ms;
        phase.cycles.push(mark);
        if mark.wall_s >= seconds && (mark.ops >= min_ops || mark.wall_s >= 4.0 * seconds) {
            break;
        }
    }
    let last = phase.cycles.last().expect("at least one cycle ran");
    phase.wall_s = last.wall_s;
    phase.cpu_ms = last.cpu_ms;
    Ok(phase)
}

pub type Metrics = Vec<(&'static str, f64, &'static str)>;

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Lines for standard error: the latency breakdown by operation.
    pub notes: Vec<String>,
}

type Build = fn() -> Result<Box<dyn Workload>, String>;

fn set_up(build: Build, checker: &mut Checker) -> Result<Box<dyn Workload>, String> {
    let mut w = build()?;
    for op in w.warmup() {
        let label = w.label(op);
        let r = w.run(op, None);
        checker.check(op, &label, r);
    }
    checker.verify(w.as_mut(), None);
    Ok(w)
}

/// The untraced run: every end-to-end metric. With `cpu_bound` (the
/// workload's wall time is CPU time), times are scaled to the
/// reference host: divided by the host's slowness over the run, the
/// median reference kernel time over [`reference::NOMINAL_MS`] (the
/// median, so that a call the host interrupted does not decide it),
/// and throughput is multiplied by it. A workload that mostly waits is
/// not scaled: there the kernel's own noise outweighs the drift.
pub fn run_untraced(
    build: Build,
    seed: u64,
    seconds: u64,
    cpu_bound: bool,
) -> Result<Report, String> {
    let mut checker = Checker::default();
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down first, so each one is timed
        // from the same state.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(set_up(build, &mut checker)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    let phase = measure(
        w.as_mut(),
        &mut Shuffle::new(seed),
        seconds as f64,
        MIN_OPS,
        cpu_bound,
        &mut checker,
        None,
    )?;
    let n = phase.latencies.len();
    let mut notes = breakdown(w.as_ref(), &phase);
    notes.push(format!("  set-ups: {setups:.3?} s"));
    let Some(p95) = stats::tail_percentile(n, 95.0).filter(|p| *p >= 95.0) else {
        return Err(format!(
            "only {n} operations completed; p95 needs {MIN_OPS}\n{}",
            notes.join("\n")
        ));
    };
    let slow = stats::median(&phase.refs).map_or(1.0, |ms| ms / reference::NOMINAL_MS);
    let mut sorted: Vec<f64> = phase.latencies.iter().map(|(l, _)| *l).collect();
    sorted.sort_by(f64::total_cmp);
    let pct = |p| stats::percentile(&sorted, p).expect("operations ran");
    let wins = windows(&phase.cycles, phase.wall_s, WINDOWS);
    let (mut rate, mut cpu, mut p50) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = 0;
    for w in &wins {
        let mut lat: Vec<f64> = phase.latencies[first..first + w.ops]
            .iter()
            .map(|(l, _)| *l)
            .collect();
        first += w.ops;
        lat.sort_by(f64::total_cmp);
        rate.push(w.ops as f64 / w.wall_s);
        cpu.push(w.cpu_ms / w.ops as f64);
        p50.push(stats::percentile(&lat, 50.0).expect("a window holds a cycle"));
    }
    let med = |v: &[f64]| stats::median(v).expect("at least one window");
    notes.push(format!(
        "  unscaled, over the whole run: {:.4} ops/s, p50 {:.4} ms, {:.4} cpu ms/op; by window: {rate:.2?} ops/s; host slowness {slow:.4}",
        n as f64 / phase.wall_s,
        pct(50.0),
        phase.cpu_ms / n as f64,
    ));
    let metrics = vec![
        ("ops_per_s", med(&rate) * slow, "1/s"),
        ("latency_p50_ms", med(&p50) / slow, "ms"),
        ("latency_p95_ms", pct(p95) / slow, "ms"),
        ("cpu_ms_per_op", med(&cpu) / slow, "ms"),
        ("peak_rss_mib", procstat::peak_rss_mib()?, "MiB"),
        (
            "setup_s",
            stats::median(&setups).expect("set-ups ran") / slow,
            "s",
        ),
        (
            "interventions_per_op",
            ratio(phase.interventions as f64, phase.explained as f64),
            "count",
        ),
        ("error_rate", checker.failed as f64 / n as f64, "ratio"),
        (
            "truth_rate",
            ratio(phase.truths as f64, phase.explained as f64),
            "ratio",
        ),
    ];
    drop(w);
    Ok(Report {
        attempted: n as u64,
        failed: checker.failed,
        metrics,
        notes,
    })
}

/// Where p50 and p95 fall: the operation kinds around each rank, so a
/// percentile sitting on the edge between two kinds shows.
fn breakdown(w: &dyn Workload, phase: &Phase) -> Vec<String> {
    let n = phase.latencies.len();
    let mut by_rank: Vec<&(f64, usize)> = phase.latencies.iter().collect();
    by_rank.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut notes = vec![format!(
        "{n} ops in {:.2} s, {} per cycle",
        phase.wall_s,
        w.cycle_len()
    )];
    let mut per_kind: Vec<(String, Vec<f64>)> = Vec::new();
    for (lat, op) in &phase.latencies {
        let label = w.label(*op);
        match per_kind.iter_mut().find(|(l, _)| *l == label) {
            Some((_, v)) => v.push(*lat),
            None => per_kind.push((label, vec![*lat])),
        }
    }
    for (label, v) in &per_kind {
        notes.push(format!(
            "  {label:<28} n={:<5} median {:.3} ms",
            v.len(),
            stats::median(v).unwrap_or(0.0)
        ));
    }
    for p in [50.0, 95.0] {
        let r = stats::rank(n, p) - 1;
        let around: Vec<String> = [-0.05f64, -0.02, 0.0, 0.02, 0.05]
            .iter()
            .map(|d| {
                let i = ((r as f64 + d * n as f64).round() as usize).min(n - 1);
                w.label(by_rank[i].1)
            })
            .collect();
        notes.push(format!(
            "  p{p}: kinds at -5%,-2%,0,+2%,+5% of ops: {around:?}"
        ));
    }
    notes
}

/// The traced run: untraced and traced cycles alternate for the run's
/// time, so both see the host in the same state and their rates
/// compare; every per-layer metric comes from the traced cycles. Spans
/// go to `spans_path`.
pub fn run_traced(
    build: Build,
    seed: u64,
    seconds: u64,
    spans_path: &std::path::Path,
) -> Result<Report, String> {
    let mut checker = Checker::default();
    let mut w = set_up(build, &mut checker)?;
    let mut shuffle = Shuffle::new(seed);
    let log = Arc::new(SpanLog::new());
    let mut trace = Trace {
        log: Arc::clone(&log),
        layers: Layers::default(),
        op_span: 0,
        ops: 0,
        beside_ns: 0,
    };
    let (mut plain_n, mut plain_s, mut traced_s) = (0, 0.0, 0.0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds as f64 {
        // No time and no operation count: one cycle each.
        let plain = measure(w.as_mut(), &mut shuffle, 0.0, 0, false, &mut checker, None)?;
        plain_n += plain.latencies.len();
        plain_s += plain.wall_s;
        let traced = measure(
            w.as_mut(),
            &mut shuffle,
            0.0,
            0,
            false,
            &mut checker,
            Some(&mut trace),
        )?;
        traced_s += traced.wall_s;
    }
    drop(w);
    log.write_jsonl(spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let spans = log.snapshot();
    let l = &trace.layers;
    let traced_n = trace.ops as usize;
    let plain_ops = plain_n as f64 / plain_s;
    let traced_ops = traced_n as f64 / (traced_s - trace.beside_ns as f64 / 1e9);

    let diag = l.diagnoses as f64;
    let mut evals = 0u64;
    let mut eval_ns = 0u64;
    let mut main_evals = 0u64;
    let mut search_self_ns = 0u64;
    for (id, s) in spans.iter().enumerate() {
        match s.name {
            "system.eval" => {
                evals += 1;
                eval_ns += s.duration_ns();
                main_evals += u64::from(s.main);
            }
            "search" => search_self_ns += spans::self_time_ns(&spans, id),
            _ => {}
        }
    }
    let ms = |ns: u64, n: f64| ratio(ns as f64 / 1e6, n);
    let p50 = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 50.0).unwrap_or(0.0)
    };
    let metrics = vec![
        (
            "discovery.ms_per_op",
            ms(l.discovery_ns, l.discovery_calls as f64),
            "ms",
        ),
        (
            "discovery.pair_tests_per_op",
            ratio(l.pair_tests as f64, l.discovery_calls as f64),
            "count",
        ),
        (
            "discovery.screened_ratio",
            ratio(l.screened as f64, l.pairs as f64),
            "ratio",
        ),
        (
            "discovery.candidates_per_op",
            ratio(l.candidates as f64, l.discovery_calls as f64),
            "count",
        ),
        ("lint.ms_per_op", ms(l.lint_ns, l.lint_calls as f64), "ms"),
        (
            "lint.commuting_pairs_per_op",
            ratio(l.commuting_pairs as f64, l.lint_calls as f64),
            "count",
        ),
        (
            "lint.pruned_per_op",
            ratio(l.prunable as f64, l.lint_calls as f64),
            "count",
        ),
        ("rank.ms_per_op", ms(l.rank_ns, l.rank_calls as f64), "ms"),
        (
            "transform.apply_us_per_pvt",
            ratio(l.apply_ns as f64 / 1e3, l.applied as f64),
            "us",
        ),
        (
            "oracle.fingerprint_us_per_frame",
            ratio(l.fingerprint_ns as f64 / 1e3, l.fingerprinted as f64),
            "us",
        ),
        (
            "oracle.cache_hit_ratio",
            ratio(l.cache_hits as f64, l.charged as f64),
            "ratio",
        ),
        (
            "oracle.warm_hit_ratio",
            ratio(l.warm_hits as f64, l.charged as f64),
            "ratio",
        ),
        ("system.evals_per_op", ratio(evals as f64, diag), "count"),
        ("system.eval_ms_per_op", ms(eval_ns, diag), "ms"),
        ("search.self_ms_per_op", ms(search_self_ns, diag), "ms"),
        (
            "runtime.main_evals_per_op",
            ratio(main_evals as f64, diag),
            "count",
        ),
        (
            "runtime.worker_evals_per_op",
            ratio((evals - main_evals) as f64, diag),
            "count",
        ),
        (
            "runtime.spec_used_ratio",
            ratio(l.spec_used as f64, l.spec_evaluated as f64),
            "ratio",
        ),
        ("serve.diagnose_rtt_p50_ms", p50(&l.serve_diagnose_ms), "ms"),
        ("serve.ingest_rtt_p50_ms", p50(&l.serve_ingest_ms), "ms"),
        ("serve.drift_rtt_p50_ms", p50(&l.serve_drift_ms), "ms"),
        ("serve.overhead_ms_per_op", p50(&l.serve_overhead_ms), "ms"),
        (
            "monitor.ingest_us_per_krow",
            ratio(
                l.monitor_ingest_ns as f64 / 1e3,
                l.monitor_rows as f64 / 1e3,
            ),
            "us",
        ),
        (
            "monitor.drift_check_ms",
            ms(l.monitor_drift_ns, l.monitor_drifts as f64),
            "ms",
        ),
        ("trace.untraced_ops_per_s", plain_ops, "1/s"),
        ("trace.traced_ops_per_s", traced_ops, "1/s"),
        (
            "trace.overhead_pct",
            100.0 * (plain_ops / traced_ops - 1.0),
            "%",
        ),
    ];
    Ok(Report {
        attempted: (plain_n + traced_n) as u64,
        failed: checker.failed,
        metrics,
        notes: vec![format!(
            "{plain_n} untraced ops in {plain_s:.2} s, {traced_n} traced ops in {traced_s:.2} s; spans in {}",
            spans_path.display()
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cycle_is_a_fresh_seeded_permutation() {
        let (mut a, mut b) = (Shuffle::new(7), Shuffle::new(7));
        let first = a.cycle(40);
        assert_eq!(first, b.cycle(40));
        assert_ne!(first, Shuffle::new(8).cycle(40));
        let second = a.cycle(40);
        assert_ne!(first, second);
        assert_eq!(second, b.cycle(40));
        for order in [first, second] {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        }
    }

    fn mark(wall_s: f64, ops: usize) -> Mark {
        Mark {
            wall_s,
            cpu_ms: wall_s * 1e3,
            ops,
        }
    }

    #[test]
    fn windows_are_whole_cycles_of_about_a_kth_of_the_run() {
        let cycles: Vec<Mark> = (1..=10).map(|i| mark(i as f64, 3 * i)).collect();
        let w = windows(&cycles, 10.0, 5);
        assert_eq!(w.len(), 5);
        assert!(w
            .iter()
            .all(|w| w.ops == 6 && w.wall_s == 2.0 && w.cpu_ms == 2e3));
        // A run extended past its time puts the overrun in the last
        // window; a run of one cycle is one window.
        let cycles: Vec<Mark> = (1..=12).map(|i| mark(i as f64, i)).collect();
        let w = windows(&cycles, 10.0, 5);
        assert_eq!(w.iter().map(|w| w.ops).collect::<Vec<_>>(), [2, 2, 2, 2, 4]);
        assert_eq!(windows(&[mark(30.0, 7)], 10.0, 5), [mark(30.0, 7)]);
        assert!(windows(&[], 10.0, 5).is_empty());
    }

    #[test]
    fn checker_flags_a_changed_output_for_the_same_input() {
        let mut c = Checker::default();
        let e = |digest| OpOutput::Explained {
            digest,
            interventions: 3,
            truth: true,
        };
        assert!(c.check(1, "a", Ok(e(9))).is_some());
        assert!(c.check(1, "a", Ok(e(9))).is_some());
        assert!(c.check(2, "b", Ok(OpOutput::NotApplicable)).is_some());
        assert_eq!(c.failed, 0);
        assert!(c.check(1, "a", Ok(e(10))).is_none());
        assert!(c.check(2, "b", Ok(e(9))).is_none());
        assert!(c.check(3, "c", Err("boom".into())).is_none());
        assert_eq!(c.failed, 3);
        // Non-diagnosis outputs carry nothing to compare.
        assert!(c.check(4, "d", Ok(OpOutput::Other)).is_some());
        assert_eq!(c.failed, 3);
    }
}
