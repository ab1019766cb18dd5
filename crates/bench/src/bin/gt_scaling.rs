//! Wall-clock scaling of group testing under speculative lookahead
//! (`gt_speculation_depth`), on the workloads where GT's serial
//! bisection is most query-bound: the §5.2 rank-54 adversarial
//! pipeline and the Fig 8 wide single-cause suite.
//!
//! A serial GT run blocks on ~2 oracle queries per bisection level.
//! With lookahead depth `d`, every cold node pre-bisects `d` extra
//! levels and scores the `2^(d+2) − 2` descendant half-compositions
//! concurrently, so one speculative wave warms `d + 1` levels of the
//! recursion — wall clock approaches `ceil(jobs / threads)` waves per
//! `d + 1` levels instead of `2 (d + 1)` sequential queries.
//!
//! The conformance contract makes the comparison meaningful: every
//! (threads, depth) cell is asserted byte-identical to the
//! `num_threads = 1` run — same interventions, same explanation, same
//! trace, same repaired frame — so the speedup is pure cache warming,
//! never a different search. Only the speculative/waste counters move.
//!
//! As in `parallel_scaling`, the system under diagnosis blocks for a
//! fixed interval per malfunction query, modeling the paper's setting
//! where every oracle query retrains a model.
//!
//! Usage: `cargo run --release -p dp-bench --bin gt_scaling
//! [--threads N] [--query-cost-ms C] [--smoke] [--adaptive-smoke]`
//!
//! `--smoke` skips the full matrix and runs the CI observability
//! gate instead: rank-54 at `--threads` width with tracing off vs
//! with a collecting sink, asserting the off run (the `NullSink`
//! default) is within 2% of the collecting run's wall clock.
//!
//! `--adaptive-smoke` runs the adaptive-executor CI gate: rank-54
//! and the 8-PVT conjunctive cause with a 10 ms oracle, asserting
//! the adaptive controller reproduces the serial digest bit for bit
//! (cold and on a repeat run) and that peak in-flight speculative
//! frames stay within the configured budget.

use dataprism::{
    explain_group_test_parallel_with_pvts, Explanation, PartitionStrategy, SpeculationMode, System,
    TraceConfig,
};
use dp_bench::{arg_value, format_row};
use dp_frame::DataFrame;
use dp_scenarios::synthetic::{
    adversarial_rank, conjunctive_cause, single_cause, single_cause_with_rows, SyntheticScenario,
    SyntheticSystem,
};
use std::time::{Duration, Instant};

/// A [`SyntheticSystem`] that blocks for a fixed interval per
/// malfunction query (see `parallel_scaling`).
#[derive(Clone)]
struct BlockingSystem {
    inner: SyntheticSystem,
    query_cost: Duration,
}

impl System for BlockingSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        std::thread::sleep(self.query_cost);
        self.inner.malfunction(df)
    }
}

fn run(
    scenario: &SyntheticScenario,
    query_cost: Duration,
    num_threads: usize,
    depth: usize,
    mode: SpeculationMode,
    budget: Option<usize>,
    trace: &TraceConfig,
) -> (f64, Explanation) {
    let base = BlockingSystem {
        inner: scenario.system.clone(),
        query_cost,
    };
    let factory = move || base.clone();
    let mut config = scenario.config.clone();
    config.num_threads = num_threads;
    config.gt_speculation_depth = depth;
    config.speculation = mode;
    config.speculation_budget = budget;
    config.trace = trace.clone();
    let start = Instant::now();
    let explanation = explain_group_test_parallel_with_pvts(
        &factory,
        &scenario.d_fail,
        &scenario.d_pass,
        scenario.pvts.clone(),
        &config,
        PartitionStrategy::MinBisection,
    )
    .expect("scaling workloads resolve");
    (start.elapsed().as_secs_f64(), explanation)
}

fn assert_conformant(workload: &str, depth: usize, serial: &Explanation, par: &Explanation) {
    assert_eq!(
        serial.interventions, par.interventions,
        "{workload} depth={depth}: speculation must not change the intervention count"
    );
    assert_eq!(
        serial.pvt_ids(),
        par.pvt_ids(),
        "{workload} depth={depth}: speculation must not change the explanation"
    );
    assert_eq!(
        serial.trace, par.trace,
        "{workload} depth={depth}: speculation must not change the trace"
    );
    assert_eq!(
        serial.final_score.to_bits(),
        par.final_score.to_bits(),
        "{workload} depth={depth}: speculation must not change the final score"
    );
}

/// The CI observability gate: `NullSink` (trace off, the default)
/// must add no measurable overhead. The pre-trace wall clock is not
/// reproducible in this binary, but a run with a collecting sink
/// attached strictly includes all the work of an untraced run plus
/// the tracing itself, so it upper-bounds that baseline: the off run
/// staying within 2% of the collecting run bounds the `NullSink`
/// overhead below 2%. Both runs are also asserted bit-identical in
/// outcome (the trace-parity contract).
fn smoke(threads: usize, query_cost: Duration) {
    const REPS: usize = 3;
    let scenario = adversarial_rank(54, 3);
    let depth = 2;
    let best = |trace: &TraceConfig| -> (f64, Explanation) {
        let mut min_s = f64::INFINITY;
        let mut last = None;
        for _ in 0..REPS {
            let (s, exp) = run(
                &scenario,
                query_cost,
                threads,
                depth,
                SpeculationMode::Static,
                None,
                trace,
            );
            min_s = min_s.min(s);
            last = Some(exp);
        }
        (min_s, last.expect("REPS > 0"))
    };
    let (off_s, off) = best(&TraceConfig::Off);
    let (collect_s, collected) = best(&TraceConfig::Collect);
    assert_conformant("sec5.2 rank-54 (traced)", depth, &off, &collected);
    assert!(
        off.trace_records.is_empty() && !collected.trace_records.is_empty(),
        "smoke must compare an untraced run against a collecting run"
    );
    let overhead = off_s / collect_s - 1.0;
    println!(
        "NullSink smoke: rank-54 @ {threads} threads, depth {depth}, best of {REPS}:\n\
         trace off {off_s:.3}s vs collect {collect_s:.3}s ({:+.2}% relative)",
        overhead * 100.0
    );
    assert!(
        off_s <= collect_s * 1.02,
        "NullSink overhead gate: off run {off_s:.3}s exceeds collecting run \
         {collect_s:.3}s by more than 2%"
    );
    println!("NullSink overhead within 2%: ok");
}

/// The adaptive-executor CI gate: with a 10 ms oracle on the rank-54
/// and 8-PVT conjunctive workloads, the latency-driven controller
/// must reproduce the serial explanation digest bit for bit — cold
/// and again on a repeat run — while peak in-flight speculative
/// frames stay within the configured budget (plus at most one
/// unsheddable frame already executing per worker). Wall clock
/// against the best static depth is printed for the bench logs; the
/// hard gate is parity and the bound.
fn adaptive_smoke(threads: usize, query_cost: Duration) {
    let cap = 4;
    // The adaptive default budget, spelled out so the bound we assert
    // is the bound the executor was actually configured with.
    let budget = (8 * threads).max(32);
    let workloads: Vec<(String, SyntheticScenario)> = vec![
        ("sec5.2 rank-54".into(), adversarial_rank(54, 3)),
        ("fig9c conj-8".into(), conjunctive_cause(64, 64, 8, 7)),
    ];
    for (workload, scenario) in &workloads {
        let (serial_s, serial) = run(
            scenario,
            query_cost,
            1,
            0,
            SpeculationMode::Static,
            None,
            &TraceConfig::Off,
        );
        let mut best_static = f64::INFINITY;
        let mut static_cells = String::new();
        for depth in [0usize, 1, 2, 4] {
            let (s, par) = run(
                scenario,
                query_cost,
                threads,
                depth,
                SpeculationMode::Static,
                None,
                &TraceConfig::Off,
            );
            assert_conformant(workload, depth, &serial, &par);
            static_cells.push_str(&format!(
                " d{depth}={s:.3}s[u{}/e{}]",
                par.metrics.speculative_used, par.metrics.speculative_evaluated
            ));
            best_static = best_static.min(s);
        }
        println!("adaptive smoke: {workload}: static{static_cells}");
        let adaptive_cell = || {
            run(
                scenario,
                query_cost,
                threads,
                cap,
                SpeculationMode::Adaptive,
                Some(budget),
                &TraceConfig::Off,
            )
        };
        let (adaptive_s, adaptive) = adaptive_cell();
        assert_conformant(workload, cap, &serial, &adaptive);
        assert_eq!(
            serial.digest(),
            adaptive.digest(),
            "{workload}: adaptive digest diverged from serial"
        );
        let (_, again) = adaptive_cell();
        assert_eq!(
            adaptive.digest(),
            again.digest(),
            "{workload}: adaptive digest unstable across runs"
        );
        let peak = adaptive.metrics.peak_inflight;
        assert!(
            peak <= (budget + threads) as u64,
            "{workload}: peak in-flight {peak} exceeds budget {budget} + {threads} workers"
        );
        println!(
            "adaptive smoke: {workload}: serial {serial_s:.3}s, best static {best_static:.3}s, \
             adaptive {adaptive_s:.3}s ({:.2}x vs best static), peak in-flight {peak} <= \
             {budget}+{threads}",
            best_static / adaptive_s
        );
    }
    println!("adaptive executor gate: ok");
}

fn main() {
    let threads = arg_value("--threads", 8);
    if std::env::args().any(|a| a == "--adaptive-smoke") {
        // The ISSUE gate's regime: a 10 ms oracle, where deep
        // speculation pays and backpressure matters.
        let query_cost = Duration::from_millis(arg_value("--query-cost-ms", 10) as u64);
        adaptive_smoke(threads, query_cost);
        return;
    }
    let query_cost = Duration::from_millis(arg_value("--query-cost-ms", 25) as u64);
    if std::env::args().any(|a| a == "--smoke") {
        smoke(threads, query_cost);
        return;
    }
    let depths = [0usize, 1, 2, 4];

    let workloads: Vec<(String, SyntheticScenario)> = vec![
        ("sec5.2 rank-54".into(), adversarial_rank(54, 3)),
        ("fig8 m=200".into(), single_cause(200, 200, 11)),
        // An 8-PVT conjunctive cause spread across the dependency
        // graph: the search must keep BOTH halves alive at most
        // nodes, so the lookahead frontier is consumed nearly in
        // full — the regime where depth >= 2 shines.
        ("fig9c conj-8".into(), conjunctive_cause(64, 64, 8, 7)),
        // 10^6 rows: the speculative frontier holds frames that are
        // copy-on-write chunk-shared clones of D_fail, so deep
        // lookahead stays memory-bounded even at dataset sizes where
        // eager copies would not fit.
        (
            "fig8 rows=10^6".into(),
            single_cause_with_rows(16, 8, 1_000_000, 11),
        ),
    ];

    println!(
        "GT speculative lookahead: {} ms blocking per oracle query,\n\
         serial (1 thread, depth 0) vs {threads} threads at depth 0/1/2/4\n",
        query_cost.as_millis()
    );
    let widths = [16, 7, 10, 9, 9, 13, 8];
    println!(
        "{}",
        format_row(
            &[
                "workload".into(),
                "depth".into(),
                "wall s".into(),
                "speedup".into(),
                "intervs".into(),
                "speculative".into(),
                "wasted".into(),
            ],
            &widths
        )
    );

    // Best speedup per workload at depth >= 2: the acceptance gate
    // asks for >= 3x on at least one rank-54/wide workload.
    let mut best_deep = f64::MIN;
    for (workload, scenario) in &workloads {
        let (serial_s, serial) = run(
            scenario,
            query_cost,
            1,
            0,
            SpeculationMode::Static,
            None,
            &TraceConfig::Off,
        );
        println!(
            "{}",
            format_row(
                &[
                    workload.clone(),
                    "serial".into(),
                    format!("{serial_s:.3}"),
                    "1.00x".into(),
                    serial.interventions.to_string(),
                    serial.metrics.speculative_evaluated.to_string(),
                    serial.metrics.speculative_wasted.to_string(),
                ],
                &widths
            )
        );
        for &depth in &depths {
            let (par_s, par) = run(
                scenario,
                query_cost,
                threads,
                depth,
                SpeculationMode::Static,
                None,
                &TraceConfig::Off,
            );
            assert_conformant(workload, depth, &serial, &par);
            let speedup = serial_s / par_s;
            if depth >= 2 {
                best_deep = best_deep.max(speedup);
            }
            println!(
                "{}",
                format_row(
                    &[
                        String::new(),
                        depth.to_string(),
                        format!("{par_s:.3}"),
                        format!("{speedup:.2}x"),
                        par.interventions.to_string(),
                        par.metrics.speculative_evaluated.to_string(),
                        par.metrics.speculative_wasted.to_string(),
                    ],
                    &widths
                )
            );
        }
    }

    println!("\nbest speedup at {threads} threads, depth >= 2: {best_deep:.2}x");
    // Acceptance gate for the default 8-thread CI configuration;
    // narrower widths legitimately top out lower.
    if threads >= 8 {
        assert!(
            best_deep >= 3.0,
            "GT lookahead must reach >= 3x at {threads} threads, depth >= 2 \
             (got {best_deep:.2}x)"
        );
    }
}
