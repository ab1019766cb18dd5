//! Every call the benchmark makes into the DataPrism crates goes
//! through this file, so a change to the library's entry points is a
//! change here and nowhere else in the benchmark.

use crate::spans::SpanLog;
use dataprism::graph::PvtAttributeGraph;
use dataprism::{PartitionStrategy, System, SystemFactory};
use dp_scenarios::synthetic;
use dp_serve::{Client, ServeConfig, Server};
use dp_trace::JsonValue;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use dataprism::{Explanation, PrismConfig, PrismError, Pvt, ScoreCache};
pub use dp_frame::DataFrame;
pub use dp_monitor::Watcher;
pub use dp_scenarios::synthetic::SyntheticScenario;
pub use dp_scenarios::Scenario;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Grd,
    Gt,
}

impl Algo {
    pub const BOTH: [Algo; 2] = [Algo::Grd, Algo::Gt];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Grd => "grd",
            Algo::Gt => "gt",
        }
    }

    fn wire(self) -> &'static str {
        match self {
            Algo::Grd => "greedy",
            Algo::Gt => "group_test",
        }
    }
}

/// What one diagnosis produced, once the error cases the paper
/// expects are told apart from real failures.
pub enum Diagnosis {
    Explained(Box<Explanation>),
    /// Group testing refused with the typed A3 violation: the paper's
    /// "NA" cell.
    NotApplicable,
}

pub fn classify(result: Result<Explanation, PrismError>) -> Result<Diagnosis, String> {
    match result {
        Ok(e) => Ok(Diagnosis::Explained(Box::new(e))),
        Err(PrismError::AssumptionViolated(_)) => Ok(Diagnosis::NotApplicable),
        Err(e) => Err(e.to_string()),
    }
}

// ---------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------

/// The scenario `dp_serve` registers for `key` at its default size.
pub fn served_case(key: &str) -> Result<Scenario, String> {
    dp_serve::registry::build_scenario(key, None, None)
        .ok_or_else(|| format!("unknown served scenario '{key}'"))
}

pub const SERVED_CASES: [&str; 6] = dp_serve::SCENARIOS;

/// The explanation's content digest: equal digests mean the same
/// conclusion reached through the same charged decisions.
pub fn digest(e: &Explanation) -> u64 {
    e.digest()
}

pub fn case_truth(scenario: &Scenario, e: &Explanation) -> bool {
    scenario.explains_ground_truth(e)
}

/// A synthetic pipeline whose cause is a conjunction of `cause_size`
/// planted PVTs (a single cause when 1).
pub fn synthetic(
    attributes: usize,
    plants: usize,
    cause_size: usize,
    rows: usize,
    seed: u64,
) -> SyntheticScenario {
    if cause_size == 1 {
        synthetic::single_cause_with_rows(attributes, plants, rows, seed)
    } else {
        synthetic::conjunctive_cause_with_rows(attributes, plants, cause_size, rows, seed)
    }
}

/// Planted-cause check for a run given the pre-built candidates, whose
/// ids are plant indices.
pub fn synthetic_truth_given(sc: &SyntheticScenario, e: &Explanation) -> bool {
    sc.covers_cause(&e.pvt_ids())
}

// ---------------------------------------------------------------
// The instrumented system
// ---------------------------------------------------------------

/// Wraps the system under diagnosis. It can block for a fixed time on
/// each evaluation (a remote pipeline run) and, in the traced run,
/// records each evaluation as a span on the thread that ran it.
pub struct Instrumented {
    inner: Box<dyn System + Send>,
    sleep: Option<Duration>,
    log: Option<Arc<SpanLog>>,
}

impl System for Instrumented {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        let start = Instant::now();
        if let Some(d) = self.sleep {
            std::thread::sleep(d);
        }
        let score = self.inner.malfunction(df);
        if let Some(log) = &self.log {
            log.eval(start, Instant::now());
        }
        score
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Builds [`Instrumented`] systems around another factory.
pub struct InstrumentedFactory {
    inner: Box<dyn SystemFactory + Send + Sync>,
    sleep: Option<Duration>,
    log: Option<Arc<SpanLog>>,
}

impl InstrumentedFactory {
    pub fn new(inner: Box<dyn SystemFactory + Send + Sync>, sleep: Option<Duration>) -> Self {
        InstrumentedFactory {
            inner,
            sleep,
            log: None,
        }
    }

    pub fn set_log(&mut self, log: Option<Arc<SpanLog>>) {
        self.log = log;
    }
}

impl SystemFactory for InstrumentedFactory {
    fn build(&self) -> Box<dyn System + Send> {
        Box::new(Instrumented {
            inner: self.inner.build(),
            sleep: self.sleep,
            log: self.log.clone(),
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

pub fn case_factory(scenario: &mut Scenario) -> Box<dyn SystemFactory + Send + Sync> {
    // The factory is moved out; the scenario keeps a dummy so it stays
    // usable for its data and ground truth.
    std::mem::replace(&mut scenario.factory, Box::new(|| |_: &DataFrame| 0.0))
}

pub fn synthetic_factory(sc: &SyntheticScenario) -> Box<dyn SystemFactory + Send + Sync> {
    let system = sc.system.clone();
    Box::new(move || system.clone())
}

// ---------------------------------------------------------------
// Diagnosis entry points
// ---------------------------------------------------------------

/// Diagnosis on the parallel runtime (`config.num_threads` wide) with
/// given candidates.
pub fn diagnose_parallel_with_pvts(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    pvts: Vec<Pvt>,
    config: &PrismConfig,
    algo: Algo,
) -> Result<Explanation, PrismError> {
    match algo {
        Algo::Grd => {
            dataprism::explain_greedy_parallel_with_pvts(factory, d_fail, d_pass, pvts, config)
        }
        Algo::Gt => dataprism::explain_group_test_parallel_with_pvts(
            factory,
            d_fail,
            d_pass,
            pvts,
            config,
            PartitionStrategy::MinBisection,
        ),
    }
}

/// The parallel runtime warm-started from (and absorbing into) a
/// cross-run cache: what `dp_serve` runs for a `diagnose` request.
pub fn diagnose_cached(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    config: &PrismConfig,
    algo: Algo,
    cache: &mut ScoreCache,
) -> Result<Explanation, PrismError> {
    match algo {
        Algo::Grd => {
            dataprism::explain_greedy_parallel_cached(factory, d_fail, d_pass, config, cache)
        }
        Algo::Gt => dataprism::explain_group_test_parallel_cached(
            factory,
            d_fail,
            d_pass,
            config,
            PartitionStrategy::MinBisection,
            cache,
        ),
    }
}

pub struct DiscoveryCounts {
    pub pairs: u64,
    pub pair_tests: u64,
    pub screened: u64,
}

/// Discriminative-PVT discovery, serial.
pub fn discover(
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    config: &PrismConfig,
) -> (Vec<Pvt>, DiscoveryCounts) {
    let (pvts, stats) =
        dataprism::discovery::discriminative_pvts_stats(d_pass, d_fail, &config.discovery, 1);
    let counts = DiscoveryCounts {
        pairs: stats.pairs as u64,
        pair_tests: stats.tests() as u64,
        screened: stats.screened() as u64,
    };
    (pvts, counts)
}

// ---------------------------------------------------------------
// Layers timed beside a diagnosis
// ---------------------------------------------------------------

pub struct LintCounts {
    pub commuting_pairs: u64,
    /// Candidates `Lint::Prune` would drop: Error findings plus
    /// equivalence-class members beyond each representative.
    pub prunable: u64,
}

pub fn lint(pvts: &[Pvt], d_fail: &DataFrame, tau: f64) -> LintCounts {
    let d = dataprism::lint_pvts(pvts, d_fail, tau);
    let subsumable: usize = d
        .equivalence
        .iter()
        .map(|c| c.len().saturating_sub(1))
        .sum();
    LintCounts {
        commuting_pairs: d.commuting.len() as u64,
        prunable: (d.error_pvt_ids().len() + subsumable) as u64,
    }
}

/// Benefit ranking plus the PVT dependency graph; returns the edge
/// count so the work cannot be optimised away.
pub fn rank(pvts: &[Pvt], d_fail: &DataFrame) -> usize {
    let scores = dataprism::benefit::benefit_scores(pvts, d_fail);
    let edges = PvtAttributeGraph::new(pvts).dependency_edges();
    scores.len() + edges.len()
}

/// Materialise one candidate's transformation of `d_fail`.
pub fn apply(pvt: &Pvt, d_fail: &DataFrame, seed: u64) -> Result<DataFrame, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    pvt.apply(d_fail, &mut rng)
        .map(|(df, _)| df)
        .map_err(|e| e.to_string())
}

pub fn fingerprint(df: &DataFrame) -> u64 {
    dataprism::fingerprint(df)
}

/// Oracle counters of a finished run: charged queries, cache hits,
/// warm hits, speculative evaluations and how many of them were used.
pub fn oracle_counts(e: &Explanation) -> [u64; 5] {
    let m = &e.metrics;
    [
        m.charged_queries,
        m.cache_hits,
        m.warm_hits,
        m.speculative_evaluated,
        m.speculative_used,
    ]
}

// ---------------------------------------------------------------
// Continuous monitoring
// ---------------------------------------------------------------

pub fn rows(df: &DataFrame, range: std::ops::Range<usize>) -> Result<DataFrame, String> {
    df.take(&range.collect::<Vec<_>>())
        .map_err(|e| e.to_string())
}

pub fn n_rows(df: &DataFrame) -> usize {
    df.n_rows()
}

pub fn to_csv(df: &DataFrame) -> Result<String, String> {
    let mut out = Vec::new();
    dp_frame::csv::write_csv(df, &mut out).map_err(|e| e.to_string())?;
    String::from_utf8(out).map_err(|e| e.to_string())
}

/// A watcher with the daemon's defaults for `watch` without options.
pub fn watcher(scenario: &Scenario) -> Watcher {
    Watcher::new(
        scenario.d_pass.clone(),
        scenario.config.clone(),
        dp_monitor::MonitorConfig::default(),
    )
}

pub fn watcher_ingest(w: &mut Watcher, batch: DataFrame) -> Result<(), String> {
    w.ingest(batch, &dp_trace::Tracer::off())
        .map_err(|e| e.to_string())
}

pub fn watcher_drift(w: &mut Watcher) -> Vec<usize> {
    w.check_drift(&dp_trace::Tracer::off()).drifted()
}

// ---------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------

/// An in-process `dp_serve` daemon on an ephemeral localhost port
/// with one client connection. Dropping it shuts the daemon down and
/// waits for its threads.
pub struct Daemon {
    server: Option<Server>,
    client: Option<Client>,
}

pub struct DiagnoseReply {
    pub digest: u64,
    pub interventions: u64,
    pub charged: u64,
    pub hits: u64,
    pub warm_hits: u64,
}

pub enum Served {
    Explained(DiagnoseReply),
    NotApplicable,
}

fn io(e: std::io::Error) -> String {
    format!("daemon i/o: {e}")
}

fn field(v: &JsonValue, key: &str) -> Result<u64, String> {
    dp_serve::field_u64(v, key).ok_or_else(|| format!("reply lacks '{key}'"))
}

fn ok_reply(v: JsonValue) -> Result<JsonValue, String> {
    if dp_serve::is_ok(&v) {
        Ok(v)
    } else {
        Err(format!("non-ok reply: {v:?}"))
    }
}

impl Daemon {
    pub fn start() -> Result<Daemon, String> {
        let server = Server::start(ServeConfig::default()).map_err(io)?;
        let client = Client::connect(server.local_addr()).map_err(io)?;
        Ok(Daemon {
            server: Some(server),
            client: Some(client),
        })
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("client lives until drop")
    }

    pub fn register(&mut self, system: &str, scenario: &str) -> Result<(), String> {
        ok_reply(
            self.client()
                .register(system, scenario, None, None)
                .map_err(io)?,
        )
        .map(drop)
    }

    pub fn diagnose(&mut self, system: &str, algo: Algo, threads: usize) -> Result<Served, String> {
        let v = self
            .client()
            .diagnose(system, algo.wire(), Some(threads))
            .map_err(io)?;
        if !dp_serve::is_ok(&v) {
            let code = v.get("code").and_then(|c| c.as_str());
            let detail = v.get("error").and_then(|c| c.as_str()).unwrap_or("");
            // The typed A3 refusal crosses the wire as a failed
            // diagnosis carrying the error's text.
            if code == Some("diagnosis_failed") && detail.starts_with("assumption violated") {
                return Ok(Served::NotApplicable);
            }
            return Err(format!("non-ok reply: {v:?}"));
        }
        Ok(Served::Explained(DiagnoseReply {
            digest: field(&v, "digest")?,
            interventions: field(&v, "interventions")?,
            charged: field(&v, "charged_queries")?,
            hits: field(&v, "cache_hits")?,
            warm_hits: field(&v, "warm_hits")?,
        }))
    }

    pub fn watch(&mut self, system: &str) -> Result<(), String> {
        ok_reply(self.client().watch(system, None, None).map_err(io)?).map(drop)
    }

    /// Append a CSV batch; returns the daemon's batch count.
    pub fn ingest(&mut self, system: &str, csv: &str) -> Result<u64, String> {
        let v = ok_reply(self.client().ingest(system, csv).map_err(io)?)?;
        field(&v, "batches")
    }

    /// Drift check without escalation; returns the drifted profile
    /// indices.
    pub fn drift(&mut self, system: &str) -> Result<Vec<usize>, String> {
        let v = ok_reply(self.client().drift(system, false, "greedy").map_err(io)?)?;
        if v.get("diagnosed").and_then(|b| b.as_bool()) != Some(false) {
            return Err(format!("drift check escalated: {v:?}"));
        }
        match v.get("drifted") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(|| "bad drifted id".to_string())
                })
                .collect(),
            _ => Err("reply lacks 'drifted'".to_string()),
        }
    }

    /// The daemon's cache namespace for `system`, copied exactly.
    pub fn snapshot(&mut self, system: &str) -> Result<ScoreCache, String> {
        let text = self.client().snapshot(system).map_err(io)?;
        ScoreCache::from_snapshot(&text).map_err(|e| e.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Close the connection first so the daemon has nothing left to
        // drain; errors only mean it is already gone.
        if let Some(mut client) = self.client.take() {
            let _ = client.shutdown();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}
