//! The server-side system registry: named diagnosis targets, each
//! with its own server-resident cache namespace.
//!
//! A `register` request binds a client-chosen name to one of the
//! bundled evaluation scenarios (built at a requested size and seed,
//! so tests can register cheap instances). Each registered system
//! owns an [`LruScoreCache`] namespace; diagnoses against the same
//! name share it, diagnoses against different names never touch each
//! other's entries.
//!
//! The pre-query stage runs once per spec. Step 1 of the paper's §4.1
//! depends only on the two datasets and the discovery configuration,
//! and the lint verdict, dependency graph and benefit ranking of the
//! candidates only on them, `D_fail`, the lint mode and τ, all of
//! which a [`SystemSpec`] fixes. So `register` discovers the
//! discriminative candidates and prepares them into a [`Ranked`]
//! record, and every `diagnose` searches that record. The one
//! discovery's pre-filter counters and the one preparation's
//! `candidates_prepared` are counted at `register`, and a
//! re-`register` builds a new spec and so discovers and prepares
//! again.
//!
//! Counters live in one place: an entry's `totals` is a
//! [`RunMetrics`] that every completed diagnosis merges its
//! explanation's metrics into, that takes in each spec's discovery
//! and preparation counters at `register`, and that takes in a watcher's
//! monitoring counters when a re-`watch` retires it.
//! [`SystemEntry::metrics`] adds the live watcher's counters, and
//! both the `stats` reply and the Prometheus scrape's counters render
//! from it, so the two cannot disagree.
//!
//! Locking discipline: the registry map lock is held only to look up
//! or insert an `Arc` entry; each entry has its own lock, held only
//! to copy the cache out before a diagnosis and absorb results back
//! after — never across a system evaluation. A client thread that
//! panics mid-diagnosis therefore cannot leave a namespace
//! half-updated, and poisoned locks are recovered (the protected
//! state is always consistent at unlock points).

use crate::lru::LruScoreCache;
use dataprism::discovery::discriminative_pvts_stats;
use dataprism::{PrismConfig, Ranked, RunMetrics, SystemFactory};
use dp_frame::DataFrame;
use dp_monitor::Watcher;
use dp_scenarios::Scenario;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Recover from lock poisoning: every critical section in this crate
/// leaves the protected state consistent, so a panic elsewhere must
/// not cascade into every future request.
pub(crate) fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The immutable part of a registered system: what a diagnosis needs,
/// shareable across racing connection threads without holding the
/// namespace lock.
pub struct SystemSpec {
    /// Scenario key this system was built from (`income`, …).
    pub scenario: String,
    /// Dataset the system functions properly on.
    pub d_pass: DataFrame,
    /// Dataset the system malfunctions on.
    pub d_fail: DataFrame,
    /// The scenario's diagnosis configuration.
    pub config: PrismConfig,
    /// Builds fresh system instances for the parallel runtime.
    pub factory: Box<dyn SystemFactory + Send + Sync>,
    /// The discriminative PVTs of `d_pass` and `d_fail` under
    /// `config.discovery`, discovered and prepared once at `register`;
    /// every `diagnose` of this spec searches them.
    pub ranked: Arc<Ranked>,
}

/// Mutable per-system state guarded by the namespace lock.
pub struct SystemEntry {
    /// The shared immutable spec.
    pub spec: Arc<SystemSpec>,
    /// This system's server-resident cache namespace.
    pub cache: LruScoreCache,
    /// Diagnoses completed against this system.
    pub diagnoses: u64,
    /// The counters of every spec's discovery and preparation, of
    /// every completed diagnosis (both `diagnose` and a drift-escalated
    /// one) and of every watcher a later `watch` retired, merged.
    /// [`SystemEntry::metrics`] adds the live watcher's.
    pub totals: RunMetrics,
    /// The live stream watcher, installed by `watch`. `None` until a
    /// client opts in to continuous monitoring.
    pub watcher: Option<Watcher>,
}

impl SystemEntry {
    /// Install `watcher`. The retiring watcher's counters move into
    /// `totals`, so the namespace's monitoring totals survive a
    /// re-`watch`, as its cache survives re-registration.
    pub fn watch(&mut self, watcher: Watcher) {
        if let Some(retired) = self.watcher.replace(watcher) {
            self.totals.merge(retired.metrics());
        }
    }

    /// The namespace's cumulative counters: `totals` plus the live
    /// watcher's. `stats` and the `metrics` scrape both render these.
    pub fn metrics(&self) -> RunMetrics {
        let mut metrics = self.totals.clone();
        if let Some(watcher) = &self.watcher {
            metrics.merge(watcher.metrics());
        }
        metrics
    }
}

/// Scenario keys `register` accepts.
pub const SCENARIOS: [&str; 6] = [
    "example1",
    "sentiment",
    "income",
    "cardio",
    "ezgo",
    "sensors",
];

/// Build a bundled scenario by key. `rows`/`seed` default to small,
/// serving-friendly sizes (the full-size variants are the bench
/// harness's business).
pub fn build_scenario(key: &str, rows: Option<usize>, seed: Option<u64>) -> Option<Scenario> {
    use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment};
    let s = seed;
    Some(match key {
        "example1" => example1::scenario(),
        "sentiment" => sentiment::scenario_with_size(rows.unwrap_or(240), s.unwrap_or(11)),
        "income" => income::scenario_with_size(rows.unwrap_or(300), s.unwrap_or(7)),
        "cardio" => cardio::scenario_with_size(rows.unwrap_or(300), s.unwrap_or(5)),
        "ezgo" => ezgo::scenario_with_size(rows.unwrap_or(400), s.unwrap_or(2)),
        "sensors" => sensors::scenario_with_size(rows.unwrap_or(250), s.unwrap_or(4)),
        _ => return None,
    })
}

/// All registered systems, by client-chosen name.
pub struct Registry {
    systems: Mutex<HashMap<String, Arc<Mutex<SystemEntry>>>>,
    /// Byte budget for each newly created cache namespace.
    budget_bytes: usize,
}

impl Registry {
    /// An empty registry whose namespaces are bounded by
    /// `budget_bytes` each.
    pub fn new(budget_bytes: usize) -> Registry {
        Registry {
            systems: Mutex::new(HashMap::new()),
            budget_bytes,
        }
    }

    /// Register (or re-register) `name` as an instance of scenario
    /// `key` ([`build_scenario`]). Returns `None` if the scenario key
    /// is unknown, else [`Registry::register_scenario`]'s count.
    pub fn register(
        &self,
        name: &str,
        key: &str,
        rows: Option<usize>,
        seed: Option<u64>,
    ) -> Option<usize> {
        let scenario = build_scenario(key, rows, seed)?;
        Some(self.register_scenario(name, key, scenario))
    }

    /// Register (or re-register) `name` as `scenario`, labelled `key`,
    /// discovering and preparing its candidates outside every lock.
    /// Re-registering replaces the spec, and so prepares again, but
    /// **keeps** the existing cache namespace — same scenario key,
    /// rows, and seed produce the same system, and a changed spec
    /// changes the fingerprints anyway, so stale entries are merely
    /// unused. Returns the namespace's resident cache entries.
    pub fn register_scenario(&self, name: &str, key: &str, scenario: Scenario) -> usize {
        let (candidates, stats) = discriminative_pvts_stats(
            &scenario.d_pass,
            &scenario.d_fail,
            &scenario.config.discovery,
            1,
        );
        let mut work = RunMetrics::default();
        stats.count_into(&mut work);
        let ranked = Ranked::new(candidates, &scenario.d_fail, &scenario.config, &mut work);
        let spec = Arc::new(SystemSpec {
            scenario: key.to_string(),
            d_pass: scenario.d_pass,
            d_fail: scenario.d_fail,
            config: scenario.config,
            factory: scenario.factory,
            ranked: Arc::new(ranked),
        });
        let mut systems = lock_or_recover(&self.systems);
        let entry = systems
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(Mutex::new(SystemEntry {
                    spec: Arc::clone(&spec),
                    cache: LruScoreCache::with_budget(self.budget_bytes),
                    diagnoses: 0,
                    totals: RunMetrics::default(),
                    watcher: None,
                }))
            })
            .clone();
        drop(systems);
        let mut entry = lock_or_recover(&entry);
        entry.totals.merge(&work);
        entry.spec = spec;
        entry.cache.len()
    }

    /// Look up a registered system's entry.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<SystemEntry>>> {
        lock_or_recover(&self.systems).get(name).cloned()
    }

    /// Names of all registered systems, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock_or_recover(&self.systems).keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot every namespace (for the shutdown flush): sorted
    /// `(name, snapshot_text)` pairs.
    pub fn snapshot_all(&self) -> Vec<(String, String)> {
        self.names()
            .into_iter()
            .filter_map(|name| {
                let entry = self.get(&name)?;
                let entry = lock_or_recover(&entry);
                Some((name, entry.cache.to_score_cache().to_snapshot()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_and_names() {
        let reg = Registry::new(1 << 20);
        assert!(reg.register("inc", "income", Some(60), Some(7)).is_some());
        assert!(reg.register("ex", "example1", None, None).is_some());
        assert!(reg
            .register("bad", "no-such-scenario", None, None)
            .is_none());
        assert_eq!(reg.names(), vec!["ex".to_string(), "inc".to_string()]);
        assert!(reg.get("inc").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn reregister_keeps_the_namespace() {
        let reg = Registry::new(1 << 20);
        reg.register("inc", "income", Some(60), Some(7)).unwrap();
        {
            let entry = reg.get("inc").unwrap();
            lock_or_recover(&entry).cache.insert(42, 0.5);
        }
        let resident = reg.register("inc", "income", Some(60), Some(7)).unwrap();
        assert_eq!(resident, 1, "cache survives re-registration");
    }

    #[test]
    fn every_scenario_reads_back_exactly_through_csv_ingest() {
        // `ingest` parses a batch against the watched `d_pass` schema;
        // a scenario's own rows written as CSV come back unchanged.
        for key in SCENARIOS {
            let scenario = build_scenario(key, None, None).unwrap();
            for df in [&scenario.d_pass, &scenario.d_fail] {
                let mut csv = Vec::new();
                dp_frame::csv::write_csv(df, &mut csv).unwrap();
                let fields: Vec<(&str, dp_frame::DType)> = scenario
                    .d_pass
                    .columns()
                    .iter()
                    .map(|c| (c.name(), c.dtype()))
                    .collect();
                let back = dp_frame::csv::read_csv_with_schema(&csv[..], &fields).unwrap();
                assert!(&back == df, "{key}");
            }
        }
    }

    #[test]
    fn every_scenario_key_builds() {
        for key in SCENARIOS {
            assert!(build_scenario(key, Some(40), Some(3)).is_some(), "{key}");
        }
    }
}
