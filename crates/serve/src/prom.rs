//! Prometheus text-format rendering for the `metrics` op.
//!
//! One scrape carries three layers: server-wide request counters,
//! per-namespace diagnosis/cache/lint/frame totals, and the
//! continuous-monitoring counters (ingest, drift checks/triggers, and
//! the live watcher's ingest-latency histogram). Every per-namespace
//! counter is a field of the namespace's one [`RunMetrics`] store, the
//! same one `stats` replies from. The output follows the exposition
//! format version 0.0.4 — `# HELP`/`# TYPE` once per metric family,
//! one sample line per namespace, label values escaped — and is
//! deterministic for a given input (names pre-sorted by the caller),
//! so it can be golden-tested byte for byte.

use dp_trace::{LatencyHistogram, RunMetrics, LATENCY_BOUNDS_NS};

/// Server-wide counters for one scrape.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerScrape {
    /// Request lines handled.
    pub requests: u64,
    /// Lines rejected before dispatch.
    pub protocol_errors: u64,
    /// Diagnoses rejected by admission control.
    pub busy_rejections: u64,
    /// Diagnoses that returned an explanation.
    pub diagnoses_ok: u64,
    /// Diagnoses that returned an error.
    pub diagnoses_err: u64,
    /// Registered systems.
    pub systems: usize,
}

/// One namespace's slice of the scrape.
#[derive(Debug, Clone)]
pub struct NamespaceScrape {
    /// Registered system name (the `system` label value).
    pub name: String,
    /// Resident cache entries.
    pub cache_entries: usize,
    /// Cache evictions since registration.
    pub evictions: u64,
    /// Completed diagnoses.
    pub diagnoses: u64,
    /// The namespace's cumulative counters
    /// ([`crate::registry::SystemEntry::metrics`]).
    pub metrics: RunMetrics,
    /// Whether a watcher is currently active.
    pub watching: bool,
    /// The active watcher's ingest-latency histogram, when watching.
    pub ingest_latency: Option<LatencyHistogram>,
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn f64_text(v: f64) -> String {
    // Shortest round-trip decimal; Prometheus parsers accept
    // scientific notation.
    format!("{v:?}")
}

struct Page {
    buf: String,
}

impl Page {
    fn new() -> Page {
        Page { buf: String::new() }
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.buf.push_str(&format!("# HELP {name} {help}\n"));
        self.buf.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    fn sample(&mut self, name: &str, system: Option<&str>, value: u64) {
        self.sample_text(name, system, &value.to_string());
    }

    fn sample_text(&mut self, name: &str, system: Option<&str>, value: &str) {
        match system {
            Some(s) => self.buf.push_str(&format!(
                "{name}{{system=\"{}\"}} {value}\n",
                escape_label(s)
            )),
            None => self.buf.push_str(&format!("{name} {value}\n")),
        }
    }

    /// One counter family with a sample per namespace.
    fn per_namespace(
        &mut self,
        name: &str,
        kind: &str,
        help: &str,
        namespaces: &[NamespaceScrape],
        value: impl Fn(&NamespaceScrape) -> u64,
    ) {
        if namespaces.is_empty() {
            return;
        }
        self.family(name, kind, help);
        for ns in namespaces {
            self.sample(name, Some(&ns.name), value(ns));
        }
    }
}

/// Render one full scrape. `namespaces` must be sorted by name (the
/// registry's `names()` order) so the output is deterministic.
pub fn render(server: &ServerScrape, namespaces: &[NamespaceScrape]) -> String {
    let mut page = Page::new();
    page.family(
        "dp_serve_requests_total",
        "counter",
        "Request lines handled.",
    );
    page.sample("dp_serve_requests_total", None, server.requests);
    page.family(
        "dp_serve_protocol_errors_total",
        "counter",
        "Request lines rejected before dispatch.",
    );
    page.sample(
        "dp_serve_protocol_errors_total",
        None,
        server.protocol_errors,
    );
    page.family(
        "dp_serve_busy_rejections_total",
        "counter",
        "Diagnoses rejected by admission control.",
    );
    page.sample(
        "dp_serve_busy_rejections_total",
        None,
        server.busy_rejections,
    );
    page.family(
        "dp_serve_diagnoses_ok_total",
        "counter",
        "Diagnoses that returned an explanation.",
    );
    page.sample("dp_serve_diagnoses_ok_total", None, server.diagnoses_ok);
    page.family(
        "dp_serve_diagnoses_err_total",
        "counter",
        "Diagnoses that returned an error.",
    );
    page.sample("dp_serve_diagnoses_err_total", None, server.diagnoses_err);
    page.family("dp_serve_systems", "gauge", "Registered systems.");
    page.sample("dp_serve_systems", None, server.systems as u64);

    page.per_namespace(
        "dp_cache_entries",
        "gauge",
        "Resident cache entries in the namespace.",
        namespaces,
        |ns| ns.cache_entries as u64,
    );
    page.per_namespace(
        "dp_cache_evictions_total",
        "counter",
        "Cache entries evicted by the namespace budget.",
        namespaces,
        |ns| ns.evictions,
    );
    page.per_namespace(
        "dp_diagnoses_total",
        "counter",
        "Completed diagnoses against the namespace.",
        namespaces,
        |ns| ns.diagnoses,
    );
    page.per_namespace(
        "dp_candidates_prepared_total",
        "counter",
        "Candidates linted and ranked: once per register, and per drift-escalated diagnosis.",
        namespaces,
        |ns| ns.metrics.candidates_prepared,
    );
    page.per_namespace(
        "dp_lint_pruned_total",
        "counter",
        "Candidates pruned by the lint pass before ranking.",
        namespaces,
        |ns| ns.metrics.lint_pruned,
    );
    page.per_namespace(
        "dp_lint_subsumed_total",
        "counter",
        "Candidates merged into equivalence-class representatives.",
        namespaces,
        |ns| ns.metrics.lint_subsumed,
    );
    page.per_namespace(
        "dp_lint_unreachable_total",
        "counter",
        "Tau-unreachability certificates issued.",
        namespaces,
        |ns| ns.metrics.lint_unreachable,
    );
    page.per_namespace(
        "dp_lint_commuting_pairs_total",
        "counter",
        "Candidate pairs certified commuting.",
        namespaces,
        |ns| ns.metrics.lint_commuting_pairs,
    );
    page.per_namespace(
        "dp_frames_built_total",
        "counter",
        "Candidate frames built by the namespace's diagnoses.",
        namespaces,
        |ns| ns.metrics.frames_built,
    );
    page.per_namespace(
        "dp_intent_hits_total",
        "counter",
        "Queries scored by intent key without building a frame.",
        namespaces,
        |ns| ns.metrics.intent_hits,
    );
    page.per_namespace(
        "dp_monitor_watching",
        "gauge",
        "Whether a watcher is active on the namespace.",
        namespaces,
        |ns| ns.watching as u64,
    );
    page.per_namespace(
        "dp_monitor_batches_ingested_total",
        "counter",
        "Row batches folded into live sketches.",
        namespaces,
        |ns| ns.metrics.batches_ingested,
    );
    page.per_namespace(
        "dp_monitor_rows_ingested_total",
        "counter",
        "Rows across all ingested batches.",
        namespaces,
        |ns| ns.metrics.rows_ingested,
    );
    page.per_namespace(
        "dp_monitor_drift_checks_total",
        "counter",
        "Drift checks scored against the baseline profiles.",
        namespaces,
        |ns| ns.metrics.drift_checks,
    );
    page.per_namespace(
        "dp_monitor_drift_triggers_total",
        "counter",
        "Drift checks that crossed tau_drift.",
        namespaces,
        |ns| ns.metrics.drift_triggers,
    );

    let watched: Vec<&NamespaceScrape> = namespaces
        .iter()
        .filter(|ns| ns.ingest_latency.is_some())
        .collect();
    if !watched.is_empty() {
        page.family(
            "dp_monitor_ingest_latency_seconds",
            "histogram",
            "Latency of batch ingests (sketch builds plus merges).",
        );
        for ns in watched {
            let hist = ns.ingest_latency.as_ref().expect("filtered to watched");
            let label = escape_label(&ns.name);
            let mut cumulative = 0u64;
            for (bucket, bound_ns) in hist.buckets.iter().zip(LATENCY_BOUNDS_NS.iter()) {
                cumulative += bucket;
                page.buf.push_str(&format!(
                    "dp_monitor_ingest_latency_seconds_bucket{{system=\"{label}\",le=\"{}\"}} {cumulative}\n",
                    f64_text(*bound_ns as f64 / 1e9),
                ));
            }
            page.buf.push_str(&format!(
                "dp_monitor_ingest_latency_seconds_bucket{{system=\"{label}\",le=\"+Inf\"}} {}\n",
                hist.count
            ));
            page.buf.push_str(&format!(
                "dp_monitor_ingest_latency_seconds_sum{{system=\"{label}\"}} {}\n",
                f64_text(hist.sum_ns as f64 / 1e9)
            ));
            page.buf.push_str(&format!(
                "dp_monitor_ingest_latency_seconds_count{{system=\"{label}\"}} {}\n",
                hist.count
            ));
        }
    }
    page.buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape_fixture() -> (ServerScrape, Vec<NamespaceScrape>) {
        let server = ServerScrape {
            requests: 12,
            protocol_errors: 1,
            busy_rejections: 0,
            diagnoses_ok: 3,
            diagnoses_err: 1,
            systems: 2,
        };
        let mut hist = LatencyHistogram::default();
        hist.record(5_000); // < 10µs bucket
        hist.record(50_000); // < 100µs bucket
        hist.record(50_000);
        let namespaces = vec![
            NamespaceScrape {
                name: "inc".into(),
                cache_entries: 41,
                evictions: 2,
                diagnoses: 3,
                metrics: RunMetrics {
                    candidates_prepared: 78,
                    lint_pruned: 5,
                    lint_subsumed: 1,
                    lint_unreachable: 2,
                    lint_commuting_pairs: 4,
                    frames_built: 12,
                    intent_hits: 30,
                    batches_ingested: 3,
                    rows_ingested: 90,
                    drift_checks: 3,
                    drift_triggers: 1,
                    ..RunMetrics::default()
                },
                watching: true,
                ingest_latency: Some(hist),
            },
            NamespaceScrape {
                name: "sent \"q\"".into(),
                cache_entries: 0,
                evictions: 0,
                diagnoses: 1,
                metrics: RunMetrics::default(),
                watching: false,
                ingest_latency: None,
            },
        ];
        (server, namespaces)
    }

    /// The scrape is golden: any byte-level change to the exposition
    /// (names, ordering, escaping, histogram math) must be a
    /// conscious edit here.
    #[test]
    fn scrape_is_byte_identical_to_the_golden_page() {
        let (server, namespaces) = scrape_fixture();
        let page = render(&server, &namespaces);
        let golden = "\
# HELP dp_serve_requests_total Request lines handled.
# TYPE dp_serve_requests_total counter
dp_serve_requests_total 12
# HELP dp_serve_protocol_errors_total Request lines rejected before dispatch.
# TYPE dp_serve_protocol_errors_total counter
dp_serve_protocol_errors_total 1
# HELP dp_serve_busy_rejections_total Diagnoses rejected by admission control.
# TYPE dp_serve_busy_rejections_total counter
dp_serve_busy_rejections_total 0
# HELP dp_serve_diagnoses_ok_total Diagnoses that returned an explanation.
# TYPE dp_serve_diagnoses_ok_total counter
dp_serve_diagnoses_ok_total 3
# HELP dp_serve_diagnoses_err_total Diagnoses that returned an error.
# TYPE dp_serve_diagnoses_err_total counter
dp_serve_diagnoses_err_total 1
# HELP dp_serve_systems Registered systems.
# TYPE dp_serve_systems gauge
dp_serve_systems 2
# HELP dp_cache_entries Resident cache entries in the namespace.
# TYPE dp_cache_entries gauge
dp_cache_entries{system=\"inc\"} 41
dp_cache_entries{system=\"sent \\\"q\\\"\"} 0
# HELP dp_cache_evictions_total Cache entries evicted by the namespace budget.
# TYPE dp_cache_evictions_total counter
dp_cache_evictions_total{system=\"inc\"} 2
dp_cache_evictions_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_diagnoses_total Completed diagnoses against the namespace.
# TYPE dp_diagnoses_total counter
dp_diagnoses_total{system=\"inc\"} 3
dp_diagnoses_total{system=\"sent \\\"q\\\"\"} 1
# HELP dp_candidates_prepared_total Candidates linted and ranked: once per register, and per drift-escalated diagnosis.
# TYPE dp_candidates_prepared_total counter
dp_candidates_prepared_total{system=\"inc\"} 78
dp_candidates_prepared_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_lint_pruned_total Candidates pruned by the lint pass before ranking.
# TYPE dp_lint_pruned_total counter
dp_lint_pruned_total{system=\"inc\"} 5
dp_lint_pruned_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_lint_subsumed_total Candidates merged into equivalence-class representatives.
# TYPE dp_lint_subsumed_total counter
dp_lint_subsumed_total{system=\"inc\"} 1
dp_lint_subsumed_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_lint_unreachable_total Tau-unreachability certificates issued.
# TYPE dp_lint_unreachable_total counter
dp_lint_unreachable_total{system=\"inc\"} 2
dp_lint_unreachable_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_lint_commuting_pairs_total Candidate pairs certified commuting.
# TYPE dp_lint_commuting_pairs_total counter
dp_lint_commuting_pairs_total{system=\"inc\"} 4
dp_lint_commuting_pairs_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_frames_built_total Candidate frames built by the namespace's diagnoses.
# TYPE dp_frames_built_total counter
dp_frames_built_total{system=\"inc\"} 12
dp_frames_built_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_intent_hits_total Queries scored by intent key without building a frame.
# TYPE dp_intent_hits_total counter
dp_intent_hits_total{system=\"inc\"} 30
dp_intent_hits_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_monitor_watching Whether a watcher is active on the namespace.
# TYPE dp_monitor_watching gauge
dp_monitor_watching{system=\"inc\"} 1
dp_monitor_watching{system=\"sent \\\"q\\\"\"} 0
# HELP dp_monitor_batches_ingested_total Row batches folded into live sketches.
# TYPE dp_monitor_batches_ingested_total counter
dp_monitor_batches_ingested_total{system=\"inc\"} 3
dp_monitor_batches_ingested_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_monitor_rows_ingested_total Rows across all ingested batches.
# TYPE dp_monitor_rows_ingested_total counter
dp_monitor_rows_ingested_total{system=\"inc\"} 90
dp_monitor_rows_ingested_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_monitor_drift_checks_total Drift checks scored against the baseline profiles.
# TYPE dp_monitor_drift_checks_total counter
dp_monitor_drift_checks_total{system=\"inc\"} 3
dp_monitor_drift_checks_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_monitor_drift_triggers_total Drift checks that crossed tau_drift.
# TYPE dp_monitor_drift_triggers_total counter
dp_monitor_drift_triggers_total{system=\"inc\"} 1
dp_monitor_drift_triggers_total{system=\"sent \\\"q\\\"\"} 0
# HELP dp_monitor_ingest_latency_seconds Latency of batch ingests (sketch builds plus merges).
# TYPE dp_monitor_ingest_latency_seconds histogram
dp_monitor_ingest_latency_seconds_bucket{system=\"inc\",le=\"1e-5\"} 1
dp_monitor_ingest_latency_seconds_bucket{system=\"inc\",le=\"0.0001\"} 3
dp_monitor_ingest_latency_seconds_bucket{system=\"inc\",le=\"0.001\"} 3
dp_monitor_ingest_latency_seconds_bucket{system=\"inc\",le=\"0.01\"} 3
dp_monitor_ingest_latency_seconds_bucket{system=\"inc\",le=\"0.1\"} 3
dp_monitor_ingest_latency_seconds_bucket{system=\"inc\",le=\"1.0\"} 3
dp_monitor_ingest_latency_seconds_bucket{system=\"inc\",le=\"10.0\"} 3
dp_monitor_ingest_latency_seconds_bucket{system=\"inc\",le=\"+Inf\"} 3
dp_monitor_ingest_latency_seconds_sum{system=\"inc\"} 0.000105
dp_monitor_ingest_latency_seconds_count{system=\"inc\"} 3
";
        assert_eq!(page, golden);
    }

    #[test]
    fn empty_registry_renders_server_counters_only() {
        let page = render(&ServerScrape::default(), &[]);
        assert!(page.contains("dp_serve_requests_total 0"));
        assert!(!page.contains("{system="));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }
}
