//! Warm-vs-cold conformance for the serving cache seam.
//!
//! The contract under test: seeding a run from a cross-run
//! [`ScoreCache`] — whether populated by a previous request or
//! bootstrapped from a prior run's JSONL trace — changes **nothing**
//! about the explanation. Same PVTs, same bit-patterns in every
//! score, same repaired dataset, same decision digest, same
//! charged-query count; only the cache counters (`cache_misses`,
//! `warm_hits`) reflect that the warm run re-evaluated the system
//! strictly less. Pinned across every case-study scenario × both
//! algorithms (GRD greedy / GT group testing) × thread widths
//! {1, 8} × warmth {cold, second-request-warm, trace-warmed}.
//!
//! The final tests run the same property end-to-end through an
//! in-process `dp_serve` daemon over real TCP: server-resident
//! namespaces, the wire `warm` op, and snapshot/restore all preserve
//! bit-identity. The daemon discovers a system's candidates and
//! prepares them (lint verdict, graph, benefits) once, at `register`,
//! and searches that record on every `diagnose`: its replies must equal
//! in-process runs that prepare the same candidates themselves, and
//! its pre-filter and `candidates_prepared` totals must count one
//! discovery and one preparation per `register`.

use dataprism::{
    fingerprint, Algorithm, Diagnosis, Explanation, Ranked, Result, RunMetrics, ScoreCache, Source,
    TraceConfig,
};
use dp_scenarios::{cardio, example1, ezgo, income, sensors, sentiment, Scenario};
use dp_serve::registry::build_scenario;
use dp_serve::{field_u64, is_ok, Client, ServeConfig, Server, SCENARIOS};
use dp_trace::{to_jsonl, JsonValue};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// The moderate-size case-study set (same sizes as
/// `parallel_conformance.rs`).
fn scenarios() -> Vec<Scenario> {
    vec![
        example1::scenario(),
        sentiment::scenario_with_size(240, 11),
        income::scenario_with_size(300, 7),
        cardio::scenario_with_size(300, 5),
        ezgo::scenario_with_size(400, 2),
        sensors::scenario_with_size(250, 4),
    ]
}

/// A cold run on the parallel runtime (optionally collecting trace
/// records, so the trace-warmed leg has something to replay).
fn run_cold(
    scenario: &Scenario,
    algo: Algorithm,
    threads: usize,
    collect_trace: bool,
) -> Result<Explanation> {
    let mut config = scenario.config.clone();
    config.num_threads = threads;
    if collect_trace {
        config.trace = TraceConfig::Collect;
    }
    Diagnosis::new(algo).run(
        Source::Factory(scenario.factory.as_ref()),
        &scenario.d_fail,
        &scenario.d_pass,
        &config,
    )
}

/// A run seeded from (and exporting back into) `cache`.
fn run_cached(
    scenario: &Scenario,
    algo: Algorithm,
    threads: usize,
    cache: &mut ScoreCache,
) -> Result<Explanation> {
    let mut config = scenario.config.clone();
    config.num_threads = threads;
    Diagnosis::new(algo).with_cache(cache).run(
        Source::Factory(scenario.factory.as_ref()),
        &scenario.d_fail,
        &scenario.d_pass,
        &config,
    )
}

/// Assert two diagnosis outcomes are bit-indistinguishable (cache
/// counters excluded by design — they are *supposed* to differ).
fn assert_identical(label: &str, cold: &Result<Explanation>, warm: &Result<Explanation>) {
    match (cold, warm) {
        (Ok(c), Ok(w)) => {
            assert_eq!(c.pvt_ids(), w.pvt_ids(), "{label}: explanation set");
            assert_eq!(c.interventions, w.interventions, "{label}: interventions");
            assert_eq!(
                c.initial_score.to_bits(),
                w.initial_score.to_bits(),
                "{label}: initial score"
            );
            assert_eq!(
                c.final_score.to_bits(),
                w.final_score.to_bits(),
                "{label}: final score"
            );
            assert_eq!(c.resolved, w.resolved, "{label}: resolved flag");
            assert_eq!(
                fingerprint(&c.repaired),
                fingerprint(&w.repaired),
                "{label}: repaired dataset"
            );
            assert_eq!(c.digest(), w.digest(), "{label}: digest");
        }
        (Err(ce), Err(we)) => {
            assert_eq!(ce, we, "{label}: error value");
        }
        (c, w) => panic!("{label}: warmth changed the outcome: cold {c:?} vs warm {w:?}"),
    }
}

/// Assert the warm run was actually cheaper: same charged queries
/// (determinism — warmth must not change what the algorithm asks),
/// strictly fewer real system evaluations, and at least one hit
/// served from the seeded entries.
fn assert_warmer(label: &str, cold: &Explanation, warm: &Explanation) {
    assert_eq!(
        cold.metrics.charged_queries, warm.metrics.charged_queries,
        "{label}: charged query count must not depend on warmth"
    );
    assert!(
        warm.metrics.warm_hits > 0,
        "{label}: warm run never touched the seeded cache ({:?})",
        warm.metrics
    );
    // "Cheaper" means fewer actual system invocations: charged
    // misses plus speculative evaluations (at width > 1 most charged
    // queries are served by speculation, so misses alone can be 0
    // even cold — the sum is the honest cost).
    let cold_evals = cold.metrics.cache_misses + cold.metrics.speculative_evaluated;
    let warm_evals = warm.metrics.cache_misses + warm.metrics.speculative_evaluated;
    assert!(cold_evals > 0, "{label}: cold run evaluated nothing?");
    assert!(
        warm_evals < cold_evals,
        "{label}: warm run must re-evaluate strictly less ({warm_evals} evaluations vs cold {cold_evals})"
    );
}

#[test]
fn warm_runs_are_bit_identical_across_the_matrix() {
    for scenario in scenarios() {
        for algo in [Algorithm::Greedy, Algorithm::GroupTest] {
            for threads in THREAD_COUNTS {
                let label = format!("{} {}@{threads}t", scenario.name, algo.name());
                let cold = run_cold(&scenario, algo, threads, true);

                // Leg 1: second-request warmth. The first cached run
                // (empty seed) must equal the cold run; the second,
                // seeded with everything the first exported, must
                // equal it again — only cheaper.
                let mut cache = ScoreCache::new();
                let first = run_cached(&scenario, algo, threads, &mut cache);
                assert_identical(&format!("{label} first-cached"), &cold, &first);
                let second = run_cached(&scenario, algo, threads, &mut cache);
                assert_identical(&format!("{label} second-request"), &cold, &second);
                if let (Ok(c), Ok(w)) = (&first, &second) {
                    assert_warmer(&format!("{label} second-request"), c, w);
                }

                // Leg 2: trace-warmed. Every charged query of the
                // cold run was recorded with fingerprint and score in
                // exact encodings; replaying the JSONL must bootstrap
                // a cache that serves a bit-identical run.
                if let Ok(cold_exp) = &cold {
                    let jsonl = to_jsonl(&cold_exp.trace_records);
                    let mut warm_cache = ScoreCache::new();
                    let loaded = warm_cache
                        .warm_from_jsonl(&jsonl)
                        .expect("own trace must replay");
                    assert!(loaded > 0, "{label}: trace carried no oracle queries");
                    let warmed = run_cached(&scenario, algo, threads, &mut warm_cache);
                    assert_identical(&format!("{label} trace-warmed"), &cold, &warmed);
                    assert_warmer(
                        &format!("{label} trace-warmed"),
                        cold_exp,
                        warmed.as_ref().expect("identical to Ok cold"),
                    );
                }
            }
        }
    }
}

#[test]
fn warmth_does_not_leak_across_thread_widths() {
    // A cache exported at one width must serve a bit-identical run at
    // another: fingerprints are content hashes, not schedule hashes.
    let scenario = income::scenario_with_size(300, 7);
    let cold = run_cold(&scenario, Algorithm::Greedy, 8, false);
    let mut cache = ScoreCache::new();
    let at_8 = run_cached(&scenario, Algorithm::Greedy, 8, &mut cache);
    assert_identical("income GRD seed@8t", &cold, &at_8);
    let at_1 = run_cached(&scenario, Algorithm::Greedy, 1, &mut cache);
    assert_identical("income GRD 8t-warm@1t", &cold, &at_1);
    assert_warmer(
        "income GRD 8t-warm@1t",
        at_8.as_ref().unwrap(),
        at_1.as_ref().unwrap(),
    );
}

#[test]
fn daemon_round_trip_matches_in_process_diagnosis() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The daemon's "income" is income::scenario_with_size(300, 7) —
    // compute the expected digest in-process and demand the wire
    // result matches it bit for bit.
    let scenario = income::scenario_with_size(300, 7);
    let expected = run_cold(
        &scenario,
        Algorithm::Greedy,
        scenario.config.num_threads,
        false,
    )
    .expect("income resolves");

    assert!(is_ok(
        &client.register("inc", "income", None, None).unwrap()
    ));
    let cold = client.diagnose("inc", "greedy", None).unwrap();
    assert!(is_ok(&cold), "{cold:?}");
    assert_eq!(
        field_u64(&cold, "digest"),
        Some(expected.digest()),
        "wire diagnosis must equal the in-process one"
    );
    assert_eq!(
        field_u64(&cold, "final_score_bits"),
        Some(expected.final_score.to_bits())
    );

    // Second request against the same namespace: identical, warm.
    let warm = client.diagnose("inc", "greedy", None).unwrap();
    assert!(is_ok(&warm), "{warm:?}");
    assert_eq!(field_u64(&warm, "digest"), Some(expected.digest()));
    assert_eq!(
        field_u64(&cold, "charged_queries"),
        field_u64(&warm, "charged_queries")
    );
    // Every charged query is answered from the namespace cache, however
    // the cold run's speculation was scheduled.
    assert!(field_u64(&warm, "warm_hits").unwrap() > 0);
    assert_eq!(field_u64(&warm, "cache_misses"), Some(0));

    // Trace-warm a *fresh* namespace over the wire, then diagnose:
    // first request already warm.
    let traced = {
        let mut config = scenario.config.clone();
        config.trace = TraceConfig::Collect;
        Diagnosis::new(Algorithm::Greedy)
            .run(
                Source::Factory(scenario.factory.as_ref()),
                &scenario.d_fail,
                &scenario.d_pass,
                &config,
            )
            .unwrap()
    };
    assert!(is_ok(
        &client.register("inc2", "income", None, None).unwrap()
    ));
    let warmed = client
        .warm("inc2", &to_jsonl(&traced.trace_records))
        .unwrap();
    assert!(is_ok(&warmed), "{warmed:?}");
    assert!(field_u64(&warmed, "spans_loaded").unwrap() > 0);
    let first = client.diagnose("inc2", "greedy", None).unwrap();
    assert!(is_ok(&first), "{first:?}");
    assert_eq!(field_u64(&first, "digest"), Some(expected.digest()));
    assert!(field_u64(&first, "warm_hits").unwrap() > 0);
    assert_eq!(field_u64(&first, "cache_misses"), Some(0));

    assert!(is_ok(&client.shutdown().unwrap()));
    server.join();
}

#[test]
fn daemon_budgeted_diagnosis_matches_unbounded_digest() {
    // The wire `budget` override reaches the executor: a budgeted
    // diagnosis returns the unbounded run's digest bit for bit, keeps
    // its in-flight speculative frames within the requested bound,
    // and the server's stats surface the per-namespace slice of the
    // global frame budget.
    let config = ServeConfig {
        speculation_budget: Some(64),
        ..ServeConfig::default()
    };
    let max_inflight = config.max_inflight;
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert!(is_ok(
        &client.register("inc", "income", None, None).unwrap()
    ));
    let first = client.diagnose("inc", "group_test", Some(4)).unwrap();
    assert!(is_ok(&first), "{first:?}");
    let budgeted = client
        .diagnose_with("inc", "group_test", Some(4), Some(16))
        .unwrap();
    assert!(is_ok(&budgeted), "{budgeted:?}");
    assert_eq!(
        field_u64(&budgeted, "digest"),
        field_u64(&first, "digest"),
        "a frame budget changed the explanation"
    );
    assert!(
        field_u64(&budgeted, "peak_inflight").unwrap() <= 16 + 4,
        "{budgeted:?}"
    );

    let stats = client.stats(None).unwrap();
    assert_eq!(
        field_u64(&stats, "namespace_frame_budget"),
        Some(64 / max_inflight as u64),
        "{stats:?}"
    );

    assert!(is_ok(&client.shutdown().unwrap()));
    server.join();
}

#[test]
fn daemon_snapshot_restore_preserves_warmth() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert!(is_ok(
        &client.register("a", "example1", None, None).unwrap()
    ));
    let cold = client.diagnose("a", "greedy", None).unwrap();
    assert!(is_ok(&cold), "{cold:?}");

    // Snapshot namespace "a", restore into a fresh namespace "b" of
    // the same system: its first diagnosis is warm and identical.
    let snapshot = client.snapshot("a").unwrap();
    assert!(is_ok(
        &client.register("b", "example1", None, None).unwrap()
    ));
    let restored = client.restore("b", &snapshot).unwrap();
    assert!(is_ok(&restored), "{restored:?}");
    assert!(field_u64(&restored, "new_cache_entries").unwrap() > 0);
    let warm = client.diagnose("b", "greedy", None).unwrap();
    assert!(is_ok(&warm), "{warm:?}");
    assert_eq!(field_u64(&warm, "digest"), field_u64(&cold, "digest"));
    assert!(field_u64(&warm, "warm_hits").unwrap() > 0);

    assert!(is_ok(&client.shutdown().unwrap()));
    server.join();
}

#[test]
fn daemon_restore_of_out_of_range_scores_diagnoses_cold() {
    // A snapshot is a trust boundary: a corrupt or hand-edited file
    // may carry scores no system returns, and a seeded −1.0 would read
    // as a pass. Restoring one is refused with a typed error and
    // leaves the namespace untouched, so the diagnosis runs cold.
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert!(is_ok(
        &client.register("a", "example1", None, None).unwrap()
    ));
    let cold = client.diagnose("a", "greedy", None).unwrap();
    assert!(is_ok(&cold), "{cold:?}");

    let scored = ScoreCache::from_snapshot(&client.snapshot("a").unwrap()).unwrap();
    let mut poisoned = ScoreCache::new();
    for (i, (fp, _)) in scored.iter().enumerate() {
        poisoned.insert(fp, [-1.0, f64::NAN, 7.5][i % 3]);
    }
    assert!(is_ok(
        &client.register("c", "example1", None, None).unwrap()
    ));
    let restored = client.restore("c", &poisoned.to_snapshot()).unwrap();
    assert!(!is_ok(&restored), "{restored:?}");
    assert_eq!(
        restored.get("code").and_then(|c| c.as_str()),
        Some("bad_snapshot"),
        "{restored:?}"
    );
    let stats = client.stats(Some("c")).unwrap();
    assert_eq!(field_u64(&stats, "cache_entries"), Some(0), "{stats:?}");
    let first = client.diagnose("c", "greedy", None).unwrap();
    assert!(is_ok(&first), "{first:?}");
    assert_eq!(field_u64(&first, "digest"), field_u64(&cold, "digest"));
    assert_eq!(field_u64(&first, "warm_hits"), Some(0), "{first:?}");

    assert!(is_ok(&client.shutdown().unwrap()));
    server.join();
}

/// Assert a daemon `diagnose` reply equals an in-process diagnosis
/// (which discovered its own candidates): the same digest, explanation
/// set, intervention count and exact final score, or the same error.
fn assert_reply_matches(label: &str, reply: &JsonValue, expected: &Result<Explanation>) {
    match expected {
        Ok(exp) => {
            assert!(is_ok(reply), "{label}: {reply:?}");
            assert_eq!(
                field_u64(reply, "digest"),
                Some(exp.digest()),
                "{label}: digest"
            );
            let ids: Vec<usize> = match reply.get("pvt_ids") {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|v| v.as_u64().expect("an id") as usize)
                    .collect(),
                other => panic!("{label}: pvt_ids is {other:?}"),
            };
            assert_eq!(ids, exp.pvt_ids(), "{label}: explanation set");
            assert_eq!(
                field_u64(reply, "interventions"),
                Some(exp.interventions as u64),
                "{label}: interventions"
            );
            assert_eq!(
                field_u64(reply, "final_score_bits"),
                Some(exp.final_score.to_bits()),
                "{label}: final score"
            );
        }
        Err(e) => {
            assert!(!is_ok(reply), "{label}: daemon resolved, in-process {e}");
            assert_eq!(
                reply.get("error").and_then(|v| v.as_str()),
                Some(e.to_string().as_str()),
                "{label}: error"
            );
        }
    }
}

/// Every algorithm a `diagnose` request can name.
const SERVED: [Algorithm; 3] = [Algorithm::Greedy, Algorithm::GroupTest, Algorithm::Auto];

/// The candidates `register` discovers for `scenario`.
fn registered_candidates(scenario: &Scenario) -> Vec<dataprism::Pvt> {
    let (pvts, _) = dataprism::discovery::discriminative_pvts_stats(
        &scenario.d_pass,
        &scenario.d_fail,
        &scenario.config.discovery,
        1,
    );
    pvts
}

/// An in-process run over `pvts`, preparing them itself.
fn run_given(
    scenario: &Scenario,
    pvts: &[dataprism::Pvt],
    algo: Algorithm,
    threads: usize,
) -> Result<Explanation> {
    run_on(
        scenario,
        Diagnosis::new(algo).with_candidates(pvts.to_vec()),
        threads,
    )
}

/// An in-process run of `request` on `scenario` at `threads`.
fn run_on(scenario: &Scenario, request: Diagnosis<'_>, threads: usize) -> Result<Explanation> {
    let mut config = scenario.config.clone();
    config.num_threads = threads;
    request.run(
        Source::Factory(scenario.factory.as_ref()),
        &scenario.d_fail,
        &scenario.d_pass,
        &config,
    )
}

#[test]
fn daemon_diagnoses_search_the_candidates_discovered_at_register() {
    // `register` discovers a spec's candidates and prepares them once
    // (lint verdict, graph, benefits); every `diagnose` searches that
    // record. Its replies must equal in-process runs that prepare the
    // same candidates themselves, for every served algorithm at widths
    // 1 and 2, cold and warm, and again after a re-`register`; in
    // process, a run over the prepared record equals both, and a run
    // that discovers for itself equals them at width 1.
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for key in SCENARIOS {
        assert!(is_ok(&client.register(key, key, None, None).unwrap()));
        let scenario = build_scenario(key, None, None).unwrap();
        let pvts = registered_candidates(&scenario);
        let ranked = Arc::new(Ranked::new(
            pvts.clone(),
            &scenario.d_fail,
            &scenario.config,
            &mut RunMetrics::default(),
        ));
        for algo in SERVED {
            for threads in [1, 2] {
                let label = format!("{key} {}@{threads}t", algo.name());
                let expected = run_given(&scenario, &pvts, algo, threads);
                let prepared = run_on(
                    &scenario,
                    Diagnosis::new(algo).with_ranked(Arc::clone(&ranked)),
                    threads,
                );
                assert_identical(&format!("{label} prepared"), &expected, &prepared);
                if threads == 1 {
                    // A search over given candidates equals the one
                    // that discovers them.
                    let discovered = run_cold(&scenario, algo, 1, false);
                    assert_identical(&format!("{label} discovered"), &expected, &discovered);
                }
                for warmth in ["cold", "warm"] {
                    let reply = client.diagnose(key, algo.name(), Some(threads)).unwrap();
                    assert_reply_matches(&format!("{label} {warmth}"), &reply, &expected);
                }
            }
        }
    }

    // A re-`register` at another size and seed builds and prepares a
    // new spec, so the next replies are that spec's own runs.
    let other = build_scenario("income", Some(200), Some(3)).unwrap();
    let pvts = registered_candidates(&other);
    let prepared = |client: &mut Client| {
        let stats = client.stats(Some("income")).unwrap();
        field_u64(&stats, "candidates_prepared_total").expect("candidates_prepared_total")
    };
    let before = prepared(&mut client);
    assert!(is_ok(
        &client
            .register("income", "income", Some(200), Some(3))
            .unwrap()
    ));
    assert_eq!(
        prepared(&mut client),
        before + pvts.len() as u64,
        "a re-register prepares again"
    );
    for algo in SERVED {
        for threads in [1, 2] {
            let expected = run_given(&other, &pvts, algo, threads);
            if matches!(algo, Algorithm::Greedy | Algorithm::GroupTest) {
                assert!(expected.is_ok(), "{expected:?}");
            }
            for warmth in ["cold", "warm"] {
                let label = format!("income 200/3 {}@{threads}t {warmth}", algo.name());
                let reply = client
                    .diagnose("income", algo.name(), Some(threads))
                    .unwrap();
                assert_reply_matches(&label, &reply, &expected);
            }
        }
    }

    assert!(is_ok(&client.shutdown().unwrap()));
    server.join();
}

#[test]
fn the_prefilter_totals_count_one_discovery_per_register() {
    // Discovery and preparation are counted where they happen: at
    // `register`, once per spec. A diagnosis over the spec's prepared
    // record, `Auto`'s fallback included, moves neither the pre-filter
    // totals nor `candidates_prepared_total`.
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let scenario = income::scenario_with_size(300, 7);
    let (pvts, once) = dataprism::discovery::discriminative_pvts_stats(
        &scenario.d_pass,
        &scenario.d_fail,
        &scenario.config.discovery,
        1,
    );
    assert!(once.pairs > 0 && once.screened() > 0, "{once:?}");
    assert!(!pvts.is_empty());
    let totals = |client: &mut Client| {
        let stats = client.stats(Some("inc")).unwrap();
        assert!(is_ok(&stats), "{stats:?}");
        [
            "prefilter_pairs_total",
            "prefilter_screened_total",
            "prefilter_exact_total",
            "candidates_prepared_total",
        ]
        .map(|name| field_u64(&stats, name).expect(name))
    };
    let expected = |registers: u64| {
        [
            once.pairs as u64,
            once.screened() as u64,
            (once.chi2_exact + once.pearson_exact) as u64,
            pvts.len() as u64,
        ]
        .map(|n| registers * n)
    };

    assert!(is_ok(
        &client.register("inc", "income", None, None).unwrap()
    ));
    assert_eq!(totals(&mut client), expected(1), "after register");
    for (algo, threads) in [("greedy", 1), ("group_test", 2), ("auto", 1)] {
        assert!(is_ok(&client.diagnose("inc", algo, Some(threads)).unwrap()));
    }
    assert_eq!(totals(&mut client), expected(1), "after three diagnoses");

    assert!(is_ok(
        &client.register("inc", "income", None, None).unwrap()
    ));
    assert!(is_ok(&client.diagnose("inc", "greedy", Some(1)).unwrap()));
    assert_eq!(totals(&mut client), expected(2), "after a re-register");

    assert!(is_ok(&client.shutdown().unwrap()));
    server.join();
}
