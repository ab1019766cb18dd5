//! Abuse-the-wire tests: malformed and truncated requests, oversized
//! lines, mid-request disconnects, racing clients, admission limits,
//! shutdown persistence and a panicking system. The invariants: every
//! failure is a *typed* error response, the server never panics or
//! wedges, and a misbehaving client or system can never poison a
//! cache namespace.

use dp_frame::DataFrame;
use dp_serve::registry::build_scenario;
use dp_serve::{field_u64, is_ok, Client, ServeConfig, Server};
use dp_trace::JsonValue;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn start_default() -> (Server, Client) {
    let server = Server::start(ServeConfig::default()).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (server, client)
}

fn stop(server: Server, client: &mut Client) {
    assert!(is_ok(&client.shutdown().unwrap()));
    server.join();
}

fn error_code(v: &JsonValue) -> Option<String> {
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    v.get("code").and_then(|c| c.as_str()).map(str::to_string)
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let (server, mut client) = start_default();
    for (line, expected) in [
        ("not json at all", "malformed_request"),
        ("{\"op\":\"ping\"", "malformed_request"), // truncated object
        ("[1,2,3]", "malformed_request"),          // not an object
        ("{\"op\":42}", "malformed_request"),      // op not a string
        ("{\"op\":\"martian\"}", "unknown_op"),
        ("{\"op\":\"diagnose\"}", "malformed_request"), // missing system
        (
            "{\"op\":\"diagnose\",\"system\":\"s\",\"algo\":\"sideways\"}",
            "malformed_request",
        ),
        (
            "{\"op\":\"diagnose\",\"system\":\"nope\"}",
            "unknown_system",
        ),
        (
            "{\"op\":\"register\",\"system\":\"s\",\"scenario\":\"no-such\"}",
            "unknown_scenario",
        ),
    ] {
        let v = client.request(line).unwrap();
        assert_eq!(error_code(&v).as_deref(), Some(expected), "line: {line}");
    }
    // The connection is still perfectly usable after nine errors.
    assert!(is_ok(&client.ping().unwrap()));
    stop(server, &mut client);
}

#[test]
fn removed_speculation_mode_is_refused_on_the_wire_and_the_command_line() {
    // Speculation has one policy. A client that still asks for a mode
    // gets a typed refusal naming the removed field, and no diagnosis
    // runs — it is never silently served under another policy.
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    for mode in ["adaptive", "static"] {
        let line = format!("{{\"op\":\"diagnose\",\"system\":\"ex\",\"mode\":\"{mode}\"}}");
        let v = client.request(&line).unwrap();
        assert_eq!(
            error_code(&v).as_deref(),
            Some("malformed_request"),
            "{line}"
        );
        let msg = v.get("error").and_then(|e| e.as_str()).unwrap_or("");
        assert!(msg.contains("'mode' was removed"), "{msg}");
    }
    let stats = client.stats(None).unwrap();
    assert_eq!(field_u64(&stats, "diagnoses_ok"), Some(0), "{stats:?}");
    assert!(stats.get("speculation").is_none(), "{stats:?}");
    stop(server, &mut client);

    // The daemon's `--speculation` flag is gone: it is an unknown
    // argument, so the binary prints its usage and exits 2.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dp_serve"))
        .args(["--speculation", "x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument: --speculation"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: dp_serve"), "{stderr}");
    assert!(!stderr.contains("adaptive"), "{stderr}");
}

#[test]
fn oversized_request_is_rejected_with_a_typed_error() {
    let server = Server::start(ServeConfig {
        max_line_bytes: 4096,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let huge = format!(
        "{{\"op\":\"warm\",\"system\":\"s\",\"trace\":\"{}\"}}",
        "x".repeat(64 * 1024)
    );
    let v = client.request(&huge).unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("oversized_request"));
    // The server hangs up after an oversized line (the remainder is
    // unrecoverable) — but keeps serving new connections.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(&fresh.ping().unwrap()));
    stop(server, &mut fresh);
}

#[test]
fn deeply_nested_request_is_malformed_not_a_stack_overflow() {
    // A million `[` is well under the line limit. Parsed one
    // recursion per level, it would overflow the connection thread's
    // stack and abort the daemon; the parser refuses it instead.
    let (server, mut client) = start_default();
    let v = client.request(&"[".repeat(1_000_000)).unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("malformed_request"));
    let msg = v.get("error").and_then(|e| e.as_str()).unwrap_or("");
    assert!(msg.contains("nesting deeper"), "{msg}");
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(&fresh.ping().unwrap()));
    stop(server, &mut client);
}

#[test]
fn mid_request_disconnect_leaves_the_server_healthy() {
    let (server, mut client) = start_default();
    // A client that dies halfway through writing a request…
    {
        let mut dying = TcpStream::connect(server.local_addr()).unwrap();
        dying.write_all(b"{\"op\":\"regi").unwrap();
        dying.flush().unwrap();
        // dropped here without ever sending a newline
    }
    // …and one that dies right after the newline, without reading.
    {
        let mut dying = TcpStream::connect(server.local_addr()).unwrap();
        dying.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        dying.flush().unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    assert!(is_ok(&client.ping().unwrap()));
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    assert!(is_ok(&client.diagnose("ex", "greedy", None).unwrap()));
    stop(server, &mut client);
}

#[test]
fn malformed_csv_batches_get_bad_batch_and_the_connection_survives() {
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    assert!(is_ok(&client.watch("ex", None, None).unwrap()));
    // A header that repeats a name is refused before any row is read.
    let v = client.ingest("ex", "age,age\n1,2\n").unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_batch"), "{v:?}");
    let msg = v.get("error").and_then(|e| e.as_str()).unwrap_or("");
    assert!(msg.contains("duplicate column"), "{msg}");
    assert!(is_ok(&client.ping().unwrap()), "the connection survives");

    // A cell that does not parse as its column's numeric dtype is
    // refused, not read as NULL.
    let scenario = dp_serve::registry::build_scenario("example1", None, None).unwrap();
    let columns = scenario.d_pass.columns();
    let header: Vec<&str> = columns.iter().map(|c| c.name()).collect();
    let row: Vec<&str> = columns
        .iter()
        .map(|c| match c.dtype() {
            dp_frame::DType::Int | dp_frame::DType::Float => "abc",
            dp_frame::DType::Bool => "true",
            dp_frame::DType::Categorical | dp_frame::DType::Text => "x",
        })
        .collect();
    assert!(row.contains(&"abc"), "example1 has a numeric column");
    let batch = format!("{}\n{}\n", header.join(","), row.join(","));
    let v = client.ingest("ex", &batch).unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_batch"), "{v:?}");
    let msg = v.get("error").and_then(|e| e.as_str()).unwrap_or("");
    assert!(msg.contains("abc"), "{msg}");

    // Neither refusal counted as an ingest; a well-formed batch still
    // goes through.
    let mut csv = Vec::new();
    dp_frame::csv::write_csv(&scenario.d_fail, &mut csv).unwrap();
    let v = client
        .ingest("ex", std::str::from_utf8(&csv).unwrap())
        .unwrap();
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(field_u64(&v, "batches"), Some(1));
    stop(server, &mut client);
}

#[test]
fn bad_warm_and_restore_payloads_never_poison_the_namespace() {
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let baseline = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&baseline), "{baseline:?}");

    let v = client.warm("ex", "this is not jsonl\n").unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_trace"));
    // A trace from a future schema version is refused, not guessed at.
    let future = "{\"v\":9999,\"seq\":0,\"t_ns\":0,\"event\":{\"kind\":\"oracle_query\"}}\n";
    let v = client.warm("ex", future).unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_trace"));
    let v = client
        .restore("ex", "dp-score-cache v1\nnot a pair\n")
        .unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_snapshot"));
    let v = client.restore("ex", "wrong header\n").unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_snapshot"));
    // Well-formed payloads carrying scores no system returns are
    // refused whole, and the namespace keeps exactly what it had.
    let before = field_u64(&client.stats(Some("ex")).unwrap(), "cache_entries");
    let v = client
        .restore(
            "ex",
            &format!("dp-score-cache v1\n1 {}\n", 7.5f64.to_bits()),
        )
        .unwrap();
    assert_eq!(error_code(&v).as_deref(), Some("bad_snapshot"), "{v:?}");
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
    for score in [-1.0, 1.5, f64::NAN] {
        let trace = dp_trace::to_jsonl(&[span(2, 0.5), span(3, score)]);
        let v = client.warm("ex", &trace).unwrap();
        assert_eq!(error_code(&v).as_deref(), Some("bad_trace"), "{v:?}");
    }
    let after = field_u64(&client.stats(Some("ex")).unwrap(), "cache_entries");
    assert_eq!(before, after, "a refused payload adds nothing");

    // Diagnosis after all the garbage: still identical to before.
    let after = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&after), "{after:?}");
    assert_eq!(field_u64(&after, "digest"), field_u64(&baseline, "digest"));
    stop(server, &mut client);
}

#[test]
fn racing_clients_on_one_namespace_agree_bit_for_bit() {
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let addr = server.local_addr();
    let n_clients = 4;
    let per_client = 2;
    let barrier = Arc::new(Barrier::new(n_clients));
    let handles: Vec<_> = (0..n_clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                (0..per_client)
                    .map(|_| {
                        let v = c.diagnose("ex", "greedy", None).unwrap();
                        assert!(is_ok(&v), "{v:?}");
                        field_u64(&v, "digest").unwrap()
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let digests: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(digests.len(), n_clients * per_client);
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "racing clients saw different explanations: {digests:?}"
    );
    let stats = client.stats(Some("ex")).unwrap();
    assert_eq!(
        field_u64(&stats, "diagnoses"),
        Some((n_clients * per_client) as u64)
    );
    assert!(field_u64(&stats, "cache_entries").unwrap() > 0);
    stop(server, &mut client);
}

#[test]
fn diagnose_replies_and_stats_carry_lint_counters() {
    let (server, mut client) = start_default();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let v = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&v), "{v:?}");
    // The bundled scenarios register with the default `Lint::Report`
    // config, so every reply carries the analyzed lint block.
    assert_eq!(v.get("lint_analyzed").and_then(|b| b.as_bool()), Some(true));
    for field in [
        "lint_errors",
        "lint_warnings",
        "lint_pruned",
        "lint_subsumed",
        "lint_unreachable",
        "lint_commuting_pairs",
    ] {
        assert!(field_u64(&v, field).is_some(), "missing {field}: {v:?}");
    }
    // Report mode never prunes or subsumes — it only reports.
    assert_eq!(field_u64(&v, "lint_pruned"), Some(0));
    assert_eq!(field_u64(&v, "lint_subsumed"), Some(0));
    let pairs = field_u64(&v, "lint_commuting_pairs").unwrap();

    // Per-namespace stats accumulate the same totals across runs.
    let v2 = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&v2));
    let stats = client.stats(Some("ex")).unwrap();
    assert_eq!(field_u64(&stats, "lint_pruned_total"), Some(0));
    assert_eq!(field_u64(&stats, "lint_subsumed_total"), Some(0));
    assert_eq!(
        field_u64(&stats, "lint_commuting_pairs_total"),
        Some(2 * pairs),
        "two identical diagnoses fold in twice: {stats:?}"
    );
    stop(server, &mut client);
}

#[test]
fn admission_control_sheds_load_with_typed_busy_errors() {
    let server = Server::start(ServeConfig {
        max_inflight: 1,
        max_queue: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // A non-trivial scenario so diagnoses overlap for real.
    assert!(is_ok(
        &client.register("card", "cardio", None, None).unwrap()
    ));

    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                let v = c.diagnose("card", "greedy", None).unwrap();
                match v.get("ok").and_then(|b| b.as_bool()) {
                    Some(true) => ("ok", field_u64(&v, "digest")),
                    Some(false) => {
                        let code = v.get("code").and_then(|c| c.as_str()).unwrap().to_string();
                        assert_eq!(code, "busy", "only busy is acceptable: {v:?}");
                        ("busy", None)
                    }
                    None => panic!("untyped response: {v:?}"),
                }
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let oks: Vec<u64> = outcomes.iter().filter_map(|(_, d)| *d).collect();
    let busy = outcomes.iter().filter(|(s, _)| *s == "busy").count();
    assert!(!oks.is_empty(), "at least one diagnosis must get through");
    assert!(
        oks.windows(2).all(|w| w[0] == w[1]),
        "admitted diagnoses must still agree: {oks:?}"
    );
    let stats = client.stats(None).unwrap();
    assert_eq!(field_u64(&stats, "busy_rejections"), Some(busy as u64));
    assert_eq!(field_u64(&stats, "diagnoses_ok"), Some(oks.len() as u64));
    stop(server, &mut client);
}

#[test]
fn shutdown_flushes_snapshots_a_new_server_reloads() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve_snap_{}", std::process::id()));
    let config = ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let server = Server::start(config.clone()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(
        &client.register("ex", "example1", None, None).unwrap()
    ));
    let cold = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&cold), "{cold:?}");
    let bye = client.shutdown().unwrap();
    assert!(is_ok(&bye), "{bye:?}");
    assert!(field_u64(&bye, "snapshots_flushed").unwrap() >= 1);
    server.join();
    assert!(dir.join("ex.dpcache").is_file(), "flushed snapshot file");

    // A new server process over the same snapshot dir: registering
    // the same name reloads the namespace, and the first diagnosis
    // is warm and bit-identical.
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reg = client.register("ex", "example1", None, None).unwrap();
    assert!(is_ok(&reg), "{reg:?}");
    assert!(
        field_u64(&reg, "snapshot_entries_reloaded").unwrap() > 0,
        "{reg:?}"
    );
    let warm = client.diagnose("ex", "greedy", None).unwrap();
    assert!(is_ok(&warm), "{warm:?}");
    assert_eq!(field_u64(&warm, "digest"), field_u64(&cold, "digest"));
    assert!(field_u64(&warm, "warm_hits").unwrap() > 0);
    stop(server, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_server_rejects_new_work_with_a_typed_error() {
    let (server, mut client) = start_default();
    let mut other = Client::connect(server.local_addr()).unwrap();
    assert!(is_ok(&client.shutdown().unwrap()));
    // The racing second connection either gets a typed
    // `shutting_down` error or a clean close — never a hang or a
    // protocol violation.
    match other.request("{\"op\":\"register\",\"system\":\"x\",\"scenario\":\"example1\"}") {
        Ok(v) => assert_eq!(error_code(&v).as_deref(), Some("shutting_down")),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected failure mode: {e:?}"
        ),
    }
    server.join();
}

#[test]
fn a_panicking_system_gets_a_typed_reply_and_leaves_the_namespace_as_it_was() {
    // A test-only system: the income scenario's datasets and
    // configuration, judged by a system that panics on every frame.
    // Neither a diagnosis nor a drift-escalated one reaches the
    // client as a closed connection: each answers `system_panicked`,
    // leaves the namespace's cache and counters as they were, and the
    // daemon keeps serving its other namespaces bit for bit.
    let (server, mut client) = start_default();
    let mut scenario = build_scenario("income", None, None).unwrap();
    let d_fail = scenario.d_fail.clone();
    scenario.factory =
        Box::new(|| |_: &DataFrame| -> f64 { panic!("the system under test panics") });
    server
        .registry()
        .register_scenario("boom", "income", scenario);
    assert!(is_ok(
        &client.register("inc", "income", None, None).unwrap()
    ));
    let healthy = client.diagnose("inc", "greedy", Some(1)).unwrap();
    assert!(is_ok(&healthy), "{healthy:?}");

    let namespace = |client: &mut Client| {
        let stats = client.stats(Some("boom")).unwrap();
        assert!(is_ok(&stats), "{stats:?}");
        [
            "cache_entries",
            "diagnoses",
            "prefilter_pairs_total",
            "candidates_prepared_total",
            "lint_pruned_total",
            "lint_commuting_pairs_total",
        ]
        .map(|name| field_u64(&stats, name).expect(name))
    };
    let before = namespace(&mut client);
    assert!(
        before[3] > 0,
        "register prepared the candidates: {before:?}"
    );
    for threads in [1, 2] {
        for algo in ["greedy", "group_test", "auto"] {
            let reply = client.diagnose("boom", algo, Some(threads)).unwrap();
            assert_eq!(
                error_code(&reply).as_deref(),
                Some("system_panicked"),
                "{algo}@{threads}t: {reply:?}"
            );
        }
    }
    assert_eq!(namespace(&mut client), before, "after diagnoses");

    assert!(is_ok(&client.watch("boom", Some(0.05), Some(2)).unwrap()));
    let mut csv = Vec::new();
    dp_frame::csv::write_csv(&d_fail, &mut csv).unwrap();
    let ingest = client
        .ingest("boom", std::str::from_utf8(&csv).unwrap())
        .unwrap();
    assert!(is_ok(&ingest), "{ingest:?}");
    let drift = client.drift("boom", true, "greedy").unwrap();
    assert_eq!(
        error_code(&drift).as_deref(),
        Some("system_panicked"),
        "{drift:?}"
    );
    assert_eq!(namespace(&mut client), before, "after a drift escalation");

    let again = client.diagnose("inc", "greedy", Some(1)).unwrap();
    assert!(is_ok(&again), "{again:?}");
    assert_eq!(field_u64(&again, "digest"), field_u64(&healthy, "digest"));
    assert!(is_ok(&client.ping().unwrap()));
    stop(server, &mut client);
}
