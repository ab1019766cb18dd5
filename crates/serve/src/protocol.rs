//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests carry an `"op"` discriminator; responses carry
//! `"ok": true` plus op-specific fields, or `"ok": false` with a
//! stable machine-readable `"code"` (see [`ErrorCode`]) and a human
//! `"error"` string. Exact values travel as raw decimal digit
//! strings — JSON numbers are arbitrary precision and the workspace
//! parser keeps the digits — so `u64` digests and `f64` score bit
//! patterns cross the wire losslessly.
//!
//! ```text
//! → {"op":"register","system":"inc","scenario":"income","rows":120,"seed":7}
//! ← {"ok":true,"op":"register","system":"inc","cache_entries":0}
//! → {"op":"diagnose","system":"inc"}
//! ← {"ok":true,"op":"diagnose","digest":...,"warm_hits":0,...}
//! ```
//!
//! Parsing reuses [`dp_trace::JsonValue`]; serialization reuses
//! [`dp_trace::json_escape`], so both line formats in the workspace
//! escape identically.

use dataprism::Algorithm;
use dp_trace::{json_escape, JsonValue};

/// Hard cap on one request line, including the newline. Large enough
/// for a warm-start trace of tens of thousands of oracle queries,
/// small enough that a hostile client cannot balloon server memory.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024 * 1024;

/// Stable machine-readable error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON, not an object, or missing/held
    /// ill-typed fields.
    MalformedRequest,
    /// The line exceeded [`MAX_REQUEST_BYTES`].
    OversizedRequest,
    /// Unrecognized `"op"`.
    UnknownOp,
    /// The named system is not registered.
    UnknownSystem,
    /// `register` named a scenario key the server does not bundle.
    UnknownScenario,
    /// Admission control: in-flight and queued diagnosis slots are
    /// all taken. Back off and retry.
    Busy,
    /// `warm` payload was not a readable trace stream (malformed
    /// JSONL or a foreign schema version).
    BadTrace,
    /// `restore` payload was not a readable cache snapshot.
    BadSnapshot,
    /// `ingest` payload was not readable CSV for the watched schema.
    BadBatch,
    /// `ingest`/`drift` against a system with no active watcher
    /// (send `watch` first).
    NotWatching,
    /// The diagnosis itself returned an error (assumption violated,
    /// budget exhausted, bad inputs). Deterministic: warm or cold,
    /// the same request fails the same way.
    DiagnosisFailed,
    /// The system panicked during the diagnosis. The namespace's
    /// cache and counters are left as they were, and the server keeps
    /// serving.
    SystemPanicked,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::OversizedRequest => "oversized_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownSystem => "unknown_system",
            ErrorCode::UnknownScenario => "unknown_scenario",
            ErrorCode::Busy => "busy",
            ErrorCode::BadTrace => "bad_trace",
            ErrorCode::BadSnapshot => "bad_snapshot",
            ErrorCode::BadBatch => "bad_batch",
            ErrorCode::NotWatching => "not_watching",
            ErrorCode::DiagnosisFailed => "diagnosis_failed",
            ErrorCode::SystemPanicked => "system_panicked",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Bind `system` to a bundled scenario.
    Register {
        /// Client-chosen system name (the cache namespace key).
        system: String,
        /// Bundled scenario key (see [`crate::registry::SCENARIOS`]).
        scenario: String,
        /// Dataset size override.
        rows: Option<usize>,
        /// Scenario seed override.
        seed: Option<u64>,
    },
    /// Run a diagnosis against a registered system.
    Diagnose {
        /// Registered system name.
        system: String,
        /// Algorithm to run: `greedy` (the default), `group_test` or
        /// `auto` on the wire.
        algo: Algorithm,
        /// Worker-thread override (defaults to the scenario config).
        threads: Option<usize>,
        /// In-flight speculative frame budget override for this
        /// diagnosis (defaults to the namespace's slice of the
        /// server-wide budget).
        budget: Option<usize>,
    },
    /// Warm a system's cache namespace from a JSONL trace stream
    /// (the `--trace` output of a prior run), carried inline.
    Warm {
        /// Registered system name.
        system: String,
        /// The JSONL trace text.
        trace: String,
    },
    /// Serialize a system's cache namespace to snapshot text.
    Snapshot {
        /// Registered system name.
        system: String,
    },
    /// Load a snapshot into a system's cache namespace.
    Restore {
        /// Registered system name.
        system: String,
        /// Snapshot text produced by a prior `snapshot` (or the
        /// shutdown flush).
        snapshot: String,
    },
    /// Start continuous monitoring of a system: discover the
    /// baseline profile set from its passing dataset and set up live
    /// sketches. Re-watching resets the stream (the namespace's
    /// cumulative drift totals survive).
    Watch {
        /// Registered system name.
        system: String,
        /// Drift threshold `τ_drift` override (default 0.1).
        tau: Option<f64>,
        /// Scoring-window length in batches (default 2).
        window: Option<usize>,
    },
    /// Append one batch of rows (inline CSV, header row required,
    /// columns as the watched schema) to a watched system's stream.
    Ingest {
        /// Registered system name.
        system: String,
        /// CSV text of the batch.
        rows_csv: String,
    },
    /// Score the watched window against the baseline profiles;
    /// optionally escalate drifted profiles into a targeted
    /// re-diagnosis on the spot.
    Drift {
        /// Registered system name.
        system: String,
        /// Run the targeted re-diagnosis when anything drifts.
        diagnose: bool,
        /// Algorithm for the escalation: `greedy` (the default) or
        /// `group_test` on the wire.
        algo: Algorithm,
    },
    /// Server and per-system counters.
    Stats {
        /// Restrict to one system (all systems when absent).
        system: Option<String>,
    },
    /// Prometheus text-format scrape of server, namespace, and
    /// monitoring counters.
    Metrics,
    /// Graceful shutdown: drain, flush snapshots, exit.
    Shutdown,
}

fn field_str(obj: &JsonValue, key: &str) -> Result<String, (ErrorCode, String)> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| {
            (
                ErrorCode::MalformedRequest,
                format!("missing or non-string field '{key}'"),
            )
        })
}

fn field_opt_u64(obj: &JsonValue, key: &str) -> Result<Option<u64>, (ErrorCode, String)> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            (
                ErrorCode::MalformedRequest,
                format!("field '{key}' is not an unsigned integer"),
            )
        }),
    }
}

fn field_opt_f64(obj: &JsonValue, key: &str) -> Result<Option<f64>, (ErrorCode, String)> {
    match obj.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| {
            (
                ErrorCode::MalformedRequest,
                format!("field '{key}' is not a number"),
            )
        }),
    }
}

/// Decode one request line. Every failure maps to a typed error the
/// caller turns into an `"ok": false` response — a malformed line
/// must never tear down the connection, let alone the server.
pub fn parse_request(line: &str) -> Result<Request, (ErrorCode, String)> {
    let value = JsonValue::parse(line)
        .map_err(|e| (ErrorCode::MalformedRequest, format!("invalid JSON: {e}")))?;
    if !matches!(value, JsonValue::Obj(_)) {
        return Err((
            ErrorCode::MalformedRequest,
            "request is not a JSON object".to_string(),
        ));
    }
    let op = field_str(&value, "op")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "register" => Ok(Request::Register {
            system: field_str(&value, "system")?,
            scenario: field_str(&value, "scenario")?,
            rows: field_opt_u64(&value, "rows")?.map(|v| v as usize),
            seed: field_opt_u64(&value, "seed")?,
        }),
        "diagnose" => {
            let algo = match value.get("algo").and_then(|v| v.as_str()) {
                None | Some("greedy") => Algorithm::Greedy,
                Some("group_test") => Algorithm::GroupTest,
                Some("auto") => Algorithm::Auto,
                Some(other) => {
                    return Err((
                        ErrorCode::MalformedRequest,
                        format!("unknown algo '{other}' (greedy|group_test|auto)"),
                    ))
                }
            };
            // A `mode` field asks for a speculation policy this server
            // does not have: refuse it rather than silently run the
            // one policy there is.
            if value.get("mode").is_some() {
                return Err((
                    ErrorCode::MalformedRequest,
                    "field 'mode' was removed: speculation has one policy".to_string(),
                ));
            }
            Ok(Request::Diagnose {
                system: field_str(&value, "system")?,
                algo,
                threads: field_opt_u64(&value, "threads")?.map(|v| v as usize),
                budget: field_opt_u64(&value, "budget")?.map(|v| v as usize),
            })
        }
        "warm" => Ok(Request::Warm {
            system: field_str(&value, "system")?,
            trace: field_str(&value, "trace")?,
        }),
        "snapshot" => Ok(Request::Snapshot {
            system: field_str(&value, "system")?,
        }),
        "restore" => Ok(Request::Restore {
            system: field_str(&value, "system")?,
            snapshot: field_str(&value, "snapshot")?,
        }),
        "watch" => Ok(Request::Watch {
            system: field_str(&value, "system")?,
            tau: field_opt_f64(&value, "tau")?,
            window: field_opt_u64(&value, "window")?.map(|v| v as usize),
        }),
        "ingest" => Ok(Request::Ingest {
            system: field_str(&value, "system")?,
            rows_csv: field_str(&value, "rows_csv")?,
        }),
        "drift" => {
            let algo = match value.get("algo").and_then(|v| v.as_str()) {
                None | Some("greedy") => Algorithm::Greedy,
                Some("group_test") => Algorithm::GroupTest,
                Some(other) => {
                    return Err((
                        ErrorCode::MalformedRequest,
                        format!("unknown algo '{other}' (greedy|group_test)"),
                    ))
                }
            };
            let diagnose = match value.get("diagnose") {
                None | Some(JsonValue::Null) => false,
                Some(v) => v.as_bool().ok_or_else(|| {
                    (
                        ErrorCode::MalformedRequest,
                        "field 'diagnose' is not a bool".to_string(),
                    )
                })?,
            };
            Ok(Request::Drift {
                system: field_str(&value, "system")?,
                diagnose,
                algo,
            })
        }
        "metrics" => Ok(Request::Metrics),
        "stats" => Ok(Request::Stats {
            system: match value.get("system") {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(v.as_str().map(str::to_string).ok_or_else(|| {
                    (
                        ErrorCode::MalformedRequest,
                        "field 'system' is not a string".to_string(),
                    )
                })?),
            },
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err((ErrorCode::UnknownOp, format!("unknown op '{other}'"))),
    }
}

/// Builder for one `"ok": true` response line.
pub struct Reply {
    buf: String,
}

impl Reply {
    /// Start an ok-response for `op`.
    pub fn ok(op: &str) -> Reply {
        Reply {
            buf: format!("{{\"ok\":true,\"op\":{}", json_escape(op)),
        }
    }

    /// Append an unsigned integer field (raw decimal digits — exact
    /// for any u64).
    pub fn u64(mut self, key: &str, v: u64) -> Reply {
        self.buf.push_str(&format!(",{}:{v}", json_escape(key)));
        self
    }

    /// Append a usize field.
    pub fn usize(self, key: &str, v: usize) -> Reply {
        self.u64(key, v as u64)
    }

    /// Append a bool field.
    pub fn bool(mut self, key: &str, v: bool) -> Reply {
        self.buf.push_str(&format!(",{}:{v}", json_escape(key)));
        self
    }

    /// Append a string field.
    pub fn str(mut self, key: &str, v: &str) -> Reply {
        self.buf
            .push_str(&format!(",{}:{}", json_escape(key), json_escape(v)));
        self
    }

    /// Append an `f64` twice: human-readable under `key` (shortest
    /// round-trip decimal) and exact under `key_bits` (the
    /// `f64::to_bits` pattern as decimal digits).
    pub fn f64_exact(mut self, key: &str, v: f64) -> Reply {
        self.buf.push_str(&format!(
            ",{}:{v:?},{}:{}",
            json_escape(key),
            json_escape(&format!("{key}_bits")),
            v.to_bits()
        ));
        self
    }

    /// Append an array of usize ids.
    pub fn ids(mut self, key: &str, ids: &[usize]) -> Reply {
        self.buf.push_str(&format!(",{}:[", json_escape(key)));
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&id.to_string());
        }
        self.buf.push(']');
        self
    }

    /// Append an array of strings.
    pub fn strs(mut self, key: &str, items: &[String]) -> Reply {
        self.buf.push_str(&format!(",{}:[", json_escape(key)));
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&json_escape(item));
        }
        self.buf.push(']');
        self
    }

    /// Finish the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// One `"ok": false` response line.
pub fn error_response(code: ErrorCode, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"code\":{},\"error\":{}}}",
        json_escape(code.as_str()),
        json_escape(detail)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"op\":\"register\",\"system\":\"inc\",\"scenario\":\"income\",\"rows\":120,\"seed\":7}")
                .unwrap(),
            Request::Register {
                system: "inc".into(),
                scenario: "income".into(),
                rows: Some(120),
                seed: Some(7),
            }
        );
        assert_eq!(
            parse_request(
                "{\"op\":\"diagnose\",\"system\":\"inc\",\"algo\":\"auto\",\"threads\":8}"
            )
            .unwrap(),
            Request::Diagnose {
                system: "inc".into(),
                algo: Algorithm::Auto,
                threads: Some(8),
                budget: None,
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"diagnose\",\"system\":\"inc\"}").unwrap(),
            Request::Diagnose {
                system: "inc".into(),
                algo: Algorithm::Greedy,
                threads: None,
                budget: None,
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"diagnose\",\"system\":\"inc\",\"budget\":16}").unwrap(),
            Request::Diagnose {
                system: "inc".into(),
                algo: Algorithm::Greedy,
                threads: None,
                budget: Some(16),
            }
        );
        assert!(matches!(
            parse_request("{\"op\":\"warm\",\"system\":\"inc\",\"trace\":\"\"}").unwrap(),
            Request::Warm { .. }
        ));
        assert!(matches!(
            parse_request("{\"op\":\"stats\"}").unwrap(),
            Request::Stats { system: None }
        ));
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn parses_the_monitoring_ops() {
        assert_eq!(
            parse_request("{\"op\":\"watch\",\"system\":\"inc\",\"tau\":0.25,\"window\":3}")
                .unwrap(),
            Request::Watch {
                system: "inc".into(),
                tau: Some(0.25),
                window: Some(3),
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"watch\",\"system\":\"inc\"}").unwrap(),
            Request::Watch {
                system: "inc".into(),
                tau: None,
                window: None,
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"ingest\",\"system\":\"inc\",\"rows_csv\":\"a,b\\n1,2\\n\"}")
                .unwrap(),
            Request::Ingest {
                system: "inc".into(),
                rows_csv: "a,b\n1,2\n".into(),
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"drift\",\"system\":\"inc\"}").unwrap(),
            Request::Drift {
                system: "inc".into(),
                diagnose: false,
                algo: Algorithm::Greedy,
            }
        );
        assert_eq!(
            parse_request(
                "{\"op\":\"drift\",\"system\":\"inc\",\"diagnose\":true,\"algo\":\"group_test\"}"
            )
            .unwrap(),
            Request::Drift {
                system: "inc".into(),
                diagnose: true,
                algo: Algorithm::GroupTest,
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"metrics\"}").unwrap(),
            Request::Metrics
        );
        // Auto has a greedy fallback path a drift escalation does not
        // need; it is rejected rather than silently remapped.
        let (code, _) =
            parse_request("{\"op\":\"drift\",\"system\":\"s\",\"algo\":\"auto\"}").unwrap_err();
        assert_eq!(code, ErrorCode::MalformedRequest);
        let (code, _) =
            parse_request("{\"op\":\"watch\",\"system\":\"s\",\"tau\":\"hot\"}").unwrap_err();
        assert_eq!(code, ErrorCode::MalformedRequest);
        let (code, _) = parse_request("{\"op\":\"ingest\",\"system\":\"s\"}").unwrap_err();
        assert_eq!(code, ErrorCode::MalformedRequest);
    }

    #[test]
    fn typed_errors_for_bad_lines() {
        let (code, _) = parse_request("not json").unwrap_err();
        assert_eq!(code, ErrorCode::MalformedRequest);
        let (code, _) = parse_request("[1,2,3]").unwrap_err();
        assert_eq!(code, ErrorCode::MalformedRequest);
        let (code, _) = parse_request("{\"op\":\"martian\"}").unwrap_err();
        assert_eq!(code, ErrorCode::UnknownOp);
        let (code, msg) = parse_request("{\"op\":\"diagnose\"}").unwrap_err();
        assert_eq!(code, ErrorCode::MalformedRequest);
        assert!(msg.contains("system"), "{msg}");
        let (code, _) =
            parse_request("{\"op\":\"diagnose\",\"system\":\"s\",\"algo\":\"x\"}").unwrap_err();
        assert_eq!(code, ErrorCode::MalformedRequest);
        let (code, _) =
            parse_request("{\"op\":\"diagnose\",\"system\":\"s\",\"threads\":-2}").unwrap_err();
        assert_eq!(code, ErrorCode::MalformedRequest);
        // The removed speculation-mode field is refused by name, for
        // every value a client could send (a former mode or not).
        for mode in ["\"adaptive\"", "\"static\"", "\"turbo\"", "1"] {
            let line = format!("{{\"op\":\"diagnose\",\"system\":\"s\",\"mode\":{mode}}}");
            let (code, msg) = parse_request(&line).unwrap_err();
            assert_eq!(code, ErrorCode::MalformedRequest, "{line}");
            assert!(msg.contains("'mode' was removed"), "{msg}");
        }
    }

    #[test]
    fn replies_are_parseable_and_exact() {
        let line = Reply::ok("diagnose")
            .str("system", "inc \"quoted\"")
            .u64("digest", u64::MAX)
            .bool("resolved", true)
            .f64_exact("final_score", 0.1 + 0.2)
            .ids("pvt_ids", &[3, 7])
            .finish();
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(v.get("digest").and_then(|d| d.as_u64()), Some(u64::MAX));
        assert_eq!(
            v.get("final_score_bits").and_then(|b| b.as_u64()),
            Some((0.1f64 + 0.2).to_bits()),
            "score bits cross the wire exactly"
        );
        assert_eq!(
            v.get("system").and_then(|s| s.as_str()),
            Some("inc \"quoted\"")
        );
    }

    #[test]
    fn error_responses_carry_stable_codes() {
        let line = error_response(ErrorCode::Busy, "all 4 slots taken");
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
        assert_eq!(v.get("code").and_then(|c| c.as_str()), Some("busy"));
    }
}
