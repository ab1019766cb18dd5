//! JSONL serialization of the trace stream.
//!
//! One JSON object per line, each carrying the schema version as
//! `"v"` (see [`SCHEMA_VERSION`]). The encoder/decoder pair is
//! hand-rolled (the workspace is offline — no serde) and exact:
//! `u64` values are written as full-precision decimal integers (JSON
//! numbers are arbitrary-precision; the *parser* keeps the raw digit
//! string, so fingerprints above 2⁵³ survive), and `f64` scores use
//! Rust's shortest round-trip formatting, so
//! `parse_jsonl(to_jsonl(r)) == r` bit for bit.

use crate::event::{
    BisectionNodeSpan, DiagnosisSpan, DiscoverySpan, DriftScoreSpan, Event, LintFactSpan, LintSpan,
    MonitorTriggerSpan, OracleQuerySpan, QueryKind, SketchMergeSpan, SpeculationPlanSpan,
    TraceRecord, SCHEMA_VERSION,
};
use std::fmt;

/// A malformed trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------

fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is the shortest representation that round-trips
        // through `str::parse::<f64>` exactly.
        out.push_str(&format!("{x:?}"));
    } else {
        // Scores are sanitized into [0, 1] upstream; a non-finite
        // value can only reach here through a custom sink user. JSON
        // has no NaN/Inf — encode as null, decoded back as NaN.
        out.push_str("null");
    }
}

fn push_ids(out: &mut String, ids: &[usize]) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
    out.push(']');
}

struct Obj {
    buf: String,
}

impl Obj {
    fn new(seq: u64, at_ns: u64, ev: &str) -> Obj {
        let mut buf = String::with_capacity(128);
        buf.push_str(&format!(
            "{{\"v\":{SCHEMA_VERSION},\"seq\":{seq},\"at_ns\":{at_ns},\"ev\":\"{ev}\""
        ));
        Obj { buf }
    }

    fn u64(mut self, key: &str, v: u64) -> Obj {
        self.buf.push_str(&format!(",\"{key}\":{v}"));
        self
    }

    fn usize(self, key: &str, v: usize) -> Obj {
        self.u64(key, v as u64)
    }

    fn f64(mut self, key: &str, v: f64) -> Obj {
        self.buf.push_str(&format!(",\"{key}\":"));
        push_f64(&mut self.buf, v);
        self
    }

    fn bool(mut self, key: &str, v: bool) -> Obj {
        self.buf.push_str(&format!(",\"{key}\":{v}"));
        self
    }

    fn str(mut self, key: &str, v: &str) -> Obj {
        self.buf.push_str(&format!(",\"{key}\":"));
        push_str_escaped(&mut self.buf, v);
        self
    }

    fn ids(mut self, key: &str, v: &[usize]) -> Obj {
        self.buf.push_str(&format!(",\"{key}\":"));
        push_ids(&mut self.buf, v);
        self
    }

    fn opt_u64(self, key: &str, v: Option<u64>) -> Obj {
        match v {
            Some(v) => self.u64(key, v),
            None => self,
        }
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Encode one record as a single JSON line (no trailing newline).
pub fn record_to_json(rec: &TraceRecord) -> String {
    let (seq, at) = (rec.seq, rec.at_ns);
    match &rec.event {
        Event::DiagnosisBegin(s) => Obj::new(seq, at, "diagnosis_begin")
            .str("algorithm", &s.algorithm)
            .str("system", &s.system)
            .u64("seed", s.seed)
            .f64("threshold", s.threshold)
            .usize("num_threads", s.num_threads)
            .usize("speculation_depth", s.speculation_depth)
            .finish(),
        Event::Discovery(s) => Obj::new(seq, at, "discovery")
            .usize("n_pvts", s.n_pvts)
            .u64("pairs", s.pairs)
            .u64("screened", s.screened)
            .u64("exact", s.exact)
            .u64("elapsed_ns", s.elapsed_ns)
            .finish(),
        Event::Lint(s) => Obj::new(seq, at, "lint")
            .bool("analyzed", s.analyzed)
            .usize("errors", s.errors)
            .usize("warnings", s.warnings)
            .usize("infos", s.infos)
            .usize("pruned", s.pruned)
            .finish(),
        Event::LintFact(s) => Obj::new(seq, at, "lint_fact")
            .usize("subsumption_classes", s.subsumption_classes)
            .usize("subsumed", s.subsumed)
            .usize("unreachable", s.unreachable)
            .usize("commuting_pairs", s.commuting_pairs)
            .usize("noop_certified", s.noop_certified)
            .finish(),
        Event::OracleQuery(s) => Obj::new(seq, at, "oracle_query")
            .str(
                "kind",
                match s.kind {
                    QueryKind::Baseline => "baseline",
                    QueryKind::Intervention => "intervention",
                },
            )
            .u64("fingerprint", s.fingerprint)
            .f64("score", s.score)
            .bool("cached", s.cached)
            .bool("speculative_hit", s.speculative_hit)
            .opt_u64("latency_ns", s.latency_ns)
            .finish(),
        Event::Candidates { n } => Obj::new(seq, at, "candidates").usize("n", *n).finish(),
        Event::Intervention {
            ids,
            before,
            after,
            kept,
        } => Obj::new(seq, at, "intervention")
            .ids("ids", ids)
            .f64("before", *before)
            .f64("after", *after)
            .bool("kept", *kept)
            .finish(),
        Event::BisectionNodeBegin(s) => Obj::new(seq, at, "node_begin")
            .u64("node", s.node)
            .opt_u64("parent", s.parent)
            .ids("candidates", &s.candidates)
            .usize("covered", s.covered)
            .finish(),
        Event::SpeculationPlan(s) => Obj::new(seq, at, "speculation_plan")
            .u64("node", s.node)
            .usize("depth", s.depth)
            .opt_u64("budget", s.budget.map(|b| b as u64))
            .usize("frames", s.frames)
            .finish(),
        Event::BisectionPartition {
            node,
            left,
            right,
            cut_edges,
        } => Obj::new(seq, at, "partition")
            .u64("node", *node)
            .ids("left", left)
            .ids("right", right)
            .opt_u64("cut_edges", cut_edges.map(|c| c as u64))
            .finish(),
        Event::BisectionProbe {
            node,
            half,
            ids,
            before,
            after,
            kept,
            speculative_hit,
        } => Obj::new(seq, at, "probe")
            .u64("node", *node)
            .u64("half", *half as u64)
            .ids("ids", ids)
            .f64("before", *before)
            .f64("after", *after)
            .bool("kept", *kept)
            .bool("speculative_hit", *speculative_hit)
            .finish(),
        Event::BisectionNodeEnd { node, selected } => Obj::new(seq, at, "node_end")
            .u64("node", *node)
            .ids("selected", selected)
            .finish(),
        Event::MinimalityDrop { pvt } => Obj::new(seq, at, "minimality_drop")
            .usize("pvt", *pvt)
            .finish(),
        Event::SketchMerge(s) => Obj::new(seq, at, "sketch_merge")
            .usize("columns", s.columns)
            .u64("batch_rows", s.batch_rows)
            .u64("total_rows", s.total_rows)
            .u64("batches", s.batches)
            .finish(),
        Event::DriftScore(s) => Obj::new(seq, at, "drift_score")
            .usize("profile", s.profile)
            .f64("score", s.score)
            .f64("threshold", s.threshold)
            .bool("drifted", s.drifted)
            .bool("screened", s.screened)
            .finish(),
        Event::MonitorTrigger(s) => Obj::new(seq, at, "monitor_trigger")
            .ids("drifted", &s.drifted)
            .usize("candidates", s.candidates)
            .u64("window_rows", s.window_rows)
            .finish(),
        Event::DiagnosisEnd {
            resolved,
            interventions,
            final_score,
        } => Obj::new(seq, at, "diagnosis_end")
            .bool("resolved", *resolved)
            .usize("interventions", *interventions)
            .f64("final_score", *final_score)
            .finish(),
    }
}

/// Encode a whole stream as JSONL (one record per line, trailing
/// newline).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&record_to_json(rec));
        out.push('\n');
    }
    out
}

/// Escape a string for embedding in a JSON document (adds the
/// surrounding quotes). Shared with `dp_serve`'s wire protocol so
/// both line formats escape identically.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str_escaped(&mut out, s);
    out
}

// ---------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw digit string so `u64`
/// keys (content fingerprints) survive beyond 2⁵³.
///
/// Public so other line-oriented JSON protocols in the workspace
/// (`dp_serve`) can reuse the offline parser instead of hand-rolling
/// a second one.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw digit string (exact for u64 keys).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in document order.
    Obj(Vec<(String, JsonValue)>),
}

type Json = JsonValue;

impl JsonValue {
    /// Parse one JSON document, requiring it to span the whole input
    /// (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut parser = Parser::new(input);
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing data after JSON value"));
        }
        Ok(value)
    }

    /// Field lookup on an object; `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The raw digit string of a number, parsed as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`JsonValue::parse`] accepts. The
/// parser recurses once per level, so an unbounded depth would let one
/// request line of `[` bytes overflow a connection thread's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        Ok(Json::Num(
            String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
        ))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs never appear in our own
                            // output (we only \u-escape control
                            // chars); map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through intact:
                    // decode the one char at the byte position.
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

struct Fields<'a>(&'a [(String, Json)]);

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Result<&'a Json, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("field '{key}': '{raw}' is not a u64")),
            _ => Err(format!("field '{key}' is not a number")),
        }
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.u64(key).map(|v| v as usize)
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        if self.0.iter().any(|(k, _)| k == key) {
            self.u64(key).map(Some)
        } else {
            Ok(None)
        }
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Json::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| format!("field '{key}': '{raw}' is not an f64")),
            Json::Null => Ok(f64::NAN),
            _ => Err(format!("field '{key}' is not a number")),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("field '{key}' is not a bool")),
        }
    }

    fn str(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(format!("field '{key}' is not a string")),
        }
    }

    fn ids(&self, key: &str) -> Result<Vec<usize>, String> {
        match self.get(key)? {
            Json::Arr(items) => items
                .iter()
                .map(|item| match item {
                    Json::Num(raw) => raw
                        .parse::<usize>()
                        .map_err(|_| format!("field '{key}': bad id '{raw}'")),
                    _ => Err(format!("field '{key}' holds a non-number")),
                })
                .collect(),
            _ => Err(format!("field '{key}' is not an array")),
        }
    }
}

fn decode_record(line: &str) -> Result<TraceRecord, String> {
    let mut parser = Parser::new(line);
    let Json::Obj(fields) = parser.value()? else {
        return Err("record is not a JSON object".into());
    };
    let f = Fields(&fields);
    let v = f.u64("v")?;
    if v != SCHEMA_VERSION as u64 {
        return Err(format!(
            "schema version {v} (this parser reads v{SCHEMA_VERSION})"
        ));
    }
    let seq = f.u64("seq")?;
    let at_ns = f.u64("at_ns")?;
    let ev = f.str("ev")?;
    let event = match ev.as_str() {
        "diagnosis_begin" => Event::DiagnosisBegin(DiagnosisSpan {
            algorithm: f.str("algorithm")?,
            system: f.str("system")?,
            seed: f.u64("seed")?,
            threshold: f.f64("threshold")?,
            num_threads: f.usize("num_threads")?,
            speculation_depth: f.usize("speculation_depth")?,
        }),
        "discovery" => Event::Discovery(DiscoverySpan {
            n_pvts: f.usize("n_pvts")?,
            pairs: f.u64("pairs")?,
            screened: f.u64("screened")?,
            exact: f.u64("exact")?,
            elapsed_ns: f.u64("elapsed_ns")?,
        }),
        "lint" => Event::Lint(LintSpan {
            analyzed: f.bool("analyzed")?,
            errors: f.usize("errors")?,
            warnings: f.usize("warnings")?,
            infos: f.usize("infos")?,
            pruned: f.usize("pruned")?,
        }),
        "lint_fact" => Event::LintFact(LintFactSpan {
            subsumption_classes: f.usize("subsumption_classes")?,
            subsumed: f.usize("subsumed")?,
            unreachable: f.usize("unreachable")?,
            commuting_pairs: f.usize("commuting_pairs")?,
            noop_certified: f.usize("noop_certified")?,
        }),
        "oracle_query" => Event::OracleQuery(OracleQuerySpan {
            kind: match f.str("kind")?.as_str() {
                "baseline" => QueryKind::Baseline,
                "intervention" => QueryKind::Intervention,
                other => return Err(format!("unknown query kind '{other}'")),
            },
            fingerprint: f.u64("fingerprint")?,
            score: f.f64("score")?,
            cached: f.bool("cached")?,
            speculative_hit: f.bool("speculative_hit")?,
            latency_ns: f.opt_u64("latency_ns")?,
        }),
        "candidates" => Event::Candidates { n: f.usize("n")? },
        "intervention" => Event::Intervention {
            ids: f.ids("ids")?,
            before: f.f64("before")?,
            after: f.f64("after")?,
            kept: f.bool("kept")?,
        },
        "node_begin" => Event::BisectionNodeBegin(BisectionNodeSpan {
            node: f.u64("node")?,
            parent: f.opt_u64("parent")?,
            candidates: f.ids("candidates")?,
            covered: f.usize("covered")?,
        }),
        "speculation_plan" => Event::SpeculationPlan(SpeculationPlanSpan {
            node: f.u64("node")?,
            depth: f.usize("depth")?,
            budget: f.opt_u64("budget")?.map(|b| b as usize),
            frames: f.usize("frames")?,
        }),
        "partition" => Event::BisectionPartition {
            node: f.u64("node")?,
            left: f.ids("left")?,
            right: f.ids("right")?,
            cut_edges: f.opt_u64("cut_edges")?.map(|c| c as usize),
        },
        "probe" => Event::BisectionProbe {
            node: f.u64("node")?,
            half: f.u64("half")? as u8,
            ids: f.ids("ids")?,
            before: f.f64("before")?,
            after: f.f64("after")?,
            kept: f.bool("kept")?,
            speculative_hit: f.bool("speculative_hit")?,
        },
        "node_end" => Event::BisectionNodeEnd {
            node: f.u64("node")?,
            selected: f.ids("selected")?,
        },
        "minimality_drop" => Event::MinimalityDrop {
            pvt: f.usize("pvt")?,
        },
        "sketch_merge" => Event::SketchMerge(SketchMergeSpan {
            columns: f.usize("columns")?,
            batch_rows: f.u64("batch_rows")?,
            total_rows: f.u64("total_rows")?,
            batches: f.u64("batches")?,
        }),
        "drift_score" => Event::DriftScore(DriftScoreSpan {
            profile: f.usize("profile")?,
            score: f.f64("score")?,
            threshold: f.f64("threshold")?,
            drifted: f.bool("drifted")?,
            screened: f.bool("screened")?,
        }),
        "monitor_trigger" => Event::MonitorTrigger(MonitorTriggerSpan {
            drifted: f.ids("drifted")?,
            candidates: f.usize("candidates")?,
            window_rows: f.u64("window_rows")?,
        }),
        "diagnosis_end" => Event::DiagnosisEnd {
            resolved: f.bool("resolved")?,
            interventions: f.usize("interventions")?,
            final_score: f.f64("final_score")?,
        },
        other => return Err(format!("unknown event '{other}'")),
    };
    Ok(TraceRecord { seq, at_ns, event })
}

/// Parse a JSONL trace stream back into records. Empty lines are
/// skipped; any malformed or wrong-version line fails the whole
/// parse with its 1-based line number.
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut records = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(decode_record(line).map_err(|message| ParseError {
            line: i + 1,
            message,
        })?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                seq: 0,
                at_ns: 17,
                event: Event::DiagnosisBegin(DiagnosisSpan {
                    algorithm: "group_test".into(),
                    system: "weird \"name\"\twith\nescapes".into(),
                    seed: 0xDA7A,
                    threshold: 0.2,
                    num_threads: 8,
                    speculation_depth: 2,
                }),
            },
            TraceRecord {
                seq: 1,
                at_ns: 215,
                event: Event::OracleQuery(OracleQuerySpan {
                    kind: QueryKind::Baseline,
                    // Above 2^53: would corrupt if routed through f64.
                    fingerprint: 0xFEDC_BA98_7654_3210,
                    score: 0.1 + 0.2, // a non-shortest-decimal f64
                    cached: false,
                    speculative_hit: false,
                    latency_ns: Some(123_456_789),
                }),
            },
            TraceRecord {
                seq: 2,
                at_ns: 300,
                event: Event::BisectionNodeBegin(BisectionNodeSpan {
                    node: 0,
                    parent: None,
                    candidates: vec![0, 3, 7],
                    covered: 1,
                }),
            },
            TraceRecord {
                seq: 3,
                at_ns: 400,
                event: Event::BisectionPartition {
                    node: 0,
                    left: vec![0],
                    right: vec![3, 7],
                    cut_edges: Some(2),
                },
            },
            TraceRecord {
                seq: 4,
                at_ns: 450,
                event: Event::BisectionProbe {
                    node: 0,
                    half: 2,
                    ids: vec![3, 7],
                    before: 0.75,
                    after: 0.1,
                    kept: true,
                    speculative_hit: true,
                },
            },
            TraceRecord {
                seq: 5,
                at_ns: 500,
                event: Event::BisectionNodeEnd {
                    node: 0,
                    selected: vec![3],
                },
            },
            TraceRecord {
                seq: 6,
                at_ns: 600,
                event: Event::DiagnosisEnd {
                    resolved: true,
                    interventions: 9,
                    final_score: 0.0,
                },
            },
            TraceRecord {
                seq: 7,
                at_ns: 650,
                event: Event::SpeculationPlan(SpeculationPlanSpan {
                    node: 0,
                    depth: 2,
                    budget: Some(64),
                    frames: 14,
                }),
            },
            TraceRecord {
                seq: 8,
                at_ns: 660,
                event: Event::OracleQuery(OracleQuerySpan {
                    kind: QueryKind::Intervention,
                    fingerprint: 42,
                    score: 0.0,
                    cached: true,
                    speculative_hit: true,
                    // A cache hit: no latency sample at all.
                    latency_ns: None,
                }),
            },
            TraceRecord {
                seq: 9,
                at_ns: 700,
                event: Event::LintFact(LintFactSpan {
                    subsumption_classes: 2,
                    subsumed: 3,
                    unreachable: 1,
                    commuting_pairs: 12,
                    noop_certified: 1,
                }),
            },
            TraceRecord {
                seq: 10,
                at_ns: 710,
                event: Event::SketchMerge(SketchMergeSpan {
                    columns: 6,
                    batch_rows: 50,
                    total_rows: 350,
                    batches: 7,
                }),
            },
            TraceRecord {
                seq: 11,
                at_ns: 720,
                event: Event::DriftScore(DriftScoreSpan {
                    profile: 4,
                    score: 0.1 + 0.2, // a non-shortest-decimal f64
                    threshold: 0.1,
                    drifted: true,
                    screened: false,
                }),
            },
            TraceRecord {
                seq: 12,
                at_ns: 730,
                event: Event::MonitorTrigger(MonitorTriggerSpan {
                    drifted: vec![2, 4],
                    candidates: 3,
                    window_rows: 100,
                }),
            },
        ]
    }

    #[test]
    fn round_trips_bit_for_bit() {
        let records = sample_records();
        let text = to_jsonl(&records);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(records, back);
        // Scores round-trip exactly, not just approximately.
        let (Event::OracleQuery(a), Event::OracleQuery(b)) = (&records[1].event, &back[1].event)
        else {
            panic!("wrong event")
        };
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn every_line_carries_the_schema_version() {
        let prefix = format!("{{\"v\":{SCHEMA_VERSION},");
        let text = to_jsonl(&sample_records());
        for line in text.lines() {
            assert!(line.starts_with(&prefix), "{line}");
        }
    }

    #[test]
    fn rejects_other_schema_versions_with_line_numbers() {
        let good = record_to_json(&sample_records()[0]);
        let forward = SCHEMA_VERSION + 1;
        let bad = good.replacen(
            &format!("\"v\":{SCHEMA_VERSION}"),
            &format!("\"v\":{forward}"),
            1,
        );
        assert_ne!(good, bad, "version substitution must have happened");
        let err = parse_jsonl(&format!("{good}\n{bad}\n")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message.contains(&format!("schema version {forward}")),
            "{err}"
        );
    }

    #[test]
    fn rejects_garbage_and_missing_fields() {
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl(&format!("{{\"v\":{SCHEMA_VERSION}}}\n")).is_err());
        let err = parse_jsonl(&format!(
            "{{\"v\":{SCHEMA_VERSION},\"seq\":0,\"at_ns\":0,\"ev\":\"martian\"}}\n"
        ))
        .unwrap_err();
        assert!(err.message.contains("unknown event"), "{err}");
    }

    #[test]
    fn cache_hits_omit_latency_on_the_wire() {
        let records = sample_records();
        let hit = record_to_json(&records[8]);
        assert!(!hit.contains("latency_ns"), "{hit}");
        let miss = record_to_json(&records[1]);
        assert!(miss.contains("\"latency_ns\":123456789"), "{miss}");
    }

    #[test]
    fn skips_blank_lines() {
        let records = sample_records();
        let text = format!("\n{}\n\n", to_jsonl(&records));
        assert_eq!(parse_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&objects).is_err());
    }

    #[test]
    fn a_million_open_brackets_fail_with_a_line_number() {
        // One recursion per level would overflow the stack long
        // before the end of this line; the depth bound stops at 129.
        let records = sample_records();
        let text = format!("{}\n{}", record_to_json(&records[0]), "[".repeat(1_000_000));
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Decoding each char by validating the rest of the line made an
        // n-byte string cost O(n²): a 400 KB `rows_csv` took 2.6 s in a
        // release build, an 8 MiB request line about 20 minutes.
        let line = format!("{{\"rows_csv\":\"{}\"}}", "a,é\\n".repeat(1 << 18));
        let start = std::time::Instant::now();
        let value = JsonValue::parse(&line).unwrap();
        let csv = value.get("rows_csv").and_then(|s| s.as_str()).unwrap();
        assert_eq!(csv.chars().count(), 4 << 18);
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_secs() < 5,
            "{elapsed:?} for {} bytes",
            line.len()
        );
    }

    /// JSON-ish text: structural characters, escapes and digits mixed
    /// with any bytes, decoded lossily as the daemon decodes a request.
    fn json_noise() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                4 => prop::sample::select(b"{}[]\":,\\u0123456789.eE+-truefalsn \n\t".to_vec()),
                1 => 0u8..=255u8,
            ],
            0..96,
        )
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
    }

    #[test]
    fn a_v6_stream_is_refused_with_the_typed_version_error() {
        let v6 = "{\"v\":6,\"seq\":3,\"at_ns\":9,\"ev\":\"greedy_pick\",\"pvt\":28,\
                  \"before\":0.743,\"after\":0.1,\"kept\":true}\n";
        let err = parse_jsonl(v6).unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.message, "schema version 6 (this parser reads v7)");
        // The v6-only event is gone from v7 too.
        let err = parse_jsonl(&v6.replace("\"v\":6", "\"v\":7")).unwrap_err();
        assert!(err.message.contains("unknown event 'greedy_pick'"), "{err}");
    }

    /// A finite `f64` from raw bits (subnormals and negative zero
    /// included); JSON has no NaN or infinity.
    fn finite(bits: u64) -> f64 {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            (bits >> 11) as f64
        }
    }

    /// The event of variant `kind` (numbered as [`variant`] numbers
    /// them), its fields drawn from the words `w` and `text`.
    fn event(kind: u8, w: &[u64], text: &str) -> Event {
        let ids =
            |k: u64| -> Vec<usize> { w[..(k % 5) as usize].iter().map(|&x| x as usize).collect() };
        let opt = |x: u64| x.is_multiple_of(2).then_some(x >> 1);
        let flag = |x: u64| x.is_multiple_of(2);
        let n = |x: u64| x as usize;
        match kind {
            0 => Event::DiagnosisBegin(DiagnosisSpan {
                algorithm: text.into(),
                system: text.chars().rev().collect(),
                seed: w[0],
                threshold: finite(w[1]),
                num_threads: n(w[2]),
                speculation_depth: n(w[3]),
            }),
            1 => Event::Discovery(DiscoverySpan {
                n_pvts: n(w[0]),
                pairs: w[1],
                screened: w[2],
                exact: w[3],
                elapsed_ns: w[4],
            }),
            2 => Event::Lint(LintSpan {
                analyzed: flag(w[0]),
                errors: n(w[1]),
                warnings: n(w[2]),
                infos: n(w[3]),
                pruned: n(w[4]),
            }),
            3 => Event::LintFact(LintFactSpan {
                subsumption_classes: n(w[0]),
                subsumed: n(w[1]),
                unreachable: n(w[2]),
                commuting_pairs: n(w[3]),
                noop_certified: n(w[4]),
            }),
            4 => Event::OracleQuery(OracleQuerySpan {
                kind: if flag(w[0]) {
                    QueryKind::Baseline
                } else {
                    QueryKind::Intervention
                },
                fingerprint: w[1],
                score: finite(w[2]),
                cached: flag(w[3]),
                speculative_hit: flag(w[4]),
                latency_ns: opt(w[5]),
            }),
            5 => Event::Intervention {
                ids: ids(w[5]),
                before: finite(w[0]),
                after: finite(w[1]),
                kept: flag(w[2]),
            },
            6 => Event::BisectionNodeBegin(BisectionNodeSpan {
                node: w[0],
                parent: opt(w[1]),
                candidates: ids(w[2]),
                covered: n(w[3]),
            }),
            7 => Event::SpeculationPlan(SpeculationPlanSpan {
                node: w[0],
                depth: n(w[1]),
                budget: opt(w[2]).map(n),
                frames: n(w[3]),
            }),
            8 => Event::BisectionPartition {
                node: w[0],
                left: ids(w[1]),
                right: ids(w[2]),
                cut_edges: opt(w[3]).map(n),
            },
            9 => Event::BisectionProbe {
                node: w[0],
                half: w[1] as u8,
                ids: ids(w[2]),
                before: finite(w[3]),
                after: finite(w[4]),
                kept: flag(w[5]),
                speculative_hit: flag(w[6]),
            },
            10 => Event::BisectionNodeEnd {
                node: w[0],
                selected: ids(w[1]),
            },
            11 => Event::MinimalityDrop { pvt: n(w[0]) },
            12 => Event::SketchMerge(SketchMergeSpan {
                columns: n(w[0]),
                batch_rows: w[1],
                total_rows: w[2],
                batches: w[3],
            }),
            13 => Event::DriftScore(DriftScoreSpan {
                profile: n(w[0]),
                score: finite(w[1]),
                threshold: finite(w[2]),
                drifted: flag(w[3]),
                screened: flag(w[4]),
            }),
            14 => Event::MonitorTrigger(MonitorTriggerSpan {
                drifted: ids(w[0]),
                candidates: n(w[1]),
                window_rows: w[2],
            }),
            15 => Event::DiagnosisEnd {
                resolved: flag(w[0]),
                interventions: n(w[1]),
                final_score: finite(w[2]),
            },
            _ => Event::Candidates { n: n(w[0]) },
        }
    }

    /// The variant's number. Exhaustive, so a new variant does not
    /// compile until [`event`] can build it.
    fn variant(event: &Event) -> u8 {
        match event {
            Event::DiagnosisBegin(_) => 0,
            Event::Discovery(_) => 1,
            Event::Lint(_) => 2,
            Event::LintFact(_) => 3,
            Event::OracleQuery(_) => 4,
            Event::Intervention { .. } => 5,
            Event::BisectionNodeBegin(_) => 6,
            Event::SpeculationPlan(_) => 7,
            Event::BisectionPartition { .. } => 8,
            Event::BisectionProbe { .. } => 9,
            Event::BisectionNodeEnd { .. } => 10,
            Event::MinimalityDrop { .. } => 11,
            Event::SketchMerge(_) => 12,
            Event::DriftScore(_) => 13,
            Event::MonitorTrigger(_) => 14,
            Event::DiagnosisEnd { .. } => 15,
            Event::Candidates { .. } => 16,
        }
    }

    /// Short strings full of characters JSON must escape.
    fn text() -> impl Strategy<Value = String> {
        let chars = vec![
            'a', 'Z', ' ', '"', '\\', '\n', '\t', '\u{1}', '/', 'é', '😀',
        ];
        prop::collection::vec(prop::sample::select(chars), 0..8)
            .prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #[test]
        fn arbitrary_records_round_trip_and_v6_streams_are_refused(
            raw in prop::collection::vec(
                (0u8..17, prop::collection::vec(0u64..=u64::MAX, 8), text()),
                0..12,
            ),
        ) {
            let mut records = Vec::new();
            for (kind, w, text) in &raw {
                let event = event(*kind, w, text);
                prop_assert_eq!(variant(&event), *kind);
                records.push(TraceRecord { seq: w[6], at_ns: w[7], event });
            }
            let text = to_jsonl(&records);
            let back = parse_jsonl(&text).map_err(|e| e.to_string());
            prop_assert_eq!(&back, &Ok(records.clone()));
            // Bit-exact: re-encoding reproduces every byte, so negative
            // zero and every score bit survive.
            prop_assert_eq!(to_jsonl(&back.unwrap()), text.clone());
            // The same stream stamped v6 is a typed error on its first
            // line.
            if !records.is_empty() {
                let v6 = text.replace(&format!("{{\"v\":{SCHEMA_VERSION},"), "{\"v\":6,");
                let err = parse_jsonl(&v6);
                prop_assert!(
                    matches!(&err, Err(e) if e.line == 1 && e.message.contains("schema version 6")),
                    "{err:?}"
                );
            }
        }

        #[test]
        fn parse_never_panics_on_arbitrary_text(text in json_noise()) {
            // Either a value or an error naming a byte offset.
            if let Err(err) = JsonValue::parse(&text) {
                prop_assert!(err.contains(" at byte "), "{err} for {text:?}");
            }
            let _ = parse_jsonl(&text);
        }
    }
}
