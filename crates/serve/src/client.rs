//! A minimal blocking client for the line protocol, used by the CLI
//! smoke mode and the test suites. One request line out, one
//! response line in.

use crate::protocol::MAX_REQUEST_BYTES;
use dp_trace::{json_escape, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected client.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a running daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Send one raw line (no trailing newline) and read one response
    /// line.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Send one raw line and parse the response as JSON.
    pub fn request(&mut self, line: &str) -> std::io::Result<JsonValue> {
        let response = self.request_raw(line)?;
        JsonValue::parse(&response).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response: {e}"),
            )
        })
    }

    /// `ping`.
    pub fn ping(&mut self) -> std::io::Result<JsonValue> {
        self.request("{\"op\":\"ping\"}")
    }

    /// `register` a system as an instance of a bundled scenario.
    pub fn register(
        &mut self,
        system: &str,
        scenario: &str,
        rows: Option<usize>,
        seed: Option<u64>,
    ) -> std::io::Result<JsonValue> {
        let mut line = format!(
            "{{\"op\":\"register\",\"system\":{},\"scenario\":{}",
            json_escape(system),
            json_escape(scenario)
        );
        if let Some(rows) = rows {
            line.push_str(&format!(",\"rows\":{rows}"));
        }
        if let Some(seed) = seed {
            line.push_str(&format!(",\"seed\":{seed}"));
        }
        line.push('}');
        self.request(&line)
    }

    /// `diagnose` a registered system.
    pub fn diagnose(
        &mut self,
        system: &str,
        algo: &str,
        threads: Option<usize>,
    ) -> std::io::Result<JsonValue> {
        self.diagnose_with(system, algo, threads, None)
    }

    /// `diagnose` with an in-flight speculative frame `budget` for
    /// this one diagnosis.
    pub fn diagnose_with(
        &mut self,
        system: &str,
        algo: &str,
        threads: Option<usize>,
        budget: Option<usize>,
    ) -> std::io::Result<JsonValue> {
        let mut line = format!(
            "{{\"op\":\"diagnose\",\"system\":{},\"algo\":{}",
            json_escape(system),
            json_escape(algo)
        );
        if let Some(threads) = threads {
            line.push_str(&format!(",\"threads\":{threads}"));
        }
        if let Some(budget) = budget {
            line.push_str(&format!(",\"budget\":{budget}"));
        }
        line.push('}');
        self.request(&line)
    }

    /// `warm` a system's cache namespace from JSONL trace text.
    pub fn warm(&mut self, system: &str, trace: &str) -> std::io::Result<JsonValue> {
        let line = format!(
            "{{\"op\":\"warm\",\"system\":{},\"trace\":{}}}",
            json_escape(system),
            json_escape(trace)
        );
        if line.len() > MAX_REQUEST_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "trace too large for one request line",
            ));
        }
        self.request(&line)
    }

    /// `snapshot` a system's cache namespace; returns the snapshot
    /// text.
    pub fn snapshot(&mut self, system: &str) -> std::io::Result<String> {
        let v = self.request(&format!(
            "{{\"op\":\"snapshot\",\"system\":{}}}",
            json_escape(system)
        ))?;
        v.get("snapshot")
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "missing snapshot field")
            })
    }

    /// `restore` a snapshot into a system's cache namespace.
    pub fn restore(&mut self, system: &str, snapshot: &str) -> std::io::Result<JsonValue> {
        self.request(&format!(
            "{{\"op\":\"restore\",\"system\":{},\"snapshot\":{}}}",
            json_escape(system),
            json_escape(snapshot)
        ))
    }

    /// `watch`: start continuous monitoring of a system.
    pub fn watch(
        &mut self,
        system: &str,
        tau: Option<f64>,
        window: Option<usize>,
    ) -> std::io::Result<JsonValue> {
        let mut line = format!("{{\"op\":\"watch\",\"system\":{}", json_escape(system));
        if let Some(tau) = tau {
            line.push_str(&format!(",\"tau\":{tau:?}"));
        }
        if let Some(window) = window {
            line.push_str(&format!(",\"window\":{window}"));
        }
        line.push('}');
        self.request(&line)
    }

    /// `ingest`: append one CSV batch to a watched system's stream.
    pub fn ingest(&mut self, system: &str, rows_csv: &str) -> std::io::Result<JsonValue> {
        self.request(&format!(
            "{{\"op\":\"ingest\",\"system\":{},\"rows_csv\":{}}}",
            json_escape(system),
            json_escape(rows_csv)
        ))
    }

    /// `drift`: score the watched window; with `diagnose`, escalate
    /// drifted profiles into a targeted re-diagnosis
    /// (`algo` = `"greedy"` or `"group_test"`).
    pub fn drift(
        &mut self,
        system: &str,
        diagnose: bool,
        algo: &str,
    ) -> std::io::Result<JsonValue> {
        self.request(&format!(
            "{{\"op\":\"drift\",\"system\":{},\"diagnose\":{diagnose},\"algo\":{}}}",
            json_escape(system),
            json_escape(algo)
        ))
    }

    /// `metrics`: the Prometheus text-format scrape body.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        let v = self.request("{\"op\":\"metrics\"}")?;
        v.get("body")
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "missing body field")
            })
    }

    /// `stats`, server-wide or for one system.
    pub fn stats(&mut self, system: Option<&str>) -> std::io::Result<JsonValue> {
        match system {
            Some(s) => self.request(&format!(
                "{{\"op\":\"stats\",\"system\":{}}}",
                json_escape(s)
            )),
            None => self.request("{\"op\":\"stats\"}"),
        }
    }

    /// `shutdown` the server gracefully.
    pub fn shutdown(&mut self) -> std::io::Result<JsonValue> {
        self.request("{\"op\":\"shutdown\"}")
    }
}

/// Convenience: was the response `"ok": true`?
pub fn is_ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(|b| b.as_bool()) == Some(true)
}

/// Convenience: pull a u64 field out of a response.
pub fn field_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(|f| f.as_u64())
}
