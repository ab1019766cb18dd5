//! The daemon: a TCP accept loop, one handler thread per
//! connection, and the request dispatch that ties the registry,
//! admission control, and the cached diagnosis entry points together.
//!
//! Concurrency model:
//!
//! * The registry map lock and each namespace lock are held only for
//!   pointer clones and cache copy-in/copy-out — never across a
//!   system evaluation, so racing clients on one namespace serialize
//!   on microseconds of bookkeeping, not on diagnoses.
//! * Admission control bounds the number of in-flight diagnoses
//!   (`max_inflight`) with a bounded wait queue (`max_queue`);
//!   clients beyond both get a typed `busy` error instead of an
//!   unbounded pile-up of worker threads.
//! * Shutdown sets a flag, wakes the accept loop with a self-connect,
//!   lets every connection thread notice within one read-timeout
//!   tick, and flushes each cache namespace to a reloadable snapshot
//!   file before the server exits.

use crate::prom::{self, NamespaceScrape, ServerScrape};
use crate::protocol::{
    error_response, parse_request, ErrorCode, Reply, Request, MAX_REQUEST_BYTES,
};
use crate::registry::{lock_or_recover, Registry, SystemEntry};
use dataprism::{Algorithm, Diagnosis, Explanation, ScoreCache, Source};
use dp_monitor::{MonitorConfig, Watcher};
use dp_trace::Tracer;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default per-namespace cache budget: 4 MiB (~43k entries).
pub const DEFAULT_BUDGET_BYTES: usize = 4 << 20;

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Max diagnoses evaluating concurrently.
    pub max_inflight: usize,
    /// Max diagnoses waiting for a slot before `busy` is returned.
    pub max_queue: usize,
    /// Byte budget per cache namespace.
    pub budget_bytes: usize,
    /// Where shutdown flushes (and startup reloads) cache snapshots;
    /// `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Hard cap on one request line.
    pub max_line_bytes: usize,
    /// Server-wide bound on in-flight speculative frames, divided
    /// evenly across the `max_inflight` admission slots so one slow
    /// system's detached frontier cannot starve the other namespaces
    /// of executor capacity. `None` leaves each diagnosis unbounded.
    pub speculation_budget: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 2,
            max_queue: 8,
            budget_bytes: DEFAULT_BUDGET_BYTES,
            snapshot_dir: None,
            max_line_bytes: MAX_REQUEST_BYTES,
            speculation_budget: None,
        }
    }
}

/// What `Admission::admit` decided.
enum Admit {
    /// Go ahead; holds the slot until dropped.
    Permit(Permit),
    /// In-flight and queue slots all taken.
    Busy,
    /// The server started draining while we waited.
    ShuttingDown,
}

struct AdmState {
    inflight: usize,
    waiting: usize,
}

/// Bounded in-flight diagnosis slots with a bounded FIFO-ish wait
/// queue (wakeup order is the condvar's, not strictly FIFO — the
/// bound is what matters).
struct Admission {
    state: Mutex<AdmState>,
    cv: Condvar,
    max_inflight: usize,
    max_queue: usize,
}

impl Admission {
    fn new(max_inflight: usize, max_queue: usize) -> Admission {
        Admission {
            state: Mutex::new(AdmState {
                inflight: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            max_queue,
        }
    }

    fn admit(self: &Arc<Admission>, shutting_down: &AtomicBool) -> Admit {
        let mut st = lock_or_recover(&self.state);
        if st.inflight < self.max_inflight {
            st.inflight += 1;
            return Admit::Permit(Permit {
                admission: Arc::clone(self),
            });
        }
        if st.waiting >= self.max_queue {
            return Admit::Busy;
        }
        st.waiting += 1;
        loop {
            // Timed wait so a queued client notices shutdown even if
            // no permit is ever released.
            let (guard, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
            if shutting_down.load(Ordering::SeqCst) {
                st.waiting -= 1;
                return Admit::ShuttingDown;
            }
            if st.inflight < self.max_inflight {
                st.waiting -= 1;
                st.inflight += 1;
                return Admit::Permit(Permit {
                    admission: Arc::clone(self),
                });
            }
        }
    }
}

/// An in-flight diagnosis slot; releases on drop (including unwind),
/// so a panicking handler can never leak capacity.
struct Permit {
    admission: Arc<Admission>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut st = lock_or_recover(&self.admission.state);
        st.inflight -= 1;
        drop(st);
        self.admission.cv.notify_one();
    }
}

#[derive(Default)]
struct ServerStats {
    requests: u64,
    protocol_errors: u64,
    busy_rejections: u64,
    diagnoses_ok: u64,
    diagnoses_err: u64,
}

struct Shared {
    config: ServeConfig,
    registry: Registry,
    admission: Arc<Admission>,
    shutting_down: AtomicBool,
    local_addr: SocketAddr,
    stats: Mutex<ServerStats>,
    /// Snapshots loaded from `snapshot_dir` at startup, keyed by
    /// system name; folded into a namespace when that name is
    /// registered.
    pending_snapshots: Mutex<HashMap<String, ScoreCache>>,
}

/// A running daemon. Dropping the handle does **not** stop it; send
/// a `shutdown` request (or call [`Server::shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns once the listener is live (so
    /// [`Server::local_addr`] is immediately connectable).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let pending = load_pending_snapshots(config.snapshot_dir.as_deref());
        let shared = Arc::new(Shared {
            registry: Registry::new(config.budget_bytes),
            admission: Arc::new(Admission::new(config.max_inflight, config.max_queue)),
            shutting_down: AtomicBool::new(false),
            local_addr,
            stats: Mutex::new(ServerStats::default()),
            pending_snapshots: Mutex::new(pending),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("dp-serve-accept".to_string())
            .spawn(move || accept_loop(accept_shared, listener))?;
        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The daemon's registry. An embedding process can register a
    /// system the bundled scenarios do not cover
    /// ([`Registry::register_scenario`]).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Trigger a graceful shutdown from the owning process (the wire
    /// `shutdown` op does the same from a client).
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Wait until the accept loop and every connection thread have
    /// exited. Call after [`Server::shutdown`] (or after a client
    /// sent the `shutdown` op).
    pub fn join(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

fn load_pending_snapshots(dir: Option<&std::path::Path>) -> HashMap<String, ScoreCache> {
    let mut out = HashMap::new();
    let Some(dir) = dir else {
        return out;
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("dpcache") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        // A corrupt snapshot file means a cold start for that
        // system, not a failed server start.
        if let Ok(cache) = ScoreCache::from_snapshot(&text) {
            out.insert(stem.to_string(), cache);
        }
    }
    out
}

/// Only filesystem-safe characters make it into snapshot filenames.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn flush_snapshots(shared: &Shared) -> usize {
    let Some(dir) = shared.config.snapshot_dir.as_deref() else {
        return 0;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return 0;
    }
    let mut flushed = 0;
    for (name, text) in shared.registry.snapshot_all() {
        let path = dir.join(format!("{}.dpcache", sanitize_name(&name)));
        if std::fs::write(&path, text).is_ok() {
            flushed += 1;
        }
    }
    flushed
}

fn initiate_shutdown(shared: &Shared) -> usize {
    let already = shared.shutting_down.swap(true, Ordering::SeqCst);
    // Wake queued diagnosis waiters so they return `shutting_down`.
    shared.admission.cv.notify_all();
    let flushed = if already { 0 } else { flush_snapshots(shared) };
    // Wake the blocking accept() with a throwaway connection.
    let _ = TcpStream::connect(shared.local_addr);
    flushed
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("dp-serve-conn".to_string())
            .spawn(move || handle_conn(conn_shared, stream))
        {
            conns.push(handle);
        }
        // Opportunistically reap finished connections so a
        // long-lived server does not accumulate handles.
        conns.retain(|h| !h.is_finished());
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// Outcome of reading one line from a connection.
enum LineRead {
    Line(Vec<u8>),
    /// Clean or mid-request disconnect.
    Eof,
    /// The line outgrew the cap before a newline arrived.
    Oversized,
    /// The server is draining and no request is pending.
    Shutdown,
}

/// Incremental size-capped line reader over a stream with a read
/// timeout: timeouts are polls (to notice shutdown), not errors.
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl LineReader {
    fn next_line(&mut self, shared: &Shared, cap: usize) -> LineRead {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return LineRead::Line(line);
            }
            if self.pending.len() > cap {
                return LineRead::Oversized;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineRead::Eof,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if shared.shutting_down.load(Ordering::SeqCst) && self.pending.is_empty() {
                        return LineRead::Shutdown;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return LineRead::Eof,
            }
        }
    }
}

fn handle_conn(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader {
        stream,
        pending: Vec::new(),
    };
    loop {
        match reader.next_line(&shared, shared.config.max_line_bytes) {
            LineRead::Eof | LineRead::Shutdown => return,
            LineRead::Oversized => {
                // The rest of the oversized line is unrecoverable
                // without buffering it, so answer and hang up.
                bump(&shared, |s| s.protocol_errors += 1);
                let resp = error_response(
                    ErrorCode::OversizedRequest,
                    &format!("request exceeds {} bytes", shared.config.max_line_bytes),
                );
                let _ = write_line(&mut writer, &resp);
                return;
            }
            LineRead::Line(raw) => {
                bump(&shared, |s| s.requests += 1);
                let line = String::from_utf8_lossy(&raw);
                let (response, shutdown_after) = handle_request(&shared, &line);
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
                if shutdown_after {
                    return;
                }
            }
        }
    }
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn bump(shared: &Shared, f: impl FnOnce(&mut ServerStats)) {
    f(&mut lock_or_recover(&shared.stats));
}

/// Dispatch one request line; returns the response line and whether
/// the connection should close (after a `shutdown`).
fn handle_request(shared: &Shared, line: &str) -> (String, bool) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err((code, detail)) => {
            bump(shared, |s| s.protocol_errors += 1);
            return (error_response(code, &detail), false);
        }
    };
    let draining = shared.shutting_down.load(Ordering::SeqCst);
    match request {
        Request::Ping => (
            Reply::ok("ping")
                .str("version", env!("CARGO_PKG_VERSION"))
                .bool("shutting_down", draining)
                .finish(),
            false,
        ),
        _ if draining => (
            error_response(ErrorCode::ShuttingDown, "server is draining"),
            false,
        ),
        Request::Register {
            system,
            scenario,
            rows,
            seed,
        } => (
            handle_register(shared, &system, &scenario, rows, seed),
            false,
        ),
        Request::Diagnose {
            system,
            algo,
            threads,
            budget,
        } => (
            handle_diagnose(shared, &system, algo, threads, budget),
            false,
        ),
        Request::Warm { system, trace } => (handle_warm(shared, &system, &trace), false),
        Request::Snapshot { system } => (handle_snapshot(shared, &system), false),
        Request::Restore { system, snapshot } => {
            (handle_restore(shared, &system, &snapshot), false)
        }
        Request::Watch {
            system,
            tau,
            window,
        } => (handle_watch(shared, &system, tau, window), false),
        Request::Ingest { system, rows_csv } => (handle_ingest(shared, &system, &rows_csv), false),
        Request::Drift {
            system,
            diagnose,
            algo,
        } => (handle_drift(shared, &system, diagnose, algo), false),
        Request::Stats { system } => (handle_stats(shared, system.as_deref()), false),
        Request::Metrics => (handle_metrics(shared), false),
        Request::Shutdown => {
            let flushed = initiate_shutdown(shared);
            (
                Reply::ok("shutdown")
                    .usize("snapshots_flushed", flushed)
                    .finish(),
                true,
            )
        }
    }
}

fn with_entry<R>(
    shared: &Shared,
    system: &str,
    f: impl FnOnce(&mut SystemEntry) -> R,
) -> Result<R, String> {
    let entry = shared.registry.get(system).ok_or_else(|| {
        error_response(
            ErrorCode::UnknownSystem,
            &format!("system '{system}' is not registered"),
        )
    })?;
    let mut entry = lock_or_recover(&entry);
    Ok(f(&mut entry))
}

fn handle_register(
    shared: &Shared,
    system: &str,
    scenario: &str,
    rows: Option<usize>,
    seed: Option<u64>,
) -> String {
    let Some(_) = shared.registry.register(system, scenario, rows, seed) else {
        return error_response(
            ErrorCode::UnknownScenario,
            &format!("unknown scenario '{scenario}'"),
        );
    };
    // Fold in a snapshot persisted by a previous server process, if
    // one was loaded for this name at startup.
    let pending = lock_or_recover(&shared.pending_snapshots).remove(system);
    let (resident, reloaded) = with_entry(shared, system, |entry| {
        let reloaded = pending.as_ref().map(|c| entry.cache.absorb(c)).unwrap_or(0);
        (entry.cache.len(), reloaded)
    })
    .expect("entry was just registered");
    Reply::ok("register")
        .str("system", system)
        .str("scenario", scenario)
        .usize("cache_entries", resident)
        .usize("snapshot_entries_reloaded", reloaded)
        .finish()
}

/// Take a diagnosis slot, or the typed `busy`/`shutting_down` reply
/// to send instead.
fn admit(shared: &Shared) -> Result<Permit, String> {
    match shared.admission.admit(&shared.shutting_down) {
        Admit::Permit(permit) => Ok(permit),
        Admit::Busy => {
            bump(shared, |s| s.busy_rejections += 1);
            Err(error_response(
                ErrorCode::Busy,
                &format!(
                    "{} diagnoses in flight and {} queued; retry later",
                    shared.config.max_inflight, shared.config.max_queue
                ),
            ))
        }
        Admit::ShuttingDown => Err(error_response(
            ErrorCode::ShuttingDown,
            "server is draining",
        )),
    }
}

/// The per-namespace slice of the server-wide speculative frame
/// budget: every admitted diagnosis gets an equal share of the
/// `max_inflight` slots' worth, so however slow one system's oracle
/// is, its queued frontier is bounded independently of its
/// neighbors'.
fn namespace_budget(config: &ServeConfig) -> Option<usize> {
    config
        .speculation_budget
        .map(|total| (total / config.max_inflight.max(1)).max(1))
}

fn handle_diagnose(
    shared: &Shared,
    system: &str,
    algo: Algorithm,
    threads: Option<usize>,
    budget: Option<usize>,
) -> String {
    let permit = match admit(shared) {
        Ok(permit) => permit,
        Err(resp) => return resp,
    };
    // Copy-in: clone the immutable spec pointer and snapshot the
    // namespace, then release the lock for the whole evaluation.
    let copied = with_entry(shared, system, |entry| {
        (Arc::clone(&entry.spec), entry.cache.to_score_cache())
    });
    let (spec, mut cache) = match copied {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let mut config = spec.config.clone();
    if let Some(t) = threads {
        config.num_threads = t.clamp(1, 64);
    }
    config.speculation_budget = budget.or_else(|| namespace_budget(&shared.config));
    // The spec's candidates were discovered, linted and ranked at
    // `register`; a request runs only the search over them.
    let result = match contained(shared, || {
        Diagnosis::new(algo)
            .with_ranked(Arc::clone(&spec.ranked))
            .with_cache(&mut cache)
            .run(
                Source::Factory(&*spec.factory),
                &spec.d_fail,
                &spec.d_pass,
                &config,
            )
    }) {
        Ok(result) => result,
        Err(resp) => return resp,
    };
    drop(permit);
    let (new_entries, resident, evictions) = match record(shared, system, &cache, &result) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    match result {
        Ok(exp) => {
            bump(shared, |s| s.diagnoses_ok += 1);
            Reply::ok("diagnose")
                .str("system", system)
                .str("algo", algo.name())
                .u64("digest", exp.digest())
                .ids("pvt_ids", &exp.pvt_ids())
                .usize("interventions", exp.interventions)
                .bool("resolved", exp.resolved)
                .f64_exact("initial_score", exp.initial_score)
                .f64_exact("final_score", exp.final_score)
                .u64("charged_queries", exp.metrics.charged_queries)
                .u64("cache_hits", exp.metrics.cache_hits)
                .u64("cache_misses", exp.metrics.cache_misses)
                .u64("warm_hits", exp.metrics.warm_hits)
                .u64("frames_built", exp.metrics.frames_built)
                .u64("intent_hits", exp.metrics.intent_hits)
                .u64("speculative_shed", exp.metrics.speculative_shed)
                .u64("peak_inflight", exp.metrics.peak_inflight)
                .bool("lint_analyzed", exp.lint.analyzed)
                .u64("lint_errors", exp.metrics.lint_errors)
                .u64("lint_warnings", exp.metrics.lint_warnings)
                .u64("lint_pruned", exp.metrics.lint_pruned)
                .u64("lint_subsumed", exp.metrics.lint_subsumed)
                .u64("lint_unreachable", exp.metrics.lint_unreachable)
                .u64("lint_commuting_pairs", exp.metrics.lint_commuting_pairs)
                .usize("new_cache_entries", new_entries)
                .usize("cache_entries", resident)
                .u64("evictions", evictions)
                .finish()
        }
        Err(e) => {
            bump(shared, |s| s.diagnoses_err += 1);
            error_response(ErrorCode::DiagnosisFailed, &e.to_string())
        }
    }
}

/// Run a diagnosis with the system's panics contained: a panic is
/// counted as a failed diagnosis and becomes the typed
/// `system_panicked` reply to send instead. The caller has copied the
/// namespace's cache out and absorbs it back only after a run returns,
/// so a panicking run leaves the namespace as it was.
fn contained<T>(shared: &Shared, run: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
        bump(shared, |s| s.diagnoses_err += 1);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        error_response(
            ErrorCode::SystemPanicked,
            &format!("the system panicked: {message}"),
        )
    })
}

/// Copy-out after either diagnosis path (`diagnose` or a drift
/// escalation): absorb everything the run scored — a failed run paid
/// for its evaluations too, so the next attempt is warm — and count a
/// successful run and merge its metrics into the namespace's totals.
/// Returns the new, resident and evicted entry counts.
fn record(
    shared: &Shared,
    system: &str,
    cache: &ScoreCache,
    result: &dataprism::Result<Explanation>,
) -> Result<(usize, usize, u64), String> {
    with_entry(shared, system, |entry| {
        let new_entries = entry.cache.absorb(cache);
        if let Ok(exp) = result {
            entry.diagnoses += 1;
            entry.totals.merge(&exp.metrics);
        }
        (new_entries, entry.cache.len(), entry.cache.evictions)
    })
}

/// The first score of `scores` outside `[0, 1]` (NaN included): no
/// system returns one, so a payload carrying it is corrupt or
/// hand-edited, and the namespace must not take it in.
fn out_of_range(scores: impl IntoIterator<Item = (u64, f64)>) -> Option<String> {
    scores
        .into_iter()
        .find(|&(_, score)| !(0.0..=1.0).contains(&score))
        .map(|(fp, score)| format!("score {score} of fingerprint {fp} is outside [0, 1]"))
}

fn handle_warm(shared: &Shared, system: &str, trace: &str) -> String {
    let replay = match dp_trace::replay_oracle_queries(trace) {
        Ok(replay) => replay,
        Err(e) => return error_response(ErrorCode::BadTrace, &e.to_string()),
    };
    if let Some(bad) = out_of_range(replay.queries.iter().map(|q| (q.fingerprint, q.score))) {
        return error_response(ErrorCode::BadTrace, &bad);
    }
    let mut staged = ScoreCache::new();
    let loaded = staged.absorb_spans(&replay.queries);
    match with_entry(shared, system, |entry| {
        (entry.cache.absorb(&staged), entry.cache.len())
    }) {
        Ok((new_entries, resident)) => Reply::ok("warm")
            .str("system", system)
            .usize("spans_loaded", loaded)
            .usize("new_cache_entries", new_entries)
            .usize("cache_entries", resident)
            .finish(),
        Err(resp) => resp,
    }
}

fn handle_snapshot(shared: &Shared, system: &str) -> String {
    match with_entry(shared, system, |entry| {
        (
            entry.cache.to_score_cache().to_snapshot(),
            entry.cache.len(),
        )
    }) {
        Ok((text, resident)) => Reply::ok("snapshot")
            .str("system", system)
            .usize("cache_entries", resident)
            .str("snapshot", &text)
            .finish(),
        Err(resp) => resp,
    }
}

fn handle_restore(shared: &Shared, system: &str, snapshot: &str) -> String {
    let staged = match ScoreCache::from_snapshot(snapshot) {
        Ok(c) => c,
        Err(e) => return error_response(ErrorCode::BadSnapshot, &e.to_string()),
    };
    if let Some(bad) = out_of_range(staged.iter()) {
        return error_response(ErrorCode::BadSnapshot, &bad);
    }
    match with_entry(shared, system, |entry| {
        (entry.cache.absorb(&staged), entry.cache.len())
    }) {
        Ok((new_entries, resident)) => Reply::ok("restore")
            .str("system", system)
            .usize("new_cache_entries", new_entries)
            .usize("cache_entries", resident)
            .finish(),
        Err(resp) => resp,
    }
}

fn handle_watch(shared: &Shared, system: &str, tau: Option<f64>, window: Option<usize>) -> String {
    let tau = tau.unwrap_or(MonitorConfig::default().tau_drift);
    if !tau.is_finite() || tau < 0.0 {
        return error_response(
            ErrorCode::MalformedRequest,
            &format!("tau must be a finite non-negative number, got {tau}"),
        );
    }
    let window = window
        .unwrap_or(MonitorConfig::default().window_batches)
        .max(1);
    // Copy the spec pointer out, then discover the baseline outside
    // the namespace lock (profile discovery scans the whole passing
    // dataset).
    let spec = match with_entry(shared, system, |entry| Arc::clone(&entry.spec)) {
        Ok(spec) => spec,
        Err(resp) => return resp,
    };
    let watcher = Watcher::new(
        spec.d_pass.clone(),
        spec.config.clone(),
        MonitorConfig {
            tau_drift: tau,
            window_batches: window,
        },
    );
    let profiles = watcher.profiles().len();
    match with_entry(shared, system, |entry| entry.watch(watcher)) {
        Ok(()) => Reply::ok("watch")
            .str("system", system)
            .usize("profiles", profiles)
            .f64_exact("tau", tau)
            .usize("window", window)
            .finish(),
        Err(resp) => resp,
    }
}

fn handle_ingest(shared: &Shared, system: &str, rows_csv: &str) -> String {
    // Parse against the watched schema outside the namespace lock —
    // the CSV can be most of a request line.
    let spec = match with_entry(shared, system, |entry| {
        entry.watcher.is_some().then(|| Arc::clone(&entry.spec))
    }) {
        Ok(Some(spec)) => spec,
        Ok(None) => return not_watching(system),
        Err(resp) => return resp,
    };
    let fields: Vec<(&str, dp_frame::DType)> = spec
        .d_pass
        .columns()
        .iter()
        .map(|c| (c.name(), c.dtype()))
        .collect();
    let batch = match dp_frame::csv::read_csv_with_schema(rows_csv.as_bytes(), &fields) {
        Ok(b) => b,
        Err(e) => return error_response(ErrorCode::BadBatch, &e.to_string()),
    };
    let ingested = with_entry(shared, system, |entry| {
        let Some(watcher) = entry.watcher.as_mut() else {
            return Err(not_watching(system));
        };
        watcher
            .ingest(batch, &Tracer::off())
            .map_err(|e| error_response(ErrorCode::BadBatch, &e.to_string()))?;
        Ok((
            watcher.metrics().batches_ingested,
            watcher.metrics().rows_ingested,
            watcher.window_rows(),
        ))
    });
    match ingested {
        Ok(Ok((batches, rows, window_rows))) => Reply::ok("ingest")
            .str("system", system)
            .u64("batches", batches)
            .u64("rows_total", rows)
            .usize("window_rows", window_rows)
            .finish(),
        Ok(Err(resp)) | Err(resp) => resp,
    }
}

fn not_watching(system: &str) -> String {
    error_response(
        ErrorCode::NotWatching,
        &format!("system '{system}' has no active watcher; send watch first"),
    )
}

fn handle_drift(shared: &Shared, system: &str, diagnose: bool, algo: Algorithm) -> String {
    // Phase 1, under the namespace lock: score the window (the
    // watcher counts the check) and — when escalating — copy out
    // everything the re-diagnosis needs so the evaluation itself runs
    // unlocked.
    let checked = with_entry(shared, system, |entry| {
        let Some(watcher) = entry.watcher.as_mut() else {
            return Err(not_watching(system));
        };
        let report = watcher.check_drift(&Tracer::off());
        let escalation = if diagnose && report.any_drifted() {
            let drifted = report.drifted();
            let pvts = watcher.candidates(&drifted);
            match (watcher.window_frame(), pvts.is_empty()) {
                (Some(window), false) => Some((
                    Arc::clone(&entry.spec),
                    entry.cache.to_score_cache(),
                    window,
                    pvts,
                )),
                _ => None,
            }
        } else {
            None
        };
        Ok((report, escalation))
    });
    let (report, escalation) = match checked {
        Ok(Ok(v)) => v,
        Ok(Err(resp)) | Err(resp) => return resp,
    };
    let drifted = report.drifted();
    let max_score = report.scores.iter().map(|s| s.score).fold(0.0f64, f64::max);
    let reply = Reply::ok("drift")
        .str("system", system)
        .usize("profiles", report.scores.len())
        .ids("drifted", &drifted)
        .f64_exact("max_score", max_score)
        .f64_exact("threshold", report.threshold)
        .usize("screened", report.screened())
        .u64("window_rows", report.window_rows);
    let Some((spec, mut cache, window, pvts)) = escalation else {
        return reply.bool("diagnosed", false).finish();
    };
    // Phase 2: the targeted re-diagnosis is a full system evaluation,
    // so it pays the same admission toll as `diagnose`.
    let permit = match admit(shared) {
        Ok(permit) => permit,
        Err(resp) => return resp,
    };
    let candidates = pvts.len();
    let mut config = spec.config.clone();
    config.speculation_budget = namespace_budget(&shared.config);
    let result = match contained(shared, || {
        Diagnosis::new(algo)
            .with_candidates(pvts)
            .with_cache(&mut cache)
            .run(
                Source::Factory(&*spec.factory),
                &window,
                &spec.d_pass,
                &config,
            )
    }) {
        Ok(result) => result,
        Err(resp) => return resp,
    };
    drop(permit);
    let (new_entries, resident, _) = match record(shared, system, &cache, &result) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    match result {
        Ok(exp) => {
            bump(shared, |s| s.diagnoses_ok += 1);
            reply
                .bool("diagnosed", true)
                .str("algo", algo.name())
                .usize("candidates", candidates)
                .u64("digest", exp.digest())
                .ids("pvt_ids", &exp.pvt_ids())
                .usize("interventions", exp.interventions)
                .bool("resolved", exp.resolved)
                .f64_exact("initial_score", exp.initial_score)
                .f64_exact("final_score", exp.final_score)
                .u64("charged_queries", exp.metrics.charged_queries)
                .u64("warm_hits", exp.metrics.warm_hits)
                .usize("new_cache_entries", new_entries)
                .usize("cache_entries", resident)
                .finish()
        }
        Err(e) => {
            bump(shared, |s| s.diagnoses_err += 1);
            error_response(ErrorCode::DiagnosisFailed, &e.to_string())
        }
    }
}

fn handle_metrics(shared: &Shared) -> String {
    let names = shared.registry.names();
    let server = {
        let stats = lock_or_recover(&shared.stats);
        ServerScrape {
            requests: stats.requests,
            protocol_errors: stats.protocol_errors,
            busy_rejections: stats.busy_rejections,
            diagnoses_ok: stats.diagnoses_ok,
            diagnoses_err: stats.diagnoses_err,
            systems: names.len(),
        }
    };
    let mut namespaces = Vec::with_capacity(names.len());
    for name in names {
        let scrape = with_entry(shared, &name, |entry| NamespaceScrape {
            name: name.clone(),
            cache_entries: entry.cache.len(),
            evictions: entry.cache.evictions,
            diagnoses: entry.diagnoses,
            metrics: entry.metrics(),
            watching: entry.watcher.is_some(),
            ingest_latency: entry.watcher.as_ref().map(|w| w.metrics().ingest_latency),
        });
        // A name can vanish between `names()` and the lookup
        // (deregistration does not exist today, but the scrape must
        // not 500 if it ever does).
        if let Ok(scrape) = scrape {
            namespaces.push(scrape);
        }
    }
    Reply::ok("metrics")
        .str("body", &prom::render(&server, &namespaces))
        .finish()
}

fn handle_stats(shared: &Shared, system: Option<&str>) -> String {
    match system {
        Some(name) => match with_entry(shared, name, |entry| {
            (
                entry.spec.scenario.clone(),
                entry.cache.len(),
                entry.cache.capacity(),
                entry.cache.footprint_bytes(),
                entry.cache.evictions,
                entry.diagnoses,
                entry.watcher.is_some(),
                entry.metrics(),
            )
        }) {
            Ok((scenario, resident, capacity, footprint, evictions, diagnoses, watching, m)) => {
                Reply::ok("stats")
                    .str("system", name)
                    .str("scenario", &scenario)
                    .usize("cache_entries", resident)
                    .usize("cache_capacity", capacity)
                    .usize("footprint_bytes", footprint)
                    .u64("evictions", evictions)
                    .u64("diagnoses", diagnoses)
                    .u64("prefilter_pairs_total", m.prefilter_pairs)
                    .u64("prefilter_screened_total", m.prefilter_screened)
                    .u64("prefilter_exact_total", m.prefilter_exact)
                    .u64("candidates_prepared_total", m.candidates_prepared)
                    .u64("lint_pruned_total", m.lint_pruned)
                    .u64("lint_subsumed_total", m.lint_subsumed)
                    .u64("lint_unreachable_total", m.lint_unreachable)
                    .u64("lint_commuting_pairs_total", m.lint_commuting_pairs)
                    .bool("watching", watching)
                    .u64("batches_ingested_total", m.batches_ingested)
                    .u64("rows_ingested_total", m.rows_ingested)
                    .u64("drift_checks_total", m.drift_checks)
                    .u64("drift_triggers_total", m.drift_triggers)
                    .finish()
            }
            Err(resp) => resp,
        },
        None => {
            let names = shared.registry.names();
            let stats = lock_or_recover(&shared.stats);
            Reply::ok("stats")
                .strs("systems", &names)
                .usize("max_inflight", shared.config.max_inflight)
                .usize("max_queue", shared.config.max_queue)
                .usize("budget_bytes", shared.config.budget_bytes)
                .usize(
                    "namespace_frame_budget",
                    namespace_budget(&shared.config).unwrap_or(0),
                )
                .u64("requests", stats.requests)
                .u64("protocol_errors", stats.protocol_errors)
                .u64("busy_rejections", stats.busy_rejections)
                .u64("diagnoses_ok", stats.diagnoses_ok)
                .u64("diagnoses_err", stats.diagnoses_err)
                .finish()
        }
    }
}
