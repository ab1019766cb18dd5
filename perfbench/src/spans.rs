//! In-memory spans for the traced run: one per layer call the
//! benchmark makes, plus one per system evaluation (from the
//! instrumented system wrapper, on whichever thread ran it). Spans are
//! kept in memory and written out once the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Marks "no parent" in [`SpanLog`]'s current-parent slot.
const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Ran on the thread that drives the workload (not a worker).
    pub main: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanLog {
    epoch: Instant,
    main_thread: ThreadId,
    op: AtomicU64,
    /// Span that evaluations recorded from now on belong to.
    parent: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log whose main thread is the calling thread.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            main_thread: std::thread::current().id(),
            op: AtomicU64::new(0),
            parent: AtomicUsize::new(NO_PARENT),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }

    /// Record a finished span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op: self.op.load(Ordering::Relaxed),
            main: std::thread::current().id() == self.main_thread,
        };
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a span now; close it with [`SpanLog::close`]. While open
    /// it is the parent of evaluations recorded by [`SpanLog::eval`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        let id = self.record(name, now, now, parent);
        self.parent.store(id, Ordering::Relaxed);
        id
    }

    pub fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        self.parent.store(NO_PARENT, Ordering::Relaxed);
        self.spans.lock().expect("span log poisoned by a panic")[id].end_ns = end;
    }

    /// Record one system evaluation under the currently open span.
    pub fn eval(&self, start: Instant, end: Instant) {
        let parent = self.parent.load(Ordering::Relaxed);
        let parent = (parent != NO_PARENT).then_some(parent);
        self.record("system.eval", start, end, parent);
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panic")
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.snapshot().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"thread\":\"{}\"}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                if s.main { "main" } else { "worker" }
            )?;
        }
        out.flush()
    }
}

/// Self time of span `id`: its duration minus the part of it covered
/// by its children that ran on the same thread (children on worker
/// threads overlap the parent without blocking it). Overlapping
/// children are counted once.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id) && s.main == parent.main)
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut busy = 0;
    let mut cursor = parent.start_ns;
    for (a, b) in covered {
        let a = a.max(cursor);
        if b > a {
            busy += b - a;
            cursor = b;
        }
    }
    parent.duration_ns().saturating_sub(busy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>, main: bool) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
            main,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children() {
        let spans = vec![
            span(0, 100, None, true),
            span(10, 30, Some(0), true),
            span(50, 60, Some(0), true),
        ];
        assert_eq!(self_time_ns(&spans, 0), 70);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span(100, 200, None, true),
            span(90, 130, Some(0), true),
            span(120, 150, Some(0), true),
            span(190, 250, Some(0), true),
        ];
        // Covered: [100,150) and [190,200) = 60.
        assert_eq!(self_time_ns(&spans, 0), 40);
    }

    #[test]
    fn worker_children_and_grandchildren_do_not_count() {
        let spans = vec![
            span(0, 100, None, true),
            span(0, 90, Some(0), false),
            span(20, 40, Some(0), true),
            span(25, 35, Some(2), true),
        ];
        assert_eq!(self_time_ns(&spans, 0), 80);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn log_parents_evaluations_to_the_open_span() {
        let log = SpanLog::new();
        log.set_op(3);
        let op = log.open("op", None);
        let search = log.open("search", Some(op));
        let t = Instant::now();
        log.eval(t, t);
        log.close(search);
        log.eval(t, t);
        log.close(op);
        let spans = log.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(search));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.op == 3 && s.main));
        assert!(spans[op].end_ns >= spans[search].end_ns);
    }
}
