//! The emitting handle the diagnosis algorithms carry.

use crate::event::{DiagnosisSpan, Event, TraceRecord};
use crate::hash::SipHasher13;
use crate::sink::{Collector, JsonlSink, TraceSink};
use crate::TraceConfig;
use std::cell::{Cell, RefCell};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

enum ActiveSink {
    Collect(Collector),
    Custom(Box<dyn TraceSink>),
}

struct TracerCore {
    sink: ActiveSink,
    seq: u64,
    next_node: u64,
    start: Instant,
}

/// A cheap, cloneable handle the diagnosis code threads through its
/// call graph. In the default off state it holds no sink: `emit`
/// returns before the event closure runs, `now_ns`/`next_node_id`
/// return 0, and no clock is read — the zero-cost-when-off
/// guarantee.
///
/// Sink or not, the tracer is the run's audit trail: it folds every
/// charged decision into a rolling digest ([`Tracer::digest`]) as it
/// is made — a fixed-size state, never a buffer of decisions — and
/// emits it as an event when a sink is attached.
///
/// A tracer is single-threaded by construction (`Rc`): events are
/// only ever emitted from the main diagnosis thread, in the serial
/// deterministic order, which is what makes a trace bit-identical
/// across thread counts. Worker threads report through
/// [`crate::MetricsShard`]s instead.
#[derive(Clone, Default)]
pub struct Tracer {
    trail: Rc<Cell<SipHasher13>>,
    inner: Option<Rc<RefCell<TracerCore>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// The tracer with no sink (same as `Tracer::default()`): it only
    /// keeps the decision digest.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A tracer collecting records in memory; retrieve them with
    /// [`Tracer::finish`].
    pub fn collect() -> Tracer {
        Tracer::with_active(ActiveSink::Collect(Collector::new()))
    }

    /// A tracer feeding a custom sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Tracer {
        Tracer::with_active(ActiveSink::Custom(sink))
    }

    /// A tracer streaming JSONL to `path` (created/truncated now, so
    /// IO problems surface before the run starts).
    pub fn jsonl(path: &Path) -> io::Result<Tracer> {
        Ok(Tracer::with_sink(Box::new(JsonlSink::create(path)?)))
    }

    /// Build the tracer a [`TraceConfig`] asks for.
    pub fn from_config(config: &TraceConfig) -> io::Result<Tracer> {
        match config {
            TraceConfig::Off => Ok(Tracer::off()),
            TraceConfig::Collect => Ok(Tracer::collect()),
            TraceConfig::Jsonl(path) => Tracer::jsonl(path),
        }
    }

    fn with_active(sink: ActiveSink) -> Tracer {
        Tracer {
            trail: Rc::default(),
            inner: Some(Rc::new(RefCell::new(TracerCore {
                sink,
                seq: 0,
                next_node: 0,
                start: Instant::now(),
            }))),
        }
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one event. The closure only runs when a sink is attached,
    /// so call sites can gather event fields (clone id vectors, read
    /// query stats) without cost in the off state.
    pub fn emit(&self, event: impl FnOnce() -> Event) {
        let Some(inner) = &self.inner else { return };
        // Run the closure before borrowing the core, so event
        // builders may themselves call `now_ns`/`next_node_id`.
        let event = event();
        let mut core = inner.borrow_mut();
        let record = TraceRecord {
            seq: core.seq,
            at_ns: core.start.elapsed().as_nanos() as u64,
            event,
        };
        core.seq += 1;
        match &mut core.sink {
            ActiveSink::Collect(c) => c.record(&record),
            ActiveSink::Custom(s) => s.record(&record),
        }
    }

    /// Open a diagnosis attempt: restart the decision digest and emit
    /// [`Event::DiagnosisBegin`]. An attempt's digest covers only its
    /// own decisions, so a fallback run digests like a fresh one.
    pub fn begin(&self, span: impl FnOnce() -> DiagnosisSpan) {
        self.trail.set(SipHasher13::new());
        self.emit(|| Event::DiagnosisBegin(span()));
    }

    /// Fold one decision into the digest. A leading tag keeps the
    /// decision kinds apart; id lists hash length-prefixed.
    fn fold(&self, decision: impl Hash) {
        let mut h = self.trail.get();
        decision.hash(&mut h);
        self.trail.set(h);
    }

    /// Record the number of candidate PVTs the search starts from,
    /// and emit it as [`Event::Candidates`].
    pub fn candidates(&self, n: usize) {
        self.fold((0u8, n));
        self.emit(|| Event::Candidates { n });
    }

    /// Record one charged intervention on `ids` and its verdict, and
    /// emit it as [`Event::Intervention`].
    pub fn intervention(&self, ids: &[usize], before: f64, after: f64, kept: bool) {
        self.fold((1u8, ids, before.to_bits(), after.to_bits(), kept));
        self.emit(|| Event::Intervention {
            ids: ids.to_vec(),
            before,
            after,
            kept,
        });
    }

    /// Record one charged bisection probe — digested exactly like an
    /// intervention — and emit it as [`Event::BisectionProbe`] of
    /// `node`'s `half`. `speculative_hit` is only read with a sink.
    #[allow(clippy::too_many_arguments)]
    pub fn probe(
        &self,
        node: u64,
        half: u8,
        ids: &[usize],
        before: f64,
        after: f64,
        kept: bool,
        speculative_hit: impl FnOnce() -> bool,
    ) {
        self.fold((1u8, ids, before.to_bits(), after.to_bits(), kept));
        self.emit(|| Event::BisectionProbe {
            node,
            half,
            ids: ids.to_vec(),
            before,
            after,
            kept,
            speculative_hit: speculative_hit(),
        });
    }

    /// Record that Make-Minimal dropped `pvt`, and emit
    /// [`Event::MinimalityDrop`].
    pub fn minimality_drop(&self, pvt: usize) {
        self.fold((2u8, pvt));
        self.emit(|| Event::MinimalityDrop { pvt });
    }

    /// Digest of the decisions recorded since the last
    /// [`Tracer::begin`], in order. Equal digests mean the same
    /// decisions with the same score bits.
    pub fn digest(&self) -> u64 {
        self.trail.get().finish()
    }

    /// Allocate the next bisection-node id (visit order). Returns 0
    /// when off — node ids only appear inside emitted events, which
    /// don't exist in the off state.
    pub fn next_node_id(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let mut core = inner.borrow_mut();
        let id = core.next_node;
        core.next_node += 1;
        id
    }

    /// Nanoseconds since the tracer was created (0 when off). Used
    /// for span elapsed times that live inside event payloads.
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.borrow().start.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Finish the run: flush the sink and, for a collecting tracer,
    /// take and return the records (subsequent calls return empty).
    /// Takes `&self` because clones of the handle may still be held
    /// by context structs up the stack.
    pub fn finish(&self) -> Vec<TraceRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut core = inner.borrow_mut();
        match &mut core.sink {
            ActiveSink::Collect(c) => std::mem::take(c).into_records(),
            ActiveSink::Custom(s) => {
                s.flush();
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn off_tracer_never_runs_the_closure() {
        let t = Tracer::off();
        assert!(!t.enabled());
        t.emit(|| panic!("closure must not run when off"));
        assert_eq!(t.next_node_id(), 0);
        assert_eq!(t.now_ns(), 0);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn collect_assigns_dense_seq_and_monotonic_time() {
        let t = Tracer::collect();
        t.emit(|| Event::MinimalityDrop { pvt: 1 });
        t.emit(|| Event::MinimalityDrop { pvt: 2 });
        let records = t.finish();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert!(records[0].at_ns <= records[1].at_ns);
        // Finish drained the collector.
        assert!(t.finish().is_empty());
    }

    #[test]
    fn clones_share_the_stream() {
        let t = Tracer::collect();
        let t2 = t.clone();
        t.emit(|| Event::MinimalityDrop { pvt: 1 });
        t2.emit(|| Event::MinimalityDrop { pvt: 2 });
        assert_eq!(t.next_node_id(), 0);
        assert_eq!(t2.next_node_id(), 1);
        let records = t.finish();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].seq, 1);
    }

    #[test]
    fn the_digest_folds_decisions_with_or_without_a_sink() {
        let record = |t: &Tracer| {
            t.begin(|| panic!("never read here"));
            t.candidates(3);
            t.intervention(&[1, 2], 0.75, 0.5, true);
            t.probe(0, 1, &[1], 0.5, 0.5, false, || true);
            t.minimality_drop(2);
            t.digest()
        };
        // Off, no closure runs (`begin`'s would panic).
        let digest = record(&Tracer::off());
        let on = Tracer::collect();
        on.emit(|| Event::MinimalityDrop { pvt: 9 });
        let span = || crate::event::DiagnosisSpan {
            algorithm: "greedy".into(),
            system: "s".into(),
            seed: 0,
            threshold: 0.2,
            num_threads: 1,
            speculation_depth: 0,
        };
        on.begin(span);
        on.candidates(3);
        on.intervention(&[1, 2], 0.75, 0.5, true);
        on.probe(0, 1, &[1], 0.5, 0.5, false, || true);
        on.minimality_drop(2);
        // `begin` restarted the digest: the event before it is not in it.
        assert_eq!(on.digest(), digest);
        let kinds: Vec<&str> = on
            .finish()
            .iter()
            .map(|r| match r.event {
                Event::DiagnosisBegin(_) => "begin",
                Event::Candidates { n: 3 } => "candidates",
                Event::Intervention { .. } => "intervention",
                Event::BisectionProbe {
                    speculative_hit: true,
                    ..
                } => "probe",
                Event::MinimalityDrop { .. } => "drop",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "drop",
                "begin",
                "candidates",
                "intervention",
                "probe",
                "drop"
            ]
        );
        // Every field of a decision moves the digest.
        let base = Tracer::off();
        base.intervention(&[1], 0.5, 0.25, true);
        for variant in [
            |t: &Tracer| t.intervention(&[2], 0.5, 0.25, true),
            |t: &Tracer| t.intervention(&[1], 0.5, 0.25000000000000006, true),
            |t: &Tracer| t.intervention(&[1], 0.5, 0.25, false),
            |t: &Tracer| t.minimality_drop(1),
            |t: &Tracer| t.candidates(1),
        ] {
            let t = Tracer::off();
            variant(&t);
            assert_ne!(t.digest(), base.digest());
        }
    }

    #[test]
    fn custom_sink_receives_records() {
        use crate::sink::JsonlSink;
        let t = Tracer::with_sink(Box::new(JsonlSink::new(Vec::new())));
        assert!(t.enabled());
        t.emit(|| Event::MinimalityDrop { pvt: 7 });
        // Custom sinks keep their records; finish just flushes.
        assert!(t.finish().is_empty());
    }
}
