//! The watcher: live per-column sketches over an append stream, a
//! sliding window for drift scoring, and the escalation path into
//! targeted re-diagnosis.

use std::collections::VecDeque;
use std::time::Instant;

use dataprism::discovery::{discover_profiles, transforms_for};
use dataprism::{
    Algorithm, Diagnosis, Explanation, PrismConfig, PrismError, Profile, Pvt, Result, ScoreCache,
    Source, SystemFactory,
};
use dp_frame::DataFrame;
use dp_stats::sketch::{CategoricalSketch, ColumnSummary, NumericSketch, DEFAULT_BUCKETS};
use dp_trace::{Event, MonitorTriggerSpan, RunMetrics, SketchMergeSpan, Tracer};

use crate::config::MonitorConfig;
use crate::drift::{DriftReport, DriftScorer};

/// The live, incrementally-maintained profile of one monitored
/// column: an exact [`ColumnSummary`] plus (dtype permitting) a
/// numeric or keyed categorical dependence sketch. All three are
/// maintained by merging per-batch sketches and are bit-identical to
/// sketches rebuilt from scratch over the concatenated stream.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveColumn {
    pub(crate) summary: Option<ColumnSummary>,
    pub(crate) numeric: Option<NumericSketch>,
    pub(crate) categorical: Option<CategoricalSketch>,
}

/// One windowed batch: the rows themselves (drift scoring evaluates
/// exact violations over the window) and their per-column summaries
/// (so re-screening merges summaries instead of re-scanning rows).
#[derive(Debug, Clone)]
struct WindowBatch {
    frame: DataFrame,
    summaries: Vec<ColumnSummary>,
}

/// A continuous monitor over one system's data stream.
///
/// Construction discovers the baseline profile set from the passing
/// dataset. [`ingest`](Watcher::ingest) folds row batches into the
/// live sketches; [`check_drift`](Watcher::check_drift) scores the
/// recent window against the baseline;
/// [`diagnose`](Watcher::diagnose) escalates a drifted window into a
/// targeted re-diagnosis seeded with only the drifted profiles'
/// candidates.
#[derive(Debug)]
pub struct Watcher {
    d_pass: DataFrame,
    config: PrismConfig,
    monitor: MonitorConfig,
    scorer: DriftScorer,
    live: Vec<LiveColumn>,
    window: VecDeque<WindowBatch>,
    /// Rows held in `window`.
    window_rows: usize,
    metrics: RunMetrics,
}

impl Watcher {
    /// Start watching: discover the baseline profiles of `d_pass`
    /// under `config.discovery` and set up empty live sketches for
    /// every column.
    pub fn new(d_pass: DataFrame, config: PrismConfig, monitor: MonitorConfig) -> Self {
        let profiles = discover_profiles(&d_pass, &config.discovery);
        let live = d_pass
            .columns()
            .iter()
            .map(|_| LiveColumn::default())
            .collect();
        Watcher {
            scorer: DriftScorer::new(profiles, monitor.tau_drift),
            d_pass,
            config,
            monitor,
            live,
            window: VecDeque::new(),
            window_rows: 0,
            metrics: RunMetrics::default(),
        }
    }

    /// The baseline profile set (discovery order); drift report and
    /// candidate indices refer to this slice.
    pub fn profiles(&self) -> &[Profile] {
        self.scorer.profiles()
    }

    /// The passing dataset the baseline was discovered from.
    pub fn d_pass(&self) -> &DataFrame {
        &self.d_pass
    }

    /// The monitoring knobs.
    pub fn monitor_config(&self) -> &MonitorConfig {
        &self.monitor
    }

    /// Ingest and drift-check counters and the ingest latency
    /// accumulated so far. `rows_ingested` is also the global row
    /// offset of the next batch's sketches.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Fold one batch into the live sketches and the sliding window.
    ///
    /// The batch must carry exactly the passing dataset's schema
    /// (column names, order, and dtypes). Emits one `sketch_merge`
    /// trace event and records the ingest latency.
    pub fn ingest(&mut self, batch: DataFrame, tracer: &Tracer) -> Result<()> {
        let t0 = Instant::now();
        self.check_schema(&batch)?;
        let offset = self.metrics.rows_ingested as usize;
        let batch_rows = batch.n_rows();
        let mut summaries = Vec::with_capacity(batch.n_cols());
        for (col, live) in batch.columns().iter().zip(self.live.iter_mut()) {
            let summary = ColumnSummary::build(col);
            live.summary = Some(match live.summary.take() {
                Some(acc) => acc.merge(&summary),
                None => summary.clone(),
            });
            summaries.push(summary);
            let dtype = col.dtype();
            if dtype.is_numeric() {
                let values: Vec<(usize, f64)> = col
                    .f64_values()
                    .into_iter()
                    .map(|(i, v)| (offset + i, v))
                    .collect();
                let sketch = NumericSketch::build_at(offset, batch_rows, &values);
                live.numeric = Some(match live.numeric.take() {
                    Some(acc) => acc.merge(&sketch),
                    None => sketch,
                });
            } else if dtype.is_string() {
                let mut cells: Vec<Option<&str>> = vec![None; batch_rows];
                for (i, s) in col.str_values() {
                    cells[i] = Some(s);
                }
                let sketch = CategoricalSketch::from_values_at(offset, &cells, DEFAULT_BUCKETS);
                live.categorical = Some(match live.categorical.take() {
                    Some(acc) => acc.merge(&sketch),
                    None => sketch,
                });
            }
        }
        self.window.push_back(WindowBatch {
            frame: batch,
            summaries,
        });
        self.window_rows += batch_rows;
        while self.window.len() > self.monitor.window_batches.max(1) {
            if let Some(old) = self.window.pop_front() {
                self.window_rows -= old.frame.n_rows();
            }
        }
        self.metrics.batches_ingested += 1;
        self.metrics.rows_ingested += batch_rows as u64;
        self.metrics
            .ingest_latency
            .record(t0.elapsed().as_nanos() as u64);
        let (columns, total_rows, batches) = (
            self.live.len(),
            self.metrics.rows_ingested,
            self.metrics.batches_ingested,
        );
        tracer.emit(|| {
            Event::SketchMerge(SketchMergeSpan {
                columns,
                batch_rows: batch_rows as u64,
                total_rows,
                batches,
            })
        });
        Ok(())
    }

    fn check_schema(&self, batch: &DataFrame) -> Result<()> {
        let ours = self.d_pass.columns();
        let theirs = batch.columns();
        let ok = ours.len() == theirs.len()
            && ours
                .iter()
                .zip(theirs)
                .all(|(a, b)| a.name() == b.name() && a.dtype() == b.dtype());
        if ok {
            Ok(())
        } else {
            Err(PrismError::BadInput(format!(
                "ingested batch schema [{}] does not match the watched schema [{}]",
                schema_line(batch),
                schema_line(&self.d_pass),
            )))
        }
    }

    /// The live merged summary of one column, or `None` before the
    /// first batch (or for an unknown column).
    pub fn live_summary(&self, column: &str) -> Option<&ColumnSummary> {
        self.live_column(column)?.summary.as_ref()
    }

    /// The live merged numeric sketch of one column (numeric columns
    /// only, after at least one batch).
    pub fn live_numeric_sketch(&self, column: &str) -> Option<&NumericSketch> {
        self.live_column(column)?.numeric.as_ref()
    }

    /// The live merged categorical sketch of one column (string
    /// columns only, after at least one batch).
    pub fn live_categorical_sketch(&self, column: &str) -> Option<&CategoricalSketch> {
        self.live_column(column)?.categorical.as_ref()
    }

    fn live_column(&self, column: &str) -> Option<&LiveColumn> {
        self.d_pass
            .columns()
            .iter()
            .position(|c| c.name() == column)
            .map(|i| &self.live[i])
    }

    /// Rows in the current scoring window (the most recent
    /// `window_batches` batches), without assembling it.
    pub fn window_rows(&self) -> usize {
        self.window_rows
    }

    /// The current scoring window as one frame (the most recent
    /// `window_batches` batches concatenated), or `None` before the
    /// first batch.
    pub fn window_frame(&self) -> Option<DataFrame> {
        let mut batches = self.window.iter();
        let mut frame = batches.next()?.frame.clone();
        for b in batches {
            frame = frame
                .concat(&b.frame)
                .expect("window batches share the watched schema");
        }
        Some(frame)
    }

    /// Per-column merged summaries of the current window (the screen
    /// input for drift scoring) — merged from the retained per-batch
    /// summaries, no row scan.
    fn window_summaries(&self) -> Vec<(String, ColumnSummary)> {
        let mut batches = self.window.iter();
        let Some(first) = batches.next() else {
            return Vec::new();
        };
        let mut merged = first.summaries.clone();
        for b in batches {
            for (acc, s) in merged.iter_mut().zip(&b.summaries) {
                *acc = acc.merge(s);
            }
        }
        self.d_pass
            .columns()
            .iter()
            .map(|c| c.name().to_string())
            .zip(merged)
            .collect()
    }

    /// Score the current window against every baseline profile.
    /// Bumps `drift_checks` (and `drift_triggers` when anything
    /// crosses `τ_drift`); emits one `drift_score` event per profile.
    pub fn check_drift(&mut self, tracer: &Tracer) -> DriftReport {
        let window = self.window_frame();
        let summaries = self.window_summaries();
        let report = self.scorer.score(window.as_ref(), &summaries, tracer);
        self.metrics.drift_checks += 1;
        if report.any_drifted() {
            self.metrics.drift_triggers += 1;
        }
        report
    }

    /// The candidate PVTs a targeted re-diagnosis over the given
    /// drifted profiles starts from: ids assigned sequentially from 0
    /// in baseline profile order, transforms per profile exactly as
    /// batch discovery assigns them — so a triggered run and an
    /// offline run given these candidates see identical inputs.
    pub fn candidates(&self, drifted: &[usize]) -> Vec<Pvt> {
        let mut pvts = Vec::new();
        let mut id = 0;
        for &i in drifted {
            let profile = &self.scorer.profiles()[i];
            for transform in transforms_for(profile, self.config.discovery.alternative_transforms) {
                pvts.push(Pvt {
                    id,
                    profile: profile.clone(),
                    transform,
                });
                id += 1;
            }
        }
        pvts
    }

    /// Targeted re-diagnosis of the current window with `algorithm`:
    /// the drifted profiles seed the candidate set, the window is the
    /// failing dataset, the watched `d_pass` the passing one, and
    /// `cache` (typically the namespace's resident cache) both warms
    /// the run and absorbs its scores. Emits a `monitor_trigger`
    /// event.
    pub fn diagnose(
        &self,
        algorithm: Algorithm,
        factory: &dyn SystemFactory,
        drifted: &[usize],
        cache: &mut ScoreCache,
        tracer: &Tracer,
    ) -> Result<Explanation> {
        let (window, pvts) = self.trigger(drifted, tracer)?;
        Diagnosis::new(algorithm)
            .with_candidates(pvts)
            .with_cache(cache)
            .run(
                Source::Factory(factory),
                &window,
                &self.d_pass,
                &self.config,
            )
    }

    fn trigger(&self, drifted: &[usize], tracer: &Tracer) -> Result<(DataFrame, Vec<Pvt>)> {
        if drifted.iter().any(|&i| i >= self.scorer.profiles().len()) {
            return Err(PrismError::BadInput(format!(
                "drifted profile index out of range (baseline has {} profiles)",
                self.scorer.profiles().len()
            )));
        }
        let window = self.window_frame().ok_or_else(|| {
            PrismError::BadInput("cannot diagnose before any batch was ingested".into())
        })?;
        let pvts = self.candidates(drifted);
        if pvts.is_empty() {
            return Err(PrismError::NoDiscriminativePvts);
        }
        let (drifted, candidates, window_rows) =
            (drifted.to_vec(), pvts.len(), window.n_rows() as u64);
        tracer.emit(move || {
            Event::MonitorTrigger(MonitorTriggerSpan {
                drifted,
                candidates,
                window_rows,
            })
        });
        Ok((window, pvts))
    }
}

fn schema_line(df: &DataFrame) -> String {
    df.columns()
        .iter()
        .map(|c| format!("{}:{:?}", c.name(), c.dtype()))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::{Column, DType};

    fn pass_frame() -> DataFrame {
        let xs: Vec<Option<f64>> = (0..40).map(|i| Some((i % 10) as f64)).collect();
        let labels: Vec<Option<String>> = (0..40)
            .map(|i| Some(if i % 2 == 0 { "-1" } else { "1" }.to_string()))
            .collect();
        DataFrame::from_columns(vec![
            Column::from_floats("x", xs),
            Column::from_strings("target", DType::Categorical, labels),
        ])
        .unwrap()
    }

    // `labels[i % 2]` with the same x generator as `pass_frame`:
    // `batch(n, 0.0, ["-1", "1"])` replicates the passing
    // distribution exactly (full periods), so no profile drifts.
    fn batch(n: usize, shift: f64, labels: [&str; 2]) -> DataFrame {
        let xs: Vec<Option<f64>> = (0..n).map(|i| Some((i % 10) as f64 + shift)).collect();
        let labels: Vec<Option<String>> = (0..n).map(|i| Some(labels[i % 2].to_string())).collect();
        DataFrame::from_columns(vec![
            Column::from_floats("x", xs),
            Column::from_strings("target", DType::Categorical, labels),
        ])
        .unwrap()
    }

    fn watcher() -> Watcher {
        Watcher::new(
            pass_frame(),
            PrismConfig::with_threshold(0.2),
            MonitorConfig::default(),
        )
    }

    #[test]
    fn live_sketches_match_a_scratch_rebuild() {
        let mut w = watcher();
        let tracer = Tracer::off();
        let mut whole = batch(8, 0.0, ["-1", "1"]);
        w.ingest(whole.clone(), &tracer).unwrap();
        for b in [batch(5, 0.0, ["1", "1"]), batch(11, 2.0, ["-1", "0"])] {
            whole = whole.concat(&b).unwrap();
            w.ingest(b, &tracer).unwrap();
        }
        assert_eq!(w.metrics().batches_ingested, 3);
        assert_eq!(w.metrics().rows_ingested, 24);
        for col in whole.columns() {
            let live = w.live_summary(col.name()).unwrap();
            assert_eq!(
                live.fingerprint(),
                ColumnSummary::build(col).fingerprint(),
                "summary of {} diverged from scratch rebuild",
                col.name()
            );
        }
        let x = whole.column("x").unwrap();
        assert_eq!(
            w.live_numeric_sketch("x").unwrap().fingerprint(),
            NumericSketch::build(x.len(), &x.f64_values()).fingerprint(),
        );
        let t = whole.column("target").unwrap();
        let cells: Vec<Option<&str>> = (0..t.len())
            .map(|i| {
                t.str_values()
                    .into_iter()
                    .find(|(j, _)| *j == i)
                    .map(|(_, s)| s)
            })
            .collect();
        assert_eq!(
            w.live_categorical_sketch("target").unwrap().fingerprint(),
            CategoricalSketch::from_values(&cells, DEFAULT_BUCKETS).fingerprint(),
        );
    }

    #[test]
    fn window_keeps_only_the_recent_batches() {
        let mut w = watcher();
        let tracer = Tracer::off();
        for _ in 0..5 {
            w.ingest(batch(6, 0.0, ["-1", "1"]), &tracer).unwrap();
        }
        // window_batches = 2 → the window holds 12 of the 30 rows.
        assert_eq!(w.window_frame().unwrap().n_rows(), 12);
        assert_eq!(w.window_rows(), 12);
        assert_eq!(w.metrics().rows_ingested, 30);
    }

    #[test]
    fn clean_stream_never_drifts_and_mostly_screens() {
        let mut w = watcher();
        let tracer = Tracer::off();
        for _ in 0..3 {
            w.ingest(batch(10, 0.0, ["-1", "1"]), &tracer).unwrap();
            let report = w.check_drift(&tracer);
            assert!(!report.any_drifted(), "clean data must not drift");
        }
        assert_eq!(w.metrics().drift_checks, 3);
        assert_eq!(w.metrics().drift_triggers, 0);
        assert_eq!(w.metrics().batches_ingested, 3);
        assert!(w.metrics().ingest_latency.count == 3);
    }

    #[test]
    fn injected_disconnect_drifts_within_the_window() {
        let mut w = watcher();
        let tracer = Tracer::off();
        for _ in 0..3 {
            w.ingest(batch(10, 0.0, ["-1", "1"]), &tracer).unwrap();
            assert!(!w.check_drift(&tracer).any_drifted());
        }
        // Out-of-domain labels ("0"/"4" instead of "-1"/"1").
        w.ingest(batch(10, 0.0, ["0", "4"]), &tracer).unwrap();
        let report = w.check_drift(&tracer);
        assert!(report.any_drifted(), "injected disconnect must drift");
        let drifted = report.drifted();
        assert!(drifted
            .iter()
            .all(|&i| w.profiles()[i].attributes().contains(&"target".to_string())));
        assert_eq!(w.metrics().drift_triggers, 1);
        // Candidates mirror discovery's id assignment: sequential
        // from zero.
        let pvts = w.candidates(&drifted);
        assert!(!pvts.is_empty());
        for (k, p) in pvts.iter().enumerate() {
            assert_eq!(p.id, k);
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut w = watcher();
        let bad =
            DataFrame::from_columns(vec![Column::from_floats("x", vec![Some(1.0), Some(2.0)])])
                .unwrap();
        let err = w.ingest(bad, &Tracer::off()).unwrap_err();
        assert!(matches!(err, PrismError::BadInput(_)));
        assert_eq!(
            w.metrics().batches_ingested,
            0,
            "rejected batch must not count"
        );
    }

    #[test]
    fn diagnose_requires_ingested_data_and_valid_indices() {
        let w = watcher();
        let mut cache = ScoreCache::new();
        let factory = || |_: &DataFrame| 0.0;
        let err = w
            .diagnose(
                Algorithm::Greedy,
                &factory,
                &[0],
                &mut cache,
                &Tracer::off(),
            )
            .unwrap_err();
        assert!(matches!(err, PrismError::BadInput(_)));
    }
}
