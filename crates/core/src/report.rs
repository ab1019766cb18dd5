//! Human-readable diagnosis reports.
//!
//! Renders an [`Explanation`] — together with the datasets it was
//! derived from — as a markdown document: the malfunction summary,
//! the cause/fix table, a Fig 5-style discriminative-profile listing
//! with per-dataset parameters, and the intervention trace.

use crate::discovery::discriminative_pvts;
use crate::explanation::{Explanation, TraceEvent};
use crate::violation::violation;
use crate::DiscoveryConfig;
use dp_frame::DataFrame;
use std::fmt::Write as _;

/// Render a full markdown report of a diagnosis.
///
/// `threshold` is the τ the diagnosis ran with; `discovery` the
/// config used (so the Fig 5-style table lists the same profiles the
/// algorithms saw).
pub fn markdown_report(
    explanation: &Explanation,
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    threshold: f64,
    discovery: &DiscoveryConfig,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# DataPrism diagnosis report\n");
    let _ = writeln!(
        out,
        "- malfunction: **{:.3} → {:.3}** (threshold τ = {:.3}, {})",
        explanation.initial_score,
        explanation.final_score,
        threshold,
        if explanation.resolved {
            "resolved"
        } else {
            "UNRESOLVED"
        }
    );
    let _ = writeln!(
        out,
        "- interventions: **{}**\n- explanation size: **{}**",
        explanation.interventions,
        explanation.pvts.len()
    );
    let m = &explanation.metrics;
    let _ = writeln!(
        out,
        "- oracle cache: **{} hit{} / {} miss{}**, {} speculative evaluation{} ({} wasted)",
        m.cache_hits,
        if m.cache_hits == 1 { "" } else { "s" },
        m.cache_misses,
        if m.cache_misses == 1 { "" } else { "es" },
        m.speculative_evaluated,
        if m.speculative_evaluated == 1 {
            ""
        } else {
            "s"
        },
        m.speculative_wasted,
    );
    let _ = writeln!(out, "- run metrics: **{}**", m.summary_line());
    let lint = &explanation.lint;
    if lint.analyzed {
        let _ = writeln!(
            out,
            "- lint: **{lint}**{}{}",
            if m.lint_pruned > 0 {
                format!(
                    " — {} candidate{} pruned before ranking",
                    m.lint_pruned,
                    if m.lint_pruned == 1 { "" } else { "s" }
                )
            } else {
                String::new()
            },
            if m.lint_subsumed > 0 {
                format!(
                    " — {} candidate{} subsumed into equivalence-class representatives",
                    m.lint_subsumed,
                    if m.lint_subsumed == 1 { "" } else { "s" }
                )
            } else {
                String::new()
            }
        );
        for diag in &lint.diagnostics {
            let _ = writeln!(out, "  - {diag}");
        }
    } else {
        let _ = writeln!(out, "- lint: off");
    }
    let tests = m.prefilter_screened + m.prefilter_exact;
    let _ = writeln!(
        out,
        "- discovery pre-filter: **{} of {} pair test{} screened** \
         ({} χ² / {} Pearson skipped; {} exact test{} over {} attribute pair{})\n",
        m.prefilter_screened,
        tests,
        if tests == 1 { "" } else { "s" },
        m.prefilter_chi2_screened,
        m.prefilter_screened - m.prefilter_chi2_screened,
        m.prefilter_exact,
        if m.prefilter_exact == 1 { "" } else { "s" },
        m.prefilter_pairs,
        if m.prefilter_pairs == 1 { "" } else { "s" },
    );

    let _ = writeln!(out, "## Causes and fixes\n");
    if explanation.pvts.is_empty() {
        let _ = writeln!(out, "_No repairing PVT was found._\n");
    } else {
        let _ = writeln!(
            out,
            "| # | cause (profile) | fix (transformation) | violation on D_fail |"
        );
        let _ = writeln!(out, "|---|---|---|---|");
        for (i, pvt) in explanation.pvts.iter().enumerate() {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.3} |",
                i + 1,
                pvt.profile,
                pvt.transform,
                violation(d_fail, &pvt.profile),
            );
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(out, "## Discriminative profiles (Fig 5 style)\n");
    let pvts = discriminative_pvts(d_pass, d_fail, discovery);
    let _ = writeln!(
        out,
        "| profile (parameters from D_pass) | violation by D_fail | in explanation |"
    );
    let _ = writeln!(out, "|---|---|---|");
    for pvt in &pvts {
        let in_explanation = explanation.pvts.iter().any(|p| p.profile == pvt.profile);
        let _ = writeln!(
            out,
            "| {} | {:.3} | {} |",
            pvt.profile,
            violation(d_fail, &pvt.profile),
            if in_explanation { "**yes**" } else { "" },
        );
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Intervention trace\n");
    for event in &explanation.trace {
        match event {
            TraceEvent::Discovered { n_pvts } => {
                let _ = writeln!(out, "- discovered {n_pvts} discriminative PVTs");
            }
            TraceEvent::Intervention {
                pvt_ids,
                before,
                after,
                kept,
            } => {
                let ids = if pvt_ids.len() > 8 {
                    format!("{} PVTs", pvt_ids.len())
                } else {
                    format!("{pvt_ids:?}")
                };
                let _ = writeln!(
                    out,
                    "- intervened on {ids}: {before:.3} → {after:.3} ({})",
                    if *kept { "kept" } else { "discarded" }
                );
            }
            TraceEvent::MinimalityDropped { pvt_id } => {
                let _ = writeln!(out, "- Make-Minimal dropped PVT {pvt_id}");
            }
        }
    }

    // Opt-in: the group-testing recursion tree, reconstructed from
    // the structured trace. Only present when the run collected one
    // (`PrismConfig::trace = TraceConfig::Collect`) and actually
    // bisected. Rendered without wall times so the report stays
    // byte-deterministic.
    if explanation
        .trace_records
        .iter()
        .any(|r| matches!(r.event, dp_trace::Event::BisectionNodeBegin(_)))
    {
        let tree = dp_trace::SearchTree::from_records(&explanation.trace_records);
        let _ = writeln!(out, "\n## Search tree\n");
        let _ = writeln!(out, "```");
        let _ = write!(out, "{}", tree.render_text(false));
        let _ = writeln!(out, "```");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Diagnosis, PrismConfig, Source};
    use dp_frame::{Column, DType};

    fn cat(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(
            name,
            DType::Categorical,
            vals.iter().map(|s| Some(s.to_string())).collect(),
        )
    }

    #[test]
    fn report_renders_all_sections() {
        let pass = DataFrame::from_columns(vec![cat("target", &["-1", "1", "1", "-1"])]).unwrap();
        let fail = DataFrame::from_columns(vec![cat("target", &["0", "4", "4", "0"])]).unwrap();
        let mut system = |df: &DataFrame| {
            let col = df.column("target").unwrap();
            col.str_values()
                .iter()
                .filter(|(_, s)| *s != "-1" && *s != "1")
                .count() as f64
                / df.n_rows().max(1) as f64
        };
        let config = PrismConfig::with_threshold(0.2);
        let exp = Diagnosis::new(Algorithm::Greedy)
            .run(Source::Borrowed(&mut system), &fail, &pass, &config)
            .unwrap();
        let report = markdown_report(&exp, &pass, &fail, 0.2, &config.discovery);
        assert!(report.contains("# DataPrism diagnosis report"));
        assert!(report.contains("## Causes and fixes"));
        assert!(report.contains("⟨Domain, target"));
        assert!(report.contains("## Discriminative profiles"));
        assert!(report.contains("## Intervention trace"));
        assert!(report.contains("- oracle cache: **"));
        assert!(report.contains("- run metrics: **"));
        assert!(
            !report.contains("## Search tree"),
            "no tree without collected trace records"
        );
        assert!(report.contains("- lint: **"), "lint summary line present");
        assert!(report.contains("- discovery pre-filter: **"));
        assert!(report.contains("resolved"));
        assert!(report.contains("**yes**"), "explanation row flagged");
    }

    #[test]
    fn search_tree_section_renders_when_collected() {
        let pass = DataFrame::from_columns(vec![
            cat("target", &["-1", "1", "1", "-1"]),
            cat("flag", &["a", "b", "a", "b"]),
        ])
        .unwrap();
        let fail = DataFrame::from_columns(vec![
            cat("target", &["0", "4", "4", "0"]),
            cat("flag", &["a", "b", "a", "b"]),
        ])
        .unwrap();
        let mut system = |df: &DataFrame| {
            let col = df.column("target").unwrap();
            col.str_values()
                .iter()
                .filter(|(_, s)| *s != "-1" && *s != "1")
                .count() as f64
                / df.n_rows().max(1) as f64
        };
        let config = PrismConfig {
            trace: dp_trace::TraceConfig::Collect,
            ..PrismConfig::with_threshold(0.2)
        };
        let exp = Diagnosis::new(Algorithm::GroupTest)
            .run(Source::Borrowed(&mut system), &fail, &pass, &config)
            .unwrap();
        assert!(!exp.trace_records.is_empty());
        let report = markdown_report(&exp, &pass, &fail, 0.2, &config.discovery);
        assert!(report.contains("## Search tree"), "{report}");
        assert!(report.contains("node 0"), "{report}");
    }

    #[test]
    fn empty_explanation_renders_gracefully() {
        let pass = DataFrame::from_columns(vec![cat("target", &["-1", "1"])]).unwrap();
        let fail = DataFrame::from_columns(vec![cat("target", &["0", "4"])]).unwrap();
        let exp = Explanation {
            pvts: Vec::new(),
            interventions: 0,
            initial_score: 1.0,
            final_score: 1.0,
            resolved: false,
            repaired: fail.clone(),
            trace: Vec::new(),
            lint: Default::default(),
            metrics: Default::default(),
            trace_records: Vec::new(),
        };
        let report = markdown_report(&exp, &pass, &fail, 0.2, &DiscoveryConfig::default());
        assert!(report.contains("UNRESOLVED"));
        assert!(report.contains("No repairing PVT"));
        assert!(
            report.contains("- lint: off"),
            "unanalyzed lint renders off"
        );
    }
}
