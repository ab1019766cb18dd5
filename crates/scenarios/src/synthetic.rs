//! Synthetic pipelines with planted root causes (§5.2, appendix D).
//!
//! A synthetic pipeline consists of:
//!
//! - a **passing dataset**: `m` numeric attributes uniform in `[0, 1]`;
//! - a **failing dataset**: the same schema where each *planted*
//!   discriminative PVT corrupts one attribute (domain shift or
//!   missing values), with a controllable severity;
//! - a **system** whose malfunction is a deterministic function of
//!   which planted profiles the (transformed) dataset still violates:
//!   `m(D) = base + span · min_groups(unfixed fraction)` for a
//!   disjunction of conjunctive cause groups. Assumptions A1–A3 hold
//!   by construction (each cause constituent strictly reduces the
//!   score, compositions reduce iff a constituent does), except where
//!   a builder deliberately violates them;
//! - the pre-built discriminative [`Pvt`] list, so experiments can
//!   control the candidate count directly (the paper's Figs 8–9 vary
//!   it up to 300K) without paying for rediscovery.

use dataprism::profile::Profile;
use dataprism::transform::{ImputeStrategy, Transform};
use dataprism::{PrismConfig, Pvt, System};
use dp_frame::{Column, DataFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a planted PVT corrupts its attribute in the failing dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlantKind {
    /// Shift a `severity` fraction of the values out of the passing
    /// domain `[0, 1]` (into `[2, 3]`).
    Domain {
        /// Fraction of rows corrupted.
        severity: f64,
    },
    /// NULL out a `severity` fraction of the values.
    Missing {
        /// Fraction of rows nulled.
        severity: f64,
    },
}

/// One planted discriminative PVT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plant {
    /// Index of the attribute it corrupts (attributes may host
    /// several plants — that is what creates PVT-dependency edges).
    pub attr: usize,
    /// Corruption kind and severity.
    pub kind: PlantKind,
}

/// Full specification of a synthetic pipeline.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Rows per dataset.
    pub n_rows: usize,
    /// Total attributes (≥ the number of planted attributes; the
    /// rest stay clean).
    pub n_attributes: usize,
    /// The planted discriminative PVTs; `plants[i]` becomes PVT id `i`.
    pub plants: Vec<Plant>,
    /// Ground-truth cause: a disjunction of conjunctions over plant
    /// indices. Fixing every PVT of at least one group makes the
    /// system pass.
    pub cause: Vec<Vec<usize>>,
    /// RNG seed for data generation.
    pub seed: u64,
}

/// The synthetic system: scores a dataset by how much of the planted
/// cause is still broken.
#[derive(Debug, Clone)]
pub struct SyntheticSystem {
    plants: Vec<(String, PlantKind)>,
    cause: Vec<Vec<usize>>,
    base: f64,
    span: f64,
    /// When true the score is all-or-nothing per cause group (no
    /// partial credit) — this *violates assumption A2* and is the
    /// appendix-B setting where Algorithm 5 is required.
    pub all_or_nothing: bool,
}

/// Malfunction floor of the synthetic systems (their score on fully
/// repaired data).
pub const BASE_SCORE: f64 = 0.02;
/// Threshold used by all synthetic scenarios.
pub const THRESHOLD: f64 = 0.05;

fn attr_name(i: usize) -> String {
    format!("a{i}")
}

impl SyntheticSystem {
    fn plant_fixed(&self, df: &DataFrame, idx: usize) -> bool {
        let (attr, kind) = &self.plants[idx];
        let Ok(col) = df.column(attr) else {
            return false;
        };
        let n = col.len();
        if n == 0 {
            return false;
        }
        match kind {
            PlantKind::Domain { .. } => {
                let values = col.f64_values();
                if values.is_empty() {
                    return false;
                }
                let outside = values
                    .iter()
                    .filter(|(_, v)| !(-0.1..=1.1).contains(v))
                    .count();
                (outside as f64) <= 0.05 * values.len() as f64
            }
            // Strict: the adversarial scenario's cause is a single
            // NULL cell, which must count as "still broken".
            PlantKind::Missing { .. } => col.null_count() == 0,
        }
    }
}

impl System for SyntheticSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        let fixed: Vec<bool> = (0..self.plants.len())
            .map(|i| self.plant_fixed(df, i))
            .collect();
        let worst = self
            .cause
            .iter()
            .map(|group| {
                let unfixed = group.iter().filter(|&&i| !fixed[i]).count();
                if self.all_or_nothing {
                    f64::from(unfixed > 0)
                } else {
                    unfixed as f64 / group.len().max(1) as f64
                }
            })
            .fold(f64::INFINITY, f64::min);
        let worst = if worst.is_finite() { worst } else { 1.0 };
        self.base + self.span * worst
    }

    fn name(&self) -> &str {
        "synthetic-pipeline"
    }
}

/// A fully materialized synthetic scenario.
pub struct SyntheticScenario {
    /// Clean dataset.
    pub d_pass: DataFrame,
    /// Corrupted dataset.
    pub d_fail: DataFrame,
    /// Pre-built discriminative PVTs (id `i` = plant `i`).
    pub pvts: Vec<Pvt>,
    /// The system under diagnosis.
    pub system: SyntheticSystem,
    /// Diagnosis configuration (τ = [`THRESHOLD`]).
    pub config: PrismConfig,
    /// The planted cause.
    pub cause: Vec<Vec<usize>>,
}

impl SyntheticScenario {
    /// Whether an explanation's PVT ids cover at least one cause
    /// group exactly (minimality included).
    pub fn is_exact_cause(&self, ids: &[usize]) -> bool {
        self.cause.iter().any(|group| {
            let mut g = group.clone();
            g.sort_unstable();
            let mut s = ids.to_vec();
            s.sort_unstable();
            g == s
        })
    }

    /// Whether the ids cover (superset of) some cause group.
    pub fn covers_cause(&self, ids: &[usize]) -> bool {
        self.cause
            .iter()
            .any(|group| group.iter().all(|i| ids.contains(i)))
    }

    /// A [`dataprism::SystemFactory`] that builds independent clones
    /// of this scenario's system for the parallel runtime.
    pub fn factory(&self) -> impl dataprism::SystemFactory {
        let system = self.system.clone();
        move || system.clone()
    }
}

/// Materialize a specification into datasets, PVTs, and a system.
pub fn build(spec: &SyntheticSpec) -> SyntheticScenario {
    assert!(
        spec.plants.iter().all(|p| p.attr < spec.n_attributes),
        "plant attribute out of range"
    );
    assert!(
        spec.cause.iter().flatten().all(|&i| i < spec.plants.len()),
        "cause index out of range"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = spec.n_rows;
    // Passing dataset: everything clean.
    let mut pass_cols = Vec::with_capacity(spec.n_attributes);
    let mut fail_cols_raw: Vec<Vec<Option<f64>>> = Vec::with_capacity(spec.n_attributes);
    for _ in 0..spec.n_attributes {
        let pass_vals: Vec<Option<f64>> = (0..n).map(|_| Some(rng.gen::<f64>())).collect();
        let fail_vals: Vec<Option<f64>> = (0..n).map(|_| Some(rng.gen::<f64>())).collect();
        pass_cols.push(pass_vals);
        fail_cols_raw.push(fail_vals);
    }
    // Apply corruptions to the failing dataset.
    for plant in &spec.plants {
        let col = &mut fail_cols_raw[plant.attr];
        match plant.kind {
            PlantKind::Domain { severity } => {
                for v in col.iter_mut() {
                    if rng.gen_bool(severity.clamp(0.0, 1.0)) {
                        *v = Some(2.0 + rng.gen::<f64>());
                    }
                }
            }
            PlantKind::Missing { severity } => {
                for v in col.iter_mut() {
                    if rng.gen_bool(severity.clamp(0.0, 1.0)) {
                        *v = None;
                    }
                }
            }
        }
    }
    let d_pass = DataFrame::from_columns(
        pass_cols
            .into_iter()
            .enumerate()
            .map(|(i, vals)| Column::from_floats(attr_name(i), vals))
            .collect(),
    )
    .expect("unique generated names");
    let d_fail = DataFrame::from_columns(
        fail_cols_raw
            .into_iter()
            .enumerate()
            .map(|(i, vals)| Column::from_floats(attr_name(i), vals))
            .collect(),
    )
    .expect("unique generated names");

    // PVTs: parameters as discovered on the passing dataset.
    let pvts: Vec<Pvt> = spec
        .plants
        .iter()
        .enumerate()
        .map(|(id, plant)| {
            let attr = attr_name(plant.attr);
            match plant.kind {
                PlantKind::Domain { severity } => Pvt {
                    id,
                    profile: Profile::DomainNumeric {
                        attr: attr.clone(),
                        lb: 0.0,
                        ub: 1.0,
                    },
                    // Full corruption repairs by rescaling (Fig 1 row
                    // 2 alt 1); partial corruption by winsorizing
                    // only the violating values (alt 2), which also
                    // gives the benefit score its coverage signal.
                    transform: if severity >= 0.999 {
                        Transform::LinearRescale {
                            attr,
                            lb: 0.0,
                            ub: 1.0,
                        }
                    } else {
                        Transform::Winsorize {
                            attr,
                            lb: 0.0,
                            ub: 1.0,
                        }
                    },
                },
                PlantKind::Missing { .. } => Pvt {
                    id,
                    profile: Profile::Missing {
                        attr: attr.clone(),
                        theta: 0.0,
                    },
                    transform: Transform::Impute {
                        attr,
                        strategy: ImputeStrategy::Central,
                    },
                },
            }
        })
        .collect();

    let system = SyntheticSystem {
        plants: spec
            .plants
            .iter()
            .map(|p| (attr_name(p.attr), p.kind))
            .collect(),
        cause: spec.cause.clone(),
        base: BASE_SCORE,
        span: 0.96,
        all_or_nothing: false,
    };
    let config = PrismConfig {
        threshold: THRESHOLD,
        seed: spec.seed ^ 0x5EED,
        ..Default::default()
    };
    SyntheticScenario {
        d_pass,
        d_fail,
        pvts,
        system,
        config,
        cause: spec.cause.clone(),
    }
}

/// Severity used for spurious (non-cause) plants: low coverage keeps
/// their benefit score below the full-severity cause plants, which
/// is exactly the regime where observations O2/O3 hold.
const SPURIOUS_SEVERITY: f64 = 0.3;

/// A pipeline with one single-PVT cause among `n_discriminative`
/// planted PVTs spread over `n_attributes` attributes
/// (Fig 9(a)/(b), Fig 8).
pub fn single_cause(n_attributes: usize, n_discriminative: usize, seed: u64) -> SyntheticScenario {
    single_cause_with_rows(n_attributes, n_discriminative, 100, seed)
}

/// [`single_cause`] at an explicit row count: the Fig 8 row-scaling
/// panel and the CI memory/sampling smoke run it at 10⁶–10⁷ rows,
/// where copy-on-write chunk sharing and the confidence-bounded
/// sampled oracle actually matter.
pub fn single_cause_with_rows(
    n_attributes: usize,
    n_discriminative: usize,
    n_rows: usize,
    seed: u64,
) -> SyntheticScenario {
    assert!(n_attributes >= 1 && n_discriminative >= 1);
    let mut plants = Vec::with_capacity(n_discriminative);
    plants.push(Plant {
        attr: 0,
        kind: PlantKind::Domain { severity: 1.0 },
    });
    for i in 1..n_discriminative {
        let attr = i % n_attributes;
        // Alternate kinds so attributes hosting two plants create
        // dependency edges; same-attr duplicates switch kinds.
        let kind = if (i / n_attributes).is_multiple_of(2) && attr != 0 {
            PlantKind::Domain {
                severity: SPURIOUS_SEVERITY,
            }
        } else {
            PlantKind::Missing {
                severity: SPURIOUS_SEVERITY,
            }
        };
        plants.push(Plant { attr, kind });
    }
    build(&SyntheticSpec {
        n_rows,
        n_attributes,
        plants,
        cause: vec![vec![0]],
        seed,
    })
}

/// A pipeline whose cause is a conjunction of `size` PVTs (Fig 9(c)).
/// All cause plants have full severity.
pub fn conjunctive_cause(
    n_attributes: usize,
    n_discriminative: usize,
    size: usize,
    seed: u64,
) -> SyntheticScenario {
    conjunctive_cause_with_rows(n_attributes, n_discriminative, size, 100, seed)
}

/// [`conjunctive_cause`] at an explicit row count (the CI
/// memory/sampling smoke: a conjunctive explanation gives
/// minimality checking unknown failing compositions to settle on
/// samples).
pub fn conjunctive_cause_with_rows(
    n_attributes: usize,
    n_discriminative: usize,
    size: usize,
    n_rows: usize,
    seed: u64,
) -> SyntheticScenario {
    assert!(size >= 1 && size <= n_discriminative && size <= n_attributes);
    let mut plants = Vec::with_capacity(n_discriminative);
    for i in 0..size {
        plants.push(Plant {
            attr: i,
            kind: PlantKind::Domain { severity: 1.0 },
        });
    }
    for i in size..n_discriminative {
        let attr = i % n_attributes;
        let kind = if attr < size {
            PlantKind::Missing {
                severity: SPURIOUS_SEVERITY,
            }
        } else if (i / n_attributes).is_multiple_of(2) {
            PlantKind::Domain {
                severity: SPURIOUS_SEVERITY,
            }
        } else {
            PlantKind::Missing {
                severity: SPURIOUS_SEVERITY,
            }
        };
        plants.push(Plant { attr, kind });
    }
    build(&SyntheticSpec {
        n_rows,
        n_attributes,
        plants,
        cause: vec![(0..size).collect()],
        seed,
    })
}

/// A pipeline whose cause is a disjunction of `n_groups` single-PVT
/// alternatives (Fig 9(d)).
pub fn disjunctive_cause(
    n_attributes: usize,
    n_discriminative: usize,
    n_groups: usize,
    seed: u64,
) -> SyntheticScenario {
    assert!(n_groups >= 1 && n_groups <= n_discriminative && n_groups <= n_attributes);
    let mut plants = Vec::with_capacity(n_discriminative);
    for i in 0..n_groups {
        plants.push(Plant {
            attr: i,
            kind: PlantKind::Domain { severity: 1.0 },
        });
    }
    for i in n_groups..n_discriminative {
        let attr = i % n_attributes;
        plants.push(Plant {
            attr,
            kind: if (i / n_attributes).is_multiple_of(2) && attr >= n_groups {
                PlantKind::Domain {
                    severity: SPURIOUS_SEVERITY,
                }
            } else {
                PlantKind::Missing {
                    severity: SPURIOUS_SEVERITY,
                }
            },
        });
    }
    build(&SyntheticSpec {
        n_rows: 100,
        n_attributes,
        plants,
        cause: (0..n_groups).map(|i| vec![i]).collect(),
        seed,
    })
}

/// An **A2-violating** pipeline (appendix B's setting): the
/// malfunction is all-or-nothing — it stays at the failing level
/// until *every* PVT of the conjunctive cause is fixed, then drops to
/// the base. No partial credit, so the greedy algorithm keeps no
/// intervention and Algorithm 5's decision-tree search is needed.
pub fn interacting_cause(n_discriminative: usize, size: usize, seed: u64) -> SyntheticScenario {
    assert!(size >= 2 && size <= n_discriminative);
    let mut scenario = conjunctive_cause(n_discriminative, n_discriminative, size, seed);
    scenario.system.all_or_nothing = true;
    scenario
}

/// Ablation scenario isolating observation **O1** (high-degree
/// attribute prioritization): every plant has the same severity (so
/// benefit scores are uninformative) but the cause attribute hosts
/// two discriminative PVTs while every spurious attribute hosts one.
/// With O1 the greedy pick lands on the cause attribute's PVTs
/// immediately; without it the search is a blind scan.
pub fn ablation_o1(n_discriminative: usize, seed: u64) -> SyntheticScenario {
    assert!(n_discriminative >= 3);
    let sev = 0.6;
    let mut plants = vec![
        Plant {
            attr: 0,
            kind: PlantKind::Domain { severity: sev },
        },
        Plant {
            attr: 0,
            kind: PlantKind::Missing { severity: sev },
        },
    ];
    for i in 2..n_discriminative {
        plants.push(Plant {
            attr: i - 1,
            kind: PlantKind::Domain { severity: sev },
        });
    }
    build(&SyntheticSpec {
        n_rows: 100,
        n_attributes: n_discriminative - 1,
        plants,
        cause: vec![vec![0]],
        seed,
    })
}

/// Ablation scenario isolating observations **O2/O3** (benefit
/// scores): every attribute has degree one (O1 is uninformative) but
/// the cause plant has full severity while spurious plants are mild,
/// so violation × coverage points straight at the cause.
pub fn ablation_benefit(n_discriminative: usize, seed: u64) -> SyntheticScenario {
    assert!(n_discriminative >= 2);
    let mut plants = vec![Plant {
        attr: 0,
        kind: PlantKind::Domain { severity: 1.0 },
    }];
    for i in 1..n_discriminative {
        plants.push(Plant {
            attr: i,
            kind: PlantKind::Domain { severity: 0.25 },
        });
    }
    build(&SyntheticSpec {
        n_rows: 100,
        n_attributes: n_discriminative,
        plants,
        cause: vec![vec![0]],
        seed,
    })
}

/// The §5.2 adversarial pipeline: the true cause is a low-benefit
/// Missing PVT (a single corrupted cell) ranked **last** — position
/// `rank` — among `rank` discriminative PVTs, so DataPrism-GRD needs
/// `rank` interventions while group testing needs `O(log rank)`.
/// Observations O1–O3 are all violated: every attribute has degree 1
/// and the cause has the *lowest* violation and coverage.
pub fn adversarial_rank(rank: usize, seed: u64) -> SyntheticScenario {
    assert!(rank >= 2);
    let n_rows = 100;
    let mut plants: Vec<Plant> = (0..rank - 1)
        .map(|i| Plant {
            attr: i,
            kind: PlantKind::Domain { severity: 1.0 },
        })
        .collect();
    // The cause: one missing cell (severity 1/n ⇒ benefit ~1/n²).
    plants.push(Plant {
        attr: rank - 1,
        kind: PlantKind::Missing {
            severity: 1.5 / n_rows as f64,
        },
    });
    let mut scenario = build(&SyntheticSpec {
        n_rows,
        n_attributes: rank,
        plants,
        cause: vec![vec![rank - 1]],
        seed,
    });
    // Guarantee at least one NULL regardless of sampling.
    scenario
        .d_fail
        .column_mut(&attr_name(rank - 1))
        .unwrap()
        .set(0, dp_frame::Value::Null)
        .unwrap();
    scenario
}

/// The Fig 6 toy: 8 PVTs over 4 attributes (two per attribute, so
/// the PVT-dependency graph is the four-pair matching of Fig 6(a)),
/// with the disjunctive ground truth `{X1, X6} ∨ {X4, X8}`.
///
/// PVT ids ↦ paper labels: 0=X1 (A,Domain), 1=X2 (B,Domain),
/// 2=X3 (B,Missing), 3=X4 (A,Missing), 4=X5 (C,Domain),
/// 5=X6 (D,Domain), 6=X7 (C,Missing), 7=X8 (D,Missing).
pub fn toy_fig6(seed: u64) -> SyntheticScenario {
    let sev = 0.5;
    let plants = vec![
        Plant {
            attr: 0,
            kind: PlantKind::Domain { severity: sev },
        }, // X1
        Plant {
            attr: 1,
            kind: PlantKind::Domain { severity: sev },
        }, // X2
        Plant {
            attr: 1,
            kind: PlantKind::Missing { severity: sev },
        }, // X3
        Plant {
            attr: 0,
            kind: PlantKind::Missing { severity: sev },
        }, // X4
        Plant {
            attr: 2,
            kind: PlantKind::Domain { severity: sev },
        }, // X5
        Plant {
            attr: 3,
            kind: PlantKind::Domain { severity: sev },
        }, // X6
        Plant {
            attr: 2,
            kind: PlantKind::Missing { severity: sev },
        }, // X7
        Plant {
            attr: 3,
            kind: PlantKind::Missing { severity: sev },
        }, // X8
    ];
    build(&SyntheticSpec {
        n_rows: 200,
        n_attributes: 4,
        plants,
        cause: vec![vec![0, 5], vec![3, 7]],
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataprism::{Algorithm, Diagnosis, Explanation, Source};

    fn diagnose(s: &mut SyntheticScenario, algorithm: Algorithm) -> Explanation {
        Diagnosis::new(algorithm)
            .with_candidates(s.pvts.clone())
            .run(
                Source::Borrowed(&mut s.system),
                &s.d_fail,
                &s.d_pass,
                &s.config,
            )
            .unwrap()
    }

    #[test]
    fn pass_and_fail_scores() {
        let mut s = single_cause(10, 10, 1);
        assert!(s.system.malfunction(&s.d_pass) <= THRESHOLD);
        assert!(s.system.malfunction(&s.d_fail) > THRESHOLD);
        // Every planted PVT is genuinely discriminative.
        for pvt in &s.pvts {
            assert!(pvt.violation(&s.d_fail) > 0.0, "{}", pvt.profile);
            assert!(pvt.violation(&s.d_pass) < 0.05, "{}", pvt.profile);
        }
    }

    #[test]
    fn greedy_finds_single_cause_in_few_interventions() {
        let mut s = single_cause(20, 20, 2);
        let exp = diagnose(&mut s, Algorithm::Greedy);
        assert!(exp.resolved);
        assert!(s.is_exact_cause(&exp.pvt_ids()), "{:?}", exp.pvt_ids());
        assert!(
            exp.interventions <= 5,
            "O2/O3 hold, so the cause ranks first: {} interventions",
            exp.interventions
        );
    }

    #[test]
    fn group_testing_finds_single_cause_logarithmically() {
        let mut s = single_cause(32, 32, 3);
        let exp = diagnose(&mut s, Algorithm::GroupTest);
        assert!(exp.resolved);
        assert!(s.covers_cause(&exp.pvt_ids()), "{:?}", exp.pvt_ids());
        assert!(
            exp.interventions <= 2 * 6 + 4,
            "O(log n) interventions, got {}",
            exp.interventions
        );
    }

    #[test]
    fn conjunctive_cause_requires_all_members() {
        let mut s = conjunctive_cause(10, 15, 3, 4);
        let exp = diagnose(&mut s, Algorithm::Greedy);
        assert!(exp.resolved);
        assert!(s.is_exact_cause(&exp.pvt_ids()), "{:?}", exp.pvt_ids());
        assert_eq!(exp.pvts.len(), 3);
    }

    #[test]
    fn disjunctive_cause_needs_any_one_group() {
        let mut s = disjunctive_cause(10, 12, 4, 5);
        let exp = diagnose(&mut s, Algorithm::Greedy);
        assert!(exp.resolved);
        assert!(s.covers_cause(&exp.pvt_ids()), "{:?}", exp.pvt_ids());
        assert_eq!(exp.pvts.len(), 1, "minimality: one alternative suffices");
    }

    #[test]
    fn adversarial_rank_costs_greedy_linear_gt_log() {
        let rank = 20;
        let mut s1 = adversarial_rank(rank, 6);
        let greedy = diagnose(&mut s1, Algorithm::Greedy);
        assert!(greedy.resolved);
        assert_eq!(
            greedy.interventions, rank,
            "the cause is benefit-ranked last"
        );
        let mut s2 = adversarial_rank(rank, 6);
        let gt = diagnose(&mut s2, Algorithm::GroupTest);
        assert!(gt.resolved);
        assert!(
            gt.interventions < greedy.interventions / 2,
            "GT {} vs GRD {}",
            gt.interventions,
            greedy.interventions
        );
    }

    #[test]
    fn toy_fig6_structure() {
        let s = toy_fig6(7);
        assert_eq!(s.pvts.len(), 8);
        // The dependency pairs of Fig 6(a).
        let g = dataprism::graph::PvtAttributeGraph::new(&s.pvts);
        let edges = g.dependency_edges();
        assert_eq!(edges, vec![(0, 3), (1, 2), (4, 6), (5, 7)]);
    }

    #[test]
    fn toy_fig6_both_strategies_resolve() {
        for algorithm in [Algorithm::GroupTest, Algorithm::GrpTest] {
            let mut s = toy_fig6(8);
            let exp = diagnose(&mut s, algorithm);
            assert!(exp.resolved, "{algorithm:?}");
            assert!(
                s.covers_cause(&exp.pvt_ids()),
                "{algorithm:?}: {:?}",
                exp.pvt_ids()
            );
        }
    }

    #[test]
    fn build_validates_spec() {
        let spec = SyntheticSpec {
            n_rows: 10,
            n_attributes: 2,
            plants: vec![Plant {
                attr: 5,
                kind: PlantKind::Domain { severity: 1.0 },
            }],
            cause: vec![vec![0]],
            seed: 0,
        };
        assert!(std::panic::catch_unwind(|| build(&spec)).is_err());
    }
}
