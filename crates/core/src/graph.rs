//! The PVT–attribute bipartite graph `G_PA` and the PVT-dependency
//! graph `G_PD` (paper §4, Fig 4).
//!
//! `G_PA` connects each discriminative PVT to the attributes its
//! profile (and transformation) is defined over. Observation O1:
//! attributes with high degree are likely involved in the root
//! cause, so PVTs adjacent to them are prioritized. `G_PD = G_PA²`
//! restricted to PVT nodes: two PVTs are dependent when they share an
//! attribute; group testing partitions along its minimum bisection.

use crate::pvt::Pvt;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The bipartite PVT–attribute graph over the *live* (not yet
/// explored) discriminative PVTs.
#[derive(Debug, Clone)]
pub struct PvtAttributeGraph {
    /// For each PVT id: the attributes it touches.
    adjacency: BTreeMap<usize, Vec<String>>,
}

impl PvtAttributeGraph {
    /// Build from the discriminative PVT set (§4.1 step 2 / Alg 1
    /// line 5).
    pub fn new(pvts: &[Pvt]) -> Self {
        let adjacency = pvts.iter().map(|p| (p.id, p.attributes())).collect();
        PvtAttributeGraph { adjacency }
    }

    /// Number of live PVTs.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True when no PVTs remain.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Live PVT ids.
    pub fn pvt_ids(&self) -> Vec<usize> {
        self.adjacency.keys().copied().collect()
    }

    /// Remove an explored PVT (Alg 1 line 13).
    pub fn remove(&mut self, pvt_id: usize) {
        self.adjacency.remove(&pvt_id);
    }

    /// Degree of every attribute among live PVTs.
    pub fn attribute_degrees(&self) -> BTreeMap<String, usize> {
        let mut deg = BTreeMap::new();
        for attrs in self.adjacency.values() {
            for a in attrs {
                *deg.entry(a.clone()).or_insert(0) += 1;
            }
        }
        deg
    }

    /// PVTs adjacent to (any of) the highest-degree attribute(s) —
    /// the set `X_hda` of Alg 1 line 10. When several attributes tie
    /// for the maximum, all of their PVTs qualify.
    pub fn high_degree_pvts(&self) -> Vec<usize> {
        let degrees = self.attribute_degrees();
        let Some(&max_deg) = degrees.values().max() else {
            return Vec::new();
        };
        let hot: BTreeSet<&String> = degrees
            .iter()
            .filter(|(_, &d)| d == max_deg)
            .map(|(a, _)| a)
            .collect();
        self.adjacency
            .iter()
            .filter(|(_, attrs)| attrs.iter().any(|a| hot.contains(a)))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Edges of the PVT-dependency graph `G_PD`: unordered PVT pairs
    /// sharing at least one attribute, each once as `(i, j)` with
    /// `i < j`, ascending. Read off per-attribute buckets, so the cost
    /// grows with the edges found rather than with all n²/2 pairs.
    pub fn dependency_edges(&self) -> Vec<(usize, usize)> {
        let ids = self.pvt_ids();
        // Each attribute's PVTs, as ascending indices into `ids`.
        let mut buckets: HashMap<&str, Vec<usize>> = HashMap::new();
        for (k, attrs) in self.adjacency.values().enumerate() {
            for a in attrs {
                buckets.entry(a.as_str()).or_default().push(k);
            }
        }
        let mut seen = vec![usize::MAX; ids.len()];
        let mut later = Vec::new();
        let mut edges = Vec::new();
        for (k, attrs) in self.adjacency.values().enumerate() {
            later.clear();
            for a in attrs {
                let bucket = &buckets[a.as_str()];
                for &j in &bucket[bucket.partition_point(|&j| j <= k)..] {
                    if seen[j] != k {
                        seen[j] = k;
                        later.push(j);
                    }
                }
            }
            later.sort_unstable();
            edges.extend(later.iter().map(|&j| (ids[k], ids[j])));
        }
        edges
    }

    /// Whether two live PVTs share an attribute.
    pub fn dependent(&self, i: usize, j: usize) -> bool {
        match (self.adjacency.get(&i), self.adjacency.get(&j)) {
            (Some(ai), Some(aj)) => ai.iter().any(|a| aj.contains(a)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DependenceKind, Profile};
    use crate::transform::Transform;
    use dp_frame::{CmpOp, Predicate};

    /// Rebuild the paper's Fig 4 graph: Missing(zip_code),
    /// Indep(race, high_expenditure), Selectivity(gender ∧
    /// high_expenditure), Domain(age).
    fn paper_pvts() -> Vec<Pvt> {
        vec![
            Pvt {
                id: 0,
                profile: Profile::Missing {
                    attr: "zip_code".into(),
                    theta: 0.11,
                },
                transform: Transform::Impute {
                    attr: "zip_code".into(),
                    strategy: crate::transform::ImputeStrategy::Mode,
                },
            },
            Pvt {
                id: 1,
                profile: Profile::Indep {
                    a: "race".into(),
                    b: "high_expenditure".into(),
                    alpha: 0.04,
                    kind: DependenceKind::Chi2,
                },
                transform: Transform::BreakDependenceShuffle {
                    a: "race".into(),
                    b: "high_expenditure".into(),
                    alpha: 0.04,
                },
            },
            Pvt {
                id: 2,
                profile: Profile::Selectivity {
                    predicate: Predicate::cmp("gender", CmpOp::Eq, "F").and(Predicate::cmp(
                        "high_expenditure",
                        CmpOp::Eq,
                        "yes",
                    )),
                    theta: 0.44,
                },
                transform: Transform::ResampleSelectivity {
                    predicate: Predicate::cmp("gender", CmpOp::Eq, "F").and(Predicate::cmp(
                        "high_expenditure",
                        CmpOp::Eq,
                        "yes",
                    )),
                    theta: 0.44,
                },
            },
            Pvt {
                id: 3,
                profile: Profile::DomainNumeric {
                    attr: "age".into(),
                    lb: 22.0,
                    ub: 51.0,
                },
                transform: Transform::Winsorize {
                    attr: "age".into(),
                    lb: 22.0,
                    ub: 51.0,
                },
            },
        ]
    }

    #[test]
    fn degrees_match_fig4() {
        let g = PvtAttributeGraph::new(&paper_pvts());
        let deg = g.attribute_degrees();
        // high_expenditure connects to Indep and Selectivity: degree 2.
        assert_eq!(deg["high_expenditure"], 2);
        assert_eq!(deg["zip_code"], 1);
        assert_eq!(deg["race"], 1);
        assert_eq!(deg["gender"], 1);
        assert_eq!(deg["age"], 1);
    }

    #[test]
    fn high_degree_pvts_prioritize_high_expenditure() {
        let g = PvtAttributeGraph::new(&paper_pvts());
        let hda = g.high_degree_pvts();
        assert_eq!(hda, vec![1, 2], "Indep and Selectivity PVTs");
    }

    #[test]
    fn dependency_edges_via_shared_attribute() {
        let g = PvtAttributeGraph::new(&paper_pvts());
        let edges = g.dependency_edges();
        assert_eq!(edges, vec![(1, 2)], "only Indep–Selectivity share an attr");
        assert!(g.dependent(1, 2));
        assert!(!g.dependent(0, 3));
    }

    #[test]
    fn removal_updates_degrees() {
        let mut g = PvtAttributeGraph::new(&paper_pvts());
        g.remove(1);
        assert_eq!(g.len(), 3);
        let deg = g.attribute_degrees();
        assert_eq!(deg["high_expenditure"], 1);
        assert!(!deg.contains_key("race"), "race had only the removed PVT");
        // Ties: now every attribute has degree 1, so all PVTs qualify.
        assert_eq!(g.high_degree_pvts().len(), 3);
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = PvtAttributeGraph::new(&[]);
        assert!(g.is_empty());
        assert!(g.high_degree_pvts().is_empty());
        assert!(g.dependency_edges().is_empty());
    }
}
