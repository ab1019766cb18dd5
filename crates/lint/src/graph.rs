//! Rule L5 — sanity of the PVT-dependency graph.
//!
//! The dependency graph `G_PD` connects candidates that touch a
//! common attribute (the structure group testing partitions along).
//! This rule checks its shape: self-loops and dangling edges are
//! modeling bugs (`Warn`), while cycles and disconnected components
//! are structural facts worth surfacing (`Info`) — a cycle means the
//! partitioner cannot fully separate the involved candidates, and
//! independent components could be diagnosed separately.

use crate::{Diagnostic, RuleId, Severity};

/// Union–find over node indices `0..n` (path halving; the lower root
/// absorbs the higher, so a component's root is its lowest index).
struct DisjointSet {
    parent: Vec<usize>,
}

impl DisjointSet {
    fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// L5 — graph sanity over the candidate ids and undirected dependency
/// edges. Emitted diagnostics are deterministic: ids and edges are
/// canonicalized before any traversal.
pub fn check_graph(ids: &[usize], edges: &[(usize, usize)]) -> Vec<Diagnostic> {
    let mut nodes = ids.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    let index = |id: usize| nodes.binary_search(&id).ok();
    let mut out = Vec::new();

    // Canonicalize: dedupe undirected edges (as node-index pairs),
    // split off self-loops and edges mentioning unknown candidates.
    let mut canonical: Vec<(usize, usize)> = Vec::with_capacity(edges.len());
    for &(a, b) in edges {
        if a == b {
            out.push(Diagnostic {
                rule: RuleId::GraphSanity,
                severity: Severity::Warn,
                pvt_ids: vec![a],
                attr: None,
                message: format!("candidate {a} has a self-loop in the dependency graph"),
            });
            continue;
        }
        let (Some(ia), Some(ib)) = (index(a), index(b)) else {
            let mut pair = vec![a, b];
            pair.sort_unstable();
            out.push(Diagnostic {
                rule: RuleId::GraphSanity,
                severity: Severity::Warn,
                pvt_ids: pair,
                attr: None,
                message: format!(
                    "dependency edge ({a}, {b}) references a candidate outside the set"
                ),
            });
            continue;
        };
        canonical.push((ia.min(ib), ia.max(ib)));
    }
    canonical.sort_unstable();
    canonical.dedup();

    // Components (keyed by their root, the lowest index) and
    // per-component edge counts.
    let mut dsu = DisjointSet::new(nodes.len());
    for &(a, b) in &canonical {
        dsu.union(a, b);
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut n_edges = vec![0usize; nodes.len()];
    for (i, &id) in nodes.iter().enumerate() {
        members[dsu.find(i)].push(id);
    }
    for &(a, _) in &canonical {
        n_edges[dsu.find(a)] += 1;
    }
    let components = members.iter().filter(|m| !m.is_empty()).count();

    if components > 1 {
        out.push(Diagnostic {
            rule: RuleId::GraphSanity,
            severity: Severity::Info,
            pvt_ids: Vec::new(),
            attr: None,
            message: format!(
                "dependency graph splits into {components} independent components; \
                 they could be diagnosed separately"
            ),
        });
    }

    // An undirected component has a cycle iff it has at least as many
    // edges as nodes (a tree has n − 1).
    for (members, n_edges) in members.into_iter().zip(n_edges) {
        if n_edges >= members.len() && !members.is_empty() {
            let preview: Vec<String> = members.iter().take(8).map(|i| i.to_string()).collect();
            let ellipsis = if members.len() > 8 { ", …" } else { "" };
            out.push(Diagnostic {
                rule: RuleId::GraphSanity,
                severity: Severity::Info,
                pvt_ids: members,
                attr: None,
                message: format!(
                    "candidates {{{}{}}} form a dependency cycle; partitioning cannot \
                     fully separate them",
                    preview.join(", "),
                    ellipsis
                ),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn messages(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.message.as_str()).collect()
    }

    #[test]
    fn l5_clean_tree_emits_nothing() {
        // A path 0—1—2 is a single acyclic component.
        let diags = check_graph(&[0, 1, 2], &[(0, 1), (1, 2)]);
        assert!(diags.is_empty(), "{:?}", messages(&diags));
    }

    #[test]
    fn l5_flags_self_loop() {
        let diags = check_graph(&[0, 1], &[(0, 0), (0, 1)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warn);
        assert!(diags[0].message.contains("self-loop"));
    }

    #[test]
    fn l5_flags_dangling_edge() {
        let diags = check_graph(&[0, 1], &[(0, 7)]);
        // The dangling edge itself, plus the two known nodes now form
        // two singleton components.
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Warn && d.message.contains("outside the set")));
    }

    #[test]
    fn l5_flags_disconnected_components() {
        let diags = check_graph(&[0, 1, 2, 3], &[(0, 1), (2, 3)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.contains("2 independent components"));
    }

    #[test]
    fn l5_flags_cycles() {
        let diags = check_graph(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Info);
        assert_eq!(diags[0].pvt_ids, vec![0, 1, 2]);
        assert!(diags[0].message.contains("dependency cycle"));
    }

    #[test]
    fn l5_duplicate_undirected_edges_do_not_fake_a_cycle() {
        let diags = check_graph(&[0, 1], &[(0, 1), (1, 0)]);
        assert!(diags.is_empty(), "{:?}", messages(&diags));
    }

    #[test]
    fn l5_empty_graph_is_clean() {
        assert!(check_graph(&[], &[]).is_empty());
    }
}
