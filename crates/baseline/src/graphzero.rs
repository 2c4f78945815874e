//! A reproduction of GraphZero, the baseline system of the paper.
//!
//! GraphZero (Mawhirter et al.) breaks pattern symmetry with a **single**
//! restriction set derived from the automorphism group via the classic
//! stabilizer-chain ordering (pin the smallest moved vertex, add `id(v) <
//! id(σ(v))` for every automorphism moving it, recurse into the stabilizer),
//! and selects its schedule from the pattern alone — without the data-graph
//! statistics GraphPi's performance model uses, and without IEP counting.
//! Those two gaps are exactly what the paper's breakdown experiments
//! (Table II and Figure 9) quantify, so this module reproduces them
//! faithfully:
//!
//! * [`graphzero_restrictions`] — the single restriction set.
//! * [`graphzero_schedule`] — a pattern-only, degree-greedy connected order.
//! * [`GraphZeroEngine`] — the end-to-end baseline matcher (same CSR
//!   substrate and interpreter as GraphPi, so measured differences come from
//!   the configuration choice, not from implementation details).

use graphpi_core::config::Configuration;
use graphpi_core::exec::interp;
use graphpi_core::schedule::Schedule;
use graphpi_graph::csr::CsrGraph;
use graphpi_pattern::automorphism::automorphism_group;
use graphpi_pattern::pattern::Pattern;
use graphpi_pattern::restriction::{Restriction, RestrictionSet};

/// GraphZero's single symmetry-breaking restriction set.
///
/// Implements the stabilizer-chain ordering of Grochow & Kellis that
/// GraphZero adopts: process pattern vertices in index order; whenever the
/// remaining automorphism subgroup moves the current vertex `v`, emit
/// `id(σ(v)) > id(v)` for every such image and shrink the subgroup to the
/// stabilizer of `v`.
pub fn graphzero_restrictions(pattern: &Pattern) -> RestrictionSet {
    let mut group = automorphism_group(pattern);
    let mut set = RestrictionSet::empty();
    for v in 0..pattern.num_vertices() {
        if group.len() <= 1 {
            break;
        }
        let images: std::collections::BTreeSet<usize> = group
            .iter()
            .map(|sigma| sigma.apply(v))
            .filter(|&img| img != v)
            .collect();
        for img in images {
            set.push(Restriction::new(img, v));
        }
        group.retain(|sigma| sigma.apply(v) == v);
    }
    set
}

/// GraphZero's schedule heuristic: start from a highest-degree pattern
/// vertex and greedily append the vertex with the most already-scheduled
/// neighbors (ties broken by higher pattern degree, then by index). This
/// keeps every prefix connected but ignores the data graph entirely.
pub fn graphzero_schedule(pattern: &Pattern) -> Schedule {
    let n = pattern.num_vertices();
    assert!(n > 0, "cannot schedule an empty pattern");
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];

    let first = (0..n)
        .max_by_key(|&v| (pattern.degree(v), std::cmp::Reverse(v)))
        .unwrap();
    order.push(first);
    used[first] = true;

    while order.len() < n {
        let next = (0..n)
            .filter(|&v| !used[v])
            .max_by_key(|&v| {
                let connected = order.iter().filter(|&&u| pattern.has_edge(u, v)).count();
                (connected, pattern.degree(v), std::cmp::Reverse(v))
            })
            .unwrap();
        order.push(next);
        used[next] = true;
    }
    Schedule::new(pattern, order)
}

/// The end-to-end GraphZero baseline bound to one data graph.
#[derive(Debug, Clone)]
pub struct GraphZeroEngine {
    graph: CsrGraph,
}

impl GraphZeroEngine {
    /// Wraps a data graph (GraphZero performs no graph-dependent
    /// preprocessing).
    pub fn new(graph: CsrGraph) -> Self {
        Self { graph }
    }

    /// The configuration GraphZero would run for this pattern.
    pub(crate) fn configuration(&self, pattern: &Pattern) -> Configuration {
        Configuration::new(
            pattern.clone(),
            graphzero_schedule(pattern),
            graphzero_restrictions(pattern),
        )
    }

    /// Counts all embeddings of `pattern` (always by enumeration — GraphZero
    /// has no IEP optimization).
    pub fn count(&self, pattern: &Pattern) -> u64 {
        let plan = self.configuration(pattern).compile();
        interp::count_embeddings(&plan, &self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpi_core::engine::{CountOptions, GraphPi, PlanOptions};
    use graphpi_graph::generators;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::validate;

    #[test]
    fn restriction_set_is_complete_for_every_evaluation_pattern() {
        for (name, pattern) in prefab::evaluation_patterns() {
            let set = graphzero_restrictions(&pattern);
            assert!(validate(&pattern, &set), "{name}: {set:?}");
        }
        for n in 3..7usize {
            let clique = prefab::clique(n);
            assert!(validate(&clique, &graphzero_restrictions(&clique)), "K{n}");
        }
    }

    #[test]
    fn asymmetric_patterns_need_no_restrictions() {
        let p = Pattern::new(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (4, 5)]);
        assert!(graphzero_restrictions(&p).is_empty());
    }

    #[test]
    fn schedule_is_connected_and_starts_at_max_degree() {
        for (name, pattern) in prefab::evaluation_patterns() {
            let schedule = graphzero_schedule(&pattern);
            assert!(schedule.prefixes_connected(&pattern), "{name}");
            let first = schedule.order()[0];
            let max_degree = (0..pattern.num_vertices())
                .map(|v| pattern.degree(v))
                .max()
                .unwrap();
            assert_eq!(pattern.degree(first), max_degree, "{name}");
        }
    }

    #[test]
    fn counts_agree_with_graphpi() {
        let graph = generators::power_law(300, 5, 50);
        let graphzero = GraphZeroEngine::new(graph.clone());
        let graphpi = GraphPi::new(graph);
        for (name, pattern) in prefab::evaluation_patterns().into_iter().take(4) {
            let a = graphzero.count(&pattern);
            let b = graphpi
                .count_with(
                    &pattern,
                    PlanOptions::default(),
                    CountOptions::sequential_enumeration(),
                )
                .unwrap();
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn counts_agree_with_naive_ground_truth() {
        let graph = generators::erdos_renyi(35, 150, 23);
        let graphzero = GraphZeroEngine::new(graph.clone());
        for pattern in [prefab::triangle(), prefab::rectangle(), prefab::house()] {
            assert_eq!(
                graphzero.count(&pattern),
                crate::naive::count_embeddings(&pattern, &graph)
            );
        }
    }
}
