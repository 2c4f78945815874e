//! A Fractal/Arabesque-style breadth-first embedding-expansion baseline.
//!
//! General-purpose graph mining systems (Arabesque, Fractal, RStream)
//! materialise *partial embeddings* level by level: level `i` holds every
//! injective, edge-preserving mapping of the first `i` pattern vertices, and
//! level `i + 1` is produced by extending each of them with one more data
//! vertex. The intermediate data grows combinatorially — the reason the
//! paper's introduction cites terabyte-scale intermediate state for such
//! systems — and no symmetry breaking or schedule optimisation is applied
//! until the final deduplication.
//!
//! This module reproduces that architecture (bounded by an explicit budget
//! so experiments can report "exceeded budget" instead of exhausting
//! memory, mirroring the paper's "T" entries for runs over the time limit).

use graphpi_core::schedule::connected_schedules;
use graphpi_graph::csr::{CsrGraph, VertexId};
use graphpi_pattern::automorphism::automorphism_count;
use graphpi_pattern::pattern::Pattern;

/// Result of an expansion run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpansionOutcome {
    /// The run finished; the value is the number of distinct embeddings.
    Finished(u64),
    /// The number of materialised partial embeddings exceeded the budget at
    /// the given level.
    BudgetExceeded {
        /// Level (number of mapped pattern vertices) at which the run gave up.
        level: usize,
        /// Number of partial embeddings materialised when the budget tripped.
        partials: usize,
    },
}

impl ExpansionOutcome {
    /// The embedding count, if the run finished.
    pub fn count(&self) -> Option<u64> {
        match self {
            ExpansionOutcome::Finished(c) => Some(*c),
            ExpansionOutcome::BudgetExceeded { .. } => None,
        }
    }
}

/// The expansion-style baseline engine.
#[derive(Debug, Clone)]
pub struct ExpansionEngine {
    graph: CsrGraph,
    /// Maximum number of partial embeddings materialised at any level.
    max_partials: usize,
}

impl ExpansionEngine {
    /// Default budget on materialised partial embeddings.
    pub(crate) const DEFAULT_MAX_PARTIALS: usize = 20_000_000;

    /// Wraps a data graph with the default budget.
    pub fn new(graph: CsrGraph) -> Self {
        Self {
            graph,
            max_partials: Self::DEFAULT_MAX_PARTIALS,
        }
    }

    /// Overrides the partial-embedding budget.
    pub fn with_budget(graph: CsrGraph, max_partials: usize) -> Self {
        Self {
            graph,
            max_partials,
        }
    }

    /// Counts embeddings by levelwise expansion.
    pub fn count(&self, pattern: &Pattern) -> ExpansionOutcome {
        let n = pattern.num_vertices();
        if n == 0 {
            return ExpansionOutcome::Finished(0);
        }
        // Expansion systems still need a connected exploration order; use
        // the first connected order (no optimisation — that is the point of
        // the baseline).
        let order = connected_schedules(pattern)
            .into_iter()
            .next()
            .map(|s| s.order().to_vec())
            .unwrap_or_else(|| (0..n).collect());

        // Level 1: every data vertex is a partial embedding of the first
        // pattern vertex.
        let mut partials: Vec<Vec<VertexId>> = self.graph.vertices().map(|v| vec![v]).collect();
        for level in 1..n {
            let mut next: Vec<Vec<VertexId>> = Vec::new();
            let current_pattern_vertex = order[level];
            for partial in &partials {
                'candidates: for candidate in self.graph.vertices() {
                    if partial.contains(&candidate) {
                        continue;
                    }
                    for (i, &mapped) in partial.iter().enumerate() {
                        if pattern.has_edge(current_pattern_vertex, order[i])
                            && !self.graph.has_edge(candidate, mapped)
                        {
                            continue 'candidates;
                        }
                    }
                    next.push({
                        let mut extended = partial.clone();
                        extended.push(candidate);
                        extended
                    });
                    if next.len() > self.max_partials {
                        return ExpansionOutcome::BudgetExceeded {
                            level: level + 1,
                            partials: next.len(),
                        };
                    }
                }
            }
            partials = next;
            if partials.is_empty() {
                break;
            }
        }
        let aut = automorphism_count(pattern) as u64;
        ExpansionOutcome::Finished(partials.len() as u64 / aut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpi_graph::generators;
    use graphpi_pattern::prefab;

    #[test]
    fn matches_naive_ground_truth() {
        let graph = generators::erdos_renyi(30, 120, 14);
        let engine = ExpansionEngine::new(graph.clone());
        for pattern in [prefab::triangle(), prefab::rectangle(), prefab::house()] {
            assert_eq!(
                engine.count(&pattern),
                ExpansionOutcome::Finished(crate::naive::count_embeddings(&pattern, &graph))
            );
        }
    }

    #[test]
    fn budget_trips_on_dense_inputs() {
        let graph = generators::complete(40);
        let engine = ExpansionEngine::with_budget(graph, 10_000);
        match engine.count(&prefab::house()) {
            ExpansionOutcome::BudgetExceeded { level, partials } => {
                assert!(level >= 2);
                assert!(partials > 10_000);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn outcome_accessor() {
        assert_eq!(ExpansionOutcome::Finished(5).count(), Some(5));
        assert_eq!(
            ExpansionOutcome::BudgetExceeded {
                level: 2,
                partials: 10
            }
            .count(),
            None
        );
    }

    #[test]
    fn empty_pattern_counts_zero() {
        let graph = generators::complete(5);
        let engine = ExpansionEngine::new(graph);
        assert_eq!(
            engine.count(&Pattern::empty(0)),
            ExpansionOutcome::Finished(0)
        );
    }
}
