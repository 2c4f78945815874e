//! Independent references every reported number is gated on.
//!
//! * [`reference_count`] — the plan's loops run by `interp::count_embeddings`
//!   on one thread with the scalar kernels pinned, no hub index and no
//!   IEP: none of the SIMD, hub-bitset, IEP, scoped-thread or pool code the
//!   workloads time.
//! * [`naive_count`] — `graphpi_baseline::naive`, which shares no code
//!   with the planner or the executors (small graphs only).
//! * [`embedding_is_valid`] — checks an enumerated tuple against the
//!   pattern and the graph directly.

use graphpi_core::config::ExecutionPlan;
use graphpi_core::engine::ApproxCount;
use graphpi_core::exec::interp;
use graphpi_graph::{vertex_set, CsrGraph};
use graphpi_pattern::Pattern;

/// Sequential, scalar, hub-free, IEP-free count of `plan` on `graph`.
/// Kernel dispatch is process-global, so call this only while nothing
/// else is matching.
pub fn reference_count(plan: &ExecutionPlan, graph: &CsrGraph) -> u64 {
    vertex_set::set_force_scalar(true);
    let count = interp::count_embeddings(plan, graph);
    vertex_set::set_force_scalar(false);
    count
}

/// Brute-force embedding count (exponential; 100-vertex graphs only).
pub fn naive_count(pattern: &Pattern, graph: &CsrGraph) -> u64 {
    graphpi_baseline::naive::count_embeddings(pattern, graph)
}

/// Whether `embedding` (indexed by pattern vertex) maps `pattern` into
/// `graph`: in range, injective, every pattern edge present.
pub fn embedding_is_valid(pattern: &Pattern, graph: &CsrGraph, embedding: &[u32]) -> bool {
    let n = pattern.num_vertices();
    embedding.len() == n
        && embedding
            .iter()
            .all(|&v| (v as usize) < graph.num_vertices())
        && (0..n).all(|i| (0..i).all(|j| embedding[i] != embedding[j]))
        && pattern
            .edges()
            .all(|(u, v)| graph.has_edge(embedding[u], embedding[v]))
}

/// Whether a sampled estimate is consistent with the exact count and the
/// exact number of prefix tasks, by checks that do not flake.
///
/// A band of k estimated standard errors cannot gate a run: the
/// Horvitz–Thompson estimator is heavy-tailed on hub-heavy graphs (when
/// the sample misses the heaviest tasks the estimate *and* its error
/// estimate are both low), and over 9 000 draws at rate 0.1 on the
/// `batch_match` graph a correct estimator strayed as far as 8.5 estimated
/// standard errors and −60 %/+81 % from the exact count. So the gate is:
/// the task total is exact; the number of sampled tasks is within six
/// binomial standard deviations of `rate × total`; `estimate × rate` is a
/// whole number (it is a sum of exact per-task counts); and the estimate
/// is within a factor of four of the exact count, which any calibration
/// error (a missing or doubled `1/rate`) exceeds.
pub fn estimate_is_consistent(
    approx: &ApproxCount,
    exact: u64,
    rate: f64,
    total_tasks: u64,
) -> bool {
    let expected_sampled = rate * total_tasks as f64;
    let sampled_sigma = (expected_sampled * (1.0 - rate)).sqrt();
    let sum = approx.estimate * rate;
    approx.total_tasks == total_tasks
        && (approx.sampled_tasks as f64 - expected_sampled).abs() <= 6.0 * sampled_sigma + 1.0
        && (sum - sum.round()).abs() <= 1e-6 * sum.max(1.0)
        && approx.estimate >= exact as f64 / 4.0
        && approx.estimate <= exact as f64 * 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpi_core::engine::{GraphPi, PlanOptions};
    use graphpi_graph::generators;
    use graphpi_pattern::prefab;

    #[test]
    fn references_agree_with_each_other_and_the_engine() {
        let graph = generators::power_law(60, 3, 5);
        let engine = GraphPi::new(graph.clone());
        for pattern in [prefab::triangle(), prefab::house(), prefab::p3()] {
            let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
            let reference = reference_count(&plan.plan, &graph);
            assert_eq!(reference, naive_count(&pattern, &graph));
            assert_eq!(reference, engine.count(&pattern).unwrap());
        }
    }

    #[test]
    fn embedding_validation_catches_each_defect() {
        let graph = generators::complete(4);
        let tri = prefab::triangle();
        assert!(embedding_is_valid(&tri, &graph, &[0, 1, 2]));
        assert!(!embedding_is_valid(&tri, &graph, &[0, 1]));
        assert!(!embedding_is_valid(&tri, &graph, &[0, 1, 1]));
        assert!(!embedding_is_valid(&tri, &graph, &[0, 1, 9]));
        let path = generators::path(4);
        assert!(!embedding_is_valid(&tri, &path, &[0, 1, 2]));
    }

    #[test]
    fn estimate_gate_catches_miscalibration_not_noise() {
        let good = ApproxCount {
            estimate: 1_300.0,
            stderr: 10.0,
            sampled_tasks: 95,
            total_tasks: 1_000,
        };
        // 30 standard errors off, but calibrated: passes.
        assert!(estimate_is_consistent(&good, 1_000, 0.1, 1_000));
        // A forgotten 1/rate.
        let uncalibrated = ApproxCount {
            estimate: 130.0,
            ..good
        };
        assert!(!estimate_is_consistent(&uncalibrated, 1_000, 0.1, 1_000));
        // A wrong task total, and a sample twice too large.
        assert!(!estimate_is_consistent(&good, 1_000, 0.1, 999));
        let oversampled = ApproxCount {
            sampled_tasks: 200,
            ..good
        };
        assert!(!estimate_is_consistent(&oversampled, 1_000, 0.1, 1_000));
        // Not a sum of whole counts.
        let fractional = ApproxCount {
            estimate: 1_303.0,
            ..good
        };
        assert!(!estimate_is_consistent(&fractional, 1_000, 0.1, 1_000));
    }
}
