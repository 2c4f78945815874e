//! Figure 8 + Table I: overall single-node performance of GraphPi vs the
//! GraphZero and Fractal-style baselines for the six evaluation patterns on
//! the five comparison datasets.
//!
//! As in the paper, GraphPi runs with its selected configuration but without
//! IEP (the comparison isolates the configuration quality), GraphZero runs
//! with its single restriction set and pattern-only schedule, and the
//! expansion baseline reproduces Fractal's levelwise architecture. Entries
//! marked `T` exceeded the expansion budget (the paper marks >48h runs the
//! same way); `-` marks combinations skipped to keep the harness fast, as
//! the paper skips Fractal on Orkut.

use graphpi_baseline::expansion::{ExpansionEngine, ExpansionOutcome};
use graphpi_baseline::GraphZeroEngine;
use graphpi_bench::{banner, bench_datasets, measure, scale_from_env, secs, Table};
use graphpi_core::engine::{CountOptions, GraphPi, PlanOptions};
use graphpi_pattern::prefab;

fn main() {
    let scale = scale_from_env();
    let datasets = bench_datasets(scale);
    banner(
        "Figure 8 / Table I — overall performance (single node, no IEP)",
        "times in seconds; speedup is GraphPi vs baseline on the same workload",
    );

    println!("\nTable I — dataset stand-ins:");
    for d in &datasets {
        println!("  {}", d.describe());
    }

    let patterns = prefab::evaluation_patterns();
    let mut table = Table::new(vec![
        "graph",
        "pattern",
        "embeddings",
        "GraphPi(s)",
        "GraphZero(s)",
        "Fractal-like(s)",
        "vs GZ",
        "vs Fractal",
    ]);

    for dataset in &datasets {
        let graphpi = GraphPi::new(dataset.graph.clone());
        let graphzero = GraphZeroEngine::new(dataset.graph.clone());
        // Mirror the paper: the expansion baseline is only run where its
        // intermediate data stays manageable (the paper likewise omits
        // Fractal on Orkut).
        let run_expansion = dataset.graph.num_vertices() <= 700;
        let expansion = ExpansionEngine::with_budget(dataset.graph.clone(), 200_000);

        for (name, pattern) in &patterns {
            let plan = graphpi
                .plan(pattern, PlanOptions::default())
                .expect("evaluation patterns always plan");
            let (count, pi_time) = measure(|| {
                graphpi.execute_count(&plan.plan, CountOptions::sequential_enumeration())
            });
            let (gz_count, gz_time) = measure(|| graphzero.count(pattern));
            assert_eq!(count, gz_count, "count mismatch on {name}/{}", dataset.name);

            let (fractal_cell, fractal_speedup) = if run_expansion {
                let (outcome, fr_time) = measure(|| expansion.count(pattern));
                match outcome {
                    ExpansionOutcome::Finished(c) => {
                        assert_eq!(c, count, "expansion mismatch on {name}/{}", dataset.name);
                        (
                            secs(fr_time),
                            format!(
                                "{:.1}x",
                                fr_time.as_secs_f64() / pi_time.as_secs_f64().max(1e-9)
                            ),
                        )
                    }
                    ExpansionOutcome::BudgetExceeded { .. } => ("T".to_string(), ">T".to_string()),
                }
            } else {
                ("-".to_string(), "-".to_string())
            };

            table.row(vec![
                dataset.name.to_string(),
                name.to_string(),
                count.to_string(),
                secs(pi_time),
                secs(gz_time),
                fractal_cell,
                format!(
                    "{:.1}x",
                    gz_time.as_secs_f64() / pi_time.as_secs_f64().max(1e-9)
                ),
                fractal_speedup,
            ]);
        }
    }
    println!();
    table.print();
}
