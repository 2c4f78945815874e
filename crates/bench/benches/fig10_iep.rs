//! Figure 10: counting embeddings with and without the Inclusion-Exclusion
//! Principle.
//!
//! Both runs use the same configuration selected by GraphPi's performance
//! model (so the comparison isolates the IEP optimisation, exactly as in the
//! paper) and run sequentially.

use graphpi_bench::{banner, bench_datasets, measure, scale_from_env, secs, Table};
use graphpi_core::engine::{CountOptions, GraphPi, PlanOptions};
use graphpi_pattern::prefab;

fn main() {
    let scale = scale_from_env();
    let datasets = bench_datasets(scale);
    banner(
        "Figure 10 — counting with vs without the Inclusion-Exclusion Principle",
        "same model-selected configuration for both runs; sequential execution",
    );

    let patterns = prefab::evaluation_patterns();
    let mut table = Table::new(vec![
        "graph",
        "pattern",
        "k",
        "count",
        "no-IEP(s)",
        "IEP(s)",
        "speedup",
    ]);
    let mut per_pattern_speedups: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();

    for dataset in &datasets {
        let engine = GraphPi::new(dataset.graph.clone());
        for (name, pattern) in &patterns {
            let plan = engine.plan(pattern, PlanOptions::default()).unwrap();
            let (without, t_without) = measure(|| {
                engine.execute_count(&plan.plan, CountOptions::sequential_enumeration())
            });
            let (with_iep, t_with) = measure(|| {
                engine.execute_count(
                    &plan.plan,
                    CountOptions {
                        use_iep: true,
                        threads: 1,
                        hub_bitsets: false,
                        ..CountOptions::default()
                    },
                )
            });
            assert_eq!(without, with_iep, "IEP mismatch on {name}/{}", dataset.name);
            let speedup = t_without.as_secs_f64() / t_with.as_secs_f64().max(1e-9);
            per_pattern_speedups.entry(name).or_default().push(speedup);
            table.row(vec![
                dataset.name.to_string(),
                name.to_string(),
                plan.plan.iep_suffix_len.to_string(),
                without.to_string(),
                secs(t_without),
                secs(t_with),
                format!("{speedup:.1}x"),
            ]);
        }
    }
    println!();
    table.print();

    println!("\nAverage IEP speedup per pattern (paper reports 4.3x / 457.8x / 320.5x / 265.5x / 11.1x / 10.1x):");
    for (name, speedups) in per_pattern_speedups {
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        println!("  {name}: {avg:.1}x");
    }
}
