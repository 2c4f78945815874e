//! Figure 12: scalability of the distributed design.
//!
//! The paper scales GraphPi to 1,024 nodes (24,576 cores) of Tianhe-2A. This
//! reproduction measures every fine-grained task once on the local machine
//! and replays the measured durations on a simulated cluster with per-node
//! queues and inter-node work stealing (see `graphpi_bench::cluster`),
//! reporting the simulated makespan for the paper's node counts:
//!
//! * (a) P1–P6 on the Orkut stand-in, 1–128 nodes,
//! * (b) P2 and P3 on the Twitter stand-in, 128–1,024 nodes.

use graphpi_bench::cluster::strong_scaling;
use graphpi_bench::{banner, orkut, scale_from_env, twitter, Table};
use graphpi_core::engine::{GraphPi, PlanOptions};
use graphpi_pattern::prefab;

const THREADS_PER_NODE: usize = 24;

fn main() {
    let scale = scale_from_env();

    // Part (a): Orkut, 1..128 nodes, all six patterns.
    let dataset = orkut(scale);
    banner(
        "Figure 12(a) — strong scaling on the Orkut stand-in (simulated cluster)",
        &format!(
            "dataset: {}\n24 simulated worker threads per node; makespans in milliseconds",
            dataset.describe()
        ),
    );
    let engine = GraphPi::new(dataset.graph.clone());
    let node_counts = [1usize, 2, 4, 8, 16, 32, 64, 128];

    let mut table = Table::new(vec![
        "pattern",
        "tasks",
        "1",
        "2",
        "4",
        "8",
        "16",
        "32",
        "64",
        "128",
        "speedup@128",
    ]);
    for (name, pattern) in prefab::evaluation_patterns() {
        let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
        let curve = strong_scaling(
            &plan.plan,
            engine.graph(),
            &node_counts,
            THREADS_PER_NODE,
            None,
        );
        let mut cells = vec![name.to_string(), curve[0].1.num_tasks.to_string()];
        for (_, report) in &curve {
            cells.push(format!("{:.2}", report.makespan_seconds * 1e3));
        }
        let speedup =
            curve[0].1.makespan_seconds / curve.last().unwrap().1.makespan_seconds.max(1e-12);
        cells.push(format!("{speedup:.1}x"));
        table.row(cells);
    }
    println!();
    table.print();

    // Part (b): Twitter, 128..1024 nodes, P2 and P3 only (as in the paper).
    let dataset = twitter(scale);
    banner(
        "Figure 12(b) — strong scaling on the Twitter stand-in (simulated cluster)",
        &format!("dataset: {}", dataset.describe()),
    );
    let engine = GraphPi::new(dataset.graph.clone());
    let node_counts = [128usize, 256, 512, 1024];
    let mut table = Table::new(vec![
        "pattern", "tasks", "128", "256", "512", "1024", "speedup",
    ]);
    for (name, pattern) in [("P2", prefab::p2()), ("P3", prefab::p3())] {
        let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
        let curve = strong_scaling(
            &plan.plan,
            engine.graph(),
            &node_counts,
            THREADS_PER_NODE,
            None,
        );
        let mut cells = vec![name.to_string(), curve[0].1.num_tasks.to_string()];
        for (_, report) in &curve {
            cells.push(format!("{:.3}", report.makespan_seconds * 1e3));
        }
        let speedup =
            curve[0].1.makespan_seconds / curve.last().unwrap().1.makespan_seconds.max(1e-12);
        cells.push(format!("{speedup:.1}x"));
        table.row(cells);
    }
    println!();
    table.print();
    println!("\nNote: with stand-in graphs the per-task work is far smaller than on the");
    println!("paper's full datasets, so the curves flatten earlier (load imbalance from");
    println!("the few heavy hub tasks), mirroring the paper's observation for P2/P3 on Orkut.");
}
