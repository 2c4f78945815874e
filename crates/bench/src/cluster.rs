//! Simulated multi-node distributed execution (Section IV-E).
//!
//! The paper runs GraphPi on up to 1,024 nodes of Tianhe-2A with an
//! OpenMP/MPI hybrid design: the data graph is replicated on every node, a
//! master partitions the outer loops into fine-grained tasks, every node
//! keeps a task queue, and a communication thread steals tasks from other
//! nodes when its own queue runs low.
//!
//! This reproduction has one machine, so the *distributed* part is
//! reproduced as a discrete-event simulation driven by **measured** task
//! costs: every task (outer-loop prefix) is executed once for real (in
//! parallel, to keep wall-clock reasonable) and its execution time recorded;
//! the scheduler then replays those durations on a simulated cluster of
//! `num_nodes × threads_per_node` workers with per-node queues and
//! inter-node work stealing. The simulated makespan is what the scalability
//! experiment (Figure 12) reports. The algorithmic content — fine-grained
//! task partitioning, per-node queues, steal-when-low — is identical to the
//! paper's; only the transport (MPI) is replaced by the simulator.

use graphpi_core::config::ExecutionPlan;
use graphpi_core::exec::{interp, parallel};
use graphpi_graph::csr::{CsrGraph, VertexId};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration of the simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Number of simulated nodes.
    pub num_nodes: usize,
    /// Worker threads per simulated node (24 in the paper's nodes).
    pub threads_per_node: usize,
    /// Depth of the outer-loop prefix packed into each task.
    pub prefix_depth: Option<usize>,
    /// Number of real threads used to measure task costs (0 = all cores).
    pub measurement_threads: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            num_nodes: 4,
            threads_per_node: 24,
            prefix_depth: None,
            measurement_threads: 0,
        }
    }
}

/// Outcome of a simulated distributed run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Total number of embeddings found (exact, not simulated).
    pub embeddings: u64,
    /// Number of tasks generated from the outer loops.
    pub num_tasks: usize,
    /// Sum of all task costs in seconds (i.e. ideal single-worker time).
    pub total_work_seconds: f64,
    /// Simulated makespan in seconds for the requested cluster size.
    pub makespan_seconds: f64,
    /// Per-node busy time in seconds.
    pub node_busy_seconds: Vec<f64>,
    /// Number of tasks each node executed.
    pub node_task_counts: Vec<usize>,
    /// Number of tasks that were stolen from another node's queue.
    pub steals: usize,
    /// Total simulated workers (`num_nodes * threads_per_node`).
    pub total_workers: usize,
}

impl ClusterReport {
    /// Parallel efficiency: ideal time over (makespan × total workers).
    pub fn efficiency(&self) -> f64 {
        let workers = self.total_workers.max(1) as f64;
        if self.makespan_seconds <= 0.0 {
            1.0
        } else {
            self.total_work_seconds / (self.makespan_seconds * workers)
        }
    }

    /// Load imbalance: max node busy time over mean node busy time.
    pub fn imbalance(&self) -> f64 {
        let mean: f64 =
            self.node_busy_seconds.iter().sum::<f64>() / self.node_busy_seconds.len().max(1) as f64;
        if mean <= 0.0 {
            1.0
        } else {
            self.node_busy_seconds
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
                / mean
        }
    }
}

/// A measured task: the prefix it represents, its embedding count and its
/// measured sequential execution time.
#[derive(Debug, Clone)]
pub struct MeasuredTask {
    /// The outer-loop prefix.
    pub prefix: Vec<VertexId>,
    /// Embeddings contributed by this task.
    pub count: u64,
    /// Measured execution time in seconds.
    pub seconds: f64,
}

/// Executes every task once (in parallel across real threads) and records
/// its cost. The measurement is shared by all simulated cluster sizes so
/// that a whole scaling curve uses one consistent set of task durations.
pub fn measure_tasks(
    plan: &ExecutionPlan,
    graph: &CsrGraph,
    prefix_depth: Option<usize>,
    measurement_threads: usize,
) -> Vec<MeasuredTask> {
    let depth = prefix_depth.unwrap_or_else(|| parallel::default_prefix_depth(plan));
    let depth = depth.clamp(1, plan.num_loops());
    let prefixes = interp::enumerate_prefixes(plan, graph, depth);
    let threads = if measurement_threads > 0 {
        measurement_threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };

    let results: Mutex<Vec<MeasuredTask>> = Mutex::new(Vec::with_capacity(prefixes.len()));
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= prefixes.len() {
                    break;
                }
                let prefix = &prefixes[idx];
                let start = Instant::now();
                let count = if depth == plan.num_loops() {
                    1
                } else {
                    interp::count_from_prefix(plan, graph, prefix)
                };
                let seconds = start.elapsed().as_secs_f64();
                results
                    .lock()
                    .expect("results lock poisoned")
                    .push(MeasuredTask {
                        prefix: prefix.clone(),
                        count,
                        seconds,
                    });
            });
        }
    });
    results.into_inner().expect("results lock poisoned")
}

/// Simulates the distributed execution of a set of measured tasks on a
/// cluster, reproducing the paper's per-node queues with work stealing.
pub fn simulate_schedule(tasks: &[MeasuredTask], options: &ClusterOptions) -> ClusterReport {
    let num_nodes = options.num_nodes.max(1);
    let threads_per_node = options.threads_per_node.max(1);

    // Round-robin initial task distribution over the node queues (the
    // master hands tasks out in outer-loop order).
    let mut queues: Vec<std::collections::VecDeque<usize>> =
        vec![std::collections::VecDeque::new(); num_nodes];
    for (i, _) in tasks.iter().enumerate() {
        queues[i % num_nodes].push_back(i);
    }

    // Discrete-event simulation: every worker is identified by (node, slot)
    // and becomes free at a certain simulated time. A flat vector scan is
    // plenty — the number of workers is small (nodes × threads).
    let mut worker_free_at: Vec<Vec<f64>> = vec![vec![0.0; threads_per_node]; num_nodes];
    let mut node_busy = vec![0.0f64; num_nodes];
    let mut node_tasks = vec![0usize; num_nodes];
    let mut steals = 0usize;
    let mut makespan = 0.0f64;

    // Repeatedly give the earliest-free worker its next task.
    loop {
        // Find the earliest free worker.
        let (mut best_node, mut best_slot) = (0usize, 0usize);
        let mut best_time = f64::INFINITY;
        for (node, slots) in worker_free_at.iter().enumerate() {
            for (slot, &free_at) in slots.iter().enumerate() {
                if free_at < best_time {
                    best_time = free_at;
                    best_node = node;
                    best_slot = slot;
                }
            }
        }
        // Pick a task: own queue first, otherwise steal from the longest
        // remote queue (the paper steals when the local queue runs low; with
        // a task granularity of one this degenerates to steal-when-empty).
        let task_idx = if let Some(idx) = queues[best_node].pop_front() {
            Some(idx)
        } else {
            let victim = (0..num_nodes)
                .filter(|&n| n != best_node && !queues[n].is_empty())
                .max_by_key(|&n| queues[n].len());
            match victim {
                Some(v) => {
                    steals += 1;
                    queues[v].pop_back()
                }
                None => None,
            }
        };
        let Some(task_idx) = task_idx else {
            break; // every queue is empty
        };
        let duration = tasks[task_idx].seconds;
        let finish = best_time + duration;
        worker_free_at[best_node][best_slot] = finish;
        node_busy[best_node] += duration;
        node_tasks[best_node] += 1;
        makespan = makespan.max(finish);
    }

    ClusterReport {
        embeddings: tasks.iter().map(|t| t.count).sum(),
        num_tasks: tasks.len(),
        total_work_seconds: tasks.iter().map(|t| t.seconds).sum(),
        makespan_seconds: makespan,
        node_busy_seconds: node_busy,
        node_task_counts: node_tasks,
        steals,
        total_workers: num_nodes * threads_per_node,
    }
}

/// Measures the tasks once and returns the full report for one cluster size.
pub fn run_cluster(
    plan: &ExecutionPlan,
    graph: &CsrGraph,
    options: ClusterOptions,
) -> ClusterReport {
    let tasks = measure_tasks(
        plan,
        graph,
        options.prefix_depth,
        options.measurement_threads,
    );
    simulate_schedule(&tasks, &options)
}

/// Produces a strong-scaling curve: one simulated makespan per node count,
/// all based on a single task measurement pass (Figure 12).
pub fn strong_scaling(
    plan: &ExecutionPlan,
    graph: &CsrGraph,
    node_counts: &[usize],
    threads_per_node: usize,
    prefix_depth: Option<usize>,
) -> Vec<(usize, ClusterReport)> {
    let tasks = measure_tasks(plan, graph, prefix_depth, 0);
    node_counts
        .iter()
        .map(|&nodes| {
            let options = ClusterOptions {
                num_nodes: nodes,
                threads_per_node,
                prefix_depth,
                measurement_threads: 0,
            };
            (nodes, simulate_schedule(&tasks, &options))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpi_core::config::Configuration;
    use graphpi_core::schedule::efficient_schedules;
    use graphpi_graph::generators;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::{generate_restriction_sets, GenerationOptions};

    fn plan_for(pattern: graphpi_pattern::Pattern) -> ExecutionPlan {
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let schedules = efficient_schedules(&pattern);
        Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile()
    }

    #[test]
    fn cluster_count_is_exact() {
        let g = generators::power_law(250, 5, 3);
        let plan = plan_for(prefab::house());
        let expected = interp::count_embeddings(&plan, &g);
        let report = run_cluster(
            &plan,
            &g,
            ClusterOptions {
                num_nodes: 3,
                threads_per_node: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.embeddings, expected);
        assert!(report.num_tasks > 0);
        assert!(report.makespan_seconds >= 0.0);
        assert_eq!(
            report.node_task_counts.iter().sum::<usize>(),
            report.num_tasks
        );
    }

    #[test]
    fn more_nodes_never_slow_down_the_simulation() {
        let g = generators::power_law(300, 6, 9);
        let plan = plan_for(prefab::triangle());
        let curve = strong_scaling(&plan, &g, &[1, 2, 4, 8], 2, None);
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(
                w[1].1.makespan_seconds <= w[0].1.makespan_seconds * 1.05,
                "scaling must not regress: {} -> {}",
                w[0].1.makespan_seconds,
                w[1].1.makespan_seconds
            );
        }
        // All cluster sizes count the same embeddings.
        let counts: std::collections::BTreeSet<u64> =
            curve.iter().map(|(_, r)| r.embeddings).collect();
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn report_metrics_are_sane() {
        let tasks: Vec<MeasuredTask> = (0..100)
            .map(|i| MeasuredTask {
                prefix: vec![i as u32],
                count: 1,
                seconds: 0.001 * ((i % 7) + 1) as f64,
            })
            .collect();
        let report = simulate_schedule(
            &tasks,
            &ClusterOptions {
                num_nodes: 4,
                threads_per_node: 2,
                prefix_depth: None,
                measurement_threads: 1,
            },
        );
        assert_eq!(report.embeddings, 100);
        assert!(report.efficiency() > 0.0 && report.efficiency() <= 1.0 + 1e-9);
        assert!(report.imbalance() >= 1.0 - 1e-9);
        let total: f64 = tasks.iter().map(|t| t.seconds).sum();
        assert!((report.total_work_seconds - total).abs() < 1e-12);
        // Makespan cannot beat perfect scaling.
        assert!(report.makespan_seconds * 8.0 >= total - 1e-9);
    }

    #[test]
    fn single_node_single_thread_equals_total_work() {
        let tasks: Vec<MeasuredTask> = (0..10)
            .map(|i| MeasuredTask {
                prefix: vec![i as u32],
                count: 0,
                seconds: 0.5,
            })
            .collect();
        let report = simulate_schedule(
            &tasks,
            &ClusterOptions {
                num_nodes: 1,
                threads_per_node: 1,
                prefix_depth: None,
                measurement_threads: 1,
            },
        );
        assert!((report.makespan_seconds - 5.0).abs() < 1e-9);
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn work_stealing_kicks_in_for_skewed_queues() {
        // One giant task followed by many small ones lands on node 0's
        // queue first; other nodes must steal to stay busy.
        let mut tasks = vec![MeasuredTask {
            prefix: vec![0],
            count: 0,
            seconds: 1.0,
        }];
        for i in 1..40 {
            tasks.push(MeasuredTask {
                prefix: vec![i as u32],
                count: 0,
                seconds: 0.01,
            });
        }
        let report = simulate_schedule(
            &tasks,
            &ClusterOptions {
                num_nodes: 4,
                threads_per_node: 1,
                prefix_depth: None,
                measurement_threads: 1,
            },
        );
        assert!(report.steals > 0);
        // The makespan is dominated by the giant task, not by 40 tasks in a
        // row.
        assert!(report.makespan_seconds < 1.2);
    }
}
