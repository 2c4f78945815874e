//! `batch_match`: the paper's regime, in process. A count pass runs the
//! scoped parallel executor with IEP over P1/P3/P4/P5 on the hub layout;
//! a modes pass drives the same interpreter through the pool's
//! materialising sinks — per-vertex counts of P1, then bounded
//! enumeration and a sampled estimate of P1/P4/P6. Planning happens in set-up, so kernels,
//! `interp`, `iep`, `parallel` and the sinks do nearly all timed work.
//!
//! Primary operation: one count pass. Secondary operation: one modes pass.

use crate::harness::{self, Checks, Outcome, RunCtx, WindowRec};
use crate::inputs::{self, Named};
use crate::json::Value;
use crate::probes;
use crate::reference;
use crate::trace::SpanBuf;
use graphpi_core::engine::{CountOptions, GraphPi, Plan, PlanCache, PlanOptions, Session};
use graphpi_core::exec::{interp, parallel};
use graphpi_core::WorkerPool;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Distinct sample seeds a run cycles through.
const SAMPLE_SEEDS: u64 = 4;
/// The one pattern whose per-vertex counts the modes pass takes. The
/// per-vertex sink costs ~6× a plain count of the same plan here
/// (`sink.orbit_over_count`), so taking it on all three mode patterns
/// would make the pass 0.6 s and leave a 15 s phase with ~20 samples.
const ORBIT_PATTERN: &str = "P1";

struct Ready {
    engine: GraphPi,
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
    count_plans: Vec<Arc<Plan>>,
    mode_plans: Vec<Arc<Plan>>,
}

impl Ready {
    fn session(&self) -> Session<'_> {
        self.engine.session_shared(
            Arc::clone(&self.pool),
            Arc::clone(&self.cache),
            PlanOptions::default(),
            CountOptions::default(),
        )
    }
}

fn setup(ctx: &RunCtx, count_order: &[Named], mode_order: &[Named]) -> Ready {
    let engine = GraphPi::new(ctx.sizing.batch_graph.build(ctx.seed));
    engine.hub_index();
    let pool = Arc::new(WorkerPool::new(ctx.threads));
    let cache = Arc::new(PlanCache::new(64));
    let mut ready = Ready {
        engine,
        pool,
        cache,
        count_plans: Vec::new(),
        mode_plans: Vec::new(),
    };
    let session = ready.session();
    let count_plans = count_order
        .iter()
        .map(|(_, p)| session.plan_cached(p).expect("evaluation pattern plans"))
        .collect();
    let mode_plans = mode_order
        .iter()
        .map(|(_, p)| {
            session
                .mode_plan_cached(p)
                .expect("evaluation pattern plans")
        })
        .collect();
    drop(session);
    ready.count_plans = count_plans;
    ready.mode_plans = mode_plans;
    ready
}

/// Runs the workload.
pub fn run(ctx: &RunCtx) -> Outcome {
    let count_patterns = inputs::batch_count_patterns(ctx.sizing.cheap_patterns_only);
    let count_order = inputs::shuffled(&count_patterns, ctx.seed, "batch-count");
    let mode_order = inputs::shuffled(&inputs::batch_mode_patterns(), ctx.seed, "batch-modes");
    let (setup_s, ready) =
        harness::timed_setups(ctx, || setup(ctx, &count_order, &mode_order), drop);
    let graph = ready.engine.graph();
    let limit = ctx.sizing.enumerate_limit;
    let rate = ctx.sizing.sample_rate;

    // References first: nothing below is reported unless these hold.
    let mut expected: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ((name, _), plan) in count_order.iter().zip(&ready.count_plans) {
        expected.insert(name, reference::reference_count(&plan.plan, graph));
    }
    // Prefix tasks each mode query must decompose into (exact).
    let mut expected_tasks: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ((name, _), plan) in mode_order.iter().zip(&ready.mode_plans) {
        let count = reference::reference_count(&plan.plan, graph);
        let earlier = *expected.entry(name).or_insert(count);
        assert_eq!(
            earlier, count,
            "count and mode plans of {name} disagree in the reference"
        );
        let depth = parallel::default_prefix_depth(&plan.plan);
        let tasks = interp::enumerate_prefixes(&plan.plan, graph, depth).len();
        expected_tasks.insert(name, tasks as u64);
    }

    let count_options = CountOptions {
        threads: ctx.threads,
        hub_bitsets: true,
        ..CountOptions::default()
    };
    let session = ready.session();
    let mut checks = Checks::default();
    let mut first_estimates: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    let mut pass_index = 0u64;

    let mut pass_pair = |rec: &mut WindowRec, spans: &mut SpanBuf| {
        // Count pass.
        let t = Instant::now();
        let root = spans.root("batch.count_pass");
        for ((name, _), plan) in count_order.iter().zip(&ready.count_plans) {
            let span = spans.child("engine.execute_count", root);
            let count = ready.engine.execute_count(&plan.plan, count_options);
            spans.close(span);
            checks.op(count == expected[name], || {
                format!("count({name}) = {count}, reference {}", expected[name])
            });
        }
        spans.close(root);
        rec.primary.record(t.elapsed().as_nanos() as u64);

        // Modes pass.
        let sample_seed = ctx
            .seed
            .wrapping_mul(31)
            .wrapping_add(pass_index % SAMPLE_SEEDS);
        let t = Instant::now();
        let root = spans.root("batch.modes_pass");
        for (name, pattern) in &mode_order {
            let exact = expected[name];

            if *name == ORBIT_PATTERN {
                let size = pattern.num_vertices() as u64;
                let span = spans.child("session.count_per_vertex", root);
                let orbits = session.count_per_vertex(pattern);
                spans.close(span);
                let orbit_sum = orbits.as_ref().map(|o| o.iter().sum::<u64>());
                checks.op(orbit_sum == Ok(exact * size), || {
                    format!(
                        "orbit sum({name}) = {orbit_sum:?}, reference {}",
                        exact * size
                    )
                });
            }

            let span = spans.child("session.enumerate", root);
            let page = session.enumerate(pattern, limit);
            spans.close(span);
            let page_ok = page.as_ref().is_ok_and(|page| {
                page.len() as u64 == exact.min(limit)
                    && page
                        .first()
                        .is_none_or(|e| reference::embedding_is_valid(pattern, graph, e))
                    && page
                        .last()
                        .is_none_or(|e| reference::embedding_is_valid(pattern, graph, e))
            });
            checks.op(page_ok, || {
                format!(
                    "enumerate({name}, {limit}) returned {:?} embeddings, reference {}",
                    page.as_ref().map(Vec::len),
                    exact.min(limit)
                )
            });

            let span = spans.child("session.count_approx", root);
            let approx = session.count_approx(pattern, rate, sample_seed);
            spans.close(span);
            // One seed, one sample: the estimate may not depend on
            // scheduling, so it must repeat bit for bit.
            let approx_ok = approx.as_ref().is_ok_and(|a| {
                let first = *first_estimates
                    .entry((name, sample_seed))
                    .or_insert(a.estimate.to_bits());
                first == a.estimate.to_bits()
                    && reference::estimate_is_consistent(a, exact, rate, expected_tasks[name])
            });
            checks.op(approx_ok, || {
                format!("count_approx({name}, seed {sample_seed}) = {approx:?}, exact {exact}")
            });
        }
        spans.close(root);
        rec.secondary.record(t.elapsed().as_nanos() as u64);
        pass_index += 1;
    };
    let (untraced, traced) = harness::run_phases(ctx, |window_length, windows, spans| {
        harness::run_windows_inline(window_length, windows, spans, &mut pass_pair)
    });

    let cache = session.cache_stats();
    let mut layer = harness::LayerMetrics::new();
    if ctx.trace {
        // Every pattern either pass touches, once (the passes share P1, P4).
        let mut all = count_order.clone();
        for named in &mode_order {
            if !all.iter().any(|(name, _)| *name == named.0) {
                all.push(named.clone());
            }
        }
        layer = probes::run_all(ctx, &ready.engine, &all, &mut checks);
        probes::insert_cache_stats(&mut layer, cache.hits, cache.misses, cache.evictions);
    }

    let info = vec![
        ("graph_vertices", Value::Number(graph.num_vertices() as f64)),
        ("graph_edges", Value::Number(graph.num_edges() as f64)),
        (
            "count_pass",
            Value::String(format!(
                "GraphPi::execute_count, {} scoped threads, IEP on, hub bitsets on: {}",
                ctx.threads,
                names(&count_order)
            )),
        ),
        (
            "modes_pass",
            Value::String(format!(
                "Session::count_per_vertex({ORBIT_PATTERN}), then Session::{{enumerate(limit {limit}), count_approx(rate {rate})}}: {}",
                names(&mode_order)
            )),
        ),
        (
            "reference_counts",
            Value::Object(
                expected
                    .iter()
                    .map(|(name, count)| (name.to_string(), Value::Number(*count as f64)))
                    .collect(),
            ),
        ),
    ];
    Outcome {
        checks,
        setup_s,
        untraced,
        traced,
        layer,
        info,
    }
}

fn names(patterns: &[Named]) -> String {
    patterns
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(" ")
}
