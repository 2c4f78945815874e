//! `plan_churn`: one in-process caller cycling eight distinct 5–6 vertex
//! patterns through a `Session` whose plan cache holds two, on the
//! 100-vertex graph, so every query misses the cache and pays
//! `schedule` + `restriction` + `perf_model` planning while matching is
//! microseconds. The same `engine` layer as `serve_warm`, used the other
//! way: working set larger than the cache.
//!
//! Primary operation: one cycle of `Session::count` over the eight
//! patterns. Secondary operation: one cycle of `Session::count_approx`
//! (mode plans: the planner with IEP off). Cycles, not single queries,
//! because planning costs span 0.4–50 ms across the patterns and a
//! per-query median would sit on the boundary between two of them.

use crate::harness::{self, Checks, Outcome, RunCtx, WindowRec};
use crate::inputs::{self, Named};
use crate::json::Value;
use crate::probes;
use crate::reference;
use crate::trace::SpanBuf;
use graphpi_core::engine::{CountOptions, GraphPi, PlanCache, PlanOptions, Session};
use graphpi_core::WorkerPool;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Plans the cache can hold (the cycle needs sixteen).
const CACHE_CAPACITY: usize = 2;
/// Sampling rate of the secondary cycle. The graph has few prefix tasks,
/// so a high rate keeps the estimator's error estimate meaningful.
const SAMPLE_RATE: f64 = 0.5;

struct Ready {
    engine: GraphPi,
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
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

fn setup(ctx: &RunCtx, order: &[Named]) -> Ready {
    let ready = Ready {
        engine: GraphPi::new(ctx.sizing.small_graph.build(ctx.seed)),
        pool: Arc::new(WorkerPool::new(ctx.threads)),
        cache: Arc::new(PlanCache::new(CACHE_CAPACITY)),
    };
    // Ready, as on the serving workloads, means every distinct query has
    // been answered once — which here leaves the cache as cold as it found
    // it, but puts the graph-to-first-answers time in `setup_s`.
    let session = ready.session();
    for (_, pattern) in order {
        session.count(pattern).expect("churn pattern counts");
    }
    drop(session);
    ready
}

/// Runs the workload.
pub fn run(ctx: &RunCtx) -> Outcome {
    let order = inputs::shuffled(&inputs::churn_patterns(), ctx.seed, "churn");
    let (setup_s, ready) = harness::timed_setups(ctx, || setup(ctx, &order), drop);
    let graph = ready.engine.graph();

    // References: the scalar sequential interpreter and the brute-force
    // baseline must agree before anything is timed.
    let mut expected: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, pattern) in &order {
        let plan = ready
            .engine
            .plan(pattern, PlanOptions::default())
            .expect("churn pattern plans");
        let count = reference::reference_count(&plan.plan, graph);
        let naive = reference::naive_count(pattern, graph);
        assert_eq!(count, naive, "references disagree on {name}");
        expected.insert(name, count);
    }

    let session = ready.session();
    let mut checks = Checks::default();
    let mut cycle_index = 0u64;
    // Cache counters as of the last untraced phase: the traced phase looks
    // each mode plan up twice (once for its own span) and the second
    // lookup hits, which is the tracer's doing, not the workload's.
    let mut cache = session.cache_stats();
    let mut cycle_pair = |rec: &mut WindowRec, spans: &mut SpanBuf| {
        let traced = spans.enabled();
        let t = Instant::now();
        let root = spans.root("churn.count_cycle");
        for (name, pattern) in &order {
            let count = if traced {
                // Plan and execute separately, so each gets a span.
                let span = spans.child("session.plan_cached", root);
                let plan = session.plan_cached(pattern);
                spans.close(span);
                let span = spans.child("session.execute_count", root);
                let count = plan.map(|plan| session.execute_count(&plan.plan));
                spans.close(span);
                count
            } else {
                session.count(pattern)
            };
            checks.op(count == Ok(expected[name]), || {
                format!("count({name}) = {count:?}, reference {}", expected[name])
            });
        }
        spans.close(root);
        rec.primary.record(t.elapsed().as_nanos() as u64);

        let sample_seed = ctx.seed ^ cycle_index;
        let t = Instant::now();
        let root = spans.root("churn.approx_cycle");
        for (name, pattern) in &order {
            if traced {
                let span = spans.child("session.mode_plan_cached", root);
                let _ = session.mode_plan_cached(pattern);
                spans.close(span);
            }
            let span = spans.child("session.count_approx", root);
            let approx = session.count_approx(pattern, SAMPLE_RATE, sample_seed);
            spans.close(span);
            // Few prefix tasks on this graph: the band is checked on
            // `batch_match`; here the estimate must only be sane.
            let ok = approx
                .as_ref()
                .is_ok_and(|a| a.estimate.is_finite() && a.estimate >= 0.0 && a.total_tasks > 0);
            checks.op(ok, || format!("count_approx({name}) = {approx:?}"));
        }
        spans.close(root);
        rec.secondary.record(t.elapsed().as_nanos() as u64);
        cycle_index += 1;
        if !traced {
            cache = session.cache_stats();
        }
    };
    let (untraced, traced) = harness::run_phases(ctx, |window_length, windows, spans| {
        harness::run_windows_inline(window_length, windows, spans, &mut cycle_pair)
    });

    // Every query must have missed.
    let hit_ratio = harness::hit_ratio(cache.hits, cache.misses);
    checks.invariant(hit_ratio <= 0.01, || {
        format!(
            "plan_churn hit ratio {hit_ratio} (hits {}, misses {})",
            cache.hits, cache.misses
        )
    });

    let mut layer = harness::LayerMetrics::new();
    if ctx.trace {
        layer = probes::run_all(ctx, &ready.engine, &order, &mut checks);
        probes::insert_cache_stats(&mut layer, cache.hits, cache.misses, cache.evictions);
    }

    let info = vec![
        ("graph_vertices", Value::Number(graph.num_vertices() as f64)),
        ("graph_edges", Value::Number(graph.num_edges() as f64)),
        ("plan_cache_capacity", Value::Number(CACHE_CAPACITY as f64)),
        (
            "cycle",
            Value::String(order.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")),
        ),
        ("cache_hits", Value::Number(cache.hits as f64)),
        ("cache_misses", Value::Number(cache.misses as f64)),
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
