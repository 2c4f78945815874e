//! Execution-mode benchmark: the cost of each match sink relative to the
//! pure count path on the same warm session.
//!
//! The count path is the baseline the whole refactor is anchored to — the
//! sink abstraction must monomorphize away, so `modes/count` here is the
//! row to diff against the pre-refactor serving numbers. The other rows
//! price what each mode adds on top of the identical match loop:
//!
//! * `modes/orbit` — one relaxed atomic add per embedding vertex,
//! * `modes/sample` — a per-task hash decision plus a skipped subtree for
//!   every rejected task (rate 0.1, so ~90% of the work is skipped; the
//!   row measures decision overhead against the saved matching),
//! * `modes/enumerate` — materializing full tuples under a budget
//!   (throttled to a fixed page so the row times extraction cost, not an
//!   unbounded result buffer).
//!
//! Before any timing, every mode is cross-checked against the exact count
//! (orbit sums to `pattern_size x count`, rate-1 sampling reproduces the
//! count bit-exactly, an unbounded enumeration has `count` tuples) — a
//! benchmark of a wrong answer is worthless. Results are printed and
//! written to `BENCH_modes.json` as `{op, ns_per_iter, graph, threads}`
//! records, with queries/sec derivable as `1e9 / ns_per_iter`.

use graphpi_bench::{
    banner, scale_from_env, serving_dataset, write_bench_json, BenchRecord, Table,
};
use graphpi_core::config::PoolOptions;
use graphpi_core::engine::{CountOptions, GraphPi, PlanOptions, Session};
use graphpi_pattern::prefab;
use std::time::Instant;

/// Worker threads backing the shared session.
const THREADS: usize = 4;

/// Iterations per timed cell.
const ITERS: usize = 30;

/// Embedding budget of the throttled enumeration row.
const ENUM_LIMIT: u64 = 4096;

/// Sampling rate of the approximate row.
const SAMPLE_RATE: f64 = 0.1;

/// Sampling seed (fixed: the row must time the same work every run).
const SAMPLE_SEED: u64 = 7;

fn time_ns(iters: usize, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Asserts every mode agrees with the exact count before anything is timed.
fn assert_mode_parity(session: &Session<'_>, pattern: &graphpi_pattern::Pattern, exact: u64) {
    let orbit = session.count_per_vertex(pattern).expect("orbit parity");
    assert_eq!(
        orbit.iter().sum::<u64>(),
        pattern.num_vertices() as u64 * exact,
        "orbit counts must sum to pattern_size x count"
    );
    let full = session
        .count_approx(pattern, 1.0, SAMPLE_SEED)
        .expect("sample parity");
    assert_eq!(full.estimate, exact as f64, "rate-1 sampling must be exact");
    assert_eq!(full.stderr, 0.0, "rate-1 sampling must report zero error");
    let embeddings = session
        .enumerate(pattern, u64::MAX)
        .expect("enumerate parity");
    assert_eq!(
        embeddings.len() as u64,
        exact,
        "unbounded enumeration must yield exactly `count` embeddings"
    );
}

fn main() {
    let scale = scale_from_env();
    let dataset = serving_dataset(scale);
    banner(
        "Execution modes: count vs orbit vs sample vs throttled enumerate",
        &format!(
            "{THREADS} pool workers, {ITERS} queries/cell, enumerate limit {ENUM_LIMIT}, \
             sample rate {SAMPLE_RATE}; {}",
            dataset.describe()
        ),
    );
    let engine = GraphPi::new(dataset.graph.clone());
    let session = engine.session_with(
        PoolOptions {
            threads: THREADS,
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        CountOptions {
            threads: THREADS,
            ..CountOptions::default()
        },
    );

    let mut table = Table::new(vec![
        "pattern",
        "count",
        "orbit",
        "sample",
        "enumerate",
        "exact",
        "sampled est",
    ]);
    let mut records: Vec<BenchRecord> = Vec::new();

    for (name, pattern) in [("triangle", prefab::triangle()), ("house", prefab::house())] {
        let exact = session.count(&pattern).expect("exact count");
        assert_mode_parity(&session, &pattern, exact);

        let count_ns = time_ns(ITERS, || {
            session.count(&pattern).unwrap();
        });
        let orbit_ns = time_ns(ITERS, || {
            session.count_per_vertex(&pattern).unwrap();
        });
        let sample_ns = time_ns(ITERS, || {
            session
                .count_approx(&pattern, SAMPLE_RATE, SAMPLE_SEED)
                .unwrap();
        });
        let enum_ns = time_ns(ITERS, || {
            session.enumerate(&pattern, ENUM_LIMIT).unwrap();
        });
        let estimate = session
            .count_approx(&pattern, SAMPLE_RATE, SAMPLE_SEED)
            .unwrap();

        table.row(vec![
            name.to_string(),
            format!("{:.1} us", count_ns / 1e3),
            format!("{:.1} us", orbit_ns / 1e3),
            format!("{:.1} us", sample_ns / 1e3),
            format!("{:.1} us", enum_ns / 1e3),
            format!("{exact}"),
            format!("{:.0} +- {:.0}", estimate.estimate, estimate.stderr),
        ]);
        let graph = dataset.name.to_string();
        for (op, ns) in [
            ("modes/count", count_ns),
            ("modes/orbit", orbit_ns),
            ("modes/sample", sample_ns),
            ("modes/enumerate", enum_ns),
        ] {
            records.push(BenchRecord::new(
                format!("{op}/{name}"),
                ns,
                graph.clone(),
                THREADS,
            ));
        }
    }

    table.print();
    println!(
        "\nall modes cross-checked against the exact count before timing \
         (orbit sum, rate-1 sample, unbounded enumeration)"
    );

    write_bench_json("BENCH_modes.json", &records).expect("write BENCH_modes.json");
}
