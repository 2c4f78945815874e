//! GraphPi core: high-performance graph pattern matching through effective
//! redundancy elimination.
//!
//! This crate is the primary contribution of the reproduction: it combines
//! the substrates ([`graphpi_graph`] for the data-graph side and
//! [`graphpi_pattern`] for patterns, automorphisms and restriction sets)
//! into the full GraphPi pipeline of the paper:
//!
//! 1. **Schedule generation** ([`schedule`]) — the 2-phase computation-avoid
//!    generator keeps only vertex orders whose prefixes stay connected and
//!    whose suffix is an independent set.
//! 2. **Configuration generation** ([`config`]) — schedules are combined
//!    with the restriction sets produced by the 2-cycle automorphism
//!    elimination algorithm and compiled into executable loop nests.
//! 3. **Performance prediction** ([`perf_model`]) — a cost model driven by
//!    `|V|`, `|E|` and the triangle count ranks every configuration and the
//!    best one is selected.
//! 4. **Execution** ([`exec`]) — sequential and multi-threaded
//!    (work-stealing) executors, plus Inclusion-Exclusion-Principle
//!    counting when only the number of embeddings is needed.
//! 5. **Code generation** ([`codegen`]) — renders the selected plan as the
//!    nested-loop source text the original system would have compiled.
//!
//! # Quick start
//!
//! ```
//! use graphpi_core::engine::GraphPi;
//! use graphpi_graph::generators;
//! use graphpi_pattern::prefab;
//!
//! // A synthetic power-law data graph and the paper's House pattern.
//! let graph = generators::power_law(500, 6, 42);
//! let engine = GraphPi::new(graph);
//! let houses = engine.count(&prefab::house()).unwrap();
//! assert!(houses > 0);
//! ```
//!
//! # Entry points
//!
//! `pub` here means "named from outside this crate" (the two binaries, the
//! tests, the benches, the examples or the perf ledger); the rest is
//! `pub(crate)`, so the `dead_code` lint sees it.
//!
//! * **Plan and count**: [`engine::GraphPi`] (`plan`, `count`,
//!   `execute_count`), or a long-lived [`engine::Session`] whose
//!   [`engine::Session::run`] serves all four [`engine::Mode`]s from a
//!   [`WorkerPool`] and a [`engine::PlanCache`].
//! * **Executors**, one entry point each, over a `&CsrGraph` or that graph
//!   paired with its prebuilt hub rows, `(&CsrGraph, &HubGraph)`
//!   ([`exec::interp::ExecCtx`] is built `From` either; the pair is checked):
//!   [`exec::interp::count_embeddings`],
//!   [`exec::iep::count_embeddings_iep`],
//!   [`exec::parallel::count_parallel`] and [`WorkerPool::count`]; prefix
//!   tasks through [`exec::interp::enumerate_prefixes`],
//!   [`exec::interp::count_from_prefix`] and [`exec::iep::iep_term`].
//! * **Planner pieces** the benches and examples rank by hand:
//!   [`schedule::efficient_schedules`], [`config::Configuration`],
//!   [`perf_model::PerformanceModel`].
//! * **Dynamic graphs**: [`DynamicEngine`] (`volatile` / `durable`,
//!   `apply`, `pin`, `compact`).
//! * **Serving**: [`Server`] and [`net::Client`] (one connection, or a
//!   [`net::RetryPolicy`] over one or more endpoints) over the
//!   [`net::protocol`] codec.

pub mod codegen;
pub mod config;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod exec;
pub mod net;
pub mod perf_model;
pub mod schedule;

pub use config::PoolOptions;
pub use dynamic::DynamicEngine;
pub use error::EngineError;
pub use exec::pool::WorkerPool;
pub use net::{Server, ServerHandle};
pub use schedule::Schedule;
