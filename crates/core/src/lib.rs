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

pub mod codegen;
pub mod config;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod exec;
pub mod net;
pub mod perf_model;
pub mod persist;
pub mod schedule;

pub use config::{Configuration, ExecutionPlan, IepCorrection, PoolOptions, ServeOptions};
pub use dynamic::{DynamicEngine, PinnedEngine};
pub use engine::{
    ApproxCount, CacheStats, CountOptions, GraphPi, Mode, Outcome, Plan, PlanCache, PlanOptions,
    SavedPlanKey, Session, WarmStartReport,
};
pub use error::EngineError;
pub use exec::pool::WorkerPool;
pub use net::{Client, CountExt, NetError, QueryMode, Server, ServerHandle};
pub use perf_model::PerformanceModel;
pub use schedule::Schedule;

/// Convenience prelude for downstream code and examples.
pub mod prelude {
    pub use crate::config::{Configuration, PoolOptions, ServeOptions};
    pub use crate::engine::{
        ApproxCount, CacheStats, CountOptions, GraphPi, Mode, Outcome, Plan, PlanCache,
        PlanOptions, Session,
    };
    pub use crate::error::EngineError;
    pub use crate::exec::pool::WorkerPool;
    pub use crate::net::{Client, CountExt, NetError, QueryMode, Server, ServerHandle};
    pub use crate::perf_model::PerformanceModel;
    pub use crate::schedule::Schedule;
    pub use graphpi_graph::prelude::*;
    pub use graphpi_pattern::{prefab, Pattern};
}
