//! Baseline systems rebuilt for comparison with GraphPi.
//!
//! The paper compares against GraphZero (the previous state of the art,
//! itself reproduced by the GraphPi authors because it was not released) and
//! Fractal (a JVM BFS-expansion system). Neither is available here, so this
//! crate rebuilds the *algorithmic content* of both on top of the same
//! substrates:
//!
//! * [`graphzero`] — a nested-loop matcher that uses GraphZero's single
//!   symmetry-breaking restriction set (stabilizer-chain ordering) and its
//!   pattern-only schedule heuristic, with no data-graph-aware performance
//!   model and no IEP counting.
//! * [`expansion`] — a Fractal/Arabesque-style breadth-first embedding
//!   expansion enumerator that materialises partial embeddings level by
//!   level (the architecture whose intermediate-data blow-up motivates
//!   specialised systems).
//! * [`naive`] — a brute-force enumerator over injective mappings, used as
//!   ground truth in tests and experiments.
//!
//! # Entry points
//!
//! [`GraphZeroEngine::count`], [`ExpansionEngine::count`] (budgeted with
//! [`ExpansionEngine::with_budget`]) and [`naive::count_embeddings`] /
//! [`naive::embeddings_sorted`]; [`graphzero::graphzero_restrictions`] and
//! [`graphzero::graphzero_schedule`] expose the two GraphZero choices the
//! Table II bench compares against.

pub mod expansion;
pub mod graphzero;
pub mod naive;

pub use expansion::ExpansionEngine;
pub use graphzero::GraphZeroEngine;
