//! Execution engines for compiled plans.
//!
//! * [`interp`] — the sequential nested-loop interpreter (the in-memory
//!   equivalent of the paper's generated C++ code, with the last loop
//!   handed to the sink as a set instead of run).
//! * [`iep`] — embedding counting with the Inclusion-Exclusion Principle
//!   over the innermost independent loops (Section IV-D).
//! * [`parallel`] — multi-threaded execution with fine-grained prefix tasks
//!   and work stealing (the single-node half of Section IV-E).
//! * [`pool`] — a persistent work-stealing worker pool that runs the same
//!   task protocol as [`parallel`] but keeps workers (and their scratch)
//!   alive across jobs: the warm serving path behind
//!   [`crate::engine::Session`].
//! * `setprog` — the hoisted set program every plan is lowered to and
//!   every executor above runs: one intersection per distinct parent set,
//!   computed where its last parent binds, plus the precomputed IEP leaf.
//! * [`sink`] — the [`sink::MatchSink`] abstraction that turns the matcher
//!   into a pipeline: counting, enumeration, per-vertex (orbit) counts and
//!   sampled approximate counting all share the same kernels.

pub mod iep;
pub mod interp;
pub mod parallel;
pub mod pool;
pub(crate) mod setprog;
pub mod sink;
