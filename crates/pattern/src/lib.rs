//! Pattern-side machinery of the GraphPi reproduction.
//!
//! A *pattern* is the small template graph whose embeddings we enumerate in
//! a data graph. This crate contains:
//!
//! * [`Pattern`] — adjacency-matrix representation of a small undirected
//!   pattern, plus structural queries (connectivity, independent sets, …).
//! * [`permutation`] — permutations of pattern vertices, their cycle
//!   decomposition, and the distinction between 1-cycles and 2-cycles that
//!   drives GraphPi's restriction generation (Section IV-A).
//! * [`automorphism`] — enumeration of the automorphism group of a pattern.
//! * [`orders`] — the `n!` relative id-orders of a pattern's vertices as
//!   bitsets, the one table restriction validation, the cost model's filter
//!   probabilities and the IEP correction are all read from.
//! * [`restriction`] — the 2-cycle based automorphism-elimination algorithm
//!   (Algorithm 1 in the paper): it produces *multiple* complete restriction
//!   sets, each of which reduces every embedding's automorphism count to one.
//! * [`prefab`] — named patterns: the worked examples of the paper
//!   (Rectangle, House, Cycle-6-Tri), cliques, cycles, stars, the connected
//!   3- and 4-vertex motifs, and the six evaluation patterns P1–P6.
//!
//! # Entry points
//!
//! `pub` here means "named from outside this crate"; the rest is
//! `pub(crate)`. Build a [`Pattern`] with [`Pattern::new`],
//! [`Pattern::try_from_adjacency_string`] or a [`prefab`] function; get its
//! symmetries from [`automorphism_group`]; get its complete restriction
//! sets from [`restriction::generate_restriction_sets`] and check one with
//! [`restriction::validate`]. The planner reads id-orders through
//! [`orders::OrderTable::for_size`].

pub mod automorphism;
pub mod orders;
pub mod pattern;
pub mod permutation;
pub mod prefab;
pub mod restriction;

pub use automorphism::automorphism_group;
pub use pattern::Pattern;
