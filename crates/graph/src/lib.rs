//! Graph substrate for the GraphPi reproduction.
//!
//! This crate provides everything the pattern-matching engine needs from the
//! *data graph* side:
//!
//! * [`CsrGraph`] — an immutable, undirected, unlabeled graph stored in
//!   compressed sparse row (CSR) form with sorted adjacency lists, exactly as
//!   described in Section IV-E of the paper.
//! * [`GraphBuilder`] — turns an arbitrary edge list (possibly with
//!   duplicates, self loops, or unordered endpoints) into a [`CsrGraph`].
//! * [`vertex_set`] — the sorted-set algebra (merge intersection, galloping
//!   intersection, subtraction) that dominates the cost of nested-loop
//!   pattern matching.
//! * [`hub`] — hub acceleration: bitset adjacency rows for the top-k
//!   high-degree core, indexed by the graph's own vertex ids, turning
//!   intersections against hubs into bit probes and word-AND popcounts.
//! * [`generators`] — seeded synthetic graph generators (Erdős–Rényi,
//!   power-law preferential attachment, complete graphs, …) used as
//!   stand-ins for the paper's real-world datasets.
//! * [`triangles`] and [`stats`] — the structural statistics (`|V|`, `|E|`,
//!   triangle count, `p1`, `p2`) consumed by GraphPi's performance model.
//! * [`io`] — plain-text edge-list and compact binary loading/saving.
//! * [`delta`] and [`wal`] — the dynamic-graph layer: batch-applied edge
//!   overlays with generation-based snapshots, made durable by a
//!   checksummed write-ahead log with checkpoint + replay recovery.
//!
//! # Entry points
//!
//! `pub` here means "named from outside this crate" (the engine, the
//! binaries, the tests, the benches or the perf ledger); everything else is
//! `pub(crate)`, so the `dead_code` lint sees it. Build a graph with
//! [`GraphBuilder`], [`builder::from_edges`] or a [`generators`] function;
//! load and save one with [`io::load_edge_list`], [`io::save_binary`] and
//! [`io::load_binary_mmap`] (one text parser; the checksummed binary + mmap
//! path is the fast ingest); read it through [`CsrGraph`] and the
//! [`vertex_set`] kernels ([`vertex_set::intersect_into`],
//! [`vertex_set::intersect_count`], [`vertex_set::subtract_into`]); index
//! its hubs with a [`HubGraph`]; summarise it with
//! [`GraphStats::compute`]; mutate it through [`delta::DynamicGraph`] or,
//! durably, [`wal::DurableGraph`]. One crate-private byte-wise FNV-1a
//! (`io::fnv1a`) checksums the WAL and fingerprints [`GraphStats`].

pub mod builder;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod hub;
pub mod io;
mod mmap;
pub mod stats;
pub mod triangles;
pub mod vertex_set;
pub mod wal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::EdgeBatch;
pub use hub::{HubGraph, HubOptions};
pub use stats::GraphStats;
pub use wal::DurableGraphOptions;
