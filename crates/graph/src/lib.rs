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
//! * [`hub`] — hub acceleration: degree-descending relabeling plus bitset
//!   adjacency rows for the top-k high-degree core, turning intersections
//!   against hubs into word-AND popcounts.
//! * [`generators`] — seeded synthetic graph generators (Erdős–Rényi,
//!   power-law preferential attachment, complete graphs, …) used as
//!   stand-ins for the paper's real-world datasets.
//! * [`triangles`] and [`stats`] — the structural statistics (`|V|`, `|E|`,
//!   triangle count, `p1`, `p2`) consumed by GraphPi's performance model.
//! * [`io`] — plain-text edge-list and compact binary loading/saving.
//! * [`delta`] and [`wal`] — the dynamic-graph layer: batch-applied edge
//!   overlays with generation-based snapshots, made durable by a
//!   checksummed write-ahead log with checkpoint + replay recovery.

pub mod builder;
pub mod components;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod hub;
pub mod io;
pub mod kcore;
pub mod mmap;
pub mod stats;
pub mod triangles;
pub mod vertex_set;
pub mod wal;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, VertexId};
pub use delta::{DynamicGraph, EdgeBatch, GraphSnapshot};
pub use hub::{HubGraph, HubOptions};
pub use stats::GraphStats;
pub use wal::{DurableGraph, DurableGraphOptions};

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::csr::{CsrGraph, VertexId};
    pub use crate::stats::GraphStats;
}
