//! The relative id-orders of a pattern's vertices, as bitsets.
//!
//! Three planner questions are questions about the `n!` ways the data-graph
//! ids assigned to `n` pattern vertices can be ordered: *is this restriction
//! set complete* (it must keep exactly `n! / |Aut|` orders), *what fraction
//! of the surviving partial embeddings does a loop's restriction filter*
//! (Section IV-C's `f_i`), and *does IEP over-count every subgraph equally*
//! (Section IV-D). A restriction `id(a) > id(b)` holds in a fixed half of
//! the orders whatever pattern it belongs to, so the table gives every order
//! a bit position and stores, for every ordered vertex pair, the bitset of
//! orders in which the first vertex has the larger id. A restriction set is
//! then the AND of its pairs' bitsets and a count is a popcount; nothing
//! walks the orders one by one.

use crate::pattern::PatternVertex;
use std::sync::OnceLock;

/// The order bitsets for one pattern size, built once per process.
pub struct OrderTable {
    n: usize,
    words: usize,
    /// Every order: the identity of AND.
    all: Vec<u64>,
    /// `words` words per ordered pair, pair `(a, b)` at `(a * n + b) * words`.
    greater: Vec<u64>,
}

impl std::fmt::Debug for OrderTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Not the bitsets: a third of a megabyte at the cap.
        f.debug_struct("OrderTable").field("n", &self.n).finish()
    }
}

impl OrderTable {
    /// Largest pattern size with a table: the planner's cap
    /// (`MAX_PATTERN_VERTICES` in `graphpi-core`), and the largest `n` whose
    /// `n * n` ordered pairs index the bits of one `u64`.
    pub(crate) const MAX_VERTICES: usize = 8;

    /// The table for patterns of `n` vertices (322 KiB at the cap, 3 KiB at
    /// six vertices).
    ///
    /// # Panics
    /// If `n` exceeds `Self::MAX_VERTICES`.
    pub fn for_size(n: usize) -> &'static OrderTable {
        // One cell per size. (A named constant rather than an inline `const`
        // block: the workspace's rust-version predates those.)
        #[allow(clippy::declare_interior_mutable_const)]
        const UNBUILT: OnceLock<OrderTable> = OnceLock::new();
        static TABLES: [OnceLock<OrderTable>; OrderTable::MAX_VERTICES + 1] =
            [UNBUILT; OrderTable::MAX_VERTICES + 1];
        assert!(
            n <= Self::MAX_VERTICES,
            "id-order tables exist for patterns of at most {} vertices (got {n})",
            Self::MAX_VERTICES
        );
        TABLES[n].get_or_init(|| Self::build(n))
    }

    fn build(n: usize) -> Self {
        let orders: usize = (1..=n).product();
        let words = orders.div_ceil(64);
        let mut table = Self {
            n,
            words,
            all: vec![0; words],
            greater: vec![0; n * n * words],
        };
        // `ids[v]` is the rank of vertex `v`'s id; Heap's algorithm visits
        // every assignment of ranks once, and the visit number is the bit.
        let mut ids: Vec<usize> = (0..n).collect();
        let mut counters = vec![0usize; n];
        let mut order = 0usize;
        loop {
            let (word, bit) = (order / 64, 1u64 << (order % 64));
            table.all[word] |= bit;
            for a in 0..n {
                for b in 0..n {
                    if ids[a] > ids[b] {
                        table.greater[(a * n + b) * words + word] |= bit;
                    }
                }
            }
            order += 1;
            let mut k = 1;
            while k < n && counters[k] == k {
                counters[k] = 0;
                k += 1;
            }
            if k >= n {
                break;
            }
            ids.swap(if k % 2 == 0 { 0 } else { counters[k] }, k);
            counters[k] += 1;
        }
        debug_assert_eq!(order, orders);
        table
    }

    /// The pattern size this table is for.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of orders, `n!`.
    pub fn num_orders(&self) -> u64 {
        (1..=self.n as u64).product()
    }

    /// Every order (`n!` set bits): what an empty restriction set keeps.
    pub fn all(&self) -> &[u64] {
        &self.all
    }

    /// The orders in which `id(a) > id(b)`. Empty for `a == b`.
    pub fn greater(&self, a: PatternVertex, b: PatternVertex) -> &[u64] {
        assert!(a < self.n && b < self.n, "pair ({a},{b}) out of range");
        &self.greater[(a * self.n + b) * self.words..][..self.words]
    }

    /// Number of orders in which `id(a) > id(b)` for every `(a, b)` yielded.
    pub(crate) fn count_satisfying(
        &self,
        pairs: impl Iterator<Item = (PatternVertex, PatternVertex)> + Clone,
    ) -> u64 {
        (0..self.words)
            .map(|w| {
                let kept = pairs
                    .clone()
                    .fold(self.all[w], |kept, (a, b)| kept & self.greater(a, b)[w]);
                u64::from(kept.count_ones())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_halves() {
        for n in 0..=OrderTable::MAX_VERTICES {
            let table = OrderTable::for_size(n);
            let orders: u64 = (1..=n as u64).product();
            assert_eq!(table.num_orders(), orders);
            assert_eq!(table.count_satisfying(std::iter::empty()), orders);
            for a in 0..n {
                assert_eq!(table.count_satisfying([(a, a)].into_iter()), 0);
                for b in 0..n {
                    if a != b {
                        // Exactly half the orders, and the complement of the
                        // opposite half.
                        assert_eq!(table.count_satisfying([(a, b)].into_iter()), orders / 2);
                        assert_eq!(table.count_satisfying([(a, b), (b, a)].into_iter()), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn the_same_table_is_handed_out_every_time() {
        assert!(std::ptr::eq(
            OrderTable::for_size(5),
            OrderTable::for_size(5)
        ));
    }

    #[test]
    fn chains_keep_one_order_in_k_factorial() {
        let table = OrderTable::for_size(6);
        assert_eq!(table.count_satisfying([(0, 1), (1, 2)].into_iter()), 120);
        let chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        assert_eq!(table.count_satisfying(chain.into_iter()), 1);
        // Transitively implied and independent pairs.
        assert_eq!(
            table.count_satisfying([(0, 1), (1, 2), (0, 2)].into_iter()),
            120
        );
        assert_eq!(table.count_satisfying([(0, 1), (2, 3)].into_iter()), 180);
    }

    #[test]
    #[should_panic(expected = "at most 8 vertices")]
    fn sizes_past_the_planner_cap_are_refused() {
        let _ = OrderTable::for_size(9);
    }
}
