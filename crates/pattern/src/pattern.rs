//! Adjacency-matrix representation of patterns.

use std::fmt;

/// Index of a vertex inside a pattern (`0..pattern.num_vertices()`).
pub type PatternVertex = usize;

/// A small undirected, unlabeled pattern graph stored as a dense adjacency
/// matrix.
///
/// Patterns in GraphPi are tiny (the paper evaluates sizes 4–7), so a dense
/// matrix keeps every structural query O(1) and the code simple. Patterns
/// must be connected for matching to make sense; [`Pattern::is_connected`]
/// lets callers check this.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    n: usize,
    adj: Vec<bool>,
}

impl Pattern {
    /// Creates a pattern with `n` vertices and the given undirected edges.
    ///
    /// # Panics
    /// Panics if an edge references a vertex `>= n` or is a self loop.
    pub fn new(n: usize, edges: &[(PatternVertex, PatternVertex)]) -> Self {
        let mut p = Self {
            n,
            adj: vec![false; n * n],
        };
        for &(u, v) in edges {
            p.add_edge(u, v);
        }
        p
    }

    /// Creates an edgeless pattern with `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            adj: vec![false; n * n],
        }
    }

    /// Parses the flattened adjacency-matrix string format used by the
    /// original GraphPi implementation: `n * n` characters of `'0'`/`'1'`,
    /// row-major. An error says what is wrong when the length is not a
    /// perfect square, a character is not `0`/`1`, or the matrix is not
    /// symmetric with a zero diagonal.
    pub fn try_from_adjacency_string(s: &str) -> Result<Self, String> {
        let len = s.len();
        let n = (len as f64).sqrt().round() as usize;
        if n * n != len {
            return Err(format!("length {len} is not a square"));
        }
        let bits: Vec<bool> = s
            .bytes()
            .map(|byte| match byte {
                b'0' => Ok(false),
                b'1' => Ok(true),
                _ => Err("a character is not 0 or 1".to_string()),
            })
            .collect::<Result<_, _>>()?;
        let mut p = Self::empty(n);
        for i in 0..n {
            if bits[i * n + i] {
                return Err(format!("self loop at vertex {i}"));
            }
            for j in 0..i {
                if bits[i * n + j] != bits[j * n + i] {
                    return Err(format!("matrix not symmetric at ({i}, {j})"));
                }
                if bits[i * n + j] {
                    p.add_edge(j, i);
                }
            }
        }
        Ok(p)
    }

    /// Adds an undirected edge in place.
    pub(crate) fn add_edge(&mut self, u: PatternVertex, v: PatternVertex) {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert_ne!(u, v, "patterns cannot contain self loops");
        self.adj[u * self.n + v] = true;
        self.adj[v * self.n + u] = true;
    }

    /// Number of pattern vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Whether vertices `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: PatternVertex, v: PatternVertex) -> bool {
        self.adj[u * self.n + v]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: PatternVertex) -> usize {
        (0..self.n).filter(|&u| self.has_edge(v, u)).count()
    }

    /// Iterator over edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (PatternVertex, PatternVertex)> + '_ {
        (0..self.n).flat_map(move |u| {
            ((u + 1)..self.n)
                .filter(move |&v| self.has_edge(u, v))
                .map(move |v| (u, v))
        })
    }

    /// Whether the pattern is connected (patterns with ≤ 1 vertex count as
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (u, seen_u) in seen.iter_mut().enumerate() {
                if self.has_edge(v, u) && !*seen_u {
                    *seen_u = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n
    }

    /// Whether the vertex subset (given as indices) is pairwise non-adjacent.
    pub fn is_independent_set(&self, vertices: &[PatternVertex]) -> bool {
        for (i, &u) in vertices.iter().enumerate() {
            for &v in &vertices[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Size of a maximum independent set — the `k` of Section IV-B Phase 2
    /// and Section IV-D ("at most k vertices such that any two of them are
    /// not connected"). Exact, by enumeration over all vertex subsets, which
    /// is fine for pattern sizes (≤ ~20 vertices).
    pub fn max_independent_set_size(&self) -> usize {
        assert!(self.n <= 25, "pattern too large for exact MIS computation");
        let mut best = 0usize;
        // Precompute adjacency bitmasks.
        let masks: Vec<u32> = (0..self.n)
            .map(|v| {
                (0..self.n)
                    .filter(|&u| self.has_edge(v, u))
                    .fold(0u32, |m, u| m | (1 << u))
            })
            .collect();
        for subset in 0u32..(1 << self.n) {
            if (subset.count_ones() as usize) <= best {
                continue;
            }
            let mut ok = true;
            let mut rest = subset;
            while rest != 0 {
                let v = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if masks[v] & subset != 0 {
                    ok = false;
                    break;
                }
            }
            if ok {
                best = subset.count_ones() as usize;
            }
        }
        best
    }

    /// Whether the subgraph induced by `vertices` is connected. The empty
    /// set and singletons count as connected.
    pub fn induces_connected_subgraph(&self, vertices: &[PatternVertex]) -> bool {
        if vertices.len() <= 1 {
            return true;
        }
        let mut seen = vec![false; vertices.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            for (j, &v) in vertices.iter().enumerate() {
                if !seen[j] && self.has_edge(vertices[i], v) {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == vertices.len()
    }

    /// A compact byte serialisation of the pattern: the vertex count
    /// followed by the row-major adjacency matrix packed eight bits per
    /// byte. Two patterns produce the same bytes **iff** they are equal as
    /// labeled graphs (same `==`/`Hash` identity, *not* isomorphism
    /// classes), which makes this the natural key for plan caches and
    /// other pattern-indexed maps.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.adj.len().div_ceil(8));
        debug_assert!(self.n < 256, "pattern sizes are tiny by construction");
        out.push(self.n as u8);
        let mut acc = 0u8;
        for (i, &bit) in self.adj.iter().enumerate() {
            if bit {
                acc |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                out.push(acc);
                acc = 0;
            }
        }
        if self.adj.len() % 8 != 0 {
            out.push(acc);
        }
        out
    }

    /// Decodes the byte serialisation produced by
    /// [`Pattern::canonical_bytes`], validating it structurally: the length
    /// must match the declared vertex count exactly, the matrix must be
    /// symmetric with a zero diagonal, and the padding bits of the final
    /// byte must be zero. Returns `None` for any malformed input — this is
    /// the decoder used at the wire protocol's trust boundary, so it must
    /// never panic.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Option<Pattern> {
        let (&n_byte, packed) = bytes.split_first()?;
        let n = n_byte as usize;
        let bits = n * n;
        if packed.len() != bits.div_ceil(8) {
            return None;
        }
        let bit_at = |i: usize| packed[i / 8] & (1 << (i % 8)) != 0;
        // Padding bits beyond n*n must be zero, so encoding is canonical.
        for i in bits..packed.len() * 8 {
            if bit_at(i) {
                return None;
            }
        }
        let mut p = Pattern::empty(n);
        for u in 0..n {
            if bit_at(u * n + u) {
                return None; // self loop
            }
            for v in (u + 1)..n {
                let forward = bit_at(u * n + v);
                if forward != bit_at(v * n + u) {
                    return None; // asymmetric
                }
                if forward {
                    p.add_edge(u, v);
                }
            }
        }
        Some(p)
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pattern(n={}, edges={:?})",
            self.n,
            self.edges().collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn house() -> Pattern {
        // Square 0-1-3-2-0 with roof vertex 4 on edge 0-1.
        Pattern::new(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (1, 4)])
    }

    #[test]
    fn basic_queries() {
        let p = house();
        assert_eq!(p.num_vertices(), 5);
        assert_eq!(p.edges().count(), 6);
        assert!(p.has_edge(0, 1) && p.has_edge(1, 0));
        assert!(!p.has_edge(2, 4));
        assert_eq!(p.degree(0), 3);
        assert!(p.is_connected());
    }

    #[test]
    fn adjacency_string_round_trip() {
        let s = "0110110011100100110011000";
        assert_eq!(s.len(), 25);
        let q = Pattern::try_from_adjacency_string(s).unwrap();
        assert_eq!(house(), q);
    }

    #[test]
    #[should_panic]
    fn asymmetric_adjacency_string_rejected() {
        let _ = Pattern::try_from_adjacency_string("010000000").unwrap();
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let _ = Pattern::new(3, &[(1, 1)]);
    }

    #[test]
    fn independence() {
        let p = house();
        // Vertices 3 (bottom-right) and 4 (roof) are not adjacent.
        assert!(p.is_independent_set(&[3, 4]));
        assert!(!p.is_independent_set(&[0, 1]));
        assert_eq!(p.max_independent_set_size(), 2);

        let triangle = Pattern::new(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle.max_independent_set_size(), 1);

        let square = Pattern::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(square.max_independent_set_size(), 2);

        let star = Pattern::new(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(star.max_independent_set_size(), 4);
    }

    #[test]
    fn induced_connectivity() {
        let p = house();
        assert!(p.induces_connected_subgraph(&[0, 1, 4]));
        assert!(!p.induces_connected_subgraph(&[2, 4]));
        assert!(p.induces_connected_subgraph(&[]));
        assert!(p.induces_connected_subgraph(&[3]));
    }

    #[test]
    fn disconnected_pattern_detected() {
        let p = Pattern::new(4, &[(0, 1), (2, 3)]);
        assert!(!p.is_connected());
    }

    #[test]
    fn canonical_bytes_identify_labeled_patterns() {
        let tri = Pattern::new(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(tri.canonical_bytes(), tri.clone().canonical_bytes());
        // Different structure, same size: different bytes.
        let path = Pattern::new(3, &[(0, 1), (1, 2)]);
        assert_ne!(tri.canonical_bytes(), path.canonical_bytes());
        // Same structure, different size: different bytes.
        assert_ne!(
            Pattern::empty(2).canonical_bytes(),
            Pattern::empty(3).canonical_bytes()
        );
        // Size header + ceil(9/8) packed bytes for a 3-vertex pattern.
        assert_eq!(tri.canonical_bytes().len(), 1 + 2);
        // Byte equality must match labeled-graph equality on a small
        // pattern family.
        let patterns = [
            tri,
            path,
            Pattern::new(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]),
        ];
        for a in &patterns {
            for b in &patterns {
                assert_eq!(a.canonical_bytes() == b.canonical_bytes(), a == b);
            }
        }
    }

    #[test]
    fn canonical_bytes_round_trip() {
        for p in [
            house(),
            Pattern::new(3, &[(0, 1), (1, 2), (0, 2)]),
            Pattern::empty(1),
            Pattern::empty(0),
            Pattern::new(8, &[(0, 1), (2, 3), (4, 5), (6, 7), (0, 7)]),
        ] {
            assert_eq!(Pattern::from_canonical_bytes(&p.canonical_bytes()), Some(p));
        }
    }

    #[test]
    fn malformed_canonical_bytes_rejected() {
        // Empty input, truncated body, oversized body.
        assert_eq!(Pattern::from_canonical_bytes(&[]), None);
        let good = house().canonical_bytes();
        assert_eq!(Pattern::from_canonical_bytes(&good[..good.len() - 1]), None);
        let mut long = good.clone();
        long.push(0);
        assert_eq!(Pattern::from_canonical_bytes(&long), None);
        // Self loop: bit (0,0) set on a 2-vertex pattern.
        assert_eq!(Pattern::from_canonical_bytes(&[2, 0b0001]), None);
        // Asymmetric: bit (0,1) set but (1,0) clear.
        assert_eq!(Pattern::from_canonical_bytes(&[2, 0b0010]), None);
        // Nonzero padding bits beyond n*n.
        assert_eq!(Pattern::from_canonical_bytes(&[2, 0b1_0110]), None);
        // The symmetric single edge decodes fine.
        assert_eq!(
            Pattern::from_canonical_bytes(&[2, 0b0110]),
            Some(Pattern::new(2, &[(0, 1)]))
        );
    }
}
