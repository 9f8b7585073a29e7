use std::fmt;

use grow_sparse::CsrPattern;

/// An undirected graph stored as a symmetric CSR adjacency pattern.
///
/// This is the `A` of the GCN layer `X' = sigma(A X W)` before
/// normalization: rows are nodes, and row `i` lists the neighbors of node
/// `i` in ascending order. Self-loops and duplicate edges are removed at
/// construction; both directions of every edge are stored, so
/// [`Graph::directed_edges`] equals `2 * undirected edge count`.
///
/// ```
/// use grow_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.nodes(), 4);
/// assert_eq!(g.undirected_edges(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: CsrPattern,
}

impl Graph {
    /// Builds a graph from an undirected edge list.
    ///
    /// Self-loops are dropped and duplicate edges merged. Each input pair
    /// `(u, v)` is inserted in both directions.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= nodes`.
    pub fn from_edges(nodes: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        Graph::from_edge_list(nodes, edges.into_iter().collect())
    }

    /// [`Graph::from_edges`] over an owned list, which it consumes.
    pub(crate) fn from_edge_list(nodes: usize, pairs: Vec<(u32, u32)>) -> Self {
        let mut indptr = vec![0usize; nodes + 1];
        for &(u, v) in &pairs {
            assert!(
                (u as usize) < nodes && (v as usize) < nodes,
                "edge ({u}, {v}) out of bounds for {nodes} nodes"
            );
            if u != v {
                indptr[u as usize + 1] += 1;
                indptr[v as usize + 1] += 1;
            }
        }
        for r in 0..nodes {
            indptr[r + 1] += indptr[r];
        }
        // Place both directions of every edge, rows unsorted.
        let mut placed = vec![0u32; indptr[nodes]];
        let mut next = indptr[..nodes].to_vec();
        for (u, v) in pairs {
            if u == v {
                continue;
            }
            placed[next[u as usize]] = v;
            next[u as usize] += 1;
            placed[next[v as usize]] = u;
            next[v as usize] += 1;
        }
        // The placed multiset is symmetric, so its transpose has the same
        // row counts; visiting rows in ascending order leaves every
        // transposed row sorted, duplicates adjacent.
        let mut indices = vec![0u32; placed.len()];
        next.copy_from_slice(&indptr[..nodes]);
        for r in 0..nodes {
            for &c in &placed[indptr[r]..indptr[r + 1]] {
                indices[next[c as usize]] = r as u32;
                next[c as usize] += 1;
            }
        }
        drop(placed);
        // Merge duplicate edges in place.
        let mut kept = 0;
        let mut row_start = 0;
        for r in 0..nodes {
            let row_end = indptr[r + 1];
            let first = kept;
            for i in row_start..row_end {
                if kept == first || indices[kept - 1] != indices[i] {
                    indices[kept] = indices[i];
                    kept += 1;
                }
            }
            row_start = row_end;
            indptr[r + 1] = kept;
        }
        indices.truncate(kept);
        let adj = CsrPattern::from_raw(nodes, nodes, indptr, indices)
            .expect("sorted, deduplicated rows form a valid pattern");
        Graph { adj }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.adj.rows()
    }

    /// Number of stored directed edges (`2x` the undirected count).
    ///
    /// This matches the "# of Edges" convention of the paper's Table I,
    /// which counts adjacency-matrix non-zeros.
    pub fn directed_edges(&self) -> usize {
        self.adj.nnz()
    }

    /// Number of undirected edges.
    pub fn undirected_edges(&self) -> usize {
        self.adj.nnz() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.nodes()`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj.row_nnz(v)
    }

    /// Neighbors of node `v`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.nodes()`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        self.adj.row_indices(v)
    }

    /// Average node degree (`directed_edges / nodes`).
    pub fn avg_degree(&self) -> f64 {
        if self.nodes() == 0 {
            return 0.0;
        }
        self.directed_edges() as f64 / self.nodes() as f64
    }

    /// Density of the adjacency matrix, as reported in Table I.
    pub fn adjacency_density(&self) -> f64 {
        self.adj.density()
    }

    /// Borrows the adjacency pattern.
    pub fn adjacency(&self) -> &CsrPattern {
        &self.adj
    }

    /// Consumes the graph and returns the adjacency pattern.
    pub fn into_adjacency(self) -> CsrPattern {
        self.adj
    }

    /// Returns the graph with node IDs relabeled by `perm`
    /// (`perm[old] = new`).
    ///
    /// This is the preprocessing step of Figure 13: graph partitioning "only
    /// changes the way a particular node is assigned with its node ID".
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nodes`.
    pub fn relabel(&self, perm: &[u32]) -> Graph {
        let n = self.nodes();
        assert_eq!(perm.len(), n, "permutation length must equal node count");
        let mut inverse = vec![u32::MAX; n];
        for (old, &new) in perm.iter().enumerate() {
            assert!(
                (new as usize) < n && inverse[new as usize] == u32::MAX,
                "perm is not a permutation"
            );
            inverse[new as usize] = old as u32;
        }
        let mut indptr = vec![0usize; n + 1];
        for (old, &new) in perm.iter().enumerate() {
            indptr[new as usize + 1] = self.degree(old);
        }
        for r in 0..n {
            indptr[r + 1] += indptr[r];
        }
        // Visit the new rows in ascending order and append each one's ID to
        // the rows of its relabeled neighbors. By symmetry that fills every
        // row of the relabeled pattern, already sorted.
        let mut indices = vec![0u32; self.directed_edges()];
        let mut next = indptr[..n].to_vec();
        for (new, &old) in inverse.iter().enumerate() {
            for &c in self.neighbors(old as usize) {
                let slot = &mut next[perm[c as usize] as usize];
                indices[*slot] = new as u32;
                *slot += 1;
            }
        }
        let adj = CsrPattern::from_raw(n, n, indptr, indices)
            .expect("relabeling a symmetric pattern keeps it valid");
        Graph { adj }
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph: {} nodes, {} undirected edges, avg degree {:.2}",
            self.nodes(),
            self.undirected_edges(),
            self.avg_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_symmetrizes() {
        let g = Graph::from_edges(3, [(0, 1)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.directed_edges(), 2);
    }

    #[test]
    fn from_edges_drops_self_loops_and_duplicates() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (2, 2)]);
        assert_eq!(g.undirected_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn degrees_and_density() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.avg_degree(), 1.5);
        assert!((g.adjacency_density() - 6.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let r = g.relabel(&[2, 1, 0]);
        assert_eq!(r.degree(1), 2);
        assert_eq!(r.neighbors(2), &[1]);
        assert_eq!(r.undirected_edges(), g.undirected_edges());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_a_repeated_id() {
        Graph::from_edges(3, [(0, 1)]).relabel(&[0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_checks_bounds() {
        Graph::from_edges(2, [(0, 5)]);
    }

    #[test]
    fn display_mentions_counts() {
        let g = Graph::from_edges(2, [(0, 1)]);
        assert!(format!("{g}").contains("2 nodes"));
    }
}
