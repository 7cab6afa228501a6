//! The D2GC input structure.

use sparse::Csr;

/// A simple undirected graph in CSR form (no self-loops, symmetric
/// adjacency) — the D2GC input.
#[derive(Clone, Debug)]
pub struct Graph {
    adj: Csr,
}

impl Graph {
    /// Builds a graph from a square, structurally symmetric pattern;
    /// diagonal entries are dropped.
    ///
    /// # Panics
    /// Panics if the pattern is not square or not symmetric (after
    /// diagonal removal). Use [`Graph::from_square_matrix`] to symmetrize
    /// arbitrary square inputs.
    pub fn from_symmetric_matrix(matrix: &Csr) -> Self {
        let adj = matrix.strip_diagonal();
        assert!(
            adj.is_structurally_symmetric(),
            "adjacency must be structurally symmetric"
        );
        Self { adj }
    }

    /// Builds a graph from any square pattern by symmetrizing `A ∪ Aᵀ`
    /// and dropping the diagonal.
    pub fn from_square_matrix(matrix: &Csr) -> Self {
        Self {
            adj: matrix.symmetrize().strip_diagonal(),
        }
    }

    /// Validating constructor for untrusted patterns: rejects malformed
    /// CSR structure, oversized dimensions, non-square shapes and (after
    /// diagonal removal) asymmetric adjacency with a structured error.
    pub fn try_from_symmetric_matrix(matrix: &Csr) -> Result<Self, crate::GraphError> {
        crate::error::validate_pattern(matrix)?;
        if matrix.nrows() != matrix.ncols() {
            return Err(crate::GraphError::NotSquare {
                nrows: matrix.nrows(),
                ncols: matrix.ncols(),
            });
        }
        let adj = matrix.strip_diagonal();
        if !adj.is_structurally_symmetric() {
            return Err(crate::GraphError::NotSymmetric);
        }
        Ok(Self { adj })
    }

    /// Builds directly from an adjacency CSR that already satisfies the
    /// invariants (validated in debug builds).
    pub fn from_adjacency(adj: Csr) -> Self {
        debug_assert!(adj.is_structurally_symmetric());
        debug_assert!((0..adj.nrows()).all(|i| !adj.contains(i, i as u32)));
        Self { adj }
    }

    /// Number of vertices.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.adj.nrows()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.adj.nnz() / 2
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn nbor(&self, v: usize) -> &[u32] {
        self.adj.row(v)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj.row_len(v)
    }

    /// Maximum degree Δ. `1 + Δ` lower-bounds the D2GC color count
    /// (paper §II: `1 + max_v |nbor(v)|`).
    pub fn max_degree(&self) -> usize {
        (0..self.n_vertices()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Calls `f(w)` for every distinct vertex within distance ≤ 2 of `u`,
    /// excluding `u` itself. For verification — allocates a stamp array.
    pub fn for_each_d2_neighbor(&self, u: usize, mut f: impl FnMut(u32)) {
        let mut seen = vec![false; self.n_vertices()];
        for &v in self.nbor(u) {
            let vi = v as usize;
            if vi != u && !seen[vi] {
                seen[vi] = true;
                f(v);
            }
            for &w in self.nbor(vi) {
                let wi = w as usize;
                if wi != u && !seen[wi] {
                    seen[wi] = true;
                    f(w);
                }
            }
        }
    }

    /// Hints the cache to pull `v`'s neighbor list (see
    /// [`Csr::prefetch_row`]).
    #[inline(always)]
    pub fn prefetch_nbor(&self, v: usize) {
        self.adj.prefetch_row(v);
    }

    /// The adjacency pattern.
    pub fn adjacency(&self) -> &Csr {
        &self.adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0 - 1 - 2 - 3.
    fn path4() -> Graph {
        Graph::from_symmetric_matrix(&Csr::from_rows(
            4,
            &[vec![1], vec![0, 2], vec![1, 3], vec![2]],
        ))
    }

    #[test]
    fn shape_and_degrees() {
        let g = path4();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn diagonal_stripped() {
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            2,
            &[vec![0, 1], vec![0, 1]],
        ));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.nbor(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_rejected() {
        Graph::from_symmetric_matrix(&Csr::from_rows(2, &[vec![1], vec![]]));
    }

    #[test]
    fn from_square_symmetrizes() {
        let g = Graph::from_square_matrix(&Csr::from_rows(3, &[vec![1], vec![2], vec![]]));
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.nbor(1), &[0, 2]);
    }

    #[test]
    fn d2_neighborhood_of_path() {
        let g = path4();
        let mut d2 = Vec::new();
        g.for_each_d2_neighbor(0, |w| d2.push(w));
        d2.sort_unstable();
        assert_eq!(d2, vec![1, 2]); // distance 1 and 2, not 3
        let mut d2 = Vec::new();
        g.for_each_d2_neighbor(1, |w| d2.push(w));
        d2.sort_unstable();
        assert_eq!(d2, vec![0, 2, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_symmetric_matrix(&Csr::empty(0, 0));
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn try_constructor_accepts_valid_symmetric() {
        let g = Graph::try_from_symmetric_matrix(&Csr::from_rows(
            4,
            &[vec![1], vec![0, 2], vec![1, 3], vec![2]],
        ))
        .unwrap();
        assert_eq!(g.n_edges(), 3);
    }

    #[test]
    fn try_constructor_rejects_non_square() {
        let err = Graph::try_from_symmetric_matrix(&Csr::from_rows(3, &[vec![0], vec![1]]))
            .unwrap_err();
        assert_eq!(
            err,
            crate::GraphError::NotSquare { nrows: 2, ncols: 3 }
        );
    }

    #[test]
    fn try_constructor_rejects_asymmetric() {
        let err = Graph::try_from_symmetric_matrix(&Csr::from_rows(2, &[vec![1], vec![]]))
            .unwrap_err();
        assert_eq!(err, crate::GraphError::NotSymmetric);
        assert!(err.to_string().contains("symmetric"));
    }
}
