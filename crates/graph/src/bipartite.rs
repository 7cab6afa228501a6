//! The BGPC input structure.

use sparse::Csr;

use crate::error::{validate_pattern, GraphError};

/// A bipartite graph `G = (V_A ∪ V_B, E)` stored as two CSRs.
///
/// Following the paper's hypergraph vocabulary, `V_A` members are
/// **vertices** (the side BGPC colors — matrix columns) and `V_B` members
/// are **nets** (matrix rows). `nets(u)` lists the nets incident to vertex
/// `u`; `vtxs(v)` lists the vertices in net `v`. Both directions are
/// materialized because the vertex-based kernels iterate `nets(u) → vtxs(v)`
/// while the net-based kernels iterate nets directly.
///
/// ```
/// use graph::BipartiteGraph;
/// let m = sparse::Csr::from_rows(3, &[vec![0, 1], vec![1, 2]]);
/// let g = BipartiteGraph::from_matrix(&m);
/// assert_eq!(g.n_nets(), 2);
/// assert_eq!(g.vtxs(0), &[0, 1]);
/// assert_eq!(g.nets(1), &[0, 1]);
/// assert_eq!(g.max_net_size(), 2); // the color lower bound
/// ```
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    /// net → vertices (the input matrix: rows are nets).
    net_to_vtx: Csr,
    /// vertex → nets (the transpose).
    vtx_to_net: Csr,
}

impl BipartiteGraph {
    /// Builds the bipartite view of a pattern: rows become nets, columns
    /// become the vertices to color (the paper's setup: "we colored the
    /// columns of these matrices where the rows are considered as the
    /// nets").
    pub fn from_matrix(matrix: &Csr) -> Self {
        Self {
            vtx_to_net: matrix.transpose(),
            net_to_vtx: matrix.clone(),
        }
    }

    /// Builds from an owned pattern, avoiding one clone.
    pub fn from_matrix_owned(matrix: Csr) -> Self {
        Self {
            vtx_to_net: matrix.transpose(),
            net_to_vtx: matrix,
        }
    }

    /// Validating constructor for untrusted patterns: rejects out-of-bounds
    /// or duplicate column indices and dimensions beyond the `u32` index
    /// space instead of panicking (or worse, silently mis-indexing) later.
    pub fn try_from_matrix(matrix: &Csr) -> Result<Self, GraphError> {
        validate_pattern(matrix)?;
        Ok(Self::from_matrix(matrix))
    }

    /// Owned variant of [`try_from_matrix`](Self::try_from_matrix).
    pub fn try_from_matrix_owned(matrix: Csr) -> Result<Self, GraphError> {
        validate_pattern(&matrix)?;
        Ok(Self::from_matrix_owned(matrix))
    }

    /// Number of vertices (`|V_A|`, the colored side).
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.vtx_to_net.nrows()
    }

    /// Number of nets (`|V_B|`).
    #[inline]
    pub fn n_nets(&self) -> usize {
        self.net_to_vtx.nrows()
    }

    /// Number of pins (edges of the bipartite graph).
    #[inline]
    pub fn n_pins(&self) -> usize {
        self.net_to_vtx.nnz()
    }

    /// The nets incident to vertex `u`.
    #[inline]
    pub fn nets(&self, u: usize) -> &[u32] {
        self.vtx_to_net.row(u)
    }

    /// The vertices in net `v`.
    #[inline]
    pub fn vtxs(&self, v: usize) -> &[u32] {
        self.net_to_vtx.row(v)
    }

    /// Cardinality of net `v`.
    #[inline]
    pub fn net_size(&self, v: usize) -> usize {
        self.net_to_vtx.row_len(v)
    }

    /// `max_v |vtxs(v)|` — the trivial lower bound on the number of colors
    /// of any valid partial coloring (paper §II).
    pub fn max_net_size(&self) -> usize {
        (0..self.n_nets()).map(|v| self.net_size(v)).max().unwrap_or(0)
    }

    /// Degree of vertex `u` counted with multiplicity through its nets:
    /// `Σ_{v ∈ nets(u)} (|vtxs(v)| − 1)` — an upper bound on the distance-2
    /// degree, used by the degree-based orderings.
    pub fn d2_degree_bound(&self, u: usize) -> usize {
        self.nets(u)
            .iter()
            .map(|&v| self.net_size(v as usize) - 1)
            .sum()
    }

    /// Calls `f(w)` for every distinct distance-2 neighbor `w ≠ u`
    /// (vertices sharing at least one net with `u`). Allocates a visited
    /// stamp internally — intended for tests/verification, not hot loops.
    pub fn for_each_d2_neighbor(&self, u: usize, mut f: impl FnMut(u32)) {
        let mut seen = vec![false; self.n_vertices()];
        for &v in self.nets(u) {
            for &w in self.vtxs(v as usize) {
                let wi = w as usize;
                if wi != u && !seen[wi] {
                    seen[wi] = true;
                    f(w);
                }
            }
        }
    }

    /// Hints the cache to pull vertex `u`'s net list (see
    /// [`Csr::prefetch_row`]); issued by the kernels a few work items
    /// ahead of the gather.
    #[inline(always)]
    pub fn prefetch_nets(&self, u: usize) {
        self.vtx_to_net.prefetch_row(u);
    }

    /// Hints the cache to pull net `v`'s vertex list.
    #[inline(always)]
    pub fn prefetch_vtxs(&self, v: usize) {
        self.net_to_vtx.prefetch_row(v);
    }

    /// The underlying net → vertex pattern.
    pub fn net_matrix(&self) -> &Csr {
        &self.net_to_vtx
    }

    /// The underlying vertex → net pattern.
    pub fn vtx_matrix(&self) -> &Csr {
        &self.vtx_to_net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 nets over 4 vertices:
    /// net 0 = {0, 1}; net 1 = {1, 2, 3}; net 2 = {3}
    fn tiny() -> BipartiteGraph {
        let m = Csr::from_rows(4, &[vec![0, 1], vec![1, 2, 3], vec![3]]);
        BipartiteGraph::from_matrix(&m)
    }

    #[test]
    fn shape() {
        let g = tiny();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_nets(), 3);
        assert_eq!(g.n_pins(), 6);
    }

    #[test]
    fn adjacency_both_ways() {
        let g = tiny();
        assert_eq!(g.vtxs(1), &[1, 2, 3]);
        assert_eq!(g.nets(1), &[0, 1]);
        assert_eq!(g.nets(3), &[1, 2]);
        assert_eq!(g.net_size(1), 3);
    }

    #[test]
    fn max_net_size_is_color_lower_bound() {
        assert_eq!(tiny().max_net_size(), 3);
        let empty = BipartiteGraph::from_matrix(&Csr::empty(0, 5));
        assert_eq!(empty.max_net_size(), 0);
    }

    #[test]
    fn d2_degree_bound_counts_multiplicity() {
        let g = tiny();
        // vertex 1: net 0 contributes 1, net 1 contributes 2.
        assert_eq!(g.d2_degree_bound(1), 3);
        // vertex 0: only net 0, contributes 1.
        assert_eq!(g.d2_degree_bound(0), 1);
    }

    #[test]
    fn d2_neighbors_distinct() {
        let g = tiny();
        let mut nbrs = Vec::new();
        g.for_each_d2_neighbor(1, |w| nbrs.push(w));
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![0, 2, 3]);
        // vertex in a singleton net has no d2 neighbors through it
        let mut nbrs3 = Vec::new();
        g.for_each_d2_neighbor(3, |w| nbrs3.push(w));
        nbrs3.sort_unstable();
        assert_eq!(nbrs3, vec![1, 2]);
    }

    #[test]
    fn try_from_matrix_accepts_valid_pattern() {
        let m = Csr::from_rows(4, &[vec![0, 1], vec![1, 2, 3], vec![3]]);
        let g = BipartiteGraph::try_from_matrix(&m).unwrap();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_nets(), 3);
        let owned = BipartiteGraph::try_from_matrix_owned(m).unwrap();
        assert_eq!(owned.n_pins(), 6);
    }

    #[test]
    fn try_from_matrix_rejects_out_of_bounds_column() {
        // Column 5 in a 3-column pattern; bypass the panicking constructor.
        let m = Csr::try_from_parts(1, 3, vec![0, 2], vec![0, 5]);
        assert!(
            matches!(m, Err(sparse::CsrError::ColumnOutOfBounds { col: 5, ncols: 3, .. })),
            "try_from_parts must reject the bad column with a structured error"
        );
        // Construct via the unvalidated empty + widen trick is impossible,
        // so exercise the error type through validate_pattern's other arm:
        // duplicate columns (non-strictly-increasing rows).
        let dup = Csr::try_from_parts(1, 3, vec![0, 2], vec![1, 1]);
        assert!(dup.is_err());
    }

    #[test]
    fn graph_error_messages_are_descriptive() {
        use crate::GraphError;
        let e = GraphError::DimensionOverflow {
            what: "columns",
            value: usize::MAX,
        };
        assert!(e.to_string().contains("u32 index space"));
        let e = GraphError::InvalidPattern(sparse::CsrError::RowNotSorted { row: 0 });
        assert!(e.to_string().contains("row 0"));
        let e = GraphError::InvalidPattern(sparse::CsrError::ColumnOutOfBounds {
            row: 2,
            col: 9,
            ncols: 4,
        });
        assert!(e.to_string().contains("column 9"), "{e}");
    }

    #[test]
    fn owned_constructor_matches() {
        let m = Csr::from_rows(4, &[vec![0, 1], vec![1, 2, 3], vec![3]]);
        let a = BipartiteGraph::from_matrix(&m);
        let b = BipartiteGraph::from_matrix_owned(m);
        assert_eq!(a.net_matrix(), b.net_matrix());
        assert_eq!(a.vtx_matrix(), b.vtx_matrix());
    }
}
