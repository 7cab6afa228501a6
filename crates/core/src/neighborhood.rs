//! The net structure every coloring kernel walks, shared by BGPC and D2GC.
//!
//! A BGPC conflict is two vertices of one net with the same color, so
//! the speculative driver, the vertex- and net-based kernels, the repair
//! and the sequential baseline need only four things from an instance:
//! its vertices, its nets, the nets of a vertex and the pins of a net.
//!
//! * **BGPC** ([`BipartiteGraph`]): the nets are `V_B` and the pins of
//!   net `v` are `vtxs(v)`.
//! * **D2GC** ([`Graph`]): the paper adapts BGPC "with a single
//!   difference" — net `v` is the closed neighborhood
//!   `N[v] = {v} ∪ nbor(v)`, its pins visited `v` first (Algorithms 9
//!   and 10). So `net_size(v) = degree(v) + 1`, and Algorithm 9's reverse
//!   first-fit cursor `|nbor(v)|` is the generic `net_size − 1`. The nets
//!   of a vertex `w` are `nbor(w)`: the nets `N[u]` for `u ∈ nbor(w)`
//!   cover `N[w] \ {w}`, so a vertex-based walk visits `u`, then
//!   `nbor(u)`, skipping `w` — exactly the distance-2 neighborhood.

use graph::{BipartiteGraph, Graph};

/// A coloring instance seen as vertices, nets, and pins (see the module
/// docs for the BGPC and D2GC readings).
pub trait Neighborhood: Sync {
    /// Fault point fired by every coloring-phase chunk
    /// ([`par::faults::fire`]).
    const FAULT_COLOR: &'static str;
    /// Fault point fired by every conflict-phase chunk.
    const FAULT_CONFLICT: &'static str;
    /// Whether the vertex-based coloring walk hints the next net's pin
    /// list ([`Neighborhood::prefetch_pins`]) while scanning the current
    /// one.
    const PREFETCH_PINS: bool;

    /// Number of colored vertices.
    fn n_vertices(&self) -> usize;
    /// Number of nets.
    fn n_nets(&self) -> usize;
    /// Number of pins of net `v`.
    fn net_size(&self, v: usize) -> usize;
    /// Number of pins over all nets: what one pass over every net reads.
    fn n_pins(&self) -> usize;
    /// The nets a vertex-based walk from `w` scans: every net `w` is a
    /// pin of (for D2GC, all but `w`'s own net `N[w]`, whose other pins
    /// the rest already cover).
    fn nets(&self, w: usize) -> &[u32];
    /// The net `w` is a pin of that [`Neighborhood::nets`] leaves out:
    /// `N[w]` for D2GC, none for BGPC.
    fn home_net(&self, w: usize) -> Option<u32>;
    /// Calls `f` on every pin of net `v`, in pin order.
    fn for_each_pin(&self, v: usize, f: impl FnMut(u32));
    /// Whether `f` holds for some pin of net `v`, stopping at the first.
    fn any_pin(&self, v: usize, f: impl FnMut(u32) -> bool) -> bool;
    /// The neighborhood bound that sizes forbidden sets and picks their
    /// representation: max net size for BGPC, max degree for D2GC.
    fn max_neighborhood(&self) -> usize;
    /// First-allocation capacity of the forbidden set of a sequential
    /// first-fit ([`crate::vertex::VertexPicker`]).
    fn seq_capacity(&self) -> usize;
    /// Hints the cache to pull `nets(w)`.
    fn prefetch_nets(&self, w: usize);
    /// Hints the cache to pull net `v`'s pin list.
    fn prefetch_pins(&self, v: usize);
}

// The walks are the kernels' innermost loops, so both impls force
// inlining: with plain `#[inline]` the D2GC N1-N2 coloring measured about
// 8% slower at one thread.
impl Neighborhood for BipartiteGraph {
    const FAULT_COLOR: &'static str = "bgpc.color";
    const FAULT_CONFLICT: &'static str = "bgpc.conflict";
    const PREFETCH_PINS: bool = true;

    #[inline(always)]
    fn n_vertices(&self) -> usize {
        BipartiteGraph::n_vertices(self)
    }
    #[inline(always)]
    fn n_nets(&self) -> usize {
        BipartiteGraph::n_nets(self)
    }
    #[inline(always)]
    fn net_size(&self, v: usize) -> usize {
        BipartiteGraph::net_size(self, v)
    }
    fn n_pins(&self) -> usize {
        BipartiteGraph::n_pins(self)
    }
    #[inline(always)]
    fn nets(&self, w: usize) -> &[u32] {
        BipartiteGraph::nets(self, w)
    }
    #[inline(always)]
    fn home_net(&self, _w: usize) -> Option<u32> {
        None
    }
    #[inline(always)]
    fn for_each_pin(&self, v: usize, mut f: impl FnMut(u32)) {
        for &u in self.vtxs(v) {
            f(u);
        }
    }
    #[inline(always)]
    fn any_pin(&self, v: usize, f: impl FnMut(u32) -> bool) -> bool {
        self.vtxs(v).iter().copied().any(f)
    }
    fn max_neighborhood(&self) -> usize {
        self.max_net_size()
    }
    fn seq_capacity(&self) -> usize {
        self.max_net_size().max(16)
    }
    #[inline(always)]
    fn prefetch_nets(&self, w: usize) {
        BipartiteGraph::prefetch_nets(self, w);
    }
    #[inline(always)]
    fn prefetch_pins(&self, v: usize) {
        self.prefetch_vtxs(v);
    }
}

impl Neighborhood for Graph {
    const FAULT_COLOR: &'static str = "d2gc.color";
    const FAULT_CONFLICT: &'static str = "d2gc.conflict";
    const PREFETCH_PINS: bool = false;

    #[inline(always)]
    fn n_vertices(&self) -> usize {
        Graph::n_vertices(self)
    }
    #[inline(always)]
    fn n_nets(&self) -> usize {
        Graph::n_vertices(self)
    }
    #[inline(always)]
    fn net_size(&self, v: usize) -> usize {
        self.degree(v) + 1
    }
    fn n_pins(&self) -> usize {
        self.adjacency().nnz() + Graph::n_vertices(self)
    }
    #[inline(always)]
    fn nets(&self, w: usize) -> &[u32] {
        self.nbor(w)
    }
    #[inline(always)]
    fn home_net(&self, w: usize) -> Option<u32> {
        Some(w as u32)
    }
    #[inline(always)]
    fn for_each_pin(&self, v: usize, mut f: impl FnMut(u32)) {
        f(v as u32);
        for &u in self.nbor(v) {
            f(u);
        }
    }
    #[inline(always)]
    fn any_pin(&self, v: usize, mut f: impl FnMut(u32) -> bool) -> bool {
        f(v as u32) || self.nbor(v).iter().copied().any(f)
    }
    fn max_neighborhood(&self) -> usize {
        self.max_degree()
    }
    fn seq_capacity(&self) -> usize {
        self.max_degree() + 16
    }
    #[inline(always)]
    fn prefetch_nets(&self, w: usize) {
        self.prefetch_nbor(w);
    }
    #[inline(always)]
    fn prefetch_pins(&self, _v: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::Csr;

    fn pins<G: Neighborhood>(g: &G, v: usize) -> Vec<u32> {
        let mut out = Vec::new();
        g.for_each_pin(v, |u| out.push(u));
        out
    }

    #[test]
    fn bipartite_nets_are_vtxs() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 2], vec![1, 2, 3]]));
        assert_eq!(Neighborhood::n_nets(&g), 2);
        assert_eq!(pins(&g, 1), vec![1, 2, 3]);
        assert_eq!(Neighborhood::net_size(&g, 1), 3);
        assert_eq!(Neighborhood::nets(&g, 2), &[0, 1]);
        assert_eq!(Neighborhood::n_pins(&g), 5);
        assert_eq!(g.home_net(2), None);
        assert_eq!(g.max_neighborhood(), 3);
        assert!(g.any_pin(0, |u| u == 2));
        assert!(!g.any_pin(0, |u| u == 1));
    }

    #[test]
    fn graph_nets_are_closed_neighborhoods_middle_first() {
        // Path 0 - 1 - 2.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(3, &[vec![1], vec![0, 2], vec![1]]));
        assert_eq!(Neighborhood::n_nets(&g), 3);
        assert_eq!(pins(&g, 1), vec![1, 0, 2]);
        assert_eq!(pins(&g, 0), vec![0, 1]);
        assert_eq!(Neighborhood::net_size(&g, 1), g.degree(1) + 1);
        assert_eq!(Neighborhood::nets(&g, 0), &[1]);
        assert_eq!(Neighborhood::n_pins(&g), 7);
        assert_eq!(g.home_net(0), Some(0));
        assert_eq!(g.max_neighborhood(), 2);
        // The middle vertex is a pin of its own net.
        assert!(g.any_pin(2, |u| u == 2));
        assert!(!g.any_pin(0, |u| u == 2));
    }
}
