//! Vertex orderings for greedy coloring.
//!
//! Greedy coloring quality depends heavily on the order in which vertices
//! are processed (paper §VII). The paper evaluates the **natural** order
//! (Table III) and ColPack's **smallest-last** order (Table IV); we add
//! largest-first and random for completeness and ablations.
//!
//! An ordering is a permutation of the colored vertex set giving the
//! *processing* order of the initial work queue — the graph itself is never
//! relabeled.

use rng::Pcg32;

use crate::{BipartiteGraph, Graph};

/// A vertex-ordering strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    /// Vertices in index order (the paper's "natural row order").
    Natural,
    /// Uniformly random permutation with the given seed.
    Random(u64),
    /// Non-increasing distance-2 degree bound (Welsh–Powell style).
    LargestFirst,
    /// Matula–Beck smallest-last on the distance-2 degree bound — the
    /// ordering ColPack implements "to reduce the number of distinct
    /// colors" (paper Table II).
    SmallestLast,
    /// Incidence-degree: repeatedly pick the vertex with the most
    /// already-ordered distance-2 neighbors (ColPack's ID ordering).
    IncidenceDegree,
}

impl Ordering {
    /// Processing order for the `V_A` side of a bipartite graph.
    pub fn vertex_order_bgpc(&self, g: &BipartiteGraph) -> Vec<u32> {
        let n = g.n_vertices();
        match self {
            Ordering::Natural => natural(n),
            Ordering::Random(seed) => random(n, *seed),
            Ordering::LargestFirst => {
                largest_first(n, |u| g.d2_degree_bound(u))
            }
            Ordering::SmallestLast => smallest_last_bgpc(g),
            Ordering::IncidenceDegree => incidence_degree(n, |u, f| {
                let mut seen = std::collections::HashSet::new();
                for &v in g.nets(u) {
                    for &w in g.vtxs(v as usize) {
                        if w as usize != u && seen.insert(w) {
                            f(w);
                        }
                    }
                }
            }),
        }
    }

    /// Processing order for a unipartite graph colored at distance 2.
    pub fn vertex_order_d2(&self, g: &Graph) -> Vec<u32> {
        let n = g.n_vertices();
        match self {
            Ordering::Natural => natural(n),
            Ordering::Random(seed) => random(n, *seed),
            Ordering::LargestFirst => largest_first(n, |u| {
                g.nbor(u).iter().map(|&v| g.degree(v as usize)).sum()
            }),
            Ordering::SmallestLast => smallest_last_d2(g),
            Ordering::IncidenceDegree => incidence_degree(n, |u, f| {
                let mut seen = std::collections::HashSet::new();
                for &v in g.nbor(u) {
                    if seen.insert(v) {
                        f(v);
                    }
                    for &w in g.nbor(v as usize) {
                        if w as usize != u && seen.insert(w) {
                            f(w);
                        }
                    }
                }
            }),
        }
    }

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Ordering::Natural => "natural",
            Ordering::Random(_) => "random",
            Ordering::LargestFirst => "largest-first",
            Ordering::SmallestLast => "smallest-last",
            Ordering::IncidenceDegree => "incidence-degree",
        }
    }
}

/// Incidence-degree ordering: a max-priority loop where a vertex's key is
/// the number of its distance-2 neighbors already placed in the order.
/// `for_each_d2` enumerates the distinct distance-2 neighborhood of a
/// vertex. O(Σ |d2(u)|) updates with a bucket queue.
fn incidence_degree(
    n: usize,
    for_each_d2: impl Fn(usize, &mut dyn FnMut(u32)),
) -> Vec<u32> {
    let mut placed = vec![false; n];
    let mut key = vec![0usize; n];
    // buckets[k] = stack of vertices with incidence k (lazy entries).
    let mut buckets: Vec<Vec<u32>> = vec![(0..n as u32).rev().collect()];
    let mut max_key = 0usize;
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        // find the highest non-empty bucket with a fresh entry
        let u = loop {
            while max_key > 0 && buckets[max_key].is_empty() {
                max_key -= 1;
            }
            match buckets[max_key].pop() {
                Some(u) if !placed[u as usize] && key[u as usize] == max_key => break u,
                Some(_) => continue, // stale
                None => {
                    debug_assert_eq!(max_key, 0);
                    // all buckets momentarily empty of fresh entries —
                    // cannot happen while unplaced vertices remain because
                    // every key update pushes a fresh entry.
                    unreachable!("incidence-degree queue exhausted early");
                }
            }
        };
        placed[u as usize] = true;
        order.push(u);
        for_each_d2(u as usize, &mut |w: u32| {
            let wi = w as usize;
            if !placed[wi] {
                key[wi] += 1;
                if key[wi] >= buckets.len() {
                    buckets.resize(key[wi] + 1, Vec::new());
                }
                buckets[key[wi]].push(w);
                max_key = max_key.max(key[wi]);
            }
        });
    }
    order
}

fn natural(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

fn random(n: usize, seed: u64) -> Vec<u32> {
    let mut order = natural(n);
    Pcg32::seed_from_u64(seed).shuffle(&mut order);
    order
}

/// Stable counting sort by non-increasing degree.
fn largest_first(n: usize, degree: impl Fn(usize) -> usize) -> Vec<u32> {
    let degrees: Vec<usize> = (0..n).map(&degree).collect();
    let max_d = degrees.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_d + 1];
    for (u, &d) in degrees.iter().enumerate() {
        buckets[d].push(u as u32);
    }
    let mut order = Vec::with_capacity(n);
    for bucket in buckets.into_iter().rev() {
        order.extend(bucket);
    }
    order
}

/// Doubly-linked bucket structure with O(1) degree decrements, the
/// classic smallest-last workhorse.
struct BucketQueue {
    head: Vec<i64>, // head[d] = first vertex with degree d, or -1
    next: Vec<i64>,
    prev: Vec<i64>,
    deg: Vec<usize>,
    removed: Vec<bool>,
    cur_min: usize,
    live: usize,
}

impl BucketQueue {
    fn new(degrees: Vec<usize>) -> Self {
        let n = degrees.len();
        let max_d = degrees.iter().copied().max().unwrap_or(0);
        let mut q = BucketQueue {
            head: vec![-1; max_d + 1],
            next: vec![-1; n],
            prev: vec![-1; n],
            deg: degrees,
            removed: vec![false; n],
            cur_min: 0,
            live: n,
        };
        for u in (0..n).rev() {
            q.link(u);
        }
        q
    }

    fn link(&mut self, u: usize) {
        let d = self.deg[u];
        let old = self.head[d];
        self.next[u] = old;
        self.prev[u] = -1;
        if old >= 0 {
            self.prev[old as usize] = u as i64;
        }
        self.head[d] = u as i64;
    }

    fn unlink(&mut self, u: usize) {
        let d = self.deg[u];
        let (p, nx) = (self.prev[u], self.next[u]);
        if p >= 0 {
            self.next[p as usize] = nx;
        } else {
            self.head[d] = nx;
        }
        if nx >= 0 {
            self.prev[nx as usize] = p;
        }
    }

    /// Pops a vertex of minimum degree.
    fn pop_min(&mut self) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        while self.head[self.cur_min] < 0 {
            self.cur_min += 1;
        }
        let u = self.head[self.cur_min] as usize;
        self.unlink(u);
        self.removed[u] = true;
        self.live -= 1;
        Some(u)
    }

    /// Decrements the degree of a live vertex by 1.
    fn decrement(&mut self, u: usize) {
        if self.removed[u] || self.deg[u] == 0 {
            return;
        }
        self.unlink(u);
        self.deg[u] -= 1;
        self.link(u);
        if self.deg[u] < self.cur_min {
            self.cur_min = self.deg[u];
        }
    }

    fn is_removed(&self, u: usize) -> bool {
        self.removed[u]
    }
}

/// Smallest-last for BGPC on the multiplicity distance-2 degree:
/// `deg(u) = Σ_{v ∈ nets(u)} (|vtxs(v)| − 1)`. Removing `u` decrements the
/// degree of every live co-member of each of `u`'s nets — total work
/// `O(Σ_v |vtxs(v)|²)`, the same bound as ColPack's D2 ordering pass.
fn smallest_last_bgpc(g: &BipartiteGraph) -> Vec<u32> {
    let n = g.n_vertices();
    let degrees: Vec<usize> = (0..n).map(|u| g.d2_degree_bound(u)).collect();
    let mut q = BucketQueue::new(degrees);
    let mut removal = Vec::with_capacity(n);
    while let Some(u) = q.pop_min() {
        removal.push(u as u32);
        for &v in g.nets(u) {
            for &w in g.vtxs(v as usize) {
                let w = w as usize;
                if w != u && !q.is_removed(w) {
                    q.decrement(w);
                }
            }
        }
    }
    removal.reverse();
    removal
}

/// Smallest-last for D2GC with `deg(u) = Σ_{v ∈ nbor(u)} |nbor(v)|`
/// (each vertex acts as the "net" of its own neighborhood, mirroring the
/// BGPC rule).
fn smallest_last_d2(g: &Graph) -> Vec<u32> {
    let n = g.n_vertices();
    let degrees: Vec<usize> = (0..n)
        .map(|u| g.nbor(u).iter().map(|&v| g.degree(v as usize)).sum())
        .collect();
    let mut q = BucketQueue::new(degrees);
    let mut removal = Vec::with_capacity(n);
    while let Some(u) = q.pop_min() {
        removal.push(u as u32);
        for &v in g.nbor(u) {
            for &w in g.nbor(v as usize) {
                let w = w as usize;
                if w != u && !q.is_removed(w) {
                    q.decrement(w);
                }
            }
            // u also leaves nbor(v)'s own sum once per shared edge.
            let v = v as usize;
            if !q.is_removed(v) {
                q.decrement(v);
            }
        }
    }
    removal.reverse();
    removal
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::Csr;

    fn is_perm(order: &[u32], n: usize) -> bool {
        let mut seen = vec![false; n];
        if order.len() != n {
            return false;
        }
        for &u in order {
            if seen[u as usize] {
                return false;
            }
            seen[u as usize] = true;
        }
        true
    }

    fn star_bipartite() -> BipartiteGraph {
        // net 0 = {0,1,2,3,4}; net 1 = {4,5}
        BipartiteGraph::from_matrix(&Csr::from_rows(6, &[vec![0, 1, 2, 3, 4], vec![4, 5]]))
    }

    #[test]
    fn natural_is_identity() {
        let g = star_bipartite();
        assert_eq!(Ordering::Natural.vertex_order_bgpc(&g), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn random_is_permutation_and_seeded() {
        let g = star_bipartite();
        let a = Ordering::Random(3).vertex_order_bgpc(&g);
        let b = Ordering::Random(3).vertex_order_bgpc(&g);
        assert_eq!(a, b);
        assert!(is_perm(&a, 6));
        assert_ne!(a, Ordering::Random(4).vertex_order_bgpc(&g));
    }

    #[test]
    fn largest_first_puts_hub_first() {
        let g = star_bipartite();
        let order = Ordering::LargestFirst.vertex_order_bgpc(&g);
        assert!(is_perm(&order, 6));
        // vertex 4 is in both nets: degree 4 + 1 = 5, strictly largest.
        assert_eq!(order[0], 4);
        // vertex 5 (degree 1) comes last.
        assert_eq!(order[5], 5);
    }

    #[test]
    fn smallest_last_is_permutation() {
        let g = star_bipartite();
        let order = Ordering::SmallestLast.vertex_order_bgpc(&g);
        assert!(is_perm(&order, 6));
        // Vertex 5 (degree 1) is removed first, so it comes last in the
        // reversed (processing) order; later positions are tie-broken
        // arbitrarily among the equal-degree net-0 members.
        assert_eq!(order[5], 5);
    }

    #[test]
    fn smallest_last_d2_path() {
        // path of 5: ends removed first, center last.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            5,
            &[vec![1], vec![0, 2], vec![1, 3], vec![2, 4], vec![3]],
        ));
        let order = Ordering::SmallestLast.vertex_order_d2(&g);
        assert!(is_perm(&order, 5));
        // A path-end (minimum-degree vertex) is removed first, i.e. it is
        // the last vertex of the processing order. (On a path, removal then
        // sweeps linearly — peeling one end keeps exposing the next-lowest
        // degree vertex — so nothing stronger can be asserted.)
        let first_removed = *order.last().unwrap();
        assert!(
            first_removed == 0 || first_removed == 4,
            "expected a path end removed first, got {first_removed}"
        );
    }

    #[test]
    fn orderings_on_empty_graph() {
        let g = BipartiteGraph::from_matrix(&Csr::empty(0, 0));
        for o in [
            Ordering::Natural,
            Ordering::Random(1),
            Ordering::LargestFirst,
            Ordering::SmallestLast,
            Ordering::IncidenceDegree,
        ] {
            assert!(o.vertex_order_bgpc(&g).is_empty());
        }
    }

    #[test]
    fn incidence_degree_is_permutation_bgpc_and_d2() {
        let m = sparse::gen::bipartite_uniform(15, 25, 120, 4);
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::IncidenceDegree.vertex_order_bgpc(&g);
        assert!(is_perm(&order, 25));

        let sym = sparse::gen::erdos_renyi(30, 70, 4);
        let gg = Graph::from_symmetric_matrix(&sym);
        let order = Ordering::IncidenceDegree.vertex_order_d2(&gg);
        assert!(is_perm(&order, 30));
    }

    #[test]
    fn incidence_degree_places_d2_neighbor_second() {
        // star bipartite: after placing some vertex, its co-members gain
        // incidence 1 and are preferred over isolated-in-order vertices.
        let g = star_bipartite();
        let order = Ordering::IncidenceDegree.vertex_order_bgpc(&g);
        assert!(is_perm(&order, 6));
        // first two placed vertices must share a net (both in net 0 or
        // the pair {4, 5}).
        let (a, b) = (order[0], order[1]);
        let share = |x: u32, y: u32| {
            g.nets(x as usize)
                .iter()
                .any(|v| g.vtxs(*v as usize).contains(&y))
        };
        assert!(share(a, b), "first two placements {a},{b} must be d2 neighbors");
    }

    #[test]
    fn bucket_queue_pops_in_degree_order() {
        let mut q = BucketQueue::new(vec![3, 1, 2, 1]);
        let a = q.pop_min().unwrap();
        assert!(q.deg[a] == 1);
        q.decrement(0); // 3 -> 2
        q.decrement(0); // 2 -> 1
        let order: Vec<usize> = std::iter::from_fn(|| q.pop_min()).collect();
        assert_eq!(order.len(), 3);
        // remaining degrees: depends on pops; just ensure all popped once
        let mut all = order.clone();
        all.push(a);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bucket_queue_decrement_below_min_is_found() {
        let mut q = BucketQueue::new(vec![5, 5, 5]);
        assert!(q.pop_min().is_some()); // cur_min now 5
        q.decrement(q.removed.iter().position(|&r| !r).unwrap()); // someone drops to 4
        let u = q.pop_min().unwrap();
        assert_eq!(q.deg[u], 4);
    }

    #[test]
    fn d2_smallest_last_is_permutation_on_random_graph() {
        let m = sparse::gen::erdos_renyi(60, 150, 5);
        let g = Graph::from_symmetric_matrix(&m);
        let order = Ordering::SmallestLast.vertex_order_d2(&g);
        assert!(is_perm(&order, 60));
    }
}
