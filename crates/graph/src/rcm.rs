//! Reverse Cuthill–McKee relabeling.
//!
//! RCM is the classic bandwidth-reducing permutation for symmetric sparse
//! matrices. It matters to coloring experiments because the "natural"
//! orders of the paper's mesh matrices are already banded — RCM lets us
//! reproduce that property on synthetic instances whose generator order is
//! not (e.g. a shuffled power-law graph). Only `bgpc-cli stats` uses it,
//! to report a pattern's bandwidth before and after RCM; no coloring path
//! relabels with it.

use crate::Graph;

/// Computes the RCM permutation: `perm[old] = new`. Components are
/// processed in order of their discovered pseudo-peripheral starting
/// vertices (minimum degree per component).
pub fn rcm_permutation(g: &Graph) -> Vec<u32> {
    let n = g.n_vertices();
    let mut order: Vec<u32> = Vec::with_capacity(n); // Cuthill–McKee order
    let mut visited = vec![false; n];

    // Vertices sorted by degree — candidate start points.
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_by_key(|&v| g.degree(v as usize));

    let mut frontier: Vec<u32> = Vec::new();
    for &start in &by_degree {
        if visited[start as usize] {
            continue;
        }
        // BFS from the minimum-degree unvisited vertex, neighbors sorted
        // by degree (the CM tie-break).
        visited[start as usize] = true;
        order.push(start);
        let mut head = order.len() - 1;
        while head < order.len() {
            let u = order[head];
            head += 1;
            frontier.clear();
            for &v in g.nbor(u as usize) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    frontier.push(v);
                }
            }
            frontier.sort_by_key(|&v| g.degree(v as usize));
            order.extend_from_slice(&frontier);
        }
    }

    // Reverse (the R in RCM) and invert into perm[old] = new.
    let mut perm = vec![0u32; n];
    for (new_id, &old) in order.iter().rev().enumerate() {
        perm[old as usize] = new_id as u32;
    }
    perm
}

/// Bandwidth of a symmetric pattern under a relabeling `perm[old] = new`:
/// `max |perm[u] − perm[v]|` over edges.
pub fn bandwidth(g: &Graph, perm: &[u32]) -> usize {
    let mut bw = 0usize;
    for u in 0..g.n_vertices() {
        let pu = perm[u] as i64;
        for &v in g.nbor(u) {
            let d = (pu - perm[v as usize] as i64).unsigned_abs() as usize;
            bw = bw.max(d);
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::Csr;

    fn identity(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn rcm_is_permutation() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(50, 120, 3));
        let perm = rcm_permutation(&g);
        assert!(sparse::csr::is_permutation(&perm));
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        // A path relabeled randomly has large bandwidth; RCM restores ~1.
        let n = 64;
        let mut rows = vec![Vec::new(); n];
        // path over a fixed pseudo-random labeling
        let labels: Vec<usize> = (0..n).map(|i| (i * 37) % n).collect();
        for w in labels.windows(2) {
            rows[w[0]].push(w[1] as u32);
            rows[w[1]].push(w[0] as u32);
        }
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(n, &rows));
        let before = bandwidth(&g, &identity(n));
        let perm = rcm_permutation(&g);
        let after = bandwidth(&g, &perm);
        assert!(after <= 2, "path bandwidth after RCM: {after}");
        assert!(after < before);
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        // two triangles, no connection
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            6,
            &[
                vec![1, 2],
                vec![0, 2],
                vec![0, 1],
                vec![4, 5],
                vec![3, 5],
                vec![3, 4],
            ],
        ));
        let perm = rcm_permutation(&g);
        assert!(sparse::csr::is_permutation(&perm));
        assert_eq!(bandwidth(&g, &perm), 2);
    }

    #[test]
    fn rcm_on_empty_and_isolated() {
        let g = Graph::from_symmetric_matrix(&Csr::empty(0, 0));
        assert!(rcm_permutation(&g).is_empty());
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(3, &[vec![], vec![], vec![]]));
        let perm = rcm_permutation(&g);
        assert!(sparse::csr::is_permutation(&perm));
        assert_eq!(bandwidth(&g, &perm), 0);
    }

    #[test]
    fn mesh_bandwidth_stays_structured() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::grid2d(8, 8, 1));
        let perm = rcm_permutation(&g);
        let bw = bandwidth(&g, &perm);
        // 8×8 Moore grid: RCM bandwidth should stay near the row width.
        assert!(bw <= 24, "bandwidth {bw} too large for an 8x8 grid");
    }
}
