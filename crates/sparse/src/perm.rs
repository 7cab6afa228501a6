//! Locality-aware relabelings for coloring instances.
//!
//! The BGPC kernels gather over CSR adjacency in whatever vertex order the
//! instance shipped with; on hub-heavy patterns (RMAT, rating matrices)
//! consecutive vertex ids share almost no cache lines. Relabeling the
//! columns — degree-sort or a BFS/Cuthill–McKee sweep — packs vertices
//! that co-occur in nets into nearby ids, so the gathers hit warmer lines.
//!
//! These are *relabelings*, not processing orders: the matrix itself is
//! permuted (`Csr::permute_columns` / `Csr::permute_symmetric`), the
//! coloring runs on the relabeled instance, and [`unpermute`] maps the
//! result back so colorings are always reported in original ids. The
//! processing-order knob (`graph::Ordering`) composes on top.

use crate::csr::Csr;

/// Sentinel marking a vertex found by the current frontier but not yet
/// labeled (distinct from `u32::MAX` = "never seen").
const DISCOVERED: u32 = u32::MAX - 1;

/// Which locality relabeling to apply before coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LocalityOrder {
    /// Keep the instance's native ids.
    #[default]
    None,
    /// Stable sort of columns by descending degree: hubs land together at
    /// the front, so the densest gathers share cache lines.
    Degree,
    /// Cuthill–McKee-style BFS sweep from low-degree seeds, alternating
    /// columns and rows: co-occurring columns get nearby ids, shrinking
    /// the working set of each net's gather.
    Bfs,
}

impl LocalityOrder {
    /// All relabelings, for sweep/axis enumeration.
    pub fn all() -> [LocalityOrder; 3] {
        [LocalityOrder::None, LocalityOrder::Degree, LocalityOrder::Bfs]
    }

    /// Name as used in flags and benchmark records.
    pub fn label(self) -> &'static str {
        match self {
            LocalityOrder::None => "none",
            LocalityOrder::Degree => "degree",
            LocalityOrder::Bfs => "bfs",
        }
    }

    /// Parses a relabeling name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "none" | "natural" => Some(LocalityOrder::None),
            "degree" => Some(LocalityOrder::Degree),
            "bfs" | "cm" | "rcm" => Some(LocalityOrder::Bfs),
            _ => None,
        }
    }

    /// Column permutation for a bipartite pattern: `perm[old] = new`.
    /// `None` means the identity (no relabeling requested).
    pub fn column_perm(self, m: &Csr) -> Option<Vec<u32>> {
        match self {
            LocalityOrder::None => None,
            LocalityOrder::Degree => Some(degree_column_perm(m)),
            LocalityOrder::Bfs => Some(bfs_column_perm(m)),
        }
    }

    /// Symmetric relabeling for a square adjacency pattern (D2GC):
    /// `perm[old] = new`. `None` means the identity.
    pub fn symmetric_perm(self, m: &Csr) -> Option<Vec<u32>> {
        match self {
            LocalityOrder::None => None,
            LocalityOrder::Degree => Some(degree_symmetric_perm(m)),
            LocalityOrder::Bfs => Some(bfs_symmetric_perm(m)),
        }
    }

    /// Applies the column relabeling: returns the permuted pattern and the
    /// permutation used (identity relabeling returns a plain clone).
    pub fn apply_columns(self, m: &Csr) -> (Csr, Option<Vec<u32>>) {
        match self.column_perm(m) {
            Some(perm) => (m.permute_columns(&perm), Some(perm)),
            None => (m.clone(), None),
        }
    }

    /// Applies the symmetric relabeling (square patterns, D2GC).
    pub fn apply_symmetric(self, m: &Csr) -> (Csr, Option<Vec<u32>>) {
        match self.symmetric_perm(m) {
            Some(perm) => (m.permute_symmetric(&perm), Some(perm)),
            None => (m.clone(), None),
        }
    }
}

/// Per-column degrees (number of rows each column appears in).
fn column_degrees(m: &Csr) -> Vec<u32> {
    let mut deg = vec![0u32; m.ncols()];
    for &j in m.col_idx() {
        deg[j as usize] += 1;
    }
    deg
}

/// Stable descending-degree column permutation: `perm[old] = new`.
pub fn degree_column_perm(m: &Csr) -> Vec<u32> {
    let deg = column_degrees(m);
    perm_from_sorted(&deg)
}

/// Stable descending-degree symmetric permutation for a square pattern.
pub fn degree_symmetric_perm(m: &Csr) -> Vec<u32> {
    assert_eq!(m.nrows(), m.ncols(), "symmetric relabeling needs a square pattern");
    let deg: Vec<u32> = (0..m.nrows()).map(|i| m.row_len(i) as u32).collect();
    perm_from_sorted(&deg)
}

/// Builds `perm[old] = new` from a stable sort by descending key.
fn perm_from_sorted(key: &[u32]) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..key.len() as u32).collect();
    ids.sort_by_key(|&c| std::cmp::Reverse(key[c as usize]));
    let mut perm = vec![0u32; key.len()];
    for (new, &old) in ids.iter().enumerate() {
        perm[old as usize] = new as u32;
    }
    perm
}

/// Cuthill–McKee-style column permutation of a bipartite pattern.
///
/// Sweeps breadth-first from the unvisited column of minimum degree,
/// alternating column → incident rows → their columns; newly discovered
/// columns are labeled in degree-ascending order within each frontier
/// step, the classic CM tie-break. Disconnected components are each swept
/// from their own minimum-degree seed, so the result is always a full
/// permutation.
pub fn bfs_column_perm(m: &Csr) -> Vec<u32> {
    let ncols = m.ncols();
    let deg = column_degrees(m);
    let t = m.transpose(); // column -> incident rows
    let mut perm = vec![u32::MAX; ncols];
    let mut row_seen = vec![false; m.nrows()];
    let mut next_label = 0u32;

    // Seeds in ascending degree order; each unvisited seed starts a
    // component sweep.
    let mut seeds: Vec<u32> = (0..ncols as u32).collect();
    seeds.sort_by_key(|&c| deg[c as usize]);

    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut discovered: Vec<u32> = Vec::new();
    for seed in seeds {
        if perm[seed as usize] != u32::MAX {
            continue;
        }
        perm[seed as usize] = next_label;
        next_label += 1;
        queue.push_back(seed);
        while let Some(c) = queue.pop_front() {
            discovered.clear();
            for &r in t.row(c as usize) {
                let r = r as usize;
                if row_seen[r] {
                    continue;
                }
                row_seen[r] = true;
                for &j in m.row(r) {
                    if perm[j as usize] == u32::MAX {
                        perm[j as usize] = DISCOVERED;
                        discovered.push(j);
                    }
                }
            }
            discovered.sort_by_key(|&j| (deg[j as usize], j));
            for &j in &discovered {
                perm[j as usize] = next_label;
                next_label += 1;
                queue.push_back(j);
            }
        }
    }
    debug_assert_eq!(next_label as usize, ncols);
    perm
}

/// Cuthill–McKee permutation of a square adjacency pattern (the D2GC
/// analogue of [`bfs_column_perm`]), neighbors labeled degree-ascending.
pub fn bfs_symmetric_perm(m: &Csr) -> Vec<u32> {
    assert_eq!(m.nrows(), m.ncols(), "symmetric relabeling needs a square pattern");
    let n = m.nrows();
    let mut perm = vec![u32::MAX; n];
    let mut next_label = 0u32;

    let mut seeds: Vec<u32> = (0..n as u32).collect();
    seeds.sort_by_key(|&v| m.row_len(v as usize));

    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut discovered: Vec<u32> = Vec::new();
    for seed in seeds {
        if perm[seed as usize] != u32::MAX {
            continue;
        }
        perm[seed as usize] = next_label;
        next_label += 1;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            discovered.clear();
            for &u in m.row(v as usize) {
                if perm[u as usize] == u32::MAX {
                    perm[u as usize] = DISCOVERED;
                    discovered.push(u);
                }
            }
            discovered.sort_by_key(|&u| (m.row_len(u as usize), u));
            for &u in &discovered {
                perm[u as usize] = next_label;
                next_label += 1;
                queue.push_back(u);
            }
        }
    }
    debug_assert_eq!(next_label as usize, n);
    perm
}

/// Inverts a permutation: `invert_perm(p)[p[i]] == i`.
pub fn invert_perm(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p as usize] = i as u32;
    }
    inv
}

/// Maps per-vertex values computed on a relabeled instance back to the
/// original ids: `unpermute(v, perm)[old] == v[perm[old]]`. This is how a
/// coloring of the permuted graph becomes a coloring of the original.
pub fn unpermute<T: Copy>(values: &[T], perm: &[u32]) -> Vec<T> {
    assert_eq!(values.len(), perm.len(), "permutation length mismatch");
    perm.iter().map(|&p| values[p as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::is_permutation;

    fn rating() -> Csr {
        // 4 rows x 6 cols, col degrees: 0→1, 1→3, 2→1, 3→2, 4→0, 5→2
        Csr::from_rows(
            6,
            &[vec![1, 3], vec![0, 1, 5], vec![1, 2], vec![3, 5]],
        )
    }

    #[test]
    fn degree_perm_puts_hubs_first() {
        let m = rating();
        let perm = degree_column_perm(&m);
        assert!(is_permutation(&perm));
        // col 1 has the highest degree (3) → new id 0
        assert_eq!(perm[1], 0);
        // degree-0 col 4 goes last
        assert_eq!(perm[4], 5);
        // stable: cols 3 and 5 both have degree 2, 3 < 5 keeps their order
        assert!(perm[3] < perm[5]);
    }

    #[test]
    fn bfs_perm_is_a_permutation_and_deterministic() {
        let m = rating();
        let perm = bfs_column_perm(&m);
        assert!(is_permutation(&perm));
        assert_eq!(perm, bfs_column_perm(&m));
        // isolated col 4 still gets a label (own component)
        assert!(perm[4] < 6);
    }

    #[test]
    fn bfs_groups_connected_columns() {
        // two disconnected column groups: {0,1} and {2,3}
        let m = Csr::from_rows(4, &[vec![0, 1], vec![2, 3]]);
        let perm = bfs_column_perm(&m);
        assert!(is_permutation(&perm));
        let group_a: Vec<u32> = vec![perm[0], perm[1]];
        let group_b: Vec<u32> = vec![perm[2], perm[3]];
        // each group occupies contiguous labels
        assert_eq!((group_a.iter().max().unwrap() - group_a.iter().min().unwrap()), 1);
        assert_eq!((group_b.iter().max().unwrap() - group_b.iter().min().unwrap()), 1);
    }

    #[test]
    fn symmetric_perms_are_permutations() {
        let m = Csr::from_rows(
            4,
            &[vec![1], vec![0, 2, 3], vec![1], vec![1]],
        );
        for order in [LocalityOrder::Degree, LocalityOrder::Bfs] {
            let perm = order.symmetric_perm(&m).unwrap();
            assert!(is_permutation(&perm), "{order:?}");
        }
        // hub vertex 1 leads the degree relabeling
        assert_eq!(degree_symmetric_perm(&m)[1], 0);
        assert!(LocalityOrder::None.symmetric_perm(&m).is_none());
    }

    #[test]
    fn invert_and_unpermute_roundtrip() {
        let perm = vec![2, 0, 3, 1];
        let inv = invert_perm(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        for (i, &p) in perm.iter().enumerate() {
            assert_eq!(inv[p as usize] as usize, i);
        }
        // values computed on the relabeled instance, mapped back
        let new_values = vec![10, 11, 12, 13];
        let original = unpermute(&new_values, &perm);
        assert_eq!(original, vec![12, 10, 13, 11]);
    }

    #[test]
    fn apply_columns_matches_manual_permute() {
        let m = rating();
        let (pm, perm) = LocalityOrder::Degree.apply_columns(&m);
        let perm = perm.unwrap();
        assert_eq!(pm, m.permute_columns(&perm));
        let (id, none) = LocalityOrder::None.apply_columns(&m);
        assert_eq!(id, m);
        assert!(none.is_none());
    }

    #[test]
    fn labels_roundtrip_through_from_name() {
        for order in LocalityOrder::all() {
            assert_eq!(LocalityOrder::from_name(order.label()), Some(order));
        }
        assert_eq!(LocalityOrder::from_name("zzz"), None);
    }
}
