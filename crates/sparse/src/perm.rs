//! Locality-aware relabelings for coloring instances.
//!
//! The BGPC kernels gather over CSR adjacency in whatever vertex order the
//! instance shipped with; on hub-heavy patterns (RMAT, rating matrices)
//! consecutive vertex ids share almost no cache lines. Relabeling the
//! columns by descending degree packs the hubs together at the front, so
//! the densest gathers share cache lines.
//!
//! These are *relabelings*, not processing orders: the matrix itself is
//! permuted (`Csr::permute_columns` / `Csr::permute_symmetric`), the
//! coloring runs on the relabeled instance, and [`unpermute`] maps the
//! result back so colorings are always reported in original ids. The
//! processing-order knob (`graph::Ordering`) composes on top.

use crate::csr::Csr;

/// Which locality relabeling to apply before coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LocalityOrder {
    /// Keep the instance's native ids.
    #[default]
    None,
    /// Stable sort of columns by descending degree: hubs land together at
    /// the front, so the densest gathers share cache lines.
    Degree,
}

impl LocalityOrder {
    /// All relabelings, for sweep/axis enumeration.
    pub fn all() -> [LocalityOrder; 2] {
        [LocalityOrder::None, LocalityOrder::Degree]
    }

    /// Name as used in flags and benchmark records.
    pub fn label(self) -> &'static str {
        match self {
            LocalityOrder::None => "none",
            LocalityOrder::Degree => "degree",
        }
    }

    /// Parses a relabeling name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "none" | "natural" => Some(LocalityOrder::None),
            "degree" => Some(LocalityOrder::Degree),
            _ => None,
        }
    }

    /// Column permutation for a bipartite pattern: `perm[old] = new`.
    /// `None` means the identity (no relabeling requested).
    pub fn column_perm(self, m: &Csr) -> Option<Vec<u32>> {
        match self {
            LocalityOrder::None => None,
            LocalityOrder::Degree => Some(degree_column_perm(m)),
        }
    }

    /// Symmetric relabeling for a square adjacency pattern (D2GC):
    /// `perm[old] = new`. `None` means the identity.
    pub fn symmetric_perm(self, m: &Csr) -> Option<Vec<u32>> {
        match self {
            LocalityOrder::None => None,
            LocalityOrder::Degree => Some(degree_symmetric_perm(m)),
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
    fn symmetric_perms_are_permutations() {
        let m = Csr::from_rows(
            4,
            &[vec![1], vec![0, 2, 3], vec![1], vec![1]],
        );
        let perm = LocalityOrder::Degree.symmetric_perm(&m).unwrap();
        assert!(is_permutation(&perm));
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
        for retired in ["zzz", "bfs", "cm", "rcm"] {
            assert_eq!(LocalityOrder::from_name(retired), None);
        }
    }
}
