//! Validity oracles and color-set statistics.
//!
//! Every test and benchmark validates colorings through these functions,
//! which are written for clarity (sequential, allocating) rather than
//! speed — they are the ground truth the optimistic algorithms are checked
//! against.

use graph::{BipartiteGraph, Graph};

use crate::{BitStampSet, Color, UNCOLORED};

/// Checks that `colors` is a complete, valid bipartite partial coloring:
/// every vertex colored, and no two vertices of any net share a color.
pub fn verify_bgpc(g: &BipartiteGraph, colors: &[Color]) -> Result<(), String> {
    if colors.len() != g.n_vertices() {
        return Err(format!(
            "color array length {} != vertex count {}",
            colors.len(),
            g.n_vertices()
        ));
    }
    for (u, &c) in colors.iter().enumerate() {
        if c == UNCOLORED {
            return Err(format!("vertex {u} is uncolored"));
        }
        if c < 0 {
            return Err(format!("vertex {u} has invalid color {c}"));
        }
    }
    let mut seen = BitStampSet::with_capacity(64);
    for v in 0..g.n_nets() {
        seen.advance();
        for &u in g.vtxs(v) {
            let c = colors[u as usize];
            if seen.contains(c) {
                return Err(format!("net {v}: color {c} repeated (vertex {u})"));
            }
            seen.insert(c);
        }
    }
    Ok(())
}

/// Checks that `colors` is a complete, valid distance-2 coloring: every
/// vertex colored, and for every vertex `v`, the colors of `{v} ∪ nbor(v)`
/// are pairwise distinct (which covers all distance-1 and distance-2
/// pairs).
pub fn verify_d2gc(g: &Graph, colors: &[Color]) -> Result<(), String> {
    if colors.len() != g.n_vertices() {
        return Err(format!(
            "color array length {} != vertex count {}",
            colors.len(),
            g.n_vertices()
        ));
    }
    for (u, &c) in colors.iter().enumerate() {
        if c < 0 {
            return Err(format!("vertex {u} uncolored or invalid ({c})"));
        }
    }
    let mut seen = BitStampSet::with_capacity(64);
    for v in 0..g.n_vertices() {
        seen.advance();
        seen.insert(colors[v]);
        for &u in g.nbor(v) {
            let c = colors[u as usize];
            if seen.contains(c) {
                return Err(format!(
                    "middle vertex {v}: color {c} repeated in closed neighborhood (vertex {u})"
                ));
            }
            seen.insert(c);
        }
    }
    Ok(())
}

/// Cardinality statistics of the color classes — the balance metrics of
/// Table VI and the distributions of Figure 3.
#[derive(Clone, Debug)]
pub struct ColorClassStats {
    /// Number of non-empty color classes.
    pub num_classes: usize,
    /// Cardinality of each class, indexed by color (may contain zeros for
    /// colors skipped by reverse-fit policies).
    pub cardinalities: Vec<usize>,
    /// Smallest non-empty class size.
    pub min: usize,
    /// Largest class size.
    pub max: usize,
    /// Mean size over non-empty classes.
    pub mean: f64,
    /// Population standard deviation over non-empty classes.
    pub std_dev: f64,
}

impl ColorClassStats {
    /// Computes class statistics from a complete coloring.
    pub fn from_colors(colors: &[Color]) -> Self {
        let max_color = colors.iter().copied().max().unwrap_or(-1);
        let mut cardinalities = vec![0usize; (max_color + 1).max(0) as usize];
        for &c in colors {
            if c >= 0 {
                cardinalities[c as usize] += 1;
            }
        }
        let nonempty: Vec<usize> = cardinalities.iter().copied().filter(|&k| k > 0).collect();
        let num_classes = nonempty.len();
        if num_classes == 0 {
            return Self {
                num_classes: 0,
                cardinalities,
                min: 0,
                max: 0,
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let min = nonempty.iter().copied().min().unwrap();
        let max = nonempty.iter().copied().max().unwrap();
        let mean = nonempty.iter().sum::<usize>() as f64 / num_classes as f64;
        let var = nonempty
            .iter()
            .map(|&k| {
                let d = k as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / num_classes as f64;
        Self {
            num_classes,
            cardinalities,
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Class sizes sorted in non-increasing order (Figure 3's x-axis).
    pub fn sorted_cardinalities(&self) -> Vec<usize> {
        let mut sorted: Vec<usize> = self
            .cardinalities
            .iter()
            .copied()
            .filter(|&k| k > 0)
            .collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted
    }

    /// Normalized Shannon entropy of the class-size distribution in
    /// `[0, 1]`: 1 means perfectly equitable classes, 0 means everything
    /// in one class. A scale-free companion to the standard deviation for
    /// comparing B1/B2 across instances of different sizes.
    pub fn entropy(&self) -> f64 {
        let total: usize = self.cardinalities.iter().sum();
        if total == 0 || self.num_classes <= 1 {
            return if self.num_classes == 1 { 0.0 } else { 1.0 };
        }
        let h: f64 = self
            .cardinalities
            .iter()
            .filter(|&&k| k > 0)
            .map(|&k| {
                let p = k as f64 / total as f64;
                -p * p.ln()
            })
            .sum();
        h / (self.num_classes as f64).ln()
    }

    /// Gini coefficient of the class sizes in `[0, 1)`: 0 is perfectly
    /// balanced, higher is more skewed.
    pub fn gini(&self) -> f64 {
        let mut sizes: Vec<usize> = self
            .cardinalities
            .iter()
            .copied()
            .filter(|&k| k > 0)
            .collect();
        if sizes.len() <= 1 {
            return 0.0;
        }
        sizes.sort_unstable();
        let n = sizes.len() as f64;
        let total: usize = sizes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = sizes
            .iter()
            .enumerate()
            .map(|(i, &k)| (i as f64 + 1.0) * k as f64)
            .sum();
        (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
    }

    /// Number of classes smaller than `threshold` — the paper's concern
    /// about "thousands of color sets with less than 2 elements".
    pub fn classes_below(&self, threshold: usize) -> usize {
        self.cardinalities
            .iter()
            .filter(|&&k| k > 0 && k < threshold)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::Csr;

    fn tiny_bgpc() -> BipartiteGraph {
        BipartiteGraph::from_matrix(&Csr::from_rows(3, &[vec![0, 1], vec![1, 2]]))
    }

    #[test]
    fn valid_bgpc_accepted() {
        let g = tiny_bgpc();
        verify_bgpc(&g, &[0, 1, 0]).unwrap();
    }

    #[test]
    fn bgpc_conflict_detected() {
        let g = tiny_bgpc();
        let err = verify_bgpc(&g, &[0, 0, 1]).unwrap_err();
        assert!(err.contains("net 0"), "{err}");
    }

    #[test]
    fn bgpc_uncolored_detected() {
        let g = tiny_bgpc();
        assert!(verify_bgpc(&g, &[0, -1, 1]).is_err());
        assert!(verify_bgpc(&g, &[0, 1]).is_err());
    }

    #[test]
    fn valid_d2gc_accepted() {
        // path 0-1-2: all three pairwise within distance 2.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            3,
            &[vec![1], vec![0, 2], vec![1]],
        ));
        verify_d2gc(&g, &[0, 1, 2]).unwrap();
        assert!(verify_d2gc(&g, &[0, 1, 0]).is_err(), "distance-2 pair");
        assert!(verify_d2gc(&g, &[0, 0, 1]).is_err(), "distance-1 pair");
    }

    #[test]
    fn d2gc_distance3_may_share() {
        // path 0-1-2-3: vertices 0 and 3 are distance 3 apart.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            4,
            &[vec![1], vec![0, 2], vec![1, 3], vec![2]],
        ));
        verify_d2gc(&g, &[0, 1, 2, 0]).unwrap();
    }

    #[test]
    fn class_stats() {
        let stats = ColorClassStats::from_colors(&[0, 0, 0, 1, 2, 2]);
        assert_eq!(stats.num_classes, 3);
        assert_eq!(stats.cardinalities, vec![3, 1, 2]);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 3);
        assert!((stats.mean - 2.0).abs() < 1e-12);
        assert_eq!(stats.sorted_cardinalities(), vec![3, 2, 1]);
    }

    #[test]
    fn class_stats_with_gaps() {
        // color 1 unused (reverse fit can skip colors)
        let stats = ColorClassStats::from_colors(&[0, 2, 2]);
        assert_eq!(stats.num_classes, 2);
        assert_eq!(stats.cardinalities, vec![1, 0, 2]);
    }

    #[test]
    fn class_stats_empty() {
        let stats = ColorClassStats::from_colors(&[]);
        assert_eq!(stats.num_classes, 0);
        assert_eq!(stats.std_dev, 0.0);
    }

    #[test]
    fn entropy_of_equitable_coloring_is_one() {
        let stats = ColorClassStats::from_colors(&[0, 0, 1, 1, 2, 2]);
        assert!((stats.entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_decreases_with_skew() {
        let balanced = ColorClassStats::from_colors(&[0, 0, 0, 1, 1, 1]);
        let skewed = ColorClassStats::from_colors(&[0, 0, 0, 0, 0, 1]);
        assert!(skewed.entropy() < balanced.entropy());
        let single = ColorClassStats::from_colors(&[0, 0, 0]);
        assert_eq!(single.entropy(), 0.0);
    }

    #[test]
    fn gini_bounds_and_monotonicity() {
        let equal = ColorClassStats::from_colors(&[0, 0, 1, 1, 2, 2]);
        assert!(equal.gini().abs() < 1e-12);
        let skewed = ColorClassStats::from_colors(&[0, 0, 0, 0, 0, 1, 2]);
        assert!(skewed.gini() > 0.3, "gini {}", skewed.gini());
        assert!(skewed.gini() < 1.0);
        let single = ColorClassStats::from_colors(&[0, 0]);
        assert_eq!(single.gini(), 0.0);
    }

    #[test]
    fn classes_below_counts_small_sets() {
        let stats = ColorClassStats::from_colors(&[0, 0, 0, 1, 2, 2]);
        assert_eq!(stats.classes_below(2), 1); // class 1 has one member
        assert_eq!(stats.classes_below(3), 2);
        assert_eq!(stats.classes_below(100), 3);
    }
}
