//! Incremental recoloring for streaming graph mutations.
//!
//! Production bipartite patterns mutate — new rows, new columns are rare,
//! but new *nonzeros* arrive constantly — and a full recolor throws away
//! everything the previous run learned. This module makes a finished
//! coloring updatable instead of disposable:
//!
//! 1. [`CsrDelta`] describes a batch of edge insertions and deletions
//!    against an existing [`sparse::Csr`], validated as strictly as
//!    [`sparse::Csr::try_from_parts`] validates raw parts (typed
//!    [`DeltaError`]s, no panics on untrusted input).
//! 2. [`apply_delta`] merges the batch into a fresh CSR in one
//!    O(nnz + |delta|) pass and reports the **dirty set** — the vertices
//!    whose color may have become invalid or wasteful.
//! 3. [`recolor_incremental`] seeds the speculative driver — for BGPC or
//!    D2GC — with the previous coloring and a work queue containing
//!    *only* the dirty vertices, then runs the ordinary color-then-repair
//!    loop until clean. Every runner feature
//!    — [`crate::ctx::ThreadCtx`] scratch, forbidden-set dispatch, all
//!    [`Schedule`]s, and [`RunnerOpts`] (deadline/cancel) — applies
//!    unchanged.
//!
//! # Why the dirty set suffices
//!
//! Every distance-≤2 constraint path that exists in the mutated graph
//! but not in the base graph passes through an endpoint of a touched
//! edge. For BGPC only the column side is colored, so the dirty set is
//! the distinct **column endpoints** of touched edges: a new pin `(v, u)`
//! can only put `u` in conflict with other pins of net `v`, and
//! recoloring `u` against its *current* nets resolves exactly those
//! constraints. For D2GC both endpoints are colored vertices, so the
//! dirty set is **both endpoints** of every touched (symmetrized) edge.
//! Deletions never invalidate a coloring — removing a constraint cannot
//! create a conflict — but their endpoints are included anyway so freed
//! colors can be reclaimed by the first-fit pass.
//!
//! Stable (non-dirty) vertices keep their colors and stay visible to the
//! forbidden-color gather, so the seeded loop converges to a coloring
//! that is valid on the whole mutated graph, not just around the delta.
//! Net-based conflict phases may transiently uncolor a stable vertex
//! (the first-holder-per-net rule); the queue rebuild scans the full
//! vertex order, so any such vertex is requeued and recolored before the
//! loop exits.
//!
//! # Quality bound
//!
//! Seeding pins the palette of stable vertices, so the incremental color
//! count can exceed a from-scratch run's. It is still bounded:
//! `k_incremental ≤ max(k_base, Δ₂(G′) + 1)` where `Δ₂(G′)` is the
//! maximum distance-2 degree of the mutated graph — each recolored
//! vertex takes the first color not used in its distance-2 neighborhood,
//! which always exists below `Δ₂(G′) + 1`, and stable vertices only hold
//! colors below `k_base`. `crates/check`'s differential oracle enforces
//! this bound across schedules and forbidden sets.
//!
//! # Example
//!
//! ```
//! use bgpc::incremental::{apply_delta, recolor_incremental, CsrDelta};
//! use bgpc::{RunnerOpts, Schedule};
//! use graph::{BipartiteGraph, Ordering};
//!
//! let base = sparse::gen::bipartite_uniform(8, 10, 30, 42);
//! let g = BipartiteGraph::from_matrix(&base);
//! let order = Ordering::Natural.vertex_order_bgpc(&g);
//! let pool = par::Pool::new(2);
//! let full = bgpc::color_bgpc(&g, &order, &Schedule::v_v(), &pool);
//!
//! // Insert one new pin (net 0, vertex 9) — if it already exists, delete it.
//! let delta = if base.contains(0, 9) {
//!     CsrDelta::try_new(vec![], vec![(0, 9)]).unwrap()
//! } else {
//!     CsrDelta::try_new(vec![(0, 9)], vec![]).unwrap()
//! };
//! let applied = apply_delta(&base, &delta).unwrap();
//! let dirty = applied.dirty_bgpc().to_vec();
//! assert_eq!(dirty, vec![9]);
//!
//! let g2 = BipartiteGraph::try_from_matrix_owned(applied.matrix).unwrap();
//! let r = recolor_incremental(
//!     &g2, &full.colors, &dirty, &order,
//!     &Schedule::v_v(), &pool, RunnerOpts::default(),
//! );
//! bgpc::verify::verify_bgpc(&g2, &r.colors).unwrap();
//! ```

use std::fmt;

use par::Pool;
use sparse::Csr;

use crate::forbidden::ForbiddenSet;
use crate::metrics::ColoringResult;
use crate::neighborhood::Neighborhood;
use crate::runner::{Run, RunnerOpts};
use crate::{Color, Colors, Schedule, UNCOLORED};

/// A rejected delta, with enough structure to say exactly which edge of
/// an untrusted batch was wrong — the incremental analogue of
/// [`sparse::CsrError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The insertion list names the same edge twice.
    DuplicateInsertion {
        /// Net (row) endpoint of the repeated edge.
        row: u32,
        /// Vertex (column) endpoint of the repeated edge.
        col: u32,
    },
    /// The deletion list names the same edge twice.
    DuplicateDeletion {
        /// Net (row) endpoint of the repeated edge.
        row: u32,
        /// Vertex (column) endpoint of the repeated edge.
        col: u32,
    },
    /// The same edge appears in both the insertion and deletion lists.
    InsertDeleteOverlap {
        /// Net (row) endpoint of the conflicting edge.
        row: u32,
        /// Vertex (column) endpoint of the conflicting edge.
        col: u32,
    },
    /// An edge names a row at or beyond the pattern's row count.
    RowOutOfBounds {
        /// The out-of-range row.
        row: u32,
        /// Row count of the pattern the delta was applied to.
        nrows: usize,
    },
    /// An edge names a column at or beyond the pattern's column count.
    ColumnOutOfBounds {
        /// The out-of-range column.
        col: u32,
        /// Column count of the pattern the delta was applied to.
        ncols: usize,
    },
    /// An insertion names an edge the pattern already stores.
    EdgeAlreadyPresent {
        /// Net (row) endpoint of the existing edge.
        row: u32,
        /// Vertex (column) endpoint of the existing edge.
        col: u32,
    },
    /// A deletion names an edge the pattern does not store.
    EdgeNotPresent {
        /// Net (row) endpoint of the missing edge.
        row: u32,
        /// Vertex (column) endpoint of the missing edge.
        col: u32,
    },
    /// A symmetric (D2GC) delta names a self-loop, which the unipartite
    /// graph layer strips and the coloring problems never constrain.
    SelfLoop {
        /// The vertex naming itself.
        vertex: u32,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::DuplicateInsertion { row, col } => {
                write!(f, "insertion ({row}, {col}) listed twice")
            }
            DeltaError::DuplicateDeletion { row, col } => {
                write!(f, "deletion ({row}, {col}) listed twice")
            }
            DeltaError::InsertDeleteOverlap { row, col } => {
                write!(f, "edge ({row}, {col}) both inserted and deleted")
            }
            DeltaError::RowOutOfBounds { row, nrows } => {
                write!(f, "edge row {row} >= nrows {nrows}")
            }
            DeltaError::ColumnOutOfBounds { col, ncols } => {
                write!(f, "edge column {col} >= ncols {ncols}")
            }
            DeltaError::EdgeAlreadyPresent { row, col } => {
                write!(f, "inserted edge ({row}, {col}) already present")
            }
            DeltaError::EdgeNotPresent { row, col } => {
                write!(f, "deleted edge ({row}, {col}) not present")
            }
            DeltaError::SelfLoop { vertex } => {
                write!(f, "symmetric delta names self-loop ({vertex}, {vertex})")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A validated batch of edge insertions and deletions against a CSR
/// pattern. Edges are `(row, col)` pairs; both lists are kept sorted.
///
/// Construction rejects intra-batch duplicates and insert/delete
/// overlap; bounds and presence against a concrete pattern are checked
/// by [`apply_delta`] (a delta is pattern-independent until applied).
///
/// ```
/// use bgpc::incremental::{CsrDelta, DeltaError};
///
/// let d = CsrDelta::try_new(vec![(2, 0), (0, 1)], vec![(1, 1)]).unwrap();
/// assert_eq!(d.insertions(), &[(0, 1), (2, 0)]); // sorted
/// assert_eq!(d.deletions(), &[(1, 1)]);
/// assert!(!d.is_empty());
/// assert!(CsrDelta::empty().is_empty());
///
/// // The same edge cannot be inserted and deleted in one batch.
/// assert_eq!(
///     CsrDelta::try_new(vec![(0, 1)], vec![(0, 1)]),
///     Err(DeltaError::InsertDeleteOverlap { row: 0, col: 1 }),
/// );
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CsrDelta {
    insertions: Vec<(u32, u32)>,
    deletions: Vec<(u32, u32)>,
}

/// Sorts a list by `(row, col)` and reports the first adjacent duplicate.
fn sort_and_check(
    mut edges: Vec<(u32, u32)>,
    dup: impl Fn(u32, u32) -> DeltaError,
) -> Result<Vec<(u32, u32)>, DeltaError> {
    edges.sort_unstable();
    for w in edges.windows(2) {
        if w[0] == w[1] {
            return Err(dup(w[0].0, w[0].1));
        }
    }
    Ok(edges)
}

impl CsrDelta {
    /// The delta that changes nothing. [`apply_delta`] on it is a no-op
    /// returning an empty dirty set — the serving layer answers such
    /// updates straight from its cache.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a delta from edge lists, normalizing (sorting) both and
    /// rejecting intra-batch duplicates and insert/delete overlap with a
    /// typed [`DeltaError`].
    pub fn try_new(
        insertions: Vec<(u32, u32)>,
        deletions: Vec<(u32, u32)>,
    ) -> Result<Self, DeltaError> {
        let insertions = sort_and_check(insertions, |row, col| DeltaError::DuplicateInsertion {
            row,
            col,
        })?;
        let deletions = sort_and_check(deletions, |row, col| DeltaError::DuplicateDeletion {
            row,
            col,
        })?;
        // Two-pointer sweep over the sorted lists for overlap.
        let (mut x, mut y) = (0, 0);
        while x < insertions.len() && y < deletions.len() {
            match insertions[x].cmp(&deletions[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    return Err(DeltaError::InsertDeleteOverlap {
                        row: insertions[x].0,
                        col: insertions[x].1,
                    });
                }
            }
        }
        Ok(Self {
            insertions,
            deletions,
        })
    }

    /// True when the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }

    /// Number of touched edges (insertions plus deletions).
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// The sorted insertion list.
    pub fn insertions(&self) -> &[(u32, u32)] {
        &self.insertions
    }

    /// The sorted deletion list.
    pub fn deletions(&self) -> &[(u32, u32)] {
        &self.deletions
    }

    /// Mirrors every edge for application to a symmetric (D2GC) pattern:
    /// each `(u, v)` with `u != v` becomes `(u, v)` *and* `(v, u)`, so
    /// [`apply_delta`] preserves structural symmetry. Self-loops are
    /// rejected ([`DeltaError::SelfLoop`]) — the unipartite graph layer
    /// strips the diagonal, so a self-loop edge could never take effect.
    /// Listing an edge in both orientations is fine; the mirror set is
    /// deduplicated.
    pub fn symmetrized(&self) -> Result<CsrDelta, DeltaError> {
        let mirror = |edges: &[(u32, u32)]| -> Result<Vec<(u32, u32)>, DeltaError> {
            let mut out = Vec::with_capacity(edges.len() * 2);
            for &(u, v) in edges {
                if u == v {
                    return Err(DeltaError::SelfLoop { vertex: u });
                }
                out.push((u, v));
                out.push((v, u));
            }
            out.sort_unstable();
            out.dedup();
            Ok(out)
        };
        CsrDelta::try_new(mirror(&self.insertions)?, mirror(&self.deletions)?)
    }
}

/// The result of [`apply_delta`]: the mutated pattern plus the touched
/// row/column sets from which the per-problem dirty sets derive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaApplied {
    /// The mutated pattern, revalidated like [`sparse::Csr::try_from_parts`].
    pub matrix: Csr,
    /// Distinct rows (nets) with a touched edge, sorted.
    touched_rows: Vec<u32>,
    /// Distinct columns (vertices) with a touched edge, sorted.
    touched_cols: Vec<u32>,
}

impl DeltaApplied {
    /// Dirty set for BGPC: the distinct column (colored-side) endpoints
    /// of touched edges. See the module docs for why this suffices.
    pub fn dirty_bgpc(&self) -> &[u32] {
        &self.touched_cols
    }

    /// Dirty set for D2GC: the union of both endpoint sets of touched
    /// edges (a symmetrized delta touches each edge from both sides, so
    /// this equals either set — the union is taken defensively).
    pub fn dirty_d2gc(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.touched_rows.len() + self.touched_cols.len());
        out.extend_from_slice(&self.touched_rows);
        out.extend_from_slice(&self.touched_cols);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Distinct touched rows (nets), sorted.
    pub fn touched_rows(&self) -> &[u32] {
        &self.touched_rows
    }

    /// Distinct touched columns (vertices), sorted.
    pub fn touched_cols(&self) -> &[u32] {
        &self.touched_cols
    }
}

/// Applies a validated delta to a pattern, producing the mutated CSR and
/// the touched-endpoint sets in one O(nnz + |delta|) merge pass.
///
/// Checks every edge against the concrete pattern: rows and columns must
/// be in bounds, insertions must be absent, deletions present — each
/// violation is a typed [`DeltaError`]. An empty delta is a no-op: the
/// returned matrix equals the input and both touched sets are empty.
pub fn apply_delta(m: &Csr, delta: &CsrDelta) -> Result<DeltaApplied, DeltaError> {
    let (nrows, ncols) = (m.nrows(), m.ncols());
    for &(row, col) in delta.insertions().iter().chain(delta.deletions()) {
        if row as usize >= nrows {
            return Err(DeltaError::RowOutOfBounds { row, nrows });
        }
        if col as usize >= ncols {
            return Err(DeltaError::ColumnOutOfBounds { col, ncols });
        }
    }

    let mut row_ptr: Vec<usize> = Vec::with_capacity(nrows + 1);
    row_ptr.push(0);
    let mut col_idx: Vec<u32> =
        Vec::with_capacity(m.nnz() + delta.insertions.len() - delta.deletions.len().min(m.nnz()));
    let mut ins = delta.insertions.iter().copied().peekable();
    let mut del = delta.deletions.iter().copied().peekable();
    for i in 0..nrows {
        let row = i as u32;
        let mut base = m.row(i).iter().copied().peekable();
        loop {
            // Next base entry surviving this row's deletions.
            while let (Some(&b), Some(&(dr, dc))) = (base.peek(), del.peek()) {
                if dr != row || dc > b {
                    break;
                }
                if dc == b {
                    del.next();
                    base.next();
                } else {
                    return Err(DeltaError::EdgeNotPresent { row: dr, col: dc });
                }
            }
            let b = base.peek().copied();
            let ins_here = ins.peek().copied().filter(|&(ir, _)| ir == row);
            match (b, ins_here) {
                (Some(bc), Some((_, ic))) => {
                    if ic == bc {
                        return Err(DeltaError::EdgeAlreadyPresent { row, col: ic });
                    } else if ic < bc {
                        col_idx.push(ic);
                        ins.next();
                    } else {
                        col_idx.push(bc);
                        base.next();
                    }
                }
                (Some(bc), None) => {
                    col_idx.push(bc);
                    base.next();
                }
                (None, Some((_, ic))) => {
                    // A trailing deletion in this row larger than every
                    // base entry is caught by the post-row check below.
                    col_idx.push(ic);
                    ins.next();
                }
                (None, None) => break,
            }
        }
        // Deletions left in this row name edges past the row's end.
        if let Some(&(dr, dc)) = del.peek() {
            if dr == row {
                return Err(DeltaError::EdgeNotPresent { row: dr, col: dc });
            }
        }
        row_ptr.push(col_idx.len());
    }

    let matrix = Csr::try_from_parts(nrows, ncols, row_ptr, col_idx)
        .expect("merge of valid pattern and validated delta preserves CSR invariants");

    let mut touched_rows: Vec<u32> = Vec::with_capacity(delta.len());
    let mut touched_cols: Vec<u32> = Vec::with_capacity(delta.len());
    for &(row, col) in delta.insertions().iter().chain(delta.deletions()) {
        touched_rows.push(row);
        touched_cols.push(col);
    }
    touched_rows.sort_unstable();
    touched_rows.dedup();
    touched_cols.sort_unstable();
    touched_cols.dedup();
    Ok(DeltaApplied {
        matrix,
        touched_rows,
        touched_cols,
    })
}

/// Seeds a color array from a previous run, uncoloring the dirty set.
/// Returns the seeded array, the deduplicated dirty queue, and the
/// largest base color still pinned (for forbidden-set sizing).
pub(crate) fn seed_colors(base_colors: &[Color], dirty: &[u32]) -> (Colors, Vec<u32>, Color) {
    let colors = Colors::new(base_colors.len());
    for (u, &c) in base_colors.iter().enumerate() {
        if c != UNCOLORED {
            colors.set(u, c);
        }
    }
    let mut w0: Vec<u32> = dirty.to_vec();
    w0.sort_unstable();
    w0.dedup();
    for &u in &w0 {
        colors.clear(u as usize);
    }
    let mut max_base: Color = -1;
    for u in 0..base_colors.len() {
        max_base = max_base.max(colors.get(u));
    }
    (colors, w0, max_base)
}

/// Incrementally recolors an instance after a mutation: `g` is the
/// **mutated** graph, `base_colors` the coloring of the pre-mutation
/// graph, and `dirty` the vertices whose colors may no longer be valid
/// ([`DeltaApplied::dirty_bgpc`] for BGPC; [`DeltaApplied::dirty_d2gc`]
/// on a [`CsrDelta::symmetrized`] delta for D2GC). Stable vertices keep
/// their colors; only the dirty set (plus any conflict losers the
/// speculative loop discovers) is recolored. Dispatches the forbidden-set
/// representation per instance exactly like [`crate::color_with_opts`].
///
/// `order` must cover every vertex of `g` — it is the repair order for
/// degraded runs and the rebuild set for net-based conflict phases.
///
/// An empty `dirty` set returns the base coloring unchanged in zero
/// iterations.
///
/// # Panics
///
/// Panics if `base_colors.len() != g.n_vertices()` — a delta never
/// changes the pattern's dimensions, so a length mismatch means the
/// coloring belongs to a different graph. Callers holding untrusted
/// pairings (the serve daemon) check lengths before calling.
pub fn recolor_incremental<G: Neighborhood>(
    g: &G,
    base_colors: &[Color],
    dirty: &[u32],
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    seeded_run(g, base_colors, dirty, order, schedule, pool, opts).run_auto()
}

/// [`recolor_incremental`] with the forbidden-set representation `F`
/// forced, for harnesses that pin the representation axis.
pub fn recolor_incremental_with_set<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    base_colors: &[Color],
    dirty: &[u32],
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    seeded_run(g, base_colors, dirty, order, schedule, pool, opts).run::<F>()
}

/// Problem-named aliases of [`recolor_incremental`].
pub use self::{
    recolor_incremental as recolor_bgpc_incremental,
    recolor_incremental as recolor_d2gc_incremental,
};

fn seeded_run<'a, G: Neighborhood>(
    g: &'a G,
    base_colors: &'a [Color],
    dirty: &'a [u32],
    order: &'a [u32],
    schedule: &'a Schedule,
    pool: &'a Pool,
    opts: RunnerOpts,
) -> Run<'a, G> {
    assert_eq!(
        base_colors.len(),
        g.n_vertices(),
        "base coloring does not match the mutated graph's vertex count"
    );
    Run {
        g,
        order,
        seed: Some((base_colors, dirty)),
        schedule,
        pool,
        opts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use graph::{BipartiteGraph, Graph, Ordering};

    fn base_pattern() -> Csr {
        sparse::gen::bipartite_uniform(40, 60, 500, 11)
    }

    /// Exact max distance-2 degree of a bipartite instance (test-size
    /// instances only — quadratic in the neighborhood sizes).
    fn max_d2_degree(g: &BipartiteGraph) -> usize {
        let mut best = 0;
        for u in 0..g.n_vertices() {
            let mut seen: Vec<u32> = g
                .nets(u)
                .iter()
                .flat_map(|&v| g.vtxs(v as usize).iter().copied())
                .filter(|&x| x as usize != u)
                .collect();
            seen.sort_unstable();
            seen.dedup();
            best = best.max(seen.len());
        }
        best
    }

    type EdgeList = Vec<(u32, u32)>;

    /// Draws `k` absent edges and `k` present edges from the pattern.
    fn pick_edges(m: &Csr, k: usize, seed: u64) -> (EdgeList, EdgeList) {
        let mut rng = rng::Pcg32::seed_from_u64(seed);
        let mut ins = Vec::new();
        while ins.len() < k {
            let r = (rng.next_u32() as usize % m.nrows()) as u32;
            let c = (rng.next_u32() as usize % m.ncols()) as u32;
            if !m.contains(r as usize, c) && !ins.contains(&(r, c)) {
                ins.push((r, c));
            }
        }
        let all: Vec<(usize, u32)> = m.iter().collect();
        let mut del = Vec::new();
        while del.len() < k.min(all.len()) {
            let (r, c) = all[rng.next_u32() as usize % all.len()];
            if !del.contains(&(r as u32, c)) {
                del.push((r as u32, c));
            }
        }
        (ins, del)
    }

    #[test]
    fn empty_delta_is_a_noop_with_empty_dirty_set() {
        let m = base_pattern();
        let applied = apply_delta(&m, &CsrDelta::empty()).unwrap();
        assert_eq!(applied.matrix, m);
        assert!(applied.dirty_bgpc().is_empty());
        assert!(applied.dirty_d2gc().is_empty());
        assert!(applied.touched_rows().is_empty());
    }

    #[test]
    fn apply_delta_inserts_and_deletes() {
        let m = Csr::from_rows(4, &[vec![0, 2], vec![1], vec![]]);
        let d = CsrDelta::try_new(vec![(2, 3), (0, 1)], vec![(0, 2)]).unwrap();
        let applied = apply_delta(&m, &d).unwrap();
        assert_eq!(applied.matrix.row(0), &[0, 1]);
        assert_eq!(applied.matrix.row(1), &[1]);
        assert_eq!(applied.matrix.row(2), &[3]);
        assert_eq!(applied.dirty_bgpc(), &[1, 2, 3]);
        assert_eq!(applied.touched_rows(), &[0, 2]);
        applied.matrix.validate().unwrap();
    }

    #[test]
    fn degenerate_deltas_are_typed_errors() {
        let m = Csr::from_rows(4, &[vec![0, 2], vec![1]]);
        // Duplicate edge inside one list.
        assert_eq!(
            CsrDelta::try_new(vec![(0, 1), (0, 1)], vec![]),
            Err(DeltaError::DuplicateInsertion { row: 0, col: 1 }),
        );
        assert_eq!(
            CsrDelta::try_new(vec![], vec![(1, 1), (1, 1)]),
            Err(DeltaError::DuplicateDeletion { row: 1, col: 1 }),
        );
        // Delete a nonexistent edge (both mid-row and past-row-end).
        let d = CsrDelta::try_new(vec![], vec![(0, 1)]).unwrap();
        assert_eq!(
            apply_delta(&m, &d),
            Err(DeltaError::EdgeNotPresent { row: 0, col: 1 }),
        );
        let d = CsrDelta::try_new(vec![], vec![(0, 3)]).unwrap();
        assert_eq!(
            apply_delta(&m, &d),
            Err(DeltaError::EdgeNotPresent { row: 0, col: 3 }),
        );
        // Insert an existing edge.
        let d = CsrDelta::try_new(vec![(1, 1)], vec![]).unwrap();
        assert_eq!(
            apply_delta(&m, &d),
            Err(DeltaError::EdgeAlreadyPresent { row: 1, col: 1 }),
        );
        // Out-of-bounds endpoints.
        let d = CsrDelta::try_new(vec![(9, 0)], vec![]).unwrap();
        assert_eq!(
            apply_delta(&m, &d),
            Err(DeltaError::RowOutOfBounds { row: 9, nrows: 2 }),
        );
        let d = CsrDelta::try_new(vec![(0, 9)], vec![]).unwrap();
        assert_eq!(
            apply_delta(&m, &d),
            Err(DeltaError::ColumnOutOfBounds { col: 9, ncols: 4 }),
        );
        // Every error Display names the offending edge.
        for e in [
            DeltaError::DuplicateInsertion { row: 3, col: 7 },
            DeltaError::EdgeNotPresent { row: 3, col: 7 },
        ] {
            assert!(e.to_string().contains('3') && e.to_string().contains('7'), "{e}");
        }
    }

    #[test]
    fn symmetrized_mirrors_and_rejects_self_loops() {
        let d = CsrDelta::try_new(vec![(0, 2)], vec![(3, 1)]).unwrap();
        let s = d.symmetrized().unwrap();
        assert_eq!(s.insertions(), &[(0, 2), (2, 0)]);
        assert_eq!(s.deletions(), &[(1, 3), (3, 1)]);
        // Both orientations given: deduplicated, not a duplicate error.
        let d = CsrDelta::try_new(vec![(0, 2), (2, 0)], vec![]).unwrap();
        assert_eq!(d.symmetrized().unwrap().insertions(), &[(0, 2), (2, 0)]);
        let d = CsrDelta::try_new(vec![(1, 1)], vec![]).unwrap();
        assert_eq!(d.symmetrized(), Err(DeltaError::SelfLoop { vertex: 1 }));
    }

    #[test]
    fn incremental_bgpc_verifies_and_matches_quality_bound() {
        let m = base_pattern();
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(4);
        let full = crate::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);

        let (ins, del) = pick_edges(&m, 12, 99);
        let delta = CsrDelta::try_new(ins, del).unwrap();
        let applied = apply_delta(&m, &delta).unwrap();
        let g2 = BipartiteGraph::from_matrix(&applied.matrix);

        for schedule in Schedule::all() {
            let r = recolor_incremental(
                &g2,
                &full.colors,
                applied.dirty_bgpc(),
                &order,
                &schedule,
                &pool,
                RunnerOpts::default(),
            );
            verify_bgpc(&g2, &r.colors)
                .unwrap_or_else(|e| panic!("{} incremental invalid: {e}", schedule.name()));
            assert!(r.degraded.is_none(), "{}", schedule.name());
            // Stable vertices outside the touched neighborhoods kept
            // their colors (spot check: everything never enqueued kept
            // its color unless a net phase shuffled it — with vertex
            // schedules the guarantee is exact for non-dirty vertices
            // whose nets saw no dirty neighbor, so just bound quality).
            let bound = full.num_colors.max(max_d2_degree(&g2) + 1);
            assert!(
                r.num_colors <= bound,
                "{}: {} colors > bound {bound}",
                schedule.name(),
                r.num_colors
            );
        }
    }

    #[test]
    fn incremental_empty_dirty_set_returns_base_unchanged() {
        let m = base_pattern();
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(2);
        let full = crate::color_bgpc(&g, &order, &Schedule::v_v(), &pool);
        let r = recolor_incremental(
            &g,
            &full.colors,
            &[],
            &order,
            &Schedule::v_v(),
            &pool,
            RunnerOpts::default(),
        );
        assert_eq!(r.colors, full.colors);
        assert_eq!(r.num_colors, full.num_colors);
        assert_eq!(r.rounds(), 0, "no dirty vertices, no iterations");
    }

    #[test]
    fn incremental_d2gc_verifies_after_symmetric_delta() {
        let m = sparse::gen::erdos_renyi(50, 120, 3);
        let g = Graph::from_symmetric_matrix(&m);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(4);
        let full = crate::d2gc::color_d2gc(&g, &order, &Schedule::v_v_64d(), &pool);

        // Insert a few absent off-diagonal edges, delete a few present.
        let mut rng = rng::Pcg32::seed_from_u64(77);
        let mut ins = Vec::new();
        while ins.len() < 5 {
            let u = rng.next_u32() % 50;
            let v = rng.next_u32() % 50;
            if u != v && !m.contains(u as usize, v) && !ins.contains(&(u.min(v), u.max(v))) {
                ins.push((u.min(v), u.max(v)));
            }
        }
        let all: Vec<(u32, u32)> = m
            .iter()
            .map(|(r, c)| (r as u32, c))
            .filter(|&(r, c)| r < c)
            .collect();
        let del = vec![all[0], all[all.len() / 2]];
        let delta = CsrDelta::try_new(ins, del).unwrap().symmetrized().unwrap();
        let applied = apply_delta(&m, &delta).unwrap();
        assert!(applied.matrix.is_structurally_symmetric());
        let g2 = Graph::from_symmetric_matrix(&applied.matrix);

        for schedule in Schedule::d2gc_set() {
            let r = recolor_incremental(
                &g2,
                &full.colors,
                &applied.dirty_d2gc(),
                &order,
                &schedule,
                &pool,
                RunnerOpts::default(),
            );
            verify_d2gc(&g2, &r.colors)
                .unwrap_or_else(|e| panic!("{} incremental invalid: {e}", schedule.name()));
            assert!(r.degraded.is_none(), "{}", schedule.name());
        }
    }

    #[test]
    fn incremental_with_large_base_palette_grows_forbidden_sets() {
        // Seed with colors far above the structural bound: the forbidden
        // sets must grow on demand, not clamp or panic.
        let m = Csr::from_rows(6, &[vec![0, 1], vec![2, 3], vec![4, 5]]);
        let order: Vec<u32> = (0..6).collect();
        let base: Vec<Color> = vec![500, 501, 502, 503, 504, 505];
        let pool = Pool::new(2);
        let d = CsrDelta::try_new(vec![(0, 2)], vec![]).unwrap();
        let applied = apply_delta(&m, &d).unwrap();
        let g2 = BipartiteGraph::from_matrix(&applied.matrix);
        let r = recolor_incremental(
            &g2,
            &base,
            applied.dirty_bgpc(),
            &order,
            &Schedule::v_v(),
            &pool,
            RunnerOpts::default(),
        );
        verify_bgpc(&g2, &r.colors).unwrap();
        // Stable vertices kept their (huge) colors.
        assert_eq!(r.colors[0], 500);
        assert_eq!(r.colors[5], 505);
    }

    #[test]
    #[should_panic(expected = "vertex count")]
    fn mismatched_base_coloring_panics() {
        let m = base_pattern();
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(1);
        recolor_incremental(
            &g,
            &[0, 1, 2],
            &[0],
            &order,
            &Schedule::v_v(),
            &pool,
            RunnerOpts::default(),
        );
    }
}
