//! Pattern-only compressed sparse row storage with `u32` row pointers
//! and column indices.

use std::fmt;

use crate::prefetch;

/// A violated CSR invariant, reported by [`Csr::try_from_parts`] and
/// [`Csr::validate`] with enough structure for callers (the graph layer,
/// the binary loader, the CLI) to say exactly what was wrong with an
/// untrusted pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// `row_ptr.len()` is not `nrows + 1`.
    RowPtrLength {
        /// Actual length of the row-pointer array.
        len: usize,
        /// Declared row count.
        nrows: usize,
    },
    /// `row_ptr[0]` is not zero.
    RowPtrStart,
    /// `row_ptr[nrows]` disagrees with `col_idx.len()`.
    NnzMismatch {
        /// Value of the final row pointer.
        last: usize,
        /// Actual number of stored column indices.
        nnz: usize,
    },
    /// The row-pointer array decreases at this row.
    RowPtrDecreasing {
        /// First row whose pointer exceeds its successor.
        row: usize,
    },
    /// A row's column indices are not strictly increasing.
    RowNotSorted {
        /// Offending row.
        row: usize,
    },
    /// An adjacency index is at or beyond the declared column dimension.
    ColumnOutOfBounds {
        /// Row holding the offending entry.
        row: usize,
        /// The out-of-range column index.
        col: u32,
        /// Declared column count.
        ncols: usize,
    },
    /// The nonzero count does not fit a `u32` row pointer.
    IndexOverflow {
        /// Nonzero count of the pattern.
        nnz: usize,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::RowPtrLength { len, nrows } => {
                write!(f, "row_ptr length {len} != nrows + 1 = {}", nrows + 1)
            }
            CsrError::RowPtrStart => write!(f, "row_ptr[0] != 0"),
            CsrError::NnzMismatch { last, nnz } => {
                write!(f, "row_ptr[nrows] = {last} != nnz = {nnz}")
            }
            CsrError::RowPtrDecreasing { row } => write!(f, "row_ptr decreases at row {row}"),
            CsrError::RowNotSorted { row } => write!(f, "row {row} not strictly increasing"),
            CsrError::ColumnOutOfBounds { row, col, ncols } => {
                write!(f, "row {row} has column {col} >= ncols {ncols}")
            }
            CsrError::IndexOverflow { nnz } => {
                write!(f, "{nnz} nonzeros exceed the u32 row-pointer range")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// Checks every CSR invariant over raw parts, including a per-entry
/// column-bound check so the offending entry is reported even when a row
/// is also unsorted.
fn check_parts(
    nrows: usize,
    ncols: usize,
    row_ptr: &[usize],
    col_idx: &[u32],
) -> Result<(), CsrError> {
    if row_ptr.len() != nrows + 1 {
        return Err(CsrError::RowPtrLength {
            len: row_ptr.len(),
            nrows,
        });
    }
    if row_ptr[0] != 0 {
        return Err(CsrError::RowPtrStart);
    }
    if row_ptr[nrows] != col_idx.len() {
        return Err(CsrError::NnzMismatch {
            last: row_ptr[nrows],
            nnz: col_idx.len(),
        });
    }
    // Full monotonicity pass first: together with `row_ptr[nrows] == nnz`
    // it bounds every pointer by nnz, so the per-row slices below cannot
    // go out of range (the old validator could panic here on a row_ptr
    // that overshot nnz mid-array and came back down).
    for i in 0..nrows {
        if row_ptr[i] > row_ptr[i + 1] {
            return Err(CsrError::RowPtrDecreasing { row: i });
        }
    }
    for i in 0..nrows {
        let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
        for &c in row {
            if c as usize >= ncols {
                return Err(CsrError::ColumnOutOfBounds {
                    row: i,
                    col: c,
                    ncols,
                });
            }
        }
        for w in row.windows(2) {
            if w[0] >= w[1] {
                return Err(CsrError::RowNotSorted { row: i });
            }
        }
    }
    Ok(())
}

/// A sparse pattern in compressed sparse row format.
///
/// Only the nonzero *structure* is stored — coloring never looks at values.
/// Row pointers and column indices are both `u32` (the perf-book "smaller
/// integers" idiom: the index arrays dominate the memory traffic of every
/// coloring kernel). A `u32` row pointer addresses 2³² − 1 nonzeros; the
/// paper's largest matrix, uk-2002, uses 7% of that, and every constructor
/// refuses a larger pattern with [`CsrError::IndexOverflow`].
///
/// ```
/// use sparse::Csr;
/// let m = Csr::from_rows(3, &[vec![0, 2], vec![1]]);
/// assert_eq!(m.nrows(), 2);
/// assert_eq!(m.row(0), &[0, 2]);
/// assert_eq!(m.transpose().row(2), &[0]);
/// ```
///
/// Invariants (checked by [`Csr::validate`], relied on everywhere):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, non-decreasing,
///   `row_ptr[nrows] == col_idx.len()`;
/// * every entry of `col_idx` is `< ncols`;
/// * within each row, column indices are strictly increasing (sorted, no
///   duplicates).
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz())
            .finish()
    }
}

impl Csr {
    /// Builds a CSR from raw parts, validating every invariant.
    ///
    /// # Panics
    /// Panics with a descriptive message if the parts are inconsistent.
    pub fn from_parts(nrows: usize, ncols: usize, row_ptr: Vec<usize>, col_idx: Vec<u32>) -> Self {
        Self::try_from_parts(nrows, ncols, row_ptr, col_idx)
            .unwrap_or_else(|e| panic!("invalid CSR parts: {e}"))
    }

    /// Builds a CSR from raw parts, returning the first violated invariant
    /// as a structured [`CsrError`] instead of panicking — the constructor
    /// for untrusted input paths. Checks that the nonzero count fits a
    /// `u32` row pointer, then narrows the pointers.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
    ) -> Result<Self, CsrError> {
        check_parts(nrows, ncols, &row_ptr, &col_idx)?;
        if col_idx.len() > u32::MAX as usize {
            return Err(CsrError::IndexOverflow { nnz: col_idx.len() });
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr: row_ptr.into_iter().map(|p| p as u32).collect(),
            col_idx,
        })
    }

    /// Builds a CSR from per-row column lists. Rows are sorted and
    /// deduplicated.
    pub fn from_rows(ncols: usize, rows: &[Vec<u32>]) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        for row in rows {
            let mut cols = row.clone();
            cols.sort_unstable();
            cols.dedup();
            col_idx.extend_from_slice(&cols);
            row_ptr.push(col_idx.len());
        }
        Self::from_parts(rows.len(), ncols, row_ptr, col_idx)
    }

    /// An empty pattern with the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
        }
    }

    /// Re-checks all structural invariants (the constructors establish
    /// them; this is for tests and assertions on long-lived patterns).
    pub fn validate(&self) -> Result<(), CsrError> {
        let row_ptr: Vec<usize> = self.row_ptr.iter().map(|&p| p as usize).collect();
        check_parts(self.nrows, self.ncols, &row_ptr, &self.col_idx)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The column indices of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize]
    }

    /// Number of entries in row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        self.row_ptr[i + 1] as usize - self.row_ptr[i] as usize
    }

    /// Offset of row `i`'s first entry in [`Csr::col_idx`].
    #[inline]
    pub fn row_start(&self, i: usize) -> usize {
        self.row_ptr[i] as usize
    }

    /// Raw row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Hints the cache hierarchy to pull row `i`'s column indices. Used
    /// by the coloring kernels to overlap the irregular adjacency gather
    /// of the *next* work item with the current one; a no-op on targets
    /// without a prefetch intrinsic and for out-of-range rows.
    #[inline(always)]
    pub fn prefetch_row(&self, i: usize) {
        if i < self.nrows {
            let start = self.row_ptr[i] as usize;
            prefetch::prefetch_read(&self.col_idx, start);
        }
    }

    /// Iterates `(row, col)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        (0..self.nrows).flat_map(move |i| self.row(i).iter().map(move |&j| (i, j)))
    }

    /// Returns true if `(i, j)` is a stored entry (binary search).
    pub fn contains(&self, i: usize, j: u32) -> bool {
        self.row(i).binary_search(&j).is_ok()
    }

    /// Transposes the pattern with a counting sort — O(nnz + nrows + ncols).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &j in &self.col_idx {
            counts[j as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let row_ptr: Vec<u32> = counts.iter().map(|&p| p as u32).collect();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut cursor = counts;
        // Walking rows in order makes each transposed row come out sorted.
        for i in 0..self.nrows {
            for &j in self.row(i) {
                let slot = &mut cursor[j as usize];
                col_idx[*slot] = i as u32;
                *slot += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
        }
    }

    /// True if the pattern is square and structurally symmetric
    /// (`(i,j)` stored iff `(j,i)` stored).
    pub fn is_structurally_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.row_ptr == t.row_ptr && self.col_idx == t.col_idx
    }

    /// Returns the symmetrized pattern `A ∪ Aᵀ` (square input required).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetrize(&self) -> Csr {
        assert_eq!(
            self.nrows, self.ncols,
            "symmetrize requires a square pattern"
        );
        let t = self.transpose();
        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(self.nrows);
        for i in 0..self.nrows {
            let a = self.row(i);
            let b = t.row(i);
            // merge two sorted lists
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let (mut x, mut y) = (0, 0);
            while x < a.len() && y < b.len() {
                match a[x].cmp(&b[y]) {
                    std::cmp::Ordering::Less => {
                        merged.push(a[x]);
                        x += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(b[y]);
                        y += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(a[x]);
                        x += 1;
                        y += 1;
                    }
                }
            }
            merged.extend_from_slice(&a[x..]);
            merged.extend_from_slice(&b[y..]);
            rows.push(merged);
        }
        Self::from_rows(self.ncols, &rows)
    }

    /// Removes diagonal entries (useful when interpreting a square pattern
    /// as an adjacency structure).
    pub fn strip_diagonal(&self) -> Csr {
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            for &j in self.row(i) {
                if j as usize != i {
                    col_idx.push(j);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
        }
    }

    /// Symmetrically permutes a square pattern: entry `(i, j)` moves to
    /// `(perm[i], perm[j])`. Preserves structural symmetry; the canonical
    /// use is applying an RCM relabeling.
    ///
    /// # Panics
    /// Panics if the pattern is not square or `perm` is not a permutation.
    pub fn permute_symmetric(&self, perm: &[u32]) -> Csr {
        assert_eq!(self.nrows, self.ncols, "symmetric permutation needs a square pattern");
        assert_eq!(perm.len(), self.nrows, "permutation length mismatch");
        debug_assert!(is_permutation(perm));
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.nrows];
        for i in 0..self.nrows {
            let new_i = perm[i] as usize;
            rows[new_i] = self.row(i).iter().map(|&j| perm[j as usize]).collect();
        }
        Self::from_rows(self.ncols, &rows)
    }

    /// Permutes the columns of the pattern: new column id of old column `j`
    /// is `perm[j]`. Rows are re-sorted.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..ncols`.
    pub fn permute_columns(&self, perm: &[u32]) -> Csr {
        assert_eq!(perm.len(), self.ncols, "permutation length mismatch");
        debug_assert!(crate::csr::is_permutation(perm));
        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(self.nrows);
        for i in 0..self.nrows {
            let mut row: Vec<u32> = self.row(i).iter().map(|&j| perm[j as usize]).collect();
            row.sort_unstable();
            rows.push(row);
        }
        Self::from_rows(self.ncols, &rows)
    }
}

/// Checks that `perm` is a permutation of `0..perm.len()`.
pub fn is_permutation(perm: &[u32]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        let p = p as usize;
        if p >= perm.len() || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // 3x4:
        // row 0: cols 0, 2
        // row 1: cols 1, 2, 3
        // row 2: (empty)
        Csr::from_parts(3, 4, vec![0, 2, 5, 5], vec![0, 2, 1, 2, 3])
    }

    #[test]
    fn basic_accessors() {
        let m = small();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row(0), &[0, 2]);
        assert_eq!(m.row(1), &[1, 2, 3]);
        assert_eq!(m.row(2), &[] as &[u32]);
        assert_eq!(m.row_len(1), 3);
        assert!(m.contains(0, 2));
        assert!(!m.contains(0, 1));
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = small();
        let entries: Vec<(usize, u32)> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0), (0, 2), (1, 1), (1, 2), (1, 3)]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.nnz(), 5);
        assert_eq!(t.row(0), &[0]);
        assert_eq!(t.row(1), &[1]);
        assert_eq!(t.row(2), &[0, 1]);
        assert_eq!(t.row(3), &[1]);
        assert_eq!(t.transpose(), m);
        t.validate().unwrap();
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let m = Csr::from_rows(5, &[vec![3, 1, 3, 0], vec![]]);
        assert_eq!(m.row(0), &[0, 1, 3]);
        assert_eq!(m.row(1), &[] as &[u32]);
    }

    #[test]
    fn symmetry_detection() {
        let sym = Csr::from_rows(3, &[vec![1], vec![0, 2], vec![1]]);
        assert!(sym.is_structurally_symmetric());
        let asym = Csr::from_rows(3, &[vec![1], vec![2], vec![]]);
        assert!(!asym.is_structurally_symmetric());
        let rect = small();
        assert!(!rect.is_structurally_symmetric());
    }

    #[test]
    fn symmetrize_produces_symmetric_superset() {
        let asym = Csr::from_rows(3, &[vec![1, 2], vec![2], vec![]]);
        let s = asym.symmetrize();
        assert!(s.is_structurally_symmetric());
        for (i, j) in asym.iter() {
            assert!(s.contains(i, j));
            assert!(s.contains(j as usize, i as u32));
        }
        s.validate().unwrap();
    }

    #[test]
    fn strip_diagonal_removes_self_loops() {
        let m = Csr::from_rows(3, &[vec![0, 1], vec![1], vec![0, 2]]);
        let s = m.strip_diagonal();
        assert_eq!(s.row(0), &[1]);
        assert_eq!(s.row(1), &[] as &[u32]);
        assert_eq!(s.row(2), &[0]);
        s.validate().unwrap();
    }

    #[test]
    fn permute_symmetric_preserves_structure() {
        let m = Csr::from_rows(3, &[vec![1], vec![0, 2], vec![1]]);
        // relabel: 0→2, 1→0, 2→1
        let p = m.permute_symmetric(&[2, 0, 1]);
        assert!(p.is_structurally_symmetric());
        assert_eq!(p.nnz(), m.nnz());
        // old edge (0,1) is now (2,0)
        assert!(p.contains(2, 0));
        assert!(p.contains(0, 2));
        p.validate().unwrap();
        // identity permutation is a no-op
        assert_eq!(m.permute_symmetric(&[0, 1, 2]), m);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn permute_symmetric_rejects_rectangular() {
        small().permute_symmetric(&[0, 1, 2]);
    }

    #[test]
    fn permute_columns_relabels() {
        let m = small();
        // swap cols 0 and 3
        let p = m.permute_columns(&[3, 1, 2, 0]);
        assert_eq!(p.row(0), &[2, 3]);
        assert_eq!(p.row(1), &[0, 1, 2]);
        p.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn unsorted_row_rejected() {
        Csr::from_parts(1, 3, vec![0, 2], vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn out_of_range_column_rejected() {
        Csr::from_parts(1, 2, vec![0, 1], vec![5]);
    }

    #[test]
    fn out_of_range_column_is_structured() {
        // 3x4 row with column 9: the error pinpoints row, column, and bound
        let err = Csr::try_from_parts(2, 4, vec![0, 1, 2], vec![0, 9]).unwrap_err();
        assert_eq!(
            err,
            CsrError::ColumnOutOfBounds {
                row: 1,
                col: 9,
                ncols: 4
            }
        );
        assert!(err.to_string().contains("column 9 >= ncols 4"), "{err}");
        // out-of-bounds is reported even when the row is also unsorted
        let err = Csr::try_from_parts(1, 3, vec![0, 2], vec![7, 1]).unwrap_err();
        assert!(matches!(err, CsrError::ColumnOutOfBounds { col: 7, .. }), "{err:?}");
    }

    #[test]
    fn structured_errors_cover_every_invariant() {
        assert!(matches!(
            Csr::try_from_parts(2, 2, vec![0, 1], vec![0]).unwrap_err(),
            CsrError::RowPtrLength { len: 2, nrows: 2 }
        ));
        assert!(matches!(
            Csr::try_from_parts(1, 2, vec![0, 2], vec![0]).unwrap_err(),
            CsrError::NnzMismatch { last: 2, nnz: 1 }
        ));
        assert!(matches!(
            Csr::try_from_parts(1, 2, vec![1, 1], vec![]).unwrap_err(),
            CsrError::RowPtrStart
        ));
        // an intermediate pointer overshooting nnz and coming back down
        // must be a structured error, not a slice panic
        assert!(matches!(
            Csr::try_from_parts(2, 2, vec![0, 2, 1], vec![0]).unwrap_err(),
            CsrError::RowPtrDecreasing { row: 1 }
        ));
        assert!(matches!(
            Csr::try_from_parts(1, 3, vec![0, 2], vec![1, 1]).unwrap_err(),
            CsrError::RowNotSorted { row: 0 }
        ));
    }

    #[test]
    fn prefetch_row_is_safe_everywhere() {
        let m = small();
        for i in 0..m.nrows() + 2 {
            m.prefetch_row(i); // includes out-of-range: must not panic
        }
    }

    #[test]
    fn empty_matrix_is_valid() {
        let m = Csr::empty(4, 7);
        m.validate().unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.transpose().nrows(), 7);
    }

    #[test]
    fn is_permutation_checks() {
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3, 1]));
        assert!(is_permutation(&[]));
    }
}
