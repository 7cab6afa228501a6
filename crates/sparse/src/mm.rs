//! Matrix Market (`.mtx`) pattern I/O.
//!
//! Supports the `matrix coordinate` format with `general`, `symmetric`, and
//! `skew-symmetric` storage. Values (`real`/`integer`/`complex`/`pattern`)
//! are accepted and discarded — coloring only needs the pattern. This lets
//! the harness run on real SuiteSparse downloads when they are present,
//! while the synthetic registry covers the offline case.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::{Coo, Csr};

/// Errors produced by the Matrix Market reader.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not conform to the expected format.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Reads a Matrix Market pattern from a reader.
pub fn read_pattern<R: Read>(reader: R) -> Result<Csr, MmError> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines
        .next()
        .ok_or_else(|| parse_err("empty file"))??
        .to_ascii_lowercase();
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err(format!("bad header line: {header}")));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err(format!(
            "unsupported format `{}` (only coordinate)",
            fields[2]
        )));
    }
    let has_value = match fields[3] {
        "pattern" => false,
        "real" | "integer" | "complex" => true,
        other => return Err(parse_err(format!("unsupported field type `{other}`"))),
    };
    let symmetric = match fields[4] {
        "general" => false,
        "symmetric" | "skew-symmetric" => true,
        other => return Err(parse_err(format!("unsupported symmetry `{other}`"))),
    };

    // Skip comments, find size line.
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| parse_err("missing size line"))??;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        break line;
    };
    let mut it = size_line.split_whitespace();
    let nrows: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad row count"))?;
    let ncols: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad col count"))?;
    let nnz: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad nnz count"))?;

    if symmetric && nrows != ncols {
        return Err(parse_err(format!(
            "{} storage requires a square matrix, got {nrows}x{ncols}",
            fields[4]
        )));
    }

    // The header is untrusted: refuse counts no `Csr` can hold before
    // building anything, and cap the reservations it sizes — a short file
    // may claim billions of entries, and `push` grows geometrically.
    let max = u32::MAX as usize;
    if nrows > max || ncols > max {
        return Err(parse_err(format!(
            "dimensions {nrows}x{ncols} exceed the u32 index range"
        )));
    }
    if nnz > max {
        return Err(parse_err(format!(
            "{nnz} entries exceed the u32 row-pointer range"
        )));
    }
    let reserve = nnz.min(1 << 22);
    let mut coo = Coo::with_capacity(nrows, ncols, if symmetric { reserve * 2 } else { reserve });
    let mut seen = 0usize;
    // Duplicate entries silently collapse in CSR conversion but inflate
    // the declared pattern (net degrees, nnz accounting), so they are a
    // malformed file, not a tolerable redundancy. Symmetric storage keys
    // on the unordered pair: listing both (i, j) and (j, i) mirrors to
    // the same two entries and is equally a duplicate.
    let mut keys = std::collections::HashSet::with_capacity(reserve);
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let i: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad row index in `{trimmed}`")))?;
        let j: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad col index in `{trimmed}`")))?;
        if has_value && it.next().is_none() {
            return Err(parse_err(format!("missing value in `{trimmed}`")));
        }
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(parse_err(format!(
                "entry ({i}, {j}) out of 1-based range {nrows}x{ncols}"
            )));
        }
        let key = if symmetric {
            (i.min(j), i.max(j))
        } else {
            (i, j)
        };
        if !keys.insert(key) {
            return Err(parse_err(format!("duplicate entry ({i}, {j})")));
        }
        // Matrix Market is 1-based.
        if symmetric {
            coo.push_symmetric(i - 1, j - 1);
        } else {
            coo.push(i - 1, j - 1);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.into_csr())
}

/// Reads a Matrix Market pattern from a file path.
pub fn read_pattern_file(path: impl AsRef<Path>) -> Result<Csr, MmError> {
    read_pattern(std::fs::File::open(path)?)
}

/// Writes a pattern in `matrix coordinate pattern general` format.
pub fn write_pattern<W: Write>(mut writer: W, m: &Csr) -> std::io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(writer, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (i, j) in m.iter() {
        writeln!(writer, "{} {}", i + 1, j + 1)?;
    }
    Ok(())
}

/// Writes a pattern to a file path.
pub fn write_pattern_file(path: impl AsRef<Path>, m: &Csr) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_pattern(std::io::BufWriter::new(file), m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_pattern() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   % a comment\n\
                   3 4 4\n\
                   1 1\n\
                   1 3\n\
                   2 2\n\
                   3 4\n";
        let m = read_pattern(src.as_bytes()).unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.row(0), &[0, 2]);
        assert_eq!(m.row(1), &[1]);
        assert_eq!(m.row(2), &[3]);
    }

    #[test]
    fn parse_real_values_discarded() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 2\n\
                   1 2 3.5\n\
                   2 1 -1e9\n";
        let m = read_pattern(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 2);
        assert!(m.contains(0, 1));
        assert!(m.contains(1, 0));
    }

    #[test]
    fn parse_symmetric_expands() {
        let src = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                   3 3 2\n\
                   2 1\n\
                   3 3\n";
        let m = read_pattern(src.as_bytes()).unwrap();
        assert!(m.contains(0, 1));
        assert!(m.contains(1, 0));
        assert!(m.contains(2, 2));
        assert_eq!(m.nnz(), 3);
        assert!(m.is_structurally_symmetric());
    }

    #[test]
    fn roundtrip_write_read() {
        let m = Csr::from_rows(3, &[vec![0, 2], vec![], vec![1]]);
        let mut buf = Vec::new();
        write_pattern(&mut buf, &m).unwrap();
        let back = read_pattern(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_pattern("%%NotMM matrix\n1 1 0\n".as_bytes()).is_err());
        assert!(read_pattern("%%MatrixMarket matrix array real general\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_entry() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(read_pattern(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n";
        assert!(read_pattern(src.as_bytes()).is_err());
    }

    #[test]
    fn missing_value_detected() {
        let src = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n";
        assert!(read_pattern(src.as_bytes()).is_err());
    }

    /// All malformed inputs must come back as `MmError::Parse` — never a
    /// panic, and never a bogus matrix.
    fn expect_parse_error(src: &str) -> String {
        match read_pattern(src.as_bytes()) {
            Err(MmError::Parse(msg)) => msg,
            Err(other) => panic!("expected Parse error, got {other:?}"),
            Ok(m) => panic!("expected Parse error, got a {}x{} matrix", m.nrows(), m.ncols()),
        }
    }

    #[test]
    fn truncated_mid_entry_is_parse_error() {
        // size line promises 3 entries, the stream ends after 2
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 1\n2 2\n",
        );
        assert!(msg.contains("expected 3 entries, found 2"), "{msg}");
        // a value entry cut off before its value column
        let msg =
            expect_parse_error("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n");
        assert!(msg.contains("missing value"), "{msg}");
    }

    #[test]
    fn zero_based_index_is_parse_error() {
        // Matrix Market is 1-based; a 0 index is a classic exporter bug
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
        );
        assert!(msg.contains("out of 1-based range"), "{msg}");
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 0\n",
        );
        assert!(msg.contains("out of 1-based range"), "{msg}");
    }

    #[test]
    fn out_of_range_index_is_parse_error() {
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 4\n",
        );
        assert!(msg.contains("out of 1-based range 2x3"), "{msg}");
    }

    #[test]
    fn dimension_overflow_is_parse_error() {
        // larger than any usize: the size line must fail cleanly, not wrap
        let huge = "99999999999999999999999999999999";
        let msg = expect_parse_error(&format!(
            "%%MatrixMarket matrix coordinate pattern general\n{huge} 2 1\n1 1\n"
        ));
        assert!(msg.contains("bad row count"), "{msg}");
        let msg = expect_parse_error(&format!(
            "%%MatrixMarket matrix coordinate pattern general\n2 {huge} 1\n1 1\n"
        ));
        assert!(msg.contains("bad col count"), "{msg}");
        let msg = expect_parse_error(&format!(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 {huge}\n1 1\n"
        ));
        assert!(msg.contains("bad nnz count"), "{msg}");
        // parses as usize but leaves the u32 index space: refused before
        // the builder is made
        let past = u32::MAX as u64 + 1;
        let msg = expect_parse_error(&format!(
            "%%MatrixMarket matrix coordinate pattern general\n{past} 2 1\n1 1\n"
        ));
        assert!(msg.contains("exceed the u32 index range"), "{msg}");
        let msg = expect_parse_error(&format!(
            "%%MatrixMarket matrix coordinate pattern general\n2 {past} 1\n1 1\n"
        ));
        assert!(msg.contains("exceed the u32 index range"), "{msg}");
    }

    #[test]
    fn array_format_is_parse_error() {
        let msg = expect_parse_error("%%MatrixMarket matrix array real general\n2 2\n1.0\n");
        assert!(msg.contains("unsupported format `array`"), "{msg}");
    }

    #[test]
    fn duplicate_entry_is_parse_error() {
        // Exact duplicate in a general file: would silently collapse in
        // CSR conversion while the header claims 3 distinct entries.
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n2 3\n1 2\n",
        );
        assert!(msg.contains("duplicate entry (1, 2)"), "{msg}");
    }

    #[test]
    fn mirrored_duplicate_in_symmetric_is_parse_error() {
        // Symmetric storage lists each unordered pair once; (2,1) and
        // (1,2) both mirror to the same two entries.
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n1 2\n",
        );
        assert!(msg.contains("duplicate entry (1, 2)"), "{msg}");
    }

    #[test]
    fn symmetric_nonsquare_is_parse_error() {
        // Used to panic inside the Coo mirror push; must be a clean
        // structured error instead.
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 3\n",
        );
        assert!(msg.contains("square"), "{msg}");
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate pattern skew-symmetric\n3 2 1\n2 1\n",
        );
        assert!(msg.contains("square"), "{msg}");
    }

    #[test]
    fn distinct_entries_still_accepted_after_dedup_check() {
        // The duplicate check must not reject legitimate files: same row
        // twice with different columns, and a symmetric diagonal entry.
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n1 2\n";
        assert_eq!(read_pattern(src.as_bytes()).unwrap().nnz(), 2);
        let src = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1\n";
        let m = read_pattern(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3); // (0,0), (1,0), (0,1)
    }

    #[test]
    fn missing_size_line_is_parse_error() {
        let msg = expect_parse_error("%%MatrixMarket matrix coordinate pattern general\n% only\n");
        assert!(msg.contains("missing size line"), "{msg}");
        let msg = expect_parse_error("");
        assert!(msg.contains("empty file"), "{msg}");
    }
}
