//! Compact binary pattern serialization.
//!
//! Matrix Market is the interchange format; this is the *cache* format —
//! the harness regenerates synthetic instances on every run, and at larger
//! scales the generators (not the coloring) dominate wall time. The layout
//! is a fixed little-endian header plus the two CSR arrays, so reading is
//! one validation pass over `O(nnz)` bytes.
//!
//! The format is hardened for use as a service-side cache substrate: a
//! version word after the magic, and an [FNV-1a] checksum trailer over
//! every preceding byte. A truncated file, a bit flip anywhere in the
//! header or payload, or a torn write (the serving layer's crash window)
//! is rejected with a structured [`BinError`] instead of propagating
//! garbage into the graph layer.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic    8 bytes  b"BGPCCSR2"
//! version  4 bytes  u32 (currently 2)
//! flags    4 bytes  u32 (reserved, must be 0)
//! nrows    8 bytes  u64
//! ncols    8 bytes  u64
//! nnz      8 bytes  u64
//! row_ptr  (nrows + 1) × 8 bytes (u64)
//! col_idx  nnz × 4 bytes (u32)
//! checksum 8 bytes  u64 — FNV-1a 64 over every byte above
//! ```
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use std::io::{Read, Write};
use std::path::Path;

use crate::Csr;

const MAGIC: &[u8; 8] = b"BGPCCSR2";
/// Current format version (the word after the magic).
pub const FORMAT_VERSION: u32 = 2;

/// Errors from the binary reader, structured so callers can distinguish
/// "not this format" from "this format, but damaged".
#[derive(Debug)]
pub enum BinError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the format magic (wrong format, or a
    /// pre-versioned `BGPCCSR1` file from before the checksum trailer).
    BadMagic,
    /// The magic matched but the version word is not one this reader
    /// understands.
    UnsupportedVersion(u32),
    /// The file ended before the declared header/payload/trailer did — a
    /// torn or truncated write.
    Truncated,
    /// The checksum trailer disagrees with the bytes read: corruption
    /// (bit flip, partial overwrite) somewhere in header or payload.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the bytes actually read.
        computed: u64,
    },
    /// Structurally malformed contents (CSR invariants violated, reserved
    /// flags set, implausible dimensions).
    Format(String),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "I/O error: {e}"),
            BinError::BadMagic => write!(f, "bad magic: not a BGPCCSR2 file"),
            BinError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v} (reader supports {FORMAT_VERSION})")
            }
            BinError::Truncated => write!(f, "truncated file: ended before declared contents"),
            BinError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: trailer {stored:#018x}, computed {computed:#018x} — \
                 file is corrupt"
            ),
            BinError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            BinError::Truncated
        } else {
            BinError::Io(e)
        }
    }
}

/// Streaming FNV-1a 64 — the checksum behind the trailer. Public so the
/// serving layer's result cache can use the identical discipline for its
/// own entry format.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Writer adapter that folds everything written into an [`Fnv1a`].
struct HashingWriter<W> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            hash: Fnv1a::new(),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.inner.write_all(buf)?;
        self.hash.update(buf);
        Ok(())
    }
}

/// Reader adapter that folds everything read into an [`Fnv1a`].
struct HashingReader<R> {
    inner: R,
    hash: Fnv1a,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        Self {
            inner,
            hash: Fnv1a::new(),
        }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), BinError> {
        self.inner.read_exact(buf)?;
        self.hash.update(buf);
        Ok(())
    }

    fn read_u64(&mut self) -> Result<u64, BinError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_u32(&mut self) -> Result<u32, BinError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
}

/// Writes a pattern in the binary cache format (version
/// [`FORMAT_VERSION`], checksum trailer included). The on-disk
/// row-pointer width is u64, wider than the in-memory `u32`.
pub fn write_bin<W: Write>(w: W, m: &Csr) -> std::io::Result<()> {
    let mut w = HashingWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // reserved flags
    w.write_all(&(m.nrows() as u64).to_le_bytes())?;
    w.write_all(&(m.ncols() as u64).to_le_bytes())?;
    w.write_all(&(m.nnz() as u64).to_le_bytes())?;
    for &p in m.row_ptr() {
        w.write_all(&u64::from(p).to_le_bytes())?;
    }
    for &j in m.col_idx() {
        w.write_all(&j.to_le_bytes())?;
    }
    let checksum = w.hash.finish();
    w.inner.write_all(&checksum.to_le_bytes())
}

/// Reads a pattern from the binary cache format, verifying magic, version,
/// checksum trailer, and all CSR invariants before returning. Truncation
/// and corruption surface as the matching [`BinError`] variant — garbage
/// never reaches the graph layer.
pub fn read_bin<R: Read>(r: R) -> Result<Csr, BinError> {
    let mut r = HashingReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(BinError::BadMagic);
    }
    let version = r.read_u32()?;
    if version != FORMAT_VERSION {
        return Err(BinError::UnsupportedVersion(version));
    }
    let flags = r.read_u32()?;
    if flags != 0 {
        return Err(BinError::Format(format!("reserved flags set: {flags:#x}")));
    }
    let nrows = r.read_u64()? as usize;
    let ncols = r.read_u64()? as usize;
    let nnz = r.read_u64()? as usize;
    // Sanity bounds before allocating: a corrupt header must not drive a
    // giant allocation. Dimensions are capped by the u32 column index
    // space; the checksum would catch the flip anyway, but only after the
    // allocation it sized.
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return Err(BinError::Format("dimensions exceed u32".into()));
    }
    // Cap the *pre-allocation*, not the size: push() grows geometrically,
    // and a lying nrows hits Truncated long before memory pressure.
    let mut row_ptr = Vec::with_capacity((nrows + 1).min(1 << 20));
    for _ in 0..=nrows {
        row_ptr.push(r.read_u64()? as usize);
    }
    if row_ptr[nrows] != nnz {
        return Err(BinError::Format(format!(
            "row pointer end {} disagrees with header nnz {}",
            row_ptr[nrows], nnz
        )));
    }
    let mut col_idx: Vec<u32> = Vec::with_capacity(nnz.min(1 << 22));
    let mut chunk = [0u8; 4096];
    let mut remaining = nnz * 4;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        col_idx.extend(
            chunk[..take]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        remaining -= take;
    }
    let computed = r.hash.finish();
    let mut trailer = [0u8; 8];
    r.inner.read_exact(&mut trailer).map_err(BinError::from)?;
    let stored = u64::from_le_bytes(trailer);
    if stored != computed {
        return Err(BinError::ChecksumMismatch { stored, computed });
    }
    Csr::try_from_parts(nrows, ncols, row_ptr, col_idx)
        .map_err(|e| BinError::Format(format!("CSR invariants violated: {e}")))
}

/// Writes to a file path.
pub fn write_bin_file(path: impl AsRef<Path>, m: &Csr) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(f);
    write_bin(&mut w, m)?;
    w.flush()
}

/// Reads from a file path.
pub fn read_bin_file(path: impl AsRef<Path>) -> Result<Csr, BinError> {
    let f = std::fs::File::open(path)?;
    read_bin(std::io::BufReader::new(f))
}

/// Loads a dataset instance through a cache directory: on a cache hit the
/// pattern is read from disk, otherwise it is generated and cached. A
/// corrupt or stale-format cache entry (failed magic/version/checksum) is
/// silently regenerated — the cache is an accelerator, never a source of
/// truth.
pub fn load_cached(
    dataset: crate::Dataset,
    scale: f64,
    seed: u64,
    cache_dir: impl AsRef<Path>,
) -> Result<Csr, BinError> {
    let dir = cache_dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let key = format!("{}_{:e}_{}.bgpccsr", dataset.name().replace('/', "_"), scale, seed);
    let path = dir.join(key);
    if path.exists() {
        if let Ok(m) = read_bin_file(&path) {
            return Ok(m);
        }
        // fall through on a corrupt cache entry and regenerate
    }
    let m = dataset.build(scale, seed).matrix;
    write_bin_file(&path, &m)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = crate::gen::bipartite_uniform(30, 40, 300, 9);
        let mut buf = Vec::new();
        write_bin(&mut buf, &m).unwrap();
        let back = read_bin(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let m = Csr::empty(3, 7);
        let mut buf = Vec::new();
        write_bin(&mut buf, &m).unwrap();
        assert_eq!(read_bin(buf.as_slice()).unwrap(), m);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_bin(&b"NOTMAGIC........"[..]).unwrap_err();
        assert!(matches!(err, BinError::BadMagic));
    }

    #[test]
    fn v1_files_rejected_as_bad_magic() {
        // Pre-checksum files carry the old magic; they must be rejected
        // cleanly (load_cached regenerates them) rather than misparsed.
        let err = read_bin(&b"BGPCCSR1\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, BinError::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let m = Csr::from_rows(2, &[vec![0], vec![1]]);
        let mut buf = Vec::new();
        write_bin(&mut buf, &m).unwrap();
        buf[8] = 99; // version word follows the 8-byte magic
        let err = read_bin(buf.as_slice()).unwrap_err();
        assert!(matches!(err, BinError::UnsupportedVersion(99)));
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let m = crate::gen::bipartite_uniform(10, 10, 40, 1);
        let mut buf = Vec::new();
        write_bin(&mut buf, &m).unwrap();
        // Chop at every prefix length: header, arrays, and trailer cuts
        // must all surface as Truncated (never a panic, never an Ok).
        for cut in 8..buf.len() {
            let err = read_bin(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, BinError::Truncated),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let m = crate::gen::bipartite_uniform(8, 9, 30, 2);
        let mut buf = Vec::new();
        write_bin(&mut buf, &m).unwrap();
        // Flip one bit per byte position across the whole file (including
        // the trailer itself): the reader must reject every variant with a
        // structured error. This is the bit-rot detection guarantee the
        // serving layer's crash-safe cache builds on.
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 1 << (pos % 8);
            let r = read_bin(bad.as_slice());
            assert!(r.is_err(), "bit flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn corrupt_col_idx_is_checksum_mismatch() {
        let m = Csr::from_rows(3, &[vec![0], vec![1]]);
        let mut buf = Vec::new();
        write_bin(&mut buf, &m).unwrap();
        // Clobber a column index (the 4 bytes before the 8-byte trailer).
        let len = buf.len();
        buf[len - 12..len - 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_bin(buf.as_slice()).unwrap_err(),
            BinError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn cache_hits_and_misses() {
        let dir = std::env::temp_dir().join(format!("bgpc-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = load_cached(crate::Dataset::AfShell10, 0.002, 1, &dir).unwrap();
        // second call must hit the cache and agree
        let b = load_cached(crate::Dataset::AfShell10, 0.002, 1, &dir).unwrap();
        assert_eq!(a, b);
        // one cache file created
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_entry_is_regenerated() {
        let dir = std::env::temp_dir().join(format!("bgpc-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = load_cached(crate::Dataset::AfShell10, 0.002, 7, &dir).unwrap();
        // Tear the entry mid-file, as a crash mid-write would.
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        let b = load_cached(crate::Dataset::AfShell10, 0.002, 7, &dir).unwrap();
        assert_eq!(a, b, "regenerated pattern must match the original");
        // The regenerated entry reads back clean.
        assert!(read_bin_file(&entry).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 vectors.
        let mut h = Fnv1a::new();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        let mut h = Fnv1a::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }
}
