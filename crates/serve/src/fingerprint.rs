//! Content-addressing for CSR patterns.
//!
//! The result cache keys on a 128-bit FNV-1a fingerprint of the pattern's
//! dimensions and structure (`nrows`, `ncols`, `row_ptr`, `col_idx`).
//! FNV-1a is not cryptographic — the threat model here is accidental
//! collision and corruption, not an adversary hunting collisions — but at
//! 128 bits accidental collision is negligible for any realistic cache
//! population, and the hash shares its shape with the 64-bit
//! [`sparse::bin_io::Fnv1a`] used for the on-disk checksum trailers.

use sparse::Csr;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Streaming 128-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a128(u128);

impl Fnv1a128 {
    /// New hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a128(FNV128_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV128_PRIME);
        }
        self.0 = h;
    }

    /// Final digest.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv1a128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Fingerprints a CSR pattern: dimensions, row pointers and column
/// indices, each serialized little-endian (row pointers widened to
/// `u64`). Two patterns get the same fingerprint iff they are
/// structurally identical.
pub fn csr_fingerprint(m: &Csr) -> u128 {
    let mut h = Fnv1a128::new();
    h.update(&(m.nrows() as u64).to_le_bytes());
    h.update(&(m.ncols() as u64).to_le_bytes());
    for &p in m.row_ptr() {
        h.update(&u64::from(p).to_le_bytes());
    }
    for &c in m.col_idx() {
        h.update(&c.to_le_bytes());
    }
    h.finish()
}

/// Renders a fingerprint as the 32-hex-char cache entry stem.
pub fn fingerprint_hex(fp: u128) -> String {
    format!("{fp:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_patterns_share_a_fingerprint() {
        let a = sparse::gen::bipartite_uniform(40, 30, 200, 7);
        let b = sparse::gen::bipartite_uniform(40, 30, 200, 7);
        assert_eq!(csr_fingerprint(&a), csr_fingerprint(&b));
    }

    #[test]
    fn different_patterns_differ() {
        let a = sparse::gen::bipartite_uniform(40, 30, 200, 7);
        let b = sparse::gen::bipartite_uniform(40, 30, 200, 8);
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&b));
    }

    #[test]
    fn hex_is_32_chars_zero_padded() {
        assert_eq!(fingerprint_hex(0).len(), 32);
        assert_eq!(fingerprint_hex(0xabc), format!("{:032x}", 0xabcu128));
    }

    #[test]
    fn empty_input_hashes_to_offset_basis() {
        assert_eq!(Fnv1a128::new().finish(), FNV128_OFFSET);
    }
}
