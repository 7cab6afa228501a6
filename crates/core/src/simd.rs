//! Runtime-dispatched SIMD first-fit scan over [`crate::BitStampSet`]
//! words.
//!
//! Mirrors the [`crate::StampSet`] / [`crate::BitStampSet`] pattern one
//! level down: the scalar word loop in [`crate::forbidden`] remains the
//! executable specification, and the vectorized scan in this module must
//! return *bit-identical* answers (a property test drives randomized
//! states through both paths). The distance-2 mark and conflict sweeps of
//! [`crate::vertex`], [`crate::net`] and [`crate::d2gc`] are scalar on
//! every tier.
//!
//! Dispatch is runtime-detected on x86-64 (`is_x86_feature_detected!`):
//!
//! * **AVX2** — packed stamp-compare first-fit, four forbidden-set words
//!   (256 colors) per loop iteration.
//! * **SSE2** — the x86-64 baseline: the same compare, two words per
//!   iteration.
//! * **Scalar** — every other architecture, and the `--kernel scalar`
//!   override. Identical to the spec by construction (it *is* the spec
//!   loop).
//!
//! The public face is [`KernelImpl`] — the `--kernel scalar|simd|auto`
//! axis carried by [`crate::Schedule`] and installed into each thread's
//! forbidden set — which resolves to an [`ActiveKernel`] once per run.

use crate::color::Color;
use crate::forbidden::WordEntry;

/// Requested kernel implementation — the `--kernel` axis.
///
/// `Simd` *requests* vectorization but still degrades to the widest tier
/// the CPU actually has (scalar on non-x86-64); `Auto` is the same policy
/// spelled as a default. Forcing `Scalar` pins the executable-spec loops,
/// which is what the differential oracle and the bench baseline use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelImpl {
    /// Force the scalar spec loops everywhere.
    Scalar,
    /// Use the widest vector tier the CPU supports (scalar fallback
    /// elsewhere).
    Simd,
    /// Same resolution as [`KernelImpl::Simd`]; the default, so unpinned
    /// runs get the fast path without opting in.
    #[default]
    Auto,
}

impl KernelImpl {
    /// All axis values, for benchmark/test matrices.
    pub fn all() -> [KernelImpl; 3] {
        [KernelImpl::Scalar, KernelImpl::Simd, KernelImpl::Auto]
    }

    /// Stable label used in CLI flags and benchmark records.
    pub fn label(self) -> &'static str {
        match self {
            KernelImpl::Scalar => "scalar",
            KernelImpl::Simd => "simd",
            KernelImpl::Auto => "auto",
        }
    }

    /// Parses a label (accepts `scalar`, `simd`/`vector`, `auto`).
    pub fn from_name(name: &str) -> Option<KernelImpl> {
        match name {
            "scalar" => Some(KernelImpl::Scalar),
            "simd" | "vector" => Some(KernelImpl::Simd),
            "auto" => Some(KernelImpl::Auto),
            _ => None,
        }
    }

    /// Resolves the request against the running CPU, once per run.
    ///
    /// `is_x86_feature_detected!` caches its CPUID probe, so calling this
    /// per `ThreadCtx` costs one relaxed load.
    pub fn resolve(self) -> ActiveKernel {
        match self {
            KernelImpl::Scalar => ActiveKernel::Scalar,
            KernelImpl::Simd | KernelImpl::Auto => widest_supported(),
        }
    }
}

impl std::fmt::Display for KernelImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The resolved dispatch tier a run actually executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ActiveKernel {
    /// The executable-spec scalar loops.
    #[default]
    Scalar,
    /// x86-64 baseline: packed first-fit scan, two words per iteration.
    Sse2,
    /// Packed first-fit scan, four words per iteration.
    Avx2,
}

impl ActiveKernel {
    /// Stable label stamped into traces and benchmark records.
    pub fn label(self) -> &'static str {
        match self {
            ActiveKernel::Scalar => "scalar",
            ActiveKernel::Sse2 => "sse2",
            ActiveKernel::Avx2 => "avx2",
        }
    }

    /// Whether any vectorized path is active.
    #[inline]
    pub fn is_vector(self) -> bool {
        !matches!(self, ActiveKernel::Scalar)
    }
}

#[cfg(target_arch = "x86_64")]
fn widest_supported() -> ActiveKernel {
    if std::arch::is_x86_feature_detected!("avx2") {
        ActiveKernel::Avx2
    } else {
        // SSE2 is architecturally guaranteed on x86-64.
        ActiveKernel::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn widest_supported() -> ActiveKernel {
    ActiveKernel::Scalar
}

/// Comma-separated ISA feature string stamped into `BENCH_*.json` so runs
/// are comparable across machines: `"sse2,avx2"`, `"sse2"`, or `"scalar"`.
pub fn isa_features() -> &'static str {
    match widest_supported() {
        ActiveKernel::Avx2 => "sse2,avx2",
        ActiveKernel::Sse2 => "sse2",
        ActiveKernel::Scalar => "scalar",
    }
}

// ---------------------------------------------------------------------------
// First-fit over BitStampSet words
// ---------------------------------------------------------------------------

/// The word covering colors `64*wi..64*wi+64`, reading stale and
/// out-of-range words as empty — the same contract as
/// `BitStampSet::live_word`.
#[inline]
fn live_word(entries: &[WordEntry], mark: u64, wi: usize) -> u64 {
    match entries.get(wi) {
        Some(e) if e.stamp == mark => e.bits,
        _ => 0,
    }
}

/// Scalar multi-word scan from word `wi` (no sub-word mask) — the spec
/// tail shared by every tier.
fn scalar_scan(entries: &[WordEntry], mark: u64, mut wi: usize) -> Color {
    let mut forbidden = live_word(entries, mark, wi);
    // Terminates: words past the backing array read as empty.
    while forbidden == u64::MAX {
        wi += 1;
        forbidden = live_word(entries, mark, wi);
    }
    (wi * 64 + forbidden.trailing_ones() as usize) as Color
}

/// Vectorized first-fit over interleaved `[stamp, bits]` word entries:
/// smallest color `≥ from` whose bit is clear in the live bitmap.
///
/// Must agree exactly with `BitStampSet::first_fit_from` under
/// [`ActiveKernel::Scalar`] — the partial leading word is always handled
/// by the scalar spec, then SSE2/AVX2 tiers scan 1/2 full words per probe
/// with a packed stamp-compare instead of a per-word branch.
#[inline]
pub(crate) fn first_fit_words(
    entries: &[WordEntry],
    mark: u64,
    from: Color,
    kernel: ActiveKernel,
) -> Color {
    debug_assert!(from >= 0);
    let start = from as usize;
    let wi = start / 64;
    let first = live_word(entries, mark, wi) | ((1u64 << (start % 64)) - 1);
    if first != u64::MAX {
        return (wi * 64 + first.trailing_ones() as usize) as Color;
    }
    match kernel {
        ActiveKernel::Scalar => scalar_scan(entries, mark, wi + 1),
        // A vector probe needs at least one full block past the leading
        // word to pay for the (non-inlinable `target_feature`) call; tiny
        // scans go straight to the spec tail instead of eating pure
        // dispatch overhead.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel` only resolves to these tiers when
        // `widest_supported` confirmed the features at runtime.
        ActiveKernel::Sse2 if entries.len() > wi + 2 => unsafe {
            sse2_scan(entries, mark, wi + 1)
        },
        #[cfg(target_arch = "x86_64")]
        ActiveKernel::Avx2 if entries.len() > wi + 4 => unsafe {
            avx2_scan(entries, mark, wi + 1)
        },
        _ => scalar_scan(entries, mark, wi + 1),
    }
}

// Both x86 tiers exploit the same exactness argument: a word with no free
// color is *precisely* the 16-byte entry `[stamp = mark, bits = all-ones]`
// — any other stamp reads as live = 0 (all colors free) and any other
// bits value has a zero bit. The hot loop therefore needs only a packed
// equality against that constant pattern; the first block that mismatches
// is handed to the scalar spec tail, which pinpoints the free bit. That
// keeps the dense-scan loop at one compare + one branch per block instead
// of the stamp-mask/extract dance per word.

/// SSE2 word scan: two 16-byte `[stamp, bits]` entries per iteration,
/// full-pattern compare only (SSE2 has no 64-bit compare, but whole-entry
/// equality falls out of `cmpeq_epi32` across all four lanes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sse2_scan(entries: &[WordEntry], mark: u64, mut wi: usize) -> Color {
    use std::arch::x86_64::*;
    let full_pat = _mm_set_epi64x(-1, mark as i64);
    while wi + 1 < entries.len() {
        // SAFETY: wi + 1 < entries.len() and WordEntry is repr(C) 16 bytes.
        let v0 = _mm_loadu_si128(entries.as_ptr().add(wi) as *const __m128i);
        let v1 = _mm_loadu_si128(entries.as_ptr().add(wi + 1) as *const __m128i);
        let eq = _mm_and_si128(_mm_cmpeq_epi32(v0, full_pat), _mm_cmpeq_epi32(v1, full_pat));
        if _mm_movemask_epi8(eq) != 0xFFFF {
            break;
        }
        wi += 2;
    }
    // First mismatching block, odd tail, or past the array: the scalar
    // spec walks at most two full words to the free bit.
    scalar_scan(entries, mark, wi)
}

/// AVX2 word scan: four entries (256 colors) per iteration via two 32-byte
/// loads whose full-pattern compares are ANDed into a single branch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_scan(entries: &[WordEntry], mark: u64, mut wi: usize) -> Color {
    use std::arch::x86_64::*;
    // Lanes low→high: [stamp0, bits0, stamp1, bits1].
    let full_pat = _mm256_set_epi64x(-1, mark as i64, -1, mark as i64);
    while wi + 3 < entries.len() {
        // SAFETY: wi + 3 < entries.len(), so both 32-byte loads cover two
        // in-bounds repr(C) entries each.
        let v0 = _mm256_loadu_si256(entries.as_ptr().add(wi) as *const __m256i);
        let v1 = _mm256_loadu_si256(entries.as_ptr().add(wi + 2) as *const __m256i);
        let eq = _mm256_and_si256(
            _mm256_cmpeq_epi64(v0, full_pat),
            _mm256_cmpeq_epi64(v1, full_pat),
        );
        if _mm256_movemask_epi8(eq) as u32 != u32::MAX {
            break;
        }
        wi += 4;
    }
    // First mismatching block or the ≤3-entry tail: the scalar spec walks
    // at most four full words to the free bit.
    scalar_scan(entries, mark, wi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitStampSet;

    #[test]
    fn labels_roundtrip() {
        for k in KernelImpl::all() {
            assert_eq!(KernelImpl::from_name(k.label()), Some(k));
            assert_eq!(k.to_string(), k.label());
        }
        assert_eq!(KernelImpl::from_name("vector"), Some(KernelImpl::Simd));
        assert_eq!(KernelImpl::from_name("bogus"), None);
        assert_eq!(KernelImpl::default(), KernelImpl::Auto);
    }

    #[test]
    fn scalar_request_always_resolves_scalar() {
        assert_eq!(KernelImpl::Scalar.resolve(), ActiveKernel::Scalar);
        assert!(!ActiveKernel::Scalar.is_vector());
    }

    #[test]
    fn resolution_is_stable_and_consistent_with_isa_string() {
        let k = KernelImpl::Auto.resolve();
        assert_eq!(k, KernelImpl::Simd.resolve());
        match k {
            ActiveKernel::Avx2 => assert_eq!(isa_features(), "sse2,avx2"),
            ActiveKernel::Sse2 => assert_eq!(isa_features(), "sse2"),
            ActiveKernel::Scalar => assert_eq!(isa_features(), "scalar"),
        }
    }

    /// On non-x86-64, the scalar fallback must be the only resolution —
    /// this is the cfg-gated acceptance check for the fallback arches.
    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn non_x86_resolves_scalar() {
        for k in KernelImpl::all() {
            assert_eq!(k.resolve(), ActiveKernel::Scalar);
        }
        assert_eq!(isa_features(), "scalar");
    }

    #[test]
    fn first_fit_tiers_agree_on_dense_prefix() {
        // 0..N all forbidden: the scan must cross many full words.
        for n in [1usize, 63, 64, 65, 127, 128, 129, 200, 512] {
            let mut s = BitStampSet::with_capacity(n + 64);
            s.advance();
            for c in 0..n as Color {
                s.insert(c);
            }
            for from in [0, 1, 62, 63, 64, 65, 127, 128, n as Color] {
                let want = first_fit_words(s.raw_entries(), s.raw_mark(), from, ActiveKernel::Scalar);
                for k in [KernelImpl::Scalar.resolve(), KernelImpl::Simd.resolve()] {
                    assert_eq!(
                        first_fit_words(s.raw_entries(), s.raw_mark(), from, k),
                        want,
                        "n={n} from={from} kernel={}",
                        k.label()
                    );
                }
            }
        }
    }
}
