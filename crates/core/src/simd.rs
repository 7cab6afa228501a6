//! The host's vector ISA, as a run stamp.
//!
//! Every kernel is scalar; this string only labels benchmark records so
//! runs are comparable across machines.

/// Comma-separated ISA feature string stamped into benchmark records:
/// `"sse2,avx2"`, `"sse2"`, or `"scalar"` off x86-64.
pub fn isa_features() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is architecturally guaranteed on x86-64.
        if std::arch::is_x86_feature_detected!("avx2") {
            "sse2,avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}
