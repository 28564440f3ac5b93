//! Audited integer conversions for the cost model.
//!
//! The Sec. III-D cost model (model.rs, optimizer.rs, analysis.rs) carries
//! clippy's cast tier (`cast_possible_truncation`, `cast_possible_wrap`,
//! `cast_sign_loss`, `cast_lossless`; see `lib.rs`), because `as` silently
//! wraps on narrowing and silently reinterprets on sign changes. Every
//! conversion the model needs goes through one of these helpers instead,
//! each with an explicit policy: lossless by `From`, or saturating at the
//! type bounds.
//!
//! Saturation never fires in practice — the model documents that byte
//! quantities stay below 2^63 (see `class_span_loads`) — so for all
//! in-domain values these are bit-identical to the casts they replace;
//! the point is that the out-of-domain behaviour is pinned and named
//! rather than target-dependent wrapping.
//!
//! Float→int conversion appears once (display rounding in analysis.rs)
//! and uses Rust's saturating float casts explicitly. `usize as f64` /
//! `u64 as f64` casts remain bare in the model: quantities below 2^53
//! convert exactly, and the tier leaves `as f64` alone (`cast_precision_loss`
//! is not in it) for that reason.

/// Widen `usize` to `u64`. Lossless on every supported target (Rust does
/// not ship `usize` wider than 64 bits with std).
#[inline]
pub(crate) fn usize_to_u64(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// Narrow `u64` to `usize`, saturating at `usize::MAX` (lossless on
/// 64-bit targets).
#[inline]
pub(crate) fn u64_to_usize(x: u64) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// Reinterpret `u64` as `i64`, saturating at `i64::MAX`. The model's
/// signed index arithmetic (`class_span_loads`) documents its < 2^63
/// domain, so this is exact in-domain.
#[inline]
pub(crate) fn u64_to_i64(x: u64) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

/// Reinterpret `i64` as `u64`, clamping negatives to zero. Used where a
/// signed intermediate (a count or load) is non-negative by construction.
#[inline]
pub(crate) fn i64_to_u64(x: i64) -> u64 {
    u64::try_from(x).unwrap_or(0)
}

/// Narrow `i64` to `usize`, clamping negatives to zero.
#[inline]
pub(crate) fn i64_to_usize(x: i64) -> usize {
    usize::try_from(x).unwrap_or(0)
}

/// Widen `usize` to `i64`, saturating at `i64::MAX`.
#[inline]
pub(crate) fn usize_to_i64(x: usize) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

/// Truncate a non-negative `f64` to `u64` for display. Rust's float→int
/// `as` saturates at the bounds (NaN → 0), which is exactly the wanted
/// behaviour; the cast lives here so the model files stay free of bare
/// casts.
#[inline]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub(crate) fn f64_to_u64(x: f64) -> u64 {
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_in_domain() {
        assert_eq!(usize_to_u64(12_345), 12_345);
        assert_eq!(u64_to_usize(12_345), 12_345);
        assert_eq!(u64_to_i64(1 << 62), 1 << 62);
        assert_eq!(i64_to_u64(1 << 62), 1 << 62);
        assert_eq!(i64_to_usize(42), 42);
        assert_eq!(usize_to_i64(42), 42);
    }

    #[test]
    fn saturation_is_pinned() {
        assert_eq!(u64_to_i64(u64::MAX), i64::MAX);
        assert_eq!(i64_to_u64(-1), 0);
        assert_eq!(i64_to_usize(-7), 0);
        assert_eq!(usize_to_i64(usize::MAX), i64::MAX);
    }

    #[test]
    fn float_rounding_saturates() {
        assert_eq!(f64_to_u64(3.7), 3);
        assert_eq!(f64_to_u64(-1.0), 0);
        assert_eq!(f64_to_u64(f64::NAN), 0);
    }
}
