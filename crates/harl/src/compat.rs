//! The paper's two-tier `(h, s)` vocabulary for stripe tables.
//!
//! The canonical representation is per-class widths (`widths[0] = h`,
//! `widths[1] = s` at `K = 2`), and every request is priced through
//! [`crate::model::CostKernel`]. What remains here is the two-tier
//! shorthand for RST rows — the `{offset, len, h, s}` JSON shape and the
//! `h()`/`s()` accessors the paper's figures read.

use crate::rst::{RegionStripeTable, RstEntry};

impl RstEntry {
    /// A two-tier row: `h` on the HServer class, `s` on the SServer class.
    pub fn two(offset: u64, len: u64, h: u64, s: u64) -> Self {
        RstEntry::new(offset, len, vec![h, s])
    }

    /// HServer stripe size — `widths[0]` (0 when absent).
    #[inline]
    pub fn h(&self) -> u64 {
        self.width(0)
    }

    /// SServer stripe size — `widths[1]` (0 when absent).
    #[inline]
    pub fn s(&self) -> u64 {
        self.width(1)
    }
}

impl RegionStripeTable {
    /// A single-region two-tier table covering `[0, file_size)`.
    pub fn single(file_size: u64, h: u64, s: u64) -> Self {
        RegionStripeTable::uniform(file_size, vec![h, s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tier_entry_accessors() {
        let e = RstEntry::two(0, 1024, 4, 8);
        assert_eq!((e.h(), e.s()), (4, 8));
        assert_eq!(e.widths(), &[4, 8]);
        // A widths row short of two classes reads as zero, not a panic.
        let solo = RstEntry::new(0, 1024, vec![4]);
        assert_eq!((solo.h(), solo.s()), (4, 0));
    }
}
