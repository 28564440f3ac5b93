//! Round-robin varied-size striping geometry.
//!
//! A parallel file is distributed over servers in *stripe groups*: one
//! group is a sequence of segments, one per participating server, where
//! segment `i` has that server's stripe width. Groups repeat round-robin
//! down the file address space. In the paper's two-class notation a group is
//! `M` segments of width `h` (the HServers) followed by `N` segments of
//! width `s` (the SServers) and the group size is `S = M·h + N·s`; this
//! module implements the general K-class form and offers closed-form
//! per-server byte accounting so the HARL optimizer can cost a request in
//! `O(M + N)` instead of walking stripes.

use serde::{Deserialize, Serialize};

/// The per-group segment widths of a striped file.
///
/// `widths[i]` is the stripe size of the i-th participating server slot.
/// Zero widths are allowed for any slot (the paper's `h = 0` case, Fig. 9,
/// generalises to "this class holds no data" at any class count): a slot
/// with zero width simply does not participate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupLayout {
    widths: Vec<u64>,
    /// Prefix sums of `widths`: `starts[i]` is segment i's offset within a
    /// group; `starts[len]` is the group size `S`.
    starts: Vec<u64>,
}

impl GroupLayout {
    /// Build a layout from per-slot widths.
    ///
    /// # Panics
    /// Panics if all widths are zero — a file must live somewhere — or if
    /// they sum past `u64::MAX`. Layouts arriving from outside the process
    /// (scenario files, tables loaded from disk) should go through
    /// [`Self::try_new`] instead.
    pub fn new(widths: Vec<u64>) -> Self {
        #[allow(clippy::panic)]
        match Self::try_new(widths) {
            Ok(l) => l,
            Err(reason) => panic!("{reason}"),
        }
    }

    /// Build a layout from per-slot widths, reporting a validation failure
    /// as a descriptive error instead of panicking — the entry point for
    /// layouts parsed from scenario files or loaded from disk.
    pub fn try_new(widths: Vec<u64>) -> Result<Self, String> {
        if widths.is_empty() {
            return Err("group layout has no slots".into());
        }
        let mut starts = Vec::with_capacity(widths.len() + 1);
        let mut acc = 0u64;
        starts.push(0);
        for &w in &widths {
            acc = acc.checked_add(w).ok_or_else(|| {
                format!(
                    "group layout overflows u64: its {} widths sum past 2^64",
                    widths.len()
                )
            })?;
            starts.push(acc);
        }
        if acc == 0 {
            return Err(format!(
                "group layout with no capacity (all {} widths zero)",
                widths.len()
            ));
        }
        Ok(GroupLayout { widths, starts })
    }

    /// A homogeneous fixed-stripe layout over `k` slots.
    pub fn fixed(k: usize, stripe: u64) -> Self {
        GroupLayout::new(vec![stripe; k])
    }

    /// Stripe group size `S` (sum of widths).
    #[inline]
    pub fn group_size(&self) -> u64 {
        // `starts` always begins with 0, so `last()` never misses; the 0
        // arm only documents the total order for an impossible state.
        self.starts.last().map_or(0, |&s| s)
    }

    /// Number of slots (including zero-width ones).
    #[inline]
    pub fn slots(&self) -> usize {
        self.widths.len()
    }

    /// The width of slot `i`.
    #[inline]
    pub fn width(&self, i: usize) -> u64 {
        self.widths[i]
    }

    /// All widths.
    #[inline]
    pub fn widths(&self) -> &[u64] {
        &self.widths
    }

    /// Bytes of the file range `[0, x)` that land on slot `i`.
    ///
    /// Closed form: `x` covers `x / S` complete groups (each contributing
    /// `width` bytes to the slot) plus a partial group of `x % S` bytes, of
    /// which the slot's segment `[start, start + width)` holds the clamped
    /// overlap.
    #[inline]
    pub fn bytes_below(&self, slot: usize, x: u64) -> u64 {
        let s = self.group_size();
        let w = self.widths[slot];
        if w == 0 {
            return 0;
        }
        let full = x / s;
        let rem = x % s;
        let b = self.starts[slot];
        full * w + rem.saturating_sub(b).min(w)
    }

    /// Bytes of the request `[offset, offset + len)` that land on slot `i`.
    #[inline]
    pub fn bytes_in_range(&self, slot: usize, offset: u64, len: u64) -> u64 {
        self.bytes_below(slot, offset + len) - self.bytes_below(slot, offset)
    }

    /// Per-slot byte counts for a request — the request's *sub-requests*.
    ///
    /// Returns `(slot, bytes)` for every slot receiving at least one byte.
    /// The sum of the byte counts always equals `len` (conservation — see
    /// the property tests).
    pub fn split(&self, offset: u64, len: u64) -> Vec<(usize, u64)> {
        if len == 0 {
            return Vec::new();
        }
        let s = self.group_size();
        if len >= s {
            // The request covers at least one full group: every non-empty
            // slot is touched, so the all-slots scan is already
            // proportional to the output.
            let mut out = Vec::with_capacity(self.widths.len());
            for slot in 0..self.widths.len() {
                let b = self.bytes_in_range(slot, offset, len);
                if b > 0 {
                    out.push((slot, b));
                }
            }
            return out;
        }
        // Narrow request (< one group): it touches one contiguous arc of
        // segments, wrapping the group boundary at most once. Binary
        // search locates the arc so the cost is O(log slots + touched)
        // instead of a full-slot scan — the MDS split of a single-stripe
        // request on a 4096-server file must not walk 4096 slots.
        let rem = offset % s;
        let end = rem + len; // < 2S
        let slot_of = |x: u64| self.starts.partition_point(|&b| b <= x) - 1;
        let i0 = slot_of(rem);
        let i1 = slot_of(end.min(s) - 1);
        let mut out = Vec::with_capacity(i1 - i0 + 2);
        let mut emit = |slot: usize| {
            let b = self.bytes_in_range(slot, offset, len);
            if b > 0 {
                out.push((slot, b));
            }
        };
        if end > s {
            // Wrapped tail `[0, end - s)`; since `len < S` its last slot
            // `j` never passes `i0`, so emitting `0..=j` first and then
            // `max(i0, j + 1)..=i1` keeps ascending order without
            // duplicates (a slot in both arcs aggregates both fragments
            // in one `bytes_in_range` call).
            let j = slot_of(end - s - 1);
            for slot in 0..=j {
                emit(slot);
            }
            for slot in i0.max(j + 1)..=i1 {
                emit(slot);
            }
        } else {
            for slot in i0..=i1 {
                emit(slot);
            }
        }
        out
    }

    /// The *contiguous-fragment* sub-request sizes for a request, per slot.
    ///
    /// Where [`split`](Self::split) aggregates all of a slot's bytes, this
    /// returns the size of the largest single stripe fragment the slot must
    /// serve — the quantity the paper's cost model calls `s_m`/`s_n` is the
    /// *total* per-server load in our reading (each server serves its
    /// fragments back to back), so the aggregate is what the cost model
    /// uses; the fragment view is provided for diagnostics and tests.
    pub fn largest_fragment(&self, slot: usize, offset: u64, len: u64) -> u64 {
        let w = self.widths[slot];
        if w == 0 || len == 0 {
            return 0;
        }
        let s = self.group_size();
        let b = self.starts[slot];
        let end = offset + len;
        // Scan the groups the request touches; bounded by len/S + 2 groups.
        let first_group = offset / s;
        let last_group = (end - 1) / s;
        let mut best = 0;
        for g in first_group..=last_group {
            let seg_lo = g * s + b;
            let seg_hi = seg_lo + w;
            let lo = seg_lo.max(offset);
            let hi = seg_hi.min(end);
            if hi > lo {
                best = best.max(hi - lo);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's two-class widths: `m` slots of width `h`, then `n` of
    /// width `s`.
    fn two_class_widths(m: usize, h: u64, n: usize, s: u64) -> Vec<u64> {
        [vec![h; m], vec![s; n]].concat()
    }

    /// Brute-force byte accounting for cross-checking the closed form.
    fn brute_bytes(layout: &GroupLayout, slot: usize, offset: u64, len: u64) -> u64 {
        let s = layout.group_size();
        let b: u64 = layout.starts[slot];
        let w = layout.width(slot);
        (offset..offset + len)
            .filter(|&x| {
                let r = x % s;
                r >= b && r < b + w
            })
            .count() as u64
    }

    #[test]
    fn two_class_group_size() {
        let l = GroupLayout::new(two_class_widths(6, 32 * 1024, 2, 160 * 1024));
        assert_eq!(l.group_size(), 6 * 32 * 1024 + 2 * 160 * 1024);
        assert_eq!(l.slots(), 8);
    }

    #[test]
    fn fixed_layout_splits_evenly() {
        // 512 KiB request over 8 servers with 64 KiB stripes: one stripe each.
        let l = GroupLayout::fixed(8, 64 * 1024);
        let split = l.split(0, 512 * 1024);
        assert_eq!(split.len(), 8);
        for (_, bytes) in split {
            assert_eq!(bytes, 64 * 1024);
        }
    }

    #[test]
    fn split_conserves_bytes() {
        let l = GroupLayout::new(two_class_widths(6, 32 * 1024, 2, 160 * 1024));
        for (o, r) in [
            (0u64, 512 * 1024u64),
            (12_345, 512 * 1024),
            (1_000_000, 777),
            (0, 1),
            (65_535, 2),
        ] {
            let total: u64 = l.split(o, r).iter().map(|&(_, b)| b).sum();
            assert_eq!(total, r, "offset {o} len {r}");
        }
    }

    #[test]
    fn closed_form_matches_brute_force() {
        let l = GroupLayout::new(two_class_widths(3, 4096, 2, 10_240));
        for slot in 0..l.slots() {
            for &(o, r) in &[(0u64, 30_000u64), (5_000, 12_345), (40_000, 1), (4095, 2)] {
                assert_eq!(
                    l.bytes_in_range(slot, o, r),
                    brute_bytes(&l, slot, o, r),
                    "slot {slot} offset {o} len {r}"
                );
            }
        }
    }

    #[test]
    fn zero_width_slot_gets_nothing() {
        // Paper Fig. 9: optimal layout {0KB, 64KB} stores nothing on HServers.
        let l = GroupLayout::new(two_class_widths(6, 0, 2, 64 * 1024));
        let split = l.split(0, 128 * 1024);
        assert_eq!(split, vec![(6, 64 * 1024), (7, 64 * 1024)]);
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn all_zero_widths_rejected() {
        GroupLayout::new(two_class_widths(4, 0, 2, 0));
    }

    #[test]
    fn try_new_reports_descriptive_errors() {
        let err = GroupLayout::try_new(vec![0, 0, 0]).unwrap_err();
        assert!(err.contains("no capacity"), "got: {err}");
        assert!(err.contains('3'), "should name the slot count: {err}");
        let err = GroupLayout::try_new(Vec::new()).unwrap_err();
        assert!(err.contains("no slots"), "got: {err}");
        assert!(GroupLayout::try_new(vec![0, 64]).is_ok());
        // A group past u64::MAX is an error, not a wrapped group size.
        let err = GroupLayout::try_new(vec![u64::MAX, 1]).unwrap_err();
        assert!(err.contains("overflows u64"), "got: {err}");
        assert!(GroupLayout::try_new(vec![u64::MAX - 1, 1]).is_ok());
    }

    #[test]
    fn request_inside_single_stripe() {
        let l = GroupLayout::fixed(4, 64 * 1024);
        // Entirely within server 1's first stripe.
        let split = l.split(64 * 1024 + 100, 1000);
        assert_eq!(split, vec![(1, 1000)]);
    }

    #[test]
    fn request_spanning_group_boundary() {
        let l = GroupLayout::fixed(2, 100);
        // Group size 200. Request [150, 260): 50 bytes on slot 1 (first
        // group), 100 on slot 0 (second group... byte 200..260 -> slot 0
        // holds 200..300) so 60 bytes.
        let split = l.split(150, 110);
        assert_eq!(split, vec![(0, 60), (1, 50)]);
    }

    #[test]
    fn multi_group_request() {
        let l = GroupLayout::new(two_class_widths(2, 100, 1, 300));
        // S = 500. Request [0, 1250) covers 2 full groups + 250 bytes.
        let split = l.split(0, 1250);
        let total: u64 = split.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 1250);
        // slot0 segments [0,100),[500,600),[1000,1100): all inside => 300.
        assert_eq!(l.bytes_in_range(0, 0, 1250), 300);
        // slot1 segments [100,200),[600,700),[1100,1200): all inside => 300.
        assert_eq!(l.bytes_in_range(1, 0, 1250), 300);
        // slot2 segments [200,500),[700,1000),[1200,1500): 300+300+50 = 650.
        assert_eq!(l.bytes_in_range(2, 0, 1250), 650);
    }

    #[test]
    fn largest_fragment_simple() {
        let l = GroupLayout::fixed(2, 100);
        // Request [50, 350): slot0 gets [50,100) and [200,300): largest 100.
        assert_eq!(l.largest_fragment(0, 50, 300), 100);
        // slot1 gets [100,200) and [300,350): largest 100.
        assert_eq!(l.largest_fragment(1, 50, 300), 100);
        // Small request in one stripe.
        assert_eq!(l.largest_fragment(0, 10, 20), 20);
        assert_eq!(l.largest_fragment(1, 10, 20), 0);
    }

    #[test]
    fn largest_fragment_zero_cases() {
        let l = GroupLayout::new(two_class_widths(1, 0, 1, 100));
        assert_eq!(l.largest_fragment(0, 0, 1000), 0);
        assert_eq!(l.largest_fragment(1, 0, 0), 0);
    }

    #[test]
    fn k_class_layout() {
        // Three device classes — the paper's future-work extension.
        let l = GroupLayout::new(vec![100, 100, 200, 400]);
        assert_eq!(l.group_size(), 800);
        let split = l.split(0, 800);
        assert_eq!(split, vec![(0, 100), (1, 100), (2, 200), (3, 400)]);
    }
}
