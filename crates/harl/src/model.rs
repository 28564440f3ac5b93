//! The data-access cost model of Sec. III-D (Table I, Eqs. 1–8), priced
//! through one kernel.
//!
//! The paper writes the cost of one request under a two-class layout
//! `(h, s)` on `M` HServers and `N` SServers as per-class maxima, so the
//! same formula prices any number of classes `K` (the `(h, s)` model is
//! `K = 2` with `widths = [h, s]`):
//!
//! ```text
//! T = T_X + T_S + T_T
//! T_X = max_c s_c · t                            (network, Eq. 1)
//! T_S = max_c T_c^S                              (startup, Eqs. 3–5)
//!       T_c^S = α_min + k_c/(k_c+1) · (α_max − α_min)   (order statistic
//!                                                        of k_c uniform draws)
//! T_T = max_c s_c · β_c                          (transfer, Eq. 6)
//! ```
//!
//! where `s_c` is the largest per-server load in class `c` and `k_c` how
//! many of its servers the request touches. The paper derives them through
//! the case analysis of Figs. 4–5; `class_span_loads` computes them
//! *exactly* from the round-robin geometry in O(1) per class: every
//! server's load is a per-group base plus a step-function correction from
//! the two endpoint fragments, so only the segment boundaries need case
//! analysis, never the individual servers. The paper's case-(a) table is
//! kept as [`case_a_params`] so tests can confirm it agrees with the
//! closed form on its domain; a per-server scan lives in the property
//! tests as the independent oracle.
//!
//! [`CostKernel`] is the one implementation of Eqs. 1–8. It is built once
//! from a [`MultiProfileModel`], and every consumer prices requests
//! through it: the `K = 2` grid, the `K ≥ 3` descent, the online monitor,
//! the baseline policies, the space balancer and the CLI's residuals.

use crate::cast::{i64_to_u64, i64_to_usize, u64_to_i64, u64_to_usize, usize_to_i64, usize_to_u64};
use crate::multiprofile::MultiProfileModel;
use harl_devices::{OpKind, OpParams};

/// Eqs. 1–8 laid out for pricing many requests against one model.
///
/// Per op and per class it holds the server count, the device's per-byte
/// time `β` and the Eq. 3–4 startup maximum for every touched-server
/// count, so a request costs the O(1)-per-class geometry of
/// `class_span_loads` plus table reads — no order statistic per request.
/// The table holds exactly the values Eqs. 3–4 produce, and
/// `max(a, b)·t = max(a·t, b·t)` under IEEE rounding, so prices are
/// bit-identical to evaluating the equations term by term.
#[derive(Debug, Clone, PartialEq)]
pub struct CostKernel {
    /// Network per-byte time `t` (seconds/byte).
    t_s_per_byte: f64,
    /// The read-path terms of every class in class order, then the
    /// write-path terms.
    terms: Vec<ClassTerm>,
    /// Every term's startup maxima back to back: `startup[at + k]` is the
    /// expected maximum of `k` startup draws (Eqs. 3–4) for the term whose
    /// `at` it is, `0.0` at `k = 0`.
    startup: Vec<f64>,
}

/// One class's terms for one op.
#[derive(Debug, Clone, PartialEq)]
struct ClassTerm {
    /// Servers in the class.
    count: usize,
    /// Per-byte device time `β` (seconds/byte).
    beta: f64,
    /// Where the class's `count + 1` startup maxima start in
    /// `CostKernel::startup`.
    at: usize,
}

impl CostKernel {
    /// Lay out `model`'s terms.
    pub fn new(model: &MultiProfileModel) -> Self {
        let mut terms = Vec::with_capacity(2 * model.classes.len());
        let mut startup = Vec::new();
        for op in OpKind::ALL {
            for c in &model.classes {
                let p = match op {
                    OpKind::Read => &c.read,
                    OpKind::Write => &c.write,
                };
                terms.push(ClassTerm {
                    count: c.count,
                    beta: p.beta_s_per_byte,
                    at: startup.len(),
                });
                startup.extend((0..=c.count).map(|k| startup_max(p, k)));
            }
        }
        CostKernel {
            t_s_per_byte: model.t_s_per_byte,
            terms,
            startup,
        }
    }

    /// One op's class terms, in class order.
    #[inline]
    fn terms(&self, op: OpKind) -> &[ClassTerm] {
        let (read, write) = self.terms.split_at(self.terms.len() / 2);
        match op {
            OpKind::Read => read,
            OpKind::Write => write,
        }
    }

    /// Stripe group size `Σ count_c · w_c` of a width vector: the layout
    /// repeats every `group` bytes.
    ///
    /// # Panics
    /// Panics unless there is one width per class, or if the group is
    /// empty or overflows `u64`.
    pub(crate) fn group(&self, widths: &[u64]) -> u64 {
        let classes = self.terms(OpKind::Read);
        assert_eq!(widths.len(), classes.len(), "one width per class");
        let group = classes.iter().zip(widths).try_fold(0u64, |acc, (c, &w)| {
            acc.checked_add(usize_to_u64(c.count).checked_mul(w)?)
        });
        assert!(group.is_some(), "layout group overflows u64");
        let group = group.unwrap_or_default();
        assert!(group > 0, "layout has no capacity");
        group
    }

    /// Cost (seconds) of one request at region-relative `offset` of `size`
    /// bytes under per-class `widths` — Eq. 7 (reads) / Eq. 8 (writes).
    /// Zero-size requests cost nothing.
    ///
    /// # Panics
    /// For a non-empty request, panics unless there is one width per
    /// class, or if the stripe group `Σ count_c · w_c` is empty or
    /// overflows `u64`.
    pub fn request_cost(&self, offset: u64, size: u64, op: OpKind, widths: &[u64]) -> f64 {
        if size == 0 {
            return 0.0;
        }
        let group = self.group(widths);
        self.cost_in_group(group, offset % group, size, op, widths)
    }

    /// Per-class `(max_load, servers_touched)` — the `s_c` and `k_c` of
    /// Eqs. 1–6 — for a request at region-relative `offset` of `size`
    /// bytes under per-class `widths`: the exact round-robin geometry of
    /// `class_span_loads`, one class at a time.
    ///
    /// # Panics
    /// Panics unless there is one width per class, or if the stripe group
    /// `Σ count_c · w_c` is empty or overflows `u64` (even for an empty
    /// request).
    pub fn class_loads(&self, offset: u64, size: u64, widths: &[u64]) -> Vec<(u64, usize)> {
        let group = self.group(widths);
        let classes = self.terms(OpKind::Read);
        if size == 0 {
            return vec![(0, 0); classes.len()];
        }
        let end = offset + size;
        let dq = end / group - offset / group;
        let (r_o, r_e) = (offset % group, end % group);
        let mut out = Vec::with_capacity(classes.len());
        let mut base = 0u64;
        for (c, &w) in classes.iter().zip(widths) {
            out.push(class_span_loads(dq, r_o, r_e, base, w, c.count));
            base += usize_to_u64(c.count) * w;
        }
        out
    }

    /// [`Self::request_cost`] for callers pricing many requests under one
    /// width vector: `group` is [`Self::group`] of `widths` and `residue`
    /// the request's offset mod `group` (cost depends on the offset only
    /// through it).
    #[inline]
    pub(crate) fn cost_in_group(
        &self,
        group: u64,
        residue: u64,
        size: u64,
        op: OpKind,
        widths: &[u64],
    ) -> f64 {
        let end = residue + size;
        let (dq, r_e) = (end / group, end % group);
        let mut base = 0u64;
        let mut max_load = 0u64;
        let mut t_s: f64 = 0.0;
        let mut t_t: f64 = 0.0;
        for (c, &w) in self.terms(op).iter().zip(widths) {
            let (load, touched) = class_span_loads(dq, residue, r_e, base, w, c.count);
            base += usize_to_u64(c.count) * w;
            max_load = max_load.max(load);
            // Eq. 5: the slower class's expected startup maximum.
            t_s = t_s.max(self.startup[c.at + touched]);
            // Eq. 6: the slowest sub-request on a device.
            t_t = t_t.max(load as f64 * c.beta);
        }
        // Eq. 1: the slowest sub-request on the wire.
        let t_x = max_load as f64 * self.t_s_per_byte;
        t_x + t_s + t_t
    }

    /// A lower bound on [`Self::request_cost`] of a `size`-byte `op`
    /// request at *every* offset under `widths`: what the searches add for
    /// the requests they have not priced yet.
    ///
    /// # Panics
    /// Panics unless there is one width per class, or if the stripe group
    /// `Σ count_c · w_c` is empty or overflows `u64`.
    pub fn request_floor(&self, size: u64, op: OpKind, widths: &[u64]) -> f64 {
        self.floor_in_group(self.group(widths), size, op, widths)
    }

    /// [`Self::request_floor`] for callers that already hold `group`, the
    /// [`Self::group`] of `widths`.
    ///
    /// With `q = ⌊size/G⌋` and `rem = size mod G`, a class of span `n·w`
    /// receives between `lo = q·span + max(0, rem − (G − span))` and
    /// `hi = q·span + min(rem, span)` bytes whatever the offset. It
    /// touches at least `min(n, ⌈lo/w⌉)` servers and at most
    /// `m = min(n, ⌈hi/w⌉ + 1)` (a piece of the class span touches at most
    /// `⌈bytes/w⌉ + 1` servers, and a request that wraps the group leaves
    /// two pieces that each end on the span's edge), so its largest load is
    /// at least `B/m` for the `B` bytes it receives. The floor is the least
    /// `t·max_c B_c/m_c + max_c β_c·B_c/m_c` over the feasible splits plus
    /// the largest startup the touched counts force:
    ///
    /// * two classes take bytes: the bracket is convex and piecewise
    ///   linear in the first class's bytes, with kinks only where the
    ///   loads balance and where the `β`-weighted loads balance, so the
    ///   least of it at those two points, each clamped into `[lo, hi]`,
    ///   is its minimum;
    /// * otherwise each term is minimised on its own: the largest load is
    ///   at least every `lo_c/m_c` and the level `size / Σ m_c` that
    ///   spreads all bytes, and likewise for the `β`-weighted loads.
    ///
    /// The result gives back `2⁻⁴⁰` of itself, far more than the rounding
    /// of these few operations, so it is a lower bound on the `f64` price
    /// itself, not just on the real-valued one.
    pub(crate) fn floor_in_group(&self, group: u64, size: u64, op: OpKind, widths: &[u64]) -> f64 {
        let (q, rem) = (size / group, size % group);
        let mut t_s: f64 = 0.0;
        // The bracket's inputs per class taking bytes: `(lo, hi, m, β)`.
        let mut pair = [(0u64, 0u64, 0.0f64, 0.0f64); 2];
        let mut taking = 0usize;
        // Each term minimised on its own.
        let (mut load, mut beta_load): (f64, f64) = (0.0, 0.0);
        let (mut spread, mut beta_spread): (f64, f64) = (0.0, 0.0);
        for (c, &w) in self.terms(op).iter().zip(widths) {
            let span = usize_to_u64(c.count) * w;
            if span == 0 {
                continue;
            }
            let lo = q * span + rem.saturating_sub(group - span);
            let hi = q * span + rem.min(span);
            let n = usize_to_u64(c.count);
            let touched = if q > 0 { n } else { lo.div_ceil(w).min(n) };
            if touched > 0 {
                // Eqs. 3–4 are monotone in the touched count (up when
                // α_max ≥ α_min, down otherwise), so the least maximum
                // over `touched..=count` sits at one end.
                let at = c.at + u64_to_usize(touched);
                t_s = t_s.max(self.startup[at].min(self.startup[c.at + c.count]));
            }
            let m = if q > 0 {
                n
            } else {
                (hi.div_ceil(w) + 1).min(n)
            } as f64;
            load = load.max(lo as f64 / m);
            beta_load = beta_load.max(c.beta * lo as f64 / m);
            spread += m;
            beta_spread += m / c.beta;
            if taking < 2 {
                pair[taking] = (lo, hi, m, c.beta);
            }
            taking += 1;
        }
        let t = self.t_s_per_byte;
        // Eq. 1 on the largest load, the startup, Eq. 6 on the largest
        // β-weighted load, added in `cost_in_group`'s order.
        let bracket = |load: f64, beta_load: f64| (t * load + t_s) + beta_load;
        let s = size as f64;
        let floor = if taking == 2 {
            let [(lo, hi, mi, bi), (_, _, mj, bj)] = pair;
            // Loads at a kink that puts `b` bytes on the first class, or at
            // the end of `[lo, hi]` it falls past.
            let at = |b: f64, x: f64, y: f64| {
                let end = |e: u64| (e as f64 / mi, (size - e) as f64 / mj);
                let (x, y) = if b < lo as f64 {
                    end(lo)
                } else if b > hi as f64 {
                    end(hi)
                } else {
                    (x, y)
                };
                bracket(x.max(y), (bi * x).max(bj * y))
            };
            let level = s / (mi + mj);
            let mut floor = at(s * mi / (mi + mj), level, level);
            let (gi, gj) = (bi / mi, bj / mj);
            if gi + gj > 0.0 {
                let share = s / (gi + gj);
                floor = floor.min(at(share * gj, share * gj / mi, share * gi / mj));
            }
            floor
        } else {
            bracket(load.max(s / spread), beta_load.max(s / beta_spread))
        };
        floor * FLOOR_GIVEBACK
    }
}

/// What [`CostKernel::floor_in_group`] keeps of its bound: `1 − 2⁻⁴⁰`.
const FLOOR_GIVEBACK: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// The expected maximum of `k` i.i.d. uniform startup draws on
/// `[α_min, α_max]`: `α_min + k/(k+1)·(α_max − α_min)` (Eqs. 3–4), and
/// `0.0` when no server is touched.
fn startup_max(p: &OpParams, k: usize) -> f64 {
    if k == 0 {
        0.0
    } else {
        let k = k as f64;
        p.alpha_min_s + k / (k + 1.0) * (p.alpha_max_s - p.alpha_min_s)
    }
}

/// The four critical parameters of the paper's case analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerLoads {
    /// Largest per-HServer load (bytes).
    pub s_m: u64,
    /// Number of HServers touched.
    pub m: usize,
    /// Largest per-SServer load (bytes).
    pub s_n: u64,
    /// Number of SServers touched.
    pub n: usize,
}

impl ServerLoads {
    /// The two-class reading of per-class `(max_load, servers_touched)`
    /// pairs as [`CostKernel::class_loads`] returns them: class 0
    /// holds the HServers, class 1 the SServers (a missing class reads as
    /// untouched).
    pub fn from_classes(loads: &[(u64, usize)]) -> Self {
        let class = |c: usize| loads.get(c).copied().unwrap_or((0, 0));
        let ((s_m, m), (s_n, n)) = (class(0), class(1));
        ServerLoads { s_m, m, s_n, n }
    }
}

/// `(max_load, servers_touched)` for one server class occupying
/// `[base0, base0 + count·w)` of each round-robin group, for a byte span
/// crossing `dq` group boundaries with endpoint group-residues `r_o`/`r_e`
/// — O(1).
///
/// Server `k` of the class holds `D + f_k(r_e) − f_k(r_o)` bytes, where
/// `D = dq·w` is the uniform full-group contribution and
/// `f_k(r) = clamp(r − base0 − k·w, 0, w)` is the endpoint-fragment step
/// function: `w` for servers strictly below the fragment index `k_r`, the
/// partial `p_r = (r − base0) mod w` at `k_r`, and `0` above it. Both
/// endpoints therefore split the class into at most five constant-load
/// segments, resolved by comparing the two fragment indices (endpoints
/// outside the class span clamp to the virtual indices `−1` / `count`).
pub(crate) fn class_span_loads(
    dq: u64,
    r_o: u64,
    r_e: u64,
    base0: u64,
    w: u64,
    count: usize,
) -> (u64, usize) {
    if w == 0 || count == 0 {
        return (0, 0);
    }
    let c = usize_to_u64(count);
    // Signed 64-bit intermediates: valid for byte spans below 2^63, the
    // same implicit domain as the scan's `offset + size` arithmetic.
    let d = u64_to_i64(dq * w);

    // Fragment index and partial bytes of one endpoint residue, with
    // virtual indices −1 (before the class span) and `count` (at/after it).
    let point = |r: u64| -> (i64, i64) {
        if r <= base0 {
            (-1, 0)
        } else if r >= base0 + c * w {
            (u64_to_i64(c), 0)
        } else {
            let q = (r - base0) / w;
            (u64_to_i64(q), u64_to_i64(r - base0 - q * w))
        }
    };
    let (k_o, p_o) = point(r_o);
    let (k_e, p_e) = point(r_e);

    // Real servers strictly between indices `a` and `b` (exclusive).
    let between = |a: i64, b: i64| -> u64 {
        let lo = (a + 1).max(0);
        let hi = (b - 1).min(u64_to_i64(c) - 1);
        if hi >= lo {
            i64_to_u64(hi - lo + 1)
        } else {
            0
        }
    };
    let real = |k: i64| -> u64 { u64::from(k >= 0 && k < u64_to_i64(c)) };

    // (load, how many servers hold it) — at most four segments.
    let mut segs = [(0i64, 0u64); 4];
    let w = u64_to_i64(w);
    if k_o < k_e {
        segs[0] = (d, between(-1, k_o) + between(k_e, u64_to_i64(c)));
        segs[1] = (d + w - p_o, real(k_o));
        segs[2] = (d + w, between(k_o, k_e));
        segs[3] = (d + p_e, real(k_e));
    } else if k_o > k_e {
        segs[0] = (d, between(-1, k_e) + between(k_o, u64_to_i64(c)));
        segs[1] = (d + p_e - w, real(k_e));
        segs[2] = (d - w, between(k_e, k_o));
        segs[3] = (d - p_o, real(k_o));
    } else {
        segs[0] = (d, c - real(k_o));
        segs[1] = (d + p_e - p_o, real(k_o));
    }

    let mut max_load = 0i64;
    let mut touched = 0u64;
    for &(load, n) in &segs {
        if n > 0 && load > 0 {
            touched += n;
            max_load = max_load.max(load);
        }
    }
    (i64_to_u64(max_load), u64_to_usize(touched))
}

/// The paper's Fig. 5 case-(a) table: `(s_m, s_n, m, n)` when both the
/// beginning and ending sub-requests fall on HServers.
///
/// Returns `None` when the request is not in case (a) (it begins or ends on
/// an SServer) or hits a degenerate fragment the table does not define
/// (an ending offset exactly on a stripe boundary). Implemented for
/// cross-validation against the exact geometry
/// ([`CostKernel::class_loads`], read through
/// [`ServerLoads::from_classes`]); the paper presents only this case and
/// leaves the others to "the same arguments".
///
/// **Reproduction note:** two rows of the table are imprecise outside a
/// restricted domain. The third Δr≥1 row (`s_m = Δr·h`) is exact only when
/// the beginning server index is *greater* than the ending server index
/// (`n_b > n_e`); when `n_b < n_e` the beginning server actually holds
/// `s_b + Δr·h` bytes, which the row under-counts. Its server count
/// `m = M + 1 + Δc` is exact only for `Δr = 1`: with `Δr ≥ 2` a full
/// middle stripe group touches all `M` HServers. Our optimizer therefore
/// uses the exact geometry; the property tests check table-vs-exact
/// agreement on the table's valid domain and bound the divergence outside
/// it.
pub fn case_a_params(
    offset: u64,
    size: u64,
    m_servers: usize,
    h: u64,
    n_servers: usize,
    s: u64,
) -> Option<ServerLoads> {
    if size == 0 || h == 0 {
        return None;
    }
    let m_total = usize_to_u64(m_servers) * h;
    let group = m_total + usize_to_u64(n_servers) * s;
    let end = offset + size;

    let r_b = offset / group;
    let r_e = end / group;
    let l_b = offset - r_b * group;
    let l_e = end - r_e * group;
    // Case (a): both endpoints inside the HServer span of their groups.
    if l_b >= m_total || l_e > m_total {
        return None;
    }
    // Degenerate ending fragment (boundary-aligned): the table's fragment
    // arithmetic assumes a strictly interior endpoint.
    if l_e.is_multiple_of(h) {
        return None;
    }
    let n_b = u64_to_usize(l_b / h);
    let n_e = u64_to_usize(l_e / h);
    let s_b = h - l_b % h; // remaining bytes of the beginning stripe
    let s_e = l_e % h; // bytes consumed of the ending stripe
    let d_r = r_e - r_b;
    let d_c = usize_to_i64(n_e) - usize_to_i64(n_b);

    let loads = if d_r == 0 {
        let (s_m, m) = match d_c {
            0 => (size, 1),
            1 => (s_b.max(s_e), 2),
            c if c > 1 => (h, i64_to_usize(c + 1)),
            _ => return None, // negative Δc impossible within one group
        };
        ServerLoads {
            s_m,
            m,
            s_n: 0,
            n: 0,
        }
    } else {
        // Δr ≥ 1: the request crosses group boundaries; every SServer gets
        // Δr full stripes.
        let s_n = d_r * s;
        let n = if s == 0 { 0 } else { n_servers };
        if d_c == 0 && n_b == n_e {
            ServerLoads {
                s_m: (d_r * h - h + s_b + s_e).max(d_r * h),
                m: m_servers,
                s_n,
                n,
            }
        } else if n_b + 1 == m_servers && n_e == 0 {
            ServerLoads {
                s_m: (d_r * h - h + s_b).max(d_r * h - h + s_e),
                m: if d_r == 1 { 2 } else { m_servers },
                s_n,
                n,
            }
        } else {
            ServerLoads {
                s_m: d_r * h,
                m: if d_c < -1 {
                    i64_to_usize(usize_to_i64(m_servers) + 1 + d_c)
                } else {
                    m_servers
                },
                s_n,
                n,
            }
        }
    };
    Some(loads)
}

#[cfg(test)]
mod tests {
    // Tests assert exact values: outputs are deterministic by design.
    #![allow(clippy::float_cmp)]

    use super::*;
    use harl_devices::{hdd_2015_preset, ssd_2015_preset, NetworkProfile};
    use harl_pfs::ClusterConfig;

    const KB: u64 = 1024;

    fn model(m: usize, n: usize) -> MultiProfileModel {
        MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            vec![(m, hdd_2015_preset()), (n, ssd_2015_preset())],
        )
    }

    fn kernel() -> CostKernel {
        CostKernel::new(&model(6, 2))
    }

    /// The exact `(s_m, m, s_n, n)` on `m` HServers and `n` SServers.
    fn exact(offset: u64, size: u64, m: usize, h: u64, n: usize, s: u64) -> ServerLoads {
        ServerLoads::from_classes(&CostKernel::new(&model(m, n)).class_loads(offset, size, &[h, s]))
    }

    #[test]
    fn loads_conserve_nothing_lost() {
        let loads = exact(0, 512 * KB, 6, 64 * KB, 2, 64 * KB);
        assert_eq!(loads.m, 6);
        assert_eq!(loads.n, 2);
        assert_eq!(loads.s_m, 64 * KB);
        assert_eq!(loads.s_n, 64 * KB);
    }

    #[test]
    fn loads_with_h_zero() {
        let loads = exact(0, 128 * KB, 6, 0, 2, 64 * KB);
        assert_eq!(loads.m, 0);
        assert_eq!(loads.s_m, 0);
        assert_eq!(loads.n, 2);
        assert_eq!(loads.s_n, 64 * KB);
    }

    #[test]
    fn loads_with_s_zero() {
        let loads = exact(0, 128 * KB, 4, 32 * KB, 2, 0);
        assert_eq!(loads.n, 0);
        assert_eq!(loads.m, 4);
        assert_eq!(loads.s_m, 32 * KB);
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn zero_capacity_panics() {
        CostKernel::new(&model(4, 2)).request_cost(0, 1, OpKind::Read, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn overflowing_group_panics() {
        kernel().group(&[1 << 61, 1 << 61]);
    }

    #[test]
    #[should_panic(expected = "one width per class")]
    fn width_count_mismatch_panics() {
        kernel().request_cost(0, 1, OpKind::Read, &[4 * KB]);
    }

    #[test]
    fn zero_size_request_is_free() {
        let k = kernel();
        assert_eq!(
            k.request_cost(123, 0, OpKind::Read, &[64 * KB, 64 * KB]),
            0.0
        );
        // Free even under a layout with no capacity.
        assert_eq!(k.request_cost(123, 0, OpKind::Read, &[0, 0]), 0.0);
    }

    #[test]
    fn cost_increases_with_size() {
        let k = kernel();
        let w = [64 * KB, 64 * KB];
        let c1 = k.request_cost(0, 128 * KB, OpKind::Read, &w);
        let c2 = k.request_cost(0, 512 * KB, OpKind::Read, &w);
        let c3 = k.request_cost(0, 2048 * KB, OpKind::Read, &w);
        assert!(c1 < c2 && c2 < c3);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let k = kernel();
        let r = k.request_cost(0, 512 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        let w = k.request_cost(0, 512 * KB, OpKind::Write, &[64 * KB, 64 * KB]);
        assert!(w > r, "write {w} should exceed read {r}");
    }

    #[test]
    fn balanced_varied_beats_fixed_for_512k() {
        // The heart of the paper: at 512 KiB requests on 6H+2S the model
        // must prefer a small-h / large-s layout over uniform 64 KiB.
        let k = kernel();
        let fixed = k.request_cost(0, 512 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        let varied = k.request_cost(0, 512 * KB, OpKind::Read, &[32 * KB, 160 * KB]);
        assert!(varied < fixed, "varied {varied} should beat fixed {fixed}");
    }

    #[test]
    fn small_requests_prefer_ssd_only() {
        // Fig. 9: at 128 KiB the optimal layout is {0, 64K} — any HServer
        // involvement pays the big HDD startup.
        let k = kernel();
        let ssd_only = k.request_cost(0, 128 * KB, OpKind::Read, &[0, 64 * KB]);
        let mixed = k.request_cost(0, 128 * KB, OpKind::Read, &[16 * KB, 16 * KB]);
        let fixed = k.request_cost(0, 128 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        assert!(ssd_only < mixed);
        assert!(ssd_only < fixed);
    }

    #[test]
    fn startup_order_statistic() {
        let p = OpParams {
            alpha_min_s: 1.0,
            alpha_max_s: 3.0,
            beta_s_per_byte: 0.0,
        };
        assert_eq!(startup_max(&p, 0), 0.0);
        assert!((startup_max(&p, 1) - 2.0).abs() < 1e-12);
        // k → ∞ approaches α_max.
        assert!((startup_max(&p, 1000) - 3.0).abs() < 0.01);
    }

    #[test]
    fn case_a_single_stripe() {
        // Request wholly inside one HServer stripe.
        let got = case_a_params(10 * KB, 20 * KB, 6, 64 * KB, 2, 64 * KB).unwrap();
        assert_eq!(
            got,
            ServerLoads {
                s_m: 20 * KB,
                m: 1,
                s_n: 0,
                n: 0
            }
        );
        assert_eq!(got, exact(10 * KB, 20 * KB, 6, 64 * KB, 2, 64 * KB));
    }

    #[test]
    fn case_a_two_adjacent_stripes() {
        // Crosses one stripe boundary within the HServer span.
        let (h, s) = (64 * KB, 64 * KB);
        let got = case_a_params(48 * KB, 32 * KB, 6, h, 2, s).unwrap();
        assert_eq!(got, exact(48 * KB, 32 * KB, 6, h, 2, s));
        assert_eq!(got.m, 2);
        assert_eq!(got.s_m, 16 * KB);
    }

    #[test]
    fn case_a_rejects_sserver_endpoints() {
        // A request beginning in the SServer span is not case (a).
        let (h, s) = (64 * KB, 64 * KB);
        // HServer span = 384 KiB; offset inside SServer span.
        assert!(case_a_params(400 * KB, 8 * KB, 6, h, 2, s).is_none());
    }

    #[test]
    fn case_a_multi_group_matches_exact_when_nb_gt_ne() {
        // Group = 6*32 + 2*96 = 384 KiB, HServer span 192 KiB. Request from
        // server 3 of group 0 to server 1 of group 1 (n_b=3 > n_e=1): the
        // table's third row domain, where it is exact.
        let (h, s) = (32 * KB, 96 * KB);
        let offset = 106 * KB; // n_b = 3, s_b = 22 KiB
        let size = 320 * KB; // ends at 426 KiB; l_e = 42 KiB, n_e = 1
        let got = case_a_params(offset, size, 6, h, 2, s).unwrap();
        assert_eq!(got, exact(offset, size, 6, h, 2, s));
        assert_eq!(got.s_m, 32 * KB);
        assert_eq!(got.m, 5); // M + 1 + Δc = 6 + 1 - 2
        assert_eq!(got.s_n, 96 * KB);
    }

    #[test]
    fn case_a_row3_undercounts_when_nb_lt_ne() {
        // Documented paper divergence: with n_b < n_e the beginning server
        // holds s_b + Δr·h bytes, more than the table's Δr·h.
        let (h, s) = (32 * KB, 96 * KB);
        let offset = 10 * KB; // n_b = 0, s_b = 22 KiB
        let size = 434 * KB; // ends at 444 KiB; l_e = 60 KiB, n_e = 1
        let table = case_a_params(offset, size, 6, h, 2, s).unwrap();
        let exact = exact(offset, size, 6, h, 2, s);
        assert_eq!(table.s_m, 32 * KB, "table row 3 value");
        // Server 0 (the beginning server) holds s_b + Δr·h = 54 KiB and
        // server 1 holds a full stripe in each group = 60 KiB; both exceed
        // the table's Δr·h.
        assert_eq!(exact.s_m, 60 * KB, "true maximum per-server load");
        assert!(exact.s_m > table.s_m);
    }

    #[test]
    fn from_cluster_matches_manual() {
        let cluster = ClusterConfig::paper_default();
        let p = MultiProfileModel::from_cluster(&cluster);
        assert_eq!(p.class_count(), 2);
        assert_eq!(p, model(6, 2));
        assert_eq!(CostKernel::new(&p), kernel());
    }

    #[test]
    fn calibrated_model_close_to_truth() {
        let cluster = ClusterConfig::paper_default();
        let truth = CostKernel::new(&MultiProfileModel::from_cluster(&cluster));
        let cal = CostKernel::new(&MultiProfileModel::from_cluster_calibrated(
            &cluster,
            &harl_devices::CalibrationConfig::default(),
        ));
        let w = [32 * KB, 160 * KB];
        let ct = truth.request_cost(0, 512 * KB, OpKind::Read, &w);
        let cc = cal.request_cost(0, 512 * KB, OpKind::Read, &w);
        assert!(
            (ct - cc).abs() / ct < 0.1,
            "calibrated cost {cc} vs truth {ct}"
        );
    }
}
