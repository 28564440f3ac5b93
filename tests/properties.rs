//! Property-based tests (proptest) on the core invariants across crates.

use harl_repro::harl::{case_a_params, ServerLoads};
use harl_repro::prelude::*;
use proptest::prelude::*;

const STEP: u64 = 4096;

/// The exact `(s_m, m, s_n, n)` of a request on the paper's 6 + 2 cluster.
fn server_loads(offset: u64, size: u64, h: u64, s: u64) -> ServerLoads {
    let model = MultiProfileModel::from_cluster(&ClusterConfig::paper_default());
    ServerLoads::from_classes(&CostKernel::new(&model).class_loads(offset, size, &[h, s]))
}

prop_compose! {
    /// A two-class stripe pair with at least one positive width, on the
    /// 4 KiB grid, up to 2 MiB.
    fn stripe_pair()(h in 0u64..=512, s in 0u64..=512) -> (u64, u64) {
        if h == 0 && s == 0 {
            (STEP, STEP)
        } else {
            (h * STEP, s * STEP)
        }
    }
}

proptest! {
    /// GroupLayout splits conserve every byte of every request.
    #[test]
    fn split_conserves_bytes(
        (h, s) in stripe_pair(),
        offset in 0u64..(1 << 34),
        len in 1u64..(8 << 20),
        m in 1usize..8,
        n in 1usize..8,
    ) {
        let cluster = ClusterConfig::hybrid(m, n);
        let layout = FileLayout::for_classes(&cluster, &[h, s]);
        let pieces = layout.split(offset, len);
        let total: u64 = pieces.iter().map(|&(_, b)| b).sum();
        prop_assert_eq!(total, len);
        // No server appears twice and all are valid ids.
        let mut ids: Vec<_> = pieces.iter().map(|&(id, _)| id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before);
        prop_assert!(ids.iter().all(|&id| id < cluster.server_count()));
    }

    /// The cost model's exact loads conserve bytes and bound s_m/s_n.
    #[test]
    fn server_loads_sane(
        (h, s) in stripe_pair(),
        offset in 0u64..(1 << 34),
        size in 1u64..(8 << 20),
    ) {
        let loads = server_loads(offset, size, h, s);
        prop_assert!(loads.s_m <= size);
        prop_assert!(loads.s_n <= size);
        prop_assert!(loads.m <= 6);
        prop_assert!(loads.n <= 2);
        // Any byte must land somewhere.
        prop_assert!(loads.m + loads.n > 0);
        // Zero-width classes take nothing.
        if h == 0 { prop_assert_eq!((loads.s_m, loads.m), (0, 0)); }
        if s == 0 { prop_assert_eq!((loads.s_n, loads.n), (0, 0)); }
    }

    /// Paper Fig. 5 case-(a) table equals exact geometry on its valid
    /// domain (Δr = 0 rows, and Δr >= 1 with n_b >= n_e).
    #[test]
    fn case_a_table_matches_exact_on_domain(
        h in 1u64..=64,
        s in 1u64..=64,
        offset in 0u64..(1 << 28),
        size in 1u64..(4 << 20),
    ) {
        let (h, s) = (h * STEP, s * STEP);
        if let Some(table) = case_a_params(offset, size, 6, h, 2, s) {
            let exact = server_loads(offset, size, h, s);
            let group = 6 * h + 2 * s;
            let d_r = (offset + size) / group - offset / group;
            let n_b = (offset % group) / h;
            let n_e = ((offset + size) % group) / h;
            if d_r == 0 || (d_r == 1 && n_b >= n_e) {
                prop_assert_eq!(table, exact,
                    "table diverged inside its valid domain (dr={}, nb={}, ne={})",
                    d_r, n_b, n_e);
            } else {
                // Documented divergences outside the exact domain: the
                // table may under-count s_m (n_b < n_e: the beginning
                // server holds s_b + dr*h) and m (dr >= 2 with n_b > n_e:
                // a full middle group touches all M HServers).
                prop_assert!(table.s_m <= exact.s_m);
                prop_assert!(table.m <= exact.m);
                prop_assert_eq!(table.s_n, exact.s_n);
                prop_assert_eq!(table.n, exact.n);
            }
        }
    }

    /// Cost is non-negative, zero only for empty requests, and monotone in
    /// request size under a fixed layout.
    #[test]
    fn cost_nonnegative_and_monotone(
        (h, s) in stripe_pair(),
        offset in 0u64..(1 << 30),
        size in 1u64..(4 << 20),
        op_is_read in any::<bool>(),
    ) {
        let kernel = CostKernel::new(&MultiProfileModel::from_cluster(&ClusterConfig::paper_default()));
        let op = if op_is_read { OpKind::Read } else { OpKind::Write };
        prop_assert_eq!(kernel.request_cost(offset, 0, op, &[h, s]), 0.0);
        let c1 = kernel.request_cost(offset, size, op, &[h, s]);
        let c2 = kernel.request_cost(offset, size * 2, op, &[h, s]);
        prop_assert!(c1 > 0.0);
        prop_assert!(c2 >= c1, "doubling the size reduced cost: {} -> {}", c1, c2);
    }

    /// Region division tiles the file exactly for arbitrary traces.
    #[test]
    fn region_division_tiles_file(
        sizes in prop::collection::vec(1u64..=512, 1..64),
        file_slack in 0u64..(64 << 20),
    ) {
        let mut offset = 0;
        let mut records = Vec::with_capacity(sizes.len());
        for (i, &s) in sizes.iter().enumerate() {
            let size = s * STEP;
            records.push(TraceRecord {
                rank: (i % 4) as u32,
                fd: 0,
                op: if i % 3 == 0 { OpKind::Write } else { OpKind::Read },
                offset,
                size,
                timestamp: SimNanos::from_nanos(i as u64),
            });
            offset += size;
        }
        let file_size = offset + file_slack;
        let regions = harl_repro::harl::divide_regions(
            &records, file_size, &RegionDivisionConfig::default());
        prop_assert!(harl_repro::harl::region::regions_tile_file(&regions, file_size));
        // Request index ranges partition the trace.
        prop_assert_eq!(regions[0].first_request, 0);
        for w in regions.windows(2) {
            prop_assert_eq!(w[0].last_request, w[1].first_request);
        }
        prop_assert_eq!(regions.last().unwrap().last_request, records.len());
    }

    /// RST request splitting covers the request exactly, in order.
    #[test]
    fn rst_split_covers_request(
        lens in prop::collection::vec(1u64..=1024, 1..16),
        offset_frac in 0.0f64..1.0,
        len in 1u64..(16 << 20),
    ) {
        let entries: Vec<RstEntry> = {
            let mut out = Vec::new();
            let mut off = 0;
            for (i, &l) in lens.iter().enumerate() {
                let region_len = l * STEP * 256;
                out.push(RstEntry::two(
                    off,
                    region_len,
                    ((i as u64 % 4) * 16) * 1024,
                    64 * 1024,
                ));
                off += region_len;
            }
            out
        };
        let rst = RegionStripeTable::new(entries);
        let offset = (rst.file_size() as f64 * offset_frac) as u64;
        let pieces = rst.split_request(offset, len);
        let total: u64 = pieces.iter().map(|&(_, _, l)| l).sum();
        prop_assert_eq!(total, len);
        // Pieces are contiguous in logical space.
        let mut pos = offset;
        for &(region, rel, plen) in &pieces {
            let entry = &rst.entries()[region];
            prop_assert_eq!(entry.offset + rel, pos);
            pos += plen;
        }
    }

    /// The simulator conserves bytes for arbitrary request mixes and the
    /// makespan never precedes any request's completion.
    #[test]
    fn simulation_conserves_bytes(
        reqs in prop::collection::vec(
            (0u64..(64 << 20), 1u64..(2 << 20), any::<bool>()), 1..24),
        stripe in 1u64..=64,
    ) {
        let cluster = ClusterConfig::paper_default();
        let layout = FileLayout::fixed(&cluster, stripe * STEP);
        let mut read = 0;
        let mut written = 0;
        let mut prog = ClientProgram::new();
        for &(offset, size, is_read) in &reqs {
            if is_read {
                read += size;
                prog.push_request(PhysRequest::read(0, offset, size));
            } else {
                written += size;
                prog.push_request(PhysRequest::write(0, offset, size));
            }
        }
        let report = simulate(&SimContext::new(), &cluster, &[layout], &[prog]);
        prop_assert_eq!(report.bytes_read, read);
        prop_assert_eq!(report.bytes_written, written);
        prop_assert_eq!(report.requests_completed as usize, reqs.len());
        let device_bytes: u64 = report.servers.iter().map(|s| s.bytes).sum();
        prop_assert_eq!(device_bytes, read + written);
    }

    /// Trace JSON round-trips for arbitrary records.
    #[test]
    fn trace_round_trips(
        recs in prop::collection::vec(
            (0u32..64, 0u64..(1 << 40), 0u64..(1 << 30), any::<bool>()), 0..64),
    ) {
        let trace = Trace::from_records(
            recs.iter()
                .enumerate()
                .map(|(i, &(rank, offset, size, is_read))| TraceRecord {
                    rank,
                    fd: 3,
                    op: if is_read { OpKind::Read } else { OpKind::Write },
                    offset,
                    size,
                    timestamp: SimNanos::from_nanos(i as u64),
                })
                .collect(),
        );
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        let back = Trace::load(&buf[..]).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// Merging adjacent RST rows never changes lookup results.
    #[test]
    fn rst_merge_preserves_lookup(
        lens in prop::collection::vec(1u64..=64, 2..12),
        same_mask in prop::collection::vec(any::<bool>(), 2..12),
        probe_frac in 0.0f64..1.0,
    ) {
        let mut entries = Vec::new();
        let mut off = 0;
        for (i, &l) in lens.iter().enumerate() {
            let same = same_mask.get(i).copied().unwrap_or(false);
            let (h, s) = if same { (16 * 1024, 64 * 1024) } else {
                (((i as u64 % 3) + 1) * 16 * 1024, 64 * 1024)
            };
            let len = l * (1 << 20);
            entries.push(RstEntry::two(off, len, h, s));
            off += len;
        }
        let rst = RegionStripeTable::new(entries);
        let mut merged = rst.clone();
        merged.merge_adjacent();
        prop_assert!(merged.len() <= rst.len());
        prop_assert_eq!(merged.file_size(), rst.file_size());
        let probe = (rst.file_size() as f64 * probe_frac) as u64;
        let a = rst.lookup(probe);
        let b = merged.lookup(probe);
        prop_assert_eq!((a.h(), a.s()), (b.h(), b.s()));
    }
}
