//! Thread-count determinism: `SimContext::threads` budgets the planner,
//! and the thread count must not reach `simulate` at all. The same
//! workload must produce byte-identical serialized reports and metrics
//! JSONL at 1, 2 and 8 threads, on the paper's 8-server cluster and on a
//! 256-server one whose reads each fan out to every server.

use harl_pfs::{simulate, ClientProgram, ClusterConfig, FileLayout, PhysRequest};
use harl_simcore::metrics::MemoryRecorder;
use harl_simcore::SimContext;
use std::sync::Arc;

const STRIPE: u64 = 64 * 1024;

/// Whole-stripe-round reads from `clients` concurrent clients — each
/// request fans out to every server.
fn workload(cluster: &ClusterConfig, clients: usize, rpc: u64) -> (FileLayout, Vec<ClientProgram>) {
    let file = FileLayout::fixed(cluster, STRIPE);
    let span = STRIPE * cluster.server_count() as u64;
    let progs = (0..clients)
        .map(|c| {
            let mut p = ClientProgram::new();
            for i in 0..rpc {
                p.push_request(PhysRequest::read(0, (c as u64 * rpc + i) * span, span));
            }
            p
        })
        .collect();
    (file, progs)
}

/// Run at `threads`, returning (serialized report, metrics JSONL bytes).
fn run_at(cluster: &ClusterConfig, threads: usize) -> (String, Vec<u8>) {
    let (file, progs) = workload(cluster, 3, 4);
    let recorder = Arc::new(MemoryRecorder::new());
    let ctx = SimContext::recorded(recorder.clone()).with_threads(threads);
    let report = simulate(&ctx, cluster, &[file], &progs);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let mut jsonl = Vec::new();
    recorder.write_jsonl(&mut jsonl).expect("jsonl writes");
    (json, jsonl)
}

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    for cluster in [ClusterConfig::hybrid(6, 2), ClusterConfig::hybrid(192, 64)] {
        let base = run_at(&cluster, 1);
        for threads in [2, 8] {
            assert_eq!(
                base,
                run_at(&cluster, threads),
                "{} servers, threads={threads}",
                cluster.server_count()
            );
        }
    }
}
