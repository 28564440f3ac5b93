// HL010 counter-examples: canonical-order merges. The indexed-store
// consumer (one slot per result, as in the harl/optimizer.rs grid), a
// sort immediately after the drain loop (the middleware/serve.rs shape),
// a spawned worker with a private buffer and no lock, and a recv loop
// whose only appends live in a *different* (earlier) loop — innermost-loop
// attribution must not blame them.
use std::sync::mpsc::Receiver;

pub fn consume(rx: &Receiver<(usize, u64)>, n: usize) -> Vec<u64> {
    let mut grants = vec![0u64; n];
    for _ in 0..n {
        let (i, g) = rx.recv().unwrap();
        grants[i] = g;
    }
    grants
}

pub fn drain_sorted(rx: &Receiver<(u32, u64)>) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    while let Ok(pair) = rx.recv() {
        out.push(pair);
    }
    out.sort_unstable_by_key(|p| p.0);
    out
}

pub fn per_worker(jobs: &mut Vec<u64>) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut local = Vec::new();
            local.push(1u64);
            local.len()
        });
    });
    jobs.push(7);
}

pub fn fan_out(n: usize, rx: &Receiver<u64>) -> u64 {
    let mut handles = Vec::new();
    for w in 0..n {
        handles.push(w);
    }
    let mut total = 0u64;
    for _ in 0..n {
        total += rx.recv().unwrap();
    }
    total
}
