//! Order statistics over timing samples.

use crate::metrics::{ratio, Values};

/// The timings of a run: set-up per pass, and each operation's latency on
/// every plain and every traced pass.
#[derive(Debug)]
pub struct Samples {
    setup_s: Vec<f64>,
    plain: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
    plain_busy_s: Vec<f64>,
}

impl Samples {
    /// Empty samples for `ops` operations per pass.
    pub fn new(ops: usize) -> Self {
        Samples {
            setup_s: Vec::new(),
            plain: vec![Vec::new(); ops],
            traced: vec![Vec::new(); ops],
            plain_busy_s: Vec::new(),
        }
    }

    /// One pass's set-up time.
    pub fn setup(&mut self, seconds: f64) {
        self.setup_s.push(seconds);
    }

    /// Operation `op`'s latency on the current pass.
    pub fn latency(&mut self, op: usize, traced: bool, seconds: f64) {
        let per_op = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        per_op[op].push(seconds);
    }

    /// Close a plain pass whose operations kept the program busy for
    /// `seconds` in total.
    pub fn plain_pass(&mut self, busy_seconds: f64) {
        self.plain_busy_s.push(busy_seconds);
    }

    /// Each operation's median latency over the plain passes.
    pub fn op_medians(&self) -> Vec<f64> {
        self.plain.iter().map(|l| median(l)).collect()
    }

    /// The end-to-end timing metrics, plus the tracing overhead when a
    /// traced pass ran: the traced pass's median operation against the
    /// first plain pass's.
    pub fn values(&self) -> Values {
        let ops = sorted(self.op_medians());
        let mut v = Values::from([
            ("setup_s", median(&self.setup_s)),
            ("op_p50_ms", percentile(&ops, 0.5) * 1e3),
            ("op_p90_ms", percentile(&ops, 0.9) * 1e3),
            (
                "ops_per_s",
                ratio(self.plain.len() as f64, median(&self.plain_busy_s)),
            ),
        ]);
        if self.traced.iter().all(|l| !l.is_empty()) {
            let first = |per_op: &[Vec<f64>]| {
                percentile(
                    &sorted(per_op.iter().filter_map(|l| l.first().copied())),
                    0.5,
                )
            };
            let (plain, traced) = (first(&self.plain), first(&self.traced));
            v.insert(
                "harness.trace_overhead_pct",
                ratio(traced - plain, plain) * 100.0,
            );
        }
        v
    }
}

/// `values` sorted ascending (total order, so NaN cannot panic the sort).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least a fraction `q` of the sample at or below it. 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.iter().copied()), 0.5)
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default, exclusive
/// method). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.iter().copied());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = sorted([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.25), 1.0);
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.51), 3.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // p90 of 1..=100 is exactly the 90th value.
        let hundred = sorted((1..=100).map(f64::from));
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some([1.25, 3.0, 7.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
