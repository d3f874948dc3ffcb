//! Order statistics over raw samples, and the host-time estimator every
//! end-to-end timing goes through.

use std::collections::HashMap;

/// Linear-interpolated percentile `p` (0–100) of a sorted sample; 0 when
/// the sample is empty.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo].into() * (1.0 - frac) + sorted[hi].into() * frac
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The percentile of one operation's repeats taken as its cost.
const COST_PERCENTILE: f64 = 10.0;

/// Wall times in nanoseconds of repeated operations, grouped by what was
/// repeated (a launch signature and its outcome, a program, a synthetic
/// workload).
///
/// Neighbour load on a shared machine slows whole stretches of a run by a
/// third or more, but even then a share of the calls runs undisturbed. An
/// operation's cost is therefore the low decile of its repeats, and every
/// statistic below weights each operation's cost by how often it ran. A
/// change that makes an operation slower moves its low decile with it.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    by_key: HashMap<u64, Vec<u32>>,
}

impl Timings {
    pub fn push(&mut self, key: u64, ns: u64) {
        self.by_key.entry(key).or_default().push(ns.min(u32::MAX as u64) as u32);
    }

    pub fn merge(&mut self, other: Timings) {
        for (key, ns) in other.by_key {
            self.by_key.entry(key).or_default().extend(ns);
        }
    }

    /// Number of timed calls.
    pub fn len(&self) -> usize {
        self.by_key.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Number of distinct operations.
    pub fn keys(&self) -> usize {
        self.by_key.len()
    }

    /// Each operation's cost in nanoseconds with its count, cheapest first.
    fn costs(&self) -> Vec<(f64, usize)> {
        let mut out: Vec<(f64, usize)> = self
            .by_key
            .values()
            .map(|ns| {
                let mut v = ns.clone();
                v.sort_unstable();
                (percentile(&v, COST_PERCENTILE), v.len())
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Percentile `p` over all calls, each at its operation's cost, in
    /// microseconds, with the number of calls above it.
    pub fn percentile_us(&self, p: f64) -> (f64, usize) {
        let costs = self.costs();
        let total: usize = costs.iter().map(|c| c.1).sum();
        let rank = p / 100.0 * total as f64;
        let mut seen = 0;
        for (i, &(ns, n)) in costs.iter().enumerate() {
            seen += n;
            if seen as f64 >= rank {
                let above = costs[i + 1..].iter().map(|c| c.1).sum();
                return (ns / 1e3, above);
            }
        }
        (0.0, 0)
    }

    /// Total cost of all calls, in seconds.
    pub fn total_s(&self) -> f64 {
        self.costs().iter().map(|&(ns, n)| ns * n as f64).sum::<f64>() * 1e-9
    }

    /// Calls per second of their total cost; 0 when empty.
    pub fn rate(&self) -> f64 {
        let total = self.total_s();
        if total > 0.0 {
            self.len() as f64 / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn timings_cost_each_operation_at_its_low_decile() {
        let mut t = Timings::default();
        // Operation 1 costs 1 µs but a fifth of its calls ran slowed down.
        for i in 0..100u64 {
            t.push(1, if i % 5 == 0 { 3000 } else { 1000 });
        }
        for _ in 0..300 {
            t.push(2, 2000);
        }
        assert_eq!(t.len(), 400);
        assert_eq!(t.keys(), 2);
        assert_eq!(t.percentile_us(20.0), (1.0, 300));
        assert_eq!(t.percentile_us(50.0), (2.0, 0));
        assert!((t.total_s() - 700e-6).abs() < 1e-12);
        assert!((t.rate() - 400.0 / 700e-6).abs() < 1e-3);
    }
}
