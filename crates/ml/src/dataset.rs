//! Feature-matrix / target-vector containers.

/// A regression dataset: `n` rows of `d` features plus `n` targets.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Build a dataset, validating shape consistency.
    pub fn new(rows: Vec<Vec<f64>>, targets: Vec<f64>) -> Result<Self, String> {
        if rows.len() != targets.len() {
            return Err(format!("{} rows but {} targets", rows.len(), targets.len()));
        }
        if let Some(first) = rows.first() {
            let d = first.len();
            if d == 0 {
                return Err("rows must have at least one feature".into());
            }
            if let Some(bad) = rows.iter().find(|r| r.len() != d) {
                return Err(format!("inconsistent row width: {} vs {}", bad.len(), d));
            }
        }
        if rows
            .iter()
            .flatten()
            .chain(targets.iter())
            .any(|v| !v.is_finite())
        {
            return Err("dataset contains non-finite values".into());
        }
        Ok(Dataset { rows, targets })
    }

    /// Empty dataset with no rows (features unknown until the first push).
    pub fn empty() -> Self {
        Dataset::default()
    }

    /// Append one sample.
    pub fn push(&mut self, row: Vec<f64>, target: f64) {
        debug_assert!(self.rows.is_empty() || self.rows[0].len() == row.len());
        self.rows.push(row);
        self.targets.push(target);
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of features per row (0 for an empty dataset).
    pub fn dims(&self) -> usize {
        self.rows.first().map(Vec::len).unwrap_or(0)
    }

    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// Select a subset by row indices (indices may repeat — used by
    /// bootstrap sampling).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            rows: indices.iter().map(|&i| self.rows[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
        }
    }

    /// Per-feature (mean, std) for standardization. Zero-variance features
    /// get std 1 so they pass through unchanged.
    pub fn feature_stats(&self) -> Vec<(f64, f64)> {
        let d = self.dims();
        let n = self.len().max(1) as f64;
        let mut stats = vec![(0.0, 0.0); d];
        for row in &self.rows {
            for (j, &v) in row.iter().enumerate() {
                stats[j].0 += v;
            }
        }
        for s in &mut stats {
            s.0 /= n;
        }
        for row in &self.rows {
            for (j, &v) in row.iter().enumerate() {
                let m = stats[j].0;
                stats[j].1 += (v - m) * (v - m);
            }
        }
        for s in &mut stats {
            s.1 = (s.1 / n).sqrt();
            if s.1 < 1e-12 {
                s.1 = 1.0;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let rows = (0..n).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let ys = (0..n).map(|i| i as f64 * 2.0).collect();
        Dataset::new(rows, ys).unwrap()
    }

    #[test]
    fn validates_shapes() {
        assert!(Dataset::new(vec![vec![1.0]], vec![1.0, 2.0]).is_err());
        assert!(Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 0.0]).is_err());
        assert!(Dataset::new(vec![vec![f64::NAN]], vec![0.0]).is_err());
        assert!(Dataset::new(vec![], vec![]).is_ok());
    }

    #[test]
    fn feature_stats_standardize() {
        let d = Dataset::new(
            vec![vec![1.0, 5.0], vec![3.0, 5.0]],
            vec![0.0, 0.0],
        )
        .unwrap();
        let stats = d.feature_stats();
        assert_eq!(stats[0].0, 2.0);
        assert!((stats[0].1 - 1.0).abs() < 1e-12);
        // Zero-variance feature gets unit std.
        assert_eq!(stats[1], (5.0, 1.0));
    }

    #[test]
    fn select_with_repeats() {
        let d = toy(5);
        let s = d.select(&[0, 0, 4]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.target(0), 0.0);
        assert_eq!(s.target(2), 8.0);
    }
}
