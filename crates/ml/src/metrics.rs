//! Regression metrics.

/// Mean squared error.
pub fn mse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(mse(&y, &y), 0.0);
    }

    #[test]
    fn known_errors() {
        let p = [1.0, 2.0];
        let t = [2.0, 4.0];
        assert_eq!(mse(&p, &t), (1.0 + 4.0) / 2.0);
    }
}
