//! `ml` — the machine-learning substrate for Dopia.
//!
//! The paper trains its performance model with scikit-learn and compares
//! four families (Section 9.2, Fig. 10): Linear Regression, Support Vector
//! Regression, Decision Tree and Random Forest. This crate implements all
//! four from scratch:
//!
//! * [`linreg`] — ordinary least squares via normal equations (ridge-
//!   stabilized Cholesky),
//! * [`dtree`] — CART regression trees with variance-reduction splits,
//! * [`forest`] — bagged random forests with feature subsampling,
//! * [`svr`] — epsilon-SVR with an RBF kernel trained by simplified SMO,
//!
//! plus [`dataset`] containers, [`metrics`], and [`io`] — a plain-text
//! persistence format so trained models ship with deployments.
//!
//! All models implement the [`Regressor`] trait so Dopia can swap them at
//! runtime, and all randomness is seed-controlled for reproducibility.

pub mod dataset;
pub mod io;
pub mod dtree;
pub mod forest;
pub mod linalg;
pub mod linreg;
pub mod metrics;
pub mod svr;

pub use dataset::Dataset;
pub use dtree::{DecisionTree, TreeParams};
pub use forest::{ForestParams, RandomForest};
pub use linreg::LinearRegression;
pub use svr::{Svr, SvrParams};

/// A trained regression model: features in, scalar prediction out.
pub trait Regressor: Send + Sync {
    /// Predict the target for one feature vector.
    fn predict(&self, features: &[f64]) -> f64;

    /// Predict a batch (default: row-by-row).
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Human-readable model family name.
    fn name(&self) -> &'static str;
}

/// The model families the paper compares (Fig. 10 / Fig. 13 legends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Linear regression ("LIN").
    Lin,
    /// Support vector regression ("SVR").
    Svr,
    /// Decision tree ("DT") — Dopia's default.
    Dt,
    /// Random forest ("RF").
    Rf,
}

impl ModelKind {
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Lin => "LIN",
            ModelKind::Svr => "SVR",
            ModelKind::Dt => "DT",
            ModelKind::Rf => "RF",
        }
    }

    pub fn all() -> [ModelKind; 4] {
        [ModelKind::Lin, ModelKind::Svr, ModelKind::Dt, ModelKind::Rf]
    }
}

/// Train a model of the given kind on `data` with reproducible randomness.
pub fn train(kind: ModelKind, data: &Dataset, seed: u64) -> Box<dyn Regressor> {
    match kind {
        ModelKind::Lin => Box::new(LinearRegression::fit(data)),
        ModelKind::Svr => Box::new(Svr::fit(data, &SvrParams::default(), seed)),
        ModelKind::Dt => Box::new(DecisionTree::fit(data, &TreeParams::default())),
        ModelKind::Rf => Box::new(RandomForest::fit(data, &ForestParams::default(), seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four families must learn the same easy nonlinear function to a
    /// reasonable degree (linear will be worst — that is the paper's point).
    #[test]
    fn all_models_learn_step_function() {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..400 {
            let x = (i % 100) as f64 / 100.0;
            let z = (i % 7) as f64;
            rows.push(vec![x, z]);
            ys.push(if x > 0.5 { 1.0 } else { 0.0 });
        }
        let data = Dataset::new(rows, ys).unwrap();
        for kind in ModelKind::all() {
            let model = train(kind, &data, 42);
            let lo = model.predict(&[0.2, 3.0]);
            let hi = model.predict(&[0.8, 3.0]);
            assert!(
                hi - lo > 0.5,
                "{} failed to separate the step: lo={} hi={}",
                model.name(),
                lo,
                hi
            );
        }
    }
}
