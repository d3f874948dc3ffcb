//! `bench_support` — shared machinery for the experiment binaries that
//! regenerate every table and figure of the Dopia paper.
//!
//! Each binary in `src/bin/` prints the paper's rows/series to stdout and
//! writes CSV under `results/`. Expensive artifacts (the full 1,224 x 44
//! measurement grid per platform) are cached on disk so later binaries
//! reuse them.
//!
//! Environment knobs (all optional):
//!
//! * `DOPIA_GRID_STEP` — subsample the synthetic grid (default 1 = all
//!   1,224 workloads; e.g. 8 keeps every 8th for a quick pass).
//! * `DOPIA_FOLDS` — cross-validation folds (default 64, the paper's
//!   protocol).
//! * `DOPIA_RESULTS_DIR` — output directory (default `results`).

pub mod cache;
pub mod csv;
pub mod cv;
pub mod grid;
pub mod stats;

use sim::Engine;

/// The two evaluation platforms, in paper order.
pub fn platforms() -> [Engine; 2] {
    [Engine::kaveri(), Engine::skylake()]
}

/// `DOPIA_GRID_STEP` (default 1).
pub fn grid_step() -> usize {
    std::env::var("DOPIA_GRID_STEP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}

/// `DOPIA_FOLDS` (default 64).
pub fn folds() -> usize {
    std::env::var("DOPIA_FOLDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 2)
        .unwrap_or(64)
}

/// `DOPIA_RESULTS_DIR` (default `results`), created on demand.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::env::var("DOPIA_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("create results dir");
    path
}

/// Print a section header.
pub fn banner(title: &str) {
    println!("\n=== {} ===", title);
}

/// `n` distinct launches of one gesummv-shaped signature (kernel ids
/// `first..first + n`, three buffers and two scalars), each carrying a
/// copy of `decision`: the inputs of the decision-cache benches.
pub fn distinct_launches(
    first: u64,
    n: usize,
    decision: &dopia_core::cache::CachedDecision,
) -> Vec<(dopia_core::LaunchKey, dopia_core::cache::CachedDecision)> {
    use dopia_core::cache::ArgSig;
    let buffer = |id| ArgSig::Buffer { id, len: 16384 * 16384, version: 0 };
    (first..first + n as u64)
        .map(|kernel_id| {
            let key = dopia_core::LaunchKey {
                kernel_id,
                code_id: kernel_id,
                memory_id: 1,
                nd: sim::NdRange::d1(16384, 256),
                args: vec![
                    buffer(0),
                    buffer(1),
                    buffer(2),
                    ArgSig::Float(1.5f32.to_bits()),
                    ArgSig::Int(16384),
                ],
            };
            (key, decision.clone())
        })
        .collect()
}
