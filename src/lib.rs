//! # dopia
//!
//! A complete Rust reproduction of **"Dopia: Online Parallelism Management
//! for Integrated CPU/GPU Architectures"** (Cho, Park, Negele, Jo, Gross,
//! Egger — PPoPP 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`clc`] | OpenCL-C subset compiler frontend (lexer, parser, AST, sema, printer) |
//! | [`sim`] | Deterministic integrated CPU/GPU architecture simulator (interpreter, profiler, cost model, DES) |
//! | [`ml`] | From-scratch LIN / SVR / DT / RF regressors + 64-fold CV |
//! | [`workloads`] | The Table 2 synthetic generator (1,224 workloads) and all 14 real-world kernels |
//! | [`dopia_core`] (re-exported as `core`) | The Dopia runtime: feature extraction, malleable codegen, DoP prediction, dynamic distribution, baselines, oracle, training |
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `crates/bench/src/bin/` for one binary per paper table and figure.
//!
//! ## One-minute tour
//!
//! ```
//! use dopia::prelude::*;
//!
//! // A simulated AMD Kaveri APU and a quick decision-tree model.
//! let engine = Engine::kaveri();
//! let (dataset, _) = dopia::core::training::tiny_training_set(&engine);
//! let model = PerfModel::train(ModelKind::Dt, &dataset, 42);
//! let dopia = Dopia::new(engine, model);
//!
//! // Dopia transparently analyzes + rewrites the kernel at compile time...
//! let program = dopia
//!     .create_program_with_source(workloads::polybench::GESUMMV_SRC)
//!     .unwrap();
//!
//! // ...and predicts the CPU/GPU degree of parallelism at launch time.
//! let mut mem = Memory::new();
//! let built = workloads::polybench::gesummv(&mut mem, 4096, 256);
//! let run = dopia
//!     .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
//!     .unwrap();
//! println!(
//!     "chose {} CPU cores + {}/8 GPU in {:.1} µs of inference",
//!     run.selection.point.cpu_cores,
//!     run.selection.point.gpu_eighths,
//!     run.selection.inference_s * 1e6
//! );
//! ```

pub use clc;
pub use dopia_core as core;
pub use ml;
pub use sim;
pub use workloads;

/// Everything needed for typical use in one import.
pub mod prelude {
    pub use crate::core::{
        baselines::{self, Baseline},
        config_space, oracle, training, BreakerState, CodeFeatures, CommandQueue, DecisionSource,
        DegradedMode, Dopia, DopiaError, DopPoint, FeatureVector, LaunchResult, PerfModel, Program,
        QueueSummary, RuntimeHealth, SupervisionConfig, SupervisionStats, TrainingOptions,
    };
    pub use ml::ModelKind;
    pub use sim::{
        ArgValue, CoreSlowdown, CoreStall, Engine, FaultPlan, Memory, NdRange, PlatformConfig,
        Schedule, SimReport,
    };
    pub use workloads::BuiltKernel;
}
