//! `dopia-core` — the Dopia runtime (PPoPP'22): online parallelism
//! management for integrated CPU/GPU architectures.
//!
//! Dopia sits on top of an OpenCL runtime (here: the `sim` crate's
//! integrated-architecture simulator) and, fully automatically,
//!
//! 1. **analyzes** kernels at `clCreateProgramWithSource` time, extracting
//!    the Table 1 code features from the AST ([`features`]),
//! 2. **rewrites** them into malleable variants whose GPU degree of
//!    parallelism is adjustable in software ([`codegen`], paper Figs. 5–7),
//! 3. **predicts** the best CPU/GPU thread configuration at
//!    `clEnqueueNDRangeKernel` time by evaluating a pre-trained ML model
//!    over all 44 DoP configurations ([`model`], [`configs`]),
//! 4. **executes** the kernel with dynamic CPU-pull / GPU-push workload
//!    distribution (Algorithm 1, realized by `sim::des`), and
//! 5. ships the offline **training pipeline** over the 1,224-workload
//!    synthetic grid ([`training`]), the **exhaustive oracle** and the
//!    **static baselines** the paper compares against ([`oracle`],
//!    [`baselines`]).
//!
//! # Quickstart
//!
//! ```
//! use dopia_core::{Dopia, TrainingOptions};
//! use sim::{Engine, Memory, ArgValue, NdRange};
//!
//! // Train a small model (full-grid training lives in the bench binaries).
//! let engine = Engine::kaveri();
//! let (dataset, _records) = dopia_core::training::tiny_training_set(&engine);
//! let model = dopia_core::model::PerfModel::train(ml::ModelKind::Dt, &dataset, 42);
//! let mut dopia = Dopia::new(engine, model);
//!
//! // Compile: Dopia analyzes and rewrites the kernel transparently.
//! let program = dopia
//!     .create_program_with_source(
//!         "__kernel void scale(__global float* a, float s, int n) {
//!              int i = get_global_id(0);
//!              if (i < n) { a[i] = a[i] * s; }
//!          }",
//!     )
//!     .unwrap();
//!
//! // Launch: Dopia predicts the DoP and co-executes on CPU + GPU.
//! let mut mem = Memory::new();
//! let a = mem.alloc_f32(vec![1.0; 4096]);
//! let result = dopia
//!     .enqueue_nd_range_kernel(
//!         &program,
//!         "scale",
//!         &[ArgValue::Buffer(a), ArgValue::Float(2.0), ArgValue::Int(4096)],
//!         NdRange::d1(4096, 256),
//!         &mut mem,
//!     )
//!     .unwrap();
//! assert!(result.report.time_s > 0.0);
//! let _ = TrainingOptions::default();
//! ```

pub mod baselines;
pub mod cache;
pub mod codegen;
pub mod configs;
pub mod features;
pub mod model;
pub mod oracle;
pub mod queue;
pub mod runtime;
pub mod supervision;
pub mod training;

pub use cache::{CacheStats, DecisionCache, LaunchKey};
pub use configs::{config_space, DopPoint};
pub use features::{CodeFeatures, FeatureVector};
pub use model::PerfModel;
pub use queue::{CommandQueue, QueueSummary};
pub use runtime::{
    DecisionSource, DegradedMode, Dopia, DopiaError, LaunchResult, Program, RuntimeHealth,
};
pub use supervision::{
    BreakerState, DevicePin, LaunchGuidance, SupervisionConfig, SupervisionStats, Supervisor,
};
pub use training::TrainingOptions;
