//! `sim` — a deterministic performance simulator of an integrated CPU/GPU
//! architecture.
//!
//! The Dopia paper evaluates on physical AMD Kaveri and Intel Skylake parts;
//! this crate is the laptop-scale substitute (see DESIGN.md §2). It models
//! the mechanisms that drive every result in the paper:
//!
//! * a **CPU device** of a few fat cores with large private caches,
//! * a **GPU device** of many compute units (CUs) running wavefronts of
//!   processing elements (PEs) in lockstep, with a coalescing unit and a
//!   shared L2 whose capacity misses grow with the number of active threads,
//! * one **shared DRAM** whose bandwidth is split between the devices
//!   (proportional-share with per-device latency/MLP ceilings), and
//! * per-dispatch kernel-launch latency.
//!
//! Three layers:
//!
//! * [`interp`] — a bytecode compiler and register VM for `clc` kernels
//!   (work-groups, barriers, local memory, atomics). Used for correctness
//!   (validating that Dopia's malleable rewrites compute the same result as
//!   the original) and, as a read-only sampled run, by the profiler. A
//!   tree-walking reference interpreter is kept as the VM's oracle.
//! * [`profile`] — a sampling profiler that interprets a handful of
//!   work-items and derives per-work-item operation counts, per-site memory
//!   access patterns (intra-item and cross-item strides), footprints and
//!   divergence. This is the "hardware truth" the paper measures by running
//!   kernels natively.
//! * [`cost`] + [`des`] + [`engine`] — the timing model: converts a profile
//!   plus a degree-of-parallelism configuration and a scheduling policy into
//!   simulated execution time and DRAM traffic via a discrete-event
//!   co-execution of CPU cores and GPU chunk dispatches.
//!
//! Determinism: given the same kernel, inputs and configuration, every run
//! produces bit-identical reports — there is no wall-clock dependence.

pub mod buffer;
pub mod cost;
pub mod des;
pub mod engine;
pub mod fault;
pub mod interp;
pub mod ndrange;
pub mod platform;
pub mod profile;

pub use buffer::{ArgValue, Buffer, BufferId, Memory};
pub use engine::{Engine, LaunchSpec, Schedule, SimReport};
pub use fault::{CoreSlowdown, CoreStall, FaultPlan};
pub use interp::{compile_kernel, CompiledKernel};
pub use ndrange::NdRange;
pub use platform::{CpuConfig, GpuConfig, MemConfig, PlatformConfig};
pub use profile::{AccessClass, KernelProfile};
