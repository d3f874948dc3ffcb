//! Malleable code generation (paper Section 6).
//!
//! * [`malleable`] — the GPU transform of Figs. 5/6: inject the
//!   `dop_gpu_mod` / `dop_gpu_alloc` throttle, a CU-local atomic worklist,
//!   and explicit work-item index reconstruction.
//! * [`cpu`] — the CPU-side code of Fig. 7: one work-group per core off a
//!   global atomic worklist (emitted as C++-style source for inspection;
//!   the simulator's work-group executor implements the same semantics
//!   natively).

pub mod cpu;
pub mod malleable;

pub use cpu::generate_cpu_source;
pub use malleable::{check_malleable, transform_malleable, MALLEABLE_PARAMS};
