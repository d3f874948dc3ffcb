//! Functional interpreter for `clc` kernels.
//!
//! Kernels are lowered once to flat bytecode ([`compile`]) and executed by
//! a register VM ([`vm`]); every profile and every functional run goes
//! through that pair. The original tree-walking evaluator survives only as
//! the [`reference`] oracle the differential suite compares the VM against.
//!
//! Executes OpenCL work-groups the way an integrated device would observe
//! them: work-items of one group share `__local` memory and synchronize at
//! top-level `barrier()` calls; all groups share the global
//! [`crate::buffer::Memory`].
//!
//! Two modes:
//!
//! * [`Mode::Full`] — faithful functional execution. Every work-item of
//!   every group runs to completion; stores hit memory; atomics are real
//!   (serialized, which is a legal schedule). Used to validate that Dopia's
//!   malleable rewrites are semantics-preserving ([`run_functional`]).
//! * [`Mode::Profile`] — sampling execution for the profiler: stores are
//!   suppressed and counted, and `for` loops with analyzable induction
//!   variables run [`PROFILE_LOOP_SAMPLES`] iterations and extrapolate the
//!   rest. Used to characterize paper-scale inputs without paying
//!   paper-scale interpretation time.
//!
//! Barrier restriction: `barrier()` must appear as a top-level statement of
//! the kernel body. The kernel is split into barrier-delimited *phases*;
//! each phase runs for every work-item of the group before the next phase
//! starts. This matches how Dopia's generated malleable kernels use
//! barriers (one after worklist initialization) and covers the OpenCL
//! work-group execution model for that shape. A barrier nested in control
//! flow is reported as an unsupported-construct error.

pub mod compile;
mod exec;
mod tracer;
pub mod vm;

pub use compile::{compile_kernel, CompiledKernel, SiteTable};
pub use exec::{ExecError, Mode};
pub use tracer::{NullTracer, SiteKey, Tracer};

use crate::buffer::{ArgValue, BufferId, Memory};
use crate::ndrange::NdRange;
use clc::{BinOp, Kernel, Scalar};

/// In profile mode, how many iterations of an analyzable loop are executed
/// before the remainder is extrapolated.
pub const PROFILE_LOOP_SAMPLES: usize = 4;

/// Trip count of the affine loop `for (v = cur; v <cmp> bound; v += delta)`,
/// where `cmp` agrees with the sign of `delta` (`<`/`<=` ascending,
/// `>`/`>=` descending). Both engines' profile-mode extrapolation calls
/// this; it works in `i128`, so an extreme bound (`j < LONG_MAX` from a
/// negative start) neither overflows nor wraps to zero trips.
fn loop_trips(cmp: BinOp, cur: i64, bound: i64, delta: i64) -> i128 {
    let (cur, bound, delta) = (cur as i128, bound as i128, delta as i128);
    let trips = match cmp {
        BinOp::Lt => (bound - cur + delta - 1).div_euclid(delta),
        BinOp::Le => (bound - cur + delta).div_euclid(delta),
        BinOp::Gt => (cur - bound - delta - 1).div_euclid(-delta),
        _ => (cur - bound - delta).div_euclid(-delta),
    };
    trips.max(0)
}

/// The induction step that fast-forwards an extrapolated loop of `trips`
/// iterations past its [`PROFILE_LOOP_SAMPLES`] sampled ones, saturated
/// into `i64`; engines add it to the induction variable with
/// `i64::saturating_add`.
fn loop_fast_forward(trips: i128, delta: i64) -> i64 {
    let ffwd = (trips - PROFILE_LOOP_SAMPLES as i128) * delta as i128;
    ffwd.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// The tree-walking reference interpreter: the oracle the bytecode VM must
/// match event for event. Only the differential suite and
/// [`crate::profile::profile_reference`] reach it.
pub mod reference {
    pub use super::exec::{run_kernel, run_single_items};
}

/// Execute the whole NDRange functionally (every group, every item) on the
/// bytecode VM, lowering `kernel` first. Mutates `mem`; use for
/// correctness validation at laptop-scale problem sizes.
pub fn run_functional(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
) -> Result<(), ExecError> {
    let ck = compile_kernel(kernel)?;
    vm::run_kernel(&ck, args, nd, mem, Mode::Full, &mut NullTracer)
}

/// A runtime value. Floats use `f32` to match OpenCL single precision, so
/// interpreter output is bit-comparable with `f32` reference code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f32),
    /// Pointer into a global buffer (element offset).
    GlobalPtr { buf: BufferId, offset: i64, elem: Scalar },
    /// Pointer into a `__local` array of the current work-group.
    LocalPtr { arr: usize, offset: i64 },
    /// Pointer into a private (per-work-item) array.
    PrivPtr { arr: usize, offset: i64 },
}

impl Value {
    /// Numeric value as i64 (floats truncate like a C cast).
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Float(v) => *v as i64,
            other => panic!("pointer value used as integer: {:?}", other),
        }
    }

    /// Numeric value as f32.
    pub fn as_f32(&self) -> f32 {
        match self {
            Value::Int(v) => *v as f32,
            Value::Float(v) => *v,
            other => panic!("pointer value used as float: {:?}", other),
        }
    }

    /// Truthiness (C semantics: nonzero is true).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            other => panic!("pointer value used as condition: {:?}", other),
        }
    }

    /// True if this is a float value.
    pub fn is_float(&self) -> bool {
        matches!(self, Value::Float(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(5).as_f32(), 5.0);
        assert_eq!(Value::Float(2.9).as_i64(), 2); // C truncation
        assert_eq!(Value::Float(-2.9).as_i64(), -2);
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
    }

    #[test]
    #[should_panic]
    fn pointer_as_number_panics() {
        Value::GlobalPtr { buf: BufferId(0), offset: 0, elem: Scalar::Float }.as_i64();
    }
}
