//! Functional interpreter for `clc` kernels.
//!
//! Kernels are lowered once to flat bytecode ([`compile`]) and executed by
//! a register VM ([`vm`]); every profile and every functional run goes
//! through that pair. The original tree-walking evaluator survives only as
//! the [`mod@reference`] oracle the differential suite compares the VM
//! against.
//!
//! Executes OpenCL work-groups the way an integrated device would observe
//! them: work-items of one group share `__local` memory and synchronize at
//! top-level `barrier()` calls; all groups share the global
//! [`crate::buffer::Memory`].
//!
//! Two entry points per engine, and the entry point is the mode:
//!
//! * `run_kernel` — the full run on `&mut Memory`. Every work-item of
//!   every group runs to completion; stores hit memory; atomics are real
//!   (serialized, which is a legal schedule). Used to validate that Dopia's
//!   malleable rewrites are semantics-preserving ([`run_functional`]).
//! * `run_single_items` — the sampled, read-only run on `&Memory` that the
//!   profiler uses: stores are counted and dropped, global atomics land in
//!   an overlay that lives for the one call, and `for` loops with
//!   analyzable induction variables run [`PROFILE_LOOP_SAMPLES`] iterations
//!   and extrapolate the rest. Used to characterize paper-scale inputs
//!   without paying paper-scale interpretation time, and without touching
//!   the host's buffers.
//!
//! Both engines reach global memory only through a `GlobalView`, one
//! implementation per entry point, monomorphized like [`Tracer`].
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
pub use exec::ExecError;
pub use tracer::{NullTracer, SiteKey, Tracer};

use crate::buffer::{ArgValue, Buffer, BufferId, Memory};
use crate::ndrange::NdRange;
use clc::{BinOp, Kernel, Scalar, Span};
use exec::ExecResult;
use std::collections::HashMap;

/// In a sampled run, how many iterations of an analyzable loop are executed
/// before the remainder is extrapolated.
pub const PROFILE_LOOP_SAMPLES: usize = 4;

/// Trip count of the affine loop `for (v = cur; v <cmp> bound; v += delta)`,
/// where `cmp` agrees with the sign of `delta` (`<`/`<=` ascending,
/// `>`/`>=` descending). Both engines' sampled-run extrapolation calls
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

/// The global, local and group ids of the work-item at global linear id
/// `linear` (dimension 0 fastest), as both engines' `run_single_items`
/// place it.
fn item_ids(nd: &NdRange, linear: usize) -> [[usize; 3]; 3] {
    let (g0, g1) = (nd.global[0], nd.global[1]);
    let g = [linear % g0, (linear / g0) % g1, linear / (g0 * g1)];
    let gid = std::array::from_fn(|d| g[d] + nd.offset[d]);
    let lid = std::array::from_fn(|d| g[d] % nd.local[d]);
    let grp = std::array::from_fn(|d| g[d] / nd.local[d]);
    [gid, lid, grp]
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
    vm::run_kernel(&ck, args, nd, mem, &mut NullTracer)
}

/// How an engine reads and writes global memory: [`Full`] for
/// `run_kernel`, [`Sampled`] for `run_single_items`. Bounds checks and
/// their messages live here once for both engines; an engine traces an
/// access after its view accepts it.
pub(crate) trait GlobalView {
    /// Extrapolate analyzable loops instead of running every iteration.
    const SAMPLED: bool;

    fn memory(&self) -> &Memory;

    /// A sampled run's atomic result for element `i` of `buf`, if any.
    fn overlay(&self, _buf: BufferId, _i: usize) -> Option<i64> {
        None
    }

    /// Apply a checked store of `value` as `elem`.
    fn put(&mut self, buf: BufferId, i: usize, elem: Scalar, value: Value);

    /// Apply a checked atomic's new value.
    fn put_atomic(&mut self, buf: BufferId, i: usize, new: i64);

    /// `i` as an index a load from `buf` may read, or both engines'
    /// out-of-bounds error.
    #[inline(always)]
    fn load_index(&self, buf: BufferId, i: i64, span: Span) -> ExecResult<usize> {
        in_bounds("load", i, self.memory().get(buf).len(), span)
    }

    /// Element `i` of `buf`, checked by [`GlobalView::load_index`], as an
    /// `elem` value. Reading is split from checking so that a load stays a
    /// compare and a read in the engines' dispatch loops.
    #[inline(always)]
    fn read(&self, buf: BufferId, i: usize, elem: Scalar) -> Value {
        match self.overlay(buf, i) {
            // Atomics take `int` pointers, so the overlay holds ints.
            Some(v) => Value::Int(v),
            None if elem.is_float() => Value::Float(self.memory().get(buf).load_f64(i) as f32),
            None => Value::Int(self.memory().get(buf).load_i64(i)),
        }
    }

    #[inline(always)]
    fn store(&mut self, buf: BufferId, i: i64, ty: Scalar, v: Value, span: Span) -> ExecResult<()> {
        let i = in_bounds("store", i, self.writable(buf, span)?, span)?;
        self.put(buf, i, ty, v);
        Ok(())
    }

    /// Replace element `i` of `buf` by `f(old)` and return `old`.
    fn atomic(
        &mut self,
        buf: BufferId,
        i: i64,
        span: Span,
        f: impl FnOnce(i64) -> i64,
    ) -> ExecResult<i64> {
        let i = i as usize;
        if i >= self.writable(buf, span)? {
            return Err(ExecError::new("atomic index out of bounds", span));
        }
        let old = self.overlay(buf, i).unwrap_or_else(|| self.memory().get(buf).load_i64(i));
        self.put_atomic(buf, i, f(old));
        Ok(old)
    }

    /// The length of `buf`, if this run may write it. A virtual buffer
    /// synthesizes its contents and keeps no stores, so a full run that
    /// writes one would go on from data that is not there.
    fn writable(&self, buf: BufferId, span: Span) -> ExecResult<usize> {
        match self.memory().get(buf) {
            Buffer::VirtualF32 { .. } if !Self::SAMPLED => {
                Err(ExecError::new("write to a virtual buffer in a full run", span))
            }
            b => Ok(b.len()),
        }
    }
}

/// `i` as an index into `len` elements, or both engines' out-of-bounds
/// error for the access `what` ("load", "local store", ...).
#[inline(always)]
fn in_bounds(what: &str, i: i64, len: usize, span: Span) -> ExecResult<usize> {
    if i < 0 || i as usize >= len {
        let message = format!("{} index {} out of bounds ({} elements)", what, i, len);
        return Err(ExecError::new(message, span));
    }
    Ok(i as usize)
}

/// The full run's view: stores and atomics write host memory through
/// [`Memory::get_mut`].
pub(crate) struct Full<'m>(pub &'m mut Memory);

impl GlobalView for Full<'_> {
    const SAMPLED: bool = false;

    fn memory(&self) -> &Memory {
        self.0
    }

    fn put(&mut self, buf: BufferId, i: usize, elem: Scalar, value: Value) {
        let b = self.0.get_mut(buf);
        if elem.is_float() {
            b.store_f64(i, value.as_f32() as f64);
        } else {
            b.store_i64(i, value.as_i64());
        }
    }

    fn put_atomic(&mut self, buf: BufferId, i: usize, new: i64) {
        self.0.get_mut(buf).store_i64(i, new);
    }
}

/// The sampled run's view: host memory is read-only. Stores are dropped;
/// global atomics land in an overlay keyed by `(buffer, index)` that loads
/// and later atomics read through, so a worklist counter still advances
/// item by item within one run, and the overlay dies with the run.
pub(crate) struct Sampled<'m> {
    pub mem: &'m Memory,
    pub atomics: &'m mut HashMap<(BufferId, usize), i32>,
}

impl GlobalView for Sampled<'_> {
    const SAMPLED: bool = true;

    fn memory(&self) -> &Memory {
        self.mem
    }

    #[inline(always)]
    fn overlay(&self, buf: BufferId, i: usize) -> Option<i64> {
        // Most kernels have no atomics: their loads skip the hash.
        if self.atomics.is_empty() {
            return None;
        }
        self.atomics.get(&(buf, i)).map(|&v| v as i64)
    }

    fn put(&mut self, _: BufferId, _: usize, _: Scalar, _: Value) {}

    fn put_atomic(&mut self, buf: BufferId, i: usize, new: i64) {
        // An `int` pointer binds only an i32 buffer: hold what its element
        // would.
        self.atomics.insert((buf, i), new as i32);
    }
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
    fn full_runs_reject_virtual_stores_and_sampled_runs_drop_them() {
        let src = "__kernel void f(__global float* a) { a[get_global_id(0)] = 1.0f; }";
        let k = clc::compile(src).unwrap().kernels.remove(0);
        let ck = compile_kernel(&k).unwrap();
        let nd = NdRange::d1(4, 4);
        let mut mem = Memory::new();
        let args = [ArgValue::Buffer(mem.alloc_virtual_f32(4, 1))];
        let vm_err = vm::run_kernel(&ck, &args, &nd, &mut mem, &mut NullTracer).unwrap_err();
        let ref_err = reference::run_kernel(&k, &args, &nd, &mut mem, &mut NullTracer).unwrap_err();
        assert_eq!(vm_err, ref_err);
        assert!(vm_err.message.contains("virtual buffer"), "{}", vm_err);
        vm::run_single_items(&ck, &args, &nd, &[0, 1], &mem, &mut NullTracer).unwrap();
        reference::run_single_items(&k, &args, &nd, &[0, 1], &mem, &mut NullTracer).unwrap();
    }

    #[test]
    #[should_panic]
    fn pointer_as_number_panics() {
        Value::GlobalPtr { buf: BufferId(0), offset: 0, elem: Scalar::Float }.as_i64();
    }
}
