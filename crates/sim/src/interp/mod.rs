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
//! The leaf semantics live here once, and both engines call them:
//! [`ExecError`], argument binding, barrier phase splitting, the syntactic
//! loop-analysis helpers, unary and binary operators, casts and pointer
//! coercion, the work-item queries, one evaluator per builtin (its value
//! and its arith events) and the atomic update rule. Builtins arrive as
//! the typed [`clc::builtins::Builtin`], resolved from the call's name
//! once. Everything above the leaves — evaluation order, scoping, control
//! flow, loop extrapolation, the group and item drivers — each engine
//! implements on its own.
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
pub use tracer::{NullTracer, SiteKey, Tracer};

use crate::buffer::{ArgValue, Buffer, BufferId, Memory};
use crate::ndrange::NdRange;
use clc::builtins::{self, Atomic, Builtin, Math1, Math2, Query};
use clc::visit::Child;
use clc::{BinOp, Expr, Kernel, Param, Scalar, Span, Stmt, Type, UnOp};
use std::collections::HashMap;
use std::fmt;

/// Runtime error (out-of-bounds access, division by zero, unsupported
/// construct, argument mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    pub message: String,
    pub span: Span,
}

impl ExecError {
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ExecError { message: message.into(), span }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ExecError {}

type ExecResult<T> = Result<T, ExecError>;

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

// ---------------------------------------------------------------------------
// Leaf semantics shared by both engines
// ---------------------------------------------------------------------------

/// Bind kernel arguments to parameter slots (in declaration order),
/// validating kinds, so both engines report byte-identical argument
/// errors.
fn bind_args(
    kernel_name: &str,
    params: &[Param],
    kernel_span: Span,
    args: &[ArgValue],
    mem: &Memory,
) -> ExecResult<Vec<Value>> {
    if args.len() != params.len() {
        return Err(ExecError::new(
            format!(
                "kernel `{}` takes {} arguments, {} supplied",
                kernel_name,
                params.len(),
                args.len()
            ),
            kernel_span,
        ));
    }
    let mut bindings = Vec::with_capacity(args.len());
    for (param, arg) in params.iter().zip(args) {
        let value = match (&param.ty, arg) {
            (Type::Ptr { elem, .. }, ArgValue::Buffer(id)) => {
                let buf_elem = mem.get(*id).elem();
                // Float pointers must bind float buffers and vice versa; the
                // integer width is flexible (int buffers back int/long ptrs).
                if elem.is_float() != buf_elem.is_float() {
                    return Err(ExecError::new(
                        format!(
                            "argument for `{}` has element type {} but buffer holds {}",
                            param.name, elem, buf_elem
                        ),
                        param.span,
                    ));
                }
                Value::GlobalPtr { buf: *id, offset: 0, elem: *elem }
            }
            (Type::Scalar(s), ArgValue::Int(v)) if s.is_integer() => Value::Int(*v),
            (Type::Scalar(s), ArgValue::Float(v)) if s.is_float() => Value::Float(*v),
            (Type::Scalar(s), ArgValue::Int(v)) if s.is_float() => Value::Float(*v as f32),
            (ty, arg) => {
                return Err(ExecError::new(
                    format!("argument for `{}` ({}) does not match {:?}", param.name, ty, arg),
                    param.span,
                ));
            }
        };
        bindings.push(value);
    }
    Ok(bindings)
}

const NESTED_BARRIER: &str = "barrier() must be a top-level statement of the kernel body";

fn is_barrier(e: &Expr) -> bool {
    matches!(e, Expr::Call { name, .. } if builtins::lookup(name) == Some(Builtin::Barrier))
}

/// Split the kernel body into barrier-delimited phases. A `barrier(...)`
/// call anywhere other than as a top-level statement (nested in a block,
/// a loop header or another expression) is an error.
fn split_phases(body: &[Stmt], kernel_span: Span) -> ExecResult<Vec<&[Stmt]>> {
    fn stmt_has_barrier(stmt: &Stmt) -> bool {
        stmt.children().any(|child| match child {
            Child::Stmt(s) => stmt_has_barrier(s),
            Child::Expr(e) => expr_has_barrier(e),
        })
    }
    fn expr_has_barrier(e: &Expr) -> bool {
        is_barrier(e) || e.children().any(expr_has_barrier)
    }

    let mut phases = Vec::new();
    let mut start = 0;
    for (i, stmt) in body.iter().enumerate() {
        if matches!(stmt, Stmt::Expr(e) if is_barrier(e)) {
            phases.push(&body[start..i]);
            start = i + 1;
            continue;
        }
        if stmt_has_barrier(stmt) {
            return Err(ExecError::new(NESTED_BARRIER, kernel_span));
        }
    }
    phases.push(&body[start..]);
    Ok(phases)
}

/// Syntactic check for a compile-time integer constant (loop analysis's
/// step deltas).
fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::IntLit { value, .. } => Some(*value),
        Expr::Unary { op: UnOp::Neg, operand, .. } => const_int(operand).map(|v| -v),
        _ => None,
    }
}

/// Does `stmt` contain any write to variable `var`?
fn writes_var(stmt: &Stmt, var: &str) -> bool {
    stmt.children().any(|child| match child {
        Child::Stmt(s) => writes_var(s, var),
        Child::Expr(e) => expr_writes(e, Some(var)),
    })
}

/// Does evaluating `e` assign or increment the scalar variable `var` (any
/// scalar variable when `var` is `None`)? Memory writes don't count.
fn expr_writes(e: &Expr, var: Option<&str>) -> bool {
    let target = match e {
        Expr::Assign { target, .. } | Expr::IncDec { target, .. } => Some(target.as_ref()),
        _ => None,
    };
    matches!(target, Some(Expr::Ident { name, .. }) if var.is_none_or(|v| v == name))
        || e.children().any(|c| expr_writes(c, var))
}

/// A unary operator: one arith event, then C semantics.
#[inline]
fn unary_op<T: Tracer>(tracer: &mut T, op: UnOp, v: Value, span: Span) -> ExecResult<Value> {
    tracer.arith(v.is_float(), 1.0);
    Ok(match op {
        UnOp::Neg => match v {
            Value::Int(x) => Value::Int(-x),
            Value::Float(x) => Value::Float(-x),
            _ => return Err(ExecError::new("cannot negate pointer", span)),
        },
        UnOp::Not => Value::Int((!v.is_truthy()) as i64),
        UnOp::BitNot => Value::Int(!v.as_i64()),
    })
}

/// A binary operator (other than the short-circuiting `&&`/`||`): one
/// arith event, then C-style evaluation on int or float operands.
fn binary_op<T: Tracer>(
    tracer: &mut T,
    op: BinOp,
    l: Value,
    r: Value,
    span: Span,
) -> ExecResult<Value> {
    let float = l.is_float() || r.is_float();
    tracer.arith(float, 1.0);
    use BinOp::*;
    if float {
        let (a, b) = (l.as_f32(), r.as_f32());
        return Ok(match op {
            Add => Value::Float(a + b),
            Sub => Value::Float(a - b),
            Mul => Value::Float(a * b),
            Div => Value::Float(a / b),
            Lt => Value::Int((a < b) as i64),
            Gt => Value::Int((a > b) as i64),
            Le => Value::Int((a <= b) as i64),
            Ge => Value::Int((a >= b) as i64),
            Eq => Value::Int((a == b) as i64),
            Ne => Value::Int((a != b) as i64),
            other => {
                return Err(ExecError::new(
                    format!("`{}` on float operands", other.symbol()),
                    span,
                ));
            }
        });
    }
    let (a, b) = (l.as_i64(), r.as_i64());
    Ok(match op {
        Add => Value::Int(a.wrapping_add(b)),
        Sub => Value::Int(a.wrapping_sub(b)),
        Mul => Value::Int(a.wrapping_mul(b)),
        Div => {
            if b == 0 {
                return Err(ExecError::new("integer division by zero", span));
            }
            Value::Int(a.wrapping_div(b))
        }
        Rem => {
            if b == 0 {
                return Err(ExecError::new("integer remainder by zero", span));
            }
            Value::Int(a.wrapping_rem(b))
        }
        Shl => Value::Int(a.wrapping_shl(b as u32)),
        Shr => Value::Int(a.wrapping_shr(b as u32)),
        BitAnd => Value::Int(a & b),
        BitOr => Value::Int(a | b),
        BitXor => Value::Int(a ^ b),
        Lt => Value::Int((a < b) as i64),
        Gt => Value::Int((a > b) as i64),
        Le => Value::Int((a <= b) as i64),
        Ge => Value::Int((a >= b) as i64),
        Eq => Value::Int((a == b) as i64),
        Ne => Value::Int((a != b) as i64),
        And | Or => unreachable!("engines short-circuit logical operators"),
    })
}

/// Convert a value to the given scalar type with C semantics; pointers
/// pass through.
fn cast_value(v: Value, to: Scalar) -> Value {
    match v {
        Value::GlobalPtr { .. } | Value::LocalPtr { .. } | Value::PrivPtr { .. } => v,
        _ if to.is_float() => Value::Float(v.as_f32()),
        _ => Value::Int(v.as_i64()),
    }
}

/// A pointer-typed declaration's initializer, which must be a pointer.
fn coerce_ptr(v: Value, span: Span) -> ExecResult<Value> {
    match v {
        Value::GlobalPtr { .. } | Value::LocalPtr { .. } | Value::PrivPtr { .. } => Ok(v),
        other => Err(ExecError::new(format!("cannot initialize pointer from {:?}", other), span)),
    }
}

/// Where a work-item sits in its NDRange: what the work-item queries read.
#[derive(Clone, Copy)]
struct ItemIds<'a> {
    nd: &'a NdRange,
    gid: [usize; 3],
    lid: [usize; 3],
    grp: [usize; 3],
}

impl<'a> ItemIds<'a> {
    /// Work-item `local_linear` of the group at `group` (full runs).
    fn in_group(nd: &'a NdRange, group: [usize; 3], local_linear: usize) -> Self {
        let lid = nd.local_coords(local_linear);
        let gid = std::array::from_fn(|d| group[d] * nd.local[d] + lid[d] + nd.offset[d]);
        ItemIds { nd, gid, lid, grp: group }
    }

    /// The work-item at global linear id `linear`, dimension 0 fastest
    /// (sampled runs).
    fn at(nd: &'a NdRange, linear: usize) -> Self {
        let (g0, g1) = (nd.global[0], nd.global[1]);
        let g = [linear % g0, (linear / g0) % g1, linear / (g0 * g1)];
        ItemIds {
            nd,
            gid: std::array::from_fn(|d| g[d] + nd.offset[d]),
            lid: std::array::from_fn(|d| g[d] % nd.local[d]),
            grp: std::array::from_fn(|d| g[d] / nd.local[d]),
        }
    }

    fn query(&self, q: Query, dim: Value, span: Span) -> ExecResult<Value> {
        let d = dim.as_i64() as usize;
        if d > 2 {
            return Err(ExecError::new(format!("dimension {} out of range", d), span));
        }
        let v = match q {
            Query::GlobalId => self.gid[d],
            Query::LocalId => self.lid[d],
            Query::GroupId => self.grp[d],
            Query::GlobalSize => self.nd.global[d],
            Query::LocalSize => self.nd.local[d],
            Query::NumGroups => self.nd.groups_in_dim(d),
            Query::GlobalOffset => self.nd.offset[d],
        };
        Ok(Value::Int(v as i64))
    }
}

/// The value of a builtin call that does not touch memory (every builtin
/// but the atomics), with its arith events: one-operand math and `pow`
/// count 4 flops, `mad`/`fma` 2, `fmin`/`fmax`/`min`/`max`/`abs` 1.
/// `args` holds the evaluated arguments in order; slots past the
/// builtin's arity are ignored.
#[inline]
fn builtin_value<T: Tracer>(
    tracer: &mut T,
    f: Builtin,
    args: [Value; 3],
    item: &ItemIds,
    span: Span,
) -> ExecResult<Value> {
    let [a, b, c] = args;
    Ok(match f {
        Builtin::Query(q) => item.query(q, a, span)?,
        Builtin::WorkDim => Value::Int(item.nd.work_dim as i64),
        Builtin::Barrier => return Err(ExecError::new(NESTED_BARRIER, span)),
        Builtin::Math1(m) => {
            let x = a.as_f32();
            tracer.arith(true, 4.0);
            Value::Float(match m {
                Math1::Sqrt => x.sqrt(),
                Math1::Rsqrt => 1.0 / x.sqrt(),
                Math1::Fabs => x.abs(),
                Math1::Exp => x.exp(),
                Math1::Log => x.ln(),
                Math1::Sin => x.sin(),
                Math1::Cos => x.cos(),
                Math1::Floor => x.floor(),
                Math1::Ceil => x.ceil(),
            })
        }
        Builtin::Math2(m) => {
            let (a, b) = (a.as_f32(), b.as_f32());
            tracer.arith(true, if m == Math2::Pow { 4.0 } else { 1.0 });
            Value::Float(match m {
                Math2::Pow => a.powf(b),
                Math2::Fmin => a.min(b),
                Math2::Fmax => a.max(b),
            })
        }
        Builtin::Mad => {
            let (a, b, c) = (a.as_f32(), b.as_f32(), c.as_f32());
            tracer.arith(true, 2.0);
            Value::Float(a * b + c)
        }
        Builtin::Min | Builtin::Max => {
            let float = a.is_float() || b.is_float();
            tracer.arith(float, 1.0);
            match (f == Builtin::Min, float) {
                (true, true) => Value::Float(a.as_f32().min(b.as_f32())),
                (false, true) => Value::Float(a.as_f32().max(b.as_f32())),
                (true, false) => Value::Int(a.as_i64().min(b.as_i64())),
                (false, false) => Value::Int(a.as_i64().max(b.as_i64())),
            }
        }
        Builtin::Abs => {
            tracer.arith(a.is_float(), 1.0);
            match a {
                Value::Int(x) => Value::Int(x.abs()),
                Value::Float(x) => Value::Float(x.abs()),
                _ => return Err(ExecError::new("abs on pointer", span)),
            }
        }
        Builtin::Atomic(_) => unreachable!("engines dispatch atomics on their pointer"),
    })
}

/// The value an atomic `op` leaves in an element that held `old`, given
/// its operands after the pointer (slots past its arity are ignored).
fn atomic_update(op: Atomic, old: i64, [a, b]: [Value; 2]) -> i64 {
    match op {
        Atomic::Inc => old + 1,
        Atomic::Dec => old - 1,
        Atomic::Add => old.wrapping_add(a.as_i64()),
        Atomic::Sub => old.wrapping_add(-a.as_i64()),
        Atomic::Xchg => a.as_i64(),
        Atomic::Min => old.min(a.as_i64()),
        Atomic::Max => old.max(a.as_i64()),
        Atomic::Cmpxchg if old == a.as_i64() => b.as_i64(),
        Atomic::Cmpxchg => old,
    }
}

/// An atomic on element `offset` of a `__local` or private array: store
/// `f(old)` and return `old`.
fn atomic_in(a: &mut [Value], offset: i64, f: impl FnOnce(i64) -> i64) -> Value {
    let i = offset as usize;
    let old = a[i].as_i64();
    a[i] = Value::Int(f(old));
    Value::Int(old)
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
