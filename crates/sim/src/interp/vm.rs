//! The bytecode VM: executes [`super::compile::CompiledKernel`] phases with
//! a dense `Vec<Value>` register file.
//!
//! Every instruction handler reproduces the corresponding tree-walker
//! behaviour *exactly* — same tracer events in the same order, same error
//! messages, same arithmetic and the same overflow/panic behaviour on
//! degenerate inputs. Operators, casts, builtin calls and atomic updates
//! run the leaf semantics both engines share (see [`crate::interp`]);
//! control flow, registers and loop extrapolation are the VM's. Every profile
//! and every functional run executes on this VM; the tree-walker survives
//! only as the oracle the differential suite in
//! `tests/bytecode_equivalence.rs` pins it against.

use super::compile::{CompiledKernel, Insn, LocalSpec, Phase};
use super::tracer::Tracer;
use super::{
    atomic_in, atomic_update, bind_args, binary_op, builtin_value, cast_value, coerce_ptr,
    in_bounds, loop_fast_forward, loop_trips, unary_op, ExecError, ExecResult, Full, GlobalView,
    ItemIds, Sampled, Value, PROFILE_LOOP_SAMPLES,
};
use crate::buffer::{ArgValue, Memory};
use crate::ndrange::NdRange;
use std::collections::HashMap;

/// Per-dispatch execution context: one work-item's view of the world.
struct Vm<'a, T: Tracer, G: GlobalView> {
    global: G,
    tracer: &'a mut T,
    ids: ItemIds<'a>,
    /// `__local` array shapes from the compiler (allocated lazily on first
    /// [`Insn::BindLocal`], shared by the work-group).
    specs: &'a [LocalSpec],
    locals: &'a mut Vec<Option<Vec<Value>>>,
    /// Private arrays of the current work-item (persist across phases).
    priv_arrays: &'a mut Vec<Vec<Value>>,
}

impl<'a, T: Tracer, G: GlobalView> Vm<'a, T, G> {
    /// Run one phase to completion. Returns `true` if the item executed a
    /// `return` (it then skips all remaining phases).
    fn run_phase(&mut self, phase: &Phase, regs: &mut [Value]) -> ExecResult<bool> {
        let code = &phase.code;
        let spans = &phase.spans;
        let mut pc = 0usize;
        // Open scale regions (sampled-run loop extrapolation). `return`
        // unwinds them all, exactly like Flow::Return propagating out of
        // nested extrapolated loops in the tree-walker.
        let mut scale_depth = 0usize;
        while pc < code.len() {
            let span = spans[pc];
            match code[pc] {
                Insn::ConstInt { dst, v } => regs[dst as usize] = Value::Int(v),
                Insn::ConstFloat { dst, v } => regs[dst as usize] = Value::Float(v),
                Insn::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
                Insn::Truthy { dst, src } => {
                    regs[dst as usize] = Value::Int(regs[src as usize].is_truthy() as i64);
                }
                Insn::CountIop => self.tracer.arith(false, 1.0),
                Insn::Unary { op, dst, src } => {
                    regs[dst as usize] = unary_op(self.tracer, op, regs[src as usize], span)?;
                }
                Insn::Binary { op, dst, lhs, rhs } => {
                    regs[dst as usize] =
                        binary_op(self.tracer, op, regs[lhs as usize], regs[rhs as usize], span)?;
                }
                Insn::IncDec { old_dst, new_dst, src, delta } => {
                    let v = regs[src as usize];
                    self.tracer.arith(false, 1.0);
                    regs[new_dst as usize] = Value::Int(v.as_i64() + delta);
                    regs[old_dst as usize] = v;
                }
                Insn::Jump { to } => {
                    pc = to as usize;
                    continue;
                }
                Insn::JumpIfFalse { cond, to } => {
                    if !regs[cond as usize].is_truthy() {
                        pc = to as usize;
                        continue;
                    }
                }
                Insn::JumpIfTrue { cond, to } => {
                    if regs[cond as usize].is_truthy() {
                        pc = to as usize;
                        continue;
                    }
                }
                Insn::JumpIfFull { to } => {
                    if !G::SAMPLED {
                        pc = to as usize;
                        continue;
                    }
                }
                Insn::Load { dst, ptr, idx, site } => {
                    let idx = regs[idx as usize].as_i64();
                    regs[dst as usize] = match regs[ptr as usize] {
                        Value::GlobalPtr { buf, offset, elem } => {
                            let i = offset + idx;
                            let at = self.global.load_index(buf, i, span)?;
                            self.tracer.load(site, buf, i, elem.size_bytes());
                            self.global.read(buf, at, elem)
                        }
                        Value::LocalPtr { arr, offset } => {
                            let a = self.locals[arr].as_ref().expect("local bound before use");
                            a[in_bounds("local load", offset + idx, a.len(), span)?]
                        }
                        Value::PrivPtr { arr, offset } => {
                            let a = &self.priv_arrays[arr];
                            a[in_bounds("private load", offset + idx, a.len(), span)?]
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("cannot index non-pointer value {:?}", other),
                                span,
                            ));
                        }
                    };
                }
                Insn::Store { src, ptr, idx, site } => {
                    let value = regs[src as usize];
                    let idx = regs[idx as usize].as_i64();
                    match regs[ptr as usize] {
                        Value::GlobalPtr { buf, offset, elem } => {
                            let i = offset + idx;
                            self.global.store(buf, i, elem, value, span)?;
                            self.tracer.store(site, buf, i, elem.size_bytes());
                        }
                        Value::LocalPtr { arr, offset } => {
                            let a = self.locals[arr].as_mut().expect("local bound before use");
                            let i = in_bounds("local store", offset + idx, a.len(), span)?;
                            a[i] = value;
                        }
                        Value::PrivPtr { arr, offset } => {
                            let a = &mut self.priv_arrays[arr];
                            let i = in_bounds("private store", offset + idx, a.len(), span)?;
                            a[i] = value;
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("cannot index non-pointer value {:?}", other),
                                span,
                            ));
                        }
                    }
                }
                Insn::Call { f, dst, args } => {
                    let values = args.map(|r| regs[r as usize]);
                    regs[dst as usize] = builtin_value(self.tracer, f, values, &self.ids, span)?;
                }
                Insn::CastScalar { dst, src, to } => {
                    regs[dst as usize] = cast_value(regs[src as usize], to);
                }
                Insn::CoercePtr { dst, src } => {
                    regs[dst as usize] = coerce_ptr(regs[src as usize], span)?;
                }
                Insn::AllocPriv { dst, len, is_float } => {
                    let zero = if is_float { Value::Float(0.0) } else { Value::Int(0) };
                    self.priv_arrays.push(vec![zero; len as usize]);
                    regs[dst as usize] =
                        Value::PrivPtr { arr: self.priv_arrays.len() - 1, offset: 0 };
                }
                Insn::BindLocal { dst, idx } => {
                    let slot = &mut self.locals[idx as usize];
                    if slot.is_none() {
                        let spec = self.specs[idx as usize];
                        let zero =
                            if spec.is_float { Value::Float(0.0) } else { Value::Int(0) };
                        *slot = Some(vec![zero; spec.len]);
                    }
                    regs[dst as usize] = Value::LocalPtr { arr: idx as usize, offset: 0 };
                }
                Insn::Atomic { op, dst, ptr, args } => {
                    let operands = args.map(|r| regs[r as usize]);
                    let apply = |old| atomic_update(op, old, operands);
                    regs[dst as usize] = match regs[ptr as usize] {
                        Value::LocalPtr { arr, offset } => {
                            let a = self.locals[arr].as_mut().expect("local bound before use");
                            atomic_in(a, offset, apply)
                        }
                        Value::GlobalPtr { buf, offset, .. } => {
                            Value::Int(self.global.atomic(buf, offset, span, apply)?)
                        }
                        Value::PrivPtr { arr, offset } => {
                            atomic_in(&mut self.priv_arrays[arr], offset, apply)
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("atomic operation on non-pointer {:?}", other),
                                span,
                            ));
                        }
                    };
                }
                Insn::LoopBegin { var, bound, counter, scaled, ffwd, delta, cmp } => {
                    let bnd = regs[bound as usize].as_i64();
                    let cur = regs[var as usize].as_i64();
                    let trips = loop_trips(cmp, cur, bnd, delta);
                    let samples = PROFILE_LOOP_SAMPLES as i128;
                    if trips <= samples * 2 {
                        // Short loop: run every iteration, no extrapolation.
                        regs[counter as usize] = Value::Int(trips as i64);
                        regs[scaled as usize] = Value::Int(0);
                    } else {
                        self.tracer.begin_scale(trips as f64 / samples as f64);
                        scale_depth += 1;
                        regs[counter as usize] = Value::Int(samples as i64);
                        regs[scaled as usize] = Value::Int(1);
                        regs[ffwd as usize] = Value::Int(loop_fast_forward(trips, delta));
                    }
                }
                Insn::LoopNext { counter, scaled, ffwd, var, back } => {
                    let c = regs[counter as usize].as_i64() - 1;
                    regs[counter as usize] = Value::Int(c);
                    if c > 0 {
                        pc = back as usize;
                        continue;
                    }
                    if regs[scaled as usize].is_truthy() {
                        self.tracer.end_scale();
                        scale_depth -= 1;
                        regs[scaled as usize] = Value::Int(0);
                        // Fast-forward the induction variable to its
                        // post-loop value.
                        let step = regs[ffwd as usize].as_i64();
                        regs[var as usize] =
                            Value::Int(regs[var as usize].as_i64().saturating_add(step));
                    }
                }
                Insn::EndScaleIf { scaled } => {
                    if regs[scaled as usize].is_truthy() {
                        self.tracer.end_scale();
                        scale_depth -= 1;
                        regs[scaled as usize] = Value::Int(0);
                    }
                }
                Insn::Ret => {
                    // `return` out of extrapolated loops closes every open
                    // scale region (Flow::Return propagation).
                    for _ in 0..scale_depth {
                        self.tracer.end_scale();
                    }
                    return Ok(true);
                }
                Insn::Fail { ref msg } => {
                    return Err(ExecError::new(msg.to_string(), span));
                }
            }
            pc += 1;
        }
        Ok(false)
    }
}

/// Per-item state surviving across barrier phases (registers and private
/// arrays; mirrors the tree-walker's `ItemState`).
struct Item {
    regs: Vec<Value>,
    priv_arrays: Vec<Vec<Value>>,
    returned: bool,
}

/// Execute one entire work-group (all its work-items, phase by phase).
fn run_work_group<T: Tracer>(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    group_linear: usize,
    mem: &mut Memory,
    tracer: &mut T,
) -> ExecResult<()> {
    let params = bind_args(&ck.name, &ck.params, ck.span, args, mem)?;
    let local_size = nd.local_size();
    let group = nd.group_coords(group_linear);
    let mut locals: Vec<Option<Vec<Value>>> = vec![None; ck.locals.len()];
    let mut items: Vec<Item> = (0..local_size)
        .map(|_| {
            let mut regs = vec![Value::Int(0); ck.n_regs];
            regs[..params.len()].copy_from_slice(&params);
            Item { regs, priv_arrays: Vec::new(), returned: false }
        })
        .collect();
    for phase in &ck.phases {
        for (linear, item) in items.iter_mut().enumerate() {
            if item.returned {
                continue;
            }
            let mut vm = Vm {
                global: Full(&mut *mem),
                tracer,
                ids: ItemIds::in_group(nd, group, linear),
                specs: &ck.locals,
                locals: &mut locals,
                priv_arrays: &mut item.priv_arrays,
            };
            if vm.run_phase(phase, &mut item.regs)? {
                item.returned = true;
            }
        }
    }
    Ok(())
}

/// The full run: execute the whole NDRange functionally (every group,
/// every item), writing stores and atomics to `mem`.
pub fn run_kernel<T: Tracer>(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
    tracer: &mut T,
) -> ExecResult<()> {
    nd.validate().map_err(|m| ExecError::new(m, ck.span))?;
    for g in 0..nd.num_groups() {
        run_work_group(ck, args, nd, g, mem, tracer)?;
    }
    Ok(())
}

/// The sampled run: execute specific work-items by *global linear id*
/// (dimension 0 fastest), each in its own single-item context, reading
/// `mem` and never writing it: stores are dropped and global atomics
/// live in an overlay for the one call. Used by the
/// profiler; kernels with barriers are rejected (profiling targets
/// original, barrier-free kernels).
pub fn run_single_items<T: Tracer>(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    global_ids: &[usize],
    mem: &Memory,
    tracer: &mut T,
) -> ExecResult<()> {
    if ck.phases.len() > 1 {
        return Err(ExecError::new(
            "run_single_items cannot execute kernels with barriers",
            ck.span,
        ));
    }
    let params = bind_args(&ck.name, &ck.params, ck.span, args, mem)?;
    let mut atomics = HashMap::new();
    // One register file and arena reused across items (reset per item, like
    // the tree-walker's fresh per-item scopes — but without reallocating).
    let mut regs = vec![Value::Int(0); ck.n_regs];
    let mut priv_arrays: Vec<Vec<Value>> = Vec::new();
    let mut locals: Vec<Option<Vec<Value>>> = vec![None; ck.locals.len()];
    for &linear in global_ids {
        tracer.begin_item();
        for r in regs.iter_mut() {
            *r = Value::Int(0);
        }
        regs[..params.len()].copy_from_slice(&params);
        priv_arrays.clear();
        for l in locals.iter_mut() {
            *l = None;
        }
        let mut vm = Vm {
            global: Sampled { mem, atomics: &mut atomics },
            tracer,
            ids: ItemIds::at(nd, linear),
            specs: &ck.locals,
            locals: &mut locals,
            priv_arrays: &mut priv_arrays,
        };
        vm.run_phase(&ck.phases[0], &mut regs)?;
    }
    Ok(())
}
