//! The bytecode VM: executes [`super::compile::CompiledKernel`] phases with
//! a dense `Vec<Value>` register file.
//!
//! Every instruction handler reproduces the corresponding tree-walker
//! behaviour *exactly* — same tracer events in the same order, same error
//! messages, same arithmetic (including the shared [`binary_op`] kernel and
//! the same overflow/panic behaviour on degenerate inputs). Every profile
//! and every functional run executes on this VM; the tree-walker survives
//! only as the oracle the differential suite in
//! `tests/bytecode_equivalence.rs` pins it against.

use super::compile::{AtomicFn, CompiledKernel, IdFn, Insn, LocalSpec, Math1Fn, Math2Fn, Phase};
use super::exec::{bind_args, binary_op, ExecError, ExecResult, Mode};
use super::tracer::Tracer;
use super::{loop_fast_forward, loop_trips, Value, PROFILE_LOOP_SAMPLES};
use crate::buffer::{ArgValue, Memory};
use crate::ndrange::NdRange;
use clc::UnOp;

/// Per-dispatch execution context: one work-item's view of the world.
struct Vm<'a, T: Tracer> {
    mem: &'a mut Memory,
    tracer: &'a mut T,
    mode: Mode,
    nd: &'a NdRange,
    gid: [usize; 3],
    lid: [usize; 3],
    grp: [usize; 3],
    /// `__local` array shapes from the compiler (allocated lazily on first
    /// [`Insn::BindLocal`], shared by the work-group).
    specs: &'a [LocalSpec],
    locals: &'a mut Vec<Option<Vec<Value>>>,
    /// Private arrays of the current work-item (persist across phases).
    priv_arrays: &'a mut Vec<Vec<Value>>,
}

impl<'a, T: Tracer> Vm<'a, T> {
    /// Run one phase to completion. Returns `true` if the item executed a
    /// `return` (it then skips all remaining phases).
    fn run_phase(&mut self, phase: &Phase, regs: &mut [Value]) -> ExecResult<bool> {
        let code = &phase.code;
        let spans = &phase.spans;
        let mut pc = 0usize;
        // Open scale regions (profile-mode loop extrapolation). `return`
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
                    let v = regs[src as usize];
                    self.tracer.arith(v.is_float(), 1.0);
                    regs[dst as usize] = match op {
                        UnOp::Neg => match v {
                            Value::Int(x) => Value::Int(-x),
                            Value::Float(x) => Value::Float(-x),
                            _ => return Err(ExecError::new("cannot negate pointer", span)),
                        },
                        UnOp::Not => Value::Int((!v.is_truthy()) as i64),
                        UnOp::BitNot => Value::Int(!v.as_i64()),
                    };
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
                    if self.mode == Mode::Full {
                        pc = to as usize;
                        continue;
                    }
                }
                Insn::Load { dst, ptr, idx, site } => {
                    let idx = regs[idx as usize].as_i64();
                    regs[dst as usize] = match regs[ptr as usize] {
                        Value::GlobalPtr { buf, offset, elem } => {
                            let i = offset + idx;
                            let b = self.mem.get(buf);
                            if i < 0 || i as usize >= b.len() {
                                return Err(ExecError::new(
                                    format!(
                                        "load index {} out of bounds ({} elements)",
                                        i,
                                        b.len()
                                    ),
                                    span,
                                ));
                            }
                            self.tracer.load(site, buf, i, elem.size_bytes());
                            if elem.is_float() {
                                Value::Float(b.load_f64(i as usize) as f32)
                            } else {
                                Value::Int(b.load_i64(i as usize))
                            }
                        }
                        Value::LocalPtr { arr, offset } => {
                            let a = self.locals[arr].as_ref().expect("local bound before use");
                            let i = offset + idx;
                            if i < 0 || i as usize >= a.len() {
                                return Err(ExecError::new(
                                    format!("local load index {} out of bounds ({})", i, a.len()),
                                    span,
                                ));
                            }
                            a[i as usize]
                        }
                        Value::PrivPtr { arr, offset } => {
                            let a = &self.priv_arrays[arr];
                            let i = offset + idx;
                            if i < 0 || i as usize >= a.len() {
                                return Err(ExecError::new(
                                    format!(
                                        "private load index {} out of bounds ({})",
                                        i,
                                        a.len()
                                    ),
                                    span,
                                ));
                            }
                            a[i as usize]
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
                            let len = self.mem.get(buf).len();
                            if i < 0 || i as usize >= len {
                                return Err(ExecError::new(
                                    format!("store index {} out of bounds ({} elements)", i, len),
                                    span,
                                ));
                            }
                            self.tracer.store(site, buf, i, elem.size_bytes());
                            if self.mode == Mode::Full {
                                let b = self.mem.get_mut(buf);
                                if elem.is_float() {
                                    b.store_f64(i as usize, value.as_f32() as f64);
                                } else {
                                    b.store_i64(i as usize, value.as_i64());
                                }
                            }
                        }
                        Value::LocalPtr { arr, offset } => {
                            let a = self.locals[arr].as_mut().expect("local bound before use");
                            let i = offset + idx;
                            if i < 0 || i as usize >= a.len() {
                                return Err(ExecError::new(
                                    format!("local store index {} out of bounds ({})", i, a.len()),
                                    span,
                                ));
                            }
                            a[i as usize] = value;
                        }
                        Value::PrivPtr { arr, offset } => {
                            let a = &mut self.priv_arrays[arr];
                            let i = offset + idx;
                            if i < 0 || i as usize >= a.len() {
                                return Err(ExecError::new(
                                    format!(
                                        "private store index {} out of bounds ({})",
                                        i,
                                        a.len()
                                    ),
                                    span,
                                ));
                            }
                            a[i as usize] = value;
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("cannot index non-pointer value {:?}", other),
                                span,
                            ));
                        }
                    }
                }
                Insn::GetId { which, dst, dim } => {
                    let d = regs[dim as usize].as_i64() as usize;
                    if d > 2 {
                        return Err(ExecError::new(format!("dimension {} out of range", d), span));
                    }
                    let v = match which {
                        IdFn::GlobalId => self.gid[d],
                        IdFn::LocalId => self.lid[d],
                        IdFn::GroupId => self.grp[d],
                        IdFn::GlobalSize => self.nd.global[d],
                        IdFn::LocalSize => self.nd.local[d],
                        IdFn::NumGroups => self.nd.groups_in_dim(d),
                        IdFn::GlobalOffset => self.nd.offset[d],
                    };
                    regs[dst as usize] = Value::Int(v as i64);
                }
                Insn::GetWorkDim { dst } => {
                    regs[dst as usize] = Value::Int(self.nd.work_dim as i64);
                }
                Insn::CastScalar { dst, src, to_float } => {
                    let v = regs[src as usize];
                    regs[dst as usize] = match v {
                        Value::GlobalPtr { .. } | Value::LocalPtr { .. } | Value::PrivPtr { .. } => {
                            v
                        }
                        _ if to_float => Value::Float(v.as_f32()),
                        _ => Value::Int(v.as_i64()),
                    };
                }
                Insn::CoercePtr { dst, src } => {
                    let v = regs[src as usize];
                    regs[dst as usize] = match v {
                        Value::GlobalPtr { .. } | Value::LocalPtr { .. } | Value::PrivPtr { .. } => {
                            v
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("cannot initialize pointer from {:?}", other),
                                span,
                            ));
                        }
                    };
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
                Insn::Atomic { f, dst, ptr, a, b } => {
                    let av = match f {
                        AtomicFn::Inc | AtomicFn::Dec => 0,
                        _ => regs[a as usize].as_i64(),
                    };
                    let bv = match f {
                        AtomicFn::Cmpxchg => regs[b as usize].as_i64(),
                        _ => 0,
                    };
                    let apply = |old: i64| -> i64 {
                        match f {
                            AtomicFn::Inc => old + 1,
                            AtomicFn::Dec => old - 1,
                            AtomicFn::Add => old.wrapping_add(av),
                            AtomicFn::Sub => old.wrapping_add(-av),
                            AtomicFn::Xchg => av,
                            AtomicFn::Min => old.min(av),
                            AtomicFn::Max => old.max(av),
                            AtomicFn::Cmpxchg => {
                                if old == av {
                                    bv
                                } else {
                                    old
                                }
                            }
                        }
                    };
                    regs[dst as usize] = match regs[ptr as usize] {
                        Value::LocalPtr { arr, offset } => {
                            let arr =
                                self.locals[arr].as_mut().expect("local bound before use");
                            let i = offset as usize;
                            let old = arr[i].as_i64();
                            arr[i] = Value::Int(apply(old));
                            Value::Int(old)
                        }
                        Value::GlobalPtr { buf, offset, .. } => {
                            let b = self.mem.get_mut(buf);
                            let i = offset as usize;
                            if i >= b.len() {
                                return Err(ExecError::new("atomic index out of bounds", span));
                            }
                            let old = b.load_i64(i);
                            // Atomics take effect even in profile mode: they
                            // carry scheduling state, not workload data.
                            b.store_i64(i, apply(old));
                            Value::Int(old)
                        }
                        Value::PrivPtr { arr, offset } => {
                            let arr = &mut self.priv_arrays[arr];
                            let i = offset as usize;
                            let old = arr[i].as_i64();
                            arr[i] = Value::Int(apply(old));
                            Value::Int(old)
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("atomic operation on non-pointer {:?}", other),
                                span,
                            ));
                        }
                    };
                }
                Insn::Math1 { f, dst, x } => {
                    let x = regs[x as usize].as_f32();
                    self.tracer.arith(true, 4.0);
                    let r = match f {
                        Math1Fn::Sqrt => x.sqrt(),
                        Math1Fn::Rsqrt => 1.0 / x.sqrt(),
                        Math1Fn::Fabs => x.abs(),
                        Math1Fn::Exp => x.exp(),
                        Math1Fn::Log => x.ln(),
                        Math1Fn::Sin => x.sin(),
                        Math1Fn::Cos => x.cos(),
                        Math1Fn::Floor => x.floor(),
                        Math1Fn::Ceil => x.ceil(),
                    };
                    regs[dst as usize] = Value::Float(r);
                }
                Insn::Math2 { f, dst, a, b } => {
                    let a = regs[a as usize].as_f32();
                    let b = regs[b as usize].as_f32();
                    self.tracer.arith(true, if f == Math2Fn::Pow { 4.0 } else { 1.0 });
                    let r = match f {
                        Math2Fn::Pow => a.powf(b),
                        Math2Fn::Fmin => a.min(b),
                        Math2Fn::Fmax => a.max(b),
                    };
                    regs[dst as usize] = Value::Float(r);
                }
                Insn::Mad { dst, a, b, c } => {
                    let a = regs[a as usize].as_f32();
                    let b = regs[b as usize].as_f32();
                    let c = regs[c as usize].as_f32();
                    self.tracer.arith(true, 2.0);
                    regs[dst as usize] = Value::Float(a * b + c);
                }
                Insn::MinMax { is_min, dst, a, b } => {
                    let a = regs[a as usize];
                    let b = regs[b as usize];
                    let float = a.is_float() || b.is_float();
                    self.tracer.arith(float, 1.0);
                    regs[dst as usize] = match (is_min, float) {
                        (true, true) => Value::Float(a.as_f32().min(b.as_f32())),
                        (false, true) => Value::Float(a.as_f32().max(b.as_f32())),
                        (true, false) => Value::Int(a.as_i64().min(b.as_i64())),
                        (false, false) => Value::Int(a.as_i64().max(b.as_i64())),
                    };
                }
                Insn::Abs { dst, src } => {
                    let v = regs[src as usize];
                    self.tracer.arith(v.is_float(), 1.0);
                    regs[dst as usize] = match v {
                        Value::Int(x) => Value::Int(x.abs()),
                        Value::Float(x) => Value::Float(x.abs()),
                        _ => return Err(ExecError::new("abs on pointer", span)),
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
    mode: Mode,
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
            let local = nd.local_coords(linear);
            let gid = [
                group[0] * nd.local[0] + local[0] + nd.offset[0],
                group[1] * nd.local[1] + local[1] + nd.offset[1],
                group[2] * nd.local[2] + local[2] + nd.offset[2],
            ];
            let mut vm = Vm {
                mem,
                tracer,
                mode,
                nd,
                gid,
                lid: local,
                grp: group,
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

/// Execute the whole NDRange functionally (every group, every item).
pub fn run_kernel<T: Tracer>(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
    mode: Mode,
    tracer: &mut T,
) -> ExecResult<()> {
    nd.validate().map_err(|m| ExecError::new(m, ck.span))?;
    for g in 0..nd.num_groups() {
        run_work_group(ck, args, nd, g, mem, mode, tracer)?;
    }
    Ok(())
}

/// Execute specific work-items by *global linear id* (dimension 0 fastest),
/// each in its own single-item context. Used by the profiler; kernels with
/// barriers are rejected (profiling targets original, barrier-free kernels).
pub fn run_single_items<T: Tracer>(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    global_ids: &[usize],
    mem: &mut Memory,
    mode: Mode,
    tracer: &mut T,
) -> ExecResult<()> {
    if ck.phases.len() > 1 {
        return Err(ExecError::new(
            "run_single_items cannot execute kernels with barriers",
            ck.span,
        ));
    }
    let params = bind_args(&ck.name, &ck.params, ck.span, args, mem)?;
    // One register file and arena reused across items (reset per item, like
    // the tree-walker's fresh per-item scopes — but without reallocating).
    let mut regs = vec![Value::Int(0); ck.n_regs];
    let mut priv_arrays: Vec<Vec<Value>> = Vec::new();
    let mut locals: Vec<Option<Vec<Value>>> = vec![None; ck.locals.len()];
    for &linear in global_ids {
        tracer.begin_item();
        let g0 = nd.global[0];
        let g1 = nd.global[1];
        let gid3 = [linear % g0, (linear / g0) % g1, linear / (g0 * g1)];
        let gid = [
            gid3[0] + nd.offset[0],
            gid3[1] + nd.offset[1],
            gid3[2] + nd.offset[2],
        ];
        let lid = [
            gid3[0] % nd.local[0],
            gid3[1] % nd.local[1],
            gid3[2] % nd.local[2],
        ];
        let grp = [
            gid3[0] / nd.local[0],
            gid3[1] / nd.local[1],
            gid3[2] / nd.local[2],
        ];
        for r in regs.iter_mut() {
            *r = Value::Int(0);
        }
        regs[..params.len()].copy_from_slice(&params);
        priv_arrays.clear();
        for l in locals.iter_mut() {
            *l = None;
        }
        let mut vm = Vm {
            mem,
            tracer,
            mode,
            nd,
            gid,
            lid,
            grp,
            specs: &ck.locals,
            locals: &mut locals,
            priv_arrays: &mut priv_arrays,
        };
        vm.run_phase(&ck.phases[0], &mut regs)?;
    }
    Ok(())
}
