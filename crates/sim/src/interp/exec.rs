//! The tree-walking evaluator: the reference oracle the bytecode VM is
//! held to by the differential suite. No production path runs it; it is
//! reachable only through [`crate::interp::reference`] and
//! [`crate::profile::profile_reference`].
//!
//! See the module docs of [`crate::interp`] for the execution model. The
//! evaluator is generic over a [`Tracer`] so the functional path pays no
//! profiling cost.
//!
//! It shares only leaf semantics with the VM (operators, casts, builtin
//! values, the atomic update rule, argument binding, phase splitting; see
//! [`crate::interp`]). Its evaluation order, name-based scoping, control
//! flow, lvalue handling and sampled-run loop extrapolation are its own,
//! so the differential suite compares two independent walks of the kernel.

use super::compile::SiteTable;
use super::tracer::Tracer;
use super::{
    atomic_in, atomic_update, bind_args, binary_op, builtin_value, cast_value, coerce_ptr,
    const_int, in_bounds, loop_fast_forward, loop_trips, split_phases, unary_op, writes_var,
    ExecError, ExecResult, Full, GlobalView, ItemIds, Sampled, Value, PROFILE_LOOP_SAMPLES,
};
use crate::buffer::{ArgValue, Memory};
use crate::ndrange::NdRange;
use clc::builtins::{self, Builtin};
use clc::{AssignOp, BinOp, Expr, Kernel, Span, Stmt, Type};
use std::collections::HashMap;

/// Statement completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// Result of analyzing an affine `for` loop for sampled-run extrapolation.
struct LoopPlan {
    /// Induction variable name.
    var: String,
    /// Signed step per iteration.
    delta: i64,
    /// Total trip count from the current induction value.
    trips: i128,
}

/// Per-work-item persistent state (survives across barrier phases).
struct ItemState {
    /// Scope stack of (name, value) bindings; scope 0 holds parameters and
    /// top-level declarations.
    scopes: Vec<Vec<(String, Value)>>,
    /// Private (per-item) arrays.
    priv_arrays: Vec<Vec<Value>>,
    returned: bool,
}

/// Group-shared `__local` arrays.
#[derive(Default)]
struct Locals {
    arrays: Vec<Vec<Value>>,
    by_name: HashMap<String, usize>,
}

/// Bind kernel arguments to parameter names (tree-walker scope layout).
fn bind_params(kernel: &Kernel, args: &[ArgValue], mem: &Memory) -> ExecResult<Vec<(String, Value)>> {
    let values = bind_args(&kernel.name, &kernel.params, kernel.span, args, mem)?;
    Ok(kernel.params.iter().map(|p| p.name.clone()).zip(values).collect())
}

/// Execute one entire work-group (all its work-items, phase by phase).
fn run_work_group<T: Tracer>(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    group_linear: usize,
    mem: &mut Memory,
    tracer: &mut T,
) -> ExecResult<()> {
    let phases = split_phases(&kernel.body, kernel.span)?;
    let params = bind_params(kernel, args, mem)?;
    let sites = SiteTable::build(kernel);
    let local_size = nd.local_size();
    let group = nd.group_coords(group_linear);
    let mut locals = Locals::default();
    let mut items: Vec<ItemState> = (0..local_size)
        .map(|_| ItemState { scopes: vec![params.clone()], priv_arrays: Vec::new(), returned: false })
        .collect();
    for phase in phases {
        for (linear, item) in items.iter_mut().enumerate() {
            if item.returned {
                continue;
            }
            let mut interp = Interp {
                global: Full(&mut *mem),
                tracer,
                sites: &sites,
                locals: &mut locals,
                item,
                ids: ItemIds::in_group(nd, group, linear),
            };
            for stmt in phase {
                match interp.exec_stmt(stmt)? {
                    Flow::Return => {
                        item.returned = true;
                        break;
                    }
                    Flow::Normal => {}
                    other => {
                        return Err(ExecError::new(
                            format!("{:?} escaped to kernel top level", other),
                            stmt.span(),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The full run: execute the whole NDRange functionally (every group,
/// every item), writing stores and atomics to `mem`.
pub fn run_kernel<T: Tracer>(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
    tracer: &mut T,
) -> ExecResult<()> {
    nd.validate().map_err(|m| ExecError::new(m, kernel.span))?;
    for g in 0..nd.num_groups() {
        run_work_group(kernel, args, nd, g, mem, tracer)?;
    }
    Ok(())
}

/// The sampled run: execute specific work-items by *global linear id*
/// (dimension 0 fastest), each in its own single-item context, reading
/// `mem` and never writing it: stores are dropped and global atomics
/// live in an overlay for the one call. Used by the profiler; kernels
/// with barriers are rejected (profiling targets original, barrier-free
/// kernels).
pub fn run_single_items<T: Tracer>(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    global_ids: &[usize],
    mem: &Memory,
    tracer: &mut T,
) -> ExecResult<()> {
    let phases = split_phases(&kernel.body, kernel.span)?;
    if phases.len() > 1 {
        return Err(ExecError::new(
            "run_single_items cannot execute kernels with barriers",
            kernel.span,
        ));
    }
    let params = bind_params(kernel, args, mem)?;
    let sites = SiteTable::build(kernel);
    let mut atomics = HashMap::new();
    for &linear in global_ids {
        tracer.begin_item();
        let mut locals = Locals::default();
        let mut item =
            ItemState { scopes: vec![params.clone()], priv_arrays: Vec::new(), returned: false };
        let mut interp = Interp {
            global: Sampled { mem, atomics: &mut atomics },
            tracer,
            sites: &sites,
            locals: &mut locals,
            item: &mut item,
            ids: ItemIds::at(nd, linear),
        };
        for stmt in &kernel.body {
            if matches!(interp.exec_stmt(stmt)?, Flow::Return) {
                break;
            }
        }
    }
    Ok(())
}

struct Interp<'a, T: Tracer, G: GlobalView> {
    global: G,
    tracer: &'a mut T,
    sites: &'a SiteTable,
    locals: &'a mut Locals,
    item: &'a mut ItemState,
    ids: ItemIds<'a>,
}

impl<'a, T: Tracer, G: GlobalView> Interp<'a, T, G> {
    // ----- scopes ----------------------------------------------------------

    fn push_scope(&mut self) {
        self.item.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        self.item.scopes.pop();
    }

    fn declare(&mut self, name: &str, value: Value) {
        self.item
            .scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.to_string(), value));
    }

    fn lookup(&self, name: &str, span: Span) -> ExecResult<Value> {
        for scope in self.item.scopes.iter().rev() {
            for (n, v) in scope.iter().rev() {
                if n == name {
                    return Ok(*v);
                }
            }
        }
        Err(ExecError::new(format!("unbound variable `{}`", name), span))
    }

    fn set_var(&mut self, name: &str, value: Value, span: Span) -> ExecResult<()> {
        for scope in self.item.scopes.iter_mut().rev() {
            for (n, v) in scope.iter_mut().rev() {
                if n == name {
                    *v = value;
                    return Ok(());
                }
            }
        }
        Err(ExecError::new(format!("unbound variable `{}`", name), span))
    }

    // ----- statements ------------------------------------------------------

    fn exec_stmt(&mut self, stmt: &Stmt) -> ExecResult<Flow> {
        match stmt {
            Stmt::Decl(decl) => {
                if let Some(len) = decl.array_len {
                    let elem = match decl.ty {
                        Type::Ptr { elem, .. } => elem,
                        Type::Scalar(s) => s,
                        Type::Void => unreachable!("sema rejects void decls"),
                    };
                    let zero =
                        if elem.is_float() { Value::Float(0.0) } else { Value::Int(0) };
                    let value = if decl.space == clc::Space::Local {
                        // One allocation per work-group, shared by items.
                        let idx = match self.locals.by_name.get(&decl.name) {
                            Some(&idx) => idx,
                            None => {
                                let idx = self.locals.arrays.len();
                                self.locals.arrays.push(vec![zero; len]);
                                self.locals.by_name.insert(decl.name.clone(), idx);
                                idx
                            }
                        };
                        Value::LocalPtr { arr: idx, offset: 0 }
                    } else {
                        let idx = self.item.priv_arrays.len();
                        self.item.priv_arrays.push(vec![zero; len]);
                        Value::PrivPtr { arr: idx, offset: 0 }
                    };
                    self.declare(&decl.name, value);
                    return Ok(Flow::Normal);
                }
                let value = match &decl.init {
                    Some(init) => {
                        let v = self.eval(init)?;
                        self.coerce_to(v, decl.ty, init.span())?
                    }
                    None => match decl.ty {
                        Type::Scalar(s) if s.is_float() => Value::Float(0.0),
                        Type::Scalar(_) => Value::Int(0),
                        _ => Value::Int(0),
                    },
                };
                self.declare(&decl.name, value);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, els, .. } => {
                let c = self.eval(cond)?;
                if c.is_truthy() {
                    self.exec_scoped(then)
                } else if let Some(els) = els {
                    self.exec_scoped(els)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::For { init, cond, step, body, .. } => self.exec_for(init, cond, step, body),
            Stmt::While { cond, body, .. } => {
                loop {
                    if !self.eval(cond)?.is_truthy() {
                        break;
                    }
                    match self.exec_scoped(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond, .. } => {
                loop {
                    match self.exec_scoped(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond)?.is_truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Block { stmts, .. } => {
                self.push_scope();
                let mut flow = Flow::Normal;
                for s in stmts {
                    flow = self.exec_stmt(s)?;
                    if flow != Flow::Normal {
                        break;
                    }
                }
                self.pop_scope();
                Ok(flow)
            }
            Stmt::Return { .. } => Ok(Flow::Return),
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
        }
    }

    /// Execute a statement in its own scope (bodies of if/while/for).
    fn exec_scoped(&mut self, stmt: &Stmt) -> ExecResult<Flow> {
        match stmt {
            // Blocks already push a scope.
            Stmt::Block { .. } => self.exec_stmt(stmt),
            _ => {
                self.push_scope();
                let flow = self.exec_stmt(stmt);
                self.pop_scope();
                flow
            }
        }
    }

    fn exec_for(
        &mut self,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
    ) -> ExecResult<Flow> {
        self.push_scope();
        if let Some(init) = init {
            self.exec_stmt(init)?;
        }

        // Sampled-run extrapolation for analyzable loops.
        if G::SAMPLED {
            if let (Some(cond), Some(step)) = (cond, step) {
                if let Some(plan) = self.analyze_loop(init.as_deref(), cond, step, body)? {
                    let flow = self.run_extrapolated(&plan, cond, step, body)?;
                    self.pop_scope();
                    return Ok(flow);
                }
            }
        }

        let mut flow = Flow::Normal;
        loop {
            if let Some(cond) = cond {
                if !self.eval(cond)?.is_truthy() {
                    break;
                }
            }
            match self.exec_scoped(body)? {
                Flow::Break => break,
                Flow::Return => {
                    flow = Flow::Return;
                    break;
                }
                Flow::Normal | Flow::Continue => {}
            }
            if let Some(step) = step {
                self.eval(step)?;
            }
        }
        self.pop_scope();
        Ok(flow)
    }

    // ----- sampled-run loop extrapolation -----------------------------------

    /// Try to recognize `for (i = i0; i <op> bound; i += d)` with a body
    /// that never writes `i`. Returns the extrapolation plan (trip count and
    /// induction details) or `None` to fall back to full execution.
    fn analyze_loop(
        &mut self,
        init: Option<&Stmt>,
        cond: &Expr,
        step: &Expr,
        body: &Stmt,
    ) -> ExecResult<Option<LoopPlan>> {
        // Induction variable from the init clause.
        let var = match init {
            Some(Stmt::Decl(d)) => d.name.clone(),
            Some(Stmt::Expr(Expr::Assign { op: AssignOp::Assign, target, .. })) => {
                match target.as_ref() {
                    Expr::Ident { name, .. } => name.clone(),
                    _ => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        // Step delta.
        let delta: i64 = match step {
            Expr::IncDec { inc, target, .. } => match target.as_ref() {
                Expr::Ident { name, .. } if *name == var => {
                    if *inc {
                        1
                    } else {
                        -1
                    }
                }
                _ => return Ok(None),
            },
            Expr::Assign { op, target, value, .. } => {
                let tname = match target.as_ref() {
                    Expr::Ident { name, .. } => name,
                    _ => return Ok(None),
                };
                if *tname != var {
                    return Ok(None);
                }
                match op {
                    AssignOp::Add | AssignOp::Sub => match const_int(value) {
                        Some(c) => {
                            if *op == AssignOp::Add {
                                c
                            } else {
                                -c
                            }
                        }
                        None => return Ok(None),
                    },
                    AssignOp::Assign => match value.as_ref() {
                        Expr::Binary { op: BinOp::Add, lhs, rhs, .. } => {
                            match (lhs.as_ref(), rhs.as_ref()) {
                                (Expr::Ident { name, .. }, other) if *name == var => {
                                    match const_int(other) {
                                        Some(c) => c,
                                        None => return Ok(None),
                                    }
                                }
                                (other, Expr::Ident { name, .. }) if *name == var => {
                                    match const_int(other) {
                                        Some(c) => c,
                                        None => return Ok(None),
                                    }
                                }
                                _ => return Ok(None),
                            }
                        }
                        _ => return Ok(None),
                    },
                    _ => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        if delta == 0 {
            return Ok(None);
        }
        // Comparison bound.
        let (op, bound_expr) = match cond {
            Expr::Binary { op, lhs, rhs, .. } => match lhs.as_ref() {
                Expr::Ident { name, .. } if *name == var => (op, rhs.as_ref()),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
            return Ok(None);
        }
        // The body must not write the induction variable.
        if writes_var(body, &var) {
            return Ok(None);
        }
        // Evaluate the bound and the current value now.
        let bound = self.eval(bound_expr)?.as_i64();
        let cur = self.lookup(&var, cond.span())?.as_i64();
        if (delta > 0) != matches!(op, BinOp::Lt | BinOp::Le) {
            return Ok(None);
        }
        let trips = loop_trips(*op, cur, bound, delta);
        Ok(Some(LoopPlan { var, delta, trips }))
    }

    fn run_extrapolated(
        &mut self,
        plan: &LoopPlan,
        _cond: &Expr,
        step: &Expr,
        body: &Stmt,
    ) -> ExecResult<Flow> {
        let samples = PROFILE_LOOP_SAMPLES as i128;
        if plan.trips <= samples * 2 {
            // Short loop: run all iterations, no extrapolation.
            for _ in 0..plan.trips {
                match self.exec_scoped(body)? {
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return => return Ok(Flow::Return),
                    Flow::Normal | Flow::Continue => {}
                }
                self.eval(step)?;
            }
            return Ok(Flow::Normal);
        }
        // Run `samples` iterations inside a scale region so the recorded
        // counts represent the full `trips` iterations.
        let factor = plan.trips as f64 / samples as f64;
        self.tracer.begin_scale(factor);
        let mut early: Option<Flow> = None;
        for _ in 0..samples {
            match self.exec_scoped(body)? {
                Flow::Break => {
                    early = Some(Flow::Normal);
                    break;
                }
                Flow::Return => {
                    early = Some(Flow::Return);
                    break;
                }
                Flow::Normal | Flow::Continue => {}
            }
            self.eval(step)?;
        }
        self.tracer.end_scale();
        if let Some(flow) = early {
            // A data-dependent break fired during sampling — the
            // extrapolation overestimates, but the loop exits here.
            return Ok(flow);
        }
        // Fast-forward the induction variable to its post-loop value.
        let cur = self.lookup(&plan.var, body.span())?.as_i64();
        let ffwd = loop_fast_forward(plan.trips, plan.delta);
        self.set_var(&plan.var, Value::Int(cur.saturating_add(ffwd)), body.span())?;
        Ok(Flow::Normal)
    }

    // ----- expressions ------------------------------------------------------

    fn eval(&mut self, expr: &Expr) -> ExecResult<Value> {
        match expr {
            Expr::IntLit { value, .. } => Ok(Value::Int(*value)),
            Expr::FloatLit { value, .. } => Ok(Value::Float(*value as f32)),
            Expr::BoolLit { value, .. } => Ok(Value::Int(*value as i64)),
            Expr::Ident { name, span } => self.lookup(name, *span),
            Expr::Unary { op, operand, span } => {
                let v = self.eval(operand)?;
                unary_op(self.tracer, *op, v, *span)
            }
            Expr::Binary { op, lhs, rhs, span } => {
                // Short-circuit logicals.
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs)?;
                        self.tracer.arith(false, 1.0);
                        if !l.is_truthy() {
                            return Ok(Value::Int(0));
                        }
                        let r = self.eval(rhs)?;
                        return Ok(Value::Int(r.is_truthy() as i64));
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs)?;
                        self.tracer.arith(false, 1.0);
                        if l.is_truthy() {
                            return Ok(Value::Int(1));
                        }
                        let r = self.eval(rhs)?;
                        return Ok(Value::Int(r.is_truthy() as i64));
                    }
                    _ => {}
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.binary(*op, l, r, *span)
            }
            Expr::Assign { op, target, value, span } => {
                let rhs = self.eval(value)?;
                let result = match op.binop() {
                    Some(bin) => {
                        let old = self.read_lvalue(target)?;
                        self.binary(bin, old, rhs, *span)?
                    }
                    None => rhs,
                };
                self.write_lvalue(target, result)?;
                Ok(result)
            }
            Expr::IncDec { inc, pre, target, span } => {
                let old = self.read_lvalue(target)?;
                self.tracer.arith(false, 1.0);
                let delta = if *inc { 1 } else { -1 };
                let new = Value::Int(old.as_i64() + delta);
                self.write_lvalue(target, new)?;
                let _ = span;
                Ok(if *pre { new } else { old })
            }
            Expr::Call { name, args, span } => self.call(name, args, *span),
            Expr::Index { .. } => self.load_index(expr),
            Expr::Cast { to, operand, .. } => {
                let v = self.eval(operand)?;
                Ok(cast_value(v, *to))
            }
            Expr::Ternary { cond, then, els, .. } => {
                let c = self.eval(cond)?;
                if c.is_truthy() {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
        }
    }

    fn binary(&mut self, op: BinOp, l: Value, r: Value, span: Span) -> ExecResult<Value> {
        binary_op(self.tracer, op, l, r, span)
    }

    // ----- lvalues & memory -------------------------------------------------

    /// Evaluate `base[index]` into (pointer value, element index, site key).
    fn eval_index(&mut self, expr: &Expr) -> ExecResult<(Value, i64, super::tracer::SiteKey)> {
        let Expr::Index { base, index, .. } = expr else {
            unreachable!("eval_index on non-index expression");
        };
        let ptr = self.eval(base)?;
        let idx = self.eval(index)?.as_i64();
        let site = self.sites.id_of(expr);
        Ok((ptr, idx, site))
    }

    fn load_index(&mut self, expr: &Expr) -> ExecResult<Value> {
        let (ptr, idx, site) = self.eval_index(expr)?;
        match ptr {
            Value::GlobalPtr { buf, offset, elem } => {
                let i = offset + idx;
                let at = self.global.load_index(buf, i, expr.span())?;
                self.tracer.load(site, buf, i, elem.size_bytes());
                Ok(self.global.read(buf, at, elem))
            }
            Value::LocalPtr { arr, offset } => {
                let a = &self.locals.arrays[arr];
                Ok(a[in_bounds("local load", offset + idx, a.len(), expr.span())?])
            }
            Value::PrivPtr { arr, offset } => {
                let a = &self.item.priv_arrays[arr];
                Ok(a[in_bounds("private load", offset + idx, a.len(), expr.span())?])
            }
            other => Err(ExecError::new(
                format!("cannot index non-pointer value {:?}", other),
                expr.span(),
            )),
        }
    }

    fn read_lvalue(&mut self, target: &Expr) -> ExecResult<Value> {
        match target {
            Expr::Ident { name, span } => self.lookup(name, *span),
            Expr::Index { .. } => self.load_index(target),
            other => Err(ExecError::new("not an lvalue", other.span())),
        }
    }

    fn write_lvalue(&mut self, target: &Expr, value: Value) -> ExecResult<()> {
        match target {
            Expr::Ident { name, span } => self.set_var(name, value, *span),
            Expr::Index { .. } => {
                let (ptr, idx, site) = self.eval_index(target)?;
                match ptr {
                    Value::GlobalPtr { buf, offset, elem } => {
                        let i = offset + idx;
                        self.global.store(buf, i, elem, value, target.span())?;
                        self.tracer.store(site, buf, i, elem.size_bytes());
                        Ok(())
                    }
                    Value::LocalPtr { arr, offset } => {
                        let a = &mut self.locals.arrays[arr];
                        let i = in_bounds("local store", offset + idx, a.len(), target.span())?;
                        a[i] = value;
                        Ok(())
                    }
                    Value::PrivPtr { arr, offset } => {
                        let a = &mut self.item.priv_arrays[arr];
                        let i = in_bounds("private store", offset + idx, a.len(), target.span())?;
                        a[i] = value;
                        Ok(())
                    }
                    other => Err(ExecError::new(
                        format!("cannot index non-pointer value {:?}", other),
                        target.span(),
                    )),
                }
            }
            other => Err(ExecError::new("not an lvalue", other.span())),
        }
    }

    // ----- builtins ----------------------------------------------------------

    fn call(&mut self, name: &str, args: &[Expr], span: Span) -> ExecResult<Value> {
        let Some(f) = builtins::lookup(name) else {
            return Err(ExecError::new(format!("unknown builtin `{}`", name), span));
        };
        let mut values = [Value::Int(0); 3];
        for (v, arg) in values.iter_mut().zip(args) {
            *v = self.eval(arg)?;
        }
        match f {
            Builtin::Atomic(op) => {
                let [ptr, a, b] = values;
                self.atomic_rmw(ptr, span, |old| atomic_update(op, old, [a, b]))
            }
            f => builtin_value(self.tracer, f, values, &self.ids, span),
        }
    }

    fn atomic_rmw(
        &mut self,
        ptr: Value,
        span: Span,
        f: impl FnOnce(i64) -> i64,
    ) -> ExecResult<Value> {
        match ptr {
            Value::LocalPtr { arr, offset } => Ok(atomic_in(&mut self.locals.arrays[arr], offset, f)),
            Value::GlobalPtr { buf, offset, .. } => {
                Ok(Value::Int(self.global.atomic(buf, offset, span, f)?))
            }
            Value::PrivPtr { arr, offset } => {
                Ok(atomic_in(&mut self.item.priv_arrays[arr], offset, f))
            }
            other => Err(ExecError::new(
                format!("atomic operation on non-pointer {:?}", other),
                span,
            )),
        }
    }

    fn coerce_to(&self, value: Value, ty: Type, span: Span) -> ExecResult<Value> {
        match ty {
            Type::Scalar(s) => Ok(cast_value(value, s)),
            Type::Ptr { .. } => coerce_ptr(value, span),
            Type::Void => Err(ExecError::new("void value", span)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NullTracer;
    use crate::profile::ProfileTracer;

    fn compile1(src: &str) -> clc::Kernel {
        clc::compile(src).unwrap().kernels.remove(0)
    }

    fn run(src: &str, args: &[ArgValue], nd: NdRange, mem: &mut Memory) {
        let k = compile1(src);
        run_kernel(&k, args, &nd, mem, &mut NullTracer).unwrap();
    }

    #[test]
    fn vector_scale() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32((0..16).map(|i| i as f32).collect());
        run(
            "__kernel void s(__global float* a, float f, int n) {
                int i = get_global_id(0);
                if (i < n) { a[i] = a[i] * f; }
            }",
            &[ArgValue::Buffer(a), ArgValue::Float(2.0), ArgValue::Int(16)],
            NdRange::d1(16, 4),
            &mut mem,
        );
        let out = mem.read_f32(a);
        assert_eq!(out[5], 10.0);
        assert_eq!(out[15], 30.0);
    }

    #[test]
    fn two_dim_ids() {
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 8 * 4]);
        run(
            "__kernel void f(__global int* a, int w) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                a[y * w + x] = y * 100 + x;
            }",
            &[ArgValue::Buffer(a), ArgValue::Int(8)],
            NdRange::d2([8, 4], [4, 2]),
            &mut mem,
        );
        let out = mem.read_i32(a);
        assert_eq!(out[0], 0);
        assert_eq!(out[8 * 3 + 7], 307);
    }

    #[test]
    fn nested_loops_matrix_sum() {
        let mut mem = Memory::new();
        let n = 4usize;
        let a = mem.alloc_f32(vec![1.0; n * n * n]);
        let b = mem.alloc_f32(vec![2.0; n * n * n]);
        let c = mem.alloc_f32(vec![0.0; n * n * n]);
        run(
            "__kernel void two_mat3d(__global float* A, __global float* B, __global float* C,
                                     int NZ, int NY, int NX) {
                int z = get_global_id(0);
                if (z < NZ) {
                    for (int y = 0; y < NY; y++) {
                        for (int x = 0; x < NX; x++) {
                            int idx = z * (NY * NX) + y * NX + x;
                            C[idx] = A[idx] + B[idx];
                        }
                    }
                }
            }",
            &[
                ArgValue::Buffer(a),
                ArgValue::Buffer(b),
                ArgValue::Buffer(c),
                ArgValue::Int(n as i64),
                ArgValue::Int(n as i64),
                ArgValue::Int(n as i64),
            ],
            NdRange::d1(n, 2),
            &mut mem,
        );
        assert!(mem.read_f32(c).iter().all(|&v| v == 3.0));
    }

    #[test]
    fn barrier_and_local_worklist() {
        // The exact malleable shape from paper Fig. 5: only lanes with
        // local_id % mod < alloc work, pulling items off a local worklist.
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 32]);
        run(
            "__kernel void m(__global float* A, int dop_mod, int dop_alloc) {
                __local int wl[1];
                if (get_local_id(0) == 0) { wl[0] = 0; }
                barrier(CLK_LOCAL_MEM_FENCE);
                if (get_local_id(0) % dop_mod < dop_alloc) {
                    for (int w = atomic_inc(wl); w < get_local_size(0); w = atomic_inc(wl)) {
                        int idx = get_group_id(0) * get_local_size(0) + w;
                        A[idx] = A[idx] + 1.0f;
                    }
                }
            }",
            &[ArgValue::Buffer(a), ArgValue::Int(4), ArgValue::Int(1)],
            NdRange::d1(32, 8),
            &mut mem,
        );
        // Every element incremented exactly once despite only 1/4 of lanes
        // being active.
        assert!(mem.read_f32(a).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn nested_barrier_rejected() {
        for src in [
            "__kernel void f() { if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); } }",
            "__kernel void f() { int i = 0; \
             for (barrier(CLK_LOCAL_MEM_FENCE); i < 4; i += 4) { } }",
            "__kernel void f() { for (int i = 0; i < 4; barrier(CLK_LOCAL_MEM_FENCE)) { i += 4; } }",
        ] {
            let k = compile1(src);
            assert!(crate::compile_kernel(&k).is_err(), "{}", src);
            let mut mem = Memory::new();
            let err = run_kernel(
                &k,
                &[],
                &NdRange::d1(4, 4),
                &mut mem,
                &mut NullTracer,
            )
            .unwrap_err();
            assert!(err.message.contains("top-level"), "{}: {}", src, err.message);
        }
    }

    #[test]
    fn out_of_bounds_reported() {
        let k = compile1(
            "__kernel void f(__global float* a) { a[get_global_id(0)] = 1.0f; }",
        );
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 2]);
        let err = run_kernel(
            &k,
            &[ArgValue::Buffer(a)],
            &NdRange::d1(4, 2),
            &mut mem,
            &mut NullTracer,
        )
        .unwrap_err();
        assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn division_by_zero_reported() {
        let k = compile1("__kernel void f(int x, int y) { x = x / y; }");
        let mut mem = Memory::new();
        let err = run_kernel(
            &k,
            &[ArgValue::Int(1), ArgValue::Int(0)],
            &NdRange::d1(1, 1),
            &mut mem,
            &mut NullTracer,
        )
        .unwrap_err();
        assert!(err.message.contains("division by zero"));
    }

    #[test]
    fn wrong_arg_count_reported() {
        let k = compile1("__kernel void f(int x) { x = 0; }");
        let mut mem = Memory::new();
        let err = run_kernel(
            &k,
            &[],
            &NdRange::d1(1, 1),
            &mut mem,
            &mut NullTracer,
        )
        .unwrap_err();
        assert!(err.message.contains("takes 1 arguments"));
    }

    #[test]
    fn profile_mode_suppresses_global_stores() {
        let k = compile1("__kernel void f(__global float* a) { a[get_global_id(0)] = 5.0f; }");
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![1.0; 4]);
        let mut t = ProfileTracer::new(2, SiteTable::build(&k).len());
        run_single_items(
            &k,
            &[ArgValue::Buffer(a)],
            &NdRange::d1(4, 4),
            &[0, 1],
            &mem,
            &mut t,
        )
        .unwrap();
        assert_eq!(mem.read_f32(a), &[1.0; 4]); // untouched
        assert_eq!(t.total_accesses(0) + t.total_accesses(1), 2.0); // but traced
    }

    #[test]
    fn profile_extrapolates_long_loops() {
        // 1000-iteration loop: only ~4 iterations actually execute but the
        // tracer reports ~1000 accesses.
        let k = compile1(
            "__kernel void f(__global float* a, float s, int n) {
                for (int i = 0; i < n; i++) { s = s + a[i % 8]; }
                a[0] = s;
            }",
        );
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![1.0; 8]);
        let mut t = ProfileTracer::new(1, SiteTable::build(&k).len());
        run_single_items(
            &k,
            &[ArgValue::Buffer(a), ArgValue::Float(0.0), ArgValue::Int(1000)],
            &NdRange::d1(1, 1),
            &[0],
            &mem,
            &mut t,
        )
        .unwrap();
        let loads: f64 = t
            .item_sites(0)
            .filter(|(_, s)| !s.is_store)
            .map(|(_, s)| s.count)
            .sum();
        assert!((loads - 1000.0).abs() < 1e-6, "extrapolated loads = {}", loads);
    }

    #[test]
    fn profile_and_full_agree_on_counts_for_short_loops() {
        /// Counts accesses without item boundaries, so a full run can
        /// feed it too.
        #[derive(Default)]
        struct Accesses(f64);
        impl Tracer for Accesses {
            fn load(&mut self, _: u32, _: crate::BufferId, _: i64, _: usize) {
                self.0 += 1.0;
            }
            fn store(&mut self, _: u32, _: crate::BufferId, _: i64, _: usize) {
                self.0 += 1.0;
            }
        }
        let src = "__kernel void f(__global float* a, float s, int n) {
            for (int i = 0; i < n; i++) { s = s + a[i]; }
            a[0] = s;
        }";
        let k = compile1(src);
        let nd = NdRange::d1(1, 1);
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![1.0; 8]);
        let args = [ArgValue::Buffer(a), ArgValue::Float(0.0), ArgValue::Int(8)];
        let (mut sampled, mut full) = (Accesses::default(), Accesses::default());
        run_single_items(&k, &args, &nd, &[0], &mem, &mut sampled).unwrap();
        run_kernel(&k, &args, &nd, &mut mem, &mut full).unwrap();
        assert_eq!(full.0, sampled.0);
    }

    #[test]
    fn data_dependent_loop_extrapolates_with_loaded_bound() {
        // SpMV-style loop bound loaded from a row-pointer array.
        let k = compile1(
            "__kernel void f(__global int* rp, __global float* v, __global float* out) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = rp[i]; j < rp[i + 1]; j++) { s = s + v[j]; }
                out[i] = s;
            }",
        );
        let mut mem = Memory::new();
        let rp = mem.alloc_i32(vec![0, 100, 300]);
        let v = mem.alloc_f32(vec![1.0; 300]);
        let out = mem.alloc_f32(vec![0.0; 2]);
        let mut t = ProfileTracer::new(1, SiteTable::build(&k).len());
        run_single_items(
            &k,
            &[ArgValue::Buffer(rp), ArgValue::Buffer(v), ArgValue::Buffer(out)],
            &NdRange::d1(2, 1),
            &[1],
            &mem,
            &mut t,
        )
        .unwrap();
        // Row 1 has 200 elements.
        let v_loads: f64 = t
            .item_sites(0)
            .filter(|(_, s)| s.buffer == v && !s.is_store)
            .map(|(_, s)| s.count)
            .sum();
        assert!((v_loads - 200.0).abs() < 1e-6, "v loads = {}", v_loads);
    }

    #[test]
    fn while_loop_and_break_continue() {
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 1]);
        run(
            "__kernel void f(__global int* a) {
                int i = 0;
                int sum = 0;
                while (true) {
                    i++;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    sum += i;
                }
                a[0] = sum;
            }",
            &[ArgValue::Buffer(a)],
            NdRange::d1(1, 1),
            &mut mem,
        );
        assert_eq!(mem.read_i32(a)[0], 1 + 3 + 5 + 7 + 9);
    }

    #[test]
    fn ternary_and_math_builtins() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 3]);
        run(
            "__kernel void f(__global float* a) {
                a[0] = sqrt(16.0f);
                a[1] = fmax(1.0f, 2.0f);
                a[2] = 3 > 2 ? 1.5f : 0.5f;
            }",
            &[ArgValue::Buffer(a)],
            NdRange::d1(1, 1),
            &mut mem,
        );
        assert_eq!(mem.read_f32(a), &[4.0, 2.0, 1.5]);
    }

    #[test]
    fn int_buffer_backs_long_pointer_and_casts() {
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 2]);
        run(
            "__kernel void f(__global int* a) {
                a[0] = (int)(2.9f);
                a[1] = (int)((float)7 / 2.0f);
            }",
            &[ArgValue::Buffer(a)],
            NdRange::d1(1, 1),
            &mut mem,
        );
        assert_eq!(mem.read_i32(a), &[2, 3]);
    }

    #[test]
    fn global_atomics_accumulate_across_groups() {
        let mut mem = Memory::new();
        let c = mem.alloc_i32(vec![0; 1]);
        run(
            "__kernel void f(__global int* c) { atomic_add(c, 2); }",
            &[ArgValue::Buffer(c)],
            NdRange::d1(16, 4),
            &mut mem,
        );
        assert_eq!(mem.read_i32(c)[0], 32);
    }

    #[test]
    fn global_offset_shifts_ids() {
        // OpenCL global_work_offset: ids start at the offset; the guard
        // kernel writes only within [off, off + range).
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 48]);
        let k = compile1(
            "__kernel void f(__global int* a) {
                int i = get_global_id(0);
                a[i] = get_global_offset(0) + 1;
            }",
        );
        let nd = NdRange::d1(16, 8).with_offset([32, 0, 0]);
        run_kernel(&k, &[ArgValue::Buffer(a)], &nd, &mut mem, &mut NullTracer).unwrap();
        let out = mem.read_i32(a);
        assert!(out[..32].iter().all(|&v| v == 0));
        assert!(out[32..48].iter().all(|&v| v == 33));
    }

    #[test]
    fn return_skips_rest_of_item() {
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 4]);
        run(
            "__kernel void f(__global int* a) {
                int i = get_global_id(0);
                if (i >= 2) { return; }
                a[i] = 1;
            }",
            &[ArgValue::Buffer(a)],
            NdRange::d1(4, 4),
            &mut mem,
        );
        assert_eq!(mem.read_i32(a), &[1, 1, 0, 0]);
    }
}
