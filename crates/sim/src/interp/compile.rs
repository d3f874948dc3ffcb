//! Ahead-of-time lowering of checked kernels to flat bytecode.
//!
//! The tree-walking evaluator ([`super::reference`]) re-traverses the AST,
//! does a name lookup per variable reference and derives access-site
//! identity from node addresses — all per sampled work-item. This module
//! performs that work once, at program-prepare time: variables become dense
//! register slots, access sites become dense `u32` ids (see [`SiteTable`]),
//! affine `for` loops get their sampled-run extrapolation plan analyzed,
//! and the whole body becomes a flat `Insn` array that [`super::vm`]
//! executes with a `Vec<Value>` register file.
//!
//! The lowering is trace-exact: for every kernel the VM must emit the same
//! tracer events (loads, stores, arith counts, scale regions) in the same
//! order as the tree-walker, which survives only as the reference oracle
//! ([`super::reference`]). Any deviation is a bug; the differential suite
//! in `tests/bytecode_equivalence.rs` enforces this.

use super::{const_int, expr_writes, split_phases, writes_var, ExecError, ExecResult};
use clc::builtins::{self, Atomic, Builtin};
use clc::visit::Child;
use clc::{BinOp, Expr, Kernel, Param, Scalar, Span, Stmt, Type, UnOp};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A register index into the VM's dense `Vec<Value>` file.
pub(super) type Reg = u16;

// ---------------------------------------------------------------------------
// Site table
// ---------------------------------------------------------------------------

/// Dense ids for static memory-access sites: one id per `Index` expression,
/// assigned in pre-order traversal of the kernel body. Both the bytecode
/// compiler and the tree-walking reference interpreter build their ids from
/// this table (the walk order is deterministic), so the two engines produce
/// identical site keys.
pub struct SiteTable {
    by_addr: HashMap<usize, u32>,
}

impl SiteTable {
    pub fn build(kernel: &Kernel) -> SiteTable {
        let mut t = SiteTable { by_addr: HashMap::new() };
        for stmt in &kernel.body {
            t.walk_stmt(stmt);
        }
        t
    }

    /// The id of an `Index` expression node registered by [`SiteTable::build`].
    pub fn id_of(&self, e: &Expr) -> u32 {
        self.by_addr[&(e as *const Expr as usize)]
    }

    pub fn len(&self) -> usize {
        self.by_addr.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_addr.is_empty()
    }

    fn walk_stmt(&mut self, stmt: &Stmt) {
        for child in stmt.children() {
            match child {
                Child::Stmt(s) => self.walk_stmt(s),
                Child::Expr(e) => self.walk_expr(e),
            }
        }
    }

    fn walk_expr(&mut self, e: &Expr) {
        if let Expr::Index { .. } = e {
            let id = self.by_addr.len() as u32;
            self.by_addr.insert(e as *const Expr as usize, id);
        }
        e.children().for_each(|c| self.walk_expr(c));
    }
}

// ---------------------------------------------------------------------------
// Instruction set
// ---------------------------------------------------------------------------

/// One VM instruction. Jump targets are program counters within the phase
/// (patched from labels at the end of compilation). Every instruction has a
/// parallel [`Span`] in `Phase::spans` for error reporting.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Insn {
    ConstInt { dst: Reg, v: i64 },
    ConstFloat { dst: Reg, v: f32 },
    Copy { dst: Reg, src: Reg },
    /// `dst = Int(regs[src].is_truthy())` — no arith event (logical tails).
    Truthy { dst: Reg, src: Reg },
    /// The single integer-op event `&&`/`||` emit after their lhs.
    CountIop,
    Unary { op: UnOp, dst: Reg, src: Reg },
    Binary { op: BinOp, dst: Reg, lhs: Reg, rhs: Reg },
    /// `++`/`--`: captures `regs[src]`, counts one iop, writes the bumped
    /// value to `new_dst` and the original to `old_dst` (which may be `src`).
    IncDec { old_dst: Reg, new_dst: Reg, src: Reg, delta: i64 },
    Jump { to: u32 },
    JumpIfFalse { cond: Reg, to: u32 },
    JumpIfTrue { cond: Reg, to: u32 },
    /// Dispatch between the pre-analyzed profile loop and the generic loop.
    JumpIfFull { to: u32 },
    Load { dst: Reg, ptr: Reg, idx: Reg, site: u32 },
    Store { src: Reg, ptr: Reg, idx: Reg, site: u32 },
    /// A builtin other than an atomic, on up to three argument registers
    /// (slots past its arity are unused).
    Call { f: Builtin, dst: Reg, args: [Reg; 3] },
    /// Scalar coercion for casts and declarations; pointers pass through
    /// (C cast rules).
    CastScalar { dst: Reg, src: Reg, to: Scalar },
    /// Pointer-typed declaration initializer: value must be a pointer.
    CoercePtr { dst: Reg, src: Reg },
    /// Push a fresh zeroed private array (a new one per execution, matching
    /// the tree-walker's per-`Decl`-execution allocation).
    AllocPriv { dst: Reg, len: u32, is_float: bool },
    /// Bind the group-shared `__local` array `idx`, allocating it lazily.
    BindLocal { dst: Reg, idx: u32 },
    /// An atomic on `ptr` with the operands after the pointer.
    Atomic { op: Atomic, dst: Reg, ptr: Reg, args: [Reg; 2] },
    /// Sampled-run loop entry: compute the trip count from the induction
    /// register and the pre-evaluated bound, then either arm a short full
    /// run (`counter = trips, scaled = 0`) or open a scale region
    /// (`counter = samples, scaled = 1, ffwd = (trips-samples)*delta`
    /// saturated into `i64`).
    LoopBegin { var: Reg, bound: Reg, counter: Reg, scaled: Reg, ffwd: Reg, delta: i64, cmp: BinOp },
    /// Decrement `counter`; loop back while positive, else close the scale
    /// region (if armed) and fast-forward the induction variable
    /// (saturating add).
    LoopNext { counter: Reg, scaled: Reg, ffwd: Reg, var: Reg, back: u32 },
    /// `break` out of a sampled loop: close the scale region if armed.
    EndScaleIf { scaled: Reg },
    Ret,
    /// Defensive trap for constructs sema should have rejected; reproduces
    /// the tree-walker's runtime error message.
    Fail { msg: Box<str> },
}

/// Bytecode for one barrier-delimited phase.
#[derive(Debug)]
pub(super) struct Phase {
    pub code: Vec<Insn>,
    pub spans: Vec<Span>,
}

/// A group-shared `__local` array declaration (deduplicated by name, like
/// the tree-walker's per-group `Locals::by_name`).
#[derive(Debug, Clone, Copy)]
pub(super) struct LocalSpec {
    pub len: usize,
    pub is_float: bool,
}

static NEXT_CODE_ID: AtomicU64 = AtomicU64::new(1);

/// A kernel lowered to flat bytecode, ready for [`super::vm`].
#[derive(Debug)]
pub struct CompiledKernel {
    pub(super) name: String,
    pub(super) params: Vec<Param>,
    pub(super) span: Span,
    pub(super) phases: Vec<Phase>,
    pub(super) n_regs: usize,
    pub(super) locals: Vec<LocalSpec>,
    num_sites: usize,
    code_id: u64,
}

impl CompiledKernel {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source span of the kernel header (for launch-level error reporting).
    pub fn span(&self) -> Span {
        self.span
    }

    /// Process-unique id of this compilation (for launch-cache keys: a
    /// recompile of the same source gets a fresh id).
    pub fn code_id(&self) -> u64 {
        self.code_id
    }

    /// Number of static access sites (see [`SiteTable`]).
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    pub fn has_barriers(&self) -> bool {
        self.phases.len() > 1
    }

    /// Total instruction count across phases (bench/diagnostics).
    pub fn num_insns(&self) -> usize {
        self.phases.iter().map(|p| p.code.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Does evaluating this expression write any scalar variable? (Memory
/// writes don't count: registers can't alias buffers.) Used to decide when
/// a variable-held register must be materialized into a temp before a
/// sibling expression runs.
fn writes_vars(e: &Expr) -> bool {
    expr_writes(e, None)
}

/// Pre-analyzed affine loop (mirrors `exec::analyze_loop` syntactically).
struct StaticPlan<'a> {
    var: Reg,
    delta: i64,
    cmp: BinOp,
    bound: &'a Expr,
    /// Step direction consistent with the comparison. When false the
    /// tree-walker still evaluates the bound once (traced) before falling
    /// back to the generic loop — the compiled code reproduces that.
    dir_ok: bool,
}

struct Compiler {
    sites: SiteTable,
    scopes: Vec<Vec<(String, Reg)>>,
    /// Which registers currently hold named variables (vs expression temps).
    var_regs: Vec<bool>,
    reg_top: usize,
    n_regs: usize,
    code: Vec<Insn>,
    spans: Vec<Span>,
    labels: Vec<Option<u32>>,
    /// (break target, continue target) stack.
    loops: Vec<(u32, u32)>,
    locals: Vec<LocalSpec>,
    local_by_name: HashMap<String, u32>,
}

impl Compiler {
    // ----- registers & scopes ----------------------------------------------

    fn alloc(&mut self, span: Span) -> ExecResult<Reg> {
        if self.reg_top >= Reg::MAX as usize {
            return Err(ExecError::new("kernel too large: register file overflow", span));
        }
        let r = self.reg_top as Reg;
        self.reg_top += 1;
        self.n_regs = self.n_regs.max(self.reg_top);
        if self.var_regs.len() < self.reg_top {
            self.var_regs.resize(self.reg_top, false);
        }
        Ok(r)
    }

    fn restore(&mut self, wm: usize) {
        for flag in &mut self.var_regs[wm..self.reg_top] {
            *flag = false;
        }
        self.reg_top = wm;
    }

    fn declare_var(&mut self, name: &str, span: Span) -> ExecResult<Reg> {
        let r = self.alloc(span)?;
        self.var_regs[r as usize] = true;
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.to_string(), r));
        Ok(r)
    }

    fn lookup(&self, name: &str) -> Option<Reg> {
        for scope in self.scopes.iter().rev() {
            for (n, r) in scope.iter().rev() {
                if n == name {
                    return Some(*r);
                }
            }
        }
        None
    }

    /// Copy a result out of a variable register when a sibling expression
    /// evaluated afterwards may overwrite that variable.
    fn protect(&mut self, r: Reg, hazard: bool, span: Span) -> ExecResult<Reg> {
        if hazard && self.var_regs[r as usize] {
            let t = self.alloc(span)?;
            self.emit(Insn::Copy { dst: t, src: r }, span);
            Ok(t)
        } else {
            Ok(r)
        }
    }

    // ----- emission ---------------------------------------------------------

    fn emit(&mut self, insn: Insn, span: Span) {
        self.code.push(insn);
        self.spans.push(span);
    }

    fn label(&mut self) -> u32 {
        self.labels.push(None);
        (self.labels.len() - 1) as u32
    }

    fn bind(&mut self, label: u32) {
        self.labels[label as usize] = Some(self.code.len() as u32);
    }

    /// Patch label ids into program counters and package the phase.
    fn finish_phase(&mut self) -> Phase {
        let resolve = |labels: &[Option<u32>], l: u32| -> u32 {
            labels[l as usize].expect("unbound label")
        };
        for insn in &mut self.code {
            match insn {
                Insn::Jump { to }
                | Insn::JumpIfFalse { to, .. }
                | Insn::JumpIfTrue { to, .. }
                | Insn::JumpIfFull { to } => *to = resolve(&self.labels, *to),
                Insn::LoopNext { back, .. } => *back = resolve(&self.labels, *back),
                _ => {}
            }
        }
        self.labels.clear();
        Phase { code: std::mem::take(&mut self.code), spans: std::mem::take(&mut self.spans) }
    }

    // ----- statements -------------------------------------------------------

    fn compile_stmt(&mut self, stmt: &Stmt) -> ExecResult<()> {
        match stmt {
            Stmt::Decl(decl) => self.compile_decl(decl),
            Stmt::Expr(e) => {
                let wm = self.reg_top;
                self.compile_expr(e)?;
                self.restore(wm);
                Ok(())
            }
            Stmt::If { cond, then, els, .. } => {
                let wm = self.reg_top;
                let c = self.compile_expr(cond)?;
                let lend = self.label();
                match els {
                    Some(els) => {
                        let lelse = self.label();
                        self.emit(Insn::JumpIfFalse { cond: c, to: lelse }, cond.span());
                        self.restore(wm);
                        self.compile_scoped(then)?;
                        self.emit(Insn::Jump { to: lend }, stmt.span());
                        self.bind(lelse);
                        self.compile_scoped(els)?;
                    }
                    None => {
                        self.emit(Insn::JumpIfFalse { cond: c, to: lend }, cond.span());
                        self.restore(wm);
                        self.compile_scoped(then)?;
                    }
                }
                self.bind(lend);
                Ok(())
            }
            Stmt::For { init, cond, step, body, span } => {
                self.compile_for(init.as_deref(), cond.as_ref(), step.as_ref(), body, *span)
            }
            Stmt::While { cond, body, .. } => {
                let lcond = self.label();
                let lend = self.label();
                self.bind(lcond);
                let wm = self.reg_top;
                let c = self.compile_expr(cond)?;
                self.emit(Insn::JumpIfFalse { cond: c, to: lend }, cond.span());
                self.restore(wm);
                self.loops.push((lend, lcond));
                let r = self.compile_scoped(body);
                self.loops.pop();
                r?;
                self.emit(Insn::Jump { to: lcond }, stmt.span());
                self.bind(lend);
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => {
                let lbody = self.label();
                let lcond = self.label();
                let lend = self.label();
                self.bind(lbody);
                self.loops.push((lend, lcond));
                let r = self.compile_scoped(body);
                self.loops.pop();
                r?;
                self.bind(lcond);
                let wm = self.reg_top;
                let c = self.compile_expr(cond)?;
                self.emit(Insn::JumpIfTrue { cond: c, to: lbody }, cond.span());
                self.restore(wm);
                self.bind(lend);
                Ok(())
            }
            Stmt::Block { stmts, .. } => {
                self.scopes.push(Vec::new());
                let wm = self.reg_top;
                let mut result = Ok(());
                for s in stmts {
                    result = self.compile_stmt(s);
                    if result.is_err() {
                        break;
                    }
                }
                self.scopes.pop();
                self.restore(wm);
                result
            }
            Stmt::Return { .. } => {
                self.emit(Insn::Ret, stmt.span());
                Ok(())
            }
            Stmt::Break { span } => {
                match self.loops.last() {
                    Some(&(brk, _)) => self.emit(Insn::Jump { to: brk }, *span),
                    // Unreachable post-sema; mirror the tree-walker's error.
                    None => self.emit(
                        Insn::Fail { msg: "Break escaped to kernel top level".into() },
                        *span,
                    ),
                }
                Ok(())
            }
            Stmt::Continue { span } => {
                match self.loops.last() {
                    Some(&(_, cont)) => self.emit(Insn::Jump { to: cont }, *span),
                    None => self.emit(
                        Insn::Fail { msg: "Continue escaped to kernel top level".into() },
                        *span,
                    ),
                }
                Ok(())
            }
        }
    }

    /// Compile a statement in its own scope (bodies of if/while/for); blocks
    /// already manage one.
    fn compile_scoped(&mut self, stmt: &Stmt) -> ExecResult<()> {
        if matches!(stmt, Stmt::Block { .. }) {
            return self.compile_stmt(stmt);
        }
        self.scopes.push(Vec::new());
        let wm = self.reg_top;
        let r = self.compile_stmt(stmt);
        self.scopes.pop();
        self.restore(wm);
        r
    }

    fn compile_decl(&mut self, decl: &clc::ast::Decl) -> ExecResult<()> {
        if let Some(len) = decl.array_len {
            let elem = match decl.ty {
                Type::Ptr { elem, .. } => elem,
                Type::Scalar(s) => s,
                Type::Void => unreachable!("sema rejects void decls"),
            };
            if decl.space == clc::Space::Local {
                let idx = match self.local_by_name.get(&decl.name) {
                    Some(&idx) => idx,
                    None => {
                        let idx = self.locals.len() as u32;
                        self.locals.push(LocalSpec { len, is_float: elem.is_float() });
                        self.local_by_name.insert(decl.name.clone(), idx);
                        idx
                    }
                };
                let v = self.declare_var(&decl.name, decl.span)?;
                self.emit(Insn::BindLocal { dst: v, idx }, decl.span);
            } else {
                let v = self.declare_var(&decl.name, decl.span)?;
                self.emit(
                    Insn::AllocPriv { dst: v, len: len as u32, is_float: elem.is_float() },
                    decl.span,
                );
            }
            return Ok(());
        }
        match &decl.init {
            Some(init) => {
                let wm = self.reg_top;
                let r = self.compile_expr(init)?;
                self.restore(wm);
                let v = self.declare_var(&decl.name, decl.span)?;
                match decl.ty {
                    Type::Scalar(to) => {
                        self.emit(Insn::CastScalar { dst: v, src: r, to }, init.span())
                    }
                    Type::Ptr { .. } => {
                        self.emit(Insn::CoercePtr { dst: v, src: r }, init.span())
                    }
                    Type::Void => self.emit(Insn::Fail { msg: "void value".into() }, init.span()),
                }
            }
            None => {
                let v = self.declare_var(&decl.name, decl.span)?;
                match decl.ty {
                    Type::Scalar(s) if s.is_float() => {
                        self.emit(Insn::ConstFloat { dst: v, v: 0.0 }, decl.span)
                    }
                    _ => self.emit(Insn::ConstInt { dst: v, v: 0 }, decl.span),
                }
            }
        }
        Ok(())
    }

    // ----- loops ------------------------------------------------------------

    fn compile_for(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Stmt,
        span: Span,
    ) -> ExecResult<()> {
        self.scopes.push(Vec::new());
        let wm_for = self.reg_top;
        if let Some(init) = init {
            self.compile_stmt(init)?;
        }
        let result = (|| {
            match self.static_plan(init, cond, step, body) {
                Some(plan) => {
                    let (cond, step) = (cond.unwrap(), step.unwrap());
                    let lfull = self.label();
                    let lend = self.label();
                    self.emit(Insn::JumpIfFull { to: lfull }, span);
                    // Profile path: evaluate the bound once (traced), then
                    // run sampled iterations under a scale region.
                    let wmb = self.reg_top;
                    let breg = self.compile_expr(plan.bound)?;
                    if !plan.dir_ok {
                        // analyze_loop evaluates the bound before noticing
                        // the direction mismatch, then falls back.
                        self.restore(wmb);
                        self.emit(Insn::Jump { to: lfull }, span);
                    } else {
                        let counter = self.alloc(span)?;
                        let scaled = self.alloc(span)?;
                        let ffwd = self.alloc(span)?;
                        self.emit(
                            Insn::LoopBegin {
                                var: plan.var,
                                bound: breg,
                                counter,
                                scaled,
                                ffwd,
                                delta: plan.delta,
                                cmp: plan.cmp,
                            },
                            cond.span(),
                        );
                        let lloop = self.label();
                        let lcont = self.label();
                        let lbreak = self.label();
                        self.emit(Insn::JumpIfFalse { cond: counter, to: lbreak }, span);
                        self.bind(lloop);
                        self.loops.push((lbreak, lcont));
                        let r = self.compile_scoped(body);
                        self.loops.pop();
                        r?;
                        self.bind(lcont);
                        let wm = self.reg_top;
                        self.compile_expr(step)?;
                        self.restore(wm);
                        self.emit(
                            Insn::LoopNext { counter, scaled, ffwd, var: plan.var, back: lloop },
                            span,
                        );
                        self.emit(Insn::Jump { to: lend }, span);
                        self.bind(lbreak);
                        self.emit(Insn::EndScaleIf { scaled }, span);
                        self.emit(Insn::Jump { to: lend }, span);
                    }
                    self.bind(lfull);
                    self.compile_generic_for(Some(cond), Some(step), body, span)?;
                    self.bind(lend);
                    Ok(())
                }
                None => self.compile_generic_for(cond, step, body, span),
            }
        })();
        self.scopes.pop();
        self.restore(wm_for);
        result
    }

    fn compile_generic_for(
        &mut self,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Stmt,
        span: Span,
    ) -> ExecResult<()> {
        let lcond = self.label();
        let lstep = self.label();
        let lexit = self.label();
        self.bind(lcond);
        if let Some(cond) = cond {
            let wm = self.reg_top;
            let c = self.compile_expr(cond)?;
            self.emit(Insn::JumpIfFalse { cond: c, to: lexit }, cond.span());
            self.restore(wm);
        }
        self.loops.push((lexit, lstep));
        let r = self.compile_scoped(body);
        self.loops.pop();
        r?;
        self.bind(lstep);
        if let Some(step) = step {
            let wm = self.reg_top;
            self.compile_expr(step)?;
            self.restore(wm);
        }
        self.emit(Insn::Jump { to: lcond }, span);
        self.bind(lexit);
        Ok(())
    }

    /// Syntactic half of `exec::analyze_loop`: recognize
    /// `for (i = i0; i <op> bound; i += d)` whose body never writes `i`.
    /// The value half (bound, trip count) runs at execution time in
    /// [`Insn::LoopBegin`].
    fn static_plan<'a>(
        &self,
        init: Option<&Stmt>,
        cond: Option<&'a Expr>,
        step: Option<&'a Expr>,
        body: &Stmt,
    ) -> Option<StaticPlan<'a>> {
        let (cond, step) = (cond?, step?);
        let var_name: &str = match init? {
            Stmt::Decl(d) => &d.name,
            Stmt::Expr(Expr::Assign { op: clc::AssignOp::Assign, target, .. }) => {
                match target.as_ref() {
                    Expr::Ident { name, .. } => name,
                    _ => return None,
                }
            }
            _ => return None,
        };
        let delta: i64 = match step {
            Expr::IncDec { inc, target, .. } => match target.as_ref() {
                Expr::Ident { name, .. } if name == var_name => {
                    if *inc {
                        1
                    } else {
                        -1
                    }
                }
                _ => return None,
            },
            Expr::Assign { op, target, value, .. } => {
                match target.as_ref() {
                    Expr::Ident { name, .. } if name == var_name => {}
                    _ => return None,
                }
                match op {
                    clc::AssignOp::Add => const_int(value)?,
                    clc::AssignOp::Sub => -const_int(value)?,
                    clc::AssignOp::Assign => match value.as_ref() {
                        Expr::Binary { op: BinOp::Add, lhs, rhs, .. } => {
                            match (lhs.as_ref(), rhs.as_ref()) {
                                (Expr::Ident { name, .. }, other) if name == var_name => {
                                    const_int(other)?
                                }
                                (other, Expr::Ident { name, .. }) if name == var_name => {
                                    const_int(other)?
                                }
                                _ => return None,
                            }
                        }
                        _ => return None,
                    },
                    _ => return None,
                }
            }
            _ => return None,
        };
        if delta == 0 {
            return None;
        }
        let (cmp, bound) = match cond {
            Expr::Binary { op, lhs, rhs, .. } => match lhs.as_ref() {
                Expr::Ident { name, .. } if name == var_name => (*op, rhs.as_ref()),
                _ => return None,
            },
            _ => return None,
        };
        if !matches!(cmp, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
            return None;
        }
        if writes_var(body, var_name) {
            return None;
        }
        let var = self.lookup(var_name)?;
        let dir_ok = match cmp {
            BinOp::Lt | BinOp::Le => delta > 0,
            _ => delta < 0,
        };
        Some(StaticPlan { var, delta, cmp, bound, dir_ok })
    }

    // ----- expressions ------------------------------------------------------

    fn compile_expr(&mut self, e: &Expr) -> ExecResult<Reg> {
        let span = e.span();
        match e {
            Expr::IntLit { value, .. } => {
                let dst = self.alloc(span)?;
                self.emit(Insn::ConstInt { dst, v: *value }, span);
                Ok(dst)
            }
            Expr::FloatLit { value, .. } => {
                let dst = self.alloc(span)?;
                self.emit(Insn::ConstFloat { dst, v: *value as f32 }, span);
                Ok(dst)
            }
            Expr::BoolLit { value, .. } => {
                let dst = self.alloc(span)?;
                self.emit(Insn::ConstInt { dst, v: *value as i64 }, span);
                Ok(dst)
            }
            Expr::Ident { name, .. } => match self.lookup(name) {
                Some(r) => Ok(r),
                None => {
                    // Unreachable post-sema; mirror the runtime error.
                    let dst = self.alloc(span)?;
                    self.emit(
                        Insn::Fail { msg: format!("unbound variable `{}`", name).into() },
                        span,
                    );
                    Ok(dst)
                }
            },
            Expr::Unary { op, operand, .. } => {
                let src = self.compile_expr(operand)?;
                let dst = self.alloc(span)?;
                self.emit(Insn::Unary { op: *op, dst, src }, span);
                Ok(dst)
            }
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs, .. } => {
                let l = self.compile_expr(lhs)?;
                self.emit(Insn::CountIop, span);
                let dst = self.alloc(span)?;
                let lshort = self.label();
                let lend = self.label();
                match op {
                    BinOp::And => {
                        self.emit(Insn::JumpIfFalse { cond: l, to: lshort }, span)
                    }
                    _ => self.emit(Insn::JumpIfTrue { cond: l, to: lshort }, span),
                }
                let r = self.compile_expr(rhs)?;
                self.emit(Insn::Truthy { dst, src: r }, span);
                self.emit(Insn::Jump { to: lend }, span);
                self.bind(lshort);
                let short_v = if *op == BinOp::And { 0 } else { 1 };
                self.emit(Insn::ConstInt { dst, v: short_v }, span);
                self.bind(lend);
                Ok(dst)
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.compile_expr(lhs)?;
                let l = self.protect(l, writes_vars(rhs), span)?;
                let r = self.compile_expr(rhs)?;
                let dst = self.alloc(span)?;
                self.emit(Insn::Binary { op: *op, dst, lhs: l, rhs: r }, span);
                Ok(dst)
            }
            Expr::Assign { op, target, value, span } => {
                self.compile_assign(*op, target, value, *span)
            }
            Expr::IncDec { inc, pre, target, span } => {
                self.compile_incdec(*inc, *pre, target, *span)
            }
            Expr::Call { name, args, span } => self.compile_call(name, args, *span),
            Expr::Index { .. } => self.compile_load(e),
            Expr::Cast { to, operand, .. } => {
                let src = self.compile_expr(operand)?;
                let dst = self.alloc(span)?;
                self.emit(Insn::CastScalar { dst, src, to: *to }, span);
                Ok(dst)
            }
            Expr::Ternary { cond, then, els, .. } => {
                let c = self.compile_expr(cond)?;
                let dst = self.alloc(span)?;
                let lelse = self.label();
                let lend = self.label();
                self.emit(Insn::JumpIfFalse { cond: c, to: lelse }, span);
                let t = self.compile_expr(then)?;
                self.emit(Insn::Copy { dst, src: t }, span);
                self.emit(Insn::Jump { to: lend }, span);
                self.bind(lelse);
                let f = self.compile_expr(els)?;
                self.emit(Insn::Copy { dst, src: f }, span);
                self.bind(lend);
                Ok(dst)
            }
        }
    }

    /// Compile `base[index]` as a load. The tree-walker evaluates base, then
    /// index, then traces — same order here.
    fn compile_load(&mut self, e: &Expr) -> ExecResult<Reg> {
        let Expr::Index { base, index, .. } = e else {
            unreachable!("compile_load on non-index expression");
        };
        let site = self.sites.id_of(e);
        let b = self.compile_expr(base)?;
        let b = self.protect(b, writes_vars(index), e.span())?;
        let i = self.compile_expr(index)?;
        let dst = self.alloc(e.span())?;
        self.emit(Insn::Load { dst, ptr: b, idx: i, site }, e.span());
        Ok(dst)
    }

    /// Re-evaluate the address of `base[index]` and store `src` through it
    /// (the tree-walker's `write_lvalue` re-evaluates both subexpressions).
    fn compile_store(&mut self, target: &Expr, src: Reg) -> ExecResult<()> {
        let Expr::Index { base, index, .. } = target else {
            unreachable!("compile_store on non-index target");
        };
        let site = self.sites.id_of(target);
        let b = self.compile_expr(base)?;
        let b = self.protect(b, writes_vars(index), target.span())?;
        let i = self.compile_expr(index)?;
        self.emit(Insn::Store { src, ptr: b, idx: i, site }, target.span());
        Ok(())
    }

    fn compile_assign(
        &mut self,
        op: clc::AssignOp,
        target: &Expr,
        value: &Expr,
        span: Span,
    ) -> ExecResult<Reg> {
        let r = self.compile_expr(value)?;
        match target {
            Expr::Ident { name, .. } => {
                let v = match self.lookup(name) {
                    Some(v) => v,
                    None => {
                        self.emit(
                            Insn::Fail { msg: format!("unbound variable `{}`", name).into() },
                            target.span(),
                        );
                        return Ok(r);
                    }
                };
                match op.binop() {
                    Some(bin) => {
                        let dst = self.alloc(span)?;
                        self.emit(Insn::Binary { op: bin, dst, lhs: v, rhs: r }, span);
                        self.emit(Insn::Copy { dst: v, src: dst }, span);
                        Ok(dst)
                    }
                    None => {
                        self.emit(Insn::Copy { dst: v, src: r }, span);
                        Ok(r)
                    }
                }
            }
            Expr::Index { base, index, .. } => {
                let addr_writes = writes_vars(base) || writes_vars(index);
                let r = self.protect(r, addr_writes, span)?;
                match op.binop() {
                    Some(bin) => {
                        let site = self.sites.id_of(target);
                        let b = self.compile_expr(base)?;
                        let b = self.protect(b, writes_vars(index), target.span())?;
                        let i = self.compile_expr(index)?;
                        let old = self.alloc(span)?;
                        self.emit(Insn::Load { dst: old, ptr: b, idx: i, site }, target.span());
                        let val = self.alloc(span)?;
                        self.emit(Insn::Binary { op: bin, dst: val, lhs: old, rhs: r }, span);
                        self.compile_store(target, val)?;
                        Ok(val)
                    }
                    None => {
                        self.compile_store(target, r)?;
                        Ok(r)
                    }
                }
            }
            other => {
                self.emit(Insn::Fail { msg: "not an lvalue".into() }, other.span());
                Ok(r)
            }
        }
    }

    fn compile_incdec(
        &mut self,
        inc: bool,
        pre: bool,
        target: &Expr,
        span: Span,
    ) -> ExecResult<Reg> {
        let delta = if inc { 1 } else { -1 };
        match target {
            Expr::Ident { name, .. } => {
                let v = match self.lookup(name) {
                    Some(v) => v,
                    None => {
                        let dst = self.alloc(span)?;
                        self.emit(
                            Insn::Fail { msg: format!("unbound variable `{}`", name).into() },
                            target.span(),
                        );
                        return Ok(dst);
                    }
                };
                let old = self.alloc(span)?;
                self.emit(Insn::IncDec { old_dst: old, new_dst: v, src: v, delta }, span);
                Ok(if pre { v } else { old })
            }
            Expr::Index { base, index, .. } => {
                let site = self.sites.id_of(target);
                let b = self.compile_expr(base)?;
                let b = self.protect(b, writes_vars(index), target.span())?;
                let i = self.compile_expr(index)?;
                let old = self.alloc(span)?;
                self.emit(Insn::Load { dst: old, ptr: b, idx: i, site }, target.span());
                let new = self.alloc(span)?;
                self.emit(Insn::IncDec { old_dst: old, new_dst: new, src: old, delta }, span);
                self.compile_store(target, new)?;
                Ok(if pre { new } else { old })
            }
            other => {
                let dst = self.alloc(span)?;
                self.emit(Insn::Fail { msg: "not an lvalue".into() }, other.span());
                Ok(dst)
            }
        }
    }

    fn compile_call(&mut self, name: &str, args: &[Expr], span: Span) -> ExecResult<Reg> {
        let Some(f) = builtins::lookup(name) else {
            let dst = self.alloc(span)?;
            let msg = format!("unknown builtin `{}`", name).into();
            self.emit(Insn::Fail { msg }, span);
            return Ok(dst);
        };
        // Arguments left to right, each protected from later siblings'
        // writes, like the tree-walker's evaluation into values.
        let mut regs: [Reg; 3] = [0; 3];
        for (i, (slot, arg)) in regs.iter_mut().zip(args).enumerate() {
            let r = self.compile_expr(arg)?;
            *slot = self.protect(r, args[i + 1..].iter().any(writes_vars), span)?;
        }
        let dst = self.alloc(span)?;
        let insn = match f {
            Builtin::Atomic(op) => {
                let [ptr, a, b] = regs;
                Insn::Atomic { op, dst, ptr, args: [a, b] }
            }
            f => Insn::Call { f, dst, args: regs },
        };
        self.emit(insn, span);
        Ok(dst)
    }
}

/// Compile a checked kernel to bytecode. Fails with the same errors the
/// tree-walking entry points would raise up front (misplaced barriers,
/// oversized register demands).
pub fn compile_kernel(kernel: &Kernel) -> Result<CompiledKernel, ExecError> {
    let phase_slices = split_phases(&kernel.body, kernel.span)?;
    let mut c = Compiler {
        sites: SiteTable::build(kernel),
        scopes: vec![Vec::new()],
        var_regs: Vec::new(),
        reg_top: 0,
        n_regs: 0,
        code: Vec::new(),
        spans: Vec::new(),
        labels: Vec::new(),
        loops: Vec::new(),
        locals: Vec::new(),
        local_by_name: HashMap::new(),
    };
    for p in &kernel.params {
        c.declare_var(&p.name, p.span)?;
    }
    let mut phases = Vec::with_capacity(phase_slices.len());
    for slice in phase_slices {
        for stmt in slice {
            c.compile_stmt(stmt)?;
        }
        phases.push(c.finish_phase());
    }
    Ok(CompiledKernel {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        span: kernel.span,
        phases,
        n_regs: c.n_regs,
        locals: c.locals,
        num_sites: c.sites.len(),
        code_id: NEXT_CODE_ID.fetch_add(1, Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The malleable work-allocation guard, verbatim from the transform.
    const GUARDED_SRC: &str = "
        __kernel void guarded(__global int* out, int dop_gpu_mod, int dop_gpu_alloc) {
            if (get_local_id(0) % dop_gpu_mod < dop_gpu_alloc) {
                out[get_global_id(0)] = 1;
            }
        }";

    fn kernel_of(src: &str) -> Kernel {
        clc::compile(src).unwrap().kernels.remove(0)
    }

    #[test]
    fn site_table_is_deterministic_and_code_ids_are_not() {
        let k = kernel_of(GUARDED_SRC);
        let a = compile_kernel(&k).unwrap();
        let b = compile_kernel(&k).unwrap();
        assert_eq!(a.num_sites(), b.num_sites());
        assert_eq!(a.num_insns(), b.num_insns());
        // Each compilation is a distinct cacheable identity.
        assert_ne!(a.code_id(), b.code_id());
    }

    /// An access in every child position: `for` init/cond/step/body,
    /// `do` body before its cond, and a nested `A[B[i]]`.
    const EVERY_POSITION_SRC: &str = "
        __kernel void every_position(__global int* A, __global int* B, int n) {
            int i = get_global_id(0);
            for (int j = A[0]; j < A[1]; j += A[2]) {
                A[3] = j;
            }
            do {
                A[4] += 1;
            } while (A[5] < n);
            A[B[i]] = A[6] > 0 ? B[7] : -B[8];
        }";

    /// Profiles sum sites in ascending id order, so ids must stay the
    /// pre-order of the kernel body, which is source order: an outer
    /// access gets its id before the accesses nested in it.
    #[test]
    fn site_ids_follow_source_order() {
        fn index_nodes<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Index { .. } = e {
                out.push(e);
            }
            e.children().for_each(|c| index_nodes(c, out));
        }
        fn from_stmt<'a>(s: &'a Stmt, out: &mut Vec<&'a Expr>) {
            for child in s.children() {
                match child {
                    Child::Stmt(s) => from_stmt(s, out),
                    Child::Expr(e) => index_nodes(e, out),
                }
            }
        }
        let k = kernel_of(EVERY_POSITION_SRC);
        let mut sites = Vec::new();
        k.body.iter().for_each(|s| from_stmt(s, &mut sites));
        sites.sort_by_key(|e| e.span().start);

        let table = SiteTable::build(&k);
        let ids: Vec<u32> = sites.iter().map(|e| table.id_of(e)).collect();
        assert_eq!(ids, (0..11).collect::<Vec<u32>>());
        assert_eq!(table.len(), 11);
        assert_eq!(compile_kernel(&k).unwrap().num_sites(), 11);
    }
}
