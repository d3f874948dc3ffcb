//! The feature-extraction walker (paper Section 5.1, Table 1).

use super::affine::{Affine, Coef};
use clc::builtins::{self, Builtin, BuiltinKind, Query};
use clc::{AssignOp, BinOp, Expr, Kernel, Scalar, Stmt, Type, UnOp};
use std::collections::HashMap;
use std::fmt;

/// The six code features extracted by static analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodeFeatures {
    /// Memory operations to a constant address.
    pub mem_constant: u32,
    /// Memory operations to continuous (unit-stride) addresses.
    pub mem_continuous: u32,
    /// Memory operations with a constant non-unit stride.
    pub mem_stride: u32,
    /// Memory operations with a random (unanalyzable) offset.
    pub mem_random: u32,
    /// Integer add/mul/div-class arithmetic operations.
    pub arith_int: u32,
    /// Floating-point add/mul/div/special arithmetic operations.
    pub arith_float: u32,
}

impl CodeFeatures {
    /// Total memory operations.
    pub fn mem_total(&self) -> u32 {
        self.mem_constant + self.mem_continuous + self.mem_stride + self.mem_random
    }
}

/// `name=value` pairs in Table 1 order (CLI output).
impl fmt::Display for CodeFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mem_constant={} mem_continuous={} mem_stride={} mem_random={} arith_int={} arith_float={}",
            self.mem_constant,
            self.mem_continuous,
            self.mem_stride,
            self.mem_random,
            self.arith_int,
            self.arith_float
        )
    }
}

/// Extract the Table 1 code features from a kernel.
pub fn extract_code_features(kernel: &Kernel) -> CodeFeatures {
    let mut walker = Walker::new();
    for param in &kernel.params {
        walker.bind(&param.name, Binding::param(param.ty));
    }
    for stmt in &kernel.body {
        walker.walk_stmt(stmt);
    }
    walker.features
}

/// What the analyzer knows about a variable.
#[derive(Debug, Clone)]
struct Binding {
    affine: Affine,
    /// Exact literal value when statically known.
    lit: Option<i64>,
    scalar: Scalar,
    is_pointer: bool,
}

impl Binding {
    fn param(ty: Type) -> Binding {
        match ty {
            Type::Ptr { elem, .. } => Binding {
                affine: Affine::constant(),
                lit: None,
                scalar: elem,
                is_pointer: true,
            },
            Type::Scalar(s) => {
                Binding { affine: Affine::constant(), lit: None, scalar: s, is_pointer: false }
            }
            Type::Void => unreachable!("sema rejects void params"),
        }
    }
}

struct Walker {
    scopes: Vec<HashMap<String, Binding>>,
    /// Induction symbols, outermost first; the *last* entry is the
    /// fastest-varying.
    loop_stack: Vec<String>,
    /// Uniquifier for induction symbols (handles shadowing).
    next_symbol: usize,
    features: CodeFeatures,
}

/// Result of analyzing one expression.
struct Analyzed {
    affine: Affine,
    lit: Option<i64>,
    is_float: bool,
}

impl Analyzed {
    fn opaque(is_float: bool) -> Analyzed {
        Analyzed { affine: Affine::opaque(), lit: None, is_float }
    }

    fn constant(lit: Option<i64>) -> Analyzed {
        Analyzed { affine: Affine::constant(), lit, is_float: false }
    }
}

impl Walker {
    fn new() -> Self {
        Walker {
            scopes: vec![HashMap::new()],
            loop_stack: Vec::new(),
            next_symbol: 0,
            features: CodeFeatures::default(),
        }
    }

    fn bind(&mut self, name: &str, binding: Binding) {
        self.scopes.last_mut().unwrap().insert(name.to_string(), binding);
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn rebind(&mut self, name: &str, affine: Affine, lit: Option<i64>) {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(b) = scope.get_mut(name) {
                b.affine = affine;
                b.lit = lit;
                return;
            }
        }
    }

    fn fresh_symbol(&mut self, hint: &str) -> String {
        self.next_symbol += 1;
        format!("{}#{}", hint, self.next_symbol)
    }

    // ----- statements -------------------------------------------------------

    fn walk_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl(d) => {
                let (affine, lit, scalar) = match (&d.init, d.ty) {
                    (Some(init), _) => {
                        let a = self.analyze(init);
                        let scalar = d.ty.as_scalar().unwrap_or(Scalar::Int);
                        (a.affine, a.lit, scalar)
                    }
                    (None, Type::Scalar(s)) => (Affine::constant(), Some(0), s),
                    (None, _) => (Affine::constant(), None, Scalar::Int),
                };
                let is_pointer = d.ty.is_pointer() || d.array_len.is_some();
                self.bind(&d.name, Binding { affine, lit, scalar, is_pointer });
            }
            Stmt::Expr(e) => {
                self.analyze(e);
            }
            Stmt::If { cond, then, els, .. } => {
                self.analyze(cond);
                self.scoped(|w| w.walk_stmt(then));
                if let Some(els) = els {
                    self.scoped(|w| w.walk_stmt(els));
                }
            }
            Stmt::For { init, cond, step, body, .. } => {
                self.scopes.push(HashMap::new());
                // Bind the init statement once; `for (;;)` has none and
                // must flow through with no induction variable.
                let var = match init.as_deref() {
                    Some(init_stmt) => {
                        self.walk_stmt(init_stmt);
                        match init_stmt {
                            Stmt::Decl(d) => Some(d.name.clone()),
                            Stmt::Expr(Expr::Assign { target, .. }) => match target.as_ref() {
                                Expr::Ident { name, .. } => Some(name.clone()),
                                _ => None,
                            },
                            _ => None,
                        }
                    }
                    None => None,
                };
                let mut pushed = 0;
                if let Some(var) = var {
                    let sym = self.fresh_symbol(&var);
                    self.rebind(&var, Affine::symbol(&sym), None);
                    self.loop_stack.push(sym);
                    pushed += 1;
                }
                // Variables stepped inside the body behave like induction
                // variables too (manual counters in while-style loops).
                pushed += self.bind_stepped_vars(body);
                if let Some(cond) = cond {
                    self.analyze(cond);
                }
                if let Some(step) = step {
                    self.analyze(step);
                }
                self.walk_stmt(body);
                for _ in 0..pushed {
                    self.loop_stack.pop();
                }
                self.scopes.pop();
            }
            Stmt::While { cond, body, .. } | Stmt::DoWhile { body, cond, .. } => {
                self.scopes.push(HashMap::new());
                let pushed = self.bind_stepped_vars(body);
                self.analyze(cond);
                self.walk_stmt(body);
                for _ in 0..pushed {
                    self.loop_stack.pop();
                }
                self.scopes.pop();
            }
            Stmt::Block { stmts, .. } => {
                self.scoped(|w| {
                    for s in stmts {
                        w.walk_stmt(s);
                    }
                });
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.analyze(v);
                }
            }
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
        }
    }

    fn scoped(&mut self, f: impl FnOnce(&mut Self)) {
        self.scopes.push(HashMap::new());
        f(self);
        self.scopes.pop();
    }

    /// Find variables incremented by a constant inside `body` and bind them
    /// as induction symbols; returns how many symbols were pushed.
    fn bind_stepped_vars(&mut self, body: &Stmt) -> usize {
        let mut vars = Vec::new();
        collect_stepped_vars(body, &mut vars);
        let mut pushed = 0;
        for var in vars {
            if self.lookup(&var).is_some() {
                let sym = self.fresh_symbol(&var);
                self.rebind(&var, Affine::symbol(&sym), None);
                self.loop_stack.push(sym);
                pushed += 1;
            }
        }
        pushed
    }

    // ----- expressions ------------------------------------------------------

    /// Analyze an expression: count its arithmetic and memory operations
    /// and return its affine form.
    fn analyze(&mut self, expr: &Expr) -> Analyzed {
        match expr {
            Expr::IntLit { value, .. } => Analyzed::constant(Some(*value)),
            Expr::FloatLit { .. } => {
                Analyzed { affine: Affine::constant(), lit: None, is_float: true }
            }
            Expr::BoolLit { value, .. } => Analyzed::constant(Some(*value as i64)),
            Expr::Ident { name, .. } => match self.lookup(name) {
                Some(b) => Analyzed {
                    affine: b.affine.clone(),
                    lit: b.lit,
                    is_float: b.scalar.is_float() && !b.is_pointer,
                },
                None => Analyzed::opaque(false),
            },
            Expr::Unary { op, operand, .. } => {
                let a = self.analyze(operand);
                match op {
                    UnOp::Neg => {
                        self.count_arith(a.is_float);
                        Analyzed {
                            affine: a.affine.neg(),
                            lit: a.lit.map(|v| -v),
                            is_float: a.is_float,
                        }
                    }
                    UnOp::Not | UnOp::BitNot => Analyzed::opaque(false),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.analyze(lhs);
                let r = self.analyze(rhs);
                let is_float = l.is_float || r.is_float;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        self.count_arith(is_float);
                    }
                    _ => {}
                }
                if is_float {
                    return Analyzed::opaque(true);
                }
                let affine = match op {
                    BinOp::Add => l.affine.add(&r.affine),
                    BinOp::Sub => l.affine.sub(&r.affine),
                    BinOp::Mul => l.affine.mul(&r.affine, l.lit, r.lit),
                    BinOp::Div | BinOp::Rem | BinOp::Shr => {
                        l.affine.coarsen(r.affine.is_constant())
                    }
                    BinOp::Shl => {
                        // i << k == i * 2^k when k is a literal.
                        match r.lit {
                            Some(k) if (0..63).contains(&k) => {
                                let factor = Affine::constant();
                                l.affine.mul(&factor, None, Some(1i64 << k))
                            }
                            _ => l.affine.coarsen(r.affine.is_constant()),
                        }
                    }
                    _ => Affine::opaque(), // comparisons etc. are not indices
                };
                let lit = match (op, l.lit, r.lit) {
                    (BinOp::Add, Some(a), Some(b)) => Some(a + b),
                    (BinOp::Sub, Some(a), Some(b)) => Some(a - b),
                    (BinOp::Mul, Some(a), Some(b)) => Some(a * b),
                    (BinOp::Div, Some(a), Some(b)) if b != 0 => Some(a / b),
                    _ => None,
                };
                Analyzed { affine, lit, is_float }
            }
            Expr::Assign { op, target, value, .. } => {
                let v = self.analyze(value);
                // A compound assignment performs its arithmetic op.
                if op.binop().is_some() {
                    let target_float = self.expr_is_float(target);
                    self.count_arith(target_float || v.is_float);
                }
                match target.as_ref() {
                    Expr::Ident { name, .. } => {
                        let name = name.clone();
                        if *op == AssignOp::Assign {
                            self.rebind(&name, v.affine.clone(), v.lit);
                        } else {
                            // x op= v: the variable's affine form shifts in
                            // a way we track only for += / -= of constants.
                            let old = self
                                .lookup(&name)
                                .map(|b| b.affine.clone())
                                .unwrap_or_else(Affine::opaque);
                            let new = match op {
                                AssignOp::Add => old.add(&v.affine),
                                AssignOp::Sub => old.sub(&v.affine),
                                _ => Affine::opaque(),
                            };
                            self.rebind(&name, new, None);
                        }
                    }
                    Expr::Index { .. } => {
                        // A store (and for compound ops, an implied load at
                        // the same address — bumped again without
                        // re-analyzing the index).
                        let class = self.classify_access(target);
                        if op.binop().is_some() {
                            if let Some(class) = class {
                                self.bump(class);
                            }
                        }
                    }
                    _ => {}
                }
                v
            }
            Expr::IncDec { target, .. } => {
                self.count_arith(false);
                if let Expr::Ident { name, .. } = target.as_ref() {
                    let name = name.clone();
                    if let Some(b) = self.lookup(&name) {
                        // ±1 keeps the affine form's symbols; constant part
                        // is untracked anyway.
                        let affine = b.affine.clone();
                        self.rebind(&name, affine, None);
                    }
                }
                Analyzed::opaque(false)
            }
            Expr::Call { name, args, .. } => {
                for a in args {
                    self.analyze(a);
                }
                let Some(f) = builtins::lookup(name) else { return Analyzed::opaque(false) };
                match (f, f.kind()) {
                    (Builtin::Query(q @ (Query::GlobalId | Query::LocalId | Query::GroupId)), _) => {
                        let prefix = match q {
                            Query::GlobalId => "@id",
                            Query::LocalId => "@lid",
                            _ => "@grp",
                        };
                        Analyzed {
                            affine: Affine::symbol(format!("{}{}", prefix, const_dim(args))),
                            lit: None,
                            is_float: false,
                        }
                    }
                    (_, BuiltinKind::WorkItemQuery) => Analyzed::constant(None),
                    (_, BuiltinKind::Math | BuiltinKind::Common) => {
                        let is_float = self.call_is_float(f, args);
                        self.count_arith(is_float);
                        Analyzed::opaque(is_float)
                    }
                    // Atomics & barrier: not arithmetic, value unanalyzable.
                    (_, BuiltinKind::Atomic | BuiltinKind::Barrier) => Analyzed::opaque(false),
                }
            }
            Expr::Index { .. } => {
                self.classify_access(expr);
                let is_float = self.expr_is_float(expr);
                Analyzed::opaque(is_float)
            }
            Expr::Cast { to, operand, .. } => {
                let a = self.analyze(operand);
                Analyzed { affine: a.affine, lit: a.lit, is_float: to.is_float() }
            }
            Expr::Ternary { cond, then, els, .. } => {
                self.analyze(cond);
                let t = self.analyze(then);
                let e = self.analyze(els);
                Analyzed::opaque(t.is_float || e.is_float)
            }
        }
    }

    /// Classify one `base[index]` access and bump the matching counter.
    /// Returns the class so compound assignments can count the implied
    /// load without re-analyzing (and re-counting) the index expression.
    fn classify_access(&mut self, access: &Expr) -> Option<Class> {
        let Expr::Index { index, .. } = access else { return None };
        let analyzed = self.analyze(index);
        let class = self.classify_affine(&analyzed.affine);
        self.bump(class);
        Some(class)
    }

    fn bump(&mut self, class: Class) {
        match class {
            Class::Constant => self.features.mem_constant += 1,
            Class::Continuous => self.features.mem_continuous += 1,
            Class::Stride => self.features.mem_stride += 1,
            Class::Random => self.features.mem_random += 1,
        }
    }

    fn classify_affine(&self, affine: &Affine) -> Class {
        if affine.nonaffine {
            return Class::Random;
        }
        // Fastest-varying symbol present: innermost loop first, then
        // work-item ids (dimension 0 fastest), then local ids, group ids.
        let mut ranked: Vec<&str> = Vec::new();
        for sym in self.loop_stack.iter().rev() {
            ranked.push(sym);
        }
        let id_names = ["@id0", "@id1", "@id2", "@lid0", "@lid1", "@lid2", "@grp0", "@grp1", "@grp2"];
        ranked.extend(id_names);
        for sym in ranked {
            match affine.coef(sym) {
                Some(Coef::Lit(1)) | Some(Coef::Lit(-1)) => return Class::Continuous,
                Some(c) if !c.is_zero() => return Class::Stride,
                _ => continue,
            }
        }
        // Symbols we did not rank (stale induction symbols from sibling
        // loops) still mean the address varies somewhere — treat the
        // leftover like the ranked case.
        if let Some((_, c)) = affine.terms.iter().next() {
            return match c {
                Coef::Lit(1) | Coef::Lit(-1) => Class::Continuous,
                _ => Class::Stride,
            };
        }
        Class::Constant
    }

    fn count_arith(&mut self, is_float: bool) {
        if is_float {
            self.features.arith_float += 1;
        } else {
            self.features.arith_int += 1;
        }
    }

    /// Does builtin `f` applied to `args` produce a float? Math always
    /// does; min/max/abs follow their operands.
    fn call_is_float(&self, f: Builtin, args: &[Expr]) -> bool {
        match f.kind() {
            BuiltinKind::Math => true,
            BuiltinKind::Common => args.iter().any(|a| self.expr_is_float(a)),
            _ => false,
        }
    }

    /// Lightweight float-ness check without counting anything.
    fn expr_is_float(&self, expr: &Expr) -> bool {
        match expr {
            Expr::FloatLit { .. } => true,
            Expr::IntLit { .. } | Expr::BoolLit { .. } => false,
            Expr::Ident { name, .. } => self
                .lookup(name)
                .map(|b| b.scalar.is_float() && !b.is_pointer)
                .unwrap_or(false),
            Expr::Unary { operand, .. } => self.expr_is_float(operand),
            Expr::Binary { op, lhs, rhs, .. } => {
                !op.is_comparison() && (self.expr_is_float(lhs) || self.expr_is_float(rhs))
            }
            Expr::Assign { target, .. } => self.expr_is_float(target),
            Expr::IncDec { .. } => false,
            Expr::Call { name, args, .. } => {
                builtins::lookup(name).is_some_and(|f| self.call_is_float(f, args))
            }
            Expr::Index { base, .. } => match base.as_ref() {
                Expr::Ident { name, .. } => {
                    self.lookup(name).map(|b| b.scalar.is_float()).unwrap_or(false)
                }
                _ => false,
            },
            Expr::Cast { to, .. } => to.is_float(),
            Expr::Ternary { then, els, .. } => {
                self.expr_is_float(then) || self.expr_is_float(els)
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Constant,
    Continuous,
    Stride,
    Random,
}

/// Literal dimension argument of a work-item query (defaults to 0).
fn const_dim(args: &[Expr]) -> i64 {
    match args.first() {
        Some(Expr::IntLit { value, .. }) => *value,
        _ => 0,
    }
}

/// Collect variables stepped by a constant (`v++`, `v += c`, `v = v + c`)
/// anywhere inside `stmt`.
fn collect_stepped_vars(stmt: &Stmt, out: &mut Vec<String>) {
    fn from_expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::IncDec { target, .. } => {
                if let Expr::Ident { name, .. } = target.as_ref() {
                    if !out.contains(name) {
                        out.push(name.clone());
                    }
                }
            }
            Expr::Assign { op: AssignOp::Add | AssignOp::Sub, target, .. } => {
                if let Expr::Ident { name, .. } = target.as_ref() {
                    if !out.contains(name) {
                        out.push(name.clone());
                    }
                }
            }
            Expr::Assign { op: AssignOp::Assign, target, value, .. } => {
                if let (Expr::Ident { name, .. }, Expr::Binary { op: BinOp::Add | BinOp::Sub, lhs, .. }) =
                    (target.as_ref(), value.as_ref())
                {
                    if matches!(lhs.as_ref(), Expr::Ident { name: n2, .. } if n2 == name)
                        && !out.contains(name)
                    {
                        out.push(name.clone());
                    }
                }
            }
            _ => {}
        }
    }
    match stmt {
        Stmt::Expr(e) => from_expr(e, out),
        Stmt::If { then, els, .. } => {
            collect_stepped_vars(then, out);
            if let Some(els) = els {
                collect_stepped_vars(els, out);
            }
        }
        Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
            collect_stepped_vars(body, out);
        }
        Stmt::Block { stmts, .. } => {
            for s in stmts {
                collect_stepped_vars(s, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(src: &str) -> CodeFeatures {
        let program = clc::compile(src).unwrap();
        extract_code_features(&program.kernels[0])
    }

    /// The exact worked example of paper Section 5.1:
    /// `D[i][j] = A[i][j] + B[j][i] + C[c1] + C[B[j][i]]` must yield
    /// `#mem_constant = 1, #mem_continuous = 2, #mem_stride = 2,
    /// #mem_random = 1`.
    #[test]
    fn paper_worked_example() {
        let f = features(
            "__kernel void ex(__global float* A, __global float* B, __global float* C,
                              __global float* D, __global int* Bi, int N, int M, int c1) {
                for (int i = 0; i < N; i++) {
                    for (int j = 0; j < M; j++) {
                        D[i * M + j] = A[i * M + j] + B[j * N + i] + C[c1] + C[Bi[j * N + i]];
                    }
                }
            }",
        );
        assert_eq!(f.mem_constant, 1, "{:?}", f);
        assert_eq!(f.mem_continuous, 2, "{:?}", f); // A load + D store
        assert_eq!(f.mem_stride, 2, "{:?}", f); // B and the inner Bi load
        assert_eq!(f.mem_random, 1, "{:?}", f); // C[Bi[..]]
    }

    #[test]
    fn display_lists_every_feature_by_name() {
        let f = features(
            "__kernel void axpy(__global float* x, __global float* y, float a) {
                int i = get_global_id(0);
                y[i] = a * x[i] + y[i];
            }",
        );
        assert_eq!(
            f.to_string(),
            "mem_constant=0 mem_continuous=3 mem_stride=0 mem_random=0 arith_int=0 arith_float=2"
        );
    }

    /// Regression: a `for (;;)` with every clause empty (no init, cond or
    /// step) must extract without panicking — the For arm used to unwrap
    /// the init statement it matched on.
    #[test]
    fn bare_for_loop_extracts_without_panicking() {
        let f = features(
            "__kernel void spin(__global int* a, int n) {
                int i = get_global_id(0);
                int k = 0;
                for (;;) {
                    if (k >= n) { break; }
                    a[i] = a[i] + k;
                    k = k + 1;
                }
            }",
        );
        assert!(f.mem_continuous >= 1, "{:?}", f);
        assert!(f.arith_int >= 1, "{:?}", f);
    }

    /// A for-loop whose init is a plain assignment (not a declaration)
    /// still names the induction variable.
    #[test]
    fn assignment_init_for_loop_extracts() {
        let f = features(
            "__kernel void sum(__global float* a, __global float* out, int n) {
                int i;
                float acc = 0.0f;
                for (i = 0; i < n; i = i + 1) {
                    acc = acc + a[i];
                }
                out[get_global_id(0)] = acc;
            }",
        );
        assert_eq!(f.mem_continuous, 2, "{:?}", f);
    }

    #[test]
    fn gesummv_is_all_continuous() {
        let f = features(workloads::polybench::GESUMMV_SRC);
        // A, B, x (twice), y store — all unit-stride w.r.t. the inner loop
        // or the work-item id.
        assert_eq!(f.mem_continuous, 5, "{:?}", f);
        assert_eq!(f.mem_stride, 0, "{:?}", f);
        assert_eq!(f.mem_random, 0, "{:?}", f);
        assert!(f.arith_float >= 4, "{:?}", f);
        assert!(f.arith_int >= 2, "{:?}", f);
    }

    /// The paper reports ATAX2 and MVT2 produce *identical* feature
    /// vectors (the root cause of the MVT2 misprediction in Section 9.4).
    #[test]
    fn atax2_and_mvt2_features_are_identical_modulo_memops() {
        let a = features(workloads::polybench::ATAX2_SRC);
        let m = features(workloads::polybench::MVT2_SRC);
        assert_eq!(a.mem_stride, m.mem_stride, "{:?} vs {:?}", a, m);
        assert_eq!(a.mem_random, m.mem_random);
        // MVT2's `x2[i] = x2[i] + s` adds one continuous load over ATAX2's
        // pure store; the pattern composition is otherwise identical, which
        // is what confuses the model in the paper's Section 9.4.
        assert!(
            (a.mem_continuous as i32 - m.mem_continuous as i32).abs() <= 1,
            "{:?} vs {:?}",
            a,
            m
        );
        assert!(a.mem_stride >= 1, "column walk must be a stride: {:?}", a);
    }

    #[test]
    fn spmv_has_random_access() {
        let f = features(workloads::spmv::SPMV_SRC);
        assert!(f.mem_random >= 1, "{:?}", f);
        // values[k] and col_idx[k] walk continuously.
        assert!(f.mem_continuous >= 2, "{:?}", f);
    }

    #[test]
    fn id_indexed_store_is_continuous() {
        let f = features(
            "__kernel void s(__global float* a) { a[get_global_id(0)] = 1.0f; }",
        );
        assert_eq!(f.mem_continuous, 1);
        assert_eq!(f.mem_total(), 1);
    }

    #[test]
    fn scaled_id_is_stride() {
        let f = features(
            "__kernel void s(__global float* a, int n) { a[get_global_id(0) * n] = 1.0f; }",
        );
        assert_eq!(f.mem_stride, 1, "{:?}", f);
    }

    #[test]
    fn literal_stride_detected_via_variable() {
        let f = features(
            "__kernel void s(__global float* a, int n) {
                int i = get_global_id(0);
                int idx = i * 8;
                if (i < n) { a[idx] = 0.0f; }
            }",
        );
        assert_eq!(f.mem_stride, 1, "{:?}", f);
    }

    #[test]
    fn while_loop_counter_is_induction() {
        let f = features(
            "__kernel void s(__global float* a, int n, float x) {
                int i = 0;
                while (i < n) { x = x + a[i]; i++; }
                a[0] = x;
            }",
        );
        assert_eq!(f.mem_continuous, 1, "{:?}", f);
        assert_eq!(f.mem_constant, 1, "{:?}", f); // a[0]
    }

    #[test]
    fn int_vs_float_arith_counts() {
        let f = features(
            "__kernel void s(int a, int b, float x, float y) {
                a = a + b * 2;
                x = x * y + 1.0f;
                y = sqrt(x);
            }",
        );
        assert_eq!(f.arith_int, 2, "{:?}", f);
        assert!(f.arith_float >= 3, "{:?}", f); // mul, add, sqrt
        assert_eq!(f.mem_total(), 0);
    }

    #[test]
    fn compound_array_update_counts_load_and_store() {
        let f = features(
            "__kernel void s(__global float* a) {
                a[get_global_id(0)] += 1.0f;
            }",
        );
        assert_eq!(f.mem_continuous, 2, "{:?}", f);
    }

    #[test]
    fn synthetic_patterns_classify_as_named() {
        use workloads::synthetic::{parse_pattern, DType, SyntheticParams};
        let base = SyntheticParams {
            pattern: parse_pattern("2mat3d").unwrap(),
            gamma: 0,
            dim: 1,
            dtype: DType::F32,
            size: 16384,
            wg: 64,
        };
        // Plain: OUT + 2 inputs, all continuous.
        let f = features(&base.source());
        assert_eq!(f.mem_continuous, 3, "{:?}", f);
        // One transposed term adds a stride (and idxT uses idx vars).
        let t = SyntheticParams {
            pattern: parse_pattern("2mat3d1T").unwrap(),
            ..base.clone()
        };
        let f = features(&t.source());
        assert_eq!(f.mem_stride, 1, "{:?}", f);
        // Random term: IDX[] itself is continuous, M[IDX[..]] is random.
        let r = SyntheticParams {
            pattern: parse_pattern("2mat3d1R").unwrap(),
            ..base.clone()
        };
        let f = features(&r.source());
        assert_eq!(f.mem_random, 1, "{:?}", f);
        // Constant term.
        let c = SyntheticParams {
            pattern: parse_pattern("2mat3d1C").unwrap(),
            ..base
        };
        let f = features(&c.source());
        assert_eq!(f.mem_constant, 1, "{:?}", f);
    }
}
