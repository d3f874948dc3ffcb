//! Semantic analysis: scoped symbol tables, type checking, builtin
//! signature validation, and lvalue/flow checks.

use crate::ast::*;
use crate::builtins::{self, BuiltinKind};
use crate::error::{CompileError, Result};
use crate::span::Span;
use std::collections::HashMap;

/// A resolved variable: its type and whether it is a local-memory array
/// (`__local int wl[N]` declarations behave like pointers when indexed).
#[derive(Debug, Clone, Copy)]
struct VarInfo {
    ty: Type,
    is_array: bool,
}

struct Scope {
    vars: HashMap<String, VarInfo>,
}

struct Checker {
    scopes: Vec<Scope>,
    loop_depth: usize,
}

impl Checker {
    fn new() -> Self {
        Checker { scopes: vec![Scope { vars: HashMap::new() }], loop_depth: 0 }
    }

    fn push(&mut self) {
        self.scopes.push(Scope { vars: HashMap::new() });
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, info: VarInfo, span: Span) -> Result<()> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.vars.contains_key(name) {
            return Err(CompileError::sema(
                format!("redeclaration of `{}` in the same scope", name),
                span,
            ));
        }
        scope.vars.insert(name.to_string(), info);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<VarInfo> {
        self.scopes.iter().rev().find_map(|s| s.vars.get(name).copied())
    }

    fn check_kernel(&mut self, kernel: &Kernel) -> Result<()> {
        self.push();
        for param in &kernel.params {
            if param.ty == Type::Void {
                return Err(CompileError::sema(
                    format!("parameter `{}` has type void", param.name),
                    param.span,
                ));
            }
            self.declare(&param.name, VarInfo { ty: param.ty, is_array: false }, param.span)?;
        }
        for stmt in &kernel.body {
            self.check_stmt(stmt)?;
        }
        self.pop();
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Decl(decl) => self.check_decl(decl),
            Stmt::Expr(e) => {
                self.type_of(e)?;
                Ok(())
            }
            Stmt::If { cond, then, els, .. } => {
                self.check_condition(cond)?;
                self.push();
                self.check_stmt(then)?;
                self.pop();
                if let Some(els) = els {
                    self.push();
                    self.check_stmt(els)?;
                    self.pop();
                }
                Ok(())
            }
            Stmt::For { init, cond, step, body, .. } => {
                self.push();
                if let Some(init) = init {
                    self.check_stmt(init)?;
                }
                if let Some(cond) = cond {
                    self.check_condition(cond)?;
                }
                if let Some(step) = step {
                    self.type_of(step)?;
                }
                self.loop_depth += 1;
                self.check_stmt(body)?;
                self.loop_depth -= 1;
                self.pop();
                Ok(())
            }
            Stmt::While { cond, body, .. } | Stmt::DoWhile { body, cond, .. } => {
                self.check_condition(cond)?;
                self.push();
                self.loop_depth += 1;
                self.check_stmt(body)?;
                self.loop_depth -= 1;
                self.pop();
                Ok(())
            }
            Stmt::Block { stmts, .. } => {
                self.push();
                for s in stmts {
                    self.check_stmt(s)?;
                }
                self.pop();
                Ok(())
            }
            Stmt::Return { value, span } => {
                if let Some(v) = value {
                    return Err(CompileError::sema(
                        "kernels return void; `return` must not carry a value",
                        v.span().merge(*span),
                    ));
                }
                Ok(())
            }
            Stmt::Break { span } | Stmt::Continue { span } => {
                if self.loop_depth == 0 {
                    Err(CompileError::sema("`break`/`continue` outside of a loop", *span))
                } else {
                    Ok(())
                }
            }
        }
    }

    fn check_decl(&mut self, decl: &Decl) -> Result<()> {
        if decl.array_len.is_some() {
            let elem = decl.ty.as_scalar().ok_or_else(|| {
                CompileError::sema("array declarations must have scalar element type", decl.span)
            })?;
            if decl.space != Space::Local && decl.space != Space::Private {
                return Err(CompileError::sema(
                    "array declarations must be __local or private",
                    decl.span,
                ));
            }
            self.declare(
                &decl.name,
                VarInfo { ty: Type::Ptr { space: decl.space, elem }, is_array: true },
                decl.span,
            )?;
            return Ok(());
        }
        if let Some(init) = &decl.init {
            let init_ty = self.type_of(init)?;
            match (decl.ty, init_ty) {
                (Type::Scalar(_), Type::Scalar(_)) => {} // implicit conversion
                (Type::Ptr { elem: a, .. }, Type::Ptr { elem: b, .. }) if a == b => {}
                (want, got) => {
                    return Err(CompileError::sema(
                        format!("cannot initialize `{}` ({}) from {}", decl.name, want, got),
                        init.span(),
                    ));
                }
            }
        }
        self.declare(&decl.name, VarInfo { ty: decl.ty, is_array: false }, decl.span)
    }

    fn check_condition(&mut self, cond: &Expr) -> Result<()> {
        let ty = self.type_of(cond)?;
        match ty {
            Type::Scalar(_) => Ok(()),
            other => Err(CompileError::sema(
                format!("condition must be scalar, found {}", other),
                cond.span(),
            )),
        }
    }

    /// Type-check an expression and return its type.
    fn type_of(&mut self, expr: &Expr) -> Result<Type> {
        match expr {
            Expr::IntLit { .. } => Ok(Type::INT),
            Expr::FloatLit { .. } => Ok(Type::FLOAT),
            Expr::BoolLit { .. } => Ok(Type::BOOL),
            Expr::Ident { name, span } => self
                .lookup(name)
                .map(|v| v.ty)
                .ok_or_else(|| CompileError::sema(format!("unknown identifier `{}`", name), *span)),
            Expr::Unary { op, operand, span } => {
                let ty = self.type_of(operand)?;
                let scalar = ty.as_scalar().ok_or_else(|| {
                    CompileError::sema(format!("unary `{}` needs a scalar operand", op.symbol()), *span)
                })?;
                match op {
                    UnOp::Neg => Ok(Type::Scalar(scalar)),
                    UnOp::Not => Ok(Type::BOOL),
                    UnOp::BitNot => {
                        if scalar.is_float() {
                            Err(CompileError::sema("`~` requires an integer operand", *span))
                        } else {
                            Ok(Type::Scalar(scalar))
                        }
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let lt = self.type_of(lhs)?;
                let rt = self.type_of(rhs)?;
                let (ls, rs) = match (lt.as_scalar(), rt.as_scalar()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        return Err(CompileError::sema(
                            format!(
                                "binary `{}` needs scalar operands, found {} and {}",
                                op.symbol(),
                                lt,
                                rt
                            ),
                            *span,
                        ));
                    }
                };
                if op.integer_only() && (ls.is_float() || rs.is_float()) {
                    return Err(CompileError::sema(
                        format!("`{}` requires integer operands", op.symbol()),
                        *span,
                    ));
                }
                if op.is_comparison() {
                    Ok(Type::BOOL)
                } else {
                    Ok(Type::Scalar(ls.promote(rs)))
                }
            }
            Expr::Assign { op, target, value, span } => {
                let tt = self.type_of(target)?;
                let vt = self.type_of(value)?;
                if !target.is_lvalue() {
                    return Err(CompileError::sema("assignment target is not an lvalue", *span));
                }
                if let Expr::Ident { name, .. } = target.as_ref() {
                    if self.lookup(name).is_some_and(|v| v.is_array) {
                        return Err(CompileError::sema(
                            format!("cannot assign to array `{}`; index it instead", name),
                            *span,
                        ));
                    }
                }
                match (tt, vt) {
                    (Type::Scalar(ts), Type::Scalar(vs)) => {
                        if let Some(bin) = op.binop() {
                            if bin.integer_only() && (ts.is_float() || vs.is_float()) {
                                return Err(CompileError::sema(
                                    format!("`{}` requires integer operands", op.symbol()),
                                    *span,
                                ));
                            }
                        }
                        Ok(Type::Scalar(ts))
                    }
                    (Type::Ptr { elem: a, .. }, Type::Ptr { elem: b, .. })
                        if a == b && *op == AssignOp::Assign =>
                    {
                        Ok(tt)
                    }
                    (want, got) => Err(CompileError::sema(
                        format!("cannot assign {} to lvalue of type {}", got, want),
                        *span,
                    )),
                }
            }
            Expr::IncDec { target, span, .. } => {
                let ty = self.type_of(target)?;
                match ty.as_scalar() {
                    Some(s) if s.is_integer() => Ok(Type::Scalar(s)),
                    _ => Err(CompileError::sema(
                        "increment/decrement requires an integer lvalue",
                        *span,
                    )),
                }
            }
            Expr::Call { name, args, span } => self.check_call(name, args, *span),
            Expr::Index { base, index, span } => {
                let bt = self.type_of(base)?;
                let it = self.type_of(index)?;
                let elem = bt.pointee().ok_or_else(|| {
                    CompileError::sema(format!("cannot index non-pointer type {}", bt), *span)
                })?;
                match it.as_scalar() {
                    Some(s) if s.is_integer() => Ok(Type::Scalar(elem)),
                    _ => Err(CompileError::sema("array index must be an integer", index.span())),
                }
            }
            Expr::Cast { to, operand, span } => {
                let ty = self.type_of(operand)?;
                if ty.as_scalar().is_none() {
                    return Err(CompileError::sema(
                        format!("cannot cast {} to {}", ty, to),
                        *span,
                    ));
                }
                Ok(Type::Scalar(*to))
            }
            Expr::Ternary { cond, then, els, span } => {
                self.check_condition(cond)?;
                let tt = self.type_of(then)?;
                let et = self.type_of(els)?;
                match (tt.as_scalar(), et.as_scalar()) {
                    (Some(a), Some(b)) => Ok(Type::Scalar(a.promote(b))),
                    _ => Err(CompileError::sema(
                        "ternary arms must both be scalar",
                        *span,
                    )),
                }
            }
        }
    }

    fn check_call(&mut self, name: &str, args: &[Expr], span: Span) -> Result<Type> {
        let builtin = builtins::lookup(name).ok_or_else(|| {
            CompileError::sema(format!("unknown function `{}`", name), span)
        })?;
        if args.len() != builtin.arity() {
            return Err(CompileError::sema(
                format!(
                    "`{}` expects {} argument(s), found {}",
                    name,
                    builtin.arity(),
                    args.len()
                ),
                span,
            ));
        }
        match builtin.kind() {
            BuiltinKind::WorkItemQuery => {
                if let Some(arg) = args.first() {
                    let ty = self.type_of(arg)?;
                    if !matches!(ty.as_scalar(), Some(s) if s.is_integer()) {
                        return Err(CompileError::sema(
                            format!("`{}` dimension argument must be an integer", name),
                            arg.span(),
                        ));
                    }
                }
                Ok(builtin.result())
            }
            BuiltinKind::Barrier => {
                let ty = self.type_of(&args[0])?;
                if !matches!(ty.as_scalar(), Some(s) if s.is_integer()) {
                    return Err(CompileError::sema(
                        "`barrier` flag must be an integer",
                        args[0].span(),
                    ));
                }
                Ok(Type::Void)
            }
            BuiltinKind::Atomic => {
                let ptr_ty = self.type_of(&args[0])?;
                match ptr_ty {
                    Type::Ptr { elem, .. } if elem.is_integer() => {}
                    other => {
                        return Err(CompileError::sema(
                            format!("`{}` needs an integer pointer, found {}", name, other),
                            args[0].span(),
                        ));
                    }
                }
                for arg in &args[1..] {
                    let ty = self.type_of(arg)?;
                    if !matches!(ty.as_scalar(), Some(s) if s.is_integer()) {
                        return Err(CompileError::sema(
                            format!("`{}` operand must be an integer", name),
                            arg.span(),
                        ));
                    }
                }
                Ok(builtin.result())
            }
            BuiltinKind::Math | BuiltinKind::Common => {
                let mut scalars = Vec::with_capacity(args.len());
                for arg in args {
                    let ty = self.type_of(arg)?;
                    match ty.as_scalar() {
                        Some(s) => scalars.push(s),
                        None => {
                            return Err(CompileError::sema(
                                format!("`{}` arguments must be scalar", name),
                                arg.span(),
                            ));
                        }
                    }
                }
                Ok(Type::Scalar(builtin.result_for(&scalars)))
            }
        }
    }
}

/// Semantically check every kernel in `program`.
pub fn check(program: &Program) -> Result<()> {
    let mut names: Vec<&str> = program.kernels.iter().map(|k| k.name.as_str()).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        if pair[0] == pair[1] {
            let dup = program.kernels.iter().rev().find(|k| k.name == pair[0]).unwrap();
            return Err(CompileError::sema(
                format!("duplicate kernel name `{}`", pair[0]),
                dup.span,
            ));
        }
    }
    let mut checker = Checker::new();
    for kernel in &program.kernels {
        checker.check_kernel(kernel)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::compile;

    #[test]
    fn accepts_paper_style_kernel() {
        let src = r#"
            __kernel void two_mat3d(__global float* A, __global float* B,
                                    __global float* C, int NZ, int NY, int NX) {
                int z = get_global_id(0);
                if (z < NZ) {
                    for (int y = 0; y < NY; y++) {
                        for (int x = 0; x < NX; x++) {
                            int idx = z * (NY * NX) + y * NX + x;
                            C[idx] = A[idx] + B[idx];
                        }
                    }
                }
            }
        "#;
        compile(src).unwrap();
    }

    #[test]
    fn accepts_malleable_constructs() {
        let src = r#"
            __kernel void m(__global float* A, int dop_mod, int dop_alloc) {
                __local int wl[1];
                if (get_local_id(0) == 0) { wl[0] = 0; }
                barrier(CLK_LOCAL_MEM_FENCE);
                if (get_local_id(0) % dop_mod < dop_alloc) {
                    for (int w = atomic_inc(wl); w < get_local_size(0); w = atomic_inc(wl)) {
                        A[w] = 0.0f;
                    }
                }
            }
        "#;
        compile(src).unwrap();
    }

    #[test]
    fn rejects_unknown_identifier() {
        let err = compile("__kernel void f(int x) { x = y; }").unwrap_err();
        assert!(err.message.contains("unknown identifier"));
    }

    #[test]
    fn rejects_unknown_function() {
        let err = compile("__kernel void f(int x) { x = mystery(1); }").unwrap_err();
        assert!(err.message.contains("unknown function"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let err = compile("__kernel void f(int x) { x = get_global_id(0, 1); }").unwrap_err();
        assert!(err.message.contains("expects 1 argument"));
    }

    #[test]
    fn rejects_float_modulo() {
        let err = compile("__kernel void f(float x) { x = x % 2.0f; }").unwrap_err();
        assert!(err.message.contains("integer operands"));
    }

    #[test]
    fn rejects_indexing_scalar() {
        let err = compile("__kernel void f(int x) { x = x[0]; }").unwrap_err();
        assert!(err.message.contains("non-pointer"));
    }

    #[test]
    fn rejects_atomic_on_float_pointer() {
        let err =
            compile("__kernel void f(__global float* a, int x) { x = atomic_inc(a); }").unwrap_err();
        assert!(err.message.contains("integer pointer"));
    }

    #[test]
    fn rejects_redeclaration_in_same_scope() {
        let err = compile("__kernel void f() { int a = 0; int a = 1; }").unwrap_err();
        assert!(err.message.contains("redeclaration"));
    }

    #[test]
    fn allows_shadowing_in_inner_scope() {
        compile("__kernel void f() { int a = 0; { int a = 1; a = a + 1; } a = a + 1; }").unwrap();
    }

    #[test]
    fn rejects_break_outside_loop() {
        let err = compile("__kernel void f() { break; }").unwrap_err();
        assert!(err.message.contains("outside of a loop"));
    }

    #[test]
    fn rejects_value_return() {
        let err = compile("__kernel void f() { return 1; }").unwrap_err();
        assert!(err.message.contains("void"));
    }

    #[test]
    fn rejects_duplicate_kernel_names() {
        let err = compile("__kernel void f() {} __kernel void f() {}").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn loop_variable_scoped_to_loop() {
        let err = compile(
            "__kernel void f(int n) { for (int i = 0; i < n; i++) { } n = i; }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown identifier"));
    }

    #[test]
    fn rejects_assigning_whole_array() {
        let err =
            compile("__kernel void f() { __local int wl[2]; wl = 0; }").unwrap_err();
        assert!(err.message.contains("array"));
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        compile("__kernel void f(float x, int i) { x = x + i; }").unwrap();
        compile("__kernel void f2(__global float* a, int i) { a[i] = a[i] * 2; }").unwrap();
    }
}
