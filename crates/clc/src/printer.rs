//! AST → OpenCL-C source.
//!
//! Used to materialize Dopia's malleable rewrites as real kernel text (the
//! form a production OpenCL runtime would hand to the vendor compiler) and
//! for round-trip testing: `print(parse(src))` re-parses to the same AST.

use crate::ast::*;
use std::fmt::Write;

/// Pretty-print a whole program.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, kernel) in program.kernels.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_kernel_into(kernel, &mut out);
    }
    out
}

/// Pretty-print a single kernel.
pub fn print_kernel(kernel: &Kernel) -> String {
    let mut out = String::new();
    print_kernel_into(kernel, &mut out);
    out
}

fn print_kernel_into(kernel: &Kernel, out: &mut String) {
    write!(out, "__kernel void {}(", kernel.name).unwrap();
    for (i, p) in kernel.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match p.ty {
            Type::Ptr { space, elem } => {
                write!(out, "{} {}* {}", space, elem, p.name).unwrap();
            }
            other => write!(out, "{} {}", other, p.name).unwrap(),
        }
    }
    out.push_str(") {\n");
    for stmt in &kernel.body {
        print_stmt(stmt, 1, out);
    }
    out.push_str("}\n");
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_stmt(stmt: &Stmt, level: usize, out: &mut String) {
    match stmt {
        Stmt::Decl(d) => {
            indent(level, out);
            print_decl(d, out);
            out.push_str(";\n");
        }
        Stmt::Expr(e) => {
            indent(level, out);
            print_expr(e, out);
            out.push_str(";\n");
        }
        Stmt::If { cond, then, els, .. } => {
            indent(level, out);
            out.push_str("if (");
            print_expr(cond, out);
            out.push(')');
            print_substmt(then, level, out);
            if let Some(els) = els {
                indent(level, out);
                out.push_str("else");
                print_substmt(els, level, out);
            }
        }
        Stmt::For { init, cond, step, body, .. } => {
            indent(level, out);
            out.push_str("for (");
            match init.as_deref() {
                Some(Stmt::Decl(d)) => print_decl(d, out),
                Some(Stmt::Expr(e)) => print_expr(e, out),
                Some(other) => unreachable!("invalid for-init {:?}", other),
                None => {}
            }
            out.push_str("; ");
            if let Some(c) = cond {
                print_expr(c, out);
            }
            out.push_str("; ");
            if let Some(s) = step {
                print_expr(s, out);
            }
            out.push(')');
            print_substmt(body, level, out);
        }
        Stmt::While { cond, body, .. } => {
            indent(level, out);
            out.push_str("while (");
            print_expr(cond, out);
            out.push(')');
            print_substmt(body, level, out);
        }
        Stmt::DoWhile { body, cond, .. } => {
            indent(level, out);
            out.push_str("do");
            print_substmt(body, level, out);
            indent(level, out);
            out.push_str("while (");
            print_expr(cond, out);
            out.push_str(");\n");
        }
        Stmt::Block { stmts, .. } => {
            indent(level, out);
            out.push_str("{\n");
            for s in stmts {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Return { value, .. } => {
            indent(level, out);
            out.push_str("return");
            if let Some(v) = value {
                out.push(' ');
                print_expr(v, out);
            }
            out.push_str(";\n");
        }
        Stmt::Break { .. } => {
            indent(level, out);
            out.push_str("break;\n");
        }
        Stmt::Continue { .. } => {
            indent(level, out);
            out.push_str("continue;\n");
        }
    }
}

/// Print a statement that follows `if (...)`/`for (...)`: blocks inline on
/// the same line, single statements on the next line.
fn print_substmt(stmt: &Stmt, level: usize, out: &mut String) {
    match stmt {
        Stmt::Block { stmts, .. } => {
            out.push_str(" {\n");
            for s in stmts {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        other => {
            out.push('\n');
            print_stmt(other, level + 1, out);
        }
    }
}

fn print_decl(d: &Decl, out: &mut String) {
    match d.ty {
        Type::Ptr { space, elem } if d.array_len.is_none() => {
            write!(out, "{} {}* {}", space, elem, d.name).unwrap();
        }
        _ => {
            if d.space == Space::Local {
                out.push_str("__local ");
            }
            match d.ty {
                Type::Scalar(s) => write!(out, "{} {}", s, d.name).unwrap(),
                other => write!(out, "{} {}", other, d.name).unwrap(),
            }
        }
    }
    if let Some(n) = d.array_len {
        write!(out, "[{}]", n).unwrap();
    }
    if let Some(init) = &d.init {
        out.push_str(" = ");
        print_expr(init, out);
    }
}

/// Operator precedence used to decide where parentheses are required.
fn binop_prec(op: BinOp) -> u8 {
    use BinOp::*;
    match op {
        Or => 1,
        And => 2,
        BitOr => 3,
        BitXor => 4,
        BitAnd => 5,
        Eq | Ne => 6,
        Lt | Gt | Le | Ge => 7,
        Shl | Shr => 8,
        Add | Sub => 9,
        Mul | Div | Rem => 10,
    }
}

fn expr_prec(e: &Expr) -> u8 {
    match e {
        Expr::Assign { .. } => 0,
        Expr::Ternary { .. } => 0,
        Expr::Binary { op, .. } => binop_prec(*op),
        Expr::Unary { .. } | Expr::Cast { .. } => 11,
        Expr::IncDec { .. } => 12,
        _ => 13, // literals, idents, calls, index
    }
}

fn print_child(child: &Expr, parent_prec: u8, out: &mut String) {
    if expr_prec(child) < parent_prec {
        out.push('(');
        print_expr(child, out);
        out.push(')');
    } else {
        print_expr(child, out);
    }
}

fn print_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::IntLit { value, .. } => write!(out, "{}", value).unwrap(),
        Expr::FloatLit { value, .. } => {
            if value.fract() == 0.0 && value.abs() < 1e16 {
                write!(out, "{:.1}f", value).unwrap();
            } else {
                write!(out, "{}f", value).unwrap();
            }
        }
        Expr::BoolLit { value, .. } => write!(out, "{}", value).unwrap(),
        Expr::Ident { name, .. } => out.push_str(name),
        Expr::Unary { op, operand, .. } => {
            out.push_str(op.symbol());
            print_child(operand, 11, out);
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let prec = binop_prec(*op);
            print_child(lhs, prec, out);
            write!(out, " {} ", op.symbol()).unwrap();
            // Right child needs parens at equal precedence (left-assoc).
            print_child(rhs, prec + 1, out);
        }
        Expr::Assign { op, target, value, .. } => {
            print_expr(target, out);
            write!(out, " {} ", op.symbol()).unwrap();
            print_expr(value, out);
        }
        Expr::IncDec { inc, pre, target, .. } => {
            let sym = if *inc { "++" } else { "--" };
            if *pre {
                out.push_str(sym);
                print_expr(target, out);
            } else {
                print_expr(target, out);
                out.push_str(sym);
            }
        }
        Expr::Call { name, args, .. } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                print_expr(a, out);
            }
            out.push(')');
        }
        Expr::Index { base, index, .. } => {
            print_child(base, 13, out);
            out.push('[');
            print_expr(index, out);
            out.push(']');
        }
        Expr::Cast { to, operand, .. } => {
            write!(out, "({})", to).unwrap();
            print_child(operand, 11, out);
        }
        Expr::Ternary { cond, then, els, .. } => {
            print_child(cond, 1, out);
            out.push_str(" ? ");
            print_expr(then, out);
            out.push_str(" : ");
            print_expr(els, out);
        }
    }
}

/// Print a single expression (error messages quote source this way).
pub fn print_expression(e: &Expr) -> String {
    let mut s = String::new();
    print_expr(e, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, parse_only};

    /// Round-trip: parse → print → parse must yield an identical AST
    /// (modulo spans, which `PartialEq` on the AST includes — so compare the
    /// printed forms instead, which are span-free).
    fn round_trip(src: &str) {
        let p1 = compile(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse_only(&printed)
            .unwrap_or_else(|e| panic!("reprinted source failed to parse: {}\n{}", e, printed));
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "printer not a fixed point");
    }

    #[test]
    fn round_trip_simple() {
        round_trip("__kernel void f(__global float* a, int n) { int i = get_global_id(0); if (i < n) { a[i] = a[i] * 2.0f; } }");
    }

    #[test]
    fn round_trip_loops_and_atomics() {
        round_trip(
            r#"__kernel void m(__global float* A, int dop_mod, int dop_alloc) {
                __local int wl[1];
                if (get_local_id(0) == 0) { wl[0] = 0; }
                barrier(CLK_LOCAL_MEM_FENCE);
                if (get_local_id(0) % dop_mod < dop_alloc) {
                    for (int w = atomic_inc(wl); w < get_local_size(0); w = atomic_inc(wl)) {
                        A[w] = 0.0f;
                    }
                }
            }"#,
        );
    }

    #[test]
    fn parens_preserved_for_precedence() {
        let p = compile("__kernel void f(int a, int b, int c) { a = (a + b) * c; }").unwrap();
        let s = print_program(&p);
        assert!(s.contains("(a + b) * c"), "got: {}", s);
    }

    #[test]
    fn no_spurious_parens() {
        let p = compile("__kernel void f(int a, int b, int c) { a = a + b * c; }").unwrap();
        let s = print_program(&p);
        assert!(s.contains("a + b * c"), "got: {}", s);
    }

    #[test]
    fn right_assoc_sub_parenthesized() {
        // a - (b - c) must keep its parens.
        let p = compile("__kernel void f(int a, int b, int c) { a = a - (b - c); }").unwrap();
        let s = print_program(&p);
        assert!(s.contains("a - (b - c)"), "got: {}", s);
        round_trip("__kernel void f(int a, int b, int c) { a = a - (b - c); }");
    }

    #[test]
    fn float_literal_formatting() {
        let p = compile("__kernel void f(float x) { x = 2.0f; x = 0.5f; }").unwrap();
        let s = print_program(&p);
        assert!(s.contains("2.0f"));
        assert!(s.contains("0.5f"));
    }

    #[test]
    fn ternary_round_trip() {
        round_trip("__kernel void f(int a, int b) { a = a > b ? a : b; }");
    }

    #[test]
    fn do_while_round_trip() {
        round_trip("__kernel void f(int x) { do { x = x - 1; } while (x > 0); }");
    }
}
