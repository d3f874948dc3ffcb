//! The AST's child structure, defined once.
//!
//! [`Expr::children`] and [`Stmt::children`] (and their `_mut` twins) yield
//! a node's direct children in source order: a `for` gives init, cond, step,
//! body; a `do`/`while` gives body, then cond; `base[index]` gives base,
//! then index. Structural walkers recurse through these iterators and keep
//! only their own pre- or post-order logic, so a new variant is handled
//! here instead of being skipped by a `_ => {}` arm in every pass. The
//! iterators do not allocate, and they are `#[inline]` because walkers in
//! other crates build one per visited node on the program-build path.

use crate::ast::{Expr, Stmt};

/// A direct child of a [`Stmt`]: a nested statement or an expression.
#[derive(Debug, Clone, Copy)]
pub enum Child<'a> {
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

/// A mutable direct child of a [`Stmt`].
#[derive(Debug)]
pub enum ChildMut<'a> {
    Stmt(&'a mut Stmt),
    Expr(&'a mut Expr),
}

impl Expr {
    /// Direct sub-expressions, in source order.
    #[inline]
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        let (fixed, rest): ([Option<&Expr>; 3], &[Expr]) = match self {
            Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::BoolLit { .. }
            | Expr::Ident { .. } => ([None, None, None], &[]),
            Expr::Unary { operand: a, .. }
            | Expr::Cast { operand: a, .. }
            | Expr::IncDec { target: a, .. } => ([Some(a), None, None], &[]),
            Expr::Binary { lhs: a, rhs: b, .. }
            | Expr::Assign {
                target: a,
                value: b,
                ..
            }
            | Expr::Index {
                base: a, index: b, ..
            } => ([Some(a), Some(b), None], &[]),
            Expr::Ternary {
                cond, then, els, ..
            } => ([Some(cond), Some(then), Some(els)], &[]),
            Expr::Call { args, .. } => ([None, None, None], args),
        };
        fixed.into_iter().flatten().chain(rest)
    }

    /// Direct sub-expressions, mutably, in source order.
    #[inline]
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (fixed, rest): ([Option<&mut Expr>; 3], &mut [Expr]) = match self {
            Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::BoolLit { .. }
            | Expr::Ident { .. } => ([None, None, None], &mut []),
            Expr::Unary { operand: a, .. }
            | Expr::Cast { operand: a, .. }
            | Expr::IncDec { target: a, .. } => ([Some(a), None, None], &mut []),
            Expr::Binary { lhs: a, rhs: b, .. }
            | Expr::Assign {
                target: a,
                value: b,
                ..
            }
            | Expr::Index {
                base: a, index: b, ..
            } => ([Some(a), Some(b), None], &mut []),
            Expr::Ternary {
                cond, then, els, ..
            } => ([Some(cond), Some(then), Some(els)], &mut []),
            Expr::Call { args, .. } => ([None, None, None], args),
        };
        fixed.into_iter().flatten().chain(rest)
    }
}

impl Stmt {
    /// Direct child statements and expressions, in source order. A
    /// declaration's child is its initializer.
    #[inline]
    pub fn children(&self) -> impl Iterator<Item = Child<'_>> {
        use Child as C;
        let (fixed, rest): ([Option<Child<'_>>; 4], &[Stmt]) = match self {
            Stmt::Decl(d) => ([d.init.as_ref().map(C::Expr), None, None, None], &[]),
            Stmt::Expr(e) => ([Some(C::Expr(e)), None, None, None], &[]),
            Stmt::If {
                cond, then, els, ..
            } => (
                [
                    Some(C::Expr(cond)),
                    Some(C::Stmt(then)),
                    els.as_deref().map(C::Stmt),
                    None,
                ],
                &[],
            ),
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => (
                [
                    init.as_deref().map(C::Stmt),
                    cond.as_ref().map(C::Expr),
                    step.as_ref().map(C::Expr),
                    Some(C::Stmt(body)),
                ],
                &[],
            ),
            Stmt::While { cond, body, .. } => {
                ([Some(C::Expr(cond)), Some(C::Stmt(body)), None, None], &[])
            }
            Stmt::DoWhile { body, cond, .. } => {
                ([Some(C::Stmt(body)), Some(C::Expr(cond)), None, None], &[])
            }
            Stmt::Block { stmts, .. } => ([None, None, None, None], stmts),
            Stmt::Return { value, .. } => ([value.as_ref().map(C::Expr), None, None, None], &[]),
            Stmt::Break { .. } | Stmt::Continue { .. } => ([None, None, None, None], &[]),
        };
        fixed.into_iter().flatten().chain(rest.iter().map(C::Stmt))
    }

    /// Direct child statements and expressions, mutably, in source order.
    #[inline]
    pub fn children_mut(&mut self) -> impl Iterator<Item = ChildMut<'_>> {
        use ChildMut as C;
        let (fixed, rest): ([Option<ChildMut<'_>>; 4], &mut [Stmt]) = match self {
            Stmt::Decl(d) => ([d.init.as_mut().map(C::Expr), None, None, None], &mut []),
            Stmt::Expr(e) => ([Some(C::Expr(e)), None, None, None], &mut []),
            Stmt::If {
                cond, then, els, ..
            } => (
                [
                    Some(C::Expr(cond)),
                    Some(C::Stmt(then)),
                    els.as_deref_mut().map(C::Stmt),
                    None,
                ],
                &mut [],
            ),
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => (
                [
                    init.as_deref_mut().map(C::Stmt),
                    cond.as_mut().map(C::Expr),
                    step.as_mut().map(C::Expr),
                    Some(C::Stmt(body)),
                ],
                &mut [],
            ),
            Stmt::While { cond, body, .. } => (
                [Some(C::Expr(cond)), Some(C::Stmt(body)), None, None],
                &mut [],
            ),
            Stmt::DoWhile { body, cond, .. } => (
                [Some(C::Stmt(body)), Some(C::Expr(cond)), None, None],
                &mut [],
            ),
            Stmt::Block { stmts, .. } => ([None, None, None, None], stmts),
            Stmt::Return { value, .. } => {
                ([value.as_mut().map(C::Expr), None, None, None], &mut [])
            }
            Stmt::Break { .. } | Stmt::Continue { .. } => ([None, None, None, None], &mut []),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(rest.iter_mut().map(C::Stmt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(src: &str) -> Vec<Stmt> {
        crate::parse_only(src).unwrap().kernels.remove(0).body
    }

    /// Every expression reachable from `stmts`, pre-order, printed.
    fn exprs_pre_order(stmts: &[Stmt]) -> Vec<String> {
        fn from_expr(e: &Expr, out: &mut Vec<String>) {
            out.push(crate::printer::print_expression(e));
            e.children().for_each(|c| from_expr(c, out));
        }
        fn from_stmt(s: &Stmt, out: &mut Vec<String>) {
            for c in s.children() {
                match c {
                    Child::Stmt(s) => from_stmt(s, out),
                    Child::Expr(e) => from_expr(e, out),
                }
            }
        }
        let mut out = Vec::new();
        stmts.iter().for_each(|s| from_stmt(s, &mut out));
        out
    }

    #[test]
    fn children_come_in_source_order() {
        let stmts = body(
            "__kernel void f(__global int* a) {
                for (a[0] = 1; a[1]; a[2]++) a[3];
                do a[4]; while (a[5]);
                if (a[6]) a[7]; else a[8];
                a[a[9]] = f(a[10], a[11] ? a[12] : -a[13]);
            }",
        );
        let all = exprs_pre_order(&stmts);
        let indices: Vec<&str> = all
            .iter()
            .map(String::as_str)
            .filter(|e| e.starts_with("a[") && !e.contains(' ') && e.ends_with(']'))
            .collect();
        let mut want: Vec<String> = (0..14).map(|i| format!("a[{}]", i)).collect();
        want.insert(9, "a[a[9]]".to_string());
        assert_eq!(indices, want);
    }

    #[test]
    fn mutable_children_match_shared_children() {
        let mut stmts = body(
            "__kernel void f(__global int* a, int n) {
                int x = n;
                for (int i = 0; i < n; i++) { while (x) { x = a[i] + (int)x; } }
                do { x--; } while (x > 0);
                return;
            }",
        );
        let before = exprs_pre_order(&stmts);
        fn bump(s: &mut Stmt) {
            for c in s.children_mut() {
                match c {
                    ChildMut::Stmt(s) => bump(s),
                    ChildMut::Expr(e) => bump_expr(e),
                }
            }
        }
        fn bump_expr(e: &mut Expr) {
            if let Expr::IntLit { value, .. } = e {
                *value += 100;
            }
            e.children_mut().for_each(bump_expr);
        }
        stmts.iter_mut().for_each(bump);
        let after = exprs_pre_order(&stmts);
        assert_eq!(before.len(), after.len());
        assert!(after.contains(&"100".to_string()), "{:?}", after);
        assert!(after.contains(&"x > 100".to_string()), "{:?}", after);
    }
}
