//! The malleable-GPU-kernel transform (paper Figs. 5 and 6).
//!
//! The rewritten kernel launches with the same NDRange as the original, but
//! only lanes whose local index satisfies
//! `get_local_id(0) % dop_gpu_mod < dop_gpu_alloc` execute work-items; a
//! CU-local atomic worklist lets the active lanes drain the whole
//! work-group. Work-item indices inside the body are reconstructed from the
//! group id and the dynamically-claimed work id, exactly as in the paper's
//! figures. Only local atomics are required (OpenCL 1.2), keeping the
//! transform valid on integrated parts without CPU/GPU-coherent global
//! atomics.

use clc::printer::print_expression;
use clc::visit::{Child, ChildMut};
use clc::{BinOp, Expr, Kernel, Param, Space, Stmt, Type};

/// The two parameters the transform appends, in order.
pub const MALLEABLE_PARAMS: [&str; 2] = ["dop_gpu_mod", "dop_gpu_alloc"];

/// Errors the transform can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformError(pub String);

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malleable transform: {}", self.0)
    }
}

impl std::error::Error for TransformError {}

/// Transform `kernel` into its malleable variant for a `work_dim`-
/// dimensional launch (1 or 2, as in the paper).
pub fn transform_malleable(kernel: &Kernel, work_dim: usize) -> Result<Kernel, TransformError> {
    if !(1..=2).contains(&work_dim) {
        return Err(TransformError(format!(
            "work_dim {} unsupported (paper transform covers 1-D and 2-D)",
            work_dim
        )));
    }
    // Fresh names that cannot collide with user identifiers.
    let used = collect_identifiers(kernel);
    let fresh = |base: &str| fresh_name(&used, base);
    let worklist = fresh("local_worklist");
    let work = fresh(WORK_VAR);
    let dop_mod = fresh(MALLEABLE_PARAMS[0]);
    let dop_alloc = fresh(MALLEABLE_PARAMS[1]);

    // Substitute work-item queries in a clone of the body.
    let mut body: Vec<Stmt> = kernel.body.clone();
    for stmt in &mut body {
        substitute_stmt(stmt, work_dim, &work)?;
    }

    // `get_local_size(0) [* get_local_size(1)]`.
    let local_total = {
        let ls0 = Expr::call("get_local_size", vec![Expr::int(0)]);
        if work_dim == 2 {
            Expr::bin(BinOp::Mul, ls0, Expr::call("get_local_size", vec![Expr::int(1)]))
        } else {
            ls0
        }
    };

    // for (int work = atomic_inc(wl); work < total; work = atomic_inc(wl))
    let atomic_pop = Expr::call("atomic_inc", vec![Expr::ident(&worklist)]);
    let work_loop = Stmt::For {
        init: Some(Box::new(Stmt::Decl(clc::ast::Decl {
            name: work.clone(),
            ty: Type::INT,
            space: Space::Private,
            array_len: None,
            init: Some(atomic_pop.clone()),
            span: clc::Span::synthetic(),
        }))),
        cond: Some(Expr::bin(BinOp::Lt, Expr::ident(&work), local_total)),
        step: Some(Expr::assign(Expr::ident(&work), atomic_pop)),
        body: Box::new(Stmt::block(body)),
        span: clc::Span::synthetic(),
    };

    // if (get_local_id(0) % dop_mod < dop_alloc) { <loop> }
    let throttle = Stmt::If {
        cond: Expr::bin(
            BinOp::Lt,
            Expr::bin(
                BinOp::Rem,
                Expr::call("get_local_id", vec![Expr::int(0)]),
                Expr::ident(&dop_mod),
            ),
            Expr::ident(&dop_alloc),
        ),
        then: Box::new(Stmt::block(vec![work_loop])),
        els: None,
        span: clc::Span::synthetic(),
    };

    let new_body = vec![
        // __local int local_worklist[1];
        Stmt::Decl(clc::ast::Decl {
            name: worklist.clone(),
            ty: Type::INT,
            space: Space::Local,
            array_len: Some(1),
            init: None,
            span: clc::Span::synthetic(),
        }),
        // if (get_local_id(0) == 0) local_worklist[0] = 0;
        Stmt::If {
            cond: Expr::bin(
                BinOp::Eq,
                Expr::call("get_local_id", vec![Expr::int(0)]),
                Expr::int(0),
            ),
            then: Box::new(Stmt::Expr(Expr::assign(
                Expr::index(Expr::ident(&worklist), Expr::int(0)),
                Expr::int(0),
            ))),
            els: None,
            span: clc::Span::synthetic(),
        },
        // barrier(CLK_LOCAL_MEM_FENCE);
        Stmt::Expr(Expr::call("barrier", vec![Expr::int(1)])),
        throttle,
    ];

    let mut params = kernel.params.clone();
    params.push(Param {
        name: dop_mod,
        ty: Type::INT,
        span: clc::Span::synthetic(),
    });
    params.push(Param {
        name: dop_alloc,
        ty: Type::INT,
        span: clc::Span::synthetic(),
    });

    Ok(Kernel {
        name: kernel.name.clone(),
        params,
        body: new_body,
        span: kernel.span,
    })
}

/// Check, without building the rewrite, that [`transform_malleable`]
/// accepts `kernel` for both 1-D and 2-D launches. Returns the error the
/// 1-D transform would raise: the same post-order walk stops at the same
/// first work-item query with a non-literal dimension.
pub fn check_malleable(kernel: &Kernel) -> Result<(), TransformError> {
    kernel.body.iter().try_for_each(|stmt| check_stmt(stmt, kernel))
}

/// Base name of the claimed work-id variable.
const WORK_VAR: &str = "dynamic_work";

/// `base`, or the first `base_<i>` not in `used`.
fn fresh_name(used: &[String], base: &str) -> String {
    if !used.iter().any(|u| u == base) {
        return base.to_string();
    }
    (0..)
        .map(|i| format!("{}_{}", base, i))
        .find(|candidate| !used.contains(candidate))
        .expect("some suffix is unused")
}

/// Map a DoP "eighth" level `k` (0..=8) to the paper's
/// `(dop_gpu_mod, dop_gpu_alloc)` pair. `k = 8` activates every PE.
pub fn dop_pair_for_eighths(k: usize) -> (i64, i64) {
    assert!((1..=8).contains(&k), "gpu eighths must be 1..=8, got {}", k);
    (8, k as i64)
}

/// The reconstructed index expression for `get_global_id(dim)` inside the
/// malleable loop (paper Fig. 5 line 16 / Fig. 6 lines 16–17).
fn global_id_replacement(dim: usize, work_dim: usize, work_var: &str) -> Expr {
    let base = Expr::bin(
        BinOp::Add,
        Expr::bin(
            BinOp::Mul,
            Expr::call("get_group_id", vec![Expr::int(dim as i64)]),
            Expr::call("get_local_size", vec![Expr::int(dim as i64)]),
        ),
        Expr::call("get_global_offset", vec![Expr::int(dim as i64)]),
    );
    Expr::bin(BinOp::Add, base, local_part(dim, work_dim, work_var))
}

/// The logical local index along `dim` derived from the claimed work id.
fn local_part(dim: usize, work_dim: usize, work_var: &str) -> Expr {
    let w = Expr::ident(work_var);
    if work_dim == 1 {
        w
    } else if dim == 0 {
        Expr::bin(BinOp::Div, w, Expr::call("get_local_size", vec![Expr::int(1)]))
    } else {
        Expr::bin(BinOp::Rem, w, Expr::call("get_local_size", vec![Expr::int(1)]))
    }
}

fn substitute_stmt(stmt: &mut Stmt, work_dim: usize, work_var: &str) -> Result<(), TransformError> {
    stmt.children_mut().try_for_each(|child| match child {
        ChildMut::Stmt(s) => substitute_stmt(s, work_dim, work_var),
        ChildMut::Expr(e) => substitute_expr(e, work_dim, work_var),
    })
}

fn substitute_expr(expr: &mut Expr, work_dim: usize, work_var: &str) -> Result<(), TransformError> {
    // Recurse first, then possibly replace this node.
    expr.children_mut().try_for_each(|c| substitute_expr(c, work_dim, work_var))?;
    if let Expr::Call { name, args, span } = expr {
        if is_work_item_query(name) {
            let dim = match args.first() {
                Some(Expr::IntLit { value, .. }) => *value as usize,
                other => return Err(non_literal_dimension(name, other, span)),
            };
            if dim < work_dim {
                let replacement = if name == "get_global_id" {
                    global_id_replacement(dim, work_dim, work_var)
                } else {
                    local_part(dim, work_dim, work_var)
                };
                *expr = replacement;
            }
            // Dimensions >= work_dim keep their original meaning (they
            // evaluate to the fixed offset/zero as before).
        }
    }
    Ok(())
}

fn is_work_item_query(name: &str) -> bool {
    name == "get_global_id" || name == "get_local_id"
}

fn non_literal_dimension(name: &str, arg: Option<&Expr>, span: &clc::Span) -> TransformError {
    let arg = arg.map(print_expression).unwrap_or_default();
    TransformError(format!("{} with non-literal dimension {} at {}", name, arg, span))
}

/// [`substitute_stmt`]'s walk, read-only.
fn check_stmt(stmt: &Stmt, kernel: &Kernel) -> Result<(), TransformError> {
    stmt.children().try_for_each(|child| match child {
        Child::Stmt(s) => check_stmt(s, kernel),
        Child::Expr(e) => check_expr(e, kernel),
    })
}

/// [`substitute_expr`]'s walk, read-only.
fn check_expr(expr: &Expr, kernel: &Kernel) -> Result<(), TransformError> {
    expr.children().try_for_each(|c| check_expr(c, kernel))?;
    if let Expr::Call { name, args, span } = expr {
        if is_work_item_query(name) && !matches!(args.first(), Some(Expr::IntLit { .. })) {
            // Rare error path: report the argument as the 1-D transform
            // sees it, with its nested (literal-dimension) queries already
            // rewritten.
            let mut arg = args.first().cloned();
            if let Some(arg) = &mut arg {
                let work = fresh_name(&collect_identifiers(kernel), WORK_VAR);
                substitute_expr(arg, 1, &work)?;
            }
            return Err(non_literal_dimension(name, arg.as_ref(), span));
        }
    }
    Ok(())
}

/// All identifiers appearing anywhere in the kernel (params, decls, uses).
fn collect_identifiers(kernel: &Kernel) -> Vec<String> {
    fn from_expr(e: &Expr, out: &mut Vec<String>) {
        if let Expr::Ident { name, .. } = e {
            out.push(name.clone());
        }
        e.children().for_each(|c| from_expr(c, out));
    }
    fn from_stmt(s: &Stmt, out: &mut Vec<String>) {
        if let Stmt::Decl(d) = s {
            out.push(d.name.clone());
        }
        for child in s.children() {
            match child {
                Child::Stmt(s) => from_stmt(s, out),
                Child::Expr(e) => from_expr(e, out),
            }
        }
    }
    let mut out: Vec<String> = kernel.params.iter().map(|p| p.name.clone()).collect();
    for s in &kernel.body {
        from_stmt(s, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::printer::print_kernel;
    use sim::interp::run_functional;
    use sim::{ArgValue, Memory, NdRange};

    fn compile1(src: &str) -> Kernel {
        clc::compile(src).unwrap().kernels.remove(0)
    }

    /// Compile the transformed kernel's printed source to prove the
    /// transform emits valid OpenCL.
    fn check_recompiles(k: &Kernel) -> String {
        let src = print_kernel(k);
        clc::compile(&src).unwrap_or_else(|e| panic!("{}\n{}", e, src));
        src
    }

    const SCALE_SRC: &str = "__kernel void scale(__global float* a, float f, int n) {
        int i = get_global_id(0);
        if (i < n) { a[i] = a[i] * f; }
    }";

    #[test]
    fn transform_matches_figure5_structure() {
        let k = compile1(SCALE_SRC);
        let m = transform_malleable(&k, 1).unwrap();
        let src = check_recompiles(&m);
        assert!(src.contains("__local int local_worklist[1]"), "{}", src);
        assert!(src.contains("barrier(1)"), "{}", src);
        assert!(
            src.contains("get_local_id(0) % dop_gpu_mod < dop_gpu_alloc"),
            "{}",
            src
        );
        assert!(src.contains("atomic_inc(local_worklist)"), "{}", src);
        assert!(
            src.contains("get_group_id(0) * get_local_size(0) + get_global_offset(0) + dynamic_work"),
            "{}",
            src
        );
        // Two parameters appended.
        assert_eq!(m.params.len(), k.params.len() + 2);
        assert_eq!(m.params[m.params.len() - 2].name, "dop_gpu_mod");
    }

    #[test]
    fn transform_2d_divides_and_mods_like_figure6() {
        let k = compile1(
            "__kernel void two(__global float* a, int w, int h) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                if (x < w && y < h) { a[y * w + x] = 1.0f; }
            }",
        );
        let m = transform_malleable(&k, 2).unwrap();
        let src = check_recompiles(&m);
        assert!(src.contains("dynamic_work / get_local_size(1)"), "{}", src);
        assert!(src.contains("dynamic_work % get_local_size(1)"), "{}", src);
        assert!(
            src.contains("get_local_size(0) * get_local_size(1)"),
            "loop bound must cover the whole group: {}",
            src
        );
    }

    /// Functional equivalence: the malleable kernel computes the same
    /// result as the original for every throttle level.
    #[test]
    fn malleable_is_semantics_preserving_1d() {
        let original = compile1(SCALE_SRC);
        let malleable = transform_malleable(&original, 1).unwrap();
        let nd = NdRange::d1(256, 64);
        let expected = {
            let mut mem = Memory::new();
            let a = mem.alloc_f32((0..256).map(|i| i as f32).collect());
            run_functional(
                &original,
                &[ArgValue::Buffer(a), ArgValue::Float(3.0), ArgValue::Int(256)],
                &nd,
                &mut mem,
            )
            .unwrap();
            mem.read_f32(a).to_vec()
        };
        for (dop_mod, dop_alloc) in [(8, 1), (8, 3), (8, 8), (4, 2), (64, 1)] {
            let mut mem = Memory::new();
            let a = mem.alloc_f32((0..256).map(|i| i as f32).collect());
            run_functional(
                &malleable,
                &[
                    ArgValue::Buffer(a),
                    ArgValue::Float(3.0),
                    ArgValue::Int(256),
                    ArgValue::Int(dop_mod),
                    ArgValue::Int(dop_alloc),
                ],
                &nd,
                &mut mem,
            )
            .unwrap();
            assert_eq!(
                mem.read_f32(a),
                &expected[..],
                "mismatch at mod={} alloc={}",
                dop_mod,
                dop_alloc
            );
        }
    }

    #[test]
    fn malleable_is_semantics_preserving_2d() {
        let original = compile1(
            "__kernel void two(__global float* a, int w, int h) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                if (x < w && y < h) { a[y * w + x] = (float)(y * 1000 + x); }
            }",
        );
        let malleable = transform_malleable(&original, 2).unwrap();
        let nd = NdRange::d2([32, 16], [8, 4]);
        let expected = {
            let mut mem = Memory::new();
            let a = mem.alloc_f32(vec![0.0; 32 * 16]);
            run_functional(
                &original,
                &[ArgValue::Buffer(a), ArgValue::Int(32), ArgValue::Int(16)],
                &nd,
                &mut mem,
            )
            .unwrap();
            mem.read_f32(a).to_vec()
        };
        for (dop_mod, dop_alloc) in [(8, 1), (8, 5), (8, 8)] {
            let mut mem = Memory::new();
            let a = mem.alloc_f32(vec![0.0; 32 * 16]);
            run_functional(
                &malleable,
                &[
                    ArgValue::Buffer(a),
                    ArgValue::Int(32),
                    ArgValue::Int(16),
                    ArgValue::Int(dop_mod),
                    ArgValue::Int(dop_alloc),
                ],
                &nd,
                &mut mem,
            )
            .unwrap();
            assert_eq!(mem.read_f32(a), &expected[..], "mod={} alloc={}", dop_mod, dop_alloc);
        }
    }

    #[test]
    fn malleable_preserves_loops_and_worked_kernels() {
        // The paper's 2mat3d example (Fig. 5).
        let original = compile1(
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
        );
        let malleable = transform_malleable(&original, 1).unwrap();
        check_recompiles(&malleable);
        let n = 4usize;
        let nd = NdRange::d1(n * 4, 4); // extra items beyond NZ exercise the guard
        let run_with = |k: &Kernel, extra: &[ArgValue]| -> Vec<f32> {
            let mut mem = Memory::new();
            let a = mem.alloc_f32(vec![1.0; n * n * n]);
            let b = mem.alloc_f32(vec![2.0; n * n * n]);
            let c = mem.alloc_f32(vec![0.0; n * n * n]);
            let mut args = vec![
                ArgValue::Buffer(a),
                ArgValue::Buffer(b),
                ArgValue::Buffer(c),
                ArgValue::Int(n as i64),
                ArgValue::Int(n as i64),
                ArgValue::Int(n as i64),
            ];
            args.extend_from_slice(extra);
            run_functional(k, &args, &nd, &mut mem).unwrap();
            mem.read_f32(c).to_vec()
        };
        let expected = run_with(&original, &[]);
        let got = run_with(&malleable, &[ArgValue::Int(8), ArgValue::Int(2)]);
        assert_eq!(expected, got);
    }

    /// The rewritten index reconstruction must honour a nonzero
    /// `global_work_offset` (paper Fig. 5 line 16 includes
    /// `get_global_offset(0)` for exactly this reason) — this is also how
    /// Algorithm 1 pushes work-group *ranges* to the GPU.
    #[test]
    fn malleable_respects_global_offset() {
        let original = compile1(SCALE_SRC);
        let malleable = transform_malleable(&original, 1).unwrap();
        let nd = NdRange::d1(64, 16).with_offset([64, 0, 0]);
        let run_with = |k: &Kernel, extra: &[ArgValue]| -> Vec<f32> {
            let mut mem = Memory::new();
            let a = mem.alloc_f32((0..128).map(|i| i as f32).collect());
            let mut args =
                vec![ArgValue::Buffer(a), ArgValue::Float(2.0), ArgValue::Int(128)];
            args.extend_from_slice(extra);
            run_functional(k, &args, &nd, &mut mem).unwrap();
            mem.read_f32(a).to_vec()
        };
        let expected = run_with(&original, &[]);
        // Only elements 64..128 are scaled.
        assert_eq!(expected[0], 0.0);
        assert_eq!(expected[63], 63.0);
        assert_eq!(expected[64], 128.0);
        for (dop_mod, dop_alloc) in [(8, 1), (8, 8)] {
            let got =
                run_with(&malleable, &[ArgValue::Int(dop_mod), ArgValue::Int(dop_alloc)]);
            assert_eq!(expected, got, "mod={} alloc={}", dop_mod, dop_alloc);
        }
    }

    #[test]
    fn name_collisions_are_avoided() {
        let original = compile1(
            "__kernel void tricky(__global int* a, int dynamic_work, int dop_gpu_mod) {
                a[get_global_id(0)] = dynamic_work + dop_gpu_mod;
            }",
        );
        let m = transform_malleable(&original, 1).unwrap();
        let src = check_recompiles(&m);
        // The original parameters survive untouched; the injected names are
        // suffixed.
        assert!(src.contains("int dynamic_work,"), "{}", src);
        assert!(src.contains("dynamic_work_0"), "{}", src);
        assert!(src.contains("dop_gpu_mod_0"), "{}", src);
    }

    #[test]
    fn non_literal_dimension_is_reported_as_source() {
        let k = compile1(
            "__kernel void k(__global float* a, int i) { a[get_global_id(i % 3)] = 1.0f; }",
        );
        let err = check_malleable(&k).unwrap_err().to_string();
        assert!(err.contains("get_global_id with non-literal dimension i % 3"), "{}", err);
        assert!(!err.contains("Binary {") && !err.contains("Span {"), "{}", err);
    }

    #[test]
    fn rejects_3d() {
        let k = compile1(SCALE_SRC);
        assert!(transform_malleable(&k, 3).is_err());
    }

    #[test]
    fn dop_pair_mapping() {
        assert_eq!(dop_pair_for_eighths(1), (8, 1));
        assert_eq!(dop_pair_for_eighths(8), (8, 8));
    }
}
