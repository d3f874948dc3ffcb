//! CPU-side code generation (paper Fig. 7).
//!
//! The paper generates C++ functions in which one call executes whole
//! work-groups pulled off a global `std::atomic` worklist, processing each
//! group's work-items sequentially. In this reproduction the simulator's
//! work-group executor implements those semantics natively (sequential
//! items per group, groups pulled by DES CPU-core agents), so the generated
//! source is an inspectable artifact: it shows exactly the code a native
//! deployment would compile, and tests pin its structure to the figure.

use clc::visit::ChildMut;
use clc::{Expr, Kernel, Stmt, Type};
use std::fmt::Write;

/// Generate the Fig. 7-style C++ source for `kernel` in a `work_dim`-
/// dimensional launch (1 or 2).
pub fn generate_cpu_source(kernel: &Kernel, work_dim: usize) -> String {
    assert!((1..=2).contains(&work_dim), "work_dim must be 1 or 2");
    let mut out = String::new();
    // Signature: original parameters (C types) + launch geometry + worklist.
    write!(out, "void {}_CPU(", kernel.name).unwrap();
    for p in &kernel.params {
        match p.ty {
            Type::Ptr { elem, .. } => write!(out, "{}* {}, ", elem, p.name).unwrap(),
            other => write!(out, "{} {}, ", other, p.name).unwrap(),
        }
    }
    out.push_str(
        "size_t* global_size, size_t* local_size,\n                std::atomic_int* worklist, size_t num_wgs)\n{\n",
    );
    out.push_str(
        "    for (size_t wg_id = worklist->fetch_add(1); wg_id < num_wgs;\n         wg_id = worklist->fetch_add(1)) {\n",
    );
    out.push_str(
        "        for (size_t linear_id = 0; linear_id < local_size[0]",
    );
    if work_dim == 2 {
        out.push_str(" * local_size[1]");
    }
    out.push_str("; linear_id++) {\n");
    if work_dim == 1 {
        out.push_str("            size_t __gid0 = wg_id * local_size[0] + linear_id;\n");
    } else {
        out.push_str("            size_t wgs0 = global_size[0] / local_size[0];\n");
        out.push_str(
            "            size_t __gid0 = (wg_id % wgs0) * local_size[0] + linear_id % local_size[0];\n",
        );
        out.push_str(
            "            size_t __gid1 = (wg_id / wgs0) * local_size[1] + linear_id / local_size[0];\n",
        );
    }
    // Body with work-item queries rewritten to the computed ids.
    let mut body = kernel.body.clone();
    for stmt in &mut body {
        rewrite_stmt(stmt, work_dim);
    }
    let rewritten = Kernel {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        body,
        span: kernel.span,
    };
    let printed = clc::printer::print_kernel(&rewritten);
    // Reuse the printed body between the first '{' and the final '}' with
    // adjusted indentation.
    let open = printed.find('{').expect("printed kernel has a body");
    let close = printed.rfind('}').expect("printed kernel has a body");
    for line in printed[open + 1..close].lines() {
        if line.trim().is_empty() {
            continue;
        }
        writeln!(out, "        {}", line).unwrap();
    }
    out.push_str("        }\n    }\n}\n");
    out
}

fn rewrite_stmt(stmt: &mut Stmt, work_dim: usize) {
    for child in stmt.children_mut() {
        match child {
            ChildMut::Stmt(s) => rewrite_stmt(s, work_dim),
            ChildMut::Expr(e) => rewrite_expr(e, work_dim),
        }
    }
}

fn rewrite_expr(expr: &mut Expr, work_dim: usize) {
    expr.children_mut().for_each(|c| rewrite_expr(c, work_dim));
    if let Expr::Call { name, args, .. } = expr {
        if name == "get_global_id" {
            if let Some(Expr::IntLit { value, .. }) = args.first() {
                let d = *value as usize;
                if d < work_dim {
                    *expr = Expr::ident(format!("(int)__gid{}", d));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile1(src: &str) -> Kernel {
        clc::compile(src).unwrap().kernels.remove(0)
    }

    #[test]
    fn figure7_structure() {
        let k = compile1(
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
        let src = generate_cpu_source(&k, 1);
        assert!(src.contains("void two_mat3d_CPU("), "{}", src);
        assert!(src.contains("std::atomic_int* worklist"), "{}", src);
        assert!(src.contains("worklist->fetch_add(1)"), "{}", src);
        assert!(src.contains("wg_id < num_wgs"), "{}", src);
        assert!(src.contains("int z = (int)__gid0;"), "{}", src);
        assert!(src.contains("C[idx] = A[idx] + B[idx];"), "{}", src);
    }

    #[test]
    fn two_dimensional_id_reconstruction() {
        let k = compile1(
            "__kernel void f(__global float* a, int w) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                a[y * w + x] = 0.0f;
            }",
        );
        let src = generate_cpu_source(&k, 2);
        assert!(src.contains("__gid1"), "{}", src);
        assert!(src.contains("local_size[0] * local_size[1]"), "{}", src);
        assert!(src.contains("int y = (int)__gid1;"), "{}", src);
    }
}
