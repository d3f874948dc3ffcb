//! The twelve data-intensive Polybench OpenCL kernels of paper Table 4,
//! plus GEMM (mentioned in the paper's prose list).
//!
//! Each kernel has:
//! * its OpenCL source (a `pub const`, so tests and docs can inspect it),
//! * a paper-scale builder (virtual float matrices — 16,384² elements are
//!   never allocated),
//! * a small-scale real-buffer builder for functional validation, and
//! * a sequential Rust reference implementation used by the tests.

use crate::data;
use crate::BuiltKernel;
use sim::{ArgValue, Memory, NdRange};

// --------------------------------------------------------------------------
// Kernel sources
// --------------------------------------------------------------------------

/// 2-D convolution with a 3x3 stencil (2DCONV). Like the GPU-tuned
/// Polybench OpenCL codes, dimension 0 of the NDRange maps to the
/// *contiguous* array dimension so adjacent lanes coalesce.
pub const CONV2D_SRC: &str = r#"
__kernel void conv2d(__global float* A, __global float* B, int NI, int NJ) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if ((i > 0) && (i < NI - 1) && (j > 0) && (j < NJ - 1)) {
        float c11 = 0.2f;  float c12 = -0.3f; float c13 = 0.4f;
        float c21 = -0.5f; float c22 = 0.6f;  float c23 = -0.7f;
        float c31 = 0.8f;  float c32 = -0.9f; float c33 = 0.1f;
        B[i * NJ + j] =
            c11 * A[(i - 1) * NJ + (j - 1)] + c12 * A[(i - 1) * NJ + j] + c13 * A[(i - 1) * NJ + (j + 1)] +
            c21 * A[i * NJ + (j - 1)]       + c22 * A[i * NJ + j]       + c23 * A[i * NJ + (j + 1)] +
            c31 * A[(i + 1) * NJ + (j - 1)] + c32 * A[(i + 1) * NJ + j] + c33 * A[(i + 1) * NJ + (j + 1)];
    }
}
"#;

/// ATAX kernel 1: `tmp = A x` (row-wise dot products).
pub const ATAX1_SRC: &str = r#"
__kernel void atax1(__global float* A, __global float* x, __global float* tmp, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float s = 0.0f;
        for (int j = 0; j < N; j++) { s = s + A[i * N + j] * x[j]; }
        tmp[i] = s;
    }
}
"#;

/// ATAX kernel 2: `y = Aᵀ tmp` (column-wise walk — lane-coalescable).
pub const ATAX2_SRC: &str = r#"
__kernel void atax2(__global float* A, __global float* tmp, __global float* y, int N) {
    int j = get_global_id(0);
    if (j < N) {
        float s = 0.0f;
        for (int i = 0; i < N; i++) { s = s + A[i * N + j] * tmp[i]; }
        y[j] = s;
    }
}
"#;

/// BiCG sub-kernel 1: `q = A p`.
pub const BICG1_SRC: &str = r#"
__kernel void bicg1(__global float* A, __global float* p, __global float* q, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float s = 0.0f;
        for (int j = 0; j < N; j++) { s = s + A[i * N + j] * p[j]; }
        q[i] = s;
    }
}
"#;

/// BiCG sub-kernel 2: `s = Aᵀ r`.
pub const BICG2_SRC: &str = r#"
__kernel void bicg2(__global float* A, __global float* r, __global float* s, int N) {
    int j = get_global_id(0);
    if (j < N) {
        float acc = 0.0f;
        for (int i = 0; i < N; i++) { acc = acc + A[i * N + j] * r[i]; }
        s[j] = acc;
    }
}
"#;

/// FDTD-2D step 1: update `ey` from `hz` (row-neighbour stencil).
pub const FDTD1_SRC: &str = r#"
__kernel void fdtd1(__global float* ey, __global float* hz, int NX, int NY) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if ((i > 0) && (i < NX) && (j < NY)) {
        ey[i * NY + j] = ey[i * NY + j] - 0.5f * (hz[i * NY + j] - hz[(i - 1) * NY + j]);
    }
}
"#;

/// FDTD-2D step 2: update `ex` from `hz` (column-neighbour stencil).
pub const FDTD2_SRC: &str = r#"
__kernel void fdtd2(__global float* ex, __global float* hz, int NX, int NY) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if ((i < NX) && (j > 0) && (j < NY)) {
        ex[i * NY + j] = ex[i * NY + j] - 0.5f * (hz[i * NY + j] - hz[i * NY + (j - 1)]);
    }
}
"#;

/// FDTD-2D step 3: update `hz` from `ex` and `ey`.
pub const FDTD3_SRC: &str = r#"
__kernel void fdtd3(__global float* ex, __global float* ey, __global float* hz, int NX, int NY) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if ((i < NX - 1) && (j < NY - 1)) {
        hz[i * NY + j] = hz[i * NY + j]
            - 0.7f * (ex[i * NY + (j + 1)] - ex[i * NY + j]
                    + ey[(i + 1) * NY + j] - ey[i * NY + j]);
    }
}
"#;

/// Gesummv: `y = alpha A x + beta B x` — the paper's running example.
pub const GESUMMV_SRC: &str = r#"
__kernel void gesummv(__global float* A, __global float* B, __global float* x,
                      __global float* y, float alpha, float beta, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float t = 0.0f;
        float s = 0.0f;
        for (int j = 0; j < N; j++) {
            t = t + A[i * N + j] * x[j];
            s = s + B[i * N + j] * x[j];
        }
        y[i] = alpha * t + beta * s;
    }
}
"#;

/// MVT kernel 1: `x1 += A y1` (row walk).
pub const MVT1_SRC: &str = r#"
__kernel void mvt1(__global float* A, __global float* x1, __global float* y1, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float s = 0.0f;
        for (int j = 0; j < N; j++) { s = s + A[i * N + j] * y1[j]; }
        x1[i] = x1[i] + s;
    }
}
"#;

/// MVT kernel 2: `x2 += Aᵀ y2` (column walk — the paper's GPU-friendly
/// misprediction case study in Section 9.4).
pub const MVT2_SRC: &str = r#"
__kernel void mvt2(__global float* A, __global float* x2, __global float* y2, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float s = 0.0f;
        for (int j = 0; j < N; j++) { s = s + A[j * N + i] * y2[j]; }
        x2[i] = x2[i] + s;
    }
}
"#;

/// SYR2K: symmetric rank-2k update `C = beta C + alpha (A Bᵀ + B Aᵀ)`.
pub const SYR2K_SRC: &str = r#"
__kernel void syr2k(__global float* A, __global float* B, __global float* C,
                    float alpha, float beta, int N, int M) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if ((i < N) && (j < N)) {
        float s = C[i * N + j] * beta;
        for (int k = 0; k < M; k++) {
            s = s + alpha * A[i * M + k] * B[j * M + k]
                  + alpha * B[i * M + k] * A[j * M + k];
        }
        C[i * N + j] = s;
    }
}
"#;

/// GEMM: `C = alpha A B + beta C` (paper prose; not in the Fig. 13 set).
pub const GEMM_SRC: &str = r#"
__kernel void gemm(__global float* A, __global float* B, __global float* C,
                   float alpha, float beta, int N) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if ((i < N) && (j < N)) {
        float s = C[i * N + j] * beta;
        for (int k = 0; k < N; k++) {
            s = s + alpha * A[i * N + k] * B[k * N + j];
        }
        C[i * N + j] = s;
    }
}
"#;

// --------------------------------------------------------------------------
// Paper-scale builders (virtual matrices)
// --------------------------------------------------------------------------

fn vbuf(mem: &mut Memory, len: usize, seed: u64) -> ArgValue {
    ArgValue::Buffer(mem.alloc_virtual_f32(len, seed))
}

fn rbuf(mem: &mut Memory, data: Vec<f32>) -> ArgValue {
    ArgValue::Buffer(mem.alloc_f32(data))
}

/// 2DCONV on an `n x n` grid.
pub fn conv2d(mem: &mut Memory, n: usize, wg: [usize; 2]) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0x2D01);
    let b = vbuf(mem, n * n, 0x2D02);
    BuiltKernel::from_source(
        "2DCONV",
        CONV2D_SRC,
        vec![a, b, ArgValue::Int(n as i64), ArgValue::Int(n as i64)],
        NdRange::d2([n, n], wg),
    )
}

pub fn atax1(mem: &mut Memory, n: usize, wg: usize) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0xA1);
    let x = rbuf(mem, data::random_f32(n, 0xA2));
    let tmp = rbuf(mem, vec![0.0; n]);
    BuiltKernel::from_source(
        "ATAX1",
        ATAX1_SRC,
        vec![a, x, tmp, ArgValue::Int(n as i64)],
        NdRange::d1(n, wg),
    )
}

pub fn atax2(mem: &mut Memory, n: usize, wg: usize) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0xA3);
    let tmp = rbuf(mem, data::random_f32(n, 0xA4));
    let y = rbuf(mem, vec![0.0; n]);
    BuiltKernel::from_source(
        "ATAX2",
        ATAX2_SRC,
        vec![a, tmp, y, ArgValue::Int(n as i64)],
        NdRange::d1(n, wg),
    )
}

pub fn bicg1(mem: &mut Memory, n: usize, wg: usize) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0xB1);
    let p = rbuf(mem, data::random_f32(n, 0xB2));
    let q = rbuf(mem, vec![0.0; n]);
    BuiltKernel::from_source(
        "BICG1",
        BICG1_SRC,
        vec![a, p, q, ArgValue::Int(n as i64)],
        NdRange::d1(n, wg),
    )
}

pub fn bicg2(mem: &mut Memory, n: usize, wg: usize) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0xB3);
    let r = rbuf(mem, data::random_f32(n, 0xB4));
    let s = rbuf(mem, vec![0.0; n]);
    BuiltKernel::from_source(
        "BICG2",
        BICG2_SRC,
        vec![a, r, s, ArgValue::Int(n as i64)],
        NdRange::d1(n, wg),
    )
}

pub fn fdtd1(mem: &mut Memory, n: usize, wg: [usize; 2]) -> BuiltKernel {
    let ey = vbuf(mem, n * n, 0xF1);
    let hz = vbuf(mem, n * n, 0xF2);
    BuiltKernel::from_source(
        "FDTD1",
        FDTD1_SRC,
        vec![ey, hz, ArgValue::Int(n as i64), ArgValue::Int(n as i64)],
        NdRange::d2([n, n], wg),
    )
}

pub fn fdtd2(mem: &mut Memory, n: usize, wg: [usize; 2]) -> BuiltKernel {
    let ex = vbuf(mem, n * n, 0xF3);
    let hz = vbuf(mem, n * n, 0xF4);
    BuiltKernel::from_source(
        "FDTD2",
        FDTD2_SRC,
        vec![ex, hz, ArgValue::Int(n as i64), ArgValue::Int(n as i64)],
        NdRange::d2([n, n], wg),
    )
}

pub fn fdtd3(mem: &mut Memory, n: usize, wg: [usize; 2]) -> BuiltKernel {
    let ex = vbuf(mem, n * n, 0xF5);
    let ey = vbuf(mem, n * n, 0xF6);
    let hz = vbuf(mem, n * n, 0xF7);
    BuiltKernel::from_source(
        "FDTD3",
        FDTD3_SRC,
        vec![ex, ey, hz, ArgValue::Int(n as i64), ArgValue::Int(n as i64)],
        NdRange::d2([n, n], wg),
    )
}

pub fn gesummv(mem: &mut Memory, n: usize, wg: usize) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0x6A);
    let b = vbuf(mem, n * n, 0x6B);
    let x = rbuf(mem, data::random_f32(n, 0x6C));
    let y = rbuf(mem, vec![0.0; n]);
    BuiltKernel::from_source(
        "Gesummv",
        GESUMMV_SRC,
        vec![
            a,
            b,
            x,
            y,
            ArgValue::Float(1.5),
            ArgValue::Float(1.2),
            ArgValue::Int(n as i64),
        ],
        NdRange::d1(n, wg),
    )
}

pub fn mvt1(mem: &mut Memory, n: usize, wg: usize) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0x71);
    let x1 = rbuf(mem, data::random_f32(n, 0x72));
    let y1 = rbuf(mem, data::random_f32(n, 0x73));
    BuiltKernel::from_source(
        "MVT1",
        MVT1_SRC,
        vec![a, x1, y1, ArgValue::Int(n as i64)],
        NdRange::d1(n, wg),
    )
}

pub fn mvt2(mem: &mut Memory, n: usize, wg: usize) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0x74);
    let x2 = rbuf(mem, data::random_f32(n, 0x75));
    let y2 = rbuf(mem, data::random_f32(n, 0x76));
    BuiltKernel::from_source(
        "MVT2",
        MVT2_SRC,
        vec![a, x2, y2, ArgValue::Int(n as i64)],
        NdRange::d1(n, wg),
    )
}

pub fn syr2k(mem: &mut Memory, n: usize, wg: [usize; 2]) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0x51);
    let b = vbuf(mem, n * n, 0x52);
    let c = vbuf(mem, n * n, 0x53);
    BuiltKernel::from_source(
        "SYR2K",
        SYR2K_SRC,
        vec![
            a,
            b,
            c,
            ArgValue::Float(1.5),
            ArgValue::Float(1.2),
            ArgValue::Int(n as i64),
            ArgValue::Int(n as i64),
        ],
        NdRange::d2([n, n], wg),
    )
}

pub fn gemm(mem: &mut Memory, n: usize, wg: [usize; 2]) -> BuiltKernel {
    let a = vbuf(mem, n * n, 0x91);
    let b = vbuf(mem, n * n, 0x92);
    let c = vbuf(mem, n * n, 0x93);
    BuiltKernel::from_source(
        "GEMM",
        GEMM_SRC,
        vec![
            a,
            b,
            c,
            ArgValue::Float(1.5),
            ArgValue::Float(1.2),
            ArgValue::Int(n as i64),
        ],
        NdRange::d2([n, n], wg),
    )
}

// --------------------------------------------------------------------------
// Rust reference implementations (for validation)
// --------------------------------------------------------------------------

/// Reference Gesummv: `y = alpha A x + beta B x`.
pub fn ref_gesummv(a: &[f32], b: &[f32], x: &[f32], alpha: f32, beta: f32, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let mut t = 0.0f32;
            let mut s = 0.0f32;
            for j in 0..n {
                t += a[i * n + j] * x[j];
                s += b[i * n + j] * x[j];
            }
            alpha * t + beta * s
        })
        .collect()
}

/// Reference ATAX (both kernels): `y = Aᵀ (A x)`.
pub fn ref_atax(a: &[f32], x: &[f32], n: usize) -> (Vec<f32>, Vec<f32>) {
    let tmp: Vec<f32> = (0..n)
        .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
        .collect();
    let y: Vec<f32> = (0..n)
        .map(|j| (0..n).map(|i| a[i * n + j] * tmp[i]).sum())
        .collect();
    (tmp, y)
}

/// Reference MVT2: `x2 + Aᵀ y2`.
pub fn ref_mvt2(a: &[f32], x2: &[f32], y2: &[f32], n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| x2[i] + (0..n).map(|j| a[j * n + i] * y2[j]).sum::<f32>())
        .collect()
}

/// Reference 2-D convolution (interior points only; the boundary keeps the
/// destination's prior contents).
pub fn ref_conv2d(a: &[f32], b0: &[f32], n: usize) -> Vec<f32> {
    let c = [[0.2f32, -0.3, 0.4], [-0.5, 0.6, -0.7], [0.8, -0.9, 0.1]];
    let mut out = b0.to_vec();
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let mut s = 0.0f32;
            for (di, row) in c.iter().enumerate() {
                for (dj, &w) in row.iter().enumerate() {
                    s += w * a[(i + di - 1) * n + (j + dj - 1)];
                }
            }
            out[i * n + j] = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::interp::run_functional;

    fn run(b: &BuiltKernel, mem: &mut Memory) {
        run_functional(&b.kernel, &b.args, &b.nd, mem)
            .unwrap_or_else(|e| panic!("{}: {}", b.name, e));
    }

    fn assert_close(actual: &[f32], expected: &[f32], what: &str) {
        assert_eq!(actual.len(), expected.len());
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            let tol = 1e-3 * (1.0 + e.abs());
            assert!((a - e).abs() < tol, "{}[{}]: {} vs {}", what, i, a, e);
        }
    }

    #[test]
    fn gesummv_matches_reference() {
        let n = 64;
        let mut mem = Memory::new();
        let a = data::random_f32(n * n, 1);
        let b = data::random_f32(n * n, 2);
        let x = data::random_f32(n, 3);
        let ab = mem.alloc_f32(a.clone());
        let bb = mem.alloc_f32(b.clone());
        let xb = mem.alloc_f32(x.clone());
        let yb = mem.alloc_f32(vec![0.0; n]);
        let built = BuiltKernel::from_source(
            "Gesummv",
            GESUMMV_SRC,
            vec![
                ArgValue::Buffer(ab),
                ArgValue::Buffer(bb),
                ArgValue::Buffer(xb),
                ArgValue::Buffer(yb),
                ArgValue::Float(1.5),
                ArgValue::Float(1.2),
                ArgValue::Int(n as i64),
            ],
            NdRange::d1(n, 32),
        );
        run(&built, &mut mem);
        let expect = ref_gesummv(&a, &b, &x, 1.5, 1.2, n);
        assert_close(mem.read_f32(yb), &expect, "y");
    }

    #[test]
    fn atax_pipeline_matches_reference() {
        let n = 48;
        let mut mem = Memory::new();
        let a = data::random_f32(n * n, 4);
        let x = data::random_f32(n, 5);
        let ab = mem.alloc_f32(a.clone());
        let xb = mem.alloc_f32(x.clone());
        let tmpb = mem.alloc_f32(vec![0.0; n]);
        let yb = mem.alloc_f32(vec![0.0; n]);
        let k1 = BuiltKernel::from_source(
            "ATAX1",
            ATAX1_SRC,
            vec![ArgValue::Buffer(ab), ArgValue::Buffer(xb), ArgValue::Buffer(tmpb), ArgValue::Int(n as i64)],
            NdRange::d1(n, 16),
        );
        let k2 = BuiltKernel::from_source(
            "ATAX2",
            ATAX2_SRC,
            vec![ArgValue::Buffer(ab), ArgValue::Buffer(tmpb), ArgValue::Buffer(yb), ArgValue::Int(n as i64)],
            NdRange::d1(n, 16),
        );
        run(&k1, &mut mem);
        run(&k2, &mut mem);
        let (tmp, y) = ref_atax(&a, &x, n);
        assert_close(mem.read_f32(tmpb), &tmp, "tmp");
        assert_close(mem.read_f32(yb), &y, "y");
    }

    #[test]
    fn mvt2_matches_reference() {
        let n = 40;
        let mut mem = Memory::new();
        let a = data::random_f32(n * n, 6);
        let x2 = data::random_f32(n, 7);
        let y2 = data::random_f32(n, 8);
        let ab = mem.alloc_f32(a.clone());
        let xb = mem.alloc_f32(x2.clone());
        let yb = mem.alloc_f32(y2.clone());
        let built = BuiltKernel::from_source(
            "MVT2",
            MVT2_SRC,
            vec![ArgValue::Buffer(ab), ArgValue::Buffer(xb), ArgValue::Buffer(yb), ArgValue::Int(n as i64)],
            NdRange::d1(n, 8),
        );
        run(&built, &mut mem);
        assert_close(mem.read_f32(xb), &ref_mvt2(&a, &x2, &y2, n), "x2");
    }

    #[test]
    fn conv2d_matches_reference() {
        let n = 32;
        let mut mem = Memory::new();
        let a = data::random_f32(n * n, 9);
        let ab = mem.alloc_f32(a.clone());
        let bb = mem.alloc_f32(vec![0.0; n * n]);
        let built = BuiltKernel::from_source(
            "2DCONV",
            CONV2D_SRC,
            vec![ArgValue::Buffer(ab), ArgValue::Buffer(bb), ArgValue::Int(n as i64), ArgValue::Int(n as i64)],
            NdRange::d2([n, n], [8, 8]),
        );
        run(&built, &mut mem);
        assert_close(mem.read_f32(bb), &ref_conv2d(&a, &vec![0.0; n * n], n), "B");
    }

    #[test]
    fn fdtd_steps_execute_functionally() {
        // Smoke: the three FDTD steps compose without error and change the
        // fields.
        let n = 24;
        let mut mem = Memory::new();
        let ex = mem.alloc_f32(data::random_f32(n * n, 10));
        let ey = mem.alloc_f32(data::random_f32(n * n, 11));
        let hz = mem.alloc_f32(data::random_f32(n * n, 12));
        let before = mem.read_f32(hz).to_vec();
        let nn = ArgValue::Int(n as i64);
        let k1 = BuiltKernel::from_source(
            "FDTD1",
            FDTD1_SRC,
            vec![ArgValue::Buffer(ey), ArgValue::Buffer(hz), nn, nn],
            NdRange::d2([n, n], [8, 8]),
        );
        let k2 = BuiltKernel::from_source(
            "FDTD2",
            FDTD2_SRC,
            vec![ArgValue::Buffer(ex), ArgValue::Buffer(hz), nn, nn],
            NdRange::d2([n, n], [8, 8]),
        );
        let k3 = BuiltKernel::from_source(
            "FDTD3",
            FDTD3_SRC,
            vec![ArgValue::Buffer(ex), ArgValue::Buffer(ey), ArgValue::Buffer(hz), nn, nn],
            NdRange::d2([n, n], [8, 8]),
        );
        run(&k1, &mut mem);
        run(&k2, &mut mem);
        run(&k3, &mut mem);
        assert_ne!(mem.read_f32(hz), &before[..]);
    }

    #[test]
    fn syr2k_small_instance_is_symmetric() {
        // C starts at 0 with beta 0: the rank-2k update is symmetric.
        let n = 16;
        let mut mem = Memory::new();
        let a = data::random_f32(n * n, 13);
        let b = data::random_f32(n * n, 14);
        let ab = mem.alloc_f32(a);
        let bb = mem.alloc_f32(b);
        let cb = mem.alloc_f32(vec![0.0; n * n]);
        let built = BuiltKernel::from_source(
            "SYR2K",
            SYR2K_SRC,
            vec![
                ArgValue::Buffer(ab),
                ArgValue::Buffer(bb),
                ArgValue::Buffer(cb),
                ArgValue::Float(1.0),
                ArgValue::Float(0.0),
                ArgValue::Int(n as i64),
                ArgValue::Int(n as i64),
            ],
            NdRange::d2([n, n], [8, 8]),
        );
        run(&built, &mut mem);
        let c = mem.read_f32(cb);
        for i in 0..n {
            for j in 0..n {
                assert!((c[i * n + j] - c[j * n + i]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gemm_identity_times_matrix() {
        let n = 8;
        let mut mem = Memory::new();
        let mut ident = vec![0.0f32; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        let b = data::random_f32(n * n, 15);
        let ab = mem.alloc_f32(ident);
        let bb = mem.alloc_f32(b.clone());
        let cb = mem.alloc_f32(vec![0.0; n * n]);
        let built = BuiltKernel::from_source(
            "GEMM",
            GEMM_SRC,
            vec![
                ArgValue::Buffer(ab),
                ArgValue::Buffer(bb),
                ArgValue::Buffer(cb),
                ArgValue::Float(1.0),
                ArgValue::Float(0.0),
                ArgValue::Int(n as i64),
            ],
            NdRange::d2([n, n], [4, 4]),
        );
        run(&built, &mut mem);
        let c = mem.read_f32(cb);
        for i in 0..n * n {
            assert!((c[i] - b[i]).abs() < 1e-5);
        }
    }
}
