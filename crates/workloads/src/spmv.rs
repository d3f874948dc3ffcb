//! Sparse matrix-vector multiplication in CSR format (paper Table 4).
//!
//! The paper's input has 16,384 rows; we generate a skewed row-length
//! distribution with a mean of 16 stored elements per row so adjacent rows
//! differ in length — the irregularity (wavefront divergence + random
//! gathers on `x`) that makes SpMV CPU-affine on integrated parts.

use crate::data::{self, Csr};
use crate::BuiltKernel;
use sim::{ArgValue, Memory, NdRange};

/// One work-item per row: `y[i] = Σ values[k] * x[col_idx[k]]`.
pub const SPMV_SRC: &str = r#"
__kernel void spmv(__global int* row_ptr, __global int* col_idx,
                   __global float* values, __global float* x,
                   __global float* y, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float s = 0.0f;
        for (int k = row_ptr[i]; k < row_ptr[i + 1]; k++) {
            s = s + values[k] * x[col_idx[k]];
        }
        y[i] = s;
    }
}
"#;

/// Paper-scale SpMV: `rows` rows, mean 256 nnz/row. (The paper's CSR input
/// is denser still — "elements per row … 16,384" — but that would need
/// gigabytes of real index storage; 256 preserves the irregularity and the
/// random-gather footprint at laptop scale, see DESIGN.md.)
pub fn spmv_csr(mem: &mut Memory, rows: usize, wg: usize) -> BuiltKernel {
    build_from_csr(mem, &data::random_csr(rows, 256, 0x5137), wg)
}

/// Build an SpMV launch from an explicit CSR matrix.
pub fn build_from_csr(mem: &mut Memory, m: &Csr, wg: usize) -> BuiltKernel {
    let rows = m.rows();
    let rp = mem.alloc_i32(m.row_ptr.clone());
    let ci = mem.alloc_i32(m.col_idx.clone());
    let vals = mem.alloc_f32(m.values.clone());
    let x = mem.alloc_f32(data::random_f32(rows, 0x5138));
    let y = mem.alloc_f32(vec![0.0; rows]);
    BuiltKernel::from_source(
        "SpMV",
        SPMV_SRC,
        vec![
            ArgValue::Buffer(rp),
            ArgValue::Buffer(ci),
            ArgValue::Buffer(vals),
            ArgValue::Buffer(x),
            ArgValue::Buffer(y),
            ArgValue::Int(rows as i64),
        ],
        NdRange::d1(rows, wg),
    )
}

/// Sequential reference SpMV.
pub fn ref_spmv(m: &Csr, x: &[f32]) -> Vec<f32> {
    (0..m.rows())
        .map(|i| {
            let (lo, hi) = (m.row_ptr[i] as usize, m.row_ptr[i + 1] as usize);
            (lo..hi).map(|k| m.values[k] * x[m.col_idx[k] as usize]).sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::interp::run_functional;

    #[test]
    fn spmv_matches_reference() {
        let rows = 128;
        let m = data::random_csr(rows, 8, 42);
        let mut mem = Memory::new();
        let built = build_from_csr(&mut mem, &m, 32);
        run_functional(&built.kernel, &built.args, &built.nd, &mut mem).unwrap();
        // x is args[3], y is args[4].
        let x = mem.read_f32(built.args[3].as_buffer().unwrap()).to_vec();
        let y = mem.read_f32(built.args[4].as_buffer().unwrap());
        let expect = ref_spmv(&m, &x);
        for (i, (a, e)) in y.iter().zip(&expect).enumerate() {
            assert!((a - e).abs() < 1e-3 * (1.0 + e.abs()), "row {}: {} vs {}", i, a, e);
        }
    }

    #[test]
    fn paper_scale_instance_profiles_with_divergence() {
        let mut mem = Memory::new();
        let built = spmv_csr(&mut mem, 16384, 256);
        let engine = sim::Engine::kaveri();
        let p = engine.profile(built.spec(), &mem).unwrap();
        assert!(p.divergence > 1.2, "divergence = {}", p.divergence);
        // The x gather must be classified as random.
        assert!(p
            .sites
            .iter()
            .any(|s| s.class == sim::AccessClass::Random));
    }
}
