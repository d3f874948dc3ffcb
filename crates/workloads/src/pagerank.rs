//! The iterative PageRank kernel (paper Table 4, citing Brin & Page).
//!
//! Pull-style formulation over a CSR in-link graph: each work-item owns one
//! vertex and gathers rank mass from its in-neighbours:
//!
//! ```text
//! next[i] = (1 - d)/N + d * Σ_k rank[src[k]] / out_deg[src[k]]
//! ```
//!
//! The host iterates the kernel, swapping `rank`/`next` buffers — each
//! launch goes through Dopia's full pipeline, like any other kernel.

use crate::data::{self, Csr};
use crate::BuiltKernel;
use sim::{ArgValue, BufferId, Memory, NdRange};

pub const PAGERANK_SRC: &str = r#"
__kernel void pagerank(__global int* row_ptr, __global int* src,
                       __global float* rank, __global int* out_deg,
                       __global float* next, float damping, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float s = 0.0f;
        for (int k = row_ptr[i]; k < row_ptr[i + 1]; k++) {
            int v = src[k];
            s = s + rank[v] / (float)out_deg[v];
        }
        next[i] = (1.0f - damping) / (float)N + damping * s;
    }
}
"#;

/// A built PageRank launch plus the handles needed to iterate it.
pub struct PageRankInstance {
    pub built: BuiltKernel,
    pub rank: BufferId,
    pub next: BufferId,
}

/// Paper-scale PageRank: `n` vertices, mean in-degree 256 (matching the
/// dense CSR input the paper pairs with SpMV; see DESIGN.md).
pub fn pagerank(mem: &mut Memory, n: usize, wg: usize) -> BuiltKernel {
    instance(mem, &data::random_csr(n, 256, 0x9A6E), wg).built
}

/// Build from an explicit in-link CSR graph.
pub fn instance(mem: &mut Memory, graph: &Csr, wg: usize) -> PageRankInstance {
    let n = graph.rows();
    // Out-degrees of the *source* vertices: count occurrences in src lists.
    let mut deg = vec![0i32; n];
    for &s in &graph.col_idx {
        deg[s as usize] += 1;
    }
    // Every vertex needs out-degree >= 1 for the division.
    for d in &mut deg {
        if *d == 0 {
            *d = 1;
        }
    }
    let rp = mem.alloc_i32(graph.row_ptr.clone());
    let src = mem.alloc_i32(graph.col_idx.clone());
    let rank = mem.alloc_f32(vec![1.0 / n as f32; n]);
    let degb = mem.alloc_i32(deg);
    let next = mem.alloc_f32(vec![0.0; n]);
    let built = BuiltKernel::from_source(
        "PageRank",
        PAGERANK_SRC,
        vec![
            ArgValue::Buffer(rp),
            ArgValue::Buffer(src),
            ArgValue::Buffer(rank),
            ArgValue::Buffer(degb),
            ArgValue::Buffer(next),
            ArgValue::Float(0.85),
            ArgValue::Int(n as i64),
        ],
        NdRange::d1(n, wg),
    );
    PageRankInstance { built, rank, next }
}

/// Swap the rank/next buffer arguments for the next iteration.
pub fn swap_buffers(inst: &mut PageRankInstance) {
    std::mem::swap(&mut inst.rank, &mut inst.next);
    inst.built.args[2] = ArgValue::Buffer(inst.rank);
    inst.built.args[4] = ArgValue::Buffer(inst.next);
}

/// Sequential reference PageRank step.
pub fn ref_step(graph: &Csr, rank: &[f32], deg: &[i32], damping: f32) -> Vec<f32> {
    let n = graph.rows();
    (0..n)
        .map(|i| {
            let (lo, hi) = (graph.row_ptr[i] as usize, graph.row_ptr[i + 1] as usize);
            let s: f32 = (lo..hi)
                .map(|k| {
                    let v = graph.col_idx[k] as usize;
                    rank[v] / deg[v] as f32
                })
                .sum();
            (1.0 - damping) / n as f32 + damping * s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::interp::run_functional;

    #[test]
    fn one_step_matches_reference() {
        let n = 96;
        let graph = data::random_csr(n, 6, 77);
        let mut mem = Memory::new();
        let inst = instance(&mut mem, &graph, 32);
        let rank0 = mem.read_f32(inst.rank).to_vec();
        let deg = mem.read_i32(inst.built.args[3].as_buffer().unwrap()).to_vec();
        run_functional(&inst.built.kernel, &inst.built.args, &inst.built.nd, &mut mem).unwrap();
        let expect = ref_step(&graph, &rank0, &deg, 0.85);
        let next = mem.read_f32(inst.next);
        for (i, (a, e)) in next.iter().zip(&expect).enumerate() {
            assert!((a - e).abs() < 1e-4, "vertex {}: {} vs {}", i, a, e);
        }
    }

    #[test]
    fn rank_mass_is_conserved_ish() {
        // With damping d and every out-edge counted, total mass stays near
        // 1 across iterations (dangling mass is clamped by deg>=1).
        let n = 200;
        let graph = data::random_csr(n, 8, 78);
        let mut mem = Memory::new();
        let mut inst = instance(&mut mem, &graph, 40);
        for _ in 0..3 {
            run_functional(&inst.built.kernel, &inst.built.args, &inst.built.nd, &mut mem).unwrap();
            swap_buffers(&mut inst);
        }
        let total: f32 = mem.read_f32(inst.rank).iter().sum();
        assert!(total > 0.2 && total < 2.0, "total mass {}", total);
    }

    #[test]
    fn swap_buffers_rebinds_args() {
        let graph = data::random_csr(64, 4, 79);
        let mut mem = Memory::new();
        let mut inst = instance(&mut mem, &graph, 16);
        let r0 = inst.rank;
        let n0 = inst.next;
        swap_buffers(&mut inst);
        assert_eq!(inst.rank, n0);
        assert_eq!(inst.next, r0);
        assert_eq!(inst.built.args[2], ArgValue::Buffer(n0));
        assert_eq!(inst.built.args[4], ArgValue::Buffer(r0));
    }
}
