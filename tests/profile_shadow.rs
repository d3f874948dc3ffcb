//! Shadow check of the one-pass profiler on the workloads the runtime
//! actually profiles.
//!
//! `profile_compiled` runs every sampled work-item through one VM call into
//! one dense site table. Its profiles must equal, field by field and float
//! by bit pattern, those of the frozen per-item profiler in
//! `crates/sim/tests/support/shadow_profile.rs` (one VM call and one
//! tracer per item). The differential suite applies the same check to its
//! fixed and randomized kernels; this file covers the fourteen real-world
//! kernels at the benchmark's `cold` sizes and shapes, every synthetic
//! pattern × data type × work-item dimension, and the tiny NDRanges whose
//! sample windows overlap.

#[path = "../crates/sim/tests/support/shadow_profile.rs"]
mod shadow_profile;

use shadow_profile::assert_matches_shadow;
use sim::{compile_kernel, ArgValue, Memory, NdRange};
use workloads::synthetic::{parse_pattern, DType, SyntheticParams, PATTERN_NAMES};
use workloads::{pagerank, polybench, spmv, BuiltKernel};

/// Profile `build`'s kernel at each NDRange against the shadow, binding
/// fresh inputs for every run.
fn check(build: impl Fn(&mut Memory) -> BuiltKernel, nds: &[NdRange]) {
    let built = build(&mut Memory::new());
    let ck = compile_kernel(&built.kernel).expect("workload kernels lower");
    for nd in nds {
        let ctx = format!("{} at {:?}/{:?}", built.name, nd.global, nd.local);
        assert_matches_shadow(&ck, nd, |mem| build(mem).args, &ctx);
    }
}

/// The three work-group shapes the `cold` benchmark launches each entry
/// with.
fn shapes(nd: NdRange) -> Vec<NdRange> {
    let g = nd.global;
    match (nd.work_dim, nd.local[1]) {
        (1, _) => [64, 128, 256].map(|w| NdRange::d1(g[0], w)).to_vec(),
        (_, 1) => [64, 128, 256].map(|w| NdRange::d2([g[0], g[1]], [w, 1])).to_vec(),
        _ => [[8, 8], [16, 16], [32, 8]].map(|l| NdRange::d2([g[0], g[1]], l)).to_vec(),
    }
}

fn check_shapes(build: impl Fn(&mut Memory) -> BuiltKernel) {
    let nd = build(&mut Memory::new()).nd;
    check(build, &shapes(nd));
}

#[test]
fn real_world_kernels_match_the_shadow_at_cold_sizes() {
    type Build1 = fn(&mut Memory, usize, usize) -> BuiltKernel;
    type Build2 = fn(&mut Memory, usize, [usize; 2]) -> BuiltKernel;
    let one_d: [Build1; 7] = [
        polybench::atax1,
        polybench::atax2,
        polybench::bicg1,
        polybench::bicg2,
        polybench::gesummv,
        polybench::mvt1,
        polybench::mvt2,
    ];
    let fdtd: [Build2; 3] = [polybench::fdtd1, polybench::fdtd2, polybench::fdtd3];
    for n in [8192, 16384] {
        for f in one_d {
            check_shapes(|mem| f(mem, n, 256));
        }
        for f in fdtd {
            check_shapes(|mem| f(mem, n, [16, 16]));
        }
    }
    for n in [4096, 8192] {
        check_shapes(|mem| polybench::conv2d(mem, n, [16, 16]));
        check_shapes(|mem| pagerank::pagerank(mem, n, 256));
        check_shapes(|mem| spmv::spmv_csr(mem, n, 256));
    }
    for n in [512, 1024] {
        check_shapes(|mem| polybench::syr2k(mem, n, [16, 16]));
    }
}

#[test]
fn every_synthetic_pattern_matches_the_shadow() {
    for (i, name) in PATTERN_NAMES.iter().enumerate() {
        let pattern = parse_pattern(name).expect("pattern table is valid");
        for dtype in [DType::F32, DType::I32] {
            for dim in [1, 2] {
                let size = match dtype {
                    DType::I32 => 4096,
                    DType::F32 => 16384,
                };
                let params =
                    SyntheticParams { pattern, gamma: [0, 2, 4][i % 3], dim, dtype, size, wg: 256 };
                check(|mem| params.build(mem, 0xC01D ^ i as u64), &[params.nd_range()]);
            }
        }
    }
}

/// Global sizes 1–15: the start, middle and end windows overlap, and the
/// sampler must drop the repeated ids.
#[test]
fn overlapping_sample_windows_match_the_shadow() {
    let sources = [
        "__kernel void row(__global float* A, __global float* y, int N) {
            int i = get_global_id(0);
            float s = 0.0f;
            for (int j = 0; j < N; j++) { s = s + A[i * N + j]; }
            y[i] = s;
        }",
        "__kernel void csr(__global int* rp, __global float* v, __global float* y) {
            int i = get_global_id(0);
            float s = 0.0f;
            for (int j = rp[i]; j < rp[i + 1]; j++) { s = s + v[j]; }
            y[i] = s * 2.0f;
        }",
    ];
    for src in sources {
        let kernel = clc::compile(src).unwrap().kernels.remove(0);
        let ck = compile_kernel(&kernel).unwrap();
        for g in 1..=15usize {
            // Row i of the CSR structure holds 3·(i mod 5) elements.
            let rp: Vec<i32> = (0..=g).map(|i| (0..i).map(|r| 3 * (r % 5) as i32).sum()).collect();
            let setup = |mem: &mut Memory| match kernel.name.as_str() {
                "row" => vec![
                    ArgValue::Buffer(mem.alloc_f32(vec![1.0; g * 16])),
                    ArgValue::Buffer(mem.alloc_f32(vec![0.0; g])),
                    ArgValue::Int(16),
                ],
                _ => vec![
                    ArgValue::Buffer(mem.alloc_i32(rp.clone())),
                    ArgValue::Buffer(mem.alloc_f32(vec![1.0; 3 * 4 * g + 1])),
                    ArgValue::Buffer(mem.alloc_f32(vec![0.0; g])),
                ],
            };
            for local in [1, g] {
                let ctx = format!("{} at global {} local {}", kernel.name, g, local);
                assert_matches_shadow(&ck, &NdRange::d1(g, local), setup, &ctx);
            }
        }
    }
}
