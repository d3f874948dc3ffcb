//! Property-based validation of Dopia's malleable-kernel transform
//! (paper Section 6): for *any* synthetic workload shape and *any* valid
//! throttle level, the malleable GPU kernel must compute exactly what the
//! original computes.

use dopia::core::codegen::{check_malleable, transform_malleable};
use proptest::prelude::*;
use sim::interp::run_functional;
use sim::{ArgValue, Memory};
use workloads::synthetic::{DType, SyntheticParams, PATTERN_NAMES};

/// Build a *small, real-buffer* instance of a synthetic workload so the
/// functional interpreter can verify outputs byte-for-byte.
fn build_real(params: &SyntheticParams, seed: u64) -> (Memory, Vec<ArgValue>, usize) {
    let mut mem = Memory::new();
    let total = params.total_elems();
    let kinds = params.pattern.term_kinds();
    let mut args = Vec::new();
    // OUT
    let out = mem.alloc_f32(vec![0.0; total]);
    args.push(ArgValue::Buffer(out));
    for t in 0..kinds.len() {
        let data: Vec<f32> = (0..total)
            .map(|i| ((i as u64 ^ seed ^ t as u64) % 97) as f32 * 0.25)
            .collect();
        args.push(ArgValue::Buffer(mem.alloc_f32(data)));
    }
    if params.pattern.epsilon > 0 {
        let idx: Vec<i32> = (0..total)
            .map(|i| (((i as u64).wrapping_mul(2654435761) ^ seed) % total as u64) as i32)
            .collect();
        args.push(ArgValue::Buffer(mem.alloc_i32(idx)));
    }
    for &n in &params.shape() {
        args.push(ArgValue::Int(n as i64));
    }
    for g in 0..params.gamma {
        args.push(ArgValue::Float(1.0 + g as f32 * 0.25));
    }
    if params.pattern.theta > 0 {
        args.push(ArgValue::Int(3));
    }
    (mem, args, out.0)
}

fn run_and_read(
    kernel: &clc::Kernel,
    params: &SyntheticParams,
    extra: &[ArgValue],
    seed: u64,
) -> Vec<f32> {
    let (mut mem, mut args, out_idx) = build_real(params, seed);
    args.extend_from_slice(extra);
    run_functional(kernel, &args, &params.nd_range(), &mut mem)
        .unwrap_or_else(|e| panic!("{}: {}", params.name(), e));
    mem.read_f32(sim::BufferId(out_idx)).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every synthetic pattern, in both launch dimensionalities, with a
    /// random throttle level, is semantics-preserving under the malleable
    /// transform.
    #[test]
    fn malleable_transform_preserves_semantics(
        pattern_idx in 0usize..PATTERN_NAMES.len(),
        dim in 1usize..=2,
        gamma in prop_oneof![Just(0usize), Just(2), Just(4)],
        dop_alloc in 1i64..=8,
        seed in 0u64..1000,
    ) {
        let pattern = workloads::synthetic::parse_pattern(PATTERN_NAMES[pattern_idx]).unwrap();
        let params = SyntheticParams {
            pattern,
            gamma,
            dim,
            dtype: DType::F32,
            size: 64, // small: full functional execution
            wg: 16,
        };
        let program = clc::compile(&params.source()).unwrap();
        let original = &program.kernels[0];
        let malleable = transform_malleable(original, dim).unwrap();

        let expected = run_and_read(original, &params, &[], seed);
        let got = run_and_read(
            &malleable,
            &params,
            &[ArgValue::Int(8), ArgValue::Int(dop_alloc)],
            seed,
        );
        prop_assert_eq!(expected, got);
    }

    /// The transformed kernel's printed source always recompiles.
    #[test]
    fn malleable_output_recompiles(
        pattern_idx in 0usize..PATTERN_NAMES.len(),
        dim in 1usize..=2,
    ) {
        let pattern = workloads::synthetic::parse_pattern(PATTERN_NAMES[pattern_idx]).unwrap();
        let params = SyntheticParams {
            pattern,
            gamma: 2,
            dim,
            dtype: DType::F32,
            size: 64,
            wg: 16,
        };
        let program = clc::compile(&params.source()).unwrap();
        let malleable = transform_malleable(&program.kernels[0], dim).unwrap();
        let printed = clc::printer::print_kernel(&malleable);
        prop_assert!(clc::compile(&printed).is_ok(), "reprinted source failed:\n{}", printed);
    }
}

/// Non-property sanity: the degenerate throttle (1 lane of 64) still
/// completes the whole group.
#[test]
fn single_active_lane_completes_group() {
    let params = SyntheticParams {
        pattern: workloads::synthetic::parse_pattern("2mat3d").unwrap(),
        gamma: 0,
        dim: 1,
        dtype: DType::F32,
        size: 64,
        wg: 64,
    };
    let program = clc::compile(&params.source()).unwrap();
    let malleable = transform_malleable(&program.kernels[0], 1).unwrap();
    let expected = run_and_read(&program.kernels[0], &params, &[], 5);
    let got = run_and_read(&malleable, &params, &[ArgValue::Int(64), ArgValue::Int(1)], 5);
    assert_eq!(expected, got);
}

/// Kernels the transform rejects, including nested queries whose error
/// message prints a partly rewritten argument (and a user identifier that
/// forces a suffixed work-id name).
const REJECTED_SRCS: [&str; 4] = [
    "__kernel void k(__global float* a, int d) { a[get_global_id(d)] = 1.0f; }",
    "__kernel void k(__global float* a) { a[get_global_id(get_global_id(0))] = 1.0f; }",
    "__kernel void k(__global float* a, int dynamic_work) {
        a[get_local_id(get_global_id(0) + get_local_id(1) + dynamic_work)] = 1.0f;
    }",
    "__kernel void k(__global float* a, int d) {
        int i = get_global_id(0);
        if (i > 0) { a[get_global_id(get_local_id(d))] = 2.0f; }
    }",
];

/// The build path's read-only check accepts and rejects exactly what the
/// 1-D and 2-D transforms do, with the same error, on every shipped
/// kernel source.
#[test]
fn check_malleable_agrees_with_both_transforms() {
    let mut sources: Vec<String> = [
        workloads::polybench::ATAX1_SRC,
        workloads::polybench::ATAX2_SRC,
        workloads::polybench::BICG1_SRC,
        workloads::polybench::BICG2_SRC,
        workloads::polybench::CONV2D_SRC,
        workloads::polybench::FDTD1_SRC,
        workloads::polybench::FDTD2_SRC,
        workloads::polybench::FDTD3_SRC,
        workloads::polybench::GEMM_SRC,
        workloads::polybench::GESUMMV_SRC,
        workloads::polybench::MVT1_SRC,
        workloads::polybench::MVT2_SRC,
        workloads::polybench::SYR2K_SRC,
        workloads::spmv::SPMV_SRC,
        workloads::pagerank::PAGERANK_SRC,
    ]
    .iter()
    .chain(REJECTED_SRCS.iter())
    .map(|s| s.to_string())
    .collect();
    sources.extend(workloads::synthetic::training_grid().iter().step_by(17).map(|p| p.source()));
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/kernels");
    for entry in std::fs::read_dir(examples).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "cl") {
            sources.push(std::fs::read_to_string(path).unwrap());
        }
    }

    let mut rejected = 0;
    for source in &sources {
        for kernel in &clc::compile(source).unwrap().kernels {
            let transformed = transform_malleable(kernel, 1)
                .and(transform_malleable(kernel, 2))
                .map(|_| ());
            rejected += transformed.is_err() as usize;
            assert_eq!(check_malleable(kernel), transformed, "{}", kernel.name);
        }
    }
    assert_eq!(rejected, REJECTED_SRCS.len(), "every rejected kernel is rejected");
}
