//! Property-based tests of the compiler frontend: the printer is a fixed
//! point, generated synthetic kernels always compile, and feature
//! extraction is total over the workload space.

use dopia::core::features::extract_code_features;
use proptest::prelude::*;
use workloads::synthetic::{parse_pattern, DType, SyntheticParams, PATTERN_NAMES};

fn arb_params() -> impl Strategy<Value = SyntheticParams> {
    (
        0usize..PATTERN_NAMES.len(),
        prop_oneof![Just(0usize), Just(1), Just(2), Just(3), Just(4)],
        1usize..=2,
        prop_oneof![Just(DType::F32), Just(DType::I32)],
        prop_oneof![Just(64usize), Just(256), Just(1024)],
        prop_oneof![Just(16usize), Just(64)],
    )
        .prop_map(|(pi, gamma, dim, dtype, size, wg)| SyntheticParams {
            pattern: parse_pattern(PATTERN_NAMES[pi]).unwrap(),
            gamma,
            dim,
            dtype,
            size,
            wg,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print(compile(src)) reparses to the same printed form (printer is a
    /// fixed point) for every generated kernel.
    #[test]
    fn printer_is_fixed_point_on_generated_kernels(params in arb_params()) {
        let src = params.source();
        let program = clc::compile(&src).unwrap();
        let printed = clc::printer::print_program(&program);
        let reparsed = clc::compile(&printed)
            .unwrap_or_else(|e| panic!("{}: {}\n{}", params.name(), e, printed));
        prop_assert_eq!(printed.clone(), clc::printer::print_program(&reparsed));
    }

    /// Feature extraction is total and consistent with the pattern's
    /// modifier counts.
    #[test]
    fn features_match_pattern_modifiers(params in arb_params()) {
        let program = clc::compile(&params.source()).unwrap();
        let f = extract_code_features(&program.kernels[0]);
        let p = &params.pattern;
        prop_assert_eq!(f.mem_random, p.epsilon as u32, "{:?} for {}", f, params.name());
        prop_assert_eq!(f.mem_constant, p.theta as u32, "{:?} for {}", f, params.name());
        prop_assert_eq!(f.mem_stride, p.delta as u32, "{:?} for {}", f, params.name());
        // All terms + the output store + the indirection array read are
        // memory ops; continuous = everything not claimed by a modifier.
        let terms = p.term_kinds().len() as u32;
        let idx_reads = if p.epsilon > 0 { p.epsilon as u32 } else { 0 };
        let expected_total = terms + 1 + idx_reads;
        prop_assert_eq!(f.mem_total(), expected_total, "{:?} for {}", f, params.name());
        // Data type drives the arithmetic class of the term math.
        match params.dtype {
            DType::F32 => prop_assert!(f.arith_float >= terms.saturating_sub(1)),
            DType::I32 => prop_assert!(f.arith_float == 0, "{:?}", f),
        }
    }

    /// The profiler never fails on any synthetic workload and reports
    /// plausible magnitudes.
    #[test]
    fn profiler_is_total_over_synthetic_space(params in arb_params()) {
        let engine = sim::Engine::kaveri();
        let mut mem = sim::Memory::new();
        let built = params.build(&mut mem, 99);
        let profile = engine.profile(built.spec(), &mem).unwrap();
        let inner: f64 = params.shape()[params.dim..].iter().product::<usize>() as f64;
        // Each term makes ~inner accesses per item (plus the OUT store).
        let per_item = profile.accesses_per_item();
        prop_assert!(per_item >= inner * 0.9, "{}: {} accesses", params.name(), per_item);
        prop_assert!(profile.divergence >= 1.0);
    }
}
