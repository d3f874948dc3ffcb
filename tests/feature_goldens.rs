//! Golden Table 1 feature vectors of every evaluated kernel: the 14
//! real-world kernels and the 17 synthetic access patterns (each at two
//! configurations, one `float` 1-D and one `int` 2-D, so both arithmetic
//! classes and both work-item shapes are pinned). These vectors are the
//! model's inputs; any change to how the extractor walks a kernel or
//! recognizes a builtin shows up here as a diff against the exact
//! `CodeFeatures` Display string.

use dopia_core::features::extract_code_features;
use sim::Memory;
use workloads::synthetic::{parse_pattern, DType, SyntheticParams, PATTERN_NAMES};

const REAL_WORLD: &[(&str, &str)] = &[
    (
        "2DCONV",
        "mem_constant=0 mem_continuous=10 mem_stride=0 mem_random=0 arith_int=34 arith_float=21",
    ),
    (
        "ATAX1",
        "mem_constant=0 mem_continuous=3 mem_stride=0 mem_random=0 arith_int=3 arith_float=2",
    ),
    (
        "ATAX2",
        "mem_constant=0 mem_continuous=2 mem_stride=1 mem_random=0 arith_int=3 arith_float=2",
    ),
    (
        "BICG1",
        "mem_constant=0 mem_continuous=3 mem_stride=0 mem_random=0 arith_int=3 arith_float=2",
    ),
    (
        "BICG2",
        "mem_constant=0 mem_continuous=2 mem_stride=1 mem_random=0 arith_int=3 arith_float=2",
    ),
    (
        "FDTD1",
        "mem_constant=0 mem_continuous=4 mem_stride=0 mem_random=0 arith_int=9 arith_float=3",
    ),
    (
        "FDTD2",
        "mem_constant=0 mem_continuous=4 mem_stride=0 mem_random=0 arith_int=9 arith_float=3",
    ),
    (
        "FDTD3",
        "mem_constant=0 mem_continuous=6 mem_stride=0 mem_random=0 arith_int=16 arith_float=5",
    ),
    (
        "Gesummv",
        "mem_constant=0 mem_continuous=5 mem_stride=0 mem_random=0 arith_int=5 arith_float=7",
    ),
    (
        "MVT1",
        "mem_constant=0 mem_continuous=4 mem_stride=0 mem_random=0 arith_int=3 arith_float=3",
    ),
    (
        "MVT2",
        "mem_constant=0 mem_continuous=3 mem_stride=1 mem_random=0 arith_int=3 arith_float=3",
    ),
    (
        "SYR2K",
        "mem_constant=0 mem_continuous=6 mem_stride=0 mem_random=0 arith_int=13 arith_float=7",
    ),
    (
        "PageRank",
        "mem_constant=0 mem_continuous=4 mem_stride=0 mem_random=2 arith_int=2 arith_float=6",
    ),
    (
        "SpMV",
        "mem_constant=0 mem_continuous=5 mem_stride=0 mem_random=1 arith_int=2 arith_float=2",
    ),
];

const SYNTHETIC: &[(&str, &str)] = &[
    (
        "1mat3d2c/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=0 mem_random=0 arith_int=7 arith_float=2",
    ),
    (
        "1mat3d4c/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=0 mem_random=0 arith_int=10 arith_float=0",
    ),
    (
        "1mat3d2c1R/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=0 mem_random=1 arith_int=7 arith_float=2",
    ),
    (
        "1mat3d4c1R/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=0 mem_random=1 arith_int=10 arith_float=0",
    ),
    (
        "1mat3d2c1T/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=1 mem_stride=1 mem_random=0 arith_int=12 arith_float=2",
    ),
    (
        "1mat3d4c1T/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=1 mem_stride=1 mem_random=0 arith_int=15 arith_float=0",
    ),
    (
        "1mat3d2c1C/f32/dim1/16384/wg64",
        "mem_constant=1 mem_continuous=1 mem_stride=0 mem_random=0 arith_int=7 arith_float=2",
    ),
    (
        "1mat3d4c1C/i32/dim2/16384/wg64",
        "mem_constant=1 mem_continuous=1 mem_stride=0 mem_random=0 arith_int=10 arith_float=0",
    ),
    (
        "1mat3d2c1C1R/f32/dim1/16384/wg64",
        "mem_constant=1 mem_continuous=2 mem_stride=0 mem_random=1 arith_int=7 arith_float=5",
    ),
    (
        "1mat3d4c1C1R/i32/dim2/16384/wg64",
        "mem_constant=1 mem_continuous=2 mem_stride=0 mem_random=1 arith_int=15 arith_float=0",
    ),
    (
        "1mat3d2c1C1T/f32/dim1/16384/wg64",
        "mem_constant=1 mem_continuous=1 mem_stride=1 mem_random=0 arith_int=12 arith_float=5",
    ),
    (
        "1mat3d4c1C1T/i32/dim2/16384/wg64",
        "mem_constant=1 mem_continuous=1 mem_stride=1 mem_random=0 arith_int=20 arith_float=0",
    ),
    (
        "2mat3d2c/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=3 mem_stride=0 mem_random=0 arith_int=7 arith_float=5",
    ),
    (
        "2mat3d4c/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=3 mem_stride=0 mem_random=0 arith_int=15 arith_float=0",
    ),
    (
        "2mat3d2c1R/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=3 mem_stride=0 mem_random=1 arith_int=7 arith_float=5",
    ),
    (
        "2mat3d4c1R/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=3 mem_stride=0 mem_random=1 arith_int=15 arith_float=0",
    ),
    (
        "2mat3d2c1T/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=1 mem_random=0 arith_int=12 arith_float=5",
    ),
    (
        "2mat3d4c1T/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=1 mem_random=0 arith_int=20 arith_float=0",
    ),
    (
        "2mat3d2c1R1T/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=1 mem_random=1 arith_int=12 arith_float=5",
    ),
    (
        "2mat3d4c1R1T/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=1 mem_random=1 arith_int=20 arith_float=0",
    ),
    (
        "2mat3d2c1C/f32/dim1/16384/wg64",
        "mem_constant=1 mem_continuous=2 mem_stride=0 mem_random=0 arith_int=7 arith_float=5",
    ),
    (
        "2mat3d4c1C/i32/dim2/16384/wg64",
        "mem_constant=1 mem_continuous=2 mem_stride=0 mem_random=0 arith_int=15 arith_float=0",
    ),
    (
        "2mat3d2c1C1R/f32/dim1/16384/wg64",
        "mem_constant=1 mem_continuous=2 mem_stride=0 mem_random=1 arith_int=7 arith_float=5",
    ),
    (
        "2mat3d4c1C1R/i32/dim2/16384/wg64",
        "mem_constant=1 mem_continuous=2 mem_stride=0 mem_random=1 arith_int=15 arith_float=0",
    ),
    (
        "2mat3d2c1C1T/f32/dim1/16384/wg64",
        "mem_constant=1 mem_continuous=1 mem_stride=1 mem_random=0 arith_int=12 arith_float=5",
    ),
    (
        "2mat3d4c1C1T/i32/dim2/16384/wg64",
        "mem_constant=1 mem_continuous=1 mem_stride=1 mem_random=0 arith_int=20 arith_float=0",
    ),
    (
        "2mat3d2c1C1R1T/f32/dim1/16384/wg64",
        "mem_constant=1 mem_continuous=2 mem_stride=1 mem_random=1 arith_int=12 arith_float=8",
    ),
    (
        "2mat3d4c1C1R1T/i32/dim2/16384/wg64",
        "mem_constant=1 mem_continuous=2 mem_stride=1 mem_random=1 arith_int=25 arith_float=0",
    ),
    (
        "1mat4d2c/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=0 mem_random=0 arith_int=12 arith_float=2",
    ),
    (
        "1mat4d4c/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=0 mem_random=0 arith_int=15 arith_float=0",
    ),
    (
        "1mat4d2c1R/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=0 mem_random=1 arith_int=12 arith_float=2",
    ),
    (
        "1mat4d4c1R/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=2 mem_stride=0 mem_random=1 arith_int=15 arith_float=0",
    ),
    (
        "1mat4d2c1T/f32/dim1/16384/wg64",
        "mem_constant=0 mem_continuous=1 mem_stride=1 mem_random=0 arith_int=21 arith_float=2",
    ),
    (
        "1mat4d4c1T/i32/dim2/16384/wg64",
        "mem_constant=0 mem_continuous=1 mem_stride=1 mem_random=0 arith_int=24 arith_float=0",
    ),
];

fn check(label: &str, actual: &[(String, String)], golden: &[(&str, &str)]) {
    let table: String = actual
        .iter()
        .map(|(name, f)| format!("    (\"{}\", \"{}\"),\n", name, f))
        .collect();
    let expected: Vec<(String, String)> = golden
        .iter()
        .map(|(n, f)| (n.to_string(), f.to_string()))
        .collect();
    assert_eq!(
        actual,
        expected.as_slice(),
        "{} feature goldens moved; actual table:\n{}",
        label,
        table
    );
}

#[test]
fn real_world_feature_vectors_are_pinned() {
    let mut mem = Memory::new();
    let actual: Vec<(String, String)> = workloads::real_world_suite(&mut mem, 1)
        .iter()
        .map(|b| (b.name.clone(), extract_code_features(&b.kernel).to_string()))
        .collect();
    check("real-world", &actual, REAL_WORLD);
}

#[test]
fn synthetic_pattern_feature_vectors_are_pinned() {
    let mut actual = Vec::new();
    for name in PATTERN_NAMES {
        let pattern = parse_pattern(name).unwrap();
        for (dtype, dim, gamma) in [(DType::F32, 1, 2), (DType::I32, 2, 4)] {
            let params = SyntheticParams {
                pattern,
                gamma,
                dim,
                dtype,
                size: 16384,
                wg: 64,
            };
            let kernel = clc::compile(&params.source()).unwrap().kernels.remove(0);
            actual.push((params.name(), extract_code_features(&kernel).to_string()));
        }
    }
    check("synthetic", &actual, SYNTHETIC);
}
