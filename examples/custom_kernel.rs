//! Bring your own kernel: write OpenCL-C, inspect what Dopia's compile-time
//! pipeline does with it — extracted features, the malleable GPU rewrite
//! (paper Fig. 5), the generated CPU code (paper Fig. 7) — and verify the
//! rewrite is semantics-preserving by running both variants functionally.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use dopia::core::codegen;
use dopia::core::features::extract_code_features;
use dopia::prelude::*;
use sim::interp::run_functional;

const MY_KERNEL: &str = r#"
__kernel void saxpy_strided(__global float* x, __global float* y,
                            __global int* perm, float a, int n, int stride) {
    int i = get_global_id(0);
    if (i < n) {
        // one continuous stream, one strided read, one random gather
        y[i] = a * x[i] + x[(i * stride) % n] + y[perm[i]];
    }
}
"#;

fn main() {
    // ----- compile-time pipeline, piece by piece ---------------------------
    let program = clc::compile(MY_KERNEL).expect("kernel compiles");
    let kernel = &program.kernels[0];

    let features = extract_code_features(kernel);
    println!("Table-1 code features: {:#?}", features);

    let malleable = codegen::transform_malleable(kernel, 1).expect("transform succeeds");
    println!("\n--- malleable GPU kernel (paper Fig. 5) ---");
    println!("{}", clc::printer::print_kernel(&malleable));

    println!("--- generated CPU code (paper Fig. 7) ---");
    println!("{}", codegen::generate_cpu_source(kernel, 1));

    // ----- prove the rewrite preserves semantics ----------------------------
    let n = 512usize;
    let stride = 7i64;
    let run_variant = |k: &clc::Kernel, extra: &[ArgValue]| -> Vec<f32> {
        let mut mem = Memory::new();
        let x = mem.alloc_f32((0..n).map(|i| (i as f32).sin()).collect());
        let y = mem.alloc_f32((0..n).map(|i| (i as f32).cos()).collect());
        let perm = mem.alloc_i32((0..n as i32).map(|i| (i * 37) % n as i32).collect());
        let mut args = vec![
            ArgValue::Buffer(x),
            ArgValue::Buffer(y),
            ArgValue::Buffer(perm),
            ArgValue::Float(1.5),
            ArgValue::Int(n as i64),
            ArgValue::Int(stride),
        ];
        args.extend_from_slice(extra);
        run_functional(k, &args, &NdRange::d1(n, 64), &mut mem).expect("functional run succeeds");
        mem.read_f32(y).to_vec()
    };

    let expected = run_variant(kernel, &[]);
    for (dop_mod, dop_alloc) in [(8i64, 1i64), (8, 4), (8, 8)] {
        let got = run_variant(&malleable, &[ArgValue::Int(dop_mod), ArgValue::Int(dop_alloc)]);
        assert_eq!(expected, got, "mismatch at mod={dop_mod} alloc={dop_alloc}");
        println!(
            "malleable output identical at dop_gpu_mod={}, dop_gpu_alloc={} ({}/{} lanes active)",
            dop_mod, dop_alloc, dop_alloc, dop_mod
        );
    }

    // ----- and let Dopia manage it end-to-end -------------------------------
    let engine = Engine::kaveri();
    let (dataset, _) = training::tiny_training_set(&engine);
    let dopia = Dopia::new(engine, PerfModel::train(ModelKind::Dt, &dataset, 3));
    let program = dopia.create_program_with_source(MY_KERNEL).unwrap();
    let big_n = 65536usize;
    let mut mem = Memory::new();
    let x = mem.alloc_f32(vec![1.0; big_n]);
    let y = mem.alloc_f32(vec![2.0; big_n]);
    let perm = mem.alloc_i32((0..big_n as i32).map(|i| (i * 131) % big_n as i32).collect());
    let run = dopia
        .enqueue_nd_range_kernel(
            &program,
            "saxpy_strided",
            &[
                ArgValue::Buffer(x),
                ArgValue::Buffer(y),
                ArgValue::Buffer(perm),
                ArgValue::Float(1.5),
                ArgValue::Int(big_n as i64),
                ArgValue::Int(7),
            ],
            NdRange::d1(big_n, 256),
            &mut mem,
        )
        .unwrap();
    println!(
        "\nDopia-managed launch of n={}: CPU {} + GPU {}/8, {:.3} ms",
        big_n,
        run.selection.point.cpu_cores,
        run.selection.point.gpu_eighths,
        run.kernel_time_s * 1e3
    );
}
