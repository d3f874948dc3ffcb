//! A full application through Dopia: FDTD-2D electromagnetic simulation,
//! `T` time steps of three dependent kernels each, driven through the
//! in-order [`CommandQueue`] the way a real OpenCL host program would be.
//!
//! Shows the per-application view the paper's runtime gives transparently:
//! every one of the `3 T` launches gets its own DoP decision, and the queue
//! reports end-to-end accounting with model overhead separated out.
//!
//! ```sh
//! cargo run --release --example fdtd_app
//! ```

use dopia::prelude::*;

fn main() {
    let engine = Engine::kaveri();
    println!("training model...");
    let (dataset, _) = training::tiny_training_set(&engine);
    let dopia = Dopia::new(engine, PerfModel::train(ModelKind::Dt, &dataset, 11));

    // One program holds all three kernels, like the real FDTD host code.
    let source = format!(
        "{}\n{}\n{}",
        workloads::polybench::FDTD1_SRC,
        workloads::polybench::FDTD2_SRC,
        workloads::polybench::FDTD3_SRC,
    );
    let program = dopia.create_program_with_source(&source).unwrap();

    let n = 4096usize;
    let steps = 5;
    let mut mem = Memory::new();
    let ex = mem.alloc_virtual_f32(n * n, 0xE1);
    let ey = mem.alloc_virtual_f32(n * n, 0xE2);
    let hz = mem.alloc_virtual_f32(n * n, 0xE3);
    let nn = ArgValue::Int(n as i64);
    let nd = NdRange::d2([n, n], [16, 16]);

    let mut queue = CommandQueue::new(&dopia);
    println!(
        "running FDTD-2D on a {n}x{n} grid for {steps} time steps ({} launches)...",
        3 * steps
    );
    for step in 0..steps {
        let e1 = queue
            .enqueue_nd_range_kernel(
                &program,
                "fdtd1",
                &[ArgValue::Buffer(ey), ArgValue::Buffer(hz), nn, nn],
                nd,
                &mem,
            )
            .unwrap()
            .result;
        queue
            .enqueue_nd_range_kernel(
                &program,
                "fdtd2",
                &[ArgValue::Buffer(ex), ArgValue::Buffer(hz), nn, nn],
                nd,
                &mem,
            )
            .unwrap();
        queue
            .enqueue_nd_range_kernel(
                &program,
                "fdtd3",
                &[ArgValue::Buffer(ex), ArgValue::Buffer(ey), ArgValue::Buffer(hz), nn, nn],
                nd,
                &mem,
            )
            .unwrap();
        if step == 0 {
            println!(
                "  step 0, fdtd1: CPU {} + GPU {}/8, {:.2} ms",
                e1.selection.point.cpu_cores,
                e1.selection.point.gpu_eighths,
                e1.kernel_time_s * 1e3
            );
        }
    }

    let summary = queue.finish();
    println!("\nqueue summary:");
    println!("  launches      : {}", summary.launches);
    println!("  kernel time   : {:.2} ms", summary.kernel_time_s * 1e3);
    println!(
        "  model overhead: {:.3} ms ({:.3}% of total)",
        summary.inference_s * 1e3,
        100.0 * summary.inference_s / summary.total_time_s
    );
    println!("\nper-kernel breakdown:");
    for (name, t) in queue.breakdown() {
        println!("  {:<8} {:.2} ms", name, t * 1e3);
    }
}
