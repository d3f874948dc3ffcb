//! Quickstart: train a model, compile a kernel through Dopia, launch it,
//! and compare against the paper's static baselines and the oracle.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dopia::prelude::*;

fn main() {
    // 1. Pick a platform. Both of the paper's machines are available:
    //    `Engine::kaveri()` (AMD A10-7850K) and `Engine::skylake()`
    //    (Intel i7-6700).
    let engine = Engine::kaveri();
    println!("platform: {}", engine.platform.name);

    // 2. Train the performance model. The full pipeline trains on the
    //    1,224-workload synthetic grid (see crates/bench); for a quick
    //    start a sub-grid is enough.
    println!("training a DecisionTree model on a sub-grid of the synthetic workloads...");
    let (dataset, _records) = training::tiny_training_set(&engine);
    let model = PerfModel::train(ModelKind::Dt, &dataset, 42);
    let dopia = Dopia::new(engine, model);

    // 3. Compile a kernel. Dopia extracts the Table 1 code features and
    //    rewrites the kernel into its malleable form transparently.
    let program = dopia
        .create_program_with_source(workloads::polybench::GESUMMV_SRC)
        .expect("gesummv compiles");
    let prepared = program.kernel("gesummv").unwrap();
    println!("\nstatic code features: {:?}", prepared.features);

    // 4. Launch. Dopia sweeps its model over all 44 DoP configurations,
    //    picks the expected-best one, and co-executes with dynamic
    //    CPU-pull / GPU-push distribution.
    let n = 16384;
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, n, 256);
    let run = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
        .expect("launch succeeds");
    println!(
        "\nDopia chose {} CPU cores + {}/8 of the GPU ({} µs model inference)",
        run.selection.point.cpu_cores,
        run.selection.point.gpu_eighths,
        (run.selection.inference_s * 1e6).round()
    );
    println!(
        "kernel time {:.2} ms  ({} groups on CPU, {} on GPU, {:.1}M memory requests)",
        run.kernel_time_s * 1e3,
        run.report.cpu_groups,
        run.report.gpu_groups,
        run.report.mem_requests() / 1e6
    );

    // 5. Compare against the paper's baselines and the exhaustive oracle.
    let profile = dopia
        .profile(prepared, &built.args, built.nd, &mut mem)
        .unwrap();
    let mut oracle_time = f64::INFINITY;
    for point in dopia.space() {
        let t = dopia
            .engine()
            .simulate(&profile, &built.nd, point.dop(), Schedule::Dynamic { chunk_divisor: 10 }, true)
            .time_s;
        oracle_time = oracle_time.min(t);
    }
    println!("\n               time      vs oracle");
    for b in Baseline::all() {
        let r = baselines::simulate_baseline(dopia.engine(), &profile, &built.nd, b);
        println!(
            "  {:<10} {:>8.2} ms   {:>5.1}%",
            b.label(),
            r.time_s * 1e3,
            100.0 * oracle_time / r.time_s
        );
    }
    println!(
        "  {:<10} {:>8.2} ms   {:>5.1}%   <- model-chosen, incl. overhead",
        "Dopia",
        run.total_time_s * 1e3,
        100.0 * oracle_time / run.total_time_s
    );
    println!("  {:<10} {:>8.2} ms   100.0%", "Exhaustive", oracle_time * 1e3);
}
