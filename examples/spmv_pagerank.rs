//! Irregular workloads through Dopia: CSR SpMV and ten iterations of
//! PageRank, each launch managed end-to-end (feature extraction → DoP
//! prediction → dynamic co-execution).
//!
//! Shows why irregular kernels are CPU-affine on integrated parts: GPU
//! wavefronts pay the *longest* row in each lockstep bundle and the random
//! gathers thrash the small GPU L2, while CPU cores pay mean work with the
//! source vector resident in their private caches.
//!
//! ```sh
//! cargo run --release --example spmv_pagerank
//! ```

use dopia::prelude::*;
use workloads::{data, pagerank, spmv};

fn main() {
    let engine = Engine::kaveri();
    println!("training model...");
    let (dataset, _) = training::tiny_training_set(&engine);
    let model = PerfModel::train(ModelKind::Dt, &dataset, 7);
    let dopia = Dopia::new(engine, model);

    // ----- SpMV -------------------------------------------------------------
    let rows = 16384;
    let mut mem = Memory::new();
    let matrix = data::random_csr(rows, 16, 1);
    let built = spmv::build_from_csr(&mut mem, &matrix, 256);
    let program = dopia.create_program_with_source(spmv::SPMV_SRC).unwrap();
    let prepared = program.kernel("spmv").unwrap();
    println!(
        "\nSpMV: {} rows, {} nonzeros, features {:?}",
        rows,
        matrix.nnz(),
        prepared.features
    );

    let profile = dopia.profile(prepared, &built.args, built.nd, &mem).unwrap();
    println!("  measured divergence (max/mean row work): {:.2}", profile.divergence);
    let run = dopia.launch_with_profile(prepared, &profile, built.nd);
    println!(
        "  Dopia chose CPU {} + GPU {}/8 -> {:.2} ms ({} CPU groups / {} GPU groups)",
        run.selection.point.cpu_cores,
        run.selection.point.gpu_eighths,
        run.kernel_time_s * 1e3,
        run.report.cpu_groups,
        run.report.gpu_groups,
    );
    for b in Baseline::all() {
        let r = baselines::simulate_baseline(dopia.engine(), &profile, &built.nd, b);
        println!("  {:<4} baseline -> {:.2} ms", b.label(), r.time_s * 1e3);
    }

    // ----- PageRank -----------------------------------------------------------
    println!("\nPageRank: 10 managed iterations over a {}-vertex graph", rows);
    let mut mem = Memory::new();
    let graph = data::random_csr(rows, 16, 2);
    let mut inst = pagerank::instance(&mut mem, &graph, 256);
    let program = dopia.create_program_with_source(pagerank::PAGERANK_SRC).unwrap();
    let _prepared = program.kernel("pagerank").unwrap();

    let mut total = 0.0;
    for iter in 0..10 {
        let run = dopia
            .enqueue_nd_range_kernel(
                &program,
                "pagerank",
                &inst.built.args,
                inst.built.nd,
                &mem,
            )
            .unwrap();
        total += run.total_time_s;
        if iter == 0 || iter == 9 {
            println!(
                "  iter {:>2}: CPU {} + GPU {}/8, {:.2} ms (+ {:.0} µs inference)",
                iter,
                run.selection.point.cpu_cores,
                run.selection.point.gpu_eighths,
                run.kernel_time_s * 1e3,
                run.selection.inference_s * 1e6,
            );
        }
        pagerank::swap_buffers(&mut inst);
    }
    println!("  total managed time for 10 iterations: {:.2} ms", total * 1e3);
}
