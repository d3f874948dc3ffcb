//! **Figure 3** — Execution time and total memory requests for Gesummv and
//! SpMV on AMD Kaveri as GPU core utilization grows from 0 to 100% with
//! four CPU threads active (work-group size 256, Dopia's dynamic workload
//! distribution, malleable GPU kernel).
//!
//! Paper shape: both kernels are fastest around 37.5% GPU utilization, and
//! memory requests grow superlinearly once the GPU L2 over-subscribes
//! (≈2x from the knee to 100%).
//!
//! ```sh
//! cargo run --release -p dopia-bench --bin fig03_gpu_util
//! ```

use bench_support::{banner, csv::CsvWriter, results_dir};
use sim::engine::DopConfig;
use sim::{Engine, Memory, Schedule};
use workloads::BuiltKernel;

fn main() {
    let engine = Engine::kaveri();
    let sched = Schedule::Dynamic { chunk_divisor: 10 };
    let cpu = engine.platform.cpu.cores;

    let mut mem = Memory::new();
    let kernels: Vec<BuiltKernel> = vec![
        workloads::polybench::gesummv(&mut mem, 16384, 256),
        workloads::spmv::spmv_csr(&mut mem, 16384, 256),
    ];

    let path = results_dir().join("fig03_gpu_util.csv");
    let mut csv = CsvWriter::create(
        &path,
        &["kernel", "gpu_util_pct", "time_s", "mem_requests"],
    )
    .unwrap();

    for built in &kernels {
        let profile = engine.profile(built.spec(), &mut mem).expect("profile");
        banner(&format!(
            "Figure 3: {} on Kaveri, 4 CPU threads, varying GPU utilization",
            built.name
        ));
        println!("{:>10} {:>12} {:>16}", "GPU util", "time (s)", "mem requests");
        let mut series = Vec::new();
        for g in 0..=8usize {
            let dop = DopConfig { cpu_cores: cpu, gpu_frac: g as f64 / 8.0 };
            let r = engine.simulate(&profile, &built.nd, dop, sched, true);
            let util = 100.0 * g as f64 / 8.0;
            println!("{:>9.1}% {:>12.4} {:>16.3e}", util, r.time_s, r.mem_requests());
            csv.row_mixed(&built.name, &[util, r.time_s, r.mem_requests()]).unwrap();
            series.push((util, r.time_s, r.mem_requests()));
        }
        // Shape diagnostics against the paper.
        let best = series
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let req_knee = series[3].2; // 37.5%
        let req_full = series[8].2; // 100%
        println!(
            "\n  best GPU utilization: measured {:.1}% (paper: 37.5%)",
            best.0
        );
        println!(
            "  memory-request growth 37.5% -> 100%: x{:.2} (paper: ~2x for Gesummv)",
            req_full / req_knee
        );
    }
    println!("\nwrote {}", path.display());
}
