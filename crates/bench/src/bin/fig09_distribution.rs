//! **Figure 9** — Normalized execution time of CPU-only, GPU-only, best
//! STATIC split, and Dopia's DYNAMIC workload distribution over ~50
//! real-world workloads (the 14 kernels at varying input sizes), on both
//! platforms. All values normalized to the best static split per workload.
//!
//! Paper shape: DYNAMIC matches or beats STATIC (mean ≤ ~1.0) because its
//! work-group granularity is finer than the 5% static step, while CPU-only
//! and GPU-only are much worse on average.
//!
//! ```sh
//! cargo run --release -p dopia-bench --bin fig09_distribution
//! ```

use bench_support::{banner, csv::CsvWriter, platforms, results_dir, stats::Summary};
use dopia_core::baselines::{self, Baseline};
use sim::{Engine, Memory};
use workloads::{pagerank, polybench, spmv, BuiltKernel};

/// The Fig. 9 workload set: every kernel at several input sizes.
fn fig09_workloads(mem: &mut Memory) -> Vec<BuiltKernel> {
    let mut v = Vec::new();
    for &n in &[4096usize, 8192, 16384] {
        for wg in [64usize, 256] {
            v.push(polybench::atax1(mem, n, wg));
            v.push(polybench::atax2(mem, n, wg));
            v.push(polybench::bicg1(mem, n, wg));
            v.push(polybench::bicg2(mem, n, wg));
            v.push(polybench::gesummv(mem, n, wg));
            v.push(polybench::mvt1(mem, n, wg));
            v.push(polybench::mvt2(mem, n, wg));
        }
        v.push(spmv::spmv_csr(mem, n, 256));
        v.push(pagerank::pagerank(mem, n, 256));
    }
    for &n in &[2048usize, 4096, 8192] {
        v.push(polybench::conv2d(mem, n, [16, 16]));
    }
    for &n in &[4096usize, 8192] {
        v.push(polybench::fdtd1(mem, n, [16, 16]));
        v.push(polybench::fdtd2(mem, n, [16, 16]));
        v.push(polybench::fdtd3(mem, n, [16, 16]));
    }
    v.push(polybench::syr2k(mem, 512, [16, 16]));
    v.push(polybench::syr2k(mem, 1024, [16, 16]));
    v
}

fn main() {
    let path = results_dir().join("fig09_distribution.csv");
    let mut csv = CsvWriter::create(
        &path,
        &["platform", "config", "mean", "median", "p5", "p25", "p75", "p95", "min", "max"],
    )
    .unwrap();

    for engine in platforms() {
        run_platform(&engine, &mut csv);
    }
    println!("\nwrote {}", path.display());
}

fn run_platform(engine: &Engine, csv: &mut CsvWriter) {
    banner(&format!("Figure 9: workload distribution on {}", engine.platform.name));
    let mut mem = Memory::new();
    let suite = fig09_workloads(&mut mem);
    println!("{} workloads", suite.len());

    let mut ratios: [Vec<f64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for built in &suite {
        let profile = engine
            .profile(built.spec(), &mem)
            .unwrap_or_else(|e| panic!("{}: {}", built.name, e));
        let stat = baselines::best_static_split(engine, &profile, &built.nd).report.time_s;
        let cpu = baselines::simulate_baseline(engine, &profile, &built.nd, Baseline::Cpu).time_s;
        let gpu = baselines::simulate_baseline(engine, &profile, &built.nd, Baseline::Gpu).time_s;
        let dynamic = baselines::dynamic_all(engine, &profile, &built.nd).time_s;
        ratios[0].push(cpu / stat);
        ratios[1].push(gpu / stat);
        ratios[2].push(1.0);
        ratios[3].push(dynamic / stat);
    }

    println!(
        "\n{:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "config", "mean", "median", "p5", "p25", "p75", "p95"
    );
    for (label, sample) in ["CPU", "GPU", "STATIC", "DYNAMIC"].iter().zip(&ratios) {
        let s = Summary::of(sample);
        println!(
            "{:>10} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            label, s.mean, s.median, s.p5, s.p25, s.p75, s.p95
        );
        let mut fields = vec![engine.platform.name.clone(), label.to_string()];
        fields.extend(s.values().iter().map(|v| format!("{}", v)));
        csv.row(&fields).unwrap();
    }
    let dyn_mean = Summary::of(&ratios[3]).mean;
    println!(
        "\n  paper shape: DYNAMIC mean ~<= 1.0 vs STATIC; measured {:.2}",
        dyn_mean
    );
}
