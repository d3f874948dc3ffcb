//! **Ablation: workload-distribution policy** (paper Section 7).
//!
//! The paper fixes the GPU push-chunk size at `num_wgs / 10` ("empirically
//! found to minimize load imbalance and dispatch overhead") and leaves a
//! pull-based GPU (possible where global atomics are CPU/GPU-coherent,
//! i.e. AMD) as future work. This ablation sweeps the chunk divisor and
//! implements the pull-based variant, quantifying both design choices over
//! the real-world suite.
//!
//! Findings (see EXPERIMENTS.md): small divisors lose to coarse-chunk
//! imbalance; on this simulator large divisors stay cheap because the
//! modeled dispatch latency (15–25 µs) is small relative to the kernels.
//! The pull-based distributor matches fine-grained push on balanced
//! kernels but *commits every CU immediately*, which hurts GPU-hostile
//! kernels (SpMV, PageRank) at forced co-execution — a trade-off the
//! paper's future-work remark does not anticipate.
//!
//! ```sh
//! cargo run --release -p dopia-bench --bin ablation_distribution
//! ```

use bench_support::{banner, csv::CsvWriter, platforms, results_dir, stats::geomean};
use sim::engine::DopConfig;
use sim::{Engine, Memory, Schedule};

fn main() {
    let path = results_dir().join("ablation_distribution.csv");
    let mut csv = CsvWriter::create(&path, &["platform", "policy", "geomean_norm_time"]).unwrap();

    for engine in platforms() {
        banner(&format!("Distribution ablation on {}", engine.platform.name));
        run_platform(&engine, &mut csv);
    }
    println!("\nwrote {}", path.display());
}

fn run_platform(engine: &Engine, csv: &mut CsvWriter) {
    let mut mem = Memory::new();
    let suite = workloads::real_world_suite(&mut mem, 1);
    let dop = DopConfig { cpu_cores: engine.platform.cpu.cores, gpu_frac: 0.375 };

    let policies: Vec<(String, Schedule)> = [2usize, 5, 10, 20, 50]
        .iter()
        .map(|&d| (format!("push chunk N/{}", d), Schedule::Dynamic { chunk_divisor: d }))
        .chain(std::iter::once(("pull (global atomics)".to_string(), Schedule::DynamicPull)))
        .collect();

    // Per-workload times, then normalize each workload by its fastest
    // policy so the geomean is scale-free.
    let mut matrix: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for built in &suite {
        let profile = engine
            .profile(built.spec(), &mem)
            .unwrap_or_else(|e| panic!("{}: {}", built.name, e));
        let times: Vec<f64> = policies
            .iter()
            .map(|(_, sched)| engine.simulate(&profile, &built.nd, dop, *sched, true).time_s)
            .collect();
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        for (col, &t) in matrix.iter_mut().zip(&times) {
            col.push(t / best);
        }
    }

    println!("{:>24} {:>22}", "policy", "geomean time vs best");
    for ((label, _), col) in policies.iter().zip(&matrix) {
        let g = geomean(col);
        println!("{:>24} {:>22.3}", label, g);
        csv.row(&[engine.platform.name.clone(), label.clone(), format!("{}", g)]).unwrap();
    }
    // The paper's choice (divisor 10) must be within a few percent of the
    // best push configuration.
    let best_push = matrix[..5].iter().map(|c| geomean(c)).fold(f64::INFINITY, f64::min);
    let ten = geomean(&matrix[2]);
    println!(
        "\n  chunk N/10 vs best push policy: {:.1}% overhead (paper picked N/10 empirically)",
        100.0 * (ten / best_push - 1.0)
    );
    let pull = geomean(&matrix[5]);
    println!(
        "  pull-based vs N/10 push: {:+.1}% (positive = pull faster); pull trades tail\n  imbalance for eagerly committing all CUs, which backfires on GPU-hostile kernels",
        100.0 * (ten / pull - 1.0)
    );
}
