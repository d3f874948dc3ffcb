//! **Figure 1** — Normalized throughput of Gesummv (N = 16,384, wg 256)
//! for all CPU-thread x GPU-thread partitionings on AMD Kaveri.
//!
//! Paper reference points: CPU-only 78%, GPU-only 13%, CPU+GPU(ALL) 61% of
//! the best configuration, which sits at 4 CPU threads + 192 GPU threads.
//!
//! ```sh
//! cargo run --release -p dopia-bench --bin fig01_heatmap
//! ```

use bench_support::{banner, csv::CsvWriter, results_dir};
use sim::engine::DopConfig;
use sim::{Engine, Memory, Schedule};

#[allow(clippy::needless_range_loop)] // grid indices are the point here
fn main() {
    let engine = Engine::kaveri();
    let n = 16384;
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, n, 256);
    let profile = engine.profile(built.spec(), &mem).expect("profile");
    let sched = Schedule::Dynamic { chunk_divisor: 10 };
    let max_cores = engine.platform.cpu.cores;
    let pes = engine.platform.gpu_threads();

    let mut times = vec![vec![f64::NAN; max_cores + 1]; 9];
    let mut best = f64::INFINITY;
    let mut best_at = (0usize, 0usize);
    for g in 0..=8usize {
        for cpu in 0..=max_cores {
            if cpu == 0 && g == 0 {
                continue;
            }
            let dop = DopConfig { cpu_cores: cpu, gpu_frac: g as f64 / 8.0 };
            let t = engine.simulate(&profile, &built.nd, dop, sched, true).time_s;
            times[g][cpu] = t;
            if t < best {
                best = t;
                best_at = (cpu, g);
            }
        }
    }

    banner("Figure 1: Gesummv throughput heatmap (Kaveri)");
    print!("{:>10}", "GPU\\CPU");
    for cpu in 0..=max_cores {
        print!("{:>7}", cpu);
    }
    println!();
    let path = results_dir().join("fig01_heatmap.csv");
    let mut csv = CsvWriter::create(&path, &["gpu_threads", "cpu_threads", "time_s", "normalized_perf"]).unwrap();
    for g in (0..=8usize).rev() {
        print!("{:>10}", pes * g / 8);
        for cpu in 0..=max_cores {
            let t = times[g][cpu];
            if t.is_nan() {
                print!("{:>7}", "-");
            } else {
                print!("{:>7.2}", best / t);
                csv.row_mixed(
                    &format!("{}", pes * g / 8),
                    &[cpu as f64, t, best / t],
                )
                .unwrap();
            }
        }
        println!();
    }

    let cell = |cpu: usize, g: usize| 100.0 * best / times[g][cpu];
    println!("\npaper vs measured (percent of best):");
    println!("  CPU only   paper 78%   measured {:>5.1}%", cell(max_cores, 0));
    println!("  GPU only   paper 13%   measured {:>5.1}%", cell(0, 8));
    println!("  ALL        paper 61%   measured {:>5.1}%", cell(max_cores, 8));
    println!(
        "  best config paper (4 CPU, 192 GPU)   measured ({} CPU, {} GPU)",
        best_at.0,
        pes * best_at.1 / 8
    );
    println!("\nwrote {}", path.display());
}
