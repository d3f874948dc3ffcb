//! Reproduce the paper's Figure 1 interactively: the Gesummv throughput
//! heatmap over every (CPU threads, GPU threads) configuration on a
//! Kaveri-like APU — showing that neither CPU-only, GPU-only nor ALL is
//! optimal, but an interior mix is.
//!
//! ```sh
//! cargo run --release --example gesummv_heatmap
//! ```

use dopia::prelude::*;

#[allow(clippy::needless_range_loop)] // grid indices are the point here
fn main() {
    let engine = Engine::kaveri();
    let n = 16384;
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, n, 256);
    let profile = engine.profile(built.spec(), &mem).expect("profiles");
    let sched = Schedule::Dynamic { chunk_divisor: 10 };

    let max_cores = engine.platform.cpu.cores;
    let pes = engine.platform.gpu_threads();

    // Simulate the full 5 x 9 grid (44 valid points).
    let mut grid = vec![vec![f64::NAN; max_cores + 1]; 9];
    let mut best = f64::INFINITY;
    for (g, row) in grid.iter_mut().enumerate() {
        for (cpu, cell) in row.iter_mut().enumerate() {
            if cpu == 0 && g == 0 {
                continue;
            }
            let dop = sim::engine::DopConfig { cpu_cores: cpu, gpu_frac: g as f64 / 8.0 };
            let t = engine.simulate(&profile, &built.nd, dop, sched, true).time_s;
            *cell = t;
            best = best.min(t);
        }
    }

    println!(
        "Gesummv (N = {}) normalized throughput on {} — paper Fig. 1",
        n, engine.platform.name
    );
    print!("{:>12}", "GPU \\ CPU");
    for cpu in 0..=max_cores {
        print!("{:>7}", cpu);
    }
    println!();
    for g in (0..=8).rev() {
        print!("{:>12}", format!("{} PEs", pes * g / 8));
        for cpu in 0..=max_cores {
            let t = grid[g][cpu];
            if t.is_nan() {
                print!("{:>7}", "-");
            } else {
                print!("{:>7.2}", best / t);
            }
        }
        println!();
    }

    // Highlight the paper's headline cells.
    let report = |label: &str, cpu: usize, g: usize| {
        println!(
            "  {:<18} -> {:.0}% of best",
            format!("{} (CPU {}, GPU {})", label, cpu, pes * g / 8),
            100.0 * best / grid[g][cpu]
        );
    };
    println!();
    report("CPU only", max_cores, 0);
    report("GPU only", 0, 8);
    report("CPU+GPU (ALL)", max_cores, 8);
    let (mut bc, mut bg) = (0, 0);
    for g in 0..=8 {
        for cpu in 0..=max_cores {
            if !grid[g][cpu].is_nan() && grid[g][cpu] <= best {
                (bc, bg) = (cpu, g);
            }
        }
    }
    report("Best", bc, bg);
    println!(
        "\nPaper reference (Kaveri): CPU-only 78%, GPU-only 13%, ALL 61%, best at (4 CPU, 192 GPU threads)."
    );
}
