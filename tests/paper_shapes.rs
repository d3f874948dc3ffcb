//! The paper's qualitative results as executable assertions: every claim
//! the evaluation section rests on must hold in the reproduction.

use dopia::prelude::*;
use sim::engine::DopConfig;

fn profile_of(engine: &Engine, built: &workloads::BuiltKernel, mem: &mut Memory) -> sim::KernelProfile {
    engine.profile(built.spec(), mem).unwrap_or_else(|e| panic!("{}: {}", built.name, e))
}

/// Figure 1: for Gesummv on Kaveri, an interior CPU+GPU mix beats
/// CPU-only, GPU-only and ALL; and the headline ordering holds
/// (CPU-only ~70-80%, ALL ~60-75%, GPU-only < 30% of best).
#[test]
fn fig1_gesummv_interior_optimum() {
    let engine = Engine::kaveri();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, 16384, 256);
    let p = profile_of(&engine, &built, &mut mem);
    let sched = Schedule::Dynamic { chunk_divisor: 10 };
    let t = |cpu: usize, g: usize| {
        engine
            .simulate(
                &p,
                &built.nd,
                DopConfig { cpu_cores: cpu, gpu_frac: g as f64 / 8.0 },
                sched,
                true,
            )
            .time_s
    };
    let mut best = f64::INFINITY;
    let mut best_at = (0, 0);
    for cpu in 0..=4 {
        for g in 0..=8 {
            if cpu == 0 && g == 0 {
                continue;
            }
            let v = t(cpu, g);
            if v < best {
                best = v;
                best_at = (cpu, g);
            }
        }
    }
    // Interior optimum in the GPU dimension.
    assert!(best_at.1 >= 1 && best_at.1 <= 5, "best at {:?}", best_at);
    let cpu_only = best / t(4, 0);
    let gpu_only = best / t(0, 8);
    let all = best / t(4, 8);
    assert!((0.55..0.95).contains(&cpu_only), "CPU-only {} (paper 0.78)", cpu_only);
    assert!(gpu_only < 0.35, "GPU-only {} (paper 0.13)", gpu_only);
    assert!((0.45..0.90).contains(&all), "ALL {} (paper 0.61)", all);
}

/// Figure 3(b): GPU memory requests grow monotonically (and substantially)
/// with active GPU threads for a streaming kernel.
#[test]
fn fig3_memory_requests_grow_with_gpu_utilization() {
    let engine = Engine::kaveri();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, 16384, 256);
    let p = profile_of(&engine, &built, &mut mem);
    let sched = Schedule::Dynamic { chunk_divisor: 10 };
    let reqs: Vec<f64> = (1..=8)
        .map(|g| {
            engine
                .simulate(
                    &p,
                    &built.nd,
                    DopConfig { cpu_cores: 4, gpu_frac: g as f64 / 8.0 },
                    sched,
                    true,
                )
                .mem_requests()
        })
        .collect();
    for w in reqs.windows(2) {
        assert!(w[1] >= w[0] * 0.999, "requests not monotone: {:?}", reqs);
    }
    assert!(reqs[7] / reqs[0] > 1.2, "growth too small: {:?}", reqs);
}

/// Section 9.4: irregular kernels (SpMV, PageRank) are CPU-affine —
/// CPU-only beats GPU-only by a wide margin — while lane-coalescable
/// kernels (ATAX2/MVT2 column walks, FDTD) favour the GPU over their
/// row-walk siblings.
#[test]
fn kernel_affinities_match_paper() {
    let engine = Engine::kaveri();
    let mut mem = Memory::new();

    for built in [
        workloads::spmv::spmv_csr(&mut mem, 16384, 256),
        workloads::pagerank::pagerank(&mut mem, 16384, 256),
    ] {
        let p = profile_of(&engine, &built, &mut mem);
        let cpu = baselines::simulate_baseline(&engine, &p, &built.nd, Baseline::Cpu).time_s;
        let gpu = baselines::simulate_baseline(&engine, &p, &built.nd, Baseline::Gpu).time_s;
        assert!(gpu > cpu * 3.0, "{}: gpu {} vs cpu {}", built.name, gpu, cpu);
    }

    // GPU-only handles the coalescable column walk (MVT2) relatively
    // better than the scattered row walk sibling (MVT1 is
    // bandwidth-friendly on CPU, so compare GPU-only ratios).
    let mvt1 = workloads::polybench::mvt1(&mut mem, 16384, 256);
    let mvt2 = workloads::polybench::mvt2(&mut mem, 16384, 256);
    let p1 = profile_of(&engine, &mvt1, &mut mem);
    let p2 = profile_of(&engine, &mvt2, &mut mem);
    let r1 = baselines::simulate_baseline(&engine, &p1, &mvt1.nd, Baseline::Gpu).time_s
        / baselines::simulate_baseline(&engine, &p1, &mvt1.nd, Baseline::Cpu).time_s;
    let r2 = baselines::simulate_baseline(&engine, &p2, &mvt2.nd, Baseline::Gpu).time_s
        / baselines::simulate_baseline(&engine, &p2, &mvt2.nd, Baseline::Cpu).time_s;
    assert!(
        r2 < r1,
        "MVT2 must be relatively more GPU-friendly: mvt1 gpu/cpu {} vs mvt2 {}",
        r1,
        r2
    );
}

/// Table 6 discussion: co-execution with ALL resources behaves better on
/// Skylake (more bandwidth + shared LLC) than on Kaveri.
#[test]
fn skylake_tolerates_full_co_execution_better() {
    let mut ratios = Vec::new();
    for engine in [Engine::kaveri(), Engine::skylake()] {
        let mut mem = Memory::new();
        let built = workloads::polybench::gesummv(&mut mem, 16384, 256);
        let p = profile_of(&engine, &built, &mut mem);
        let all = baselines::simulate_baseline(&engine, &p, &built.nd, Baseline::All).time_s;
        // Oracle over the 44 configs.
        let sched = Schedule::Dynamic { chunk_divisor: 10 };
        let best = config_space(&engine.platform)
            .iter()
            .map(|pt| engine.simulate(&p, &built.nd, pt.dop(), sched, true).time_s)
            .fold(f64::INFINITY, f64::min);
        ratios.push(best / all);
    }
    assert!(
        ratios[1] > ratios[0],
        "ALL normalized perf: kaveri {} vs skylake {}",
        ratios[0],
        ratios[1]
    );
}

/// Section 6: the malleable kernel's overhead at full DoP is small — Dopia
/// does not tax kernels that end up using the whole GPU.
#[test]
fn malleable_overhead_is_bounded() {
    let engine = Engine::kaveri();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, 16384, 256);
    let p = profile_of(&engine, &built, &mut mem);
    let sched = Schedule::Dynamic { chunk_divisor: 10 };
    let dop = DopConfig { cpu_cores: 0, gpu_frac: 1.0 };
    let plain = engine.simulate(&p, &built.nd, dop, sched, false).time_s;
    let malleable = engine.simulate(&p, &built.nd, dop, sched, true).time_s;
    assert!(malleable >= plain);
    assert!(malleable / plain < 1.15, "overhead ratio {}", malleable / plain);
}

/// Determinism across the whole stack: identical inputs produce identical
/// simulated results, bit for bit.
#[test]
fn full_stack_is_deterministic() {
    let run_once = || {
        let engine = Engine::kaveri();
        let mut mem = Memory::new();
        let built = workloads::spmv::spmv_csr(&mut mem, 8192, 256);
        let p = profile_of(&engine, &built, &mut mem);
        let r = engine.simulate(
            &p,
            &built.nd,
            DopConfig { cpu_cores: 3, gpu_frac: 0.375 },
            Schedule::Dynamic { chunk_divisor: 10 },
            true,
        );
        (r.time_s, r.dram_bytes, r.cpu_groups, r.gpu_groups)
    };
    assert_eq!(run_once(), run_once());
}
