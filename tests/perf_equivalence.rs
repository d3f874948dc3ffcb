//! The fast-path equivalence contract (DESIGN.md §8).
//!
//! The batched DES fast path must be observationally equivalent to the
//! exact per-agent event loop on every fault-free `Dynamic`/`Static` run:
//! identical work-group counts (exact) and times within 1e-9 relative
//! (floating-point residue micro-events in the exact loop produce ~1e-16
//! deviations; anything larger is a logic divergence). These tests pin the
//! contract adversarially over randomized inputs, over the full 44-point
//! configuration space of a profiled kernel, and at the chunk-divisor
//! boundary cases.

use dopia_core::configs::config_space;
use proptest::prelude::*;
use sim::des::{fast_path_applies, run_des, run_des_exact, DesInput, GpuAgentParams, Schedule};
use sim::cost::GroupCost;
use sim::fault::FaultPlan;
use sim::{ArgValue, Engine, Memory, NdRange};

/// Relative tolerance of the equivalence contract.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

fn assert_equivalent(input: &DesInput) {
    let exact = run_des_exact(input, &FaultPlan::none(), None);
    let fast = run_des(input, &FaultPlan::none(), None);
    assert_eq!(fast.cpu_groups, exact.cpu_groups, "cpu_groups {:?}", input.schedule);
    assert_eq!(fast.gpu_groups, exact.gpu_groups, "gpu_groups {:?}", input.schedule);
    assert!(
        close(fast.time_s, exact.time_s),
        "time fast {} vs exact {} ({:?})",
        fast.time_s,
        exact.time_s,
        input.schedule
    );
    assert!(
        close(fast.dram_bytes, exact.dram_bytes),
        "dram fast {} vs exact {}",
        fast.dram_bytes,
        exact.dram_bytes
    );
    assert!(
        close(fast.cpu_busy_s, exact.cpu_busy_s),
        "cpu_busy fast {} vs exact {}",
        fast.cpu_busy_s,
        exact.cpu_busy_s
    );
    assert!(
        close(fast.gpu_busy_s, exact.gpu_busy_s),
        "gpu_busy fast {} vs exact {}",
        fast.gpu_busy_s,
        exact.gpu_busy_s
    );
}

fn arb_cost() -> impl Strategy<Value = GroupCost> {
    (1e-7f64..1e-2, 0.0f64..1e7, 1.0f64..25.0, 0.4f64..=1.0).prop_map(
        |(compute_s, dram_bytes, bw_cap_gbs, dram_efficiency)| GroupCost {
            compute_s,
            dram_bytes,
            bw_cap_gbs,
            dram_efficiency,
        },
    )
}

fn arb_fast_schedule() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        (1usize..120).prop_map(|d| Schedule::Dynamic { chunk_divisor: d }),
        (0.0f64..=1.0).prop_map(|f| Schedule::Static { cpu_fraction: f }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The contract over randomized inputs: every fault-free Dynamic or
    /// Static run must take the fast path and reproduce the exact loop.
    #[test]
    fn fast_path_matches_exact_des(
        num_groups in 0usize..400,
        cpu_cores in 0usize..6,
        cpu_cost in arb_cost(),
        gpu_cost in arb_cost(),
        cus in 1usize..16,
        latency in 0.0f64..1e-3,
        with_gpu in any::<bool>(),
        schedule in arb_fast_schedule(),
        bw in 5.0f64..40.0,
    ) {
        prop_assume!(cpu_cores > 0 || with_gpu);
        let input = DesInput {
            num_groups,
            cpu_cores,
            cpu_cost: if cpu_cores > 0 { Some(cpu_cost) } else { None },
            gpu: if with_gpu {
                Some(GpuAgentParams { cost: gpu_cost, cus, launch_latency_s: latency })
            } else {
                None
            },
            schedule,
            dram_bw_gbs: bw,
        };
        prop_assert!(fast_path_applies(&input, &FaultPlan::none()));
        assert_equivalent(&input);
    }

    /// Zero-cost degenerate groups (no compute, no bytes) exercise the
    /// zero-duration-round batching; they must stay equivalent too.
    #[test]
    fn fast_path_matches_exact_with_zero_cost_groups(
        num_groups in 0usize..200,
        cpu_cores in 1usize..6,
        with_gpu in any::<bool>(),
        chunk_divisor in 1usize..50,
        bw in 5.0f64..40.0,
    ) {
        let zero = GroupCost {
            compute_s: 0.0,
            dram_bytes: 0.0,
            bw_cap_gbs: 10.0,
            dram_efficiency: 1.0,
        };
        let input = DesInput {
            num_groups,
            cpu_cores,
            cpu_cost: Some(zero),
            gpu: with_gpu.then_some(GpuAgentParams {
                cost: zero,
                cus: 8,
                launch_latency_s: 20e-6,
            }),
            schedule: Schedule::Dynamic { chunk_divisor },
            dram_bw_gbs: bw,
        };
        assert_equivalent(&input);
    }
}

/// DynamicPull and fault-affected runs must not take the fast path: the
/// dispatcher has to return the exact loop's result bit-for-bit.
#[test]
fn non_fast_inputs_fall_back_to_the_exact_loop() {
    let cost = GroupCost {
        compute_s: 1e-4,
        dram_bytes: 5e4,
        bw_cap_gbs: 12.0,
        dram_efficiency: 0.8,
    };
    let mut input = DesInput {
        num_groups: 137,
        cpu_cores: 3,
        cpu_cost: Some(cost),
        gpu: Some(GpuAgentParams { cost, cus: 8, launch_latency_s: 20e-6 }),
        schedule: Schedule::DynamicPull,
        dram_bw_gbs: 25.6,
    };
    let none = FaultPlan::none();
    assert!(!fast_path_applies(&input, &none));
    let exact = run_des_exact(&input, &none, None);
    let dispatched = run_des(&input, &none, None);
    assert_eq!(dispatched, exact, "DynamicPull must be bit-identical");

    input.schedule = Schedule::Dynamic { chunk_divisor: 10 };
    let hang = FaultPlan { gpu_hang_at_dispatch: Some(1), ..FaultPlan::default() };
    assert!(hang.affects_des());
    assert!(!fast_path_applies(&input, &hang));
}

fn profiled_gesummv(engine: &Engine, n: usize) -> (sim::KernelProfile, NdRange) {
    let kernel = clc::compile(
        "__kernel void gesummv(__global float* A, __global float* B, __global float* x,
                               __global float* y, float alpha, float beta, int N) {
            int i = get_global_id(0);
            if (i < N) {
                float t = 0.0f;
                float s = 0.0f;
                for (int j = 0; j < N; j++) {
                    t = t + A[i * N + j] * x[j];
                    s = s + B[i * N + j] * x[j];
                }
                y[i] = alpha * t + beta * s;
            }
        }",
    )
    .unwrap()
    .kernels
    .remove(0);
    let mut mem = Memory::new();
    let a = mem.alloc_virtual_f32(n * n, 1);
    let b = mem.alloc_virtual_f32(n * n, 2);
    let x = mem.alloc_f32(vec![1.0; n]);
    let y = mem.alloc_f32(vec![0.0; n]);
    let args = vec![
        ArgValue::Buffer(a),
        ArgValue::Buffer(b),
        ArgValue::Buffer(x),
        ArgValue::Buffer(y),
        ArgValue::Float(1.5),
        ArgValue::Float(2.5),
        ArgValue::Int(n as i64),
    ];
    let nd = NdRange::d1(n, 256);
    let spec = sim::LaunchSpec { kernel: &kernel, args: &args, nd };
    let profile = engine.profile(spec, &mem).unwrap();
    (profile, nd)
}

/// The full 44-point configuration space of a real profiled kernel, through
/// the public `Engine` API: `exact_des_only` vs the default dispatcher.
#[test]
fn all_44_configs_agree_between_fast_and_exact() {
    let mut fast_engine = Engine::kaveri();
    fast_engine.exact_des_only = false;
    let mut exact_engine = fast_engine.clone();
    exact_engine.exact_des_only = true;

    let space = config_space(&fast_engine.platform);
    assert_eq!(space.len(), 44);
    let (profile, nd) = profiled_gesummv(&fast_engine, 16384);

    for sched in [
        Schedule::Dynamic { chunk_divisor: 10 },
        Schedule::Static { cpu_fraction: 0.35 },
    ] {
        for point in &space {
            let fast = fast_engine.simulate(&profile, &nd, point.dop(), sched, true);
            let exact = exact_engine.simulate(&profile, &nd, point.dop(), sched, true);
            assert_eq!(fast.cpu_groups, exact.cpu_groups, "{:?} {:?}", point, sched);
            assert_eq!(fast.gpu_groups, exact.gpu_groups, "{:?} {:?}", point, sched);
            assert!(
                close(fast.time_s, exact.time_s),
                "{:?} {:?}: fast {} vs exact {}",
                point,
                sched,
                fast.time_s,
                exact.time_s
            );
            assert!(close(fast.dram_bytes, exact.dram_bytes), "{:?} {:?}", point, sched);
        }
    }
}

/// Chunk-divisor boundary cases: 1 (one giant chunk), num_groups (chunks of
/// one group), and divisors beyond num_groups (clamped to chunk size 1).
#[test]
fn chunk_divisor_edge_cases_stay_equivalent() {
    let cpu = GroupCost {
        compute_s: 2e-4,
        dram_bytes: 3e4,
        bw_cap_gbs: 8.0,
        dram_efficiency: 0.9,
    };
    let gpu = GroupCost {
        compute_s: 4e-5,
        dram_bytes: 6e4,
        bw_cap_gbs: 18.0,
        dram_efficiency: 0.7,
    };
    for num_groups in [1usize, 7, 64, 333] {
        for divisor in [1usize, num_groups, num_groups + 1, 10 * num_groups + 3] {
            for cores in [0usize, 1, 4] {
                let input = DesInput {
                    num_groups,
                    cpu_cores: cores,
                    cpu_cost: (cores > 0).then_some(cpu),
                    gpu: Some(GpuAgentParams {
                        cost: gpu,
                        cus: 8,
                        launch_latency_s: 20e-6,
                    }),
                    schedule: Schedule::Dynamic { chunk_divisor: divisor },
                    dram_bw_gbs: 25.6,
                };
                assert_equivalent(&input);
            }
        }
    }
}
