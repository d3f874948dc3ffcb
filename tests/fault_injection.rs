//! End-to-end fault-injection acceptance tests: a launch the remaining
//! hardware could still finish never fails, and everything the runtime
//! absorbs is visible in the health counters.

use dopia::ml::Regressor;
use dopia::prelude::*;

/// A regressor that always prefers full co-execution (max CPU + max GPU):
/// deterministic selections with CPU survivors for the hang tests.
struct CoExec;

impl Regressor for CoExec {
    fn predict(&self, row: &[f64]) -> f64 {
        // row[9] = cpu_util, row[10] = gpu_util (Table 1 order).
        0.6 * row[9] + 0.4 * row[10]
    }
    fn name(&self) -> &'static str {
        "coexec"
    }
}

/// A regressor gone numerically wrong.
struct Broken(f64);

impl Regressor for Broken {
    fn predict(&self, _row: &[f64]) -> f64 {
        self.0
    }
    fn name(&self) -> &'static str {
        "broken"
    }
}

fn coexec_dopia() -> Dopia {
    Dopia::new(Engine::kaveri(), PerfModel::from_regressor(ModelKind::Lin, Box::new(CoExec)))
}

fn gesummv_launch(dopia: &Dopia, n: usize) -> (Program, Memory, Vec<ArgValue>, NdRange) {
    let program = dopia
        .create_program_with_source(workloads::polybench::GESUMMV_SRC)
        .unwrap();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, n, 256);
    (program, mem, built.args, built.nd)
}

/// The tentpole acceptance scenario: the GPU hangs on its very first chunk
/// dispatch under dynamic distribution. The watchdog reclaims the chunk,
/// the CPU cores finish it, and the launch completes — every work-group
/// accounted for, the degradation visible in the report and health.
#[test]
fn gpu_hang_under_dynamic_completes_via_watchdog() {
    let mut dopia = coexec_dopia();
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(0),
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    let r = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();

    // Full co-execution was selected, so CPU survivors exist.
    assert!(r.selection.point.cpu_cores > 0, "{:?}", r.selection.point);
    // Nothing is lost: every group ran somewhere.
    assert_eq!(
        r.report.cpu_groups + r.report.gpu_groups + r.report.recovered_groups,
        nd.num_groups(),
        "{:?}",
        r.report
    );
    assert_eq!(r.report.lost_groups, 0);
    assert!(r.report.recovered_groups > 0, "{:?}", r.report);
    assert!(r.report.degraded);
    assert!(r.report.watchdog_fires >= 1);
    assert_eq!(r.health.watchdog_recoveries, r.report.watchdog_fires);
    assert!(!r.health.is_nominal());
    assert!(r.report.time_s.is_finite() && r.report.time_s > 0.0);
}

/// A later hang (the GPU's second chunk dispatch) loses less GPU work
/// but must still balance the books.
#[test]
fn late_gpu_hang_still_accounts_for_every_group() {
    let mut dopia = coexec_dopia();
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(1),
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 16384);
    let r = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert_eq!(
        r.report.cpu_groups + r.report.gpu_groups + r.report.recovered_groups,
        nd.num_groups()
    );
    assert!(r.report.gpu_groups > 0, "two dispatches completed first: {:?}", r.report);
    assert!(r.report.degraded);
}

/// A stalled CPU core's in-flight group is reclaimed and finished
/// elsewhere; a slowed core is a performance fault only.
#[test]
fn core_stall_and_slowdown_are_survivable() {
    let mut dopia = coexec_dopia();
    dopia.set_fault_plan(FaultPlan {
        core_stalls: vec![CoreStall { core: 0, at_s: 0.0 }],
        core_slowdowns: vec![CoreSlowdown { core: 1, factor: 4.0 }],
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 16384);
    let r = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert_eq!(
        r.report.cpu_groups + r.report.gpu_groups + r.report.recovered_groups,
        nd.num_groups()
    );
    assert_eq!(r.report.lost_groups, 0);
    assert!(r.report.degraded, "a dead core marks the run degraded");
}

/// A model predicting garbage steers nothing: the launch falls back to
/// the GPU-only heuristic and flags it.
#[test]
fn nan_model_falls_back_to_gpu_only_heuristic() {
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        let dopia = Dopia::new(
            Engine::kaveri(),
            PerfModel::from_regressor(ModelKind::Lin, Box::new(Broken(bad))),
        );
        let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
        let r = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
            .unwrap();
        assert!(r.selection.fallback, "pred {}", bad);
        assert!(r.selection.predicted.is_nan());
        assert_eq!(r.selection.point.cpu_cores, 0);
        assert_eq!(r.selection.point.gpu_eighths, 8);
        assert_eq!(r.health.prediction_fallbacks, 1);
        assert_eq!(r.report.cpu_groups + r.report.gpu_groups, nd.num_groups());
    }
}

/// One untransformable kernel must not fail the whole program: it is
/// marked degraded and runs GPU-original-only, while its siblings stay
/// fully managed.
#[test]
fn mixed_program_degrades_only_the_untransformable_kernel() {
    let dopia = coexec_dopia();
    let src = format!(
        "{}\n__kernel void tricky(__global float* a, int d) {{
             a[get_global_id(d)] = 1.0f;
         }}",
        workloads::polybench::GESUMMV_SRC
    );
    let program = dopia.create_program_with_source(&src).unwrap();
    assert_eq!(program.kernels.len(), 2);

    let good = program.kernel("gesummv").unwrap();
    assert_eq!(good.degraded_mode, DegradedMode::FullyManaged);

    let tricky = program.kernel("tricky").unwrap();
    assert!(tricky.is_degraded());
    assert!(matches!(tricky.degraded_mode, DegradedMode::GpuOriginalOnly { .. }));

    // The degraded kernel still launches — GPU only, no model sweep.
    let mut mem = Memory::new();
    let a = mem.alloc_f32(vec![0.0; 1024]);
    let r = dopia
        .enqueue_nd_range_kernel(
            &program,
            "tricky",
            &[ArgValue::Buffer(a), ArgValue::Int(0)],
            NdRange::d1(1024, 256),
            &mem,
        )
        .unwrap();
    assert_eq!(r.health.degraded_launches, 1);
    assert!(r.selection.fallback);
    assert_eq!(r.report.cpu_groups, 0);
    assert_eq!(r.report.gpu_groups, 4);

    // And the managed sibling is unaffected.
    let mut mem2 = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem2, 4096, 256);
    let r2 = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mem2)
        .unwrap();
    assert_eq!(r2.health.degraded_launches, 0);
    assert!(!r2.selection.fallback);
}

/// Injected transient profiling failures are absorbed by the queue's
/// bounded retry; the backoff is charged to the launch and the retries
/// surface in the health counters.
#[test]
fn transient_profile_failures_absorbed_by_queue_retry() {
    let mut dopia = coexec_dopia();
    dopia.set_fault_plan(FaultPlan {
        transient_profile_failures: 2,
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    let mut queue = CommandQueue::new(&dopia);
    let event = queue
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert_eq!(event.result.health.transient_retries, 2);
    let expected_backoff = 1e-4 + 2e-4; // doubling backoff, two retries
    let overhead = event.result.total_time_s
        - event.result.kernel_time_s
        - event.result.selection.inference_s;
    assert!((overhead - expected_backoff).abs() < 1e-9, "overhead {}", overhead);

    let summary = queue.finish();
    assert_eq!(summary.health.transient_retries, 2);
    assert!(!summary.health.is_nominal());
}

/// More transient failures than the retry budget: the error finally
/// surfaces, still marked transient, and no event is recorded.
#[test]
fn transient_failures_beyond_retry_budget_surface() {
    let mut dopia = coexec_dopia();
    dopia.set_fault_plan(FaultPlan {
        transient_profile_failures: 10,
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    let mut queue = CommandQueue::new(&dopia);
    let err = queue
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap_err();
    assert!(err.is_transient());
    assert!(queue.events().is_empty());
    // Budget: 1 initial attempt + 3 retries consumed 4 injected failures.
    assert_eq!(dopia.fault_plan().unwrap().transient_profile_failures, 10);
}

/// Clearing the fault plan restores nominal behavior on the same runtime.
#[test]
fn clearing_the_fault_plan_restores_nominal_launches() {
    let mut dopia = coexec_dopia();
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(0),
        ..FaultPlan::default()
    });
    dopia.clear_fault_plan();
    assert!(dopia.fault_plan().is_none());
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    let r = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert!(!r.report.degraded);
    assert_eq!(r.report.recovered_groups, 0);
    assert_eq!(r.report.watchdog_fires, 0);
    assert!(r.health.is_nominal());
    assert_eq!(r.report.cpu_groups + r.report.gpu_groups, nd.num_groups());
}
