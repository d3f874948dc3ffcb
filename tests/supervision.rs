//! End-to-end acceptance tests for the self-healing supervision layer:
//! device circuit breakers, deadline-based straggler re-dispatch, and
//! model quarantine — each demonstrated against its non-supervised
//! counterpart.

use dopia::core::supervision::{BREAKER_COOLDOWN, QUARANTINE_MIN_SAMPLES};
use dopia::core::BreakerState;
use dopia::ml::Regressor;
use dopia::prelude::*;

/// A regressor that always prefers the GPU alone at full DoP (predictions
/// for any CPU-involving config come out negative and are discarded).
/// Under a persistent GPU fault this is the worst possible model — every
/// launch puts all its work on the broken device.
struct GpuOnly;

impl Regressor for GpuOnly {
    fn predict(&self, row: &[f64]) -> f64 {
        // row[9] = cpu_util, row[10] = gpu_util (Table 1 order).
        row[10] - row[9]
    }
    fn name(&self) -> &'static str {
        "gpuonly"
    }
}

/// A regressor preferring full co-execution: CPU survivors exist on every
/// launch.
struct CoExec;

impl Regressor for CoExec {
    fn predict(&self, row: &[f64]) -> f64 {
        0.6 * row[9] + 0.4 * row[10]
    }
    fn name(&self) -> &'static str {
        "coexec"
    }
}

/// A regressor whose predictions are valid (finite, positive) but wildly
/// wrong: it claims every configuration achieves 1% of the best.
struct Overconfident;

impl Regressor for Overconfident {
    fn predict(&self, _row: &[f64]) -> f64 {
        0.01
    }
    fn name(&self) -> &'static str {
        "overconfident"
    }
}

fn dopia_with(model: Box<dyn Regressor>) -> Dopia {
    Dopia::new(Engine::kaveri(), PerfModel::from_regressor(ModelKind::Lin, model))
}

fn gesummv_launch(dopia: &Dopia, n: usize) -> (Program, Memory, Vec<ArgValue>, NdRange) {
    let program = dopia
        .create_program_with_source(workloads::polybench::GESUMMV_SRC)
        .unwrap();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, n, 256);
    (program, mem, built.args, built.nd)
}

/// The tentpole acceptance scenario. A GPU-preferring model meets a GPU
/// that hangs on every launch: without help, every launch loses all its
/// work. The circuit breaker trips within `breaker_threshold` launches,
/// pins subsequent launches to the CPU's static config (zero loss), and
/// a half-open probe re-checks the device after the cooldown.
#[test]
fn breaker_trips_and_pins_to_cpu_under_persistent_gpu_fault() {
    let mut dopia = dopia_with(Box::new(GpuOnly));
    dopia.set_supervision_config(SupervisionConfig {
        breaker_threshold: 2,
        ..SupervisionConfig::default()
    });
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(0),
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    let total = nd.num_groups();

    // Launches until the trip: GPU-only selections, everything lost.
    let mut trips = 0;
    for i in 0..2 {
        let r = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
            .unwrap();
        assert_eq!(r.selection.point.cpu_cores, 0, "model wants the GPU alone");
        assert_eq!(r.report.lost_groups, total, "launch {} loses everything", i);
        assert!(r.report.gpu_faulted);
        trips += r.health.breaker_trips;
    }
    assert_eq!(trips, 1, "breaker trips within breaker_threshold launches");
    assert!(matches!(
        dopia.supervision_stats().gpu_breaker,
        BreakerState::Open { .. }
    ));

    // Cooldown launches: pinned to the CPU's static config, zero loss.
    for _ in 0..BREAKER_COOLDOWN {
        let r = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
            .unwrap();
        assert_eq!(r.source, DecisionSource::Pinned);
        assert_eq!(r.report.lost_groups, 0, "pinned launches lose nothing");
        assert_eq!(r.report.cpu_groups, total, "all work on the CPU");
        assert_eq!(r.report.gpu_groups, 0);
        assert!(!r.report.degraded);
        assert!(r.selection.point.cpu_cores > 0);
        assert_eq!(r.selection.point.gpu_eighths, 0);
    }

    // Cooldown spent: the next launch probes the GPU, which is still
    // broken — the breaker re-opens on the failed probe alone.
    let probe = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert!(
        matches!(probe.source, DecisionSource::CacheHit | DecisionSource::CacheMiss),
        "probe runs the model's pick, not {:?}",
        probe.source
    );
    assert!(probe.report.gpu_faulted);
    assert_eq!(probe.health.breaker_trips, 1, "failed probe re-trips immediately");
    assert!(matches!(
        dopia.supervision_stats().gpu_breaker,
        BreakerState::Open { .. }
    ));
    assert_eq!(dopia.supervision_stats().breaker_trips, 2);

    // And the launch right after the failed probe is pinned again.
    let r = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert_eq!(r.source, DecisionSource::Pinned);
    assert_eq!(r.report.lost_groups, 0);
}

/// The control arm: with supervision disabled the same fault keeps losing
/// every launch's work, forever.
#[test]
fn without_supervision_losses_continue_indefinitely() {
    let mut dopia = dopia_with(Box::new(GpuOnly));
    dopia.set_supervision_config(SupervisionConfig {
        enabled: false,
        ..SupervisionConfig::default()
    });
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(0),
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    for i in 0..6 {
        let r = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
            .unwrap();
        assert_eq!(
            r.report.lost_groups,
            nd.num_groups(),
            "unsupervised launch {} still loses everything",
            i
        );
        assert_eq!(r.health.breaker_trips, 0);
        assert_ne!(r.source, DecisionSource::Pinned);
    }
    assert_eq!(dopia.supervision_stats().breaker_trips, 0);
}

/// Straggler re-dispatch: a hung GPU chunk whose watchdog is too slow to
/// matter is reclaimed by the launch deadline (budgeted from the kernel
/// class's observed history) and finished by the CPU — no loss, and far
/// faster than waiting for the watchdog.
#[test]
fn deadline_redispatches_stragglers_when_watchdog_is_slow() {
    let dopia = dopia_with(Box::new(CoExec));
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    let total = nd.num_groups();

    // Warm up the kernel class fault-free: the supervisor needs launch
    // history to budget a deadline.
    for _ in 0..2 {
        let r = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
            .unwrap();
        assert!(r.health.is_nominal());
    }

    // Now the GPU hangs, and the watchdog would take 5 simulated seconds
    // to notice — milliseconds of work would sit hung for seconds.
    let mut dopia = dopia;
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(0),
        watchdog_timeout_s: Some(5.0),
        ..FaultPlan::default()
    });
    let r = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert!(r.report.redispatched_groups > 0, "{:?}", r.report);
    assert_eq!(r.report.lost_groups, 0);
    assert_eq!(
        r.report.cpu_groups
            + r.report.gpu_groups
            + r.report.recovered_groups
            + r.report.redispatched_groups,
        total
    );
    assert!(r.report.gpu_faulted);
    assert_eq!(r.health.redispatched_groups as usize, r.report.redispatched_groups);
    assert!(!r.health.is_nominal());
    assert!(
        r.report.time_s < 1.0,
        "deadline re-dispatch must beat the {}s watchdog: took {}s",
        5.0,
        r.report.time_s
    );
}

/// Model quarantine: persistently wrong (but valid-looking) predictions
/// push the misprediction EWMA over the threshold; the model is benched,
/// its cached decisions are invalidated, and the feature heuristic serves
/// the kernel — without ever consulting or polluting the launch cache.
#[test]
fn wrong_model_is_quarantined_and_heuristic_takes_over() {
    let dopia = dopia_with(Box::new(Overconfident));
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);

    // QUARANTINE_MIN_SAMPLES launches of identical time: measured
    // normalized perf is 1.0, the model says 0.01 — relative error ~0.99
    // every launch.
    let mut quarantines = 0;
    for _ in 0..QUARANTINE_MIN_SAMPLES {
        let r = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
            .unwrap();
        assert!(!r.selection.fallback, "predictions are valid, just wrong");
        quarantines += r.health.model_quarantines;
    }
    assert_eq!(quarantines, 1, "quarantine within QUARANTINE_MIN_SAMPLES launches");
    assert_eq!(dopia.supervision_stats().quarantined_kernels, 1);
    assert!(
        dopia.cache_stats().invalidations >= 1,
        "cached decisions from the distrusted model are dropped"
    );

    // Quarantined launches run the feature heuristic and bypass the cache
    // in both directions.
    let before = dopia.cache_stats();
    let r = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert_eq!(r.source, DecisionSource::Quarantined);
    assert!(r.selection.fallback, "heuristic selections are flagged");
    assert!(r.selection.predicted.is_nan());
    assert_eq!(r.health.prediction_fallbacks, 0, "healing, not a broken model");
    assert_eq!(r.report.lost_groups, 0);
    let after = dopia.cache_stats();
    assert_eq!(after.hits, before.hits, "cache never consulted while quarantined");
    assert_eq!(after.misses, before.misses);
}

/// Breaker-pinned launches must not poison the decision cache: once the
/// fault clears and the breaker closes, the next launch re-runs the model,
/// not a frozen CPU-only pin.
#[test]
fn pinned_decisions_are_never_cached() {
    let mut dopia = dopia_with(Box::new(GpuOnly));
    dopia.set_supervision_config(SupervisionConfig {
        breaker_threshold: 1,
        ..SupervisionConfig::default()
    });
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(0),
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);

    // Trip the breaker (threshold 1), then run pinned launches through the
    // cooldown.
    let r = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert_eq!(r.health.breaker_trips, 1);
    let cache_before = dopia.cache_stats();
    for _ in 0..BREAKER_COOLDOWN {
        let r = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
            .unwrap();
        assert_eq!(r.source, DecisionSource::Pinned);
    }
    let cache_after = dopia.cache_stats();
    assert_eq!(cache_after.hits, cache_before.hits, "pinned launches bypass the cache");
    assert_eq!(cache_after.misses, cache_before.misses);

    // Heal the GPU. The probe launch re-runs the model (GPU-only again),
    // succeeds, closes the breaker — proving no CPU-only pin was frozen
    // into the cache.
    dopia.clear_fault_plan();
    let probe = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert!(matches!(probe.source, DecisionSource::CacheHit | DecisionSource::CacheMiss));
    assert_eq!(probe.selection.point.cpu_cores, 0, "model's own pick is back");
    assert_eq!(probe.selection.point.gpu_eighths, 8);
    assert_eq!(probe.report.lost_groups, 0);
    assert_eq!(dopia.supervision_stats().gpu_breaker, BreakerState::Closed);
}

/// A breaker-pinned launch of a signature the cache already holds reads
/// that entry's profile instead of profiling again. It counts a profile
/// reuse, never a hit or a miss, leaves an armed transient profile failure
/// alone, and its report is the one a fresh profile gives at the same pin.
#[test]
fn pinned_launches_reuse_the_cached_profile() {
    let mut dopia = dopia_with(Box::new(GpuOnly));
    dopia.set_supervision_config(SupervisionConfig {
        breaker_threshold: 1,
        ..SupervisionConfig::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    let prepared = program.kernel("gesummv").unwrap();

    // A healthy model launch caches the signature, then the GPU hangs and
    // the next launch (a hit) trips its breaker.
    let first = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert_eq!(first.source, DecisionSource::CacheMiss);
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(0),
        transient_profile_failures: 1,
        ..FaultPlan::default()
    });
    let plan = dopia.fault_plan().unwrap().clone();
    let trip = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
        .unwrap();
    assert_eq!(trip.health.breaker_trips, 1);

    let before = dopia.cache_stats();
    let pinned: Vec<LaunchResult> = (0..BREAKER_COOLDOWN)
        .map(|_| dopia.enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem).unwrap())
        .collect();
    let after = dopia.cache_stats();
    assert_eq!(after.profile_reuses - before.profile_reuses, u64::from(BREAKER_COOLDOWN));
    assert_eq!(after.hits, before.hits, "a reuse is not a hit");
    assert_eq!(after.misses, before.misses);
    // No pinned launch profiled, so the armed failure is still there.
    let err = dopia.profile(prepared, &args, nd, &mem).unwrap_err();
    assert!(err.is_transient());

    let fresh = dopia.profile(prepared, &args, nd, &mem).unwrap();
    let schedule = Schedule::Dynamic { chunk_divisor: dopia.chunk_divisor };
    for r in &pinned {
        assert_eq!(r.source, DecisionSource::Pinned);
        assert_eq!(r.health.breaker_pinned_launches, 1);
        assert_eq!(r.health.launch_cache_hits, 0);
        let pin = r.selection.point.dop();
        let expected = dopia.engine().simulate_with_faults(&fresh, &nd, pin, schedule, true, &plan);
        assert_eq!(r.report, expected);
    }
}

/// The supervision counters aggregate across a command queue like every
/// other health counter.
#[test]
fn queue_summary_aggregates_supervision_counters() {
    let mut dopia = dopia_with(Box::new(GpuOnly));
    dopia.set_supervision_config(SupervisionConfig {
        breaker_threshold: 2,
        ..SupervisionConfig::default()
    });
    dopia.set_fault_plan(FaultPlan {
        gpu_hang_at_dispatch: Some(0),
        ..FaultPlan::default()
    });
    let (program, mem, args, nd) = gesummv_launch(&dopia, 4096);
    let mut queue = CommandQueue::new(&dopia);
    for _ in 0..5 {
        queue
            .enqueue_nd_range_kernel(&program, "gesummv", &args, nd, &mem)
            .unwrap();
    }
    let summary = queue.finish();
    assert_eq!(summary.health.breaker_trips, 1);
    assert_eq!(summary.health.breaker_pinned_launches, 3, "launches 3-5 pinned");
    assert!(!summary.health.is_nominal());
}
