//! The benchmark's own checks: runs repeat, seeds change the stream but
//! not the metric set, short runs fail nothing, each workload exercises
//! the path it exists for, and BENCHMARK.json lists every metric printed.

use dopia_benchmark::{run, Options, RunResult, Workload, END_TO_END, PER_LAYER};

/// The shipped configuration without a timed loop past the scored prefix.
fn quick(workload: Workload, seed: u64, trace: bool) -> RunResult {
    run(&Options { workload, seed, seconds: 0.0, trace })
}

/// Simulated metrics and counts: what no host-time change may move.
const REPEATABLE: [&str; 11] = [
    "perf_vs_oracle",
    "sim.kernel_s",
    "sim.gpu_group_share",
    "cache.hit_ratio",
    "cache.evictions",
    "lower.insns",
    "profile.items_sampled",
    "supervise.pinned_launches",
    "supervise.watchdog_recoveries",
    "supervise.redispatched_groups",
    "supervise.breaker_trips",
];

fn names(r: &RunResult, trace: bool) -> Vec<&'static str> {
    let list = if trace { &r.per_layer } else { &r.end_to_end };
    list.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_repeats_runs_fails_nothing_and_takes_its_path() {
    for w in Workload::ALL {
        let a = quick(w, 7, true);
        let b = quick(w, 7, true);
        for name in REPEATABLE {
            let (x, y) = (a.metric(name), b.metric(name));
            assert!(x.is_some(), "{} reports {name}", w.name());
            assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits), "{} {name}: {x:?} vs {y:?}", w.name());
        }
        for r in [&a, &b] {
            assert!(r.correct && r.failed == 0 && r.attempted > 0, "{}: {:?}", w.name(), r.failures);
        }
        let hit_ratio = a.metric("cache.hit_ratio").unwrap();
        match w {
            Workload::Replay => assert!(hit_ratio >= 0.95, "replay hit ratio {hit_ratio}"),
            Workload::Cold => assert!(hit_ratio <= 0.05, "cold hit ratio {hit_ratio}"),
            Workload::Faulted => assert!(a.metric("supervise.breaker_trips").unwrap() > 0.0),
            Workload::Sweep => assert!(a.metric("training.des_ms").unwrap() > 0.0),
        }
    }
}

#[test]
fn another_seed_changes_the_stream_but_not_the_metric_names() {
    for w in Workload::ALL {
        let a = quick(w, 1, false);
        let b = quick(w, 2, false);
        assert_ne!(a.stream_head, b.stream_head, "{}", w.name());
        assert_eq!(names(&a, false), names(&b, false));
        assert!(a.correct && b.correct, "{}: {:?} {:?}", w.name(), a.failures, b.failures);
    }
}

#[test]
fn benchmark_json_lists_every_metric_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let squashed: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().copied().chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u))) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(squashed.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(squashed.contains(&format!("\"name\":\"{}\"", w.name())));
    }
}
