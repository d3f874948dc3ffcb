//! The Dopia benchmark: four seeded workloads driven through the runtime's
//! public API in a closed loop with one caller, on the Kaveri platform
//! model. End-to-end metrics come from an untraced run; `--trace 1` traces
//! the same seed and reports the per-layer split instead. README.md lists
//! the workloads, the metrics and what each should move.

pub mod app;
pub mod cold;
pub mod measure;
pub mod replay;
pub mod stats;
pub mod sweep;
pub mod trace;

use measure::{Driver, Recorder, Stop};
use stats::{median, Timings};
use std::time::{Duration, Instant};
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Replay,
    Cold,
    Sweep,
    Faulted,
}

impl Workload {
    pub const ALL: [Workload; 4] = [Workload::Replay, Workload::Cold, Workload::Sweep, Workload::Faulted];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::Cold => "cold",
            Workload::Sweep => "sweep",
            Workload::Faulted => "faulted",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one set-up measured besides its own wall time.
#[derive(Debug, Default)]
pub struct Setup {
    /// The training grid's workloads, built and measured, by grid index.
    pub grid: Timings,
    /// Program builds, by program.
    pub builds: Timings,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("launch_p50_us", "us"),
    ("launch_p99_us", "us"),
    ("launches_per_s", "1/s"),
    ("build_p50_us", "us"),
    ("sweep_workloads_per_s", "1/s"),
    ("perf_vs_oracle", "ratio"),
    ("overhead_pct", "%"),
];

/// Per-layer metrics: name, unit, and the span whose median self time it
/// reports (empty for metrics computed otherwise).
pub const PER_LAYER: [(&str, &str, &str); 32] = [
    ("clc.compile_us", "us", "clc.compile"),
    ("features.extract_us", "us", "features.extract"),
    ("codegen.malleable_us", "us", "codegen.malleable"),
    ("codegen.cpu_us", "us", "codegen.cpu"),
    ("lower.compile_us", "us", "lower.compile"),
    ("lower.insns", "count", ""),
    ("build.residual_us", "us", "build"),
    ("cache.key_us", "us", "cache.key"),
    ("cache.hit_ratio", "ratio", ""),
    ("cache.evictions", "count", ""),
    ("profile.us", "us", "profile"),
    ("profile.items_sampled", "count", ""),
    ("model.select_us", "us", "model.select"),
    ("des.fast_us", "us", "des.fast"),
    ("des.exact_us", "us", "des.exact"),
    ("des.ns_per_group", "ns", ""),
    ("runtime.hit_residual_us", "us", "enqueue.hit"),
    ("runtime.miss_residual_us", "us", "enqueue.miss"),
    ("runtime.override_residual_us", "us", "enqueue.override"),
    ("supervise.pinned_launches", "count", ""),
    ("supervise.watchdog_recoveries", "count", ""),
    ("supervise.redispatched_groups", "count", ""),
    ("supervise.breaker_trips", "count", ""),
    ("workloads.build_ms", "ms", "workloads.build"),
    ("training.profile_ms", "ms", "training.profile"),
    ("training.des_ms", "ms", "training.des"),
    ("training.residual_ms", "ms", "training.measure"),
    ("ml.train_ms", "ms", "ml.train"),
    ("sim.kernel_s", "s", ""),
    ("sim.gpu_group_share", "ratio", ""),
    ("trace.overhead_pct", "%", ""),
    ("process.peak_rss_mb", "MB", ""),
];

#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// The run's context as one JSON object.
    pub context: String,
    pub spans: Vec<trace::SpanStat>,
    pub stream_head: Vec<u64>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: every end-to-end metric, or with `trace` every
    /// per-layer metric.
    pub fn json_line(&self, trace: bool) -> String {
        let list = if trace { &self.per_layer } else { &self.end_to_end };
        let metrics: Vec<String> = list
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload: set up `SETUP_REPS` times (keeping the last), run the
/// scored prefix and then the timed loop until `--seconds` have passed
/// since the prefix began, check the outputs and assemble the metrics.
///
/// With tracing, the scored prefix and the phase after it (up to half of
/// `--seconds`) are traced, and an untraced phase of as many operations
/// follows; the tracing overhead compares these two warm phases.
pub fn run(opts: &Options) -> RunResult {
    match opts.workload {
        Workload::Replay => drive(opts, || replay::Replay::setup(opts.seed, false)),
        Workload::Faulted => drive(opts, || replay::Replay::setup(opts.seed, true)),
        Workload::Cold => drive(opts, || cold::Cold::setup(opts.seed)),
        Workload::Sweep => drive(opts, || sweep::Sweep::setup(opts.seed)),
    }
}

fn drive<D: Driver>(opts: &Options, mut setup: impl FnMut() -> (D, Setup)) -> RunResult {
    let mut setup_s = Vec::new();
    let mut grid = Timings::default();
    let mut builds = Timings::default();
    let mut driver: Option<D> = None;
    for _ in 0..SETUP_REPS {
        drop(driver.take()); // free the previous set-up before building the next
        let start = Instant::now();
        let (d, info) = setup();
        setup_s.push(start.elapsed().as_secs_f64());
        grid.merge(info.grid);
        builds.merge(info.builds);
        driver = Some(d);
    }
    let mut d = driver.expect("at least one set-up ran");

    let mut tracer = opts.trace.then(Tracer::default);
    let start = Instant::now();
    let at = |share: f64| Stop::At(start + Duration::from_secs_f64(opts.seconds * share));
    let mut first = Recorder::default();
    measure::run_scored(&mut d, &mut first, &mut tracer);
    let mut traced = Recorder::default();
    let mut untraced = Recorder::default();
    if opts.trace {
        let ops = measure::run_phase(&mut d, &mut traced, &mut tracer, at(0.5));
        measure::run_phase(&mut d, &mut untraced, &mut None, Stop::Ops(ops));
    } else {
        measure::run_phase(&mut d, &mut first, &mut None, at(1.0));
    }
    d.check(&mut first);

    let host = if opts.trace { &untraced } else { &first };
    builds.merge(host.builds.clone());
    let sweep = if host.sweep.is_empty() { &grid } else { &host.sweep };
    let (p50, _) = host.launches.percentile_us(50.0);
    let (p99, beyond_p99) = host.launches.percentile_us(99.0);
    let s = &first.scored;
    let mut failures = Vec::new();
    let values = [
        median(&setup_s),
        p50,
        p99,
        host.launches.rate(),
        builds.percentile_us(50.0).0,
        sweep.rate(),
        (s.log_perf / s.perf_n as f64).exp(),
        100.0 * host.launches.total_s() / host.kernel_s,
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            // Only the reported set must hold measured, positive values.
            let reported = !opts.trace;
            if reported && !(value.is_finite() && value > 0.0) {
                failures.push(format!("{name} is {value}"));
            }
            Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
        })
        .collect();

    let spans = tracer.as_ref().map(Tracer::stats).unwrap_or_default();
    let per_layer = if opts.trace {
        let overhead = if untraced.launches.is_empty() {
            0.0
        } else {
            100.0 * (1.0 - traced.launches.rate() / untraced.launches.rate())
        };
        per_layer(&first, &traced, &spans, overhead)
    } else {
        Vec::new()
    };
    if let Some(t) = &tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"git_rev\": \"{}\", \"nproc\": {}, \"run_seconds\": {}, \
         \"trace\": {}, \"setup_reps\": {}, \"samples\": {{\"launches\": {}, \"launch_signatures\": {}, \
         \"launches_beyond_p99\": {}, \"builds\": {}, \"sweep_workloads\": {}, \"scored_launches\": {}}}}}",
        opts.workload.name(),
        opts.seed,
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        opts.seconds,
        opts.trace,
        setup_s.len(),
        host.launches.len(),
        host.launches.keys(),
        beyond_p99,
        builds.len(),
        sweep.len(),
        s.launches,
    );
    let phases = [&first, &traced, &untraced];
    let failed = phases.iter().map(|r| r.failed).sum::<u64>() + failures.len() as u64;
    failures.extend(phases.iter().flat_map(|r| &r.failures).cloned());
    RunResult {
        correct: failed == 0,
        attempted: phases.iter().map(|r| r.attempted).sum(),
        failed,
        failures,
        end_to_end,
        per_layer,
        context,
        spans,
        stream_head: first.stream_head,
    }
}

fn per_layer(first: &Recorder, traced: &Recorder, spans: &[trace::SpanStat], overhead_pct: f64) -> Vec<Metric> {
    let s = &first.scored;
    let des_ns = (first.des_ns + traced.des_ns) as f64;
    let des_groups = (first.des_groups + traced.des_groups) as f64;
    let cache_hits = s.end.cache.hits - s.start.cache.hits;
    let cache_lookups = cache_hits + s.end.cache.misses - s.start.cache.misses;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|&(name, unit, span)| {
            let value = if !span.is_empty() {
                let scale = if unit == "ms" { 1e-6 } else { 1e-3 };
                spans.iter().find(|st| st.name == span).map_or(0.0, |st| st.median_ns * scale)
            } else {
                match name {
                    "lower.insns" => median(&s.insns),
                    "cache.hit_ratio" => ratio(cache_hits as f64, cache_lookups as f64),
                    "cache.evictions" => (s.end.cache.evictions - s.start.cache.evictions) as f64,
                    "profile.items_sampled" => median(&s.items_sampled),
                    "des.ns_per_group" => ratio(des_ns, des_groups),
                    "supervise.pinned_launches" => s.pinned as f64,
                    "supervise.watchdog_recoveries" => s.watchdog as f64,
                    "supervise.redispatched_groups" => s.redispatched as f64,
                    "supervise.breaker_trips" => (s.end.breaker_trips - s.start.breaker_trips) as f64,
                    "sim.kernel_s" => s.kernel_s,
                    "sim.gpu_group_share" => ratio(s.gpu_groups as f64, s.groups as f64),
                    "trace.overhead_pct" => overhead_pct,
                    "process.peak_rss_mb" => peak_rss_mb(),
                    other => unreachable!("per-layer metric {other} has no source"),
                }
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// Host memory high-water mark (`VmHWM`) in MB; 0 where `/proc` is absent.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// without leaving it; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
