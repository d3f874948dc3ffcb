//! What every workload shares: the timed loop, the per-run recorder, the
//! shadow calls that split a traced operation into its stages, and the
//! output checks.

use crate::stats::Timings;
use crate::trace::Tracer;
use dopia_core::cache::{CacheStats, LaunchKey};
use dopia_core::codegen::{generate_cpu_source, transform_malleable};
use dopia_core::features::extract_code_features;
use dopia_core::runtime::{PreparedKernel, RuntimeHealth};
use dopia_core::training::WorkloadRecord;
use dopia_core::{Dopia, DopiaError, LaunchResult, Program};
use sim::engine::DopConfig;
use sim::{ArgValue, Engine, KernelProfile, Memory, NdRange, Schedule};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// A traced phase stops once its tracer holds this many spans (about 6 MB),
/// even if its time is not up: enough for stable per-layer medians.
pub const SPAN_CAP: usize = 100_000;

/// Cache and supervision counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub cache: CacheStats,
    pub breaker_trips: u32,
}

impl Snapshot {
    pub fn of(dopia: &Dopia) -> Self {
        Snapshot { cache: dopia.cache_stats(), breaker_trips: dopia.supervision_stats().breaker_trips }
    }
}

/// Aggregates over the scored prefix: the first operations of the seeded
/// stream, the same on every run with one seed. Simulated metrics and
/// counts come only from here, so they repeat exactly.
#[derive(Debug, Clone, Default)]
pub struct Scored {
    pub launches: u64,
    pub log_perf: f64,
    pub perf_n: u64,
    pub kernel_s: f64,
    pub gpu_groups: u64,
    pub groups: u64,
    pub pinned: u64,
    pub watchdog: u64,
    pub redispatched: u64,
    pub start: Snapshot,
    pub end: Snapshot,
    /// `KernelProfile::items_sampled` of each traced profile.
    pub items_sampled: Vec<f64>,
    /// `CompiledKernel::num_insns` of each traced build's kernels.
    pub insns: Vec<f64>,
}

/// Launches re-decided from scratch by the output checks.
pub const CHECK_SAMPLES: usize = 12;

/// Everything one phase of a run measured.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Whether the current operation lies in the scored prefix.
    pub scoring: bool,
    /// Enqueue calls, by launch signature and outcome.
    pub launches: Timings,
    /// `create_program` calls, by source.
    pub builds: Timings,
    /// Σ simulated kernel time of every launch.
    pub kernel_s: f64,
    /// Synthetic workloads built and measured across 44 configs, by stratum.
    pub sweep: Timings,
    pub des_ns: u64,
    pub des_groups: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Codes of the first operations drawn from the seeded stream.
    pub stream_head: Vec<u64>,
    pub scored: Scored,
    next_op: u64,
}

/// Whether supervision overrode a launch's decision: a breaker pin, a
/// quarantined model or a degraded kernel.
pub fn overridden(h: &RuntimeHealth) -> bool {
    h.breaker_pinned_launches == 1 || h.quarantined_launches == 1 || h.degraded_launches == 1
}

/// What a launch did: cache hit, override, cache miss, or neither (the
/// cache is off). Calls with one signature and one outcome do the same work.
fn outcome(h: &RuntimeHealth) -> u64 {
    if h.launch_cache_hits == 1 {
        0
    } else if overridden(h) {
        1
    } else if h.launch_cache_misses == 1 {
        2
    } else {
        3
    }
}

impl Recorder {
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn note_stream(&mut self, code: u64) {
        if self.stream_head.len() < 64 {
            self.stream_head.push(code);
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Count one output check made outside the timed loop.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Record one build of the source identified by `source`.
    pub fn build(&mut self, out: Result<Program, DopiaError>, ns: u64, source: u64) -> Option<Program> {
        self.attempted += 1;
        match out {
            Ok(p) => {
                self.builds.push(source, ns);
                Some(p)
            }
            Err(e) => {
                self.fail(format!("build: {e}"));
                None
            }
        }
    }

    /// Record one launch of the signature identified by `signature`. A
    /// launch fails when it returns `Err` or loses work-groups; the five
    /// work-group buckets must partition the launch.
    pub fn launch(
        &mut self,
        out: &Result<LaunchResult, DopiaError>,
        ns: u64,
        nd: NdRange,
        oracle: Option<&WorkloadRecord>,
        signature: u64,
    ) -> Option<LaunchResult> {
        self.attempted += 1;
        let r = match out {
            Ok(r) => *r,
            Err(e) => {
                self.fail(format!("launch: {e}"));
                return None;
            }
        };
        let rep = &r.report;
        let groups = nd.num_groups();
        if rep.lost_groups > 0 {
            self.fail(format!("launch lost {} of {} work-groups", rep.lost_groups, groups));
        } else if rep.cpu_groups + rep.gpu_groups + rep.recovered_groups + rep.redispatched_groups
            != groups
        {
            self.fail(format!("launch did not conserve its {groups} work-groups"));
        }
        self.launches.push(signature * 4 + outcome(&r.health), ns);
        self.kernel_s += r.kernel_time_s;
        if self.scoring {
            let s = &mut self.scored;
            s.launches += 1;
            s.kernel_s += r.kernel_time_s;
            s.gpu_groups += rep.gpu_groups as u64;
            s.groups += groups as u64;
            s.pinned += r.health.breaker_pinned_launches as u64;
            s.watchdog += r.health.watchdog_recoveries as u64;
            s.redispatched += r.health.redispatched_groups as u64;
            if let Some(o) = oracle {
                s.log_perf += dopia_core::oracle::time_vs_oracle(o, r.kernel_time_s).ln();
                s.perf_n += 1;
            }
        }
        Some(r)
    }
}

/// One workload as the shared driver sees it.
pub trait Driver {
    /// Operations in the scored prefix.
    const SCORED_OPS: usize;
    /// Run the next operation of the seeded stream.
    fn step(&mut self, rec: &mut Recorder, tracer: &mut Option<Tracer>);
    /// Cache and supervision counters now.
    fn snapshot(&self) -> Snapshot;
    /// The output checks, after the timed loop.
    fn check(&mut self, rec: &mut Recorder);
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Ops(usize),
    /// At this instant, or for a traced phase once it holds [`SPAN_CAP`]
    /// spans.
    At(Instant),
}

/// Run operations of the seeded stream until `stop`; returns how many ran.
pub fn run_phase(d: &mut impl Driver, rec: &mut Recorder, tracer: &mut Option<Tracer>, stop: Stop) -> usize {
    let mut ops = 0;
    loop {
        let done = match stop {
            Stop::Ops(n) => ops >= n,
            Stop::At(end) => Instant::now() >= end || tracer.as_ref().is_some_and(|t| t.len() >= SPAN_CAP),
        };
        if done {
            return ops;
        }
        d.step(rec, tracer);
        ops += 1;
    }
}

/// Run the scored prefix: the workload's first `SCORED_OPS` operations.
pub fn run_scored<D: Driver>(d: &mut D, rec: &mut Recorder, tracer: &mut Option<Tracer>) {
    rec.scoring = true;
    rec.scored.start = d.snapshot();
    run_phase(d, rec, tracer, Stop::Ops(D::SCORED_OPS));
    rec.scored.end = d.snapshot();
    rec.scoring = false;
}

/// One enqueue call, as the shadow calls need it.
pub struct Call<'a> {
    pub dopia: &'a Dopia,
    pub prepared: &'a PreparedKernel,
    pub args: &'a [ArgValue],
    pub nd: NdRange,
}

/// Split one traced enqueue into its stages by shadow calls: the cache
/// key, the profile (misses and overrides), the model sweep (misses) and
/// the DES at the chosen configuration. Hits reuse the profile memoised
/// under `slot`, so the shadows of a hit never profile.
#[allow(clippy::too_many_arguments)]
pub fn shadow_launch(
    t: &mut Tracer,
    rec: &mut Recorder,
    c: &Call<'_>,
    mem: &mut Memory,
    result: &LaunchResult,
    span: usize,
    op: u64,
    memo: &mut HashMap<usize, KernelProfile>,
    slot: usize,
) {
    let h = &result.health;
    let hit = h.launch_cache_hits == 1;
    let overridden = overridden(h);
    t.rename(span, if hit { "enqueue.hit" } else if overridden { "enqueue.override" } else { "enqueue.miss" });
    if hit || h.launch_cache_misses == 1 {
        t.span("cache.key", op, Some(span), || {
            black_box(LaunchKey::new(c.prepared.id, c.prepared.code_id(), c.nd, c.args, mem))
        });
    }
    if !hit || !memo.contains_key(&slot) {
        let out = if hit {
            c.dopia.profile(c.prepared, c.args, c.nd, mem)
        } else {
            t.span("profile", op, Some(span), || c.dopia.profile(c.prepared, c.args, c.nd, mem)).0
        };
        match out {
            Ok(p) => {
                if !hit && rec.scoring {
                    rec.scored.items_sampled.push(p.items_sampled as f64);
                }
                memo.insert(slot, p);
            }
            Err(e) => {
                rec.fail(format!("shadow profile: {e}"));
                return;
            }
        }
    }
    let profile = &memo[&slot];
    if !hit && !overridden {
        t.span("model.select", op, Some(span), || {
            black_box(c.dopia.model().select_config(
                c.prepared.features,
                c.nd.work_dim,
                c.nd.global_size(),
                c.nd.local_size(),
                c.dopia.space(),
            ))
        });
    }
    let dop = result.selection.point.dop();
    let sched = Schedule::Dynamic { chunk_divisor: c.dopia.chunk_divisor };
    let engine = c.dopia.engine();
    let (_, id) = match c.dopia.fault_plan().filter(|p| p.affects_des()) {
        Some(plan) => t.span("des.exact", op, Some(span), || {
            black_box(engine.simulate_with_faults(profile, &c.nd, dop, sched, true, plan))
        }),
        None => t.span("des.fast", op, Some(span), || {
            black_box(engine.simulate(profile, &c.nd, dop, sched, true))
        }),
    };
    rec.des_ns += t.duration_ns(id);
    rec.des_groups += c.nd.num_groups() as u64;
}

/// Split one traced `create_program` into its stages by shadow calls:
/// parse and check, feature extraction, both malleable rewrites, both CPU
/// sources and bytecode lowering, each over every kernel of the program.
pub fn shadow_build(
    t: &mut Tracer,
    rec: &mut Recorder,
    source: &str,
    program: &Program,
    span: usize,
    op: u64,
) {
    let kernels = || program.kernels.iter().map(|k| &k.original);
    t.span("clc.compile", op, Some(span), || {
        let _ = black_box(clc::compile_with_defines(source, &[]));
    });
    t.span("features.extract", op, Some(span), || {
        kernels().for_each(|k| {
            black_box(extract_code_features(k));
        })
    });
    t.span("codegen.malleable", op, Some(span), || {
        kernels().for_each(|k| {
            let _ = black_box((transform_malleable(k, 1), transform_malleable(k, 2)));
        })
    });
    t.span("codegen.cpu", op, Some(span), || {
        kernels().for_each(|k| {
            black_box((generate_cpu_source(k, 1), generate_cpu_source(k, 2)));
        })
    });
    t.span("lower.compile", op, Some(span), || {
        kernels().for_each(|k| {
            let _ = black_box(sim::compile_kernel(k));
        })
    });
    if rec.scoring {
        for k in &program.kernels {
            rec.scored.insns.push(k.compiled.as_ref().map_or(0, |c| c.num_insns()) as f64);
        }
    }
}

/// The DESIGN.md §8 contract: the DES fast path and the exact loop assign
/// identical work-group counts and agree on time, traffic and busy times
/// within 1e-9 relative.
pub fn check_des_agreement(
    fast: &Engine,
    profile: &KernelProfile,
    nd: NdRange,
    dop: DopConfig,
    chunk_divisor: usize,
) -> Result<(), String> {
    let exact = Engine { exact_des_only: true, ..fast.clone() };
    let sched = Schedule::Dynamic { chunk_divisor };
    let f = fast.simulate(profile, &nd, dop, sched, true);
    let e = exact.simulate(profile, &nd, dop, sched, true);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    if f.cpu_groups == e.cpu_groups
        && f.gpu_groups == e.gpu_groups
        && close(f.time_s, e.time_s)
        && close(f.dram_bytes, e.dram_bytes)
        && close(f.cpu_busy_s, e.cpu_busy_s)
        && close(f.gpu_busy_s, e.gpu_busy_s)
    {
        Ok(())
    } else {
        Err(format!("fast DES {f:?} differs from exact DES {e:?}"))
    }
}

/// A fresh decision (profile + model, no cache, no supervision) must pick
/// the configuration a recorded launch picked and give a bit-identical
/// simulated kernel time; its DES fast path must match the exact loop.
pub fn check_fresh_decision(
    c: &Call<'_>,
    mem: &mut Memory,
    index: usize,
    kernel_time_s: f64,
) -> Result<(), String> {
    let profile = c.dopia.profile(c.prepared, c.args, c.nd, mem).map_err(|e| e.to_string())?;
    let fresh = c.dopia.launch_with_profile(c.prepared, &profile, c.nd);
    if fresh.selection.index != index || fresh.kernel_time_s.to_bits() != kernel_time_s.to_bits() {
        return Err(format!(
            "fresh decision picked config {} ({} s), the launch picked {} ({} s)",
            fresh.selection.index, fresh.kernel_time_s, index, kernel_time_s
        ));
    }
    check_des_agreement(c.dopia.engine(), &profile, c.nd, fresh.selection.point.dop(), c.dopia.chunk_divisor)
}
