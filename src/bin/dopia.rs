//! `dopia` — command-line driver: run an OpenCL kernel file through the
//! full Dopia pipeline and report the decision and simulated execution.
//!
//! ```text
//! dopia run kernel.cl [--kernel NAME] [--platform kaveri|skylake]
//!                     [--model PATH] [--n N] [--global N[,M]] [--local N[,M]]
//!                     [--arg name=value]... [-D name[=value]]...
//!                     [--compare] [--show-malleable] [--show-cpu]
//!                     [--no-launch-cache] [--no-supervision]
//!                     [--breaker-threshold N] [--deadline-factor F]
//!                     [--inject-gpu-hang N] [--inject-core-stall CORE@T]
//!                     [--inject-slowdown CORE@F] [--inject-profile-failures N]
//!                     [--inject-preset NAME] [--watchdog-s T]
//! dopia sweep kernel.cl [same options as run]
//! dopia inspect kernel.cl [-D name[=value]]...
//! ```
//!
//! `run` binds arguments automatically: pointer parameters get buffers of
//! `--n` elements (float buffers virtual, int buffers pseudo-random),
//! scalar int parameters default to `--n`, scalar floats to 1.0 — all
//! overridable per parameter with `--arg`. Without `--model` a
//! DecisionTree is trained on a sub-grid at startup (a few seconds);
//! production deployments pass a model from `train_model`.

use dopia::core::codegen;
use dopia::core::runtime::PreparedKernel;
use dopia::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], false),
        Some("sweep") => run(&args[1..], true),
        Some("inspect") => inspect(&args[1..]),
        Some("--help") | Some("-h") | None => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{}`\n", other);
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "dopia — online parallelism management for integrated CPU/GPU architectures

USAGE:
  dopia run <kernel.cl> [options]     compile, predict DoP, co-execute (simulated)
  dopia sweep <kernel.cl> [options]   print the kernel's full 44-config DoP heatmap
  dopia inspect <kernel.cl>           show features, malleable rewrite, CPU code

OPTIONS (run):
  --kernel NAME        kernel to launch (default: the first in the file)
  --platform P         kaveri (default) or skylake
  --model PATH         trained model file (default: train a DT at startup)
  --n N                problem scale: default buffer length & int-arg value (default 16384)
  --global N[,M]       NDRange global size (default: --n)
  --local N[,M]        work-group size (default: 256 or 16,16)
  --arg name=value     override one kernel argument by parameter name
  -D name[=value]      preprocessor definition (clBuildProgram -D)
  --compare            also report CPU / GPU / ALL baselines and the oracle
  --show-malleable     print the malleable GPU rewrite for the launch's NDRange
  --show-cpu           print the generated CPU code for the launch's NDRange
  --no-launch-cache    disable the enqueue decision cache (profile every launch)

SUPERVISION (run; the self-healing layer is on by default):
  --no-supervision           disable circuit breakers, deadlines and quarantine
  --breaker-threshold N      consecutive device faults that trip a breaker (default 3)
  --deadline-factor F        launch deadline as F x the class's observed time (default 4)

FAULT INJECTION (run; exercise the watchdog / degradation machinery):
  --inject-gpu-hang N        hang the GPU at its Nth chunk dispatch (0-based)
  --inject-core-stall C@T    stall CPU core C at simulated time T seconds
  --inject-slowdown C@F      slow CPU core C down by factor F (>= 1)
  --inject-profile-failures N  fail the next N profiling calls transiently
  --inject-preset NAME       named plan: gpu-hang, cpu-stall, transient-storm
  --watchdog-s T             watchdog timeout in simulated seconds (default 0.05)"
    );
}

struct Options {
    file: String,
    kernel: Option<String>,
    platform: String,
    model: Option<String>,
    n: usize,
    global: Option<Vec<usize>>,
    local: Option<Vec<usize>>,
    args: Vec<(String, String)>,
    defines: Vec<(String, String)>,
    compare: bool,
    show_malleable: bool,
    show_cpu: bool,
    no_launch_cache: bool,
    supervision: SupervisionConfig,
    faults: FaultPlan,
}

/// Parse a `CORE@VALUE` pair (used by `--inject-core-stall` and
/// `--inject-slowdown`).
fn parse_core_at(s: &str, flag: &str) -> Result<(usize, f64), String> {
    let (core, val) = s
        .split_once('@')
        .ok_or_else(|| format!("{} expects CORE@VALUE, got `{}`", flag, s))?;
    let core = core.trim().parse().map_err(|e| format!("{}: core: {}", flag, e))?;
    let val = val.trim().parse().map_err(|e| format!("{}: value: {}", flag, e))?;
    Ok((core, val))
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        file: String::new(),
        kernel: None,
        platform: "kaveri".into(),
        model: None,
        n: 16384,
        global: None,
        local: None,
        args: Vec::new(),
        defines: Vec::new(),
        compare: false,
        show_malleable: false,
        show_cpu: false,
        no_launch_cache: false,
        supervision: SupervisionConfig::default(),
        faults: FaultPlan::none(),
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                     flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{} needs a value", flag))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--kernel" => opts.kernel = Some(value(&mut it, a)?),
            "--platform" => opts.platform = value(&mut it, a)?,
            "--model" => opts.model = Some(value(&mut it, a)?),
            "--n" => {
                opts.n = value(&mut it, a)?.parse().map_err(|e| format!("--n: {}", e))?;
            }
            "--global" => opts.global = Some(parse_dims(&value(&mut it, a)?)?),
            "--local" => opts.local = Some(parse_dims(&value(&mut it, a)?)?),
            "--arg" => {
                let v = value(&mut it, a)?;
                let (k, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--arg expects name=value, got `{}`", v))?;
                opts.args.push((k.to_string(), val.to_string()));
            }
            "-D" => {
                let v = value(&mut it, a)?;
                match v.split_once('=') {
                    Some((k, val)) => opts.defines.push((k.to_string(), val.to_string())),
                    None => opts.defines.push((v, String::new())),
                }
            }
            "--compare" => opts.compare = true,
            "--show-malleable" => opts.show_malleable = true,
            "--show-cpu" => opts.show_cpu = true,
            "--no-launch-cache" => opts.no_launch_cache = true,
            "--no-supervision" => opts.supervision.enabled = false,
            "--breaker-threshold" => {
                let n: u32 =
                    value(&mut it, a)?.parse().map_err(|e| format!("{}: {}", a, e))?;
                if n == 0 {
                    return Err("--breaker-threshold must be at least 1".into());
                }
                opts.supervision.breaker_threshold = n;
            }
            "--deadline-factor" => {
                let f: f64 =
                    value(&mut it, a)?.parse().map_err(|e| format!("{}: {}", a, e))?;
                if !f.is_finite() || f < 1.0 {
                    return Err(format!(
                        "--deadline-factor must be finite and >= 1, got {}",
                        f
                    ));
                }
                opts.supervision.deadline_factor = f;
            }
            "--inject-preset" => {
                let name = value(&mut it, a)?;
                let preset = FaultPlan::preset(&name).ok_or_else(|| {
                    format!(
                        "unknown preset `{}` (gpu-hang, cpu-stall, transient-storm)",
                        name
                    )
                })?;
                if preset.gpu_hang_at_dispatch.is_some() {
                    opts.faults.gpu_hang_at_dispatch = preset.gpu_hang_at_dispatch;
                }
                opts.faults.core_stalls.extend(preset.core_stalls);
                opts.faults.core_slowdowns.extend(preset.core_slowdowns);
                opts.faults.transient_profile_failures += preset.transient_profile_failures;
            }
            "--inject-gpu-hang" => {
                let n = value(&mut it, a)?.parse().map_err(|e| format!("{}: {}", a, e))?;
                opts.faults.gpu_hang_at_dispatch = Some(n);
            }
            "--inject-core-stall" => {
                let (core, at_s) = parse_core_at(&value(&mut it, a)?, a)?;
                opts.faults.core_stalls.push(CoreStall { core, at_s });
            }
            "--inject-slowdown" => {
                let (core, factor) = parse_core_at(&value(&mut it, a)?, a)?;
                opts.faults.core_slowdowns.push(CoreSlowdown { core, factor });
            }
            "--inject-profile-failures" => {
                opts.faults.transient_profile_failures =
                    value(&mut it, a)?.parse().map_err(|e| format!("{}: {}", a, e))?;
            }
            "--watchdog-s" => {
                opts.faults.watchdog_timeout_s =
                    Some(value(&mut it, a)?.parse().map_err(|e| format!("{}: {}", a, e))?);
            }
            other if opts.file.is_empty() && !other.starts_with('-') => {
                opts.file = other.to_string();
            }
            other => return Err(format!("unknown option `{}`", other)),
        }
    }
    if opts.file.is_empty() {
        return Err("no kernel file given".into());
    }
    Ok(opts)
}

fn parse_dims(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse().map_err(|e| format!("bad dimension `{}`: {}", p, e)))
        .collect()
}

fn engine_for(platform: &str) -> Result<Engine, String> {
    match platform.to_lowercase().as_str() {
        "kaveri" => Ok(Engine::kaveri()),
        "skylake" => Ok(Engine::skylake()),
        other => Err(format!("unknown platform `{}` (kaveri or skylake)", other)),
    }
}

fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {}", e);
    ExitCode::FAILURE
}

fn run(argv: &[String], sweep: bool) -> ExitCode {
    let opts = match parse_options(argv) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => return fail(format!("{}: {}", opts.file, e)),
    };
    let engine = match engine_for(&opts.platform) {
        Ok(e) => e,
        Err(e) => return fail(e),
    };
    let model = match &opts.model {
        Some(path) => match PerfModel::load(std::path::Path::new(path)) {
            Ok(m) => m,
            Err(e) => return fail(e),
        },
        None => {
            eprintln!("no --model given; training a DecisionTree on a sub-grid...");
            let (data, _) = training::tiny_training_set(&engine);
            PerfModel::train(ModelKind::Dt, &data, 42)
        }
    };
    let platform_name = engine.platform.name.clone();
    let mut dopia = Dopia::new(engine, model);
    if opts.no_launch_cache {
        dopia.set_launch_cache_enabled(false);
    }
    dopia.set_supervision_config(opts.supervision);
    if opts.faults != FaultPlan::none() {
        if let Some(t) = opts.faults.watchdog_timeout_s {
            if !t.is_finite() || t <= 0.0 {
                return fail(format!("--watchdog-s must be finite and positive, got {}", t));
            }
        }
        dopia.set_fault_plan(opts.faults.clone());
    }
    let program = match dopia.create_program_with_options(&source, &opts.defines) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if program.kernels.is_empty() {
        return fail("source contains no kernels");
    }
    let prepared = match &opts.kernel {
        Some(name) => match program.kernel(name) {
            Some(k) => k,
            None => return fail(format!("no kernel named `{}`", name)),
        },
        None => &program.kernels[0],
    };
    println!("kernel   : {} ({} params)", prepared.original.name, prepared.original.params.len());
    println!("platform : {}", platform_name);
    println!("features : {}", prepared.features);
    if let DegradedMode::GpuOriginalOnly { reason } = &prepared.degraded_mode {
        println!("degraded : GPU-original-only ({})", reason);
    }

    // NDRange.
    let global = opts.global.clone().unwrap_or_else(|| vec![opts.n]);
    let local = opts.local.clone().unwrap_or_else(|| {
        if global.len() == 1 {
            vec![256]
        } else {
            vec![16, 16]
        }
    });
    let nd = match (global.as_slice(), local.as_slice()) {
        ([g], [l]) => NdRange::d1(*g, *l),
        ([g0, g1], [l0, l1]) => NdRange::d2([*g0, *g1], [*l0, *l1]),
        _ => return fail("--global/--local must both be 1-D or both 2-D"),
    };
    if let Err(e) = nd.validate() {
        return fail(e);
    }
    if opts.show_malleable {
        println!(
            "\n--- malleable GPU kernel ({}-D) ---\n{}",
            nd.work_dim,
            malleable_listing(prepared, nd.work_dim)
        );
    }
    if opts.show_cpu {
        println!(
            "\n--- generated CPU code ({}-D) ---\n{}",
            nd.work_dim,
            codegen::generate_cpu_source(&prepared.original, nd.work_dim)
        );
    }

    // Auto-bind arguments.
    let mut mem = Memory::new();
    let mut args: Vec<ArgValue> = Vec::new();
    for (idx, param) in prepared.original.params.iter().enumerate() {
        let overridden = opts.args.iter().find(|(k, _)| *k == param.name).map(|(_, v)| v);
        let value = match (&param.ty, overridden) {
            (clc::Type::Ptr { elem, .. }, len) => {
                let elems: usize = match len {
                    Some(v) => match v.parse() {
                        Ok(n) => n,
                        Err(e) => return fail(format!("--arg {}: {}", param.name, e)),
                    },
                    None => opts.n,
                };
                if elem.is_float() {
                    ArgValue::Buffer(mem.alloc_virtual_f32(elems, 0xC11 + idx as u64))
                } else {
                    ArgValue::Buffer(mem.alloc_i32(
                        workloads::data::random_i32(elems, elems.max(1) as i32, 0xC11 + idx as u64),
                    ))
                }
            }
            (clc::Type::Scalar(s), v) if s.is_float() => {
                let value: f32 = match v {
                    Some(v) => match v.parse() {
                        Ok(x) => x,
                        Err(e) => return fail(format!("--arg {}: {}", param.name, e)),
                    },
                    None => 1.0,
                };
                ArgValue::Float(value)
            }
            (clc::Type::Scalar(_), v) => {
                let value: i64 = match v {
                    Some(v) => match v.parse() {
                        Ok(x) => x,
                        Err(e) => return fail(format!("--arg {}: {}", param.name, e)),
                    },
                    None => opts.n as i64,
                };
                ArgValue::Int(value)
            }
            (clc::Type::Void, _) => return fail("void parameter"),
        };
        args.push(value);
    }

    if sweep {
        return print_sweep(&dopia, prepared, &args, nd, &mut mem);
    }

    // Launch through the command queue so transient faults get the
    // bounded-retry treatment an application would.
    let mut queue = CommandQueue::new(&dopia);
    let result = match queue.enqueue_nd_range_kernel(
        &program,
        &prepared.original.name,
        &args,
        nd,
        &mem,
    ) {
        Ok(event) => event.result,
        Err(e) => return fail(e),
    };
    println!("\ndecision : {} CPU cores + {}/8 GPU ({}) ({} µs inference)",
        result.selection.point.cpu_cores,
        result.selection.point.gpu_eighths,
        result.source.name(),
        (result.selection.inference_s * 1e6).round());
    println!(
        "execution: {:.3} ms simulated ({} groups CPU / {} GPU, {:.2}M memory requests)",
        result.kernel_time_s * 1e3,
        result.report.cpu_groups,
        result.report.gpu_groups,
        result.report.mem_requests() / 1e6
    );
    if result.report.degraded || !result.health.is_nominal() {
        println!(
            "health   : degraded={} watchdog_fires={} recovered_groups={} lost_groups={} \
             fallbacks={} degraded_launches={} transient_retries={}",
            result.report.degraded,
            result.report.watchdog_fires,
            result.report.recovered_groups,
            result.report.lost_groups,
            result.health.prediction_fallbacks,
            result.health.degraded_launches,
            result.health.transient_retries,
        );
    }
    let sup = dopia.supervision_stats();
    println!(
        "supervise: {} cpu_breaker={} gpu_breaker={} trips={} quarantined={} \
         redispatched_groups={} pinned_launches={} nominal={}",
        if dopia.supervision_config().enabled { "on" } else { "off (--no-supervision)" },
        sup.cpu_breaker.name(),
        sup.gpu_breaker.name(),
        sup.breaker_trips,
        sup.quarantined_kernels,
        result.health.redispatched_groups,
        result.health.breaker_pinned_launches,
        result.health.is_nominal(),
    );
    let cache = dopia.cache_stats();
    println!(
        "cache    : {} (hits {} / misses {} / evictions {} / invalidations {} / profile_reuses {})",
        if dopia.launch_cache_enabled() { "on" } else { "off (--no-launch-cache)" },
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.invalidations,
        cache.profile_reuses,
    );

    if opts.compare {
        let profile = match dopia.profile(prepared, &args, nd, &mem) {
            Ok(p) => p,
            Err(e) => return fail(e),
        };
        let mut oracle_time = f64::INFINITY;
        for point in dopia.space() {
            let t = dopia
                .engine()
                .simulate(&profile, &nd, point.dop(), Schedule::Dynamic { chunk_divisor: 10 }, true)
                .time_s;
            oracle_time = oracle_time.min(t);
        }
        println!("\n             time        vs oracle");
        for b in Baseline::all() {
            let r = baselines::simulate_baseline(dopia.engine(), &profile, &nd, b);
            println!("  {:<10} {:>9.3} ms  {:>5.1}%", b.label(), r.time_s * 1e3, 100.0 * oracle_time / r.time_s);
        }
        println!("  {:<10} {:>9.3} ms  {:>5.1}%", "Dopia", result.total_time_s * 1e3, 100.0 * oracle_time / result.total_time_s);
        println!("  {:<10} {:>9.3} ms  100.0%", "Exhaustive", oracle_time * 1e3);
    }
    ExitCode::SUCCESS
}

/// The `sweep` subcommand body: simulate every DoP point and print the
/// normalized heatmap plus the model's pick.
fn print_sweep(
    dopia: &Dopia,
    prepared: &PreparedKernel,
    args: &[ArgValue],
    nd: NdRange,
    mem: &mut Memory,
) -> ExitCode {
    let profile = match dopia.profile(prepared, args, nd, mem) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let max_cores = dopia.engine().platform.cpu.cores;
    let sched = Schedule::Dynamic { chunk_divisor: 10 };
    let mut times: Vec<Vec<f64>> = vec![vec![f64::NAN; 5]; 9];
    let mut best = f64::INFINITY;
    let cpu_levels: Vec<usize> = (0..=4).map(|l| max_cores * l / 4).collect();
    for (gi, row) in times.iter_mut().enumerate() {
        for (ci, cell) in row.iter_mut().enumerate() {
            let (cpu, g) = (cpu_levels[ci], gi);
            if cpu == 0 && g == 0 {
                continue;
            }
            let t = dopia
                .engine()
                .simulate(
                    &profile,
                    &nd,
                    sim::engine::DopConfig { cpu_cores: cpu, gpu_frac: g as f64 / 8.0 },
                    sched,
                    true,
                )
                .time_s;
            *cell = t;
            best = best.min(t);
        }
    }
    println!("
normalized performance (best = 1.00); rows GPU eighths, cols CPU cores");
    print!("{:>8}", "GPU/CPU");
    for &cpu in &cpu_levels {
        print!("{:>7}", cpu);
    }
    println!();
    for gi in (0..9).rev() {
        print!("{:>8}", format!("{}/8", gi));
        for &t in &times[gi] {
            if t.is_nan() {
                print!("{:>7}", "-");
            } else {
                print!("{:>7.2}", best / t);
            }
        }
        println!();
    }
    let sel = dopia.model().select_config(
        prepared.features,
        nd.work_dim,
        nd.global_size(),
        nd.local_size(),
        dopia.space(),
    );
    println!(
        "
model pick: {} CPU + {}/8 GPU -> {:.2} of best",
        sel.point.cpu_cores,
        sel.point.gpu_eighths,
        best / times[sel.point.gpu_eighths]
            [cpu_levels.iter().position(|&c| c == sel.point.cpu_cores).unwrap_or(0)]
    );
    ExitCode::SUCCESS
}

fn inspect(argv: &[String]) -> ExitCode {
    let opts = match parse_options(argv) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => return fail(format!("{}: {}", opts.file, e)),
    };
    let engine = Engine::kaveri();
    // `inspect` needs no model; build a trivial constant regressor.
    struct Zero;
    impl ml::Regressor for Zero {
        fn predict(&self, _: &[f64]) -> f64 {
            0.0
        }
        fn name(&self) -> &'static str {
            "zero"
        }
    }
    let dopia = Dopia::new(engine, PerfModel::from_regressor(ModelKind::Dt, Box::new(Zero)));
    let program = match dopia.create_program_with_options(&source, &opts.defines) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    for k in &program.kernels {
        println!("=== kernel `{}` ===", k.original.name);
        println!("features: {}\n", k.features);
        println!("--- malleable GPU rewrite (1-D) ---\n{}", malleable_listing(k, 1));
        println!(
            "--- generated CPU code (1-D) ---\n{}",
            codegen::generate_cpu_source(&k.original, 1)
        );
    }
    ExitCode::SUCCESS
}

/// The malleable rewrite of `k` for a `work_dim`-dimensional launch,
/// generated on demand and printed as OpenCL-C, or why the kernel is
/// degraded instead.
fn malleable_listing(k: &PreparedKernel, work_dim: usize) -> String {
    let rewrite = match &k.degraded_mode {
        DegradedMode::GpuOriginalOnly { reason } => return format!("(degraded: {})", reason),
        DegradedMode::FullyManaged => codegen::transform_malleable(&k.original, work_dim),
    };
    match rewrite {
        Ok(m) => clc::printer::print_kernel(&m),
        Err(e) => format!("(unavailable: {})", e),
    }
}
