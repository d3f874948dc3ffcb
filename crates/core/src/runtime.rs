//! The Dopia runtime (paper Section 4, Fig. 4, and Algorithm 1).
//!
//! [`Dopia`] mirrors the OpenCL entry points the paper interposes on:
//!
//! * [`Dopia::create_program_with_source`] — compile-time path: parse and
//!   check the kernels, extract the Table 1 code features, check that the
//!   malleable rewrite (Figs. 5/6) applies, and lower each kernel to the
//!   bytecode its profiles run on. The rewrite and the CPU code (Fig. 7)
//!   are generated on demand for inspection; no simulated launch runs them.
//! * [`Dopia::enqueue_nd_range_kernel`] — run-time path, one pipeline per
//!   launch: *decide* the DoP configuration (a [`DecisionSource`]; normally
//!   the ML model swept over the 44 configurations), *execute* it with the
//!   dynamic CPU-pull / GPU-push distributor (Algorithm 1; realized by the
//!   simulator's DES), *observe* the outcome for the supervision layer.
//!
//! Model-inference wall time is measured for real and added to the
//! simulated kernel time, matching the paper's accounting ("all runtime
//! overhead … is included").

use crate::cache::{CacheStats, CachedDecision, DecisionCache, LaunchKey};
use crate::codegen::malleable::check_malleable;
use crate::configs::{config_space, find_config, DopPoint};
use crate::features::{extract_code_features, CodeFeatures};
use crate::model::{heuristic_select, PerfModel, Selection};
use crate::supervision::{
    DevicePin, LaunchEvents, LaunchGuidance, SupervisionConfig, SupervisionStats, Supervisor,
};
use sim::fault::FaultPlan;
use sim::{
    ArgValue, CompiledKernel, Engine, KernelProfile, Memory, NdRange, Schedule, SimReport,
};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Process-unique id source for [`PreparedKernel`]s (the launch cache keys
/// on it; ids never repeat, so a rebuilt program never aliases an old
/// program's cached decisions).
static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(1);

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum DopiaError {
    Compile(clc::CompileError),
    Transform(crate::codegen::malleable::TransformError),
    Exec(sim::interp::ExecError),
    UnknownKernel(String),
    InvalidLaunch(String),
    /// A condition a retry may clear (a busy device, an injected transient
    /// fault). [`DopiaError::is_transient`] returns `true` only for this
    /// variant, and the queue's bounded retry acts on it.
    Transient(String),
}

impl DopiaError {
    /// Whether retrying the failed operation could succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, DopiaError::Transient(_))
    }
}

impl fmt::Display for DopiaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DopiaError::Compile(e) => write!(f, "compile error: {}", e),
            DopiaError::Transform(e) => write!(f, "{}", e),
            DopiaError::Exec(e) => write!(f, "{}", e),
            DopiaError::UnknownKernel(n) => write!(f, "unknown kernel `{}`", n),
            DopiaError::InvalidLaunch(m) => write!(f, "invalid launch: {}", m),
            DopiaError::Transient(m) => write!(f, "transient failure: {}", m),
        }
    }
}

impl std::error::Error for DopiaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DopiaError::Compile(e) => Some(e),
            DopiaError::Transform(e) => Some(e),
            DopiaError::Exec(e) => Some(e),
            DopiaError::UnknownKernel(_)
            | DopiaError::InvalidLaunch(_)
            | DopiaError::Transient(_) => None,
        }
    }
}

impl From<clc::CompileError> for DopiaError {
    fn from(e: clc::CompileError) -> Self {
        DopiaError::Compile(e)
    }
}

impl From<sim::interp::ExecError> for DopiaError {
    fn from(e: sim::interp::ExecError) -> Self {
        DopiaError::Exec(e)
    }
}

/// How much of Dopia's management a prepared kernel supports.
///
/// Graceful degradation: a kernel the malleability transform cannot handle
/// (e.g. `get_global_id` with a non-literal dimension) no longer fails the
/// whole program build. It is kept launchable in a reduced mode — the
/// original kernel on the GPU alone, the way an unmanaged OpenCL runtime
/// would run it — while every other kernel in the program stays fully
/// managed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradedMode {
    /// The malleable rewrite applies to 1-D and 2-D launches; launches get
    /// the full model-driven CPU+GPU co-execution.
    FullyManaged,
    /// Only the original kernel is usable: launches run GPU-only with a
    /// single static dispatch and no model selection.
    GpuOriginalOnly {
        /// Why the transform rejected the kernel.
        reason: String,
    },
}

/// A kernel after Dopia's compile-time analysis and rewriting.
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    /// Process-unique identity, stamped at program build time. The launch
    /// decision cache keys on it.
    pub id: u64,
    /// The unmodified kernel.
    pub original: clc::Kernel,
    /// Static code features (Table 1, top six rows).
    pub features: CodeFeatures,
    /// Whether the kernel is fully managed or degraded. No launch executes
    /// the malleable rewrite (Figs. 5/6) or the CPU code (Fig. 7);
    /// `transform_malleable` / `generate_cpu_source` produce them on
    /// demand for inspection.
    pub degraded_mode: DegradedMode,
    /// The original kernel lowered to flat bytecode at program build time;
    /// every profile of this kernel runs on the register VM against this
    /// handle. Always `Some` for kernels from `create_program_*` (a kernel
    /// that cannot be lowered fails the build). Invalidated with the
    /// prepared kernel itself: a rebuild mints a new [`CompiledKernel`]
    /// (fresh `code_id`), and the launch cache keys on that id.
    pub compiled: Option<Arc<CompiledKernel>>,
}

impl PreparedKernel {
    /// `code_id` of the compiled bytecode (cache keys embed this); 0 for a
    /// hand-built kernel without bytecode.
    pub fn code_id(&self) -> u64 {
        self.compiled.as_ref().map(|c| c.code_id()).unwrap_or(0)
    }

    /// Whether launches of this kernel run in a reduced mode.
    pub fn is_degraded(&self) -> bool {
        !matches!(self.degraded_mode, DegradedMode::FullyManaged)
    }
}

/// Counters of everything the runtime absorbed instead of failing: the
/// observability half of graceful degradation. Attached to every
/// [`LaunchResult`] and aggregated per queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeHealth {
    /// Launches whose model predictions were unusable (NaN/∞/negative for
    /// every configuration) and fell back to the GPU-only heuristic.
    pub prediction_fallbacks: u32,
    /// Launches of kernels in [`DegradedMode::GpuOriginalOnly`].
    pub degraded_launches: u32,
    /// Transient errors absorbed by retry (the queue's bounded backoff).
    pub transient_retries: u32,
    /// Watchdog recoveries during simulated co-execution (hung device
    /// reclaimed and its work re-distributed).
    pub watchdog_recoveries: u32,
    /// Launches served from the decision cache (profile + model sweep
    /// skipped entirely). Informational: does not affect
    /// [`RuntimeHealth::is_nominal`].
    pub launch_cache_hits: u32,
    /// Launches that missed the decision cache and paid the full
    /// characterization cost. Informational.
    pub launch_cache_misses: u32,
    /// Work-groups a launch deadline reclaimed from a straggling dispatch
    /// and a surviving device completed (supervision layer).
    pub redispatched_groups: u32,
    /// Device circuit breakers tripped open by launch outcomes.
    pub breaker_trips: u32,
    /// Launches pinned to one device's static config because the other
    /// device's breaker was open.
    pub breaker_pinned_launches: u32,
    /// Kernel classes whose model entered quarantine (misprediction EWMA
    /// over threshold).
    pub model_quarantines: u32,
    /// Launches served by the feature heuristic because the kernel's
    /// model was quarantined.
    pub quarantined_launches: u32,
}

impl RuntimeHealth {
    /// Field-wise accumulate (queue aggregation).
    pub fn absorb(&mut self, other: &RuntimeHealth) {
        self.prediction_fallbacks += other.prediction_fallbacks;
        self.degraded_launches += other.degraded_launches;
        self.transient_retries += other.transient_retries;
        self.watchdog_recoveries += other.watchdog_recoveries;
        self.launch_cache_hits += other.launch_cache_hits;
        self.launch_cache_misses += other.launch_cache_misses;
        self.redispatched_groups += other.redispatched_groups;
        self.breaker_trips += other.breaker_trips;
        self.breaker_pinned_launches += other.breaker_pinned_launches;
        self.model_quarantines += other.model_quarantines;
        self.quarantined_launches += other.quarantined_launches;
    }

    /// `true` when nothing went wrong anywhere. Only the fault counters
    /// matter here — cache hits/misses are normal operation, not absorbed
    /// failures. Every supervision intervention (a redispatch, a breaker
    /// trip, a pinned or quarantined launch) counts: it means something
    /// *did* go wrong, even though the launch completed.
    pub fn is_nominal(&self) -> bool {
        self.prediction_fallbacks == 0
            && self.degraded_launches == 0
            && self.transient_retries == 0
            && self.watchdog_recoveries == 0
            && self.redispatched_groups == 0
            && self.breaker_trips == 0
            && self.breaker_pinned_launches == 0
            && self.model_quarantines == 0
            && self.quarantined_launches == 0
    }
}

/// A compiled program: all kernels analyzed and rewritten.
#[derive(Debug, Clone)]
pub struct Program {
    pub source: String,
    pub kernels: Vec<PreparedKernel>,
}

impl Program {
    pub fn kernel(&self, name: &str) -> Option<&PreparedKernel> {
        self.kernels.iter().find(|k| k.original.name == name)
    }
}

/// How a launch's configuration was decided. Exactly one applies to every
/// launch, and it alone sets the launch's one-hot [`RuntimeHealth`]
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// A [`DegradedMode::GpuOriginalOnly`] kernel: GPU-only, no model.
    Degraded,
    /// An open device breaker pinned the surviving device's static config.
    Pinned,
    /// The kernel's model is quarantined; the feature heuristic chose.
    Quarantined,
    /// Served from the decision cache: no profile, no model sweep.
    CacheHit,
    /// The model chose after a cache miss.
    CacheMiss,
    /// The model chose with the cache off, or in [`Dopia::launch_with_profile`].
    Uncached,
}

impl DecisionSource {
    /// Kebab-case name (CLI output).
    pub fn name(self) -> &'static str {
        match self {
            DecisionSource::Degraded => "degraded",
            DecisionSource::Pinned => "pinned",
            DecisionSource::Quarantined => "quarantined",
            DecisionSource::CacheHit => "cache-hit",
            DecisionSource::CacheMiss => "cache-miss",
            DecisionSource::Uncached => "uncached",
        }
    }
}

/// What the decide stage hands to execute, plus a miss's cache key.
struct Decision {
    source: DecisionSource,
    selection: Selection,
    profile: Arc<KernelProfile>,
    miss_key: Option<LaunchKey>,
}

/// The result of one managed launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchResult {
    /// How the configuration was decided.
    pub source: DecisionSource,
    /// DoP selection the model made, incl. measured inference wall time.
    pub selection: Selection,
    /// Simulated co-execution report at the chosen configuration.
    pub report: SimReport,
    /// Simulated kernel time without overhead (== `report.time_s`).
    pub kernel_time_s: f64,
    /// End-to-end time: kernel time plus model-inference overhead — the
    /// number the paper's evaluation charges to Dopia.
    pub total_time_s: f64,
    /// What the runtime absorbed to complete this launch.
    pub health: RuntimeHealth,
}

/// The Dopia runtime for one platform + one trained model.
#[derive(Debug)]
pub struct Dopia {
    engine: Engine,
    model: PerfModel,
    space: Vec<DopPoint>,
    /// GPU chunk divisor of Algorithm 1 (the paper uses 10).
    pub chunk_divisor: usize,
    /// Injected faults applied to every subsequent launch (testing and
    /// resilience experiments); `None` means a healthy machine.
    fault_plan: Option<FaultPlan>,
    /// Remaining injected transient `profile()` failures.
    profile_failures_left: AtomicU32,
    /// Memoized launch decisions (see [`crate::cache`]).
    launch_cache: Mutex<DecisionCache>,
    /// Runtime toggle for the launch cache (CLI `--no-launch-cache`).
    cache_enabled: AtomicBool,
    /// Self-healing supervision: circuit breakers, launch deadlines and
    /// model quarantine (see [`crate::supervision`]).
    supervisor: Mutex<Supervisor>,
}

impl Dopia {
    pub fn new(engine: Engine, model: PerfModel) -> Self {
        let space = config_space(&engine.platform);
        Dopia {
            engine,
            model,
            space,
            chunk_divisor: 10,
            fault_plan: None,
            profile_failures_left: AtomicU32::new(0),
            launch_cache: Mutex::new(DecisionCache::default()),
            cache_enabled: AtomicBool::new(true),
            supervisor: Mutex::new(Supervisor::new(SupervisionConfig::default())),
        }
    }

    /// Replace the supervision layer with a fresh one under `config`
    /// (resets breaker and quarantine state; CLI `--no-supervision`,
    /// `--breaker-threshold`, `--deadline-factor`).
    pub fn set_supervision_config(&self, config: SupervisionConfig) {
        *self.lock_supervisor() = Supervisor::new(config);
    }

    /// The active supervision tunables.
    pub fn supervision_config(&self) -> SupervisionConfig {
        self.lock_supervisor().config()
    }

    /// Point-in-time supervision state (breaker states, trip and
    /// quarantine totals) for health reports.
    pub fn supervision_stats(&self) -> SupervisionStats {
        self.lock_supervisor().stats()
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    pub fn space(&self) -> &[DopPoint] {
        &self.space
    }

    /// Inject a [`FaultPlan`] into every subsequent launch: DES-level
    /// faults (hangs, stalls, slowdowns) play out with watchdog recovery,
    /// and the plan's leading transient profile failures make
    /// [`Dopia::profile`] return [`DopiaError::Transient`] that many times.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.profile_failures_left
            .store(plan.transient_profile_failures, Ordering::Relaxed);
        self.fault_plan = Some(plan);
    }

    /// Back to a healthy machine.
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
        self.profile_failures_left.store(0, Ordering::Relaxed);
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Enable or disable the launch decision cache. Disabling does not
    /// drop existing entries; it just routes every launch through the full
    /// profile + model sweep.
    pub fn set_launch_cache_enabled(&self, enabled: bool) {
        self.cache_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the launch decision cache is consulted.
    pub fn launch_cache_enabled(&self) -> bool {
        self.cache_enabled.load(Ordering::Relaxed)
    }

    /// Cumulative cache counters (hits, misses, evictions, invalidations,
    /// profile reuses).
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// The launch cache. A launch that panicked while holding it may have
    /// left it half-updated, so recovery drops every entry; the monotonic
    /// counters stay.
    fn lock_cache(&self) -> MutexGuard<'_, DecisionCache> {
        self.launch_cache.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            cache.clear();
            self.launch_cache.clear_poison();
            cache
        })
    }

    /// The supervisor. Recovery from a panicked holder starts a fresh one
    /// under the same configuration.
    fn lock_supervisor(&self) -> MutexGuard<'_, Supervisor> {
        self.supervisor.lock().unwrap_or_else(|poisoned| {
            let mut supervisor = poisoned.into_inner();
            *supervisor = Supervisor::new(supervisor.config());
            self.supervisor.clear_poison();
            supervisor
        })
    }

    /// Consume one injected transient profile failure, if any remain.
    fn take_injected_profile_failure(&self) -> bool {
        self.profile_failures_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Compile-time path: analyze and rewrite every kernel in `source`.
    pub fn create_program_with_source(&self, source: &str) -> Result<Program, DopiaError> {
        self.create_program_with_options(source, &[])
    }

    /// Like [`Dopia::create_program_with_source`] but with `-D name=value`
    /// build options (the `clBuildProgram` options string equivalent);
    /// sources may use `#define`/`#ifdef`.
    pub fn create_program_with_options(
        &self,
        source: &str,
        defines: &[(String, String)],
    ) -> Result<Program, DopiaError> {
        let program = clc::compile_with_defines(source, defines)?;
        let mut kernels = Vec::with_capacity(program.kernels.len());
        for kernel in program.kernels {
            let features = extract_code_features(&kernel);
            // Graceful degradation: a kernel the transform rejects is kept
            // launchable as GPU-original-only instead of failing the whole
            // program (an unmanaged kernel is strictly better than no
            // program).
            let degraded_mode = match check_malleable(&kernel) {
                Ok(()) => DegradedMode::FullyManaged,
                Err(e) => DegradedMode::GpuOriginalOnly { reason: e.to_string() },
            };
            // Lower to bytecode once per program build. A kernel the VM
            // cannot hold (register-file overflow, a barrier inside control
            // flow) could never be profiled, so it fails the build.
            let compiled = Arc::new(sim::compile_kernel(&kernel)?);
            kernels.push(PreparedKernel {
                id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
                original: kernel,
                features,
                degraded_mode,
                compiled: Some(compiled),
            });
        }
        Ok(Program { source: source.to_string(), kernels })
    }

    /// Run-time path: **decide → execute → observe**, then cache a fresh
    /// model decision.
    ///
    /// *Decide* honours supervision first: a degraded kernel, an open
    /// breaker's pin and a quarantined model's heuristic are fault-driven,
    /// so they never take a cached decision or insert one; a pinned launch
    /// only reuses a cached profile of its exact signature. Otherwise a
    /// launch whose kernel, NDRange and argument signature (buffer ids,
    /// lengths and content versions in one memory pool, plus scalar values)
    /// are cached skips the profile and the 44-point model sweep, and
    /// reports its key-build + lookup wall time as `selection.inference_s`.
    /// *Execute* co-executes, with straggler re-dispatch armed by the
    /// kernel class's launch history; *observe* feeds the outcome back to
    /// the supervisor.
    pub fn enqueue_nd_range_kernel(
        &self,
        program: &Program,
        kernel_name: &str,
        args: &[ArgValue],
        nd: NdRange,
        mem: &Memory,
    ) -> Result<LaunchResult, DopiaError> {
        let prepared = program
            .kernel(kernel_name)
            .ok_or_else(|| DopiaError::UnknownKernel(kernel_name.to_string()))?;
        nd.validate().map_err(DopiaError::InvalidLaunch)?;
        let groups = nd.num_groups();
        let guidance = self.lock_supervisor().begin_launch(prepared.id, groups);
        let Decision { source, selection, profile, miss_key } =
            self.decide(prepared, args, nd, mem, &guidance)?;
        let mut result = self.execute(&profile, nd, source, selection, guidance.deadline_s);
        let events = self.observe(prepared.id, groups, &mut result);
        // Fallback selections come from a model gone wrong, and a launch
        // that just quarantined its model was steered by predictions now
        // known bad — neither may be frozen into the cache.
        if let Some(key) = miss_key.filter(|_| !selection.fallback && !events.quarantine_entered) {
            self.lock_cache().insert(key, CachedDecision { profile, selection });
        }
        Ok(result)
    }

    /// The decide stage. Profiles at most once, and never on a cache hit
    /// or a pinned launch of a cached signature.
    fn decide(
        &self,
        prepared: &PreparedKernel,
        args: &[ArgValue],
        nd: NdRange,
        mem: &Memory,
        guidance: &LaunchGuidance,
    ) -> Result<Decision, DopiaError> {
        if let Some((source, selection)) = self.override_selection(prepared, guidance) {
            // Degraded kernels never reach the model and quarantine drops
            // the kernel's entries, so only a pin can find a cached profile.
            let cached = if source == DecisionSource::Pinned && self.launch_cache_enabled() {
                let key = LaunchKey::new(prepared.id, prepared.code_id(), nd, args, mem);
                self.lock_cache().reuse_profile(&key)
            } else {
                None
            };
            let profile = match cached {
                Some(profile) => profile,
                None => Arc::new(self.profile(prepared, args, nd, mem)?),
            };
            return Ok(Decision { source, selection, profile, miss_key: None });
        }
        let (mut source, mut miss_key) = (DecisionSource::Uncached, None);
        if self.launch_cache_enabled() {
            let lookup_start = Instant::now();
            let key = LaunchKey::new(prepared.id, prepared.code_id(), nd, args, mem);
            let cached = self.lock_cache().get(&key);
            if let Some(CachedDecision { profile, mut selection }) = cached {
                selection.inference_s = lookup_start.elapsed().as_secs_f64();
                let source = DecisionSource::CacheHit;
                return Ok(Decision { source, selection, profile, miss_key: None });
            }
            (source, miss_key) = (DecisionSource::CacheMiss, Some(key));
        }
        let profile = Arc::new(self.profile(prepared, args, nd, mem)?);
        let selection = self.model_selection(prepared, nd);
        Ok(Decision { source, selection, profile, miss_key })
    }

    /// The decisions the model does not make (`None`: the model decides).
    /// A degraded kernel has no model and no second device; its outcomes
    /// still feed the GPU breaker that other kernels consult.
    fn override_selection(
        &self,
        prepared: &PreparedKernel,
        guidance: &LaunchGuidance,
    ) -> Option<(DecisionSource, Selection)> {
        if prepared.is_degraded() {
            Some((DecisionSource::Degraded, self.static_selection(DevicePin::Gpu)))
        } else if let Some(pin) = guidance.pin {
            Some((DecisionSource::Pinned, self.static_selection(pin)))
        } else if !guidance.use_model {
            let cores = self.engine.platform.cpu.cores;
            let selection = heuristic_select(prepared.features, &self.space, cores);
            Some((DecisionSource::Quarantined, selection))
        } else {
            None
        }
    }

    /// The model's sweep over the configuration space.
    fn model_selection(&self, prepared: &PreparedKernel, nd: NdRange) -> Selection {
        self.model.select_config(
            prepared.features,
            nd.work_dim,
            nd.global_size(),
            nd.local_size(),
            &self.space,
        )
    }

    /// The execute stage, the runtime's only call into the engine. A
    /// managed launch runs the malleable kernel under Algorithm 1; a
    /// degraded one runs the original kernel as one static GPU dispatch,
    /// as an unmanaged OpenCL runtime would. The deadline applies only
    /// when both devices run: re-dispatch moves reclaimed work to the
    /// *other* device, and a single-device run has no survivor.
    fn execute(
        &self,
        profile: &KernelProfile,
        nd: NdRange,
        source: DecisionSource,
        selection: Selection,
        deadline_s: Option<f64>,
    ) -> LaunchResult {
        let no_faults = FaultPlan::none();
        let plan = self.fault_plan.as_ref().unwrap_or(&no_faults);
        let point = selection.point;
        let (schedule, malleable, deadline_s) = match source {
            DecisionSource::Degraded => (Schedule::Static { cpu_fraction: 0.0 }, false, None),
            _ => (
                Schedule::Dynamic { chunk_divisor: self.chunk_divisor },
                true,
                deadline_s.filter(|_| point.cpu_cores > 0 && point.gpu_eighths > 0),
            ),
        };
        let report = self.engine.simulate_supervised(
            profile,
            &nd,
            point.dop(),
            schedule,
            malleable,
            plan,
            deadline_s,
        );
        // Only a model decision counts as a prediction fallback; the
        // overrides choose without the model.
        let model_chose = matches!(
            source,
            DecisionSource::CacheHit | DecisionSource::CacheMiss | DecisionSource::Uncached
        );
        let health = RuntimeHealth {
            prediction_fallbacks: (model_chose && selection.fallback) as u32,
            degraded_launches: (source == DecisionSource::Degraded) as u32,
            breaker_pinned_launches: (source == DecisionSource::Pinned) as u32,
            quarantined_launches: (source == DecisionSource::Quarantined) as u32,
            launch_cache_hits: (source == DecisionSource::CacheHit) as u32,
            launch_cache_misses: (source == DecisionSource::CacheMiss) as u32,
            watchdog_recoveries: report.watchdog_fires,
            ..RuntimeHealth::default()
        };
        LaunchResult {
            source,
            selection,
            report,
            kernel_time_s: report.time_s,
            total_time_s: report.time_s + selection.inference_s,
            health,
        }
    }

    /// The observe stage: feed a completed launch to the supervisor and
    /// fold its counters into the launch's health. A model entering
    /// quarantine also drops the kernel's cached decisions — the
    /// now-distrusted predictions made them.
    fn observe(&self, kernel_id: u64, groups: usize, result: &mut LaunchResult) -> LaunchEvents {
        let point = result.selection.point;
        let events = self.lock_supervisor().observe_launch(
            kernel_id,
            groups,
            point.cpu_cores > 0,
            point.gpu_eighths > 0,
            result.selection.predicted,
            &result.report,
        );
        result.health.redispatched_groups = result.report.redispatched_groups as u32;
        result.health.breaker_trips = events.breaker_trips;
        result.health.model_quarantines = events.quarantine_entered as u32;
        if events.quarantine_entered {
            self.lock_cache().invalidate_kernel(kernel_id);
        }
        events
    }

    /// Every core of one device, nothing on the other (a breaker pin, or a
    /// degraded kernel on the GPU). `nearest_config` covers spaces without
    /// the full-DoP point, without a panic path.
    fn static_selection(&self, device: DevicePin) -> Selection {
        let index = match device {
            DevicePin::Cpu => find_config(&self.space, self.engine.platform.cpu.cores, 0)
                .unwrap_or_else(|| nearest_config(&self.space, 1.0, 0.0)),
            DevicePin::Gpu => find_config(&self.space, 0, 8)
                .unwrap_or_else(|| nearest_config(&self.space, 0.0, 1.0)),
        };
        Selection {
            index,
            point: self.space[index],
            predicted: f64::NAN, // no model was consulted
            inference_s: 0.0,
            fallback: true,
        }
    }

    /// Characterize a launch afresh: no cache is read or written
    /// (separated so sweeps can reuse the profile).
    pub fn profile(
        &self,
        prepared: &PreparedKernel,
        args: &[ArgValue],
        nd: NdRange,
        mem: &Memory,
    ) -> Result<KernelProfile, DopiaError> {
        if self.take_injected_profile_failure() {
            return Err(DopiaError::Transient(
                "injected transient profile failure".to_string(),
            ));
        }
        // Hot path: the bytecode lowered at program build time. Only a
        // hand-built kernel without it is lowered per launch.
        match &prepared.compiled {
            Some(ck) => Ok(self.engine.profile_compiled(ck, args, &nd, mem)?),
            None => {
                let spec = sim::engine::LaunchSpec { kernel: &prepared.original, args, nd };
                Ok(self.engine.profile(spec, mem)?)
            }
        }
    }

    /// Decide and execute an already-profiled launch without cache or
    /// supervision: a degraded kernel runs GPU-original-only, any other
    /// takes the model's pick (unusable predictions fall back to the
    /// GPU-only heuristic). [`LaunchResult::health`] says what was absorbed.
    pub fn launch_with_profile(
        &self,
        prepared: &PreparedKernel,
        profile: &KernelProfile,
        nd: NdRange,
    ) -> LaunchResult {
        let (source, selection) = self
            .override_selection(prepared, &LaunchGuidance::neutral())
            .unwrap_or_else(|| (DecisionSource::Uncached, self.model_selection(prepared, nd)));
        self.execute(profile, nd, source, selection, None)
    }
}

/// Index of the space point closest to the given utilization targets
/// (total function: any non-empty space yields an index).
fn nearest_config(space: &[DopPoint], cpu_util: f64, gpu_util: f64) -> usize {
    let mut best = (0usize, f64::INFINITY);
    for (i, p) in space.iter().enumerate() {
        let dc = p.cpu_util - cpu_util;
        let dg = p.gpu_util - gpu_util;
        let d = dc * dc + dg * dg;
        if d < best.1 {
            best = (i, d);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervision::QUARANTINE_MIN_SAMPLES;
    use ml::ModelKind;

    /// Training dominates these tests; share one runtime across the module.
    fn trained_dopia() -> &'static Dopia {
        static DOPIA: std::sync::OnceLock<Dopia> = std::sync::OnceLock::new();
        DOPIA.get_or_init(|| {
            let engine = Engine::kaveri();
            let (data, _) = crate::training::tiny_training_set(&engine);
            let model = PerfModel::train(ModelKind::Dt, &data, 42);
            Dopia::new(engine, model)
        })
    }

    /// A private runtime for tests that mutate shared state (the launch
    /// cache, fault plans). The training sweep is shared; only model
    /// training repeats.
    fn fresh_dopia() -> Dopia {
        static DATA: std::sync::OnceLock<ml::Dataset> = std::sync::OnceLock::new();
        let engine = Engine::kaveri();
        let data = DATA.get_or_init(|| crate::training::tiny_training_set(&engine).0);
        let model = PerfModel::train(ModelKind::Dt, data, 42);
        Dopia::new(engine, model)
    }

    #[test]
    fn end_to_end_launch() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source(workloads::polybench::GESUMMV_SRC)
            .unwrap();
        let prepared = program.kernel("gesummv").unwrap();
        assert!(prepared.features.mem_continuous >= 4);
        assert!(!prepared.is_degraded());

        let mut mem = Memory::new();
        let built = workloads::polybench::gesummv(&mut mem, 4096, 256);
        let result = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mem)
            .unwrap();
        assert!(result.total_time_s > result.kernel_time_s);
        assert_eq!(
            result.report.cpu_groups + result.report.gpu_groups,
            built.nd.num_groups()
        );
        // The chosen config must be in the space.
        assert!(result.selection.index < dopia.space().len());
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source("__kernel void a() { }")
            .unwrap();
        let mem = Memory::new();
        let err = dopia
            .enqueue_nd_range_kernel(&program, "nope", &[], NdRange::d1(64, 64), &mem)
            .unwrap_err();
        assert!(matches!(err, DopiaError::UnknownKernel(_)));
    }

    #[test]
    fn invalid_ndrange_is_an_error() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source("__kernel void a(int x) { x = 0; }")
            .unwrap();
        let mem = Memory::new();
        let err = dopia
            .enqueue_nd_range_kernel(
                &program,
                "a",
                &[ArgValue::Int(0)],
                NdRange::d1(100, 64),
                &mem,
            )
            .unwrap_err();
        assert!(matches!(err, DopiaError::InvalidLaunch(_)));
    }

    /// Every degenerate NDRange surfaces as `InvalidLaunch` — never a
    /// panic or a division by zero deeper in the stack.
    #[test]
    fn degenerate_ndranges_are_invalid_launches_not_panics() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source("__kernel void a(int x) { x = 0; }")
            .unwrap();
        let cases = [
            NdRange::d1(0, 64),                  // zero global
            NdRange::d1(1024, 0),                // zero local
            NdRange::d1(64, 256),                // local > global
            NdRange::d2([64, 100], [16, 16]),    // 2-D mismatch in dim 1
            NdRange::d2([0, 64], [16, 16]),      // 2-D zero global
        ];
        for nd in cases {
            let mem = Memory::new();
            let err = dopia
                .enqueue_nd_range_kernel(&program, "a", &[ArgValue::Int(0)], nd, &mem)
                .unwrap_err();
            assert!(matches!(err, DopiaError::InvalidLaunch(_)), "{:?}", nd);
            assert!(!err.is_transient(), "{:?}", nd);
        }
    }

    #[test]
    fn build_options_reach_the_preprocessor() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_options(
                "#ifdef FAST\n__kernel void f(__global float* a) { a[get_global_id(0)] = SCALE; }\n#endif",
                &[("FAST".into(), String::new()), ("SCALE".into(), "2.5f".into())],
            )
            .unwrap();
        assert_eq!(program.kernels.len(), 1);
        // Without the define the kernel disappears entirely.
        let empty = dopia
            .create_program_with_options(
                "#ifdef FAST\n__kernel void f(__global float* a) { a[0] = 1.0f; }\n#endif",
                &[],
            )
            .unwrap();
        assert!(empty.kernels.is_empty());
    }

    #[test]
    fn compile_errors_propagate() {
        let dopia = trained_dopia();
        let err = dopia.create_program_with_source("__kernel void x(").unwrap_err();
        assert!(matches!(err, DopiaError::Compile(_)));
    }

    #[test]
    fn two_dimensional_kernel_is_fully_managed_with_bytecode() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source(workloads::polybench::CONV2D_SRC)
            .unwrap();
        let k = program.kernel("conv2d").unwrap();
        assert_eq!(k.degraded_mode, DegradedMode::FullyManaged);
        let ck = k.compiled.as_ref().expect("every built kernel carries bytecode");
        assert_eq!(ck.name(), "conv2d");
        assert_eq!(k.code_id(), ck.code_id());
    }

    #[test]
    fn register_file_overflow_fails_the_build() {
        // One scope with more simultaneously live `int`s than the VM's
        // 16-bit register file can index.
        let decls: String = (0..65_536).map(|i| format!("int v{i} = {i};")).collect();
        let src = format!("__kernel void huge(__global int* out) {{ {decls} out[0] = v0; }}");
        let err = trained_dopia().create_program_with_source(&src).unwrap_err();
        assert!(matches!(err, DopiaError::Exec(_)), "{:?}", err);
        assert!(err.to_string().contains("register file overflow"), "{}", err);
    }

    #[test]
    fn untransformable_kernel_degrades_instead_of_failing() {
        // `get_global_id(d)` with a runtime dimension defeats the
        // malleability transform; the build must still succeed, keep the
        // good kernel fully managed, and leave the bad one launchable.
        let dopia = trained_dopia();
        let src = "__kernel void good(__global float* a) { a[get_global_id(0)] = 1.0f; }
                   __kernel void tricky(__global float* a, int d) { a[get_global_id(d)] = 2.0f; }";
        let program = dopia.create_program_with_source(src).unwrap();
        assert_eq!(program.kernels.len(), 2);
        let good = program.kernel("good").unwrap();
        assert_eq!(good.degraded_mode, DegradedMode::FullyManaged);
        let tricky = program.kernel("tricky").unwrap();
        assert!(tricky.is_degraded());
        assert!(matches!(tricky.degraded_mode, DegradedMode::GpuOriginalOnly { .. }));

        // The degraded kernel still launches: GPU-only, all work done.
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 1024]);
        let result = dopia
            .enqueue_nd_range_kernel(
                &program,
                "tricky",
                &[ArgValue::Buffer(a), ArgValue::Int(0)],
                NdRange::d1(1024, 64),
                &mem,
            )
            .unwrap();
        assert_eq!(result.report.cpu_groups, 0);
        assert_eq!(result.report.gpu_groups, 16);
        assert_eq!(result.health.degraded_launches, 1);
        assert!(result.selection.fallback);
        assert!(!result.health.is_nominal());
    }

    /// Prefers full co-execution (every launch runs on both devices) and
    /// predicts a normalized performance of 2 where 1 is the measurable
    /// ceiling, so its relative error always exceeds the quarantine
    /// threshold.
    struct CoExecOptimist;

    impl ml::Regressor for CoExecOptimist {
        fn predict(&self, row: &[f64]) -> f64 {
            // row[9] = cpu_util, row[10] = gpu_util (Table 1 order).
            row[9] + row[10]
        }
        fn name(&self) -> &'static str {
            "coexec-optimist"
        }
    }

    /// Drive a fresh runtime until its next launch is decided by `source`,
    /// and return that launch.
    fn launch_decided_by(source: DecisionSource) -> LaunchResult {
        let model = PerfModel::from_regressor(ModelKind::Lin, Box::new(CoExecOptimist));
        let mut dopia = Dopia::new(Engine::kaveri(), model);
        let mut mem = Memory::new();
        if source == DecisionSource::Degraded {
            let src = "__kernel void tricky(__global float* a, int d) {
                           a[get_global_id(d)] = 2.0f; }";
            let program = dopia.create_program_with_source(src).unwrap();
            let a = mem.alloc_f32(vec![0.0; 1024]);
            let args = [ArgValue::Buffer(a), ArgValue::Int(0)];
            let nd = NdRange::d1(1024, 64);
            let result =
                dopia.enqueue_nd_range_kernel(&program, "tricky", &args, nd, &mem).unwrap();
            // Exactly the unmanaged run: the original kernel as one static
            // GPU-only dispatch.
            let point = result.selection.point;
            assert_eq!((point.cpu_cores, point.gpu_eighths), (0, 8));
            let prepared = program.kernel("tricky").unwrap();
            let profile = dopia.profile(prepared, &args, nd, &mem).unwrap();
            let unmanaged = dopia.engine().simulate_with_faults(
                &profile,
                &nd,
                point.dop(),
                Schedule::Static { cpu_fraction: 0.0 },
                false,
                &FaultPlan::none(),
            );
            assert_eq!(result.kernel_time_s.to_bits(), unmanaged.time_s.to_bits());
            return result;
        }

        let program = dopia
            .create_program_with_source(workloads::polybench::GESUMMV_SRC)
            .unwrap();
        let built = workloads::polybench::gesummv(&mut mem, 1024, 256);
        let launch = |dopia: &Dopia, mem: &mut Memory| {
            dopia.enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, mem).unwrap()
        };
        match source {
            DecisionSource::Pinned => {
                // Core 0 dies at t = 0 in every launch; one fault trips the
                // CPU breaker.
                let config = SupervisionConfig { breaker_threshold: 1, ..Default::default() };
                dopia.set_supervision_config(config);
                dopia.set_fault_plan(FaultPlan::preset("cpu-stall").unwrap());
                assert_eq!(launch(&dopia, &mut mem).health.breaker_trips, 1);
            }
            DecisionSource::Quarantined => {
                // Every model-driven launch is off by more than
                // QUARANTINE_THRESHOLD, so the last scored sample quarantines.
                let quarantines: u32 = (0..QUARANTINE_MIN_SAMPLES)
                    .map(|_| launch(&dopia, &mut mem).health.model_quarantines)
                    .sum();
                assert_eq!(quarantines, 1);
            }
            DecisionSource::CacheHit => {
                launch(&dopia, &mut mem);
            }
            DecisionSource::Uncached => dopia.set_launch_cache_enabled(false),
            DecisionSource::CacheMiss | DecisionSource::Degraded => {}
        }
        launch(&dopia, &mut mem)
    }

    #[test]
    fn every_decision_source_sets_its_own_health_counter() {
        let none = RuntimeHealth::default();
        let cases = [
            (DecisionSource::Degraded, RuntimeHealth { degraded_launches: 1, ..none }),
            (DecisionSource::Pinned, RuntimeHealth { breaker_pinned_launches: 1, ..none }),
            (DecisionSource::Quarantined, RuntimeHealth { quarantined_launches: 1, ..none }),
            (DecisionSource::CacheHit, RuntimeHealth { launch_cache_hits: 1, ..none }),
            (DecisionSource::CacheMiss, RuntimeHealth { launch_cache_misses: 1, ..none }),
            (DecisionSource::Uncached, none),
        ];
        for (source, health) in cases {
            let result = launch_decided_by(source);
            assert_eq!(result.source, source);
            assert_eq!(result.health, health, "{}", source.name());
            assert_eq!(result.report.lost_groups, 0, "{}", source.name());
        }
    }

    #[test]
    fn error_chain_and_transience() {
        use std::error::Error;
        let dopia = trained_dopia();
        let compile_err = dopia.create_program_with_source("__kernel void x(").unwrap_err();
        assert!(compile_err.source().is_some(), "compile errors carry a cause");
        assert!(!compile_err.is_transient());
        let transient = DopiaError::Transient("device busy".into());
        assert!(transient.is_transient());
        assert!(transient.source().is_none());
    }

    #[test]
    fn repeated_identical_enqueue_hits_cache_and_skips_profiling() {
        let mut dopia = fresh_dopia();
        let program = dopia
            .create_program_with_source(workloads::polybench::GESUMMV_SRC)
            .unwrap();
        let mut mem = Memory::new();
        let built = workloads::polybench::gesummv(&mut mem, 1024, 256);

        let first = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mem)
            .unwrap();
        assert_eq!(first.health.launch_cache_misses, 1);
        assert_eq!(first.health.launch_cache_hits, 0);

        // Arm one injected transient profile failure. A cache hit must
        // never reach `profile()`, so an identical relaunch succeeds with
        // the failure still unconsumed...
        dopia.set_fault_plan(FaultPlan {
            transient_profile_failures: 1,
            ..FaultPlan::default()
        });
        let second = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mem)
            .unwrap();
        assert_eq!(second.health.launch_cache_hits, 1);
        assert_eq!(second.health.launch_cache_misses, 0);
        assert!(second.health.is_nominal(), "cache hits are not faults");
        assert_eq!(second.selection.index, first.selection.index);
        assert_eq!(second.report.time_s, first.report.time_s);
        assert!(second.selection.inference_s < first.selection.inference_s);

        // ...and a changed scalar argument is a different launch: it misses,
        // profiles, and trips the armed failure.
        let mut changed = built.args.clone();
        let scalar = changed
            .iter_mut()
            .find(|a| matches!(a, ArgValue::Float(_)))
            .expect("gesummv has scalar args");
        *scalar = ArgValue::Float(9.75);
        let err = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &changed, built.nd, &mem)
            .unwrap_err();
        assert!(err.is_transient());

        let stats = dopia.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn buffer_of_another_length_behind_the_same_handle_misses() {
        let dopia = fresh_dopia();
        let program = dopia
            .create_program_with_source(
                "__kernel void scale(__global float* a, int n) {
                     int i = get_global_id(0);
                     if (i < n) { a[i] = a[i] * 2.0f; }
                 }",
            )
            .unwrap();
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![1.0; 4096]);
        let args = [ArgValue::Buffer(a), ArgValue::Int(4096)];
        let nd = NdRange::d1(4096, 256);
        let base = dopia.cache_stats();

        let first = dopia
            .enqueue_nd_range_kernel(&program, "scale", &args, nd, &mem)
            .unwrap();
        assert_eq!(first.health.launch_cache_misses, 1);
        let warm = dopia
            .enqueue_nd_range_kernel(&program, "scale", &args, nd, &mem)
            .unwrap();
        assert_eq!(warm.health.launch_cache_hits, 1);

        // The host puts a longer buffer behind the same handle: same
        // NDRange, but the key's length no longer matches.
        *mem.get_mut(a) = sim::Buffer::F32(vec![1.0; 8192]);
        let after = dopia
            .enqueue_nd_range_kernel(&program, "scale", &args, nd, &mem)
            .unwrap();
        assert_eq!(after.health.launch_cache_misses, 1);
        assert_eq!(after.health.launch_cache_hits, 0);

        let stats = dopia.cache_stats();
        assert_eq!(stats.hits - base.hits, 1);
        assert_eq!(stats.misses - base.misses, 2);
        // Nothing is pruned: the old entry ages out through the LRU.
        assert_eq!(stats.invalidations - base.invalidations, 0);
    }

    #[test]
    fn disabled_cache_profiles_every_launch() {
        let dopia = fresh_dopia();
        let program = dopia
            .create_program_with_source(
                "__kernel void id(__global float* a) { a[get_global_id(0)] = 1.0f; }",
            )
            .unwrap();
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 1024]);
        let args = [ArgValue::Buffer(a)];
        let nd = NdRange::d1(1024, 64);
        let base = dopia.cache_stats();

        assert!(dopia.launch_cache_enabled());
        dopia.set_launch_cache_enabled(false);
        for _ in 0..2 {
            let r = dopia
                .enqueue_nd_range_kernel(&program, "id", &args, nd, &mem)
                .unwrap();
            assert_eq!(r.health.launch_cache_hits, 0);
            assert_eq!(r.health.launch_cache_misses, 0);
        }
        let stats = dopia.cache_stats();
        assert_eq!(stats.hits, base.hits, "disabled cache is never consulted");
        assert_eq!(stats.misses, base.misses);
        dopia.set_launch_cache_enabled(true);
    }

    #[test]
    fn injected_profile_failures_are_transient_and_bounded() {
        let engine = Engine::kaveri();
        let (data, _) = crate::training::tiny_training_set(&engine);
        let model = PerfModel::train(ml::ModelKind::Dt, &data, 42);
        let mut dopia = Dopia::new(engine, model);
        dopia.set_fault_plan(FaultPlan {
            transient_profile_failures: 2,
            ..FaultPlan::default()
        });
        let program = dopia
            .create_program_with_source(workloads::polybench::GESUMMV_SRC)
            .unwrap();
        let mut mem = Memory::new();
        let built = workloads::polybench::gesummv(&mut mem, 1024, 256);
        for _ in 0..2 {
            let err = dopia
                .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mem)
                .unwrap_err();
            assert!(err.is_transient(), "injected failures are transient: {}", err);
        }
        // The budget is spent; the third attempt succeeds.
        dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mem)
            .unwrap();
    }

    #[test]
    fn launches_recover_from_poisoned_locks() {
        let dopia = fresh_dopia();
        let config = SupervisionConfig { breaker_threshold: 7, ..SupervisionConfig::default() };
        dopia.set_supervision_config(config);
        let program = dopia
            .create_program_with_source(workloads::polybench::GESUMMV_SRC)
            .unwrap();
        let mut mem = Memory::new();
        let built = workloads::polybench::gesummv(&mut mem, 1024, 256);
        let launch = |mem: &mut Memory| {
            dopia.enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, mem)
        };
        launch(&mut mem).unwrap();
        assert_eq!(dopia.lock_cache().len(), 1);
        let before = dopia.cache_stats();

        // A launch that panics while holding either lock poisons it.
        std::thread::scope(|s| {
            let cache = s.spawn(|| {
                let _held = dopia.launch_cache.lock().unwrap();
                panic!("launch panicked holding the cache");
            });
            assert!(cache.join().is_err());
            let supervisor = s.spawn(|| {
                let _held = dopia.supervisor.lock().unwrap();
                panic!("launch panicked holding the supervisor");
            });
            assert!(supervisor.join().is_err());
        });
        assert!(dopia.launch_cache.is_poisoned() && dopia.supervisor.is_poisoned());

        // The next launch recovers both: it misses because the cache was
        // emptied, and the counters never go backwards.
        let result = launch(&mut mem).unwrap();
        assert!(!dopia.launch_cache.is_poisoned() && !dopia.supervisor.is_poisoned());
        assert_eq!(result.health.launch_cache_misses, 1, "the recovered cache starts empty");
        assert_eq!(dopia.lock_cache().len(), 1);
        assert_eq!(dopia.supervision_config(), config, "a fresh supervisor keeps the config");
        let after = dopia.cache_stats();
        assert_eq!(after.misses, before.misses + 1);
        assert!(after.hits >= before.hits);
        assert!(after.evictions >= before.evictions);
        assert!(after.invalidations >= before.invalidations);
        assert_eq!(launch(&mut mem).unwrap().health.launch_cache_hits, 1);
    }
}
