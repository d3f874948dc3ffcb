//! The façade tying interpreter, profiler, cost model and DES together.

use crate::buffer::{ArgValue, Memory};
use crate::cost::{self, ModelConstants};
use crate::des::{self, DesInput, GpuAgentParams};
use crate::fault::FaultPlan;
use crate::interp::{CompiledKernel, ExecError};
use crate::ndrange::NdRange;
use crate::platform::PlatformConfig;
use crate::profile::{self, KernelProfile};
use clc::Kernel;

pub use crate::des::{Schedule, SimReport};

/// A kernel launch: code + arguments + geometry.
#[derive(Clone, Copy)]
pub struct LaunchSpec<'a> {
    pub kernel: &'a Kernel,
    pub args: &'a [ArgValue],
    pub nd: NdRange,
}

/// A degree-of-parallelism choice: active CPU cores and the fraction of GPU
/// PEs allowed to run (paper Table 3 enumerates the discrete levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DopConfig {
    pub cpu_cores: usize,
    /// 0.0 disables the GPU; 1.0 activates every PE.
    pub gpu_frac: f64,
}

impl DopConfig {
    pub fn cpu_only(cores: usize) -> Self {
        DopConfig { cpu_cores: cores, gpu_frac: 0.0 }
    }

    pub fn gpu_only(frac: f64) -> Self {
        DopConfig { cpu_cores: 0, gpu_frac: frac }
    }
}

/// The simulation engine for one platform.
#[derive(Debug, Clone)]
pub struct Engine {
    pub platform: PlatformConfig,
    pub consts: ModelConstants,
    /// Force the exact per-agent event loop even when the batched DES
    /// fast path applies. Used by the equivalence suite and the perf
    /// benchmarks to measure both paths through the same API.
    pub exact_des_only: bool,
}

impl Engine {
    pub fn new(platform: PlatformConfig) -> Self {
        Engine { platform, consts: ModelConstants::default(), exact_des_only: false }
    }

    pub fn kaveri() -> Self {
        Engine::new(PlatformConfig::kaveri())
    }

    pub fn skylake() -> Self {
        Engine::new(PlatformConfig::skylake())
    }

    /// Characterize a launch by sampled interpretation (no timing).
    /// Compiles the kernel to bytecode on the spot; callers with a cached
    /// [`CompiledKernel`] should use [`Engine::profile_compiled`].
    pub fn profile(&self, spec: LaunchSpec<'_>, mem: &mut Memory) -> Result<KernelProfile, ExecError> {
        spec.nd
            .validate()
            .map_err(|m| ExecError { message: m, span: spec.kernel.span })?;
        profile::profile_kernel(spec.kernel, spec.args, &spec.nd, mem)
    }

    /// [`Engine::profile`] on a pre-compiled kernel — the cold-enqueue hot
    /// path (compile once at prepare time, profile per launch geometry).
    pub fn profile_compiled(
        &self,
        ck: &CompiledKernel,
        args: &[ArgValue],
        nd: &NdRange,
        mem: &mut Memory,
    ) -> Result<KernelProfile, ExecError> {
        nd.validate()
            .map_err(|m| ExecError { message: m, span: ck.span() })?;
        profile::profile_compiled(ck, args, nd, mem)
    }

    /// Simulate the timing of a launch under a DoP configuration and
    /// scheduling policy.
    ///
    /// * `malleable` — whether the GPU runs Dopia's rewritten kernel (adds
    ///   the worklist overhead). Baselines (`CPU`, `GPU`, `ALL`) pass
    ///   `false`; Dopia passes `true`.
    ///
    /// # Panics
    /// Panics when both devices are disabled (`cpu_cores == 0` and
    /// `gpu_frac == 0`), mirroring the paper's exclusion of that config.
    pub fn simulate(
        &self,
        profile: &KernelProfile,
        nd: &NdRange,
        dop: DopConfig,
        schedule: Schedule,
        malleable: bool,
    ) -> SimReport {
        self.simulate_with_faults(profile, nd, dop, schedule, malleable, &FaultPlan::none())
    }

    /// [`Engine::simulate`] under a [`FaultPlan`]: injected hangs, stalls
    /// and slowdowns play out with watchdog-driven recovery (see
    /// [`des::run_des_exact`]). An empty plan is bit-identical to
    /// `simulate`.
    pub fn simulate_with_faults(
        &self,
        profile: &KernelProfile,
        nd: &NdRange,
        dop: DopConfig,
        schedule: Schedule,
        malleable: bool,
        plan: &FaultPlan,
    ) -> SimReport {
        self.simulate_supervised(profile, nd, dop, schedule, malleable, plan, None)
    }

    /// [`Engine::simulate_with_faults`] with an optional per-dispatch
    /// launch deadline (seconds): dispatches still pending past the
    /// deadline are reclaimed and re-dispatched onto the surviving device
    /// (see [`des::run_des_exact`]). `None` is bit-identical to
    /// `simulate_with_faults`. Runs [`des::run_des`], or the exact loop
    /// alone when [`Engine::exact_des_only`] is set.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_supervised(
        &self,
        profile: &KernelProfile,
        nd: &NdRange,
        dop: DopConfig,
        schedule: Schedule,
        malleable: bool,
        plan: &FaultPlan,
        deadline_s: Option<f64>,
    ) -> SimReport {
        assert!(
            dop.cpu_cores > 0 || dop.gpu_frac > 0.0,
            "configuration CPU 0 / GPU 0 is excluded"
        );
        let absorb = cost::llc_absorb(profile, nd, &self.platform, &self.consts);

        let cpu_cost = if dop.cpu_cores > 0 {
            let mut c = cost::cpu_group_cost(profile, nd, &self.platform, &self.consts);
            c.dram_bytes *= 1.0 - absorb;
            Some(c)
        } else {
            None
        };
        let gpu = if dop.gpu_frac > 0.0 {
            let mut c = cost::gpu_group_cost(
                profile,
                nd,
                &self.platform,
                &self.consts,
                dop.gpu_frac,
                malleable,
            );
            c.dram_bytes *= 1.0 - absorb;
            Some(GpuAgentParams {
                cost: c,
                cus: self.platform.gpu.cus,
                launch_latency_s: self.platform.gpu.launch_latency_s,
            })
        } else {
            None
        };

        let input = DesInput {
            num_groups: nd.num_groups(),
            cpu_cores: dop.cpu_cores.min(self.platform.cpu.cores),
            cpu_cost,
            gpu,
            schedule,
            dram_bw_gbs: self.platform.mem.dram_bw_gbs,
        };
        if self.exact_des_only {
            des::run_des_exact(&input, plan, deadline_s)
        } else {
            des::run_des(&input, plan, deadline_s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gesummv_launch(mem: &mut Memory, n: usize) -> (Kernel, Vec<ArgValue>, NdRange) {
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
        (kernel, args, NdRange::d1(n, 256))
    }

    #[test]
    fn simulate_is_deterministic() {
        let engine = Engine::kaveri();
        let mut mem = Memory::new();
        let (k, args, nd) = gesummv_launch(&mut mem, 2048);
        let spec = LaunchSpec { kernel: &k, args: &args, nd };
        let p = engine.profile(spec, &mut mem).unwrap();
        let dop = DopConfig { cpu_cores: 4, gpu_frac: 0.5 };
        let r1 = engine.simulate(&p, &nd, dop, Schedule::Dynamic { chunk_divisor: 10 }, true);
        let r2 = engine.simulate(&p, &nd, dop, Schedule::Dynamic { chunk_divisor: 10 }, true);
        assert_eq!(r1, r2);
        assert!(r1.time_s > 0.0);
        assert_eq!(r1.cpu_groups + r1.gpu_groups, nd.num_groups());
    }

    #[test]
    fn co_execution_beats_single_device_for_gesummv() {
        // The headline phenomenon: some CPU+GPU mix beats both CPU-only and
        // GPU-only on a bandwidth-starved APU.
        let engine = Engine::kaveri();
        let mut mem = Memory::new();
        let (k, args, nd) = gesummv_launch(&mut mem, 16384);
        let spec = LaunchSpec { kernel: &k, args: &args, nd };
        let p = engine.profile(spec, &mut mem).unwrap();
        let sched = Schedule::Dynamic { chunk_divisor: 10 };
        let cpu_only = engine.simulate(&p, &nd, DopConfig::cpu_only(4), sched, false);
        let gpu_only = engine.simulate(&p, &nd, DopConfig::gpu_only(1.0), sched, false);
        let mut best = f64::INFINITY;
        for step in 1..=8 {
            let dop = DopConfig { cpu_cores: 4, gpu_frac: step as f64 / 8.0 };
            let r = engine.simulate(&p, &nd, dop, sched, true);
            best = best.min(r.time_s);
        }
        assert!(
            best < cpu_only.time_s && best < gpu_only.time_s,
            "best co-exec {} vs cpu {} gpu {}",
            best,
            cpu_only.time_s,
            gpu_only.time_s
        );
    }

    #[test]
    #[should_panic]
    fn zero_zero_config_panics() {
        let engine = Engine::kaveri();
        let mut mem = Memory::new();
        let (k, args, nd) = gesummv_launch(&mut mem, 1024);
        let spec = LaunchSpec { kernel: &k, args: &args, nd };
        let p = engine.profile(spec, &mut mem).unwrap();
        engine.simulate(
            &p,
            &nd,
            DopConfig { cpu_cores: 0, gpu_frac: 0.0 },
            Schedule::Dynamic { chunk_divisor: 10 },
            false,
        );
    }
}
