//! `replay` and `faulted`: the iterative application.
//!
//! `replay` runs a seeded interleaving of application steps; after the
//! first launch of each distinct signature every launch is a decision-cache
//! hit plus a DES fast-path run. `faulted` replays the one-dimensional
//! steps under the `cpu-stall` fault preset (core 0 halts on every launch),
//! so every launch takes the exact DES loop and the CPU breaker keeps
//! pinning launches to the GPU, where each pinned launch profiles again.
//! (`gpu-hang` is not used: a GPU-only configuration under it has no
//! surviving device and loses its work-groups, which counts as a failure.)

use crate::app::{self, App, StepStream, ALL_STEPS, ONE_D_STEPS, STEPS};
use crate::measure::{self, Call, Driver, Recorder, Snapshot, CHECK_SAMPLES};
use crate::trace::{self, Tracer};
use crate::Setup;
use dopia_core::training::WorkloadRecord;
use dopia_core::Dopia;
use sim::{ArgValue, FaultPlan, KernelProfile, NdRange};
use std::collections::HashMap;
use workloads::data::FastRng;

/// One cache hit kept for the fresh-decision check.
struct HitSample {
    k: usize,
    v: usize,
    args: Vec<ArgValue>,
    nd: NdRange,
    index: usize,
    kernel_time_s: f64,
}

pub struct Replay {
    dopia: Dopia,
    app: App,
    oracle: HashMap<usize, WorkloadRecord>,
    stream: StepStream,
    memo: HashMap<usize, KernelProfile>,
    samples: Vec<HitSample>,
    sample_rng: FastRng,
    faulted: bool,
}

impl Replay {
    pub fn setup(seed: u64, faulted: bool) -> (Replay, Setup) {
        let (mut dopia, grid) = app::trained_dopia();
        let mut app = App::new();
        let builds = app.build_programs(&dopia);
        let oracle = app.oracles(dopia.engine());
        if faulted {
            dopia.set_fault_plan(FaultPlan::preset("cpu-stall").expect("cpu-stall is a preset"));
        }
        let kinds: &'static [usize] = if faulted { &ONE_D_STEPS } else { &ALL_STEPS };
        let replay = Replay {
            dopia,
            app,
            oracle,
            stream: StepStream::new(seed, kinds),
            memo: HashMap::new(),
            samples: Vec::new(),
            sample_rng: FastRng::new(seed ^ 0xC4EC),
            faulted,
        };
        (replay, Setup { grid, builds })
    }

    fn launch(&mut self, k: usize, v: usize, rec: &mut Recorder, tracer: &mut Option<Tracer>) {
        let op = rec.next_op();
        let slot = self.app.slot(k, v);
        let dopia = &self.dopia;
        let (program, name, args, nd, mem) = self.app.parts(k, v);
        let (out, ns, span) = trace::measure(tracer, "enqueue", op, || {
            dopia.enqueue_nd_range_kernel(program, name, args, nd, mem)
        });
        let Some(result) = rec.launch(&out, ns, nd, self.oracle.get(&slot), slot as u64) else { return };
        let prepared = program.kernel(name).expect("the program holds the kernel");
        let call = Call { dopia, prepared, args, nd };
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            measure::shadow_launch(t, rec, &call, mem, &result, span, op, &mut self.memo, slot);
        }
        if !self.faulted
            && rec.scoring
            && result.health.launch_cache_hits == 1
            && self.samples.len() < CHECK_SAMPLES
            && self.sample_rng.next_below(32) == 0
        {
            self.samples.push(HitSample {
                k,
                v,
                args: args.to_vec(),
                nd,
                index: result.selection.index,
                kernel_time_s: result.kernel_time_s,
            });
        }
    }
}

impl Driver for Replay {
    const SCORED_OPS: usize = 3000;

    fn step(&mut self, rec: &mut Recorder, tracer: &mut Option<Tracer>) {
        let (kind, v) = self.stream.next_step();
        rec.note_stream((kind * 2 + v) as u64);
        for &k in STEPS[kind] {
            self.launch(k, v, rec, tracer);
        }
        if app::is_pagerank_step(kind) {
            self.app.swap_pagerank();
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::of(&self.dopia)
    }

    /// On sampled cache hits, a fresh decision must reproduce the cached
    /// one and the DES fast path must match the exact loop. Under faults a
    /// hit is not comparable to a fresh decision (supervision deadlines
    /// re-dispatch work), so `faulted` relies on the per-launch checks.
    fn check(&mut self, rec: &mut Recorder) {
        for s in std::mem::take(&mut self.samples) {
            let dopia = &self.dopia;
            let (program, name, _, _, mem) = self.app.parts(s.k, s.v);
            let prepared = program.kernel(name).expect("the program holds the kernel");
            let call = Call { dopia, prepared, args: &s.args, nd: s.nd };
            let result = measure::check_fresh_decision(&call, mem, s.index, s.kernel_time_s);
            rec.check(&format!("{name} cache hit"), result);
        }
    }
}
