//! `sweep`: the offline training pipeline.
//!
//! One operation is one cycle: build a stratified subset of the synthetic
//! grid in a seeded order from seeded input data, measure each workload
//! across all 44 configurations on one thread, train a DT on the result,
//! then score it online: a fresh runtime
//! on that model builds the nine real-world programs and makes 1,000
//! launches drawn in seeded blocks from the 28 real-world launches (both
//! work-group variants) with the decision cache off, so every launch is a
//! fresh decision. Input construction dominates the cycle.

use crate::app::{App, Blocks, BUILD_REPS, PAGERANK};
use crate::measure::{self, Call, Driver, Recorder, Snapshot};
use crate::trace::{self, Tracer};
use crate::Setup;
use dopia_core::configs::{config_space, DopPoint};
use dopia_core::training::{self, TrainingOptions, WorkloadRecord};
use dopia_core::{Dopia, PerfModel};
use ml::ModelKind;
use sim::{Engine, KernelProfile, Memory, Schedule};
use std::collections::HashMap;
use std::hint::black_box;
use workloads::synthetic::{parse_pattern, DType, SyntheticParams, PATTERN_NAMES};

/// Scoring launches after each cycle's training, drawn from the 28
/// real-world launches.
const SCORE_LAUNCHES: usize = 1000;

/// One synthetic workload per (pattern, data type, dimension) stratum, 68
/// in all. Gamma, matrix size and work-group size rotate with the stratum
/// index, so every value of each appears in every cycle.
pub fn stratified_subset() -> Vec<SyntheticParams> {
    let mut out = Vec::new();
    for name in PATTERN_NAMES {
        let pattern = parse_pattern(name).expect("pattern table is valid");
        for dtype in [DType::F32, DType::I32] {
            for dim in [1, 2] {
                let s = out.len();
                let gamma = [0, 2, 4][s % 3];
                let size = [16384, 32768, 65536][(s / 3) % 3];
                let wg = [64, 256][(s + s / 4) % 2];
                out.push(SyntheticParams { pattern, gamma, dim, dtype, size, wg });
            }
        }
    }
    out
}

pub struct Sweep {
    engine: Engine,
    space: Vec<DopPoint>,
    subset: Vec<SyntheticParams>,
    /// The seeded order in which each cycle measures the subset.
    order: Vec<usize>,
    /// Seeds the synthetic workloads' input data.
    data_seed: u64,
    /// The seeded order of the scoring launches, as `kernel * 2 + variant`.
    launches: Blocks,
    app: App,
    oracle: HashMap<usize, WorkloadRecord>,
    /// The latest cycle's runtime.
    dopia: Option<Dopia>,
    memo: HashMap<usize, KernelProfile>,
}

impl Sweep {
    pub fn setup(seed: u64) -> (Sweep, Setup) {
        let engine = Engine::kaveri();
        let space = config_space(&engine.platform);
        let mut app = App::new();
        let oracle = app.oracles(&engine);
        let subset = stratified_subset();
        let mut blocks = Blocks::new(seed ^ 0x5EE9, subset.len());
        let order = (0..subset.len()).map(|_| blocks.draw()).collect();
        let launches = Blocks::new(seed ^ 0x5C0E, app.kernels.len() * 2);
        let sweep = Sweep {
            engine,
            space,
            subset,
            order,
            data_seed: seed,
            launches,
            app,
            oracle,
            dopia: None,
            memo: HashMap::new(),
        };
        (sweep, Setup::default())
    }

    /// Build and measure the subset in the seeded order; the records come
    /// back in subset order, so training does not depend on the order.
    fn measure_subset(&self, rec: &mut Recorder, tracer: &mut Option<Tracer>) -> Vec<WorkloadRecord> {
        let opts = TrainingOptions { threads: 1, ..TrainingOptions::default() };
        let sched = Schedule::Dynamic { chunk_divisor: opts.chunk_divisor };
        let mut records: Vec<Option<WorkloadRecord>> = self.subset.iter().map(|_| None).collect();
        for &i in &self.order {
            let params = &self.subset[i];
            rec.note_stream(i as u64);
            let op = rec.next_op();
            let mut mem = Memory::new();
            let (built, build_ns, _) = trace::measure(tracer, "workloads.build", op, || {
                params.build(&mut mem, self.data_seed.wrapping_mul(0x9E37_79B9) ^ 0xD0F1A ^ i as u64)
            });
            let (out, measure_ns, span) = trace::measure(tracer, "training.measure", op, || {
                training::measure_workload(&self.engine, &built, &mut mem, &self.space, &opts)
            });
            rec.attempted += 1;
            match out {
                Ok(r) if r.times.len() == 44 && r.times.iter().all(|t| t.is_finite() && *t > 0.0) => {
                    rec.sweep.push(i as u64, build_ns + measure_ns);
                    records[i] = Some(r);
                }
                Ok(r) => rec.fail(format!("{}: times are not 44 finite positive values", r.name)),
                Err(e) => rec.fail(format!("{}: {e}", built.name)),
            }
            if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                let (p, _) =
                    t.span("training.profile", op, Some(span), || self.engine.profile(built.spec(), &mut mem));
                if let Ok(p) = p {
                    t.span("training.des", op, Some(span), || {
                        for point in &self.space {
                            black_box(self.engine.simulate(&p, &built.nd, point.dop(), sched, opts.malleable));
                        }
                    });
                }
            }
        }
        records.into_iter().flatten().collect()
    }
}

impl Driver for Sweep {
    /// One cycle is already thousands of operations.
    const SCORED_OPS: usize = 1;

    fn step(&mut self, rec: &mut Recorder, tracer: &mut Option<Tracer>) {
        let records = self.measure_subset(rec, tracer);
        let data = training::dataset_from_records(&records, &self.space);
        let op = rec.next_op();
        let (model, _, _) = trace::measure(tracer, "ml.train", op, || PerfModel::train(ModelKind::Dt, &data, 42));
        let dopia = Dopia::new(self.engine.clone(), model);
        dopia.set_launch_cache_enabled(false);

        let mut programs = Vec::new();
        for (i, k) in [0, 1, 3, 5, 8, 9, 11, PAGERANK, 13].into_iter().enumerate() {
            let source = App::source(k);
            let mut program = None;
            for _ in 0..BUILD_REPS {
                let op = rec.next_op();
                let (out, ns, span) =
                    trace::measure(tracer, "build", op, || dopia.create_program_with_source(&source));
                let Some(p) = rec.build(out, ns, i as u64) else { return };
                if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                    measure::shadow_build(t, rec, &source, &p, span, op);
                }
                program = Some(p);
            }
            programs.extend(program);
        }
        self.app.programs = programs;

        for _ in 0..SCORE_LAUNCHES {
            let i = self.launches.draw();
            let (k, v) = (i / 2, i % 2);
            let op = rec.next_op();
            let slot = self.app.slot(k, v);
            let (program, name, args, nd, mem) = self.app.parts(k, v);
            let (out, ns, span) =
                trace::measure(tracer, "enqueue", op, || dopia.enqueue_nd_range_kernel(program, name, args, nd, mem));
            let Some(result) = rec.launch(&out, ns, nd, self.oracle.get(&slot), slot as u64) else { continue };
            if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                let prepared = program.kernel(name).expect("the program holds the kernel");
                let call = Call { dopia: &dopia, prepared, args, nd };
                measure::shadow_launch(t, rec, &call, mem, &result, span, op, &mut self.memo, slot);
            }
        }
        self.dopia = Some(dopia);
    }

    fn snapshot(&self) -> Snapshot {
        self.dopia.as_ref().map(Snapshot::of).unwrap_or_default()
    }

    /// Every record's 44 times are checked as it is measured.
    fn check(&mut self, _rec: &mut Recorder) {}
}
