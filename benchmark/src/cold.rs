//! `cold`: first launches of new code.
//!
//! Each step builds a program from a seeded source (one of the fourteen
//! real-world kernels or a synthetic-pattern kernel) and launches it once
//! at a seeded problem and work-group size. A new program means a new
//! kernel id, so every launch misses the decision cache: it profiles,
//! sweeps the model over 44 configurations, runs the DES and inserts into
//! the cache, whose 256-entry LRU then evicts on nearly every insert.

use crate::app::{self, Blocks};
use crate::measure::{self, Call, Driver, Recorder, Snapshot, CHECK_SAMPLES};
use crate::trace::{self, Tracer};
use crate::Setup;
use dopia_core::configs::config_space;
use dopia_core::runtime::PreparedKernel;
use dopia_core::training::{self, TrainingOptions, WorkloadRecord};
use dopia_core::Dopia;
use sim::{Memory, NdRange};
use std::collections::HashMap;
use workloads::data::FastRng;
use workloads::synthetic::{parse_pattern, DType, SyntheticParams, PATTERN_NAMES};
use workloads::{pagerank, polybench, spmv, BuiltKernel};

/// A source with inputs bound at one problem size.
struct Entry {
    source: String,
    built: BuiltKernel,
}

/// One miss kept for the fresh-decision check.
struct MissSample {
    prepared: PreparedKernel,
    combo: usize,
    index: usize,
    kernel_time_s: f64,
}

pub struct Cold {
    dopia: Dopia,
    mem: Memory,
    entries: Vec<Entry>,
    /// Every (entry, NDRange) the stream draws from, with its oracle.
    combos: Vec<(usize, NdRange)>,
    oracle: Vec<WorkloadRecord>,
    stream: Blocks,
    sample_rng: FastRng,
    samples: Vec<MissSample>,
    memo: HashMap<usize, sim::KernelProfile>,
}

/// The fixed pool of synthetic kernels: every access pattern, both data
/// types and both work-item dimensions appear. Integer matrices are real
/// storage, so they use the smallest size.
fn synthetic(i: usize) -> SyntheticParams {
    let pattern = parse_pattern(PATTERN_NAMES[i % PATTERN_NAMES.len()]).expect("pattern table is valid");
    let dtype = if i % 3 == 2 { DType::I32 } else { DType::F32 };
    let size = match dtype {
        DType::I32 => 4096,
        DType::F32 => [16384, 65536][i % 2],
    };
    SyntheticParams { pattern, gamma: [0, 2, 4][(i / 3) % 3], dim: 1 + i % 2, dtype, size, wg: 256 }
}

fn pool(mem: &mut Memory) -> Vec<Entry> {
    let entry = |source: &str, built: BuiltKernel| Entry { source: source.to_string(), built };
    let mut out = Vec::new();
    for n in [8192, 16384] {
        out.push(entry(polybench::ATAX1_SRC, polybench::atax1(mem, n, 256)));
        out.push(entry(polybench::ATAX2_SRC, polybench::atax2(mem, n, 256)));
        out.push(entry(polybench::BICG1_SRC, polybench::bicg1(mem, n, 256)));
        out.push(entry(polybench::BICG2_SRC, polybench::bicg2(mem, n, 256)));
        out.push(entry(polybench::GESUMMV_SRC, polybench::gesummv(mem, n, 256)));
        out.push(entry(polybench::MVT1_SRC, polybench::mvt1(mem, n, 256)));
        out.push(entry(polybench::MVT2_SRC, polybench::mvt2(mem, n, 256)));
        out.push(entry(polybench::FDTD1_SRC, polybench::fdtd1(mem, n, [16, 16])));
        out.push(entry(polybench::FDTD2_SRC, polybench::fdtd2(mem, n, [16, 16])));
        out.push(entry(polybench::FDTD3_SRC, polybench::fdtd3(mem, n, [16, 16])));
    }
    for n in [4096, 8192] {
        out.push(entry(polybench::CONV2D_SRC, polybench::conv2d(mem, n, [16, 16])));
        out.push(entry(pagerank::PAGERANK_SRC, pagerank::pagerank(mem, n, 256)));
        out.push(entry(spmv::SPMV_SRC, spmv::spmv_csr(mem, n, 256)));
    }
    for n in [512, 1024] {
        out.push(entry(polybench::SYR2K_SRC, polybench::syr2k(mem, n, [16, 16])));
    }
    for i in 0..24 {
        let params = synthetic(i);
        out.push(Entry { source: params.source(), built: params.build(mem, 0xC01D ^ i as u64) });
    }
    out
}

/// The three work-group shapes each entry launches with.
fn shapes(nd: NdRange) -> [NdRange; 3] {
    let g = nd.global;
    match (nd.work_dim, nd.local[1]) {
        (1, _) => [64, 128, 256].map(|w| NdRange::d1(g[0], w)),
        // The synthetic 2-D launches use (wg, 1) groups.
        (_, 1) => [64, 128, 256].map(|w| NdRange::d2([g[0], g[1]], [w, 1])),
        _ => [[8, 8], [16, 16], [32, 8]].map(|l| NdRange::d2([g[0], g[1]], l)),
    }
}

impl Cold {
    pub fn setup(seed: u64) -> (Cold, Setup) {
        let (dopia, grid) = app::trained_dopia();
        let mut mem = Memory::new();
        let entries = pool(&mut mem);
        let combos: Vec<(usize, NdRange)> = entries
            .iter()
            .enumerate()
            .flat_map(|(e, entry)| shapes(entry.built.nd).map(|nd| (e, nd)))
            .collect();
        let space = config_space(&dopia.engine().platform);
        let opts = TrainingOptions { threads: 1, ..TrainingOptions::default() };
        let oracle = combos
            .iter()
            .map(|&(e, nd)| {
                let built = BuiltKernel { nd, ..entries[e].built.clone() };
                training::measure_workload(dopia.engine(), &built, &mut mem, &space, &opts)
                    .expect("every pool kernel profiles")
            })
            .collect();
        let cold = Cold {
            dopia,
            mem,
            entries,
            stream: Blocks::new(seed ^ 0xC01D, combos.len()),
            combos,
            oracle,
            sample_rng: FastRng::new(seed ^ 0xC4EC),
            samples: Vec::new(),
            memo: HashMap::new(),
        };
        (cold, Setup { grid, builds: Default::default() })
    }
}

impl Driver for Cold {
    const SCORED_OPS: usize = 3000;

    fn step(&mut self, rec: &mut Recorder, tracer: &mut Option<Tracer>) {
        let c = self.stream.draw();
        rec.note_stream(c as u64);
        let (e, nd) = self.combos[c];
        let entry = &self.entries[e];
        let dopia = &self.dopia;
        let op = rec.next_op();
        let (out, ns, span) =
            trace::measure(tracer, "build", op, || dopia.create_program_with_source(&entry.source));
        let Some(program) = rec.build(out, ns, e as u64) else { return };
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            measure::shadow_build(t, rec, &entry.source, &program, span, op);
        }
        let name = &entry.built.kernel.name;
        let args = &entry.built.args;
        let mem = &mut self.mem;
        let (out, ns, span) = trace::measure(tracer, "enqueue", op, || {
            dopia.enqueue_nd_range_kernel(&program, name, args, nd, mem)
        });
        let Some(result) = rec.launch(&out, ns, nd, Some(&self.oracle[c]), c as u64) else { return };
        let prepared = program.kernel(name).expect("the program holds the kernel");
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            let call = Call { dopia, prepared, args, nd };
            measure::shadow_launch(t, rec, &call, mem, &result, span, op, &mut self.memo, 0);
        }
        if rec.scoring && self.samples.len() < CHECK_SAMPLES && self.sample_rng.next_below(64) == 0 {
            self.samples.push(MissSample {
                prepared: prepared.clone(),
                combo: c,
                index: result.selection.index,
                kernel_time_s: result.kernel_time_s,
            });
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::of(&self.dopia)
    }

    /// A miss of a never-seen kernel has no supervision history, so a
    /// fresh decision must reproduce it exactly.
    fn check(&mut self, rec: &mut Recorder) {
        for s in std::mem::take(&mut self.samples) {
            let (e, nd) = self.combos[s.combo];
            let built = &self.entries[e].built;
            let call = Call { dopia: &self.dopia, prepared: &s.prepared, args: &built.args, nd };
            let result = measure::check_fresh_decision(&call, &mut self.mem, s.index, s.kernel_time_s);
            rec.check(&format!("{} first launch", built.name), result);
        }
    }
}
