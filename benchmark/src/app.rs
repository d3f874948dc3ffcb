//! The fourteen real-world kernels of paper Table 4 as one iterative
//! application: nine programs (FDTD, ATAX, BICG and MVT each hold their
//! sibling kernels), paper-scale inputs with both work-group variants, the
//! seeded stream of application steps, and the runtime they run on.

use crate::stats::Timings;
use dopia_core::configs::config_space;
use dopia_core::training::{self, TrainingOptions, WorkloadRecord};
use dopia_core::{Dopia, PerfModel, Program};
use ml::ModelKind;
use sim::{ArgValue, Engine, Memory, NdRange};
use std::collections::HashMap;
use std::time::Instant;
use workloads::data::FastRng;
use workloads::pagerank::{self, PageRankInstance};
use workloads::{polybench, spmv, BuiltKernel};

/// Index of PageRank in [`workloads::real_world_suite`] order.
pub const PAGERANK: usize = 12;

/// The program each kernel (in suite order) belongs to.
const PROGRAM_OF: [usize; 14] = [0, 1, 1, 2, 2, 3, 3, 3, 4, 5, 5, 6, 7, 8];

const PROGRAM_SOURCES: [&[&str]; 9] = [
    &[polybench::CONV2D_SRC],
    &[polybench::ATAX1_SRC, polybench::ATAX2_SRC],
    &[polybench::BICG1_SRC, polybench::BICG2_SRC],
    &[polybench::FDTD1_SRC, polybench::FDTD2_SRC, polybench::FDTD3_SRC],
    &[polybench::GESUMMV_SRC],
    &[polybench::MVT1_SRC, polybench::MVT2_SRC],
    &[polybench::SYR2K_SRC],
    &[pagerank::PAGERANK_SRC],
    &[spmv::SPMV_SRC],
];

/// Application steps, as the kernels each launches in order: 2DCONV, ATAX,
/// BICG, an FDTD time step, Gesummv, MVT, SYR2K, a PageRank iteration and
/// SpMV.
pub const STEPS: [&[usize]; 9] =
    [&[0], &[1, 2], &[3, 4], &[5, 6, 7], &[8], &[9, 10], &[11], &[PAGERANK], &[13]];
pub const ALL_STEPS: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];
/// The steps whose kernels are all one-dimensional.
pub const ONE_D_STEPS: [usize; 6] = [1, 2, 4, 5, 7, 8];
const PAGERANK_STEP: usize = 7;

/// `nd` at work-group variant `v`: 1 keeps the paper's large groups
/// (256 / 16x16), 0 uses the small ones (64 / 8x8).
pub fn variant_nd(nd: NdRange, v: usize) -> NdRange {
    match (v, nd.work_dim) {
        (1, _) => nd,
        (_, 1) => NdRange::d1(nd.global[0], 64),
        _ => NdRange::d2([nd.global[0], nd.global[1]], [8, 8]),
    }
}

/// Every n-th workload of the synthetic grid trains the online runtime.
const TINY_GRID_STEP: usize = 17;
/// Builds of each program per set-up (the online workloads) or per cycle
/// (`sweep`); the last build is kept.
pub const BUILD_REPS: usize = 20;

/// Train the DT on every `TINY_GRID_STEP`-th workload of the synthetic grid
/// and wrap it in a runtime on the Kaveri model. `training::run_grid` runs
/// on one worker and one workload at a time, so that each is timed.
pub fn trained_dopia() -> (Dopia, Timings) {
    let engine = Engine::kaveri();
    let space = config_space(&engine.platform);
    let opts = TrainingOptions { threads: 1, ..TrainingOptions::default() };
    let grid: Vec<_> = workloads::synthetic::training_grid().into_iter().step_by(TINY_GRID_STEP).collect();
    let mut timings = Timings::default();
    let mut records = Vec::with_capacity(grid.len());
    for (i, params) in grid.iter().enumerate() {
        let start = Instant::now();
        records.extend(training::run_grid(&engine, std::slice::from_ref(params), &space, &opts));
        timings.push(i as u64, start.elapsed().as_nanos() as u64);
    }
    let data = training::dataset_from_records(&records, &space);
    let model = PerfModel::train(ModelKind::Dt, &data, 42);
    (Dopia::new(engine, model), timings)
}

pub struct App {
    pub mem: Memory,
    /// The 14 kernels at paper scale with the large work-groups. PageRank's
    /// arguments live in `pagerank`, which its steps rebind.
    pub kernels: Vec<BuiltKernel>,
    pub pagerank: PageRankInstance,
    swapped: bool,
    pub programs: Vec<Program>,
}

impl App {
    pub fn new() -> App {
        let mut mem = Memory::new();
        let kernels = workloads::real_world_suite(&mut mem, 1);
        let pr = &kernels[PAGERANK];
        let buffer = |i: usize| pr.args[i].as_buffer().expect("PageRank binds rank and next buffers");
        let pagerank = PageRankInstance { built: pr.clone(), rank: buffer(2), next: buffer(4) };
        App { mem, kernels, pagerank, swapped: false, programs: Vec::new() }
    }

    /// Build the nine programs `BUILD_REPS` times (the last build is kept)
    /// and return the builds' wall times, by program.
    pub fn build_programs(&mut self, dopia: &Dopia) -> Timings {
        let mut timings = Timings::default();
        for _ in 0..BUILD_REPS {
            self.programs = PROGRAM_SOURCES
                .iter()
                .enumerate()
                .map(|(i, parts)| {
                    let source = parts.concat();
                    let start = Instant::now();
                    let p = dopia
                        .create_program_with_source(&source)
                        .expect("the real-world programs compile");
                    timings.push(i as u64, start.elapsed().as_nanos() as u64);
                    p
                })
                .collect();
        }
        timings
    }

    /// The source of kernel `k`'s program.
    pub fn source(k: usize) -> String {
        PROGRAM_SOURCES[PROGRAM_OF[k]].concat()
    }

    /// Identifies one distinct launch: kernel, variant and, for PageRank,
    /// which buffer holds the ranks.
    pub fn slot(&self, k: usize, v: usize) -> usize {
        (k * 2 + v) * 2 + (k == PAGERANK && self.swapped) as usize
    }

    pub fn swap_pagerank(&mut self) {
        pagerank::swap_buffers(&mut self.pagerank);
        self.swapped = !self.swapped;
    }

    /// Program, kernel name, arguments and NDRange of kernel `k` at
    /// variant `v`, and the memory they live in.
    pub fn parts(&mut self, k: usize, v: usize) -> (&Program, &str, &[ArgValue], NdRange, &mut Memory) {
        let built = if k == PAGERANK { &self.pagerank.built } else { &self.kernels[k] };
        (
            &self.programs[PROGRAM_OF[k]],
            &built.kernel.name,
            &built.args,
            variant_nd(built.nd, v),
            &mut self.mem,
        )
    }

    /// The 44-configuration oracle of every distinct launch, by slot.
    pub fn oracles(&mut self, engine: &Engine) -> HashMap<usize, WorkloadRecord> {
        let space = config_space(&engine.platform);
        let opts = TrainingOptions { threads: 1, ..TrainingOptions::default() };
        let mut out = HashMap::new();
        for round in 0..2 {
            for k in 0..self.kernels.len() {
                if round == 1 && k != PAGERANK {
                    continue;
                }
                for v in 0..2 {
                    let b = if k == PAGERANK { &self.pagerank.built } else { &self.kernels[k] };
                    let built = BuiltKernel { nd: variant_nd(b.nd, v), ..b.clone() };
                    let record = training::measure_workload(engine, &built, &mut self.mem, &space, &opts)
                        .expect("the real-world kernels profile");
                    out.insert(self.slot(k, v), record);
                }
            }
            self.swap_pagerank();
        }
        out
    }
}

impl Default for App {
    fn default() -> Self {
        App::new()
    }
}

/// Indices `0..n` in seeded, shuffled blocks that each hold every index
/// once: the seed changes the order of a stream, not its mix.
pub struct Blocks {
    rng: FastRng,
    order: Vec<usize>,
    next: usize,
}

impl Blocks {
    pub fn new(seed: u64, n: usize) -> Self {
        Blocks { rng: FastRng::new(seed), order: (0..n).collect(), next: n }
    }

    pub fn draw(&mut self) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// The seeded stream of application steps: `(step, work-group variant)`,
/// every pair once per block.
pub struct StepStream {
    blocks: Blocks,
    kinds: &'static [usize],
}

impl StepStream {
    pub fn new(seed: u64, kinds: &'static [usize]) -> Self {
        StepStream { blocks: Blocks::new(seed ^ 0x5EED_A991, kinds.len() * 2), kinds }
    }

    pub fn next_step(&mut self) -> (usize, usize) {
        let i = self.blocks.draw();
        (self.kinds[i / 2], i % 2)
    }
}

pub fn is_pagerank_step(kind: usize) -> bool {
    kind == PAGERANK_STEP
}
