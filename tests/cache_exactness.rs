//! The decision cache is exact: a cached launch reports what a fresh one
//! would, also after the host changed a buffer's contents in place or
//! launched against another memory pool holding the same buffer ids. And
//! a launch never changes what the key versions: profiling only reads
//! host memory, so a kernel with a global atomic hits on relaunch.

use dopia::ml::Regressor;
use dopia::prelude::*;
use proptest::prelude::*;

/// Prefers full co-execution, so both devices' costs shape the time.
struct CoExec;

impl Regressor for CoExec {
    fn predict(&self, row: &[f64]) -> f64 {
        // row[9] = cpu_util, row[10] = gpu_util (Table 1 order).
        0.6 * row[9] + 0.4 * row[10]
    }
    fn name(&self) -> &'static str {
        "coexec"
    }
}

fn dopia() -> Dopia {
    Dopia::new(Engine::kaveri(), PerfModel::from_regressor(ModelKind::Lin, Box::new(CoExec)))
}

const ROWS: usize = 4096;

/// The same launch on a runtime whose cache is off: a fresh profile and a
/// fresh model decision.
fn uncached(source: &str, built: &BuiltKernel, mem: &Memory) -> LaunchResult {
    let dopia = dopia();
    dopia.set_launch_cache_enabled(false);
    let program = dopia.create_program_with_source(source).unwrap();
    let r = dopia
        .enqueue_nd_range_kernel(&program, &built.kernel.name, &built.args, built.nd, mem)
        .unwrap();
    assert_eq!(r.source, DecisionSource::Uncached);
    r
}

/// Bumps a global counter once per work-item and doubles `a` in place.
const BUMP_SRC: &str = "__kernel void bump(__global int* c, __global float* a) {
    int i = get_global_id(0);
    atomic_inc(c);
    a[i] = a[i] * 2.0f;
}";

fn bump(mem: &mut Memory, items: usize) -> BuiltKernel {
    let c = mem.alloc_i32(vec![7]);
    let a = mem.alloc_f32((0..items).map(|i| i as f32 * 0.25).collect());
    let args = vec![ArgValue::Buffer(c), ArgValue::Buffer(a)];
    BuiltKernel::from_source("Bump", BUMP_SRC, args, NdRange::d1(items, 256))
}

/// Zeroing SpMV's `row_ptr` in place leaves every row empty. The relaunch
/// must miss and report the empty matrix's time, not the cached full one.
#[test]
fn spmv_row_ptr_zeroed_in_place_misses_and_matches_a_fresh_launch() {
    let dopia = dopia();
    let mut mem = Memory::new();
    let built = workloads::spmv::spmv_csr(&mut mem, ROWS, 256);
    let program = dopia.create_program_with_source(workloads::spmv::SPMV_SRC).unwrap();
    let launch = |mem: &mut Memory| {
        dopia.enqueue_nd_range_kernel(&program, "spmv", &built.args, built.nd, mem).unwrap()
    };
    let full = launch(&mut mem);
    assert_eq!(full.source, DecisionSource::CacheMiss);
    assert_eq!(launch(&mut mem).source, DecisionSource::CacheHit);

    let row_ptr = built.args[0].as_buffer().unwrap();
    match mem.get_mut(row_ptr) {
        sim::Buffer::I32(v) => v.fill(0),
        other => panic!("row_ptr is real i32 storage, not {:?}", other.elem()),
    }
    let empty = launch(&mut mem);
    assert_eq!(empty.source, DecisionSource::CacheMiss, "the contents changed");
    let fresh = uncached(workloads::spmv::SPMV_SRC, &built, &mem);
    assert_eq!(empty.kernel_time_s.to_bits(), fresh.kernel_time_s.to_bits());
    assert!(empty.kernel_time_s < full.kernel_time_s / 2.0, "empty rows are cheaper");
    assert_eq!(launch(&mut mem).source, DecisionSource::CacheHit);
}

/// Two memory pools hold SpMV at the same buffer ids, lengths and content
/// versions, but different `row_ptr` contents. A launch in the second pool
/// must not hit the first pool's entry.
#[test]
fn same_buffer_ids_in_another_memory_miss() {
    let dopia = dopia();
    let mut dense = Memory::new();
    let built = workloads::spmv::spmv_csr(&mut dense, ROWS, 256);
    let csr = workloads::data::random_csr(ROWS, 256, 0x5137);
    let empty_rows = workloads::data::Csr { row_ptr: vec![0; csr.row_ptr.len()], ..csr };
    let mut sparse = Memory::new();
    let other = workloads::spmv::build_from_csr(&mut sparse, &empty_rows, 256);
    assert_eq!(other.args, built.args, "same ids and scalars in both pools");

    let program = dopia.create_program_with_source(workloads::spmv::SPMV_SRC).unwrap();
    let first = dopia
        .enqueue_nd_range_kernel(&program, "spmv", &built.args, built.nd, &dense)
        .unwrap();
    assert_eq!(first.source, DecisionSource::CacheMiss);
    let second = dopia
        .enqueue_nd_range_kernel(&program, "spmv", &other.args, other.nd, &sparse)
        .unwrap();
    assert_eq!(second.source, DecisionSource::CacheMiss, "another pool, other contents");
    let fresh = uncached(workloads::spmv::SPMV_SRC, &other, &sparse);
    assert_eq!(second.kernel_time_s.to_bits(), fresh.kernel_time_s.to_bits());
}

/// Three identical launches of a kernel with a global atomic. Profiling
/// reads host memory and never writes it, so the counter and `a` keep
/// their bits, every relaunch hits, and the first launch reports what a
/// runtime without a cache does.
#[test]
fn atomic_kernel_relaunches_hit_and_leave_host_memory_alone() {
    let dopia = dopia();
    let mut mem = Memory::new();
    let built = bump(&mut mem, 4096);
    let program = dopia.create_program_with_source(BUMP_SRC).unwrap();
    let counter = built.args[0].as_buffer().unwrap();
    let contents = |mem: &Memory| -> Vec<Vec<u64>> {
        built
            .args
            .iter()
            .filter_map(|a| a.as_buffer())
            .map(|id| (0..mem.get(id).len()).map(|i| mem.get(id).load_f64(i).to_bits()).collect())
            .collect()
    };
    let before = contents(&mem);
    let launches: Vec<LaunchResult> = (0..3)
        .map(|_| {
            dopia.enqueue_nd_range_kernel(&program, "bump", &built.args, built.nd, &mem).unwrap()
        })
        .collect();
    assert_eq!(mem.read_i32(counter), [7], "a launch moved the counter");
    assert!(contents(&mem) == before, "a launch changed host memory");
    let sources: Vec<DecisionSource> = launches.iter().map(|r| r.source).collect();
    assert_eq!(
        sources,
        [DecisionSource::CacheMiss, DecisionSource::CacheHit, DecisionSource::CacheHit]
    );
    let fresh = uncached(BUMP_SRC, &built, &mem);
    assert_eq!(launches[0].kernel_time_s.to_bits(), fresh.kernel_time_s.to_bits());

    let prepared = program.kernel("bump").unwrap();
    dopia.profile(prepared, &built.args, built.nd, &mem).unwrap();
    assert_eq!(mem.read_i32(counter), [7], "a bare profile moved the counter");
}

/// One step of a launch sequence over gesummv (0), SpMV (1) and the
/// atomic kernel (2).
#[derive(Debug, Clone)]
enum Step {
    Launch(usize),
    /// An in-place host write to one of the kernel's input buffers;
    /// `at` picks the element.
    Write(usize, usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..3).prop_map(Step::Launch),
        (0usize..3, 0usize..1024).prop_map(|(k, at)| Step::Write(k, at)),
    ]
}

/// Apply `Write(kernel, at)` through `Memory::get_mut`.
fn write(mem: &mut Memory, built: &BuiltKernel, kernel: usize, at: usize) {
    let buffer = |arg: usize| built.args[arg].as_buffer().expect("a buffer argument");
    match kernel {
        // gesummv's `x`.
        0 => match mem.get_mut(buffer(2)) {
            sim::Buffer::F32(x) => {
                let j = at % x.len();
                x[j] += 1.0;
            }
            other => panic!("x is real f32 storage, not {:?}", other.elem()),
        },
        // Move an SpMV row boundary between its neighbours, near the rows
        // the profiler samples, so the profile itself can change.
        1 => match mem.get_mut(buffer(0)) {
            sim::Buffer::I32(row_ptr) => {
                let rows = row_ptr.len() - 1;
                let near = [1, 2, 3, 4, rows / 2, rows / 2 + 1, rows / 2 + 2, rows - 2, rows - 1];
                let k = near[at % near.len()];
                let (lo, hi) = (row_ptr[k - 1], row_ptr[k + 1]);
                row_ptr[k] = lo + (hi - lo) * (at % 5) as i32 / 4;
            }
            other => panic!("row_ptr is real i32 storage, not {:?}", other.elem()),
        },
        // The atomic kernel's counter.
        _ => match mem.get_mut(buffer(0)) {
            sim::Buffer::I32(c) => c[0] += at as i32,
            other => panic!("the counter is real i32 storage, not {:?}", other.elem()),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cached and fresh decisions agree under in-place mutation: every
    /// launch picks the configuration, and reports the kernel time bit for
    /// bit, that a runtime with the cache off does. A launch with no host
    /// write to its kernel's buffers since that kernel's last launch hits;
    /// any other misses. Supervision is off in both runtimes, so the cache
    /// is the only difference.
    #[test]
    fn cached_and_fresh_decisions_agree_under_in_place_mutation(
        steps in proptest::collection::vec(step(), 1..12),
    ) {
        let mut mem = Memory::new();
        let kernels = [
            workloads::polybench::gesummv(&mut mem, 1024, 256),
            workloads::spmv::spmv_csr(&mut mem, 1024, 256),
            bump(&mut mem, 1024),
        ];
        let (cached, fresh) = (dopia(), dopia());
        fresh.set_launch_cache_enabled(false);
        let off = SupervisionConfig { enabled: false, ..SupervisionConfig::default() };
        let sources = [workloads::polybench::GESUMMV_SRC, workloads::spmv::SPMV_SRC, BUMP_SRC];
        let programs = sources.map(|src| {
            [&cached, &fresh].map(|d| {
                d.set_supervision_config(off);
                d.create_program_with_source(src).unwrap()
            })
        });
        let mut clean = [false; 3];
        for step in steps {
            match step {
                Step::Write(k, at) => {
                    write(&mut mem, &kernels[k], k, at);
                    clean[k] = false;
                }
                Step::Launch(k) => {
                    let (built, [p_cached, p_fresh]) = (&kernels[k], &programs[k]);
                    let name = &built.kernel.name;
                    let r = cached
                        .enqueue_nd_range_kernel(p_cached, name, &built.args, built.nd, &mem)
                        .unwrap();
                    let f = fresh
                        .enqueue_nd_range_kernel(p_fresh, name, &built.args, built.nd, &mem)
                        .unwrap();
                    let expected =
                        if clean[k] { DecisionSource::CacheHit } else { DecisionSource::CacheMiss };
                    prop_assert_eq!(r.source, expected);
                    prop_assert_eq!(r.selection.index, f.selection.index);
                    prop_assert_eq!(r.kernel_time_s.to_bits(), f.kernel_time_s.to_bits());
                    clean[k] = true;
                }
            }
        }
    }
}
