//! The decision cache is exact: a cached launch reports what a fresh one
//! would, also after the host changed a buffer's contents in place or
//! launched against another memory pool holding the same buffer ids.

use dopia::ml::Regressor;
use dopia::prelude::*;

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
fn uncached(built: &BuiltKernel, mem: &mut Memory) -> LaunchResult {
    let dopia = dopia();
    dopia.set_launch_cache_enabled(false);
    let program = dopia.create_program_with_source(workloads::spmv::SPMV_SRC).unwrap();
    let r = dopia.enqueue_nd_range_kernel(&program, "spmv", &built.args, built.nd, mem).unwrap();
    assert_eq!(r.source, DecisionSource::Uncached);
    r
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
    let fresh = uncached(&built, &mut mem);
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
        .enqueue_nd_range_kernel(&program, "spmv", &built.args, built.nd, &mut dense)
        .unwrap();
    assert_eq!(first.source, DecisionSource::CacheMiss);
    let second = dopia
        .enqueue_nd_range_kernel(&program, "spmv", &other.args, other.nd, &mut sparse)
        .unwrap();
    assert_eq!(second.source, DecisionSource::CacheMiss, "another pool, other contents");
    let fresh = uncached(&other, &mut sparse);
    assert_eq!(second.kernel_time_s.to_bits(), fresh.kernel_time_s.to_bits());
}
