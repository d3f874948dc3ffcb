//! Offline training-data generation (paper Sections 5.2 and 8.2).
//!
//! Every workload is executed (simulated) under all 44 DoP configurations;
//! each run contributes one sample `(features, normalized performance)`
//! where normalized performance is `best time / time` within that
//! workload. The full synthetic grid yields 1,224 x 44 = 53,856 samples —
//! the paper's "few hours" of profiling collapse to minutes of simulation.

use crate::configs::DopPoint;
use crate::features::{extract_code_features, CodeFeatures, FeatureVector};
use ml::Dataset;
use sim::{Engine, Memory, Schedule};
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::synthetic::SyntheticParams;
use workloads::BuiltKernel;

/// Options for grid measurement.
#[derive(Debug, Clone)]
pub struct TrainingOptions {
    /// GPU chunk divisor for the dynamic distributor (Algorithm 1 uses 10).
    pub chunk_divisor: usize,
    /// Worker threads for the sweep (each workload is independent).
    pub threads: usize,
    /// Whether the GPU runs the malleable kernel variant (Dopia's runtime
    /// always does; the training data should match what the runtime will
    /// execute).
    pub malleable: bool,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            chunk_divisor: 10,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            malleable: true,
        }
    }
}

/// The measured behaviour of one workload across the whole DoP space.
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    pub name: String,
    pub code: CodeFeatures,
    pub work_dim: usize,
    pub global_size: usize,
    pub local_size: usize,
    /// Simulated execution time per configuration (aligned with the space).
    pub times: Vec<f64>,
    /// Index of the fastest configuration (the exhaustive oracle).
    pub best_index: usize,
}

impl WorkloadRecord {
    /// Normalized performance of configuration `i`: `best_time / time_i`,
    /// in `(0, 1]`.
    pub fn normalized_perf(&self, i: usize) -> f64 {
        self.times[self.best_index] / self.times[i]
    }

    /// The feature vector of configuration `i`.
    pub fn feature_vector(&self, point: &DopPoint) -> FeatureVector {
        FeatureVector {
            code: self.code,
            work_dim: self.work_dim,
            global_size: self.global_size,
            local_size: self.local_size,
            cpu_util: point.cpu_util,
            gpu_util: point.gpu_util,
        }
    }

    /// One-line tab-separated form (the grid cache's record format).
    pub fn to_tsv(&self) -> String {
        let times: Vec<String> = self.times.iter().map(|t| format!("{:e}", t)).collect();
        format!(
            "{}\t{} {} {} {} {} {}\t{}\t{}\t{}\t{}\t{}",
            self.name,
            self.code.mem_constant,
            self.code.mem_continuous,
            self.code.mem_stride,
            self.code.mem_random,
            self.code.arith_int,
            self.code.arith_float,
            self.work_dim,
            self.global_size,
            self.local_size,
            self.best_index,
            times.join(","),
        )
    }

    /// Parse the [`Self::to_tsv`] form. Returns `None` on any structural
    /// problem (wrong field count, unparseable number) so torn or corrupt
    /// lines are detected rather than half-loaded.
    pub fn from_tsv(line: &str) -> Option<WorkloadRecord> {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 7 {
            return None;
        }
        let code_parts: Vec<u32> =
            fields[1].split(' ').map(|v| v.parse().ok()).collect::<Option<_>>()?;
        if code_parts.len() != 6 {
            return None;
        }
        let times: Vec<f64> =
            fields[6].split(',').map(|v| v.parse().ok()).collect::<Option<_>>()?;
        let best_index: usize = fields[5].parse().ok()?;
        if times.is_empty() || best_index >= times.len() {
            return None;
        }
        Some(WorkloadRecord {
            name: fields[0].to_string(),
            code: CodeFeatures {
                mem_constant: code_parts[0],
                mem_continuous: code_parts[1],
                mem_stride: code_parts[2],
                mem_random: code_parts[3],
                arith_int: code_parts[4],
                arith_float: code_parts[5],
            },
            work_dim: fields[2].parse().ok()?,
            global_size: fields[3].parse().ok()?,
            local_size: fields[4].parse().ok()?,
            best_index,
            times,
        })
    }
}

/// Measure one built workload across the full space.
pub fn measure_workload(
    engine: &Engine,
    built: &BuiltKernel,
    mem: &mut Memory,
    space: &[DopPoint],
    opts: &TrainingOptions,
) -> Result<WorkloadRecord, sim::interp::ExecError> {
    let profile = engine.profile(built.spec(), mem)?;
    Ok(record_from_profile(engine, built, &profile, space, opts))
}

/// The 44-config simulation sweep over an already-obtained profile, for
/// callers that profile a workload once and sweep it repeatedly.
pub fn record_from_profile(
    engine: &Engine,
    built: &BuiltKernel,
    profile: &sim::KernelProfile,
    space: &[DopPoint],
    opts: &TrainingOptions,
) -> WorkloadRecord {
    let schedule = Schedule::Dynamic { chunk_divisor: opts.chunk_divisor };
    let mut times = Vec::with_capacity(space.len());
    for point in space {
        let report = engine.simulate(profile, &built.nd, point.dop(), schedule, opts.malleable);
        times.push(report.time_s);
    }
    let best_index = argmin(&times);
    WorkloadRecord {
        name: built.name.clone(),
        code: extract_code_features(&built.kernel),
        work_dim: built.nd.work_dim,
        global_size: built.nd.global_size(),
        local_size: built.nd.local_size(),
        times,
        best_index,
    }
}

/// Measure a list of synthetic workloads in parallel. Deterministic: the
/// output order matches the input order regardless of thread count.
pub fn run_grid(
    engine: &Engine,
    grid: &[SyntheticParams],
    space: &[DopPoint],
    opts: &TrainingOptions,
) -> Vec<WorkloadRecord> {
    let next = AtomicUsize::new(0);
    // Workers stream `(index, record)` pairs over a channel instead of
    // serializing on a shared Mutex<Vec>; the single drain below restores
    // input order.
    let (tx, rx) = std::sync::mpsc::channel::<(usize, WorkloadRecord)>();
    crossbeam::scope(|scope| {
        let next = &next;
        for _ in 0..opts.threads.max(1) {
            let tx = tx.clone();
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= grid.len() {
                    break;
                }
                let mut mem = Memory::new();
                let built = grid[i].build(&mut mem, 0xD0F1A ^ i as u64);
                let record = measure_workload(engine, &built, &mut mem, space, opts)
                    .unwrap_or_else(|e| panic!("workload {} failed: {}", built.name, e));
                tx.send((i, record)).expect("collector outlives workers");
            });
        }
    })
    .expect("training sweep threads panicked");
    drop(tx);
    let mut slots: Vec<Option<WorkloadRecord>> = (0..grid.len()).map(|_| None).collect();
    for (i, record) in rx {
        slots[i] = Some(record);
    }
    slots.into_iter().map(|s| s.expect("all slots filled")).collect()
}

/// Flatten records into an ML dataset: one row per (workload, config).
/// Accepts any iterable of record references so callers can filter without
/// cloning.
pub fn dataset_from_records<'a, I>(records: I, space: &[DopPoint]) -> Dataset
where
    I: IntoIterator<Item = &'a WorkloadRecord>,
{
    let mut data = Dataset::empty();
    for record in records {
        for (i, point) in space.iter().enumerate() {
            data.push(record.feature_vector(point).to_row(), record.normalized_perf(i));
        }
    }
    data
}

/// Leave-one-out dataset: all records except the one named `exclude`
/// (the paper's protocol for the real-world kernels, Section 9.4).
/// Filters by reference — no record is cloned.
pub fn dataset_excluding(
    records: &[WorkloadRecord],
    space: &[DopPoint],
    exclude: &str,
) -> Dataset {
    dataset_from_records(records.iter().filter(|r| r.name != exclude), space)
}

/// A fast sub-grid (every 17th synthetic workload = 72 workloads) for
/// tests, doctests and examples. Returns the flattened dataset and the raw
/// records.
pub fn tiny_training_set(engine: &Engine) -> (Dataset, Vec<WorkloadRecord>) {
    let space = crate::configs::config_space(&engine.platform);
    let grid: Vec<SyntheticParams> = workloads::synthetic::training_grid()
        .into_iter()
        .step_by(17)
        .collect();
    let opts = TrainingOptions::default();
    let records = run_grid(engine, &grid, &space, &opts);
    (dataset_from_records(&records, &space), records)
}

fn argmin(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .expect("non-empty times")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::config_space;

    #[test]
    fn measure_produces_aligned_times() {
        let engine = Engine::kaveri();
        let space = config_space(&engine.platform);
        let grid = workloads::synthetic::training_grid();
        let mut mem = Memory::new();
        let built = grid[0].build(&mut mem, 7);
        let record =
            measure_workload(&engine, &built, &mut mem, &space, &TrainingOptions::default())
                .unwrap();
        assert_eq!(record.times.len(), 44);
        assert!(record.times.iter().all(|&t| t > 0.0));
        assert_eq!(record.normalized_perf(record.best_index), 1.0);
        assert!((0..44).all(|i| record.normalized_perf(i) <= 1.0));
    }

    #[test]
    fn run_grid_is_deterministic_and_ordered() {
        let engine = Engine::kaveri();
        let space = config_space(&engine.platform);
        let grid: Vec<SyntheticParams> =
            workloads::synthetic::training_grid().into_iter().step_by(200).collect();
        let opts = TrainingOptions { threads: 3, ..Default::default() };
        let a = run_grid(&engine, &grid, &space, &opts);
        let opts1 = TrainingOptions { threads: 1, ..Default::default() };
        let b = run_grid(&engine, &grid, &space, &opts1);
        assert_eq!(a.len(), grid.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.times, y.times, "{}", x.name);
        }
    }

    #[test]
    fn tsv_round_trips_and_rejects_torn_lines() {
        let engine = Engine::kaveri();
        let space = config_space(&engine.platform);
        let grid = workloads::synthetic::training_grid();
        let mut mem = Memory::new();
        let built = grid[0].build(&mut mem, 7);
        let record =
            measure_workload(&engine, &built, &mut mem, &space, &TrainingOptions::default())
                .unwrap();
        let line = record.to_tsv();
        let back = WorkloadRecord::from_tsv(&line).expect("round trip");
        assert_eq!(back.name, record.name);
        assert_eq!(back.code, record.code);
        assert_eq!(back.times, record.times);
        assert_eq!(back.best_index, record.best_index);
        // Any truncation of the line must be rejected, not half-parsed.
        for cut in [line.len() / 4, line.len() / 2, line.len() - 1] {
            assert!(WorkloadRecord::from_tsv(&line[..cut]).is_none(), "cut at {}", cut);
        }
    }

    #[test]
    fn dataset_flattening_counts() {
        let engine = Engine::kaveri();
        let space = config_space(&engine.platform);
        let grid: Vec<SyntheticParams> =
            workloads::synthetic::training_grid().into_iter().step_by(400).collect();
        let records = run_grid(&engine, &grid, &space, &TrainingOptions::default());
        let data = dataset_from_records(&records, &space);
        assert_eq!(data.len(), records.len() * 44);
        assert_eq!(data.dims(), FeatureVector::DIM);
        // Targets are normalized performance in (0, 1].
        assert!(data.targets().iter().all(|&t| t > 0.0 && t <= 1.0));
        // Leave-one-out drops exactly 44 rows.
        let loo = dataset_excluding(&records, &space, &records[0].name);
        assert_eq!(loo.len(), data.len() - 44);
    }
}
