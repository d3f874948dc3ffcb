//! Dynamic kernel characterization by sampled interpretation.
//!
//! The paper measures kernels by running them on hardware; we measure them
//! by interpreting a handful of work-items in [`crate::interp::Mode::Profile`] and
//! extracting, per static memory-access site:
//!
//! * the **intra-item stride** (address delta between consecutive accesses
//!   of one work-item — the paper's constant/continuous/stride/random
//!   classes),
//! * the **cross-item stride** (address delta between adjacent work-items
//!   at the same point of execution — what the GPU coalescing unit sees),
//! * access counts, element sizes and the touched buffer,
//!
//! plus per-item arithmetic counts and a **divergence factor** (max/mean of
//! per-item work within a wavefront-sized window; lockstep GPUs pay the max
//! while CPUs pay the mean — this is what makes irregular kernels such as
//! SpMV CPU-affine).

use crate::buffer::{ArgValue, Memory};
use crate::interp::{
    compile_kernel, reference, vm, CompiledKernel, ExecError, Mode, SiteKey, SiteStats,
    TracingTracer,
};
use crate::ndrange::NdRange;
use clc::Kernel;
use std::collections::HashSet;

/// Memory access pattern classes from Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Same address every access.
    Constant,
    /// Unit-stride (contiguous) addresses.
    Continuous,
    /// Constant non-unit stride (in elements).
    Stride(i64),
    /// No recognizable pattern (indirect/indexed accesses).
    Random,
}

impl AccessClass {
    /// Classify a sequence of element indices by its deltas: the majority
    /// delta wins if it covers ≥ 60% of the steps (nested loops inject
    /// occasional row jumps that must not flip the class).
    pub fn classify(prefix: &[i64]) -> AccessClass {
        if prefix.len() < 2 {
            // A single observed access per item: pattern degenerates to
            // constant from the item's own point of view; the cross-item
            // delta (stored separately) carries the real information.
            return AccessClass::Constant;
        }
        let deltas: Vec<i64> = prefix.windows(2).map(|w| w[1] - w[0]).collect();
        // Majority delta.
        let mut best = (deltas[0], 0usize);
        for &candidate in &deltas {
            let count = deltas.iter().filter(|&&d| d == candidate).count();
            if count > best.1 {
                best = (candidate, count);
            }
        }
        let (delta, count) = best;
        if (count as f64) < 0.6 * deltas.len() as f64 {
            return AccessClass::Random;
        }
        match delta {
            0 => AccessClass::Constant,
            1 => AccessClass::Continuous,
            d => AccessClass::Stride(d),
        }
    }
}

/// Aggregated behaviour of one static memory-access site.
#[derive(Debug, Clone)]
pub struct SiteProfile {
    /// Intra-item access pattern.
    pub class: AccessClass,
    /// True if the site performs stores.
    pub is_store: bool,
    /// Element size in bytes.
    pub elem_bytes: usize,
    /// Mean accesses per work-item.
    pub accesses_per_item: f64,
    /// Median element-index delta between adjacent work-items at the same
    /// execution point; `None` when no stable delta exists (random).
    pub cross_item_delta: Option<i64>,
    /// Elements in the accessed buffer (footprint cap for random sites).
    pub buffer_elems: usize,
}

impl SiteProfile {
    /// Bytes accessed per item at this site.
    pub fn bytes_per_item(&self) -> f64 {
        self.accesses_per_item * self.elem_bytes as f64
    }
}

/// The complete dynamic characterization of one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Mean floating-point operations per work-item.
    pub flops_per_item: f64,
    /// Mean integer operations per work-item.
    pub iops_per_item: f64,
    /// Lockstep divergence: max/mean per-item work inside sampled windows
    /// of adjacent work-items (≥ 1; 1 means perfectly regular).
    pub divergence: f64,
    /// Per-site memory behaviour.
    pub sites: Vec<SiteProfile>,
    /// Number of work-items actually interpreted.
    pub items_sampled: usize,
}

impl KernelProfile {
    /// Total bytes accessed per work-item across all sites.
    pub fn bytes_per_item(&self) -> f64 {
        self.sites.iter().map(|s| s.bytes_per_item()).sum()
    }

    /// Total memory accesses per work-item.
    pub fn accesses_per_item(&self) -> f64 {
        self.sites.iter().map(|s| s.accesses_per_item).sum()
    }

    /// Total operations (arithmetic + memory) per item; the "work" used for
    /// divergence and load-balance estimates.
    pub fn ops_per_item(&self) -> f64 {
        self.flops_per_item + self.iops_per_item + self.accesses_per_item()
    }
}

/// How many sample windows and how wide. Three windows (start, middle, end)
/// of four adjacent items each balance cost against catching irregularity.
const WINDOWS: usize = 3;
const WINDOW_WIDTH: usize = 4;

/// The sampled work-item ids for a launch of `total` items: [`WINDOWS`]
/// windows of [`WINDOW_WIDTH`] adjacent items. Order-preserving dedup — the
/// Vec keeps first-touch order (windows must stay contiguous for the
/// divergence pass) and overlapping windows on tiny NDRanges never list the
/// same item twice, so `items_sampled` is exact.
fn sample_ids(total: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = Vec::new();
    let mut seen_ids: HashSet<usize> = HashSet::new();
    for w in 0..WINDOWS {
        let base = if WINDOWS == 1 {
            0
        } else {
            (total.saturating_sub(WINDOW_WIDTH)) * w / (WINDOWS - 1)
        };
        for i in 0..WINDOW_WIDTH.min(total) {
            let id = base + i;
            if id < total && seen_ids.insert(id) {
                ids.push(id);
            }
        }
    }
    ids
}

/// Profile `kernel` for the given launch geometry by interpreting sampled
/// work-items. The kernel must be barrier-free (original, untransformed
/// kernels always are). Lowers the kernel to bytecode and runs the VM; use
/// [`profile_compiled`] to reuse a cached [`CompiledKernel`].
pub fn profile_kernel(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
) -> Result<KernelProfile, ExecError> {
    profile_compiled(&compile_kernel(kernel)?, args, nd, mem)
}

/// Profile a pre-compiled kernel on the bytecode VM: the hot path for cold
/// enqueues (compile once at prepare time, profile per launch geometry).
pub fn profile_compiled(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
) -> Result<KernelProfile, ExecError> {
    profile_sampled(nd, mem, |id, mem, t| {
        vm::run_single_items(ck, args, nd, &[id], mem, Mode::Profile, t)
    })
}

/// [`profile_kernel`] on the tree-walking reference interpreter. The
/// oracle for the differential suite and the baseline of the cold-profile
/// speed floor; no production path calls it.
pub fn profile_reference(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
) -> Result<KernelProfile, ExecError> {
    profile_sampled(nd, mem, |id, mem, t| {
        reference::run_single_items(kernel, args, nd, &[id], mem, Mode::Profile, t)
    })
}

/// Run each sampled work-item under its own tracer, so per-item counts and
/// cross-item deltas can be compared (dense site ids are shared across
/// runs), and aggregate the records.
fn profile_sampled(
    nd: &NdRange,
    mem: &mut Memory,
    mut run_item: impl FnMut(usize, &mut Memory, &mut TracingTracer) -> Result<(), ExecError>,
) -> Result<KernelProfile, ExecError> {
    let ids = sample_ids(nd.global_size());
    let mut tracers: Vec<TracingTracer> = Vec::with_capacity(ids.len());
    for &id in &ids {
        let mut t = TracingTracer::new();
        run_item(id, mem, &mut t)?;
        tracers.push(t);
    }
    Ok(aggregate(&ids, &tracers, mem))
}

/// Fold per-item tracer records into a [`KernelProfile`]. Shared by both
/// engines, so a profile is a pure function of the traced event streams —
/// the differential suite compares profiles to pin VM ≡ tree-walker.
fn aggregate(ids: &[usize], tracers: &[TracingTracer], mem: &Memory) -> KernelProfile {
    // Union of sites over all items, in first-touch order of the first item
    // that saw them.
    let mut site_keys: Vec<SiteKey> = Vec::new();
    let mut seen_keys: HashSet<SiteKey> = HashSet::new();
    for t in tracers {
        for &k in &t.site_order {
            if seen_keys.insert(k) {
                site_keys.push(k);
            }
        }
    }

    let n_items = ids.len().max(1) as f64;
    let mut sites = Vec::with_capacity(site_keys.len());
    for &key in &site_keys {
        let observed: Vec<&SiteStats> = tracers.iter().filter_map(|t| t.site(key)).collect();
        let count: f64 = observed.iter().map(|s| s.count).sum::<f64>() / n_items;
        let template = observed[0];
        let class = AccessClass::classify(&template.prefix);
        let cross = cross_item_delta(ids, tracers, key);
        let buffer_elems = template.buffer.map(|b| mem.get(b).len()).unwrap_or(0);
        sites.push(SiteProfile {
            class,
            is_store: observed.iter().any(|s| s.is_store),
            elem_bytes: template.elem_bytes,
            accesses_per_item: count,
            cross_item_delta: cross,
            buffer_elems,
        });
    }

    let flops = tracers.iter().map(|t| t.flops).sum::<f64>() / n_items;
    let iops = tracers.iter().map(|t| t.iops).sum::<f64>() / n_items;

    // Divergence: per window, max/mean of total per-item work.
    let mut divergence: f64 = 1.0;
    let mut idx = 0;
    while idx < ids.len() {
        let window_end = (idx + WINDOW_WIDTH).min(ids.len());
        let work: Vec<f64> = tracers[idx..window_end]
            .iter()
            .map(|t| t.flops + t.iops + t.total_accesses())
            .collect();
        let mean = work.iter().sum::<f64>() / work.len() as f64;
        let max = work.iter().cloned().fold(0.0f64, f64::max);
        if mean > 0.0 {
            divergence = divergence.max(max / mean);
        }
        idx = window_end;
    }

    KernelProfile {
        flops_per_item: flops,
        iops_per_item: iops,
        divergence,
        sites,
        items_sampled: ids.len(),
    }
}

/// Median element-index delta between adjacent work-items at aligned
/// points of their address prefixes.
fn cross_item_delta(ids: &[usize], tracers: &[TracingTracer], key: SiteKey) -> Option<i64> {
    let mut deltas: Vec<i64> = Vec::new();
    for i in 0..ids.len().saturating_sub(1) {
        if ids[i + 1] != ids[i] + 1 {
            continue; // only adjacent-id pairs are comparable
        }
        let (Some(a), Some(b)) = (tracers[i].site(key), tracers[i + 1].site(key)) else {
            continue;
        };
        for (x, y) in a.prefix.iter().zip(b.prefix.iter()) {
            deltas.push(y - x);
        }
    }
    if deltas.is_empty() {
        return None;
    }
    deltas.sort_unstable();
    let median = deltas[deltas.len() / 2];
    // Require the median to be the dominant delta; otherwise the lanes see
    // effectively unrelated addresses (random).
    let matching = deltas.iter().filter(|&&d| d == median).count();
    if (matching as f64) >= 0.5 * deltas.len() as f64 {
        Some(median)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile1(src: &str) -> Kernel {
        clc::compile(src).unwrap().kernels.remove(0)
    }

    #[test]
    fn classify_patterns() {
        assert_eq!(AccessClass::classify(&[5, 5, 5, 5]), AccessClass::Constant);
        assert_eq!(AccessClass::classify(&[0, 1, 2, 3]), AccessClass::Continuous);
        assert_eq!(AccessClass::classify(&[0, 8, 16, 24]), AccessClass::Stride(8));
        assert_eq!(AccessClass::classify(&[3, 17, 2, 90]), AccessClass::Random);
        // Nested-loop row jumps do not flip a continuous site.
        assert_eq!(
            AccessClass::classify(&[0, 1, 2, 3, 100, 101, 102, 103]),
            AccessClass::Continuous
        );
        assert_eq!(AccessClass::classify(&[7]), AccessClass::Constant);
    }

    /// The worked example of Section 5.1 expressed as a kernel; checks the
    /// four pattern classes come out as the paper says.
    #[test]
    fn profile_matches_paper_worked_example() {
        let k = compile1(
            "__kernel void ex(__global float* A, __global float* B, __global float* C,
                              __global float* D, __global int* E, int N, int M, int c1) {
                for (int i = 0; i < N; i++) {
                    for (int j = 0; j < M; j++) {
                        D[i * M + j] = A[i * M + j] + B[j * N + i] + C[c1] + C[E[j * N + i]];
                    }
                }
            }",
        );
        let mut mem = Memory::new();
        let n = 64usize;
        let a = mem.alloc_f32(vec![1.0; n * n]);
        let b = mem.alloc_f32(vec![1.0; n * n]);
        let c = mem.alloc_f32(vec![1.0; n * n]);
        let d = mem.alloc_f32(vec![0.0; n * n]);
        let e = mem.alloc_i32((0..(n * n) as i32).map(|i| (i * 37) % (n * n) as i32).collect());
        let nd = NdRange::d1(1, 1);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Buffer(c),
            ArgValue::Buffer(d),
            ArgValue::Buffer(e),
            ArgValue::Int(n as i64),
            ArgValue::Int(n as i64),
            ArgValue::Int(5),
        ];
        let p = profile_kernel(&k, &args, &nd, &mut mem).unwrap();
        let classes: Vec<AccessClass> = p.sites.iter().map(|s| s.class).collect();
        // Expected (order of first touch in the expression): A continuous,
        // B stride N, C[c1] constant, E stride N, C[E[..]] random, D store
        // continuous.
        assert!(classes.contains(&AccessClass::Continuous));
        assert!(classes.contains(&AccessClass::Stride(n as i64)));
        assert!(classes.contains(&AccessClass::Constant));
        assert!(classes.contains(&AccessClass::Random));
        let stores: Vec<_> = p.sites.iter().filter(|s| s.is_store).collect();
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].class, AccessClass::Continuous);
    }

    #[test]
    fn cross_item_delta_detects_coalescable_columns() {
        // B[j*N + i] with i = global id: intra stride N, cross delta 1 —
        // the combination a GPU coalesces perfectly.
        let k = compile1(
            "__kernel void col(__global float* B, __global float* y, int N) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = 0; j < N; j++) { s = s + B[j * N + i]; }
                y[i] = s;
            }",
        );
        let mut mem = Memory::new();
        let n = 128usize;
        let b = mem.alloc_f32(vec![1.0; n * n]);
        let y = mem.alloc_f32(vec![0.0; n]);
        let nd = NdRange::d1(n, 32);
        let args = [ArgValue::Buffer(b), ArgValue::Buffer(y), ArgValue::Int(n as i64)];
        let p = profile_kernel(&k, &args, &nd, &mut mem).unwrap();
        let bsite = p
            .sites
            .iter()
            .find(|s| s.class == AccessClass::Stride(n as i64))
            .expect("column site");
        assert_eq!(bsite.cross_item_delta, Some(1));
        assert!((bsite.accesses_per_item - n as f64).abs() < 1e-6);
    }

    #[test]
    fn row_streaming_has_large_cross_delta() {
        // A[i*N + j]: intra 1, cross N.
        let k = compile1(
            "__kernel void row(__global float* A, __global float* y, int N) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = 0; j < N; j++) { s = s + A[i * N + j]; }
                y[i] = s;
            }",
        );
        let mut mem = Memory::new();
        let n = 128usize;
        let a = mem.alloc_f32(vec![1.0; n * n]);
        let y = mem.alloc_f32(vec![0.0; n]);
        let nd = NdRange::d1(n, 32);
        let args = [ArgValue::Buffer(a), ArgValue::Buffer(y), ArgValue::Int(n as i64)];
        let p = profile_kernel(&k, &args, &nd, &mut mem).unwrap();
        let site = p
            .sites
            .iter()
            .find(|s| s.class == AccessClass::Continuous && !s.is_store)
            .expect("row site");
        assert_eq!(site.cross_item_delta, Some(n as i64));
    }

    #[test]
    fn divergence_detected_for_irregular_rows() {
        // CSR-style loop where row length varies wildly between adjacent
        // items.
        let k = compile1(
            "__kernel void spmv(__global int* rp, __global float* v, __global float* y) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = rp[i]; j < rp[i + 1]; j++) { s = s + v[j]; }
                y[i] = s;
            }",
        );
        let mut mem = Memory::new();
        // Rows: 0 has 400 elements, the rest 1 each.
        let mut rp = vec![0i32];
        let mut acc = 0;
        for i in 0..64 {
            acc += if i % 4 == 0 { 400 } else { 1 };
            rp.push(acc);
        }
        let total = acc as usize;
        let rp = mem.alloc_i32(rp);
        let v = mem.alloc_f32(vec![1.0; total]);
        let y = mem.alloc_f32(vec![0.0; 64]);
        let nd = NdRange::d1(64, 32);
        let args = [ArgValue::Buffer(rp), ArgValue::Buffer(v), ArgValue::Buffer(y)];
        let p = profile_kernel(&k, &args, &nd, &mut mem).unwrap();
        assert!(p.divergence > 2.0, "divergence = {}", p.divergence);
    }

    #[test]
    fn regular_kernel_has_unit_divergence() {
        let k = compile1(
            "__kernel void sc(__global float* a) {
                int i = get_global_id(0);
                a[i] = a[i] * 2.0f;
            }",
        );
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![1.0; 256]);
        let nd = NdRange::d1(256, 64);
        let p = profile_kernel(&k, &[ArgValue::Buffer(a)], &nd, &mut mem).unwrap();
        assert!((p.divergence - 1.0).abs() < 1e-9);
        assert!(p.flops_per_item >= 1.0);
    }

    #[test]
    fn virtual_buffers_profile_at_paper_scale() {
        // 16,384 x 16,384 matrix-vector product: 1 GiB of matrix that is
        // never allocated.
        let k = compile1(
            "__kernel void mv(__global float* A, __global float* x, __global float* y, int N) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = 0; j < N; j++) { s = s + A[i * N + j] * x[j]; }
                y[i] = s;
            }",
        );
        let n = 16384usize;
        let mut mem = Memory::new();
        let a = mem.alloc_virtual_f32(n * n, 7);
        let x = mem.alloc_f32(vec![1.0; n]);
        let y = mem.alloc_f32(vec![0.0; n]);
        let nd = NdRange::d1(n, 256);
        let args =
            [ArgValue::Buffer(a), ArgValue::Buffer(x), ArgValue::Buffer(y), ArgValue::Int(n as i64)];
        let p = profile_kernel(&k, &args, &nd, &mut mem).unwrap();
        let a_site = p.sites.iter().find(|s| s.buffer_elems == n * n).unwrap();
        assert!((a_site.accesses_per_item - n as f64).abs() / (n as f64) < 0.01);
        assert!(p.flops_per_item > n as f64); // mul + add per j
    }
}
