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

use crate::buffer::{ArgValue, BufferId, Memory};
use crate::interp::{
    compile_kernel, reference, vm, CompiledKernel, ExecError, Mode, SiteKey, SiteTable, Tracer,
};
use crate::ndrange::NdRange;
use clc::Kernel;

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

/// Maximum recorded address-prefix length per site per work-item.
const PREFIX_LEN: usize = 16;

/// The sampled work-item ids for a launch of `total` items: [`WINDOWS`]
/// windows of [`WINDOW_WIDTH`] adjacent items, ascending. Windows start at
/// non-decreasing bases and share one width, so an id that does not exceed
/// the last one kept was already kept: overlapping windows on tiny NDRanges
/// never list the same item twice, and `items_sampled` is exact. The
/// windows stay contiguous for the divergence pass.
fn sample_ids(total: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = Vec::with_capacity(WINDOWS * WINDOW_WIDTH);
    for w in 0..WINDOWS {
        let base = if WINDOWS == 1 {
            0
        } else {
            (total.saturating_sub(WINDOW_WIDTH)) * w / (WINDOWS - 1)
        };
        for i in 0..WINDOW_WIDTH.min(total) {
            let id = base + i;
            if id < total && ids.last().is_none_or(|&last| id > last) {
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
    profile_sampled(nd, mem, ck.num_sites(), |ids, mem, t| {
        vm::run_single_items(ck, args, nd, ids, mem, Mode::Profile, t)
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
    profile_sampled(nd, mem, SiteTable::build(kernel).len(), |ids, mem, t| {
        reference::run_single_items(kernel, args, nd, ids, mem, Mode::Profile, t)
    })
}

/// Run every sampled work-item through one engine call into one
/// [`ProfileTracer`] and aggregate its table.
fn profile_sampled(
    nd: &NdRange,
    mem: &mut Memory,
    n_sites: usize,
    run: impl FnOnce(&[usize], &mut Memory, &mut ProfileTracer) -> Result<(), ExecError>,
) -> Result<KernelProfile, ExecError> {
    let ids = sample_ids(nd.global_size());
    let mut tracer = ProfileTracer::new(ids.len(), n_sites);
    run(&ids, mem, &mut tracer)?;
    Ok(aggregate(&ids, &tracer, mem))
}

/// One work-item's record of one access site.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteSlot {
    /// Accesses, extrapolated counts included.
    pub count: f64,
    /// The first `len` element indices, in order (pre-extrapolation).
    prefix: [i64; PREFIX_LEN],
    /// Recorded prefix entries; 0 until the item touches the site.
    len: u8,
    /// A site used for both loads and stores (e.g. `a[i] += x`) counts as
    /// both; the store flag is sticky.
    pub is_store: bool,
    pub elem_bytes: usize,
    /// The buffer the item's first access touched.
    pub buffer: BufferId,
}

impl SiteSlot {
    const UNTOUCHED: SiteSlot = SiteSlot {
        count: 0.0,
        prefix: [0; PREFIX_LEN],
        len: 0,
        is_store: false,
        elem_bytes: 0,
        buffer: BufferId(0),
    };

    pub fn prefix(&self) -> &[i64] {
        &self.prefix[..self.len as usize]
    }

    fn touched(&self) -> bool {
        self.len > 0
    }
}

/// The recording tracer of one profile. Every sampled work-item runs
/// through it in one engine call; [`Tracer::begin_item`] moves it to the
/// next item's row of a dense item-major `items × n_sites` site table,
/// allocated once, so the per-access hot path is an array index and never
/// allocates.
#[derive(Debug)]
pub(crate) struct ProfileTracer {
    n_sites: usize,
    slots: Vec<SiteSlot>,
    /// Per-item extrapolated float-op and integer-op counts.
    flops: Vec<f64>,
    iops: Vec<f64>,
    /// Sites in the order the run first touched them: the union over items
    /// of each item's first-touch order.
    order: Vec<SiteKey>,
    seen: Vec<bool>,
    /// The current item; `begin_item` advances it (wrapping from
    /// `usize::MAX` to item 0).
    item: usize,
    /// Stack of multiplicative scale factors (product applied to counts).
    scale_stack: Vec<f64>,
    scale: f64,
}

impl ProfileTracer {
    pub fn new(items: usize, n_sites: usize) -> Self {
        ProfileTracer {
            n_sites,
            slots: vec![SiteSlot::UNTOUCHED; items * n_sites],
            flops: vec![0.0; items],
            iops: vec![0.0; items],
            order: Vec::with_capacity(n_sites),
            seen: vec![false; n_sites],
            item: usize::MAX,
            scale_stack: Vec::with_capacity(4),
            scale: 1.0,
        }
    }

    /// `item`'s record of `site`, if the item touched it.
    pub fn slot(&self, item: usize, site: SiteKey) -> Option<&SiteSlot> {
        Some(&self.slots[item * self.n_sites + site as usize]).filter(|s| s.touched())
    }

    /// The sites `item` touched, by ascending site id.
    pub fn item_sites(&self, item: usize) -> impl Iterator<Item = (SiteKey, &SiteSlot)> + '_ {
        let row = &self.slots[item * self.n_sites..(item + 1) * self.n_sites];
        (0..).zip(row).filter(|(_, s)| s.touched())
    }

    /// Total accesses of `item` across all sites.
    pub fn total_accesses(&self, item: usize) -> f64 {
        self.item_sites(item).map(|(_, s)| s.count).sum()
    }

    fn access(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize, store: bool) {
        let slot = &mut self.slots[self.item * self.n_sites + site as usize];
        if !slot.touched() {
            slot.buffer = buf;
            slot.elem_bytes = elem_bytes;
            if !self.seen[site as usize] {
                self.seen[site as usize] = true;
                self.order.push(site);
            }
        }
        slot.count += self.scale;
        if (slot.len as usize) < PREFIX_LEN {
            slot.prefix[slot.len as usize] = idx;
            slot.len += 1;
        }
        slot.is_store |= store;
    }
}

impl Tracer for ProfileTracer {
    fn begin_item(&mut self) {
        self.item = self.item.wrapping_add(1);
        self.scale_stack.clear();
        self.scale = 1.0;
    }

    fn load(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize) {
        self.access(site, buf, idx, elem_bytes, false);
    }

    fn store(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize) {
        self.access(site, buf, idx, elem_bytes, true);
    }

    fn arith(&mut self, is_float: bool, count: f64) {
        if is_float {
            self.flops[self.item] += count * self.scale;
        } else {
            self.iops[self.item] += count * self.scale;
        }
    }

    fn begin_scale(&mut self, factor: f64) {
        self.scale_stack.push(self.scale);
        self.scale *= factor;
    }

    fn end_scale(&mut self) {
        self.scale = self.scale_stack.pop().unwrap_or(1.0);
    }
}

/// Fold the per-item site table into a [`KernelProfile`]. Shared by both
/// engines, so a profile is a pure function of the traced event streams —
/// the differential suite compares profiles to pin VM ≡ tree-walker. Every
/// sum runs over items (or, within an item, sites by ascending id) in
/// order, skipping untouched slots.
fn aggregate(ids: &[usize], t: &ProfileTracer, mem: &Memory) -> KernelProfile {
    let n = ids.len();
    let n_items = n.max(1) as f64;
    let mut deltas: Vec<i64> = Vec::new();
    let mut sites = Vec::with_capacity(t.order.len());
    for &key in &t.order {
        let observed = || (0..n).filter_map(|i| t.slot(i, key));
        let template = observed().next().expect("an ordered site was touched");
        sites.push(SiteProfile {
            class: AccessClass::classify(template.prefix()),
            is_store: observed().any(|s| s.is_store),
            elem_bytes: template.elem_bytes,
            accesses_per_item: observed().map(|s| s.count).sum::<f64>() / n_items,
            cross_item_delta: cross_item_delta(ids, t, key, &mut deltas),
            buffer_elems: mem.get(template.buffer).len(),
        });
    }

    let flops = t.flops.iter().copied().sum::<f64>() / n_items;
    let iops = t.iops.iter().copied().sum::<f64>() / n_items;

    // Divergence: per window, max/mean of total per-item work.
    let mut divergence: f64 = 1.0;
    let mut work = [0.0f64; WINDOW_WIDTH];
    let mut idx = 0;
    while idx < n {
        let window_end = (idx + WINDOW_WIDTH).min(n);
        let work = &mut work[..window_end - idx];
        for (w, i) in work.iter_mut().zip(idx..window_end) {
            *w = t.flops[i] + t.iops[i] + t.total_accesses(i);
        }
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
        items_sampled: n,
    }
}

/// Median element-index delta between adjacent work-items at aligned
/// points of their address prefixes. `deltas` is a buffer reused across
/// sites.
fn cross_item_delta(
    ids: &[usize],
    t: &ProfileTracer,
    key: SiteKey,
    deltas: &mut Vec<i64>,
) -> Option<i64> {
    deltas.clear();
    for i in 0..ids.len().saturating_sub(1) {
        if ids[i + 1] != ids[i] + 1 {
            continue; // only adjacent-id pairs are comparable
        }
        let (Some(a), Some(b)) = (t.slot(i, key), t.slot(i + 1, key)) else {
            continue;
        };
        deltas.extend(a.prefix().iter().zip(b.prefix()).map(|(x, y)| y - x));
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
    fn counts_scale_in_regions() {
        let mut t = ProfileTracer::new(1, 0);
        t.begin_item();
        t.arith(true, 1.0);
        t.begin_scale(10.0);
        t.arith(true, 1.0);
        t.begin_scale(2.0);
        t.arith(false, 1.0);
        t.end_scale();
        t.end_scale();
        t.arith(false, 1.0);
        assert_eq!(t.flops[0], 11.0); // 1 + 10
        assert_eq!(t.iops[0], 21.0); // 20 + 1
    }

    #[test]
    fn site_prefix_capped() {
        let mut t = ProfileTracer::new(1, 8);
        t.begin_item();
        for i in 0..100 {
            t.load(7, BufferId(0), i, 4);
        }
        let s = t.slot(0, 7).unwrap();
        assert_eq!(s.count, 100.0);
        assert_eq!(s.prefix().len(), PREFIX_LEN);
        assert_eq!(s.prefix()[3], 3);
        assert!(!s.is_store);
    }

    #[test]
    fn load_then_store_marks_store() {
        let mut t = ProfileTracer::new(1, 2);
        t.begin_item();
        t.load(1, BufferId(0), 0, 4);
        t.store(1, BufferId(0), 0, 4);
        assert!(t.slot(0, 1).unwrap().is_store);
        assert_eq!(t.total_accesses(0), 2.0);
    }

    #[test]
    fn sites_iterate_in_first_touch_order() {
        let mut t = ProfileTracer::new(1, 10);
        t.begin_item();
        t.load(9, BufferId(0), 0, 4);
        t.store(2, BufferId(1), 1, 8);
        t.load(9, BufferId(0), 1, 4);
        assert_eq!(t.order, vec![9, 2]);
        assert!(t.slot(0, 3).is_none());
    }

    #[test]
    fn items_keep_separate_rows_and_share_the_union_order() {
        let mut t = ProfileTracer::new(2, 4);
        t.begin_item();
        t.load(3, BufferId(0), 5, 4);
        t.begin_scale(8.0);
        t.arith(true, 1.0);
        // An item never starts inside its predecessor's scale region.
        t.begin_item();
        t.arith(true, 1.0);
        t.store(1, BufferId(2), 6, 8);
        t.load(3, BufferId(1), 7, 8);
        assert_eq!(t.order, vec![3, 1]);
        assert_eq!((t.flops[0], t.flops[1]), (8.0, 1.0));
        assert!(t.slot(0, 1).is_none());
        let (first, second) = (t.slot(0, 3).unwrap(), t.slot(1, 3).unwrap());
        assert_eq!((first.prefix(), first.buffer, first.elem_bytes), (&[5][..], BufferId(0), 4));
        assert_eq!((second.prefix(), second.buffer, second.elem_bytes), (&[7][..], BufferId(1), 8));
        let sites: Vec<SiteKey> = t.item_sites(1).map(|(k, _)| k).collect();
        assert_eq!(sites, vec![1, 3]);
    }

    #[test]
    fn sample_ids_are_ascending_windows_without_duplicates() {
        assert_eq!(sample_ids(1), vec![0]);
        assert_eq!(sample_ids(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(sample_ids(100), vec![0, 1, 2, 3, 48, 49, 50, 51, 96, 97, 98, 99]);
        for total in 1..=15 {
            let ids = sample_ids(total);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{}: {:?}", total, ids);
            assert_eq!(ids.len(), total.min(WINDOWS * WINDOW_WIDTH), "{}: {:?}", total, ids);
        }
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
