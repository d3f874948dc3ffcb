//! Shadow check of the profiler's aggregation: a frozen copy of the
//! per-item profiling path the one-pass site table replaced.
//!
//! Each sampled work-item runs in its own `vm::run_single_items` call under
//! its own `TracingTracer` (a hash-free but per-item, heap-allocating
//! record), driven only through the public [`Tracer`] trait, and
//! `aggregate` folds the per-item records exactly as the old profiler did.
//! [`assert_matches_shadow`] requires `profile_compiled` to reproduce that
//! result field by field, floats by bit pattern.

use sim::interp::{vm, CompiledKernel, ExecError, SiteKey, Tracer};
use sim::profile::{profile_compiled, SiteProfile};
use sim::{AccessClass, ArgValue, BufferId, KernelProfile, Memory, NdRange};
use std::collections::HashSet;

const WINDOWS: usize = 3;
const WINDOW_WIDTH: usize = 4;
const PREFIX_LEN: usize = 16;

#[derive(Debug, Clone, Default)]
struct SiteStats {
    buffer: Option<BufferId>,
    elem_bytes: usize,
    is_store: bool,
    count: f64,
    prefix: Vec<i64>,
}

#[derive(Debug, Default)]
struct TracingTracer {
    sites: Vec<Option<SiteStats>>,
    site_order: Vec<SiteKey>,
    flops: f64,
    iops: f64,
    scale_stack: Vec<f64>,
    scale: f64,
}

impl TracingTracer {
    fn new() -> Self {
        TracingTracer { scale: 1.0, ..Default::default() }
    }

    fn site(&self, site: SiteKey) -> Option<&SiteStats> {
        self.sites.get(site as usize).and_then(|s| s.as_ref())
    }

    fn access(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize, store: bool) {
        let slot = site as usize;
        if slot >= self.sites.len() {
            self.sites.resize(slot + 1, None);
        }
        let entry = &mut self.sites[slot];
        if entry.is_none() {
            self.site_order.push(site);
            *entry = Some(SiteStats {
                buffer: Some(buf),
                elem_bytes,
                is_store: store,
                ..Default::default()
            });
        }
        let stats = entry.as_mut().expect("just inserted");
        stats.count += self.scale;
        if stats.prefix.len() < PREFIX_LEN {
            stats.prefix.push(idx);
        }
        if store {
            stats.is_store = true;
        }
    }

    fn total_accesses(&self) -> f64 {
        self.sites.iter().flatten().map(|s| s.count).sum()
    }
}

impl Tracer for TracingTracer {
    fn load(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize) {
        self.access(site, buf, idx, elem_bytes, false);
    }

    fn store(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize) {
        self.access(site, buf, idx, elem_bytes, true);
    }

    fn arith(&mut self, is_float: bool, count: f64) {
        if is_float {
            self.flops += count * self.scale;
        } else {
            self.iops += count * self.scale;
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

fn sample_ids(total: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = Vec::new();
    let mut seen_ids: HashSet<usize> = HashSet::new();
    for w in 0..WINDOWS {
        let base = (total.saturating_sub(WINDOW_WIDTH)) * w / (WINDOWS - 1);
        for i in 0..WINDOW_WIDTH.min(total) {
            let id = base + i;
            if id < total && seen_ids.insert(id) {
                ids.push(id);
            }
        }
    }
    ids
}

/// The old `profile_compiled`: one VM call and one tracer per sampled id.
pub fn shadow_profile(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &Memory,
) -> Result<KernelProfile, ExecError> {
    let ids = sample_ids(nd.global_size());
    let mut tracers: Vec<TracingTracer> = Vec::with_capacity(ids.len());
    for &id in &ids {
        let mut t = TracingTracer::new();
        vm::run_single_items(ck, args, nd, &[id], mem, &mut t)?;
        tracers.push(t);
    }
    Ok(aggregate(&ids, &tracers, mem))
}

fn aggregate(ids: &[usize], tracers: &[TracingTracer], mem: &Memory) -> KernelProfile {
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

fn cross_item_delta(ids: &[usize], tracers: &[TracingTracer], key: SiteKey) -> Option<i64> {
    let mut deltas: Vec<i64> = Vec::new();
    for i in 0..ids.len().saturating_sub(1) {
        if ids[i + 1] != ids[i] + 1 {
            continue;
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
    let matching = deltas.iter().filter(|&&d| d == median).count();
    if (matching as f64) >= 0.5 * deltas.len() as f64 {
        Some(median)
    } else {
        None
    }
}

/// Bit-exact comparison of every profile field (feature-vector parity).
pub fn assert_profiles_equal(a: &KernelProfile, b: &KernelProfile, ctx: &str) {
    assert_eq!(a.flops_per_item.to_bits(), b.flops_per_item.to_bits(), "{}: flops", ctx);
    assert_eq!(a.iops_per_item.to_bits(), b.iops_per_item.to_bits(), "{}: iops", ctx);
    assert_eq!(a.divergence.to_bits(), b.divergence.to_bits(), "{}: divergence", ctx);
    assert_eq!(a.items_sampled, b.items_sampled, "{}: items_sampled", ctx);
    assert_eq!(a.sites.len(), b.sites.len(), "{}: site count", ctx);
    for (i, (sa, sb)) in a.sites.iter().zip(&b.sites).enumerate() {
        assert_eq!(sa.class, sb.class, "{}: site {} class", ctx, i);
        assert_eq!(sa.is_store, sb.is_store, "{}: site {} is_store", ctx, i);
        assert_eq!(sa.elem_bytes, sb.elem_bytes, "{}: site {} elem_bytes", ctx, i);
        assert_eq!(
            sa.accesses_per_item.to_bits(),
            sb.accesses_per_item.to_bits(),
            "{}: site {} accesses",
            ctx,
            i
        );
        assert_eq!(sa.cross_item_delta, sb.cross_item_delta, "{}: site {} delta", ctx, i);
        assert_eq!(sa.buffer_elems, sb.buffer_elems, "{}: site {} footprint", ctx, i);
    }
}

/// Profile one launch with `profile_compiled` and with the shadow, each on
/// its own freshly bound memory (`setup` must bind identically every
/// call), and require the same profile or the same error.
pub fn assert_matches_shadow(
    ck: &CompiledKernel,
    nd: &NdRange,
    mut setup: impl FnMut(&mut Memory) -> Vec<ArgValue>,
    ctx: &str,
) {
    let mut mem = Memory::new();
    let args = setup(&mut mem);
    let fast = profile_compiled(ck, &args, nd, &mem);
    let mut mem = Memory::new();
    let args = setup(&mut mem);
    let shadow = shadow_profile(ck, &args, nd, &mem);
    match (fast, shadow) {
        (Ok(a), Ok(b)) => assert_profiles_equal(&a, &b, ctx),
        (Err(a), Err(b)) => assert_eq!(a, b, "{}: profile errors diverge", ctx),
        (a, b) => panic!("{}: one profile failed: {:?} vs shadow {:?}", ctx, a, b),
    }
}
