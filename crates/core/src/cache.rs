//! The enqueue decision cache (tentpole of the performance layer).
//!
//! Dopia's pitch is that the expensive characterization work happens *once*
//! — yet a naive runtime re-interprets sampled work-items and re-sweeps the
//! model on **every** `clEnqueueNDRangeKernel`. Like StarPU's cached
//! per-codelet performance models, this module memoizes the outcome of that
//! work keyed by everything it can depend on:
//!
//! * the **prepared-kernel identity** (a process-unique id stamped at
//!   `clCreateProgramWithSource` time),
//! * the **NDRange** (geometry feeds both the profiler and the feature
//!   vector),
//! * the **memory pool** the buffers live in ([`sim::Memory::id`]), and
//! * the **argument signature** — buffer `(id, len, content version)`
//!   triples plus exact scalar values, because scalars feed addressing and
//!   loop trip counts inside the kernel.
//!
//! Every content change goes through [`sim::Memory::get_mut`], which bumps
//! the buffer's version, and pool ids are process-unique, so a key names
//! one content state of every buffer: the cache is exact under in-place
//! mutation, and a launch whose contents changed misses. The supervision
//! layer drops a quarantined kernel's entries through
//! [`DecisionCache::invalidate_kernel`]. A breaker-pinned launch reads an
//! entry's profile through [`DecisionCache::reuse_profile`], which moves no
//! hit, miss or LRU state. Capacity is bounded with exact LRU eviction.
//! Hit/miss/eviction/invalidation/reuse counters surface through
//! `Dopia::cache_stats` and the CLI `cache :` line, and each launch's hit
//! or miss through [`crate::RuntimeHealth`].
//!
//! Neither a hit nor a miss scans the cache, whatever its size:
//!
//! * a hit is one hash lookup plus a `last_used` store, and hands out the
//!   profile as a shared [`Arc`];
//! * eviction pops the oldest of one `(tick, key)` record per entry, kept
//!   in tick order and left alone by hits; an entry touched since its
//!   record was queued is re-queued at its real age, so the victim is
//!   exactly the least-recently-used entry.
//!
//! Only [`DecisionCache::invalidate_kernel`] scans the entries.

use crate::model::Selection;
use sim::{ArgValue, KernelProfile, Memory, NdRange};
use std::collections::{hash_map, BTreeMap, HashMap};
use std::sync::Arc;

/// Cache-relevant identity of one kernel argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgSig {
    /// A buffer's identity, length and content version in the launch's
    /// [`Memory`]: equal signatures mean equal contents.
    Buffer { id: usize, len: usize, version: u64 },
    Int(i64),
    /// Exact f32 bit pattern (`f32` itself is not `Hash`; bits also keep
    /// NaN payloads distinct instead of poisoning equality).
    Float(u32),
}

/// Key of one memoized launch decision.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaunchKey {
    pub kernel_id: u64,
    /// [`sim::CompiledKernel::code_id`] of the bytecode the profile came
    /// from (0 when the kernel has no compiled form). A recompile mints a
    /// fresh id, so decisions never outlive the code they characterized.
    pub code_id: u64,
    /// [`Memory::id`] of the pool the buffer arguments live in: buffer ids
    /// restart at 0 in every pool.
    pub memory_id: u64,
    pub nd: NdRange,
    pub args: Vec<ArgSig>,
}

impl LaunchKey {
    /// Build the key for a launch, reading buffer lengths and content
    /// versions from `mem`.
    pub fn new(kernel_id: u64, code_id: u64, nd: NdRange, args: &[ArgValue], mem: &Memory) -> Self {
        let args = args
            .iter()
            .map(|a| match *a {
                ArgValue::Buffer(id) => {
                    ArgSig::Buffer { id: id.0, len: mem.get(id).len(), version: mem.version(id) }
                }
                ArgValue::Int(v) => ArgSig::Int(v),
                ArgValue::Float(v) => ArgSig::Float(v.to_bits()),
            })
            .collect();
        LaunchKey { kernel_id, code_id, memory_id: mem.id(), nd, args }
    }
}

/// The memoized outcome of one launch's characterization.
#[derive(Debug, Clone)]
pub struct CachedDecision {
    /// The sampled-interpretation profile (the expensive part), shared so
    /// a hit hands it out without copying its sites.
    pub profile: Arc<KernelProfile>,
    /// The model's DoP selection.
    pub selection: Selection,
}

/// Monotonic cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    /// Profiles handed out by [`DecisionCache::reuse_profile`].
    pub profile_reuses: u64,
}

#[derive(Debug)]
struct Entry {
    decision: CachedDecision,
    last_used: u64,
    /// Tick of this entry's record in [`DecisionCache::lru`]; never
    /// greater than `last_used`.
    queued: u64,
}

/// Bounded LRU cache of launch decisions.
#[derive(Debug)]
pub struct DecisionCache {
    capacity: usize,
    tick: u64,
    map: HashMap<LaunchKey, Entry>,
    /// One record per entry, keyed by its `queued` tick: a lazy LRU queue
    /// that a hit does not touch.
    lru: BTreeMap<u64, LaunchKey>,
    stats: CacheStats,
}

impl DecisionCache {
    /// Default capacity: generously above any realistic distinct-launch
    /// working set (44 configs x a handful of kernels). Lookups, inserts
    /// and evictions cost the same at any capacity; only the rare kernel
    /// invalidation scans the entries.
    pub const DEFAULT_CAPACITY: usize = 256;

    pub fn new(capacity: usize) -> Self {
        DecisionCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up a launch, counting a hit or miss and refreshing LRU order.
    pub fn get(&mut self, key: &LaunchKey) -> Option<CachedDecision> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.decision.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The profile of the entry under `key`, for a launch whose
    /// configuration was decided elsewhere (a breaker pin). Counts a
    /// profile reuse and nothing else: no hit or miss, no LRU refresh, no
    /// insert.
    pub fn reuse_profile(&mut self, key: &LaunchKey) -> Option<Arc<KernelProfile>> {
        let profile = Arc::clone(&self.map.get(key)?.decision.profile);
        self.stats.profile_reuses += 1;
        Some(profile)
    }

    /// Insert a decision, evicting the least-recently-used entry at
    /// capacity.
    pub fn insert(&mut self, key: LaunchKey, decision: CachedDecision) {
        self.tick += 1;
        match self.map.entry(key) {
            hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                entry.decision = decision;
                entry.last_used = self.tick;
            }
            hash_map::Entry::Vacant(slot) => {
                self.lru.insert(self.tick, slot.key().clone());
                slot.insert(Entry { decision, last_used: self.tick, queued: self.tick });
            }
        }
        // The fresh entry is the youngest, so it is never the victim.
        if self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Remove the entry with the smallest `last_used`.
    fn evict_lru(&mut self) {
        while let Some((tick, key)) = self.lru.pop_first() {
            let (stored, mut entry) =
                self.map.remove_entry(&key).expect("every record has its entry");
            if entry.last_used != tick {
                // Touched since it was queued: re-queue at its real age.
                entry.queued = entry.last_used;
                self.lru.insert(entry.last_used, key);
                self.map.insert(stored, entry);
                continue;
            }
            // Ticks are unique, and every other record (so every other
            // entry's `last_used`) is younger.
            self.stats.evictions += 1;
            return;
        }
    }

    /// Drop every entry for a kernel, counting invalidations. The
    /// supervision layer calls this when a kernel's model predictions
    /// enter quarantine: the cached selections were produced by a model
    /// now known to mispredict for that kernel, so replaying them would
    /// pin the bad decision past the quarantine.
    pub fn invalidate_kernel(&mut self, kernel_id: u64) {
        let before = self.map.len();
        let lru = &mut self.lru;
        self.map.retain(|key, entry| {
            let drop = key.kernel_id == kernel_id;
            if drop {
                lru.remove(&entry.queued);
            }
            !drop
        });
        self.stats.invalidations += (before - self.map.len()) as u64;
    }

    pub fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Default for DecisionCache {
    fn default() -> Self {
        DecisionCache::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::DopPoint;
    use proptest::prelude::*;
    use sim::BufferId;

    fn profile() -> KernelProfile {
        KernelProfile {
            flops_per_item: 1.0,
            iops_per_item: 1.0,
            divergence: 1.0,
            sites: Vec::new(),
            items_sampled: 1,
        }
    }

    fn key(mem: &Memory, kernel_id: u64, args: &[ArgValue]) -> LaunchKey {
        LaunchKey::new(kernel_id, 0, NdRange::d1(64, 64), args, mem)
    }

    #[test]
    fn hit_after_identical_key_miss_after_scalar_change() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 16]);
        let mut cache = DecisionCache::new(8);
        let args = [ArgValue::Buffer(a), ArgValue::Float(1.5), ArgValue::Int(7)];
        let k = key(&mem, 1, &args);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), decision(0));
        assert!(cache.get(&k).is_some());
        // A scalar change is a different launch (scalars feed addressing).
        let other = key(&mem, 1, &[ArgValue::Buffer(a), ArgValue::Float(2.5), ArgValue::Int(7)]);
        assert!(cache.get(&other).is_none());
        // So is the same launch of a different kernel.
        assert!(cache.get(&key(&mem, 2, &args)).is_none());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn in_place_mutation_and_another_memory_miss() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 16]);
        let b = mem.alloc_f32(vec![0.0; 16]);
        let mut cache = DecisionCache::new(8);
        let kab = key(&mem, 1, &[ArgValue::Buffer(a), ArgValue::Buffer(b)]);
        let kb = key(&mem, 1, &[ArgValue::Buffer(b)]);
        cache.insert(kab.clone(), decision(0));
        cache.insert(kb.clone(), decision(1));
        // Writing `a` changes every key that reads it, and only those.
        mem.get_mut(a).store_f64(3, 1.0);
        assert!(cache.get(&key(&mem, 1, &[ArgValue::Buffer(a), ArgValue::Buffer(b)])).is_none());
        assert!(cache.get(&key(&mem, 1, &[ArgValue::Buffer(b)])).is_some());
        // The same ids in another pool name other buffers.
        let mut other = Memory::new();
        other.alloc_f32(vec![0.0; 16]);
        let b_other = other.alloc_f32(vec![0.0; 16]);
        assert_eq!(b_other, b, "buffer ids restart in every pool");
        assert!(cache.get(&key(&other, 1, &[ArgValue::Buffer(b_other)])).is_none());
        // Nothing was pruned: the stale entry ages out through the LRU.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn reuse_profile_moves_no_hit_miss_or_lru_state() {
        let mem = Memory::new();
        let mut cache = DecisionCache::new(2);
        let k1 = key(&mem, 1, &[]);
        let k2 = key(&mem, 2, &[]);
        let k3 = key(&mem, 3, &[]);
        assert!(cache.reuse_profile(&k1).is_none());
        cache.insert(k1.clone(), decision(7));
        cache.insert(k2.clone(), decision(8));
        let reused = cache.reuse_profile(&k1).expect("cached");
        assert_eq!(reused.items_sampled, 7);
        assert_eq!(
            cache.stats(),
            CacheStats { profile_reuses: 1, ..CacheStats::default() },
            "a reuse is neither a hit nor a miss"
        );
        // k1 stays the least recently used entry, so it is the victim.
        cache.insert(k3, decision(9));
        assert!(cache.reuse_profile(&k1).is_none());
        assert!(cache.reuse_profile(&k2).is_some());
        assert_eq!(cache.stats().profile_reuses, 2);
    }

    #[test]
    fn kernel_invalidation_removes_every_entry_for_that_kernel() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 16]);
        let mut cache = DecisionCache::new(8);
        let k1a = key(&mem, 1, &[ArgValue::Buffer(a)]);
        let k1b = key(&mem, 1, &[ArgValue::Buffer(a), ArgValue::Int(9)]);
        let k2 = key(&mem, 2, &[ArgValue::Buffer(a)]);
        cache.insert(k1a.clone(), decision(0));
        cache.insert(k1b.clone(), decision(0));
        cache.insert(k2.clone(), decision(0));
        cache.invalidate_kernel(1);
        assert!(cache.get(&k1a).is_none());
        assert!(cache.get(&k1b).is_none());
        assert!(cache.get(&k2).is_some(), "other kernels untouched");
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mem = Memory::new();
        let mut cache = DecisionCache::new(2);
        let k1 = key(&mem, 1, &[ArgValue::Int(1)]);
        let k2 = key(&mem, 2, &[ArgValue::Int(2)]);
        let k3 = key(&mem, 3, &[ArgValue::Int(3)]);
        cache.insert(k1.clone(), decision(0));
        cache.insert(k2.clone(), decision(0));
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3.clone(), decision(0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k2).is_none(), "LRU entry evicted");
        assert!(cache.get(&k3).is_some());
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let mem = Memory::new();
        let mut cache = DecisionCache::new(1);
        let k = key(&mem, 1, &[]);
        cache.insert(k.clone(), decision(0));
        cache.insert(k.clone(), decision(0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[derive(Debug)]
    struct ReferenceEntry {
        decision: CachedDecision,
        last_used: u64,
    }

    /// The scanning cache the indexed one replaced: a `min_by_key` over
    /// every entry for the LRU victim. The model the property test checks
    /// against.
    #[derive(Debug)]
    struct ReferenceCache {
        capacity: usize,
        tick: u64,
        map: HashMap<LaunchKey, ReferenceEntry>,
        stats: CacheStats,
    }

    impl ReferenceCache {
        fn new(capacity: usize) -> Self {
            ReferenceCache {
                capacity: capacity.max(1),
                tick: 0,
                map: HashMap::new(),
                stats: CacheStats::default(),
            }
        }

        fn get(&mut self, key: &LaunchKey) -> Option<CachedDecision> {
            self.tick += 1;
            match self.map.get_mut(key) {
                Some(entry) => {
                    entry.last_used = self.tick;
                    self.stats.hits += 1;
                    Some(entry.decision.clone())
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn reuse_profile(&mut self, key: &LaunchKey) -> Option<Arc<KernelProfile>> {
            let profile = self.map.get(key)?.decision.profile.clone();
            self.stats.profile_reuses += 1;
            Some(profile)
        }

        fn insert(&mut self, key: LaunchKey, decision: CachedDecision) {
            if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
                if let Some(lru) = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                {
                    self.map.remove(&lru);
                    self.stats.evictions += 1;
                }
            }
            self.tick += 1;
            self.map.insert(key, ReferenceEntry { decision, last_used: self.tick });
        }

        fn invalidate_kernel(&mut self, kernel_id: u64) {
            let before = self.map.len();
            self.map.retain(|k, _| k.kernel_id != kernel_id);
            self.stats.invalidations += (before - self.map.len()) as u64;
        }

        fn clear(&mut self) {
            self.map.clear();
        }
    }

    /// A launch argument.
    #[derive(Debug, Clone)]
    enum ArgDraw {
        Buffer(usize),
        Int(i64),
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64, Vec<ArgDraw>),
        Insert(u64, Vec<ArgDraw>),
        /// A breaker-pinned launch's profile lookup.
        Reuse(u64, Vec<ArgDraw>),
        /// The host writes a buffer in place, then launches a kernel on it.
        Mutate(usize, u64),
        InvalidateKernel(u64),
        Clear,
    }

    const BUFFERS: usize = 3;

    fn arg_draw() -> impl Strategy<Value = ArgDraw> {
        prop_oneof![
            (0..BUFFERS).prop_map(ArgDraw::Buffer),
            (0..BUFFERS).prop_map(ArgDraw::Buffer),
            (0i64..2).prop_map(ArgDraw::Int),
        ]
    }

    fn launch() -> impl Strategy<Value = (u64, Vec<ArgDraw>)> {
        (0u64..3, prop::collection::vec(arg_draw(), 0..4))
    }

    /// Lookups and inserts dominate, as on the enqueue path.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            launch().prop_map(|(k, a)| Op::Get(k, a)),
            launch().prop_map(|(k, a)| Op::Get(k, a)),
            launch().prop_map(|(k, a)| Op::Get(k, a)),
            launch().prop_map(|(k, a)| Op::Insert(k, a)),
            launch().prop_map(|(k, a)| Op::Insert(k, a)),
            launch().prop_map(|(k, a)| Op::Insert(k, a)),
            launch().prop_map(|(k, a)| Op::Reuse(k, a)),
            ((0..BUFFERS), 0u64..3).prop_map(|(b, k)| Op::Mutate(b, k)),
            (0u64..3).prop_map(Op::InvalidateKernel),
            Just(Op::Clear),
        ]
    }

    fn launch_key(mem: &Memory, kernel_id: u64, args: &[ArgDraw]) -> LaunchKey {
        let args: Vec<ArgValue> = args
            .iter()
            .map(|a| match *a {
                ArgDraw::Buffer(id) => ArgValue::Buffer(BufferId(id)),
                ArgDraw::Int(v) => ArgValue::Int(v),
            })
            .collect();
        key(mem, kernel_id, &args)
    }

    /// A decision that names the insert that produced it.
    fn decision(serial: usize) -> CachedDecision {
        let point = DopPoint { cpu_cores: 0, gpu_eighths: 8, cpu_util: 0.0, gpu_util: 1.0 };
        CachedDecision {
            profile: Arc::new(KernelProfile { items_sampled: serial, ..profile() }),
            selection: Selection {
                index: serial,
                point,
                predicted: 1.0,
                inference_s: 0.0,
                fallback: false,
            },
        }
    }

    /// The LRU queue agrees with the entries: one record per entry, at its
    /// `queued` tick, no younger than its `last_used`.
    fn assert_lru_consistent(cache: &DecisionCache) {
        assert_eq!(cache.lru.len(), cache.map.len(), "one LRU record per entry");
        for (key, entry) in &cache.map {
            assert!(entry.queued <= entry.last_used);
            assert_eq!(cache.lru.get(&entry.queued), Some(key));
        }
    }

    fn summary(d: Option<CachedDecision>) -> Option<(usize, usize)> {
        d.map(|d| (d.profile.items_sampled, d.selection.index))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed cache answers every operation sequence exactly as
        /// the scanning reference does: same lookups, same size, same
        /// hit/miss/eviction/invalidation/reuse counters. Keys come from a
        /// real `Memory`, so an in-place write changes them, and a launch
        /// right after a write misses on both sides.
        #[test]
        fn indexed_cache_matches_the_scanning_reference(
            capacity in 1usize..=8,
            ops in prop::collection::vec(op(), 1..120),
        ) {
            let mut mem = Memory::new();
            for _ in 0..BUFFERS {
                mem.alloc_f32(vec![0.0; 16]);
            }
            let mut cache = DecisionCache::new(capacity);
            let mut reference = ReferenceCache::new(capacity);
            for (serial, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Get(kernel_id, args) => {
                        let key = launch_key(&mem, kernel_id, &args);
                        prop_assert_eq!(summary(cache.get(&key)), summary(reference.get(&key)));
                    }
                    Op::Insert(kernel_id, args) => {
                        let key = launch_key(&mem, kernel_id, &args);
                        cache.insert(key.clone(), decision(serial));
                        reference.insert(key, decision(serial));
                    }
                    Op::Reuse(kernel_id, args) => {
                        let key = launch_key(&mem, kernel_id, &args);
                        let serial = |p: Option<Arc<KernelProfile>>| p.map(|p| p.items_sampled);
                        prop_assert_eq!(
                            serial(cache.reuse_profile(&key)),
                            serial(reference.reuse_profile(&key))
                        );
                    }
                    Op::Mutate(id, kernel_id) => {
                        mem.get_mut(BufferId(id)).store_f64(0, serial as f64);
                        let key = launch_key(&mem, kernel_id, &[ArgDraw::Buffer(id)]);
                        prop_assert!(cache.get(&key).is_none());
                        prop_assert!(reference.get(&key).is_none());
                    }
                    Op::InvalidateKernel(kernel_id) => {
                        cache.invalidate_kernel(kernel_id);
                        reference.invalidate_kernel(kernel_id);
                    }
                    Op::Clear => {
                        cache.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(cache.len(), reference.map.len());
                prop_assert_eq!(cache.stats(), reference.stats);
                assert_lru_consistent(&cache);
            }
        }
    }
}
