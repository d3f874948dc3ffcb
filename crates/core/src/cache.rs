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
//!   vector), and
//! * the **argument signature** — buffer `(id, len, generation)` triples
//!   plus exact scalar values, because scalars feed addressing and loop
//!   trip counts inside the kernel.
//!
//! A buffer's *generation* bumps on [`sim::Memory::resize`] /
//! [`sim::Memory::rebind`], so a shape-changed buffer can never satisfy a
//! stale key; inserting a fresh key additionally prunes entries that
//! reference an outdated generation of the same buffer (counted as
//! invalidations, since they can never hit again). Capacity is bounded
//! with exact LRU eviction. Hit/miss/eviction/invalidation counters surface
//! through [`crate::RuntimeHealth`] and the CLI health line.
//!
//! Neither a hit nor a miss scans the cache, whatever its size:
//!
//! * a hit is one hash lookup plus a `last_used` store;
//! * eviction pops the oldest of one `(tick, key)` record per entry, kept
//!   in tick order and left alone by hits; an entry touched since its
//!   record was queued is re-queued at its real age, so the victim is
//!   exactly the least-recently-used entry;
//! * a count of live entries per `(buffer, generation)` tells an insert
//!   whether any entry holds an outdated generation of a buffer the fresh
//!   key references; only then does it scan for the stale entries.
//!
//! The training sweep ([`crate::training::measure_workload`]) reuses the
//! same cache type for its one-profile-per-44-configs sharing, so the
//! sweep and the runtime hot path exercise one code path.

use crate::model::Selection;
use sim::{ArgValue, BufferId, KernelProfile, Memory, NdRange};
use std::collections::{hash_map, BTreeMap, HashMap};

/// Cache-relevant identity of one kernel argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgSig {
    /// Buffer shape epoch: contents don't matter for decisions, shape does.
    Buffer { id: usize, len: usize, generation: u64 },
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
    pub nd: NdRange,
    pub args: Vec<ArgSig>,
}

impl LaunchKey {
    /// Build the key for a launch, reading buffer shapes and generations
    /// from `mem`.
    pub fn new(kernel_id: u64, code_id: u64, nd: NdRange, args: &[ArgValue], mem: &Memory) -> Self {
        let args = args
            .iter()
            .map(|a| match a {
                ArgValue::Buffer(id) => ArgSig::Buffer {
                    id: id.0,
                    len: mem.get(*id).len(),
                    generation: mem.generation(*id),
                },
                ArgValue::Int(v) => ArgSig::Int(*v),
                ArgValue::Float(v) => ArgSig::Float(v.to_bits()),
            })
            .collect();
        LaunchKey { kernel_id, code_id, nd, args }
    }

    /// The `(buffer id, generation)` of every buffer argument.
    fn buffers(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.args.iter().filter_map(|a| match *a {
            ArgSig::Buffer { id, generation, .. } => Some((id, generation)),
            ArgSig::Int(_) | ArgSig::Float(_) => None,
        })
    }

    fn references_buffer(&self, id: usize) -> bool {
        self.buffers().any(|(b, _)| b == id)
    }
}

/// The memoized outcome of one launch's characterization.
#[derive(Debug, Clone)]
pub struct CachedDecision {
    /// The sampled-interpretation profile (the expensive part).
    pub profile: KernelProfile,
    /// The model's DoP selection; `None` for profile-only entries (the
    /// training sweep caches characterization without a selection).
    pub selection: Option<Selection>,
}

/// Monotonic cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

#[derive(Debug)]
struct Entry {
    decision: CachedDecision,
    last_used: u64,
    /// Tick of this entry's record in [`DecisionCache::lru`]; never
    /// greater than `last_used`.
    queued: u64,
}

/// Number of buffer references from live entries, per `(buffer id,
/// generation)`.
#[derive(Debug, Default)]
struct Generations(BTreeMap<(usize, u64), usize>);

impl Generations {
    fn track(&mut self, key: &LaunchKey) {
        for buffer in key.buffers() {
            *self.0.entry(buffer).or_default() += 1;
        }
    }

    fn untrack(&mut self, key: &LaunchKey) {
        for buffer in key.buffers() {
            let live = self.0.get_mut(&buffer).expect("a live entry's buffers are tracked");
            *live -= 1;
            if *live == 0 {
                self.0.remove(&buffer);
            }
        }
    }

    /// Live `(buffer id, generation)` pairs strictly older than a
    /// generation `fresh` references: every entry holding one can never
    /// hit again.
    fn outdated_by(&self, fresh: &LaunchKey) -> Vec<(usize, u64)> {
        fresh
            .buffers()
            .flat_map(|(id, generation)| self.0.range((id, 0)..(id, generation)).map(|(&b, _)| b))
            .collect()
    }
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
    generations: Generations,
    stats: CacheStats,
}

impl DecisionCache {
    /// Default capacity: generously above any realistic distinct-launch
    /// working set (44 configs x a handful of kernels). Lookups, inserts
    /// and evictions cost the same at any capacity; only the rare explicit
    /// invalidations (and a stale-generation prune) scan the entries.
    pub const DEFAULT_CAPACITY: usize = 256;

    pub fn new(capacity: usize) -> Self {
        DecisionCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            generations: Generations::default(),
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

    /// Insert a decision, pruning entries staled by newer buffer
    /// generations and evicting the least-recently-used entry at capacity.
    pub fn insert(&mut self, key: LaunchKey, decision: CachedDecision) {
        let outdated = self.generations.outdated_by(&key);
        if !outdated.is_empty() {
            self.invalidate_where(|k| k.buffers().any(|b| outdated.contains(&b)));
        }

        self.tick += 1;
        match self.map.entry(key) {
            hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                entry.decision = decision;
                entry.last_used = self.tick;
            }
            hash_map::Entry::Vacant(slot) => {
                self.generations.track(slot.key());
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
            self.generations.untrack(&key);
            self.stats.evictions += 1;
            return;
        }
    }

    /// Drop every entry whose key matches `stale`, counting invalidations.
    fn invalidate_where(&mut self, mut stale: impl FnMut(&LaunchKey) -> bool) {
        let before = self.map.len();
        let (generations, lru) = (&mut self.generations, &mut self.lru);
        self.map.retain(|key, entry| {
            let drop = stale(key);
            if drop {
                generations.untrack(key);
                lru.remove(&entry.queued);
            }
            !drop
        });
        self.stats.invalidations += (before - self.map.len()) as u64;
    }

    /// Drop every entry referencing `id` (explicit rebind notification —
    /// the belt to the generation key's suspenders).
    pub fn invalidate_buffer(&mut self, id: BufferId) {
        self.invalidate_where(|k| k.references_buffer(id.0));
    }

    /// Drop every entry for a kernel. The supervision layer calls this
    /// when a kernel's model predictions enter quarantine: the cached
    /// selections were produced by a model now known to mispredict for
    /// that kernel, so replaying them would pin the bad decision past the
    /// quarantine.
    pub fn invalidate_kernel(&mut self, kernel_id: u64) {
        self.invalidate_where(|k| k.kernel_id == kernel_id);
    }

    pub fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
        self.generations = Generations::default();
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
        cache.insert(k.clone(), CachedDecision { profile: profile(), selection: None });
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
    fn resize_changes_key_and_insert_prunes_stale_generation() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 16]);
        let mut cache = DecisionCache::new(8);
        let args = [ArgValue::Buffer(a)];
        let k0 = key(&mem, 1, &args);
        cache.insert(k0.clone(), CachedDecision { profile: profile(), selection: None });
        mem.resize(a, 32);
        let k1 = key(&mem, 1, &args);
        assert_ne!(k0, k1, "resize must change the key");
        assert!(cache.get(&k1).is_none());
        cache.insert(k1.clone(), CachedDecision { profile: profile(), selection: None });
        // The generation-0 entry can never hit again; it must be gone.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.get(&k1).is_some());
    }

    #[test]
    fn explicit_invalidation_removes_only_matching_buffers() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 16]);
        let b = mem.alloc_f32(vec![0.0; 16]);
        let mut cache = DecisionCache::new(8);
        let ka = key(&mem, 1, &[ArgValue::Buffer(a)]);
        let kb = key(&mem, 1, &[ArgValue::Buffer(b)]);
        cache.insert(ka.clone(), CachedDecision { profile: profile(), selection: None });
        cache.insert(kb.clone(), CachedDecision { profile: profile(), selection: None });
        cache.invalidate_buffer(a);
        assert!(cache.get(&ka).is_none());
        assert!(cache.get(&kb).is_some());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn kernel_invalidation_removes_every_entry_for_that_kernel() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 16]);
        let mut cache = DecisionCache::new(8);
        let k1a = key(&mem, 1, &[ArgValue::Buffer(a)]);
        let k1b = key(&mem, 1, &[ArgValue::Buffer(a), ArgValue::Int(9)]);
        let k2 = key(&mem, 2, &[ArgValue::Buffer(a)]);
        cache.insert(k1a.clone(), CachedDecision { profile: profile(), selection: None });
        cache.insert(k1b.clone(), CachedDecision { profile: profile(), selection: None });
        cache.insert(k2.clone(), CachedDecision { profile: profile(), selection: None });
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
        cache.insert(k1.clone(), CachedDecision { profile: profile(), selection: None });
        cache.insert(k2.clone(), CachedDecision { profile: profile(), selection: None });
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3.clone(), CachedDecision { profile: profile(), selection: None });
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
        cache.insert(k.clone(), CachedDecision { profile: profile(), selection: None });
        cache.insert(k.clone(), CachedDecision { profile: profile(), selection: None });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    impl LaunchKey {
        /// Whether `self` references a strictly older generation of any buffer
        /// the (newer) `fresh` key references — i.e. `self` can never hit again.
        fn is_stale_against(&self, fresh: &LaunchKey) -> bool {
            self.args.iter().any(|a| {
                if let ArgSig::Buffer { id, generation, .. } = a {
                    fresh.args.iter().any(|f| {
                        matches!(f, ArgSig::Buffer { id: fid, generation: fgen, .. }
                                 if fid == id && fgen > generation)
                    })
                } else {
                    false
                }
            })
        }
    }

    #[derive(Debug)]
    struct ReferenceEntry {
        decision: CachedDecision,
        last_used: u64,
    }

    /// The scanning cache the indexed one replaced: a `retain` over every
    /// entry for stale pruning and a `min_by_key` over every entry for the
    /// LRU victim. The model the property test checks against.
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

        fn insert(&mut self, key: LaunchKey, decision: CachedDecision) {
            let before = self.map.len();
            self.map.retain(|k, _| !k.is_stale_against(&key));
            self.stats.invalidations += (before - self.map.len()) as u64;

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

        fn invalidate_buffer(&mut self, id: BufferId) {
            let before = self.map.len();
            self.map.retain(|k, _| !k.references_buffer(id.0));
            self.stats.invalidations += (before - self.map.len()) as u64;
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

    /// A launch argument before buffer generations are resolved.
    #[derive(Debug, Clone)]
    enum ArgDraw {
        Buffer(usize),
        Int(i64),
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64, Vec<ArgDraw>),
        Insert(u64, Vec<ArgDraw>),
        /// `Memory::resize`: the buffer's generation goes up.
        Resize(usize),
        /// A second `Memory` reusing the buffer id at an older generation.
        Collide(usize),
        InvalidateBuffer(usize),
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
            (0..BUFFERS).prop_map(Op::Resize),
            (0..BUFFERS).prop_map(Op::Resize),
            (0..BUFFERS).prop_map(Op::Collide),
            (0..BUFFERS).prop_map(Op::InvalidateBuffer),
            (0u64..3).prop_map(Op::InvalidateKernel),
            Just(Op::Clear),
        ]
    }

    fn launch_key(kernel_id: u64, args: &[ArgDraw], generations: &[u64; BUFFERS]) -> LaunchKey {
        let args = args
            .iter()
            .map(|a| match *a {
                ArgDraw::Buffer(id) => {
                    ArgSig::Buffer { id, len: 16, generation: generations[id] }
                }
                ArgDraw::Int(v) => ArgSig::Int(v),
            })
            .collect();
        LaunchKey { kernel_id, code_id: 0, nd: NdRange::d1(64, 64), args }
    }

    /// A decision that names the insert that produced it.
    fn decision(serial: usize) -> CachedDecision {
        let point = DopPoint { cpu_cores: 0, gpu_eighths: 8, cpu_util: 0.0, gpu_util: 1.0 };
        CachedDecision {
            profile: KernelProfile { items_sampled: serial, ..profile() },
            selection: Some(Selection {
                index: serial,
                point,
                predicted: 1.0,
                inference_s: 0.0,
                fallback: false,
            }),
        }
    }

    /// The indices agree with the entries: the generation counts are
    /// exactly the entries' buffer references, and the LRU queue holds one
    /// record per entry, at its `queued` tick, no younger than its
    /// `last_used`.
    fn assert_indices_consistent(cache: &DecisionCache) {
        let mut generations = Generations::default();
        for key in cache.map.keys() {
            generations.track(key);
        }
        assert_eq!(cache.generations.0, generations.0, "generation counts drifted");
        assert_eq!(cache.lru.len(), cache.map.len(), "one LRU record per entry");
        for (key, entry) in &cache.map {
            assert!(entry.queued <= entry.last_used);
            assert_eq!(cache.lru.get(&entry.queued), Some(key));
        }
    }

    fn summary(d: Option<CachedDecision>) -> Option<(usize, Option<usize>)> {
        d.map(|d| (d.profile.items_sampled, d.selection.map(|s| s.index)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed cache answers every operation sequence exactly as
        /// the scanning reference does: same lookups, same size, same
        /// hit/miss/eviction/invalidation counters.
        #[test]
        fn indexed_cache_matches_the_scanning_reference(
            capacity in 1usize..=8,
            ops in prop::collection::vec(op(), 1..120),
        ) {
            let mut cache = DecisionCache::new(capacity);
            let mut reference = ReferenceCache::new(capacity);
            let mut generations = [0u64; BUFFERS];
            for (serial, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Get(kernel_id, args) => {
                        let key = launch_key(kernel_id, &args, &generations);
                        prop_assert_eq!(summary(cache.get(&key)), summary(reference.get(&key)));
                    }
                    Op::Insert(kernel_id, args) => {
                        let key = launch_key(kernel_id, &args, &generations);
                        cache.insert(key.clone(), decision(serial));
                        reference.insert(key, decision(serial));
                    }
                    Op::Resize(id) => generations[id] += 1,
                    Op::Collide(id) => generations[id] = generations[id].saturating_sub(1),
                    Op::InvalidateBuffer(id) => {
                        cache.invalidate_buffer(BufferId(id));
                        reference.invalidate_buffer(BufferId(id));
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
                assert_indices_consistent(&cache);
            }
        }
    }
}
