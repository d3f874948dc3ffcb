//! Device-visible memory: buffers and kernel arguments.
//!
//! Integrated architectures expose one shared physical memory, so a
//! [`Buffer`] is visible to both simulated devices without copies — exactly
//! the property the paper's runtime exploits.
//!
//! Large float arrays can be *virtual*: they synthesize deterministic values
//! on load and ignore stores. This lets the profiler run paper-scale inputs
//! (e.g. a 16,384 x 16,384 Polybench matrix = 1 GiB) without allocating
//! them. Virtual buffers are rejected by the functional interpreter when a
//! store would be observable, so correctness tests always use real storage.

use clc::Scalar;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique id source for [`Memory`] pools. [`BufferId`]s restart at
/// 0 in every pool, so a buffer is named across pools by `(pool id,
/// buffer id)`.
static NEXT_MEMORY_ID: AtomicU64 = AtomicU64::new(1);

/// Handle to a buffer inside a [`Memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub usize);

/// A single device-visible allocation.
#[derive(Debug, Clone)]
pub enum Buffer {
    /// Real f32 storage.
    F32(Vec<f32>),
    /// Real i32 storage.
    I32(Vec<i32>),
    /// Virtual f32 array of `len` elements; `load(i)` returns a
    /// deterministic pseudo-random value derived from `i` and `seed`.
    /// Stores are silently dropped (profile mode only).
    VirtualF32 { len: usize, seed: u64 },
}

impl Buffer {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Buffer::F32(v) => v.len(),
            Buffer::I32(v) => v.len(),
            Buffer::VirtualF32 { len, .. } => *len,
        }
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    pub fn elem(&self) -> Scalar {
        match self {
            Buffer::F32(_) | Buffer::VirtualF32 { .. } => Scalar::Float,
            Buffer::I32(_) => Scalar::Int,
        }
    }

    /// Size of one element in bytes.
    pub fn elem_bytes(&self) -> usize {
        self.elem().size_bytes()
    }

    /// Load element `idx` as f64 (ints widen, floats widen losslessly).
    ///
    /// # Panics
    /// Panics on out-of-bounds access — simulated kernels are expected to
    /// guard their accesses exactly like real ones must.
    pub fn load_f64(&self, idx: usize) -> f64 {
        match self {
            Buffer::F32(v) => v[idx] as f64,
            Buffer::I32(v) => v[idx] as f64,
            Buffer::VirtualF32 { len, seed } => {
                assert!(idx < *len, "virtual buffer index {} out of bounds {}", idx, len);
                synth_f32(*seed, idx) as f64
            }
        }
    }

    /// Load element `idx` as i64 (floats truncate like a C cast).
    pub fn load_i64(&self, idx: usize) -> i64 {
        match self {
            Buffer::F32(v) => v[idx] as i64,
            Buffer::I32(v) => v[idx] as i64,
            Buffer::VirtualF32 { len, seed } => {
                assert!(idx < *len, "virtual buffer index {} out of bounds {}", idx, len);
                synth_f32(*seed, idx) as i64
            }
        }
    }

    /// Store a float value (converting to the element type like a C
    /// assignment). Stores to virtual buffers are dropped.
    pub fn store_f64(&mut self, idx: usize, value: f64) {
        match self {
            Buffer::F32(v) => v[idx] = value as f32,
            Buffer::I32(v) => v[idx] = value as i32,
            Buffer::VirtualF32 { len, .. } => {
                assert!(idx < *len, "virtual buffer index {} out of bounds {}", idx, len);
            }
        }
    }

    /// Store an integer value.
    pub fn store_i64(&mut self, idx: usize, value: i64) {
        match self {
            Buffer::F32(v) => v[idx] = value as f32,
            Buffer::I32(v) => v[idx] = value as i32,
            Buffer::VirtualF32 { len, .. } => {
                assert!(idx < *len, "virtual buffer index {} out of bounds {}", idx, len);
            }
        }
    }
}

/// Deterministic pseudo-value for virtual buffers: a cheap integer hash of
/// `(seed, idx)` mapped into `[0, 1)`.
fn synth_f32(seed: u64, idx: usize) -> f32 {
    let mut x = seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 40) as f32 / (1u64 << 24) as f32
}

/// The shared memory pool: an arena of buffers addressed by [`BufferId`].
///
/// A buffer keeps its length and element type for life, like a `cl_mem`
/// keeps the size it was created with: a host that needs another shape
/// allocates a new buffer, which gets a new id. Ids are never reused
/// within one `Memory`. Element stores through [`Memory::get_mut`] change
/// contents, not shape.
///
/// Every buffer carries a content version. [`Memory::get_mut`] is the only
/// mutable path and bumps it, so `(Memory::id, BufferId, version)` names
/// one content state in the process: equal triples mean unchanged
/// contents. Profile-mode stores never reach `get_mut`; a global atomic
/// does, even while profiling, because it changes the buffer.
#[derive(Debug)]
pub struct Memory {
    id: u64,
    buffers: Vec<Buffer>,
    /// Content version per buffer, indexed like `buffers`.
    versions: Vec<u64>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            id: NEXT_MEMORY_ID.fetch_add(1, Ordering::Relaxed),
            buffers: Vec::new(),
            versions: Vec::new(),
        }
    }
}

impl Memory {
    pub fn new() -> Self {
        Memory::default()
    }

    /// Process-unique id of this pool; no two `Memory`s share one.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Allocate a buffer and return its handle.
    pub fn alloc(&mut self, buffer: Buffer) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(buffer);
        self.versions.push(0);
        id
    }

    /// Allocate a real f32 buffer from a vector.
    pub fn alloc_f32(&mut self, data: Vec<f32>) -> BufferId {
        self.alloc(Buffer::F32(data))
    }

    /// Allocate a real i32 buffer from a vector.
    pub fn alloc_i32(&mut self, data: Vec<i32>) -> BufferId {
        self.alloc(Buffer::I32(data))
    }

    /// Allocate a virtual f32 buffer of `len` elements.
    pub fn alloc_virtual_f32(&mut self, len: usize, seed: u64) -> BufferId {
        self.alloc(Buffer::VirtualF32 { len, seed })
    }

    pub fn get(&self, id: BufferId) -> &Buffer {
        &self.buffers[id.0]
    }

    /// Mutable access to a buffer. Counts as a content change: the
    /// buffer's [`Memory::version`] goes up whether or not the caller
    /// writes.
    pub fn get_mut(&mut self, id: BufferId) -> &mut Buffer {
        self.versions[id.0] += 1;
        &mut self.buffers[id.0]
    }

    /// Content version of a buffer: 0 at allocation, one more per
    /// [`Memory::get_mut`].
    pub fn version(&self, id: BufferId) -> u64 {
        self.versions[id.0]
    }

    /// Read back a real f32 buffer (panics on ints/virtuals).
    pub fn read_f32(&self, id: BufferId) -> &[f32] {
        match self.get(id) {
            Buffer::F32(v) => v,
            other => panic!("buffer {:?} is not a real f32 buffer: {:?}", id, other.elem()),
        }
    }

    /// Read back a real i32 buffer (panics on floats/virtuals).
    pub fn read_i32(&self, id: BufferId) -> &[i32] {
        match self.get(id) {
            Buffer::I32(v) => v,
            other => panic!("buffer {:?} is not a real i32 buffer: {:?}", id, other.elem()),
        }
    }
}

/// One kernel argument: a buffer handle or a scalar immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    Buffer(BufferId),
    Int(i64),
    Float(f32),
}

impl ArgValue {
    /// The buffer handle, if this argument is a buffer.
    pub fn as_buffer(&self) -> Option<BufferId> {
        match self {
            ArgValue::Buffer(id) => Some(*id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_buffers_round_trip() {
        let mut mem = Memory::new();
        let f = mem.alloc_f32(vec![0.0; 4]);
        let i = mem.alloc_i32(vec![0; 4]);
        mem.get_mut(f).store_f64(2, 1.5);
        mem.get_mut(i).store_i64(3, -7);
        assert_eq!(mem.get(f).load_f64(2), 1.5);
        assert_eq!(mem.get(i).load_i64(3), -7);
        assert_eq!(mem.read_f32(f)[2], 1.5);
        assert_eq!(mem.read_i32(i)[3], -7);
    }

    #[test]
    fn stores_convert_like_c() {
        let mut mem = Memory::new();
        let i = mem.alloc_i32(vec![0; 1]);
        mem.get_mut(i).store_f64(0, 2.9);
        assert_eq!(mem.get(i).load_i64(0), 2); // truncation
        let f = mem.alloc_f32(vec![0.0; 1]);
        mem.get_mut(f).store_i64(0, 3);
        assert_eq!(mem.get(f).load_f64(0), 3.0);
    }

    #[test]
    fn get_mut_bumps_only_its_buffers_version() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 4]);
        let b = mem.alloc_f32(vec![0.0; 4]);
        assert_eq!((mem.version(a), mem.version(b)), (0, 0));
        mem.get_mut(a).store_f64(0, 1.0);
        mem.get_mut(a).store_f64(1, 1.0);
        assert_eq!(mem.get(a).load_f64(0), 1.0);
        assert_eq!((mem.version(a), mem.version(b)), (2, 0));
    }

    #[test]
    fn memories_have_distinct_ids() {
        let (m1, m2) = (Memory::new(), Memory::new());
        assert_ne!(m1.id(), m2.id());
    }

    #[test]
    fn virtual_buffers_are_deterministic_and_bounded() {
        let b = Buffer::VirtualF32 { len: 100, seed: 42 };
        let x = b.load_f64(17);
        let y = b.load_f64(17);
        assert_eq!(x, y);
        assert!((0.0..1.0).contains(&x));
        let z = b.load_f64(18);
        assert_ne!(x, z); // overwhelmingly likely; hash-distinct
    }

    #[test]
    fn virtual_stores_are_dropped() {
        let mut b = Buffer::VirtualF32 { len: 10, seed: 1 };
        let before = b.load_f64(3);
        b.store_f64(3, 99.0);
        assert_eq!(b.load_f64(3), before);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let b = Buffer::F32(vec![0.0; 2]);
        b.load_f64(2);
    }

    #[test]
    #[should_panic]
    fn virtual_out_of_bounds_panics() {
        let b = Buffer::VirtualF32 { len: 2, seed: 0 };
        b.load_f64(5);
    }
}
