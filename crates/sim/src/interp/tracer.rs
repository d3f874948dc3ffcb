//! Execution tracers: hooks the interpreter calls on every memory access
//! and arithmetic operation.
//!
//! The functional path uses [`NullTracer`] (zero cost); the profiler
//! records every sampled work-item into one dense per-item site table (see
//! [`crate::profile`]), from whose access counts and short address prefixes
//! access patterns, strides and footprints are derived.

use crate::buffer::BufferId;

/// Identity of a static memory-access site: a dense index assigned at
/// compile time by [`crate::interp::compile::SiteTable`] (one id per `Index`
/// expression in the kernel body, in traversal order). Dense ids let the
/// profiler index a flat table instead of a hash map, and both the bytecode
/// VM and the tree-walking reference interpreter share the same table — so
/// repeated executions of the same expression accumulate into one site and
/// the two engines produce comparable statistics.
pub type SiteKey = u32;

/// Hooks invoked by the interpreter. All methods default to no-ops so the
/// functional path pays nothing.
pub trait Tracer {
    /// The next work-item of a [`crate::interp::vm::run_single_items`] call
    /// (or its reference twin) starts; every event up to the next call
    /// belongs to it.
    fn begin_item(&mut self) {}
    /// A load of `elem_bytes` bytes at element `idx` of `buf` from the site
    /// keyed by `site`.
    fn load(&mut self, _site: SiteKey, _buf: BufferId, _idx: i64, _elem_bytes: usize) {}
    /// A store (profile mode suppresses the actual write but still traces).
    fn store(&mut self, _site: SiteKey, _buf: BufferId, _idx: i64, _elem_bytes: usize) {}
    /// `count` arithmetic operations, float or integer.
    fn arith(&mut self, _is_float: bool, _count: f64) {}
    /// Begin a scaling region: everything recorded after this call until the
    /// matching [`Tracer::end_scale`] is multiplied by `factor`. Used by the
    /// profile-mode loop extrapolation. Regions nest multiplicatively.
    fn begin_scale(&mut self, _factor: f64) {}
    fn end_scale(&mut self) {}
}

/// The zero-cost tracer for functional runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {}
