//! An in-order command queue over the Dopia runtime.
//!
//! Real OpenCL applications are kernel *sequences* — ATAX is two dependent
//! kernels, FDTD-2D is three per time step, PageRank re-launches every
//! iteration. The paper's interposed runtime manages each launch
//! independently; this queue mirrors `clCommandQueue` semantics (in-order,
//! one device context) and aggregates per-launch accounting so an
//! application sees end-to-end numbers.

use crate::runtime::{Dopia, DopiaError, LaunchResult, Program, RuntimeHealth};
use sim::{ArgValue, Memory, NdRange};

/// Bounded retry for transient errors: how many re-attempts one enqueue
/// gets before the error is surfaced.
const MAX_TRANSIENT_RETRIES: u32 = 3;
/// First retry backoff in simulated seconds; doubles per retry. Charged
/// to the launch's end-to-end time like any other runtime overhead.
const RETRY_BACKOFF_BASE_S: f64 = 1e-4;

/// One completed launch in the queue's history.
#[derive(Debug, Clone)]
pub struct QueueEvent {
    pub kernel: String,
    pub result: LaunchResult,
}

/// Aggregated accounting for a queue (paper-style: kernel time and model
/// overhead reported separately).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSummary {
    pub launches: usize,
    /// Sum of simulated kernel times.
    pub kernel_time_s: f64,
    /// Sum of measured model-inference overheads.
    pub inference_s: f64,
    /// Total end-to-end time (kernel + overhead).
    pub total_time_s: f64,
    /// Everything the runtime absorbed across the queue's launches
    /// (fallbacks, retries, degraded launches, watchdog recoveries).
    pub health: RuntimeHealth,
}

/// An in-order command queue bound to one [`Dopia`] runtime and one shared
/// [`Memory`].
pub struct CommandQueue<'d> {
    dopia: &'d Dopia,
    events: Vec<QueueEvent>,
}

impl<'d> CommandQueue<'d> {
    pub fn new(dopia: &'d Dopia) -> Self {
        CommandQueue { dopia, events: Vec::new() }
    }

    /// Enqueue a kernel; in-order semantics mean it completes before the
    /// call returns (the simulated clock advances by its total time).
    ///
    /// Transient errors (injected faults, busy devices) are retried up to
    /// `MAX_TRANSIENT_RETRIES` times with exponential backoff; the
    /// backoff is simulated time added to the launch's `total_time_s`, and
    /// absorbed retries show up in the result's health counters. Permanent
    /// errors surface immediately.
    pub fn enqueue_nd_range_kernel(
        &mut self,
        program: &Program,
        kernel_name: &str,
        args: &[ArgValue],
        nd: NdRange,
        mem: &Memory,
    ) -> Result<&QueueEvent, DopiaError> {
        let mut retries = 0u32;
        let mut backoff_s = 0.0f64;
        let mut result = loop {
            match self
                .dopia
                .enqueue_nd_range_kernel(program, kernel_name, args, nd, mem)
            {
                Ok(r) => break r,
                Err(e) if e.is_transient() && retries < MAX_TRANSIENT_RETRIES => {
                    backoff_s += RETRY_BACKOFF_BASE_S * f64::from(1u32 << retries);
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        };
        result.health.transient_retries += retries;
        result.total_time_s += backoff_s;
        // Index the slot we are about to fill: total code, no panic path.
        let slot = self.events.len();
        self.events.push(QueueEvent { kernel: kernel_name.to_string(), result });
        Ok(&self.events[slot])
    }

    /// All completed launches, in order.
    pub fn events(&self) -> &[QueueEvent] {
        &self.events
    }

    /// `clFinish` analogue: aggregate accounting for everything enqueued.
    pub fn finish(&self) -> QueueSummary {
        let kernel_time_s: f64 = self.events.iter().map(|e| e.result.kernel_time_s).sum();
        let inference_s: f64 =
            self.events.iter().map(|e| e.result.selection.inference_s).sum();
        let total_time_s: f64 = self.events.iter().map(|e| e.result.total_time_s).sum();
        let mut health = RuntimeHealth::default();
        for e in &self.events {
            health.absorb(&e.result.health);
        }
        QueueSummary {
            launches: self.events.len(),
            kernel_time_s,
            inference_s,
            total_time_s,
            health,
        }
    }

    /// Per-kernel totals (kernel name → summed end-to-end seconds), for
    /// application-level breakdowns.
    pub fn breakdown(&self) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for e in &self.events {
            match totals.iter_mut().find(|(name, _)| *name == e.kernel) {
                Some((_, t)) => *t += e.result.total_time_s,
                None => totals.push((e.kernel.clone(), e.result.total_time_s)),
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PerfModel;
    use ml::ModelKind;
    use sim::Engine;
    use std::sync::OnceLock;

    fn dopia() -> &'static Dopia {
        static D: OnceLock<Dopia> = OnceLock::new();
        D.get_or_init(|| {
            let engine = Engine::kaveri();
            let (data, _) = crate::training::tiny_training_set(&engine);
            Dopia::new(engine, PerfModel::train(ModelKind::Dt, &data, 42))
        })
    }

    #[test]
    fn atax_two_kernel_pipeline() {
        let dopia = dopia();
        let src = format!(
            "{}\n{}",
            workloads::polybench::ATAX1_SRC,
            workloads::polybench::ATAX2_SRC
        );
        let program = dopia.create_program_with_source(&src).unwrap();
        let n = 2048usize;
        let mut mem = Memory::new();
        let a = mem.alloc_virtual_f32(n * n, 1);
        let x = mem.alloc_f32(vec![1.0; n]);
        let tmp = mem.alloc_f32(vec![0.0; n]);
        let y = mem.alloc_f32(vec![0.0; n]);
        let nd = NdRange::d1(n, 256);

        let mut queue = CommandQueue::new(dopia);
        queue
            .enqueue_nd_range_kernel(
                &program,
                "atax1",
                &[ArgValue::Buffer(a), ArgValue::Buffer(x), ArgValue::Buffer(tmp), ArgValue::Int(n as i64)],
                nd,
                &mem,
            )
            .unwrap();
        queue
            .enqueue_nd_range_kernel(
                &program,
                "atax2",
                &[ArgValue::Buffer(a), ArgValue::Buffer(tmp), ArgValue::Buffer(y), ArgValue::Int(n as i64)],
                nd,
                &mem,
            )
            .unwrap();

        let summary = queue.finish();
        assert_eq!(summary.launches, 2);
        assert_eq!(queue.events().len(), 2);
        assert!(summary.kernel_time_s > 0.0);
        assert!(summary.total_time_s >= summary.kernel_time_s);
        assert!((summary.total_time_s - summary.kernel_time_s - summary.inference_s).abs() < 1e-12);
        let names: Vec<&str> = queue.events().iter().map(|e| e.kernel.as_str()).collect();
        assert_eq!(names, ["atax1", "atax2"]);
    }

    #[test]
    fn breakdown_groups_repeated_kernels() {
        let dopia = dopia();
        let program = dopia
            .create_program_with_source(workloads::pagerank::PAGERANK_SRC)
            .unwrap();
        let n = 1024usize;
        let mut mem = Memory::new();
        let graph = workloads::data::random_csr(n, 8, 3);
        let mut inst = workloads::pagerank::instance(&mut mem, &graph, 256);
        let mut queue = CommandQueue::new(dopia);
        for _ in 0..3 {
            queue
                .enqueue_nd_range_kernel(
                    &program,
                    "pagerank",
                    &inst.built.args.clone(),
                    inst.built.nd,
                    &mem,
                )
                .unwrap();
            workloads::pagerank::swap_buffers(&mut inst);
        }
        let breakdown = queue.breakdown();
        assert_eq!(breakdown.len(), 1);
        assert_eq!(breakdown[0].0, "pagerank");
        assert!((breakdown[0].1 - queue.finish().total_time_s).abs() < 1e-12);
    }

    #[test]
    fn errors_do_not_record_events() {
        let dopia = dopia();
        let program = dopia.create_program_with_source("__kernel void k(int x) { x = 0; }").unwrap();
        let mem = Memory::new();
        let mut queue = CommandQueue::new(dopia);
        let err = queue.enqueue_nd_range_kernel(
            &program,
            "missing",
            &[],
            NdRange::d1(64, 64),
            &mem,
        );
        assert!(err.is_err());
        assert!(queue.events().is_empty());
        assert_eq!(queue.finish().launches, 0);
    }
}
