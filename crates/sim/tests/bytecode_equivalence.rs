//! Differential suite: the bytecode VM must be observationally identical to
//! the tree-walking reference interpreter.
//!
//! "Observationally identical" is strict: for the same kernel, arguments and
//! geometry, both engines must emit the *exact* same tracer event stream
//! (same sites, same indices, same op counts, same scale regions, in the
//! same order, with the same work-item boundaries), leave memory in the
//! same state, raise the same errors, and aggregate to bit-identical
//! `KernelProfile`s. The VM's profile must also match the shadow copy of
//! the per-item profiler (`support/shadow_profile.rs`). The suite covers
//! the example/PolyBench-style kernels plus a proptest fuzzer over
//! randomized synthetic kernels.

#[path = "support/shadow_profile.rs"]
mod shadow_profile;

use proptest::prelude::*;
use shadow_profile::{assert_matches_shadow, assert_profiles_equal};
use sim::interp::{compile_kernel, reference, vm, SiteKey, Tracer};
use sim::profile::{profile_compiled, profile_reference};
use sim::{ArgValue, BufferId, Memory, NdRange};

// ---------------------------------------------------------------------------
// Event tracer: records every hook invocation verbatim
// ---------------------------------------------------------------------------

/// One tracer callback. Floats are compared by bit pattern so "identical"
/// means identical, not approximately equal.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    BeginItem,
    Load { site: SiteKey, buf: usize, idx: i64, bytes: usize },
    Store { site: SiteKey, buf: usize, idx: i64, bytes: usize },
    Arith { is_float: bool, count_bits: u64 },
    BeginScale { factor_bits: u64 },
    EndScale,
}

#[derive(Debug, Default)]
struct EventTracer {
    events: Vec<Event>,
}

impl Tracer for EventTracer {
    fn begin_item(&mut self) {
        self.events.push(Event::BeginItem);
    }
    fn load(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize) {
        self.events.push(Event::Load { site, buf: buf.0, idx, bytes: elem_bytes });
    }
    fn store(&mut self, site: SiteKey, buf: BufferId, idx: i64, elem_bytes: usize) {
        self.events.push(Event::Store { site, buf: buf.0, idx, bytes: elem_bytes });
    }
    fn arith(&mut self, is_float: bool, count: f64) {
        self.events.push(Event::Arith { is_float, count_bits: count.to_bits() });
    }
    fn begin_scale(&mut self, factor: f64) {
        self.events.push(Event::BeginScale { factor_bits: factor.to_bits() });
    }
    fn end_scale(&mut self) {
        self.events.push(Event::EndScale);
    }
}

// ---------------------------------------------------------------------------
// Launch construction
// ---------------------------------------------------------------------------

/// Deterministic argument binding: float pointers get concrete `f32`
/// buffers (so stores can be compared), int pointers concrete `i32`
/// buffers, int scalars `n`, float scalars 1.5.
fn bind(kernel: &clc::Kernel, n: usize, mem: &mut Memory) -> Vec<ArgValue> {
    kernel
        .params
        .iter()
        .enumerate()
        .map(|(p, param)| match &param.ty {
            clc::Type::Ptr { elem, .. } if elem.is_float() => ArgValue::Buffer(
                mem.alloc_f32((0..n).map(|i| ((i * 7 + p * 13) % 31) as f32 * 0.5 - 3.0).collect()),
            ),
            clc::Type::Ptr { .. } => ArgValue::Buffer(
                mem.alloc_i32((0..n).map(|i| ((i * 5 + p * 3) % 17) as i32 - 4).collect()),
            ),
            clc::Type::Scalar(s) if s.is_float() => ArgValue::Float(1.5),
            _ => ArgValue::Int(n as i64),
        })
        .collect()
}

fn snapshot(mem: &Memory, args: &[ArgValue]) -> Vec<Vec<u64>> {
    args.iter()
        .filter_map(|a| a.as_buffer())
        .map(|id| {
            let b = mem.get(id);
            (0..b.len()).map(|i| b.load_f64(i).to_bits()).collect()
        })
        .collect()
}

/// The work-items the profiler would sample for this geometry, plus a few
/// extras near boundaries.
fn sample_ids(total: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = vec![0, 1, total / 2, total.saturating_sub(1)];
    ids.retain(|&i| i < total);
    ids.dedup();
    ids
}

/// Each engine's two entry points: the sampled `run_single_items` and the
/// full `run_kernel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    Sampled,
    Full,
}

/// Run both engines over the same launch and assert every observable is
/// identical. `ctx` names the test case in failure messages.
fn assert_equivalent(src: &str, n: usize, nd: NdRange, ctx: &str) {
    check_engines(src, n, nd, ctx, true);
}

/// [`assert_equivalent`], with the shadow-profile check only if `shadow`.
fn check_engines(src: &str, n: usize, nd: NdRange, ctx: &str, shadow: bool) {
    let program = clc::compile(src).unwrap_or_else(|e| panic!("{}: {}\n{}", ctx, e, src));
    for kernel in &program.kernels {
        let ck = compile_kernel(kernel)
            .unwrap_or_else(|e| panic!("{}: compile_kernel: {}", ctx, e.message));
        let barrier_free = !ck.has_barriers();

        // The sampled run over sampled items (the profiler's exact call
        // shape), then the full run over the whole NDRange.
        for run in [Run::Sampled, Run::Full] {
            let mut mem_ref = Memory::new();
            let args_ref = bind(kernel, n, &mut mem_ref);
            let mut mem_vm = Memory::new();
            let args_vm = bind(kernel, n, &mut mem_vm);
            let mut t_ref = EventTracer::default();
            let mut t_vm = EventTracer::default();

            let ids = sample_ids(nd.global_size());
            let (r_ref, r_vm) = if run == Run::Sampled {
                if !barrier_free {
                    continue; // the profiler never sees barrier kernels
                }
                (
                    reference::run_single_items(kernel, &args_ref, &nd, &ids, &mem_ref, &mut t_ref),
                    vm::run_single_items(&ck, &args_vm, &nd, &ids, &mem_vm, &mut t_vm),
                )
            } else {
                (
                    reference::run_kernel(kernel, &args_ref, &nd, &mut mem_ref, &mut t_ref),
                    vm::run_kernel(&ck, &args_vm, &nd, &mut mem_vm, &mut t_vm),
                )
            };

            match (&r_ref, &r_vm) {
                (Ok(()), Ok(())) => {}
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{} [{:?}]: engines fail differently", ctx, run);
                }
                _ => panic!(
                    "{} [{:?}]: one engine failed: tree-walker {:?}, vm {:?}",
                    ctx, run, r_ref, r_vm
                ),
            }
            assert_eq!(
                t_ref.events, t_vm.events,
                "{} [{:?}]: traced event streams diverge",
                ctx, run
            );
            if run == Run::Sampled && r_vm.is_ok() {
                let items = t_vm.events.iter().filter(|e| **e == Event::BeginItem).count();
                assert_eq!(items, ids.len(), "{}: one item boundary per sampled id", ctx);
            }
            if run == Run::Sampled {
                // A sampled run reads host memory and never writes it.
                let mut fresh = Memory::new();
                let args = bind(kernel, n, &mut fresh);
                for (mem, run_args) in [(&mem_ref, &args_ref), (&mem_vm, &args_vm)] {
                    assert_eq!(
                        snapshot(mem, run_args),
                        snapshot(&fresh, &args),
                        "{}: a sampled run changed a host buffer",
                        ctx
                    );
                    let versions = run_args.iter().filter_map(|a| a.as_buffer()).map(|b| mem.version(b));
                    assert!(versions.into_iter().all(|v| v == 0), "{}: a sampled run bumped a version", ctx);
                }
            }
            assert_eq!(
                snapshot(&mem_ref, &args_ref),
                snapshot(&mem_vm, &args_vm),
                "{} [{:?}]: memory diverges",
                ctx, run
            );
        }

        // Aggregated profiles, through the public profiling entry points of
        // both engines.
        if barrier_free {
            let mut mem_ref = Memory::new();
            let args_ref = bind(kernel, n, &mut mem_ref);
            let mut mem_vm = Memory::new();
            let args_vm = bind(kernel, n, &mut mem_vm);
            let p_ref = profile_reference(kernel, &args_ref, &nd, &mem_ref);
            let p_vm = profile_compiled(&ck, &args_vm, &nd, &mem_vm);
            match (p_ref, p_vm) {
                (Ok(a), Ok(b)) => assert_profiles_equal(&a, &b, ctx),
                (Err(a), Err(b)) => assert_eq!(a, b, "{}: profile errors diverge", ctx),
                (a, b) => panic!("{}: one profile failed: {:?} vs {:?}", ctx, a, b),
            }
            if shadow {
                assert_matches_shadow(&ck, &nd, |mem| bind(kernel, n, mem), ctx);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed kernels: the example set plus PolyBench-style and stress shapes
// ---------------------------------------------------------------------------

#[test]
fn example_kernels_are_equivalent() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/kernels");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/kernels") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("cl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        assert_equivalent(&src, 64, NdRange::d1(64, 16), &path.display().to_string());
        seen += 1;
    }
    assert!(seen > 0, "no example kernels found in {}", dir);
}

#[test]
fn polybench_style_kernels_are_equivalent() {
    let cases: &[(&str, &str)] = &[
        (
            "gesummv",
            "__kernel void gesummv(__global float* A, __global float* B, __global float* x,
                                   __global float* y, float alpha, float beta, int N) {
                int i = get_global_id(0);
                if (i < N) {
                    float t = 0.0f;
                    float s = 0.0f;
                    for (int j = 0; j < N; j++) {
                        t = t + A[(i * N + j) % N] * x[j];
                        s = s + B[(i * N + j) % N] * x[j];
                    }
                    y[i] = alpha * t + beta * s;
                }
            }",
        ),
        (
            "atax",
            "__kernel void atax(__global float* A, __global float* x, __global float* tmp, int N) {
                int i = get_global_id(0);
                float t = 0.0f;
                for (int j = 0; j < N; j++) {
                    t = t + A[(i + j) % N] * x[j];
                }
                tmp[i] = t;
            }",
        ),
        (
            "conv2d",
            "__kernel void conv2d(__global float* in, __global float* out, int N) {
                int i = get_global_id(0);
                int j = get_global_id(1);
                if (i > 0) {
                    if (j > 0) {
                        out[(i * N + j) % N] = 0.2f * in[(i * N + j) % N]
                            + 0.5f * in[((i - 1) * N + j) % N]
                            + 0.3f * in[(i * N + j - 1) % N];
                    }
                }
            }",
        ),
        (
            "reduction_local",
            "__kernel void reduce(__global float* in, __global float* out, int N) {
                __local float scratch[16];
                int l = get_local_id(0);
                scratch[l] = in[get_global_id(0) % N];
                barrier(1);
                if (l == 0) {
                    float s = 0.0f;
                    for (int k = 0; k < 16; k++) {
                        s = s + scratch[k];
                    }
                    out[get_group_id(0)] = s;
                }
            }",
        ),
        (
            "atomics_histogram",
            "__kernel void hist(__global int* data, __global int* bins, int N) {
                int i = get_global_id(0);
                atomic_add(bins, data[i % N] & 3);
                atomic_inc(bins);
                atomic_max(bins, i);
            }",
        ),
        (
            "divergent_work",
            "__kernel void diverge(__global float* a, int N) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = 0; j < i % 37; j++) {
                    s = s + sqrt(fabs(a[(i + j) % N]) + 1.0f);
                }
                a[i % N] = s;
            }",
        ),
        (
            "loop_shapes",
            "__kernel void loops(__global float* a, int N) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = N; j > 0; j -= 3) {
                    s = s + a[j % N];
                }
                for (int j = 0; j <= 20; j += 2) {
                    s = s * 0.5f + (float)j;
                }
                int w = 0;
                while (w < i % 5) {
                    w++;
                    s = s + 1.0f;
                }
                for (int j = 0; j < N; j++) {
                    if (j == 7) { break; }
                    s = s + a[j];
                }
                a[i % N] = s;
            }",
        ),
        (
            "early_return",
            "__kernel void ret(__global float* a, int N) {
                int i = get_global_id(0);
                for (int j = 0; j < N; j++) {
                    if (j == i % 11) { return; }
                    a[i % N] = a[i % N] + 1.0f;
                }
            }",
        ),
        (
            "private_array",
            "__kernel void priv(__global float* a, int N) {
                float window[8];
                int i = get_global_id(0);
                for (int j = 0; j < 8; j++) {
                    window[j] = a[(i + j) % N];
                }
                float s = 0.0f;
                for (int j = 0; j < 8; j++) {
                    s = mad(window[j], 2.0f, s);
                }
                a[i % N] = min(s, 100.0f);
            }",
        ),
    ];
    for (name, src) in cases {
        let nd = if *name == "conv2d" {
            NdRange::d2([16, 16], [4, 4])
        } else {
            NdRange::d1(64, 16)
        };
        assert_equivalent(src, 64, nd, name);
    }
}

#[test]
fn runtime_errors_are_identical() {
    // Out-of-bounds and division-by-zero must produce the same message and
    // span from both engines.
    let cases = &[
        "__kernel void oob(__global float* a, int N) {
            a[get_global_id(0) + N] = 1.0f;
        }",
        "__kernel void divz(__global int* a, int N) {
            a[get_global_id(0) % N] = N / (N - N);
        }",
        "__kernel void oob_load(__global float* a, int N) {
            float x = a[0 - 1];
            a[0] = x;
        }",
    ];
    for (i, src) in cases.iter().enumerate() {
        assert_equivalent(src, 16, NdRange::d1(16, 4), &format!("error case {}", i));
    }
}

/// An extrapolated loop whose trip count overflows `i64` arithmetic: `j`
/// from -8 up to `i64::MAX` is 2^63 + 7 trips, whose count overflows in
/// `i64` (a debug-build panic, zero trips in release). Both engines must
/// extrapolate it and agree event for event and profile for profile.
#[test]
fn loop_trip_count_beyond_i64_extrapolates_in_both_engines() {
    let src = "__kernel void probe(__global float* a, int N) {
        float s = 0.0f;
        for (int j = -8; j < N; j++) { s = s + a[0]; }
        a[0] = s;
    }";
    let kernel = clc::compile(src).unwrap().kernels.remove(0);
    let ck = compile_kernel(&kernel).unwrap();
    let nd = NdRange::d1(1, 1);
    let setup = |mem: &mut Memory| {
        vec![ArgValue::Buffer(mem.alloc_f32(vec![1.0; 4])), ArgValue::Int(i64::MAX)]
    };

    let (mut mem_ref, mut mem_vm) = (Memory::new(), Memory::new());
    let (args_ref, args_vm) = (setup(&mut mem_ref), setup(&mut mem_vm));
    let (mut t_ref, mut t_vm) = (EventTracer::default(), EventTracer::default());
    reference::run_single_items(&kernel, &args_ref, &nd, &[0], &mem_ref, &mut t_ref).unwrap();
    vm::run_single_items(&ck, &args_vm, &nd, &[0], &mem_vm, &mut t_vm).unwrap();
    assert_eq!(t_ref.events, t_vm.events, "traced event streams diverge");

    let (mut mem_ref, mut mem_vm) = (Memory::new(), Memory::new());
    let (args_ref, args_vm) = (setup(&mut mem_ref), setup(&mut mem_vm));
    let p_ref = profile_reference(&kernel, &args_ref, &nd, &mem_ref).unwrap();
    let p_vm = profile_compiled(&ck, &args_vm, &nd, &mem_vm).unwrap();
    assert_profiles_equal(&p_ref, &p_vm, "trip-count probe");
    assert_matches_shadow(&ck, &nd, setup, "trip-count probe");

    // One float add and one load per iteration, over 2^63 + 7 trips.
    let trips = 2f64.powi(63);
    assert_eq!(p_vm.flops_per_item, trips);
    assert_eq!(p_vm.sites.len(), 2, "the load and the store of a[0]");
    let load = p_vm.sites.iter().find(|s| !s.is_store).expect("the a[0] load");
    assert_eq!(load.accesses_per_item, trips);
}

/// A worklist kernel: the atomic's result is the store address. Both
/// engines must agree on events, memory and profile. Within one sampled
/// run the counter advances item by item through the overlay, so the
/// sampled items store to consecutive slots, while host memory keeps its
/// binding. The shadow profiler runs one id per call, so its items share
/// no overlay and would all store to the first slot: this kernel is
/// checked against the tree-walker only.
#[test]
fn atomic_worklist_kernel_is_equivalent() {
    let src = "__kernel void worklist(__global float* in, __global float* out,
                                      __global int* next, int N) {
        int i = get_global_id(0);
        out[atomic_inc(next) % N] = in[i];
    }";
    let nd = NdRange::d1(64, 16);
    check_engines(src, 64, nd, "atomic worklist", false);

    let kernel = clc::compile(src).unwrap().kernels.remove(0);
    let ck = compile_kernel(&kernel).unwrap();
    let mut mem = Memory::new();
    let args = bind(&kernel, 64, &mut mem);
    let next = args[2].as_buffer().unwrap();
    let first = mem.read_i32(next)[0] as i64;
    let mut t = EventTracer::default();
    vm::run_single_items(&ck, &args, &nd, &[0, 1, 32, 63], &mem, &mut t).unwrap();
    let slots: Vec<i64> = t
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Store { idx, .. } => Some(*idx),
            _ => None,
        })
        .collect();
    assert_eq!(slots, (first..first + 4).collect::<Vec<_>>());
    assert_eq!(mem.read_i32(next)[0] as i64, first, "the host counter is untouched");
}

// ---------------------------------------------------------------------------
// Proptest: randomized synthetic kernels
// ---------------------------------------------------------------------------

/// An int expression that is safe as a (mod-n) index seed.
fn small_int_expr() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("i".to_string()),
        (0i64..9).prop_map(|k| k.to_string()),
        (1i64..4, 0i64..8).prop_map(|(a, b)| format!("(i * {} + {})", a, b)),
        Just("(n - i)".to_string()),
        Just("(i ^ 5)".to_string()),
        Just("(i >> 1)".to_string()),
    ]
}

fn float_term() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("alpha".to_string()),
        (0i64..5).prop_map(|k| format!("{}.25f", k)),
        small_int_expr().prop_map(|e| format!("A[(({}) % n + n) % n]", e)),
        small_int_expr().prop_map(|e| format!("fabs(B[(({}) % n + n) % n])", e)),
    ]
}

/// One random statement operating on the accumulators declared by the
/// template (`acc` float, `t` int).
fn statement() -> impl Strategy<Value = String> {
    prop_oneof![
        // Counted ascending loop; trip counts straddle the extrapolation
        // threshold (samples = 4, so > 8 trips extrapolates).
        (0i64..30, 1i64..4, float_term()).prop_map(|(trips, step, f)| format!(
            "for (int j = 0; j < {}; j += {}) {{ acc = acc + {} * 0.125f; }}",
            trips, step, f
        )),
        // Descending loop.
        (0i64..25, 1i64..3).prop_map(|(hi, step)| format!(
            "for (int j = {}; j > 0; j -= {}) {{ acc = acc + A[j % n]; }}",
            hi, step
        )),
        // Loop with a data-dependent break inside an extrapolatable shape.
        (5i64..30, 0i64..35).prop_map(|(trips, cut)| format!(
            "for (int j = 0; j < {}; j++) {{ if (j == {}) {{ break; }} t = t + 1; }}",
            trips, cut
        )),
        // Nested loops (nested scale regions when both extrapolate).
        (3i64..15, 3i64..15).prop_map(|(a, b)| format!(
            "for (int j = 0; j < {}; j++) {{ for (int k = 0; k < {}; k++) {{ \
             acc = acc + A[(i + j + k) % n]; }} }}",
            a, b
        )),
        // Divergent branch.
        (1i64..8, float_term(), float_term()).prop_map(|(m, a, b)| format!(
            "if (i % {} == 0) {{ acc = acc + {}; }} else {{ acc = acc - {}; }}",
            m, a, b
        )),
        // Integer work with compound assignment.
        (1i64..16).prop_map(|k| format!("t += (i & {}) + (t >> 2); t++;", k)),
        // Math builtins.
        float_term().prop_map(|f| format!("acc = acc + sqrt(fabs({}) + 1.0f);", f)),
        float_term().prop_map(|f| format!("acc = mad({}, 0.5f, acc);", f)),
        // Stores through a second buffer.
        small_int_expr().prop_map(|e| format!("B[(({}) % n + n) % n] = acc;", e)),
        small_int_expr().prop_map(|e| format!("B[(({}) % n + n) % n] += 0.5f;", e)),
        // Atomics on the int buffer (an overlay in the sampled run).
        (0i64..7).prop_map(|k| format!("t = t + atomic_add(C, {});", k)),
        Just("atomic_inc(C);".to_string()),
        // min/max/abs on mixed operands.
        Just("t = max(t, i); acc = fmin(acc, 64.0f);".to_string()),
        // Early return for a few lanes.
        (0i64..70).prop_map(|k| format!("if (i == {}) {{ return; }}", k)),
        // While loop with data-dependent trip count.
        (1i64..7).prop_map(|m| format!(
            "int w{m} = 0; while (w{m} < i % {m}) {{ w{m} = w{m} + 1; acc = acc + 1.0f; }}",
            m = m
        )),
    ]
}

fn kernel_source(stmts: &[String]) -> String {
    format!(
        "__kernel void fuzz(__global float* A, __global float* B, __global int* C,
                            int n, float alpha) {{
            int i = get_global_id(0);
            float acc = 0.0f;
            int t = 0;
            {}
            B[i % n] = acc + (float)t;
        }}",
        stmts.join("\n            ")
    )
}

proptest! {
    // The acceptance bar is a >= 128-case differential sweep; run a bit
    // above it so local shrinking still leaves margin.
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn random_kernels_are_equivalent(
        stmts in proptest::collection::vec(statement(), 1..6),
        geom in prop_oneof![
            Just((16usize, 4usize)),
            Just((32, 8)),
            Just((64, 16)),
            Just((48, 8)),
        ],
    ) {
        let src = kernel_source(&stmts);
        let (g, l) = geom;
        assert_equivalent(&src, g, NdRange::d1(g, l), "fuzzed kernel");
    }
}
