//! Builtin-table conformance: every entry of `clc::builtins::BUILTINS`,
//! called at its arity in a one-line kernel, passes sema, lowers to
//! bytecode, gives the same value and the same arith events on both
//! engines, and gets a Table 1 feature count that agrees with those
//! events (one counted operation per arith event, of the same class). A
//! builtin added to the table but not to one of its consumers fails here.

use clc::builtins::{Builtin, BuiltinKind, BUILTINS};
use dopia::core::features::extract_code_features;
use sim::interp::{compile_kernel, reference, vm, Tracer};
use sim::{ArgValue, BufferId, Memory, NdRange};

/// Records `(is_float, count)` for every arith event.
#[derive(Default)]
struct Arith(Vec<(bool, u64)>);

impl Tracer for Arith {
    fn load(&mut self, _: u32, _: BufferId, _: i64, _: usize) {}
    fn store(&mut self, _: u32, _: BufferId, _: i64, _: usize) {}
    fn arith(&mut self, is_float: bool, count: f64) {
        self.0.push((is_float, count.to_bits()));
    }
}

/// The argument lists a call to `f` is checked with: a dimension for a
/// query, a fence flag for `barrier`, the `int` buffer `c` and int
/// operands for an atomic, and both int and float operands for the
/// scalar builtins (sema takes either for math and min/max/abs).
fn arg_lists(f: Builtin) -> Vec<Vec<&'static str>> {
    let ints = ["7", "3", "7"];
    let floats = ["2.5f", "0.75f", "4.0f"];
    let n = f.arity();
    match f.kind() {
        BuiltinKind::WorkItemQuery => vec![vec!["0"; n]],
        BuiltinKind::Barrier => vec![vec!["CLK_LOCAL_MEM_FENCE"]],
        BuiltinKind::Atomic => vec![["c"].into_iter().chain(ints).take(n).collect()],
        BuiltinKind::Math | BuiltinKind::Common => vec![ints[..n].to_vec(), floats[..n].to_vec()],
    }
}

/// One work-item at global offset 3, so the id queries read non-zero ids.
fn nd() -> NdRange {
    NdRange::d1(1, 1).with_offset([3, 0, 0])
}

fn bind(mem: &mut Memory) -> Vec<ArgValue> {
    vec![
        ArgValue::Buffer(mem.alloc_f32(vec![0.0])),
        ArgValue::Buffer(mem.alloc_i32(vec![7])),
    ]
}

fn contents(mem: &Memory, args: &[ArgValue]) -> Vec<u64> {
    args.iter()
        .map(|a| mem.get(a.as_buffer().unwrap()).load_f64(0).to_bits())
        .collect()
}

#[test]
fn every_builtin_agrees_across_sema_lowering_engines_and_features() {
    for &(name, f) in BUILTINS {
        for args in arg_lists(f) {
            let call = format!("{}({})", name, args.join(", "));
            let stmt = match f {
                Builtin::Barrier => format!("{};", call),
                _ => format!("out[0] = {};", call),
            };
            let src = format!(
                "__kernel void k(__global float* out, __global int* c) {{ {} }}",
                stmt
            );
            let ctx = &src;
            let kernel = clc::compile(&src)
                .unwrap_or_else(|e| panic!("{}: sema: {}", ctx, e))
                .kernels
                .remove(0);
            let ck = compile_kernel(&kernel).unwrap_or_else(|e| panic!("{}: lowering: {}", ctx, e));

            let (mut mem_ref, mut mem_vm) = (Memory::new(), Memory::new());
            let (args_ref, args_vm) = (bind(&mut mem_ref), bind(&mut mem_vm));
            let (mut t_ref, mut t_vm) = (Arith::default(), Arith::default());
            reference::run_kernel(&kernel, &args_ref, &nd(), &mut mem_ref, &mut t_ref)
                .unwrap_or_else(|e| panic!("{}: reference: {}", ctx, e));
            vm::run_kernel(&ck, &args_vm, &nd(), &mut mem_vm, &mut t_vm)
                .unwrap_or_else(|e| panic!("{}: vm: {}", ctx, e));
            assert_eq!(
                contents(&mem_ref, &args_ref),
                contents(&mem_vm, &args_vm),
                "{}: values",
                ctx
            );
            assert_eq!(t_ref.0, t_vm.0, "{}: arith events", ctx);
            if f != Builtin::Barrier {
                let (mut s_ref, mut s_vm) = (Arith::default(), Arith::default());
                reference::run_single_items(&kernel, &args_ref, &nd(), &[0], &mem_ref, &mut s_ref)
                    .unwrap_or_else(|e| panic!("{}: sampled reference: {}", ctx, e));
                vm::run_single_items(&ck, &args_vm, &nd(), &[0], &mem_vm, &mut s_vm)
                    .unwrap_or_else(|e| panic!("{}: sampled vm: {}", ctx, e));
                assert_eq!(s_ref.0, t_ref.0, "{}: sampled arith events", ctx);
                assert_eq!(s_vm.0, t_vm.0, "{}: sampled vm arith events", ctx);
            }

            let features = extract_code_features(&kernel);
            let events = |float: bool| t_vm.0.iter().filter(|e| e.0 == float).count() as u32;
            assert_eq!(
                features.arith_float,
                events(true),
                "{}: float ops vs events",
                ctx
            );
            assert_eq!(
                features.arith_int,
                events(false),
                "{}: int ops vs events",
                ctx
            );
        }
    }
}

/// Each builtin's flop weight, as the profiler charges it.
#[test]
fn builtin_arith_weights_are_as_documented() {
    let weight = |src_call: &str| {
        let src = format!(
            "__kernel void k(__global float* out) {{ out[0] = {}; }}",
            src_call
        );
        let kernel = clc::compile(&src).unwrap().kernels.remove(0);
        let ck = compile_kernel(&kernel).unwrap();
        let mut mem = Memory::new();
        let args = [ArgValue::Buffer(mem.alloc_f32(vec![0.0]))];
        let mut t = Arith::default();
        vm::run_kernel(&ck, &args, &nd(), &mut mem, &mut t).unwrap();
        t.0.iter()
            .map(|&(_, bits)| f64::from_bits(bits))
            .sum::<f64>()
    };
    assert_eq!(weight("sqrt(2.0f)"), 4.0);
    assert_eq!(weight("pow(2.0f, 3.0f)"), 4.0);
    assert_eq!(weight("fmin(2.0f, 3.0f)"), 1.0);
    assert_eq!(weight("fma(2.0f, 3.0f, 1.0f)"), 2.0);
    assert_eq!(weight("max(2, 3)"), 1.0);
    assert_eq!(weight("abs(2.0f)"), 1.0);
    assert_eq!(weight("get_global_id(0)"), 0.0);
}
