//! The OpenCL 1.2 builtin functions the subset supports: the one map from
//! a builtin's spelling to its operation.
//!
//! Every consumer resolves a call's name once with [`lookup`] and matches
//! on the typed [`Builtin`]: sema checks signatures against it, the
//! feature extractor counts Table 1 arithmetic by it, the malleable and
//! CPU code generators find work-item queries with it, and both of the
//! simulator's engines evaluate it. Code that only *emits* a call may
//! spell the name.
//!
//! Dopia's rewrites (Section 6 of the paper) lean on the work-item query
//! functions and on *local* atomics — the paper explicitly restricts itself
//! to OpenCL 1.2 local atomics because integrated parts (notably Intel's) do
//! not support CPU/GPU-coherent global atomics.

use crate::ast::{Scalar, Type};

/// A supported builtin function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `get_global_id` & friends: `(uint dim) -> size_t`.
    Query(Query),
    /// `get_work_dim() -> uint`.
    WorkDim,
    /// `barrier(cl_mem_fence_flags)`.
    Barrier,
    /// OpenCL 1.2 `atomic_*` on an `int` pointer; returns the old value.
    Atomic(Atomic),
    /// One-operand float math.
    Math1(Math1),
    /// Two-operand float math.
    Math2(Math2),
    /// `mad(a, b, c)` and `fma(a, b, c)`: `a * b + c` in float.
    Mad,
    /// Integer/float `min`, `max` and `abs`, typed by their operands.
    Min,
    Max,
    Abs,
}

/// The work-item queries that take a dimension index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    GlobalId,
    LocalId,
    GroupId,
    GlobalSize,
    LocalSize,
    NumGroups,
    GlobalOffset,
}

/// The atomic read-modify-write operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atomic {
    Inc,
    Dec,
    Add,
    Sub,
    Xchg,
    Min,
    Max,
    Cmpxchg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Math1 {
    Sqrt,
    Rsqrt,
    Fabs,
    Exp,
    Log,
    Sin,
    Cos,
    Floor,
    Ceil,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Math2 {
    Pow,
    Fmin,
    Fmax,
}

/// How sema checks a builtin's operands and types its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinKind {
    /// Work-item queries: integer dimension operand, if any.
    WorkItemQuery,
    Barrier,
    /// An integer pointer, then integer operands.
    Atomic,
    /// Scalar operands, float result.
    Math,
    /// Scalar operands, result promoted from the operands.
    Common,
}

/// Every supported builtin by its spelling.
pub const BUILTINS: &[(&str, Builtin)] = &[
    ("get_global_id", Builtin::Query(Query::GlobalId)),
    ("get_local_id", Builtin::Query(Query::LocalId)),
    ("get_group_id", Builtin::Query(Query::GroupId)),
    ("get_global_size", Builtin::Query(Query::GlobalSize)),
    ("get_local_size", Builtin::Query(Query::LocalSize)),
    ("get_num_groups", Builtin::Query(Query::NumGroups)),
    ("get_global_offset", Builtin::Query(Query::GlobalOffset)),
    ("get_work_dim", Builtin::WorkDim),
    ("barrier", Builtin::Barrier),
    ("atomic_inc", Builtin::Atomic(Atomic::Inc)),
    ("atomic_dec", Builtin::Atomic(Atomic::Dec)),
    ("atomic_add", Builtin::Atomic(Atomic::Add)),
    ("atomic_sub", Builtin::Atomic(Atomic::Sub)),
    ("atomic_xchg", Builtin::Atomic(Atomic::Xchg)),
    ("atomic_min", Builtin::Atomic(Atomic::Min)),
    ("atomic_max", Builtin::Atomic(Atomic::Max)),
    ("atomic_cmpxchg", Builtin::Atomic(Atomic::Cmpxchg)),
    ("sqrt", Builtin::Math1(Math1::Sqrt)),
    ("rsqrt", Builtin::Math1(Math1::Rsqrt)),
    ("fabs", Builtin::Math1(Math1::Fabs)),
    ("exp", Builtin::Math1(Math1::Exp)),
    ("log", Builtin::Math1(Math1::Log)),
    ("sin", Builtin::Math1(Math1::Sin)),
    ("cos", Builtin::Math1(Math1::Cos)),
    ("floor", Builtin::Math1(Math1::Floor)),
    ("ceil", Builtin::Math1(Math1::Ceil)),
    ("pow", Builtin::Math2(Math2::Pow)),
    ("fmin", Builtin::Math2(Math2::Fmin)),
    ("fmax", Builtin::Math2(Math2::Fmax)),
    ("mad", Builtin::Mad),
    ("fma", Builtin::Mad),
    ("min", Builtin::Min),
    ("max", Builtin::Max),
    ("abs", Builtin::Abs),
];

/// Resolve a call's name to its builtin.
pub fn lookup(name: &str) -> Option<Builtin> {
    BUILTINS.iter().find(|(n, _)| *n == name).map(|&(_, b)| b)
}

impl Builtin {
    pub fn kind(self) -> BuiltinKind {
        match self {
            Builtin::Query(_) | Builtin::WorkDim => BuiltinKind::WorkItemQuery,
            Builtin::Barrier => BuiltinKind::Barrier,
            Builtin::Atomic(_) => BuiltinKind::Atomic,
            Builtin::Math1(_) | Builtin::Math2(_) | Builtin::Mad => BuiltinKind::Math,
            Builtin::Min | Builtin::Max | Builtin::Abs => BuiltinKind::Common,
        }
    }

    /// Number of arguments a call takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::WorkDim => 0,
            Builtin::Atomic(Atomic::Inc | Atomic::Dec) => 1,
            Builtin::Atomic(Atomic::Cmpxchg) | Builtin::Mad => 3,
            Builtin::Atomic(_) | Builtin::Math2(_) | Builtin::Min | Builtin::Max => 2,
            Builtin::Query(_) | Builtin::Barrier | Builtin::Math1(_) | Builtin::Abs => 1,
        }
    }

    /// Result type; for the polymorphic math/common builtins this is the
    /// default, and [`Builtin::result_for`] gives the promoted one.
    pub fn result(self) -> Type {
        match self {
            Builtin::Query(_) => Type::LONG,
            Builtin::WorkDim => Type::UINT,
            Builtin::Barrier => Type::Void,
            Builtin::Atomic(_) | Builtin::Min | Builtin::Max | Builtin::Abs => Type::INT,
            Builtin::Math1(_) | Builtin::Math2(_) | Builtin::Mad => Type::FLOAT,
        }
    }

    /// The scalar result type of this builtin applied to the given
    /// argument scalars.
    pub fn result_for(self, args: &[Scalar]) -> Scalar {
        match self.kind() {
            BuiltinKind::Math => Scalar::Float,
            BuiltinKind::Common => args
                .iter()
                .copied()
                .reduce(Scalar::promote)
                .unwrap_or(Scalar::Int),
            _ => self.result().as_scalar().unwrap_or(Scalar::Long),
        }
    }
}

/// Identifier constants that behave as literals (memory-fence flags).
/// Their numeric values follow the OpenCL 1.2 headers.
pub fn named_constant(name: &str) -> Option<i64> {
    match name {
        "CLK_LOCAL_MEM_FENCE" => Some(1),
        "CLK_GLOBAL_MEM_FENCE" => Some(2),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_known_and_unknown() {
        assert_eq!(
            lookup("get_global_id"),
            Some(Builtin::Query(Query::GlobalId))
        );
        assert_eq!(lookup("atomic_inc"), Some(Builtin::Atomic(Atomic::Inc)));
        assert_eq!(lookup("fma"), Some(Builtin::Mad));
        assert!(lookup("no_such_fn").is_none());
    }

    #[test]
    fn fence_flags_are_named_constants() {
        assert_eq!(named_constant("CLK_LOCAL_MEM_FENCE"), Some(1));
        assert_eq!(named_constant("CLK_GLOBAL_MEM_FENCE"), Some(2));
        assert_eq!(named_constant("NOT_A_FLAG"), None);
    }

    #[test]
    fn common_builtins_promote() {
        let b = lookup("max").unwrap();
        assert_eq!(b.result_for(&[Scalar::Int, Scalar::Float]), Scalar::Float);
        assert_eq!(b.result_for(&[Scalar::Int, Scalar::Long]), Scalar::Long);
    }

    #[test]
    fn all_builtin_names_unique() {
        let mut names: Vec<_> = BUILTINS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
