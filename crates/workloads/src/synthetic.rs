//! The parameterizable synthetic workload of paper Table 2.
//!
//! The basic operation adds `alpha` matrices of dimension `beta`:
//!
//! ```text
//! OUT[idx] = c1*..*c_gamma * M0[...] + c1*..*c_gamma * M1[...] + ...
//! ```
//!
//! where `delta` of the term matrices use transposed (strided) accesses,
//! `epsilon` use randomized (indirect) accesses, and `theta` use constant
//! accesses. `dim` selects how many of the `beta` dimensions are covered by
//! work-item ids (the rest become kernel loops, exactly as in paper
//! Figs. 5/6), and `dtype` chooses float or integer data.
//!
//! [`training_grid`] enumerates the full Table 4 grid: the 17 named access
//! patterns x 2 data types x 2 work-item dimensions x 3 computational
//! intensities (gamma = 0, 2, 4) x 3 matrix sizes (16384, 32768, 65536
//! elements) x 2 work-group sizes (64, 256) = 1,224 workloads.
//!
//! Deviations from the paper, recorded in DESIGN.md: the indirection array
//! of `R` terms is indexed by the flattened element index (length = matrix
//! size) rather than by the innermost coordinate, so randomized accesses
//! cover the whole matrix; and 2-D launches use `(wg, 1)` work-groups
//! (the paper does not specify 2-D shapes for the synthetic workload).

use crate::data;
use crate::BuiltKernel;
use sim::{ArgValue, Memory, NdRange};
use std::fmt::Write;

/// Element type of the matrices (paper Table 2 `dtype`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    F32,
    I32,
}

impl DType {
    fn cl_type(&self) -> &'static str {
        match self {
            DType::F32 => "float",
            DType::I32 => "int",
        }
    }
}

/// The code-shape part of a synthetic workload (fixed per named pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticPattern {
    /// Matrices to add.
    pub alpha: usize,
    /// Matrix dimensionality (3 or 4 in the paper's grid).
    pub beta: usize,
    /// Terms with transposed access.
    pub delta: usize,
    /// Terms with randomized (indirect) access.
    pub epsilon: usize,
    /// Terms with constant access.
    pub theta: usize,
}

impl SyntheticPattern {
    /// Number of additive terms: modifiers claim their own matrices; any
    /// remaining `alpha` slots are plain accesses.
    pub fn term_kinds(&self) -> Vec<TermKind> {
        let modified = self.delta + self.epsilon + self.theta;
        let normal = self.alpha.saturating_sub(modified);
        let mut kinds = Vec::with_capacity(normal + modified);
        kinds.extend(std::iter::repeat_n(TermKind::Normal, normal));
        kinds.extend(std::iter::repeat_n(TermKind::Transposed, self.delta));
        kinds.extend(std::iter::repeat_n(TermKind::Random, self.epsilon));
        kinds.extend(std::iter::repeat_n(TermKind::Constant, self.theta));
        kinds
    }

    /// Canonical name, e.g. `2mat3d1C1R1T` (gamma excluded — it belongs to
    /// the configuration, not the pattern).
    pub fn name(&self) -> String {
        // Table 4 orders modifiers C, R, T (e.g. 1mat3d1C1R, 2mat3d1C1R1T).
        let mut s = format!("{}mat{}d", self.alpha, self.beta);
        if self.theta > 0 {
            write!(s, "{}C", self.theta).unwrap();
        }
        if self.epsilon > 0 {
            write!(s, "{}R", self.epsilon).unwrap();
        }
        if self.delta > 0 {
            write!(s, "{}T", self.delta).unwrap();
        }
        s
    }
}

/// Access flavour of one additive term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermKind {
    Normal,
    Transposed,
    Random,
    Constant,
}

/// Parse a pattern name like `2mat3d1C1R1T`.
pub fn parse_pattern(name: &str) -> Option<SyntheticPattern> {
    let mat = name.find("mat")?;
    let alpha: usize = name[..mat].parse().ok()?;
    let rest = &name[mat + 3..];
    let d = rest.find('d')?;
    let beta: usize = rest[..d].parse().ok()?;
    let mut delta = 0;
    let mut epsilon = 0;
    let mut theta = 0;
    let mut tail = &rest[d + 1..];
    while !tail.is_empty() {
        let split = tail.find(|c: char| !c.is_ascii_digit())?;
        let count: usize = tail[..split].parse().ok()?;
        match &tail[split..split + 1] {
            "T" => delta = count,
            "R" => epsilon = count,
            "C" => theta = count,
            _ => return None,
        }
        tail = &tail[split + 1..];
    }
    Some(SyntheticPattern { alpha, beta, delta, epsilon, theta })
}

/// The 17 named access patterns of paper Table 4.
pub const PATTERN_NAMES: [&str; 17] = [
    "1mat3d", "1mat3d1R", "1mat3d1T", "1mat3d1C", "1mat3d1C1R", "1mat3d1C1T", "2mat3d",
    "2mat3d1R", "2mat3d1T", "2mat3d1R1T", "2mat3d1C", "2mat3d1C1R", "2mat3d1C1T",
    "2mat3d1C1R1T", "1mat4d", "1mat4d1R", "1mat4d1T",
];

/// One fully-specified synthetic workload (pattern + configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticParams {
    pub pattern: SyntheticPattern,
    /// Scalar multiplications per term (computational intensity).
    pub gamma: usize,
    /// Work-item dimensionality (1 or 2).
    pub dim: usize,
    pub dtype: DType,
    /// Total matrix elements.
    pub size: usize,
    /// Work-items per work-group.
    pub wg: usize,
}

impl SyntheticParams {
    /// Full display name, e.g. `2mat3d2c1T/f32/dim1/16384/wg256`.
    pub fn name(&self) -> String {
        let mut s = format!("{}mat{}d", self.pattern.alpha, self.pattern.beta);
        if self.gamma > 0 {
            write!(s, "{}c", self.gamma).unwrap();
        }
        if self.pattern.theta > 0 {
            write!(s, "{}C", self.pattern.theta).unwrap();
        }
        if self.pattern.epsilon > 0 {
            write!(s, "{}R", self.pattern.epsilon).unwrap();
        }
        if self.pattern.delta > 0 {
            write!(s, "{}T", self.pattern.delta).unwrap();
        }
        let ty = match self.dtype {
            DType::F32 => "f32",
            DType::I32 => "i32",
        };
        write!(s, "/{}/dim{}/{}/wg{}", ty, self.dim, self.size, self.wg).unwrap();
        s
    }

    /// Matrix shape: `size` is the leading dimension (= the number of
    /// work-items, matching the paper's `global_size` feature); the
    /// trailing dimensions are small constants iterated by kernel loops.
    /// Total elements = `size x 64` (4–16 M elements, 16–64 MB per float
    /// matrix — large enough that no CPU cache holds a matrix, like the
    /// paper's 1–2 s workloads).
    pub fn shape(&self) -> Vec<usize> {
        let tail: &[usize] = match self.pattern.beta {
            3 => &[8, 8],
            4 => &[4, 4, 4],
            other => panic!("unsupported beta {}", other),
        };
        let mut shape = vec![self.size];
        shape.extend_from_slice(tail);
        shape
    }

    /// Total elements per matrix.
    pub fn total_elems(&self) -> usize {
        self.shape().iter().product()
    }

    /// Generate the OpenCL kernel source.
    pub fn source(&self) -> String {
        let p = &self.pattern;
        let kinds = p.term_kinds();
        let ty = self.dtype.cl_type();
        let beta = p.beta;
        assert!(self.dim == 1 || self.dim == 2, "dim must be 1 or 2");

        let mut src = String::new();
        // Signature.
        write!(src, "__kernel void synth(__global {ty}* OUT").unwrap();
        for (t, _) in kinds.iter().enumerate() {
            write!(src, ", __global {ty}* M{t}").unwrap();
        }
        if p.epsilon > 0 {
            src.push_str(", __global int* IDX");
        }
        for d in 0..beta {
            write!(src, ", int N{d}").unwrap();
        }
        for g in 0..self.gamma {
            write!(src, ", {ty} c{}", g + 1).unwrap();
        }
        if p.theta > 0 {
            src.push_str(", int cc");
        }
        src.push_str(") {\n");

        // Ids and guard.
        for d in 0..self.dim {
            writeln!(src, "    int i{d} = get_global_id({d});").unwrap();
        }
        let guard: Vec<String> = (0..self.dim).map(|d| format!("(i{d} < N{d})")).collect();
        writeln!(src, "    if ({}) {{", guard.join(" && ")).unwrap();

        // Loops over the remaining dimensions.
        for d in self.dim..beta {
            writeln!(
                src,
                "{}for (int i{d} = 0; i{d} < N{d}; i{d}++) {{",
                "    ".repeat(d - self.dim + 2)
            )
            .unwrap();
        }
        let body_indent = "    ".repeat(beta - self.dim + 2);

        // Flattened index (row-major, i0 slowest).
        let flat = |coords: &[String]| -> String {
            let mut expr = String::new();
            for (d, c) in coords.iter().enumerate() {
                if d > 0 {
                    expr.push_str(" + ");
                }
                let stride: Vec<String> =
                    ((d + 1)..beta).map(|k| format!("N{k}")).collect();
                if stride.is_empty() {
                    expr.push_str(c);
                } else {
                    write!(expr, "{} * ({})", c, stride.join(" * ")).unwrap();
                }
            }
            expr
        };
        let coords: Vec<String> = (0..beta).map(|d| format!("i{d}")).collect();
        writeln!(src, "{body_indent}int idx = {};", flat(&coords)).unwrap();
        if p.delta > 0 {
            // Transposed: swap the last two coordinates (strided access).
            let mut tcoords = coords.clone();
            tcoords.swap(beta - 1, beta - 2);
            writeln!(src, "{body_indent}int idxT = {};", flat(&tcoords)).unwrap();
        }

        // The sum of terms.
        let coeff: String = (1..=self.gamma).map(|g| format!("c{g} * ")).collect();
        let terms: Vec<String> = kinds
            .iter()
            .enumerate()
            .map(|(t, kind)| {
                let access = match kind {
                    TermKind::Normal => format!("M{t}[idx]"),
                    TermKind::Transposed => format!("M{t}[idxT]"),
                    TermKind::Random => format!("M{t}[IDX[idx]]"),
                    TermKind::Constant => format!("M{t}[cc]"),
                };
                format!("{coeff}{access}")
            })
            .collect();
        writeln!(src, "{body_indent}OUT[idx] = {};", terms.join(" + ")).unwrap();

        // Close loops, guard, kernel.
        for d in (self.dim..beta).rev() {
            writeln!(src, "{}}}", "    ".repeat(d - self.dim + 2)).unwrap();
        }
        src.push_str("    }\n}\n");
        src
    }

    /// Launch geometry: ids cover the first `dim` dimensions.
    pub fn nd_range(&self) -> NdRange {
        let shape = self.shape();
        match self.dim {
            1 => NdRange::d1(shape[0], self.wg),
            2 => NdRange::d2([shape[0], shape[1]], [self.wg, 1]),
            other => panic!("unsupported dim {}", other),
        }
    }

    /// Allocate inputs and bundle the launch. Float matrices are virtual
    /// (storage-less) so the full grid fits in memory; integer matrices and
    /// the indirection array are real.
    pub fn build(&self, mem: &mut Memory, seed: u64) -> BuiltKernel {
        let p = &self.pattern;
        let kinds = p.term_kinds();
        let shape = self.shape();
        let mut args: Vec<ArgValue> = Vec::new();

        let total = self.total_elems();
        let alloc_matrix = |mem: &mut Memory, salt: u64| match self.dtype {
            DType::F32 => mem.alloc_virtual_f32(total, seed ^ salt),
            DType::I32 => mem.alloc_i32(data::random_i32(total, 1000, seed ^ salt)),
        };

        args.push(ArgValue::Buffer(alloc_matrix(mem, 0xC0)));
        for (t, _) in kinds.iter().enumerate() {
            args.push(ArgValue::Buffer(alloc_matrix(mem, t as u64 + 1)));
        }
        if p.epsilon > 0 {
            let idx = data::random_i32(total, total as i32, seed ^ 0x1D);
            args.push(ArgValue::Buffer(mem.alloc_i32(idx)));
        }
        for &n in &shape {
            args.push(ArgValue::Int(n as i64));
        }
        for g in 0..self.gamma {
            match self.dtype {
                DType::F32 => args.push(ArgValue::Float(1.0 + g as f32 * 0.5)),
                DType::I32 => args.push(ArgValue::Int(g as i64 + 1)),
            }
        }
        if p.theta > 0 {
            args.push(ArgValue::Int(3));
        }

        BuiltKernel::from_source(self.name(), &self.source(), args, self.nd_range())
    }
}

/// The full Table 4 training grid: 17 patterns x 72 configurations = 1,224
/// workloads, in a stable order.
pub fn training_grid() -> Vec<SyntheticParams> {
    let mut grid = Vec::with_capacity(1224);
    for name in PATTERN_NAMES {
        let pattern = parse_pattern(name).expect("pattern table is valid");
        for dtype in [DType::F32, DType::I32] {
            for dim in [1usize, 2] {
                for gamma in [0usize, 2, 4] {
                    for size in [16384usize, 32768, 65536] {
                        for wg in [64usize, 256] {
                            grid.push(SyntheticParams {
                                pattern,
                                gamma,
                                dim,
                                dtype,
                                size,
                                wg,
                            });
                        }
                    }
                }
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::interp::run_functional;

    #[test]
    fn pattern_parsing_round_trips() {
        for name in PATTERN_NAMES {
            let p = parse_pattern(name).unwrap_or_else(|| panic!("parse {}", name));
            assert_eq!(p.name(), name, "round trip {}", name);
        }
        assert!(parse_pattern("notapattern").is_none());
        assert!(parse_pattern("2mat").is_none());
    }

    #[test]
    fn grid_is_exactly_1224() {
        let grid = training_grid();
        assert_eq!(grid.len(), 1224);
        // All names unique.
        let mut names: Vec<String> = grid.iter().map(|g| g.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 1224);
    }

    #[test]
    fn every_grid_kernel_compiles_and_validates() {
        for params in training_grid() {
            let src = params.source();
            clc::compile(&src)
                .unwrap_or_else(|e| panic!("{}: {}\n{}", params.name(), e, src));
            params.nd_range().validate().unwrap();
        }
    }

    #[test]
    fn term_assignment_matches_paper_examples() {
        // "2mat2d2c1T": one normal + one transposed term.
        let p = SyntheticPattern { alpha: 2, beta: 3, delta: 1, epsilon: 0, theta: 0 };
        assert_eq!(p.term_kinds(), vec![TermKind::Normal, TermKind::Transposed]);
        // Modifiers exceeding alpha append terms.
        let p = SyntheticPattern { alpha: 2, beta: 3, delta: 1, epsilon: 1, theta: 1 };
        assert_eq!(
            p.term_kinds(),
            vec![TermKind::Transposed, TermKind::Random, TermKind::Constant]
        );
    }

    #[test]
    fn generated_source_shape_matches_figure5() {
        let params = SyntheticParams {
            pattern: parse_pattern("2mat3d").unwrap(),
            gamma: 0,
            dim: 1,
            dtype: DType::F32,
            size: 16384,
            wg: 256,
        };
        let src = params.source();
        assert!(src.contains("int i0 = get_global_id(0);"), "{}", src);
        assert!(src.contains("for (int i1 = 0; i1 < N1; i1++)"), "{}", src);
        assert!(src.contains("OUT[idx] = M0[idx] + M1[idx];"), "{}", src);
        // dim=2 moves i1 into the id space.
        let params2 = SyntheticParams { dim: 2, ..params };
        let src2 = params2.source();
        assert!(src2.contains("int i1 = get_global_id(1);"), "{}", src2);
        assert!(src2.contains("(i0 < N0) && (i1 < N1)"), "{}", src2);
    }

    #[test]
    fn functional_execution_of_small_instance() {
        // A tiny real-buffer instance of 2mat3d2c: verify OUT = c1*c2*(A+B).
        let params = SyntheticParams {
            pattern: parse_pattern("2mat3d").unwrap(),
            gamma: 2,
            dim: 1,
            dtype: DType::F32,
            size: 2048,
            wg: 64,
        };
        let mut mem = Memory::new();
        // Build real buffers by hand (the default build uses virtual ones).
        let total = params.total_elems();
        let out = mem.alloc_f32(vec![0.0; total]);
        let m0 = mem.alloc_f32(vec![2.0; total]);
        let m1 = mem.alloc_f32(vec![3.0; total]);
        let shape = params.shape();
        let mut args = vec![ArgValue::Buffer(out), ArgValue::Buffer(m0), ArgValue::Buffer(m1)];
        for &n in &shape {
            args.push(ArgValue::Int(n as i64));
        }
        args.push(ArgValue::Float(2.0));
        args.push(ArgValue::Float(0.5));
        let built = BuiltKernel::from_source(params.name(), &params.source(), args, params.nd_range());
        run_functional(&built.kernel, &built.args, &built.nd, &mut mem).unwrap();
        // c1*c2*A + c1*c2*B = 1.0*(2+3) = 5.
        assert!(mem.read_f32(out).iter().all(|&v| v == 5.0));
    }

    #[test]
    fn random_pattern_has_indirection_argument() {
        let params = SyntheticParams {
            pattern: parse_pattern("1mat3d1R").unwrap(),
            gamma: 0,
            dim: 1,
            dtype: DType::F32,
            size: 1024,
            wg: 64,
        };
        assert!(params.source().contains("__global int* IDX"));
        assert!(params.source().contains("M0[IDX[idx]]"));
        let mut mem = Memory::new();
        let built = params.build(&mut mem, 5);
        assert_eq!(built.args.len(), built.kernel.params.len());
    }

    #[test]
    fn int_dtype_generates_int_kernel() {
        let params = SyntheticParams {
            pattern: parse_pattern("1mat3d").unwrap(),
            gamma: 2,
            dim: 1,
            dtype: DType::I32,
            size: 1024,
            wg: 64,
        };
        let src = params.source();
        assert!(src.contains("__global int* OUT"));
        assert!(src.contains("int c1"));
        let mut mem = Memory::new();
        let built = params.build(&mut mem, 1);
        assert_eq!(built.args.len(), built.kernel.params.len());
    }
}
