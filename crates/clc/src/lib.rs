//! `clc` — a self-contained compiler frontend for the OpenCL-C subset used by
//! Dopia.
//!
//! The crate provides everything Dopia's compile-time pipeline needs:
//!
//! * [`lexer`] — tokenizer with source positions,
//! * [`parser`] — recursive-descent parser producing a typed-on-demand AST,
//! * [`ast`] — the abstract syntax tree (kernels, statements, expressions),
//! * [`visit`] — source-order child iterators over the tree, shared by
//!   every structural pass,
//! * [`sema`] — semantic analysis: scopes, type checking, builtin signatures,
//! * [`printer`] — AST → OpenCL-C source (used to inspect malleable rewrites),
//! * [`builtins`] — the OpenCL 1.2 builtin functions the subset supports.
//!
//! The subset covers every kernel in the Dopia paper (Polybench, SpMV,
//! PageRank, and the parameterizable synthetic workloads of Table 2): scalar
//! `int`/`uint`/`long`/`float` arithmetic, `__global`/`__local`/`__constant`
//! pointers, 1-D indexing, `for`/`while`/`if`, work-item query builtins,
//! `barrier`, and local/global atomics.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     __kernel void scale(__global float* a, float s, int n) {
//!         int i = get_global_id(0);
//!         if (i < n) { a[i] = a[i] * s; }
//!     }
//! "#;
//! let program = clc::compile(src).expect("valid kernel");
//! assert_eq!(program.kernels[0].name, "scale");
//! ```

pub mod ast;
pub mod builtins;
pub mod error;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod preprocess;
pub mod printer;
pub mod sema;
pub mod span;
pub mod token;
pub mod visit;

pub use ast::{
    AssignOp, BinOp, Expr, Kernel, Param, Program, Scalar, Space, Stmt, Type, UnOp,
};
pub use error::{CompileError, Result};
pub use intern::Symbol;
pub use span::Span;

/// Compile OpenCL-C source into a semantically checked [`Program`].
///
/// Runs the full pipeline: lexing, parsing, and semantic analysis. Returns
/// the first error encountered with its source span. Sources containing
/// preprocessor directives should go through [`compile_with_defines`].
pub fn compile(source: &str) -> Result<Program> {
    let tokens = lexer::lex(source)?;
    let program = parser::parse(&tokens)?;
    sema::check(&program)?;
    Ok(program)
}

/// Preprocess (expanding `#define`s plus the supplied `-D`-style
/// definitions), then compile.
///
/// ```
/// let program = clc::compile_with_defines(
///     "#define SCALE 2.0f
///      __kernel void f(__global float* a) {
///          a[get_global_id(0)] *= SCALE;
///      }",
///     &[],
/// ).unwrap();
/// assert_eq!(program.kernels[0].name, "f");
/// ```
pub fn compile_with_defines(source: &str, defines: &[(String, String)]) -> Result<Program> {
    let expanded = preprocess::preprocess(source, defines).map_err(|e| {
        CompileError::lex(e.message, Span::new(0, 0, e.line as u32, 1))
    })?;
    compile(&expanded)
}

/// Parse without semantic checking (used by tests and by transforms that
/// deliberately construct intermediate states).
pub fn parse_only(source: &str) -> Result<Program> {
    let tokens = lexer::lex(source)?;
    parser::parse(&tokens)
}
