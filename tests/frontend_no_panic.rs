//! Fuzz harness: the compiler frontend must never panic, whatever bytes
//! it is fed. Malformed input is an `Err`, not a crash — a runtime that
//! promises to never fail a launch the hardware could still finish cannot
//! afford an abort inside `clBuildProgram`. Every input goes through both
//! `clc::compile` and the runtime's entry point `clc::compile_with_defines`,
//! which preprocesses first; a source without directives must preprocess
//! to itself.
//!
//! Three generators:
//! 1. raw byte soup (UTF-8-lossy decoded),
//! 2. unicode char soup,
//! 3. structured mutations of real kernels (truncations, splices,
//!    deletions) — the inputs most likely to reach deep parser states.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Compile and report only whether the frontend panicked; the Ok/Err
/// outcome itself is irrelevant here.
fn compiles_without_panicking(src: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = clc::compile(src);
        let _ = clc::compile_with_defines(src, &[]);
    }))
    .is_ok()
}

/// Clamp an arbitrary index to a UTF-8 character boundary of `s`.
fn char_boundary(s: &str, idx: usize) -> usize {
    let mut i = idx.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// The real-kernel corpus the mutation tests start from.
fn corpus() -> Vec<&'static str> {
    vec![
        workloads::polybench::GESUMMV_SRC,
        workloads::polybench::ATAX1_SRC,
        workloads::polybench::ATAX2_SRC,
        workloads::pagerank::PAGERANK_SRC,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, lossily decoded: the lexer sees every kind of
    /// garbage, including replacement characters and control bytes.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert!(compiles_without_panicking(&src));
    }

    /// Arbitrary unicode scalar values (biased towards ASCII).
    #[test]
    fn char_soup_never_panics(chars in prop::collection::vec(any::<char>(), 0..1024)) {
        let src: String = chars.into_iter().collect();
        prop_assert!(compiles_without_panicking(&src));
    }

    /// With no directive and no define there is nothing to expand: every
    /// line, multi-byte characters included, comes back as it went in.
    #[test]
    fn directive_free_sources_preprocess_to_themselves(
        chars in prop::collection::vec(any::<char>(), 0..1024),
    ) {
        let src: String = chars.into_iter().filter(|&c| c != '#').collect();
        let out = clc::preprocess::preprocess(&src, &[]).unwrap();
        prop_assert_eq!(out.lines().collect::<Vec<_>>(), src.lines().collect::<Vec<_>>());
    }

    /// OpenCL-ish token soup: syntactically plausible streams that get past
    /// the lexer and stress the parser's recovery paths.
    #[test]
    fn token_soup_never_panics(tokens in prop::collection::vec(token(), 0..256)) {
        let src = tokens.join(" ");
        prop_assert!(compiles_without_panicking(&src));
    }

    /// Truncate a real kernel at an arbitrary character boundary: the
    /// parser hits EOF in every possible state.
    #[test]
    fn truncated_kernels_never_panic(pick in 0usize..4, cut in 0usize..4096) {
        let src = corpus()[pick];
        let truncated = &src[..char_boundary(src, cut)];
        prop_assert!(compiles_without_panicking(truncated));
    }

    /// Splice a random character into a real kernel.
    #[test]
    fn spliced_kernels_never_panic(pick in 0usize..4, at in 0usize..4096, c in any::<char>()) {
        let src = corpus()[pick];
        let i = char_boundary(src, at);
        let mutated = format!("{}{}{}", &src[..i], c, &src[i..]);
        prop_assert!(compiles_without_panicking(&mutated));
    }

    /// Delete a random span from a real kernel (unbalances braces,
    /// removes type names mid-declaration, ...).
    #[test]
    fn deleted_spans_never_panic(pick in 0usize..4, at in 0usize..4096, len in 1usize..64) {
        let src = corpus()[pick];
        let start = char_boundary(src, at);
        let end = char_boundary(src, (start + len).min(src.len()));
        let mutated = format!("{}{}", &src[..start], &src[end..]);
        prop_assert!(compiles_without_panicking(&mutated));
    }
}

/// One plausible OpenCL token.
fn token() -> BoxedStrategy<&'static str> {
    let toks: &[&'static str] = &[
        "__kernel", "void", "int", "float", "__global", "__local", "const",
        "if", "else", "for", "while", "do", "return", "break", "continue",
        "get_global_id", "get_local_id", "get_group_id", "get_local_size",
        "(", ")", "{", "}", "[", "]", ";", ",", "=", "+", "-", "*", "/", "%",
        "<", ">", "<=", ">=", "==", "!=", "&&", "||", "!", "&", "|", "^",
        "0", "1", "42", "3.14f", "0x10", "a", "b", "i", "j", "n", "tmp",
        "\"unterminated", "/* open comment", "//", "#", "@", "$", "\\",
    ];
    proptest::strategy::Union::new(toks.iter().map(|t| Just(*t).boxed()).collect()).boxed()
}

/// Sanity anchor: the corpus itself still compiles cleanly, so the fuzz
/// targets above are mutating genuinely valid inputs.
#[test]
fn corpus_is_valid() {
    for src in corpus() {
        assert!(clc::compile(src).is_ok());
        assert!(clc::compile_with_defines(src, &[]).is_ok());
    }
}

/// Multi-byte characters in a comment once came out of the preprocessor
/// as mojibake that swallowed the next byte, so this valid kernel failed
/// to build ("unterminated block comment").
#[test]
fn runtime_builds_a_kernel_with_multi_byte_comments() {
    use dopia::prelude::*;
    struct Zero;
    impl dopia::ml::Regressor for Zero {
        fn predict(&self, _: &[f64]) -> f64 {
            0.0
        }
        fn name(&self) -> &'static str {
            "zero"
        }
    }
    let src = "__kernel void k(__global float* a) { /* x → y →*/ a[get_global_id(0)] = 1.0f; }";
    let dopia = Dopia::new(Engine::kaveri(), PerfModel::from_regressor(ModelKind::Lin, Box::new(Zero)));
    let program = dopia.create_program_with_source(src).unwrap();
    assert!(program.kernel("k").is_some());
}
