//! A minimal C preprocessor for kernel sources.
//!
//! Real-world OpenCL kernels (Polybench's included) lean on `#define` for
//! problem sizes and coefficients, and runtimes inject macros via
//! `clBuildProgram -D` options. This implements the subset those kernels
//! need:
//!
//! * object-like macros: `#define N 1024`, `#define ALPHA (1.5f)`,
//! * function-like macros with simple parameter substitution:
//!   `#define IDX(i, j) ((i) * N + (j))`,
//! * conditional inclusion: `#ifdef` / `#ifndef` / `#else` / `#endif`,
//! * `#undef`,
//! * externally-injected definitions (the `-D name=value` build options).
//!
//! No token pasting, stringification, `#if` expressions, or includes —
//! none of the paper's kernels use them. Expansion is recursive with a
//! depth cap so self-referential macros terminate with an error.

use std::collections::HashMap;

/// A macro definition.
#[derive(Debug, Clone, PartialEq)]
enum Macro {
    Object(String),
    Function { params: Vec<String>, body: String },
}

/// Preprocessing errors (plain text + 1-based source line).
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessError {
    pub message: String,
    pub line: usize,
}

impl std::fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "preprocess error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PreprocessError {}

const MAX_EXPANSION_DEPTH: usize = 32;

/// Preprocess `source` with the given predefined macros (the equivalent of
/// `-D name=value` build options; use an empty value for bare `-D name`).
pub fn preprocess(
    source: &str,
    defines: &[(String, String)],
) -> Result<String, PreprocessError> {
    let mut macros: HashMap<String, Macro> = defines
        .iter()
        .map(|(k, v)| (k.clone(), Macro::Object(v.clone())))
        .collect();
    let mut out = String::with_capacity(source.len());
    // Stack of conditional states: (currently_active, any_branch_taken).
    let mut conds: Vec<(bool, bool)> = Vec::new();

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim_start();
        let active = conds.iter().all(|c| c.0);
        if let Some(directive) = trimmed.strip_prefix('#') {
            let directive = directive.trim_start();
            let (name, rest) = split_word(directive);
            match name {
                "define" if active => {
                    let (mname, body) = parse_define(rest, line)?;
                    macros.insert(mname.0, mname.1.map_or_else(
                        || Macro::Object(body.clone()),
                        |params| Macro::Function { params, body: body.clone() },
                    ));
                }
                "undef" if active => {
                    let (mname, _) = split_word(rest.trim());
                    macros.remove(mname);
                }
                "ifdef" | "ifndef" => {
                    let (mname, _) = split_word(rest.trim());
                    if mname.is_empty() {
                        return Err(PreprocessError {
                            message: format!("#{} needs a macro name", name),
                            line,
                        });
                    }
                    let defined = macros.contains_key(mname);
                    let taken = active && (defined == (name == "ifdef"));
                    conds.push((taken, taken));
                }
                "else" => {
                    if conds.is_empty() {
                        return Err(PreprocessError {
                            message: "#else without #ifdef".into(),
                            line,
                        });
                    }
                    let parent_active = conds[..conds.len() - 1].iter().all(|c| c.0);
                    let top = conds.last_mut().unwrap();
                    top.0 = parent_active && !top.1;
                    top.1 = true;
                }
                "endif" => {
                    if conds.pop().is_none() {
                        return Err(PreprocessError {
                            message: "#endif without #ifdef".into(),
                            line,
                        });
                    }
                }
                "pragma" => {
                    // OpenCL pragmas (extensions etc.) are dropped.
                }
                _ if !active => {}
                other => {
                    return Err(PreprocessError {
                        message: format!("unsupported directive `#{}`", other),
                        line,
                    });
                }
            }
            out.push('\n'); // keep line numbers aligned
            continue;
        }
        if active {
            out.push_str(&expand_line(raw, &macros, line)?);
        }
        out.push('\n');
    }
    if !conds.is_empty() {
        return Err(PreprocessError {
            message: "unterminated #ifdef".into(),
            line: source.lines().count(),
        });
    }
    Ok(out)
}

/// Split the first identifier-ish word off a string.
fn split_word(s: &str) -> (&str, &str) {
    let end = s
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    (&s[..end], &s[end..])
}

/// Parse the remainder of a `#define`: name, optional parameter list, body.
#[allow(clippy::type_complexity)]
fn parse_define(
    rest: &str,
    line: usize,
) -> Result<((String, Option<Vec<String>>), String), PreprocessError> {
    let rest = rest.trim_start();
    let (name, after) = split_word(rest);
    if name.is_empty() {
        return Err(PreprocessError { message: "#define needs a name".into(), line });
    }
    // A parameter list only counts when the '(' is immediately adjacent.
    if let Some(after_paren) = after.strip_prefix('(') {
        let close = after_paren.find(')').ok_or_else(|| PreprocessError {
            message: format!("unclosed parameter list for `{}`", name),
            line,
        })?;
        let params: Vec<String> = after_paren[..close]
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect();
        let body = after_paren[close + 1..].trim().to_string();
        Ok(((name.to_string(), Some(params)), body))
    } else {
        Ok(((name.to_string(), None), after.trim().to_string()))
    }
}

/// Expand macros in one line of ordinary source text.
fn expand_line(
    text: &str,
    macros: &HashMap<String, Macro>,
    line: usize,
) -> Result<String, PreprocessError> {
    expand(text, macros, line, 0)
}

fn expand(
    text: &str,
    macros: &HashMap<String, Macro>,
    line: usize,
    depth: usize,
) -> Result<String, PreprocessError> {
    if depth > MAX_EXPANSION_DEPTH {
        return Err(PreprocessError {
            message: "macro expansion too deep (self-referential #define?)".into(),
            line,
        });
    }
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        i = run_end(bytes, i);
        let word = &text[start..i];
        if is_ident_start(bytes[start]) {
            match macros.get(word) {
                Some(Macro::Object(body)) => {
                    // Rescan with the macro itself removed ("painted blue"
                    // in C-preprocessor terms) so self-references stop.
                    let mut inner = macros.clone();
                    inner.remove(word);
                    out.push_str(&expand(body, &inner, line, depth + 1)?);
                }
                Some(Macro::Function { params, body }) => {
                    // Must be followed by an argument list.
                    let mut j = i;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_whitespace() {
                        j += 1;
                    }
                    if j >= bytes.len() || bytes[j] != b'(' {
                        out.push_str(word); // bare use of a function macro
                        continue;
                    }
                    let (args, consumed) = parse_args(&text[j..], line)?;
                    i = j + consumed;
                    if args.len() != params.len() {
                        return Err(PreprocessError {
                            message: format!(
                                "macro `{}` expects {} arguments, found {}",
                                word,
                                params.len(),
                                args.len()
                            ),
                            line,
                        });
                    }
                    // Expand the arguments first (call-by-value), substitute
                    // parameters textually, then rescan the result with the
                    // macro itself painted blue.
                    let mut expanded_args = Vec::with_capacity(args.len());
                    for a in &args {
                        expanded_args.push(expand(a, macros, line, depth + 1)?);
                    }
                    let substituted = substitute_params(body, params, &expanded_args);
                    let mut inner = macros.clone();
                    inner.remove(word);
                    out.push_str(&expand(&substituted, &inner, line, depth + 1)?);
                }
                None => out.push_str(word),
            }
        } else {
            out.push_str(word);
        }
    }
    Ok(out)
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// The end of the run starting at byte `i`: an identifier, or the text up
/// to the next identifier. Both ends fall on character boundaries, since
/// the bytes of a multi-byte UTF-8 character are never ASCII.
fn run_end(bytes: &[u8], mut i: usize) -> usize {
    let ident = is_ident_start(bytes[i]);
    i += 1;
    while i < bytes.len()
        && if ident {
            bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_'
        } else {
            !is_ident_start(bytes[i])
        }
    {
        i += 1;
    }
    i
}

/// Textually substitute macro parameters (whole identifiers only) with
/// their argument strings.
fn substitute_params(body: &str, params: &[String], args: &[String]) -> String {
    let bytes = body.as_bytes();
    let mut out = String::with_capacity(body.len());
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        i = run_end(bytes, i);
        let word = &body[start..i];
        match params.iter().position(|p| p == word) {
            Some(k) if is_ident_start(bytes[start]) => out.push_str(&args[k]),
            _ => out.push_str(word),
        }
    }
    out
}

/// Parse a parenthesized, comma-separated argument list starting at `(`.
/// Returns the arguments and the number of bytes consumed (incl. parens).
fn parse_args(text: &str, line: usize) -> Result<(Vec<String>, usize), PreprocessError> {
    debug_assert!(text.starts_with('('));
    let mut depth = 0usize;
    let mut args = Vec::new();
    let mut current = String::new();
    for (i, c) in text.char_indices() {
        match c {
            '(' => {
                depth += 1;
                if depth > 1 {
                    current.push(c);
                }
            }
            ')' => {
                depth -= 1;
                if depth == 0 {
                    if !current.trim().is_empty() || !args.is_empty() {
                        args.push(current.trim().to_string());
                    }
                    return Ok((args, i + 1));
                }
                current.push(c);
            }
            ',' if depth == 1 => {
                args.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    Err(PreprocessError { message: "unclosed macro argument list".into(), line })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> String {
        preprocess(src, &[]).unwrap()
    }

    #[test]
    fn object_macros_expand() {
        let out = pp("#define N 1024\nint x = N;\n");
        assert!(out.contains("int x = 1024;"), "{}", out);
    }

    #[test]
    fn function_macros_substitute_and_rescan() {
        let out = pp("#define N 16\n#define IDX(i, j) ((i) * N + (j))\na[IDX(r, c + 1)] = 0;\n");
        assert!(out.contains("a[((r) * 16 + (c + 1))] = 0;"), "{}", out);
    }

    #[test]
    fn nested_call_arguments() {
        let out = pp("#define MAX2(a, b) ((a) > (b) ? (a) : (b))\nx = MAX2(MAX2(p, q), r);\n");
        assert!(
            out.contains("((((p) > (q) ? (p) : (q))) > (r) ? (((p) > (q) ? (p) : (q))) : (r))"),
            "{}",
            out
        );
    }

    #[test]
    fn ifdef_else_endif() {
        let src = "#define FAST\n#ifdef FAST\nfast();\n#else\nslow();\n#endif\n";
        let out = pp(src);
        assert!(out.contains("fast();"));
        assert!(!out.contains("slow();"));
        let src2 = "#ifdef MISSING\na();\n#else\nb();\n#endif\n";
        let out2 = pp(src2);
        assert!(!out2.contains("a();"));
        assert!(out2.contains("b();"));
    }

    #[test]
    fn ifndef_and_undef() {
        let out = pp("#define A 1\n#undef A\n#ifndef A\nyes();\n#endif\n");
        assert!(out.contains("yes();"));
    }

    #[test]
    fn nested_conditionals() {
        let src = "#define OUTER\n#ifdef OUTER\n#ifdef INNER\nx();\n#else\ny();\n#endif\n#endif\n";
        let out = pp(src);
        assert!(out.contains("y();"));
        assert!(!out.contains("x();"));
    }

    #[test]
    fn external_defines_act_like_dash_d() {
        let out = preprocess(
            "int n = SIZE;\n",
            &[("SIZE".to_string(), "4096".to_string())],
        )
        .unwrap();
        assert!(out.contains("int n = 4096;"));
    }

    #[test]
    fn identifier_boundaries_respected() {
        // `N` expands but the identifiers `NN` and `xN` must survive intact.
        let out = pp("#define N 8\nint NN = N; int xN = 1;\n");
        assert!(out.contains("int NN = 8;"), "{}", out);
        assert!(out.contains("int xN = 1;"), "{}", out);
    }

    #[test]
    fn self_reference_terminates_like_c() {
        // `#define X X` is legal C: the self-reference is painted blue and
        // survives unexpanded.
        let out = pp("#define X X\nint a = X;\n");
        assert!(out.contains("int a = X;"), "{}", out);
        // Mutual recursion terminates too (each name expands once per scan).
        let out = pp("#define A B\n#define B A\nint x = A;\n");
        assert!(out.contains("int x = A;"), "{}", out);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = preprocess("ok;\n#bogus\n", &[]).unwrap_err();
        assert_eq!(err.line, 2);
        let err = preprocess("#endif\n", &[]).unwrap_err();
        assert!(err.message.contains("#endif without"));
        let err = preprocess("#ifdef A\n", &[]).unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn line_numbers_preserved_for_later_stages() {
        // Directives become blank lines so spans in sema errors line up.
        let out = pp("#define N 4\n\nline3;\n");
        assert_eq!(out.lines().count(), 3);
        assert_eq!(out.lines().nth(2).unwrap(), "line3;");
    }

    #[test]
    fn full_pipeline_with_macros_compiles() {
        let src = r#"
            #define DATA_TYPE float
            #define IDX2(i, j, n) ((i) * (n) + (j))
            __kernel void scale(__global DATA_TYPE* a, DATA_TYPE s, int n) {
                int i = get_global_id(0);
                if (i < n) { a[IDX2(i, 0, 1)] = a[i] * s; }
            }
        "#;
        let program = crate::compile_with_defines(src, &[]).unwrap();
        assert_eq!(program.kernels[0].name, "scale");
    }

    #[test]
    fn multi_byte_characters_pass_through() {
        assert_eq!(pp("/* →*/ x"), "/* →*/ x\n");
        let out = pp("#define F(a) (a → é)\nF(ü·1) // ñ\n");
        assert_eq!(out, "\n(ü·1 → é) // ñ\n");
    }

    #[test]
    fn pragmas_are_dropped() {
        let out = pp("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\nint x;\n");
        assert!(!out.contains("pragma"));
        assert!(out.contains("int x;"));
    }
}
