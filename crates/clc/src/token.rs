//! Token definitions for the OpenCL-C subset.

use crate::span::Span;
use std::fmt;

/// Keywords recognized by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Kernel,   // __kernel or kernel
    Global,   // __global or global
    Local,    // __local or local
    Constant, // __constant or constant
    Private,  // __private or private
    Void,
    Bool,
    Int,
    Uint,
    Long,
    Ulong,
    SizeT,
    Float,
    If,
    Else,
    For,
    While,
    Do,
    Return,
    Break,
    Continue,
    True,
    False,
    Const,
    Restrict,
}

impl Keyword {
    /// Keyword lookup; OpenCL accepts both `__global` and `global` spellings.
    /// (Not `FromStr`: lookup failure just means "identifier", not an error.)
    pub fn lookup(s: &str) -> Option<Keyword> {
        Some(match s {
            "__kernel" | "kernel" => Keyword::Kernel,
            "__global" | "global" => Keyword::Global,
            "__local" | "local" => Keyword::Local,
            "__constant" | "constant" => Keyword::Constant,
            "__private" | "private" => Keyword::Private,
            "void" => Keyword::Void,
            "bool" => Keyword::Bool,
            "int" => Keyword::Int,
            "uint" | "unsigned" => Keyword::Uint,
            "long" => Keyword::Long,
            "ulong" => Keyword::Ulong,
            "size_t" => Keyword::SizeT,
            "float" => Keyword::Float,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "for" => Keyword::For,
            "while" => Keyword::While,
            "do" => Keyword::Do,
            "return" => Keyword::Return,
            "break" => Keyword::Break,
            "continue" => Keyword::Continue,
            "true" => Keyword::True,
            "false" => Keyword::False,
            "const" => Keyword::Const,
            "restrict" | "__restrict" => Keyword::Restrict,
            _ => return None,
        })
    }
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semicolon,
    Question,
    Colon,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    AmpAmp,
    PipePipe,
    Shl,
    Shr,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    PlusPlus,
    MinusMinus,
}

/// The kinds of token the lexer can produce. `Copy`: an identifier
/// borrows its spelling from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'src> {
    Keyword(Keyword),
    Ident(&'src str),
    /// Integer literal (decimal or hex); suffixes `u`/`U`/`l`/`L` are folded.
    IntLit(i64),
    /// Floating-point literal; an optional `f`/`F` suffix is folded.
    FloatLit(f64),
    Punct(Punct),
    /// End-of-input marker so the parser never runs off the token slice.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "keyword `{:?}`", k),
            TokenKind::Ident(s) => write!(f, "identifier `{}`", s),
            TokenKind::IntLit(v) => write!(f, "integer `{}`", v),
            TokenKind::FloatLit(v) => write!(f, "float `{}`", v),
            TokenKind::Punct(p) => write!(f, "`{:?}`", p),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    pub kind: TokenKind<'src>,
    pub span: Span,
}
