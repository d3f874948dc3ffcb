//! Tokenizer for the OpenCL-C subset.
//!
//! Handles `//` and `/* */` comments, decimal/hex integer literals with
//! `u`/`l` suffixes, float literals with exponents and `f` suffixes, all
//! multi-character operators, and keyword recognition including the
//! double-underscore OpenCL qualifiers.

use crate::error::{CompileError, Result};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn span_from(&self, start: usize, line: u32, col: u32) -> Span {
        Span::new(start, self.pos, line, col)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (start, line, col) = (self.pos, self.line, self.col);
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(CompileError::lex(
                                    "unterminated block comment",
                                    self.span_from(start, line, col),
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self) -> Result<Token<'a>> {
        let (start, line, col) = (self.pos, self.line, self.col);
        // Hexadecimal.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                self.bump();
            }
            if self.pos == digits_start {
                return Err(CompileError::lex(
                    "hex literal requires at least one digit",
                    self.span_from(start, line, col),
                ));
            }
            let text = std::str::from_utf8(&self.src[digits_start..self.pos]).unwrap();
            let value = i64::from_str_radix(text, 16).map_err(|_| {
                CompileError::lex("hex literal out of range", self.span_from(start, line, col))
            })?;
            self.eat_int_suffix();
            return Ok(Token {
                kind: TokenKind::IntLit(value),
                span: self.span_from(start, line, col),
            });
        }

        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        } else if self.peek() == Some(b'.') {
            // `1.` / `4.f` style literal (the subset has no member access,
            // so a dot after digits is always part of the literal).
            is_float = true;
            self.bump();
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut lookahead = self.pos + 1;
            if matches!(self.src.get(lookahead), Some(b'+') | Some(b'-')) {
                lookahead += 1;
            }
            if matches!(self.src.get(lookahead), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                self.bump(); // e
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.bump();
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap().to_string();
        if is_float || matches!(self.peek(), Some(b'f') | Some(b'F')) {
            if matches!(self.peek(), Some(b'f') | Some(b'F')) {
                self.bump();
            }
            let value: f64 = text.parse().map_err(|_| {
                CompileError::lex("invalid float literal", self.span_from(start, line, col))
            })?;
            Ok(Token {
                kind: TokenKind::FloatLit(value),
                span: self.span_from(start, line, col),
            })
        } else {
            self.eat_int_suffix();
            let value: i64 = text.parse().map_err(|_| {
                CompileError::lex("integer literal out of range", self.span_from(start, line, col))
            })?;
            Ok(Token {
                kind: TokenKind::IntLit(value),
                span: self.span_from(start, line, col),
            })
        }
    }

    fn eat_int_suffix(&mut self) {
        while matches!(self.peek(), Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')) {
            self.bump();
        }
    }

    fn lex_ident(&mut self) -> Token<'a> {
        let (start, line, col) = (self.pos, self.line, self.col);
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let kind = match Keyword::lookup(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text),
        };
        Token { kind, span: self.span_from(start, line, col) }
    }

    fn lex_punct(&mut self) -> Result<Token<'a>> {
        let (start, line, col) = (self.pos, self.line, self.col);
        let c = self.bump().unwrap();
        use Punct::*;
        let two = |l: &mut Lexer<'a>, next: u8, yes: Punct, no: Punct| {
            if l.peek() == Some(next) {
                l.bump();
                yes
            } else {
                no
            }
        };
        let p = match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b',' => Comma,
            b';' => Semicolon,
            b'?' => Question,
            b':' => Colon,
            b'~' => Tilde,
            b'^' => Caret,
            b'+' => {
                if self.peek() == Some(b'+') {
                    self.bump();
                    PlusPlus
                } else {
                    two(self, b'=', PlusAssign, Plus)
                }
            }
            b'-' => {
                if self.peek() == Some(b'-') {
                    self.bump();
                    MinusMinus
                } else {
                    two(self, b'=', MinusAssign, Minus)
                }
            }
            b'*' => two(self, b'=', StarAssign, Star),
            b'/' => two(self, b'=', SlashAssign, Slash),
            b'%' => two(self, b'=', PercentAssign, Percent),
            b'&' => two(self, b'&', AmpAmp, Amp),
            b'|' => two(self, b'|', PipePipe, Pipe),
            b'!' => two(self, b'=', Ne, Bang),
            b'=' => two(self, b'=', EqEq, Assign),
            b'<' => {
                if self.peek() == Some(b'<') {
                    self.bump();
                    Shl
                } else {
                    two(self, b'=', Le, Lt)
                }
            }
            b'>' => {
                if self.peek() == Some(b'>') {
                    self.bump();
                    Shr
                } else {
                    two(self, b'=', Ge, Gt)
                }
            }
            other => {
                return Err(CompileError::lex(
                    format!("unexpected character `{}`", other as char),
                    self.span_from(start, line, col),
                ));
            }
        };
        Ok(Token { kind: TokenKind::Punct(p), span: self.span_from(start, line, col) })
    }
}

/// Tokenize `source`, appending a trailing [`TokenKind::Eof`] token.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(source);
    let mut tokens = Vec::new();
    loop {
        lexer.skip_trivia()?;
        let Some(c) = lexer.peek() else { break };
        let token = if c.is_ascii_digit()
            || (c == b'.' && matches!(lexer.peek2(), Some(d) if d.is_ascii_digit()))
        {
            lexer.lex_number()?
        } else if c.is_ascii_alphabetic() || c == b'_' {
            lexer.lex_ident()
        } else {
            lexer.lex_punct()?
        };
        tokens.push(token);
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(lexer.pos, lexer.pos, lexer.line, lexer.col),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{Keyword, Punct, TokenKind};

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let ks = kinds("__kernel void foo kernel global");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Kernel),
                TokenKind::Keyword(Keyword::Void),
                TokenKind::Ident("foo"),
                TokenKind::Keyword(Keyword::Kernel),
                TokenKind::Keyword(Keyword::Global),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn integer_literals() {
        assert_eq!(kinds("42")[0], TokenKind::IntLit(42));
        assert_eq!(kinds("0x1F")[0], TokenKind::IntLit(31));
        assert_eq!(kinds("7u")[0], TokenKind::IntLit(7));
        assert_eq!(kinds("7UL")[0], TokenKind::IntLit(7));
    }

    #[test]
    fn float_literals() {
        assert_eq!(kinds("1.5")[0], TokenKind::FloatLit(1.5));
        assert_eq!(kinds("2.0f")[0], TokenKind::FloatLit(2.0));
        assert_eq!(kinds("3f")[0], TokenKind::FloatLit(3.0));
        assert_eq!(kinds("1e3")[0], TokenKind::FloatLit(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::FloatLit(0.25));
        assert_eq!(kinds(".5")[0], TokenKind::FloatLit(0.5));
    }

    #[test]
    fn float_then_member_like_is_not_consumed() {
        // `1.` followed by an identifier char must not swallow the ident.
        let ks = kinds("4.f");
        assert_eq!(ks[0], TokenKind::FloatLit(4.0));
    }

    #[test]
    fn operators() {
        let ks = kinds("a += b << 2 && c++ >= --d");
        use Punct::*;
        let ps: Vec<Punct> = ks
            .iter()
            .filter_map(|k| match k {
                TokenKind::Punct(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(ps, vec![PlusAssign, Shl, AmpAmp, PlusPlus, Ge, MinusMinus]);
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("a // line\n /* block \n comment */ b");
        assert_eq!(ks.len(), 3); // a, b, eof
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let err = lex("a @ b").unwrap_err();
        assert!(err.message.contains('@'));
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }
}
