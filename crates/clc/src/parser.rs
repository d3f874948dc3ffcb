//! Recursive-descent parser for the OpenCL-C subset.
//!
//! Grammar (simplified):
//!
//! ```text
//! program    := kernel*
//! kernel     := '__kernel' 'void' IDENT '(' params? ')' block
//! params     := param (',' param)*
//! param      := qualifier* type '*'? IDENT
//! block      := '{' stmt* '}'
//! stmt       := decl ';' | if | for | while | do-while | return ';'
//!             | 'break' ';' | 'continue' ';' | block | expr ';'
//! decl       := qualifier* type IDENT ('[' INT ']')? ('=' expr)?
//! expr       := assignment (C precedence, right-assoc assignment, ternary)
//! ```

use crate::ast::*;
use crate::builtins;
use crate::error::{CompileError, Result};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

struct Parser<'a> {
    tokens: &'a [Token<'a>],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Token<'a>]) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind<'a> {
        &self.peek().kind
    }

    fn bump(&mut self) -> Token<'a> {
        let t = *self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek_kind(), TokenKind::Punct(q) if *q == p)
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(q) if *q == k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct, what: &str) -> Result<Span> {
        if self.at_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(CompileError::parse(
                format!("expected {} but found {}", what, self.peek_kind()),
                self.peek().span,
            ))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span)> {
        match *self.peek_kind() {
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                Ok((name.to_string(), span))
            }
            other => Err(CompileError::parse(
                format!("expected {} but found {}", what, other),
                self.peek().span,
            )),
        }
    }

    // ----- types -----------------------------------------------------------

    /// Is the current token the start of a type (possibly with qualifiers)?
    fn at_type_start(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::Keyword(
                Keyword::Global
                    | Keyword::Local
                    | Keyword::Constant
                    | Keyword::Private
                    | Keyword::Const
                    | Keyword::Void
                    | Keyword::Bool
                    | Keyword::Int
                    | Keyword::Uint
                    | Keyword::Long
                    | Keyword::Ulong
                    | Keyword::SizeT
                    | Keyword::Float
            )
        )
    }

    /// Parse `qualifier* scalar '*'?` into (space, type).
    fn parse_type(&mut self) -> Result<(Space, Type)> {
        let mut space = Space::Private;
        loop {
            if self.eat_keyword(Keyword::Global) {
                space = Space::Global;
            } else if self.eat_keyword(Keyword::Local) {
                space = Space::Local;
            } else if self.eat_keyword(Keyword::Constant) {
                space = Space::Constant;
            } else if self.eat_keyword(Keyword::Private) {
                space = Space::Private;
            } else if self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Restrict) {
                // `const`/`restrict` accepted and ignored.
            } else {
                break;
            }
        }
        let scalar = self.parse_scalar()?;
        // Allow `const`/`restrict` between type and `*` as well.
        while self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Restrict) {}
        if self.eat_punct(Punct::Star) {
            while self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Restrict) {}
            let elem = scalar.ok_or_else(|| {
                CompileError::parse("`void*` is not supported", self.peek().span)
            })?;
            // Unqualified pointers default to __global (common in real
            // kernels only for parameters; harmless elsewhere).
            let space = if space == Space::Private { Space::Global } else { space };
            Ok((space, Type::Ptr { space, elem }))
        } else {
            match scalar {
                Some(s) => Ok((space, Type::Scalar(s))),
                None => Ok((space, Type::Void)),
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<Option<Scalar>> {
        let kind = *self.peek_kind();
        let s = match kind {
            TokenKind::Keyword(Keyword::Void) => {
                self.bump();
                return Ok(None);
            }
            TokenKind::Keyword(Keyword::Bool) => Scalar::Bool,
            TokenKind::Keyword(Keyword::Int) => Scalar::Int,
            TokenKind::Keyword(Keyword::Uint) => Scalar::Uint,
            TokenKind::Keyword(Keyword::Long) => Scalar::Long,
            TokenKind::Keyword(Keyword::Ulong) => Scalar::Ulong,
            TokenKind::Keyword(Keyword::SizeT) => Scalar::Ulong,
            TokenKind::Keyword(Keyword::Float) => Scalar::Float,
            other => {
                return Err(CompileError::parse(
                    format!("expected a type but found {}", other),
                    self.peek().span,
                ));
            }
        };
        self.bump();
        // `unsigned int` spelling: Uint keyword may be followed by `int`.
        if s == Scalar::Uint {
            self.eat_keyword(Keyword::Int);
        }
        Ok(Some(s))
    }

    // ----- kernels ----------------------------------------------------------

    fn parse_program(&mut self) -> Result<Program> {
        let mut kernels = Vec::new();
        while !matches!(self.peek_kind(), TokenKind::Eof) {
            kernels.push(self.parse_kernel()?);
        }
        Ok(Program { kernels })
    }

    fn parse_kernel(&mut self) -> Result<Kernel> {
        let start = self.peek().span;
        if !self.eat_keyword(Keyword::Kernel) {
            return Err(CompileError::parse(
                format!("expected `__kernel` but found {}", self.peek_kind()),
                self.peek().span,
            ));
        }
        if !self.eat_keyword(Keyword::Void) {
            return Err(CompileError::parse(
                "kernels must return `void`",
                self.peek().span,
            ));
        }
        let (name, _) = self.expect_ident("kernel name")?;
        self.expect_punct(Punct::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            loop {
                let pstart = self.peek().span;
                let (_, ty) = self.parse_type()?;
                let (pname, pspan) = self.expect_ident("parameter name")?;
                params.push(Param { name: pname, ty, span: pstart.merge(pspan) });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen, "`)`")?;
        let body = self.parse_block()?;
        let (stmts, end) = match body {
            Stmt::Block { stmts, span } => (stmts, span),
            _ => unreachable!("parse_block returns Stmt::Block"),
        };
        Ok(Kernel { name, params, body: stmts, span: start.merge(end) })
    }

    // ----- statements -------------------------------------------------------

    fn parse_block(&mut self) -> Result<Stmt> {
        let start = self.expect_punct(Punct::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if matches!(self.peek_kind(), TokenKind::Eof) {
                return Err(CompileError::parse("unterminated block", start));
            }
            stmts.push(self.parse_stmt()?);
        }
        let end = self.bump().span; // consume `}`
        Ok(Stmt::Block { stmts, span: start.merge(end) })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        let span = self.peek().span;
        if self.at_punct(Punct::LBrace) {
            return self.parse_block();
        }
        if self.at_keyword(Keyword::If) {
            return self.parse_if();
        }
        if self.at_keyword(Keyword::For) {
            return self.parse_for();
        }
        if self.at_keyword(Keyword::While) {
            return self.parse_while();
        }
        if self.at_keyword(Keyword::Do) {
            return self.parse_do_while();
        }
        if self.eat_keyword(Keyword::Return) {
            let value = if self.at_punct(Punct::Semicolon) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            let end = self.expect_punct(Punct::Semicolon, "`;`")?;
            return Ok(Stmt::Return { value, span: span.merge(end) });
        }
        if self.eat_keyword(Keyword::Break) {
            self.expect_punct(Punct::Semicolon, "`;`")?;
            return Ok(Stmt::Break { span });
        }
        if self.eat_keyword(Keyword::Continue) {
            self.expect_punct(Punct::Semicolon, "`;`")?;
            return Ok(Stmt::Continue { span });
        }
        if self.at_type_start() {
            let decl = self.parse_decl()?;
            self.expect_punct(Punct::Semicolon, "`;`")?;
            return Ok(Stmt::Decl(decl));
        }
        let e = self.parse_expr()?;
        self.expect_punct(Punct::Semicolon, "`;`")?;
        Ok(Stmt::Expr(e))
    }

    fn parse_decl(&mut self) -> Result<Decl> {
        let start = self.peek().span;
        let (space, ty) = self.parse_type()?;
        if ty == Type::Void {
            return Err(CompileError::parse("cannot declare a `void` variable", start));
        }
        let (name, nspan) = self.expect_ident("variable name")?;
        let mut array_len = None;
        if self.eat_punct(Punct::LBracket) {
            match *self.peek_kind() {
                TokenKind::IntLit(n) if n > 0 => {
                    self.bump();
                    array_len = Some(n as usize);
                }
                other => {
                    return Err(CompileError::parse(
                        format!("array length must be a positive integer literal, found {}", other),
                        self.peek().span,
                    ));
                }
            }
            self.expect_punct(Punct::RBracket, "`]`")?;
        }
        let init = if self.eat_punct(Punct::Assign) {
            if array_len.is_some() {
                return Err(CompileError::parse(
                    "array declarations cannot have initializers",
                    self.peek().span,
                ));
            }
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Decl { name, ty, space, array_len, init, span: start.merge(nspan) })
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.bump(); // if
        self.expect_punct(Punct::LParen, "`(`")?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen, "`)`")?;
        let then = Box::new(self.parse_stmt()?);
        let els = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        let end = els.as_ref().map(|s| s.span()).unwrap_or_else(|| then.span());
        Ok(Stmt::If { cond, then, els, span: start.merge(end) })
    }

    fn parse_for(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.bump(); // for
        self.expect_punct(Punct::LParen, "`(`")?;
        let init = if self.at_punct(Punct::Semicolon) {
            self.bump();
            None
        } else if self.at_type_start() {
            let d = self.parse_decl()?;
            self.expect_punct(Punct::Semicolon, "`;`")?;
            Some(Box::new(Stmt::Decl(d)))
        } else {
            let e = self.parse_expr()?;
            self.expect_punct(Punct::Semicolon, "`;`")?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.at_punct(Punct::Semicolon) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(Punct::Semicolon, "`;`")?;
        let step = if self.at_punct(Punct::RParen) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(Punct::RParen, "`)`")?;
        let body = Box::new(self.parse_stmt()?);
        let end = body.span();
        Ok(Stmt::For { init, cond, step, body, span: start.merge(end) })
    }

    fn parse_while(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.bump(); // while
        self.expect_punct(Punct::LParen, "`(`")?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen, "`)`")?;
        let body = Box::new(self.parse_stmt()?);
        let end = body.span();
        Ok(Stmt::While { cond, body, span: start.merge(end) })
    }

    fn parse_do_while(&mut self) -> Result<Stmt> {
        let start = self.peek().span;
        self.bump(); // do
        let body = Box::new(self.parse_stmt()?);
        if !self.eat_keyword(Keyword::While) {
            return Err(CompileError::parse("expected `while` after `do` body", self.peek().span));
        }
        self.expect_punct(Punct::LParen, "`(`")?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen, "`)`")?;
        let end = self.expect_punct(Punct::Semicolon, "`;`")?;
        Ok(Stmt::DoWhile { body, cond, span: start.merge(end) })
    }

    // ----- expressions ------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_assignment()
    }

    fn parse_assignment(&mut self) -> Result<Expr> {
        let lhs = self.parse_ternary()?;
        let op = match self.peek_kind() {
            TokenKind::Punct(Punct::Assign) => Some(AssignOp::Assign),
            TokenKind::Punct(Punct::PlusAssign) => Some(AssignOp::Add),
            TokenKind::Punct(Punct::MinusAssign) => Some(AssignOp::Sub),
            TokenKind::Punct(Punct::StarAssign) => Some(AssignOp::Mul),
            TokenKind::Punct(Punct::SlashAssign) => Some(AssignOp::Div),
            TokenKind::Punct(Punct::PercentAssign) => Some(AssignOp::Rem),
            _ => None,
        };
        if let Some(op) = op {
            let opspan = self.bump().span;
            if !lhs.is_lvalue() {
                return Err(CompileError::parse("left side of assignment is not an lvalue", opspan));
            }
            let rhs = self.parse_assignment()?; // right-associative
            let span = lhs.span().merge(rhs.span());
            Ok(Expr::Assign { op, target: Box::new(lhs), value: Box::new(rhs), span })
        } else {
            Ok(lhs)
        }
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct(Punct::Question) {
            let then = self.parse_expr()?;
            self.expect_punct(Punct::Colon, "`:`")?;
            let els = self.parse_ternary()?;
            let span = cond.span().merge(els.span());
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    /// Binding powers for binary operators (higher binds tighter).
    fn binop_power(p: Punct) -> Option<(BinOp, u8)> {
        use Punct::*;
        Some(match p {
            PipePipe => (BinOp::Or, 1),
            AmpAmp => (BinOp::And, 2),
            Pipe => (BinOp::BitOr, 3),
            Caret => (BinOp::BitXor, 4),
            Amp => (BinOp::BitAnd, 5),
            EqEq => (BinOp::Eq, 6),
            Ne => (BinOp::Ne, 6),
            Lt => (BinOp::Lt, 7),
            Gt => (BinOp::Gt, 7),
            Le => (BinOp::Le, 7),
            Ge => (BinOp::Ge, 7),
            Shl => (BinOp::Shl, 8),
            Shr => (BinOp::Shr, 8),
            Plus => (BinOp::Add, 9),
            Minus => (BinOp::Sub, 9),
            Star => (BinOp::Mul, 10),
            Slash => (BinOp::Div, 10),
            Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    #[allow(clippy::while_let_loop)] // two distinct break conditions
    fn parse_binary(&mut self, min_power: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, power) = match self.peek_kind() {
                TokenKind::Punct(p) => match Self::binop_power(*p) {
                    Some(x) if x.1 >= min_power => x,
                    _ => break,
                },
                _ => break,
            };
            self.bump();
            let rhs = self.parse_binary(power + 1)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let span = self.peek().span;
        match self.peek_kind() {
            TokenKind::Punct(Punct::Minus) => {
                self.bump();
                let operand = self.parse_unary()?;
                let span = span.merge(operand.span());
                Ok(Expr::Unary { op: UnOp::Neg, operand: Box::new(operand), span })
            }
            TokenKind::Punct(Punct::Bang) => {
                self.bump();
                let operand = self.parse_unary()?;
                let span = span.merge(operand.span());
                Ok(Expr::Unary { op: UnOp::Not, operand: Box::new(operand), span })
            }
            TokenKind::Punct(Punct::Tilde) => {
                self.bump();
                let operand = self.parse_unary()?;
                let span = span.merge(operand.span());
                Ok(Expr::Unary { op: UnOp::BitNot, operand: Box::new(operand), span })
            }
            TokenKind::Punct(Punct::Plus) => {
                self.bump();
                self.parse_unary()
            }
            TokenKind::Punct(Punct::PlusPlus) | TokenKind::Punct(Punct::MinusMinus) => {
                let inc = matches!(self.peek_kind(), TokenKind::Punct(Punct::PlusPlus));
                self.bump();
                let target = self.parse_unary()?;
                if !target.is_lvalue() {
                    return Err(CompileError::parse(
                        "operand of prefix increment/decrement is not an lvalue",
                        span,
                    ));
                }
                let span = span.merge(target.span());
                Ok(Expr::IncDec { inc, pre: true, target: Box::new(target), span })
            }
            TokenKind::Punct(Punct::LParen) => {
                // Either a cast `(int)x` or a parenthesized expression.
                if let Some(scalar) = self.try_cast_scalar() {
                    let operand = self.parse_unary()?;
                    let span = span.merge(operand.span());
                    return Ok(Expr::Cast { to: scalar, operand: Box::new(operand), span });
                }
                self.bump(); // (
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen, "`)`")?;
                self.parse_postfix(e)
            }
            _ => {
                let primary = self.parse_primary()?;
                self.parse_postfix(primary)
            }
        }
    }

    /// If the upcoming tokens are `( scalar-type )`, consume them and return
    /// the scalar; otherwise consume nothing.
    fn try_cast_scalar(&mut self) -> Option<Scalar> {
        let save = self.pos;
        if !self.eat_punct(Punct::LParen) {
            return None;
        }
        let scalar = match self.peek_kind() {
            TokenKind::Keyword(Keyword::Bool) => Some(Scalar::Bool),
            TokenKind::Keyword(Keyword::Int) => Some(Scalar::Int),
            TokenKind::Keyword(Keyword::Uint) => Some(Scalar::Uint),
            TokenKind::Keyword(Keyword::Long) => Some(Scalar::Long),
            TokenKind::Keyword(Keyword::Ulong) => Some(Scalar::Ulong),
            TokenKind::Keyword(Keyword::SizeT) => Some(Scalar::Ulong),
            TokenKind::Keyword(Keyword::Float) => Some(Scalar::Float),
            _ => None,
        };
        match scalar {
            Some(s) => {
                self.bump();
                if s == Scalar::Uint {
                    self.eat_keyword(Keyword::Int);
                }
                if self.eat_punct(Punct::RParen) {
                    Some(s)
                } else {
                    self.pos = save;
                    None
                }
            }
            None => {
                self.pos = save;
                None
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let span = self.peek().span;
        match *self.peek_kind() {
            TokenKind::IntLit(value) => {
                self.bump();
                Ok(Expr::IntLit { value, span })
            }
            TokenKind::FloatLit(value) => {
                self.bump();
                Ok(Expr::FloatLit { value, span })
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok(Expr::BoolLit { value: true, span })
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok(Expr::BoolLit { value: false, span })
            }
            TokenKind::Ident(name) => {
                self.bump();
                if let Some(v) = builtins::named_constant(name) {
                    return Ok(Expr::IntLit { value: v, span });
                }
                if self.at_punct(Punct::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect_punct(Punct::RParen, "`)`")?;
                    let name = name.to_string();
                    return Ok(Expr::Call { name, args, span: span.merge(end) });
                }
                Ok(Expr::Ident { name: name.to_string(), span })
            }
            other => Err(CompileError::parse(
                format!("expected an expression but found {}", other),
                span,
            )),
        }
    }

    fn parse_postfix(&mut self, mut expr: Expr) -> Result<Expr> {
        loop {
            if self.eat_punct(Punct::LBracket) {
                let index = self.parse_expr()?;
                let end = self.expect_punct(Punct::RBracket, "`]`")?;
                let span = expr.span().merge(end);
                expr = Expr::Index { base: Box::new(expr), index: Box::new(index), span };
            } else if self.at_punct(Punct::PlusPlus) || self.at_punct(Punct::MinusMinus) {
                let inc = matches!(self.peek_kind(), TokenKind::Punct(Punct::PlusPlus));
                let opspan = self.bump().span;
                if !expr.is_lvalue() {
                    return Err(CompileError::parse(
                        "operand of postfix increment/decrement is not an lvalue",
                        opspan,
                    ));
                }
                let span = expr.span().merge(opspan);
                expr = Expr::IncDec { inc, pre: false, target: Box::new(expr), span };
            } else {
                return Ok(expr);
            }
        }
    }
}

/// Parse a token stream (from [`crate::lexer::lex`]) into a [`Program`].
pub fn parse(tokens: &[Token<'_>]) -> Result<Program> {
    Parser::new(tokens).parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Program> {
        parse(&lex(src)?)
    }

    fn parse_expr_src(src: &str) -> Expr {
        let full = format!("__kernel void t(int x, __global int* a) {{ x = {}; }}", src);
        let p = parse_src(&full).unwrap();
        match &p.kernels[0].body[0] {
            Stmt::Expr(Expr::Assign { value, .. }) => (**value).clone(),
            other => panic!("unexpected stmt {:?}", other),
        }
    }

    #[test]
    fn parses_minimal_kernel() {
        let p = parse_src("__kernel void f() { }").unwrap();
        assert_eq!(p.kernels.len(), 1);
        assert_eq!(p.kernels[0].name, "f");
        assert!(p.kernels[0].params.is_empty());
    }

    #[test]
    fn parses_parameters_with_qualifiers() {
        let p = parse_src(
            "__kernel void f(__global float* a, __constant int* idx, int n, size_t m) { }",
        )
        .unwrap();
        let k = &p.kernels[0];
        assert_eq!(k.params.len(), 4);
        assert_eq!(k.params[0].ty, Type::Ptr { space: Space::Global, elem: Scalar::Float });
        assert_eq!(k.params[1].ty, Type::Ptr { space: Space::Constant, elem: Scalar::Int });
        assert_eq!(k.params[2].ty, Type::INT);
        assert_eq!(k.params[3].ty, Type::ULONG);
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr_src("1 + 2 * 3");
        match e {
            Expr::Binary { op: BinOp::Add, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("bad tree {:?}", other),
        }
    }

    #[test]
    fn precedence_comparison_over_logical() {
        let e = parse_expr_src("(a[0] < 1 && a[1] > 2) ? 1 : 0");
        assert!(matches!(e, Expr::Ternary { .. }));
    }

    #[test]
    fn cast_vs_paren() {
        let e = parse_expr_src("(int) x");
        assert!(matches!(e, Expr::Cast { to: Scalar::Int, .. }));
        let e = parse_expr_src("(x)");
        assert!(matches!(e, Expr::Ident { .. }));
    }

    #[test]
    fn postfix_and_prefix_incdec() {
        let e = parse_expr_src("x++");
        assert!(matches!(e, Expr::IncDec { inc: true, pre: false, .. }));
        let e = parse_expr_src("--x");
        assert!(matches!(e, Expr::IncDec { inc: false, pre: true, .. }));
    }

    #[test]
    fn chained_index() {
        let e = parse_expr_src("a[x + 1]");
        assert!(matches!(e, Expr::Index { .. }));
    }

    #[test]
    fn compound_assignment_right_assoc() {
        let p = parse_src("__kernel void f(int x, int y) { x = y = 1; }").unwrap();
        match &p.kernels[0].body[0] {
            Stmt::Expr(Expr::Assign { value, .. }) => {
                assert!(matches!(**value, Expr::Assign { .. }));
            }
            other => panic!("bad {:?}", other),
        }
    }

    #[test]
    fn for_loop_full() {
        let p = parse_src(
            "__kernel void f(__global int* a, int n) {
                for (int i = 0; i < n; i++) { a[i] = i; }
            }",
        )
        .unwrap();
        match &p.kernels[0].body[0] {
            Stmt::For { init, cond, step, .. } => {
                assert!(init.is_some());
                assert!(cond.is_some());
                assert!(step.is_some());
            }
            other => panic!("bad {:?}", other),
        }
    }

    #[test]
    fn for_loop_empty_clauses() {
        let p = parse_src("__kernel void f(int i) { for (;;) { break; } i = 0; }").unwrap();
        assert!(matches!(p.kernels[0].body[0], Stmt::For { .. }));
    }

    #[test]
    fn local_array_decl() {
        let p = parse_src("__kernel void f() { __local int wl[1]; }").unwrap();
        match &p.kernels[0].body[0] {
            Stmt::Decl(d) => {
                assert_eq!(d.space, Space::Local);
                assert_eq!(d.array_len, Some(1));
            }
            other => panic!("bad {:?}", other),
        }
    }

    #[test]
    fn fence_flag_becomes_literal() {
        let p = parse_src("__kernel void f() { barrier(CLK_LOCAL_MEM_FENCE); }").unwrap();
        match &p.kernels[0].body[0] {
            Stmt::Expr(Expr::Call { name, args, .. }) => {
                assert_eq!(name, "barrier");
                assert!(matches!(args[0], Expr::IntLit { value: 1, .. }));
            }
            other => panic!("bad {:?}", other),
        }
    }

    #[test]
    fn do_while() {
        let p = parse_src("__kernel void f(int x) { do { x = x - 1; } while (x > 0); }").unwrap();
        assert!(matches!(p.kernels[0].body[0], Stmt::DoWhile { .. }));
    }

    #[test]
    fn rejects_assignment_to_rvalue() {
        assert!(parse_src("__kernel void f(int x) { 1 = x; }").is_err());
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse_src("__kernel void f(int x) { x = 1 }").is_err());
    }

    #[test]
    fn rejects_nonvoid_kernel() {
        assert!(parse_src("__kernel int f() { }").is_err());
    }

    #[test]
    fn two_kernels_in_one_program() {
        let p = parse_src("__kernel void a() {} __kernel void b() {}").unwrap();
        assert_eq!(p.kernels.len(), 2);
        assert!(p.kernel("b").is_some());
        assert!(p.kernel("c").is_none());
    }
}
