//! Dependency-free recursive-descent parser for the subset of Rust the
//! flow-sensitive rules need.
//!
//! Item signatures, types, generics, attributes, and patterns are skipped
//! token-wise; function bodies are parsed into [`crate::ast`] expressions
//! with evaluation order preserved. The parser is strict about structure —
//! an unrecognized construct is an error, and the parse-every-workspace-
//! file smoke test keeps that honest — but deliberately lossy about
//! types (a binary chain becomes a `Seq` of operands and operators, casts
//! and prefix operators fold into their operand).

use crate::ast::{Arm, Ast, Block, Expr, FieldDef, FnDef, Stmt, StructDef};
use crate::lexer::{Tok, TokKind};

/// A parse failure with its source line.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// 1-based line of the offending token (or last line at EOF).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Parses one lexed file into an AST.
pub fn parse(tokens: &[Tok]) -> Result<Ast, ParseError> {
    let mut p = Parser {
        t: tokens,
        i: 0,
        fns: Vec::new(),
        structs: Vec::new(),
        owner: Vec::new(),
        binds: Vec::new(),
    };
    p.items_until(false)?;
    Ok(Ast {
        fns: p.fns,
        structs: p.structs,
    })
}

/// True for an ident a pattern binds: lowercase-initial (or `_x`), not
/// `_` and not one of the keywords a pattern may carry.
fn binds(txt: &str) -> bool {
    txt.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
        && !matches!(txt, "_" | "mut" | "ref" | "box")
}

struct Parser<'a> {
    t: &'a [Tok],
    i: usize,
    fns: Vec<FnDef>,
    structs: Vec<StructDef>,
    owner: Vec<Option<String>>,
    /// Names bound by the `let` patterns of the condition being parsed.
    binds: Vec<String>,
}

impl<'a> Parser<'a> {
    // ---- token primitives -------------------------------------------------

    fn peek(&self) -> Option<&Tok> {
        self.t.get(self.i)
    }

    fn at(&self, k: usize) -> Option<&Tok> {
        self.t.get(self.i + k)
    }

    fn line(&self) -> u32 {
        self.t
            .get(self.i)
            .or_else(|| self.t.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn at_end(&self) -> bool {
        self.i >= self.t.len()
    }

    fn is_ident(&self, s: &str) -> bool {
        self.peek().map(|t| t.is_ident(s)).unwrap_or(false)
    }

    fn is_any_ident(&self) -> bool {
        self.peek()
            .map(|t| t.kind == TokKind::Ident)
            .unwrap_or(false)
    }

    fn ident_text(&self) -> Option<&str> {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => Some(t.text.as_str()),
            _ => None,
        }
    }

    fn is_punct(&self, c: char) -> bool {
        self.peek().map(|t| t.is_punct(c)).unwrap_or(false)
    }

    fn punct2(&self, a: char, b: char) -> bool {
        self.is_punct(a) && self.at(1).map(|t| t.is_punct(b)).unwrap_or(false)
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.is_punct(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.is_ident(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`, found {}", self.describe())))
        }
    }

    fn describe(&self) -> String {
        match self.peek() {
            None => "end of file".to_string(),
            Some(t) => match &t.kind {
                TokKind::Ident => format!("`{}`", t.text),
                TokKind::Num => format!("number `{}`", t.text),
                TokKind::Str => "string literal".to_string(),
                TokKind::Lifetime => format!("lifetime `'{}`", t.text),
                TokKind::Punct(c) => format!("`{c}`"),
            },
        }
    }

    // ---- structured skips -------------------------------------------------

    /// At an opening `(`, `[`, or `{`: skips past the matching closer.
    fn skip_balanced(&mut self) -> Result<(), ParseError> {
        let (open, close) = match self.peek() {
            Some(t) if t.is_punct('(') => ('(', ')'),
            Some(t) if t.is_punct('[') => ('[', ']'),
            Some(t) if t.is_punct('{') => ('{', '}'),
            _ => return Err(self.err("expected an opening bracket")),
        };
        let mut depth = 0usize;
        while !self.at_end() {
            if self.is_punct(open) {
                depth += 1;
            } else if self.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return Ok(());
                }
            }
            self.bump();
        }
        Err(self.err(format!("unclosed `{open}`")))
    }

    /// At a `<`: skips a balanced generic-argument list, treating `->` as
    /// opaque (its `>` does not close the list).
    fn skip_generics(&mut self) -> Result<(), ParseError> {
        let mut depth = 0usize;
        while !self.at_end() {
            if self.punct2('-', '>') {
                self.bump();
                self.bump();
                continue;
            }
            if self.is_punct('<') {
                depth += 1;
            } else if self.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return Ok(());
                }
            } else if self.is_punct('(') || self.is_punct('[') {
                self.skip_balanced()?;
                continue;
            }
            self.bump();
        }
        Err(self.err("unclosed `<`"))
    }

    /// Skips one `#[...]` / `#![...]` attribute (cursor at `#`).
    fn skip_attr(&mut self) -> Result<(), ParseError> {
        self.bump(); // `#`
        self.eat_punct('!');
        if self.is_punct('[') {
            self.skip_balanced()
        } else {
            Err(self.err("expected `[` after `#`"))
        }
    }

    fn skip_attrs(&mut self) -> Result<(), ParseError> {
        while self.is_punct('#') {
            self.skip_attr()?;
        }
        Ok(())
    }

    /// Skips an item header (generics, a tuple body, a `where` clause, a
    /// return type) up to the `{` or `;` that ends it, which stays.
    fn skip_header(&mut self) -> Result<(), ParseError> {
        while !self.at_end() && !self.is_punct('{') && !self.is_punct(';') {
            if self.is_punct('(') || self.is_punct('[') {
                self.skip_balanced()?;
            } else if self.is_punct('<') {
                self.skip_generics()?;
            } else {
                self.bump();
            }
        }
        Ok(())
    }

    /// Skips a type where one is syntactically required, stopping at the
    /// first token that cannot continue a type. Cast types (after `as`)
    /// take no `+` bounds and no `->`: `x as usize + y` is a cast then an
    /// addition.
    fn skip_type(&mut self, cast: bool) -> Result<(), ParseError> {
        loop {
            if self.punct2(':', ':') || (!cast && self.punct2('-', '>')) {
                self.bump();
                self.bump();
                continue;
            }
            match self.peek() {
                Some(t) if t.kind == TokKind::Ident || t.kind == TokKind::Lifetime => self.bump(),
                Some(t) if t.is_punct('&') => self.bump(),
                Some(t) if !cast && (t.is_punct('+') || t.is_punct('!')) => self.bump(),
                Some(t) if t.is_punct('*') => {
                    // Raw pointer `*const T` / `*mut T` only.
                    match self.at(1) {
                        Some(n) if n.is_ident("const") || n.is_ident("mut") => {
                            self.bump();
                            self.bump();
                        }
                        _ => return Ok(()),
                    }
                }
                Some(t) if t.is_punct('<') => self.skip_generics()?,
                Some(t) if t.is_punct('(') || t.is_punct('[') => self.skip_balanced()?,
                _ => return Ok(()),
            }
        }
    }

    /// Skips to (and past) the next `;` at bracket depth 0.
    fn skip_to_semi(&mut self) -> Result<(), ParseError> {
        while !self.at_end() {
            if self.is_punct('(') || self.is_punct('[') || self.is_punct('{') {
                self.skip_balanced()?;
                continue;
            }
            if self.eat_punct(';') {
                return Ok(());
            }
            self.bump();
        }
        Ok(()) // Tolerate a missing trailing `;` at EOF.
    }

    // ---- items ------------------------------------------------------------

    /// Parses items until EOF (`expect_close == false`) or a closing `}`.
    fn items_until(&mut self, expect_close: bool) -> Result<(), ParseError> {
        loop {
            if expect_close && self.is_punct('}') {
                self.bump();
                return Ok(());
            }
            if self.at_end() {
                if expect_close {
                    return Err(self.err("unexpected end of file in item block"));
                }
                return Ok(());
            }
            self.item()?;
        }
    }

    fn item(&mut self) -> Result<(), ParseError> {
        self.skip_attrs()?;
        if self.eat_punct(';') {
            return Ok(());
        }
        let mut is_pub = false;
        if self.eat_ident("pub") {
            is_pub = true;
            if self.is_punct('(') {
                // `pub(crate)` / `pub(super)` / `pub(in ..)` are restricted.
                is_pub = false;
                self.skip_balanced()?;
            }
        }
        // Fn modifiers; a `const` not followed by more modifiers or `fn`
        // is a const item.
        loop {
            if self.is_ident("const") {
                let next_is_mod = matches!(
                    self.at(1),
                    Some(t) if t.is_ident("fn") || t.is_ident("unsafe")
                        || t.is_ident("async") || t.is_ident("extern")
                );
                if next_is_mod {
                    self.bump();
                    continue;
                }
                self.bump(); // const item
                return self.skip_to_semi();
            }
            // `async fn`; `unsafe fn` / `unsafe impl` / `unsafe trait`.
            if self.eat_ident("async") || self.eat_ident("unsafe") {
                continue;
            }
            if self.is_ident("extern") {
                self.bump();
                if matches!(self.peek(), Some(t) if t.kind == TokKind::Str) {
                    self.bump();
                }
                if self.is_ident("crate") {
                    return self.skip_to_semi();
                }
                if self.is_punct('{') {
                    return self.skip_balanced(); // extern block
                }
                continue;
            }
            break;
        }
        if self.is_ident("fn") {
            return self.fn_item(is_pub);
        }
        if self.eat_ident("mod") {
            self.take_ident("module name")?;
            if self.eat_punct(';') {
                return Ok(());
            }
            self.expect_punct('{')?;
            return self.items_until(true);
        }
        if self.eat_ident("impl") {
            return self.impl_item();
        }
        if self.eat_ident("trait") {
            let name = self.take_ident("trait name")?;
            self.skip_header()?;
            self.expect_punct('{')?;
            self.owner.push(Some(name));
            let r = self.items_until(true);
            self.owner.pop();
            return r;
        }
        if self.is_ident("struct") {
            let line = self.line();
            self.bump();
            let name = self.take_ident("type name")?;
            // Unit `;`, tuple `(..) [where ..];`, or braced `{..}` — only
            // the braced form declares named fields worth recording.
            self.skip_header()?;
            if self.is_punct('{') {
                return self.struct_body(name, line);
            }
            self.eat_punct(';');
            return Ok(());
        }
        if self.is_ident("enum") || self.is_ident("union") {
            self.bump();
            self.take_ident("type name")?;
            // Variants / fields are opaque to the rules.
            self.skip_header()?;
            if self.is_punct('{') {
                return self.skip_balanced();
            }
            self.eat_punct(';');
            return Ok(());
        }
        if self.is_ident("use") || self.is_ident("static") || self.is_ident("type") {
            self.bump();
            return self.skip_to_semi();
        }
        if self.is_ident("macro_rules") {
            self.bump();
            self.expect_punct('!')?;
            self.take_ident("macro name")?;
            self.skip_balanced()?;
            self.eat_punct(';');
            return Ok(());
        }
        // Item-position macro invocation: `path::to::mac! { .. }`.
        if self.is_any_ident() {
            let mut k = 0usize;
            while matches!(self.at(k), Some(t) if t.kind == TokKind::Ident) {
                k += 1;
                if matches!(self.at(k), Some(t) if t.is_punct(':'))
                    && matches!(self.at(k + 1), Some(t) if t.is_punct(':'))
                {
                    k += 2;
                } else {
                    break;
                }
            }
            if matches!(self.at(k), Some(t) if t.is_punct('!')) {
                self.i += k + 1;
                self.skip_balanced()?;
                self.eat_punct(';');
                return Ok(());
            }
        }
        Err(self.err(format!("unrecognized item starting at {}", self.describe())))
    }

    fn take_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let s = t.text.clone();
                self.bump();
                Ok(s)
            }
            _ => Err(self.err(format!("expected {what}, found {}", self.describe()))),
        }
    }

    fn impl_item(&mut self) -> Result<(), ParseError> {
        if self.is_punct('<') {
            self.skip_generics()?;
        }
        // Scan the header: the self type is the last ident before `{`,
        // with `for` resetting (trait impls name the trait first).
        let mut owner_name: Option<String> = None;
        while !self.at_end() && !self.is_punct('{') {
            if self.is_ident("for") {
                owner_name = None;
                self.bump();
                continue;
            }
            if self.is_ident("where") {
                self.skip_header()?;
                break;
            }
            match self.peek() {
                Some(t) if t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("mut") => {
                    owner_name = Some(t.text.clone());
                    self.bump();
                }
                Some(t) if t.is_punct('<') => self.skip_generics()?,
                Some(t) if t.is_punct('(') || t.is_punct('[') => self.skip_balanced()?,
                _ => self.bump(),
            }
        }
        self.expect_punct('{')?;
        self.owner.push(owner_name);
        let r = self.items_until(true);
        self.owner.pop();
        r
    }

    /// Parses a braced struct body (cursor at `{`) and records the
    /// definition. Field types are kept as flat token-text lists.
    fn struct_body(&mut self, name: String, line: u32) -> Result<(), ParseError> {
        self.bump(); // `{`
        let mut fields = Vec::new();
        loop {
            self.skip_attrs()?;
            if self.eat_punct('}') {
                break;
            }
            if self.at_end() {
                return Err(self.err("unclosed struct body"));
            }
            if self.eat_ident("pub") && self.is_punct('(') {
                self.skip_balanced()?; // `pub(crate)` etc.
            }
            let field_line = self.line();
            let fname = self.take_ident("field name")?;
            self.expect_punct(':')?;
            // Type tokens up to a `,` or the closing `}` at depth 0;
            // `<`/`>` nesting guards commas inside generic arguments.
            let mut ty = Vec::new();
            let mut depth = 0usize;
            let mut angle = 0usize;
            loop {
                if self.at_end() {
                    return Err(self.err("unclosed struct field type"));
                }
                if depth == 0 && angle == 0 && (self.is_punct(',') || self.is_punct('}')) {
                    break;
                }
                if self.punct2('-', '>') {
                    ty.push("->".to_string());
                    self.bump();
                    self.bump();
                    continue;
                }
                if let Some(t) = self.peek() {
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth = depth.saturating_sub(1);
                    } else if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') {
                        angle = angle.saturating_sub(1);
                    }
                    ty.push(t.kind_text());
                }
                self.bump();
            }
            self.eat_punct(',');
            fields.push(FieldDef {
                name: fname,
                ty,
                line: field_line,
            });
        }
        self.structs.push(StructDef { name, fields, line });
        Ok(())
    }

    /// Parses a fn parameter list (cursor at `(`), collecting bound names
    /// (same heuristic as patterns, `self` included) and the flattened
    /// type-token texts across all parameters.
    fn fn_params(&mut self) -> Result<(Vec<String>, Vec<String>), ParseError> {
        self.expect_punct('(')?;
        let mut params = Vec::new();
        let mut tys = Vec::new();
        let mut in_type = false;
        let mut depth = 0usize;
        let mut angle = 0usize;
        loop {
            if self.at_end() {
                return Err(self.err("unclosed fn parameter list"));
            }
            if depth == 0 && angle == 0 {
                if self.is_punct(')') {
                    self.bump();
                    return Ok((params, tys));
                }
                if self.is_punct(',') {
                    in_type = false;
                    self.bump();
                    continue;
                }
                if self.is_punct(':') && !self.punct2(':', ':') {
                    in_type = true;
                    self.bump();
                    continue;
                }
            }
            if self.punct2('-', '>') {
                self.bump();
                self.bump();
                continue;
            }
            if self.is_punct('#') {
                self.skip_attr()?;
                continue;
            }
            if let Some(t) = self.peek() {
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle = angle.saturating_sub(1);
                } else if t.kind == TokKind::Ident {
                    let txt = t.text.clone();
                    if in_type {
                        tys.push(txt);
                    } else if binds(&txt) {
                        params.push(txt);
                    }
                }
            }
            self.bump();
        }
    }

    fn fn_item(&mut self, is_pub: bool) -> Result<(), ParseError> {
        let line = self.line();
        self.bump(); // `fn`
        let name = self.take_ident("function name")?;
        if self.is_punct('<') {
            self.skip_generics()?;
        }
        if !self.is_punct('(') {
            return Err(self.err(format!("expected `(` after fn {name}")));
        }
        let (params, param_tys) = self.fn_params()?;
        let mut returns_result = false;
        if self.punct2('-', '>') {
            self.bump();
            self.bump();
            // Scan the return type up to `{`, `;`, or `where`.
            loop {
                if self.at_end()
                    || self.is_punct('{')
                    || self.is_punct(';')
                    || self.is_ident("where")
                {
                    break;
                }
                if self.is_ident("Result") {
                    returns_result = true;
                }
                if self.is_punct('<') {
                    self.skip_generics()?;
                } else if self.is_punct('(') || self.is_punct('[') {
                    self.skip_balanced()?;
                } else {
                    self.bump();
                }
            }
        }
        if self.is_ident("where") {
            self.skip_header()?;
        }
        let (body, end_line) = if self.eat_punct(';') {
            (None, line)
        } else if self.is_punct('{') {
            let (b, end) = self.block()?;
            (Some(b), end)
        } else {
            return Err(self.err(format!("expected `{{` or `;` after fn {name} signature")));
        };
        self.fns.push(FnDef {
            name,
            owner: self.owner.last().cloned().flatten(),
            is_pub,
            returns_result,
            params,
            param_tys,
            line,
            end_line,
            body,
        });
        Ok(())
    }

    // ---- statements -------------------------------------------------------

    /// Parses a `{ ... }` block (cursor at `{`). Returns the block and the
    /// line of the closing brace.
    fn block(&mut self) -> Result<(Block, u32), ParseError> {
        self.expect_punct('{')?;
        let mut stmts = Vec::new();
        loop {
            if self.is_punct('}') {
                let end = self.line();
                self.bump();
                return Ok((Block { stmts }, end));
            }
            if self.at_end() {
                return Err(self.err("unexpected end of file in block"));
            }
            if self.is_punct('#') {
                self.skip_attr()?;
                continue;
            }
            if self.eat_punct(';') {
                continue;
            }
            // Loop labels: `'name: loop { .. }`.
            if matches!(self.peek(), Some(t) if t.kind == TokKind::Lifetime)
                && matches!(self.at(1), Some(t) if t.is_punct(':'))
            {
                self.bump();
                self.bump();
                continue;
            }
            if self.is_ident("let") {
                stmts.push(self.let_stmt()?);
                continue;
            }
            if self.starts_item_in_block() {
                self.item()?;
                continue;
            }
            let e = self.expr(false)?;
            stmts.push(Stmt::Expr(e));
            self.eat_punct(';');
        }
    }

    /// True when the current token begins a nested item rather than an
    /// expression statement.
    fn starts_item_in_block(&self) -> bool {
        let Some(text) = self.ident_text() else {
            return false;
        };
        match text {
            "fn" | "pub" | "struct" | "enum" | "union" | "impl" | "trait" | "mod" | "use"
            | "static" | "macro_rules" | "type" => true,
            // `unsafe fn` is an item; `unsafe { .. }` is an expression.
            "unsafe" => matches!(self.at(1), Some(t) if t.is_ident("fn")),
            // `const fn`/`const X: T` are items; `const { .. }` would be an
            // expression (unused in this workspace).
            "const" => !matches!(self.at(1), Some(t) if t.is_punct('{')),
            _ => false,
        }
    }

    /// Scans a pattern up to a depth-0 terminator. Collects bound names
    /// (heuristic) and whether the pattern is exactly `_`. Terminators:
    /// `=` (not `..=`), plus any of `stops` idents, `:`, or `;` if enabled.
    fn scan_pattern(
        &mut self,
        stop_colon: bool,
        stop_ident: Option<&str>,
    ) -> Result<(Vec<String>, bool), ParseError> {
        let mut names = Vec::new();
        let mut count = 0usize;
        let mut only_wild = true;
        let mut depth = 0usize;
        let mut prev_dots = 0u8; // run length of consecutive `.` puncts
        while let Some(t) = self.peek() {
            if depth == 0
                && (t.is_punct(';')
                    || (stop_colon && t.is_punct(':') && !self.punct2(':', ':'))
                    || (t.is_punct('=') && prev_dots < 2)
                    || stop_ident.is_some_and(|s| t.is_ident(s)))
            {
                break;
            }
            if t.is_punct('.') {
                prev_dots = prev_dots.saturating_add(1);
                self.bump();
                continue;
            }
            prev_dots = 0;
            // `::` consumed atomically, or the second colon of
            // `Node::Internal` would look like a type annotation.
            if self.punct2(':', ':') {
                self.i += 2;
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else {
                count += 1;
                if t.kind == TokKind::Ident {
                    only_wild &= t.text == "_";
                    if binds(&t.text) {
                        names.push(t.text.clone());
                    }
                }
            }
            self.bump();
        }
        Ok((names, count == 1 && only_wild))
    }

    fn let_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        self.bump(); // `let`
        let (names, wild) = self.scan_pattern(true, None)?;
        if self.is_punct(':') {
            self.bump();
            self.skip_type(false)?;
        }
        let init = if self.eat_punct('=') {
            Some(self.expr(false)?)
        } else {
            None
        };
        let else_block = if self.eat_ident("else") {
            let (b, _) = self.block()?;
            Some(b)
        } else {
            None
        };
        self.eat_punct(';');
        Ok(Stmt::Let {
            names,
            wild,
            init,
            else_block,
            line,
        })
    }

    // ---- expressions ------------------------------------------------------

    /// Parses a full expression at the current binary-operator level.
    /// `no_struct` suppresses struct literals (condition/scrutinee
    /// positions, where `{` starts the block instead).
    fn expr(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let line = self.line();
        let mut items = vec![self.operand(no_struct)?];
        let mut ops = Vec::new();
        loop {
            if self.eat_ident("as") {
                self.skip_type(true)?;
                continue;
            }
            if self.punct2('.', '.') {
                self.bump();
                self.bump();
                self.eat_punct('=');
                if self.can_start_operand() {
                    ops.push("..");
                    items.push(self.operand(no_struct)?);
                }
                continue;
            }
            let Some(op) = self.binop() else { break };
            ops.push(op);
            items.push(self.operand(no_struct)?);
        }
        if items.len() == 1 {
            return Ok(items.pop().unwrap_or(Expr::Atom { line }));
        }
        Ok(Expr::Seq { items, ops, line })
    }

    /// Consumes one binary/assignment operator if present and returns it,
    /// longest match first. `=>` is never an operator.
    fn binop(&mut self) -> Option<&'static str> {
        const OPS: [&str; 29] = [
            "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
            "%=", "^=", "&=", "|=", "+", "-", "*", "/", "%", "^", "&", "|", "<", ">", "=",
        ];
        if self.punct2('=', '>') {
            return None;
        }
        let op = OPS.into_iter().find(|op| {
            op.chars()
                .enumerate()
                .all(|(k, c)| self.at(k).is_some_and(|t| t.is_punct(c)))
        })?;
        self.i += op.len();
        Some(op)
    }

    /// True when the current token can begin an operand (used to decide
    /// whether a trailing `..` has a right-hand side).
    fn can_start_operand(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match &t.kind {
                TokKind::Ident => !matches!(t.text.as_str(), "else" | "in" | "where"),
                TokKind::Num | TokKind::Str => true,
                TokKind::Lifetime => false,
                TokKind::Punct(c) => "([&*!-|".contains(*c),
            },
        }
    }

    /// Parses one operand: prefix operators fold into the operand, postfix
    /// (`.field`, `.method()`, `(..)`, `[..]`, `?`) chains onto it.
    fn operand(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let line = self.line();
        // Prefix operators are transparent.
        if self.is_punct('&') {
            self.bump();
            self.eat_ident("mut");
            return self.operand(no_struct);
        }
        if self.is_punct('*') || self.is_punct('!') || self.is_punct('-') {
            self.bump();
            return self.operand(no_struct);
        }
        // Leading range: `..n`, `..=n`, bare `..`.
        if self.punct2('.', '.') {
            self.bump();
            self.bump();
            self.eat_punct('=');
            if self.can_start_operand() {
                return self.operand(no_struct);
            }
            return Ok(Expr::Atom { line });
        }
        if self.is_punct('#') {
            self.skip_attr()?;
            return self.operand(no_struct);
        }
        let base = self.operand_base(no_struct, line)?;
        self.postfix(base)
    }

    fn operand_base(&mut self, no_struct: bool, line: u32) -> Result<Expr, ParseError> {
        if self.eat_ident("move") {
            if self.is_punct('|') {
                return self.closure(line);
            }
            return Err(self.err("expected closure after `move`"));
        }
        if self.is_punct('|') {
            return self.closure(line);
        }
        if self.is_ident("if") {
            return self.if_expr();
        }
        if self.is_ident("match") {
            return self.match_expr();
        }
        if self.eat_ident("loop") {
            let (body, _) = self.block()?;
            return Ok(Expr::Loop { body, line });
        }
        if self.eat_ident("while") {
            let (cond, binds) = self.cond()?;
            let (body, _) = self.block()?;
            return Ok(Expr::While {
                cond: Box::new(cond),
                binds,
                body,
                line,
            });
        }
        if self.eat_ident("for") {
            let (binds, _) = self.scan_pattern(false, Some("in"))?;
            if !self.eat_ident("in") {
                return Err(self.err("expected `in` in for loop"));
            }
            let iter = self.expr(true)?;
            let (body, _) = self.block()?;
            return Ok(Expr::For {
                binds,
                iter: Box::new(iter),
                body,
                line,
            });
        }
        if self.eat_ident("unsafe") {
            let (block, _) = self.block()?;
            return Ok(Expr::Block { block, line });
        }
        if self.eat_ident("return") {
            let value = if self.can_start_operand() || self.is_ident("if") || self.is_ident("match")
            {
                Some(Box::new(self.expr(no_struct)?))
            } else {
                None
            };
            return Ok(Expr::Ret { value, line });
        }
        if self.eat_ident("break") {
            if matches!(self.peek(), Some(t) if t.kind == TokKind::Lifetime) {
                self.bump();
            }
            if self.can_start_operand() || self.is_ident("if") || self.is_ident("match") {
                return self.expr(no_struct);
            }
            return Ok(Expr::Atom { line });
        }
        if self.eat_ident("continue") {
            if matches!(self.peek(), Some(t) if t.kind == TokKind::Lifetime) {
                self.bump();
            }
            return Ok(Expr::Atom { line });
        }
        // `let` in condition position (`if let`, `while let`, let-chains).
        if self.eat_ident("let") {
            let (names, _) = self.scan_pattern(false, None)?;
            self.binds.extend(names);
            self.expect_punct('=')?;
            return self.expr(no_struct);
        }
        // Qualified path `<T as Trait>::method`.
        if self.is_punct('<') {
            self.skip_generics()?;
            let mut segs = vec![String::new()];
            while self.punct2(':', ':') {
                self.bump();
                self.bump();
                if self.is_punct('<') {
                    self.skip_generics()?;
                    continue;
                }
                segs.push(self.take_ident("path segment")?);
            }
            return Ok(Expr::Path { segs, line });
        }
        if self.is_any_ident() {
            return self.path_operand(no_struct, line);
        }
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokKind::Num) | Some(TokKind::Str) | Some(TokKind::Lifetime) => {
                self.bump();
                Ok(Expr::Atom { line })
            }
            Some(TokKind::Punct('(')) => {
                self.bump();
                let mut items = self.list(')')?;
                if items.len() == 1 {
                    Ok(items.pop().unwrap_or(Expr::Atom { line }))
                } else {
                    Ok(Expr::Seq {
                        items,
                        ops: Vec::new(),
                        line,
                    })
                }
            }
            Some(TokKind::Punct('[')) => {
                self.bump();
                let items = self.list(']')?;
                Ok(Expr::Seq {
                    items,
                    ops: Vec::new(),
                    line,
                })
            }
            Some(TokKind::Punct('{')) => {
                let (block, _) = self.block()?;
                Ok(Expr::Block { block, line })
            }
            _ => Err(self.err(format!("expected expression, found {}", self.describe()))),
        }
    }

    /// Parses a path-rooted operand: path, macro call, or struct literal.
    fn path_operand(&mut self, no_struct: bool, line: u32) -> Result<Expr, ParseError> {
        let mut segs = vec![self.take_ident("path segment")?];
        loop {
            if self.punct2(':', ':') {
                self.bump();
                self.bump();
                if self.is_punct('<') {
                    self.skip_generics()?; // Turbofish.
                    continue;
                }
                segs.push(self.take_ident("path segment")?);
                continue;
            }
            break;
        }
        // Macro invocation (`name!(..)`, `name![..]`, `name!{..}`).
        if self.is_punct('!') && !self.punct2('!', '=') {
            self.bump();
            let name = segs.last().cloned().unwrap_or_default();
            self.skip_balanced()?;
            return Ok(Expr::Macro { name, line });
        }
        if self.is_punct('{') && !no_struct {
            return self.struct_literal(segs, line);
        }
        Ok(Expr::Path { segs, line })
    }

    fn struct_literal(&mut self, segs: Vec<String>, line: u32) -> Result<Expr, ParseError> {
        self.bump(); // `{`
        let mut items = vec![Expr::Path { segs, line }];
        loop {
            if self.eat_punct('}') {
                break;
            }
            if self.at_end() {
                return Err(self.err("unclosed struct literal"));
            }
            if self.punct2('.', '.') {
                // Struct update `..base`.
                self.bump();
                self.bump();
                items.push(self.expr(false)?);
                continue;
            }
            let field_line = self.line();
            let name = self.take_ident("field name")?;
            if self.eat_punct(':') {
                items.push(self.expr(false)?);
            } else {
                items.push(Expr::Path {
                    segs: vec![name],
                    line: field_line,
                });
            }
            self.eat_punct(',');
        }
        Ok(Expr::Seq {
            items,
            ops: Vec::new(),
            line,
        })
    }

    fn closure(&mut self, line: u32) -> Result<Expr, ParseError> {
        self.expect_punct('|')?;
        // Parameters: tokens to the closing `|` at depth 0, collecting
        // bound names; `:` switches to (skipped) type position until the
        // next depth-0 `,`.
        let mut params = Vec::new();
        let mut in_type = false;
        let mut depth = 0usize;
        loop {
            if self.at_end() {
                return Err(self.err("unclosed closure parameter list"));
            }
            if depth == 0 && self.is_punct('|') {
                self.bump();
                break;
            }
            if depth == 0 && self.is_punct(',') {
                in_type = false;
                self.bump();
                continue;
            }
            if depth == 0 && self.is_punct(':') && !self.punct2(':', ':') {
                in_type = true;
                self.bump();
                continue;
            }
            if self.is_punct('(') || self.is_punct('[') {
                depth += 1;
                self.bump();
            } else if self.is_punct(')') || self.is_punct(']') {
                depth = depth.saturating_sub(1);
                self.bump();
            } else if self.is_punct('<') {
                self.skip_generics()?;
            } else {
                if let Some(txt) = self.ident_text().filter(|t| !in_type && binds(t)) {
                    params.push(txt.to_string());
                }
                self.bump();
            }
        }
        if self.punct2('-', '>') {
            self.bump();
            self.bump();
            // Explicit return type requires a block body.
            self.skip_header()?;
        }
        let body = self.expr(false)?;
        Ok(Expr::Closure {
            params,
            body: Box::new(body),
            line,
        })
    }

    /// An `if`/`while` condition and the names its `let` patterns bind.
    fn cond(&mut self) -> Result<(Expr, Vec<String>), ParseError> {
        let outer = std::mem::take(&mut self.binds);
        let cond = self.expr(true)?;
        Ok((cond, std::mem::replace(&mut self.binds, outer)))
    }

    fn if_expr(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        self.bump(); // `if`
        let (cond, binds) = self.cond()?;
        let (then, _) = self.block()?;
        let alt = if self.eat_ident("else") {
            if self.is_ident("if") {
                Some(Box::new(self.if_expr()?))
            } else {
                let alt_line = self.line();
                let (block, _) = self.block()?;
                Some(Box::new(Expr::Block {
                    block,
                    line: alt_line,
                }))
            }
        } else {
            None
        };
        Ok(Expr::If {
            cond: Box::new(cond),
            binds,
            then,
            alt,
            line,
        })
    }

    fn match_expr(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        self.bump(); // `match`
        let scrutinee = self.expr(true)?;
        self.expect_punct('{')?;
        let mut arms = Vec::new();
        loop {
            if self.eat_punct('}') {
                break;
            }
            if self.at_end() {
                return Err(self.err("unclosed match block"));
            }
            self.skip_attrs()?;
            let arm_line = self.line();
            // Pattern + optional guard, up to `=>` at depth 0.
            let mut pat = Vec::new();
            let mut depth = 0usize;
            loop {
                if self.at_end() {
                    return Err(self.err("match arm without `=>`"));
                }
                if depth == 0 && self.punct2('=', '>') {
                    self.bump();
                    self.bump();
                    break;
                }
                let Some(t) = self.peek() else { break };
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                }
                pat.push(t.kind_text());
                self.bump();
            }
            // A `{ … }` body ends the arm outright: the next arm's slice
            // or tuple pattern must not postfix onto it as an index/call.
            let body = if self.is_punct('{') {
                let body_line = self.line();
                let (b, _) = self.block()?;
                Expr::Block {
                    block: b,
                    line: body_line,
                }
            } else {
                self.expr(false)?
            };
            self.eat_punct(',');
            // A guard's idents are uses, not bindings.
            let names = pat.iter().take_while(|t| *t != "if");
            arms.push(Arm {
                binds: names.filter(|t| binds(t)).cloned().collect(),
                pat,
                body,
                line: arm_line,
            });
        }
        Ok(Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        })
    }

    fn postfix(&mut self, mut e: Expr) -> Result<Expr, ParseError> {
        loop {
            if self.is_punct('.') && !self.punct2('.', '.') {
                let line = self.at(1).map(|t| t.line).unwrap_or_else(|| self.line());
                self.bump();
                match self.peek().map(|t| t.kind.clone()) {
                    Some(TokKind::Num) => {
                        let name = self.peek().map(|t| t.text.clone()).unwrap_or_default();
                        self.bump();
                        e = Expr::Field {
                            base: Box::new(e),
                            name,
                            line,
                        };
                    }
                    Some(TokKind::Ident) => {
                        if self.is_ident("await") {
                            self.bump();
                            continue;
                        }
                        let name = self.take_ident("member name")?;
                        if self.punct2(':', ':') {
                            self.bump();
                            self.bump();
                            if self.is_punct('<') {
                                self.skip_generics()?; // `.collect::<T>()`
                            }
                        }
                        if self.is_punct('(') {
                            let args = self.args()?;
                            e = Expr::MethodCall {
                                recv: Box::new(e),
                                method: name,
                                args,
                                line,
                            };
                        } else {
                            e = Expr::Field {
                                base: Box::new(e),
                                name,
                                line,
                            };
                        }
                    }
                    _ => return Err(self.err("expected member name after `.`")),
                }
                continue;
            }
            if self.is_punct('(') {
                let line = self.line();
                let args = self.args()?;
                e = Expr::Call {
                    func: Box::new(e),
                    args,
                    line,
                };
                continue;
            }
            if self.is_punct('[') {
                let line = self.line();
                self.bump();
                let idx = if self.is_punct(']') {
                    Expr::Atom { line }
                } else {
                    self.expr(false)?
                };
                self.expect_punct(']')?;
                e = Expr::Seq {
                    items: vec![e, idx],
                    ops: Vec::new(),
                    line,
                };
                continue;
            }
            if self.eat_punct('?') {
                continue;
            }
            break;
        }
        Ok(e)
    }

    fn args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect_punct('(')?;
        self.list(')')
    }

    /// Parses comma-separated expressions (`;` too, for `[x; n]`) up to
    /// and past `close`; the cursor is past the opener.
    fn list(&mut self, close: char) -> Result<Vec<Expr>, ParseError> {
        let mut items = Vec::new();
        while !self.is_punct(close) && !self.at_end() {
            items.push(self.expr(false)?);
            if !self.eat_punct(',') && !self.eat_punct(';') {
                break;
            }
        }
        self.expect_punct(close)?;
        Ok(items)
    }
}

impl Tok {
    /// Text form used in pattern token lists.
    fn kind_text(&self) -> String {
        match &self.kind {
            TokKind::Ident | TokKind::Num | TokKind::Lifetime => self.text.clone(),
            TokKind::Str => "\"\"".to_string(),
            TokKind::Punct(c) => c.to_string(),
        }
    }
}
