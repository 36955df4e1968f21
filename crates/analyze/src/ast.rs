//! Lightweight Rust AST produced by [`crate::parser`] — just enough
//! structure for flow-sensitive rules: function bodies as statement lists,
//! expressions with calls / method chains / branches, and match arms with
//! their raw pattern tokens.
//!
//! The AST is deliberately lossy: types, generics, and patterns are
//! reduced to what the rules inspect (a pattern to the names it binds, a
//! binary chain to its operands and operators). Operand order is
//! preserved (left-to-right evaluation order), which is what the
//! write-ahead rule depends on.

/// Parsed file: every `fn` found anywhere in the file (top level, inside
/// `impl`/`trait` blocks, inline modules, or nested in bodies), in source
/// order, plus every braced `struct` definition.
#[derive(Clone, Debug, Default)]
pub struct Ast {
    /// All function definitions.
    pub fns: Vec<FnDef>,
    /// All braced `struct` definitions (tuple/unit structs omitted —
    /// the concurrency rules only reason about named shared fields).
    pub structs: Vec<StructDef>,
}

/// A braced `struct` definition.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Named fields in declaration order.
    pub fields: Vec<FieldDef>,
    /// Line of the `struct` keyword.
    pub line: u32,
}

/// One named struct field.
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Type as a flat token-text list (`Mutex < Inbox >` →
    /// `["Mutex", "<", "Inbox", ">"]`) — enough to classify the leading
    /// wrapper and search for embedded sync types.
    pub ty: Vec<String>,
    /// Line of the field name.
    pub line: u32,
}

/// One `fn` definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`FsdVolume` for
    /// `impl FsdVolume { fn f() }`).
    pub owner: Option<String>,
    /// True only for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// True if the declared return type mentions `Result`.
    pub returns_result: bool,
    /// Parameter binding names in order (`self` included for methods;
    /// pattern parameters contribute their bound idents).
    pub params: Vec<String>,
    /// Parameter type token texts, flattened across all parameters —
    /// lossy, but enough to ask "does any parameter mention `FsdVolume`".
    pub param_tys: Vec<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the closing brace (or the `;` for bodyless declarations).
    pub end_line: u32,
    /// Body; `None` for trait method declarations.
    pub body: Option<Block>,
}

/// A `{ ... }` statement list.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `let pat[: ty] [= init] [else { .. }];`
    Let {
        /// Lower-case identifiers bound by the pattern (heuristic: every
        /// lowercase-initial ident that is not `mut`/`ref`/`box`; the
        /// same for every pattern the AST records).
        names: Vec<String>,
        /// True when the pattern is exactly `_`.
        wild: bool,
        /// Initializer, if present.
        init: Option<Expr>,
        /// `else` block of a let-else.
        else_block: Option<Block>,
        /// Line of the `let`.
        line: u32,
    },
    /// Expression statement (trailing `;` or not).
    Expr(Expr),
}

/// One match arm.
#[derive(Clone, Debug)]
pub struct Arm {
    /// Raw pattern (and guard) token texts; punctuation as single chars,
    /// string literals as `""`.
    pub pat: Vec<String>,
    /// Names the pattern binds.
    pub binds: Vec<String>,
    /// Arm body.
    pub body: Expr,
    /// Line of the first pattern token.
    pub line: u32,
}

/// An expression. Prefix operators, casts, parentheses, and `?` are folded
/// into their operand; binary chains become [`Expr::Seq`] with their
/// operators.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Path expression `a::b::c` (bare idents included).
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Line of the first segment.
        line: u32,
    },
    /// Call `callee(args)`.
    Call {
        /// Callee expression (usually a `Path`).
        func: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
        /// Line of the opening paren.
        line: u32,
    },
    /// Method call `recv.name(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments in order.
        args: Vec<Expr>,
        /// Line of the method name.
        line: u32,
    },
    /// Field access `base.name` (tuple indices included).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        name: String,
        /// Line of the field name.
        line: u32,
    },
    /// Operand sequence in evaluation order: binary chains, tuples, array
    /// literals, struct literals (path first, then field values), and
    /// indexing (`base` then index).
    Seq {
        /// Operands in evaluation order.
        items: Vec<Expr>,
        /// A binary chain's operators (`ops[k]` stands between `items[k]`
        /// and `items[k + 1]`: `"+"`, `"<<="`, `".."`); empty otherwise.
        ops: Vec<&'static str>,
        /// Line of the first operand.
        line: u32,
    },
    /// Block expression (incl. `unsafe { .. }`).
    Block {
        /// The block.
        block: Block,
        /// Line of the opening brace.
        line: u32,
    },
    /// `if cond { then } [else alt]` (alt is a Block or a nested If).
    If {
        /// Condition (with any `let` pattern stripped).
        cond: Box<Expr>,
        /// Names an `if let` pattern binds.
        binds: Vec<String>,
        /// Then block.
        then: Block,
        /// Else branch.
        alt: Option<Box<Expr>>,
        /// Line of the `if`.
        line: u32,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
        /// Line of the `match`.
        line: u32,
    },
    /// `loop { body }`.
    Loop {
        /// Body.
        body: Block,
        /// Line of the `loop`.
        line: u32,
    },
    /// `while cond { body }` (incl. `while let`).
    While {
        /// Condition (with any `let` pattern stripped).
        cond: Box<Expr>,
        /// Names a `while let` pattern binds.
        binds: Vec<String>,
        /// Body.
        body: Block,
        /// Line of the `while`.
        line: u32,
    },
    /// `for pat in iter { body }`.
    For {
        /// Names the pattern binds.
        binds: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
        /// Line of the `for`.
        line: u32,
    },
    /// Closure `[move] |args| body`.
    Closure {
        /// Identifiers bound by the parameter list (same heuristic as
        /// `Stmt::Let` pattern names).
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
        /// Line of the opening `|`.
        line: u32,
    },
    /// `return [value]`.
    Ret {
        /// Returned value.
        value: Option<Box<Expr>>,
        /// Line of the `return`.
        line: u32,
    },
    /// Macro invocation; contents are opaque.
    Macro {
        /// Last path segment of the macro name.
        name: String,
        /// Line of the macro name.
        line: u32,
    },
    /// Literal, `continue`, bare `break`, or other leaf.
    Atom {
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// Source line of the expression.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Seq { line, .. }
            | Expr::Block { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::Loop { line, .. }
            | Expr::While { line, .. }
            | Expr::For { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Ret { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Atom { line } => *line,
        }
    }

    /// The simple name an expression ends in: `self.log` → `log`,
    /// `log` → `log`, `a::b::c` → `c`. `None` for anything structured.
    pub fn last_name(&self) -> Option<&str> {
        match self {
            Expr::Path { segs, .. } => segs.last().map(|s| s.as_str()),
            Expr::Field { name, .. } => Some(name.as_str()),
            _ => None,
        }
    }
}

/// The one traversal under the rule walkers. The default methods visit
/// every child in evaluation order — receiver before arguments,
/// scrutinee before arms, a `let` initialiser before its `else` block —
/// by calling the free `walk_*` helpers; a rule overrides the method for
/// the node kinds it gives meaning to and calls the helper (before,
/// after, or not at all) for the rest. Nothing else in the crate spells
/// out the children of a [`Stmt`] or [`Expr`] variant, except the taint
/// interpreter, whose every arm returns a value.
pub trait Visit {
    /// Visits a block: its statements in order.
    fn block(&mut self, b: &Block) {
        walk_block(self, b);
    }

    /// Visits a statement, at any nesting depth.
    fn stmt(&mut self, s: &Stmt) {
        walk_stmt(self, s);
    }

    /// Visits an expression.
    fn expr(&mut self, e: &Expr) {
        walk_expr(self, e);
    }
}

/// Visits the block's statements in order.
pub fn walk_block<V: Visit + ?Sized>(v: &mut V, b: &Block) {
    for s in &b.stmts {
        v.stmt(s);
    }
}

/// Visits a statement's children: a `let`'s initialiser, then its `else`
/// block.
pub fn walk_stmt<V: Visit + ?Sized>(v: &mut V, s: &Stmt) {
    match s {
        Stmt::Let {
            init, else_block, ..
        } => {
            if let Some(e) = init {
                v.expr(e);
            }
            if let Some(eb) = else_block {
                v.block(eb);
            }
        }
        Stmt::Expr(e) => v.expr(e),
    }
}

/// Visits an expression's children in evaluation order.
pub fn walk_expr<V: Visit + ?Sized>(v: &mut V, e: &Expr) {
    match e {
        Expr::Path { .. } | Expr::Macro { .. } | Expr::Atom { .. } => {}
        Expr::Call { func, args, .. } => {
            v.expr(func);
            for a in args {
                v.expr(a);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            v.expr(recv);
            for a in args {
                v.expr(a);
            }
        }
        Expr::Field { base, .. } => v.expr(base),
        Expr::Seq { items, .. } => {
            for it in items {
                v.expr(it);
            }
        }
        Expr::Block { block, .. } | Expr::Loop { body: block, .. } => v.block(block),
        Expr::If {
            cond, then, alt, ..
        } => {
            v.expr(cond);
            v.block(then);
            if let Some(a) = alt {
                v.expr(a);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            v.expr(scrutinee);
            for arm in arms {
                v.expr(&arm.body);
            }
        }
        Expr::While { cond, body, .. } => {
            v.expr(cond);
            v.block(body);
        }
        Expr::For { iter, body, .. } => {
            v.expr(iter);
            v.block(body);
        }
        Expr::Closure { body, .. } => v.expr(body),
        Expr::Ret { value, .. } => {
            if let Some(value) = value {
                v.expr(value);
            }
        }
    }
}

/// [`Visit`] as a closure: `f` sees every expression, parents first.
struct EachExpr<F>(F);

impl<F: FnMut(&Expr)> Visit for EachExpr<F> {
    fn expr(&mut self, e: &Expr) {
        (self.0)(e);
        walk_expr(self, e);
    }
}

/// Calls `f` on every expression in the block, at any statement depth,
/// parents first, in evaluation order.
pub fn each_expr_in(b: &Block, f: impl FnMut(&Expr)) {
    EachExpr(f).block(b);
}

/// Calls `f` on `e` and every expression inside it, parents first.
pub fn each_expr(e: &Expr, f: impl FnMut(&Expr)) {
    EachExpr(f).expr(e);
}
