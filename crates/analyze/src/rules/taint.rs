//! disk-taint / taint-arith / decode-coverage: prove that every on-disk
//! byte is validated before it steers recovery.
//!
//! Cedar's robustness story (§4) is that recovery trusts nothing but
//! self-certifying structures — but one page number or length decoded from
//! a corrupted sector becomes a panic (`nt_a_sector`'s range assert, the
//! VAM bitmap), an OOM (`with_capacity`), or a wild disk write (a spare
//! map or redo target steering an `IoBatch`) during the one phase that
//! must never fail. This family checks the discipline statically:
//!
//! * **sources** — raw disk reads and the typed decode helpers over their
//!   bytes (`taint_source_calls`). A binding initialized from one is
//!   tainted, and taint follows assignments, field accesses, method
//!   chains, `match`/`if let`/`for` pattern bindings, and call returns.
//! * **sanitizers** — a dominating `if`/`while` check whose condition
//!   compares a tainted variable, bounded accessors / checked conversions
//!   (`taint_sanitizer_methods`), and validator calls
//!   (`taint_validator_calls`: `runs_sane`, `validate`) that vouch for
//!   their receiver and arguments with a typed error.
//! * **sinks** — panic-prone or region-critical calls
//!   (`taint_sink_calls`): layout address math, VAM bitmap ops,
//!   allocation lengths, and addresses handed to batched I/O.
//!
//! Flows are tracked interprocedurally with per-function summaries
//! computed to fixpoint over the call graph (same shape as `wal-order`):
//! whether the return value is disk-derived, which parameters flow to the
//! return, and which parameters reach a sink unvalidated. A call passing
//! a tainted argument to an unsafe parameter is a finding at the call
//! site. Findings are only *emitted* for the recovery trust boundary
//! (`taint_files`); summaries cover the whole workspace.
//!
//! **taint-arith** flags a tainted variable as an operand of `+`/`*`/`<<`
//! before any range check — sector arithmetic that overflows in debug
//! builds or fabricates wild addresses. The variable must stand next to
//! the operator: on its left as a bare name, on its right as the root of
//! a path, field or method chain; field-expression arithmetic is caught
//! once the field is bound to a variable.
//!
//! **decode-coverage** is the completeness backstop: every configured
//! on-disk struct field (`decode_fields`) must be mentioned inside a
//! validator fn body or sit adjacent to a comparison / sanitizer method
//! somewhere in library code — so adding a field to an on-disk struct
//! without teaching a validator about it is itself a finding.

use crate::ast::{self, Block, Expr, FnDef, Stmt};
use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::flow::{self, BranchEnd, Paths};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::{Analysis, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Taint carried by one value: a disk-byte origin (with a human
/// description of where it came from) and/or the set of parameters of the
/// current function it derives from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Taint {
    /// `Some(origin)` when the value derives from raw disk bytes.
    src: Option<String>,
    /// Parameter indices (into `FnDef::params`) the value derives from.
    params: BTreeSet<usize>,
}

impl Taint {
    fn clean() -> Self {
        Self::default()
    }

    fn is_clean(&self) -> bool {
        self.src.is_none() && self.params.is_empty()
    }

    fn union(&mut self, other: &Taint) {
        if self.src.is_none() {
            self.src = other.src.clone();
        }
        self.params.extend(other.params.iter().copied());
    }
}

/// Per-function flow summary, computed to fixpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Summary {
    /// The return value derives from raw disk bytes read inside.
    returns_src: bool,
    /// Parameters that flow (unsanitized) into the return value.
    returns_params: BTreeSet<usize>,
    /// Parameter index -> description of the first unvalidated use
    /// (sink or arithmetic) it reaches inside this function.
    unsafe_params: BTreeMap<usize, String>,
}

/// Runs the disk-taint family: `disk-taint`, `taint-arith`, and
/// `decode-coverage`.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let (cg, config) = (&a.cg, a.config);
    let mut out = decode_coverage(a.files, config);
    if config.taint_files.is_empty() {
        return out;
    }
    let sums = flow::summaries(cg, |node, sums| {
        let Some((w, ret)) = walk_node(cg, config, sums, node) else {
            return Summary::default();
        };
        Summary {
            returns_src: ret.src.is_some(),
            returns_params: ret.params,
            unsafe_params: w.param_uses,
        }
    });
    // Findings: re-walk the trust-boundary files with converged summaries.
    for (node, file, _) in cg.iter() {
        if !config.taint_files.contains(&file.rel.as_str()) {
            continue;
        }
        if let Some((w, _)) = walk_node(cg, config, &sums, node) {
            out.extend(w.viols);
        }
    }
    out
}

/// Walks one call-graph node with the given summaries; returns the
/// walker and the taint of the fn's return value. `None` for test code
/// and bodyless declarations.
fn walk_node<'a>(
    cg: &'a CallGraph<'a>,
    config: &'a Config,
    sums: &'a [Summary],
    node: usize,
) -> Option<(Walker<'a>, Taint)> {
    let body = cg.rule_body(node)?;
    let mut w = Walker::new(cg, config, sums, cg.file_of(node), cg.nodes[node].def);
    let mut ret = w.block(body);
    ret.union(&std::mem::take(&mut w.ret));
    Some((w, ret))
}

struct Walker<'a> {
    cg: &'a CallGraph<'a>,
    config: &'a Config,
    sums: &'a [Summary],
    file: &'a SourceFile,
    def: &'a FnDef,
    /// Current taint of each live binding.
    vars: BTreeMap<String, Taint>,
    /// This path has left the function.
    diverged: bool,
    /// Taint accumulated by explicit `return value` expressions.
    ret: Taint,
    /// Source-taint violations (findings when the fn is in scope).
    viols: Vec<Finding>,
    /// Parameter-taint violations (the fn's unsafe-parameter summary).
    param_uses: BTreeMap<usize, String>,
    /// (line, var) pairs already reported for arithmetic.
    arith_seen: BTreeSet<(u32, String)>,
}

/// Taint survives a join if it survives any live branch (union).
impl Paths for Walker<'_> {
    type State = BTreeMap<String, Taint>;

    fn path(&mut self) -> (&mut Self::State, &mut bool) {
        (&mut self.vars, &mut self.diverged)
    }

    fn join(&self, into: &mut Self::State, other: &Self::State) {
        for (k, v) in other {
            into.entry(k.clone()).or_default().union(v);
        }
    }
}

impl<'a> Walker<'a> {
    fn new(
        cg: &'a CallGraph<'a>,
        config: &'a Config,
        sums: &'a [Summary],
        file: &'a SourceFile,
        def: &'a FnDef,
    ) -> Self {
        let mut vars = BTreeMap::new();
        // Parameters start parameter-tainted (feeding the summary, never a
        // direct finding). `self` is not seeded: field flows through the
        // receiver are beyond a name-based analysis, and seeding it makes
        // every method summary unsafe.
        for (i, p) in def.params.iter().enumerate() {
            if p != "self" {
                vars.insert(
                    p.clone(),
                    Taint {
                        src: None,
                        params: BTreeSet::from([i]),
                    },
                );
            }
        }
        Self {
            cg,
            config,
            sums,
            file,
            def,
            vars,
            diverged: false,
            ret: Taint::clean(),
            viols: Vec::new(),
            param_uses: BTreeMap::new(),
            arith_seen: BTreeSet::new(),
        }
    }

    /// Walks a block; returns the taint of its tail expression.
    fn block(&mut self, b: &Block) -> Taint {
        let mut tail = Taint::clean();
        for (i, s) in b.stmts.iter().enumerate() {
            let last = i + 1 == b.stmts.len();
            match s {
                Stmt::Let {
                    names,
                    init,
                    else_block,
                    ..
                } => {
                    let t = match init {
                        Some(e) => self.eval(e),
                        None => Taint::clean(),
                    };
                    // A let-else's else block always diverges; walk it as a
                    // side branch that does not affect the main path.
                    if let Some(eb) = else_block {
                        let (_, _) = self.branch(|w| w.block(eb));
                    }
                    for n in names {
                        self.bind(n, &t);
                    }
                    tail = Taint::clean();
                }
                Stmt::Expr(e) => {
                    let t = self.eval(e);
                    tail = if last { t } else { Taint::clean() };
                }
            }
        }
        tail
    }

    /// Binds `name` to a value of taint `t` (a clean value unbinds it).
    fn bind(&mut self, name: &str, t: &Taint) {
        if t.is_clean() {
            self.vars.remove(name);
        } else {
            self.vars.insert(name.to_string(), t.clone());
        }
    }

    fn taint_of_var(&self, name: &str) -> Taint {
        self.vars.get(name).cloned().unwrap_or_default()
    }

    /// Records an unvalidated use of a tainted value: a finding for
    /// source taint, a summary entry for parameter taint.
    fn unsafe_use(
        &mut self,
        rule: &'static str,
        line: u32,
        snippet: String,
        t: &Taint,
        what: &str,
    ) {
        if let Some(origin) = &t.src {
            let message = format!(
                "{what} steered by unvalidated on-disk bytes ({origin}) — \
                 validate the decoded value (range check, `validate`, or \
                 `runs_sane`) before it reaches this point"
            );
            let f = Finding::new(rule, &self.file.rel, line, &self.def.name, snippet, message);
            f.push_once(&mut self.viols);
        }
        for &p in &t.params {
            self.param_uses.entry(p).or_insert_with(|| {
                format!(
                    "{what} via parameter `{}` of `{}` at {}:{}",
                    self.def.params.get(p).map(String::as_str).unwrap_or("?"),
                    self.def.name,
                    self.file.rel,
                    line
                )
            });
        }
    }

    /// taint-arith: a tainted variable beside `+`/`*`/`<<` is unchecked
    /// sector arithmetic (reported once per line and name).
    fn check_arith(&mut self, name: &str, line: u32, op: &str) {
        let t = self.taint_of_var(name);
        if t.is_clean() || !self.arith_seen.insert((line, name.to_string())) {
            return;
        }
        self.unsafe_use(
            "taint-arith",
            line,
            format!("{name} {op} .."),
            &t,
            &format!("unchecked `{op}` arithmetic on `{name}`"),
        );
    }

    /// Applies call/sink/source/sanitizer semantics once receiver and
    /// argument taints are known. `recv_t` is `None` for free calls.
    fn call(
        &mut self,
        name: &str,
        line: u32,
        recv: Option<&Expr>,
        recv_t: Option<&Taint>,
        args: &[Expr],
        arg_ts: &[Taint],
    ) -> Taint {
        let in_test = self.file.is_test_line(line);
        // Sinks first: a tainted value steering one is the core finding.
        if !in_test {
            if let Some((_, pos)) = self
                .config
                .taint_sink_calls
                .iter()
                .find(|(n, _)| *n == name)
            {
                for (i, t) in arg_ts.iter().enumerate() {
                    if !pos.is(i, arg_ts.len()) || t.is_clean() {
                        continue;
                    }
                    self.unsafe_use(
                        "disk-taint",
                        line,
                        format!("{name}(arg {i})"),
                        t,
                        &format!("sink `{name}` (argument {i})"),
                    );
                }
            }
        }
        // Sources: the result is disk bytes, whatever the arguments were.
        let from_disk = || Taint {
            src: Some(format!("`{name}` at {}:{line}", self.file.rel)),
            params: BTreeSet::new(),
        };
        if self.config.taint_source_calls.contains(&name) {
            return from_disk();
        }
        // Validators vouch for their receiver and arguments.
        if self.config.taint_validator_calls.contains(&name) {
            for (v, _) in recv.into_iter().chain(args).filter_map(root_path) {
                self.vars.remove(v);
            }
            return Taint::clean();
        }
        // Sanitizer methods: result is safe; `retain` prunes in place.
        if self.config.taint_sanitizer_methods.contains(&name) {
            if let Some((v, _)) = recv.and_then(root_path).filter(|_| name == "retain") {
                self.vars.remove(v);
            }
            return Taint::clean();
        }
        // Mutating collection methods: a tainted *first* value (the
        // key/address position — for a tuple argument, the tuple's first
        // item) taints the receiver. Payload slots do not: a clean address
        // carrying tainted bytes is exactly the safe shape.
        if self.config.taint_collect_methods.contains(&name) {
            let steer = match args.first() {
                Some(Expr::Seq { items, .. }) if !items.is_empty() => self.eval(&items[0]),
                _ => arg_ts.first().cloned().unwrap_or_default(),
            };
            if let Some((v, _)) = recv.and_then(root_path).filter(|_| !steer.is_clean()) {
                self.vars.entry(v.to_string()).or_default().union(&steer);
            }
            return Taint::clean();
        }
        // Workspace callees: use the converged summary. A name resolving
        // to many unrelated defs (`new`, `open`, `entry`) is ambiguity,
        // not knowledge — treat it like an unknown callee instead of
        // unioning every homonym's summary.
        let nodes = self.cg.resolve(&self.file.crate_key, name);
        if !nodes.is_empty() && nodes.len() <= 3 {
            let mut result = Taint::clean();
            for &node in nodes {
                let sum = &self.sums[node];
                let callee = self.cg.nodes[node].def;
                let has_self = callee.params.first().is_some_and(|p| p == "self");
                // Map call-site values onto callee parameter indices.
                let recv_t = recv_t.filter(|_| has_self);
                let off = usize::from(recv_t.is_some());
                let args = arg_ts.iter().enumerate().map(|(i, t)| (i + off, t));
                let mapped: Vec<(usize, &Taint)> =
                    recv_t.map(|t| (0, t)).into_iter().chain(args).collect();
                if sum.returns_src {
                    result.union(&from_disk());
                }
                for (p, t) in &mapped {
                    if in_test || t.is_clean() {
                        continue;
                    }
                    if sum.returns_params.contains(p) {
                        result.union(t);
                    }
                    if let Some(site) = sum.unsafe_params.get(p) {
                        self.unsafe_use(
                            "disk-taint",
                            line,
                            format!("{name}(..) unvalidated"),
                            t,
                            &format!("call to `{name}` which reaches {site}"),
                        );
                    }
                }
            }
            return result;
        }
        // Unknown callee (std / primitive): conservative pass-through.
        let mut result = Taint::clean();
        for t in recv_t.into_iter().chain(arg_ts) {
            result.union(t);
        }
        result
    }

    /// Sanitizes every tainted variable mentioned in a condition, if the
    /// condition compares (a real bounds/equality check or a containment
    /// test — `if let Ok(x) = ..` does not sanitize).
    fn sanitize_by_cond(&mut self, cond: &Expr) {
        let mut mentioned: BTreeSet<String> = BTreeSet::new();
        let mut compares = false;
        ast::each_expr(cond, |e| match e {
            Expr::Path { segs, .. } => {
                if let Some(first) = segs.first().filter(|v| self.vars.contains_key(*v)) {
                    mentioned.insert(first.clone());
                }
            }
            Expr::Seq { ops, .. } => {
                compares |= ops
                    .iter()
                    .any(|op| matches!(*op, "<" | ">" | "<=" | ">=" | "==" | "!="));
            }
            Expr::MethodCall { method, .. } => compares |= method == "contains",
            _ => {}
        });
        if compares {
            for v in mentioned {
                self.vars.remove(&v);
            }
        }
    }

    /// Continues from the join of branches; the value is the union of
    /// the live ones'.
    fn join_branches(&mut self, results: Vec<(Taint, BranchEnd<<Self as Paths>::State>)>) -> Taint {
        let mut t = Taint::clean();
        let mut ends = Vec::with_capacity(results.len());
        for (v, end) in results {
            if !end.1 {
                t.union(&v);
            }
            ends.push(end);
        }
        self.merge(ends);
        t
    }

    /// Not a [`ast::Visit`]: every arm returns the taint of the value the
    /// expression produces, so this is an interpreter over `Expr`, and it
    /// stays exhaustive so a new variant cannot default to "clean".
    fn eval(&mut self, e: &Expr) -> Taint {
        match e {
            Expr::Atom { .. } => Taint::clean(),
            Expr::Macro { name, .. } => {
                self.diverged |= flow::macro_diverges(name);
                Taint::clean()
            }
            Expr::Path { segs, .. } => match segs.as_slice() {
                [var] => self.taint_of_var(var),
                _ => Taint::clean(),
            },
            Expr::Field { base, .. } => self.eval(base),
            Expr::Seq { items, ops, .. } => {
                let mut t = Taint::clean();
                for (k, it) in items.iter().enumerate() {
                    // Left of the operator as a bare name (`n + ..`,
                    // `n += ..`), else right of it as a chain's root.
                    let left = ops.get(k).and_then(|op| match *op {
                        "+" | "+=" => Some("+"),
                        "*" => Some("*"),
                        "<<" | "<<=" => Some("<<"),
                        _ => None,
                    });
                    let right = k
                        .checked_sub(1)
                        .and_then(|j| ops.get(j))
                        .filter(|op| matches!(**op, "+" | "*" | "<<"));
                    let beside = match (left, bare_var(it)) {
                        (Some(op), Some(v)) => Some((op, v)),
                        _ => right.zip(root_path(it)).map(|(op, v)| (*op, v)),
                    };
                    if let Some((op, (var, line))) = beside {
                        self.check_arith(var, line, op);
                    }
                    t.union(&self.eval(it));
                }
                t
            }
            Expr::Call { func, args, line } => {
                let arg_ts: Vec<Taint> = args.iter().map(|a| self.eval(a)).collect();
                match func.last_name() {
                    Some(name) => {
                        let name = name.to_string();
                        self.call(&name, *line, None, None, args, &arg_ts)
                    }
                    None => {
                        let mut t = self.eval(func);
                        for ti in &arg_ts {
                            t.union(ti);
                        }
                        t
                    }
                }
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                let recv_t = self.eval(recv);
                let arg_ts: Vec<Taint> = args.iter().map(|a| self.eval(a)).collect();
                let method = method.clone();
                self.call(&method, *line, Some(recv), Some(&recv_t), args, &arg_ts)
            }
            Expr::Block { block, .. } => self.block(block),
            Expr::If {
                cond,
                binds,
                then,
                alt,
                ..
            } => {
                let cond_t = self.eval(cond);
                self.sanitize_by_cond(cond);
                // `if let` bindings live in the then-branch with the
                // scrutinee's taint.
                let then = self.branch(|w| {
                    for n in binds {
                        w.bind(n, &cond_t);
                    }
                    w.block(then)
                });
                let alt = match alt {
                    Some(a) => self.branch(|w| w.eval(a)),
                    None => (Taint::clean(), self.fallthrough()),
                };
                self.join_branches(vec![then, alt])
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let st = self.eval(scrutinee);
                let mut results = Vec::with_capacity(arms.len());
                for arm in arms {
                    results.push(self.branch(|w| {
                        for n in &arm.binds {
                            w.bind(n, &st);
                        }
                        w.eval(&arm.body)
                    }));
                }
                self.join_branches(results)
            }
            Expr::Loop { body, .. } => {
                self.block(body);
                Taint::clean()
            }
            Expr::While {
                cond, binds, body, ..
            } => {
                let cond_t = self.eval(cond);
                self.sanitize_by_cond(cond);
                // `while let` bindings (e.g. `while let Some(chunk) =
                // rx.recv()`) carry the scrutinee's taint into the body.
                for n in binds {
                    self.bind(n, &cond_t);
                }
                self.block(body);
                Taint::clean()
            }
            Expr::For {
                binds, iter, body, ..
            } => {
                let iter_t = self.eval(iter);
                // `.enumerate()` makes the first pattern name a counter the
                // iterator produced, not disk bytes.
                let enumerated = matches!(iter.as_ref(), Expr::MethodCall { method, .. } if method == "enumerate");
                for (i, n) in binds.iter().enumerate() {
                    if enumerated && i == 0 {
                        self.vars.remove(n);
                    } else {
                        self.bind(n, &iter_t);
                    }
                }
                self.block(body);
                Taint::clean()
            }
            Expr::Closure { params, body, .. } => {
                // Walked in isolation: closure parameters are clean (the
                // adapter supplying them decides boundedness), effects stay
                // local, but the *result* taint propagates to the adapter
                // chain (`find_map(|s| decode(s))` yields disk bytes).
                let (t, _) = self.branch(|w| {
                    for p in params {
                        w.vars.remove(p);
                    }
                    w.eval(body)
                });
                t
            }
            Expr::Ret { value, .. } => {
                if let Some(v) = value {
                    let t = self.eval(v);
                    self.ret.union(&t);
                }
                self.diverged = true;
                Taint::clean()
            }
        }
    }
}

/// The variable `e` is, with its line: a bare single-segment path.
fn bare_var(e: &Expr) -> Option<(&str, u32)> {
    match e {
        Expr::Path { segs, line } if segs.len() == 1 => Some((&segs[0], *line)),
        _ => None,
    }
}

/// The variable a path / field / method / index chain starts with (`n`,
/// `&n`, `n.run_table`, `n.len()`, `n[i]`), with its line.
fn root_path(e: &Expr) -> Option<(&str, u32)> {
    match e {
        Expr::Path { .. } => bare_var(e),
        Expr::Field { base, .. } | Expr::MethodCall { recv: base, .. } => root_path(base),
        Expr::Seq { items, ops, .. } if ops.is_empty() => items.first().and_then(root_path),
        _ => None,
    }
}

/// decode-coverage: every configured on-disk field must be mentioned by a
/// validator or sit next to a comparison / sanitizer somewhere in library
/// code. Triples whose defining file or type is absent are skipped.
fn decode_coverage(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for (rel, ty, field) in &config.decode_fields {
        let Some(def_file) = files.iter().find(|f| f.rel == *rel) else {
            continue;
        };
        let Some(def_line) = type_def_line(def_file, ty) else {
            continue;
        };
        if files
            .iter()
            .filter(|f| !f.is_aux)
            .any(|f| field_sanitized(f, field, config))
        {
            continue;
        }
        out.push(Finding::new(
            "decode-coverage",
            *rel,
            def_line,
            *ty,
            *field,
            format!(
                "on-disk field `{ty}.{field}` is decoded in recovery but never \
                 validated — no validator fn mentions it and no comparison or \
                 bounded accessor guards it; a corrupted sector steers recovery \
                 through it unchecked"
            ),
        ));
    }
    out
}

/// Line of `struct T` / `enum T` in `file`, if defined there.
fn type_def_line(file: &SourceFile, ty: &str) -> Option<u32> {
    let toks = &file.tokens;
    toks.windows(2).find_map(|w| {
        if (w[0].is_ident("struct") || w[0].is_ident("enum")) && w[1].is_ident(ty) {
            Some(w[1].line)
        } else {
            None
        }
    })
}

/// True if `file` contains a sanitizing mention of `field`: inside a
/// validator fn's body, or `.field` within a few tokens of a comparison,
/// or `.field.<sanitizer>(`.
fn field_sanitized(file: &SourceFile, field: &str, config: &Config) -> bool {
    let toks = &file.tokens;
    // Validator bodies vouch for every field they mention.
    for (name, a, b) in file.fn_spans() {
        if !config.taint_validator_calls.contains(&name.as_str()) {
            continue;
        }
        if toks
            .iter()
            .any(|t| t.line >= *a && t.line <= *b && t.is_ident(field))
        {
            return true;
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident(field) || file.is_test_line(t.line) {
            continue;
        }
        if !i.checked_sub(1).is_some_and(|j| toks[j].is_punct('.')) {
            continue;
        }
        // `.field` chained into a sanitizer method.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Ident
                    && config.taint_sanitizer_methods.contains(&n.text.as_str())
            })
        {
            return true;
        }
        // `.field` within a short window of a comparison.
        let lo = i.saturating_sub(6);
        let hi = (i + 7).min(toks.len());
        for j in lo..hi {
            let w = &toks[j];
            let prev = j.checked_sub(1).map(|k| &toks[k]);
            match w.kind {
                TokKind::Punct('<') => return true,
                TokKind::Punct('>')
                    if !prev.is_some_and(|p| p.is_punct('-') || p.is_punct('=')) =>
                {
                    return true;
                }
                TokKind::Punct('=') if prev.is_some_and(|p| p.is_punct('=') || p.is_punct('!')) => {
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src: &str) -> SourceFile {
        SourceFile::parse(
            "crates/fsd/src/recovery.rs".into(),
            "fsd".into(),
            false,
            src,
        )
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        check(&Analysis::new(&files, &Config::cedar()))
    }

    #[test]
    fn source_to_sink_is_flagged() {
        let f = rec("pub fn redo(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             layout.nt_a_sector(header.page);\n\
             }\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "disk-taint");
        assert_eq!(out[0].item, "redo");
        assert!(
            out[0].message.contains("decode_header"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn dominating_comparison_sanitizes() {
        let f = rec("pub fn redo(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             if header.page >= layout.nt_pages { return; }\n\
             layout.nt_a_sector(header.page);\n\
             }\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn validator_call_sanitizes() {
        let f = rec("pub fn redo(layout: &FsdLayout, buf: &[u8]) {\n\
             let entry = decode_header(buf);\n\
             if !runs_sane(layout, &entry) { return; }\n\
             vam.free_run(entry.run);\n\
             }\n\
             fn runs_sane(layout: &FsdLayout, entry: &FileEntry) -> bool { true }\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn if_let_does_not_sanitize() {
        let f = rec("pub fn redo(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             if let Some(page) = header.page {\n\
             layout.nt_a_sector(page);\n\
             }\n}\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:#?}");
    }

    #[test]
    fn unsafe_param_flagged_at_call_site() {
        let f = rec("pub fn redo(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             apply(layout, header.page);\n\
             }\n\
             fn apply(layout: &FsdLayout, page: u32) { layout.nt_a_sector(page); }\n");
        let out = run(vec![f]);
        // One finding at the call site in `redo`; `apply` itself has only
        // parameter taint, which is a summary, not a finding.
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].item, "redo");
        assert!(out[0].message.contains("apply"), "{}", out[0].message);
    }

    #[test]
    fn callee_guard_clears_the_summary() {
        let f = rec("pub fn redo(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             apply(layout, header.page);\n\
             }\n\
             fn apply(layout: &FsdLayout, page: u32) {\n\
             if page >= layout.nt_pages { return; }\n\
             layout.nt_a_sector(page);\n\
             }\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn returned_taint_propagates_through_helper() {
        let f = rec("pub fn redo(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = fetch(buf);\n\
             layout.nt_a_sector(header.page);\n\
             }\n\
             fn fetch(buf: &[u8]) -> Header { decode_header(buf) }\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].item, "redo");
    }

    #[test]
    fn tainted_arith_flagged() {
        let f = rec("pub fn scan(buf: &[u8], log_size: u32) {\n\
             let meta = decode_header(buf);\n\
             let mut pos = meta.oldest_offset;\n\
             let end = pos + 5;\n\
             }\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "taint-arith");
        assert!(out[0].snippet.contains('+'), "{}", out[0].snippet);
    }

    #[test]
    fn deref_is_not_arith() {
        let f = rec("pub fn redo(m: &mut M, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             let x = *header;\n\
             let y = (*header).clone();\n\
             }\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn enumerate_index_is_clean() {
        let f = rec("pub fn scan(layout: &FsdLayout, buf: &[u8]) {\n\
             let data = decode_header(buf);\n\
             for (i, s) in data.chunks(512).enumerate() {\n\
             layout.nt_a_sector(i as u32);\n\
             }\n}\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn for_binding_carries_iter_taint() {
        let f = rec("pub fn redo(layout: &FsdLayout, buf: &[u8]) {\n\
             let images = decode_header(buf);\n\
             for (target, img) in &images {\n\
             layout.nt_a_sector(target.page);\n\
             }\n}\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:#?}");
    }

    #[test]
    fn tainted_key_insert_taints_map_payload_does_not() {
        let key = rec(
            "pub fn bad(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             let mut m = BTreeMap::new();\n\
             m.insert(header.addr, vec![0u8]);\n\
             write_home_batch(disk, policy, spare, m);\n\
             }\n",
        );
        let out = run(vec![key]);
        assert_eq!(out.len(), 1, "{out:#?}");
        let val = rec(
            "pub fn ok(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8], addr: u32) {\n\
             let header = decode_header(buf);\n\
             if addr > 0 { return; }\n\
             let mut m = BTreeMap::new();\n\
             m.insert(addr, header.bytes);\n\
             write_home_batch(disk, policy, spare, m);\n\
             }\n",
        );
        assert!(
            run(vec![val]).is_empty(),
            "payload taint must not flag the map"
        );
    }

    #[test]
    fn tuple_push_payload_slot_does_not_taint_batch() {
        // `writes.push((clean_addr, tainted_image))` is the safe redo
        // shape: validated address, raw bytes. Only the tuple's first
        // item steers the collection.
        let f = rec(
            "pub fn scrub(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8], at: u32) {\n\
             let image = decode_header(buf);\n\
             if at == 0 { return; }\n\
             let mut writes = Vec::new();\n\
             writes.push((at, image));\n\
             scrub_batch(disk, policy, spare, writes);\n\
             }\n",
        );
        assert!(run(vec![f]).is_empty());
        let bad = rec(
            "pub fn scrub(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8]) {\n\
             let image = decode_header(buf);\n\
             let mut writes = Vec::new();\n\
             writes.push((image.addr, vec![0u8]));\n\
             scrub_batch(disk, policy, spare, writes);\n\
             }\n",
        );
        assert_eq!(run(vec![bad]).len(), 1);
    }

    #[test]
    fn pair_reader_is_steered_by_its_pair_not_by_the_bytes_it_overlays() {
        // The pair (argument 3) addresses two reads and a scrub; the
        // logged overlay (argument 4) is payload.
        let bad = rec(
            "pub fn read(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             let pair = Replicated { a: header.addr, b: header.addr, sectors: 1 };\n\
             read_replicated(disk, policy, spare, pair, None, valid);\n\
             }\n",
        );
        assert_eq!(run(vec![bad]).len(), 1);
        let ok = rec(
            "pub fn read(disk: &mut SimDisk, spare: &mut SpareMap, buf: &[u8], pair: Replicated) {\n\
             let logged = decode_header(buf);\n\
             read_replicated(disk, policy, spare, pair, logged, valid);\n\
             }\n",
        );
        assert!(run(vec![ok]).is_empty());
    }

    #[test]
    fn deref_guard_is_not_multiplication() {
        let f = rec("pub fn absorb(buf: &[u8]) {\n\
             let n = decode_header(buf);\n\
             if *n >= 3 { bump(); }\n\
             }\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn ambiguous_callee_names_are_pass_through() {
        // Four unrelated `new` defs: resolution is ambiguity, not
        // knowledge — the dangerous summary of one homonym must not
        // contaminate calls to the others.
        let lib = SourceFile::parse(
            "crates/fsd/src/cache.rs".into(),
            "fsd".into(),
            false,
            "impl A { pub fn new(layout: &FsdLayout, pages: u32) -> A {\n\
             layout.nt_a_sector(pages); A }\n}\n\
             impl B { pub fn new(x: u32) -> B { B } }\n\
             impl C { pub fn new(x: u32) -> C { C } }\n\
             impl D { pub fn new(x: u32) -> D { D } }\n",
        );
        let f = rec("pub fn redo(buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             let r = Run::new(header.start, 1);\n\
             }\n");
        assert!(run(vec![lib, f]).is_empty());
    }

    #[test]
    fn closure_result_taints_adapter_chain() {
        let f = rec("pub fn scan(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = [0usize].iter().find_map(|i| decode_header(buf));\n\
             layout.nt_a_sector(header.page);\n\
             }\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:#?}");
    }

    #[test]
    fn findings_scoped_to_taint_files() {
        let f = SourceFile::parse(
            "crates/fsd/src/volume.rs".into(),
            "fsd".into(),
            false,
            "pub fn op(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             layout.nt_a_sector(header.page);\n\
             }\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f = rec("#[cfg(test)]\nmod tests {\n\
             pub fn t(layout: &FsdLayout, buf: &[u8]) {\n\
             let header = decode_header(buf);\n\
             layout.nt_a_sector(header.page);\n\
             }\n}\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn decode_coverage_flags_unvalidated_field_and_skips_absent_types() {
        let log = SourceFile::parse(
            "crates/fsd/src/log.rs".into(),
            "fsd".into(),
            false,
            "pub struct LogMeta { pub oldest_offset: u32 }\n",
        );
        let out = run(vec![log]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "decode-coverage");
        assert_eq!(out[0].item, "LogMeta");
        assert_eq!(out[0].snippet, "oldest_offset");
        // Absent types (PageTarget, FsdBootPage, ...) are skipped silently.
    }

    #[test]
    fn decode_coverage_satisfied_by_validator_mention() {
        let log = SourceFile::parse(
            "crates/fsd/src/log.rs".into(),
            "fsd".into(),
            false,
            "pub struct LogMeta { pub oldest_offset: u32 }\n\
             impl LogMeta {\n\
             pub fn validate(&self, log_size: u32) -> Result<(), String> {\n\
             if self.oldest_offset >= log_size { return Err(String::new()); }\n\
             Ok(())\n\
             }\n}\n",
        );
        assert!(run(vec![log]).is_empty());
    }
}
