//! concurrency: whole-program verification of the workspace's thread
//! topology.
//!
//! PR 7 moved the hot path into a real multi-threaded pipeline (client
//! threads enqueue, one log-writer thread owns the volume, completion is
//! a condvar hand-off, reads go through one published map the
//! log-writer updates per epoch). The §4 durability contract now
//! depends on cross-thread ordering nothing in the type system states,
//! so three rules model it over the parsed AST + call graph:
//!
//! * **lock-graph** — an interprocedural lock graph. Each function gets
//!   a fixpoint summary (locks it may acquire transitively, whether it
//!   may block on `force`/condvar-wait/`recv`/`join`); a per-function
//!   walk then threads lexically-held guard sets through calls.
//!   Acquiring lock B (directly or anywhere in a callee) while holding
//!   A is an ordering edge A→B; cycles in the edge set are findings, as
//!   is a guard live across a blocking call in the configured engine
//!   files. The condvar hand-off (`cv.wait(guard)`) is the sanctioned
//!   exception — the wait *consumes* the guard. Scope exits and
//!   `drop(guard)` release guards.
//!
//! * **thread-roles** — the engine's shared structs get a field access
//!   matrix: every touch of a `Mutex`/`RwLock` field must be a lock
//!   acquisition (`.lock()`/`.read()`/`.write()` or a configured
//!   `plock(&…)` call), every touch of an atomic field must go through
//!   an atomic method, `Arc` fields are free (clone/deref), and
//!   plain fields need an explicit, documented exemption. Separately,
//!   functions with a writer-owned parameter type (`FsdVolume`) must be
//!   unreachable from client entry points — the volume belongs to the
//!   log-writer thread alone.
//!
//! * **condvar-discipline** — every `Condvar::wait` sits in a
//!   predicate-rechecking loop (wakeups are spurious by contract),
//!   every notify is preceded in its function by a state write under
//!   the paired mutex, and the configured publish atomics (`epoch`)
//!   use `Release`-class stores and `Acquire`-class loads, so the
//!   epoch's update of the published map happens-before the epoch
//!   observation.

use crate::ast::{self, Block, Expr, FieldDef, Stmt, Visit};
use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::flow;
use crate::source::SourceFile;
use crate::{Analysis, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Methods that legitimately touch a lock-classified field.
const LOCK_RECV_METHODS: [&str; 6] = ["lock", "try_lock", "read", "try_read", "write", "try_write"];

/// Atomic methods that hand out plain references (not atomic access).
const ATOMIC_ESCAPE_METHODS: [&str; 2] = ["get_mut", "into_inner"];

/// Atomic store-side methods that publish state.
const ATOMIC_STORE_METHODS: [&str; 4] = ["store", "fetch_add", "fetch_sub", "swap"];

/// Orderings acceptable on the publish (store) side.
const RELEASE_ORDERINGS: [&str; 3] = ["Release", "AcqRel", "SeqCst"];

/// Orderings acceptable on the observe (load) side.
const ACQUIRE_ORDERINGS: [&str; 2] = ["Acquire", "SeqCst"];

/// Runs the concurrency rule family.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let mut out = lock_graph(&a.cg, a.config);
    out.extend(thread_roles(a.files, &a.cg, a.config));
    out.extend(condvar_discipline(a.files, a.config));
    out
}

// ---- shared helpers -------------------------------------------------------

/// The dotted path an expression names (`self.shared.signal` →
/// `[self, shared, signal]`); indexing and method chains use their base.
fn expr_path(e: &Expr) -> Vec<String> {
    match e {
        Expr::Path { segs, .. } => segs.clone(),
        Expr::Field { base, name, .. } => {
            let mut p = expr_path(base);
            p.push(name.clone());
            p
        }
        Expr::Seq { items, .. } => items.first().map(expr_path).unwrap_or_default(),
        Expr::MethodCall { recv, .. } => expr_path(recv),
        _ => Vec::new(),
    }
}

/// Canonical lock name: the receiver path with configured root segments
/// (`self`, `shared`) stripped, so the same mutex reached through the
/// engine handle and through the `Arc` clone unifies.
fn lock_id(e: &Expr, config: &Config) -> Option<String> {
    let mut p = expr_path(e);
    if p.is_empty() {
        return None;
    }
    while p.len() > 1 && config.lock_root_segs.contains(&p[0].as_str()) {
        p.remove(0);
    }
    Some(p.join("."))
}

/// If `e` is a lock acquisition expression, the (lock id, line) it
/// acquires: `plock(&m)`, a 0-argument `.lock()`/`.read()`/`.write()`,
/// the poison-recovery `match m.lock() { … }`, or either re-chained
/// through `into_inner`/`unwrap`/`expect`.
fn acquisition(e: &Expr, config: &Config) -> Option<(String, u32)> {
    match e {
        Expr::Call {
            func, args, line, ..
        } if args.len() == 1
            && func
                .last_name()
                .is_some_and(|n| config.lock_acquire_fns.contains(&n)) =>
        {
            lock_id(&args[0], config).map(|l| (l, *line))
        }
        Expr::MethodCall {
            recv,
            method,
            args,
            line,
        } if args.is_empty() && LOCK_RECV_METHODS.contains(&method.as_str()) => {
            lock_id(recv, config).map(|l| (l, *line))
        }
        Expr::MethodCall { recv, method, .. }
            if matches!(method.as_str(), "into_inner" | "unwrap" | "expect") =>
        {
            acquisition(recv, config)
        }
        Expr::Match { scrutinee, .. } => acquisition(scrutinee, config),
        _ => None,
    }
}

/// The workspace fn a call expression may resolve to, as (owner
/// qualifier, name, line): a path call `f(..)` / `Owner::f(..)`, or a
/// method on `self` — a name-based graph cannot type other receivers,
/// and bare-name resolution invents paths (`shared.submit(op)` is not
/// the scheduler's `submit`).
fn callee(e: &Expr) -> Option<(Option<&str>, &str, u32)> {
    match e {
        Expr::Call { func, line, .. } => {
            let Expr::Path { segs, .. } = func.as_ref() else {
                return None;
            };
            let (name, quals) = segs.split_last()?;
            Some((quals.last().map(String::as_str), name, *line))
        }
        Expr::MethodCall {
            recv, method, line, ..
        } if recv.last_name() == Some("self") => Some((None, method, *line)),
        _ => None,
    }
}

/// The body to walk for a call-graph node: none for test code, bodyless
/// declarations, and the configured lock-acquire helpers (their bodies
/// name the lock by parameter, which would pollute the graph).
fn node_body<'a>(cg: &CallGraph<'a>, config: &Config, node: usize) -> Option<&'a Block> {
    if config
        .lock_acquire_fns
        .contains(&cg.nodes[node].def.name.as_str())
    {
        return None;
    }
    cg.rule_body(node)
}

/// Every name bound inside the fn (parameters, `let` bindings at any
/// depth, closure parameters): calls to these are calls to locals, never
/// to workspace functions with the same name.
fn local_names(def: &ast::FnDef) -> BTreeSet<String> {
    struct Locals(BTreeSet<String>);
    impl Visit for Locals {
        fn stmt(&mut self, s: &Stmt) {
            if let Stmt::Let { names, .. } = s {
                self.0.extend(names.iter().cloned());
            }
            ast::walk_stmt(self, s);
        }

        fn expr(&mut self, e: &Expr) {
            if let Expr::Closure { params, .. } = e {
                self.0.extend(params.iter().cloned());
            }
            ast::walk_expr(self, e);
        }
    }
    let mut locals = Locals(def.params.iter().cloned().collect());
    if let Some(body) = &def.body {
        locals.block(body);
    }
    locals.0
}

// ---- lock-graph -----------------------------------------------------------

/// Per-function lock summary, computed to fixpoint over the call graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LockSummary {
    /// Lock ids this function may acquire, directly or transitively.
    acquires: BTreeSet<String>,
    /// First blocking operation reachable from this function (site
    /// description used in call-site messages); `None` if none.
    blocks: Option<String>,
}

#[derive(Clone, Debug)]
struct GuardInfo {
    /// Binding names (a destructured guard keeps all of them).
    names: Vec<String>,
    lock: String,
    line: u32,
    /// Block depth the guard was bound at (released when its block ends).
    depth: usize,
}

/// One acquisition-order edge: `held` was locked when `then` was
/// acquired.
#[derive(Clone, Debug)]
struct EdgeSite {
    file: String,
    line: u32,
    item: String,
}

struct LockWalker<'a> {
    cg: &'a CallGraph<'a>,
    config: &'a Config,
    sums: &'a [LockSummary],
    file: &'a SourceFile,
    fn_name: &'a str,
    /// Guard-across-blocking violations only fire in the engine files.
    check_blocking: bool,
    locals: BTreeSet<String>,
    guards: Vec<GuardInfo>,
    depth: usize,
    edges: Vec<(String, String, u32)>,
    acquires: BTreeSet<String>,
    blocks: Option<String>,
    viols: Vec<Finding>,
}

impl<'a> LockWalker<'a> {
    fn acquire(&mut self, lock: String, line: u32) {
        for g in &self.guards {
            self.edges.push((g.lock.clone(), lock.clone(), line));
        }
        self.acquires.insert(lock);
    }

    fn note_block(&mut self, site: String) {
        if self.blocks.is_none() {
            self.blocks = Some(site);
        }
    }

    /// A blocking operation at `line`; `consumed` names guards handed to
    /// the wait itself. Any other live guard is a finding.
    fn blocking(&mut self, desc: &str, line: u32, consumed: &BTreeSet<String>) {
        self.note_block(format!("`{desc}` at {}:{line}", self.file.rel));
        if !self.check_blocking {
            return;
        }
        let held = self
            .guards
            .iter()
            .find(|g| !g.names.iter().any(|n| consumed.contains(n)));
        if let Some(g) = held {
            let name = g.names.first().cloned().unwrap_or_else(|| g.lock.clone());
            self.viols.push(Finding::new(
                "lock-graph",
                &self.file.rel,
                line,
                self.fn_name,
                format!("{name} held across {desc}"),
                format!(
                    "lock guard `{name}` on `{}` (acquired line {}) is live \
                     across `{desc}`: a guard held across a blocking call \
                     serializes every client behind the sleeper — release it \
                     first (scope or `drop`), or hand it to the condvar \
                     (`cv.wait(guard)`)",
                    g.lock, g.line,
                ),
            ));
        }
    }

    /// Call events once arguments are evaluated: propagate the callee's
    /// summary into held-guard edges and blocking checks.
    fn call_events(&mut self, qual: Option<&str>, name: &str, line: u32) {
        if self.config.lock_acquire_fns.contains(&name) || self.locals.contains(name) {
            return;
        }
        for &node in self.cg.resolve(&self.file.crate_key, name) {
            if let Some(q) = qual {
                if self.cg.nodes[node].def.owner.as_deref() != Some(q) {
                    continue;
                }
            }
            let s = self.sums[node].clone();
            for l in &s.acquires {
                self.acquire(l.clone(), line);
            }
            if let Some(site) = &s.blocks {
                self.note_block(format!("via `{name}`: {site}"));
                if self.check_blocking {
                    if let Some(g) = self.guards.first() {
                        let gname = g.names.first().cloned().unwrap_or_else(|| g.lock.clone());
                        let snippet = format!("{gname} held across {name}()");
                        if !self.viols.iter().any(|v| v.snippet == snippet) {
                            self.viols.push(Finding::new(
                                "lock-graph",
                                &self.file.rel,
                                line,
                                self.fn_name,
                                snippet,
                                format!(
                                    "lock guard `{gname}` on `{}` (acquired line {}) \
                                     is live across a call to `{name}`, which blocks: \
                                     {site}",
                                    g.lock, g.line,
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Guards live from their `let` to the end of the enclosing block.
impl Visit for LockWalker<'_> {
    fn block(&mut self, b: &Block) {
        self.depth += 1;
        ast::walk_block(self, b);
        let d = self.depth;
        self.guards.retain(|g| g.depth < d);
        self.depth -= 1;
    }

    fn stmt(&mut self, s: &Stmt) {
        if let Stmt::Let {
            names,
            init: Some(init),
            else_block,
            ..
        } = s
        {
            if let Some((lock, line)) = acquisition(init, self.config) {
                self.acquire(lock.clone(), line);
                self.guards.push(GuardInfo {
                    names: names.clone(),
                    lock,
                    line,
                    depth: self.depth,
                });
                if let Some(eb) = else_block {
                    self.block(eb);
                }
                return;
            }
        }
        ast::walk_stmt(self, s);
    }

    fn expr(&mut self, e: &Expr) {
        if !matches!(e, Expr::Call { .. } | Expr::MethodCall { .. }) {
            return ast::walk_expr(self, e);
        }
        if let Expr::Call { func, args, .. } = e {
            // `drop(g)` / `mem::drop(g)` releases named guards.
            if func.last_name() == Some("drop") {
                for a in args {
                    let dropped = expr_path(a);
                    self.guards
                        .retain(|g| !g.names.iter().any(|n| dropped.contains(n)));
                }
                return;
            }
        }
        if let Some((lock, line)) = acquisition(e, self.config) {
            // Temporary acquire (`plock(&m).field = v`): an edge,
            // released within the statement.
            self.acquire(lock, line);
            return;
        }
        ast::walk_expr(self, e);
        match e {
            Expr::MethodCall {
                method, args, line, ..
            } if self.config.blocking_methods.contains(&method.as_str()) => {
                let consumed: BTreeSet<String> = args.iter().flat_map(expr_path).collect();
                self.blocking(&format!("{method}()"), *line, &consumed);
            }
            _ => {
                if let Some((qual, name, line)) = callee(e) {
                    self.call_events(qual, name, line);
                }
            }
        }
    }
}

/// Walks one call-graph node with the given summaries; `None` for
/// nodes without a body to walk (see [`node_body`]).
fn walk_node<'a>(
    cg: &'a CallGraph<'a>,
    config: &'a Config,
    sums: &'a [LockSummary],
    node: usize,
) -> Option<LockWalker<'a>> {
    let body = node_body(cg, config, node)?;
    let file = cg.file_of(node);
    let def = cg.nodes[node].def;
    let mut w = LockWalker {
        cg,
        config,
        sums,
        file,
        fn_name: &def.name,
        check_blocking: config.concurrency_files.iter().any(|p| *p == file.rel),
        locals: local_names(def),
        guards: Vec::new(),
        depth: 0,
        edges: Vec::new(),
        acquires: BTreeSet::new(),
        blocks: None,
        viols: Vec::new(),
    };
    w.block(body);
    Some(w)
}

fn lock_graph<'a>(cg: &'a CallGraph<'a>, config: &'a Config) -> Vec<Finding> {
    let sums = flow::summaries(cg, |node, sums| {
        walk_node(cg, config, sums, node)
            .map(|w| LockSummary {
                acquires: w.acquires,
                blocks: w.blocks,
            })
            .unwrap_or_default()
    });

    // Final pass: collect ordering edges and blocking violations.
    let mut out = Vec::new();
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    for node in 0..cg.nodes.len() {
        let Some(w) = walk_node(cg, config, &sums, node) else {
            continue;
        };
        let file = cg.file_of(node);
        let def = cg.nodes[node].def;
        for (a, b, line) in w.edges {
            edges.entry((a, b)).or_insert(EdgeSite {
                file: file.rel.clone(),
                line,
                item: def.name.clone(),
            });
        }
        out.extend(w.viols);
    }
    out.extend(cycle_findings(&edges));
    out
}

/// Enumerates simple cycles in the lock-order edge set and reports each
/// once (rooted at its lexicographically smallest lock).
fn cycle_findings(edges: &BTreeMap<(String, String), EdgeSite>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut out = Vec::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for start in starts {
        let mut path = vec![start];
        dfs_cycles(start, &adj, &mut path, &mut |cycle: &[&str]| {
            // Rooting at the minimum node makes each rotation unique.
            if cycle.iter().any(|n| *n < cycle[0]) {
                return;
            }
            let mut sites = Vec::new();
            for i in 0..cycle.len() {
                let (a, b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
                if let Some(s) = edges.get(&(a.to_string(), b.to_string())) {
                    sites.push(format!(
                        "`{a}` then `{b}` at {}:{} (in `{}`)",
                        s.file, s.line, s.item
                    ));
                }
            }
            let first = edges
                .get(&(cycle[0].to_string(), cycle[1 % cycle.len()].to_string()))
                .cloned();
            let Some(first) = first else { return };
            out.push(Finding::new(
                "lock-graph",
                first.file,
                first.line,
                first.item,
                format!("cycle:{}", cycle.join("->")),
                format!(
                    "lock acquisition-order cycle {} -> {}: two threads taking \
                     these locks in opposite orders deadlock; pick one global \
                     order ({})",
                    cycle.join(" -> "),
                    cycle[0],
                    sites.join("; "),
                ),
            ));
        });
    }
    out
}

fn dfs_cycles<'g>(
    start: &'g str,
    adj: &BTreeMap<&'g str, Vec<&'g str>>,
    path: &mut Vec<&'g str>,
    emit: &mut impl FnMut(&[&str]),
) {
    let Some(u) = path.last().copied() else {
        return;
    };
    let Some(nexts) = adj.get(u) else { return };
    for &v in nexts {
        if v == start {
            emit(path);
        } else if v > start && !path.contains(&v) {
            path.push(v);
            dfs_cycles(start, adj, path, emit);
            path.pop();
        }
    }
}

// ---- thread-roles ---------------------------------------------------------

/// How a shared-struct field may legally be touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FieldClass {
    /// `Mutex`/`RwLock`: only as a lock-acquisition receiver or a
    /// `plock(&…)` argument.
    Guarded,
    /// `Atomic*`: only through atomic methods.
    Atomic,
    /// `Arc<T>`: clone/deref shares, never mutates — free.
    ArcShared,
    /// Condvar, containers of locks, or configured self-synchronizing
    /// types — free (using the value still requires its own lock).
    Sync,
    /// Anything else: allowed only with an explicit config exemption.
    Plain { allowed: bool },
}

fn classify(field: &FieldDef, allowed_plain: &[&str], config: &Config) -> FieldClass {
    let mut lead = None;
    for t in &field.ty {
        let first = t.chars().next().unwrap_or(' ');
        if !(first.is_ascii_alphabetic() || first == '_') {
            continue;
        }
        if t == "Option" || t == "Box" {
            continue; // Transparent wrappers.
        }
        lead = Some(t.as_str());
        break;
    }
    match lead {
        Some("Mutex") | Some("RwLock") => FieldClass::Guarded,
        Some(t) if t.starts_with("Atomic") => FieldClass::Atomic,
        Some("Arc") => FieldClass::ArcShared,
        Some(t) if t == "Condvar" || config.sync_types.contains(&t) => FieldClass::Sync,
        _ => {
            let has_sync = field.ty.iter().any(|t| {
                t == "Mutex"
                    || t == "RwLock"
                    || t == "Condvar"
                    || config.sync_types.contains(&t.as_str())
            });
            if has_sync {
                FieldClass::Sync
            } else {
                FieldClass::Plain {
                    allowed: allowed_plain.contains(&field.name.as_str()),
                }
            }
        }
    }
}

struct MatrixWalker<'a> {
    fields: &'a BTreeMap<String, FieldClass>,
    config: &'a Config,
    file: &'a SourceFile,
    fn_name: &'a str,
    viols: Vec<Finding>,
}

impl<'a> MatrixWalker<'a> {
    fn violation(&mut self, line: u32, field: &str, why: &str) {
        self.viols.push(Finding::new(
            "thread-roles",
            &self.file.rel,
            line,
            self.fn_name,
            format!("field {field} unsynchronized"),
            format!(
                "shared field `{field}` {why} — every touch of engine-shared \
                 state must go through its owning lock, an atomic method, or \
                 an `Arc` clone (or carry a documented exemption in the \
                 lint config)"
            ),
        ));
    }

    /// Checks a direct field touch that is not a sanctioned receiver.
    fn touch(&mut self, name: &str, line: u32) {
        match self.fields.get(name) {
            Some(FieldClass::Guarded) => self.violation(
                line,
                name,
                "is a lock but is used without acquiring it (expected \
                 `.lock()`/`.read()`/`.write()` or `plock(&…)`)",
            ),
            Some(FieldClass::Atomic) => {
                self.violation(line, name, "is an atomic used without an atomic method")
            }
            Some(FieldClass::Plain { allowed: false }) => self.violation(
                line,
                name,
                "is plain data on a cross-thread struct with no owning lock",
            ),
            _ => {}
        }
    }
}

impl Visit for MatrixWalker<'_> {
    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                let Expr::Field { base, name, .. } = recv.as_ref() else {
                    return ast::walk_expr(self, e);
                };
                let Some(class) = self.fields.get(name.as_str()).copied() else {
                    return ast::walk_expr(self, e);
                };
                match class {
                    FieldClass::Guarded if !LOCK_RECV_METHODS.contains(&method.as_str()) => {
                        self.violation(
                            *line,
                            name,
                            &format!(
                                "is a lock but `.{method}()` is called on it \
                                 directly (expected a lock acquisition)"
                            ),
                        );
                    }
                    FieldClass::Atomic if ATOMIC_ESCAPE_METHODS.contains(&method.as_str()) => {
                        self.violation(
                            *line,
                            name,
                            &format!("escapes atomic access via `.{method}()`"),
                        );
                    }
                    _ => {}
                }
                // A method on a tracked field is the sanctioned touch:
                // step over the field itself.
                self.expr(base);
                for a in args {
                    self.expr(a);
                }
            }
            // `drop(x.field)` and `plock(&x.field)` sanction a direct
            // field argument the same way.
            Expr::Call { func, args, .. }
                if func
                    .last_name()
                    .is_some_and(|n| n == "drop" || self.config.lock_acquire_fns.contains(&n)) =>
            {
                self.expr(func);
                for a in args {
                    match a {
                        Expr::Field { base, .. } => self.expr(base),
                        _ => self.expr(a),
                    }
                }
            }
            Expr::Field { name, line, .. } => {
                self.touch(name, *line);
                ast::walk_expr(self, e);
            }
            _ => ast::walk_expr(self, e),
        }
    }
}

fn thread_roles(files: &[SourceFile], cg: &CallGraph<'_>, config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();

    // (a) Field access matrix over the configured shared structs.
    for f in files {
        let mut fields: BTreeMap<String, FieldClass> = BTreeMap::new();
        for (file_rel, sname, allowed) in &config.shared_structs {
            if *file_rel != f.rel {
                continue;
            }
            for sd in &f.ast.structs {
                if sd.name != *sname {
                    continue;
                }
                for fd in &sd.fields {
                    fields
                        .entry(fd.name.clone())
                        .or_insert_with(|| classify(fd, allowed, config));
                }
            }
        }
        if fields.is_empty() {
            continue;
        }
        // Field accesses are matched by name, so a name also declared by
        // an untracked struct in the same file is ambiguous (e.g. the
        // `EngineStats` snapshot reuses `ops`) — drop it rather than
        // flag the snapshot's plain copies.
        let tracked: BTreeSet<&str> = config
            .shared_structs
            .iter()
            .filter(|(rel, ..)| *rel == f.rel)
            .map(|(_, name, _)| *name)
            .collect();
        for sd in &f.ast.structs {
            if tracked.contains(sd.name.as_str()) {
                continue;
            }
            for fd in &sd.fields {
                fields.remove(&fd.name);
            }
        }
        if fields.is_empty() {
            continue;
        }
        for def in &f.ast.fns {
            if f.is_test_line(def.line) {
                continue;
            }
            let Some(body) = &def.body else { continue };
            let mut w = MatrixWalker {
                fields: &fields,
                config,
                file: f,
                fn_name: &def.name,
                viols: Vec::new(),
            };
            w.block(body);
            out.extend(w.viols);
        }
    }

    // (b) Role reachability: writer-owned parameter types must be
    // unreachable from client entry points.
    let owned: Vec<usize> = cg
        .iter()
        .filter(|(_, _, def)| {
            def.param_tys
                .iter()
                .any(|t| config.owned_types.contains(&t.as_str()))
        })
        .map(|(i, _, _)| i)
        .collect();
    if owned.is_empty() {
        return out;
    }
    let mut reachable: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<(usize, Vec<String>)> = Vec::new();
    for (i, file, def) in cg.iter() {
        let is_entry = config
            .client_entry_owners
            .iter()
            .any(|(rel, owner)| *rel == file.rel && def.owner.as_deref() == Some(*owner));
        if is_entry
            && !config.role_setup_fns.contains(&def.name.as_str())
            && !file.is_test_line(def.line)
            && def.body.is_some()
            && reachable.insert(i)
        {
            queue.push((i, vec![def.name.clone()]));
        }
    }
    while let Some((node, chain)) = queue.pop() {
        let file = cg.file_of(node);
        let def = cg.nodes[node].def;
        let Some(body) = node_body(cg, config, node) else {
            continue;
        };
        let locals = local_names(def);
        let mut callees: Vec<(Option<String>, String, u32)> = Vec::new();
        ast::each_expr_in(body, |e| {
            callees.extend(callee(e).map(|(q, n, l)| (q.map(str::to_string), n.to_string(), l)));
        });
        for (qual, name, line) in callees {
            if locals.contains(&name) || config.lock_acquire_fns.contains(&name.as_str()) {
                continue;
            }
            for &next in cg.resolve_in_crate(&file.crate_key, &name) {
                if let Some(q) = &qual {
                    if cg.nodes[next].def.owner.as_deref() != Some(q.as_str()) {
                        continue;
                    }
                }
                let ndef = cg.nodes[next].def;
                if config.role_setup_fns.contains(&ndef.name.as_str()) {
                    continue;
                }
                let mut nchain = chain.clone();
                nchain.push(ndef.name.clone());
                if owned.contains(&next) {
                    let nfile = cg.file_of(next);
                    out.push(Finding::new(
                        "thread-roles",
                        &file.rel,
                        line,
                        &def.name,
                        format!("client thread reaches {}", ndef.name),
                        format!(
                            "client entry path {} reaches `{}` ({}:{}), whose \
                             parameters name a writer-owned type ({}): the \
                             volume belongs to the log-writer thread; clients \
                             must go through the queue/slot hand-off",
                            nchain.join(" -> "),
                            ndef.name,
                            nfile.rel,
                            ndef.line,
                            config.owned_types.join("/"),
                        ),
                    ));
                    continue;
                }
                if reachable.insert(next) {
                    queue.push((next, nchain));
                }
            }
        }
    }
    out
}

// ---- condvar-discipline ---------------------------------------------------

fn condvar_discipline(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !config.concurrency_files.iter().any(|p| *p == f.rel) {
            continue;
        }
        // Condvar-typed field names declared in this file.
        let mut cv_fields: BTreeSet<&str> = BTreeSet::new();
        for sd in &f.ast.structs {
            for fd in &sd.fields {
                if fd.ty.first().is_some_and(|t| t == "Condvar") {
                    cv_fields.insert(fd.name.as_str());
                }
            }
        }
        for def in &f.ast.fns {
            if f.is_test_line(def.line) {
                continue;
            }
            let Some(body) = &def.body else { continue };
            let mut w = CondvarWalker {
                cv_fields: &cv_fields,
                config,
                file: f,
                fn_name: &def.name,
                loop_depth: 0,
                locked_yet: false,
                viols: Vec::new(),
            };
            w.block(body);
            out.extend(w.viols);
        }
    }
    out
}

struct CondvarWalker<'a> {
    cv_fields: &'a BTreeSet<&'a str>,
    config: &'a Config,
    file: &'a SourceFile,
    fn_name: &'a str,
    /// Enclosing `loop`/`while`/`for` bodies (closures inherit it).
    loop_depth: u32,
    /// A lock has been acquired earlier in this function (evaluation
    /// order) — the precondition for a notify.
    locked_yet: bool,
    viols: Vec<Finding>,
}

impl<'a> CondvarWalker<'a> {
    /// Checks one method call once its receiver and arguments are walked.
    fn method_call(&mut self, recv: &Expr, method: &str, args: &[Expr], line: u32) {
        let recv_name = expr_path(recv).last().cloned();
        // (snippet, message) of each violation the call makes.
        let mut found = Vec::new();
        if let Some(rn) = &recv_name {
            if self.cv_fields.contains(rn.as_str()) {
                match method {
                    // `wait_while` rechecks its own predicate.
                    "wait" | "wait_timeout" if self.loop_depth == 0 => found.push((
                        format!("{rn}.{method} outside loop"),
                        format!(
                            "`{rn}.{method}(…)` is not inside a \
                             predicate-rechecking loop: condvar wakeups \
                             are spurious by contract — re-test the \
                             predicate in a `loop`/`while` around the \
                             wait (or use `wait_while`)"
                        ),
                    )),
                    "notify_one" | "notify_all" if !self.locked_yet => found.push((
                        format!("{rn}.{method} without lock"),
                        format!(
                            "`{rn}.{method}()` fires with no earlier \
                             lock acquisition in this function: a \
                             notify must be dominated by the state \
                             write under the paired mutex, or the \
                             waiter can miss the wakeup"
                        ),
                    )),
                    _ => {}
                }
            }
            if self.config.publish_atomics.contains(&rn.as_str()) {
                let ord = args.last().and_then(|a| a.last_name());
                if ATOMIC_STORE_METHODS.contains(&method)
                    && !ord.is_some_and(|o| RELEASE_ORDERINGS.contains(&o))
                {
                    found.push((
                        format!("{rn}.{method} ordering"),
                        format!(
                            "`{rn}.{method}(…)` publishes an epoch with \
                             a non-Release ordering ({}): readers may \
                             observe the new epoch before the map \
                             update it publishes — use `Release`/`AcqRel`",
                            ord.unwrap_or("?"),
                        ),
                    ));
                }
                if method == "load" && !ord.is_some_and(|o| ACQUIRE_ORDERINGS.contains(&o)) {
                    found.push((
                        format!("{rn}.load ordering"),
                        format!(
                            "`{rn}.load(…)` observes the publish epoch \
                             with a non-Acquire ordering ({}): the map \
                             update published before the store may not \
                             be visible — use `Acquire`",
                            ord.unwrap_or("?"),
                        ),
                    ));
                }
            }
        }
        for (snippet, message) in found {
            let f = Finding::new(
                "condvar-discipline",
                &self.file.rel,
                line,
                self.fn_name,
                snippet,
                message,
            );
            self.viols.push(f);
        }
        if LOCK_RECV_METHODS.contains(&method) && args.is_empty() {
            self.locked_yet = true;
        }
    }
}

impl Visit for CondvarWalker<'_> {
    fn expr(&mut self, e: &Expr) {
        match e {
            // The loop head runs outside the recheck; the body inside it.
            Expr::Loop { body, .. } | Expr::While { body, .. } | Expr::For { body, .. } => {
                if let Expr::While { cond: head, .. } | Expr::For { iter: head, .. } = e {
                    self.expr(head);
                }
                self.loop_depth += 1;
                self.block(body);
                self.loop_depth -= 1;
            }
            Expr::Call { func, .. } => {
                if func
                    .last_name()
                    .is_some_and(|n| self.config.lock_acquire_fns.contains(&n))
                {
                    self.locked_yet = true;
                }
                ast::walk_expr(self, e);
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                ast::walk_expr(self, e);
                self.method_call(recv, method, args, *line);
            }
            _ => ast::walk_expr(self, e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(files: &[SourceFile], config: &Config) -> Vec<Finding> {
        super::check(&Analysis::new(files, config))
    }

    fn engine_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/fsd/src/engine.rs".into(), "fsd".into(), false, src)
    }

    fn other_file(rel: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel.into(), "fsd".into(), false, src)
    }

    fn rule<'f>(out: &'f [Finding], id: &str) -> Vec<&'f Finding> {
        out.iter().filter(|f| f.rule == id).collect()
    }

    #[test]
    fn cross_file_lock_cycle_reported_once_with_both_sites() {
        let a = other_file(
            "crates/fsd/src/a.rs",
            "fn one(s: &S) { let g = plock(&s.alpha); let h = plock(&s.beta); }\n",
        );
        let b = other_file(
            "crates/fsd/src/b.rs",
            "fn two(s: &S) { let g = plock(&s.beta); let h = plock(&s.alpha); }\n",
        );
        let out = check(&[a, b], &Config::cedar());
        let cycles = rule(&out, "lock-graph");
        assert_eq!(cycles.len(), 1, "{out:?}");
        assert!(cycles[0].snippet.starts_with("cycle:"));
        assert!(cycles[0].message.contains("crates/fsd/src/a.rs"));
        assert!(cycles[0].message.contains("crates/fsd/src/b.rs"));
    }

    #[test]
    fn callee_acquisition_contributes_edge_to_cycle() {
        // `one` holds alpha and calls `helper`, which takes beta;
        // `two` takes them in the opposite order directly.
        let src = "fn helper(s: &S) { let g = plock(&s.beta); }\n\
                   fn one(s: &S) { let g = plock(&s.alpha); helper(s); }\n\
                   fn two(s: &S) { let g = plock(&s.beta); let h = plock(&s.alpha); }\n";
        let out = check(&[other_file("crates/fsd/src/a.rs", src)], &Config::cedar());
        assert_eq!(rule(&out, "lock-graph").len(), 1, "{out:?}");
    }

    #[test]
    fn guard_across_direct_force_flagged_in_engine_files() {
        let src = "impl E { fn publish(&self) { let g = plock(&self.signal); \
                   self.vol.force(); } }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        let v = rule(&out, "lock-graph");
        assert_eq!(v.len(), 1, "{out:?}");
        assert!(v[0].snippet.contains("g held across force()"));
    }

    #[test]
    fn guard_across_blocking_callee_flagged_interprocedurally() {
        let src = "impl E {\n\
                   fn settle(&self) { self.vol.force(); }\n\
                   fn publish(&self) { let g = plock(&self.signal); self.settle(); }\n\
                   }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        let v = rule(&out, "lock-graph");
        assert_eq!(v.len(), 1, "{out:?}");
        assert!(v[0].snippet.contains("g held across settle()"));
        assert!(v[0].message.contains("force()"));
    }

    #[test]
    fn nested_local_shadowing_a_blocking_fn_is_a_local() {
        // `settle` inside the `if` is a closure bound there, not the
        // blocking method of the same name.
        let src = "impl E {\n\
                   fn settle(&self) { self.vol.force(); }\n\
                   fn publish(&self, c: bool) { let g = plock(&self.signal); \
                   if c { let settle = || 1; settle(); } }\n\
                   }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        assert!(rule(&out, "lock-graph").is_empty(), "{out:?}");
    }

    #[test]
    fn guard_outside_engine_files_not_blocking_checked() {
        // Same shape as the direct-force case, but in a non-engine file:
        // the serial `SyncFs` wrapper legitimately holds its one lock.
        let src = "impl E { fn publish(&self) { let g = plock(&self.signal); \
                   self.vol.force(); } }\n";
        let out = check(&[other_file("crates/vol/src/fs.rs", src)], &Config::cedar());
        assert!(rule(&out, "lock-graph").is_empty(), "{out:?}");
    }

    #[test]
    fn consuming_condvar_wait_is_sanctioned() {
        let src = "impl Slot { fn wait(&self) -> R { let mut state = plock(&self.state);\n\
                   loop { if let Some(r) = state.take() { return r; }\n\
                   state = match self.cv.wait(state) { Ok(g) => g, Err(p) => p.into_inner() }; } } }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        assert!(rule(&out, "lock-graph").is_empty(), "{out:?}");
    }

    #[test]
    fn scope_exit_and_drop_release_guards() {
        let src = "impl E {\n\
                   fn a(&self) { { let g = plock(&self.signal); } self.rx.recv(); }\n\
                   fn b(&self) { let g = plock(&self.signal); drop(g); self.rx.recv(); }\n\
                   }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        assert!(rule(&out, "lock-graph").is_empty(), "{out:?}");
    }

    #[test]
    fn matrix_flags_raw_touch_of_guarded_and_atomic_fields() {
        let mut cfg = Config::cedar();
        cfg.shared_structs = vec![("crates/fsd/src/engine.rs", "Shared", vec![])];
        let src = "struct Shared { signal: Mutex<u32>, epoch: AtomicU64 }\n\
                   fn good(s: &Shared) { let g = plock(&s.signal); \
                   s.epoch.fetch_add(1, Ordering::AcqRel); }\n\
                   fn bad(s: &Shared) { let x = s.signal; let y = s.epoch; }\n";
        let out = check(&[engine_file(src)], &cfg);
        let v = rule(&out, "thread-roles");
        assert_eq!(v.len(), 2, "{out:?}");
        assert!(v.iter().all(|f| f.item == "bad"));
    }

    #[test]
    fn matrix_allows_exempted_plain_fields_and_arc() {
        let mut cfg = Config::cedar();
        cfg.shared_structs = vec![("crates/fsd/src/engine.rs", "Shared", vec!["cfg"])];
        let src = "struct Shared { cfg: EngineConfig, index: Arc<Map> }\n\
                   fn read(s: &Shared) { let n = s.cfg.max_batch_ops; let i = s.index.clone(); }\n";
        let out = check(&[engine_file(src)], &cfg);
        assert!(rule(&out, "thread-roles").is_empty(), "{out:?}");
    }

    #[test]
    fn matrix_flags_unexempted_plain_field() {
        let mut cfg = Config::cedar();
        cfg.shared_structs = vec![("crates/fsd/src/engine.rs", "Shared", vec![])];
        let src = "struct Shared { count: u64 }\n\
                   fn read(s: &Shared) { let n = s.count; }\n";
        let out = check(&[engine_file(src)], &cfg);
        assert_eq!(rule(&out, "thread-roles").len(), 1, "{out:?}");
    }

    #[test]
    fn client_entry_reaching_writer_owned_fn_flagged() {
        let mut cfg = Config::cedar();
        cfg.client_entry_owners = vec![("crates/fsd/src/engine.rs", "Session")];
        let src = "fn apply(vol: FsdVolume, n: u32) {}\n\
                   fn step(n: u32) { apply(mkvol(), n); }\n\
                   impl Session { fn read(&self, n: u32) { step(n); } }\n";
        let out = check(&[engine_file(src)], &cfg);
        let v = rule(&out, "thread-roles");
        assert_eq!(v.len(), 1, "{out:?}");
        assert!(v[0].message.contains("read -> step -> apply"));
    }

    #[test]
    fn writer_owned_fn_unreachable_from_clients_is_fine() {
        let mut cfg = Config::cedar();
        cfg.client_entry_owners = vec![("crates/fsd/src/engine.rs", "Session")];
        let src = "fn apply(vol: FsdVolume, n: u32) {}\n\
                   fn writer_loop(vol: FsdVolume) { apply(vol, 1); }\n\
                   impl Session { fn read(&self, n: u32) -> u32 { n } }\n";
        let out = check(&[engine_file(src)], &cfg);
        assert!(rule(&out, "thread-roles").is_empty(), "{out:?}");
    }

    #[test]
    fn condvar_wait_outside_loop_flagged_inside_loop_fine() {
        let src = "struct Slot { cv: Condvar, state: Mutex<u32> }\n\
                   impl Slot {\n\
                   fn bad(&self) { let g = plock(&self.state); \
                   let g = match self.cv.wait(g) { Ok(x) => x, Err(p) => p.into_inner() }; }\n\
                   fn good(&self) { let mut g = plock(&self.state); loop { \
                   g = match self.cv.wait(g) { Ok(x) => x, Err(p) => p.into_inner() }; } }\n\
                   }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        let v = rule(&out, "condvar-discipline");
        assert_eq!(v.len(), 1, "{out:?}");
        assert_eq!(v[0].item, "bad");
        assert!(v[0].snippet.contains("outside loop"));
    }

    #[test]
    fn notify_without_preceding_lock_flagged() {
        let src = "struct Slot { cv: Condvar, state: Mutex<u32> }\n\
                   impl Slot {\n\
                   fn bad(&self) { self.cv.notify_all(); }\n\
                   fn good(&self) { let mut g = plock(&self.state); *g = 1; \
                   self.cv.notify_all(); }\n\
                   }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        let v = rule(&out, "condvar-discipline");
        assert_eq!(v.len(), 1, "{out:?}");
        assert_eq!(v[0].item, "bad");
        assert!(v[0].snippet.contains("without lock"));
    }

    #[test]
    fn publish_atomic_orderings_checked() {
        let src = "impl E {\n\
                   fn bad_store(&self) { self.epoch.fetch_add(1, Ordering::Relaxed); }\n\
                   fn bad_load(&self) -> u64 { self.epoch.load(Ordering::Relaxed) }\n\
                   fn good(&self) -> u64 { self.epoch.fetch_add(1, Ordering::AcqRel); \
                   self.epoch.load(Ordering::Acquire) }\n\
                   }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        let v = rule(&out, "condvar-discipline");
        assert_eq!(v.len(), 2, "{out:?}");
        assert!(v.iter().any(|f| f.item == "bad_store"));
        assert!(v.iter().any(|f| f.item == "bad_load"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn t(s: &S) { let g = plock(&s.alpha); let h = plock(&s.beta); \
                   drop(h); drop(g); let h = plock(&s.beta); let g = plock(&s.alpha); } }\n";
        let out = check(&[engine_file(src)], &Config::cedar());
        assert!(rule(&out, "lock-graph").is_empty(), "{out:?}");
    }
}
