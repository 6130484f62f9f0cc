//! Rule `lock-order`: the static lock-acquisition graph.
//!
//! Builds the workspace's lock inventory from struct declarations
//! (`Mutex`/`RwLock`-typed fields), finds every acquisition site —
//! direct `.lock()`/`.read()`/`.write()` calls and calls to
//! guard-returning wrapper helpers like `lock_state()` — computes each
//! guard's live token range ([`crate::facts::guard_scope`]), and then:
//!
//! 1. **cycles**: an edge `L → M` is recorded when `M` is acquired
//!    (directly, or transitively through a called local function) while
//!    a guard on `L` is live. Any cycle — including a self-edge, the
//!    non-reentrant-mutex self-deadlock — is a finding.
//! 2. **durability under a lock**: a call to `append_sale` /
//!    `append_sales` / `checkpoint` / `sync_all` / `sync_data` (or to a
//!    local function that transitively reaches one) while any guard is
//!    live is a finding. Holding a lock across an fsync serializes every
//!    committer behind the disk; where that *is* the design (the
//!    group-commit journal mutex), a reasoned suppression documents it.
//!
//! Lock identities are `Struct.field` when the receiver resolves against
//! the inventory (`self.ledger` in a `Broker` impl → `Broker.ledger`; a
//! bare `ledger.lock()` resolves by unique field name). Unresolvable
//! `.lock()` receivers still participate in the durability check but are
//! kept out of the cycle graph — a per-site pseudo-identity cannot be
//! matched across functions and would fabricate edges.

use crate::facts::{fn_facts, guard_scope, FnFacts};
use crate::lexer::lex;
use crate::parse::{parse_file, FileAst};
use crate::suppress;
use crate::testmap::TestMap;
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Path prefixes whose files join the lock graph.
pub const LOCK_SCOPE_PREFIXES: &[&str] = &["crates/market/src/", "crates/server/src/"];

/// Calls that make (or transitively reach) a durability barrier.
const DURABLE_NAMES: &[&str] = &[
    "append_sale",
    "append_sales",
    "checkpoint",
    "sync_all",
    "sync_data",
    "fsync",
];

/// Lock-acquiring method names.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Whether a call site may resolve to a local function for
/// interprocedural propagation. Bare-name resolution is only sound for
/// `self.method()` and free `method()` calls — resolving `records.len()`
/// against *some* local `len` would fabricate lock and durability
/// summaries out of std method names.
fn resolvable(c: &crate::facts::CallSite) -> bool {
    c.chain.is_empty() || c.chain == ["self"]
}

/// Prelude functions: a bare call to one of these names the prelude's
/// item unless a free fn of the same name shadows it. `drop(guard)` is
/// `std::mem::drop`, never the `fn drop` of some local `impl Drop` —
/// resolving it there would charge the caller that impl's locks.
const PRELUDE_FNS: &[&str] = &["drop"];

/// Workspace fns by name, for interprocedural call resolution.
struct FnIndex<'m> {
    /// Every fn: name → `(model, fn)` indices.
    all: BTreeMap<&'m str, Vec<(usize, usize)>>,
    /// Free fns only (no `impl` owner).
    free: BTreeMap<&'m str, Vec<(usize, usize)>>,
}

impl<'m> FnIndex<'m> {
    fn new(models: &'m [FileModel]) -> Self {
        let mut index = FnIndex {
            all: BTreeMap::new(),
            free: BTreeMap::new(),
        };
        for (mi, m) in models.iter().enumerate() {
            for (fi, f) in m.ast.fns.iter().enumerate() {
                index.all.entry(&f.name).or_default().push((mi, fi));
                if f.owner.is_none() {
                    index.free.entry(&f.name).or_default().push((mi, fi));
                }
            }
        }
        index
    }

    /// The local fns call site `c` may reach (empty when unresolvable).
    fn callees(&self, c: &crate::facts::CallSite) -> &[(usize, usize)] {
        if !resolvable(c) {
            return &[];
        }
        let names = if c.chain.is_empty() && PRELUDE_FNS.contains(&c.method.as_str()) {
            &self.free
        } else {
            &self.all
        };
        names.get(c.method.as_str()).map_or(&[], Vec::as_slice)
    }
}

/// One analyzed file.
struct FileModel {
    path: String,
    ast: FileAst,
    facts: Vec<FnFacts>,
    tests: TestMap,
}

/// One lock acquisition with its guard's live range.
struct Acquire {
    /// Resolved `Struct.field` identity, or `None` for an anonymous
    /// `.lock()` receiver (durability check only).
    lock: Option<String>,
    /// Display name for messages (resolved identity or raw receiver).
    label: String,
    idx: usize,
    scope_end: usize,
    line: u32,
    col: u32,
}

/// Runs the lock-order rule over `(path, src)` pairs, filtering findings
/// through each file's inline suppressions. Returns the surviving
/// findings plus the number of suppressions that fired.
pub fn check_files(files: &[(&str, &str)]) -> (Vec<Finding>, usize) {
    let mut models = Vec::new();
    for (path, src) in files {
        let tokens = lex(src);
        let tests = if path.contains("/tests/") || path.contains("/benches/") {
            TestMap::whole_file()
        } else {
            TestMap::from_tokens(&tokens)
        };
        let ast = parse_file(&tokens);
        let facts: Vec<FnFacts> = ast.fns.iter().map(|f| fn_facts(&ast, f)).collect();
        models.push(FileModel {
            path: path.to_string(),
            ast,
            facts,
            tests,
        });
    }

    let raw = analyze(&models);

    // Suppression filtering, per file.
    let mut out = Vec::new();
    let mut used = 0usize;
    for (path, src) in files {
        let tokens = lex(src);
        let mut scratch = Vec::new(); // malformed-suppression findings belong to the per-file pass
        let sups = suppress::collect(&tokens, path, &mut scratch);
        for f in raw.iter().filter(|f| f.file == *path) {
            if suppress::is_suppressed(&sups, &f.rule, f.line) {
                used += 1;
            } else {
                let mut f = f.clone();
                crate::rules::attach_snippets(src, std::slice::from_mut(&mut f));
                out.push(f);
            }
        }
    }
    (out, used)
}

fn analyze(models: &[FileModel]) -> Vec<Finding> {
    // 1. Global lock inventory: field name → declaring structs.
    let mut fields: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for m in models {
        for lf in &m.ast.lock_fields {
            fields.entry(&lf.field).or_default().insert(&lf.owner);
        }
    }
    let resolve = |owner: Option<&str>, chain: &[String]| -> Option<String> {
        let field = chain.last()?;
        let owners = fields.get(field.as_str())?;
        if chain.first().map(String::as_str) == Some("self") {
            if let Some(o) = owner {
                if owners.contains(o) {
                    return Some(format!("{o}.{field}"));
                }
            }
        }
        if owners.len() == 1 {
            let o = owners.iter().next().unwrap();
            return Some(format!("{o}.{field}"));
        }
        None
    };

    // 2. Guard-returning wrappers: (name → lock id) for helpers whose
    //    body performs one resolvable acquisition.
    let mut wrappers: BTreeMap<&str, String> = BTreeMap::new();
    for m in models {
        for (f, facts) in m.ast.fns.iter().zip(&m.facts) {
            if !f.returns_guard {
                continue;
            }
            let mut acquired = facts.calls.iter().filter_map(|c| {
                if LOCK_METHODS.contains(&c.method.as_str()) {
                    resolve(f.owner.as_deref(), &c.chain)
                } else {
                    None
                }
            });
            if let Some(id) = acquired.next() {
                wrappers.insert(&f.name, id);
            }
        }
    }

    // 3. Per-function acquisitions with guard scopes, plus the local-fn
    //    call graph for transitive lock sets and durability.
    let fn_index = FnIndex::new(models);
    let acquires: Vec<Vec<Vec<Acquire>>> = models
        .iter()
        .map(|m| {
            m.ast
                .fns
                .iter()
                .zip(&m.facts)
                .map(|(f, facts)| {
                    let mut list = Vec::new();
                    for c in &facts.calls {
                        let (lock, label) = if LOCK_METHODS.contains(&c.method.as_str()) {
                            let resolved = resolve(f.owner.as_deref(), &c.chain);
                            // `.read()`/`.write()` are too common as I/O
                            // methods: only a resolved receiver counts.
                            if resolved.is_none() && c.method != "lock" {
                                continue;
                            }
                            let label = resolved
                                .clone()
                                .unwrap_or_else(|| c.chain.join(".").to_string());
                            (resolved, label)
                        } else if let Some(id) = wrappers.get(c.method.as_str()) {
                            // A wrapper's own body acquisition is the
                            // return value, not a held guard.
                            if wrappers.contains_key(f.name.as_str()) {
                                continue;
                            }
                            (Some(id.clone()), id.clone())
                        } else {
                            continue;
                        };
                        let (_kind, scope_end) = guard_scope(&m.ast.code, c.idx, f.body.1);
                        list.push(Acquire {
                            lock,
                            label,
                            idx: c.idx,
                            scope_end,
                            line: c.line,
                            col: c.col,
                        });
                    }
                    list
                })
                .collect()
        })
        .collect();

    // 4. Fixpoint: per-fn transitive lock set + durability flag.
    let mut lockset: BTreeMap<(usize, usize), BTreeSet<String>> = BTreeMap::new();
    let mut durable: BTreeMap<(usize, usize), bool> = BTreeMap::new();
    for (mi, m) in models.iter().enumerate() {
        for (fi, fn_acquires) in acquires[mi].iter().enumerate() {
            let set: BTreeSet<String> = fn_acquires.iter().filter_map(|a| a.lock.clone()).collect();
            let dur = m.facts[fi]
                .calls
                .iter()
                .any(|c| DURABLE_NAMES.contains(&c.method.as_str()));
            lockset.insert((mi, fi), set);
            durable.insert((mi, fi), dur);
        }
    }
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 32 {
        changed = false;
        rounds += 1;
        for (mi, m) in models.iter().enumerate() {
            for (fi, facts) in m.facts.iter().enumerate() {
                for c in &facts.calls {
                    for &(cm, cf) in fn_index.callees(c) {
                        if (cm, cf) == (mi, fi) {
                            continue;
                        }
                        let (add_locks, add_dur) = (
                            lockset.get(&(cm, cf)).cloned().unwrap_or_default(),
                            durable.get(&(cm, cf)).copied().unwrap_or(false),
                        );
                        let entry = lockset.get_mut(&(mi, fi)).unwrap();
                        for l in add_locks {
                            if entry.insert(l) {
                                changed = true;
                            }
                        }
                        if add_dur && !durable[&(mi, fi)] {
                            durable.insert((mi, fi), true);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    // 5. Findings.
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), (String, u32, u32, String)> = BTreeMap::new();
    for (mi, m) in models.iter().enumerate() {
        for (fi, f) in m.ast.fns.iter().enumerate() {
            if m.tests.is_test_line(f.line) {
                continue;
            }
            let facts = &m.facts[fi];
            for a in &acquires[mi][fi] {
                if m.tests.is_test_line(a.line) {
                    continue;
                }
                // Durability calls under the guard.
                for c in &facts.calls {
                    if c.idx <= a.idx || c.idx > a.scope_end {
                        continue;
                    }
                    let call_durable = DURABLE_NAMES.contains(&c.method.as_str())
                        || fn_index
                            .callees(c)
                            .iter()
                            .any(|k| durable.get(k).copied().unwrap_or(false));
                    if call_durable {
                        findings.push(Finding::new(
                            "lock-order",
                            &m.path,
                            c.line,
                            c.col,
                            format!(
                                "lock `{}` held across durability call `{}` in `{}` — an fsync under a lock serializes every committer behind the disk; restructure, or suppress with the design argument",
                                a.label,
                                c.method,
                                qualified(f.owner.as_deref(), &f.name),
                            ),
                        ));
                    }
                }
                // Edges into the cycle graph (resolved identities only).
                let Some(src) = &a.lock else { continue };
                let via = qualified(f.owner.as_deref(), &f.name);
                for b in &acquires[mi][fi] {
                    if b.idx > a.idx && b.idx <= a.scope_end {
                        if let Some(dst) = &b.lock {
                            record_edge(&mut edges, src, dst, &m.path, b.line, b.col, &via);
                        }
                    }
                }
                for c in &facts.calls {
                    if c.idx <= a.idx || c.idx > a.scope_end {
                        continue;
                    }
                    for &(cm, cf) in fn_index.callees(c) {
                        if (cm, cf) == (mi, fi) {
                            continue;
                        }
                        for dst in lockset.get(&(cm, cf)).into_iter().flatten() {
                            record_edge(&mut edges, src, dst, &m.path, c.line, c.col, &via);
                        }
                    }
                }
            }
        }
    }

    // Self-edges: re-acquiring a held, non-reentrant lock.
    for ((src, dst), (file, line, col, via)) in &edges {
        if src == dst {
            findings.push(Finding::new(
                "lock-order",
                file,
                *line,
                *col,
                format!(
                    "lock `{src}` acquired while already held in `{via}` — self-deadlock on a non-reentrant lock"
                ),
            ));
        }
    }
    // Cycles among distinct locks: DFS over the edge set.
    let graph: BTreeMap<&str, Vec<&str>> = {
        let mut g: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (src, dst) in edges.keys() {
            if src != dst {
                g.entry(src.as_str()).or_default().push(dst.as_str());
            }
        }
        g
    };
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for &start in graph.keys() {
        let mut stack = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            for &next in graph.get(node).into_iter().flatten() {
                if next == start {
                    let members: BTreeSet<String> = path.iter().map(|s| s.to_string()).collect();
                    if reported.insert(members) {
                        let (file, line, col, via) = &edges[&(node.to_string(), next.to_string())];
                        let cycle = path.join(" → ");
                        findings.push(Finding::new(
                            "lock-order",
                            file,
                            *line,
                            *col,
                            format!(
                                "lock-acquisition cycle {cycle} → {start} (closing edge in `{via}`) — concurrent threads taking these locks in different orders can deadlock"
                            ),
                        ));
                    }
                } else if !path.contains(&next) && path.len() < 8 {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    findings
}

fn record_edge(
    edges: &mut BTreeMap<(String, String), (String, u32, u32, String)>,
    src: &str,
    dst: &str,
    file: &str,
    line: u32,
    col: u32,
    via: &str,
) {
    edges
        .entry((src.to_string(), dst.to_string()))
        .or_insert_with(|| (file.to_string(), line, col, via.to_string()));
}

fn qualified(owner: Option<&str>, name: &str) -> String {
    match owner {
        Some(o) => format!("{o}::{name}"),
        None => name.to_string(),
    }
}
