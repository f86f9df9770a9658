//! The contract rules.
//!
//! Each rule is a pure function over one file's tokens + structure +
//! pragmas, emitting raw findings; suppression (allow matching) and the
//! pragma meta-rules live in the crate-root driver so every rule
//! stays oblivious to pragmas.

use crate::config::LintConfig;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::pragma::Pragmas;
use crate::report::Violation;
use crate::structure::{Structure, NON_INDEX_KEYWORDS};

/// Registry of contract rule names, as written in allow pragmas.
pub const RULES: [&str; 5] = [
    "no-panic-in-serving",
    "no-alloc-in-kernels",
    "determinism-purity",
    "lock-discipline",
    "error-taxonomy",
];

/// Pragma meta-rule names (not suppressible, reported alongside).
pub const META_RULES: [&str; 3] = ["malformed-pragma", "unknown-rule", "unused-allow"];

/// Everything a rule needs about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Lexed tokens + comments.
    pub lexed: &'a Lexed,
    /// Structure facts.
    pub st: &'a Structure,
    /// Parsed pragmas (kernel marks).
    pub pragmas: &'a Pragmas,
    /// Lint configuration.
    pub cfg: &'a LintConfig,
}

impl<'a> FileCtx<'a> {
    fn toks(&self) -> &'a [Tok] {
        &self.lexed.tokens
    }

    /// Token `i` is exempt everywhere: test code or debug_assert body.
    fn exempt(&self, i: usize) -> bool {
        self.st.in_test(i) || self.st.in_debug(i)
    }

    /// Is token `i` inside a kernel-marked function body?
    fn in_kernel(&self, i: usize) -> bool {
        self.pragmas
            .kernel_fns
            .iter()
            .any(|&fi| self.st.fns[fi].body.map(|(o, c)| o <= i && i <= c).unwrap_or(false))
    }

    fn emit(&self, out: &mut Vec<Violation>, rule: &'static str, line: u32, msg: String) {
        out.push(Violation { rule, file: self.rel.to_string(), line, msg });
    }
}

/// Run every contract rule over one file.
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    no_panic_in_serving(ctx, &mut out);
    no_alloc_in_kernels(ctx, &mut out);
    determinism_purity(ctx, &mut out);
    lock_discipline(ctx, &mut out);
    error_taxonomy(ctx, &mut out);
    out
}

/// Macro names whose expansion can panic at runtime.
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Rule 1: the hot serving domain must be panic-free. Flags
/// `.unwrap()` / `.expect(`, panicking macros, and slice indexing
/// (`x[i]` can panic; use `.get()` or mark the fn `nc-lint: kernel`,
/// which trades the indexing check for the stricter no-alloc rule).
fn no_panic_in_serving(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !ctx.cfg.serving.contains(ctx.rel) {
        return;
    }
    let toks = ctx.toks();
    for i in 0..toks.len() {
        if ctx.exempt(i) {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(...)`.
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        {
            ctx.emit(
                out,
                "no-panic-in-serving",
                t.line,
                format!(
                    "`.{}()` in the serving domain — use a typed error or checked access",
                    t.text
                ),
            );
            continue;
        }
        // Panicking macros.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false)
        {
            ctx.emit(
                out,
                "no-panic-in-serving",
                t.line,
                format!("`{}!` in the serving domain — serving code must not panic", t.text),
            );
            continue;
        }
        // Index expressions: `[` whose previous code token is an
        // expression tail (identifier, `]`, or `)`), outside kernels.
        if t.is_punct('[') && i > 0 && !ctx.in_kernel(i) {
            let p = &toks[i - 1];
            let indexable = (p.kind == TokKind::Ident
                && !NON_INDEX_KEYWORDS.contains(&p.text.as_str()))
                || p.is_punct(']')
                || p.is_punct(')');
            if indexable {
                ctx.emit(
                    out,
                    "no-panic-in-serving",
                    t.line,
                    "slice indexing in the serving domain — use `.get()` or mark the fn \
                     `nc-lint: kernel` (bounds by construction)"
                        .to_string(),
                );
            }
        }
    }
}

/// Rule 2: kernel-marked functions must not allocate or copy.
fn no_alloc_in_kernels(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    const ALLOC_MACROS: &[&str] = &["vec", "format"];
    const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "HashMap", "BTreeMap", "VecDeque"];
    const ALLOC_METHODS: &[&str] =
        &["collect", "clone", "cloned", "to_vec", "to_owned", "to_string"];
    let toks = ctx.toks();
    for &fi in &ctx.pragmas.kernel_fns {
        let f = &ctx.st.fns[fi];
        let Some((open, close)) = f.body else { continue };
        for i in open..=close.min(toks.len() - 1) {
            if ctx.st.in_debug(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |c: char| toks.get(i + 1).map(|n| n.is_punct(c)).unwrap_or(false);
            let hit = if ALLOC_MACROS.contains(&t.text.as_str()) && next_is('!') {
                Some(format!("`{}!`", t.text))
            } else if ALLOC_TYPES.contains(&t.text.as_str())
                && next_is(':')
                && toks.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(false)
            {
                Some(format!("`{}::`", t.text))
            } else if ALLOC_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_punct('.')
                && next_is('(')
            {
                Some(format!("`.{}()`", t.text))
            } else {
                None
            };
            if let Some(what) = hit {
                ctx.emit(
                    out,
                    "no-alloc-in-kernels",
                    t.line,
                    format!(
                        "{} inside kernel fn `{}` — kernels must not allocate or copy",
                        what, f.name
                    ),
                );
            }
        }
    }
}

/// Rule 3: the determinism domain must not read wall clocks or ambient
/// randomness: every result follows from pinned seeds and the calls
/// made, so runs replay exactly.
fn determinism_purity(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !ctx.cfg.determinism.contains(ctx.rel) {
        return;
    }
    const BANNED: &[&str] =
        &["Instant", "SystemTime", "UNIX_EPOCH", "thread_rng", "RandomState", "from_entropy"];
    for (i, t) in ctx.toks().iter().enumerate() {
        if ctx.exempt(i) {
            continue;
        }
        if t.kind == TokKind::Ident && BANNED.contains(&t.text.as_str()) {
            ctx.emit(
                out,
                "determinism-purity",
                t.line,
                format!(
                    "`{}` in the determinism domain — results must follow from pinned seeds, \
                     not wall clocks or ambient randomness",
                    t.text
                ),
            );
        }
    }
}

/// One lock acquisition site found by rule 4.
struct Acq {
    /// Token index of the method ident (`read`/`write`/`lock`).
    idx: usize,
    /// Configured lock name (the receiver field).
    name: String,
    /// Position of `name` in the declared order.
    order: usize,
    /// True for `.write()`.
    is_write: bool,
    /// Token-index scope the guard lexically covers.
    scope: (usize, usize),
}

/// Rule 4: lock discipline for the epoch-swap protocol. Within a
/// guard's lexical scope: no re-acquisition of the same lock (deadlock
/// with `parking_lot`'s non-reentrant locks), no acquisition of an
/// earlier lock in the declared order, and — under a write guard — no
/// calls into the trainer/retrain entry points (training must finish
/// before the publish lock is taken).
fn lock_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks = ctx.toks();
    let mut acqs: Vec<Acq> = Vec::new();
    for i in 0..toks.len() {
        if ctx.st.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "read" | "write" | "lock") {
            continue;
        }
        // Shape: `<name> . read ( )`.
        if !(i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_punct(')')).unwrap_or(false))
        {
            continue;
        }
        let name = toks[i - 2].text.clone();
        let Some(order) = ctx.cfg.lock_order.iter().position(|l| *l == name) else { continue };
        let is_write = t.text == "write";
        let scope = guard_scope(ctx, i);
        acqs.push(Acq { idx: i, name, order, is_write, scope });
    }
    for a in &acqs {
        // Nested acquisitions inside this guard's scope.
        for b in &acqs {
            if b.idx <= a.idx || b.idx < a.scope.0 || b.idx > a.scope.1 {
                continue;
            }
            if b.name == a.name {
                ctx.emit(
                    out,
                    "lock-discipline",
                    toks[b.idx].line,
                    format!(
                        "lock `{}` acquired again while its guard (line {}) is in scope — \
                         parking_lot locks are not reentrant",
                        a.name, toks[a.idx].line
                    ),
                );
            } else if b.order < a.order {
                ctx.emit(
                    out,
                    "lock-discipline",
                    toks[b.idx].line,
                    format!(
                        "lock `{}` acquired while `{}` guard (line {}) is held — violates the \
                         declared acquisition order",
                        b.name, a.name, toks[a.idx].line
                    ),
                );
            }
        }
        // Forbidden entry points under a write guard.
        if a.is_write {
            for j in a.scope.0..=a.scope.1.min(toks.len() - 1) {
                if j <= a.idx || ctx.st.in_test(j) {
                    continue;
                }
                let t = &toks[j];
                if t.kind == TokKind::Ident
                    && ctx.cfg.forbidden_under_write.contains(&t.text)
                    && toks.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                {
                    ctx.emit(
                        out,
                        "lock-discipline",
                        t.line,
                        format!(
                            "`{}(..)` called while the `{}` write guard (line {}) is held — \
                             training must complete before the epoch-swap publish lock",
                            t.text, a.name, toks[a.idx].line
                        ),
                    );
                }
            }
        }
    }
}

/// Lexical scope of a guard acquired at method-ident token `m`.
///
/// Let-bound guards (`let g = x.write();`) live to the end of the
/// enclosing block, or to an explicit `drop(g)`. Temporary guards
/// (`x.write().field = v;`) live to the end of their statement.
fn guard_scope(ctx: &FileCtx<'_>, m: usize) -> (usize, usize) {
    let toks = ctx.toks();
    // Walk back over the receiver chain (`a . b . write`), then look
    // for `let [mut] name =` immediately before it.
    let mut r = m - 2;
    while r >= 2 && toks[r - 1].is_punct('.') && toks[r - 2].kind == TokKind::Ident {
        r -= 2;
    }
    let mut bound: Option<&str> = None;
    if r >= 3 && toks[r - 1].is_punct('=') && toks[r - 2].kind == TokKind::Ident {
        let name_idx = r - 2;
        let mut q = name_idx;
        if q >= 1 && toks[q - 1].is_ident("mut") {
            q -= 1;
        }
        if q >= 1 && toks[q - 1].is_ident("let") {
            bound = Some(&toks[name_idx].text);
        }
    }
    match bound {
        Some(name) => {
            let open = ctx.st.enclosing_brace[m];
            let end = if open == usize::MAX {
                toks.len() - 1
            } else {
                ctx.st.close_of(open).unwrap_or(toks.len() - 1)
            };
            // An explicit `drop(name)` ends the scope early.
            for j in m..end {
                if toks[j].is_ident("drop")
                    && toks.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                    && toks.get(j + 2).map(|n| n.is_ident(name)).unwrap_or(false)
                {
                    return (m, j);
                }
            }
            (m, end)
        }
        None => {
            // Temporary: to the end of the statement, bounded by the
            // enclosing block (a tail expression has no `;`).
            let base = ctx.st.enclosing_brace[m];
            let block_end = if base == usize::MAX {
                toks.len() - 1
            } else {
                ctx.st.close_of(base).unwrap_or(toks.len() - 1)
            };
            let mut j = m;
            while j < block_end {
                if toks[j].is_punct(';') && ctx.st.enclosing_brace[j] == base {
                    break;
                }
                j += 1;
            }
            (m, j)
        }
    }
}

/// Rule 5: error-taxonomy hygiene. A `pub fn` returning `()` that
/// contains a panicking macro has no way to report failure — it should
/// return a typed error instead.
fn error_taxonomy(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !ctx.cfg.taxonomy.contains(ctx.rel) {
        return;
    }
    let toks = ctx.toks();
    for f in &ctx.st.fns {
        if !(f.is_pub && f.returns_unit) {
            continue;
        }
        let Some((open, close)) = f.body else { continue };
        if ctx.st.in_test(f.fn_idx) {
            continue;
        }
        for i in open..=close.min(toks.len() - 1) {
            if ctx.exempt(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false)
            {
                ctx.emit(
                    out,
                    "error-taxonomy",
                    t.line,
                    format!(
                        "pub fn `{}` returns `()` but contains `{}!` — return a typed error \
                         instead of panicking",
                        f.name, t.text
                    ),
                );
            }
        }
    }
}
