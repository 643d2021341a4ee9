//! The repo-specific lints.
//!
//! Each lint is a function from a lexed [`SourceFile`] to findings. All of
//! them work on the *code* channel (comments stripped, literals blanked),
//! skip `#[cfg(test)]` regions and test-only files, and honour inline
//! justification annotations:
//!
//! * `// ORD: <why>` — justifies a relaxed atomic ordering on that line
//!   (or the comment block directly above it),
//! * `// DET: <why>` — justifies wall-clock use inside a deterministic
//!   module (telemetry timing, deadlines),
//! * `// LINT-ALLOW: <lint-name> <why>` — suppresses any lint by name.

use crate::lexer::{has_annotation, FileKind, SourceFile};

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported, but only fails the run under `--deny-all`.
    Warn,
    /// Fails the run.
    Deny,
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint identifier (e.g. `no-unwrap-in-lib`).
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Default severity of the lint that produced this.
    pub severity: Severity,
}

/// Names of every lexical lint, in reporting order.
pub const LINT_NAMES: &[&str] = &[
    "no-unwrap-in-lib",
    "no-stdout-in-lib",
    "ordering-discipline",
    "determinism",
    "guard-blocking",
    "lock-order-cycle",
    "lock-order",
    "atomic-pairing",
    "atomic-signal",
];

/// Modules whose output must be a pure function of their inputs: the
/// D&C-GEN task tree (non-overlap guarantee), the generation schedulers
/// and their shared worker pool (byte-identical output at any worker
/// count; SOPG's exact emission order), the trainer (bit-exact resume),
/// both persistence formats, and the GEMM worker pool plus its kernels
/// (thread-count-invariant results).
const DETERMINISTIC_MODULES: &[&str] = &[
    "crates/core/src/dcgen.rs",
    "crates/core/src/sched/mod.rs",
    "crates/core/src/sched/pool.rs",
    "crates/core/src/sched/dcgen.rs",
    "crates/core/src/sched/sample.rs",
    "crates/core/src/sched/sopg.rs",
    "crates/core/src/inference.rs",
    "crates/core/src/trainer.rs",
    "crates/core/src/journal.rs",
    "crates/core/src/checkpoint.rs",
    "crates/nn/src/pool.rs",
    "crates/nn/src/fast.rs",
];

/// Files allowed to write to stdout/stderr directly: the CLI binary, the
/// telemetry sink (the one sanctioned stderr writer), and the bench crate
/// (its entire purpose is rendering reports to stdout).
fn stdout_exempt(path: &str) -> bool {
    path == "src/main.rs"
        || path == "crates/telemetry/src/trace.rs"
        || path.starts_with("crates/bench/")
}

pub(crate) fn finding(
    lint: &'static str,
    file: &SourceFile,
    idx: usize,
    message: String,
    severity: Severity,
) -> Finding {
    Finding {
        lint,
        path: file.path.clone(),
        line: idx + 1,
        message,
        snippet: file.lines[idx].raw.trim().to_string(),
        severity,
    }
}

/// True when line `idx` carries a `LINT-ALLOW: <lint>` annotation (same
/// line or the comment block above).
pub(crate) fn inline_allowed(file: &SourceFile, idx: usize, lint: &str) -> bool {
    let lines = &file.lines;
    let tagged = |comment: &str| {
        comment
            .split("LINT-ALLOW:")
            .nth(1)
            .is_some_and(|rest| rest.trim_start().starts_with(lint))
    };
    if tagged(&lines[idx].comment) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if !l.code.trim().is_empty() || l.comment.trim().is_empty() {
            return false;
        }
        if tagged(&l.comment) {
            return true;
        }
    }
    false
}

/// Does `code` contain `pat` starting at a non-identifier boundary?
fn contains_token(code: &str, pat: &str) -> bool {
    token_position(code, pat).is_some()
}

pub(crate) fn token_position(code: &str, pat: &str) -> Option<usize> {
    // Patterns starting with `.` (method calls) legitimately follow an
    // identifier; only ident-initial patterns need a left boundary.
    let needs_boundary = pat
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut from = 0;
    while let Some(p) = code[from..].find(pat) {
        let pos = from + p;
        let boundary = !needs_boundary
            || pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

/// Runs every lexical lint over `file`.
#[must_use]
pub fn run_lints(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    no_unwrap_in_lib(file, &mut out);
    no_stdout_in_lib(file, &mut out);
    ordering_discipline(file, &mut out);
    determinism(file, &mut out);
    crate::guards::guard_blocking(file, &mut out);
    out
}

/// `no-unwrap-in-lib`: library code must surface errors as `Result`, not
/// panic. `.unwrap()` / `.expect(` outside test regions are findings.
fn no_unwrap_in_lib(file: &SourceFile, out: &mut Vec<Finding>) {
    const LINT: &str = "no-unwrap-in-lib";
    if file.kind != FileKind::Library {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let hit = contains_token(&line.code, ".unwrap()") || contains_token(&line.code, ".expect(");
        if hit && !inline_allowed(file, idx, LINT) {
            out.push(finding(
                LINT,
                file,
                idx,
                "`.unwrap()`/`.expect()` in library code; return a Result (CoreError has variants for this) or annotate `// LINT-ALLOW: no-unwrap-in-lib <why>`".into(),
                Severity::Deny,
            ));
        }
    }
}

/// `no-stdout-in-lib`: all user-facing output goes through the telemetry
/// sink (PR 2's routing); only the CLI binary, the sink itself, and the
/// bench report renderers may print directly.
fn no_stdout_in_lib(file: &SourceFile, out: &mut Vec<Finding>) {
    const LINT: &str = "no-stdout-in-lib";
    if file.kind != FileKind::Library || stdout_exempt(&file.path) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let hit = ["println!", "eprintln!", "print!", "eprint!"]
            .iter()
            .any(|m| contains_token(&line.code, m));
        if hit && !inline_allowed(file, idx, LINT) {
            out.push(finding(
                LINT,
                file,
                idx,
                "direct stdout/stderr write in library code; route through the telemetry sink"
                    .into(),
                Severity::Deny,
            ));
        }
    }
}

/// `ordering-discipline`: every atomic ordering — `SeqCst` included —
/// must carry an adjacent `// ORD:` comment saying what the ordering
/// buys. Relaxations need a soundness argument; `SeqCst` needs a reason
/// it isn't hiding one. (`cmp::Ordering` variants like `Equal` never
/// match.) The [`crate::atomics`] audit then cross-checks what the
/// annotations claim: release/acquire pairing per field and no `Relaxed`
/// on signal-pattern fields.
fn ordering_discipline(file: &SourceFile, out: &mut Vec<Finding>) {
    const LINT: &str = "ordering-discipline";
    if file.kind == FileKind::TestOnly {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let hit = [
            "Ordering::Relaxed",
            "Ordering::Acquire",
            "Ordering::Release",
            "Ordering::AcqRel",
            "Ordering::SeqCst",
        ]
        .iter()
        .any(|m| contains_token(&line.code, m));
        if hit && !has_annotation(&file.lines, idx, "ORD:") && !inline_allowed(file, idx, LINT) {
            out.push(finding(
                LINT,
                file,
                idx,
                "atomic ordering without an adjacent `// ORD:` justification".into(),
                Severity::Deny,
            ));
        }
    }
}

/// `determinism`: the deterministic modules must not consult wall clocks,
/// OS randomness, or hash-order iteration. Telemetry timing is fine when
/// annotated `// DET: <why>`.
fn determinism(file: &SourceFile, out: &mut Vec<Finding>) {
    const LINT: &str = "determinism";
    if !DETERMINISTIC_MODULES.contains(&file.path.as_str()) {
        return;
    }
    // Pass 1: names of bindings constructed from HashMap/HashSet.
    let mut hash_vars: Vec<String> = Vec::new();
    for line in &file.lines {
        if line.is_test {
            continue;
        }
        let code = &line.code;
        if !(code.contains("HashMap") || code.contains("HashSet")) {
            continue;
        }
        if let Some(name) = let_binding_name(code) {
            hash_vars.push(name);
        }
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let code = &line.code;
        let clock = [
            "Instant::now",
            "SystemTime::now",
            "thread_rng",
            "rand::random",
        ]
        .iter()
        .find(|m| contains_token(code, m));
        if let Some(m) = clock {
            if !has_annotation(&file.lines, idx, "DET:") && !inline_allowed(file, idx, LINT) {
                out.push(finding(
                    LINT,
                    file,
                    idx,
                    format!("`{m}` in a deterministic module without a `// DET:` justification"),
                    Severity::Deny,
                ));
                continue;
            }
        }
        for var in &hash_vars {
            let iterated = [".iter()", ".keys()", ".values()", ".into_iter()", ".drain("]
                .iter()
                .any(|suffix| contains_token(code, &format!("{var}{suffix}")))
                || contains_token(code, &format!("in &{var}"))
                || contains_token(code, &format!("in &mut {var}"))
                || (code.contains(" for ") || code.trim_start().starts_with("for "))
                    && contains_token(code, &format!("in {var}"));
            if iterated
                && !has_annotation(&file.lines, idx, "DET:")
                && !inline_allowed(file, idx, LINT)
            {
                out.push(finding(
                    LINT,
                    file,
                    idx,
                    format!("iteration over hash-ordered collection `{var}` in a deterministic module; use BTreeMap/BTreeSet or sort first"),
                    Severity::Deny,
                ));
                break;
            }
        }
    }
}

/// Extracts the bound name from `let [mut] name ... = ...`, if any.
fn let_binding_name(code: &str) -> Option<String> {
    let pos = token_position(code, "let ")?;
    let rest = code[pos + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn lints_on(path: &str, src: &str) -> Vec<Finding> {
        run_lints(&SourceFile::lex(path, src))
    }

    #[test]
    fn unwrap_in_lib_is_flagged_but_not_in_tests_or_strings() {
        let src = "fn f() { x.unwrap(); }\nfn g() { let s = \".unwrap()\"; }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        let f: Vec<_> = lints_on("crates/x/src/lib.rs", src)
            .into_iter()
            .filter(|f| f.lint == "no-unwrap-in-lib")
            .collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); }";
        assert!(lints_on("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lint_allow_suppresses() {
        let src =
            "// LINT-ALLOW: no-unwrap-in-lib invariant: len checked above\nfn f() { x.unwrap(); }";
        assert!(lints_on("crates/x/src/lib.rs", src)
            .iter()
            .all(|f| f.lint != "no-unwrap-in-lib"));
    }

    #[test]
    fn stdout_flagged_outside_exempt_files() {
        let src = "fn f() { println!(\"hi\"); }";
        assert_eq!(lints_on("crates/core/src/x.rs", src).len(), 1);
        assert!(lints_on("src/main.rs", src).is_empty());
        assert!(lints_on("crates/bench/src/runs.rs", src).is_empty());
        assert!(lints_on("crates/telemetry/src/trace.rs", src).is_empty());
    }

    #[test]
    fn ordering_needs_ord_comment_and_ignores_cmp() {
        let bad = "fn f() { a.load(Ordering::Relaxed); }";
        assert_eq!(lints_on("crates/x/src/lib.rs", bad).len(), 1);
        let good = "// ORD: counter, no cross-thread happens-before needed\nfn f() { a.load(Ordering::Relaxed); }";
        assert!(lints_on("crates/x/src/lib.rs", good).is_empty());
        // SeqCst needs a justification too — it is often a relaxation
        // postponed, and the pairing audit needs the intent on record.
        let seqcst = "fn f() { a.load(Ordering::SeqCst); }";
        assert_eq!(lints_on("crates/x/src/lib.rs", seqcst).len(), 1);
        let seqcst_ok =
            "// ORD: SeqCst, rare control-path flag; not worth relaxing\nfn f() { a.load(Ordering::SeqCst); }";
        assert!(lints_on("crates/x/src/lib.rs", seqcst_ok).is_empty());
        let cmp = "fn f() -> Ordering { Ordering::Equal }";
        assert!(lints_on("crates/x/src/lib.rs", cmp).is_empty());
    }

    #[test]
    fn determinism_only_guards_listed_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(lints_on("crates/core/src/dcgen.rs", src).len(), 1);
        assert!(lints_on("crates/core/src/model.rs", src).is_empty());
        let annotated = "// DET: telemetry timing only; never feeds generation\nfn f() { let t = Instant::now(); }";
        assert!(lints_on("crates/core/src/dcgen.rs", annotated).is_empty());
    }

    #[test]
    fn determinism_catches_hash_iteration_but_not_membership() {
        let iter = "fn f() { let mut seen = HashSet::new(); for x in &seen { use_(x); } }";
        let hits = lints_on("crates/core/src/journal.rs", iter);
        assert_eq!(hits.len(), 1, "{hits:?}");
        let member =
            "fn f() { let mut seen = HashSet::new(); seen.insert(1); if seen.contains(&1) {} }";
        assert!(lints_on("crates/core/src/journal.rs", member).is_empty());
    }

    #[test]
    fn guard_blocking_runs_as_part_of_run_lints() {
        // The full dataflow lint lives in crate::guards; run_lints wires
        // it in. Condvar wait on the guard itself is the sanctioned
        // protocol and stays clean.
        let src = "fn f(s: &S) {\n    let mut g = s.state.lock();\n    rx.recv();\n}";
        let hits = lints_on("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lint, "guard-blocking");
        assert_eq!(hits[0].severity, Severity::Deny);
        let handoff = "fn f(s: &S) {\n    let mut g = s.state.lock();\n    g = cv.wait(g);\n}";
        assert!(lints_on("crates/x/src/lib.rs", handoff).is_empty());
    }
}
