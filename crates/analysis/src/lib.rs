//! # pagpass-analysis — static analysis for the pagpass workspace
//!
//! PRs 1 and 2 bought hard guarantees — byte-identical resume,
//! non-overlapping D&C-GEN subtasks, CRC'd journals, telemetry-routed
//! output — but nothing *enforced* them: one stray `Instant::now()` in a
//! generation path silently breaks determinism. This crate is the
//! machine-checked discipline: a comment- and string-aware lexer
//! ([`lexer`]), the per-line repo-specific lints ([`lints`]), a
//! concurrency-correctness layer — guard-scope dataflow ([`guards`]),
//! a cross-file lock acquisition-order graph ([`lockgraph`]), and an
//! acquire/release pairing audit ([`atomics`]) — and cross-file domain
//! invariant checks ([`invariants`]), wired into `pagpass analyze` and CI.
//! A finding is suppressed only by an inline `// LINT-ALLOW:` annotation
//! at its site.
//!
//! Std-only by design, like `pagpass-telemetry`: the analysis gate must
//! not depend on anything it polices.
//!
//! ```
//! use pagpass_analysis::{analyze_sources, AnalysisInputs};
//!
//! let files = vec![(
//!     "crates/demo/src/lib.rs".to_string(),
//!     "fn f(x: Option<u32>) -> u32 { x.unwrap() }".to_string(),
//! )];
//! let report = analyze_sources(files, &AnalysisInputs::default());
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].lint, "no-unwrap-in-lib");
//! ```

pub mod atomics;
pub mod guards;
pub mod invariants;
pub mod lexer;
pub mod lints;
pub mod lockgraph;

use std::path::{Path, PathBuf};

pub use lexer::{FileKind, SourceFile};
pub use lints::{Finding, Severity};
pub use lockgraph::LockOrderFile;

/// Non-source inputs to an analysis run. All optional: absent inputs
/// skip the checks that need them.
#[derive(Debug, Default)]
pub struct AnalysisInputs {
    /// README.md text, for the `cli-flags-documented` invariant.
    pub readme: Option<String>,
    /// CI workflow text, for the `telemetry-schema-version` validators.
    pub ci_yaml: Option<String>,
    /// Committed canonical lock order, for the `lock-order` invariant.
    pub lock_order: Option<LockOrderFile>,
}

/// The result of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, ordered by path then line (inline-annotated sites
    /// never reach this point — the lints drop them at the source).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Canonical lock acquisition order computed from the tree (empty
    /// when the acquisition graph has a cycle).
    pub lock_order: Vec<String>,
}

impl Report {
    /// Findings that fail the run at the given strictness.
    #[must_use]
    pub fn active(&self, deny_all: bool) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| deny_all || f.severity == Severity::Deny)
            .collect()
    }

    /// True when the run should exit non-zero.
    #[must_use]
    pub fn failed(&self, deny_all: bool) -> bool {
        !self.active(deny_all).is_empty()
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render(&self, deny_all: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Deny => "deny",
                Severity::Warn if deny_all => "deny",
                Severity::Warn => "warn",
            };
            let _ = writeln!(
                out,
                "{}:{}: [{}] {} ({})",
                f.path, f.line, f.lint, f.message, tag
            );
            let _ = writeln!(out, "    {}", f.snippet);
        }
        let warns = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count();
        let denied = self.active(deny_all).len();
        let _ = writeln!(
            out,
            "analyze: {} files scanned, {} finding(s) denied, {} warning(s)",
            self.files_scanned,
            denied,
            if deny_all { 0 } else { warns },
        );
        out
    }
}

/// Analyzes in-memory sources: `(workspace-relative path, contents)`.
/// See [`AnalysisInputs`] for the optional non-source inputs.
#[must_use]
pub fn analyze_sources(files: Vec<(String, String)>, inputs: &AnalysisInputs) -> Report {
    let lexed: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile::lex(path, text))
        .collect();
    let mut findings: Vec<Finding> = Vec::new();
    for file in &lexed {
        findings.extend(lints::run_lints(file));
    }
    findings.extend(invariants::run_invariants(
        &lexed,
        inputs.readme.as_deref(),
        inputs.ci_yaml.as_deref(),
    ));
    findings.extend(atomics::run(&lexed));
    let (graph_findings, lock_order) = lockgraph::run(&lexed, inputs.lock_order.as_ref());
    findings.extend(graph_findings);
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Report {
        findings,
        files_scanned: lexed.len(),
        lock_order,
    }
}

/// Analyzes the workspace rooted at `root`: every `.rs` file under `src/`
/// and `crates/*/src/`, plus README.md (flag documentation), the CI
/// workflow (schema-version validators), and — when `lock_order_path` is
/// given — the committed canonical lock order, which must exist.
///
/// Test fixtures (any path containing a `fixtures` component) are skipped
/// — they exist to *contain* violations.
///
/// # Errors
///
/// Returns a message for unreadable files or a missing workspace layout.
pub fn analyze_repo(root: &Path, lock_order_path: Option<&Path>) -> Result<Report, String> {
    if !root.join("Cargo.toml").exists() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut paths)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
            collect_rs(&entry.path().join("src"), &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, text));
    }
    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    let ci_yaml = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).ok();
    let lock_order = match lock_order_path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("read lock-order file {}: {e}", p.display()))?;
            Some(LockOrderFile {
                path: p
                    .strip_prefix(root)
                    .unwrap_or(p)
                    .to_string_lossy()
                    .into_owned(),
                text,
            })
        }
        None => None,
    };
    let inputs = AnalysisInputs {
        readme,
        ci_yaml,
        lock_order,
    };
    Ok(analyze_sources(files, &inputs))
}

/// Recursively collects `.rs` files under `dir`, skipping `fixtures` and
/// `target` components.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "fixtures" && name != "target" {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_with_allowlist() {
        let files = vec![
            (
                "crates/a/src/lib.rs".to_string(),
                "fn f() { x.unwrap(); }\nfn g() { println!(\"no\"); }".to_string(),
            ),
            (
                "crates/a/tests/t.rs".to_string(),
                "fn t() { x.unwrap(); }".to_string(),
            ),
        ];
        let report = analyze_sources(files, &AnalysisInputs::default());
        assert_eq!(report.findings.len(), 2);
        assert!(report.failed(false));

        // Allow the unwrap inline: only the println remains active.
        let files = vec![(
            "crates/a/src/lib.rs".to_string(),
            "// LINT-ALLOW: no-unwrap-in-lib checked by the caller\nfn f() { x.unwrap(); }\nfn g() { println!(\"no\"); }"
                .to_string(),
        )];
        let report = analyze_sources(files, &AnalysisInputs::default());
        let active = report.active(false);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].lint, "no-stdout-in-lib");
    }

    #[test]
    fn stale_entries_fail_the_run() {
        let files = vec![("crates/a/src/lib.rs".to_string(), "fn ok() {}".to_string())];
        let clean = analyze_sources(files.clone(), &AnalysisInputs::default());
        assert!(clean.findings.is_empty());
        assert!(!clean.failed(true));

        // A lock-order entry that names no observed lock is stale.
        let inputs = AnalysisInputs {
            lock_order: Some(LockOrderFile {
                path: "analysis/lock_order.txt".into(),
                text: "nn:Pool.gone\n".into(),
            }),
            ..AnalysisInputs::default()
        };
        let report = analyze_sources(files, &inputs);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].path, "analysis/lock_order.txt");
        assert!(report.failed(false));
        assert!(report
            .render(false)
            .contains("no acquisition of it was observed"));
    }

    #[test]
    fn lock_order_and_graph_flow_through_the_report() {
        let src = "impl Pool {\n    fn run(&self) {\n        let g = self.submit.lock();\n        let s = self.state.lock();\n    }\n}";
        let files = vec![("crates/nn/src/pool.rs".to_string(), src.to_string())];
        let report = analyze_sources(files.clone(), &AnalysisInputs::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.lock_order, vec!["nn:Pool.submit", "nn:Pool.state"]);

        // Feeding the canonical order back in is clean; contradicting it
        // is a deny-level `lock-order` finding.
        let inputs = AnalysisInputs {
            lock_order: Some(LockOrderFile {
                path: "analysis/lock_order.txt".into(),
                text: lockgraph::render_order(&report.lock_order),
            }),
            ..AnalysisInputs::default()
        };
        let clean = analyze_sources(files.clone(), &inputs);
        assert!(!clean.failed(true), "{}", clean.render(true));

        let inputs = AnalysisInputs {
            lock_order: Some(LockOrderFile {
                path: "analysis/lock_order.txt".into(),
                text: "nn:Pool.state\nnn:Pool.submit\n".into(),
            }),
            ..AnalysisInputs::default()
        };
        let contradicted = analyze_sources(files, &inputs);
        assert!(contradicted.failed(false));
        assert!(contradicted.findings.iter().any(|f| f.lint == "lock-order"));
    }
}
