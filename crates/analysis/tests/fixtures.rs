//! Golden-file tests for the analysis engine.
//!
//! Every `<name>.rs` under `tests/fixtures/` is analyzed and its findings
//! are compared against the sibling `<name>.expected` file (one
//! `<line>:<lint>` per line; empty file = must be clean).
//!
//! Leading `//@` directives configure the run:
//!
//! * `//@ path: <path>` — virtual workspace path (borrow a deterministic
//!   module's path, pose as `src/main.rs`, …);
//! * `//@ readme: <text>` — README text for the CLI-flag invariant;
//! * `//@ ci: <text>` — CI workflow text for the schema-version
//!   invariant (`;` separates lines);
//! * `//@ lock-order: <entries>` — committed canonical lock order
//!   (`;` separates lines) for the `lock-order` invariant;
//! * `//@ group: <name>` — fixtures sharing a group are analyzed
//!   *together* (cross-file lints see all of them); each fixture's golden
//!   still only lists the findings whose path is that fixture's own.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use pagpass_analysis::{analyze_sources, AnalysisInputs, LockOrderFile};

fn directive<'a>(text: &'a str, tag: &str) -> Option<&'a str> {
    text.lines()
        .take_while(|l| l.starts_with("//@"))
        .find_map(|l| l.strip_prefix(tag).map(str::trim))
}

/// `;`-separated directive payloads become multi-line texts.
fn multiline(payload: &str) -> String {
    let mut out = payload.replace(';', "\n");
    out.push('\n');
    out
}

struct Fixture {
    name: String,
    vpath: String,
    text: String,
}

#[test]
fn fixtures_match_goldens() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 8,
        "fixture suite shrank: only {names:?} present"
    );

    // Group fixtures: `//@ group:`-tagged files analyze together; the
    // rest analyze alone (a group of one).
    let mut groups: BTreeMap<String, Vec<Fixture>> = BTreeMap::new();
    for name in &names {
        let text = fs::read_to_string(dir.join(name)).expect("read fixture");
        let vpath = directive(&text, "//@ path:")
            .unwrap_or("crates/fixture/src/lib.rs")
            .to_string();
        let group = directive(&text, "//@ group:")
            .map(str::to_string)
            .unwrap_or_else(|| format!("solo:{name}"));
        groups.entry(group).or_default().push(Fixture {
            name: name.clone(),
            vpath,
            text,
        });
    }

    let mut failures = Vec::new();
    for fixtures in groups.values() {
        // Directives may live on any member; first wins.
        let find = |tag: &str| {
            fixtures
                .iter()
                .find_map(|f| directive(&f.text, tag).map(str::to_string))
        };
        let inputs = AnalysisInputs {
            readme: find("//@ readme:"),
            ci_yaml: find("//@ ci:").map(|p| multiline(&p)),
            lock_order: find("//@ lock-order:").map(|p| LockOrderFile {
                path: "analysis/lock_order.txt".into(),
                text: multiline(&p),
            }),
        };
        let sources: Vec<(String, String)> = fixtures
            .iter()
            .map(|f| (f.vpath.clone(), f.text.clone()))
            .collect();
        let report = analyze_sources(sources, &inputs);
        for fixture in fixtures {
            // Solo fixtures see every finding (including ones reported at
            // the lock-order file's path); group members only their own.
            let actual: Vec<String> = report
                .findings
                .iter()
                .filter(|f| fixtures.len() == 1 || f.path == fixture.vpath)
                .map(|f| format!("{}:{}", f.line, f.lint))
                .collect();
            let golden_path = dir.join(fixture.name.replace(".rs", ".expected"));
            let golden = fs::read_to_string(&golden_path)
                .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path.display()));
            let expected: Vec<String> = golden
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect();
            if actual != expected {
                failures.push(format!(
                    "{}: expected {expected:?}, got {actual:?}\n  messages:\n{}",
                    fixture.name,
                    report
                        .findings
                        .iter()
                        .map(|f| format!("    {}:{} [{}] {}", f.path, f.line, f.lint, f.message))
                        .collect::<Vec<_>>()
                        .join("\n")
                ));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn seeded_violations_are_each_detected() {
    // Every golden with content must stay non-empty — a fixture whose
    // seeded violation stops firing means a lint regressed silently.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for seeded in [
        "unwrap_tricky",
        "stdout",
        "ordering",
        "determinism",
        "format_versions",
        "cli_flags",
        "guards_blocking",
        "lockgraph_cycle_a",
        "lockgraph_cycle_b",
        "lockgraph_order_contradiction",
        "atomics_pairing",
        "atomics_signal",
        "schema_version_mismatch",
    ] {
        let golden =
            fs::read_to_string(dir.join(format!("{seeded}.expected"))).expect("read golden");
        assert!(
            golden.lines().any(|l| !l.trim().is_empty()),
            "{seeded}.expected lost its seeded violations"
        );
    }
}
