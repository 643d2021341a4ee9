//! A small comment- and string-aware lexer for Rust sources.
//!
//! The lints in this crate are lexical: they match token patterns like
//! `.unwrap()` or `Ordering::Relaxed` per line. Matching raw text would
//! misfire on occurrences inside string literals, doc comments, and block
//! comments, so every file is first split into per-line *code* text (string
//! and char contents blanked, comments removed) and *comment* text (the
//! bodies of `//`, `///`, `//!`, and `/* .. */` comments, where lint
//! justification annotations like `// ORD: ...` live).
//!
//! A second pass tracks `#[cfg(test)]` / `#[test]` regions by brace depth
//! so lints can exempt test code without parsing Rust properly. The
//! tracking is deliberately simple — an attribute arms a pending flag that
//! latches onto the next `{` (or is disarmed by a `;`, for attributes on
//! non-block items), and the region ends when the depth returns below the
//! opening brace. Nested `#[cfg(test)]` inside an active test region is
//! absorbed by the enclosing region.

/// One source line, split into channels.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Original text (used for reports).
    pub raw: String,
    /// Code text: comments stripped, string/char literal contents blanked
    /// with spaces (delimiters preserved so token boundaries survive).
    pub code: String,
    /// Comment text on this line (all comment bodies concatenated).
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
}

/// Where a file sits in the workspace, which decides lint applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: `src/**` of any crate (and the root facade).
    Library,
    /// Binary code: `src/main.rs`, `src/bin/**`, `build.rs`.
    Binary,
    /// Test-only code: `tests/**`, `benches/**`, `examples/**`.
    TestOnly,
}

/// A lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// File classification.
    pub kind: FileKind,
    /// Lexed lines, in file order.
    pub lines: Vec<Line>,
}

/// Classifies `rel_path` (workspace-relative, `/`-separated).
#[must_use]
pub fn classify(rel_path: &str) -> FileKind {
    let in_dir =
        |d: &str| rel_path.starts_with(&format!("{d}/")) || rel_path.contains(&format!("/{d}/"));
    if in_dir("tests") || in_dir("benches") || in_dir("examples") {
        return FileKind::TestOnly;
    }
    if rel_path == "build.rs"
        || rel_path.ends_with("/build.rs")
        || rel_path == "src/main.rs"
        || rel_path.ends_with("/src/main.rs")
        || rel_path.contains("/src/bin/")
    {
        return FileKind::Binary;
    }
    FileKind::Library
}

/// Cross-line lexer state.
enum Mode {
    Code,
    /// Inside nested block comments, with the current nesting depth.
    Block(u32),
    /// Inside a normal string literal.
    Str,
    /// Inside a raw string literal closed by `"` followed by this many `#`.
    RawStr(u32),
}

impl SourceFile {
    /// Lexes `text` into a [`SourceFile`] for the given relative path.
    #[must_use]
    pub fn lex(rel_path: &str, text: &str) -> SourceFile {
        let mut lines = Vec::new();
        let mut mode = Mode::Code;
        for raw in text.lines() {
            let (line, next) = lex_line(raw, mode);
            mode = next;
            lines.push(line);
        }
        mark_test_regions(&mut lines);
        SourceFile {
            path: rel_path.to_string(),
            kind: classify(rel_path),
            lines,
        }
    }
}

/// Lexes one line starting in `mode`, returning the split line and the mode
/// the next line starts in.
fn lex_line(raw: &str, mut mode: Mode) -> (Line, Mode) {
    let chars: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let mut i = 0usize;
    let at = |i: usize| chars.get(i).copied();
    while i < chars.len() {
        let c = chars[i];
        match mode {
            Mode::Block(depth) => {
                if c == '/' && at(i + 1) == Some('*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else if c == '*' && at(i + 1) == Some('/') {
                    mode = if depth > 1 {
                        Mode::Block(depth - 1)
                    } else {
                        Mode::Code
                    };
                    if matches!(mode, Mode::Code) {
                        // Keep a token separator where the comment was.
                        code.push(' ');
                    }
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    code.push(' ');
                    if at(i + 1).is_some() {
                        code.push(' ');
                        i += 2;
                    } else {
                        i += 1; // line continuation: string spans lines
                    }
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::Code => {
                if c == '/' && at(i + 1) == Some('/') {
                    // Line comment (incl. /// and //!): rest of line.
                    comment.push_str(&chars[i + 2..].iter().collect::<String>());
                    break;
                } else if c == '/' && at(i + 1) == Some('*') {
                    mode = Mode::Block(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if let Some(hashes) = raw_string_at(&chars, i) {
                    // r"..." / r#"..."# / br#"..."# — emit the opening
                    // delimiter and switch modes.
                    while chars[i] != '"' {
                        code.push(chars[i]);
                        i += 1;
                    }
                    code.push('"');
                    i += 1;
                    mode = Mode::RawStr(hashes);
                } else if c == '\'' {
                    // Char literal vs lifetime. A literal is '\...' or 'x'
                    // followed by a closing quote; anything else ('a in
                    // generics) is a lifetime and stays plain code.
                    if let Some(end) = char_literal_end(&chars, i) {
                        code.push('\'');
                        for _ in i + 1..end {
                            code.push(' ');
                        }
                        code.push('\'');
                        i = end + 1;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    // A string/raw-string that continues past the line end keeps its mode;
    // block comments likewise.
    (
        Line {
            raw: raw.to_string(),
            code,
            comment,
            is_test: false,
        },
        mode,
    )
}

/// Is `chars[i]` (a `"`) followed by `hashes` `#` characters?
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Detects a raw-string opener (`r`, `br`, `rb` + `#`* + `"`) starting at
/// `i`, returning the hash count. `i` must be at an identifier boundary.
fn raw_string_at(chars: &[char], i: usize) -> Option<u32> {
    let boundary = i == 0 || !is_ident_char(chars[i - 1]);
    if !boundary {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// If a char literal starts at `i` (which holds `'`), returns the index of
/// its closing quote; `None` means `i` starts a lifetime.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Simple escapes ('\n', '\\', '\'') close right after the
            // escaped char; longer ones ('\x7f', '\u{1F600}') within a
            // short window.
            if chars.get(i + 3) == Some(&'\'') {
                Some(i + 3)
            } else {
                (i + 4..(i + 12).min(chars.len())).find(|&j| chars[j] == '\'')
            }
        }
        Some(_) => (chars.get(i + 2) == Some(&'\'')).then_some(i + 2),
        None => None,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` brace regions.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth = 0usize;
    let mut pending = false;
    let mut test_stack: Vec<usize> = Vec::new();
    for line in lines.iter_mut() {
        let mut inside = !test_stack.is_empty();
        // Positions where a test attribute appears on this line; the
        // pending flag arms when the scan crosses one, so `#[cfg(test)]
        // mod tests {` works whichever order tokens come in.
        let attr_positions: Vec<usize> = ["#[cfg(test)", "#[cfg(all(test", "#[test]", "#[bench]"]
            .iter()
            .flat_map(|pat| match_positions(&line.code, pat))
            .collect();
        for (pos, c) in line.code.char_indices() {
            if attr_positions.contains(&pos) {
                pending = true;
            }
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        test_stack.push(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' => {
                    // `#[cfg(test)] use foo;` — the attribute applied to a
                    // braceless item; disarm.
                    pending = false;
                }
                _ => {}
            }
            if !test_stack.is_empty() {
                inside = true;
            }
        }
        if pending {
            // Attribute armed and still waiting for its `{` on a later
            // line (`#[cfg(test)]` alone on its own line).
            inside = true;
        }
        line.is_test = inside;
    }
}

/// Byte positions of every occurrence of `pat` in `s`.
fn match_positions(s: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = s[from..].find(pat) {
        out.push(from + p);
        from += p + 1;
    }
    out
}

/// Per-line enclosing `impl` block target type, tracked by brace depth the
/// same way test regions are: an `impl`-initial line arms a pending type
/// name that latches onto the next `{`. The target is the *implementing*
/// type — `ThreadPool` for both `impl ThreadPool` and
/// `impl Drop for ThreadPool` — which is what the concurrency lints use to
/// qualify `self.field` lock names. Only lines that *start* with `impl`
/// count, so `-> impl Iterator` return types never open a region.
#[must_use]
pub fn impl_types(lines: &[Line]) -> Vec<Option<String>> {
    let mut out = Vec::with_capacity(lines.len());
    let mut depth = 0usize;
    let mut pending: Option<String> = None;
    let mut stack: Vec<(usize, String)> = Vec::new();
    for line in lines {
        if let Some(name) = impl_target(&line.code) {
            pending = Some(name);
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(name) = pending.take() {
                        stack.push((depth, name));
                    }
                }
                '}' => {
                    if stack.last().is_some_and(|(d, _)| *d == depth) {
                        stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' => pending = None,
                _ => {}
            }
        }
        out.push(stack.last().map(|(_, n)| n.clone()));
    }
    out
}

/// Extracts the implementing type from an `impl`-initial line: the type
/// after ` for ` when present, else the first type after the (possibly
/// generic) `impl` keyword. Paths are reduced to their final segment and
/// generics are dropped (`impl<T> queue::AdmissionQueue<T>` →
/// `AdmissionQueue`).
fn impl_target(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("impl")?;
    // `impl` must be the keyword, not a prefix of an identifier.
    if rest.chars().next().is_some_and(is_ident_char) {
        return None;
    }
    let rest = skip_generics(rest.trim_start());
    let head = rest.split('{').next().unwrap_or(rest);
    let target = match head.find(" for ") {
        Some(p) => &head[p + 5..],
        None => head,
    };
    let target = target.trim_start().trim_start_matches('&');
    let path: String = target
        .chars()
        .take_while(|c| is_ident_char(*c) || *c == ':')
        .collect();
    let name = path.rsplit("::").next().unwrap_or(&path).to_string();
    (!name.is_empty() && name.chars().next().is_some_and(char::is_alphabetic)).then_some(name)
}

/// Skips a balanced leading `<...>` generics list, if any.
fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return s[i + 1..].trim_start();
                }
            }
            _ => {}
        }
    }
    s
}

/// True when `line`'s comment (or the contiguous comment-only block just
/// above it) carries the annotation `tag` (e.g. `"ORD:"`).
#[must_use]
pub fn has_annotation(lines: &[Line], idx: usize, tag: &str) -> bool {
    if lines[idx].comment.contains(tag) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let comment_only = l.code.trim().is_empty() && !l.comment.trim().is_empty();
        if !comment_only {
            return false;
        }
        if l.comment.contains(tag) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(text: &str) -> Vec<String> {
        SourceFile::lex("crates/x/src/lib.rs", text)
            .lines
            .iter()
            .map(|l| l.code.clone())
            .collect()
    }

    #[test]
    fn strings_are_blanked_but_delimiters_survive() {
        let c = codes(r#"let s = "contains .unwrap() here"; s.len();"#);
        assert!(!c[0].contains(".unwrap()"));
        assert!(c[0].contains("let s = \""));
        assert!(c[0].contains("s.len();"));
    }

    #[test]
    fn line_comments_move_to_comment_channel() {
        let f = SourceFile::lex(
            "src/lib.rs",
            "let x = 1; // ORD: because\nx.unwrap(); /* tail */",
        );
        assert!(!f.lines[0].code.contains("ORD"));
        assert!(f.lines[0].comment.contains("ORD: because"));
        assert!(f.lines[1].code.contains(".unwrap()"));
        assert!(f.lines[1].comment.contains("tail"));
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let c = codes("a /* one /* two */ still */ b\n/* open\n .unwrap() \n*/ c");
        assert!(c[0].contains('a') && c[0].contains('b'));
        assert!(!c[0].contains("still"));
        assert!(!c[2].contains(".unwrap()"));
        assert!(c[3].contains('c'));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let c = codes("let r = r#\"has .unwrap() and \"quotes\"\"#; let ch = '\\n'; let q = 'x';");
        assert!(!c[0].contains(".unwrap()"));
        assert!(c[0].contains("let ch = '"));
        // Lifetimes survive as code.
        let c2 = codes("fn f<'a>(x: &'a str) {}");
        assert!(c2[0].contains("<'a>"));
    }

    #[test]
    fn multiline_strings_stay_blanked() {
        let c = codes("let s = \"line one\n.unwrap() line two\";\nx.unwrap();");
        assert!(!c[1].contains(".unwrap()"));
        assert!(c[2].contains(".unwrap()"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}";
        let f = SourceFile::lex("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].is_test);
        assert!(f.lines[1].is_test); // the attribute line itself
        assert!(f.lines[2].is_test);
        assert!(f.lines[3].is_test);
        assert!(f.lines[4].is_test);
        assert!(!f.lines[5].is_test);
    }

    #[test]
    fn cfg_test_on_use_item_does_not_latch() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() { body(); }";
        let f = SourceFile::lex("crates/x/src/lib.rs", src);
        assert!(!f.lines[2].is_test);
    }

    #[test]
    fn nested_cfg_test_is_absorbed() {
        let src = "#[cfg(test)]\nmod tests {\n    #[cfg(test)]\n    mod inner { fn t() {} }\n    fn t2() {}\n}\nfn lib() {}";
        let f = SourceFile::lex("crates/x/src/lib.rs", src);
        assert!(f.lines[3].is_test);
        assert!(f.lines[4].is_test);
        assert!(!f.lines[6].is_test);
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/dcgen.rs"), FileKind::Library);
        assert_eq!(classify("src/lib.rs"), FileKind::Library);
        assert_eq!(classify("src/main.rs"), FileKind::Binary);
        assert_eq!(classify("crates/bench/src/bin/fig8.rs"), FileKind::Binary);
        assert_eq!(
            classify("crates/core/tests/fault_tolerance.rs"),
            FileKind::TestOnly
        );
        assert_eq!(classify("examples/quickstart.rs"), FileKind::TestOnly);
        assert_eq!(
            classify("crates/bench/benches/kernels.rs"),
            FileKind::TestOnly
        );
    }

    #[test]
    fn annotation_lookup_walks_comment_blocks() {
        let f = SourceFile::lex(
            "src/lib.rs",
            "// ORD: counters tolerate reordering\n// (second comment line)\nc.load(Ordering::Relaxed);\nd.load(Ordering::Relaxed);",
        );
        assert!(has_annotation(&f.lines, 2, "ORD:"));
        // Line 3 is separated from the comment block by a code line.
        assert!(!has_annotation(&f.lines, 3, "ORD:"));
    }
}
