//! `hk-lint` — the HeavyKeeper workspace's invariant lint engine.
//!
//! Clippy checks Rust; this checks *this repository*. Seven PRs of
//! design decisions live here as machine-checked rules: hot ingest
//! paths must not allocate, mutex poison is absorbed rather than
//! unwrapped, worker/fault/recovery code must not panic avoidably
//! (worker death is a recovery event), every crate root forbids
//! `unsafe`, wire encoders never iterate hash-ordered collections, the
//! frame magics / wire versions referenced across encode, decode and
//! test code agree with a single registry, and the shared functions
//! other crates call per packet stay `#[inline]`.
//!
//! The engine is a real lexer (raw strings, nested block comments,
//! lifetimes vs chars — see [`lexer`]) feeding token-level rules (see
//! [`rules`] and `RULES.md`). Findings carry file/line diagnostics and
//! can be suppressed inline:
//!
//! ```text
//! // hk-lint: allow(rule-name) the reason this site is exempt
//! ```
//!
//! The reason is mandatory — an allow without one is itself a finding.
//! The directive covers its own line and the line directly below it.
//!
//! Three integration points keep the lint from drifting: the `hk lint`
//! CLI subcommand, the `cargo run -p hk-lint -- --deny` CI gate, and an
//! in-process workspace sweep in `crates/lint/tests/` so a plain
//! `cargo test` fails on a new violation.
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod source;

pub use rules::LintConfig;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// One diagnostic: rule, file (relative to the lint root, `/`
/// separators), 1-based line, human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub rel: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.rule, self.message
        )
    }
}

/// The result of a lint run.
pub struct LintReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned `hk-lint: allow`.
    pub suppressed: usize,
    pub files_scanned: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Plain-text rendering, one `path:line: [rule] message` per line
    /// plus a summary tail.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "hk-lint: {} finding(s), {} suppressed, {} files scanned\n",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }

    /// Machine-readable rendering (stable field order, hand-rolled —
    /// the workspace is offline, no serde).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                esc(f.rule),
                esc(&f.rel),
                f.line,
                esc(&f.message)
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"suppressed\": {},\n  \"files_scanned\": {}\n}}\n",
            self.suppressed, self.files_scanned
        ));
        out
    }
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`. Falls back to `start` itself.
pub fn find_workspace_root_from(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

/// [`find_workspace_root_from`] starting at the current directory.
pub fn find_workspace_root() -> PathBuf {
    find_workspace_root_from(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy().replace('\\', "/");
    s.trim_start_matches("./").to_string()
}

/// Loads and parses every `.rs` file under `cfg.root` that survives
/// `cfg.exclude`.
pub fn load_workspace(cfg: &LintConfig) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    walk(&cfg.root, &mut paths);
    let mut files = Vec::new();
    for path in paths {
        let rel = rel_of(&cfg.root, &path);
        if cfg.exclude.iter().any(|e| rel.contains(e.as_str())) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        files.push(SourceFile::parse(path, rel, &text));
    }
    files
}

/// Runs every rule over the workspace and applies suppressions.
pub fn run(cfg: &LintConfig) -> LintReport {
    let files = load_workspace(cfg);
    run_on(cfg, &files)
}

/// Runs the rules over already-loaded files (the in-process test path).
pub fn run_on(cfg: &LintConfig, files: &[SourceFile]) -> LintReport {
    let mut findings = Vec::new();
    for f in files {
        rules::no_alloc_in_hot_path(cfg, f, &mut findings);
        rules::no_timing_in_hot_path(cfg, f, &mut findings);
        rules::lock_poison_discipline(cfg, f, &mut findings);
        rules::panic_free_worker_paths(cfg, f, &mut findings);
        rules::forbid_unsafe_pinned(cfg, f, &mut findings);
        rules::wire_determinism(cfg, f, &mut findings);
        rules::inline_across_crates(cfg, f, &mut findings);
    }
    rules::wire_constant_consistency(cfg, files, &mut findings);
    rules::stale_registry(cfg, files, &mut findings);

    // Meta findings: broken directives and allows naming unknown rules.
    for f in files {
        for bad in &f.bad_directives {
            findings.push(Finding {
                rule: "suppression",
                rel: f.rel.clone(),
                line: bad.line,
                message: bad.message.clone(),
            });
        }
        for allow in &f.allows {
            for r in &allow.rules {
                if !rules::rule_names().any(|n| n == r) {
                    findings.push(Finding {
                        rule: "suppression",
                        rel: f.rel.clone(),
                        line: allow.line,
                        message: format!(
                            "allow names unknown rule `{r}` (known: {})",
                            rules::rule_names().collect::<Vec<_>>().join(", ")
                        ),
                    });
                }
            }
        }
    }

    // Apply suppressions: a reasoned allow covers its own line and the
    // line below, for the rules it names. The meta rules are exempt —
    // you cannot allow your way out of a broken allow or a stale
    // registry.
    let mut suppressed = 0usize;
    findings.retain(|fi| {
        if rules::META_RULES.contains(&fi.rule) {
            return true;
        }
        let covered = files
            .iter()
            .filter(|f| f.rel == fi.rel)
            .flat_map(|f| f.allows.iter())
            .any(|a| {
                (a.line == fi.line || a.line + 1 == fi.line) && a.rules.iter().any(|r| r == fi.rule)
            });
        if covered {
            suppressed += 1;
        }
        !covered
    });

    findings
        .sort_by(|a, b| (a.rel.as_str(), a.line, a.rule).cmp(&(b.rel.as_str(), b.line, b.rule)));
    LintReport {
        findings,
        suppressed,
        files_scanned: files.len(),
    }
}
