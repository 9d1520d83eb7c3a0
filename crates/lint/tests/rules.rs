//! Fixture tests: every rule fires where the fixture says it should —
//! and nowhere else. Fixtures carry `//~ <rule>` markers on the lines
//! expected to produce findings (rustc-UI style); the test compares
//! the deduplicated `(line, rule)` sets exactly, so a rule that
//! over-fires (e.g. on code hidden inside a raw string) fails just as
//! loudly as one that under-fires.

use hk_lint::source::SourceFile;
use hk_lint::{run_on, LintConfig, LintReport};
use std::collections::BTreeSet;
use std::path::Path;

fn fixtures_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Loads a fixture with `rel` set relative to the fixtures dir, so the
/// engine's `tests/`-path exemptions don't kick in for fixture code.
fn load(name: &str) -> (SourceFile, BTreeSet<(u32, String)>) {
    let path = fixtures_root().join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    let expected = text
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            l.split("//~")
                .nth(1)
                .map(|m| (i as u32 + 1, m.trim().to_string()))
        })
        .collect();
    (SourceFile::parse(path, name.to_string(), &text), expected)
}

fn check(name: &str, cfg: &LintConfig) -> LintReport {
    let (file, expected) = load(name);
    let report = run_on(cfg, std::slice::from_ref(&file));
    let actual: BTreeSet<(u32, String)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    assert_eq!(
        actual,
        expected,
        "\nfixture {name}: findings (left) disagree with //~ markers (right).\nfull report:\n{}",
        report.render_text()
    );
    report
}

#[test]
fn no_alloc_in_hot_path_fixture() {
    let mut cfg = LintConfig::bare(fixtures_root());
    cfg.hot_functions = vec![(String::new(), "hot_insert".into())];
    check("hot_alloc.rs", &cfg);
}

#[test]
fn no_timing_in_hot_path_fixture() {
    let mut cfg = LintConfig::bare(fixtures_root());
    cfg.timing_hot_functions = vec![(String::new(), "hot_insert".into())];
    check("timing.rs", &cfg);
}

#[test]
fn lock_poison_discipline_fixture() {
    // No scope config needed: the rule applies everywhere outside tests.
    check("lock_poison.rs", &LintConfig::bare(fixtures_root()));
}

#[test]
fn panic_free_worker_paths_fixture() {
    let mut cfg = LintConfig::bare(fixtures_root());
    cfg.worker_files = vec!["worker.rs".into()];
    check("worker.rs", &cfg);
}

#[test]
fn tricky_tokens_do_not_fool_the_lexer() {
    // The whole file is worker scope; the only finding must be the one
    // real `.unwrap()` — every look-alike lives in a raw string, a
    // nested block comment, or next to lifetime/char-literal traps.
    let mut cfg = LintConfig::bare(fixtures_root());
    cfg.worker_files = vec!["tricky.rs".into()];
    let report = check("tricky.rs", &cfg);
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn wire_determinism_fixture() {
    let mut cfg = LintConfig::bare(fixtures_root());
    cfg.wire_fn_markers = ["wire", "export", "encode", "checkpoint"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    check("wire_hash.rs", &cfg);
}

#[test]
fn wire_constant_consistency_fixture() {
    let mut cfg = LintConfig::bare(fixtures_root());
    // hk-lint: allow(wire-constant-consistency) HKTX is the fixture registry's own magic, not a real frame format
    cfg.magics = vec![b"HKTX".to_vec()];
    cfg.versions = vec![("VERSION".into(), 1)];
    check("magic.rs", &cfg);
}

#[test]
fn suppression_fixture() {
    // Reasoned allows (same line or line above) suppress; an allow
    // without a reason, naming an unknown rule, or malformed is itself
    // a `suppression` finding and suppresses nothing.
    let mut cfg = LintConfig::bare(fixtures_root());
    cfg.worker_files = vec!["suppress.rs".into()];
    let report = check("suppress.rs", &cfg);
    assert_eq!(
        report.suppressed, 2,
        "exactly the two reasoned allows should suppress"
    );
}

#[test]
fn stale_registry_entry_is_a_finding() {
    // Each scope in turn gets one live entry and one entry naming code
    // that no longer exists: only the missing one is reported, under
    // the meta rule.
    let (file, _) = load("timing.rs");
    let live = || vec![(String::new(), "hot_insert".to_string())];
    let gone = ("timing.rs".to_string(), "walk_removed".to_string());
    for scope in 0..4 {
        let mut cfg = LintConfig::bare(fixtures_root());
        match scope {
            0 => cfg.hot_functions = [live(), vec![gone.clone()]].concat(),
            1 => cfg.timing_hot_functions = [live(), vec![gone.clone()]].concat(),
            2 => cfg.worker_functions = [live(), vec![gone.clone()]].concat(),
            _ => cfg.worker_files = vec!["timing.rs".into(), "moved_away.rs".into()],
        }
        let report = run_on(&cfg, std::slice::from_ref(&file));
        let stale: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "stale-registry")
            .collect();
        assert_eq!(stale.len(), 1, "scope {scope}:\n{}", report.render_text());
        let missing = if scope == 3 {
            "moved_away.rs"
        } else {
            "walk_removed"
        };
        assert!(stale[0].message.contains(missing), "{}", stale[0]);
    }
}

#[test]
fn forbid_unsafe_pinned_fixture() {
    let cfg = LintConfig::bare(fixtures_root());
    check("forbid_missing/src/lib.rs", &cfg);
    let report = check("forbid_ok/src/lib.rs", &cfg);
    assert!(report.is_clean());
}
