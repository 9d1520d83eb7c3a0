//! The rule set: seven invariant checks encoding this repository's real
//! design contracts, plus two meta checks on the lint itself (see
//! `crates/lint/RULES.md` for the catalogue with rationale and
//! examples).

use crate::source::{Pat, SourceFile};
use crate::Finding;

/// Rule names and one-line descriptions, in reporting order.
/// `suppression` is the meta-rule for broken `hk-lint:` directives; it
/// is not itself suppressible.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-alloc-in-hot-path",
        "hot ingest functions must not allocate (Vec::new, clone(), format!, …)",
    ),
    (
        "lock-poison-discipline",
        ".lock().unwrap()/.expect() forbidden — absorb poison via PoisonError::into_inner or surface an error",
    ),
    (
        "panic-free-worker-paths",
        "worker-loop / fault / recovery code must not panic avoidably (worker death is a recovery event)",
    ),
    (
        "forbid-unsafe-pinned",
        "every crate root must carry #![forbid(unsafe_code)]",
    ),
    (
        "wire-determinism",
        "wire/export/checkpoint functions must not iterate HashMap/HashSet (encoding order comes from explicit sorts)",
    ),
    (
        "wire-constant-consistency",
        "frame magics and wire version constants must agree with the registered values across encode, decode and test code",
    ),
    (
        "no-timing-in-hot-path",
        "per-packet ingest functions must not read the clock (Instant::now / SystemTime::now) — timing belongs at batch boundaries",
    ),
    (
        "suppression",
        "meta: malformed hk-lint directives, allows without a reason, allows naming unknown rules",
    ),
    (
        "stale-registry",
        "meta: a hot/timing/worker registry entry that matches nothing in the scanned files (moved or deleted code silently drops coverage)",
    ),
];

/// Meta rules report on the lint's own inputs; their findings cannot be
/// suppressed.
pub(crate) const META_RULES: &[&str] = &["suppression", "stale-registry"];

pub fn rule_names() -> impl Iterator<Item = &'static str> {
    RULES.iter().map(|(n, _)| *n)
}

/// Workspace-specific configuration: which functions are hot, which
/// files/functions are worker paths, and the wire-constant registry.
///
/// `(path, name)` pairs match a function when the file's relative path
/// contains `path` (empty = any file) and the function name equals
/// `name`.
pub struct LintConfig {
    pub root: std::path::PathBuf,
    /// Relative-path substrings to skip entirely.
    pub exclude: Vec<String>,
    /// Hot ingest functions for `no-alloc-in-hot-path`.
    pub hot_functions: Vec<(String, String)>,
    /// Per-packet functions for `no-timing-in-hot-path`. Deliberately
    /// narrower than [`LintConfig::hot_functions`]: batch-boundary
    /// code (`dispatch_locked`, `worker_loop`) may read the clock once
    /// per batch — the obs latency histogram depends on it — but
    /// per-packet walks must never.
    pub timing_hot_functions: Vec<(String, String)>,
    /// Files that are wholly worker/fault/recovery scope.
    pub worker_files: Vec<String>,
    /// Individual worker-scope functions.
    pub worker_functions: Vec<(String, String)>,
    /// Function-name substrings putting a function in wire scope.
    pub wire_fn_markers: Vec<String>,
    /// Registered frame magics (byte-string values).
    pub magics: Vec<Vec<u8>>,
    /// Registered numeric magics (e.g. the pcap header magics).
    pub numeric_magics: Vec<u64>,
    /// Registered wire version constants: (const name, value). A
    /// `*VERSION*` const in a magic-defining file must appear here with
    /// this exact value — bumping a wire version means updating the
    /// registry, which is the cross-file agreement check.
    pub versions: Vec<(String, u64)>,
}

impl LintConfig {
    /// An empty config rooted at `root`: no hot/worker scope, empty
    /// registry. Fixture tests build on this.
    pub fn bare(root: impl Into<std::path::PathBuf>) -> Self {
        LintConfig {
            root: root.into(),
            exclude: Vec::new(),
            hot_functions: Vec::new(),
            timing_hot_functions: Vec::new(),
            worker_files: Vec::new(),
            worker_functions: Vec::new(),
            wire_fn_markers: Vec::new(),
            magics: Vec::new(),
            numeric_magics: Vec::new(),
            versions: Vec::new(),
        }
    }

    /// The HeavyKeeper workspace's real invariant map. This is the
    /// single registry the wire rules check against: add an entry here
    /// *and* in the code when introducing a frame format, and the lint
    /// keeps every other mention honest.
    pub fn for_workspace(root: impl Into<std::path::PathBuf>) -> Self {
        let pairs = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(p, n)| (p.to_string(), n.to_string()))
                .collect()
        };
        LintConfig {
            root: root.into(),
            exclude: vec![
                "target/".into(),
                ".git/".into(),
                // The lint fixtures deliberately violate every rule.
                "crates/lint/tests/fixtures".into(),
            ],
            hot_functions: pairs(&[
                // The shared word-level bucket walks (PR 2).
                ("crates/core/src/sketch.rs", "insert_basic_keyed"),
                ("crates/core/src/sketch.rs", "walk_parallel"),
                ("crates/core/src/sketch.rs", "walk_minimum"),
                // Every prepared-batch ingest implementation (PR 4).
                ("", "insert_prepared_batch"),
                // The prepared-batch prologs feeding them, and the
                // slot-table fill they share.
                ("crates/common/src/prepared.rs", "prepare"),
                ("crates/common/src/prepared.rs", "prepare_from"),
                ("crates/common/src/prepared.rs", "fill_slots"),
                // SPSC transport: the engine's work and return rings, and
                // the OVS datapath ring's batch drain.
                ("crates/core/src/spsc.rs", "try_push"),
                ("crates/core/src/spsc.rs", "try_pop"),
                ("crates/core/src/spsc.rs", "pop_batch"),
                // The zero-alloc dispatch plane (PR 4).
                ("crates/core/src/sharded.rs", "dispatch_locked"),
                ("crates/core/src/sharded.rs", "route_into"),
                ("crates/core/src/sharded.rs", "send_to_shard"),
                ("crates/core/src/sharded.rs", "take_buffer"),
                // Lane routing shared by dispatch and reshard (PR 9).
                ("crates/core/src/reshard.rs", "lane_to_shard"),
            ]),
            // The per-packet subset of the hot set: everything above
            // except the batch-boundary dispatch/worker code, which
            // stamps one Instant per *batch* for the obs latency
            // histogram (PR 10) and is allowed to.
            timing_hot_functions: pairs(&[
                ("crates/core/src/sketch.rs", "insert_basic_keyed"),
                ("crates/core/src/sketch.rs", "walk_parallel"),
                ("crates/core/src/sketch.rs", "walk_minimum"),
                ("", "insert_prepared_batch"),
                ("crates/common/src/prepared.rs", "prepare"),
                ("crates/common/src/prepared.rs", "prepare_from"),
                ("crates/common/src/prepared.rs", "fill_slots"),
                ("crates/core/src/spsc.rs", "try_push"),
                ("crates/core/src/spsc.rs", "try_pop"),
                ("crates/core/src/spsc.rs", "pop_batch"),
                ("crates/core/src/sharded.rs", "route_into"),
                ("crates/core/src/sharded.rs", "send_to_shard"),
                ("crates/core/src/sharded.rs", "take_buffer"),
                ("crates/core/src/reshard.rs", "lane_to_shard"),
            ]),
            worker_files: vec![
                "crates/core/src/fault.rs".into(),
                "crates/core/src/spsc.rs".into(),
            ],
            worker_functions: pairs(&[
                ("crates/core/src/sharded.rs", "worker_loop"),
                ("crates/core/src/sharded.rs", "spawn_shard"),
                ("crates/core/src/sharded.rs", "spawn_shard_with"),
                ("crates/core/src/sharded.rs", "recover"),
                ("crates/core/src/sharded.rs", "respawn_shard"),
                ("crates/core/src/sharded.rs", "auto_recover_if_needed"),
                ("crates/core/src/sharded.rs", "poison_shard"),
                ("crates/core/src/sharded.rs", "enqueue_checkpoint"),
                // The live-migration phases (PR 9): they run while
                // workers are live, so a panic here strands the engine
                // mid-topology exactly like a worker panic would.
                ("crates/core/src/sharded.rs", "reshard"),
                ("crates/core/src/sharded.rs", "reshard_drain"),
                ("crates/core/src/sharded.rs", "reshard_rebuild"),
                ("crates/core/src/sharded.rs", "reshard_swap"),
                ("crates/core/src/sharded.rs", "reshard_rollback"),
            ]),
            wire_fn_markers: vec![
                "wire".into(),
                "export".into(),
                "encode".into(),
                "checkpoint".into(),
            ],
            magics: vec![
                b"HKSK".to_vec(),       // v1 sketch payload
                b"HKWF".to_vec(),       // window frame header (v2 full/delta, v3 dirty)
                b"HKDP".to_vec(),       // dirty-patch record inside a v3 frame
                b"HKTR".to_vec(),       // trace file container
                b"HKCKPT\0\0".to_vec(), // reserved checkpoint switch id
            ],
            numeric_magics: vec![0xA1B2_C3D4, 0xA1B2_3C4D], // pcap usec/nsec
            versions: vec![
                ("VERSION".into(), 1),             // HKSK sketch payload / HKTR trace
                ("FRAME_VERSION".into(), 2),       // HKWF full + delta
                ("DIRTY_FRAME_VERSION".into(), 3), // HKWF dirty (kind 2 only)
            ],
        }
    }

    fn fn_matches(&self, set: &[(String, String)], rel: &str, name: &str) -> bool {
        set.iter()
            .any(|(p, n)| n == name && (p.is_empty() || rel.contains(p.as_str())))
    }
}

/// True for files that are test code by *location* (integration test
/// dirs). `#[cfg(test)]` modules inside source files are handled
/// separately via [`SourceFile::in_test_region`].
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    f: &SourceFile,
    line: u32,
    message: String,
) {
    findings.push(Finding {
        rule,
        rel: f.rel.clone(),
        line,
        message,
    });
}

// ---------------------------------------------------------------------------
// Rule 1: no-alloc-in-hot-path
// ---------------------------------------------------------------------------

/// `(tokens-before-ident, ident, needs-call-paren)` method patterns and
/// macro/path patterns that allocate.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_string", "to_owned"];
const ALLOC_MACROS: &[&str] = &["format", "vec"];
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Box", "new"),
    ("String", "from"),
    ("String", "new"),
];

pub fn no_alloc_in_hot_path(cfg: &LintConfig, f: &SourceFile, findings: &mut Vec<Finding>) {
    if is_test_path(&f.rel) {
        return;
    }
    for span in &f.fns {
        if !cfg.fn_matches(&cfg.hot_functions, &f.rel, &span.name) {
            continue;
        }
        for i in span.body.clone() {
            if f.in_test_region(i) {
                continue;
            }
            let Some(t) = f.ct(i) else { continue };
            for &m in ALLOC_METHODS {
                if f.matches(i, &[Pat::P('.'), Pat::I(m), Pat::P('(')]) {
                    let line = f.ct(i + 1).map(|t| t.line).unwrap_or(t.line);
                    push(
                        findings,
                        "no-alloc-in-hot-path",
                        f,
                        line,
                        format!(
                            "`.{m}()` in hot function `{}` — hot ingest paths must not allocate; recycle buffers or hoist the allocation out of the loop",
                            span.name
                        ),
                    );
                }
            }
            for &m in ALLOC_MACROS {
                if f.matches(i, &[Pat::I(m), Pat::P('!')]) {
                    push(
                        findings,
                        "no-alloc-in-hot-path",
                        f,
                        t.line,
                        format!(
                            "`{m}!` in hot function `{}` — hot ingest paths must not allocate",
                            span.name
                        ),
                    );
                }
            }
            for &(ty, m) in ALLOC_PATHS {
                if f.matches(
                    i,
                    &[Pat::I(ty), Pat::P(':'), Pat::P(':'), Pat::I(m), Pat::P('(')],
                ) {
                    push(
                        findings,
                        "no-alloc-in-hot-path",
                        f,
                        t.line,
                        format!(
                            "`{ty}::{m}` in hot function `{}` — hot ingest paths must not allocate",
                            span.name
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-timing-in-hot-path
// ---------------------------------------------------------------------------

/// Clock-reading constructors forbidden in per-packet functions.
const TIMING_PATHS: &[&str] = &["Instant", "SystemTime"];

pub fn no_timing_in_hot_path(cfg: &LintConfig, f: &SourceFile, findings: &mut Vec<Finding>) {
    if is_test_path(&f.rel) {
        return;
    }
    for span in &f.fns {
        if !cfg.fn_matches(&cfg.timing_hot_functions, &f.rel, &span.name) {
            continue;
        }
        for i in span.body.clone() {
            if f.in_test_region(i) {
                continue;
            }
            let Some(t) = f.ct(i) else { continue };
            for &ty in TIMING_PATHS {
                if f.matches(
                    i,
                    &[
                        Pat::I(ty),
                        Pat::P(':'),
                        Pat::P(':'),
                        Pat::I("now"),
                        Pat::P('('),
                    ],
                ) {
                    push(
                        findings,
                        "no-timing-in-hot-path",
                        f,
                        t.line,
                        format!(
                            "`{ty}::now()` in per-packet function `{}` — clock reads cost more than the bucket walk they time; stamp once per batch at the dispatch boundary instead",
                            span.name
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: lock-poison-discipline
// ---------------------------------------------------------------------------

pub fn lock_poison_discipline(_cfg: &LintConfig, f: &SourceFile, findings: &mut Vec<Finding>) {
    if is_test_path(&f.rel) {
        return;
    }
    for i in 0..f.code.len() {
        if f.in_test_region(i) {
            continue;
        }
        if !f.matches(
            i,
            &[
                Pat::P('.'),
                Pat::I("lock"),
                Pat::P('('),
                Pat::P(')'),
                Pat::P('.'),
            ],
        ) {
            continue;
        }
        let Some(next) = f.ct(i + 5) else { continue };
        let method = match next.ident() {
            Some(m @ ("unwrap" | "expect")) => m,
            _ => continue,
        };
        if !f.ct(i + 6).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        push(
            findings,
            "lock-poison-discipline",
            f,
            next.line,
            format!(
                "`.lock().{method}(…)` panics on a poisoned mutex — absorb poison with `.lock().unwrap_or_else(PoisonError::into_inner)` when the protected state cannot be torn, or surface a poisoned-state error",
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 3: panic-free-worker-paths
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

pub fn panic_free_worker_paths(cfg: &LintConfig, f: &SourceFile, findings: &mut Vec<Finding>) {
    if is_test_path(&f.rel) {
        return;
    }
    let whole_file = cfg.worker_files.iter().any(|p| f.rel.contains(p.as_str()));
    let mut scope: Vec<std::ops::Range<usize>> = Vec::new();
    if whole_file {
        scope.push(0..f.code.len());
    } else {
        for span in &f.fns {
            if cfg.fn_matches(&cfg.worker_functions, &f.rel, &span.name) {
                scope.push(span.body.clone());
            }
        }
    }
    for range in scope {
        for i in range {
            if f.in_test_region(i) {
                continue;
            }
            let Some(t) = f.ct(i) else { continue };
            for &m in PANIC_MACROS {
                if f.matches(i, &[Pat::I(m), Pat::P('!')]) {
                    push(
                        findings,
                        "panic-free-worker-paths",
                        f,
                        t.line,
                        format!(
                            "`{m}!` in worker/fault/recovery code — worker death must be a deliberate recovery event, not an incidental panic"
                        ),
                    );
                }
            }
            if f.matches(i, &[Pat::P('.'), Pat::I("unwrap"), Pat::P('(')])
                || f.matches(i, &[Pat::P('.'), Pat::I("expect"), Pat::P('(')])
            {
                let name = f.ct(i + 1).and_then(|t| t.ident()).unwrap_or("unwrap");
                let line = f.ct(i + 1).map(|t| t.line).unwrap_or(t.line);
                push(
                    findings,
                    "panic-free-worker-paths",
                    f,
                    line,
                    format!(
                        "`.{name}(…)` in worker/fault/recovery code — handle the failure or propagate it; an avoidable panic here turns into a spurious recovery event"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Meta rule: stale-registry
// ---------------------------------------------------------------------------

/// Every registry entry that scopes a rule must match something in the
/// scanned files. Rules match entries with `rel.contains(path)`, so a
/// moved or deleted file (or a renamed function) would otherwise drop
/// that rule's coverage without a word. Findings name the entry's path
/// (`*` for any-file entries) at line 0: the registry, not that file,
/// needs the fix.
pub fn stale_registry(cfg: &LintConfig, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut stale = |set: &str, path: &str, what: String| {
        findings.push(Finding {
            rule: "stale-registry",
            rel: if path.is_empty() { "*" } else { path }.to_string(),
            line: 0,
            message: format!(
                "`{set}` entry {what} matches nothing in the scanned files — update LintConfig::for_workspace so the rule keeps its coverage"
            ),
        });
    };
    for (set, entries) in [
        ("hot_functions", &cfg.hot_functions),
        ("timing_hot_functions", &cfg.timing_hot_functions),
        ("worker_functions", &cfg.worker_functions),
    ] {
        for (path, name) in entries {
            let found = files.iter().any(|f| {
                (path.is_empty() || f.rel.contains(path.as_str()))
                    && f.fns.iter().any(|span| span.name == *name)
            });
            if !found {
                stale(set, path, format!("(\"{path}\", \"{name}\")"));
            }
        }
    }
    for path in &cfg.worker_files {
        if !files.iter().any(|f| f.rel.contains(path.as_str())) {
            stale("worker_files", path, format!("\"{path}\""));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: forbid-unsafe-pinned
// ---------------------------------------------------------------------------

pub fn forbid_unsafe_pinned(_cfg: &LintConfig, f: &SourceFile, findings: &mut Vec<Finding>) {
    if !(f.rel.ends_with("src/lib.rs") || f.rel.ends_with("src/main.rs")) {
        return;
    }
    let found = (0..f.code.len()).any(|i| {
        f.matches(
            i,
            &[
                Pat::P('#'),
                Pat::P('!'),
                Pat::P('['),
                Pat::I("forbid"),
                Pat::P('('),
                Pat::I("unsafe_code"),
                Pat::P(')'),
                Pat::P(']'),
            ],
        )
    });
    if !found {
        push(
            findings,
            "forbid-unsafe-pinned",
            f,
            1,
            "crate root lacks `#![forbid(unsafe_code)]` — the workspace is safe Rust and stays that way".to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 5: wire-determinism
// ---------------------------------------------------------------------------

/// Method names that walk a collection in storage order.
const ITER_METHODS: &[&str] = &["iter", "iter_mut", "into_iter", "keys", "values", "drain"];

pub fn wire_determinism(cfg: &LintConfig, f: &SourceFile, findings: &mut Vec<Finding>) {
    if is_test_path(&f.rel) || cfg.wire_fn_markers.is_empty() {
        return;
    }
    // File-wide pass: names (fields, locals, params) declared with a
    // hash-ordered type — `counts: HashMap<…>` records `counts`. Wire
    // functions iterating such a name by `.iter()`-family calls are
    // then flagged even though the type never appears in their body.
    let mut hash_names: Vec<&str> = Vec::new();
    for i in 0..f.code.len() {
        if !f
            .ct(i)
            .is_some_and(|t| matches!(t.ident(), Some("HashMap" | "HashSet")))
        {
            continue;
        }
        let mut j = i;
        for _ in 0..8 {
            if j == 0 {
                break;
            }
            j -= 1;
            let Some(t) = f.ct(j) else { break };
            if !t.is_punct(':') {
                continue;
            }
            // Skip `::` path segments (std::collections::HashMap).
            if f.ct(j + 1).is_some_and(|t| t.is_punct(':'))
                || (j > 0 && f.ct(j - 1).is_some_and(|t| t.is_punct(':')))
            {
                continue;
            }
            if let Some(name) = f.ct(j.wrapping_sub(1)).and_then(|t| t.ident()) {
                hash_names.push(name);
            }
            break;
        }
    }
    for span in &f.fns {
        if !cfg
            .wire_fn_markers
            .iter()
            .any(|m| span.name.contains(m.as_str()))
        {
            continue;
        }
        for i in span.body.clone() {
            if f.in_test_region(i) {
                continue;
            }
            let Some(t) = f.ct(i) else { continue };
            if let Some(name @ ("HashMap" | "HashSet")) = t.ident() {
                push(
                    findings,
                    "wire-determinism",
                    f,
                    t.line,
                    format!(
                        "`{name}` referenced in wire-path function `{}` — encodings must be byte-deterministic; iterate a sorted Vec or BTreeMap instead of hash-order",
                        span.name
                    ),
                );
            }
            // `counts.iter()` where `counts` was declared HashMap/HashSet.
            if let Some(recv) = t.ident() {
                if hash_names.contains(&recv)
                    && f.ct(i + 1).is_some_and(|t| t.is_punct('.'))
                    && f.ct(i + 2)
                        .and_then(|t| t.ident())
                        .is_some_and(|m| ITER_METHODS.contains(&m))
                    && f.ct(i + 3).is_some_and(|t| t.is_punct('('))
                {
                    let m = f.ct(i + 2).and_then(|t| t.ident()).unwrap_or("iter");
                    push(
                        findings,
                        "wire-determinism",
                        f,
                        t.line,
                        format!(
                            "`{recv}.{m}()` in wire-path function `{}` iterates a hash-ordered collection (`{recv}` is declared HashMap/HashSet in this file) — encode from an explicitly sorted view",
                            span.name
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: wire-constant-consistency (cross-file)
// ---------------------------------------------------------------------------

fn parse_num(s: &str) -> Option<u64> {
    let s: String = s.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        (hex, 16)
    } else if let Some(b) = s.strip_prefix("0b") {
        (b, 2)
    } else if let Some(o) = s.strip_prefix("0o") {
        (o, 8)
    } else {
        (s.as_str(), 10)
    };
    // Stop at the type suffix (u8, usize, …).
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

fn fmt_bytes(b: &[u8]) -> String {
    let mut out = String::from("b\"");
    for &byte in b {
        if byte.is_ascii_graphic() || byte == b' ' {
            out.push(byte as char);
        } else {
            out.push_str(&format!("\\x{byte:02x}"));
        }
    }
    out.push('"');
    out
}

/// Cross-file consistency of wire constants. Checks, over *all* files
/// including tests:
///
/// 1. every `*MAGIC*` const with a byte-string (or numeric) value is in
///    the registry — a typo'd or unregistered magic can silently fork
///    the format;
/// 2. every byte-string literal that *looks like* a frame magic (4–8
///    bytes starting `HK`) matches a registered magic — catches
///    hand-built frames in tests drifting from the encoder;
/// 3. in files that define a registered magic, every `*VERSION*` const
///    matches the registry by name and value — bumping a wire version
///    without updating the registry (and every agreeing site) fails;
/// 4. in those files, version fields are compared against named
///    constants, never raw integer literals.
pub fn wire_constant_consistency(
    cfg: &LintConfig,
    files: &[SourceFile],
    findings: &mut Vec<Finding>,
) {
    if cfg.magics.is_empty() && cfg.versions.is_empty() {
        return;
    }
    for f in files {
        // First pass: find const definitions.
        let mut defines_registered_magic = false;
        let mut version_consts: Vec<(String, u32, Option<u64>)> = Vec::new();
        for i in 0..f.code.len() {
            if !f.ct(i).is_some_and(|t| t.is_ident("const")) {
                continue;
            }
            let Some(name) = f.ct(i + 1).and_then(|t| t.ident()).map(String::from) else {
                continue;
            };
            let line = f.ct(i + 1).map(|t| t.line).unwrap_or(1);
            // Skip the type annotation (it may contain `;`, as in
            // `&[u8; 4]`) — the value starts after the `=`.
            let mut j = i + 2;
            while let Some(t) = f.ct(j) {
                if t.is_punct('=') {
                    j += 1;
                    break;
                }
                if t.is_punct('{') {
                    break; // `const fn` — not a constant item
                }
                j += 1;
            }
            let mut bytes_val: Option<Vec<u8>> = None;
            let mut num_val: Option<u64> = None;
            while let Some(t) = f.ct(j) {
                match &t.kind {
                    crate::lexer::TokenKind::Punct(';') => break,
                    crate::lexer::TokenKind::ByteStr(b) if bytes_val.is_none() => {
                        bytes_val = Some(b.clone());
                    }
                    crate::lexer::TokenKind::Num(n) if num_val.is_none() => {
                        num_val = parse_num(n);
                    }
                    _ => {}
                }
                j += 1;
            }
            if name.contains("MAGIC") {
                if let Some(b) = &bytes_val {
                    if cfg.magics.iter().any(|m| m == b) {
                        defines_registered_magic = true;
                    } else {
                        push(
                            findings,
                            "wire-constant-consistency",
                            f,
                            line,
                            format!(
                                "magic const `{name}` = {} is not in the lint registry (LintConfig::for_workspace) — register new frame magics so every encode/decode/test site is cross-checked",
                                fmt_bytes(b)
                            ),
                        );
                    }
                } else if let Some(n) = num_val {
                    if !cfg.numeric_magics.contains(&n) {
                        push(
                            findings,
                            "wire-constant-consistency",
                            f,
                            line,
                            format!(
                                "numeric magic const `{name}` = {n:#x} is not in the lint registry (LintConfig::for_workspace)"
                            ),
                        );
                    }
                }
            } else if name.ends_with("VERSION") {
                version_consts.push((name, line, num_val));
            }
        }
        // Version consts only bind in files that define a wire format.
        if defines_registered_magic {
            for (name, line, val) in &version_consts {
                match cfg.versions.iter().find(|(n, _)| n == name) {
                    Some((_, expected)) if Some(*expected) == *val => {}
                    Some((_, expected)) => push(
                        findings,
                        "wire-constant-consistency",
                        f,
                        *line,
                        format!(
                            "wire version const `{name}` = {} disagrees with the registered value {expected} — a version bump must update the registry and every agreeing site together",
                            val.map_or("<non-integer>".into(), |v| v.to_string()),
                        ),
                    ),
                    None => push(
                        findings,
                        "wire-constant-consistency",
                        f,
                        *line,
                        format!(
                            "wire version const `{name}` is not in the lint registry (LintConfig::for_workspace) — register it so encode, decode and tests stay pinned together"
                        ),
                    ),
                }
            }
            // Raw integer comparisons against version fields.
            let is_verlike = |s: &str| s.to_ascii_lowercase().contains("version");
            for i in 0..f.code.len() {
                let eq_num = f.matches(
                    i,
                    &[
                        Pat::IdentWhere(&is_verlike),
                        Pat::P('='),
                        Pat::P('='),
                        Pat::AnyNum,
                    ],
                ) || f.matches(
                    i,
                    &[
                        Pat::IdentWhere(&is_verlike),
                        Pat::P('!'),
                        Pat::P('='),
                        Pat::AnyNum,
                    ],
                );
                if eq_num {
                    let line = f.ct(i).map(|t| t.line).unwrap_or(1);
                    push(
                        findings,
                        "wire-constant-consistency",
                        f,
                        line,
                        "version field compared against a raw integer literal — use the named version const so the registry pins every site".to_string(),
                    );
                }
            }
        }
        // Magic-shaped byte literals anywhere (tests included).
        for t in f.tokens.iter() {
            if let crate::lexer::TokenKind::ByteStr(b) = &t.kind {
                if (4..=8).contains(&b.len())
                    && b.starts_with(b"HK")
                    && !cfg.magics.iter().any(|m| m == b)
                {
                    push(
                        findings,
                        "wire-constant-consistency",
                        f,
                        t.line,
                        format!(
                            "byte literal {} looks like a frame magic but matches no registered magic — hand-built frames must use the registered values",
                            fmt_bytes(b)
                        ),
                    );
                }
            }
        }
    }
}
