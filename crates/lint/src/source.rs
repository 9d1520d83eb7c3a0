//! Per-file source model: lexed tokens plus the structure the rules
//! need — function spans (name → body token range), `#[cfg(test)]`
//! module regions, and parsed `hk-lint:` suppression directives.

use crate::lexer::{lex, Token, TokenKind};
use std::ops::Range;
use std::path::PathBuf;

/// A function found in the token stream: its name, the 1-based line of
/// the `fn` keyword, and the half-open range of *code-token indices*
/// covering its body (between the braces, exclusive).
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    pub line: u32,
    pub body: Range<usize>,
    /// The type named by the `impl` block the function sits in:
    /// `StreamSummary` in `impl<K> StreamSummary<K>`, `FastHasher` in
    /// `impl Hasher for FastHasher`. `None` for free functions.
    pub owner: Option<String>,
    /// True when the function carries `#[inline]` or
    /// `#[inline(always)]`.
    pub inline: bool,
}

/// One `// hk-lint: allow(rule-a, rule-b) reason` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rules: Vec<String>,
    pub reason: String,
    pub line: u32,
}

/// A directive that mentioned `hk-lint:` but failed to parse (these
/// become findings — a suppression you *think* is active but isn't is
/// worse than none).
#[derive(Debug, Clone)]
pub struct BadDirective {
    pub line: u32,
    pub message: String,
}

pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators.
    pub rel: String,
    pub path: PathBuf,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    pub fns: Vec<FnSpan>,
    /// Code-token index ranges covered by `#[cfg(test)] mod … { … }`.
    pub test_regions: Vec<Range<usize>>,
    pub allows: Vec<Allow>,
    pub bad_directives: Vec<BadDirective>,
}

impl SourceFile {
    pub fn parse(path: PathBuf, rel: String, text: &str) -> Self {
        let tokens = lex(text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut f = SourceFile {
            rel,
            path,
            tokens,
            code,
            fns: Vec::new(),
            test_regions: Vec::new(),
            allows: Vec::new(),
            bad_directives: Vec::new(),
        };
        f.scan_fns();
        f.scan_test_regions();
        f.scan_directives();
        f
    }

    /// The code token at code-index `i` (None past the end).
    pub fn ct(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&ti| &self.tokens[ti])
    }

    /// True when code-index `i` falls inside a `#[cfg(test)]` module.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&i))
    }

    /// Matches `pattern` starting at code-index `i`. Each pattern
    /// element must match the corresponding code token.
    pub fn matches(&self, i: usize, pattern: &[Pat<'_>]) -> bool {
        pattern
            .iter()
            .enumerate()
            .all(|(j, p)| self.ct(i + j).is_some_and(|t| p.matches(t)))
    }

    fn scan_fns(&mut self) {
        let impls = self.impl_blocks();
        let mut i = 0usize;
        while i < self.code.len() {
            if self.ct(i).is_some_and(|t| t.is_ident("fn")) {
                if let Some(TokenKind::Ident(name)) = self.ct(i + 1).map(|t| t.kind.clone()) {
                    let line = self.ct(i).map(|t| t.line).unwrap_or(0);
                    if let Some(body) = self.find_body(i + 2) {
                        // The innermost impl body holding the `fn`.
                        let owner = impls
                            .iter()
                            .filter(|(r, _)| r.contains(&i))
                            .max_by_key(|(r, _)| r.start)
                            .and_then(|(_, ty)| ty.clone());
                        let inline = self.has_inline_attr(i);
                        self.fns.push(FnSpan {
                            name,
                            line,
                            body,
                            owner,
                            inline,
                        });
                    }
                }
            }
            i += 1;
        }
    }

    /// Every `impl` block: its body's code-index range and the name of
    /// the type it implements for (the last path segment outside angle
    /// brackets, after `for` if there is one; `None` for a type such as
    /// `[u8; N]` that has no name).
    fn impl_blocks(&self) -> Vec<(Range<usize>, Option<String>)> {
        let mut out = Vec::new();
        for i in 0..self.code.len() {
            if !self.ct(i).is_some_and(|t| t.is_ident("impl")) {
                continue;
            }
            // An item starts after `}`, `;`, `{`, an attribute's `]` or
            // `unsafe`; anywhere else `impl` begins an `impl Trait` type.
            let item = i == 0
                || self.ct(i - 1).is_some_and(|t| {
                    ['}', ';', '{', ']'].iter().any(|&c| t.is_punct(c)) || t.is_ident("unsafe")
                });
            if !item {
                continue;
            }
            let (mut depth, mut ty, mut in_where) = (0i32, None, false);
            let mut j = i + 1;
            while let Some(t) = self.ct(j) {
                match &t.kind {
                    TokenKind::Punct('<' | '[' | '(') => depth += 1,
                    // `->` inside a bound is not a closing bracket.
                    TokenKind::Punct('>') if !self.ct(j - 1).is_some_and(|p| p.is_punct('-')) => {
                        depth -= 1
                    }
                    TokenKind::Punct(']' | ')') => depth -= 1,
                    TokenKind::Punct('{') if depth == 0 => break,
                    TokenKind::Punct(';') if depth == 0 => break,
                    TokenKind::Ident(s) if depth == 0 && !in_where => match s.as_str() {
                        "for" => ty = None,
                        "where" => in_where = true,
                        "dyn" => {}
                        _ => ty = Some(s.clone()),
                    },
                    _ => {}
                }
                j += 1;
            }
            if self.ct(j).is_some_and(|t| t.is_punct('{')) {
                if let Some(close) = self.match_brace(j) {
                    out.push((j + 1..close, ty));
                }
            }
        }
        out
    }

    /// True when the `fn` at code-index `at` carries `#[inline]` or
    /// `#[inline(always)]`: among the tokens between the previous item's
    /// end (`}`, `;` or `{`) and the `fn`, that is its attributes and
    /// qualifiers.
    fn has_inline_attr(&self, at: usize) -> bool {
        let mut start = at;
        while start > 0
            && !self
                .ct(start - 1)
                .is_some_and(|t| t.is_punct('}') || t.is_punct(';') || t.is_punct('{'))
        {
            start -= 1;
        }
        let inline = [Pat::P('#'), Pat::P('['), Pat::I("inline")];
        (start..at).any(|k| {
            self.matches(k, &inline)
                && (self.matches(k + 3, &[Pat::P(']')])
                    || self.matches(
                        k + 3,
                        &[Pat::P('('), Pat::I("always"), Pat::P(')'), Pat::P(']')],
                    ))
        })
    }

    /// From just after the fn name, finds the body braces. Returns the
    /// code-index range strictly inside them, or None for a bodyless
    /// declaration (trait method signature ending in `;`).
    fn find_body(&self, mut i: usize) -> Option<Range<usize>> {
        let mut paren = 0i32;
        loop {
            let t = self.ct(i)?;
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
                TokenKind::Punct(';') if paren == 0 => return None,
                TokenKind::Punct('{') if paren == 0 => {
                    let close = self.match_brace(i)?;
                    return Some(i + 1..close);
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Given the code-index of a `{`, returns the code-index of its
    /// matching `}`.
    fn match_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut i = open;
        loop {
            let t = self.ct(i)?;
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            i += 1;
        }
    }

    fn scan_test_regions(&mut self) {
        let mut regions = Vec::new();
        let mut i = 0usize;
        while i < self.code.len() {
            // #[cfg(test)]
            if self.matches(
                i,
                &[
                    Pat::P('#'),
                    Pat::P('['),
                    Pat::I("cfg"),
                    Pat::P('('),
                    Pat::I("test"),
                    Pat::P(')'),
                    Pat::P(']'),
                ],
            ) {
                // Skip any further attributes, then expect `mod name {`.
                let mut j = i + 7;
                while self.ct(j).is_some_and(|t| t.is_punct('#')) {
                    // Skip the whole #[…] group.
                    let mut k = j + 1;
                    let mut depth = 0i32;
                    loop {
                        match self.ct(k) {
                            Some(t) if t.is_punct('[') => depth += 1,
                            Some(t) if t.is_punct(']') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Some(_) => {}
                            None => break,
                        }
                        k += 1;
                    }
                    j = k + 1;
                }
                if self.ct(j).is_some_and(|t| t.is_ident("mod")) {
                    // Find the opening brace of the module body.
                    let mut k = j + 1;
                    while let Some(t) = self.ct(k) {
                        if t.is_punct('{') {
                            if let Some(close) = self.match_brace(k) {
                                regions.push(k + 1..close);
                                i = k; // continue scanning inside too (nested cfg(test))
                            }
                            break;
                        }
                        if t.is_punct(';') {
                            break; // `mod foo;` — out-of-line, path filters handle it
                        }
                        k += 1;
                    }
                }
            }
            i += 1;
        }
        self.test_regions = regions;
    }

    fn scan_directives(&mut self) {
        for t in &self.tokens {
            let text = match &t.kind {
                TokenKind::LineComment(s) | TokenKind::BlockComment(s) => s,
                _ => continue,
            };
            // A directive is a comment *starting* with `hk-lint:` —
            // prose and doc examples that merely mention the syntax
            // (nested comment markers, backticks) do not count.
            let Some(rest) = text.trim_start().strip_prefix("hk-lint:") else {
                continue;
            };
            let rest = rest.trim_start();
            let Some(args) = rest.strip_prefix("allow(") else {
                self.bad_directives.push(BadDirective {
                    line: t.line,
                    message: format!(
                        "malformed hk-lint directive (expected `hk-lint: allow(<rule>) <reason>`): `{}`",
                        rest.trim()
                    ),
                });
                continue;
            };
            let Some(close) = args.find(')') else {
                self.bad_directives.push(BadDirective {
                    line: t.line,
                    message: "unclosed `allow(` in hk-lint directive".to_string(),
                });
                continue;
            };
            let rules: Vec<String> = args[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let reason = args[close + 1..].trim().to_string();
            if rules.is_empty() {
                self.bad_directives.push(BadDirective {
                    line: t.line,
                    message: "hk-lint allow() names no rule".to_string(),
                });
                continue;
            }
            if reason.is_empty() {
                self.bad_directives.push(BadDirective {
                    line: t.line,
                    message: format!(
                        "hk-lint allow({}) carries no reason — a suppression must say why",
                        rules.join(", ")
                    ),
                });
                continue;
            }
            self.allows.push(Allow {
                rules,
                reason,
                line: t.line,
            });
        }
    }
}

/// A single-token pattern element for [`SourceFile::matches`].
pub enum Pat<'a> {
    /// Exact identifier.
    I(&'a str),
    /// Exact punctuation char.
    P(char),
    /// Any identifier whose name satisfies the predicate.
    IdentWhere(&'a dyn Fn(&str) -> bool),
    /// Any numeric literal.
    AnyNum,
}

impl Pat<'_> {
    fn matches(&self, t: &Token) -> bool {
        match self {
            Pat::I(name) => t.is_ident(name),
            Pat::P(c) => t.is_punct(*c),
            Pat::IdentWhere(f) => t.ident().is_some_and(f),
            Pat::AnyNum => matches!(t.kind, TokenKind::Num(_)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("mem.rs"), "mem.rs".into(), src)
    }

    #[test]
    fn fn_spans_found() {
        let f = parse("fn alpha() { beta(); }\nimpl X { pub fn gamma(&self) -> u8 { 0 } }");
        let names: Vec<_> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["alpha", "gamma"]);
        // alpha's body contains beta.
        let alpha = &f.fns[0];
        let body: Vec<_> = alpha
            .body
            .clone()
            .filter_map(|i| f.ct(i).and_then(|t| t.ident().map(String::from)))
            .collect();
        assert_eq!(body, ["beta"]);
    }

    #[test]
    fn fn_owner_is_the_impl_type() {
        let f = parse(
            "fn free() {}\n\
             impl<K: Eq + Into<u64>> Summary<K> where K: Copy {\n\
                 fn iter(&self) -> impl Iterator<Item = u8> + '_ { inner(); }\n\
             }\n\
             impl std::hash::Hasher for Fast { fn write(&mut self) {} }\n\
             impl<const N: usize> Key for [u8; N] { fn bytes(&self) {} }",
        );
        let owners: Vec<_> = f
            .fns
            .iter()
            .map(|s| (s.name.as_str(), s.owner.as_deref()))
            .collect();
        assert_eq!(
            owners,
            [
                ("free", None),
                ("iter", Some("Summary")),
                ("write", Some("Fast")),
                ("bytes", None),
            ]
        );
    }

    #[test]
    fn trait_declaration_without_body_skipped() {
        let f = parse("trait T { fn decl(&self) -> u8; fn with_default(&self) { x(); } }");
        let names: Vec<_> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["with_default"]);
    }

    #[test]
    fn cfg_test_region_detected() {
        let f =
            parse("fn prod() { a(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}");
        assert_eq!(f.test_regions.len(), 1);
        // The unwrap ident is inside the region; `a` is not.
        let unwrap_idx = (0..f.code.len())
            .find(|&i| f.ct(i).is_some_and(|t| t.is_ident("unwrap")))
            .unwrap();
        let a_idx = (0..f.code.len())
            .find(|&i| f.ct(i).is_some_and(|t| t.is_ident("a")))
            .unwrap();
        assert!(f.in_test_region(unwrap_idx));
        assert!(!f.in_test_region(a_idx));
    }

    #[test]
    fn allow_with_reason_parses() {
        let f = parse("x(); // hk-lint: allow(rule-a, rule-b) cold path, measured");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rules, ["rule-a", "rule-b"]);
        assert_eq!(f.allows[0].reason, "cold path, measured");
        assert!(f.bad_directives.is_empty());
    }

    #[test]
    fn allow_without_reason_is_bad() {
        let f = parse("x(); // hk-lint: allow(rule-a)");
        assert!(f.allows.is_empty());
        assert_eq!(f.bad_directives.len(), 1);
        assert!(f.bad_directives[0].message.contains("no reason"));
    }

    #[test]
    fn malformed_directive_is_bad() {
        let f = parse("x(); // hk-lint: disable-everything");
        assert_eq!(f.bad_directives.len(), 1);
    }
}
