//! Minimal `--flag value` argument parsing for the `hk` tool.

use crate::commands::USAGE;
use std::collections::HashMap;
use std::fmt;

/// Errors surfaced to the user. A [`CliError::Usage`] exits 2 and
/// prints the usage text; every other error exits 1 with its message
/// alone.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Malformed invocation (unknown flag, missing value, bad number).
    Usage(String),
    /// A run that failed, with its cause: a dead worker, a missed
    /// `--min-recall` floor, an unreadable trace, or an I/O error (whose
    /// message starts `i/o:`).
    Run(String),
    /// `hk lint --deny` found violations.
    LintFindings(usize),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(m) => write!(f, "{m}"),
            Self::Run(m) => write!(f, "{m}"),
            Self::LintFindings(n) => write!(f, "lint failed with {n} finding(s)"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self::Run(format!("i/o: {e}"))
    }
}

/// The flags subcommand `command` takes, as `(name, is_switch)`, read
/// from its synopsis in [`USAGE`] so the help text is the only list. A
/// flag written `[--name]` is a switch (presence means `true`); every
/// other flag takes a value. Empty for an undocumented subcommand.
pub fn flags_of(command: &str) -> Vec<(&'static str, bool)> {
    let synopsis = USAGE.split("USAGE:\n").nth(1).unwrap_or_default();
    let synopsis = synopsis.split("\n\n").next().unwrap_or_default();
    let mut current = "";
    let mut flags = Vec::new();
    for line in synopsis.lines() {
        // A synopsis starts at its `hk <command>` line and runs over
        // the indented continuation lines below it.
        if let Some(rest) = line.trim_start().strip_prefix("hk ") {
            current = rest.split_whitespace().next().unwrap_or_default();
        }
        if current != command {
            continue;
        }
        for (at, _) in line.match_indices("--") {
            let tail = &line[at + 2..];
            let end = tail
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(tail.len());
            flags.push((&tail[..end], tail[end..].starts_with(']')));
        }
    }
    flags
}

/// Parsed command line: one subcommand plus `--flag value` options and
/// valueless switches (see [`flags_of`]).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (`generate`, `analyze`, `compare`, `help`).
    pub command: String,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name). Flag names are not
    /// checked here; [`Args::reject_unknown_flags`] does that.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut it = argv.iter();
        if let Some(cmd) = it.next() {
            if cmd.starts_with('-') {
                return Err(CliError::Usage(format!("expected subcommand, got `{cmd}`")));
            }
            args.command = cmd.clone();
        }
        let known = flags_of(&args.command);
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(CliError::Usage(format!("expected `--flag`, got `{flag}`")));
            };
            if known.contains(&(name, true)) {
                args.flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            let Some(value) = it.next() else {
                return Err(CliError::Usage(format!("flag `--{name}` needs a value")));
            };
            args.flags.insert(name.to_string(), value.clone());
        }
        Ok(args)
    }

    /// Fails, naming every offender, when a flag was given that the
    /// subcommand's synopsis does not list: a misspelt flag must not
    /// run the command on defaults.
    pub fn reject_unknown_flags(&self) -> Result<(), CliError> {
        let known = flags_of(&self.command);
        let mut unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|name| !known.iter().any(|(k, _)| k == name))
            .map(|name| format!("`--{name}`"))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort();
        Err(CliError::Usage(format!(
            "unknown flag(s) for `hk {}`: {}",
            self.command,
            unknown.join(", ")
        )))
    }

    /// True if a boolean switch was given.
    pub fn is_set(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A string flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required flag `--{name}`")))
    }

    /// A numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("flag `--{name}`: bad value `{v}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = Args::parse(&sv(&["generate", "--kind", "zipf", "--packets", "1000"])).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.get_or("kind", "x"), "zipf");
        assert_eq!(a.num_or::<u64>("packets", 0).unwrap(), 1000);
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&sv(&["analyze"])).unwrap();
        assert_eq!(a.get_or("algo", "parallel"), "parallel");
        assert_eq!(a.num_or::<usize>("k", 100).unwrap(), 100);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse(&sv(&["run", "--layout-report", "--k", "5"])).unwrap();
        assert!(a.is_set("layout-report"));
        assert_eq!(a.num_or::<usize>("k", 1).unwrap(), 5);
        // Also fine in last position.
        let a = Args::parse(&sv(&["run", "--k", "5", "--layout-report"])).unwrap();
        assert!(a.is_set("layout-report"));
        assert!(!a.is_set("verbose"));
    }

    #[test]
    fn missing_value_rejected() {
        let e = Args::parse(&sv(&["x", "--kind"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn bare_word_flag_rejected() {
        let e = Args::parse(&sv(&["x", "kind", "zipf"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn bad_number_rejected() {
        let a = Args::parse(&sv(&["x", "--k", "abc"])).unwrap();
        assert!(a.num_or::<usize>("k", 1).is_err());
    }

    #[test]
    fn required_flag() {
        let a = Args::parse(&sv(&["x", "--out", "f.trace"])).unwrap();
        assert_eq!(a.require("out").unwrap(), "f.trace");
        assert!(a.require("in").is_err());
    }

    #[test]
    fn every_usage_flag_parses() {
        let commands = [
            "generate", "run", "analyze", "compare", "pcap-gen", "pcap", "change", "fleet", "lint",
        ];
        for cmd in commands {
            let flags = flags_of(cmd);
            assert!(!flags.is_empty(), "`hk {cmd}` lists no flags");
            for (name, switch) in flags {
                let flag = format!("--{name}");
                let mut argv = vec![cmd, flag.as_str()];
                if !switch {
                    argv.push("1");
                }
                let a = Args::parse(&sv(&argv)).unwrap();
                a.reject_unknown_flags().unwrap();
                assert_eq!(a.get_or(name, ""), if switch { "true" } else { "1" });
            }
        }
        let switches = |cmd| -> Vec<_> {
            let flags = flags_of(cmd).into_iter();
            flags.filter_map(|(name, sw)| sw.then_some(name)).collect()
        };
        assert_eq!(switches("run"), ["layout-report", "recover"]);
        assert_eq!(switches("fleet"), ["delta"]);
        assert_eq!(switches("lint"), ["json", "deny"]);
        assert!(flags_of("help").is_empty());
    }

    #[test]
    fn misspelt_flag_is_a_usage_error_before_any_work() {
        // The trace does not exist: an i/o error would mean the run
        // started before the flags were checked.
        let argv = [
            "run",
            "--trace",
            "/nonexistent/t",
            "--shard",
            "4",
            "--memroy-kb",
            "8",
        ];
        let Err(CliError::Usage(msg)) = crate::run(&sv(&argv)) else {
            panic!("a misspelt flag must be a usage error");
        };
        assert!(msg.contains("`--memroy-kb`, `--shard`"), "{msg}");
        let e = crate::run(&sv(&["help", "--k", "5"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn documented_invocations_name_only_known_flags() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for doc in [".github/workflows/ci.yml", "README.md"] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).unwrap();
            for line in text.replace("\\\n", " ").lines() {
                let Some((_, cmd)) = line.split_once("--bin hk -- ") else {
                    continue;
                };
                let argv: Vec<&str> = cmd
                    .split_whitespace()
                    .take_while(|t| !matches!(*t, "|" | ";" | "then"))
                    .map(|t| t.trim_matches(|c| c == '[' || c == ']'))
                    .collect();
                let a = Args::parse(&sv(&argv)).unwrap_or_else(|e| panic!("{doc}: {cmd}: {e}"));
                a.reject_unknown_flags()
                    .unwrap_or_else(|e| panic!("{doc}: {cmd}: {e}"));
                seen += 1;
            }
        }
        assert!(seen >= 20, "found only {seen} invocations");
    }

    #[test]
    fn leading_flag_rejected() {
        let e = Args::parse(&sv(&["--kind", "zipf"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }
}
