//! Minimal shared command-line parsing for the bench binaries.
//!
//! Both `runspeck` and `bench_throughput` take `--flag`, `--flag VALUE`
//! (or `--flag A B` for fixed higher arities) and positional operands;
//! this module replaces their hand-rolled `while let` loops with one
//! declarative helper so new options stay consistent across binaries.

use std::collections::{BTreeMap, BTreeSet};

/// Parsed command line: valued options, boolean flags, and positionals.
#[derive(Debug, Default)]
pub struct ParsedArgs {
    /// Valued options by name; the `Vec` holds the option's operands in
    /// order (length = declared arity). Repeating an option keeps the
    /// last occurrence.
    pub values: BTreeMap<String, Vec<String>>,
    /// Boolean flags that were present.
    pub flags: BTreeSet<String>,
    /// Arguments that matched no declared option.
    pub positional: Vec<String>,
}

impl ParsedArgs {
    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// First operand of a valued option, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.first())
            .map(|s| s.as_str())
    }

    /// All operands of a valued option, if present.
    pub fn values_of(&self, name: &str) -> Option<&[String]> {
        self.values.get(name).map(|v| v.as_slice())
    }

    /// First operand of a valued option parsed as `T`, or `default` when
    /// the option is absent or unparsable (the bench binaries'
    /// long-standing lenient behaviour).
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.value(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Parses `args` against a declaration of valued options (`(name, arity)`)
/// and boolean flags. Unknown `--options` are an error (a typo'd flag must
/// not be silently swallowed as a positional); anything else is
/// positional. A valued option missing its operands is an error.
pub fn parse_flags(
    args: impl Iterator<Item = String>,
    valued: &[(&str, usize)],
    boolean: &[&str],
) -> Result<ParsedArgs, String> {
    let mut out = ParsedArgs::default();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if let Some(&(name, arity)) = valued.iter().find(|(n, _)| *n == a) {
            let mut vals = Vec::with_capacity(arity);
            for i in 0..arity {
                match args.next() {
                    Some(v) => vals.push(v),
                    None => return Err(format!("{name} expects {arity} value(s), got {i}")),
                }
            }
            out.values.insert(name.to_string(), vals);
        } else if boolean.contains(&a.as_str()) {
            out.flags.insert(a);
        } else if a.starts_with("--") {
            return Err(format!("unknown option {a}"));
        } else {
            out.positional.push(a);
        }
    }
    Ok(out)
}

/// Prints `error` and then `usage` to stderr and exits with status 2: a
/// bench binary's answer to a command line it cannot run.
pub fn exit_usage(error: &str, usage: &str) -> ! {
    eprintln!("{error}\n\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs, String> {
        parse_flags(
            args.iter().map(|s| s.to_string()),
            &[
                ("--iterations", 1),
                ("--synthetic", 2),
                ("--trace-diff", 2),
                ("--audit-out", 1),
                ("--audit-diff", 2),
            ],
            &["--metrics", "--profile"],
        )
    }

    #[test]
    fn mixes_flags_values_and_positionals() {
        let p = parse(&[
            "m.mtx",
            "--iterations",
            "7",
            "--metrics",
            "--synthetic",
            "graph",
            "3",
        ])
        .unwrap();
        assert_eq!(p.positional, vec!["m.mtx"]);
        assert_eq!(p.parsed_or("--iterations", 5usize), 7);
        assert!(p.flag("--metrics"));
        assert!(!p.flag("--profile"));
        assert_eq!(
            p.values_of("--synthetic").unwrap(),
            &["graph".to_string(), "3".to_string()]
        );
        assert_eq!(p.value("--trace-diff"), None);
    }

    #[test]
    fn lenient_numeric_fallback() {
        let p = parse(&["--iterations", "not-a-number"]).unwrap();
        assert_eq!(p.parsed_or("--iterations", 5usize), 5);
    }

    #[test]
    fn missing_operand_is_an_error() {
        assert!(parse(&["--synthetic", "graph"]).is_err());
        assert!(parse(&["--iterations"]).is_err());
    }

    #[test]
    fn unknown_option_is_an_error() {
        assert!(parse(&["--no-such-flag"]).is_err());
    }

    #[test]
    fn repeated_option_keeps_last() {
        let p = parse(&["--iterations", "2", "--iterations", "9"]).unwrap();
        assert_eq!(p.parsed_or("--iterations", 5usize), 9);
    }

    #[test]
    fn audit_flags_parse_like_their_trace_counterparts() {
        let p = parse(&["--audit-out", "audit.json", "--audit-diff", "old", "new"]).unwrap();
        assert_eq!(p.value("--audit-out"), Some("audit.json"));
        assert_eq!(
            p.values_of("--audit-diff").unwrap(),
            &["old".to_string(), "new".to_string()]
        );
        // Arity-2 diff options must not swallow a following option name
        // silently: a missing second operand is an error.
        assert!(parse(&["--audit-diff", "only-one"]).is_err());
        // Operands that look like files never turn into positionals.
        let p = parse(&["--audit-out", "a.json", "m.mtx"]).unwrap();
        assert_eq!(p.positional, vec!["m.mtx"]);
    }
}
