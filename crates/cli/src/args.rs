//! Minimal dependency-free flag parsing.
//!
//! The workspace policy keeps the dependency tree to the approved set, so
//! instead of `clap` the CLI uses this small `--key value` parser: flags
//! are collected into a map, values are fetched with typed accessors, and
//! unknown flags are reported as errors (catching typos, the main thing a
//! real parser buys).

use std::collections::BTreeMap;

/// Parsed `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

/// CLI errors with user-facing messages, split by exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line is wrong: an unknown command or flag, or a
    /// missing or unparsable value. Exit code 2.
    Usage(String),
    /// The command ran and failed: a file could not be read, written or
    /// decoded, or a build step rejected its input. Exit code 1.
    Failed(String),
}

impl CliError {
    /// The user-facing message.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Failed(m) => m,
        }
    }

    /// The process exit code: 2 for a usage error, 1 for a failed run.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for CliError {}

impl Flags {
    /// Parse `args` (everything after the subcommand). `allowed` is the
    /// set of recognized flag names (without `--`).
    pub fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, CliError> {
        Self::parse_with_switches(args, allowed, &[])
    }

    /// Parse with an additional set of boolean `switches` that take no
    /// value (`--compact` rather than `--compact true`). A present switch
    /// reads back as `"true"` via [`Flags::is_set`].
    pub fn parse_with_switches(
        args: &[String],
        allowed: &[&str],
        switches: &[&str],
    ) -> Result<Flags, CliError> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected argument {a:?} (flags are --key value)"
                )));
            };
            if switches.contains(&key) {
                if values.insert(key.to_string(), "true".to_string()).is_some() {
                    return Err(CliError::Usage(format!("flag --{key} given twice")));
                }
                continue;
            }
            if !allowed.contains(&key) {
                return Err(CliError::Usage(format!(
                    "unknown flag --{key}; expected one of: {}",
                    allowed
                        .iter()
                        .chain(switches.iter())
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            let Some(value) = it.next() else {
                return Err(CliError::Usage(format!("flag --{key} needs a value")));
            };
            if values.insert(key.to_string(), value.clone()).is_some() {
                return Err(CliError::Usage(format!("flag --{key} given twice")));
            }
        }
        Ok(Flags { values })
    }

    /// Whether a boolean switch was given.
    pub fn is_set(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// Optional typed value.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => s
                .parse::<T>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("flag --{key}: cannot parse {s:?}"))),
        }
    }

    /// Typed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }

    /// Required typed value.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        self.require(key)?
            .parse::<T>()
            .map_err(|_| CliError::Usage(format!("flag --{key}: cannot parse {:?}", self.get(key))))
    }

    /// Comma-separated `f64` list.
    pub fn get_f64_list(&self, key: &str) -> Result<Option<Vec<f64>>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => s
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse::<f64>()
                        .map_err(|_| CliError::Usage(format!("flag --{key}: bad number {tok:?}")))
                })
                .collect::<Result<Vec<f64>, CliError>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_known_flags() {
        let f = Flags::parse(
            &argv(&["--vertices", "100", "--alpha", "2.1"]),
            &["vertices", "alpha"],
        )
        .unwrap();
        assert_eq!(f.require_parsed::<u32>("vertices").unwrap(), 100);
        assert_eq!(f.require_parsed::<f64>("alpha").unwrap(), 2.1);
        assert_eq!(f.get_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = Flags::parse(&argv(&["--bogus", "1"]), &["vertices"]).unwrap_err();
        assert!(err.message().contains("unknown flag --bogus"));
        assert!(err.message().contains("--vertices"));
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(Flags::parse(&argv(&["--a"]), &["a"])
            .unwrap_err()
            .message()
            .contains("needs a value"));
        assert!(Flags::parse(&argv(&["--a", "1", "--a", "2"]), &["a"])
            .unwrap_err()
            .message()
            .contains("twice"));
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Flags::parse(&argv(&["oops"]), &["a"])
            .unwrap_err()
            .message()
            .contains("unexpected"));
    }

    #[test]
    fn typed_errors_are_informative() {
        let f = Flags::parse(&argv(&["--n", "abc"]), &["n"]).unwrap();
        assert!(f
            .require_parsed::<u32>("n")
            .unwrap_err()
            .message()
            .contains("cannot parse"));
        assert!(f
            .require("missing")
            .unwrap_err()
            .message()
            .contains("missing required"));
    }

    #[test]
    fn switches_take_no_value() {
        let f = Flags::parse_with_switches(
            &argv(&["--compact", "--input", "g.hgb"]),
            &["input"],
            &["compact"],
        )
        .unwrap();
        assert!(f.is_set("compact"));
        assert_eq!(f.get("input"), Some("g.hgb"));
        let f = Flags::parse_with_switches(&argv(&["--input", "g.hgb"]), &["input"], &["compact"])
            .unwrap();
        assert!(!f.is_set("compact"));
        // A switch given twice is still a duplicate, and unknown-flag
        // errors list the switches too.
        assert!(
            Flags::parse_with_switches(&argv(&["--compact", "--compact"]), &[], &["compact"])
                .unwrap_err()
                .message()
                .contains("twice")
        );
        let err = Flags::parse_with_switches(&argv(&["--bogus", "1"]), &["input"], &["compact"])
            .unwrap_err();
        assert!(err.message().contains("--compact"));
    }

    #[test]
    fn f64_lists() {
        let f = Flags::parse(&argv(&["--w", "1.0, 2.5,3"]), &["w"]).unwrap();
        assert_eq!(f.get_f64_list("w").unwrap().unwrap(), vec![1.0, 2.5, 3.0]);
        assert!(f.get_f64_list("absent").unwrap().is_none());
    }
}
