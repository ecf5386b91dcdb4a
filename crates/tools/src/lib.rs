//! Shared argument-parsing helpers for the IPCP command-line tools.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// The command line one tool accepts: the long options it declares and
/// its usage text. Anything undeclared is an error, so a mistyped flag
/// stops the tool instead of being silently ignored.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Usage text printed with every command-line error.
    pub usage: &'static str,
    /// Options that take a value: `--key value`.
    pub options: &'static [&'static str],
    /// Bare `--flag`s. A flag never takes the next token as its value.
    pub flags: &'static [&'static str],
}

impl Cli {
    /// Prints `msg` and the usage to stderr and exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2)
    }
}

/// A minimal `--key value` / positional argument parser (keeps the tools
/// dependency-free).
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag`s.
    pub flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args` (skipping the program name) against `cli`;
    /// an unknown option or an option without its value exits 2 with the
    /// tool's usage ([`Cli::fail`]).
    pub fn parse(cli: &Cli) -> Self {
        Self::parse_from(cli, std::env::args().skip(1)).unwrap_or_else(|e| cli.fail(&e))
    }

    /// Parses an explicit argument list against `cli`.
    ///
    /// # Errors
    ///
    /// Names the first `--` token `cli` does not declare, or the first
    /// value option that is last or followed by another `--` token.
    pub fn parse_from(cli: &Cli, iter: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = iter.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                out.positional.push(a);
                continue;
            };
            if cli.flags.contains(&key) {
                out.flags.push(key.to_string());
            } else if cli.options.contains(&key) {
                match it.next_if(|v| !v.starts_with("--")) {
                    Some(v) => {
                        out.options.insert(key.to_string(), v);
                    }
                    None => return Err(format!("--{key} needs a value")),
                }
            } else {
                return Err(format!("unknown option --{key}"));
            }
        }
        Ok(out)
    }

    /// Option value parsed to `T`, or the default.
    ///
    /// # Panics
    ///
    /// Panics with a readable message if the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.options.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{key}: cannot parse {v:?}")),
            None => default,
        }
    }

    /// True when `--flag` was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        usage: "usage: tool <trace> [--combo C] [--instructions N] [--n N] [--verbose]",
        options: &["combo", "instructions", "n"],
        flags: &["verbose"],
    };

    fn try_parse(s: &str) -> Result<Args, String> {
        Args::parse_from(&CLI, s.split_whitespace().map(String::from))
    }

    fn parse(s: &str) -> Args {
        try_parse(s).unwrap()
    }

    #[test]
    fn positional_and_options() {
        let a = parse("trace.bin --combo ipcp --instructions 1000 --verbose");
        assert_eq!(a.positional, vec!["trace.bin"]);
        assert_eq!(a.options["combo"], "ipcp");
        assert_eq!(a.get_or("instructions", 0u64), 1000);
        assert!(a.has_flag("verbose"));
        assert!(!a.has_flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("x");
        assert_eq!(a.get_or("n", 7u32), 7);
    }

    #[test]
    #[should_panic(expected = "cannot parse")]
    fn bad_value_panics() {
        let a = parse("--n abc");
        let _: u32 = a.get_or("n", 0);
    }

    #[test]
    fn undeclared_options_are_errors() {
        assert_eq!(
            try_parse("x --combbo ipcp").unwrap_err(),
            "unknown option --combbo"
        );
        assert_eq!(try_parse("--help").unwrap_err(), "unknown option --help");
        assert_eq!(try_parse("x --").unwrap_err(), "unknown option --");
    }

    #[test]
    fn value_options_need_a_value() {
        assert_eq!(try_parse("x --n").unwrap_err(), "--n needs a value");
        assert_eq!(
            try_parse("--combo --verbose").unwrap_err(),
            "--combo needs a value"
        );
    }

    #[test]
    fn flags_never_take_the_next_token() {
        let a = parse("--verbose trace.bin --n 3");
        assert!(a.has_flag("verbose"));
        assert_eq!(a.positional, vec!["trace.bin"]);
        assert_eq!(a.get_or("n", 0u32), 3);
    }
}
