//! Shared argument-parsing helpers for the IPCP command-line tools.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{ErrorKind, Write};

/// Writes `text` to stdout and flushes it. A reader that has gone away
/// (`EPIPE`, as in `experiments --list | head -1`) ends the tool with
/// status 0: the reader wanted no more output. Any other write error
/// panics, as `print!` does.
pub fn write_stdout(text: &str) {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `println!` through [`write_stdout`]: a closed stdout ends the tool
/// cleanly instead of panicking.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

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

    /// Option value parsed to `T`, or the default when the option is
    /// absent. Tools pass the error to [`Cli::fail`].
    ///
    /// # Errors
    ///
    /// Names the option and its value when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
            None => Ok(default),
        }
    }

    /// Option value as a positive count, the grammar of the `IPCP_*` count
    /// knobs, or the default when the option is absent.
    ///
    /// # Errors
    ///
    /// Names the option and its value when the value does not parse or
    /// is 0.
    pub fn get_positive(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get_or(key, default)? {
            0 => Err(format!("--{key}: expected a positive count, got 0")),
            n => Ok(n),
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
        assert_eq!(a.get_or("instructions", 0u64), Ok(1000));
        assert!(a.has_flag("verbose"));
        assert!(!a.has_flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("x");
        assert_eq!(a.get_or("n", 7u32), Ok(7));
    }

    #[test]
    fn bad_values_are_errors() {
        let a = parse("--n abc");
        assert_eq!(a.get_or("n", 0u32), Err("--n: cannot parse \"abc\"".into()));
        assert_eq!(a.get_or("combo", 1u32), Ok(1), "absent options default");
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
        assert_eq!(a.get_or("n", 0u32), Ok(3));
    }
}
