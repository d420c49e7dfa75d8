//! Shared argv parsing for the `exp*` experiment binaries.
//!
//! Every experiment accepts a positional scale (`tiny`/`small`/`medium`/
//! `large`); some take extra positionals (query counts, quality levels) that
//! are returned verbatim. No experiment takes a flag, so any `--...`
//! argument is an error rather than something to skip: skipping it would
//! read the flag's value as the next positional.

use crate::datasets::Scale;

/// Parsed common arguments of one experiment binary.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Experiment scale (first positional, defaults to [`Scale::Small`] via
    /// [`Scale::parse`]; the binaries usually document `tiny` as default by
    /// passing no argument — `Scale::parse("")` yields `Small`, so callers
    /// that want `tiny` defaults pass their own fallback).
    pub scale: Scale,
    /// Remaining positionals after the scale.
    pub rest: Vec<String>,
}

/// Parses `std::env::args()` into an [`ExpArgs`], exiting with a usage
/// message if a flag is given.
pub fn parse_exp_args() -> ExpArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_exp_argv(&argv).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Parses the experiment arguments after the program name.
pub fn parse_exp_argv(argv: &[String]) -> Result<ExpArgs, String> {
    if let Some(flag) = argv.iter().find(|a| a.starts_with("--")) {
        return Err(format!(
            "unknown flag {flag}: experiments take only positionals ([scale] ...); \
             index construction is sequential and has no --threads"
        ));
    }
    let scale = Scale::parse(argv.first().map(|s| s.as_str()).unwrap_or_default());
    let rest = argv.iter().skip(1).cloned().collect();
    Ok(ExpArgs { scale, rest })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn scale_default_is_small() {
        assert_eq!(Scale::parse(""), Scale::Small);
    }

    #[test]
    fn any_flag_is_rejected_not_skipped() {
        let args = parse_exp_argv(&argv(&["tiny", "500"])).unwrap();
        assert_eq!((args.scale, args.rest), (Scale::Tiny, vec!["500".to_string()]));
        // Skipping `--threads` would read its value `2` as `num_queries`.
        let err = parse_exp_argv(&argv(&["small", "--threads", "2"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(parse_exp_argv(&argv(&["--json"])).is_err());
    }
}
