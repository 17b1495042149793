//! Output formatting shared by the harness binaries.

/// Formats bytes as a percentage of `dense` bytes (the paper's convention).
pub fn pct(bytes: usize, dense: usize) -> String {
    format!("{:.2}%", 100.0 * bytes as f64 / dense.max(1) as f64)
}

/// Formats seconds-per-iteration like the paper's tables (seconds, two or
/// three significant decimals).
pub fn time_s(secs: f64) -> String {
    if secs >= 0.1 {
        format!("{secs:.2}")
    } else if secs >= 0.001 {
        format!("{secs:.3}")
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

/// The flags every table/figure harness takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessArgs {
    /// Row-count scale factor (`--scale`, default 1.0 = each dataset's
    /// default laptop rows); finite and positive.
    pub scale: f64,
    /// Iterations of the Eq. (4) workload (`--iters`, default 50; the
    /// paper uses 500); at least 1.
    pub iters: usize,
    /// Row blocks, one thread each (`--threads`, default 8); at least 1.
    pub threads: usize,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: 1.0,
            iters: 50,
            threads: 8,
        }
    }
}

/// Parses `--scale S`, `--iters N` and `--threads T` from `args` (the
/// program name excluded). A harness ignores the flags it has no use
/// for, so every one accepts all three.
///
/// # Errors
/// Names the offending flag for an unknown argument, a missing or
/// unparsable value, a zero `--iters` or `--threads`, or a `--scale`
/// that is not finite and positive.
pub fn parse_harness_args(args: &[String]) -> Result<HarnessArgs, String> {
    let mut parsed = HarnessArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !matches!(flag.as_str(), "--scale" | "--iters" | "--threads") {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let invalid = |what: &str| format!("{flag} must be {what}, got `{value}`");
        match flag.as_str() {
            "--scale" => {
                parsed.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| invalid("a finite number above 0"))?;
            }
            _ => {
                let n = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| invalid("a whole number above 0"))?;
                if flag == "--iters" {
                    parsed.iters = n;
                } else {
                    parsed.threads = n;
                }
            }
        }
    }
    Ok(parsed)
}

/// [`parse_harness_args`] over the process arguments. On an error,
/// prints it with the usage line and exits with status 2.
pub fn harness_args() -> HarnessArgs {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    parse_harness_args(&args).unwrap_or_else(|msg| {
        let name = std::path::Path::new(&program)
            .file_name()
            .map_or_else(|| program.clone(), |n| n.to_string_lossy().into_owned());
        eprintln!("error: {msg}");
        eprintln!("usage: {name} [--scale S] [--iters N] [--threads T]");
        std::process::exit(2);
    })
}

/// Scaled row count for a dataset.
pub fn scaled_rows(default_rows: usize, scale: f64) -> usize {
    ((default_rows as f64 * scale) as usize).max(200)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(50, 100), "50.00%");
        assert_eq!(pct(1, 0), "100.00%"); // degenerate dense=0 guarded
    }

    #[test]
    fn time_formats() {
        assert_eq!(time_s(1.234), "1.23");
        assert_eq!(time_s(0.01234), "0.012");
        assert_eq!(time_s(0.0000123), "12.3us");
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_harness_args(&args)
    }

    #[test]
    fn harness_args_parse_every_flag_and_default_the_rest() {
        assert_eq!(parse(&[]), Ok(HarnessArgs::default()));
        assert_eq!(
            parse(&["--scale", "0.001", "--iters", "2", "--threads", "4"]),
            Ok(HarnessArgs {
                scale: 0.001,
                iters: 2,
                threads: 4
            })
        );
        assert_eq!(
            parse(&["--threads", "3"]),
            Ok(HarnessArgs {
                threads: 3,
                ..HarnessArgs::default()
            })
        );
    }

    #[test]
    fn harness_args_reject_bad_values_by_flag() {
        for (args, flag) in [
            (&["--threads", "0"][..], "--threads"),
            (&["--iters", "0"], "--iters"),
            (&["--iters", "nope"], "--iters"),
            (&["--iters", "-3"], "--iters"),
            (&["--threads", "2.5"], "--threads"),
            (&["--scale", "abc"], "--scale"),
            (&["--scale", "0"], "--scale"),
            (&["--scale", "-1"], "--scale"),
            (&["--scale", "inf"], "--scale"),
            (&["--scale", "NaN"], "--scale"),
            (&["--iters"], "--iters"),
            (&["--iter", "2"], "--iter"),
        ] {
            let err = parse(args).expect_err(flag);
            assert!(err.contains(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn scaled_rows_floor() {
        assert_eq!(scaled_rows(40_000, 0.001), 200);
        assert_eq!(scaled_rows(40_000, 0.5), 20_000);
    }
}
