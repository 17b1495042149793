//! **loadgen** — end-to-end load generator for the `gcm serve` TCP
//! front-end, measuring the batching win where it matters: over the
//! wire, not in criterion.
//!
//! Opens `--connections` persistent connections, drives single-vector
//! multiply requests (closed-loop by default, paced when `--rps` is
//! set), and reports client-side p50/p99/p999 latency plus the
//! server-reported **mean achieved batch width** scraped from the
//! `stats` verb — the number that shows concurrent k=1 requests
//! actually coalescing into panel kernel calls.
//!
//! Usage: `cargo run --release -p gcm-bench --bin loadgen --
//!         --addr HOST:PORT [--model NAME] [--connections C]
//!         [--rps R] [--duration S] [--left] [--allow-overload]`
//!
//! A bad command line (an unparsable or zero `--connections`, `--rps` or
//! `--duration`, an unknown flag, no `--addr`) exits 2 with the usage
//! line and the flag's name. Exits non-zero on any transport error or
//! non-OK response (`--allow-overload` downgrades `overloaded` sheds to
//! a counted, accepted outcome — the flag for deliberate overload runs).

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcm_serve::protocol::{status, Client, Direction};

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--model NAME] [--connections C] \
                     [--rps R] [--duration S] [--left] [--allow-overload]";

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct LoadgenArgs {
    addr: String,
    model: String,
    /// Persistent connections, one thread each (default 64).
    connections: usize,
    /// Total requests per second across connections; `None` = closed
    /// loop (the default).
    rps: Option<f64>,
    /// Seconds to drive load (default 5).
    duration_s: f64,
    left: bool,
    allow_overload: bool,
}

/// Parses the loadgen flags from `args` (the program name excluded).
///
/// # Errors
/// Names the offending flag for an unknown argument, a missing
/// `--addr`, a missing or unparsable value, a zero `--connections`, or
/// an `--rps` or `--duration` that is not finite and positive.
fn parse_args(args: &[String]) -> Result<LoadgenArgs, String> {
    let mut addr = None;
    let mut parsed = LoadgenArgs {
        addr: String::new(),
        model: "m".to_string(),
        connections: 64,
        rps: None,
        duration_s: 5.0,
        left: false,
        allow_overload: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--left" => parsed.left = true,
            "--allow-overload" => parsed.allow_overload = true,
            "--addr" | "--model" | "--connections" | "--rps" | "--duration" => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let invalid = |what: &str| format!("{flag} must be {what}, got `{value}`");
                let positive = || {
                    value
                        .parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v > 0.0)
                        .ok_or_else(|| invalid("a finite number above 0"))
                };
                match flag.as_str() {
                    "--addr" => addr = Some(value.clone()),
                    "--model" => parsed.model = value.clone(),
                    "--connections" => {
                        parsed.connections = value
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n > 0)
                            .ok_or_else(|| invalid("a whole number above 0"))?;
                    }
                    "--rps" => parsed.rps = Some(positive()?),
                    _ => parsed.duration_s = positive()?,
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    parsed.addr = addr.ok_or("--addr is required")?;
    Ok(parsed)
}

/// One connection's tallies.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    by_status: [u64; 5],
    io_errors: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn drive_connection(
    addr: &str,
    model: &str,
    direction: Direction,
    dim: usize,
    deadline: Instant,
    pace: Option<Duration>,
    sent_total: &AtomicU64,
) -> Result<Tally, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let x: Vec<f64> = (0..dim).map(|i| ((i % 7) as f64) * 0.25 - 0.5).collect();
    let mut tally = Tally::default();
    let mut next_send = Instant::now();
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if let Some(period) = pace {
            if now < next_send {
                std::thread::sleep(next_send - now);
            }
            next_send += period;
        }
        let t = Instant::now();
        match client.multiply_status(model, direction, 1, &x) {
            Ok(s) => {
                tally.latencies_us.push(t.elapsed().as_micros() as u64);
                tally.by_status[(s as usize).min(4)] += 1;
            }
            Err(_) => {
                tally.io_errors += 1;
                break;
            }
        }
        sent_total.fetch_add(1, Ordering::Relaxed);
    }
    Ok(tally)
}

/// Pulls `mean_width=X` for `model` out of the server's stats text.
fn scrape_mean_width(stats: &str, model: &str) -> Option<f64> {
    stats
        .lines()
        .find(|l| l.starts_with(&format!("model={model} requests=")))
        .and_then(|l| l.split("mean_width=").nth(1))
        .and_then(|v| v.trim().parse().ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let LoadgenArgs {
        addr,
        model,
        connections,
        rps,
        duration_s,
        left,
        allow_overload,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let direction = if left {
        Direction::Left
    } else {
        Direction::Right
    };

    // One control connection: resolve the input dimension up front.
    let (rows, cols) = match Client::connect(addr.as_str()).and_then(|mut c| {
        c.info(&model)
            .map_err(|e| std::io::Error::other(e.to_string()))
    }) {
        Ok(dims) => dims,
        Err(e) => {
            eprintln!("loadgen: info({model}) via {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dim = if left { rows } else { cols };
    // Total --rps split evenly across connections; none = closed loop.
    let pace = rps.map(|rps| Duration::from_secs_f64(connections as f64 / rps));

    println!(
        "loadgen: {addr} model={model} ({rows}x{cols}) direction={} connections={connections} \
         rps={} duration={duration_s}s",
        direction.name(),
        rps.map_or_else(|| "closed-loop".to_string(), |rps| format!("{rps}")),
    );

    let sent_total = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(duration_s);
    let workers: Vec<_> = (0..connections)
        .map(|_| {
            let (addr, model) = (addr.clone(), model.clone());
            let sent_total = Arc::clone(&sent_total);
            std::thread::spawn(move || {
                drive_connection(&addr, &model, direction, dim, deadline, pace, &sent_total)
            })
        })
        .collect();

    let mut merged = Tally::default();
    let mut connect_failures = 0u64;
    for w in workers {
        match w.join().expect("worker panicked") {
            Ok(t) => {
                merged.latencies_us.extend(t.latencies_us);
                for (a, b) in merged.by_status.iter_mut().zip(t.by_status) {
                    *a += b;
                }
                merged.io_errors += t.io_errors;
            }
            Err(e) => {
                eprintln!("loadgen: {e}");
                connect_failures += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    merged.latencies_us.sort_unstable();
    let total: u64 = merged.by_status.iter().sum();
    let ok = merged.by_status[status::OK as usize];
    let overloaded = merged.by_status[status::OVERLOADED as usize];
    let hard_errors = total - ok - overloaded;
    println!(
        "requests={total} ok={ok} overloaded={overloaded} errors={hard_errors} \
         io_errors={} connect_failures={connect_failures}",
        merged.io_errors
    );
    println!(
        "throughput={:.0} req/s over {elapsed:.2}s",
        total as f64 / elapsed.max(1e-9)
    );
    println!(
        "latency_us p50={} p99={} p999={} max={}",
        percentile(&merged.latencies_us, 0.50),
        percentile(&merged.latencies_us, 0.99),
        percentile(&merged.latencies_us, 0.999),
        merged.latencies_us.last().copied().unwrap_or(0),
    );

    // The server-side view: did concurrent k=1 requests coalesce?
    match Client::connect(addr.as_str()).and_then(|mut c| {
        c.stats(&model)
            .map_err(|e| std::io::Error::other(e.to_string()))
    }) {
        Ok(text) => match scrape_mean_width(&text, &model) {
            Some(width) => println!("server mean_width={width:.2}"),
            None => println!("server stats held no width for {model}:\n{text}"),
        },
        Err(e) => {
            eprintln!("loadgen: stats fetch failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let shed_fails = overloaded > 0 && !allow_overload;
    if ok == 0 || hard_errors > 0 || merged.io_errors > 0 || connect_failures > 0 || shed_fails {
        eprintln!("loadgen: FAILED (ok={ok} errors={hard_errors} overloaded={overloaded} allowed={allow_overload})");
        return ExitCode::FAILURE;
    }
    println!("loadgen: PASS");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<LoadgenArgs, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_with_defaults() {
        let a = parse(&["--addr", "127.0.0.1:7171"]).unwrap();
        assert_eq!(
            a,
            LoadgenArgs {
                addr: "127.0.0.1:7171".into(),
                model: "m".into(),
                connections: 64,
                rps: None,
                duration_s: 5.0,
                left: false,
                allow_overload: false,
            }
        );
        let a = parse(&[
            "--addr",
            "h:1",
            "--model",
            "census",
            "--connections",
            "2",
            "--rps",
            "500",
            "--duration",
            "0.2",
            "--left",
            "--allow-overload",
        ])
        .unwrap();
        assert_eq!((a.model.as_str(), a.connections), ("census", 2));
        assert_eq!((a.rps, a.duration_s), (Some(500.0), 0.2));
        assert!(a.left && a.allow_overload);
    }

    #[test]
    fn bad_values_name_their_flag_instead_of_defaulting() {
        for (args, flag) in [
            (
                &["--addr", "h:1", "--connections", "0"][..],
                "--connections",
            ),
            (&["--addr", "h:1", "--connections", "many"], "--connections"),
            (&["--addr", "h:1", "--connections", "-3"], "--connections"),
            (&["--addr", "h:1", "--rps", "0"], "--rps"),
            (&["--addr", "h:1", "--rps", "fast"], "--rps"),
            (&["--addr", "h:1", "--rps", "inf"], "--rps"),
            (&["--addr", "h:1", "--duration", "0"], "--duration"),
            (&["--addr", "h:1", "--duration", "-1"], "--duration"),
            (&["--addr", "h:1", "--duration", "NaN"], "--duration"),
            (&["--addr", "h:1", "--duration"], "--duration"),
            (&["--model", "m"], "--addr"),
            (&["--addr", "h:1", "--conections", "2"], "--conections"),
        ] {
            let err = parse(args).expect_err(flag);
            assert!(err.contains(flag), "{args:?}: {err}");
        }
    }
}
