//! Command-line entry point:
//!
//! ```text
//! balg-perfbench --workload serve|analytic|maintain --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report (host facts and every metric with its
//! unit and sample count) and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics when untraced, the per-layer metrics when traced.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use balg_perfbench::{measure, trace, Config, Metric, Outcome, WORKLOADS, WORK_DIR};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, or `unknown`. Git may
/// not look above the working directory, so a checkout that is not a
/// repository reports `unknown` rather than an enclosing one's revision.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut command = std::process::Command::new(program);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding the work directory (fsync cost
/// depends on it).
fn work_dir_fs() -> String {
    let Ok(dir) = std::fs::canonicalize(WORK_DIR) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn json_number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("non-finite metric value {value}"))
    }
}

fn execute(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    balg_core::pool::set_default_parallelism(threads);
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
        threads,
    };
    let measured = measure(&args.workload, &cfg)?;
    println!(
        "# host nproc={threads} threads={threads} rev={} rustc=\"{}\" seed={} work_dir_fs={} workload={} trace={}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
        args.seed,
        work_dir_fs(),
        args.workload,
        u8::from(args.trace),
    );
    if args.trace {
        let traces = Path::new(WORK_DIR).join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
        let path = traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    Ok(measured)
}

/// How long a run of `seconds` may take: a run that has not finished
/// by then has hung (a server that stopped replying, say), and fails
/// instead of blocking its caller forever. Set-up, calibration and the
/// traced extras take well under a minute beyond the budget.
fn watchdog(seconds: f64) -> Duration {
    Duration::from_secs_f64((3.0 * seconds + 60.0).max(170.0))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("balg-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let limit = watchdog(args.seconds);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("balg-perfbench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });
    let executed = execute(&args);
    balg_perfbench::calibrate::finish();
    let (outcome, metrics) = match executed {
        Ok(done) => done,
        Err(e) => {
            eprintln!("balg-perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut report = outcome.report.clone();
    report.push(outcome.error_ratio());
    report.push(Metric::new(
        "host_speed",
        outcome.speed(),
        "ratio",
        outcome.phase.slices.len(),
    ));
    for m in report.iter().chain(&metrics) {
        println!(
            "# {:<34} {:>14.6} {:<12} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let mut fields = Vec::new();
    for m in &metrics {
        match json_number(m.value) {
            Ok(v) => fields.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )),
            Err(e) => {
                eprintln!("balg-perfbench: {}: {e}", m.name);
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
