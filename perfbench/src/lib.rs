//! The repository benchmark: three workloads that together cross every
//! layer of the workspace, each reporting the same end-to-end metrics
//! and, in a separate traced run, per-layer metrics.
//!
//! * [`serve`] — a durable `SqlServer` under a closed loop of client
//!   connections (the only workload crossing `server` and `sql`);
//! * [`analytic`] — one in-process caller running BALG text through
//!   parse → analyze → evaluate over 100k-row bases (`core` kernels,
//!   `par`/`pool`, `index`);
//! * [`maintain`] — an in-process `DurableRuntime` applying a stream of
//!   small batches to three maintained views, then reopening
//!   (`incremental` and `wal`).
//!
//! See `README.md` beside this crate for the metric table.

pub mod analytic;
pub mod calibrate;
pub mod maintain;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where every workload keeps its data directories and trace files:
/// relative to the working directory, so a run touches only its
/// checkout.
pub const WORK_DIR: &str = ".bench_work";

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct Config {
    /// Input seed: the same seed builds the same inputs.
    pub seed: u64,
    /// Measurement time budget.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Full-size inputs, or the tiny inputs of the smoke tests.
    pub smoke: bool,
    /// Load threads / partition count (the host's core count).
    pub threads: usize,
}

impl Config {
    /// The measurement budget as a [`Duration`].
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A fresh (emptied) directory under [`WORK_DIR`] for this run.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        let dir = Path::new(WORK_DIR).join(format!("{tag}-{}-{}", self.seed, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    /// Build a metric row.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// One timed operation of a measured slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Start, nanoseconds after the slice began.
    pub start_ns: u64,
    /// Latency, nanoseconds.
    pub ns: u64,
    /// The workload's primary operation (a serve read, an analytic round
    /// of every query class, a maintain commit) — the one `op_p50_ms`
    /// describes.
    pub primary: bool,
}

/// Time slices of the measured phase. The gated latency and throughput
/// are medians of their per-slice values, so a noise burst from a
/// neighbour on a shared host moves at most one slice.
pub const SLICES: u32 = 20;

/// How a workload's measured phase is summarised and scaled.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Throughput over wall-clock time — first start to last end in a
    /// slice (concurrent clients) — instead of over the single caller's
    /// busy time.
    pub wall_clock: bool,
    /// The workload makes data durable: its host speed includes the
    /// durable-append kernel (see [`calibrate::speed`]).
    pub fsync: bool,
}

/// One time slice of the measured phase, summarised when it ends (its
/// operations are not kept).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Slice {
    /// Operations completed in the slice.
    pub ops: usize,
    /// Primary operations among them.
    pub primary: usize,
    /// Median latency of the primary operations, nanoseconds.
    pub p50_ns: f64,
    /// Operations per second, over wall-clock or busy time.
    pub rate: f64,
    /// Host speed around the slice (see [`calibrate`]).
    pub speed: f64,
}

impl Slice {
    /// Summarise the operations of one slice.
    pub fn of(ops: &[Op], timing: Timing, speed: f64) -> Slice {
        let primary: Vec<u64> = ops.iter().filter(|op| op.primary).map(|op| op.ns).collect();
        let ns = if timing.wall_clock {
            let first = ops.iter().map(|op| op.start_ns).min().unwrap_or(0);
            let last = ops.iter().map(|op| op.start_ns + op.ns).max().unwrap_or(0);
            (last - first) as f64
        } else {
            ops.iter().map(|op| op.ns as f64).sum::<f64>()
        };
        Slice {
            ops: ops.len(),
            primary: primary.len(),
            p50_ns: stats::median(&primary),
            rate: ops.len() as f64 / (ns.max(1.0) / 1e9),
            speed,
        }
    }
}

/// The measured phase: its slices, and the latencies of all its
/// operations in fixed-size histograms.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Slice summaries, in order.
    pub slices: Vec<Slice>,
    /// Latencies of the primary operations.
    pub primary: stats::Histogram,
    /// Latencies of the other operations.
    pub other: stats::Histogram,
}

/// Run the measured phase as [`SLICES`] calls of `slice`, each given an
/// equal share of `budget`, measuring the host speed
/// ([`calibrate::speed`]) before the first and after every slice; a
/// slice's speed is the mean of the two measurements around it. Each
/// slice's operations are summarised and dropped as soon as it ends,
/// so the memory the samples take does not grow with the run.
pub fn sliced(
    budget: Duration,
    timing: Timing,
    mut slice: impl FnMut(Duration) -> Result<Vec<Op>, String>,
) -> Result<Phase, String> {
    let share = budget / SLICES;
    let mut before = calibrate::speed(timing.fsync)?;
    let mut phase = Phase::default();
    for _ in 0..SLICES {
        let ops = slice(share)?;
        let after = calibrate::speed(timing.fsync)?;
        phase
            .slices
            .push(Slice::of(&ops, timing, (before + after) / 2.0));
        for op in &ops {
            let histogram = if op.primary {
                &mut phase.primary
            } else {
                &mut phase.other
            };
            histogram.record(op.ns);
        }
        before = after;
    }
    Ok(phase)
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (plus final checks).
    pub attempted: u64,
    /// Operations whose reply was an error or a wrong answer.
    pub failed: u64,
    /// Median over [`SETUP_REPS`] set-ups of the set-up time scaled to
    /// reference speed, seconds.
    pub setup_s: f64,
    /// The measured phase.
    pub phase: Phase,
    /// The workload-specific metrics of the report lines (not gated).
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Count one operation; `ok == false` marks it failed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The `error_ratio` report metric.
    pub fn error_ratio(&self) -> Metric {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        Metric::new("error_ratio", ratio, "ratio", self.attempted as usize)
    }

    /// Median host speed over the slices.
    pub fn speed(&self) -> f64 {
        stats::median_f64(
            &self
                .phase
                .slices
                .iter()
                .map(|s| s.speed)
                .collect::<Vec<_>>(),
        )
    }

    /// The end-to-end metrics of `BENCHMARK.json`, in its order. Times
    /// are scaled to reference speed slice by slice (a slice measured
    /// at half speed counts its latencies half and its rate double).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let measured: Vec<&Slice> = self.phase.slices.iter().filter(|s| s.primary > 0).collect();
        let p50: Vec<f64> = measured.iter().map(|s| s.p50_ns * s.speed).collect();
        let rate: Vec<f64> = measured.iter().map(|s| s.rate / s.speed).collect();
        let count = |f: fn(&Slice) -> usize| self.phase.slices.iter().map(f).sum::<usize>();
        vec![
            Metric::new("setup_s", self.setup_s, "s", SETUP_REPS),
            Metric::new(
                "throughput_ops",
                stats::median_f64(&rate),
                "1/s",
                count(|s| s.ops),
            ),
            Metric::new(
                "op_p50_ms",
                stats::ms(stats::median_f64(&p50)),
                "ms",
                count(|s| s.primary),
            ),
            Metric::new(
                "peak_rss_mb",
                peak_rss_mb() - calibrate::buffer_mib(),
                "MiB",
                1,
            ),
        ]
    }
}

/// Run `setup` [`SETUP_REPS`] times, passing each result but the last
/// to `teardown` (untimed) before the next; returns the last with the
/// median set-up time scaled to reference speed, each repetition by the
/// host speed measured right after it.
pub fn repeated_setup<T>(
    timing: Timing,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let (built, took) = timed(|| setup(rep));
        last = Some(built?);
        times.push(took.as_secs_f64() * calibrate::speed(timing.fsync)?);
    }
    let built = last.expect("SETUP_REPS > 0");
    Ok((built, stats::median_f64(&times)))
}

/// Nanoseconds from `since` to `at`.
pub fn offset_ns(since: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(since).as_nanos()).unwrap_or(u64::MAX)
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["serve", "analytic", "maintain"];

/// Run one workload at the configured size.
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    calibrate::init(Path::new(WORK_DIR)).map_err(|e| format!("calibration set-up: {e}"))?;
    match workload {
        "serve" => serve::run(cfg),
        "analytic" => analytic::run(cfg),
        "maintain" => maintain::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Counters of the program's metrics registry read by traced runs.
const REGISTRY_COUNTERS: [&str; 7] = [
    "balg_server_busy_rejections_total",
    "balg_par_partitions_total",
    "balg_par_serial_fallbacks_total",
    "balg_index_cache_hits_total",
    "balg_index_cache_misses_total",
    "balg_index_cache_builds_total",
    "balg_index_cache_evictions_total",
];

/// Histograms of the program's metrics registry read by traced runs.
const REGISTRY_HISTOGRAMS: [&str; 2] = [
    "balg_server_read_duration_ns",
    "balg_server_write_duration_ns",
];

/// Registry readings by instrument name: a counter as one cell, a
/// histogram as its bucket counts. Empty while no registry is installed.
pub type RegistrySnapshot = BTreeMap<&'static str, Vec<u64>>;

/// Start a traced phase: record spans and install the program's own
/// metrics registry (process-wide, for the rest of the run).
pub fn enable_tracing() {
    trace::enable();
    if balg_obs::global().is_none() {
        balg_obs::install_global(balg_obs::MetricsRegistry::new());
    }
}

/// Read every registry instrument a traced run reports.
pub fn registry_snapshot() -> RegistrySnapshot {
    let Some(registry) = balg_obs::global() else {
        return RegistrySnapshot::new();
    };
    let mut out = RegistrySnapshot::new();
    for name in REGISTRY_COUNTERS {
        out.insert(name, vec![registry.counter(name, "").get()]);
    }
    for name in REGISTRY_HISTOGRAMS {
        out.insert(name, registry.histogram(name, "").buckets().to_vec());
    }
    out
}

/// Cell-wise growth of instrument `name` between two snapshots.
pub fn registry_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> Vec<u64> {
    let empty = Vec::new();
    let old = before.get(name).unwrap_or(&empty);
    after.get(name).map_or_else(
        || vec![0],
        |cells| {
            cells
                .iter()
                .enumerate()
                .map(|(i, v)| v - old.get(i).copied().unwrap_or(0))
                .collect()
        },
    )
}

/// Every per-layer metric a traced run reports, in report order.
pub const PER_LAYER: &[&str] = &[
    "trace.overhead_pct",
    "server.read_service_p50_us",
    "server.write_service_p50_us",
    "server.write_service_p99_us",
    "server.transport_p50_us",
    "server.frame_roundtrip_us",
    "server.publish_us",
    "server.busy_rejections",
    "sql.parse_us",
    "sql.compile_us",
    "sql.decode_us",
    "sql.render_us",
    "sql.rows_per_read",
    "sql.execute_write_us",
    "core.eval_us",
    "core.parse_us",
    "core.analyze_us",
    "core.eval_ms.unionp",
    "core.eval_ms.minus",
    "core.eval_ms.intersect",
    "core.eval_ms.union",
    "core.eval_ms.dedup_project",
    "core.eval_ms.join",
    "core.eval_ms.nest",
    "core.eval_ms.powerbag",
    "core.eval_ms.ifp",
    "core.steps.unionp",
    "core.steps.minus",
    "core.steps.intersect",
    "core.steps.union",
    "core.steps.dedup_project",
    "core.steps.join",
    "core.steps.nest",
    "core.steps.powerbag",
    "core.steps.ifp",
    "core.par.partitions",
    "core.par.serial_fallbacks",
    "core.par.speedup",
    "core.index.hit_ratio",
    "core.index.builds",
    "core.index.evictions",
    "incremental.validate_us",
    "incremental.apply_p50_us",
    "incremental.apply_p99_us",
    "incremental.linear_delta_ops",
    "incremental.fallback_recomputes",
    "incremental.indexed_join_ops",
    "incremental.scanned_join_ops",
    "incremental.full_reinits",
    "incremental.linear_share",
    "wal.append_us",
    "wal.fsync_p50_ms",
    "wal.fsync_p99_ms",
    "wal.checkpoint_ms",
    "wal.bytes_per_batch",
    "wal.snapshot_bytes",
    "wal.replay_us_per_batch",
];

/// Measurement budget of the smoke-size runs a traced run makes for the
/// layers its workload does not own.
const OWNER_SMOKE_SECONDS: f64 = 1.0;

/// Run `workload` and return its outcome with the metrics the result
/// line carries: the end-to-end metrics, or — traced — every entry of
/// [`PER_LAYER`], the layers another workload owns measured by running
/// that workload at smoke size.
pub fn measure(workload: &str, cfg: &Config) -> Result<(Outcome, Vec<Metric>), String> {
    let mut outcome = run(workload, cfg)?;
    if !cfg.trace {
        let metrics = outcome.end_to_end();
        return Ok((outcome, metrics));
    }
    // Each workload reports the layers it owns plus its own tracing
    // overhead; the other owners run at smoke size for the rest.
    let mut layers = std::mem::take(&mut outcome.layers);
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let smoke = Config {
            smoke: true,
            seconds: OWNER_SMOKE_SECONDS.min(cfg.seconds),
            ..cfg.clone()
        };
        let extra = run(other, &smoke)?;
        outcome.attempted += extra.attempted;
        outcome.failed += extra.failed;
        layers.extend(
            extra
                .layers
                .into_iter()
                .filter(|m| !m.name.starts_with("trace.")),
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|name| {
            layers
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .ok_or(format!("per-layer metric {name} was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((outcome, metrics))
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A tiny deterministic generator (SplitMix64): inputs depend on the
/// seed alone, never on the host.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `0..n` as an `i64`.
    pub fn int(&mut self, n: u64) -> i64 {
        i64::try_from(self.below(n)).expect("bounded below i64::MAX")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(op_ns: u64, speed: f64) -> Slice {
        let ops: Vec<Op> = (0..5)
            .map(|i| Op {
                start_ns: i * op_ns,
                ns: op_ns,
                primary: true,
            })
            .collect();
        let timing = Timing {
            wall_clock: false,
            fsync: false,
        };
        Slice::of(&ops, timing, speed)
    }

    #[test]
    fn slices_are_scaled_to_reference_speed() {
        // The same work on a host at half, full and double speed.
        let outcome = Outcome {
            phase: Phase {
                slices: vec![
                    slice(2_000_000, 0.5),
                    slice(1_000_000, 1.0),
                    slice(500_000, 2.0),
                ],
                ..Phase::default()
            },
            ..Outcome::default()
        };
        let metrics = outcome.end_to_end();
        let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(value("op_p50_ms"), Some(1.0));
        assert_eq!(value("throughput_ops"), Some(1000.0));
        assert_eq!(outcome.speed(), 1.0);
    }
}
