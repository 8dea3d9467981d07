//! `maintain`: an in-process `DurableRuntime` (default
//! `CheckpointPolicy`, fsync on every commit) applying a seeded stream
//! of small insert/delete batches to three maintained views, then
//! closing and reopening its directory.
//!
//! Why: it is the write-side twin of `serve`'s reads. `incremental` and
//! `wal` dominate, including the checkpoint spikes and the non-linear
//! fallback of the ε(R − S) view. The views cover the three maintenance
//! paths: a linear σ/π view, an indexed equi-join, and ε(R − S).
//!
//! The stream ends a fixed number of batches after a checkpoint, so the
//! reopen always replays the same WAL length.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::parse::parse_expr;
use balg_core::value::Value;
use balg_incremental::{CheckpointPolicy, DurableRuntime, UpdateBatch, ViewRuntime, WalRecord};

use crate::stats::{median, ms, quantile, us};
use crate::{offset_ns, timed, trace, Config, Metric, Op, Outcome, Rng, Timing};

/// One caller whose commits are durable.
const TIMING: Timing = Timing {
    wall_clock: false,
    fsync: true,
};

/// Input sizes.
#[derive(Clone, Copy, Debug)]
struct Size {
    /// Rows per base.
    rows: usize,
    /// Join keys (attribute 1) and second-attribute values.
    keys: u64,
    width: u64,
    /// Batches logged after the last checkpoint when the stream stops.
    tail: u64,
    /// `None` keeps the default checkpoint policy.
    checkpoint_every: Option<u64>,
}

const FULL: Size = Size {
    rows: 5_000,
    keys: 2_500,
    width: 8,
    tail: 64,
    checkpoint_every: None,
};

const SMOKE: Size = Size {
    rows: 500,
    keys: 250,
    width: 8,
    tail: 8,
    checkpoint_every: Some(32),
};

const BASES: [&str; 2] = ["R", "S"];

/// The maintained views: a linear σ/π view, an indexed equi-join, and
/// the non-linear ε(R − S).
pub const VIEWS: [(&str, &str); 3] = [
    (
        "lin",
        "project(select(x, lt(attr(x, 2), attr(x, 1)), R), 2, 1)",
    ),
    (
        "join",
        "project(select(x, eq(attr(x, 1), attr(x, 3)), product(R, S)), 1, 2, 4)",
    ),
    ("fresh", "dedup(minus(R, S))"),
];

/// Per base: inserts and deletes per batch (8 tuples per batch).
const CHANGES_PER_BASE: usize = 2;

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

/// The seeded base contents and, per base, a queue of rows known to be
/// present (deleted first-in first-out; inserts join the back).
struct Stream {
    rng: Rng,
    size: Size,
    present: [VecDeque<Value>; 2],
}

impl Stream {
    fn draw(rng: &mut Rng, size: Size) -> Value {
        pair(rng.int(size.keys), rng.int(size.width))
    }

    fn bases(seed: u64, size: Size) -> ([Bag; 2], Stream) {
        let mut rng = Rng::new(seed, 4);
        let rows: [Vec<Value>; 2] =
            std::array::from_fn(|_| (0..size.rows).map(|_| Self::draw(&mut rng, size)).collect());
        let bags = std::array::from_fn(|i| Bag::from_values(rows[i].iter().cloned()));
        let present = rows.map(VecDeque::from);
        (bags, Stream { rng, size, present })
    }

    fn next_batch(&mut self) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for (base, present) in BASES.iter().zip(&mut self.present) {
            for _ in 0..CHANGES_PER_BASE {
                let old = present.pop_front().expect("bases never run dry");
                batch.delete(base, old);
                let new = Self::draw(&mut self.rng, self.size);
                batch.insert(base, new.clone());
                present.push_back(new);
            }
        }
        batch
    }
}

/// Open a fresh directory and build the bases and views.
fn setup(dir: &Path, bags: &[Bag; 2], size: Size) -> Result<DurableRuntime, String> {
    let mut rt = DurableRuntime::open(dir, Limits::default()).map_err(|e| e.to_string())?;
    if let Some(every) = size.checkpoint_every {
        rt.set_checkpoint_policy(CheckpointPolicy {
            max_batches: every,
            ..CheckpointPolicy::default()
        });
    }
    for (name, bag) in BASES.iter().zip(bags) {
        rt.load_base(name, bag.clone()).map_err(|e| e.to_string())?;
    }
    for (name, text) in VIEWS {
        let expr = parse_expr(text).map_err(|e| e.to_string())?;
        rt.create_view(name, expr)
            .map_err(|e| format!("view {name}: {e}"))?;
    }
    Ok(rt)
}

/// The in-memory twin a traced run applies the same batches to.
fn twin(bags: &[Bag; 2]) -> Result<ViewRuntime, String> {
    let mut twin = ViewRuntime::with_limits(Limits::default());
    for (name, bag) in BASES.iter().zip(bags) {
        twin.load_base(name, bag.clone())
            .map_err(|e| e.to_string())?;
    }
    for (name, text) in VIEWS {
        twin.create_view(name, parse_expr(text).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
    }
    Ok(twin)
}

/// The framed WAL record a committed batch appends.
fn wal_record(batch: &UpdateBatch, lsn: u64) -> Vec<u8> {
    let deltas = batch
        .iter()
        .filter(|(_, delta)| !delta.is_empty())
        .map(|(name, delta)| (name.clone(), delta.clone()))
        .collect();
    balg_core::wal::frame(&WalRecord::Batch { lsn, deltas }.encode())
}

/// Bytes of the changed tuples in the WAL's value encoding.
fn user_bytes(batch: &UpdateBatch) -> u64 {
    let mut out = Vec::new();
    for (_, delta) in batch.iter() {
        for (value, _) in delta.iter() {
            balg_core::wal::put_value(&mut out, value);
        }
    }
    out.len() as u64
}

/// What the measured stream recorded, besides its commit latencies.
#[derive(Default)]
struct Samples {
    /// Durations of the commits that checkpointed, and of the closing
    /// checkpoint.
    checkpoints: Vec<u64>,
    wal_bytes: u64,
    plain_wal_bytes: u64,
    plain_batches: u64,
    snapshot_bytes: u64,
    user_bytes: u64,
}

/// Commit batches for `budget`, returning their latencies; when
/// `align`, then checkpoint and commit `tail` more batches, so the
/// directory closes with a WAL of the same length on every run.
fn drive(
    rt: &mut DurableRuntime,
    stream: &mut Stream,
    mut twin: Option<&mut ViewRuntime>,
    budget: Duration,
    align: bool,
    s: &mut Samples,
    out: &mut Outcome,
) -> Result<Vec<Op>, String> {
    let started = Instant::now();
    let deadline = started + budget;
    let traced = trace::enabled();
    rt.set_sync_on_commit(!traced);
    let mut commits = Vec::new();
    let mut checkpointed = false;
    loop {
        let durability = rt.durability();
        if Instant::now() >= deadline {
            if !align || durability.batches_since_checkpoint == stream.size.tail {
                break;
            }
            if !checkpointed {
                // Close after a fixed WAL tail: checkpoint now, then
                // commit `tail` more batches.
                let (done, took) = timed(|| rt.checkpoint());
                done.map_err(|e| e.to_string())?;
                s.checkpoints
                    .push(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
                s.snapshot_bytes +=
                    std::fs::metadata(rt.data_dir().join("snapshot.balg")).map_or(0, |m| m.len());
                checkpointed = true;
                continue;
            }
        }
        let batch = stream.next_batch();
        let request = trace::request_id();
        let start_ns = offset_ns(started, Instant::now());
        let (committed, took, _) = trace::span(
            "maintain.commit",
            request,
            0,
            |root| -> Result<(), String> {
                if traced {
                    let (valid, _, _) = trace::span("incremental.validate", request, root, |_| {
                        rt.runtime().validate(&batch)
                    });
                    valid.map_err(|e| e.to_string())?;
                    let lsn = durability.lsn + 1;
                    trace::span("wal.append", request, root, |_| wal_record(&batch, lsn));
                    let (applied, _, _) =
                        trace::span("maintain.log_apply", request, root, |_| rt.commit(&batch));
                    applied.map_err(|e| e.to_string())?;
                    let (synced, _, _) = trace::span("wal.fsync", request, root, |_| rt.sync_wal());
                    synced.map_err(|e| e.to_string())
                } else {
                    rt.commit(&batch).map_err(|e| e.to_string())
                }
            },
        );
        out.count(committed.is_ok());
        committed?;
        if let Some(twin) = twin.as_deref_mut() {
            let (applied, _, _) =
                trace::span("incremental.apply", request, 0, |_| twin.apply(&batch));
            applied.map_err(|e| e.to_string())?;
        }
        let ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        commits.push(Op {
            start_ns,
            ns,
            primary: true,
        });
        s.user_bytes += user_bytes(&batch);
        let after = rt.durability();
        if after.checkpoints > durability.checkpoints {
            s.checkpoints.push(ns);
            s.wal_bytes += wal_record(&batch, after.lsn).len() as u64;
            s.snapshot_bytes +=
                std::fs::metadata(rt.data_dir().join("snapshot.balg")).map_or(0, |m| m.len());
        } else {
            let appended = after.wal_bytes - durability.wal_bytes;
            s.wal_bytes += appended;
            s.plain_wal_bytes += appended;
            s.plain_batches += 1;
        }
    }
    Ok(commits)
}

/// The bases and views of a runtime, for before/after comparison.
fn state(rt: &DurableRuntime) -> Vec<Option<Bag>> {
    let db = rt.runtime().database();
    BASES
        .iter()
        .map(|name| db.get(name).cloned())
        .chain(VIEWS.iter().map(|(name, _)| rt.view(name).cloned()))
        .collect()
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let (bags, mut stream) = Stream::bases(cfg.seed, size);
    let mut out = Outcome::default();
    let ((mut rt, dir), setup_s) = crate::repeated_setup(
        TIMING,
        |rep| {
            let dir = cfg.scratch_dir(&format!("maintain{rep}"));
            Ok((setup(&dir, &bags, size)?, dir))
        },
        |(rt, dir)| {
            drop(rt);
            let _ = std::fs::remove_dir_all(dir);
        },
    )?;
    out.setup_s = setup_s;

    let mut budget = cfg.budget();
    let mut untraced_p50 = 0.0;
    let mut twin_rt = None;
    let mut s = Samples::default();
    if cfg.trace {
        budget /= 2;
        let commits = drive(&mut rt, &mut stream, None, budget, false, &mut s, &mut out)?;
        untraced_p50 = median(&commits.iter().map(|op| op.ns).collect::<Vec<_>>());
        s = Samples::default();
        // The twin starts from the runtime's current bases.
        let db = rt.runtime().database();
        let current = [0, 1].map(|i| db.get(BASES[i]).cloned().unwrap_or_default());
        twin_rt = Some(twin(&current)?);
        crate::enable_tracing();
    }
    let mark = trace::mark();
    let stats_before = rt.stats();
    let phase = crate::sliced(budget, TIMING, |share| {
        drive(
            &mut rt,
            &mut stream,
            twin_rt.as_mut(),
            share,
            false,
            &mut s,
            &mut out,
        )
    })?;
    out.phase = phase;
    // Close after a fixed WAL tail (not part of the measured phase).
    let tail = drive(
        &mut rt,
        &mut stream,
        twin_rt.as_mut(),
        Duration::ZERO,
        true,
        &mut s,
        &mut out,
    )?;
    let stats_after = rt.stats();
    rt.set_sync_on_commit(true);

    let consistent = rt.verify_all().is_ok_and(|ok| ok);
    out.count(consistent);
    if let Some(twin) = &twin_rt {
        let same = VIEWS
            .iter()
            .all(|(name, _)| twin.view(name) == rt.view(name));
        out.count(same);
    }
    let before = state(&rt);
    drop(rt);
    let (reopened, recovery) = timed(|| -> Result<(bool, u64), String> {
        let rt = DurableRuntime::open(&dir, Limits::default()).map_err(|e| e.to_string())?;
        let replayed = rt.durability().replayed_batches;
        let ok =
            replayed == size.tail && rt.verify_all().is_ok_and(|ok| ok) && state(&rt) == before;
        Ok((ok, replayed))
    });
    let (recovered, replayed) = reopened?;
    out.count(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let mut commits = out.phase.primary.clone();
    for op in &tail {
        commits.record(op.ns);
    }
    let batches = commits.len();
    out.report = vec![
        Metric::new("write_p50_ms", ms(commits.quantile(0.5)), "ms", batches),
        Metric::new("write_p99_ms", ms(commits.quantile(0.99)), "ms", batches),
        Metric::new("recovery_s", recovery.as_secs_f64(), "s", 1),
        Metric::new(
            "write_amp",
            (s.wal_bytes + s.snapshot_bytes) as f64 / s.user_bytes.max(1) as f64,
            "ratio",
            batches,
        ),
    ];

    if cfg.trace {
        let per_batch = |n: u64| n as f64 / batches.max(1) as f64;
        let (v0, v1) = (stats_before.views, stats_after.views);
        let linear = v1.linear_delta_ops - v0.linear_delta_ops;
        let fallbacks = v1.fallback_recomputes - v0.fallback_recomputes;
        let reinits = v1.full_reinits - v0.full_reinits;
        let span_quantile = |name: &str, q: f64| {
            let d = trace::durations(mark, name);
            (quantile(&d, q), d.len())
        };
        let (validate, n_validate) = span_quantile("incremental.validate", 0.5);
        let (apply50, n_apply) = span_quantile("incremental.apply", 0.5);
        let (apply99, _) = span_quantile("incremental.apply", 0.99);
        let (append, n_append) = span_quantile("wal.append", 0.5);
        let (fsync50, n_fsync) = span_quantile("wal.fsync", 0.5);
        let (fsync99, _) = span_quantile("wal.fsync", 0.99);
        out.layers.extend([
            Metric::new(
                "trace.overhead_pct",
                100.0 * (commits.quantile(0.5) / untraced_p50.max(1.0) - 1.0),
                "%",
                batches,
            ),
            Metric::new("incremental.validate_us", us(validate), "us", n_validate),
            Metric::new("incremental.apply_p50_us", us(apply50), "us", n_apply),
            Metric::new("incremental.apply_p99_us", us(apply99), "us", n_apply),
            Metric::new(
                "incremental.linear_delta_ops",
                per_batch(linear),
                "count/batch",
                batches,
            ),
            Metric::new(
                "incremental.fallback_recomputes",
                per_batch(fallbacks),
                "count/batch",
                batches,
            ),
            Metric::new(
                "incremental.indexed_join_ops",
                per_batch(v1.indexed_join_ops - v0.indexed_join_ops),
                "count/batch",
                batches,
            ),
            Metric::new(
                "incremental.scanned_join_ops",
                per_batch(v1.scanned_join_ops - v0.scanned_join_ops),
                "count/batch",
                batches,
            ),
            Metric::new(
                "incremental.full_reinits",
                per_batch(reinits),
                "count/batch",
                batches,
            ),
            Metric::new(
                "incremental.linear_share",
                linear as f64 / (linear + fallbacks + reinits).max(1) as f64,
                "ratio",
                batches,
            ),
            Metric::new("wal.append_us", us(append), "us", n_append),
            Metric::new("wal.fsync_p50_ms", ms(fsync50), "ms", n_fsync),
            Metric::new("wal.fsync_p99_ms", ms(fsync99), "ms", n_fsync),
            Metric::new(
                "wal.checkpoint_ms",
                ms(median(&s.checkpoints)),
                "ms",
                s.checkpoints.len(),
            ),
            Metric::new(
                "wal.bytes_per_batch",
                s.plain_wal_bytes as f64 / s.plain_batches.max(1) as f64,
                "bytes",
                s.plain_batches as usize,
            ),
            Metric::new(
                "wal.snapshot_bytes",
                s.snapshot_bytes as f64 / s.checkpoints.len().max(1) as f64,
                "bytes",
                s.checkpoints.len(),
            ),
            Metric::new(
                "wal.replay_us_per_batch",
                us(recovery.as_nanos() as f64) / replayed.max(1) as f64,
                "us",
                replayed as usize,
            ),
        ]);
    }
    Ok(out)
}
