//! Host speed, from fixed reference kernels timed between the slices
//! of a measured phase.
//!
//! On a shared host the same instructions can run markedly slower from
//! one minute to the next (neighbours on the same cores, caches, memory
//! bus and disk). The end-to-end times are scaled by the speed the
//! reference kernels show next to each slice, so they describe the
//! program at a fixed reference speed rather than the neighbours of
//! the moment. The kernels are the benchmark's own code, so a change to
//! the program never moves them.
//!
//! Four kernels cover the kinds of work the program does: a sort of
//! machine words with an ordered-map build and probe over them
//! (branchy, cache-resident), a sort and two-pointer merge of small
//! heap-allocated tuples (allocation and pointer chasing, like the bag
//! kernels), a strided read of a buffer far larger than the caches
//! (memory bandwidth) and a small append made durable with
//! `fdatasync` in the work directory (like a WAL commit). The speed is
//! the geometric mean of reference time ÷ measured time over the
//! kernels that match a workload's work — the three CPU and memory
//! kernels, plus the durable append for a workload that makes data
//! durable — each time the median of a few runs on the calling thread.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median_f64;
use crate::Rng;

/// Words in the streamed buffer (32 MiB).
const STREAM_WORDS: usize = 4 << 20;

/// Kernel times (median, nanoseconds) on the reference host: sort,
/// tuple merge, stream, durable append. A speed of 1.0 means the
/// kernels took this long. (Medians over minutes on a 2-vCPU Xeon VM
/// with ext4.)
const REFERENCE_NS: [f64; 4] = [2_000_000.0, 5_000_000.0, 3_700_000.0, 100_000.0];

/// The streamed buffer and the file the durable appends go to, made
/// once per process by [`init`].
struct Kernels {
    buffer: Vec<u64>,
    log: File,
    log_path: PathBuf,
}

static KERNELS: OnceLock<Kernels> = OnceLock::new();

/// Allocate and touch the streamed buffer, and create the append file
/// under `dir`. Call before the first set-up: the buffer then adds a
/// constant [`buffer_mib`] to the peak RSS for the whole run.
pub fn init(dir: &Path) -> std::io::Result<()> {
    if KERNELS.get().is_none() {
        let log_path = dir.join(format!("calibrate-{}.log", std::process::id()));
        let log = File::create(&log_path)?;
        let buffer = (0..STREAM_WORDS as u64).collect();
        let _ = KERNELS.set(Kernels {
            buffer,
            log,
            log_path,
        });
    }
    Ok(())
}

/// Remove the append file (the buffer lives until the process ends).
pub fn finish() {
    if let Some(kernels) = KERNELS.get() {
        let _ = std::fs::remove_file(&kernels.log_path);
    }
}

/// Resident size of the streamed buffer, MiB.
pub fn buffer_mib() -> f64 {
    (STREAM_WORDS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
}

fn sort_words(seed: u64) -> u64 {
    let mut rng = Rng::new(seed, 0xCA1);
    let mut words: Vec<u64> = (0..16_384).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, word) in words.iter().enumerate().step_by(4) {
        map.insert(*word >> 32, vec![i as u64; 3]);
    }
    let mut sum = 0u64;
    for word in words.iter().step_by(2) {
        if let Some((_, row)) = map.range(..=(*word >> 32)).next_back() {
            sum = sum.wrapping_add(row[0]);
        }
    }
    sum
}

fn merge_tuples(seed: u64) -> usize {
    let mut rng = Rng::new(seed, 0xCA2);
    let mut tuple = || vec![rng.below(1000), rng.below(1000)];
    let mut left: Vec<Vec<u64>> = (0..8_192).map(|_| tuple()).collect();
    let mut right: Vec<Vec<u64>> = (0..8_192).map(|_| tuple()).collect();
    left.sort();
    right.sort();
    let (mut i, mut j) = (0, 0);
    let mut merged = Vec::with_capacity(left.len() + right.len());
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            merged.push(left[i].clone());
            i += 1;
        } else {
            merged.push(right[j].clone());
            j += 1;
        }
    }
    merged.len()
}

fn stream(kernels: &Kernels) -> u64 {
    kernels.buffer.iter().step_by(8).sum()
}

fn durable_append(kernels: &Kernels) -> std::io::Result<()> {
    (&kernels.log).write_all(&[0xA5; 64])?;
    kernels.log.sync_data()
}

/// Median time (ns) of `reps` runs of `kernel`.
fn median_ns<T>(reps: u64, mut kernel: impl FnMut(u64) -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|rep| {
            let start = Instant::now();
            std::hint::black_box(kernel(rep));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median_f64(&times).max(1.0)
}

/// Host speed now: the geometric mean of reference time ÷ measured
/// time over the CPU and memory kernels, and the durable append too
/// when `fsync`. Above 1.0 the host is faster than the reference.
/// Takes about 50 ms.
pub fn speed(fsync: bool) -> Result<f64, String> {
    let kernels = KERNELS.get().ok_or("calibrate::init was not called")?;
    let mut measured = vec![
        median_ns(5, sort_words),
        median_ns(5, merge_tuples),
        median_ns(3, |_| stream(kernels)),
    ];
    if fsync {
        let mut failed = None;
        measured.push(median_ns(8, |_| {
            if let Err(e) = durable_append(kernels) {
                failed = Some(e);
            }
        }));
        if let Some(e) = failed {
            return Err(format!("calibration append: {e}"));
        }
    }
    let log_sum: f64 = REFERENCE_NS
        .iter()
        .zip(&measured)
        .map(|(reference, ns)| (reference / ns).ln())
        .sum();
    Ok((log_sum / measured.len() as f64).exp())
}
