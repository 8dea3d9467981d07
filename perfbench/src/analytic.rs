//! `analytic`: one in-process caller running BALG text through
//! `parse_expr` → `analyze` → `Evaluator` at threads = the core count,
//! over bases of 100 000 rows.
//!
//! Why: the `core` kernels, `par`/`pool` and `index` do nearly all the
//! work here, while `server`, `sql` and `wal` do none. A kernel or
//! parallelism change shows on this workload and is predicted flat on
//! `serve`. The merges run on inputs far above
//! `par::DEFAULT_THRESHOLD`, so the partitioned kernels are used.
//!
//! Every query class is sized to take roughly 5–50 ms. The workload's
//! operation is a round: every class once, in a seeded order, so each
//! class counts in the round time by its share. Each answer is checked
//! against a fingerprint (distinct count, cardinality and a hash of the
//! whole bag) of a serial, single-thread evaluation made at set-up.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use balg_core::analyze::analyze;
use balg_core::bag::Bag;
use balg_core::eval::{Evaluator, Limits};
use balg_core::natural::Natural;
use balg_core::parse::parse_expr;
use balg_core::schema::{Database, Schema};
use balg_core::types::Type;
use balg_core::value::Value;

use crate::stats::{median, median_f64, ms, us, Histogram};
use crate::{offset_ns, timed, trace, Config, Metric, Op, Outcome, Rng, Timing};

/// Input sizes.
#[derive(Clone, Copy, Debug)]
struct Size {
    /// Draws per merge base (R, S): rows counting duplicates.
    merge_rows: usize,
    /// Tuple domain the merge bases draw from.
    merge_domain: u64,
    /// Rows per join side and the join-key count.
    join_rows: usize,
    join_keys: u64,
    /// Rows of the nested base.
    nest_rows: usize,
    /// Distinct elements of the powerbag base (each twice).
    power_distinct: usize,
    /// Chains and chain length of the closure graph.
    chains: usize,
    chain_len: usize,
}

const FULL: Size = Size {
    merge_rows: 100_000,
    merge_domain: 100_000,
    join_rows: 3_000,
    join_keys: 1_000,
    nest_rows: 20_000,
    power_distinct: 8,
    chains: 20,
    chain_len: 16,
};

const SMOKE: Size = Size {
    merge_rows: 2_000,
    merge_domain: 2_000,
    join_rows: 200,
    join_keys: 50,
    nest_rows: 500,
    power_distinct: 3,
    chains: 3,
    chain_len: 6,
};

/// One caller, no durable writes.
const TIMING: Timing = Timing {
    wall_clock: false,
    fsync: false,
};

/// The query classes: name, span name of the evaluation, BALG text.
pub const QUERIES: [(&str, &str, &str); 9] = [
    ("unionp", "core.eval.unionp", "unionp(R, S)"),
    ("minus", "core.eval.minus", "minus(R, S)"),
    ("intersect", "core.eval.intersect", "intersect(R, S)"),
    ("union", "core.eval.union", "union(R, S)"),
    (
        "dedup_project",
        "core.eval.dedup_project",
        "dedup(project(R, 1))",
    ),
    (
        "join",
        "core.eval.join",
        "project(select(x, eq(attr(x, 2), attr(x, 3)), product(J, K)), 1, 4)",
    ),
    ("nest", "core.eval.nest", "nest(N, 1)"),
    ("powerbag", "core.eval.powerbag", "powerbag(P)"),
    (
        "ifp",
        "core.eval.ifp",
        "ifp(T, dedup(project(select(x, eq(attr(x, 2), attr(x, 3)), product(T, E)), 1, 4)), E)",
    ),
];

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

/// Build the bases from the seed.
fn bases(seed: u64, size: Size) -> Database {
    let mut rng = Rng::new(seed, 2);
    let width = 4;
    let merge = |rng: &mut Rng| {
        Bag::from_values((0..size.merge_rows).map(|_| {
            let t = rng.int(size.merge_domain);
            pair(t / width, t % width)
        }))
    };
    let r = merge(&mut rng);
    let s = merge(&mut rng);
    let keys = size.join_keys;
    let j = Bag::from_values((0..size.join_rows).map(|i| pair(i as i64, rng.int(keys))));
    let k = Bag::from_values((0..size.join_rows).map(|i| pair(rng.int(keys), i as i64)));
    let n = Bag::from_values(
        (0..size.nest_rows).map(|_| pair(rng.int(size.nest_rows as u64 / 8), rng.int(64))),
    );
    let p = Bag::from_counted(
        (0..size.power_distinct)
            .map(|i| (Value::tuple([Value::int(i as i64)]), Natural::from(2u64))),
    );
    // Disjoint chains with shuffled node ids: the closure takes
    // chain_len − 1 steps whatever the seed.
    let nodes = size.chains * size.chain_len;
    let mut ids: Vec<i64> = (0..nodes as i64).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let e = Bag::from_values((0..size.chains).flat_map(|c| {
        let ids = &ids;
        (0..size.chain_len - 1)
            .map(move |i| pair(ids[c * size.chain_len + i], ids[c * size.chain_len + i + 1]))
    }));
    Database::new()
        .with("R", r)
        .with("S", s)
        .with("J", j)
        .with("K", k)
        .with("N", n)
        .with("P", p)
        .with("E", e)
}

fn schema() -> Schema {
    ["R", "S", "J", "K", "N", "E"]
        .into_iter()
        .fold(Schema::new(), |schema, name| {
            schema.with(name, Type::relation(2))
        })
        .with("P", Type::relation(1))
}

/// Distinct count, cardinality and a hash of the whole bag.
type Fingerprint = (usize, String, u64);

fn fingerprint(bag: &Bag) -> Fingerprint {
    let mut hasher = DefaultHasher::new();
    bag.hash(&mut hasher);
    (
        bag.distinct_count(),
        bag.cardinality().to_string(),
        hasher.finish(),
    )
}

/// One query: parse → analyze → evaluate, each a span of `request`.
/// Returns the result and the evaluator's step count.
fn query(
    text: &str,
    eval_span: &'static str,
    db: &Database,
    schema: &Schema,
    threads: usize,
    request: u64,
) -> Result<(Bag, u64), String> {
    let (out, _, _) = trace::span("analytic.query", request, 0, |root| {
        let (expr, _, _) = trace::span("core.parse", request, root, |_| parse_expr(text));
        let expr = expr.map_err(|e| e.to_string())?;
        let (facts, _, _) = trace::span("core.analyze", request, root, |_| analyze(&expr, schema));
        facts.map_err(|e| e.to_string())?;
        let (bag, _, _) = trace::span(eval_span, request, root, |_| {
            let mut evaluator = Evaluator::new(db, Limits::default());
            evaluator.set_parallel_threads(threads);
            let bag = evaluator.eval_bag(&expr);
            bag.map(|b| (b, evaluator.metrics().steps))
        });
        bag.map_err(|e| e.to_string())
    });
    out
}

/// Run seeded rounds of the query mix (each class once per round, in a
/// shuffled order) until `budget` is spent. Returns one operation per
/// round whose answers were all right, timed as the sum of its query
/// times; each right query's time also goes to `queries`.
#[allow(clippy::too_many_arguments)]
fn drive(
    cfg: &Config,
    db: &Database,
    schema: &Schema,
    expected: &[Fingerprint],
    rng: &mut Rng,
    budget: Duration,
    queries: &mut Histogram,
    out: &mut Outcome,
) -> Vec<Op> {
    let started = Instant::now();
    let deadline = started + budget;
    let mut rounds = Vec::new();
    let mut order: Vec<usize> = (0..QUERIES.len()).collect();
    while Instant::now() < deadline {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let start_ns = offset_ns(started, Instant::now());
        let (mut round_ns, mut all_ok) = (0, true);
        for &q in &order {
            let (_, span, text) = QUERIES[q];
            let (result, took) =
                timed(|| query(text, span, db, schema, cfg.threads, trace::request_id()));
            let ok = result.is_ok_and(|(bag, _)| fingerprint(&bag) == expected[q]);
            out.count(ok);
            all_ok &= ok;
            if ok {
                let ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
                queries.record(ns);
                round_ns += ns;
            }
        }
        if all_ok {
            rounds.push(Op {
                start_ns,
                ns: round_ns,
                primary: true,
            });
        }
    }
    rounds
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let mut out = Outcome::default();
    let (db, setup_s) = crate::repeated_setup(TIMING, |_| Ok(bases(cfg.seed, size)), drop)?;
    out.setup_s = setup_s;
    let schema = schema();

    // Reference answers: serial evaluation, fingerprinted.
    let mut expected = Vec::new();
    let mut steps = Vec::new();
    for (class, _, text) in QUERIES {
        let (bag, step_count) = query(text, "analytic.reference", &db, &schema, 1, 0)
            .map_err(|e| format!("{class}: {e}"))?;
        expected.push(fingerprint(&bag));
        steps.push(step_count);
    }

    let mut rng = Rng::new(cfg.seed, 3);
    let mut budget = cfg.budget();
    let mut untraced_p50 = 0.0;
    let mut latencies = Histogram::default();
    if cfg.trace {
        budget /= 2;
        let untraced = drive(
            cfg,
            &db,
            &schema,
            &expected,
            &mut rng,
            budget,
            &mut Histogram::default(),
            &mut out,
        );
        untraced_p50 = median(&untraced.iter().map(|op| op.ns).collect::<Vec<_>>());
        crate::enable_tracing();
    }
    let registry_before = crate::registry_snapshot();
    let mark = trace::mark();
    let phase = crate::sliced(budget, TIMING, |share| {
        Ok(drive(
            cfg,
            &db,
            &schema,
            &expected,
            &mut rng,
            share,
            &mut latencies,
            &mut out,
        ))
    })?;
    out.phase = phase;
    let registry_after = crate::registry_snapshot();
    let queries = latencies.len();
    out.report = vec![
        Metric::new("read_p50_ms", ms(latencies.quantile(0.5)), "ms", queries),
        Metric::new("read_p99_ms", ms(latencies.quantile(0.99)), "ms", queries),
    ];

    if cfg.trace {
        let delta =
            |name: &str| crate::registry_delta(&registry_before, &registry_after, name)[0] as f64;
        let rounds = &out.phase.primary;
        out.layers.push(Metric::new(
            "trace.overhead_pct",
            100.0 * (rounds.quantile(0.5) / untraced_p50.max(1.0) - 1.0),
            "%",
            rounds.len(),
        ));
        for (name, span) in [
            ("core.parse_us", "core.parse"),
            ("core.analyze_us", "core.analyze"),
        ] {
            let d = trace::durations(mark, span);
            out.layers
                .push(Metric::new(name, us(median(&d)), "us", d.len()));
        }
        for ((class, span, _), step_count) in QUERIES.iter().zip(&steps) {
            let d = trace::durations(mark, span);
            out.layers.push(Metric::new(
                format!("core.eval_ms.{class}"),
                ms(median(&d)),
                "ms",
                d.len(),
            ));
            out.layers.push(Metric::new(
                format!("core.steps.{class}"),
                *step_count as f64,
                "count",
                1,
            ));
        }
        let per_query = |n: f64| n / queries.max(1) as f64;
        let (hits, misses) = (
            delta("balg_index_cache_hits_total"),
            delta("balg_index_cache_misses_total"),
        );
        out.layers.extend([
            Metric::new(
                "core.par.partitions",
                per_query(delta("balg_par_partitions_total")),
                "count/query",
                queries,
            ),
            Metric::new(
                "core.par.serial_fallbacks",
                per_query(delta("balg_par_serial_fallbacks_total")),
                "count/query",
                queries,
            ),
            Metric::new(
                "core.par.speedup",
                speedup(cfg, &db, &schema)?,
                "ratio",
                QUERIES.len(),
            ),
            Metric::new(
                "core.index.hit_ratio",
                hits / (hits + misses).max(1.0),
                "ratio",
                queries,
            ),
            Metric::new(
                "core.index.builds",
                per_query(delta("balg_index_cache_builds_total")),
                "count/query",
                queries,
            ),
            Metric::new(
                "core.index.evictions",
                per_query(delta("balg_index_cache_evictions_total")),
                "count/query",
                queries,
            ),
        ]);
    }
    Ok(out)
}

/// Geometric mean over the query classes of (1-thread time ÷ time at
/// the configured thread count), each the median of three evaluations.
fn speedup(cfg: &Config, db: &Database, schema: &Schema) -> Result<f64, String> {
    let mut log_sum = 0.0;
    for (class, _, text) in QUERIES {
        let time_at = |threads: usize| -> Result<f64, String> {
            let mut times = Vec::new();
            for _ in 0..3 {
                let (result, took) =
                    timed(|| query(text, "analytic.speedup", db, schema, threads, 0));
                result.map_err(|e| format!("{class}: {e}"))?;
                times.push(took.as_secs_f64());
            }
            Ok(median_f64(&times))
        };
        let serial = time_at(1)?;
        let parallel = time_at(cfg.threads)?;
        log_sum += (serial / parallel).ln();
    }
    Ok((log_sum / QUERIES.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_tell_bags_apart() {
        let one = Bag::from_values([pair(1, 2)]);
        let two = Bag::from_values([pair(1, 2), pair(1, 2)]);
        let other = Bag::from_values([pair(2, 1)]);
        assert_eq!(fingerprint(&one), fingerprint(&one.clone()));
        assert_ne!(fingerprint(&one), fingerprint(&two));
        assert_ne!(fingerprint(&one), fingerprint(&other));
    }

    #[test]
    fn bases_depend_on_the_seed_alone() {
        assert_eq!(bases(3, SMOKE).get("R"), bases(3, SMOKE).get("R"));
        assert_ne!(bases(3, SMOKE).get("R"), bases(4, SMOKE).get("R"));
    }
}
