//! Update-stream workloads: E-group-shaped queries maintained under 1 000
//! random single-tuple updates, timed twice — once through the ℤ-bag
//! delta engine (`*_delta`) and once by full re-evaluation after every
//! update (`*_recompute`). The ratio of the two medians is the
//! delta-vs-recompute speedup the `pr4` baseline snapshot records.
//!
//! The update streams are seeded and generated against a simulated base
//! state, so every delete is legal and both runners replay the identical
//! stream. Prototype runtimes are built once; each timed run clones them
//! (cheap — bags are `Arc` slices) and replays the stream.

use balg_core::bag::Bag;
use balg_core::eval::{Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_incremental::{UpdateBatch, ViewRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::paper::Group;

/// Number of single-tuple updates per stream.
pub const STREAM_LEN: usize = 1_000;

/// One update: `(base name, tuple, delete?)`.
type Update = (&'static str, Value, bool);

/// A fully prepared update workload: prototypes plus the pre-generated
/// stream.
struct Plan {
    name: &'static str,
    expr: Expr,
    runtime: ViewRuntime,
    db: Database,
    updates: Vec<Update>,
}

/// Generate `STREAM_LEN` legal single-tuple updates over the given
/// churn bases: even steps insert a random tuple from `fresh`, odd steps
/// delete a random currently-present occurrence (falling back to an
/// insert when the simulated base is empty).
fn random_stream(
    seed: u64,
    bases: &[(&'static str, &Bag)],
    mut fresh: impl FnMut(&mut StdRng) -> Value,
) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Simulated occurrence lists for O(1) random deletion.
    let mut sim: Vec<(&'static str, Vec<Value>)> = bases
        .iter()
        .map(|(name, bag)| {
            let mut occurrences = Vec::new();
            for (value, mult) in bag.iter() {
                let count = mult.to_u64().expect("bench bags are small");
                for _ in 0..count {
                    occurrences.push(value.clone());
                }
            }
            (*name, occurrences)
        })
        .collect();
    let mut updates = Vec::with_capacity(STREAM_LEN);
    for step in 0..STREAM_LEN {
        let which = rng.gen_range(0..sim.len());
        let (name, occurrences) = &mut sim[which];
        let delete = step % 2 == 1 && !occurrences.is_empty();
        if delete {
            let ix = rng.gen_range(0..occurrences.len());
            let value = occurrences.swap_remove(ix);
            updates.push((*name, value, true));
        } else {
            let value = fresh(&mut rng);
            occurrences.push(value.clone());
            updates.push((*name, value, false));
        }
    }
    updates
}

fn plan(
    name: &'static str,
    seed: u64,
    bases: Vec<(&'static str, Bag)>,
    churn: &[&'static str],
    expr: Expr,
    fresh: impl FnMut(&mut StdRng) -> Value,
) -> Plan {
    let updates = {
        let base_refs: Vec<(&'static str, &Bag)> = bases
            .iter()
            .filter(|(n, _)| churn.contains(n))
            .map(|(n, b)| (*n, b))
            .collect();
        random_stream(seed, &base_refs, fresh)
    };
    let mut db = Database::new();
    let mut runtime = ViewRuntime::with_limits(Limits::default());
    for (base_name, bag) in bases {
        db.insert(base_name, bag.clone());
        runtime
            .load_base(base_name, bag)
            .expect("loading into an empty runtime");
    }
    runtime
        .create_view("v", expr.clone())
        .expect("bench view must evaluate");
    Plan {
        name,
        expr,
        runtime,
        db,
        updates,
    }
}

/// Replay the stream through a cloned runtime — the maintained path.
fn run_delta(plan: &Plan) {
    let mut runtime = plan.runtime.clone();
    for (name, value, delete) in &plan.updates {
        let mut batch = UpdateBatch::new();
        if *delete {
            batch.delete(name, value.clone());
        } else {
            batch.insert(name, value.clone());
        }
        runtime.apply(&batch).expect("bench updates are legal");
    }
    std::hint::black_box(runtime.view("v"));
}

/// Replay the stream against a cloned database, fully re-evaluating the
/// query after every update — the recompute baseline.
fn run_recompute(plan: &Plan) {
    let mut db = plan.db.clone();
    let mut last = Bag::new();
    for (name, value, delete) in &plan.updates {
        let mut bag = db.get(name).expect("known base").clone();
        if *delete {
            bag = bag.subtract(&Bag::singleton(value.clone()));
        } else {
            bag.insert(value.clone());
        }
        db.insert(name, bag);
        let mut evaluator = Evaluator::new(&db, Limits::default());
        last = evaluator
            .eval_bag(&plan.expr)
            .expect("bench query evaluates");
    }
    std::hint::black_box(last);
}

/// Replay a stream prefix through the delta engine and compare the final
/// maintained view against one full re-evaluation over the final database
/// state, plus the engine's own consistency check. (The smoke test uses
/// this — the two bench runners must not time two different
/// computations; the stepwise recompute runner reaches the same final
/// database by construction, since both replay the identical stream. A
/// prefix keeps the debug-build test fast; full-stream correctness is the
/// incremental crate's differential suite's job.)
#[cfg(test)]
fn check_plan(plan: &Plan, prefix: usize) {
    let mut runtime = plan.runtime.clone();
    for (name, value, delete) in &plan.updates[..prefix] {
        let mut batch = UpdateBatch::new();
        if *delete {
            batch.delete(name, value.clone());
        } else {
            batch.insert(name, value.clone());
        }
        runtime.apply(&batch).unwrap();
    }
    assert!(
        runtime.verify_all().unwrap(),
        "{}: delta engine drifted",
        plan.name
    );
    let mut db = plan.db.clone();
    for (name, value, delete) in &plan.updates[..prefix] {
        let mut bag = db.get(name).unwrap().clone();
        if *delete {
            bag = bag.subtract(&Bag::singleton(value.clone()));
        } else {
            bag.insert(value.clone());
        }
        db.insert(name, bag);
    }
    assert_eq!(
        db,
        runtime.database().clone(),
        "{}: recompute runner's base-update arithmetic diverged",
        plan.name
    );
    let mut evaluator = Evaluator::new(&db, Limits::default());
    let recomputed = evaluator.eval_bag(&plan.expr).unwrap();
    assert_eq!(
        &recomputed,
        runtime.view("v").unwrap(),
        "{} diverged",
        plan.name
    );
}

fn binary_bag(n: i64, modulus: i64) -> Bag {
    Bag::from_values((0..n).map(|i| Value::tuple([Value::int(i), Value::int(i % modulus)])))
}

fn unary_bag(n: i64) -> Bag {
    Bag::from_values((0..n).map(|i| Value::tuple([Value::int(i)])))
}

fn plans() -> Vec<Plan> {
    let mut out = Vec::new();
    {
        // σ/π chain over one base: the fully linear fast path.
        let expr = Expr::var("R")
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::lit(Value::int(3))),
            )
            .project(&[1]);
        out.push(plan(
            "u1_filter_map",
            11,
            vec![("R", binary_bag(4096, 17))],
            &["R"],
            expr,
            |rng| {
                Value::tuple([
                    Value::int(rng.gen_range(0..8192)),
                    Value::int(rng.gen_range(0..17)),
                ])
            },
        ));
    }
    {
        // ∪⁺ then a restructuring MAP over two churning bases.
        let expr = Expr::var("R").additive_union(Expr::var("S")).map(
            "x",
            Expr::tuple([Expr::var("x").attr(1), Expr::var("x").attr(1)]),
        );
        out.push(plan(
            "u2_union_tag",
            12,
            vec![("R", unary_bag(2048)), ("S", unary_bag(2048))],
            &["R", "S"],
            expr,
            |rng| Value::tuple([Value::int(rng.gen_range(0..4096))]),
        ));
    }
    {
        // Equi-join over a product: the bilinear δ(A×B) rule. Updates hit
        // the big side; the delta pairs only against the 64-tuple side.
        let expr = Expr::var("R")
            .product(Expr::var("S"))
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            )
            .project(&[1, 4]);
        out.push(plan(
            "u3_join",
            13,
            vec![("R", binary_bag(4096, 64)), ("S", binary_bag(64, 64))],
            &["R"],
            expr,
            |rng| {
                Value::tuple([
                    Value::int(rng.gen_range(0..8192)),
                    Value::int(rng.gen_range(0..64)),
                ])
            },
        ));
    }
    {
        // Equi-join against a *large* probed side: the per-key index
        // makes the σ(×) delta O(matches) — here ~4 matching rows per
        // update — where the unfused bilinear-then-filter path pays
        // O(|S|) = 1024 pairs plus as many predicate evaluations. The
        // u3/u5 pair brackets the index win: small other side vs large.
        let expr = Expr::var("R")
            .product(Expr::var("S"))
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            )
            .project(&[1, 4]);
        out.push(plan(
            "u5_indexed_join",
            15,
            vec![("R", binary_bag(2048, 256)), ("S", binary_bag(1024, 256))],
            &["R"],
            expr,
            |rng| {
                Value::tuple([
                    Value::int(rng.gen_range(0..8192)),
                    Value::int(rng.gen_range(0..256)),
                ])
            },
        ));
    }
    {
        // Pointwise pair: ε(R − S) maintains through the pointwise rule,
        // which looks up only the delta's keys in the R and S snapshots
        // instead of re-deriving both operators per update. Its gate is
        // delta ≥ 10× faster than recompute.
        let expr = Expr::var("R").subtract(Expr::var("S")).dedup();
        out.push(plan(
            "u4_monus_dedup",
            14,
            vec![("R", unary_bag(1024)), ("S", unary_bag(512))],
            &["R"],
            expr,
            |rng| Value::tuple([Value::int(rng.gen_range(0..2048))]),
        ));
    }
    out
}

/// The update-stream groups for the wall-clock runner: per workload one
/// `*_delta` group (maintained) and one `*_recompute` group (full
/// re-evaluation after every update).
pub fn update_groups() -> Vec<Group> {
    let mut out = Vec::new();
    for p in plans() {
        // `Group.name` is `&'static str` (shared with the E-groups); the
        // handful of derived names are leaked once per process, which
        // keeps adding a workload a one-line change with no panic path.
        let name_delta: &'static str = Box::leak(format!("{}_delta", p.name).into_boxed_str());
        let name_recompute: &'static str =
            Box::leak(format!("{}_recompute", p.name).into_boxed_str());
        let plan_delta = std::sync::Arc::new(p);
        let plan_recompute = plan_delta.clone();
        out.push(Group {
            name: name_delta,
            run: Box::new(move || run_delta(&plan_delta)),
        });
        out.push(Group {
            name: name_recompute,
            run: Box::new(move || run_recompute(&plan_recompute)),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_recompute_agree_on_every_workload() {
        for p in plans() {
            check_plan(&p, 200);
        }
    }

    #[test]
    fn streams_are_deterministic_and_full_length() {
        let a = plans();
        let b = plans();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.updates.len(), STREAM_LEN);
            assert_eq!(x.updates, y.updates, "{} stream not seeded", x.name);
        }
    }
}
