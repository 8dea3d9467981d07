//! Direct set-semantics evaluation of RALG expressions — the plain
//! reference the Proposition 4.2 checks compare the bag side against.
//!
//! Every operator evaluates its operands and applies the matching
//! [`Relation`] operation; `MAP` and `σ` iterate their input relation with
//! the λ variable bound. Intermediate results are therefore nested *sets*
//! exactly as in \[AB87\]/\[HS91\]. Budgets reuse
//! [`balg_core::eval::Limits`]. The one shortcut is the `DB′` memo:
//! each database bag is deeply deduplicated once per name, and later
//! lookups clone the cached view.

use std::collections::HashMap;

use balg_core::bag::{attr_field, Bag};
use balg_core::eval::{EvalError, Limits};
use balg_core::expr::Var;
use balg_core::schema::Database;
use balg_core::value::Value;

use crate::expr::{RalgExpr, RalgPred};
use crate::relation::Relation;

/// A reusable RALG evaluator bound to one database (whose bags are viewed
/// as relations via deep duplicate elimination — the `DB′` of
/// Proposition 4.2).
pub struct RalgEvaluator<'a> {
    db: &'a Database,
    limits: Limits,
    env: Vec<(Var, Value)>,
    steps_left: u64,
    /// Deduplicated `DB′` views, computed once per database name.
    db_views: HashMap<Var, Value>,
}

impl<'a> RalgEvaluator<'a> {
    /// Create an evaluator with the given budgets.
    pub fn new(db: &'a Database, limits: Limits) -> Self {
        let steps_left = limits.max_steps;
        RalgEvaluator {
            db,
            limits,
            env: Vec::new(),
            steps_left,
            db_views: HashMap::new(),
        }
    }

    /// Evaluate a closed expression.
    pub fn eval(&mut self, expr: &RalgExpr) -> Result<Value, EvalError> {
        debug_assert!(self.env.is_empty());
        self.eval_inner(expr)
    }

    /// Evaluate, requiring a relation result.
    pub fn eval_relation(&mut self, expr: &RalgExpr) -> Result<Relation, EvalError> {
        expect_relation(self.eval(expr)?)
    }

    fn step(&mut self) -> Result<(), EvalError> {
        match self.steps_left.checked_sub(1) {
            Some(rest) => {
                self.steps_left = rest;
                Ok(())
            }
            None => Err(EvalError::StepLimit(self.limits.max_steps)),
        }
    }

    fn check_size(&self, rel: &Relation) -> Result<(), EvalError> {
        let count = rel.len() as u64;
        if count > self.limits.max_bag_elements {
            return Err(EvalError::ElementLimit {
                observed: count,
                limit: self.limits.max_bag_elements,
            });
        }
        Ok(())
    }

    fn lookup(&mut self, name: &Var) -> Result<Value, EvalError> {
        for (bound, value) in self.env.iter().rev() {
            if bound == name {
                return Ok(value.clone());
            }
        }
        if let Some(view) = self.db_views.get(name) {
            return Ok(view.clone());
        }
        let view = self
            .db
            .get(name)
            .map(|bag| Relation::from_bag(bag).to_value())
            .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?;
        self.db_views.insert(name.clone(), view.clone());
        Ok(view)
    }

    /// Run `f` with `var` bound to `value` in the λ environment.
    fn with_bound<T>(
        &mut self,
        var: &Var,
        value: &Value,
        f: impl FnOnce(&mut Self) -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        self.env.push((var.clone(), value.clone()));
        let out = f(self);
        self.env.pop();
        out
    }

    fn eval_inner(&mut self, expr: &RalgExpr) -> Result<Value, EvalError> {
        self.step()?;
        match expr {
            RalgExpr::Var(name) => self.lookup(name),
            RalgExpr::Lit(value) => Ok(crate::relation::deep_dedup(value)),
            RalgExpr::Union(a, b) => self.eval_binary(a, b, Relation::union),
            RalgExpr::Intersect(a, b) => self.eval_binary(a, b, Relation::intersect),
            RalgExpr::Difference(a, b) => self.eval_binary(a, b, Relation::difference),
            RalgExpr::Product(a, b) => {
                let left = expect_relation(self.eval_inner(a)?)?;
                let right = expect_relation(self.eval_inner(b)?)?;
                // Distinct counts multiply: refuse before materializing.
                let predicted = left.len() as u128 * right.len() as u128;
                if predicted > u128::from(self.limits.max_bag_elements) {
                    return Err(EvalError::ElementLimit {
                        observed: u64::try_from(predicted).unwrap_or(u64::MAX),
                        limit: self.limits.max_bag_elements,
                    });
                }
                let out = left.product(&right, self.limits.max_bag_elements)?;
                Ok(out.to_value())
            }
            RalgExpr::Powerset(e) => {
                let rel = expect_relation(self.eval_inner(e)?)?;
                let out = rel.powerset(self.limits.max_bag_elements)?;
                self.check_size(&out)?;
                Ok(out.to_value())
            }
            RalgExpr::Tuple(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for field in fields {
                    out.push(self.eval_inner(field)?);
                }
                Ok(Value::Tuple(out.into()))
            }
            RalgExpr::Singleton(e) => {
                let value = self.eval_inner(e)?;
                // The operand is already set-shaped; a singleton of it is
                // too (no re-dedup needed).
                Ok(Value::Bag(Bag::singleton(value)))
            }
            RalgExpr::Attr(e, index) => {
                let value = self.eval_inner(e)?;
                match &value {
                    Value::Tuple(fields) => {
                        attr_field(fields, *index).cloned().map_err(EvalError::Bag)
                    }
                    other => Err(EvalError::Shape {
                        expected: "a tuple",
                        found: other.to_string(),
                    }),
                }
            }
            RalgExpr::Flatten(e) => {
                let rel = expect_relation(self.eval_inner(e)?)?;
                let out = rel.flatten()?;
                self.check_size(&out)?;
                Ok(out.to_value())
            }
            RalgExpr::Map { var, body, input } => {
                let rel = expect_relation(self.eval_inner(input)?)?;
                let out = rel.map(|value| self.with_bound(var, value, |ev| ev.eval_inner(body)))?;
                self.check_size(&out)?;
                Ok(out.to_value())
            }
            RalgExpr::Select { var, pred, input } => {
                let rel = expect_relation(self.eval_inner(input)?)?;
                let out =
                    rel.select(|value| self.with_bound(var, value, |ev| ev.eval_pred(pred)))?;
                Ok(out.to_value())
            }
        }
    }

    fn eval_binary(
        &mut self,
        a: &RalgExpr,
        b: &RalgExpr,
        op: impl FnOnce(&Relation, &Relation) -> Relation,
    ) -> Result<Value, EvalError> {
        let left = expect_relation(self.eval_inner(a)?)?;
        let right = expect_relation(self.eval_inner(b)?)?;
        let out = op(&left, &right);
        self.check_size(&out)?;
        Ok(out.to_value())
    }

    fn eval_pred(&mut self, pred: &RalgPred) -> Result<bool, EvalError> {
        self.step()?;
        match pred {
            RalgPred::True => Ok(true),
            RalgPred::Eq(a, b) => Ok(self.eval_inner(a)? == self.eval_inner(b)?),
            RalgPred::Member(a, b) => {
                let elem = self.eval_inner(a)?;
                let rel = expect_relation(self.eval_inner(b)?)?;
                Ok(rel.contains(&elem))
            }
            RalgPred::Subset(a, b) => {
                let left = expect_relation(self.eval_inner(a)?)?;
                let right = expect_relation(self.eval_inner(b)?)?;
                Ok(left.is_subset_of(&right))
            }
            RalgPred::Not(p) => Ok(!self.eval_pred(p)?),
            RalgPred::And(a, b) => Ok(self.eval_pred(a)? && self.eval_pred(b)?),
            RalgPred::Or(a, b) => Ok(self.eval_pred(a)? || self.eval_pred(b)?),
        }
    }
}

/// Re-wrap an evaluator-produced value as a relation. The evaluator only
/// ever produces set-shaped values (database views are deduplicated at
/// lookup, literals at evaluation, and every operator preserves the
/// invariant), so no re-deduplication runs here — debug builds verify.
fn expect_relation(value: Value) -> Result<Relation, EvalError> {
    match value {
        Value::Bag(bag) => Ok(Relation::from_set_bag_unchecked(bag)),
        other => Err(EvalError::Shape {
            expected: "a relation",
            found: other.to_string(),
        }),
    }
}

/// Evaluate with default limits.
pub fn eval(expr: &RalgExpr, db: &Database) -> Result<Value, EvalError> {
    RalgEvaluator::new(db, Limits::default()).eval(expr)
}

/// Evaluate with default limits, requiring a relation.
pub fn eval_relation(expr: &RalgExpr, db: &Database) -> Result<Relation, EvalError> {
    RalgEvaluator::new(db, Limits::default()).eval_relation(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use balg_core::bag::BagError;
    use balg_core::natural::Natural;

    fn unary(elems: &[&str]) -> Bag {
        Bag::from_values(elems.iter().map(|e| Value::tuple([Value::sym(e)])))
    }

    #[test]
    fn database_bags_are_viewed_as_sets() {
        let mut bag = Bag::new();
        bag.insert_with_multiplicity(Value::tuple([Value::sym("a")]), Natural::from(5u64));
        let db = Database::new().with("R", bag);
        let rel = eval_relation(&RalgExpr::var("R"), &db).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn union_difference_set_semantics() {
        let db = Database::new()
            .with("R", unary(&["a", "b"]))
            .with("S", unary(&["b", "c"]));
        let u = eval_relation(&RalgExpr::var("R").union(RalgExpr::var("S")), &db).unwrap();
        assert_eq!(u.len(), 3);
        let d = eval_relation(&RalgExpr::var("R").difference(RalgExpr::var("S")), &db).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn map_dedups_images() {
        let db = Database::new().with("R", unary(&["a", "b", "c"]));
        // project everything to a constant: set semantics → one element.
        let q = RalgExpr::var("R").map("x", RalgExpr::tuple([RalgExpr::lit(Value::sym("k"))]));
        let rel = eval_relation(&q, &db).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn powerset_and_flatten_roundtrip() {
        let db = Database::new().with("R", unary(&["a", "b"]));
        let q = RalgExpr::var("R").powerset().flatten();
        let rel = eval_relation(&q, &db).unwrap();
        assert_eq!(rel.len(), 2); // ⋃(P(R)) = R
    }

    #[test]
    fn select_with_membership() {
        let db = Database::new().with("R", unary(&["a", "b"]));
        let q = RalgExpr::var("R").powerset().select(
            "s",
            RalgPred::Member(
                RalgExpr::lit(Value::tuple([Value::sym("a")])),
                RalgExpr::var("s"),
            ),
        );
        let rel = eval_relation(&q, &db).unwrap();
        assert_eq!(rel.len(), 2); // {a} and {a,b}
    }

    #[test]
    fn budget_enforced() {
        let db = Database::new().with("R", unary(&["a", "b", "c", "d", "e"]));
        let limits = Limits {
            max_bag_elements: 8,
            ..Limits::default()
        };
        let mut ev = RalgEvaluator::new(&db, limits);
        assert!(ev.eval(&RalgExpr::var("R").powerset()).is_err());
    }

    #[test]
    fn attr_index_zero_is_rejected_explicitly() {
        // Regression: `α₀` used to wrap to usize::MAX and surface as a
        // misleading BadArity { index: 0, arity: n }.
        let db = Database::new().with("R", unary(&["a"]));
        let q = RalgExpr::var("R").map("x", RalgExpr::var("x").attr(0));
        match eval(&q, &db) {
            Err(EvalError::Bag(BagError::AttrIndexZero)) => {}
            other => panic!("expected AttrIndexZero, got {other:?}"),
        }
        // Positive out-of-range indices still report the arity.
        let q = RalgExpr::var("R").map("x", RalgExpr::var("x").attr(5));
        assert!(matches!(
            eval(&q, &db),
            Err(EvalError::Bag(BagError::BadArity { index: 5, arity: 1 }))
        ));
    }

    #[test]
    fn join_finds_two_step_paths() {
        // σ_{α₂=α₃}(G×G): the product is built, then filtered.
        let edges: Vec<Value> = [("a", "b"), ("b", "c"), ("c", "a"), ("b", "a")]
            .iter()
            .map(|(x, y)| Value::tuple([Value::sym(x), Value::sym(y)]))
            .collect();
        let db = Database::new().with("G", Bag::from_values(edges));
        let join = RalgExpr::var("G").product(RalgExpr::var("G")).select(
            "x",
            RalgPred::Eq(RalgExpr::var("x").attr(2), RalgExpr::var("x").attr(3)),
        );
        let joined = eval_relation(&join, &db).unwrap();
        assert!(joined.contains(&Value::tuple([
            Value::sym("a"),
            Value::sym("b"),
            Value::sym("b"),
            Value::sym("c"),
        ])));
    }

    #[test]
    fn map_over_product_collapses_to_a_set() {
        let db = Database::new()
            .with("R", unary(&["a", "b", "c"]))
            .with("S", unary(&["x", "y"]));
        let q = RalgExpr::var("R")
            .product(RalgExpr::var("S"))
            .map("t", RalgExpr::tuple([RalgExpr::var("t").attr(2)]));
        let rel = eval_relation(&q, &db).unwrap();
        assert_eq!(rel.len(), 2); // set semantics collapse to the S side
    }

    #[test]
    fn product_enforces_element_limit() {
        // |R|² = 100 pairs against a budget of 8.
        let db = Database::new().with(
            "R",
            Bag::from_values((0..10).map(|i| Value::tuple([Value::int(i)]))),
        );
        let q = RalgExpr::var("R")
            .product(RalgExpr::var("R"))
            .map("t", RalgExpr::var("t"));
        let limits = Limits {
            max_bag_elements: 8,
            ..Limits::default()
        };
        let mut ev = RalgEvaluator::new(&db, limits);
        assert!(matches!(
            ev.eval(&q),
            Err(EvalError::ElementLimit { limit: 8, .. })
        ));
    }
}
