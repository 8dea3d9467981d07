//! Differential property tests for the pointwise delta rule
//! [`ZBag::pointwise`]: for monus `−`, max-union `∪`, intersection `∩`
//! and duplicate elimination `ε`, the delta computed from the operands'
//! post-update values and deltas must equal re-deriving the operator
//! before and after the update and diffing the two results
//! ([`ZBag::diff`]).
//!
//! Operands are drawn over a small key domain, so deltas land on keys
//! the bases hold as well as on fresh ones. Multiplicities come from two
//! bands: small counts, and a window straddling `u64::MAX` — where
//! `Natural` spills from the inline word to heap limbs. Each update is
//! one of: unchanged (a zero delta), an independent redraw (inserts and
//! covered deletions), or a bulk insert much larger than the base.

use balg_core::bag::Bag;
use balg_core::natural::Natural;
use balg_core::value::Value;
use balg_core::zbag::{Pointwise, ZBag, ZBagError, ZInt};
use proptest::prelude::*;

const OPS: [Pointwise; 4] = [
    Pointwise::Monus,
    Pointwise::Max,
    Pointwise::Min,
    Pointwise::Dedup,
];

fn key(k: u8) -> Value {
    Value::tuple([Value::int(i64::from(k))])
}

/// A multiplicity from the small band or the `u64::MAX` spill window.
fn mult() -> BoxedStrategy<Natural> {
    prop_oneof![
        (1u64..4).prop_map(Natural::from),
        (0u64..5).prop_map(|d| Natural::from(u128::from(u64::MAX) - 2 + u128::from(d))),
    ]
    .boxed()
}

/// A bag of up to `len` distinct-or-repeated keys below `domain`
/// (possibly empty).
fn bag(domain: u8, len: usize) -> BoxedStrategy<Bag> {
    proptest::collection::vec((0..domain, mult()), 0..len)
        .prop_map(|pairs| Bag::from_counted(pairs.into_iter().map(|(k, m)| (key(k), m))))
        .boxed()
}

/// An `(old, new)` pair: unchanged, independently redrawn, or grown by a
/// bulk insert larger than the base.
fn update() -> BoxedStrategy<(Bag, Bag)> {
    prop_oneof![
        bag(12, 6).prop_map(|old| (old.clone(), old)),
        (bag(12, 6), bag(12, 6)),
        (bag(12, 4), bag(40, 40)).prop_map(|(old, extra)| {
            let new = old.additive_union(&extra);
            (old, new)
        }),
    ]
    .boxed()
}

/// The operator, re-derived in full.
fn rederive(op: Pointwise, a: &Bag, b: &Bag) -> Bag {
    match op {
        Pointwise::Monus => a.subtract(b),
        Pointwise::Max => a.max_union(b),
        Pointwise::Min => a.intersect(b),
        Pointwise::Dedup => a.dedup(),
    }
}

/// The rule's answer next to the re-derive-and-diff reference.
fn both(op: Pointwise, (a_old, a_new): &(Bag, Bag), (b_old, b_new): &(Bag, Bag)) -> (ZBag, ZBag) {
    let da = ZBag::diff(a_new, a_old);
    let db = ZBag::diff(b_new, b_old);
    let rule = ZBag::pointwise(op, a_new, &da, b_new, &db).expect("deltas are covered");
    let reference = ZBag::diff(&rederive(op, a_new, b_new), &rederive(op, a_old, b_old));
    (rule, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pointwise_rule_matches_rederive_and_diff(a in update(), b in update()) {
        for op in OPS {
            let (rule, reference) = both(op, &a, &b);
            prop_assert!(rule.debug_validate());
            prop_assert_eq!(rule, reference, "{:?}", op);
        }
    }

    /// One side empty before and after: monus and max degrade to the
    /// other side's delta (or its `ε`), intersection to nothing.
    #[test]
    fn empty_side(a in update()) {
        let empty = (Bag::new(), Bag::new());
        for op in OPS {
            let (rule, reference) = both(op, &a, &empty);
            prop_assert_eq!(&rule, &reference, "{:?}", op);
            let (rule, reference) = both(op, &empty, &a);
            prop_assert_eq!(&rule, &reference, "{:?}", op);
        }
    }

    /// Both operands move by the same delta: `A − A` stays empty and
    /// `A ∪ A`, `A ∩ A` move exactly as `A` does.
    #[test]
    fn equal_deltas_on_both_sides(a in update()) {
        for op in [Pointwise::Monus, Pointwise::Max, Pointwise::Min] {
            let (rule, reference) = both(op, &a, &a);
            prop_assert_eq!(&rule, &reference, "{:?}", op);
        }
        prop_assert!(both(Pointwise::Monus, &a, &a).0.is_empty());
    }
}

/// Nonzero deltas whose effect on the output cancels: `ε` does not move
/// when a present key only gains copies, and monus does not move when
/// the subtrahend already covers the minuend.
#[test]
fn deltas_that_cancel_in_the_output() {
    let a = Bag::from_counted([(key(1), Natural::from(2u64))]);
    let grown = Bag::from_counted([(key(1), Natural::from(5u64))]);
    let da = ZBag::diff(&grown, &a);
    assert!(!da.is_empty());
    let none = ZBag::new();
    let out = ZBag::pointwise(Pointwise::Dedup, &grown, &da, &Bag::new(), &none).unwrap();
    assert!(out.is_empty());
    let cover = Bag::from_counted([(key(1), Natural::from(9u64))]);
    let out = ZBag::pointwise(Pointwise::Monus, &grown, &da, &cover, &none).unwrap();
    assert!(out.is_empty());
    // A delta that cancels to zero before it arrives is the empty delta.
    let cancelled = ZBag::from_counted([(key(1), ZInt::one()), (key(1), ZInt::neg_one())]);
    assert!(cancelled.is_empty());
    let out = ZBag::pointwise(Pointwise::Max, &a, &cancelled, &cover, &none).unwrap();
    assert!(out.is_empty());
}

/// A delta that deletes more than the post-update value says was there
/// is reported, not truncated.
#[test]
fn uncovered_deletion_is_an_error() {
    let a = Bag::from_counted([(key(1), Natural::from(1u64))]);
    let over = ZBag::singleton(key(1), ZInt::from(2u64));
    let none = ZBag::new();
    assert_eq!(
        ZBag::pointwise(Pointwise::Min, &a, &over, &Bag::new(), &none),
        Err(ZBagError::NegativeMultiplicity { value: key(1) })
    );
}
