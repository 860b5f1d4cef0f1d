//! Batch-vectorized predicate and aggregation kernels over columnar
//! (PAX) buckets.
//!
//! Sealed buckets rewritten to the columnar layout decode to a
//! [`ColumnarBucket`] — one typed array per column, plus a validity
//! bitmap. The kernels here evaluate a [`BucketPred`] over those arrays
//! in fixed-size batches of [`BATCH_ROWS`] rows, filling a
//! [`SelectionVector`] of passing row indexes: atomic comparisons run as
//! tight typed loops over the raw arrays, conjunctions *intersect* the
//! per-conjunct vectors and disjunctions *union* them, so no tuple is
//! materialized before the whole predicate has decided. Aggregation then
//! folds only the selected rows, fetching aggregate inputs straight out
//! of the column arrays — columns the query never references are never
//! touched.
//!
//! Semantics are bit-for-bit those of the row path
//! ([`BucketPred::eval_tuple`] / `eval_view`): `Null` operands and type
//! mismatches compare false (`Value::partial_cmp_typed` is defined only
//! on same-variant pairs), out-of-range columns select nothing, the
//! empty `And` is true and the empty `Or` is false. Selected rows fold
//! in physical row order, so even path-dependent aggregate results
//! (per-step saturating integer sums) are identical to the row scan.
//! The typed fast loops below are *specializations*, not semantic
//! variants: every (array type, literal type) pair they cover compares
//! through the same total order `partial_cmp_typed` uses (`Decimal` and
//! `Date` derive their ordering from the raw scaled value the arrays
//! store), and every pair they do not cover falls back to a generic
//! per-row `CmpOp::eval`.

use std::collections::BTreeMap;

use sma_core::{BucketPred, CmpOp};
use sma_types::{ColumnArray, ColumnarBucket, Value};

use crate::gaggr::{AggSpec, DenseGroups, GroupState};
use crate::op::ExecError;

/// Rows evaluated per kernel batch. Batching bounds the scratch
/// selection vectors (a batch's worth of `usize`s, not a bucket's) and
/// keeps the arrays' working set cache-resident while a multi-term
/// predicate intersects or unions over it.
pub const BATCH_ROWS: usize = 1024;

/// Ascending row indexes of one columnar bucket that passed a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionVector {
    rows: Vec<usize>,
}

impl SelectionVector {
    /// The selected row indexes, ascending.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Every row of an `n`-row block.
    pub(crate) fn all(n: usize) -> SelectionVector {
        SelectionVector {
            rows: (0..n).collect(),
        }
    }
}

/// Evaluates `pred` over every row of `block`, batch by batch, and
/// returns the selection vector of passing rows.
pub fn filter_block(block: &ColumnarBucket, pred: &BucketPred) -> SelectionVector {
    let n = block.n_rows();
    let mut rows = Vec::new();
    let mut batch = Vec::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + BATCH_ROWS).min(n);
        batch.clear();
        fill(pred, block, start, end, &mut batch);
        rows.extend_from_slice(&batch);
        start = end;
    }
    SelectionVector { rows }
}

/// Folds the selected rows of `block` into the aggregation state —
/// either the dense all-`Char` group table or the generic ordered map,
/// exactly as the row path dispatches.
pub(crate) fn aggregate_block(
    block: &ColumnarBucket,
    sel: &SelectionVector,
    group_by: &[usize],
    specs: &[AggSpec],
    groups: &mut BTreeMap<Vec<Value>, GroupState>,
    dense: &mut Option<DenseGroups>,
) -> Result<(), ExecError> {
    if let Some(d) = dense {
        return d.update_block_batch(specs, block, sel.rows());
    }
    for &row in sel.rows() {
        let mut key = Vec::with_capacity(group_by.len());
        for &g in group_by {
            key.push(
                block
                    .value(g, row)
                    .ok_or_else(|| ExecError::Plan(format!("group column {g} out of range")))?,
            );
        }
        groups
            .entry(key)
            .or_insert_with(|| GroupState::new(specs))
            .update_block(specs, block, row)?;
    }
    Ok(())
}

/// Fills `out` with the rows of `[start, end)` satisfying `pred`,
/// ascending. Recursion mirrors the predicate grammar: leaves run typed
/// loops, `And` intersects, `Or` unions.
fn fill(pred: &BucketPred, block: &ColumnarBucket, start: usize, end: usize, out: &mut Vec<usize>) {
    match pred {
        BucketPred::Cmp { col, op, value } => fill_cmp(block, *col, *op, value, start, end, out),
        BucketPred::ColCmp { left, op, right } => {
            fill_col_cmp(block, *left, *op, *right, start, end, out)
        }
        BucketPred::And(ps) => {
            let Some((first, rest)) = ps.split_first() else {
                // The empty conjunction is true: every row passes.
                out.extend(start..end);
                return;
            };
            fill(first, block, start, end, out);
            let mut term = Vec::new();
            for p in rest {
                if out.is_empty() {
                    return;
                }
                term.clear();
                fill(p, block, start, end, &mut term);
                intersect_sorted(out, &term);
            }
        }
        BucketPred::Or(ps) => {
            // The empty disjunction is false: the loop body never runs
            // and `out` stays as it came in.
            let mut term = Vec::new();
            for p in ps {
                term.clear();
                fill(p, block, start, end, &mut term);
                union_sorted(out, &term);
            }
        }
    }
}

/// One `A op c` leaf: a typed loop over the raw array when the literal
/// matches the column type, the generic `CmpOp::eval` loop otherwise
/// (which makes `Null` literals and type mismatches select nothing, the
/// row path's semantics).
fn fill_cmp(
    block: &ColumnarBucket,
    col: usize,
    op: CmpOp,
    value: &Value,
    start: usize,
    end: usize,
    out: &mut Vec<usize>,
) {
    let Some(array) = block.col(col) else {
        // Out-of-range column: `eval_tuple` yields false for every row.
        return;
    };
    match (array, value) {
        (ColumnArray::Int { data, .. }, Value::Int(c)) => {
            for row in start..end {
                if array.is_valid(row) {
                    if let Some(v) = data.get(row) {
                        if op.matches(v.cmp(c)) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        (ColumnArray::Decimal { data, .. }, Value::Decimal(c)) => {
            let c = c.cents();
            for row in start..end {
                if array.is_valid(row) {
                    if let Some(v) = data.get(row) {
                        if op.matches(v.cmp(&c)) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        (ColumnArray::Date { data, .. }, Value::Date(c)) => {
            let c = c.days();
            for row in start..end {
                if array.is_valid(row) {
                    if let Some(v) = data.get(row) {
                        if op.matches(v.cmp(&c)) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        (ColumnArray::Char { data, .. }, Value::Char(c)) => {
            for row in start..end {
                if array.is_valid(row) {
                    if let Some(v) = data.get(row) {
                        if op.matches(v.cmp(c)) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        (ColumnArray::Str { .. }, Value::Str(c)) => {
            for row in start..end {
                if let Some(s) = array.str_at(row) {
                    if op.matches(s.cmp(c.as_str())) {
                        out.push(row);
                    }
                }
            }
        }
        _ => {
            for row in start..end {
                if let Some(v) = block.value(col, row) {
                    if op.eval(&v, value) {
                        out.push(row);
                    }
                }
            }
        }
    }
}

/// One `A op B` leaf: typed loops for same-type column pairs, the
/// generic loop otherwise (mixed-type pairs compare false).
fn fill_col_cmp(
    block: &ColumnarBucket,
    left: usize,
    op: CmpOp,
    right: usize,
    start: usize,
    end: usize,
    out: &mut Vec<usize>,
) {
    let (Some(a), Some(b)) = (block.col(left), block.col(right)) else {
        return;
    };
    match (a, b) {
        (ColumnArray::Int { data: da, .. }, ColumnArray::Int { data: db, .. })
        | (ColumnArray::Decimal { data: da, .. }, ColumnArray::Decimal { data: db, .. }) => {
            for row in start..end {
                if a.is_valid(row) && b.is_valid(row) {
                    if let (Some(x), Some(y)) = (da.get(row), db.get(row)) {
                        if op.matches(x.cmp(y)) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        (ColumnArray::Date { data: da, .. }, ColumnArray::Date { data: db, .. }) => {
            for row in start..end {
                if a.is_valid(row) && b.is_valid(row) {
                    if let (Some(x), Some(y)) = (da.get(row), db.get(row)) {
                        if op.matches(x.cmp(y)) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        (ColumnArray::Char { data: da, .. }, ColumnArray::Char { data: db, .. }) => {
            for row in start..end {
                if a.is_valid(row) && b.is_valid(row) {
                    if let (Some(x), Some(y)) = (da.get(row), db.get(row)) {
                        if op.matches(x.cmp(y)) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        (ColumnArray::Str { .. }, ColumnArray::Str { .. }) => {
            for row in start..end {
                if let (Some(x), Some(y)) = (a.str_at(row), b.str_at(row)) {
                    if op.matches(x.cmp(y)) {
                        out.push(row);
                    }
                }
            }
        }
        _ => {
            for row in start..end {
                if let (Some(x), Some(y)) = (block.value(left, row), block.value(right, row)) {
                    if op.eval(&x, &y) {
                        out.push(row);
                    }
                }
            }
        }
    }
}

/// Keeps only the elements of `out` also present in `other` (both
/// ascending) — in place, one forward pass over each.
fn intersect_sorted(out: &mut Vec<usize>, other: &[usize]) {
    let mut keep = 0usize;
    let mut j = 0usize;
    for i in 0..out.len() {
        let v = out[i];
        while j < other.len() && other[j] < v {
            j += 1;
        }
        if j < other.len() && other[j] == v {
            out[keep] = v;
            keep += 1;
            j += 1;
        }
    }
    out.truncate(keep);
}

/// Replaces `out` with the ascending, deduplicated union of `out` and
/// `other` (both ascending).
fn union_sorted(out: &mut Vec<usize>, other: &[usize]) {
    if other.is_empty() {
        return;
    }
    if out.is_empty() {
        out.extend_from_slice(other);
        return;
    }
    let mut merged = Vec::with_capacity(out.len() + other.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < out.len() && j < other.len() {
        match out[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => {
                merged.push(out[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(other[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(out[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&out[i..]);
    merged.extend_from_slice(&other[j..]);
    *out = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_types::{Column, DataType, Date, Decimal, Schema, StdRng, Tuple};

    /// A block over all five column types with scattered nulls, long
    /// enough to span several kernel batches.
    fn mixed_block(n: usize) -> (ColumnarBucket, Vec<Tuple>) {
        let schema = Schema::new(vec![
            Column::new("I", DataType::Int),
            Column::new("D", DataType::Decimal),
            Column::new("T", DataType::Date),
            Column::new("C", DataType::Char),
            Column::new("S", DataType::Str),
        ]);
        let mut rng = StdRng::seed_from_u64(0xC01C);
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let null = |r: &mut StdRng| r.next_u64().is_multiple_of(7);
            rows.push(vec![
                if null(&mut rng) {
                    Value::Null
                } else {
                    Value::Int((rng.next_u64() % 100) as i64 - 50)
                },
                if null(&mut rng) {
                    Value::Null
                } else {
                    Value::Decimal(Decimal::from_cents((rng.next_u64() % 1000) as i64 - 500))
                },
                if null(&mut rng) {
                    Value::Null
                } else {
                    Value::Date(Date::from_days(730_000 + (rng.next_u64() % 60) as i32))
                },
                if null(&mut rng) {
                    Value::Null
                } else {
                    Value::Char(b'A' + (rng.next_u64() % 4) as u8)
                },
                if null(&mut rng) {
                    Value::Null
                } else {
                    Value::Str(format!("s{:03}", i % 50))
                },
            ]);
        }
        let block = ColumnarBucket::from_rows(&schema, &rows).unwrap();
        (block, rows)
    }

    fn assert_matches_row_path(pred: &BucketPred, block: &ColumnarBucket, rows: &[Tuple]) {
        let expected: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, t)| pred.eval_tuple(t))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            filter_block(block, pred).rows(),
            expected.as_slice(),
            "pred {pred:?}"
        );
    }

    #[test]
    fn typed_leaves_match_eval_tuple() {
        let (block, rows) = mixed_block(2500);
        let literals: Vec<Value> = vec![
            Value::Int(0),
            Value::Int(-50),
            Value::Int(49),
            Value::Decimal(Decimal::from_cents(13)),
            Value::Date(Date::from_days(730_030)),
            Value::Char(b'B'),
            Value::Str("s025".into()),
        ];
        for col in 0..6 {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                for lit in &literals {
                    let pred = BucketPred::Cmp {
                        col,
                        op,
                        value: lit.clone(),
                    };
                    assert_matches_row_path(&pred, &block, &rows);
                }
            }
        }
    }

    #[test]
    fn null_literal_and_type_mismatch_select_nothing() {
        let (block, rows) = mixed_block(200);
        for col in 0..5 {
            let null_pred = BucketPred::Cmp {
                col,
                op: CmpOp::Eq,
                value: Value::Null,
            };
            assert!(filter_block(&block, &null_pred).rows().is_empty());
            assert_matches_row_path(&null_pred, &block, &rows);
            // Str literal against every non-Str column (and vice versa).
            let mismatch = BucketPred::Cmp {
                col,
                op: CmpOp::Le,
                value: if col == 4 {
                    Value::Int(3)
                } else {
                    Value::Str("x".into())
                },
            };
            assert!(filter_block(&block, &mismatch).rows().is_empty());
            assert_matches_row_path(&mismatch, &block, &rows);
        }
    }

    #[test]
    fn col_cmp_matches_eval_tuple() {
        let (block, rows) = mixed_block(1500);
        for (l, r) in [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 4),
            (0, 1),
            (3, 4),
            (0, 9),
        ] {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let pred = BucketPred::col_cmp(l, op, r);
                assert_matches_row_path(&pred, &block, &rows);
            }
        }
    }

    #[test]
    fn conjunction_intersects_and_disjunction_unions() {
        let (block, rows) = mixed_block(3000);
        let a = BucketPred::cmp(0, CmpOp::Ge, -10i64);
        let b = BucketPred::cmp(0, CmpOp::Le, 10i64);
        let c = BucketPred::cmp(3, CmpOp::Eq, Value::Char(b'A'));
        for pred in [
            BucketPred::And(vec![a.clone(), b.clone()]),
            BucketPred::And(vec![a.clone(), b.clone(), c.clone()]),
            BucketPred::Or(vec![a.clone(), c.clone()]),
            BucketPred::Or(vec![BucketPred::And(vec![a.clone(), b.clone()]), c.clone()]),
            BucketPred::And(vec![BucketPred::Or(vec![b.clone(), c.clone()]), a.clone()]),
        ] {
            assert_matches_row_path(&pred, &block, &rows);
        }
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        let (block, rows) = mixed_block(100);
        assert_eq!(
            filter_block(&block, &BucketPred::And(vec![])).rows().len(),
            rows.len()
        );
        assert!(filter_block(&block, &BucketPred::Or(vec![]))
            .rows()
            .is_empty());
    }

    #[test]
    fn out_of_range_column_selects_nothing() {
        let (block, rows) = mixed_block(64);
        let pred = BucketPred::cmp(17, CmpOp::Ge, 0i64);
        assert!(filter_block(&block, &pred).rows().is_empty());
        assert_matches_row_path(&pred, &block, &rows);
    }

    #[test]
    fn set_ops_are_exact() {
        let mut v = vec![1usize, 3, 5, 7, 9];
        intersect_sorted(&mut v, &[0, 3, 4, 7, 10]);
        assert_eq!(v, vec![3, 7]);
        let mut v = vec![1usize, 4];
        union_sorted(&mut v, &[0, 1, 2, 9]);
        assert_eq!(v, vec![0, 1, 2, 4, 9]);
        let mut v: Vec<usize> = vec![];
        union_sorted(&mut v, &[2, 3]);
        assert_eq!(v, vec![2, 3]);
        intersect_sorted(&mut v, &[]);
        assert!(v.is_empty());
    }
}
