//! The `SMA_GAggr` operator — Fig. 7 of the paper — and the one bucket
//! loop every aggregate plan runs.
//!
//! Selection SMAs (min/max, via the grading provider) classify each
//! bucket, and the bucket then meets one of three fates:
//!
//! * **skip** — a disqualified bucket costs nothing;
//! * **answer from SMAs** — a qualifying bucket merges its aggregate-SMA
//!   entries without touching its pages;
//! * **scan** — an ambivalent bucket is read and aggregated tuple by
//!   tuple under the filter.
//!
//! [`SmaGAggr::scanning`] runs the same loop without aggregate SMAs:
//! qualifying buckets are then scanned without the filter (`SMA_Scan`
//! feeding a grouping), and without any SMAs every bucket is scanned with
//! the filter (the full scan). Tuples not yet sealed into the table
//! ([`SmaGAggr::with_overlay`]) fold into the same groups as a trailing
//! pseudo-bucket. A pipeline breaker: the whole result is computed in
//! `open` ("within its init function, the result is computed"), `next`
//! merely streams it.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use sma_core::{BucketPred, Grade, Sma, SmaSet};
use sma_storage::{map_morsels, MemRow, Parallelism, QueryBudget};
use sma_types::{RowLayout, Tuple, Value};

use crate::colkernel::{aggregate_block, filter_block, SelectionVector};
use crate::gaggr::{into_rows, AggSpec, DenseGroups, GroupState};
use crate::op::{ExecError, PhysicalOp};
use crate::scan::ScanCounters;

/// How one query aggregate maps onto SMAs.
struct ResolvedSpec<'a> {
    /// SMA holding the base aggregate (`avg` → its `sum` SMA).
    sma: &'a Sma,
    /// For each query group column, its position in the SMA's group key.
    key_positions: Vec<usize>,
}

/// The aggregate SMAs that answer qualifying buckets.
struct AggregateSmas<'a> {
    /// One per query aggregate.
    resolved: Vec<ResolvedSpec<'a>>,
    /// The hidden count(*) (group existence + averages).
    count: ResolvedSpec<'a>,
}

/// The SMA-driven grouping/aggregation operator.
pub struct SmaGAggr<'a> {
    table: &'a sma_storage::Table,
    pred: BucketPred,
    group_by: Vec<usize>,
    specs: Vec<AggSpec>,
    /// Selection SMAs that grade buckets; `None` grades nothing and scans
    /// every bucket with the filter.
    smas: Option<&'a SmaSet>,
    /// Aggregate SMAs answering qualifying buckets; `None` scans those
    /// buckets without the filter instead.
    answers: Option<AggregateSmas<'a>>,
    /// Grades computed before execution, one per bucket; a bucket past
    /// the end is graded in the loop.
    grades: &'a [Grade],
    /// Tuples that belong to the relation but are not in the table yet.
    overlay: &'a [MemRow],
    /// Byte offsets of the row codec, computed once so scanned buckets
    /// can be filtered and aggregated on zero-copy views.
    layout: RowLayout,
    results: Vec<Tuple>,
    pos: usize,
    counters: ScanCounters,
    parallelism: Parallelism,
    /// Cooperative per-query budget, shared by all morsel workers (its
    /// state is atomic): checked once per bucket, charged per page read.
    budget: Option<&'a QueryBudget>,
}

fn resolve<'a>(
    smas: &'a SmaSet,
    agg: sma_core::AggFn,
    input: Option<&sma_core::ScalarExpr>,
    group_by: &[usize],
    what: &str,
) -> Result<ResolvedSpec<'a>, ExecError> {
    let sma = smas
        .find_aggregate(agg, input, group_by)
        .ok_or_else(|| ExecError::MissingSma(format!("{agg} SMA for {what}")))?;
    let key_positions: Vec<usize> = group_by
        .iter()
        .filter_map(|qc| sma.def().group_by.iter().position(|g| g == qc))
        .collect();
    if key_positions.len() != group_by.len() {
        // `find_aggregate` guarantees grouping refinement; report rather
        // than assume if that contract is ever broken.
        return Err(ExecError::MissingSma(format!(
            "{agg} SMA grouping does not refine {what}"
        )));
    }
    Ok(ResolvedSpec { sma, key_positions })
}

impl ResolvedSpec<'_> {
    fn project(&self, sma_key: &[Value]) -> Vec<Value> {
        self.key_positions
            .iter()
            .map(|&p| sma_key[p].clone())
            .collect()
    }
}

impl AggregateSmas<'_> {
    /// Whether any SMA this operator would draw entries from has `bucket`
    /// quarantined — if so the entries may be garbage and the bucket must
    /// be answered from the base table instead.
    fn quarantined(&self, bucket: u32) -> bool {
        self.count.sma.is_quarantined(bucket)
            || self.resolved.iter().any(|r| r.sma.is_quarantined(bucket))
    }

    /// Merges one qualifying bucket's SMA entries into a *fresh* group map
    /// so an inconsistency detected mid-merge leaves the caller's state
    /// untouched and the bucket can be demoted to a base scan instead.
    fn merge_bucket(
        &self,
        bucket: u32,
        specs: &[AggSpec],
    ) -> Result<BTreeMap<Vec<Value>, GroupState>, ExecError> {
        let mut groups: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
        // Groups that received a materialized aggregate value this bucket;
        // each must also be covered by the count SMA, or group existence
        // (and averages) would be computed from thin air.
        let mut touched: BTreeSet<Vec<Value>> = BTreeSet::new();
        for (i, r) in self.resolved.iter().enumerate() {
            for (key, file) in r.sma.groups() {
                let Some(v) = file.get(bucket) else { continue };
                let target = r.project(key);
                if !v.is_null() {
                    touched.insert(target.clone());
                }
                groups
                    .entry(target)
                    .or_insert_with(|| GroupState::new(specs))
                    .accs[i]
                    .merge(v);
            }
        }
        for (key, file) in self.count.sma.groups() {
            let Some(v) = file.get(bucket) else { continue };
            let n = v.as_int().unwrap_or(0);
            let target = self.count.project(key);
            touched.remove(&target);
            groups
                .entry(target)
                .or_insert_with(|| GroupState::new(specs))
                .hidden_count += n;
        }
        if let Some(orphan) = touched.into_iter().next() {
            return Err(ExecError::InconsistentSma(format!(
                "bucket {bucket}: aggregate SMA materialized values for group \
                 {orphan:?} but the count SMA has no entry for that bucket"
            )));
        }
        Ok(groups)
    }
}

impl<'a> SmaGAggr<'a> {
    /// Creates the operator (Fig. 7's constructor: `SMA_GAggr(R, pred,
    /// aggregateSpec, groupSpec, selectionSMAs, aggregateSMAs)`; here one
    /// [`SmaSet`] plays both SMA roles). Fails fast with
    /// [`ExecError::MissingSma`] when an aggregate SMA is missing — the
    /// planner then falls back to [`SmaGAggr::scanning`].
    pub fn new(
        table: &'a sma_storage::Table,
        pred: BucketPred,
        group_by: Vec<usize>,
        specs: Vec<AggSpec>,
        smas: &'a SmaSet,
    ) -> Result<SmaGAggr<'a>, ExecError> {
        let mut resolved = Vec::with_capacity(specs.len());
        for spec in &specs {
            resolved.push(resolve(
                smas,
                spec.base_fn(),
                spec.input(),
                &group_by,
                &format!("{spec:?}"),
            )?);
        }
        let count = resolve(smas, sma_core::AggFn::Count, None, &group_by, "count(*)")?;
        Ok(SmaGAggr {
            answers: Some(AggregateSmas { resolved, count }),
            ..SmaGAggr::scanning(table, pred, group_by, specs, Some(smas))
        })
    }

    /// The same bucket loop without aggregate SMAs: `smas` (when present)
    /// only grades, so disqualified buckets are skipped and qualifying
    /// ones are scanned without evaluating the filter. Without SMAs every
    /// bucket is scanned with the filter.
    pub fn scanning(
        table: &'a sma_storage::Table,
        pred: BucketPred,
        group_by: Vec<usize>,
        specs: Vec<AggSpec>,
        smas: Option<&'a SmaSet>,
    ) -> SmaGAggr<'a> {
        SmaGAggr {
            table,
            pred,
            group_by,
            specs,
            smas,
            answers: None,
            grades: &[],
            overlay: &[],
            layout: RowLayout::new(table.schema()),
            results: Vec::new(),
            pos: 0,
            counters: ScanCounters::default(),
            parallelism: Parallelism::default(),
            budget: None,
        }
    }

    /// Sets the number of worker threads `open` uses for the bucket loop
    /// (default: one per available core). Results and counters are
    /// identical at any setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> SmaGAggr<'a> {
        self.parallelism = parallelism;
        self
    }

    /// Attaches a cooperative budget. Every morsel worker checks it at
    /// each bucket boundary and charges it the bucket's page count before
    /// reading the bucket; buckets answered from in-memory SMA entries
    /// charge nothing.
    pub fn with_budget(mut self, budget: &'a QueryBudget) -> SmaGAggr<'a> {
        self.budget = Some(budget);
        self
    }

    /// Supplies the grades of `pred` over the selection SMAs, computed
    /// once elsewhere (the planner's classification), so the loop does
    /// not grade again.
    pub fn with_grades(mut self, grades: &'a [Grade]) -> SmaGAggr<'a> {
        self.grades = grades;
        self
    }

    /// Adds tuples that logically belong to the relation but have not
    /// been flushed into the table (a streaming memtable). No SMAs cover
    /// them, so after the bucket loop each one is filtered and folded
    /// into the same groups — exact for every aggregate, `avg` included,
    /// because the division happens once in `finish`.
    pub fn with_overlay(mut self, rows: &'a [MemRow]) -> SmaGAggr<'a> {
        self.overlay = rows;
        self
    }

    /// Bucket-level counters (meaningful after `open`).
    pub fn counters(&self) -> ScanCounters {
        self.counters.clone()
    }

    /// `bucket`'s grade: supplied, graded here, or — without selection
    /// SMAs — ambivalent, so the bucket is scanned under the filter.
    fn grade(&self, bucket: u32) -> Grade {
        let Some(smas) = self.smas else {
            return Grade::Ambivalent;
        };
        match self.grades.get(bucket as usize) {
            Some(&g) => g,
            None => self.pred.grade(bucket, smas),
        }
    }

    /// Fig. 7's bucket loop over one contiguous morsel: skip disqualified
    /// buckets, answer qualifying ones from SMA entries (or scan them
    /// unfiltered without aggregate SMAs), scan ambivalent ones under the
    /// filter. Buckets whose SMA entries cannot be trusted (quarantined)
    /// or do not add up (inconsistent) are demoted to filtered scans — the
    /// base table is the ground truth, so the answer stays exact and only
    /// the fast path is lost. Pure with respect to `self`, so morsels run
    /// on worker threads.
    fn process_buckets(
        &self,
        range: Range<u32>,
    ) -> Result<(ScanCounters, BTreeMap<Vec<Value>, GroupState>), ExecError> {
        let mut counters = ScanCounters::default();
        let mut groups: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
        // All-`Char` group keys (the Q1 shape) accumulate in a flat
        // direct-indexed table instead of the ordered map; it folds back
        // into `groups` once at the end of the morsel. Aggregate merging
        // is commutative, so the deferred fold changes nothing.
        let mut dense = DenseGroups::try_new(self.table.schema(), &self.group_by);
        for bucket in range {
            if let Some(b) = self.budget {
                b.check()?;
            }
            match self.grade(bucket) {
                Grade::Disqualifies => counters.disqualified += 1,
                Grade::Qualifies => {
                    let Some(answers) = &self.answers else {
                        counters.qualified += 1;
                        self.scan_bucket(bucket, false, &mut groups, &mut dense)?;
                        continue;
                    };
                    if answers.quarantined(bucket) {
                        counters.degradation.note_quarantined(bucket);
                    } else {
                        match answers.merge_bucket(bucket, &self.specs) {
                            Ok(local) => {
                                counters.qualified += 1;
                                absorb_groups(&mut groups, local);
                                continue;
                            }
                            Err(ExecError::InconsistentSma(_)) => {
                                counters.degradation.note_inconsistent(bucket);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    counters.ambivalent += 1;
                    self.scan_bucket(bucket, true, &mut groups, &mut dense)?;
                }
                Grade::Ambivalent => {
                    counters.ambivalent += 1;
                    // Selection SMAs with a quarantined bucket grade it
                    // Ambivalent; the base scan below is the demotion.
                    if self.smas.is_some_and(|s| s.is_bucket_quarantined(bucket)) {
                        counters.degradation.note_quarantined(bucket);
                    }
                    self.scan_bucket(bucket, true, &mut groups, &mut dense)?;
                }
            }
        }
        if let Some(d) = dense {
            absorb_groups(&mut groups, d.into_groups());
        }
        Ok((counters, groups))
    }

    /// Reads one bucket straight out of the buffer pool's page frames:
    /// the predicate (when `filtered`) and the aggregate inputs are
    /// evaluated on zero-copy [`sma_types::RowView`]s, so passing tuples
    /// fold into their group without ever being materialized.
    fn scan_bucket(
        &self,
        bucket: u32,
        filtered: bool,
        groups: &mut BTreeMap<Vec<Value>, GroupState>,
        dense: &mut Option<DenseGroups>,
    ) -> Result<(), ExecError> {
        if let Some(b) = self.budget {
            b.charge(self.table.bucket_range(bucket).len() as u64)?;
        }
        if let Some(block) = self.table.columnar_bucket(bucket)? {
            // Columnar layout: the batch kernels filter over the column
            // arrays and fold only the survivors, touching only the
            // columns the predicate and aggregates reference. Decoding
            // the block reads the same pages the row branch below would.
            let sel = if filtered {
                filter_block(&block, &self.pred)
            } else {
                SelectionVector::all(block.n_rows())
            };
            return aggregate_block(&block, &sel, &self.group_by, &self.specs, groups, dense);
        }
        self.table
            .for_each_in_bucket::<ExecError, _>(bucket, |_, image| {
                let row = self.layout.view(image)?;
                if filtered && !self.pred.eval_view(&row)? {
                    return Ok(());
                }
                if let Some(d) = dense {
                    return d.update(&self.specs, &row);
                }
                let mut key = Vec::with_capacity(self.group_by.len());
                for &g in &self.group_by {
                    key.push(row.get(g)?);
                }
                groups
                    .entry(key)
                    .or_insert_with(|| GroupState::new(&self.specs))
                    .update_view(&self.specs, &row)
            })
    }

    /// The overlay as a trailing pseudo-bucket: no SMA covers it, so every
    /// tuple is filtered before it folds into its group.
    fn fold_overlay(&self, groups: &mut BTreeMap<Vec<Value>, GroupState>) -> Result<(), ExecError> {
        for (_, t) in self.overlay {
            if !self.pred.eval_tuple(t) {
                continue;
            }
            let mut key = Vec::with_capacity(self.group_by.len());
            for &g in &self.group_by {
                key.push(t.get(g).cloned().ok_or_else(|| {
                    ExecError::Plan(format!(
                        "group column {g} out of range for an overlay tuple"
                    ))
                })?);
            }
            groups
                .entry(key)
                .or_insert_with(|| GroupState::new(&self.specs))
                .update(&self.specs, t)?;
        }
        Ok(())
    }
}

/// Merges a bucket-local (or morsel-local) group map into the combined one.
fn absorb_groups(
    into: &mut BTreeMap<Vec<Value>, GroupState>,
    from: BTreeMap<Vec<Value>, GroupState>,
) {
    for (key, state) in from {
        match into.entry(key) {
            Entry::Occupied(e) => e.into_mut().absorb(state),
            Entry::Vacant(e) => {
                e.insert(state);
            }
        }
    }
}

impl PhysicalOp for SmaGAggr<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.results.clear();
        self.pos = 0;
        self.counters = ScanCounters::default();
        let retries_at_open = self.table.io_stats().retried_reads;
        // Fig. 7: "forall bucket in buckets: switch(grade(bucket, pred))".
        // Buckets are independent (grading is in-memory arithmetic, pages
        // are disjoint), so the loop runs as contiguous morsels; partials
        // merge back in bucket order, which keeps both the result rows and
        // the counters identical to the serial loop.
        let partials = map_morsels(
            self.table.bucket_count(),
            self.parallelism,
            |r| self.process_buckets(r),
            || ExecError::Plan("bucket worker panicked".into()),
        )?;
        let mut counters = ScanCounters::default();
        let mut groups: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
        for (c, partial_groups) in partials {
            counters.qualified += c.qualified;
            counters.disqualified += c.disqualified;
            counters.ambivalent += c.ambivalent;
            // Bucket lists are sorted + deduplicated on merge, so the
            // combined report is identical at any worker count.
            counters.degradation.merge(&c.degradation);
            absorb_groups(&mut groups, partial_groups);
        }
        self.fold_overlay(&mut groups)?;
        // Retries are a pool-level tally (morsels share the pool), so the
        // per-execution figure is the delta across the whole bucket loop.
        counters.degradation.retries_spent = self
            .table
            .io_stats()
            .retried_reads
            .saturating_sub(retries_at_open);
        self.counters = counters;
        // "Perform post processing for average aggregates" + drop groups
        // with no qualifying tuples.
        self.results = into_rows(groups, &self.group_by, &self.specs);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        if self.pos < self.results.len() {
            let t = std::mem::take(&mut self.results[self.pos]);
            self.pos += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self) {
        self.results.clear();
    }

    fn describe(&self) -> String {
        format!(
            "SmaGAggr({}, by={:?}, aggs={}, pred={:?})",
            self.table.name(),
            self.group_by,
            self.specs.len(),
            self.pred
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{Filter, SeqScan};
    use crate::gaggr::HashGAggr;
    use crate::op::collect;
    use sma_core::{col, AggFn, CmpOp, SmaDefinition};
    use sma_storage::Table;
    use sma_types::{Column, DataType, Decimal, Schema};
    use std::sync::Arc;

    /// Sorted keyed table with a flag and a price, 2 tuples per page.
    fn make_table(n: i64) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("G", DataType::Char),
            Column::new("P", DataType::Decimal),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        let pad = "p".repeat(1700);
        for k in 0..n {
            t.append(&vec![
                Value::Int(k),
                Value::Char(b'A' + (k % 3) as u8),
                Value::Decimal(Decimal::from_cents(100 * k + 50)),
                Value::Str(pad.clone()),
            ])
            .unwrap();
        }
        t
    }

    fn full_set(t: &Table) -> SmaSet {
        SmaSet::build(
            t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
                SmaDefinition::count("count").group_by(vec![1]),
                SmaDefinition::new("sum_p", AggFn::Sum, col(2)).group_by(vec![1]),
                SmaDefinition::new("min_k", AggFn::Min, col(0)).group_by(vec![1]),
                SmaDefinition::new("max_k", AggFn::Max, col(0)).group_by(vec![1]),
            ],
        )
        .unwrap()
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::CountStar,
            AggSpec::Sum(col(2)),
            AggSpec::Avg(col(2)),
            AggSpec::Min(col(0)),
            AggSpec::Max(col(0)),
        ]
    }

    fn baseline(t: &Table, pred: BucketPred) -> Vec<Tuple> {
        let mut g = HashGAggr::new(
            Box::new(Filter::new(Box::new(SeqScan::new(t)), pred)),
            vec![1],
            specs(),
        );
        collect(&mut g).unwrap()
    }

    /// The operator in each of its three shapes: qualifying buckets
    /// answered from SMAs, scanned unfiltered, or nothing graded at all.
    fn every_fate<'a>(t: &'a Table, smas: &'a SmaSet, pred: &BucketPred) -> Vec<SmaGAggr<'a>> {
        vec![
            SmaGAggr::new(t, pred.clone(), vec![1], specs(), smas).unwrap(),
            SmaGAggr::scanning(t, pred.clone(), vec![1], specs(), Some(smas)),
            SmaGAggr::scanning(t, pred.clone(), vec![1], specs(), None),
        ]
    }

    #[test]
    fn matches_baseline_across_cutoffs() {
        let t = make_table(60);
        let smas = full_set(&t);
        for c in [-1i64, 0, 10, 29, 30, 59, 100] {
            let pred = BucketPred::cmp(0, CmpOp::Le, c);
            let slow = baseline(&t, pred.clone());
            for mut op in every_fate(&t, &smas, &pred) {
                assert_eq!(collect(&mut op).unwrap(), slow, "cutoff {c}");
            }
        }
    }

    #[test]
    fn skips_buckets_and_uses_sma_answers() {
        let t = make_table(60); // 30 buckets
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 9i64); // 5 buckets survive
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        t.reset_io_stats();
        op.open().unwrap();
        let c = op.counters();
        assert_eq!(c.total(), 30);
        assert_eq!(c.disqualified, 25);
        assert_eq!(c.qualified, 5, "cutoff aligns with bucket boundary");
        assert_eq!(c.ambivalent, 0);
        assert_eq!(
            t.io_stats().logical_reads,
            0,
            "fully qualifying query answered from SMAs alone"
        );
        // Without aggregate SMAs the same buckets are read, unfiltered.
        let mut op = SmaGAggr::scanning(&t, pred, vec![1], specs(), Some(&smas));
        t.reset_io_stats();
        op.open().unwrap();
        assert_eq!(op.counters(), c);
        assert_eq!(t.io_stats().logical_reads, 5);
    }

    #[test]
    fn supplied_grades_replace_the_grading_pass() {
        let t = make_table(20); // 10 buckets
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64); // every bucket qualifies
        let graded = sma_core::Classification::classify(&pred, t.bucket_count(), &smas);
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
            .unwrap()
            .with_grades(&graded.grades);
        assert_eq!(collect(&mut op).unwrap(), baseline(&t, pred.clone()));
        // The operator trusts what it is given: grades claiming every
        // bucket is disqualified skip them all.
        let none = vec![Grade::Disqualifies; t.bucket_count() as usize];
        let mut op = SmaGAggr::new(&t, pred, vec![1], specs(), &smas)
            .unwrap()
            .with_grades(&none);
        assert!(collect(&mut op).unwrap().is_empty());
        assert_eq!(op.counters().disqualified, 10);
    }

    #[test]
    fn ambivalent_buckets_read_and_filtered() {
        let t = make_table(60);
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 8i64); // splits bucket 4
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        t.reset_io_stats();
        op.open().unwrap();
        assert_eq!(op.counters().ambivalent, 1);
        assert_eq!(t.io_stats().logical_reads, 1, "only the split bucket read");
        // And the answer is still exact.
        let mut op2 = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        assert_eq!(collect(&mut op2).unwrap(), baseline(&t, pred));
    }

    #[test]
    fn missing_aggregate_sma_fails_fast() {
        let t = make_table(10);
        let only_minmax = SmaSet::build(
            &t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
            ],
        )
        .unwrap();
        let result = SmaGAggr::new(
            &t,
            BucketPred::cmp(0, CmpOp::Le, 5i64),
            vec![1],
            specs(),
            &only_minmax,
        );
        match result {
            Err(ExecError::MissingSma(_)) => {}
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("expected MissingSma error"),
        }
    }

    #[test]
    fn finer_grouped_smas_serve_coarser_query() {
        let t = make_table(30);
        // SMAs grouped by (G, K%2-ish char)… simpler: group by [1, 0] is
        // overkill; group by [1] and query by [] (global aggregate).
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64);
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![], specs(), &smas).unwrap();
        let fast = collect(&mut op).unwrap();
        let mut slow = HashGAggr::new(
            Box::new(Filter::new(Box::new(SeqScan::new(&t)), pred)),
            vec![],
            specs(),
        );
        assert_eq!(fast, collect(&mut slow).unwrap());
    }

    #[test]
    fn all_disqualified_yields_empty() {
        let t = make_table(20);
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Lt, 0i64);
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        assert!(collect(&mut op).unwrap().is_empty());
        assert_eq!(op.counters().disqualified, 20 / 2);
        // Without GROUP BY, SQL still answers one row: count 0, the rest
        // NULL.
        let mut op = SmaGAggr::new(&t, pred, vec![], specs(), &smas).unwrap();
        let mut row = vec![Value::Int(0)];
        row.resize(specs().len(), Value::Null);
        assert_eq!(collect(&mut op).unwrap(), vec![row]);
    }

    #[test]
    fn parallel_open_matches_serial_exactly() {
        let t = make_table(60);
        let smas = full_set(&t);
        // Le 8 splits bucket 4: qualifying, disqualified, and ambivalent
        // buckets all present, so every merge path runs.
        let pred = BucketPred::cmp(0, CmpOp::Le, 8i64);
        for (fate, serial) in every_fate(&t, &smas, &pred).into_iter().enumerate() {
            let mut serial = serial.with_parallelism(Parallelism::serial());
            let expected = collect(&mut serial).unwrap();
            let expected_counters = serial.counters();
            assert!(!expected.is_empty());
            for threads in [2, 3, 4, 8, 64] {
                let mut par = every_fate(&t, &smas, &pred)
                    .swap_remove(fate)
                    .with_parallelism(Parallelism::new(threads));
                let what = format!("fate {fate}, {threads} threads");
                assert_eq!(collect(&mut par).unwrap(), expected, "{what}");
                assert_eq!(par.counters(), expected_counters, "{what}");
            }
        }
    }

    /// A count SMA whose files stop short of a bucket that the aggregate
    /// SMAs do cover used to make `merge_qualifying_bucket` silently drop
    /// the affected groups, then (PR 2) fail the whole query with
    /// `InconsistentSma`. Now the inconsistency demotes exactly the
    /// affected buckets to base-table scans: the answer stays correct and
    /// the degradation report names every demoted bucket.
    #[test]
    fn count_sma_gap_demotes_to_scan_not_an_error() {
        let t = make_table(60); // 30 buckets
        let short = make_table(20); // 10 buckets
        let full = full_set(&t);
        let mut mismatched = SmaSet::new();
        for sma in full.smas() {
            if sma.def().agg != AggFn::Count {
                mismatched.push(sma.clone());
            }
        }
        // A count SMA built over the shorter table: same definition, but
        // its files have no entries for buckets 10..30.
        let truncated = SmaSet::build(
            &short,
            vec![SmaDefinition::count("count").group_by(vec![1])],
        )
        .unwrap();
        mismatched.push(truncated.smas()[0].clone());

        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64); // every bucket qualifies
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &mismatched)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let rows = collect(&mut op).unwrap();
        assert_eq!(rows, baseline(&t, pred.clone()), "demoted run stays exact");
        let c = op.counters();
        assert_eq!(
            c.degradation.inconsistent_buckets,
            (10u32..30).collect::<Vec<_>>(),
            "exactly the uncovered buckets were demoted"
        );
        assert_eq!(c.degradation.demoted_buckets.len(), 20);
        assert_eq!(c.qualified, 10);
        assert_eq!(c.ambivalent, 20);
        // The parallel path produces the identical answer and report.
        let mut par = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &mismatched)
            .unwrap()
            .with_parallelism(Parallelism::new(4));
        assert_eq!(collect(&mut par).unwrap(), rows);
        assert_eq!(par.counters(), c);
    }

    /// Quarantined aggregate-SMA entries must not be trusted even when the
    /// selection SMAs still grade the bucket as fully qualifying.
    #[test]
    fn quarantined_aggregate_bucket_demotes_even_when_qualifying() {
        let t = make_table(60); // 30 buckets
        let full = full_set(&t);
        let mut damaged = SmaSet::new();
        for sma in full.smas() {
            let mut s = sma.clone();
            if s.def().name == "sum_p" {
                s.quarantine_bucket(3);
            }
            damaged.push(s);
        }
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64); // every bucket qualifies
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &damaged)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let rows = collect(&mut op).unwrap();
        assert_eq!(rows, baseline(&t, pred.clone()));
        let c = op.counters();
        assert_eq!(c.degradation.quarantined_buckets, vec![3]);
        assert_eq!(c.degradation.demoted_buckets, vec![3]);
        assert_eq!(c.qualified, 29);
        assert_eq!(c.ambivalent, 1);
        // Deterministic across worker counts.
        for threads in [2, 4, 8] {
            let mut par = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &damaged)
                .unwrap()
                .with_parallelism(Parallelism::new(threads));
            assert_eq!(collect(&mut par).unwrap(), rows, "{threads} threads");
            assert_eq!(par.counters(), c, "{threads} threads");
        }
    }

    /// Quarantining through the whole set (the `Warehouse` path) makes the
    /// bucket ambivalent at grading time; the answer still matches.
    #[test]
    fn set_wide_quarantine_degrades_but_stays_exact() {
        let t = make_table(60);
        let mut smas = full_set(&t);
        smas.quarantine_bucket(0);
        smas.quarantine_bucket(7);
        let pred = BucketPred::cmp(0, CmpOp::Le, 100i64);
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        let rows = collect(&mut op).unwrap();
        assert_eq!(rows, baseline(&t, pred));
        let c = op.counters();
        assert_eq!(c.degradation.quarantined_buckets, vec![0, 7]);
        assert_eq!(c.ambivalent, 2);
    }

    /// Columnar conversion must leave the operator's rows, counters, and
    /// I/O totals untouched at every thread count — ambivalent columnar
    /// buckets run the batch kernels, everything else is unchanged.
    /// Quarantine demotions land on the kernel path too, and stay exact.
    #[test]
    fn columnar_buckets_match_row_aggregation_exactly() {
        let mut t = make_table(60); // 30 buckets
        let smas = full_set(&t);
        let pred = BucketPred::cmp(0, CmpOp::Le, 8i64); // splits bucket 4
        t.reset_io_stats();
        let mut row_op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let expected = collect(&mut row_op).unwrap();
        let expected_counters = row_op.counters();
        let expected_reads = t.io_stats().logical_reads;
        let converted = t.convert_buckets_from(0).unwrap();
        assert!(!converted.is_empty());
        for threads in [1, 2, 8] {
            t.reset_io_stats();
            let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas)
                .unwrap()
                .with_parallelism(Parallelism::new(threads));
            assert_eq!(collect(&mut op).unwrap(), expected, "{threads} threads");
            assert_eq!(op.counters(), expected_counters, "{threads} threads");
            assert_eq!(
                t.io_stats().logical_reads,
                expected_reads,
                "{threads} threads"
            );
        }
        // Quarantined buckets demote to columnar kernel scans and the
        // answer still matches the tuple-at-a-time oracle.
        let mut damaged = smas.clone();
        damaged.quarantine_bucket(1);
        damaged.quarantine_bucket(3);
        let wide = BucketPred::cmp(0, CmpOp::Le, 100i64);
        let mut op = SmaGAggr::new(&t, wide.clone(), vec![1], specs(), &damaged).unwrap();
        assert_eq!(collect(&mut op).unwrap(), baseline(&t, wide));
        assert_eq!(op.counters().degradation.quarantined_buckets, vec![1, 3]);
    }

    #[test]
    fn or_predicate_still_correct() {
        let t = make_table(40);
        let smas = full_set(&t);
        let pred = BucketPred::Or(vec![
            BucketPred::cmp(0, CmpOp::Le, 5i64),
            BucketPred::cmp(0, CmpOp::Ge, 35i64),
        ]);
        let mut op = SmaGAggr::new(&t, pred.clone(), vec![1], specs(), &smas).unwrap();
        assert_eq!(collect(&mut op).unwrap(), baseline(&t, pred));
    }
}
