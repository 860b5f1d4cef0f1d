//! Plan selection for aggregate queries in the presence of SMAs.
//!
//! §2.4 / Fig. 5: the SMA plan beats the full scan until roughly 25 % of
//! the buckets are ambivalent; past the breakeven the full scan wins
//! (though the SMA plan's overhead stays under 2 %). The planner grades
//! every bucket *from the SMAs themselves* — a pure in-memory pass over
//! SMA entries, so the estimate is exact and costs no data I/O — then
//! prices each candidate plan with the storage cost model (sequential vs.
//! random page reads) and picks the cheapest.
//!
//! Every plan runs the same operator, [`SmaGAggr`]'s bucket loop, fed the
//! grades planning already computed: disqualified buckets are skipped,
//! ambivalent buckets are scanned under the filter, and the [`PlanKind`]
//! only decides the fate of qualifying buckets and what gets graded:
//!
//! 1. `SmaGAggr` — answers them from aggregate SMAs; reads the SMA files
//!    plus only ambivalent buckets;
//! 2. `SmaScanGAggr` — scans them without the filter; reads min/max SMAs
//!    plus qualifying and ambivalent buckets;
//! 3. `FullScan` — grades nothing and scans every bucket under the
//!    filter, perfectly sequentially.

use sma_core::{BucketPred, Classification, Grade, SmaSet};
use sma_storage::{CostModel, MemRow, QueryBudget, Table};
use sma_types::Tuple;

use crate::degrade::DegradationReport;
use crate::gaggr::AggSpec;
use crate::op::{collect, ExecError};
use crate::sma_gaggr::SmaGAggr;

/// An aggregate query: `select <group_by>, <specs> from R where <pred>
/// group by <group_by>` (output sorted by the group key).
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    /// Selection predicate.
    pub pred: BucketPred,
    /// Grouping columns.
    pub group_by: Vec<usize>,
    /// Aggregates to compute.
    pub specs: Vec<AggSpec>,
}

/// Planner tunables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlannerConfig {
    /// The I/O price list used to compare candidate plans.
    pub cost_model: CostModel,
}

/// Which physical strategy the planner chose: the fate of qualifying
/// buckets in the shared bucket loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Qualifying buckets answered from aggregate SMAs.
    SmaGAggr,
    /// Qualifying buckets scanned without the filter: selection SMAs only.
    SmaScanGAggr,
    /// Nothing graded: every bucket scanned under the filter.
    FullScan,
}

/// Planner cost estimate, derived from grading the SMA entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Buckets in the relation.
    pub n_buckets: u32,
    /// Fraction of buckets a SMA plan must read and filter.
    pub ambivalent_fraction: f64,
    /// Fraction of buckets a SMA plan skips entirely.
    pub skipped_fraction: f64,
    /// Modeled cost of the full sequential scan, in ms.
    pub full_scan_cost_ms: f64,
    /// Modeled cost of `SmaGAggr` (`None` when aggregate SMAs are missing).
    pub sma_gaggr_cost_ms: Option<f64>,
    /// Modeled cost of `SmaScan` + aggregation.
    pub sma_scan_cost_ms: f64,
}

/// A chosen plan, ready to execute.
pub struct Plan<'a> {
    table: &'a Table,
    smas: Option<&'a SmaSet>,
    query: AggregateQuery,
    /// The bucket grades planning computed (empty without SMAs); the
    /// operator reuses them instead of grading again.
    grades: Vec<Grade>,
    /// Unsealed tuples (a streaming memtable) unioned with the table at
    /// execution time — see [`Plan::with_overlay`].
    overlay: &'a [MemRow],
    /// Cooperative per-query budget — see [`Plan::with_budget`].
    budget: Option<&'a QueryBudget>,
    /// The chosen strategy.
    pub kind: PlanKind,
    /// The estimate that drove the choice (`None` without SMAs).
    pub estimate: Option<Estimate>,
}

impl<'a> Plan<'a> {
    /// Attaches unsealed tuples to the plan: rows that logically belong to
    /// the relation but have not been flushed into the sealed, SMA-indexed
    /// table yet. Execution folds them into the same groups after the
    /// bucket loop, applying the predicate per tuple (no SMAs cover
    /// volatile data). The rows are borrowed, never copied.
    pub fn with_overlay(mut self, rows: &'a [MemRow]) -> Plan<'a> {
        self.overlay = rows;
        self
    }

    /// Attaches a cooperative [`QueryBudget`]: execution checks it at
    /// every bucket boundary and charges it one unit per data page read,
    /// so a deadline, a page cap, or an external cancellation cuts the
    /// query off with [`ExecError::Budget`] instead of letting it run to
    /// completion. Charges are deterministic (the page counts the
    /// operator requests), so a budget verdict reproduces exactly in a
    /// single-threaded replay.
    pub fn with_budget(mut self, budget: &'a QueryBudget) -> Plan<'a> {
        self.budget = Some(budget);
        self
    }

    /// Runs the plan to completion.
    pub fn execute(&self) -> Result<Vec<Tuple>, ExecError> {
        Ok(self.execute_with_report()?.0)
    }

    /// Runs the plan to completion and reports what the resilience layer
    /// had to give up: buckets demoted to base-table scans (quarantined or
    /// inconsistent SMA entries) and transient-I/O retries spent. The
    /// report is empty on a healthy run.
    pub fn execute_with_report(&self) -> Result<(Vec<Tuple>, DegradationReport), ExecError> {
        // Admission checkpoint: a budget that is already expired or
        // cancelled refuses even plans that would touch no data page
        // (empty tables, pure-overlay queries).
        if let Some(b) = self.budget {
            b.check()?;
        }
        let q = &self.query;
        let (pred, group_by, specs) = (q.pred.clone(), q.group_by.clone(), q.specs.clone());
        let sma_set = || {
            self.smas
                .ok_or_else(|| ExecError::Plan("SMA plan chosen without a SMA set".into()))
        };
        let mut op = match self.kind {
            PlanKind::SmaGAggr => SmaGAggr::new(self.table, pred, group_by, specs, sma_set()?)?,
            PlanKind::SmaScanGAggr => {
                SmaGAggr::scanning(self.table, pred, group_by, specs, Some(sma_set()?))
            }
            PlanKind::FullScan => SmaGAggr::scanning(self.table, pred, group_by, specs, None),
        }
        .with_grades(&self.grades)
        .with_overlay(self.overlay);
        if let Some(b) = self.budget {
            op = op.with_budget(b);
        }
        let rows = collect(&mut op)?;
        Ok((rows, op.counters().degradation))
    }

    /// EXPLAIN-style description of the choice and its rationale.
    pub fn explain(&self) -> String {
        let mut out = format!("plan: {:?}\n", self.kind);
        match &self.estimate {
            Some(e) => {
                out.push_str(&format!(
                    "  buckets: {} ({:.1}% skipped, {:.1}% ambivalent)\n",
                    e.n_buckets,
                    e.skipped_fraction * 100.0,
                    e.ambivalent_fraction * 100.0
                ));
                out.push_str(&format!(
                    "  modeled cost (ms): full={:.1} sma_scan={:.1} sma_gaggr={}\n",
                    e.full_scan_cost_ms,
                    e.sma_scan_cost_ms,
                    e.sma_gaggr_cost_ms
                        .map(|c| format!("{c:.1}"))
                        .unwrap_or_else(|| "n/a".into()),
                ));
            }
            None => out.push_str("  no SMAs available\n"),
        }
        out.push_str(&format!(
            "  query: group_by={:?} aggs={} pred={:?}\n",
            self.query.group_by,
            self.query.specs.len(),
            self.query.pred
        ));
        out
    }
}

/// Whether `smas` can answer every aggregate of `query`.
fn aggregates_covered(smas: &SmaSet, query: &AggregateQuery) -> bool {
    let count_ok = smas
        .find_aggregate(sma_core::AggFn::Count, None, &query.group_by)
        .is_some();
    count_ok
        && query.specs.iter().all(|spec| {
            smas.find_aggregate(spec.base_fn(), spec.input(), &query.group_by)
                .is_some()
        })
}

/// Models the cost of reading the buckets selected by `read`, charging a
/// seek whenever the previous bucket was skipped (clustered ambivalent
/// runs therefore price mostly sequentially — the reason the paper's
/// breakeven sits as high as 25 %).
fn bucket_read_cost(
    grades: &[Grade],
    bucket_pages: u32,
    cm: &CostModel,
    read: impl Fn(Grade) -> bool,
) -> f64 {
    let mut cost = 0.0;
    let mut prev_read = false;
    for &g in grades {
        if read(g) {
            cost += if prev_read {
                cm.seq_read_ms * bucket_pages as f64
            } else {
                cm.rand_read_ms + cm.seq_read_ms * (bucket_pages.saturating_sub(1)) as f64
            };
            prev_read = true;
        } else {
            prev_read = false;
        }
    }
    cost
}

/// Pages of the min/max and count SMAs usable for grading `pred`.
fn selection_sma_pages(set: &SmaSet, pred: &BucketPred) -> usize {
    pred.referenced_columns()
        .into_iter()
        .map(|c| {
            set.min_sma_for(c).map(|s| s.total_pages()).unwrap_or(0)
                + set.max_sma_for(c).map(|s| s.total_pages()).unwrap_or(0)
                + set
                    .count_sma_grouped_by(c)
                    .map(|s| s.total_pages())
                    .unwrap_or(0)
        })
        .sum()
}

/// Chooses a plan for `query` over `table` given the available SMAs.
pub fn plan<'a>(
    table: &'a Table,
    query: AggregateQuery,
    smas: Option<&'a SmaSet>,
    cfg: &PlannerConfig,
) -> Plan<'a> {
    let Some(set) = smas else {
        return Plan {
            table,
            smas,
            query,
            grades: Vec::new(),
            overlay: &[],
            budget: None,
            kind: PlanKind::FullScan,
            estimate: None,
        };
    };
    let cm = &cfg.cost_model;
    let grades = Classification::classify(&query.pred, table.bucket_count(), set);
    let n_pages = table.page_count() as f64;
    let full_scan_cost_ms = if n_pages > 0.0 {
        cm.rand_read_ms + cm.seq_read_ms * (n_pages - 1.0)
    } else {
        0.0
    };
    let sel_pages = selection_sma_pages(set, &query.pred) as f64;
    let sma_scan_cost_ms = sel_pages * cm.seq_read_ms
        + bucket_read_cost(&grades.grades, table.bucket_pages(), cm, |g| {
            g != Grade::Disqualifies
        });
    let covered = aggregates_covered(set, &query);
    let sma_gaggr_cost_ms = covered.then(|| {
        // All SMA files are scanned sequentially "in sync" (§2.3).
        set.total_pages() as f64 * cm.seq_read_ms
            + bucket_read_cost(&grades.grades, table.bucket_pages(), cm, |g| {
                g == Grade::Ambivalent
            })
    });
    let estimate = Estimate {
        n_buckets: table.bucket_count(),
        ambivalent_fraction: grades.ambivalent_fraction(),
        skipped_fraction: grades.skipped_fraction(),
        full_scan_cost_ms,
        sma_gaggr_cost_ms,
        sma_scan_cost_ms,
    };
    let mut best = (PlanKind::FullScan, full_scan_cost_ms);
    if sma_scan_cost_ms < best.1 {
        best = (PlanKind::SmaScanGAggr, sma_scan_cost_ms);
    }
    if let Some(c) = sma_gaggr_cost_ms {
        if c < best.1 {
            best = (PlanKind::SmaGAggr, c);
        }
    }
    Plan {
        table,
        smas,
        query,
        grades: grades.grades,
        overlay: &[],
        budget: None,
        kind: best.0,
        estimate: Some(estimate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{Filter, SeqScan};
    use crate::gaggr::HashGAggr;
    use sma_core::{col, AggFn, CmpOp, SmaDefinition};
    use sma_types::{Column, DataType, Decimal, Schema, Value};
    use std::sync::Arc;

    fn make_table(n: i64, sorted: bool) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("G", DataType::Char),
            Column::new("P", DataType::Decimal),
            Column::new("PAD", DataType::Str),
        ]));
        let mut t = Table::in_memory("t", schema, 1);
        let pad = "p".repeat(1700);
        for i in 0..n {
            let k = if sorted { i } else { (i * 17 + 5) % n };
            t.append(&vec![
                Value::Int(k),
                Value::Char(b'A' + (k % 2) as u8),
                Value::Decimal(Decimal::from_int(k)),
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
            ],
        )
        .unwrap()
    }

    fn query(cutoff: i64) -> AggregateQuery {
        AggregateQuery {
            pred: BucketPred::cmp(0, CmpOp::Le, cutoff),
            group_by: vec![1],
            specs: vec![AggSpec::CountStar, AggSpec::Sum(col(2))],
        }
    }

    /// `plan()`'s grades with its choice overridden to `kind`, so every
    /// strategy can run over the same table.
    fn forced<'a>(
        t: &'a Table,
        smas: Option<&'a SmaSet>,
        q: AggregateQuery,
        kind: PlanKind,
    ) -> Plan<'a> {
        let mut p = plan(t, q, smas, &PlannerConfig::default());
        p.kind = kind;
        p
    }

    #[test]
    fn sorted_data_low_cutoff_uses_sma_gaggr() {
        let t = make_table(60, true);
        let set = full_set(&t);
        let p = plan(&t, query(10), Some(&set), &PlannerConfig::default());
        assert_eq!(p.kind, PlanKind::SmaGAggr);
        let e = p.estimate.unwrap();
        assert!(e.ambivalent_fraction <= 0.25, "{e:?}");
        assert!(e.sma_gaggr_cost_ms.unwrap() < e.full_scan_cost_ms);
        assert!(p.explain().contains("SmaGAggr"));
    }

    #[test]
    fn shuffled_data_falls_back_to_full_scan() {
        let t = make_table(60, false);
        let set = full_set(&t);
        // Mid-range cutoff on shuffled data: nearly every bucket straddles
        // the cutoff, so the SMA plans pay random reads for almost all
        // buckets and lose to the sequential scan.
        let p = plan(&t, query(30), Some(&set), &PlannerConfig::default());
        assert_eq!(p.kind, PlanKind::FullScan);
        assert!(p.estimate.unwrap().ambivalent_fraction > 0.25);
    }

    #[test]
    fn missing_aggregate_smas_degrade_to_smascan() {
        let t = make_table(60, true);
        let minmax_only = SmaSet::build(
            &t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
            ],
        )
        .unwrap();
        let p = plan(&t, query(10), Some(&minmax_only), &PlannerConfig::default());
        assert_eq!(p.kind, PlanKind::SmaScanGAggr);
        assert!(p.estimate.unwrap().sma_gaggr_cost_ms.is_none());
    }

    #[test]
    fn no_smas_full_scan() {
        let t = make_table(20, true);
        let p = plan(&t, query(10), None, &PlannerConfig::default());
        assert_eq!(p.kind, PlanKind::FullScan);
        assert!(p.estimate.is_none());
        assert!(p.explain().contains("no SMAs"));
    }

    #[test]
    fn all_plans_agree_on_the_answer() {
        for sorted in [true, false] {
            let t = make_table(60, sorted);
            let set = full_set(&t);
            for cutoff in [5i64, 30, 59] {
                let q = query(cutoff);
                let mut answers = Vec::new();
                for kind in [
                    PlanKind::SmaGAggr,
                    PlanKind::SmaScanGAggr,
                    PlanKind::FullScan,
                ] {
                    let p = forced(&t, Some(&set), q.clone(), kind);
                    answers.push(p.execute().unwrap());
                }
                assert_eq!(answers[0], answers[1], "sorted={sorted} cutoff={cutoff}");
                assert_eq!(answers[1], answers[2], "sorted={sorted} cutoff={cutoff}");
            }
        }
    }

    #[test]
    fn overlay_matches_bulk_load_for_every_plan_kind() {
        // The sealed table holds rows 0..split; the overlay holds the
        // rest (split 0: an empty sealed table plus a memtable). Every
        // plan kind over (sealed + overlay) must equal the reference
        // aggregation over a single 60-row table — `avg` included, and
        // the one SQL row a global aggregate owes even when no tuple
        // passes (cutoff -1).
        let whole = make_table(60, true);
        let all_rows: Vec<MemRow> = whole
            .scan()
            .unwrap()
            .into_iter()
            .map(|(_, row)| (0, row))
            .collect();
        for split in [40, 0] {
            let mut base = Table::in_memory("t", whole.schema().clone(), 1);
            for (_, row) in &all_rows[..split] {
                base.append(row).unwrap();
            }
            // Aggregate SMAs covering every spec below, so the forced
            // SmaGAggr kind is actually executable.
            let set = SmaSet::build(
                &base,
                vec![
                    SmaDefinition::new("min", AggFn::Min, col(0)),
                    SmaDefinition::new("max", AggFn::Max, col(0)),
                    SmaDefinition::count("count").group_by(vec![1]),
                    SmaDefinition::new("sum_p", AggFn::Sum, col(2)).group_by(vec![1]),
                    SmaDefinition::new("sum_k", AggFn::Sum, col(0)).group_by(vec![1]),
                    SmaDefinition::new("min_k", AggFn::Min, col(0)).group_by(vec![1]),
                ],
            )
            .unwrap();
            for cutoff in [-1i64, 5, 39, 45, 59] {
                for (group_by, specs) in [
                    (vec![1], vec![AggSpec::CountStar, AggSpec::Sum(col(2))]),
                    (vec![1], vec![AggSpec::Avg(col(2)), AggSpec::Min(col(0))]),
                    (vec![1], vec![AggSpec::Avg(col(0))]),
                    (vec![], vec![AggSpec::CountStar, AggSpec::Avg(col(2))]),
                ] {
                    let q = AggregateQuery {
                        pred: BucketPred::cmp(0, CmpOp::Le, cutoff),
                        group_by,
                        specs,
                    };
                    let expected = collect(&mut HashGAggr::new(
                        Box::new(Filter::new(Box::new(SeqScan::new(&whole)), q.pred.clone())),
                        q.group_by.clone(),
                        q.specs.clone(),
                    ))
                    .unwrap();
                    if cutoff < 0 && q.group_by.is_empty() {
                        assert_eq!(expected, vec![vec![Value::Int(0), Value::Null]]);
                    }
                    for kind in [
                        PlanKind::SmaGAggr,
                        PlanKind::SmaScanGAggr,
                        PlanKind::FullScan,
                    ] {
                        let p = forced(&base, Some(&set), q.clone(), kind)
                            .with_overlay(&all_rows[split..]);
                        assert_eq!(
                            p.execute().unwrap(),
                            expected,
                            "kind={kind:?} split={split} cutoff={cutoff} q={q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_overlay_is_a_true_noop_for_every_plan_kind() {
        // `with_overlay(&[])` must leave the plan exactly as planned —
        // same kind, same rows — so a fully-flushed streaming warehouse
        // is indistinguishable from a bulk-loaded one.
        let t = make_table(60, true);
        let set = full_set(&t);
        let q = AggregateQuery {
            pred: BucketPred::cmp(0, CmpOp::Le, 10),
            group_by: vec![1],
            specs: vec![
                AggSpec::CountStar,
                AggSpec::Sum(col(2)),
                AggSpec::Avg(col(2)),
            ],
        };
        let baseline = plan(&t, q.clone(), Some(&set), &PlannerConfig::default());
        let kind = baseline.kind;
        let want = baseline.execute().unwrap();
        let wrapped = plan(&t, q.clone(), Some(&set), &PlannerConfig::default()).with_overlay(&[]);
        assert_eq!(
            wrapped.kind, kind,
            "an empty overlay must not change the plan kind"
        );
        assert_eq!(wrapped.execute().unwrap(), want);
    }

    #[test]
    fn overlay_only_groups_and_empty_overlay() {
        // Groups that exist only in the overlay must appear; an overlay
        // none of whose tuples pass the predicate must change nothing.
        let t = make_table(20, true);
        let set = full_set(&t);
        let q = query(1000);
        let baseline = plan(&t, q.clone(), Some(&set), &PlannerConfig::default())
            .execute()
            .unwrap();
        // 'Z' is a group absent from the sealed table.
        let extra = [(
            0,
            vec![
                Value::Int(100),
                Value::Char(b'Z'),
                Value::Decimal(Decimal::from_int(7)),
                Value::Str("x".into()),
            ],
        )];
        let with_new_group = plan(&t, q.clone(), Some(&set), &PlannerConfig::default())
            .with_overlay(&extra)
            .execute()
            .unwrap();
        assert_eq!(with_new_group.len(), baseline.len() + 1);
        let z = with_new_group.last().unwrap();
        assert_eq!(z[0], Value::Char(b'Z'));
        assert_eq!(z[1], Value::Int(1));
        // Filtered-out overlay tuple: identical to baseline.
        let filtered = plan(&t, query(5), Some(&set), &PlannerConfig::default())
            .with_overlay(&extra)
            .execute()
            .unwrap();
        let narrow = plan(&t, query(5), Some(&set), &PlannerConfig::default())
            .execute()
            .unwrap();
        assert_eq!(filtered, narrow);
    }

    /// A full scan over a columnar-converted table must produce the same
    /// rows as before conversion and charge the budget exactly one unit
    /// per data page (columnar buckets charge their range at once, row
    /// buckets page by page — the totals tile `0..page_count` either
    /// way). Every plan kind keeps agreeing after conversion.
    #[test]
    fn columnar_buckets_preserve_full_scan_answers_and_charges() {
        let mut t = make_table(60, true);
        let set = full_set(&t);
        let q = query(30);
        let expected = plan(&t, q.clone(), None, &PlannerConfig::default())
            .execute()
            .unwrap();
        let converted = t.convert_buckets_from(0).unwrap();
        assert!(!converted.is_empty());
        let budget = QueryBudget::unbounded();
        let p = forced(&t, None, q.clone(), PlanKind::FullScan).with_budget(&budget);
        assert_eq!(p.execute().unwrap(), expected);
        assert_eq!(budget.pages_charged(), u64::from(t.page_count()));
        for kind in [
            PlanKind::SmaGAggr,
            PlanKind::SmaScanGAggr,
            PlanKind::FullScan,
        ] {
            let p = forced(&t, Some(&set), q.clone(), kind);
            assert_eq!(p.execute().unwrap(), expected, "{kind:?}");
        }
    }

    #[test]
    fn clustered_ambivalence_prices_sequentially() {
        use Grade::*;
        let cm = CostModel {
            seq_read_ms: 1.0,
            rand_read_ms: 10.0,
            write_ms: 0.0,
            failed_read_ms: 0.0,
        };
        // Contiguous run: 1 seek + 3 sequential.
        let run = vec![
            Disqualifies,
            Ambivalent,
            Ambivalent,
            Ambivalent,
            Disqualifies,
        ];
        let clustered = bucket_read_cost(&run, 1, &cm, |g| g == Ambivalent);
        assert!((clustered - 12.0).abs() < 1e-9);
        // Same count, scattered: 3 seeks.
        let scattered = vec![
            Ambivalent,
            Disqualifies,
            Ambivalent,
            Disqualifies,
            Ambivalent,
        ];
        let s = bucket_read_cost(&scattered, 1, &cm, |g| g == Ambivalent);
        assert!((s - 30.0).abs() < 1e-9);
        // Multi-page buckets amortize the seek.
        let one = bucket_read_cost(&[Ambivalent], 4, &cm, |g| g == Ambivalent);
        assert!((one - 13.0).abs() < 1e-9);
    }
    #[test]
    fn budget_page_cap_cuts_off_every_plan_kind() {
        use sma_storage::BudgetExceeded;
        // Cutoff 30 on sorted data leaves an ambivalent bucket, so even
        // the SMA plan must touch at least one data page; a zero-page cap
        // therefore trips every strategy with a structured error.
        let t = make_table(60, true);
        let set = full_set(&t);
        let q = query(30);
        for kind in [
            PlanKind::SmaGAggr,
            PlanKind::SmaScanGAggr,
            PlanKind::FullScan,
        ] {
            let budget = QueryBudget::unbounded().with_page_cap(0);
            let p = forced(&t, Some(&set), q.clone(), kind).with_budget(&budget);
            let err = p.execute().unwrap_err();
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Pages { .. })),
                "{kind:?}: {err}"
            );
        }
    }

    #[test]
    fn budget_deadline_and_cancel_cut_off_every_plan_kind() {
        use sma_storage::BudgetExceeded;
        use std::time::Duration;
        let t = make_table(60, true);
        let set = full_set(&t);
        for kind in [
            PlanKind::SmaGAggr,
            PlanKind::SmaScanGAggr,
            PlanKind::FullScan,
        ] {
            let expired = QueryBudget::unbounded().with_deadline(Duration::ZERO);
            let p = forced(&t, Some(&set), query(30), kind).with_budget(&expired);
            let err = p.execute().unwrap_err();
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Deadline { .. })),
                "{kind:?}: {err}"
            );

            let cancelled = QueryBudget::unbounded();
            cancelled.cancel();
            let p = forced(&t, Some(&set), query(30), kind).with_budget(&cancelled);
            let err = p.execute().unwrap_err();
            assert!(
                matches!(err, ExecError::Budget(BudgetExceeded::Cancelled)),
                "{kind:?}: {err}"
            );
        }
    }

    #[test]
    fn unbounded_budget_is_invisible_and_charges_match_pages() {
        let t = make_table(60, true);
        let set = full_set(&t);
        let q = query(30);
        let budget = QueryBudget::unbounded();
        let with_budget = forced(&t, Some(&set), q.clone(), PlanKind::FullScan)
            .with_budget(&budget)
            .execute()
            .unwrap();
        let bare = forced(&t, Some(&set), q, PlanKind::FullScan)
            .execute()
            .unwrap();
        assert_eq!(with_budget, bare);
        // A full scan charges exactly one unit per data page: the same
        // logical-page count IoStats would tally single-threaded.
        assert_eq!(budget.pages_charged(), u64::from(t.page_count()));
    }
}
