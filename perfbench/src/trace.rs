//! The traced run: the workload's seeded request sequence replayed in
//! process, without the server, timing each layer by calling its public
//! functions from outside. The program itself carries no tracing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sma_server::statement::{AggAst, PredAst, Statement};
use sma_server::{Response, Status};
use smadb::exec::{plan, AggSpec, AggregateQuery, PlanKind, PlannerConfig};
use smadb::ingest::{CommitPolicy, StreamingWarehouse};
use smadb::sma::{col, BucketPred, Classification, Grade};
use smadb::storage::{QueryBudget, Table, TableError};
use smadb::types::{DataType, Date, Decimal, Schema, Value};
use smadb::CompactionPolicy;

use crate::fixture::{self, Inserts, Picker, Rows, Shape, Workload, FLUSH_ROWS, MAX_SEGMENTS};
use crate::serve::Expected;
use crate::stats::{Metrics, Samples, Tally};

/// Binds a parsed select against `schema` exactly as sma-server's
/// session loop does before it queries the warehouse.
pub fn bind(schema: &Arc<Schema>, stmt: Statement) -> Result<(String, AggregateQuery), String> {
    let Statement::Select {
        aggs,
        relation,
        predicates,
        group_by,
    } = stmt
    else {
        return Err("not a select".into());
    };
    let col_idx = |name: &str| -> Result<usize, String> {
        schema
            .index_of(name)
            .ok_or_else(|| format!("unknown column `{name}`"))
    };
    let specs = aggs
        .iter()
        .map(|a| {
            Ok(match a {
                AggAst::CountStar => AggSpec::CountStar,
                AggAst::Min(c) => AggSpec::Min(col(col_idx(c)?)),
                AggAst::Max(c) => AggSpec::Max(col(col_idx(c)?)),
                AggAst::Sum(c) => AggSpec::Sum(col(col_idx(c)?)),
                AggAst::Avg(c) => AggSpec::Avg(col(col_idx(c)?)),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut atoms = predicates
        .iter()
        .map(
            |PredAst {
                 column,
                 op,
                 literal,
             }| {
                let idx = col_idx(column)?;
                Ok(BucketPred::Cmp {
                    col: idx,
                    op: *op,
                    value: bind_value(literal, schema.column(idx).ty)?,
                })
            },
        )
        .collect::<Result<Vec<_>, String>>()?;
    let pred = match atoms.len() {
        0 => BucketPred::And(Vec::new()),
        1 => atoms.swap_remove(0),
        _ => BucketPred::And(atoms),
    };
    let group_by = group_by
        .iter()
        .map(|c| col_idx(c))
        .collect::<Result<Vec<_>, String>>()?;
    Ok((
        relation,
        AggregateQuery {
            pred,
            group_by,
            specs,
        },
    ))
}

fn bind_value(raw: &str, ty: DataType) -> Result<Value, String> {
    let bad = |e: String| format!("`{raw}` does not bind as {ty:?}: {e}");
    match ty {
        DataType::Int => raw.parse().map(Value::Int).map_err(|e| bad(format!("{e}"))),
        DataType::Decimal => Decimal::parse(raw)
            .map(Value::Decimal)
            .map_err(|e| bad(e.to_string())),
        DataType::Date => Date::parse(raw)
            .map(Value::Date)
            .map_err(|e| bad(e.to_string())),
        DataType::Char => match raw.as_bytes() {
            [b] => Ok(Value::Char(*b)),
            _ => Err(bad("not one byte".into())),
        },
        DataType::Str => Ok(Value::Str(raw.to_string())),
    }
}

/// The buckets a plan reads: the ambivalent ones under `SmaGAggr`
/// (qualifying buckets are answered from SMAs), every bucket not
/// disqualified under `SmaScanGAggr`, and all of them under `FullScan`.
pub fn buckets_read(kind: PlanKind, grades: &Classification) -> Vec<u32> {
    (0u32..)
        .zip(&grades.grades)
        .filter(|(_, g)| match kind {
            PlanKind::SmaGAggr => **g == Grade::Ambivalent,
            PlanKind::SmaScanGAggr => **g != Grade::Disqualifies,
            PlanKind::FullScan => true,
        })
        .map(|(b, _)| b)
        .collect()
}

/// Visits every page of `buckets` without looking at a tuple; returns
/// the pages visited.
pub fn page_read_pass(table: &Table, buckets: &[u32]) -> Result<u64, String> {
    let mut pages = 0u64;
    for &b in buckets {
        table
            .for_each_in_bucket::<TableError, _>(b, |_, _| Ok(()))
            .map_err(|e| format!("page pass over bucket {b}: {e}"))?;
        pages += table.bucket_range(b).len() as u64;
    }
    Ok(pages)
}

/// Per-layer samples and counts of one replay.
#[derive(Default)]
pub struct Layers {
    parse: Samples,
    codec: Samples,
    query: Samples,
    /// `query` split by select shape, for `server.unattributed_us`.
    query_by_shape: BTreeMap<Shape, Samples>,
    overlay: Samples,
    plan: Samples,
    execute: Samples,
    kernel: Samples,
    classify: Samples,
    page_read: Samples,
    append: Samples,
    sync: Samples,
    flush_ms: Samples,
    compact_ms: Samples,
    queries: u64,
    overlay_rows: u64,
    grades: [u64; 3],
    plan_kinds: BTreeMap<&'static str, u64>,
    logical_reads: u64,
    physical_reads: u64,
    pages_charged: u64,
    ambivalent_read: u64,
    ambivalent_useful: u64,
    rows_inserted: u64,
    wal_bytes: u64,
    flushes: u64,
    compactions: u64,
    pub page_pass_mismatches: u64,
    pub tally: Tally,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn kind_name(k: PlanKind) -> &'static str {
    match k {
        PlanKind::SmaGAggr => "SmaGAggr",
        PlanKind::SmaScanGAggr => "SmaScanGAggr",
        PlanKind::FullScan => "FullScan",
    }
}

fn to_rows(rows: &[Vec<Value>]) -> Rows {
    rows.iter()
        .map(|r| r.iter().map(Value::to_string).collect())
        .collect()
}

impl Layers {
    /// Replays one select through every layer in the server's order.
    fn read(
        &mut self,
        sw: &StreamingWarehouse,
        sel: &fixture::Select,
        want: &Rows,
        useful: &mut BTreeMap<(String, u32), u64>,
    ) -> Result<(), String> {
        let t = Instant::now();
        let stmt = Statement::parse(&sel.text)?;
        self.parse.push(us(t));

        let wh = sw.warehouse();
        let table = wh
            .table(sel.relation)
            .ok_or_else(|| format!("no relation {}", sel.relation))?;
        let (relation, query) = bind(table.schema(), stmt)?;
        let smas = wh.smas(&relation);

        let t = Instant::now();
        let grades = smas.map(|s| Classification::classify(&query.pred, table.bucket_count(), s));
        let classify_us = us(t);
        self.classify.push(classify_us);

        let t = Instant::now();
        let chosen = plan(table, query.clone(), smas, &PlannerConfig::default());
        let plan_us = us(t);
        self.plan.push(plan_us);

        let budget = QueryBudget::unbounded();
        let chosen = chosen.with_budget(&budget);
        let io = table.io_stats();
        let t = Instant::now();
        let executed = chosen.execute_with_report();
        let execute_us = us(t);
        let io_after = table.io_stats();
        self.execute.push(execute_us);
        self.logical_reads += io_after.logical_reads - io.logical_reads;
        self.physical_reads += io_after.physical_reads - io.physical_reads;
        self.pages_charged += budget.pages_charged();
        *self.plan_kinds.entry(kind_name(chosen.kind)).or_default() += 1;

        let grades = grades.unwrap_or_else(|| Classification {
            grades: vec![Grade::Ambivalent; table.bucket_count() as usize],
        });
        for (i, g) in [Grade::Qualifies, Grade::Ambivalent, Grade::Disqualifies]
            .into_iter()
            .enumerate()
        {
            self.grades[i] += grades.count(g) as u64;
        }
        let read = buckets_read(chosen.kind, &grades);
        let t = Instant::now();
        let pages = page_read_pass(table, &read)?;
        let page_read_us = us(t);
        self.page_read.push(page_read_us);
        if pages != budget.pages_charged() {
            self.page_pass_mismatches += 1;
        }
        self.kernel.push(execute_us - classify_us - page_read_us);

        let ambivalent: Vec<u32> = read
            .iter()
            .copied()
            .filter(|&b| grades.grades[b as usize] == Grade::Ambivalent)
            .collect();
        self.ambivalent_read += ambivalent.len() as u64;
        let key = (sel.text.clone(), table.page_count());
        if !useful.contains_key(&key) {
            let mut n = 0;
            for &b in &ambivalent {
                let tuples = table
                    .scan_bucket(b)
                    .map_err(|e| format!("usefulness scan of bucket {b}: {e}"))?;
                if tuples.iter().any(|(_, t)| fixture::matches(sel, t)) {
                    n += 1;
                }
            }
            useful.insert(key.clone(), n);
        }
        self.ambivalent_useful += useful[&key];

        self.overlay_rows += sw.buffered() as u64;
        let t = Instant::now();
        let result = sw.query(&relation, query);
        let query_us = us(t);
        self.query.push(query_us);
        self.query_by_shape
            .entry(sel.shape)
            .or_default()
            .push(query_us);
        self.overlay.push(query_us - plan_us - execute_us);
        self.queries += 1;

        let direct_ok = executed.is_ok_and(|(rows, _)| to_rows(&rows) == *want);
        let result = result.map_err(|e| format!("query: {e}"))?;
        let resp = Response {
            status: Status::Ok,
            epoch: sw.epoch(),
            info: format!("{:?}", result.plan_kind),
            rows: to_rows(&result.rows),
        };
        let t = Instant::now();
        let decoded = Response::decode(&resp.encode());
        self.codec.push(us(t));
        let ok = direct_ok && decoded.is_ok_and(|d| d == resp && d.rows == *want);
        if !ok {
            eprintln!("MISMATCH (traced) request `{}`", sel.text);
        }
        self.tally.record(ok);
        Ok(())
    }

    /// Appends one row, commits it (the fsync), and runs the flush and
    /// compaction the stated policies would run at this point.
    fn insert(&mut self, sw: &mut StreamingWarehouse, tuple: &[Value]) -> Result<(), String> {
        let before = sw.wal_tail_bytes();
        let t = Instant::now();
        let r = sw.insert("L", &tuple.to_vec());
        self.append.push(us(t));
        self.wal_bytes += sw.wal_tail_bytes().saturating_sub(before);
        let t = Instant::now();
        let c = sw.commit();
        self.sync.push(us(t));
        let ok = r.is_ok() && c.is_ok();
        self.tally.record(ok);
        if !ok {
            eprintln!("MISMATCH (traced) insert: {r:?} {c:?}");
            return Ok(());
        }
        self.rows_inserted += 1;
        if sw.buffered() >= FLUSH_ROWS {
            let t = Instant::now();
            sw.flush().map_err(|e| format!("flush: {e}"))?;
            self.flush_ms.push(us(t) / 1e3);
            self.flushes += 1;
            if sw.warehouse().max_segment_count() > MAX_SEGMENTS {
                let t = Instant::now();
                sw.compact().map_err(|e| format!("compact: {e}"))?;
                self.compact_ms.push(us(t) / 1e3);
                self.compactions += 1;
            }
        }
        Ok(())
    }

    /// The per-layer metrics. `ping_us` and `client_p50s` (the client's
    /// read p50 per select shape) come from the served half of the run;
    /// `server.unattributed_us` is what each shape's client p50 leaves
    /// after the layers timed here, averaged over the shapes.
    pub fn metrics(&self, ping_us: Option<f64>, client_p50s: &[(Shape, f64)]) -> Metrics {
        let mut m = Metrics::default();
        let per_query = |n: u64| n as f64 / self.queries.max(1) as f64;
        m.put_some("server.ping_rtt_us", ping_us, "us");
        m.put_some("server.parse_us", self.parse.p50(), "us");
        m.put_some("server.codec_us", self.codec.p50(), "us");
        let unattributed: Vec<f64> = client_p50s
            .iter()
            .filter_map(|(shape, client)| {
                let query = self.query_by_shape.get(shape).and_then(Samples::p50);
                let parts = [ping_us, self.parse.p50(), self.codec.p50(), query];
                Some(client - parts.into_iter().sum::<Option<f64>>()?)
            })
            .collect();
        if !unattributed.is_empty() {
            m.put(
                "server.unattributed_us",
                unattributed.iter().sum::<f64>() / unattributed.len() as f64,
                "us",
            );
        }
        m.put_some("ingest.query_us", self.query.p50(), "us");
        m.put("ingest.overlay_rows", per_query(self.overlay_rows), "count");
        m.put_some("ingest.overlay_us", self.overlay.p50(), "us");
        m.put_some("ingest.append_us", self.append.p50(), "us");
        m.put_some("ingest.sync_us", self.sync.p50(), "us");
        m.put_some("ingest.flush_ms", self.flush_ms.p50(), "ms");
        m.put("ingest.flushes", self.flushes as f64, "count");
        m.put_some("ingest.compact_ms", self.compact_ms.p50(), "ms");
        m.put("ingest.compactions", self.compactions as f64, "count");
        if self.rows_inserted > 0 {
            m.put(
                "ingest.wal_bytes_per_row",
                self.wal_bytes as f64 / self.rows_inserted as f64,
                "B/row",
            );
        }
        m.put_some("exec.plan_us", self.plan.p50(), "us");
        m.put_some("exec.execute_us", self.execute.p50(), "us");
        m.put_some("exec.kernel_us", self.kernel.p50(), "us");
        for k in ["SmaGAggr", "SmaScanGAggr", "FullScan"] {
            let n = self.plan_kinds.get(k).copied().unwrap_or(0);
            m.put(&format!("exec.plan_kind.{k}"), per_query(n), "count");
        }
        m.put_some("core.classify_us", self.classify.p50(), "us");
        m.put("core.qualifying", per_query(self.grades[0]), "count");
        m.put("core.ambivalent", per_query(self.grades[1]), "count");
        m.put("core.disqualified", per_query(self.grades[2]), "count");
        // No ambivalent bucket read is no bucket read in vain.
        m.put(
            "core.ambivalent_useful_frac",
            if self.ambivalent_read == 0 {
                1.0
            } else {
                self.ambivalent_useful as f64 / self.ambivalent_read as f64
            },
            "frac",
        );
        m.put(
            "storage.logical_reads",
            per_query(self.logical_reads),
            "count",
        );
        m.put(
            "storage.physical_reads",
            per_query(self.physical_reads),
            "count",
        );
        // No page requested is no page missed.
        m.put(
            "storage.hit_ratio",
            if self.logical_reads == 0 {
                1.0
            } else {
                1.0 - self.physical_reads as f64 / self.logical_reads as f64
            },
            "frac",
        );
        m.put(
            "storage.pages_charged",
            per_query(self.pages_charged),
            "count",
        );
        m.put_some("storage.page_read_us", self.page_read.p50(), "us");
        m
    }
}

/// Rows the write-path probe inserts at least: enough for several
/// flushes and one compaction under the stated policies.
pub const PROBE_ROWS: usize = FLUSH_ROWS * (MAX_SEGMENTS + 2);

/// Stages each insert so `insert` is the WAL append alone and `commit`
/// the sync; flush and compaction are run (and timed) explicitly at the
/// points the served run's policies would trigger them.
pub fn stage_writes(sw: &mut StreamingWarehouse) {
    sw.set_commit_policy(CommitPolicy {
        batch_rows: usize::MAX,
        max_delay: Duration::ZERO,
    });
    sw.set_compaction_policy(CompactionPolicy { max_segments: 0 });
}

/// Replays the workload's seeded sequence on `sw` for `seconds`: the
/// reader's selects, and on `mixed` one insert before each.
pub fn replay(
    w: Workload,
    seed: u64,
    sw: &mut StreamingWarehouse,
    want: &Expected,
    seconds: f64,
) -> Result<Layers, String> {
    stage_writes(sw);
    let mut layers = Layers::default();
    let mut picker = Picker::new(w, seed, want.pool.len());
    let mut inserts = (w == Workload::Mixed).then(|| Inserts::new(seed));
    let mut useful = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Every shape is replayed at least once, however short the window.
    while (layers.queries as usize) < picker.shapes() || Instant::now() < deadline {
        if let Some(ins) = &mut inserts {
            let row = ins.next_row();
            layers.insert(sw, &ins.tuple(row))?;
        }
        let i = picker.next();
        layers.read(sw, &want.pool[i], &want.rows[i], &mut useful)?;
    }
    if let Some(ins) = &mut inserts {
        write_probe(&mut layers, sw, ins)?;
    }
    Ok(layers)
}

/// The ingest layer's write path on its own: inserts `mixed`'s seeded
/// rows into `sw` (staged, see [`stage_writes`]) until it holds at least
/// [`PROBE_ROWS`] of them and has compacted once. On `mixed` the replay
/// has usually done both already; the other workloads write nothing, so
/// their traced run calls this on a fresh `point` fixture.
pub fn write_probe(
    layers: &mut Layers,
    sw: &mut StreamingWarehouse,
    ins: &mut Inserts,
) -> Result<(), String> {
    stage_writes(sw);
    while (layers.rows_inserted as usize) < PROBE_ROWS || layers.compactions == 0 {
        if layers.rows_inserted as usize > 10 * PROBE_ROWS {
            return Err(format!(
                "{} rows inserted without a compaction",
                layers.rows_inserted
            ));
        }
        let before = layers.tally.failed;
        let row = ins.next_row();
        layers.insert(sw, &ins.tuple(row))?;
        if layers.tally.failed > before {
            return Err("write probe insert failed".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The page pass visits exactly the pages execution charged to its
    /// budget, on every plan kind the workloads produce.
    #[test]
    fn page_read_pass_visits_exactly_the_pages_charged() {
        let dir = crate::work_dir().join(format!("test-pass-{}", std::process::id()));
        let sw = fixture::build(Workload::Point, 11, &dir).unwrap();
        let table = sw.warehouse().table("L").unwrap();
        let smas = sw.warehouse().smas("L");
        let mut kinds = Vec::new();
        for text in [
            fixture::point_select(5000).text,
            "select count(*) from L where K <= 3000".to_string(),
            "select sum(V) from L where K <= 3000".to_string(),
            "select count(*), max(V) from L where V <= 5000".to_string(),
        ] {
            let (_, q) = bind(table.schema(), Statement::parse(&text).unwrap()).unwrap();
            let grades = Classification::classify(&q.pred, table.bucket_count(), smas.unwrap());
            let budget = QueryBudget::unbounded();
            let p = plan(table, q, smas, &PlannerConfig::default()).with_budget(&budget);
            p.execute_with_report().unwrap();
            let pages = page_read_pass(table, &buckets_read(p.kind, &grades)).unwrap();
            assert_eq!(pages, budget.pages_charged(), "{text}");
            assert!(pages > 0, "{text}");
            kinds.push(p.kind);
        }
        assert!(kinds.contains(&PlanKind::SmaGAggr), "{kinds:?}");
        assert!(kinds.contains(&PlanKind::SmaScanGAggr), "{kinds:?}");
        assert!(kinds.contains(&PlanKind::FullScan), "{kinds:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
