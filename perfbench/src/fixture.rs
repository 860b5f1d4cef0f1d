//! Workloads: seeded data, SMA definitions, request streams and the oracle.
//!
//! Everything a run sends is a pure function of the command-line seed:
//! the table contents (`GenConfig.seed`, the `point` fixture's V column),
//! the query parameters, and the keys and values the `mixed` inserter
//! writes. The program only ever sees the generated statements.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use smadb::ingest::{CommitPolicy, StreamingWarehouse};
use smadb::storage::Table;
use smadb::tpcd::{generate_lineitem_table, Clustering, GenConfig};
use smadb::types::{Column, DataType, Date, Decimal, Schema, StdRng, Value};
use smadb::{CompactionPolicy, Warehouse};

/// The named traffic mixes; see the README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Point,
    TpcdSma,
    TpcdScan,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Point,
        Workload::TpcdSma,
        Workload::TpcdScan,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::TpcdSma => "tpcd_sma",
            Workload::TpcdScan => "tpcd_scan",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_tpcd(self) -> bool {
        matches!(self, Workload::TpcdSma | Workload::TpcdScan)
    }

    pub fn relation(self) -> &'static str {
        if self.is_tpcd() {
            "LINEITEM"
        } else {
            "L"
        }
    }
}

// ------------------------------------------------------------------ data

/// Rows of the `point` fixture; keys are `0..POINT_ROWS`.
pub const POINT_ROWS: i64 = 12_000;
const POINT_PAD: usize = 80;
/// Width of the point query's key range, `K in [a, a + POINT_SPAN]`.
const POINT_SPAN: i64 = 200;
/// TPC-D scale factor of the LINEITEM workloads (about 300,800 rows).
const TPCD_SF: f64 = 0.05;
const BUCKET_PAGES: u32 = 4;

/// sma-server's own default commit policy: one fsync per acked insert.
pub const COMMIT_POLICY: CommitPolicy = CommitPolicy {
    batch_rows: 1,
    max_delay: Duration::from_millis(5),
};
/// Memtable rows that trigger a flush; low enough that every `mixed`
/// run flushes several times.
pub const FLUSH_ROWS: usize = 500;
/// Compact once a table has more segments than this; every `mixed` run
/// passes it at least once.
pub const MAX_SEGMENTS: usize = 4;

const POINT_SMAS: [&str; 5] = [
    "define sma l_cnt select count(*) from L",
    "define sma l_kmin select min(K) from L",
    "define sma l_kmax select max(K) from L",
    "define sma l_vmin select min(V) from L",
    "define sma l_vmax select max(V) from L",
];

const TPCD_SMAS: [&str; 10] = [
    "define sma ship_min select min(L_SHIPDATE) from LINEITEM",
    "define sma ship_max select max(L_SHIPDATE) from LINEITEM",
    "define sma disc_min select min(L_DISCOUNT) from LINEITEM",
    "define sma disc_max select max(L_DISCOUNT) from LINEITEM",
    "define sma qty_min select min(L_QUANTITY) from LINEITEM",
    "define sma qty_max select max(L_QUANTITY) from LINEITEM",
    "define sma cnt select count(*) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
    "define sma qty_sum select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
    "define sma price_sum select sum(L_EXTENDEDPRICE) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
    "define sma disc_sum select sum(L_DISCOUNT) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
];

/// Independent random streams drawn from one seed.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
const DATA: u64 = 1;
const PARAMS: u64 = 2;
const INSERTS: u64 = 3;
const PICKS: u64 = 4;

fn point_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("V", DataType::Int),
        Column::new("PAD", DataType::Str),
    ]))
}

fn pad() -> String {
    "p".repeat(POINT_PAD)
}

fn point_table(seed: u64) -> Result<Table, String> {
    let mut r = rng(seed, DATA);
    let mut t = Table::in_memory("L", point_schema(), BUCKET_PAGES);
    let pad = pad();
    for k in 0..POINT_ROWS {
        let v: i64 = r.random_range(0..10_000i64);
        t.append(&vec![Value::Int(k), Value::Int(v), Value::Str(pad.clone())])
            .map_err(|e| format!("load L: {e}"))?;
    }
    Ok(t)
}

fn tpcd_config(w: Workload, seed: u64) -> GenConfig {
    let clustering = match w {
        Workload::TpcdSma => Clustering::diagonal_default(),
        _ => Clustering::Uniform,
    };
    GenConfig {
        seed,
        bucket_pages: BUCKET_PAGES,
        ..GenConfig::scale_factor(TPCD_SF, clustering)
    }
}

/// Generates and loads the workload's table, defines its SMAs, and seals
/// it into a streaming warehouse in `dir` under the stated policies.
pub fn build(w: Workload, seed: u64, dir: &Path) -> Result<StreamingWarehouse, String> {
    let (table, smas): (Table, &[&str]) = if w.is_tpcd() {
        (generate_lineitem_table(&tpcd_config(w, seed)), &TPCD_SMAS)
    } else {
        (point_table(seed)?, &POINT_SMAS)
    };
    let mut wh = Warehouse::new();
    wh.register(table).map_err(|e| format!("register: {e}"))?;
    for s in smas {
        wh.define_sma(s).map_err(|e| format!("{s}: {e}"))?;
    }
    let mut sw = StreamingWarehouse::create(dir, wh, FLUSH_ROWS)
        .map_err(|e| format!("create warehouse: {e}"))?;
    sw.set_commit_policy(COMMIT_POLICY);
    sw.set_compaction_policy(CompactionPolicy {
        max_segments: MAX_SEGMENTS,
    });
    Ok(sw)
}

// --------------------------------------------------------------- queries

/// Which latency series a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    Read,
    Q1,
    Q6,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lt,
    Le,
    Ge,
}

impl Op {
    fn sql(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Ge => ">=",
        }
    }

    fn holds(self, ord: Ordering) -> bool {
        match self {
            Op::Lt => ord == Ordering::Less,
            Op::Le => ord != Ordering::Greater,
            Op::Ge => ord != Ordering::Less,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Count,
    Min(usize),
    Max(usize),
    Sum(usize),
    Avg(usize),
}

/// A select the benchmark sends, kept structured so the oracle evaluates
/// it without the program's parser, planner or SMAs.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub shape: Shape,
    pub relation: &'static str,
    pub aggs: Vec<Agg>,
    pub preds: Vec<(usize, Op, Value)>,
    pub group_by: Vec<usize>,
    /// The statement text sent to the server.
    pub text: String,
}

impl Select {
    fn new(
        shape: Shape,
        relation: &'static str,
        schema: &Schema,
        aggs: Vec<Agg>,
        preds: Vec<(usize, Op, Value)>,
        group_by: Vec<usize>,
    ) -> Select {
        let name = |c: usize| schema.column(c).name.clone();
        let list: Vec<String> = aggs
            .iter()
            .map(|a| match *a {
                Agg::Count => "count(*)".to_string(),
                Agg::Min(c) => format!("min({})", name(c)),
                Agg::Max(c) => format!("max({})", name(c)),
                Agg::Sum(c) => format!("sum({})", name(c)),
                Agg::Avg(c) => format!("avg({})", name(c)),
            })
            .collect();
        let mut text = format!("select {} from {relation}", list.join(", "));
        for (i, (c, op, v)) in preds.iter().enumerate() {
            let kw = if i == 0 { "where" } else { "and" };
            text.push_str(&format!(" {kw} {} {} {v}", name(*c), op.sql()));
        }
        if !group_by.is_empty() {
            let cols: Vec<String> = group_by.iter().map(|&c| name(c)).collect();
            text.push_str(&format!(" group by {}", cols.join(", ")));
        }
        Select {
            shape,
            relation,
            aggs,
            preds,
            group_by,
            text,
        }
    }
}

/// Distinct parameter sets per query shape. Every request a run sends is
/// one of these, so the oracle answers them all once at set-up.
const POINT_PARAMS: i64 = 64;
/// One Q6 parameter set per full shipping year, 1993 to 1997, and as
/// many Q1 cut-offs.
const TPCD_PARAMS: i64 = 5;

mod li {
    pub const QUANTITY: usize = 4;
    pub const EXTENDEDPRICE: usize = 5;
    pub const DISCOUNT: usize = 6;
    pub const RETURNFLAG: usize = 8;
    pub const LINESTATUS: usize = 9;
    pub const SHIPDATE: usize = 10;
}

fn date(y: i32, m: u32, d: u32) -> Date {
    Date::from_ymd(y, m, d).expect("valid calendar date")
}

/// The point query over loaded keys `[a, a + 200]`.
pub fn point_select(a: i64) -> Select {
    Select::new(
        Shape::Read,
        "L",
        &point_schema(),
        vec![Agg::Count, Agg::Min(1), Agg::Max(1)],
        vec![
            (0, Op::Ge, Value::Int(a)),
            (0, Op::Le, Value::Int(a + POINT_SPAN)),
        ],
        vec![],
    )
}

/// `select count(*) from L where K >= lo`: after a `mixed` run, the
/// number of rows the inserter got acknowledged.
pub fn count_from(lo: i64) -> Select {
    Select::new(
        Shape::Read,
        "L",
        &point_schema(),
        vec![Agg::Count],
        vec![(0, Op::Ge, Value::Int(lo))],
        vec![],
    )
}

fn q1_select(delta_days: i32) -> Select {
    let cutoff = Value::Date(date(1998, 12, 1).add_days(-delta_days));
    Select::new(
        Shape::Q1,
        "LINEITEM",
        &smadb::tpcd::lineitem_schema(),
        vec![
            Agg::Sum(li::QUANTITY),
            Agg::Sum(li::EXTENDEDPRICE),
            Agg::Sum(li::DISCOUNT),
            Agg::Avg(li::QUANTITY),
            Agg::Count,
        ],
        vec![(li::SHIPDATE, Op::Le, cutoff)],
        vec![li::RETURNFLAG, li::LINESTATUS],
    )
}

fn q6_select(year: i32, discount_cents: i64) -> Select {
    Select::new(
        Shape::Q6,
        "LINEITEM",
        &smadb::tpcd::lineitem_schema(),
        vec![Agg::Sum(li::EXTENDEDPRICE), Agg::Count],
        vec![
            (li::SHIPDATE, Op::Ge, Value::Date(date(year, 1, 1))),
            (li::SHIPDATE, Op::Lt, Value::Date(date(year + 1, 1, 1))),
            (
                li::DISCOUNT,
                Op::Ge,
                Value::Decimal(Decimal::from_cents(discount_cents - 1)),
            ),
            (
                li::DISCOUNT,
                Op::Le,
                Value::Decimal(Decimal::from_cents(discount_cents + 1)),
            ),
            (li::QUANTITY, Op::Lt, Value::Decimal(Decimal::from_int(24))),
        ],
        vec![],
    )
}

/// The workload's distinct selects, drawn from the seed. Draws are
/// stratified (one per equal slice of each parameter's range), so every
/// seed covers the range evenly and seeds differ in detail, not in mix.
/// On the TPC-D workloads the Q1 selects come first, then the Q6 ones.
pub fn select_pool(w: Workload, seed: u64) -> Vec<Select> {
    let mut r = rng(seed, PARAMS);
    if w.is_tpcd() {
        // Q1's delta is 60 to 120 days; Q6 takes each year once.
        let mut pool: Vec<Select> = (0..TPCD_PARAMS)
            .map(|i| {
                let lo = 60 + i * 60 / TPCD_PARAMS;
                let hi = 60 + (i + 1) * 60 / TPCD_PARAMS;
                q1_select(r.random_range(lo..=hi) as i32)
            })
            .collect();
        pool.extend((0..TPCD_PARAMS).map(|i| q6_select(1993 + i as i32, r.random_range(2..=9i64))));
        pool
    } else {
        let width = (POINT_ROWS - POINT_SPAN) / POINT_PARAMS;
        (0..POINT_PARAMS)
            .map(|i| point_select(i * width + r.random_range(0..width)))
            .collect()
    }
}

/// The reader's seeded walk over the select pool: each pass visits every
/// select once, in a fresh seeded order. On the TPC-D workloads it
/// alternates Q1 and Q6, each with its own passes.
pub struct Picker {
    rng: StdRng,
    /// Pool ranges walked in turn: the whole pool, or the Q1 and Q6 halves.
    parts: Vec<(usize, usize)>,
    orders: Vec<Vec<usize>>,
    turn: usize,
}

impl Picker {
    pub fn new(w: Workload, seed: u64, pool_len: usize) -> Picker {
        let parts = if w.is_tpcd() {
            vec![(0, pool_len / 2), (pool_len / 2, pool_len)]
        } else {
            vec![(0, pool_len)]
        };
        Picker {
            rng: rng(seed, PICKS),
            orders: vec![Vec::new(); parts.len()],
            parts,
            turn: 0,
        }
    }

    /// Select shapes the walk takes turns over: one pass visits each.
    pub fn shapes(&self) -> usize {
        self.parts.len()
    }

    /// Index of the next select in the pool `select_pool` returned.
    pub fn next(&mut self) -> usize {
        let part = self.turn % self.parts.len();
        self.turn += 1;
        let order = &mut self.orders[part];
        if order.is_empty() {
            let (lo, hi) = self.parts[part];
            order.extend(lo..hi);
            self.rng.shuffle(order);
        }
        order
            .pop()
            .expect("a pass is refilled before it is drawn from")
    }
}

/// The `mixed` inserter's rows: fresh keys above the loaded range and
/// pseudo-random values, both from the seed.
pub struct Inserts {
    rng: StdRng,
    pad: String,
}

impl Inserts {
    pub fn new(seed: u64) -> Inserts {
        Inserts {
            rng: rng(seed, INSERTS),
            pad: pad(),
        }
    }

    pub fn next_row(&mut self) -> (i64, i64) {
        let k = self.rng.random_range(POINT_ROWS..POINT_ROWS * 1_000);
        (k, self.rng.random_range(0..10_000i64))
    }

    pub fn statement(&self, (k, v): (i64, i64)) -> String {
        format!("insert into L values ({k}, {v}, '{}')", self.pad)
    }

    pub fn tuple(&self, (k, v): (i64, i64)) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(v), Value::Str(self.pad.clone())]
    }
}

// ---------------------------------------------------------------- oracle

/// A response's rows as the wire carries them.
pub type Rows = Vec<Vec<String>>;

/// Answers every select with a naive decode-filter-aggregate pass over
/// the table's buckets, using no SMA and no planner. The table is read
/// bucket by bucket (`Table::scan_bucket`), not through one materialized
/// `Table::scan`, so the oracle never holds the whole relation decoded.
pub fn oracle(table: &Table, selects: &[Select]) -> Result<Vec<Rows>, String> {
    let mut states: Vec<BTreeMap<Vec<Value>, Vec<Acc>>> = vec![BTreeMap::new(); selects.len()];
    for b in 0..table.bucket_count() {
        let tuples = table
            .scan_bucket(b)
            .map_err(|e| format!("oracle scan of bucket {b}: {e}"))?;
        for (_, t) in &tuples {
            for (s, groups) in selects.iter().zip(states.iter_mut()) {
                if !matches(s, t) {
                    continue;
                }
                let key: Vec<Value> = s.group_by.iter().map(|&c| t[c].clone()).collect();
                let accs = groups
                    .entry(key)
                    .or_insert_with(|| vec![Acc::default(); s.aggs.len()]);
                for (acc, agg) in accs.iter_mut().zip(&s.aggs) {
                    acc.update(*agg, t)?;
                }
            }
        }
    }
    Ok(selects
        .iter()
        .zip(states)
        .map(|(s, mut groups)| {
            if groups.is_empty() && s.group_by.is_empty() {
                // SQL: an aggregate without GROUP BY yields one row even
                // over empty input.
                groups.insert(Vec::new(), vec![Acc::default(); s.aggs.len()]);
            }
            groups
                .into_iter()
                .map(|(key, accs)| {
                    let mut row: Vec<String> = key.iter().map(Value::to_string).collect();
                    row.extend(
                        accs.iter()
                            .zip(&s.aggs)
                            .map(|(a, agg)| a.finish(*agg).to_string()),
                    );
                    row
                })
                .collect()
        })
        .collect())
}

/// Whether tuple `t` satisfies every predicate of `s`.
pub fn matches(s: &Select, t: &[Value]) -> bool {
    s.preds.iter().all(|(c, op, lit)| {
        t[*c]
            .partial_cmp_typed(lit)
            .is_some_and(|ord| op.holds(ord))
    })
}

#[derive(Debug, Clone, Default)]
struct Acc {
    rows: i64,
    value: Option<Value>,
}

impl Acc {
    fn update(&mut self, agg: Agg, t: &[Value]) -> Result<(), String> {
        self.rows += 1;
        let (c, pick_less) = match agg {
            Agg::Count => return Ok(()),
            Agg::Min(c) => (c, Some(true)),
            Agg::Max(c) => (c, Some(false)),
            Agg::Sum(c) | Agg::Avg(c) => (c, None),
        };
        let v = &t[c];
        if v.is_null() {
            return Ok(());
        }
        self.value = Some(match (self.value.take(), pick_less) {
            (None, _) => v.clone(),
            (Some(cur), Some(less)) => {
                let replace = match v.partial_cmp_typed(&cur) {
                    Some(Ordering::Less) => less,
                    Some(Ordering::Greater) => !less,
                    _ => false,
                };
                if replace {
                    v.clone()
                } else {
                    cur
                }
            }
            (Some(cur), None) => match (cur, v) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
                (Value::Decimal(a), Value::Decimal(b)) => Value::Decimal(a + *b),
                (cur, v) => return Err(format!("oracle cannot sum {cur} and {v}")),
            },
        });
        Ok(())
    }

    fn finish(&self, agg: Agg) -> Value {
        match (agg, &self.value) {
            (Agg::Count, _) => Value::Int(self.rows),
            (_, None) => Value::Null,
            (Agg::Avg(_), Some(Value::Decimal(d))) => Value::Decimal(d.div_count(self.rows)),
            (Agg::Avg(_), Some(Value::Int(i))) => Value::Int(i / self.rows),
            (_, Some(v)) => v.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` selects and `n` inserts a workload sends.
    fn sequence(w: Workload, seed: u64, n: usize) -> Vec<String> {
        let pool = select_pool(w, seed);
        let mut p = Picker::new(w, seed, pool.len());
        let mut out: Vec<String> = (0..n).map(|_| pool[p.next()].text.clone()).collect();
        let mut ins = Inserts::new(seed);
        out.extend((0..n).map(|_| {
            let row = ins.next_row();
            ins.statement(row)
        }));
        out
    }

    #[test]
    fn one_seed_gives_one_request_sequence() {
        for w in Workload::ALL {
            assert_eq!(sequence(w, 7, 50), sequence(w, 7, 50), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_gives_another_request_sequence() {
        for w in Workload::ALL {
            assert_ne!(sequence(w, 7, 50), sequence(w, 8, 50), "{}", w.name());
        }
        assert_ne!(
            point_table(7).unwrap().scan().unwrap(),
            point_table(8).unwrap().scan().unwrap()
        );
        assert_ne!(
            tpcd_config(Workload::TpcdSma, 7).seed,
            tpcd_config(Workload::TpcdSma, 8).seed
        );
    }

    #[test]
    fn tpcd_picks_alternate_q1_and_q6() {
        let pool = select_pool(Workload::TpcdScan, 3);
        let mut p = Picker::new(Workload::TpcdScan, 3, pool.len());
        let picks: Vec<usize> = (0..2 * pool.len()).map(|_| p.next()).collect();
        let shapes: Vec<Shape> = picks.iter().take(4).map(|&i| pool[i].shape).collect();
        assert_eq!(shapes, [Shape::Q1, Shape::Q6, Shape::Q1, Shape::Q6]);
        // Each pass of 2 × pool.len() / 2 picks visits every select once.
        let mut seen = picks[..pool.len()].to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..pool.len()).collect::<Vec<_>>());
    }

    #[test]
    fn oracle_answers_a_hand_computed_point_query() {
        let t = point_table(5).unwrap();
        let rows = t.scan().unwrap();
        let vs: Vec<i64> = rows[100..=300]
            .iter()
            .map(|(_, r)| r[1].as_int().unwrap())
            .collect();
        let got = oracle(&t, &[point_select(100), count_from(POINT_ROWS)]).unwrap();
        let min = vs.iter().min().unwrap();
        let max = vs.iter().max().unwrap();
        assert_eq!(
            got[0],
            vec![vec!["201".to_string(), min.to_string(), max.to_string()]]
        );
        assert_eq!(
            got[1],
            vec![vec!["0".to_string()]],
            "SQL: one row over empty input"
        );
    }
}
