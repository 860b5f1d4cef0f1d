//! Property tests over the auxiliary structures: persistence roundtrips
//! for arbitrary SMA shapes, hierarchical pruning vs flat grading at
//! arbitrary fanouts, and projection-index/SMA agreement.

use std::sync::Arc;

use smadb::sma::{
    col, decode_sma_stream, encode_sma_stream, AggFn, BucketPred, Classification, CmpOp,
    HierarchicalMinMax, ProjectionIndex, Sma, SmaDefinition, SmaSet,
};
use smadb::storage::Table;
use smadb::types::{Column, DataType, Schema, StdRng, Value};

fn int_flag_table(rows: &[(i64, u8)]) -> Table {
    let schema = Arc::new(Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("G", DataType::Char),
        Column::new("PAD", DataType::Str),
    ]));
    let mut t = Table::in_memory("t", schema, 1);
    let pad = "p".repeat(1700);
    for &(k, g) in rows {
        t.append(&vec![
            Value::Int(k),
            Value::Char(g),
            Value::Str(pad.clone()),
        ])
        .unwrap();
    }
    t
}

fn random_rows(rng: &mut StdRng) -> Vec<(i64, u8)> {
    let n = rng.random_range(1..100usize);
    (0..n)
        .map(|_| {
            let k = rng.random_range(-50i64..50);
            let g = [b'A', b'B', b'C'][rng.random_range(0..3usize)];
            (k, g)
        })
        .collect()
}

/// Any built SMA — grouped or not, over expressions or columns —
/// roundtrips bit-exactly through the page-store serialization.
#[test]
fn persistence_roundtrips_arbitrary_smas() {
    let mut rng = StdRng::seed_from_u64(0x572C_0001);
    for case in 0..32 {
        let rows = random_rows(&mut rng);
        let which = rng.random_range(0..4u8);
        let grouped = rng.random_bool();
        let t = int_flag_table(&rows);
        let mut def = match which {
            0 => SmaDefinition::new("p_min", AggFn::Min, col(0)),
            1 => SmaDefinition::new("p_max", AggFn::Max, col(0)),
            2 => SmaDefinition::new("p_sum", AggFn::Sum, col(0).mul(smadb::sma::lit(3i64))),
            _ => SmaDefinition::count("p_count"),
        };
        if grouped {
            def = def.group_by(vec![1]);
        }
        let sma = Sma::build(&t, def).unwrap();
        let back = decode_sma_stream(&encode_sma_stream(&sma)).unwrap();
        assert_eq!(back.def(), sma.def(), "case {case}");
        assert_eq!(back.n_buckets(), sma.n_buckets(), "case {case}");
        assert_eq!(back.file_count(), sma.file_count(), "case {case}");
        for (key, file) in sma.groups() {
            for b in 0..sma.n_buckets() {
                assert_eq!(back.entry(key, b), file.get(b), "case {case}");
            }
        }
        for b in 0..sma.n_buckets() {
            assert_eq!(back.saw_null(b), sma.saw_null(b), "case {case}");
            assert_eq!(back.is_stale(b), sma.is_stale(b), "case {case}");
        }
    }
}

/// Hierarchical pruning equals flat grading for any data, fanout and
/// cutoff — the §4 structure is a pure I/O optimization.
#[test]
fn hierarchical_equals_flat() {
    let mut rng = StdRng::seed_from_u64(0x572C_0002);
    for case in 0..32 {
        let rows = random_rows(&mut rng);
        let fanout = rng.random_range(2u32..20);
        let cutoff = rng.random_range(-60i64..60);
        let op =
            [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq][rng.random_range(0..5usize)];
        let t = int_flag_table(&rows);
        let min = Sma::build(&t, SmaDefinition::new("min", AggFn::Min, col(0))).unwrap();
        let max = Sma::build(&t, SmaDefinition::new("max", AggFn::Max, col(0))).unwrap();
        let set = SmaSet::build(
            &t,
            vec![
                SmaDefinition::new("min", AggFn::Min, col(0)),
                SmaDefinition::new("max", AggFn::Max, col(0)),
            ],
        )
        .unwrap();
        let h = HierarchicalMinMax::from_smas(&min, &max, fanout).expect("well-formed inputs");
        let pred = BucketPred::cmp(0, op, cutoff);
        let flat = Classification::classify(&pred, t.bucket_count(), &set);
        let pruned = h.prune(&pred);
        assert_eq!(pruned.grades, flat.grades, "case {case}");
        assert_eq!(
            pruned.l1_inspected + pruned.l1_skipped,
            t.bucket_count() as usize,
            "case {case}"
        );
    }
}

/// The projection index's exact counts agree with brute force, and its
/// singleton bounds agree with the SMA degeneration of §2.2.
#[test]
fn projection_index_counts_exactly() {
    let mut rng = StdRng::seed_from_u64(0x572C_0003);
    for case in 0..32 {
        let rows = random_rows(&mut rng);
        let cutoff = rng.random_range(-60i64..60);
        let t = int_flag_table(&rows);
        let idx = ProjectionIndex::build(&t, col(0)).unwrap();
        let brute = rows.iter().filter(|&&(k, _)| k <= cutoff).count();
        assert_eq!(
            idx.count(CmpOp::Le, &Value::Int(cutoff)),
            brute,
            "case {case}"
        );
        // Singleton bounds = per-tuple min=max=value, in physical order.
        let bounds = idx.as_singleton_bounds();
        assert_eq!(bounds.len(), rows.len(), "case {case}");
        for (b, &(k, _)) in bounds.iter().zip(&rows) {
            assert_eq!(
                b.clone(),
                Some((Value::Int(k), Value::Int(k))),
                "case {case}"
            );
        }
    }
}
