//! Crash-point and corruption sweeps: a persisted SMA image truncated at
//! *any* byte offset, or hit by *any* bit flip, must either load back
//! identical or surface as a corruption error — never panic, never return
//! wrong aggregates. And because SMAs are redundant derived data (the
//! paper's §3 maintenance argument), recovery always has a correct answer:
//! rebuild from the base table and re-verify query results against a full
//! scan.

use std::sync::Arc;

use smadb::exec::{run_query1, AggSpec, AggregateQuery, Query1Config};
use smadb::sma::{
    col, encode_sma_stream, load_sma_file, save_sma_file, AggFn, BucketPred, CmpOp, Sma,
    SmaDefinition, SmaError, SmaSet,
};
use smadb::storage::test_util::{flip_bit_in_file, scratch_path};
use smadb::storage::Table;
use smadb::tpcd::{generate_lineitem_table, Clustering, GenConfig};
use smadb::types::{Column, DataType, Schema, Value};
use smadb::Warehouse;

fn sales_table() -> Table {
    let schema = Arc::new(Schema::new(vec![
        Column::new("DAY", DataType::Int),
        Column::new("REGION", DataType::Char),
        Column::new("UNITS", DataType::Int),
        Column::new("PAD", DataType::Str),
    ]));
    let mut t = Table::in_memory("SALES", schema, 1);
    let pad = "p".repeat(1700);
    for day in 0..60i64 {
        t.append(&vec![
            Value::Int(day),
            Value::Char(b'N' + (day % 2) as u8),
            Value::Int(day * 3),
            Value::Str(pad.clone()),
        ])
        .unwrap();
    }
    t
}

fn sales_sma(table: &Table) -> Sma {
    let def = SmaDefinition::new("units", AggFn::Sum, col(2)).group_by(vec![1]);
    Sma::build(table, def).unwrap()
}

/// Truncating a persisted SMA file at **every** byte offset: any strict
/// prefix must be rejected as corrupt, the full image must round-trip
/// byte-identically. No offset may panic.
#[test]
fn file_truncation_sweep() {
    let table = sales_table();
    let sma = sales_sma(&table);
    let path = scratch_path("crash-file-sweep");
    save_sma_file(&sma, &path).unwrap();
    let full = std::fs::read(&path).unwrap();
    let canonical = encode_sma_stream(&sma);
    assert_eq!(full, canonical, "file holds exactly the stream");

    for len in 0..=full.len() {
        std::fs::write(&path, &full[..len]).unwrap();
        match load_sma_file(&path) {
            Ok(back) => {
                assert_eq!(len, full.len(), "a strict prefix must not load");
                assert_eq!(encode_sma_stream(&back), canonical);
            }
            Err(SmaError::Corrupt(_)) => {
                assert!(len < full.len(), "the complete image must load");
            }
            Err(other) => panic!("truncation at {len} gave non-corruption error: {other}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Warehouse-level sweep: truncate one SMA file at every byte offset and
/// reopen. Recovery must either keep the intact image or quarantine and
/// rebuild — and in both cases query answers equal a naive full scan.
#[test]
fn warehouse_truncation_sweep_recovers() {
    let query = AggregateQuery {
        pred: BucketPred::cmp(0, CmpOp::Le, 1000i64),
        group_by: vec![1],
        specs: vec![AggSpec::CountStar, AggSpec::Sum(col(2))],
    };
    let mut w = Warehouse::new();
    w.register(sales_table()).unwrap();
    w.define_sma("define sma units select sum(UNITS) from SALES group by REGION")
        .unwrap();
    let expected = {
        let mut naive = Warehouse::new();
        naive.register(sales_table()).unwrap();
        naive.query("SALES", query.clone()).unwrap().rows
    };
    let dir = scratch_path("crash-wh-sweep");
    std::fs::create_dir_all(&dir).unwrap();
    w.save_to_dir(&dir).unwrap();
    let sma_path = dir.join("SALES.units.sma");
    let full = std::fs::read(&sma_path).unwrap();

    for len in 0..=full.len() {
        std::fs::write(&sma_path, &full[..len]).unwrap();
        let (reopened, report) = Warehouse::open_with_recovery(&dir).unwrap();
        if len == full.len() {
            assert!(report.is_clean(), "complete image at {len}: {report}");
        } else {
            assert_eq!(
                report.smas_rebuilt,
                vec!["SALES.units".to_string()],
                "truncation at {len} must trigger a rebuild"
            );
        }
        let got = reopened.query("SALES", query.clone()).unwrap();
        assert_eq!(got.rows, expected, "answers diverged after crash at {len}");
        // Recovery re-saved a clean image; quarantine evidence aside, reset
        // for the next crash point.
        let _ = std::fs::remove_file(dir.join("SALES.units.sma.quarantined"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bit flips across a saved warehouse's SMA file: scrub detects each one,
/// quarantines, rebuilds from the base table, and query answers stay equal
/// to the naive plan throughout.
#[test]
fn bit_flip_sweep_scrub_rebuilds() {
    let query = AggregateQuery {
        pred: BucketPred::cmp(0, CmpOp::Le, 1000i64),
        group_by: vec![1],
        specs: vec![AggSpec::CountStar, AggSpec::Sum(col(2))],
    };
    let mut w = Warehouse::new();
    w.register(sales_table()).unwrap();
    w.define_sma("define sma units select sum(UNITS) from SALES group by REGION")
        .unwrap();
    let expected = {
        let mut naive = Warehouse::new();
        naive.register(sales_table()).unwrap();
        naive.query("SALES", query.clone()).unwrap().rows
    };
    let dir = scratch_path("crash-bitflip");
    std::fs::create_dir_all(&dir).unwrap();
    w.save_to_dir(&dir).unwrap();
    let sma_path = dir.join("SALES.units.sma");
    let file_len = std::fs::read(&sma_path).unwrap().len() as u64;

    // Every byte position, one bit each — magic, length, checksum, payload.
    for offset in 0..file_len {
        flip_bit_in_file(&sma_path, offset, (offset % 8) as u8).unwrap();
        let report = w.scrub(&dir).unwrap();
        assert_eq!(
            report.smas_rebuilt,
            vec!["SALES.units".to_string()],
            "flip at byte {offset} went undetected"
        );
        assert!(report.pages_corrupt.is_empty());
        let got = w.query("SALES", query.clone()).unwrap();
        assert_eq!(
            got.rows, expected,
            "answers diverged after flip at {offset}"
        );
        // Scrub re-saved a clean image; next iteration flips fresh bits.
        let clean = w.scrub(&dir).unwrap();
        assert!(
            clean.is_clean(),
            "rebuild did not leave disk clean: {clean}"
        );
        let _ = std::fs::remove_file(dir.join("SALES.units.sma.quarantined"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The paper's Query 1 benchmark, end to end through corruption: persist
/// the Query-1 SMA set, flip a bit in every member, reload (must reject),
/// rebuild from the base table, and check the SMA-accelerated Query 1
/// equals the full-scan run.
#[test]
fn query1_after_rebuild_matches_full_scan() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
    let set = SmaSet::build_query1_set(&table).unwrap();
    let mut rebuilt = SmaSet::new();
    for (i, sma) in set.smas().iter().enumerate() {
        let path = scratch_path(&format!("crash-q1-{i}"));
        save_sma_file(sma, &path).unwrap();
        flip_bit_in_file(&path, 25 + 3 * i as u64, (i % 8) as u8).unwrap();
        match load_sma_file(&path) {
            Err(SmaError::Corrupt(_)) => {}
            other => panic!("bit flip not caught for sma {i}: {other:?}"),
        }
        rebuilt.push(Sma::build(&table, sma.def().clone()).unwrap());
        std::fs::remove_file(&path).unwrap();
    }
    let cfg = Query1Config {
        cold: true,
        ..Query1Config::default()
    };
    let with = run_query1(&table, Some(&rebuilt), &cfg).unwrap();
    let without = run_query1(&table, None, &cfg).unwrap();
    assert_eq!(with.rows, without.rows);
    assert!(with.io.physical_reads < without.io.physical_reads);
}
