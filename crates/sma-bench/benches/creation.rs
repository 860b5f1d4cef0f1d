//! E1 — SMA creation (the §2.4 creation-time table).
//!
//! Benchmarks building each of the eight Query 1 SMAs individually, all of
//! them in one shared scan, the parallel bulkload, and — as the paper's
//! comparison point — bulk-loading a B+ tree on `L_SHIPDATE`.

use sma_bench::harness::Criterion;
use sma_bench::{criterion_group, criterion_main};

use sma_bench::bench_table;
use sma_core::{build_many, Sma, SmaSet};
use sma_cube::{page_sized_order, BPlusTree};
use sma_storage::Parallelism;
use sma_tpcd::{schema::lineitem as li, Clustering};

fn bench_creation(c: &mut Criterion) {
    let table = bench_table(Clustering::SortedByShipdate, 1);
    let defs = SmaSet::query1_definitions(&table).expect("defs");

    let mut group = c.benchmark_group("e1_creation");
    group.sample_size(10);
    for def in &defs {
        group.bench_function(format!("sma_{}", def.name), |b| {
            b.iter(|| Sma::build(&table, def.clone()).expect("build"))
        });
    }
    group.bench_function("all_8_shared_scan", |b| {
        b.iter(|| build_many(&table, defs.clone(), Parallelism::serial()).expect("build"))
    });
    group.bench_function("all_8_parallel_x4", |b| {
        b.iter(|| build_many(&table, defs.clone(), Parallelism::new(4)).expect("build"))
    });

    // Comparator: B+ tree on shipdate (paper: 230 MB, "far beyond" 15 min).
    let rows = table.scan().expect("scan");
    let mut pairs: Vec<(i32, u64)> = rows
        .iter()
        .map(|(tid, t)| {
            (
                t[li::SHIPDATE].as_date().expect("typed").days(),
                (tid.page as u64) << 16 | tid.slot as u64,
            )
        })
        .collect();
    pairs.sort_by_key(|&(k, _)| k);
    group.bench_function("btree_bulk_load", |b| {
        b.iter(|| BPlusTree::bulk_load(page_sized_order(4, 8), pairs.clone()))
    });
    group.bench_function("btree_insert_each", |b| {
        b.iter(|| {
            let mut t = BPlusTree::new(page_sized_order(4, 8));
            for &(k, v) in &pairs {
                t.insert(k, v);
            }
            t
        })
    });
    group.finish();
}

criterion_group!(benches, bench_creation);
criterion_main!(benches);
