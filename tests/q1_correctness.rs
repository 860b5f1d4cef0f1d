//! Query 1 correctness across clustering regimes, deltas, bucket sizes
//! and plan kinds — every SMA-accelerated answer must equal the naive
//! full-scan oracle exactly.

use smadb::exec::{run_query1, PlanKind, Query1Config};
use smadb::sma::{build_many, SmaSet};
use smadb::storage::{MemStore, Parallelism};
use smadb::tpcd::{
    generate_lineitem_table, load_lineitem, q1_cutoff, q1_reference_table, Clustering, GenConfig,
    Q1Row,
};
use smadb::types::Tuple;

fn to_q1_rows(rows: &[Tuple]) -> Vec<Q1Row> {
    rows.iter()
        .map(|r| Q1Row {
            returnflag: r[0].as_char().unwrap(),
            linestatus: r[1].as_char().unwrap(),
            sum_qty: r[2].as_decimal().unwrap(),
            sum_base_price: r[3].as_decimal().unwrap(),
            sum_disc_price: r[4].as_decimal().unwrap(),
            sum_charge: r[5].as_decimal().unwrap(),
            avg_qty: r[6].as_decimal().unwrap(),
            avg_price: r[7].as_decimal().unwrap(),
            avg_disc: r[8].as_decimal().unwrap(),
            count_order: r[9].as_int().unwrap(),
        })
        .collect()
}

#[test]
fn every_clustering_every_delta() {
    for clustering in [
        Clustering::SortedByShipdate,
        Clustering::diagonal_default(),
        Clustering::Diagonal {
            mean_lag_days: 20.0,
            std_dev_days: 60.0,
        },
        Clustering::Uniform,
        Clustering::Shuffled,
    ] {
        let table = generate_lineitem_table(&GenConfig {
            orders: 800,
            clustering,
            seed: 7,
            bucket_pages: 1,
            pool_pages: 1 << 14,
        });
        let smas = SmaSet::build_query1_set(&table).unwrap();
        for delta in [0, 60, 90, 120, 2000] {
            let cfg = Query1Config {
                delta,
                ..Query1Config::default()
            };
            let with = run_query1(&table, Some(&smas), &cfg).unwrap();
            let oracle = q1_reference_table(&table, q1_cutoff(delta)).unwrap();
            assert_eq!(
                to_q1_rows(&with.rows),
                oracle,
                "clustering {clustering:?} delta {delta} plan {:?}",
                with.plan_kind
            );
        }
    }
}

#[test]
fn bucket_sizes_do_not_change_answers() {
    for bucket_pages in [1u32, 2, 4, 8, 16] {
        let cfg = GenConfig {
            orders: 600,
            clustering: Clustering::diagonal_default(),
            seed: 11,
            bucket_pages,
            pool_pages: 1 << 14,
        };
        let (_, items) = smadb::tpcd::generate(&cfg);
        let table = load_lineitem(&items, Box::new(MemStore::new()), bucket_pages, 1 << 14);
        assert_eq!(table.bucket_pages(), bucket_pages);
        let smas = SmaSet::build_query1_set(&table).unwrap();
        let with = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
        let oracle = q1_reference_table(&table, q1_cutoff(90)).unwrap();
        assert_eq!(
            to_q1_rows(&with.rows),
            oracle,
            "bucket_pages {bucket_pages}"
        );
    }
}

#[test]
fn parallel_build_answers_identically() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::diagonal_default()));
    let defs = SmaSet::query1_definitions(&table).unwrap();
    let set = |smas: Vec<_>| {
        let mut set = SmaSet::new();
        for sma in smas {
            set.push(sma);
        }
        set
    };
    let serial = set(build_many(&table, defs.clone(), Parallelism::serial()).unwrap());
    let parallel = set(build_many(&table, defs, Parallelism::new(4)).unwrap());
    let a = run_query1(&table, Some(&serial), &Query1Config::default()).unwrap();
    let b = run_query1(&table, Some(&parallel), &Query1Config::default()).unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn sorted_lineitem_gets_the_sma_plan_and_big_page_savings() {
    let table = generate_lineitem_table(&GenConfig {
        orders: 2000,
        ..GenConfig::tiny(Clustering::SortedByShipdate)
    });
    let smas = SmaSet::build_query1_set(&table).unwrap();
    let with = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
    let without = run_query1(&table, None, &Query1Config::default()).unwrap();
    assert_eq!(with.plan_kind, PlanKind::SmaGAggr);
    assert_eq!(without.plan_kind, PlanKind::FullScan);
    assert_eq!(with.rows, without.rows);
    assert!(
        with.io.logical_reads * 50 < without.io.logical_reads,
        "SMA plan reads {}, full scan reads {}",
        with.io.logical_reads,
        without.io.logical_reads
    );
}

#[test]
fn space_overhead_is_a_few_percent() {
    // §2.4: 8444 SMA pages vs 733.33 MB LINEITEM ≈ 4 %. Our tuples are a
    // bit narrower than AODB's, so allow 2–9 %.
    let table = generate_lineitem_table(&GenConfig {
        orders: 3000,
        ..GenConfig::tiny(Clustering::SortedByShipdate)
    });
    let smas = SmaSet::build_query1_set(&table).unwrap();
    assert_eq!(smas.file_count(), 26, "the paper counts 26 SMA-files");
    let ratio = smas.total_pages() as f64 / table.page_count() as f64;
    assert!(
        (0.02..0.09).contains(&ratio),
        "space overhead {:.2}%",
        ratio * 100.0
    );
}

#[test]
fn file_backed_table_cold_and_warm() {
    use smadb::storage::FileStore;
    let path = smadb::storage::test_util::scratch_path("q1_file_backed");
    let cfg = GenConfig::tiny(Clustering::SortedByShipdate);
    let (_, items) = smadb::tpcd::generate(&cfg);
    let store = FileStore::create(&path).unwrap();
    let table = load_lineitem(&items, Box::new(store), 1, 256);
    table.flush().unwrap();
    let smas = SmaSet::build_query1_set(&table).unwrap();
    let oracle = q1_reference_table(&table, q1_cutoff(90)).unwrap();

    let cold = run_query1(
        &table,
        Some(&smas),
        &Query1Config {
            cold: true,
            ..Query1Config::default()
        },
    )
    .unwrap();
    assert_eq!(to_q1_rows(&cold.rows), oracle);
    assert!(cold.io.physical_reads > 0, "cold run hits the file");

    let warm = run_query1(&table, Some(&smas), &Query1Config::default()).unwrap();
    assert_eq!(to_q1_rows(&warm.rows), oracle);
    assert!(warm.io.physical_reads <= cold.io.physical_reads);
    std::fs::remove_file(&path).ok();
}
