//! Concurrency: the sharded buffer pool and tables are shared-read safe,
//! so SMA builds and queries can run from many threads at once — and the
//! bucket-parallel operators produce byte-identical results at any thread
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};

use smadb::exec::AggSpec;
use smadb::exec::{collect, run_query1, Parallelism, Query1Config, SmaGAggr};
use smadb::sma::{build_many, col, AggFn, BucketPred, CmpOp, SmaDefinition, SmaSet};
use smadb::storage::{BufferPool, MemStore, Table, PAGE_FOOTER_LEN, PAGE_SIZE};
use smadb::tpcd::{generate_lineitem_table, q1_cutoff, q1_reference_table, Clustering, GenConfig};
use smadb::types::Value;

#[test]
fn concurrent_queries_on_one_table() {
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::diagonal_default()));
    let smas = SmaSet::build_query1_set(&table).unwrap();
    let oracle = q1_reference_table(&table, q1_cutoff(90)).unwrap();
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let table = &table;
            let smas = &smas;
            let oracle = &oracle;
            let failures = &failures;
            scope.spawn(move || {
                for round in 0..10 {
                    // Alternate SMA and full-scan plans across threads.
                    let use_smas = (worker + round) % 2 == 0;
                    let run = run_query1(
                        table,
                        if use_smas { Some(smas) } else { None },
                        &Query1Config::default(),
                    )
                    .expect("query");
                    if run.rows.len() != oracle.len() {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                    let counts: Vec<i64> = run
                        .rows
                        .iter()
                        .map(|r| r[9].as_int().expect("count column"))
                        .collect();
                    let expected: Vec<i64> = oracle.iter().map(|r| r.count_order).collect();
                    if counts != expected {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(failures.load(Ordering::Relaxed), 0);
}

#[test]
fn concurrent_build_and_read() {
    // One thread repeatedly rebuilds SMA sets (pure reads of the table)
    // while others query through a fixed set — all sharing the pool.
    let table = generate_lineitem_table(&GenConfig::tiny(Clustering::SortedByShipdate));
    let smas = SmaSet::build_query1_set(&table).unwrap();
    std::thread::scope(|scope| {
        let t = &table;
        scope.spawn(move || {
            for _ in 0..5 {
                let rebuilt = SmaSet::build_query1_set(t).expect("rebuild");
                assert_eq!(rebuilt.file_count(), 26);
            }
        });
        for _ in 0..4 {
            let t = &table;
            let smas = &smas;
            scope.spawn(move || {
                for _ in 0..10 {
                    let run = run_query1(t, Some(smas), &Query1Config::default()).expect("query");
                    assert_eq!(run.rows.len(), 4);
                }
            });
        }
    });
}

/// The bulk build reproduces, at every worker count, exactly the SMAs
/// that per-tuple maintenance (`note_insert`) produces: same groups, same
/// entries, same null flags. The table mixes row and columnar buckets and
/// has `NULL` min/max inputs; the Fig. 4 set adds grouped expression
/// inputs such as `sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT))`.
#[test]
fn parallel_bulkload_with_many_threads_is_stable() {
    let generated = generate_lineitem_table(&GenConfig::tiny(Clustering::Uniform));
    let schema = generated.schema().clone();
    let mut table = Table::in_memory("LINEITEM", schema.clone(), generated.bucket_pages());
    let commitdate = 11;
    for (i, (_, mut tuple)) in generated.scan().unwrap().into_iter().enumerate() {
        if i % 13 == 0 {
            tuple[commitdate] = Value::Null;
        }
        table.append(&tuple).unwrap();
    }
    let half = table.bucket_range(table.bucket_count() / 2).start;
    let converted = table.convert_buckets_from(half).unwrap();
    assert!(!converted.is_empty(), "second half goes columnar");
    assert!(!table.is_columnar_bucket(0), "first half stays row-major");

    let mut defs = SmaSet::query1_definitions(&table).unwrap();
    defs.push(SmaDefinition::new("mincommit", AggFn::Min, col(commitdate)));
    defs.push(SmaDefinition::new("maxcommit", AggFn::Max, col(commitdate)).group_by(vec![8]));
    let mut maintained = SmaSet::build(
        &Table::in_memory("EMPTY", schema, table.bucket_pages()),
        defs.clone(),
    )
    .unwrap();
    for (tid, tuple) in table.scan().unwrap() {
        maintained
            .note_insert(table.bucket_of_page(tid.page), &tuple)
            .unwrap();
    }
    let mincommit = maintained.by_name("mincommit").unwrap();
    assert!((0..mincommit.n_buckets()).any(|b| mincommit.saw_null(b)));

    for threads in [1, 2, 3, 4, 8, 16] {
        let built = build_many(&table, defs.clone(), Parallelism::new(threads)).unwrap();
        for (m, b) in maintained.smas().iter().zip(&built) {
            let what = format!("{} at {threads} threads", m.def().name);
            assert_eq!(b.n_buckets(), m.n_buckets(), "{what}");
            assert_eq!(
                b.groups().collect::<Vec<_>>(),
                m.groups().collect::<Vec<_>>(),
                "{what}"
            );
            for bucket in 0..m.n_buckets() {
                assert_eq!(b.saw_null(bucket), m.saw_null(bucket), "{what}");
            }
        }
    }
}

/// Eight threads hammer a sharded pool — reads, dirty writes, evictions —
/// and every byte, checksum, and I/O counter must come out exact.
#[test]
fn sharded_pool_stress_under_eviction() {
    const THREADS: u32 = 8;
    const PAGES_PER_THREAD: u32 = 32;
    const ROUNDS: u32 = 25;
    let n_pages = THREADS * PAGES_PER_THREAD;
    // Capacity of half the working set forces steady eviction + write-back
    // traffic, and is large enough (≥ 64 per shard) to use several shards.
    let pool = BufferPool::new(Box::new(MemStore::new()), n_pages as usize / 2);
    assert!(pool.shard_count() > 1, "stress test should cover sharding");
    for _ in 0..n_pages {
        pool.allocate().unwrap();
    }
    pool.flush_all().unwrap();
    pool.reset_stats();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = &pool;
            scope.spawn(move || {
                // Each thread owns a disjoint page stripe, so final page
                // contents are deterministic even under interleaving.
                let base = t * PAGES_PER_THREAD;
                for round in 0..ROUNDS {
                    for i in 0..PAGES_PER_THREAD {
                        let no = base + i;
                        pool.with_page_mut(no, |data| {
                            data[0] = t as u8;
                            data[1] = round as u8;
                            data[2] = i as u8;
                        })
                        .expect("write");
                        let (a, b) = pool.with_page(no, |data| (data[0], data[2])).expect("read");
                        assert_eq!((a, b), (t as u8, i as u8));
                    }
                }
            });
        }
    });

    // Every access was counted exactly once, and every physical read was
    // classified as either sequential or random — no drops, no doubles.
    let stats = pool.stats();
    let accesses = (THREADS * PAGES_PER_THREAD * ROUNDS * 2) as u64;
    assert_eq!(stats.logical_reads, accesses);
    assert_eq!(
        stats.sequential_reads + stats.random_reads,
        stats.physical_reads
    );
    assert!(stats.physical_reads <= stats.logical_reads);

    // Flush, drop the cache, and re-read through checksum verification:
    // all final images survived eviction and write-back intact.
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    for t in 0..THREADS {
        for i in 0..PAGES_PER_THREAD {
            let no = t * PAGES_PER_THREAD + i;
            pool.with_page(no, |data| {
                assert_eq!(data[0], t as u8, "page {no}");
                assert_eq!(data[1], (ROUNDS - 1) as u8, "page {no}");
                assert_eq!(data[2], i as u8, "page {no}");
                assert!(
                    data[3..PAGE_SIZE - PAGE_FOOTER_LEN].iter().all(|&b| b == 0),
                    "page {no} body untouched"
                );
            })
            .unwrap();
        }
    }
}

/// The bucket-parallel `SmaGAggr` and bulkload produce byte-identical
/// results at every thread count, on every clustering model — including
/// `Diagonal`, whose smeared buckets exercise the ambivalent scan path.
#[test]
fn parallel_execution_is_deterministic_across_clusterings() {
    let clusterings = [
        Clustering::SortedByShipdate,
        Clustering::diagonal_default(),
        Clustering::Uniform,
        Clustering::Shuffled,
    ];
    for clustering in clusterings {
        let table = generate_lineitem_table(&GenConfig::tiny(clustering));
        let defs = SmaSet::query1_definitions(&table).unwrap();
        let serial_set = SmaSet::build(&table, defs.clone()).unwrap();

        // Bulkload: any worker count reproduces the serial SMA files.
        let serial_smas = build_many(&table, defs.clone(), Parallelism::serial()).unwrap();
        let par_smas = build_many(&table, defs.clone(), Parallelism::new(4)).unwrap();
        for (s, p) in serial_smas.iter().zip(&par_smas) {
            for (key, file) in s.groups() {
                for b in 0..s.n_buckets() {
                    assert_eq!(p.entry(key, b), file.get(b), "{clustering:?}");
                }
            }
        }

        // SmaGAggr: grade/merge/scan in parallel, identical rows+counters.
        let shipdate = 10; // L_SHIPDATE column in the generated LINEITEM
        let pred = BucketPred::cmp(shipdate, CmpOp::Le, q1_cutoff(90));
        let specs = vec![
            AggSpec::CountStar,
            AggSpec::Sum(col(4)),
            AggSpec::Avg(col(4)),
        ];
        let group_by = vec![8usize, 9];
        let mut serial = SmaGAggr::new(
            &table,
            pred.clone(),
            group_by.clone(),
            specs.clone(),
            &serial_set,
        )
        .unwrap()
        .with_parallelism(Parallelism::serial());
        let expected = collect(&mut serial).unwrap();
        let expected_counters = serial.counters();
        for threads in [2, 4, 8] {
            let mut par = SmaGAggr::new(
                &table,
                pred.clone(),
                group_by.clone(),
                specs.clone(),
                &serial_set,
            )
            .unwrap()
            .with_parallelism(Parallelism::new(threads));
            assert_eq!(
                collect(&mut par).unwrap(),
                expected,
                "{clustering:?} with {threads} threads"
            );
            assert_eq!(par.counters(), expected_counters, "{clustering:?}");
        }
    }
}
