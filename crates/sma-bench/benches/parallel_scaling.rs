//! E8 — thread scaling of the bucket-parallel paths.
//!
//! Measures SMA bulkload (`build_many`) and the bucket-parallel
//! `SmaGAggr` at 1/2/4/8 worker threads over diagonal-clustered LINEITEM.
//! Results are recorded in `EXPERIMENTS.md`; on a single-core host the
//! curve is flat (threads only add scheduling overhead), on an N-core
//! host the bucket loop scales until morsels run out.

use sma_bench::harness::{BenchmarkId, Criterion};
use sma_bench::{bench_table, criterion_group, criterion_main};
use sma_core::col;
use sma_core::{build_many, BucketPred, CmpOp, SmaSet};
use sma_exec::{collect, cutoff, AggSpec, Parallelism, SmaGAggr};
use sma_tpcd::{schema::lineitem as li, Clustering};
use sma_types::Value;

fn bench_parallel_scaling(c: &mut Criterion) {
    let table = bench_table(Clustering::diagonal_default(), 1);
    let defs = SmaSet::query1_definitions(&table).expect("defs");
    let smas = SmaSet::build(&table, defs.clone()).expect("build");
    let pred = BucketPred::cmp(li::SHIPDATE, CmpOp::Le, Value::Date(cutoff(90)));
    let group_by = vec![li::RETURNFLAG, li::LINESTATUS];
    let specs = vec![
        AggSpec::CountStar,
        AggSpec::Sum(col(li::QUANTITY)),
        AggSpec::Avg(col(li::QUANTITY)),
    ];

    let mut group = c.benchmark_group("e8_thread_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("bulkload", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    build_many(&table, defs.clone(), Parallelism::new(threads)).expect("build")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sma_gaggr", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut op =
                        SmaGAggr::new(&table, pred.clone(), group_by.clone(), specs.clone(), &smas)
                            .expect("plan")
                            .with_parallelism(Parallelism::new(threads));
                    collect(&mut op).expect("run")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
