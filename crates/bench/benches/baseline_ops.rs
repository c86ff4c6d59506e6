//! Criterion micro-benchmarks of the substrate layers: WAH bitmap algebra,
//! the bitmap index, and the paged-file / buffer-pool storage path.

use criterion::{criterion_group, criterion_main, Criterion};
use dc_bitmap::{BitmapIndex, CompressedBitmap};
use dc_common::TempDir;
use dc_oocore::ConcurrentPool;
use dc_query::{RangeQueryGen, ValuePick};
use dc_storage::{BlockConfig, PagedFile};
use dc_tpcd::{generate, TpcdConfig};

fn bench_wah(c: &mut Criterion) {
    // Two sparse bitmaps over 1M positions.
    let mut a = CompressedBitmap::new();
    let mut b = CompressedBitmap::new();
    for i in 0..10_000u64 {
        a.set(i * 100);
        b.set(i * 100 + (i % 50));
    }
    let mut g = c.benchmark_group("wah");
    g.bench_function("or/sparse-10k", |bch| bch.iter(|| a.or(&b)));
    g.bench_function("and/sparse-10k", |bch| bch.iter(|| a.and(&b)));
    g.bench_function("count_ones", |bch| bch.iter(|| a.count_ones()));
    g.bench_function("iter_ones/full", |bch| bch.iter(|| a.iter_ones().count()));
    g.finish();
}

fn bench_bitmap_index(c: &mut Criterion) {
    let data = generate(&TpcdConfig::scaled(20_000, 1));
    let mut idx = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);
    for r in &data.records {
        idx.insert(&data.schema, r).unwrap();
    }
    let mut g = c.benchmark_group("bitmap_index");
    g.sample_size(30);
    for sel in [0.01, 0.25] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, 7);
        let queries: Vec<_> = (0..32).map(|_| gen.generate(&data.schema)).collect();
        let mut i = 0usize;
        g.bench_function(format!("query/{:.0}%", sel * 100.0), |bch| {
            bch.iter(|| {
                i += 1;
                idx.range_summary(&data.schema, &queries[i % queries.len()])
                    .unwrap()
            })
        });
    }
    let mut schema = data.schema.clone();
    let extra = schema
        .intern_record(
            &[
                vec!["EUROPE", "GERMANY", "MACHINERY", "Customer#000000001"],
                vec!["EUROPE", "GERMANY", "Supplier#000000001"],
                vec!["Brand#11", "STANDARD ANODIZED TIN", "Part#000000001"],
                vec!["1996", "1996-01", "1996-01-01"],
            ],
            100,
        )
        .unwrap();
    g.bench_function("insert", |bch| {
        bch.iter(|| idx.insert(&schema, &extra).unwrap())
    });
    g.finish();
}

/// `BitmapIndex::insert` over one shard's load stream (every other record
/// of a 200 k-record TPC-D load, as one of two hash-partitioned shards sees
/// it) in 256-record batches, with the index cloned every `k` batches — the
/// snapshot a serving shard publishes, kept alive until the next one. Each
/// sample is one whole load; divide by 100 000 for µs/record.
fn bench_bitmap_index_load(c: &mut Criterion) {
    let data = generate(&TpcdConfig::scaled(200_000, 1));
    let stream: Vec<_> = data.records.iter().step_by(2).collect();
    let mut g = c.benchmark_group("bitmap_index_load");
    g.sample_size(5);
    for (name, every) in [("never", None), ("1", Some(1)), ("2", Some(2))] {
        g.bench_function(format!("insert_100k/clone_every_{name}_batches"), |bch| {
            bch.iter(|| {
                let mut idx = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);
                let mut published = None;
                for (i, batch) in stream.chunks(256).enumerate() {
                    for r in batch {
                        idx.insert(&data.schema, r).unwrap();
                    }
                    if every.is_some_and(|k| (i + 1) % k == 0) {
                        published = Some(idx.clone());
                    }
                }
                (idx.len(), published.map(|p| p.len()))
            })
        });
    }
    g.finish();
}

fn bench_storage(c: &mut Criterion) {
    let dir = TempDir::new("bench-storage");
    let file = PagedFile::create(dir.join("pages"), BlockConfig::DEFAULT).unwrap();
    let pool = ConcurrentPool::new(file, 64);
    let pages: Vec<_> = (0..256).map(|_| pool.alloc().unwrap()).collect();
    for (i, &p) in pages.iter().enumerate() {
        pool.with_page_mut(p, |d| d[0] = i as u8).unwrap();
    }
    let mut g = c.benchmark_group("storage");
    let mut i = 0usize;
    g.bench_function("pool_read/cold+hot_mix", |bch| {
        bch.iter(|| {
            i += 1;
            pool.with_page(pages[i % pages.len()], |d| d[0]).unwrap()
        })
    });
    let hot = pages[0];
    g.bench_function("pool_read/hot", |bch| {
        bch.iter(|| pool.with_page(hot, |d| d[0]).unwrap())
    });
    g.bench_function("pool_write/hot", |bch| {
        bch.iter(|| {
            pool.with_page_mut(hot, |d| d[1] = d[1].wrapping_add(1))
                .unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_wah, bench_bitmap_index, bench_bitmap_index_load, bench_storage
}
criterion_main!(benches);
