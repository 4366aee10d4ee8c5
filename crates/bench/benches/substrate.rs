//! Criterion microbenchmarks for the storage substrate: the operations
//! whose I/O costs the figure reproductions are built from.

use cor_access::{
    external_sort, heap_keys, pack_key, AccessError, BTreeFile, HashFile, HeapFile, IsamIndex,
    DEFAULT_FILL,
};
use cor_pagestore::{BufferPool, PageMut, PAGE_SIZE};
use cor_relational::Oid;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::builder().capacity(frames).build())
}

fn key8(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

fn bench_slotted_page(c: &mut Criterion) {
    let mut g = c.benchmark_group("slotted_page");
    g.bench_function("insert_until_full", |b| {
        b.iter_batched(
            || [0u8; PAGE_SIZE],
            |mut buf| {
                let mut p = PageMut::new(&mut buf);
                p.init();
                let rec = [7u8; 100];
                while p.insert(&rec).is_ok() {}
                black_box(p.view().live_count())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    let n = 10_000u64;

    g.throughput(Throughput::Elements(n));
    g.bench_function("bulk_load_10k", |b| {
        b.iter(|| {
            let entries: Vec<_> = (0..n).map(|k| (key8(k), vec![1u8; 90])).collect();
            let t = BTreeFile::bulk_load(pool(64), 8, entries, DEFAULT_FILL).unwrap();
            black_box(t.len())
        })
    });

    let p = pool(1024);
    let entries: Vec<_> = (0..n).map(|k| (key8(k), vec![1u8; 90])).collect();
    let tree = BTreeFile::bulk_load(Arc::clone(&p), 8, entries, DEFAULT_FILL).unwrap();

    g.throughput(Throughput::Elements(1));
    g.bench_function("get_warm", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let k = rng.random_range(0..n);
            black_box(tree.get(&key8(k)).unwrap())
        })
    });

    g.bench_function("get_cold", |b| {
        // Buffer too small for the tree: every probe faults pages.
        let p = pool(4);
        let entries: Vec<_> = (0..n).map(|k| (key8(k), vec![1u8; 90])).collect();
        let tree = BTreeFile::bulk_load(Arc::clone(&p), 8, entries, DEFAULT_FILL).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            let k = rng.random_range(0..n);
            black_box(tree.get(&key8(k)).unwrap())
        })
    });

    g.throughput(Throughput::Elements(n));
    g.bench_function("full_scan_10k", |b| {
        b.iter(|| {
            let mut n = 0u64;
            tree.scan_for_each(|_, _| {
                n += 1;
                Ok::<_, AccessError>(())
            })
            .unwrap();
            black_box(n)
        })
    });

    g.throughput(Throughput::Elements(1000));
    g.bench_function("insert_1k_random", |b| {
        b.iter_batched(
            || BTreeFile::create(pool(64), 8).unwrap(),
            |t| {
                let mut rng = StdRng::seed_from_u64(3);
                for _ in 0..1000 {
                    let k = rng.random_range(0..u64::MAX);
                    t.insert(&key8(k), &[5u8; 90]).unwrap();
                }
                black_box(t.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_hash_file(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_file");
    let p = pool(512);
    let h = HashFile::create(Arc::clone(&p), 256).unwrap();
    for k in 0..2000u64 {
        h.put(&key8(k), &[9u8; 300]).unwrap();
    }
    g.throughput(Throughput::Elements(1));
    g.bench_function("get_hit", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(h.get(&key8(rng.random_range(0..2000))).unwrap()))
    });
    g.bench_function("get_miss", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| black_box(h.get(&key8(rng.random_range(10_000..20_000))).unwrap()))
    });
    g.bench_function("put_delete_cycle", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| {
            let k = key8(rng.random_range(50_000..60_000));
            h.put(&k, &[1u8; 300]).unwrap();
            h.delete(&k).unwrap()
        })
    });
    g.finish();
}

fn bench_isam(c: &mut Criterion) {
    let mut g = c.benchmark_group("isam");
    let p = pool(1024);
    let entries: Vec<_> = (0..50_000u64)
        .map(|k| (key8(k), (k * 2).to_le_bytes().to_vec()))
        .collect();
    let idx = IsamIndex::build(Arc::clone(&p), 8, entries).unwrap();
    g.throughput(Throughput::Elements(1));
    g.bench_function("lookup_50k", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(idx.lookup(&key8(rng.random_range(0..50_000))).unwrap()))
    });
    g.finish();
}

fn bench_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("external_sort");
    let records: Vec<u128> = {
        let mut rng = StdRng::seed_from_u64(8);
        (0..20_000)
            .map(|_| pack_key(&Oid::new(1, rng.random_range(0..u64::MAX)).to_key_bytes()))
            .collect()
    };
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("in_memory_20k", |b| {
        let p = pool(64);
        b.iter(|| {
            black_box(
                external_sort(&p, records.iter().copied().map(Ok), usize::MAX, false)
                    .unwrap()
                    .count(),
            )
        })
    });
    g.bench_function("spilled_20k", |b| {
        let p = pool(64);
        b.iter(|| {
            black_box(
                external_sort(&p, records.iter().copied().map(Ok), 8 * 1024, false)
                    .unwrap()
                    .count(),
            )
        })
    });
    g.finish();
}

fn bench_heap(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap_file");
    g.throughput(Throughput::Elements(5000));
    g.bench_function("append_5k", |b| {
        b.iter_batched(
            || HeapFile::create(pool(64)).unwrap(),
            |h| {
                for i in 0..5000u32 {
                    h.append(&i.to_le_bytes()).unwrap();
                }
                black_box(h.len())
            },
            BatchSize::SmallInput,
        )
    });
    let heap = HeapFile::create(pool(64)).unwrap();
    let oids: Vec<_> = (0..5000u64)
        .map(|i| Oid::new(1, i).to_key_bytes())
        .collect();
    heap.append_all(&oids).unwrap();
    g.bench_function("scan_5k", |b| {
        b.iter(|| black_box(heap_keys(&heap).count()))
    });
    g.finish();
}

fn bench_buffer_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_pool");
    let p = pool(64);
    let pids: Vec<_> = (0..256).map(|_| p.allocate_page().unwrap()).collect();
    for &pid in &pids {
        p.write(pid, |mut pg| pg.init()).unwrap();
    }
    g.throughput(Throughput::Elements(1));
    g.bench_function("read_hit", |b| {
        b.iter(|| p.read(pids[0], |pg| black_box(pg.slot_count())).unwrap())
    });
    g.bench_function("read_miss_evict", |b| {
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| {
            let pid = pids[rng.random_range(0..pids.len())];
            p.read(pid, |pg| black_box(pg.slot_count())).unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_slotted_page,
    bench_btree,
    bench_hash_file,
    bench_isam,
    bench_sort,
    bench_heap,
    bench_buffer_pool
);
criterion_main!(benches);
