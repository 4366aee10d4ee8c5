//! Property tests for the access methods: B-tree, its range visitor and
//! hash file against std collection models, packed keys and external sort
//! against `sort()`, record codec round-trips and projection.

use cor_access::{
    decode, encode, external_sort, heap_keys, pack_key, project, unpack_key, AccessError,
    BTreeFile, HashFile, HeapFile,
};
use cor_pagestore::BufferPool;
use cor_relational::{Oid, Schema, Tuple, Value, ValueType};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::builder().capacity(frames).build())
}

fn key8(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

/// OID-length keys of bytes drawn from `byte`.
fn oid_key(byte: impl Strategy<Value = u8>) -> impl Strategy<Value = [u8; 10]> {
    proptest::collection::vec(byte, 10..11).prop_map(|k| k.try_into().unwrap())
}

type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// The entries `lo..=hi`, copied out of the range visitor.
fn range(tree: &BTreeFile, lo: u64, hi: u64, readahead: usize) -> Entries {
    let mut out = Vec::new();
    tree.range_for_each(&key8(lo), &key8(hi), readahead, |k, v| {
        out.push((k.to_vec(), v.to_vec()));
        Ok::<_, AccessError>(())
    })
    .unwrap();
    out
}

/// Every entry, copied out of the scan visitor.
fn scan(tree: &BTreeFile) -> Entries {
    let mut out = Vec::new();
    tree.scan_for_each(|k, v| {
        out.push((k.to_vec(), v.to_vec()));
        Ok::<_, AccessError>(())
    })
    .unwrap();
    out
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, Vec<u8>),
    Delete(u64),
    Get(u64),
    Range(u64, u64),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    let key = 0u64..200;
    prop_oneof![
        4 => (key.clone(), proptest::collection::vec(any::<u8>(), 0..150))
            .prop_map(|(k, v)| TreeOp::Insert(k, v)),
        1 => key.clone().prop_map(TreeOp::Delete),
        2 => key.clone().prop_map(TreeOp::Get),
        1 => (key.clone(), key).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The B-tree behaves exactly like `BTreeMap` under arbitrary
    /// interleavings of insert/delete/get/range.
    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(arb_tree_op(), 1..120)) {
        let tree = BTreeFile::create(pool(32), 8).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let fresh = tree.insert(&key8(k), &v).unwrap();
                    prop_assert_eq!(fresh, !model.contains_key(&k));
                    model.insert(k, v);
                }
                TreeOp::Delete(k) => {
                    let removed = tree.delete(&key8(k)).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(&key8(k)).unwrap(), model.get(&k).cloned());
                }
                TreeOp::Range(lo, hi) => {
                    let got: Vec<(u64, Vec<u8>)> = range(&tree, lo, hi, 0)
                        .into_iter()
                        .map(|(k, v)| (u64::from_be_bytes(k.try_into().unwrap()), v))
                        .collect();
                    let expect: Vec<(u64, Vec<u8>)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
        }
        // Final full scan agrees and the structure is internally sound.
        let scanned: Vec<u64> = scan(&tree)
            .into_iter()
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .collect();
        let expect: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(scanned, expect);
        prop_assert!(tree.validate().is_ok(), "invariant violation: {:?}", tree.validate());
    }

    /// Bulk load over any sorted input equals the same data inserted
    /// one-by-one.
    #[test]
    fn bulk_load_equals_incremental(
        keys in proptest::collection::btree_set(0u64..100_000, 0..300),
        fill in 0.4f64..1.0,
    ) {
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            keys.iter().map(|&k| (key8(k), k.to_le_bytes().to_vec())).collect();
        let bulk = BTreeFile::bulk_load(pool(64), 8, entries.clone(), fill).unwrap();
        let incr = BTreeFile::create(pool(64), 8).unwrap();
        for (k, v) in &entries {
            incr.insert(k, v).unwrap();
        }
        prop_assert_eq!(bulk.len(), incr.len());
        prop_assert_eq!(scan(&bulk), scan(&incr));
        prop_assert!(bulk.validate().is_ok());
        prop_assert!(incr.validate().is_ok());
    }

    /// The hash file behaves like `HashMap` under put/get/delete.
    #[test]
    fn hash_file_matches_hashmap(
        ops in proptest::collection::vec(
            (0u64..100, proptest::option::of(proptest::collection::vec(any::<u8>(), 0..120))),
            1..100,
        )
    ) {
        let h = HashFile::create(pool(32), 4).unwrap();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (k, v) in ops {
            match v {
                Some(v) => {
                    let fresh = h.put(&key8(k), &v).unwrap();
                    prop_assert_eq!(fresh, !model.contains_key(&k));
                    model.insert(k, v);
                }
                None => {
                    let removed = h.delete(&key8(k)).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(h.get(&key8(*k)).unwrap(), Some(v.clone()));
        }
        prop_assert_eq!(h.len(), model.len() as u64);
    }

    /// Packed order is byte-wise order on OID keys, packed dedup is
    /// byte-wise dedup, and unpacking restores the bytes.
    #[test]
    fn packed_order_is_byte_order(
        keys in proptest::collection::vec(oid_key(0u8..4), 0..200),
    ) {
        // A small alphabet makes equal keys and long shared prefixes common.
        let mut by_bytes = keys.clone();
        by_bytes.sort();
        by_bytes.dedup();
        let mut packed: Vec<u128> = keys.iter().map(pack_key).collect();
        packed.sort_unstable();
        packed.dedup();
        let unpacked: Vec<[u8; 10]> = packed.into_iter().map(unpack_key).collect();
        prop_assert_eq!(unpacked, by_bytes);
    }

    /// External sort of a heap file of OID keys equals std sort for any
    /// work-memory budget (spilled or not), with and without dedup.
    #[test]
    fn external_sort_equals_std_sort(
        records in proptest::collection::vec(oid_key(any::<u8>()), 0..300),
        work_mem in 256usize..65_536,
        dedup in any::<bool>(),
    ) {
        let p = pool(16);
        let temp = HeapFile::create(Arc::clone(&p)).unwrap();
        temp.append_all(&records).unwrap();
        let got: Vec<[u8; 10]> = external_sort(&p, heap_keys(&temp), work_mem, dedup)
            .unwrap()
            .map(|k| unpack_key(k.unwrap()))
            .collect();
        let mut expect = records;
        expect.sort();
        if dedup {
            expect.dedup();
        }
        prop_assert_eq!(got, expect);
    }

    /// The range visitor yields the model's entries `lo..=hi` and, from a
    /// cold pool, reads the root-to-leaf path to `lo`, then each further
    /// leaf up to and including the one that reveals a key past `hi` — for
    /// empty ranges and bounds past either end. Readahead does not change
    /// the entries.
    #[test]
    fn range_for_each_matches_model_entries_and_reads(
        keys in proptest::collection::btree_set(0u64..3000, 0..600),
        deleted in proptest::collection::vec(0u64..3000, 0..100),
        bounds in proptest::collection::vec((0u64..3200, 0u64..3200), 1..8),
    ) {
        let p = pool(8);
        let mut model: BTreeMap<u64, Vec<u8>> =
            keys.iter().map(|&k| (k, vec![k as u8; 40])).collect();
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (key8(*k), v.clone())).collect();
        let tree = BTreeFile::bulk_load(Arc::clone(&p), 8, entries, 0.9).unwrap();
        for k in deleted {
            tree.delete(&key8(k)).unwrap();
            model.remove(&k);
        }
        for (lo, hi) in bounds {
            let want: Vec<_> = if lo <= hi {
                model.range(lo..=hi).map(|(k, v)| (key8(*k), v.clone())).collect()
            } else {
                Vec::new()
            };
            let mut leaves = vec![tree.leaf_page_of(&key8(lo)).unwrap()];
            for &k in model.range(lo..).map(|(k, _)| k) {
                let leaf = tree.leaf_page_of(&key8(k)).unwrap();
                if leaves.last() != Some(&leaf) {
                    leaves.push(leaf);
                }
                if k > hi {
                    break;
                }
            }
            let want_reads = u64::from(tree.height()) - 1 + leaves.len() as u64;

            p.flush_and_clear().unwrap();
            let before = p.stats().reads();
            let got = range(&tree, lo, hi, 0);
            prop_assert_eq!(p.stats().reads() - before, want_reads, "reads for {}..={}", lo, hi);
            prop_assert_eq!(&got, &want, "entries for {}..={}", lo, hi);
            prop_assert_eq!(range(&tree, lo, hi, 4), want, "readahead, {}..={}", lo, hi);
        }
    }

    /// The projection never panics on arbitrary bytes, and agrees with a
    /// full decode whenever that succeeds.
    #[test]
    fn projection_agrees_with_decode_on_any_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let schema = Schema::new(&[
            ("o", ValueType::Oid),
            ("i", ValueType::Int),
            ("s", ValueType::Str),
            ("l", ValueType::OidList),
            ("b", ValueType::Bytes),
        ]);
        let projected = project(&schema, &bytes);
        if let Ok(t) = decode(&schema, &bytes) {
            let p = projected.unwrap();
            prop_assert_eq!(Some(p.oid), t.get(0).as_oid());
            prop_assert_eq!(p.oids.iter().collect::<Vec<_>>(), t.get(3).as_oid_list().unwrap());
            prop_assert_eq!(Some(p.bytes), t.get(4).as_bytes());
        }
    }

    /// Record codec round-trips arbitrary well-typed tuples.
    #[test]
    fn record_codec_roundtrip(
        n in any::<i64>(),
        s in "\\PC*",
        rel in any::<u16>(),
        key in any::<u64>(),
        oids in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..20),
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let schema = Schema::new(&[
            ("i", ValueType::Int),
            ("s", ValueType::Str),
            ("o", ValueType::Oid),
            ("l", ValueType::OidList),
            ("b", ValueType::Bytes),
        ]);
        let tuple = Tuple::new(vec![
            Value::Int(n),
            Value::Str(s),
            Value::Oid(Oid::new(rel, key)),
            Value::OidList(oids.into_iter().map(|(r, k)| Oid::new(r, k)).collect()),
            Value::Bytes(bytes),
        ]);
        let encoded = encode(&schema, &tuple).unwrap();
        let p = project(&schema, &encoded).unwrap();
        prop_assert_eq!(Some(p.oid), tuple.get(2).as_oid());
        prop_assert_eq!(p.oids.iter().collect::<Vec<_>>(), tuple.get(3).as_oid_list().unwrap());
        prop_assert_eq!(Some(p.bytes), tuple.get(4).as_bytes());
        prop_assert_eq!(decode(&schema, &encoded).unwrap(), tuple);
    }
}
