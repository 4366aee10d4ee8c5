//! Predicate-filtered relation scans.
//!
//! The paper's example databases are defined by selections — "elders: all
//! persons with age >= 60" — and its procedural representation stores such
//! queries per object. This module is the generic execution primitive:
//! scan a B-tree relation, decode each record under a schema, and keep the
//! tuples a [`Predicate`] accepts.

use crate::btree::BTreeFile;
use crate::record::decode;
use crate::AccessError;
use cor_relational::{Predicate, Schema, Tuple};

/// Scan `tree` (all entries, key order), decode under `schema`, and return
/// the tuples satisfying `predicate`.
///
/// ```
/// use cor_access::{encode, scan_where, BTreeFile};
/// use cor_pagestore::{BufferPool, IoStats, MemDisk};
/// use cor_relational::{CmpOp, Predicate, Schema, Tuple, Value, ValueType};
/// use std::sync::Arc;
///
/// let schema = Schema::new(&[("name", ValueType::Str), ("age", ValueType::Int)]);
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let person = BTreeFile::create(pool, 8).unwrap();
/// for (i, (name, age)) in [("Mary", 62i64), ("Jill", 8)].iter().enumerate() {
///     let t = Tuple::new(vec![Value::from(*name), Value::Int(*age)]);
///     person.insert(&(i as u64).to_be_bytes(), &encode(&schema, &t).unwrap()).unwrap();
/// }
/// // retrieve (person.all) where person.age >= 60
/// let elders = scan_where(&person, &schema, &Predicate::cmp(1, CmpOp::Ge, 60)).unwrap();
/// assert_eq!(elders.len(), 1);
/// assert_eq!(elders[0].get(0).as_str(), Some("Mary"));
/// ```
pub fn scan_where(
    tree: &BTreeFile,
    schema: &Schema,
    predicate: &Predicate,
) -> Result<Vec<Tuple>, AccessError> {
    let mut out = Vec::new();
    for_each_where(tree, schema, predicate, |t| out.push(t))?;
    Ok(out)
}

/// Count the tuples satisfying `predicate` (selectivity probe).
pub fn count_where(
    tree: &BTreeFile,
    schema: &Schema,
    predicate: &Predicate,
) -> Result<u64, AccessError> {
    let mut n = 0;
    for_each_where(tree, schema, predicate, |_| n += 1)?;
    Ok(n)
}

fn for_each_where(
    tree: &BTreeFile,
    schema: &Schema,
    predicate: &Predicate,
    mut f: impl FnMut(Tuple),
) -> Result<(), AccessError> {
    tree.scan_for_each(|_, rec| {
        let tuple = decode(schema, rec)?;
        if predicate.eval(&tuple) {
            f(tuple);
        }
        Ok::<_, AccessError>(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode;
    use cor_pagestore::BufferPool;
    use cor_relational::{CmpOp, Value, ValueType};
    use std::sync::Arc;

    fn person_tree() -> (BTreeFile, Schema) {
        let schema = Schema::new(&[("name", ValueType::Str), ("age", ValueType::Int)]);
        let pool = Arc::new(BufferPool::builder().capacity(16).build());
        let tree = BTreeFile::create(pool, 8).unwrap();
        for (i, (name, age)) in [
            ("John", 62i64),
            ("Mary", 62),
            ("Paul", 68),
            ("Jill", 8),
            ("Bill", 12),
            ("Mike", 44),
        ]
        .iter()
        .enumerate()
        {
            let t = Tuple::new(vec![Value::from(*name), Value::Int(*age)]);
            tree.insert(&(i as u64).to_be_bytes(), &encode(&schema, &t).unwrap())
                .unwrap();
        }
        (tree, schema)
    }

    #[test]
    fn elders_children_cyclists() {
        let (tree, schema) = person_tree();
        // elders: age >= 60
        let elders = count_where(&tree, &schema, &Predicate::cmp(1, CmpOp::Ge, 60)).unwrap();
        assert_eq!(elders, 3);
        // children: age <= 15
        let children = count_where(&tree, &schema, &Predicate::cmp(1, CmpOp::Le, 15)).unwrap();
        assert_eq!(children, 2);
        // elders or children (the paper's two-group query)
        let both = Predicate::cmp(1, CmpOp::Ge, 60).or(Predicate::cmp(1, CmpOp::Le, 15));
        assert_eq!(count_where(&tree, &schema, &both).unwrap(), 5);
        // named person
        let mary = Predicate::cmp(0, CmpOp::Eq, "Mary");
        let got = scan_where(&tree, &schema, &mary).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(1).as_int(), Some(62));
    }

    #[test]
    fn true_predicate_returns_everything() {
        let (tree, schema) = person_tree();
        assert_eq!(count_where(&tree, &schema, &Predicate::True).unwrap(), 6);
    }

    #[test]
    fn between_matches_age_band() {
        let (tree, schema) = person_tree();
        let band = Predicate::between(1, 10, 50);
        assert_eq!(count_where(&tree, &schema, &band).unwrap(), 2); // Bill 12, Mike 44
    }
}
