//! The answer oracle: every retrieve's expected values, computed from the
//! generated database alone.
//!
//! A retrieve of `attr` over parents `lo..=hi` returns one value per
//! (parent, child) pair. The oracle holds each parent's children and each
//! child's three attributes; updates are applied to it in the order the
//! client issues them, so answers after an update are checked against the
//! updated values. Strategies return values in different orders (BFS
//! sorts by child OID), so answers are compared as sorted multisets.

use complexobj::database::CHILD_REL_BASE;
use complexobj::{RetrieveQuery, StrategyOutput, UpdateQuery};
use cor_relational::Oid;
use cor_workload::GeneratedDb;

#[derive(Clone)]
pub struct Oracle {
    /// `children[key]`: the subobjects of parent `key`.
    children: Vec<Vec<Oid>>,
    /// `rets[rel - CHILD_REL_BASE][child key]`: the three attributes.
    rets: Vec<Vec<[i64; 3]>>,
}

impl Oracle {
    pub fn new(generated: &GeneratedDb) -> Self {
        let parents = &generated.spec.parents;
        assert!(
            parents.iter().enumerate().all(|(i, p)| p.key == i as u64),
            "generated parents are keyed 0..n in order"
        );
        Oracle {
            children: parents.iter().map(|p| p.children.clone()).collect(),
            rets: generated
                .spec
                .child_rels
                .iter()
                .map(|rel| {
                    assert!(rel.iter().enumerate().all(|(i, s)| s.oid.key == i as u64));
                    rel.iter().map(|s| s.rets).collect()
                })
                .collect(),
        }
    }

    fn slot(&mut self, oid: Oid) -> &mut [i64; 3] {
        &mut self.rets[(oid.rel - CHILD_REL_BASE) as usize][oid.key as usize]
    }

    /// The sorted values `query` must return.
    pub fn expected(&self, query: &RetrieveQuery) -> Vec<i64> {
        let col = query.attr.column() - 1;
        let mut out: Vec<i64> = self.children[query.lo as usize..=query.hi as usize]
            .iter()
            .flatten()
            .map(|oid| self.rets[(oid.rel - CHILD_REL_BASE) as usize][oid.key as usize][col])
            .collect();
        out.sort_unstable();
        out
    }

    /// Whether `out` is the right answer to `query`.
    pub fn check(&self, query: &RetrieveQuery, out: &StrategyOutput) -> bool {
        let mut got = out.values.clone();
        got.sort_unstable();
        got == self.expected(query)
    }

    /// Apply an update the engine acknowledged (it sets `ret1`).
    pub fn apply(&mut self, update: &UpdateQuery) {
        for &oid in &update.targets {
            self.slot(oid)[0] = update.new_ret1;
        }
    }
}
