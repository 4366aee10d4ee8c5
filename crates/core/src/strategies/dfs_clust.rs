//! DFSCLUST (Sec. 3.3).
//!
//! The database stores "all objects and their subobjects in one relation
//! called cluster", B-tree-structured on `cluster#`, with a static ISAM
//! index on OID for random access.
//!
//! The retrieve scans the cluster range covering the qualifying objects.
//! That single scan returns the objects **and** every subobject clustered
//! with them — which is why the paper's `ParCost` *rises* as clustering
//! improves (more subobjects interleaved between consecutive objects) while
//! `ChildCost` falls (Fig. 5a). Subobjects clustered elsewhere cost one
//! ISAM probe plus a ClusterRel access each; with `OverlapFactor > 1` a
//! unit's subobjects scatter across many foreign clusters and these random
//! accesses dominate (Fig. 7).

use super::ExecOptions;
use crate::database::{cluster_key, decode_cluster_key, CorDatabase};
use crate::query::{extract_ret, RetrieveQuery, StrategyOutput};
use crate::CorError;
use cor_access::{project, AccessError};
use cor_obs::{Phase, PhaseGuard};
use cor_relational::Oid;
use std::collections::HashMap;

/// Run a retrieve depth-first over the clustered representation.
pub fn dfs_clust(
    db: &CorDatabase,
    query: &RetrieveQuery,
    opts: &ExecOptions,
) -> Result<StrategyOutput, CorError> {
    let (cluster, _oid_index) = db.cluster()?;
    let stats = db.pool().stats().clone();
    let s0 = stats.snapshot();

    // One range scan picks up the qualifying objects and their physically
    // clustered subobjects together.
    let lo_k = cluster_key(query.lo, false, Oid::new(0, 0));
    let hi_k = cluster_key(query.hi, true, Oid::new(u16::MAX, u64::MAX));
    let mut parents: Vec<(u64, Vec<Oid>)> = Vec::new();
    let mut scanned_children: HashMap<Oid, Vec<u8>> = HashMap::new();
    // The whole range scan — objects and co-clustered subobjects alike —
    // is one physical cluster traversal; with readahead enabled the
    // bulk-loaded leaf chain is prefetched in coalesced batches ahead of
    // the scan cursor.
    let _scan_phase = PhaseGuard::enter(Phase::ClusterScan);
    cluster.range_for_each(&lo_k, &hi_k, opts.io.readahead, |k, rec| {
        let (_, is_child, oid) = decode_cluster_key(k).ok_or(AccessError::BadKeyLen(k.len()))?;
        if is_child {
            scanned_children.insert(oid, rec.to_vec());
        } else {
            let children = project(db.parent_schema(), rec)?.oids.iter().collect();
            cor_obs::heat::touch(cor_obs::HeatClass::ClusterRoot, oid.key);
            parents.push((oid.key, children));
        }
        Ok::<_, AccessError>(())
    })?;
    let s1 = stats.snapshot();

    // Foreign-cluster probes are the random-access tail that dominates
    // once sharing scatters a unit's subobjects (Fig. 7). With batching
    // enabled, resolve every still-missing subobject to its cluster leaf
    // through the OID index, then walk the sorted, deduplicated leaves in
    // batch-sized windows: prefetch a window, harvest it into
    // `scanned_children`, move on. Harvesting right behind the prefetch
    // cursor keeps the footprint to one window, so a pool barely larger
    // than the batch still serves every demand fetch from the prefetched
    // frames. The values loop below is untouched — it now finds the
    // records in the map — so results are identical at every batch size.
    if opts.io.batch > 1 {
        let mut foreign: Vec<cor_pagestore::PageId> = Vec::new();
        let mut pending: std::collections::HashSet<Oid> = std::collections::HashSet::new();
        for (_key, children) in &parents {
            for &oid in children {
                if !scanned_children.contains_key(&oid) && pending.insert(oid) {
                    if let Some(leaf) = db.child_leaf_page(oid)? {
                        foreign.push(leaf);
                    }
                }
            }
        }
        foreign.sort_unstable();
        foreign.dedup();
        for window in foreign.chunks(opts.io.batch) {
            // Purely a hint: a failed prefetch degrades to the demand
            // fetches issued by `leaf_entries` just below.
            let _ = db.pool().prefetch(window);
            for &leaf in window {
                for (k, rec) in cluster.leaf_entries(leaf)? {
                    if let Some((_, true, child_oid)) = decode_cluster_key(&k) {
                        scanned_children.entry(child_oid).or_insert(rec);
                    }
                }
            }
        }
    }

    let mut values = Vec::new();
    for (_key, children) in &parents {
        for &oid in children {
            if let Some(rec) = scanned_children.get(&oid) {
                values.push(extract_ret(rec, query.attr));
                continue;
            }
            // Clustered with a parent outside the scanned range: random
            // access through the OID index, whose TID-style payload points
            // straight at the leaf page. The fetched page holds the rest
            // of the foreign unit, which we harvest at once — the
            // Sec. 3.3 case-[2] behaviour ("their subobjects are still
            // physically clustered, albeit elsewhere, and can be fetched
            // in one random access").
            let harvested = db.fetch_child_page_records(oid)?;
            if harvested.is_empty() {
                return Err(CorError::DanglingOid(oid));
            }
            for (coid, rec) in harvested {
                scanned_children.insert(coid, rec);
            }
            let rec = scanned_children
                .get(&oid)
                .ok_or(CorError::DanglingOid(oid))?;
            values.push(extract_ret(rec, query.attr));
        }
    }
    let s2 = stats.snapshot();

    Ok(StrategyOutput {
        values,
        par_io: s1.since(&s0),
        child_io: s2.since(&s1),
    })
}
