//! The persistent **engine catalog** — everything `Engine::open` needs to
//! reconstruct a running engine from a store, with no spec from the
//! caller.
//!
//! The catalog is one CRC-framed byte blob stored under the name
//! `"engine"` in the access-layer [`Catalog`](cor_access::Catalog) on
//! page 0, so it travels through the same WAL-before-data path as every
//! other page. It records:
//!
//! * a magic + version header ([`ENGINE_CATALOG_VERSION`]) so foreign or
//!   future stores fail loudly with
//!   [`CorError::CatalogMissing`] / [`CorError::CatalogVersion`];
//! * a `clean_shutdown` flag — `true` only between [`Engine::close`]
//!   (crate::Engine::close) and the next open;
//! * the pool geometry (`pool_pages`, `shards`, replacement policy) and
//!   the [`ExecOptions`] the engine ran with — `open` rebuilds the pool
//!   from the catalog, not from the caller's builder;
//! * the buffer pool's free-page list, reused only after a **clean**
//!   shutdown (after a crash the list may predate logged allocations, so
//!   it is discarded and those pages leak — bounded, and safe);
//! * the backend snapshot ([`SavedBackend`]): strategy kind plus the
//!   per-strategy file roots, schemas, OID allocators and cache
//!   directories from [`complexobj::persist`].

use complexobj::persist::{Dec, Enc};
use complexobj::{CorError, ExecOptions, IoOptions, JoinChoice, SavedOidDb, SavedProcDb};
use cor_pagestore::{PageId, ReplacementPolicy};
use cor_wal::crc::crc32;

/// On-disk layout version this build writes.
///
/// * v1 — the PR 6 layout.
/// * v2 — appends a `queue_depth` word to the [`IoOptions`] block. The
///   async submission layer it configured is gone: the word is still
///   written (always as `QUEUE_DEPTH_WORD`, 1) so default blobs keep their
///   bytes, and it is read and ignored on decode. v1 blobs, which lack
///   it, still decode.
/// * v3 — widens the replacement-policy byte's value range with the
///   scan-resistant policies (`Sieve` = 3, `TwoQ` = 4). The layout is
///   unchanged; the bump exists so a v2 build that cannot *run* those
///   policies refuses the store loudly with
///   [`CorError::CatalogVersion`] instead of failing on an "unknown
///   policy tag". v1/v2 blobs (tags 0–2, LRU by default) decode as
///   before and silently upgrade on their next save.
pub const ENGINE_CATALOG_VERSION: u32 = 3;

/// Oldest on-disk layout version this build still decodes.
pub const ENGINE_CATALOG_MIN_VERSION: u32 = 1;

/// Name of the blob entry holding the engine catalog on page 0.
pub const ENGINE_BLOB: &str = "engine";

const MAGIC: &[u8; 8] = b"CORENGIN";

/// The value written into the retired v2/v3 `queue_depth` slot: every
/// read is synchronous, which is what depth 1 meant.
const QUEUE_DEPTH_WORD: u64 = 1;

/// Which strategy backend the store holds, with its full snapshot.
#[derive(Debug, Clone)]
pub enum SavedBackend {
    /// A single OID-representation database — standard or clustered is
    /// recorded inside [`SavedOidDb::storage`].
    Oid(SavedOidDb),
    /// A multi-level hierarchy chain (level 0 first) sharing one pool.
    Levels(Vec<SavedOidDb>),
    /// A procedural-representation database.
    Proc(SavedProcDb),
}

/// The decoded engine catalog. See the module docs for field semantics.
#[derive(Debug, Clone)]
pub struct EngineCatalog {
    /// `true` only when the engine was shut down via `Engine::close`.
    pub clean_shutdown: bool,
    /// Buffer pool capacity, in pages.
    pub pool_pages: usize,
    /// Lock-striped pool shards.
    pub shards: usize,
    /// Pool replacement policy.
    pub policy: ReplacementPolicy,
    /// Execution options every query runs with.
    pub opts: ExecOptions,
    /// Free-page list at save time (valid only under `clean_shutdown`).
    pub free_pages: Vec<PageId>,
    /// The strategy backend snapshot.
    pub backend: SavedBackend,
}

impl EngineCatalog {
    /// Serialize: `MAGIC ∥ version ∥ crc32(payload) ∥ payload`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u8(self.clean_shutdown as u8);
        e.u64(self.pool_pages as u64);
        e.u32(self.shards as u32);
        e.u8(match self.policy {
            ReplacementPolicy::Lru => 0,
            ReplacementPolicy::Fifo => 1,
            ReplacementPolicy::Clock => 2,
            ReplacementPolicy::Sieve => 3,
            ReplacementPolicy::TwoQ => 4,
        });
        e.u64(self.opts.smart_threshold);
        e.u8(match self.opts.join {
            JoinChoice::Auto => 0,
            JoinChoice::ForceMerge => 1,
            JoinChoice::ForceIterative => 2,
        });
        e.u64(self.opts.sort_work_mem as u64);
        e.u64(self.opts.io.batch as u64);
        e.u64(self.opts.io.readahead as u64);
        e.u64(QUEUE_DEPTH_WORD);
        e.u32(self.free_pages.len() as u32);
        for &pid in &self.free_pages {
            e.u32(pid);
        }
        match &self.backend {
            SavedBackend::Oid(db) => {
                e.u8(0);
                db.encode(&mut e);
            }
            SavedBackend::Levels(levels) => {
                e.u8(1);
                e.u32(levels.len() as u32);
                for l in levels {
                    l.encode(&mut e);
                }
            }
            SavedBackend::Proc(db) => {
                e.u8(2);
                db.encode(&mut e);
            }
        }
        let mut out = Vec::with_capacity(16 + e.0.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&ENGINE_CATALOG_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&e.0).to_le_bytes());
        out.extend_from_slice(&e.0);
        out
    }

    /// Decode a blob written by [`encode`](Self::encode).
    ///
    /// * no/garbled header → [`CorError::CatalogMissing`];
    /// * wrong version → [`CorError::CatalogVersion`];
    /// * CRC mismatch or truncated payload → [`CorError::Durability`]
    ///   (the blob sits under the WAL, so this indicates a bug, not a
    ///   torn write).
    pub fn decode(bytes: &[u8]) -> Result<Self, CorError> {
        if bytes.len() < 16 || &bytes[..8] != MAGIC {
            return Err(CorError::CatalogMissing);
        }
        let found = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if !(ENGINE_CATALOG_MIN_VERSION..=ENGINE_CATALOG_VERSION).contains(&found) {
            return Err(CorError::CatalogVersion {
                found,
                expected: ENGINE_CATALOG_VERSION,
            });
        }
        let crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        let payload = &bytes[16..];
        if crc32(payload) != crc {
            return Err(CorError::Durability("engine catalog CRC mismatch".into()));
        }
        let mut d = Dec(payload);
        let clean_shutdown = d.u8()? != 0;
        let pool_pages = d.u64()? as usize;
        let shards = d.u32()? as usize;
        let policy = match d.u8()? {
            0 => ReplacementPolicy::Lru,
            1 => ReplacementPolicy::Fifo,
            2 => ReplacementPolicy::Clock,
            // v3 tags; a v1/v2 writer could not have produced these.
            3 => ReplacementPolicy::Sieve,
            4 => ReplacementPolicy::TwoQ,
            _ => return Err(CorError::Durability("unknown policy tag".into())),
        };
        let smart_threshold = d.u64()?;
        let join = match d.u8()? {
            0 => JoinChoice::Auto,
            1 => JoinChoice::ForceMerge,
            2 => JoinChoice::ForceIterative,
            _ => return Err(CorError::Durability("unknown join tag".into())),
        };
        let sort_work_mem = d.u64()? as usize;
        let io = IoOptions {
            batch: d.u64()? as usize,
            readahead: d.u64()? as usize,
        };
        if found >= 2 {
            // The retired queue_depth word: any value decodes the same.
            d.u64()?;
        }
        let n = d.u32()? as usize;
        let mut free_pages = Vec::with_capacity(n);
        for _ in 0..n {
            free_pages.push(d.u32()?);
        }
        let backend = match d.u8()? {
            0 => SavedBackend::Oid(SavedOidDb::decode(&mut d)?),
            1 => {
                let n = d.u32()? as usize;
                let mut levels = Vec::with_capacity(n);
                for _ in 0..n {
                    levels.push(SavedOidDb::decode(&mut d)?);
                }
                SavedBackend::Levels(levels)
            }
            2 => SavedBackend::Proc(SavedProcDb::decode(&mut d)?),
            _ => return Err(CorError::Durability("unknown backend tag".into())),
        };
        if !d.is_empty() {
            return Err(CorError::Durability(
                "trailing bytes after engine catalog".into(),
            ));
        }
        Ok(EngineCatalog {
            clean_shutdown,
            pool_pages,
            shards,
            policy,
            opts: ExecOptions {
                smart_threshold,
                join,
                sort_work_mem,
                io,
                // One byte on disk is authoritative for the policy; the
                // ExecOptions mirror is re-synced here so readers of
                // either field agree.
                pool_policy: policy,
            },
            free_pages,
            backend,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complexobj::persist::SavedStorage;
    use cor_access::BTreeMeta;

    fn sample() -> EngineCatalog {
        EngineCatalog {
            clean_shutdown: true,
            pool_pages: 100,
            shards: 4,
            policy: ReplacementPolicy::Clock,
            opts: ExecOptions {
                smart_threshold: 123,
                join: JoinChoice::ForceMerge,
                sort_work_mem: 4096,
                io: IoOptions {
                    batch: 8,
                    readahead: 2,
                },
                pool_policy: ReplacementPolicy::Clock,
            },
            free_pages: vec![7, 9, 30],
            backend: SavedBackend::Oid(SavedOidDb {
                storage: SavedStorage::Standard {
                    parent: BTreeMeta {
                        key_len: 8,
                        root: 1,
                        first_leaf: 2,
                        len: 10,
                        height: 1,
                        leaf_pages: 3,
                    },
                    children: vec![],
                },
                parent_schema: complexobj::database::parent_schema(),
                child_schema: complexobj::database::child_schema(),
                parent_count: 10,
                child_counts: vec![],
                cache: None,
            }),
        }
    }

    #[test]
    fn roundtrip() {
        let cat = sample();
        let bytes = cat.encode();
        let back = EngineCatalog::decode(&bytes).unwrap();
        assert!(back.clean_shutdown);
        assert_eq!(back.pool_pages, 100);
        assert_eq!(back.shards, 4);
        assert_eq!(back.policy, ReplacementPolicy::Clock);
        assert_eq!(back.opts, cat.opts);
        assert_eq!(back.free_pages, vec![7, 9, 30]);
        assert!(matches!(back.backend, SavedBackend::Oid(_)));
    }

    /// Payload offset of the retired queue_depth word: after
    /// clean_shutdown, pool_pages, shards, policy, smart_threshold, join,
    /// sort_work_mem, batch and readahead.
    const QUEUE_DEPTH_AT: usize = 47;

    #[test]
    fn v1_blob_decodes_with_synchronous_queue_depth() {
        let cat = sample();
        let v3 = cat.encode();
        // Rebuild the same blob in the v1 layout: drop the queue_depth
        // word and restamp version + CRC.
        let mut payload = v3[16..].to_vec();
        payload.drain(QUEUE_DEPTH_AT..QUEUE_DEPTH_AT + 8);
        let mut v1 = Vec::with_capacity(16 + payload.len());
        v1.extend_from_slice(&v3[..8]);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&crc32(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        let back = EngineCatalog::decode(&v1).unwrap();
        assert_eq!(back.opts, cat.opts);
        assert_eq!(back.free_pages, cat.free_pages);
    }

    #[test]
    fn retired_queue_depth_word_is_written_as_one_and_ignored() {
        let slot = 16 + QUEUE_DEPTH_AT..16 + QUEUE_DEPTH_AT + 8;
        let fresh = EngineCatalog {
            policy: ReplacementPolicy::Lru,
            opts: ExecOptions::default(),
            ..sample()
        };
        assert_eq!(&fresh.encode()[slot.clone()], &1u64.to_le_bytes());
        let cat = sample();
        let blob = cat.encode();
        // Stores written at queue depth 4 reopen with the same options.
        for version in [2, 3] {
            let mut deep = blob.clone();
            deep[slot.clone()].copy_from_slice(&4u64.to_le_bytes());
            let back = EngineCatalog::decode(&restamp(&deep, version)).unwrap();
            let one = EngineCatalog::decode(&restamp(&blob, version)).unwrap();
            assert_eq!(back.opts, one.opts, "v{version}");
            assert_eq!(back.opts, cat.opts, "v{version}");
            assert_eq!(back.free_pages, cat.free_pages, "v{version}");
        }
    }

    #[test]
    fn scan_resistant_policies_roundtrip() {
        for p in [ReplacementPolicy::Sieve, ReplacementPolicy::TwoQ] {
            let mut cat = sample();
            cat.policy = p;
            cat.opts.pool_policy = p;
            let back = EngineCatalog::decode(&cat.encode()).unwrap();
            assert_eq!(back.policy, p);
            assert_eq!(back.opts.pool_policy, p, "decode re-syncs the mirror");
        }
    }

    /// Restamp `blob`'s version header as `version` (layout is shared
    /// across v2/v3, so only the header and CRC change).
    fn restamp(blob: &[u8], version: u32) -> Vec<u8> {
        let payload = &blob[16..];
        let mut out = Vec::with_capacity(blob.len());
        out.extend_from_slice(&blob[..8]);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn v2_blob_decodes_and_upgrades_to_v3() {
        // A default v2 store: LRU (policy tag 0), the only policies v2
        // could write being tags 0–2.
        let mut cat = sample();
        cat.policy = ReplacementPolicy::Lru;
        cat.opts.pool_policy = ReplacementPolicy::Lru;
        let v2 = restamp(&cat.encode(), 2);
        let back = EngineCatalog::decode(&v2).unwrap();
        assert_eq!(back.policy, ReplacementPolicy::Lru, "v2 stores open LRU");
        assert_eq!(back.opts.pool_policy, ReplacementPolicy::Lru);
        assert_eq!(back.opts, cat.opts);
        // The next save upgrades the header to v3 with the same payload.
        let resaved = back.encode();
        assert_eq!(&resaved[8..12], &3u32.to_le_bytes());
        assert_eq!(&resaved[16..], &v2[16..]);
        // A non-default v2 policy (Clock) survives too.
        let clocked = restamp(&sample().encode(), 2);
        let back = EngineCatalog::decode(&clocked).unwrap();
        assert_eq!(back.policy, ReplacementPolicy::Clock);
    }

    #[test]
    fn typed_header_errors() {
        assert!(matches!(
            EngineCatalog::decode(b"short"),
            Err(CorError::CatalogMissing)
        ));
        assert!(matches!(
            EngineCatalog::decode(&[0u8; 64]),
            Err(CorError::CatalogMissing)
        ));
        let mut bytes = sample().encode();
        bytes[8] = 99; // version field
        assert!(matches!(
            EngineCatalog::decode(&bytes),
            Err(CorError::CatalogVersion {
                found: 99,
                expected: ENGINE_CATALOG_VERSION
            })
        ));
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // payload corruption under a stale CRC
        assert!(matches!(
            EngineCatalog::decode(&bytes),
            Err(CorError::Durability(_))
        ));
    }
}
