//! Heap files: unordered chains of slotted pages.
//!
//! Heap files back the temporary relations of the BFS strategies (the
//! `temp` relation of Sec. 3.1) and the sorted runs of the external sorter.
//! Appends fill the tail page and extend the chain when it overflows; scans
//! walk the chain in page order.

use cor_pagestore::{BufferError, BufferPool, PageId, SlotId, NO_PAGE};
use std::sync::{Arc, Mutex};

/// Physical address of a record: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

/// Structural metadata of a heap file, sufficient to reattach to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapMeta {
    /// First page of the chain.
    pub first: PageId,
    /// Tail page (append target).
    pub last: PageId,
    /// Live record count.
    pub len: u64,
    /// Chain length in pages.
    pub pages: u32,
}

/// An unordered file of variable-length records.
///
/// ```
/// use cor_access::HeapFile;
/// use cor_pagestore::{BufferPool, IoStats, MemDisk};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let temp = HeapFile::create(pool).unwrap();
/// temp.append(b"oid-1").unwrap();
/// temp.append(b"oid-2").unwrap();
/// assert_eq!(temp.len(), 2);
/// ```
pub struct HeapFile {
    pool: Arc<BufferPool>,
    first: PageId,
    last: crate::sync_cell::SyncCell<PageId>,
    len: crate::sync_cell::SyncCell<u64>,
    pages: crate::sync_cell::SyncCell<u32>,
    /// Pages this handle allocated, in chain order: what [`Self::destroy`]
    /// discards. Empty for a handle reattached via [`Self::from_metadata`].
    allocated: Mutex<Vec<PageId>>,
}

impl HeapFile {
    /// Create an empty heap file (allocates its first page).
    pub fn create(pool: Arc<BufferPool>) -> Result<Self, BufferError> {
        let first = pool.allocate_page()?;
        pool.write(first, |mut p| p.init())?;
        Ok(HeapFile {
            pool,
            first,
            last: crate::sync_cell::SyncCell::new(first),
            len: crate::sync_cell::SyncCell::new(0),
            pages: crate::sync_cell::SyncCell::new(1),
            allocated: Mutex::new(vec![first]),
        })
    }

    /// Create a temporary holding `records`, in order, and force its pages
    /// to disk ([`Self::append_all`], then [`Self::flush`]), so the
    /// temporary's formation is charged its writes. A temporary that fails
    /// to form is destroyed before the error is returned.
    pub fn materialize<R: AsRef<[u8]>>(
        pool: Arc<BufferPool>,
        records: &[R],
    ) -> Result<Self, BufferError> {
        let temp = HeapFile::create(pool)?;
        match temp.append_all(records).and_then(|()| temp.flush()) {
            Ok(()) => Ok(temp),
            Err(e) => {
                temp.destroy()?;
                Err(e)
            }
        }
    }

    /// The buffer pool this file lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Snapshot of the chain's metadata, for persisting in a catalog.
    pub fn metadata(&self) -> HeapMeta {
        HeapMeta {
            first: self.first,
            last: self.last.get(),
            len: self.len.get(),
            pages: self.pages.get(),
        }
    }

    /// Reattach to a heap file previously persisted via [`Self::metadata`].
    pub fn from_metadata(pool: Arc<BufferPool>, meta: HeapMeta) -> Self {
        HeapFile {
            pool,
            first: meta.first,
            last: crate::sync_cell::SyncCell::new(meta.last),
            len: crate::sync_cell::SyncCell::new(meta.len),
            pages: crate::sync_cell::SyncCell::new(meta.pages),
            allocated: Mutex::new(Vec::new()),
        }
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.len.get()
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages in the chain.
    pub fn num_pages(&self) -> u32 {
        self.pages.get()
    }

    /// Append a record, returning its address.
    pub fn append(&self, record: &[u8]) -> Result<RecordId, BufferError> {
        let tail = self.last.get();
        let slot = self.pool.write(tail, |mut p| p.insert(record))?;
        if let Ok(slot) = slot {
            self.len.set(self.len.get() + 1);
            return Ok(RecordId { page: tail, slot });
        }
        // Tail page full: extend the chain.
        let fresh = self.pool.allocate_page()?;
        self.pool.write(fresh, |mut p| p.init())?;
        self.pool.write(tail, |mut p| p.set_next(fresh))?;
        self.extended(fresh);
        let slot = self
            .pool
            .write(fresh, |mut p| p.insert(record))?
            .expect("fresh page must accept any record that fits a page");
        self.len.set(self.len.get() + 1);
        Ok(RecordId { page: fresh, slot })
    }

    /// Append every record, in order, filling each page in one pin.
    ///
    /// Leaves the same chain, page bytes and page I/O as a loop of
    /// [`Self::append`]: the tail takes records until one does not fit,
    /// then a fresh page is allocated, linked from the tail, and filled.
    pub fn append_all<R: AsRef<[u8]>>(&self, records: &[R]) -> Result<(), BufferError> {
        let mut rest = records;
        let mut fresh = false;
        while !rest.is_empty() {
            let tail = self.last.get();
            let placed = self.pool.write(tail, |mut p| {
                if fresh {
                    p.init();
                }
                p.insert_all(rest)
            })?;
            assert!(
                placed > 0 || !fresh,
                "fresh page must accept any record that fits a page"
            );
            self.len.set(self.len.get() + placed as u64);
            rest = &rest[placed..];
            if rest.is_empty() {
                break;
            }
            let next = self.pool.allocate_page()?;
            self.pool.write(tail, |mut p| p.set_next(next))?;
            self.extended(next);
            fresh = true;
        }
        Ok(())
    }

    /// Make `fresh`, already linked from the tail, the new tail.
    fn extended(&self, fresh: PageId) {
        self.last.set(fresh);
        self.pages.set(self.pages.get() + 1);
        self.allocated
            .lock()
            .expect("a panic while recording a page id leaves no partial state")
            .push(fresh);
    }

    /// Fetch the record at `rid`.
    pub fn get(&self, rid: RecordId) -> Result<Option<Vec<u8>>, BufferError> {
        self.pool
            .read(rid.page, |p| p.record(rid.slot).map(|r| r.to_vec()))
    }

    /// Overwrite the record at `rid` in place (must fit in its page).
    pub fn update(&self, rid: RecordId, record: &[u8]) -> Result<bool, BufferError> {
        self.pool
            .write(rid.page, |mut p| p.update(rid.slot, record).is_ok())
    }

    /// Delete the record at `rid`. Returns whether a record was removed.
    pub fn delete(&self, rid: RecordId) -> Result<bool, BufferError> {
        let removed = self
            .pool
            .write(rid.page, |mut p| p.delete(rid.slot).is_ok())?;
        if removed {
            self.len.set(self.len.get() - 1);
        }
        Ok(removed)
    }

    /// Force every page of this file to disk (counting the writes). Used
    /// to materialize temporaries whose creation cost must be charged.
    pub fn flush(&self) -> Result<(), BufferError> {
        let mut page = self.first;
        while page != NO_PAGE {
            self.pool.flush_page(page)?;
            let next = self.pool.read(page, |p| p.next())?;
            page = next;
        }
        Ok(())
    }

    /// Drop the file: discard every page this handle allocated from the
    /// pool and the store ([`BufferPool::discard_page`]). Page ids are not
    /// recycled. For temporaries whose contents are no longer needed —
    /// a dirty page is dropped without its write-back.
    pub fn destroy(self) -> Result<(), BufferError> {
        let pages = self
            .allocated
            .into_inner()
            .expect("a panic while recording a page id leaves no partial state");
        for pid in pages {
            self.pool.discard_page(pid)?;
        }
        Ok(())
    }

    /// First page of the chain, where a walk with
    /// [`Self::for_each_record`] starts.
    pub fn first_page(&self) -> PageId {
        self.first
    }

    /// Call `f` on every live record of chain page `page`, in slot order,
    /// and return the page that follows it (`NO_PAGE` after the tail).
    /// Costs one page read when the page is not resident. `f` runs while
    /// the page is pinned, so it must not use the pool.
    pub fn for_each_record(
        &self,
        page: PageId,
        mut f: impl FnMut(&[u8]),
    ) -> Result<PageId, BufferError> {
        self.pool.read(page, |p| {
            for (_, rec) in p.records() {
                f(rec);
            }
            p.next()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    /// Every live record, in chain order, through the page visitor.
    fn chain_records(heap: &HeapFile) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut page = heap.first_page();
        while page != NO_PAGE {
            page = heap
                .for_each_record(page, |r| out.push(r.to_vec()))
                .unwrap();
        }
        out
    }

    #[test]
    fn append_and_scan_preserve_order_within_pages() {
        let heap = HeapFile::create(pool(8)).unwrap();
        let records: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for r in &records {
            heap.append(r).unwrap();
        }
        assert_eq!(heap.len(), 100);
        let scanned = chain_records(&heap);
        assert_eq!(scanned, records);
    }

    #[test]
    fn chain_grows_past_one_page() {
        let heap = HeapFile::create(pool(8)).unwrap();
        let rec = [0u8; 200];
        for _ in 0..50 {
            heap.append(&rec).unwrap();
        }
        assert!(
            heap.num_pages() > 1,
            "200-byte x50 must overflow one 2KB page"
        );
        assert_eq!(chain_records(&heap).len(), 50);
    }

    #[test]
    fn get_update_delete() {
        let heap = HeapFile::create(pool(8)).unwrap();
        let rid = heap.append(b"abc").unwrap();
        assert_eq!(heap.get(rid).unwrap().unwrap(), b"abc");
        assert!(heap.update(rid, b"xyz").unwrap());
        assert_eq!(heap.get(rid).unwrap().unwrap(), b"xyz");
        assert!(heap.delete(rid).unwrap());
        assert_eq!(heap.get(rid).unwrap(), None);
        assert!(!heap.delete(rid).unwrap());
        assert_eq!(heap.len(), 0);
    }

    #[test]
    fn scan_skips_deleted_records() {
        let heap = HeapFile::create(pool(8)).unwrap();
        let a = heap.append(b"a").unwrap();
        heap.append(b"b").unwrap();
        let c = heap.append(b"c").unwrap();
        heap.delete(a).unwrap();
        heap.delete(c).unwrap();
        let left = chain_records(&heap);
        assert_eq!(left, vec![b"b".to_vec()]);
    }

    #[test]
    fn scan_costs_about_one_read_per_page_when_cold() {
        let p = pool(4);
        let heap = HeapFile::create(Arc::clone(&p)).unwrap();
        let rec = [7u8; 200];
        for _ in 0..90 {
            heap.append(&rec).unwrap(); // ~9 records/page -> ~10 pages
        }
        let pages = heap.num_pages() as u64;
        assert!(pages >= 10);
        p.flush_and_clear().unwrap();
        let before = p.stats().reads();
        assert_eq!(chain_records(&heap).len(), 90);
        let reads = p.stats().reads() - before;
        assert_eq!(reads, pages, "cold scan should read each page exactly once");
    }

    #[test]
    fn empty_heap_scans_nothing() {
        let heap = HeapFile::create(pool(2)).unwrap();
        assert!(chain_records(&heap).is_empty());
        assert!(heap.is_empty());
    }

    /// Every page of the chain, in order, as raw bytes.
    fn chain_bytes(heap: &HeapFile) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut page = heap.metadata().first;
        while page != NO_PAGE {
            let (bytes, next) = heap
                .pool()
                .read(page, |p| (p.bytes().to_vec(), p.next()))
                .unwrap();
            out.push(bytes);
            page = next;
        }
        out
    }

    #[test]
    fn append_all_matches_an_append_loop_in_bytes_and_io() {
        use cor_pagestore::ReplacementPolicy;
        let mut k = 3u64;
        let records: Vec<Vec<u8>> = (0..700)
            .map(|i| {
                k = k
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let len = if i % 50 == 0 {
                    1500
                } else {
                    (k >> 40) as usize % 90
                };
                vec![i as u8; len]
            })
            .collect();
        let (head, rest) = records.split_at(37);
        for policy in ReplacementPolicy::ALL {
            let run = |bulk: bool| {
                let p = Arc::new(BufferPool::builder().capacity(4).policy(policy).build());
                // Something resident beforehand, so the fill evicts.
                let other = HeapFile::create(Arc::clone(&p)).unwrap();
                other.append_all(&records[..200]).unwrap();
                let heap = HeapFile::create(Arc::clone(&p)).unwrap();
                for r in head {
                    heap.append(r).unwrap();
                }
                if bulk {
                    heap.append_all(rest).unwrap();
                    heap.append_all(&[] as &[Vec<u8>]).unwrap();
                } else {
                    for r in rest {
                        heap.append(r).unwrap();
                    }
                }
                let io = (
                    p.stats().reads(),
                    p.stats().writes(),
                    p.stats().allocations(),
                );
                (heap.metadata(), io, chain_bytes(&heap))
            };
            let (meta, io, bytes) = run(true);
            assert_eq!(meta, run(false).0, "{policy:?}: chain metadata");
            assert_eq!(io, run(false).1, "{policy:?}: reads, writes, allocations");
            assert!(bytes == run(false).2, "{policy:?}: page bytes");
            assert_eq!(meta.len, records.len() as u64);
            assert!(meta.pages > 10);
        }
    }

    #[test]
    fn destroy_discards_pages_without_recycling_ids() {
        use cor_pagestore::MemDisk;
        let disk = Arc::new(MemDisk::new());
        let p = Arc::new(
            BufferPool::builder()
                .capacity(8)
                .disk(Box::new(Arc::clone(&disk)))
                .build(),
        );
        let keep = HeapFile::create(Arc::clone(&p)).unwrap();
        keep.append(b"kept").unwrap();
        keep.flush().unwrap();
        let live = disk.live_pages();

        let temp = HeapFile::create(Arc::clone(&p)).unwrap();
        temp.append_all(&vec![[9u8; 10]; 1000]).unwrap();
        temp.flush().unwrap();
        let pages = temp.num_pages() as usize;
        assert!(pages > 1);
        assert_eq!(disk.live_pages(), live + pages);
        let allocated = p.num_pages();
        let writes = p.stats().writes();

        temp.destroy().unwrap();
        assert_eq!(disk.live_pages(), live, "the store released the bytes");
        assert_eq!(p.free_pages(), 0, "ids are not recycled");
        assert_eq!(p.resident_pages(), 1, "only the kept file stays resident");
        assert_eq!(p.stats().writes(), writes, "clean pages leave without I/O");
        let next = HeapFile::create(Arc::clone(&p)).unwrap();
        assert_eq!(
            next.metadata().first,
            allocated,
            "a new file extends the store"
        );
        assert_eq!(chain_records(&keep), vec![b"kept".to_vec()]);
    }
}
