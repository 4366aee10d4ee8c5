//! External merge sort over OID keys.
//!
//! The competitive BFS strategy of Sec. 3.1 sorts its temporary relation of
//! OIDs so a merge join against the OID-ordered ChildRel B-tree is
//! possible. Every sort key is an OID's [`OID_BYTES`]-byte big-endian key
//! encoding, so the sorter carries each key as one packed integer (see
//! [`pack_key`]) and allocates nothing per key.
//!
//! Run generation respects a work-memory budget; runs spill to heap files
//! whose page I/O is accounted by the shared buffer pool, so the cost of
//! "forming a temporary" that the paper observes at low NumTop shows up
//! naturally. An input that fits in work memory sorts without any I/O.

use crate::heap::HeapFile;
use crate::AccessError;
use cor_obs::{Phase, PhaseGuard};
use cor_pagestore::{BufferPool, PageId, NO_PAGE};
use cor_relational::OID_BYTES;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Default sort work memory: the paper's 100-page buffer would realistically
/// give the sorter a fraction; 32 pages of 2 KB.
pub const DEFAULT_WORK_MEM: usize = 32 * cor_pagestore::PAGE_SIZE;

/// Work memory charged per key on top of its bytes: the bookkeeping of
/// one in-memory record.
const KEY_OVERHEAD: usize = 16;

/// Pack an OID key into one integer: the bytes big-endian in the low end,
/// zeros above. Packed order is the byte-wise order, and [`unpack_key`]
/// restores the bytes.
///
/// ```
/// use cor_access::sort::{pack_key, unpack_key};
/// use cor_relational::Oid;
///
/// let (a, b) = (Oid::new(1, 9).to_key_bytes(), Oid::new(2, 0).to_key_bytes());
/// assert!(pack_key(&a) < pack_key(&b));
/// assert_eq!(unpack_key(pack_key(&a)), a);
/// ```
pub fn pack_key(key: &[u8; OID_BYTES]) -> u128 {
    let mut b = [0u8; 16];
    b[16 - OID_BYTES..].copy_from_slice(key);
    u128::from_be_bytes(b)
}

/// The OID key that `packed` holds (the inverse of [`pack_key`]).
pub fn unpack_key(packed: u128) -> [u8; OID_BYTES] {
    let mut out = [0u8; OID_BYTES];
    out.copy_from_slice(&packed.to_be_bytes()[16 - OID_BYTES..]);
    out
}

/// Work memory the sorter charges for `n` keys. This is the spill rule:
/// run generation flushes a run as soon as the charge for the keys it
/// holds exceeds the work memory, so `n` keys sort without I/O iff
/// `sort_mem(n) <= work_mem`.
pub fn sort_mem(n: usize) -> usize {
    n * (OID_BYTES + KEY_OVERHEAD)
}

/// Sort the packed keys of `input` (see [`pack_key`]), spilling runs into
/// `pool` when the work-memory budget is exceeded (see [`sort_mem`]). With
/// `dedup`, duplicate keys are removed (the BFSNODUP strategy). The input
/// is consumed before this returns; an input error is returned as is.
///
/// ```
/// use cor_access::sort::{external_sort, pack_key, DEFAULT_WORK_MEM};
/// use cor_pagestore::BufferPool;
/// use cor_relational::Oid;
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::builder().capacity(8).build());
/// let key = |k| pack_key(&Oid::new(1, k).to_key_bytes());
/// let keys = [2, 1, 1].map(|k| Ok(key(k)));
/// let sorted: Vec<u128> = external_sort(&pool, keys, DEFAULT_WORK_MEM, true)
///     .unwrap()
///     .collect::<Result<_, _>>()
///     .unwrap();
/// assert_eq!(sorted, vec![key(1), key(2)]); // sorted + deduped
/// ```
pub fn external_sort(
    pool: &Arc<BufferPool>,
    input: impl IntoIterator<Item = Result<u128, AccessError>>,
    work_mem: usize,
    dedup: bool,
) -> Result<SortedStream, AccessError> {
    let mut runs: Vec<(HeapFile, KeyCursor)> = Vec::new();
    let mut current: Vec<u128> = Vec::new();

    let flush = |current: &mut Vec<u128>, runs: &mut Vec<_>| -> Result<(), AccessError> {
        // Spill I/O belongs to the sort even when the sort runs inside a
        // broader bracket (e.g. a merge join consuming this stream).
        let _phase = PhaseGuard::enter(Phase::Sort);
        sort_keys(current, dedup);
        let records: Vec<[u8; OID_BYTES]> = current.iter().map(|&k| unpack_key(k)).collect();
        let run = HeapFile::create(Arc::clone(pool))?;
        run.append_all(&records)?;
        let cursor = KeyCursor::new(&run);
        runs.push((run, cursor));
        current.clear();
        Ok(())
    };

    for key in input {
        current.push(key?);
        if sort_mem(current.len()) > work_mem {
            flush(&mut current, &mut runs)?;
        }
    }

    if runs.is_empty() {
        // Everything fit in memory: no spill, no I/O.
        sort_keys(&mut current, dedup);
        return Ok(SortedStream::Memory(current.into_iter()));
    }
    if !current.is_empty() {
        flush(&mut current, &mut runs)?;
    }

    let mut heap = BinaryHeap::new();
    {
        let _phase = PhaseGuard::enter(Phase::Sort);
        for (i, (run, cursor)) in runs.iter_mut().enumerate() {
            if let Some(key) = cursor.next(run)? {
                heap.push(Reverse((key, i)));
            }
        }
    }
    Ok(SortedStream::Merge(MergeRuns {
        runs,
        heap,
        dedup,
        last: None,
    }))
}

/// Sort the OID records of the temporary `temp` with [`external_sort`],
/// then destroy it ([`HeapFile::destroy`]): the sort reads the whole
/// temporary before it returns. The temporary is destroyed when the sort
/// fails, too.
pub fn sort_temp(
    temp: HeapFile,
    work_mem: usize,
    dedup: bool,
) -> Result<SortedStream, AccessError> {
    let sorted = external_sort(temp.pool(), heap_keys(&temp), work_mem, dedup);
    temp.destroy()?;
    sorted
}

fn sort_keys(keys: &mut Vec<u128>, dedup: bool) {
    keys.sort_unstable();
    if dedup {
        keys.dedup();
    }
}

/// The packed keys of a heap file of OID records, in chain order. Like the
/// sorter's run read-back, each page is read when the keys of the previous
/// one are used up, so consumers that touch the pool between keys see the
/// same page I/O as a record-at-a-time scan.
///
/// A failed page read, or a record that is not [`OID_BYTES`] long, is
/// returned as an error, after which the stream ends.
pub fn heap_keys(heap: &HeapFile) -> impl Iterator<Item = Result<u128, AccessError>> + '_ {
    let mut cursor = KeyCursor::new(heap);
    std::iter::from_fn(move || cursor.next(heap).transpose())
}

/// Page-at-a-time cursor over the packed keys of one heap file, holding
/// no borrow of it (the merge owns its runs and their cursors side by
/// side).
struct KeyCursor {
    next_page: PageId,
    keys: Vec<u128>,
    pos: usize,
}

impl KeyCursor {
    fn new(heap: &HeapFile) -> Self {
        KeyCursor {
            next_page: heap.first_page(),
            keys: Vec::new(),
            pos: 0,
        }
    }

    /// The next key of `heap` (the file this cursor was made for),
    /// reading the next non-empty page only once the buffered keys are
    /// used up; `None` after the tail.
    fn next(&mut self, heap: &HeapFile) -> Result<Option<u128>, AccessError> {
        while self.pos == self.keys.len() {
            if self.next_page == NO_PAGE {
                return Ok(None);
            }
            self.keys.clear();
            self.pos = 0;
            let keys = &mut self.keys;
            let mut bad_len = None;
            // An error ends the stream.
            let page = std::mem::replace(&mut self.next_page, NO_PAGE);
            let next = heap.for_each_record(page, |rec| match rec.try_into() {
                Ok(key) => keys.push(pack_key(key)),
                Err(_) => bad_len = Some(rec.len()),
            })?;
            if let Some(len) = bad_len {
                self.keys.clear();
                return Err(AccessError::BadKeyLen(len));
            }
            self.next_page = next;
        }
        self.pos += 1;
        Ok(Some(self.keys[self.pos - 1]))
    }
}

/// The output of [`external_sort`]: the packed keys in ascending order,
/// either from a fully in-memory sorted vector or a streaming k-way merge
/// over spilled runs. A failed run read is yielded as an error.
pub enum SortedStream {
    /// Input fit in work memory.
    Memory(std::vec::IntoIter<u128>),
    /// Streaming merge over spilled runs.
    Merge(MergeRuns),
}

impl Iterator for SortedStream {
    type Item = Result<u128, AccessError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            SortedStream::Memory(it) => it.next().map(Ok),
            SortedStream::Merge(m) => m.next(),
        }
    }
}

/// K-way merge over sorted spill runs. Equal keys leave in run order, and
/// a run's next page is read when the merge hands out the last buffered
/// key of that run.
pub struct MergeRuns {
    /// The run files (kept alive for the duration of the merge) and
    /// their read cursors.
    runs: Vec<(HeapFile, KeyCursor)>,
    heap: BinaryHeap<Reverse<(u128, usize)>>,
    dedup: bool,
    last: Option<u128>,
}

impl Iterator for MergeRuns {
    type Item = Result<u128, AccessError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let Reverse((key, i)) = self.heap.pop()?;
            let refill = {
                // Run read-back is sort I/O regardless of who consumes the
                // merged stream.
                let _phase = PhaseGuard::enter(Phase::Sort);
                let (run, cursor) = &mut self.runs[i];
                cursor.next(run)
            };
            match refill {
                Ok(Some(next)) => self.heap.push(Reverse((next, i))),
                Ok(None) => {}
                Err(e) => return Some(Err(e)),
            }
            if self.dedup {
                if self.last == Some(key) {
                    continue;
                }
                self.last = Some(key);
            }
            return Some(Ok(key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::builder().capacity(frames).build())
    }

    /// An OID key whose low 8 bytes are `k`.
    fn key(k: u64) -> [u8; OID_BYTES] {
        let mut r = [0u8; OID_BYTES];
        r[OID_BYTES - 8..].copy_from_slice(&k.to_be_bytes());
        r
    }

    fn scrambled(n: u64) -> Vec<u128> {
        let mut k = 12345u64;
        (0..n)
            .map(|_| {
                k = k
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                pack_key(&key(k % (n * 2)))
            })
            .collect()
    }

    fn sort(p: &Arc<BufferPool>, input: &[u128], work_mem: usize, dedup: bool) -> Vec<u128> {
        external_sort(p, input.iter().copied().map(Ok), work_mem, dedup)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn in_memory_sort_no_io() {
        let p = pool(8);
        let input = scrambled(100);
        let before = p.stats().snapshot();
        let sorted = sort(&p, &input, DEFAULT_WORK_MEM, false);
        assert_eq!(p.stats().snapshot().since(&before).total(), 0);
        let mut expect = input;
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn spilled_sort_is_correct() {
        let p = pool(8);
        let input = scrambled(5000);
        // Tiny work memory: force many runs.
        let sorted = sort(&p, &input, 4096, false);
        assert!(
            p.stats().writes() > 0 || p.stats().allocations() > 0,
            "must have spilled"
        );
        let mut expect = input;
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn dedup_in_memory_and_spilled() {
        let p = pool(8);
        let mut input = scrambled(1000);
        input.extend(scrambled(1000)); // guaranteed duplicates
        let mut expect = input.clone();
        expect.sort();
        expect.dedup();
        assert_eq!(sort(&p, &input, usize::MAX, true), expect);
        assert_eq!(sort(&p, &input, 2048, true), expect);
    }

    #[test]
    fn empty_input() {
        let p = pool(4);
        assert!(sort(&p, &[], DEFAULT_WORK_MEM, false).is_empty());
    }

    /// `n` keys sort in memory iff `sort_mem(n) <= work_mem`; past that,
    /// every run but the last holds the keys that first exceed the budget.
    #[test]
    fn spill_boundary_follows_sort_mem() {
        let work_mem = 10 * sort_mem(1);
        let per_run = work_mem / sort_mem(1) + 1;
        for n in [9usize, 10, 11, 21, 22, 23] {
            let p = pool(64);
            let input: Vec<u128> = (0..n as u128).rev().collect();
            let spills = sort_mem(n) > work_mem;
            let sorted = sort(&p, &input, work_mem, false);
            let mut expect = input;
            expect.sort();
            assert_eq!(sorted, expect, "n={n}");
            // Each run is one small page: one allocation per run.
            let runs = p.stats().allocations() as usize;
            let want = if spills { n.div_ceil(per_run) } else { 0 };
            assert_eq!(runs, want, "n={n}: runs");
            assert_eq!(n <= 10, !spills, "n={n}: boundary at 10 keys");
        }
    }

    #[test]
    fn wrong_key_length_is_an_error() {
        let p = pool(4);
        let heap = HeapFile::create(Arc::clone(&p)).unwrap();
        heap.append_all(&[&key(1)[..], b"short"]).unwrap();
        let got: Vec<_> = heap_keys(&heap).collect();
        assert_eq!(
            got.len(),
            1,
            "a page with a bad record yields only the error"
        );
        assert!(matches!(got[0], Err(AccessError::BadKeyLen(5))));
    }

    /// A failed sort still destroys its temporary.
    #[test]
    fn sort_temp_destroys_the_temporary_on_failure() {
        use cor_pagestore::MemDisk;
        let disk = Arc::new(MemDisk::new());
        let p = Arc::new(
            BufferPool::builder()
                .capacity(4)
                .disk(Box::new(Arc::clone(&disk)))
                .build(),
        );
        let temp = HeapFile::create(Arc::clone(&p)).unwrap();
        temp.append_all(&[&key(1)[..], b"short"]).unwrap();
        temp.flush().unwrap();
        assert_eq!(disk.live_pages(), 1);
        assert!(matches!(
            sort_temp(temp, DEFAULT_WORK_MEM, false),
            Err(AccessError::BadKeyLen(5))
        ));
        assert_eq!(disk.live_pages(), 0);
    }

    #[test]
    fn heap_keys_reads_a_page_when_the_previous_is_used_up() {
        let p = pool(4);
        let heap = HeapFile::create(Arc::clone(&p)).unwrap();
        let keys: Vec<[u8; OID_BYTES]> = (0..1000u64).map(key).collect();
        heap.append_all(&keys).unwrap();
        assert!(heap.num_pages() > 4);
        p.flush_and_clear().unwrap();
        let before = p.stats().reads();
        let mut it = heap_keys(&heap);
        assert_eq!(it.next().unwrap().unwrap(), pack_key(&keys[0]));
        assert_eq!(p.stats().reads() - before, 1, "only the first page");
        let rest: Vec<u128> = it.collect::<Result<_, _>>().unwrap();
        assert_eq!(rest.len(), 999);
        assert_eq!(p.stats().reads() - before, heap.num_pages() as u64);
    }
}
