//! Timing wrappers around the engine's two storage seams, installed only
//! in the traced run.
//!
//! [`TimingDisk`] wraps any [`DiskManager`] and [`TimingLog`] any
//! [`LogStore`]; both forward every call unchanged and count it, time it,
//! and charge its busy time to the operation kind the calling client is
//! running ([`set_op`]) and to the engine phase the thread is in
//! ([`current_phase`]). That charge is what nests device time inside the
//! phase ledger without a hook in the engine's own code.

use cor_obs::{current_phase, PHASE_COUNT};
use cor_pagestore::{DiskError, DiskManager, PageBuf, PageId};
use cor_wal::{LogStore, Lsn};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a client thread is doing when it calls into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Retrieve = 0,
    Update = 1,
    /// Set-up, warm-up and anything not issued by a measured client.
    Other = 2,
}

const OP_KINDS: usize = 3;

thread_local! {
    static CURRENT_OP: Cell<OpKind> = const { Cell::new(OpKind::Other) };
}

/// Mark what this thread's next engine calls are on behalf of.
pub fn set_op(kind: OpKind) {
    CURRENT_OP.with(|c| c.set(kind));
}

/// Busy nanoseconds split by operation kind and engine phase.
struct BusyGrid([[AtomicU64; PHASE_COUNT]; OP_KINDS]);

impl BusyGrid {
    fn new() -> Self {
        BusyGrid(std::array::from_fn(|_| {
            std::array::from_fn(|_| AtomicU64::new(0))
        }))
    }

    fn charge(&self, ns: u64) {
        let op = CURRENT_OP.with(|c| c.get()) as usize;
        self.0[op][current_phase().index()].fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> [[u64; PHASE_COUNT]; OP_KINDS] {
        std::array::from_fn(|o| std::array::from_fn(|p| self.0[o][p].load(Ordering::Relaxed)))
    }
}

fn timed<R>(busy: &AtomicU64, grid: &BusyGrid, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    busy.fetch_add(ns, Ordering::Relaxed);
    grid.charge(ns);
    r
}

/// Call counts and busy time at one instant; subtract two with
/// [`ProbeSnapshot::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeSnapshot {
    /// `read_page` plus `read_pages` calls (disk only).
    pub reads: u64,
    /// `write_page` calls (disk) or `append` calls (log).
    pub writes: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// Nanoseconds inside reads and writes.
    pub transfer_ns: u64,
    /// Nanoseconds inside `sync`.
    pub sync_ns: u64,
    /// All busy nanoseconds by `[OpKind][Phase::index]`.
    pub by_op_phase: [[u64; PHASE_COUNT]; OP_KINDS],
}

impl ProbeSnapshot {
    pub fn since(&self, earlier: &ProbeSnapshot) -> ProbeSnapshot {
        ProbeSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            transfer_ns: self.transfer_ns - earlier.transfer_ns,
            sync_ns: self.sync_ns - earlier.sync_ns,
            by_op_phase: std::array::from_fn(|o| {
                std::array::from_fn(|p| self.by_op_phase[o][p] - earlier.by_op_phase[o][p])
            }),
        }
    }

    /// Busy nanoseconds charged to operations of `kind`, by phase.
    pub fn busy_of(&self, kind: OpKind) -> [u64; PHASE_COUNT] {
        self.by_op_phase[kind as usize]
    }

    pub fn busy_ns(&self) -> u64 {
        self.transfer_ns + self.sync_ns
    }
}

/// Counters shared by a wrapper and the benchmark that reads them.
pub struct Probe {
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    transfer_ns: AtomicU64,
    sync_ns: AtomicU64,
    grid: BusyGrid,
}

impl Probe {
    pub fn new() -> Arc<Self> {
        Arc::new(Probe {
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            transfer_ns: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
            grid: BusyGrid::new(),
        })
    }

    pub fn snapshot(&self) -> ProbeSnapshot {
        ProbeSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            transfer_ns: self.transfer_ns.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            by_op_phase: self.grid.snapshot(),
        }
    }

    fn transfer<R>(&self, counter: &AtomicU64, f: impl FnOnce() -> R) -> R {
        counter.fetch_add(1, Ordering::Relaxed);
        timed(&self.transfer_ns, &self.grid, f)
    }

    fn sync<R>(&self, f: impl FnOnce() -> R) -> R {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        timed(&self.sync_ns, &self.grid, f)
    }
}

/// A [`DiskManager`] that forwards to `inner` and records each transfer.
pub struct TimingDisk<D> {
    inner: D,
    probe: Arc<Probe>,
}

impl<D: DiskManager> TimingDisk<D> {
    pub fn new(inner: D, probe: Arc<Probe>) -> Self {
        TimingDisk { inner, probe }
    }
}

impl<D: DiskManager> DiskManager for TimingDisk<D> {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<(), DiskError> {
        self.probe
            .transfer(&self.probe.reads, || self.inner.read_page(id, buf))
    }
    fn read_pages(&self, ids: &[PageId], bufs: &mut [&mut PageBuf]) -> Result<usize, DiskError> {
        self.probe
            .transfer(&self.probe.reads, || self.inner.read_pages(ids, bufs))
    }
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<(), DiskError> {
        self.probe
            .transfer(&self.probe.writes, || self.inner.write_page(id, buf))
    }
    fn allocate_page(&self) -> Result<PageId, DiskError> {
        self.inner.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
    fn sync(&self) -> Result<(), DiskError> {
        self.probe.sync(|| self.inner.sync())
    }
    // Left at the trait default (`None`): a direct-fd read path would
    // bypass the wrapper. At queue depth 1 the pool never takes it.
}

/// A [`LogStore`] that forwards to `inner` and records appends and syncs.
pub struct TimingLog<L> {
    inner: L,
    probe: Arc<Probe>,
}

impl<L: LogStore> TimingLog<L> {
    pub fn new(inner: L, probe: Arc<Probe>) -> Self {
        TimingLog { inner, probe }
    }
}

impl<L: LogStore> LogStore for TimingLog<L> {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.probe
            .transfer(&self.probe.writes, || self.inner.append(bytes))
    }
    fn sync(&self) -> io::Result<()> {
        self.probe.sync(|| self.inner.sync())
    }
    fn rotate(&self, first_lsn: Lsn) -> io::Result<()> {
        self.inner.rotate(first_lsn)
    }
    fn gc_before(&self, lsn: Lsn) -> io::Result<usize> {
        self.inner.gc_before(lsn)
    }
    fn read_segments(&self) -> io::Result<Vec<Vec<u8>>> {
        self.inner.read_segments()
    }
    fn segment_count(&self) -> usize {
        self.inner.segment_count()
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_obs::{Phase, PhaseGuard};
    use cor_pagestore::{MemDisk, PAGE_SIZE};
    use cor_wal::MemLogStore;

    #[test]
    fn disk_wrapper_forwards_and_charges_op_and_phase() {
        let probe = Probe::new();
        let disk = TimingDisk::new(MemDisk::new(), Arc::clone(&probe));
        let id = disk.allocate_page().unwrap();
        let mut page: PageBuf = [7u8; PAGE_SIZE];
        disk.write_page(id, &page).unwrap();
        set_op(OpKind::Retrieve);
        {
            let _g = PhaseGuard::enter(Phase::Sort);
            page.fill(0);
            disk.read_page(id, &mut page).unwrap();
        }
        set_op(OpKind::Other);
        disk.sync().unwrap();
        assert_eq!(page[0], 7, "reads return what the inner store holds");
        let s = probe.snapshot();
        assert_eq!((s.reads, s.writes, s.syncs), (1, 1, 1));
        let retrieve = s.busy_of(OpKind::Retrieve);
        assert!(retrieve[Phase::Sort.index()] > 0);
        let charged: u64 = s.by_op_phase.iter().flatten().sum();
        assert_eq!(charged, s.busy_ns(), "every busy ns lands in one cell");
    }

    #[test]
    fn log_wrapper_forwards_appends_and_syncs() {
        let probe = Probe::new();
        let log = TimingLog::new(MemLogStore::new(), Arc::clone(&probe));
        log.append(b"abc").unwrap();
        log.sync().unwrap();
        assert_eq!(log.read_segments().unwrap().concat(), b"abc");
        let s = probe.snapshot();
        assert_eq!((s.writes, s.syncs), (1, 1));
    }
}
