//! `cor-aio`: asynchronous I/O submission over a [`DiskManager`].
//!
//! The batched read path (PR 5) made physical submissions *coalesced* —
//! a sorted batch of adjacent pages costs one positioned read — but
//! every submission is still synchronous: the CPU idles while each run
//! is in flight. This module adds the completion-queue model the
//! ROADMAP's async-I/O item calls for:
//!
//! * [`AioEngine::submit`] takes a sorted page batch, splits it into
//!   maximal consecutive runs (the same run structure
//!   `DiskManager::read_pages` coalesces to), and hands the runs to a
//!   backend that keeps up to `queue_depth` of them in flight at once;
//! * the returned [`SubmissionTicket`] is a completion queue: callers
//!   harvest with [`poll`](SubmissionTicket::poll) /
//!   [`wait`](SubmissionTicket::wait) (or per-page via
//!   [`Completion`]), overlapping their own compute with in-flight
//!   reads;
//! * a failed run **poisons** its ticket: no partial bytes are ever
//!   observable — every completion of the failed run reports the error,
//!   and [`SubmissionTicket::wait_pages`] returns nothing but the error.
//!
//! # Backends
//!
//! * [`AioBackend::Sync`] — the degenerate backend: `submit` performs
//!   every run inline on the calling thread. Used at queue depth 1 and
//!   as the last-resort fallback; byte-identical to a plain
//!   `read_pages` loop by construction.
//! * [`AioBackend::ThreadPool`] — `queue_depth` worker threads pull
//!   runs from a shared queue and execute them with ordinary blocking
//!   `read_pages` calls. Portable, zero external dependencies, and the
//!   backend every [`DiskManager`] supports — including fault-injecting
//!   wrappers like [`FaultyDisk`](crate::FaultyDisk), whose operation
//!   ordinals keep ticking because the reads still flow through the
//!   trait.
//! * [`AioBackend::IoUring`] — a raw-syscall `io_uring` ring on Linux
//!   (`io_uring` cargo feature, off by default): one submission-queue
//!   entry per run, real kernel-side queue depth, no liburing. Only
//!   engaged when the disk exposes a raw file descriptor
//!   ([`DiskManager::raw_read_fd`]); anything wrapped (fault injection,
//!   seek charging) or memory-backed falls back to the thread pool, and
//!   a kernel without `io_uring` falls back cleanly at construction.
//!
//! # Accounting
//!
//! The engine deliberately does **not** touch the core
//! [`IoStats`](crate::IoStats) transfer counters: the buffer pool
//! counts a read when bytes actually cross into a frame (harvest time),
//! exactly like the synchronous path, so `reads`/`batch_reads` totals
//! stay comparable across queue depths. The engine maintains only the
//! new `aio_*` counters — runs submitted, runs completed, and the peak
//! number of runs in flight — which are zero whenever the engine is
//! unused (the depth-1 byte-identity mode).
//!
//! When a submission would exceed the configured depth the surplus runs
//! queue up (submission never blocks) and the event is journaled to the
//! flight recorder as a queue-saturation mark; time a demand access
//! spends blocked on an incomplete run is profiled under the
//! `aio_completion` wait class.

use crate::disk::{DiskError, DiskManager};
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use cor_obs::{flight, wait};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Hard cap on worker threads / kernel queue entries, a safety bound
/// for absurd depth requests; the effective queue depth is clamped here.
const MAX_QUEUE_DEPTH: usize = 64;

/// Which submission backend an [`AioEngine`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AioBackend {
    /// Inline execution on the submitting thread (depth 1 / fallback).
    Sync,
    /// Portable worker-thread pool over blocking `read_pages`.
    ThreadPool,
    /// Raw-syscall `io_uring` ring (Linux, `io_uring` feature).
    IoUring,
}

impl AioBackend {
    /// Stable lowercase name, stamped into bench JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            AioBackend::Sync => "sync",
            AioBackend::ThreadPool => "threadpool",
            AioBackend::IoUring => "io_uring",
        }
    }
}

/// Backend selection policy for [`AioConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AioBackendChoice {
    /// `io_uring` when compiled in and the disk exposes a raw fd,
    /// otherwise the thread pool; [`AioBackend::Sync`] at depth <= 1.
    #[default]
    Auto,
    /// Force inline execution regardless of depth.
    Sync,
    /// Force the portable thread pool.
    ThreadPool,
}

/// Configuration for an [`AioEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AioConfig {
    /// Maximum runs in flight at once. Depth 1 resolves to the inline
    /// [`AioBackend::Sync`] backend.
    pub queue_depth: usize,
    /// Backend selection policy.
    pub backend: AioBackendChoice,
}

impl AioConfig {
    /// Config for `queue_depth` with automatic backend selection.
    pub fn with_depth(queue_depth: usize) -> Self {
        AioConfig {
            queue_depth,
            backend: AioBackendChoice::Auto,
        }
    }
}

/// `DiskError` carries a non-clonable `std::io::Error`; completions of a
/// poisoned run each need to report it, so reproduce the error losslessly
/// enough (kind + rendered message) for every observer.
fn clone_err(e: &DiskError) -> DiskError {
    match e {
        DiskError::BadPage(p) => DiskError::BadPage(*p),
        DiskError::Io { op, path, source } => DiskError::Io {
            op,
            path: path.clone(),
            source: std::io::Error::new(source.kind(), source.to_string()),
        },
        DiskError::Crashed => DiskError::Crashed,
    }
}

/// One run's shared completion slot: filled exactly once by whichever
/// backend executed the run, awaited by any number of harvesters.
struct RunSlot {
    state: Mutex<Option<Result<Vec<PageBuf>, DiskError>>>,
    cv: Condvar,
}

impl RunSlot {
    fn new() -> Arc<Self> {
        Arc::new(RunSlot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<Vec<PageBuf>, DiskError>) {
        let mut st = self.state.lock().expect("aio slot lock");
        debug_assert!(st.is_none(), "run completed twice");
        *st = Some(result);
        self.cv.notify_all();
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("aio slot lock").is_some()
    }

    /// Block until the run completes, then run `f` over the outcome.
    fn with_result<R>(&self, f: impl FnOnce(&Result<Vec<PageBuf>, DiskError>) -> R) -> R {
        let mut st = self.state.lock().expect("aio slot lock");
        while st.is_none() {
            st = self.cv.wait(st).expect("aio slot lock");
        }
        f(st.as_ref().expect("checked above"))
    }
}

/// Handle to one page of an in-flight submission: the unit the buffer
/// pool parks in its pending table until the page is demanded.
pub struct Completion {
    pid: PageId,
    slot: Arc<RunSlot>,
    /// The page's index within its run's buffer vector.
    offset: usize,
}

impl Completion {
    /// The page this completion will deliver.
    pub fn page_id(&self) -> PageId {
        self.pid
    }

    /// Whether the page's run has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.slot.is_done()
    }

    /// Wait for the run and copy the page's bytes into `dst`. A failed
    /// run poisons every one of its completions: the error comes back
    /// and `dst` is untouched — partial bytes are never observable.
    ///
    /// Time spent blocked on an incomplete run is profiled under
    /// [`wait::WaitClass::AioCompletion`].
    pub fn wait_into(&self, dst: &mut PageBuf) -> Result<(), DiskError> {
        let harvest = |res: &Result<Vec<PageBuf>, DiskError>| match res {
            Ok(pages) => {
                dst.copy_from_slice(&pages[self.offset][..]);
                Ok(())
            }
            Err(e) => Err(clone_err(e)),
        };
        if self.slot.is_done() {
            self.slot.with_result(harvest)
        } else {
            wait::timed(wait::WaitClass::AioCompletion, || {
                self.slot.with_result(harvest)
            })
        }
    }
}

/// Progress of a [`SubmissionTicket`], from [`SubmissionTicket::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketStatus {
    /// Some runs are still in flight: `done` of `total` completed so far.
    Pending {
        /// Runs completed so far.
        done: usize,
        /// Total runs in the submission.
        total: usize,
    },
    /// Every run completed successfully; pages are ready to harvest.
    Ready,
    /// At least one run failed; the whole ticket is poisoned.
    Poisoned,
}

/// The completion queue for one [`AioEngine::submit`] call.
///
/// Holds one [`Completion`] per *requested page position* (duplicates
/// included), in request order. Harvest the whole batch with
/// [`wait_pages`](Self::wait_pages), or split the ticket into per-page
/// handles with [`into_completions`](Self::into_completions) for
/// deferred, out-of-order harvesting.
pub struct SubmissionTicket {
    runs: Vec<Arc<RunSlot>>,
    pages: Vec<Completion>,
}

impl SubmissionTicket {
    /// Number of physical runs the submission was split into.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of requested page positions (duplicates included).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Non-blocking progress check.
    pub fn poll(&self) -> TicketStatus {
        let mut done = 0usize;
        let mut poisoned = false;
        for run in &self.runs {
            let st = run.state.lock().expect("aio slot lock");
            match st.as_ref() {
                Some(Err(_)) => poisoned = true,
                Some(Ok(_)) => done += 1,
                None => {}
            }
        }
        if poisoned {
            TicketStatus::Poisoned
        } else if done == self.runs.len() {
            TicketStatus::Ready
        } else {
            TicketStatus::Pending {
                done,
                total: self.runs.len(),
            }
        }
    }

    /// Block until every run has completed. `Ok` only when all runs
    /// succeeded; the first failure (in run order) otherwise.
    pub fn wait(&self) -> Result<(), DiskError> {
        for run in &self.runs {
            run.with_result(|res| match res {
                Ok(_) => Ok(()),
                Err(e) => Err(clone_err(e)),
            })?;
        }
        Ok(())
    }

    /// Block until every run has completed and return the page bytes in
    /// request order. A poisoned ticket yields only the error — never a
    /// partially-filled vector.
    pub fn wait_pages(&self) -> Result<Vec<PageBuf>, DiskError> {
        self.wait()?;
        let mut out = Vec::with_capacity(self.pages.len());
        for c in &self.pages {
            let mut buf = [0u8; PAGE_SIZE];
            c.wait_into(&mut buf)?;
            out.push(buf);
        }
        Ok(out)
    }

    /// Split the ticket into its per-page completion handles (request
    /// order), for deferred harvesting — the buffer pool's pending
    /// table is built from these.
    pub fn into_completions(self) -> Vec<Completion> {
        self.pages
    }
}

/// One run handed to a backend for execution.
struct Job {
    ids: Vec<PageId>,
    slot: Arc<RunSlot>,
}

/// Execute one run synchronously: the worker-side body of every backend.
fn read_run(disk: &dyn DiskManager, ids: &[PageId]) -> Result<Vec<PageBuf>, DiskError> {
    let mut pages: Vec<PageBuf> = vec![[0u8; PAGE_SIZE]; ids.len()];
    let mut refs: Vec<&mut PageBuf> = pages.iter_mut().collect();
    disk.read_pages(ids, &mut refs)?;
    Ok(pages)
}

/// Shared state between submitters and thread-pool workers.
struct TpShared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Runs currently executing on a worker (not merely queued).
    running: AtomicU64,
}

struct ThreadPool {
    shared: Arc<TpShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    fn spawn(disk: Arc<dyn DiskManager>, stats: Arc<IoStats>, depth: usize) -> Option<Self> {
        let shared = Arc::new(TpShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            running: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(depth);
        for i in 0..depth {
            let worker_shared = Arc::clone(&shared);
            let disk = Arc::clone(&disk);
            let stats = Arc::clone(&stats);
            let spawned = std::thread::Builder::new()
                .name(format!("cor-aio-{i}"))
                .spawn(move || Self::worker(&worker_shared, &*disk, &stats));
            match spawned {
                Ok(h) => workers.push(h),
                Err(_) if !workers.is_empty() => break, // run with fewer workers
                Err(_) => {
                    shared.shutdown.store(true, Ordering::Relaxed);
                    return None; // caller falls back to Sync
                }
            }
        }
        Some(ThreadPool { shared, workers })
    }

    fn worker(shared: &TpShared, disk: &dyn DiskManager, stats: &IoStats) {
        loop {
            let job = {
                let mut q = shared.queue.lock().expect("aio queue lock");
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if shared.shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    q = shared.cv.wait(q).expect("aio queue lock");
                }
            };
            let now = shared.running.fetch_add(1, Ordering::Relaxed) + 1;
            stats.note_aio_in_flight(now);
            let result = read_run(disk, &job.ids);
            shared.running.fetch_sub(1, Ordering::Relaxed);
            stats.record_aio_completed(1);
            job.slot.complete(result);
        }
    }

    /// Queued + running runs, for the saturation check at submit time.
    fn backlog(&self) -> usize {
        let queued = self.shared.queue.lock().expect("aio queue lock").len();
        queued + self.shared.running.load(Ordering::Relaxed) as usize
    }

    fn enqueue(&self, job: Job) {
        let mut q = self.shared.queue.lock().expect("aio queue lock");
        q.push_back(job);
        drop(q);
        self.shared.cv.notify_one();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

enum BackendImpl {
    Sync,
    ThreadPool(ThreadPool),
    #[cfg(all(
        feature = "io_uring",
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    IoUring(uring::UringBackend),
}

/// Asynchronous submission engine over a shared [`DiskManager`].
///
/// Created by the buffer pool when its `queue_depth` knob exceeds 1, or
/// directly for tests and benchmarks. Submissions never block; harvest
/// order is the caller's choice. See the [module docs](self) for the
/// backend and accounting model.
pub struct AioEngine {
    disk: Arc<dyn DiskManager>,
    stats: Arc<IoStats>,
    depth: usize,
    backend: BackendImpl,
    resolved: AioBackend,
}

impl AioEngine {
    /// Build an engine over `disk`, counting `aio_*` activity into
    /// `stats`. Backend resolution is infallible: unavailable backends
    /// fall back (io_uring -> thread pool -> inline sync).
    pub fn new(disk: Arc<dyn DiskManager>, stats: Arc<IoStats>, config: AioConfig) -> Self {
        let depth = config.queue_depth.clamp(1, MAX_QUEUE_DEPTH);
        let (backend, resolved) = Self::resolve(&disk, &stats, depth, config.backend);
        AioEngine {
            disk,
            stats,
            depth,
            backend,
            resolved,
        }
    }

    fn resolve(
        disk: &Arc<dyn DiskManager>,
        stats: &Arc<IoStats>,
        depth: usize,
        choice: AioBackendChoice,
    ) -> (BackendImpl, AioBackend) {
        if depth <= 1 || choice == AioBackendChoice::Sync {
            return (BackendImpl::Sync, AioBackend::Sync);
        }
        #[cfg(all(
            feature = "io_uring",
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if choice == AioBackendChoice::Auto {
            if let Some(fd) = disk.raw_read_fd() {
                if let Some(ring) =
                    uring::UringBackend::create(fd, Arc::clone(disk), Arc::clone(stats), depth)
                {
                    return (BackendImpl::IoUring(ring), AioBackend::IoUring);
                }
            }
        }
        match ThreadPool::spawn(Arc::clone(disk), Arc::clone(stats), depth) {
            Some(tp) => (BackendImpl::ThreadPool(tp), AioBackend::ThreadPool),
            None => (BackendImpl::Sync, AioBackend::Sync),
        }
    }

    /// The backend this engine resolved to.
    pub fn backend(&self) -> AioBackend {
        self.resolved
    }

    /// The effective queue depth (clamped).
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    /// Split `ids` at every non-consecutive step — the exact run
    /// structure `read_pages` coalesces a sorted batch into.
    fn split_runs(ids: &[PageId]) -> Vec<Vec<PageId>> {
        let mut runs: Vec<Vec<PageId>> = Vec::new();
        for &id in ids {
            match runs.last_mut() {
                Some(run) if run.last().copied() == id.checked_sub(1) => run.push(id),
                _ => runs.push(vec![id]),
            }
        }
        runs
    }

    /// Submit a batch of page ids for asynchronous reading. Sorted,
    /// deduplicated ids coalesce best (each maximal consecutive run is
    /// one physical submission), but any order is legal — duplicates
    /// simply start fresh runs, exactly as `read_pages` treats them.
    ///
    /// Never blocks: runs beyond the queue depth wait their turn in the
    /// backend's queue (journaled as a queue-saturation flight event).
    /// Harvest via the returned ticket.
    pub fn submit(&self, ids: &[PageId]) -> SubmissionTicket {
        let runs = Self::split_runs(ids);
        self.stats.record_aio_submitted(runs.len() as u64);
        let mut slots: Vec<Arc<RunSlot>> = Vec::with_capacity(runs.len());
        let mut pages: Vec<Completion> = Vec::with_capacity(ids.len());
        for run in &runs {
            let slot = RunSlot::new();
            for (offset, &pid) in run.iter().enumerate() {
                pages.push(Completion {
                    pid,
                    slot: Arc::clone(&slot),
                    offset,
                });
            }
            slots.push(slot);
        }
        match &self.backend {
            BackendImpl::Sync => {
                for (run, slot) in runs.into_iter().zip(&slots) {
                    self.stats.note_aio_in_flight(1);
                    let result = read_run(&*self.disk, &run);
                    self.stats.record_aio_completed(1);
                    slot.complete(result);
                }
            }
            BackendImpl::ThreadPool(tp) => {
                let backlog = tp.backlog();
                if backlog + runs.len() > self.depth {
                    flight::record(
                        flight::FlightKind::AioSaturated,
                        self.depth as u64,
                        backlog as u64,
                        runs.len() as u64,
                    );
                }
                for (run, slot) in runs.into_iter().zip(&slots) {
                    tp.enqueue(Job {
                        ids: run,
                        slot: Arc::clone(slot),
                    });
                }
            }
            #[cfg(all(
                feature = "io_uring",
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            BackendImpl::IoUring(ring) => {
                let backlog = ring.backlog();
                if backlog + runs.len() > self.depth {
                    flight::record(
                        flight::FlightKind::AioSaturated,
                        self.depth as u64,
                        backlog as u64,
                        runs.len() as u64,
                    );
                }
                for (run, slot) in runs.into_iter().zip(&slots) {
                    ring.enqueue(Job {
                        ids: run,
                        slot: Arc::clone(slot),
                    });
                }
            }
        }
        SubmissionTicket { runs: slots, pages }
    }
}

impl std::fmt::Debug for AioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AioEngine")
            .field("backend", &self.resolved)
            .field("queue_depth", &self.depth)
            .finish()
    }
}

/// Raw-syscall `io_uring` backend (Linux only, `io_uring` feature).
///
/// A single dedicated ring thread owns the ring: it drains the shared
/// job queue, keeps up to `depth` one-SQE-per-run reads in flight, and
/// completes run slots as CQEs arrive. No liburing, no libc: the five
/// syscalls involved (`io_uring_setup`, `io_uring_enter`, `mmap`,
/// `munmap`, `close`) are issued with inline assembly.
#[cfg(all(
    feature = "io_uring",
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod uring {
    use super::Job;
    use crate::disk::{DiskError, DiskManager};
    use crate::page::{PageBuf, PAGE_SIZE};
    use crate::stats::IoStats;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    // Syscall numbers are identical on x86_64 and aarch64 for the
    // io_uring family; mmap/munmap/close differ.
    const SYS_IO_URING_SETUP: usize = 425;
    const SYS_IO_URING_ENTER: usize = 426;
    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "x86_64")]
    const SYS_CLOSE: usize = 3;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;
    #[cfg(target_arch = "aarch64")]
    const SYS_CLOSE: usize = 57;

    const PROT_READ_WRITE: usize = 0x3;
    const MAP_SHARED_POPULATE: usize = 0x01 | 0x8000;
    const IORING_OFF_SQ_RING: usize = 0;
    const IORING_OFF_CQ_RING: usize = 0x0800_0000;
    const IORING_OFF_SQES: usize = 0x1000_0000;
    const IORING_ENTER_GETEVENTS: usize = 1;
    const IORING_OP_READ: u8 = 22;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    struct SqOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        flags: u32,
        dropped: u32,
        array: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    struct CqOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        overflow: u32,
        cqes: u32,
        flags: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    struct UringParams {
        sq_entries: u32,
        cq_entries: u32,
        flags: u32,
        sq_thread_cpu: u32,
        sq_thread_idle: u32,
        features: u32,
        wq_fd: u32,
        resv: [u32; 3],
        sq_off: SqOffsets,
        cq_off: CqOffsets,
    }

    #[repr(C)]
    struct Sqe {
        opcode: u8,
        flags: u8,
        ioprio: u16,
        fd: i32,
        off: u64,
        addr: u64,
        len: u32,
        rw_flags: u32,
        user_data: u64,
        _pad: [u64; 3],
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Cqe {
        user_data: u64,
        res: i32,
        flags: u32,
    }

    struct Mapping {
        ptr: *mut u8,
        len: usize,
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            unsafe {
                syscall6(SYS_MUNMAP, self.ptr as usize, self.len, 0, 0, 0, 0);
            }
        }
    }

    /// The mmapped ring: raw pointers into the three kernel mappings.
    struct Ring {
        fd: i32,
        sq: Mapping,
        cq: Mapping,
        sqes: Mapping,
        sq_tail: *const AtomicU32,
        sq_mask: u32,
        sq_array: *mut u32,
        cq_head: *const AtomicU32,
        cq_tail: *const AtomicU32,
        cq_mask: u32,
        cqes: *const Cqe,
    }

    // The ring thread is the only user of the pointers after creation.
    unsafe impl Send for Ring {}

    impl Drop for Ring {
        fn drop(&mut self) {
            unsafe {
                syscall6(SYS_CLOSE, self.fd as usize, 0, 0, 0, 0, 0);
            }
        }
    }

    impl Ring {
        fn create(entries: u32) -> Option<Ring> {
            let mut params = UringParams::default();
            let fd = unsafe {
                syscall6(
                    SYS_IO_URING_SETUP,
                    entries as usize,
                    &mut params as *mut UringParams as usize,
                    0,
                    0,
                    0,
                    0,
                )
            };
            if fd < 0 {
                return None; // ENOSYS / EPERM / old kernel: fall back
            }
            let fd = fd as i32;
            let map = |len: usize, off: usize| -> Option<Mapping> {
                let ptr = unsafe {
                    syscall6(
                        SYS_MMAP,
                        0,
                        len,
                        PROT_READ_WRITE,
                        MAP_SHARED_POPULATE,
                        fd as usize,
                        off,
                    )
                };
                if ptr < 0 {
                    None
                } else {
                    Some(Mapping {
                        ptr: ptr as *mut u8,
                        len,
                    })
                }
            };
            let sq_len = params.sq_off.array as usize + params.sq_entries as usize * 4;
            let cq_len = params.cq_off.cqes as usize
                + params.cq_entries as usize * std::mem::size_of::<Cqe>();
            let sqes_len = params.sq_entries as usize * std::mem::size_of::<Sqe>();
            let sq = map(sq_len, IORING_OFF_SQ_RING)?;
            let cq = map(cq_len, IORING_OFF_CQ_RING)?;
            let sqes = map(sqes_len, IORING_OFF_SQES)?;
            let at = |m: &Mapping, off: u32| unsafe { m.ptr.add(off as usize) };
            let ring = Ring {
                fd,
                sq_tail: at(&sq, params.sq_off.tail) as *const AtomicU32,
                sq_mask: unsafe { *(at(&sq, params.sq_off.ring_mask) as *const u32) },
                sq_array: at(&sq, params.sq_off.array) as *mut u32,
                cq_head: at(&cq, params.cq_off.head) as *const AtomicU32,
                cq_tail: at(&cq, params.cq_off.tail) as *const AtomicU32,
                cq_mask: unsafe { *(at(&cq, params.cq_off.ring_mask) as *const u32) },
                cqes: at(&cq, params.cq_off.cqes) as *const Cqe,
                sq,
                cq,
                sqes,
            };
            // Quell the "field never read" lint on the mappings: they
            // exist for their Drop impls.
            let _ = (ring.sq.len, ring.cq.len);
            Some(ring)
        }

        /// Queue one read SQE; the caller tracks in-flight counts and
        /// guarantees free SQ slots (in-flight < ring entries).
        fn push_read(&self, target_fd: i32, off: u64, addr: *mut u8, len: u32, token: u64) {
            unsafe {
                let tail = (*self.sq_tail).load(Ordering::Acquire);
                let idx = tail & self.sq_mask;
                let sqe = (self.sqes.ptr as *mut Sqe).add(idx as usize);
                std::ptr::write(
                    sqe,
                    Sqe {
                        opcode: IORING_OP_READ,
                        flags: 0,
                        ioprio: 0,
                        fd: target_fd,
                        off,
                        addr: addr as u64,
                        len,
                        rw_flags: 0,
                        user_data: token,
                        _pad: [0; 3],
                    },
                );
                *self.sq_array.add(idx as usize) = idx;
                (*self.sq_tail).store(tail.wrapping_add(1), Ordering::Release);
            }
        }

        fn enter(&self, to_submit: u32, min_complete: u32, flags: usize) -> isize {
            unsafe {
                syscall6(
                    SYS_IO_URING_ENTER,
                    self.fd as usize,
                    to_submit as usize,
                    min_complete as usize,
                    flags,
                    0,
                    0,
                )
            }
        }

        /// Pop one CQE if available.
        fn pop_cqe(&self) -> Option<Cqe> {
            unsafe {
                let head = (*self.cq_head).load(Ordering::Acquire);
                let tail = (*self.cq_tail).load(Ordering::Acquire);
                if head == tail {
                    return None;
                }
                let cqe = *self.cqes.add((head & self.cq_mask) as usize);
                (*self.cq_head).store(head.wrapping_add(1), Ordering::Release);
                Some(cqe)
            }
        }
    }

    struct UringShared {
        queue: Mutex<VecDeque<Job>>,
        cv: Condvar,
        shutdown: AtomicBool,
        backlog: AtomicU64,
    }

    /// One read in flight on the ring.
    struct Inflight {
        job: Job,
        pages: Vec<PageBuf>,
    }

    pub(super) struct UringBackend {
        shared: Arc<UringShared>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl UringBackend {
        /// Set up the ring and spawn the ring thread; `None` when the
        /// kernel refuses (callers fall back to the thread pool).
        pub(super) fn create(
            fd: i32,
            disk: Arc<dyn DiskManager>,
            stats: Arc<IoStats>,
            depth: usize,
        ) -> Option<Self> {
            let entries = (depth.max(2) as u32).next_power_of_two();
            let ring = Ring::create(entries)?;
            let shared = Arc::new(UringShared {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                backlog: AtomicU64::new(0),
            });
            let thread_shared = Arc::clone(&shared);
            let thread = std::thread::Builder::new()
                .name("cor-aio-uring".into())
                .spawn(move || ring_thread(ring, fd, thread_shared, disk, stats, depth))
                .ok()?;
            Some(UringBackend {
                shared,
                thread: Some(thread),
            })
        }

        pub(super) fn backlog(&self) -> usize {
            self.shared.backlog.load(Ordering::Relaxed) as usize
        }

        pub(super) fn enqueue(&self, job: Job) {
            self.shared.backlog.fetch_add(1, Ordering::Relaxed);
            let mut q = self.shared.queue.lock().expect("aio uring queue");
            q.push_back(job);
            drop(q);
            self.shared.cv.notify_one();
        }
    }

    impl Drop for UringBackend {
        fn drop(&mut self) {
            self.shared.shutdown.store(true, Ordering::Relaxed);
            self.shared.cv.notify_all();
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    #[allow(clippy::needless_pass_by_value)]
    fn ring_thread(
        ring: Ring,
        fd: i32,
        shared: Arc<UringShared>,
        disk: Arc<dyn DiskManager>,
        stats: Arc<IoStats>,
        depth: usize,
    ) {
        let mut inflight: Vec<Option<Inflight>> = Vec::new();
        let mut inflight_count = 0usize;
        loop {
            // Admit queued runs while there is depth to spare.
            let mut submitted = 0u32;
            while inflight_count < depth {
                let job = {
                    let mut q = shared.queue.lock().expect("aio uring queue");
                    q.pop_front()
                };
                let Some(job) = job else { break };
                // Validate before any I/O, like FileDisk::read_pages: a
                // bad id fails the run with no bytes transferred.
                let end = disk.num_pages();
                if let Some(&bad) = job.ids.iter().find(|&&id| id >= end) {
                    shared.backlog.fetch_sub(1, Ordering::Relaxed);
                    stats.record_aio_completed(1);
                    job.slot.complete(Err(DiskError::BadPage(bad)));
                    continue;
                }
                let mut pages: Vec<PageBuf> = vec![[0u8; PAGE_SIZE]; job.ids.len()];
                let addr = pages.as_mut_ptr() as *mut u8;
                let len = (pages.len() * PAGE_SIZE) as u32;
                let off = job.ids[0] as u64 * PAGE_SIZE as u64;
                let token = inflight
                    .iter()
                    .position(Option::is_none)
                    .unwrap_or_else(|| {
                        inflight.push(None);
                        inflight.len() - 1
                    });
                ring.push_read(fd, off, addr, len, token as u64);
                inflight[token] = Some(Inflight { job, pages });
                inflight_count += 1;
                submitted += 1;
                stats.note_aio_in_flight(inflight_count as u64);
            }
            if submitted > 0 {
                ring.enter(submitted, 0, 0);
            }
            // Reap whatever has completed.
            let mut reaped = false;
            while let Some(cqe) = ring.pop_cqe() {
                reaped = true;
                let Some(op) = inflight
                    .get_mut(cqe.user_data as usize)
                    .and_then(Option::take)
                else {
                    continue;
                };
                inflight_count -= 1;
                shared.backlog.fetch_sub(1, Ordering::Relaxed);
                stats.record_aio_completed(1);
                let expected = (op.pages.len() * PAGE_SIZE) as i32;
                let result = if cqe.res == expected {
                    Ok(op.pages)
                } else if cqe.res < 0 {
                    Err(DiskError::io(
                        "read",
                        "io_uring",
                        std::io::Error::from_raw_os_error(-cqe.res),
                    ))
                } else {
                    Err(DiskError::io(
                        "read",
                        "io_uring",
                        std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            format!("short read: {} of {expected} bytes", cqe.res),
                        ),
                    ))
                };
                op.job.slot.complete(result);
            }
            if reaped || submitted > 0 {
                continue;
            }
            if inflight_count > 0 {
                // Nothing new to submit: block until a completion lands.
                ring.enter(0, 1, IORING_ENTER_GETEVENTS);
                continue;
            }
            // Idle: wait for work or shutdown.
            let q = shared.queue.lock().expect("aio uring queue");
            if shared.shutdown.load(Ordering::Relaxed) && q.is_empty() {
                return;
            }
            if q.is_empty() {
                let _unused = shared
                    .cv
                    .wait_timeout(q, std::time::Duration::from_millis(50))
                    .expect("aio uring queue");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn store(pages: usize) -> Arc<MemDisk> {
        let disk = Arc::new(MemDisk::new());
        for i in 0..pages {
            let pid = disk.allocate_page().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = i as u8;
            buf[1] = (i >> 8) as u8;
            buf[PAGE_SIZE - 1] = 0xA5;
            disk.write_page(pid, &buf).unwrap();
        }
        disk
    }

    fn engine(disk: Arc<MemDisk>, depth: usize) -> AioEngine {
        AioEngine::new(disk, IoStats::new(), AioConfig::with_depth(depth))
    }

    #[test]
    fn split_runs_matches_coalescing() {
        let cases: &[(&[PageId], usize)] = &[
            (&[], 0),
            (&[5], 1),
            (&[1, 2, 3], 1),
            (&[1, 3, 5], 3),
            (&[1, 2, 2, 3], 2), // duplicate starts a new run, which continues
            (&[9, 4, 5, 6, 1], 3),
        ];
        for &(ids, want) in cases {
            assert_eq!(AioEngine::split_runs(ids).len(), want, "{ids:?}");
        }
    }

    #[test]
    fn depth_one_resolves_to_sync_and_matches_read_pages() {
        let disk = store(16);
        let eng = engine(Arc::clone(&disk), 1);
        assert_eq!(eng.backend(), AioBackend::Sync);
        let ids: Vec<PageId> = vec![0, 1, 2, 7, 9, 10];
        let ticket = eng.submit(&ids);
        assert_eq!(ticket.num_runs(), 3);
        assert_eq!(ticket.poll(), TicketStatus::Ready);
        let pages = ticket.wait_pages().unwrap();
        let mut expect: Vec<PageBuf> = vec![[0u8; PAGE_SIZE]; ids.len()];
        {
            let mut refs: Vec<&mut PageBuf> = expect.iter_mut().collect();
            disk.read_pages(&ids, &mut refs).unwrap();
        }
        assert_eq!(pages, expect);
    }

    #[test]
    fn threadpool_harvests_byte_identical_pages() {
        let disk = store(64);
        let eng = engine(Arc::clone(&disk), 4);
        assert_eq!(eng.backend(), AioBackend::ThreadPool);
        let ids: Vec<PageId> = vec![3, 4, 5, 6, 20, 21, 40, 0, 1, 2, 63];
        let ticket = eng.submit(&ids);
        ticket.wait().unwrap();
        let got = ticket.wait_pages().unwrap();
        for (i, &pid) in ids.iter().enumerate() {
            let mut want = [0u8; PAGE_SIZE];
            disk.read_page(pid, &mut want).unwrap();
            assert_eq!(got[i], want, "page {pid}");
        }
        let st = eng.stats.batch_snapshot();
        assert_eq!(st.aio_submitted, st.aio_completed);
        assert!(st.aio_in_flight_peak >= 1);
    }

    #[test]
    fn bad_page_poisons_only_its_run() {
        let disk = store(8);
        let eng = engine(disk, 4);
        // Runs: [0,1] ok, [99] bad, [4,5] ok.
        let ids: Vec<PageId> = vec![0, 1, 99, 4, 5];
        let ticket = eng.submit(&ids);
        assert!(matches!(ticket.wait(), Err(DiskError::BadPage(99))));
        assert_eq!(ticket.poll(), TicketStatus::Poisoned);
        // The poisoned batch yields no bytes at all.
        assert!(ticket.wait_pages().is_err());
        // Per-page: completions of the good runs still deliver, the bad
        // run's completion reports the error with the buffer untouched.
        let completions = ticket.into_completions();
        let mut buf = [0x77u8; PAGE_SIZE];
        assert!(matches!(
            completions[2].wait_into(&mut buf),
            Err(DiskError::BadPage(99))
        ));
        assert!(buf.iter().all(|&b| b == 0x77), "no partial bytes");
        completions[0].wait_into(&mut buf).unwrap();
        assert_eq!(buf[PAGE_SIZE - 1], 0xA5);
    }

    #[test]
    fn counters_track_runs_not_pages() {
        let disk = store(32);
        let stats = IoStats::new();
        let eng = AioEngine::new(disk, Arc::clone(&stats), AioConfig::with_depth(2));
        let ticket = eng.submit(&[0, 1, 2, 3, 10, 11, 30]);
        ticket.wait().unwrap();
        let b = stats.batch_snapshot();
        assert_eq!(b.aio_submitted, 3);
        assert_eq!(b.aio_completed, 3);
        assert!(b.aio_in_flight_peak <= 2, "bounded by queue depth");
        // Core transfer counters are untouched by the engine itself.
        assert_eq!(stats.reads(), 0);
        assert_eq!(b.batch_reads, 0);
    }

    #[test]
    fn empty_submission_is_trivially_ready() {
        let eng = engine(store(1), 4);
        let t = eng.submit(&[]);
        assert_eq!(t.num_runs(), 0);
        assert_eq!(t.poll(), TicketStatus::Ready);
        assert!(t.wait_pages().unwrap().is_empty());
    }

    /// Drives the io_uring backend against a real `FileDisk` (the only disk
    /// exposing `raw_read_fd`). If the kernel rejects `io_uring_setup` the
    /// engine resolves to the thread pool instead — the harvest must be
    /// byte-identical either way, so the assertion tolerates the fallback.
    #[cfg(all(
        feature = "io_uring",
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn io_uring_backend_harvests_byte_identical_pages() {
        use crate::disk::FileDisk;

        let dir = std::env::temp_dir().join(format!("cor-aio-uring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let mut images = Vec::new();
        for i in 0..32u32 {
            let pid = disk.allocate_page().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[..4].copy_from_slice(&(i ^ 0xDEAD_BEEF).to_le_bytes());
            buf[PAGE_SIZE - 1] = 0x5C;
            disk.write_page(pid, &buf).unwrap();
            images.push((pid, buf));
        }
        let dyn_disk: Arc<dyn DiskManager> = disk.clone();
        let eng = AioEngine::new(dyn_disk, IoStats::new(), AioConfig::with_depth(4));
        assert!(
            matches!(eng.backend(), AioBackend::IoUring | AioBackend::ThreadPool),
            "FileDisk at depth > 1 must resolve to an async backend, got {:?}",
            eng.backend()
        );
        // Three separated runs, out-of-order start.
        let ids: Vec<PageId> = vec![20, 21, 22, 0, 1, 2, 3, 30, 31];
        let ticket = eng.submit(&ids);
        let got = ticket.wait_pages().unwrap();
        for (i, &pid) in ids.iter().enumerate() {
            assert_eq!(got[i], images[pid as usize].1, "page {pid}");
        }
        let b = eng.stats.batch_snapshot();
        assert_eq!(b.aio_submitted, 3);
        assert_eq!(b.aio_completed, 3);
        drop(eng);
        drop(disk);
        std::fs::remove_dir_all(&dir).ok();
    }
}
