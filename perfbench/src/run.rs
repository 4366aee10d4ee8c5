//! The two kinds of run: end to end (every hook off) and traced (timing
//! wrappers, pool telemetry, the wait profile and per-query trace trees).

use crate::metrics::{Sheet, END_TO_END, PER_LAYER};
use crate::report::{latency_line, median_f64, peak_rss_mib, quantile, Metric};
use crate::workload::{set_up, Instance, Log, Workload, CHECKPOINT_EVERY};
use complexobj::CacheCounters;
use cor_obs::{wait, Phase, WaitClass};
use cor_pagestore::{ShardTelemetrySnapshot, PAGE_SIZE};
use cor_wal::WalStatsSnapshot;
use std::time::{Duration, Instant};

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    /// Database scale; 1.0 is the paper's size.
    pub scale: f64,
}

/// A finished run: the result-line fields and a human-readable report.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub report: Vec<String>,
}

/// Set-ups, each followed by a measured segment, per end-to-end run;
/// `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Operations per client in the traced run's I/O-identity check.
const CHECK_OPS: usize = 300;

fn describe(w: &Workload, opts: &RunOptions) -> Vec<String> {
    let p = w.params(opts.seed, opts.scale);
    let mut lines = vec![format!(
        "workload {}: {} NumTop {} Pr(UPDATE) {} | |ParentRel| {} SizeUnit {} UseFactor {} \
         SizeCache {} | pool {} pages x {} shard(s) LRU | {} client(s), closed loop | {} | seed {}",
        w.name,
        w.strategy,
        p.num_top,
        p.pr_update,
        p.parent_card,
        p.size_unit,
        p.use_factor,
        p.size_cache,
        p.buffer_pages,
        p.shards,
        w.clients,
        if w.durable {
            "MemDisk + WAL on MemLogStore"
        } else {
            "MemDisk"
        },
        opts.seed,
    )];
    if w.durable {
        lines.push(format!(
            "flush policy: WAL fsync Always (default WalConfig, 1 MiB segments) to an \
             in-memory log store; a checkpoint every {CHECKPOINT_EVERY} operations per client"
        ));
    }
    lines
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The end-to-end run, with every hook off: [`SETUP_REPEATS`] times, set
/// up a fresh instance and measure it for an equal share of
/// `opts.seconds`. Spreading the set-ups over the run makes their median
/// see the same host conditions as the measurement.
pub fn end_to_end(w: &Workload, opts: &RunOptions) -> Result<Outcome, String> {
    let params = w.params(opts.seed, opts.scale);
    let segment = Duration::from_secs_f64(opts.seconds / SETUP_REPEATS as f64);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut log = Log::default();
    let (mut reads, mut writes, mut log_bytes) = (0, 0, 0);
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut inst = set_up(w, &params, opts.scale, false)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let (io0, log0) = (inst.io(), inst.log_bytes());
        log.merge(inst.run_for(w.strategy, segment, false));
        let io = inst.io().since(&io0);
        reads += io.reads;
        writes += io.writes;
        log_bytes += inst.log_bytes() - log0;
    }

    let ops = log.ops();
    let retrieves = sorted(log.retrieve_ns.clone());
    let updates = sorted(log.update_ns.clone());
    if retrieves.is_empty() {
        return Err("no retrieve completed in the window".into());
    }
    let mut sheet = Sheet::new(&END_TO_END);
    sheet.set("qps", log.qps());
    sheet.set("retrieve_p50_us", quantile(&retrieves, 5000) as f64 / 1e3);
    sheet.set("retrieve_p90_us", quantile(&retrieves, 9000) as f64 / 1e3);
    sheet.set("setup_s", median_f64(&setup_s));
    sheet.set("peak_rss_mib", peak_rss_mib()?);
    let mut report = describe(w, opts);
    report.push(latency_line("retrieve", &retrieves));
    if !updates.is_empty() {
        report.push(latency_line("update", &updates));
    }
    report.push(format!(
        "per query (n={ops}): pages_read {:.3}, pages_written {:.3}, bytes_written {:.1} \
         (page file {} + log {} bytes)",
        per(reads, ops),
        per(writes, ops),
        per(writes * PAGE_SIZE as u64 + log_bytes, ops),
        writes * PAGE_SIZE as u64,
        log_bytes,
    ));
    report.push(format!(
        "set-ups (s): {:?}; failed_ratio {} ({} of {})",
        setup_s,
        log.failed_ratio(),
        log.failed,
        log.attempted
    ));
    Ok(Outcome {
        correct: log.failed == 0,
        attempted: log.attempted,
        failed: log.failed,
        metrics: sheet.finish(),
        report,
    })
}

/// Counters read before and after the traced window.
struct Counters {
    disk: crate::probes::ProbeSnapshot,
    log: crate::probes::ProbeSnapshot,
    pool: ShardTelemetrySnapshot,
    cache: CacheCounters,
    wal: WalStatsSnapshot,
    io: cor_pagestore::IoSnapshot,
}

fn read_counters(inst: &Instance) -> Counters {
    let probes = inst.probes.as_ref().expect("traced instance has probes");
    let mut pool = ShardTelemetrySnapshot::default();
    for s in inst.engine.pool().telemetry().unwrap_or_default() {
        pool.merge(&s);
    }
    Counters {
        disk: probes.disk.snapshot(),
        log: probes.log.snapshot(),
        pool,
        cache: inst
            .engine
            .database()
            .ok()
            .and_then(|db| db.cache_counters())
            .unwrap_or_default(),
        wal: inst.engine.wal().map(|w| w.stats()).unwrap_or_default(),
        io: inst.io(),
    }
}

/// The five access-layer phases the traced run reports by name.
const ACCESS_PHASES: [Phase; 5] = [
    Phase::IndexDescent,
    Phase::HeapFetch,
    Phase::TempBuild,
    Phase::Sort,
    Phase::MergeJoin,
];

/// The traced run: an untraced reference instance and a traced one, both
/// run through the same fixed check window (their page I/O must match
/// exactly), then each measured for half of `opts.seconds`.
pub fn traced(w: &Workload, opts: &RunOptions) -> Result<Outcome, String> {
    let params = w.params(opts.seed, opts.scale);
    let half = Duration::from_secs_f64(opts.seconds / 2.0);

    let mut plain = set_up(w, &params, opts.scale, false)?;
    let before = plain.io();
    let plain_check = plain.run_each(w.strategy, CHECK_OPS, false);
    let plain_io = plain.io().since(&before);
    let plain_run = plain.run_for(w.strategy, half, false);
    drop(plain);

    let mut inst = set_up(w, &params, opts.scale, true)?;
    let before = inst.io();
    let check = inst.run_each(w.strategy, CHECK_OPS, true);
    let traced_io = inst.io().since(&before);
    let io_identical = (plain_io.reads, plain_io.writes) == (traced_io.reads, traced_io.writes);

    wait::global().reset();
    wait::enable(true);
    let c0 = read_counters(&inst);
    let log = inst.run_for(w.strategy, half, true);
    let c1 = read_counters(&inst);
    wait::enable(false);
    let waits = wait::report();
    drop(inst);

    let ops = log.ops();
    let updates = log.update_ns.len() as u64;
    let t = &log.trace;
    let engine_ns = log.engine_ns();
    let disk = c1.disk.since(&c0.disk);
    let wlog = c1.log.since(&c0.log);
    let io = c1.io.since(&c0.io);
    let cache = CacheCounters {
        hits: c1.cache.hits - c0.cache.hits,
        misses: c1.cache.misses - c0.cache.misses,
        insertions: c1.cache.insertions - c0.cache.insertions,
        invalidations: c1.cache.invalidations - c0.cache.invalidations,
        evictions: c1.cache.evictions - c0.cache.evictions,
    };
    let wal_bytes = c1.wal.bytes - c0.wal.bytes;
    let pool_hits = c1.pool.hits - c0.pool.hits;
    let pool_misses = c1.pool.misses - c0.pool.misses;

    let mut m = Sheet::new(&PER_LAYER);
    let mut put = |name: &str, value: f64| m.set(name, value);
    put("io.pages_read_per_query", per(io.reads, ops));
    put("io.pages_written_per_query", per(io.writes, ops));
    put(
        "io.bytes_written_per_query",
        per(io.writes * PAGE_SIZE as u64 + wal_bytes, ops),
    );
    put("disk.read_calls_per_query", per(disk.reads, ops));
    put("disk.write_calls_per_query", per(disk.writes, ops));
    put("disk.sync_calls_per_query", per(disk.syncs, ops));
    put("disk.busy_share", per(disk.busy_ns(), engine_ns));
    put("pool.hit_ratio", per(pool_hits, pool_hits + pool_misses));
    put(
        "pool.evictions_per_query",
        per(c1.pool.evictions - c0.pool.evictions, ops),
    );
    put(
        "pool.writebacks_per_query",
        per(c1.pool.writebacks - c0.pool.writebacks, ops),
    );
    put(
        "pool.shard_lock_wait_share",
        per(waits.of(WaitClass::ShardLock).sum(), engine_ns),
    );
    put(
        "pool.frame_stalls_per_query",
        per(waits.of(WaitClass::FrameStall).count(), ops),
    );
    let share = |p: Phase| per(t.self_ns[p.index()], t.wall_ns);
    for p in ACCESS_PHASES {
        put(&format!("phase.{}.share", p.name()), share(p));
        put(
            &format!("phase.{}.reads_per_retrieve", p.name()),
            per(t.reads[p.index()], t.traces),
        );
    }
    for p in [Phase::CacheProbe, Phase::CacheMaintain] {
        put(&format!("phase.{}.share", p.name()), share(p));
    }
    put("cache.hit_ratio", cache.hit_ratio());
    put("cache.insertions_per_query", per(cache.insertions, ops));
    put("cache.evictions_per_query", per(cache.evictions, ops));
    put(
        "cache.invalidations_per_update",
        per(cache.invalidations, updates),
    );
    put("core.par_io_per_retrieve", per(log.par_io, t.traces));
    put("core.child_io_per_retrieve", per(log.child_io, t.traces));
    put(
        "wal.appends_per_query",
        per(c1.wal.appends - c0.wal.appends, ops),
    );
    put(
        "wal.fsyncs_per_query",
        per(c1.wal.fsyncs - c0.wal.fsyncs, ops),
    );
    put("wal.bytes_per_query", per(wal_bytes, ops));
    put(
        "wal.image_records_per_query",
        per(c1.wal.images - c0.wal.images, ops),
    );
    put(
        "wal.delta_records_per_query",
        per(c1.wal.deltas - c0.wal.deltas, ops),
    );
    put("wal.append_share", per(wlog.transfer_ns, engine_ns));
    put("wal.sync_share", per(wlog.sync_ns, engine_ns));
    put(
        "wal.fsync_wait_share",
        per(waits.of(WaitClass::WalFsync).sum(), engine_ns),
    );
    put("engine.unaccounted_share", share(Phase::Other));
    put("trace.retrieve_wall_us", per(t.wall_ns, t.traces) / 1e3);
    put("obs.trace_overhead_ratio", log.qps() / plain_run.qps());

    let mut report = describe(w, opts);
    report.push(format!(
        "io identity over {CHECK_OPS} ops/client: untraced reads {} writes {}, traced reads {} writes {} -> {}",
        plain_io.reads,
        plain_io.writes,
        traced_io.reads,
        traced_io.writes,
        if io_identical { "identical" } else { "DIFFERENT" },
    ));
    report.extend(ledger(&log, &disk, &wlog));

    let failed = plain_check.failed + plain_run.failed + check.failed + log.failed;
    let attempted = plain_check.attempted + plain_run.attempted + check.attempted + log.attempted;
    Ok(Outcome {
        correct: failed == 0 && io_identical && t.traces > 0,
        attempted,
        failed,
        metrics: m.finish(),
        report,
    })
}

/// The retrieve wall time split into each phase's self time, with the
/// disk and WAL busy time that ran inside each phase, per retrieve.
fn ledger(
    log: &Log,
    disk: &crate::probes::ProbeSnapshot,
    wlog: &crate::probes::ProbeSnapshot,
) -> Vec<String> {
    use crate::probes::OpKind;
    let t = &log.trace;
    let n = t.traces.max(1) as f64;
    let us = |ns: u64| ns as f64 / n / 1e3;
    let disk_r = disk.busy_of(OpKind::Retrieve);
    let wal_r = wlog.busy_of(OpKind::Retrieve);
    let mut out = vec![
        format!(
            "ledger: retrieve wall time by phase, us per retrieve (traced, n={})",
            t.traces
        ),
        format!(
            "  {:<16} {:>10} {:>7} {:>10} {:>10} {:>8}",
            "phase", "self_us", "share", "disk_us", "wal_us", "reads"
        ),
    ];
    let mut rows: Vec<(String, usize)> = ACCESS_PHASES
        .iter()
        .chain(&[Phase::CacheProbe, Phase::CacheMaintain, Phase::ClusterScan])
        .map(|p| (p.name().to_string(), p.index()))
        .collect();
    rows.push(("unaccounted".to_string(), Phase::Other.index()));
    for (name, i) in rows {
        out.push(format!(
            "  {:<16} {:>10.2} {:>7.4} {:>10.2} {:>10.2} {:>8.2}",
            name,
            us(t.self_ns[i]),
            per(t.self_ns[i], t.wall_ns),
            us(disk_r[i]),
            us(wal_r[i]),
            t.reads[i] as f64 / n,
        ));
    }
    let self_total: u64 = t.self_ns.iter().sum();
    out.push(format!(
        "  {:<16} {:>10.2} {:>7.4} {:>10.2} {:>10.2}   (wall {:.2} us)",
        "sum",
        us(self_total),
        per(self_total, t.wall_ns),
        us(disk_r.iter().sum()),
        us(wal_r.iter().sum()),
        us(t.wall_ns),
    ));
    let updates = log.update_ns.len() as u64;
    if updates > 0 {
        let u = |ns: u64| ns as f64 / updates as f64 / 1e3;
        out.push(format!(
            "  updates: wall {:.2} us, disk {:.2} us, wal {:.2} us per update (n={updates})",
            u(log.update_ns.iter().sum()),
            u(disk.busy_of(OpKind::Update).iter().sum()),
            u(wlog.busy_of(OpKind::Update).iter().sum()),
        ));
    }
    out
}
