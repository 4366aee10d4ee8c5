//! The three workloads, how each is set up, and the closed-loop client.

use crate::oracle::Oracle;
use crate::probes::{set_op, OpKind, Probe, TimingDisk, TimingLog};
use complexobj::{CacheConfig, Query, Strategy};
use cor_obs::{TraceTree, PHASE_COUNT};
use cor_pagestore::{DiskManager, IoSnapshot, MemDisk};
use cor_wal::{LogStore, MemLogStore};
use cor_workload::{generate, generate_stream_sequences, Engine, EngineSpec, Params};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload. Every workload is a closed loop: each client
/// sends its next operation when the previous one has returned.
///
/// No retrieve-only DFSCACHE workload is needed: `durable_update` runs the
/// same cache path at NumTop 10 on the 100-page pool.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub strategy: Strategy,
    /// ParentRel tuples per retrieve.
    pub num_top: u64,
    /// Probability that an operation is an update.
    pub pr_update: f64,
    /// Buffer pool size in pages at full scale.
    pub pool_pages: usize,
    pub shards: usize,
    /// Concurrent client threads, each with its own operation stream.
    pub clients: usize,
    /// Created through `EngineBuilder::create_on` with a WAL (default
    /// `WalConfig`: fsync `Always`, 1 MiB segments) over `MemDisk` and
    /// `MemLogStore`, checkpointed every [`CHECKPOINT_EVERY`] operations;
    /// otherwise built on `MemDisk` with no log.
    pub durable: bool,
    /// Operations each client runs, checked but unmeasured, after the
    /// build and before measuring (at full scale).
    pub warmup_ops: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_range",
        strategy: Strategy::Bfs,
        num_top: 300,
        pr_update: 0.0,
        pool_pages: 100,
        shards: 1,
        clients: 1,
        durable: false,
        warmup_ops: 50,
    },
    Workload {
        name: "resident_2c",
        strategy: Strategy::Dfs,
        num_top: 10,
        pr_update: 0.0,
        pool_pages: 4096,
        shards: 8,
        clients: 2,
        durable: false,
        warmup_ops: 3000,
    },
    Workload {
        name: "durable_update",
        strategy: Strategy::DfsCache,
        num_top: 10,
        pr_update: 0.2,
        pool_pages: 100,
        shards: 1,
        clients: 1,
        durable: true,
        warmup_ops: 1000,
    },
];

/// Operations generated per client stream; a client that reaches the end
/// starts the stream over (the oracle replays updates with it).
const STREAM_OPS: usize = 100_000;

/// Operations between checkpoints a client takes on an engine with a WAL,
/// which lets the log drop segments below the redo horizon.
pub const CHECKPOINT_EVERY: u64 = 500;

/// ChildRel tuples changed per update.
const UPDATE_BATCH: usize = 10;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The generator parameters at `scale` (1.0 is the paper's database:
    /// 10,000 parents, SizeUnit 5, UseFactor 5, SizeCache 1,000 units).
    pub fn params(&self, seed: u64, scale: f64) -> Params {
        assert!(scale > 0.0 && scale <= 1.0, "scale in (0, 1]");
        let paper = Params::paper_default();
        let s = |v: usize| ((v as f64 * scale).round() as usize).max(1);
        let buffer_pages = s(self.pool_pages).max(16);
        let p = Params {
            parent_card: s(paper.parent_card as usize) as u64,
            size_cache: s(paper.size_cache),
            buffer_pages,
            shards: self.shards.min(buffer_pages),
            num_top: (s(self.num_top as usize) as u64).max(2),
            pr_update: self.pr_update,
            update_batch: UPDATE_BATCH,
            sequence_len: s(STREAM_OPS).max(1000),
            seed,
            ..paper
        };
        p.validate().expect("workload parameters are valid");
        p
    }

    pub fn warmup_ops(&self, scale: f64) -> usize {
        ((self.warmup_ops as f64 * scale).round() as usize).max(10)
    }
}

/// The traced run's two wrappers' counters.
pub struct Probes {
    pub disk: Arc<Probe>,
    pub log: Arc<Probe>,
}

/// One client's stream position and its private oracle.
pub struct Client {
    pub ops: Vec<Query>,
    pub next: usize,
    pub oracle: Oracle,
}

/// A built, warmed-up engine ready to measure.
pub struct Instance {
    pub engine: Engine,
    pub clients: Vec<Client>,
    pub probes: Option<Probes>,
}

/// Generate the database and streams from `params`, build the engine and
/// warm it up. With `traced`, the disk and the log (if any) are wrapped in
/// timing probes and the pool keeps telemetry.
pub fn set_up(w: &Workload, params: &Params, scale: f64, traced: bool) -> Result<Instance, String> {
    assert!(
        w.clients == 1 || w.pr_update == 0.0,
        "the oracle orders updates within one client only"
    );
    let generated = generate(params);
    let oracle = Oracle::new(&generated);
    let streams = generate_stream_sequences(params, w.clients);
    let mut builder = Engine::builder()
        .pool_pages(params.buffer_pages)
        .shards(params.shards)
        .metrics(traced);
    if w.strategy.needs_cache() {
        builder = builder.cache(CacheConfig {
            capacity: params.size_cache,
            ..CacheConfig::default()
        });
    }
    let probes = traced.then(|| Probes {
        disk: Probe::new(),
        log: Probe::new(),
    });
    let spec = generated.spec;
    let timed_disk = |pr: &Probes| -> Arc<dyn DiskManager> {
        Arc::new(TimingDisk::new(MemDisk::new(), Arc::clone(&pr.disk)))
    };
    let engine = if w.durable {
        let (disk, log): (Arc<dyn DiskManager>, Arc<dyn LogStore>) = match &probes {
            Some(pr) => (
                timed_disk(pr),
                Arc::new(TimingLog::new(MemLogStore::new(), Arc::clone(&pr.log))),
            ),
            None => (Arc::new(MemDisk::new()), Arc::new(MemLogStore::new())),
        };
        builder.create_on(disk, log, &EngineSpec::Standard(spec))
    } else {
        if let Some(pr) = &probes {
            builder = builder.disk(timed_disk(pr));
        }
        builder.build(&spec)
    }
    .map_err(|e| e.to_string())?;
    let mut inst = Instance {
        engine,
        clients: streams
            .into_iter()
            .map(|ops| Client {
                ops,
                next: 0,
                oracle: oracle.clone(),
            })
            .collect(),
        probes,
    };
    let warm = inst.run_each(w.strategy, w.warmup_ops(scale), false);
    if warm.failed > 0 {
        return Err(format!(
            "{} of {} warm-up operations failed",
            warm.failed, warm.attempted
        ));
    }
    Ok(inst)
}

/// Per-retrieve sums over trace trees.
#[derive(Debug, Clone, Default)]
pub struct TraceSums {
    pub traces: u64,
    pub wall_ns: u64,
    pub self_ns: [u64; PHASE_COUNT],
    pub reads: [u64; PHASE_COUNT],
}

impl TraceSums {
    fn add(&mut self, tree: &TraceTree) {
        let mut child_ns = vec![0u64; tree.nodes.len()];
        for n in &tree.nodes {
            if let Some(p) = n.parent {
                child_ns[p] += n.dur_ns;
            }
        }
        for (n, c) in tree.nodes.iter().zip(&child_ns) {
            self.self_ns[n.phase.index()] += n.dur_ns.saturating_sub(*c);
        }
        for (acc, r) in self.reads.iter_mut().zip(tree.reads_by_phase()) {
            *acc += r;
        }
        self.traces += 1;
        self.wall_ns += tree.total_ns;
    }

    fn merge(&mut self, o: &TraceSums) {
        self.traces += o.traces;
        self.wall_ns += o.wall_ns;
        for p in 0..PHASE_COUNT {
            self.self_ns[p] += o.self_ns[p];
            self.reads[p] += o.reads[p];
        }
    }
}

/// What a stretch of client operations did.
#[derive(Debug, Clone, Default)]
pub struct Log {
    pub retrieve_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Indexed by client: (operations, nanoseconds inside engine calls).
    pub per_client: Vec<(u64, u64)>,
    pub par_io: u64,
    pub child_io: u64,
    pub trace: TraceSums,
}

impl Log {
    pub fn merge(&mut self, o: Log) {
        self.retrieve_ns.extend(o.retrieve_ns);
        self.update_ns.extend(o.update_ns);
        self.attempted += o.attempted;
        self.failed += o.failed;
        if self.per_client.len() < o.per_client.len() {
            self.per_client.resize(o.per_client.len(), (0, 0));
        }
        for (acc, (ops, ns)) in self.per_client.iter_mut().zip(o.per_client) {
            acc.0 += ops;
            acc.1 += ns;
        }
        self.par_io += o.par_io;
        self.child_io += o.child_io;
        self.trace.merge(&o.trace);
    }

    pub fn ops(&self) -> u64 {
        (self.retrieve_ns.len() + self.update_ns.len()) as u64
    }

    /// Operations per second of engine time, summed over clients. Client
    /// time spent checking answers is excluded.
    pub fn qps(&self) -> f64 {
        self.per_client
            .iter()
            .map(|&(ops, ns)| ops as f64 / (ns.max(1) as f64 / 1e9))
            .sum()
    }

    /// Failed or wrong-answer operations over operations attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Nanoseconds inside engine calls, summed over clients.
    pub fn engine_ns(&self) -> u64 {
        self.per_client.iter().map(|&(_, ns)| ns).sum()
    }
}

/// When a client stops.
#[derive(Clone, Copy)]
enum Stop {
    After(usize),
    At(Instant),
}

fn run_client(
    client: usize,
    engine: &Engine,
    strategy: Strategy,
    c: &mut Client,
    stop: Stop,
    traced: bool,
) -> Log {
    let mut log = Log::default();
    let (mut ops, mut busy_ns) = (0u64, 0u64);
    loop {
        match stop {
            Stop::After(n) if ops as usize >= n => break,
            Stop::At(t) if Instant::now() >= t => break,
            _ => {}
        }
        let op = &c.ops[c.next];
        c.next = (c.next + 1) % c.ops.len();
        log.attempted += 1;
        match op {
            Query::Retrieve(q) => {
                set_op(OpKind::Retrieve);
                let t0 = Instant::now();
                let res = if traced {
                    engine.trace_query(strategy, q)
                } else {
                    engine.retrieve(strategy, q).map(|out| (out, None))
                };
                let ns = t0.elapsed().as_nanos() as u64;
                set_op(OpKind::Other);
                busy_ns += ns;
                log.retrieve_ns.push(ns);
                match res {
                    Ok((out, tree)) => {
                        log.par_io += out.par_io.total();
                        log.child_io += out.child_io.total();
                        if let Some(tree) = &tree {
                            log.trace.add(tree);
                        }
                        if !c.oracle.check(q, &out) {
                            log.failed += 1;
                        }
                    }
                    Err(_) => log.failed += 1,
                }
            }
            Query::Update(u) => {
                set_op(OpKind::Update);
                let t0 = Instant::now();
                let res = engine.update(u);
                let ns = t0.elapsed().as_nanos() as u64;
                set_op(OpKind::Other);
                busy_ns += ns;
                log.update_ns.push(ns);
                match res {
                    Ok(_) => c.oracle.apply(u),
                    Err(_) => log.failed += 1,
                }
            }
        }
        ops += 1;
        if engine.wal().is_some() && ops % CHECKPOINT_EVERY == 0 {
            let t0 = Instant::now();
            if engine.checkpoint().is_err() {
                log.failed += 1;
            }
            busy_ns += t0.elapsed().as_nanos() as u64;
        }
    }
    log.per_client = vec![(0, 0); client + 1];
    log.per_client[client] = (ops, busy_ns);
    log
}

impl Instance {
    /// Run `n` operations on each client, one client after another, so
    /// the engine sees the same operations in the same order every time.
    pub fn run_each(&mut self, strategy: Strategy, n: usize, traced: bool) -> Log {
        let mut log = Log::default();
        for (i, c) in self.clients.iter_mut().enumerate() {
            log.merge(run_client(
                i,
                &self.engine,
                strategy,
                c,
                Stop::After(n),
                traced,
            ));
        }
        log
    }

    /// Run every client concurrently, each in a closed loop, for `window`.
    pub fn run_for(&mut self, strategy: Strategy, window: Duration, traced: bool) -> Log {
        let deadline = Instant::now() + window;
        let engine = &self.engine;
        let mut log = Log::default();
        if let [only] = self.clients.as_mut_slice() {
            return run_client(0, engine, strategy, only, Stop::At(deadline), traced);
        }
        let logs: Vec<Log> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    s.spawn(move || run_client(i, engine, strategy, c, Stop::At(deadline), traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for l in logs {
            log.merge(l);
        }
        log
    }

    pub fn io(&self) -> IoSnapshot {
        self.engine.pool().stats().snapshot()
    }

    /// Bytes appended to the WAL so far (0 without one).
    pub fn log_bytes(&self) -> u64 {
        self.engine.wal().map_or(0, |w| w.stats().bytes)
    }
}
