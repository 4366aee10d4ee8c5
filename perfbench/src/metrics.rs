//! The benchmark's metric names and units, in the order they are printed.
//! `BENCHMARK.json` declares the same lists (a test keeps them in step).

use crate::report::Metric;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Emitted by every run with `--trace 0`, on every workload. Each is
/// nonzero on every workload.
pub const END_TO_END: [Def; 5] = [
    def("qps", "1/s"),
    def("retrieve_p50_us", "us"),
    def("retrieve_p90_us", "us"),
    def("setup_s", "s"),
    def("peak_rss_mib", "MiB"),
];

/// Emitted by every run with `--trace 1`, on every workload; a layer the
/// workload bypasses reads 0. Time in a layer is reported as a share:
/// phase self time of the retrieve wall time (the phase shares and
/// `engine.unaccounted_share` sum to 1), device and wait time of the
/// clients' engine time.
pub const PER_LAYER: [Def; 41] = [
    // The paper's yardstick, measured in the traced window.
    def("io.pages_read_per_query", "count"),
    def("io.pages_written_per_query", "count"),
    def("io.bytes_written_per_query", "bytes"),
    // pagestore.disk: the timing DiskManager wrapper.
    def("disk.read_calls_per_query", "count"),
    def("disk.write_calls_per_query", "count"),
    def("disk.sync_calls_per_query", "count"),
    def("disk.busy_share", "ratio"),
    // pagestore.buffer: pool telemetry and the wait profile.
    def("pool.hit_ratio", "ratio"),
    def("pool.evictions_per_query", "count"),
    def("pool.writebacks_per_query", "count"),
    def("pool.shard_lock_wait_share", "ratio"),
    def("pool.frame_stalls_per_query", "count"),
    // access: phase self time and reads from trace trees.
    def("phase.index_descent.share", "ratio"),
    def("phase.index_descent.reads_per_retrieve", "count"),
    def("phase.heap_fetch.share", "ratio"),
    def("phase.heap_fetch.reads_per_retrieve", "count"),
    def("phase.temp_build.share", "ratio"),
    def("phase.temp_build.reads_per_retrieve", "count"),
    def("phase.sort.share", "ratio"),
    def("phase.sort.reads_per_retrieve", "count"),
    def("phase.merge_join.share", "ratio"),
    def("phase.merge_join.reads_per_retrieve", "count"),
    // core: strategies and the unit cache.
    def("phase.cache_probe.share", "ratio"),
    def("phase.cache_maintain.share", "ratio"),
    def("cache.hit_ratio", "ratio"),
    def("cache.insertions_per_query", "count"),
    def("cache.evictions_per_query", "count"),
    def("cache.invalidations_per_update", "count"),
    def("core.par_io_per_retrieve", "count"),
    def("core.child_io_per_retrieve", "count"),
    // wal: the timing LogStore wrapper, Wal::stats and the wait profile.
    def("wal.appends_per_query", "count"),
    def("wal.fsyncs_per_query", "count"),
    def("wal.bytes_per_query", "bytes"),
    def("wal.image_records_per_query", "count"),
    def("wal.delta_records_per_query", "count"),
    def("wal.append_share", "ratio"),
    def("wal.sync_share", "ratio"),
    def("wal.fsync_wait_share", "ratio"),
    // workload.engine: retrieve time no named phase covers.
    def("engine.unaccounted_share", "ratio"),
    def("trace.retrieve_wall_us", "us"),
    // obs: what tracing costs.
    def("obs.trace_overhead_ratio", "ratio"),
];

/// Collects values by name and hands them back in `defs` order.
pub struct Sheet {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Sheet {
    pub fn new(defs: &'static [Def]) -> Self {
        Sheet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    pub fn finish(self) -> Vec<Metric> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(d, v)| Metric {
                name: d.name,
                unit: d.unit,
                value: v.unwrap_or_else(|| panic!("metric {} never set", d.name)),
            })
            .collect()
    }
}
