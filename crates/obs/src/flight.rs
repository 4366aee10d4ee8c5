//! Flight recorder: a bounded, structured black-box event journal.
//!
//! Cumulative counters say *how much* happened; the flight recorder says
//! *what the engine was doing just now*. It keeps the last N coarse
//! lifecycle events — engine open/close, checkpoint, WAL append/poison,
//! buffer-pool `NoFreeFrames`, slow queries, injected faults — in the
//! same seqlock ring the query tracer uses ([`TraceRing`]), so recording
//! never blocks, never allocates, and costs one relaxed [`AtomicBool`]
//! load when the recorder is off (the default).
//!
//! Consumers:
//!
//! * `crashtest` enables the recorder and attaches a JSON dump of the
//!   last events to every crash point — each injected fault carries its
//!   black box.
//! * [`install_panic_dump`] chains a panic hook that writes the dump to
//!   stderr, so an unexpected abort still tells its story.
//!
//! Events are fixed-size (`kind` + timestamp + three `u64` args whose
//! meaning the `kind` owns); anything needing strings or nesting belongs
//! in the metrics registry, not here.

use crate::trace::{Span, TraceRing};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Instant;

/// What a flight-recorder event records. Discriminants are stable (they
/// appear in JSON dumps); 0 is reserved for "never written".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FlightKind {
    /// An engine instance opened (a = catalog epoch or 0).
    EngineOpen = 1,
    /// An engine instance closed cleanly (a = catalog epoch or 0).
    EngineClose = 2,
    /// A WAL checkpoint completed (a = begin LSN, b = redo LSN).
    Checkpoint = 3,
    /// A WAL record was appended (a = LSN, b = record kind tag).
    WalAppend = 4,
    /// The WAL poisoned itself after a storage failure (a = next LSN).
    WalPoison = 5,
    /// The buffer pool found every candidate frame pinned
    /// (a = shard, b = page id, c = pinned frames).
    NoFreeFrames = 6,
    /// A query crossed the slow-query threshold
    /// (a = strategy tag, b = wall ns, c = values returned).
    SlowQuery = 7,
    /// The fault-injection harness armed or fired a fault
    /// (a = nth write, b = mode tag).
    FaultInjected = 8,
    /// A free-form progress marker (a/b/c owned by the caller).
    PointMark = 9,
    /// A captured query was traced: joins this black box with a
    /// `cor_obs::tracetree::TraceTree`
    /// (a = trace id, b = strategy tag, c = wall ns).
    TraceLink = 10,
}

impl FlightKind {
    /// Every kind, in discriminant order.
    pub const ALL: [FlightKind; 10] = [
        FlightKind::EngineOpen,
        FlightKind::EngineClose,
        FlightKind::Checkpoint,
        FlightKind::WalAppend,
        FlightKind::WalPoison,
        FlightKind::NoFreeFrames,
        FlightKind::SlowQuery,
        FlightKind::FaultInjected,
        FlightKind::PointMark,
        FlightKind::TraceLink,
    ];

    /// Stable snake_case name for dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::EngineOpen => "engine_open",
            FlightKind::EngineClose => "engine_close",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::WalAppend => "wal_append",
            FlightKind::WalPoison => "wal_poison",
            FlightKind::NoFreeFrames => "no_free_frames",
            FlightKind::SlowQuery => "slow_query",
            FlightKind::FaultInjected => "fault_injected",
            FlightKind::PointMark => "point_mark",
            FlightKind::TraceLink => "trace_link",
        }
    }

    /// The kind for a discriminant, if valid.
    pub fn from_code(code: u64) -> Option<FlightKind> {
        FlightKind::ALL.get(code.checked_sub(1)? as usize).copied()
    }
}

/// One recorded event: the kind, nanoseconds since the recorder was
/// created, and three argument words whose meaning the kind owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// What happened.
    pub kind: FlightKind,
    /// Nanoseconds since recorder creation (process-relative clock).
    pub t_ns: u64,
    /// First argument word (see [`FlightKind`]).
    pub a: u64,
    /// Second argument word.
    pub b: u64,
    /// Third argument word.
    pub c: u64,
}

/// The recorder: a [`TraceRing`] of events plus the epoch its timestamps
/// are relative to. Events map onto [`Span`]s field-for-field
/// (`op`=kind, `wall_ns`=t_ns, `tag`/`reads`/`writes`=a/b/c) so the ring
/// keeps its tested seqlock publication untouched.
pub struct Flight {
    ring: TraceRing,
    epoch: Instant,
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flight")
            .field("recorded", &self.recorded())
            .field("capacity", &self.ring.capacity())
            .finish()
    }
}

/// Default ring depth: enough to cover a crashtest point's workload
/// window with room for WAL chatter.
pub const DEFAULT_CAPACITY: usize = 256;

impl Flight {
    /// A recorder retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Flight {
            ring: TraceRing::new(capacity),
            epoch: Instant::now(),
        }
    }

    /// Record an event. Wait-free; overwrites the oldest when full.
    pub fn record(&self, kind: FlightKind, a: u64, b: u64, c: u64) {
        self.ring.push(Span {
            op: kind as u64,
            tag: a,
            reads: b,
            writes: c,
            wall_ns: self.epoch.elapsed().as_nanos() as u64,
            payload: 0,
        });
    }

    /// Events recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.ring.pushed()
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.ring
            .snapshot()
            .into_iter()
            .filter_map(|s| {
                Some(FlightEvent {
                    kind: FlightKind::from_code(s.op)?,
                    t_ns: s.wall_ns,
                    a: s.tag,
                    b: s.reads,
                    c: s.writes,
                })
            })
            .collect()
    }

    /// The retained tail as a JSON object:
    /// `{"recorded": N, "events": [{"kind": "...", "t_ns": ..., ...}]}`.
    pub fn dump_json(&self) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str(&format!("{{\"recorded\":{},\"events\":[", self.recorded()));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"t_ns\":{},\"a\":{},\"b\":{},\"c\":{}}}",
                e.kind.name(),
                e.t_ns,
                e.a,
                e.b,
                e.c
            ));
        }
        out.push_str("]}");
        out
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Flight> = OnceLock::new();

/// Whether flight recording is on. One relaxed load — the entire cost of
/// a feed site while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on or off process-wide. The ring keeps its contents
/// across off/on transitions (it is a black box, history is the point).
pub fn enable(on: bool) {
    if on {
        let _ = global();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global recorder (created on first use, default capacity).
pub fn global() -> &'static Flight {
    GLOBAL.get_or_init(|| Flight::new(DEFAULT_CAPACITY))
}

/// Record an event in the global recorder — the feed-site entry point.
/// A no-op costing one relaxed load while disabled.
#[inline]
pub fn record(kind: FlightKind, a: u64, b: u64, c: u64) {
    if enabled() {
        global().record(kind, a, b, c);
    }
}

/// Events the global recorder has seen over its lifetime.
pub fn recorded() -> u64 {
    global().recorded()
}

/// The global recorder's retained tail, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    global().snapshot()
}

/// The global recorder's tail as JSON (see [`Flight::dump_json`]).
pub fn dump_json() -> String {
    global().dump_json()
}

/// Chain a panic hook that dumps the recorder tail to stderr when a
/// panic fires while recording is enabled. Idempotent; the previous hook
/// (including the default backtrace printer) still runs afterwards.
pub fn install_panic_dump() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                eprintln!("flight-recorder dump: {}", dump_json());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_the_ring() {
        let f = Flight::new(8);
        f.record(FlightKind::EngineOpen, 1, 0, 0);
        f.record(FlightKind::WalAppend, 42, 3, 0);
        f.record(FlightKind::Checkpoint, 42, 40, 0);
        let got = f.snapshot();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].kind, FlightKind::EngineOpen);
        assert_eq!(
            (got[1].kind, got[1].a, got[1].b),
            (FlightKind::WalAppend, 42, 3)
        );
        assert_eq!(got[2].kind, FlightKind::Checkpoint);
        assert!(
            got.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "timestamps are monotone"
        );
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let f = Flight::new(4);
        for i in 0..10 {
            f.record(FlightKind::PointMark, i, 0, 0);
        }
        let got = f.snapshot();
        assert_eq!(got.len(), 4);
        assert_eq!(
            got.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(f.recorded(), 10);
    }

    #[test]
    fn dump_json_is_wellformed_and_named() {
        let f = Flight::new(4);
        f.record(FlightKind::NoFreeFrames, 2, 77, 16);
        let json = f.dump_json();
        assert!(json.starts_with("{\"recorded\":1,\"events\":["));
        assert!(json.contains("\"kind\":\"no_free_frames\""));
        assert!(json.contains("\"a\":2,\"b\":77,\"c\":16"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in FlightKind::ALL {
            assert_eq!(FlightKind::from_code(kind as u64), Some(kind));
        }
        assert_eq!(FlightKind::from_code(0), None);
        assert_eq!(FlightKind::from_code(99), None);
    }

    #[test]
    fn global_record_is_inert_when_disabled() {
        enable(false);
        let before = recorded();
        record(FlightKind::PointMark, 1, 2, 3);
        assert_eq!(recorded(), before);
    }
}
