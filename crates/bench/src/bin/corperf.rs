//! `corperf` — the perf-regression observatory: one canonical suite,
//! a stamped trajectory, and a CI gate.
//!
//! Runs every strategy over a fixed retrieve-only workload on
//! [`MemDisk`](cor_pagestore::MemDisk) (plus the batched BFS/DFSCLUST
//! legs), median-of-K per leg, and appends one stamped record to a
//! `BENCH_core.json` trajectory. Two invariants gate the run:
//!
//! 1. **Determinism** — every rep of a leg must return the same values
//!    and perform the same I/O (cold pool + fixed seed + MemDisk leaves
//!    nothing to vary). A drifting rep is a correctness bug, not noise.
//! 2. **No regressions** — with `--smoke`, reads/writes/values per leg
//!    must equal the committed baseline *exactly* (I/O counts are
//!    machine-independent), and median wall time may not exceed 4x the
//!    previous trajectory record for that leg (floored at 5 ms so
//!    micro-legs never flake).
//!
//! ```text
//! cargo run --release -p cor-bench --bin corperf [--scale F | --full]
//!     [--smoke]          tiny suite + the exact-I/O baseline gate
//!     [--json FILE]      trajectory path (default BENCH_core.json)
//!     [--baseline FILE]  baseline path (default results/corperf/baseline.json)
//!     [--reps K]         reps per leg (default 3 smoke, 5 otherwise)
//!     [--rebaseline]     rewrite the baseline from this run, skip the gate
//! ```
//!
//! Records carry `schema_version`, `catalog_version` and
//! `metrics_schema_version` so a trajectory spanning format changes
//! stays interpretable.

use std::path::PathBuf;
use std::time::Instant;

use complexobj::{ExecOptions, IoOptions, Query, Strategy};
use cor_bench::BenchConfig;
use cor_workload::{
    fnum, format_table, generate, generate_sequence, Engine, GeneratedDb, Params,
    ENGINE_CATALOG_VERSION, METRICS_SCHEMA_VERSION,
};

/// Trajectory/baseline record format version.
const PERF_SCHEMA_VERSION: u32 = 1;
/// Wall-time regression tolerance vs the previous trajectory record.
const WALL_TOLERANCE: u64 = 4;
/// Legs faster than this never trip the wall gate. Smoke legs run in a
/// couple of milliseconds, where scheduler noise and machine differences
/// dominate; the exact-I/O gate is the sensitive detector, wall time is
/// a backstop against catastrophic (order-of-magnitude) slowdowns.
const WALL_FLOOR_NS: u64 = 5_000_000;

/// One suite entry: a strategy plus the I/O knobs it runs under.
struct LegSpec {
    name: String,
    strategy: Strategy,
    opts: ExecOptions,
}

/// Median-of-K measurement of one leg.
struct LegResult {
    name: String,
    retrieves: u64,
    values: u64,
    checksum: u64,
    reads: u64,
    writes: u64,
    wall_ns: u64,
}

fn suite() -> Vec<LegSpec> {
    let mut legs: Vec<LegSpec> = Strategy::ALL
        .iter()
        .map(|&s| LegSpec {
            name: s.name().to_string(),
            strategy: s,
            opts: ExecOptions::default(),
        })
        .collect();
    // The batched path is a separate performance surface: same answers,
    // different physical I/O plan.
    for s in [Strategy::Bfs, Strategy::DfsClust] {
        legs.push(LegSpec {
            name: format!("{}+batch", s.name()),
            strategy: s,
            opts: ExecOptions {
                io: IoOptions {
                    batch: 16,
                    readahead: 32,
                },
                ..ExecOptions::default()
            },
        });
    }
    legs
}

/// Run one leg `reps` times and take the median wall. Every rep gets a
/// freshly built engine and a cold pool — caches (the paper's value
/// cache carries eviction state) start identical, so answers and I/O
/// must agree across reps; divergence is a bug, not noise.
fn run_leg(
    params: &Params,
    generated: &GeneratedDb,
    spec: &LegSpec,
    reps: usize,
) -> Result<LegResult, String> {
    let sequence = generate_sequence(params);

    let mut agreed: Option<(u64, u64, u64, u64, u64)> = None;
    let mut walls: Vec<u64> = Vec::with_capacity(reps);
    for rep in 0..reps {
        let engine = Engine::builder()
            .build_workload(params, generated, spec.strategy)
            .map_err(|e| format!("{}: engine build failed: {e}", spec.name))?
            .with_options(spec.opts);
        let stats = engine.pool().stats().clone();
        engine
            .pool()
            .flush_and_clear()
            .map_err(|e| format!("{}: pool flush failed: {e}", spec.name))?;
        let io_before = stats.snapshot();
        let (mut retrieves, mut values, mut checksum) = (0u64, 0u64, 0u64);
        let t0 = Instant::now();
        for q in &sequence {
            let Query::Retrieve(r) = q else { continue };
            let out = engine
                .retrieve(spec.strategy, r)
                .map_err(|e| format!("{}: retrieve failed: {e}", spec.name))?;
            retrieves += 1;
            for v in out.values {
                values += 1;
                checksum = checksum.wrapping_add((v as u64) ^ (v as u64).rotate_left(17));
            }
        }
        walls.push(t0.elapsed().as_nanos() as u64);
        let io = stats.snapshot().since(&io_before);
        let sig = (retrieves, values, checksum, io.reads, io.writes);
        match agreed {
            None => agreed = Some(sig),
            Some(prev) if prev != sig => {
                return Err(format!(
                    "{}: rep {rep} diverged: {sig:?} vs rep 0 {prev:?}",
                    spec.name
                ));
            }
            Some(_) => {}
        }
    }
    let (retrieves, values, checksum, reads, writes) = agreed.expect("reps >= 1");
    walls.sort_unstable();
    Ok(LegResult {
        name: spec.name.clone(),
        retrieves,
        values,
        checksum,
        reads,
        writes,
        wall_ns: walls[walls.len() / 2],
    })
}

/// The integer right after `"key":`, scanning from byte offset `from`.
/// Same targeted-scan idiom the explain replay reader uses: this binary
/// only ever reads JSON it wrote itself.
fn field_u64(s: &str, key: &str, from: usize) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = s[from..].find(&pat)? + from + pat.len();
    let rest = &s[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_record(
    params: &Params,
    smoke: bool,
    reps: usize,
    ts_secs: u64,
    legs: &[LegResult],
) -> String {
    let legs_json: Vec<String> = legs
        .iter()
        .map(|l| {
            format!(
                "{{\"leg\":\"{}\",\"retrieves\":{},\"values\":{},\"checksum\":{},\
                 \"reads\":{},\"writes\":{},\"wall_ns\":{}}}",
                l.name, l.retrieves, l.values, l.checksum, l.reads, l.writes, l.wall_ns
            )
        })
        .collect();
    format!(
        "{{\"ts\":{ts_secs},\"schema_version\":{PERF_SCHEMA_VERSION},\
         \"catalog_version\":{ENGINE_CATALOG_VERSION},\
         \"metrics_schema_version\":{METRICS_SCHEMA_VERSION},\
         \"smoke\":{smoke},\"reps\":{reps},\
         \"params\":{{\"parent_card\":{},\"num_top\":{},\"sequence_len\":{},\
         \"size_cache\":{},\"buffer_pages\":{},\"shards\":{},\"seed\":{}}},\
         \"legs\":[{}]}}",
        params.parent_card,
        params.num_top,
        params.sequence_len,
        params.size_cache,
        params.buffer_pages,
        params.shards,
        params.seed,
        legs_json.join(",")
    )
}

/// Append `record` to the `{"schema_version":1,"runs":[...]}` trajectory
/// at `path`, creating it if missing. Purely textual: the file is ours.
fn append_trajectory(path: &std::path::Path, record: &str) -> Result<(), String> {
    let fresh = format!("{{\"schema_version\":{PERF_SCHEMA_VERSION},\"runs\":[\n{record}\n]}}\n");
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix("]}") {
                Some(head) if trimmed.contains("\"runs\":[") => {
                    format!("{},\n{record}\n]}}\n", head.trim_end())
                }
                _ => {
                    eprintln!(
                        "warning: {} is not a corperf trajectory, starting fresh",
                        path.display()
                    );
                    fresh
                }
            }
        }
        Err(_) => fresh,
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, body).map_err(|e| format!("failed to write {}: {e}", path.display()))
}

/// Gate legs against the committed baseline: reads/writes/values and the
/// value checksum must match exactly. Only applies when the baseline was
/// captured with the same parameters (seed included).
fn check_baseline(baseline: &str, params: &Params, legs: &[LegResult]) -> Vec<String> {
    let mut bad = Vec::new();
    let same_params = [
        ("parent_card", params.parent_card),
        ("num_top", params.num_top),
        ("sequence_len", params.sequence_len as u64),
        ("seed", params.seed),
    ]
    .iter()
    .all(|&(key, want)| field_u64(baseline, key, 0) == Some(want));
    if !same_params {
        bad.push("baseline parameters differ from this run (re-capture with --rebaseline)".into());
        return bad;
    }
    for leg in legs {
        let pat = format!("\"leg\":\"{}\"", leg.name);
        let Some(at) = baseline.find(&pat) else {
            bad.push(format!("{}: missing from baseline", leg.name));
            continue;
        };
        for (key, got) in [
            ("retrieves", leg.retrieves),
            ("values", leg.values),
            ("checksum", leg.checksum),
            ("reads", leg.reads),
            ("writes", leg.writes),
        ] {
            let want = field_u64(baseline, key, at);
            if want != Some(got) {
                bad.push(format!(
                    "{}: {key} = {got}, baseline {}",
                    leg.name,
                    want.map_or("missing".into(), |w| w.to_string())
                ));
            }
        }
    }
    bad
}

/// The most recent wall time recorded for `leg` in the trajectory text
/// (the last occurrence is the newest run).
fn previous_wall(trajectory: &str, leg: &str) -> Option<u64> {
    let pat = format!("\"leg\":\"{leg}\"");
    let at = trajectory.rfind(&pat)?;
    field_u64(trajectory, "wall_ns", at)
}

fn main() {
    let cfg = BenchConfig::from_args();
    let smoke = cfg.has_flag("--smoke");
    let rebaseline = cfg.has_flag("--rebaseline");
    let mut json_path = PathBuf::from("BENCH_core.json");
    let mut baseline_path = PathBuf::from("results/corperf/baseline.json");
    let mut reps: usize = if smoke { 3 } else { 5 };
    let mut it = cfg.rest.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--smoke" | "--rebaseline" => {}
            "--json" => json_path = value("--json").into(),
            "--baseline" => baseline_path = value("--baseline").into(),
            "--reps" => {
                reps = value("--reps").parse().unwrap_or(0);
                if reps == 0 {
                    eprintln!("error: --reps needs a positive integer");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let params = if smoke {
        Params {
            parent_card: 200,
            num_top: 10,
            sequence_len: 40,
            size_cache: 20,
            buffer_pages: 64,
            shards: 2,
            pr_update: 0.0,
            ..Params::paper_default()
        }
    } else {
        let base = cfg.base_params();
        Params {
            pr_update: 0.0,
            num_top: (base.parent_card / 10).max(base.num_top),
            buffer_pages: base.buffer_pages.max(256),
            ..base
        }
    };
    let legs_spec = suite();
    println!(
        "corperf — perf-regression observatory{}\n\
         |ParentRel| = {}, {} queries, {} legs x {} reps (median wall)\n",
        if smoke { " (smoke)" } else { "" },
        params.parent_card,
        params.sequence_len,
        legs_spec.len(),
        reps,
    );

    let generated = generate(&params);
    let mut legs: Vec<LegResult> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for spec in &legs_spec {
        match run_leg(&params, &generated, spec, reps) {
            Ok(leg) => legs.push(leg),
            Err(e) => failures.push(e),
        }
    }

    let trajectory = std::fs::read_to_string(&json_path).unwrap_or_default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for leg in &legs {
        let prev = previous_wall(&trajectory, &leg.name);
        if let Some(prev) = prev {
            let allowed = WALL_TOLERANCE * prev.max(WALL_FLOOR_NS);
            if leg.wall_ns > allowed {
                failures.push(format!(
                    "{}: wall {:.2}ms exceeds {}x previous {:.2}ms",
                    leg.name,
                    leg.wall_ns as f64 / 1e6,
                    WALL_TOLERANCE,
                    prev as f64 / 1e6,
                ));
            }
        }
        rows.push(vec![
            leg.name.clone(),
            leg.retrieves.to_string(),
            leg.values.to_string(),
            leg.reads.to_string(),
            leg.writes.to_string(),
            fnum(leg.wall_ns as f64 / 1e6),
            prev.map_or_else(|| "-".into(), |p| fnum(p as f64 / 1e6)),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["Leg", "Retr", "Values", "Reads", "Writes", "wall ms", "prev ms"],
            &rows,
        )
    );
    cfg.maybe_write_csv(
        &[
            "Leg", "Retr", "Values", "Reads", "Writes", "wall_ms", "prev_ms",
        ],
        &rows,
    );

    let ts_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let record = json_record(&params, smoke, reps, ts_secs, &legs);

    if rebaseline {
        if let Some(dir) = baseline_path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&baseline_path, format!("{record}\n")) {
            Ok(()) => eprintln!("rebaselined {}", baseline_path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", baseline_path.display());
                std::process::exit(1);
            }
        }
    } else if smoke {
        match std::fs::read_to_string(&baseline_path) {
            Ok(baseline) => failures.extend(check_baseline(&baseline, &params, &legs)),
            Err(_) => failures.push(format!(
                "no baseline at {} (capture one with --rebaseline)",
                baseline_path.display()
            )),
        }
    }

    if let Err(e) = append_trajectory(&json_path, &record) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    eprintln!("appended run to {}", json_path.display());

    if failures.is_empty() {
        println!(
            "corperf{}: OK ({} legs, I/O exact{})",
            if smoke { " smoke" } else { "" },
            legs.len(),
            if smoke && !rebaseline {
                ", baseline matched"
            } else {
                ""
            }
        );
    } else {
        for f in &failures {
            eprintln!("corperf FAIL: {f}");
        }
        std::process::exit(1);
    }
}
