//! `txnbench`: the paper's closed-loop terminal workload run through the
//! real front-ends, with a per-layer ladder.
//!
//! ```text
//! txnbench --workload <mix_mem|hot_mem|mix_wire|mix_durable|all> --seed N --seconds S --trace 0|1
//! txnbench --self-check
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the phase
//! twice (untraced, then traced), replays the ladder and prints the
//! per-layer metrics. The last stdout line is always the result object;
//! a failed output check makes the exit code nonzero.

mod check;
mod config;
mod gen;
mod heap;
mod ladder;
mod mem;
mod report;
mod wire;

use check::{committed_states, verify_quiescent};
use config::WorkDir;
use gen::{object_name, Skew, OBJECTS};
use mem::{ids_of, Outcome};
use report::{emit, quantile, Metric, Tracer};
use sbcc_core::aio::AsyncDatabase;
use sbcc_core::{Database, ObjectHandle, StatsSnapshot};
use std::io::Write as _;
use std::process::{exit, Command};
use std::time::Instant;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Timed set-ups before each measured phase, each torn down again;
/// `setup_s` is the median over all of them. Spreading them over the run
/// samples the machine at several moments: on a shared 2-core host, 51
/// set-ups taken back to back read 0.6 or 1.1 ms depending on the moment.
const SETUPS_PER_PHASE: usize = 9;
/// Measured phases per untraced run, each on a fresh set-up and the same
/// inputs, `--seconds / REPS` long. Each end-to-end figure is the median
/// over the phases, so a burst of outside noise in one does not move it.
const REPS: usize = 6;

/// End-to-end metrics, reported by `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("commit_tps", "1/s"),
    ("update_txn_p50_ms", "ms"),
    ("update_txn_p99_ms", "ms"),
    ("read_txn_p50_ms", "ms"),
    ("read_txn_p99_ms", "ms"),
    ("mean_heap_mb", "MiB"),
];

/// Per-layer metrics, reported by `--trace 1`.
const PER_LAYER: [(&str, &str); 33] = [
    ("adt.ns_per_op", "ns"),
    ("kernel.ns_per_op", "ns"),
    ("shard.ns_per_op", "ns"),
    ("db.ns_per_op", "ns"),
    ("aio.ns_per_op", "ns"),
    ("net.ns_per_op", "ns"),
    ("wal.commit_us", "us"),
    ("aio.exec_p99_us", "us"),
    ("aio.commit_p99_us", "us"),
    ("aio.snapshot_exec_p50_us", "us"),
    ("aio.run_attempts_per_txn", "ratio"),
    ("mvcc.version_depth_max", "count"),
    ("mvcc.versions_pruned", "count"),
    ("ssi.aborts", "count"),
    ("kernel.restart_ratio", "ratio"),
    ("kernel.blocking_ratio", "ratio"),
    ("kernel.useful_op_frac", "ratio"),
    ("kernel.commit_deps_per_txn", "ratio"),
    ("kernel.pseudo_commit_frac", "ratio"),
    ("graph.cycle_checks_per_txn", "ratio"),
    ("graph.edges_per_txn", "ratio"),
    ("graph.reorder_violations", "count"),
    ("graph.slow_path_allocs", "count"),
    ("shard.lock_acquisitions_per_txn", "ratio"),
    ("net.exec_rtt_p50_us", "us"),
    ("net.exec_rtt_p99_us", "us"),
    ("net.commit_rtt_p99_us", "us"),
    ("net.busy_sheds", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.recovery_commits_per_s", "1/s"),
    ("wal.recovery_s", "s"),
    ("txn_fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MixMem,
    HotMem,
    MixWire,
    MixDurable,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::MixMem,
        Workload::HotMem,
        Workload::MixWire,
        Workload::MixDurable,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MixMem => "mix_mem",
            Workload::HotMem => "hot_mem",
            Workload::MixWire => "mix_wire",
            Workload::MixDurable => "mix_durable",
        }
    }

    fn skew(self) -> Skew {
        match self {
            Workload::HotMem => Skew::Hot,
            _ => Skew::Uniform,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_check: bool,
    plant_wrong_state: bool,
}

const USAGE: &str = "usage: txnbench --workload <mix_mem|hot_mem|mix_wire|mix_durable|all> \
                     --seed <n> --seconds <n> --trace <0|1> | txnbench --self-check";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        self_check: false,
        plant_wrong_state: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-check" => args.self_check = true,
            "--plant-wrong-state" => args.plant_wrong_state = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() && !args.self_check {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    if let Some(var) = config::FORBIDDEN_ENV
        .iter()
        .find(|v| std::env::var_os(v).is_some())
    {
        eprintln!("refusing to run: {var} is set and would silently change the configuration");
        exit(2);
    }
    if args.self_check {
        exit(self_check());
    }
    if args.workload == "all" {
        exit(run_all(&args));
    }
    let Some(workload) = Workload::ALL
        .into_iter()
        .find(|w| w.name() == args.workload)
    else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        exit(2);
    };
    exit(run_one(workload, &args));
}

/// A database ready to run a phase on.
enum System {
    Mem {
        db: AsyncDatabase,
        handles: Vec<ObjectHandle>,
        /// The log directory and its size after set-up (`mix_durable`).
        wal: Option<(WorkDir, u64)>,
    },
    Wire(wire::WireSetup),
}

fn build(w: Workload) -> System {
    match w {
        Workload::MixMem | Workload::HotMem => {
            let db = AsyncDatabase::with_config(config::database(None));
            let handles = mem::register_all(db.database());
            System::Mem {
                db,
                handles,
                wal: None,
            }
        }
        Workload::MixDurable => {
            let dir = WorkDir::new("durable");
            let db = AsyncDatabase::with_config(config::database(Some(config::wal(dir.0.clone()))));
            let handles = mem::register_all(db.database());
            let bytes = dir.size_bytes();
            System::Mem {
                db,
                handles,
                wal: Some((dir, bytes)),
            }
        }
        Workload::MixWire => System::Wire(wire::setup(wire::CONNECTIONS)),
    }
}

/// Tear down a set-up that will not run; returns what went wrong.
fn discard(system: System) -> Vec<String> {
    match system {
        System::Mem { .. } => Vec::new(),
        System::Wire(setup) => net_leaks(&setup.shutdown()),
    }
}

fn net_leaks(stats: &sbcc_core::NetStats) -> Vec<String> {
    let mut errors = Vec::new();
    if stats.connections_open != 0 {
        errors.push(format!(
            "server shut down with {} open connections",
            stats.connections_open
        ));
    }
    if stats.transactions_in_flight != 0 {
        errors.push(format!(
            "server shut down with {} transactions in flight",
            stats.transactions_in_flight
        ));
    }
    errors
}

/// What one measured phase left behind.
struct Phase {
    out: Outcome,
    tracer: Option<Tracer>,
    stats: StatsSnapshot,
    cycle_checks: u64,
    errors: Vec<String>,
    /// `mix_durable`: reopen time, commits replayed, log bytes written by
    /// the phase.
    recovery: Option<(f64, u64, u64)>,
}

fn run_phase(w: Workload, system: System, args: &Args, trace: bool) -> Phase {
    let seconds = args.seconds as f64 / REPS as f64;
    match system {
        System::Mem { db, handles, wal } => {
            let (mut out, tracer) =
                mem::run_phase(&db, &handles, args.seed, w.skew(), seconds, trace);
            if args.plant_wrong_state {
                out.ledger.plant_error();
            }
            let ids = ids_of(&handles);
            let mut errors = out.ledger.verify(db.database(), &ids);
            errors.extend(verify_quiescent(db.database()));
            let stats = db.stats_snapshot();
            let cycle_checks = db.database().cycle_checks();
            let recovery = wal.map(|(dir, setup_bytes)| {
                let before = committed_states(db.database(), &ids);
                drop(handles);
                drop(db);
                let bytes = dir.size_bytes().saturating_sub(setup_bytes);
                let start = Instant::now();
                let reopened =
                    Database::try_with_config(config::database(Some(config::wal(dir.0.clone()))));
                let recovery_s = start.elapsed().as_secs_f64();
                match reopened {
                    Ok(db) => {
                        errors.extend(compare_recovered(&db, &before));
                        errors.extend(verify_quiescent(&db));
                        (recovery_s, db.stats().commits, bytes)
                    }
                    Err(e) => {
                        errors.push(format!("reopening the log failed: {e}"));
                        (recovery_s, 0, bytes)
                    }
                }
            });
            Phase {
                out,
                tracer,
                stats,
                cycle_checks,
                errors,
                recovery,
            }
        }
        System::Wire(mut setup) => {
            let (mut out, tracer) =
                wire::run_phase(&mut setup, args.seed, w.skew(), seconds, trace);
            if args.plant_wrong_state {
                out.ledger.plant_error();
            }
            let db = setup.db.clone();
            let ids = ids_of(&setup.handles);
            let mut errors = net_leaks(&setup.shutdown());
            errors.extend(out.ledger.verify(db.database(), &ids));
            errors.extend(verify_quiescent(db.database()));
            Phase {
                out,
                tracer,
                stats: db.stats_snapshot(),
                cycle_checks: db.database().cycle_checks(),
                errors,
                recovery: None,
            }
        }
    }
}

/// After a reopen, every object's committed state must equal its state
/// before shutdown.
fn compare_recovered(db: &Database, before: &[Box<dyn sbcc_adt::SemanticObject>]) -> Vec<String> {
    (0..OBJECTS)
        .filter_map(|i| {
            let name = object_name(i);
            let Some(handle) = db.object_handle(&name) else {
                return Some(format!("{name} is missing after recovery"));
            };
            let same = db.with_sharded_kernel(|k| {
                k.with_object_committed(handle.id(), |o| o.state_eq(before[i].as_ref()))
            });
            (same != Some(true)).then(|| {
                format!(
                    "{name} differs after recovery: was {}",
                    before[i].debug_state()
                )
            })
        })
        .collect()
}

fn run_one(w: Workload, args: &Args) -> i32 {
    let host = report::host_block(w.name(), args.seed, args.seconds, args.trace);
    let mut errors = Vec::new();
    let mut notes = Vec::new();
    let (values, attempted, failed_txns) = if args.trace {
        let primary = build(w);
        let untraced = run_phase(w, primary, args, false);
        let traced = run_phase(w, build(w), args, true);
        let ladder = ladder::run(args.seed, w.skew());
        describe(&untraced, "untraced", &mut notes);
        describe(&traced, "traced", &mut notes);
        write_spans(w, args, &host, traced.tracer.as_ref(), &mut notes);
        let values = per_layer(w, &untraced, &traced, &ladder, &mut notes);
        errors.extend(untraced.errors);
        errors.extend(traced.errors);
        let attempted = untraced.out.issued() + traced.out.issued();
        let failed = untraced.out.update.failed()
            + untraced.out.read.failed()
            + traced.out.update.failed()
            + traced.out.read.failed();
        (values, attempted, failed)
    } else {
        let mut setup_times = Vec::with_capacity(SETUPS_PER_PHASE * REPS);
        let mut columns: [Vec<f64>; 6] = Default::default();
        let (mut attempted, mut failed) = (0, 0);
        for rep in 0..REPS {
            for _ in 0..SETUPS_PER_PHASE {
                let start = Instant::now();
                let system = build(w);
                setup_times.push(start.elapsed().as_secs_f64());
                errors.extend(discard(system));
            }
            let phase = run_phase(w, build(w), args, false);
            describe(&phase, &format!("phase {rep}"), &mut notes);
            for (column, value) in columns.iter_mut().zip(phase.out.figures()) {
                column.push(value);
            }
            attempted += phase.out.issued();
            failed += phase.out.update.failed() + phase.out.read.failed();
            errors.extend(phase.errors);
        }
        notes.push(format!("process VmHWM {:.2} MiB", report::peak_rss_mb()));
        let mut values = vec![report::median(&mut setup_times)];
        values.extend(columns.iter_mut().map(|c| report::median(c)));
        (values, attempted, failed)
    };
    let names: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = names
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
        notes.push(format!("check failed: {e}"));
    }
    let correct = errors.is_empty();
    emit(
        &host,
        &notes,
        &metrics,
        correct,
        attempted,
        failed_txns + errors.len() as u64,
    );
    if correct {
        0
    } else {
        1
    }
}

/// Human-readable facts about a phase, including the metrics that only
/// some workloads have (`txn_fail_frac`, `recovery_s`).
fn describe(phase: &Phase, label: &str, notes: &mut Vec<String>) {
    notes.push(format!("{label}: update {}", phase.out.update.describe()));
    notes.push(format!("{label}: read-only {}", phase.out.read.describe()));
    let out = &phase.out;
    let failed = out.update.failed() + out.read.failed();
    notes.push(format!(
        "{label}: {} issued, {} committed, {failed} failed (txn_fail_frac {:.6}), {:.3} s elapsed \
         of which {:.3} s drain, {} update attempts, {} busy sheds",
        out.issued(),
        out.committed(),
        failed as f64 / out.issued().max(1) as f64,
        out.elapsed_s,
        out.drain_s,
        out.update_attempts,
        out.busy_sheds,
    ));
    notes.push(format!(
        "{label}: {} update and {} read-only transactions issued; {} update samples lie beyond p99",
        out.update.issued(),
        out.read.issued(),
        out.update.issued() / 100,
    ));
    for (kind, n) in &out.failures {
        notes.push(format!("{label}: failure {kind}: {n}"));
    }
    if let Some((recovery_s, commits, bytes)) = phase.recovery {
        notes.push(format!(
            "{label}: recovery_s {recovery_s:.6} s ({commits} commits replayed, {bytes} log bytes)"
        ));
    }
    notes.push(format!(
        "{label}: kernel {}",
        phase.stats.aggregate.summary()
    ));
}

fn per_layer(
    w: Workload,
    untraced: &Phase,
    traced: &Phase,
    ladder: &ladder::Ladder,
    notes: &mut Vec<String>,
) -> Vec<f64> {
    let out = &traced.out;
    let stats = &traced.stats.aggregate;
    let commits = stats.commits.max(1) as f64;
    let span = |name: &str, p: f64| {
        traced
            .tracer
            .as_ref()
            .map_or(0.0, |tr| quantile(&mut tr.durations_us(name), p))
    };
    let (aio_exec_p99, aio_commit_p99, aio_snap_p50) = if w == Workload::MixWire {
        (
            ladder.aio_exec_p99_us,
            ladder.aio_commit_p99_us,
            ladder.aio_snapshot_exec_p50_us,
        )
    } else {
        (
            span("aio.exec", 0.99),
            span("aio.commit", 0.99),
            span("aio.snapshot_exec", 0.5),
        )
    };
    let (net_p50, net_p99, net_commit_p99) = if w == Workload::MixWire {
        (
            span("net.exec", 0.5),
            span("net.exec", 0.99),
            span("net.commit", 0.99),
        )
    } else {
        (
            ladder.net_exec_rtt_p50_us,
            ladder.net_exec_rtt_p99_us,
            ladder.net_commit_rtt_p99_us,
        )
    };
    let (bytes_per_commit, recovery_cps, recovery_s) = match traced.recovery {
        Some((recovery_s, replayed, bytes)) => (
            bytes as f64 / commits,
            replayed as f64 / recovery_s,
            recovery_s,
        ),
        None => (
            ladder.wal_bytes_per_commit,
            ladder.wal_recovery_commits_per_s,
            ladder.wal_recovery_s,
        ),
    };
    let lock_acquisitions: u64 = traced
        .stats
        .shards
        .iter()
        .map(|s| s.lock_acquisitions)
        .sum();
    let (untraced_tps, traced_tps) = (untraced.out.commit_tps(), traced.out.commit_tps());
    notes.push(format!(
        "ladder self time per op: adt {:.1} ns, kernel {:.1} ns, shard {:.1} ns, db {:.1} ns, \
         aio {:.1} ns, net {:.1} ns",
        ladder.adt_ns,
        ladder.kernel_ns - ladder.adt_ns,
        ladder.shard_ns - ladder.kernel_ns,
        ladder.db_ns - ladder.shard_ns,
        ladder.aio_ns - ladder.db_ns,
        ladder.net_ns - ladder.aio_ns,
    ));
    notes.push(format!(
        "commit_tps untraced {untraced_tps:.1}/s, traced {traced_tps:.1}/s"
    ));
    vec![
        ladder.adt_ns,
        ladder.kernel_ns,
        ladder.shard_ns,
        ladder.db_ns,
        ladder.aio_ns,
        ladder.net_ns,
        ladder.wal_commit_us,
        aio_exec_p99,
        aio_commit_p99,
        aio_snap_p50,
        out.update_attempts as f64 / out.update.issued().max(1) as f64,
        out.version_depth_max as f64,
        stats.versions_pruned as f64,
        stats.aborts_ssi as f64,
        stats.scheduler_aborts() as f64 / commits,
        stats.blocks as f64 / commits,
        out.committed_update_ops as f64 / stats.operations_executed.max(1) as f64,
        stats.commit_dependencies as f64 / commits,
        stats.pseudo_commits as f64 / commits,
        traced.cycle_checks as f64 / commits,
        stats.graph_edges as f64 / commits,
        traced.stats.reorder.violations as f64,
        traced.stats.reorder.slow_path_allocs as f64,
        lock_acquisitions as f64 / commits,
        net_p50,
        net_p99,
        net_commit_p99,
        out.busy_sheds as f64,
        bytes_per_commit,
        recovery_cps,
        recovery_s,
        (out.update.failed() + out.read.failed() + traced.errors.len() as u64) as f64
            / out.issued().max(1) as f64,
        (untraced_tps - traced_tps) / untraced_tps,
    ]
}

/// Spans kept in memory during the traced phase, written out at the end
/// (the first `MAX_SPANS_WRITTEN`, to bound the file).
const MAX_SPANS_WRITTEN: usize = 200_000;

fn write_spans(
    w: Workload,
    args: &Args,
    host: &str,
    tracer: Option<&Tracer>,
    notes: &mut Vec<String>,
) {
    let Some(tracer) = tracer else { return };
    let spans = tracer.spans();
    let dir = std::path::Path::new(".txnbench_out");
    let path = dir.join(format!("spans-{}-seed{}.csv", w.name(), args.seed));
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(file, "# {host}")?;
        writeln!(file, "index,name,start_ns,end_ns,parent,txn")?;
        for (i, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let parent = if s.parent == report::ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                file,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.txn
            )?;
        }
        file.flush()
    });
    match result {
        Ok(()) => notes.push(format!(
            "{} spans recorded, {} written to {}",
            spans.len(),
            spans.len().min(MAX_SPANS_WRITTEN),
            path.display()
        )),
        Err(e) => notes.push(format!("writing spans to {} failed: {e}", path.display())),
    }
}

/// Run every workload, each in a fresh process, relaying their reports.
fn run_all(args: &Args) -> i32 {
    let mut status = 0;
    for w in Workload::ALL {
        let child = child_run(w, args.seed, args.seconds, args.trace, false);
        print!("{}", child.stdout);
        let _ = std::io::stdout().flush();
        if child.code != 0 {
            eprintln!("{}: exit code {}", w.name(), child.code);
            status = 1;
        }
    }
    status
}

struct ChildRun {
    code: i32,
    stdout: String,
}

fn child_run(w: Workload, seed: u64, seconds: u64, trace: bool, plant: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if plant {
        cmd.arg("--plant-wrong-state");
    }
    let output = cmd.output().expect("run the benchmark as a child process");
    ChildRun {
        code: output.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
    }
}

/// The benchmark's own check: a short run of each workload emits every
/// named metric and passes its output checks, and a planted wrong
/// expectation makes the checker fail.
fn self_check() -> i32 {
    let mut problems = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            let child = child_run(w, 7, 1, trace, false);
            let last = child.stdout.lines().last().unwrap_or_default().to_owned();
            let label = format!("{} --trace {}", w.name(), u8::from(trace));
            if child.code != 0 || !last.contains("\"correct\": true") {
                problems.push(format!("{label}: exit {} with result {last}", child.code));
            }
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in names {
                let entry = format!("\"{name}\": {{\"value\": ");
                let unit = format!("\"unit\": \"{unit}\"");
                if !last.contains(&entry) || !last.contains(&unit) {
                    problems.push(format!("{label}: metric {name} missing"));
                }
            }
            println!("self-check {label}: exit {}", child.code);
        }
    }
    let planted = child_run(Workload::MixMem, 7, 1, false, true);
    let last = planted.stdout.lines().last().unwrap_or_default();
    if planted.code == 0 || !last.contains("\"correct\": false") {
        problems.push(format!(
            "a planted wrong expected state was not caught: exit {}, result {last}",
            planted.code
        ));
    }
    println!("self-check planted wrong state: exit {}", planted.code);
    if let Ok(spec) = std::fs::read_to_string("BENCHMARK.json") {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if !spec.contains(&format!("\"name\": \"{name}\"")) {
                problems.push(format!("BENCHMARK.json does not declare {name}"));
            }
        }
    }
    for p in &problems {
        eprintln!("SELF-CHECK FAILED: {p}");
    }
    println!(
        "self-check: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    i32::from(!problems.is_empty())
}
