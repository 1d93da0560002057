//! The layer ladder: the first K generated transactions replayed serially
//! (one terminal, no contention) through each module's public entry
//! point. A layer's self time is its rung minus the rung below it:
//!
//! `AdtSpec::apply` → `SchedulerKernel` → `ShardedKernel` → sync
//! `Database` → `AsyncDatabase` on `LocalExecutor` → `NetClient` over
//! loopback; the WAL rung calls `Wal::append_commit` + `wait_durable`
//! directly.

use crate::config::{self, WorkDir};
use crate::gen::{first_txns, object_name, Skew, TxnSpec, OBJECTS};
use crate::mem::{new_object, register_all, replay_serial};
use crate::report::{median, quantile};
use crate::wire;
use sbcc_adt::{AdtSpec, Counter, FifoQueue, OpResult, Set, Stack, TableObject};
use sbcc_core::aio::AsyncDatabase;
use sbcc_core::wal::{LoggedOp, Wal};
use sbcc_core::{Database, SchedulerKernel, ShardedKernel};
use std::hint::black_box;
use std::time::Instant;

/// Transactions replayed on every rung.
const K: usize = 1000;
/// Update transactions the WAL rung commits (each waits out a
/// group-commit window, so fewer).
const K_WAL: usize = 200;
/// Repetitions of each in-memory rung; the median is reported.
const REPS: usize = 5;

#[derive(Debug, Default)]
pub struct Ladder {
    pub adt_ns: f64,
    pub kernel_ns: f64,
    pub shard_ns: f64,
    pub db_ns: f64,
    pub aio_ns: f64,
    pub net_ns: f64,
    pub wal_commit_us: f64,
    pub aio_exec_p99_us: f64,
    pub aio_commit_p99_us: f64,
    pub aio_snapshot_exec_p50_us: f64,
    pub net_exec_rtt_p50_us: f64,
    pub net_exec_rtt_p99_us: f64,
    pub net_commit_rtt_p99_us: f64,
    pub wal_bytes_per_commit: f64,
    pub wal_recovery_s: f64,
    pub wal_recovery_commits_per_s: f64,
}

pub fn run(seed: u64, skew: Skew) -> Ladder {
    let txns = first_txns(seed, skew, K);
    let ops: usize = txns.iter().map(|t| t.ops.len()).sum();
    let per_op = |secs: f64| secs * 1e9 / ops as f64;
    let rung = |f: &dyn Fn() -> f64| {
        let mut samples: Vec<f64> = (0..REPS).map(|_| per_op(f())).collect();
        median(&mut samples)
    };
    let mut ladder = Ladder {
        adt_ns: rung(&|| adt_rung(&txns).0),
        kernel_ns: rung(&|| kernel_rung(&txns)),
        shard_ns: rung(&|| shard_rung(&txns)),
        db_ns: rung(&|| db_rung(&txns)),
        ..Ladder::default()
    };
    let mut aio = Vec::new();
    for _ in 0..REPS {
        let db = AsyncDatabase::with_config(config::database(None));
        let handles = register_all(db.database());
        let (out, tracer) = replay_serial(&db, &handles, txns.clone());
        assert_eq!(
            out.committed(),
            K as u64,
            "serial replay commits every transaction"
        );
        aio.push(per_op(out.elapsed_s));
        if aio.len() == REPS {
            let tracer = tracer.expect("serial replay is traced");
            ladder.aio_exec_p99_us = quantile(&mut tracer.durations_us("aio.exec"), 0.99);
            ladder.aio_commit_p99_us = quantile(&mut tracer.durations_us("aio.commit"), 0.99);
            ladder.aio_snapshot_exec_p50_us =
                quantile(&mut tracer.durations_us("aio.snapshot_exec"), 0.5);
        }
    }
    ladder.aio_ns = median(&mut aio);
    net_rung(&txns, &mut ladder);
    let results = adt_rung(&txns).1;
    wal_rung(&txns, &results, &mut ladder);
    ladder
}

/// Typed state for every object, indexed like the database's objects.
struct Plain {
    stacks: Vec<Stack>,
    queues: Vec<FifoQueue>,
    sets: Vec<Set>,
    tables: Vec<TableObject>,
    counters: Vec<Counter>,
}

fn adt_rung(txns: &[TxnSpec]) -> (f64, Vec<Vec<OpResult>>) {
    use crate::gen::{TypedOp, PER_KIND};
    let n = PER_KIND;
    let mut s = Plain {
        stacks: vec![Stack::new(); n],
        queues: vec![FifoQueue::new(); n],
        sets: vec![Set::new(); n],
        tables: vec![TableObject::new(); n],
        counters: vec![Counter::new(); n],
    };
    let start = Instant::now();
    let results: Vec<Vec<OpResult>> = txns
        .iter()
        .map(|txn| {
            txn.ops
                .iter()
                .map(|op| {
                    let i = op.object % n;
                    black_box(match &op.typed {
                        TypedOp::Stack(o) => s.stacks[i].apply(o),
                        TypedOp::Queue(o) => s.queues[i].apply(o),
                        TypedOp::Set(o) => s.sets[i].apply(o),
                        TypedOp::Table(o) => s.tables[i].apply(o),
                        TypedOp::Counter(o) => s.counters[i].apply(o),
                    })
                })
                .collect()
        })
        .collect();
    (start.elapsed().as_secs_f64(), results)
}

fn kernel_rung(txns: &[TxnSpec]) -> f64 {
    let mut kernel = SchedulerKernel::new(config::scheduler());
    let ids: Vec<_> = (0..OBJECTS)
        .map(|i| {
            kernel
                .register_object(object_name(i), new_object(i))
                .expect("object names are unique")
        })
        .collect();
    let start = Instant::now();
    for txn in txns {
        let t = kernel.begin();
        for op in &txn.ops {
            let outcome = kernel
                .request(t, ids[op.object], op.call.clone())
                .expect("serial request");
            assert!(outcome.is_executed(), "an uncontended request executes");
        }
        black_box(kernel.commit(t).expect("serial commit"));
        black_box(kernel.drain_events());
    }
    start.elapsed().as_secs_f64()
}

fn shard_rung(txns: &[TxnSpec]) -> f64 {
    let kernel = ShardedKernel::new(config::database(None));
    let objects: Vec<_> = (0..OBJECTS)
        .map(|i| {
            kernel
                .register_object(object_name(i), new_object(i))
                .expect("object names are unique")
        })
        .collect();
    let start = Instant::now();
    for txn in txns {
        let t = if txn.read_only {
            kernel.begin_snapshot().0
        } else {
            kernel.begin()
        };
        for op in &txn.ops {
            let (id, loc) = objects[op.object];
            let snapshot = if txn.read_only {
                kernel
                    .snapshot_read(t, loc, &op.call)
                    .expect("snapshot read")
            } else {
                None
            };
            if snapshot.is_none() {
                let outcome = kernel
                    .request(t, id, op.call.clone())
                    .expect("serial request");
                assert!(outcome.is_executed(), "an uncontended request executes");
            }
        }
        black_box(kernel.commit(t).expect("serial commit"));
        black_box(kernel.drain_events());
    }
    start.elapsed().as_secs_f64()
}

fn db_rung(txns: &[TxnSpec]) -> f64 {
    let db = Database::with_config(config::database(None));
    let handles = register_all(&db);
    let start = Instant::now();
    for txn in txns {
        let t = if txn.read_only {
            db.begin_snapshot()
        } else {
            db.begin()
        };
        for op in &txn.ops {
            black_box(
                t.exec_call(&handles[op.object], op.call.clone())
                    .expect("serial exec"),
            );
        }
        black_box(t.commit().expect("serial commit"));
    }
    start.elapsed().as_secs_f64()
}

/// One blocking connection, one request per round trip.
fn net_rung(txns: &[TxnSpec], ladder: &mut Ladder) {
    let mut setup = wire::setup(1);
    let client = &mut setup.clients[0];
    let (mut exec_us, mut commit_us) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for txn in txns {
        let t = if txn.read_only {
            client.begin_snapshot()
        } else {
            client.begin()
        }
        .expect("serial begin");
        for op in &txn.ops {
            let sent = Instant::now();
            black_box(
                client
                    .exec(t, &object_name(op.object), op.call.clone())
                    .expect("serial exec"),
            );
            exec_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        let sent = Instant::now();
        client.commit(t).expect("serial commit");
        commit_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ops = exec_us.len() as f64;
    ladder.net_ns = elapsed * 1e9 / ops;
    ladder.net_exec_rtt_p50_us = quantile(&mut exec_us, 0.5);
    ladder.net_exec_rtt_p99_us = quantile(&mut exec_us, 0.99);
    ladder.net_commit_rtt_p99_us = quantile(&mut commit_us, 0.99);
    let stats = setup.shutdown();
    assert_eq!(stats.connections_open, 0, "net rung leaked a connection");
    assert_eq!(
        stats.transactions_in_flight, 0,
        "net rung leaked a transaction"
    );
}

/// Commit records for the first `K_WAL` update transactions, each
/// appended and waited on before the next.
fn wal_rung(txns: &[TxnSpec], results: &[Vec<OpResult>], ladder: &mut Ladder) {
    let dir = WorkDir::new("ladder-wal");
    let wal_config = config::wal(dir.0.clone());
    let updates: Vec<(&TxnSpec, &Vec<OpResult>)> = txns
        .iter()
        .zip(results)
        .filter(|(t, _)| !t.read_only)
        .take(K_WAL)
        .collect();
    let records: Vec<Vec<LoggedOp>> = updates
        .iter()
        .map(|(txn, res)| {
            txn.ops
                .iter()
                .zip(res.iter())
                .map(|(op, r)| LoggedOp {
                    object: object_name(op.object),
                    call: op.call.clone(),
                    result: r.clone(),
                })
                .collect()
        })
        .collect();
    {
        let (wal, replay) = Wal::open(&wal_config, 1, None).expect("open a fresh log");
        assert!(replay.is_empty(), "a fresh log has nothing to replay");
        let start = Instant::now();
        for ops in &records {
            let ticket = wal.append_commit(0, None, ops);
            wal.wait_durable(0, ticket);
        }
        ladder.wal_commit_us = start.elapsed().as_secs_f64() * 1e6 / records.len() as f64;
    }
    ladder.wal_bytes_per_commit = dir.size_bytes() as f64 / records.len() as f64;
    let start = Instant::now();
    let (wal, replay) = Wal::open(&wal_config, 1, None).expect("reopen the log");
    ladder.wal_recovery_s = start.elapsed().as_secs_f64();
    drop(wal);
    let commits = replay
        .iter()
        .filter(|r| matches!(r.record, sbcc_core::wal::WalRecord::Commit { .. }))
        .count();
    assert_eq!(commits, records.len(), "every appended commit is recovered");
    ladder.wal_recovery_commits_per_s = commits as f64 / ladder.wal_recovery_s;
}
