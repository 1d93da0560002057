//! Differential tests for the multi-version snapshot-read path.
//!
//! House-style oracle: **snapshot-blocking equivalence**. A read served
//! by [`Database::begin_snapshot`]'s versioned, non-blocking path must
//! return exactly what the classified blocking path returns on the same
//! committed state — same per-operation results, same transaction fates,
//! same final committed object states, same transaction-lifecycle
//! counters — at shard counts 1 and 4. On top of the equivalence, a
//! snapshot held open across later commits must keep reading its begin
//! stamp (stability), the version store must drain once the last
//! snapshot closes (GC), and the pinned write-skew schedule — invisible
//! to each snapshot alone, non-serializable in combination — must be
//! refused by the SSI rw-antidependency guard.
//!
//! A second oracle covers SSI **retirement** (committed records dropped
//! once every live transaction began after them): interleaved random
//! schedules run once as they are and once under an idle classified
//! *anchor* that pins the retirement watermark at 0, so nothing retires.
//! Every decision must match, and the record count must stay bounded by
//! the live window on a database that never quiesces.

use proptest::prelude::*;
use sbcc_adt::{
    AdtObject, AdtOp, Counter, CounterOp, OpCall, Page, PageOp, Set, SetOp, Stack, StackOp,
    TableObject, TableOp, Value,
};
use sbcc_core::{
    shard_of_name, AbortReason, CommitOutcome, CoreError, Database, DatabaseConfig,
    KernelStats, ObjectHandle, RequestOutcome, SchedulerConfig, ShardCount, Transaction,
    TxnId, TxnState,
};

const N_OBJECTS: usize = 5;

fn config(shards: usize) -> DatabaseConfig {
    DatabaseConfig {
        scheduler: SchedulerConfig::default(),
        shards: ShardCount::Fixed(shards),
        wal: None,
    }
}

fn object_names() -> Vec<String> {
    vec![
        "stack".to_owned(),
        "set".to_owned(),
        "counter".to_owned(),
        "table".to_owned(),
        "page".to_owned(),
    ]
}

fn register_all(db: &Database) -> Vec<ObjectHandle> {
    vec![
        db.register_object("stack", Box::new(AdtObject::new(Stack::new()))).unwrap(),
        db.register_object("set", Box::new(AdtObject::new(Set::new()))).unwrap(),
        db.register_object("counter", Box::new(AdtObject::new(Counter::new()))).unwrap(),
        db.register_object("table", Box::new(AdtObject::new(TableObject::new()))).unwrap(),
        db.register_object("page", Box::new(AdtObject::new(Page::new()))).unwrap(),
    ]
}

/// The fixed read-only probe both read paths answer at every read point.
fn probe_calls() -> Vec<(usize, OpCall)> {
    vec![
        (0, StackOp::Top.to_call()),
        (1, SetOp::Member(Value::Int(0)).to_call()),
        (1, SetOp::Member(Value::Int(2)).to_call()),
        (2, CounterOp::Read.to_call()),
        (3, TableOp::Lookup(Value::Int(1)).to_call()),
        (3, TableOp::Size.to_call()),
        (4, PageOp::Read.to_call()),
    ]
}

/// Run the probe inside an already-open transaction (snapshot or
/// classified — `exec_call` routes each read to the right path).
fn probe_with(txn: &Transaction, handles: &[ObjectHandle]) -> Vec<String> {
    probe_calls()
        .into_iter()
        .map(|(o, call)| format!("{}", txn.exec_call(&handles[o], call).unwrap()))
        .collect()
}

/// One committed-state digest per object.
fn digests(db: &Database) -> Vec<Option<String>> {
    digests_of(db, &object_names())
}

fn digests_of(db: &Database, names: &[String]) -> Vec<Option<String>> {
    names
        .iter()
        .map(|name| {
            db.with_sharded_kernel(|k| {
                k.object_id(name)
                    .and_then(|id| k.with_object_committed(id, |o| o.debug_state()))
            })
        })
        .collect()
}

/// Commit one writer script as a single transaction. The driver is
/// sequential (one live writer at a time), so every call executes
/// immediately and every commit is an actual commit.
fn run_writer(db: &Database, handles: &[ObjectHandle], script: &[(usize, OpCall)]) {
    let txn = db.begin();
    for (o, call) in script {
        txn.exec_call(&handles[*o], call.clone()).unwrap();
    }
    assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);
}

/// The transaction-lifecycle counters both read paths must agree on.
/// Operation-level counters legitimately differ: classified probes count
/// `requests`/`operations_executed`, snapshot probes count
/// `snapshot_reads` instead.
fn lifecycle(stats: &KernelStats) -> [u64; 8] {
    [
        stats.transactions_begun,
        stats.commits,
        stats.pseudo_commits,
        stats.commit_dependencies,
        stats.aborts_deadlock,
        stats.aborts_commit_cycle,
        stats.aborts_victim,
        stats.aborts_explicit,
    ]
}

/// Drive the workload with **classified blocking** read points.
fn run_blocking(
    scripts: &[Vec<(usize, OpCall)>],
    shards: usize,
) -> (Vec<Vec<String>>, Vec<Option<String>>, KernelStats) {
    let db = Database::with_config(config(shards));
    let handles = register_all(&db);
    let mut probes = Vec::new();
    for script in scripts {
        let reader = db.begin();
        probes.push(probe_with(&reader, &handles));
        assert_eq!(reader.commit().unwrap(), CommitOutcome::Committed);
        run_writer(&db, &handles, script);
    }
    let reader = db.begin();
    probes.push(probe_with(&reader, &handles));
    assert_eq!(reader.commit().unwrap(), CommitOutcome::Committed);
    db.verify_serializable().unwrap();
    (probes, digests(&db), db.stats())
}

/// Drive the same workload with **snapshot** read points, holding every
/// snapshot open until the end so later commits stack versions on top of
/// each begin stamp.
fn run_snapshot(
    scripts: &[Vec<(usize, OpCall)>],
    shards: usize,
) -> (Vec<Vec<String>>, Vec<Option<String>>, KernelStats) {
    let db = Database::with_config(config(shards));
    let handles = register_all(&db);
    let mut probes = Vec::new();
    let mut open: Vec<(Transaction, Vec<String>)> = Vec::new();
    for script in scripts {
        let snap = db.begin_snapshot();
        assert!(snap.snapshot_stamp().is_some());
        let seen = probe_with(&snap, &handles);
        probes.push(seen.clone());
        open.push((snap, seen));
        run_writer(&db, &handles, script);
    }
    let snap = db.begin_snapshot();
    probes.push(probe_with(&snap, &handles));
    assert_eq!(snap.commit().unwrap(), CommitOutcome::Committed);

    // Stability: every held snapshot still reads its begin stamp, no
    // matter how many commits have landed since, and — being read-only —
    // commits without tripping the SSI guard.
    for (snap, seen) in open {
        assert_eq!(probe_with(&snap, &handles), seen, "snapshot reads drifted");
        assert_eq!(snap.commit().unwrap(), CommitOutcome::Committed);
    }

    // GC: with the last snapshot closed nothing can need old versions;
    // a sweep drains the version store completely.
    assert_eq!(db.oldest_snapshot_stamp(), None);
    db.prune_versions();
    assert_eq!(db.version_depth(), 0, "version store must drain after GC");
    db.verify_serializable().unwrap();
    (probes, digests(&db), db.stats())
}

fn arb_call_for(object: usize) -> BoxedStrategy<OpCall> {
    match object {
        0 => prop_oneof![
            (0i64..5).prop_map(|v| StackOp::Push(Value::Int(v)).to_call()),
            Just(StackOp::Pop.to_call()),
            Just(StackOp::Top.to_call()),
        ]
        .boxed(),
        1 => prop_oneof![
            (0i64..4).prop_map(|v| SetOp::Insert(Value::Int(v)).to_call()),
            (0i64..4).prop_map(|v| SetOp::Delete(Value::Int(v)).to_call()),
            (0i64..4).prop_map(|v| SetOp::Member(Value::Int(v)).to_call()),
        ]
        .boxed(),
        2 => prop_oneof![
            (1i64..5).prop_map(|v| CounterOp::Increment(v).to_call()),
            (1i64..5).prop_map(|v| CounterOp::Decrement(v).to_call()),
            Just(CounterOp::Read.to_call()),
        ]
        .boxed(),
        3 => prop_oneof![
            (0i64..4, 0i64..50)
                .prop_map(|(k, v)| TableOp::Insert(Value::Int(k), Value::Int(v)).to_call()),
            (0i64..4).prop_map(|k| TableOp::Delete(Value::Int(k)).to_call()),
            (0i64..4).prop_map(|k| TableOp::Lookup(Value::Int(k)).to_call()),
        ]
        .boxed(),
        _ => prop_oneof![
            Just(PageOp::Read.to_call()),
            (0i64..10).prop_map(|v| PageOp::Write(Value::Int(v)).to_call()),
        ]
        .boxed(),
    }
}

fn arb_scripts() -> impl Strategy<Value = Vec<Vec<(usize, OpCall)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0..N_OBJECTS).prop_flat_map(|o| arb_call_for(o).prop_map(move |c| (o, c))),
            1..6,
        ),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property, at 1 **and** 4 shards: snapshot read
    /// points produce exactly the blocking path's results, the same
    /// final committed states, and the same transaction lifecycle.
    #[test]
    fn snapshot_reads_equal_blocking_reads(scripts in arb_scripts()) {
        let mut per_shard = Vec::new();
        for shards in [1usize, 4] {
            let (probes_b, digests_b, stats_b) = run_blocking(&scripts, shards);
            let (probes_s, digests_s, stats_s) = run_snapshot(&scripts, shards);
            prop_assert_eq!(
                &probes_b, &probes_s,
                "per-operation read results diverge at {} shard(s)", shards
            );
            prop_assert_eq!(
                &digests_b, &digests_s,
                "final committed states diverge at {} shard(s)", shards
            );
            prop_assert_eq!(
                lifecycle(&stats_b), lifecycle(&stats_s),
                "transaction lifecycles diverge at {} shard(s)", shards
            );
            // Read-only snapshots over a sequential writer schedule can
            // never complete a dangerous structure.
            prop_assert_eq!(stats_s.aborts_ssi, 0);
            prop_assert_eq!(stats_b.snapshot_reads, 0, "blocking run uses no snapshots");
            // Every probe answered by the versioned path: initial pass
            // plus the stability re-probe of each held snapshot.
            let expected = (probe_calls().len() * (2 * scripts.len() + 1)) as u64;
            prop_assert_eq!(stats_s.snapshot_reads, expected);
            per_shard.push((probes_s, digests_s));
        }
        // Sharding is invisible to a sequential schedule on both paths.
        let (p1, d1) = &per_shard[0];
        let (p4, d4) = &per_shard[1];
        prop_assert_eq!(p1, p4, "results diverge between 1 and 4 shards");
        prop_assert_eq!(d1, d4, "states diverge between 1 and 4 shards");
    }
}

// ---------------------------------------------------------------------
// Retirement oracle: interleaved schedules with and without an anchor
// ---------------------------------------------------------------------

/// Concurrent session slots of an interleaved schedule.
const SLOTS: usize = 3;

/// One step of an interleaved single-threaded schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Submit one operation without blocking, first beginning a session
    /// (a snapshot one if `snapshot`) when the slot is empty.
    Op {
        slot: usize,
        snapshot: bool,
        object: usize,
        call: OpCall,
    },
    Commit(usize),
    Abort(usize),
}

/// The interleaved schedules run on three counters and a set: counter
/// updates commute and snapshot reads never block, so the SSI guard —
/// not blocking — decides most conflicts, and rw-antidependencies and
/// dangerous structures are common.
fn interleaved_names() -> Vec<String> {
    ["counter", "set", "x", "y"].map(str::to_owned).to_vec()
}

fn register_interleaved(db: &Database) -> Vec<ObjectHandle> {
    let mut handles = vec![
        db.register_object("counter", Box::new(AdtObject::new(Counter::new())))
            .unwrap(),
        db.register_object("set", Box::new(AdtObject::new(Set::new())))
            .unwrap(),
    ];
    for name in ["x", "y"] {
        handles.push(
            db.register_object(name, Box::new(AdtObject::new(Counter::new())))
                .unwrap(),
        );
    }
    handles
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Two of every three sessions are snapshots; most steps are
    // operations, and half of the counter operations are reads.
    (0u8..16, 0..SLOTS, 0u8..3, 0..4usize).prop_flat_map(|(kind, slot, flavour, object)| {
        let snapshot = flavour != 0;
        let calls = if object == 1 {
            arb_call_for(1)
        } else {
            prop_oneof![
                Just(CounterOp::Read.to_call()),
                (1i64..5).prop_map(|v| CounterOp::Increment(v).to_call()),
            ]
            .boxed()
        };
        calls.prop_map(move |call| match kind {
            0..=11 => Step::Op {
                slot,
                snapshot,
                object,
                call,
            },
            12..=14 => Step::Commit(slot),
            _ => Step::Abort(slot),
        })
    })
}

fn arb_schedule() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(arb_step(), 4..48)
}

/// A live session of the interpreter: the guard plus whether a
/// non-blocking submission left a request pending in the kernel.
struct Session {
    txn: Transaction,
    snapshot: bool,
    pending: bool,
}

fn render_request(outcome: Result<RequestOutcome, CoreError>) -> String {
    match outcome {
        Ok(RequestOutcome::Executed {
            result,
            commit_deps,
        }) => {
            format!("ok {result} deps={commit_deps:?}")
        }
        Ok(other) => format!("{other:?}"),
        Err(e) => format!("err {e}"),
    }
}

/// Whether a session survives the outcome it just produced.
fn survives(rendered: &str) -> bool {
    !(rendered.starts_with("err") || rendered.starts_with("Aborted"))
}

/// Settle a session's pending request if the kernel has decided it.
/// Returns the rendered outcome, or `None` while it is still blocked.
fn try_settle(db: &Database, session: &mut Session) -> Option<String> {
    if db.txn_state(session.txn.id()) == Some(TxnState::Blocked) {
        return None;
    }
    session.pending = false;
    Some(match session.txn.settle_pending() {
        Ok(result) => format!("settled {result}"),
        Err(e) => format!("err {e}"),
    })
}

/// What one run of an interleaved schedule decided.
#[derive(Debug, PartialEq)]
struct Decisions {
    per_step: Vec<String>,
    fates: Vec<Option<TxnState>>,
    digests: Vec<Option<String>>,
    stats: KernelStats,
}

/// Interpret `schedule` on one thread with non-blocking submissions. A
/// rolling idle classified *keeper* (each begun before the previous one
/// ends) keeps the database from quiescing, so the SSI gate never closes
/// mid-schedule and the two runs below differ in the anchor alone.
///
/// With `anchor`, an idle classified transaction is begun first (while
/// SSI is dormant, so it has no record and pins the retirement watermark
/// at 0) and aborted last; without it, the same id is consumed by a
/// transaction aborted at once, so transaction ids line up between runs.
/// One write commits before it, so every commit stamp the schedule
/// produces is above the pinned watermark.
fn run_interleaved(schedule: &[Step], shards: usize, anchor: bool) -> Decisions {
    let db = Database::with_config(config(shards));
    let handles = register_interleaved(&db);
    run_writer(&db, &handles, &[(0, CounterOp::Increment(1).to_call())]);
    let first = db.begin();
    let anchor_txn = if anchor {
        Some(first)
    } else {
        first.abort().unwrap();
        None
    };
    let mut keeper = db.begin();
    let mut slots: Vec<Option<Session>> = (0..SLOTS).map(|_| None).collect();
    let mut begun: Vec<TxnId> = Vec::new();
    let mut per_step = Vec::new();
    // Whether some snapshot has committed, and whether a later step then
    // began with every slot empty. At that step the new keeper begins
    // after the snapshot's commit and the old one's abort claims with no
    // older live transaction, so without the anchor the snapshot's record
    // must retire there, before the schedule ends.
    let mut snapshot_committed = false;
    let mut must_retire = false;
    for step in schedule {
        must_retire |= snapshot_committed && slots.iter().all(Option::is_none);
        // The next keeper begins before the previous one drops (aborts).
        keeper = db.begin();
        if let Step::Op { slot, snapshot, .. } = step {
            if slots[*slot].is_none() {
                let txn = if *snapshot {
                    db.begin_snapshot()
                } else {
                    db.begin()
                };
                begun.push(txn.id());
                slots[*slot] = Some(Session {
                    txn,
                    snapshot: *snapshot,
                    pending: false,
                });
            }
        }
        let rendered = match step {
            Step::Op {
                slot, object, call, ..
            } => match slots[*slot].as_mut() {
                None => unreachable!("begun above"),
                Some(session) if session.pending => {
                    try_settle(&db, session).unwrap_or_else(|| "blocked".to_owned())
                }
                Some(session) => {
                    let outcome = session.txn.try_exec_call(&handles[*object], call.clone());
                    session.pending = matches!(outcome, Ok(RequestOutcome::Blocked { .. }));
                    render_request(outcome)
                }
            },
            Step::Commit(slot) => match slots[*slot].as_mut() {
                None => "idle".to_owned(),
                Some(session) if session.pending => {
                    try_settle(&db, session).unwrap_or_else(|| "blocked".to_owned())
                }
                Some(_) => {
                    let session = slots[*slot].take().expect("matched above");
                    let outcome = session.txn.commit();
                    snapshot_committed |=
                        session.snapshot && matches!(outcome, Ok(CommitOutcome::Committed));
                    format!("{outcome:?}")
                }
            },
            Step::Abort(slot) => match slots[*slot].take() {
                None => "idle".to_owned(),
                Some(session) => format!("{:?}", session.txn.abort()),
            },
        };
        if let Step::Op { slot, .. } | Step::Commit(slot) = step {
            if !survives(&rendered) {
                slots[*slot] = None;
            }
        }
        per_step.push(rendered);
    }
    if !anchor && must_retire {
        assert!(
            db.stats().ssi_retired > 0,
            "a committed snapshot's record outlived every transaction live at its commit"
        );
    }
    // Drain: settle and commit whatever can finish; when only blocked
    // sessions remain, abort the first of them.
    while slots.iter().any(Option::is_some) {
        let mut progressed = false;
        for entry in slots.iter_mut() {
            let Some(session) = entry.as_mut() else {
                continue;
            };
            if session.pending {
                let Some(rendered) = try_settle(&db, session) else {
                    continue;
                };
                let alive = survives(&rendered);
                per_step.push(rendered);
                if !alive {
                    *entry = None;
                    progressed = true;
                    continue;
                }
            }
            let session = entry.take().expect("live session");
            per_step.push(format!("{:?}", session.txn.commit()));
            progressed = true;
        }
        if !progressed {
            let session = slots
                .iter_mut()
                .find_map(Option::take)
                .expect("a live session");
            per_step.push(format!("{:?}", session.txn.abort()));
        }
    }
    drop(keeper);
    if let Some(anchor_txn) = anchor_txn {
        assert_eq!(
            db.stats().ssi_retired,
            0,
            "the anchor pins the watermark: nothing may retire"
        );
        anchor_txn.abort().unwrap();
    }
    db.verify_serializable().unwrap();
    let mut stats = db.stats();
    stats.ssi_records = 0;
    stats.ssi_retired = 0;
    Decisions {
        per_step,
        fates: begun.iter().map(|t| db.txn_state(*t)).collect(),
        digests: digests_of(&db, &interleaved_names()),
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Retirement changes no SSI decision, at 1 and 4 shards: with and
    /// without the anchor every step returns the same outcome, every
    /// transaction meets the same fate, and the final committed states
    /// and every kernel counter (the SSI record gauge and retirement
    /// counter aside) agree.
    #[test]
    fn retirement_changes_no_decision(schedule in arb_schedule()) {
        for shards in [1usize, 4] {
            let retiring = run_interleaved(&schedule, shards, false);
            let pinned = run_interleaved(&schedule, shards, true);
            prop_assert_eq!(
                &retiring, &pinned,
                "retirement changed a decision at {} shard(s)", shards
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pinned scenarios (deterministic)
// ---------------------------------------------------------------------

/// Two counter names guaranteed to land on distinct shards of a
/// `shards`-way kernel (any names work at 1 shard).
fn names_on_distinct_shards(shards: usize) -> (String, String) {
    let a = "x0".to_string();
    let sa = shard_of_name(&a, shards);
    let mut i = 1;
    loop {
        let b = format!("x{i}");
        if shards == 1 || shard_of_name(&b, shards) != sa {
            return (a, b);
        }
        i += 1;
    }
}

/// A stream of committing background transactions that keeps the
/// database from quiescing: each [`Background::tick`] begins the next one
/// (an increment of its own counter, commuting with every other) before
/// committing the previous one, so some transaction is always live while
/// the commit clock keeps moving and SSI records keep retiring.
struct Background {
    db: Database,
    counter: ObjectHandle,
    live: Option<Transaction>,
    commits: u64,
}

impl Background {
    fn new(db: &Database) -> Self {
        let counter = db
            .register_object("background", Box::new(AdtObject::new(Counter::new())))
            .unwrap();
        let mut background = Background {
            db: db.clone(),
            counter,
            live: None,
            commits: 0,
        };
        background.tick();
        background
    }

    fn tick(&mut self) {
        let next = self.db.begin();
        next.exec_call(&self.counter, CounterOp::Increment(1).to_call())
            .unwrap();
        if let Some(previous) = self.live.replace(next) {
            assert_eq!(previous.commit().unwrap(), CommitOutcome::Committed);
            self.commits += 1;
        }
    }

    /// Commit the last background transaction; returns the commit count.
    fn finish(mut self) -> u64 {
        let last = self.live.take().expect("a background transaction is live");
        assert_eq!(last.commit().unwrap(), CommitOutcome::Committed);
        self.commits + 1
    }
}

/// The SSI litmus test: classic write skew. T1 snapshot-reads `x` and
/// writes `y`; T2 snapshot-reads `y` and writes `x`. Each snapshot alone
/// is consistent, but the pair is not serializable (each read misses the
/// other's write), completing the dangerous in+out rw-antidependency
/// structure. The first committer wins; the second must be refused with
/// [`AbortReason::SsiConflict`].
///
/// With `background`, a [`Background`] stream ticks between every step,
/// so the database never quiesces and SSI records retire while the
/// schedule runs: retirement must not forget anything the refusal needs.
fn write_skew_is_refused(shards: usize, background: bool) {
    let db = Database::with_config(config(shards));
    let (name_x, name_y) = names_on_distinct_shards(shards);
    let x = db.register_object(&name_x, Box::new(AdtObject::new(Counter::new()))).unwrap();
    let y = db.register_object(&name_y, Box::new(AdtObject::new(Counter::new()))).unwrap();
    let mut stream = background.then(|| Background::new(&db));
    let mut tick = || {
        if let Some(stream) = stream.as_mut() {
            stream.tick();
        }
    };

    let t1 = db.begin_snapshot();
    tick();
    let t2 = db.begin_snapshot();
    tick();

    // Both reads are served by the versioned path and see the initial
    // state — neither observes the other's pending write.
    assert_eq!(
        t1.exec_call(&x, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(0))
    );
    tick();
    t1.exec_call(&y, CounterOp::Increment(1).to_call()).unwrap();
    tick();
    assert_eq!(
        t2.exec_call(&y, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(0)),
        "t2's snapshot read must not see t1's uncommitted increment"
    );
    tick();
    t2.exec_call(&x, CounterOp::Increment(1).to_call()).unwrap();
    tick();

    // First committer wins.
    assert_eq!(t1.commit().unwrap(), CommitOutcome::Committed);
    tick();
    // The second commit completes the dangerous structure against the
    // already-committed (unabortable) t1 and must be refused.
    match t2.commit() {
        Err(CoreError::Aborted {
            reason: AbortReason::SsiConflict,
            ..
        }) => {}
        other => panic!("write skew must be refused with SsiConflict, got {other:?}"),
    }
    let background_commits = stream.map_or(0, Background::finish);

    let stats = db.stats();
    assert_eq!(stats.aborts_ssi, 1, "exactly one SSI abort");
    assert_eq!(
        stats.commits,
        1 + background_commits,
        "only the first committer survives"
    );
    if background {
        assert!(stats.ssi_retired > 0, "records retired during the schedule");
    }
    db.verify_serializable().unwrap();
}

#[test]
fn write_skew_is_refused_single_shard() {
    write_skew_is_refused(1, false);
}

#[test]
fn write_skew_is_refused_across_shards() {
    write_skew_is_refused(4, false);
}

#[test]
fn write_skew_is_refused_without_quiescence_single_shard() {
    write_skew_is_refused(1, true);
}

#[test]
fn write_skew_is_refused_without_quiescence_across_shards() {
    write_skew_is_refused(4, true);
}

/// The retirement boundary: a record committed one stamp after the
/// oldest live transaction began must survive, because that transaction
/// still conflicts with it. R (snapshot) writes `p` after a concurrent
/// commit into `p` (an in-conflict) and snapshot-reads `o`; X, begun
/// just before R commits, then writes `o`. R → X is an rw-antidependency
/// into the committed pivot R, so X must be refused.
fn record_committed_after_the_oldest_begin_is_kept(shards: usize) {
    let db = Database::with_config(config(shards));
    let (name_o, name_p) = names_on_distinct_shards(shards);
    let o = db
        .register_object(&name_o, Box::new(AdtObject::new(Counter::new())))
        .unwrap();
    let p = db
        .register_object(&name_p, Box::new(AdtObject::new(Counter::new())))
        .unwrap();

    let r = db.begin_snapshot();
    run_writer(&db, std::slice::from_ref(&p), &[(0, CounterOp::Increment(1).to_call())]);
    let x = db.begin();
    r.exec_call(&p, CounterOp::Increment(1).to_call()).unwrap();
    assert_eq!(
        r.exec_call(&o, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(0))
    );
    assert_eq!(r.commit().unwrap(), CommitOutcome::Committed);
    // X is now the oldest live transaction, and R committed exactly one
    // stamp after X began.
    x.exec_call(&o, CounterOp::Increment(1).to_call()).unwrap();
    match x.commit() {
        Err(CoreError::Aborted {
            reason: AbortReason::SsiConflict,
            ..
        }) => {}
        other => panic!("X must be refused with SsiConflict, got {other:?}"),
    }
    db.verify_serializable().unwrap();
}

#[test]
fn record_committed_after_the_oldest_begin_is_kept_single_shard() {
    record_committed_after_the_oldest_begin_is_kept(1);
}

#[test]
fn record_committed_after_the_oldest_begin_is_kept_across_shards() {
    record_committed_after_the_oldest_begin_is_kept(4);
}

/// The bound: on a database that never quiesces — a rolling window of
/// overlapping snapshot readers and classified writers, the oldest
/// committed as each new one begins — SSI records stay within a small
/// multiple of the live count. One long-lived classified transaction
/// pins every record committed after it began; once it ends they drain.
fn ssi_records_stay_bounded_without_quiescence(shards: usize) {
    const WINDOW: usize = 4;
    const BOUND: u64 = 3 * (WINDOW as u64 + 1);
    let db = Database::with_config(config(shards));
    let counters: Vec<ObjectHandle> = (0..WINDOW)
        .map(|i| {
            db.register_object(format!("c{i}"), Box::new(AdtObject::new(Counter::new())))
                .unwrap()
        })
        .collect();
    let mut window: std::collections::VecDeque<Transaction> = Default::default();
    let step = |i: usize, window: &mut std::collections::VecDeque<Transaction>| {
        let counter = &counters[i % WINDOW];
        let txn = if i.is_multiple_of(2) {
            let txn = db.begin_snapshot();
            txn.exec_call(counter, CounterOp::Read.to_call()).unwrap();
            txn
        } else {
            let txn = db.begin();
            txn.exec_call(counter, CounterOp::Increment(1).to_call())
                .unwrap();
            txn
        };
        window.push_back(txn);
        if window.len() > WINDOW {
            let oldest = window.pop_front().unwrap();
            assert_eq!(oldest.commit().unwrap(), CommitOutcome::Committed);
        }
    };

    let mut i = 0;
    while i < 10_000 {
        step(i, &mut window);
        i += 1;
        let records = db.stats().ssi_records;
        assert!(
            records <= BOUND,
            "{records} SSI records with {} live transactions at step {i}",
            window.len()
        );
    }

    let pin = db.begin();
    let retired_before = db.stats().ssi_retired;
    for _ in 0..200 {
        step(i, &mut window);
        i += 1;
    }
    let pinned = db.stats().ssi_records;
    assert!(
        pinned >= 200,
        "the long-lived transaction pins what committed after it began ({pinned} records)"
    );
    assert_eq!(pin.commit().unwrap(), CommitOutcome::Committed);
    let stats = db.stats();
    assert!(
        stats.ssi_records <= BOUND,
        "{} records after the pin ended",
        stats.ssi_records
    );
    assert!(stats.ssi_retired >= retired_before + 190);

    while let Some(txn) = window.pop_front() {
        assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);
    }
    let stats = db.stats();
    assert_eq!(stats.ssi_records, 0, "quiescence retires everything");
    assert_eq!(stats.aborts_ssi, 0);
    assert_eq!(stats.commits, i as u64 + 1);
}

#[test]
fn ssi_records_stay_bounded_without_quiescence_single_shard() {
    ssi_records_stay_bounded_without_quiescence(1);
}

#[test]
fn ssi_records_stay_bounded_without_quiescence_across_shards() {
    ssi_records_stay_bounded_without_quiescence(4);
}

/// The non-dangerous half of the guard: a single rw-antidependency (one
/// snapshot reading under a concurrent writer) is *not* a dangerous
/// structure and both transactions must survive — the guard aborts only
/// on the full in+out structure, never on plain reader/writer overlap.
#[test]
fn single_antidependency_commits_on_both_sides() {
    let db = Database::with_config(config(2));
    let c = db.register_object("c", Box::new(AdtObject::new(Counter::new()))).unwrap();

    let snap = db.begin_snapshot();
    let writer = db.begin();
    writer.exec_call(&c, CounterOp::Increment(7).to_call()).unwrap();
    assert_eq!(writer.commit().unwrap(), CommitOutcome::Committed);

    // The snapshot read now carries an rw-antidependency out-edge to the
    // committed writer — harmless on its own.
    assert_eq!(
        snap.exec_call(&c, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(0)),
        "snapshot still reads its begin stamp"
    );
    assert_eq!(snap.commit().unwrap(), CommitOutcome::Committed);
    assert_eq!(db.stats().aborts_ssi, 0);
}

/// Read-your-writes: a snapshot transaction that has itself written an
/// object must fall back to the classified path for reads of that
/// object, observing its own uncommitted operations.
#[test]
fn snapshot_transactions_read_their_own_writes() {
    let db = Database::with_config(config(1));
    let c = db.register_object("c", Box::new(AdtObject::new(Counter::new()))).unwrap();

    let w = db.begin();
    w.exec_call(&c, CounterOp::Increment(10).to_call()).unwrap();
    w.commit().unwrap();

    let snap = db.begin_snapshot();
    assert_eq!(
        snap.exec_call(&c, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(10))
    );
    snap.exec_call(&c, CounterOp::Increment(5).to_call()).unwrap();
    assert_eq!(
        snap.exec_call(&c, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(15)),
        "own uncommitted write must be visible"
    );
    snap.commit().unwrap();
    db.verify_serializable().unwrap();
}

/// GC telemetry: versions stack up under a live snapshot, survive until
/// it closes, and the sweep both drains them and counts them.
#[test]
fn gc_prunes_only_after_the_oldest_snapshot_closes() {
    let db = Database::with_config(config(1));
    let c = db.register_object("c", Box::new(AdtObject::new(Counter::new()))).unwrap();

    let w = db.begin();
    w.exec_call(&c, CounterOp::Increment(1).to_call()).unwrap();
    w.commit().unwrap();

    let snap = db.begin_snapshot();
    let stamp = snap.snapshot_stamp().unwrap();
    assert_eq!(db.oldest_snapshot_stamp(), Some(stamp));
    for _ in 0..3 {
        let w = db.begin();
        w.exec_call(&c, CounterOp::Increment(1).to_call()).unwrap();
        w.commit().unwrap();
    }
    assert!(db.version_depth() > 0, "live snapshot retains versions");
    // The sweep must not prune what the snapshot still needs.
    db.prune_versions();
    assert_eq!(
        snap.exec_call(&c, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(1)),
        "snapshot still reads its begin stamp after a sweep"
    );
    snap.commit().unwrap();

    assert_eq!(db.oldest_snapshot_stamp(), None);
    let pruned = db.prune_versions();
    assert!(pruned > 0, "closing the snapshot frees its versions");
    assert_eq!(db.version_depth(), 0);
    assert!(db.stats().versions_pruned >= pruned);
}
