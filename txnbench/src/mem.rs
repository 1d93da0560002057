//! The in-process closed loop: 32 terminals as tasks on one
//! `LocalExecutor` thread, driving an `AsyncDatabase` (with or without a
//! write-ahead log). Updates go through `AsyncDatabase::run`, so its
//! immediate-retry policy is part of what is measured; read-only
//! transactions are snapshot sessions retried the same way.
//!
//! A terminal yields to the executor after every operation, so all 32
//! transactions are live at once (the paper's multiprogramming level);
//! without it one executor thread would run each transaction to
//! completion and the level would be 1.

use crate::check::Ledger;
use crate::gen::{object_name, Kind, Skew, Stream, TxnSpec, OBJECTS, TERMINALS};
use crate::heap::Sampler;
use crate::report::{Latencies, Tracer, ROOT};
use sbcc_adt::{AdtObject, SemanticObject};
use sbcc_adt::{Counter, FifoQueue, OpResult, Set, Stack, TableObject};
use sbcc_core::aio::{yield_now, AsyncDatabase, AsyncTransaction, LocalExecutor};
use sbcc_core::{CoreError, Database, ObjectHandle, ObjectId, TxnId, TxnState};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A fresh, empty object of object `i`'s data type.
pub fn new_object(i: usize) -> Box<dyn SemanticObject> {
    match Kind::of(i) {
        Kind::Stack => Box::new(AdtObject::new(Stack::new())),
        Kind::Queue => Box::new(AdtObject::new(FifoQueue::new())),
        Kind::Set => Box::new(AdtObject::new(Set::new())),
        Kind::Table => Box::new(AdtObject::new(TableObject::new())),
        Kind::Counter => Box::new(AdtObject::new(Counter::new())),
    }
}

/// Register the 1000 objects in object-index order.
pub fn register_all(db: &Database) -> Vec<ObjectHandle> {
    (0..OBJECTS)
        .map(|i| {
            db.register_object(object_name(i), new_object(i))
                .expect("object names are unique")
        })
        .collect()
}

/// What one measured phase did, from the terminals' side.
#[derive(Debug, Default)]
pub struct Outcome {
    pub update: Latencies,
    pub read: Latencies,
    pub ledger: Ledger,
    /// Attempts made for update transactions (a retry is one more).
    pub update_attempts: u64,
    /// Operations of committed update attempts.
    pub committed_update_ops: u64,
    /// `Busy` sheds retried (wire only).
    pub busy_sheds: u64,
    /// Failures by kind, for the report.
    pub failures: BTreeMap<String, u64>,
    /// Largest `Database::version_depth` seen (traced runs sample it).
    pub version_depth_max: usize,
    /// Mean live heap over the phase, in MiB.
    pub mean_heap_mb: f64,
    /// Seconds from the first begin to the last terminal's finish.
    pub elapsed_s: f64,
    /// Seconds from the deadline to the last terminal's finish.
    pub drain_s: f64,
    /// Length of the measured window in seconds.
    pub window_s: f64,
}

impl Outcome {
    pub fn note_failure(&mut self, kind: String) {
        *self.failures.entry(kind).or_default() += 1;
    }

    pub fn committed(&self) -> u64 {
        self.update.committed() + self.read.committed()
    }

    /// Commits per second of the measured window. Transactions still in
    /// flight when it closes finish afterwards (the drain) and count in
    /// every other figure, but not here.
    pub fn commit_tps(&self) -> f64 {
        let commits =
            self.update.committed_by(self.window_s) + self.read.committed_by(self.window_s);
        commits as f64 / self.window_s
    }

    /// The end-to-end figures of this phase: `commit_tps`, the update and
    /// read-only p50 and p99 in milliseconds, and the mean live heap.
    pub fn figures(&self) -> [f64; 6] {
        [
            self.commit_tps(),
            self.update.percentile_ms(0.5),
            self.update.percentile_ms(0.99),
            self.read.percentile_ms(0.5),
            self.read.percentile_ms(0.99),
            self.mean_heap_mb,
        ]
    }

    pub fn issued(&self) -> u64 {
        self.update.issued() + self.read.issued()
    }
}

/// The failure label used in reports.
pub fn failure_kind(e: &CoreError) -> String {
    match e {
        CoreError::RetriesExhausted { .. } => "retries_exhausted".to_owned(),
        other => format!("error: {other}"),
    }
}

/// `true` for the errors `AsyncDatabase::run` retries: a scheduler abort
/// of this attempt, or the attempt observed as already aborted.
pub fn retryable(e: &CoreError, id: TxnId) -> bool {
    e.is_scheduler_abort_of(id)
        || matches!(e, CoreError::InvalidState { txn, state: TxnState::Aborted, .. } if *txn == id)
}

struct Ctx {
    db: AsyncDatabase,
    start: Instant,
    handles: Vec<ObjectHandle>,
    deadline: Instant,
    max_retries: usize,
    tracer: Option<Tracer>,
    out: RefCell<Outcome>,
    completed: Cell<u64>,
    heap: RefCell<Sampler>,
}

/// Where a terminal's transactions come from.
enum Source {
    Stream(Stream),
    List(std::vec::IntoIter<TxnSpec>),
}

impl Source {
    fn next(&mut self) -> Option<TxnSpec> {
        match self {
            Source::Stream(stream) => Some(stream.next_txn()),
            Source::List(list) => list.next(),
        }
    }
}

/// Traced runs sample `Database::version_depth` once per this many
/// finished transactions.
pub const DEPTH_SAMPLE_EVERY: u64 = 64;

/// Run the closed loop for `seconds` on `db`, whose objects are `handles`.
pub fn run_phase(
    db: &AsyncDatabase,
    handles: &[ObjectHandle],
    seed: u64,
    skew: Skew,
    seconds: f64,
    trace: bool,
) -> (Outcome, Option<Tracer>) {
    let sources = (0..TERMINALS)
        .map(|t| Source::Stream(Stream::new(seed, t, skew)))
        .collect();
    drive(
        db,
        handles,
        sources,
        Duration::from_secs_f64(seconds),
        trace,
    )
}

/// Replay `txns` in order from a single terminal (no contention), traced.
pub fn replay_serial(
    db: &AsyncDatabase,
    handles: &[ObjectHandle],
    txns: Vec<TxnSpec>,
) -> (Outcome, Option<Tracer>) {
    let sources = vec![Source::List(txns.into_iter())];
    drive(db, handles, sources, Duration::from_secs(3600), true)
}

fn drive(
    db: &AsyncDatabase,
    handles: &[ObjectHandle],
    sources: Vec<Source>,
    limit: Duration,
    trace: bool,
) -> (Outcome, Option<Tracer>) {
    let start = Instant::now();
    let ctx = Rc::new(Ctx {
        db: db.clone(),
        start,
        handles: handles.to_vec(),
        deadline: start + limit,
        max_retries: crate::config::scheduler().max_retries,
        tracer: trace.then(|| Tracer::new(start)),
        out: RefCell::new(Outcome::default()),
        completed: Cell::new(0),
        heap: RefCell::new(Sampler::new(start)),
    });
    let executor = LocalExecutor::new();
    for (t, source) in sources.into_iter().enumerate() {
        let ctx = ctx.clone();
        executor.spawn(async move { terminal(ctx, source, t).await });
    }
    executor.run();
    let end = Instant::now();
    let ctx = Rc::try_unwrap(ctx)
        .unwrap_or_else(|_| panic!("every terminal task has finished and dropped its context"));
    let mut out = ctx.out.into_inner();
    out.elapsed_s = (end - start).as_secs_f64();
    out.drain_s = end.saturating_duration_since(ctx.deadline).as_secs_f64();
    out.window_s = out.elapsed_s.min(limit.as_secs_f64());
    out.mean_heap_mb = ctx.heap.into_inner().mean_mb();
    (out, ctx.tracer)
}

async fn terminal(ctx: Rc<Ctx>, mut source: Source, t: usize) {
    let mut k = 0u64;
    while Instant::now() < ctx.deadline {
        let Some(spec) = source.next() else { break };
        let spec = Rc::new(spec);
        let txn_tag = ((t as u64) << 40) | k;
        k += 1;
        if spec.read_only {
            read_txn(&ctx, &spec, txn_tag).await;
        } else {
            update_txn(&ctx, &spec, txn_tag).await;
        }
        let done = ctx.completed.get() + 1;
        ctx.completed.set(done);
        ctx.heap.borrow_mut().offer(Instant::now());
        if ctx.tracer.is_some() && done.is_multiple_of(DEPTH_SAMPLE_EVERY) {
            let depth = ctx.db.database().version_depth();
            let mut out = ctx.out.borrow_mut();
            out.version_depth_max = out.version_depth_max.max(depth);
        }
    }
}

async fn update_txn(ctx: &Rc<Ctx>, spec: &Rc<TxnSpec>, tag: u64) {
    let start = Instant::now();
    let root = ctx
        .tracer
        .as_ref()
        .map_or(ROOT, |tr| tr.open("txn.update", ROOT, tag));
    // End of the latest successful body: the runner commits right after
    // it, so [body end, next attempt or return] is the commit call.
    let body_end: Rc<Cell<Option<Instant>>> = Rc::new(Cell::new(None));
    let result = ctx
        .db
        .run(|txn| {
            let ctx = ctx.clone();
            let spec = spec.clone();
            let body_end = body_end.clone();
            async move {
                ctx.out.borrow_mut().update_attempts += 1;
                let tracer = ctx.tracer.as_ref();
                if let (Some(tr), Some(end)) = (tracer, body_end.take()) {
                    tr.record("aio.commit", end, Instant::now(), root, tag);
                }
                let attempt = tracer.map_or(ROOT, |tr| tr.open("aio.attempt", root, tag));
                let results = exec_all(&ctx, &txn, &spec, "aio.exec", attempt, tag).await;
                if let Some(tr) = tracer {
                    tr.close(attempt);
                }
                if results.is_ok() {
                    body_end.set(Some(Instant::now()));
                }
                results
            }
        })
        .await;
    let end = Instant::now();
    if let (Some(tr), Some(body)) = (ctx.tracer.as_ref(), body_end.take()) {
        if result.is_ok() {
            tr.record("aio.commit", body, end, root, tag);
        }
    }
    if let Some(tr) = ctx.tracer.as_ref() {
        tr.close(root);
    }
    let mut out = ctx.out.borrow_mut();
    match result {
        Ok(results) => {
            out.update.ok(
                (end - ctx.start).as_secs_f64(),
                (end - start).as_secs_f64() * 1e6,
            );
            out.ledger.commit(&spec.ops, &results);
            out.committed_update_ops += spec.ops.len() as u64;
        }
        Err(e) => {
            out.update.fail(
                (end - ctx.start).as_secs_f64(),
                (end - start).as_secs_f64() * 1e6,
            );
            out.note_failure(failure_kind(&e));
        }
    }
}

async fn exec_all(
    ctx: &Ctx,
    txn: &AsyncTransaction,
    spec: &TxnSpec,
    span: &'static str,
    parent: u32,
    tag: u64,
) -> Result<Vec<OpResult>, CoreError> {
    let mut results = Vec::with_capacity(spec.ops.len());
    for op in &spec.ops {
        let handle = &ctx.handles[op.object];
        let result = match ctx.tracer.as_ref() {
            Some(tr) => {
                let s = tr.open(span, parent, tag);
                let r = txn.exec_call(handle, op.call.clone()).await;
                tr.close(s);
                r
            }
            None => txn.exec_call(handle, op.call.clone()).await,
        };
        results.push(result?);
        yield_now().await;
    }
    Ok(results)
}

async fn read_txn(ctx: &Rc<Ctx>, spec: &TxnSpec, tag: u64) {
    let start = Instant::now();
    let tracer = ctx.tracer.as_ref();
    let root = tracer.map_or(ROOT, |tr| tr.open("txn.read", ROOT, tag));
    let mut attempts = 0usize;
    let result = loop {
        attempts += 1;
        let txn = ctx.db.begin_snapshot();
        let id = txn.id();
        let attempt = tracer.map_or(ROOT, |tr| tr.open("aio.snapshot_attempt", root, tag));
        let outcome = match exec_all(ctx, &txn, spec, "aio.snapshot_exec", attempt, tag).await {
            Ok(_) => txn.commit().await.map(|_| ()),
            Err(e) => Err(e),
        };
        if let Some(tr) = tracer {
            tr.close(attempt);
        }
        match outcome {
            Ok(()) => break Ok(()),
            Err(e) if retryable(&e, id) && attempts <= ctx.max_retries => continue,
            Err(e) if retryable(&e, id) => {
                break Err(CoreError::RetriesExhausted { txn: id, attempts })
            }
            Err(e) => break Err(e),
        }
    };
    if let Some(tr) = tracer {
        tr.close(root);
    }
    let end = Instant::now();
    let (end_s, us) = (
        (end - ctx.start).as_secs_f64(),
        (end - start).as_secs_f64() * 1e6,
    );
    let mut out = ctx.out.borrow_mut();
    match result {
        Ok(()) => out.read.ok(end_s, us),
        Err(e) => {
            out.read.fail(end_s, us);
            out.note_failure(failure_kind(&e));
        }
    }
}

/// Object ids in object-index order.
pub fn ids_of(handles: &[ObjectHandle]) -> Vec<ObjectId> {
    handles.iter().map(ObjectHandle::id).collect()
}
