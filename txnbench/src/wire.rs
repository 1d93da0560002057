//! The wire closed loop: the same 32 terminals, driven by one client
//! thread over 2 pipelined `NetClient` connections (16 terminals each,
//! under the server's in-flight cap of 32) to an in-process
//! `sbcc_net::Server`. Every operation is its own `Exec` round trip.
//! Terminals retry scheduler aborts from a fresh `Begin` the way
//! `AsyncDatabase::run` does, with the same retry budget; `Busy` sheds
//! are retried and counted.

use crate::gen::{object_name, Kind, Skew, Stream, TxnSpec, OBJECTS, TERMINALS};
use crate::heap::Sampler;
use crate::mem::{Outcome, DEPTH_SAMPLE_EVERY};
use crate::report::{Tracer, ROOT};
use sbcc_adt::OpResult;
use sbcc_core::aio::AsyncDatabase;
use sbcc_core::{NetStats, ObjectHandle};
use sbcc_net::{AdtType, ErrorCode, NetClient, NetError, Request, Response, Server};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::time::{Duration, Instant};

pub const TENANT: &str = "bench";
pub const CONNECTIONS: usize = 2;

/// A running server with its connected clients and the objects
/// registered through them.
pub struct WireSetup {
    pub db: AsyncDatabase,
    pub server: Server,
    pub clients: Vec<NetClient>,
    pub handles: Vec<ObjectHandle>,
}

fn adt_type(kind: Kind) -> AdtType {
    match kind {
        Kind::Stack => AdtType::Stack,
        Kind::Queue => AdtType::FifoQueue,
        Kind::Set => AdtType::Set,
        Kind::Table => AdtType::Table,
        Kind::Counter => AdtType::Counter,
    }
}

/// Start a server on a fresh database, connect, and register the 1000
/// objects over the wire.
pub fn setup(conns: usize) -> WireSetup {
    let db = AsyncDatabase::with_config(crate::config::database(None));
    let server = Server::start(db.clone(), crate::config::server()).expect("bind loopback server");
    let mut clients: Vec<NetClient> = (0..conns)
        .map(|_| NetClient::connect(server.local_addr(), TENANT).expect("connect to server"))
        .collect();
    // Pipelined: every registration is sent before the first answer is
    // read, as a client loading a schema would.
    let ids: Vec<u64> = (0..OBJECTS)
        .map(|i| {
            let request = Request::Register {
                name: object_name(i),
                adt: adt_type(Kind::of(i)),
            };
            clients[0].send(&request).expect("send a registration")
        })
        .collect();
    for id in ids {
        match clients[0].recv_for(id).expect("registration answer") {
            Response::Registered => {}
            other => panic!("registration refused: {other:?}"),
        }
    }
    let handles = (0..OBJECTS)
        .map(|i| {
            server
                .object_handle(TENANT, &object_name(i))
                .expect("registered object is known to the server")
        })
        .collect();
    WireSetup {
        db,
        server,
        clients,
        handles,
    }
}

impl WireSetup {
    /// Close the connections and stop the server; returns its final
    /// counters.
    pub fn shutdown(self) -> NetStats {
        drop(self.clients);
        self.server.shutdown()
    }
}

/// `true` for error frames that `AsyncDatabase::run` would retry: a
/// scheduler abort, or the transaction found already aborted.
fn retryable(code: ErrorCode, detail: &str) -> bool {
    code == ErrorCode::Aborted
        || (code == ErrorCode::InvalidState && detail.ends_with("is aborted"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Begin,
    Exec(usize),
    Commit,
    Abort,
}

struct Term {
    stream: Stream,
    conn: usize,
    spec: TxnSpec,
    tag: u64,
    k: u64,
    start: Instant,
    attempts: usize,
    step: Step,
    wire_txn: u64,
    results: Vec<OpResult>,
    /// A non-retryable failure to report once the abort is acknowledged.
    failure: Option<String>,
    root: u32,
    attempt: u32,
    request: u32,
}

struct ClosedLoop<'a> {
    clients: &'a mut [NetClient],
    db: &'a AsyncDatabase,
    terms: Vec<Term>,
    pending: Vec<HashMap<u64, usize>>,
    start: Instant,
    deadline: Instant,
    max_retries: usize,
    tracer: Option<Tracer>,
    out: Outcome,
    completed: u64,
    heap: Sampler,
}

/// Run the closed loop for `seconds` over `setup`'s connections.
pub fn run_phase(
    setup: &mut WireSetup,
    seed: u64,
    skew: Skew,
    seconds: f64,
    trace: bool,
) -> (Outcome, Option<Tracer>) {
    let start = Instant::now();
    let conns = setup.clients.len();
    for c in setup.clients.iter() {
        c.stream()
            .set_nonblocking(true)
            .expect("non-blocking socket");
    }
    let terms = (0..TERMINALS)
        .map(|t| Term {
            stream: Stream::new(seed, t, skew),
            conn: t * conns / TERMINALS,
            spec: TxnSpec {
                read_only: true,
                ops: Vec::new(),
            },
            tag: 0,
            k: 0,
            start,
            attempts: 0,
            step: Step::Begin,
            wire_txn: 0,
            results: Vec::new(),
            failure: None,
            root: ROOT,
            attempt: ROOT,
            request: ROOT,
        })
        .collect();
    let mut closed_loop = ClosedLoop {
        clients: &mut setup.clients,
        db: &setup.db,
        terms,
        pending: vec![HashMap::new(); conns],
        start,
        deadline: start + Duration::from_secs_f64(seconds),
        max_retries: crate::config::scheduler().max_retries,
        tracer: trace.then(|| Tracer::new(start)),
        out: Outcome::default(),
        completed: 0,
        heap: Sampler::new(start),
    };
    for t in 0..TERMINALS {
        closed_loop.start_txn(t);
    }
    while closed_loop.pending.iter().any(|p| !p.is_empty()) {
        let mut progressed = false;
        for c in 0..conns {
            match closed_loop.clients[c].recv() {
                Ok((id, response)) => {
                    progressed = true;
                    let t = closed_loop.pending[c]
                        .remove(&id)
                        .expect("every response answers a request sent on its connection");
                    closed_loop.on_response(t, response);
                }
                Err(NetError::Io(e)) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("connection {c} failed: {e}"),
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    let end = Instant::now();
    for c in closed_loop.clients.iter() {
        c.stream().set_nonblocking(false).expect("blocking socket");
    }
    let mut out = closed_loop.out;
    out.mean_heap_mb = closed_loop.heap.mean_mb();
    out.elapsed_s = (end - start).as_secs_f64();
    out.drain_s = end
        .saturating_duration_since(closed_loop.deadline)
        .as_secs_f64();
    out.window_s = out.elapsed_s.min(seconds);
    (out, closed_loop.tracer)
}

impl ClosedLoop<'_> {
    fn send(&mut self, t: usize, request: &Request, span: Option<&'static str>) {
        let term = &mut self.terms[t];
        if let (Some(tr), Some(name)) = (self.tracer.as_ref(), span) {
            term.request = tr.open(name, term.attempt, term.tag);
        }
        let id = self.clients[term.conn]
            .send(request)
            .expect("send a request over loopback");
        self.pending[term.conn].insert(id, t);
    }

    fn start_txn(&mut self, t: usize) {
        let now = Instant::now();
        if now >= self.deadline {
            return;
        }
        let term = &mut self.terms[t];
        term.spec = term.stream.next_txn();
        term.tag = ((t as u64) << 40) | term.k;
        term.k += 1;
        term.start = now;
        term.attempts = 0;
        if let Some(tr) = self.tracer.as_ref() {
            let name = if term.spec.read_only {
                "txn.read"
            } else {
                "txn.update"
            };
            term.root = tr.open(name, ROOT, term.tag);
        }
        self.begin_attempt(t);
    }

    fn begin_attempt(&mut self, t: usize) {
        let term = &mut self.terms[t];
        term.attempts += 1;
        term.failure = None;
        term.results.clear();
        if !term.spec.read_only {
            self.out.update_attempts += 1;
        }
        if let Some(tr) = self.tracer.as_ref() {
            term.attempt = tr.open("net.attempt", term.root, term.tag);
        }
        self.send_begin(t);
    }

    fn send_begin(&mut self, t: usize) {
        self.terms[t].step = Step::Begin;
        let request = if self.terms[t].spec.read_only {
            Request::BeginSnapshot
        } else {
            Request::Begin
        };
        self.send(t, &request, Some("net.begin"));
    }

    fn send_exec(&mut self, t: usize, i: usize) {
        let term = &mut self.terms[t];
        term.step = Step::Exec(i);
        let op = &term.spec.ops[i];
        let request = Request::Exec {
            txn: term.wire_txn,
            object: object_name(op.object),
            call: op.call.clone(),
        };
        self.send(t, &request, Some("net.exec"));
    }

    fn send_commit(&mut self, t: usize) {
        self.terms[t].step = Step::Commit;
        let request = Request::Commit {
            txn: self.terms[t].wire_txn,
        };
        self.send(t, &request, Some("net.commit"));
    }

    fn send_abort(&mut self, t: usize, failure: Option<String>) {
        self.terms[t].step = Step::Abort;
        self.terms[t].failure = failure;
        let request = Request::Abort {
            txn: self.terms[t].wire_txn,
        };
        self.send(t, &request, Some("net.abort"));
    }

    fn on_response(&mut self, t: usize, response: Response) {
        if let Some(tr) = self.tracer.as_ref() {
            tr.close(self.terms[t].request);
        }
        let step = self.terms[t].step;
        match (step, response) {
            (Step::Begin, Response::Begun { txn }) => {
                self.terms[t].wire_txn = txn;
                self.send_exec(t, 0);
            }
            (
                Step::Begin,
                Response::Error {
                    code: ErrorCode::Busy,
                    ..
                },
            ) => {
                self.out.busy_sheds += 1;
                self.send_begin(t);
            }
            (Step::Exec(i), Response::Result(result)) => {
                self.terms[t].results.push(result);
                if i + 1 < self.terms[t].spec.ops.len() {
                    self.send_exec(t, i + 1);
                } else {
                    self.send_commit(t);
                }
            }
            (Step::Exec(_), Response::Error { code, detail }) => {
                let failure =
                    (!retryable(code, &detail)).then(|| format!("error: {code}: {detail}"));
                self.send_abort(t, failure);
            }
            (Step::Commit, Response::Committed { .. }) => self.finish(t, None),
            (Step::Commit, Response::Error { code, detail }) if retryable(code, &detail) => {
                self.retry(t)
            }
            (Step::Abort, _) => match self.terms[t].failure.take() {
                Some(failure) => self.finish(t, Some(failure)),
                None => self.retry(t),
            },
            (_, Response::Error { code, detail }) => {
                self.finish(t, Some(format!("error: {code}: {detail}")))
            }
            (step, other) => self.finish(
                t,
                Some(format!("unexpected response to {step:?}: {other:?}")),
            ),
        }
    }

    fn retry(&mut self, t: usize) {
        if let Some(tr) = self.tracer.as_ref() {
            tr.close(self.terms[t].attempt);
        }
        if self.terms[t].attempts > self.max_retries {
            self.finish(t, Some("retries_exhausted".to_owned()));
        } else {
            self.begin_attempt(t);
        }
    }

    fn finish(&mut self, t: usize, failure: Option<String>) {
        let term = &mut self.terms[t];
        if let Some(tr) = self.tracer.as_ref() {
            tr.close(term.attempt);
            tr.close(term.root);
        }
        let end = Instant::now();
        let us = (end - term.start).as_secs_f64() * 1e6;
        let end_s = (end - self.start).as_secs_f64();
        let class = if term.spec.read_only {
            &mut self.out.read
        } else {
            &mut self.out.update
        };
        match failure {
            None => {
                class.ok(end_s, us);
                if !term.spec.read_only {
                    self.out.ledger.commit(&term.spec.ops, &term.results);
                    self.out.committed_update_ops += term.spec.ops.len() as u64;
                }
            }
            Some(kind) => {
                class.fail(end_s, us);
                self.out.note_failure(kind);
            }
        }
        self.completed += 1;
        self.heap.offer(end);
        if self.tracer.is_some() && self.completed.is_multiple_of(DEPTH_SAMPLE_EVERY) {
            let depth = self.db.database().version_depth();
            self.out.version_depth_max = self.out.version_depth_max.max(depth);
        }
        self.start_txn(t);
    }
}
