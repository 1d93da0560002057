//! Output checks: the committed state the database ends with must match
//! what the committed transactions imply.

use crate::gen::{Kind, Op, TypedOp, OBJECTS};
use sbcc_adt::{AdtObject, Counter, FifoQueue, OpResult, SemanticObject, Stack};
use sbcc_core::{Database, ObjectId};

/// Effects of committed transactions that the final state must show:
/// counters end at committed increments minus committed decrements, and
/// stacks and queues hold committed pushes minus committed non-empty pops.
#[derive(Debug)]
pub struct Ledger {
    expected: Vec<i64>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            expected: vec![0; OBJECTS],
        }
    }
}

impl Ledger {
    /// Account for one committed attempt: its operations and the results
    /// they returned.
    pub fn commit(&mut self, ops: &[Op], results: &[OpResult]) {
        for (op, result) in ops.iter().zip(results) {
            let nonempty = matches!(result, OpResult::Value(_));
            let delta = match &op.typed {
                TypedOp::Counter(sbcc_adt::CounterOp::Increment(n)) => *n,
                TypedOp::Counter(sbcc_adt::CounterOp::Decrement(n)) => -*n,
                TypedOp::Stack(sbcc_adt::StackOp::Push(_))
                | TypedOp::Queue(sbcc_adt::QueueOp::Enqueue(_)) => 1,
                TypedOp::Stack(sbcc_adt::StackOp::Pop)
                | TypedOp::Queue(sbcc_adt::QueueOp::Dequeue)
                    if nonempty =>
                {
                    -1
                }
                _ => 0,
            };
            self.expected[op.object] += delta;
        }
    }

    /// Shift one expected value, so the self-check can prove a wrong
    /// expectation is caught.
    pub fn plant_error(&mut self) {
        self.expected[OBJECTS - 1] += 1;
    }

    /// Compare against the committed state; one message per mismatch.
    pub fn verify(&self, db: &Database, ids: &[ObjectId]) -> Vec<String> {
        let mut errors = Vec::new();
        for (object, id) in ids.iter().enumerate() {
            let actual = db.with_sharded_kernel(|k| k.with_object_committed(*id, observed));
            match actual {
                Some(Some(value)) if value == self.expected[object] => {}
                Some(Some(value)) => errors.push(format!(
                    "object {object} ({:?}): committed state gives {value}, committed transactions imply {}",
                    Kind::of(object),
                    self.expected[object]
                )),
                Some(None) => {}
                None => errors.push(format!("object {object} is not registered")),
            }
        }
        errors
    }
}

/// The checked quantity of an object: a counter's value or a stack's or
/// queue's length; `None` for sets and tables.
fn observed(object: &dyn SemanticObject) -> Option<i64> {
    let any = object.as_any();
    if let Some(c) = any.downcast_ref::<AdtObject<Counter>>() {
        return Some(c.inner().value());
    }
    if let Some(s) = any.downcast_ref::<AdtObject<Stack>>() {
        return Some(s.inner().len() as i64);
    }
    any.downcast_ref::<AdtObject<FifoQueue>>()
        .map(|q| q.inner().len() as i64)
}

/// Kernel-level checks every workload ends with: invariants hold and no
/// transaction is left live.
pub fn verify_quiescent(db: &Database) -> Vec<String> {
    let mut errors = Vec::new();
    if let Err(e) = db.check_invariants() {
        errors.push(format!("check_invariants: {e}"));
    }
    let live: usize = db.with_sharded_kernel(|k| {
        (0..k.shard_count())
            .map(|s| k.with_shard(s, |kernel| kernel.live_transactions().len()))
            .sum()
    });
    if live != 0 {
        errors.push(format!("{live} transactions still live at the end"));
    }
    let stats = db.stats();
    if stats.transactions_begun != stats.commits + stats.total_aborts() {
        errors.push(format!(
            "{} transactions begun but {} committed and {} aborted",
            stats.transactions_begun,
            stats.commits,
            stats.total_aborts()
        ));
    }
    errors
}

/// A copy of every object's committed state, in object order.
pub fn committed_states(db: &Database, ids: &[ObjectId]) -> Vec<Box<dyn SemanticObject>> {
    ids.iter()
        .map(|id| {
            db.with_sharded_kernel(|k| k.with_object_committed(*id, |o| o.boxed_clone()))
                .expect("registered object has a committed state")
        })
        .collect()
}
