//! The shared, seeded transaction generator.
//!
//! Every workload draws its inputs from here, so two workloads run with the
//! same seed see the same transactions, differing only in key skew. The
//! shape follows the paper's closed system: 1000 objects (200 of each of
//! five data types), 32 terminals, transactions of 4–12 operations drawn
//! uniformly, 80% updates and 20% read-only.

use sbcc_adt::{AdtOp, CounterOp, OpCall, QueueOp, SetOp, StackOp, TableOp, Value};

/// Objects in the database (the paper's `db_size`).
pub const OBJECTS: usize = 1000;
/// Objects of each data type.
pub const PER_KIND: usize = 200;
/// Closed-loop terminals (inside the paper's multiprogramming range).
pub const TERMINALS: usize = 32;
/// Hot objects per data type under skew (10 in all).
pub const HOT_PER_KIND: usize = 2;
/// Percentage of object picks sent to the hot set under skew.
pub const HOT_PICK_PCT: u64 = 10;
/// Percentage of transactions that are updates.
const UPDATE_PCT: u64 = 80;
/// Keys of sets and tables are drawn from this many values, so updates on
/// one object meet each other's keys.
const KEY_SPACE: u64 = 8;

/// The five data types, in object-index order: object `i` has kind
/// `KINDS[i / PER_KIND]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stack,
    Queue,
    Set,
    Table,
    Counter,
}

pub const KINDS: [Kind; 5] = [
    Kind::Stack,
    Kind::Queue,
    Kind::Set,
    Kind::Table,
    Kind::Counter,
];

impl Kind {
    pub fn of(object: usize) -> Kind {
        KINDS[object / PER_KIND]
    }
}

/// The registered name of object `i`.
pub fn object_name(object: usize) -> String {
    let prefix = match Kind::of(object) {
        Kind::Stack => "stack",
        Kind::Queue => "queue",
        Kind::Set => "set",
        Kind::Table => "table",
        Kind::Counter => "ctr",
    };
    format!("{prefix}{}", object % PER_KIND)
}

/// One typed operation, kept alongside its erased call so every layer can
/// take the form it needs.
#[derive(Debug, Clone)]
pub enum TypedOp {
    Stack(StackOp),
    Queue(QueueOp),
    Set(SetOp),
    Table(TableOp),
    Counter(CounterOp),
}

#[derive(Debug, Clone)]
pub struct Op {
    pub object: usize,
    pub typed: TypedOp,
    pub call: OpCall,
}

#[derive(Debug, Clone)]
pub struct TxnSpec {
    pub read_only: bool,
    pub ops: Vec<Op>,
}

/// Key skew: `Uniform` picks every object with equal probability, `Hot`
/// sends [`HOT_PICK_PCT`]% of picks to the 10-object hot set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    Uniform,
    Hot,
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The transaction stream of one terminal. Each call to [`Stream::next_txn`]
/// consumes the same number of random draws whatever the skew, so the
/// uniform and hot workloads see the same sequence apart from object picks.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    skew: Skew,
}

impl Stream {
    pub fn new(seed: u64, terminal: usize, skew: Skew) -> Stream {
        let mut mix = Rng::new(seed ^ 0x5EED_0000_0000_0000);
        for _ in 0..=terminal {
            mix.next_u64();
        }
        Stream {
            rng: Rng::new(mix.next_u64()),
            skew,
        }
    }

    pub fn next_txn(&mut self) -> TxnSpec {
        let read_only = self.rng.below(100) >= UPDATE_PCT;
        let len = 4 + self.rng.below(9) as usize;
        let ops = (0..len).map(|_| self.next_op(read_only)).collect();
        TxnSpec { read_only, ops }
    }

    fn next_op(&mut self, read_only: bool) -> Op {
        let hot = self.rng.below(100) < HOT_PICK_PCT;
        let uniform = self.rng.below(OBJECTS as u64) as usize;
        let hot_pick = self.rng.below((HOT_PER_KIND * KINDS.len()) as u64) as usize;
        let object = if hot && self.skew == Skew::Hot {
            (hot_pick / HOT_PER_KIND) * PER_KIND + hot_pick % HOT_PER_KIND
        } else {
            uniform
        };
        let choice = self.rng.below(6);
        let key = Value::Int(self.rng.below(KEY_SPACE) as i64);
        let payload = Value::Int(self.rng.below(1_000_000) as i64);
        let amount = 1 + self.rng.below(10) as i64;
        let typed = match (Kind::of(object), read_only) {
            (Kind::Stack, true) => TypedOp::Stack(StackOp::Top),
            (Kind::Stack, false) if choice.is_multiple_of(2) => {
                TypedOp::Stack(StackOp::Push(payload))
            }
            (Kind::Stack, false) => TypedOp::Stack(StackOp::Pop),
            (Kind::Queue, true) => TypedOp::Queue(QueueOp::Front),
            (Kind::Queue, false) if choice.is_multiple_of(2) => {
                TypedOp::Queue(QueueOp::Enqueue(payload))
            }
            (Kind::Queue, false) => TypedOp::Queue(QueueOp::Dequeue),
            (Kind::Set, true) => TypedOp::Set(SetOp::Member(key)),
            (Kind::Set, false) => TypedOp::Set(match choice % 3 {
                0 => SetOp::Insert(key),
                1 => SetOp::Delete(key),
                _ => SetOp::Member(key),
            }),
            (Kind::Table, true) => TypedOp::Table(TableOp::Lookup(key)),
            (Kind::Table, false) => TypedOp::Table(match choice % 3 {
                0 => TableOp::Insert(key, payload),
                1 => TableOp::Modify(key, payload),
                _ => TableOp::Lookup(key),
            }),
            (Kind::Counter, true) => TypedOp::Counter(CounterOp::Read),
            (Kind::Counter, false) => TypedOp::Counter(match choice % 3 {
                0 => CounterOp::Increment(amount),
                1 => CounterOp::Decrement(amount),
                _ => CounterOp::Read,
            }),
        };
        let call = match &typed {
            TypedOp::Stack(op) => op.to_call(),
            TypedOp::Queue(op) => op.to_call(),
            TypedOp::Set(op) => op.to_call(),
            TypedOp::Table(op) => op.to_call(),
            TypedOp::Counter(op) => op.to_call(),
        };
        Op {
            object,
            typed,
            call,
        }
    }
}

/// The first `k` transactions of the interleaved terminal streams: the
/// `j`-th is terminal `j % TERMINALS`'s `(j / TERMINALS)`-th transaction.
pub fn first_txns(seed: u64, skew: Skew, k: usize) -> Vec<TxnSpec> {
    let mut streams: Vec<Stream> = (0..TERMINALS).map(|t| Stream::new(seed, t, skew)).collect();
    (0..k).map(|j| streams[j % TERMINALS].next_txn()).collect()
}
