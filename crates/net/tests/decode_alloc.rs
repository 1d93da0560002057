//! Hostile-input bound for the wire decoder: a count prefix that claims
//! more elements than the frame holds must not make the decoder reserve
//! memory for them.
//!
//! Every frame here is a full [`MAX_FRAME_LEN`] body whose count field
//! says `u32::MAX` and whose remaining bytes are `0xFF` filler. The
//! filler cannot decode as an element (a string length of `u32::MAX`
//! overruns the body, and `0xFF` is no value or result tag), so decoding
//! fails on the first element, and whatever heap the decoder held at its
//! peak was reserved ahead of decoding. That peak must stay below the
//! body length, and the error must be a typed [`ProtoError`].
//!
//! A counting global allocator measures the peak per thread, so the
//! tests can run in parallel inside this one binary.

use sbcc_net::{ProtoError, Request, Response, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes currently allocated by this thread (frees of memory another
    /// thread allocated can push it below zero, hence signed).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest `LIVE` seen since the last [`peak_extra_heap`] reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counting touches only const-initialised thread-locals, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` and return its result with the peak heap it held on this
/// thread beyond what was live when it started.
fn peak_extra_heap<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let result = f();
    let peak = PEAK.with(Cell::get);
    (result, (peak - base).max(0) as usize)
}

/// A max-size frame body: `head` (request id, opcode and fields up to
/// and including the lying count), then `0xFF` filler.
fn lying_body(head: &[u8]) -> Vec<u8> {
    let mut body = head.to_vec();
    body.resize(MAX_FRAME_LEN, 0xFF);
    body
}

/// Request id and opcode.
fn header(opcode: u8) -> Vec<u8> {
    let mut b = 7u64.to_le_bytes().to_vec();
    b.push(opcode);
    b
}

fn u32_le(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

const TXN: [u8; 8] = 1u64.to_le_bytes();
const LIE: [u8; 4] = u32::MAX.to_le_bytes();

fn assert_bounded(field: &str, body: &[u8], decode: impl FnOnce(&[u8]) -> Result<(), ProtoError>) {
    let (result, extra) = peak_extra_heap(|| decode(body));
    let err = result.expect_err(field);
    assert!(
        matches!(err, ProtoError::Truncated | ProtoError::UnknownTag(..)),
        "{field}: unexpected error {err:?}"
    );
    assert!(
        extra < body.len(),
        "{field}: a lying count made the decoder hold {extra} B for a {} B body",
        body.len()
    );
}

fn request(body: &[u8]) -> Result<(), ProtoError> {
    Request::decode(body).map(drop)
}

#[test]
fn exec_batch_op_count() {
    let mut head = header(0x05);
    head.extend(TXN);
    head.extend(LIE);
    assert_bounded("ExecBatch ops", &lying_body(&head), request);
}

#[test]
fn exec_batch_declared_op_count() {
    let mut head = header(0x0A);
    head.extend(TXN);
    head.extend(LIE);
    assert_bounded("ExecBatchDeclared ops", &lying_body(&head), request);
}

#[test]
fn exec_batch_declared_read_count() {
    let mut head = header(0x0A);
    head.extend(TXN);
    head.extend(u32_le(0)); // no ops
    head.extend(LIE);
    assert_bounded("ExecBatchDeclared reads", &lying_body(&head), request);
}

#[test]
fn exec_batch_declared_write_count() {
    let mut head = header(0x0A);
    head.extend(TXN);
    head.extend(u32_le(0)); // no ops
    head.extend(u32_le(0)); // no reads
    head.extend(LIE);
    assert_bounded("ExecBatchDeclared writes", &lying_body(&head), request);
}

#[test]
fn call_param_count() {
    let mut head = header(0x04);
    head.extend(TXN);
    head.extend(u32_le(1));
    head.push(b'x'); // object name "x"
    head.extend(u32_le(0)); // operation kind
    head.extend(LIE);
    assert_bounded("Exec call params", &lying_body(&head), request);
}

#[test]
fn results_count() {
    let mut head = header(0x85);
    head.extend(LIE);
    assert_bounded("Results", &lying_body(&head), |body| {
        Response::decode(body).map(drop)
    });
}
