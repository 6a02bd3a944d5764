//! Property-based tests for the TCP runtime's byte decoders: whatever a
//! peer sends, `WireMsg::decode`, `read_frame` and `FrameBuf` answer `Ok` or `Err` —
//! never a panic, never an allocation sized by a number the peer chose —
//! and every message the runtime can send survives its own encoding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dewe_core::{
    AckKind, AckMsg, DispatchMsg, LifecycleKind, LifecycleMsg, WireError, WireMsg, PROTOCOL_VERSION,
};
use dewe_dag::{EnsembleJobId, JobId, WorkflowId};
use dewe_mq::{read_frame, write_frame, FrameBuf};
use proptest::prelude::*;

thread_local! {
    /// The largest single request this thread has made of the allocator
    /// since the cell was last zeroed.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct NoteLargest;

fn note(size: usize) {
    // A thread whose locals are already gone is not one under test.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the bookkeeping touches a `Cell<usize>` and allocates nothing.
unsafe impl GlobalAlloc for NoteLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods here, with
        // this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: NoteLargest = NoteLargest;

/// Run `f` and return its result with the largest allocation it asked for.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn dispatch() -> impl Strategy<Value = DispatchMsg> {
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(wf, job, attempt)| {
        DispatchMsg::new(EnsembleJobId::new(WorkflowId(wf), JobId(job)), attempt)
    })
}

/// Text as the DAG frames carry it: any Unicode, including none.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..200)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Every variant of [`WireMsg`], every field arbitrary.
fn message() -> impl Strategy<Value = WireMsg<'static>> {
    let ack_kind =
        prop_oneof![Just(AckKind::Running), Just(AckKind::Completed), Just(AckKind::Failed)];
    let lifecycle_kind = prop_oneof![
        Just(LifecycleKind::Register),
        Just(LifecycleKind::Heartbeat),
        Just(LifecycleKind::Drain)
    ];
    prop_oneof![
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(worker, generation, window)| {
            WireMsg::Hello { worker, generation, window }
        }),
        Just(WireMsg::SubmitterHello),
        (dispatch(), any::<u32>(), ack_kind).prop_map(|(d, worker, kind)| {
            WireMsg::Ack(AckMsg::new(d.job, worker, kind, d.attempt))
        }),
        (any::<u32>(), any::<u32>(), lifecycle_kind).prop_map(|(worker, generation, kind)| {
            WireMsg::Lifecycle(LifecycleMsg::new(worker, generation, kind))
        }),
        (text(), text())
            .prop_map(|(name, dag)| WireMsg::Submit { name: name.into(), dag: dag.into() }),
        text().prop_map(|name| WireMsg::Repeat { name: name.into() }),
        (any::<u32>(), text(), text()).prop_map(|(id, name, dag)| WireMsg::Workflow {
            id: WorkflowId(id),
            name: name.into(),
            dag
        }),
        // An alias names an earlier workflow.
        (1..u32::MAX, text(), any::<u32>()).prop_map(|(id, name, earlier)| WireMsg::Alias {
            id: WorkflowId(id),
            name: name.into(),
            same_as: WorkflowId(earlier % id),
        }),
        prop::collection::vec(dispatch(), 0..40).prop_map(|run| WireMsg::DispatchBatch(run.into())),
        Just(WireMsg::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The frame decoder is total: bytes off a socket are a message or an
    /// error, and decoding them never asks for more memory than they
    /// could describe — a frame holds at most one dispatch per 12 bytes
    /// and no string longer than itself.
    #[test]
    fn decode_is_total_over_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let (_, largest) = largest_allocation(|| WireMsg::decode(&bytes));
        prop_assert!(largest <= bytes.len() + 12, "{largest} bytes for a {}-byte frame", bytes.len());
    }

    /// The same behind a valid version byte and a known type byte, which
    /// raw bytes get past once in a few thousand tries.
    #[test]
    fn decode_is_total_over_arbitrary_bodies(
        ty in prop_oneof![0x01u8..0x06, Just(0x07u8), Just(0x81u8), 0x83u8..0x86],
        body in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let frame: Vec<u8> = [PROTOCOL_VERSION, ty].into_iter().chain(body).collect();
        let (_, largest) = largest_allocation(|| WireMsg::decode(&frame));
        prop_assert!(largest <= frame.len() + 12, "{largest} bytes for a {}-byte frame", frame.len());
    }

    /// A batch header can claim any count. One the frame cannot hold is a
    /// truncated frame, found out by reading — not by reserving room for
    /// what was claimed.
    #[test]
    fn a_batch_count_the_frame_cannot_hold_is_truncated(
        held in prop::collection::vec(dispatch(), 0..20),
        excess in 1u32..u32::MAX,
        cut in 0usize..12,
    ) {
        let mut frame = WireMsg::DispatchBatch(held.clone().into()).encode();
        let claimed = (held.len() as u32).saturating_add(excess);
        frame[2..6].copy_from_slice(&claimed.to_be_bytes());
        // Optionally a torn last dispatch as well.
        frame.truncate(frame.len() - cut.min(held.len() * 12));
        let (decoded, largest) = largest_allocation(|| WireMsg::decode(&frame));
        prop_assert_eq!(decoded, Err(WireError::Truncated));
        prop_assert!(largest <= frame.len() + 12, "{largest} bytes for a {}-byte frame", frame.len());
    }

    /// Every message of every variant decodes to itself, and frames as
    /// `write_frame` frames its encoding.
    #[test]
    fn every_message_round_trips(msg in message()) {
        let payload = msg.encode();
        let (mut frame, mut framed) = (Vec::new(), Vec::new());
        msg.frame_into(&mut frame);
        write_frame(&mut framed, &payload).unwrap();
        prop_assert_eq!(frame, framed);
        prop_assert_eq!(WireMsg::decode(&payload), Ok(msg));
    }

    /// The framing layer is total over an arbitrary stream: frames come
    /// out until the stream ends or goes bad, none longer than the cap,
    /// and a length prefix past the cap is refused before it is allocated.
    /// (Mostly zero bytes, so that length prefixes are often small enough
    /// to be followed.)
    #[test]
    fn read_frame_is_total_over_an_arbitrary_stream(
        stream in prop::collection::vec(prop_oneof![Just(0u8), Just(0u8), Just(0u8), any::<u8>()], 0..400),
        max_frame in 0usize..64,
    ) {
        let mut rest = stream.as_slice();
        loop {
            let (read, largest) = largest_allocation(|| read_frame(&mut rest, max_frame));
            match read {
                Ok(Some(frame)) => {
                    prop_assert!(frame.len() <= max_frame);
                    prop_assert!(largest <= max_frame, "{largest} bytes under a cap of {max_frame}");
                }
                Ok(None) => {
                    prop_assert!(rest.is_empty(), "a clean end is the end");
                    break;
                }
                // An error may carry a formatted message; nothing else.
                Err(_) => {
                    prop_assert!(largest <= 256, "{largest} bytes to refuse a frame");
                    break;
                }
            }
        }
    }

    /// The same stream through the master's incremental reader, a read of
    /// at most `read_bound` bytes at a time: no request of the allocator is
    /// larger than the cap and one read (and the four-byte prefix), however
    /// many frames go by and whatever length the last one claims.
    #[test]
    fn frame_buf_never_asks_for_more_than_a_frame_and_a_read(
        stream in prop::collection::vec(prop_oneof![Just(0u8), Just(0u8), Just(0u8), any::<u8>()], 0..400),
        max_frame in 0usize..64,
        read_bound in 1usize..64,
    ) {
        let mut rest = stream.as_slice();
        let (refused, largest) = largest_allocation(|| {
            let mut buf = FrameBuf::new(max_frame, read_bound);
            loop {
                loop {
                    match buf.next_frame() {
                        Ok(Some(frame)) => assert!(frame.len() <= max_frame),
                        Ok(None) => break,
                        Err(_) => return true,
                    }
                }
                match buf.fill(&mut rest) {
                    Ok(0) => return false,
                    Ok(_) => {}
                    Err(_) => return true,
                }
            }
        });
        // An error may carry a formatted message; nothing else.
        let allowed = if refused { 256 } else { 4 + max_frame + read_bound };
        prop_assert!(largest <= allowed, "{largest} bytes under a cap of {max_frame} and reads of {read_bound}");
    }

    /// What `write_frame` frames, `read_frame` returns, back to back.
    #[test]
    fn frames_round_trip_through_a_stream(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 0..8),
    ) {
        let mut stream = Vec::new();
        for payload in &payloads {
            write_frame(&mut stream, payload).unwrap();
        }
        let mut rest = stream.as_slice();
        for payload in &payloads {
            prop_assert_eq!(read_frame(&mut rest, 80).unwrap(), Some(payload.clone()));
        }
        prop_assert_eq!(read_frame(&mut rest, 80).unwrap(), None);
    }
}
