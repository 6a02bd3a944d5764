//! Pins what a slot's send on its way into a job costs a worker link in
//! allocations: none. A pull that returns a dispatch sends the outbox
//! itself once half the window is queued as settling frames, swapping it
//! for the buffer sent last as every sender does, so once both buffers have
//! grown to a burst, taking a job, publishing its acks and taking the next
//! allocates nothing — a count that does not move with the machine's load.
//!
//! One test in its own binary, see `common`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dewe::core::realtime::{Registry, TcpWorkerLink, TcpWorkerOptions};
use dewe::core::{AckKind, AckMsg, DispatchMsg, WireMsg};
use dewe::dag::{EnsembleJobId, JobId, WorkflowId};
use dewe::mq::WorkerTransport;

mod common;

#[global_allocator]
static GLOBAL: common::CountLive = common::CountLive;

/// Jobs per round, dispatched in one batch; each is a pull that returns
/// it, then its `Running` + `Completed` pair.
const JOBS: usize = 10_000;

#[test]
fn a_slot_going_into_a_job_sends_half_a_window_of_acks_without_allocating() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = TcpWorkerOptions { window: 64, ..TcpWorkerOptions::default() };
    let link = TcpWorkerLink::connect(addr, Registry::new(), opts).unwrap();
    let (master, _) = listener.accept().unwrap();
    // Each round's dispatches, framed before anything is counted.
    let rounds: Vec<Vec<u8>> = (0..2).map(dispatches).collect();
    let ends = Arc::new(AtomicUsize::new(0));
    let stand_in = {
        let ends = Arc::clone(&ends);
        std::thread::spawn(move || serve(master, &rounds, &ends))
    };
    // One round: every job pulled, each pull after the first sending once
    // half the window has settled; a last pull finds nothing and sends the
    // rest; then wait for the stand-in to have read each job's end.
    let round = |r: usize| {
        for _ in 0..JOBS {
            let d = link.pull_dispatch(Duration::MAX).expect("a dispatch");
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Running, d.attempt));
            link.publish_ack(AckMsg::new(d.job, 0, AckKind::Completed, d.attempt));
        }
        assert_eq!(link.pull_dispatch(Duration::ZERO), None, "the round is done");
        let began = Instant::now();
        while ends.load(Ordering::Relaxed) < (r + 1) * JOBS {
            assert!(began.elapsed() < Duration::from_secs(30), "the stand-in reads every end");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    round(0); // Warm-up: the buffers, the inbox and the ring grow.
    let (allocations, ()) = common::allocations_during(|| round(1));
    let per_job = allocations as f64 / JOBS as f64;
    eprintln!("{allocations} allocations over {JOBS} jobs = {per_job:.4} a job");
    assert!(per_job <= 0.01, "{per_job:.4} allocations a job, ceiling 0.01");
    link.close();
    stand_in.join().unwrap();
}

/// Round `r`'s dispatches, workflow `r`'s jobs, as one framed batch.
fn dispatches(r: usize) -> Vec<u8> {
    let job = |j| EnsembleJobId::new(WorkflowId(r as u32), JobId(j as u32));
    let batch: Vec<DispatchMsg> = (0..JOBS).map(|j| DispatchMsg::new(job(j), 1)).collect();
    let mut frame = Vec::new();
    WireMsg::DispatchBatch(batch.into()).frame_into(&mut frame);
    frame
}

/// The stand-in master: send the first round, then read `master` frame by
/// frame into a buffer on the stack, counting the terminal acks, and send
/// each later round once every end of the one before has arrived, until
/// the link hangs up.
fn serve(mut master: TcpStream, rounds: &[Vec<u8>], ends: &AtomicUsize) {
    let mut frame = [0u8; 64];
    master.write_all(&rounds[0]).unwrap();
    loop {
        let mut len = [0u8; 4];
        if master.read_exact(&mut len).is_err() {
            return;
        }
        let len = u32::from_be_bytes(len) as usize;
        master.read_exact(&mut frame[..len]).unwrap();
        if let Ok(WireMsg::Ack(ack)) = WireMsg::decode(&frame[..len]) {
            if ack.kind != AckKind::Running {
                let ended = ends.fetch_add(1, Ordering::Relaxed) + 1;
                let next = rounds.get(ended / JOBS).filter(|_| ended.is_multiple_of(JOBS));
                if let Some(next) = next {
                    master.write_all(next).unwrap();
                }
            }
        }
    }
}
