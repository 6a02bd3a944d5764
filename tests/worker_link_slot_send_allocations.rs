//! Pins what a slot's own send costs a worker link in allocations: none. A
//! pull that finds nothing to run sends the outbox itself, swapping it for
//! the buffer sent last as the link's writer does, so once both buffers
//! have grown to a burst, publishing a job's acks and pulling after them
//! allocates nothing — a count that does not move with the machine's load.
//!
//! One test in its own binary, see `common`.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dewe::core::realtime::{Registry, TcpWorkerLink, TcpWorkerOptions};
use dewe::core::{AckKind, AckMsg, WireMsg};
use dewe::dag::{EnsembleJobId, JobId, WorkflowId};
use dewe::mq::WorkerTransport;

mod common;

#[global_allocator]
static GLOBAL: common::CountLive = common::CountLive;

/// Jobs per round, each a `Running` + `Completed` pair and a pull.
const JOBS: usize = 10_000;

#[test]
fn a_slot_that_finds_nothing_to_run_sends_a_jobs_acks_without_allocating() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let link = TcpWorkerLink::connect(addr, Registry::new(), TcpWorkerOptions::default()).unwrap();
    let (master, _) = listener.accept().unwrap();
    let ends = Arc::new(AtomicUsize::new(0));
    let reader = {
        let ends = Arc::clone(&ends);
        std::thread::spawn(move || count_ends(master, &ends))
    };
    // One round: each job's acks, then a pull that finds nothing and sends
    // them; then wait for the stand-in to have read each job's end.
    let round = |r: usize| {
        for j in 0..JOBS {
            let job = EnsembleJobId::new(WorkflowId(r as u32), JobId(j as u32));
            link.publish_ack(AckMsg::new(job, 0, AckKind::Running, 1));
            link.publish_ack(AckMsg::new(job, 0, AckKind::Completed, 1));
            assert_eq!(link.pull_dispatch(Duration::ZERO), None, "nothing is dispatched");
        }
        let began = Instant::now();
        while ends.load(Ordering::Relaxed) < (r + 1) * JOBS {
            assert!(began.elapsed() < Duration::from_secs(30), "the stand-in reads every end");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    round(0); // Warm-up: the buffers grow to a burst.
    let (allocations, ()) = common::allocations_during(|| round(1));
    let per_job = allocations as f64 / JOBS as f64;
    eprintln!("{allocations} allocations over {JOBS} jobs = {per_job:.4} a job");
    assert!(per_job <= 0.01, "{per_job:.4} allocations a job, ceiling 0.01");
    link.close();
    reader.join().unwrap();
}

/// Read `master` frame by frame into a buffer on the stack, counting the
/// terminal acks, until the link hangs up.
fn count_ends(mut master: TcpStream, ends: &AtomicUsize) {
    let mut frame = [0u8; 64];
    loop {
        let mut len = [0u8; 4];
        if master.read_exact(&mut len).is_err() {
            return;
        }
        let len = u32::from_be_bytes(len) as usize;
        master.read_exact(&mut frame[..len]).unwrap();
        if let Ok(WireMsg::Ack(ack)) = WireMsg::decode(&frame[..len]) {
            if ack.kind != AckKind::Running {
                ends.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
