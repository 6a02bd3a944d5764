//! One test, alone in its binary so that the process's descriptor count is
//! its own: connections that come and go leave nothing behind in the
//! master's endpoint — not a registered worker, not an open socket.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dewe_core::realtime::{TcpMaster, TcpMasterOptions};
use dewe_core::{AckKind, AckMsg, WireMsg};
use dewe_dag::{EnsembleJobId, JobId, WorkflowId};
use dewe_mq::write_frame;

#[test]
fn five_hundred_connections_come_and_go_and_leave_no_descriptor_open() {
    let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
    // (The listing counts the descriptor it is read through, both times.)
    let open = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let before = open();

    let mut hello = Vec::new();
    write_frame(&mut hello, &WireMsg::Hello { worker: 1, generation: 0, window: 4 }.encode())
        .unwrap();
    let job = EnsembleJobId::new(WorkflowId(0), JobId(0));
    let mut ack = Vec::new();
    write_frame(&mut ack, &WireMsg::Ack(AckMsg::new(job, 1, AckKind::Running, 1)).encode())
        .unwrap();
    for i in 0..500 {
        let mut stream = TcpStream::connect(master.local_addr()).unwrap();
        // Hangs up having said nothing, half a Hello, a Hello, or a Hello
        // and half an ack — seen by the master before it hangs up, or after.
        match i % 4 {
            0 => {}
            1 => stream.write_all(&hello[..hello.len() / 2]).unwrap(),
            2 => stream.write_all(&hello).unwrap(),
            _ => stream.write_all(&[&hello[..], &ack[..ack.len() / 2]].concat()).unwrap(),
        }
        if i % 8 < 4 {
            master.worker_conns();
        }
        drop(stream);
        master.worker_conns();
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while master.worker_conns() != 0 || open() != before {
        assert!(
            Instant::now() < deadline,
            "{} workers, {} descriptors over",
            master.worker_conns(),
            open() - before
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    master.shutdown();
    assert_eq!(open(), before - 1, "and shutdown closes the listener");
}
