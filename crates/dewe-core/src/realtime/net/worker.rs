use super::*;

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Options for [`TcpWorkerLink::connect`].
#[derive(Debug, Clone)]
pub struct TcpWorkerOptions {
    /// Worker identity sent in the Hello (informational; liveness
    /// identity travels in Lifecycle frames).
    pub worker_id: u32,
    /// Worker incarnation sent in the Hello.
    pub generation: u32,
    /// Dispatch window (unsettled-dispatch credit) offered to the
    /// master. Sensible default: slots × small factor.
    pub window: u32,
}

impl Default for TcpWorkerOptions {
    fn default() -> Self {
        Self { worker_id: 0, generation: 0, window: 8 }
    }
}

/// Wait between a worker link's connection attempts: while the master is
/// unreachable, and after a connection drops — how a link rides out a
/// master restart.
const RETRY_INTERVAL: Duration = Duration::from_millis(100);

struct WorkerInner {
    addr: SocketAddr,
    opts: TcpWorkerOptions,
    registry: Registry,
    /// Every DAG text the master has announced, parsed once each. Lives
    /// with the link, not the connection: a reconnect replays the whole
    /// registry and must find it already here.
    dags: DagStore,
    /// Dispatches delivered by the master, pulled by the slot loops.
    dispatch_in: Topic<DispatchMsg>,
    /// Frames to send; survives reconnects, so acks and heartbeats
    /// produced during a master outage are delivered after failover.
    outbound: Topic<Vec<u8>>,
    stop: AtomicBool,
    /// The master said Bye: don't reconnect, the ensemble is done.
    bye: AtomicBool,
    /// Current socket, for unblocking the reader on close.
    current: Mutex<Option<TcpStream>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

/// A worker daemon's connection to a remote master, with reconnect. The
/// [`WorkerTransport`] the standard worker slot/heartbeat loops drive.
#[derive(Clone)]
pub struct TcpWorkerLink {
    inner: Arc<WorkerInner>,
}

impl TcpWorkerLink {
    /// Connect to the master at `addr`, mirroring announced workflows
    /// into `registry`. Returns immediately; the connection (and any
    /// reconnects) are managed by a background thread. Fails only if
    /// `addr` does not resolve or that thread cannot be spawned.
    pub fn connect(
        addr: impl ToSocketAddrs,
        registry: Registry,
        opts: TcpWorkerOptions,
    ) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolves empty"))?;
        let inner = Arc::new(WorkerInner {
            addr,
            opts,
            registry,
            dags: DagStore::default(),
            dispatch_in: Topic::default(),
            outbound: Topic::default(),
            stop: AtomicBool::new(false),
            bye: AtomicBool::new(false),
            current: Mutex::new(None),
            supervisor: Mutex::new(None),
        });
        let sup_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("dewe-worker-link".into())
            .spawn(move || supervisor_loop(sup_inner))?;
        *inner.supervisor.lock() = Some(handle);
        Ok(Self { inner })
    }

    /// True once the master announced completion ([`WireMsg::Bye`]).
    pub fn master_said_bye(&self) -> bool {
        self.inner.bye.load(Ordering::Relaxed)
    }

    /// Tear the link down: stop reconnecting, close the socket and the
    /// local topics (releasing slot loops), and join the supervisor.
    pub fn close(&self) {
        let inner = &self.inner;
        if inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(s) = inner.current.lock().as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
        inner.dispatch_in.close();
        inner.outbound.close();
        if let Some(t) = inner.supervisor.lock().take() {
            let _ = t.join();
        }
    }
}

impl WorkerTransport for TcpWorkerLink {
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;

    fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
        self.inner.dispatch_in.pull_timeout(timeout)
    }

    fn dispatch_closed(&self) -> bool {
        self.inner.dispatch_in.is_closed()
    }

    fn redeliver(&self, dispatch: DispatchMsg) {
        // Over the wire the checkout goes back to the master, which
        // refunds the window credit and redelivers elsewhere.
        self.inner.outbound.publish(WireMsg::Return(dispatch).encode());
    }

    fn publish_ack(&self, ack: AckMsg) {
        self.inner.outbound.publish(WireMsg::Ack(ack).encode());
    }

    fn publish_lifecycle(&self, msg: LifecycleMsg) {
        self.inner.outbound.publish(WireMsg::Lifecycle(msg).encode());
    }
}

impl WorkerInner {
    /// Mirror announced workflow `id` into the local registry.
    fn mirror(&self, id: WorkflowId, dag: &str) {
        // Dense-insert guard, before the text is looked at: after a
        // reconnect the master replays its whole registry, and every
        // replayed frame is dropped here for the price of this compare.
        if id.index() != self.registry.len() {
            return;
        }
        match self.dags.intern(dag) {
            Ok(workflow) => self.registry.insert(id, workflow),
            Err(e) => eprintln!(
                "dewe-worker: bad workflow {id} from master: {e}; ids are mirrored densely, \
                 so this worker will refuse every later workflow as well"
            ),
        }
    }
}

/// Connect/reconnect loop: one live connection at a time, with the
/// reader on this thread and a writer thread per connection.
fn supervisor_loop(inner: Arc<WorkerInner>) {
    // Frames taken off `outbound` whose flush has not returned `Ok`: a
    // connection that dies hands its last batch back, and the next
    // connection's writer sends it first, whole and in order — possibly
    // twice (the master tolerates duplicates), never not at all.
    let mut unflushed: Vec<Vec<u8>> = Vec::new();
    let done = || inner.stop.load(Ordering::Relaxed) || inner.bye.load(Ordering::Relaxed);
    while !done() {
        if let Ok(stream) = TcpStream::connect_timeout(&inner.addr, Duration::from_secs(2)) {
            let _ = stream.set_nodelay(true);
            run_connection(&inner, stream, &mut unflushed);
            if done() {
                break;
            }
        }
        std::thread::sleep(RETRY_INTERVAL);
    }
    // No more deliveries are coming: release blocked slot loops.
    inner.dispatch_in.close();
}

fn run_connection(inner: &WorkerInner, stream: TcpStream, unflushed: &mut Vec<Vec<u8>>) {
    let Ok(read_half) = stream.try_clone() else { return };
    let Ok(write_half) = stream.try_clone() else { return };
    *inner.current.lock() = Some(stream);

    // Handshake, then hand the socket to the writer thread — scoped, so it
    // borrows the unflushed batch, and one that cannot be spawned is a
    // connection dropped before it carried a frame.
    let hello = WireMsg::Hello {
        worker: inner.opts.worker_id,
        generation: inner.opts.generation,
        window: inner.opts.window,
    };
    let conn_dead = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name("dewe-worker-link-writer".into())
            .spawn_scoped(scope, || {
                if write_link(inner, write_half, &hello.encode(), &conn_dead, unflushed).is_err() {
                    conn_dead.store(true, Ordering::Relaxed);
                }
            });

        let mut reader = BufReader::new(read_half);
        while writer.is_ok() {
            let Ok(Some(frame)) = read_frame(&mut reader, DEFAULT_MAX_FRAME) else { break };
            if let Ok(Some(DagFrame { id: Some(id), dag, .. })) = DagFrame::decode(&frame) {
                inner.mirror(id, dag);
                continue;
            }
            match WireMsg::decode(&frame) {
                Ok(WireMsg::Dispatch(d)) => inner.dispatch_in.publish(d),
                // In order and under one lock: the slot loops pull per job
                // exactly as if the run had arrived as individual frames.
                Ok(WireMsg::DispatchBatch(batch)) => inner.dispatch_in.publish_all(batch),
                Ok(WireMsg::Bye) => {
                    inner.bye.store(true, Ordering::Relaxed);
                    break;
                }
                Ok(other) => {
                    eprintln!("dewe-worker: unexpected frame {other:?}; reconnecting");
                    break;
                }
                Err(e) => {
                    eprintln!("dewe-worker: bad frame from master: {e}; reconnecting");
                    break;
                }
            }
        }
        // The writer sleeps on `outbound`: tell it the connection is over.
        conn_dead.store(true, Ordering::SeqCst);
        inner.outbound.kick();
        if let Some(s) = inner.current.lock().take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    });
}

/// One connection's writer: the handshake, then `outbound` onto the socket
/// until the link closes, the reader reports the connection `dead`, or a
/// write fails. It blocks for one frame, takes everything else already
/// queued, writes the lot and flushes once — a burst of acks is one
/// `send(2)`, a lone ack leaves at once — and a frame stays in `batch`,
/// the caller's, until the flush that carried it has returned `Ok`.
fn write_link(
    inner: &WorkerInner,
    socket: TcpStream,
    hello: &[u8],
    dead: &AtomicBool,
    batch: &mut Vec<Vec<u8>>,
) -> io::Result<()> {
    let mut w = BufWriter::new(socket);
    write_frame(&mut w, hello)?;
    loop {
        if batch.is_empty() {
            if dead.load(Ordering::SeqCst) {
                return Ok(());
            }
            match inner.outbound.pull_timeout(Duration::MAX) {
                Some(frame) => batch.push(frame),
                None if inner.outbound.is_closed() => return Ok(()),
                // The reader rang: look at `dead` again.
                None => continue,
            }
        }
        inner.outbound.try_pull_batch(batch, usize::MAX);
        for frame in batch.iter() {
            queue_frame_split(&mut w, frame, &[])?;
        }
        w.flush()?;
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realtime::testutil::{pump, wait_until, wf};

    #[test]
    fn worker_link_survives_master_restart_on_same_port() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let addr = master.local_addr();
        let registry = Registry::new();
        let link =
            TcpWorkerLink::connect(addr, registry.clone(), TcpWorkerOptions::default()).unwrap();
        master.announce(WorkflowAnnounce {
            id: WorkflowId(0),
            name: "a".into(),
            workflow: wf("a", 1),
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while registry.is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(registry.len(), 1);
        // Kill the master endpoint abruptly (no Bye — a crash). Acks the
        // worker produces once its link has seen the connection die wait
        // on the link, with no connection to carry them.
        master.kill();
        wait_until("the link notices", || link.inner.current.lock().is_none());
        let outage_job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        for j in 0..50 {
            link.publish_ack(AckMsg::new(outage_job(j), 0, AckKind::Completed, 1));
        }
        // Then bind a replacement on the same port (SO_REUSEADDR path)
        // and re-announce.
        let master2 = TcpMaster::bind(addr, TcpMasterOptions::default()).unwrap();
        let _pump2 = pump(&master2);
        master2.announce(WorkflowAnnounce {
            id: WorkflowId(0),
            name: "a".into(),
            workflow: wf("a", 1),
        });
        master2.announce(WorkflowAnnounce {
            id: WorkflowId(1),
            name: "b".into(),
            workflow: wf("b", 1),
        });
        // The link reconnects and mirrors the new announcement; the
        // replayed wf-0 is skipped by the dense-insert guard.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while registry.len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(registry.len(), 2, "reconnected and mirrored");
        // Every ack of the outage reaches the new master, in order.
        for j in 0..50 {
            let ack = master2.pull_ack(Duration::from_secs(10)).expect("an outage ack");
            assert_eq!(ack.job, outage_job(j));
        }
        // And an ack published after the restart still arrives.
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(1), dewe_dag::JobId(0));
        link.publish_ack(AckMsg::new(job, 0, AckKind::Completed, 1));
        let ack = master2.pull_ack(Duration::from_secs(10)).expect("ack after failover");
        assert_eq!(ack.job, job);
        master2.shutdown();
        link.close();
    }

    /// The link writer sleeps on `outbound` with no tick to fall back on:
    /// a burst published while it sleeps must wake it, and however the
    /// burst is cut into batches and flushes, the master sees every ack
    /// once and in order.
    #[test]
    fn acks_published_while_the_link_writer_sleeps_arrive_complete_and_in_order() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions::default(),
        )
        .unwrap();
        wait_until("the link registers", || master.worker_conns() == 1);
        wait_until("the link writer sleeps", || link.inner.outbound.stats().sleepers == 1);
        let job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        for j in 0..1000 {
            link.publish_ack(AckMsg::new(job(j), 0, AckKind::Running, 1));
        }
        for j in 0..1000 {
            let ack = master.pull_ack(Duration::from_secs(10)).expect("every ack arrives");
            assert_eq!(ack.job, job(j), "in order");
        }
        assert!(master.pull_ack(Duration::from_millis(50)).is_none(), "and only once");
        master.shutdown();
        link.close();
    }

    /// A peer for `write_link`: a listener, and the connected pair.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (theirs, _) = listener.accept().unwrap();
        (ours, theirs)
    }

    /// A batch is the link's until its flush has returned `Ok`. One that
    /// was written into a connection that then failed is sent again on the
    /// next connection — all of it, ahead of anything queued since, in
    /// order. (Some of it may arrive twice; the master tolerates that.)
    #[test]
    fn a_batch_whose_flush_failed_is_resent_whole_and_first_on_the_next_connection() {
        // A link whose supervisor never gets a connection (nothing listens
        // on port 1), so this test owns `outbound` and drives `write_link`
        // itself.
        let link =
            TcpWorkerLink::connect("127.0.0.1:1", Registry::new(), TcpWorkerOptions::default())
                .unwrap();
        let inner = Arc::clone(&link.inner);
        let job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        let frame = |j: u32| WireMsg::Ack(AckMsg::new(job(j), 0, AckKind::Completed, 1)).encode();
        let hello = WireMsg::Hello { worker: 0, generation: 0, window: 1 }.encode();

        // First connection: the peer resets it (closing with the hello
        // still unread sends RST, not FIN) while the writer sleeps.
        let (ours, theirs) = socket_pair();
        let probe = ours.try_clone().unwrap();
        let dead = Arc::new(AtomicBool::new(false));
        let writer = {
            let (inner, hello, dead) = (Arc::clone(&inner), hello.clone(), Arc::clone(&dead));
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                (write_link(&inner, ours, &hello, &dead, &mut batch), batch)
            })
        };
        wait_until("the writer sleeps", || inner.outbound.stats().sleepers == 1);
        drop(theirs);
        probe.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
        wait_until("the reset lands", || {
            !matches!(probe.peek(&mut [0u8; 1]), Err(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ))
        });
        inner.outbound.publish_all((0..10).map(frame));
        let (written, mut unflushed) = writer.join().unwrap();
        assert!(written.is_err(), "the flush into a reset connection fails");
        assert_eq!(unflushed.len(), 10, "and the batch is still the link's");
        // Acks keep coming during the outage.
        inner.outbound.publish_all((10..20).map(frame));

        // Second connection: everything arrives, the failed batch first.
        let (ours, theirs) = socket_pair();
        let writer = {
            let (inner, dead) = (Arc::clone(&inner), Arc::clone(&dead));
            std::thread::spawn(move || {
                (write_link(&inner, ours, &hello, &dead, &mut unflushed), unflushed)
            })
        };
        let mut reader = BufReader::new(theirs);
        let mut next = || WireMsg::decode(&read_frame(&mut reader, 1 << 20).unwrap().unwrap());
        assert!(matches!(next(), Ok(WireMsg::Hello { .. })));
        for j in 0..20 {
            match next() {
                Ok(WireMsg::Ack(ack)) => assert_eq!(ack.job, job(j), "in order, none lost"),
                other => panic!("expected ack {j}, got {other:?}"),
            }
        }
        // The reader's way of ending a writer that sleeps: flag, then kick.
        dead.store(true, Ordering::SeqCst);
        inner.outbound.kick();
        let (written, unflushed) = writer.join().unwrap();
        assert!(written.is_ok());
        assert!(unflushed.is_empty(), "a flushed batch is let go");
        link.close();
    }
}
