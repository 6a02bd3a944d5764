use super::spool::{load_spool, spool_workflow};
use super::*;

// ---------------------------------------------------------------------------
// Master side
// ---------------------------------------------------------------------------

/// Options for [`TcpMaster::bind`].
#[derive(Debug, Clone, Default)]
pub struct TcpMasterOptions {
    /// Spool accepted workflows to `wf-<id>.dag` files in this directory
    /// so a restarted master process can rebuild its registry (see
    /// [`TcpMaster::load_spool`]). `None` disables spooling.
    pub state_dir: Option<PathBuf>,
}

/// One connected worker, from the master's side.
struct Conn {
    /// Outbound frames; a dedicated writer thread drains this, so the
    /// master loop never blocks on a slow worker's socket.
    out: Topic<OutFrame>,
    /// Dispatch credit for this connection.
    window: SendWindow,
}

impl Conn {
    fn send(&self, msg: &WireMsg) {
        self.out.publish(OutFrame { head: msg.encode(), text: None });
    }
}

struct MasterInner {
    local_addr: SocketAddr,
    stop: AtomicBool,
    submission: Topic<SubmissionMsg>,
    ack: Topic<AckMsg>,
    lifecycle: Topic<LifecycleMsg>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_conn: AtomicU64,
    /// Dispatches that found no window credit, FIFO per arrival.
    pending: Mutex<VecDeque<DispatchMsg>>,
    /// Every announcement so far, as sent, replayed to late-joining
    /// workers. Also the synchronization point between `announce`
    /// broadcasts and Hello replays (see `worker_conn_loop`).
    announced: Mutex<Vec<OutFrame>>,
    /// Every DAG text this master has been handed, parsed once each.
    dags: DagStore,
    state_dir: Option<PathBuf>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

/// The master's TCP endpoint: accepts worker and submitter connections
/// and exposes them to the serve loop as a [`Transport`]. Clones share
/// the endpoint.
#[derive(Clone)]
pub struct TcpMaster {
    inner: Arc<MasterInner>,
}

impl TcpMaster {
    /// Bind the master endpoint and start accepting connections.
    /// `addr` may use port 0 to let the OS pick (see
    /// [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, options: TcpMasterOptions) -> io::Result<Self> {
        if let Some(dir) = &options.state_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = bind_reuse(addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(MasterInner {
            local_addr,
            stop: AtomicBool::new(false),
            submission: Topic::default(),
            ack: Topic::default(),
            lifecycle: Topic::default(),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            pending: Mutex::new(VecDeque::new()),
            announced: Mutex::new(Vec::new()),
            dags: DagStore::default(),
            state_dir: options.state_dir,
            accept_thread: Mutex::new(None),
        });
        let accept_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("dewe-master-accept".into())
            .spawn(move || accept_loop(accept_inner, listener))
            .expect("spawn accept thread");
        *inner.accept_thread.lock() = Some(handle);
        Ok(Self { inner })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Number of currently connected worker connections.
    pub fn worker_conns(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Load every workflow spooled to this endpoint's state directory,
    /// sorted by id and verified dense — the registry rebuild for a
    /// restarted master process. Spool files with the same DAG text come
    /// back as one shared `Arc<Workflow>`, and the endpoint remembers the
    /// text, so re-announcing the recovered registry serialises nothing.
    /// No state directory, or an empty or missing one, loads nothing (a
    /// cold start).
    pub fn load_spool(&self) -> io::Result<Vec<(WorkflowId, String, Arc<Workflow>)>> {
        match &self.inner.state_dir {
            Some(dir) => load_spool(dir, &self.inner.dags),
            None => Ok(Vec::new()),
        }
    }

    /// Stop the endpoint gracefully: send [`WireMsg::Bye`] to every
    /// worker (telling their links not to reconnect — the ensemble is
    /// done), close the internal topics (releasing the serve loop), and
    /// join the accept thread, which joins every connection thread. When
    /// this returns each `Bye` has been flushed and every socket — worker,
    /// submitter or still shaking hands — is closed: a process may exit on
    /// the next line and no peer is cut off mid-frame.
    pub fn shutdown(&self) {
        self.stop(true);
    }

    /// Kill the endpoint abruptly — connections drop with *no* Bye, as a
    /// crashed master would drop them — so worker links keep
    /// reconnecting and ride out a restart. The crash half of the
    /// kill/restart recovery drill.
    pub fn kill(&self) {
        self.stop(false);
    }

    fn stop(&self, say_bye: bool) {
        let inner = &self.inner;
        if inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let conns = inner.conns.lock();
            for conn in conns.values() {
                if say_bye {
                    conn.send(&WireMsg::Bye);
                }
                // Close after Bye: the writer drains queued frames
                // (including the Bye) before exiting. The accept thread
                // ends the connection's reader (see `accept_loop`).
                conn.out.close();
            }
        }
        inner.submission.close();
        inner.ack.close();
        inner.lifecycle.close();
        if let Some(t) = inner.accept_thread.lock().take() {
            // The accept thread sleeps in `accept` (or, after a failed
            // one, parked); a connection to ourselves is the wake-up, and
            // the stop flag set above is what it finds.
            let mut wake = inner.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Transport for TcpMaster {
    type Submission = SubmissionMsg;
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;
    type Announce = WorkflowAnnounce;

    fn try_pull_submission(&self) -> Option<SubmissionMsg> {
        self.inner.submission.try_pull()
    }

    fn pull_ack(&self, timeout: Duration) -> Option<AckMsg> {
        self.inner.ack.pull_timeout(timeout)
    }

    fn pull_ack_batch(&self, out: &mut Vec<AckMsg>, max: usize) -> usize {
        self.inner.ack.try_pull_batch(out, max)
    }

    fn try_pull_lifecycle(&self) -> Option<LifecycleMsg> {
        self.inner.lifecycle.try_pull()
    }

    fn publish_dispatch(&self, _: usize, dispatch: DispatchMsg) {
        self.inner.pending.lock().push_back(dispatch);
        self.inner.drain_pending();
    }

    fn publish_dispatch_batch(&self, _: usize, batch: &mut Vec<DispatchMsg>) {
        self.inner.try_send_batch(batch);
        if !batch.is_empty() {
            self.inner.pending.lock().extend(batch.drain(..));
            self.inner.drain_pending();
        }
    }

    fn announce(&self, announce: WorkflowAnnounce) {
        let WorkflowAnnounce { id, name, workflow } = announce;
        // The text the submitter sent (or the spool held) is the text
        // that is spooled and announced; nothing is serialised here.
        let text = self.inner.dags.text_of(&workflow);
        if let Some(dir) = &self.inner.state_dir {
            if let Err(e) = spool_workflow(dir, id, &name, &text) {
                eprintln!("dewe-master: failed to spool workflow {id} to {}: {e}", dir.display());
            }
        }
        let head = DagFrame { id: Some(id), name: &name, dag: &text }.head();
        let frame = OutFrame { head, text: Some(text) };
        // Holding `announced` across the broadcast closes the race with
        // a concurrent Hello replay: a late-joining worker either shows
        // up in `conns` here, or snapshots this workflow from
        // `announced` — never neither.
        let mut announced = self.inner.announced.lock();
        for conn in self.inner.conns.lock().values() {
            conn.out.publish(frame.clone());
        }
        announced.push(frame);
    }

    fn ack_closed(&self) -> bool {
        self.inner.ack.is_closed()
    }
}

impl MasterInner {
    /// Place a run of dispatches, spending window credit in batch debits
    /// and splitting across connections as credit allows.
    /// Sent dispatches are drained from the front of `batch` (delivery
    /// order preserved); whatever found no credit stays behind. Returns
    /// how many were sent. Runs of one travel as plain [`WireMsg::
    /// Dispatch`] frames; longer runs coalesce into one
    /// [`WireMsg::DispatchBatch`] frame per granted connection.
    fn try_send_batch(&self, batch: &mut Vec<DispatchMsg>) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let mut sent = 0;
        {
            let conns = self.conns.lock();
            for conn in conns.values() {
                if sent == batch.len() {
                    break;
                }
                let want = (batch.len() - sent) as u32;
                let granted = conn.window.try_acquire_n(want) as usize;
                if granted == 0 {
                    continue;
                }
                let run = &batch[sent..sent + granted];
                if granted == 1 {
                    conn.send(&WireMsg::Dispatch(run[0]));
                } else {
                    conn.send(&WireMsg::DispatchBatch(run.to_vec()));
                }
                sent += granted;
            }
        }
        batch.drain(..sent);
        sent
    }

    /// Retry queued dispatches against current credit, coalescing what
    /// can go into one batch placement. Called whenever credit is
    /// refunded or a new worker connects.
    fn drain_pending(&self) {
        let mut pending = self.pending.lock();
        if pending.is_empty() {
            return;
        }
        // Collect no more of the queue than the total free credit: a
        // deep backlog drains one refund at a time, and copying the whole
        // queue to have try_send_batch grant one dispatch would turn each
        // refund into an O(queue) scan. The estimate is racy only in the
        // safe direction — a concurrent release adds credit the next
        // drain will use.
        let free: usize = {
            let conns = self.conns.lock();
            conns
                .values()
                .map(|c| c.window.limit().saturating_sub(c.window.in_flight()) as usize)
                .sum()
        };
        let take = pending.len().min(free);
        if take == 0 {
            return;
        }
        let mut batch: Vec<DispatchMsg> = pending.range(..take).copied().collect();
        let sent = self.try_send_batch(&mut batch);
        pending.drain(..sent);
    }

    /// Drop a connection from the routing map and close its out topic.
    /// Deliberately does NOT shut the socket down: a graceful stop parks
    /// the Bye frame on the out topic, and the writer thread must drain
    /// it onto the wire first. The conn loop joins the writer and its
    /// thread then hard-closes the socket.
    fn remove_conn(&self, id: u64) {
        if let Some(conn) = self.conns.lock().remove(&id) {
            conn.out.close();
        }
    }
}

/// Accept connections until stopped, one thread each, and own those
/// threads: when the endpoint stops, every connection still open is shut
/// down and its thread joined here, so joining this thread is joining them
/// all. Blocks in `accept`; [`TcpMaster::stop`] sets the flag and connects
/// to wake it.
fn accept_loop(inner: Arc<MasterInner>, listener: std::net::TcpListener) {
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            // A peer that gave up while it sat in the backlog.
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(e) => {
                // Out of descriptors or memory. Take no new connections,
                // but keep the ones there are until told to stop.
                eprintln!("dewe-master: accept failed, taking no new connections: {e}");
                while !inner.stop.load(Ordering::SeqCst) {
                    std::thread::park();
                }
                break;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        conns.retain(|(_, thread)| !thread.is_finished());
        let Ok(handle) = stream.try_clone() else { continue };
        let conn_inner = Arc::clone(&inner);
        let spawned =
            std::thread::Builder::new().name("dewe-master-conn".into()).spawn(move || {
                serve_conn(conn_inner, &stream);
                // `handle` above outlives this thread, so dropping `stream`
                // would not close the socket: hang up explicitly.
                let _ = stream.shutdown(Shutdown::Both);
            });
        if let Ok(thread) = spawned {
            conns.push((handle, thread));
        }
    }
    drop(listener);
    for (stream, _) in &conns {
        // Ends the connection's blocking read, whatever its role and
        // however far its handshake got. Write halves stay open: a worker
        // connection's writer still has its `Bye` to flush.
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (_, thread) in conns {
        let _ = thread.join();
    }
}

/// Handle one inbound connection: handshake, then the per-role frame
/// loop. Any decode error (version skew first) drops the connection.
fn serve_conn(inner: Arc<MasterInner>, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let hello = match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
        Ok(Some(frame)) => match WireMsg::decode(&frame) {
            Ok(msg) => msg,
            Err(e) => {
                eprintln!("dewe-master: rejecting connection: {e}");
                return;
            }
        },
        _ => return,
    };
    match hello {
        WireMsg::Hello { worker, generation, window } => {
            let _ = (worker, generation); // liveness identity arrives via Lifecycle frames
            worker_conn_loop(inner, stream, reader, window);
        }
        WireMsg::SubmitterHello => submitter_conn_loop(inner, reader),
        other => {
            eprintln!("dewe-master: unexpected handshake {other:?}; dropping connection");
        }
    }
}

fn worker_conn_loop(
    inner: Arc<MasterInner>,
    stream: &TcpStream,
    mut reader: BufReader<TcpStream>,
    window: u32,
) {
    let Ok(write_half) = stream.try_clone() else { return };
    let conn = Arc::new(Conn { out: Topic::default(), window: SendWindow::new(window) });
    let id = inner.next_conn.fetch_add(1, Ordering::Relaxed);

    // Writer thread: drains the out topic onto the socket. It blocks for
    // one frame, queues that and everything else already waiting, and
    // flushes once before it blocks again: a burst of frames is one
    // `send(2)`, a lone frame (a chain's next hop) leaves at once.
    let writer_conn = Arc::clone(&conn);
    let spawned =
        std::thread::Builder::new().name("dewe-master-conn-writer".into()).spawn(move || {
            let mut w = BufWriter::new(write_half);
            let mut batch: Vec<OutFrame> = Vec::new();
            while let Some(first) = writer_conn.out.pull() {
                batch.push(first);
                writer_conn.out.try_pull_batch(&mut batch, usize::MAX);
                let queued = batch.drain(..).try_for_each(|frame| frame.queue_to(&mut w));
                if queued.and_then(|()| w.flush()).is_err() {
                    break;
                }
            }
        });
    // Once per accepted connection, so a peer can drive this to failure by
    // opening connections: that costs it this connection (nothing is
    // registered yet), not the master a panicked thread.
    let writer = match spawned {
        Ok(writer) => writer,
        Err(e) => {
            eprintln!("dewe-master: no writer thread for a worker connection: {e}; dropping it");
            return;
        }
    };

    // Registry replay + registration, synchronized against `announce`.
    {
        let announced = inner.announced.lock();
        for frame in announced.iter() {
            conn.out.publish(frame.clone());
        }
        inner.conns.lock().insert(id, Arc::clone(&conn));
    }
    inner.drain_pending();

    // Credits refunded since the last pending-queue drain. Refunds are
    // coalesced per read burst: a flood of terminal acks sitting in the
    // read buffer releases all its credit *before* the drain runs, so a
    // deep dispatch backlog leaves as one DispatchBatch frame instead
    // of one frame per ack.
    let mut refunds = 0u32;
    while !inner.stop.load(Ordering::Relaxed) {
        let frame = match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(Some(f)) => f,
            _ => break,
        };
        match WireMsg::decode(&frame) {
            Ok(WireMsg::Ack(ack)) => {
                // Terminal acks settle a dispatch: refund the credit
                // before the serve loop even sees the ack.
                if matches!(ack.kind, AckKind::Completed | AckKind::Failed) {
                    conn.window.release();
                    refunds += 1;
                }
                inner.ack.publish(ack);
            }
            Ok(WireMsg::Lifecycle(msg)) => {
                inner.lifecycle.publish(msg);
                inner.ack.kick();
            }
            Ok(WireMsg::Return(d)) => {
                // A stopping worker hands back an unstarted checkout:
                // refund and queue it; the drain below redelivers it to
                // whoever has credit.
                conn.window.release();
                refunds += 1;
                inner.pending.lock().push_back(d);
            }
            Ok(other) => {
                eprintln!("dewe-master: unexpected worker frame {other:?}; dropping connection");
                break;
            }
            Err(e) => {
                eprintln!("dewe-master: bad worker frame: {e}; dropping connection");
                break;
            }
        }
        // Drain once the read buffer empties (the burst is over and the
        // next read would block) — or every 64 refunds, so a sustained
        // ack flood cannot starve the pending queue indefinitely.
        if refunds > 0 && (refunds >= 64 || reader.buffer().is_empty()) {
            inner.drain_pending();
            refunds = 0;
        }
    }
    inner.remove_conn(id);
    if refunds > 0 {
        // The socket closed mid-burst (a stopping worker sends its
        // Returns and hangs up): redeliver what it handed back now that
        // its connection no longer competes for the credit.
        inner.drain_pending();
    }
    // Let the writer flush whatever is still queued — on a graceful stop
    // that includes the Bye telling the worker's link not to reconnect —
    // before the caller hard-closes the socket. The writer cannot hang:
    // the out topic is closed (remove_conn above, or the stop path), so
    // `pull` returns None once the queue drains, and a dead peer fails
    // the write immediately.
    let _ = writer.join();
}

fn submitter_conn_loop(inner: Arc<MasterInner>, mut reader: BufReader<TcpStream>) {
    while !inner.stop.load(Ordering::Relaxed) {
        let frame = match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(Some(f)) => f,
            _ => break,
        };
        // Decoded in place: a DAG already in the store costs this
        // connection one hash and one compare of the frame it just read.
        let (name, dag) = match DagFrame::decode(&frame) {
            Ok(Some(DagFrame { id: None, name, dag })) => (name, dag),
            Ok(_) => {
                eprintln!(
                    "dewe-master: unexpected submitter frame (type {:#04x}); dropping connection",
                    frame.get(1).copied().unwrap_or_default()
                );
                break;
            }
            Err(e) => {
                eprintln!("dewe-master: bad submitter frame: {e}; dropping connection");
                break;
            }
        };
        match inner.dags.intern(dag) {
            Ok(workflow) => {
                inner.submission.publish(SubmissionMsg { name: name.to_string(), workflow });
                // The serve loop sleeps on the ack topic: ring it.
                inner.ack.kick();
            }
            Err(e) => eprintln!("dewe-master: rejecting submission {name:?}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{scratch, wait_until, wf};
    use super::*;

    /// Pull `n` submissions and register + announce each, as the serve
    /// loop does.
    fn ingest(master: &TcpMaster, registry: &Registry, n: usize) {
        for _ in 0..n {
            let mut sub = None;
            wait_until("a submission arrives", || {
                sub = master.try_pull_submission();
                sub.is_some()
            });
            let SubmissionMsg { name, workflow } = sub.expect("waited for it");
            let id = WorkflowId::from_index(registry.len());
            registry.insert(id, Arc::clone(&workflow));
            master.announce(WorkflowAnnounce { id, name, workflow });
        }
    }

    fn assert_shares_like_the_submissions(registry: &Registry, who: &str) {
        let at = |i: u32| registry.get(WorkflowId(i)).expect("dense mirror");
        assert_eq!(registry.len(), 4, "{who}");
        assert!(Arc::ptr_eq(&at(0), &at(1)), "{who}: identical texts share one topology");
        assert!(Arc::ptr_eq(&at(0), &at(3)), "{who}: ... across a distinct one in between");
        assert!(!Arc::ptr_eq(&at(0), &at(2)), "{who}: a distinct text is its own workflow");
        assert_eq!((at(0).job_count(), at(2).job_count()), (3, 5), "{who}");
    }

    #[test]
    fn identical_dags_are_parsed_once_and_travel_verbatim() {
        let dir = scratch("ingest");
        let options = || TcpMasterOptions { state_dir: Some(dir.clone()) };
        let master = TcpMaster::bind("127.0.0.1:0", options()).unwrap();
        let addr = master.local_addr();
        let connect = |registry: &Registry| {
            TcpWorkerLink::connect(addr, registry.clone(), TcpWorkerOptions::default()).unwrap()
        };
        let early_mirror = Registry::new();
        let early = connect(&early_mirror);

        // Three submissions of one text — not what `write_workflow` would
        // produce, so a re-serialised spool or announcement shows — and
        // one of another, in between.
        let common = "# as submitted\nworkflow  w\nJOB a t CPU 1\nJOB b t CPU 1\n\
                      JOB c t CPU 1\nPARENT a CHILD b c\n";
        let distinct = dewe_dag::write_workflow(&wf("other", 5));
        submit_over_tcp(addr, ["w-0", "w-1"], common).unwrap();
        let registry = Registry::new();
        ingest(&master, &registry, 2);
        submit_over_tcp(addr, ["other"], &distinct).unwrap();
        ingest(&master, &registry, 1);
        submit_over_tcp(addr, ["w-3"], common).unwrap();
        ingest(&master, &registry, 1);
        assert_shares_like_the_submissions(&registry, "master registry");

        wait_until("the early worker has mirrored all four", || early_mirror.len() == 4);
        assert_shares_like_the_submissions(&early_mirror, "early worker");
        // A worker that joins late gets the same mirror from the replay.
        let late_mirror = Registry::new();
        let late = connect(&late_mirror);
        wait_until("the late worker has mirrored all four", || late_mirror.len() == 4);
        assert_shares_like_the_submissions(&late_mirror, "late worker");

        // Each spool file is its name line plus the submitter's bytes.
        let spooled = |i: u32| std::fs::read_to_string(dir.join(format!("wf-{i:08}.dag"))).unwrap();
        assert_eq!(spooled(0), format!("w-0\n{common}"));
        assert_eq!(spooled(1), format!("w-1\n{common}"));
        assert_eq!(spooled(2), format!("other\n{distinct}"));
        assert_eq!(spooled(3), format!("w-3\n{common}"));

        // Crash and restart on the same port: the spool comes back
        // shared, and re-announcing it is the recovery path's replay.
        master.kill();
        let master2 = TcpMaster::bind(addr, options()).unwrap();
        let recovered = Registry::new();
        for (id, name, workflow) in master2.load_spool().unwrap() {
            recovered.insert(id, Arc::clone(&workflow));
            master2.announce(WorkflowAnnounce { id, name, workflow });
        }
        assert_shares_like_the_submissions(&recovered, "recovered registry");
        assert_eq!(spooled(3), format!("w-3\n{common}"), "re-spooled from the stored text");
        // The reconnecting workers are replayed all four and keep the
        // mirror they had; a fifth workflow still lands densely.
        submit_over_tcp(addr, ["w-4"], common).unwrap();
        ingest(&master2, &recovered, 1);
        for (mirror, who) in [(&early_mirror, "early worker"), (&late_mirror, "late worker")] {
            wait_until("the fifth workflow is mirrored", || mirror.len() == 5);
            let at = |i: u32| mirror.get(WorkflowId(i)).expect("dense mirror");
            assert!(Arc::ptr_eq(&at(0), &at(1)) && !Arc::ptr_eq(&at(0), &at(2)), "{who}");
            assert!(Arc::ptr_eq(&at(0), &at(4)), "{who}: its store outlived the connection");
        }
        master2.shutdown();
        early.close();
        late.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_workflow_that_does_not_parse_stops_the_mirror_without_wedging_the_link() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let mirror = Registry::new();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            mirror.clone(),
            TcpWorkerOptions::default(),
        )
        .unwrap();
        wait_until("the link registers", || master.worker_conns() == 1);
        // A master only announces what it parsed; forge the frames.
        let forge = |id: u32, dag: &str| {
            let text: Arc<str> = dag.into();
            let head = DagFrame { id: Some(WorkflowId(id)), name: "x", dag: &text }.head();
            for conn in master.inner.conns.lock().values() {
                conn.out.publish(OutFrame { head: head.clone(), text: Some(Arc::clone(&text)) });
            }
        };
        forge(0, "JOB a t CPU 1");
        forge(1, "JOB broken");
        forge(2, "JOB c t CPU 1");
        // Dispatches still flow after the refused workflows.
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(0));
        master.publish_dispatch(0, DispatchMsg::new(job, 1));
        assert_eq!(link.pull_dispatch(Duration::from_secs(10)).expect("dispatch").job, job);
        assert_eq!(mirror.len(), 1, "nothing after the bad workflow is mirrored");
        master.shutdown();
        link.close();
    }

    #[test]
    fn tcp_link_delivers_dispatches_and_acks() {
        // Transport-level smoke: master endpoint + one worker link, no
        // serve loop — drive the Transport/WorkerTransport traits by hand.
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let registry = Registry::new();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            registry.clone(),
            TcpWorkerOptions { worker_id: 3, window: 4, ..TcpWorkerOptions::default() },
        )
        .unwrap();

        // Announce, then dispatch: the worker mirror must hold the DAG
        // before the dispatch arrives.
        let workflow = wf("net", 2);
        master.announce(WorkflowAnnounce {
            id: WorkflowId(0),
            name: "net".into(),
            workflow: Arc::clone(&workflow),
        });
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(1));
        master.publish_dispatch(0, DispatchMsg::new(job, 1));

        let d = link.pull_dispatch(Duration::from_secs(10)).expect("dispatch arrives");
        assert_eq!(d.job, job);
        assert_eq!(registry.len(), 1, "workflow mirrored before dispatch");
        assert_eq!(registry.get(WorkflowId(0)).unwrap().job_count(), 2);

        link.publish_ack(AckMsg::new(job, 3, AckKind::Running, 1));
        link.publish_ack(AckMsg::new(job, 3, AckKind::Completed, 1));
        let a1 = master.pull_ack(Duration::from_secs(10)).expect("running ack");
        assert_eq!(a1.kind, AckKind::Running);
        let a2 = master.pull_ack(Duration::from_secs(10)).expect("completed ack");
        assert_eq!(a2.kind, AckKind::Completed);

        master.shutdown();
        assert!(master.ack_closed());
        link.close();
    }

    #[test]
    fn window_credit_throttles_and_terminal_acks_refund() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let registry = Registry::new();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            registry,
            TcpWorkerOptions { worker_id: 0, window: 1, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        // Wait for the link to register.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while master.worker_conns() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(master.worker_conns(), 1);

        let job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        master.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        master.publish_dispatch(0, DispatchMsg::new(job(1), 1));
        let d0 = link.pull_dispatch(Duration::from_secs(10)).expect("first dispatch");
        assert_eq!(d0.job, job(0));
        // Window is 1: the second dispatch is held back until the first
        // settles.
        assert!(link.pull_dispatch(Duration::from_millis(200)).is_none(), "window throttles");
        link.publish_ack(AckMsg::new(job(0), 0, AckKind::Completed, 1));
        let d1 = link.pull_dispatch(Duration::from_secs(10)).expect("second after refund");
        assert_eq!(d1.job, job(1));

        master.shutdown();
        link.close();
    }

    #[test]
    fn batch_frames_round_trip_in_order() {
        // publish_dispatch_batch with credit available for the whole run
        // sends one DispatchBatch frame; the worker explodes it back
        // into per-job dispatches in emission order.
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions { worker_id: 7, window: 8, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while master.worker_conns() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        let mut batch: Vec<DispatchMsg> = (0..5).map(|j| DispatchMsg::new(job(j), 1)).collect();
        master.publish_dispatch_batch(0, &mut batch);
        assert!(batch.is_empty(), "batch publish drains its buffer");
        for j in 0..5 {
            let d = link.pull_dispatch(Duration::from_secs(10)).expect("batched dispatch");
            assert_eq!(d.job, job(j), "order preserved on the connection");
        }
        master.shutdown();
        link.close();
    }

    #[test]
    fn batch_splits_at_the_window_and_resumes_on_refund() {
        // A run longer than the worker's window is debited atomically up
        // to the free credit; the overflow parks in pending and flows as
        // terminal acks refund — same semantics as per-job publishes.
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions { worker_id: 1, window: 2, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while master.worker_conns() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        let mut batch: Vec<DispatchMsg> = (0..4).map(|j| DispatchMsg::new(job(j), 1)).collect();
        master.publish_dispatch_batch(0, &mut batch);
        let d0 = link.pull_dispatch(Duration::from_secs(10)).expect("first of split batch");
        let d1 = link.pull_dispatch(Duration::from_secs(10)).expect("second of split batch");
        assert_eq!((d0.job, d1.job), (job(0), job(1)));
        assert!(
            link.pull_dispatch(Duration::from_millis(200)).is_none(),
            "window of 2 holds the rest back"
        );
        link.publish_ack(AckMsg::new(job(0), 1, AckKind::Completed, 1));
        link.publish_ack(AckMsg::new(job(1), 1, AckKind::Failed, 1));
        let d2 = link.pull_dispatch(Duration::from_secs(10)).expect("third after refund");
        let d3 = link.pull_dispatch(Duration::from_secs(10)).expect("fourth after refund");
        assert_eq!((d2.job, d3.job), (job(2), job(3)));
        master.shutdown();
        link.close();
    }

    #[test]
    fn returned_checkout_is_redelivered() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions::default(),
        )
        .unwrap();
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(0));
        master.publish_dispatch(0, DispatchMsg::new(job, 1));
        let d = link.pull_dispatch(Duration::from_secs(10)).expect("dispatch");
        // The worker hands it back (kill path) — the master redelivers.
        link.redeliver(d);
        let d2 = link.pull_dispatch(Duration::from_secs(10)).expect("redelivered");
        assert_eq!(d2.job, job);
        master.shutdown();
        link.close();
    }

    /// When `shutdown` returns there is nothing left to wait for: every
    /// connection thread has been joined, so every `Bye` is on the wire
    /// and every socket closed. A peer reads `Bye` and then end-of-stream
    /// with no help from a grace period — the daemon exits on the line
    /// after `shutdown`.
    #[test]
    fn shutdown_returns_with_every_bye_flushed_and_every_socket_closed() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        // Workers by hand, so the test sees exactly what the master sent.
        let mut workers: Vec<BufReader<TcpStream>> = (0..3)
            .map(|worker| {
                let mut stream = TcpStream::connect(master.local_addr()).unwrap();
                let hello = WireMsg::Hello { worker, generation: 0, window: 4 };
                write_frame(&mut stream, &hello.encode()).unwrap();
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                BufReader::new(stream)
            })
            .collect();
        wait_until("the workers register", || master.worker_conns() == 3);
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(0));
        master.publish_dispatch(0, DispatchMsg::new(job, 1));

        master.shutdown();
        // The accept thread and each connection's reader and writer held
        // a reference; this handle's is the only one left.
        assert_eq!(Arc::strong_count(&master.inner), 1, "every endpoint thread has exited");
        let mut dispatches = 0;
        for reader in &mut workers {
            loop {
                let frame = read_frame(reader, 1 << 20).unwrap().expect("Bye comes before EOF");
                match WireMsg::decode(&frame).unwrap() {
                    WireMsg::Dispatch(d) => {
                        assert_eq!(d.job, job);
                        dispatches += 1;
                    }
                    WireMsg::Bye => break,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            assert!(read_frame(reader, 1 << 20).unwrap().is_none(), "then end of stream");
        }
        assert_eq!(dispatches, 1, "what was queued ahead of the Bye was flushed too");
    }

    /// Submitter connections — and connections that never said who they
    /// are — sit in a blocking read the master's stop must end itself.
    #[test]
    fn open_submitter_and_silent_connections_do_not_hang_shutdown() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let mut submitter = TcpStream::connect(master.local_addr()).unwrap();
        write_frame(&mut submitter, &WireMsg::SubmitterHello.encode()).unwrap();
        let dag = dewe_dag::write_workflow(&wf("held-open", 1));
        let head = DagFrame { id: None, name: "held-open", dag: &dag }.head();
        write_frame_split(&mut submitter, &head, dag.as_bytes()).unwrap();
        let mut silent = TcpStream::connect(master.local_addr()).unwrap();
        // The submission arriving proves the submitter's thread is in its
        // frame loop; the silent peer's is in the handshake read, or will
        // be turned away at accept.
        ingest(&master, &Registry::new(), 1);

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stopper = {
            let master = master.clone();
            std::thread::spawn(move || {
                master.shutdown();
                let _ = done_tx.send(());
            })
        };
        done_rx.recv_timeout(Duration::from_secs(10)).expect("shutdown returns");
        stopper.join().unwrap();
        assert_eq!(Arc::strong_count(&master.inner), 1, "every endpoint thread has exited");
        use std::io::Read as _;
        for (who, stream) in [("submitter", &mut submitter), ("silent", &mut silent)] {
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            assert!(matches!(stream.read(&mut [0u8; 1]), Ok(0) | Err(_)), "{who} was hung up on");
        }
    }

    #[test]
    fn version_skew_drops_the_connection_loudly() {
        use std::io::{Read as _, Write as _};
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        // A current-protocol worker, connected throughout.
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions::default(),
        )
        .unwrap();
        wait_until("the link registers", || master.worker_conns() == 1);

        // A "future protocol" hello: bumped version byte.
        let mut future = WireMsg::Hello { worker: 0, generation: 0, window: 1 }.encode();
        future[0] = crate::protocol::PROTOCOL_VERSION + 1;
        // The hello a 0.11.0 worker sends: version 2, and a pin-flag byte
        // between the generation and the window.
        let v2 = vec![2, 0x01, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 8];
        for (who, frame) in [("future", future), ("v2", v2)] {
            let mut stream = TcpStream::connect(master.local_addr()).unwrap();
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            stream.write_all(&buf).unwrap();
            stream.flush().unwrap();
            // The master must close the connection without registering it.
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut probe = [0u8; 1];
            match stream.read(&mut probe) {
                Ok(0) => {} // EOF: dropped, as required
                Ok(_) => panic!("master should not talk to a version-skewed ({who}) peer"),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    panic!("master kept a version-skewed ({who}) connection open")
                }
                Err(_) => {} // reset: dropped, as required
            }
            assert_eq!(master.worker_conns(), 1, "{who}: only the current worker is registered");
        }
        // The refused peers disturbed nothing: the current worker is served.
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(0));
        master.publish_dispatch(0, DispatchMsg::new(job, 1));
        assert_eq!(link.pull_dispatch(Duration::from_secs(10)).expect("dispatch").job, job);
        master.shutdown();
        link.close();
    }
}
