use super::spool::{load_spool, same_as, spool_workflow};
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

/// How long [`TcpMaster::shutdown`] waits for peers to take what is still
/// queued for them, the `Bye` last. A peer that has stopped reading costs a
/// graceful stop this much and no more.
const BYE_WAIT: Duration = Duration::from_secs(2);

/// One outbound frame: `head` — length prefix included — then `text` when
/// the frame is the first announcement of a DAG. The text is the DAG
/// store's copy, so queueing an announcement on every connection and
/// keeping it for replay costs a reference each, not megabytes each.
#[derive(Clone)]
struct OutFrame {
    head: Vec<u8>,
    text: Option<Arc<str>>,
}

impl OutFrame {
    /// Frame `payload` followed by `text`.
    fn new(mut payload: Vec<u8>, text: Option<Arc<str>>) -> Self {
        let len = payload.len() + text.as_deref().map_or(0, str::len);
        // `announce` refuses a DAG text whose frame is over the frame cap,
        // and nothing else sent comes near 4 GiB; a frame that did would
        // declare a length every receiver's cap refuses.
        payload.splice(..0, u32::try_from(len).unwrap_or(u32::MAX).to_be_bytes());
        Self { head: payload, text }
    }

    /// The frame's bytes from offset `sent` on, up to the end of the part
    /// (head or text) that offset falls in; empty once all are sent.
    fn rest(&self, sent: usize) -> &[u8] {
        match sent.checked_sub(self.head.len()) {
            None => &self.head[sent..],
            Some(at) => &self.text.as_deref().unwrap_or_default().as_bytes()[at..],
        }
    }
}

/// A connection's socket and what could not yet be written to it.
struct Socket {
    stream: TcpStream,
    /// Frames not yet wholly written, oldest first; `sent` bytes of the
    /// first one are on the wire.
    unsent: VecDeque<OutFrame>,
    sent: usize,
    /// A read or a write failed, or the peer broke protocol: the end of the
    /// turn closes it.
    dead: bool,
}

impl Socket {
    /// Send `frame` behind whatever is already waiting: at once if nothing
    /// is, else when the socket next takes bytes.
    fn send(&mut self, frame: OutFrame) {
        self.unsent.push_back(frame);
        if self.unsent.len() == 1 {
            self.flush();
        }
    }

    /// Write until everything queued is out or the socket would block.
    fn flush(&mut self) {
        while let (Some(frame), false) = (self.unsent.front(), self.dead) {
            let rest = frame.rest(self.sent);
            if rest.is_empty() {
                self.unsent.pop_front();
                self.sent = 0;
                continue;
            }
            match (&self.stream).write(rest) {
                Ok(0) => self.dead = true,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }
}

/// What a connection is, which its first frame says.
enum Role {
    /// Nothing yet: the handshake has not arrived, or not all of it.
    Unknown,
    /// A worker, with the dispatch credit its `Hello` offered.
    Worker(Credit),
    /// A submitter, with the workflow of its previous submission if that
    /// was accepted: what a [`WireMsg::Repeat`] on this connection repeats.
    Submitter(Option<Arc<Workflow>>),
}

/// A worker connection's dispatch credit: the window its `Hello` offered,
/// less the `(job, attempt)` pairs sent on it and not yet settled.
struct Credit {
    window: usize,
    /// Oldest first: acks come back mostly in the order dispatches left.
    held: VecDeque<(EnsembleJobId, u32)>,
}

impl Credit {
    fn free(&self) -> usize {
        self.window.saturating_sub(self.held.len())
    }

    /// Stop holding `(job, attempt)`; `false` when this connection does not.
    fn settle(&mut self, job: EnsembleJobId, attempt: u32) -> bool {
        let at = self.held.iter().position(|&held| held == (job, attempt));
        at.map(|at| self.held.remove(at)).is_some()
    }
}

/// One accepted connection.
struct Conn {
    socket: Socket,
    role: Role,
    /// Bytes received and not yet cut into frames.
    inbuf: FrameBuf,
}

impl Conn {
    /// The dispatch credit of a worker connection, even of one marked dead
    /// and not yet closed: what it holds is settled and superseded until its
    /// close gives back the rest.
    fn credit(&mut self) -> Option<&mut Credit> {
        match &mut self.role {
            Role::Worker(credit) => Some(credit),
            _ => None,
        }
    }

    /// One bounded read, and every whole frame it completed handed to the
    /// endpoint's queues. `Err` drops the connection, with the reason to
    /// log when the peer did something other than hang up.
    fn receive(&mut self, ep: &mut Endpoint) -> Result<(), Option<String>> {
        match self.inbuf.fill(&mut &self.socket.stream) {
            Ok(0) => return Err(None),
            Ok(_) => {}
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) =>
            {
                return Ok(())
            }
            Err(_) => return Err(None),
        }
        loop {
            let frame = match self.inbuf.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()),
                Err(e) => return Err(Some(e.to_string())),
            };
            match self.role {
                // Any decode error (version skew first) ends the handshake.
                Role::Unknown => match WireMsg::decode(frame) {
                    // Liveness identity arrives via Lifecycle frames.
                    Ok(WireMsg::Hello { window, .. }) => {
                        // Every announcement so far, then (from the end of
                        // this turn) dispatches: a late joiner knows a
                        // workflow before any of its jobs.
                        ep.announced.iter().for_each(|f| self.socket.send(f.clone()));
                        // A window of zero could never be sent anything.
                        let window = window.max(1) as usize;
                        self.role = Role::Worker(Credit { window, held: VecDeque::new() });
                    }
                    Ok(WireMsg::SubmitterHello) => self.role = Role::Submitter(None),
                    Ok(other) => return Err(Some(format!("unexpected handshake {other:?}"))),
                    Err(e) => return Err(Some(format!("rejecting connection: {e}"))),
                },
                Role::Worker(ref mut credit) => match WireMsg::decode(frame) {
                    Ok(WireMsg::Ack(ack)) => {
                        // Terminal acks settle a dispatch: refund the credit
                        // before the serve loop even sees the ack — here if
                        // this connection holds it, else where it is held.
                        if matches!(ack.kind, AckKind::Completed | AckKind::Failed)
                            && !credit.settle(ack.job, ack.attempt)
                        {
                            ep.settled_elsewhere.push((ack.job, ack.attempt));
                        }
                        ep.acks.push_back(ack);
                    }
                    Ok(WireMsg::Lifecycle(msg)) => {
                        ep.lifecycle.push_back(msg);
                        ep.doorbell = true;
                    }
                    Ok(other) => return Err(Some(format!("unexpected worker frame {other:?}"))),
                    Err(e) => return Err(Some(format!("bad worker frame: {e}"))),
                },
                // Decoded in place: a DAG already in the store costs one
                // hash and one compare of the bytes where they arrived; a
                // repeat of the previous one costs no look at them at all.
                Role::Submitter(ref mut previous) => {
                    let (name, workflow) = match DagFrame::decode(frame) {
                        Ok(Some(DagFrame { id: None, name, dag })) => {
                            *previous = ep
                                .dags
                                .intern(dag)
                                .map_err(|e| reject_submission(name, &e.to_string()))
                                .ok();
                            (name.to_string(), previous.clone())
                        }
                        Ok(Some(_)) => return Err(Some("unexpected submitter frame".into())),
                        Err(e) => return Err(Some(format!("bad submitter frame: {e}"))),
                        Ok(None) => match WireMsg::decode(frame) {
                            Ok(WireMsg::Repeat { name }) => {
                                if previous.is_none() {
                                    reject_submission(&name, "a repeat with nothing to repeat");
                                }
                                (name, previous.clone())
                            }
                            Ok(other) => {
                                return Err(Some(format!("unexpected submitter frame {other:?}")))
                            }
                            Err(e) => return Err(Some(format!("bad submitter frame: {e}"))),
                        },
                    };
                    if let Some(workflow) = workflow {
                        ep.submissions.push_back(SubmissionMsg { name, workflow });
                        ep.doorbell = true;
                    }
                }
            }
        }
    }
}

/// Log why the submission `name` was refused; the connection stays open.
fn reject_submission(name: &str, why: &str) {
    eprintln!("dewe-master: rejecting submission {name:?}: {why}");
}

/// Everything the endpoint's callers share, under [`MasterInner::state`].
struct Endpoint {
    /// `None` once the endpoint is stopped.
    listener: Option<TcpListener>,
    conns: Vec<Conn>,
    /// Dispatches that found no window credit, FIFO per arrival.
    pending: VecDeque<DispatchMsg>,
    /// Pairs this turn settled on a connection that does not hold them:
    /// the end of the turn refunds whichever other connection does.
    settled_elsewhere: Vec<(EnsembleJobId, u32)>,
    /// Every DAG text this master has been handed, parsed once each, and
    /// the id each was first announced under.
    dags: DagStore,
    /// Every announcement so far, as sent, replayed to late-joining
    /// workers: a DAG's text once, in its first announcement, and every
    /// later announcement of it an alias.
    announced: Vec<OutFrame>,
    /// The names of the workflows [`TcpMaster::load_spool`] loaded, by id:
    /// these are announced under the name they were spooled with, and
    /// their spool entries are left as they are.
    spooled: Vec<String>,
    /// What turns have read and the serve loop has not yet pulled.
    submissions: VecDeque<SubmissionMsg>,
    acks: VecDeque<AckMsg>,
    lifecycle: VecDeque<LifecycleMsg>,
    /// A turn queued a submission or a lifecycle message, or somebody rang
    /// [`Transport::wake`]: the next `pull_ack` that finds no ack returns at
    /// once, for the serve loop to go round and find it.
    doorbell: bool,
    /// Threads asleep in `poll` right now, which a change they did not
    /// make themselves must wake.
    sleepers: usize,
    /// The last `accept` failed (logged once per streak), and the listener
    /// sits out the next turn's `poll` so that a full descriptor table is
    /// retried at the pace of other traffic, not in a spin.
    accept_failing: bool,
    listener_sits_out: bool,
    /// The `poll` set, kept for its allocation.
    fds: Vec<PollFd>,
}

impl Endpoint {
    fn stopped(&self) -> bool {
        self.listener.is_none()
    }

    /// Accept until the backlog is empty.
    fn accept(&mut self) {
        let Some(listener) = &self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_failing = false;
                    // One blocking socket would stall every other: refuse it.
                    if stream.set_nonblocking(true).is_ok() {
                        let _ = stream.set_nodelay(true);
                        self.conns.push(Conn {
                            socket: Socket {
                                stream,
                                unsent: VecDeque::new(),
                                sent: 0,
                                dead: false,
                            },
                            role: Role::Unknown,
                            inbuf: FrameBuf::new(DEFAULT_MAX_FRAME, READ_BOUND),
                        });
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // A peer that gave up while it sat in the backlog; a signal.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) => {}
                // Out of descriptors or memory, for now.
                Err(e) => {
                    if !std::mem::replace(&mut self.accept_failing, true) {
                        eprintln!("dewe-master: accept failed, will keep trying: {e}");
                    }
                    self.listener_sits_out = true;
                    return;
                }
            }
        }
    }

    /// Place a run of dispatches, splitting it across connections as their
    /// credit allows; each connection holds what it was sent. Sent
    /// dispatches are drained from the front of `batch` (delivery order
    /// preserved); whatever found no credit stays behind. Returns how many
    /// were sent. Each granted connection is sent its part of the run as
    /// one [`WireMsg::DispatchBatch`] frame, a part of one included.
    fn try_send_batch(&mut self, batch: &mut Vec<DispatchMsg>) -> usize {
        let mut sent = 0;
        for conn in self.conns.iter_mut().filter(|c| !c.socket.dead) {
            if sent == batch.len() {
                break;
            }
            let Some(credit) = conn.credit() else { continue };
            let run = &batch[sent..batch.len().min(sent + credit.free())];
            if run.is_empty() {
                continue;
            }
            credit.held.extend(run.iter().map(|d| (d.job, d.attempt)));
            sent += run.len();
            conn.socket.send(OutFrame::new(encode_dispatch_batch(run), None));
        }
        batch.drain(..sent);
        sent
    }

    /// Attempt `n` of a job supersedes its earlier attempts: a connection
    /// holding one gets its credit back, and one still waiting for credit
    /// is not sent — a stale attempt sent now would hold credit that no
    /// later publish reclaims. Only a resubmission has earlier attempts.
    fn supersede(&mut self, d: &DispatchMsg) {
        if d.attempt <= 1 {
            return;
        }
        let stale = |job: EnsembleJobId, attempt: u32| job == d.job && attempt < d.attempt;
        for credit in self.conns.iter_mut().filter_map(Conn::credit) {
            credit.held.retain(|&(job, attempt)| !stale(job, attempt));
        }
        self.pending.retain(|p| !stale(p.job, p.attempt));
    }

    /// Retry queued dispatches against current credit, coalescing what
    /// can go into one batch placement. Called at the end of every turn —
    /// after a whole read burst of acks has refunded its credit, so a deep
    /// backlog leaves as one `DispatchBatch` per connection, not one frame
    /// per ack — and after every publish.
    fn drain_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // Collect no more of the queue than the total free credit: a deep
        // backlog drains one refund at a time, and copying the whole queue
        // to have try_send_batch grant one dispatch would turn each refund
        // into an O(queue) scan.
        let live = self.conns.iter_mut().filter(|c| !c.socket.dead);
        let free: usize = live.filter_map(Conn::credit).map(|c| c.free()).sum();
        let take = self.pending.len().min(free);
        if take == 0 {
            return;
        }
        let mut batch: Vec<DispatchMsg> = self.pending.range(..take).copied().collect();
        let sent = self.try_send_batch(&mut batch);
        self.pending.drain(..sent);
    }
}

struct MasterInner {
    local_addr: SocketAddr,
    state: Mutex<Endpoint>,
    /// Rung for whoever sleeps in `poll`; rung for good once the endpoint
    /// has stopped.
    wake: Wake,
    state_dir: Option<PathBuf>,
}

impl MasterInner {
    /// What every call that sends ends with: dispatches that were waiting
    /// for credit, and — if this thread is not the one that will next
    /// `poll` — a wake-up for the one asleep there, whose `poll` set does
    /// not yet ask when a connection with bytes left over can take more.
    fn sent(&self, ep: &mut Endpoint) {
        ep.drain_pending();
        if ep.sleepers > 0 && ep.conns.iter().any(|c| !c.socket.unsent.is_empty()) {
            self.wake.ring();
        }
    }

    /// One turn of the loop, on the caller's thread: sleep in `poll` — the
    /// state unlocked — until a socket is ready or `wait` has passed, then
    /// accept whoever is waiting, make one bounded read from each readable
    /// connection and queue its frames, write to each connection that can
    /// take more of what it is owed, close what died, and only then — every
    /// refund of the turn in — send what waited for credit.
    fn turn<'a>(
        &'a self,
        mut ep: MutexGuard<'a, Endpoint>,
        wait: Duration,
    ) -> MutexGuard<'a, Endpoint> {
        let Some(listener) = ep.listener.as_ref().map(|l| PollFd::new(l, POLLIN)) else {
            return ep;
        };
        let mut fds = std::mem::take(&mut ep.fds);
        fds.clear();
        fds.push(PollFd::new(&self.wake.0, POLLIN));
        fds.extend(ep.conns.iter().map(|c| {
            let events = if c.socket.unsent.is_empty() { POLLIN } else { POLLIN | POLLOUT };
            PollFd::new(&c.socket.stream, events)
        }));
        let listening = !std::mem::take(&mut ep.listener_sits_out);
        if listening {
            fds.push(listener);
        }
        ep.sleepers += 1;
        drop(ep);
        // A failed `poll` is a turn in which nothing was ready.
        let _ = poll(&mut fds, wait);
        let mut ep = self.state.lock();
        ep.sleepers -= 1;
        if ep.stopped() {
            return ep;
        }
        if fds[0].revents != 0 {
            self.wake.drain();
        }
        if listening && fds.last().is_some_and(|fd| fd.revents != 0) {
            ep.accept();
        }
        let queued = (ep.acks.len(), ep.submissions.len(), ep.lifecycle.len());
        // Out of `ep` while they are served, so that a connection can be
        // handed the rest of it. The connections just accepted have no
        // entry yet, and whoever else turned the endpoint while this
        // thread slept may have closed or accepted others: an entry is
        // matched to its connection by descriptor, and acting on a stale
        // one costs a read or a write that would have blocked.
        let mut conns = std::mem::take(&mut ep.conns);
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            if fd.revents == 0 || !fd.is(&conn.socket.stream) {
                continue;
            }
            if fd.revents & POLLOUT != 0 {
                conn.socket.flush();
            }
            if fd.revents != POLLOUT {
                if let Err(why) = conn.receive(&mut ep) {
                    if let Some(why) = why {
                        eprintln!("dewe-master: {why}; dropping connection");
                    }
                    conn.socket.dead = true;
                }
            }
        }
        // A settlement that arrived elsewhere (a held message released
        // through another worker, a doubled dispatch run twice) refunds
        // whichever connection holds the pair, or nobody.
        for (job, attempt) in ep.settled_elsewhere.drain(..) {
            let _ = conns.iter_mut().filter_map(Conn::credit).any(|c| c.settle(job, attempt));
        }
        // A dropped connection gives back what it held, started or not, as a
        // broker requeues a dead consumer's unacknowledged messages: in the
        // order sent, ahead of everything waiting, which was published later.
        for conn in conns.iter_mut().rev().filter(|c| c.socket.dead) {
            for (job, attempt) in conn.credit().into_iter().flat_map(|c| c.held.drain(..)).rev() {
                ep.pending.push_front(DispatchMsg::new(job, attempt));
            }
        }
        conns.retain(|c| !c.socket.dead);
        ep.conns = conns;
        self.sent(&mut ep);
        // A sleeper must hear of input queued here, and of a wake-up read here.
        let changed = queued != (ep.acks.len(), ep.submissions.len(), ep.lifecycle.len());
        if ep.sleepers > 0 && (changed || ep.doorbell) {
            self.wake.ring();
        }
        ep.fds = fds;
        ep
    }
}

/// The master's TCP endpoint: worker and submitter connections, exposed to
/// the serve loop as a [`Transport`] and served by whichever thread is
/// inside [`pull_ack`](Transport::pull_ack) — it has no thread of its own
/// (see the module documentation). Clones share the endpoint.
#[derive(Clone)]
pub struct TcpMaster {
    inner: Arc<MasterInner>,
}

impl TcpMaster {
    /// Bind the master endpoint. Connections are accepted from the first
    /// [`pull_ack`](Transport::pull_ack) on; until then they wait in the
    /// listener's backlog. `addr` may use port 0 to let the OS pick (see
    /// [`local_addr`](Self::local_addr)). `std` sets `SO_REUSEADDR` (Unix): a
    /// restarted master rebinds at once, its dead connections in `TIME_WAIT`.
    pub fn bind(addr: impl ToSocketAddrs, options: TcpMasterOptions) -> io::Result<Self> {
        if let Some(dir) = &options.state_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let inner = Arc::new(MasterInner {
            local_addr: listener.local_addr()?,
            state: Mutex::new(Endpoint {
                listener: Some(listener),
                conns: Vec::new(),
                pending: VecDeque::new(),
                settled_elsewhere: Vec::new(),
                dags: DagStore::default(),
                announced: Vec::new(),
                spooled: Vec::new(),
                submissions: VecDeque::new(),
                acks: VecDeque::new(),
                lifecycle: VecDeque::new(),
                doorbell: false,
                sleepers: 0,
                accept_failing: false,
                listener_sits_out: false,
                fds: Vec::new(),
            }),
            wake: Wake::new()?,
            state_dir: options.state_dir,
        });
        Ok(Self { inner })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Number of currently connected worker connections, after one turn
    /// that does not sleep — so a caller waiting for a worker to register
    /// sees it without a serve loop running.
    pub fn worker_conns(&self) -> usize {
        let mut ep = self.inner.turn(self.inner.state.lock(), Duration::ZERO);
        ep.conns.iter_mut().filter_map(Conn::credit).count()
    }

    /// Load every workflow spooled to this endpoint's state directory,
    /// sorted by id and verified dense — the registry rebuild for a
    /// restarted master process. Spool entries with the same DAG — the same
    /// text, or a reference to an earlier entry — come back as one shared
    /// `Arc<Workflow>`, and the endpoint remembers the text, so
    /// re-announcing the recovered registry serialises nothing. It also
    /// remembers each entry's name: announcing a loaded id uses that name,
    /// whatever the caller passes, and writes nothing into the spool. No
    /// state directory, or an empty or missing one, loads nothing (a cold
    /// start). A spool that is not dense, or an entry that does not parse
    /// or refers to anything but an earlier entry, is `InvalidData`.
    pub fn load_spool(&self) -> io::Result<Vec<(WorkflowId, String, Arc<Workflow>)>> {
        let Some(dir) = &self.inner.state_dir else { return Ok(Vec::new()) };
        let mut ep = self.inner.state.lock();
        let loaded = load_spool(dir, &mut ep.dags)?;
        ep.spooled = loaded.iter().map(|(_, name, _)| name.clone()).collect();
        Ok(loaded)
    }

    /// Stop the endpoint gracefully, from any thread: whoever is asleep in
    /// [`pull_ack`](Transport::pull_ack) returns (releasing the serve
    /// loop), and this thread sends [`WireMsg::Bye`] to every worker
    /// (telling their links not to reconnect — the ensemble is done) behind
    /// whatever was still queued for it, waiting up to two seconds in all
    /// for peers that are slow to read. When this returns every `Bye` a
    /// peer was willing to take has been flushed and every socket —
    /// listener, worker, submitter or still shaking hands — is closed: a
    /// process may exit on the next line and no peer is cut off mid-frame.
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
        let mut conns = {
            let mut ep = self.inner.state.lock();
            if ep.listener.take().is_none() {
                return;
            }
            self.inner.wake.ring();
            std::mem::take(&mut ep.conns)
        };
        // The connections are this thread's now; dropping them closes them.
        if !say_bye {
            return;
        }
        for conn in conns.iter_mut().filter(|c| matches!(c.role, Role::Worker(_))) {
            conn.socket.send(OutFrame::new(WireMsg::Bye.encode(), None));
        }
        let deadline = Instant::now() + BYE_WAIT;
        loop {
            let mut fds: Vec<PollFd> = conns
                .iter()
                .filter(|c| !c.socket.dead && !c.socket.unsent.is_empty())
                .map(|c| PollFd::new(&c.socket.stream, POLLOUT))
                .collect();
            let left = deadline.saturating_duration_since(Instant::now());
            if fds.is_empty() || left.is_zero() {
                break;
            }
            let _ = poll(&mut fds, left);
            conns.iter_mut().for_each(|c| c.socket.flush());
        }
        for conn in &conns {
            // Closing a socket with input unread resets the connection and
            // discards what it has not yet sent — the Bye. Read it off.
            while matches!((&conn.socket.stream).read(&mut [0; 4096]), Ok(1..)) {}
            let _ = conn.socket.stream.shutdown(Shutdown::Both);
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
        self.inner.state.lock().submissions.pop_front()
    }

    fn pull_ack(&self, timeout: Duration) -> Option<AckMsg> {
        let deadline = Instant::now().checked_add(timeout);
        let mut ep = self.inner.state.lock();
        loop {
            if let Some(ack) = ep.acks.pop_front() {
                return Some(ack);
            }
            if std::mem::take(&mut ep.doorbell) || ep.stopped() {
                return None;
            }
            let left = match deadline {
                Some(deadline) => deadline.saturating_duration_since(Instant::now()),
                None => Duration::MAX,
            };
            if left.is_zero() {
                return None;
            }
            ep = self.inner.turn(ep, left);
        }
    }

    fn wake(&self) {
        self.inner.state.lock().doorbell = true;
        self.inner.wake.ring();
    }

    fn pull_ack_batch(&self, out: &mut Vec<AckMsg>, max: usize) -> usize {
        let mut ep = self.inner.state.lock();
        let take = max.min(ep.acks.len());
        out.extend(ep.acks.drain(..take));
        take
    }

    fn try_pull_lifecycle(&self) -> Option<LifecycleMsg> {
        self.inner.state.lock().lifecycle.pop_front()
    }

    fn publish_dispatch(&self, _: usize, dispatch: DispatchMsg) {
        let mut ep = self.inner.state.lock();
        ep.supersede(&dispatch);
        ep.pending.push_back(dispatch);
        self.inner.sent(&mut ep);
    }

    fn publish_dispatch_batch(&self, _: usize, batch: &mut Vec<DispatchMsg>) {
        let mut ep = self.inner.state.lock();
        batch.iter().for_each(|d| ep.supersede(d));
        ep.try_send_batch(batch);
        ep.pending.extend(batch.drain(..));
        self.inner.sent(&mut ep);
    }

    /// Spool the workflow (unless it was loaded from the spool), then send
    /// it to every worker and keep it for those that join later: the first
    /// announcement of a `Workflow` with its text, every later one as an
    /// alias of that first id. A failed spool write sends nothing, and a
    /// text whose frame every receiver's cap would refuse is `InvalidData`
    /// and neither spooled nor sent.
    fn announce(&self, announce: WorkflowAnnounce) -> io::Result<()> {
        let WorkflowAnnounce { id, name, workflow } = announce;
        // The text the submitter sent (or the spool held) is the text that
        // is spooled and announced; nothing is serialised here.
        let (dag, spooled_as) = {
            let mut ep = self.inner.state.lock();
            (ep.dags.announcement(&workflow, id), ep.spooled.get(id.index()).cloned())
        };
        let spool_to = self.inner.state_dir.as_deref().filter(|_| spooled_as.is_none());
        let name = spooled_as.unwrap_or(name);
        // Only a spool entry can be this long: a submission this long is
        // never read. A link that refused the frame would reconnect and be
        // replayed it for ever.
        if let Announced::Text(text) = &dag {
            let len = DagFrame { id: Some(id), name: &name, dag: text }.payload_len();
            if len > DEFAULT_MAX_FRAME {
                let cap = DEFAULT_MAX_FRAME;
                let why = format!("announce workflow {}: {len} bytes over the cap of {cap}", id.0);
                return Err(io::Error::new(io::ErrorKind::InvalidData, why));
            }
        }
        if let Some(dir) = spool_to {
            match &dag {
                Announced::Text(text) => spool_workflow(dir, id, &name, text)?,
                Announced::SameAs(first) => spool_workflow(dir, id, &name, &same_as(*first))?,
            }
        }
        let frame = match dag {
            Announced::Text(text) => {
                let head = DagFrame { id: Some(id), name: &name, dag: &text }.head();
                OutFrame::new(head, Some(text))
            }
            Announced::SameAs(same_as) => {
                OutFrame::new(WireMsg::Alias { id, name, same_as }.encode(), None)
            }
        };
        // Under the one lock, a worker either is connected here or will
        // find this workflow in `announced` at its Hello — never neither.
        let mut ep = self.inner.state.lock();
        for conn in ep.conns.iter_mut().filter(|c| matches!(c.role, Role::Worker(_))) {
            conn.socket.send(frame.clone());
        }
        ep.announced.push(frame);
        ep.dags.announced(&workflow, id);
        self.inner.sent(&mut ep);
        Ok(())
    }

    fn ack_closed(&self) -> bool {
        self.inner.state.lock().stopped()
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use dewe_mq::read_frame;

    use super::*;
    use crate::realtime::testutil::{pump, scratch, wait_reading, wait_until, wf};

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
            master.announce(WorkflowAnnounce { id, name, workflow }).unwrap();
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
        let _pump = pump(&master);
        let addr = master.local_addr();
        let connect = |registry: &Registry| {
            TcpWorkerLink::connect(addr, registry.clone(), TcpWorkerOptions::default()).unwrap()
        };
        let early_mirror = Registry::new();
        let early = connect(&early_mirror);

        // Three submissions of one text — not what `write_workflow` would
        // produce, so a re-serialised spool or announcement shows — and
        // one of another, in between. The second is a repeat on its
        // connection; the fourth comes in full on a connection of its own.
        let common = "# as submitted\nworkflow  w\nJOB a t CPU 1\nJOB b t CPU 1\n\
                      JOB c t CPU 1\nPARENT a CHILD b c\n";
        let distinct = dewe_dag::write_workflow(&wf("other", 5));
        submit_over_tcp(addr, [("w-0", common), ("w-1", common)]).unwrap();
        let registry = Registry::new();
        ingest(&master, &registry, 2);
        submit_over_tcp(addr, [("other", &distinct)]).unwrap();
        ingest(&master, &registry, 1);
        submit_over_tcp(addr, [("w-3", common)]).unwrap();
        ingest(&master, &registry, 1);
        assert_shares_like_the_submissions(&registry, "master registry");

        // A link reads while something pulls on it: these pull by hand.
        wait_reading(&early, "the early worker has mirrored all four", || early_mirror.len() == 4);
        assert_shares_like_the_submissions(&early_mirror, "early worker");
        // A worker that joins late gets the same mirror from the replay.
        let late_mirror = Registry::new();
        let late = connect(&late_mirror);
        wait_reading(&late, "the late worker has mirrored all four", || late_mirror.len() == 4);
        assert_shares_like_the_submissions(&late_mirror, "late worker");

        // Each spool file is its name line plus the submitter's bytes, or
        // plus a reference to the first entry with those bytes.
        let spooled = |i: u32| std::fs::read_to_string(dir.join(format!("wf-{i:08}.dag"))).unwrap();
        let spool = [
            format!("w-0\n{common}"),
            "w-1\n@same-as 0\n".to_string(),
            format!("other\n{distinct}"),
            "w-3\n@same-as 0\n".to_string(),
        ];
        assert_eq!((0..4).map(spooled).collect::<Vec<_>>(), spool);

        // Crash and restart on the same port: the spool comes back
        // shared, and re-announcing it — under the DAG's own name, as the
        // serve loop's takeover does — is the recovery path's replay, which
        // leaves the spool as it was.
        master.kill();
        let master2 = TcpMaster::bind(addr, options()).unwrap();
        let _pump2 = pump(&master2);
        let recovered = Registry::new();
        for (id, _, workflow) in master2.load_spool().unwrap() {
            recovered.insert(id, Arc::clone(&workflow));
            let name = workflow.name().to_string();
            master2.announce(WorkflowAnnounce { id, name, workflow }).unwrap();
        }
        assert_shares_like_the_submissions(&recovered, "recovered registry");
        assert_eq!((0..4).map(spooled).collect::<Vec<_>>(), spool, "nothing re-spooled");
        // The reconnecting workers are replayed all four and keep the
        // mirror they had; a fifth workflow still lands densely.
        submit_over_tcp(addr, [("w-4", common)]).unwrap();
        ingest(&master2, &recovered, 1);
        assert_eq!(spooled(4), "w-4\n@same-as 0\n");
        for (link, mirror, who) in
            [(&early, &early_mirror, "early worker"), (&late, &late_mirror, "late worker")]
        {
            wait_reading(link, "the fifth workflow is mirrored", || mirror.len() == 5);
            let at = |i: u32| mirror.get(WorkflowId(i)).expect("dense mirror");
            assert!(Arc::ptr_eq(&at(0), &at(1)) && !Arc::ptr_eq(&at(0), &at(2)), "{who}");
            assert!(Arc::ptr_eq(&at(0), &at(4)), "{who}: an alias of what it mirrored before");
        }
        master2.shutdown();
        early.close();
        late.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_workflow_that_does_not_parse_stops_the_mirror_without_wedging_the_link() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
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
            for conn in &mut master.inner.state.lock().conns {
                conn.socket.send(OutFrame::new(head.clone(), Some(Arc::clone(&text))));
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

    /// A spool entry whose announcement every link's frame cap would refuse
    /// — and a refused link reconnects and is replayed it for ever — is
    /// `InvalidData`, and nothing is sent.
    #[test]
    fn a_spooled_text_over_the_frame_cap_is_not_announced() {
        let dir = scratch("over-the-cap");
        let mut file = std::fs::File::create(dir.join("wf-00000000.dag")).unwrap();
        file.write_all(b"padded\n# ").unwrap();
        let padding = [b'x'; 1 << 20];
        (0..DEFAULT_MAX_FRAME >> 20).for_each(|_| file.write_all(&padding).unwrap());
        file.write_all(b"\nJOB a t CPU 1\n").unwrap();
        drop(file);
        let master =
            TcpMaster::bind("127.0.0.1:0", TcpMasterOptions { state_dir: Some(dir.clone()) })
                .unwrap();
        let (id, name, workflow) = master.load_spool().unwrap().remove(0);
        assert_eq!(workflow.job_count(), 1, "a valid DAG");
        let err = master.announce(WorkflowAnnounce { id, name, workflow }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&DEFAULT_MAX_FRAME.to_string()), "{err}");
        assert!(master.inner.state.lock().announced.is_empty(), "nothing sent");
        master.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_link_delivers_dispatches_and_acks() {
        // Transport-level smoke: master endpoint + one worker link, no
        // serve loop — drive the Transport/WorkerTransport traits by hand.
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
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
        master
            .announce(WorkflowAnnounce {
                id: WorkflowId(0),
                name: "net".into(),
                workflow: Arc::clone(&workflow),
            })
            .unwrap();
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(1));
        master.publish_dispatch(0, DispatchMsg::new(job, 1));

        let d = link.pull_dispatch(Duration::from_secs(10)).expect("dispatch arrives");
        assert_eq!(d.job, job);
        assert_eq!(registry.len(), 1, "workflow mirrored before dispatch");
        assert_eq!(registry.get(WorkflowId(0)).unwrap().job_count(), 2);

        // The Running ack is read before the Completed is published: a
        // terminal ack published while its Running still waits in the
        // link's outbox would be sent in its place.
        link.publish_ack(AckMsg::new(job, 3, AckKind::Running, 1));
        let a1 = master.pull_ack(Duration::from_secs(10)).expect("running ack");
        assert_eq!(a1.kind, AckKind::Running);
        link.publish_ack(AckMsg::new(job, 3, AckKind::Completed, 1));
        let a2 = master.pull_ack(Duration::from_secs(10)).expect("completed ack");
        assert_eq!(a2.kind, AckKind::Completed);

        master.shutdown();
        assert!(master.ack_closed());
        link.close();
    }

    #[test]
    fn window_credit_throttles_and_terminal_acks_refund() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
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
        let _pump = pump(&master);
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
        let _pump = pump(&master);
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

    /// When `shutdown` returns there is nothing left to wait for: every
    /// connection thread has been joined, so every `Bye` is on the wire
    /// and every socket closed. A peer reads `Bye` and then end-of-stream
    /// with no help from a grace period — the daemon exits on the line
    /// after `shutdown`.
    #[test]
    fn shutdown_returns_with_every_bye_flushed_and_every_socket_closed() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
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
        let mut dispatches = 0;
        for reader in &mut workers {
            loop {
                let frame = read_frame(reader, 1 << 20).unwrap().expect("Bye comes before EOF");
                match WireMsg::decode(&frame).unwrap() {
                    WireMsg::DispatchBatch(run) => {
                        assert_eq!(run, [DispatchMsg::new(job, 1)]);
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
        let _pump = pump(&master);
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
        let _pump = pump(&master);
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
        // Revisions 3 and 4 lay their hello out as this one; only the
        // version differs. A v4 worker would send `Return`, which is gone.
        let revision = |version: u8| {
            let mut hello = WireMsg::Hello { worker: 9, generation: 0, window: 8 }.encode();
            hello[0] = version;
            hello
        };
        for (who, frame) in
            [("future", future), ("v2", v2), ("v3", revision(3)), ("v4", revision(4))]
        {
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

    /// The restart drill's precondition: a killed master's port binds again
    /// at once, while the connection it served sits in `TIME_WAIT`.
    #[test]
    fn port_rebinds_immediately_after_active_connections() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let mut worker = raw_worker(&master, 1, 1);
        wait_until("the worker registers", || master.worker_conns() == 1);
        // The master closes first, so its end is the one left waiting on
        // the listening port.
        master.kill();
        assert!(matches!(worker.read(&mut [0u8; 1]), Ok(0) | Err(_)), "hung up on");
        drop(worker);
        let again = TcpMaster::bind(master.local_addr(), TcpMasterOptions::default());
        assert!(again.is_ok(), "rebind after a kill failed: {:?}", again.err());
    }

    // -----------------------------------------------------------------
    // What one thread serving every socket could get wrong
    // -----------------------------------------------------------------

    /// A worker connection by hand: it says Hello, and after that does only
    /// what the test makes it do.
    fn raw_worker(master: &TcpMaster, worker: u32, window: u32) -> TcpStream {
        let mut stream = TcpStream::connect(master.local_addr()).unwrap();
        let hello = WireMsg::Hello { worker, generation: 0, window };
        write_frame(&mut stream, &hello.encode()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
    }

    /// A DAG text of `mib` MiB, nearly all of it comment, with one job.
    fn bulky_dag(tag: &str, mib: usize) -> String {
        let line = format!("# {}\n", "x".repeat(61));
        format!("# {tag}\n{}JOB a t CPU 1\n", line.repeat(mib * 16 * 1024))
    }

    /// Eight distinct 3 MiB announcements: more than loopback buffers for a
    /// peer that is not reading. (Eight of one text would be one text and
    /// seven aliases.)
    fn submit_bulky(master: &TcpMaster, tag: &str) -> Vec<String> {
        let dags: Vec<String> = (0..8).map(|i| bulky_dag(&format!("{tag} {i}"), 3)).collect();
        let names = (0..8).map(|i| format!("bulky-{i}"));
        submit_over_tcp(master.local_addr(), names.zip(&dags)).unwrap();
        dags
    }

    /// Frames queued for the first connection that its socket has not taken.
    fn unsent_to_first(master: &TcpMaster) -> usize {
        master.inner.state.lock().conns[0].socket.unsent.len()
    }

    fn job(j: u32) -> dewe_dag::EnsembleJobId {
        dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j))
    }

    /// Dispatches read off a raw worker's connection until `n` have come.
    fn take_dispatches(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<DispatchMsg> {
        let mut got = Vec::new();
        while got.len() < n {
            let frame = read_frame(reader, DEFAULT_MAX_FRAME).unwrap().expect("a frame");
            match WireMsg::decode(&frame) {
                Ok(WireMsg::DispatchBatch(run)) => got.extend(run),
                other => panic!("expected dispatches, got {other:?}"),
            }
        }
        got
    }

    /// Credit follows the dispatch, not the connection. A window-1 worker
    /// that loses its one dispatch — dropped between its socket and a slot
    /// — never acknowledges it; once the job's deadline publishes the next
    /// attempt, the lost one stops holding the window and the attempt is
    /// sent to the worker that had it.
    #[test]
    fn a_worker_that_loses_its_one_dispatch_is_sent_the_next_attempt() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let mut worker = BufReader::new(raw_worker(&master, 1, 1));
        wait_until("the worker registers", || master.worker_conns() == 1);
        master.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        assert_eq!(take_dispatches(&mut worker, 1), [DispatchMsg::new(job(0), 1)]);
        // Lost: no ack ever comes. The checkout deadline moves the job on.
        master.publish_dispatch(0, DispatchMsg::new(job(0), 2));
        assert_eq!(take_dispatches(&mut worker, 1), [DispatchMsg::new(job(0), 2)]);
        master.shutdown();
    }

    /// A settlement refunds the dispatch it settles, once: a worker that
    /// sends `Completed` twice for one dispatch is owed one more, not two.
    #[test]
    fn a_doubled_ack_refunds_one_credit() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let mut worker = BufReader::new(raw_worker(&master, 1, 2));
        wait_until("the worker registers", || master.worker_conns() == 1);
        let mut batch: Vec<DispatchMsg> = (0..4).map(|j| DispatchMsg::new(job(j), 1)).collect();
        master.publish_dispatch_batch(0, &mut batch);
        let held = take_dispatches(&mut worker, 2);
        assert_eq!(held.iter().map(|d| d.job).collect::<Vec<_>>(), [job(0), job(1)]);

        let mut acks = Vec::new();
        let done = WireMsg::Ack(AckMsg::new(job(0), 1, AckKind::Completed, 1)).encode();
        write_frame(&mut acks, &done).unwrap();
        write_frame(&mut acks, &done).unwrap();
        worker.get_ref().write_all(&acks).unwrap();
        assert_eq!(take_dispatches(&mut worker, 1), [DispatchMsg::new(job(2), 1)]);
        worker.get_ref().set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        let more = read_frame(&mut worker, DEFAULT_MAX_FRAME);
        assert!(more.is_err(), "a window of 2 holds jobs 1 and 2, and no more: {more:?}");
        master.shutdown();
    }

    /// A worker connection that closes gives back every pair it held and
    /// had not settled, ahead of whatever was published after the close and
    /// in the order they were sent; a pair whose next attempt is published
    /// meanwhile leaves only as that attempt.
    #[test]
    fn a_closed_worker_connection_gives_back_what_it_held_first_and_in_order() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let mut first = BufReader::new(raw_worker(&master, 1, 4));
        wait_until("the first worker registers", || master.worker_conns() == 1);
        let attempt_1 = |jobs: &[u32]| jobs.iter().map(|&j| DispatchMsg::new(job(j), 1)).collect();
        let mut batch: Vec<DispatchMsg> = attempt_1(&[0, 1, 2, 3]);
        master.publish_dispatch_batch(0, &mut batch);
        assert_eq!(take_dispatches(&mut first, 4), attempt_1(&[0, 1, 2, 3]));
        drop(first);
        wait_until("the first worker is gone", || master.worker_conns() == 0);
        master.publish_dispatch(0, DispatchMsg::new(job(4), 1));

        let mut second = BufReader::new(raw_worker(&master, 2, 8));
        assert_eq!(take_dispatches(&mut second, 5), attempt_1(&[0, 1, 2, 3, 4]), "the four first");

        // The second closes holding all five; job 2's next attempt is
        // published before anybody else connects.
        drop(second);
        wait_until("the second worker is gone", || master.worker_conns() == 0);
        master.publish_dispatch(0, DispatchMsg::new(job(2), 2));
        let mut third = BufReader::new(raw_worker(&master, 3, 8));
        let mut want: Vec<DispatchMsg> = attempt_1(&[0, 1, 3, 4]);
        want.push(DispatchMsg::new(job(2), 2));
        assert_eq!(take_dispatches(&mut third, 5), want, "attempt 1 of job 2 is not sent");
        third.get_ref().set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        let more = read_frame(&mut third, DEFAULT_MAX_FRAME);
        assert!(more.is_err(), "and nothing else: {more:?}");
        master.shutdown();
    }

    #[test]
    fn a_peer_that_stops_reading_mid_announcement_slows_nobody_and_misses_nothing() {
        use crate::realtime::{
            spawn_master_on, spawn_worker_on, MasterConfig, MasterEvent, NoopRunner, WorkerConfig,
        };
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let handle = spawn_master_on(master.clone(), Registry::new(), MasterConfig::default());
        // First to connect, so first in line for credit: its window of one
        // goes to the first job there is, which it never acknowledges.
        let stalled = raw_worker(&master, 1, 1);
        wait_until("the stalled worker registers", || master.worker_conns() == 1);
        let mirror = Registry::new();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            mirror.clone(),
            TcpWorkerOptions { worker_id: 2, window: 1, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        let worker = spawn_worker_on(
            Arc::new(link.clone()),
            mirror,
            Arc::new(NoopRunner),
            WorkerConfig { worker_id: 2, slots: 1, ..WorkerConfig::default() },
        );
        wait_until("the reading worker registers", || master.worker_conns() == 2);

        let completed = |what: &str| match handle.events.recv_timeout(Duration::from_secs(30)) {
            Ok(MasterEvent::WorkflowCompleted { workflow, .. }) => workflow,
            other => panic!("waiting for {what}: {other:?}"),
        };
        let bulky = submit_bulky(&master, "stalled mid-announcement");
        // Workflow 0's one job sits with the stalled worker; the other seven
        // single-job workflows complete on the one that reads.
        for _ in 0..7 {
            completed("a bulky workflow");
        }
        assert!(unsent_to_first(&master) > 0, "the stalled worker is behind on its announcements");

        let mut chain = dewe_dag::WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..200 {
            let j = chain.job(format!("c{i}"), "t", 1.0).build();
            if let Some(p) = prev {
                chain.edge(p, j);
            }
            prev = Some(j);
        }
        let chain = dewe_dag::write_workflow(&chain.finish().unwrap());
        let began = Instant::now();
        submit_over_tcp(master.local_addr(), [("chain", &chain)]).unwrap();
        assert_eq!(completed("the chain"), WorkflowId(8));
        let took = began.elapsed();
        assert!(took < Duration::from_secs(2), "200 hops beside a stalled peer took {took:?}");
        assert!(unsent_to_first(&master) > 0, "which was stalled throughout");

        // It reads at last: every announcement, whole and in order, and its
        // one dispatch somewhere behind the workflow it belongs to.
        let mut reader = BufReader::new(stalled);
        let (mut announced, mut dispatched) = (0, 0);
        while announced < 9 {
            let frame = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap().expect("a frame");
            match DagFrame::decode(&frame).unwrap() {
                Some(DagFrame { id, dag, .. }) => {
                    assert_eq!(id, Some(WorkflowId(announced)), "in order");
                    let whole = bulky.get(announced as usize).unwrap_or(&chain);
                    assert!(dag == whole, "and whole");
                    announced += 1;
                }
                None => {
                    assert_eq!(
                        WireMsg::decode(&frame),
                        Ok(WireMsg::DispatchBatch(vec![DispatchMsg::new(job(0), 1)]))
                    );
                    assert!(announced >= 1, "a dispatch behind its workflow's announcement");
                    dispatched += 1;
                }
            }
        }
        assert_eq!(dispatched, 1);
        handle.kill();
        master.shutdown();
        worker.stop();
        link.close();
    }

    /// However much one connection has sent, a turn takes one bounded read
    /// of it — and one of everybody else's.
    #[test]
    fn a_flood_on_one_connection_is_read_a_bounded_piece_per_turn() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let mut flooder = raw_worker(&master, 1, 4);
        let mut quiet = raw_worker(&master, 2, 4);
        let mut submitter = TcpStream::connect(master.local_addr()).unwrap();
        write_frame(&mut submitter, &WireMsg::SubmitterHello.encode()).unwrap();
        wait_until("the workers register", || master.worker_conns() == 2);

        // As many acks as loopback holds for a master that is not reading.
        let mut ack = Vec::new();
        write_frame(&mut ack, &WireMsg::Ack(AckMsg::new(job(0), 1, AckKind::Running, 1)).encode())
            .unwrap();
        let burst = ack.repeat(4096);
        flooder.set_nonblocking(true).unwrap();
        let mut flooded = 0;
        loop {
            match flooder.write(&burst) {
                Ok(n) => flooded += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("flooding: {e}"),
            }
        }
        assert!(flooded > 4 * READ_BOUND, "only {flooded} bytes of flood fit");
        write_frame(
            &mut quiet,
            &WireMsg::Ack(AckMsg::new(job(7), 2, AckKind::Running, 1)).encode(),
        )
        .unwrap();
        let dag = dewe_dag::write_workflow(&wf("beside-the-flood", 1));
        let head = DagFrame { id: None, name: "beside-the-flood", dag: &dag }.head();
        write_frame_split(&mut submitter, &head, dag.as_bytes()).unwrap();

        let per_turn = READ_BOUND / ack.len() + 1;
        let (mut turns, mut of_the_flood) = (0, 0);
        loop {
            master.worker_conns();
            turns += 1;
            let ep = master.inner.state.lock();
            let flood_acks = ep.acks.iter().filter(|a| a.worker == 1).count();
            assert!(flood_acks - of_the_flood <= per_turn, "one bounded read of the flood a turn");
            of_the_flood = flood_acks;
            if ep.acks.iter().any(|a| a.worker == 2) && ep.submissions.len() == 1 {
                break;
            }
            assert!(turns < 3, "the quiet ack and the submission wait for the flood");
        }
        assert!(of_the_flood < flooded / ack.len() / 2, "most of the flood is still unread");
        master.shutdown();
    }

    /// A connection that never finishes its handshake wakes the loop with
    /// every byte and completes nothing: `pull_ack` still returns by its
    /// deadline, others are served, and `shutdown` hangs up on it.
    #[test]
    fn a_peer_that_never_finishes_its_hello_delays_nothing_and_is_hung_up_on() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let mut hello = Vec::new();
        write_frame(&mut hello, &WireMsg::Hello { worker: 5, generation: 0, window: 1 }.encode())
            .unwrap();
        let mut dribbling = TcpStream::connect(master.local_addr()).unwrap();
        let mut silent = TcpStream::connect(master.local_addr()).unwrap();
        let dribbler = std::thread::spawn(move || {
            for byte in &hello[..hello.len() - 1] {
                dribbling.write_all(&[*byte]).unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
            dribbling
        });
        let began = Instant::now();
        assert!(master.pull_ack(Duration::from_millis(60)).is_none());
        let took = began.elapsed();
        assert!(took >= Duration::from_millis(55), "nothing to return early for: {took:?}");
        assert!(
            took < Duration::from_millis(500),
            "the deadline holds under the dribble: {took:?}"
        );

        let _pump = pump(&master);
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions::default(),
        )
        .unwrap();
        master.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        let d = link.pull_dispatch(Duration::from_secs(10)).expect("others are served");
        link.publish_ack(AckMsg::new(d.job, 0, AckKind::Completed, 1));
        assert_eq!(master.pull_ack(Duration::from_secs(10)).expect("both ways").job, job(0));
        let mut dribbling = dribbler.join().unwrap();
        assert_eq!(master.worker_conns(), 1, "all but the last byte of a Hello is not a worker");

        master.shutdown();
        for (who, stream) in [("dribbling", &mut dribbling), ("silent", &mut silent)] {
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            assert!(matches!(stream.read(&mut [0u8; 1]), Ok(0) | Err(_)), "{who} was hung up on");
        }
        link.close();
    }

    #[test]
    fn shutdown_waits_for_a_peer_that_stopped_reading_no_longer_than_its_bound() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let _stalled = raw_worker(&master, 1, 1);
        wait_until("the stalled worker registers", || master.worker_conns() == 1);
        let reading = raw_worker(&master, 2, 1);
        let last_frame = std::thread::spawn(move || {
            let (mut reader, mut last) = (BufReader::new(reading), None);
            while let Ok(Some(frame)) = read_frame(&mut reader, DEFAULT_MAX_FRAME) {
                last = Some(frame[..frame.len().min(16)].to_vec());
            }
            last
        });
        submit_bulky(&master, "stalled at shutdown");
        ingest(&master, &Registry::new(), 8);
        assert!(unsent_to_first(&master) > 0, "the stalled worker is behind");

        let began = Instant::now();
        master.shutdown();
        let took = began.elapsed();
        assert!(took >= BYE_WAIT, "it was given its time: {took:?}");
        assert!(took < BYE_WAIT + Duration::from_secs(1), "and no more: {took:?}");
        let last = last_frame.join().unwrap();
        assert_eq!(
            last,
            Some(WireMsg::Bye.encode()),
            "the peer that reads got everything, Bye last"
        );
    }

    #[test]
    fn a_reset_mid_frame_drops_that_connection_only() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions::default(),
        )
        .unwrap();
        let mut rude = raw_worker(&master, 9, 4);
        wait_until("both register", || master.worker_conns() == 2);
        // Half an ack, then a close with the announcement unread: a reset.
        master
            .announce(WorkflowAnnounce {
                id: WorkflowId(0),
                name: "unread".into(),
                workflow: wf("unread", 1),
            })
            .unwrap();
        let mut ack = Vec::new();
        write_frame(
            &mut ack,
            &WireMsg::Ack(AckMsg::new(job(3), 9, AckKind::Completed, 1)).encode(),
        )
        .unwrap();
        rude.write_all(&ack[..ack.len() / 2]).unwrap();
        wait_until("the announcement has arrived", || {
            rude.peek(&mut [0u8; 1]).is_ok_and(|n| n == 1)
        });
        drop(rude);
        wait_until("the reset connection is gone", || master.worker_conns() == 1);

        master.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        let d = link.pull_dispatch(Duration::from_secs(10)).expect("the other is still served");
        link.publish_ack(AckMsg::new(d.job, 0, AckKind::Completed, 1));
        assert_eq!(master.pull_ack(Duration::from_secs(10)).expect("both ways").job, job(0));
        assert!(master.pull_ack(Duration::from_millis(50)).is_none(), "nothing of the torn ack");
        master.shutdown();
        link.close();
    }

    // -----------------------------------------------------------------
    // A DAG crosses each connection once
    // -----------------------------------------------------------------

    /// Fifty workflows of one bulky text: a worker that joins after them is
    /// replayed the text once and forty-nine aliases of it, so what reaches
    /// it before its first dispatch is less than twice the text.
    #[test]
    fn a_late_worker_is_replayed_one_text_and_its_aliases() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let dag = bulky_dag("one text, fifty names", 1);
        let names: Vec<String> = (0..50).map(|i| format!("bulky-{i}")).collect();
        submit_over_tcp(master.local_addr(), names.iter().map(|name| (name, &dag))).unwrap();
        ingest(&master, &Registry::new(), 50);

        let mut worker = BufReader::new(raw_worker(&master, 1, 1));
        wait_until("the worker registers", || master.worker_conns() == 1);
        master.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        let (mut bytes, mut texts, mut aliases) = (0, 0, 0);
        loop {
            let frame = read_frame(&mut worker, DEFAULT_MAX_FRAME).unwrap().expect("a frame");
            bytes += 4 + frame.len();
            match WireMsg::decode(&frame).unwrap() {
                WireMsg::Workflow { id, name, dag: text } => {
                    assert_eq!((id, name.as_str()), (WorkflowId(0), "bulky-0"));
                    assert!(text == dag);
                    texts += 1;
                }
                WireMsg::Alias { id, name, same_as } => {
                    assert_eq!(id.index(), 1 + aliases, "in order");
                    assert_eq!((name, same_as), (format!("bulky-{}", id.0), WorkflowId(0)));
                    aliases += 1;
                }
                WireMsg::DispatchBatch(run) => {
                    assert_eq!(run, [DispatchMsg::new(job(0), 1)]);
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!((texts, aliases), (1, 49));
        assert!(bytes < 2 * dag.len(), "{bytes} bytes for a {}-byte text", dag.len());
        master.shutdown();
    }

    /// A repeat means "the DAG of this connection's previous submission".
    /// On a connection that has none — it sent nothing yet, or its last
    /// text was refused — it is refused in turn, and the connection and
    /// the master go on.
    #[test]
    fn a_repeat_with_nothing_to_repeat_is_refused_and_serving_goes_on() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let mut submitter = TcpStream::connect(master.local_addr()).unwrap();
        let text = dewe_dag::write_workflow(&wf("repeated", 2));
        let mut frames = Vec::new();
        let frame = |msg: WireMsg| msg.encode();
        for msg in [
            WireMsg::SubmitterHello,
            WireMsg::Repeat { name: "orphan".into() },
            WireMsg::Submit { name: "first".into(), dag: text.clone() },
            WireMsg::Repeat { name: "second".into() },
            WireMsg::Submit { name: "broken".into(), dag: "JOB broken".into() },
            WireMsg::Repeat { name: "after-broken".into() },
            WireMsg::Submit { name: "third".into(), dag: text.clone() },
            WireMsg::Repeat { name: "fourth".into() },
        ] {
            write_frame(&mut frames, &frame(msg)).unwrap();
        }
        submitter.write_all(&frames).unwrap();
        let registry = Registry::new();
        ingest(&master, &registry, 4);
        assert!(master.try_pull_submission().is_none(), "the refused ones are not queued");
        let at = |i: u32| registry.get(WorkflowId(i)).unwrap();
        assert!((1..4).all(|i| Arc::ptr_eq(&at(0), &at(i))), "one text, one topology");
        assert_eq!(at(0).job_count(), 2);

        // The same connection is still read, and a worker is still served.
        write_frame(&mut submitter, &frame(WireMsg::Repeat { name: "fifth".into() })).unwrap();
        ingest(&master, &registry, 1);
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions::default(),
        )
        .unwrap();
        master.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        assert_eq!(link.pull_dispatch(Duration::from_secs(10)).expect("dispatch").job, job(0));
        master.shutdown();
        link.close();
    }
}
