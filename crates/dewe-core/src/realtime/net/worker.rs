use super::*;
use crate::protocol::ACK_FRAME;

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

/// Wait between a link's connection attempts: while the master is
/// unreachable, and after a connection drops (a master restart).
const RETRY_INTERVAL: Duration = Duration::from_millis(100);

/// How long the writer leaves what was queued to the slots while they take
/// dispatches: a frame waits at least one tick for the writer and at most
/// about two, so a tick never sends the `Running` of a job shorter than a
/// tick, a busy link's writer wakes about once a tick, not once a job, and
/// a long job's `Running` reaches the master about two ticks late at most.
/// DESIGN §8 gives both bounds.
const TICK: Duration = Duration::from_millis(1);

/// Everything the link's threads share, under [`WorkerInner::state`].
#[derive(Default)]
struct LinkState {
    /// The current connection, and bytes read off it not yet cut into
    /// frames (the reader's while it reads).
    conn: Option<Arc<TcpStream>>,
    frames: Option<FrameBuf>,
    /// A slot holds the reader role: it is in `poll`, or reading.
    reading: bool,
    inbox: VecDeque<DispatchMsg>,
    /// Frames for the next send, the writer's or a slot's.
    outbox: Outbox,
    /// Slots waiting on [`WorkerInner::slots`], and how many of them were
    /// rung and have not woken yet.
    waiters: usize,
    rung: usize,
    /// The writer waits for frames, and whether with a deadline (a tick):
    /// then a publish rings nobody.
    writer_waits: bool,
    writer_timed: bool,
    /// A pull returned a dispatch since the writer last woke.
    dispatched: bool,
    /// The writer's wake-ups from its wait for frames, rung or timed out,
    /// and the sends made, by sender (what the drills count).
    writer_wakes: usize,
    sends: Sends,
    /// `close` was called; the master said Bye (the ensemble is done);
    /// `close_dispatch` was called (the worker stops, the link serves on).
    stop: bool,
    bye: bool,
    dispatch_closed: bool,
}

type Guard<'a> = MutexGuard<'a, LinkState>;

/// One ack frame, as the re-offer ring keeps it.
type AckFrame = [u8; ACK_FRAME];

/// Frames queued for a send, back to back in one buffer, and where the
/// acks among them start. A sender swaps the whole of it for the one it
/// last sent, emptied, so neither buffer is ever given back.
#[derive(Default)]
struct Outbox {
    bytes: Vec<u8>,
    /// Each queued `Running` ack, by `(job, attempt)`.
    running: Vec<((EnsembleJobId, u32), usize)>,
    /// Each frame that settles a dispatch: a terminal ack.
    settling: Vec<usize>,
    /// A tick ended with these frames queued: the writer sends them at the
    /// next.
    aged: bool,
}

impl Outbox {
    /// Queue `ack`; a terminal ack whose `Running` is queued overwrites it.
    fn ack(&mut self, ack: &AckMsg) {
        let end = self.bytes.len();
        WireMsg::Ack(*ack).frame_into(&mut self.bytes);
        let key = (ack.job, ack.attempt);
        if ack.kind == AckKind::Running {
            self.running.push((key, end));
        } else if let Some(i) = self.running.iter().position(|&(queued, _)| queued == key) {
            let at = self.running.remove(i).1;
            self.bytes.copy_within(end.., at);
            self.bytes.truncate(end);
            self.settling.push(at);
        } else {
            self.settling.push(end);
        }
    }

    /// Queue a lifecycle message, framed.
    fn lifecycle(&mut self, msg: LifecycleMsg) {
        WireMsg::Lifecycle(msg).frame_into(&mut self.bytes);
    }

    /// Queue `ring`'s frames again, as settling frames, and empty it.
    fn offer_again(&mut self, ring: &mut VecDeque<AckFrame>) {
        for frame in ring.drain(..) {
            self.settling.push(self.bytes.len());
            self.bytes.extend_from_slice(&frame);
        }
    }

    /// The batch was sent: keep its newest settling frames in `ring`, which
    /// holds at most `window`, oldest first in the order they were sent,
    /// and empty the batch.
    fn sent(&mut self, ring: &mut VecDeque<AckFrame>, window: usize) {
        // A fold settles where its `Running` was queued, ahead of frames
        // queued before it.
        self.settling.sort_unstable();
        for &at in &self.settling[self.settling.len().saturating_sub(window)..] {
            if ring.len() == window {
                ring.pop_front();
            }
            let mut frame = [0; ACK_FRAME];
            frame.copy_from_slice(&self.bytes[at..at + ACK_FRAME]);
            ring.push_back(frame);
        }
        self.bytes.clear();
        self.running.clear();
        self.settling.clear();
        self.aged = false;
    }
}

/// Who sends the outbox (see the module documentation).
#[derive(Clone, Copy)]
enum Sender {
    /// A slot whose pull returns a dispatch, half a window queued.
    Dispatching,
    /// A slot whose pull finds nothing to run.
    Idle,
    /// The writer, rung or on its tick.
    Writer,
}

/// The sends a link made, by [`Sender`], and the fewest settling frames one
/// on the dispatch path carried.
#[derive(Default)]
struct Sends {
    by: [usize; 3],
    fewest_dispatching: Option<usize>,
}

impl Sends {
    fn count(&mut self, by: Sender, settling: usize) {
        self.by[by as usize] += 1;
        if let Sender::Dispatching = by {
            self.fewest_dispatching =
                Some(self.fewest_dispatching.map_or(settling, |f| f.min(settling)));
        }
    }
}

impl LinkState {
    fn done(&self) -> bool {
        self.stop || self.bye
    }
}

/// What a send needs besides the outbox, held by whoever sends — the
/// writer, or a slot — from taking the outbox until its write has
/// returned.
#[derive(Default)]
struct Sending {
    /// The batch being sent, kept until its write has returned `Ok` (sent
    /// again: possibly twice, never not at all).
    batch: Outbox,
    /// The newest `window` settling frames written on this connection — a
    /// write says only that the kernel took them, so the next connection
    /// offers them again.
    settled: VecDeque<AckFrame>,
}

struct WorkerInner {
    addr: SocketAddr,
    opts: TcpWorkerOptions,
    registry: Registry,
    state: Mutex<LinkState>,
    /// Taken before `state`: a slot that holds `state` only tries it.
    sending: Mutex<Sending>,
    /// Slot threads wait here for a dispatch, or for the reader role.
    slots: Condvar,
    /// The writer waits here for frames, or for its connection to end.
    writer: Condvar,
    /// Rung for good by `close_dispatch`; the reader polls it beside the socket.
    wake: Wake,
    writer_thread: Mutex<Option<JoinHandle<()>>>,
}

/// A worker daemon's connection to a remote master, with reconnect: the
/// [`WorkerTransport`] the worker slot/heartbeat loops drive. The slot that
/// waits for a dispatch reads; a slot with nothing left to run, or going
/// into a job with half a window of acks queued, sends what was queued, and
/// the link's one thread, the writer, sends the rest (see the module
/// documentation).
#[derive(Clone)]
pub struct TcpWorkerLink {
    inner: Arc<WorkerInner>,
}

impl TcpWorkerLink {
    /// Connect to the master at `addr`, mirroring announced workflows into
    /// `registry`. Returns at once; the link's one thread connects (and
    /// reconnects). Fails only if `addr` does not resolve or that thread
    /// cannot be spawned.
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
            state: Mutex::default(),
            sending: Mutex::default(),
            slots: Condvar::new(),
            writer: Condvar::new(),
            wake: Wake::new()?,
            writer_thread: Mutex::new(None),
        });
        let writer = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("dewe-worker-link".into())
            .spawn(move || writer.write_loop())?;
        *inner.writer_thread.lock() = Some(handle);
        Ok(Self { inner })
    }

    /// True once the master announced completion ([`WireMsg::Bye`]).
    pub fn master_said_bye(&self) -> bool {
        self.inner.state.lock().bye
    }

    /// Tear the link down: stop reconnecting, shut the socket (waking a slot
    /// in the reader's `poll`), release waiting slots, join the writer.
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.stop = true;
        let _ = st.conn.as_ref().map(|socket| socket.shutdown(Shutdown::Both));
        drop(st);
        self.inner.writer.notify_one();
        if let Some(writer) = self.inner.writer_thread.lock().take() {
            let _ = writer.join();
        }
    }
}

impl WorkerTransport for TcpWorkerLink {
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;

    /// A dispatch, waiting at most `timeout` for one; a timeout past the
    /// clock's range (as `Duration::MAX`) waits with no deadline. A pull
    /// that finds none first sends what is queued, unless someone else is
    /// sending; one that returns a dispatch sends what is queued, on the
    /// same terms, once the frames that settle a dispatch (terminal acks)
    /// are at least half the window the link offered, and otherwise leaves
    /// them to a later pull or the writer's tick; no pull rings the writer.
    fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
        self.inner.pull(timeout)
    }

    fn dispatch_closed(&self) -> bool {
        let st = self.inner.state.lock();
        st.done() || st.dispatch_closed
    }

    fn close_dispatch(&self) {
        self.inner.state.lock().dispatch_closed = true;
        self.inner.slots.notify_all();
        self.inner.wake.ring();
    }

    /// Queue `ack`, framed into the link's one outbox buffer. A terminal
    /// ack whose `Running` has not been sent yet overwrites that frame in
    /// place (ack frames are all one size), and the `Running` is never sent:
    /// the master sees the job end where it would have seen it start, ahead
    /// of anything queued since (a `Drain` above all), and learns nothing
    /// from a checkout that ended before it could arrive. Nothing is
    /// allocated once the buffer has grown to a burst.
    ///
    /// The writer is rung only if it waits with no deadline (an idle link).
    /// While slots take dispatches the ack waits for a slot's pull — one
    /// that finds nothing to run, or one into a job with half a window
    /// settled (see [`pull_dispatch`](Self::pull_dispatch)) — or for the
    /// writer's tick if no such pull comes within a tick.
    fn publish_ack(&self, ack: AckMsg) {
        let mut st = self.inner.state.lock();
        st.outbox.ack(&ack);
        self.inner.ring_idle_writer(st);
    }

    /// Queue `msg`, framed, as [`publish_ack`](Self::publish_ack) queues an ack.
    fn publish_lifecycle(&self, msg: LifecycleMsg) {
        let mut st = self.inner.state.lock();
        st.outbox.lifecycle(msg);
        self.inner.ring_idle_writer(st);
    }
}

impl WorkerInner {
    /// Mirror announced workflow `id` into the local registry: `dag`, the
    /// first announcement of its text, parsed.
    fn mirror(&self, id: WorkflowId, dag: &str) {
        // Dense-insert guard, before the text is parsed: after a reconnect
        // the master replays its whole registry, and every replayed frame
        // is dropped here unparsed.
        if id.index() != self.registry.len() {
            return;
        }
        match parse_workflow(dag) {
            Ok(workflow) => self.registry.insert(id, Arc::new(workflow)),
            // The error may quote a token of any length: it is clipped.
            Err(e) => eprintln!(
                "dewe-worker: bad workflow {id} from master: {}; ids are mirrored densely, \
                 so this worker will refuse every later workflow as well",
                Clipped(&e.to_string())
            ),
        }
    }

    /// Mirror workflow `id` as the one already mirrored as `same_as`,
    /// behind the same guard. The decoder admits only an earlier `same_as`,
    /// and a dense mirror whose next id is `id` holds every earlier one.
    fn alias(&self, id: WorkflowId, same_as: WorkflowId) {
        if id.index() != self.registry.len() {
            return;
        }
        if let Some(workflow) = self.registry.get(same_as) {
            self.registry.insert(id, workflow);
        }
    }

    /// Wake the writer for what was just queued, if it waits with no
    /// deadline; a writer on its tick is left to it.
    fn ring_idle_writer(&self, mut st: Guard<'_>) {
        let ring = st.writer_waits && !st.writer_timed;
        st.writer_waits &= !ring;
        drop(st);
        if ring {
            self.writer.notify_one();
        }
    }

    /// A queued dispatch; else the reader role, if it is free and there is a
    /// connection; else a wait for either — for at most `timeout`. A pull with
    /// no deadline, as the slot loop's, never reads the clock.
    fn pull(&self, timeout: Duration) -> Option<DispatchMsg> {
        // `None`: no deadline.
        let deadline =
            (timeout != Duration::MAX).then(|| Instant::now().checked_add(timeout)).flatten();
        let mut st = self.state.lock();
        loop {
            let dispatch = (!st.dispatch_closed).then(|| st.inbox.pop_front()).flatten();
            // Nothing to run: what is queued leaves now, unless someone is
            // sending already.
            if dispatch.is_none() && !st.outbox.bytes.is_empty() {
                if let (Some(socket), Some(mut sending)) =
                    (st.conn.clone(), self.sending.try_lock())
                {
                    st = self.send(st, &socket, &mut sending, Sender::Idle);
                    continue;
                }
            }
            // What is left of the wait: `None` for no end.
            let left = if dispatch.is_some() || st.done() || st.dispatch_closed {
                Some(Duration::ZERO)
            } else {
                deadline.map(|until| until.saturating_duration_since(Instant::now()))
            };
            if left.is_some_and(|left| left.is_zero()) {
                // A slot going into a job sends what is queued once it
                // settles half the window, unless someone is sending; less
                // is left to its next pull, another slot's, or the tick.
                let window = self.opts.window.max(1) as usize;
                if dispatch.is_some() && 2 * st.outbox.settling.len() >= window {
                    if let (Some(socket), Some(mut sending)) =
                        (st.conn.clone(), self.sending.try_lock())
                    {
                        st = self.send(st, &socket, &mut sending, Sender::Dispatching);
                    }
                }
                // A waiter takes over what is left: a dispatch, or the role.
                // One already rung looks once it wakes, so it is rung once
                // per wait, however many pulls leave work behind meanwhile.
                let role_free = !st.reading && st.conn.is_some();
                let hand_off = st.waiters > st.rung && (!st.inbox.is_empty() || role_free);
                st.rung += usize::from(hand_off);
                st.dispatched |= dispatch.is_some();
                drop(st);
                if hand_off {
                    self.slots.notify_one();
                }
                return dispatch;
            }
            match st.conn.clone() {
                Some(socket) if !st.reading => {
                    st = self.read(st, socket, left.unwrap_or(Duration::MAX));
                }
                _ => {
                    st.waiters += 1;
                    match deadline {
                        Some(until) => {
                            let _ = self.slots.wait_until(&mut st, until);
                        }
                        None => self.slots.wait(&mut st),
                    }
                    // Rung or not, a slot that wakes settles one ring: the
                    // count may fall short of the rings on their way (a spare
                    // ring later), never exceed them (a waiter left asleep).
                    st.waiters -= 1;
                    st.rung = st.rung.saturating_sub(1);
                }
            }
        }
    }

    /// One turn of the reader role: `poll` on `socket` and the wake-up,
    /// unlocked, for up to `wait`, then one bounded read; a connection that
    /// ended or broke protocol is over. Returns the state locked, role given back.
    fn read(&self, mut st: Guard<'_>, socket: Arc<TcpStream>, wait: Duration) -> Guard<'_> {
        st.reading = true;
        let mut frames = st.frames.take().unwrap_or(FrameBuf::new(DEFAULT_MAX_FRAME, READ_BOUND));
        drop(st);
        let mut got = Vec::new();
        let mut fds = [PollFd::new(&*socket, POLLIN), PollFd::new(&self.wake.0, POLLIN)];
        let read = match poll(&mut fds, wait) {
            Ok(1..) if fds[0].revents != 0 => self.receive(&socket, &mut frames, &mut got),
            _ => Ok(()),
        };
        let mut st = self.state.lock();
        st.reading = false;
        st.inbox.extend(got);
        // Only the writer replaces a connection, and one it replaced is over.
        let current = st.conn.as_ref().is_some_and(|conn| Arc::ptr_eq(conn, &socket));
        match read {
            Ok(()) => st.frames = current.then_some(frames),
            Err(bye) => {
                st.conn.take_if(|_| current);
                st.bye |= bye;
                self.writer.notify_one();
                self.slots.notify_all();
            }
        }
        st
    }

    /// One bounded read of `socket` into `frames`, and every whole frame it
    /// completed handled. `Err` ends the connection: `true` for a Bye.
    fn receive(
        &self,
        socket: &TcpStream,
        frames: &mut FrameBuf,
        got: &mut Vec<DispatchMsg>,
    ) -> Result<(), bool> {
        match frames.fill(&mut &*socket) {
            Ok(1..) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
            _ => return Err(false),
        }
        let why = loop {
            let frame = match frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()),
                Err(e) => break e.to_string(),
            };
            match WireMsg::decode(frame) {
                Ok(WireMsg::Workflow { id, dag, .. }) => self.mirror(id, &dag),
                // A read that brings one batch, as a chain hop's does, hands
                // it on in the allocation it was decoded into.
                Ok(WireMsg::DispatchBatch(batch)) if got.is_empty() => *got = batch.into_owned(),
                Ok(WireMsg::DispatchBatch(batch)) => got.extend_from_slice(&batch),
                Ok(WireMsg::Alias { id, same_as, .. }) => self.alias(id, same_as),
                Ok(WireMsg::Bye) => return Err(true),
                Ok(other) => break format!("unexpected frame {other:?}"),
                Err(e) => break e.to_string(),
            }
        };
        eprintln!("dewe-worker: bad frame from master: {why}; reconnecting");
        Err(false)
    }

    /// Send the outbox on `socket`, the current connection, in one
    /// `write_all` (a burst of acks is one `send(2)`), counted as `by`'s;
    /// the caller holds `sending`, and `st` is unlocked across the write. A
    /// write that fails ends the connection, and its batch stays for the
    /// next one.
    fn send<'a>(
        &'a self,
        mut st: Guard<'a>,
        socket: &Arc<TcpStream>,
        sending: &mut Sending,
        by: Sender,
    ) -> Guard<'a> {
        // Whoever sends holds `sending` until a failed batch's connection is
        // marked over, so a batch left behind is never sent into.
        debug_assert!(sending.batch.bytes.is_empty(), "a failed batch on a live connection");
        std::mem::swap(&mut sending.batch, &mut st.outbox);
        st.sends.count(by, sending.batch.settling.len());
        drop(st);
        let Sending { batch, settled } = sending;
        if (&**socket).write_all(&batch.bytes).is_ok() {
            batch.sent(settled, self.opts.window.max(1) as usize);
            self.state.lock()
        } else {
            self.write_failed(self.state.lock(), socket)
        }
    }

    /// A write on `socket` failed, so the connection is over. With every
    /// slot in a job nobody reads: what the master sent before the end, a
    /// Bye above all, is read now, not dropped with the socket.
    fn write_failed<'a>(&'a self, mut st: Guard<'a>, socket: &Arc<TcpStream>) -> Guard<'a> {
        let current = |st: &Guard<'_>| st.conn.as_ref().is_some_and(|c| Arc::ptr_eq(c, socket));
        let mut fds = [PollFd::new(&**socket, POLLIN)];
        let mut readable = || matches!(poll(&mut fds, Duration::ZERO), Ok(1..));
        while current(&st) && !st.reading && readable() {
            st = self.read(st, Arc::clone(socket), Duration::ZERO);
        }
        if current(&st) {
            st.conn = None;
            self.writer.notify_one();
        }
        st
    }

    /// The link's one thread: connect, serve, wait out [`RETRY_INTERVAL`],
    /// and again, until the link closes or the master says Bye.
    fn write_loop(&self) {
        while !self.state.lock().done() {
            if let Ok(socket) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(2)) {
                let _ = socket.set_nodelay(true);
                self.serve(Arc::new(socket));
            }
            let retry = Instant::now() + RETRY_INTERVAL;
            let mut st = self.state.lock();
            while !st.done() && !self.writer.wait_until(&mut st, retry).timed_out() {}
        }
        self.slots.notify_all();
    }

    /// One connection: the `Hello`, the failed batch and the ring in one
    /// write, then what the slots leave to the writer — until a write fails,
    /// a reader finds the connection over, or the link closes. The ring
    /// joins the failed batch behind it, so it is refilled in the order its
    /// frames went out on this connection, and `sending` is held until the
    /// first write has returned, so no slot sends ahead of the `Hello`.
    fn serve(&self, socket: Arc<TcpStream>) {
        let mut sending = self.sending.lock();
        self.state.lock().conn = Some(Arc::clone(&socket));
        self.slots.notify_all();
        let TcpWorkerOptions { worker_id: worker, generation, window } = self.opts;
        let Sending { batch, settled } = &mut *sending;
        batch.offer_again(settled);
        let mut first = Vec::new();
        WireMsg::Hello { worker, generation, window }.frame_into(&mut first);
        first.extend_from_slice(&batch.bytes);
        if (&*socket).write_all(&first).is_ok() {
            batch.sent(settled, window.max(1) as usize);
        } else {
            drop(self.write_failed(self.state.lock(), &socket));
        }
        drop(sending);
        loop {
            let more = self.wait_for_frames(&mut self.state.lock());
            if !more {
                break;
            }
            // A slot may send meanwhile, or end the connection.
            let mut sending = self.sending.lock();
            let st = self.state.lock();
            if st.conn.is_some() && !st.outbox.bytes.is_empty() {
                drop(self.send(st, &socket, &mut sending, Sender::Writer));
            }
        }
        let mut st = self.state.lock();
        (st.conn, st.frames) = (None, None);
        drop(st);
        self.slots.notify_all();
        let _ = socket.shutdown(Shutdown::Both);
    }

    /// The writer's wait for frames to send: `true` once there are, `false`
    /// once the connection is over or the link closed. Just woken by a ring
    /// or back from a send, it sends what is queued at once. Otherwise it
    /// waits with no deadline on an idle link, where a publish rings it,
    /// and a tick at a time while slots take dispatches or frames wait,
    /// where nothing does: frames queued through a whole tick go out at the
    /// end of the next.
    fn wait_for_frames(&self, st: &mut Guard<'_>) -> bool {
        let mut ready = true;
        loop {
            if st.conn.is_none() || st.stop {
                return false;
            }
            if ready && !st.outbox.bytes.is_empty() {
                return true;
            }
            let timed = std::mem::take(&mut st.dispatched) || !st.outbox.bytes.is_empty();
            (st.writer_waits, st.writer_timed) = (true, timed);
            let timed_out = if timed {
                self.writer.wait_until(st, Instant::now() + TICK).timed_out()
            } else {
                self.writer.wait(st);
                false
            };
            st.writer_wakes += 1;
            // A ringer takes `writer_waits`.
            let rung = !std::mem::take(&mut st.writer_waits);
            ready = rung || (timed_out && st.outbox.aged);
            if timed_out {
                st.outbox.aged = !st.outbox.bytes.is_empty();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, BufWriter};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    use dewe_dag::{EnsembleJobId, JobId, Workflow};
    use dewe_mq::{read_frame, write_frame};
    use proptest::prelude::{any, prop_assert, prop_assert_eq};

    use super::*;
    use crate::protocol::LifecycleKind;
    use crate::realtime::testutil::{endpoint, gated, link, pump, wait_reading, wait_until, wf};
    use crate::realtime::{
        spawn_worker_on, JobOutcome, JobRunner, NoopRunner, RunContext, TcpMaster,
        TcpMasterOptions, WorkerConfig,
    };

    fn job(j: u32) -> EnsembleJobId {
        EnsembleJobId::new(WorkflowId(0), JobId(j))
    }

    /// A plain listener standing in for the master, and a link to it.
    fn stand_in(opts: TcpWorkerOptions) -> (TcpListener, TcpWorkerLink, Registry) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mirror = Registry::new();
        let link = TcpWorkerLink::connect(listener.local_addr().unwrap(), mirror.clone(), opts);
        (listener, link.unwrap(), mirror)
    }

    /// The stand-in's next connection, its Hello read.
    fn accept(listener: &TcpListener) -> BufReader<TcpStream> {
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(stream);
        assert!(
            matches!(next(&mut reader), WireMsg::Hello { .. }),
            "a connection opens with Hello"
        );
        reader
    }

    /// The next frame the link sent the stand-in.
    fn next(reader: &mut BufReader<TcpStream>) -> WireMsg<'static> {
        let frame = read_frame(reader, DEFAULT_MAX_FRAME).unwrap().expect("a frame, not the end");
        WireMsg::decode(&frame).unwrap().into_owned()
    }

    fn next_ack(reader: &mut BufReader<TcpStream>) -> AckMsg {
        match next(reader) {
            WireMsg::Ack(ack) => ack,
            other => panic!("expected an ack, got {other:?}"),
        }
    }

    #[test]
    fn worker_link_survives_master_restart_on_same_port() {
        let master = endpoint();
        let _pump = pump(&master);
        let addr = master.local_addr();
        let (link, registry) = link(&master, 0, 8);
        master
            .announce(WorkflowAnnounce {
                id: WorkflowId(0),
                name: "a".into(),
                workflow: wf("a", 1),
            })
            .unwrap();
        wait_reading(&link, "the announcement is mirrored", || registry.len() == 1);
        // Kill the master endpoint abruptly (no Bye — a crash). Acks the
        // worker produces once its link has seen the connection die wait
        // on the link, with no connection to carry them.
        master.kill();
        wait_reading(&link, "the link notices", || link.inner.state.lock().conn.is_none());
        for j in 0..50 {
            link.publish_ack(AckMsg::new(job(j), 0, AckKind::Completed, 1));
        }
        // Then bind a replacement on the same port (SO_REUSEADDR path)
        // and re-announce.
        let master2 = TcpMaster::bind(addr, TcpMasterOptions::default()).unwrap();
        let _pump2 = pump(&master2);
        master2
            .announce(WorkflowAnnounce {
                id: WorkflowId(0),
                name: "a".into(),
                workflow: wf("a", 1),
            })
            .unwrap();
        master2
            .announce(WorkflowAnnounce {
                id: WorkflowId(1),
                name: "b".into(),
                workflow: wf("b", 1),
            })
            .unwrap();
        // The link reconnects and mirrors the new announcement; the
        // replayed wf-0 is skipped by the dense-insert guard.
        wait_reading(&link, "the link reconnects and mirrors", || registry.len() == 2);
        // Every ack of the outage reaches the new master, in order.
        for j in 0..50 {
            let ack = master2.pull_ack(Duration::from_secs(10)).expect("an outage ack");
            assert_eq!(ack.job, job(j));
        }
        // And an ack published after the restart still arrives.
        let after = EnsembleJobId::new(WorkflowId(1), JobId(0));
        link.publish_ack(AckMsg::new(after, 0, AckKind::Completed, 1));
        let ack = master2.pull_ack(Duration::from_secs(10)).expect("ack after failover");
        assert_eq!(ack.job, after);
        master2.shutdown();
        link.close();
    }

    /// The link writer sleeps with no tick to fall back on: a burst
    /// published while it sleeps must wake it, and however the burst is cut
    /// into batches and flushes, the master sees every ack once and in
    /// order.
    #[test]
    fn acks_published_while_the_link_writer_sleeps_arrive_complete_and_in_order() {
        let master = endpoint();
        let _pump = pump(&master);
        let (link, _) = link(&master, 0, 8);
        wait_until("the link registers", || master.worker_conns() == 1);
        wait_until("the link writer sleeps", || link.inner.state.lock().writer_waits);
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

    /// A batch is the link's until its flush has returned `Ok`. One that
    /// was written into a connection that then failed is sent again on the
    /// next connection — all of it, ahead of anything queued since, in
    /// order. (Some of it may arrive twice; the master tolerates that.)
    #[test]
    fn a_batch_whose_flush_failed_is_resent_whole_and_first_on_the_next_connection() {
        let (listener, link, _) = stand_in(TcpWorkerOptions::default());
        // First connection: the peer resets it (closing with the Hello
        // still unread sends RST, not FIN) while the writer sleeps and
        // nothing reads the link.
        let (first, _) = listener.accept().unwrap();
        wait_until("the Hello arrives", || first.peek(&mut [0u8; 1]).is_ok_and(|n| n == 1));
        wait_until("the writer sleeps", || link.inner.state.lock().writer_waits);
        let socket = Arc::clone(link.inner.state.lock().conn.as_ref().expect("connected"));
        drop(first);
        wait_until("the reset lands", || {
            matches!(poll(&mut [PollFd::new(&*socket, POLLIN)], Duration::ZERO), Ok(1..))
        });
        let done = |j: u32| AckMsg::new(job(j), 0, AckKind::Completed, 1);
        for j in 0..10 {
            link.publish_ack(done(j));
        }
        wait_until("the flush fails", || link.inner.state.lock().conn.is_none());
        // Acks keep coming during the outage.
        for j in 10..20 {
            link.publish_ack(done(j));
        }

        // Second connection: everything arrives, the failed batch first.
        let mut second = accept(&listener);
        for j in 0..20 {
            assert_eq!(next_ack(&mut second).job, job(j), "in order, none lost");
        }
        link.close();
    }

    /// DESIGN §8's lost ack: a completion flushed into a master that dies
    /// before it is journaled used to wait out the job's timeout. The link
    /// offers the settling frames it flushed on a connection again on the
    /// next one, after its Hello.
    #[test]
    fn a_completion_flushed_into_a_dying_master_is_offered_again_after_the_reconnect() {
        let opts = TcpWorkerOptions { worker_id: 4, window: 1, ..TcpWorkerOptions::default() };
        let (listener, link, mirror) = stand_in(opts);
        let (runner, open) = gated(NoopRunner);
        let config = WorkerConfig { worker_id: 4, slots: 1, ..WorkerConfig::default() };
        let worker = spawn_worker_on(Arc::new(link.clone()), mirror, runner, config);
        let mut first = accept(&listener);
        let dag = dewe_dag::write_workflow(&wf("w", 1));
        let announce = WireMsg::Workflow { id: WorkflowId(0), name: "w".into(), dag };
        write_frame(first.get_mut(), &announce.encode()).unwrap();
        let one = WireMsg::DispatchBatch(vec![DispatchMsg::new(job(0), 1)].into());
        write_frame(first.get_mut(), &one.encode()).unwrap();
        assert_eq!(next_ack(&mut first).kind, AckKind::Running);
        open.send(()).unwrap();
        assert_eq!(next_ack(&mut first), AckMsg::new(job(0), 4, AckKind::Completed, 1));
        // The master read the completion and died before journaling it.
        drop(first);

        let mut second = accept(&listener);
        assert_eq!(
            next_ack(&mut second),
            AckMsg::new(job(0), 4, AckKind::Completed, 1),
            "the completion is offered again"
        );
        worker.stop();
        link.close();
    }

    /// Announce workflow 0, of `jobs` jobs, to a link's stand-in, from now
    /// on sending each frame in one segment.
    fn announce_to(master: &mut BufReader<TcpStream>, jobs: usize) {
        master.get_ref().set_nodelay(true).unwrap();
        let dag = dewe_dag::write_workflow(&wf("w", jobs));
        let announce = WireMsg::Workflow { id: WorkflowId(0), name: "w".into(), dag };
        write_frame(master.get_mut(), &announce.encode()).unwrap();
    }

    /// Dispatch its job `j`, in one write.
    fn dispatch_to(master: &mut BufReader<TcpStream>, j: u32) {
        let mut frame = Vec::new();
        WireMsg::DispatchBatch(vec![DispatchMsg::new(job(j), 1)].into()).frame_into(&mut frame);
        master.get_mut().write_all(&frame).unwrap();
    }

    /// A publish leaves a busy link's writer to its tick, and the tick is
    /// what sends a long job's `Running` while the job runs: each of a
    /// one-slot worker's jobs, held until the stand-in has read its
    /// `Running`, announces its start within a few ticks. (The first rings
    /// a writer idle until then; the others find it on its tick.)
    #[test]
    fn a_held_jobs_running_reaches_the_master_within_a_few_ticks() {
        const JOBS: u32 = 5;
        let (listener, link, mirror) = stand_in(TcpWorkerOptions::default());
        let (runner, open) = gated(NoopRunner);
        let config = WorkerConfig { slots: 1, ..WorkerConfig::default() };
        let worker = spawn_worker_on(Arc::new(link.clone()), mirror, runner, config);
        let mut master = accept(&listener);
        announce_to(&mut master, JOBS as usize);
        for j in 0..JOBS {
            let sent = Instant::now();
            dispatch_to(&mut master, j);
            assert_eq!(next_ack(&mut master), ack(j, AckKind::Running, 1), "while the job is held");
            let took = sent.elapsed();
            // Two ticks, and room for a loaded machine's scheduling.
            assert!(took < 25 * TICK, "job {j}'s Running took {took:?}");
            open.send(()).unwrap();
            assert_eq!(next_ack(&mut master), ack(j, AckKind::Completed, 1));
        }
        worker.stop();
        link.close();
    }

    /// The writer wakes for what it is rung for and for its tick, and for
    /// nothing else (as the master wakes for its deadlines): through a
    /// chain of jobs run one at a time it wakes about once a tick, not once
    /// a job, since the slot sends its own acks when it finds nothing to
    /// run; once the chain stops it sleeps with no deadline, and 500 ms
    /// pass without a wake-up.
    #[test]
    fn the_writer_wakes_about_once_a_tick_while_busy_and_never_while_idle() {
        const JOBS: u32 = 2_000;
        let (listener, link, mirror) = stand_in(TcpWorkerOptions::default());
        let config = WorkerConfig { slots: 1, ..WorkerConfig::default() };
        let worker = spawn_worker_on(Arc::new(link.clone()), mirror, Arc::new(NoopRunner), config);
        let mut master = accept(&listener);
        announce_to(&mut master, JOBS as usize);
        let wakes = || link.inner.state.lock().writer_wakes;
        let (began, before) = (Instant::now(), wakes());
        for j in 0..JOBS {
            dispatch_to(&mut master, j);
            let mut end = next_ack(&mut master);
            if end.kind == AckKind::Running {
                end = next_ack(&mut master);
            }
            assert_eq!(end, ack(j, AckKind::Completed, 1));
        }
        let (woke, ticks) = (wakes() - before, began.elapsed().div_duration_f64(TICK));
        // Each timed wait lasts a tick at least; the first job's `Running`
        // rings a writer that was idle until then.
        assert!(woke >= 2, "a busy writer woke {woke} times in {ticks:.0} ticks");
        assert!(woke as f64 <= ticks + 5.0, "{woke} wake-ups in {ticks:.0} ticks, {JOBS} jobs");

        // A tick with no dispatch and nothing queued, and the writer waits
        // with no deadline.
        wait_until("the writer waits with no deadline", || {
            let st = link.inner.state.lock();
            st.writer_waits && !st.writer_timed
        });
        let before = wakes();
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(wakes(), before, "an idle link's writer woke on its own");
        worker.stop();
        link.close();
    }

    /// A stand-in master that dispatches workflow 0's `jobs` jobs to a
    /// worker of `slots` no-op slots on a link offering `window`, refilling
    /// the link's credit only on terminal acks, as the master does. Once
    /// every job has settled, each exactly once and within 30 s, `check` is
    /// given the link's state and the time the run took.
    fn settle_on_credit(
        slots: usize,
        window: u32,
        jobs: u32,
        check: impl FnOnce(&LinkState, Duration),
    ) {
        let began = Instant::now();
        let deadline = began + Duration::from_secs(30);
        let opts = TcpWorkerOptions { window, ..TcpWorkerOptions::default() };
        let (listener, link, mirror) = stand_in(opts);
        let config = WorkerConfig { slots, ..WorkerConfig::default() };
        let worker = spawn_worker_on(Arc::new(link.clone()), mirror, Arc::new(NoopRunner), config);
        let mut master = accept(&listener);
        announce_to(&mut master, jobs as usize);
        let (mut settled, mut unsettled) = (vec![false; jobs as usize], jobs);
        let (mut credit, mut sent, mut frame) = (window, 0, Vec::new());
        while unsettled > 0 {
            // Every ack read is in: what credit there is leaves in one batch.
            if master.buffer().is_empty() {
                let run: Vec<DispatchMsg> =
                    (sent..jobs.min(sent + credit)).map(|j| DispatchMsg::new(job(j), 1)).collect();
                (credit, sent) = (credit - run.len() as u32, sent + run.len() as u32);
                if !run.is_empty() {
                    frame.clear();
                    WireMsg::DispatchBatch(run.into()).frame_into(&mut frame);
                    master.get_mut().write_all(&frame).unwrap();
                }
                let left = deadline.saturating_duration_since(Instant::now());
                master
                    .get_ref()
                    .set_read_timeout(Some(left.max(Duration::from_millis(1))))
                    .unwrap();
            }
            let Ok(Some(bytes)) = read_frame(&mut master, DEFAULT_MAX_FRAME) else {
                panic!("window {window}, {slots} slots: {unsettled} jobs unsettled after 30 s");
            };
            match WireMsg::decode(&bytes).unwrap() {
                WireMsg::Ack(ack) if ack.kind == AckKind::Running => {}
                WireMsg::Ack(ack) => {
                    let j = ack.job.job.0 as usize;
                    assert!(!std::mem::replace(&mut settled[j], true), "job {j} settled twice");
                    (credit, unsettled) = (credit + 1, unsettled - 1);
                }
                other => panic!("expected an ack, got {other:?}"),
            }
        }
        check(&link.inner.state.lock(), began.elapsed());
        assert_eq!(worker.stop(), u64::from(jobs));
        link.close();
    }

    /// A slot going into a job sends what is queued only once it settles
    /// half the window: two slots take 20,000 jobs on credit refilled by
    /// their terminal acks, every send on the dispatch path carries at
    /// least 32 of a window of 64, and the writer, left the rest, wakes no
    /// more than once a tick.
    #[test]
    fn a_slot_going_into_a_job_sends_half_a_window_or_nothing() {
        settle_on_credit(2, 64, 20_000, |st, took| {
            let [dispatching, idle, writer] = st.sends.by;
            let fewest = st.sends.fewest_dispatching;
            eprintln!(
                "sends: {dispatching} dispatching, {idle} idle, {writer} writer; fewest {fewest:?}"
            );
            assert!(dispatching > 0, "no slot going into a job sent");
            assert!(
                fewest >= Some(32),
                "a send on the dispatch path carried {fewest:?} settling frames"
            );
            let (woke, ticks) = (st.writer_wakes, took.div_duration_f64(TICK));
            assert!(woke as f64 <= ticks + 5.0, "{woke} writer wake-ups in {ticks:.0} ticks");
        });
    }

    /// No window leaves credit stalled under the threshold: at windows 1, 2
    /// and 3, and at the daemon's default of two a slot for 1, 2 and 4
    /// slots, 2,000 jobs settle within the deadline.
    #[test]
    fn every_window_settles_its_jobs_under_the_threshold() {
        for (slots, window) in [(2, 1), (2, 2), (2, 3), (1, 2), (2, 4), (4, 8)] {
            settle_on_credit(slots, window, 2_000, |_, _| {});
        }
    }

    /// What a slot with nothing to run sends itself is the link's as what
    /// the writer sends is: a completion it sent into a master that then
    /// died is offered again after the reconnect, and one whose write failed
    /// goes first on the next connection, ahead of the ring.
    #[test]
    fn a_slots_own_send_into_a_dying_master_is_offered_again_after_the_reconnect() {
        let opts = TcpWorkerOptions { window: 1, ..TcpWorkerOptions::default() };
        let (listener, link, _) = stand_in(opts);
        let mut first = accept(&listener);
        // Queued by hand, which rings nobody, then sent by a pull that
        // finds nothing to run, as a slot's is.
        let slot_sends = |ack: AckMsg| {
            wait_until("the writer sleeps", || link.inner.state.lock().writer_waits);
            link.inner.state.lock().outbox.ack(&ack);
            assert_eq!(link.pull_dispatch(Duration::ZERO), None);
            assert!(link.inner.state.lock().outbox.bytes.is_empty(), "the pull took the outbox");
        };
        slot_sends(ack(0, AckKind::Completed, 1));
        assert_eq!(next_ack(&mut first), ack(0, AckKind::Completed, 1));
        // A `Running` left unread makes the stand-in's close a reset, so
        // the next write fails.
        slot_sends(ack(9, AckKind::Running, 1));
        wait_until("the Running arrives", || {
            first.get_ref().peek(&mut [0u8; 1]).is_ok_and(|n| n == 1)
        });
        let socket = Arc::clone(link.inner.state.lock().conn.as_ref().expect("connected"));
        drop(first);
        wait_until("the reset lands", || {
            matches!(poll(&mut [PollFd::new(&*socket, POLLIN)], Duration::ZERO), Ok(1..))
        });
        slot_sends(ack(1, AckKind::Completed, 1));
        assert!(link.inner.state.lock().conn.is_none(), "the failed write ended the connection");

        let mut second = accept(&listener);
        assert_eq!(next_ack(&mut second), ack(1, AckKind::Completed, 1), "the failed batch");
        assert_eq!(next_ack(&mut second), ack(0, AckKind::Completed, 1), "then the ring");
        link.close();
    }

    /// A stand-in the link cannot reach yet: `publish` runs while the link
    /// has no connection, so what it publishes waits in the outbox together,
    /// as a burst does when the writer is busy. Then the stand-in binds, and
    /// the link's connection to it is returned, its Hello read.
    fn after_an_outage(
        opts: TcpWorkerOptions,
        publish: impl FnOnce(&TcpWorkerLink),
    ) -> (TcpListener, TcpWorkerLink, BufReader<TcpStream>) {
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let link = TcpWorkerLink::connect(addr, Registry::new(), opts).unwrap();
        publish(&link);
        assert!(link.inner.state.lock().conn.is_none(), "nothing was flushed yet");
        let listener = TcpListener::bind(addr).unwrap();
        let master = accept(&listener);
        (listener, link, master)
    }

    fn ack(j: u32, kind: AckKind, attempt: u32) -> AckMsg {
        AckMsg::new(job(j), 0, kind, attempt)
    }

    fn drain() -> LifecycleMsg {
        LifecycleMsg::new(0, 0, LifecycleKind::Drain)
    }

    /// A terminal ack published while its `Running` still waits takes the
    /// `Running`'s place: the master reads one ack a job, the terminal one,
    /// in the order the jobs started, however the ends were ordered.
    #[test]
    fn a_running_ack_still_queued_is_sent_as_its_terminal_ack() {
        let end = |j: u32| if j.is_multiple_of(3) { AckKind::Failed } else { AckKind::Completed };
        let (_listener, link, mut master) = after_an_outage(TcpWorkerOptions::default(), |link| {
            for j in 0..10 {
                link.publish_ack(ack(j, AckKind::Running, 1));
                link.publish_ack(ack(j, end(j), 1));
            }
            (10..20).for_each(|j| link.publish_ack(ack(j, AckKind::Running, 1)));
            (10..20).rev().for_each(|j| link.publish_ack(ack(j, end(j), 1)));
            link.publish_lifecycle(drain());
        });
        for j in 0..20 {
            assert_eq!(next_ack(&mut master), ack(j, end(j), 1), "in order, terminal only");
        }
        assert_eq!(next(&mut master), WireMsg::Lifecycle(drain()), "and no Running after them");
        link.close();
    }

    /// The folded ack keeps the `Running`'s place, so a `Drain` published
    /// while the job ran reaches the master after the job's end, as the
    /// `Running` would have reached it before the `Drain`.
    #[test]
    fn a_drain_published_while_a_job_ran_arrives_after_its_folded_end() {
        let (_listener, link, mut master) = after_an_outage(TcpWorkerOptions::default(), |link| {
            link.publish_ack(ack(0, AckKind::Running, 1));
            link.publish_lifecycle(drain());
            link.publish_ack(ack(0, AckKind::Completed, 1));
        });
        assert_eq!(next_ack(&mut master), ack(0, AckKind::Completed, 1));
        assert_eq!(next(&mut master), WireMsg::Lifecycle(drain()));
        link.close();
    }

    /// A job still running when the writer takes its `Running` announces it
    /// as before, and its end, published after, follows on its own.
    #[test]
    fn a_running_ack_with_no_end_yet_is_sent_alone() {
        let (_listener, link, mut master) = after_an_outage(TcpWorkerOptions::default(), |link| {
            link.publish_ack(ack(0, AckKind::Running, 1));
            link.publish_ack(ack(1, AckKind::Running, 1));
            link.publish_ack(ack(1, AckKind::Completed, 1));
            link.publish_ack(ack(0, AckKind::Running, 2)); // Another attempt's.
        });
        assert_eq!(next_ack(&mut master), ack(0, AckKind::Running, 1));
        assert_eq!(next_ack(&mut master), ack(1, AckKind::Completed, 1));
        assert_eq!(next_ack(&mut master), ack(0, AckKind::Running, 2));
        link.publish_ack(ack(0, AckKind::Completed, 1));
        assert_eq!(next_ack(&mut master), ack(0, AckKind::Completed, 1));
        link.close();
    }

    /// Two slots that run the same `(job, attempt)` (a dispatch the master
    /// sent twice) each fold their own `Running`: two terminal acks arrive.
    #[test]
    fn two_slots_running_one_attempt_send_two_terminal_acks() {
        let (_listener, link, mut master) = after_an_outage(TcpWorkerOptions::default(), |link| {
            link.publish_ack(ack(0, AckKind::Running, 1));
            link.publish_ack(ack(0, AckKind::Running, 1));
            link.publish_ack(ack(0, AckKind::Completed, 1));
            link.publish_ack(ack(0, AckKind::Failed, 1));
            link.publish_lifecycle(drain());
        });
        assert_eq!(next_ack(&mut master), ack(0, AckKind::Completed, 1));
        assert_eq!(next_ack(&mut master), ack(0, AckKind::Failed, 1));
        assert_eq!(next(&mut master), WireMsg::Lifecycle(drain()));
        link.close();
    }

    /// A folded ack settles a dispatch like any terminal ack: it is the
    /// frame the link offers the next connection again.
    #[test]
    fn a_folded_ack_is_offered_again_after_a_reconnect() {
        let opts = TcpWorkerOptions { window: 1, ..TcpWorkerOptions::default() };
        let (listener, link, mut first) = after_an_outage(opts, |link| {
            link.publish_ack(ack(0, AckKind::Running, 1));
            link.publish_ack(ack(0, AckKind::Completed, 1));
        });
        assert_eq!(next_ack(&mut first), ack(0, AckKind::Completed, 1));
        drop(first);
        wait_reading(&link, "the link notices", || link.inner.state.lock().conn.is_none());
        let mut second = accept(&listener);
        assert_eq!(next_ack(&mut second), ack(0, AckKind::Completed, 1), "offered again");
        link.close();
    }

    /// The ring keeps the newest `window` settling frames a connection was
    /// sent, folded or not, and the next connection is offered those and
    /// nothing else: no older terminal ack, no `Running`, no lifecycle frame.
    #[test]
    fn a_reconnect_offers_again_the_last_window_of_terminal_acks_and_nothing_else() {
        let opts = TcpWorkerOptions { window: 3, ..TcpWorkerOptions::default() };
        let end = |j: u32| {
            ack(j, if j.is_multiple_of(2) { AckKind::Completed } else { AckKind::Failed }, 1)
        };
        let (listener, link, mut first) = after_an_outage(opts, |link| {
            for j in 0..8 {
                if [2, 5, 7].contains(&j) {
                    link.publish_ack(ack(j, AckKind::Running, 1));
                }
                link.publish_ack(end(j));
            }
            link.publish_ack(ack(8, AckKind::Running, 1));
            link.publish_lifecycle(drain());
        });
        for j in 0..8 {
            assert_eq!(next_ack(&mut first), end(j));
        }
        assert_eq!(next_ack(&mut first), ack(8, AckKind::Running, 1));
        assert_eq!(next(&mut first), WireMsg::Lifecycle(drain()));
        drop(first);
        wait_reading(&link, "the link notices", || link.inner.state.lock().conn.is_none());
        let mut second = accept(&listener);
        for j in 5..8 {
            assert_eq!(next_ack(&mut second), end(j), "the last three, in publish order");
        }
        // What the link sends next is what it is given next.
        link.publish_ack(ack(9, AckKind::Completed, 1));
        assert_eq!(next_ack(&mut second), ack(9, AckKind::Completed, 1), "nothing else offered");
        link.close();
    }

    /// The ring follows the wire. A batch whose write failed goes out on
    /// the next connection ahead of the ring it was offered with, so the
    /// ring's frames are the newest there: at `window` 1 the ring keeps the
    /// older ack, sent last, and the connection after offers that one.
    #[test]
    fn the_ring_keeps_what_a_connection_was_sent_last() {
        let opts = TcpWorkerOptions { window: 1, ..TcpWorkerOptions::default() };
        let (listener, link, mut first) = after_an_outage(opts, |link| {
            link.publish_ack(ack(0, AckKind::Completed, 1));
        });
        assert_eq!(next_ack(&mut first), ack(0, AckKind::Completed, 1));
        // The ring holds ack 0. A `Running` left unread makes the stand-in's
        // close a reset, so the next write fails: ack 1 is a failed batch.
        link.publish_ack(ack(9, AckKind::Running, 1));
        wait_until("the Running arrives", || {
            first.get_ref().peek(&mut [0u8; 1]).is_ok_and(|n| n == 1)
        });
        let socket = Arc::clone(link.inner.state.lock().conn.as_ref().expect("connected"));
        drop(first);
        wait_until("the reset lands", || {
            matches!(poll(&mut [PollFd::new(&*socket, POLLIN)], Duration::ZERO), Ok(1..))
        });
        link.publish_ack(ack(1, AckKind::Completed, 1));
        wait_until("the write fails", || link.inner.state.lock().conn.is_none());

        let mut second = accept(&listener);
        assert_eq!(next_ack(&mut second), ack(1, AckKind::Completed, 1), "the failed batch");
        assert_eq!(next_ack(&mut second), ack(0, AckKind::Completed, 1), "then the ring");
        drop(second);
        wait_reading(&link, "the link notices", || link.inner.state.lock().conn.is_none());
        let mut third = accept(&listener);
        assert_eq!(next_ack(&mut third), ack(0, AckKind::Completed, 1), "the last one sent");
        link.close();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(500))]

        /// Over random acks: a terminal ack published while its `Running`
        /// is queued leaves the outbox holding exactly the terminal ack's
        /// own frame, as the encoder frames it; a lifecycle message queued
        /// after it is framed as the encoder frames it too.
        #[test]
        fn a_folded_running_frame_is_the_terminal_acks_own_frame(
            workflow in any::<u32>(),
            j in any::<u32>(),
            worker in any::<u32>(),
            failed in any::<bool>(),
            attempt in any::<u32>(),
            generation in any::<u32>(),
            life in 0u8..3,
        ) {
            let job = EnsembleJobId::new(WorkflowId(workflow), JobId(j));
            let kind = if failed { AckKind::Failed } else { AckKind::Completed };
            let end = AckMsg::new(job, worker, kind, attempt);
            let mut outbox = Outbox::default();
            outbox.ack(&AckMsg::new(job, worker, AckKind::Running, attempt));
            outbox.ack(&end);
            let mut framed = Vec::new();
            write_frame(&mut framed, &WireMsg::Ack(end).encode()).unwrap();
            prop_assert_eq!(&outbox.bytes, &framed);
            prop_assert_eq!(&outbox.settling, &[0]);
            prop_assert!(outbox.running.is_empty());
            let msg = LifecycleMsg::new(worker, generation, LifecycleKind::from_code(life).unwrap());
            outbox.lifecycle(msg);
            write_frame(&mut framed, &WireMsg::Lifecycle(msg).encode()).unwrap();
            prop_assert_eq!(&outbox.bytes, &framed);
        }
    }

    /// Slot threads that share a link share its reading: whichever pulls
    /// while nobody reads reads for all. Four of them, pulling while
    /// dispatches arrive in batches of every size up to a hundred, take
    /// each one exactly once.
    #[test]
    fn four_slots_pulling_one_link_take_every_dispatch_exactly_once() {
        const JOBS: u32 = 20_000;
        let (listener, link, _) = stand_in(TcpWorkerOptions::default());
        let (master, _) = listener.accept().unwrap();
        let taken = Arc::new(AtomicU32::new(0));
        let slots: Vec<_> = (0..4)
            .map(|_| {
                let (link, taken) = (link.clone(), Arc::clone(&taken));
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while taken.load(Ordering::Relaxed) < JOBS {
                        if let Some(d) = link.pull_dispatch(Duration::from_millis(5)) {
                            got.push(d.job.job.0);
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    got
                })
            })
            .collect();
        let (mut w, mut frame) = (BufWriter::new(&master), Vec::new());
        let (mut sent, mut size) = (0, 1);
        while sent < JOBS {
            let run: Vec<DispatchMsg> =
                (sent..JOBS.min(sent + size)).map(|j| DispatchMsg::new(job(j), 1)).collect();
            sent += run.len() as u32;
            frame.clear();
            WireMsg::DispatchBatch(run.into()).frame_into(&mut frame);
            w.write_all(&frame).unwrap();
            size = size % 100 + 1;
        }
        w.flush().unwrap();
        let mut pulled: Vec<u32> = slots.into_iter().flat_map(|s| s.join().unwrap()).collect();
        pulled.sort_unstable();
        assert_eq!(pulled, (0..JOBS).collect::<Vec<_>>(), "each dispatch pulled exactly once");
        link.close();
    }

    /// A slot rings a waiting slot once per wait: pulls that leave work
    /// behind while a rung waiter has not woken yet owe it nothing more.
    #[test]
    fn pulls_that_leave_work_behind_ring_each_waiter_once() {
        let (_listener, link, _) = stand_in(TcpWorkerOptions::default());
        let pull = |j: u32| {
            assert_eq!(link.pull_dispatch(Duration::ZERO), Some(DispatchMsg::new(job(j), 1)))
        };
        let mut st = link.inner.state.lock();
        st.inbox.extend((0..40).map(|j| DispatchMsg::new(job(j), 1)));
        drop(st);
        // Nobody waits: nobody is rung.
        (0..10).for_each(pull);
        assert_eq!(link.inner.state.lock().rung, 0);
        // One waiter registered, not yet woken: ten pulls ring it once.
        link.inner.state.lock().waiters = 1;
        for j in 10..20 {
            pull(j);
            assert_eq!(link.inner.state.lock().rung, 1, "after pull {j}");
        }
        // A second waiter is owed a ring of its own, and no more.
        link.inner.state.lock().waiters = 2;
        (20..30).for_each(pull);
        assert_eq!(link.inner.state.lock().rung, 2);
        link.close();
    }

    /// The slot loop pulls with no deadline, so a lost wake-up is a slot
    /// asleep for good beside a dispatch, or beside a free reader role.
    /// Four slots pulling as it does take 20,000 dispatches that arrive in
    /// bursts of 1 to 100 exactly once, and each returns after
    /// `close_dispatch`. A slot that takes every hundredth dispatch holds
    /// it, as a job would, until another slot has taken the next one, so a
    /// slot left asleep while the others hold or sleep hangs the drill.
    #[test]
    fn four_slots_pulling_with_no_deadline_take_every_burst_and_return_on_close() {
        const JOBS: u32 = 20_000;
        let (listener, link, _) = stand_in(TcpWorkerOptions::default());
        let (mut master, _) = listener.accept().unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let seen: Arc<Vec<AtomicBool>> =
            Arc::new((0..JOBS).map(|_| AtomicBool::new(false)).collect());
        let (taken, took) = std::sync::mpsc::channel();
        let slots: Vec<_> = (0..4)
            .map(|_| {
                let (link, taken, seen) = (link.clone(), taken.clone(), Arc::clone(&seen));
                std::thread::spawn(move || {
                    while let Some(d) = link.pull_dispatch(Duration::MAX) {
                        let j = d.job.job.0;
                        seen[j as usize].store(true, Ordering::Relaxed);
                        taken.send(j).unwrap();
                        let next = seen.get(j as usize + 1).filter(|_| j % 100 == 99);
                        while next.is_some_and(|next| !next.load(Ordering::Relaxed))
                            && Instant::now() < deadline
                        {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                })
            })
            .collect();
        drop(taken);
        let (mut sent, mut size, mut frame) = (0, 1, Vec::new());
        while sent < JOBS {
            let run: Vec<DispatchMsg> =
                (sent..JOBS.min(sent + size)).map(|j| DispatchMsg::new(job(j), 1)).collect();
            sent += run.len() as u32;
            frame.clear();
            WireMsg::DispatchBatch(run.into()).frame_into(&mut frame);
            master.write_all(&frame).unwrap();
            size = size % 100 + 1;
        }
        let left = || deadline.saturating_duration_since(Instant::now());
        let mut pulled: Vec<u32> = (0..JOBS)
            .map(|_| took.recv_timeout(left()).expect("a slot slept beside a dispatch"))
            .collect();
        link.close_dispatch();
        assert_eq!(
            took.recv_timeout(left()),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
            "every slot returns after close_dispatch, having pulled nothing more"
        );
        slots.into_iter().for_each(|slot| slot.join().unwrap());
        pulled.sort_unstable();
        assert_eq!(pulled, (0..JOBS).collect::<Vec<_>>(), "each dispatch pulled exactly once");
        link.close();
    }

    /// A job that runs until it is let go.
    struct Held(Arc<AtomicBool>);

    impl JobRunner for Held {
        fn run(&self, _: &Workflow, _: JobId, ctx: &RunContext) -> JobOutcome {
            while !self.0.load(Ordering::Relaxed) && !ctx.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            JobOutcome::Success
        }
    }

    /// With every slot busy in a long job nothing reads the link, so the
    /// writer alone finds the master gone — a write fails — and reaches its
    /// replacement: a heartbeat every 50 ms is there well inside a 500 ms
    /// lease.
    #[test]
    fn with_every_slot_busy_the_writer_alone_reconnects_within_a_lease() {
        let master = endpoint();
        let _pump = pump(&master);
        let addr = master.local_addr();
        let (link, mirror) = link(&master, 1, 4);
        master
            .announce(WorkflowAnnounce {
                id: WorkflowId(0),
                name: "w".into(),
                workflow: wf("w", 2),
            })
            .unwrap();
        let release = Arc::new(AtomicBool::new(false));
        let worker = spawn_worker_on(
            Arc::new(link.clone()),
            mirror,
            Arc::new(Held(Arc::clone(&release))),
            WorkerConfig {
                worker_id: 1,
                slots: 2,
                heartbeat_interval: Some(Duration::from_millis(50)),
                ..WorkerConfig::default()
            },
        );
        let mut both = vec![DispatchMsg::new(job(0), 1), DispatchMsg::new(job(1), 1)];
        master.publish_dispatch_batch(0, &mut both);
        // (A lifecycle message returns `pull_ack` early, with no ack.)
        let mut started = 0;
        wait_until("both slots start", || {
            if let Some(ack) = master.pull_ack(Duration::from_millis(5)) {
                assert_eq!(ack.kind, AckKind::Running);
                started += 1;
            }
            started == 2
        });
        master.kill();
        let master2 = TcpMaster::bind(addr, TcpMasterOptions::default()).unwrap();
        let rebound = Instant::now();
        let _pump2 = pump(&master2);
        wait_until("a heartbeat reaches the new master", || {
            master2.try_pull_lifecycle().is_some_and(|m| m.kind == LifecycleKind::Heartbeat)
        });
        let took = rebound.elapsed();
        assert!(took < Duration::from_millis(500), "the first heartbeat took {took:?}");
        assert!(!link.inner.state.lock().reading, "and no slot was free to read");
        release.store(true, Ordering::Relaxed);
        assert_eq!(worker.stop(), 2);
        master2.shutdown();
        link.close();
    }

    /// A Bye that lands while every slot is in a job is read by the writer
    /// before it lets the dead connection go, so the link does not go on
    /// reconnecting to a master that has said it is done.
    #[test]
    fn a_bye_sent_while_every_slot_is_busy_is_not_lost() {
        let (listener, link, mirror) = stand_in(TcpWorkerOptions::default());
        let release = Arc::new(AtomicBool::new(false));
        let worker = spawn_worker_on(
            Arc::new(link.clone()),
            mirror,
            Arc::new(Held(Arc::clone(&release))),
            WorkerConfig {
                slots: 1,
                heartbeat_interval: Some(Duration::from_millis(20)),
                ..WorkerConfig::default()
            },
        );
        let mut master = accept(&listener);
        let dag = dewe_dag::write_workflow(&wf("w", 1));
        let announce = WireMsg::Workflow { id: WorkflowId(0), name: "w".into(), dag };
        write_frame(master.get_mut(), &announce.encode()).unwrap();
        let one = WireMsg::DispatchBatch(vec![DispatchMsg::new(job(0), 1)].into());
        write_frame(master.get_mut(), &one.encode()).unwrap();
        loop {
            match next(&mut master) {
                WireMsg::Lifecycle(_) => {}
                WireMsg::Ack(ack) if ack.kind == AckKind::Running => break,
                other => panic!("expected the job to start, got {other:?}"),
            }
        }
        write_frame(master.get_mut(), &WireMsg::Bye.encode()).unwrap();
        drop(master);
        wait_until("the link hears the Bye", || link.master_said_bye());
        release.store(true, Ordering::Relaxed);
        assert_eq!(worker.wait(), 1, "the slot finishes its job and sees the link closed");
        link.close();
    }

    /// A kill reaches a worker's only slot asleep in the reader's `poll`
    /// by the link's wake-up, not by a timeout: it returns with the link
    /// still open.
    #[test]
    fn kill_wakes_a_slot_asleep_in_poll_and_leaves_the_link_open() {
        let master = endpoint();
        let _pump = pump(&master);
        let (link, mirror) = link(&master, 0, 8);
        let config = WorkerConfig { slots: 1, ..WorkerConfig::default() };
        let worker = spawn_worker_on(Arc::new(link.clone()), mirror, Arc::new(NoopRunner), config);
        wait_until("the slot holds the reader role", || link.inner.state.lock().reading);
        let (killed, kill) = std::sync::mpsc::channel();
        std::thread::spawn(move || killed.send(worker.kill()));
        assert_eq!(kill.recv_timeout(Duration::from_secs(5)), Ok(0), "the kill returns");
        let st = link.inner.state.lock();
        assert!(st.conn.is_some() && !st.done() && !st.reading, "the link is open, unread");
        drop(st);
        master.shutdown();
        link.close();
    }

    /// `close_dispatch` is for good: a pull made after it returns `None` at
    /// once, with a dispatch queued or not, and acks still go out.
    #[test]
    fn a_pull_after_close_dispatch_gets_nothing_at_once_and_acks_still_go_out() {
        let (listener, link, _) = stand_in(TcpWorkerOptions::default());
        let mut master = accept(&listener);
        let both = WireMsg::DispatchBatch(
            vec![DispatchMsg::new(job(0), 1), DispatchMsg::new(job(1), 1)].into(),
        );
        write_frame(master.get_mut(), &both.encode()).unwrap();
        let wait = Duration::from_secs(10);
        assert_eq!(link.pull_dispatch(wait), Some(DispatchMsg::new(job(0), 1)));
        link.close_dispatch();
        let began = Instant::now();
        assert_eq!(link.pull_dispatch(wait), None, "not the one queued");
        assert_eq!(link.pull_dispatch(wait), None, "nor anything later");
        assert!(began.elapsed() < Duration::from_secs(1), "at once: {:?}", began.elapsed());
        assert!(link.dispatch_closed());
        link.publish_ack(AckMsg::new(job(0), 0, AckKind::Completed, 1));
        assert_eq!(next_ack(&mut master).job, job(0), "acks still go out");
        link.close();
    }

    /// A slot asleep in the reader's `poll` holds nothing `close` waits
    /// for: it returns at once, and the slot with `None`, both well inside
    /// the slot's pull timeout.
    #[test]
    fn close_returns_within_the_pull_timeout_of_a_slot_asleep_in_poll() {
        let master = endpoint();
        let _pump = pump(&master);
        let (link, _) = link(&master, 0, 8);
        let pull_timeout = Duration::from_secs(2);
        let slot = {
            let link = link.clone();
            std::thread::spawn(move || link.pull_dispatch(pull_timeout))
        };
        wait_until("the slot holds the reader role", || link.inner.state.lock().reading);
        let began = Instant::now();
        link.close();
        assert_eq!(slot.join().unwrap(), None);
        let took = began.elapsed();
        assert!(took < pull_timeout, "close and the slot's pull took {took:?}");
        assert!(link.dispatch_closed());
        master.shutdown();
    }
}
