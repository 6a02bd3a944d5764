//! Phased job execution on a simulated cluster.
//!
//! [`ExecSim`] is the contract between *coordination engines* (the DEWE v2
//! master/worker logic in `dewe-core`, the Pegasus-like scheduler in
//! `dewe-baseline`) and the simulated hardware. Engines decide **which job
//! runs on which node and when** — the paper's entire argument is about
//! that decision — and `ExecSim` simulates what the hardware does with it:
//!
//! 1. **Read phase**: the job's input files are looked up in the backend's
//!    read cache; hits are serviced at memory speed, misses coalesce into
//!    one fair-share flow on the backend's disk/FS read channel.
//! 2. **Compute phase**: `cores` cores busy for `cpu_seconds / cores`.
//! 3. **Write phase**: each output goes through the backend's page-cache
//!    write bucket; the job finishes when its last write is admitted.
//!
//! Engines receive [`SimEvent::JobFinished`] with per-phase
//! [`JobTimings`] (the data behind the paper's Fig. 2 gantt view) and may
//! schedule [`SimEvent::Wake`] timers for their own protocol logic (timeout
//! scans, submission intervals, sampling ticks).
//!
//! Compute ends, write ends and engine wakes are events in the
//! [`EventQueue`]. A backend's next read completion is not: every flow that
//! joins or leaves moves it, so it is a field (`read_wakes`) that
//! [`ExecSim::next`] compares with the queue's next key. Each move still
//! [reserves](EventQueue::reserve) the sequence number the queue would have
//! given it: simultaneous events fire in the order they were scheduled, and
//! that order is part of the simulated result.

use crate::cluster::{Cluster, ClusterConfig, NodeCounters, NodeId};
use crate::fairshare::FlowId;
use crate::hash::TokenMap;
use crate::kernel::{EventId, EventQueue};
use crate::storage::Storage;
use crate::time::SimTime;

/// Resource demands of one job.
#[derive(Debug, Clone, Default)]
pub struct JobProfile {
    /// Input files: (file key, bytes). Keys identify files across jobs so
    /// the cache can recognize re-reads; [`ReadCache`](crate::ReadCache)
    /// says how to number them.
    pub reads: Vec<(u64, f64)>,
    /// Pure compute demand in CPU-seconds.
    pub cpu_seconds: f64,
    /// Cores the job can exploit (≥ 1).
    pub cores: u32,
    /// Output files: (file key, bytes).
    pub writes: Vec<(u64, f64)>,
}

impl JobProfile {
    /// A compute-only job.
    pub fn compute(cpu_seconds: f64) -> Self {
        Self { reads: Vec::new(), cpu_seconds, cores: 1, writes: Vec::new() }
    }
}

/// Wall-clock milestones of one executed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTimings {
    /// When the engine submitted the job to the node.
    pub submitted: SimTime,
    /// When all input reads were serviced.
    pub read_done: SimTime,
    /// When the compute phase finished.
    pub compute_done: SimTime,
    /// When the last output write was admitted (job completion).
    pub finished: SimTime,
}

impl JobTimings {
    /// Total wall seconds.
    pub fn total_secs(&self) -> f64 {
        self.finished.secs_since(self.submitted)
    }
}

/// Events delivered to the engine.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A submitted job ran to completion.
    JobFinished {
        /// The engine's token from [`ExecSim::submit_job`].
        token: u64,
        /// The node it ran on.
        node: NodeId,
        /// Phase milestones.
        timings: JobTimings,
    },
    /// A timer scheduled with [`ExecSim::schedule_wake`] fired.
    Wake {
        /// The engine's token.
        token: u64,
    },
}

enum Ev {
    ComputeDone(u64),
    WriteDone(u64),
    Wake(u64),
}

enum Phase {
    Reading { flow: FlowId, backend: usize },
    Computing { event: EventId, cores: u32 },
    Writing { event: EventId },
}

struct RunningJob {
    token: u64,
    node: NodeId,
    phase: Phase,
    /// Missed input files to insert into cache when the read completes.
    missed: Vec<(u64, f64)>,
    miss_bytes: f64,
    hit_secs: f64,
    cpu_wall_secs: f64,
    cores_used: u32,
    writes: Vec<(u64, f64)>,
    timings: JobTimings,
}

struct JobSlot {
    gen: u32,
    job: Option<RunningJob>,
}

/// The execution simulator: a cluster, an event queue, and in-flight jobs.
pub struct ExecSim {
    queue: EventQueue<Ev>,
    cluster: Cluster,
    /// In-flight jobs in a generation slab. A job id encodes
    /// `(generation << 32) | slot`, so ids stay globally unique (required —
    /// they double as fair-share flow tags) while every per-event job
    /// access is a vector index instead of a hash lookup.
    jobs: Vec<JobSlot>,
    free_jobs: Vec<u32>,
    running: usize,
    next_wake: u64,
    wakes: TokenMap<(u64, EventId)>, // wake id -> (token, event)
    /// Each backend's pending read completion, as the `(time, sequence)`
    /// key it would hold in the queue. It moves on every flow join and
    /// leave and fires once per completed read, so it is a field instead
    /// of an event cancelled and pushed again each time; it still takes a
    /// sequence number per move, which keeps its place among simultaneous
    /// events — and every other event's number — what the queue would
    /// have given.
    read_wakes: Vec<Option<(SimTime, u64)>>,
    /// The earliest of `read_wakes` with its backend.
    next_read_wake: Option<(SimTime, u64, usize)>,
    /// Reusable buffer for harvesting completed read flows.
    read_done_scratch: Vec<u64>,
    /// Recycled `(key, bytes)` buffers for jobs' miss/write lists, so the
    /// steady state allocates nothing per job.
    buf_pool: Vec<Vec<(u64, f64)>>,
    out: std::collections::VecDeque<SimEvent>,
    finished_jobs: u64,
}

/// Largest `(key, bytes)` buffer kept for reuse; all but a workflow's few
/// aggregating jobs read and write fewer files than this.
const POOLED_BUF_ENTRIES: usize = 16;

/// Handle for cancelling a scheduled wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WakeId(u64);

impl ExecSim {
    /// Build a simulator over a fresh cluster.
    pub fn new(config: ClusterConfig) -> Self {
        let cluster = Cluster::new(config);
        let read_wakes = vec![None; cluster.storage().backend_count()];
        Self {
            queue: EventQueue::new(),
            cluster,
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            running: 0,
            next_wake: 0,
            wakes: TokenMap::default(),
            read_wakes,
            next_read_wake: None,
            read_done_scratch: Vec::new(),
            buf_pool: Vec::new(),
            out: std::collections::VecDeque::new(),
            finished_jobs: 0,
        }
    }

    /// The id the next [`Self::alloc_job`] call will hand out; events and
    /// flow tags referencing the job can be created before it is inserted.
    fn peek_jid(&self) -> u64 {
        let slot = self.free_jobs.last().copied().unwrap_or(self.jobs.len() as u32);
        let gen = self.jobs.get(slot as usize).map_or(0, |s| s.gen);
        ((gen as u64) << 32) | slot as u64
    }

    fn alloc_job(&mut self, job: RunningJob) -> u64 {
        let slot = match self.free_jobs.pop() {
            Some(slot) => {
                self.jobs[slot as usize].job = Some(job);
                slot
            }
            None => {
                self.jobs.push(JobSlot { gen: 0, job: Some(job) });
                (self.jobs.len() - 1) as u32
            }
        };
        self.running += 1;
        ((self.jobs[slot as usize].gen as u64) << 32) | slot as u64
    }

    fn job_mut(&mut self, jid: u64) -> Option<&mut RunningJob> {
        let (gen, slot) = ((jid >> 32) as u32, jid as u32);
        let entry = self.jobs.get_mut(slot as usize)?;
        if entry.gen != gen {
            return None;
        }
        entry.job.as_mut()
    }

    fn remove_job(&mut self, jid: u64) -> Option<RunningJob> {
        let (gen, slot) = ((jid >> 32) as u32, jid as u32);
        let entry = self.jobs.get_mut(slot as usize)?;
        if entry.gen != gen {
            return None;
        }
        let job = entry.job.take()?;
        entry.gen = entry.gen.wrapping_add(1);
        self.free_jobs.push(slot);
        self.running -= 1;
        Some(job)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The simulated cluster (counters, cost model, instance data).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (per-node speed factors).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The storage substrate (cache statistics, byte totals).
    pub fn storage(&self) -> &Storage {
        self.cluster.storage()
    }

    /// Jobs currently in flight.
    pub fn running_jobs(&self) -> usize {
        self.running
    }

    /// Jobs finished so far.
    pub fn finished_jobs(&self) -> u64 {
        self.finished_jobs
    }

    /// Node counters integrated up to the current time.
    pub fn node_counters(&mut self, node: NodeId) -> NodeCounters {
        let now = self.queue.now();
        self.cluster.counters(node, now)
    }

    /// Submit a job to a node. The engine is responsible for respecting the
    /// node's concurrency limit (DEWE v2 workers stop pulling at one thread
    /// per vCPU, §III.D).
    pub fn submit_job(&mut self, token: u64, node: NodeId, profile: &JobProfile) {
        let now = self.queue.now();
        let jid = self.peek_jid();

        self.cluster.thread_started(node);

        // Read phase: classify hits and misses in one cache pass.
        let mut missed = self.buf_pool.pop().unwrap_or_default();
        let (hit_bytes, miss_bytes) =
            self.cluster.storage_mut().classify_reads(node, &profile.reads, &mut missed);
        let hit_secs = Storage::hit_secs(hit_bytes);
        let cores_used = profile.cores.clamp(1, self.cluster.vcpus());
        // Heterogeneity: a slow node stretches compute time (speed 1.0 on
        // the paper's homogeneous clusters).
        let cpu_wall_secs =
            profile.cpu_seconds / cores_used as f64 / self.cluster.speed_factor(node);

        let timings =
            JobTimings { submitted: now, read_done: now, compute_done: now, finished: now };

        let phase = if miss_bytes > 0.0 {
            let backend = self.cluster.storage().backend_of(node);
            let flow = self.cluster.storage_mut().begin_read(node, now, miss_bytes, jid);
            Phase::Reading { flow, backend }
        } else {
            // Straight to compute.
            self.cluster.start_compute(node, cores_used, now);
            let event = self.queue.schedule_in(hit_secs + cpu_wall_secs, Ev::ComputeDone(jid));
            Phase::Computing { event, cores: cores_used }
        };
        let reading = matches!(phase, Phase::Reading { .. });
        let mut writes = self.buf_pool.pop().unwrap_or_default();
        writes.extend_from_slice(&profile.writes);
        let assigned = self.alloc_job(RunningJob {
            token,
            node,
            phase,
            missed,
            miss_bytes,
            hit_secs,
            cpu_wall_secs,
            cores_used,
            writes,
            timings,
        });
        debug_assert_eq!(assigned, jid, "flow tag and job id must agree");
        if reading {
            let backend = self.cluster.storage().backend_of(node);
            self.resched_backend(backend);
        }
    }

    /// Schedule a wake for the engine after `delay_secs`.
    pub fn schedule_wake(&mut self, delay_secs: f64, token: u64) -> WakeId {
        let wid = self.next_wake;
        self.next_wake += 1;
        let event = self.queue.schedule_in(delay_secs, Ev::Wake(wid));
        self.wakes.insert(wid, (token, event));
        WakeId(wid)
    }

    /// Cancel a pending wake. Idempotent.
    pub fn cancel_wake(&mut self, id: WakeId) {
        if let Some((_, event)) = self.wakes.remove(&id.0) {
            self.queue.cancel(event);
        }
    }

    /// Kill all jobs currently running on `node` (worker-daemon failure,
    /// paper §V.A.3). Returns the engine tokens of the killed jobs. Their
    /// partial reads/writes are charged; no completion events fire.
    pub fn kill_jobs_on(&mut self, node: NodeId) -> Vec<u64> {
        let now = self.queue.now();
        let victims: Vec<u64> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.job.as_ref().is_some_and(|j| j.node == node))
            .map(|(slot, s)| ((s.gen as u64) << 32) | slot as u64)
            .collect();
        let mut tokens = Vec::with_capacity(victims.len());
        let mut backends_touched = Vec::new();
        for jid in victims {
            let mut job = self.remove_job(jid).expect("victim exists");
            self.recycle(std::mem::take(&mut job.missed));
            self.recycle(std::mem::take(&mut job.writes));
            match job.phase {
                Phase::Reading { flow, backend } => {
                    self.cluster.storage_mut().cancel_read(backend, now, flow);
                    backends_touched.push(backend);
                }
                Phase::Computing { event, cores } => {
                    self.queue.cancel(event);
                    self.cluster.end_compute(job.node, cores, now);
                }
                Phase::Writing { event } => {
                    self.queue.cancel(event);
                }
            }
            self.cluster.thread_finished(job.node);
            tokens.push(job.token);
        }
        backends_touched.sort_unstable();
        backends_touched.dedup();
        for b in backends_touched {
            self.resched_backend(b);
        }
        tokens
    }

    /// Advance the simulation and return the next engine-visible event, or
    /// `None` when nothing remains scheduled.
    #[allow(clippy::should_implement_trait)] // deliberate: mirrors Iterator
    pub fn next(&mut self) -> Option<SimEvent> {
        loop {
            if let Some(ev) = self.out.pop_front() {
                return Some(ev);
            }
            if let Some((at, seq, backend)) = self.next_read_wake {
                if self.queue.peek_key().is_none_or(|queued| (at, seq) < queued) {
                    self.queue.advance_to(at);
                    self.on_read_wake(backend);
                    continue;
                }
            }
            let (_, ev) = self.queue.pop()?;
            match ev {
                Ev::ComputeDone(jid) => self.on_compute_done(jid),
                Ev::WriteDone(jid) => self.on_write_done(jid),
                Ev::Wake(wid) => {
                    if let Some((token, _)) = self.wakes.remove(&wid) {
                        self.out.push_back(SimEvent::Wake { token });
                    }
                }
            }
        }
    }

    fn resched_backend(&mut self, backend: usize) {
        let now = self.queue.now();
        let at = self.cluster.storage_mut().next_read_completion(backend, now);
        self.read_wakes[backend] = at.map(|at| self.queue.reserve(at));
        self.next_read_wake = self
            .read_wakes
            .iter()
            .enumerate()
            .filter_map(|(backend, wake)| wake.map(|(at, seq)| (at, seq, backend)))
            .min();
    }

    fn on_read_wake(&mut self, backend: usize) {
        let now = self.queue.now();
        let mut done = std::mem::take(&mut self.read_done_scratch);
        done.clear();
        self.cluster.storage_mut().pop_read_completed_into(backend, now, &mut done);
        for &jid in &done {
            let Some(job) = self.job_mut(jid) else { continue };
            job.timings.read_done = now;
            let node = job.node;
            let miss_bytes = job.miss_bytes;
            let cores = job.cores_used;
            let dur = job.hit_secs + job.cpu_wall_secs;
            let missed = std::mem::take(&mut job.missed);
            // Read-allocate: the data just fetched is now resident.
            self.cluster.storage_mut().cache_insert_batch(node, &missed);
            self.recycle(missed);
            self.cluster.add_read_bytes(node, miss_bytes);
            self.cluster.start_compute(node, cores, now);
            let event = self.queue.schedule_in(dur, Ev::ComputeDone(jid));
            self.job_mut(jid).expect("job still present").phase = Phase::Computing { event, cores };
        }
        self.read_done_scratch = done;
        self.resched_backend(backend);
    }

    fn on_compute_done(&mut self, jid: u64) {
        let now = self.queue.now();
        let Some(job) = self.job_mut(jid) else { return };
        job.timings.compute_done = now;
        let node = job.node;
        let cores = job.cores_used;
        // Borrow the write list out of the job (instead of cloning it) while
        // the storage substrate is driven.
        let writes = std::mem::take(&mut job.writes);
        self.cluster.end_compute(node, cores, now);
        if writes.is_empty() {
            self.finish_job(jid);
        } else {
            let done = self.cluster.storage_mut().submit_write_batch(node, now, &writes);
            let event = self.queue.schedule(done, Ev::WriteDone(jid));
            let job = self.job_mut(jid).expect("job present");
            job.writes = writes;
            job.phase = Phase::Writing { event };
        }
    }

    fn on_write_done(&mut self, jid: u64) {
        let Some(job) = self.job_mut(jid) else { return };
        let node = job.node;
        // The job is removed in `finish_job` below; no need to restore.
        let writes = std::mem::take(&mut job.writes);
        let total: f64 = writes.iter().map(|&(_, b)| b).sum();
        self.cluster.storage_mut().cache_insert_batch(node, &writes);
        self.recycle(writes);
        self.cluster.add_write_bytes(node, total);
        self.finish_job(jid);
    }

    fn finish_job(&mut self, jid: u64) {
        let now = self.queue.now();
        let mut job = self.remove_job(jid).expect("finishing job exists");
        job.timings.finished = now;
        self.cluster.thread_finished(job.node);
        self.finished_jobs += 1;
        self.recycle(std::mem::take(&mut job.missed));
        self.recycle(std::mem::take(&mut job.writes));
        self.out.push_back(SimEvent::JobFinished {
            token: job.token,
            node: job.node,
            timings: job.timings,
        });
    }

    /// Return a job buffer to the pool. Never-allocated vectors have nothing
    /// to reuse, and a buffer an aggregating job grew (thousands of files)
    /// is freed: pooled, it would be handed to jobs that need a few entries
    /// and the pool's capacity would ratchet up to its largest borrowers'.
    fn recycle(&mut self, mut buf: Vec<(u64, f64)>) {
        if (1..=POOLED_BUF_ENTRIES).contains(&buf.capacity()) {
            buf.clear();
            self.buf_pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::C3_8XLARGE;
    use crate::storage::{SharedFsKind, StorageConfig};

    fn sim(nodes: usize) -> ExecSim {
        ExecSim::new(ClusterConfig {
            instance: C3_8XLARGE,
            nodes,
            storage: StorageConfig::Shared(SharedFsKind::DistFs),
        })
    }

    fn finish(sim: &mut ExecSim) -> Vec<(u64, JobTimings)> {
        let mut done = Vec::new();
        while let Some(ev) = sim.next() {
            if let SimEvent::JobFinished { token, timings, .. } = ev {
                done.push((token, timings));
            }
        }
        done
    }

    #[test]
    fn compute_only_job_takes_cpu_seconds() {
        let mut s = sim(1);
        s.submit_job(1, 0, &JobProfile::compute(10.0));
        let done = finish(&mut s);
        assert_eq!(done.len(), 1);
        assert!((done[0].1.total_secs() - 10.0).abs() < 1e-3);
        assert_eq!(s.finished_jobs(), 1);
    }

    #[test]
    fn multicore_job_speeds_up() {
        let mut s = sim(1);
        let profile = JobProfile { cores: 8, ..JobProfile::compute(80.0) };
        s.submit_job(1, 0, &profile);
        let done = finish(&mut s);
        assert!((done[0].1.total_secs() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn cold_read_pays_disk_bandwidth() {
        let mut s = sim(1);
        // c3 DistFs single node: 250 MB/s * 0.9 = 225 MB/s.
        let profile =
            JobProfile { reads: vec![(1, 225e6)], cpu_seconds: 1.0, cores: 1, writes: vec![] };
        s.submit_job(1, 0, &profile);
        let done = finish(&mut s);
        let t = &done[0].1;
        assert!((t.read_done.secs_since(t.submitted) - 1.0).abs() < 0.01, "{t:?}");
        assert!((t.total_secs() - 2.0).abs() < 0.01);
    }

    #[test]
    fn warm_read_is_nearly_free() {
        let mut s = sim(1);
        // First job writes the file; second reads it (cache hit).
        let w = JobProfile { reads: vec![], cpu_seconds: 1.0, cores: 1, writes: vec![(1, 225e6)] };
        s.submit_job(1, 0, &w);
        let _ = finish(&mut s);
        let r = JobProfile { reads: vec![(1, 225e6)], cpu_seconds: 1.0, cores: 1, writes: vec![] };
        s.submit_job(2, 0, &r);
        let done = finish(&mut s);
        let t = &done[0].1;
        assert!(t.read_done.secs_since(t.submitted) < 0.2, "hit must be memory-speed: {t:?}");
    }

    #[test]
    fn write_phase_finishes_after_compute() {
        let mut s = sim(1);
        let p = JobProfile { reads: vec![], cpu_seconds: 2.0, cores: 1, writes: vec![(9, 100e6)] };
        s.submit_job(1, 0, &p);
        let done = finish(&mut s);
        let t = &done[0].1;
        assert!(t.finished >= t.compute_done);
        assert!((t.compute_done.secs_since(t.read_done) - 2.0).abs() < 1e-3);
        // Small write absorbed by page cache: staging is fast.
        assert!(t.finished.secs_since(t.compute_done) < 0.2);
    }

    #[test]
    fn concurrent_reads_share_bandwidth() {
        let mut s = sim(1);
        let cap = 250e6 * 0.9;
        for i in 0..2 {
            let p = JobProfile {
                reads: vec![(100 + i, cap)],
                cpu_seconds: 0.0,
                cores: 1,
                writes: vec![],
            };
            s.submit_job(i, 0, &p);
        }
        let done = finish(&mut s);
        // Two cap-sized flows sharing capacity -> both finish at ~2 s.
        for (_, t) in &done {
            assert!((t.total_secs() - 2.0).abs() < 0.05, "{t:?}");
        }
    }

    #[test]
    fn wake_timer_fires() {
        let mut s = sim(1);
        s.schedule_wake(5.0, 77);
        match s.next() {
            Some(SimEvent::Wake { token }) => assert_eq!(token, 77),
            other => panic!("{other:?}"),
        }
        assert!((s.now().as_secs_f64() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cancelled_wake_does_not_fire() {
        let mut s = sim(1);
        let id = s.schedule_wake(5.0, 1);
        s.schedule_wake(6.0, 2);
        s.cancel_wake(id);
        match s.next() {
            Some(SimEvent::Wake { token }) => assert_eq!(token, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn kill_jobs_on_node_suppresses_completions() {
        let mut s = sim(2);
        s.submit_job(1, 0, &JobProfile::compute(10.0));
        s.submit_job(2, 1, &JobProfile::compute(10.0));
        let killed = s.kill_jobs_on(0);
        assert_eq!(killed, vec![1]);
        let done = finish(&mut s);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 2);
        assert_eq!(s.node_counters(0).threads_running, 0);
    }

    #[test]
    fn kill_during_read_releases_bandwidth() {
        let mut s = sim(2);
        // Aggregate 2-node DistFs capacity on c3.
        let cap = 250e6 * 2.0 * 0.9 / (1.0 + 0.015);
        let big =
            JobProfile { reads: vec![(1, cap * 20.0)], cpu_seconds: 0.0, cores: 1, writes: vec![] };
        let small =
            JobProfile { reads: vec![(2, cap * 2.0)], cpu_seconds: 0.0, cores: 1, writes: vec![] };
        s.submit_job(1, 0, &big);
        s.submit_job(2, 1, &small);
        s.kill_jobs_on(0);
        let done = finish(&mut s);
        assert_eq!(done.len(), 1);
        // Alone on the full capacity: 2 seconds.
        assert!((done[0].1.total_secs() - 2.0).abs() < 0.05, "{:?}", done[0].1);
    }

    #[test]
    fn thread_and_cpu_counters_track_jobs() {
        let mut s = sim(1);
        s.submit_job(1, 0, &JobProfile::compute(4.0));
        s.submit_job(2, 0, &JobProfile::compute(4.0));
        assert_eq!(s.node_counters(0).threads_running, 2);
        let _ = finish(&mut s);
        let c = s.node_counters(0);
        assert_eq!(c.threads_running, 0);
        assert!((c.cpu_busy_core_secs - 8.0).abs() < 1e-3);
    }

    #[test]
    fn deterministic_event_order() {
        let run = || {
            let mut s = sim(2);
            for i in 0..20 {
                let p = JobProfile {
                    reads: vec![(i, 10e6 + 1e6 * i as f64)],
                    cpu_seconds: 0.5 + 0.01 * i as f64,
                    cores: 1,
                    writes: vec![(1000 + i, 5e6)],
                };
                s.submit_job(i, (i % 2) as usize, &p);
            }
            finish(&mut s).iter().map(|(t, j)| (*t, j.finished)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
