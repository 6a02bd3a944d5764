use super::*;
use std::io::Read;

fn parse_time(tok: &str) -> Option<f64> {
    u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
}

fn parse_record(line: &str) -> Option<JournalRecord> {
    let mut t = line.split_ascii_whitespace();
    match t.next()? {
        "S" => {
            let workflow = t.next()?.parse().ok()?;
            let at = parse_time(t.next()?)?;
            // Legacy token: 0.5.0–0.11.0 masters appended the shard they
            // routed the workflow to. Its value means nothing to the one
            // engine, but it must still be a number.
            if let Some(legacy) = t.next() {
                legacy.parse::<u32>().ok()?;
            }
            Some(JournalRecord::Submit { workflow, at })
        }
        "A" => {
            let wf: u32 = t.next()?.parse().ok()?;
            let job: u32 = t.next()?.parse().ok()?;
            let worker = t.next()?.parse().ok()?;
            let kind = AckKind::from_code(t.next()?.parse().ok()?)?;
            let attempt = t.next()?.parse().ok()?;
            let at = parse_time(t.next()?)?;
            Some(JournalRecord::Ack {
                ack: AckMsg {
                    job: EnsembleJobId::new(WorkflowId(wf), JobId(job)),
                    worker,
                    kind,
                    attempt,
                },
                at,
            })
        }
        "T" => Some(JournalRecord::Scan { at: parse_time(t.next()?)? }),
        "W" => {
            let worker = t.next()?.parse().ok()?;
            let generation = t.next()?.parse().ok()?;
            let phase = WorkerPhase::from_code(t.next()?.parse().ok()?)?;
            let at = parse_time(t.next()?)?;
            Some(JournalRecord::Worker { worker, generation, phase, at })
        }
        _ => None,
    }
}

/// The longest line any master wrote (a legacy `S` is shorter), and a CRLF's CR.
const READ_MAX: usize = LINE_MAX + 1;

/// Read every intact record from a journal file. The writer ends every
/// record with a newline and writes whole records, so a final line without
/// its newline is torn (the crash came mid-write) and is discarded, parsed
/// or not. Of the complete lines, a malformed final one is discarded too; a
/// malformed line before another record is corruption and returns an error,
/// as does a line that is not UTF-8, or one longer than any record (read no
/// further, torn or not: a file that is not a journal is refused at once).
pub fn read_journal(path: &Path) -> io::Result<Vec<JournalRecord>> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut records = Vec::new();
    let mut pending_bad: Option<usize> = None;
    let corrupt = |idx: usize| {
        io::Error::new(io::ErrorKind::InvalidData, format!("corrupt journal record at line {idx}"))
    };
    let mut bytes = Vec::with_capacity(READ_MAX);
    for idx in 1.. {
        bytes.clear();
        (&mut reader).take(READ_MAX as u64).read_until(b'\n', &mut bytes)?;
        let Some(line) = bytes.strip_suffix(b"\n") else {
            if bytes.len() < READ_MAX {
                break; // end of file, or a torn tail
            }
            return Err(corrupt(idx)); // longer than any record
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line); // CRLF ends a line too
        if line.is_empty() {
            continue;
        }
        let line = std::str::from_utf8(line)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        if let Some(bad) = pending_bad {
            return Err(corrupt(bad));
        }
        match parse_record(line) {
            Some(r) => records.push(r),
            None => pending_bad = Some(idx), // tolerated only as the tail
        }
    }
    Ok(records)
}

/// Outcome of a journal replay: the rebuilt engine plus what the restarted
/// master must do next.
pub struct Recovery {
    /// Engine with tracker / in-flight / deadline state rebuilt.
    pub engine: EnsembleEngine,
    /// The last journaled engine time — the recovered clock resumes here.
    pub resume_at: f64,
    /// In-flight attempts to republish (pre-crash queue state is unknown).
    pub redispatch: Vec<DispatchMsg>,
}

/// Rebuild the master's [`LivenessTable`] by replaying journal records:
/// `W` records enter their journaled transitions by the rules the live
/// table counts by, ack records replay the same assignment/lease
/// bookkeeping the live master performed. The result matches the
/// pre-crash table — `W` records commit immediately, rejected acks were
/// never journaled, and the master applies transitions within the same
/// poll cycle that journals them — except in two counters: rejected acks
/// were dropped before journaling by design, so `stale_acks_rejected`
/// does not survive, and an expiry's `lost_in_recovery` flag is not
/// journaled, so replay never counts `workers_lost_in_recovery`.
///
/// The recovering master should follow up with
/// [`LivenessTable::grant_grace`] at the resume clock so surviving
/// workers get a fresh lease — and workers that never come back are
/// expired with a structured warning instead of being waited on forever.
pub fn replay_liveness(records: &[JournalRecord], lease_secs: f64) -> LivenessTable {
    let mut table = LivenessTable::new(lease_secs);
    let mut transitions = Vec::new();
    for rec in records {
        match *rec {
            JournalRecord::Worker { worker, generation, phase, at } => {
                table.apply_transition(worker, generation, phase, at);
            }
            JournalRecord::Ack { ack, at } => {
                table.admit_ack(&ack, at, &mut transitions);
                transitions.clear();
            }
            JournalRecord::Submit { .. } | JournalRecord::Scan { .. } => {}
        }
    }
    table
}

/// Rebuild the engine by replaying journal records. Workflows are
/// fetched from `registry` by their journaled index; replay actions are
/// discarded (their dispatches either already happened or are covered by
/// `redispatch`).
pub fn recover(
    records: &[JournalRecord],
    registry: &Registry,
    config: EngineConfig,
) -> io::Result<Recovery> {
    let mut engine = config.build();
    let mut sink: Vec<Action> = Vec::new();
    let mut resume_at = 0.0f64;
    for rec in records {
        resume_at = resume_at.max(rec.at());
        match *rec {
            JournalRecord::Submit { workflow, at } => {
                let wf = registry.get(WorkflowId(workflow)).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal references workflow {workflow} absent from registry; it \
                             replays only over the --state-dir spool it was written beside, and \
                             a fresh run needs it moved aside"
                        ),
                    )
                })?;
                let id = engine.submit_workflow(wf, at, &mut sink);
                if id.0 != workflow {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("journal submission order mismatch: got {id:?}, want {workflow}"),
                    ));
                }
            }
            JournalRecord::Ack { ack, at } => engine.on_ack(ack, at, &mut sink),
            JournalRecord::Scan { at } => engine.check_timeouts(at, &mut sink),
            // Lifecycle records are liveness-table inputs, not engine
            // inputs: [`replay_liveness`] consumes them.
            JournalRecord::Worker { .. } => {}
        }
        sink.clear();
    }
    let mut redispatch = Vec::new();
    engine.inflight_dispatches(&mut redispatch);
    Ok(Recovery { engine, resume_at, redispatch })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DispatchMsg;
    use dewe_dag::{JobState, WorkflowBuilder};
    use std::sync::Arc;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dewe-journal-{}-{}", std::process::id(), name));
        p
    }

    fn chain(n: usize) -> Arc<dewe_dag::Workflow> {
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..n {
            let j = b.job(format!("j{i}"), "t", 1.0).build();
            if let Some(p) = prev {
                b.edge(p, j);
            }
            prev = Some(j);
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn records_round_trip_exactly() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        let ack = AckMsg {
            job: EnsembleJobId::new(WorkflowId(3), JobId(17)),
            worker: 9,
            kind: AckKind::Completed,
            attempt: 4,
        };
        j.record_submit(WorkflowId(0), 0, 0.125).unwrap();
        j.record_ack(&ack, 1.0000000001).unwrap();
        j.record_scan(2.5).unwrap();
        drop(j);
        let recs = read_journal(&path).unwrap();
        assert_eq!(
            recs,
            vec![
                JournalRecord::Submit { workflow: 0, at: 0.125 },
                JournalRecord::Ack { ack, at: 1.0000000001 },
                JournalRecord::Scan { at: 2.5 },
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    /// The contract is "in the OS before any effect", not "one write per
    /// record": a burst is buffered and the barrier writes it whole;
    /// records that write themselves carry what precedes them.
    #[test]
    fn a_burst_is_written_at_the_barrier_in_order() {
        let path = tmp("write-ahead");
        let mut j = Journal::create(&path).unwrap();
        let ack = |attempt| AckMsg {
            job: EnsembleJobId::new(WorkflowId(0), JobId(0)),
            worker: 0,
            kind: AckKind::Running,
            attempt,
        };
        j.record_ack(&ack(1), 1.0).unwrap();
        j.record_ack(&ack(2), 2.0).unwrap();
        j.record_scan(2.5).unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 0, "a burst waits for its barrier");
        j.commit().unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 3, "and is whole after it");
        // A worker transition in the middle of a burst writes itself, and
        // with it the acks appended before it: file order is append order.
        j.record_ack(&ack(3), 3.0).unwrap();
        j.record_worker(4, 0, WorkerPhase::Live, 3.0).unwrap();
        j.record_ack(&ack(4), 3.0).unwrap();
        let read = read_journal(&path).unwrap();
        assert_eq!(read.len(), 5);
        assert_eq!(read[3], JournalRecord::Ack { ack: ack(3), at: 3.0 });
        assert!(matches!(read[4], JournalRecord::Worker { worker: 4, .. }));
        j.commit().unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 6);
        std::fs::remove_file(&path).ok();
    }

    /// A write the OS refuses surfaces at the barrier — before anything
    /// could act on the records — and is not retried behind the caller's
    /// back when the writer is dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_refused_write_fails_the_barrier() {
        let mut j = Journal::create(Path::new("/dev/full")).unwrap();
        let ack = AckMsg {
            job: EnsembleJobId::new(WorkflowId(0), JobId(0)),
            worker: 0,
            kind: AckKind::Running,
            attempt: 1,
        };
        j.record_ack(&ack, 1.0).unwrap();
        assert!(j.commit().is_err());
        assert!(j.commit().is_ok(), "the refused bytes are gone, not queued for a retry");
    }

    /// A submit record must never wait in the buffer (replay validates
    /// dense submission order), nor a lifecycle record (the liveness table
    /// is rebuilt from them exactly).
    #[test]
    fn submissions_and_worker_transitions_write_themselves() {
        let path = tmp("immediate");
        let mut j = Journal::create(&path).unwrap();
        j.record_submit(WorkflowId(0), 0, 0.0).unwrap();
        assert_eq!(
            read_journal(&path).unwrap(),
            vec![JournalRecord::Submit { workflow: 0, at: 0.0 }]
        );
        j.record_worker(1, 0, WorkerPhase::Live, 0.0).unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn worker_records_round_trip_exactly() {
        let path = tmp("worker-rec");
        let mut j = Journal::create(&path).unwrap();
        j.record_worker(3, 1, WorkerPhase::Live, 0.5).unwrap();
        j.record_worker(3, 1, WorkerPhase::Expired, 2.5).unwrap();
        drop(j);
        assert_eq!(
            read_journal(&path).unwrap(),
            vec![
                JournalRecord::Worker {
                    worker: 3,
                    generation: 1,
                    phase: WorkerPhase::Live,
                    at: 0.5
                },
                JournalRecord::Worker {
                    worker: 3,
                    generation: 1,
                    phase: WorkerPhase::Expired,
                    at: 2.5
                },
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_mid_burst_then_reopen_loses_nothing() {
        // A clean shutdown with a burst still buffered must flush the tail
        // (Journal's Drop impl), and a writer reopened on the file must
        // append after it without gaps.
        let path = tmp("drop-reopen");
        let mut j = Journal::create(&path).unwrap();
        let ack = |attempt| AckMsg {
            job: EnsembleJobId::new(WorkflowId(0), JobId(0)),
            worker: 0,
            kind: AckKind::Running,
            attempt,
        };
        j.record_submit(WorkflowId(0), 0, 0.0).unwrap();
        j.record_ack(&ack(1), 1.0).unwrap();
        j.record_ack(&ack(2), 2.0).unwrap(); // both acks still buffered
        drop(j); // clean shutdown mid-burst
        assert_eq!(read_journal(&path).unwrap().len(), 3, "drop flushed the burst");

        let mut j = Journal::append(&path).unwrap();
        j.record_ack(&ack(3), 3.0).unwrap();
        drop(j);
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[3], JournalRecord::Ack { ack: ack(3), at: 3.0 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_liveness_rebuilds_the_pre_crash_table() {
        use crate::realtime::liveness::REQUEUE_WORKER;
        // The journaled history of a worker that registered, checked a
        // job out, expired, and had the job requeued.
        let job = EnsembleJobId::new(WorkflowId(0), JobId(0));
        let records = vec![
            JournalRecord::Worker { worker: 4, generation: 0, phase: WorkerPhase::Live, at: 0.0 },
            JournalRecord::Ack {
                ack: AckMsg { job, worker: 4, kind: AckKind::Running, attempt: 1 },
                at: 0.5,
            },
            JournalRecord::Worker {
                worker: 4,
                generation: 0,
                phase: WorkerPhase::Expired,
                at: 2.0,
            },
            JournalRecord::Ack {
                ack: AckMsg { job, worker: REQUEUE_WORKER, kind: AckKind::Failed, attempt: 1 },
                at: 2.0,
            },
        ];
        let table = replay_liveness(&records, 1.0);
        let snap = table.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!((snap[0].worker, snap[0].phase), (4, WorkerPhase::Expired));
        assert_eq!(table.stats().workers_expired, 1);
        assert_eq!(table.stats().jobs_requeued_on_expiry, 1);
        assert_eq!(table.assignment(job), None);
    }

    /// A worker link sends a job's terminal ack in place of its `Running`
    /// when both wait in its outbox together, so a journal may hold a job's
    /// terminal ack alone. With leases on, that recovers the engine and the
    /// liveness table a journal with both acks recovers, and the folded jobs
    /// never enter the assignment table.
    #[test]
    fn terminal_acks_without_their_running_recover_the_same_master() {
        let registry = Registry::new();
        registry.insert(WorkflowId(0), chain(3));
        registry.insert(WorkflowId(1), chain(3));
        let job = |wf, j| EnsembleJobId::new(WorkflowId(wf), JobId(j));
        let ack = |job, kind, attempt, at| JournalRecord::Ack {
            ack: AckMsg { job, worker: 1, kind, attempt },
            at,
        };
        let pair = |job, kind, attempt, at| {
            [ack(job, AckKind::Running, attempt, at), ack(job, kind, attempt, at)]
        };
        let mut both = vec![
            JournalRecord::Worker { worker: 1, generation: 0, phase: WorkerPhase::Live, at: 0.0 },
            JournalRecord::Submit { workflow: 0, at: 0.0 },
            JournalRecord::Submit { workflow: 1, at: 0.0 },
        ];
        both.extend(pair(job(0, 0), AckKind::Completed, 1, 1.0));
        both.extend(pair(job(1, 0), AckKind::Completed, 1, 1.0));
        both.extend(pair(job(0, 1), AckKind::Failed, 1, 2.0));
        both.extend(pair(job(0, 1), AckKind::Completed, 2, 3.0));
        both.extend(pair(job(1, 1), AckKind::Completed, 1, 3.0));
        // Still running at the crash: its `Running` was flushed alone.
        both.push(ack(job(0, 2), AckKind::Running, 1, 4.0));
        let folded: Vec<JournalRecord> = both
            .iter()
            .enumerate()
            .filter(|&(i, rec)| match (rec, both.get(i + 1)) {
                (
                    JournalRecord::Ack { ack: run, .. },
                    Some(JournalRecord::Ack { ack: end, .. }),
                ) => {
                    run.kind != AckKind::Running || (run.job, run.attempt) != (end.job, end.attempt)
                }
                _ => true,
            })
            .map(|(_, rec)| *rec)
            .collect();
        assert_eq!(folded.len(), both.len() - 5, "each of the five pairs loses its Running");

        let config = EngineConfig { default_timeout_secs: 10.0, ..EngineConfig::default() };
        let replay = |records: &[JournalRecord]| {
            let rec = recover(records, &registry, config).unwrap();
            let states: Vec<_> = (0..2)
                .flat_map(|wf| (0..3).map(move |j| job(wf, j)))
                .map(|id| rec.engine.job_state(id))
                .collect();
            (states, rec.engine.stats(), rec.redispatch, rec.resume_at)
        };
        let recovered = replay(&folded);
        assert_eq!(recovered, replay(&both), "the same engine");
        assert_eq!(recovered.0[2], Some(JobState::Running));
        assert_eq!((recovered.1.jobs_completed, recovered.1.resubmissions), (4, 1));

        let (table, reference) = (replay_liveness(&folded, 5.0), replay_liveness(&both, 5.0));
        assert_eq!(table.snapshot(), reference.snapshot());
        assert_eq!(table.stats(), reference.stats());
        for id in [job(0, 0), job(0, 1), job(1, 0), job(1, 1)] {
            assert_eq!(table.assignment(id), None, "{id:?} never entered the table");
        }
        assert_eq!(table.assignment(job(0, 2)), Some((1, 1)));
        assert_eq!(reference.assignment(job(0, 2)), Some((1, 1)));
    }

    /// What a 0.11.0 `--shards 4` master wrote for three two-job chains on
    /// shards 3, 0 and 2 (the fourth token of each `S` line): wf0 runs to
    /// completion, wf1's root is checked out at 2.5 and times out in the
    /// scan at 13.0, wf2's root completes. Plain text, not produced by the
    /// writer under test.
    const SHARDED_0_11_JOURNAL: &str = "\
W 1 0 0 0
S 0 0 3
A 0 0 1 0 1 3fe0000000000000
S 1 3ff0000000000000 0
A 0 0 1 1 1 3ff8000000000000
S 2 4000000000000000 2
A 1 0 1 0 1 4004000000000000
A 0 1 1 0 1 4008000000000000
A 0 1 1 1 1 4010000000000000
T 402a000000000000
A 2 0 1 1 1 402c000000000000
";

    /// Every earlier journal generation still recovers: the trailing
    /// token of 0.5.0–0.11.0 submission records is read and ignored, so
    /// the fixture replays to exactly what the same records replay to
    /// with the token stripped (the pre-0.5.0 and current layout).
    #[test]
    fn legacy_sharded_journal_recovers_like_its_token_free_twin() {
        let stripped: String = SHARDED_0_11_JOURNAL
            .lines()
            .map(|line| match line.strip_prefix("S ") {
                Some(rest) => {
                    let (keep, _token) = rest.rsplit_once(' ').expect("four-token S line");
                    format!("S {keep}\n")
                }
                None => format!("{line}\n"),
            })
            .collect();
        assert_eq!(stripped.lines().nth(1), Some("S 0 0"));

        let registry = Registry::new();
        for i in 0..3 {
            registry.insert(WorkflowId(i), chain(2));
        }
        let config = EngineConfig { default_timeout_secs: 10.0, ..EngineConfig::default() };
        let replay = |tag: &str, text: &str| {
            let path = tmp(tag);
            std::fs::write(&path, text).unwrap();
            let records = read_journal(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let rec = recover(&records, &registry, config).unwrap();
            let states: Vec<_> = (0..3u32)
                .flat_map(|wf| (0..2u32).map(move |j| EnsembleJobId::new(WorkflowId(wf), JobId(j))))
                .map(|id| rec.engine.job_state(id))
                .collect();
            (records, states, rec.engine.stats(), rec.redispatch, rec.resume_at)
        };
        let legacy = replay("legacy-sharded", SHARDED_0_11_JOURNAL);
        let plain = replay("legacy-stripped", &stripped);
        assert_eq!(legacy, plain, "the token changes nothing");

        let (records, states, stats, redispatch, resume_at) = legacy;
        assert_eq!(records.len(), 11);
        assert_eq!(records[1], JournalRecord::Submit { workflow: 0, at: 0.0 });
        assert_eq!(records[5], JournalRecord::Submit { workflow: 2, at: 2.0 });
        let completed = |wf: usize, j: usize| states[wf * 2 + j] == Some(JobState::Completed);
        assert!(completed(0, 0) && completed(0, 1) && completed(2, 0));
        assert!(!completed(1, 0) && !completed(1, 1) && !completed(2, 1));
        assert_eq!((stats.workflows_completed, stats.resubmissions), (1, 1));
        let job = |wf, j| EnsembleJobId::new(WorkflowId(wf), JobId(j));
        assert_eq!(
            redispatch,
            vec![
                DispatchMsg { job: job(1, 0), attempt: 2 },
                DispatchMsg { job: job(2, 1), attempt: 1 }
            ]
        );
        assert_eq!(resume_at, 14.0);
    }

    /// The legacy token is tolerated only as a number: garbage after the
    /// time is a corrupt line mid-file and a torn tail at the end.
    #[test]
    fn non_numeric_trailing_submit_token_is_corruption() {
        let path = tmp("legacy-garbage");
        std::fs::write(&path, "S 0 0 x3\nT 3ff0000000000000\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt journal record at line 1"), "{err}");
        std::fs::write(&path, "T 3ff0000000000000\nS 0 0 x3\n").unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![JournalRecord::Scan { at: 1.0 }]);
        std::fs::remove_file(&path).ok();
    }

    /// What a 0.11.0 master left on disk when its process died while the
    /// dispatches of workflow 1's three leaves were leaving, under each
    /// commit mode it had (captured from that build; a three-job chain,
    /// then a 1 → 3 fan, one worker). Written before any effect: the root's
    /// acks are in the file.
    const WRITE_AHEAD_0_11_JOURNAL: &str = "\
W 1 0 0 3e92ecb91dbac860
S 0 3ef9fe83d40a83bd
A 0 0 1 0 1 3f0021beca33480a
A 0 0 1 1 1 3f0021beca33480a
A 0 1 1 0 1 3f01c058058bc150
A 0 1 1 1 1 3f01c058058bc150
A 0 2 1 0 1 3f02a4c84bdea5bd
A 0 2 1 1 1 3f02a4c84bdea5bd
S 1 3f083ff8fa8e623f
A 1 0 1 0 1 3f094b9a4c0adf46
A 1 0 1 1 1 3f094b9a4c0adf46
";
    /// Group commit: the same moment, but the root's acks were still in
    /// the writer's buffer — the file trails effects that had left.
    const GROUP_COMMIT_0_11_JOURNAL: &str = "\
W 1 0 0 3e93429f59438a91
S 0 3efb6d775a5d214c
A 0 0 1 0 1 3f00cd68e52cfc1e
A 0 0 1 1 1 3f00cd68e52cfc1e
A 0 1 1 0 1 3f026c8b90e4b69b
A 0 1 1 1 1 3f026c8b90e4b69b
A 0 2 1 0 1 3f033fab6f37a3e4
A 0 2 1 1 1 3f033fab6f37a3e4
S 1 3f091f944d87fbc0
";

    /// Journals written under either retired commit mode recover: the
    /// format was the same, and a file that trails its effects is still a
    /// valid engine history. The recovered engine republishes what the
    /// file says is in flight — for the trailing file that is the root,
    /// one step behind what the dead master had sent — and finishes.
    #[test]
    fn journals_of_both_retired_commit_modes_recover_and_finish() {
        let registry = Registry::new();
        registry.insert(WorkflowId(0), chain(3));
        let mut fan = WorkflowBuilder::new("fan");
        let root = fan.job("r", "t", 1.0).build();
        for i in 0..3 {
            let leaf = fan.job(format!("l{i}"), "t", 1.0).build();
            fan.edge(root, leaf);
        }
        registry.insert(WorkflowId(1), Arc::new(fan.finish().unwrap()));
        let attempt_1 =
            |j| DispatchMsg { job: EnsembleJobId::new(WorkflowId(1), JobId(j)), attempt: 1 };

        let cases = [
            ("write-ahead", WRITE_AHEAD_0_11_JOURNAL, [1, 2, 3].map(attempt_1).to_vec()),
            ("group-commit", GROUP_COMMIT_0_11_JOURNAL, vec![attempt_1(0)]),
        ];
        for (tag, text, in_flight) in cases {
            let path = tmp(tag);
            std::fs::write(&path, text).unwrap();
            let records = read_journal(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let rec = recover(&records, &registry, EngineConfig::default()).unwrap();
            assert_eq!(rec.engine.stats().workflows_completed, 1, "{tag}");
            assert_eq!(rec.redispatch, in_flight, "{tag}");

            let mut engine = rec.engine;
            let mut work = rec.redispatch;
            let mut sink = Vec::new();
            while let Some(d) = work.pop() {
                let ack = AckMsg { job: d.job, worker: 1, kind: AckKind::Completed, attempt: 1 };
                engine.on_ack(ack, rec.resume_at + 1.0, &mut sink);
                work.extend(sink.drain(..).filter_map(|a| match a {
                    Action::Dispatch(d) => Some(d),
                    _ => None,
                }));
            }
            assert!(engine.all_complete(), "{tag}: {:?}", engine.stats());
            assert_eq!(engine.stats().jobs_completed, 7, "{tag}");
        }
    }

    /// Three two-job chains under a retry cap of 2 and a 10 s timeout, as a
    /// master journaled them: wf0's root fails attempt 1 and completes by
    /// attempt 2, wf1's root fails both attempts (wf1 is abandoned), wf2's
    /// root times out in the scan at 15.625 and is checked out again.
    const UNCOMPACTED_HISTORY: &str = "\
W 1 0 0 0
S 0 0
A 0 0 1 0 1 3fc0000000000000
A 0 0 1 2 1 3ff0000000000000
A 0 0 1 0 2 3ff4000000000000
S 1 4000000000000000
A 1 0 1 0 1 4004000000000000
A 0 0 1 1 2 4008000000000000
A 1 0 1 2 1 400a000000000000
A 0 1 1 0 1 400c000000000000
A 1 0 1 2 2 400e000000000000
A 0 1 1 1 1 4010000000000000
S 2 4014000000000000
A 2 0 1 0 1 4016000000000000
T 402f400000000000
A 2 0 1 0 2 4030000000000000
";
    /// The same history as a 0.11.0 master's WAL compaction rewrote it
    /// (captured from that build): completed wf0 is its submission and one
    /// `Completed` per job at the submission instant — the root's by
    /// attempt 2, which the replayed engine never issued — while abandoned
    /// wf1 and live wf2 keep every record.
    const COMPACTED_0_11_JOURNAL: &str = "\
W 1 0 0 0
S 0 0
A 0 0 1 1 2 0
A 0 1 1 1 1 0
S 1 4000000000000000
A 1 0 1 0 1 4004000000000000
A 1 0 1 2 1 400a000000000000
A 1 0 1 2 2 400e000000000000
S 2 4014000000000000
A 2 0 1 0 1 4016000000000000
T 402f400000000000
A 2 0 1 0 2 4030000000000000
";

    /// A journal an earlier master compacted is an ordinary record stream.
    /// It replays to the completions and the in-flight frontier of the
    /// history it stands for, because a `Completed` from any attempt
    /// completes the job, and a master that takes it over finishes.
    #[test]
    fn a_journal_an_earlier_master_compacted_takes_over_and_finishes() {
        use crate::realtime::testutil::{endpoint, link, next_dispatch};
        use crate::realtime::{spawn_master_on, MasterConfig, MasterEvent};
        use dewe_mq::WorkerTransport;

        let registry = Registry::new();
        for i in 0..3 {
            registry.insert(WorkflowId(i), chain(2));
        }
        let config = EngineConfig::default().timeout(10.0).max_attempts(2);
        let job = |wf, j| EnsembleJobId::new(WorkflowId(wf), JobId(j));
        let path = tmp("compacted");
        let replay = |text: &str| {
            std::fs::write(&path, text).unwrap();
            recover(&read_journal(&path).unwrap(), &registry, config).unwrap()
        };
        let full = replay(UNCOMPACTED_HISTORY);
        let lean = replay(COMPACTED_0_11_JOURNAL);
        let (fs, ls) = (full.engine.stats(), lean.engine.stats());
        assert_eq!((ls.workflows_completed, ls.workflows_abandoned, ls.jobs_completed), (1, 1, 2));
        assert_eq!((fs.workflows_completed, fs.jobs_completed), (1, 2));
        assert_eq!(lean.engine.job_state(job(0, 0)), Some(JobState::Completed), "by attempt 2");
        assert_eq!(full.redispatch, lean.redispatch);
        assert_eq!(lean.redispatch, vec![DispatchMsg { job: job(2, 0), attempt: 2 }]);

        // The file now holds the compacted journal; a master takes it over.
        let tcp = endpoint();
        let handle = spawn_master_on(
            tcp.clone(),
            registry,
            MasterConfig {
                engine: config,
                expected_workflows: Some(3),
                journal_path: Some(path.clone()),
                ..MasterConfig::default()
            },
        );
        let (link, _) = link(&tcp, 1, 8);
        let first = next_dispatch(&link);
        assert_eq!((first.job, first.attempt), (job(2, 0), 2), "the republished frontier");
        link.publish_ack(AckMsg::new(first.job, 1, AckKind::Completed, first.attempt));
        let second = next_dispatch(&link);
        assert_eq!((second.job, second.attempt), (job(2, 1), 1));
        link.publish_ack(AckMsg::new(second.job, 1, AckKind::Completed, second.attempt));
        let stats = loop {
            match handle.events.recv_timeout(std::time::Duration::from_secs(10)).unwrap() {
                MasterEvent::AllSettled { stats } => break stats,
                MasterEvent::WorkflowCompleted { workflow, .. } => {
                    assert_eq!(workflow, WorkflowId(2))
                }
                other => panic!("unexpected event {other:?}"),
            }
        };
        assert_eq!((stats.workflows_completed, stats.workflows_abandoned), (2, 1));
        assert_eq!(stats.jobs_completed, 4);
        handle.join();
        tcp.shutdown();
        link.close();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_line_is_discarded() {
        let path = tmp("torn");
        let mut j = Journal::create(&path).unwrap();
        j.record_scan(1.0).unwrap();
        drop(j);
        // Simulate a crash mid-write of the next record.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"A 0 0 1").unwrap();
        drop(f);
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs, vec![JournalRecord::Scan { at: 1.0 }]);
        std::fs::remove_file(&path).ok();
    }

    /// A tail torn inside its hex time still parses as a record — with a
    /// time that never happened, here earlier than the record before it.
    /// Without its newline it is torn all the same, and is not replayed.
    #[test]
    fn a_torn_tail_that_parses_is_discarded_too() {
        let path = tmp("torn-parses");
        std::fs::write(&path, "T 4028b0a3d70a3d71\nA 0 0 1 1 1 4028b0a3").unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![JournalRecord::Scan { at: 12.345 }]);
        // Torn inside a byte sequence that is not UTF-8: torn, not corrupt.
        std::fs::write(&path, b"T 4028b0a3d70a3d71\nA 0 \xff\xfe").unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![JournalRecord::Scan { at: 12.345 }]);
        // Complete, the same bytes are corruption before a record...
        std::fs::write(&path, b"A 0 \xff\xfe\nT 4028b0a3d70a3d71\n").unwrap();
        assert_eq!(read_journal(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // ...and the torn record, completed, is read.
        std::fs::write(&path, "T 4028b0a3d70a3d71\nA 0 0 1 1 1 4028b0a3\n").unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// A line longer than any record is corruption, last line or not: a
    /// file that is not a journal is refused after one record's worth of
    /// it, not buffered whole and then forgiven as a torn tail.
    #[test]
    fn a_line_longer_than_any_record_is_corruption() {
        let path = tmp("long-line");
        std::fs::write(&path, vec![b'x'; 1 << 20]).unwrap();
        assert_eq!(read_journal(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // A record padded with blanks to the most a line holds reads; one
        // byte more does not, even with a record after it.
        let padded = |len: usize| format!("T 0{}\r\nT 0\n", " ".repeat(len - "T 0\r\n".len()));
        std::fs::write(&path, padded(READ_MAX)).unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 2);
        std::fs::write(&path, padded(READ_MAX + 1)).unwrap();
        assert_eq!(read_journal(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_middle_record_is_an_error() {
        let path = tmp("corrupt");
        std::fs::write(&path, "T 3ff0000000000000\nGARBAGE\nT 4000000000000000\n").unwrap();
        assert!(read_journal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_rebuilds_engine_state() {
        let path = tmp("recover");
        let registry = Registry::new();
        let wf = chain(2);
        registry.insert(WorkflowId(0), Arc::clone(&wf));

        // Live master: submit, check out the root, then "crash".
        let config = EngineConfig { default_timeout_secs: 10.0, ..EngineConfig::default() };
        let mut live = config.build();
        let mut j = Journal::create(&path).unwrap();
        let mut sink = Vec::new();
        j.record_submit(WorkflowId(0), 0, 0.0).unwrap();
        live.submit_workflow(Arc::clone(&wf), 0.0, &mut sink);
        let Action::Dispatch(d) = sink[0].clone() else { panic!("root dispatch") };
        sink.clear();
        let run = AckMsg { job: d.job, worker: 0, kind: AckKind::Running, attempt: 1 };
        j.record_ack(&run, 1.0).unwrap();
        live.on_ack(run, 1.0, &mut sink);
        sink.clear();
        drop(j); // crash

        let rec = recover(&read_journal(&path).unwrap(), &registry, config).unwrap();
        let mut engine = rec.engine;
        assert_eq!(rec.resume_at, 1.0);
        assert_eq!(engine.stats(), live.stats(), "replayed stats match live");
        assert_eq!(rec.redispatch, vec![DispatchMsg { job: d.job, attempt: 1 }]);
        // The rebuilt deadline heap still times the checkout out at 11.0.
        assert_eq!(engine.next_deadline(), Some(11.0));
        let mut actions = Vec::new();
        engine.check_timeouts(11.0, &mut actions);
        assert!(actions.iter().any(|a| matches!(a, Action::Dispatch(d2) if d2.attempt == 2)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_rejects_missing_workflow() {
        let recs = vec![JournalRecord::Submit { workflow: 0, at: 0.0 }];
        let err = recover(&recs, &Registry::new(), EngineConfig::default());
        assert!(err.is_err());
    }
}
