use super::*;

// ---------------------------------------------------------------------------
// Submission client
// ---------------------------------------------------------------------------

/// Submit `(name, dag)` pairs — each DAG in the `dewe-dag` text format — to
/// a master over TCP: the networked `dewectl submit`, whose `--count` is one
/// text under several names. Every submission goes down one connection, so
/// the master numbers them in the order given. A DAG's text is sent as the
/// caller holds it, once: a submission whose text is the previous one's —
/// the same string, or equal bytes — goes as a [`WireMsg::Repeat`] of just
/// its name, and the master gives it the previous one's topology. A caller
/// holding a `Workflow` serialises it with `dewe_dag::write_workflow`.
/// Fire-and-forget: the frames are flushed onto a healthy connection; if
/// the master dies before ingesting them, resubmit. A submission whose
/// frame is over the master's frame cap, which the master would drop the
/// connection for, is `InvalidInput`, and then nothing is sent.
pub fn submit_over_tcp<N: AsRef<str>, D: AsRef<str>>(
    addr: impl ToSocketAddrs,
    submissions: impl IntoIterator<Item = (N, D)>,
) -> io::Result<()> {
    let submissions: Vec<(N, D)> = submissions.into_iter().collect();
    for (name, dag) in &submissions {
        let (name, dag) = (name.as_ref(), dag.as_ref());
        let len = DagFrame { id: None, name, dag }.payload_len();
        if len > DEFAULT_MAX_FRAME {
            let cap = DEFAULT_MAX_FRAME;
            let why = format!("submission {name:?}: {len} bytes over the frame cap of {cap}");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
    }
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut w = BufWriter::new(stream);
    write_frame(&mut w, &WireMsg::SubmitterHello.encode())?;
    let mut previous: Option<D> = None;
    for (name, dag) in submissions {
        let (name, text) = (name.as_ref(), dag.as_ref());
        let repeat = previous
            .as_ref()
            .map(AsRef::as_ref)
            .is_some_and(|previous: &str| std::ptr::eq(previous, text) || previous == text);
        if repeat {
            write_frame(&mut w, &WireMsg::Repeat { name: name.to_string() }.encode())?;
        } else {
            let head = DagFrame { id: None, name, dag: text }.head();
            write_frame_split(&mut w, &head, text.as_bytes())?;
            previous = Some(dag);
        }
    }
    w.flush()
}

// ---------------------------------------------------------------------------
// Workflow spool (master state directory)
// ---------------------------------------------------------------------------

/// How a spool entry whose DAG is an earlier entry's begins, after its name
/// line: `@same-as <earlier id>`. No DAG text begins so (`@` is not a
/// directive), so a spool in which every entry is a text — all that
/// 0.11.0 wrote — reads as it always did.
const SAME_AS: &str = "@same-as ";

/// The body of a spool entry that refers to entry `earlier` for its DAG.
pub(super) fn same_as(earlier: WorkflowId) -> String {
    format!("{SAME_AS}{}\n", earlier.0)
}

/// Write one announced workflow to `dir/wf-<id>.dag`: the name on the first
/// line, then `body` — the DAG text, the submitter's bytes written from
/// where they are, or a [`same_as`] reference. Atomic via rename, so a crash
/// mid-write never leaves a torn spool entry. An error names the step and
/// the file it failed on.
pub(super) fn spool_workflow(dir: &Path, id: WorkflowId, name: &str, body: &str) -> io::Result<()> {
    let final_path = dir.join(format!("wf-{:08}.dag", id.0));
    let tmp_path = dir.join(format!(".wf-{:08}.dag.tmp", id.0));
    let failed = |path: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("spool workflow {}: {e}", path.display()))
    };
    let mut file = std::fs::File::create(&tmp_path).map_err(|e| failed(&tmp_path, e))?;
    file.write_all(format!("{name}\n").as_bytes()).map_err(|e| failed(&tmp_path, e))?;
    file.write_all(body.as_bytes()).map_err(|e| failed(&tmp_path, e))?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path).map_err(|e| failed(&final_path, e))
}

/// [`TcpMaster::load_spool`] of `dir`, interning every DAG text in `dags`;
/// an entry that refers to an earlier one shares that one's workflow.
pub(super) fn load_spool(
    dir: &Path,
    dags: &mut DagStore,
) -> io::Result<Vec<(WorkflowId, String, Arc<Workflow>)>> {
    let mut entries: Vec<(u32, PathBuf)> = Vec::new();
    let read_dir = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    for entry in read_dir {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(idx) = name.strip_prefix("wf-").and_then(|s| s.strip_suffix(".dag")) else {
            continue;
        };
        let Ok(id) = idx.parse::<u32>() else { continue };
        entries.push((id, entry.path()));
    }
    entries.sort_by_key(|(id, _)| *id);
    let mut out: Vec<(WorkflowId, String, Arc<Workflow>)> = Vec::with_capacity(entries.len());
    for (i, (id, path)) in entries.iter().enumerate() {
        let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        if *id as usize != i {
            return Err(invalid(format!(
                "spool is not dense: expected wf-{i:08}, found wf-{id:08}"
            )));
        }
        let content = std::fs::read_to_string(path)?;
        let (name, dag) = content
            .split_once('\n')
            .ok_or_else(|| invalid(format!("{}: missing name line", path.display())))?;
        let workflow = match dag.strip_prefix(SAME_AS) {
            // Only an entry already loaded can be referred to.
            Some(earlier) => earlier
                .strip_suffix('\n')
                .and_then(|earlier| earlier.parse::<usize>().ok())
                .and_then(|earlier| out.get(earlier))
                .map(|(_, _, workflow)| Arc::clone(workflow))
                .ok_or_else(|| {
                    invalid(format!(
                        "{}: {SAME_AS}{:?} does not name an earlier entry",
                        path.display(),
                        earlier.lines().next().unwrap_or_default()
                    ))
                })?,
            None => dags.intern(dag).map_err(|e| invalid(format!("{}: {e}", path.display())))?,
        };
        out.push((WorkflowId(*id), name.to_string(), workflow));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realtime::testutil::{pump, scratch, wait_until, wf};

    #[test]
    fn spool_round_trips_and_rejects_sparse() {
        let dir = scratch("spool");
        for i in 0..3u32 {
            let text = dewe_dag::write_workflow(&wf(&format!("w{i}"), 2));
            spool_workflow(&dir, WorkflowId(i), &format!("w{i}"), &text).unwrap();
        }
        spool_workflow(&dir, WorkflowId(3), "w3", &same_as(WorkflowId(1))).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("wf-00000003.dag")).unwrap(),
            "w3\n@same-as 1\n"
        );
        let loaded = load_spool(&dir, &mut DagStore::default()).unwrap();
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded[1].0, WorkflowId(1));
        assert_eq!(loaded[1].1, "w1");
        assert_eq!(loaded[2].2.job_count(), 2);
        assert_eq!((loaded[3].0, loaded[3].1.as_str()), (WorkflowId(3), "w3"));
        assert!(Arc::ptr_eq(&loaded[3].2, &loaded[1].2), "a reference shares what it names");
        // Punch a hole: a sparse spool is corrupt and must fail loud.
        std::fs::remove_file(dir.join("wf-00000001.dag")).unwrap();
        assert!(load_spool(&dir, &mut DagStore::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spool 0.11.0 wrote: every entry the name line and a whole text,
    /// repeats included. It loads as it did, identical texts sharing one
    /// workflow.
    #[test]
    fn a_spool_of_texts_only_loads_unchanged() {
        let dir = scratch("spool-texts-only");
        let common = "# as submitted\nJOB a t CPU 1\nJOB b t CPU 1\nPARENT a CHILD b\n";
        let other = "JOB x t CPU 2\n";
        let files = [("chain-0", common), ("chain-1", common), ("other", other), ("", common)];
        for (i, (name, text)) in files.iter().enumerate() {
            std::fs::write(dir.join(format!("wf-{i:08}.dag")), format!("{name}\n{text}")).unwrap();
        }
        let loaded = load_spool(&dir, &mut DagStore::default()).unwrap();
        let names: Vec<&str> = loaded.iter().map(|(_, name, _)| name.as_str()).collect();
        assert_eq!(names, ["chain-0", "chain-1", "other", ""]);
        assert!(loaded.iter().enumerate().all(|(i, (id, _, _))| id.index() == i));
        assert!(Arc::ptr_eq(&loaded[0].2, &loaded[1].2) && Arc::ptr_eq(&loaded[0].2, &loaded[3].2));
        assert_eq!((loaded[0].2.job_count(), loaded[2].2.job_count()), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reference names an entry loaded before it. One to itself, to a
    /// later entry, to one the spool does not hold, or that is not a number
    /// is corrupt state: an error, never a panic.
    #[test]
    fn a_reference_to_anything_but_an_earlier_entry_is_invalid_data() {
        let dir = scratch("spool-bad-reference");
        std::fs::write(dir.join("wf-00000000.dag"), "first\nJOB a t CPU 1\n").unwrap();
        std::fs::write(dir.join("wf-00000002.dag"), "third\nJOB c t CPU 1\n").unwrap();
        for body in [
            "@same-as 1\n",
            "@same-as 2\n",
            "@same-as 7\n",
            "@same-as 4294967296\n",
            "@same-as -1\n",
            "@same-as 0",
            "@same-as 0\nJOB b t CPU 1\n",
            "@same-as \n",
        ] {
            std::fs::write(dir.join("wf-00000001.dag"), format!("second\n{body}")).unwrap();
            let err = load_spool(&dir, &mut DagStore::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body:?}: {err}");
            assert!(err.to_string().contains("wf-00000001.dag"), "{body:?}: {err}");
        }
        std::fs::write(dir.join("wf-00000001.dag"), "second\n@same-as 0\n").unwrap();
        let loaded = load_spool(&dir, &mut DagStore::default()).unwrap();
        assert!(Arc::ptr_eq(&loaded[0].2, &loaded[1].2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_spool_of_missing_dir_is_a_cold_start() {
        let dir = std::env::temp_dir().join("dewe-spool-definitely-missing");
        assert!(load_spool(&dir, &mut DagStore::default()).unwrap().is_empty());
        let stateless = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        assert!(stateless.load_spool().unwrap().is_empty());
        stateless.shutdown();
    }

    #[test]
    fn submit_over_tcp_reaches_the_submission_topic() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let dag = dewe_dag::write_workflow(&wf("net-sub", 3));
        submit_over_tcp(master.local_addr(), [("net-sub", &dag)]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let sub = loop {
            if let Some(s) = master.try_pull_submission() {
                break s;
            }
            assert!(std::time::Instant::now() < deadline, "submission never arrived");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(sub.name, "net-sub");
        assert_eq!(sub.workflow.job_count(), 3);
        master.shutdown();
    }

    /// A submission the master's frame cap would refuse is refused before
    /// anything is sent; the master reads nothing of it.
    #[test]
    fn a_submission_over_the_frame_cap_is_refused_before_it_is_sent() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let _pump = pump(&master);
        let huge = format!("# {}\nJOB a t CPU 1\n", "x".repeat(DEFAULT_MAX_FRAME));
        let small = dewe_dag::write_workflow(&wf("small", 1));
        let err = submit_over_tcp(master.local_addr(), [("small", &small), ("huge", &huge)])
            .expect_err("over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        drop(huge);
        // The next submission is the first the master queues.
        submit_over_tcp(master.local_addr(), [("after", &small)]).unwrap();
        let mut got = None;
        wait_until("a submission arrives", || {
            got = master.try_pull_submission();
            got.is_some()
        });
        assert_eq!(got.expect("waited for it").name, "after");
        assert!(master.try_pull_submission().is_none(), "and the only one");
        master.shutdown();
    }

    /// What `submit_over_tcp` puts on the wire for three submissions of one
    /// text — here three separate copies of it — beside a distinct one: the
    /// text once, then a repeat of just the name; the distinct text, and
    /// the first one again in full, since it is no longer the previous.
    #[test]
    fn identical_texts_cross_the_submitter_connection_once() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let text = dewe_dag::write_workflow(&wf("thrice", 3));
        let other = dewe_dag::write_workflow(&wf("other", 1));
        let copies = [text.clone(), text.clone(), text.clone(), other.clone(), text.clone()];
        let names = ["a", "b", "c", "d", "e"];
        let submitter =
            std::thread::spawn(move || submit_over_tcp(addr, names.into_iter().zip(copies)));
        let (stream, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut frames = Vec::new();
        let mut bytes = 0;
        while let Some(frame) = dewe_mq::read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap() {
            bytes += frame.len();
            frames.push(WireMsg::decode(&frame).unwrap());
        }
        submitter.join().unwrap().unwrap();
        let submit = |name: &str, dag: &str| WireMsg::Submit { name: name.into(), dag: dag.into() };
        let repeat = |name: &str| WireMsg::Repeat { name: name.into() };
        let expected = [
            WireMsg::SubmitterHello,
            submit("a", &text),
            repeat("b"),
            repeat("c"),
            submit("d", &other),
            submit("e", &text),
        ];
        assert_eq!(frames, expected);
        assert!(bytes < 2 * text.len() + other.len() + 100, "{bytes} bytes on the wire");
    }
}
