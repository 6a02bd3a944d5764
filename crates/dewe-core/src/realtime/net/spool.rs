use super::*;

// ---------------------------------------------------------------------------
// Submission client
// ---------------------------------------------------------------------------

/// Submit `(name, dag)` pairs — each DAG in the `dewe-dag` text format — to
/// a master over TCP: the networked `dewectl submit`, whose `--count` is one
/// text under several names. Every submission goes down one connection, so
/// the master numbers them in the order given, and a DAG's text is sent as
/// the caller holds it; the master parses each distinct text once and gives
/// every name that carries it the same topology. A caller holding a
/// `Workflow` serialises it with `dewe_dag::write_workflow`.
/// Fire-and-forget: the frames are flushed onto a healthy connection; if
/// the master dies before ingesting them, resubmit.
pub fn submit_over_tcp<N: AsRef<str>, D: AsRef<str>>(
    addr: impl ToSocketAddrs,
    submissions: impl IntoIterator<Item = (N, D)>,
) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut w = BufWriter::new(stream);
    write_frame(&mut w, &WireMsg::SubmitterHello.encode())?;
    for (name, dag) in submissions {
        let dag = dag.as_ref();
        let head = DagFrame { id: None, name: name.as_ref(), dag }.head();
        write_frame_split(&mut w, &head, dag.as_bytes())?;
    }
    w.flush()
}

// ---------------------------------------------------------------------------
// Workflow spool (master state directory)
// ---------------------------------------------------------------------------

/// Write one announced workflow to `dir/wf-<id>.dag`: the name on the
/// first line, the DAG text — the submitter's bytes — after it, written
/// from where they are. Atomic via rename, so a crash mid-write never
/// leaves a torn spool entry.
pub(super) fn spool_workflow(dir: &Path, id: WorkflowId, name: &str, text: &str) -> io::Result<()> {
    let final_path = dir.join(format!("wf-{:08}.dag", id.0));
    let tmp_path = dir.join(format!(".wf-{:08}.dag.tmp", id.0));
    let mut file = std::fs::File::create(&tmp_path)?;
    file.write_all(format!("{name}\n").as_bytes())?;
    file.write_all(text.as_bytes())?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path)
}

/// [`TcpMaster::load_spool`] of `dir`, interning every DAG in `dags`.
pub(super) fn load_spool(
    dir: &Path,
    dags: &DagStore,
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
    let mut out = Vec::with_capacity(entries.len());
    for (i, (id, path)) in entries.iter().enumerate() {
        if *id as usize != i {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spool is not dense: expected wf-{i:08}, found wf-{id:08}"),
            ));
        }
        let content = std::fs::read_to_string(path)?;
        let (name, dag) = content.split_once('\n').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: missing name line", path.display()),
            )
        })?;
        let workflow = dags.intern(dag).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
        })?;
        out.push((WorkflowId(*id), name.to_string(), workflow));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realtime::testutil::{pump, scratch, wf};

    #[test]
    fn spool_round_trips_and_rejects_sparse() {
        let dir = scratch("spool");
        for i in 0..3u32 {
            let text = dewe_dag::write_workflow(&wf(&format!("w{i}"), 2));
            spool_workflow(&dir, WorkflowId(i), &format!("w{i}"), &text).unwrap();
        }
        let loaded = load_spool(&dir, &DagStore::default()).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[1].0, WorkflowId(1));
        assert_eq!(loaded[1].1, "w1");
        assert_eq!(loaded[2].2.job_count(), 2);
        // Punch a hole: a sparse spool is corrupt and must fail loud.
        std::fs::remove_file(dir.join("wf-00000001.dag")).unwrap();
        assert!(load_spool(&dir, &DagStore::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_spool_of_missing_dir_is_a_cold_start() {
        let dir = std::env::temp_dir().join("dewe-spool-definitely-missing");
        assert!(load_spool(&dir, &DagStore::default()).unwrap().is_empty());
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
}
