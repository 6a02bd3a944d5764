//! Property-based tests for the master's write-ahead journal: arbitrary
//! record sequences round-trip exactly, a crash-torn tail of *any* byte
//! length never poisons the intact prefix, and mid-file corruption is
//! always detected rather than silently skipped. Every record, whatever
//! its fields and time bits, is written as the bytes `writeln!` would write
//! and reads back as itself. *When* buffered lines reach the file — by the
//! write-ahead barrier at the latest — has a property of its own. And a
//! journal is read from disk, so whatever a file holds, reading and
//! replaying it is an answer, never a panic.

use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dewe_core::realtime::{
    read_journal, recover, replay_liveness, Journal, JournalRecord, Registry, WorkerPhase,
};
use dewe_core::{AckKind, AckMsg, EngineConfig};
use dewe_dag::{EnsembleJobId, JobId, WorkflowBuilder, WorkflowId};
use proptest::prelude::*;

fn tmp(tag: &str, case: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dewe-journal-prop-{}-{tag}-{case}", std::process::id()));
    p
}

fn ack_kind() -> impl Strategy<Value = AckKind> {
    prop_oneof![Just(AckKind::Running), Just(AckKind::Completed), Just(AckKind::Failed),]
}

fn record() -> impl Strategy<Value = JournalRecord> {
    // Times as positive finite f64: the format stores raw bits, but the
    // equality checks below need `PartialEq` to behave (no NaN).
    let at = 0.0f64..1.0e9;
    prop_oneof![
        (0u32..64, at.clone()).prop_map(|(workflow, at)| JournalRecord::Submit { workflow, at }),
        (0u32..64, 0u32..256, 0u32..16, ack_kind(), 1u32..10, at.clone()).prop_map(
            |(wf, job, worker, kind, attempt, at)| JournalRecord::Ack {
                ack: AckMsg::new(
                    EnsembleJobId::new(WorkflowId(wf), JobId(job)),
                    worker,
                    kind,
                    attempt,
                ),
                at,
            }
        ),
        at.clone().prop_map(|at| JournalRecord::Scan { at }),
        (0u32..16, 0u32..4, 0u8..4, at).prop_map(|(worker, generation, code, at)| {
            JournalRecord::Worker {
                worker,
                generation,
                phase: WorkerPhase::from_code(code).unwrap(),
                at,
            }
        }),
    ]
}

/// Any `u32`, at every decimal width: random bits shifted down so that
/// short numbers are as common as long ones, now and then `u32::MAX` or 0.
fn any_field() -> impl Strategy<Value = u32> {
    (any::<u32>(), 0u32..34).prop_map(|(n, shift)| match shift {
        32 => u32::MAX,
        33 => 0,
        _ => n >> shift,
    })
}

/// Time bits `f64` gives a meaning of their own: ±0, the infinities, NaNs
/// with and without a payload, subnormals, the extremes.
const SPECIAL_TIMES: [u64; 15] = [
    0,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0xfff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
    0xfff8_dead_beef_0001,
    1,
    0x000f_ffff_ffff_ffff,
    0x8000_0000_0000_0001,
    0x0010_0000_0000_0000,
    0x7fef_ffff_ffff_ffff,
    0xffef_ffff_ffff_ffff,
    u64::MAX,
];

/// Any 64 time bits, at every hex width, and now and then a special one.
fn any_time() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0usize..64 + SPECIAL_TIMES.len()).prop_map(|(bits, pick)| {
        f64::from_bits(match pick.checked_sub(64) {
            Some(special) => SPECIAL_TIMES[special],
            None => bits >> pick,
        })
    })
}

/// One record of each variant, every field drawn from its type's whole
/// range.
fn one_of_each() -> impl Strategy<Value = [JournalRecord; 4]> {
    let submit =
        (any_field(), any_time()).prop_map(|(workflow, at)| JournalRecord::Submit { workflow, at });
    let ack = (any_field(), any_field(), any_field(), ack_kind(), any_field(), any_time())
        .prop_map(|(wf, job, worker, kind, attempt, at)| JournalRecord::Ack {
            ack: AckMsg::new(EnsembleJobId::new(WorkflowId(wf), JobId(job)), worker, kind, attempt),
            at,
        });
    let scan = any_time().prop_map(|at| JournalRecord::Scan { at });
    let worker = (any_field(), any_field(), 0u8..4, any_time()).prop_map(
        |(worker, generation, code, at)| JournalRecord::Worker {
            worker,
            generation,
            phase: WorkerPhase::from_code(code).unwrap(),
            at,
        },
    );
    (submit, ack, scan, worker).prop_map(|(s, a, t, w)| [s, a, t, w])
}

/// The line a record had when the journal formatted it with `writeln!`:
/// the format every journal on disk was written in, kept as the oracle the
/// hand encoder must match byte for byte.
fn formatted_line(rec: &JournalRecord) -> String {
    let mut out = String::new();
    match *rec {
        JournalRecord::Submit { workflow, at } => writeln!(out, "S {workflow} {:x}", at.to_bits()),
        JournalRecord::Ack { ack, at } => writeln!(
            out,
            "A {} {} {} {} {} {:x}",
            ack.job.workflow.0,
            ack.job.job.0,
            ack.worker,
            ack.kind.code(),
            ack.attempt,
            at.to_bits()
        ),
        JournalRecord::Scan { at } => writeln!(out, "T {:x}", at.to_bits()),
        JournalRecord::Worker { worker, generation, phase, at } => {
            writeln!(out, "W {worker} {generation} {} {:x}", phase.code(), at.to_bits())
        }
    }
    .unwrap();
    out
}

/// A number as a record field holds one: one of the `valid` codes or ids
/// that exist, and one time in `odds` any number at all.
fn field(valid: u32, odds: u32) -> impl Strategy<Value = String> {
    (0..odds).prop_flat_map(move |pick| match pick {
        0 => any::<u32>().prop_map(|n| n.to_string()).boxed(),
        _ => (0..valid).prop_map(|n| n.to_string()).boxed(),
    })
}

/// A workflow, job, worker, generation or attempt: out of range often
/// enough to reach every refusal the engine has.
fn id() -> impl Strategy<Value = String> {
    field(3, 6)
}

/// A time as the journal writes one, hex bits: a plausible instant, or any
/// 64 bits at all — NaN, the infinities, negatives, subnormals.
fn time_bits() -> impl Strategy<Value = String> {
    prop_oneof![
        (0.0f64..5.0).prop_map(|t| format!("{:x}", t.to_bits())),
        any::<u64>().prop_map(|bits| format!("{bits:x}")),
    ]
}

/// One record's line, every field drawn as above; acks are the common
/// case, as in a real journal.
fn record_line() -> impl Strategy<Value = String> {
    (0u32..8).prop_flat_map(|pick| match pick {
        0 => (id(), time_bits()).prop_map(|(w, t)| format!("S {w} {t}")).boxed(),
        1 => time_bits().prop_map(|t| format!("T {t}")).boxed(),
        2 => (id(), id(), field(4, 40), time_bits())
            .prop_map(|(w, g, phase, t)| format!("W {w} {g} {phase} {t}"))
            .boxed(),
        _ => (id(), id(), id(), field(3, 40), id(), time_bits())
            .prop_map(|(w, j, worker, kind, attempt, t)| {
                format!("A {w} {j} {worker} {kind} {attempt} {t}")
            })
            .boxed(),
    })
}

/// A journal from nowhere: usually the two submissions that let replay get
/// anywhere, then lines that are mostly records and now and then bytes —
/// newlines, invalid UTF-8 and all.
fn hostile_journal() -> impl Strategy<Value = Vec<u8>> {
    let line = (0u32..16).prop_flat_map(|pick| match pick {
        0 => prop::collection::vec(any::<u8>(), 0..40).boxed(),
        _ => record_line().prop_map(|line| format!("{line}\n").into_bytes()).boxed(),
    });
    (0u32..4, prop::collection::vec(line, 0..24)).prop_map(|(prefix, lines)| {
        let submitted = if prefix == 0 { "" } else { "S 0 0\nS 1 0\n" };
        let mut bytes = submitted.as_bytes().to_vec();
        lines.iter().for_each(|line| bytes.extend_from_slice(line));
        bytes
    })
}

/// The registry a hostile journal is replayed against: a three-job chain
/// and a two-job fan.
fn two_workflows() -> Registry {
    let registry = Registry::new();
    let mut chain = WorkflowBuilder::new("chain");
    let a = chain.job("a", "t", 1.0).build();
    let b = chain.job("b", "t", 1.0).build();
    let c = chain.job("c", "t", 1.0).build();
    chain.edge(a, b);
    chain.edge(b, c);
    registry.insert(WorkflowId(0), Arc::new(chain.finish().unwrap()));
    let mut fan = WorkflowBuilder::new("fan");
    fan.job("x", "t", 1.0).build();
    fan.job("y", "t", 1.0).build();
    registry.insert(WorkflowId(1), Arc::new(fan.finish().unwrap()));
    registry
}

fn append(j: &mut Journal, rec: &JournalRecord) {
    match *rec {
        JournalRecord::Submit { workflow, at } => {
            j.record_submit(WorkflowId(workflow), 0, at).unwrap()
        }
        JournalRecord::Ack { ref ack, at } => j.record_ack(ack, at).unwrap(),
        JournalRecord::Scan { at } => j.record_scan(at).unwrap(),
        JournalRecord::Worker { worker, generation, phase, at } => {
            j.record_worker(worker, generation, phase, at).unwrap()
        }
    }
}

fn write_all(path: &Path, records: &[JournalRecord]) {
    // Dropping the journal writes out whatever is still buffered.
    let mut j = Journal::create(path).expect("create journal");
    for rec in records {
        append(&mut j, rec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the master journals, recovery reads back verbatim.
    #[test]
    fn records_round_trip(
        records in prop::collection::vec(record(), 0..40),
        case in any::<u64>(),
    ) {
        let path = tmp("roundtrip", case);
        write_all(&path, &records);
        let read = read_journal(&path);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(read.unwrap(), records);
    }

    /// What the file holds at a write-ahead barrier, wherever in the
    /// stream the barriers fall: every record appended so far — nothing
    /// the caller is about to act on is missing.
    #[test]
    fn the_file_holds_every_record_appended_so_far_at_every_barrier(
        records in prop::collection::vec(record(), 1..40),
        barriers in prop::collection::vec(any::<bool>(), 40),
        case in any::<u64>(),
    ) {
        let path = tmp("barrier", case);
        let mut j = Journal::create(&path).expect("create journal");
        for (i, rec) in records.iter().enumerate() {
            append(&mut j, rec);
            // Between barriers the file is a prefix, and a submission or
            // worker transition never waits for one.
            let read = read_journal(&path).unwrap();
            prop_assert_eq!(&read[..], &records[..read.len()], "a prefix, in order");
            if matches!(rec, JournalRecord::Submit { .. } | JournalRecord::Worker { .. }) {
                prop_assert_eq!(read.len(), i + 1, "a submit or worker record waited");
            }
            if barriers[i] {
                j.commit().unwrap();
                prop_assert_eq!(&read_journal(&path).unwrap()[..], &records[..=i]);
            }
        }
        j.commit().unwrap();
        let read = read_journal(&path);
        drop(j);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(read.unwrap(), records);
    }

    /// A crash can tear the file at any byte. Reading the remains must
    /// succeed and return exactly the records whose lines survived with
    /// their newline: the writer ends every record with one, so a final
    /// line without it is torn and discarded, even where what is left of
    /// it — a hex time cut short — would still parse.
    #[test]
    fn truncation_at_any_byte_keeps_the_intact_prefix(
        records in prop::collection::vec(record(), 1..30),
        cut_frac in 0.0f64..1.0,
        case in any::<u64>(),
    ) {
        let path = tmp("truncate", case);
        write_all(&path, &records);
        let bytes = std::fs::read(&path).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let read = read_journal(&path);
        std::fs::remove_file(&path).ok();

        let intact = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        prop_assert_eq!(read.unwrap(), &records[..intact]);
    }

    /// Torn tails are only forgiven at end-of-file: garbage anywhere
    /// before another record is corruption and must be reported.
    #[test]
    fn garbage_before_valid_records_is_an_error(
        records in prop::collection::vec(record(), 2..20),
        pos_frac in 0.0f64..1.0,
        case in any::<u64>(),
    ) {
        let path = tmp("garbage", case);
        write_all(&path, &records);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        // Insert strictly before the last line so a valid record follows.
        let pos = ((lines.len() - 1) as f64 * pos_frac) as usize;
        lines.insert(pos, "Z not-a-record");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let read = read_journal(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(read.is_err(), "mid-file garbage accepted: {read:?}");
    }

    /// Blank lines are noise, not corruption — even interleaved.
    #[test]
    fn blank_lines_are_ignored(
        records in prop::collection::vec(record(), 1..20),
        pos_frac in 0.0f64..1.0,
        case in any::<u64>(),
    ) {
        let path = tmp("blank", case);
        write_all(&path, &records);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let pos = (lines.len() as f64 * pos_frac) as usize;
        lines.insert(pos, "");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let read = read_journal(&path);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(read.unwrap(), records);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The hand encoder writes what `writeln!` wrote, byte for byte, for
    /// every value a field can hold and any 64 bits of time; and what it
    /// writes reads back as the record written, to the bit.
    #[test]
    fn every_record_is_written_as_formatted_and_reads_back_exactly(
        records in one_of_each(),
        case in any::<u64>(),
    ) {
        let path = tmp("encoder", case);
        write_all(&path, &records);
        let bytes = std::fs::read(&path).unwrap();
        let read = read_journal(&path);
        std::fs::remove_file(&path).ok();

        let formatted: String = records.iter().map(formatted_line).collect();
        prop_assert_eq!(String::from_utf8_lossy(&bytes), formatted);
        // Read back, compared as the oracle writes it: every field, and the
        // time as its bits, so NaN is equal to itself and -0 is not +0.
        let read: String = read.unwrap().iter().map(formatted_line).collect();
        prop_assert_eq!(read, formatted);
    }

    /// The journal is total over what a file can hold: any bytes read as
    /// records or as an error, and any records that read replay — into an
    /// engine and a liveness table, as a master taking the file over does —
    /// or fail to, naming why. Neither panics.
    #[test]
    fn arbitrary_bytes_read_and_replay_to_an_answer(
        bytes in hostile_journal(),
        case in any::<u64>(),
    ) {
        let path = tmp("hostile", case);
        std::fs::write(&path, &bytes).unwrap();
        let read = read_journal(&path);
        std::fs::remove_file(&path).ok();
        if let Ok(records) = read {
            let _ = recover(&records, &two_workflows(), EngineConfig::default().timeout(1.0));
            replay_liveness(&records, 1.0);
        }
    }
}
