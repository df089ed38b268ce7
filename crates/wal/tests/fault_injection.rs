//! Fault-injection property tests: a stream log whose bytes are truncated
//! or bit-flipped at an arbitrary offset must
//!
//! 1. never panic on recovery,
//! 2. keep the longest valid prefix of batches (verbatim, in order), and
//! 3. report the dropped suffix in [`WalStats::dropped_bytes`],
//!
//! and the repaired log must accept appends and replay cleanly afterwards
//! — the same guarantees `journals_pvldb` crash-point test batteries
//! demand of snapshot/recovery code.

//!
//! The second half of the file is the **runtime fault matrix**: live
//! appends through the [`FaultyIo`] seam under every `SyncPolicy` ×
//! fault-point × fault-kind combination, asserting the retry/give-up
//! counters and that whatever the log claims to have accepted replays
//! verbatim afterwards.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datacell_faults::{FaultPlan, FaultPoint, Faults};
use datacell_wal::{io_for, RetryPolicy, SharedStats, StreamBatch, StreamLog, SyncPolicy};
use proptest::prelude::*;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpdir() -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "datacell-wal-prop-{}-{n}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// All segment files of a log dir, in replay (sequence) order.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    files.sort();
    files
}

fn total_bytes(files: &[PathBuf]) -> u64 {
    files.iter().map(|f| fs::metadata(f).unwrap().len()).sum()
}

/// Resolve a global offset over the concatenated segment files.
fn locate(files: &[PathBuf], mut offset: u64) -> (usize, u64) {
    for (i, f) in files.iter().enumerate() {
        let len = fs::metadata(f).unwrap().len();
        if offset < len {
            return (i, offset);
        }
        offset -= len;
    }
    (files.len() - 1, 0)
}

#[derive(Clone, Debug)]
enum Fault {
    /// Cut the concatenated log at this fraction of its length (all later
    /// bytes and files vanish — a torn multi-segment write).
    Truncate(u16),
    /// XOR one bit at this fraction of the concatenated length.
    BitFlip(u16, u8),
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0u16..1000).prop_map(Fault::Truncate),
        ((0u16..1000), (0u8..8)).prop_map(|(o, b)| Fault::BitFlip(o, b)),
    ]
}

fn write_log(dir: &Path, batches: &[Vec<u8>], segment_bytes: u64) {
    let stats = Arc::new(SharedStats::default());
    let (mut log, replayed) =
        StreamLog::open(dir, SyncPolicy::Never, segment_bytes, stats).unwrap();
    assert!(replayed.is_empty());
    let mut oid = 0u64;
    for payload in batches {
        let rows = payload.len().max(1) as u32;
        log.append_with(oid, rows, |buf| buf.extend_from_slice(payload)).unwrap();
        oid += rows as u64;
    }
}

fn reopen(dir: &Path) -> (StreamLog, Vec<StreamBatch>, Arc<SharedStats>) {
    let stats = Arc::new(SharedStats::default());
    let (log, replayed) =
        StreamLog::open(dir, SyncPolicy::Never, 1 << 20, stats.clone()).unwrap();
    (log, replayed, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_stream_log_recovers_longest_valid_prefix(
        batches in prop::collection::vec(
            prop::collection::vec(0u16..256, 0..24)
                .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
            1..12,
        ),
        segment_kib in 0u64..2,
        fault in arb_fault(),
    ) {
        let dir = tmpdir();
        // segment_bytes 1 forces a rotation per append; larger keeps one file.
        write_log(&dir, &batches, if segment_kib == 0 { 1 } else { 1024 });

        // Undamaged baseline replay.
        let (_, baseline, _) = reopen(&dir);
        prop_assert_eq!(baseline.len(), batches.len());

        // Inject the fault at a byte offset over the concatenated files.
        let files = segment_files(&dir);
        let total = total_bytes(&files);
        prop_assert!(total > 0);
        let is_flip = matches!(fault, Fault::BitFlip(..));
        let lost_suffix = match fault {
            Fault::Truncate(frac) => {
                let cut = total * frac as u64 / 1000;
                let (i, local) = locate(&files, cut);
                let mut bytes = fs::read(&files[i]).unwrap();
                bytes.truncate(local as usize);
                fs::write(&files[i], &bytes).unwrap();
                for f in &files[i + 1..] {
                    fs::remove_file(f).unwrap();
                }
                cut < total
            }
            Fault::BitFlip(frac, bit) => {
                let off = (total - 1) * frac as u64 / 1000;
                let (i, local) = locate(&files, off);
                let mut bytes = fs::read(&files[i]).unwrap();
                bytes[local as usize] ^= 1 << bit;
                fs::write(&files[i], &bytes).unwrap();
                true
            }
        };

        // 1. Recovery must not panic (any panic fails the test harness).
        let (_, replayed, stats) = reopen(&dir);

        // 2. Longest valid prefix, verbatim.
        prop_assert!(replayed.len() <= baseline.len());
        for (got, want) in replayed.iter().zip(&baseline) {
            prop_assert_eq!(got, want);
        }

        // 3. Anything lost is reported: a bit flip always leaves damaged
        // bytes behind; a truncation may cut cleanly on a frame boundary
        // (then the suffix is simply gone, with nothing left to drop).
        if lost_suffix {
            prop_assert!(replayed.len() < baseline.len());
            if is_flip {
                prop_assert!(stats.snapshot().dropped_bytes > 0);
            }
        } else {
            prop_assert_eq!(replayed.len(), baseline.len());
        }

        // 4. The repaired log accepts appends and replays them.
        let (mut log, replayed2, _) = reopen(&dir);
        prop_assert_eq!(replayed2.len(), replayed.len());
        let end = log.end_oid();
        log.append_with(end, 3, |buf| buf.extend_from_slice(b"post-repair")).unwrap();
        drop(log);
        let (_, replayed3, stats3) = reopen(&dir);
        prop_assert_eq!(replayed3.len(), replayed.len() + 1);
        prop_assert_eq!(replayed3.last().unwrap().first_oid, end);
        prop_assert_eq!(stats3.snapshot().dropped_bytes, 0);

        fs::remove_dir_all(&dir).ok();
    }
}

/// The runtime fault matrix: every sync policy × fault point × fault
/// kind, one seeded `nth=2` rule each, six live appends through the
/// fault seam.
///
/// Contract being pinned down:
///
/// * retryable kinds (`eio`, `short`) are absorbed — the append succeeds,
///   `io_retries` counts the absorption, nothing gives up;
/// * `stall` only delays — no error, no retry, no give-up;
/// * `enospc` is non-retryable — the faulted operation errors
///   immediately, `io_gave_up` counts it (the trigger for the engine's
///   degraded-durability escalation), and the log keeps serving;
/// * a faulted **fsync** never loses the already-written append;
/// * whatever the run ends up accepting replays verbatim through a
///   clean reopen (valid-prefix recovery).
#[test]
fn runtime_fault_matrix_counts_retries_and_give_ups() {
    let policies = [SyncPolicy::Always, SyncPolicy::EveryN(2), SyncPolicy::Never];
    let points = [("wal_append", FaultPoint::WalAppend), ("wal_fsync", FaultPoint::WalFsync)];
    let kinds = ["eio", "short", "stall", "enospc"];

    for sync in policies {
        for (point_token, point) in points {
            for kind in kinds {
                let label = format!("{sync:?}/{point_token}/{kind}");
                let dir = tmpdir();
                let spec = format!("seed=42;{point_token}:nth=2:{kind}");
                let faults = Faults::enabled(FaultPlan::parse(&spec).expect("plan"));
                let stats = Arc::new(SharedStats::default());
                let (mut log, replayed) = StreamLog::open_with_io(
                    &dir,
                    sync,
                    1 << 20,
                    stats.clone(),
                    io_for(&faults),
                    RetryPolicy::default(),
                )
                .expect("open");
                assert!(replayed.is_empty(), "{label}");

                // The fsync point only sees traffic when the policy syncs.
                let fsync_active =
                    !matches!((point, sync), (FaultPoint::WalFsync, SyncPolicy::Never));
                // `stall` never errors; `short` is a no-op on fsync (there
                // is no payload to tear).
                let errors_expected = kind == "enospc" && fsync_active;
                let retries_expected = fsync_active
                    && matches!((kind, point), ("eio", _) | ("short", FaultPoint::WalAppend));

                let mut oid = 0u64;
                let mut errored = 0u32;
                for b in 0u8..6 {
                    let payload = vec![b; 8];
                    match log.append_with(oid, 1, |buf| buf.extend_from_slice(&payload)) {
                        Ok(()) => oid += 1,
                        Err(e) => {
                            errored += 1;
                            assert!(errors_expected, "{label}: unexpected {e}");
                            if point == FaultPoint::WalAppend {
                                // Nothing was written; the caller retries
                                // the same batch on a now-clean schedule.
                                log.append_with(oid, 1, |buf| buf.extend_from_slice(&payload))
                                    .unwrap_or_else(|e| panic!("{label}: re-append {e}"));
                            }
                            // A faulted fsync leaves the append durable in
                            // the file; do not re-append (that would
                            // duplicate the batch).
                            oid += 1;
                        }
                    }
                }
                assert_eq!(errored > 0, errors_expected, "{label}");

                let snap = stats.snapshot();
                assert_eq!(snap.io_gave_up > 0, errors_expected, "{label}: {snap:?}");
                assert_eq!(snap.io_retries > 0, retries_expected, "{label}: {snap:?}");
                let expected_fires = u64::from(fsync_active);
                assert_eq!(faults.injected(point), expected_fires, "{label}");

                // Valid-prefix recovery: all six batches replay verbatim.
                drop(log);
                let (_, recovered, clean_stats) = reopen(&dir);
                assert_eq!(recovered.len(), 6, "{label}");
                for (i, batch) in recovered.iter().enumerate() {
                    assert_eq!(batch.first_oid, i as u64, "{label}");
                    assert_eq!(batch.payload, vec![i as u8; 8], "{label}");
                }
                assert_eq!(clean_stats.snapshot().dropped_bytes, 0, "{label}");
                fs::remove_dir_all(&dir).ok();
            }
        }
    }
}
