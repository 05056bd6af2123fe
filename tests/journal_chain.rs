//! Chain-integrity battery for the hash-chained execution journal:
//!
//! * **any single-byte flip is detected** — replay stops at exactly the
//!   damaged record, yields exactly the intact prefix, and reports the
//!   damage (flips in the header's version field are surfaced through
//!   `Cursor::version`, which the cache layer treats as a cold file);
//!   payloads run to 200 bytes, so the flips land in every word of a
//!   many-word record and in partial last words of every length;
//! * **the durable format is pinned** — one link and one whole journal
//!   equal committed bytes, so an accidental change of the chain hash
//!   fails here instead of turning every journal on disk corrupt;
//! * **truncation at any offset yields exactly the valid prefix** —
//!   with a clean tail precisely when the cut lands on a record
//!   boundary (a crash *between* appends loses nothing and looks like a
//!   shorter, intact journal — the crash-grained durability contract);
//! * **crash-resume end to end** — a suite run whose journal loses its
//!   final record mid-write resumes by re-executing only the missing
//!   cell, and the merged report is byte-identical to an uninterrupted
//!   run's — at one worker, at the machine's default, and at two and
//!   three, where the resumed run serves the cells ahead of the hole
//!   from the consuming thread and starts its pool at the hole.

use std::sync::Arc;

use proptest::prelude::*;

use setagree::codec::journal::{Cursor, JournalTail, JournalWriter, HEADER_LEN};
use setagree::conditions::MaxCondition;
use setagree::core::{ConditionBasedConfig, Executor, ProtocolSpec, ScenarioSuite, SuiteCache};
use setagree::sync::FailurePattern;
use setagree::types::InputVector;

/// Length prefix (4) plus chain hash (16) around every payload.
const RECORD_OVERHEAD: usize = 20;

const VERSION: u32 = 7;

fn journal(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut writer = JournalWriter::create(Vec::new(), VERSION).expect("vec sink");
    for p in payloads {
        writer.append(p).expect("vec sink");
    }
    writer.into_inner()
}

/// The byte offset where each record *ends* (exclusive), header first.
fn boundaries(payloads: &[Vec<u8>]) -> Vec<usize> {
    let mut ends = vec![HEADER_LEN];
    for p in payloads {
        ends.push(ends.last().unwrap() + RECORD_OVERHEAD + p.len());
    }
    ends
}

fn payload_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=200), 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flip any single byte anywhere in a journal: the replay recovers
    /// exactly the records before the damage and reports the rest.
    #[test]
    fn any_single_byte_flip_is_detected_at_the_right_record(
        payloads in payload_strategy(),
        position in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let good = journal(&payloads);
        let at = position % good.len();
        let mut bad = good.clone();
        bad[at] ^= mask;

        let mut cursor = Cursor::new(&bad);
        let replayed: Vec<Vec<u8>> = cursor.by_ref().map(<[u8]>::to_vec).collect();
        let tail = cursor.tail().expect("ended");

        if at < HEADER_LEN - 4 {
            // Magic damage: corruption at record 0, nothing replayed.
            prop_assert_eq!(
                tail,
                JournalTail::Corrupted { record: 0, offset: 0, reason: "bad magic" }
            );
            prop_assert!(replayed.is_empty());
        } else if at < HEADER_LEN {
            // Version damage: the chain itself still verifies, but the
            // version no longer matches what the writer wrote — the
            // cache layer reloads such a file as cold, serving nothing.
            prop_assert_ne!(cursor.version(), Some(VERSION));
        } else {
            // Body damage: the first record whose bytes include `at`.
            let ends = boundaries(&payloads);
            let damaged = ends.iter().skip(1).position(|&end| at < end).expect("inside");
            prop_assert_eq!(replayed.len(), damaged, "exactly the intact prefix");
            prop_assert_eq!(&replayed, &payloads[..damaged]);
            prop_assert!(!tail.is_clean(), "damage reported, not served");
            match tail {
                JournalTail::Corrupted { record, offset, .. }
                | JournalTail::Truncated { record, offset } => {
                    prop_assert_eq!(record, damaged);
                    prop_assert_eq!(offset, ends[damaged]);
                }
                JournalTail::Clean => unreachable!("checked above"),
            }
            prop_assert_eq!(cursor.valid_len(), ends[damaged]);
        }
    }

    /// Truncate a journal at any offset: the replay yields exactly the
    /// records that fit, with a clean tail precisely when the cut lands
    /// on a record boundary.
    #[test]
    fn truncation_at_any_offset_yields_exactly_the_valid_prefix(
        payloads in payload_strategy(),
        position in any::<usize>(),
    ) {
        let whole = journal(&payloads);
        let cut = position % (whole.len() + 1);
        let mut cursor = Cursor::new(&whole[..cut]);
        let replayed: Vec<Vec<u8>> = cursor.by_ref().map(<[u8]>::to_vec).collect();
        let tail = cursor.tail().expect("ended");

        if cut < HEADER_LEN {
            prop_assert_eq!(tail, JournalTail::Truncated { record: 0, offset: 0 });
            prop_assert!(replayed.is_empty());
        } else {
            let ends = boundaries(&payloads);
            let complete = ends.iter().skip(1).filter(|&&end| end <= cut).count();
            prop_assert_eq!(replayed.len(), complete);
            prop_assert_eq!(&replayed, &payloads[..complete]);
            prop_assert_eq!(cursor.valid_len(), ends[complete]);
            let on_boundary = ends[complete] == cut;
            prop_assert_eq!(
                tail.is_clean(),
                on_boundary,
                "clean exactly on record boundaries; tail = {:?}, cut = {}",
                tail,
                cut
            );
            if !on_boundary {
                prop_assert_eq!(
                    tail,
                    JournalTail::Truncated { record: complete, offset: ends[complete] }
                );
            }
        }
    }
}

/// Payloads that differ only in trailing zero bytes, or in where one
/// record ends and the next begins, are different journals.
#[test]
fn zero_padding_and_record_boundaries_are_part_of_the_chain() {
    let head = |payloads: &[&[u8]]| {
        let owned: Vec<Vec<u8>> = payloads.iter().map(|p| p.to_vec()).collect();
        let bytes = journal(&owned);
        let mut cursor = Cursor::new(&bytes);
        assert_eq!(cursor.by_ref().count(), payloads.len());
        cursor.head()
    };
    for tail in 0..=8 {
        let padded = vec![0u8; tail];
        let longer = vec![0u8; tail + 1];
        assert_ne!(
            head(&[&padded]),
            head(&[&longer]),
            "{tail} vs {} zeros",
            tail + 1
        );
    }
    assert_ne!(head(&[b"abcdefgh", b"ij"]), head(&[b"abcdefghij"]));
    assert_ne!(head(&[b"abcdefgh", b"ij"]), head(&[b"abcdefg", b"hij"]));
}

/// The chain hash is a file format: these bytes — header, length,
/// payload, and `GENESIS.extend(b"setagree")` as `hi ‖ lo` — are what
/// every journal already on disk was written with.
#[test]
fn the_journal_bytes_are_pinned() {
    let bytes = journal(&[b"setagree".to_vec()]);
    let mut expected = b"setagree-journal".to_vec();
    expected.extend_from_slice(&VERSION.to_le_bytes());
    expected.extend_from_slice(&8u32.to_le_bytes());
    expected.extend_from_slice(b"setagree");
    expected.extend_from_slice(&0x5A57_6CD2_8EDA_2580u64.to_le_bytes());
    expected.extend_from_slice(&0x0B47_DDFC_C87D_B477u64.to_le_bytes());
    assert_eq!(bytes, expected);
}

const N: usize = 6;

/// A mixed synchronous/asynchronous grid, the same shape every call.
fn grid() -> ScenarioSuite<u32, MaxCondition> {
    let config = ConditionBasedConfig::builder(N, 3, 2)
        .condition_degree(2)
        .ell(1)
        .build()
        .expect("valid");
    ScenarioSuite::new()
        .spec(ProtocolSpec::condition_based(
            config,
            MaxCondition::new(config.legality()),
        ))
        .spec(ProtocolSpec::flood_set(N, 3, 2))
        .input(InputVector::new(vec![5u32, 5, 1, 2, 5, 5]))
        .input(InputVector::new(vec![9u32, 9, 9, 1, 2, 3]))
        .pattern(FailurePattern::none(N))
        .pattern(FailurePattern::staircase(N, 3, 2))
        .executor(Executor::Simulator)
        .executor(Executor::AsyncSharedMemory { seed: 11 })
}

/// The acceptance shape end to end: run a suite journaled, kill the
/// writer mid-record (simulated by truncating the file inside its last
/// record), reopen, and observe the resumed run execute *only* the
/// missing cell and merge into a report byte-identical to an
/// uninterrupted run's. `threads` is the worker count of every run
/// (`None`: the machine's default).
fn crash_resume(threads: Option<usize>) {
    let grid = || match threads {
        Some(threads) => grid().threads(threads),
        None => grid(),
    };
    let path = std::env::temp_dir().join(format!("setagree-journal-crash-resume-{threads:?}"));
    let _ = std::fs::remove_file(&path);

    // The uninterrupted baseline.
    let baseline = grid().cache(&Arc::new(SuiteCache::new())).run();
    let cells = baseline.len();
    assert_eq!(cells, 2 * 2 * 2 * 2);

    // The journaled cold run: every miss lands in the file as it
    // completes.
    let cache = Arc::new(SuiteCache::new());
    let stats = cache.resume_journal(&path).expect("fresh journal");
    assert_eq!((stats.recovered, stats.tail), (0, JournalTail::Clean));
    let cold = grid().cache(&cache).run();
    assert_eq!(cold.cache_misses() as usize, cells);
    assert_eq!(cache.journal_error(), None);
    drop(cache);

    // The crash: the writer dies mid-append, leaving a torn final
    // record (every record carries ≥ 20 bytes of framing, so cutting 9
    // always lands inside the last one).
    let bytes = std::fs::read(&path).expect("journal written");
    std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("simulate torn write");

    // The resume: the verified prefix is replayed, the torn record is
    // reported and re-executed — nothing else runs.
    let resumed_cache = Arc::new(SuiteCache::new());
    let stats = resumed_cache.resume_journal(&path).expect("resumable");
    assert_eq!(stats.recovered, cells - 1, "all but the torn record");
    assert!(
        matches!(stats.tail, JournalTail::Truncated { record, .. } if record == cells - 1),
        "torn tail reported at the right record: {:?}",
        stats.tail
    );
    let resumed = grid().cache(&resumed_cache).run();
    assert_eq!(resumed.cache_misses(), 1, "only the lost cell re-executes");
    assert_eq!(resumed.cache_hits() as usize, cells - 1);
    assert_eq!(
        (resumed_cache.hits(), resumed_cache.misses()),
        (cells as u64 - 1, 1),
        "the cache counted what the run counted"
    );
    assert_eq!(
        format!("{:?}", resumed.cases()),
        format!("{:?}", baseline.cases()),
        "merged report byte-identical to the uninterrupted run"
    );
    drop(resumed_cache);

    // The re-executed cell was re-journaled: a third open replays the
    // complete set cleanly.
    let whole = Arc::new(SuiteCache::<u32>::new());
    let stats = whole.resume_journal(&path).expect("healed journal");
    assert_eq!((stats.recovered, stats.tail), (cells, JournalTail::Clean));
    let warm = grid().cache(&whole).run();
    assert_eq!(warm.cache_misses(), 0);
    assert_eq!(warm.cache_hits() as usize, cells);
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn crash_resume_executes_only_missing_cells_and_merges_identically() {
    crash_resume(None);
}

#[test]
fn crash_resume_is_the_same_at_one_two_and_three_workers() {
    for threads in 1..=3 {
        crash_resume(Some(threads));
    }
}
