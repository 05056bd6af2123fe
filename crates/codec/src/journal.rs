//! The append-only, hash-chained execution journal.
//!
//! A journal is a header followed by records, every field little-endian:
//!
//! ```text
//! ┌──────────────────────────┬────────────────┐
//! │ magic: "setagree-journal"│ version: u32   │   header (20 bytes)
//! └──────────────────────────┴────────────────┘
//! ┌─────────────┬─────────────┬───────────────┐
//! │ len: u32    │ payload     │ hash: 16 B    │   record (20 + len bytes)
//! │ (payload)   │ (len bytes) │ (hi ‖ lo)     │
//! └─────────────┴─────────────┴───────────────┘
//! ```
//!
//! `hash` is [`ChainHash::extend`] of the *previous* record's hash (the
//! [`crate::chain::GENESIS`] link for the first record) over
//! this record's payload — each record commits to everything before it
//! *and* to itself, so corruption of the final record is just as
//! detectable as corruption in the middle.
//!
//! [`JournalWriter`] appends records, flushing each one so a crash loses
//! at most the record being written. [`Cursor`] streams records back
//! without copying them; it stops at the first damage and reports it as
//! a [`JournalTail`] — which record, at which byte offset, truncated or
//! corrupted — while everything before the damage remains usable
//! ([`Cursor::valid_len`] is exactly the prefix worth keeping). Replay
//! of arbitrary bytes never panics and never allocates.

use std::io::{self, Write};

use crate::chain::{ChainHash, GENESIS};
use crate::wire::Writer;

/// The 16-byte file magic opening every journal.
pub const JOURNAL_MAGIC: &[u8; 16] = b"setagree-journal";

/// Header size: magic plus the `u32` version.
pub const HEADER_LEN: usize = JOURNAL_MAGIC.len() + 4;

/// Hard ceiling on one record's payload (16 MiB, matching
/// [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN)): a larger length
/// prefix marks the journal corrupt instead of requesting an allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 24;

/// The fixed overhead around each payload: length prefix plus hash.
const RECORD_OVERHEAD: usize = 4 + 16;

/// Appends hash-chained records to a byte sink.
///
/// Every append writes the complete record in one `write_all` and
/// flushes, so a crashed writer leaves at most one partial record at the
/// tail — exactly the damage [`Cursor`] knows how to step around. The
/// record is assembled in one buffer the writer keeps, so appending
/// allocates only while that buffer grows to the largest record seen.
#[derive(Debug)]
pub struct JournalWriter<W: Write> {
    sink: W,
    head: ChainHash,
    records: usize,
    /// The last record assembled, kept for its capacity.
    record: Vec<u8>,
}

fn check_len(payload_len: usize) -> io::Result<()> {
    if payload_len > MAX_RECORD_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("journal record of {payload_len} bytes exceeds the {MAX_RECORD_LEN}-byte cap"),
        ));
    }
    Ok(())
}

impl<W: Write> JournalWriter<W> {
    /// Starts a fresh journal: writes the header (with `version`) and
    /// positions the chain at genesis.
    ///
    /// # Errors
    ///
    /// I/O failures writing the header.
    pub fn create(mut sink: W, version: u32) -> io::Result<Self> {
        sink.write_all(JOURNAL_MAGIC)?;
        sink.write_all(&version.to_le_bytes())?;
        sink.flush()?;
        Ok(JournalWriter::resume(sink, GENESIS, 0))
    }

    /// Continues an existing journal: `sink` must be positioned at the
    /// end of its valid prefix, whose final link and record count a
    /// [`Cursor`] replay produced.
    pub fn resume(sink: W, head: ChainHash, records: usize) -> Self {
        JournalWriter {
            sink,
            head,
            records,
            record: Vec::new(),
        }
    }

    /// Appends one record and flushes it.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `payload` exceeds [`MAX_RECORD_LEN`];
    /// otherwise I/O failures from the sink. After an error the journal
    /// file may hold a partial record — the shape replay recovers from.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        check_len(payload.len())?;
        self.append_with(|out| out.raw(payload))
    }

    /// Appends one record whose payload is whatever `encode` writes —
    /// straight into the writer's record buffer, between the length
    /// prefix and the hash, so a caller with a value to encode needs no
    /// payload buffer of its own — and flushes it.
    ///
    /// # Errors
    ///
    /// As [`JournalWriter::append`]; an oversized payload is rejected
    /// before anything reaches the sink.
    pub fn append_with(&mut self, encode: impl FnOnce(&mut Writer)) -> io::Result<()> {
        let mut record = std::mem::take(&mut self.record);
        record.clear();
        let mut out = Writer::appending_to(record);
        out.u32(0); // the length, known once the payload is written
        encode(&mut out);
        self.record = out.into_vec();
        let record = &mut self.record;
        let payload_len = record.len() - 4;
        check_len(payload_len)?;
        record[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let next = self.head.extend(&record[4..]);
        record.extend_from_slice(&next.to_le_bytes());
        self.sink.write_all(record)?;
        self.sink.flush()?;
        self.head = next;
        self.records += 1;
        Ok(())
    }

    /// The chain link after the last appended record.
    pub fn head(&self) -> ChainHash {
        self.head
    }

    /// How many records this writer has accounted for (appends plus the
    /// replayed prefix it resumed from).
    pub fn records(&self) -> usize {
        self.records
    }

    /// Unwraps the sink (e.g. to inspect an in-memory journal).
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// How a journal replay ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalTail {
    /// The final record ended exactly at the end of input: nothing lost.
    Clean,
    /// The input ended mid-record (a crashed writer's partial append, or
    /// a truncated file).
    Truncated {
        /// The index of the record the damage falls in (== the number of
        /// records recovered before it).
        record: usize,
        /// The byte offset where the damaged record starts.
        offset: usize,
    },
    /// A record (or the header) failed verification: bad magic, an
    /// oversized length prefix, or a hash-chain mismatch.
    Corrupted {
        /// The index of the record the damage falls in (== the number of
        /// records recovered before it; 0 for header damage).
        record: usize,
        /// The byte offset where the damaged region starts.
        offset: usize,
        /// What failed.
        reason: &'static str,
    },
}

impl JournalTail {
    /// Whether the replay consumed the whole input.
    pub fn is_clean(self) -> bool {
        self == JournalTail::Clean
    }
}

impl std::fmt::Display for JournalTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalTail::Clean => write!(f, "clean"),
            JournalTail::Truncated { record, offset } => {
                write!(f, "truncated at record {record} (byte {offset})")
            }
            JournalTail::Corrupted {
                record,
                offset,
                reason,
            } => write!(f, "corrupted at record {record} (byte {offset}): {reason}"),
        }
    }
}

/// A streaming, zero-copy reader over a journal's bytes.
///
/// Iterate it to receive each record's payload in order; iteration ends
/// at the first damage (or the clean end), after which [`Cursor::tail`]
/// says how the journal ended, [`Cursor::head`]/[`Cursor::records`]
/// describe the verified prefix, and [`Cursor::valid_len`] is the byte
/// length of that prefix (header included) — what a resuming writer
/// truncates the file to.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    head: ChainHash,
    records: usize,
    valid_len: usize,
    version: Option<u32>,
    tail: Option<JournalTail>,
}

impl<'a> Cursor<'a> {
    /// A cursor over `bytes`, vetting the header immediately: a short or
    /// alien header yields zero records with the damage reported at
    /// record 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut cursor = Cursor {
            bytes,
            pos: 0,
            head: GENESIS,
            records: 0,
            valid_len: 0,
            version: None,
            tail: None,
        };
        if bytes.len() < HEADER_LEN {
            cursor.tail = Some(JournalTail::Truncated {
                record: 0,
                offset: 0,
            });
        } else if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            cursor.tail = Some(JournalTail::Corrupted {
                record: 0,
                offset: 0,
                reason: "bad magic",
            });
        } else {
            cursor.version = Some(u32::from_le_bytes(
                bytes[JOURNAL_MAGIC.len()..HEADER_LEN]
                    .try_into()
                    .expect("four bytes"),
            ));
            cursor.pos = HEADER_LEN;
            cursor.valid_len = HEADER_LEN;
        }
        cursor
    }

    /// The header's version field (`None` when the header itself was
    /// damaged). The cursor does not interpret it — a caller compares it
    /// against the version *it* writes and treats a mismatch as a cold
    /// (re-creatable) journal.
    pub fn version(&self) -> Option<u32> {
        self.version
    }

    /// The chain link after the last verified record.
    pub fn head(&self) -> ChainHash {
        self.head
    }

    /// How many records have been verified so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The byte length of the verified prefix (header included): the
    /// length to truncate a damaged journal file to before resuming.
    pub fn valid_len(&self) -> usize {
        self.valid_len
    }

    /// How the replay ended. Before iteration finishes this reports the
    /// damage found so far, if any; after `next()` has returned `None`
    /// it is always `Some`.
    pub fn tail(&self) -> Option<JournalTail> {
        self.tail
    }

    /// Drives the cursor to the end and reports how the journal ended.
    pub fn finish(mut self) -> JournalTail {
        for _ in self.by_ref() {}
        self.tail.expect("exhausted cursor has a tail")
    }
}

impl<'a> Iterator for Cursor<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.tail.is_some() {
            return None;
        }
        let start = self.pos;
        if start == self.bytes.len() {
            self.tail = Some(JournalTail::Clean);
            return None;
        }
        let truncated = JournalTail::Truncated {
            record: self.records,
            offset: start,
        };
        if self.bytes.len() - start < 4 {
            self.tail = Some(truncated);
            return None;
        }
        let len = u32::from_le_bytes(self.bytes[start..start + 4].try_into().expect("four bytes"));
        if len > MAX_RECORD_LEN {
            self.tail = Some(JournalTail::Corrupted {
                record: self.records,
                offset: start,
                reason: "oversized length prefix",
            });
            return None;
        }
        let total = RECORD_OVERHEAD + len as usize;
        if self.bytes.len() - start < total {
            self.tail = Some(truncated);
            return None;
        }
        let payload = &self.bytes[start + 4..start + 4 + len as usize];
        let stored = ChainHash::from_le_bytes(
            self.bytes[start + 4 + len as usize..start + total]
                .try_into()
                .expect("sixteen bytes"),
        );
        let expected = self.head.extend(payload);
        if stored != expected {
            self.tail = Some(JournalTail::Corrupted {
                record: self.records,
                offset: start,
                reason: "hash chain mismatch",
            });
            return None;
        }
        self.head = expected;
        self.records += 1;
        self.pos = start + total;
        self.valid_len = self.pos;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(payloads: &[&[u8]]) -> Vec<u8> {
        let mut writer = JournalWriter::create(Vec::new(), 1).expect("vec sink");
        for p in payloads {
            writer.append(p).expect("vec sink");
        }
        writer.into_inner()
    }

    #[test]
    fn replay_returns_the_records_in_order() {
        let bytes = journal(&[b"alpha", b"", b"gamma"]);
        let mut cursor = Cursor::new(&bytes);
        assert_eq!(cursor.version(), Some(1));
        let records: Vec<_> = cursor.by_ref().collect();
        assert_eq!(records, vec![b"alpha" as &[u8], b"", b"gamma"]);
        assert_eq!(cursor.tail(), Some(JournalTail::Clean));
        assert_eq!(cursor.records(), 3);
        assert_eq!(cursor.valid_len(), bytes.len());
    }

    #[test]
    fn an_empty_journal_is_clean() {
        let bytes = journal(&[]);
        assert_eq!(bytes.len(), HEADER_LEN);
        let mut cursor = Cursor::new(&bytes);
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.tail(), Some(JournalTail::Clean));
    }

    #[test]
    fn resume_continues_the_chain_identically() {
        let all_at_once = journal(&[b"one", b"two", b"three"]);
        let mut first = JournalWriter::create(Vec::new(), 1).unwrap();
        first.append(b"one").unwrap();
        first.append(b"two").unwrap();
        let (head, records) = (first.head(), first.records());
        let mut bytes = first.into_inner();
        let mut resumed = JournalWriter::resume(&mut bytes, head, records);
        resumed.append(b"three").unwrap();
        assert_eq!(resumed.records(), 3);
        assert_eq!(bytes, all_at_once, "resume is byte-for-byte seamless");
    }

    #[test]
    fn a_partial_tail_is_reported_and_the_prefix_survives() {
        let whole = journal(&[b"keep-me", b"partial"]);
        let one = journal(&[b"keep-me"]);
        for cut in one.len() + 1..whole.len() {
            let mut cursor = Cursor::new(&whole[..cut]);
            let records: Vec<_> = cursor.by_ref().collect();
            assert_eq!(records, vec![b"keep-me" as &[u8]], "cut at {cut}");
            assert_eq!(
                cursor.tail(),
                Some(JournalTail::Truncated {
                    record: 1,
                    offset: one.len(),
                }),
            );
            assert_eq!(cursor.valid_len(), one.len());
        }
    }

    #[test]
    fn header_damage_yields_no_records() {
        for bytes in [&b""[..], &b"seta"[..], &b"not-a-journal-at-all!"[..]] {
            let mut cursor = Cursor::new(bytes);
            assert_eq!(cursor.next(), None);
            let tail = cursor.tail().expect("ended");
            assert!(!tail.is_clean(), "{tail}");
            assert_eq!(cursor.records(), 0);
        }
    }

    #[test]
    fn oversized_length_prefixes_are_corruption_not_allocation() {
        let mut bytes = journal(&[]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        let tail = Cursor::new(&bytes).finish();
        assert_eq!(
            tail,
            JournalTail::Corrupted {
                record: 0,
                offset: HEADER_LEN,
                reason: "oversized length prefix",
            }
        );
    }

    #[test]
    fn oversized_appends_are_rejected_up_front() {
        let mut writer = JournalWriter::create(Vec::new(), 1).unwrap();
        let oversized = vec![0u8; MAX_RECORD_LEN as usize + 1];
        let err = writer.append(&oversized).expect_err("over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = writer
            .append_with(|out| out.raw(&oversized))
            .expect_err("over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(writer.records(), 0);
        assert_eq!(writer.into_inner().len(), HEADER_LEN, "nothing was written");
    }

    #[test]
    fn append_with_writes_the_record_append_writes() {
        let payloads: [&[u8]; 4] = [b"alpha", b"", b"a third, longer record", b"d"];
        let mut writer = JournalWriter::create(Vec::new(), 1).unwrap();
        for p in payloads {
            writer.append_with(|out| out.raw(p)).unwrap();
        }
        assert_eq!(writer.records(), 4);
        assert_eq!(writer.into_inner(), journal(&payloads));
    }
}
