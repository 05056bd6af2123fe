//! Result caching for [`ScenarioSuite`](crate::ScenarioSuite) runs.
//!
//! Every grid cell of a suite is a pure function of its coordinates:
//! the spec (protocol, parameters, oracle), the input vector, the
//! adversary, the executor (seed included — the asynchronous executors
//! carry their adversary seed, so an async cell is exactly as cacheable
//! as a synchronous one) and the suite's round-limit/step-budget
//! overrides. A [`SuiteCache`] memoizes cells under a stable 128-bit
//! hash of those coordinates: a rerun of the same grid — or of a larger
//! grid sharing cells with an earlier one — serves the warm cells
//! without re-executing any protocol.
//!
//! ```
//! use std::sync::Arc;
//! use setagree_core::{ProtocolSpec, ScenarioSuite, SuiteCache};
//!
//! let cache = Arc::new(SuiteCache::new());
//! let suite = ScenarioSuite::new()
//!     .spec(ProtocolSpec::flood_set(4, 2, 1))
//!     .input(vec![3u32, 9, 1, 4])
//!     .cache(&cache);
//! let cold = suite.run();
//! assert_eq!((cold.cache_hits(), cold.cache_misses()), (0, 1));
//! let warm = suite.run(); // zero executions: every cell served warm
//! assert_eq!((warm.cache_hits(), warm.cache_misses()), (1, 0));
//! assert_eq!(cold.cases(), warm.cases());
//! ```
//!
//! # Persistence
//!
//! A cache can be [saved to](SuiteCache::save) and
//! [loaded from](SuiteCache::load_or_empty) a file, so warm cells
//! survive across processes (the CI smoke test runs `table_async` twice
//! against one cache file and diffs the outputs). The file is a
//! hash-chained binary journal — the `setagree-codec`
//! [`journal`](setagree_codec::journal) format, one
//! [`crate::codec`] record per cell — holding *complete* [`Report`]s:
//! both execution shapes, all outcome and error variants, round-tripped
//! byte-identically.
//!
//! # Journaling
//!
//! Beyond whole-file save/load, a cache can be **journal-backed**
//! ([`SuiteCache::resume_journal`]): every insert is appended to the
//! journal file and flushed as it happens, so a crashed sweep loses at
//! most the record being written. Reopening the journal replays the
//! verified prefix back into the cache — the chain detects a torn or
//! corrupted tail and reports it ([`JournalTail`]) instead of serving
//! damaged cells — and the resumed run re-executes only the missing
//! cells.
//!
//! # Key stability
//!
//! Keys come out of `setagree-codec`'s two-lane [`Mixer`] — the journal
//! chain's hash — driven by the components' `Hash` impls: each
//! component is traversed **once**, every integer it writes is one word
//! step feeding both 64-bit lanes (a `usize` is mixed as a `u64`, so its
//! width is not part of the key), a byte string is its length and then
//! its words.
//! Keys are therefore deterministic across runs of the same build — the
//! contract a persisted cache needs. They are *not* guaranteed across
//! compiler versions (what a derived `Hash` writes is the compiler's
//! business); the file header's format version guards misreads, and a
//! stale file simply reloads as cold cells, never as wrong results
//! served under a colliding key (the 128-bit key makes accidental
//! collision negligible for experiment grids). Version 3 is this
//! derivation; a version-2 file (byte-wise FNV-1a keys and chain) is
//! stale.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::{self, Seek};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use setagree_codec::chain::{ChainHash, Mixer};
use setagree_codec::journal::{Cursor, JournalTail, JournalWriter, HEADER_LEN};
use setagree_codec::{DecodeError, Reader, Writer};
use setagree_types::ProposalValue;

use crate::codec;
use crate::experiment::ExperimentError;
use crate::report::Report;

/// Bumped whenever the key derivation or the file codec changes shape;
/// mixed into every key and written into the file header, so stale
/// files read as cold caches instead of decoding garbage. Version 3 is
/// the binary journal format under the word-at-a-time chain hash and
/// key derivation (version 2 was the same record layout under byte-wise
/// FNV-1a; version 1 a text line codec carrying summary integers only).
const FORMAT_VERSION: u64 = 3;

/// A [`Hasher`] over the journal chain's [`Mixer`]: deterministic across
/// runs, unlike `std`'s randomized `DefaultHasher` — the property a
/// persisted cache key needs — and 128 bits wide, both lanes fed by one
/// traversal of the value ([`StableHasher::pair`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct StableHasher {
    mixer: Mixer,
}

impl StableHasher {
    /// Both lanes of everything written so far.
    fn pair(&self) -> (u64, u64) {
        let ChainHash { hi, lo } = self.mixer.finish();
        (hi, lo)
    }
}

impl Hasher for StableHasher {
    /// The `lo` lane; keys take both through [`StableHasher::pair`].
    fn finish(&self) -> u64 {
        self.pair().1
    }

    fn write(&mut self, bytes: &[u8]) {
        self.mixer.bytes(bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.mixer.word(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mixer.word(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mixer.word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.mixer.word(v as u64);
    }
}

/// Hashes one value — one traversal — into the two independent 64-bit
/// halves cache keys are combined from.
pub(crate) fn stable_pair<T: Hash + ?Sized>(value: &T) -> (u64, u64) {
    let mut hasher = StableHasher::default();
    value.hash(&mut hasher);
    hasher.pair()
}

/// A 128-bit cache key: the stable hash of one suite cell's coordinates
/// (spec, input, pattern, executor with its seed, and the suite's
/// round-limit/step-budget overrides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// Folds component hash pairs (in a fixed order) into one key.
    pub(crate) fn combine(components: &[(u64, u64)]) -> CacheKey {
        let mut mixer = Mixer::new();
        mixer.word(FORMAT_VERSION);
        for &(hi, lo) in components {
            mixer.word(hi);
            mixer.word(lo);
        }
        let ChainHash { hi, lo } = mixer.finish();
        CacheKey { hi, lo }
    }

    /// The key's two halves, for the wire codec.
    pub(crate) fn parts(&self) -> (u64, u64) {
        (self.hi, self.lo)
    }

    /// Rebuilds a key from its wire halves.
    pub(crate) fn from_parts(hi: u64, lo: u64) -> CacheKey {
        CacheKey { hi, lo }
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// What a cache stores per cell: the cell's full positioned result —
/// a successful [`Report`] or the validation/engine error the cell
/// produced (errors are deterministic too, so a warm rerun reproduces
/// them without re-validating).
pub type CachedResult<V> = Result<Report<V>, ExperimentError>;

/// The outcome of [`SuiteCache::resume_journal`]: how many cells the
/// journal's verified prefix restored, and how the journal ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalReplayStats {
    /// Cells replayed into the cache.
    pub recovered: usize,
    /// How the replay ended — [`JournalTail::Clean`] for an intact
    /// journal, otherwise where the torn/corrupted tail began (that tail
    /// was discarded and will be re-executed, not served).
    pub tail: JournalTail,
}

/// The live append side of a journal-backed cache.
struct JournalSink<V: Ord> {
    writer: JournalWriter<fs::File>,
    /// Captured under the `CacheableValue` bound when the journal is
    /// attached, so `insert` (bounded only on `ProposalValue`) can
    /// encode records.
    encode: fn(&CacheKey, &CachedResult<V>, &mut Writer),
    /// The first append failure, sticky: after an I/O error the journal
    /// stops appending (the file may hold a partial record — the shape
    /// replay recovers from) rather than interleaving torn writes.
    error: Option<io::ErrorKind>,
}

/// A shareable, thread-safe memo of suite cell results.
///
/// Hand one cache (behind an [`Arc`](std::sync::Arc)) to any number of
/// suites via [`ScenarioSuite::cache`](crate::ScenarioSuite::cache);
/// concurrent workers of a streaming run consult and fill it through a
/// mutex. The `hits()`/`misses()` counters are lifetime totals; per-run
/// counters live on the run's [`SuiteReport`](crate::SuiteReport).
pub struct SuiteCache<V: Ord> {
    entries: Mutex<HashMap<CacheKey, CachedResult<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    journal: Mutex<Option<JournalSink<V>>>,
}

impl<V: Ord> Default for SuiteCache<V> {
    fn default() -> Self {
        SuiteCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            journal: Mutex::new(None),
        }
    }
}

impl<V: ProposalValue> fmt::Debug for SuiteCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuiteCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl<V: ProposalValue> SuiteCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        SuiteCache::default()
    }

    /// The number of cached cells.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock poisoned").len()
    }

    /// Whether the cache holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime cache hits (across every suite sharing this cache).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached cell (counters are kept — they describe
    /// lookups, not contents).
    pub fn clear(&self) {
        self.entries.lock().expect("cache lock poisoned").clear();
    }

    /// The first I/O failure the attached journal hit, if any: appends
    /// stop at that point, so a caller about to rely on the journal for
    /// resumption can surface the problem.
    pub fn journal_error(&self) -> Option<io::ErrorKind> {
        self.journal
            .lock()
            .expect("journal lock poisoned")
            .as_ref()
            .and_then(|sink| sink.error)
    }

    /// Looks a cell up, counting a hit when it is there and nothing
    /// when it is not: for a caller that does not execute what it does
    /// not find — whoever does will [`lookup`](Self::lookup) the cell
    /// again and count that miss.
    pub(crate) fn probe(&self, key: &CacheKey) -> Option<CachedResult<V>> {
        let found = self
            .entries
            .lock()
            .expect("cache lock poisoned")
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Looks a cell up, counting a hit or a miss.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<CachedResult<V>> {
        let found = self.probe(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a cell result (journaling it first, when a journal is
    /// attached — the record is on disk before the cell is servable).
    pub(crate) fn insert(&self, key: CacheKey, result: CachedResult<V>) {
        {
            let mut journal = self.journal.lock().expect("journal lock poisoned");
            if let Some(sink) = journal.as_mut() {
                if sink.error.is_none() {
                    let JournalSink { writer, encode, .. } = sink;
                    if let Err(e) = writer.append_with(|out| encode(&key, &result, out)) {
                        sink.error = Some(e.kind());
                    }
                }
            }
        }
        self.entries
            .lock()
            .expect("cache lock poisoned")
            .insert(key, result);
    }
}

/// A value type the binary codec can round-trip byte-identically.
///
/// Implemented for the integer types the experiments propose (fixed
/// little-endian width; `usize`/`isize` travel as 64-bit so the wire
/// form is platform-independent). The in-memory cache needs only `Hash`
/// (for keys); this trait gates persistence and journaling alone.
pub trait CacheableValue: ProposalValue + Hash {
    /// Appends the value's canonical wire form.
    fn encode_wire(&self, out: &mut Writer);
    /// Reads a value written by [`CacheableValue::encode_wire`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input; must never panic.
    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

macro_rules! cacheable_ints {
    ($($t:ty),*) => {$(
        impl CacheableValue for $t {
            fn encode_wire(&self, out: &mut Writer) {
                out.raw(&self.to_le_bytes());
            }
            fn decode_wire(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$t>::from_le_bytes(
                    r.take(std::mem::size_of::<$t>())?
                        .try_into()
                        .expect("exact width"),
                ))
            }
        }
    )*};
}

cacheable_ints!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl CacheableValue for usize {
    fn encode_wire(&self, out: &mut Writer) {
        out.usize(*self);
    }
    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.usize()
    }
}

impl CacheableValue for isize {
    fn encode_wire(&self, out: &mut Writer) {
        out.u64(*self as i64 as u64);
    }
    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        isize::try_from(r.u64()? as i64).map_err(|_| DecodeError::Invalid {
            what: "isize field",
        })
    }
}

fn corrupt(record: usize, what: impl fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("suite cache journal record {record}: {what}"),
    )
}

/// The journal header version for this cache format.
fn header_version() -> u32 {
    FORMAT_VERSION as u32
}

/// The prefix of a journal that is both chain-verified and decodable:
/// what [`replay_into`] put into the map.
struct Replayed {
    records: usize,
    /// The prefix's byte length, header included.
    valid_len: usize,
    /// The chain link after its last record.
    head: ChainHash,
    /// How the journal ended beyond it.
    tail: JournalTail,
}

/// Walks `cursor` once, decoding each verified record straight into
/// `entries`, up to the first damage, the first record that verifies
/// but is not one of ours (reported like corruption), or the clean end.
fn replay_into<V: CacheableValue>(
    mut cursor: Cursor<'_>,
    entries: &mut HashMap<CacheKey, CachedResult<V>>,
) -> Replayed {
    let mut replayed = Replayed {
        records: 0,
        valid_len: cursor.valid_len(),
        head: cursor.head(),
        tail: JournalTail::Clean,
    };
    while let Some(payload) = cursor.next() {
        let Ok((key, result)) = codec::decode_record(payload) else {
            // The cursor has stepped past the record; the prefix worth
            // keeping ends where it starts.
            replayed.tail = JournalTail::Corrupted {
                record: replayed.records,
                offset: replayed.valid_len,
                reason: "undecodable record",
            };
            return replayed;
        };
        entries.insert(key, result);
        replayed.records = cursor.records();
        replayed.valid_len = cursor.valid_len();
        replayed.head = cursor.head();
    }
    replayed.tail = cursor.tail().expect("exhausted cursor has a tail");
    replayed
}

impl<V: CacheableValue> SuiteCache<V> {
    /// Loads a persisted cache, or returns an empty one when `path`
    /// does not exist (the natural cold-start for a cron-style rerun).
    ///
    /// # Errors
    ///
    /// I/O failures other than `NotFound`, and malformed files —
    /// except a *version* mismatch in the journal header, which loads
    /// as an empty cache: an old file is a cold cache, not an error.
    /// Unlike [`SuiteCache::resume_journal`], a torn or corrupted tail
    /// here is an error too — `save` writes whole files atomically, so
    /// damage means the file is not ours.
    pub fn load_or_empty(path: impl AsRef<Path>) -> io::Result<Self> {
        match fs::read(path) {
            Ok(bytes) => Self::parse(&bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(SuiteCache::new()),
            Err(e) => Err(e),
        }
    }

    /// Persists every cached cell to `path` (atomically per call: the
    /// file is rewritten whole into a sibling temp file and renamed
    /// over `path`, so a concurrent [`SuiteCache::load_or_empty`] — or
    /// a crash mid-save — never observes a truncated file), in
    /// deterministic key order. The written file is itself a valid
    /// journal: [`SuiteCache::resume_journal`] can append to it.
    ///
    /// # Errors
    ///
    /// I/O failures creating, writing or renaming the file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut writer = JournalWriter::create(Vec::new(), header_version())?;
        {
            let entries = self.entries.lock().expect("cache lock poisoned");
            let mut sorted: Vec<_> = entries.iter().collect();
            sorted.sort_unstable_by_key(|(key, _)| key.parts());
            for (key, result) in sorted {
                writer.append_with(|out| codec::encode_record(key, result, out))?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp-{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        fs::write(&tmp, writer.into_inner())?;
        fs::rename(&tmp, path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    fn parse(bytes: &[u8]) -> io::Result<Self> {
        let cursor = Cursor::new(bytes);
        match cursor.version() {
            // A newer/older journal version is a cold cache …
            Some(v) if v != header_version() => return Ok(SuiteCache::new()),
            Some(_) => {}
            // … but a missing or alien header is corruption.
            None => return Err(corrupt(0, "missing or damaged journal header")),
        }
        let mut cache = SuiteCache::new();
        let entries = cache.entries.get_mut().expect("cache lock poisoned");
        let replayed = replay_into(cursor, entries);
        if !replayed.tail.is_clean() {
            return Err(corrupt(replayed.records, replayed.tail));
        }
        Ok(cache)
    }

    /// Attaches an append-only journal at `path`, replaying whatever
    /// valid prefix already exists into the cache first.
    ///
    /// * Missing (or empty) file → a fresh journal is created.
    /// * Stale version → the file is a cold journal and is rewritten
    ///   fresh.
    /// * Valid prefix + torn/corrupted tail (a crashed writer) → the
    ///   prefix is replayed into the cache, the file is truncated back
    ///   to it, and appends continue from there; the damage is reported
    ///   in the returned stats, never served.
    ///
    /// After this call every insert — every cache miss a suite
    /// executes — is appended to the journal and flushed,
    /// so a crashed sweep resumes by calling this again: only the cells
    /// missing from the journal re-execute.
    ///
    /// # Errors
    ///
    /// I/O failures reading, truncating or reopening the file, and a
    /// file whose header is not a journal's (a foreign file is refused,
    /// not clobbered).
    pub fn resume_journal(&self, path: impl AsRef<Path>) -> io::Result<JournalReplayStats> {
        let path = path.as_ref();
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        let cursor = Cursor::new(&bytes);
        let start_fresh = match cursor.version() {
            // An intact header of another version: ours, just stale.
            Some(v) if v != header_version() => true,
            Some(_) => false,
            // A short header is our own torn write; anything else is a
            // foreign file.
            None if bytes.len() < HEADER_LEN => true,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not a setagree journal", path.display()),
                ))
            }
        };

        if start_fresh || bytes.is_empty() {
            let file = fs::File::create(path)?;
            let writer = JournalWriter::create(file, header_version())?;
            self.attach(writer);
            return Ok(JournalReplayStats {
                recovered: 0,
                tail: JournalTail::Clean,
            });
        }

        let Replayed {
            records: recovered,
            valid_len,
            head,
            tail,
        } = replay_into(
            cursor,
            &mut self.entries.lock().expect("cache lock poisoned"),
        );

        let mut file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len as u64)?;
        file.seek(io::SeekFrom::End(0))?;
        self.attach(JournalWriter::resume(file, head, recovered));
        if setagree_obs::enabled() && recovered > 0 {
            setagree_obs::counter("suite_journal_resumed", &[]).add(recovered as u64);
        }
        Ok(JournalReplayStats { recovered, tail })
    }

    fn attach(&self, writer: JournalWriter<fs::File>) {
        *self.journal.lock().expect("journal lock poisoned") = Some(JournalSink {
            writer,
            encode: codec::encode_record::<V>,
            error: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use setagree_sync::{run_protocol, FailurePattern};
    use setagree_types::{InputVector, ProcessId};

    use crate::experiment::{Executor, ProtocolKind};

    fn sample_report(values: &[u32]) -> Report<u32> {
        use setagree_sync::{Step, SyncProtocol};
        #[derive(Debug)]
        struct Fixed(u32);
        impl SyncProtocol for Fixed {
            type Msg = ();
            type Output = u32;
            fn message(&mut self, _round: usize) {}
            fn receive(&mut self, _round: usize, _from: ProcessId, _msg: &()) {}
            fn compute(&mut self, _round: usize) -> Step<u32> {
                Step::Decide(self.0)
            }
        }
        let procs: Vec<Fixed> = values.iter().map(|&v| Fixed(v)).collect();
        let n = procs.len();
        let trace = run_protocol(procs, &FailurePattern::none(n), 5).unwrap();
        Report::new(
            trace,
            Arc::new(InputVector::new(values.to_vec())),
            1,
            2,
            ProtocolKind::FloodSet,
            Executor::Simulator,
        )
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn stable_pair_is_deterministic_and_input_sensitive() {
        assert_eq!(stable_pair(&42u64), stable_pair(&42u64));
        assert_ne!(stable_pair(&42u64), stable_pair(&43u64));
        let (hi, lo) = stable_pair(&42u64);
        assert_ne!(hi, lo, "the two bases walk independently");
    }

    #[test]
    fn stable_pair_traverses_its_value_once() {
        struct Counted<'a>(&'a std::cell::Cell<u32>);
        impl Hash for Counted<'_> {
            fn hash<H: Hasher>(&self, state: &mut H) {
                self.0.set(self.0.get() + 1);
                state.write_u64(7);
            }
        }
        let calls = std::cell::Cell::new(0);
        let (hi, lo) = stable_pair(&Counted(&calls));
        assert_eq!(calls.get(), 1, "both halves come out of one traversal");
        assert_ne!(hi, lo);
        assert_eq!((hi, lo), stable_pair(&7u64));
    }

    #[test]
    fn integers_hash_by_value_and_byte_strings_by_length_then_words() {
        // `usize` is mixed as a 64-bit value: its width is not in the key.
        assert_eq!(stable_pair(&7usize), stable_pair(&7u64));
        // Two writes are not one write of the concatenation, and a
        // zero-padded tail is not a longer string of zeros.
        assert_ne!(stable_pair(&("ab", "c")), stable_pair(&("a", "bc")));
        assert_ne!(stable_pair(&[0u8; 3][..]), stable_pair(&[0u8; 4][..]));
    }

    #[test]
    fn probe_counts_hits_only() {
        let cache: SuiteCache<u32> = SuiteCache::new();
        let key = CacheKey::combine(&[stable_pair(&1u8)]);
        assert!(cache.probe(&key).is_none());
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 0),
            "the prober executes nothing"
        );
        cache.insert(key, Ok(sample_report(&[4, 4])));
        assert!(cache.probe(&key).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache: SuiteCache<u32> = SuiteCache::new();
        let key = CacheKey::combine(&[stable_pair(&1u8)]);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key, Ok(sample_report(&[4, 4])));
        assert!(cache.lookup(&key).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn file_roundtrip_preserves_reports_and_errors() {
        let path = temp_path("setagree-cache-test-roundtrip");
        let cache: SuiteCache<u32> = SuiteCache::new();
        let ok_key = CacheKey::combine(&[stable_pair(&"ok")]);
        let err_key = CacheKey::combine(&[stable_pair(&"err")]);
        let report = sample_report(&[7, 7, 2]);
        cache.insert(ok_key, Ok(report.clone()));
        cache.insert(
            err_key,
            Err(ExperimentError::Internal {
                message: "with spaces, %, é → ∞, and\nnewlines".into(),
            }),
        );
        cache.save(&path).unwrap();
        let reloaded: SuiteCache<u32> = SuiteCache::load_or_empty(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.lookup(&ok_key), Some(Ok(report)));
        assert_eq!(
            reloaded.lookup(&err_key),
            Some(Err(ExperimentError::Internal {
                message: "with spaces, %, é → ∞, and\nnewlines".into()
            }))
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_loads_empty_and_stale_versions_load_cold() {
        let missing: SuiteCache<u32> =
            SuiteCache::load_or_empty("/nonexistent/definitely-not-here").unwrap();
        assert!(missing.is_empty());

        let path = temp_path("setagree-cache-test-stale");
        // A journal of a different version.
        let other = JournalWriter::create(Vec::new(), header_version() + 1)
            .unwrap()
            .into_inner();
        fs::write(&path, other).unwrap();
        let stale: SuiteCache<u32> = SuiteCache::load_or_empty(&path).unwrap();
        assert!(stale.is_empty(), "other journal versions reload cold");
        fs::remove_file(&path).unwrap();
    }

    /// A journal of one record exactly as the parent build (format
    /// version 2: byte-wise FNV-1a chain and keys) wrote it — the
    /// `InputSizeMismatch` cell of a flood-set suite run journaled.
    const V2_JOURNAL: [u8; 74] = [
        0x73, 0x65, 0x74, 0x61, 0x67, 0x72, 0x65, 0x65, 0x2D, 0x6A, 0x6F, 0x75, 0x72, 0x6E, 0x61,
        0x6C, 0x02, 0x00, 0x00, 0x00, 0x22, 0x00, 0x00, 0x00, 0x02, 0xBD, 0xA1, 0xB9, 0xCB, 0x16,
        0x87, 0x05, 0x7E, 0xBC, 0x5A, 0xCB, 0xB8, 0x7C, 0x49, 0x9B, 0x01, 0x01, 0x04, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x13, 0x67,
        0x35, 0x24, 0xDB, 0x8B, 0x43, 0x6F, 0x88, 0x85, 0x63, 0x34, 0x22, 0xFB, 0x00, 0x44,
    ];

    #[test]
    fn a_version_2_file_is_stale_reloads_cold_and_is_rewritten() {
        let path = temp_path("setagree-cache-test-v2");
        fs::write(&path, V2_JOURNAL).unwrap();
        assert_eq!(Cursor::new(&V2_JOURNAL).version(), Some(2));
        assert_eq!(header_version(), 3);

        let loaded: SuiteCache<u32> = SuiteCache::load_or_empty(&path).unwrap();
        assert!(loaded.is_empty(), "never an error, never served");

        let cache: SuiteCache<u32> = SuiteCache::new();
        let stats = cache.resume_journal(&path).unwrap();
        assert_eq!((stats.recovered, stats.tail), (0, JournalTail::Clean));
        assert!(cache.is_empty());
        let rewritten = fs::read(&path).unwrap();
        assert_eq!(rewritten.len(), HEADER_LEN, "the stale record is gone");
        assert_eq!(Cursor::new(&rewritten).version(), Some(3));

        let key = CacheKey::combine(&[stable_pair(&"refilled")]);
        cache.insert(key, Ok(sample_report(&[6, 6])));
        assert_eq!(cache.journal_error(), None);
        drop(cache);
        let resumed: SuiteCache<u32> = SuiteCache::new();
        let stats = resumed.resume_journal(&path).unwrap();
        assert_eq!((stats.recovered, stats.tail), (1, JournalTail::Clean));
        assert_eq!(resumed.lookup(&key), Some(Ok(sample_report(&[6, 6]))));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_record_that_verifies_but_does_not_decode_ends_the_replay_before_it() {
        let path = temp_path("setagree-cache-test-undecodable");
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| CacheKey::combine(&[stable_pair(&i)]))
            .collect();
        let record = |key| {
            let mut out = Writer::new();
            codec::encode_record::<u32>(key, &Ok(sample_report(&[8, 8])), &mut out);
            out.into_vec()
        };
        // Two records of ours, one that is chain-valid but no record,
        // and a third of ours behind it.
        let mut writer = JournalWriter::create(Vec::new(), header_version()).unwrap();
        writer.append(&record(&keys[0])).unwrap();
        writer.append(&record(&keys[1])).unwrap();
        let kept = HEADER_LEN + 2 * (20 + record(&keys[0]).len());
        writer.append(b"not a record").unwrap();
        writer.append(&record(&keys[2])).unwrap();
        let bytes = writer.into_inner();
        assert!(Cursor::new(&bytes).finish().is_clean(), "the chain holds");
        fs::write(&path, &bytes).unwrap();

        assert!(SuiteCache::<u32>::load_or_empty(&path).is_err());

        let cache: SuiteCache<u32> = SuiteCache::new();
        let stats = cache.resume_journal(&path).unwrap();
        assert_eq!(stats.recovered, 2);
        assert_eq!(
            stats.tail,
            JournalTail::Corrupted {
                record: 2,
                offset: kept,
                reason: "undecodable record",
            }
        );
        assert_eq!(cache.len(), 2, "nothing behind the bad record is served");
        assert_eq!(
            fs::read(&path).unwrap(),
            &bytes[..kept],
            "cut where it starts"
        );
        // The chain resumes from the last decoded record's link.
        cache.insert(keys[2], Ok(sample_report(&[8, 8])));
        drop(cache);
        let healed: SuiteCache<u32> = SuiteCache::new();
        let stats = healed.resume_journal(&path).unwrap();
        assert_eq!((stats.recovered, stats.tail), (3, JournalTail::Clean));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_files_are_rejected_not_misread() {
        let path = temp_path("setagree-cache-test-corrupt");
        fs::write(&path, "not a cache\n").unwrap();
        assert!(SuiteCache::<u32>::load_or_empty(&path).is_err());

        // A saved file with any single byte of its body flipped fails
        // the chain, and load (unlike journal resume) treats that as an
        // error rather than quietly dropping cells.
        let cache: SuiteCache<u32> = SuiteCache::new();
        cache.insert(
            CacheKey::combine(&[stable_pair(&1u8)]),
            Ok(sample_report(&[4, 4])),
        );
        cache.save(&path).unwrap();
        let good = fs::read(&path).unwrap();
        let mut bad = good.clone();
        let mid = HEADER_LEN + (bad.len() - HEADER_LEN) / 2;
        bad[mid] ^= 0xFF;
        fs::write(&path, &bad).unwrap();
        assert!(SuiteCache::<u32>::load_or_empty(&path).is_err());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_records_every_insert_and_replays_them() {
        let path = temp_path("setagree-cache-test-journal");
        let report = sample_report(&[9, 9]);
        let key_a = CacheKey::combine(&[stable_pair(&"a")]);
        let key_b = CacheKey::combine(&[stable_pair(&"b")]);

        let cache: SuiteCache<u32> = SuiteCache::new();
        let stats = cache.resume_journal(&path).unwrap();
        assert_eq!(stats.recovered, 0);
        assert!(stats.tail.is_clean());
        cache.insert(key_a, Ok(report.clone()));
        cache.insert(key_b, Err(ExperimentError::ZeroK));
        assert_eq!(cache.journal_error(), None);
        drop(cache);

        let resumed: SuiteCache<u32> = SuiteCache::new();
        let stats = resumed.resume_journal(&path).unwrap();
        assert_eq!(stats.recovered, 2);
        assert!(stats.tail.is_clean());
        assert_eq!(resumed.lookup(&key_a), Some(Ok(report)));
        assert_eq!(resumed.lookup(&key_b), Some(Err(ExperimentError::ZeroK)));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_journal_tail_is_discarded_and_appends_continue() {
        let path = temp_path("setagree-cache-test-torn");
        let cache: SuiteCache<u32> = SuiteCache::new();
        cache.resume_journal(&path).unwrap();
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| CacheKey::combine(&[stable_pair(&i)]))
            .collect();
        for &key in &keys {
            cache.insert(key, Ok(sample_report(&[5, 5])));
        }
        drop(cache);

        // A crashed writer: the last record loses its final 7 bytes.
        let bytes = fs::read(&path).unwrap();
        let torn = bytes.len() - 7;
        fs::write(&path, &bytes[..torn]).unwrap();

        let resumed: SuiteCache<u32> = SuiteCache::new();
        let stats = resumed.resume_journal(&path).unwrap();
        assert_eq!(stats.recovered, 2, "the valid prefix survives");
        assert!(
            matches!(stats.tail, JournalTail::Truncated { record: 2, .. }),
            "{:?}",
            stats.tail
        );
        assert_eq!(resumed.len(), 2);
        // The missing cell re-executes and re-journals; a third replay
        // then recovers all three records cleanly.
        resumed.insert(keys[2], Ok(sample_report(&[5, 5])));
        drop(resumed);
        let third: SuiteCache<u32> = SuiteCache::new();
        let stats = third.resume_journal(&path).unwrap();
        assert_eq!(stats.recovered, 3);
        assert!(stats.tail.is_clean());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_files_are_refused_not_clobbered() {
        let path = temp_path("setagree-cache-test-foreign");
        // Arbitrary bytes, and a file in the retired v1 text format: a
        // v1 cache is not a journal, so it is foreign too.
        let foreign: [&[u8]; 2] = [
            b"someone else's twenty-plus bytes of data\n",
            b"setagree-suite-cache v1\ngarbage garbage\n",
        ];
        for bytes in foreign {
            fs::write(&path, bytes).unwrap();
            assert!(SuiteCache::<u32>::load_or_empty(&path).is_err());
            let cache: SuiteCache<u32> = SuiteCache::new();
            assert!(cache.resume_journal(&path).is_err());
            assert_eq!(fs::read(&path).unwrap(), bytes, "the file is untouched");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_saved_cache_file_is_a_resumable_journal() {
        let path = temp_path("setagree-cache-test-save-resume");
        let cache: SuiteCache<u32> = SuiteCache::new();
        let key = CacheKey::combine(&[stable_pair(&"cell")]);
        cache.insert(key, Ok(sample_report(&[3, 3])));
        cache.save(&path).unwrap();

        let journaled: SuiteCache<u32> = SuiteCache::new();
        let stats = journaled.resume_journal(&path).unwrap();
        assert_eq!(stats.recovered, 1);
        assert!(stats.tail.is_clean());
        fs::remove_file(&path).unwrap();
    }
}
