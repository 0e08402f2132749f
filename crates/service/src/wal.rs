//! CRC-framed write-ahead log for the feedback path.
//!
//! Without a WAL, a crashed node loses its entire [`crate::log::FeedbackLog`]
//! — every local-trust row it accumulated since startup — and rejoins the
//! network as a blank rater. The paper's fault-tolerance story (§6.1)
//! assumes peers keep their local trust across churn; this module is what
//! makes that true for the real service: every acknowledged feedback event
//! is appended here *before* it is applied to the in-memory log, and a
//! restarting service replays the file back into the log, rebuilding the
//! exact same rows (and therefore, after a fold, the bit-identical
//! `TrustMatrix`).
//!
//! ## On-disk format
//!
//! ```text
//! header  (16 bytes): magic "GTWAL1\0\0" | n: u64 LE
//! record  (24 bytes): len: u32 LE (= 16) | crc32(payload): u32 LE | payload
//! payload (16 bytes): rater: u32 LE | target: u32 LE | score: f64 bits LE
//! ```
//!
//! The CRC is CRC-32 (IEEE, reflected — the zlib/PNG polynomial),
//! hand-rolled because the workspace pins its dependency set. Scores are
//! stored as raw bit patterns, so replay is bit-exact (`-0.0`, subnormals
//! and all).
//!
//! ## Crash tolerance
//!
//! [`Wal::open`] scans the whole file on startup and accepts the longest
//! prefix of valid records. The first torn record (truncated mid-write),
//! CRC mismatch (bit flip), bad length tag or out-of-range peer id ends
//! the replay: the file is truncated back to the end of the last valid
//! record and appends continue from there. A header torn at creation (a
//! proper prefix of this deployment's own) is the same case one step
//! earlier: it is rewritten and the log starts empty. A torn tail therefore
//! costs at most the events that were never acknowledged; acknowledged
//! events are written (and pushed to the OS) before the acknowledgment, so
//! a process crash — `kill -9` included — cannot lose them. (Surviving
//! power loss would additionally need an fsync per append; that durability
//! class is out of scope and documented in DESIGN.md §9.)
//!
//! Compaction is deliberately absent: the feedback log is append-only and
//! cumulative across epochs (folds never consume it), so the WAL is simply
//! the same history in durable form.

use crate::log::FeedbackEvent;
use gossiptrust_core::id::NodeId;
use gossiptrust_obs::{Histogram, Stopwatch};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// File header magic (8 bytes): format name + version.
const MAGIC: [u8; 8] = *b"GTWAL1\0\0";
/// Header length: magic + `n` as u64 LE.
const HEADER_LEN: u64 = 16;
/// Payload length of the (single) record type.
const PAYLOAD_LEN: usize = 16;
/// Full framed record length: len tag + crc + payload.
const RECORD_LEN: usize = 8 + PAYLOAD_LEN;
/// Name of the log file inside the WAL directory.
const FILE_NAME: &str = "feedback.wal";

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
static CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE, reflected) of `bytes` — the zlib/PNG checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        // The & 0xFF mask keeps the probe in range; .get keeps the loop
        // panic-free even so (the unwrap_or arm is dead code).
        let probe = CRC_TABLE
            .get(((crc ^ b as u32) & 0xFF) as usize)
            .copied()
            .unwrap_or(0);
        crc = (crc >> 8) ^ probe;
    }
    !crc
}

/// What a startup replay recovered.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WalReplay {
    /// Every valid record, in append order.
    pub events: Vec<FeedbackEvent>,
    /// Bytes discarded from the tail (0 = the file was clean).
    pub truncated_bytes: u64,
}

/// Histogram handles the commit path records into (`None` = unrecorded;
/// tests and tools run a WAL without a registry).
#[derive(Clone, Debug, Default)]
pub struct GroupCommitObs {
    /// Records per commit (`gt_wal_group_records`): one submission — a
    /// single rating or one whole batch — per commit.
    pub group_records: Option<Arc<Histogram>>,
    /// One `write_all` + `flush` (`gt_wal_commit_ns`), nanoseconds.
    pub commit_ns: Option<Arc<Histogram>>,
}

/// An open write-ahead log: appends go to the end of the recovered prefix.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Last committed record boundary: where a failed commit rolls back to.
    committed_end: u64,
    /// Set by a failed rollback: why every later append is refused.
    poisoned: Option<String>,
    obs: GroupCommitObs,
    /// One-shot fault: the next commit writes this many bytes, then fails.
    #[cfg(test)]
    fail_after: Option<usize>,
}

/// Encode one event as a framed record (len | crc | payload).
pub fn encode_record(event: &FeedbackEvent) -> [u8; RECORD_LEN] {
    let mut payload = [0u8; PAYLOAD_LEN];
    let fields = event
        .rater
        .0
        .to_le_bytes()
        .into_iter()
        .chain(event.target.0.to_le_bytes())
        .chain(event.score.to_bits().to_le_bytes());
    for (dst, src) in payload.iter_mut().zip(fields) {
        *dst = src;
    }
    let mut record = [0u8; RECORD_LEN];
    let frame = (PAYLOAD_LEN as u32)
        .to_le_bytes()
        .into_iter()
        .chain(crc32(&payload).to_le_bytes())
        .chain(payload);
    for (dst, src) in record.iter_mut().zip(frame) {
        *dst = src;
    }
    record
}

/// Encode one rater's batch as the contiguous run of records it commits as.
fn encode_batch(rater: NodeId, ratings: &[(NodeId, f64)]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(ratings.len().saturating_mul(RECORD_LEN));
    for &(target, score) in ratings {
        bytes.extend_from_slice(&encode_record(&FeedbackEvent { rater, target, score }));
    }
    bytes
}

/// Little-endian unsigned integer in the `len` bytes at offset `off`;
/// `None` when out of range.
fn le(bytes: &[u8], off: usize, len: usize) -> Option<u64> {
    let window = bytes.get(off..off.checked_add(len)?)?;
    Some(window.iter().rev().fold(0u64, |acc, &b| (acc << 8) | b as u64))
}

/// Decode one framed record of an `n`-peer log. `None` — short frame, bad
/// length tag, CRC mismatch, peer id out of range — is where replay stops.
fn decode_record(frame: &[u8], n: usize) -> Option<FeedbackEvent> {
    let payload = frame.get(8..)?;
    if le(frame, 0, 4)? != PAYLOAD_LEN as u64 || le(frame, 4, 4)? != u64::from(crc32(payload)) {
        return None;
    }
    let (rater, target) = (le(payload, 0, 4)?, le(payload, 4, 4)?);
    let event = FeedbackEvent {
        rater: NodeId(rater as u32),
        target: NodeId(target as u32),
        score: f64::from_bits(le(payload, 8, 8)?),
    };
    ((rater as usize) < n && (target as usize) < n).then_some(event)
}

impl Wal {
    /// An open `file` whose valid prefix ends at byte `committed_end`.
    pub(crate) fn at(file: File, path: PathBuf, committed_end: u64) -> Wal {
        Wal {
            file,
            path,
            committed_end,
            poisoned: None,
            obs: GroupCommitObs::default(),
            #[cfg(test)]
            fail_after: None,
        }
    }

    /// Open (or create) the WAL for an `n`-peer population under `dir`
    /// (created if missing), replaying any existing records.
    ///
    /// An existing file must carry the right magic and the same `n`: another
    /// deployment's log must abort loudly rather than replay nonsense ids.
    /// After `open` returns, the file holds exactly [`WalReplay::events`]
    /// (the recovered-prefix rule is in the module docs).
    pub fn open(dir: &Path, n: usize) -> io::Result<(Wal, WalReplay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(FILE_NAME);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // A new file — or one torn while it was being created: fewer bytes
        // than a header, all of them a prefix of *this* deployment's header.
        // No record can have been acknowledged yet, so (re)write the header.
        let header: Vec<u8> = MAGIC.into_iter().chain((n as u64).to_le_bytes()).collect();
        if bytes.len() < header.len() && header.starts_with(&bytes) {
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header)?;
            file.flush()?;
            return Ok((Wal::at(file, path, HEADER_LEN), WalReplay::default()));
        }
        let invalid = |what: String| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{} {what}", path.display()))
        };
        if bytes.len() < HEADER_LEN as usize || bytes.get(0..8) != Some(&MAGIC[..]) {
            return Err(invalid("is not a GTWAL1 file".into()));
        }
        // The length check above guarantees the read; u64::MAX is an
        // impossible peer count, so the fallback can only mismatch.
        let header_n = le(&bytes, 8, 8).unwrap_or(u64::MAX);
        if header_n != n as u64 {
            return Err(invalid(format!(
                "was written for n = {header_n}, this service has n = {n}"
            )));
        }

        // Accept the longest valid prefix of records; anything after the
        // first torn/corrupt record is a tail to discard.
        let mut events = Vec::new();
        let mut good_end = HEADER_LEN as usize;
        while let Some(event) = bytes
            .get(good_end..good_end + RECORD_LEN)
            .and_then(|frame| decode_record(frame, n))
        {
            events.push(event);
            good_end += RECORD_LEN;
        }
        let truncated_bytes = (bytes.len() - good_end) as u64;
        if truncated_bytes > 0 {
            file.set_len(good_end as u64)?;
        }
        file.seek(SeekFrom::Start(good_end as u64))?;
        Ok((Wal::at(file, path, good_end as u64), WalReplay { events, truncated_bytes }))
    }

    /// Append one event. The record is written (and pushed to the OS)
    /// before this returns — only after that may the caller acknowledge.
    pub fn append(&mut self, event: &FeedbackEvent) -> io::Result<()> {
        self.commit(&encode_record(event), 1)
    }

    /// Append a batch of ratings from one rater as one contiguous write.
    pub fn append_batch(&mut self, rater: NodeId, ratings: &[(NodeId, f64)]) -> io::Result<()> {
        self.commit(&encode_batch(rater, ratings), ratings.len() as u64)
    }

    /// The one commit path: one `write_all` + `flush`; on failure roll back
    /// to the last committed boundary (replay stops at the first bad record,
    /// so a later commit behind a torn middle would be acknowledged yet
    /// lost), and refuse every later append if even that fails.
    fn commit(&mut self, bytes: &[u8], records: u64) -> io::Result<()> {
        if let Some(msg) = &self.poisoned {
            return Err(io::Error::other(msg.clone()));
        }
        let sw = Stopwatch::start();
        let result = self.write_and_flush(bytes);
        if let Some(h) = &self.obs.commit_ns {
            h.record(sw.elapsed_ns());
        }
        if let Some(h) = &self.obs.group_records {
            h.record(records);
        }
        let Err(e) = &result else {
            self.committed_end += bytes.len() as u64;
            return result;
        };
        let end = self.committed_end;
        let truncated = self.file.set_len(end);
        if truncated.and_then(|()| self.file.seek(SeekFrom::Start(end))).is_err() {
            self.poisoned = Some(format!("WAL unrecoverable after failed commit: {e}"));
        }
        result
    }

    fn write_and_flush(&mut self, bytes: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(k) = self.fail_after.take() {
            self.file.write_all(bytes.get(..k).unwrap_or(bytes))?;
            return Err(io::Error::other("injected write failure"));
        }
        self.file.write_all(bytes)?;
        self.file.flush()
    }

    /// Path of the underlying log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The shared front of a [`Wal`]: one mutex, held by an ingesting connection
/// for exactly one `write_all` + `flush`. Records are encoded outside the
/// lock, the commit is [`Wal`]'s own, and the caller's return **is** the
/// acknowledgment — so append-before-ack holds by construction, the file is
/// byte-identical to sequential [`Wal::append`] calls in lock order (a batch
/// is never split or interleaved), and a failed commit acks nobody.
///
/// Nothing is grouped (the name stays for the benchmark's sake): the WAL
/// never syncs, so a commit is a ~1 µs `write`, and the writer thread this
/// replaces cost 20–40× that in channel hops — numbers in DESIGN.md §9.
#[derive(Debug)]
pub struct GroupCommitWal {
    wal: Mutex<Wal>,
}

impl GroupCommitWal {
    /// Take ownership of an open `wal`; its commits record into `obs`.
    pub fn new(mut wal: Wal, obs: GroupCommitObs) -> Self {
        wal.obs = obs;
        GroupCommitWal { wal: Mutex::new(wal) }
    }

    /// [`GroupCommitWal::new`] under the signature `benchmark/src/probes.rs`
    /// calls; the middle arguments tuned a writer thread that is gone.
    /// Delete with the benchmark refresh of ROADMAP item 1b.
    pub fn start(wal: Wal, _max: usize, _deadline: Duration, obs: GroupCommitObs) -> Self {
        Self::new(wal, obs)
    }

    /// Encode and commit one event; `Ok` is the acknowledgment.
    pub fn append(&self, event: &FeedbackEvent) -> Result<(), String> {
        self.commit(&encode_record(event), 1)
    }

    /// Encode and commit one rater's batch as a single contiguous write;
    /// an empty batch is `Ok` without touching the log.
    pub fn append_batch(&self, rater: NodeId, ratings: &[(NodeId, f64)]) -> Result<(), String> {
        if ratings.is_empty() {
            return Ok(());
        }
        self.commit(&encode_batch(rater, ratings), ratings.len() as u64)
    }

    fn commit(&self, bytes: &[u8], records: u64) -> Result<(), String> {
        // A holder that panicked mid-commit left the file and `committed_end`
        // in an unknown relation; the std poison flag never clears, so every
        // later append is refused here rather than acknowledged.
        let mut wal = self.wal.lock().map_err(|_| "WAL lock holder panicked mid-commit")?;
        wal.commit(bytes, records).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, collision-free scratch directory per test invocation —
    /// process id + a process-local counter, no ambient entropy.
    fn scratch_dir(tag: &str) -> PathBuf {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gtwal-test-{}-{tag}-{serial}", std::process::id()));
        // A leftover directory from a crashed previous run would alias
        // this test's state; start clean.
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ev(rater: u32, target: u32, score: f64) -> FeedbackEvent {
        FeedbackEvent { rater: NodeId(rater), target: NodeId(target), score }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC (the zlib polynomial).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn fresh_open_then_append_then_replay() {
        let dir = scratch_dir("roundtrip");
        let (mut wal, replay) = Wal::open(&dir, 16).expect("open fresh");
        assert!(replay.events.is_empty());
        assert_eq!(replay.truncated_bytes, 0);
        wal.append(&ev(1, 2, 3.5)).expect("append");
        wal.append_batch(NodeId(7), &[(NodeId(0), 1.0), (NodeId(3), -0.0)])
            .expect("append batch");
        drop(wal);

        let (_wal, replay) = Wal::open(&dir, 16).expect("reopen");
        assert_eq!(replay.events, vec![ev(1, 2, 3.5), ev(7, 0, 1.0), ev(7, 3, -0.0)]);
        // Bit-exact: -0.0 survives as -0.0.
        assert!(replay.events[2].score.is_sign_negative());
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = scratch_dir("torn");
        let (mut wal, _) = Wal::open(&dir, 8).expect("open");
        wal.append(&ev(0, 1, 1.0)).expect("append");
        wal.append(&ev(2, 3, 2.0)).expect("append");
        let path = wal.path().to_path_buf();
        drop(wal);

        // Tear the last record mid-write: chop 5 bytes off the tail.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear");

        let (mut wal, replay) = Wal::open(&dir, 8).expect("recover");
        assert_eq!(replay.events, vec![ev(0, 1, 1.0)]);
        assert_eq!(replay.truncated_bytes, (RECORD_LEN - 5) as u64);

        // The log is usable again: new appends land after the good prefix.
        wal.append(&ev(4, 5, 3.0)).expect("append after recovery");
        drop(wal);
        let (_, replay) = Wal::open(&dir, 8).expect("reopen");
        assert_eq!(replay.events, vec![ev(0, 1, 1.0), ev(4, 5, 3.0)]);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn bit_flip_stops_replay_at_the_flip() {
        let dir = scratch_dir("bitflip");
        let (mut wal, _) = Wal::open(&dir, 8).expect("open");
        for i in 0..4 {
            wal.append(&ev(i, (i + 1) % 8, 1.0 + i as f64)).expect("append");
        }
        let path = wal.path().to_path_buf();
        drop(wal);

        // Flip one payload bit in the third record.
        let mut bytes = std::fs::read(&path).expect("read");
        let offset = HEADER_LEN as usize + 2 * RECORD_LEN + 12;
        bytes[offset] ^= 0x40;
        std::fs::write(&path, &bytes).expect("flip");

        let (_, replay) = Wal::open(&dir, 8).expect("recover");
        assert_eq!(replay.events, vec![ev(0, 1, 1.0), ev(1, 2, 2.0)]);
        assert_eq!(replay.truncated_bytes, 2 * RECORD_LEN as u64);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn out_of_range_id_is_treated_as_corruption() {
        let dir = scratch_dir("range");
        let (mut wal, _) = Wal::open(&dir, 8).expect("open");
        wal.append(&ev(0, 1, 1.0)).expect("append");
        // Forge a valid-CRC record whose rater is out of range for n = 8.
        let forged = encode_record(&ev(99, 1, 1.0));
        wal.file.write_all(&forged).expect("forge");
        wal.file.flush().expect("flush");
        drop(wal);

        let (_, replay) = Wal::open(&dir, 8).expect("recover");
        assert_eq!(replay.events, vec![ev(0, 1, 1.0)]);
        assert_eq!(replay.truncated_bytes, RECORD_LEN as u64);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn population_mismatch_refuses_to_open() {
        let dir = scratch_dir("mismatch");
        let (wal, _) = Wal::open(&dir, 8).expect("open");
        drop(wal);
        let err = Wal::open(&dir, 9).expect_err("n mismatch must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn foreign_file_refuses_to_open() {
        let dir = scratch_dir("foreign");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(FILE_NAME), b"definitely not a WAL file").expect("write");
        let err = Wal::open(&dir, 8).expect_err("bad magic must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A crash between `create` and the header's `write_all` leaves 1–15
    /// bytes of header: `open` must finish the creation, not brick the
    /// service until an operator deletes the file.
    #[test]
    fn torn_header_is_rewritten_and_the_log_starts_empty() {
        let header: Vec<u8> = MAGIC.into_iter().chain(8u64.to_le_bytes()).collect();
        for len in 1..HEADER_LEN as usize {
            let dir = scratch_dir("torn-header");
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join(FILE_NAME), &header[..len]).expect("tear");
            let (mut wal, replay) = Wal::open(&dir, 8).expect("a torn creation must open");
            assert_eq!(replay, WalReplay::default(), "prefix of {len} bytes");
            wal.append(&ev(1, 2, 3.0)).expect("append");
            drop(wal);
            let bytes = std::fs::read(dir.join(FILE_NAME)).expect("read");
            assert_eq!(&bytes[..HEADER_LEN as usize], &header[..], "header rewritten whole");
            let (_, replay) = Wal::open(&dir, 8).expect("reopen");
            assert_eq!(replay.events, vec![ev(1, 2, 3.0)]);
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    /// Only a prefix of *this* deployment's header is a torn creation: a
    /// short file that differs anywhere, and a whole header for another
    /// `n`, still refuse (and are left untouched).
    #[test]
    fn short_non_prefix_and_wrong_n_header_still_refuse() {
        let mut short: Vec<u8> = MAGIC.into_iter().chain(8u64.to_le_bytes()).collect();
        short.truncate(15);
        short[14] ^= 1; // inside the high bytes of `n`
        let other_n: Vec<u8> = MAGIC.into_iter().chain(9u64.to_le_bytes()).collect();
        for content in [short, other_n[..9].to_vec(), other_n] {
            let dir = scratch_dir("short-foreign");
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join(FILE_NAME), &content).expect("write");
            let err = Wal::open(&dir, 8).expect_err("not this deployment's header");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read(dir.join(FILE_NAME)).expect("read"), content);
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    /// Seeded cases per property below; a failing assertion names the case
    /// and the drawn inputs.
    const CASES: usize = 64;

    /// `batches.start..batches.end` submissions of `lens` ratings each:
    /// targets below `ids`, scores within ±`scale`.
    fn draw_batches(
        draw: &mut StdRng,
        batches: std::ops::Range<usize>,
        lens: std::ops::Range<usize>,
        ids: u32,
        scale: f64,
    ) -> Vec<Vec<(u32, f64)>> {
        (0..draw.random_range(batches))
            .map(|_| {
                (0..draw.random_range(lens.clone()))
                    .map(|_| (draw.random_range(0..ids), draw.random_range(-scale..scale)))
                    .collect()
            })
            .collect()
    }

    fn node_ratings(ratings: &[(u32, f64)]) -> Vec<(NodeId, f64)> {
        ratings.iter().map(|&(t, s)| (NodeId(t), s)).collect()
    }

    /// Any event sequence round-trips bit-exactly through the framing,
    /// and any tail truncation recovers the longest intact prefix.
    #[test]
    fn records_roundtrip_and_survive_any_truncation() {
        let mut draw = StdRng::seed_from_u64(0x3A1_0001);
        for case in 0..CASES {
            let events: Vec<FeedbackEvent> = (0..draw.random_range(0..40))
                .map(|_| {
                    let (rater, target) = (draw.random_range(0..32), draw.random_range(0..32));
                    ev(rater, target, draw.random_range(-1e9..1e9))
                })
                .collect();
            let cut = draw.random_range(0..=40 * RECORD_LEN).min(events.len() * RECORD_LEN);
            let ctx = format!("case {case}: cut {cut} bytes off {events:?}");
            let dir = scratch_dir("prop");
            let (mut wal, _) = Wal::open(&dir, 32).expect("open");
            for e in &events {
                wal.append(e).expect("append");
            }
            let path = wal.path().to_path_buf();
            drop(wal);

            // Clean reopen: everything comes back bit-for-bit.
            let event_bits = |events: &[FeedbackEvent]| -> Vec<(NodeId, NodeId, u64)> {
                events
                    .iter()
                    .map(|e| (e.rater, e.target, e.score.to_bits()))
                    .collect()
            };
            let (_, replay) = Wal::open(&dir, 32).expect("reopen");
            assert_eq!(event_bits(&replay.events), event_bits(&events), "{ctx}");

            // Truncate `cut` bytes off the tail: the replay is exactly the
            // records that remained whole.
            let bytes = std::fs::read(&path).expect("read");
            std::fs::write(&path, &bytes[..bytes.len() - cut]).expect("truncate");
            let (_, replay) = Wal::open(&dir, 32).expect("recover");
            let whole = (bytes.len() - HEADER_LEN as usize - cut) / RECORD_LEN;
            assert_eq!(event_bits(&replay.events), event_bits(&events[..whole]), "{ctx}");
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    fn front(wal: Wal) -> GroupCommitWal {
        GroupCommitWal::new(wal, GroupCommitObs::default())
    }

    /// Rewrite `events` through sequential `Wal::append` calls in a fresh
    /// directory and return the bytes of that file.
    fn sequential_bytes(events: &[FeedbackEvent], n: usize) -> Vec<u8> {
        let dir = scratch_dir("sequential");
        let (mut seq, _) = Wal::open(&dir, n).expect("open sequential");
        for e in events {
            seq.append(e).expect("sequential append");
        }
        let bytes = std::fs::read(seq.path()).expect("read sequential");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        bytes
    }

    /// The shared front is byte-identical to sequential appends:
    /// whatever order concurrent submitters take the lock in, the file
    /// they leave behind equals a plain `Wal` appending the replayed
    /// event sequence one record at a time — no framing around a
    /// submission, no padding, no reordering inside a batch.
    #[test]
    fn group_commit_file_is_byte_identical_to_sequential_appends() {
        let mut draw = StdRng::seed_from_u64(0x3A1_0002);
        let drawn = (0..CASES).map(|_| draw_batches(&mut draw, 1..6, 1..8, 24, 1e6));
        // Five contending submitters of six ratings each, then a lone one.
        let heavy = (0..5u32)
            .map(|r| {
                (0..6u32)
                    .map(|k| (k % 24, f64::from(r * 10 + k) * 0.5 - 7.0))
                    .collect()
            })
            .collect();
        let corners = [heavy, vec![vec![(3, 1.5), (9, -2.25)]]];
        for (case, per_rater) in drawn.chain(corners).enumerate() {
            let ctx = format!("case {case}: batches {per_rater:?}");
            let dir = scratch_dir("group-prop");
            let (wal, _) = Wal::open(&dir, 24).expect("open");
            let path = wal.path().to_path_buf();
            let group = front(wal);
            // One submitting thread per rater: batches from different raters
            // interleave however the lock happens to order them.
            std::thread::scope(|scope| {
                for (r, ratings) in per_rater.iter().enumerate() {
                    let group = &group;
                    scope.spawn(move || {
                        group
                            .append_batch(NodeId(r as u32), &node_ratings(ratings))
                            .expect("commit");
                    });
                }
            });
            drop(group);

            let grouped_bytes = std::fs::read(&path).expect("read grouped");
            let (_, replay) = Wal::open(&dir, 24).expect("replay grouped");
            let total: usize = per_rater.iter().map(Vec::len).sum();
            assert_eq!(replay.truncated_bytes, 0, "{ctx}: a commit must not tear");
            assert_eq!(replay.events.len(), total, "{ctx}: every acked record is durable");
            assert_eq!(
                grouped_bytes,
                sequential_bytes(&replay.events, 24),
                "{ctx}: on-disk layout must be byte-identical"
            );

            // Each rater's batch stayed contiguous and in order: its records
            // appear as one uninterrupted run.
            for (r, ratings) in per_rater.iter().enumerate() {
                let is_mine = |e: &FeedbackEvent| e.rater.index() == r;
                let first = replay.events.iter().position(is_mine).expect("batch present");
                let run: Vec<(u32, u64)> = replay.events[first..]
                    .iter()
                    .take_while(|e| is_mine(e))
                    .map(|e| (e.target.0, e.score.to_bits()))
                    .collect();
                let want: Vec<(u32, u64)> =
                    ratings.iter().map(|&(t, s)| (t, s.to_bits())).collect();
                assert_eq!(run, want, "{ctx}: rater {r}'s batch must stay contiguous, in order");
                let mine = replay.events.iter().filter(|e| is_mine(e)).count();
                assert_eq!(mine, ratings.len(), "{ctx}: rater {r}");
            }
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    /// A tail torn mid-batch replays the longest valid record prefix —
    /// exactly as for sequentially appended files — and the log keeps
    /// accepting commits after recovery.
    #[test]
    fn torn_tail_mid_group_replays_longest_valid_prefix() {
        let mut draw = StdRng::seed_from_u64(0x3A1_0003);
        let drawn = (0..CASES).map(|_| {
            let batches = draw_batches(&mut draw, 1..5, 1..5, 16, 1e3);
            (batches, draw.random_range(1..=3 * RECORD_LEN))
        });
        // Mid-record, exactly one record, and deeper than one batch.
        let fixed = vec![
            vec![(1, 0.5), (2, 1.5), (3, -0.5)],
            vec![(4, 9.0)],
            vec![(5, 2.0), (6, 3.0)],
        ];
        let corners = [7, RECORD_LEN, 2 * RECORD_LEN + 11].map(|cut| (fixed.clone(), cut));
        for (case, (batches, cut)) in drawn.chain(corners).enumerate() {
            let ctx = format!("case {case}: cut {cut} bytes off batches {batches:?}");
            let dir = scratch_dir("group-torn");
            let (wal, _) = Wal::open(&dir, 16).expect("open");
            let path = wal.path().to_path_buf();
            let group = front(wal);
            for (r, ratings) in batches.iter().enumerate() {
                group
                    .append_batch(NodeId(r as u32), &node_ratings(ratings))
                    .expect("commit");
            }
            drop(group);

            let bytes = std::fs::read(&path).expect("read");
            let cut = cut.min(bytes.len() - HEADER_LEN as usize);
            std::fs::write(&path, &bytes[..bytes.len() - cut]).expect("tear");
            let (wal, replay) = Wal::open(&dir, 16).expect("recover");
            let whole = (bytes.len() - HEADER_LEN as usize - cut) / RECORD_LEN;
            assert_eq!(replay.events.len(), whole, "{ctx}: longest valid prefix");

            // Recovery hands the file back to a fresh front and appends land
            // cleanly after the truncation point.
            let group = front(wal);
            group.append(&ev(3, 4, 5.0)).expect("append after recovery");
            drop(group);
            let (_, replay) = Wal::open(&dir, 16).expect("reopen");
            assert_eq!(replay.events.len(), whole + 1, "{ctx}");
            assert_eq!(replay.events[whole], ev(3, 4, 5.0), "{ctx}");
            assert_eq!(replay.truncated_bytes, 0, "{ctx}");
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    /// splitmix64 — the model test's own generator (no ambient entropy).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Scores the framing must carry bit-for-bit: signed zero, NaNs with
    /// payload bits, subnormals, and arbitrary bit patterns.
    fn model_score(rng: &mut u64) -> f64 {
        match splitmix(rng) % 6 {
            0 => -0.0,
            1 => f64::from_bits(0x7FF8_0000_DEAD_BEEF | (splitmix(rng) & 0xFFFF)),
            2 => f64::from_bits(0xFFF4_0000_0000_0001),
            3 => f64::from_bits(1 + splitmix(rng) % 0x000F_FFFF_FFFF_FFFF),
            4 => f64::from_bits(splitmix(rng)),
            _ => (splitmix(rng) % 2001) as f64 / 1000.0 - 1.0,
        }
    }

    /// One submitter of the model below: 500 seeded submissions — 60 %
    /// single `append`s, 40 % batches of 1–40 ratings — as rater `t`.
    /// Returns what it saw acked, one run of events per submission.
    fn model_submitter(group: &GroupCommitWal, t: u32, n: u64) -> Vec<Vec<FeedbackEvent>> {
        let mut rng = 0xA11C_E5ED_u64 ^ (u64::from(t) << 32);
        let mut acked = Vec::new();
        for _ in 0..500 {
            let batch_len = match splitmix(&mut rng) % 5 {
                0 | 1 => 1 + splitmix(&mut rng) % 40,
                _ => 0,
            };
            let mut rating = || (NodeId((splitmix(&mut rng) % n) as u32), model_score(&mut rng));
            if batch_len == 0 {
                let (target, score) = rating();
                let event = FeedbackEvent { rater: NodeId(t), target, score };
                group.append(&event).expect("append");
                acked.push(vec![event]);
            } else {
                let ratings: Vec<(NodeId, f64)> = (0..batch_len).map(|_| rating()).collect();
                group.append_batch(NodeId(t), &ratings).expect("append_batch");
                let run = ratings.iter().map(|&(target, score)| FeedbackEvent {
                    rater: NodeId(t),
                    target,
                    score,
                });
                acked.push(run.collect());
            }
        }
        acked
    }

    /// Seeded concurrent-submitter model: 4 threads × 500 mixed single
    /// appends and 1–40-rating batches, each thread keeping what it saw
    /// acked. The replayed file holds exactly the acked records, each
    /// thread's in its own submission order, every batch contiguous, and
    /// is byte-identical to sequential appends in replay order.
    #[test]
    fn concurrent_submitters_model_acked_equals_replayed() {
        const THREADS: u32 = 4;
        const N: usize = 64;
        let dir = scratch_dir("model");
        let (wal, _) = Wal::open(&dir, N).expect("open");
        let path = wal.path().to_path_buf();
        let group = front(wal);
        // All submitters leave the gate together, so the lock is contended.
        let gate = std::sync::Barrier::new(THREADS as usize);
        // acked[t] = thread t's submissions.
        let acked: Vec<Vec<Vec<FeedbackEvent>>> = std::thread::scope(|scope| {
            let submit = |t| {
                let (group, gate) = (&group, &gate);
                scope.spawn(move || {
                    gate.wait();
                    model_submitter(group, t, N as u64)
                })
            };
            let handles: Vec<_> = (0..THREADS).map(submit).collect();
            handles.into_iter().map(|h| h.join().expect("submitter")).collect()
        });
        drop(group);

        let file_bytes = std::fs::read(&path).expect("read");
        let (_, replay) = Wal::open(&dir, N).expect("replay");
        assert_eq!(replay.truncated_bytes, 0);
        let total: usize = acked.iter().flatten().map(Vec::len).sum();
        assert_eq!(replay.events.len(), total, "replay is exactly the acked records");

        // Walk the replay with one cursor per thread: (submission, offset).
        let mut cursor = vec![(0usize, 0usize); THREADS as usize];
        let mut open_run: Option<usize> = None;
        for got in &replay.events {
            let t = got.rater.index();
            if let Some(owner) = open_run {
                assert_eq!(t, owner, "a batch must not be interleaved");
            }
            let (sub, off) = &mut cursor[t];
            let run = &acked[t][*sub];
            let want = &run[*off];
            assert_eq!(got.target, want.target, "thread {t} out of submission order");
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "score bits must survive");
            *off += 1;
            open_run = (*off < run.len()).then_some(t);
            if open_run.is_none() {
                (*sub, *off) = (*sub + 1, 0);
            }
        }
        for (t, &(sub, _)) in cursor.iter().enumerate() {
            assert_eq!(sub, acked[t].len(), "every submission of thread {t} replayed");
        }
        assert_eq!(file_bytes, sequential_bytes(&replay.events, N), "byte-identical layout");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Rollback by construction: a commit that writes `k` bytes and then
    /// fails is heard as `Err`, leaves the file at the last committed
    /// boundary, and the log carries on — replay is exactly the acked list.
    #[test]
    fn partial_write_rolls_back_and_the_log_continues() {
        let batch = [(NodeId(1), 1.0), (NodeId(2), 2.0)];
        for k in [0usize, 7, 24, 31] {
            let dir = scratch_dir("rollback");
            let (wal, _) = Wal::open(&dir, 8).expect("open");
            let path = wal.path().to_path_buf();
            let group = front(wal);
            group.append(&ev(0, 1, 0.5)).expect("acked before the fault");
            let committed = HEADER_LEN + RECORD_LEN as u64;

            group.wal.lock().expect("lock").fail_after = Some(k);
            group
                .append_batch(NodeId(3), &batch)
                .expect_err("torn batch must not ack");
            assert_eq!(std::fs::metadata(&path).expect("stat").len(), committed, "k = {k}");
            // k = 31 on a lone 24-byte record: written whole, then the
            // failure — it still must not survive (it was never acked).
            group.wal.lock().expect("lock").fail_after = Some(k);
            group.append(&ev(4, 5, 4.0)).expect_err("failed append must not ack");
            assert_eq!(std::fs::metadata(&path).expect("stat").len(), committed, "k = {k}");

            group
                .append(&ev(6, 7, 6.0))
                .expect("the hook is one-shot; the log continues");
            drop(group);
            let (_, replay) = Wal::open(&dir, 8).expect("reopen");
            assert_eq!(replay.events, vec![ev(0, 1, 0.5), ev(6, 7, 6.0)], "k = {k}");
            assert_eq!(replay.truncated_bytes, 0, "rollback left no torn tail");
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn group_commit_failure_acks_error_to_every_submitter() {
        // A front over a read-only fd: every commit fails, and so does the
        // rollback's `set_len` — the first failure poisons the log. Each
        // submitter must hear an error (no silent ack, no success).
        let dir = scratch_dir("group-fail");
        let (wal, _) = Wal::open(&dir, 8).expect("open");
        let path = wal.path().to_path_buf();
        drop(wal);
        let file = OpenOptions::new().read(true).open(&path).expect("reopen read-only");
        let group = front(Wal::at(file, path, HEADER_LEN));
        let errors: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let group = &group;
                    scope.spawn(move || {
                        group
                            .append_batch(NodeId(r), &[(NodeId(0), 1.0)])
                            .expect_err("read-only fd must fail the commit")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("submitter")).collect()
        });
        assert_eq!(errors.len(), 4);
        drop(group);
        // Nothing was acked, and indeed nothing is durable.
        let (_, replay) = Wal::open(&dir, 8).expect("reopen");
        assert!(replay.events.is_empty(), "failed commits must leave no records");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A holder that panics mid-commit leaves the mutex poisoned: later
    /// appends are refused, never acknowledged.
    #[test]
    fn lock_poisoned_by_a_panicking_holder_refuses_later_appends() {
        let dir = scratch_dir("lock-poison");
        let (wal, _) = Wal::open(&dir, 8).expect("open");
        let group = front(wal);
        group.append(&ev(0, 1, 1.0)).expect("acked before the panic");
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = group.wal.lock().expect("lock");
                panic!("holder dies with the WAL lock held");
            });
            assert!(holder.join().is_err());
        });
        let err = group.append(&ev(2, 3, 2.0)).expect_err("must refuse");
        assert!(err.contains("panicked"), "{err}");
        group
            .append_batch(NodeId(4), &[(NodeId(5), 1.0)])
            .expect_err("must refuse");
        drop(group);
        let (_, replay) = Wal::open(&dir, 8).expect("reopen");
        assert_eq!(replay.events, vec![ev(0, 1, 1.0)]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// One commit per submission, recorded as what it is; an empty batch
    /// is no commit at all.
    #[test]
    fn empty_batch_is_ok_and_records_no_commit() {
        let dir = scratch_dir("empty-batch");
        let (wal, _) = Wal::open(&dir, 8).expect("open");
        let path = wal.path().to_path_buf();
        let obs = GroupCommitObs {
            group_records: Some(Arc::new(Histogram::new())),
            commit_ns: Some(Arc::new(Histogram::new())),
        };
        let group = GroupCommitWal::new(wal, obs.clone());
        group.append_batch(NodeId(0), &[]).expect("empty batch is Ok");
        assert_eq!(obs.group_records.as_ref().expect("set").snapshot().count, 0);
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), HEADER_LEN);
        group.append(&ev(0, 1, 1.0)).expect("append");
        group
            .append_batch(NodeId(2), &[(NodeId(3), 1.0), (NodeId(4), 2.0), (NodeId(5), 3.0)])
            .expect("batch");
        let groups = obs.group_records.as_ref().expect("set").snapshot();
        assert_eq!((groups.count, groups.sum), (2, 4), "one submission per commit");
        assert_eq!(obs.commit_ns.as_ref().expect("set").snapshot().count, 2);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// There is no thread to join and no queue to drain: once `append`
    /// returned, the record is in the file, whatever happens to the front.
    #[test]
    fn drop_with_no_thread_to_join_everything_acked_replays() {
        let dir = scratch_dir("group-drop");
        let (wal, _) = Wal::open(&dir, 8).expect("open");
        let group = front(wal);
        for i in 0..20u32 {
            group.append(&ev(i % 8, (i + 1) % 8, i as f64)).expect("commit");
            // Visible to a fresh reader before the front is dropped.
            let len = std::fs::metadata(dir.join(FILE_NAME)).expect("stat").len();
            assert_eq!(len, HEADER_LEN + u64::from(i + 1) * RECORD_LEN as u64);
        }
        drop(group);
        let (_, replay) = Wal::open(&dir, 8).expect("reopen");
        assert_eq!(replay.events.len(), 20);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
