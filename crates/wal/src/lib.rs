//! `wal` — an embedded, zero-dependency, segmented append-only log.
//!
//! The durability contract, from weakest to strongest:
//!
//! * Every append is written through to the kernel before the call
//!   returns (the file handle is unbuffered), so records survive a
//!   process kill (`SIGKILL`) under **every** sync policy — only the
//!   machine losing power can drop unsynced bytes.
//! * [`SyncPolicy::Batched`] additionally fsyncs every N records;
//!   [`SyncPolicy::Always`] fsyncs after every append call, bounding
//!   power-loss exposure to zero completed appends.
//!
//! Records are CRC-framed ([`frame`]); on open the last segment's torn
//! tail (a partial write from a crash) is detected and physically
//! truncated, while invalid bytes in any *earlier* segment are reported
//! as hard [`WalError::Corrupt`] — a sealed segment has no business
//! changing. Offsets returned by [`Wal::append`] are global log offsets
//! (bytes since the first record ever written), the same coordinate
//! system [`testing::crash_at_offset`] cuts at.
//!
//! Writes can be failure-scripted through [`FaultSchedule`] for
//! deterministic crash testing; see [`fault`].

mod fault;
pub mod frame;
pub mod testing;

pub use fault::{FaultSchedule, WalFault};

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When appended records are fsynced to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append call. Zero completed appends lost on
    /// power failure; the slowest option.
    Always,
    /// `fsync` once at least `every` records are unsynced: power-loss
    /// exposure bounded by `every` records. Not free: the fsync runs
    /// inline, on the append that crosses `every`. On the benchmark's
    /// `serve_fresh` (every 32 records, one fsync per 8 two-question
    /// batches; 2-vCPU box) 1,633 fsyncs of 340–440 µs each took 555 and
    /// 724 ms of two 3.84 and 4.10 s runs, 14–18% of the wall time.
    Batched { every: u32 },
    /// Never fsync on the append path (segments are still synced when
    /// sealed and on drop). Process kills lose nothing; power loss may
    /// drop any unsynced suffix.
    Never,
}

/// Open-time options.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Segment roll threshold in bytes. A segment is sealed (fsynced)
    /// once it reaches this size and a fresh file is started.
    pub segment_bytes: u64,
    pub sync: SyncPolicy,
    /// Scripted write failures; empty = always healthy.
    pub faults: FaultSchedule,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 8 << 20,
            sync: SyncPolicy::Batched { every: 32 },
            faults: FaultSchedule::none(),
        }
    }
}

/// Everything that can go wrong appending to or opening the log.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    /// Invalid frames somewhere other than the tail of the last segment.
    Corrupt {
        segment: u64,
        offset: u64,
        detail: String,
    },
    /// A single record larger than [`frame::MAX_RECORD`].
    RecordTooLarge(usize),
    /// The log wedged after a torn or failed write of unknown extent;
    /// it must be reopened (which truncates the torn tail) to continue.
    Wedged,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { segment, offset, detail } => write!(
                f,
                "wal corrupt: segment {segment} offset {offset}: {detail}"
            ),
            WalError::RecordTooLarge(n) => write!(f, "wal record too large: {n} bytes"),
            WalError::Wedged => write!(f, "wal wedged by a prior failed write; reopen to recover"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid records replayed to the `on_record` callback.
    pub records: u64,
    /// Valid bytes retained across all segments (frames included).
    pub bytes: u64,
    /// Segment files found on disk.
    pub segments: u64,
    /// Invalid tail bytes physically truncated from the last segment.
    pub truncated_bytes: u64,
    /// Whether a torn tail was found (and truncated).
    pub torn_tail: bool,
}

/// Point-in-time write-path status, for health endpoints.
#[derive(Debug, Clone, Copy)]
pub struct WalStatus {
    /// Global log size: bytes of valid frames ever appended.
    pub total_bytes: u64,
    pub segments: u64,
    /// Records appended this process (replayed records not included).
    pub appends: u64,
    pub fsyncs: u64,
    /// Records written through to the kernel but not yet fsynced.
    pub unsynced_appends: u64,
    /// Time since the last fsync (`None` before the first one).
    pub last_sync_age: Option<Duration>,
    pub wedged: bool,
}

struct Writer {
    file: File,
    dir: PathBuf,
    options: WalOptions,
    /// Sequence number of the segment currently appended to.
    seg_seq: u64,
    /// Bytes in the current segment.
    seg_bytes: u64,
    /// Global offset of the current segment's first byte.
    base_offset: u64,
    appends: u64,
    fsyncs: u64,
    unsynced_appends: u64,
    last_sync: Option<Instant>,
    wedged: bool,
}

/// The log. All methods take `&self`; appends serialize on an internal
/// lock (one writer at a time is the point of a WAL).
pub struct Wal {
    writer: Mutex<Writer>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = self.lock();
        f.debug_struct("Wal")
            .field("dir", &w.dir)
            .field("seg_seq", &w.seg_seq)
            .field("total_bytes", &(w.base_offset + w.seg_bytes))
            .field("wedged", &w.wedged)
            .finish()
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:016}.wal"))
}

/// Segment sequence numbers present in `dir`, ascending. Non-segment
/// files are ignored.
pub(crate) fn segment_seqs(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name.strip_suffix(".wal") {
            if let Ok(seq) = stem.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

impl Wal {
    /// Opens (creating if needed) the log in `dir`, replaying every valid
    /// record into `on_record` in append order. A torn tail on the last
    /// segment is truncated; invalid frames anywhere else are
    /// [`WalError::Corrupt`].
    pub fn open(
        dir: &Path,
        options: WalOptions,
        mut on_record: impl FnMut(&[u8]),
    ) -> Result<(Wal, RecoveryStats), WalError> {
        std::fs::create_dir_all(dir)?;
        let seqs = segment_seqs(dir)?;
        let mut stats = RecoveryStats { segments: seqs.len() as u64, ..RecoveryStats::default() };

        let mut total_bytes = 0u64;
        for (i, &seq) in seqs.iter().enumerate() {
            let path = segment_path(dir, seq);
            let buf = std::fs::read(&path)?;
            let last = i + 1 == seqs.len();
            let (valid, stop) = frame::scan(&buf, |payload| {
                stats.records += 1;
                on_record(payload);
            });
            if valid < buf.len() as u64 {
                let detail = stop.map(|s| s.to_string()).unwrap_or_default();
                if !last {
                    return Err(WalError::Corrupt { segment: seq, offset: valid, detail });
                }
                OpenOptions::new().write(true).open(&path)?.set_len(valid)?;
                stats.truncated_bytes = buf.len() as u64 - valid;
                stats.torn_tail = true;
            }
            total_bytes += valid;
        }
        stats.bytes = total_bytes;

        let seg_seq = seqs.last().copied().unwrap_or(0);
        let path = segment_path(dir, seg_seq);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false) // re-opening the live tail: existing records must survive
            .write(true)
            .open(&path)?;
        let seg_bytes = file.seek(SeekFrom::End(0))?;
        let writer = Writer {
            file,
            dir: dir.to_path_buf(),
            options,
            seg_seq,
            seg_bytes,
            base_offset: total_bytes - seg_bytes,
            appends: 0,
            fsyncs: 0,
            unsynced_appends: 0,
            last_sync: Some(Instant::now()),
            wedged: false,
        };
        Ok((Wal { writer: Mutex::new(writer) }, stats))
    }

    /// Appends one record. Returns the global log offset of the byte
    /// *after* this record (i.e. the log's new total length).
    pub fn append(&self, payload: &[u8]) -> Result<u64, WalError> {
        self.append_all(std::iter::once(payload))
    }

    /// Appends a group of records as one physical write (and, under
    /// [`SyncPolicy::Always`], one fsync) — the cheap way to journal a
    /// batch outcome. Consumes one fault-schedule slot. Returns the
    /// global end offset after the last record.
    pub fn append_all<'a, I>(&self, payloads: I) -> Result<u64, WalError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut buf = Vec::new();
        let mut count = 0u64;
        for p in payloads {
            if p.len() > frame::MAX_RECORD {
                return Err(WalError::RecordTooLarge(p.len()));
            }
            frame::encode_into(&mut buf, p);
            count += 1;
        }
        let mut w = self.lock();
        if w.wedged {
            return Err(WalError::Wedged);
        }
        if count == 0 {
            return Ok(w.base_offset + w.seg_bytes);
        }

        match w.options.faults.next() {
            Some(WalFault::IoError) => {
                // Clean failure: nothing written, log stays usable.
                return Err(WalError::Io(std::io::Error::other(
                    "injected wal write error",
                )));
            }
            Some(WalFault::TornWrite { keep }) => {
                let keep = (keep as usize).min(buf.len());
                let torn = w.file.write_all(&buf[..keep]);
                w.seg_bytes += keep as u64;
                w.wedged = true;
                torn?;
                return Err(WalError::Wedged);
            }
            None => {}
        }

        if let Err(e) = w.file.write_all(&buf) {
            // Partial write of unknown extent: wedge until reopen.
            w.wedged = true;
            return Err(WalError::Io(e));
        }
        w.seg_bytes += buf.len() as u64;
        w.appends += count;
        w.unsynced_appends += count;

        match w.options.sync {
            SyncPolicy::Always => sync_writer(&mut w)?,
            SyncPolicy::Batched { every } => {
                if w.unsynced_appends >= every as u64 {
                    sync_writer(&mut w)?;
                }
            }
            SyncPolicy::Never => {}
        }

        if w.seg_bytes >= w.options.segment_bytes {
            roll_segment(&mut w)?;
        }
        Ok(w.base_offset + w.seg_bytes)
    }

    /// Current write-path status.
    pub fn status(&self) -> WalStatus {
        let w = self.lock();
        WalStatus {
            total_bytes: w.base_offset + w.seg_bytes,
            segments: w.seg_seq + 1,
            appends: w.appends,
            fsyncs: w.fsyncs,
            unsynced_appends: w.unsynced_appends,
            last_sync_age: w.last_sync.map(|t| t.elapsed()),
            wedged: w.wedged,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let mut w = self.lock();
        if !w.wedged && w.unsynced_appends > 0 {
            let _ = sync_writer(&mut w);
        }
    }
}

fn sync_writer(w: &mut Writer) -> Result<(), WalError> {
    if let Err(e) = w.file.sync_data() {
        // A failed fsync leaves the device state unknown.
        w.wedged = true;
        return Err(WalError::Io(e));
    }
    w.fsyncs += 1;
    w.unsynced_appends = 0;
    w.last_sync = Some(Instant::now());
    Ok(())
}

/// Seals the current segment (fsync) and starts the next one.
fn roll_segment(w: &mut Writer) -> Result<(), WalError> {
    sync_writer(w)?;
    let next = w.seg_seq + 1;
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(segment_path(&w.dir, next))?;
    w.base_offset += w.seg_bytes;
    w.seg_bytes = 0;
    w.seg_seq = next;
    w.file = file;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wal-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn collect_open(dir: &Path, options: WalOptions) -> (Wal, RecoveryStats, Vec<Vec<u8>>) {
        let mut seen = Vec::new();
        let (wal, stats) = Wal::open(dir, options, |p| seen.push(p.to_vec())).expect("open");
        (wal, stats, seen)
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = temp_dir("roundtrip");
        let (wal, stats, seen) = collect_open(&dir, WalOptions::default());
        assert_eq!(stats, RecoveryStats::default());
        assert!(seen.is_empty());
        let mut end = 0;
        for i in 0..10u32 {
            end = wal.append(&i.to_le_bytes()).expect("append");
        }
        assert_eq!(end, 10 * (frame::HEADER_BYTES as u64 + 4));
        drop(wal);

        let (_wal, stats, seen) = collect_open(&dir, WalOptions::default());
        assert_eq!(stats.records, 10);
        assert_eq!(stats.bytes, end);
        assert!(!stats.torn_tail);
        let want: Vec<Vec<u8>> = (0..10u32).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(seen, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_replay_across_files() {
        let dir = temp_dir("roll");
        let options = WalOptions { segment_bytes: 64, ..WalOptions::default() };
        let (wal, _, _) = collect_open(&dir, options.clone());
        for i in 0..20u64 {
            wal.append(&i.to_le_bytes()).expect("append");
        }
        assert!(wal.status().segments > 1, "{:?}", wal.status());
        drop(wal);
        let (_wal, stats, seen) = collect_open(&dir, options);
        assert_eq!(stats.records, 20);
        assert!(stats.segments > 1);
        assert_eq!(seen.len(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_all_is_one_fsync_under_always() {
        let dir = temp_dir("group");
        let options = WalOptions { sync: SyncPolicy::Always, ..WalOptions::default() };
        let (wal, _, _) = collect_open(&dir, options);
        let records: Vec<&[u8]> = vec![b"a", b"bb", b"ccc"];
        wal.append_all(records).expect("append_all");
        let status = wal.status();
        assert_eq!(status.appends, 3);
        assert_eq!(status.fsyncs, 1);
        assert_eq!(status.unsynced_appends, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_io_error_is_clean_and_torn_write_wedges() {
        let dir = temp_dir("faults");
        let options = WalOptions {
            faults: FaultSchedule::of([
                None,
                Some(WalFault::IoError),
                None,
                Some(WalFault::TornWrite { keep: 5 }),
            ]),
            ..WalOptions::default()
        };
        let (wal, _, _) = collect_open(&dir, options);
        wal.append(b"first").expect("healthy slot");
        assert!(matches!(wal.append(b"dropped"), Err(WalError::Io(_))));
        wal.append(b"second").expect("healthy after clean failure");
        assert!(matches!(wal.append(b"torn"), Err(WalError::Wedged)));
        assert!(wal.status().wedged);
        assert!(matches!(wal.append(b"after"), Err(WalError::Wedged)));
        drop(wal);

        // Reopen truncates the 5 torn bytes and keeps the two records.
        let (_wal, stats, seen) = collect_open(&dir, WalOptions::default());
        assert_eq!(stats.records, 2);
        assert!(stats.torn_tail);
        assert_eq!(stats.truncated_bytes, 5);
        assert_eq!(seen, vec![b"first".to_vec(), b"second".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sealed_segment_is_a_hard_error() {
        let dir = temp_dir("sealed");
        let options = WalOptions { segment_bytes: 32, ..WalOptions::default() };
        let (wal, _, _) = collect_open(&dir, options.clone());
        for i in 0..8u64 {
            wal.append(&i.to_le_bytes()).expect("append");
        }
        drop(wal);
        let seqs = segment_seqs(&dir).unwrap();
        assert!(seqs.len() > 1);
        // Flip a byte in the first (sealed) segment.
        let path = segment_path(&dir, seqs[0]);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = match Wal::open(&dir, options, |_| {}) {
            Err(err) => err,
            Ok(_) => panic!("corrupt sealed segment must refuse to open"),
        };
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
