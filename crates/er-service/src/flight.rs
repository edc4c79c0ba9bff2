//! The anomaly flight recorder: always-on bounded rings of recent
//! context, dumped as a self-contained JSON debug bundle when something
//! goes wrong.
//!
//! The recorder itself holds only cheap, bounded state — a structured
//! [`EventLog`] and a ring of periodic stats snapshots. Bundle *assembly*
//! (traces, SLO windows, health) lives in the service, which owns those
//! sources; the recorder's job is remembering the recent past and
//! deciding when a trigger fires (per-reason rate limiting, so a flapping
//! breaker cannot fill the disk with identical bundles).
//!
//! Triggers wired by the service: circuit-breaker open, WAL degradation,
//! recovery conservation violations, SLO fast burn. `GET /debug/bundle`
//! assembles the same bundle on demand.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use obs::EventLog;

use crate::sync::lock;

/// Periodic stats snapshots retained (one per [`SNAPSHOT_INTERVAL`]).
const SNAPSHOT_CAPACITY: usize = 32;
/// Minimum spacing between periodic snapshots.
const SNAPSHOT_INTERVAL: Duration = Duration::from_secs(1);
/// Minimum spacing between two bundles for the *same* trigger reason.
const TRIGGER_INTERVAL: Duration = Duration::from_secs(5);
/// Structured events retained.
const EVENT_CAPACITY: usize = 256;

/// One retained stats snapshot.
struct Snapshot {
    at_us: u64,
    json: String,
}

/// The always-on recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    started: Instant,
    events: EventLog,
    snapshots: Mutex<Vec<Snapshot>>,
    last_snapshot: Mutex<Option<Instant>>,
    /// Last bundle time per trigger reason (rate limiting).
    last_trigger: Mutex<HashMap<&'static str, Instant>>,
    /// Where bundles are written (`None` = in-memory only; `GET
    /// /debug/bundle` still works).
    dir: Option<PathBuf>,
    bundles_written: AtomicU64,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("at_us", &self.at_us)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder writing bundles under `dir` when given.
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            started: Instant::now(),
            events: EventLog::new(EVENT_CAPACITY),
            snapshots: Mutex::new(Vec::new()),
            last_snapshot: Mutex::new(None),
            last_trigger: Mutex::new(HashMap::new()),
            dir,
            bundles_written: AtomicU64::new(0),
        }
    }

    /// Records a structured event (`kind` is a stable lowercase slug).
    pub fn event(&self, kind: &'static str, detail: String) {
        self.events.record(kind, detail);
    }

    /// True when a periodic snapshot is due. Callers check this *before*
    /// paying to assemble the snapshot JSON; a `true` claims the slot.
    pub fn snapshot_due(&self) -> bool {
        let mut last = lock(&self.last_snapshot);
        let now = Instant::now();
        match *last {
            Some(at) if now.duration_since(at) < SNAPSHOT_INTERVAL => false,
            _ => {
                *last = Some(now);
                true
            }
        }
    }

    /// Pushes one stats snapshot into the bounded ring.
    pub fn snapshot(&self, json: String) {
        let at_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut ring = lock(&self.snapshots);
        if ring.len() >= SNAPSHOT_CAPACITY {
            ring.remove(0);
        }
        ring.push(Snapshot { at_us, json });
    }

    /// Whether a bundle for `reason` should be produced now. A `true`
    /// claims the slot: the same reason stays quiet for the next
    /// [`TRIGGER_INTERVAL`].
    pub fn should_trigger(&self, reason: &'static str) -> bool {
        let mut last = lock(&self.last_trigger);
        let now = Instant::now();
        match last.get(reason) {
            Some(&at) if now.duration_since(at) < TRIGGER_INTERVAL => false,
            _ => {
                last.insert(reason, now);
                true
            }
        }
    }

    /// The recent-events portion of a bundle (newest first).
    pub fn events_json(&self) -> String {
        self.events.recent_json(EVENT_CAPACITY)
    }

    /// The snapshot-ring portion of a bundle (oldest first).
    pub fn snapshots_json(&self) -> String {
        let ring = lock(&self.snapshots);
        let mut out = String::from("[");
        for (i, snap) in ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_us\":{},\"stats\":{}}}",
                snap.at_us, snap.json
            ));
        }
        out.push(']');
        out
    }

    /// Writes an assembled bundle to `dir` as
    /// `bundle-<seq>-<reason>.json`. Returns the path, or `None` when no
    /// directory is configured or the write failed (failure to record a
    /// debug artifact must never take the service down).
    pub fn write_bundle(&self, reason: &str, bundle: &str) -> Option<PathBuf> {
        let dir = self.dir.as_deref()?;
        let seq = self.bundles_written.fetch_add(1, Ordering::Relaxed);
        let safe_reason: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("bundle-{seq}-{safe_reason}.json"));
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        match std::fs::write(&path, bundle) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("er-service: flight recorder bundle write failed: {e}");
                None
            }
        }
    }

    /// Bundles written to disk so far.
    pub fn bundles_written(&self) -> u64 {
        self.bundles_written.load(Ordering::Relaxed)
    }

    /// The configured bundle directory.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_rate_limit_per_reason() {
        let fr = FlightRecorder::new(None);
        assert!(fr.should_trigger("breaker_open"));
        assert!(
            !fr.should_trigger("breaker_open"),
            "same reason inside the interval"
        );
        assert!(
            fr.should_trigger("wal_degraded"),
            "different reason is independent"
        );
    }

    #[test]
    fn snapshot_ring_is_bounded() {
        let fr = FlightRecorder::new(None);
        for i in 0..(SNAPSHOT_CAPACITY + 10) {
            fr.snapshot(format!("{{\"i\":{i}}}"));
        }
        let json = fr.snapshots_json();
        assert!(!json.contains("\"i\":0"), "oldest evicted: {json}");
        assert!(
            json.contains(&format!("\"i\":{}", SNAPSHOT_CAPACITY + 9)),
            "{json}"
        );
        assert_eq!(json.matches("at_us").count(), SNAPSHOT_CAPACITY);
    }

    #[test]
    fn bundles_write_to_disk_with_sanitized_names() {
        let dir = std::env::temp_dir().join(format!("er-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(Some(dir.clone()));
        let path = fr
            .write_bundle("slo fast-burn", "{\"reason\":\"test\"}")
            .expect("bundle written");
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("slo_fast_burn"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"reason\":\"test\"}");
        assert_eq!(fr.bundles_written(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_dir_means_no_write_but_no_error() {
        let fr = FlightRecorder::new(None);
        assert!(fr.write_bundle("x", "{}").is_none());
    }
}
