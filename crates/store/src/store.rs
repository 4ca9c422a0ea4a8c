//! The sharded store: per-shard segment logs, in-memory indexes, and
//! the warm-start scan.
//!
//! Keys are routed to a shard by their **first byte** — by store
//! convention the first byte of the canonical quotient encoding
//! `s(G_*)`, so lifts of different base families land on (mostly)
//! different shards. Each shard owns its own [`Mutex`]: appends and
//! lookups on independent shards proceed concurrently.
//!
//! The in-memory index is a [`BTreeMap`] keyed by `(namespace, key)`:
//! deterministic iteration order makes the warm-scan order and the
//! `keys()` listing reproducible — the same discipline the workspace's
//! determinism lint enforces on the derandomization crates.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use anonet_obs::{names, noop, Recorder, SharedRecorder, Span};

use crate::error::{Result, StoreError};
use crate::segment::{
    self, parse_segment_id, segment_file_name, Record, RecordKind, SegmentWriter, HEADER_LEN,
    MAX_PAYLOAD,
};

/// Everything configurable about a [`Store`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Root directory; shard subdirectories are created beneath it.
    pub dir: PathBuf,
    /// Number of key-prefix shards (1..=256).
    pub shards: usize,
    /// Active-segment roll threshold in bytes.
    pub segment_bytes: u64,
    /// `true` to fsync after every append (slow, maximally durable);
    /// `false` to sync only on [`Store::flush`] and segment rolls.
    pub sync_writes: bool,
    /// Observability sink for `store.*` metrics and spans.
    pub recorder: SharedRecorder,
}

impl StoreConfig {
    /// A config with the workspace defaults: 16 shards, 4 MiB segments,
    /// no per-write fsync, no-op recorder.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            shards: 16,
            segment_bytes: 4 << 20,
            sync_writes: false,
            recorder: noop(),
        }
    }

    /// Overrides the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the segment roll threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Enables fsync-per-append durability.
    pub fn with_sync_writes(mut self, sync: bool) -> Self {
        self.sync_writes = sync;
        self
    }

    /// Attaches an observability recorder.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }
}

/// Where a live record lives on disk.
#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    segment: u64,
    offset: u64,
    frame_len: u32,
}

/// Per-shard monotone counters, aggregated into [`StoreStats`].
#[derive(Clone, Copy, Debug, Default)]
struct ShardCounters {
    appends: u64,
    rolls: u64,
    torn_truncations: u64,
    quarantined_regions: u64,
    quarantined_bytes: u64,
    recovered_records: u64,
}

#[derive(Debug)]
struct ShardState {
    dir: PathBuf,
    active: SegmentWriter,
    /// Read handles for every segment (the active one included).
    readers: BTreeMap<u64, (PathBuf, File)>,
    index: BTreeMap<(u8, Vec<u8>), IndexEntry>,
    /// Bytes of live frames (indexed records).
    live_bytes: u64,
    /// Bytes of superseded/tombstoned frames and quarantined regions.
    dead_bytes: u64,
    /// Total segment-file bytes on disk (headers included).
    disk_bytes: u64,
    counters: ShardCounters,
}

/// A point-in-time snapshot of store accounting, aggregated over shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Shard count.
    pub shards: usize,
    /// Segment files on disk.
    pub segments: usize,
    /// Live (indexed) records.
    pub live_records: usize,
    /// Bytes of live frames.
    pub live_bytes: u64,
    /// Bytes of dead frames (superseded puts, tombstones).
    pub dead_bytes: u64,
    /// Total segment bytes on disk.
    pub disk_bytes: u64,
    /// Frames appended over the store's lifetime (this process).
    pub appends: u64,
    /// Active-segment rolls.
    pub rolls: u64,
    /// Torn tails truncated during recovery.
    pub torn_truncations: u64,
    /// Mid-file damaged regions quarantined by CRC resynchronization
    /// during recovery (closed-segment corruption, not torn tails).
    pub quarantined_regions: u64,
    /// Bytes inside quarantined regions.
    pub quarantined_bytes: u64,
    /// Intact records recovered by open-time scans.
    pub recovered_records: u64,
}

/// A log-structured, sharded, crash-safe key/value store.
///
/// See the crate docs for the file format and recovery contract. All
/// methods take `&self`; shards lock independently.
///
/// # Example
///
/// ```
/// use anonet_store::{Store, StoreConfig};
///
/// # fn main() -> Result<(), anonet_store::StoreError> {
/// let dir = std::env::temp_dir().join(format!("anonet-store-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let store = Store::open(StoreConfig::new(&dir))?;
/// store.put(0, b"s(G_*) bytes", b"canonical tapes")?;
/// assert_eq!(store.get(0, b"s(G_*) bytes")?.as_deref(), Some(&b"canonical tapes"[..]));
/// store.flush()?;
/// drop(store);
/// // A reopened store recovers the record from its segments.
/// let reopened = Store::open(StoreConfig::new(&dir))?;
/// assert_eq!(reopened.get(0, b"s(G_*) bytes")?.as_deref(), Some(&b"canonical tapes"[..]));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Store {
    cfg: StoreConfig,
    shards: Vec<Mutex<ShardState>>,
}

impl Store {
    /// Opens (creating if absent) the store at `cfg.dir`, scanning every
    /// segment, truncating torn tails, and rebuilding the in-memory
    /// indexes.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] for unusable knobs; I/O errors; and
    /// [`StoreError::Corrupt`] for damage recovery cannot attribute to a
    /// torn tail (foreign files, checksummed-but-undecodable frames).
    pub fn open(cfg: StoreConfig) -> Result<Store> {
        if cfg.shards == 0 || cfg.shards > 256 {
            return Err(StoreError::InvalidConfig {
                detail: format!("shards must be 1..=256, got {}", cfg.shards),
            });
        }
        if cfg.segment_bytes < 64 {
            return Err(StoreError::InvalidConfig {
                detail: format!("segment_bytes must be >= 64, got {}", cfg.segment_bytes),
            });
        }
        let mut shards = Vec::with_capacity(cfg.shards);
        {
            let rec: &dyn Recorder = &*cfg.recorder;
            let _open_span = Span::new(rec, names::SPAN_STORE_OPEN);
            std::fs::create_dir_all(&cfg.dir).map_err(|e| {
                StoreError::io(format!("creating store dir {}", cfg.dir.display()), e)
            })?;
            for s in 0..cfg.shards {
                let recover_span = Span::new(rec, names::SPAN_SEGMENT_RECOVER);
                let state = open_shard(&cfg, s)?;
                recover_span.attr("shard", s as u64);
                recover_span.attr("recovered", state.counters.recovered_records);
                rec.counter(names::STORE_SEGMENT_RECOVERED, state.counters.recovered_records);
                rec.counter(names::STORE_SEGMENT_TORN, state.counters.torn_truncations);
                rec.counter(names::STORE_SEGMENT_QUARANTINED, state.counters.quarantined_regions);
                shards.push(Mutex::new(state));
            }
        }
        Ok(Store { cfg, shards })
    }

    /// The shard a key routes to: its first byte modulo the shard count
    /// (keys start with `s(G_*)`, so this is quotient-prefix sharding).
    pub fn shard_of(&self, key: &[u8]) -> usize {
        key.first().copied().unwrap_or(0) as usize % self.cfg.shards
    }

    /// The shard count.
    pub fn shard_count(&self) -> usize {
        self.cfg.shards
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Locks shard `s`, recovering the guard if the mutex is poisoned.
    ///
    /// Poisoning policy: a panic on one writer thread must not brick the
    /// shard for every later caller, so this always takes
    /// `PoisonError::into_inner`. That is sound because mutations under
    /// the lock are ordered so the in-memory state is consistent after
    /// every step: the frame is appended (and optionally synced) before
    /// the index points at it, and byte accounting follows the index
    /// insert. A panic mid-update can therefore lose at most the
    /// bookkeeping of the interrupted write — never a committed
    /// key→offset mapping — and all derived state is rebuilt from the
    /// segments on reopen anyway. The regression test
    /// `tests/lock_poisoning.rs` pins this: after a writer panics while
    /// holding the shard lock, the same shard must keep serving reads
    /// and accepting writes.
    fn lock_shard(&self, s: usize) -> MutexGuard<'_, ShardState> {
        self.shards[s].lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Binds `key` to `value` in namespace `ns` (latest write wins),
    /// appending one frame to the key's shard.
    ///
    /// # Errors
    ///
    /// I/O errors; [`StoreError::Codec`] for oversized payloads.
    pub fn put(&self, ns: u8, key: &[u8], value: &[u8]) -> Result<()> {
        let record = Record { kind: RecordKind::Put, ns, key: key.to_vec(), value: value.to_vec() };
        let frame = record.encode_frame();
        if frame.len() as u64 > MAX_PAYLOAD as u64 {
            return Err(StoreError::codec(format!(
                "record of {} bytes exceeds the {} byte frame cap",
                frame.len(),
                MAX_PAYLOAD
            )));
        }
        let rec: &dyn Recorder = &*self.cfg.recorder;
        let write_span = Span::new(rec, names::SPAN_SEGMENT_WRITE);
        write_span.attr("bytes", frame.len() as u64);
        let s = self.shard_of(key);
        let mut guard = self.lock_shard(s);
        let st = &mut *guard;
        self.roll_if_needed(st, frame.len() as u64)?;
        let offset = st.active.append(&frame)?;
        if self.cfg.sync_writes {
            st.active.sync()?;
        }
        st.disk_bytes += frame.len() as u64;
        let entry = IndexEntry { segment: st.active.id, offset, frame_len: frame.len() as u32 };
        if let Some(old) = st.index.insert((ns, key.to_vec()), entry) {
            st.dead_bytes += u64::from(old.frame_len);
            st.live_bytes -= u64::from(old.frame_len);
        }
        st.live_bytes += frame.len() as u64;
        st.counters.appends += 1;
        rec.counter(names::STORE_SEGMENT_APPENDS, 1);
        rec.counter(names::STORE_SEGMENT_BYTES, frame.len() as u64);
        Ok(())
    }

    /// Looks up `key` in namespace `ns`, reading the record back from its
    /// segment (the index holds offsets, not values).
    ///
    /// # Errors
    ///
    /// I/O errors; [`StoreError::Corrupt`] if the frame on disk fails its
    /// checksum or no longer matches the key (either indicates damage
    /// *behind* the index, which recovery would have caught on open).
    pub fn get(&self, ns: u8, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let rec: &dyn Recorder = &*self.cfg.recorder;
        let read_span = Span::new(rec, names::SPAN_SEGMENT_READ);
        let s = self.shard_of(key);
        let mut guard = self.lock_shard(s);
        let st = &mut *guard;
        let Some(&IndexEntry { segment, offset, frame_len }) = st.index.get(&(ns, key.to_vec()))
        else {
            return Ok(None);
        };
        let Some((path, file)) = st.readers.get_mut(&segment) else {
            return Err(StoreError::Corrupt {
                segment: st.dir.join(segment_file_name(segment)),
                offset,
                detail: "index points at a segment with no reader (internal invariant)".into(),
            });
        };
        let record = segment::read_frame(file, path, offset, frame_len)?;
        if record.ns != ns || record.key != key {
            return Err(StoreError::Corrupt {
                segment: path.clone(),
                offset,
                detail: "frame key does not match the index (internal invariant)".into(),
            });
        }
        read_span.attr("bytes", record.value.len() as u64);
        rec.counter(names::STORE_SEGMENT_READS, 1);
        rec.counter(names::STORE_SEGMENT_READ_BYTES, record.value.len() as u64);
        Ok(Some(record.value))
    }

    /// `true` iff `key` is live in namespace `ns`.
    pub fn contains(&self, ns: u8, key: &[u8]) -> bool {
        let s = self.shard_of(key);
        self.lock_shard(s).index.contains_key(&(ns, key.to_vec()))
    }

    /// Rolls the active segment if appending `incoming` bytes would cross
    /// the threshold (never rolls an empty segment).
    fn roll_if_needed(&self, st: &mut ShardState, incoming: u64) -> Result<()> {
        if st.active.len + incoming <= self.cfg.segment_bytes || st.active.len <= HEADER_LEN {
            return Ok(());
        }
        st.active.sync()?;
        let next_id = st.active.id + 1;
        let writer = SegmentWriter::create(&st.dir, next_id, (st.dir_shard_no()) as u16)?;
        let reader = open_reader(&writer.path)?;
        st.readers.insert(next_id, (writer.path.clone(), reader));
        st.disk_bytes += HEADER_LEN;
        st.active = writer;
        st.counters.rolls += 1;
        let rec: &dyn Recorder = &*self.cfg.recorder;
        rec.counter(names::STORE_SEGMENT_ROLLS, 1);
        Ok(())
    }

    /// Live records across all shards.
    pub fn len(&self) -> usize {
        (0..self.cfg.shards).map(|s| self.lock_shard(s).index.len()).sum()
    }

    /// `true` iff no record is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live `(namespace, key)`, sorted (deterministic).
    pub fn keys(&self) -> Vec<(u8, Vec<u8>)> {
        let mut out = Vec::new();
        for s in 0..self.cfg.shards {
            out.extend(self.lock_shard(s).index.keys().cloned());
        }
        out.sort();
        out
    }

    /// Forces every shard's active segment to stable storage.
    ///
    /// # Errors
    ///
    /// The first sync failure.
    pub fn flush(&self) -> Result<()> {
        for s in 0..self.cfg.shards {
            self.lock_shard(s).active.sync()?;
        }
        Ok(())
    }

    /// Reads up to `limit` live entries of namespace `ns` for cache
    /// warming, in key order (deterministic). Emits `store.warm.*`
    /// metrics.
    ///
    /// # Errors
    ///
    /// Read-back I/O or corruption errors.
    pub fn warm_scan(&self, ns: u8, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let rec: &dyn Recorder = &*self.cfg.recorder;
        let _warm_span = Span::new(rec, names::SPAN_STORE_WARM);
        let mut candidates: Vec<Vec<u8>> = Vec::new();
        for s in 0..self.cfg.shards {
            let guard = self.lock_shard(s);
            candidates.extend(
                guard.index.keys().filter(|(ens, _)| *ens == ns).map(|(_, key)| key.clone()),
            );
        }
        candidates.sort();
        candidates.truncate(limit);
        let mut out = Vec::with_capacity(candidates.len());
        let mut bytes = 0u64;
        for key in candidates {
            if let Some(value) = self.get(ns, &key)? {
                bytes += (key.len() + value.len()) as u64;
                out.push((key, value));
            }
        }
        rec.counter(names::STORE_WARM_ENTRIES, out.len() as u64);
        rec.counter(names::STORE_WARM_BYTES, bytes);
        Ok(out)
    }

    /// Aggregated accounting across shards.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats { shards: self.cfg.shards, ..StoreStats::default() };
        for s in 0..self.cfg.shards {
            let guard = self.lock_shard(s);
            stats.segments += guard.readers.len();
            stats.live_records += guard.index.len();
            stats.live_bytes += guard.live_bytes;
            stats.dead_bytes += guard.dead_bytes;
            stats.disk_bytes += guard.disk_bytes;
            stats.appends += guard.counters.appends;
            stats.rolls += guard.counters.rolls;
            stats.torn_truncations += guard.counters.torn_truncations;
            stats.quarantined_regions += guard.counters.quarantined_regions;
            stats.quarantined_bytes += guard.counters.quarantined_bytes;
            stats.recovered_records += guard.counters.recovered_records;
        }
        stats
    }
}

impl ShardState {
    /// The shard number, parsed back from the directory name (used only
    /// for segment headers on rolls).
    fn dir_shard_no(&self) -> usize {
        self.dir
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    }
}

fn open_reader(path: &Path) -> Result<File> {
    File::open(path)
        .map_err(|e| StoreError::io(format!("opening reader for {}", path.display()), e))
}

/// Opens one shard directory: scans segments in id order, truncates torn
/// tails, rebuilds the index (latest frame wins, tombstones unbind), and
/// positions the active writer.
fn open_shard(cfg: &StoreConfig, s: usize) -> Result<ShardState> {
    let dir = cfg.dir.join(format!("shard-{s:02}"));
    std::fs::create_dir_all(&dir)
        .map_err(|e| StoreError::io(format!("creating shard dir {}", dir.display()), e))?;

    let mut ids: Vec<u64> = Vec::new();
    let entries = std::fs::read_dir(&dir)
        .map_err(|e| StoreError::io(format!("listing shard dir {}", dir.display()), e))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| StoreError::io(format!("listing shard dir {}", dir.display()), e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(id) = parse_segment_id(name) {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();

    let mut counters = ShardCounters::default();
    let mut index: BTreeMap<(u8, Vec<u8>), IndexEntry> = BTreeMap::new();
    let mut readers: BTreeMap<u64, (PathBuf, File)> = BTreeMap::new();
    let mut dead_bytes = 0u64;
    let mut disk_bytes = 0u64;
    let mut last_segment: Option<(u64, u64)> = None; // (id, validated len)

    for &id in &ids {
        let path = dir.join(segment_file_name(id));
        let outcome = segment::scan(&path)?;
        let valid_len =
            outcome.frames.last().map(|f| f.offset + u64::from(f.frame_len)).unwrap_or(HEADER_LEN);
        for region in &outcome.quarantined {
            counters.quarantined_regions += 1;
            counters.quarantined_bytes += region.len;
            // Quarantined bytes stay in the file as dead weight, like
            // superseded frames.
            dead_bytes += region.len;
        }
        if let Some(cut) = outcome.truncate_to {
            counters.torn_truncations += 1;
            if cut < HEADER_LEN {
                // Torn during file creation: rewrite a fresh header.
                SegmentWriter::create(&dir, id, s as u16)?;
            } else {
                let file = OpenOptions::new().write(true).open(&path).map_err(|e| {
                    StoreError::io(format!("reopening {} for truncation", path.display()), e)
                })?;
                file.set_len(cut).map_err(|e| {
                    StoreError::io(format!("truncating {} to {}", path.display(), cut), e)
                })?;
            }
        }
        for frame in &outcome.frames {
            counters.recovered_records += 1;
            let key = (frame.record.ns, frame.record.key.clone());
            match frame.record.kind {
                RecordKind::Put => {
                    let entry = IndexEntry {
                        segment: id,
                        offset: frame.offset,
                        frame_len: frame.frame_len,
                    };
                    if let Some(old) = index.insert(key, entry) {
                        dead_bytes += u64::from(old.frame_len);
                    }
                }
                RecordKind::Tombstone => {
                    if let Some(old) = index.remove(&key) {
                        dead_bytes += u64::from(old.frame_len);
                    }
                    dead_bytes += u64::from(frame.frame_len);
                }
            }
        }
        disk_bytes += valid_len;
        readers.insert(id, (path, open_reader(&dir.join(segment_file_name(id)))?));
        last_segment = Some((id, valid_len));
    }

    // Position the active writer: continue the last segment if it has
    // room, else seal it and start the next.
    let active = match last_segment {
        None => {
            let writer = SegmentWriter::create(&dir, 0, s as u16)?;
            readers.insert(0, (writer.path.clone(), open_reader(&writer.path)?));
            disk_bytes += HEADER_LEN;
            writer
        }
        Some((id, len)) if len < cfg.segment_bytes => {
            SegmentWriter::reopen(&dir.join(segment_file_name(id)), id, len)?
        }
        Some((id, _)) => {
            let writer = SegmentWriter::create(&dir, id + 1, s as u16)?;
            readers.insert(id + 1, (writer.path.clone(), open_reader(&writer.path)?));
            disk_bytes += HEADER_LEN;
            counters.rolls += 1;
            writer
        }
    };

    let live_bytes = index.values().map(|e| u64::from(e.frame_len)).sum();
    Ok(ShardState { dir, active, readers, index, live_bytes, dead_bytes, disk_bytes, counters })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anonet-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small(dir: &Path) -> StoreConfig {
        StoreConfig::new(dir).with_shards(4).with_segment_bytes(256)
    }

    /// Appends a tombstone for `(ns, key)` to the newest segment of the
    /// key's shard in a closed store (stores written by older versions
    /// hold such frames).
    fn append_tombstone(dir: &Path, shard: usize, ns: u8, key: &[u8]) {
        use std::io::Write;
        let shard_dir = dir.join(format!("shard-{shard:02}"));
        let newest = std::fs::read_dir(&shard_dir)
            .unwrap()
            .filter_map(|e| parse_segment_id(e.unwrap().file_name().to_str()?))
            .max()
            .unwrap();
        let tomb = Record { kind: RecordKind::Tombstone, ns, key: key.to_vec(), value: Vec::new() };
        OpenOptions::new()
            .append(true)
            .open(shard_dir.join(segment_file_name(newest)))
            .unwrap()
            .write_all(&tomb.encode_frame())
            .unwrap();
    }

    #[test]
    fn put_get_roundtrip_and_latest_wins() {
        let dir = tmp("roundtrip");
        let store = Store::open(small(&dir)).unwrap();
        assert!(store.is_empty());
        store.put(0, b"alpha", b"one").unwrap();
        store.put(1, b"alpha", b"other-namespace").unwrap();
        store.put(0, b"alpha", b"two").unwrap();
        assert_eq!(store.get(0, b"alpha").unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(store.get(1, b"alpha").unwrap().as_deref(), Some(&b"other-namespace"[..]));
        assert_eq!(store.get(0, b"missing").unwrap(), None);
        assert_eq!(store.len(), 2);
        let stats = store.stats();
        assert_eq!(stats.appends, 3);
        assert!(stats.dead_bytes > 0); // the superseded "one"
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persists_across_reopen() {
        let dir = tmp("reopen");
        {
            let store = Store::open(small(&dir)).unwrap();
            for i in 0..20u8 {
                store.put(0, &[i, i + 1], &[i; 10]).unwrap();
            }
            store.flush().unwrap();
        }
        append_tombstone(&dir, 3, 0, &[3, 4]);
        let store = Store::open(small(&dir)).unwrap();
        assert_eq!(store.len(), 19);
        assert_eq!(store.get(0, &[5, 6]).unwrap().as_deref(), Some(&[5u8; 10][..]));
        assert_eq!(store.get(0, &[3, 4]).unwrap(), None); // tombstone honored
        assert_eq!(store.stats().recovered_records, 21); // 20 puts + 1 tombstone
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_roll_and_latest_frame_wins() {
        let dir = tmp("roll");
        let store = Store::open(small(&dir)).unwrap();
        // Overwrite one key many times: all but the last frame are dead.
        for i in 0..50u8 {
            store.put(2, b"hot", &[i; 32]).unwrap();
        }
        let stats = store.stats();
        assert!(stats.rolls > 0, "50 frames of ~50B must roll 256B segments");
        assert!(stats.dead_bytes > 0);
        assert_eq!(stats.live_records, 1);
        assert_eq!(store.get(2, b"hot").unwrap().as_deref(), Some(&[49u8; 32][..]));
        // The latest frame also wins across the rolled segments on reopen.
        store.flush().unwrap();
        drop(store);
        let store = Store::open(small(&dir)).unwrap();
        assert_eq!(store.get(2, b"hot").unwrap().as_deref(), Some(&[49u8; 32][..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_scan_is_in_key_order() {
        let dir = tmp("warm");
        let store = Store::open(small(&dir)).unwrap();
        store.put(0, b"warm", b"w").unwrap();
        store.put(0, b"cold", b"c").unwrap();
        store.put(0, b"hot", b"h").unwrap();
        store.put(1, b"other", b"o").unwrap();
        for _ in 0..5 {
            store.get(0, b"warm").unwrap();
        }
        // Reads do not reorder the scan; `limit` keeps the first keys.
        let entries = store.warm_scan(0, 2).unwrap();
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"cold"[..], &b"hot"[..]]);
        // Fresh open: the same deterministic key order, one namespace only.
        store.flush().unwrap();
        drop(store);
        let store = Store::open(small(&dir)).unwrap();
        let entries = store.warm_scan(0, 10).unwrap();
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"cold"[..], &b"hot"[..], &b"warm"[..]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_route_to_first_byte_shards() {
        let dir = tmp("shards");
        let store = Store::open(small(&dir)).unwrap();
        assert_eq!(store.shard_of(&[0, 9, 9]), 0);
        assert_eq!(store.shard_of(&[1, 0, 0]), 1);
        assert_eq!(store.shard_of(&[5]), 1); // 5 % 4
        assert_eq!(store.shard_of(&[]), 0);
        // Different shards write different directories.
        store.put(0, &[0, 1], b"s0").unwrap();
        store.put(0, &[1, 1], b"s1").unwrap();
        assert!(dir.join("shard-00").join("seg-00000000.log").exists());
        assert!(dir.join("shard-01").join("seg-00000000.log").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_and_writes_emit_segment_spans_and_counters() {
        use std::sync::Arc;
        let dir = tmp("obs");
        let rec = Arc::new(anonet_obs::MemoryRecorder::new());
        let store = Store::open(small(&dir).with_recorder(rec.clone())).unwrap();
        store.put(0, b"k", b"value-bytes").unwrap();
        assert_eq!(store.get(0, b"k").unwrap().as_deref(), Some(&b"value-bytes"[..]));
        assert!(store.get(0, b"missing").unwrap().is_none());
        let snap = rec.snapshot();
        // Recovery scans nest under the open span, one per shard.
        assert_eq!(snap.span("store_open/segment_recover").unwrap().count, 4);
        assert_eq!(snap.span(names::SPAN_SEGMENT_WRITE).unwrap().count, 1);
        // Both the hit and the miss open a read span...
        assert_eq!(snap.span(names::SPAN_SEGMENT_READ).unwrap().count, 2);
        // ...but only the hit reaches a segment frame and counts bytes.
        assert_eq!(snap.counter(names::STORE_SEGMENT_READS), 1);
        assert_eq!(snap.counter(names::STORE_SEGMENT_READ_BYTES), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_configs() {
        let dir = tmp("badcfg");
        assert!(matches!(
            Store::open(StoreConfig::new(&dir).with_shards(0)),
            Err(StoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Store::open(StoreConfig::new(&dir).with_shards(300)),
            Err(StoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Store::open(StoreConfig::new(&dir).with_segment_bytes(8)),
            Err(StoreError::InvalidConfig { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_shard_use_is_consistent() {
        use std::sync::Arc;
        let dir = tmp("concurrent");
        let store = Arc::new(Store::open(small(&dir)).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..30u8 {
                        let key = [t, i];
                        store.put(0, &key, &[t ^ i; 8]).unwrap();
                        assert_eq!(store.get(0, &key).unwrap().as_deref(), Some(&[t ^ i; 8][..]));
                    }
                });
            }
        });
        assert_eq!(store.len(), 120);
        std::fs::remove_dir_all(&dir).ok();
    }
}
