//! [`DiskStore`]: an LSM-lite persistent KV store.
//!
//! Writes land in an in-memory memtable and, first, in a write-ahead log
//! (the same unchecked frame format the `ingest` WAL uses, via
//! [`xfraud_kvstore::framing`]); once the memtable passes its size budget
//! it is frozen and built into an immutable sorted [`Segment`]
//! (write-temp → fsync → rename → fsync dir). Reads consult the active
//! memtable, then the frozen one, then segments newest-first — and segment
//! reads are zero-copy slices out of mapped pages, the multi-reader profile
//! of the paper's Fig. 13. Compaction merges all segments (newest value
//! wins) into one, whose bytes are identical to a from-scratch build of the
//! live map — pinned by proptest.
//!
//! # Lock hierarchy (acquisition order)
//!
//! `flush_lock → wal → inner`. `put` takes `wal` then `inner` and holds the
//! WAL lock across the memtable insert, so a concurrent rotation can never
//! observe a record in the memtable that its epoch's WAL does not cover
//! (the durability invariant crash recovery relies on). Segment building
//! happens with **no** locks held — only the frozen memtable `Arc` — so
//! readers and writers proceed during a flush; `flush_lock` serialises
//! flush/compact against each other only.
//!
//! # Crash windows
//!
//! * During a segment build: the frozen records are still covered by the
//!   previous-epoch WAL (deleted only after the rename lands), and partial
//!   builds live in `.tmp` files removed on open.
//! * After rename, before WAL delete: replaying the old WAL re-inserts
//!   values identical to the segment's — idempotent.
//! * Mid-WAL-append: the torn tail frame is dropped on replay, exactly the
//!   `ingest` WAL semantics.
//!
//! [`DiskStore::open`] runs recovery: remove `.tmp`, drop segments that
//! fail structural validation, replay WALs in epoch order (truncating torn
//! tails), flush the replayed memtable to a fresh segment, and only then
//! delete the replayed WAL files.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use xfraud_kvstore::framing;
use xfraud_kvstore::KvStore;

use crate::error::StoreError;
use crate::segment::{Segment, SegmentBuilder};

/// Tuning knobs of a [`DiskStore`].
#[derive(Debug, Clone)]
pub struct DiskStoreOptions {
    /// Soft block size inside segments. Part of the on-disk image: flush
    /// and compaction must agree on it for bit-identity.
    pub block_bytes: usize,
    /// Memtable size budget; exceeding it triggers a flush on the writing
    /// thread (write backpressure, bounded memory).
    pub memtable_bytes: usize,
    /// Flush-time segment-count threshold that triggers a compaction.
    pub compact_at_segments: usize,
    /// Serve segment reads from mapped pages (`true`) or owned buffers.
    pub prefer_mmap: bool,
}

impl Default for DiskStoreOptions {
    fn default() -> Self {
        DiskStoreOptions {
            block_bytes: 4096,
            memtable_bytes: 4 << 20,
            compact_at_segments: 6,
            prefer_mmap: true,
        }
    }
}

/// What [`DiskStore::open`] found and repaired.
#[derive(Debug, Default, Clone)]
pub struct RecoveryStats {
    /// Records re-inserted from WAL files.
    pub replayed_records: u64,
    /// WAL bytes dropped as torn tails.
    pub torn_bytes: u64,
    /// Abandoned `.tmp` segment builds removed.
    pub removed_tmp: usize,
    /// Segment files that failed structural validation and were left on
    /// disk but excluded from the live set.
    pub dropped_segments: usize,
    /// Segments serving reads after recovery.
    pub segments_open: usize,
}

/// A point-in-time sizing of the store.
#[derive(Debug, Clone, Default)]
pub struct StorageStats {
    pub n_segments: usize,
    pub segment_bytes: u64,
    pub segment_records: u64,
    pub memtable_records: usize,
    pub memtable_bytes: usize,
    pub wal_bytes: u64,
    pub wal_epoch: u64,
    /// Whether segment reads go through mapped pages.
    pub mmap_active: bool,
}

/// The out-of-core storage contract: everything a [`KvStore`] does, plus
/// explicit control over persistence (flush, compaction, durability) and
/// whole-store scans.
pub trait BlockStore: KvStore {
    /// Freezes the memtable and writes it out as a segment.
    fn flush(&self) -> Result<(), StoreError>;
    /// Merges all segments into one (newest value wins).
    fn compact(&self) -> Result<(), StoreError>;
    /// Forces WAL bytes to stable storage (`fsync`).
    fn sync(&self) -> Result<(), StoreError>;
    /// Current sizes of every tier.
    fn storage_stats(&self) -> StorageStats;
    /// Visits every live record in ascending key order.
    fn scan(&self, f: &mut dyn FnMut(&[u8], &[u8]));
}

struct WalState {
    file: File,
    path: PathBuf,
    epoch: u64,
    bytes: u64,
}

type Memtable = BTreeMap<Vec<u8>, Bytes>;

/// `(active, frozen, segments)` read tiers, newest-precedence first.
type ReadTiers = (Memtable, Option<Arc<Memtable>>, Arc<Vec<Arc<Segment>>>);

/// One sorted `(key, value)` source feeding the k-way scan merge.
type ScanSource<'a> = Box<dyn Iterator<Item = (&'a [u8], &'a [u8])> + 'a>;

struct Inner {
    active: Memtable,
    active_bytes: usize,
    /// Memtable currently being built into a segment: still serving reads,
    /// still covered by the previous-epoch WAL.
    frozen: Option<Arc<Memtable>>,
    /// Oldest → newest. Swapped wholesale (behind an `Arc`) so readers can
    /// drop the lock before touching segment bytes.
    segments: Arc<Vec<Arc<Segment>>>,
}

/// See the module docs for design; see [`BlockStore`] for the API.
pub struct DiskStore {
    dir: PathBuf,
    opts: DiskStoreOptions,
    /// Serialises flush/compact; held across segment builds (which take no
    /// other lock).
    flush_lock: Mutex<()>,
    wal: Mutex<WalState>,
    inner: RwLock<Inner>,
    next_seg_id: AtomicU64,
    contended: AtomicU64,
    /// Reads that hit a CRC-failed record in a sealed segment. The lookup
    /// falls through to older tiers (a corrupt newer record must not shadow
    /// an intact older one), but the corruption is counted, never silent.
    corrupt_reads: AtomicU64,
    recovery: RecoveryStats,
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch:06}.log"))
}

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.seg"))
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Parses `prefix-NNN.suffix` file names produced by this store.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

impl DiskStore {
    /// Opens (creating if absent) a store rooted at `dir`, running crash
    /// recovery first. See the module docs for the recovery protocol.
    pub fn open(dir: impl Into<PathBuf>, opts: DiskStoreOptions) -> Result<DiskStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut stats = RecoveryStats::default();

        // Inventory the directory deterministically.
        let mut names: Vec<String> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();

        // 1. Abandoned segment builds never became visible: remove.
        for name in &names {
            if name.ends_with(".tmp") {
                fs::remove_file(dir.join(name))?;
                stats.removed_tmp += 1;
            }
        }

        // 2. Open segments oldest → newest; drop any that fail validation.
        let mut segments: Vec<Arc<Segment>> = Vec::new();
        let mut max_seg_id = 0u64;
        for name in &names {
            let Some(id) = parse_numbered(name, "seg-", ".seg") else {
                continue;
            };
            max_seg_id = max_seg_id.max(id);
            match Segment::open(&dir.join(name), opts.prefer_mmap) {
                Ok(seg) => segments.push(Arc::new(seg)),
                Err(_) => stats.dropped_segments += 1,
            }
        }

        // 3. Replay WALs in epoch order, dropping torn tails.
        let mut replayed: Memtable = BTreeMap::new();
        let mut replayed_bytes = 0usize;
        let mut wal_files: Vec<(u64, PathBuf)> = names
            .iter()
            .filter_map(|n| Some((parse_numbered(n, "wal-", ".log")?, dir.join(n))))
            .collect();
        wal_files.sort();
        let mut max_epoch = 0u64;
        for (epoch, path) in &wal_files {
            max_epoch = max_epoch.max(*epoch);
            let buf = fs::read(path)?;
            let mut frames = framing::FrameIter::new(&buf);
            for (k, v) in frames.by_ref() {
                replayed_bytes += k.len() + v.len();
                replayed.insert(k.to_vec(), Bytes::copy_from_slice(v));
                stats.replayed_records += 1;
            }
            stats.torn_bytes += buf.len() as u64 - frames.scanned();
        }

        let store = DiskStore {
            flush_lock: Mutex::new(()),
            wal: Mutex::new(WalState {
                file: OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(wal_path(&dir, max_epoch + 1))?,
                path: wal_path(&dir, max_epoch + 1),
                epoch: max_epoch + 1,
                bytes: 0,
            }),
            inner: RwLock::new(Inner {
                active: replayed,
                active_bytes: replayed_bytes,
                frozen: None,
                segments: Arc::new(segments),
            }),
            next_seg_id: AtomicU64::new(max_seg_id + 1),
            contended: AtomicU64::new(0),
            corrupt_reads: AtomicU64::new(0),
            recovery: stats,
            opts,
            dir,
        };

        // 4. Persist the replayed memtable as a segment, then (and only
        //    then) retire the WAL files it came from. A crash inside this
        //    flush leaves the old WALs in place — recovery just reruns.
        store.flush()?;
        for (_, path) in &wal_files {
            fs::remove_file(path)?;
        }
        if !wal_files.is_empty() {
            sync_dir(&store.dir)?;
        }
        let mut store = store;
        store.recovery.segments_open = store.inner.read().segments.len();
        Ok(store)
    }

    /// What [`DiskStore::open`] found and repaired.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fallible write: appends to the WAL, inserts into the memtable, and
    /// flushes (on this thread) if the memtable is over budget.
    pub fn try_put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        // Encode outside the locks.
        let mut frame = Vec::with_capacity(framing::encoded_len(key.len(), value.len()));
        framing::encode_into(key, value, &mut frame);
        let value = Bytes::copy_from_slice(value);
        let key = key.to_vec();

        let need_flush = {
            let mut wal = match self.wal.try_lock() {
                Some(g) => g,
                None => {
                    self.contended.fetch_add(1, Ordering::Relaxed);
                    self.wal.lock()
                }
            };
            wal.file.write_all(&frame)?;
            wal.bytes += frame.len() as u64;
            // Holding `wal` across the insert: rotation (which also takes
            // `wal` then `inner`) can never freeze a memtable containing a
            // record its epoch's WAL has not fully recorded.
            let mut inner = self.inner.write();
            inner.active_bytes += key.len() + value.len();
            inner.active.insert(key, value);
            inner.active_bytes >= self.opts.memtable_bytes
        };
        if need_flush {
            self.flush()?;
        }
        Ok(())
    }

    /// Zero-copy read: calls `f` with the stored value (borrowed from the
    /// memtable entry or straight from mapped segment pages). No lock is
    /// held while `f` runs. Returns whether the key was found.
    pub fn try_get_with(&self, key: &[u8], f: &mut dyn FnMut(&[u8])) -> bool {
        // Snapshot the tiers under the read lock, release, then search.
        let (hit, frozen, segments) = {
            let inner = match self.inner.try_read() {
                Some(g) => g,
                None => {
                    self.contended.fetch_add(1, Ordering::Relaxed);
                    self.inner.read()
                }
            };
            match inner.active.get(key) {
                Some(v) => (Some(v.clone()), None, None),
                None => (
                    None,
                    inner.frozen.clone(),
                    Some(Arc::clone(&inner.segments)),
                ),
            }
        };
        if let Some(v) = hit {
            f(&v);
            return true;
        }
        if let Some(frozen) = frozen {
            if let Some(v) = frozen.get(key) {
                f(v);
                return true;
            }
        }
        if let Some(segments) = segments {
            for seg in segments.iter().rev() {
                match seg.get(key) {
                    Ok(Some(v)) => {
                        f(v);
                        return true;
                    }
                    Ok(None) => {}
                    // Count the corrupt record and keep searching older
                    // segments — `verify` reports the damage with its path.
                    Err(_) => {
                        self.corrupt_reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        false
    }

    /// Number of reads that encountered a CRC-failed record so far.
    pub fn corrupt_read_count(&self) -> u64 {
        self.corrupt_reads.load(Ordering::Relaxed)
    }

    /// Snapshot of the read tiers, newest-precedence first.
    fn tiers(&self) -> ReadTiers {
        let inner = self.inner.read();
        (
            inner.active.clone(),
            inner.frozen.clone(),
            Arc::clone(&inner.segments),
        )
    }

    /// Writes `image` as segment `id`: temp file → fsync → rename → fsync
    /// dir. Only after the rename is the segment reachable by recovery.
    fn persist_segment(&self, id: u64, image: &[u8]) -> Result<Arc<Segment>, StoreError> {
        let tmp = self.dir.join(format!("seg-{id:08}.tmp"));
        let path = seg_path(&self.dir, id);
        let mut f = File::create(&tmp)?;
        f.write_all(image)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, &path)?;
        sync_dir(&self.dir)?;
        Ok(Arc::new(Segment::open(&path, self.opts.prefer_mmap)?))
    }

    /// Compacts while already holding `flush_lock`.
    fn compact_locked(&self) -> Result<(), StoreError> {
        let segments = Arc::clone(&self.inner.read().segments);
        if segments.len() < 2 {
            return Ok(());
        }
        // Newest-precedence-first source list for the merge. A corrupt
        // record aborts the compaction (the old segments would be deleted
        // afterwards — rewriting them minus silently dropped records must
        // never happen); the first frame error is carried out through the
        // cell since the merge callback itself is infallible.
        let frame_err: std::cell::RefCell<Option<StoreError>> = std::cell::RefCell::new(None);
        let sources: Vec<_> = segments
            .iter()
            .rev()
            .map(|s| {
                s.iter().map_while(|rec| match rec {
                    Ok(kv) => Some(kv),
                    Err(e) => {
                        frame_err.borrow_mut().get_or_insert(e);
                        None
                    }
                })
            })
            .collect();
        let mut builder = SegmentBuilder::new(self.opts.block_bytes);
        let mut failed = None;
        merge_sorted(sources, &mut |k, v| {
            if failed.is_none() {
                if let Err(e) = builder.add(k, v) {
                    failed = Some(e);
                }
            }
        });
        if let Some(e) = frame_err.into_inner() {
            return Err(e);
        }
        if let Some(e) = failed {
            return Err(e);
        }
        let id = self.next_seg_id.fetch_add(1, Ordering::Relaxed);
        let merged = self.persist_segment(id, &builder.finish())?;
        {
            let mut inner = self.inner.write();
            inner.segments = Arc::new(vec![merged]);
        }
        // Old segments are shadowed by the merged one (it is newest and a
        // superset), so a crash between rename and these deletes recovers
        // to the same live set.
        for seg in segments.iter() {
            fs::remove_file(seg.path())?;
        }
        sync_dir(&self.dir)?;
        Ok(())
    }
}

impl BlockStore for DiskStore {
    fn flush(&self) -> Result<(), StoreError> {
        let _flush = self.flush_lock.lock();

        // Rotate the WAL and freeze the memtable in one critical section
        // (wal → inner), so every frozen record is covered by the old WAL.
        let (old_wal_path, frozen) = {
            let mut wal = self.wal.lock();
            let mut inner = self.inner.write();
            if inner.active.is_empty() {
                return Ok(());
            }
            let new_epoch = wal.epoch + 1;
            let new_path = wal_path(&self.dir, new_epoch);
            let new_file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&new_path)?;
            wal.file.sync_all()?;
            let old_path = std::mem::replace(&mut wal.path, new_path);
            wal.file = new_file;
            wal.epoch = new_epoch;
            wal.bytes = 0;
            let map = Arc::new(std::mem::take(&mut inner.active));
            inner.active_bytes = 0;
            inner.frozen = Some(Arc::clone(&map));
            (old_path, map)
        };

        // Build the segment with no locks held: readers see the frozen
        // tier, writers fill the fresh active memtable + new-epoch WAL.
        let mut builder = SegmentBuilder::new(self.opts.block_bytes);
        for (k, v) in frozen.iter() {
            builder.add(k, v)?;
        }
        let id = self.next_seg_id.fetch_add(1, Ordering::Relaxed);
        let seg = self.persist_segment(id, &builder.finish())?;

        let n_segments = {
            let mut inner = self.inner.write();
            let mut segs: Vec<Arc<Segment>> = (*inner.segments).clone();
            segs.push(seg);
            inner.segments = Arc::new(segs);
            inner.frozen = None;
            inner.segments.len()
        };
        // The segment now covers the frozen records; the old WAL is dead.
        fs::remove_file(&old_wal_path)?;
        sync_dir(&self.dir)?;

        if n_segments >= self.opts.compact_at_segments {
            self.compact_locked()?;
        }
        Ok(())
    }

    fn compact(&self) -> Result<(), StoreError> {
        let _flush = self.flush_lock.lock();
        self.compact_locked()
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.wal.lock().file.sync_all()?;
        Ok(())
    }

    fn storage_stats(&self) -> StorageStats {
        let (wal_bytes, wal_epoch) = {
            let wal = self.wal.lock();
            (wal.bytes, wal.epoch)
        };
        let inner = self.inner.read();
        StorageStats {
            n_segments: inner.segments.len(),
            segment_bytes: inner.segments.iter().map(|s| s.file_bytes() as u64).sum(),
            segment_records: inner.segments.iter().map(|s| s.n_records()).sum(),
            memtable_records: inner.active.len() + inner.frozen.as_ref().map_or(0, |f| f.len()),
            memtable_bytes: inner.active_bytes,
            wal_bytes,
            wal_epoch,
            mmap_active: inner.segments.iter().all(|s| s.is_mapped()),
        }
    }

    fn scan(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        let (active, frozen, segments) = self.tiers();
        let mut sources: Vec<ScanSource<'_>> = Vec::new();
        sources.push(Box::new(
            active.iter().map(|(k, v)| (k.as_slice(), v.as_ref())),
        ));
        if let Some(fr) = &frozen {
            sources.push(Box::new(fr.iter().map(|(k, v)| (k.as_slice(), v.as_ref()))));
        }
        for seg in segments.iter().rev() {
            // `scan` is infallible by contract: a corrupt record ends that
            // segment's contribution and is counted, like the point-read
            // path; `verify` reports the damage with its path.
            sources.push(Box::new(seg.iter().map_while(|rec| match rec {
                Ok(kv) => Some(kv),
                Err(_) => {
                    self.corrupt_reads.fetch_add(1, Ordering::Relaxed);
                    None
                }
            })));
        }
        merge_sorted(sources, f);
    }
}

/// K-way merge of sorted `(key, value)` iterators. `sources` are ordered by
/// precedence (highest first): when several sources carry the same key, the
/// highest-precedence value is emitted and the rest are skipped.
fn merge_sorted<'a, I>(sources: Vec<I>, f: &mut dyn FnMut(&[u8], &[u8]))
where
    I: Iterator<Item = (&'a [u8], &'a [u8])> + 'a,
{
    let mut iters: Vec<Peekable<I>> = sources.into_iter().map(|s| s.peekable()).collect();
    loop {
        // Smallest key across all sources…
        let mut min_key: Option<&[u8]> = None;
        for it in iters.iter_mut() {
            if let Some((k, _)) = it.peek() {
                if min_key.is_none_or(|m| *k < m) {
                    min_key = Some(k);
                }
            }
        }
        let Some(min) = min_key else {
            return;
        };
        let min = min.to_vec(); // detach from the peeked borrow
                                // …emitted from the first (highest-precedence) source holding it.
        let mut emitted = false;
        for it in iters.iter_mut() {
            if it.peek().is_some_and(|(k, _)| *k == min.as_slice()) {
                #[expect(
                    clippy::expect_used,
                    reason = "peek() just confirmed the item exists; next() cannot return None"
                )]
                let (k, v) = it.next().expect("peeked item");
                if !emitted {
                    f(k, v);
                    emitted = true;
                }
            }
        }
    }
}

impl KvStore for DiskStore {
    fn put(&self, key: &[u8], value: &[u8]) {
        #[expect(
            clippy::expect_used,
            reason = "KvStore::put is infallible by contract; disk failure under a benchmark/training store is fatal, matching LogStore"
        )]
        self.try_put(key, value).expect("diskstore write failed");
    }

    fn get(&self, key: &[u8]) -> Option<Bytes> {
        let mut out = None;
        self.try_get_with(key, &mut |v| out = Some(Bytes::copy_from_slice(v)));
        out
    }

    fn get_with(&self, key: &[u8], f: &mut dyn FnMut(&[u8])) -> bool {
        self.try_get_with(key, f)
    }

    fn len(&self) -> usize {
        let mut n = 0usize;
        self.scan(&mut |_, _| n += 1);
        n
    }

    fn store_name(&self) -> &'static str {
        "diskstore"
    }

    fn contended_ops(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xfraud-diskstore-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> DiskStoreOptions {
        DiskStoreOptions {
            block_bytes: 256,
            memtable_bytes: 1 << 10, // 1 KiB: force frequent flushes
            compact_at_segments: 4,
            prefer_mmap: true,
        }
    }

    fn key(i: u64) -> [u8; 8] {
        i.to_be_bytes()
    }

    #[test]
    fn roundtrip_through_flushes_and_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let store = DiskStore::open(&dir, small_opts()).unwrap();
            for i in 0..500u64 {
                store.put(&key(i), format!("value-{i}").as_bytes());
            }
            // Overwrites must shadow older segment records.
            for i in 0..100u64 {
                store.put(&key(i), format!("updated-{i}").as_bytes());
            }
            assert_eq!(store.len(), 500);
            for i in 0..500u64 {
                let want = if i < 100 {
                    format!("updated-{i}")
                } else {
                    format!("value-{i}")
                };
                assert_eq!(
                    store.get(&key(i)).as_deref(),
                    Some(want.as_bytes()),
                    "i={i}"
                );
            }
            assert_eq!(store.get(b"missing"), None);
        }
        // Reopen: everything must come back from disk.
        let store = DiskStore::open(&dir, small_opts()).unwrap();
        assert_eq!(store.len(), 500);
        for i in [0u64, 50, 99, 100, 250, 499] {
            let want = if i < 100 {
                format!("updated-{i}")
            } else {
                format!("value-{i}")
            };
            assert_eq!(store.get(&key(i)).as_deref(), Some(want.as_bytes()));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_yields_sorted_newest_wins() {
        let dir = temp_dir("scan");
        let store = DiskStore::open(&dir, small_opts()).unwrap();
        for i in (0..200u64).rev() {
            store.put(&key(i), b"old");
        }
        store.flush().unwrap();
        for i in 0..50u64 {
            store.put(&key(i * 4), b"new");
        }
        let mut seen = Vec::new();
        store.scan(&mut |k, v| seen.push((k.to_vec(), v.to_vec())));
        assert_eq!(seen.len(), 200);
        for (i, (k, v)) in seen.iter().enumerate() {
            assert_eq!(k.as_slice(), &key(i as u64));
            let want: &[u8] = if i % 4 == 0 && i < 200 {
                b"new"
            } else {
                b"old"
            };
            assert_eq!(v.as_slice(), want, "key {i}");
        }
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_reads_and_collapses_segments() {
        let dir = temp_dir("compact");
        let mut opts = small_opts();
        opts.compact_at_segments = 100; // manual compaction only
        let store = DiskStore::open(&dir, opts).unwrap();
        for round in 0..5u64 {
            for i in 0..120u64 {
                store.put(&key(i), format!("r{round}-{i}").as_bytes());
            }
            store.flush().unwrap();
        }
        assert!(store.storage_stats().n_segments >= 5);
        store.compact().unwrap();
        let stats = store.storage_stats();
        assert_eq!(stats.n_segments, 1);
        assert_eq!(store.len(), 120);
        for i in 0..120u64 {
            assert_eq!(
                store.get(&key(i)).as_deref(),
                Some(format!("r4-{i}").as_bytes())
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_copy_get_with_reads_mapped_pages() {
        let dir = temp_dir("getwith");
        let store = DiskStore::open(&dir, small_opts()).unwrap();
        for i in 0..300u64 {
            store.put(&key(i), &i.to_le_bytes());
        }
        store.flush().unwrap();
        assert!(store.storage_stats().mmap_active);
        let mut seen = 0u64;
        assert!(store.get_with(&key(123), &mut |v| {
            seen = u64::from_le_bytes(v.try_into().unwrap());
        }));
        assert_eq!(seen, 123);
        assert!(!store.get_with(b"absent", &mut |_| unreachable!()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let dir = temp_dir("concurrent");
        let store = Arc::new(DiskStore::open(&dir, small_opts()).unwrap());
        for i in 0..400u64 {
            store.put(&key(i), &i.to_le_bytes());
        }
        crossbeam::scope(|scope| {
            for t in 0..3 {
                let store = Arc::clone(&store);
                scope.spawn(move |_| {
                    for pass in 0..5 {
                        for i in 0..400u64 {
                            let got = store.get(&key(i)).unwrap();
                            assert_eq!(&got[..8], &i.to_le_bytes(), "t{t} pass{pass}");
                        }
                    }
                });
            }
            let store = Arc::clone(&store);
            scope.spawn(move |_| {
                for i in 400..900u64 {
                    store.put(&key(i), &i.to_le_bytes());
                }
            });
        })
        .unwrap();
        assert_eq!(store.len(), 900);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_unflushed_writes_replays_wal() {
        let dir = temp_dir("replay");
        {
            let mut opts = small_opts();
            opts.memtable_bytes = 1 << 30; // never auto-flush
            let store = DiskStore::open(&dir, opts).unwrap();
            for i in 0..50u64 {
                store.put(&key(i), b"wal-only");
            }
            store.sync().unwrap();
            // Dropped without flush: records exist only in the WAL.
        }
        let store = DiskStore::open(&dir, small_opts()).unwrap();
        assert_eq!(store.recovery_stats().replayed_records, 50);
        assert_eq!(store.len(), 50);
        for i in 0..50u64 {
            assert_eq!(store.get(&key(i)).as_deref(), Some(&b"wal-only"[..]));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
