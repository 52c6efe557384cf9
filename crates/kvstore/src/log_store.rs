use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::stores::KvStore;

/// One shard of the lock-striped index: key → `(offset, len)` in the log.
type IndexShard = RwLock<std::collections::HashMap<Vec<u8>, (u64, u32)>>;

/// Append-only log with an in-memory index — the durability-shaped store.
///
/// * Writes: a single appender lock serialises `(key_len, key, val_len,
///   val)` records onto the log file and publishes `(offset, len)` into a
///   lock-striped index.
/// * Reads: resolve the index shard under a read lock, then `pread` the
///   value bytes positionally — concurrent readers never contend on the
///   file descriptor (the property that makes LMDB-style readers scale).
pub struct LogStore {
    file: File,
    appender: Mutex<AppendState>,
    index: Vec<IndexShard>,
}

struct AppendState {
    write_handle: File,
    offset: u64,
}

impl LogStore {
    /// Creates (or truncates) a log file at `path`.
    pub fn create(path: &Path, n_shards: usize) -> std::io::Result<Self> {
        assert!(n_shards > 0);
        let write_handle = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let file = File::open(path)?;
        Ok(LogStore {
            file,
            appender: Mutex::new(AppendState {
                write_handle,
                offset: 0,
            }),
            index: (0..n_shards)
                .map(|_| RwLock::new(std::collections::HashMap::new()))
                .collect(),
        })
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % self.index.len() as u64) as usize
    }

    /// Bytes appended so far (log length, including overwritten records —
    /// an append-only log never reclaims).
    pub fn log_bytes(&self) -> u64 {
        self.appender.lock().offset
    }
}

impl KvStore for LogStore {
    fn put(&self, key: &[u8], value: &[u8]) {
        let mut rec = Vec::new();
        crate::framing::encode_into(key, value, &mut rec);
        let value_offset;
        {
            let mut app = self.appender.lock();
            #[expect(
                clippy::expect_used,
                reason = "the KvStore trait is infallible by design (PR 1); an append failure leaves no sane continuation"
            )]
            app.write_handle.write_all(&rec).expect("log append");
            value_offset = app.offset + crate::framing::value_offset(key.len()) as u64;
            app.offset += rec.len() as u64;
        }
        self.index[self.shard_of(key)]
            .write()
            .insert(key.to_vec(), (value_offset, value.len() as u32));
    }

    fn get(&self, key: &[u8]) -> Option<Bytes> {
        let (offset, len) = *self.index[self.shard_of(key)].read().get(key)?;
        let mut buf = vec![0u8; len as usize];
        #[expect(
            clippy::expect_used,
            reason = "offset/len come from our own index; a short read means the log file was truncated externally"
        )]
        self.file.read_exact_at(&mut buf, offset).expect("log read");
        Some(Bytes::from(buf))
    }

    fn len(&self) -> usize {
        self.index.iter().map(|s| s.read().len()).sum()
    }

    fn store_name(&self) -> &'static str {
        "append-log"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xfraud-kv-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "backed by a real file; Miri's isolation forbids host I/O"
    )]
    fn log_store_roundtrip_and_overwrite() {
        let path = temp_path("roundtrip");
        let store = LogStore::create(&path, 4).unwrap();
        store.put(b"k1", b"value-one");
        store.put(b"k2", b"value-two");
        assert_eq!(store.get(b"k1").as_deref(), Some(&b"value-one"[..]));
        store.put(b"k1", b"replaced");
        assert_eq!(store.get(b"k1").as_deref(), Some(&b"replaced"[..]));
        assert_eq!(store.len(), 2);
        // Overwrites grow the log (append-only).
        assert!(store.log_bytes() > (b"value-one".len() + b"value-two".len()) as u64);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "backed by a real file; Miri's isolation forbids host I/O"
    )]
    fn log_store_concurrent_readers() {
        let path = temp_path("concurrent");
        let store = Arc::new(LogStore::create(&path, 8).unwrap());
        for i in 0..500u64 {
            store.put(&i.to_be_bytes(), format!("payload-{i}").as_bytes());
        }
        crossbeam::scope(|scope| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                scope.spawn(move |_| {
                    for i in 0..500u64 {
                        let expected = format!("payload-{i}");
                        assert_eq!(
                            store.get(&i.to_be_bytes()).as_deref(),
                            Some(expected.as_bytes())
                        );
                    }
                });
            }
        })
        .unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "backed by a real file; Miri's isolation forbids host I/O"
    )]
    fn missing_key_is_none() {
        let path = temp_path("missing");
        let store = LogStore::create(&path, 2).unwrap();
        assert_eq!(store.get(b"nope"), None);
        let _ = std::fs::remove_file(path);
    }
}
