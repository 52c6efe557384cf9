//! Immutable sorted segment files.
//!
//! A segment is the unit of on-disk storage: a sorted run of `(key, value)`
//! records packed into fixed-target-size **blocks**, followed by a sparse
//! **index** (one entry per block) and a fixed-size **footer**. Layout:
//!
//! ```text
//! ┌────────────────────────── data region ──────────────────────────┐
//! │ block 0: checked frames │ block 1: checked frames │ …           │
//! ├─────────────────────────── index ───────────────────────────────┤
//! │ per block: offset u64 │ len u32 │ first_key_len u32 │ first_key │
//! ├─────────────────────── footer (48 bytes) ───────────────────────┤
//! │ index_off u64 │ index_len u64 │ n_records u64 │ n_blocks u32    │
//! │ block_target u32 │ index_crc u32 │ footer_crc u32 │ magic u64   │
//! └─────────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Records inside a block use the *checked*
//! frame variant of [`xfraud_kvstore::framing`] (CRC-32 per record);
//! `index_crc` covers the index bytes and `footer_crc` the footer's first
//! 36 bytes, so [`Segment::open`] can validate structure without scanning
//! the data region. A lookup binary-searches the index by block first-key,
//! then scans one block's frames.
//!
//! Segment content is a pure function of the record sequence and the block
//! target — no ids, timestamps or padding — which is what makes compaction
//! provably bit-identical to a from-scratch build of the same live set.

use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};

use xfraud_kvstore::framing;

use crate::error::StoreError;
use crate::mmap::Mmap;

/// `"xFSEG"` + format version 1.
const SEGMENT_MAGIC: u64 = 0x7846_5345_4700_0001;
/// Fixed footer size in bytes.
pub const FOOTER_LEN: usize = 48;

/// Builds one segment's byte image from an ascending key sequence.
pub struct SegmentBuilder {
    block_target: usize,
    data: Vec<u8>,
    index: Vec<u8>,
    n_blocks: u32,
    n_records: u64,
    block_start: usize,
    block_first_key: Option<Vec<u8>>,
    last_key: Option<Vec<u8>>,
}

impl SegmentBuilder {
    /// `block_target` is the soft block size: a block closes once adding
    /// the next record would push it past the target (a single oversized
    /// record still becomes one block).
    pub fn new(block_target: usize) -> SegmentBuilder {
        SegmentBuilder {
            block_target: block_target.max(1),
            data: Vec::new(),
            index: Vec::new(),
            n_blocks: 0,
            n_records: 0,
            block_start: 0,
            block_first_key: None,
            last_key: None,
        }
    }

    /// Appends one record. Keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if let Some(last) = &self.last_key {
            if key <= last.as_slice() {
                return Err(StoreError::UnsortedKeys);
            }
        }
        let frame_len = framing::encoded_len_checked(key.len(), value.len());
        let open_block_len = self.data.len() - self.block_start;
        if self.block_first_key.is_some() && open_block_len + frame_len > self.block_target {
            self.seal_block();
        }
        if self.block_first_key.is_none() {
            self.block_start = self.data.len();
            self.block_first_key = Some(key.to_vec());
        }
        framing::encode_checked_into(key, value, &mut self.data);
        self.n_records += 1;
        self.last_key = Some(key.to_vec());
        Ok(())
    }

    fn seal_block(&mut self) {
        let Some(first_key) = self.block_first_key.take() else {
            return;
        };
        let len = self.data.len() - self.block_start;
        self.index
            .extend_from_slice(&(self.block_start as u64).to_le_bytes());
        self.index.extend_from_slice(&(len as u32).to_le_bytes());
        self.index
            .extend_from_slice(&(first_key.len() as u32).to_le_bytes());
        self.index.extend_from_slice(&first_key);
        self.n_blocks += 1;
    }

    /// Number of records added so far.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Seals the open block and returns the complete segment image
    /// (data ++ index ++ footer).
    pub fn finish(mut self) -> Vec<u8> {
        self.seal_block();
        let index_off = self.data.len() as u64;
        let index_len = self.index.len() as u64;
        let index_crc = framing::crc32(&self.index);
        let mut out = self.data;
        out.extend_from_slice(&self.index);
        let footer_start = out.len();
        out.extend_from_slice(&index_off.to_le_bytes());
        out.extend_from_slice(&index_len.to_le_bytes());
        out.extend_from_slice(&self.n_records.to_le_bytes());
        out.extend_from_slice(&self.n_blocks.to_le_bytes());
        out.extend_from_slice(&(self.block_target as u32).to_le_bytes());
        out.extend_from_slice(&index_crc.to_le_bytes());
        let footer_crc = framing::crc32(&out[footer_start..]);
        out.extend_from_slice(&footer_crc.to_le_bytes());
        out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
        out
    }
}

/// One block's index entry, resolved against the segment buffer.
struct BlockMeta {
    /// Data-region byte range of the block.
    bytes: Range<usize>,
    /// Buffer range holding the block's first key.
    first_key: Range<usize>,
}

/// An open (usually memory-mapped) immutable segment.
pub struct Segment {
    data: Mmap,
    blocks: Vec<BlockMeta>,
    n_records: u64,
    path: PathBuf,
}

fn read_u64(buf: &[u8], pos: usize) -> Option<u64> {
    let bytes: &[u8; 8] = buf.get(pos..pos + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(*bytes))
}

fn read_u32(buf: &[u8], pos: usize) -> Option<u32> {
    let bytes: &[u8; 4] = buf.get(pos..pos + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(*bytes))
}

impl Segment {
    /// Opens and structurally validates a segment file: magic, footer CRC,
    /// index CRC, and every index entry's bounds. Record payloads are *not*
    /// scanned here — each record carries its own CRC, checked on read.
    pub fn open(path: &Path, prefer_mmap: bool) -> Result<Segment, StoreError> {
        let mut file = File::open(path)?;
        let data = Mmap::open(&mut file, prefer_mmap)?;
        let corrupt = |detail: &str| StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.to_string(),
        };
        let buf = data.as_slice();
        if buf.len() < FOOTER_LEN {
            return Err(corrupt("shorter than footer"));
        }
        let footer = buf.len() - FOOTER_LEN;
        if read_u64(buf, footer + 40) != Some(SEGMENT_MAGIC) {
            return Err(corrupt("bad magic"));
        }
        let stored_footer_crc =
            read_u32(buf, footer + 36).ok_or_else(|| corrupt("short footer"))?;
        if framing::crc32(&buf[footer..footer + 36]) != stored_footer_crc {
            return Err(corrupt("footer checksum mismatch"));
        }
        let index_off = read_u64(buf, footer).ok_or_else(|| corrupt("short footer"))? as usize;
        let index_len = read_u64(buf, footer + 8).ok_or_else(|| corrupt("short footer"))? as usize;
        let n_records = read_u64(buf, footer + 16).ok_or_else(|| corrupt("short footer"))?;
        let n_blocks = read_u32(buf, footer + 24).ok_or_else(|| corrupt("short footer"))? as usize;
        if index_off.checked_add(index_len) != Some(footer) {
            return Err(corrupt("index does not abut footer"));
        }
        let stored_index_crc = read_u32(buf, footer + 32).ok_or_else(|| corrupt("short footer"))?;
        let index = &buf[index_off..index_off + index_len];
        if framing::crc32(index) != stored_index_crc {
            return Err(corrupt("index checksum mismatch"));
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut pos = 0usize;
        for _ in 0..n_blocks {
            let off =
                read_u64(index, pos).ok_or_else(|| corrupt("truncated index entry"))? as usize;
            let len =
                read_u32(index, pos + 8).ok_or_else(|| corrupt("truncated index entry"))? as usize;
            let key_len =
                read_u32(index, pos + 12).ok_or_else(|| corrupt("truncated index entry"))? as usize;
            let key_start = pos + 16;
            if key_start + key_len > index.len() {
                return Err(corrupt("index entry key out of bounds"));
            }
            if off
                .checked_add(len)
                .map(|end| end > index_off)
                .unwrap_or(true)
            {
                return Err(corrupt("block extends past data region"));
            }
            blocks.push(BlockMeta {
                bytes: off..off + len,
                first_key: index_off + key_start..index_off + key_start + key_len,
            });
            pos = key_start + key_len;
        }
        if pos != index.len() {
            return Err(corrupt("index has trailing bytes"));
        }
        Ok(Segment {
            data,
            blocks,
            n_records,
            path: path.to_path_buf(),
        })
    }

    /// Number of records the footer declares.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> usize {
        self.data.as_slice().len()
    }

    /// Whether the file is served from mapped pages (vs an owned copy).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// The file this segment was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn first_key(&self, b: &BlockMeta) -> &[u8] {
        &self.data.as_slice()[b.first_key.clone()]
    }

    /// Looks `key` up, returning the stored value as a slice borrowed
    /// straight from the (mapped) segment buffer — the zero-copy read. A
    /// record whose per-frame CRC fails is a [`StoreError::Corrupt`], not
    /// an absent key.
    pub fn get(&self, key: &[u8]) -> Result<Option<&[u8]>, StoreError> {
        // Last block whose first key is <= key holds the only candidates.
        let Some(idx) = self
            .blocks
            .partition_point(|b| self.first_key(b) <= key)
            .checked_sub(1)
        else {
            return Ok(None);
        };
        let block = &self.data.as_slice()[self.blocks[idx].bytes.clone()];
        for rec in framing::CheckedFrameIter::new(block) {
            let (k, v) = rec.map_err(|e| self.frame_error(idx, e))?;
            if k == key {
                return Ok(Some(v));
            }
            if k > key {
                break;
            }
        }
        Ok(None)
    }

    fn frame_error(&self, block_idx: usize, e: framing::FrameError) -> StoreError {
        StoreError::Corrupt {
            path: self.path.clone(),
            detail: format!("block {block_idx}: {e}"),
        }
    }

    /// Iterates every record in key order (blocks are sorted and so are the
    /// records within each).
    pub fn iter(&self) -> SegmentIter<'_> {
        SegmentIter {
            segment: self,
            block_idx: 0,
            frames: framing::CheckedFrameIter::new(match self.blocks.first() {
                Some(b) => &self.data.as_slice()[b.bytes.clone()],
                None => &[],
            }),
        }
    }

    /// Fully scans every block, verifying each record's CRC. Returns the
    /// number of records, or a corruption error.
    pub fn verify_all_blocks(&self) -> Result<u64, StoreError> {
        let mut count = 0u64;
        for (idx, b) in self.blocks.iter().enumerate() {
            let block = &self.data.as_slice()[b.bytes.clone()];
            for rec in framing::CheckedFrameIter::new(block) {
                rec.map_err(|e| self.frame_error(idx, e))?;
                count += 1;
            }
        }
        if count != self.n_records {
            return Err(StoreError::Corrupt {
                path: self.path.clone(),
                detail: format!("footer declares {} records, found {count}", self.n_records),
            });
        }
        Ok(count)
    }
}

/// Iterator of [`Segment::iter`].
pub struct SegmentIter<'a> {
    segment: &'a Segment,
    block_idx: usize,
    frames: framing::CheckedFrameIter<'a>,
}

impl<'a> Iterator for SegmentIter<'a> {
    /// One record, or the typed corruption error that stopped the scan.
    type Item = Result<(&'a [u8], &'a [u8]), StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rec) = self.frames.next() {
                return Some(rec.map_err(|e| self.segment.frame_error(self.block_idx, e)));
            }
            self.block_idx += 1;
            let b = self.segment.blocks.get(self.block_idx)?;
            self.frames =
                framing::CheckedFrameIter::new(&self.segment.data.as_slice()[b.bytes.clone()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_temp(name: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("xfraud-seg-test-{name}.seg"));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync_all().unwrap();
        path
    }

    fn sample_records(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let k = (i as u64).to_be_bytes().to_vec();
                let v = vec![(i % 251) as u8; 16 + i % 40];
                (k, v)
            })
            .collect()
    }

    fn build(records: &[(Vec<u8>, Vec<u8>)], block_target: usize) -> Vec<u8> {
        let mut b = SegmentBuilder::new(block_target);
        for (k, v) in records {
            b.add(k, v).unwrap();
        }
        b.finish()
    }

    #[test]
    fn roundtrip_all_records_and_gets() {
        let records = sample_records(300);
        let path = write_temp("roundtrip", &build(&records, 256));
        let seg = Segment::open(&path, true).unwrap();
        assert_eq!(seg.n_records(), 300);
        assert!(seg.n_blocks() > 1, "256-byte target must split blocks");
        let scanned: Vec<_> = seg
            .iter()
            .map(|rec| rec.map(|(k, v)| (k.to_vec(), v.to_vec())).unwrap())
            .collect();
        assert_eq!(scanned, records);
        for (k, v) in &records {
            assert_eq!(seg.get(k).unwrap(), Some(v.as_slice()));
        }
        assert_eq!(seg.get(b"nonexistent-key-way-past").unwrap(), None);
        assert_eq!(
            seg.get(&0u64.to_be_bytes()[..7]).unwrap(),
            None,
            "short key misses"
        );
        assert_eq!(seg.verify_all_blocks().unwrap(), 300);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_segment_opens_and_serves_nothing() {
        let path = write_temp("empty", &build(&[], 4096));
        let seg = Segment::open(&path, true).unwrap();
        assert_eq!(seg.n_records(), 0);
        assert_eq!(seg.n_blocks(), 0);
        assert_eq!(seg.get(b"anything").unwrap(), None);
        assert_eq!(seg.iter().count(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsorted_keys_are_rejected() {
        let mut b = SegmentBuilder::new(4096);
        b.add(b"b", b"1").unwrap();
        assert!(matches!(b.add(b"a", b"2"), Err(StoreError::UnsortedKeys)));
        assert!(matches!(b.add(b"b", b"3"), Err(StoreError::UnsortedKeys)));
    }

    #[test]
    fn build_is_deterministic() {
        let records = sample_records(120);
        assert_eq!(build(&records, 512), build(&records, 512));
        assert_ne!(
            build(&records, 512),
            build(&records, 1024),
            "block geometry is part of the image"
        );
    }

    /// The on-disk format pinned to the byte: an FNV-1a 64 of one fixed
    /// image (record CRCs, index CRC, footer CRC included), taken with the
    /// bytewise CRC-32 the format was written with. Any change to how a
    /// CRC is computed that changes a value fails here.
    #[test]
    fn segment_image_is_pinned() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut records: Vec<(Vec<u8>, Vec<u8>)> = (0..400u64)
            .map(|i| {
                let len = (i * 37 % 301) as usize;
                let v = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                let width = 4 + i as usize % 5;
                (format!("{i:0width$}").into_bytes(), v)
            })
            .collect();
        records.sort();
        let image = build(&records, 4096);
        let fnv = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((records.len(), image.len()), (400, 67_610));
        assert_eq!(fnv, 0xf4ec_eb54_6dad_eaf0);
    }

    #[test]
    fn torn_or_corrupt_footer_is_rejected() {
        let records = sample_records(50);
        let image = build(&records, 512);
        // Torn: any strict prefix must fail to open.
        for cut in [0, 10, image.len() - FOOTER_LEN, image.len() - 1] {
            let path = write_temp("torn", &image[..cut]);
            assert!(Segment::open(&path, true).is_err(), "cut at {cut}");
            std::fs::remove_file(&path).unwrap();
        }
        // Bit flip in the footer: caught by footer crc or magic.
        let mut flipped = image.clone();
        let n = flipped.len();
        flipped[n - 20] ^= 0x40;
        let path = write_temp("flipped-footer", &flipped);
        assert!(Segment::open(&path, true).is_err());
        std::fs::remove_file(&path).unwrap();
        // Bit flip in the index: caught by index crc.
        let footer = image.len() - FOOTER_LEN;
        let index_off = u64::from_le_bytes(image[footer..footer + 8].try_into().unwrap()) as usize;
        let mut flipped = image.clone();
        flipped[index_off] ^= 0x01;
        let path = write_temp("flipped-index", &flipped);
        assert!(Segment::open(&path, true).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_is_a_typed_error_not_an_absent_key() {
        let records = sample_records(40);
        let mut image = build(&records, 256);
        // Flip one byte early in the data region (inside the first record).
        image[12] ^= 0x80;
        let path = write_temp("flipped-record", &image);
        let seg = Segment::open(&path, true).unwrap(); // structure still valid
        assert!(seg.verify_all_blocks().is_err());
        // A point read through the corrupt block errors instead of
        // pretending the key is absent.
        assert!(matches!(
            seg.get(&records[0].0),
            Err(StoreError::Corrupt { .. })
        ));
        // The full scan surfaces the same typed error mid-iteration.
        assert!(seg
            .iter()
            .any(|rec| matches!(rec, Err(StoreError::Corrupt { .. }))));
        std::fs::remove_file(&path).unwrap();
    }
}
