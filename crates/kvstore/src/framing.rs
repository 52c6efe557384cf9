//! Length-prefixed record framing shared by [`crate::LogStore`], the
//! streaming write-ahead log in `xfraud-ingest` and the block segments of
//! `xfraud-diskstore`.
//!
//! A record is `(key_len: u32 LE, key, val_len: u32 LE, val)`. The format is
//! self-delimiting, so a reader can scan a byte stream record-by-record and
//! tell a *clean* end (the stream stops exactly at a record boundary) apart
//! from a *torn* tail (the process died mid-append) — the distinction WAL
//! replay needs: a torn final record is dropped, everything before it is
//! intact.
//!
//! The **checked** variant appends a CRC-32 (IEEE) over the lengths and
//! payload — `(key_len, key, val_len, val, crc32: u32 LE)` — so a reader can
//! additionally tell a *corrupt* record (bits flipped at rest, or a torn
//! write that still happens to parse) from an intact one. New on-disk
//! formats (segment blocks, streamed dataset files) use the checked frames;
//! the unchecked format stays as-is so existing WAL files remain readable.

use std::ops::Range;

/// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8. Hand-rolled: the
/// offline workspace has no checksum crate. `CRC32_TABLES[0]` is the classic
/// bytewise table; `CRC32_TABLES[t][b]` is the CRC of byte `b` followed by
/// `t` zero bytes, so eight lookups fold eight input bytes at once into the
/// same value the bytewise loop reaches. Every checked record, segment index
/// and footer is hashed with this, and a segment read checks each record it
/// walks, so its cost per byte is the disk store's cost per row.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Incremental CRC-32 (IEEE) hasher over multiple byte slices.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feeds `bytes`; any split of the input into successive calls gives
    /// the one-shot value.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
        let (chunks, tail) = bytes.as_chunks::<8>();
        let mut c = self.state;
        for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
            let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
            c = t7[(lo & 0xff) as usize]
                ^ t6[((lo >> 8) & 0xff) as usize]
                ^ t5[((lo >> 16) & 0xff) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[b4 as usize]
                ^ t2[b5 as usize]
                ^ t1[b6 as usize]
                ^ t0[b7 as usize];
        }
        for &b in tail {
            c = t0[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// One-shot CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Bytes a framed record occupies on disk.
pub fn encoded_len(key_len: usize, val_len: usize) -> usize {
    8 + key_len + val_len
}

/// Offset of the value bytes inside a framed record.
pub fn value_offset(key_len: usize) -> usize {
    8 + key_len
}

/// Appends one framed record to `out`.
pub fn encode_into(key: &[u8], value: &[u8], out: &mut Vec<u8>) {
    out.reserve(encoded_len(key.len(), value.len()));
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// Outcome of decoding the record starting at `pos`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStep {
    /// A complete record; `next` is the offset just past it.
    Record {
        key: Range<usize>,
        value: Range<usize>,
        next: usize,
    },
    /// `pos` is exactly the end of the buffer — a clean record boundary.
    Clean,
    /// The buffer ends mid-record (torn append). Bytes from `pos` on are
    /// not a usable record.
    Truncated,
}

/// Decodes the record starting at byte `pos` of `buf`.
pub fn next_frame(buf: &[u8], pos: usize) -> FrameStep {
    if pos == buf.len() {
        return FrameStep::Clean;
    }
    let Some(key_len) = read_u32(buf, pos) else {
        return FrameStep::Truncated;
    };
    let key_start = pos + 4;
    let Some(val_len) = read_u32(buf, key_start + key_len) else {
        return FrameStep::Truncated;
    };
    let val_start = key_start + key_len + 4;
    let next = val_start + val_len;
    if next > buf.len() {
        return FrameStep::Truncated;
    }
    FrameStep::Record {
        key: key_start..key_start + key_len,
        value: val_start..next,
        next,
    }
}

fn read_u32(buf: &[u8], pos: usize) -> Option<usize> {
    let bytes: &[u8; 4] = buf.get(pos..pos + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(*bytes) as usize)
}

/// Iterator over the complete records of a framed byte buffer. Stops before
/// a torn tail; [`FrameIter::scanned`] tells how many bytes of intact
/// records were consumed and [`FrameIter::clean_end`] whether the buffer
/// ended exactly on a record boundary.
pub struct FrameIter<'a> {
    buf: &'a [u8],
    pos: usize,
    clean: bool,
    done: bool,
}

impl<'a> FrameIter<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        FrameIter {
            buf,
            pos: 0,
            clean: false,
            done: false,
        }
    }

    /// Bytes of complete records scanned so far (a safe truncation point).
    pub fn scanned(&self) -> u64 {
        self.pos as u64
    }

    /// `true` iff iteration exhausted the buffer without a torn tail.
    /// Meaningful only after the iterator returns `None`.
    pub fn clean_end(&self) -> bool {
        self.clean
    }
}

impl<'a> Iterator for FrameIter<'a> {
    /// `(key, value)` byte slices of one record.
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match next_frame(self.buf, self.pos) {
            FrameStep::Record { key, value, next } => {
                self.pos = next;
                Some((&self.buf[key], &self.buf[value]))
            }
            FrameStep::Clean => {
                self.clean = true;
                self.done = true;
                None
            }
            FrameStep::Truncated => {
                self.done = true;
                None
            }
        }
    }
}

/// Bytes a *checked* framed record occupies on disk.
pub fn encoded_len_checked(key_len: usize, val_len: usize) -> usize {
    encoded_len(key_len, val_len) + 4
}

/// Appends one checked framed record — the unchecked layout plus a trailing
/// CRC-32 over everything before it (both length prefixes, key and value).
pub fn encode_checked_into(key: &[u8], value: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(encoded_len_checked(key.len(), value.len()));
    encode_into(key, value, out);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Outcome of decoding the checked record starting at `pos`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckedFrameStep {
    /// A complete, checksum-valid record; `next` is the offset just past it.
    Record {
        key: Range<usize>,
        value: Range<usize>,
        next: usize,
    },
    /// `pos` is exactly the end of the buffer — a clean record boundary.
    Clean,
    /// The buffer ends mid-record (torn append).
    Truncated,
    /// A structurally complete record whose CRC does not match its bytes —
    /// corruption at rest, or a torn write that still parses.
    Corrupt,
}

/// Decodes the checked record starting at byte `pos` of `buf`.
pub fn next_checked_frame(buf: &[u8], pos: usize) -> CheckedFrameStep {
    match next_frame(buf, pos) {
        FrameStep::Clean => CheckedFrameStep::Clean,
        FrameStep::Truncated => CheckedFrameStep::Truncated,
        FrameStep::Record { key, value, next } => {
            let Some(stored) = buf.get(next..next + 4) else {
                return CheckedFrameStep::Truncated;
            };
            #[expect(
                clippy::expect_used,
                reason = "get() above proved the 4-byte slice exists; try_into on &[u8;4] cannot fail"
            )]
            let stored = u32::from_le_bytes(stored.try_into().expect("4-byte slice"));
            if crc32(&buf[pos..next]) != stored {
                return CheckedFrameStep::Corrupt;
            }
            CheckedFrameStep::Record {
                key,
                value,
                next: next + 4,
            }
        }
    }
}

/// Why a checked-frame read stopped before the end of its buffer.
///
/// Unlike the unchecked [`FrameIter`] (whose torn tail is an *expected*
/// outcome of WAL replay), a checked stream is sealed data: anything short
/// of a clean end is a defect the reader must not confuse with EOF. `at` is
/// the byte offset of the offending record — everything before it is intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends mid-record (torn append) at byte `at`.
    Truncated { at: u64 },
    /// The record starting at byte `at` parses but fails its CRC —
    /// corruption at rest, or a torn write that still happens to parse.
    Corrupt { at: u64 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { at } => write!(f, "torn record at byte {at}"),
            FrameError::Corrupt { at } => write!(f, "record checksum mismatch at byte {at}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Iterator over the records of a checked-framed buffer, yielding a typed
/// [`FrameError`] for a torn tail or a corrupt record instead of silently
/// ending — a CRC mismatch at the final frame must not read as EOF. After
/// an error (reported once) the iterator is exhausted;
/// [`CheckedFrameIter::clean_end`] / [`CheckedFrameIter::corrupt`] remain
/// for callers that drain first and inspect afterwards.
pub struct CheckedFrameIter<'a> {
    buf: &'a [u8],
    pos: usize,
    clean: bool,
    corrupt: bool,
    done: bool,
}

impl<'a> CheckedFrameIter<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        CheckedFrameIter {
            buf,
            pos: 0,
            clean: false,
            corrupt: false,
            done: false,
        }
    }

    /// Bytes of complete valid records scanned so far (a safe truncation
    /// point).
    pub fn scanned(&self) -> u64 {
        self.pos as u64
    }

    /// `true` iff iteration exhausted the buffer without a torn tail or a
    /// corrupt record. Meaningful only after the iterator returns `None`.
    pub fn clean_end(&self) -> bool {
        self.clean
    }

    /// `true` iff iteration stopped on a checksum mismatch (as opposed to a
    /// torn tail or a clean end).
    pub fn corrupt(&self) -> bool {
        self.corrupt
    }
}

impl<'a> Iterator for CheckedFrameIter<'a> {
    /// `(key, value)` byte slices of one record, or why reading stopped.
    type Item = Result<(&'a [u8], &'a [u8]), FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match next_checked_frame(self.buf, self.pos) {
            CheckedFrameStep::Record { key, value, next } => {
                self.pos = next;
                Some(Ok((&self.buf[key], &self.buf[value])))
            }
            CheckedFrameStep::Clean => {
                self.clean = true;
                self.done = true;
                None
            }
            CheckedFrameStep::Truncated => {
                self.done = true;
                Some(Err(FrameError::Truncated {
                    at: self.pos as u64,
                }))
            }
            CheckedFrameStep::Corrupt => {
                self.corrupt = true;
                self.done = true;
                Some(Err(FrameError::Corrupt {
                    at: self.pos as u64,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_records() {
        let mut buf = Vec::new();
        encode_into(b"alpha", b"one", &mut buf);
        encode_into(b"", b"empty-key", &mut buf);
        encode_into(b"beta", b"", &mut buf);
        let mut it = FrameIter::new(&buf);
        assert_eq!(it.next(), Some((&b"alpha"[..], &b"one"[..])));
        assert_eq!(it.next(), Some((&b""[..], &b"empty-key"[..])));
        assert_eq!(it.next(), Some((&b"beta"[..], &b""[..])));
        assert_eq!(it.next(), None);
        assert!(it.clean_end());
        assert_eq!(it.scanned(), buf.len() as u64);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let mut buf = Vec::new();
        encode_into(b"k1", b"v1", &mut buf);
        let intact = buf.len();
        encode_into(b"k2", b"v2-long-value", &mut buf);
        // Chop the second record anywhere inside it: after 1 byte of the
        // length prefix, inside the key, inside the value.
        for cut in [intact + 1, intact + 5, buf.len() - 1] {
            let mut it = FrameIter::new(&buf[..cut]);
            assert_eq!(it.next(), Some((&b"k1"[..], &b"v1"[..])));
            assert_eq!(it.next(), None);
            assert!(!it.clean_end(), "cut at {cut} must read as torn");
            assert_eq!(it.scanned(), intact as u64);
        }
    }

    #[test]
    fn value_offset_matches_encoding() {
        let mut buf = Vec::new();
        encode_into(b"key", b"value", &mut buf);
        let off = value_offset(3);
        assert_eq!(&buf[off..off + 5], b"value");
        assert_eq!(buf.len(), encoded_len(3, 5));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        let mut inc = Crc32::new();
        inc.update(b"1234");
        inc.update(b"56789");
        assert_eq!(inc.finish(), 0xcbf4_3926);
        // Lengths around the 8-byte chunk edge: tail only, one chunk, one
        // chunk plus tail, two chunks. Reference values from zlib's crc32.
        let fox = b"The quick brown fox jumps over the lazy dog";
        for (len, want) in [
            (1, 0xbe04_7a60),
            (7, 0x6ca4_9ec6),
            (8, 0x74d2_1c74),
            (9, 0x5f7e_3064),
            (15, 0xc311_8c34),
            (16, 0xc81b_2a7c),
            (17, 0x2fa8_0ddd),
            (43, 0x414f_a339),
        ] {
            assert_eq!(crc32(&fox[..len]), want, "len {len}");
        }
        assert_eq!(crc32(&[0u8; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xffu8; 32]), 0xff6c_ab0b);
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&all), 0x2905_8c73);
    }

    /// The bytewise CRC-32 the slice-by-8 tables must reproduce: one
    /// table lookup per byte, the table built bit by bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            let mut x = (c ^ b as u32) & 0xff;
            for _ in 0..8 {
                x = if x & 1 != 0 {
                    0xedb8_8320 ^ (x >> 1)
                } else {
                    x >> 1
                };
            }
            c = x ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    /// Every length up to a few chunks, at every start offset mod 8.
    #[test]
    fn crc32_short_lengths_match_bytewise_at_every_offset() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 151 + 7) as u8).collect();
        for off in 0..8 {
            for len in 0..=64 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "off {off} len {len}");
            }
        }
    }

    #[cfg(not(miri))]
    mod crc_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Slice-by-8 equals the bytewise reference for lengths
            /// `0..=4096` at every start offset mod 8.
            #[test]
            fn crc32_slice_by_8_matches_bytewise(
                buf in prop::collection::vec(any::<u8>(), 8..=4104),
                len in 0usize..=4096,
            ) {
                let len = len.min(buf.len() - 8);
                for off in 0..8 {
                    let s = &buf[off..off + len];
                    prop_assert_eq!(crc32(s), crc32_bytewise(s), "off {} len {}", off, len);
                }
            }

            /// `update` over arbitrary split points gives the one-shot value.
            #[test]
            fn crc32_incremental_splits_match_one_shot(
                buf in prop::collection::vec(any::<u8>(), 0..=1024),
                cuts in prop::collection::vec(0usize..=1024, 0..6),
            ) {
                let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(buf.len())).collect();
                cuts.sort_unstable();
                let mut inc = Crc32::new();
                let mut at = 0;
                for c in cuts.into_iter().chain([buf.len()]) {
                    inc.update(&buf[at..c]);
                    at = c;
                }
                prop_assert_eq!(inc.finish(), crc32(&buf));
                prop_assert_eq!(inc.finish(), crc32_bytewise(&buf));
            }
        }
    }

    #[test]
    fn checked_roundtrip_multiple_records() {
        let mut buf = Vec::new();
        encode_checked_into(b"alpha", b"one", &mut buf);
        encode_checked_into(b"", b"empty-key", &mut buf);
        encode_checked_into(b"beta", b"", &mut buf);
        assert_eq!(
            buf.len(),
            encoded_len_checked(5, 3) + encoded_len_checked(0, 9) + encoded_len_checked(4, 0)
        );
        let mut it = CheckedFrameIter::new(&buf);
        assert_eq!(it.next(), Some(Ok((&b"alpha"[..], &b"one"[..]))));
        assert_eq!(it.next(), Some(Ok((&b""[..], &b"empty-key"[..]))));
        assert_eq!(it.next(), Some(Ok((&b"beta"[..], &b""[..]))));
        assert_eq!(it.next(), None);
        assert!(it.clean_end());
        assert!(!it.corrupt());
        assert_eq!(it.scanned(), buf.len() as u64);
    }

    #[test]
    fn checked_torn_tail_reads_as_truncated_not_corrupt() {
        let mut buf = Vec::new();
        encode_checked_into(b"k1", b"v1", &mut buf);
        let intact = buf.len();
        encode_checked_into(b"k2", b"v2-long-value", &mut buf);
        // Cuts inside the second record: mid-payload and mid-crc-trailer.
        for cut in [intact + 1, intact + 9, buf.len() - 2] {
            let mut it = CheckedFrameIter::new(&buf[..cut]);
            assert_eq!(it.next(), Some(Ok((&b"k1"[..], &b"v1"[..]))));
            assert_eq!(
                it.next(),
                Some(Err(FrameError::Truncated { at: intact as u64 })),
                "cut at {cut}"
            );
            assert_eq!(it.next(), None, "the error is reported once");
            assert!(!it.clean_end(), "cut at {cut}");
            assert!(!it.corrupt(), "a torn tail is not corruption (cut {cut})");
            assert_eq!(it.scanned(), intact as u64);
        }
    }

    #[test]
    fn checked_bit_flip_reads_as_corrupt() {
        let mut buf = Vec::new();
        encode_checked_into(b"k1", b"v1", &mut buf);
        let intact = buf.len();
        encode_checked_into(b"k2", b"v2", &mut buf);
        // Flip one payload bit in the second record's value bytes.
        buf[intact + 10] ^= 0x01;
        let mut it = CheckedFrameIter::new(&buf);
        assert_eq!(it.next(), Some(Ok((&b"k1"[..], &b"v1"[..]))));
        assert_eq!(
            it.next(),
            Some(Err(FrameError::Corrupt { at: intact as u64 }))
        );
        assert_eq!(it.next(), None);
        assert!(it.corrupt());
        assert!(!it.clean_end());
        assert_eq!(it.scanned(), intact as u64);
        // The structural (unchecked) parse still sees a complete record at
        // that offset — the crc is the only thing that flags it.
        assert!(matches!(next_frame(&buf, intact), FrameStep::Record { .. }));
    }

    /// The regression this iterator's typed error exists for: a CRC
    /// mismatch in the *final* frame must surface as an error, not read as
    /// a clean EOF one record early.
    #[test]
    fn corrupt_final_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        encode_checked_into(b"k1", b"v1", &mut buf);
        let last = buf.len();
        encode_checked_into(b"k2", b"v2", &mut buf);
        let crc_byte = buf.len() - 1;
        buf[crc_byte] ^= 0xff;
        let mut it = CheckedFrameIter::new(&buf);
        assert_eq!(it.next(), Some(Ok((&b"k1"[..], &b"v1"[..]))));
        assert_eq!(
            it.next(),
            Some(Err(FrameError::Corrupt { at: last as u64 }))
        );
        assert_eq!(it.next(), None);
        let err = FrameError::Corrupt { at: last as u64 };
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn unchecked_reader_cannot_misparse_checked_stream_cleanly() {
        // The two formats are distinct: a checked stream read as unchecked
        // frames misaligns on the crc trailer (the crc bytes get consumed
        // as the next record's length prefix), so mixing them up is loud
        // rather than silently plausible.
        let mut buf = Vec::new();
        encode_checked_into(b"key-a", b"val-a", &mut buf);
        encode_checked_into(b"key-b", b"val-b", &mut buf);
        let mut it = FrameIter::new(&buf);
        let _ = it.by_ref().count();
        assert!(!it.clean_end());
    }
}
