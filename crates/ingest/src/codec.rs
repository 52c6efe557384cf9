//! Binary codec for [`GraphEvent`] — the value payload of WAL records.
//!
//! The encoding is versionless and little-endian: one tag byte, then the
//! variant's fields. Labels (`Option<bool>`) take one byte (`0` = none,
//! `1` = legit, `2` = fraud). Feature rows are length-prefixed `f32`s, so
//! a decoder never needs out-of-band knowledge of the graph's feature
//! width — width mismatches surface when the event is *applied*, with a
//! proper [`xfraud_hetgraph::GraphError::FeatureDimMismatch`].

use xfraud_hetgraph::{GraphEvent, NodeType, ALL_NODE_TYPES};

use crate::error::IngestError;

const TAG_ADD_TXN: u8 = 0;
const TAG_ADD_ENTITY: u8 = 1;
const TAG_LINK: u8 = 2;
const TAG_LABEL: u8 = 3;

fn label_byte(label: Option<bool>) -> u8 {
    match label {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    }
}

fn label_from_byte(b: u8) -> Result<Option<bool>, IngestError> {
    match b {
        0 => Ok(None),
        1 => Ok(Some(false)),
        2 => Ok(Some(true)),
        _ => Err(IngestError::corrupt(format!("bad label byte {b}"))),
    }
}

/// Appends the encoding of `event` to `out`.
pub fn encode_event(event: &GraphEvent, out: &mut Vec<u8>) {
    match event {
        GraphEvent::AddTxn { features, label } => {
            out.push(TAG_ADD_TXN);
            out.extend_from_slice(&(features.len() as u32).to_le_bytes());
            for &f in features {
                out.extend_from_slice(&f.to_le_bytes());
            }
            out.push(label_byte(*label));
        }
        GraphEvent::AddEntity { ty } => {
            out.push(TAG_ADD_ENTITY);
            out.push(ty.index() as u8);
        }
        GraphEvent::Link { a, b } => {
            out.push(TAG_LINK);
            out.extend_from_slice(&(*a as u64).to_le_bytes());
            out.extend_from_slice(&(*b as u64).to_le_bytes());
        }
        GraphEvent::Label { node, label } => {
            out.push(TAG_LABEL);
            out.extend_from_slice(&(*node as u64).to_le_bytes());
            out.push(label_byte(*label));
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], IngestError> {
        let slice = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| IngestError::corrupt("event payload ends early"))?;
        self.pos += n;
        Ok(slice)
    }

    /// `take(N)` as a fixed array; the length mismatch arm is
    /// unreachable when `take` succeeds, but a corrupt-frame error keeps
    /// the decoder panic-free on any input.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], IngestError> {
        <[u8; N]>::try_from(self.take(N)?)
            .map_err(|_| IngestError::corrupt("event payload ends early"))
    }

    fn u8(&mut self) -> Result<u8, IngestError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, IngestError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, IngestError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f32(&mut self) -> Result<f32, IngestError> {
        Ok(f32::from_le_bytes(self.array()?))
    }
}

/// Decodes one event from `buf` (which must hold exactly one encoding).
pub fn decode_event(buf: &[u8]) -> Result<GraphEvent, IngestError> {
    let mut r = Reader { buf, pos: 0 };
    let event = match r.u8()? {
        TAG_ADD_TXN => {
            let n = r.u32()? as usize;
            let mut features = Vec::with_capacity(n);
            for _ in 0..n {
                features.push(r.f32()?);
            }
            let label = label_from_byte(r.u8()?)?;
            GraphEvent::AddTxn { features, label }
        }
        TAG_ADD_ENTITY => {
            let i = r.u8()? as usize;
            let ty: NodeType = *ALL_NODE_TYPES
                .get(i)
                .ok_or_else(|| IngestError::corrupt(format!("bad node-type index {i}")))?;
            GraphEvent::AddEntity { ty }
        }
        TAG_LINK => GraphEvent::Link {
            a: r.u64()? as usize,
            b: r.u64()? as usize,
        },
        TAG_LABEL => GraphEvent::Label {
            node: r.u64()? as usize,
            label: label_from_byte(r.u8()?)?,
        },
        tag => return Err(IngestError::corrupt(format!("unknown event tag {tag}"))),
    };
    if r.pos != buf.len() {
        return Err(IngestError::corrupt("trailing bytes after event"));
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_roundtrip() {
        let events = vec![
            GraphEvent::AddTxn {
                features: vec![0.25, -1.5, f32::MIN_POSITIVE],
                label: Some(true),
            },
            GraphEvent::AddTxn {
                features: vec![],
                label: None,
            },
            GraphEvent::AddEntity {
                ty: NodeType::Buyer,
            },
            GraphEvent::Link { a: 0, b: 71 },
            GraphEvent::Label {
                node: 12,
                label: Some(false),
            },
            GraphEvent::Label {
                node: 13,
                label: None,
            },
        ];
        for e in &events {
            let mut buf = Vec::new();
            encode_event(e, &mut buf);
            assert_eq!(&decode_event(&buf).unwrap(), e);
        }
    }

    #[test]
    fn corrupt_payloads_are_errors_not_panics() {
        let mut buf = Vec::new();
        encode_event(
            &GraphEvent::AddTxn {
                features: vec![1.0, 2.0],
                label: Some(true),
            },
            &mut buf,
        );
        assert!(decode_event(&buf[..buf.len() - 1]).is_err(), "short read");
        let mut long = buf.clone();
        long.push(0);
        assert!(decode_event(&long).is_err(), "trailing bytes");
        assert!(decode_event(&[99]).is_err(), "unknown tag");
        assert!(decode_event(&[TAG_ADD_ENTITY, 200]).is_err(), "bad type");
    }

    /// Regression test for the former `Reader::{u32,u64,f32}` panic sites
    /// (`try_into().expect(…)`): every strict prefix of every variant's encoding must decode to
    /// `Err`, never panic — a torn WAL tail hands the decoder exactly
    /// these prefixes.
    #[test]
    fn every_truncation_of_every_variant_is_an_error() {
        let events = vec![
            GraphEvent::AddTxn {
                features: vec![0.5, -2.0, 3.25],
                label: Some(false),
            },
            GraphEvent::AddEntity { ty: NodeType::Pmt },
            GraphEvent::Link { a: 7, b: 19 },
            GraphEvent::Label {
                node: 3,
                label: Some(true),
            },
        ];
        for e in &events {
            let mut buf = Vec::new();
            encode_event(e, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    decode_event(&buf[..cut]).is_err(),
                    "prefix of len {cut} of {e:?} must be a decode error"
                );
            }
        }
    }
}
