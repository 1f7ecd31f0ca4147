//! Binary chunk-frame format.
//!
//! Each completed query chunk is serialized into one self-delimiting,
//! self-checking frame:
//!
//! ```text
//! magic "PJF1"  u32 LE
//! payload_len   u32 LE      (bytes that follow the 12-byte header)
//! crc32         u32 LE      (IEEE CRC-32 of the payload)
//! payload:
//!   chunk_index        u32
//!   prefetch_disabled  u64   \
//!   block_clamped      u64   |  per-chunk degradation / work stats,
//!   flush_retries      u64   |  merged into the resumed RunReport
//!   n_prescored        u64   |
//!   n_thorough         u64   /
//!   n_queries          u32
//!   per query:
//!     name_len u32, name bytes (UTF-8)
//!     n_placements u32
//!     per placement:
//!       edge u32, log_likelihood u64 (f64 bits),
//!       pendant_length u64 (f64 bits), distal_length u64 (f64 bits)
//! ```
//!
//! Everything is little-endian. Floats travel as exact IEEE-754 bit
//! patterns so a resumed run reproduces the uninterrupted run's jplace
//! byte for byte. The CRC plus the length prefix let replay distinguish
//! "valid prefix + torn tail" (expected after a crash mid-append; the
//! tail is discarded) from a complete frame.

use phylo_obs::crc32;

/// Frame header magic, `b"PJF1"` read as a little-endian u32.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"PJF1");

/// Fixed header size: magic + payload_len + crc32.
pub const FRAME_HEADER_LEN: usize = 12;

/// Frames larger than this are treated as corrupt rather than allocated
/// (a torn length field could otherwise request gigabytes).
pub const MAX_PAYLOAD_LEN: u32 = 256 * 1024 * 1024;

/// Per-chunk statistics carried alongside the placements so a resumed
/// run's report equals the uninterrupted run's report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkStats {
    pub prefetch_disabled: u64,
    pub block_clamped: u64,
    pub flush_retries: u64,
    pub n_prescored: u64,
    pub n_thorough: u64,
}

/// One placement of one query on one branch, with floats as computed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementRecord {
    pub edge: u32,
    pub log_likelihood: f64,
    pub pendant_length: f64,
    pub distal_length: f64,
}

/// All retained placements for one query, already in final sorted order
/// (the orchestrator journals post-finalized chunk slices).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRecord {
    pub name: String,
    pub placements: Vec<PlacementRecord>,
}

/// One journal entry: a completed chunk of queries.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkFrame {
    pub chunk_index: u32,
    pub stats: ChunkStats,
    pub queries: Vec<QueryRecord>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a payload during decode; every read is bounds-checked so
/// arbitrary (torn, bit-flipped) bytes can never panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

impl ChunkFrame {
    /// Serializes the payload (everything after the 12-byte header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.queries.len() * 64);
        put_u32(&mut buf, self.chunk_index);
        put_u64(&mut buf, self.stats.prefetch_disabled);
        put_u64(&mut buf, self.stats.block_clamped);
        put_u64(&mut buf, self.stats.flush_retries);
        put_u64(&mut buf, self.stats.n_prescored);
        put_u64(&mut buf, self.stats.n_thorough);
        put_u32(&mut buf, self.queries.len() as u32);
        for q in &self.queries {
            put_u32(&mut buf, q.name.len() as u32);
            buf.extend_from_slice(q.name.as_bytes());
            put_u32(&mut buf, q.placements.len() as u32);
            for p in &q.placements {
                put_u32(&mut buf, p.edge);
                put_u64(&mut buf, p.log_likelihood.to_bits());
                put_u64(&mut buf, p.pendant_length.to_bits());
                put_u64(&mut buf, p.distal_length.to_bits());
            }
        }
        buf
    }

    /// Serializes the full frame: header + payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        put_u32(&mut buf, FRAME_MAGIC);
        put_u32(&mut buf, payload.len() as u32);
        put_u32(&mut buf, crc32(&payload));
        buf.extend_from_slice(&payload);
        buf
    }

    /// Decodes a payload whose CRC already matched. Returns `None` on any
    /// structural inconsistency (short buffer, bad UTF-8, trailing bytes);
    /// the caller treats that exactly like a CRC failure.
    pub fn decode_payload(payload: &[u8]) -> Option<ChunkFrame> {
        let mut r = Reader { buf: payload, pos: 0 };
        let chunk_index = r.u32()?;
        let stats = ChunkStats {
            prefetch_disabled: r.u64()?,
            block_clamped: r.u64()?,
            flush_retries: r.u64()?,
            n_prescored: r.u64()?,
            n_thorough: r.u64()?,
        };
        let n_queries = r.u32()? as usize;
        // Cheap sanity bound: each query needs at least 8 bytes.
        if n_queries > payload.len() / 8 + 1 {
            return None;
        }
        let mut queries = Vec::with_capacity(n_queries);
        for _ in 0..n_queries {
            let name_len = r.u32()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?).ok()?.to_owned();
            let n_placements = r.u32()? as usize;
            if n_placements > payload.len() / 28 + 1 {
                return None;
            }
            let mut placements = Vec::with_capacity(n_placements);
            for _ in 0..n_placements {
                placements.push(PlacementRecord {
                    edge: r.u32()?,
                    log_likelihood: f64::from_bits(r.u64()?),
                    pendant_length: f64::from_bits(r.u64()?),
                    distal_length: f64::from_bits(r.u64()?),
                });
            }
            queries.push(QueryRecord { name, placements });
        }
        if r.pos != payload.len() {
            return None;
        }
        Some(ChunkFrame { chunk_index, stats, queries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> ChunkFrame {
        ChunkFrame {
            chunk_index: 3,
            stats: ChunkStats {
                prefetch_disabled: 1,
                block_clamped: 2,
                flush_retries: 3,
                n_prescored: 40,
                n_thorough: 5,
            },
            queries: vec![
                QueryRecord {
                    name: "q one".into(),
                    placements: vec![
                        PlacementRecord {
                            edge: 7,
                            log_likelihood: -1234.5678,
                            pendant_length: 0.03125,
                            distal_length: 0.5,
                        },
                        PlacementRecord {
                            edge: 0,
                            log_likelihood: -1240.0,
                            pendant_length: 1e-9,
                            distal_length: 0.0,
                        },
                    ],
                },
                QueryRecord { name: String::new(), placements: vec![] },
            ],
        }
    }

    #[test]
    fn frame_roundtrip_is_exact() {
        let f = sample_frame();
        let bytes = f.encode();
        assert_eq!(&bytes[0..4], b"PJF1");
        let payload = &bytes[FRAME_HEADER_LEN..];
        let decoded = ChunkFrame::decode_payload(payload).expect("valid payload decodes");
        assert_eq!(decoded, f);
        // Float bit patterns must survive exactly.
        assert_eq!(
            decoded.queries[0].placements[0].log_likelihood.to_bits(),
            f.queries[0].placements[0].log_likelihood.to_bits()
        );
    }

    #[test]
    fn decode_rejects_truncated_and_trailing_bytes() {
        let payload = sample_frame().encode_payload();
        for cut in 0..payload.len() {
            assert!(ChunkFrame::decode_payload(&payload[..cut]).is_none(), "cut at {cut}");
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert!(ChunkFrame::decode_payload(&extended).is_none());
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let payload = sample_frame().encode_payload();
        let good = crc32(&payload);
        for byte in [0usize, payload.len() / 2, payload.len() - 1] {
            let mut bad = payload.clone();
            bad[byte] ^= 0x40;
            assert_ne!(crc32(&bad), good, "flip at byte {byte} went undetected");
        }
    }
}
